//! The typed sweeps behind Figs. 1 and 6–8.
//!
//! Each is described once as a `Sweep`: the scenarios it needs and the
//! reader that turns their results into typed rows. The campaign
//! ([`crate::paper`]) pushes the scenarios through its one
//! [`runner::run_many`] batch and gates the rows; the `pub` functions here
//! run one sweep alone under the default config, for the integration tests
//! that assert the shape claims at their own sizes.

use crate::runner::{self, ControlMode, Scenario, ScenarioResult};
use netsim::{SimDuration, SimTime};
use topology::{generators, TopoSpec};
use toposense::Config;
use traffic::TrafficModel;

/// What a batch of scenarios is read into once it has run: results arrive
/// in the scenarios' order.
pub(crate) type Reader<T> = Box<dyn Fn(&[ScenarioResult]) -> T>;

/// One scenario per parameter point, and the reader that turns the results
/// into one typed row per point.
pub(crate) struct Sweep<R> {
    pub scenarios: Vec<Scenario>,
    pub read: Reader<Vec<R>>,
}

impl<R> Sweep<R> {
    fn new<P: 'static>(
        points: Vec<P>,
        scenario: impl Fn(&P) -> Scenario,
        row: impl Fn(&P, &ScenarioResult) -> R + 'static,
    ) -> Self {
        Sweep {
            scenarios: points.iter().map(scenario).collect(),
            read: Box::new(move |rs| points.iter().zip(rs).map(|(p, r)| row(p, r)).collect()),
        }
    }

    /// Run the sweep on its own (each point is an independent simulation,
    /// so the batch parallelises over them).
    fn run(self) -> Vec<R> {
        (self.read)(&runner::run_many(&self.scenarios))
    }
}

/// Traffic models the paper sweeps: CBR, VBR(P=3), VBR(P=6).
pub fn paper_traffic_models() -> Vec<TrafficModel> {
    vec![TrafficModel::Cbr, TrafficModel::Vbr { p: 3.0 }, TrafficModel::Vbr { p: 6.0 }]
}

/// Settling time excluded from stability counting (startup climb).
pub(crate) const WARMUP: SimDuration = SimDuration(5_000_000_000);

// ---------------------------------------------------------------- Fig. 6/7

/// One stability point (Figs. 6 and 7).
#[derive(Clone, Debug)]
pub struct StabilityRow {
    pub model: String,
    /// Receivers per set (Fig. 6) or number of sessions (Fig. 7).
    pub x: usize,
    /// Max subscription changes by any receiver over the run.
    pub max_changes: usize,
    /// Mean seconds between successive changes for that receiver.
    pub mean_gap_secs: f64,
}

/// Figs. 6 and 7 are one sweep over `topo(x)` × traffic model: Fig. 6 grows
/// the receivers per set of Topology A, Fig. 7 the competing sessions of
/// Topology B.
pub(crate) fn stability(
    topo: fn(usize) -> TopoSpec,
    xs: &[usize],
    models: &[TrafficModel],
    duration: SimDuration,
    seed: u64,
    cfg: Config,
) -> Sweep<StabilityRow> {
    Sweep::new(
        cartesian(xs, models),
        |&(n, model)| Scenario::new(topo(n), model, seed).with_config(cfg).with_duration(duration),
        |&(n, model), r| {
            let (max_changes, mean_gap_secs) =
                r.stability(SimTime::ZERO + WARMUP, SimTime::ZERO + r.duration);
            StabilityRow { model: model.label(), x: n, max_changes, mean_gap_secs }
        },
    )
}

/// Fig. 6 — stability in Topology A vs. receivers per set.
pub fn fig6_stability_a(
    receiver_counts: &[usize],
    models: &[TrafficModel],
    duration: SimDuration,
    seed: u64,
) -> Vec<StabilityRow> {
    let topo = generators::topology_a_default;
    stability(topo, receiver_counts, models, duration, seed, Config::default()).run()
}

/// Fig. 7 — stability in Topology B vs. number of competing sessions.
pub fn fig7_stability_b(
    session_counts: &[usize],
    models: &[TrafficModel],
    duration: SimDuration,
    seed: u64,
) -> Vec<StabilityRow> {
    let topo = generators::topology_b_default;
    stability(topo, session_counts, models, duration, seed, Config::default()).run()
}

// ------------------------------------------------------------------ Fig. 8

/// One fairness point (Fig. 8).
#[derive(Clone, Debug)]
pub struct FairnessRow {
    pub model: String,
    pub sessions: usize,
    /// Mean relative deviation over 0 – duration/2.
    pub dev_first_half: f64,
    /// Mean relative deviation over duration/2 – duration.
    pub dev_second_half: f64,
    /// Jain index over per-session received bytes.
    pub jain: f64,
}

pub(crate) fn fairness(
    session_counts: &[usize],
    models: &[TrafficModel],
    duration: SimDuration,
    seed: u64,
    cfg: Config,
) -> Sweep<FairnessRow> {
    Sweep::new(
        cartesian(session_counts, models),
        |&(n, model)| {
            Scenario::new(generators::topology_b_default(n), model, seed)
                .with_config(cfg)
                .with_duration(duration)
        },
        |&(n, model), r| {
            let half = SimTime::ZERO + r.duration / 2;
            let end = SimTime::ZERO + r.duration;
            let bytes: Vec<f64> = r.session_bytes().iter().map(|&(_, b)| b as f64).collect();
            FairnessRow {
                model: model.label(),
                sessions: n,
                dev_first_half: r.mean_relative_deviation(SimTime::ZERO, half).unwrap_or(f64::NAN),
                dev_second_half: r.mean_relative_deviation(half, end).unwrap_or(f64::NAN),
                jain: metrics::jain_index(&bytes),
            }
        },
    )
}

/// Fig. 8 — inter-session fairness in Topology B.
pub fn fig8_fairness(
    session_counts: &[usize],
    models: &[TrafficModel],
    duration: SimDuration,
    seed: u64,
) -> Vec<FairnessRow> {
    fairness(session_counts, models, duration, seed, Config::default()).run()
}

// ------------------------------------------------------------------ Fig. 1

/// Fig. 1 — the motivating example, quantified: with topology-blind
/// control, the greedy receiver at n4 keeps probing layer 3 and its loss
/// spills onto the slow sibling at n3; TopoSense confines it.
#[derive(Clone, Debug)]
pub struct MotivationRow {
    pub mode: String,
    /// Mean loss rate at the *innocent* receiver n3 after warmup; `None`
    /// when the run ends before the warmup does.
    pub n3_loss: Option<f64>,
    /// Mean level held by n3 (optimal 1).
    pub n3_mean_level: f64,
    /// Mean level held by the greedy n4 (optimal 2).
    pub n4_mean_level: f64,
    /// Mean level of the independent n5 (optimal 4).
    pub n5_mean_level: f64,
}

pub(crate) fn motivation(duration: SimDuration, seed: u64, cfg: Config) -> Sweep<MotivationRow> {
    let modes = vec![
        ("TopoSense", ControlMode::TopoSense { staleness: SimDuration::ZERO }),
        ("RLM", ControlMode::Rlm),
    ];
    Sweep::new(
        modes,
        |&(_, mode)| {
            Scenario::new(generators::figure1(), TrafficModel::Cbr, seed)
                .with_control(mode)
                .with_config(cfg)
                .with_duration(duration)
        },
        |&(name, _), r| {
            let start = SimTime::from_secs(30);
            let end = SimTime::ZERO + r.duration;
            let by_set = |set: u32| {
                r.receivers.iter().find(|x| x.set == set).expect("figure1 has sets 0..3")
            };
            let mean_level = |set: u32| by_set(set).level_series().mean(start, end);
            MotivationRow {
                mode: name.into(),
                n3_loss: by_set(0).mean_loss(start, end),
                n3_mean_level: mean_level(0),
                n4_mean_level: mean_level(1),
                n5_mean_level: mean_level(2),
            }
        },
    )
}

/// Run the Fig. 1 example under TopoSense and under the RLM baseline.
pub fn fig1_motivation(duration: SimDuration, seed: u64) -> Vec<MotivationRow> {
    motivation(duration, seed, Config::default()).run()
}

// ------------------------------------------------------------------ misc

pub(crate) fn cartesian<A: Copy, B: Copy>(xs: &[A], ys: &[B]) -> Vec<(A, B)> {
    xs.iter().flat_map(|&x| ys.iter().map(move |&y| (x, y))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short-duration smoke versions of the typed sweeps; the full-length
    /// shape assertions live in the root integration tests.
    #[test]
    fn fig6_smoke() {
        let rows = fig6_stability_a(&[1, 2], &[TrafficModel::Cbr], SimDuration::from_secs(60), 3);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.mean_gap_secs > 0.0);
        }
    }

    #[test]
    fn fig8_smoke() {
        let rows = fig8_fairness(&[2], &[TrafficModel::Cbr], SimDuration::from_secs(120), 3);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        // Short smoke run still includes the startup transient; the strict
        // fairness bound is asserted at full length in the integration tests.
        assert!(r.jain > 0.55, "jain {}", r.jain);
        assert!(r.dev_second_half < 1.0);
    }
}
