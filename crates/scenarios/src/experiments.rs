//! The paper's experiments, one function per figure.
//!
//! Every function returns typed rows; the `fig*` binaries in the root crate
//! print them as tables and the integration tests assert the shape claims.
//! Sweeps parallelise over parameter points with rayon — each point is an
//! independent simulation.

use crate::runner::{self, ControlMode, Scenario};
use baselines::rlm::RlmParams;
use metrics::StepSeries;
use netsim::{SimDuration, SimTime};
use rayon::prelude::*;
use topology::generators;
use traffic::TrafficModel;

/// Traffic models the paper sweeps: CBR, VBR(P=3), VBR(P=6).
pub fn paper_traffic_models() -> Vec<TrafficModel> {
    vec![TrafficModel::Cbr, TrafficModel::Vbr { p: 3.0 }, TrafficModel::Vbr { p: 6.0 }]
}

/// Settling time excluded from stability counting (startup climb).
const WARMUP: SimDuration = SimDuration(5_000_000_000);

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

/// Fig. 6 — stability in Topology A vs. receivers per set.
pub fn fig6_stability_a(
    receiver_counts: &[usize],
    models: &[TrafficModel],
    duration: SimDuration,
    seed: u64,
) -> Vec<StabilityRow> {
    let points: Vec<(usize, TrafficModel)> = cartesian(receiver_counts, models);
    points
        .par_iter()
        .map(|&(n, model)| {
            let s = Scenario::new(generators::topology_a_default(n), model, seed)
                .with_duration(duration);
            let r = runner::run(&s);
            let (max_changes, mean_gap_secs) =
                r.stability(SimTime::ZERO + WARMUP, SimTime::ZERO + duration);
            StabilityRow { model: model.label(), x: n, max_changes, mean_gap_secs }
        })
        .collect()
}

/// Fig. 7 — stability in Topology B vs. number of competing sessions.
pub fn fig7_stability_b(
    session_counts: &[usize],
    models: &[TrafficModel],
    duration: SimDuration,
    seed: u64,
) -> Vec<StabilityRow> {
    let points: Vec<(usize, TrafficModel)> = cartesian(session_counts, models);
    points
        .par_iter()
        .map(|&(n, model)| {
            let s = Scenario::new(generators::topology_b_default(n), model, seed)
                .with_duration(duration);
            let r = runner::run(&s);
            let (max_changes, mean_gap_secs) =
                r.stability(SimTime::ZERO + WARMUP, SimTime::ZERO + duration);
            StabilityRow { model: model.label(), x: n, max_changes, mean_gap_secs }
        })
        .collect()
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

/// Fig. 8 — inter-session fairness in Topology B.
pub fn fig8_fairness(
    session_counts: &[usize],
    models: &[TrafficModel],
    duration: SimDuration,
    seed: u64,
) -> Vec<FairnessRow> {
    let points: Vec<(usize, TrafficModel)> = cartesian(session_counts, models);
    points
        .par_iter()
        .map(|&(n, model)| {
            let s = Scenario::new(generators::topology_b_default(n), model, seed)
                .with_duration(duration);
            let r = runner::run(&s);
            let half = SimTime::ZERO + duration / 2;
            let end = SimTime::ZERO + duration;
            let bytes: Vec<f64> = r.session_bytes().iter().map(|&(_, b)| b as f64).collect();
            FairnessRow {
                model: model.label(),
                sessions: n,
                dev_first_half: r.mean_relative_deviation(SimTime::ZERO, half).unwrap_or(f64::NAN),
                dev_second_half: r.mean_relative_deviation(half, end).unwrap_or(f64::NAN),
                jain: metrics::jain_index(&bytes),
            }
        })
        .collect()
}

// ------------------------------------------------------------------ Fig. 9

/// Fig. 9 — subscription + loss time series for 4 competing VBR sessions.
#[derive(Clone, Debug)]
pub struct TimeseriesOut {
    /// Per session: `(time, level)` samples.
    pub levels: Vec<Vec<(f64, u8)>>,
    /// Per session: `(time, loss rate)` samples.
    pub losses: Vec<Vec<(f64, f64)>>,
    /// Transient over-subscription above the 4-layer optimum happened.
    pub oversubscription_seen: bool,
}

/// Fig. 9 — the raw series behind the sample plot.
pub fn fig9_timeseries(duration: SimDuration, seed: u64) -> TimeseriesOut {
    let s = Scenario::new(generators::topology_b_default(4), TrafficModel::Vbr { p: 3.0 }, seed)
        .with_duration(duration);
    let r = runner::run(&s);
    let mut levels = Vec::new();
    let mut losses = Vec::new();
    let mut over = false;
    for rec in &r.receivers {
        levels.push(
            rec.stats.level_series.iter().map(|&(t, l)| (t.as_secs_f64(), l)).collect::<Vec<_>>(),
        );
        losses.push(
            rec.stats.loss_series.iter().map(|&(t, l)| (t.as_secs_f64(), l)).collect::<Vec<_>>(),
        );
        over |= rec.stats.level_series.iter().any(|&(_, l)| l > rec.optimal);
    }
    TimeseriesOut { levels, losses, oversubscription_seen: over }
}

// ----------------------------------------------------------------- Fig. 10

/// One staleness point (Fig. 10).
#[derive(Clone, Debug)]
pub struct StalenessRow {
    pub receivers_per_set: usize,
    pub staleness_secs: u64,
    pub mean_relative_deviation: f64,
    /// Mean loss rate across receivers and report windows — where the
    /// staleness damage shows up in this implementation (see
    /// EXPERIMENTS.md): receivers sit at near-optimal levels but their
    /// mistakes go uncorrected for longer.
    pub mean_loss: f64,
}

/// Seeds averaged per Fig. 10 point (single-run deviation noise is on the
/// same order as the staleness effect).
const FIG10_SEEDS: u64 = 5;

/// Fig. 10 — impact of stale topology information on Topology A, VBR(P=3).
/// Each point is the mean over `FIG10_SEEDS` independent runs.
pub fn fig10_staleness(
    receiver_counts: &[usize],
    staleness_secs: &[u64],
    duration: SimDuration,
    seed: u64,
) -> Vec<StalenessRow> {
    let points: Vec<(usize, u64)> = cartesian(receiver_counts, staleness_secs);
    let runs: Vec<(usize, u64, u64)> = points
        .iter()
        .flat_map(|&(n, st)| (0..FIG10_SEEDS).map(move |k| (n, st, seed + k * 7919)))
        .collect();
    let devs: Vec<((usize, u64), f64, f64)> = runs
        .par_iter()
        .map(|&(n, st, sd)| {
            let s =
                Scenario::new(generators::topology_a_default(n), TrafficModel::Vbr { p: 3.0 }, sd)
                    .with_control(ControlMode::TopoSense { staleness: SimDuration::from_secs(st) })
                    .with_duration(duration);
            let r = runner::run(&s);
            // Measure from t=0: convergence delay is part of what staleness
            // costs (the paper's runs were measured whole).
            let dev = r
                .mean_relative_deviation(SimTime::ZERO, SimTime::ZERO + duration)
                .unwrap_or(f64::NAN);
            let loss = r
                .receivers
                .iter()
                .map(|x| x.mean_loss(SimTime::ZERO, SimTime::ZERO + duration))
                .sum::<f64>()
                / r.receivers.len() as f64;
            ((n, st), dev, loss)
        })
        .collect();
    points
        .iter()
        .map(|&(n, st)| {
            let vals: Vec<(f64, f64)> =
                devs.iter().filter(|&&(k, _, _)| k == (n, st)).map(|&(_, d, l)| (d, l)).collect();
            let count = vals.len() as f64;
            StalenessRow {
                receivers_per_set: n,
                staleness_secs: st,
                mean_relative_deviation: vals.iter().map(|v| v.0).sum::<f64>() / count,
                mean_loss: vals.iter().map(|v| v.1).sum::<f64>() / count,
            }
        })
        .collect()
}

// ------------------------------------------------------------------ Fig. 1

/// Fig. 1 — the motivating example, quantified: with topology-blind
/// control, the greedy receiver at n4 keeps probing layer 3 and its loss
/// spills onto the slow sibling at n3; TopoSense confines it.
#[derive(Clone, Debug)]
pub struct MotivationRow {
    pub mode: String,
    /// Mean loss rate at the *innocent* receiver n3 after warmup.
    pub n3_loss: f64,
    /// Mean level held by n3 (optimal 1).
    pub n3_mean_level: f64,
    /// Mean level held by the greedy n4 (optimal 2).
    pub n4_mean_level: f64,
    /// Mean level of the independent n5 (optimal 4).
    pub n5_mean_level: f64,
}

/// Run the Fig. 1 example under TopoSense and under the RLM baseline.
pub fn fig1_motivation(duration: SimDuration, seed: u64) -> Vec<MotivationRow> {
    let modes: Vec<(String, ControlMode)> = vec![
        ("TopoSense".into(), ControlMode::TopoSense { staleness: SimDuration::ZERO }),
        ("RLM".into(), ControlMode::Rlm(RlmParams::default())),
    ];
    modes
        .par_iter()
        .map(|(name, mode)| {
            let s = Scenario::new(generators::figure1(), TrafficModel::Cbr, seed)
                .with_control(*mode)
                .with_duration(duration);
            let r = runner::run(&s);
            let start = SimTime::from_secs(30);
            let end = SimTime::ZERO + duration;
            let by_set = |set: u32| {
                r.receivers.iter().find(|x| x.set == set).expect("figure1 has sets 0..3")
            };
            let mean_level = |set: u32| by_set(set).level_series().mean(start, end);
            MotivationRow {
                mode: name.clone(),
                n3_loss: by_set(0).mean_loss(start, end),
                n3_mean_level: mean_level(0),
                n4_mean_level: mean_level(1),
                n5_mean_level: mean_level(2),
            }
        })
        .collect()
}

// ------------------------------------------------------- §IV convergence

/// One receiver's convergence summary (the prior-work claims re-validated:
/// convergence to optimal subscription and intra-session fairness).
#[derive(Clone, Debug)]
pub struct ConvergenceRow {
    pub set: u32,
    pub optimal: u8,
    /// Time-weighted mean level over the second half of the run.
    pub mean_level_late: f64,
    /// Relative deviation over the second half.
    pub deviation_late: f64,
    /// Max level spread between receivers of the same set (intra-session
    /// fairness: should be small).
    pub intra_set_spread: f64,
}

/// Convergence on Topology A: per set, how close to optimal the steady
/// state sits.
pub fn convergence_topology_a(
    receivers_per_set: usize,
    model: TrafficModel,
    duration: SimDuration,
    seed: u64,
) -> Vec<ConvergenceRow> {
    let s = Scenario::new(generators::topology_a_default(receivers_per_set), model, seed)
        .with_duration(duration);
    let r = runner::run(&s);
    let half = SimTime::ZERO + duration / 2;
    let end = SimTime::ZERO + duration;
    [0u32, 1]
        .iter()
        .map(|&set| {
            let members: Vec<_> = r.receivers.iter().filter(|x| x.set == set).collect();
            assert!(!members.is_empty());
            let series: Vec<StepSeries> = members.iter().map(|m| m.level_series()).collect();
            let means: Vec<f64> = series.iter().map(|s| s.mean(half, end)).collect();
            let mean_level_late = means.iter().sum::<f64>() / means.len() as f64;
            let spread = means.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                - means.iter().copied().fold(f64::INFINITY, f64::min);
            let deviation_late = members
                .iter()
                .map(|m| m.relative_deviation(half, end).unwrap_or(f64::NAN))
                .sum::<f64>()
                / members.len() as f64;
            ConvergenceRow {
                set,
                optimal: members[0].optimal,
                mean_level_late,
                deviation_late,
                intra_set_spread: spread,
            }
        })
        .collect()
}

// ------------------------------------------------------------------ misc

fn cartesian<A: Copy + Send + Sync, B: Copy + Send + Sync>(xs: &[A], ys: &[B]) -> Vec<(A, B)> {
    xs.iter().flat_map(|&x| ys.iter().map(move |&y| (x, y))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Short-duration smoke versions of each figure sweep; the full-length
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

    #[test]
    fn fig9_smoke() {
        let out = fig9_timeseries(SimDuration::from_secs(90), 3);
        assert_eq!(out.levels.len(), 4);
        assert!(out.levels.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn fig10_smoke() {
        let rows = fig10_staleness(&[1], &[0, 4], SimDuration::from_secs(120), 3);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.mean_relative_deviation.is_finite()));
    }

    #[test]
    fn convergence_smoke() {
        let rows = convergence_topology_a(1, TrafficModel::Cbr, SimDuration::from_secs(120), 3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].optimal, 2);
        assert_eq!(rows[1].optimal, 4);
    }
}
