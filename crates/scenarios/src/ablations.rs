//! Ablation studies for the open questions of the paper's §V
//! ("Challenges in using topology"), each a small parameter sweep:
//!
//! * **interval size** — "choosing the optimal interval size is crucial";
//! * **group-leave latency** — "the latency in dropping a layer can cause
//!   congestion";
//! * **layer granularity** — "finer granularity … limits the magnitude of
//!   possible congestion \[but\] can delay convergence";
//! * **queue discipline** — drop-tail (the paper's choice) vs. the
//!   layer-priority dropping of Bajaj/Breslau/Shenker it cites;
//! * **control traffic** — "the number of information packets exchanged in
//!   every interval is linear with respect to the number of receivers and
//!   sessions".

use crate::runner::{self, Scenario};
use netsim::{QueueDiscipline, SimDuration, SimTime};
use rayon::prelude::*;
use topology::generators;
use traffic::{LayerSpec, TrafficModel};

/// One ablation measurement.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// The knob value, printed as given.
    pub knob: String,
    /// Mean relative deviation (whole run).
    pub deviation: f64,
    /// Mean receiver loss rate (whole run).
    pub mean_loss: f64,
    /// Max subscription changes by any receiver.
    pub max_changes: usize,
    /// Control bytes exchanged.
    pub control_bytes: u64,
}

fn measure(scenario: &Scenario, knob: String) -> AblationRow {
    let r = runner::run(scenario);
    let end = SimTime::ZERO + scenario.duration;
    let mean_loss = r.receivers.iter().map(|x| x.mean_loss(SimTime::ZERO, end)).sum::<f64>()
        / r.receivers.len() as f64;
    let (max_changes, _) = r.stability(SimTime::from_secs(5), end);
    AblationRow {
        knob,
        deviation: r.mean_relative_deviation(SimTime::ZERO, end).unwrap_or(f64::NAN),
        mean_loss,
        max_changes,
        control_bytes: r.control_bytes,
    }
}

/// §V "Interval size": sweep the controller interval on Topology A.
pub fn interval_size(intervals_secs: &[u64], duration: SimDuration, seed: u64) -> Vec<AblationRow> {
    intervals_secs
        .par_iter()
        .map(|&iv| {
            let mut cfg = toposense::Config::default();
            cfg.interval = SimDuration::from_secs(iv);
            cfg.report_interval = SimDuration::from_secs(1).min(cfg.interval);
            let s = Scenario::new(
                generators::topology_a_default(2),
                TrafficModel::Vbr { p: 3.0 },
                seed,
            )
            .with_config(cfg)
            .with_duration(duration);
            measure(&s, format!("{iv}s"))
        })
        .collect()
}

/// §V "Group-leave latency": sweep the IGMP leave latency on Topology A.
pub fn leave_latency(latencies_ms: &[u64], duration: SimDuration, seed: u64) -> Vec<AblationRow> {
    latencies_ms
        .par_iter()
        .map(|&ms| {
            let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, seed)
                .with_leave_latency(SimDuration::from_millis(ms))
                .with_duration(duration);
            measure(&s, format!("{ms}ms"))
        })
        .collect()
}

/// §V "Layer granularity": the paper's 6 doubling layers vs. a
/// finer-grained 12-layer encoding with the same total rate (each doubling
/// step split into two equal halves).
pub fn layer_granularity(duration: SimDuration, seed: u64) -> Vec<AblationRow> {
    let coarse = LayerSpec::paper_default();
    let fine = LayerSpec::from_rates(vec![
        16_000.0, 16_000.0, 32_000.0, 32_000.0, 64_000.0, 64_000.0, 128_000.0, 128_000.0,
        256_000.0, 256_000.0, 512_000.0, 512_000.0,
    ]);
    let variants: Vec<(String, LayerSpec)> =
        vec![("6 layers (paper)".into(), coarse), ("12 fine layers".into(), fine)];
    variants
        .par_iter()
        .map(|(name, layers)| {
            let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, seed)
                .with_layers(layers.clone())
                .with_duration(duration);
            measure(&s, name.clone())
        })
        .collect()
}

/// Drop-tail (paper) vs. layer-priority dropping (cited alternative) on
/// Topology A: priority dropping protects base layers during probes, so
/// receivers at their optimum should see less loss.
pub fn queue_discipline(duration: SimDuration, seed: u64) -> Vec<AblationRow> {
    let variants = vec![
        ("drop-tail (paper)".to_string(), QueueDiscipline::DropTail),
        ("priority-drop".to_string(), QueueDiscipline::PriorityDrop),
    ];
    variants
        .par_iter()
        .map(|(name, d)| {
            let topo = generators::topology_a_default(2).with_discipline_everywhere(*d);
            let s = Scenario::new(topo, TrafficModel::Cbr, seed).with_duration(duration);
            measure(&s, name.clone())
        })
        .collect()
}

/// §V "Minimizing control traffic": control bytes vs. receiver count on
/// Topology A — should scale linearly.
pub fn control_traffic(
    receiver_counts: &[usize],
    duration: SimDuration,
    seed: u64,
) -> Vec<AblationRow> {
    receiver_counts
        .par_iter()
        .map(|&n| {
            let s = Scenario::new(generators::topology_a_default(n), TrafficModel::Cbr, seed)
                .with_duration(duration);
            measure(&s, format!("{} receivers", 2 * n))
        })
        .collect()
}

/// §V "Estimating link capacity": how accurate is the shared-link estimate
/// against ground truth? Runs Topology B (n sessions, true shared capacity
/// `n x 500 kb/s`) and reports the fraction of intervals in which the
/// shared link had a finite estimate and the mean relative error of those
/// estimates.
#[derive(Clone, Debug)]
pub struct EstimatorAccuracy {
    pub sessions: usize,
    /// Fraction of controller intervals with a finite shared-link estimate.
    pub coverage: f64,
    /// Mean of `|estimate - true| / true` over covered intervals.
    pub mean_rel_error: f64,
    /// Worst-case relative error.
    pub max_rel_error: f64,
}

pub fn estimator_accuracy(
    session_counts: &[usize],
    duration: SimDuration,
    seed: u64,
) -> Vec<EstimatorAccuracy> {
    session_counts
        .par_iter()
        .map(|&n| {
            let s = Scenario::new(
                generators::topology_b_default(n),
                TrafficModel::Vbr { p: 3.0 },
                seed,
            )
            .with_duration(duration);
            let r = runner::run(&s);
            let ctrl = r.controller.as_ref().expect("TopoSense mode");
            // The shared link is the first spec link: forward half id 0.
            let shared = netsim::DirLinkId(0);
            let true_cap = n as f64 * 500_000.0;
            let errors: Vec<f64> = ctrl
                .estimate_series
                .iter()
                .filter(|&&(_, l, _)| l == shared)
                .map(|&(_, _, c)| (c - true_cap).abs() / true_cap)
                .collect();
            let intervals = ctrl.intervals.max(1) as f64;
            EstimatorAccuracy {
                sessions: n,
                coverage: errors.len() as f64 / intervals,
                mean_rel_error: if errors.is_empty() {
                    f64::NAN
                } else {
                    errors.iter().sum::<f64>() / errors.len() as f64
                },
                max_rel_error: errors.iter().copied().fold(f64::NAN, f64::max),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHORT: SimDuration = SimDuration(120_000_000_000);

    #[test]
    fn interval_sweep_runs() {
        let rows = interval_size(&[1, 4], SHORT, 3);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.deviation.is_finite()));
    }

    #[test]
    fn leave_latency_sweep_runs() {
        let rows = leave_latency(&[100, 2000], SHORT, 3);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn granularity_has_two_variants() {
        let rows = layer_granularity(SHORT, 3);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn control_traffic_grows_with_receivers() {
        let rows = control_traffic(&[1, 4], SimDuration::from_secs(200), 3);
        assert!(rows[1].control_bytes > rows[0].control_bytes);
        // Linear-ish: 4x the receivers should cost no more than ~6x bytes.
        assert!((rows[1].control_bytes as f64) < rows[0].control_bytes as f64 * 6.0, "{rows:?}");
    }

    #[test]
    fn discipline_variants_run() {
        let rows = queue_discipline(SHORT, 3);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn estimator_tracks_the_true_capacity() {
        let rows = estimator_accuracy(&[4], SimDuration::from_secs(300), 3);
        let r = &rows[0];
        assert!(r.coverage > 0.3, "estimate present {:.0}% of intervals", r.coverage * 100.0);
        // The series includes deliberately creep-inflated values (the
        // estimate probes upward between congestion events), so the mean
        // error is dominated by the sawtooth amplitude, not by bad
        // measurements.
        assert!(r.mean_rel_error < 0.6, "mean relative error {:.3} too large", r.mean_rel_error);
    }
}
