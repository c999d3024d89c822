//! Ablation studies for the open questions of the paper's §V
//! ("Challenges in using topology"), each a small parameter sweep and a
//! [`Cell`] of the campaign's `paper` workload:
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
//!   sessions";
//! * **capacity estimate** — "it can possibly under-estimate … not a serious
//!   problem since the capacities are recomputed at frequent intervals".

use crate::campaign::{Cell, Gate};
use crate::paper::{at_least, at_most, f2, f4, max_of, mean, min_of, whole_run_loss, Slot, WARMUP};
use crate::runner::{Scenario, ScenarioResult};
use netsim::{QueueDiscipline, SimDuration, SimTime};
use telemetry::{Record, StageBody, Telemetry};
use topology::generators;
use toposense::Config;
use traffic::{LayerSpec, TrafficModel};

/// One knob value's whole-run measurements.
struct Knob {
    /// Mean relative deviation.
    deviation: f64,
    /// Mean receiver loss rate.
    loss: f64,
    /// Max subscription changes by any receiver.
    max_changes: usize,
    control_bytes: u64,
}

/// The knob sweeps share one table shape — one scenario per named variant,
/// each measured the same way — and bring their own gates.
fn ablation(
    slot: Slot,
    claim: &'static str,
    variants: Vec<(String, Scenario)>,
    gates: impl Fn(&[Knob]) -> Vec<Gate> + 'static,
) -> Cell {
    let (names, scenarios): (Vec<String>, Vec<Scenario>) = variants.into_iter().unzip();
    let header = ["knob", "rel. dev.", "mean loss", "max changes", "control bytes"];
    slot.figure(claim, &header, scenarios, move |rs| {
        let measure = |r: &ScenarioResult| {
            let end = SimTime::ZERO + r.duration;
            Knob {
                deviation: r.mean_relative_deviation(SimTime::ZERO, end).unwrap_or(f64::NAN),
                loss: whole_run_loss(r),
                max_changes: r.stability(SimTime::ZERO + WARMUP, end).0,
                control_bytes: r.control_bytes,
            }
        };
        let knobs: Vec<Knob> = rs.iter().map(measure).collect();
        let table = names.iter().zip(&knobs).map(|(name, k)| {
            vec![
                name.clone(),
                f4(k.deviation),
                f4(k.loss),
                k.max_changes.to_string(),
                k.control_bytes.to_string(),
            ]
        });
        (table.collect(), gates(&knobs))
    })
}

/// §V "Interval size": sweep the controller interval on Topology A.
pub(crate) fn interval(slot: Slot) -> Cell {
    let variant = |&iv: &u64| {
        // Every timeout that counts controller intervals is a function of
        // `interval` (`Config::quarantine_after` and friends), so the 4 s
        // and 8 s points need nothing else set.
        let cfg = Config { interval: SimDuration::from_secs(iv), ..slot.cfg };
        (
            format!("{iv}s"),
            slot.scenario(generators::topology_a_default(2), TrafficModel::Vbr { p: 3.0 })
                .with_config(cfg),
        )
    };
    let variants = slot.size.xs.iter().map(variant).collect();
    ablation(
        slot,
        "§V: \"choosing the optimal interval size is crucial\" — small intervals react fast but \
         misread bursts, large ones react slowly (Topology A, VBR(P=3)).",
        variants,
        |knobs| {
            let (short, long) = (&knobs[0], &knobs[knobs.len() - 1]);
            // The trade-off, 1 s against 8 s: the long interval tracks the
            // optimum worse (s0–s2: +0.250 / +0.064 / +0.142) and loses
            // less to misread bursts (s0–s2: -0.105 / -0.039 / -0.103).
            vec![
                at_least("deviation_rise_with_interval", long.deviation - short.deviation, 0.0),
                at_least("loss_fall_with_interval", short.loss - long.loss, 0.0),
            ]
        },
    )
}

/// §V "Group-leave latency": sweep the IGMP leave latency on Topology A.
pub(crate) fn leave_latency(slot: Slot) -> Cell {
    let variant = |&ms: &u64| {
        let s = slot
            .scenario(generators::topology_a_default(2), TrafficModel::Cbr)
            .with_leave_latency(SimDuration::from_millis(ms));
        (format!("{ms}ms"), s)
    };
    let variants = slot.size.xs.iter().map(variant).collect();
    ablation(
        slot,
        "§V: \"the latency in dropping a layer can cause congestion\" — a slow IGMP leave \
         prolongs every failed probe's loss (Topology A, CBR).",
        variants,
        |knobs| {
            // The two slowest leaves against the two fastest: the rise is
            // ~0.01 of loss on noise of the same order, and the end points
            // alone flip sign on 1 of 12 probe seed-indices at full length.
            // s0–s2: +0.0057 / +0.0101 / +0.0076.
            let loss: Vec<f64> = knobs.iter().map(|k| k.loss).collect();
            let half = loss.len() / 2;
            let rise = mean(&loss[loss.len() - half..]) - mean(&loss[..half]);
            vec![at_least("loss_rise_with_leave_latency", rise, 0.0)]
        },
    )
}

/// §V "Layer granularity": the paper's 6 doubling layers vs. a
/// finer-grained 12-layer encoding with the same total rate (each doubling
/// step split into two equal halves).
pub(crate) fn granularity(slot: Slot) -> Cell {
    let fine = LayerSpec::from_rates(vec![
        16_000.0, 16_000.0, 32_000.0, 32_000.0, 64_000.0, 64_000.0, 128_000.0, 128_000.0,
        256_000.0, 256_000.0, 512_000.0, 512_000.0,
    ]);
    let variant = |(name, layers): (&str, LayerSpec)| {
        (
            name.to_string(),
            slot.scenario(generators::topology_a_default(2), TrafficModel::Cbr).with_layers(layers),
        )
    };
    let variants = [("6 layers (paper)", LayerSpec::paper_default()), ("12 fine layers", fine)]
        .into_iter()
        .map(variant)
        .collect();
    ablation(
        slot,
        "§V: \"finer granularity … limits the magnitude of possible congestion [but] can delay \
         convergence\" — 6 doubling layers vs. 12 half-sized ones (Topology A, CBR).",
        variants,
        |knobs| {
            // Half-sized probes must not cost more than whole ones. s0–s2:
            // -0.0138 / -0.0001 / -0.0133, so the bound allows a tie.
            vec![at_most("fine_layer_loss_over_coarse", knobs[1].loss - knobs[0].loss, 0.005)]
        },
    )
}

/// Drop-tail (paper) vs. layer-priority dropping (cited alternative) on
/// Topology A: priority dropping protects base layers during probes, so
/// receivers at their optimum should see less loss.
pub(crate) fn queue(slot: Slot) -> Cell {
    let variant = |(name, d): (&str, QueueDiscipline)| {
        let topo = generators::topology_a_default(2).with_discipline_everywhere(d);
        (name.to_string(), slot.scenario(topo, TrafficModel::Cbr))
    };
    let variants = [
        ("drop-tail (paper)", QueueDiscipline::DropTail),
        ("priority-drop", QueueDiscipline::PriorityDrop),
    ];
    let variants = variants.into_iter().map(variant).collect();
    ablation(
        slot,
        "Drop-tail (the paper's choice) vs. the layer-priority dropping it cites: priority \
         dropping shields base layers during neighbours' probes (Topology A, CBR).",
        variants,
        |knobs| {
            // s0–s2: -0.0129 / -0.0108 / -0.0097.
            let margin = knobs[1].loss - knobs[0].loss;
            vec![at_most("priority_drop_loss_over_drop_tail", margin, 0.0)]
        },
    )
}

/// §V "Minimizing control traffic": control bytes vs. receiver count on
/// Topology A — should scale linearly.
pub(crate) fn control_traffic(slot: Slot) -> Cell {
    let counts = slot.size.counts();
    let variant = |&n: &usize| {
        (
            format!("{} receivers", 2 * n),
            slot.scenario(generators::topology_a_default(n), TrafficModel::Cbr),
        )
    };
    let variants = counts.iter().map(variant).collect();
    ablation(
        slot,
        "§V: \"the number of information packets exchanged in every interval is linear with \
         respect to the number of receivers and sessions\" (Topology A, CBR).",
        variants,
        move |knobs| {
            // Exactly linear: every point spends the same bytes per receiver
            // (two receiver sets, so `2 n` receivers at `n` per set).
            let per_receiver =
                || knobs.iter().zip(&counts).map(|(k, &n)| k.control_bytes as f64 / (2 * n) as f64);
            let spread = max_of(per_receiver()) - min_of(per_receiver());
            vec![at_most("control_bytes_per_receiver_spread", spread, 0.0)]
        },
    )
}

/// §V "Estimating link capacity": how accurate is the shared-link estimate
/// against ground truth? Runs Topology B (n sessions, true shared capacity
/// `n x 500 kb/s`) and reports the fraction of controller intervals in
/// which the shared link had a finite estimate (coverage) and the mean and
/// worst `|estimate - true| / true` over those intervals. The estimates are
/// read from each run's stage-2 audit records: every estimated link the
/// sessions cross logs exactly one non-`reset` event per interval, carrying
/// the post-update value.
pub(crate) fn estimator(slot: Slot) -> Cell {
    let counts = slot.size.counts();
    let (scenarios, trails): (Vec<Scenario>, Vec<_>) = counts
        .iter()
        .map(|&n| {
            let (tel, trail) = Telemetry::memory();
            let topo = generators::topology_b_default(n);
            (slot.scenario(topo, TrafficModel::Vbr { p: 3.0 }).with_telemetry(tel), trail)
        })
        .unzip();
    slot.figure(
        "§V: the capacity estimate \"can possibly under-estimate … not a serious problem since \
         the capacities are recomputed at frequent intervals\" — shared-link estimate vs. ground \
         truth (Topology B, VBR(P=3)); the deliberate upward creep between congestion events \
         dominates the mean error.",
        &["sessions", "coverage", "mean rel. err", "max rel. err"],
        scenarios,
        move |rs| {
            let mut rows = Vec::new();
            let (mut coverage, mut mean_error) = (Vec::new(), Vec::new());
            for ((&n, r), trail) in counts.iter().zip(rs).zip(&trails) {
                let ctrl = r.controller.as_ref().expect("TopoSense mode");
                let true_cap = n as f64 * 500_000.0;
                // The shared link is the first spec link: forward half id 0.
                let errors: Vec<f64> = trail
                    .records()
                    .iter()
                    .filter_map(|r| match r {
                        Record::Stage { body: StageBody::Capacity(links), .. } => Some(links),
                        _ => None,
                    })
                    .flatten()
                    .filter(|l| l.link == 0 && l.event != "reset")
                    .map(|l| (l.bps - true_cap).abs() / true_cap)
                    .collect();
                let covered = errors.len() as f64 / ctrl.intervals.max(1) as f64;
                let worst = errors.iter().copied().fold(f64::NAN, f64::max);
                rows.push(vec![n.to_string(), f2(covered), f4(mean(&errors)), f4(worst)]);
                coverage.push(covered);
                mean_error.push(mean(&errors));
            }
            let gates = vec![
                // "Recomputed at frequent intervals": s0–s2, the session count
                // with the fewest covered intervals has 0.45 / 0.54 / 0.50.
                at_least("estimate_coverage", min_of(coverage.into_iter()), 0.3),
                // s0–s2: worst session count 0.36 / 0.33 / 0.32.
                at_most("mean_relative_error", max_of(mean_error.into_iter()), 0.6),
            ];
            (rows, gates)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::GateStatus;
    use crate::paper::tests::{judged, slot};
    use crate::paper::Size;

    fn finite(rows: &[Vec<String>]) -> bool {
        rows.iter().flatten().all(|c| c != "NaN")
    }

    #[test]
    fn interval_sweep_runs() {
        // The paper's own list: the 8 s point only runs because the
        // quarantine/failover timeouts follow the interval past their 6 s.
        let (rows, gates) = judged(interval(slot(Size::new(120, &[1, 2, 4, 8]))));
        assert_eq!(rows.len(), 4);
        assert!(finite(&rows), "{rows:?}");
        assert!(gates.iter().all(|g| g.value.is_some_and(f64::is_finite)), "{gates:?}");
    }

    #[test]
    fn leave_latency_sweep_runs() {
        let (rows, _) = judged(leave_latency(slot(Size::new(120, &[100, 2000]))));
        assert_eq!(rows.len(), 2);
        assert!(finite(&rows), "{rows:?}");
    }

    #[test]
    fn granularity_has_two_variants() {
        let (rows, _) = judged(granularity(slot(Size::secs(120))));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn control_traffic_grows_with_receivers() {
        let (rows, gates) = judged(control_traffic(slot(Size::new(200, &[1, 4]))));
        let bytes = |row: &Vec<String>| row[4].parse::<u64>().unwrap();
        assert!(bytes(&rows[1]) > bytes(&rows[0]));
        // Exactly linear: 4x the receivers cost 4x the bytes.
        assert!(gates.iter().all(|g| g.status == GateStatus::Pass), "{gates:?}");
    }

    #[test]
    fn discipline_variants_run() {
        let (rows, _) = judged(queue(slot(Size::secs(120))));
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn estimator_tracks_the_true_capacity() {
        // The series includes deliberately creep-inflated values (the
        // estimate probes upward between congestion events), so the mean
        // error is dominated by the sawtooth amplitude, not by bad
        // measurements: coverage > 0.3, mean relative error < 0.6.
        let (rows, gates) = judged(estimator(slot(Size::new(300, &[4]))));
        assert_eq!(rows.len(), 1);
        assert!(gates.iter().all(|g| g.status == GateStatus::Pass), "{gates:?}");
    }
}
