//! Stability (the paper's Figs. 6–7): long stable spells, changes driven by
//! occasional bandwidth probes, frequency controlled by the backoff.

use metrics::StepSeries;
use netsim::{SimDuration, SimTime};
use scenarios::runner::run_many;
use scenarios::{run, Scenario};
use topology::{generators, TopoSpec};
use traffic::TrafficModel;

/// One 600 s seed-1 run per `(x, model)` point on `topo(x)`, in one batch:
/// per point, the most subscription changes by any receiver after the 5 s
/// warm-up and that receiver's mean seconds between changes.
fn stability_points(
    topo: fn(usize) -> TopoSpec,
    xs: &[usize],
    models: &[TrafficModel],
) -> Vec<(usize, TrafficModel, (usize, f64))> {
    let points: Vec<(usize, TrafficModel)> =
        xs.iter().flat_map(|&x| models.iter().map(move |&m| (x, m))).collect();
    let scenarios: Vec<Scenario> = points
        .iter()
        .map(|&(x, m)| Scenario::new(topo(x), m, 1).with_duration(SimDuration::from_secs(600)))
        .collect();
    let (warm, end) = (SimTime::from_secs(5), SimTime::from_secs(600));
    let results = run_many(&scenarios);
    let rows = points.into_iter().zip(&results);
    rows.map(|((x, m), r)| (x, m, r.stability(warm, end))).collect()
}

#[test]
fn change_counts_are_bounded_on_topology_a() {
    let rows = stability_points(
        generators::topology_a_default,
        &[1, 4],
        &[TrafficModel::Cbr, TrafficModel::Vbr { p: 6.0 }],
    );
    for (x, model, (max_changes, mean_gap_secs)) in rows {
        let model = model.label();
        // 600 s at one controller interval of 2 s = 300 opportunities;
        // a stable system uses only a few percent of them.
        assert!(max_changes < 60, "{model} x{x}: {max_changes} changes in 600 s");
        assert!(mean_gap_secs > 5.0, "{model} x{x}: changes only {mean_gap_secs:.1}s apart");
    }
}

#[test]
fn burstier_traffic_changes_more() {
    // The paper's Figs. 6-7 show VBR traffic with higher change counts than
    // CBR. Aggregate across sizes to smooth the seed noise.
    let rows = stability_points(
        generators::topology_b_default,
        &[2, 4, 8],
        &[TrafficModel::Cbr, TrafficModel::Vbr { p: 6.0 }],
    );
    let total = |model: TrafficModel| -> usize {
        rows.iter().filter(|r| r.1 == model).map(|r| r.2 .0).sum()
    };
    let cbr = total(TrafficModel::Cbr);
    let vbr = total(TrafficModel::Vbr { p: 6.0 });
    assert!(vbr > cbr, "expected VBR(P=6) ({vbr}) to change more than CBR ({cbr})");
}

#[test]
fn subscription_has_long_stable_spells() {
    // "The subscription consists of long stable spells interspersed with
    // very small intervals of joins/leaves": the single longest stable
    // spell should dominate the run.
    let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, 29)
        .with_duration(SimDuration::from_secs(600));
    let result = run(&s);
    for r in &result.receivers {
        let series = StepSeries::from_changes(&r.stats.changes);
        let mut change_times: Vec<f64> = series.points().map(|(t, _)| t.as_secs_f64()).collect();
        change_times.push(600.0);
        let longest = change_times.windows(2).map(|w| w[1] - w[0]).fold(0.0f64, f64::max);
        assert!(
            longest > 100.0,
            "node {:?}: longest stable spell only {longest:.0}s; changes {:?}",
            r.node,
            r.stats.changes
        );
    }
}

#[test]
fn probe_excursions_are_brief() {
    // Time spent above the optimum (failed probes) must be a small slice of
    // the run.
    let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, 31)
        .with_duration(SimDuration::from_secs(600));
    let result = run(&s);
    for r in &result.receivers {
        let series = StepSeries::from_changes(&r.stats.changes);
        let above = series.integrate(SimTime::from_secs(30), SimTime::from_secs(600), |v| {
            (v > r.optimal) as u8 as f64
        });
        let frac = above / 570.0;
        assert!(
            frac < 0.25,
            "node {:?} spent {:.0}% of the run over-subscribed",
            r.node,
            frac * 100.0
        );
    }
}

#[test]
fn stability_improves_with_longer_backoff() {
    // The paper: changes "can be controlled using the back-off interval".
    let short = toposense::Config {
        backoff_min: SimDuration::from_secs(4),
        backoff_max: SimDuration::from_secs(8),
        ..Default::default()
    };
    let long = toposense::Config {
        backoff_min: SimDuration::from_secs(30),
        backoff_max: SimDuration::from_secs(60),
        ..Default::default()
    };

    let count = |cfg: toposense::Config| -> usize {
        let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, 37)
            .with_config(cfg)
            .with_duration(SimDuration::from_secs(600));
        let result = run(&s);
        let (changes, _) = result.stability(SimTime::from_secs(5), SimTime::from_secs(600));
        changes
    };
    let short_changes = count(short);
    let long_changes = count(long);
    assert!(
        long_changes <= short_changes,
        "longer backoff must not increase changes: short {short_changes}, long {long_changes}"
    );
}
