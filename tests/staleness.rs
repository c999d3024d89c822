//! Robustness to stale topology/loss information (the paper's Fig. 10).

use netsim::{SimDuration, SimTime};
use scenarios::{run, ControlMode, Scenario};
use topology::generators;
use traffic::TrafficModel;

fn run_with_staleness(staleness_secs: u64, seed: u64) -> scenarios::ScenarioResult {
    let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Vbr { p: 3.0 }, seed)
        .with_control(ControlMode::TopoSense { staleness: SimDuration::from_secs(staleness_secs) })
        .with_duration(SimDuration::from_secs(600));
    run(&s)
}

fn mean_loss(result: &scenarios::ScenarioResult) -> f64 {
    result
        .receivers
        .iter()
        .map(|r| r.mean_loss(SimTime::ZERO, SimTime::from_secs(600)).expect("600 s of reports"))
        .sum::<f64>()
        / result.receivers.len() as f64
}

#[test]
fn stale_information_costs_loss() {
    // Average over seeds: the staleness signal is smaller than single-run
    // noise. Fresh info must beat very stale info on mean loss.
    let seeds = [1u64, 42, 99];
    let fresh: f64 = seeds.iter().map(|&s| mean_loss(&run_with_staleness(0, s))).sum::<f64>() / 3.0;
    let stale: f64 =
        seeds.iter().map(|&s| mean_loss(&run_with_staleness(16, s))).sum::<f64>() / 3.0;
    assert!(stale > fresh, "16 s staleness should cost loss: fresh {fresh:.4}, stale {stale:.4}");
}

#[test]
fn system_still_converges_under_heavy_staleness() {
    // "TopoSense does appear to perform well even with information as old
    // as 8 seconds": receivers still end up near their optima.
    let result = run_with_staleness(8, 1);
    for r in &result.receivers {
        let mean = r.level_series().mean(SimTime::from_secs(300), SimTime::from_secs(600));
        assert!(
            (mean - r.optimal as f64).abs() < 1.2,
            "set {}: mean level {mean:.2} vs optimal {} at 8 s staleness",
            r.set,
            r.optimal
        );
    }
}

#[test]
fn deviation_stays_bounded_across_the_staleness_sweep() {
    for st in [0u64, 6, 12, 18] {
        let result = run_with_staleness(st, 7);
        let dev = result
            .mean_relative_deviation(SimTime::ZERO, SimTime::from_secs(600))
            .expect("scenario has receivers");
        assert!(dev < 0.5, "staleness {st}: deviation {dev:.3} out of control");
    }
}

#[test]
fn fewest_receivers_least_affected() {
    // The paper: "The session with only 2 receivers appears to be least
    // affected" — fewer receivers, less control traffic, less to go stale.
    let loss_for = |receivers_per_set: usize| -> f64 {
        let seeds = [1u64, 42, 99];
        seeds
            .iter()
            .map(|&sd| {
                let s = Scenario::new(
                    generators::topology_a_default(receivers_per_set),
                    TrafficModel::Vbr { p: 3.0 },
                    sd,
                )
                .with_control(ControlMode::TopoSense { staleness: SimDuration::from_secs(12) })
                .with_duration(SimDuration::from_secs(600));
                mean_loss(&run(&s))
            })
            .sum::<f64>()
            / 3.0
    };
    let small = loss_for(1);
    let large = loss_for(6);
    assert!(
        small < large + 0.01,
        "1/set ({small:.4}) should not fare worse than 6/set ({large:.4})"
    );
}
