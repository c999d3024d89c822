//! End-to-end convergence: TopoSense steers every receiver to the
//! oracle-optimal subscription level (the paper's §IV premise, validated
//! from its earlier work and re-validated here).

use metrics::StepSeries;
use netsim::{SimDuration, SimTime};
use scenarios::{run, ControlMode, Scenario, ScenarioResult};
use topology::generators;
use traffic::TrafficModel;

fn late_mean_level(r: &scenarios::ReceiverOutcome, result: &ScenarioResult) -> f64 {
    let end = SimTime::ZERO + result.duration;
    let half = SimTime::ZERO + result.duration / 2;
    StepSeries::from_changes(&r.stats.changes).mean(half, end)
}

#[test]
fn topology_a_both_sets_converge_to_optimal() {
    let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, 11)
        .with_duration(SimDuration::from_secs(600));
    let result = run(&s);
    for r in &result.receivers {
        let mean = late_mean_level(r, &result);
        assert!(
            (mean - r.optimal as f64).abs() < 0.7,
            "set {} receiver at node {:?}: late mean level {mean:.2} vs optimal {}",
            r.set,
            r.node,
            r.optimal
        );
    }
}

#[test]
fn chain_bottleneck_converges() {
    // A 4-hop chain at 250 kb/s: optimum 3 layers.
    let s = Scenario::new(generators::chain(4, 250.0), TrafficModel::Cbr, 3)
        .with_duration(SimDuration::from_secs(400));
    let result = run(&s);
    assert_eq!(result.receivers.len(), 1);
    let r = &result.receivers[0];
    assert_eq!(r.optimal, 3);
    let mean = late_mean_level(r, &result);
    assert!((2.3..=3.5).contains(&mean), "late mean level {mean}");
}

#[test]
fn star_heterogeneous_receivers_each_find_their_level() {
    // Legs sized for 1, 2, and 4 layers.
    let s = Scenario::new(generators::star(&[40.0, 110.0, 500.0]), TrafficModel::Cbr, 5)
        .with_duration(SimDuration::from_secs(500));
    let result = run(&s);
    let expected = [1u8, 2, 4];
    for (r, &want) in result.receivers.iter().zip(&expected) {
        assert_eq!(r.optimal, want, "oracle sanity");
        let mean = late_mean_level(r, &result);
        assert!(
            (mean - want as f64).abs() < 0.8,
            "leg with optimum {want}: late mean level {mean:.2}"
        );
    }
}

#[test]
fn intra_set_fairness_on_topology_a() {
    // Receivers in the same set get near-identical treatment.
    let s = Scenario::new(generators::topology_a_default(4), TrafficModel::Cbr, 17)
        .with_duration(SimDuration::from_secs(600));
    let result = run(&s);
    for set in [0u32, 1] {
        let means: Vec<f64> = result
            .receivers
            .iter()
            .filter(|r| r.set == set)
            .map(|r| late_mean_level(r, &result))
            .collect();
        assert_eq!(means.len(), 4);
        let spread = means.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - means.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread < 0.8, "set {set} level spread {spread:.2}: {means:?}");
    }
}

#[test]
fn unconstrained_receiver_reaches_the_top_layer() {
    let s = Scenario::new(generators::chain(2, 5000.0), TrafficModel::Cbr, 2)
        .with_duration(SimDuration::from_secs(120));
    let result = run(&s);
    assert_eq!(result.receivers[0].optimal, 6);
    assert_eq!(result.receivers[0].stats.final_level(), 6);
}

#[test]
fn vbr_traffic_still_converges_near_optimal() {
    let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Vbr { p: 3.0 }, 23)
        .with_duration(SimDuration::from_secs(600));
    let result = run(&s);
    for r in &result.receivers {
        let mean = late_mean_level(r, &result);
        // VBR bursts keep receivers up to a layer and a bit below the CBR
        // optimum (late means of 2.8-3.2 against an optimum of 4 across
        // seeds under the splitmix64 stream deriver).
        assert!(
            (mean - r.optimal as f64).abs() < 1.3,
            "set {}: late mean level {mean:.2} vs optimal {}",
            r.set,
            r.optimal
        );
    }
}

#[test]
fn no_controller_fixed_mode_suffers_where_toposense_does_not() {
    // A fixed over-subscription at level 4 through a 150 kb/s bottleneck
    // loses heavily; TopoSense on the same topology does not.
    let topo = generators::chain(2, 150.0);
    let fixed = run(&Scenario::new(topo.clone(), TrafficModel::Cbr, 3)
        .with_control(ControlMode::Fixed(4))
        .with_duration(SimDuration::from_secs(200)));
    let topo_sense =
        run(&Scenario::new(topo, TrafficModel::Cbr, 3).with_duration(SimDuration::from_secs(200)));
    let window = (SimTime::from_secs(100), SimTime::from_secs(200));
    let fixed_loss = fixed.receivers[0].mean_loss(window.0, window.1).expect("100 s of reports");
    let ts_loss = topo_sense.receivers[0].mean_loss(window.0, window.1).expect("100 s of reports");
    assert!(fixed_loss > 0.4, "fixed over-subscription must lose: {fixed_loss}");
    assert!(ts_loss < 0.15, "TopoSense must avoid sustained loss: {ts_loss}");
}
