//! Inter-session fairness (the paper's Fig. 8 claims) as executable
//! assertions.

use netsim::{SimDuration, SimTime};
use scenarios::runner::run_many;
use scenarios::{run, Scenario};
use topology::generators;
use traffic::TrafficModel;

#[test]
fn four_cbr_sessions_share_equitably() {
    let s = Scenario::new(generators::topology_b_default(4), TrafficModel::Cbr, 1)
        .with_duration(SimDuration::from_secs(600));
    let result = run(&s);
    // Byte shares: Jain close to 1.
    let bytes: Vec<f64> = result.session_bytes().iter().map(|&(_, b)| b as f64).collect();
    let jain = metrics::jain_index(&bytes);
    assert!(jain > 0.9, "jain {jain}: {bytes:?}");
    // Everyone near the 4-layer optimum in the second half.
    let dev = result
        .mean_relative_deviation(SimTime::from_secs(300), SimTime::from_secs(600))
        .expect("scenario has receivers");
    assert!(dev < 0.35, "second-half deviation {dev}");
}

#[test]
fn fairness_holds_at_sixteen_sessions() {
    let s = Scenario::new(generators::topology_b_default(16), TrafficModel::Vbr { p: 3.0 }, 1)
        .with_duration(SimDuration::from_secs(600));
    let result = run(&s);
    let bytes: Vec<f64> = result.session_bytes().iter().map(|&(_, b)| b as f64).collect();
    let jain = metrics::jain_index(&bytes);
    assert!(jain > 0.85, "jain {jain} at 16 sessions");
    let dev = result
        .mean_relative_deviation(SimTime::from_secs(300), SimTime::from_secs(600))
        .expect("scenario has receivers");
    assert!(dev < 0.45, "deviation {dev} at 16 sessions");
}

#[test]
fn deviation_does_not_grow_in_the_second_half() {
    // The paper's point: small deviation in BOTH halves — fairness is not a
    // transient.
    let sessions = [2, 4];
    let scenarios: Vec<Scenario> = sessions
        .iter()
        .map(|&n| {
            Scenario::new(generators::topology_b_default(n), TrafficModel::Cbr, 1)
                .with_duration(SimDuration::from_secs(600))
        })
        .collect();
    let (half, end) = (SimTime::from_secs(300), SimTime::from_secs(600));
    for (n, r) in sessions.iter().zip(run_many(&scenarios)) {
        let dev = |from, to| r.mean_relative_deviation(from, to).unwrap_or(f64::NAN);
        let (first, second) = (dev(SimTime::ZERO, half), dev(half, end));
        assert!(
            second < first + 0.15,
            "{n} sessions: second half {second:.3} much worse than first {first:.3}"
        );
        assert!(second < 0.4, "{n} sessions: second half {second:.3}");
    }
}

#[test]
fn mixed_bottleneck_sessions_get_proportional_shares() {
    // Two sessions share a 1 Mb/s link, but session 1's receiver sits
    // behind a private 100 kb/s tail: it can only ever use 2 layers, and
    // session 0 should be allowed to grow into the slack (the paper's
    // "every session must get as much bandwidth as can possibly be used").
    let mut spec = topology::TopoSpec::new("mixed");
    use netsim::LinkConfig;
    use topology::NodeRole;
    let agg = spec.node("agg", vec![NodeRole::Router]);
    let dist = spec.node("dist", vec![NodeRole::Router]);
    spec.link(agg, dist, LinkConfig::kbps(1000.0));
    let s0 = spec.node("s0", vec![NodeRole::Source { session: 0 }, NodeRole::Controller]);
    let s1 = spec.node("s1", vec![NodeRole::Source { session: 1 }]);
    spec.link(s0, agg, LinkConfig::kbps(100_000.0));
    spec.link(s1, agg, LinkConfig::kbps(100_000.0));
    let r0 = spec.node("r0", vec![NodeRole::Receiver { session: 0, set: 0 }]);
    let r1 = spec.node("r1", vec![NodeRole::Receiver { session: 1, set: 0 }]);
    spec.link(dist, r0, LinkConfig::kbps(100_000.0));
    spec.link(dist, r1, LinkConfig::kbps(100.0));

    let scenario =
        Scenario::new(spec, TrafficModel::Cbr, 9).with_duration(SimDuration::from_secs(600));
    let result = run(&scenario);
    let by_session = |sess: u32| {
        result.receivers.iter().find(|r| r.session == sess).expect("both sessions present")
    };
    // Oracle: r1 capped at 2 layers by its tail; r0 free to take 4
    // (992k + 96k > 1M rules out 5).
    assert_eq!(by_session(1).optimal, 2);
    assert_eq!(by_session(0).optimal, 4);
    let half = SimTime::from_secs(300);
    let end = SimTime::from_secs(600);
    let m0 = by_session(0).level_series().mean(half, end);
    let m1 = by_session(1).level_series().mean(half, end);
    assert!(m1 < 2.8, "capped session stays near 2, got {m1:.2}");
    assert!(m0 > 3.0, "free session grows into the slack, got {m0:.2}");
}
