//! The paper's Fig. 3: hierarchical control with multiple per-domain
//! controller agents, each managing its own subtree and unaware of the
//! others.
//!
//! Topology (capacities in kb/s):
//!
//! ```text
//!            src ──10000── core
//!                     ┌──────┴──────┐
//!                  [150]         [600]
//!                  gwA            gwB          <- domain gateways
//!                 /    \         /    \
//!               ra1    ra2     rb1    rb2      <- receivers (fat last hops)
//! ```
//!
//! Domain A = {gwA, ra1, ra2} with its controller at gwA; domain B likewise
//! at gwB. Optima: 2 layers in A, 4 in B. Each controller sees only its
//! domain (restricted topology views, domain-local registrations) and must
//! converge its own receivers.

use netsim::sim::{NetworkBuilder, SimConfig};
use netsim::{GroupId, LinkConfig, SessionId, SimDuration, SimTime};
use scenarios::chaos::chaos_config;
use scenarios::largetree::{federated_domains, reports_behind_border};
use std::sync::Arc;
use toposense::algorithm::ReceiverReport;
use toposense::federation::Federation;
use toposense::{Config, Controller, Receiver};
use traffic::session::SessionDef;
use traffic::{LayerSpec, LayeredSource, SessionCatalog, TrafficModel};

/// One round of a federated drive: the level snapshot receivers obeyed
/// afterwards, the caps computed that interval, the number of border
/// summaries shipped, and whether any report in the round carried loss.
struct FedRound {
    levels: Vec<Vec<u8>>,
    caps: Vec<u8>,
    summaries: usize,
    lossy: bool,
}

/// Drive a federation for `rounds` intervals with the border-capacity
/// oracle: domain `d`'s whole audience sits behind `caps_bps[d]` of border
/// bandwidth. Receivers obey their latest suggestion.
fn drive_federation(
    fed: &mut Federation,
    leaves: &[netsim::NodeId],
    caps_bps: &[f64],
    spec: &LayerSpec,
    rounds: u64,
) -> Vec<FedRound> {
    let k = caps_bps.len();
    let mut levels = vec![vec![1u8; leaves.len()]; k];
    let mut trajectory = Vec::new();
    for round in 1..=rounds {
        let reports: Vec<Vec<ReceiverReport>> = (0..k)
            .map(|d| {
                reports_behind_border(
                    0,
                    leaves,
                    &levels[d],
                    caps_bps[d],
                    spec,
                    SimDuration::from_secs(2),
                )
            })
            .collect();
        let lossy = reports.iter().flatten().any(|r| r.lost > 0);
        let out =
            fed.run_interval(SimTime::from_secs(2 * round), SimDuration::from_secs(2), reports);
        for (lv, o) in levels.iter_mut().zip(&out.domain_outputs) {
            for s in &o.suggestions {
                lv[(s.receiver.0 - 1000) as usize] = s.level;
            }
        }
        let summaries = out.summaries.len();
        trajectory.push(FedRound { levels: levels.clone(), caps: out.caps, summaries, lossy });
    }
    trajectory
}

/// Rounds in `window` where every receiver of domain `d` sat at `level`.
fn rounds_at(window: &[FedRound], d: usize, level: u8) -> usize {
    window.iter().filter(|r| r.levels[d].iter().all(|&l| l == level)).count()
}

#[test]
fn two_domain_controllers_each_converge_their_subtree() {
    let mut b = NetworkBuilder::new(SimConfig { seed: 5, ..SimConfig::default() });
    let src = b.add_node("src");
    let core = b.add_node("core");
    let gw_a = b.add_node("gwA");
    let gw_b = b.add_node("gwB");
    b.add_link(src, core, LinkConfig::kbps(10_000.0));
    b.add_link(core, gw_a, LinkConfig::kbps(150.0));
    b.add_link(core, gw_b, LinkConfig::kbps(600.0));
    let ra: Vec<_> = (0..2)
        .map(|i| {
            let n = b.add_node(format!("ra{i}"));
            b.add_link(gw_a, n, LinkConfig::kbps(10_000.0));
            n
        })
        .collect();
    let rb: Vec<_> = (0..2)
        .map(|i| {
            let n = b.add_node(format!("rb{i}"));
            b.add_link(gw_b, n, LinkConfig::kbps(10_000.0));
            n
        })
        .collect();
    let mut sim = b.build();

    let spec = LayerSpec::paper_default();
    let groups: Vec<GroupId> = (0..spec.layer_count()).map(|_| sim.create_group(src)).collect();
    let def = SessionDef { id: SessionId(0), source: src, groups, spec };
    let mut catalog = SessionCatalog::new();
    catalog.add(def.clone());
    let catalog = catalog.share();
    let cfg = Config::default();

    // Two controllers, each clipped to its domain, sitting on the gateway.
    let (ctrl_a, shared_a) = Controller::new(Arc::clone(&catalog), cfg, SimDuration::ZERO, 1);
    let ctrl_a = ctrl_a.with_domain([gw_a, ra[0], ra[1]]);
    sim.add_app(gw_a, Box::new(ctrl_a));
    let (ctrl_b, shared_b) = Controller::new(Arc::clone(&catalog), cfg, SimDuration::ZERO, 2);
    let ctrl_b = ctrl_b.with_domain([gw_b, rb[0], rb[1]]);
    sim.add_app(gw_b, Box::new(ctrl_b));

    sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 3)));

    // Receivers register with *their* domain's controller node.
    let mut handles = Vec::new();
    for (i, &n) in ra.iter().enumerate() {
        let (rx, h) = Receiver::new(def.clone(), gw_a, cfg, 10 + i as u64, &format!("a{i}"));
        sim.add_app(n, Box::new(rx));
        handles.push((0u32, h));
    }
    for (i, &n) in rb.iter().enumerate() {
        let (rx, h) = Receiver::new(def.clone(), gw_b, cfg, 20 + i as u64, &format!("b{i}"));
        sim.add_app(n, Box::new(rx));
        handles.push((1u32, h));
    }

    sim.run_until(SimTime::from_secs(600));

    // Both controllers ran and manage exactly their own two receivers.
    let a = shared_a.lock().unwrap();
    let b_ = shared_b.lock().unwrap();
    assert!(a.intervals > 250 && b_.intervals > 250);
    assert_eq!(a.registered, 2, "domain A sees only its receivers");
    assert_eq!(b_.registered, 2, "domain B sees only its receivers");

    // Per-domain convergence to the per-domain optimum (2 vs 4 layers).
    for (domain, handle) in &handles {
        let stats = handle.lock().unwrap().clone();
        let series = metrics::StepSeries::from_changes(&stats.changes);
        let mean = series.mean(SimTime::from_secs(300), SimTime::from_secs(600));
        let optimal = if *domain == 0 { 2.0 } else { 4.0 };
        assert!(
            (mean - optimal).abs() < 0.8,
            "domain {domain}: late mean level {mean:.2}, expected ~{optimal}"
        );
        assert!(stats.suggestions_received > 0, "domain {domain} receiver steered");
    }
}

/// ISSUE 9 tentpole: the same Fig. 3 regime on the federated path. Two
/// sharded domains behind 150 and 600 kb/s borders must each converge to
/// their own optimum (2 and 4 layers), and the parent aggregator's border
/// caps must land on exactly those fitting levels.
#[test]
fn federated_domains_converge_to_per_domain_optima() {
    let cfg = chaos_config();
    let spec = LayerSpec::paper_default();
    let (domains, leaves) = federated_domains(2, 2, 2, cfg, 11);
    let mut fed = Federation::new(cfg, 11, domains, spec.clone());
    let caps_bps = [150_000.0, 600_000.0];
    let trajectory = drive_federation(&mut fed, &leaves, &caps_bps, &spec, 30);
    // Steady state (last 10 rounds): each domain sits at its own border
    // fit, leaving at most a few rounds for capacity-creep probes one
    // layer up — the paper's deliberate probing, not a convergence miss.
    let late = &trajectory[20..];
    assert!(rounds_at(late, 0, 2) >= 7, "domain A must mostly sit at its optimum of 2");
    assert!(rounds_at(late, 1, 4) >= 7, "domain B must mostly sit at its optimum of 4");
    for r in late {
        assert!(r.levels[0].iter().all(|&l| (2..=3).contains(&l)), "A probes at most one up");
        assert!(r.levels[1].iter().all(|&l| (4..=5).contains(&l)), "B probes at most one up");
    }
    // The parent's caps landed on exactly the per-domain fitting levels.
    let final_caps = &trajectory.last().unwrap().caps;
    assert_eq!(final_caps[0], 2, "parent caps domain A at its border fit");
    assert_eq!(final_caps[1], 4, "parent caps domain B at its border fit");
    assert!(trajectory.iter().all(|r| r.summaries == 2), "one summary per domain per interval");
}

/// ISSUE 9 tentpole: a saturated core link above both gateways shows in
/// both domains' border caps within one interval of the first lossy
/// summary, steering both sides of the border consistently.
#[test]
fn saturated_core_is_reflected_in_both_domains_within_one_interval() {
    let cfg = chaos_config();
    let spec = LayerSpec::paper_default();
    let (domains, leaves) = federated_domains(2, 2, 2, cfg, 23);
    let mut fed = Federation::new(cfg, 23, domains, spec.clone());
    // Both domains share a 300 kb/s core: each sees the same ceiling.
    let caps_bps = [300_000.0, 300_000.0];
    let trajectory = drive_federation(&mut fed, &leaves, &caps_bps, &spec, 20);
    // The one-interval bound: the very interval whose summaries first
    // carry loss already hands both domains the core's fitting cap of 3.
    let first_lossy = trajectory.iter().position(|r| r.lossy).expect("the climb must overshoot");
    assert_eq!(
        trajectory[first_lossy].caps,
        vec![3, 3],
        "first lossy summary must cap both domains at the core fit in the same interval"
    );
    // Consistent cross-border steering: the two domains see identical caps
    // and identical levels every single round — neither ever out-runs the
    // other across the shared bottleneck.
    for r in &trajectory {
        assert_eq!(r.caps[0], r.caps[1], "caps diverged across the shared core");
        assert_eq!(r.levels[0], r.levels[1], "levels diverged across the shared core");
    }
    // Steady state: mostly at the core fit of 3, probing at most one up.
    let late = &trajectory[10..];
    assert!(rounds_at(late, 0, 3) >= 7 && rounds_at(late, 1, 3) >= 7);
    for r in late {
        assert!(r.levels.iter().flatten().all(|&l| (3..=4).contains(&l)));
    }
}

#[test]
fn domain_controller_ignores_outside_receivers() {
    // A receiver that (mis)registers with a foreign domain's controller
    // gets no suggestions — its node is not in any restricted tree.
    let mut b = NetworkBuilder::new(SimConfig { seed: 8, ..SimConfig::default() });
    let src = b.add_node("src");
    let gw = b.add_node("gw");
    let inside = b.add_node("inside");
    let outside = b.add_node("outside");
    b.add_link(src, gw, LinkConfig::kbps(10_000.0));
    b.add_link(gw, inside, LinkConfig::kbps(500.0));
    b.add_link(src, outside, LinkConfig::kbps(500.0));
    let mut sim = b.build();
    let spec = LayerSpec::paper_default();
    let groups: Vec<GroupId> = (0..spec.layer_count()).map(|_| sim.create_group(src)).collect();
    let def = SessionDef { id: SessionId(0), source: src, groups, spec };
    let mut catalog = SessionCatalog::new();
    catalog.add(def.clone());
    let catalog = catalog.share();
    let cfg = Config::default();

    let (ctrl, _) = Controller::new(Arc::clone(&catalog), cfg, SimDuration::ZERO, 1);
    let ctrl = ctrl.with_domain([gw, inside]);
    sim.add_app(gw, Box::new(ctrl));
    sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 3)));
    let (rx_in, h_in) = Receiver::new(def.clone(), gw, cfg, 1, "in");
    sim.add_app(inside, Box::new(rx_in));
    // The outside receiver wrongly reports to this controller.
    let (rx_out, h_out) = Receiver::new(def, gw, cfg, 2, "out");
    sim.add_app(outside, Box::new(rx_out));

    sim.run_until(SimTime::from_secs(120));
    assert!(h_in.lock().unwrap().suggestions_received > 0);
    assert_eq!(
        h_out.lock().unwrap().suggestions_received,
        0,
        "outside-node receiver is invisible to a domain-restricted controller"
    );
}

/// Acceptance-scale smoke (ignored by default; the CI `federation` job
/// covers the smoke-profile equivalent): 10 domains x 10^4 receivers =
/// 100k receivers, every federated control interval inside the 2 s
/// budget on one machine.
#[test]
#[ignore = "full acceptance scale; run with -- --ignored"]
fn hundred_k_receiver_federation_meets_the_interval_budget() {
    let cfg = chaos_config();
    let (domains, leaves) = federated_domains(10, 10, 4, cfg, 42);
    assert_eq!(leaves.len(), 10_000);
    let spec = LayerSpec::paper_default();
    let mut fed = Federation::new(cfg, 42, domains, spec.clone());
    let mut worst = std::time::Duration::ZERO;
    for round in 1..=3u64 {
        let reports: Vec<Vec<ReceiverReport>> = (0..10)
            .map(|d| {
                reports_behind_border(
                    0,
                    &leaves,
                    &vec![1u8; leaves.len()],
                    150_000.0 * (1 + d % 3) as f64,
                    &spec,
                    SimDuration::from_secs(2),
                )
            })
            .collect();
        let t0 = std::time::Instant::now();
        fed.run_interval(SimTime::from_secs(2 * round), SimDuration::from_secs(2), reports);
        worst = worst.max(t0.elapsed());
    }
    assert!(
        worst < std::time::Duration::from_secs(2),
        "federated interval over 100k receivers took {worst:?} (budget 2 s)"
    );
}
