//! Robustness: topology awareness protecting innocents (Fig. 1), lossy
//! control channels, transient non-conforming traffic, determinism.

use netsim::{SimDuration, SimTime};
use scenarios::runner::run_many;
use scenarios::{run, ControlMode, Scenario, ScenarioResult};
use topology::generators;
use traffic::TrafficModel;

#[test]
fn fig1_toposense_protects_the_innocent_receiver() {
    let modes = [ControlMode::TopoSense { staleness: SimDuration::ZERO }, ControlMode::Rlm];
    let scenarios: Vec<Scenario> = modes
        .iter()
        .map(|&mode| {
            Scenario::new(generators::figure1(), TrafficModel::Cbr, 1)
                .with_control(mode)
                .with_duration(SimDuration::from_secs(900))
        })
        .collect();
    // Per run, after 30 s: n3's mean loss, and the mean levels of n3, n4
    // and n5 (receiver sets 0, 1 and 2).
    let (start, end) = (SimTime::from_secs(30), SimTime::from_secs(900));
    let measure = |r: &ScenarioResult| {
        let by_set =
            |set: u32| r.receivers.iter().find(|x| x.set == set).expect("figure1 has sets 0..3");
        let loss = by_set(0).mean_loss(start, end).expect("870 s of reports");
        (loss, [0, 1, 2].map(|set| by_set(set).level_series().mean(start, end)))
    };
    let results = run_many(&scenarios);
    let [(ts_loss, ts), (rlm_loss, rlm)] = [&results[0], &results[1]].map(measure);
    // n3 (optimal 1) must not suffer materially more loss under TopoSense
    // than under the receiver-driven baseline...
    assert!(ts_loss < rlm_loss + 0.03, "TopoSense n3 loss {ts_loss:.4} vs RLM {rlm_loss:.4}");
    // ...while delivering at least as much subscription to n4 and n5.
    let [n3, n4, n5] = ts;
    assert!(n4 >= rlm[1] - 0.1, "n4: TopoSense {n4:.2} vs RLM {:.2}", rlm[1]);
    assert!(n5 > 3.0, "n5 should enjoy its disjoint subtree");
    // Everyone ends up in the neighbourhood of their optimum (1, 2, 4).
    assert!((0.9..=1.6).contains(&n3), "n3 {n3:.2}");
    assert!((1.6..=2.6).contains(&n4), "n4 {n4:.2}");
}

#[test]
fn survives_a_transient_background_flood() {
    // A non-conforming unicast flood crosses the bottleneck mid-run; the
    // receiver must shed layers during the flood and recover afterwards.
    // Built via the low-level API so the flood app can be attached.
    use netsim::sim::{NetworkBuilder, SimConfig};
    use netsim::LinkConfig;
    use std::sync::Arc;
    use traffic::session::SessionDef;
    let mut b = NetworkBuilder::new(SimConfig { seed: 3, ..SimConfig::default() });
    let n_src = b.add_node("src");
    let n_mid = b.add_node("mid");
    let n_rcv = b.add_node("rcv");
    b.add_link(n_src, n_mid, LinkConfig::kbps(100_000.0));
    b.add_link(n_mid, n_rcv, LinkConfig::kbps(600.0));
    let mut sim = b.build();
    let groups: Vec<netsim::GroupId> = (0..6).map(|_| sim.create_group(n_src)).collect();
    let def = SessionDef {
        id: netsim::SessionId(0),
        source: n_src,
        groups,
        spec: traffic::LayerSpec::paper_default(),
    };
    let mut catalog = traffic::SessionCatalog::new();
    catalog.add(def.clone());
    let catalog = catalog.share();
    let cfg = toposense::Config::default();
    let (ctrl, _) = toposense::Controller::new(Arc::clone(&catalog), cfg, SimDuration::ZERO, 1);
    sim.add_app(n_src, Box::new(ctrl));
    sim.add_app(n_src, Box::new(traffic::LayeredSource::new(def.clone(), TrafficModel::Cbr, 2)));
    let (rx, stats) = toposense::Receiver::new(def, n_src, cfg, 3, "r0");
    sim.add_app(n_rcv, Box::new(rx));
    // 400 kb/s flood from src to rcv between t=200 and t=280: the 600 kb/s
    // bottleneck momentarily fits only 200 kb/s of media (2 layers).
    let flood = traffic::background::OnOffFlood::new(
        n_rcv,
        400_000.0,
        SimTime::from_secs(200),
        SimTime::from_secs(280),
    );
    sim.add_app(n_src, Box::new(flood));
    sim.run_until(SimTime::from_secs(500));

    let s = stats.lock().unwrap();
    let series = metrics::StepSeries::from_changes(&s.changes);
    let before = series.mean(SimTime::from_secs(120), SimTime::from_secs(200));
    let during = series.mean(SimTime::from_secs(220), SimTime::from_secs(280));
    let after = series.mean(SimTime::from_secs(400), SimTime::from_secs(500));
    assert!(before > 3.0, "pre-flood level {before:.2} (optimum 4)");
    assert!(during < before - 0.2, "must shed during the flood: {during:.2} vs {before:.2}");
    assert!(after > 2.8, "must recover after the flood: {after:.2}");
}

#[test]
fn receivers_keep_functioning_when_registration_is_flaky() {
    // Even with a pathologically lossy first mile, re-registration and
    // reports eventually connect every receiver to the controller.
    let s = Scenario::new(generators::topology_b_default(3), TrafficModel::Cbr, 77)
        .with_duration(SimDuration::from_secs(300));
    let result = run(&s);
    let ctrl = result.controller.expect("controller present");
    assert_eq!(ctrl.registered, 3, "all receivers known to the controller");
    for r in &result.receivers {
        assert!(r.stats.suggestions_received > 0, "receiver {:?} never heard back", r.node);
    }
}

#[test]
fn whole_scenario_is_deterministic() {
    let go = || {
        let s =
            Scenario::new(generators::topology_b_default(4), TrafficModel::Vbr { p: 6.0 }, 1234)
                .with_duration(SimDuration::from_secs(300));
        let r = run(&s);
        (
            r.events,
            r.total_drops,
            r.receivers.iter().map(|x| x.stats.changes.clone()).collect::<Vec<_>>(),
            r.receivers.iter().map(|x| x.stats.bytes_total).collect::<Vec<_>>(),
        )
    };
    assert_eq!(go(), go());
}

#[test]
fn rlm_baseline_shows_the_topology_blind_pathology() {
    // Under RLM, the n4 receiver's failed experiments at layer 3 leak loss
    // onto n3 over the shared 110 kb/s link — the Fig. 1 argument.
    let s = Scenario::new(generators::figure1(), TrafficModel::Cbr, 13)
        .with_control(ControlMode::Rlm)
        .with_duration(SimDuration::from_secs(600));
    let result = run(&s);
    let n3 = result.receivers.iter().find(|r| r.set == 0).unwrap();
    // n3's own optimum is 1 layer; any loss it sees beyond its own probes
    // is collateral. It must see *some* loss (the pathology exists).
    let loss =
        n3.mean_loss(SimTime::from_secs(60), SimTime::from_secs(600)).expect("540 s of reports");
    assert!(loss > 0.005, "expected collateral/probe loss at n3, got {loss}");
}
