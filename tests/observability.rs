//! Observability-layer invariants (DESIGN.md §15).
//!
//! Three hard guarantees, each pinned here:
//!
//! 1. **Pure observer, everything armed.** A run with the telemetry sink
//!    attached and the flight recorder running is byte-identical (in
//!    everything the simulation can observe about itself) to a plain run.
//!    The recorder may count, it may never steer. (That the simulator's
//!    trace ring changes nothing is pinned by a `netsim::sim` unit test.)
//! 2. **Causal chains close.** Every subscription change a receiver
//!    applies is reconstructible from the audit trail as a complete
//!    report → decide → apply chain under one cause id, causally ordered
//!    in simulated time.
//! 3. **Failures carry forensics.** A failed campaign gate yields a
//!    `blackbox.v1` dump that decodes against its schema and re-encodes
//!    byte-identically.

use netsim::{SimDuration, SimTime};
use scenarios::campaign::{run_campaign, CampaignSpec, Profile};
use scenarios::{chaos, run, ControlMode, Scenario};
use telemetry::{Blackbox, Record, Telemetry};
use topology::generators;
use toposense::Config;
use traffic::TrafficModel;

fn scenario(seed: u64) -> Scenario {
    Scenario::new(generators::topology_a_default(2), TrafficModel::Vbr { p: 3.0 }, seed)
        .with_control(ControlMode::TopoSense { staleness: SimDuration::ZERO })
        .with_duration(SimDuration::from_secs(90))
}

/// Everything observable about a run that must not depend on the
/// observability layer (same contract as `tests/telemetry.rs`).
type Fingerprint = (u64, u64, Vec<Vec<(SimTime, u8, u8)>>, u64);

fn fingerprint(r: &scenarios::ScenarioResult) -> Fingerprint {
    (
        r.events,
        r.total_drops,
        r.receivers.iter().map(|x| x.stats.changes.clone()).collect(),
        r.controller.as_ref().map(|c| c.suggestions_sent).unwrap_or(0),
    )
}

/// Arming all of it at once — telemetry sink, profile and counter harvest,
/// flight recorder — must leave the simulation event-for-event identical
/// to a plain run.
#[test]
fn fully_armed_recorder_is_a_pure_observer() {
    let plain = run(&scenario(17));
    let (tel, store) = Telemetry::memory();
    let armed = run(&scenario(17).with_telemetry(tel));
    assert_eq!(fingerprint(&plain), fingerprint(&armed), "instrumentation steered the run");

    // The armed run must have actually observed something, or the
    // equality above is vacuous.
    let records = store.records();
    assert!(
        records.iter().any(|r| matches!(r, Record::Trace { .. })),
        "no causal trace records were emitted"
    );
    assert!(armed.profile.events_total > 0, "profiler counted nothing");
    let flight = armed.controller.as_ref().expect("toposense run").flight.occurrences();
    assert!(!flight.is_empty(), "flight recorder saw no control-plane occurrences");
    assert!(flight.iter().any(|o| o.kind == "interval_start"));
}

/// Every applied subscription change reconstructs from the audit trail
/// as a complete report → decide → apply chain under its cause id, and
/// the hops of each complete chain are causally ordered.
#[test]
fn causal_chains_close_report_decide_apply() {
    let (tel, store) = Telemetry::memory();
    let result = run(&scenario(11).with_telemetry(tel));
    let records = store.records();

    let r = result
        .receivers
        .iter()
        .find(|r| r.stats.applies.iter().any(|&(_, cause, _, _)| cause != 0))
        .expect("scenario steered nobody — nothing to trace");
    let chains = telemetry::causal::reconstruct(&records, r.session as u64, r.app.0 as u64);
    assert!(chains.iter().any(|c| c.is_complete()), "no complete chain for receiver");

    for &(when, cause, _old, new) in r.stats.applies.iter().filter(|&&(_, c, _, _)| c != 0) {
        let chain = chains
            .iter()
            .find(|c| c.cause == cause)
            .unwrap_or_else(|| panic!("apply with cause {cause:016x} has no chain"));
        assert!(chain.is_complete(), "chain {cause:016x} missing a phase");
        assert!(
            chain
                .hops
                .iter()
                .any(|h| h.phase == "apply" && h.t_ns == when.nanos() && h.level == new as u64),
            "chain {cause:016x} does not record the applied level {new} at {}ns",
            when.nanos()
        );
        let t = |phase: &str| {
            chain.hops.iter().find(|h| h.phase == phase).map(|h| h.t_ns).unwrap_or(u64::MAX)
        };
        assert!(
            t("report") <= t("decide") && t("decide") <= t("apply"),
            "chain {cause:016x} hops are not causally ordered"
        );
    }
}

/// A deliberately broken config fails campaign gates, and every failed
/// run yields a black box — in the report and on disk — that validates
/// against the schema.
#[test]
fn failed_campaign_gates_produce_validating_blackboxes() {
    // Same sabotage as tests/campaign.rs: creep capacity up while gating
    // everything else shut, so gates must fail.
    let broken = Config {
        capacity_creep: 2.0,
        capacity_loss_threshold: 1.0,
        p_threshold: 0.98,
        high_loss: 0.98,
        very_high_loss: 0.99,
        unilateral_drop_loss: 10.0,
        ..chaos::chaos_config()
    };
    let spec = CampaignSpec::new("zoo-broken-bb", 1, Profile::Smoke).with_config_override(broken);
    let report = run_campaign(&spec);
    assert!(!report.passed(), "broken config unexpectedly passed all gates");
    assert!(!report.blackboxes.is_empty(), "failed gates produced no black boxes");

    let failed: Vec<&str> =
        report.runs.iter().filter(|r| r.failed()).map(|r| r.id.as_str()).collect();
    for (id, bb) in &report.blackboxes {
        assert!(failed.contains(&id.as_str()), "black box for {id} but that run passed");
        assert_eq!(bb.reason, "campaign_gate_failure");
        let text = bb.encode();
        let back = Blackbox::decode(&text).unwrap_or_else(|e| panic!("dump for {id}: {e}"));
        assert_eq!(back.encode(), text, "dump for {id} not byte-identical after round trip");
    }

    // The artifact tree carries one decodable dump per failed run.
    let dir =
        std::env::temp_dir().join(format!("toposense-observability-bb-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    report.write_artifacts(&dir).expect("write artifacts");
    let mut on_disk = 0usize;
    for entry in std::fs::read_dir(dir.join("runs")).expect("runs dir") {
        let p = entry.expect("dir entry").path();
        if p.file_name().is_some_and(|n| n.to_string_lossy().ends_with(".blackbox.json")) {
            let text = std::fs::read_to_string(&p).expect("readable dump");
            Blackbox::decode(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            on_disk += 1;
        }
    }
    assert_eq!(on_disk, report.blackboxes.len(), "every black box must land on disk");
    let _ = std::fs::remove_dir_all(&dir);
}
