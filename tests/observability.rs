//! Observability-layer invariants (DESIGN.md §15).
//!
//! Two hard guarantees, each pinned here:
//!
//! 1. **Pure observer, everything armed.** A run with the telemetry sink
//!    attached and the flight recorder running is byte-identical (in
//!    everything the simulation can observe about itself) to a plain run.
//!    The recorder may count, it may never steer. (That the simulator's
//!    trace ring changes nothing is pinned by a `netsim::sim` unit test;
//!    that causal chains close, by `tests/telemetry.rs`.)
//! 2. **Failures carry forensics.** A failed campaign gate yields a
//!    `blackbox.v1` dump that decodes against its schema and re-encodes
//!    byte-identically.

mod observed;

use observed::{fingerprint, scenario};
use scenarios::campaign::{run_campaign, CampaignSpec, Profile};
use scenarios::{chaos, run};
use telemetry::{Blackbox, Record, Telemetry};
use toposense::Config;

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
