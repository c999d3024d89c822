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
//!    byte-identically, and the dump a chaos run would write holds the
//!    controllers' latest window and counts what rolled off it.

mod observed;

use observed::{fingerprint, scenario};
use scenarios::campaign::{run_campaign, CampaignSpec, Profile};
use scenarios::{chaos, run};
use telemetry::{Blackbox, Occurrence, Record, Telemetry};
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
    let flight = armed.controller.as_ref().expect("toposense run").flight.items();
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

/// The black box a real run writes. 150 s of link flap at 2 s intervals
/// makes more notes than the controller's 128-entry ring holds, so the
/// dump carries the latest 128 and counts the rest as rolled off.
#[test]
fn link_flap_blackbox_keeps_the_latest_window() {
    let (scenario, _) = chaos::link_flap(1);
    let cfg = chaos::chaos_config();
    let r = run(&scenario);
    let bb = chaos::blackbox(&r, &cfg, 1, "chaos_recovery_failure", "link_flap");
    let c = r.controller.as_ref().expect("toposense run");
    // Every tick opens with `interval_start`, every completed interval
    // closes with `interval_end`, and each fallback adds one more note.
    let ticks = r.duration.nanos() / cfg.interval.nanos();
    let notes = ticks + c.intervals + c.degraded_intervals + c.suspended_intervals;
    assert_eq!(bb.occurrences.len(), 128);
    assert!(bb.ring_dropped > 0, "the ring never wrapped: {notes} notes");
    assert_eq!(bb.ring_dropped, notes - 128);
    let last = bb.occurrences.last().expect("a full window");
    assert_eq!(last.kind, "interval_end");
    assert_eq!((last.t_ns, last.seq), (r.duration.nanos(), c.intervals - 1));
}

/// Failover: the dump merges the crashed primary's window with the
/// standby's, whose takeover follows the crash, into one timeline ordered
/// by `(t_ns, seq)`, and counts what rolled off either ring.
#[test]
fn failover_blackbox_merges_both_windows() {
    let (scenario, crash) = chaos::controller_failover(1);
    let r = run(&scenario);
    let bb = chaos::blackbox(&r, &chaos::chaos_config(), 1, "chaos_recovery_failure", "failover");
    let primary = r.controller.as_ref().expect("primary");
    let standby = r.standby.as_ref().expect("standby");
    let (before, after) = (primary.flight.items(), standby.flight.items());
    assert!(!before.is_empty() && before.iter().all(|o| o.t_ns <= crash.nanos()));
    let takeovers: Vec<u64> =
        after.iter().filter(|o| o.kind == "takeover").map(|o| o.t_ns).collect();
    assert!(matches!(takeovers[..], [t] if t > crash.nanos()), "takeovers at {takeovers:?}");

    assert_eq!(bb.occurrences.len(), before.len() + after.len());
    assert!(before.iter().chain(&after).all(|o| bb.occurrences.contains(o)));
    let key = |o: &Occurrence| (o.t_ns, o.seq);
    assert!(bb.occurrences.windows(2).all(|w| key(&w[0]) <= key(&w[1])), "not one timeline");
    assert_eq!(bb.ring_dropped, primary.flight.dropped() + standby.flight.dropped());
}
