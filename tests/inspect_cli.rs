//! Smoke tests for the `inspect` binary's CLI contract: no args or an
//! unknown subcommand exit 2 with a usage message naming every
//! subcommand, and the telemetry-trail queries (`validate`, `trace`,
//! `counters`) and the `blackbox` validator work end-to-end against
//! artifacts recorded by a real run.

use netsim::SimDuration;
use scenarios::{run, ControlMode, Scenario};
use std::process::Command;
use telemetry::{Blackbox, Occurrence, Record, Telemetry};
use topology::generators;
use traffic::TrafficModel;

const BIN: &str = env!("CARGO_BIN_EXE_inspect");

fn inspect(args: &[&str]) -> std::process::Output {
    Command::new(BIN).args(args).output().expect("spawn inspect")
}

#[test]
fn no_args_and_unknown_subcommand_exit_two_with_usage() {
    let none = inspect(&[]);
    assert_eq!(none.status.code(), Some(2), "no subcommand must exit 2");
    let err = String::from_utf8_lossy(&none.stderr);
    assert!(err.contains("no subcommand given"));
    assert!(err.contains("usage:"));
    for sub in
        ["validate", "summary", "timeline", "diff", "counters", "trace", "blackbox", "snapshot"]
    {
        assert!(err.contains(sub), "usage must mention '{sub}'");
    }

    let unknown = inspect(&["frobnicate"]);
    assert_eq!(unknown.status.code(), Some(2), "unknown subcommand must exit 2");
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown subcommand 'frobnicate'"));
}

/// Record a real trail, then drive `validate`, `trace`, and the profile
/// query `counters <trail> netsim.profile.` over it exactly as a debugging
/// session would.
#[test]
fn trail_queries_work_against_a_recorded_run() {
    let path = std::env::temp_dir().join(format!("toposense-inspect-{}.jsonl", std::process::id()));
    let tel = Telemetry::jsonl_file(&path).expect("create trail file");
    let scenario =
        Scenario::new(generators::topology_a_default(2), TrafficModel::Vbr { p: 3.0 }, 9)
            .with_control(ControlMode::TopoSense { staleness: SimDuration::ZERO })
            .with_duration(SimDuration::from_secs(90))
            .with_telemetry(tel);
    run(&scenario);
    let trail = path.to_str().expect("utf8 temp path");

    // validate: every record decodes and the trace kinds are on the books.
    let v = inspect(&["validate", trail]);
    assert_eq!(v.status.code(), Some(0), "validate failed: {}", String::from_utf8_lossy(&v.stderr));
    let out = String::from_utf8_lossy(&v.stdout);
    assert!(out.contains("records valid"));
    for kind in ["trace.report", "trace.decide", "trace.apply"] {
        assert!(out.contains(kind), "validate must count {kind} records");
    }

    // Pull a real (session, receiver) pair from an apply record so the
    // trace query below cannot be vacuous.
    let text = std::fs::read_to_string(&path).expect("trail written");
    let (session, receiver) = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| Record::from_jsonl(l).ok())
        .find_map(|r| match r {
            Record::Trace { phase, session, receiver, cause, .. }
                if phase == "apply" && cause != 0 =>
            {
                Some((session, receiver))
            }
            _ => None,
        })
        .expect("run recorded no apply trace");

    let t = inspect(&[
        "trace",
        trail,
        "--session",
        &session.to_string(),
        "--receiver",
        &receiver.to_string(),
    ]);
    assert_eq!(t.status.code(), Some(0), "trace failed: {}", String::from_utf8_lossy(&t.stderr));
    let out = String::from_utf8_lossy(&t.stdout);
    assert!(out.contains("(complete)"), "no complete chain rendered:\n{out}");
    for phase in ["report", "decide", "apply"] {
        assert!(out.contains(phase), "chain output missing the {phase} hop");
    }

    // The closing counters carry the simulator profile, and the prefix
    // keeps everything else out.
    let p = inspect(&["counters", trail, "netsim.profile."]);
    assert_eq!(p.status.code(), Some(0), "profile failed: {}", String::from_utf8_lossy(&p.stderr));
    let out = String::from_utf8_lossy(&p.stdout);
    for counter in ["ev_link_deliver", "slab_hwm", "pending_events_hwm"] {
        let name = format!("netsim.profile.{counter}");
        assert!(out.contains(&name), "profile output missing {name}:\n{out}");
    }
    assert!(out.lines().all(|l| l.contains("  netsim.profile.")), "off-prefix line in:\n{out}");

    // An absent (session, receiver) pair is a hard miss, not silence.
    let miss = inspect(&["trace", trail, "--session", "999", "--receiver", "999"]);
    assert_eq!(miss.status.code(), Some(1));

    let _ = std::fs::remove_file(&path);
}

/// `counters` with no prefix prints every counter, largest first; a
/// prefix no counter carries is a hard miss (exit 1), not silence.
#[test]
fn counters_prefix_without_a_match_exits_one() {
    let path =
        std::env::temp_dir().join(format!("toposense-inspect-ctr-{}.jsonl", std::process::id()));
    let tel = Telemetry::jsonl_file(&path).expect("create trail file");
    let entries = vec![("controller.intervals".to_string(), 8), ("netsim.events".to_string(), 1)];
    tel.emit(&Record::Counters { t_ns: 1_000_000_000, entries });
    tel.flush();
    let trail = path.to_str().expect("utf8 temp path");

    let all = inspect(&["counters", trail]);
    assert_eq!(
        all.status.code(),
        Some(0),
        "counters failed: {}",
        String::from_utf8_lossy(&all.stderr)
    );
    let out = String::from_utf8_lossy(&all.stdout);
    let names: Vec<&str> = out.lines().filter_map(|l| l.split_whitespace().nth(1)).collect();
    assert_eq!(names, ["controller.intervals", "netsim.events"], "largest first:\n{out}");

    let miss = inspect(&["counters", trail, "federation."]);
    assert_eq!(miss.status.code(), Some(1), "a prefix nothing matches must exit 1");
    assert!(miss.stdout.is_empty());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn blackbox_subcommand_validates_and_rejects() {
    let bb = Blackbox {
        reason: "campaign_gate_failure".to_string(),
        label: "inspect-cli-smoke".to_string(),
        seed: 7,
        config_fingerprint: "00000000deadbeef".to_string(),
        t_ns: 2_000_000_000,
        counters: vec![("gates_failed".to_string(), 3)],
        occurrences: vec![Occurrence {
            t_ns: 1_500_000_000,
            kind: "quarantine",
            seq: 1,
            detail: "loss_late".to_string(),
        }],
        ring_dropped: 0,
    };
    let path =
        std::env::temp_dir().join(format!("toposense-inspect-bb-{}.json", std::process::id()));
    bb.write(&path).expect("write dump");
    let p = path.to_str().expect("utf8 temp path");

    let ok = inspect(&["blackbox", p]);
    assert_eq!(
        ok.status.code(),
        Some(0),
        "blackbox failed: {}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let out = String::from_utf8_lossy(&ok.stdout);
    assert!(out.contains(telemetry::BLACKBOX_SCHEMA));
    assert!(out.contains("campaign_gate_failure"));
    assert!(out.contains("quarantine"));

    // A truncated dump must be rejected, not half-rendered.
    let text = std::fs::read_to_string(&path).expect("dump readable");
    std::fs::write(&path, &text[..text.len() / 2]).expect("truncate dump");
    let bad = inspect(&["blackbox", p]);
    assert_eq!(bad.status.code(), Some(1), "corrupt dump must exit 1");

    let _ = std::fs::remove_file(&path);
}
