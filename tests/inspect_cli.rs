//! Smoke tests for the `inspect` binary's CLI contract: no args or an
//! unknown subcommand exit 2 with a usage message naming every
//! subcommand, every telemetry-trail query, the `blackbox` validator
//! and the `snapshot` queries work end-to-end against artifacts recorded
//! by a real run, and a reader that closes the pipe early ends a query
//! quietly.

use netsim::SimDuration;
use scenarios::largetree;
use scenarios::{run, ControlMode, Scenario};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use telemetry::{Blackbox, Occurrence, Record, StageBody, Telemetry};
use topology::generators;
use toposense::algorithm::AlgorithmState;
use toposense::Config;
use traffic::{LayerSpec, TrafficModel};

mod trees;

const BIN: &str = env!("CARGO_BIN_EXE_inspect");

fn inspect(args: &[&str]) -> std::process::Output {
    Command::new(BIN).args(args).output().expect("spawn inspect")
}

/// Run `inspect`, demand exit 0, and return its stdout.
#[track_caller]
fn stdout_of(args: &[&str]) -> String {
    let out = inspect(args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "inspect {args:?} failed: {err}");
    String::from_utf8_lossy(&out.stdout).into_owned()
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

/// Record a real trail, then drive every query over it exactly as a
/// debugging session would.
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
    let out = stdout_of(&["validate", trail]);
    assert!(out.contains("records valid"));
    for kind in ["trace.report", "trace.decide", "trace.apply"] {
        assert!(out.contains(kind), "validate must count {kind} records");
    }

    assert!(stdout_of(&["summary", trail]).contains("run 'scenario' seed=9"));

    // Pull real (session, receiver), (session, node) and seq values from the
    // trail so the queries below cannot be vacuous.
    let text = std::fs::read_to_string(&path).expect("trail written");
    let records: Vec<Record> = text.lines().filter_map(|l| Record::from_jsonl(l).ok()).collect();
    let (session, receiver) = records
        .iter()
        .find_map(|r| match r {
            Record::Trace { phase, session, receiver, cause, .. }
                if *phase == "apply" && *cause != 0 =>
            {
                Some((*session, *receiver))
            }
            _ => None,
        })
        .expect("run recorded no apply trace");
    let (tree_session, node) = records
        .iter()
        .find_map(|r| match r {
            Record::Stage { body: StageBody::Subscription(ss), .. } => {
                ss.iter().find_map(|s| Some((s.session, s.nodes.first()?.node)))
            }
            _ => None,
        })
        .expect("run recorded no subscription stage");
    let seqs: Vec<u64> = (records.iter())
        .filter_map(|r| match r {
            Record::Stage { seq, body: StageBody::Congestion(_), .. } => Some(*seq),
            _ => None,
        })
        .collect();

    let out = stdout_of(&["timeline", trail, &tree_session.to_string(), &node.to_string()]);
    let labelled =
        out.lines().skip(1).filter(|l| l.rsplit(' ').next().is_some_and(|b| b.contains('.')));
    assert!(labelled.count() > 0, "no interval row with a branch label:\n{out}");

    let (first, last) = (seqs[0].to_string(), seqs[seqs.len() - 1].to_string());
    let out = stdout_of(&["diff", trail, &first, &last]);
    assert!(out.contains(&format!("between interval {first} and {last}")));

    let (session, receiver) = (session.to_string(), receiver.to_string());
    let out = stdout_of(&["trace", trail, "--session", &session, "--receiver", &receiver]);
    assert!(out.contains("(complete)"), "no complete chain rendered:\n{out}");
    // The pair is given by flag only; the positional form is a usage error.
    let positional = inspect(&["trace", trail, &session, &receiver]);
    assert_eq!(positional.status.code(), Some(2), "positional trace must exit 2");
    assert!(String::from_utf8_lossy(&positional.stderr).contains("usage:"));
    for phase in ["report", "decide", "apply"] {
        assert!(out.contains(phase), "chain output missing the {phase} hop");
    }

    // The closing counters carry the simulator profile, and the prefix
    // keeps everything else out.
    let out = stdout_of(&["counters", trail, "netsim.profile."]);
    for counter in ["ev_link_deliver", "slab_hwm", "pending_events_hwm"] {
        let name = format!("netsim.profile.{counter}");
        assert!(out.contains(&name), "profile output missing {name}:\n{out}");
    }
    assert!(out.lines().all(|l| l.contains("  netsim.profile.")), "off-prefix line in:\n{out}");
    let out = stdout_of(&["counters", trail, "controller."]);
    assert!(out.lines().all(|l| l.contains("  controller.")), "off-prefix line in:\n{out}");

    // An absent (session, receiver) pair is a hard miss, not silence.
    let miss = inspect(&["trace", trail, "--session", "999", "--receiver", "999"]);
    assert_eq!(miss.status.code(), Some(1));

    // A record that decodes but is not in canonical form fails `validate`,
    // which names its line.
    let loose: Vec<String> = (text.lines().enumerate())
        .map(|(i, l)| if i == 2 { l.replacen(':', ": ", 1) } else { l.to_string() })
        .collect();
    std::fs::write(&path, loose.join("\n")).expect("rewrite trail");
    let bad = inspect(&["validate", trail]);
    assert_eq!(bad.status.code(), Some(1), "a non-canonical trail must exit 1");
    let err = String::from_utf8_lossy(&bad.stderr);
    assert!(err.contains(":3: decode/re-encode mismatch"), "{err}");

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

    let out = stdout_of(&["counters", trail]);
    let names: Vec<&str> = out.lines().filter_map(|l| l.split_whitespace().nth(1)).collect();
    assert_eq!(names, ["controller.intervals", "netsim.events"], "largest first:\n{out}");

    let miss = inspect(&["counters", trail, "federation."]);
    assert_eq!(miss.status.code(), Some(1), "a prefix nothing matches must exit 1");
    assert!(miss.stdout.is_empty());

    let _ = std::fs::remove_file(&path);
}

/// `inspect … | head -1`: the reader takes one line and closes the pipe
/// while `inspect` still has most of its output to write. That ends the
/// query with exit 0 and nothing on stderr — no panic from a failed print.
#[test]
fn a_closed_pipe_ends_a_query_quietly() {
    let path =
        std::env::temp_dir().join(format!("toposense-inspect-pipe-{}.jsonl", std::process::id()));
    let tel = Telemetry::jsonl_file(&path).expect("create trail file");
    // About 600 KB of `counters` output, far past the 64 KiB a pipe holds.
    let entries = (0..20_000).map(|i| (format!("pipe.counter_{i:05}"), i)).collect();
    tel.emit(&Record::Counters { t_ns: 1_000_000_000, entries });
    tel.flush();
    let trail = path.to_str().expect("utf8 temp path");

    let mut child = Command::new(BIN)
        .args(["counters", trail])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn inspect");
    let mut first = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout).read_line(&mut first).expect("read one line");
    assert!(first.contains("pipe.counter_19999"), "largest first: {first}");
    // The reader is dropped above, so the pipe is closed now.
    let out = child.wait_with_output().expect("wait for inspect");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "inspect panicked on a closed pipe:\n{err}");
    assert_eq!(out.status.code(), Some(0), "a closed pipe must exit 0: {err}");

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

    let out = stdout_of(&["blackbox", p]);
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

/// A real checkpoint file through `snapshot validate`, `summary` and `diff`:
/// a self-diff is empty, a later round's checkpoint differs, and a corrupted
/// file is refused.
#[test]
fn snapshot_queries_work_against_a_real_checkpoint() {
    let (tree, leaves) = largetree::balanced_session_tree(0, 2, 3);
    let spec = LayerSpec::paper_default();
    let (sessions, specs) = ([tree], [&spec]);
    let registry = largetree::registry_for_leaves(0, &leaves);
    let reports = largetree::reports_for_leaves(0, &leaves, 3, 2);
    let mut state = AlgorithmState::new(Config::default(), 7);
    let [early, late] = ["early", "late"].map(|tag| {
        std::env::temp_dir()
            .join(format!("toposense-inspect-ckpt-{tag}-{}.json", std::process::id()))
    });
    for round in 1..=6 {
        let inputs = trees::inputs_at(2 * round, &sessions, &specs, &registry, &reports);
        state.run_incremental(&inputs);
        if round == 3 {
            state.checkpoint().save(&early).expect("write checkpoint");
        }
    }
    state.checkpoint().save(&late).expect("write checkpoint");
    let (a, b) = (early.to_str().expect("utf8 temp path"), late.to_str().expect("utf8 temp path"));

    assert!(stdout_of(&["snapshot", "validate", a]).contains("valid toposense.checkpoint.v1"));
    assert!(stdout_of(&["snapshot", "summary", a]).contains("completed runs      3"));
    assert!(stdout_of(&["snapshot", "diff", a, a]).starts_with("0 differences"));
    let moved = stdout_of(&["snapshot", "diff", a, b]);
    let count = moved.lines().last().and_then(|l| l.split(' ').next()?.parse::<usize>().ok());
    assert!(count > Some(0), "a later round's checkpoint must differ:\n{moved}");

    // A truncated checkpoint is refused, not half-read.
    let text = std::fs::read_to_string(&early).expect("checkpoint readable");
    std::fs::write(&early, &text[..text.len() / 2]).expect("truncate checkpoint");
    assert_eq!(
        inspect(&["snapshot", "validate", a]).status.code(),
        Some(1),
        "corrupt file must exit 1"
    );

    let _ = (std::fs::remove_file(&early), std::fs::remove_file(&late));
}
