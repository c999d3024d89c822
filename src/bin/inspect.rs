//! Diagnostics: scenario change logs, plus a query CLI over recorded
//! telemetry (the JSONL decision audit trail).
//!
//! ```text
//! cargo run --release --bin inspect -- <a2|b4|fig1> [secs] [staleness_secs]
//! cargo run --release --bin inspect -- validate <trail.jsonl>
//! cargo run --release --bin inspect -- summary  <trail.jsonl>
//! cargo run --release --bin inspect -- timeline <trail.jsonl> <session> <node>
//! cargo run --release --bin inspect -- diff     <trail.jsonl> <seqA> <seqB>
//! cargo run --release --bin inspect -- counters <trail.jsonl> [prefix]
//! cargo run --release --bin inspect -- trace    <trail.jsonl> <session> <receiver>
//! cargo run --release --bin inspect -- blackbox <blackbox.json>
//! cargo run --release --bin inspect -- snapshot validate <ckpt.json>
//! cargo run --release --bin inspect -- snapshot summary  <ckpt.json>
//! cargo run --release --bin inspect -- snapshot diff     <a.json> <b.json>
//! ```
//!
//! Scenario mode (the original tool):
//!
//! * `a2`   — Topology A with 2 receivers per set (optima 2 and 4 layers)
//! * `b4`   — Topology B with 4 competing sessions (optimum 4 each)
//! * `fig1` — the Fig. 1 motivating example (optima 1 / 2 / 4)
//!
//! Telemetry mode reads a trail recorded with e.g.
//! `QUICKSTART_TELEMETRY=trail.jsonl cargo run --release --example quickstart`;
//! `timeline <trail.jsonl> <session> <node>` is the controller's
//! per-interval view of one session-tree node (loss, congestion, capacity,
//! demand, supply, suggestion, Table I branch) — the raw material behind
//! every debugging session of this reproduction. `counters <trail.jsonl>
//! netsim.profile.` is the simulator's profile (per-event-type counts,
//! drop reasons, high-water marks).

use netsim::{SimDuration, SimTime};
use scenarios::{run, ControlMode, Scenario};
use telemetry::{Record, StageBody};
use topology::generators;
use traffic::TrafficModel;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(|s| s.as_str()) {
        Some("validate") => validate(&args[2..]),
        Some("summary") => summary(&args[2..]),
        Some("timeline") => timeline(&args[2..]),
        Some("diff") => diff(&args[2..]),
        Some("counters") => counters(&args[2..]),
        Some("trace") => trace(&args[2..]),
        Some("blackbox") => blackbox(&args[2..]),
        Some("snapshot") => snapshot(&args[2..]),
        Some("a2" | "b4" | "fig1") => scenario_mode(&args),
        Some(other) => usage(&format!("unknown subcommand '{other}'")),
        None => usage("no subcommand given"),
    }
}

// --- telemetry queries -------------------------------------------------

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: inspect <a2|b4|fig1> [secs] [staleness]");
    eprintln!("       inspect validate|summary <trail.jsonl>");
    eprintln!("       inspect timeline <trail.jsonl> <session> <node>");
    eprintln!("       inspect diff <trail.jsonl> <seqA> <seqB>");
    eprintln!("       inspect counters <trail.jsonl> [prefix]");
    eprintln!("       inspect trace <trail.jsonl> <session> <receiver>");
    eprintln!("       inspect blackbox <blackbox.json>");
    eprintln!("       inspect snapshot validate|summary <ckpt.json>");
    eprintln!("       inspect snapshot diff <a.json> <b.json>");
    std::process::exit(2);
}

// --- checkpoint files ---------------------------------------------------

/// `snapshot <validate|summary|diff> ...`: query `toposense.checkpoint.v1`
/// files (written by [`toposense::checkpoint::Snapshot::save`] and carried
/// by the replication layer's `CheckpointTransfer`).
fn snapshot(args: &[String]) {
    use toposense::checkpoint::Snapshot;
    let load = |path: &String| -> Snapshot {
        match Snapshot::load(std::path::Path::new(path)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
    };
    match args.first().map(|s| s.as_str()) {
        Some("validate") => {
            let [_, path] = args else { usage("snapshot validate needs a file") };
            let snap = load(path);
            // The canonical rendering must round-trip byte-identically —
            // the same gate `validate` applies to telemetry trails.
            let reencoded = snap.encode();
            let on_disk = std::fs::read_to_string(path).expect("already read once");
            if on_disk.trim_end() != reencoded {
                eprintln!("{path}: decode/re-encode mismatch (non-canonical rendering)");
                std::process::exit(1);
            }
            println!(
                "{path}: valid {} checkpoint ({} estimates, {} memories, {} backoffs, {} runs)",
                toposense::checkpoint::SCHEMA,
                snap.estimates.len(),
                snap.memories.len(),
                snap.backoffs.len(),
                snap.runs
            );
        }
        Some("summary") => {
            let [_, path] = args else { usage("snapshot summary needs a file") };
            print!("{}", load(path).summary());
        }
        Some("diff") => {
            let [_, a, b] = args else { usage("snapshot diff needs two files") };
            let (sa, sb) = (load(a), load(b));
            let lines = sa.diff(&sb);
            for line in &lines {
                println!("{line}");
            }
            println!("{} differences between {a} and {b}", lines.len());
        }
        _ => usage("snapshot needs validate, summary, or diff"),
    }
}

/// Read and decode every line of a trail; exits on unreadable files.
fn load(path: &str) -> Vec<(usize, String, Record)> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => usage(&format!("cannot read {path}: {e}")),
    };
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| match Record::from_jsonl(l) {
            Ok(r) => (i + 1, l.to_string(), r),
            Err(e) => {
                eprintln!("{path}:{}: {e}", i + 1);
                std::process::exit(1);
            }
        })
        .collect()
}

/// `validate <file>`: every line must decode against the current schema
/// AND re-encode byte-identically (the round-trip CI gate).
fn validate(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage("validate needs a file"));
    let records = load(path);
    let mut kinds = std::collections::BTreeMap::new();
    for (line_no, line, record) in &records {
        let reencoded = record.to_jsonl();
        if &reencoded != line {
            eprintln!("{path}:{line_no}: decode/re-encode mismatch");
            eprintln!("  file:      {line}");
            eprintln!("  re-encode: {reencoded}");
            std::process::exit(1);
        }
        let kind = match record {
            Record::Run { .. } => "run".to_string(),
            Record::Stage { body, .. } => format!("stage.{}", body.stage_name()),
            Record::Counters { .. } => "counters".to_string(),
            Record::Timers { .. } => "timers".to_string(),
            Record::Trace { phase, .. } => format!("trace.{phase}"),
        };
        *kinds.entry(kind).or_insert(0u64) += 1;
    }
    println!("{path}: {} records valid (schema v{})", records.len(), telemetry::SCHEMA_VERSION);
    for (kind, count) in kinds {
        println!("  {kind:<20} {count}");
    }
}

/// `summary <file>`: the run header, interval span, and closing stats.
fn summary(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage("summary needs a file"));
    let records = load(path);
    let mut intervals: Vec<u64> = Vec::new();
    for (_, _, record) in &records {
        match record {
            Record::Run { label, seed, duration_ns } => {
                println!("run '{label}' seed={seed} duration={:.0}s", *duration_ns as f64 / 1e9);
            }
            Record::Stage { seq, body, .. } => {
                if matches!(body, StageBody::Congestion(_)) {
                    intervals.push(*seq);
                }
            }
            Record::Counters { t_ns, entries } => {
                println!("counters at {:.0}s:", *t_ns as f64 / 1e9);
                for (name, value) in entries {
                    println!("  {name:<34} {value}");
                }
            }
            Record::Timers { entries } => {
                println!("stage timers:");
                for t in entries {
                    let mean = t.sum_ns.checked_div(t.count).unwrap_or(0);
                    println!(
                        "  {:<22} n={:<6} mean={:>9}ns min={:>9}ns max={:>9}ns",
                        t.name, t.count, mean, t.min_ns, t.max_ns
                    );
                }
            }
            Record::Trace { .. } => {}
        }
    }
    match (intervals.first(), intervals.last()) {
        (Some(first), Some(last)) => {
            println!("audited intervals: {} (seq {first}..={last})", intervals.len());
        }
        _ => println!("audited intervals: 0"),
    }
}

/// The five stage records of interval `seq`, in pipeline order.
fn interval_stages(records: &[(usize, String, Record)], seq: u64) -> Vec<&StageBody> {
    records
        .iter()
        .filter_map(|(_, _, r)| match r {
            Record::Stage { seq: s, body, .. } if *s == seq => Some(body),
            _ => None,
        })
        .collect()
}

/// `timeline <file> <session> <node>`: one row per interval with the full
/// decision context of one tree node.
fn timeline(args: &[String]) {
    let [path, session, node] = args else { usage("timeline needs <file> <session> <node>") };
    let session: u64 = session.parse().unwrap_or_else(|_| usage("session must be a number"));
    let node: u64 = node.parse().unwrap_or_else(|_| usage("node must be a number"));
    let records = load(path);
    println!(
        "{:>6} {:>8} {:>7} {:>5} {:>11} {:>6} {:>6} {:>5}  branch",
        "seq", "t", "loss", "cong", "cap_bps", "dem", "sup", "sugg"
    );
    let mut shown = 0usize;
    for (_, _, record) in &records {
        let Record::Stage { seq, t_ns, body: StageBody::Congestion(sessions) } = record else {
            continue;
        };
        let Some(cn) = sessions
            .iter()
            .filter(|s| s.session == session)
            .flat_map(|s| &s.nodes)
            .find(|n| n.node == node)
        else {
            continue;
        };
        // Pull the matching bottleneck + subscription entries of the same
        // interval for the rest of the row.
        let stages = interval_stages(&records, *seq);
        let cap = stages.iter().find_map(|b| match b {
            StageBody::Bottleneck(ss) => ss
                .iter()
                .filter(|s| s.session == session)
                .flat_map(|s| &s.nodes)
                .find(|n| n.node == node)
                .map(|n| n.bottleneck_bps),
            _ => None,
        });
        let sub = stages.iter().find_map(|b| match b {
            StageBody::Subscription(ss) => ss
                .iter()
                .filter(|s| s.session == session)
                .flat_map(|s| &s.nodes)
                .find(|n| n.node == node),
            _ => None,
        });
        let cap = match cap {
            Some(c) if c.is_finite() => format!("{c:.0}"),
            Some(_) => "inf".to_string(),
            None => "-".to_string(),
        };
        let (branch, dem, sup, sugg) = match sub {
            Some(s) => (
                s.branch.as_str(),
                s.demand.to_string(),
                s.supply.to_string(),
                s.suggested.map(|l| l.to_string()).unwrap_or_else(|| "-".to_string()),
            ),
            None => ("-", "-".to_string(), "-".to_string(), "-".to_string()),
        };
        println!(
            "{:>6} {:>7.1}s {:>7.3} {:>5} {:>11} {:>6} {:>6} {:>5}  {}",
            seq,
            *t_ns as f64 / 1e9,
            cn.loss,
            if cn.congested { "C" } else { "." },
            cap,
            dem,
            sup,
            sugg,
            branch,
        );
        shown += 1;
    }
    if shown == 0 {
        eprintln!("no audit rows for session {session} node {node} in {path}");
        std::process::exit(1);
    }
}

/// `diff <file> <seqA> <seqB>`: what changed between two intervals.
fn diff(args: &[String]) {
    let [path, a, b] = args else { usage("diff needs <file> <seqA> <seqB>") };
    let a: u64 = a.parse().unwrap_or_else(|_| usage("seqA must be a number"));
    let b: u64 = b.parse().unwrap_or_else(|_| usage("seqB must be a number"));
    let records = load(path);
    let (sa, sb) = (interval_stages(&records, a), interval_stages(&records, b));
    if sa.is_empty() || sb.is_empty() {
        eprintln!("interval {a} or {b} not present in {path}");
        std::process::exit(1);
    }
    let mut changes = 0usize;
    for (xa, xb) in sa.iter().zip(&sb) {
        match (xa, xb) {
            (StageBody::Congestion(va), StageBody::Congestion(vb)) => {
                for (na, nb) in nodes_of(va).zip(nodes_of(vb)) {
                    if na.1.congested != nb.1.congested {
                        println!(
                            "congestion   s{} n{}: {} -> {}",
                            na.0,
                            na.1.node,
                            flag(na.1.congested),
                            flag(nb.1.congested)
                        );
                        changes += 1;
                    }
                }
            }
            (StageBody::Capacity(va), StageBody::Capacity(vb)) => {
                for ea in va {
                    let eb = vb.iter().find(|e| e.link == ea.link);
                    match eb {
                        Some(eb) if (eb.bps - ea.bps).abs() > 1e-9 || eb.event != ea.event => {
                            println!(
                                "capacity     link {}: {:.0} bps ({}) -> {:.0} bps ({})",
                                ea.link, ea.bps, ea.event, eb.bps, eb.event
                            );
                            changes += 1;
                        }
                        None => {
                            println!("capacity     link {}: gone in seq {b}", ea.link);
                            changes += 1;
                        }
                        _ => {}
                    }
                }
            }
            (StageBody::Subscription(va), StageBody::Subscription(vb)) => {
                for (na, nb) in nodes_of(va).zip(nodes_of(vb)) {
                    if na.1.supply != nb.1.supply || na.1.branch != nb.1.branch {
                        println!(
                            "subscription s{} n{}: supply {} ({}) -> {} ({})",
                            na.0, na.1.node, na.1.supply, na.1.branch, nb.1.supply, nb.1.branch
                        );
                        changes += 1;
                    }
                }
            }
            _ => {}
        }
    }
    println!("{changes} differences between interval {a} and {b}");
}

fn flag(b: bool) -> &'static str {
    if b {
        "congested"
    } else {
        "clear"
    }
}

fn nodes_of<T>(sessions: &[telemetry::SessionNodes<T>]) -> impl Iterator<Item = (u64, &T)> + '_ {
    sessions.iter().flat_map(|s| s.nodes.iter().map(move |n| (s.session, n)))
}

/// `counters <file> [prefix]`: every counter of the last counters record
/// whose name starts with `prefix` (default: all of them), largest first.
/// Exits 1 when none matches.
fn counters(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage("counters needs a file"));
    let prefix = args.get(1).map_or("", String::as_str);
    let records = load(path);
    let last = records.iter().rev().find_map(|(_, _, r)| match r {
        Record::Counters { entries, .. } => Some(entries.clone()),
        _ => None,
    });
    let Some(mut entries) = last else {
        eprintln!("no counters record in {path}");
        std::process::exit(1);
    };
    entries.retain(|(name, _)| name.starts_with(prefix));
    if entries.is_empty() {
        eprintln!("no counter in {path} starts with '{prefix}'");
        std::process::exit(1);
    }
    entries.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
    for (name, value) in entries {
        println!("{value:>12}  {name}");
    }
}

/// `trace <trail.jsonl> --session <S> --receiver <R>` (flags may also be
/// given positionally): reconstruct every report → decide → apply chain of
/// one (session, receiver) pair from the trail's `"trace"` records.
fn trace(args: &[String]) {
    let mut positional: Vec<&String> = Vec::new();
    let mut session: Option<u64> = None;
    let mut receiver: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--session" => {
                session = args.get(i + 1).and_then(|s| s.parse().ok());
                if session.is_none() {
                    usage("--session needs a number");
                }
                i += 2;
            }
            "--receiver" => {
                receiver = args.get(i + 1).and_then(|s| s.parse().ok());
                if receiver.is_none() {
                    usage("--receiver needs a number");
                }
                i += 2;
            }
            _ => {
                positional.push(&args[i]);
                i += 1;
            }
        }
    }
    let mut positional = positional.into_iter();
    let Some(path) = positional.next() else { usage("trace needs a trail file") };
    let session = session
        .or_else(|| positional.next().and_then(|s| s.parse().ok()))
        .unwrap_or_else(|| usage("trace needs --session <n>"));
    let receiver = receiver
        .or_else(|| positional.next().and_then(|s| s.parse().ok()))
        .unwrap_or_else(|| usage("trace needs --receiver <n>"));
    let records: Vec<Record> = load(path).into_iter().map(|(_, _, r)| r).collect();
    let chains = telemetry::causal::reconstruct(&records, session, receiver);
    if chains.is_empty() {
        eprintln!("no trace records for session {session} receiver {receiver} in {path}");
        std::process::exit(1);
    }
    let complete = chains.iter().filter(|c| c.is_complete()).count();
    for c in &chains {
        println!(
            "cause {:016x} — {} hop{} ({})",
            c.cause,
            c.hops.len(),
            if c.hops.len() == 1 { "" } else { "s" },
            if c.is_complete() { "complete" } else { "incomplete" },
        );
        for h in &c.hops {
            println!(
                "  {:<7} seq={:<5} t={:>8.1}s level={}",
                h.phase,
                h.seq,
                h.t_ns as f64 / 1e9,
                h.level,
            );
        }
    }
    println!(
        "{} chains ({complete} complete) for session {session} receiver {receiver}",
        chains.len()
    );
}

/// `blackbox <blackbox.json>`: validate a failure dump (schema + canonical
/// round-trip) and print its story.
fn blackbox(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage("blackbox needs a file"));
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => usage(&format!("cannot read {path}: {e}")),
    };
    let bb = match telemetry::Blackbox::decode(text.trim_end()) {
        Ok(bb) => bb,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    if bb.encode() != text.trim_end() {
        eprintln!("{path}: decode/re-encode mismatch (non-canonical rendering)");
        std::process::exit(1);
    }
    println!("{path}: valid {} dump", telemetry::BLACKBOX_SCHEMA);
    println!("  reason  {}", bb.reason);
    println!("  label   {}", bb.label);
    println!("  seed    {}", bb.seed);
    println!("  config  {}", bb.config_fingerprint);
    println!("  at      {:.1}s", bb.t_ns as f64 / 1e9);
    println!("  counters ({}):", bb.counters.len());
    for (name, value) in &bb.counters {
        println!("    {name:<34} {value}");
    }
    println!("  occurrences ({}, {} rolled off):", bb.occurrences.len(), bb.ring_dropped);
    for o in &bb.occurrences {
        let detail = if o.detail.is_empty() { String::new() } else { format!("  ({})", o.detail) };
        println!("    {:>8.1}s  {:<15} seq={}{detail}", o.t_ns as f64 / 1e9, o.kind, o.seq);
    }
}

// --- scenario mode (the original tool) ---------------------------------

fn scenario_mode(args: &[String]) {
    let which = args.get(1).map(|s| s.as_str()).unwrap_or("b4");
    let secs: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(240);
    let topo = match which {
        "b4" => generators::topology_b_default(4),
        "a2" => generators::topology_a_default(2),
        "fig1" => generators::figure1(),
        other => usage(&format!("unknown subcommand or topology '{other}'")),
    };
    let staleness: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0);
    let s = Scenario::new(topo, TrafficModel::Vbr { p: 3.0 }, 1)
        .with_control(ControlMode::TopoSense { staleness: SimDuration::from_secs(staleness) })
        .with_duration(SimDuration::from_secs(secs));
    let r = run(&s);
    for rec in &r.receivers {
        println!(
            "receiver set={} session={} node={:?} optimal={} final={} bytes={} sugg={} unilateral={}",
            rec.set,
            rec.session,
            rec.node,
            rec.optimal,
            rec.stats.final_level(),
            rec.stats.bytes_total,
            rec.stats.suggestions_received,
            rec.stats.unilateral_actions,
        );
        let ch: Vec<String> = rec
            .stats
            .changes
            .iter()
            .map(|&(t, o, n)| format!("{:.0}s:{}->{}", t.as_secs_f64(), o, n))
            .collect();
        println!("  changes: {}", ch.join(" "));
        let late_loss = rec.mean_loss(SimTime::from_secs(secs / 2), SimTime::from_secs(secs));
        match late_loss {
            Some(l) => println!("  late mean loss: {l:.4}"),
            None => println!("  late mean loss: no report window in the second half"),
        }
    }
    if let Some(c) = &r.controller {
        println!(
            "controller: intervals={} suggestions={} registered={}",
            c.intervals, c.suggestions_sent, c.registered
        );
        if let Some(o) = &c.last_outputs {
            println!("  last estimates: {:?}", o.estimated_links);
            println!("  last root supplies: {:?}", o.root_supply);
        }
    }
    println!("total drops: {}", r.total_drops);
}
