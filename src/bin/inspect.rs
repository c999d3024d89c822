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
//! cargo run --release --bin inspect -- trace    <trail.jsonl> --session <S> --receiver <R>
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
//!
//! All output goes through one locked stdout writer. A reader that closes
//! the pipe early (`inspect … | head`) ends the query quietly with exit 0;
//! any other write error exits 1.

use netsim::{SimDuration, SimTime};
use scenarios::{run, ControlMode, Scenario};
use std::io::{self, Write};
use telemetry::{Record, StageBody};
use topology::generators;
use traffic::TrafficModel;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out = &mut io::stdout().lock();
    let written = match args.get(1).map(|s| s.as_str()) {
        Some("validate") => validate(out, &args[2..]),
        Some("summary") => summary(out, &args[2..]),
        Some("timeline") => timeline(out, &args[2..]),
        Some("diff") => diff(out, &args[2..]),
        Some("counters") => counters(out, &args[2..]),
        Some("trace") => trace(out, &args[2..]),
        Some("blackbox") => blackbox(out, &args[2..]),
        Some("snapshot") => snapshot(out, &args[2..]),
        Some("a2" | "b4" | "fig1") => scenario_mode(out, &args),
        Some(other) => usage(&format!("unknown subcommand '{other}'")),
        None => usage("no subcommand given"),
    };
    // A reader that stops early (`| head`) closes the pipe: that ends the
    // query, and is no failure.
    if let Err(e) = written.and_then(|()| out.flush()) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            fail(&format!("cannot write to stdout: {e}"));
        }
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
    eprintln!("       inspect trace <trail.jsonl> --session <S> --receiver <R>");
    eprintln!("       inspect blackbox <blackbox.json>");
    eprintln!("       inspect snapshot validate|summary <ckpt.json>");
    eprintln!("       inspect snapshot diff <a.json> <b.json>");
    std::process::exit(2);
}

fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1);
}

/// Read and decode `path`: exits 2 with usage when it cannot be read, 1
/// when it does not decode.
fn decode_file<T>(path: &str, decode: impl FnOnce(&str) -> Result<T, String>) -> (String, T) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    let value = decode(text.trim_end()).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
    (text, value)
}

/// The canonical-file check of `validate`, `blackbox` and `snapshot
/// validate`: `path` must decode, and re-encoding the result must give
/// back the file's bytes (less trailing whitespace). Exits 1 naming the
/// first line that differs.
fn canonical<T>(
    path: &str,
    decode: impl FnOnce(&str) -> Result<T, String>,
    encode: impl FnOnce(&T) -> String,
) -> T {
    let (text, value) = decode_file(path, decode);
    let (file, again) = (text.trim_end(), encode(&value));
    if file != again {
        let n = file.lines().zip(again.lines()).take_while(|(a, b)| a == b).count();
        let (was, is) = (file.lines().nth(n), again.lines().nth(n));
        eprintln!("{path}:{}: decode/re-encode mismatch (non-canonical rendering)", n + 1);
        eprintln!("  file:      {}", was.unwrap_or(""));
        fail(&format!("  re-encode: {}", is.unwrap_or("")));
    }
    value
}

// --- checkpoint files ---------------------------------------------------

/// `snapshot <validate|summary|diff> ...`: query `toposense.checkpoint.v1`
/// files (written by [`toposense::checkpoint::Snapshot::save`] and carried
/// by the replication layer's `CheckpointTransfer`).
fn snapshot(out: &mut impl Write, args: &[String]) -> io::Result<()> {
    use toposense::checkpoint::Snapshot;
    let load = |path: &str| decode_file(path, Snapshot::decode).1;
    match args.first().map(|s| s.as_str()) {
        Some("validate") => {
            let [_, path] = args else { usage("snapshot validate needs a file") };
            let snap = canonical(path, Snapshot::decode, Snapshot::encode);
            writeln!(
                out,
                "{path}: valid {} checkpoint ({} estimates, {} memories, {} backoffs, {} runs)",
                toposense::checkpoint::SCHEMA,
                snap.estimates.len(),
                snap.memories.len(),
                snap.backoffs.len(),
                snap.runs
            )
        }
        Some("summary") => {
            let [_, path] = args else { usage("snapshot summary needs a file") };
            write!(out, "{}", load(path).summary())
        }
        Some("diff") => {
            let [_, a, b] = args else { usage("snapshot diff needs two files") };
            let lines = load(a).diff(&load(b));
            for line in &lines {
                writeln!(out, "{line}")?;
            }
            writeln!(out, "{} differences between {a} and {b}", lines.len())
        }
        _ => usage("snapshot needs validate, summary, or diff"),
    }
}

/// Decode a trail, one record per non-blank line; an error names its line.
fn decode_trail(text: &str) -> Result<Vec<Record>, String> {
    (text.lines().enumerate())
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Record::from_jsonl(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Read and decode every line of a trail.
fn load(path: &str) -> Vec<Record> {
    decode_file(path, decode_trail).1
}

/// `validate <file>`: every line must decode against the current schema
/// AND re-encode byte-identically (the round-trip CI gate).
fn validate(out: &mut impl Write, args: &[String]) -> io::Result<()> {
    let path = args.first().unwrap_or_else(|| usage("validate needs a file"));
    let encode = |rs: &Vec<Record>| rs.iter().map(Record::to_jsonl).collect::<Vec<_>>().join("\n");
    let records = canonical(path, decode_trail, encode);
    let mut kinds = std::collections::BTreeMap::new();
    for record in &records {
        let kind = match record {
            Record::Run { .. } => "run".to_string(),
            Record::Stage { body, .. } => format!("stage.{}", body.stage_name()),
            Record::Counters { .. } => "counters".to_string(),
            Record::Timers { .. } => "timers".to_string(),
            Record::Trace { phase, .. } => format!("trace.{phase}"),
        };
        *kinds.entry(kind).or_insert(0u64) += 1;
    }
    writeln!(
        out,
        "{path}: {} records valid (schema v{})",
        records.len(),
        telemetry::SCHEMA_VERSION
    )?;
    for (kind, count) in kinds {
        writeln!(out, "  {kind:<20} {count}")?;
    }
    Ok(())
}

/// `summary <file>`: the run header, interval span, and closing stats.
fn summary(out: &mut impl Write, args: &[String]) -> io::Result<()> {
    let path = args.first().unwrap_or_else(|| usage("summary needs a file"));
    let records = load(path);
    let mut intervals: Vec<u64> = Vec::new();
    for record in &records {
        match record {
            Record::Run { label, seed, duration_ns } => {
                writeln!(
                    out,
                    "run '{label}' seed={seed} duration={:.0}s",
                    *duration_ns as f64 / 1e9
                )?;
            }
            Record::Stage { seq, body, .. } => {
                if matches!(body, StageBody::Congestion(_)) {
                    intervals.push(*seq);
                }
            }
            Record::Counters { t_ns, entries } => {
                writeln!(out, "counters at {:.0}s:", *t_ns as f64 / 1e9)?;
                for (name, value) in entries {
                    writeln!(out, "  {name:<34} {value}")?;
                }
            }
            Record::Timers { entries } => {
                writeln!(out, "stage timers:")?;
                for t in entries {
                    let mean = t.sum_ns.checked_div(t.count).unwrap_or(0);
                    writeln!(
                        out,
                        "  {:<22} n={:<6} mean={:>9}ns min={:>9}ns max={:>9}ns",
                        t.name, t.count, mean, t.min_ns, t.max_ns
                    )?;
                }
            }
            Record::Trace { .. } => {}
        }
    }
    match (intervals.first(), intervals.last()) {
        (Some(first), Some(last)) => {
            writeln!(out, "audited intervals: {} (seq {first}..={last})", intervals.len())
        }
        _ => writeln!(out, "audited intervals: 0"),
    }
}

/// The five stage records of interval `seq`, in pipeline order.
fn interval_stages(records: &[Record], seq: u64) -> Vec<&StageBody> {
    records
        .iter()
        .filter_map(|r| match r {
            Record::Stage { seq: s, body, .. } if *s == seq => Some(body),
            _ => None,
        })
        .collect()
}

/// `timeline <file> <session> <node>`: one row per interval with the full
/// decision context of one tree node.
fn timeline(out: &mut impl Write, args: &[String]) -> io::Result<()> {
    let [path, session, node] = args else { usage("timeline needs <file> <session> <node>") };
    let session: u64 = session.parse().unwrap_or_else(|_| usage("session must be a number"));
    let node: u64 = node.parse().unwrap_or_else(|_| usage("node must be a number"));
    let records = load(path);
    writeln!(
        out,
        "{:>6} {:>8} {:>7} {:>5} {:>11} {:>6} {:>6} {:>5}  branch",
        "seq", "t", "loss", "cong", "cap_bps", "dem", "sup", "sugg"
    )?;
    let mut shown = 0usize;
    for record in &records {
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
        writeln!(
            out,
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
        )?;
        shown += 1;
    }
    if shown == 0 {
        fail(&format!("no audit rows for session {session} node {node} in {path}"));
    }
    Ok(())
}

/// `diff <file> <seqA> <seqB>`: what changed between two intervals.
fn diff(out: &mut impl Write, args: &[String]) -> io::Result<()> {
    let [path, a, b] = args else { usage("diff needs <file> <seqA> <seqB>") };
    let a: u64 = a.parse().unwrap_or_else(|_| usage("seqA must be a number"));
    let b: u64 = b.parse().unwrap_or_else(|_| usage("seqB must be a number"));
    let records = load(path);
    let (sa, sb) = (interval_stages(&records, a), interval_stages(&records, b));
    if sa.is_empty() || sb.is_empty() {
        fail(&format!("interval {a} or {b} not present in {path}"));
    }
    let mut changes = 0usize;
    for (xa, xb) in sa.iter().zip(&sb) {
        match (xa, xb) {
            (StageBody::Congestion(va), StageBody::Congestion(vb)) => {
                for (na, nb) in nodes_of(va).zip(nodes_of(vb)) {
                    if na.1.congested != nb.1.congested {
                        writeln!(
                            out,
                            "congestion   s{} n{}: {} -> {}",
                            na.0,
                            na.1.node,
                            flag(na.1.congested),
                            flag(nb.1.congested)
                        )?;
                        changes += 1;
                    }
                }
            }
            (StageBody::Capacity(va), StageBody::Capacity(vb)) => {
                for ea in va {
                    let eb = vb.iter().find(|e| e.link == ea.link);
                    match eb {
                        Some(eb) if (eb.bps - ea.bps).abs() > 1e-9 || eb.event != ea.event => {
                            writeln!(
                                out,
                                "capacity     link {}: {:.0} bps ({}) -> {:.0} bps ({})",
                                ea.link, ea.bps, ea.event, eb.bps, eb.event
                            )?;
                            changes += 1;
                        }
                        None => {
                            writeln!(out, "capacity     link {}: gone in seq {b}", ea.link)?;
                            changes += 1;
                        }
                        _ => {}
                    }
                }
            }
            (StageBody::Subscription(va), StageBody::Subscription(vb)) => {
                for (na, nb) in nodes_of(va).zip(nodes_of(vb)) {
                    if na.1.supply != nb.1.supply || na.1.branch != nb.1.branch {
                        writeln!(
                            out,
                            "subscription s{} n{}: supply {} ({}) -> {} ({})",
                            na.0, na.1.node, na.1.supply, na.1.branch, nb.1.supply, nb.1.branch
                        )?;
                        changes += 1;
                    }
                }
            }
            _ => {}
        }
    }
    writeln!(out, "{changes} differences between interval {a} and {b}")
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
fn counters(out: &mut impl Write, args: &[String]) -> io::Result<()> {
    let path = args.first().unwrap_or_else(|| usage("counters needs a file"));
    let prefix = args.get(1).map_or("", String::as_str);
    let records = load(path);
    let last = records.into_iter().rev().find_map(|r| match r {
        Record::Counters { entries, .. } => Some(entries),
        _ => None,
    });
    let mut entries = last.unwrap_or_else(|| fail(&format!("no counters record in {path}")));
    entries.retain(|(name, _)| name.starts_with(prefix));
    if entries.is_empty() {
        fail(&format!("no counter in {path} starts with '{prefix}'"));
    }
    entries.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
    for (name, value) in entries {
        writeln!(out, "{value:>12}  {name}")?;
    }
    Ok(())
}

/// `trace <trail.jsonl> --session <S> --receiver <R>`: reconstruct every
/// report → decide → apply chain of one (session, receiver) pair from the
/// trail's `"trace"` records.
fn trace(out: &mut impl Write, args: &[String]) -> io::Result<()> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let [path, "--session", session, "--receiver", receiver] = args[..] else {
        usage("trace needs <file> --session <S> --receiver <R>")
    };
    let session: u64 = session.parse().unwrap_or_else(|_| usage("session must be a number"));
    let receiver: u64 = receiver.parse().unwrap_or_else(|_| usage("receiver must be a number"));
    let records = load(path);
    let chains = telemetry::causal::reconstruct(&records, session, receiver);
    if chains.is_empty() {
        fail(&format!("no trace records for session {session} receiver {receiver} in {path}"));
    }
    let complete = chains.iter().filter(|c| c.is_complete()).count();
    for c in &chains {
        writeln!(
            out,
            "cause {:016x} — {} hop{} ({})",
            c.cause,
            c.hops.len(),
            if c.hops.len() == 1 { "" } else { "s" },
            if c.is_complete() { "complete" } else { "incomplete" },
        )?;
        for h in &c.hops {
            writeln!(
                out,
                "  {:<7} seq={:<5} t={:>8.1}s level={}",
                h.phase,
                h.seq,
                h.t_ns as f64 / 1e9,
                h.level,
            )?;
        }
    }
    writeln!(
        out,
        "{} chains ({complete} complete) for session {session} receiver {receiver}",
        chains.len()
    )
}

/// `blackbox <blackbox.json>`: validate a failure dump (schema + canonical
/// round-trip) and print its story.
fn blackbox(out: &mut impl Write, args: &[String]) -> io::Result<()> {
    let path = args.first().unwrap_or_else(|| usage("blackbox needs a file"));
    let bb = canonical(path, telemetry::Blackbox::decode, telemetry::Blackbox::encode);
    writeln!(out, "{path}: valid {} dump", telemetry::BLACKBOX_SCHEMA)?;
    writeln!(out, "  reason  {}", bb.reason)?;
    writeln!(out, "  label   {}", bb.label)?;
    writeln!(out, "  seed    {}", bb.seed)?;
    writeln!(out, "  config  {}", bb.config_fingerprint)?;
    writeln!(out, "  at      {:.1}s", bb.t_ns as f64 / 1e9)?;
    writeln!(out, "  counters ({}):", bb.counters.len())?;
    for (name, value) in &bb.counters {
        writeln!(out, "    {name:<34} {value}")?;
    }
    writeln!(out, "  occurrences ({}, {} rolled off):", bb.occurrences.len(), bb.ring_dropped)?;
    for o in &bb.occurrences {
        let detail = if o.detail.is_empty() { String::new() } else { format!("  ({})", o.detail) };
        writeln!(out, "    {:>8.1}s  {:<15} seq={}{detail}", o.t_ns as f64 / 1e9, o.kind, o.seq)?;
    }
    Ok(())
}

// --- scenario mode (the original tool) ---------------------------------

fn scenario_mode(out: &mut impl Write, args: &[String]) -> io::Result<()> {
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
        writeln!(
            out,
            "receiver set={} session={} node={:?} optimal={} final={} bytes={} sugg={} unilateral={}",
            rec.set,
            rec.session,
            rec.node,
            rec.optimal,
            rec.stats.final_level(),
            rec.stats.bytes_total,
            rec.stats.suggestions_received,
            rec.stats.unilateral_actions,
        )?;
        let ch: Vec<String> = rec
            .stats
            .changes
            .iter()
            .map(|&(t, o, n)| format!("{:.0}s:{}->{}", t.as_secs_f64(), o, n))
            .collect();
        writeln!(out, "  changes: {}", ch.join(" "))?;
        let late_loss = rec.mean_loss(SimTime::from_secs(secs / 2), SimTime::from_secs(secs));
        match late_loss {
            Some(l) => writeln!(out, "  late mean loss: {l:.4}")?,
            None => writeln!(out, "  late mean loss: no report window in the second half")?,
        }
    }
    if let Some(c) = &r.controller {
        writeln!(
            out,
            "controller: intervals={} suggestions={} registered={}",
            c.intervals, c.suggestions_sent, c.registered
        )?;
        if let Some(o) = &c.last_outputs {
            writeln!(out, "  last estimates: {:?}", o.estimated_links)?;
            writeln!(out, "  last root supplies: {:?}", o.root_supply)?;
        }
    }
    writeln!(out, "total drops: {}", r.total_drops)
}
