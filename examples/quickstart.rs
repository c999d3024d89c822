//! Quickstart: the smallest complete TopoSense deployment.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! One layered source, one receiver behind a 250 kb/s bottleneck, one
//! controller. The oracle says 3 layers (224 kb/s) fit; we watch the
//! controller steer the receiver there.
//!
//! Set `QUICKSTART_CHAOS=1` to instead run the canned bottleneck
//! link-flap fault plan (DESIGN.md §9) and print its deterministic
//! fingerprint — CI runs this twice and diffs the outputs.
//!
//! Set `QUICKSTART_TELEMETRY=<path>` to record the controller's decision
//! audit trail (one JSONL record per pipeline stage per interval, plus one
//! closing counters record harvested from the simulator profile and the
//! controller's stats, and the stage timers) to `<path>`. Telemetry is a
//! pure observer: stdout stays byte-identical to a run without it — CI
//! diffs the two, and diffs two trails with their timers dropped.
//!
//! Set `QUICKSTART_RECORDER=1` to additionally arm the simulator's
//! structured trace ring. Same pure-observer contract, same CI diff: the
//! recorder reports on stderr only and stdout stays byte-identical.
//!
//! In chaos mode, a violated recovery bound writes a `blackbox.v1` dump
//! (flight-recorder window + profile counters) to `blackbox.json` — or to
//! `$QUICKSTART_BLACKBOX` — before exiting non-zero, so CI failures carry
//! their own forensics.

use netsim::sim::{NetworkBuilder, SimConfig};
use netsim::{GroupId, LinkConfig, SessionId, SimDuration, SimTime};
use std::sync::Arc;
use telemetry::{Record, Telemetry};
use toposense::{Config, Controller, Receiver};
use traffic::session::SessionDef;
use traffic::{LayerSpec, LayeredSource, SessionCatalog, TrafficModel};

fn main() {
    if std::env::var_os("QUICKSTART_CHAOS").is_some() {
        chaos_mode();
        return;
    }
    let telemetry = match std::env::var_os("QUICKSTART_TELEMETRY") {
        Some(path) => Telemetry::jsonl_file(path).expect("open telemetry sink"),
        None => Telemetry::disabled(),
    };
    telemetry.emit(&Record::Run {
        label: "quickstart".to_string(),
        seed: 42,
        duration_ns: SimDuration::from_secs(300).nanos(),
    });
    // 1. A three-node network: source -- router -- receiver, with the
    //    paper's 200 ms links; the last hop is the 250 kb/s bottleneck.
    let mut b = NetworkBuilder::new(SimConfig { seed: 42, ..SimConfig::default() });
    let src = b.add_node("source");
    let mid = b.add_node("router");
    let rcv = b.add_node("receiver");
    b.add_link(src, mid, LinkConfig::kbps(10_000.0));
    b.add_link(mid, rcv, LinkConfig::kbps(250.0));
    let mut sim = b.build();
    let recorder = std::env::var_os("QUICKSTART_RECORDER").is_some();
    if recorder {
        sim.trace.enable(4096);
    }

    // 2. Advertise one session: 6 cumulative layers, base 32 kb/s,
    //    doubling — one multicast group per layer, rooted at the source.
    let spec = LayerSpec::paper_default();
    let groups: Vec<GroupId> = (0..spec.layer_count()).map(|_| sim.create_group(src)).collect();
    let def = SessionDef { id: SessionId(0), source: src, groups, spec };
    let mut catalog = SessionCatalog::new();
    catalog.add(def.clone());
    let catalog = catalog.share();

    // 3. Agents: controller (stationed at the source node, like the paper),
    //    the source, and the receiver.
    let cfg = Config::default();
    let (controller, ctrl_stats) = Controller::new(Arc::clone(&catalog), cfg, SimDuration::ZERO, 1);
    let controller = controller.with_telemetry(telemetry.clone());
    sim.add_app(src, Box::new(controller));
    sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 2)));
    let (receiver, rcv_stats) = Receiver::new(def, src, cfg, 3, "r0");
    let rx_app = sim.add_app(rcv, Box::new(receiver));

    // 4. Run five simulated minutes. The closing telemetry mirrors the
    //    scenario harness: apply-side trace hops (closing each causal
    //    chain), then one counters record harvested from the structs that
    //    hold the counts, then the timers.
    sim.run_until(SimTime::from_secs(300));
    rcv_stats.lock().unwrap().emit_apply_hops(&telemetry, 0, rx_app.0 as u64);
    let controller = ctrl_stats.lock().unwrap().counter_entries();
    let mut entries: Vec<(String, u64)> = (sim.profile().counter_entries().iter())
        .map(|&(n, v)| (format!("netsim.profile.{n}"), v))
        .chain(controller.iter().map(|&(n, v)| (format!("controller.{n}"), v)))
        .collect();
    entries.push(("netsim.events".to_string(), sim.events_processed()));
    entries.sort_unstable();
    telemetry.emit(&Record::Counters { t_ns: sim.now().nanos(), entries });
    telemetry.emit_timers();
    telemetry.flush();

    // 5. Inspect.
    let r = rcv_stats.lock().unwrap();
    let c = ctrl_stats.lock().unwrap();
    println!("subscription changes:");
    for &(t, old, new) in &r.changes {
        println!("  {:>7.1}s  {} -> {} layers", t.as_secs_f64(), old, new);
    }
    println!("final level:            {} (optimal for 250 kb/s: 3)", r.final_level());
    println!("bytes received:         {}", r.bytes_total);
    println!("suggestions obeyed:     {}", r.suggestions_received);
    println!("controller intervals:   {}", c.intervals);
    println!("events processed:       {}", sim.events_processed());
    if recorder {
        // Stderr only: stdout must stay byte-identical to a plain run.
        let p = sim.profile();
        eprintln!(
            "recorder: {} trace events ({} dropped), {} sim events, slab hwm {}, queue hwm {}",
            sim.trace.events().len(),
            sim.trace.dropped(),
            p.events_total,
            p.slab_hwm,
            p.pending_events_hwm,
        );
        eprintln!(
            "flight:   {} control-plane occurrences ({} rolled off)",
            c.flight.len(),
            c.flight.dropped(),
        );
    }
    assert!((2..=4).contains(&r.final_level()), "expected convergence near 3 layers");
}

/// `QUICKSTART_CHAOS=1`: run the canned bottleneck link-flap plan on
/// Topology A and print its fingerprint. Every line is a pure function of
/// the seed, so two invocations must produce byte-identical output.
fn chaos_mode() {
    let (scenario, heal_at) = scenarios::chaos::link_flap(42);
    let result = scenarios::run(&scenario);
    print!("{}", scenarios::chaos::fingerprint(&result));
    if let Err(e) = scenarios::chaos::verify_recovery(&result, &scenario.cfg, heal_at, 10) {
        let path = std::env::var("QUICKSTART_BLACKBOX").unwrap_or_else(|_| "blackbox.json".into());
        let bb = scenarios::chaos::blackbox(
            &result,
            &scenario.cfg,
            scenario.seed,
            "chaos_recovery_failure",
            "quickstart-link-flap",
        );
        bb.write(&path).expect("write blackbox dump");
        eprintln!("recovery bound violated: {e}");
        eprintln!("black box written to {path}");
        std::process::exit(1);
    }
    println!("recovery bound held: all receivers within 1 layer of oracle after heal");
}
