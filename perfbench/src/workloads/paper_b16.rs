//! `paper_b16` — the paper's own run: Topology B with 16 sessions, VBR
//! (P = 3), 1200 simulated seconds, through the `scenarios` harness.
//!
//! Why it exists: the netsim event loop (queue, link drain, multicast
//! fan-out, app dispatch, congestion drops) does nearly all the work, on a
//! world small enough to stay in cache; the controller ticks over sixteen
//! two-node trees and costs nothing. One step is one whole
//! `scenarios::run`, each on its own derived seed.

use super::{mix, peak_rss_mb, profile_layers, Clock, Outcome, Run};
use crate::probes;
use netsim::{SimDuration, SimTime};
use scenarios::{Scenario, ScenarioResult};
use topology::generators;
use traffic::TrafficModel;

/// Timed reps before the checkpoint.
const CHECKPOINT_REPS: usize = 5;

struct Shape {
    sessions: usize,
    sim_secs: u64,
}

fn scenario(run: &Run<'_>, shape: &Shape, rep: u64) -> Scenario {
    Scenario::new(
        generators::topology_b_default(shape.sessions),
        TrafficModel::Vbr { p: 3.0 },
        run.derive("perf/paper_b16/rep", rep),
    )
    .with_duration(SimDuration::from_secs(shape.sim_secs))
}

pub fn run(run: &mut Run<'_>) -> Outcome {
    let shape = if run.smoke() {
        Shape { sessions: 4, sim_secs: 60 }
    } else {
        Shape { sessions: 16, sim_secs: 1200 }
    };
    let mut out = Outcome { workers: 1, ..Outcome::default() };

    // Rep 0 warms caches and the allocator and is discarded.
    let warm = scenario(run, &shape, 0);
    run.tracer.time("warmup", || scenarios::run(&warm));

    let intervals = SimDuration::from_secs(shape.sim_secs).nanos()
        / toposense::Config::default().interval.nanos();
    let window = (SimTime::from_secs(shape.sim_secs / 12), SimTime::from_secs(shape.sim_secs));
    // setup / run / harvest, as the harness timed them.
    let mut phases_ms: [Vec<f64>; 3] = Default::default();
    let mut events = 0u64;
    let mut checkpoint: Option<ScenarioResult> = None;
    let clock = Clock::start(run.seconds, CHECKPOINT_REPS);
    let mut rep = 0usize;
    while clock.keep_going(rep) {
        rep += 1;
        let sc = scenario(run, &shape, rep as u64);
        let step = run.tracer.enter("step");
        let (res, t) = run.timed("scenarios.run", || scenarios::run(&sc));
        run.tracer.exit(step);

        // The harness times its own phases; for the end-to-end metrics they
        // share the rep's speed.
        let speed = t.raw_ns as f64 / t.ns;
        out.step(t);
        out.setups_s.push(res.setup_wall_ns as f64 / 1e9 / speed);
        out.work_per_s.push(res.events_per_sec() * speed);
        for (v, ns) in
            phases_ms.iter_mut().zip([res.setup_wall_ns, res.run_wall_ns, res.harvest_wall_ns])
        {
            v.push(ns as f64 / 1e6);
        }
        events += res.events;
        let ticks = res.controller.as_ref().map_or(0, |c| c.intervals);
        out.checks.check(ticks == intervals, "paper_b16: controller ran every interval");
        out.checks.check(
            res.mean_relative_deviation(window.0, window.1).is_some(),
            "paper_b16: deviation is defined",
        );
        if rep == CHECKPOINT_REPS {
            out.peak_rss_mb = peak_rss_mb();
            checkpoint = Some(res);
        }
    }

    let cp = checkpoint.expect("the clock runs at least CHECKPOINT_REPS reps");
    let outputs = cp.controller.as_ref().and_then(|c| c.last_outputs.as_ref());
    let mut h = mix(0, cp.events);
    h = mix(h, cp.receivers.iter().map(|r| r.stats.bytes_total).sum());
    h = mix(h, cp.total_drops);
    out.sim_digest = mix(h, outputs.map_or(0, toposense::fingerprint_outputs));

    if run.tracer.is_keeping() {
        out.layer(
            "netsim.loop_ns_per_event",
            phases_ms[1].iter().sum::<f64>() * 1e6 / events as f64,
        );
        out.layer("netsim.events_per_step", cp.events as f64);
        profile_layers(&mut out, &cp.profile);
        out.layer(
            "sim.mean_rel_deviation",
            cp.mean_relative_deviation(window.0, window.1).unwrap_or(0.0),
        );
        for (name, v) in ["scenarios.setup_ms", "scenarios.run_ms", "scenarios.harvest_ms"]
            .into_iter()
            .zip(&phases_ms)
        {
            out.layer(name, crate::stats::median(v));
        }
        // One more rep of the checkpoint seed under each telemetry sink,
        // against the plain rep measured just before it.
        let base = scenario(run, &shape, CHECKPOINT_REPS as u64);
        let (_, plain_ns) = run.tracer.time("scenarios.run", || scenarios::run(&base));
        let (tel, sink) = telemetry::Telemetry::memory();
        let with_mem = base.clone().with_telemetry(tel);
        let (_, mem_ns) =
            run.tracer.time("scenarios.run+memory_sink", || scenarios::run(&with_mem));
        out.layer("telemetry.memory_sink_ratio", mem_ns as f64 / plain_ns as f64);
        out.layer("telemetry.records_per_interval", sink.len() as f64 / intervals as f64);
        drop(sink);
        let path = crate::out_dir().join("telemetry-paper_b16.jsonl");
        std::fs::create_dir_all(crate::out_dir()).expect("benchmark output directory");
        let tel =
            telemetry::Telemetry::jsonl_file(&path).expect("jsonl sink in the output directory");
        let with_jsonl = base.clone().with_telemetry(tel);
        let (_, jsonl_ns) =
            run.tracer.time("scenarios.run+jsonl_sink", || scenarios::run(&with_jsonl));
        out.layer("telemetry.jsonl_sink_ratio", jsonl_ns as f64 / plain_ns as f64);
        let _ = std::fs::remove_file(&path);

        probes::event_queue(run, &mut out);
        probes::oracle_1k(run, &mut out);
    }
    out
}
