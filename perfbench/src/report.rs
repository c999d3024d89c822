//! The metric tables (the single source `BENCHMARK.json` is generated
//! from) and the result a run prints.

use crate::stats;
use crate::trace::Tracer;
use crate::workloads::Outcome;

/// `(name, unit, better, bound)`. Every workload reports every one of
/// these with tracing off. What a *step* and a *work unit* are is the
/// workload's own (see `perfbench/README.md`); the three timings are at
/// nominal machine speed (see [`crate::calib`]).
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("step_p50_ms", "ms", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
];

/// `(workload, why)`.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_b16",
        "The paper's own run (Topology B, 16 sessions, VBR P=3, 1200 sim-s) via scenarios::run: the netsim event loop on a cache-resident world; controller ticks are negligible.",
    ),
    (
        "ctl_10k",
        "One Controller (plus warm standby) steering 10,000 receivers on a fanout-10 depth-4 tree: the controller shell around the kernels is the tick; netsim does a 10k-way fan-out between ticks.",
    ),
    (
        "fed_10x32k",
        "Federation::run_interval over 10 domains x 32,768 receivers, closed loop: stage kernels, incremental driver, border JSON, parent fold; no netsim and no Controller, so shell work must not move it.",
    ),
    (
        "fedpkt_40k",
        "ShardedSim over 4 domains x 10,000 sinks at 200 pps: netsim beyond cache size on all cores (barrier epochs, mailboxes, shard imbalance, graft cost in set-up); bypasses toposense.",
    ),
];

/// `(name, unit, better)`: single-layer numbers from the traced run. A
/// metric a workload does not exercise reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let fixed: [(&str, &str, &str); 50] = [
        ("bench.step_samples", "count", "higher"),
        ("bench.raw_step_p50_ms", "ms", "lower"),
        ("bench.speed_factor", "ratio", "lower"),
        ("bench.step_tail_pct", "%", "higher"),
        ("bench.step_tail_ms", "ms", "lower"),
        ("bench.traced_step_p50_ms", "ms", "lower"),
        ("bench.spans", "count", "lower"),
        ("bench.driver_self_share", "ratio", "lower"),
        ("sim.mean_rel_deviation", "ratio", "lower"),
        ("netsim.loop_ns_per_event", "ns", "lower"),
        ("netsim.events_per_step", "count", "lower"),
        ("netsim.queue_ns_per_op", "ns", "lower"),
        ("netsim.build_ns_per_node.11k", "ns", "lower"),
        ("netsim.build_ns_per_node.111k", "ns", "lower"),
        ("netsim.graft_ns_per_join.10k", "ns", "lower"),
        ("netsim.graft_ns_per_join.100k", "ns", "lower"),
        ("netsim.shard_event_imbalance", "ratio", "lower"),
        ("topology.view_capture_ms", "ms", "lower"),
        ("topology.view_clone_ms", "ms", "lower"),
        ("topology.session_tree_build_ms", "ms", "lower"),
        ("topology.routing_eq_ms", "ms", "lower"),
        ("topology.discovery_record_query_ms", "ms", "lower"),
        ("toposense.algorithm_incremental_ms.1pct", "ms", "lower"),
        ("toposense.algorithm_incremental_ms.10pct", "ms", "lower"),
        ("toposense.algorithm_incremental_ms.100pct", "ms", "lower"),
        ("toposense.algorithm_full_ms", "ms", "lower"),
        ("toposense.stage1_us", "us", "lower"),
        ("toposense.stage2_us", "us", "lower"),
        ("toposense.stage3_us", "us", "lower"),
        ("toposense.stage4_us", "us", "lower"),
        ("toposense.stage5_us", "us", "lower"),
        ("toposense.border_codec_us", "us", "lower"),
        ("toposense.federation_setup_ms_per_domain", "ms", "lower"),
        ("toposense.tick_p50_ms", "ms", "lower"),
        ("toposense.shell_unattributed_ms", "ms", "lower"),
        ("toposense.tick_to_kernel_ratio", "ratio", "lower"),
        ("toposense.replicate_overhead_ms", "ms", "lower"),
        ("toposense.slots_recomputed_per_tick", "count", "lower"),
        ("toposense.full_fallbacks", "count", "lower"),
        ("toposense.suggestions_per_tick", "count", "higher"),
        ("toposense.suggestions_delivered_share", "ratio", "higher"),
        ("telemetry.memory_sink_ratio", "ratio", "lower"),
        ("telemetry.jsonl_sink_ratio", "ratio", "lower"),
        ("telemetry.records_per_interval", "count", "lower"),
        ("scenarios.setup_ms", "ms", "lower"),
        ("scenarios.run_ms", "ms", "lower"),
        ("scenarios.harvest_ms", "ms", "lower"),
        ("baselines.oracle_ms_1k", "ms", "lower"),
        ("netsim.between_tick_ms", "ms", "lower"),
        ("netsim.workers", "count", "higher"),
    ];
    let mut table: Vec<(String, &'static str, &'static str)> =
        fixed.iter().map(|&(n, u, b)| (n.to_string(), u, b)).collect();
    for (counter, _) in netsim::SimProfile::default().counter_entries() {
        table.push((format!("netsim.profile.{counter}"), "count", "lower"));
    }
    table
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let values = [
        stats::median(&out.setups_s),
        stats::median(&out.steps_ms),
        stats::median(&out.work_per_s),
        out.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), value)| Metric { name: name.to_string(), unit, value })
        .collect()
}

/// The per-layer metrics of a traced run: what the workload measured, the
/// benchmark's own span accounting, and 0 for layers it does not exercise.
pub fn layers(out: &mut Outcome, tracer: &Tracer) -> Vec<Metric> {
    let (pct, tail_ms) = stats::tail(&out.steps_ms);
    out.layer("bench.step_samples", out.steps_ms.len() as f64);
    out.layer("bench.step_tail_pct", pct as f64);
    out.layer("bench.step_tail_ms", tail_ms);
    out.layer("bench.traced_step_p50_ms", stats::median(&out.steps_ms));
    out.layer("bench.raw_step_p50_ms", stats::median(&out.raw_steps_ms));
    let factors: Vec<f64> =
        out.raw_steps_ms.iter().zip(&out.steps_ms).map(|(r, s)| r / s).collect();
    out.layer("bench.speed_factor", stats::median(&factors));
    out.layer("bench.spans", tracer.spans().len() as f64);
    if let Some(&(_, total, own)) = tracer.totals().get("step") {
        out.layer("bench.driver_self_share", own as f64 / total as f64);
    }
    out.layer("netsim.workers", out.workers as f64);

    let table = per_layer();
    for (name, _) in &out.layers {
        assert!(table.iter().any(|(n, _, _)| n == name), "metric {name} is not in the table");
    }
    table
        .into_iter()
        .map(|(name, unit, _)| {
            let value = out.layer_value(&name).unwrap_or(0.0);
            Metric { name, unit, value }
        })
        .collect()
}

/// The last line of a run: exactly `correct`, `attempted`, `failed` and
/// `metrics`, values with all their digits.
pub fn result_line(out: &Outcome, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, v, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0 && finite,
        out.checks.attempted.max(1),
        out.checks.failed + u64::from(!finite),
        body.join(", ")
    )
}

/// Whether a per-layer metric must read the same on every run of one
/// seed: the counts, except the benchmark's own (which depend on how many
/// steps fit the time box).
pub fn repeats_exactly(name: &str, unit: &str) -> bool {
    unit == "count" && !name.starts_with("bench.")
}

/// `BENCHMARK.json`, generated so the file and the binary cannot drift.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--bin",
        "perf",
        "--",
    ];
    let mut s = String::from("{\n");
    s += &format!("  \"command\": [{}],\n", command.map(|c| format!("\"{c}\"")).join(", "));
    s += "  \"paths\": [\"perfbench\"],\n";
    s += &format!("  \"run_seconds\": {},\n", crate::RUN_SECONDS);
    s += "  \"workloads\": [\n";
    s += &WORKLOADS
        .map(|(n, why)| format!("    {{\"name\": \"{n}\", \"why\": \"{why}\"}}"))
        .join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    s += &END_TO_END
        .map(|(n, u, b, bound)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\", \"bound\": {bound}}}")
        })
        .join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    s += &per_layer()
        .iter()
        .map(|(n, u, b)| {
            format!("    {{\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"}}")
        })
        .collect::<Vec<_>>()
        .join(",\n");
    s += "\n  ]\n}\n";
    s
}
