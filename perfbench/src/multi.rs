//! `perf all` and `perf repeat`: many single runs, each a child process of
//! this same executable so that peak memory is per workload and per run.

use crate::report::{per_layer, repeats_exactly, END_TO_END};
use crate::stats::{median, quartile_spread};
use crate::workloads::{Scale, NAMES};
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// One child run, parsed back from its result line.
struct Child {
    /// Everything the child printed before its result line.
    listing: String,
    sim_digest: String,
    /// The step median as measured, before calibration (wall ms).
    raw_step_p50_ms: f64,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn spawn(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", if args.scale == Scale::Smoke { "smoke" } else { "full" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload} seed {seed}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (listing, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{workload}: child printed no result line"))?;
    let v = serde_json::from_str(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let field = |k: &str| v.get(k).ok_or_else(|| format!("{workload}: result line lacks {k}"));
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?.as_object().ok_or("metrics is not an object")? {
        let value = m.get("value").and_then(|x| x.as_f64()).ok_or("metric without a value")?;
        metrics.insert(name.clone(), value);
    }
    let sim_digest =
        listing.lines().find_map(|l| l.strip_prefix("sim_digest ")).unwrap_or_default().to_string();
    let raw_step_p50_ms = listing
        .lines()
        .find_map(|l| l.strip_prefix("raw_step_p50_ms "))
        .and_then(|rest| rest.split(' ').next()?.parse().ok())
        .ok_or_else(|| format!("{workload}: child printed no raw_step_p50_ms"))?;
    Ok(Child {
        listing: listing.to_string(),
        sim_digest,
        raw_step_p50_ms,
        correct: field("correct")?.as_bool().unwrap_or(false),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// Every workload once, untraced; with `--trace` once more traced, with
/// the tracing overhead (traced ÷ untraced step median) per workload.
pub fn all(args: &Args) -> Result<(), String> {
    let mut failed = 0;
    for name in NAMES {
        let plain = spawn(args, name, args.seed, false)?;
        println!("== {name} (untraced) ==\n{}", plain.listing);
        failed += plain.failed + u64::from(!plain.correct);
        println!("ops_failed_share {}", plain.failed as f64 / plain.attempted.max(1) as f64);
        if args.trace {
            let traced = spawn(args, name, args.seed, true)?;
            println!("== {name} (traced) ==\n{}", traced.listing);
            failed += traced.failed + u64::from(!traced.correct);
            let untraced_ms = plain.metrics.get("step_p50_ms").copied().unwrap_or(f64::NAN);
            let traced_ms =
                traced.metrics.get("bench.traced_step_p50_ms").copied().unwrap_or(f64::NAN);
            println!(
                "tracing_overhead_ratio {} (traced step p50 / untraced)",
                traced_ms / untraced_ms
            );
            if traced.sim_digest != plain.sim_digest {
                return Err(format!("{name}: tracing changed sim_digest"));
            }
        }
    }
    if failed > 0 {
        return Err(format!("{failed} correctness checks failed"));
    }
    Ok(())
}

/// Untraced runs per set of `perf repeat`, as the benchmark contract has it.
const RUNS_PER_SET: u64 = 10;
/// Row of `perf repeat` for the uncalibrated step median.
const RAW_STEP: &str = "raw_step_p50_ms (wall, not judged)";

/// The acceptance procedure of the benchmark contract, on this machine:
/// `--sets` sets of [`RUNS_PER_SET`] untraced runs per workload, run `r` of
/// every set on seed `r`, and one traced run per set on seed 1. Within a
/// set, each end-to-end metric's quartile spread must stay inside its bound
/// (`setup_s` excepted); across sets, no median may be worse than the first
/// set's by more than the bound; and the same seed must give the same
/// `sim_digest` and the same per-layer counts in every set. The raw wall
/// step median is listed next to the calibrated one and is not judged.
pub fn repeat(args: &Args) -> Result<(), String> {
    let mut misses = Vec::new();
    for name in NAMES {
        // samples[set][metric] = one value per run
        let mut samples: Vec<BTreeMap<&str, Vec<f64>>> = Vec::new();
        // Per set: the digest of every run, and the traced run's counts.
        let mut set_digests: Vec<Vec<String>> = Vec::new();
        let mut set_counts: Vec<Vec<(String, f64)>> = Vec::new();
        for set in 0..args.sets {
            let mut by_metric: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            let mut digests = Vec::new();
            let mut raw_steps = Vec::new();
            for r in 1..=RUNS_PER_SET {
                let child = spawn(args, name, r, false)?;
                if !child.correct {
                    misses
                        .push(format!("{name} set {set} seed {r}: {} checks failed", child.failed));
                }
                for &(metric, ..) in &END_TO_END {
                    let value = child.metrics.get(metric).ok_or(format!("{name}: no {metric}"))?;
                    by_metric.entry(metric).or_default().push(*value);
                }
                digests.push(child.sim_digest);
                raw_steps.push(child.raw_step_p50_ms);
            }
            by_metric.insert(RAW_STEP, raw_steps);
            let traced = spawn(args, name, 1, true)?;
            digests.push(traced.sim_digest);
            let counts = per_layer()
                .into_iter()
                .filter(|(metric, unit, _)| repeats_exactly(metric, unit))
                .map(|(metric, ..)| {
                    let value = traced.metrics.get(&metric).copied().unwrap_or(f64::NAN);
                    (metric, value)
                })
                .collect();
            samples.push(by_metric);
            set_digests.push(digests);
            set_counts.push(counts);
        }
        for set in 1..args.sets {
            if set_digests[set] != set_digests[0] {
                misses.push(format!("{name} set {set}: sim_digest differs from set 0"));
            }
            for ((metric, value), (_, first)) in set_counts[set].iter().zip(&set_counts[0]) {
                if value.to_bits() != first.to_bits() {
                    misses.push(format!("{name} set {set}: {metric} {value} differs from {first}"));
                }
            }
        }
        println!("== {name}: {} sets x {RUNS_PER_SET} runs ==", args.sets);
        for &(metric, unit, better, bound) in &END_TO_END {
            let first = median(&samples[0][metric]);
            for (set, by_metric) in samples.iter().enumerate() {
                let values = &by_metric[metric];
                let (m, spread) = (median(values), quartile_spread(values));
                let worse = if better == "lower" { m / first - 1.0 } else { 1.0 - m / first };
                let spread_ok = metric == "setup_s" || spread <= bound;
                let steady = metric == "setup_s" || spread <= bound / 3.0;
                println!(
                    "{metric} set {set}: median {m:.6} {unit}  spread {:.2}% (bound {:.0}%{})  vs set 0 {:+.2}%",
                    spread * 100.0,
                    bound * 100.0,
                    if steady { "" } else { ", above a third of it" },
                    worse * 100.0,
                );
                println!(
                    "  runs: {}",
                    values.iter().map(|v| format!("{v:.6}")).collect::<Vec<_>>().join(" ")
                );
                if !spread_ok {
                    misses.push(format!(
                        "{name} {metric} set {set}: spread {:.1}% > bound",
                        spread * 100.0
                    ));
                }
                if worse > bound {
                    misses.push(format!(
                        "{name} {metric} set {set}: median {:.1}% worse than set 0",
                        worse * 100.0
                    ));
                }
            }
        }
        for (set, by_metric) in samples.iter().enumerate() {
            let values = &by_metric[RAW_STEP];
            println!(
                "{RAW_STEP} set {set}: median {:.6} ms  spread {:.2}%",
                median(values),
                quartile_spread(values) * 100.0
            );
        }
    }
    if misses.is_empty() {
        println!("repeat: every metric within its bound, digests and counts identical");
        Ok(())
    } else {
        Err(format!("repeat failed:\n  {}", misses.join("\n  ")))
    }
}
