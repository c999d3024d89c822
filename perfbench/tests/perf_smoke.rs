//! Runs every workload at `--scale smoke` (seconds in total) and holds the
//! output to the benchmark contract: `BENCHMARK.json` is what `perf spec`
//! prints, and every metric it names is printed exactly once per workload
//! with a finite value.

use serde_json::Value;
use std::process::Command;

const PERF: &str = env!("CARGO_BIN_EXE_perf");

fn perf(args: &[&str]) -> String {
    let out = Command::new(PERF).args(args).output().expect("spawn perf");
    assert!(out.status.success(), "perf {args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn benchmark_json() -> (String, Value) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    (text, value)
}

fn entries<'a>(spec: &'a Value, key: &str) -> Vec<&'a Value> {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .collect()
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("{key} is a string in {v:?}"))
}

fn name_ok(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_is_generated_and_within_the_contract() {
    let (text, spec) = benchmark_json();
    assert_eq!(text, perf(&["spec"]), "regenerate with `perf spec > BENCHMARK.json`");
    let seconds = spec.get("run_seconds").and_then(Value::as_u64).expect("run_seconds");
    assert!((1..=60).contains(&seconds));
    assert!(text.len() <= 64 * 1024);

    let keys: Vec<&str> = spec.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);
    assert_eq!(entries(&spec, "paths").len(), 1);
    assert_eq!(entries(&spec, "paths")[0].as_str(), Some("perfbench"));
    let command = entries(&spec, "command");
    assert!(
        command.len() <= 32 && command.iter().all(|c| c.as_str().is_some_and(|s| s.len() <= 200))
    );

    let mut names = Vec::new();
    let workloads = entries(&spec, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in &workloads {
        assert_eq!(w.as_object().unwrap().len(), 2);
        let why = str_of(w, "why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {} is too long",
            str_of(w, "name")
        );
        names.push(str_of(w, "name"));
    }
    let end_to_end = entries(&spec, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in &end_to_end {
        assert_eq!(m.as_object().unwrap().len(), 4);
        let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25);
        names.push(str_of(m, "name"));
    }
    let setup = end_to_end.iter().find(|m| str_of(m, "name") == "setup_s").expect("setup_s");
    assert_eq!((str_of(setup, "unit"), str_of(setup, "better")), ("s", "lower"));
    let per_layer = entries(&spec, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in &per_layer {
        assert_eq!(m.as_object().unwrap().len(), 3);
        names.push(str_of(m, "name"));
    }
    for m in end_to_end.iter().chain(&per_layer) {
        assert!(unit_ok(str_of(m, "unit")), "unit of {}", str_of(m, "name"));
        assert!(matches!(str_of(m, "better"), "lower" | "higher"));
    }
    for n in &names {
        assert!(name_ok(n), "name {n}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
}

/// This package sits outside the repo's workspace, so it states the release
/// profile itself; it must be the one the repo ships with.
#[test]
fn release_profile_is_the_repos() {
    let profile = |manifest: &str| {
        let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
        let section = text.split("[profile.release]").nth(1).expect("a [profile.release] section");
        let mut settings: Vec<String> = section
            .lines()
            .take_while(|l| !l.starts_with('['))
            .filter(|l| l.contains('='))
            .map(|l| l.replace(' ', ""))
            .collect();
        settings.sort();
        settings
    };
    assert_eq!(
        profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")),
        profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml")),
    );
}

/// The result line of one smoke run of `seconds`, checked against the
/// metric list `key` of `BENCHMARK.json`; returns `(name, unit, value)`.
fn check_run(
    spec: &Value,
    workload: &str,
    trace: &str,
    key: &str,
    seconds: &str,
) -> Vec<(String, String, f64)> {
    let stdout = perf(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        seconds,
        "--trace",
        trace,
        "--scale",
        "smoke",
    ]);
    let line = stdout.trim_end().lines().last().expect("a result line");
    let result = serde_json::from_str(line).expect("the last line is JSON");
    let keys: Vec<&str> = result.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true), "{workload}: {stdout}");
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));

    let printed = result.get("metrics").and_then(Value::as_object).expect("metrics object");
    let wanted = entries(spec, key);
    assert_eq!(printed.len(), wanted.len(), "{workload} trace {trace}: metric count");
    let mut values = Vec::new();
    for m in wanted {
        let name = str_of(m, "name");
        let hits: Vec<&Value> = printed.iter().filter(|(k, _)| k == name).map(|(_, v)| v).collect();
        assert_eq!(hits.len(), 1, "{workload}: {name} printed {} times", hits.len());
        assert_eq!(str_of(hits[0], "unit"), str_of(m, "unit"), "{workload}: unit of {name}");
        let value = hits[0].get("value").and_then(Value::as_f64).expect("numeric value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        values.push((name.to_string(), str_of(m, "unit").to_string(), value));
    }
    values
}

#[test]
fn every_workload_prints_every_metric_once() {
    let (_, spec) = benchmark_json();
    for w in entries(&spec, "workloads") {
        let workload = str_of(w, "name");
        for (name, _, value) in check_run(&spec, workload, "0", "end_to_end", "0.3") {
            assert!(value > 0.0, "{workload}: end-to-end metric {name} must never be 0");
        }
        let layers = check_run(&spec, workload, "1", "per_layer", "0.3");
        let get = |n: &str| layers.iter().find(|(k, ..)| k == n).unwrap().2;
        assert!(get("bench.step_samples") >= 1.0);
        // Each workload stresses the layer it was chosen for: the control-
        // plane-only workload runs no simulator, the packet ones do.
        let events = get("netsim.events_per_step");
        assert_eq!(events == 0.0, workload == "fed_10x32k", "{workload}: {events} events/step");
        // Counts are read over a fixed number of steps, so a longer time
        // box (more steps) must not move them; the benchmark's own do.
        let longer = check_run(&spec, workload, "1", "per_layer", "0.9");
        for ((name, unit, value), (_, _, again)) in layers.iter().zip(&longer) {
            if unit == "count" && !name.starts_with("bench.") {
                assert_eq!(value, again, "{workload}: count {name} depends on the time box");
            }
        }
    }
}

#[test]
fn same_seed_same_digest_and_unknown_workloads_are_refused() {
    let digest = |seed: &str| {
        let out = perf(&[
            "--workload",
            "ctl_10k",
            "--seed",
            seed,
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--scale",
            "smoke",
        ]);
        out.lines().find_map(|l| l.strip_prefix("sim_digest ").map(str::to_string)).expect("digest")
    };
    assert_eq!(digest("3"), digest("3"));
    assert_ne!(digest("3"), digest("4"));

    let out = Command::new(PERF).args(["--workload", "nope", "--seed", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "a refused run prints no result");
}
