//! `perf` — the repo's one performance benchmark (see `BENCHMARK.json` and
//! `perfbench/README.md`).
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale smoke]
//! perf all    [--seed n] [--seconds s] [--trace] [--scale smoke]
//! perf repeat [--sets n] [--seconds s] [--scale smoke]
//! perf spec
//! ```
//!
//! The first form is one measured run in this process and is what the
//! benchmark driver calls; its last stdout line is the JSON result. `all`
//! and `repeat` spawn that form once per workload and run, so peak memory
//! is per workload. `spec` prints `BENCHMARK.json`.

mod calib;
mod multi;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use workloads::Scale;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 20;

/// Where a traced run leaves its span file and the JSONL-sink scratch
/// file: next to the executable, so always inside the build directory of
/// the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    exe.parent().expect("an executable lives in a directory").join("perf-out")
}

/// Flags shared by every form.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub sets: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        // `--trace` alone means on; `--trace 0|1` is the driver's form.
        if flag == "--trace" && !matches!(it.clone().next().map(String::as_str), Some("0" | "1")) {
            a.trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = Some(value.clone()),
            "--seed" => {
                a.seed = value.parse().map_err(|_| format!("--seed: not a u64: {value}"))?
            }
            "--seconds" => {
                a.seconds =
                    value.parse().map_err(|_| format!("--seconds: not a number: {value}"))?
            }
            "--trace" => a.trace = value == "1",
            "--sets" => {
                a.sets = value.parse().map_err(|_| format!("--sets: not a count: {value}"))?
            }
            "--scale" => {
                a.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(format!("--scale: full or smoke, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if a.sets == 0 {
        return Err("--sets must be at least 1".into());
    }
    Ok(a)
}

/// One measured run of one workload in this process.
fn run_one(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let mut tracer = trace::Tracer::new(args.trace);
    let mut run = workloads::Run {
        seed: args.seed,
        seconds: args.seconds,
        scale: args.scale,
        tracer: &mut tracer,
        calib: calib::Calibrator::new(),
    };
    let mut out = workloads::run(name, &mut run)
        .ok_or_else(|| format!("unknown workload {name}; one of {:?}", workloads::NAMES))?;
    let metrics =
        if args.trace { report::layers(&mut out, &tracer) } else { report::end_to_end(&out) };

    println!("workload {name} seed {} seconds {} trace {}", args.seed, args.seconds, args.trace);
    println!("workers {}", out.workers);
    println!("sim_digest {:016x}", out.sim_digest);
    println!(
        "samples setups={} steps={} checks={} failed={}",
        out.setups_s.len(),
        out.steps_ms.len(),
        out.checks.attempted,
        out.checks.failed
    );
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("raw_step_p50_ms {} ms (wall time, not calibrated)", stats::median(&out.raw_steps_ms));
    if args.trace {
        println!("span totals (count, total ms, self ms):");
        for (span, (count, total, own)) in tracer.totals() {
            println!("  {span} {count} {:.3} {:.3}", total as f64 / 1e6, own as f64 / 1e6);
        }
        let path = out_dir().join(format!("trace-{name}.jsonl"));
        tracer.write_jsonl(&path, name).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    println!("{}", report::result_line(&out, &metrics));
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (form, rest) = match argv.first().map(String::as_str) {
        Some(f @ ("all" | "repeat" | "spec")) => (f, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let result = if form == "spec" {
        if rest.is_empty() {
            print!("{}", report::benchmark_json());
            Ok(())
        } else {
            Err("spec takes no flags".to_string())
        }
    } else {
        parse(rest).and_then(|args| match form {
            "all" => multi::all(&args),
            "repeat" => multi::repeat(&args),
            _ => run_one(&args),
        })
    };
    if let Err(e) = result {
        eprintln!("perf: {e}");
        std::process::exit(2);
    }
}
