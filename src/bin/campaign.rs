//! Deterministic evaluation campaign over the scenario zoo (DESIGN.md §13).
//!
//! ```text
//! cargo run --release --bin campaign -- --smoke [--seed-index N] [--out DIR]
//! cargo run --release --bin campaign -- --full  [--seed-index N] [--out DIR]
//! ```
//!
//! Expands the scenario matrix from the seed-index, runs every cell, checks
//! the pass/fail gates, and writes `campaign.json` / `campaign.md` plus one
//! JSON artifact per run under `--out` (default `target/campaign/<profile>`).
//! The artifacts are byte-identical across reruns with the same seed-index.
//!
//! Exit codes: `0` all gates passed (skips allowed, each with a logged
//! reason), `1` malformed arguments (usage printed) or unwritable artifacts,
//! `2` at least one gate failed, `3` coverage-cap audit failure — the
//! profile truncated the matrix without recording it in the artifact (a
//! `SILENT-CAP` line on stderr says which). The exit code is the signal.

use scenarios::campaign::{self, CampaignSpec, GateStatus, Profile};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut profile = Profile::Smoke;
    let mut seed_index = 1u64;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => profile = Profile::Smoke,
            "--full" => profile = Profile::Full,
            "--seed-index" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed_index = v,
                None => return usage("--seed-index needs a u64 value"),
            },
            "--out" => match args.next() {
                Some(dir) => out = Some(PathBuf::from(dir)),
                None => return usage("--out needs a path"),
            },
            other => return usage(&format!("unknown argument: {other}")),
        }
    }
    let out = out.unwrap_or_else(|| PathBuf::from("target/campaign").join(profile.label()));

    let spec = CampaignSpec::new("zoo", seed_index, profile);
    let report = campaign::run_campaign(&spec);

    // Coverage-cap audit: every cap the profile applies must be recorded
    // in the artifact. A mismatch means some truncation went unlogged.
    let expected = campaign::expected_caps(&spec);
    if report.coverage_caps.len() != expected {
        eprintln!(
            "SILENT-CAP: profile {} applied {expected} coverage caps but recorded {}",
            profile.label(),
            report.coverage_caps.len()
        );
        return ExitCode::from(3);
    }
    for cap in &report.coverage_caps {
        println!("coverage-cap: {cap}");
    }

    match report.write_artifacts(&out) {
        Ok(paths) => {
            for p in &paths {
                println!("wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("failed to write artifacts under {}: {e}", out.display());
            return ExitCode::from(1);
        }
    }

    println!(
        "campaign `{}` ({}) seed-index {}: {} runs, {} gates passed, {} failed, {} skipped",
        report.name,
        profile.label(),
        seed_index,
        report.runs.len(),
        report.gates_passed(),
        report.gates_failed(),
        report.gates_skipped(),
    );
    for r in &report.runs {
        for g in &r.gates {
            if g.status != GateStatus::Pass {
                println!(
                    "  {} :: {} -> {}{}",
                    r.id,
                    g.name,
                    match g.status {
                        GateStatus::Fail => "FAIL",
                        _ => "skipped",
                    },
                    if g.reason.is_empty() { String::new() } else { format!(" ({})", g.reason) },
                );
            }
        }
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        eprintln!("gate failure: {} gate(s) violated their bound", report.gates_failed());
        ExitCode::from(2)
    }
}

/// Report a malformed command line: the problem, the usage line, exit 1.
fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!("usage: campaign [--smoke|--full] [--seed-index N] [--out DIR]");
    ExitCode::from(1)
}
