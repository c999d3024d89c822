//! Campaign harness regression tests (DESIGN.md §13).
//!
//! The smoke campaign must (a) finish fast, (b) produce byte-identical
//! artifacts across two runs with the same seed-index, (c) cover all four
//! zoo workloads with at least one gate each, (d) carry every figure of
//! the paper as a gated `paper/<id>` cell with its table and its coverage
//! cap, and (e) actually *fail* gates when handed a deliberately broken
//! configuration — a gate that cannot fail is not a gate.

use scenarios::campaign::{
    cells, expected_caps, run_campaign, CampaignReport, CampaignSpec, GateStatus, Profile,
};
use scenarios::chaos;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Every figure id the campaign must carry, in the paper's order.
const FIGURES: [&str; 14] = [
    "table1",
    "fig1",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "convergence",
    "ablation-interval",
    "ablation-leave-latency",
    "ablation-granularity",
    "ablation-queue",
    "ablation-control-traffic",
    "ablation-estimator",
];

/// The healthy seed-index-1 smoke campaign, run once for every test that
/// only reads it.
fn smoke_report() -> &'static CampaignReport {
    static REPORT: OnceLock<CampaignReport> = OnceLock::new();
    REPORT.get_or_init(|| run_campaign(&CampaignSpec::new("zoo", 1, Profile::Smoke)))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("toposense-campaign-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// Read every artifact under `dir` into (relative path, bytes), sorted.
fn artifact_bytes(dir: &PathBuf) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).expect("readable artifact dir") {
            let p = entry.expect("dir entry").path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let rel = p.strip_prefix(dir).expect("under root").display().to_string();
                out.push((rel, fs::read(&p).expect("readable artifact")));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn smoke_campaign_is_deterministic_and_covers_the_zoo() {
    let spec = CampaignSpec::new("zoo", 1, Profile::Smoke);
    let report_a = smoke_report();
    let report_b = run_campaign(&spec);

    // Every zoo workload is represented and every run carries gates.
    let workloads: BTreeSet<&str> = report_a.runs.iter().map(|r| r.workload.as_str()).collect();
    for w in [
        "flash-crowd",
        "diurnal-churn",
        "het-lastmile",
        "mixed-sessions",
        "primary-crash-mid-interval",
        "federation",
        "federation-packet",
        "paper",
    ] {
        assert!(workloads.contains(w), "workload {w} missing from campaign");
    }
    for r in &report_a.runs {
        assert!(!r.gates.is_empty(), "run {} has no gates", r.id);
    }

    // The healthy smoke campaign passes; skips are allowed but must carry
    // a reason.
    assert!(report_a.passed(), "healthy smoke campaign failed gates");
    // The failover workload's gates are hard measurements — a skip there
    // would mean the standby never replicated or never took over.
    for r in report_a.runs.iter().filter(|r| r.workload == "primary-crash-mid-interval") {
        for g in &r.gates {
            assert_eq!(
                g.status,
                GateStatus::Pass,
                "failover gate {} on {} did not pass: {}",
                g.name,
                r.id,
                g.reason
            );
        }
    }
    for r in &report_a.runs {
        for g in &r.gates {
            if g.status == GateStatus::Skipped {
                assert!(
                    g.reason.contains("skipped"),
                    "skipped gate {} on {} has no reason",
                    g.name,
                    r.id
                );
            }
        }
    }

    // Smoke truncates the matrix, and every truncation is on the record:
    // as many caps as the binary's independent count expects.
    assert_eq!(
        report_a.coverage_caps.len(),
        expected_caps(&spec),
        "a coverage cap went unrecorded"
    );

    // Every figure of the paper is a cell, once per seed, with its gates,
    // a well-formed table, and (table1 runs no scenario to shrink) its cap.
    for fig in FIGURES {
        let id = format!("paper/{fig}/s0");
        let cells: Vec<_> = report_a.runs.iter().filter(|r| r.id == id).collect();
        assert_eq!(cells.len(), 1, "{id} must appear exactly once");
        let cell = cells[0];
        assert_eq!(cell.workload, "paper");
        assert!(!cell.gates.is_empty(), "{id} has no gates");
        let table = cell.table.as_ref().unwrap_or_else(|| panic!("{id} has no table"));
        assert!(!table.caption.is_empty() && !table.rows.is_empty(), "{id} has an empty table");
        for row in &table.rows {
            assert_eq!(row.len(), table.header.len(), "{id}: ragged row {row:?}");
        }
        let capped = report_a.coverage_caps.iter().any(|c| c.starts_with(&format!("{fig}: ")));
        assert_eq!(capped, fig != "table1", "{id}: coverage cap");
    }
    let paper_cells = report_a.runs.iter().filter(|r| r.workload == "paper").count();
    assert_eq!(paper_cells, FIGURES.len(), "a paper cell is not in the figure list");

    // Byte-identical artifacts across two same-seed-index runs.
    let dir_a = scratch_dir("a");
    let dir_b = scratch_dir("b");
    report_a.write_artifacts(&dir_a).expect("write artifacts A");
    report_b.write_artifacts(&dir_b).expect("write artifacts B");
    let md = fs::read_to_string(dir_a.join("campaign.md")).expect("campaign.md written");
    for fig in FIGURES {
        assert!(md.contains(&format!("### paper/{fig}/s0\n")), "campaign.md lacks a {fig} section");
    }
    let bytes_a = artifact_bytes(&dir_a);
    let bytes_b = artifact_bytes(&dir_b);
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a.len(), bytes_b.len(), "artifact sets differ");
    for ((name_a, a), (name_b, b)) in bytes_a.iter().zip(&bytes_b) {
        assert_eq!(name_a, name_b);
        assert_eq!(a, b, "artifact {name_a} differs between same-seed runs");
    }
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn the_cell_list_is_the_committed_run_table_and_the_caps_follow_the_rule() {
    // The cell list is a pure construction, so this runs nothing: the
    // full-profile cells at seed-index 1 are the runs of the committed
    // `results/campaign.md`, in its order (artifacts depend on that order).
    let ids: Vec<String> =
        cells(&CampaignSpec::new("zoo", 1, Profile::Full)).into_iter().map(|c| c.id).collect();
    let md = fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/campaign.md"))
        .expect("committed results/campaign.md");
    let mut committed: Vec<&str> = md
        .lines()
        .skip_while(|l| *l != "## Runs")
        .take_while(|l| *l != "## Figures")
        .filter_map(|l| l.strip_prefix("| ")?.split(" | ").next())
        .filter(|run| run.contains('/'))
        .collect();
    committed.dedup();
    assert_eq!(ids, committed);

    // `expected_caps` states a rule; the caps the cells carry obey it.
    for profile in [Profile::Smoke, Profile::Full] {
        let spec = CampaignSpec::new("zoo", 1, profile);
        let carried: BTreeSet<String> = cells(&spec).into_iter().filter_map(|c| c.cap).collect();
        assert_eq!(expected_caps(&spec), carried.len(), "{profile:?}");
    }
}

#[test]
fn different_seed_index_changes_the_matrix_seeds() {
    let r1 = smoke_report();
    let r2 = run_campaign(&CampaignSpec::new("zoo", 2, Profile::Smoke));
    let seeds1: Vec<u64> = r1.runs.iter().map(|r| r.seed).collect();
    let seeds2: Vec<u64> = r2.runs.iter().map(|r| r.seed).collect();
    assert_eq!(seeds1.len(), seeds2.len());
    assert_ne!(seeds1, seeds2, "seed-index must re-derive every cell seed");
}

#[test]
fn broken_config_fails_gates() {
    // Blind the controller to loss and re-enable aggressive capacity
    // creep: lossy intervals count as clean, estimates inflate 200 % per
    // interval, and congestion is never classified — receivers get pushed
    // to the top layer and stay there, so the deviation gates must catch
    // it.
    let broken = toposense::Config {
        capacity_creep: 2.0,
        capacity_loss_threshold: 1.0,
        p_threshold: 0.98,
        high_loss: 0.98,
        very_high_loss: 0.99,
        unilateral_drop_loss: 10.0,
        ..chaos::chaos_config()
    };
    let spec = CampaignSpec::new("zoo-broken", 1, Profile::Smoke).with_config_override(broken);
    let report = run_campaign(&spec);
    assert!(!report.passed(), "campaign with capacity_creep = 2.0 must fail at least one gate");
    assert!(report.gates_failed() >= 1);
    // The failure is reported with a concrete reason, not silently.
    let failed: Vec<_> = report
        .runs
        .iter()
        .flat_map(|r| r.gates.iter().map(move |g| (r, g)))
        .filter(|(_, g)| g.status == GateStatus::Fail)
        .collect();
    for (r, g) in &failed {
        assert!(!g.reason.is_empty(), "failed gate {} on {} lacks a reason", g.name, r.id);
    }
    // The override reaches the paper's figures too, and their gates notice.
    assert!(
        failed.iter().any(|(r, _)| r.workload == "paper"),
        "no paper/ gate failed under the broken config"
    );
    // Every red cell leaves a black box, and one rule decides what is in it:
    // the flight window of the run when exactly one simulator ran behind the
    // cell, the failed-gate count when it drove itself or compared several.
    let red: BTreeSet<&str> = failed.iter().map(|(r, _)| r.id.as_str()).collect();
    let boxed: BTreeSet<&str> = report.blackboxes.iter().map(|(id, _)| id.as_str()).collect();
    assert_eq!(red, boxed);
    let simulators: BTreeMap<String, usize> =
        cells(&spec).into_iter().map(|c| (c.id, c.scenarios.len())).collect();
    let (mut flight_windows, mut red_figures) = (0, 0);
    for (id, bb) in &report.blackboxes {
        if simulators[id] == 1 {
            assert!(!bb.occurrences.is_empty(), "{id}: no flight window");
            assert!(bb.t_ns > 0 && bb.counters.len() > 1, "{id}: no profile counters");
            flight_windows += 1;
        } else {
            assert!(bb.occurrences.is_empty(), "{id}: whose flight window?");
            assert_eq!(bb.counters.len(), 1, "{id}");
            assert!(bb.counters[0].0 == "gates_failed" && bb.counters[0].1 >= 1, "{id}");
            red_figures += id.starts_with("paper/") as usize;
        }
    }
    assert!(flight_windows >= 1, "no red one-scenario cell under the broken config");
    assert!(red_figures >= 1, "no red multi-scenario figure under the broken config");
}

/// A malformed command line prints the usage line and exits 1, like an
/// unknown argument does, instead of panicking.
#[test]
fn malformed_arguments_print_usage_and_exit_1() {
    for args in [&["--seed-index"][..], &["--seed-index", "abc"], &["--out"]] {
        let run = std::process::Command::new(env!("CARGO_BIN_EXE_campaign")).args(args).output();
        let run = run.expect("campaign starts");
        assert_eq!(run.status.code(), Some(1), "{args:?}");
        assert!(String::from_utf8_lossy(&run.stderr).contains("usage: campaign"), "{args:?}");
    }
}
