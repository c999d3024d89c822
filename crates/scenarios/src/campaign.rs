//! Deterministic evaluation campaigns (DESIGN.md §13).
//!
//! A campaign turns the paper's claims — layer-subscription convergence,
//! bounded deviation from the optimum, fair sharing among sessions, and
//! bounded recovery after faults — into machine-checked pass/fail gates
//! over a fixed **scenario matrix**: workload × topology × traffic ×
//! fault plan × config, expanded deterministically from a single
//! *seed-index*. Two invocations with the same seed-index produce
//! byte-identical artifacts (the campaign smoke test and CI both pin
//! this), so a campaign run is a regression fingerprint for the whole
//! system, not a one-off measurement.
//!
//! The matrix is a list of [`Cell`]s and a cell is the only unit there is:
//! an id, its axes, a cap, the scenarios it needs run and a judge that turns
//! their results into metrics, table rows and gates. [`cells`] lists them —
//! the zoo workloads below, then the paper's figures ([`crate::paper`]) —
//! and [`run_campaign`] maps [`run_cell`] over them in parallel: each cell
//! runs its own scenarios, judges them and keeps only its record, so its
//! results are gone before the map returns. A cell with no scenario
//! (`flash-crowd`, `diurnal-churn`, both federations, `paper/table1`) drives
//! what it measures inside its judge. The **zoo** workloads:
//!
//! * `flash-crowd` — the whole audience joins inside one control
//!   interval (100k receivers in the full profile) and the pipeline must
//!   cover and stabilize them within a bounded number of intervals;
//! * `diurnal-churn` — report churn follows a deterministic day curve
//!   ([`largetree::diurnal_fraction`]) and the change-driven pipeline
//!   must track it (incremental rounds dominate; midday recomputes more
//!   slots than night);
//! * `het-lastmile` — every bottleneck sits on a leaf access link
//!   ([`largetree::heterogeneous_lastmile`]) and each capacity class
//!   must converge near its own fitting level, also under fault cells;
//! * `mixed-sessions` — a TopoSense CBR foreground shares a bottleneck
//!   with RLM-controlled VBR background sessions and must keep the
//!   session byte shares fair;
//! * `primary-crash-mid-interval` — the primary controller dies between
//!   ticks and the replicated standby must take over within
//!   `failover_after + interval` and steer within one interval of the
//!   takeover (the zero-re-learning bound, DESIGN.md §14);
//! * `federation` — the multi-domain control plane (DESIGN.md §16): ten
//!   sharded domains behind heterogeneous border links run their pipelines
//!   in parallel, the parent aggregator folds their border summaries, and
//!   the caps it hands back must converge every domain to its own border
//!   fit without any control interval overrunning the 2 s budget;
//! * `federation-packet` — the same federated world driven end-to-end at
//!   the *packet* level through the sharded simulator (DESIGN.md §17):
//!   1M receivers in the full profile, one calendar wheel per domain
//!   shard, conservative barrier epochs; every domain must deliver media,
//!   handoffs must flow, the SoA multicast invariants must audit clean,
//!   and the cell must fit its wall budget.
//!
//! Every cell yields a [`RunRecord`] (its own JSON artifact) and the
//! campaign aggregates them into one JSON + one markdown report; a cell
//! with a red gate also leaves a black box (the flight window of its run if
//! exactly one simulator ran behind it, a minimal dump otherwise).
//! **Coverage caps are never silent**: whenever a profile shrinks a cell
//! the cap rides on the cell and is recorded, once, in the artifact's
//! `coverage_caps` list; the binary cross-checks the list against
//! [`expected_caps`]' rule and screams `SILENT-CAP` — a CI failure — if
//! anything was dropped unrecorded.

use crate::chaos::{self, FaultAxis};
use crate::largetree::{
    self, balanced_session_tree, churn_fraction, registry_for_leaves, reports_for_leaves,
};
use crate::paper;
use crate::runner::{self, ControlMode, Scenario, ScenarioResult};
use metrics::{jain_index, max_min_ratio};
use netsim::{derive_stream_seed, DirLinkId, SimDuration, SimTime};
use serde_json::{json, Value};
use topology::generators;
use toposense::algorithm::{AlgorithmInputs, AlgorithmState};
use traffic::{LayerSpec, TrafficModel};

// ------------------------------------------------------------------ gates

/// Outcome of one gate check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GateStatus {
    Pass,
    Fail,
    /// The gate's metric was undefined on this run (e.g. mean relative
    /// deviation over zero receivers). Skips are explicit and carry a
    /// reason — a skipped gate is visible in the artifact, never folded
    /// into a pass.
    Skipped,
}

/// One pass/fail gate: a named metric compared against a threshold.
#[derive(Clone, Debug)]
pub struct Gate {
    pub name: String,
    pub status: GateStatus,
    /// The measured value (absent when skipped).
    pub value: Option<f64>,
    /// The bound the value was held to.
    pub threshold: f64,
    /// Human-readable detail: why skipped, or what failed.
    pub reason: String,
}

impl Gate {
    /// Gate on `value <= threshold`.
    pub fn at_most(name: &str, value: Option<f64>, threshold: f64, skip_reason: &str) -> Gate {
        Self::check(name, value, threshold, skip_reason, |v, t| v <= t, "<=")
    }

    /// Gate on `value >= threshold`.
    pub fn at_least(name: &str, value: Option<f64>, threshold: f64, skip_reason: &str) -> Gate {
        Self::check(name, value, threshold, skip_reason, |v, t| v >= t, ">=")
    }

    /// Gate on a check that yields no number (an audit, a wall-clock budget):
    /// `value` stays `None`, so nothing run-dependent reaches an artifact, and
    /// a failure carries the `Err` text as its reason.
    fn holds(name: &str, threshold: f64, outcome: Result<(), String>) -> Gate {
        Gate {
            name: name.into(),
            status: if outcome.is_ok() { GateStatus::Pass } else { GateStatus::Fail },
            value: None,
            threshold,
            reason: outcome.err().unwrap_or_default(),
        }
    }

    fn check(
        name: &str,
        value: Option<f64>,
        threshold: f64,
        skip_reason: &str,
        ok: impl Fn(f64, f64) -> bool,
        op: &str,
    ) -> Gate {
        match value {
            None => Gate {
                name: name.into(),
                status: GateStatus::Skipped,
                value: None,
                threshold,
                reason: format!("skipped: {skip_reason}"),
            },
            Some(v) if v.is_nan() => Gate {
                name: name.into(),
                status: GateStatus::Skipped,
                value: None,
                threshold,
                reason: format!("skipped: value is NaN ({skip_reason})"),
            },
            Some(v) => {
                let pass = ok(v, threshold);
                Gate {
                    name: name.into(),
                    status: if pass { GateStatus::Pass } else { GateStatus::Fail },
                    value: Some(v),
                    threshold,
                    reason: if pass {
                        String::new()
                    } else {
                        format!("{v:.6} violates {op} {threshold:.6}")
                    },
                }
            }
        }
    }

    fn to_json(&self) -> Value {
        json!({
            "name": self.name.as_str(),
            "status": match self.status {
                GateStatus::Pass => "pass",
                GateStatus::Fail => "fail",
                GateStatus::Skipped => "skipped",
            },
            "value": match self.value {
                Some(v) => Value::String(format!("{v:.6}")),
                None => Value::Null,
            },
            "threshold": format!("{:.6}", self.threshold),
            "reason": self.reason.as_str(),
        })
    }
}

// ------------------------------------------------------------------ records

/// The table a figure cell prints: the paper's sentence it answers, a column
/// header and string rows (one cell per header column).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    pub caption: String,
    pub header: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// The one text rendering: a markdown table with every column padded to
    /// its widest cell, so it reads aligned as plain text too.
    fn render(&self) -> String {
        let width = |c: usize| {
            let cells =
                std::iter::once(&self.header).chain(&self.rows).map(|r| r[c].chars().count());
            cells.max().unwrap_or(0).max(3)
        };
        let widths: Vec<usize> = (0..self.header.len()).map(width).collect();
        let line = |cells: &[String]| {
            let padded: Vec<String> =
                cells.iter().zip(&widths).map(|(c, &w)| format!("{c:<w$}")).collect();
            format!("| {} |\n", padded.join(" | "))
        };
        let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        std::iter::once(&self.header).chain([&rule]).chain(&self.rows).map(|r| line(r)).collect()
    }
}

/// What a cell's judge makes of its results.
pub struct Verdict {
    /// Workload-specific deterministic measurements.
    pub metrics: Vec<(String, String)>,
    /// The rows under the cell's table header (none without a table).
    pub rows: Vec<Vec<String>>,
    pub gates: Vec<Gate>,
}

/// One cell of the matrix — the campaign's only unit: a zoo workload at one
/// point of its axes, or one figure of the paper ([`crate::paper`]), at one
/// seed. [`run_cell`] runs `scenarios` and hands the results to `judge`; a
/// cell with no scenario drives whatever it measures inside its judge. `id`,
/// `workload`, `axes` and `seed` are the [`RunRecord`]'s.
pub struct Cell {
    pub id: String,
    pub workload: &'static str,
    pub axes: Vec<(String, String)>,
    pub seed: u64,
    /// The paper's sentence a figure answers and its column header.
    pub table: Option<(&'static str, Vec<String>)>,
    /// The config the cell runs under (a red cell's black box fingerprints it).
    pub cfg: toposense::Config,
    /// What the profile shrank relative to the paper's size.
    pub cap: Option<String>,
    pub scenarios: Vec<Scenario>,
    /// Results of `scenarios`, same order, to metrics, table rows and gates.
    pub judge: Reader,
}

/// What a cell's results are read into once its scenarios have run, on
/// whichever worker ran them: results arrive in the scenarios' order.
pub(crate) type Reader = Box<dyn Fn(&[ScenarioResult]) -> Verdict + Send>;

/// Everything one cell of the matrix produced.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Stable id: `workload/variant/s<seed-ordinal>`.
    pub id: String,
    pub workload: String,
    /// The matrix coordinates this cell was expanded from.
    pub axes: Vec<(String, String)>,
    /// The derived per-run seed.
    pub seed: u64,
    /// Workload-specific deterministic measurements.
    pub metrics: Vec<(String, String)>,
    pub gates: Vec<Gate>,
    /// The figure's table (`paper` cells only).
    pub table: Option<Table>,
}

impl RunRecord {
    pub fn failed(&self) -> bool {
        self.gates.iter().any(|g| g.status == GateStatus::Fail)
    }

    pub fn to_json(&self) -> Value {
        let axes: Vec<Value> = self
            .axes
            .iter()
            .map(|(k, v)| json!({"axis": k.as_str(), "value": v.as_str()}))
            .collect();
        let metrics: Vec<Value> = self
            .metrics
            .iter()
            .map(|(k, v)| json!({"name": k.as_str(), "value": v.as_str()}))
            .collect();
        let gates: Vec<Value> = self.gates.iter().map(Gate::to_json).collect();
        let mut record = json!({
            "id": self.id.as_str(),
            "workload": self.workload.as_str(),
            "seed": self.seed,
            "axes": Value::Array(axes),
            "metrics": Value::Array(metrics),
            "gates": Value::Array(gates),
        });
        if let (Some(t), Value::Object(fields)) = (&self.table, &mut record) {
            let table = json!({"caption": t.caption, "header": t.header, "rows": t.rows});
            fields.push(("table".to_string(), table));
        }
        record
    }
}

/// The whole campaign's outcome.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    pub name: String,
    pub seed_index: u64,
    pub profile: Profile,
    pub runs: Vec<RunRecord>,
    /// Every coverage cap the profile applied (scenario shrunk, seeds
    /// truncated, …). Recorded here *and* counted by the binary; a cap
    /// that was applied but not recorded is a `SILENT-CAP` CI failure.
    pub coverage_caps: Vec<String>,
    /// One black-box dump per failed run (`(run id, dump)`), built at
    /// judging time from the run's flight window and profile counters.
    /// [`CampaignReport::write_artifacts`] lands each one next to the
    /// run's JSON as `runs/<id>.blackbox.json`.
    pub blackboxes: Vec<(String, telemetry::Blackbox)>,
}

impl CampaignReport {
    pub fn gates_passed(&self) -> usize {
        self.gate_count(GateStatus::Pass)
    }
    pub fn gates_failed(&self) -> usize {
        self.gate_count(GateStatus::Fail)
    }
    pub fn gates_skipped(&self) -> usize {
        self.gate_count(GateStatus::Skipped)
    }
    fn gate_count(&self, s: GateStatus) -> usize {
        self.runs.iter().flat_map(|r| &r.gates).filter(|g| g.status == s).count()
    }

    /// Overall verdict: every gate of every run passed or was explicitly
    /// skipped.
    pub fn passed(&self) -> bool {
        self.gates_failed() == 0
    }

    /// The per-campaign JSON artifact (deterministic: no wall-clock, no
    /// dates — byte-identical across reruns with the same seed-index).
    pub fn to_json(&self) -> Value {
        let runs: Vec<Value> = self.runs.iter().map(RunRecord::to_json).collect();
        let caps: Vec<Value> =
            self.coverage_caps.iter().map(|c| Value::String(c.clone())).collect();
        json!({
            "campaign": self.name.as_str(),
            "seed_index": self.seed_index,
            "profile": self.profile.label(),
            "verdict": if self.passed() { "pass" } else { "fail" },
            "gates": json!({
                "passed": self.gates_passed() as u64,
                "failed": self.gates_failed() as u64,
                "skipped": self.gates_skipped() as u64,
            }),
            "coverage_caps": Value::Array(caps),
            "runs": Value::Array(runs),
        })
    }

    /// The per-campaign markdown artifact (same determinism contract).
    fn to_markdown(&self) -> String {
        use std::fmt::Write;
        let mut md = String::new();
        writeln!(md, "# Campaign `{}` — profile `{}`", self.name, self.profile.label()).unwrap();
        writeln!(md).unwrap();
        writeln!(
            md,
            "Seed-index {} · verdict **{}** · gates: {} passed, {} failed, {} skipped",
            self.seed_index,
            if self.passed() { "PASS" } else { "FAIL" },
            self.gates_passed(),
            self.gates_failed(),
            self.gates_skipped(),
        )
        .unwrap();
        if !self.coverage_caps.is_empty() {
            writeln!(md, "\n## Coverage caps\n").unwrap();
            for c in &self.coverage_caps {
                writeln!(md, "- coverage-cap: {c}").unwrap();
            }
        }
        writeln!(md, "\n## Runs\n").unwrap();
        writeln!(md, "| run | gate | value | threshold | status |").unwrap();
        writeln!(md, "|---|---|---|---|---|").unwrap();
        for r in &self.runs {
            for g in &r.gates {
                let status = match g.status {
                    GateStatus::Pass => "pass".to_string(),
                    GateStatus::Fail => format!("**FAIL** ({})", g.reason),
                    GateStatus::Skipped => format!("skipped ({})", g.reason),
                };
                writeln!(
                    md,
                    "| {} | {} | {} | {:.4} | {} |",
                    r.id,
                    g.name,
                    g.value.map(|v| format!("{v:.4}")).unwrap_or_else(|| "—".into()),
                    g.threshold,
                    status,
                )
                .unwrap();
            }
        }
        let figures: Vec<_> =
            self.runs.iter().filter_map(|r| r.table.as_ref().map(|t| (r, t))).collect();
        if !figures.is_empty() {
            writeln!(md, "\n## Figures").unwrap();
        }
        for (r, t) in figures {
            write!(md, "\n### {}\n\n{}\n\n{}", r.id, t.caption, t.render()).unwrap();
        }
        md
    }

    /// Write `campaign.json`, `campaign.md`, and one `runs/<id>.json` per
    /// run under `dir`. Returns the paths written, in deterministic order.
    pub fn write_artifacts(
        &self,
        dir: &std::path::Path,
    ) -> std::io::Result<Vec<std::path::PathBuf>> {
        let runs_dir = dir.join("runs");
        std::fs::create_dir_all(&runs_dir)?;
        let mut paths = Vec::new();
        let json_path = dir.join("campaign.json");
        let body = serde_json::to_string_pretty(&self.to_json()).expect("pure-value tree");
        std::fs::write(&json_path, body + "\n")?;
        paths.push(json_path);
        let md_path = dir.join("campaign.md");
        std::fs::write(&md_path, self.to_markdown())?;
        paths.push(md_path);
        for r in &self.runs {
            let p = runs_dir.join(format!("{}.json", r.id.replace('/', "_")));
            let body = serde_json::to_string_pretty(&r.to_json()).expect("pure-value tree");
            std::fs::write(&p, body + "\n")?;
            paths.push(p);
        }
        for (id, bb) in &self.blackboxes {
            let p = runs_dir.join(format!("{}.blackbox.json", id.replace('/', "_")));
            bb.write(&p)?;
            paths.push(p);
        }
        Ok(paths)
    }
}

// ------------------------------------------------------------------ spec

/// How hard to push: smoke is the ≤30 s CI profile, full is the paper-scale
/// overnight profile. Whatever smoke shrinks relative to full is recorded
/// as a coverage cap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    Smoke,
    Full,
}

impl Profile {
    pub fn label(&self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        }
    }
}

/// A campaign description: everything needed to expand and run the matrix.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    pub name: String,
    /// Master seed of the whole campaign; every cell's seed is derived
    /// from it via [`derive_stream_seed`] on (seed_index, workload, cell).
    pub seed_index: u64,
    pub profile: Profile,
    /// Seeds per matrix cell (smoke truncates to 1 and records the cap).
    pub seeds_per_cell: usize,
    /// Config override for every scenario-level cell — the hook the
    /// broken-config regression test uses to prove gates can fail.
    pub config_override: Option<toposense::Config>,
}

impl CampaignSpec {
    pub fn new(name: impl Into<String>, seed_index: u64, profile: Profile) -> Self {
        CampaignSpec {
            name: name.into(),
            seed_index,
            profile,
            seeds_per_cell: match profile {
                Profile::Smoke => 1,
                Profile::Full => 3,
            },
            config_override: None,
        }
    }

    pub fn with_config_override(mut self, cfg: toposense::Config) -> Self {
        self.config_override = Some(cfg);
        self
    }

    fn base_config(&self) -> toposense::Config {
        self.config_override.unwrap_or_else(chaos::chaos_config)
    }

    pub(crate) fn cell_seed(&self, workload: &str, cell: u64) -> u64 {
        derive_stream_seed(self.seed_index, workload, cell)
    }

    /// The `config` axis of every cell the override reaches.
    pub(crate) fn config_label(&self) -> &'static str {
        if self.config_override.is_some() {
            "override"
        } else {
            "default"
        }
    }

    /// The cells of a zoo workload that drives itself — the pipeline, or the
    /// sharded packet world: one per seed and no scenario to run, so the
    /// judge is the whole run (as `paper/table1`'s is).
    fn driven(
        &self,
        workload: &'static str,
        variant: &str,
        cap: Option<String>,
        axes: &[(&str, &str)],
        seeds: usize,
        drive: impl Fn(u64) -> Verdict + Clone + Send + 'static,
    ) -> Vec<Cell> {
        let cell = |s_ord: usize| {
            let seed = self.cell_seed(workload, s_ord as u64);
            let drive = drive.clone();
            Cell {
                id: format!("{workload}/{variant}/s{s_ord}"),
                workload,
                axes: axes.iter().map(|&(k, v)| (k.into(), v.into())).collect(),
                table: None,
                cfg: self.base_config(),
                cap: cap.clone(),
                seed,
                scenarios: Vec::new(),
                judge: Box::new(move |_| drive(seed)),
            }
        };
        (0..seeds).map(cell).collect()
    }
}

// ------------------------------------------------------------------ zoo

/// A wall-clock budget as a [`Gate::holds`] outcome. Wall-clock stays out of
/// the artifact (no value, static reason) so a rerun at the same seed is
/// byte-identical; only the pass/fail verdict reflects the measured time.
fn within(wall: std::time::Duration, budget_s: u64, overrun: &str) -> Result<(), String> {
    if wall <= std::time::Duration::from_secs(budget_s) {
        Ok(())
    } else {
        Err(overrun.into())
    }
}

/// Flash-crowd dimensions per profile.
#[derive(Clone, Copy)]
struct FlashParams {
    fanout: usize,
    depth: usize,
    core: usize,
    join_round: u64,
    rounds: u64,
    lossy_mod: usize,
}

fn flash_params(profile: Profile) -> (FlashParams, Option<String>) {
    match profile {
        Profile::Full => (
            // 10^5 leaves: the paper-scale 100k-joins-in-one-interval event.
            FlashParams {
                fanout: 10,
                depth: 5,
                core: 100,
                join_round: 4,
                rounds: 16,
                lossy_mod: 7,
            },
            None,
        ),
        Profile::Smoke => (
            FlashParams { fanout: 10, depth: 3, core: 10, join_round: 4, rounds: 12, lossy_mod: 7 },
            Some(
                "flash-crowd: smoke joins 1000 receivers instead of the full profile's 100000"
                    .to_string(),
            ),
        ),
    }
}

fn flash_crowd(spec: &CampaignSpec) -> Vec<Cell> {
    let ((p, cap), cfg) = (flash_params(spec.profile), spec.base_config());
    spec.driven(
        "flash-crowd",
        "join-in-one-interval",
        cap,
        &[("topology", "balanced"), ("traffic", "report-level"), ("fault", "none")],
        spec.seeds_per_cell,
        move |seed| run_flash_crowd(p, cfg, seed),
    )
}

/// Drive the five-stage pipeline through a flash crowd: a small overnight
/// core, then every leaf registered and reporting from `join_round` on.
fn run_flash_crowd(p: FlashParams, cfg: toposense::Config, seed: u64) -> Verdict {
    let (tree, leaves) = balanced_session_tree(0, p.fanout, p.depth);
    let layer_spec = LayerSpec::paper_default();
    let trees = [tree];
    let specs = [&layer_spec];
    let mut state = AlgorithmState::new(cfg, derive_stream_seed(seed, "campaign-flash", 0));
    let mut levels = vec![1u8; leaves.len()];
    let mut prev_suggestions: Vec<(u32, u8)> = Vec::new();
    let mut join_coverage: Option<f64> = None;
    let mut stabilized_after: Option<u64> = None;
    for round in 0..p.rounds {
        let (registry, mut reports) = largetree::flash_crowd_membership(
            0,
            &leaves,
            p.core,
            round,
            p.join_round,
            1,
            p.lossy_mod,
        );
        for (r, &lv) in reports.iter_mut().zip(&levels) {
            r.level = lv;
        }
        let inputs = AlgorithmInputs {
            now: SimTime::from_secs(2 * (round + 1)),
            interval: SimDuration::from_secs(2),
            trees: &trees,
            specs: &specs,
            registry: &registry,
            reports: &reports,
        };
        let out = state.run_incremental(&inputs);
        let suggestions: Vec<(u32, u8)> =
            out.suggestions.iter().map(|s| (s.receiver.0, s.level)).collect();
        for s in &out.suggestions {
            let i = (s.receiver.0 - 1000) as usize;
            levels[i] = s.level;
        }
        if round == p.join_round {
            join_coverage = Some(out.suggestions.len() as f64 / registry.len() as f64);
        }
        if round > p.join_round && stabilized_after.is_none() && suggestions == prev_suggestions {
            stabilized_after = Some(round - p.join_round);
        }
        prev_suggestions = suggestions;
    }
    let mean_level = levels.iter().map(|&l| l as f64).sum::<f64>() / levels.len() as f64;
    let gates = vec![
        Gate::at_least("join_coverage", join_coverage, 1.0, "join round never ran"),
        Gate::at_most(
            "stabilize_intervals",
            stabilized_after.map(|v| v as f64),
            (p.rounds - p.join_round) as f64 - 1.0,
            "suggestions never stabilized inside the run",
        ),
    ];
    let metrics = vec![
        ("joins".into(), format!("{}", leaves.len() - p.core)),
        ("mean_final_level".into(), format!("{mean_level:.4}")),
        (
            "stabilize_intervals".into(),
            stabilized_after.map(|v| v.to_string()).unwrap_or_else(|| "never".into()),
        ),
    ];
    Verdict { metrics, rows: Vec::new(), gates }
}

/// Diurnal-churn dimensions per profile.
#[derive(Clone, Copy)]
struct DiurnalParams {
    fanout: usize,
    depth: usize,
    period: u64,
    days: u64,
    low: f64,
    high: f64,
}

fn diurnal_params(profile: Profile) -> (DiurnalParams, Option<String>) {
    match profile {
        Profile::Full => (
            DiurnalParams { fanout: 10, depth: 4, period: 24, days: 4, low: 0.01, high: 0.5 },
            None,
        ),
        Profile::Smoke => (
            DiurnalParams { fanout: 10, depth: 3, period: 24, days: 2, low: 0.01, high: 0.5 },
            Some(
                "diurnal-churn: smoke runs 2 days over a 1k-leaf domain instead of 4 days over 10k"
                    .to_string(),
            ),
        ),
    }
}

fn diurnal_churn(spec: &CampaignSpec) -> Vec<Cell> {
    let ((p, cap), cfg) = (diurnal_params(spec.profile), spec.base_config());
    spec.driven(
        "diurnal-churn",
        "triangle-day",
        cap,
        &[("topology", "balanced"), ("traffic", "report-level churn"), ("fault", "none")],
        spec.seeds_per_cell,
        move |seed| run_diurnal(p, cfg, seed),
    )
}

/// Drive the change-driven pipeline through deterministic day/night report
/// churn and check it tracks the profile: incremental rounds dominate, and
/// midday dirties more slots than the dead of night.
fn run_diurnal(p: DiurnalParams, cfg: toposense::Config, seed: u64) -> Verdict {
    let (tree, leaves) = balanced_session_tree(0, p.fanout, p.depth);
    let layer_spec = LayerSpec::paper_default();
    let trees = [tree];
    let specs = [&layer_spec];
    let mut state = AlgorithmState::new(cfg, derive_stream_seed(seed, "campaign-diurnal", 0));
    let registry = registry_for_leaves(0, &leaves);
    let mut reports = reports_for_leaves(0, &leaves, 3, 11);
    let rounds = p.period * p.days;
    let mut incremental_rounds = 0u64;
    let mut night_slots = 0u64;
    let mut peak_slots = 0u64;
    for round in 0..rounds {
        let frac = largetree::diurnal_fraction(round, p.period, p.low, p.high);
        churn_fraction(&mut reports, frac, round);
        let inputs = AlgorithmInputs {
            now: SimTime::from_secs(2 * (round + 1)),
            interval: SimDuration::from_secs(2),
            trees: &trees,
            specs: &specs,
            registry: &registry,
            reports: &reports,
        };
        let out = state.run_incremental(&inputs);
        if out.incremental {
            incremental_rounds += 1;
        }
        // Sample the second day onward (the first interval starts cold).
        if round >= p.period {
            match round % p.period {
                0 => night_slots += out.slots_recomputed,
                r if r == p.period / 2 => peak_slots += out.slots_recomputed,
                _ => {}
            }
        }
    }
    let inc_fraction = incremental_rounds as f64 / rounds as f64;
    let peak_over_night =
        if night_slots == 0 { None } else { Some(peak_slots as f64 / night_slots as f64) };
    let gates = vec![
        Gate::at_least("incremental_fraction", Some(inc_fraction), 0.9, ""),
        Gate::at_least(
            "peak_over_night_slots",
            peak_over_night,
            2.0,
            "no night samples (run shorter than one day)",
        ),
    ];
    let metrics = vec![
        ("rounds".into(), rounds.to_string()),
        ("incremental_rounds".into(), incremental_rounds.to_string()),
        ("night_slots".into(), night_slots.to_string()),
        ("peak_slots".into(), peak_slots.to_string()),
    ];
    Verdict { metrics, rows: Vec::new(), gates }
}

/// Federation dimensions per profile.
#[derive(Clone, Copy)]
struct FederationParams {
    domains: usize,
    fanout: usize,
    depth: usize,
    rounds: u64,
}

fn federation_params(profile: Profile) -> (FederationParams, Option<String>) {
    match profile {
        Profile::Full => (
            // 10 domains x 10^4 leaves: the paper-scale 100k-receiver
            // federated world.
            FederationParams { domains: 10, fanout: 10, depth: 4, rounds: 16 },
            None,
        ),
        Profile::Smoke => (
            FederationParams { domains: 10, fanout: 10, depth: 2, rounds: 12 },
            Some(
                "federation: smoke federates 10 domains of 100 receivers instead of the full \
                 profile's 10x10000"
                    .to_string(),
            ),
        ),
    }
}

/// Per-domain border capacities cycle through these classes (kb/s);
/// fitting levels 2 / 4 / 5 under the paper layer spec.
const FEDERATION_GW_KBPS: [f64; 3] = [150.0, 600.0, 1200.0];

fn federation(spec: &CampaignSpec) -> Vec<Cell> {
    let ((p, cap), cfg) = (federation_params(spec.profile), spec.base_config());
    let axes = [
        ("topology", "federated balanced domains"),
        ("traffic", "report-level border oracle"),
        ("fault", "none"),
        ("control", "per-domain pipelines + parent aggregator"),
    ];
    let seeds = spec.seeds_per_cell;
    spec.driven("federation", "border-aggregation", cap, &axes, seeds, move |seed| {
        run_federation(p, cfg, seed)
    })
}

/// Drive the federated control plane (DESIGN.md §16) over a multi-domain
/// world: per-domain pipelines in parallel, border summaries folded by the
/// parent aggregator, caps handed back. Gates: every domain converges to
/// its own border fit, the caps land within one probe layer of the fits,
/// and no control interval overruns the paper's 2 s budget wall-clock.
fn run_federation(p: FederationParams, cfg: toposense::Config, seed: u64) -> Verdict {
    use toposense::federation::Federation;
    let layer_spec = LayerSpec::paper_default();
    let (domains, leaves) = largetree::federated_domains(p.domains, p.fanout, p.depth, cfg, seed);
    let receivers = p.domains * leaves.len();
    let mut fed = Federation::new(cfg, seed, domains, layer_spec.clone());
    let fits: Vec<u8> = (0..p.domains)
        .map(|d| {
            layer_spec.level_fitting(FEDERATION_GW_KBPS[d % FEDERATION_GW_KBPS.len()] * 1000.0)
        })
        .collect();
    let mut levels = vec![vec![1u8; leaves.len()]; p.domains];
    // Per-domain count of late rounds spent fully at the border fit, and
    // the worst wall-clock interval (gate only — never an artifact value,
    // so reruns stay byte-identical).
    let late_window = 5u64.min(p.rounds / 2);
    let mut settled = vec![0u64; p.domains];
    let mut worst_interval = std::time::Duration::ZERO;
    let mut final_caps: Vec<u8> = Vec::new();
    for round in 1..=p.rounds {
        let reports: Vec<Vec<toposense::algorithm::ReceiverReport>> = (0..p.domains)
            .map(|d| {
                largetree::reports_behind_border(
                    0,
                    &leaves,
                    &levels[d],
                    FEDERATION_GW_KBPS[d % FEDERATION_GW_KBPS.len()] * 1000.0,
                    &layer_spec,
                    SimDuration::from_secs(2),
                )
            })
            .collect();
        let started = std::time::Instant::now();
        let out =
            fed.run_interval(SimTime::from_secs(2 * round), SimDuration::from_secs(2), reports);
        worst_interval = worst_interval.max(started.elapsed());
        for d in 0..p.domains {
            for s in &out.domain_outputs[d].suggestions {
                levels[d][(s.receiver.0 - 1000) as usize] = s.level;
            }
            if round > p.rounds - late_window && levels[d].iter().all(|&l| l == fits[d]) {
                settled[d] += 1;
            }
        }
        final_caps = out.caps;
    }
    // A domain converged if most of the late window sat exactly at its
    // fit (capacity-creep probes one layer up are the paper's behavior).
    let converged = settled.iter().filter(|&&s| s * 2 > late_window).count();
    let convergence = converged as f64 / p.domains as f64;
    let cap_dev = final_caps
        .iter()
        .zip(&fits)
        .map(|(&c, &f)| (c as f64 - f as f64).abs())
        .fold(0.0f64, f64::max);
    let in_budget =
        within(worst_interval, 2, "a federated control interval overran the 2 s budget");
    let gates = vec![
        Gate::at_least("cross_domain_convergence", Some(convergence), 1.0, ""),
        Gate::at_most("border_cap_deviation", Some(cap_dev), 1.0, ""),
        Gate::holds("interval_wall_budget_2s", 2.0, in_budget),
    ];
    let metrics = vec![
        ("domains".into(), p.domains.to_string()),
        ("receivers".into(), receivers.to_string()),
        ("rounds".into(), p.rounds.to_string()),
        ("final_caps".into(), final_caps.iter().map(u8::to_string).collect::<Vec<_>>().join(",")),
    ];
    Verdict { metrics, rows: Vec::new(), gates }
}

/// Federation-packet dimensions per profile.
#[derive(Clone, Copy)]
struct FederationPacketParams {
    domains: usize,
    fanout: usize,
    depth: usize,
    rate_pps: u64,
    sim_millis: u64,
    wall_budget_s: u64,
}

fn federation_packet_params(profile: Profile) -> (FederationPacketParams, Option<String>) {
    match profile {
        Profile::Full => (
            // 10 domains x 10^5 leaves: the 1M-receiver packet-level world
            // (every leaf hosts a sink, sink_stride 1).
            FederationPacketParams {
                domains: 10,
                fanout: 10,
                depth: 5,
                rate_pps: 40,
                sim_millis: 1500,
                wall_budget_s: 300,
            },
            None,
        ),
        Profile::Smoke => (
            FederationPacketParams {
                domains: 3,
                fanout: 3,
                depth: 2,
                rate_pps: 100,
                sim_millis: 1000,
                wall_budget_s: 30,
            },
            Some(
                "federation-packet: smoke simulates 27 receivers instead of the full profile's \
                 1000000"
                    .to_string(),
            ),
        ),
    }
}

fn federation_packet(spec: &CampaignSpec) -> Vec<Cell> {
    let (p, cap) = federation_packet_params(spec.profile);
    let axes = [
        ("topology", "federated balanced domains"),
        ("traffic", "packet-level CBR media"),
        ("fault", "none"),
        ("control", "sharded wheels + conservative barriers"),
    ];
    // The world takes no randomness, so one cell covers the workload — more
    // seeds would be byte-identical reruns of a heavyweight world; the
    // derived seed is recorded for matrix-id stability only.
    spec.driven("federation-packet", "sharded-1m", cap, &axes, 1, move |_| run_federation_packet(p))
}

/// Drive the 1M-receiver federation workload end-to-end at the *packet*
/// level through [`netsim::ShardedSim`] (DESIGN.md §17): a core shard feeds
/// per-domain shards across handoff links, each domain runs its own
/// calendar wheel, and barrier epochs bounded by the handoff latency keep
/// the run bit-identical to a sequential wheel (pinned by the differential
/// suite). Gates: every domain delivers media, cross-shard handoffs
/// actually flowed, the SoA multicast invariants hold in every shard after
/// the run, and the whole cell fits its wall budget.
fn run_federation_packet(p: FederationPacketParams) -> Verdict {
    let params = largetree::FederationWorldParams {
        domains: p.domains,
        fanout: p.fanout,
        depth: p.depth,
        sink_stride: 1,
        rate_pps: p.rate_pps,
        handoff_delay: SimDuration::from_millis(20),
        backend: netsim::QueueBackend::CalendarWheel,
        trace_cap: 0,
    };
    let receivers = params.receivers();
    let started = std::time::Instant::now();
    let mut world = largetree::federated_media_sharded(params);
    world.sharded.run_until(SimTime::from_millis(p.sim_millis));
    let wall = started.elapsed();
    let delivering =
        world.delivered.iter().filter(|d| d.load(std::sync::atomic::Ordering::Relaxed) > 0).count();
    let delivered_total = world.delivered_total();
    let profile = world.sharded.profile();
    let audit = (1..world.sharded.shard_count())
        .map(|d| world.sharded.shard(d).network().multicast_audit())
        .collect::<Result<Vec<_>, _>>();
    let overrun = "the packet-level federation run overran its wall budget";
    let budget = format!("wall_budget_{}s", p.wall_budget_s);
    let gates = vec![
        Gate::at_least("domains_delivering", Some(delivering as f64 / p.domains as f64), 1.0, ""),
        Gate::at_least("cross_shard_handoffs", Some(profile.shard_handoffs as f64), 1.0, ""),
        Gate::holds("soa_multicast_invariants", 0.0, audit.map(drop).map_err(|e| e.to_string())),
        Gate::holds(&budget, p.wall_budget_s as f64, within(wall, p.wall_budget_s, overrun)),
    ];
    let metrics = vec![
        ("receivers".into(), receivers.to_string()),
        ("events".into(), world.sharded.events_processed().to_string()),
        ("media_delivered".into(), delivered_total.to_string()),
        ("cross_shard_handoffs".into(), profile.shard_handoffs.to_string()),
        ("barrier_epochs".into(), profile.shard_barrier_epochs.to_string()),
    ];
    Verdict { metrics, rows: Vec::new(), gates }
}

/// The measurements every scenario-backed zoo record starts with.
fn run_metrics(r: &ScenarioResult) -> Vec<(String, String)> {
    vec![
        ("events".into(), r.events.to_string()),
        ("total_drops".into(), r.total_drops.to_string()),
        ("control_bytes".into(), r.control_bytes.to_string()),
    ]
}

/// `het-lastmile`: heterogeneous last-mile domains crossed with the traffic
/// and fault axes, one scenario per cell.
fn het_lastmile(spec: &CampaignSpec) -> Vec<Cell> {
    let smoke = spec.profile == Profile::Smoke;
    let (fanout, depth, secs) = if smoke { (3, 2, 150) } else { (4, 3, 600) };
    let cap = smoke
        .then(|| "het-lastmile: smoke runs 9 receivers for 150 s instead of 64 for 600 s".into());
    let duration = SimDuration::from_secs(secs);
    let lastmile = [150.0, 600.0, 2500.0];
    let traffic_axis = [TrafficModel::Cbr, TrafficModel::Vbr { p: 3.0 }];
    // The root's second backbone link, over which a whole subtree hangs
    // (the first one added is the root's first backbone link).
    let fault_axis = [FaultAxis::None, FaultAxis::LinkFlap { link: (DirLinkId(2), DirLinkId(3)) }];
    let cfg = spec.base_config();
    let mut cells = Vec::new();
    let mut cell_no = 0u64;
    for traffic in traffic_axis {
        for fault in fault_axis {
            for s_ord in 0..spec.seeds_per_cell {
                let seed = spec.cell_seed("het-lastmile", cell_no);
                cell_no += 1;
                let topo = largetree::heterogeneous_lastmile(fanout, depth, &lastmile);
                let base =
                    Scenario::new(topo, traffic, seed).with_config(cfg).with_duration(duration);
                let (scenario, heal_at) = fault.apply(base);
                cells.push(Cell {
                    id: format!(
                        "het-lastmile/{}+{}+{}/s{s_ord}",
                        traffic.label().to_lowercase().replace(['(', ')', '='], ""),
                        fault.label(),
                        spec.config_label(),
                    ),
                    workload: "het-lastmile",
                    axes: vec![
                        ("topology".into(), format!("het-lastmile/{fanout}x{depth}")),
                        ("traffic".into(), traffic.label()),
                        ("fault".into(), fault.label()),
                        ("config".into(), spec.config_label().into()),
                    ],
                    table: None,
                    cfg,
                    cap: cap.clone(),
                    seed,
                    scenarios: vec![scenario],
                    judge: Box::new(move |rs| judge_lastmile(&rs[0], &cfg, heal_at)),
                });
            }
        }
    }
    cells
}

fn judge_lastmile(
    r: &ScenarioResult,
    cfg: &toposense::Config,
    heal_at: Option<SimTime>,
) -> Verdict {
    let end = SimTime::ZERO + r.duration;
    let half = SimTime::ZERO + r.duration / 2;
    let mut metrics = run_metrics(r);
    let dev = r.mean_relative_deviation(half, end);
    if let Some(d) = dev {
        metrics.push(("mean_relative_deviation".into(), format!("{d:.6}")));
    }
    let recovery = "recovery_within_10_intervals";
    let gates = vec![
        Gate::at_most(
            "mean_relative_deviation",
            dev,
            0.75,
            "undefined: no receiver had a positive optimum over the window",
        ),
        match heal_at {
            Some(heal) => Gate::holds(recovery, 10.0, chaos::verify_recovery(r, cfg, heal, 10)),
            None => Gate {
                name: recovery.into(),
                status: GateStatus::Skipped,
                value: None,
                threshold: 10.0,
                reason: "skipped: fault-free cell has nothing to recover from".into(),
            },
        },
    ];
    Verdict { metrics, rows: Vec::new(), gates }
}

/// `mixed-sessions`: a TopoSense CBR foreground against RLM-controlled VBR
/// backgrounds on Topology B's shared link.
fn mixed_sessions(spec: &CampaignSpec) -> Vec<Cell> {
    let smoke = spec.profile == Profile::Smoke;
    let (sessions, secs) = if smoke { (3, 150) } else { (4, 600) };
    let cap = smoke
        .then(|| "mixed-sessions: smoke runs 3 sessions for 150 s instead of 4 for 600 s".into());
    let duration = SimDuration::from_secs(secs);
    let cfg = spec.base_config();
    let cell = |s_ord: usize| {
        let seed = spec.cell_seed("mixed-sessions", s_ord as u64);
        let mut scenario =
            Scenario::new(generators::topology_b_default(sessions), TrafficModel::Cbr, seed)
                .with_config(cfg)
                .with_duration(duration);
        // Sessions 1.. are VBR background flows under receiver-driven RLM
        // control; session 0 stays the TopoSense CBR foreground.
        for bg in 1..sessions as u32 {
            scenario = scenario
                .with_session_control(bg, ControlMode::Rlm)
                .with_session_traffic(bg, TrafficModel::Vbr { p: 3.0 });
        }
        Cell {
            id: format!("mixed-sessions/cbr-vs-rlm-vbr/s{s_ord}"),
            workload: "mixed-sessions",
            axes: vec![
                ("topology".into(), format!("topology-b/{sessions}")),
                ("traffic".into(), "CBR foreground + VBR(P=3) background".into()),
                ("fault".into(), "none".into()),
                ("control".into(), "toposense + rlm background".into()),
            ],
            table: None,
            cfg,
            cap: cap.clone(),
            seed,
            scenarios: vec![scenario],
            judge: Box::new(|rs| judge_mixed(&rs[0])),
        }
    };
    (0..spec.seeds_per_cell).map(cell).collect()
}

fn judge_mixed(r: &ScenarioResult) -> Verdict {
    let end = SimTime::ZERO + r.duration;
    let half = SimTime::ZERO + r.duration / 2;
    let mut metrics = run_metrics(r);
    let bytes: Vec<f64> = r.session_bytes().iter().map(|&(_, b)| b as f64).collect();
    // An RLM/VBR background is *expected* to lose ground against the
    // controller-steered foreground, so the bound is a floor against
    // outright starvation, not the paper's same-system fairness claim. One
    // of n sessions taking everything scores Jain = 1/n; the floor sits 8 %
    // above that — 0.36 for smoke's three sessions (observed 0.42–0.49),
    // 0.27 for the full profile's four (0.324 / 0.345 / 0.275 on s0–s2).
    // Full s2 is genuinely starved (backgrounds at 1.08 layers, share ratio
    // 82); the share-ratio gate, which needs no scaling, is the one that
    // holds it red (EXPERIMENTS.md, divergence 4).
    let jain = if bytes.is_empty() { None } else { Some(jain_index(&bytes)) };
    let floor = 1.08 / bytes.len().max(1) as f64;
    let ratio = max_min_ratio(&bytes);
    let mut gates = vec![
        Gate::at_least("jain_fairness", jain, floor, "no session bytes recorded"),
        Gate::at_most("max_min_share_ratio", Some(ratio), 25.0, ""),
    ];
    // A failed share gate names who starved: per-session bytes and
    // whole-run mean levels (topology B hosts one receiver each).
    let levels: Vec<String> = r
        .receivers
        .iter()
        .map(|x| format!("s{} {:.2}", x.session, x.level_series().mean(SimTime::ZERO, end)))
        .collect();
    for g in gates.iter_mut().filter(|g| g.status == GateStatus::Fail) {
        g.reason += &format!("; session bytes {bytes:?}, mean levels [{}]", levels.join(", "));
    }
    let fg = r.receivers.iter().filter(|x| x.session == 0);
    let fg_dev =
        metrics::deviation::mean_relative_deviation(fg.map(|x| x.relative_deviation(half, end)));
    gates.push(Gate::at_most(
        "foreground_deviation",
        fg_dev,
        0.9,
        "undefined: foreground session has no receivers with a positive optimum",
    ));
    if let Some(j) = jain {
        metrics.push(("jain".into(), format!("{j:.6}")));
    }
    metrics.push(("max_min_ratio".into(), format!("{ratio:.6}")));
    Verdict { metrics, rows: Vec::new(), gates }
}

/// `primary-crash-mid-interval`: the primary dies mid-interval and the
/// input-synced standby must take over inside the heartbeat bound and resume
/// steering with zero re-learning (ISSUE 7 / DESIGN.md §14). The plan is
/// 150 s at either profile, so smoke caps nothing.
fn primary_crash(spec: &CampaignSpec) -> Vec<Cell> {
    let cfg = spec.base_config();
    let cell = |s_ord: usize| {
        let seed = spec.cell_seed("primary-crash-mid-interval", s_ord as u64);
        let (base, crash_at) = chaos::primary_crash_mid_interval(seed);
        Cell {
            id: format!("primary-crash-mid-interval/crash-41s/s{s_ord}"),
            workload: "primary-crash-mid-interval",
            axes: vec![
                ("topology".into(), "failover-a".into()),
                ("traffic".into(), "CBR".into()),
                ("fault".into(), "primary-crash@41s".into()),
                ("config".into(), spec.config_label().into()),
                ("control".into(), "toposense + replicated standby".into()),
            ],
            table: None,
            cfg,
            cap: None,
            seed,
            // Re-stamp the campaign config so the broken-config regression
            // hook reaches this workload too (a config with replication off
            // is *meant* to fail the replicated-batches gate).
            scenarios: vec![base.with_config(cfg)],
            judge: Box::new(move |rs| judge_failover(&rs[0], &cfg, crash_at)),
        }
    };
    (0..spec.seeds_per_cell).map(cell).collect()
}

fn judge_failover(r: &ScenarioResult, cfg: &toposense::Config, crash_at: SimTime) -> Verdict {
    let mut metrics = run_metrics(r);
    let interval = cfg.interval.as_secs_f64();
    let standby = r.standby.as_ref();
    // One-interval takeover bound: the standby must declare failover within
    // failover_after + one interval of the crash (heartbeat silence is only
    // observable at the next check).
    let takeover = standby.and_then(|s| s.failover_at).map(|t| t.since(crash_at).as_secs_f64());
    // Zero re-learning: the promoted standby's own first steering interval
    // lands within one control interval of the takeover — it resumes from
    // its replicated AlgorithmState instead of re-observing the domain from
    // scratch.
    let first_steer = standby
        .and_then(|s| Some(s.first_steer_at?.since(s.failover_at?).as_secs_f64() / interval));
    // The precondition for both bounds: the standby was an input-synced
    // twin before the crash (it applied replicated batches, so takeover
    // needs no warm-up).
    let applied = standby.map(|s| s.replica_applied as f64);
    let gates = vec![
        Gate::at_most(
            "takeover_seconds",
            takeover,
            cfg.failover_after().as_secs_f64() + interval,
            "standby never took over",
        ),
        Gate::at_most("first_steer_intervals", first_steer, 1.0, "promoted standby never steered"),
        Gate::at_least("replicated_batches", applied, 1.0, "no standby hosted"),
    ];
    if let Some(s) = standby {
        metrics.push(("replica_applied".into(), s.replica_applied.to_string()));
        metrics.push((
            "failover_at".into(),
            s.failover_at
                .map(|t| format!("{:.3}", t.as_secs_f64()))
                .unwrap_or_else(|| "never".into()),
        ));
        metrics.push(("standby_suggestions".into(), s.suggestions_sent.to_string()));
    }
    Verdict { metrics, rows: Vec::new(), gates }
}

// ------------------------------------------------------------------ runner

/// Every cell of the campaign, in artifact order: the zoo workloads, then
/// the paper's figures seed by seed. `runs`, `campaign.md`, the file list
/// and the coverage caps all follow this order, so it is part of the
/// byte-identical contract. Pure construction — nothing runs here.
pub fn cells(spec: &CampaignSpec) -> Vec<Cell> {
    let zoo = [
        flash_crowd,
        diurnal_churn,
        federation,
        federation_packet,
        het_lastmile,
        mixed_sessions,
        primary_crash,
    ];
    let mut cells: Vec<Cell> = zoo.iter().flat_map(|workload| workload(spec)).collect();
    for s_ord in 0..spec.seeds_per_cell {
        cells.extend(paper::figures(spec, s_ord));
    }
    cells
}

/// Expand and run the whole campaign: one parallel map of [`run_cell`] over
/// the cells, in artifact order. The returned report is a pure function of
/// `(spec.name, seed_index, profile, seeds_per_cell, config_override)` —
/// nothing wall-clock-dependent leaks in.
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    let cells = cells(spec);
    // One record per distinct cap: a workload's cells all carry the same one.
    let mut caps: Vec<String> = Vec::new();
    for cap in cells.iter().filter_map(|c| c.cap.as_ref()) {
        if !caps.contains(cap) {
            caps.push(cap.clone());
        }
    }
    let (runs, boxes): (Vec<RunRecord>, Vec<_>) =
        netsim::par::map(cells.into_iter(), run_cell).into_iter().unzip();
    let mut blackboxes: Vec<_> =
        boxes.into_iter().flatten().map(|bb| (bb.label.clone(), bb)).collect();
    blackboxes.sort_by(|a, b| a.0.cmp(&b.0));

    CampaignReport {
        name: spec.name.clone(),
        seed_index: spec.seed_index,
        profile: spec.profile,
        runs,
        coverage_caps: caps,
        blackboxes,
    }
}

/// One cell, start to end: run its scenarios ([`runner::run_many`]), judge
/// them, and keep only what outlives the results — the cell's record and,
/// on a red gate, its black box (labelled with the record's id). A cell run
/// alone here yields the record [`run_campaign`] makes of it.
pub fn run_cell(cell: Cell) -> (RunRecord, Option<telemetry::Blackbox>) {
    let results = runner::run_many(&cell.scenarios);
    let Verdict { metrics, rows, gates } = (cell.judge)(&results);
    let rec = RunRecord {
        id: cell.id,
        workload: cell.workload.into(),
        axes: cell.axes,
        seed: cell.seed,
        metrics,
        gates,
        table: cell.table.map(|(claim, header)| Table { caption: claim.into(), header, rows }),
    };
    // Every red gate leaves a black box. With exactly one simulator behind
    // the cell it holds that run's last moments — flight window, profile
    // counters, seed — so the gate report is actionable without a re-run; a
    // cell that drove itself or compared several runs has no single window
    // to show and gets the minimal dump.
    let reason = "campaign_gate_failure";
    let blackbox = rec.failed().then(|| match &results[..] {
        [run] => chaos::blackbox(run, &cell.cfg, cell.seed, reason, &rec.id),
        _ => telemetry::Blackbox {
            reason: reason.into(),
            label: rec.id.clone(),
            seed: rec.seed,
            config_fingerprint: format!("{:016x}", cell.cfg.fingerprint()),
            t_ns: 0,
            counters: vec![(
                "gates_failed".into(),
                rec.gates.iter().filter(|g| g.status == GateStatus::Fail).count() as u64,
            )],
            occurrences: Vec::new(),
            ring_dropped: 0,
        },
    });
    (rec, blackbox)
}

/// The number of caps the active profile must record — the binary audits
/// `coverage_caps` against this and reports `SILENT-CAP` on any mismatch,
/// so a profile that starts truncating without logging cannot slip through
/// CI. The rule, stated rather than read off the cells' caps: the full
/// profile is the paper's size and shrinks nothing; smoke shrinks every zoo
/// workload and every figure except the two that are the same size in both
/// profiles, and each shrink is one cap however many cells (variants, seeds)
/// it reaches.
pub fn expected_caps(spec: &CampaignSpec) -> usize {
    // The failover plan is 150 s either way and Table I runs no scenario.
    const NOTHING_TO_SHRINK: [&str; 2] = ["primary-crash-mid-interval", "paper/table1"];
    if spec.profile == Profile::Full {
        return 0;
    }
    let cells = cells(spec);
    // `het-lastmile/…` is one workload; `paper/fig6/…` is one figure.
    let shrinkable = cells.iter().map(|c| match c.workload {
        "paper" => c.id.rsplit_once('/').expect("ids end in /s<k>").0,
        zoo => zoo,
    });
    let shrunk: std::collections::BTreeSet<&str> =
        shrinkable.filter(|name| !NOTHING_TO_SHRINK.contains(name)).collect();
    shrunk.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_constructors_cover_the_three_states() {
        let pass = Gate::at_most("d", Some(0.3), 0.5, "");
        assert_eq!(pass.status, GateStatus::Pass);
        let fail = Gate::at_most("d", Some(0.8), 0.5, "");
        assert_eq!(fail.status, GateStatus::Fail);
        assert!(fail.reason.contains("violates"));
        let skip = Gate::at_most("d", None, 0.5, "no receivers");
        assert_eq!(skip.status, GateStatus::Skipped);
        assert!(skip.reason.contains("no receivers"));
        let nan = Gate::at_least("j", Some(f64::NAN), 0.5, "ctx");
        assert_eq!(nan.status, GateStatus::Skipped);
        // A check without a number: the value never reaches an artifact, a
        // pass is silent and a failure says what the check said.
        let held = Gate::holds("audit", 0.0, Ok(()));
        assert_eq!((held.status, held.value, held.reason.as_str()), (GateStatus::Pass, None, ""));
        let broke = Gate::holds("audit", 0.0, Err("slot 3 dangling".into()));
        assert_eq!((broke.status, broke.value), (GateStatus::Fail, None));
        assert_eq!(broke.reason, "slot 3 dangling");
    }

    #[test]
    fn report_json_counts_gates() {
        let report = CampaignReport {
            name: "t".into(),
            seed_index: 1,
            profile: Profile::Smoke,
            runs: vec![RunRecord {
                id: "w/v/s0".into(),
                workload: "w".into(),
                axes: vec![],
                seed: 9,
                metrics: vec![],
                gates: vec![
                    Gate::at_most("a", Some(0.1), 1.0, ""),
                    Gate::at_most("b", None, 1.0, "undefined"),
                ],
                table: None,
            }],
            coverage_caps: vec!["w: capped".into()],
            blackboxes: Vec::new(),
        };
        assert!(report.passed());
        assert_eq!(report.gates_passed(), 1);
        assert_eq!(report.gates_skipped(), 1);
        let j = serde_json::to_string(&report.to_json()).unwrap();
        assert!(j.contains("\"verdict\": \"pass\"") || j.contains("\"verdict\":\"pass\""));
        assert!(j.contains("capped"));
        let md = report.to_markdown();
        assert!(md.contains("coverage-cap: w: capped"));
        assert!(md.contains("| w/v/s0 | a |"));
    }

    #[test]
    fn table_columns_align_and_survive_the_json_round_trip() {
        let table = Table {
            caption: "claim".into(),
            header: vec!["traffic".into(), "x".into()],
            rows: vec![vec!["CBR".into(), "1".into()], vec!["VBR(P=3)".into(), "16".into()]],
        };
        let text = table.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                "| traffic  | x   |",
                "| -------- | --- |",
                "| CBR      | 1   |",
                "| VBR(P=3) | 16  |",
            ]
        );
        let record = RunRecord {
            id: "paper/figX/s0".into(),
            workload: "paper".into(),
            axes: vec![],
            seed: 9,
            metrics: vec![],
            gates: vec![],
            table: Some(table.clone()),
        };
        let text = serde_json::to_string_pretty(&record.to_json()).unwrap();
        let parsed = serde_json::from_str(&text).unwrap();
        let strings = |v: &Value| -> Vec<String> {
            v.as_array().unwrap().iter().map(|c| c.as_str().unwrap().to_string()).collect()
        };
        let t = parsed.get("table").expect("paper records carry their table");
        assert_eq!(t.get("caption").unwrap().as_str(), Some("claim"));
        assert_eq!(strings(t.get("header").unwrap()), table.header);
        let rows: Vec<Vec<String>> =
            t.get("rows").unwrap().as_array().unwrap().iter().map(strings).collect();
        assert_eq!(rows, table.rows);
        // A record without a table keeps the shape it always had.
        let plain = RunRecord { table: None, ..record };
        assert!(plain.to_json().get("table").is_none());
    }

    #[test]
    fn cell_seeds_differ_across_workloads_and_cells() {
        let spec = CampaignSpec::new("t", 7, Profile::Smoke);
        let a = spec.cell_seed("flash-crowd", 0);
        assert_eq!(a, spec.cell_seed("flash-crowd", 0));
        assert_ne!(a, spec.cell_seed("flash-crowd", 1));
        assert_ne!(a, spec.cell_seed("diurnal-churn", 0));
    }
}
