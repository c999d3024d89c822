//! The paper's evaluation as campaign cells (DESIGN.md §13).
//!
//! Table I, Figs. 1 and 6–10, the §IV convergence claim and the §V open
//! questions ([`crate::ablations`]) are each described once as a campaign
//! [`Cell`] with a table: the paper's sentence it answers, its header, the
//! scenarios it needs at the profile's size, and a judge that turns their
//! results into table rows **and gates**.
//! [`crate::campaign::run_campaign`] runs and judges them like every other
//! cell and records each as a `paper/<id>/s<k>` run, so a claim that stops
//! holding is a failing gate, not a stale paragraph.
//!
//! Every threshold carries the values measured on seeds s0–s2 of
//! `campaign --full --seed-index 1` when it was set; the smoke profile
//! holds the same claims at smaller sizes, each shrink recorded as a
//! coverage cap.

use crate::ablations;
use crate::campaign::{CampaignSpec, Cell, Gate, Profile, Verdict};
use crate::runner::{ControlMode, ReceiverOutcome, Scenario, ScenarioResult};
use netsim::{SimDuration, SimTime};
use topology::{generators, TopoSpec};
use toposense::history::{BwEquality, CongestionHistory};
use toposense::{decision, Action, Config, NodeKind, SupplyWindow};
use traffic::TrafficModel;

/// Table rows and gates: what a figure's judge makes of its results.
type Judged = (Vec<Vec<String>>, Vec<Gate>);

/// Traffic models the paper sweeps: CBR, VBR(P=3), VBR(P=6).
fn paper_traffic_models() -> Vec<TrafficModel> {
    vec![TrafficModel::Cbr, TrafficModel::Vbr { p: 3.0 }, TrafficModel::Vbr { p: 6.0 }]
}

/// Settling time excluded from stability counting (startup climb).
pub(crate) const WARMUP: SimDuration = SimDuration(5_000_000_000);

/// Every `(x, y)` pair, `xs`-major.
fn cartesian<A: Copy, B: Copy>(xs: &[A], ys: &[B]) -> Vec<(A, B)> {
    xs.iter().flat_map(|&x| ys.iter().map(move |&y| (x, y))).collect()
}

/// Every figure (or table, or §V ablation) of the paper's evaluation at the
/// profile's size, in the paper's order, as the cells of seed ordinal
/// `s_ord`: ids `paper/<figure>/s<s_ord>` with `<figure>` one of `table1`,
/// `fig1`, `fig6` … `fig10`, `convergence`, `ablation-*`. They run under the
/// stock config unless the campaign overrides it.
pub fn figures(spec: &CampaignSpec, s_ord: usize) -> Vec<Cell> {
    let slot = |id, size, cap| Slot {
        id,
        run_id: format!("paper/{id}/s{s_ord}"),
        config_label: spec.config_label(),
        cfg: spec.config_override.unwrap_or_default(),
        seed: spec.cell_seed(&format!("paper/{id}"), s_ord as u64),
        size,
        cap,
    };
    let sized = |id, full: Size, smoke: Size| match spec.profile {
        Profile::Full => slot(id, full, None),
        Profile::Smoke => {
            slot(id, smoke, Some(format!("{id}: smoke runs {smoke} instead of {full}")))
        }
    };
    let fig10_full =
        Size { ages: &[0, 2, 4, 6, 8, 10, 12, 14, 16, 18], ..Size::new(1200, &[1, 2, 4, 8]) };
    vec![
        // Table I runs no scenario, so smoke shrinks nothing.
        table1(slot("table1", Size::secs(0), None)),
        fig1(sized("fig1", Size::secs(1200), Size::secs(600))),
        stability(
            sized("fig6", Size::new(1200, &[1, 2, 4, 6, 8]), Size::new(200, &[1, 2])),
            generators::topology_a_default,
            "receivers/set",
            "Fig. 6 (Topology A): \"the subscription level is fairly stable over time and can be \
             controlled using the back-off interval\", with \"high variability in the number of \
             changes … because of the random back-off interval\".",
            false,
        ),
        stability(
            sized("fig7", Size::new(1200, &[1, 2, 4, 8, 12, 16]), Size::new(400, &[2, 4])),
            generators::topology_b_default,
            "sessions",
            "Fig. 7 (Topology B): stable for up to 16 competing sessions; \"most of the changes \
             occur when the receivers explore available bandwidth by adding a new layer\", so \
             burstier traffic changes more.",
            true,
        ),
        fig8(sized("fig8", Size::new(1200, &[1, 2, 4, 8, 12, 16]), Size::new(240, &[4]))),
        fig9(sized("fig9", Size::secs(1200), Size::secs(900))),
        fig10(sized("fig10", fig10_full, Size { ages: &[0, 8], ..Size::new(200, &[1, 4]) })),
        convergence(sized("convergence", Size::secs(1200), Size::secs(400))),
        ablations::interval(sized(
            "ablation-interval",
            Size::new(900, &[1, 2, 4, 8]),
            Size::new(200, &[1, 8]),
        )),
        ablations::leave_latency(sized(
            "ablation-leave-latency",
            Size::new(900, &[100, 500, 1000, 2000, 4000]),
            Size::new(900, &[100, 500, 2000, 4000]),
        )),
        ablations::granularity(sized("ablation-granularity", Size::secs(900), Size::secs(200))),
        ablations::queue(sized("ablation-queue", Size::secs(900), Size::secs(200))),
        ablations::control_traffic(sized(
            "ablation-control-traffic",
            Size::new(900, &[1, 2, 4, 8]),
            Size::new(200, &[1, 2]),
        )),
        ablations::estimator(sized(
            "ablation-estimator",
            Size::new(900, &[2, 4, 8, 16]),
            Size::new(200, &[2, 4]),
        )),
    ]
}

/// How large a figure runs: simulated seconds per point and the values of
/// its swept axis (receivers per set, sessions, interval seconds, …).
#[derive(Clone, Copy)]
pub(crate) struct Size {
    pub secs: u64,
    pub xs: &'static [u64],
    /// Fig. 10's second axis: snapshot ages in seconds.
    pub ages: &'static [u64],
}

impl Size {
    pub(crate) fn new(secs: u64, xs: &'static [u64]) -> Size {
        Size { secs, xs, ages: &[] }
    }
    pub(crate) fn secs(secs: u64) -> Size {
        Size::new(secs, &[])
    }
    pub(crate) fn counts(&self) -> Vec<usize> {
        self.xs.iter().map(|&x| x as usize).collect()
    }
}

impl std::fmt::Display for Size {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} s", self.secs)?;
        if !self.xs.is_empty() {
            write!(f, " over {:?}", self.xs)?;
        }
        if !self.ages.is_empty() {
            write!(f, " x staleness {:?}", self.ages)?;
        }
        Ok(())
    }
}

/// Where one figure sits in the campaign: ids, config, seed and size.
pub(crate) struct Slot {
    pub id: &'static str,
    pub run_id: String,
    /// The `config` axis: `default`, or `override`.
    pub config_label: &'static str,
    pub cfg: Config,
    pub seed: u64,
    pub size: Size,
    pub cap: Option<String>,
}

impl Slot {
    pub(crate) fn duration(&self) -> SimDuration {
        SimDuration::from_secs(self.size.secs)
    }

    /// A scenario under this slot's seed, config and duration.
    pub(crate) fn scenario(&self, topo: TopoSpec, traffic: TrafficModel) -> Scenario {
        Scenario::new(topo, traffic, self.seed).with_config(self.cfg).with_duration(self.duration())
    }

    /// The campaign cell of the figure in this slot: `claim` is the paper's
    /// sentence it answers, `judge` turns the results of `scenarios` (same
    /// order) into the rows under `header` and the gates.
    pub(crate) fn figure<H: ToString>(
        self,
        claim: &'static str,
        header: &[H],
        scenarios: Vec<Scenario>,
        judge: impl Fn(&[ScenarioResult]) -> Judged + 'static,
    ) -> Cell {
        Cell {
            id: self.run_id,
            workload: "paper",
            axes: vec![
                ("figure".into(), self.id.into()),
                ("config".into(), self.config_label.into()),
            ],
            table: Some((claim, header.iter().map(H::to_string).collect())),
            cfg: self.cfg,
            cap: self.cap,
            seed: self.seed,
            scenarios,
            judge: Box::new(move |rs| {
                let (rows, gates) = judge(rs);
                let events = rs.iter().map(|r| r.events).sum::<u64>();
                let metrics = vec![
                    ("scenarios".into(), rs.len().to_string()),
                    ("events".into(), events.to_string()),
                ];
                Verdict { metrics, rows, gates }
            }),
        }
    }
}

pub(crate) fn f2(v: f64) -> String {
    format!("{v:.2}")
}

pub(crate) fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Plain mean; NaN when any value is (that point had no data).
pub(crate) fn mean(vals: &[f64]) -> f64 {
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// The extreme of `vals` — NaN if any point is NaN (it had no data) or there
/// are no points, so a gate built on it skips with its reason instead of
/// passing on the points that did have data.
fn extreme(vals: impl Iterator<Item = f64>, pick: fn(f64, f64) -> f64) -> f64 {
    let keep_nan = |m: f64, v: f64| if m.is_nan() || v.is_nan() { f64::NAN } else { pick(m, v) };
    vals.reduce(keep_nan).unwrap_or(f64::NAN)
}

pub(crate) fn max_of(vals: impl Iterator<Item = f64>) -> f64 {
    extreme(vals, f64::max)
}

pub(crate) fn min_of(vals: impl Iterator<Item = f64>) -> f64 {
    extreme(vals, f64::min)
}

/// Why a gate on a figure's rows skips: a NaN reached it, and the judges
/// produce NaN only for a point without data.
const NO_DATA: &str =
    "a point had no report window or no receiver with a positive optimum over the window";

pub(crate) fn at_most(name: &str, value: f64, bound: f64) -> Gate {
    Gate::at_most(name, Some(value), bound, NO_DATA)
}

pub(crate) fn at_least(name: &str, value: f64, bound: f64) -> Gate {
    Gate::at_least(name, Some(value), bound, NO_DATA)
}

/// Mean over receivers of the whole-run loss rate (NaN if any receiver has
/// no report window: the run is shorter than one report interval).
pub(crate) fn whole_run_loss(r: &ScenarioResult) -> f64 {
    let end = SimTime::ZERO + r.duration;
    let loss = |x: &ReceiverOutcome| x.mean_loss(SimTime::ZERO, end).unwrap_or(f64::NAN);
    mean(&r.receivers.iter().map(loss).collect::<Vec<_>>())
}

// ----------------------------------------------------------------- Table I

fn action_str(a: Action) -> String {
    let win = |w| match w {
        SupplyWindow::Older => "T0-Tn",
        SupplyWindow::Recent => "Tn-T2n",
    };
    match a {
        Action::AddLayer => "Add next layer, if not backing off".into(),
        Action::DropIfLossHigh => "If loss rate is high, drop layer, set backoff timer".into(),
        Action::Maintain => "Maintain Demand".into(),
        Action::ReduceToSupply(w) => format!("Reduce demand to supply in {}", win(w)),
        Action::ReduceToHalfSupply { window, backoff: true } => {
            format!("Reduce Demand to half the supply in {}; set backoff", win(window))
        }
        Action::ReduceToHalfSupply { window, backoff: false } => {
            format!("Reduce Demand to half the supply in {}", win(window))
        }
        Action::ReduceToHalfSupplyIfLossVeryHigh(w) => {
            format!("If loss is very high, reduce demand to half the supply in {}", win(w))
        }
        Action::AcceptChildren => "Accept all demands of the child nodes".into(),
    }
}

/// Table I as implemented: every `(node kind, BW equality, 3-bit congestion
/// history)` cell in the paper's row order (history bits: T0 at bit 2, T1
/// at bit 1, T2 at bit 0; CONGESTED = 1). `toposense::decision`'s unit
/// tests assert each row against the printed table; this regenerates it
/// for side-by-side comparison.
fn table1(slot: Slot) -> Cell {
    slot.figure(
        "Table I: the decision table for computing demand at each node at time T2.",
        &["kind", "history", "BW-eq", "action"],
        Vec::new(),
        |_| {
            let mut rows = Vec::new();
            let mut grow = 0;
            for kind in [NodeKind::Leaf, NodeKind::Internal] {
                for bw in [BwEquality::Lesser, BwEquality::Equal, BwEquality::Greater] {
                    for h in 0..8u8 {
                        let a = decision::decide(kind, CongestionHistory::from_bits(h), bw);
                        grow += (h == 0 && matches!(a, Action::AddLayer | Action::AcceptChildren))
                            as u8;
                        let kind = format!("{kind:?}");
                        rows.push(vec![kind, h.to_string(), format!("{bw:?}"), action_str(a)]);
                    }
                }
            }
            let gates = vec![
                at_least("decision_cells", rows.len() as f64, 48.0),
                // A node that was never congested explores: leaves add a layer,
                // internal nodes pass their children's demands up (6 cells).
                at_least("never_congested_cells_that_grow", grow as f64, 6.0),
            ];
            (rows, gates)
        },
    )
}

// ------------------------------------------------------------------ Fig. 1

/// The motivating example, quantified, under TopoSense and under the RLM
/// baseline: with topology-blind control the greedy receiver at n4 keeps
/// probing layer 3 and its loss spills onto the slow sibling at n3;
/// TopoSense confines it.
fn fig1(slot: Slot) -> Cell {
    let modes = [
        ("TopoSense", ControlMode::TopoSense { staleness: SimDuration::ZERO }),
        ("RLM", ControlMode::Rlm),
    ];
    let scenarios = modes
        .iter()
        .map(|&(_, mode)| {
            slot.scenario(generators::figure1(), TrafficModel::Cbr).with_control(mode)
        })
        .collect();
    slot.figure(
        "Fig. 1: a mechanism unaware that nodes 3 and 4 share a link \"may take incorrect \
         decisions to control losses at node 3\"; topology awareness must not cost the innocent \
         n3 loss, must give the greedy n4 its optimum, and leaves the disjoint n5 alone \
         (optima: n3 = 1 layer, n4 = 2, n5 = 4).",
        &["control", "n3 loss", "n3 mean lvl", "n4 mean lvl", "n5 mean lvl"],
        scenarios,
        move |rs| {
            // Per run, after a 30 s warm-up: n3's mean loss (`None` when the
            // run ends before the warm-up does) and the mean levels of n3,
            // n4 and n5 (receiver sets 0, 1, 2).
            let measure = |r: &ScenarioResult| {
                let (start, end) = (SimTime::from_secs(30), SimTime::ZERO + r.duration);
                let by_set = |set: u32| {
                    r.receivers.iter().find(|x| x.set == set).expect("figure1 has sets 0..3")
                };
                let levels = [0, 1, 2].map(|set| by_set(set).level_series().mean(start, end));
                (by_set(0).mean_loss(start, end), levels)
            };
            let measured = [measure(&rs[0]), measure(&rs[1])];
            let [(ts_loss, ts), (rlm_loss, rlm)] = measured;
            let gates = vec![
                // s0–s2: +0.003 / +0.003 / +0.008 (`tests/robustness.rs`
                // holds the same 0.03 on its own seed).
                Gate::at_most(
                    "innocent_n3_loss_over_rlm",
                    ts_loss.zip(rlm_loss).map(|(t, r)| t - r),
                    0.03,
                    "no report window after the 30 s warm-up",
                ),
                // s0–s2: +0.51 / +0.54 / +0.53 layers.
                at_least("greedy_n4_level_over_rlm", ts[1] - rlm[1], -0.1),
                // s0–s2: 4.04 / 3.19 / 3.40 of 4 layers.
                at_least("disjoint_n5_level", ts[2], 3.0),
            ];
            let table = modes.iter().zip(measured).map(|(&(name, _), (loss, levels))| {
                let mut row = vec![name.to_string(), loss.map_or("-".into(), f4)];
                row.extend(levels.map(f2));
                row
            });
            (table.collect(), gates)
        },
    )
}

// ---------------------------------------------------------------- Fig. 6/7

/// Figs. 6 and 7: one body, Topology A by receivers per set or Topology B
/// by competing sessions.
///
/// `burstier_changes_more` adds the VBR(P=6)-over-CBR gate. Fig. 7 carries
/// it; on Topology A the margin only shows in the five-size aggregate at
/// 1200 s (s0–s2: +95 / +70 / +84 of ~140 CBR changes) and single sizes
/// flip sign on 3 of 12 probe seeds even at 1200 s, so no smoke size can
/// hold it and Fig. 6 does not claim it.
fn stability(
    slot: Slot,
    topo: fn(usize) -> TopoSpec,
    x: &str,
    claim: &'static str,
    burstier_changes_more: bool,
) -> Cell {
    let opportunities = slot.size.secs as f64 / slot.cfg.interval.as_secs_f64();
    let points = cartesian(&slot.size.counts(), &paper_traffic_models());
    let scenarios = points.iter().map(|&(n, model)| slot.scenario(topo(n), model)).collect();
    slot.figure(claim, &["traffic", x, "max changes", "mean gap (s)"], scenarios, move |rs| {
        // Per point, after the warm-up: the most changes by any receiver,
        // and that receiver's mean seconds between changes.
        let rows: Vec<(usize, f64)> = rs
            .iter()
            .map(|r| r.stability(SimTime::ZERO + WARMUP, SimTime::ZERO + r.duration))
            .collect();
        let total = |model: TrafficModel| -> f64 {
            let of_model = points.iter().zip(&rows).filter(|((_, m), _)| *m == model);
            of_model.map(|(_, &(changes, _))| changes as f64).sum()
        };
        let mut gates = vec![
            // A stable system uses a fraction of its decision opportunities
            // (one per controller interval). s0–s2: Fig. 6 0.095 / 0.090 /
            // 0.080, Fig. 7 0.248 / 0.232 / 0.235 — the bound leaves Fig. 7's
            // 16-session VBR point 0.05.
            at_most(
                "changes_per_opportunity",
                max_of(rows.iter().map(|&(changes, _)| changes as f64)) / opportunities,
                0.30,
            ),
            // Stable spells, not flapping. s0–s2: Fig. 6 17.2 / 22.4 / 22.7 s,
            // Fig. 7 8.0 / 8.6 / 7.8 s.
            at_least("mean_gap_secs", min_of(rows.iter().map(|&(_, gap)| gap)), 5.0),
        ];
        if burstier_changes_more {
            // s0–s2: +258 / +269 / +283 of ~300 CBR changes.
            let margin = total(TrafficModel::Vbr { p: 6.0 }) - total(TrafficModel::Cbr);
            gates.push(at_least("vbr6_changes_over_cbr", margin, 1.0));
        }
        let table = points.iter().zip(&rows).map(|(&(n, model), &(changes, gap))| {
            vec![model.label(), n.to_string(), changes.to_string(), format!("{gap:.1}")]
        });
        (table.collect(), gates)
    })
}

// ------------------------------------------------------------------ Fig. 8

fn fig8(slot: Slot) -> Cell {
    let points = cartesian(&slot.size.counts(), &paper_traffic_models());
    let scenarios = points
        .iter()
        .map(|&(n, model)| slot.scenario(generators::topology_b_default(n), model))
        .collect();
    slot.figure(
        "Fig. 8 (Topology B, optimum 4 layers per session): \"a small relative deviation in both \
         these intervals indicates that TopoSense imposes fairness among competing sessions \
         irrespective of the time intervals\".",
        &["traffic", "sessions", "dev 1st half", "dev 2nd half", "jain"],
        scenarios,
        move |rs| {
            // Per point: the mean relative deviation over each half of the
            // run, and the Jain index over per-session received bytes.
            let rows: Vec<[f64; 3]> = rs
                .iter()
                .map(|r| {
                    let (half, end) = (SimTime::ZERO + r.duration / 2, SimTime::ZERO + r.duration);
                    let dev = |from, to| r.mean_relative_deviation(from, to).unwrap_or(f64::NAN);
                    let bytes: Vec<f64> =
                        r.session_bytes().iter().map(|&(_, b)| b as f64).collect();
                    [dev(SimTime::ZERO, half), dev(half, end), metrics::jain_index(&bytes)]
                })
                .collect();
            let gates = vec![
                // Fair "irrespective of the time interval": no point drifts
                // from its optimum in the second half. s0–s2: worst point
                // +0.084 / +0.050 / +0.042.
                at_most(
                    "second_half_deviation_growth",
                    max_of(rows.iter().map(|&[first, second, _]| second - first)),
                    0.15,
                ),
                // s0–s2: least fair point 0.81 / 0.90 / 0.88.
                at_least("jain_fairness", min_of(rows.iter().map(|&[.., jain]| jain)), 0.75),
            ];
            let table = points.iter().zip(&rows).map(|(&(n, model), row)| {
                let mut cells = vec![model.label(), n.to_string()];
                cells.extend(row.map(f4));
                cells
            });
            (table.collect(), gates)
        },
    )
}

// ------------------------------------------------------------------ Fig. 9

fn fig9(slot: Slot) -> Cell {
    let run = slot.scenario(generators::topology_b_default(4), TrafficModel::Vbr { p: 3.0 });
    slot.figure(
        "Fig. 9 (4 competing VBR(P=3) sessions): \"some of the sessions over-subscribe to layers \
         5 and 6 at several points in time … heavy losses on adding layer 6 allow TopoSense to \
         compute the link capacity and the system returns to a stable state\".",
        &["session", "mean level", "max level", "mean loss"],
        vec![run],
        |rs| {
            let end = SimTime::ZERO + rs[0].duration;
            let mut rows = Vec::new();
            let (mut oversubscribed, mut farthest) = (false, Vec::new());
            for rec in &rs[0].receivers {
                let mean_level = rec.level_series().mean(SimTime::ZERO, end);
                let max_level = rec.stats.level_series.iter().map(|&(_, l)| l).max().unwrap_or(0);
                let loss = rec.mean_loss(SimTime::ZERO, end).unwrap_or(f64::NAN);
                oversubscribed |= max_level > rec.optimal;
                farthest.push((mean_level - rec.optimal as f64).abs());
                let session = rec.session.to_string();
                rows.push(vec![session, f2(mean_level), max_level.to_string(), f4(loss)]);
            }
            let gates = vec![
                at_least("oversubscription_seen", oversubscribed as u8 as f64, 1.0),
                // "Returns to a stable state": every session's whole-run mean
                // stays near the 4-layer optimum. s0–s2: farthest session
                // 0.95 / 1.10 / 0.98 layers off.
                at_most("mean_level_distance_from_optimum", max_of(farthest.into_iter()), 1.5),
            ];
            (rows, gates)
        },
    )
}

// ----------------------------------------------------------------- Fig. 10

/// Seeds averaged per Fig. 10 point (single-run deviation noise is on the
/// same order as the staleness effect).
const FIG10_SEEDS: usize = 5;

fn fig10(slot: Slot) -> Cell {
    let (counts, ages) = (slot.size.counts(), slot.size.ages);
    // Receiver-count-major, `FIG10_SEEDS` runs per point: point (n, age)
    // is chunk `n * ages.len() + age`.
    let scenarios = cartesian(&counts, ages)
        .into_iter()
        .flat_map(|(n, age)| (0..FIG10_SEEDS as u64).map(move |k| (n, age, k)))
        .map(|(n, age, k)| {
            slot.scenario(generators::topology_a_default(n), TrafficModel::Vbr { p: 3.0 })
                .with_seed(slot.seed + k * 7919)
                .with_control(ControlMode::TopoSense { staleness: SimDuration::from_secs(age) })
        })
        .collect();
    let mut header = vec!["staleness (s)".to_string()];
    header.extend(counts.iter().map(|n| format!("loss {n}/set")));
    header.extend(counts.iter().map(|n| format!("dev {n}/set")));
    slot.figure(
        "Fig. 10 (Topology A, VBR(P=3), 5 seeds per point): \"performance deteriorates with stale \
         information\"; \"the session with only 2 receivers appears to be least affected\" — held \
         on loss, where this implementation's staleness cost lands (EXPERIMENTS.md, divergence 1).",
        &header,
        scenarios,
        move |rs| {
            let per_point = |measure: fn(&ScenarioResult) -> f64| -> Vec<f64> {
                let point =
                    |runs: &[ScenarioResult]| mean(&runs.iter().map(measure).collect::<Vec<_>>());
                rs.chunks(FIG10_SEEDS).map(point).collect()
            };
            let loss = per_point(whole_run_loss);
            // Measured from t=0: convergence delay is part of what staleness
            // costs (the paper's runs were measured whole).
            let dev = per_point(|r| {
                let end = SimTime::ZERO + r.duration;
                r.mean_relative_deviation(SimTime::ZERO, end).unwrap_or(f64::NAN)
            });
            let at = |n: usize, age: usize| n * ages.len() + age;
            let sets = 0..counts.len();
            let late = (0..ages.len()).filter(|&a| ages[a] >= 4);
            let gates = vec![
                // "Deteriorates": the stalest column loses more than the
                // fresh one at every receiver count. s0–s2: smallest rise
                // +0.039 / +0.036 / +0.040.
                at_least(
                    "loss_rise_fresh_to_stalest",
                    min_of(sets.clone().map(|n| loss[at(n, ages.len() - 1)] - loss[at(n, 0)])),
                    0.0,
                ),
                // "Least affected": from 4 s of staleness on, the fewest
                // receivers lose least. s0–s2: closest other column
                // -0.0075 / -0.0133 / -0.0055 away.
                at_most(
                    "fewest_receivers_loss_over_others",
                    max_of(
                        late.flat_map(|a| sets.clone().skip(1).map(move |n| (a, n)))
                            .map(|(a, n)| loss[at(0, a)] - loss[at(n, a)]),
                    ),
                    0.0,
                ),
                // Stale, not lost: s0–s2 worst point 0.25 / 0.24 / 0.27.
                at_most("mean_relative_deviation", max_of(dev.iter().copied()), 0.5),
            ];
            let table = ages.iter().enumerate().map(|(a, age)| {
                let mut row = vec![age.to_string()];
                row.extend(sets.clone().map(|n| f4(loss[at(n, a)])));
                row.extend(sets.clone().map(|n| f4(dev[at(n, a)])));
                row
            });
            (table.collect(), gates)
        },
    )
}

// ------------------------------------------------------- §IV convergence

/// The prior-work claims re-validated on Topology A, 4 receivers per set,
/// over the second half of the run: per traffic model and receiver set, how
/// close to optimal the steady state sits and how far apart receivers of
/// one set end up (intra-session fairness: should be small).
fn convergence(slot: Slot) -> Cell {
    let models = paper_traffic_models();
    let scenarios =
        models.iter().map(|&m| slot.scenario(generators::topology_a_default(4), m)).collect();
    slot.figure(
        "§IV (citing [5]): \"TopoSense converged to optimal subscription of layers in a \
         heterogeneous environment [and] imposed intra-session fairness\" (Topology A, 4 \
         receivers per set, second half of the run).",
        &["traffic", "set", "optimal", "mean lvl (late)", "rel. dev.", "set spread"],
        scenarios,
        move |rs| {
            let mut rows = Vec::new();
            let mut cbr = Vec::new();
            for (model, r) in models.iter().zip(rs) {
                let (half, end) = (SimTime::ZERO + r.duration / 2, SimTime::ZERO + r.duration);
                for set in [0u32, 1] {
                    let members: Vec<_> = r.receivers.iter().filter(|x| x.set == set).collect();
                    let levels: Vec<f64> =
                        members.iter().map(|m| m.level_series().mean(half, end)).collect();
                    let spread = max_of(levels.iter().copied()) - min_of(levels.iter().copied());
                    let deviations: Vec<f64> = members
                        .iter()
                        .map(|m| m.relative_deviation(half, end).unwrap_or(f64::NAN))
                        .collect();
                    if *model == TrafficModel::Cbr {
                        cbr.push(mean(&deviations));
                    }
                    rows.push(vec![
                        model.label(),
                        set.to_string(),
                        members[0].optimal.to_string(),
                        f2(mean(&levels)),
                        f4(mean(&deviations)),
                        format!("{spread:.3}"),
                    ]);
                }
            }
            // Mean over the CBR receivers (both sets are the same size). A
            // single set is too noisy to gate: the 2-layer set moves in
            // half-optimum steps, and one receiver probing for a while puts
            // its set at 0.18–0.30 on 2 of 12 probe seeds even at 1200 s.
            // s0–s2: 0.142 / 0.029 / 0.035.
            (rows, vec![at_most("cbr_deviation_late", mean(&cbr), 0.25)])
        },
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::campaign::GateStatus;
    use crate::runner;

    /// A default-config slot of the given size under seed 3.
    pub(crate) fn slot(size: Size) -> Slot {
        Slot {
            id: "test",
            run_id: "paper/test/s0".into(),
            config_label: "default",
            cfg: Config::default(),
            seed: 3,
            size,
            cap: None,
        }
    }

    /// Run one figure alone and judge it.
    pub(crate) fn judged(fig: Cell) -> Judged {
        let Verdict { rows, gates, .. } = (fig.judge)(&runner::run_many(&fig.scenarios));
        (rows, gates)
    }

    #[test]
    fn a_fig1_run_shorter_than_its_warmup_skips_the_loss_gate() {
        // Fig. 1 measures loss from 30 s on; a 20 s run has no report window
        // there. That is missing data, not a lossless run: the row says so
        // and the gate skips with the reason instead of passing on 0.0.
        let fig = fig1(slot(Size::secs(20)));
        let results = runner::run_many(&fig.scenarios);
        assert!(results.iter().all(|r| r.receivers[0]
            .mean_loss(SimTime::from_secs(30), SimTime::from_secs(20))
            .is_none()));
        let Verdict { rows, gates, .. } = (fig.judge)(&results);
        assert_eq!(rows[0][1], "-");
        let gate = gates.iter().find(|g| g.name == "innocent_n3_loss_over_rlm").unwrap();
        assert_eq!(gate.status, GateStatus::Skipped);
        assert!(gate.reason.contains("no report window"), "{}", gate.reason);
    }

    #[test]
    fn a_point_without_data_poisons_the_extreme() {
        assert_eq!(max_of([0.1, 0.3, 0.2].into_iter()), 0.3);
        assert_eq!(min_of([0.1, 0.3, 0.2].into_iter()), 0.1);
        assert!(max_of([0.1, f64::NAN, 0.2].into_iter()).is_nan());
        assert!(min_of([f64::NAN, 0.2].into_iter()).is_nan());
        assert!(max_of(std::iter::empty()).is_nan());
    }

    #[test]
    fn figure_ids_are_unique_and_only_scenario_figures_are_capped() {
        for profile in [Profile::Smoke, Profile::Full] {
            let figs = figures(&CampaignSpec::new("t", 7, profile), 0);
            let ids: std::collections::BTreeSet<&str> = figs.iter().map(|f| &*f.id).collect();
            assert_eq!(ids.len(), figs.len());
            for f in &figs {
                let shrunk = profile == Profile::Smoke && !f.scenarios.is_empty();
                assert_eq!(f.cap.is_some(), shrunk, "{}", f.id);
                let figure = &f.axes[0].1;
                assert_eq!(f.id, format!("paper/{figure}/s0"));
                assert!(f.cap.iter().all(|c| c.starts_with(&format!("{figure}: "))));
            }
        }
    }

    #[test]
    fn fig9_smoke() {
        let (rows, gates) = judged(fig9(slot(Size::secs(90))));
        assert_eq!(rows.len(), 4);
        assert!(gates.iter().all(|g| g.status != GateStatus::Skipped), "{gates:?}");
    }

    #[test]
    fn fig10_smoke() {
        let (rows, gates) = judged(fig10(slot(Size { ages: &[0, 4], ..Size::new(120, &[1]) })));
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.len() == 3));
        assert!(gates.iter().any(|g| g.name == "mean_relative_deviation" && g.value.is_some()));
    }

    #[test]
    fn convergence_smoke() {
        let (rows, _) = judged(convergence(slot(Size::secs(120))));
        assert_eq!(rows.len(), 6);
        assert_eq!((rows[0][2].as_str(), rows[1][2].as_str()), ("2", "4"));
    }
}
