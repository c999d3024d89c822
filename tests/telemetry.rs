//! Telemetry-layer invariants (DESIGN.md §10, §15).
//!
//! The hard guarantees: telemetry is a *pure observer* (attaching a sink
//! changes nothing about the simulation), the audit trail is *faithful*
//! (the subscription decisions its stage records hold are exactly the
//! suggestions the controller sent, as its `decide` hops record them), and
//! causal chains close (every applied change reconstructs as report →
//! decide → apply). The fully armed recorder and the campaign's black
//! boxes are pinned in `tests/observability.rs`.

mod observed;

use observed::{fingerprint, scenario};
use scenarios::run;
use std::collections::BTreeMap;
use telemetry::{Record, StageBody, Telemetry};

/// Attaching a sink or running with telemetry disabled must produce the
/// same simulation, event for event — telemetry is write-only.
#[test]
fn sinks_attached_or_detached_simulation_is_identical() {
    let plain = run(&scenario(7));
    let (tel, store) = Telemetry::memory();
    let audited = run(&scenario(7).with_telemetry(tel));
    assert_eq!(fingerprint(&plain), fingerprint(&audited));
    assert!(
        store.records().iter().any(|r| matches!(r, Record::Stage { .. })),
        "the audited run must actually have recorded something"
    );
}

/// Everything outside the `"timers"` record is a function of simulation
/// state alone: two recordings of one scenario match line for line, and
/// the closing counters record is exactly the run's
/// [`scenarios::ScenarioResult::counters`].
#[test]
fn trail_without_timers_is_byte_identical_across_runs() {
    let record = || {
        let (tel, store) = Telemetry::memory();
        let result = run(&scenario(7).with_telemetry(tel));
        let records: Vec<Record> =
            store.records().into_iter().filter(|r| !matches!(r, Record::Timers { .. })).collect();
        (result, records)
    };
    let (result, first) = record();
    let (_, second) = record();
    let lines = |records: &[Record]| records.iter().map(Record::to_jsonl).collect::<Vec<_>>();
    assert_eq!(lines(&first), lines(&second), "the trail moved between identical runs");

    let counters: Vec<&Record> =
        first.iter().filter(|r| matches!(r, Record::Counters { .. })).collect();
    assert_eq!(counters.len(), 1, "one closing counters record");
    let Record::Counters { entries, .. } = counters[0] else { unreachable!() };
    assert_eq!(entries, &result.counters());
    assert!(entries.iter().any(|(n, v)| n == "controller.intervals" && *v > 0));
}

/// Every controller interval emits exactly one audit record per stage,
/// and the subscription decisions recorded are exactly the suggestions the
/// controller sent — the trail's `decide` hops, emitted from the
/// interval's outputs, not from the audit.
#[test]
fn audit_trail_matches_applied_suggestions() {
    let (tel, store) = Telemetry::memory();
    let result = run(&scenario(11).with_telemetry(tel));
    let controller = result.controller.as_ref().expect("TopoSense run has a controller");
    let records = store.records();

    // One record per stage per interval.
    let count = |name: &str| {
        records
            .iter()
            .filter(|r| matches!(r, Record::Stage { body, .. } if body.stage_name() == name))
            .count() as u64
    };
    assert!(controller.intervals > 20, "scenario too short to be meaningful");
    for stage in ["congestion", "capacity", "bottleneck", "sharing", "subscription"] {
        assert_eq!(count(stage), controller.intervals, "one {stage} record per interval");
    }

    // The audited subscription levels and the decided ones, interval by
    // interval. An interval that suggested nothing carries no `decide`
    // hop, so both sides are keyed by simulated time and hold only the
    // intervals that suggested something.
    let mut audited: BTreeMap<u64, Vec<(u64, u8)>> = BTreeMap::new();
    let mut decided: BTreeMap<u64, Vec<(u64, u8)>> = BTreeMap::new();
    for r in &records {
        match r {
            Record::Stage { t_ns, body: StageBody::Subscription(sessions), .. } => {
                let levels = sessions.iter().flat_map(|s| {
                    s.nodes.iter().filter_map(move |n| n.suggested.map(|l| (s.session, l)))
                });
                audited.entry(*t_ns).or_default().extend(levels);
            }
            Record::Trace { t_ns, phase, session, level, .. } if *phase == "decide" => {
                decided.entry(*t_ns).or_default().push((*session, *level as u8));
            }
            _ => {}
        }
    }
    audited.retain(|_, levels| !levels.is_empty());
    for levels in audited.values_mut().chain(decided.values_mut()) {
        levels.sort_unstable();
    }
    // The scenario steers somebody somewhere: the cross-check must not be
    // vacuously comparing empty sets.
    assert!(!decided.is_empty(), "no interval carried any suggestion");
    assert_eq!(audited, decided, "audited subscription decisions diverge from the decided ones");
}

/// Every applied subscription change reconstructs from the audit trail
/// as a complete report → decide → apply chain under its cause id, and
/// the hops of each complete chain are causally ordered.
#[test]
fn causal_chains_close_report_decide_apply() {
    let (tel, store) = Telemetry::memory();
    let result = run(&scenario(11).with_telemetry(tel));
    let records = store.records();

    let r = result
        .receivers
        .iter()
        .find(|r| r.stats.applies.iter().any(|&(_, cause, _, _)| cause != 0))
        .expect("scenario steered nobody — nothing to trace");
    let chains = telemetry::causal::reconstruct(&records, r.session as u64, r.app.0 as u64);
    assert!(chains.iter().any(|c| c.is_complete()), "no complete chain for receiver");

    for &(when, cause, _old, new) in r.stats.applies.iter().filter(|&&(_, c, _, _)| c != 0) {
        let chain = chains
            .iter()
            .find(|c| c.cause == cause)
            .unwrap_or_else(|| panic!("apply with cause {cause:016x} has no chain"));
        assert!(chain.is_complete(), "chain {cause:016x} missing a phase");
        assert!(
            chain
                .hops
                .iter()
                .any(|h| h.phase == "apply" && h.t_ns == when.nanos() && h.level == new as u64),
            "chain {cause:016x} does not record the applied level {new} at {}ns",
            when.nanos()
        );
        let t = |phase: &str| {
            chain.hops.iter().find(|h| h.phase == phase).map(|h| h.t_ns).unwrap_or(u64::MAX)
        };
        assert!(
            t("report") <= t("decide") && t("decide") <= t("apply"),
            "chain {cause:016x} hops are not causally ordered"
        );
    }
}

/// A trail recorded to a real JSONL file decodes against the schema and
/// re-encodes byte-identically, and the wall-clock stage timers are
/// populated for all five kernels.
#[test]
fn recorded_trail_round_trips_and_timers_are_populated() {
    let path = std::env::temp_dir().join(format!("toposense-trail-{}.jsonl", std::process::id()));
    let tel = Telemetry::jsonl_file(&path).expect("create trail file");
    let result = run(&scenario(3).with_telemetry(tel));
    let text = std::fs::read_to_string(&path).expect("trail written");
    let _ = std::fs::remove_file(&path);

    let mut stage_records = 0u64;
    let mut timer_names = Vec::new();
    for (i, line) in text.lines().filter(|l| !l.trim().is_empty()).enumerate() {
        let record = Record::from_jsonl(line)
            .unwrap_or_else(|e| panic!("line {}: schema violation: {e}", i + 1));
        assert_eq!(record.to_jsonl(), line, "line {}: decode/re-encode not byte-identical", i + 1);
        match &record {
            Record::Stage { .. } => stage_records += 1,
            Record::Timers { entries } => {
                timer_names.extend(entries.iter().map(|t| t.name.clone()));
                for t in entries {
                    assert!(t.count > 0, "timer {} recorded no spans", t.name);
                    assert!(t.min_ns <= t.max_ns);
                    assert_eq!(
                        t.buckets.iter().map(|&(_, n)| n).sum::<u64>(),
                        t.count,
                        "histogram buckets of {} must account for every span",
                        t.name
                    );
                }
            }
            _ => {}
        }
    }
    let intervals = result.controller.as_ref().map(|c| c.intervals).unwrap_or(0);
    assert_eq!(stage_records, intervals * 5);
    for stage in [
        "stage1_congestion",
        "stage2_capacity",
        "stage3_bottleneck",
        "stage4_sharing",
        "stage5_subscription",
        "interval",
        "scenario_setup",
        "scenario_run",
        "scenario_harvest",
    ] {
        assert!(timer_names.iter().any(|n| n == stage), "timer '{stage}' missing: {timer_names:?}");
    }
    // Phase wall times surfaced on the result as well (satellite: runner
    // phase timing) — wall clocks are positive even for a fast run.
    assert!(result.run_wall_ns > 0);
    assert!(result.setup_wall_ns > 0);
}
