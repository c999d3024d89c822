//! Telemetry-layer invariants (DESIGN.md §10).
//!
//! The two hard guarantees: telemetry is a *pure observer* (attaching a
//! sink changes nothing about the simulation), and the audit trail is
//! *faithful* (the subscription decisions it records are exactly the
//! levels the controller applied).

use netsim::{SimDuration, SimTime};
use scenarios::{run, ControlMode, Scenario};
use telemetry::{Record, StageBody, Telemetry};
use topology::generators;
use traffic::TrafficModel;

fn scenario(seed: u64) -> Scenario {
    Scenario::new(generators::topology_a_default(2), TrafficModel::Vbr { p: 3.0 }, seed)
        .with_control(ControlMode::TopoSense { staleness: SimDuration::ZERO })
        .with_duration(SimDuration::from_secs(90))
}

/// Everything observable about a run that must not depend on telemetry.
type Fingerprint = (u64, u64, Vec<Vec<(SimTime, u8, u8)>>, u64);

fn fingerprint(r: &scenarios::ScenarioResult) -> Fingerprint {
    (
        r.events,
        r.total_drops,
        r.receivers.iter().map(|x| x.stats.changes.clone()).collect(),
        r.controller.as_ref().map(|c| c.suggestions_sent).unwrap_or(0),
    )
}

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
/// and the subscription decisions recorded are exactly the levels the
/// controller applied (its `suggestion_series` ground truth).
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

    // The audited subscription levels, interval by interval (aligned with
    // the series by simulated timestamp), must equal the applied ones.
    let mut audited: Vec<(u64, Vec<(u64, u8)>)> = records
        .iter()
        .filter_map(|r| match r {
            Record::Stage { t_ns, body: StageBody::Subscription(sessions), .. } => {
                let mut levels: Vec<(u64, u8)> = sessions
                    .iter()
                    .flat_map(|s| {
                        s.nodes.iter().filter_map(move |n| n.suggested.map(|l| (s.session, l)))
                    })
                    .collect();
                levels.sort_unstable();
                Some((*t_ns, levels))
            }
            _ => None,
        })
        .collect();
    audited.sort_unstable();
    assert_eq!(audited.len() as u64, controller.intervals);
    assert_eq!(controller.suggestion_series.len() as u64, controller.intervals);
    for ((t_ns, levels), (at, applied)) in audited.iter().zip(&controller.suggestion_series) {
        assert_eq!(*t_ns, at.nanos(), "audit and series must cover the same intervals");
        let mut applied: Vec<(u64, u8)> =
            applied.iter().map(|s| (s.session.0 as u64, s.level)).collect();
        applied.sort_unstable();
        assert_eq!(
            levels, &applied,
            "interval at {t_ns}ns: audited subscription decisions diverge from applied levels"
        );
    }
    // The scenario steers somebody somewhere: the cross-check must not be
    // vacuously comparing empty sets forever.
    assert!(
        audited.iter().any(|(_, levels)| !levels.is_empty()),
        "no interval carried any suggestion"
    );
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
