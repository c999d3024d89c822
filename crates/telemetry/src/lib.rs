//! Deterministic observability for the TopoSense reproduction.
//!
//! The crate provides three instruments behind one cheap [`Telemetry`]
//! handle:
//!
//! * a **decision audit trail** — schema-versioned [`Record`]s capturing
//!   every stage's intermediate output per control interval, emitted
//!   through a pluggable [`Sink`] (JSONL file, in-memory buffer, ...);
//! * **stage timers** — wall-clock span timing aggregated into log2
//!   histograms ([`timers`]);
//! * a **counter registry** for operational events that previously
//!   happened silently ([`counters`]).
//!
//! The hard invariant is that telemetry is a *pure observer*: attaching
//! or detaching sinks must never change simulation behaviour. The handle
//! therefore exposes no way for instrumented code to read values back
//! into control decisions, and every entry point is a no-op costing one
//! `Option` branch when the handle is disabled (the default). Wall-clock
//! timings are inherently non-deterministic, so they are kept in their
//! own record kind (`"timers"`) that determinism checks can filter out;
//! everything else in the trail is a function of the simulation state
//! alone.

#![forbid(unsafe_code)]

pub mod blackbox;
pub mod causal;
pub mod counters;
pub mod flight;
pub mod record;
pub mod sink;
pub mod timers;

pub use blackbox::{Blackbox, BLACKBOX_SCHEMA};
pub use flight::{FlightRecorder, Occurrence};
pub use record::{
    BottleneckNode, CapacityLink, CongestionNode, IntervalAudit, Record, SessionNodes,
    SharingEntry, StageBody, SubscriptionNode, TimerStat, SCHEMA_VERSION,
};
pub use timers::Span;

use counters::Counters;
use sink::{JsonlFileSink, MemorySink, Sink};
use timers::StageTimers;

use std::sync::{Arc, Mutex};

struct Inner {
    sink: Mutex<Option<Box<dyn Sink>>>,
    counters: Mutex<Counters>,
    timers: Mutex<StageTimers>,
}

/// Cheap, clonable handle to a telemetry pipeline.
///
/// `Telemetry::disabled()` (also the `Default`) carries no allocation and
/// makes every method a single-branch no-op. Enabled handles share one
/// inner state across clones, so the controller, runner, and test harness
/// can all write into the same sink/registries.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Inner>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("Telemetry(disabled)"),
            Some(_) => f.write_str("Telemetry(enabled)"),
        }
    }
}

impl Telemetry {
    /// The inert handle: every call is a no-op.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// Enabled handle with no sink: counters and timers accumulate and
    /// can be snapshotted, audit records are dropped.
    pub fn collecting() -> Self {
        Telemetry(Some(Arc::new(Inner {
            sink: Mutex::new(None),
            counters: Mutex::new(Counters::default()),
            timers: Mutex::new(StageTimers::default()),
        })))
    }

    /// Enabled handle writing records into the given sink.
    fn with_sink(sink: Box<dyn Sink>) -> Self {
        Telemetry(Some(Arc::new(Inner {
            sink: Mutex::new(Some(sink)),
            counters: Mutex::new(Counters::default()),
            timers: Mutex::new(StageTimers::default()),
        })))
    }

    /// Enabled handle backed by an in-memory sink; the returned
    /// [`MemorySink`] clone reads the captured records back.
    pub fn memory() -> (Self, MemorySink) {
        let sink = MemorySink::new();
        (Self::with_sink(Box::new(sink.clone())), sink)
    }

    /// Enabled handle appending JSONL to `path` (truncates an existing
    /// file).
    pub fn jsonl_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        Ok(Self::with_sink(Box::new(JsonlFileSink::create(path)?)))
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Emit one audit record into the sink (dropped when disabled or
    /// sink-less).
    pub fn emit(&self, record: &Record) {
        if let Some(inner) = &self.0 {
            if let Some(sink) = inner.sink.lock().unwrap().as_mut() {
                sink.emit(record);
            }
        }
    }

    /// Bump a named counter.
    pub fn incr(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.0 {
            inner.counters.lock().unwrap().incr(name, delta);
        }
    }

    /// Set a named counter to an absolute value (gauge-style harvest of
    /// totals already tracked elsewhere).
    pub fn set(&self, name: &str, value: u64) {
        if let Some(inner) = &self.0 {
            inner.counters.lock().unwrap().set(name, value);
        }
    }

    /// Record one wall-clock span for a named stage.
    pub fn record_span_ns(&self, stage: &str, ns: u64) {
        if let Some(inner) = &self.0 {
            inner.timers.lock().unwrap().record(stage, ns);
        }
    }

    /// Sorted snapshot of all counters.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        match &self.0 {
            Some(inner) => inner.counters.lock().unwrap().snapshot(),
            None => Vec::new(),
        }
    }

    /// Per-stage timer statistics, sorted by stage name.
    fn timers_snapshot(&self) -> Vec<TimerStat> {
        match &self.0 {
            Some(inner) => inner.timers.lock().unwrap().snapshot(),
            None => Vec::new(),
        }
    }

    /// Emit the current counter registry as a `"counters"` record
    /// stamped with simulated time `t_ns`.
    pub fn emit_counters(&self, t_ns: u64) {
        if self.0.is_some() {
            let entries = self.counters_snapshot();
            self.emit(&Record::Counters { t_ns, entries });
        }
    }

    /// Emit the accumulated stage timers as a `"timers"` record.
    /// Wall-clock derived: excluded from determinism comparisons.
    pub fn emit_timers(&self) {
        if self.0.is_some() {
            let entries = self.timers_snapshot();
            self.emit(&Record::Timers { entries });
        }
    }

    /// Flush the sink (file sinks buffer internally).
    pub fn flush(&self) {
        if let Some(inner) = &self.0 {
            if let Some(sink) = inner.sink.lock().unwrap().as_mut() {
                sink.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.incr("x", 3);
        tel.record_span_ns("s", 10);
        tel.emit(&Record::Run { label: "t".into(), seed: 1, duration_ns: 2 });
        tel.emit_counters(0);
        tel.emit_timers();
        tel.flush();
        assert!(tel.counters_snapshot().is_empty());
        assert!(tel.timers_snapshot().is_empty());
    }

    #[test]
    fn memory_sink_captures_records_across_clones() {
        let (tel, sink) = Telemetry::memory();
        let tel2 = tel.clone();
        tel.incr("a.b", 2);
        tel2.incr("a.b", 1);
        tel2.incr("a.a", 5);
        tel.record_span_ns("stage", 100);
        tel.emit_counters(7);
        tel.emit_timers();
        let records = sink.records();
        assert_eq!(records.len(), 2);
        match &records[0] {
            Record::Counters { t_ns, entries } => {
                assert_eq!(*t_ns, 7);
                // BTreeMap order: sorted by name.
                assert_eq!(entries, &[("a.a".to_string(), 5), ("a.b".to_string(), 3)]);
            }
            other => panic!("expected counters record, got {other:?}"),
        }
        match &records[1] {
            Record::Timers { entries } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].name, "stage");
                assert_eq!(entries[0].count, 1);
                assert_eq!(entries[0].sum_ns, 100);
            }
            other => panic!("expected timers record, got {other:?}"),
        }
    }

    #[test]
    fn collecting_handle_accumulates_without_sink() {
        let tel = Telemetry::collecting();
        assert!(tel.is_enabled());
        tel.incr("n", 1);
        tel.emit(&Record::Run { label: "t".into(), seed: 0, duration_ns: 0 });
        assert_eq!(tel.counters_snapshot(), vec![("n".to_string(), 1)]);
    }
}
