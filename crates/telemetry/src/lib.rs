//! Deterministic observability for the TopoSense reproduction.
//!
//! One cheap [`Telemetry`] handle carries two things:
//!
//! * a **record sink** — schema-versioned [`Record`]s (every stage's
//!   intermediate output per control interval, causal-trace hops, the
//!   closing counters) written through a pluggable [`Sink`] (JSONL file,
//!   in-memory buffer, ...);
//! * **stage timers** — wall-clock span timing aggregated into log2
//!   histograms ([`timers`]).
//!
//! The handle holds no counters. Operational counts live in the structs
//! that own them (the controller's shared stats, the simulator profile,
//! the receivers' stats); a harness harvests them once at the end of a
//! run and emits them as one `"counters"` record.
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
pub mod record;
pub mod sink;
pub mod timers;

pub use blackbox::{Blackbox, Occurrence, BLACKBOX_SCHEMA};
pub use record::{
    BottleneckNode, CapacityLink, CongestionNode, IntervalAudit, Record, SessionNodes,
    SharingEntry, StageBody, SubscriptionNode, TimerStat, SCHEMA_VERSION,
};
pub use timers::Span;

use sink::{JsonlFileSink, MemorySink, Sink};
use timers::StageTimers;

use std::sync::{Arc, Mutex};

struct Inner {
    sink: Mutex<Box<dyn Sink>>,
    timers: Mutex<StageTimers>,
}

/// Cheap, clonable handle to a telemetry pipeline.
///
/// `Telemetry::disabled()` (also the `Default`) carries no allocation and
/// makes every method a single-branch no-op. Enabled handles share one
/// inner state across clones, so the controller, runner, and test harness
/// can all write into the same sink and timers.
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

    /// Enabled handle writing records into the given sink.
    fn with_sink(sink: Box<dyn Sink>) -> Self {
        Telemetry(Some(Arc::new(Inner {
            sink: Mutex::new(sink),
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

    /// Emit one record into the sink (dropped when disabled).
    pub fn emit(&self, record: &Record) {
        if let Some(inner) = &self.0 {
            inner.sink.lock().unwrap().emit(record);
        }
    }

    /// Record one wall-clock span for a named stage.
    pub fn record_span_ns(&self, stage: &str, ns: u64) {
        if let Some(inner) = &self.0 {
            inner.timers.lock().unwrap().record(stage, ns);
        }
    }

    /// Per-stage timer statistics, sorted by stage name.
    fn timers_snapshot(&self) -> Vec<TimerStat> {
        match &self.0 {
            Some(inner) => inner.timers.lock().unwrap().snapshot(),
            None => Vec::new(),
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
            inner.sink.lock().unwrap().flush();
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
        tel.record_span_ns("s", 10);
        tel.emit(&Record::Run { label: "t".into(), seed: 1, duration_ns: 2 });
        tel.emit_timers();
        tel.flush();
        assert!(tel.timers_snapshot().is_empty());
    }

    #[test]
    fn memory_sink_captures_records_across_clones() {
        let (tel, sink) = Telemetry::memory();
        let tel2 = tel.clone();
        let entries = vec![("a.a".to_string(), 5), ("a.b".to_string(), 3)];
        tel2.emit(&Record::Counters { t_ns: 7, entries: entries.clone() });
        tel.record_span_ns("stage", 100);
        tel2.record_span_ns("stage", 50);
        tel.emit_timers();
        let records = sink.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], Record::Counters { t_ns: 7, entries });
        match &records[1] {
            Record::Timers { entries } => {
                assert_eq!(entries.len(), 1);
                assert_eq!(entries[0].name, "stage");
                assert_eq!(entries[0].count, 2);
                assert_eq!(entries[0].sum_ns, 150);
            }
            other => panic!("expected timers record, got {other:?}"),
        }
    }
}
