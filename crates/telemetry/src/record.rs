//! Schema-versioned audit records.
//!
//! Every record serializes to one JSON object (one JSONL line) carrying
//! `"schema": 1` and a `"kind"` discriminator:
//!
//! * `"run"` — one header per recording with the scenario label/seed;
//! * `"stage"` — one record per pipeline stage per control interval
//!   (`"stage"` ∈ `congestion | capacity | bottleneck | sharing |
//!   subscription`), stamped with the interval sequence number and the
//!   simulated time in nanoseconds;
//! * `"counters"` — the run's counters, sorted by name, harvested once at
//!   the end of the run;
//! * `"timers"` — per-stage wall-clock histograms (non-deterministic;
//!   determinism checks filter this kind out);
//! * `"trace"` — one causal hop of a suggestion chain (`"phase"` ∈
//!   `report | decide | apply`), keyed by the deterministic cause id the
//!   receiver minted when it sent the report (`trace.v1`).
//!
//! These are wire records (DESIGN.md "Wire records"): every struct is
//! declared once, and `decode(parse(line))` re-encodes to the original
//! line byte-for-byte (Rust's shortest-representation float formatting is
//! round-trip stable). The `validate` entry point in `src/bin/inspect.rs`
//! and `tests/wire_golden.rs` both lean on that property.

use serde_json::{check_schema, field, field_with, json, to_value, wire, FromJson, ToJson, Value};

/// Bump when the JSONL shape changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// Wire form of a bandwidth: JSON has no infinity, so an unconstrained
/// one (`f64::INFINITY`) travels as `null`.
mod bandwidth {
    use serde_json::{FromJson, ToJson, Value};

    pub(crate) fn to_json(bps: &f64) -> Value {
        bps.is_finite().then_some(*bps).to_json()
    }

    pub(crate) fn from_json(v: &Value) -> Result<f64, String> {
        Ok(Option::from_json(v)?.unwrap_or(f64::INFINITY))
    }
}

/// Decode a label from the closed set `known`, interned to its static
/// form; anything else is a schema violation, reported as an unknown
/// `what`.
pub(crate) fn intern(
    v: &Value,
    known: &[&'static str],
    what: &str,
) -> Result<&'static str, String> {
    let label = String::from_json(v)?;
    known.iter().find(|k| **k == label).copied().ok_or_else(|| format!("unknown {what} '{label}'"))
}

/// The phases of a trace hop, in chain order.
const TRACE_PHASES: &[&str] = &["report", "decide", "apply"];

/// Wire form of a counter snapshot: one object, name → value, in snapshot
/// order (shared with `blackbox.v1`).
pub(crate) mod counter_map {
    use serde_json::{FromJson, ToJson, Value};

    pub(crate) fn to_json(entries: &[(String, u64)]) -> Value {
        Value::Object(entries.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }

    pub(crate) fn from_json(v: &Value) -> Result<Vec<(String, u64)>, String> {
        let entries = v.as_object().ok_or("expected an object")?;
        let entry = |(k, n): &(String, Value)| match u64::from_json(n) {
            Ok(n) => Ok((k.clone(), n)),
            Err(e) => Err(format!("counter '{k}': {e}")),
        };
        entries.iter().map(entry).collect()
    }
}

wire! {
    /// Stage 1 output for one node: loss input plus the three congestion
    /// flags the later stages consume.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CongestionNode {
        pub node: u64,
        pub loss: f64,
        pub self_congested: bool,
        pub congested: bool,
        pub parent_congested: bool,
    }
}

wire! {
    /// Stage 2 output for one directed link (identified by its raw link id):
    /// the current estimate and how this interval arrived at it.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CapacityLink {
        pub link: u64,
        pub bps: f64,
        /// `"learned" | "recomputed" | "crept" | "reset" | "held"`.
        pub event: String,
    }
}

wire! {
    /// Stage 3 output for one node. `f64::INFINITY` means unconstrained and
    /// encodes as JSON `null`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct BottleneckNode {
        pub node: u64,
        pub bottleneck_bps: f64 as bandwidth,
        pub max_handle_bps: f64 as bandwidth,
    }
}

wire! {
    /// Stage 4 output: one session's allowed share at one shared link.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SharingEntry {
        pub link: u64,
        pub session: u64,
        pub allowed_bps: f64 as bandwidth,
    }
}

wire! {
    /// Stage 5 output for one node: the Table I branch taken plus the
    /// demand/supply levels it produced. `suggested` is the level actually
    /// sent to a registered receiver at this node (`None` for internal nodes
    /// and unregistered leaves).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SubscriptionNode {
        pub node: u64,
        pub branch: String,
        pub demand: u8,
        pub supply: u8,
        pub suggested: Option<u8>,
    }
}

/// Per-session grouping for node-indexed stage payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionNodes<T> {
    pub session: u64,
    pub nodes: Vec<T>,
}

impl<T: ToJson> ToJson for SessionNodes<T> {
    fn to_json(&self) -> Value {
        json!({"session": self.session, "nodes": self.nodes})
    }
}

impl<T: FromJson> FromJson for SessionNodes<T> {
    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(SessionNodes { session: field(v, "session")?, nodes: field(v, "nodes")? })
    }
}

wire! {
    /// Aggregated statistics for one named timer.
    #[derive(Debug, Clone, PartialEq)]
    pub struct TimerStat {
        pub name: String,
        pub count: u64,
        pub sum_ns: u64,
        pub min_ns: u64,
        pub max_ns: u64,
        /// Sorted `(pow, count)` pairs: `count` spans fell in
        /// `[2^pow, 2^(pow+1))` nanoseconds.
        pub buckets: Vec<(u32, u64)>,
    }
}

/// Stage-specific payload of a `"stage"` record.
#[derive(Debug, Clone, PartialEq)]
pub enum StageBody {
    Congestion(Vec<SessionNodes<CongestionNode>>),
    Capacity(Vec<CapacityLink>),
    Bottleneck(Vec<SessionNodes<BottleneckNode>>),
    Sharing(Vec<SharingEntry>),
    Subscription(Vec<SessionNodes<SubscriptionNode>>),
}

impl StageBody {
    pub fn stage_name(&self) -> &'static str {
        match self {
            StageBody::Congestion(_) => "congestion",
            StageBody::Capacity(_) => "capacity",
            StageBody::Bottleneck(_) => "bottleneck",
            StageBody::Sharing(_) => "sharing",
            StageBody::Subscription(_) => "subscription",
        }
    }
}

/// One JSONL line of the audit trail.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    Run {
        label: String,
        seed: u64,
        duration_ns: u64,
    },
    Stage {
        seq: u64,
        t_ns: u64,
        body: StageBody,
    },
    Counters {
        t_ns: u64,
        entries: Vec<(String, u64)>,
    },
    Timers {
        entries: Vec<TimerStat>,
    },
    /// One causal hop of a suggestion chain: the receiver's report
    /// (`phase: "report"`), the controller decision it fed
    /// (`phase: "decide"`), or the layer change it produced
    /// (`phase: "apply"`). Hops sharing a `cause` id are one chain;
    /// `level` is the layer count reported, suggested, or applied.
    Trace {
        seq: u64,
        t_ns: u64,
        phase: &'static str,
        session: u64,
        receiver: u64,
        cause: u64,
        level: u64,
    },
}

/// All five stage outputs of one control interval, filled by the
/// algorithm while it runs and fanned out into [`Record::Stage`]s after.
#[derive(Debug, Clone, Default)]
pub struct IntervalAudit {
    pub seq: u64,
    pub t_ns: u64,
    pub congestion: Vec<SessionNodes<CongestionNode>>,
    pub capacity: Vec<CapacityLink>,
    pub bottleneck: Vec<SessionNodes<BottleneckNode>>,
    pub sharing: Vec<SharingEntry>,
    pub subscription: Vec<SessionNodes<SubscriptionNode>>,
    /// Wall-clock spans measured around each kernel (`(stage, ns)`);
    /// routed to the timer registry, never into deterministic records.
    pub stage_ns: Vec<(&'static str, u64)>,
}

impl IntervalAudit {
    pub fn new(seq: u64, t_ns: u64) -> Self {
        IntervalAudit { seq, t_ns, ..Default::default() }
    }

    /// The five per-stage records for this interval, in pipeline order.
    /// Consumes the audit: the stage payloads move into the records.
    pub fn into_records(self) -> Vec<Record> {
        let IntervalAudit {
            seq,
            t_ns,
            congestion,
            capacity,
            bottleneck,
            sharing,
            subscription,
            ..
        } = self;
        let bodies = [
            StageBody::Congestion(congestion),
            StageBody::Capacity(capacity),
            StageBody::Bottleneck(bottleneck),
            StageBody::Sharing(sharing),
            StageBody::Subscription(subscription),
        ];
        bodies.into_iter().map(|body| Record::Stage { seq, t_ns, body }).collect()
    }
}

impl ToJson for Record {
    fn to_json(&self) -> Value {
        match self {
            Record::Run { label, seed, duration_ns } => json!({
                "schema": SCHEMA_VERSION,
                "kind": "run",
                "label": label,
                "seed": seed,
                "duration_ns": duration_ns,
            }),
            Record::Stage { seq, t_ns, body } => {
                let payload = match body {
                    StageBody::Congestion(s) => ("sessions", to_value(s)),
                    StageBody::Capacity(l) => ("links", to_value(l)),
                    StageBody::Bottleneck(s) => ("sessions", to_value(s)),
                    StageBody::Sharing(l) => ("links", to_value(l)),
                    StageBody::Subscription(s) => ("sessions", to_value(s)),
                };
                Value::Object(vec![
                    ("schema".into(), Value::UInt(SCHEMA_VERSION)),
                    ("kind".into(), Value::String("stage".into())),
                    ("stage".into(), Value::String(body.stage_name().into())),
                    ("seq".into(), Value::UInt(*seq)),
                    ("t_ns".into(), Value::UInt(*t_ns)),
                    (payload.0.into(), payload.1),
                ])
            }
            Record::Counters { t_ns, entries } => json!({
                "schema": SCHEMA_VERSION,
                "kind": "counters",
                "t_ns": t_ns,
                "counters": counter_map::to_json(entries),
            }),
            Record::Timers { entries } => json!({
                "schema": SCHEMA_VERSION,
                "kind": "timers",
                "timers": entries,
            }),
            Record::Trace { seq, t_ns, phase, session, receiver, cause, level } => json!({
                "schema": SCHEMA_VERSION,
                "kind": "trace",
                "phase": phase,
                "seq": seq,
                "t_ns": t_ns,
                "session": session,
                "receiver": receiver,
                "cause": cause,
                "level": level,
            }),
        }
    }
}

impl StageBody {
    /// The payload of a `"stage"` record `v`, chosen by its `"stage"` key.
    fn from_record(v: &Value) -> Result<StageBody, String> {
        match field::<String>(v, "stage")?.as_str() {
            "congestion" => Ok(StageBody::Congestion(field(v, "sessions")?)),
            "capacity" => Ok(StageBody::Capacity(field(v, "links")?)),
            "bottleneck" => Ok(StageBody::Bottleneck(field(v, "sessions")?)),
            "sharing" => Ok(StageBody::Sharing(field(v, "links")?)),
            "subscription" => Ok(StageBody::Subscription(field(v, "sessions")?)),
            other => Err(format!("unknown stage '{other}'")),
        }
    }
}

impl FromJson for Record {
    /// Decode one parsed JSONL line; errors describe the first mismatch
    /// with the schema.
    fn from_json(v: &Value) -> Result<Record, String> {
        check_schema(v, SCHEMA_VERSION)?;
        match field::<String>(v, "kind")?.as_str() {
            "run" => Ok(Record::Run {
                label: field(v, "label")?,
                seed: field(v, "seed")?,
                duration_ns: field(v, "duration_ns")?,
            }),
            "stage" => Ok(Record::Stage {
                seq: field(v, "seq")?,
                t_ns: field(v, "t_ns")?,
                body: StageBody::from_record(v)?,
            }),
            "counters" => Ok(Record::Counters {
                t_ns: field(v, "t_ns")?,
                entries: field_with(v, "counters", counter_map::from_json)?,
            }),
            "timers" => Ok(Record::Timers { entries: field(v, "timers")? }),
            "trace" => Ok(Record::Trace {
                seq: field(v, "seq")?,
                t_ns: field(v, "t_ns")?,
                phase: field_with(v, "phase", |p| intern(p, TRACE_PHASES, "trace phase"))?,
                session: field(v, "session")?,
                receiver: field(v, "receiver")?,
                cause: field(v, "cause")?,
                level: field(v, "level")?,
            }),
            other => Err(format!("unknown record kind '{other}'")),
        }
    }
}

impl Record {
    /// Compact JSON, i.e. exactly one JSONL line (without the newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("record serialization is infallible")
    }

    /// Parse and decode one JSONL line.
    pub fn from_jsonl(line: &str) -> Result<Record, String> {
        serde_json::decode(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Run { label: "quickstart".into(), seed: 7, duration_ns: 30_000_000_000 },
            Record::Stage {
                seq: 3,
                t_ns: 8_000_000_000,
                body: StageBody::Congestion(vec![SessionNodes {
                    session: 1,
                    nodes: vec![CongestionNode {
                        node: 2,
                        loss: 0.0625,
                        self_congested: true,
                        congested: true,
                        parent_congested: false,
                    }],
                }]),
            },
            Record::Stage {
                seq: 3,
                t_ns: 8_000_000_000,
                body: StageBody::Capacity(vec![CapacityLink {
                    link: 1,
                    bps: 250_000.5,
                    event: "learned".into(),
                }]),
            },
            Record::Stage {
                seq: 3,
                t_ns: 8_000_000_000,
                body: StageBody::Bottleneck(vec![SessionNodes {
                    session: 1,
                    nodes: vec![
                        BottleneckNode {
                            node: 0,
                            bottleneck_bps: f64::INFINITY,
                            max_handle_bps: 1_000_000.0,
                        },
                        BottleneckNode { node: 2, bottleneck_bps: 250_000.5, max_handle_bps: 0.0 },
                    ],
                }]),
            },
            Record::Stage {
                seq: 3,
                t_ns: 8_000_000_000,
                body: StageBody::Sharing(vec![SharingEntry {
                    link: 1,
                    session: 1,
                    allowed_bps: 125_000.25,
                }]),
            },
            Record::Stage {
                seq: 3,
                t_ns: 8_000_000_000,
                body: StageBody::Subscription(vec![SessionNodes {
                    session: 1,
                    nodes: vec![
                        SubscriptionNode {
                            node: 2,
                            branch: "leaf.add".into(),
                            demand: 3,
                            supply: 3,
                            suggested: Some(3),
                        },
                        SubscriptionNode {
                            node: 1,
                            branch: "internal.accept".into(),
                            demand: 3,
                            supply: 3,
                            suggested: None,
                        },
                    ],
                }]),
            },
            Record::Counters {
                t_ns: 30_000_000_000,
                entries: vec![("ctrl.intervals".into(), 14), ("sim.drops".into(), 3)],
            },
            Record::Timers {
                entries: vec![TimerStat {
                    name: "stage1_congestion".into(),
                    count: 14,
                    sum_ns: 70_000,
                    min_ns: 3_000,
                    max_ns: 9_000,
                    buckets: vec![(11, 10), (13, 4)],
                }],
            },
            Record::Trace {
                seq: 3,
                t_ns: 8_000_000_000,
                phase: "decide",
                session: 1,
                receiver: 2,
                cause: 0x9e37_79b9_7f4a_7c15,
                level: 4,
            },
        ]
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        for r in sample_records() {
            let line = r.to_jsonl();
            assert!(!line.contains('\n'), "record must be one line: {line}");
            let back = Record::from_jsonl(&line).unwrap();
            assert_eq!(back, r);
            assert_eq!(back.to_jsonl(), line, "re-encode must be byte-identical");
        }
    }

    #[test]
    fn infinity_encodes_as_null() {
        let r = Record::Stage {
            seq: 0,
            t_ns: 0,
            body: StageBody::Bottleneck(vec![SessionNodes {
                session: 1,
                nodes: vec![BottleneckNode {
                    node: 0,
                    bottleneck_bps: f64::INFINITY,
                    max_handle_bps: f64::INFINITY,
                }],
            }]),
        };
        let line = r.to_jsonl();
        assert!(line.contains("\"bottleneck_bps\":null"));
        match Record::from_jsonl(&line).unwrap() {
            Record::Stage { body: StageBody::Bottleneck(s), .. } => {
                assert!(s[0].nodes[0].bottleneck_bps.is_infinite());
            }
            other => panic!("unexpected record {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_schema_drift() {
        assert!(Record::from_jsonl(r#"{"schema":2,"kind":"run"}"#)
            .unwrap_err()
            .contains("unsupported schema"));
        assert!(Record::from_jsonl(r#"{"kind":"run"}"#).unwrap_err().contains("schema"));
        assert!(Record::from_jsonl(r#"{"schema":1,"kind":"mystery"}"#)
            .unwrap_err()
            .contains("unknown record kind"));
        assert!(Record::from_jsonl(
            r#"{"schema":1,"kind":"stage","stage":"nope","seq":0,"t_ns":0}"#
        )
        .unwrap_err()
        .contains("unknown stage"));
        let trace = r#"{"schema":1,"kind":"trace","phase":"mystery","seq":0,"t_ns":0,"session":0,"receiver":0,"cause":0,"level":0}"#;
        assert!(Record::from_jsonl(trace).unwrap_err().contains("unknown trace phase 'mystery'"));
        assert!(Record::from_jsonl("not json").unwrap_err().contains("invalid JSON"));
    }

    #[test]
    fn interval_audit_fans_out_five_stage_records() {
        let mut audit = IntervalAudit::new(4, 12_000_000_000);
        audit.capacity.push(CapacityLink { link: 0, bps: 1.0, event: "held".into() });
        let records = audit.into_records();
        assert_eq!(records.len(), 5);
        let stages: Vec<&str> = records
            .iter()
            .map(|r| match r {
                Record::Stage { body, .. } => body.stage_name(),
                other => panic!("unexpected record {other:?}"),
            })
            .collect();
        assert_eq!(stages, ["congestion", "capacity", "bottleneck", "sharing", "subscription"]);
        for r in &records {
            let Record::Stage { seq, t_ns, .. } = r else { unreachable!() };
            assert_eq!((*seq, *t_ns), (4, 12_000_000_000));
        }
    }
}
