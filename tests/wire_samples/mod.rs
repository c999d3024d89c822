//! One value of every wire record, shared by `wire_golden` (whose fixture
//! was written from exactly these values by the encoders as they stood
//! before the `wire!` table) and `wire_fuzz` (which mutates their bytes).

use telemetry::{
    Blackbox, BottleneckNode, CapacityLink, CongestionNode, Occurrence, Record, SessionNodes,
    SharingEntry, StageBody, SubscriptionNode, TimerStat,
};
use toposense::checkpoint::{BackoffEntry, EstimateEntry, MemoryEntry};
use toposense::{BorderSummary, Snapshot};

/// `checkpoint.v1` with both arms of both `Option` fields.
pub fn snapshot() -> Snapshot {
    let memory = |node, hist, demand_prev| MemoryEntry {
        session: 1,
        node,
        hist,
        bytes_older: 120_000,
        bytes_recent: u64::MAX,
        supply_older: 2,
        supply_recent: 3,
        demand_prev,
    };
    let backoff =
        |level, until_ns, failures| BackoffEntry { session: 1, node: 7, level, until_ns, failures };
    Snapshot {
        config_fingerprint: 0xdead_beef_cafe_f00d,
        runs: 17,
        rng: [1, 2, 3, u64::MAX],
        estimates: vec![
            EstimateEntry {
                link: 4,
                capacity_bits: 150_000.0f64.to_bits(),
                set_at_ns: 42_000_000_000,
            },
            EstimateEntry { link: u32::MAX, capacity_bits: 1.5e9f64.to_bits(), set_at_ns: 0 },
        ],
        memories: vec![memory(3, 0b101, Some(4)), memory(5, 0, None)],
        backoffs: vec![backoff(2, Some(60_000_000_000), 1), backoff(3, None, u32::MAX)],
    }
}

/// `border.v1` from a domain that has learned no capacity yet.
pub fn border() -> BorderSummary {
    BorderSummary {
        domain: 9,
        seq: 12,
        gateway: 40,
        level: 5,
        received: 1_000_000,
        lost: 1_234,
        bytes: 98_765_432,
        congested_nodes: 3,
        capacity_bits: f64::INFINITY.to_bits(),
    }
}

/// `blackbox.v1` whose details need every escape the serializer has.
pub fn blackbox() -> Blackbox {
    let occ = |t_ns, kind, seq, detail: &str| Occurrence { t_ns, kind, seq, detail: detail.into() };
    Blackbox {
        reason: "replica_quarantine".into(),
        label: "replica-2 \"standby\"".into(),
        seed: 42,
        config_fingerprint: "deadbeefcafef00d".into(),
        t_ns: 16_000_000_000,
        counters: vec![("repl.divergences".into(), 1), ("repl.view_changes".into(), 0)],
        occurrences: vec![
            occ(8_000_000_000, "interval_start", 1, ""),
            occ(16_000_000_000, "quarantine", 2, "fp \"a1\" != \"b2\"\nat node 3\ttab \\ \u{1} é"),
        ],
        ring_dropped: 7,
    }
}

/// One JSONL line per [`Record`] shape: run, the five stages, counters,
/// timers, trace.
pub fn records() -> Vec<Record> {
    let stage = |body| Record::Stage { seq: 3, t_ns: 8_000_000_000, body };
    vec![
        Record::Run { label: "quick\"start\"\n".into(), seed: 7, duration_ns: 30_000_000_000 },
        stage(StageBody::Congestion(vec![SessionNodes {
            session: 1,
            nodes: vec![
                CongestionNode {
                    node: 2,
                    loss: 0.0625,
                    self_congested: true,
                    congested: true,
                    parent_congested: false,
                },
                CongestionNode {
                    node: 0,
                    loss: 0.0,
                    self_congested: false,
                    congested: false,
                    parent_congested: false,
                },
            ],
        }])),
        stage(StageBody::Capacity(vec![
            CapacityLink { link: 1, bps: 250_000.5, event: "learned".into() },
            CapacityLink { link: 2, bps: 1_000_000.0, event: "held".into() },
        ])),
        stage(StageBody::Bottleneck(vec![SessionNodes {
            session: 1,
            nodes: vec![
                BottleneckNode {
                    node: 0,
                    bottleneck_bps: f64::INFINITY,
                    max_handle_bps: 1_000_000.0,
                },
                BottleneckNode {
                    node: 2,
                    bottleneck_bps: 250_000.5,
                    max_handle_bps: f64::INFINITY,
                },
            ],
        }])),
        stage(StageBody::Sharing(vec![
            SharingEntry { link: 1, session: 1, allowed_bps: 125_000.25 },
            SharingEntry { link: 1, session: 2, allowed_bps: f64::INFINITY },
        ])),
        stage(StageBody::Subscription(vec![SessionNodes {
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
                    demand: 255,
                    supply: 0,
                    suggested: None,
                },
            ],
        }])),
        Record::Counters {
            t_ns: 30_000_000_000,
            entries: vec![("ctrl.intervals".into(), 14), ("sim.drops".into(), u64::MAX)],
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
