//! Control-plane messages between receivers and the controller.
//!
//! These travel as opaque payloads inside ordinary simulated packets, so
//! they queue behind media traffic and can be lost at congested links —
//! the paper made this deliberate by stationing the controller at a source
//! node "so control messages could be lost due to congestion".

use crate::algorithm::ReceiverReport;
use netsim::rng::splitmix64;
use netsim::{AppId, NodeId, SessionId, SimDuration, SimTime};
use topology::discovery::TopologyView;

/// Deterministic cause id for one receiver report: the [`splitmix64`] mix
/// of (receiver, session, report sequence number). The receiver mints it
/// when the report is sent; the controller copies it onto the decision the
/// report feeds and onto the suggestion it sends back, and the receiver
/// stamps it onto the layer change it applies — one id, one causal chain,
/// reconstructable from the JSONL trail (`telemetry::causal`). This is
/// also the correlation-id groundwork a real transport needs.
///
/// Zero is reserved for "no known cause" (e.g. a fallback suggestion from
/// a standby that never saw the triggering report).
pub fn cause_id(receiver: u64, session: u64, seq: u64) -> u64 {
    let z = splitmix64(
        receiver
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(session.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(seq)
            .wrapping_add(0xf698_d001_93e6_95d6),
    );
    // Never collide with the reserved "no cause" value.
    z.max(1)
}

/// Receiver -> controller: announce existence (sent once at startup and
/// re-sent until the first suggestion arrives).
#[derive(Clone, Debug, PartialEq)]
pub struct Register {
    pub receiver: AppId,
    pub node: NodeId,
    pub session: SessionId,
    /// Subscription level at registration time.
    pub level: u8,
}

impl Register {
    /// Wire size (bytes).
    pub const WIRE_SIZE: u32 = 48;
}

/// Receiver -> controller: one report window of loss/throughput data.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    pub receiver: AppId,
    pub node: NodeId,
    pub session: SessionId,
    /// Subscription level during the window.
    pub level: u8,
    /// Packets received across all subscribed layers in the window.
    pub received: u64,
    /// Packets lost (sequence gaps) across all subscribed layers.
    pub lost: u64,
    /// Bytes received across all subscribed layers.
    pub bytes: u64,
    /// When the window closed.
    pub time: SimTime,
    /// Deterministic causal-trace id ([`cause_id`]). The wire size is
    /// fixed, so carrying it never changes simulation behaviour.
    pub cause: u64,
}

impl Report {
    /// Wire size (bytes).
    pub const WIRE_SIZE: u32 = 96;

    /// Loss rate of the window.
    pub fn loss_rate(&self) -> f64 {
        netsim::stats::loss_rate(self.received, self.lost)
    }
}

/// Controller -> receiver: the prescribed subscription level.
#[derive(Clone, Debug, PartialEq)]
pub struct Suggestion {
    pub receiver: AppId,
    pub session: SessionId,
    /// Subscribe to exactly this many layers.
    pub level: u8,
    /// When the controller computed it.
    pub time: SimTime,
    /// Node the suggesting controller runs on. Receivers report to whoever
    /// last spoke to them, so suggestions from a failed-over standby
    /// redirect the control plane without extra round trips.
    pub from: NodeId,
    /// Cause id of the report that fed this decision (`0` = none known,
    /// e.g. a suggestion computed without a fresh report).
    pub cause: u64,
}

impl Suggestion {
    /// Wire size (bytes).
    pub const WIRE_SIZE: u32 = 64;
}

/// Controller -> receiver: registration confirmed. Lets the receiver stop
/// re-announcing itself, and — after a failover — redirects it to the
/// newly-active controller.
#[derive(Clone, Debug, PartialEq)]
pub struct RegisterAck {
    pub receiver: AppId,
    /// Node the active controller answers from.
    pub controller: NodeId,
    pub time: SimTime,
}

impl RegisterAck {
    /// Wire size (bytes).
    pub const WIRE_SIZE: u32 = 32;
}

/// Receiver -> controller: an orderly departure. Without it a receiver that
/// leaves mid-session lingers in the controller's registry until the
/// silence deadline evicts it.
#[derive(Clone, Debug, PartialEq)]
pub struct Deregister {
    pub receiver: AppId,
    pub session: SessionId,
    pub time: SimTime,
}

impl Deregister {
    /// Wire size (bytes).
    pub const WIRE_SIZE: u32 = 32;
}

/// Active controller -> warm standby: liveness beacon, sent once per
/// interval. The standby takes over when beacons stop.
#[derive(Clone, Debug, PartialEq)]
pub struct Heartbeat {
    pub from: NodeId,
    pub time: SimTime,
}

impl Heartbeat {
    /// Wire size (bytes).
    pub const WIRE_SIZE: u32 = 32;
}

/// Active controller -> replica: one interval's complete pipeline inputs
/// (DESIGN.md §14). The replica feeds them through its own copy of the
/// byte-deterministic five-stage pipeline; because the inputs — not the
/// outputs — are replicated, the replica's `AlgorithmState` stays a live
/// twin of the primary's and a takeover needs zero re-learning.
#[derive(Clone, Debug)]
pub struct ReplicateInputs {
    /// Interval sequence number: the primary's completed-run count *before*
    /// this interval ran. A replica applying seq `n` goes from `n` to
    /// `n + 1` completed runs.
    pub seq: u64,
    /// The primary's algorithm-RNG seed. A replica joining at seq 0
    /// re-seeds its pipeline with this so the twin tracks the primary's
    /// draw sequence bit-for-bit.
    pub algo_seed: u64,
    pub now: SimTime,
    pub interval: SimDuration,
    /// The (staleness-filtered, domain-clipped) topology the primary built
    /// its session trees from.
    pub view: TopologyView,
    /// The primary's quarantine-filtered registry, sorted by receiver.
    pub registry: Vec<(AppId, NodeId, SessionId)>,
    /// The interval's report batch, exactly as the pipeline consumed it.
    pub reports: Vec<ReceiverReport>,
    /// The border caps in force when the primary ran (federation input,
    /// DESIGN.md §16). Replicated like every other pipeline input so the
    /// twin's root ceilings — and therefore its output fingerprint — stay
    /// byte-identical to the primary's.
    pub border_caps: Vec<(SessionId, u8)>,
    /// The primary's own output fingerprint for this interval
    /// ([`crate::replication::fingerprint_outputs`]) — what the replica's
    /// ack is cross-checked against.
    pub fingerprint: u64,
    pub from: NodeId,
}

impl ReplicateInputs {
    /// Wire size of the batch header (bytes). The input batch is this plus
    /// one [`Report::WIRE_SIZE`] per forwarded report.
    pub const HEADER_WIRE_SIZE: u32 = 64;
}

/// Replica -> active controller: receipt + cross-check of one replicated
/// interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaAck {
    pub seq: u64,
    /// The replica's own output fingerprint; `None` means the replica
    /// cannot apply this seq (it joined late or lost a batch) and needs a
    /// checkpoint resync.
    pub fingerprint: Option<u64>,
    pub from: NodeId,
}

impl ReplicaAck {
    /// Wire size (bytes).
    pub const WIRE_SIZE: u32 = 32;
}

/// Active controller -> replica: a full `AlgorithmState` checkpoint
/// (`toposense.checkpoint.v1` JSON) bringing a behind replica back in
/// sync. After restoring, the replica expects seq `next_seq`.
#[derive(Clone, Debug)]
pub struct CheckpointTransfer {
    /// The primary's completed-run count at capture time — the next seq
    /// the restored replica can apply.
    pub next_seq: u64,
    /// Canonical checkpoint JSON ([`crate::checkpoint::Snapshot::encode`]).
    pub blob: String,
    pub from: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_loss_rate() {
        let mut r = Report {
            receiver: AppId(1),
            node: NodeId(2),
            session: SessionId(0),
            level: 3,
            received: 90,
            lost: 10,
            bytes: 90_000,
            time: SimTime::ZERO,
            cause: cause_id(1, 0, 0),
        };
        assert!((r.loss_rate() - 0.1).abs() < 1e-12);
        r.received = 0;
        r.lost = 0;
        assert_eq!(r.loss_rate(), 0.0);
    }

    #[test]
    fn cause_ids_are_deterministic_distinct_and_never_zero() {
        assert_eq!(cause_id(1, 0, 0), cause_id(1, 0, 0));
        assert_ne!(cause_id(1, 0, 0), cause_id(1, 0, 1));
        assert_ne!(cause_id(1, 0, 0), cause_id(2, 0, 0));
        assert_ne!(cause_id(1, 0, 0), cause_id(1, 1, 0));
        for seq in 0..64 {
            assert_ne!(cause_id(0, 0, seq), 0, "zero is reserved for 'no cause'");
        }
    }

    /// The ids the receivers mint and the telemetry trail carries.
    #[test]
    fn cause_ids_are_pinned() {
        let m = u64::MAX;
        let pinned = [
            ((0, 0, 0), 0x2848_d6a4_a7b2_8bc1),
            ((1, 0, 0), 0xbb1f_d59c_964c_1554),
            ((7, 2, 1234), 0x9098_058d_149b_8aee),
            ((m, m, m), 0x48cd_7a1d_970f_4ae5),
            ((0, m, 0), 0xdc55_e62f_e0ed_2310),
        ];
        for ((receiver, session, seq), id) in pinned {
            assert_eq!(cause_id(receiver, session, seq), id, "({receiver}, {session}, {seq})");
        }
    }
}
