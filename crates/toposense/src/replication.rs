//! The pieces of the primary/standby replication protocol (DESIGN.md §14)
//! that `controller.rs` and `messages.rs` build on.
//!
//! The pipeline is byte-deterministic (DESIGN.md §11), so the primary ships
//! each interval's *inputs* to its one warm standby, which runs the same
//! pipeline on its own `AlgorithmState` and acks the outputs'
//! [`fingerprint_outputs`]; the primary judges the ack with its
//! [`ReplicaTracker`]. A standby that takes over resumes with zero
//! re-learning. A pair sees only *that* its two sides disagree, not which
//! one is corrupted: on a mismatch the primary quarantines its standby,
//! whichever side the fault is on.

use crate::algorithm::AlgorithmOutputs;
use std::collections::VecDeque;

/// Canonical digest of one interval's pipeline outputs.
///
/// Folds every *decision-bearing* field — suggestions, root supplies,
/// congested-node count, and the capacity-estimate table — through a
/// splitmix64 chain. The `incremental` / `slots_recomputed` diagnostics are
/// deliberately excluded: cold and warm runs are byte-identical on
/// decisions but differ on those two fields, and a replica may lawfully
/// start cold on an interval its primary served warm.
pub fn fingerprint_outputs(out: &AlgorithmOutputs) -> u64 {
    let mix = |h: u64, v: u64| netsim::rng::splitmix64(h.wrapping_add(v));
    let mut h = 0x7370_6c69_745f_6d78u64;
    h = mix(h, out.suggestions.len() as u64);
    for s in &out.suggestions {
        h = mix(h, s.receiver.0 as u64);
        h = mix(h, s.session.0 as u64);
        h = mix(h, s.level as u64);
    }
    h = mix(h, out.root_supply.len() as u64);
    for &s in &out.root_supply {
        h = mix(h, s as u64);
    }
    h = mix(h, out.congested_nodes as u64);
    // The estimate table is enumerated in estimator order; sort so the
    // digest is order-independent.
    let mut est: Vec<(u32, u64)> =
        out.estimated_links.iter().map(|&(l, c)| (l.0, c.to_bits())).collect();
    est.sort_unstable();
    h = mix(h, est.len() as u64);
    for (l, c) in est {
        h = mix(h, l as u64);
        h = mix(h, c);
    }
    h
}

/// The primary's verdict on one replica ack.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckVerdict {
    /// Fingerprints agree: the replica applied this interval byte-exactly.
    Match,
    /// Fingerprints differ: one side's state has silently diverged, and
    /// the pair cannot tell which. The primary quarantines the replica —
    /// its `AlgorithmState` can no longer be trusted for takeover.
    Divergent,
    /// The replica could not apply this seq (joined late, lost a batch)
    /// and asks for a checkpoint resync.
    Behind,
}

/// The primary's sliding window of outstanding `(seq, fingerprint)` pairs.
///
/// Acks race the next interval, so the primary keeps the last few
/// fingerprints around; anything older than the window is treated as
/// answered (a stale duplicate ack is ignored).
#[derive(Debug, Default)]
pub struct ReplicaTracker {
    sent: VecDeque<(u64, u64)>,
}

/// How many recent intervals the primary keeps fingerprints for.
const WINDOW: usize = 8;

impl ReplicaTracker {
    pub fn new() -> Self {
        ReplicaTracker::default()
    }

    /// Record one replicated interval's fingerprint.
    pub fn record(&mut self, seq: u64, fingerprint: u64) {
        if self.sent.len() == WINDOW {
            self.sent.pop_front();
        }
        self.sent.push_back((seq, fingerprint));
    }

    /// Judge an incoming ack. `None` when the seq is outside the window
    /// (stale duplicate) — not a verdict either way.
    pub fn verdict(&self, seq: u64, ack_fingerprint: Option<u64>) -> Option<AckVerdict> {
        let Some(fp) = ack_fingerprint else {
            // "Behind" is meaningful regardless of the window: the replica
            // is asking for state, not claiming an output.
            return Some(AckVerdict::Behind);
        };
        let &(_, ours) = self.sent.iter().find(|&&(s, _)| s == seq)?;
        Some(if fp == ours { AckVerdict::Match } else { AckVerdict::Divergent })
    }

    /// How far the newest recorded interval is ahead of `seq` — the
    /// replication lag a matching ack reveals.
    pub fn lag_of(&self, seq: u64) -> u64 {
        self.sent.back().map_or(0, |&(newest, _)| newest.saturating_sub(seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::SuggestionOut;
    use netsim::{AppId, DirLinkId, SessionId};

    fn out(levels: &[u8]) -> AlgorithmOutputs {
        AlgorithmOutputs {
            suggestions: levels
                .iter()
                .enumerate()
                .map(|(i, &l)| SuggestionOut {
                    receiver: AppId(i as u32),
                    session: SessionId(0),
                    level: l,
                })
                .collect(),
            estimated_links: vec![(DirLinkId(3), 150_000.0)],
            congested_nodes: 2,
            root_supply: vec![6],
            ..AlgorithmOutputs::default()
        }
    }

    #[test]
    fn fingerprint_ignores_path_diagnostics() {
        let a = out(&[1, 2, 3]);
        let b = AlgorithmOutputs { incremental: !a.incremental, slots_recomputed: 99, ..a.clone() };
        assert_eq!(fingerprint_outputs(&a), fingerprint_outputs(&b));
    }

    #[test]
    fn fingerprint_sees_every_decision_field() {
        let base = fingerprint_outputs(&out(&[1, 2, 3]));
        let mut m = out(&[1, 2, 4]);
        assert_ne!(fingerprint_outputs(&m), base, "suggestion level");
        m = out(&[1, 2, 3]);
        m.root_supply = vec![5];
        assert_ne!(fingerprint_outputs(&m), base, "root supply");
        m = out(&[1, 2, 3]);
        m.congested_nodes = 3;
        assert_ne!(fingerprint_outputs(&m), base, "congested count");
        m = out(&[1, 2, 3]);
        m.estimated_links[0].1 = 150_001.0;
        assert_ne!(fingerprint_outputs(&m), base, "estimate value");
    }

    #[test]
    fn fingerprint_is_estimate_order_independent() {
        let mut a = out(&[1]);
        a.estimated_links = vec![(DirLinkId(1), 10.0), (DirLinkId(2), 20.0)];
        let mut b = out(&[1]);
        b.estimated_links = vec![(DirLinkId(2), 20.0), (DirLinkId(1), 10.0)];
        assert_eq!(fingerprint_outputs(&a), fingerprint_outputs(&b));
    }

    #[test]
    fn tracker_verdicts() {
        let mut t = ReplicaTracker::new();
        t.record(0, 100);
        t.record(1, 200);
        assert_eq!(t.verdict(0, Some(100)), Some(AckVerdict::Match));
        assert_eq!(t.verdict(1, Some(999)), Some(AckVerdict::Divergent));
        assert_eq!(t.verdict(7, Some(1)), None, "outside the window");
        assert_eq!(t.verdict(5, None), Some(AckVerdict::Behind));
        assert_eq!(t.lag_of(0), 1);
        for s in 2..=WINDOW as u64 {
            t.record(s, s);
        }
        assert_eq!(t.verdict(0, Some(100)), None, "evicted from the window");
    }
}
