//! Deterministic replicated controller state machine (DESIGN.md §14).
//!
//! The five-stage pipeline is byte-deterministic (DESIGN.md §11), so the
//! controller replicates like a viewstamped-replication state machine:
//! the primary ships each interval's *inputs* (report batch + topology and
//! registry snapshot + interval seed) to its replicas, every replica runs
//! the pipeline independently, and per-interval output fingerprints are
//! cross-checked so silent divergence — a bit flip, a heterogeneous-build
//! bug — is detected the interval it happens and the divergent replica
//! quarantined. A promoted replica resumes from its own up-to-date
//! [`AlgorithmState`] with zero re-learning.
//!
//! This module holds the pieces shared by the in-controller wire protocol
//! (`controller.rs` + `messages.rs`) and the differential test harness:
//!
//! * [`fingerprint_outputs`] — the canonical per-interval output digest;
//! * [`ReplicaTracker`] — the primary's window of outstanding
//!   `(seq, fingerprint)` pairs and its ack verdict logic;
//! * [`Cluster`] — an in-process N-replica simulator driving real
//!   checkpoint JSON through crash, partition, and bit-flip faults, used
//!   by the failover differential suite, the black-box tests and the
//!   `failover_checkpoint` example.

use crate::algorithm::{AlgorithmInputs, AlgorithmOutputs, AlgorithmState};
use crate::checkpoint::Snapshot;
use crate::config::Config;
use std::collections::VecDeque;
use telemetry::{Blackbox, FlightRecorder};

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
    /// Fingerprints differ: the replica's state has silently diverged.
    /// Quarantine it — its `AlgorithmState` can no longer be trusted for
    /// takeover.
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
#[derive(Debug)]
pub struct ReplicaTracker {
    sent: VecDeque<(u64, u64)>,
    cap: usize,
}

impl Default for ReplicaTracker {
    fn default() -> Self {
        ReplicaTracker::new(8)
    }
}

impl ReplicaTracker {
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1);
        ReplicaTracker { sent: VecDeque::new(), cap }
    }

    /// Record one replicated interval's fingerprint.
    pub fn record(&mut self, seq: u64, fingerprint: u64) {
        if self.sent.len() == self.cap {
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

/// One member of an in-process replica group.
pub struct Replica {
    pub id: usize,
    pub state: AlgorithmState,
    /// Crashed replicas neither apply inputs nor vote.
    pub live: bool,
    /// Partitioned replicas are live but unreachable: they miss input
    /// batches and need a checkpoint resync on heal.
    pub partitioned: bool,
    /// Set when the cross-check caught this replica's fingerprint in the
    /// minority; quarantined replicas stop applying inputs.
    pub quarantined: bool,
    /// Completed-run count this replica expects to apply next.
    pub next_seq: u64,
}

/// What one [`Cluster::tick`] observed.
pub struct TickOutcome {
    /// The primary's outputs for the interval (the cluster's answer).
    pub outputs: AlgorithmOutputs,
    /// The majority fingerprint.
    pub fingerprint: u64,
    /// Replica ids newly quarantined by this interval's cross-check.
    pub newly_quarantined: Vec<usize>,
    /// Whether the cross-check deposed the primary (its fingerprint was in
    /// the minority) and a view change promoted a new one.
    pub view_changed: bool,
}

/// An in-process N-replica deterministic state machine: every member owns
/// a full [`AlgorithmState`] seeded identically, each tick feeds the same
/// [`AlgorithmInputs`] to every reachable member, and the resulting
/// fingerprints are majority-voted. Checkpoint resyncs go through the real
/// `toposense.checkpoint.v1` JSON encode/decode path, so the differential
/// suite exercises exactly what the wire protocol ships.
pub struct Cluster {
    cfg: Config,
    seed: u64,
    replicas: Vec<Replica>,
    primary: usize,
    seq: u64,
    /// Cumulative divergences caught by the cross-check.
    pub divergences: u64,
    /// Cumulative view changes (primary deposed or crashed).
    pub view_changes: u64,
    /// Last-N replication occurrences (quarantine, view change, resync) —
    /// the window a [`Cluster::blackbox`] dump carries.
    pub flight: FlightRecorder,
    /// Simulated time of the last tick; faults injected between ticks
    /// (crash, heal) are stamped with it.
    last_t_ns: u64,
}

impl Cluster {
    /// A group of `n >= 1` replicas, all seeded with the same algorithm
    /// seed (replica id 0 starts as primary).
    pub fn new(cfg: Config, seed: u64, n: usize) -> Self {
        assert!(n >= 1);
        let replicas = (0..n)
            .map(|id| Replica {
                id,
                state: AlgorithmState::new(cfg, seed),
                live: true,
                partitioned: false,
                quarantined: false,
                next_seq: 0,
            })
            .collect();
        Cluster {
            cfg,
            seed,
            replicas,
            primary: 0,
            seq: 0,
            divergences: 0,
            view_changes: 0,
            flight: FlightRecorder::new(64),
            last_t_ns: 0,
        }
    }

    /// The current primary's id.
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// The interval count the cluster has committed.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Immutable view of one member.
    pub fn replica(&self, id: usize) -> &Replica {
        &self.replicas[id]
    }

    fn votable(&self, r: &Replica) -> bool {
        r.live && !r.partitioned && !r.quarantined && r.next_seq == self.seq
    }

    /// Feed one interval's inputs to every reachable member, cross-check
    /// the fingerprints, quarantine any minority, and depose the primary
    /// if *it* is the minority.
    pub fn tick(&mut self, inputs: &AlgorithmInputs<'_>) -> TickOutcome {
        assert!(self.replicas[self.primary].live, "ticking a crashed primary");
        self.last_t_ns = inputs.now.nanos();
        let mut votes: Vec<(usize, u64, AlgorithmOutputs)> = Vec::new();
        for i in 0..self.replicas.len() {
            if !self.votable(&self.replicas[i]) {
                continue;
            }
            let out = self.replicas[i].state.run_incremental(inputs);
            self.replicas[i].next_seq += 1;
            votes.push((i, fingerprint_outputs(&out), out));
        }
        self.seq += 1;

        // Majority fingerprint; ties break toward the primary's vote so a
        // 1-vs-1 split cannot depose a healthy primary.
        let mut counts: Vec<(u64, usize)> = Vec::new();
        for &(_, fp, _) in &votes {
            match counts.iter_mut().find(|(f, _)| *f == fp) {
                Some((_, c)) => *c += 1,
                None => counts.push((fp, 1)),
            }
        }
        let primary_fp = votes.iter().find(|&&(i, ..)| i == self.primary).map(|&(_, fp, _)| fp);
        let majority_fp = counts
            .iter()
            .max_by_key(|&&(fp, c)| (c, Some(fp) == primary_fp))
            .map(|&(fp, _)| fp)
            .expect("at least the primary voted");

        let mut newly_quarantined = Vec::new();
        for &(i, fp, _) in &votes {
            if fp != majority_fp {
                self.replicas[i].quarantined = true;
                self.divergences += 1;
                newly_quarantined.push(i);
                self.flight.note(self.last_t_ns, "divergence", self.seq, format!("replica {i}"));
                self.flight.note(self.last_t_ns, "quarantine", self.seq, format!("replica {i}"));
            }
        }

        let view_changed = primary_fp != Some(majority_fp);
        if view_changed {
            self.promote();
        }
        let outputs = votes
            .into_iter()
            .find(|&(_, fp, _)| fp == majority_fp)
            .map(|(_, _, out)| out)
            .expect("majority vote exists");
        TickOutcome { outputs, fingerprint: majority_fp, newly_quarantined, view_changed }
    }

    /// Crash the current primary and promote a successor.
    pub fn crash_primary(&mut self) {
        self.replicas[self.primary].live = false;
        self.promote();
    }

    /// Promote the smallest-id live, unquarantined, in-sync replica —
    /// the deterministic view-change rule.
    fn promote(&mut self) {
        self.view_changes += 1;
        let next = self
            .replicas
            .iter()
            .find(|r| r.live && !r.quarantined && !r.partitioned && r.next_seq == self.seq)
            .map(|r| r.id)
            .expect("no promotable replica left");
        self.flight.note(self.last_t_ns, "view_change", self.seq, format!("primary -> {next}"));
        self.primary = next;
    }

    /// Partition one replica away: it stops receiving input batches.
    pub fn partition(&mut self, id: usize) {
        assert_ne!(id, self.primary, "partition a follower, crash the primary");
        self.replicas[id].partitioned = true;
    }

    /// Heal a partitioned replica by a checkpoint resync from the current
    /// primary — through the real JSON encode/decode path.
    pub fn heal(&mut self, id: usize) -> Result<(), String> {
        let blob = self.replicas[self.primary].state.checkpoint().encode();
        let snap = Snapshot::decode(&blob)?;
        let state = AlgorithmState::restore(self.cfg, &snap)?;
        let r = &mut self.replicas[id];
        r.state = state;
        r.partitioned = false;
        r.quarantined = false;
        r.live = true;
        r.next_seq = snap.runs;
        debug_assert_eq!(snap.runs, self.seq);
        self.flight.note(self.last_t_ns, "checkpoint", self.seq, format!("resync replica {id}"));
        Ok(())
    }

    /// Silently corrupt one replica's state via a single bit flip in its
    /// checkpoint — the fault the fingerprint cross-check exists to catch.
    /// Prefers a capacity-estimate bit (estimates persist across intervals
    /// and are enumerated in every output, so the corruption cannot wash
    /// out undetected), then a congestion-history bit, then an RNG-state
    /// bit.
    pub fn bit_flip(&mut self, id: usize) {
        let mut snap = self.replicas[id].state.checkpoint();
        if let Some(e) = snap.estimates.first_mut() {
            e.capacity_bits ^= 1 << 52;
        } else if let Some(m) = snap.memories.first_mut() {
            m.hist ^= 0b001;
        } else {
            snap.rng[0] ^= 1;
        }
        let next_seq = self.replicas[id].next_seq;
        self.replicas[id].state =
            AlgorithmState::restore(self.cfg, &snap).expect("same config round-trips");
        self.replicas[id].next_seq = next_seq;
    }

    /// The algorithm seed every member was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Build a failure dump from the cluster's current state: the flight
    /// window, the replication counters, the seed and config fingerprint.
    /// The caller picks `reason` (e.g. `"replica_quarantine"`) and a label.
    pub fn blackbox(&self, reason: &str, label: &str) -> Blackbox {
        Blackbox {
            reason: reason.to_string(),
            label: label.to_string(),
            seed: self.seed,
            config_fingerprint: format!("{:016x}", self.cfg.fingerprint()),
            t_ns: self.last_t_ns,
            counters: vec![
                ("repl.divergences".to_string(), self.divergences),
                ("repl.seq".to_string(), self.seq),
                ("repl.view_changes".to_string(), self.view_changes),
            ],
            occurrences: self.flight.occurrences(),
            ring_dropped: self.flight.dropped(),
        }
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
        let mut t = ReplicaTracker::new(4);
        t.record(0, 100);
        t.record(1, 200);
        assert_eq!(t.verdict(0, Some(100)), Some(AckVerdict::Match));
        assert_eq!(t.verdict(1, Some(999)), Some(AckVerdict::Divergent));
        assert_eq!(t.verdict(7, Some(1)), None, "outside the window");
        assert_eq!(t.verdict(5, None), Some(AckVerdict::Behind));
        assert_eq!(t.lag_of(0), 1);
        for s in 2..10 {
            t.record(s, s);
        }
        assert_eq!(t.verdict(0, Some(100)), None, "evicted from the window");
    }
}
