//! Causal chain reconstruction over `"trace"` records.
//!
//! A cause id is minted by a receiver when it sends a report; the
//! controller copies it onto the decision it feeds and onto the
//! suggestion it sends back, and the receiver stamps it onto the layer
//! change it applies. Grouping the `"trace"` records of one (session,
//! receiver) pair by cause id therefore reconstructs every
//! report → decide → apply chain from the JSONL trail alone.

use crate::record::Record;

/// One hop of a chain: which phase, when, and at what layer level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hop {
    pub phase: &'static str,
    pub seq: u64,
    pub t_ns: u64,
    pub level: u64,
}

/// All hops sharing one cause id, in trail order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    pub cause: u64,
    pub session: u64,
    pub receiver: u64,
    pub hops: Vec<Hop>,
}

impl Chain {
    fn has_phase(&self, phase: &str) -> bool {
        self.hops.iter().any(|h| h.phase == phase)
    }

    /// True when the chain carries all three phases — the report reached
    /// the controller, fed a decision, and the suggestion was applied.
    pub fn is_complete(&self) -> bool {
        self.has_phase("report") && self.has_phase("decide") && self.has_phase("apply")
    }
}

/// Group the `"trace"` records of one (session, receiver) pair into
/// chains, one per cause id, preserving trail order within each chain
/// and ordering chains by first appearance.
pub fn reconstruct(records: &[Record], session: u64, receiver: u64) -> Vec<Chain> {
    let mut chains: Vec<Chain> = Vec::new();
    for r in records {
        let Record::Trace { seq, t_ns, phase, session: s, receiver: rcv, cause, level } = r else {
            continue;
        };
        if *s != session || *rcv != receiver {
            continue;
        }
        let hop = Hop { phase, seq: *seq, t_ns: *t_ns, level: *level };
        match chains.iter_mut().find(|c| c.cause == *cause) {
            Some(c) => c.hops.push(hop),
            None => chains.push(Chain { cause: *cause, session, receiver, hops: vec![hop] }),
        }
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(phase: &'static str, session: u64, receiver: u64, cause: u64, level: u64) -> Record {
        Record::Trace { seq: 1, t_ns: 1_000, phase, session, receiver, cause, level }
    }

    #[test]
    fn chains_group_by_cause_and_filter_by_pair() {
        let records = vec![
            trace("report", 1, 2, 77, 3),
            trace("report", 1, 9, 88, 3), // other receiver: ignored
            trace("decide", 1, 2, 77, 4),
            trace("apply", 1, 2, 77, 4),
            trace("report", 1, 2, 99, 4), // second chain, incomplete
            Record::Run { label: "x".into(), seed: 1, duration_ns: 0 },
        ];
        let chains = reconstruct(&records, 1, 2);
        assert_eq!(chains.len(), 2);
        assert!(chains[0].is_complete());
        assert_eq!(chains[0].cause, 77);
        let phases: Vec<&str> = chains[0].hops.iter().map(|h| h.phase).collect();
        assert_eq!(phases, ["report", "decide", "apply"]);
        assert!(!chains[1].is_complete());
    }

    #[test]
    fn no_matching_records_yields_no_chains() {
        let records = vec![trace("report", 1, 2, 5, 1)];
        assert!(reconstruct(&records, 2, 2).is_empty());
        assert!(reconstruct(&[], 1, 2).is_empty());
    }
}
