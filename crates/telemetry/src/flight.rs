//! Control-plane flight recorder: a bounded ring of notable occurrences.
//!
//! Where the netsim `TraceLog` records packet-level happenings, this ring
//! records *control-plane* ones — interval start/end, fallback entry,
//! replica quarantine, standby takeover, checkpoint — so a black-box dump
//! after a failure can show the last window of decisions, not just the
//! last window of packets. Like every instrument in this crate it is a
//! pure observer: nothing ever reads an occurrence back into a decision.

use serde_json::wire;

/// Wire form of [`Occurrence::kind`]: the label on the way out, interned
/// back to the static label space on the way in. Kinds are a closed set;
/// an unknown kind is a schema violation worth surfacing.
mod kind {
    use serde_json::{ToJson, Value};

    const KINDS: &[&str] =
        &["interval_start", "interval_end", "fallback", "quarantine", "takeover", "checkpoint"];

    pub(crate) fn to_json(kind: &&'static str) -> Value {
        kind.to_json()
    }

    pub(crate) fn from_json(v: &Value) -> Result<&'static str, String> {
        crate::record::intern(v, KINDS, "occurrence kind")
    }
}

wire! {
    /// One notable control-plane happening.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Occurrence {
        /// Simulated time in nanoseconds.
        pub t_ns: u64,
        /// Stable kind label (`"interval_start"`, `"quarantine"`, ...).
        pub kind: &'static str as kind,
        /// Interval or replication sequence number the occurrence belongs to.
        pub seq: u64,
        /// Free-form detail (node id, fingerprint, reason...). Must be a
        /// function of simulation state only — it lands in deterministic dumps.
        pub detail: String,
    }
}

/// A last-N ring of [`Occurrence`]s, mirroring `netsim::TraceLog`'s
/// semantics: once full, each new entry overwrites the oldest and bumps
/// `dropped`.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    cap: usize,
    ring: Vec<Occurrence>,
    head: usize,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `cap` occurrences.
    pub fn new(cap: usize) -> Self {
        FlightRecorder { cap, ring: Vec::new(), head: 0, dropped: 0 }
    }

    /// Record one occurrence. A zero-capacity recorder records nothing.
    pub fn note(&mut self, t_ns: u64, kind: &'static str, seq: u64, detail: impl Into<String>) {
        if self.cap == 0 {
            return;
        }
        let occ = Occurrence { t_ns, kind, seq, detail: detail.into() };
        if self.ring.len() < self.cap {
            self.ring.push(occ);
        } else {
            self.ring[self.head] = occ;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// The retained occurrences, oldest surviving first.
    pub fn occurrences(&self) -> Vec<Occurrence> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        out
    }

    /// How many occurrences rolled off the front of the ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Occurrences currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_the_most_recent_occurrences() {
        let mut fr = FlightRecorder::new(2);
        for i in 0..5u64 {
            fr.note(i * 1_000, "interval_start", i, format!("i{i}"));
        }
        let occs = fr.occurrences();
        assert_eq!(occs.len(), 2);
        assert_eq!((occs[0].seq, occs[1].seq), (3, 4));
        assert_eq!(fr.dropped(), 3);
    }

    #[test]
    fn zero_capacity_recorder_is_inert() {
        let mut fr = FlightRecorder::new(0);
        fr.note(1, "quarantine", 0, "r2");
        assert!(fr.is_empty());
        assert_eq!(fr.dropped(), 0);
    }

    #[test]
    fn occurrence_encodes_to_one_json_object() {
        let occ = Occurrence { t_ns: 5, kind: "takeover", seq: 9, detail: "standby 3".into() };
        let line = serde_json::to_string(&occ).unwrap();
        assert_eq!(line, r#"{"t_ns":5,"kind":"takeover","seq":9,"detail":"standby 3"}"#);
    }
}
