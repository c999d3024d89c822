//! Black-box dumps: a bounded, deterministic snapshot written on failure.
//!
//! When a campaign gate fails or a chaos recovery bound trips, the harness
//! dumps a `blackbox.json` carrying the controllers' flight-recorder
//! window (the last [`Occurrence`]s their `netsim::trace::Ring` kept), the
//! run's counters, its seed and config fingerprint — everything
//! needed to understand the last moments without re-running. The dump is
//! schema-versioned (`blackbox.v1`) and round-trips exactly, so CI can
//! diff dumps across reruns the same way it diffs the JSONL trail.

use crate::record::counter_map;
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
    /// One notable control-plane happening. Like every instrument in this
    /// crate it is a pure observer: nothing reads an occurrence back into
    /// a decision.
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

/// Bump when the dump shape changes incompatibly.
pub const BLACKBOX_SCHEMA: &str = "blackbox.v1";

wire! {
    /// One failure dump.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Blackbox {
        "schema" = BLACKBOX_SCHEMA;
        /// What tripped the dump: `"campaign_gate_failure"`,
        /// `"replica_quarantine"`, or `"chaos_recovery_failure"`.
        pub reason: String,
        /// Scenario / run / replica label.
        pub label: String,
        /// Master seed of the run.
        pub seed: u64,
        /// Fingerprint of the effective configuration (hex).
        pub config_fingerprint: String,
        /// Simulated time of the dump in nanoseconds.
        pub t_ns: u64,
        /// Sorted counter snapshot at dump time.
        pub counters: Vec<(String, u64)> as counter_map,
        /// The flight-recorder window preceding the failure.
        pub occurrences: Vec<Occurrence>,
        /// Occurrences that rolled off the ring before the dump.
        pub ring_dropped: u64,
    }
}

impl Blackbox {
    /// Compact single-document JSON.
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("blackbox serialization is infallible")
    }

    /// Parse and validate a dump; errors name the first schema mismatch.
    pub fn decode(text: &str) -> Result<Blackbox, String> {
        serde_json::decode(text)
    }

    /// Write the dump to `path` (with a trailing newline).
    pub fn write(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.encode() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Blackbox {
        Blackbox {
            reason: "replica_quarantine".into(),
            label: "replica-2".into(),
            seed: 42,
            config_fingerprint: "deadbeefcafef00d".into(),
            t_ns: 16_000_000_000,
            counters: vec![("repl.divergences".into(), 1), ("repl.view_changes".into(), 0)],
            occurrences: vec![
                Occurrence {
                    t_ns: 8_000_000_000,
                    kind: "interval_start",
                    seq: 1,
                    detail: "".into(),
                },
                Occurrence {
                    t_ns: 16_000_000_000,
                    kind: "quarantine",
                    seq: 2,
                    detail: "fp mismatch".into(),
                },
            ],
            ring_dropped: 0,
        }
    }

    #[test]
    fn occurrence_encodes_to_one_json_object() {
        let occ = Occurrence { t_ns: 5, kind: "takeover", seq: 9, detail: "standby 3".into() };
        let line = serde_json::to_string(&occ).unwrap();
        assert_eq!(line, r#"{"t_ns":5,"kind":"takeover","seq":9,"detail":"standby 3"}"#);
    }

    #[test]
    fn encode_decode_round_trip_is_exact() {
        let bb = sample();
        let text = bb.encode();
        let back = Blackbox::decode(&text).unwrap();
        assert_eq!(back, bb);
        assert_eq!(back.encode(), text, "re-encode must be byte-identical");
    }

    #[test]
    fn decode_rejects_drift() {
        assert!(Blackbox::decode("not json").unwrap_err().contains("invalid JSON"));
        let wrong = sample().encode().replace("blackbox.v1", "blackbox.v9");
        assert!(Blackbox::decode(&wrong).unwrap_err().contains("unsupported schema"));
        let bad_kind = sample().encode().replace("quarantine", "mystery_kind");
        // The reason string also contains "quarantine"; only assert that an
        // unknown occurrence kind is rejected somewhere in the document.
        assert!(Blackbox::decode(&bad_kind).is_err());
        // A kind the controller never writes is not in the closed set.
        let unwritten = sample().encode().replace("interval_start", "view_change");
        let err = Blackbox::decode(&unwritten).unwrap_err();
        assert!(err.contains("unknown occurrence kind 'view_change'"), "{err}");
    }

    #[test]
    fn write_and_read_back() {
        let dir = std::env::temp_dir().join("toposense-blackbox-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blackbox.json");
        let bb = sample();
        bb.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(Blackbox::decode(text.trim()).unwrap(), bb);
        std::fs::remove_dir_all(&dir).ok();
    }
}
