//! Checkpoint/restore of [`AlgorithmState`](crate::algorithm::AlgorithmState).
//!
//! A [`Snapshot`] captures everything the five-stage pipeline carries
//! between intervals — RNG stream position, capacity estimates, per-node
//! memories, backoff timers, and the run counter — in a canonical sorted
//! order, so two snapshots of byte-identical states are byte-identical
//! JSON. Scratch buffers and the change cache are *not* captured: both
//! are rebuilt by the first post-restore run (which starts cold, exactly
//! like a run after
//! [`invalidate`](crate::algorithm::AlgorithmState::invalidate), and is
//! byte-identical to a warm run per DESIGN.md §11).
//!
//! The JSON rendering is `toposense.checkpoint.v1`, a wire record
//! (DESIGN.md "Wire records": declared once below, every field an integer,
//! so restore is exact by construction) and embeds a
//! [`Config::fingerprint`](crate::Config::fingerprint) so a snapshot can
//! only be restored under the parameter set it was taken with.

use serde_json::wire;
use std::path::Path;

/// Schema identifier written into every checkpoint file.
pub const SCHEMA: &str = "toposense.checkpoint.v1";

wire! {
    /// One finite link-capacity estimate.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct EstimateEntry {
        pub link: u32,
        /// `f64::to_bits` of the capacity in bits/s.
        pub capacity_bits: u64 => "cap_bits",
        /// When the estimate was (re)learned, in sim nanoseconds.
        pub set_at_ns: u64,
    }
}

wire! {
    /// One `(session, node)` memory cell of the congestion/subscription stages.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct MemoryEntry {
        pub session: u32,
        pub node: u32,
        /// 3-bit congestion history (`CongestionHistory::bits`).
        pub hist: u8,
        pub bytes_older: u64,
        pub bytes_recent: u64,
        pub supply_older: u8,
        pub supply_recent: u8,
        pub demand_prev: Option<u8>,
    }
}

wire! {
    /// One `(session, node, level)` backoff record: live timer and/or failure
    /// count (failures persist past expiry — they scale future draws).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct BackoffEntry {
        pub session: u32,
        pub node: u32,
        pub level: u8,
        /// Expiry in sim nanoseconds; `None` when only the failure count lives.
        pub until_ns: Option<u64>,
        pub failures: u32,
    }
}

wire! {
    /// A complete, canonical capture of one `AlgorithmState`.
    ///
    /// All vectors are sorted by their id columns; equality on `Snapshot` is
    /// therefore state equality, and the JSON rendering is byte-stable.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Snapshot {
        "schema" = SCHEMA;
        /// [`Config::fingerprint`](crate::Config::fingerprint) of the
        /// parameter set the state ran under.
        pub config_fingerprint: u64,
        /// Completed pipeline runs.
        pub runs: u64,
        /// Raw xoshiro256** state of the algorithm's RNG stream.
        pub rng: [u64; 4],
        pub estimates: Vec<EstimateEntry>,
        pub memories: Vec<MemoryEntry>,
        pub backoffs: Vec<BackoffEntry>,
    }
}

impl Snapshot {
    /// Canonical single-line JSON text (what [`Self::save`] writes and the
    /// replication layer's `CheckpointTransfer` carries).
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization is infallible")
    }

    /// Parse and validate a checkpoint document: the schema tag, every
    /// field's presence and type, and the invariants no field type carries.
    pub fn decode(text: &str) -> Result<Snapshot, String> {
        let s: Snapshot = serde_json::decode(text)?;
        if !s.estimates.windows(2).all(|w| w[0].link < w[1].link) {
            return Err("'estimates' not strictly sorted by link".into());
        }
        if !s.memories.windows(2).all(|w| (w[0].session, w[0].node) < (w[1].session, w[1].node)) {
            return Err("'memories' not strictly sorted by (session, node)".into());
        }
        if let Some(m) = s.memories.iter().find(|m| m.hist >= 8) {
            return Err(format!("memory ({}, {}) has a >3-bit history", m.session, m.node));
        }
        let bkey = |b: &BackoffEntry| (b.session, b.node, b.level);
        if !s.backoffs.windows(2).all(|w| bkey(&w[0]) < bkey(&w[1])) {
            return Err("'backoffs' not strictly sorted by (session, node, level)".into());
        }
        Ok(s)
    }

    /// Write the canonical rendering to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.encode() + "\n")
    }

    /// Read and validate a checkpoint file.
    pub fn load(path: &Path) -> Result<Snapshot, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Self::decode(text.trim_end())
    }

    /// Human-readable one-screen summary (the `inspect snapshot summary`
    /// rendering).
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "schema              {SCHEMA}");
        let _ = writeln!(out, "config fingerprint  {:#018x}", self.config_fingerprint);
        let _ = writeln!(out, "completed runs      {}", self.runs);
        let _ = writeln!(
            out,
            "rng state           [{:#018x}, {:#018x}, {:#018x}, {:#018x}]",
            self.rng[0], self.rng[1], self.rng[2], self.rng[3]
        );
        let _ = writeln!(out, "capacity estimates  {}", self.estimates.len());
        for e in &self.estimates {
            let _ = writeln!(
                out,
                "  link {:<5} {:>14.1} bps  set at {:.3}s",
                e.link,
                f64::from_bits(e.capacity_bits),
                e.set_at_ns as f64 / 1e9
            );
        }
        let sessions: std::collections::BTreeSet<u32> =
            self.memories.iter().map(|m| m.session).collect();
        let _ = writeln!(
            out,
            "node memories       {} across {} session(s)",
            self.memories.len(),
            sessions.len()
        );
        let live = self.backoffs.iter().filter(|b| b.until_ns.is_some()).count();
        let _ =
            writeln!(out, "backoff records     {} ({} live timer(s))", self.backoffs.len(), live);
        out
    }

    /// Field-level diff of two snapshots, one line per difference; empty
    /// when the snapshots are identical.
    pub fn diff(&self, other: &Snapshot) -> Vec<String> {
        use std::collections::BTreeMap;
        let mut out = Vec::new();
        if self.config_fingerprint != other.config_fingerprint {
            out.push(format!(
                "config fingerprint: {:#018x} vs {:#018x}",
                self.config_fingerprint, other.config_fingerprint
            ));
        }
        if self.runs != other.runs {
            out.push(format!("runs: {} vs {}", self.runs, other.runs));
        }
        if self.rng != other.rng {
            out.push(format!("rng state: {:x?} vs {:x?}", self.rng, other.rng));
        }

        let a_est: BTreeMap<u32, &EstimateEntry> =
            self.estimates.iter().map(|e| (e.link, e)).collect();
        let b_est: BTreeMap<u32, &EstimateEntry> =
            other.estimates.iter().map(|e| (e.link, e)).collect();
        for link in a_est.keys().chain(b_est.keys()).collect::<std::collections::BTreeSet<_>>() {
            match (a_est.get(link), b_est.get(link)) {
                (Some(a), Some(b)) if a != b => out.push(format!(
                    "estimate link {link}: {:.1} bps @{} vs {:.1} bps @{}",
                    f64::from_bits(a.capacity_bits),
                    a.set_at_ns,
                    f64::from_bits(b.capacity_bits),
                    b.set_at_ns
                )),
                (Some(_), None) => out.push(format!("estimate link {link}: only in first")),
                (None, Some(_)) => out.push(format!("estimate link {link}: only in second")),
                _ => {}
            }
        }

        let a_mem: BTreeMap<(u32, u32), &MemoryEntry> =
            self.memories.iter().map(|m| ((m.session, m.node), m)).collect();
        let b_mem: BTreeMap<(u32, u32), &MemoryEntry> =
            other.memories.iter().map(|m| ((m.session, m.node), m)).collect();
        for key in a_mem.keys().chain(b_mem.keys()).collect::<std::collections::BTreeSet<_>>() {
            match (a_mem.get(key), b_mem.get(key)) {
                (Some(a), Some(b)) if a != b => out.push(format!(
                    "memory (s{}, n{}): hist {:#05b}/{:#05b} bytes {}:{} vs {}:{} supply {}:{} \
                     vs {}:{} demand {:?} vs {:?}",
                    key.0,
                    key.1,
                    a.hist,
                    b.hist,
                    a.bytes_older,
                    a.bytes_recent,
                    b.bytes_older,
                    b.bytes_recent,
                    a.supply_older,
                    a.supply_recent,
                    b.supply_older,
                    b.supply_recent,
                    a.demand_prev,
                    b.demand_prev
                )),
                (Some(_), None) => {
                    out.push(format!("memory (s{}, n{}): only in first", key.0, key.1))
                }
                (None, Some(_)) => {
                    out.push(format!("memory (s{}, n{}): only in second", key.0, key.1))
                }
                _ => {}
            }
        }

        let a_bo: BTreeMap<(u32, u32, u8), &BackoffEntry> =
            self.backoffs.iter().map(|b| ((b.session, b.node, b.level), b)).collect();
        let b_bo: BTreeMap<(u32, u32, u8), &BackoffEntry> =
            other.backoffs.iter().map(|b| ((b.session, b.node, b.level), b)).collect();
        for key in a_bo.keys().chain(b_bo.keys()).collect::<std::collections::BTreeSet<_>>() {
            match (a_bo.get(key), b_bo.get(key)) {
                (Some(a), Some(b)) if a != b => out.push(format!(
                    "backoff (s{}, n{}, l{}): until {:?} fails {} vs until {:?} fails {}",
                    key.0, key.1, key.2, a.until_ns, a.failures, b.until_ns, b.failures
                )),
                (Some(_), None) => {
                    out.push(format!("backoff (s{}, n{}, l{}): only in first", key.0, key.1, key.2))
                }
                (None, Some(_)) => out
                    .push(format!("backoff (s{}, n{}, l{}): only in second", key.0, key.1, key.2)),
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            config_fingerprint: 0xdead_beef_cafe_f00d,
            runs: 17,
            rng: [1, 2, 3, u64::MAX],
            estimates: vec![EstimateEntry {
                link: 4,
                capacity_bits: 150_000.0f64.to_bits(),
                set_at_ns: 42_000_000_000,
            }],
            memories: vec![
                MemoryEntry {
                    session: 0,
                    node: 3,
                    hist: 0b101,
                    bytes_older: 10,
                    bytes_recent: 20,
                    supply_older: 2,
                    supply_recent: 3,
                    demand_prev: Some(4),
                },
                MemoryEntry {
                    session: 0,
                    node: 5,
                    hist: 0,
                    bytes_older: 0,
                    bytes_recent: 0,
                    supply_older: 1,
                    supply_recent: 1,
                    demand_prev: None,
                },
            ],
            backoffs: vec![BackoffEntry {
                session: 0,
                node: 3,
                level: 2,
                until_ns: Some(60_000_000_000),
                failures: 1,
            }],
        }
    }

    #[test]
    fn encode_decode_round_trip_is_identity() {
        let s = sample();
        let text = s.encode();
        let back = Snapshot::decode(&text).expect("decodes");
        assert_eq!(back, s);
        assert_eq!(back.encode(), text, "canonical rendering is stable");
    }

    #[test]
    fn schema_and_sort_violations_are_rejected() {
        let s = sample();
        let bad_schema = s.encode().replace(SCHEMA, "toposense.checkpoint.v0");
        assert!(Snapshot::decode(&bad_schema).unwrap_err().contains("schema mismatch"));

        let mut unsorted = sample();
        unsorted.memories.swap(0, 1);
        let err = Snapshot::decode(&unsorted.encode()).unwrap_err();
        assert!(err.contains("not strictly sorted"), "{err}");

        assert!(Snapshot::decode("not json").is_err());
        assert!(Snapshot::decode("{}").is_err());

        // Integers the entry types cannot hold are rejected by name, not
        // truncated into a plausible row (256 -> 0, 2^32 + 5 -> 5).
        for (field, from, to) in [
            ("hist", "\"hist\":5", "\"hist\":8"),
            ("hist", "\"hist\":5", "\"hist\":256"),
            ("node", "\"node\":5", "\"node\":4294967301"),
            ("supply_recent", "\"supply_recent\":3", "\"supply_recent\":256"),
            ("demand_prev", "\"demand_prev\":4", "\"demand_prev\":260"),
            ("level", "\"level\":2", "\"level\":300"),
            ("link", "\"link\":4", "\"link\":4294967300"),
        ] {
            let text = s.encode();
            assert_eq!(text.matches(from).count(), 1, "{from}");
            let err = Snapshot::decode(&text.replace(from, to)).unwrap_err();
            assert!(err.contains(field), "{to}: {err}");
        }

        // A hand-built snapshot bypasses the decoder: restore must refuse
        // it as well, not panic.
        let cfg = crate::Config::default();
        let mut wide = Snapshot { config_fingerprint: cfg.fingerprint(), ..sample() };
        wide.memories[0].hist = 8;
        let err = crate::algorithm::AlgorithmState::restore(cfg, &wide).err().expect("refused");
        assert!(err.contains("history"), "{err}");
    }

    #[test]
    fn diff_is_empty_iff_equal_and_names_every_divergence() {
        let a = sample();
        assert!(a.diff(&a).is_empty());
        let mut b = sample();
        b.runs += 1;
        b.memories[0].hist = 0b010;
        b.estimates.clear();
        let d = a.diff(&b);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().any(|l| l.starts_with("runs:")));
        assert!(d.iter().any(|l| l.starts_with("memory (s0, n3)")));
        assert!(d.iter().any(|l| l.contains("only in first")));
    }
}
