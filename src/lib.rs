//! # toposense-repro
//!
//! Umbrella crate for the reproduction of *"Using Tree Topology for
//! Multicast Congestion Control"* (Jagannathan & Almeroth, ICPP 2001).
//!
//! Re-exports every workspace crate under one roof so examples, integration
//! tests, and the per-figure experiment binaries have a single import point:
//!
//! * [`netsim`] — the discrete-event network simulator substrate.
//! * [`topology`] — tree structures, generators, and topology discovery.
//! * [`traffic`] — layered CBR/VBR source models.
//! * [`toposense`] — the TopoSense algorithm and its agents.
//! * [`baselines`] — RLM-style receiver-driven control, oracle, strawmen.
//! * [`metrics`] — the paper's evaluation metrics.
//! * [`scenarios`] — end-to-end experiment runners for every figure.

#![forbid(unsafe_code)]

pub use baselines;
pub use metrics;
pub use netsim;
pub use scenarios;
pub use topology;
pub use toposense;
pub use traffic;
