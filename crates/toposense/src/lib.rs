//! # toposense — topology-aware layered-multicast congestion control
//!
//! The paper's primary contribution: an application-layer algorithm that
//! combines multicast **tree topology** (from a discovery tool) with
//! receiver **loss reports** to prescribe per-receiver layer-subscription
//! levels inside one administrative domain.
//!
//! The algorithm runs in a per-domain [`controller::Controller`] agent in
//! five stages (paper §III, Fig. 4), each implemented as a pure, separately
//! tested function in [`stages`]:
//!
//! 1. [`stages::congestion`] — label every session-tree node CONGESTED /
//!    NOT-CONGESTED from leaf loss rates, bottom-up, then propagate parental
//!    congestion top-down.
//! 2. [`stages::capacity`] — estimate shared-link capacities from observed
//!    throughput when *all* sessions crossing a link are lossy; creep the
//!    estimate upward each interval; periodically reset to ∞ and re-learn.
//! 3. [`stages::bottleneck`] — propagate minimum link capacity from the
//!    source down, then take the per-subtree max back up.
//! 4. [`stages::sharing`] — split shared-link capacity between sessions in
//!    proportion to each session's maximum possible demand `x_i`
//!    (`share_i = x_i · B / Σx_j`).
//! 5. [`stages::subscription`] — the Table I decision table: compute demand
//!    bottom-up with parental override and per-layer backoff, then allocate
//!    supply top-down.
//!
//! [`receiver::Receiver`] is the cooperating receiver agent: it subscribes
//! to layers, accounts loss RTCP-style, reports periodically, obeys
//! suggestions, and falls back to unilateral decisions when suggestions stop
//! arriving (lossy control channel).

#![forbid(unsafe_code)]

pub mod algorithm;
pub mod checkpoint;
pub mod config;
pub mod controller;
pub mod decision;
pub mod federation;
pub mod history;
pub mod messages;
pub mod receiver;
mod receiver_table;
pub mod replication;
pub mod stages;
pub mod sync;

pub use algorithm::{AlgorithmInputs, AlgorithmState, ReceiverReport};
pub use checkpoint::Snapshot;
pub use config::Config;
pub use controller::Controller;
pub use decision::{Action, NodeKind, SupplyWindow};
pub use federation::BorderSummary;
pub use history::BW_EQUAL_TOLERANCE;
pub use receiver::Receiver;
pub use replication::fingerprint_outputs;
