//! The five stages of the TopoSense algorithm (paper Fig. 4).
//!
//! Each stage is a pure function over session trees plus the controller's
//! persistent memory, so every one is unit-tested in isolation; the
//! [`crate::algorithm`] module wires them together in paper order:
//!
//! ```text
//! for each session:   compute congestion state for each node
//! estimate link bandwidths for all shared links
//! for each session:   find bottleneck bandwidths; estimate fair shares
//! for each session:   compute subscription level for each leaf
//! ```

pub mod bottleneck;
pub mod capacity;
pub mod congestion;
#[doc(hidden)]
pub mod reference;
pub mod sharing;
pub mod subscription;

pub use capacity::{CapacityEstimator, SessionLinkObs};
pub use congestion::{LeafObs, NodeState};
pub use sharing::SharingScratch;
