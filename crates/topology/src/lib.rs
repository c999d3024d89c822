//! # topology — multicast tree structures and discovery
//!
//! Everything TopoSense knows about the network comes through this crate:
//!
//! * [`tree::Tree`] — a rooted tree over simulator nodes with the BFS
//!   top-down and bottom-up passes every stage of the algorithm uses.
//! * [`session_tree::SessionTree`] — the per-session overlay of the
//!   per-layer multicast distribution trees ("the multicast session topology
//!   will be a tree" because layers are cumulative).
//! * [`discovery`] — the topology-discovery tool abstraction: ground-truth
//!   snapshots of the simulator's multicast state, aged by a configurable
//!   **staleness** (the knob behind the paper's Fig. 10).
//! * [`spec`] / [`generators`] — declarative topology descriptions and the
//!   paper's evaluation topologies (Fig. 5 A and B, the Fig. 1 example, and
//!   tiered Fig. 2-style random trees).

#![forbid(unsafe_code)]

pub mod discovery;
pub mod generators;
pub mod session_tree;
pub mod spec;
pub mod tree;

pub use session_tree::SessionTree;
pub use spec::{NodeRole, TopoSpec};
pub use tree::{DirtySet, SlotQueue, Tree};
