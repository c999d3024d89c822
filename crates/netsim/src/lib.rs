//! # netsim — deterministic discrete-event packet-network simulator
//!
//! A small, fully deterministic store-and-forward packet simulator built as
//! the substrate for reproducing *"Using Tree Topology for Multicast
//! Congestion Control"* (Jagannathan & Almeroth, ICPP 2001). It plays the
//! role the paper's authors gave to *ns*: packets, drop-tail FIFO links with
//! bandwidth and propagation delay, IP-multicast-style group membership with
//! join/leave latency, and application agents that exchange packets over the
//! simulated network.
//!
//! Design goals, in order:
//!
//! 1. **Determinism** — identical seeds produce bit-identical runs. Event
//!    ties are broken by insertion order; all randomness flows from
//!    explicitly seeded per-component RNG streams.
//! 2. **Fidelity where the paper needs it** — queueing loss at bottleneck
//!    links, serialization + propagation delay, multicast fan-out along a
//!    distribution tree, IGMP-style leave latency, lossy control traffic.
//! 3. **Speed** — a 1200-simulated-second run with 16 layered sessions
//!    completes in well under a second in release builds, so full parameter
//!    sweeps for every figure are cheap.
//!
//! The top-level entry point is [`Simulator`]; applications implement
//! [`App`] and interact with the world through [`Ctx`].

// The workspace's one `unsafe` block outside tests is `prefetch` below (the
// other is the event queue's test-only counting allocator); every other
// crate and shim forbids unsafe code outright.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod app;
pub mod event;
pub mod faults;
pub mod link;
pub mod multicast;
pub mod node;
pub mod packet;
pub mod par;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod stats;
pub mod time;
pub mod trace;

pub use app::{App, AppId, Ctx};
pub use event::{Event, EventQueue, QueueBackend};
pub use faults::{FaultKind, FaultPlan};
pub use link::{DirLinkId, LinkConfig, LinkStats, QueueDiscipline};
pub use multicast::{GroupId, GroupSnapshot, MulticastConfig};
pub use node::NodeId;
pub use packet::{ControlBody, Packet, SessionId};
pub use rng::{derive_stream_seed, RngStream};
pub use shard::{RelayApp, ShardedSim};
pub use sim::{NetworkBuilder, SimConfig, SimProfile, Simulator};
pub use stats::{LossWindow, SeqTracker};
pub use time::{SimDuration, SimTime};

/// Hint the CPU to pull every cache line `*r` overlaps into L1. The run loop
/// issues this for the links the wheel's draining slot says the next few
/// events will touch (DESIGN.md §12, "Lookahead prefetch"): a hint changes
/// no architectural state, so it cannot change a run. A no-op on targets
/// other than x86-64.
#[inline]
pub(crate) fn prefetch<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let hint = |offset: usize| {
            let byte = std::ptr::from_ref(r).cast::<i8>().wrapping_add(offset);
            // SAFETY: `_mm_prefetch` needs SSE, which is part of the x86-64
            // baseline; the instruction never faults and reads or writes
            // nothing the program can observe, and `byte` lies inside the
            // live `*r`, so the caller has no obligation to uphold.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(byte) };
        };
        // One hint per line-sized stride, plus the last byte: `*r` need not
        // start on a line boundary, so its tail may sit one line further.
        let size = std::mem::size_of::<T>();
        let mut offset = 0;
        while offset < size {
            hint(offset);
            offset += LINE;
        }
        if size > 1 {
            hint(size - 1);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}
