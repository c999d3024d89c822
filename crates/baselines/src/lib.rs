//! # baselines — comparison points for TopoSense
//!
//! * [`oracle`] — the **static optimal** subscription per receiver, computed
//!   from ground-truth capacities by discrete max-min filling. This is the
//!   `y_i` in the paper's relative-deviation metric.
//! * [`rlm`] — a **receiver-driven** layered-multicast controller in the
//!   spirit of McCanne et al.: independent join experiments with exponential
//!   backoff and no topology knowledge. This is the "congestion control
//!   mechanism which is unaware of the topological relationship" that the
//!   paper's Fig. 1 example argues against.
//! * [`fixed`] — a subscribe-k-layers strawman (no adaptation at all).
//! * [`tfrc`] — an equation-based (TCP-friendly) receiver, executable form
//!   of the §VI argument that AIMD-style rates map poorly onto layers.

#![forbid(unsafe_code)]

pub mod fixed;
pub mod oracle;
pub mod rlm;
pub mod tfrc;

pub use fixed::FixedReceiver;
pub use oracle::optimal_levels;
pub use rlm::{RlmParams, RlmReceiver};
pub use tfrc::{TfrcParams, TfrcReceiver};
