//! # traffic — layered media source models
//!
//! The paper's sources transmit "a layered video session consisting of 6
//! layers. The base layer is sent at a rate of 32Kbps, with the rate
//! doubling for each subsequent layer", as 1000-byte packets, either CBR or
//! VBR. The VBR process follows Gopalakrishnan et al.: per one-second
//! interval a layer emits `n` packets where `n = 1` with probability
//! `1 - 1/P` and `n = P·A + 1 - P` with probability `1/P` (`A` = mean
//! packets per interval, `P` = peak-to-mean ratio, 2–10 observed).
//!
//! * [`layers::LayerSpec`] — layer rates and subscription-level arithmetic.
//! * [`session::SessionCatalog`] — the session → groups/layers directory
//!   that sources, receivers, and controllers share.
//! * [`model::TrafficModel`] — CBR / VBR(P) packet-count processes.
//! * [`source::LayeredSource`] — the source application agent.
//! * [`background::OnOffFlood`] — a non-conforming transient flow for
//!   robustness experiments.

#![forbid(unsafe_code)]

pub mod background;
pub mod layers;
pub mod model;
pub mod session;
pub mod source;

pub use layers::LayerSpec;
pub use model::TrafficModel;
pub use session::SessionCatalog;
pub use source::LayeredSource;

/// The paper's packet size: 1000 bytes.
pub const PACKET_SIZE: u32 = 1000;
