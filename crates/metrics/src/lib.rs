//! # metrics — the paper's evaluation metrics
//!
//! * [`step::StepSeries`] — piecewise-constant subscription-level series
//!   built from a receiver's change log.
//! * [`deviation`] — the paper's **relative deviation** metric:
//!   `Σ_Δt |x_i(Δt) − y_i| · ‖Δt‖  /  Σ_Δt y_i · ‖Δt‖`.
//! * [`stability`] — subscription-change counts and mean time between
//!   changes (Figs. 6–7).
//! * [`fairness`] — Jain's index and max/min share ratio (Fig. 8 support).
//! * [`window_mean`] — the mean of `(time, value)` samples in a window.
//! * [`recovery`] — post-fault recovery time (wall clock and controller
//!   intervals) for the chaos scenarios.

#![forbid(unsafe_code)]

pub mod deviation;
pub mod fairness;
pub mod recovery;
pub mod stability;
pub mod step;
mod timeseries;

pub use deviation::relative_deviation;
pub use fairness::{jain_index, max_min_ratio};
pub use recovery::{intervals_to_recover, recovery_time};
pub use step::StepSeries;
pub use timeseries::window_mean;
