//! The paper's relative-deviation metric.
//!
//! For receiver `i` with subscription `x_i(Δt)` and optimal level `y_i`,
//! over a set of intervals `Δt` covering a window:
//!
//! ```text
//!            Σ_Δt | (x_i(Δt) − y_i) · ‖Δt‖ |
//! rel-dev =  ───────────────────────────────
//!            Σ_Δt   y_i · ‖Δt‖
//! ```
//!
//! Smaller is better; zero means the receiver sat at its optimum for the
//! whole window. Because a subscription series is piecewise constant, the
//! sums are exact integrals over the [`StepSeries`].
//!
//! Degenerate inputs — a zero optimum (the metric's denominator vanishes)
//! or an empty window — make the metric undefined; both functions return
//! `None` rather than panicking, so machine-generated campaign scenarios
//! can treat "undefined" as an explicit skipped gate instead of a crash.

use crate::step::StepSeries;
use netsim::SimTime;

/// Relative deviation of one receiver over `[start, end]`.
///
/// Returns `None` when the metric is undefined: `optimal` is zero or the
/// window is empty (`end <= start`).
pub fn relative_deviation(
    series: &StepSeries,
    optimal: u8,
    start: SimTime,
    end: SimTime,
) -> Option<f64> {
    if optimal == 0 || end <= start {
        return None;
    }
    let num = series.integrate(start, end, |v| (v as f64 - optimal as f64).abs());
    let den = optimal as f64 * end.since(start).as_secs_f64();
    Some(num / den)
}

/// Mean relative deviation over several receivers (the quantity Fig. 8 and
/// Fig. 10 plot), from each receiver's [`relative_deviation`] in order.
///
/// Receivers whose individual deviation is undefined (`None`) are excluded
/// from the mean; returns `None` when no receiver has a defined deviation —
/// there are no receivers, the window is empty, or every optimum is zero.
pub fn mean_relative_deviation(per_receiver: impl IntoIterator<Item = Option<f64>>) -> Option<f64> {
    let vals: Vec<f64> = per_receiver.into_iter().flatten().collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn perfect_subscription_deviates_zero() {
        let mut s = StepSeries::new();
        s.push(t(0), 4);
        assert_eq!(relative_deviation(&s, 4, t(0), t(100)), Some(0.0));
    }

    #[test]
    fn constant_offset() {
        // Held at 2 while the optimum is 4: |2-4| * T / (4 * T) = 0.5.
        let mut s = StepSeries::new();
        s.push(t(0), 2);
        assert!((relative_deviation(&s, 4, t(0), t(60)).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn transient_excursion_weighted_by_time() {
        // Optimal 2; at 2 except a 10 s excursion to 4 in a 100 s window:
        // |4-2|*10 / (2*100) = 0.1.
        let mut s = StepSeries::new();
        s.push(t(0), 2);
        s.push(t(50), 4);
        s.push(t(60), 2);
        let d = relative_deviation(&s, 2, t(0), t(100)).unwrap();
        assert!((d - 0.1).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn window_restriction() {
        let mut s = StepSeries::new();
        s.push(t(0), 2);
        s.push(t(50), 4);
        s.push(t(60), 2);
        // The second half [60, 100] is clean.
        assert_eq!(relative_deviation(&s, 2, t(60), t(100)), Some(0.0));
        // The window [50, 60] is entirely off by 2: 2*10/(2*10) = 1.
        assert!((relative_deviation(&s, 2, t(50), t(60)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn over_and_under_subscription_both_count() {
        // Optimal 3: 10 s at 1 (under by 2) + 10 s at 5 (over by 2).
        let mut s = StepSeries::new();
        s.push(t(0), 1);
        s.push(t(10), 5);
        s.push(t(20), 3);
        let d = relative_deviation(&s, 3, t(0), t(20)).unwrap();
        assert!((d - 2.0 / 3.0).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn mean_over_receivers() {
        let mut a = StepSeries::new();
        a.push(t(0), 4); // perfect, dev 0
        let mut b = StepSeries::new();
        b.push(t(0), 2); // optimal 4 -> dev 0.5
        let devs = [&a, &b].map(|s| relative_deviation(s, 4, t(0), t(10)));
        let m = mean_relative_deviation(devs).unwrap();
        assert!((m - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_optimum_is_undefined() {
        // Regression: this used to panic; campaign scenarios now rely on
        // the undefined case being reported, not crashed on.
        let s = StepSeries::new();
        assert_eq!(relative_deviation(&s, 0, t(0), t(1)), None);
    }

    #[test]
    fn empty_window_is_undefined() {
        // Regression: this used to panic (same fix as above).
        let mut s = StepSeries::new();
        s.push(t(0), 1);
        assert_eq!(relative_deviation(&s, 1, t(5), t(5)), None);
        assert_eq!(relative_deviation(&s, 1, t(7), t(5)), None);
    }

    #[test]
    fn mean_skips_undefined_receivers() {
        let mut a = StepSeries::new();
        a.push(t(0), 2); // optimal 4 -> dev 0.5
        let b = StepSeries::new(); // optimal 0 -> undefined, excluded
        let devs = [(&a, 4), (&b, 0)].map(|(s, y)| relative_deviation(s, y, t(0), t(10)));
        let m = mean_relative_deviation(devs).unwrap();
        assert!((m - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_of_nothing_is_none() {
        assert_eq!(mean_relative_deviation([]), None);
        let s = StepSeries::new();
        assert_eq!(mean_relative_deviation([relative_deviation(&s, 0, t(0), t(10))]), None);
        assert_eq!(mean_relative_deviation([relative_deviation(&s, 3, t(5), t(5))]), None);
    }
}
