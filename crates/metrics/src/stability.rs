//! Stability metrics (Figs. 6–7).
//!
//! The paper "counted the number of times layers were added or dropped by
//! each receiver over the period of 1200 seconds" and plots, per scenario,
//! the **maximum** change count over receivers plus the **mean time elapsed
//! between successive changes** for that receiver.

use crate::step::StepSeries;
use netsim::SimTime;

/// Number of subscription changes in `[start, end)`, excluding the initial
/// join at or before `start` (joining the base layer is not a "change").
fn change_count(series: &StepSeries, start: SimTime, end: SimTime) -> usize {
    series.changes_in(start, end)
}

/// Mean time between successive changes within `[start, end)`.
///
/// With fewer than two changes there is no gap to average; the window
/// length is returned (the subscription was stable for the whole window).
fn mean_time_between_changes(series: &StepSeries, start: SimTime, end: SimTime) -> f64 {
    let times: Vec<SimTime> =
        series.points().map(|(t, _)| t).filter(|&t| t >= start && t < end).collect();
    if times.len() < 2 {
        return end.since(start).as_secs_f64();
    }
    let total = times.last().unwrap().since(times[0]).as_secs_f64();
    total / (times.len() - 1) as f64
}

/// The worst (max-change) receiver of a set: returns
/// `(max change count, mean time between changes of that receiver)`, the
/// pair each point of Figs. 6–7 reports.
pub fn worst_receiver(series: &[&StepSeries], start: SimTime, end: SimTime) -> (usize, f64) {
    assert!(!series.is_empty());
    let (idx, count) = series
        .iter()
        .enumerate()
        .map(|(i, s)| (i, change_count(s, start, end)))
        .max_by_key(|&(_, c)| c)
        .expect("non-empty");
    (count, mean_time_between_changes(series[idx], start, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn series(times: &[u64]) -> StepSeries {
        let mut s = StepSeries::new();
        for (i, &ts) in times.iter().enumerate() {
            s.push(t(ts), (i % 4) as u8 + 1);
        }
        s
    }

    #[test]
    fn counting_excludes_outside_window() {
        let s = series(&[0, 10, 20, 500]);
        assert_eq!(change_count(&s, t(1), t(100)), 2);
        assert_eq!(change_count(&s, t(0), t(1000)), 4);
    }

    #[test]
    fn mean_gap() {
        let s = series(&[10, 20, 40]);
        // Gaps 10 and 20 -> mean 15.
        assert!((mean_time_between_changes(&s, t(0), t(100)) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn stable_receiver_reports_window_length() {
        let s = series(&[5]);
        assert_eq!(mean_time_between_changes(&s, t(0), t(1200)), 1200.0);
        let empty = StepSeries::new();
        assert_eq!(mean_time_between_changes(&empty, t(0), t(600)), 600.0);
    }

    #[test]
    fn worst_receiver_is_max_count() {
        let a = series(&[10]);
        let b = series(&[10, 20, 30, 40]);
        let (count, gap) = worst_receiver(&[&a, &b], t(0), t(100));
        assert_eq!(count, 4);
        assert!((gap - 10.0).abs() < 1e-12);
    }
}
