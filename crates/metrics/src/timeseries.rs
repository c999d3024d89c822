//! Windowed statistics over `(time, value)` samples.

use netsim::SimTime;

/// Mean of the samples falling in `[start, end)`; `None` when the window is
/// empty.
pub fn window_mean(series: &[(SimTime, f64)], start: SimTime, end: SimTime) -> Option<f64> {
    let vals: Vec<f64> =
        series.iter().filter(|&&(t, _)| t >= start && t < end).map(|&(_, v)| v).collect();
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

    fn series(points: &[(u64, f64)]) -> Vec<(SimTime, f64)> {
        points.iter().map(|&(s, v)| (t(s), v)).collect()
    }

    #[test]
    fn window_stats() {
        let s = series(&[(1, 1.0), (2, 2.0), (3, 3.0), (10, 100.0)]);
        assert_eq!(window_mean(&s, t(0), t(5)), Some(2.0));
        assert_eq!(window_mean(&s, t(4), t(9)), None);
        assert_eq!(window_mean(&s, t(0), t(20)), Some(26.5));
    }
}
