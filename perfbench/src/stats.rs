//! Order statistics for the benchmark's timing samples.

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the smallest
/// sample with at least `p` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest of p99/p95/p90/p80 that still has at least ten samples
/// beyond it, as `(percentile, value)`; with fewer than 50 samples no tail
/// percentile is supported and the median is returned as `(50, median)`.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let s = sorted(samples);
    for p in [99u32, 95, 90, 80] {
        let beyond = s.len() as f64 * (100 - p) as f64 / 100.0;
        if beyond >= 10.0 {
            return (p, percentile_sorted(&s, p as f64));
        }
    }
    (50, median(samples))
}

/// Interquartile range as a share of the median, with the quartiles of
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method) —
/// the spread the benchmark contract is judged by.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let q = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated
        // between its neighbours (the rank, not the weight, is clamped,
        // exactly as Python does).
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (q(3) - q(1)) / median(samples)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 5.0);
        assert_eq!(percentile_sorted(&s, 80.0), 8.0);
        assert_eq!(percentile_sorted(&s, 100.0), 10.0);
        assert_eq!(percentile_sorted(&s, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&fifty), (80, 40.0));
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&two_hundred), (95, 190.0));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), (99, 990.0));
        let few: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(tail(&few), (50, 5.0));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&s) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert!((quartile_spread(&s) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
    }
}
