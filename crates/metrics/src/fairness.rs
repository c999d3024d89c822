//! Inter-session fairness helpers (Fig. 8 support).

/// Jain's fairness index: `(Σx)² / (n · Σx²)`. 1.0 = perfectly fair;
/// `1/n` = one party takes everything.
pub fn jain_index(shares: &[f64]) -> f64 {
    assert!(!shares.is_empty());
    assert!(shares.iter().all(|&x| x >= 0.0), "shares must be non-negative");
    let sum: f64 = shares.iter().sum();
    if sum == 0.0 {
        return 1.0; // all equal (at zero)
    }
    let sq: f64 = shares.iter().map(|&x| x * x).sum();
    sum * sum / (shares.len() as f64 * sq)
}

/// Max/min ratio of the shares (∞ when someone is starved while another
/// party gets traffic).
///
/// Total on every input: an empty or all-zero vector means nobody is
/// being favored over anybody, so the ratio is 1.0 (perfectly even), and
/// a single-element vector is likewise trivially even. The previous
/// version divided straight through and reported ∞ for `[0.0, 0.0]` and
/// `[0.0]` — an all-idle session set is not a starvation event, and the
/// campaign fairness gates depend on the distinction. NaN shares are
/// rejected (they would poison the fold silently).
pub fn max_min_ratio(shares: &[f64]) -> f64 {
    assert!(shares.iter().all(|x| !x.is_nan()), "NaN share");
    assert!(shares.iter().all(|&x| x >= 0.0), "shares must be non-negative");
    let max = shares.iter().copied().fold(0.0f64, f64::max);
    if shares.len() <= 1 || max == 0.0 {
        return 1.0;
    }
    let min = shares.iter().copied().fold(f64::INFINITY, f64::min);
    if min == 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_equal_shares_is_one() {
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn jain_single_hog_is_one_over_n() {
        let j = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((j - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_intermediate() {
        let j = jain_index(&[4.0, 2.0]);
        // (6)^2 / (2 * 20) = 36/40 = 0.9.
        assert!((j - 0.9).abs() < 1e-12);
    }

    #[test]
    fn jain_all_zero_is_fair() {
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn ratio() {
        assert!((max_min_ratio(&[4.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(max_min_ratio(&[1.0, 0.0]), f64::INFINITY);
    }

    #[test]
    fn ratio_all_zero_is_even() {
        // Regression: an all-idle share vector used to read as starvation
        // (∞); nobody is favored, so the ratio is 1.
        assert_eq!(max_min_ratio(&[0.0, 0.0, 0.0]), 1.0);
        assert_eq!(max_min_ratio(&[0.0]), 1.0);
    }

    #[test]
    fn ratio_single_and_empty_are_even() {
        assert_eq!(max_min_ratio(&[7.5]), 1.0);
        assert_eq!(max_min_ratio(&[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN share")]
    fn ratio_rejects_nan() {
        let _ = max_min_ratio(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic]
    fn ratio_rejects_negative() {
        let _ = max_min_ratio(&[1.0, -2.0]);
    }

    #[test]
    #[should_panic]
    fn negative_share_panics() {
        let _ = jain_index(&[1.0, -1.0]);
    }
}
