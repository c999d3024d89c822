//! Wall-clock span timing aggregated into per-stage log2 histograms.
//!
//! These measure *host* time (how long the five `compute_into` kernels
//! take to run), not simulated time, so they are non-deterministic by
//! nature. They live in their own `"timers"` record kind and never feed
//! back into simulation state.

use crate::record::TimerStat;
use std::collections::BTreeMap;
use std::time::Instant;

/// A started wall-clock span; read it with [`Span::elapsed_ns`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: Instant,
}

impl Span {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Span { start: Instant::now() }
    }

    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Histogram over durations with power-of-two nanosecond buckets:
/// bucket `p` counts spans whose duration in nanoseconds satisfies
/// `2^p <= ns < 2^(p+1)` (with `ns == 0` landing in bucket 0).
#[derive(Default, Debug, Clone)]
pub struct Histogram {
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: u64,
    pub max_ns: u64,
    buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    pub fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        let pow = if ns == 0 { 0 } else { 63 - ns.leading_zeros() };
        *self.buckets.entry(pow).or_insert(0) += 1;
    }

    /// Nonzero buckets as sorted `(pow, count)` pairs.
    pub fn buckets(&self) -> Vec<(u32, u64)> {
        self.buckets.iter().map(|(p, c)| (*p, *c)).collect()
    }

    /// Approximate percentile (`0.0..=100.0`) from the log2 buckets: the
    /// upper bound of the bucket holding the `p`-th sample. `None` on an
    /// empty histogram — there is no sample to name.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (&pow, &c) in &self.buckets {
            seen += c;
            if seen >= target {
                return Some(if pow >= 63 { u64::MAX } else { (1u64 << (pow + 1)) - 1 });
            }
        }
        // Unreachable while bucket counts sum to `count`; fall back to max.
        Some(self.max_ns)
    }

    /// Fold another histogram into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min_ns = other.min_ns;
            self.max_ns = other.max_ns;
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        for (&pow, &c) in &other.buckets {
            *self.buckets.entry(pow).or_insert(0) += c;
        }
    }
}

/// Registry of histograms keyed by stage name (sorted for deterministic
/// snapshot order).
#[derive(Default, Debug, Clone)]
pub struct StageTimers {
    stages: BTreeMap<String, Histogram>,
}

impl StageTimers {
    pub fn record(&mut self, stage: &str, ns: u64) {
        self.stages.entry(stage.to_string()).or_default().record(ns);
    }

    pub fn get(&self, stage: &str) -> Option<&Histogram> {
        self.stages.get(stage)
    }

    pub fn snapshot(&self) -> Vec<TimerStat> {
        self.stages
            .iter()
            .map(|(name, h)| TimerStat {
                name: name.clone(),
                count: h.count,
                sum_ns: h.sum_ns,
                min_ns: h.min_ns,
                max_ns: h.max_ns,
                buckets: h.buckets(),
            })
            .collect()
    }

    /// Fold another registry into this one, merging shared stage names and
    /// adopting disjoint ones.
    pub fn merge(&mut self, other: &StageTimers) {
        for (name, h) in &other.stages {
            self.stages.entry(name.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for ns in [0, 1, 2, 3, 4, 1024, 1025] {
            h.record(ns);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.sum_ns, 2059);
        assert_eq!(h.min_ns, 0);
        assert_eq!(h.max_ns, 1025);
        // 0,1 -> pow 0; 2,3 -> pow 1; 4 -> pow 2; 1024,1025 -> pow 10.
        assert_eq!(h.buckets(), vec![(0, 2), (1, 2), (2, 1), (10, 2)]);
    }

    #[test]
    fn span_measures_monotonic_time() {
        let span = Span::new();
        let a = span.elapsed_ns();
        let b = span.elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn empty_histogram_has_no_percentile() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.percentile(100.0), None);
    }

    #[test]
    fn single_bucket_percentiles_all_agree() {
        // All samples land in the pow-10 bucket [1024, 2048): every
        // percentile resolves to the same upper bound, 2047.
        let mut h = Histogram::default();
        for ns in [1024, 1500, 2000] {
            h.record(ns);
        }
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(2047));
        }
        // Out-of-range inputs clamp rather than panic.
        assert_eq!(h.percentile(-5.0), Some(2047));
        assert_eq!(h.percentile(250.0), Some(2047));
    }

    #[test]
    fn percentile_walks_buckets_in_order() {
        let mut h = Histogram::default();
        for _ in 0..9 {
            h.record(1); // pow 0
        }
        h.record(1 << 20); // pow 20
        assert_eq!(h.percentile(50.0), Some(1));
        assert_eq!(h.percentile(90.0), Some(1));
        assert_eq!(h.percentile(100.0), Some((1 << 21) - 1));
    }

    #[test]
    fn histogram_merge_handles_empty_sides() {
        let mut empty = Histogram::default();
        let mut full = Histogram::default();
        full.record(5);
        full.record(100);
        // empty <- full adopts min/max instead of keeping the zero min.
        empty.merge(&full);
        assert_eq!((empty.count, empty.min_ns, empty.max_ns), (2, 5, 100));
        // full <- empty is a no-op.
        let before = full.buckets();
        full.merge(&Histogram::default());
        assert_eq!((full.count, full.buckets()), (2, before));
    }

    #[test]
    fn merge_of_disjoint_registries_keeps_both_stages() {
        let mut a = StageTimers::default();
        a.record("stage1_congestion", 10);
        let mut b = StageTimers::default();
        b.record("stage5_subscription", 20);
        b.record("stage5_subscription", 30);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!((snap[0].name.as_str(), snap[0].count), ("stage1_congestion", 1));
        assert_eq!(
            (snap[1].name.as_str(), snap[1].count, snap[1].sum_ns),
            ("stage5_subscription", 2, 50,)
        );
        // Overlapping merge sums into the shared stage.
        a.merge(&b);
        assert_eq!(a.get("stage5_subscription").unwrap().count, 4);
    }

    #[test]
    fn stage_timers_snapshot_sorted() {
        let mut t = StageTimers::default();
        t.record("stage5_subscription", 10);
        t.record("stage1_congestion", 20);
        t.record("stage1_congestion", 30);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "stage1_congestion");
        assert_eq!(snap[0].count, 2);
        assert_eq!(snap[0].sum_ns, 50);
        assert_eq!(snap[1].name, "stage5_subscription");
        assert!(t.get("stage1_congestion").is_some());
        assert!(t.get("missing").is_none());
    }
}
