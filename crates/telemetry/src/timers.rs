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
struct Histogram {
    count: u64,
    sum_ns: u64,
    min_ns: u64,
    max_ns: u64,
    buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    fn record(&mut self, ns: u64) {
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
    fn buckets(&self) -> Vec<(u32, u64)> {
        self.buckets.iter().map(|(p, c)| (*p, *c)).collect()
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
    }
}
