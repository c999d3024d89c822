//! Stage 2 — estimating link capacities.
//!
//! The controller has no access to network internals beyond topology, so
//! link capacities start at **infinity** and are learned from loss:
//!
//! 1. the overall loss at the link's head node exceeds a threshold, *and*
//! 2. **every** session sharing the link sees loss above the threshold
//!    (one lossy session alone may just have a congested node further
//!    downstream — per-session loss at an internal node is only the minimum
//!    over its subtree),
//!
//! then the capacity is taken to be the bits observed crossing the link in
//! the interval. A set estimate creeps upward a little every interval
//! (reported bytes can under-count packets still in flight) and is reset to
//! infinity periodically so transient flows and downstream bottlenecks
//! cannot poison it forever.
#![deny(clippy::too_many_lines)]

use crate::config::Config;
use netsim::{DirLinkId, SessionId, SimDuration, SimTime};
use std::collections::HashMap;

/// Period after which a capacity estimate is reset to infinity and
/// re-learned.
pub(crate) const CAPACITY_RESET: SimDuration = SimDuration::from_secs(24);

/// One audit event from the estimator: what happened to `link`'s
/// estimate this interval. The `f64` is the estimate after the event
/// (for `"reset"`, the value that was discarded); the label is one of
/// `"learned"`, `"recomputed"`, `"crept"`, `"held"`, `"reset"`.
pub type CapacityEvent = (DirLinkId, f64, &'static str);

/// One session's view of one shared link for the current interval.
#[derive(Clone, Copy, Debug)]
pub struct SessionLinkObs {
    pub session: SessionId,
    /// The session's loss at the link's head node (min over subtree).
    pub loss: f64,
    /// Max bytes received by any of the session's receivers below the link
    /// this interval — the best available proxy for bytes that crossed it.
    pub bytes: u64,
}

#[derive(Clone, Copy, Debug)]
struct Estimate {
    capacity_bps: f64,
    set_at: SimTime,
}

/// The persistent link-capacity estimator.
#[derive(Debug, Default)]
pub struct CapacityEstimator {
    estimates: HashMap<DirLinkId, Estimate>,
}

impl CapacityEstimator {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current estimate for `link`; `None` means "assumed infinite".
    pub fn capacity(&self, link: DirLinkId) -> Option<f64> {
        self.estimates.get(&link).map(|e| e.capacity_bps)
    }

    /// Iterate `(link, capacity_bps)` over every finite estimate, in
    /// `HashMap` order (callers needing determinism must sort). The set of
    /// estimated links is typically tiny next to the tree, which is what
    /// makes this the cheap way to enumerate them each interval.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (DirLinkId, f64)> + '_ {
        self.estimates.iter().map(|(&l, e)| (l, e.capacity_bps))
    }

    /// Whether any estimate has aged past the periodic reset horizon, i.e.
    /// the next [`Self::begin_interval`] would discard something. The
    /// algorithm driver checks this up front and starts cold when a reset
    /// is due — resets rewrite capacity state that change tracking
    /// deliberately does not model.
    pub(crate) fn has_pending_reset(&self, now: SimTime) -> bool {
        self.estimates.values().any(|e| now.since(e.set_at) >= CAPACITY_RESET)
    }

    /// Flatten every finite estimate to `(link, capacity bits, set_at)`
    /// sorted by link — the checkpoint-stable rendering of the estimator.
    /// Capacities travel as raw `f64` bits so restore is exact.
    pub(crate) fn snapshot(&self) -> Vec<(DirLinkId, u64, SimTime)> {
        let mut out: Vec<_> =
            self.estimates.iter().map(|(&l, e)| (l, e.capacity_bps.to_bits(), e.set_at)).collect();
        out.sort_by_key(|&(l, ..)| l);
        out
    }

    /// Rebuild the estimator from a [`Self::snapshot`] rendering.
    pub(crate) fn restore(entries: &[(DirLinkId, u64, SimTime)]) -> Self {
        let mut est = Self::new();
        for &(link, bits, set_at) in entries {
            est.estimates.insert(link, Estimate { capacity_bps: f64::from_bits(bits), set_at });
        }
        est
    }

    /// Periodic reset: stale estimates return to infinity and must be
    /// re-earned ("the capacity is reset to infinity at periodic
    /// intervals and recomputed"). Each discarded estimate is logged into
    /// `events` in `HashMap` iteration order, so callers that need
    /// determinism must sort the collected events by link.
    pub(crate) fn begin_interval(&mut self, now: SimTime, events: &mut Vec<CapacityEvent>) {
        self.estimates.retain(|&link, e| {
            let keep = now.since(e.set_at) < CAPACITY_RESET;
            if !keep {
                events.push((link, e.capacity_bps, "reset"));
            }
            keep
        });
    }

    /// Update a single link from this interval's per-session observations,
    /// in tree order. The reset pass is the caller's: the driver either
    /// runs [`Self::begin_interval`] when it primes a cold start or has
    /// proven it a no-op via [`Self::has_pending_reset`].
    ///
    /// What happened to the estimate is logged into `events` (see
    /// [`CapacityEvent`]); nothing reads the log back into an estimate.
    pub(crate) fn update_link(
        &mut self,
        now: SimTime,
        interval: SimDuration,
        link: DirLinkId,
        sessions: &[SessionLinkObs],
        cfg: &Config,
        events: &mut Vec<CapacityEvent>,
    ) {
        let secs = interval.as_secs_f64();
        let mut audit = |bps: f64, what: &'static str| events.push((link, bps, what));
        if sessions.is_empty() {
            return;
        }
        // Dead air: an interval in which nothing crossed the link (an
        // outage, or every receiver below it quarantined) says nothing
        // about its capacity. It must not divide the byte-weighted loss
        // by zero, and it must not count as a "clean interval" for the
        // upward creep — creeping on silence would inflate the estimate
        // without a single packet to justify it. Hold any estimate as-is
        // (the reset clock still runs in `begin_interval`).
        // One fold over the sessions: byte sums saturate (raw reports are
        // outside input, and two near `u64::MAX` must not wrap into a
        // bogus estimate); the float sum starts at `-0.0` like `f64::sum`.
        let per_session_bar = cfg.capacity_loss_threshold / 3.0;
        let (mut total_bytes, mut weighted_loss, mut lossy_count, mut lossy_bytes) =
            (0u64, -0.0f64, 0usize, 0u64);
        for s in sessions {
            total_bytes = total_bytes.saturating_add(s.bytes);
            weighted_loss += s.loss * s.bytes as f64;
            if s.loss > per_session_bar {
                lossy_count += 1;
                lossy_bytes = lossy_bytes.saturating_add(s.bytes);
            }
        }
        if total_bytes == 0 {
            if let Some(e) = self.estimates.get(&link) {
                audit(e.capacity_bps, "held");
            }
            return;
        }
        // Fig. 4: "Estimate link bandwidths for all *shared* links."
        // An estimate exists to split capacity between sessions; a
        // single-session link is governed by the congestion states and
        // the decision table instead, and estimating it would mistake
        // one session's transient goodput for the link's capacity.
        if sessions.len() < 2 {
            // A leftover estimate (the link was shared until recently)
            // may only creep upward on a *clean* interval: creeping
            // while the remaining session is losing packets inflates a
            // stale estimate the loss itself says is already too high.
            let clean = sessions.iter().all(|s| s.loss <= cfg.capacity_loss_threshold);
            if let Some(e) = self.estimates.get_mut(&link) {
                if clean {
                    e.capacity_bps *= 1.0 + cfg.capacity_creep;
                    audit(e.capacity_bps, "crept");
                } else {
                    audit(e.capacity_bps, "held");
                }
            }
            return;
        }
        // Byte-weighted loss across sessions (dead air returned above,
        // so `total_bytes > 0` here).
        let overall_loss = weighted_loss / total_bytes as f64;
        // The paper's condition 2 asks for *all* sessions to be lossy.
        // With many sessions a single momentarily-clean low-rate session
        // would forever block the estimate, so we use a quorum: most
        // sessions (by count), carrying most of the bytes, must see loss
        // above a (lower) per-session bar (`per_session_bar` above).
        // Documented in DESIGN.md §5.
        let lossy_count_frac = lossy_count as f64 / sessions.len() as f64;
        let lossy_bytes_frac = lossy_bytes as f64 / total_bytes as f64;
        let congested = overall_loss > cfg.capacity_loss_threshold
            && lossy_count_frac >= 0.75
            && lossy_bytes_frac >= 0.9;

        let observed_bps = total_bytes as f64 * 8.0 / secs.max(1e-9);
        match self.estimates.get_mut(&link) {
            Some(e) if congested => {
                // Congested again: recompute from what actually got
                // through this interval. This lets a creep-inflated
                // estimate correct itself downward in one interval
                // instead of waiting for the periodic reset, and counts
                // as a fresh computation for the reset clock.
                e.capacity_bps = observed_bps;
                e.set_at = now;
                audit(observed_bps, "recomputed");
            }
            Some(e) => {
                // Clean interval: creep upward ("the estimate is
                // increased every interval by a small amount").
                e.capacity_bps *= 1.0 + cfg.capacity_creep;
                audit(e.capacity_bps, "crept");
            }
            None if congested && secs > 0.0 => {
                self.estimates.insert(link, Estimate { capacity_bps: observed_bps, set_at: now });
                audit(observed_bps, "learned");
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> DirLinkId {
        DirLinkId(i)
    }

    fn obs(session: u32, loss: f64, bytes: u64) -> SessionLinkObs {
        SessionLinkObs { session: SessionId(session), loss, bytes }
    }

    fn cfg() -> Config {
        Config::default()
    }

    const INTERVAL: SimDuration = SimDuration(2_000_000_000);

    /// One interval over link-sorted `(link, observation)` rows, through
    /// the calls the algorithm driver makes on a cold start: the reset
    /// pass, then one `update_link` per link's run of rows.
    fn one_interval(
        est: &mut CapacityEstimator,
        now: SimTime,
        sorted: &[(DirLinkId, SessionLinkObs)],
        events: Option<&mut Vec<CapacityEvent>>,
    ) {
        let mut unread = Vec::new();
        let events = events.unwrap_or(&mut unread);
        est.begin_interval(now, events);
        for run in sorted.chunk_by(|a, b| a.0 == b.0) {
            let obs: Vec<SessionLinkObs> = run.iter().map(|&(_, o)| o).collect();
            est.update_link(now, INTERVAL, run[0].0, &obs, &cfg(), events);
        }
    }

    /// Flatten `(link, observations)` rows into the link-sorted slice
    /// [`one_interval`] takes.
    fn flat(rows: &[(DirLinkId, Vec<SessionLinkObs>)]) -> Vec<(DirLinkId, SessionLinkObs)> {
        let mut v: Vec<_> =
            rows.iter().flat_map(|(l, os)| os.iter().map(move |&o| (*l, o))).collect();
        v.sort_by_key(|&(l, _)| l);
        v
    }

    #[test]
    fn no_loss_keeps_infinity() {
        let mut est = CapacityEstimator::new();
        let usage = flat(&[(l(0), vec![obs(0, 0.0, 100_000), obs(1, 0.0, 25_000)])]);
        one_interval(&mut est, SimTime::from_secs(2), &usage, None);
        assert_eq!(est.capacity(l(0)), None);
    }

    #[test]
    fn loss_on_all_sessions_sets_estimate_from_throughput() {
        let mut est = CapacityEstimator::new();
        // 125_000 B over 2 s = 500 kb/s.
        let usage = flat(&[(l(0), vec![obs(0, 0.1, 100_000), obs(1, 0.08, 25_000)])]);
        one_interval(&mut est, SimTime::from_secs(2), &usage, None);
        let c = est.capacity(l(0)).unwrap();
        assert!((c - 500_000.0).abs() < 1.0, "got {c}");
    }

    #[test]
    fn one_clean_session_blocks_the_estimate() {
        // Session 1 has loss below the threshold: the shared link may not be
        // the culprit, so capacity stays infinite.
        let mut est = CapacityEstimator::new();
        let usage = flat(&[(l(0), vec![obs(0, 0.2, 100_000), obs(1, 0.0, 50_000)])]);
        one_interval(&mut est, SimTime::from_secs(2), &usage, None);
        assert_eq!(est.capacity(l(0)), None);
    }

    #[test]
    fn estimate_creeps_upward_each_interval() {
        let mut est = CapacityEstimator::new();
        let usage = flat(&[(l(0), vec![obs(0, 0.1, 100_000), obs(1, 0.1, 25_000)])]);
        one_interval(&mut est, SimTime::from_secs(2), &usage, None);
        let c0 = est.capacity(l(0)).unwrap();
        // Next interval, no matter the loss, the estimate creeps by 5%.
        let quiet = flat(&[(l(0), vec![obs(0, 0.0, 100_000), obs(1, 0.0, 25_000)])]);
        one_interval(&mut est, SimTime::from_secs(4), &quiet, None);
        let c1 = est.capacity(l(0)).unwrap();
        assert!((c1 / c0 - 1.05).abs() < 1e-9);
    }

    #[test]
    fn periodic_reset_returns_to_infinity() {
        let mut est = CapacityEstimator::new();
        let usage = flat(&[(l(0), vec![obs(0, 0.1, 100_000), obs(1, 0.1, 25_000)])]);
        one_interval(&mut est, SimTime::from_secs(2), &usage, None);
        assert!(est.capacity(l(0)).is_some());
        // Fast-forward past the reset period with clean traffic.
        let quiet = flat(&[(l(0), vec![obs(0, 0.0, 100_000), obs(1, 0.0, 25_000)])]);
        one_interval(&mut est, SimTime::from_secs(2 + 30), &quiet, None);
        assert_eq!(est.capacity(l(0)), None, "estimate must reset to infinity");
    }

    #[test]
    fn reset_then_relearn() {
        let mut est = CapacityEstimator::new();
        let lossy = flat(&[(l(0), vec![obs(0, 0.1, 100_000), obs(1, 0.1, 25_000)])]);
        one_interval(&mut est, SimTime::from_secs(2), &lossy, None);
        // Past reset, still lossy: re-learned in the same update.
        let lossy2 = flat(&[(l(0), vec![obs(0, 0.1, 200_000), obs(1, 0.1, 50_000)])]);
        one_interval(&mut est, SimTime::from_secs(40), &lossy2, None);
        let c = est.capacity(l(0)).unwrap();
        assert!((c - 1_000_000.0).abs() < 1.0, "got {c}");
    }

    #[test]
    fn zero_bytes_never_sets_a_zero_capacity() {
        let mut est = CapacityEstimator::new();
        let usage = flat(&[(l(0), vec![obs(0, 0.5, 0), obs(1, 0.5, 0)])]);
        one_interval(&mut est, SimTime::from_secs(2), &usage, None);
        assert_eq!(est.capacity(l(0)), None);
    }

    #[test]
    fn lossy_single_session_does_not_creep_stale_estimate() {
        // Learn an estimate while the link is shared, then drop to a
        // single session. While that session is lossy the leftover
        // estimate must hold still — creeping it upward would inflate a
        // number the loss already says is too high. A clean interval may
        // creep as usual.
        let mut est = CapacityEstimator::new();
        let shared = flat(&[(l(0), vec![obs(0, 0.1, 100_000), obs(1, 0.1, 25_000)])]);
        one_interval(&mut est, SimTime::from_secs(2), &shared, None);
        let c0 = est.capacity(l(0)).unwrap();

        let lossy_solo = flat(&[(l(0), vec![obs(0, 0.2, 100_000)])]);
        one_interval(&mut est, SimTime::from_secs(4), &lossy_solo, None);
        let c1 = est.capacity(l(0)).unwrap();
        assert_eq!(c1, c0, "lossy single-session interval must not creep");

        let clean_solo = flat(&[(l(0), vec![obs(0, 0.0, 100_000)])]);
        one_interval(&mut est, SimTime::from_secs(6), &clean_solo, None);
        let c2 = est.capacity(l(0)).unwrap();
        assert!((c2 / c1 - 1.05).abs() < 1e-9, "clean single-session interval creeps");
    }

    #[test]
    fn dead_air_interval_neither_divides_by_zero_nor_creeps() {
        // Learn an estimate, then run an interval in which no bytes
        // crossed the link at all (dead air / outage). The estimate must
        // hold exactly — a silent interval is not evidence the link has
        // more headroom — and nothing may go NaN. The same goes for a
        // dead-air interval on a link down to a single session.
        let mut est = CapacityEstimator::new();
        let shared = flat(&[(l(0), vec![obs(0, 0.1, 100_000), obs(1, 0.1, 25_000)])]);
        one_interval(&mut est, SimTime::from_secs(2), &shared, None);
        let c0 = est.capacity(l(0)).unwrap();

        let mut ev = Vec::new();
        let dead = vec![(l(0), obs(0, 0.0, 0)), (l(0), obs(1, 0.0, 0))];
        one_interval(&mut est, SimTime::from_secs(4), &dead, Some(&mut ev));
        let c1 = est.capacity(l(0)).unwrap();
        assert!(c1.is_finite());
        assert_eq!(c1, c0, "dead-air shared interval must hold, not creep");
        assert_eq!((ev[0].0, ev[0].2), (l(0), "held"));

        let dead_solo = flat(&[(l(0), vec![obs(0, 0.0, 0)])]);
        one_interval(&mut est, SimTime::from_secs(6), &dead_solo, None);
        let c2 = est.capacity(l(0)).unwrap();
        assert_eq!(c2, c0, "dead-air single-session interval must hold, not creep");

        // Traffic resumes clean: the creep picks back up as usual.
        let quiet = flat(&[(l(0), vec![obs(0, 0.0, 100_000), obs(1, 0.0, 25_000)])]);
        one_interval(&mut est, SimTime::from_secs(8), &quiet, None);
        let c3 = est.capacity(l(0)).unwrap();
        assert!((c3 / c0 - 1.05).abs() < 1e-9);
    }

    #[test]
    fn traced_update_reports_learn_creep_and_reset() {
        let mut est = CapacityEstimator::new();
        let lossy = vec![(l(0), obs(0, 0.1, 100_000)), (l(0), obs(1, 0.1, 25_000))];
        let quiet = vec![(l(0), obs(0, 0.0, 100_000)), (l(0), obs(1, 0.0, 25_000))];

        let mut ev = Vec::new();
        one_interval(&mut est, SimTime::from_secs(2), &lossy, Some(&mut ev));
        assert_eq!(ev.len(), 1);
        assert_eq!((ev[0].0, ev[0].2), (l(0), "learned"));
        let learned_bps = ev[0].1;

        ev.clear();
        one_interval(&mut est, SimTime::from_secs(4), &quiet, Some(&mut ev));
        assert_eq!((ev[0].0, ev[0].2), (l(0), "crept"));
        assert!(ev[0].1 > learned_bps);

        // Lossy single-session interval: the estimate is held, and the
        // audit says so.
        ev.clear();
        let solo = vec![(l(0), obs(0, 0.3, 100_000))];
        one_interval(&mut est, SimTime::from_secs(6), &solo, Some(&mut ev));
        assert_eq!((ev[0].0, ev[0].2), (l(0), "held"));

        // Past the reset horizon with clean traffic: reset is reported
        // with the discarded value.
        ev.clear();
        one_interval(&mut est, SimTime::from_secs(60), &quiet, Some(&mut ev));
        assert_eq!((ev[0].0, ev[0].2), (l(0), "reset"));
        assert!(est.capacity(l(0)).is_none());
    }

    #[test]
    fn links_are_independent() {
        let mut est = CapacityEstimator::new();
        let usage = flat(&[
            (l(0), vec![obs(0, 0.1, 100_000), obs(1, 0.1, 25_000)]),
            (l(1), vec![obs(0, 0.0, 100_000), obs(1, 0.0, 25_000)]),
        ]);
        one_interval(&mut est, SimTime::from_secs(2), &usage, None);
        assert!(est.capacity(l(0)).is_some());
        assert!(est.capacity(l(1)).is_none());
    }

    /// Two lossy sessions whose raw byte reports sum past `u64::MAX`: the
    /// sum saturates instead of overflowing (a panic in a debug build, in
    /// release a wrap to 0 that read as dead air), so the link learns an
    /// estimate at least as large as either session's share.
    #[test]
    fn byte_sums_past_the_integer_ceiling_saturate() {
        let half = u64::MAX / 2 + 1;
        let mut est = CapacityEstimator::new();
        let usage = flat(&[(l(0), vec![obs(0, 0.3, half), obs(1, 0.3, half)])]);
        one_interval(&mut est, SimTime::from_secs(2), &usage, None);
        let c = est.capacity(l(0)).expect("a lossy shared link learns an estimate");
        assert!(c.is_finite() && c >= half as f64 * 8.0 / 2.0, "estimate {c}");
    }
}
