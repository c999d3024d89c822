//! Algorithm and agent parameters.
//!
//! The paper fixes the traffic-side constants (6 layers, 32 kb/s base,
//! 1000-byte packets, 200 ms latency) but leaves the algorithm's thresholds
//! unspecified. The defaults here were tuned once on Topology A/B and are
//! held fixed across every experiment, as documented in DESIGN.md §5.
//!
//! Only what some caller varies is a field. A value nothing sets is a
//! `const` beside the code that reads it (DESIGN.md §5 lists them), and
//! the agents' timeouts are functions of [`Config::interval`].

use netsim::SimDuration;

/// All tunables of the TopoSense controller and receivers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Config {
    /// How often the controller runs the algorithm and sends suggestions.
    pub interval: SimDuration,
    /// Loss rate above which a node counts as congested (`p_threshold`).
    pub p_threshold: f64,
    /// Loss rate considered "high" (leaf drop rule, history 1 / Lesser).
    pub high_loss: f64,
    /// Loss rate considered "very high" (history 3,7 / Greater rule).
    pub very_high_loss: f64,
    /// Fraction of children that must sit close to the mean loss for an
    /// internal node to self-declare congestion (`eta_similar`).
    pub eta_similar: f64,
    /// Loss threshold for the link-capacity estimator's two conditions.
    pub capacity_loss_threshold: f64,
    /// Multiplicative upward creep of a set capacity estimate per interval
    /// ("the estimate is increased every interval by a small amount").
    pub capacity_creep: f64,
    /// Random backoff range after dropping a layer; no receiver in the
    /// subtree re-adds the layer before the timer expires.
    pub backoff_min: SimDuration,
    pub backoff_max: SimDuration,
    /// Loss rate at which an unsupervised receiver drops a layer.
    pub unilateral_drop_loss: f64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            interval: SimDuration::from_secs(2),
            p_threshold: 0.03,
            high_loss: 0.12,
            very_high_loss: 0.30,
            eta_similar: 0.5,
            capacity_loss_threshold: 0.03,
            capacity_creep: 0.05,
            backoff_min: SimDuration::from_secs(14),
            backoff_max: SimDuration::from_secs(40),
            unilateral_drop_loss: 0.15,
        }
    }
}

impl Config {
    /// Sanity-check the parameter set (used by constructors and tests).
    pub fn validate(&self) {
        assert!(self.interval > SimDuration::ZERO);
        assert!((0.0..1.0).contains(&self.p_threshold));
        assert!(self.high_loss >= self.p_threshold);
        assert!(self.very_high_loss >= self.high_loss);
        assert!((0.0..=1.0).contains(&self.eta_similar));
        assert!(self.capacity_creep >= 0.0);
        assert!(self.backoff_max >= self.backoff_min);
    }

    /// How often receivers send loss reports: every second, or every
    /// interval when that is shorter (a report window never outlasts the
    /// interval that consumes it).
    pub fn report_interval(&self) -> SimDuration {
        SimDuration::from_secs(1).min(self.interval)
    }

    /// Receiver silence after which the controller stops trusting its data
    /// (the receiver is excluded from reports and suggestion targets until
    /// it is heard from again): three intervals, floored at the 2 s
    /// interval's 6 s. See DESIGN.md §9.
    pub fn quarantine_after(&self) -> SimDuration {
        SimDuration::from_secs(6).max(self.interval * 3)
    }

    /// Receiver silence after which the controller forgets it entirely:
    /// twelve intervals, floored at 24 s.
    pub fn evict_after(&self) -> SimDuration {
        SimDuration::from_secs(24).max(self.interval * 12)
    }

    /// How old last-known-good topology may grow while the discovery tool
    /// is unavailable before the controller suspends suggestions outright:
    /// five intervals, floored at 10 s.
    pub fn max_degradation_age(&self) -> SimDuration {
        SimDuration::from_secs(10).max(self.interval * 5)
    }

    /// Heartbeat silence after which a warm standby takes over: three
    /// heartbeats (one per interval), floored at 6 s.
    pub fn failover_after(&self) -> SimDuration {
        SimDuration::from_secs(6).max(self.interval * 3)
    }

    /// Stable 64-bit digest over every tunable. Checkpoints embed it so a
    /// snapshot taken under one parameter set cannot silently be restored
    /// under another — the pipeline is only byte-deterministic for a fixed
    /// `Config`.
    pub fn fingerprint(&self) -> u64 {
        // Exhaustive on purpose: a field added to `Config` and not folded
        // here is a compile error, not a hole in the checkpoint guard.
        let Config {
            interval,
            p_threshold,
            high_loss,
            very_high_loss,
            eta_similar,
            capacity_loss_threshold,
            capacity_creep,
            backoff_min,
            backoff_max,
            unilateral_drop_loss,
        } = *self;
        let fields: [u64; 10] = [
            interval.0,
            p_threshold.to_bits(),
            high_loss.to_bits(),
            very_high_loss.to_bits(),
            eta_similar.to_bits(),
            capacity_loss_threshold.to_bits(),
            capacity_creep.to_bits(),
            backoff_min.0,
            backoff_max.0,
            unilateral_drop_loss.to_bits(),
        ];
        netsim::rng::fnv1a(fields.map(u64::to_le_bytes).as_flattened())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::BW_EQUAL_TOLERANCE;
    use crate::messages::{
        Deregister, Heartbeat, Register, RegisterAck, ReplicaAck, ReplicateInputs, Report,
        Suggestion,
    };
    use crate::receiver::{
        DEAD_AIR_WINDOWS, REGISTER_BACKOFF_BASE, REGISTER_BACKOFF_MAX, UNILATERAL_TIMEOUT,
    };
    use crate::stages::capacity::CAPACITY_RESET;
    use crate::stages::congestion::SIMILARITY_TOLERANCE;

    // The fifteen values that were `Config` fields nothing ever set, each
    // now a constant beside its reader, at the default the field had.
    const _: () = {
        assert!(SIMILARITY_TOLERANCE == 0.05);
        assert!(CAPACITY_RESET.0 == SimDuration::from_secs(24).0);
        assert!(BW_EQUAL_TOLERANCE == 0.10);
        assert!(UNILATERAL_TIMEOUT.0 == SimDuration::from_millis(5500).0);
        assert!(REGISTER_BACKOFF_BASE.0 == SimDuration::from_secs(4).0);
        assert!(REGISTER_BACKOFF_MAX.0 == SimDuration::from_secs(32).0);
        assert!(DEAD_AIR_WINDOWS == 2);
        assert!(Report::WIRE_SIZE == 96);
        assert!(Suggestion::WIRE_SIZE == 64);
        assert!(Register::WIRE_SIZE == 48);
        assert!(Heartbeat::WIRE_SIZE == 32);
        assert!(RegisterAck::WIRE_SIZE == 32);
        assert!(Deregister::WIRE_SIZE == 32);
        assert!(ReplicateInputs::HEADER_WIRE_SIZE == 64);
        assert!(ReplicaAck::WIRE_SIZE == 32);
    };

    #[test]
    fn default_is_valid() {
        Config::default().validate();
    }

    #[test]
    #[should_panic]
    fn inverted_thresholds_fail_validation() {
        let cfg = Config { high_loss: 0.01, ..Config::default() };
        cfg.validate();
    }

    /// Eviction never precedes quarantine and no timeout undercuts one
    /// interval, whatever the interval: the ordering `validate` used to
    /// police cannot be written down wrong any more.
    #[test]
    fn evict_never_precedes_quarantine() {
        for millis in [1, 500, 1_000, 2_000, 7_000, 8_000, 3_600_000] {
            let cfg = Config { interval: SimDuration::from_millis(millis), ..Config::default() };
            cfg.validate();
            assert!(cfg.report_interval() <= cfg.interval);
            assert!(cfg.quarantine_after() >= cfg.interval);
            assert!(cfg.evict_after() >= cfg.quarantine_after());
            assert!(cfg.max_degradation_age() >= cfg.interval);
            assert!(cfg.failover_after() >= cfg.interval);
        }
    }

    /// The five timeouts at the §V sweep's intervals, as the sweep used to
    /// set them by hand (`max(default, 3x / 12x / 5x / 3x interval)`,
    /// reports every `min(1 s, interval)`).
    #[test]
    fn derived_timeouts_at_the_sweep_intervals() {
        let secs = SimDuration::from_secs;
        // (interval, report, quarantine, evict, degradation age, failover)
        for (iv, report, quarantine, evict, age, failover) in [
            (1, 1, 6, 24, 10, 6),
            (2, 1, 6, 24, 10, 6),
            (4, 1, 12, 48, 20, 12),
            (8, 1, 24, 96, 40, 24),
        ] {
            let cfg = Config { interval: secs(iv), ..Config::default() };
            assert_eq!(cfg.report_interval(), secs(report), "interval {iv} s");
            assert_eq!(cfg.quarantine_after(), secs(quarantine), "interval {iv} s");
            assert_eq!(cfg.evict_after(), secs(evict), "interval {iv} s");
            assert_eq!(cfg.max_degradation_age(), secs(age), "interval {iv} s");
            assert_eq!(cfg.failover_after(), secs(failover), "interval {iv} s");
        }
        let sub_second = Config { interval: SimDuration::from_millis(250), ..Config::default() };
        assert_eq!(sub_second.report_interval(), SimDuration::from_millis(250));
    }

    #[test]
    fn fingerprint_sees_every_field() {
        let d = Config::default();
        let one_off = [
            Config { interval: SimDuration::from_secs(3), ..d },
            Config { p_threshold: 0.04, ..d },
            Config { high_loss: 0.13, ..d },
            Config { very_high_loss: 0.31, ..d },
            Config { eta_similar: 0.6, ..d },
            Config { capacity_loss_threshold: 0.02, ..d },
            Config { capacity_creep: 0.06, ..d },
            Config { backoff_min: SimDuration::from_secs(13), ..d },
            Config { backoff_max: SimDuration::from_secs(41), ..d },
            Config { unilateral_drop_loss: 0.16, ..d },
        ];
        let mut prints: Vec<u64> = one_off.iter().map(Config::fingerprint).collect();
        prints.push(d.fingerprint());
        prints.sort_unstable();
        prints.dedup();
        assert_eq!(prints.len(), 11, "every field must move the digest");
    }

    #[test]
    #[should_panic]
    fn inverted_backoff_fails_validation() {
        let cfg = Config {
            backoff_min: SimDuration::from_secs(10),
            backoff_max: SimDuration::from_secs(5),
            ..Config::default()
        };
        cfg.validate();
    }
}
