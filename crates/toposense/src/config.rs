//! Algorithm and agent parameters.
//!
//! The paper fixes the traffic-side constants (6 layers, 32 kb/s base,
//! 1000-byte packets, 200 ms latency) but leaves the algorithm's thresholds
//! unspecified. The defaults here were tuned once on Topology A/B and are
//! held fixed across every experiment, as documented in DESIGN.md §5.

use netsim::SimDuration;

/// All tunables of the TopoSense controller and receivers.
#[derive(Clone, Copy, Debug)]
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
    /// Absolute loss-rate deviation treated as "close to the average".
    pub similarity_tolerance: f64,
    /// Loss threshold for the link-capacity estimator's two conditions.
    pub capacity_loss_threshold: f64,
    /// Multiplicative upward creep of a set capacity estimate per interval
    /// ("the estimate is increased every interval by a small amount").
    pub capacity_creep: f64,
    /// Period after which a capacity estimate is reset to infinity and
    /// re-learned.
    pub capacity_reset: SimDuration,
    /// Random backoff range after dropping a layer; no receiver in the
    /// subtree re-adds the layer before the timer expires.
    pub backoff_min: SimDuration,
    pub backoff_max: SimDuration,
    /// Relative tolerance for the BW-equality classifier.
    pub bw_equal_tolerance: f64,
    /// How often receivers send loss reports.
    pub report_interval: SimDuration,
    /// Receivers act unilaterally after this long without a suggestion.
    pub unilateral_timeout: SimDuration,
    /// Loss rate at which an unsupervised receiver drops a layer.
    pub unilateral_drop_loss: f64,
    /// Wire sizes of the control messages (bytes).
    pub report_size: u32,
    pub suggestion_size: u32,
    pub register_size: u32,
    /// Receiver silence after which the controller stops trusting its data
    /// (the receiver is excluded from reports and suggestion targets until
    /// it is heard from again). See DESIGN.md §9.
    pub quarantine_after: SimDuration,
    /// Receiver silence after which the controller forgets it entirely.
    pub evict_after: SimDuration,
    /// How old last-known-good topology may grow while the discovery tool
    /// is unavailable before the controller suspends suggestions outright.
    pub max_degradation_age: SimDuration,
    /// First re-registration delay; doubles each unacknowledged attempt.
    pub register_backoff_base: SimDuration,
    /// Ceiling of the re-registration backoff.
    pub register_backoff_max: SimDuration,
    /// Heartbeat silence after which a warm standby takes over.
    pub failover_after: SimDuration,
    /// Consecutive empty report windows (no packets, no gaps, on a level
    /// that used to carry traffic) before a receiver re-joins its groups to
    /// repair a possibly-severed tree.
    pub dead_air_windows: u32,
    /// Wire sizes of the hardening messages (bytes).
    pub heartbeat_size: u32,
    pub ack_size: u32,
    pub deregister_size: u32,
    /// Wire sizes of the replication messages (bytes). The input batch is
    /// `replicate_size` plus one `report_size` per forwarded report.
    pub replicate_size: u32,
    pub replica_ack_size: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            interval: SimDuration::from_secs(2),
            p_threshold: 0.03,
            high_loss: 0.12,
            very_high_loss: 0.30,
            eta_similar: 0.5,
            similarity_tolerance: 0.05,
            capacity_loss_threshold: 0.03,
            capacity_creep: 0.05,
            capacity_reset: SimDuration::from_secs(24),
            backoff_min: SimDuration::from_secs(14),
            backoff_max: SimDuration::from_secs(40),
            bw_equal_tolerance: 0.10,
            report_interval: SimDuration::from_secs(1),
            unilateral_timeout: SimDuration::from_millis(5500),
            unilateral_drop_loss: 0.15,
            report_size: 96,
            suggestion_size: 64,
            register_size: 48,
            quarantine_after: SimDuration::from_secs(6),
            evict_after: SimDuration::from_secs(24),
            max_degradation_age: SimDuration::from_secs(10),
            register_backoff_base: SimDuration::from_secs(4),
            register_backoff_max: SimDuration::from_secs(32),
            failover_after: SimDuration::from_secs(6),
            dead_air_windows: 2,
            heartbeat_size: 32,
            ack_size: 32,
            deregister_size: 32,
            replicate_size: 64,
            replica_ack_size: 32,
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
        assert!(self.report_interval <= self.interval);
        assert!(self.quarantine_after >= self.interval, "quarantine faster than one interval");
        assert!(self.evict_after >= self.quarantine_after, "evict before quarantine");
        assert!(self.max_degradation_age >= self.interval);
        assert!(self.register_backoff_base > SimDuration::ZERO);
        assert!(self.register_backoff_max >= self.register_backoff_base);
        assert!(self.failover_after >= self.interval, "failover faster than one heartbeat");
        assert!(self.dead_air_windows >= 1);
    }

    /// Stable 64-bit digest over every tunable. Checkpoints embed it so a
    /// snapshot taken under one parameter set cannot silently be restored
    /// under another — the pipeline is only byte-deterministic for a fixed
    /// `Config`.
    pub fn fingerprint(&self) -> u64 {
        let fields: [u64; 30] = [
            self.interval.0,
            self.p_threshold.to_bits(),
            self.high_loss.to_bits(),
            self.very_high_loss.to_bits(),
            self.eta_similar.to_bits(),
            self.similarity_tolerance.to_bits(),
            self.capacity_loss_threshold.to_bits(),
            self.capacity_creep.to_bits(),
            self.capacity_reset.0,
            self.backoff_min.0,
            self.backoff_max.0,
            self.bw_equal_tolerance.to_bits(),
            self.report_interval.0,
            self.unilateral_timeout.0,
            self.unilateral_drop_loss.to_bits(),
            self.report_size as u64,
            self.suggestion_size as u64,
            self.register_size as u64,
            self.quarantine_after.0,
            self.evict_after.0,
            self.max_degradation_age.0,
            self.register_backoff_base.0,
            self.register_backoff_max.0,
            self.failover_after.0,
            self.dead_air_windows as u64,
            self.heartbeat_size as u64,
            self.ack_size as u64,
            self.deregister_size as u64,
            self.replicate_size as u64,
            self.replica_ack_size as u64,
        ];
        netsim::rng::fnv1a(fields.map(u64::to_le_bytes).as_flattened())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    #[should_panic]
    fn evict_before_quarantine_fails_validation() {
        let cfg = Config {
            quarantine_after: SimDuration::from_secs(10),
            evict_after: SimDuration::from_secs(5),
            ..Config::default()
        };
        cfg.validate();
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
