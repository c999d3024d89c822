//! Chaos suite (DESIGN.md §9): the failure-hardening invariants, end to
//! end. Under every canned fault plan the run must complete without a
//! panic; after the last fault heals, every surviving receiver must return
//! to within one layer of its oracle level within 10 control intervals;
//! and a fault-free run must be byte-identical to one carrying an inert
//! fault plan.

use netsim::{SimDuration, SimTime};
use scenarios::chaos::{
    self, chaos_config, controller_blackout, controller_failover, discovery_outage, link_flap,
    partial_discovery_outage, random_chaos, router_crash, verify_recovery,
};
use scenarios::{run, ControlMode, Scenario, SpecFault};
use topology::generators;
use traffic::TrafficModel;

/// The acceptance bound: back within one layer of oracle within 10
/// control intervals of the last fault healing.
const RECOVERY_INTERVALS: u64 = 10;

#[test]
fn link_flap_recovers_within_bound() {
    let (s, heal_at) = link_flap(1);
    let r = run(&s);
    verify_recovery(&r, &s.cfg, heal_at, RECOVERY_INTERVALS).unwrap();
    // The flaps were real: the bottleneck dropped traffic on the floor.
    assert!(r.total_drops > 0);
    assert!(r.controller.as_ref().unwrap().suggestions_sent > 0);
}

#[test]
fn router_crash_recovers_within_bound() {
    let (s, heal_at) = router_crash(1);
    let r = run(&s);
    verify_recovery(&r, &s.cfg, heal_at, RECOVERY_INTERVALS).unwrap();
    // The crashed router lost its grafts; the set-0 receivers behind it
    // must have repaired the tree via the dead-air re-join.
    let rejoins: u64 = r.receivers.iter().filter(|x| x.set == 0).map(|x| x.stats.rejoins).sum();
    assert!(rejoins >= 1, "no dead-air repair happened");
}

#[test]
fn discovery_outage_degrades_then_suspends_then_recovers() {
    let (s, heal_at) = discovery_outage(2);
    let r = run(&s);
    verify_recovery(&r, &s.cfg, heal_at, RECOVERY_INTERVALS).unwrap();
    let c = r.controller.as_ref().unwrap();
    // 20 s outage vs a 10 s max-degradation age: both phases must show.
    assert!(c.degraded_intervals > 0, "never ran on last-known-good");
    assert!(c.suspended_intervals > 0, "never suspended on stale topology");
    assert!(c.intervals > c.degraded_intervals, "never resumed normal operation");
}

#[test]
fn partial_discovery_outage_keeps_visible_receivers_steered() {
    let (s, heal_at) = partial_discovery_outage(3);
    let r = run(&s);
    verify_recovery(&r, &s.cfg, heal_at, RECOVERY_INTERVALS).unwrap();
    let c = r.controller.as_ref().unwrap();
    assert!(c.partial_intervals > 0, "partial views never served");
    assert_eq!(c.suspended_intervals, 0, "partial answers must not suspend the controller");
}

#[test]
fn controller_failover_keeps_steering_receivers() {
    let (s, heal_at) = controller_failover(4);
    let r = run(&s);
    verify_recovery(&r, &s.cfg, heal_at, RECOVERY_INTERVALS).unwrap();
    let primary = r.controller.as_ref().unwrap();
    let standby = r.standby.as_ref().unwrap();
    assert!(primary.suggestions_sent > 0, "primary steered before the crash");
    assert!(primary.failover_at.is_none());
    let at = standby.failover_at.expect("standby must take over");
    assert!(
        at > SimTime::from_secs(40) && at <= SimTime::from_secs(56),
        "takeover at {at:?} outside the failover window"
    );
    assert!(standby.suggestions_sent > 0, "standby steered after takeover");
    assert!(standby.acks_sent >= r.receivers.len() as u64, "receivers re-ACKed on takeover");
    // ISSUE 9 satellite: takeover re-anchors the silence clocks — nobody
    // is evicted for quiet accrued while the standby was passive.
    assert_eq!(standby.evicted, 0, "takeover evicted receivers for failover-window silence");
    // Receivers followed the standby: suggestions kept arriving after the
    // primary died, so they reported (and listened) to the new controller.
    for rec in &r.receivers {
        assert!(rec.stats.suggestions_received > 0);
    }
}

/// ISSUE 9 satellite: a solo controller restarting after an outage longer
/// than `evict_after` must not evict (or quarantine) receivers whose only
/// silence was the controller's own downtime. The blackout plan slows
/// reports to one per 10 s, so the first post-restart tick at +2 s runs on
/// silence clocks no report could have refreshed — with the restart
/// re-anchor missing, that tick evicted the whole registry.
#[test]
fn controller_restart_does_not_evict_quiet_receivers() {
    let (s, heal_at) = controller_blackout(3);
    let r = run(&s);
    let c = r.controller.as_ref().unwrap();
    assert!(c.suggestions_sent > 0, "controller steered");
    assert_eq!(c.evicted, 0, "restart evicted receivers silent only during the outage");
    assert_eq!(c.registered, r.receivers.len(), "registry must survive the blackout intact");
    verify_recovery(&r, &s.cfg, heal_at, RECOVERY_INTERVALS).unwrap();
    for rec in &r.receivers {
        assert!(rec.stats.suggestions_received > 0, "receiver kept being steered");
    }
}

/// The ISSUE 7 takeover bound, pinned next to the §9 first-return bound:
/// with input replication on (the default), a mid-interval primary crash
/// hands over to a state-synced twin. The promoted standby takes over
/// within `failover_after` + one interval of the crash and re-arms the
/// change-driven engine with **at most one** full-fallback interval —
/// zero re-learning, not an invalidate-driven fallback storm.
#[test]
fn mid_interval_crash_takeover_is_zero_relearning() {
    let (s, crash_at) = chaos::primary_crash_mid_interval(6);
    let cfg = s.cfg;
    let r = run(&s);

    let primary = r.controller.as_ref().unwrap();
    let standby = r.standby.as_ref().unwrap();
    // The standby was an input-synced twin before the crash, and the
    // cross-check saw it matching.
    assert!(standby.replica_applied > 0, "standby never applied a replicated batch");
    assert!(primary.replica_acks > 0, "primary never saw a matching fingerprint ack");
    assert_eq!(primary.replica_divergences, 0);

    let at = standby.failover_at.expect("standby must take over");
    assert!(
        at.since(crash_at) <= cfg.failover_after() + cfg.interval,
        "takeover at {at:?} missed the one-interval bound after the {crash_at:?} crash"
    );
    // Receivers are back at their oracle levels within the §9 bound of
    // the takeover instant.
    verify_recovery(&r, &cfg, at, RECOVERY_INTERVALS).unwrap();

    // Zero re-learning, by both controllers' counts: the only
    // full-pipeline intervals in the whole run are the primary's
    // cold-start interval and at most one on the standby's first
    // self-observed tick. Everything else stays on the incremental path.
    let both = |f: fn(&toposense::controller::ControllerShared) -> u64| f(primary) + f(standby);
    assert!(both(|c| c.intervals) > 0);
    let fallbacks = both(|c| c.full_fallbacks);
    assert!(
        fallbacks <= 2,
        "fallback storm: {fallbacks} full fallbacks (cold start + one takeover allowed)"
    );
    assert!(both(|c| c.replicate_sent) > 0);
    assert!(both(|c| c.replica_applied) > 0);
}

/// A partitioned standby misses batches and rejoins through the
/// `CheckpointTransfer` resync when its uplink heals — and the healed
/// replica keeps matching the primary's fingerprints afterwards.
#[test]
fn replica_partition_heals_through_checkpoint_resync() {
    let (s, heal_at) = chaos::replica_partition(2);
    let cfg = s.cfg;
    let r = run(&s);
    let primary = r.controller.as_ref().unwrap();
    let standby = r.standby.as_ref().unwrap();
    assert!(primary.replica_resyncs > 0, "primary never served a checkpoint");
    assert!(standby.replica_resyncs > 0, "standby never applied a checkpoint");
    assert_eq!(primary.replica_divergences, 0, "resynced replica must match");
    assert!(!primary.replica_quarantined);
    verify_recovery(&r, &cfg, heal_at, RECOVERY_INTERVALS).unwrap();
}

#[test]
fn random_chaos_is_panic_free_and_deterministic() {
    let go = || chaos::fingerprint(&run(&random_chaos(7).0));
    let a = go();
    let b = go();
    assert_eq!(a, b, "chaos run must be bit-reproducible");
    // And a different seed exercises a different history.
    assert_ne!(a, chaos::fingerprint(&run(&random_chaos(8).0)));
}

#[test]
fn fault_free_run_is_byte_identical_with_inert_plan() {
    let base = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, 42)
        .with_duration(SimDuration::from_secs(90));
    // The same scenario carrying a plan whose only event fires after the
    // run ends: installing it must not perturb a single event.
    let inert = base.clone().with_fault(SpecFault::LinkOutage {
        link: 1,
        from: SimTime::from_secs(500),
        until: SimTime::from_secs(510),
    });
    let a = chaos::fingerprint(&run(&base));
    let b = chaos::fingerprint(&run(&inert));
    assert_eq!(a, b, "an inert fault plan changed the run");
}

/// Satellite: controller cold start. With a discovery tool too stale to
/// have answered, no interval completes and no suggestion is ever sent —
/// there is no tree to steer from.
#[test]
fn cold_start_scenario_sends_no_suggestions() {
    let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, 5)
        .with_control(ControlMode::TopoSense { staleness: SimDuration::from_secs(30) })
        .with_duration(SimDuration::from_secs(12));
    let r = run(&s);
    let c = r.controller.as_ref().unwrap();
    assert_eq!(c.intervals, 0);
    assert_eq!(c.suggestions_sent, 0);
    for rec in &r.receivers {
        assert_eq!(rec.stats.suggestions_received, 0);
        assert_eq!(rec.stats.final_level(), 1, "receivers stay at the base layer");
    }
}

/// The chaos config only relaxes the re-add backoff; everything else must
/// match the defaults so chaos results stay comparable to the main runs.
#[test]
fn chaos_config_only_touches_backoff() {
    let c = chaos_config();
    let d = toposense::Config::default();
    let rest = toposense::Config { backoff_min: d.backoff_min, backoff_max: d.backoff_max, ..c };
    assert_eq!(rest, d);
    assert!(c.backoff_max < d.backoff_min, "chaos backoff must be far shorter");
}
