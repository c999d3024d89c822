//! Canned chaos scenarios (DESIGN.md §9): the fault plans the integration
//! suite (`tests/chaos.rs`), the CI determinism check, and the README
//! example all run.
//!
//! Each constructor returns the prepared [`Scenario`] plus the instant the
//! *last* fault heals — the reference point for the recovery bound checked
//! by [`verify_recovery`]: every surviving receiver back within one layer
//! of its oracle level within a bounded number of control intervals.

use crate::runner::{Scenario, ScenarioResult};
use netsim::{DirLinkId, LinkConfig, NodeId, SimDuration, SimTime};
use topology::generators;
use topology::spec::{NodeRole, TopoSpec};
use traffic::TrafficModel;

/// The paper's 200 ms link latency (matches `topology::generators`).
const LATENCY: SimDuration = SimDuration(200 * 1_000_000);

/// The toposense config the chaos plans run under: identical to the
/// defaults except for a much shorter re-add backoff (4–8 s instead of
/// 14–40 s), so a receiver that shed layers during a fault can climb back
/// within the 10-interval recovery bound after the fault heals.
pub fn chaos_config() -> toposense::Config {
    toposense::Config {
        backoff_min: SimDuration::from_secs(4),
        backoff_max: SimDuration::from_secs(8),
        ..toposense::Config::default()
    }
}

/// Bottleneck link flap on Topology A: the 150 kb/s `core -> lan0` link
/// (`DirLinkId` 2 and 3) goes down for 3 s, three times, 15 s apart.
pub fn link_flap(seed: u64) -> (Scenario, SimTime) {
    let core_lan0 = (DirLinkId(2), DirLinkId(3));
    let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, seed)
        .with_config(chaos_config())
        .with_duration(SimDuration::from_secs(150))
        .with_faults(|p| {
            let secs = SimDuration::from_secs;
            p.link_flap(core_lan0, SimTime::from_secs(40), secs(3), secs(15), 3)
        });
    // Last down at 70 s, healed 3 s later.
    (s, SimTime::from_secs(73))
}

/// Router crash on Topology A: the `lan0` router (`NodeId(2)`) crashes at
/// 40 s and restarts at 44 s with empty multicast state — its receivers go
/// dark until their dead-air repair re-grafts the tree.
pub fn router_crash(seed: u64) -> (Scenario, SimTime) {
    let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, seed)
        .with_config(chaos_config())
        .with_duration(SimDuration::from_secs(150))
        .with_faults(|p| p.node_outage(NodeId(2), SimTime::from_secs(40), SimTime::from_secs(44)));
    (s, SimTime::from_secs(44))
}

/// Total discovery outage on Topology A over `[40 s, 60 s)`: the controller
/// degrades to last-known-good, then suspends, then resumes.
pub fn discovery_outage(seed: u64) -> (Scenario, SimTime) {
    let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, seed)
        .with_config(chaos_config())
        .with_duration(SimDuration::from_secs(150))
        .with_discovery_outage(SimTime::from_secs(40), SimTime::from_secs(60));
    (s, SimTime::from_secs(60))
}

/// Partial discovery outage on Topology A: over `[40 s, 60 s)` the tool
/// answers with the whole `lan1` subtree (`NodeId` 5–7) missing, so the
/// controller steers only the receivers it can still see.
pub fn partial_discovery_outage(seed: u64) -> (Scenario, SimTime) {
    let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, seed)
        .with_config(chaos_config())
        .with_duration(SimDuration::from_secs(150))
        .with_discovery_partial_outage(
            SimTime::from_secs(40),
            SimTime::from_secs(60),
            vec![NodeId(5), NodeId(6), NodeId(7)],
        );
    (s, SimTime::from_secs(60))
}

/// Topology A with the controller on a dedicated node (`NodeId(1)`, uplink
/// `(DirLinkId(2), DirLinkId(3))` with one-way delay `ctl_delay`), so the
/// controller can crash without killing the source; with `standby`, a
/// warm-standby host `ctl2` (`NodeId(2)`, uplink `DirLinkId` 4 and 5):
///
/// ```text
///   src ---- core ---- [150] lan0 -- 2 receivers
///   ctl ----/    \---- [600] lan1 -- 2 receivers
///   ctl2 ---/
/// ```
fn controller_topo(name: &str, ctl_delay: SimDuration, standby: bool) -> TopoSpec {
    let fat = || LinkConfig::kbps(100_000.0).with_delay(LATENCY);
    let thin = |kbps: f64| LinkConfig::kbps(kbps).with_delay(LATENCY);
    let mut s = TopoSpec::new(name);
    let src = s.node("src", vec![NodeRole::Source { session: 0 }]);
    let ctl = s.node("ctl", vec![NodeRole::Controller]);
    let ctl2 = standby.then(|| s.node("ctl2", vec![NodeRole::Router]));
    let core = s.node("core", vec![NodeRole::Router]);
    s.link(src, core, fat());
    s.link(ctl, core, LinkConfig::kbps(100_000.0).with_delay(ctl_delay));
    if let Some(ctl2) = ctl2 {
        s.link(ctl2, core, fat());
    }
    for (set, cap) in [(0u32, 150.0), (1u32, 600.0)] {
        let lan = s.node(format!("lan{set}"), vec![NodeRole::Router]);
        s.link(core, lan, thin(cap));
        for r in 0..2 {
            let rcv = s.node(format!("rcv{set}.{r}"), vec![NodeRole::Receiver { session: 0, set }]);
            s.link(lan, rcv, fat());
        }
    }
    s
}

/// The failover plans' world: the controller and a standby host, both on
/// ordinary uplinks.
fn failover_topo() -> TopoSpec {
    controller_topo("failover-a", LATENCY, true)
}

/// Solo-controller blackout: the only controller (`NodeId(1)`, no standby)
/// goes dark from 40 s to 72 s and restarts. Its uplink is *slow* (3 s one
/// way), so every report reaches the controller 3.4 s after it was sent,
/// and it fails for the same window, flushing the reports already riding
/// the wire — so the first post-restart tick at 74 s provably runs before
/// any report can have refreshed a silence clock (earliest post-heal
/// arrival is ≥ 75 s). The outage (32 s) is longer than `evict_after`
/// (24 s): only the restart-instant re-anchor keeps the registry from being
/// evicted wholesale for quiet accrued during the controller's *own* outage.
pub fn controller_blackout(seed: u64) -> (Scenario, SimTime) {
    let topo = controller_topo("blackout-a", SimDuration::from_secs(3), false);
    let s = Scenario::new(topo, TrafficModel::Cbr, seed)
        .with_config(chaos_config())
        .with_duration(SimDuration::from_secs(150))
        .with_faults(|p| {
            let ctl_core = (DirLinkId(2), DirLinkId(3));
            let (from, until) = (SimTime::from_secs(40), SimTime::from_secs(72));
            p.node_outage(NodeId(1), from, until).link_outage(ctl_core, from, until)
        });
    (s, SimTime::from_secs(72))
}

/// Controller failover: the primary's node (`NodeId(1)`) crashes for good
/// at 40 s; the warm standby on `NodeId(2)` must take over and keep
/// steering the receivers.
pub fn controller_failover(seed: u64) -> (Scenario, SimTime) {
    let s = Scenario::new(failover_topo(), TrafficModel::Cbr, seed)
        .with_config(chaos_config())
        .with_duration(SimDuration::from_secs(150))
        .with_standby(NodeId(2))
        .with_faults(|p| p.node_crash(NodeId(1), SimTime::from_secs(40)));
    (s, SimTime::from_secs(40))
}

/// Primary crash *mid-interval*: the primary's node (`NodeId(1)`) dies for
/// good at 41 s — between its 40 s and 42 s ticks, so the interval in
/// flight is lost along with it. The input-synced standby on `NodeId(2)`
/// (replication on by default) must take over within
/// `failover_after + interval` and resume the suggestion stream from its
/// own replicated `AlgorithmState` with zero re-learning.
pub fn primary_crash_mid_interval(seed: u64) -> (Scenario, SimTime) {
    let s = Scenario::new(failover_topo(), TrafficModel::Cbr, seed)
        .with_config(chaos_config())
        .with_duration(SimDuration::from_secs(150))
        .with_standby(NodeId(2))
        .with_faults(|p| p.node_crash(NodeId(1), SimTime::from_millis(41_000)));
    (s, SimTime::from_millis(41_000))
}

/// Replica partition: the standby's uplink (`ctl2 -> core`, `DirLinkId` 4
/// and 5) goes down over `[40 s, 50 s)`. The replica misses input batches, falls
/// behind, and on heal must catch back up through a checkpoint resync —
/// exercising the `CheckpointTransfer` path end to end over the wire.
pub fn replica_partition(seed: u64) -> (Scenario, SimTime) {
    let s = Scenario::new(failover_topo(), TrafficModel::Cbr, seed)
        .with_config(chaos_config())
        .with_duration(SimDuration::from_secs(150))
        .with_standby(NodeId(2))
        .with_faults(|p| {
            let ctl2_core = (DirLinkId(4), DirLinkId(5));
            p.link_outage(ctl2_core, SimTime::from_secs(40), SimTime::from_secs(50))
        });
    (s, SimTime::from_secs(50))
}

/// Seeded-random chaos across every link and node of Topology A: 6 outages
/// of 0.5–10 s inside `[40 s, 100 s)`. Used for the no-panic/determinism
/// invariants, not the recovery bound (the plan may crash the source or
/// the controller itself).
pub fn random_chaos(seed: u64) -> (Scenario, SimTime) {
    let topo = generators::topology_a_default(2);
    let (links, nodes) = (topo.all_links(), topo.all_nodes());
    let s = Scenario::new(topo, TrafficModel::Cbr, seed)
        .with_config(chaos_config())
        .with_duration(SimDuration::from_secs(180))
        .with_faults(|p| {
            let plan_seed = netsim::derive_stream_seed(seed, "chaos-plan", 0);
            let (from, until) = (SimTime::from_secs(40), SimTime::from_secs(100));
            p.chaos(plan_seed, &links, &nodes, from, until, 6)
        });
    // Chaos outages last at most 10 s past the window's edge.
    (s, SimTime::from_secs(110))
}

/// One cell of the campaign matrix's fault axis (DESIGN.md §13): a fault
/// shape that can be stamped onto *any* scenario, with the fault window
/// scaled to the scenario's duration (middle third) so every workload sees
/// comparable injury and a known heal instant for the recovery gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAxis {
    /// Fault-free control cell.
    None,
    /// The duplex link `link` flaps three times, 3 s down per flap.
    LinkFlap { link: (DirLinkId, DirLinkId) },
}

impl FaultAxis {
    /// A short stable label for artifacts and run ids.
    pub fn label(&self) -> String {
        match *self {
            FaultAxis::None => "none".into(),
            // The link's place in its topology (`add_link` numbers a duplex
            // pair's halves back to back), as run ids have always named it.
            FaultAxis::LinkFlap { link } => format!("flap-l{}", link.0 .0 / 2),
        }
    }

    /// Stamp the fault onto `s`. Returns the scenario plus the instant the
    /// last fault heals (`None` for the control cell).
    pub fn apply(&self, s: Scenario) -> (Scenario, Option<SimTime>) {
        let third = SimTime::ZERO + SimDuration::from_secs_f64(s.duration.as_secs_f64() / 3.0);
        match *self {
            FaultAxis::None => (s, None),
            FaultAxis::LinkFlap { link } => {
                let period = SimDuration::from_secs(15);
                let down = SimDuration::from_secs(3);
                let s = s.with_faults(|p| p.link_flap(link, third, down, period, 3));
                (s, Some(third + period * 2 + down))
            }
        }
    }
}

/// Check the §9 recovery bound: every surviving receiver must return to
/// within one layer of its oracle level within `max_intervals` controller
/// intervals of `heal_at`. First return, not settling — the controller's
/// steady state keeps probing a layer above the optimum and backing off.
pub fn verify_recovery(
    r: &ScenarioResult,
    cfg: &toposense::Config,
    heal_at: SimTime,
    max_intervals: u64,
) -> Result<(), String> {
    let horizon = SimTime::ZERO + r.duration;
    for rec in &r.receivers {
        let series = rec.level_series();
        let rt = metrics::recovery_time(&series, heal_at, rec.optimal as f64, 1.0, horizon)
            .ok_or_else(|| {
                format!(
                    "receiver {:?} (set {}) never recovered to ~{}; changes: {:?}",
                    rec.node, rec.set, rec.optimal, rec.stats.changes
                )
            })?;
        let intervals = metrics::intervals_to_recover(rt, cfg.interval);
        if intervals > max_intervals {
            return Err(format!(
                "receiver {:?} (set {}) took {intervals} intervals (> {max_intervals}); changes: {:?}",
                rec.node, rec.set, rec.stats.changes
            ));
        }
    }
    Ok(())
}

/// Build a `blackbox.v1` failure dump from a completed run: the
/// controllers' flight-recorder windows, the run's counters (the same list
/// as the trail's, [`ScenarioResult::counters`]), the seed and the
/// effective-config fingerprint. Harnesses write it next
/// to their artifacts when [`verify_recovery`] trips or a campaign gate
/// fails, so the last moments survive without a re-run.
pub fn blackbox(
    r: &ScenarioResult,
    cfg: &toposense::Config,
    seed: u64,
    reason: &str,
    label: &str,
) -> telemetry::Blackbox {
    let mut occurrences = Vec::new();
    let mut ring_dropped = 0;
    for c in [r.controller.as_ref(), r.standby.as_ref()].into_iter().flatten() {
        occurrences.extend(c.flight.items());
        ring_dropped += c.flight.dropped();
    }
    // Two rings interleave (primary + standby); restore one timeline.
    occurrences.sort_by_key(|o| (o.t_ns, o.seq));
    telemetry::Blackbox {
        reason: reason.to_string(),
        label: label.to_string(),
        seed,
        config_fingerprint: format!("{:016x}", cfg.fingerprint()),
        t_ns: r.duration.nanos(),
        counters: r.counters(),
        occurrences,
        ring_dropped,
    }
}

/// A stable, fully-deterministic text rendering of a scenario result — the
/// CI determinism check runs a fixed fault plan twice and diffs this.
pub fn fingerprint(r: &ScenarioResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "events={} drops={} control_bytes={}", r.events, r.total_drops, r.control_bytes)
        .unwrap();
    for (tag, c) in [("ctrl", r.controller.as_ref()), ("standby", r.standby.as_ref())] {
        if let Some(c) = c {
            writeln!(
                out,
                "{tag} intervals={} suggestions={} registered={} degraded={} suspended={} \
                 partial={} quarantined={} evicted={} acks={} failover={:?}",
                c.intervals,
                c.suggestions_sent,
                c.registered,
                c.degraded_intervals,
                c.suspended_intervals,
                c.partial_intervals,
                c.quarantined,
                c.evicted,
                c.acks_sent,
                c.failover_at,
            )
            .unwrap();
            writeln!(
                out,
                "{tag}.repl applied={} acks={} divergences={} quarantined={} resyncs={}",
                c.replica_applied,
                c.replica_acks,
                c.replica_divergences,
                c.replica_quarantined,
                c.replica_resyncs,
            )
            .unwrap();
        }
    }
    for rec in &r.receivers {
        writeln!(
            out,
            "rcv node={:?} session={} set={} optimal={} final={} reports={} registers={} \
             rejoins={} unilateral={} suggestions={} changes={:?}",
            rec.node,
            rec.session,
            rec.set,
            rec.optimal,
            rec.stats.final_level(),
            rec.stats.reports_sent,
            rec.stats.registers_sent,
            rec.stats.rejoins,
            rec.stats.unilateral_actions,
            rec.stats.suggestions_received,
            rec.stats.changes,
        )
        .unwrap();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_topo_is_well_formed() {
        let t = failover_topo();
        assert_eq!(t.controller(), NodeId(1));
        assert_eq!(t.receivers().len(), 4);
        assert_eq!(t.sources(), vec![(NodeId(0), 0)]);
        // `NodeId(2)` (the standby host) is a plain router.
        assert_eq!(t.nodes[2].roles, vec![NodeRole::Router]);
    }

    #[test]
    fn canned_plans_build() {
        for (s, heal) in [
            link_flap(1),
            router_crash(1),
            discovery_outage(1),
            partial_discovery_outage(1),
            controller_blackout(1),
            controller_failover(1),
            primary_crash_mid_interval(1),
            replica_partition(1),
            random_chaos(1),
        ] {
            assert!(SimTime::ZERO + s.duration > heal, "must run past the heal point");
            s.cfg.validate();
        }
    }
}
