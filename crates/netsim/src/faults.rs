//! Scheduled fault injection: link outages, router crashes, and the
//! [`FaultPlan`] DSL that describes them.
//!
//! Faults are ordinary events on the simulator's deterministic event queue,
//! so a faulted run is exactly as reproducible as a clean one: identical
//! seeds and plans produce bit-identical histories. The semantics are:
//!
//! * **Link down** — the directed link stops accepting packets (arrivals
//!   are counted as drops) and its queue is flushed. A packet already being
//!   serialized is judged when its transmission completes: if the link is
//!   still down it dies on the wire; if the outage was shorter than the
//!   serialization time, it survives (a micro-flap a store-and-forward hop
//!   never noticed).
//! * **Node crash** — the router forwards nothing, delivers nothing to its
//!   apps, swallows every timer they had armed (one due after the restart
//!   is dropped just like one due during the outage — however short the
//!   blink, no pre-crash timer fires again), and loses its multicast
//!   forwarding state (its out-links are deactivated and local group
//!   membership is wiped).
//!   Upstream routers keep forwarding into the dead node — they have no way
//!   to know — so traffic blackholes there until the protocol repairs the
//!   tree.
//! * **Node restart** — the router forwards again and every app hosted on
//!   it gets an [`crate::App::on_restart`] callback to rebuild its state
//!   (receivers re-join their groups, which re-grafts the missing links).
//!
//! Plans are built from one-shot events, periodic flaps, paired outages,
//! and a seeded-random chaos generator; the chaos expansion happens at
//! build time through [`crate::RngStream`], so the plan itself — not the
//! run — is where the randomness lives.

use crate::link::DirLinkId;
use crate::node::NodeId;
use crate::rng::RngStream;
use crate::time::{SimDuration, SimTime};

/// One injectable fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The directed link stops carrying packets and flushes its queue.
    LinkDown(DirLinkId),
    /// The directed link carries packets again.
    LinkUp(DirLinkId),
    /// The node stops forwarding, loses multicast state, and its apps go
    /// silent.
    NodeCrash(NodeId),
    /// The node forwards again; hosted apps get `on_restart`.
    NodeRestart(NodeId),
}

/// A schedule of faults, installed into a simulator before the run.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<(SimTime, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled `(time, fault)` pairs, in insertion order.
    pub fn events(&self) -> &[(SimTime, FaultKind)] {
        &self.events
    }

    /// Schedule one fault.
    pub fn at(mut self, time: SimTime, kind: FaultKind) -> Self {
        self.events.push((time, kind));
        self
    }

    /// Take both directed halves of a duplex link down over `[from, until)`.
    pub fn link_outage(
        mut self,
        halves: (DirLinkId, DirLinkId),
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(until > from, "outage must end after it starts");
        for l in [halves.0, halves.1] {
            self.events.push((from, FaultKind::LinkDown(l)));
            self.events.push((until, FaultKind::LinkUp(l)));
        }
        self
    }

    /// Crash a node over `[from, until)`, restarting it at `until`.
    pub fn node_outage(mut self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        assert!(until > from, "outage must end after it starts");
        self.events.push((from, FaultKind::NodeCrash(node)));
        self.events.push((until, FaultKind::NodeRestart(node)));
        self
    }

    /// Crash a node permanently at `from` (no restart).
    pub fn node_crash(mut self, node: NodeId, from: SimTime) -> Self {
        self.events.push((from, FaultKind::NodeCrash(node)));
        self
    }

    /// Partition a node over `[from, until)`: every one of its duplex
    /// links goes down together and heals together. Unlike a crash the
    /// node keeps running — apps hold their state and timers — it just
    /// cannot reach anyone, which is the fault a replicated controller's
    /// resync path must survive.
    pub fn node_partition(
        mut self,
        links: &[(DirLinkId, DirLinkId)],
        from: SimTime,
        until: SimTime,
    ) -> Self {
        assert!(!links.is_empty(), "a partition needs at least one link");
        for &halves in links {
            self = self.link_outage(halves, from, until);
        }
        self
    }

    /// Periodically flap a duplex link: down at `first_down`, up after
    /// `down_for`, repeating every `period` for `repeats` cycles.
    pub fn link_flap(
        mut self,
        halves: (DirLinkId, DirLinkId),
        first_down: SimTime,
        down_for: SimDuration,
        period: SimDuration,
        repeats: u32,
    ) -> Self {
        assert!(down_for < period, "a flap must heal before it repeats");
        for i in 0..repeats as u64 {
            let down = first_down + period * i;
            self = self.link_outage(halves, down, down + down_for);
        }
        self
    }

    /// Seeded-random chaos: `events` outages of random kind, target, start
    /// and duration inside `[from, until)`. Links are duplex pairs; nodes
    /// are crash/restart candidates. Expansion is deterministic in `seed` —
    /// the plan is random, the run replaying it is not.
    pub fn chaos(
        mut self,
        seed: u64,
        links: &[(DirLinkId, DirLinkId)],
        nodes: &[NodeId],
        from: SimTime,
        until: SimTime,
        events: u32,
    ) -> Self {
        assert!(until > from, "chaos window must be non-empty");
        assert!(!links.is_empty() || !nodes.is_empty(), "chaos needs targets");
        let mut rng = RngStream::derive(seed, "netsim/faults/chaos");
        let window = until.since(from);
        for _ in 0..events {
            let start = from + SimDuration::from_secs_f64(rng.range_f64(0.0, window.as_secs_f64()));
            let max_len = until.since(start).as_secs_f64();
            // Outages last 0.5-10 s, clipped to the remaining window.
            let len = SimDuration::from_secs_f64(rng.range_f64(0.5, 10.0).min(max_len));
            let pick_node = !nodes.is_empty() && (links.is_empty() || rng.chance(0.5));
            if len.is_zero() {
                continue;
            }
            let end = start + len;
            if pick_node {
                let n = nodes[rng.range_u64(0, nodes.len() as u64) as usize];
                self = self.node_outage(n, start, end);
            } else {
                let l = links[rng.range_u64(0, links.len() as u64) as usize];
                self = self.link_outage(l, start, end);
            }
        }
        self
    }

    /// The instant the last scheduled fault fires (heal time of the plan).
    #[cfg(test)]
    fn last_event_time(&self) -> Option<SimTime> {
        self.events.iter().map(|&(t, _)| t).max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outage_builders_pair_down_and_up() {
        let plan = FaultPlan::new()
            .link_outage((DirLinkId(0), DirLinkId(1)), SimTime::from_secs(5), SimTime::from_secs(9))
            .node_outage(NodeId(3), SimTime::from_secs(2), SimTime::from_secs(4));
        assert_eq!(plan.events().len(), 6);
        assert!(plan.events().contains(&(SimTime::from_secs(9), FaultKind::LinkUp(DirLinkId(1)))));
        assert!(plan
            .events()
            .contains(&(SimTime::from_secs(4), FaultKind::NodeRestart(NodeId(3)))));
        assert_eq!(plan.last_event_time(), Some(SimTime::from_secs(9)));
    }

    #[test]
    fn flap_expands_every_cycle() {
        let plan = FaultPlan::new().link_flap(
            (DirLinkId(0), DirLinkId(1)),
            SimTime::from_secs(10),
            SimDuration::from_secs(2),
            SimDuration::from_secs(20),
            3,
        );
        // 3 cycles x 2 halves x (down + up).
        assert_eq!(plan.events().len(), 12);
        let downs: Vec<SimTime> = plan
            .events()
            .iter()
            .filter(|(_, k)| matches!(k, FaultKind::LinkDown(DirLinkId(0))))
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(
            downs,
            vec![SimTime::from_secs(10), SimTime::from_secs(30), SimTime::from_secs(50)]
        );
    }

    #[test]
    #[should_panic(expected = "heal before it repeats")]
    fn flap_longer_than_period_panics() {
        let _ = FaultPlan::new().link_flap(
            (DirLinkId(0), DirLinkId(1)),
            SimTime::ZERO,
            SimDuration::from_secs(30),
            SimDuration::from_secs(20),
            2,
        );
    }

    #[test]
    fn node_partition_downs_every_link_together() {
        let links = [(DirLinkId(0), DirLinkId(1)), (DirLinkId(4), DirLinkId(5))];
        let plan =
            FaultPlan::new().node_partition(&links, SimTime::from_secs(40), SimTime::from_secs(50));
        assert_eq!(plan.events().len(), 8);
        for (a, b) in links {
            for l in [a, b] {
                assert!(plan.events().contains(&(SimTime::from_secs(40), FaultKind::LinkDown(l))));
                assert!(plan.events().contains(&(SimTime::from_secs(50), FaultKind::LinkUp(l))));
            }
        }
    }

    #[test]
    fn chaos_is_deterministic_in_the_seed() {
        let mk = |seed| {
            FaultPlan::new().chaos(
                seed,
                &[(DirLinkId(0), DirLinkId(1)), (DirLinkId(2), DirLinkId(3))],
                &[NodeId(1), NodeId(2)],
                SimTime::from_secs(10),
                SimTime::from_secs(100),
                8,
            )
        };
        assert_eq!(mk(7).events(), mk(7).events());
        assert_ne!(mk(7).events(), mk(8).events());
        // Every event lands inside the window.
        for &(t, _) in mk(7).events() {
            assert!(t >= SimTime::from_secs(10) && t <= SimTime::from_secs(100));
        }
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::new().last_event_time(), None);
    }
}
