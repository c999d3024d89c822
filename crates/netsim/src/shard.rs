//! Sharded parallel execution: one event wheel per domain, conservative
//! lookahead synchronization at the inter-domain links.
//!
//! A [`ShardedSim`] owns a set of independent [`Simulator`]s ("shards"),
//! typically one per federation domain. Within a shard everything is the
//! ordinary sequential simulator — same wheel, same determinism contract.
//! Shards interact only through **handoffs**: a packet that reaches a
//! shard's border stub node is captured by an app the runner installed
//! there ([`ShardedSim::add_handoff`]), carried across in the handoff's
//! mailbox, and injected into the destination shard a fixed `delay` later
//! (the inter-domain propagation latency).
//!
//! ## Conservative lookahead
//!
//! Execution proceeds in **barrier epochs** of length `H = min(delay)` over
//! all registered handoffs. Each epoch, every shard runs independently — in
//! parallel ([`crate::par::for_each`]), on whichever worker thread is free —
//! up to the epoch boundary `E`; then the runner drains all mailboxes and
//! schedules each captured packet into its destination shard.
//!
//! Correctness argument: a packet captured at time `t` in the epoch
//! `(E - H, E]` is injected at `t + delay`. Since `t > E - H` and
//! `delay >= H`, the injection time is strictly after `E` — i.e. always in
//! the destination shard's strict future, never behind its clock. The
//! handoff latency is the classic conservative-parallel-DES lookahead: the
//! physical propagation delay guarantees no cross-shard causality shorter
//! than `H` exists, so no shard can ever receive a message for simulated
//! time it has already executed. No rollback machinery (optimistic /
//! Time-Warp) is needed, and determinism is preserved: mailboxes are
//! drained in shard order, and captures within a shard are already in that
//! shard's deterministic event order.
//!
//! The sequential oracle for a sharded world is a single [`Simulator`] over
//! the same topology where each border stub hosts a [`RelayApp`] instead of
//! a handoff: the relay re-injects the packet `delay` later inside the same
//! event queue, which is exactly the handoff semantics minus the thread
//! boundary. `tests/netsim_differential.rs` pins the equivalence.
//!
//! Faults stay shard-local. A crashed stub captures nothing, and — as in
//! any [`Simulator`] — every timer armed on a node before it crashed is
//! dropped, whether it comes due during the outage or after the restart.

use crate::app::{App, Ctx};
use crate::faults::FaultPlan;
use crate::node::NodeId;
use crate::packet::Packet;
use crate::par;
use crate::sim::{SimProfile, Simulator};
use crate::time::{SimDuration, SimTime};
use std::sync::{Arc, Mutex};

/// A mailbox of `(capture_time, packet)` pairs, shared between the egress
/// app inside a shard and the barrier drain outside it. Only ever contended
/// at epoch boundaries (workers have quiesced), so a mutex costs nothing on
/// the hot path.
type Outbox = Arc<Mutex<Vec<(SimTime, Packet)>>>;

/// Captures every packet delivered to its (border stub) node into an
/// [`Outbox`] for the barrier drain. [`ShardedSim::add_handoff`] installs
/// one on the stub of every handoff it registers.
struct EgressApp {
    outbox: Outbox,
}

impl App for EgressApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &Packet) {
        self.outbox.lock().unwrap().push((ctx.now(), packet.clone()));
    }
}

/// The sequential-oracle twin of a handoff: re-injects every packet at
/// `dest` after `delay` inside the same simulator, mirroring the mailbox
/// crossing without a thread boundary.
pub struct RelayApp {
    pub dest: NodeId,
    pub delay: SimDuration,
}

impl App for RelayApp {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &Packet) {
        ctx.relay(self.dest, self.delay, packet);
    }
}

struct Handoff {
    outbox: Outbox,
    dest_shard: usize,
    dest_node: NodeId,
    delay: SimDuration,
}

/// Parallel runner over per-domain [`Simulator`] shards with conservative
/// barrier synchronization (see module docs).
pub struct ShardedSim {
    shards: Vec<Simulator>,
    /// Handoffs grouped by source shard (drained in shard, then
    /// registration order — deterministic).
    handoffs: Vec<Vec<Handoff>>,
    /// Barrier frontier: every shard has fully executed `[0, clock]`.
    clock: SimTime,
    lookahead: Option<SimDuration>,
    workers: usize,
    stat_handoffs: u64,
    stat_epochs: u64,
    stat_stalls: u64,
    /// Per-shard event counts at the previous barrier (stall detection).
    events_at_barrier: Vec<u64>,
}

impl ShardedSim {
    /// Wrap independently-built shard simulators. Handoffs are registered
    /// separately; with none, the shards are fully independent and run
    /// barrier-free.
    pub fn new(shards: Vec<Simulator>) -> Self {
        assert!(!shards.is_empty(), "a sharded sim needs at least one shard");
        let n = shards.len();
        ShardedSim {
            shards,
            handoffs: (0..n).map(|_| Vec::new()).collect(),
            clock: SimTime::ZERO,
            lookahead: None,
            workers: par::workers_for(n),
            stat_handoffs: 0,
            stat_epochs: 0,
            stat_stalls: 0,
            events_at_barrier: vec![0; n],
        }
    }

    /// Register a cross-shard handoff: every packet delivered to node `stub`
    /// of `src_shard` is captured and injected at `dest_node` of
    /// `dest_shard`, `delay` after its capture time. The runner owns the
    /// mailbox and installs the capturing app on `stub` itself, so this must
    /// come before the run starts — `shard_mut`'s assert is the only
    /// guard that needs. `delay` must be positive — it is the lookahead that
    /// makes conservative sync correct; the epoch length becomes the minimum
    /// delay over all handoffs.
    pub fn add_handoff(
        &mut self,
        src_shard: usize,
        stub: NodeId,
        dest_shard: usize,
        dest_node: NodeId,
        delay: SimDuration,
    ) {
        assert!(delay > SimDuration::ZERO, "handoff delay must be positive (it is the lookahead)");
        assert!(
            dest_node.index() < self.shards[dest_shard].network().node_count(),
            "handoff destination {dest_node:?} is not a node of shard {dest_shard}"
        );
        let outbox = Outbox::default();
        self.shard_mut(src_shard)
            .add_app(stub, Box::new(EgressApp { outbox: Arc::clone(&outbox) }));
        self.lookahead = Some(self.lookahead.map_or(delay, |h| h.min(delay)));
        self.handoffs[src_shard].push(Handoff { outbox, dest_shard, dest_node, delay });
    }

    /// The epoch length: the minimum handoff delay, or `None` while the
    /// shards are fully independent.
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }

    /// Worker threads the parallel phase will use (capped by shard count and
    /// the machine's available parallelism).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Borrow one shard (post-run inspection).
    pub fn shard(&self, i: usize) -> &Simulator {
        &self.shards[i]
    }

    /// Mutably borrow one shard (setup: apps, groups, faults).
    fn shard_mut(&mut self, i: usize) -> &mut Simulator {
        assert!(self.clock == SimTime::ZERO, "shards must be configured before the run starts");
        &mut self.shards[i]
    }

    /// Install a fault plan on one shard. Fault targets are shard-local ids;
    /// the caller partitions a global plan by link/node ownership.
    pub fn install_faults(&mut self, shard: usize, plan: &FaultPlan) {
        self.shards[shard].install_faults(plan);
    }

    /// The barrier frontier — every shard has fully executed up to here.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total events processed across all shards.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_processed()).sum()
    }

    /// Packets alive across all shards (0 after a drained run).
    pub fn packets_live(&self) -> usize {
        self.shards.iter().map(|s| s.packets_live()).sum()
    }

    /// Run every shard to `deadline`, epoch by epoch.
    pub fn run_until(&mut self, deadline: SimTime) {
        while self.clock < deadline {
            let epoch_end = match self.lookahead {
                // Independent shards: no causality to protect, one epoch.
                None => deadline,
                Some(h) => deadline.min(self.clock + h),
            };
            self.run_shards_to(epoch_end);
            self.stat_epochs += 1;
            for (i, s) in self.shards.iter().enumerate() {
                if s.events_processed() == self.events_at_barrier[i] {
                    self.stat_stalls += 1;
                }
                self.events_at_barrier[i] = s.events_processed();
            }
            self.drain_mailboxes();
            self.clock = epoch_end;
        }
    }

    /// The parallel phase: shards advance independently to `until`. A shard
    /// is run by one thread per epoch and shares nothing until the barrier,
    /// so which thread that was, or when it picked the shard up, never shows
    /// in its events — `tests/netsim_differential.rs` pins that.
    fn run_shards_to(&mut self, until: SimTime) {
        par::for_each(self.shards.iter_mut(), self.workers, |s| s.run_until(until));
    }

    /// The barrier phase: move every captured packet into its destination
    /// shard's queue at `capture + delay` — by the lookahead argument this
    /// is always in the destination's strict future.
    fn drain_mailboxes(&mut self) {
        for src in 0..self.handoffs.len() {
            for h in 0..self.handoffs[src].len() {
                let Handoff { ref outbox, dest_shard, dest_node, delay } = self.handoffs[src][h];
                let captured = std::mem::take(&mut *outbox.lock().unwrap());
                for (t, packet) in captured {
                    self.stat_handoffs += 1;
                    self.shards[dest_shard].schedule_arrival(
                        t + delay,
                        dest_node,
                        packet.forwarded_to(dest_node, dest_node),
                    );
                }
            }
        }
    }

    /// Merged profile: per-shard counters folded together, plus the barrier
    /// bookkeeping (`shard_*` fields) only this runner can observe.
    pub fn profile(&self) -> SimProfile {
        let mut merged = SimProfile { shard_events_min: u64::MAX, ..SimProfile::default() };
        for s in &self.shards {
            merged.merge(&s.profile());
        }
        merged.shards = self.shards.len() as u64;
        merged.shard_handoffs = self.stat_handoffs;
        merged.shard_barrier_epochs = self.stat_epochs;
        merged.shard_lookahead_stalls = self.stat_stalls;
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::multicast::GroupId;
    use crate::packet::SessionId;
    use crate::sim::{NetworkBuilder, SimConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// CBR source unicasting to a fixed node.
    struct Pinger {
        dest: NodeId,
        period: SimDuration,
    }

    impl App for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.send_control(self.dest, 1000, Arc::new(()));
            ctx.set_timer(self.period, 0);
        }
    }

    struct Counter {
        hits: Arc<AtomicU64>,
    }

    impl App for Counter {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &Packet) {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One shard: a -- stub, where the stub's egress feeds shard 1's
    /// b -- sink chain. The oracle is the same run with a relay stub.
    #[test]
    fn two_shard_pipeline_matches_relay_oracle() {
        let delay = SimDuration::from_millis(20);

        // Sharded world.
        let mut nb0 = NetworkBuilder::new(SimConfig::default());
        let a = nb0.add_node("a");
        let stub = nb0.add_node("stub");
        nb0.add_link(a, stub, LinkConfig::kbps(10_000.0));
        let mut s0 = nb0.build();
        s0.add_app(a, Box::new(Pinger { dest: stub, period: SimDuration::from_millis(10) }));

        let mut nb1 = NetworkBuilder::new(SimConfig::default());
        let b = nb1.add_node("b");
        let sink = nb1.add_node("sink");
        nb1.add_link(b, sink, LinkConfig::kbps(10_000.0));
        let mut s1 = nb1.build();
        let hits = Arc::new(AtomicU64::new(0));
        // The handoff lands at b addressed to b; a relay app forwards on to
        // the sink so the second shard's link actually carries traffic.
        s1.add_app(b, Box::new(RelayApp { dest: sink, delay: SimDuration::from_millis(1) }));
        s1.add_app(sink, Box::new(Counter { hits: Arc::clone(&hits) }));

        let mut sharded = ShardedSim::new(vec![s0, s1]);
        sharded.add_handoff(0, stub, 1, b, delay);
        sharded.run_until(SimTime::from_secs(2));

        // Oracle: both halves in one simulator, stub relays to b.
        let mut nb = NetworkBuilder::new(SimConfig::default());
        let oa = nb.add_node("a");
        let ostub = nb.add_node("stub");
        let ob = nb.add_node("b");
        let osink = nb.add_node("sink");
        nb.add_link(oa, ostub, LinkConfig::kbps(10_000.0));
        nb.add_link(ob, osink, LinkConfig::kbps(10_000.0));
        let mut oracle = nb.build();
        oracle.add_app(oa, Box::new(Pinger { dest: ostub, period: SimDuration::from_millis(10) }));
        oracle.add_app(ostub, Box::new(RelayApp { dest: ob, delay }));
        let ohits = Arc::new(AtomicU64::new(0));
        oracle.add_app(ob, Box::new(RelayApp { dest: osink, delay: SimDuration::from_millis(1) }));
        oracle.add_app(osink, Box::new(Counter { hits: Arc::clone(&ohits) }));
        oracle.run_until(SimTime::from_secs(2));

        assert_eq!(hits.load(Ordering::Relaxed), ohits.load(Ordering::Relaxed));
        assert!(hits.load(Ordering::Relaxed) > 100);
        assert_eq!(sharded.events_processed(), oracle.events_processed());
        // In-flight handoffs at the cutoff stay alive in both worlds alike.
        assert_eq!(sharded.packets_live(), oracle.packets_live());
        let p = sharded.profile();
        assert_eq!(p.shards, 2);
        assert!(p.shard_handoffs > 100);
        assert!(p.shard_barrier_epochs >= 100, "2 s / 20 ms lookahead = 100 epochs");
        assert_eq!(p.events_total, oracle.events_processed());
        assert!(p.shard_events_min <= p.shard_events_max);
    }

    /// Multicast inside a shard fed by a handoff from another shard: the
    /// batched join and the border re-origination compose.
    #[test]
    fn handoff_feeds_domain_multicast() {
        struct BorderFeeder {
            group: GroupId,
            seq: u64,
        }
        impl App for BorderFeeder {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, _packet: &Packet) {
                ctx.send_media(self.group, SessionId(0), 0, self.seq, 1000);
                self.seq += 1;
            }
        }

        let mut nb0 = NetworkBuilder::new(SimConfig::default());
        let src = nb0.add_node("src");
        let stub = nb0.add_node("stub");
        nb0.add_link(src, stub, LinkConfig::kbps(50_000.0));
        let mut s0 = nb0.build();
        s0.add_app(src, Box::new(Pinger { dest: stub, period: SimDuration::from_millis(5) }));

        // Shard 1: border with a 3-leaf star, every leaf subscribed.
        let mut nb1 = NetworkBuilder::new(SimConfig::default());
        let border = nb1.add_node("border");
        let leaves: Vec<NodeId> = (0..3).map(|i| nb1.add_node(format!("leaf{i}"))).collect();
        for &l in &leaves {
            nb1.add_link(border, l, LinkConfig::kbps(50_000.0));
        }
        let mut s1 = nb1.build();
        let group = s1.create_group(border);
        s1.add_app(border, Box::new(BorderFeeder { group, seq: 0 }));
        let hits = Arc::new(AtomicU64::new(0));
        let mut members = Vec::new();
        for &l in &leaves {
            let app = s1.add_app(l, Box::new(Counter { hits: Arc::clone(&hits) }));
            members.push((l, app));
        }
        s1.batch_join(group, &members);

        let mut sharded = ShardedSim::new(vec![s0, s1]);
        sharded.add_handoff(0, stub, 1, border, SimDuration::from_millis(10));
        sharded.run_until(SimTime::from_secs(1));

        // 200 feeds/s × 3 leaves, less the pipeline fill: two 200 ms default
        // propagation delays plus the 10 ms handoff ≈ 0.41 s of the 1 s run.
        let got = hits.load(Ordering::Relaxed);
        assert!(got > 300, "expected ~354 deliveries, got {got}");
        for i in 0..sharded.shard_count() {
            sharded.shard(i).network().multicast_audit().unwrap();
        }
    }

    /// A handoff to a node its destination shard does not have is refused
    /// when it is registered, not at the first barrier drain.
    #[test]
    #[should_panic(expected = "is not a node of shard 1")]
    fn handoff_to_a_missing_node_panics_at_registration() {
        let shard = || {
            let mut nb = NetworkBuilder::new(SimConfig::default());
            nb.add_node("only");
            nb.build()
        };
        let mut sharded = ShardedSim::new(vec![shard(), shard()]);
        sharded.add_handoff(0, NodeId(0), 1, NodeId(1), SimDuration::from_millis(10));
    }
}
