//! The simulator: network construction, the event loop, and dispatch.
//!
//! The hot path is allocation-free: packets live in a generational
//! [`PacketSlab`] and events carry `Copy` ids, multicast fan-out duplicates
//! slab references instead of cloning payloads, per-link arrivals are
//! coalesced into one self-rescheduling `LinkDeliver` event per link, and
//! the per-event dispatch state (fan-out link lists, app lists, fault
//! flushes) lives in reusable scratch buffers on the [`Simulator`].

use crate::app::{App, AppId, Ctx};
use crate::event::{Event, EventQueue, QueueBackend, WheelStats};
use crate::faults::{FaultKind, FaultPlan};
use crate::link::{DirLinkId, Enqueue, Link, LinkConfig, QueuedPacket};
use crate::multicast::{GroupId, GroupSnapshot, MulticastConfig, MulticastState, TreeOp};
use crate::node::{Node, NodeId, Routing};
use crate::packet::{Dest, Packet, PacketId, PacketSlab};
use crate::prefetch;
use crate::time::SimTime;
use crate::trace::{DropReason, Ring, TraceEvent};

/// Global simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Master seed the world is built for. The simulator itself draws
    /// nothing: each component derives its own stream from the seed (see
    /// [`crate::rng`]), so this field is a label only.
    pub seed: u64,
    /// Multicast graft/prune latencies.
    pub multicast: MulticastConfig,
    /// Event-queue implementation. The calendar wheel is the fast default;
    /// the binary heap is kept as a differential oracle — both produce
    /// bit-identical runs.
    pub queue: QueueBackend,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 1, multicast: MulticastConfig::default(), queue: QueueBackend::default() }
    }
}

/// The passive network: nodes, links, routing, multicast state.
pub struct Network {
    pub(crate) nodes: Vec<Node>,
    pub(crate) links: Vec<Link>,
    pub(crate) routing: Routing,
    pub(crate) mcast: MulticastState,
    /// Per-node liveness, dense. Checked on every arrival and timer, so it
    /// lives outside the `Node` structs: the whole vector stays cache-hot
    /// where indexing into 100-byte `Node`s would miss per event.
    pub(crate) node_up: Vec<bool>,
}

impl Network {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of **directed** links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Read a directed link (configuration + statistics).
    pub fn link(&self, id: DirLinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// The node a directed link points at.
    pub fn link_head(&self, id: DirLinkId) -> NodeId {
        self.links[id.0 as usize].to
    }

    /// The node a directed link leaves from.
    pub fn link_tail(&self, id: DirLinkId) -> NodeId {
        self.links[id.0 as usize].from
    }

    /// A node's label (for diagnostics).
    pub fn node_label(&self, id: NodeId) -> &str {
        &self.nodes[id.index()].label
    }

    /// Whether a node is currently up (not crashed).
    pub fn node_is_up(&self, id: NodeId) -> bool {
        self.node_up[id.index()]
    }

    /// Whether a directed link is currently up.
    pub fn link_is_up(&self, id: DirLinkId) -> bool {
        self.links[id.0 as usize].is_up()
    }

    /// Unicast next hop.
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<DirLinkId> {
        self.routing.next_hop(from, to)
    }

    /// The directed links on the unicast path `from -> to`.
    pub fn path(&self, from: NodeId, to: NodeId) -> Vec<DirLinkId> {
        let links = &self.links;
        self.routing.path(from, to, |l| links[l.0 as usize].to)
    }

    /// Ground-truth snapshot of every multicast distribution tree.
    pub fn multicast_snapshot(&self) -> Vec<GroupSnapshot> {
        self.mcast.snapshot()
    }

    pub(crate) fn join_group(&mut self, group: GroupId, node: NodeId, app: AppId) -> Vec<TreeOp> {
        let links = &self.links;
        self.mcast.join(group, node, app, &self.routing, |l| links[l.0 as usize].to)
    }

    pub(crate) fn leave_group(&mut self, group: GroupId, node: NodeId, app: AppId) -> Vec<TreeOp> {
        let links = &self.links;
        self.mcast.leave(group, node, app, &self.routing, |l| links[l.0 as usize].to)
    }

    pub(crate) fn join_group_batch(
        &mut self,
        group: GroupId,
        members: &[(NodeId, AppId)],
    ) -> Vec<TreeOp> {
        let links = &self.links;
        self.mcast.join_batch(group, members, &self.routing, |l| links[l.0 as usize].to)
    }

    /// Cross-check the multicast SoA views (bitmaps vs sorted vectors vs
    /// desire refcounts) — post-run harness assertion, not a hot path.
    pub fn multicast_audit(&self) -> Result<(), String> {
        let links = &self.links;
        self.mcast.audit(&self.routing, |l| links[l.0 as usize].to)
    }
}

/// Builds the static topology, then freezes it into a [`Simulator`].
///
/// Ids are handed out densely in call order, and callers may rely on it:
/// the `i`-th [`NetworkBuilder::add_node`] returns `NodeId(i)`, and the
/// `j`-th [`NetworkBuilder::add_link`] returns the back-to-back halves
/// `(DirLinkId(2j), DirLinkId(2j + 1))`. `topology::TopoSpec` hands out
/// these ids before the world is built.
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    cfg: SimConfig,
}

impl NetworkBuilder {
    pub fn new(cfg: SimConfig) -> Self {
        NetworkBuilder { nodes: Vec::new(), links: Vec::new(), cfg }
    }

    /// Add a node with a diagnostic label; returns the next [`NodeId`].
    pub fn add_node(&mut self, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { label: label.into(), ..Node::default() });
        id
    }

    /// Add a duplex link; returns the two directed halves `(a->b, b->a)`,
    /// the next two [`DirLinkId`]s.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> (DirLinkId, DirLinkId) {
        assert_ne!(a, b, "self-links are not supported");
        let ab = DirLinkId(self.links.len() as u32);
        self.links.push(Link::new(a, b, &cfg));
        let ba = DirLinkId(self.links.len() as u32);
        self.links.push(Link::new(b, a, &cfg));
        self.nodes[a.index()].out_links.push(ab);
        self.nodes[b.index()].out_links.push(ba);
        (ab, ba)
    }

    /// Freeze the topology: compute routing and produce the simulator.
    pub fn build(self) -> Simulator {
        let triples: Vec<(DirLinkId, NodeId, NodeId)> = self
            .links
            .iter()
            .enumerate()
            .map(|(i, l)| (DirLinkId(i as u32), l.from, l.to))
            .collect();
        let routing = Routing::build(self.nodes.len(), &triples);
        let num_nodes = self.nodes.len();
        let num_links = self.links.len();
        let net = Network {
            nodes: self.nodes,
            links: self.links,
            routing,
            mcast: MulticastState::new(self.cfg.multicast, num_nodes, num_links),
            node_up: vec![true; num_nodes],
        };
        Simulator {
            clock: SimTime::ZERO,
            queue: EventQueue::with_backend(self.cfg.queue),
            net,
            slab: PacketSlab::new(),
            apps: Vec::new(),
            app_node: Vec::new(),
            timer_floor: Vec::new(),
            started: false,
            events_done: 0,
            ev_counts: [0; 7],
            drop_counts: [0; 3],
            trace: Ring::default(),
            scratch_links: Vec::new(),
            scratch_apps: Vec::new(),
            scratch_flush: Vec::new(),
        }
    }
}

/// A profiler snapshot: where events went, where memory and queues peaked.
///
/// Every field is a pure observer — collecting them never changes a run.
/// Drop counts split loss by [`DropReason`], so congestion loss (the control
/// loop's signal) is distinguishable from fault loss (the chaos plan's).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimProfile {
    /// Total events processed.
    pub events_total: u64,
    /// Events processed, by type.
    pub ev_link_tx_done: u64,
    pub ev_link_deliver: u64,
    pub ev_inject: u64,
    pub ev_timer: u64,
    pub ev_graft_done: u64,
    pub ev_prune_done: u64,
    pub ev_fault: u64,
    /// Packets dropped, by reason (includes priority-drop evictions under
    /// `queue_full`).
    pub drops_queue_full: u64,
    pub drops_link_down: u64,
    pub drops_node_down: u64,
    /// Peak concurrent packets alive in the slab (slots ever allocated).
    pub slab_hwm: u64,
    /// Packets alive right now (nonzero after drain indicates a leak).
    pub slab_live: u64,
    /// Peak number of pending events in the queue.
    pub pending_events_hwm: u64,
    /// Peak per-link queue occupancy, max over all directed links.
    pub max_link_queue_hwm: u64,
    /// Calendar-wheel internals (zeros on the heap oracle backend).
    pub wheel: WheelStats,
    /// Shards in the run (1 for a plain sequential simulator, even though
    /// it never crosses a barrier — keeps ratios like events/shard honest).
    pub shards: u64,
    /// Packets handed across shard boundaries through mailboxes.
    pub shard_handoffs: u64,
    /// Barrier epochs executed by the sharded runner.
    pub shard_barrier_epochs: u64,
    /// Epochs in which at least one shard processed zero events — the
    /// conservative lookahead starving a wheel, visible in trails before it
    /// shows up as wall-clock.
    pub shard_lookahead_stalls: u64,
    /// Smallest per-shard event count (load-balance floor).
    pub shard_events_min: u64,
    /// Largest per-shard event count (load-balance ceiling).
    pub shard_events_max: u64,
}

impl SimProfile {
    /// Flat `("name", value)` pairs for a run's counter list.
    pub fn counter_entries(&self) -> [(&'static str, u64); 23] {
        [
            ("ev_link_tx_done", self.ev_link_tx_done),
            ("ev_link_deliver", self.ev_link_deliver),
            ("ev_inject", self.ev_inject),
            ("ev_timer", self.ev_timer),
            ("ev_graft_done", self.ev_graft_done),
            ("ev_prune_done", self.ev_prune_done),
            ("ev_fault", self.ev_fault),
            ("drops_queue_full", self.drops_queue_full),
            ("drops_link_down", self.drops_link_down),
            ("drops_node_down", self.drops_node_down),
            ("slab_hwm", self.slab_hwm),
            ("pending_events_hwm", self.pending_events_hwm),
            ("max_link_queue_hwm", self.max_link_queue_hwm),
            ("wheel_cascades", self.wheel.cascades),
            ("wheel_cascaded_entries", self.wheel.cascaded_entries),
            ("wheel_lazy_sorts", self.wheel.lazy_sorts),
            ("wheel_overflow_filed", self.wheel.overflow_filed),
            ("shard.count", self.shards),
            ("shard.handoffs", self.shard_handoffs),
            ("shard.barrier_epochs", self.shard_barrier_epochs),
            ("shard.lookahead_stalls", self.shard_lookahead_stalls),
            ("shard.events_min", self.shard_events_min),
            ("shard.events_max", self.shard_events_max),
        ]
    }

    /// Fold another shard's profile into this one: counters add, peaks max.
    /// The sharded runner merges per-shard snapshots through this and then
    /// overwrites the `shard_*` fields with its own barrier bookkeeping.
    pub fn merge(&mut self, other: &SimProfile) {
        self.events_total += other.events_total;
        self.ev_link_tx_done += other.ev_link_tx_done;
        self.ev_link_deliver += other.ev_link_deliver;
        self.ev_inject += other.ev_inject;
        self.ev_timer += other.ev_timer;
        self.ev_graft_done += other.ev_graft_done;
        self.ev_prune_done += other.ev_prune_done;
        self.ev_fault += other.ev_fault;
        self.drops_queue_full += other.drops_queue_full;
        self.drops_link_down += other.drops_link_down;
        self.drops_node_down += other.drops_node_down;
        self.slab_hwm += other.slab_hwm;
        self.slab_live += other.slab_live;
        self.pending_events_hwm = self.pending_events_hwm.max(other.pending_events_hwm);
        self.max_link_queue_hwm = self.max_link_queue_hwm.max(other.max_link_queue_hwm);
        self.wheel.cascades += other.wheel.cascades;
        self.wheel.cascaded_entries += other.wheel.cascaded_entries;
        self.wheel.lazy_sorts += other.wheel.lazy_sorts;
        self.wheel.overflow_filed += other.wheel.overflow_filed;
        self.shards += other.shards;
        self.shard_events_min = self.shard_events_min.min(other.events_total);
        self.shard_events_max = self.shard_events_max.max(other.events_total);
    }
}

/// How many pops ahead the run loop prefetches a pending link event's `Link`
/// (far) and its wire slot (near). Constants, not configuration: measured on
/// `fedpkt_40k` (DESIGN.md §12), and a wrong value costs speed, never
/// correctness.
const PREFETCH_FAR: usize = 10;
const PREFETCH_NEAR: usize = 5;

/// The discrete-event simulator.
pub struct Simulator {
    clock: SimTime,
    queue: EventQueue,
    net: Network,
    /// Storage for every packet currently alive in the network; events and
    /// link queues refer to it by [`PacketId`].
    slab: PacketSlab,
    apps: Vec<Option<Box<dyn App>>>,
    app_node: Vec<NodeId>,
    /// Per app: the queue's schedule count at its node's latest crash. A
    /// timer scheduled below it was armed before that crash and is dropped
    /// when it comes due — whether the node is still down or already back.
    timer_floor: Vec<u64>,
    started: bool,
    events_done: u64,
    /// Events processed, indexed by event type (see `event_type_index`).
    ev_counts: [u64; 7],
    /// Packets dropped, indexed by `DropReason as usize`.
    drop_counts: [u64; 3],
    /// The last-N window of drops and fault transitions; records nothing
    /// unless replaced by a sized [`Ring`].
    pub trace: Ring<TraceEvent>,
    /// Reusable fan-out buffer (active out-links of the current hop).
    scratch_links: Vec<DirLinkId>,
    /// Reusable delivery buffer (apps receiving the current packet).
    scratch_apps: Vec<AppId>,
    /// Reusable outage-flush buffer (packets flushed by a fault).
    scratch_flush: Vec<QueuedPacket>,
}

impl Simulator {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// The network (topology, link stats, multicast ground truth).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Create a multicast group rooted at `root`.
    pub fn create_group(&mut self, root: NodeId) -> GroupId {
        self.net.mcast.create_group(root)
    }

    /// Attach an application to `node`. Must be called before the first run.
    pub fn add_app(&mut self, node: NodeId, app: Box<dyn App>) -> AppId {
        assert!(!self.started, "apps must be added before the simulation starts");
        let id = AppId(self.apps.len() as u32);
        self.apps.push(Some(app));
        self.app_node.push(node);
        self.timer_floor.push(0);
        self.net.nodes[node.index()].apps.push(id);
        id
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_done
    }

    /// Packets currently alive in the network (queued, in flight, or being
    /// delivered). A fully drained simulation holds zero — a nonzero value
    /// after the event queue empties indicates a reference leak.
    pub fn packets_live(&self) -> usize {
        self.slab.live()
    }

    /// Schedule every fault of `plan` onto the event queue. An empty plan
    /// schedules nothing, so installing it leaves the run bit-identical.
    /// May be called before or during a run; faults in the past of the
    /// clock would violate event-time monotonicity and are rejected.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        for &(t, kind) in plan.events() {
            assert!(t >= self.clock, "fault at {t:?} is in the past");
            self.queue.schedule(t, Event::Fault(kind));
        }
    }

    /// Inject `packet` at `node` at absolute time `at` — the sharded
    /// runner's mailbox drain lands cross-shard packets here. `at` must not
    /// be in this shard's past; conservative lookahead guarantees that as
    /// long as the handoff delay is at least one epoch long.
    pub fn schedule_arrival(&mut self, at: SimTime, node: NodeId, packet: Packet) {
        assert!(at >= self.clock, "cross-shard arrival at {at:?} is in the past");
        let id = self.slab.insert(packet);
        self.queue.schedule(at, Event::Inject { node, packet: id });
    }

    /// Subscribe a flash crowd of `(node, app)` pairs to `group` in one
    /// batched pass (see [`crate::multicast::MulticastState::join_batch`]):
    /// membership and desire are applied for the whole crowd, then each
    /// needed graft is scheduled exactly once, in link-id order.
    pub fn batch_join(&mut self, group: GroupId, members: &[(NodeId, AppId)]) {
        for op in self.net.join_group_batch(group, members) {
            match op {
                TreeOp::Graft { group, link, after } => {
                    self.queue.schedule(self.clock + after, Event::GraftDone { group, link });
                }
                TreeOp::Prune { group, link, after } => {
                    self.queue.schedule(self.clock + after, Event::PruneDone { group, link });
                }
            }
        }
    }

    fn start(&mut self) {
        self.started = true;
        // Pre-size the packet slab from the topology: it grows with
        // in-network packets, and at steady state those are capped by what
        // the queue holds — at most one LinkTxDone + one LinkDeliver per
        // link plus one timer per app.
        let cap = self.net.links.len() + self.apps.len();
        self.slab.reserve(cap);
        for i in 0..self.apps.len() {
            self.dispatch_app(AppId(i as u32), |app, ctx| app.on_start(ctx));
        }
    }

    /// Run until the event queue is exhausted or `deadline` is passed.
    /// The clock lands exactly on `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        if !self.started {
            self.start();
        }
        while let Some((time, seq, event)) = self.queue.pop_due_seq(deadline) {
            debug_assert!(time >= self.clock, "time moved backwards");
            self.clock = time;
            self.prefetch_ahead();
            self.handle(seq, event);
            self.events_done += 1;
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
    }

    /// Warm the link state the next few events will touch. Beyond L2 the
    /// first touch of `links[l]` is a dependent miss per event, while the
    /// wheel's draining slot already lists those links in pop order: the far
    /// stage pulls the whole `Link` in, the near stage — once those lines
    /// have landed and the `VecDeque` header can be read — the wire slot.
    /// Hints only: `(time, seq)` order, and so every digest, cannot move. The
    /// heap oracle answers `None` and runs this same loop.
    #[inline]
    fn prefetch_ahead(&self) {
        let links = &self.net.links;
        if let Some(&(Event::LinkTxDone(l) | Event::LinkDeliver(l))) =
            self.queue.lookahead(PREFETCH_FAR)
        {
            prefetch(&links[l.0 as usize]);
        }
        match self.queue.lookahead(PREFETCH_NEAR) {
            Some(&Event::LinkDeliver(l)) => links[l.0 as usize].prefetch_wire_front(),
            Some(&Event::LinkTxDone(l)) => links[l.0 as usize].prefetch_wire_back(),
            _ => {}
        }
    }

    /// Process exactly one event, if any is pending. Returns its time.
    pub fn step(&mut self) -> Option<SimTime> {
        if !self.started {
            self.start();
        }
        let (time, seq, event) = self.queue.pop_due_seq(SimTime::MAX)?;
        self.clock = time;
        self.handle(seq, event);
        self.events_done += 1;
        Some(time)
    }

    /// Stable index of an event's type (profiler bucketing).
    fn event_type_index(event: &Event) -> usize {
        match event {
            Event::LinkTxDone(_) => 0,
            Event::LinkDeliver(_) => 1,
            Event::Inject { .. } => 2,
            Event::Timer { .. } => 3,
            Event::GraftDone { .. } => 4,
            Event::PruneDone { .. } => 5,
            Event::Fault(_) => 6,
        }
    }

    /// Snapshot the profiler counters. Cheap; callable at any point.
    pub fn profile(&self) -> SimProfile {
        let wheel = self.queue.wheel_stats();
        let max_link_queue_hwm =
            self.net.links.iter().map(|l| l.stats.queue_hwm).max().unwrap_or(0);
        SimProfile {
            events_total: self.events_done,
            ev_link_tx_done: self.ev_counts[0],
            ev_link_deliver: self.ev_counts[1],
            ev_inject: self.ev_counts[2],
            ev_timer: self.ev_counts[3],
            ev_graft_done: self.ev_counts[4],
            ev_prune_done: self.ev_counts[5],
            ev_fault: self.ev_counts[6],
            drops_queue_full: self.drop_counts[DropReason::QueueFull as usize],
            drops_link_down: self.drop_counts[DropReason::LinkDown as usize],
            drops_node_down: self.drop_counts[DropReason::NodeDown as usize],
            slab_hwm: self.slab.capacity() as u64,
            slab_live: self.slab.live() as u64,
            pending_events_hwm: self.queue.pending_hwm() as u64,
            max_link_queue_hwm,
            wheel,
            shards: 1,
            shard_handoffs: 0,
            shard_barrier_epochs: 0,
            shard_lookahead_stalls: 0,
            shard_events_min: self.events_done,
            shard_events_max: self.events_done,
        }
    }

    fn count_drop(&mut self, l: DirLinkId, bytes: u32, reason: DropReason) {
        self.drop_counts[reason as usize] += 1;
        self.trace.push(TraceEvent::Drop { time: self.clock, link: l, bytes, reason });
    }

    /// `seq` is the event's schedule sequence number (only timers use it).
    fn handle(&mut self, seq: u64, event: Event) {
        self.ev_counts[Self::event_type_index(&event)] += 1;
        match event {
            Event::LinkTxDone(l) => self.link_tx_done(l),
            Event::LinkDeliver(l) => self.link_deliver(l),
            Event::Inject { node, packet } => self.arrive(node, None, packet),
            Event::Timer { app, token } => {
                // A crash swallows every timer its node's apps had armed,
                // due during the outage or after it; the apps re-arm what
                // they need in `on_restart`. (Nothing dispatches to a dead
                // node, so no timer is ever armed while it is down.)
                if seq >= self.timer_floor[app.index()] {
                    self.dispatch_app(app, |a, ctx| a.on_timer(ctx, token));
                }
            }
            Event::GraftDone { group, link } => {
                let (from, to) = {
                    let l = &self.net.links[link.0 as usize];
                    (l.from, l.to)
                };
                // A graft cannot take effect across a failed link or a dead
                // endpoint; clearing the pending marker lets a later join
                // retry it once the fault heals.
                let viable = self.net.links[link.0 as usize].is_up()
                    && self.net.node_up[from.index()]
                    && self.net.node_up[to.index()];
                if !viable {
                    self.net.mcast.graft_failed(group, link);
                    return;
                }
                self.net.mcast.graft_done(group, link, from);
            }
            Event::PruneDone { group, link } => {
                let from = self.net.links[link.0 as usize].from;
                self.net.mcast.prune_done(group, link, from);
            }
            Event::Fault(kind) => self.apply_fault(kind),
        }
    }

    /// Drop every packet flushed into `scratch_flush` by an outage: trace
    /// the loss and release the slab references. Restores the scratch
    /// buffer afterwards.
    fn account_outage_flush(
        &mut self,
        l: DirLinkId,
        mut flushed: Vec<QueuedPacket>,
        reason: DropReason,
    ) {
        for qp in flushed.drain(..) {
            self.count_drop(l, qp.size, reason);
            self.slab.release(qp.id);
        }
        self.scratch_flush = flushed;
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::LinkDown(l) => {
                if self.net.links[l.0 as usize].is_up() {
                    let mut flushed = std::mem::take(&mut self.scratch_flush);
                    flushed.clear();
                    self.net.links[l.0 as usize].set_down(&mut flushed);
                    self.account_outage_flush(l, flushed, DropReason::LinkDown);
                    self.trace.push(TraceEvent::LinkState { time: self.clock, link: l, up: false });
                }
            }
            FaultKind::LinkUp(l) => {
                let link = &mut self.net.links[l.0 as usize];
                if !link.is_up() {
                    link.set_up();
                    self.trace.push(TraceEvent::LinkState { time: self.clock, link: l, up: true });
                }
            }
            FaultKind::NodeCrash(n) => {
                if !self.net.node_up[n.index()] {
                    return;
                }
                self.net.node_up[n.index()] = false;
                for &app in &self.net.nodes[n.index()].apps {
                    self.timer_floor[app.index()] = self.queue.total_scheduled();
                }
                // The router's buffers vanish with it — same outage
                // accounting as a link failure (`Link::flush_outage`).
                let mut outs = std::mem::take(&mut self.scratch_links);
                outs.clear();
                outs.extend_from_slice(&self.net.nodes[n.index()].out_links);
                for &l in &outs {
                    let mut flushed = std::mem::take(&mut self.scratch_flush);
                    flushed.clear();
                    self.net.links[l.0 as usize].flush_outage(&mut flushed);
                    self.account_outage_flush(l, flushed, DropReason::NodeDown);
                }
                outs.clear();
                self.scratch_links = outs;
                // ... as does its multicast forwarding state (including its
                // contribution to every group's desired-link refcounts).
                let links = &self.net.links;
                self.net.mcast.node_crashed(n, &self.net.routing, |l| links[l.0 as usize].to);
                self.trace.push(TraceEvent::NodeState { time: self.clock, node: n, up: false });
            }
            FaultKind::NodeRestart(n) => {
                if self.net.node_up[n.index()] {
                    return;
                }
                self.net.node_up[n.index()] = true;
                self.trace.push(TraceEvent::NodeState { time: self.clock, node: n, up: true });
                let mut apps = std::mem::take(&mut self.scratch_apps);
                apps.clear();
                apps.extend_from_slice(&self.net.nodes[n.index()].apps);
                for &app in &apps {
                    self.dispatch_app(app, |a, ctx| a.on_restart(ctx));
                }
                apps.clear();
                self.scratch_apps = apps;
            }
        }
    }

    fn link_tx_done(&mut self, l: DirLinkId) {
        let tail_up = {
            let from = self.net.links[l.0 as usize].from;
            self.net.node_up[from.index()]
        };
        // The link failed — or its transmitting router died — while the
        // packet was being serialized: it dies on the wire. (If the fault
        // healed faster than the serialization time, the packet survives:
        // a store-and-forward hop never noticed the micro-flap.)
        if !self.net.links[l.0 as usize].is_up() || !tail_up {
            // The reason is the link itself when it is down; otherwise the
            // transmitting node crashed out from under a healthy wire.
            let reason = if !self.net.links[l.0 as usize].is_up() {
                DropReason::LinkDown
            } else {
                DropReason::NodeDown
            };
            let mut flushed = std::mem::take(&mut self.scratch_flush);
            flushed.clear();
            let aborted = {
                let link = &mut self.net.links[l.0 as usize];
                let aborted = link.abort_tx();
                link.flush_outage(&mut flushed);
                aborted
            };
            if let Some(qp) = aborted {
                self.count_drop(l, qp.size, reason);
                self.slab.release(qp.id);
            }
            self.account_outage_flush(l, flushed, reason);
            return;
        }
        let (sent, next, arrive_at) = {
            let link = &mut self.net.links[l.0 as usize];
            let (sent, next) = link.tx_done();
            (sent, next, self.clock + link.delay)
        };
        if let Some(ser) = next {
            self.queue.schedule(self.clock + ser, Event::LinkTxDone(l));
        }
        if self.net.links[l.0 as usize].wire_push(arrive_at, sent.id) {
            // The wire was idle: this packet needs a delivery event. (A
            // non-empty wire already has one pending, which re-arms itself
            // until the wire drains — one event queue entry per busy link.)
            self.queue.schedule(arrive_at, Event::LinkDeliver(l));
        }
    }

    fn link_deliver(&mut self, l: DirLinkId) {
        while let Some(pid) = self.net.links[l.0 as usize].wire_pop_due(self.clock) {
            let head = self.net.links[l.0 as usize].to;
            self.arrive(head, Some(l), pid);
        }
        if let Some(t) = self.net.links[l.0 as usize].wire_next() {
            self.queue.schedule(t, Event::LinkDeliver(l));
        }
    }

    /// Offer `pid` to link `l`. The caller passes the packet's `size` and
    /// `layer` so a multicast fan-out resolves the slab entry once per
    /// arrival, not once per replica.
    fn forward(&mut self, l: DirLinkId, pid: PacketId, size: u32, layer: u8) {
        match self.net.links[l.0 as usize].enqueue(QueuedPacket { id: pid, size, layer }) {
            Enqueue::StartTx(ser) => {
                self.queue.schedule(self.clock + ser, Event::LinkTxDone(l));
            }
            Enqueue::Queued { evicted: None } => {}
            Enqueue::Queued { evicted: Some(victim) } => {
                // Priority-drop eviction: congestion loss like drop-tail.
                self.count_drop(l, victim.size, DropReason::QueueFull);
                self.slab.release(victim.id);
            }
            Enqueue::Dropped => {
                // A down link refuses everything; a full queue on a live
                // link is congestion.
                let reason = if self.net.links[l.0 as usize].is_up() {
                    DropReason::QueueFull
                } else {
                    DropReason::LinkDown
                };
                self.count_drop(l, size, reason);
                self.slab.release(pid);
            }
        }
    }

    fn arrive(&mut self, node: NodeId, from_link: Option<DirLinkId>, pid: PacketId) {
        // A crashed router forwards nothing and delivers nothing; packets
        // already in flight toward it are lost on arrival. The loss is
        // charged to the link that carried the packet in — each shard owns
        // its links' stats, so a handoff lost at a dead border node shows up
        // on the destination shard's ledger, not in a global untraceable
        // bucket (injections have no carrying link and stay unattributed).
        if !self.net.node_up[node.index()] {
            if let Some(l) = from_link {
                let size = self.slab.get(pid).size;
                self.net.links[l.0 as usize].stats.count_dead_arrival(size);
                self.count_drop(l, size, DropReason::NodeDown);
            }
            self.slab.release(pid);
            return;
        }
        // One slab resolution per arrival; `forward` reuses size/layer.
        let (dest, size, layer) = {
            let p = self.slab.get(pid);
            (p.dest, p.size, p.layer())
        };
        match dest {
            Dest::Node(d) if d == node => {
                // Deliver to every app on the node; apps ignore messages that
                // are not for them.
                let mut apps = std::mem::take(&mut self.scratch_apps);
                apps.clear();
                apps.extend_from_slice(&self.net.nodes[node.index()].apps);
                self.deliver(pid, &apps);
                apps.clear();
                self.scratch_apps = apps;
            }
            Dest::Node(d) => {
                if let Some(l) = self.net.routing.next_hop(node, d) {
                    self.forward(l, pid, size, layer);
                } else {
                    // Unroutable unicast is silently discarded, as a real
                    // network would.
                    self.slab.release(pid);
                }
            }
            Dest::Group(g) => {
                // Forward along the active distribution tree, never back the
                // way the packet came. Fan-out duplicates the slab reference,
                // not the packet.
                let came_from = from_link.map(|l| self.net.links[l.0 as usize].from);
                let mut outs = std::mem::take(&mut self.scratch_links);
                outs.clear();
                {
                    let links = &self.net.links;
                    outs.extend(
                        self.net
                            .mcast
                            .active_out(g, node)
                            .iter()
                            .copied()
                            .filter(|&l| Some(links[l.0 as usize].to) != came_from),
                    );
                }
                // A multi-way fan-out enqueues on links nothing has touched
                // since the last packet: start all their misses at once
                // instead of taking them one `forward` at a time.
                if outs.len() > 1 {
                    for &l in &outs {
                        prefetch(&self.net.links[l.0 as usize]);
                    }
                }
                for &l in &outs {
                    self.slab.dup(pid);
                    self.forward(l, pid, size, layer);
                }
                outs.clear();
                self.scratch_links = outs;
                // Local delivery to subscribed apps (but not to the app that
                // injected it, which cannot happen: sources do not subscribe
                // to their own groups in any scenario; receivers never send
                // media). The subscriber list is kept sorted by the
                // multicast state; the common non-member router exits on a
                // bitmap probe without loading the list.
                let subscribers = self.net.mcast.subscribers_at(g, node);
                if subscribers.is_empty() {
                    self.slab.release(pid);
                } else {
                    let mut apps = std::mem::take(&mut self.scratch_apps);
                    apps.clear();
                    apps.extend_from_slice(subscribers);
                    self.deliver(pid, &apps);
                    apps.clear();
                    self.scratch_apps = apps;
                }
            }
        }
    }

    /// Hand the packet to each app in `apps`, consuming the caller's slab
    /// reference. The packet is moved out of the slab for the duration of
    /// the dispatch (apps may originate new packets, which allocate fresh
    /// slots) and returned afterwards unless this was the last reference.
    fn deliver(&mut self, pid: PacketId, apps: &[AppId]) {
        let pkt = self.slab.take_for_delivery(pid);
        for &app in apps {
            self.dispatch_app(app, |a, ctx| a.on_packet(ctx, &pkt));
        }
        self.slab.finish_delivery(pid, pkt);
    }

    fn dispatch_app(&mut self, id: AppId, f: impl FnOnce(&mut dyn App, &mut Ctx<'_>)) {
        let mut app = self.apps[id.index()].take().expect("re-entrant app dispatch");
        let mut ctx = Ctx {
            now: self.clock,
            app: id,
            node: self.app_node[id.index()],
            queue: &mut self.queue,
            net: &mut self.net,
            slab: &mut self.slab,
        };
        f(app.as_mut(), &mut ctx);
        self.apps[id.index()] = Some(app);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{ControlBody, Packet, SessionId};
    use crate::time::SimDuration;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Two nodes, one duplex 32 kb/s link.
    fn two_node_sim() -> (Simulator, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.add_link(a, c, LinkConfig::kbps(32.0));
        (b.build(), a, c)
    }

    /// App that records arrival times of control packets carrying `u32`.
    struct Recorder {
        got: Arc<AtomicU64>,
        last_time_ns: Arc<AtomicU64>,
    }
    impl App for Recorder {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, p: &Packet) {
            if p.control_as::<u32>().is_some() {
                self.got.fetch_add(1, Ordering::Relaxed);
                self.last_time_ns.store(ctx.now().nanos(), Ordering::Relaxed);
            }
        }
    }

    /// App that sends one control packet at start.
    struct OneShot {
        dest: NodeId,
    }
    impl App for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let body: ControlBody = Arc::new(7u32);
            ctx.send_control(self.dest, 1000, body);
        }
    }

    #[test]
    fn unicast_end_to_end_timing() {
        let (mut sim, a, c) = two_node_sim();
        let got = Arc::new(AtomicU64::new(0));
        let t = Arc::new(AtomicU64::new(0));
        sim.add_app(a, Box::new(OneShot { dest: c }));
        sim.add_app(c, Box::new(Recorder { got: Arc::clone(&got), last_time_ns: Arc::clone(&t) }));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(got.load(Ordering::Relaxed), 1);
        // 1000 B at 32 kb/s = 250 ms serialization + 200 ms propagation.
        assert_eq!(t.load(Ordering::Relaxed), SimTime::from_millis(450).nanos());
        assert_eq!(sim.packets_live(), 0, "drained run must not leak packets");
    }

    /// Source that sends `n` media packets back-to-back at start.
    struct Burst {
        group: GroupId,
        n: u64,
    }
    impl App for Burst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for seq in 0..self.n {
                ctx.send_media(self.group, SessionId(0), 0, seq, 1000);
            }
        }
    }

    /// Receiver counting media packets.
    struct Counter {
        group: GroupId,
        got: Arc<AtomicU64>,
    }
    impl App for Counter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.join(self.group);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, p: &Packet) {
            if p.media_fields().is_some() {
                self.got.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn multicast_delivery_after_graft() {
        let (mut sim, a, c) = two_node_sim();
        let g = sim.create_group(a);
        let got = Arc::new(AtomicU64::new(0));
        sim.add_app(c, Box::new(Counter { group: g, got: Arc::clone(&got) }));
        sim.add_app(a, Box::new(Burst { group: g, n: 3 }));
        // Burst fires at t=0, before the graft (50 ms) completes: all three
        // packets die at the unjoined tree. Wait, then send again.
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(got.load(Ordering::Relaxed), 0);

        // The graft has long completed; a new burst flows through.
        struct LateBurst {
            group: GroupId,
        }
        impl App for LateBurst {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(2), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                for seq in 0..3 {
                    ctx.send_media(self.group, SessionId(0), 0, seq, 1000);
                }
            }
        }
        // Rebuild with a late burst instead.
        let (mut sim, a, c) = two_node_sim();
        let g = sim.create_group(a);
        let got = Arc::new(AtomicU64::new(0));
        sim.add_app(c, Box::new(Counter { group: g, got: Arc::clone(&got) }));
        sim.add_app(a, Box::new(LateBurst { group: g }));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(got.load(Ordering::Relaxed), 3);
        assert_eq!(sim.packets_live(), 0);
    }

    #[test]
    fn drop_tail_loss_under_overload() {
        // 32 kb/s link, queue of 2: a 10-packet burst loses packets.
        let mut b = NetworkBuilder::new(SimConfig::default());
        let a = b.add_node("a");
        let c = b.add_node("c");
        let (ab, _) = b.add_link(a, c, LinkConfig::kbps(32.0).with_queue(2));
        let mut sim = b.build();
        let g = sim.create_group(a);
        let got = Arc::new(AtomicU64::new(0));
        sim.add_app(c, Box::new(Counter { group: g, got: Arc::clone(&got) }));

        struct LateBigBurst {
            group: GroupId,
        }
        impl App for LateBigBurst {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                for seq in 0..10 {
                    ctx.send_media(self.group, SessionId(0), 0, seq, 1000);
                }
            }
        }
        sim.add_app(a, Box::new(LateBigBurst { group: g }));
        sim.run_until(SimTime::from_secs(30));
        // 1 in flight + 2 queued survive; 7 dropped.
        assert_eq!(got.load(Ordering::Relaxed), 3);
        assert_eq!(sim.network().link(ab).stats.dropped_packets, 7);
        assert_eq!(sim.packets_live(), 0, "dropped packets must be released");
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerApp {
            record: Arc<parking_lot_free::Cell>,
        }
        // A tiny shared Vec<u64> without extra deps.
        mod parking_lot_free {
            use std::sync::Mutex;
            #[derive(Default)]
            pub(crate) struct Cell(pub Mutex<Vec<u64>>);
        }
        impl App for TimerApp {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(3), 3);
                ctx.set_timer(SimDuration::from_secs(1), 1);
                ctx.set_timer(SimDuration::from_secs(2), 2);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.record.0.lock().unwrap().push(token);
            }
        }
        let (mut sim, a, _) = two_node_sim();
        let rec = Arc::new(parking_lot_free::Cell::default());
        sim.add_app(a, Box::new(TimerApp { record: Arc::clone(&rec) }));
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(*rec.0.lock().unwrap(), vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    /// Source that sends `n` media packets back-to-back at a fixed time.
    struct TimedBurst {
        group: GroupId,
        at: SimDuration,
        n: u64,
    }
    impl App for TimedBurst {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(self.at, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            for seq in 0..self.n {
                ctx.send_media(self.group, SessionId(0), 0, seq, 1000);
            }
        }
    }

    #[test]
    fn link_down_aborts_in_flight_and_flushes_queue() {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let a = b.add_node("a");
        let c = b.add_node("c");
        let (ab, _) = b.add_link(a, c, LinkConfig::kbps(32.0));
        let mut sim = b.build();
        let g = sim.create_group(a);
        let got = Arc::new(AtomicU64::new(0));
        sim.add_app(c, Box::new(Counter { group: g, got: Arc::clone(&got) }));
        sim.add_app(a, Box::new(TimedBurst { group: g, at: SimDuration::from_secs(1), n: 3 }));
        // 1000 B at 32 kb/s = 250 ms serialization: tx-dones at 1.25/1.50/1.75.
        let plan = FaultPlan::new()
            .at(SimTime::from_millis(1300), FaultKind::LinkDown(ab))
            .at(SimTime::from_secs(3), FaultKind::LinkUp(ab));
        sim.install_faults(&plan);
        sim.run_until(SimTime::from_secs(5));
        // #1 completed before the fault; #3 was flushed from the queue when
        // the link went down; #2 was on the wire and died at its tx-done.
        assert_eq!(got.load(Ordering::Relaxed), 1);
        assert_eq!(sim.network().link(ab).stats.dropped_packets, 2);
        assert!(sim.network().link_is_up(ab));
        assert_eq!(sim.packets_live(), 0, "aborted and flushed packets must be released");
    }

    /// The structured trace ring is a pure observer: a lossy world (tail
    /// drops, an outage flush) run with the ring off and with a ring small
    /// enough to wrap processes the same events, profiles the same, and
    /// leaves every link's stats where they were.
    #[test]
    fn trace_ring_does_not_change_a_run() {
        let go = |cap: usize| {
            let mut b = NetworkBuilder::new(SimConfig::default());
            let a = b.add_node("a");
            let c = b.add_node("c");
            let (ab, _) = b.add_link(a, c, LinkConfig::kbps(32.0).with_queue(2));
            let mut sim = b.build();
            sim.trace = Ring::new(cap);
            let g = sim.create_group(a);
            let got = Arc::new(AtomicU64::new(0));
            sim.add_app(c, Box::new(Counter { group: g, got }));
            sim.add_app(a, Box::new(TimedBurst { group: g, at: SimDuration::from_secs(1), n: 10 }));
            let plan = FaultPlan::new()
                .at(SimTime::from_millis(1300), FaultKind::LinkDown(ab))
                .at(SimTime::from_secs(3), FaultKind::LinkUp(ab));
            sim.install_faults(&plan);
            sim.run_until(SimTime::from_secs(10));
            let net = sim.network();
            let stats: Vec<_> =
                (0..net.link_count() as u32).map(|i| net.link(DirLinkId(i)).stats).collect();
            (sim.events_processed(), sim.profile(), stats, sim.trace.dropped())
        };
        let (plain, ringed) = (go(0), go(4));
        assert!(ringed.3 > 0, "the ring must wrap, or the comparison is vacuous");
        assert_eq!((plain.0, plain.1, plain.2), (ringed.0, ringed.1, ringed.2));
    }

    #[test]
    fn micro_flap_shorter_than_serialization_is_survived() {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let a = b.add_node("a");
        let c = b.add_node("c");
        let (ab, _) = b.add_link(a, c, LinkConfig::kbps(32.0));
        let mut sim = b.build();
        let g = sim.create_group(a);
        let got = Arc::new(AtomicU64::new(0));
        sim.add_app(c, Box::new(Counter { group: g, got: Arc::clone(&got) }));
        sim.add_app(a, Box::new(TimedBurst { group: g, at: SimDuration::from_secs(1), n: 1 }));
        // Down at 1.05 s, healed at 1.20 s — before the 1.25 s tx-done, so
        // the store-and-forward hop never notices.
        let plan = FaultPlan::new()
            .at(SimTime::from_millis(1050), FaultKind::LinkDown(ab))
            .at(SimTime::from_millis(1200), FaultKind::LinkUp(ab));
        sim.install_faults(&plan);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(got.load(Ordering::Relaxed), 1);
        assert_eq!(sim.network().link(ab).stats.dropped_packets, 0);
    }

    #[test]
    fn node_crash_blackholes_until_restart_and_rejoin() {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let a = b.add_node("src");
        let m = b.add_node("mid");
        let c = b.add_node("rcv");
        b.add_link(a, m, LinkConfig::kbps(1000.0));
        b.add_link(m, c, LinkConfig::kbps(1000.0));
        let mut sim = b.build();
        let g = sim.create_group(a);

        /// Sends one packet every 200 ms, forever.
        struct Metronome {
            group: GroupId,
            seq: u64,
        }
        impl App for Metronome {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_millis(200), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                ctx.send_media(self.group, SessionId(0), 0, self.seq, 500);
                self.seq += 1;
                ctx.set_timer(SimDuration::from_millis(200), 0);
            }
        }
        /// Joins at start and re-joins every second (idempotent repair).
        struct Rejoiner {
            group: GroupId,
            got: Arc<AtomicU64>,
        }
        impl App for Rejoiner {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.join(self.group);
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                ctx.join(self.group);
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, p: &Packet) {
                if p.media_fields().is_some() {
                    self.got.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        let got = Arc::new(AtomicU64::new(0));
        sim.add_app(c, Box::new(Rejoiner { group: g, got: Arc::clone(&got) }));
        sim.add_app(a, Box::new(Metronome { group: g, seq: 0 }));
        let plan =
            FaultPlan::new().node_outage(m, SimTime::from_millis(2500), SimTime::from_millis(4500));
        sim.install_faults(&plan);

        sim.run_until(SimTime::from_secs(3));
        let before = got.load(Ordering::Relaxed);
        assert!(before > 0, "traffic must flow before the crash");
        // Everything sent after the crash dies at the dead router — and even
        // after the 4.5 s restart the regrown router has no forwarding
        // state, so traffic keeps blackholing...
        sim.run_until(SimTime::from_millis(5000));
        assert_eq!(got.load(Ordering::Relaxed), before);
        // ...until the receiver's periodic re-join regrafts the tree.
        sim.run_until(SimTime::from_secs(10));
        assert!(got.load(Ordering::Relaxed) > before, "traffic must resume after repair");
    }

    #[test]
    fn crash_swallows_timers_and_restart_notifies_apps() {
        struct Ticker {
            ticks: Arc<AtomicU64>,
            restarts: Arc<AtomicU64>,
        }
        impl App for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                self.ticks.fetch_add(1, Ordering::Relaxed);
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
                self.restarts.fetch_add(1, Ordering::Relaxed);
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
        }
        let (mut sim, a, _c) = two_node_sim();
        let ticks = Arc::new(AtomicU64::new(0));
        let restarts = Arc::new(AtomicU64::new(0));
        sim.add_app(
            a,
            Box::new(Ticker { ticks: Arc::clone(&ticks), restarts: Arc::clone(&restarts) }),
        );
        let plan =
            FaultPlan::new().node_outage(a, SimTime::from_millis(2500), SimTime::from_millis(4500));
        sim.install_faults(&plan);
        sim.run_until(SimTime::from_secs(8));
        // Ticks at 1 s and 2 s; the 3 s timer is swallowed by the crash and
        // the chain breaks, then on_restart re-arms: ticks at 5.5/6.5/7.5 s.
        assert_eq!(ticks.load(Ordering::Relaxed), 5);
        assert_eq!(restarts.load(Ordering::Relaxed), 1);
    }

    /// An outage shorter than the timer period: the timer armed before the
    /// crash comes due *after* the restart and must still be swallowed, or
    /// it runs beside the chain `on_restart` re-armed for the rest of the run.
    #[test]
    fn timer_armed_before_a_crash_does_not_fire_after_the_restart() {
        struct Ticker {
            at_ms: Arc<std::sync::Mutex<Vec<u64>>>,
        }
        impl App for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                self.at_ms.lock().unwrap().push(ctx.now().nanos() / 1_000_000);
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
            fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 0);
            }
        }
        for backend in [QueueBackend::CalendarWheel, QueueBackend::BinaryHeap] {
            let mut nb = NetworkBuilder::new(SimConfig { queue: backend, ..SimConfig::default() });
            let a = nb.add_node("a");
            let mut sim = nb.build();
            let at_ms = Arc::new(std::sync::Mutex::new(Vec::new()));
            sim.add_app(a, Box::new(Ticker { at_ms: Arc::clone(&at_ms) }));
            sim.install_faults(&FaultPlan::new().node_outage(
                a,
                SimTime::from_millis(2200),
                SimTime::from_millis(2700),
            ));
            sim.run_until(SimTime::from_secs(6));
            // The 3000 ms timer was armed at 2000, before the crash: gone.
            assert_eq!(*at_ms.lock().unwrap(), [1000, 2000, 3700, 4700, 5700], "{backend:?}");
        }
    }

    #[test]
    fn inert_fault_plans_leave_the_run_identical() {
        let run = |plan: Option<FaultPlan>| {
            let (mut sim, a, c) = two_node_sim();
            let g = sim.create_group(a);
            let got = Arc::new(AtomicU64::new(0));
            sim.add_app(c, Box::new(Counter { group: g, got }));
            sim.add_app(a, Box::new(Burst { group: g, n: 20 }));
            if let Some(p) = &plan {
                sim.install_faults(p);
            }
            sim.run_until(SimTime::from_secs(30));
            sim.events_processed()
        };
        let baseline = run(None);
        assert_eq!(run(Some(FaultPlan::new())), baseline);
        // Faults scheduled beyond the horizon never fire.
        let late = FaultPlan::new().at(SimTime::from_secs(100), FaultKind::NodeCrash(NodeId(0)));
        assert_eq!(run(Some(late)), baseline);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let run = |backend: QueueBackend| {
            let mut b = NetworkBuilder::new(SimConfig { queue: backend, ..SimConfig::default() });
            let a = b.add_node("a");
            let m = b.add_node("m");
            let c = b.add_node("c");
            let am = b.add_link(a, m, LinkConfig::kbps(64.0));
            let mc = b.add_link(m, c, LinkConfig::kbps(64.0));
            let mut sim = b.build();
            let g = sim.create_group(a);
            let got = Arc::new(AtomicU64::new(0));
            sim.add_app(c, Box::new(Counter { group: g, got: Arc::clone(&got) }));
            sim.add_app(a, Box::new(TimedBurst { group: g, at: SimDuration::from_secs(1), n: 40 }));
            let plan = FaultPlan::new().chaos(
                11,
                &[am, mc],
                &[m],
                SimTime::from_secs(2),
                SimTime::from_secs(20),
                6,
            );
            sim.install_faults(&plan);
            sim.run_until(SimTime::from_secs(40));
            (sim.events_processed(), got.load(Ordering::Relaxed), sim.packets_live())
        };
        let wheel = run(QueueBackend::CalendarWheel);
        assert_eq!(wheel, run(QueueBackend::CalendarWheel));
        // The heap oracle produces the identical run.
        assert_eq!(wheel, run(QueueBackend::BinaryHeap));
        assert_eq!(wheel.2, 0, "faulted run must not leak packets");
    }

    #[test]
    fn profile_buckets_events_and_drop_reasons() {
        // Overload run: all loss is congestion (queue_full).
        let mut b = NetworkBuilder::new(SimConfig::default());
        let a = b.add_node("a");
        let c = b.add_node("c");
        let (ab, _) = b.add_link(a, c, LinkConfig::kbps(32.0).with_queue(2));
        let mut sim = b.build();
        let g = sim.create_group(a);
        let got = Arc::new(AtomicU64::new(0));
        sim.add_app(c, Box::new(Counter { group: g, got }));
        sim.add_app(a, Box::new(TimedBurst { group: g, at: SimDuration::from_secs(1), n: 10 }));
        sim.run_until(SimTime::from_secs(30));
        let p = sim.profile();
        assert_eq!(p.drops_queue_full, 7);
        assert_eq!(p.drops_link_down, 0);
        assert_eq!(p.drops_node_down, 0);
        assert_eq!(p.drops_queue_full, sim.network().link(ab).stats.dropped_packets);
        let by_type = p.ev_link_tx_done
            + p.ev_link_deliver
            + p.ev_inject
            + p.ev_timer
            + p.ev_graft_done
            + p.ev_prune_done
            + p.ev_fault;
        assert_eq!(by_type, p.events_total, "per-type counts must sum to the total");
        assert_eq!(p.events_total, sim.events_processed());
        assert!(p.slab_hwm > 0, "the burst must have allocated slab slots");
        assert_eq!(p.slab_live, 0, "drained run holds no live packets");
        assert!(p.pending_events_hwm >= 2);
        assert_eq!(p.max_link_queue_hwm, 2, "queue of 2 filled to the brim");

        // Fault run: the aborted in-flight packet and the flushed queue are
        // link_down loss, not congestion.
        let mut b = NetworkBuilder::new(SimConfig::default());
        let a = b.add_node("a");
        let c = b.add_node("c");
        let (ab, _) = b.add_link(a, c, LinkConfig::kbps(32.0));
        let mut sim = b.build();
        let g = sim.create_group(a);
        let got = Arc::new(AtomicU64::new(0));
        sim.add_app(c, Box::new(Counter { group: g, got }));
        sim.add_app(a, Box::new(TimedBurst { group: g, at: SimDuration::from_secs(1), n: 3 }));
        let plan = FaultPlan::new()
            .at(SimTime::from_millis(1300), FaultKind::LinkDown(ab))
            .at(SimTime::from_secs(3), FaultKind::LinkUp(ab));
        sim.install_faults(&plan);
        sim.run_until(SimTime::from_secs(5));
        let p = sim.profile();
        assert_eq!(p.drops_queue_full, 0);
        assert_eq!(p.drops_link_down, 2);
        assert_eq!(p.drops_node_down, 0);
        assert_eq!(p.ev_fault, 2);
    }

    #[test]
    fn determinism_same_seed_same_event_count() {
        let run = || {
            let (mut sim, a, c) = two_node_sim();
            let g = sim.create_group(a);
            let got = Arc::new(AtomicU64::new(0));
            sim.add_app(c, Box::new(Counter { group: g, got }));
            sim.add_app(a, Box::new(Burst { group: g, n: 50 }));
            sim.run_until(SimTime::from_secs(60));
            sim.events_processed()
        };
        assert_eq!(run(), run());
    }
}
