//! The per-domain controller agent.
//!
//! The controller is an ordinary application on an ordinary node (the paper
//! stations it at a source node, so its suggestion traffic shares links —
//! and fate — with the media). Every interval it:
//!
//! 1. records a ground-truth topology snapshot into its [`DiscoveryTool`]
//!    and queries the tool back — receiving a snapshot at least
//!    `staleness` old, which is the paper's model of real discovery tools;
//! 2. overlays the per-layer trees into per-session [`SessionTree`]s;
//! 3. runs the five-stage algorithm over the trees and the receivers'
//!    accumulated loss reports;
//! 4. unicasts a [`Suggestion`] to every registered receiver.
//!
//! # Failure hardening (DESIGN.md §9)
//!
//! The controller survives the fault model of `netsim::faults`:
//!
//! * **Silent receivers** are quarantined after `quarantine_after` (their
//!   stale data and suggestion slots are withheld) and evicted after
//!   `evict_after`; a single report re-admits them.
//! * **Discovery outages** degrade to the last-known-good topology for up
//!   to `max_degradation_age`, after which suggestions are suspended until
//!   the tool answers again. Partial answers are used as-is: receivers the
//!   tool cannot see are simply not steered this interval.
//! * **Controller crashes** are covered by an optional warm standby: the
//!   active controller heartbeats its peer every interval and mirrors
//!   registry changes to it; the standby takes over after `failover_after`
//!   of beacon silence and re-ACKs every receiver so reports follow it. A
//!   restarted ex-primary comes back as the standby (roles swap, they never
//!   fight), and a transient dual-active resolves toward the smaller node
//!   id.

use crate::algorithm::{AlgorithmInputs, AlgorithmOutputs, AlgorithmState, ReceiverReport};
use crate::checkpoint::Snapshot;
use crate::config::Config;
use crate::messages::{
    CheckpointTransfer, Deregister, Heartbeat, Register, RegisterAck, ReplicaAck, ReplicateInputs,
    Report, Suggestion,
};
use crate::receiver_table::ReceiverTable;
use crate::replication::{fingerprint_outputs, AckVerdict, ReplicaTracker};
use crate::sync::lock_or_recover;
use netsim::trace::Ring;
use netsim::{App, AppId, ControlBody, Ctx, NodeId, SessionId, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use telemetry::{IntervalAudit, Occurrence, Record, Telemetry};
use topology::discovery::{DiscoveryTool, SnapshotError, TopologyView};
use topology::SessionTree;
use traffic::{LayerSpec, SessionCatalog};

const TOKEN_TICK: u64 = 1;
const TOKEN_SEND: u64 = 2;

/// Control-plane flight-recorder depth: the last N interval/replication
/// occurrences survive for black-box dumps.
const FLIGHT_CAP: usize = 128;

/// One flight-recorder entry, stamped with the simulated instant `at`.
fn occurrence(at: SimTime, kind: &'static str, seq: u64, detail: impl Into<String>) -> Occurrence {
    Occurrence { t_ns: at.nanos(), kind, seq, detail: detail.into() }
}

/// Gap between consecutive suggestion packets. Sending the whole batch
/// back-to-back would tail-drop the same receivers' suggestions every
/// interval at a congested link; spacing them shares the risk.
const SEND_SPACING: SimDuration = SimDuration(25_000_000);

/// Observable controller state, shared with the harness — and the
/// controller's only counter store: [`ControllerShared::counter_entries`]
/// names every count for the telemetry trail and black-box dumps.
#[derive(Clone, Debug, Default)]
pub struct ControllerShared {
    /// Algorithm intervals completed.
    pub intervals: u64,
    /// Intervals the pipeline ran cold (full recompute) instead of
    /// incrementally; counted at the same line as `intervals`.
    pub full_fallbacks: u64,
    /// Slots the pipeline re-decided, summed over intervals.
    pub slots_recomputed: u64,
    /// Suggestions sent (packets).
    pub suggestions_sent: u64,
    /// Registered receivers at last interval.
    pub registered: usize,
    /// Last run's diagnostics.
    pub last_outputs: Option<AlgorithmOutputs>,
    /// Intervals run on last-known-good topology (discovery unavailable).
    pub degraded_intervals: u64,
    /// Intervals skipped because even last-known-good was too old.
    pub suspended_intervals: u64,
    /// Intervals run on a partial discovery answer.
    pub partial_intervals: u64,
    /// Receivers currently quarantined for silence.
    pub quarantined: usize,
    /// Receivers evicted for prolonged silence (cumulative).
    pub evicted: u64,
    /// Registration acknowledgements sent.
    pub acks_sent: u64,
    /// When this controller first took over from a failed peer, if it did.
    pub failover_at: Option<SimTime>,
    /// The first completed interval at or after `failover_at` that sent at
    /// least one suggestion: when the promoted controller resumed steering.
    pub first_steer_at: Option<SimTime>,
    /// Takeovers from a failed peer. Roles swap on restart, so one
    /// controller can take over more than once.
    pub failovers: u64,
    /// Input batches replicated to the peer while active.
    pub replicate_sent: u64,
    /// Replicated input batches this controller applied while standing by.
    pub replica_applied: u64,
    /// Matching fingerprint acks this controller received while active.
    pub replica_acks: u64,
    /// Intervals the replica trailed by at its latest matching ack.
    pub replication_lag: u64,
    /// Fingerprint mismatches caught by the cross-check while active.
    pub replica_divergences: u64,
    /// Whether the peer replica is quarantined (divergence detected).
    pub replica_quarantined: bool,
    /// Checkpoint resyncs served (active) or applied (standing by).
    pub replica_resyncs: u64,
    /// Checkpoint transfers dropped as corrupt or mis-sequenced (standing
    /// by).
    pub replica_resync_failures: u64,
    /// Last-N control-plane occurrences (interval start/end, fallback,
    /// quarantine, takeover, checkpoint) for black-box dumps.
    pub flight: Ring<Occurrence>,
}

impl ControllerShared {
    /// Every count and gauge under its trail name; the harness prefixes
    /// the role, `controller.` or `standby.`. `intervals_incremental` is
    /// derived: both of its terms are counted at the same line of `tick`.
    pub fn counter_entries(&self) -> [(&'static str, u64); 21] {
        [
            ("intervals", self.intervals),
            ("intervals_incremental", self.intervals - self.full_fallbacks),
            ("full_fallbacks", self.full_fallbacks),
            ("slots_recomputed", self.slots_recomputed),
            ("suggestions_sent", self.suggestions_sent),
            ("degraded_intervals", self.degraded_intervals),
            ("suspended_intervals", self.suspended_intervals),
            ("partial_intervals", self.partial_intervals),
            ("registered", self.registered as u64),
            ("quarantined", self.quarantined as u64),
            ("evictions", self.evicted),
            ("acks_sent", self.acks_sent),
            ("failovers", self.failovers),
            ("replicate_sent", self.replicate_sent),
            ("replica_applied", self.replica_applied),
            ("replica_acks", self.replica_acks),
            ("replication_lag", self.replication_lag),
            ("replica_divergences", self.replica_divergences),
            ("replica_quarantined", self.replica_quarantined as u64),
            ("replica_resyncs", self.replica_resyncs),
            ("replica_resync_failures", self.replica_resync_failures),
        ]
    }
}

/// Handle for reading controller stats after a run.
pub type ControllerHandle = Arc<Mutex<ControllerShared>>;

#[derive(Clone, Copy, Debug, Default)]
struct Pending {
    level: u8,
    received: u64,
    lost: u64,
    bytes: u64,
    /// Cause id of the most recent report folded into this entry.
    cause: u64,
}

/// Everything the controller keeps about one registered receiver.
struct ReceiverEntry {
    node: NodeId,
    session: SessionId,
    /// When the receiver was last heard from (register and report both
    /// count): the one column quarantine and eviction cut on.
    last_heard: SimTime,
    /// Reports (already aged) accumulated since the last interval that
    /// steered this receiver; `None` when none became visible.
    window: Option<Pending>,
    /// Latest causal-trace id ([`crate::messages::cause_id`]), kept OUT of
    /// [`ReceiverReport`] so the ever-changing id never dirties the
    /// incremental pipeline's slot cache.
    cause: u64,
    /// Most recent interval data, reused when reports are lost.
    last_known: Option<(SimTime, ReceiverReport)>,
}

impl ReceiverEntry {
    fn new(node: NodeId, session: SessionId, now: SimTime) -> Self {
        ReceiverEntry { node, session, last_heard: now, window: None, cause: 0, last_known: None }
    }
}

/// The controller application.
pub struct Controller {
    catalog: Arc<SessionCatalog>,
    cfg: Config,
    state: AlgorithmState,
    discovery: DiscoveryTool,
    /// The receiver table: one entry per registered receiver, found by
    /// `AppId` in O(1) and walked in `AppId` order so nothing downstream
    /// depends on arrival order (determinism).
    receivers: ReceiverTable<ReceiverEntry>,
    /// Reports received but not yet *visible*: the paper's staleness knob
    /// ages "topology and loss information", so reports pass through the
    /// same delay as discovery snapshots.
    inbox: VecDeque<(SimTime, Report)>,
    /// Administrative-domain filter (Fig. 3): when set, the controller
    /// only sees — and manages — the subtree inside these nodes.
    domain: Option<std::collections::HashSet<NodeId>>,
    /// Suggestions awaiting their (staggered) send slot.
    outbox: Vec<(NodeId, Suggestion)>,
    rng: netsim::RngStream,
    shared: ControllerHandle,
    /// Warm-standby peer: the standby's node when active, the active
    /// controller's node when standing by.
    peer: Option<NodeId>,
    /// False while standing by: tick only keeps the archive warm and
    /// watches the peer's heartbeats.
    active: bool,
    /// Last successfully queried topology, kept for degraded operation
    /// while the discovery tool is unavailable.
    last_good: Option<TopologyView>,
    /// Last heartbeat from the peer (standing by only).
    last_heartbeat_at: Option<SimTime>,
    /// The algorithm seed this controller was created with; replicated to
    /// the peer in each input batch so a replica joining at seq 0 can
    /// re-seed its pipeline into a byte-exact twin.
    algo_seed: u64,
    /// Outstanding `(seq, fingerprint)` window for the ack cross-check
    /// (active role only).
    repl_tracker: ReplicaTracker,
    /// Next input-batch seq this replica expects (standing-by role only);
    /// `None` until the first batch or checkpoint lands.
    repl_next_seq: Option<u64>,
    /// Set when the peer's ack fingerprint diverged: the primary stops
    /// replicating to it (its state can no longer be trusted).
    repl_peer_quarantined: bool,
    /// Telemetry handle: decision audit records, causal-trace hops and
    /// stage timers flow through here (counts live in `shared`). Disabled
    /// by default — a disabled handle is inert and the control decisions
    /// are byte-identical either way.
    telemetry: Telemetry,
}

impl Controller {
    /// Create a controller with a discovery tool of the given `staleness`.
    pub fn new(
        catalog: Arc<SessionCatalog>,
        cfg: Config,
        staleness: SimDuration,
        seed: u64,
    ) -> (Self, ControllerHandle) {
        cfg.validate();
        let shared: ControllerHandle = Arc::default();
        lock_or_recover(&shared).flight = Ring::new(FLIGHT_CAP);
        let c = Controller {
            catalog,
            cfg,
            state: AlgorithmState::new(cfg, seed),
            discovery: DiscoveryTool::new(staleness),
            receivers: ReceiverTable::new(),
            inbox: VecDeque::new(),
            domain: None,
            outbox: Vec::new(),
            rng: netsim::RngStream::derive(seed, "toposense/controller"),
            shared: Arc::clone(&shared),
            peer: None,
            active: true,
            last_good: None,
            last_heartbeat_at: None,
            algo_seed: seed,
            repl_tracker: ReplicaTracker::new(),
            repl_next_seq: None,
            repl_peer_quarantined: false,
            telemetry: Telemetry::disabled(),
        };
        (c, shared)
    }

    /// Attach a telemetry handle: every interval then emits one audit
    /// record per pipeline stage and the causal-trace hops, and feeds the
    /// stage-timer histograms. Counters are not kept here: they live in
    /// [`ControllerShared`] whether or not a handle is attached. Telemetry
    /// is a pure observer — the controller's decisions are identical with
    /// or without it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Pair this controller with a warm standby (or, combined with
    /// [`Controller::as_standby`], with the active controller) at `node`.
    pub fn with_peer(mut self, node: NodeId) -> Self {
        self.peer = Some(node);
        self
    }

    /// Start passive: keep the discovery archive warm, mirror the registry,
    /// and take over when the peer's heartbeats stop for `failover_after`.
    pub fn as_standby(mut self) -> Self {
        self.active = false;
        self
    }

    /// Schedule a total discovery outage: queries in `[from, until)` find
    /// the tool unavailable (DESIGN.md §9 degradation path).
    pub fn with_discovery_outage(mut self, from: SimTime, until: SimTime) -> Self {
        self.discovery.add_outage(from, until);
        self
    }

    /// Schedule a partial discovery outage: queries in `[from, until)` see
    /// a view with the `hidden` subtrees missing.
    pub fn with_discovery_partial_outage(
        mut self,
        from: SimTime,
        until: SimTime,
        hidden: Vec<NodeId>,
    ) -> Self {
        self.discovery.add_partial_outage(from, until, hidden);
        self
    }

    /// Restrict this controller to one administrative domain (Fig. 3's
    /// hierarchical control model): topology snapshots are clipped to
    /// `nodes`, the session roots re-base onto the domain ingress, and the
    /// controller manages only the receivers that register with it.
    pub fn with_domain(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.domain = Some(nodes.into_iter().collect());
        self
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let start = occurrence(now, "interval_start", self.state.runs(), "");
        lock_or_recover(&self.shared).flight.push(start);
        // Beacon the warm standby before anything can return: a primary
        // that is cold-starting or suspended is still alive, and one that
        // stopped beaconing there would be deposed by its own standby.
        let my_node = ctx.node_id();
        if let Some(peer) = self.peer {
            let hb: ControlBody = Arc::new(Heartbeat { from: my_node, time: now });
            ctx.send_control(peer, Heartbeat::WIRE_SIZE, hb);
        }
        // Hard deadlines first: forget receivers silent past evict_after.
        self.sweep_silent(now);
        // 0. Age the loss reports: only reports older than the staleness
        // window become visible this interval (Fig. 10 ages "topology and
        // loss information" together).
        let visible_until = now.saturating_sub(self.discovery.staleness());
        while let Some(&(t, _)) = self.inbox.front() {
            if t > visible_until {
                break;
            }
            let (_, r) = self.inbox.pop_front().expect("front just peeked");
            // A report whose receiver left (deregistered or evicted) while
            // it aged is dropped: folded in, it would open a window no
            // interval consumes and hand a later registration of the same
            // id the old loss counts.
            let Some(e) = self.receivers.get_mut(r.receiver) else { continue };
            if self.telemetry.is_enabled() {
                // First hop of the causal chain: the report became visible
                // to this interval. t_ns is the window close, so the chain
                // reads in report-time order.
                self.telemetry.emit(&Record::Trace {
                    seq: self.state.runs(),
                    t_ns: r.time.nanos(),
                    phase: "report",
                    session: r.session.0 as u64,
                    receiver: r.receiver.0 as u64,
                    cause: r.cause,
                    level: r.level as u64,
                });
            }
            let p = e.window.get_or_insert_default();
            p.level = r.level;
            p.received = p.received.saturating_add(r.received);
            p.lost = p.lost.saturating_add(r.lost);
            p.bytes = p.bytes.saturating_add(r.bytes);
            p.cause = r.cause;
        }

        // 1. Record ground truth (clipped to this controller's domain),
        // query through the staleness filter and the tool's fault schedule.
        self.record_ground_truth(ctx, now);
        let mut degraded = false;
        let mut partial = false;
        let view: TopologyView = match self.discovery.query_checked(now) {
            // Cold start: nothing captured yet — no tree, no suggestions.
            Ok(None) => return,
            Ok(Some(v)) => {
                let v = v.clone();
                self.last_good = Some(v.clone());
                v
            }
            Err(SnapshotError::Partial(v)) => {
                // Steer whoever the tool can still see. The partial view is
                // NOT promoted to last-known-good: that would read as the
                // hidden subtree having departed.
                partial = true;
                v
            }
            Err(SnapshotError::Unavailable) => match &self.last_good {
                // Degrade to last-known-good while it is fresh enough.
                Some(v) if now.since(v.time) <= self.cfg.max_degradation_age() => {
                    degraded = true;
                    v.clone()
                }
                // Too old (or never had one): suspend suggestions outright
                // rather than steer on fiction.
                _ => {
                    let mut sh = lock_or_recover(&self.shared);
                    sh.suspended_intervals += 1;
                    sh.flight.push(occurrence(now, "fallback", self.state.runs(), "suspended"));
                    return;
                }
            },
        };

        // 2. Assemble the interval's reports: fresh data, else the most
        // recent report if it is not too old (reports can be lost).
        // Receivers silent past quarantine_after are withheld entirely —
        // their data is stale and a suggestion to them is likely wasted.
        // The table walks in receiver-id order, so both vectors come out
        // sorted (determinism).
        let quarantine_cutoff = now.saturating_sub(self.cfg.quarantine_after());
        let mut registry = Vec::with_capacity(self.receivers.len());
        let mut reports = Vec::with_capacity(self.receivers.len());
        let max_age = self.cfg.interval * 2;
        self.receivers.for_each_mut(|app, e| {
            if e.last_heard < quarantine_cutoff {
                return;
            }
            registry.push((app, e.node, e.session));
            if let Some(p) = e.window.take() {
                let r = ReceiverReport {
                    receiver: app,
                    node: e.node,
                    session: e.session,
                    level: p.level,
                    received: p.received,
                    lost: p.lost,
                    bytes: p.bytes,
                };
                e.cause = p.cause;
                e.last_known = Some((now, r));
                reports.push(r);
            } else if let Some((t, r)) = e.last_known {
                if now.since(t) <= max_age {
                    reports.push(r);
                }
            }
        });

        // 3. Overlay the session trees and run the algorithm. With
        // telemetry attached, what the run left in its buffers is then
        // read into a decision audit: one record per stage, stamped with
        // this interval's sequence number and (simulated) time.
        let mut audit =
            self.telemetry.is_enabled().then(|| IntervalAudit::new(self.state.runs(), now.nanos()));
        // The interval's replication seq is the completed-run count before
        // the run: a replica applying seq `n` goes from `n` to `n + 1`.
        let seq = self.state.runs();
        let outputs =
            self.run_interval(now, self.cfg.interval, &view, &registry, &reports, audit.as_mut());
        if let Some(a) = audit {
            // Wall-clock kernel spans live only in the timer registry —
            // never in the deterministic audit records.
            for &(stage, ns) in &a.stage_ns {
                self.telemetry.record_span_ns(stage, ns);
            }
            for record in a.into_records() {
                self.telemetry.emit(&record);
            }
        }
        // 4. Queue suggestions in a random order and send them spaced out:
        // a fixed back-to-back burst would tail-drop the same receivers'
        // suggestions at a congested link every single interval.
        self.outbox.clear();
        for s in &outputs.suggestions {
            let Some(e) = self.receivers.get(s.receiver) else { continue };
            if self.telemetry.is_enabled() {
                self.telemetry.emit(&Record::Trace {
                    seq,
                    t_ns: now.nanos(),
                    phase: "decide",
                    session: s.session.0 as u64,
                    receiver: s.receiver.0 as u64,
                    cause: e.cause,
                    level: s.level as u64,
                });
            }
            let sug = Suggestion {
                receiver: s.receiver,
                session: s.session,
                level: s.level,
                time: now,
                from: my_node,
                cause: e.cause,
            };
            let at = self.rng.range_u64(0, self.outbox.len() as u64 + 1) as usize;
            self.outbox.insert(at, (e.node, sug));
        }
        if !self.outbox.is_empty() {
            ctx.set_timer(SimDuration::ZERO, TOKEN_SEND);
        }
        if let Some(peer) = self.peer {
            // Replicate this interval's pipeline inputs (DESIGN.md §14)
            // behind the tick's heartbeat: the replica runs the same
            // byte-deterministic pipeline over them, so its AlgorithmState
            // stays a live twin and a takeover needs zero re-learning. A
            // quarantined peer gets nothing — its state already diverged.
            if !self.repl_peer_quarantined {
                let fingerprint = fingerprint_outputs(&outputs);
                self.repl_tracker.record(seq, fingerprint);
                let size =
                    ReplicateInputs::HEADER_WIRE_SIZE + Report::WIRE_SIZE * reports.len() as u32;
                let body: ControlBody = Arc::new(ReplicateInputs {
                    seq,
                    algo_seed: self.algo_seed,
                    now,
                    interval: self.cfg.interval,
                    view,
                    registry,
                    reports,
                    border_caps: self.state.border_caps().to_vec(),
                    fingerprint,
                    from: my_node,
                });
                ctx.send_control(peer, size, body);
                lock_or_recover(&self.shared).replicate_sent += 1;
            }
        }

        let mut sh = lock_or_recover(&self.shared);
        sh.intervals += 1;
        sh.full_fallbacks += u64::from(!outputs.incremental);
        sh.slots_recomputed += outputs.slots_recomputed;
        sh.suggestions_sent += outputs.suggestions.len() as u64;
        if sh.failover_at.is_some_and(|at| now >= at) && !outputs.suggestions.is_empty() {
            sh.first_steer_at.get_or_insert(now);
        }
        sh.last_outputs = Some(outputs);
        sh.degraded_intervals += degraded as u64;
        sh.partial_intervals += partial as u64;
        if degraded {
            sh.flight.push(occurrence(now, "fallback", seq, "degraded"));
        }
        sh.flight.push(occurrence(now, "interval_end", seq, ""));
    }

    /// Evict receivers silent past `evict_after`, record how many fell and
    /// refresh the population gauges — here, so that no early return of
    /// [`Self::tick`] can lose them. One pass evicts and counts the
    /// quarantined.
    fn sweep_silent(&mut self, now: SimTime) {
        let evict_cutoff = now.saturating_sub(self.cfg.evict_after());
        let quarantine_cutoff = now.saturating_sub(self.cfg.quarantine_after());
        let before = self.receivers.len();
        let mut quarantined = 0;
        self.receivers.retain(|e| {
            let keep = e.last_heard >= evict_cutoff;
            quarantined += usize::from(keep && e.last_heard < quarantine_cutoff);
            keep
        });
        let evicted = (before - self.receivers.len()) as u64;
        let mut sh = lock_or_recover(&self.shared);
        sh.evicted += evicted;
        sh.registered = self.receivers.len();
        sh.quarantined = quarantined;
    }

    /// Record ground truth (clipped to this controller's domain) into the
    /// discovery tool's archive.
    fn record_ground_truth(&mut self, ctx: &Ctx<'_>, now: SimTime) {
        let view = TopologyView::capture(ctx.network(), now);
        let view = match &self.domain {
            Some(domain) => view.restrict(domain),
            None => view,
        };
        self.discovery.record(view);
    }

    /// The interval body, one for the active controller and its replica
    /// (DESIGN.md §14): overlay the catalog's session trees on `view` and
    /// run the pipeline over them.
    fn run_interval(
        &mut self,
        now: SimTime,
        interval: SimDuration,
        view: &TopologyView,
        registry: &[(AppId, NodeId, SessionId)],
        reports: &[ReceiverReport],
        audit: Option<&mut IntervalAudit>,
    ) -> AlgorithmOutputs {
        // Transiently inconsistent snapshots (a node with two parents
        // mid-regraft) skip the session this round.
        let mut trees: Vec<SessionTree> = Vec::with_capacity(self.catalog.len());
        for def in self.catalog.iter() {
            if let Ok(t) = SessionTree::build(view, def.id, &def.groups) {
                trees.push(t);
            }
        }
        let specs: Vec<&LayerSpec> =
            trees.iter().map(|t| &self.catalog.get(t.session()).spec).collect();
        let inputs =
            AlgorithmInputs { now, interval, trees: &trees, specs: &specs, registry, reports };
        self.state.run_incremental_audited(&inputs, audit)
    }

    /// Passive interval: keep the snapshot archive warm (a takeover must
    /// not cold-start discovery) and watch the peer's heartbeats.
    fn tick_standby(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.record_ground_truth(ctx, now);
        // Startup counts as a beacon: a standby that has heard nothing yet
        // only moves after a full failover window.
        let heard = self.last_heartbeat_at.unwrap_or(SimTime::ZERO);
        if now.since(heard) > self.cfg.failover_after() {
            self.take_over(ctx, now);
        }
    }

    /// Assume the active role after the peer went silent.
    fn take_over(&mut self, ctx: &mut Ctx<'_>, now: SimTime) {
        self.active = true;
        if self.repl_next_seq.is_none() {
            // Cold standby (registry mirror only, no replicated inputs):
            // it has never observed an interval through its own pipeline,
            // so force the first one to start cold.
            self.state.invalidate();
        }
        // An input-synced replica keeps its state untouched: the
        // AlgorithmState — change cache included — is a byte-exact twin of
        // the primary's as of the last applied batch, so the next interval
        // re-arms the incremental engine with at most one natural
        // `full_fallback` (when the first self-observed inputs differ from
        // the cached ones), not an invalidation storm. Either way the
        // input stream is ours to produce now.
        self.repl_next_seq = None;
        // Re-ACK every mirrored registration so the receivers redirect
        // their reports, and restart their silence clocks — nobody gets
        // evicted for quiet accrued while we were passive.
        let acks = self.receivers.len() as u64;
        let controller = ctx.node_id();
        self.receivers.for_each_mut(|app, e| {
            e.last_heard = now;
            let ack: ControlBody = Arc::new(RegisterAck { receiver: app, controller, time: now });
            ctx.send_control(e.node, RegisterAck::WIRE_SIZE, ack);
        });
        let mut sh = lock_or_recover(&self.shared);
        sh.failover_at.get_or_insert(now);
        sh.failovers += 1;
        sh.acks_sent += acks;
        sh.flight.push(occurrence(now, "takeover", self.state.runs(), format!("{acks} acks")));
    }

    /// Standing-by only: apply one replicated input batch through our own
    /// pipeline and ack with our output fingerprint.
    fn apply_replicated(&mut self, ctx: &mut Ctx<'_>, m: &ReplicateInputs) {
        let my_node = ctx.node_id();
        let peer = match self.peer {
            Some(p) if p == m.from => p,
            _ => return,
        };
        // A fresh replica can only join the stream at its very beginning:
        // seq 0 carries the primary's algorithm seed, and re-seeding turns
        // this state into a byte-exact twin. Anywhere else it must resync
        // from a checkpoint.
        if self.repl_next_seq.is_none() && m.seq == 0 {
            self.state = AlgorithmState::new(self.cfg, m.algo_seed);
            self.repl_next_seq = Some(0);
        }
        match self.repl_next_seq {
            Some(next) if m.seq == next => {}
            Some(next) if m.seq < next => return, // stale duplicate
            _ => {
                // Gap (a batch was lost to congestion) or mid-stream join:
                // ask for a checkpoint resync.
                self.repl_next_seq = None;
                let ack: ControlBody =
                    Arc::new(ReplicaAck { seq: m.seq, fingerprint: None, from: my_node });
                ctx.send_control(peer, ReplicaAck::WIRE_SIZE, ack);
                return;
            }
        }
        // Border caps are pipeline inputs too: the twin must run under the
        // same root ceilings or its fingerprint diverges.
        self.state.set_border_caps(&m.border_caps);
        // The same body the primary ran, over the replicated view and this
        // replica's identical catalog.
        let out = self.run_interval(m.now, m.interval, &m.view, &m.registry, &m.reports, None);
        self.repl_next_seq = Some(m.seq + 1);
        let fp = fingerprint_outputs(&out);
        let ack: ControlBody =
            Arc::new(ReplicaAck { seq: m.seq, fingerprint: Some(fp), from: my_node });
        ctx.send_control(peer, ReplicaAck::WIRE_SIZE, ack);
        lock_or_recover(&self.shared).replica_applied += 1;
    }

    /// Active only: cross-check a replica's ack against our recorded
    /// fingerprint window.
    fn on_replica_ack(&mut self, ctx: &mut Ctx<'_>, a: &ReplicaAck) {
        if self.repl_peer_quarantined {
            return;
        }
        match self.repl_tracker.verdict(a.seq, a.fingerprint) {
            Some(AckVerdict::Match) => {
                let mut sh = lock_or_recover(&self.shared);
                sh.replica_acks += 1;
                sh.replication_lag = self.repl_tracker.lag_of(a.seq);
            }
            Some(AckVerdict::Divergent) => {
                // Silent divergence caught: the replica ran the same inputs
                // and produced different outputs, and the pair cannot tell
                // whose state is corrupted. Quarantine the replica (stop
                // replicating; the heartbeat keeps flowing so it does not
                // false-failover).
                self.repl_peer_quarantined = true;
                let mut sh = lock_or_recover(&self.shared);
                sh.replica_divergences += 1;
                sh.replica_quarantined = true;
                let node = format!("node {}", a.from.index());
                sh.flight.push(occurrence(ctx.now(), "quarantine", a.seq, node));
            }
            Some(AckVerdict::Behind) => {
                // Bring the replica to our current state; it resumes the
                // input stream at our completed-run count. The checkpoint
                // capture is non-invalidating: serving a resync must not
                // push our own next interval into a cold start.
                let snap = self.state.checkpoint();
                let next_seq = snap.runs;
                let blob = snap.encode();
                let size = blob.len() as u32;
                let body: ControlBody =
                    Arc::new(CheckpointTransfer { next_seq, blob, from: ctx.node_id() });
                ctx.send_control(a.from, size, body);
                let mut sh = lock_or_recover(&self.shared);
                sh.replica_resyncs += 1;
                sh.flight.push(occurrence(ctx.now(), "checkpoint", next_seq, "served"));
            }
            None => {} // stale ack outside the window
        }
    }

    /// Standing-by only: restore a checkpoint transfer and rejoin the
    /// input stream at the primary's run count.
    fn apply_checkpoint(&mut self, now: SimTime, t: &CheckpointTransfer) {
        match Snapshot::decode(&t.blob).and_then(|s| AlgorithmState::restore(self.cfg, &s)) {
            Ok(state) if state.runs() == t.next_seq => {
                self.state = state;
                self.repl_next_seq = Some(t.next_seq);
                let mut sh = lock_or_recover(&self.shared);
                sh.replica_resyncs += 1;
                sh.flight.push(occurrence(now, "checkpoint", t.next_seq, "applied"));
            }
            _ => {
                // A corrupt transfer — or one whose `next_seq` disagrees with
                // the blob's own run count, which would leave this replica
                // discarding the live stream as stale duplicates — is
                // dropped; the next batch's gap ack requests another.
                lock_or_recover(&self.shared).replica_resync_failures += 1;
            }
        }
    }
}

impl App for Controller {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if !self.active {
            // Treat startup as a beacon: don't take over before the peer
            // even had a chance to speak.
            self.last_heartbeat_at = Some(ctx.now());
        }
        ctx.set_timer(self.cfg.interval, TOKEN_TICK);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &netsim::Packet) {
        if let Some(h) = packet.control_as::<Heartbeat>() {
            if Some(h.from) == self.peer {
                // Transient dual-active (beacons lost both ways): the
                // smaller node id keeps the role, deterministically.
                if self.active && h.from < ctx.node_id() {
                    self.active = false;
                    // We ran intervals on our own while dual-active, so our
                    // state drifted off the peer's input stream; rejoin it
                    // via a checkpoint resync.
                    self.repl_next_seq = None;
                }
                self.last_heartbeat_at = Some(ctx.now());
            }
            return;
        }
        if let Some(r) = packet.control_as::<Register>() {
            let now = ctx.now();
            let admitted = || ReceiverEntry::new(r.node, r.session, now);
            let e = self.receivers.get_or_insert_with(r.receiver, admitted);
            (e.node, e.session, e.last_heard) = (r.node, r.session, now);
            if self.active {
                lock_or_recover(&self.shared).acks_sent += 1;
                let ack: ControlBody = Arc::new(RegisterAck {
                    receiver: r.receiver,
                    controller: ctx.node_id(),
                    time: ctx.now(),
                });
                ctx.send_control(r.node, RegisterAck::WIRE_SIZE, ack);
                // Mirror to the standby so a takeover starts with a
                // registry instead of waiting for re-announcements.
                if let Some(peer) = self.peer {
                    ctx.send_control(peer, Register::WIRE_SIZE, Arc::new(r.clone()));
                }
            }
            return;
        }
        if let Some(d) = packet.control_as::<Deregister>() {
            self.receivers.remove(d.receiver);
            if self.active {
                if let Some(peer) = self.peer {
                    ctx.send_control(peer, Deregister::WIRE_SIZE, Arc::new(d.clone()));
                }
            }
            return;
        }
        if let Some(r) = packet.control_as::<Report>() {
            // Registration can be lost; a report is as good an announcement
            // (and also lifts an eviction or quarantine).
            let now = ctx.now();
            let admitted = || ReceiverEntry::new(r.node, r.session, now);
            self.receivers.get_or_insert_with(r.receiver, admitted).last_heard = now;
            // The counters are the receiver's word, so bound them where they
            // enter: 4 G packets in one window is beyond any link here, and
            // it keeps every later sum (the window fold, a domain summary
            // over 10^5 receivers) inside `u64`.
            let bounded = |count: u64| count.min(u32::MAX as u64);
            let report = Report {
                received: bounded(r.received),
                lost: bounded(r.lost),
                bytes: bounded(r.bytes),
                ..r.clone()
            };
            self.inbox.push_back((ctx.now(), report));
            return;
        }
        if let Some(m) = packet.control_as::<ReplicateInputs>() {
            if !self.active {
                self.apply_replicated(ctx, m);
            }
            return;
        }
        if let Some(a) = packet.control_as::<ReplicaAck>() {
            if self.active && Some(a.from) == self.peer {
                self.on_replica_ack(ctx, a);
            }
            return;
        }
        if let Some(t) = packet.control_as::<CheckpointTransfer>() {
            if !self.active && Some(t.from) == self.peer {
                self.apply_checkpoint(ctx.now(), t);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_TICK => {
                if self.active {
                    self.tick(ctx);
                } else {
                    self.tick_standby(ctx);
                }
                ctx.set_timer(self.cfg.interval, TOKEN_TICK);
            }
            TOKEN_SEND => {
                if let Some((node, sug)) = self.outbox.pop() {
                    let body: ControlBody = Arc::new(sug);
                    ctx.send_control(node, Suggestion::WIRE_SIZE, body);
                }
                if !self.outbox.is_empty() {
                    ctx.set_timer(SEND_SPACING, TOKEN_SEND);
                }
            }
            other => unreachable!("unknown controller timer {other}"),
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // The crash swallowed our timers and wiped nothing of ours (the app
        // object survives), but the interval in flight is gone: drop work
        // queued for it rather than send stale suggestions.
        self.outbox.clear();
        self.inbox.clear();
        self.receivers.for_each_mut(|_, e| e.window = None);
        // The interval in flight died with the crash; its cached inputs are
        // unreliable, so the next run starts cold.
        self.state.invalidate();
        // Whatever replication position we held is gone with the crash:
        // as a new standby we rejoin via checkpoint resync, and a fresh
        // fingerprint window starts if we ever become primary again.
        self.repl_next_seq = None;
        self.repl_tracker = ReplicaTracker::new();
        self.repl_peer_quarantined = false;
        if self.peer.is_some() && self.active {
            // The standby has taken over (or is about to): come back as the
            // new standby. Roles swap; the pair never fights over the
            // receivers after a crash.
            self.active = false;
            self.last_heartbeat_at = Some(ctx.now());
        } else if self.active {
            // Solo restart: every registered receiver was silent only
            // because *we* were down. Re-anchor the silence clocks to the
            // restart instant (the mirror of the `take_over` re-anchor) so
            // the first tick back does not quarantine — or, after an
            // outage longer than `evict_after`, evict — receivers for
            // quiet accrued during our own outage.
            let now = ctx.now();
            self.receivers.for_each_mut(|_, e| e.last_heard = now);
        }
        ctx.set_timer(self.cfg.interval, TOKEN_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::Receiver;
    use netsim::sim::{NetworkBuilder, SimConfig};
    use netsim::{GroupId, LinkConfig, Simulator};
    use traffic::session::SessionDef;
    use traffic::{LayeredSource, TrafficModel};

    /// Step `sim` through `n` more intervals, returning each one's
    /// congested-node count.
    fn congested_steps(sim: &mut Simulator, shared: &ControllerHandle, n: u32) -> Vec<usize> {
        let step = Config::default().interval;
        (0..n)
            .map(|_| {
                sim.run_until(sim.now() + step);
                shared.lock().unwrap().last_outputs.as_ref().map_or(0, |o| o.congested_nodes)
            })
            .collect()
    }

    /// A one-session chain: src(+controller) -> mid -> rcv with a generous
    /// bottleneck; the receiver should be steered upward layer by layer.
    #[test]
    fn end_to_end_controller_steers_receiver_up() {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let src = b.add_node("src");
        let mid = b.add_node("mid");
        let rcv = b.add_node("rcv");
        b.add_link(src, mid, LinkConfig::kbps(100_000.0));
        b.add_link(mid, rcv, LinkConfig::kbps(100_000.0));
        let mut sim = b.build();
        let groups: Vec<GroupId> = (0..6).map(|_| sim.create_group(src)).collect();
        let def = SessionDef {
            id: netsim::SessionId(0),
            source: src,
            groups,
            spec: LayerSpec::paper_default(),
        };
        let mut catalog = SessionCatalog::new();
        catalog.add(def.clone());
        let catalog = catalog.share();

        let cfg = Config::default();
        let (ctrl, ctrl_shared) = Controller::new(Arc::clone(&catalog), cfg, SimDuration::ZERO, 1);
        sim.add_app(src, Box::new(ctrl));
        sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 2)));
        let (rx, rx_shared) = Receiver::new(def, src, cfg, 3, "r0");
        sim.add_app(rcv, Box::new(rx));

        sim.run_until(SimTime::from_secs(60));

        let c = ctrl_shared.lock().unwrap();
        assert!(c.intervals >= 25, "controller ran {} intervals", c.intervals);
        assert!(c.suggestions_sent > 0);
        assert_eq!(c.registered, 1);
        let r = rx_shared.lock().unwrap();
        // Unconstrained path: the receiver must be steered to the top level.
        assert_eq!(r.final_level(), 6, "changes: {:?}", r.changes);
        assert!(r.suggestions_received > 0);
    }

    /// A 150 kb/s bottleneck must cap the receiver near 2 layers (96 kb/s).
    #[test]
    fn end_to_end_bottleneck_caps_subscription() {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let src = b.add_node("src");
        let mid = b.add_node("mid");
        let rcv = b.add_node("rcv");
        b.add_link(src, mid, LinkConfig::kbps(100_000.0));
        b.add_link(mid, rcv, LinkConfig::kbps(150.0));
        let mut sim = b.build();
        let groups: Vec<GroupId> = (0..6).map(|_| sim.create_group(src)).collect();
        let def = SessionDef {
            id: netsim::SessionId(0),
            source: src,
            groups,
            spec: LayerSpec::paper_default(),
        };
        let mut catalog = SessionCatalog::new();
        catalog.add(def.clone());
        let catalog = catalog.share();

        let cfg = Config::default();
        let (ctrl, _ctrl_shared) = Controller::new(Arc::clone(&catalog), cfg, SimDuration::ZERO, 1);
        sim.add_app(src, Box::new(ctrl));
        sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 2)));
        let (rx, rx_shared) = Receiver::new(def, src, cfg, 3, "r0");
        sim.add_app(rcv, Box::new(rx));

        sim.run_until(SimTime::from_secs(300));

        let r = rx_shared.lock().unwrap();
        // Time-weighted average level over the second half must sit at ~2.
        let half = SimTime::from_secs(150);
        let mut level_at = 0u8;
        let mut weighted = 0.0;
        let mut last_t = half;
        for &(t, _, new) in &r.changes {
            if t <= half {
                level_at = new;
                continue;
            }
            weighted += level_at as f64 * t.since(last_t).as_secs_f64();
            last_t = t;
            level_at = new;
        }
        weighted += level_at as f64 * SimTime::from_secs(300).since(last_t).as_secs_f64();
        let avg = weighted / 150.0;
        assert!(
            (1.5..=2.6).contains(&avg),
            "average level {avg} out of range; changes: {:?}",
            r.changes
        );
    }

    /// Shared scaffolding for the hardening tests: a one-session chain
    /// `src -> mid -> rcv` with generous links and a session catalog.
    fn chain() -> (netsim::Simulator, Arc<SessionCatalog>, SessionDef, NodeId, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let src = b.add_node("src");
        let mid = b.add_node("mid");
        let rcv = b.add_node("rcv");
        b.add_link(src, mid, LinkConfig::kbps(100_000.0));
        b.add_link(mid, rcv, LinkConfig::kbps(100_000.0));
        let mut sim = b.build();
        let groups: Vec<GroupId> = (0..6).map(|_| sim.create_group(src)).collect();
        let def = SessionDef {
            id: netsim::SessionId(0),
            source: src,
            groups,
            spec: LayerSpec::paper_default(),
        };
        let mut catalog = SessionCatalog::new();
        catalog.add(def.clone());
        (sim, catalog.share(), def, src, mid, rcv)
    }

    /// Satellite: with a discovery tool too stale to have answered yet, the
    /// controller must do nothing — no intervals, no suggestions from a
    /// nonexistent tree.
    #[test]
    fn cold_start_with_unanswered_discovery_sends_nothing() {
        let (mut sim, catalog, def, src, _mid, rcv) = chain();
        let cfg = Config::default();
        let (ctrl, shared) = Controller::new(catalog, cfg, SimDuration::from_secs(30), 1);
        sim.add_app(src, Box::new(ctrl));
        sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 2)));
        let (rx, _) = Receiver::new(def, src, cfg, 3, "r0");
        sim.add_app(rcv, Box::new(rx));
        sim.run_until(SimTime::from_secs(10));
        let c = shared.lock().unwrap();
        assert_eq!(c.intervals, 0, "no interval may complete before discovery answers");
        assert_eq!(c.suggestions_sent, 0);
    }

    /// Discovery outage: run on last-known-good while fresh, then suspend,
    /// then resume when the tool answers again.
    #[test]
    fn discovery_outage_degrades_then_suspends_then_recovers() {
        let (mut sim, catalog, def, src, _mid, rcv) = chain();
        let cfg = Config::default();
        let (ctrl, shared) = Controller::new(catalog, cfg, SimDuration::ZERO, 1);
        let ctrl = ctrl.with_discovery_outage(SimTime::from_secs(5), SimTime::from_secs(25));
        sim.add_app(src, Box::new(ctrl));
        sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 2)));
        let (rx, _) = Receiver::new(def, src, cfg, 3, "r0");
        sim.add_app(rcv, Box::new(rx));
        sim.run_until(SimTime::from_secs(41));
        let c = shared.lock().unwrap();
        // Ticks at 6..=14 ride last-known-good (captured at 4, max age 10);
        // ticks at 16..=24 are suspended; 26 onward is normal again.
        assert_eq!(c.degraded_intervals, 5, "degraded window");
        assert_eq!(c.suspended_intervals, 5, "suspended window");
        assert!(c.intervals >= 14, "resumed after the outage: {}", c.intervals);
        assert!(c.suggestions_sent > 0);
    }

    /// Satellite: an orderly departure must clear the registry entry
    /// immediately, not wait for the silence deadline.
    #[test]
    fn departure_deregisters_immediately() {
        let (mut sim, catalog, def, src, _mid, rcv) = chain();
        let cfg = Config::default();
        let (ctrl, shared) = Controller::new(catalog, cfg, SimDuration::ZERO, 1);
        sim.add_app(src, Box::new(ctrl));
        sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 2)));
        let (rx, _) = Receiver::new(def, src, cfg, 3, "r0");
        let rx = rx.with_lifetime(SimTime::ZERO, Some(SimTime::from_secs(10)));
        sim.add_app(rcv, Box::new(rx));
        // 20 s is well inside the eviction horizon (10 s departure + 24 s
        // evict_after): an empty registry here proves Deregister worked.
        sim.run_until(SimTime::from_secs(20));
        let c = shared.lock().unwrap();
        assert_eq!(c.registered, 0, "departed receiver still in the registry");
        assert!(c.evicted == 0, "departure must not count as an eviction");
    }

    /// Joins the base layer, then every second sends the same report — a
    /// level the controller never suggested, counters of its own making —
    /// and records every suggestion it is sent.
    struct FixedLevelReporter {
        controller: NodeId,
        group: GroupId,
        level: u8,
        /// `(received, lost, bytes)` of every report.
        counts: (u64, u64, u64),
        suggested: Arc<Mutex<Vec<u8>>>,
    }
    impl App for FixedLevelReporter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.join(self.group);
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            let body: ControlBody = Arc::new(Report {
                receiver: ctx.app_id(),
                node: ctx.node_id(),
                session: netsim::SessionId(0),
                level: self.level,
                received: self.counts.0,
                lost: self.counts.1,
                bytes: self.counts.2,
                time: ctx.now(),
                cause: 0,
            });
            ctx.send_control(self.controller, 96, body);
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, packet: &netsim::Packet) {
            if let Some(s) = packet.control_as::<Suggestion>() {
                self.suggested.lock().unwrap().push(s.level);
            }
        }
    }

    /// The suggestions a lone [`FixedLevelReporter`] is sent over 30 s.
    fn suggestions_for(level: u8, counts: (u64, u64, u64)) -> Vec<u8> {
        let (mut sim, catalog, def, src, _mid, rcv) = chain();
        let (ctrl, shared) = Controller::new(catalog, Config::default(), SimDuration::ZERO, 1);
        sim.add_app(src, Box::new(ctrl));
        sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 2)));
        let suggested = Arc::new(Mutex::new(Vec::new()));
        sim.add_app(
            rcv,
            Box::new(FixedLevelReporter {
                controller: src,
                group: def.groups[0],
                level,
                counts,
                suggested: Arc::clone(&suggested),
            }),
        );
        sim.run_until(SimTime::from_secs(30));
        assert!(shared.lock().unwrap().intervals >= 10);
        let suggested = suggested.lock().unwrap().clone();
        suggested
    }

    /// A report the controller did not author carries `level = 255`: the
    /// ingest -> pipeline -> emit path must neither panic (debug) nor wrap
    /// (release), and steers exactly as if the receiver had reported the
    /// session's top level.
    #[test]
    fn report_level_above_the_top_is_ingested_as_the_top_level() {
        let max_level = LayerSpec::paper_default().max_level();
        let hostile = suggestions_for(u8::MAX, (100, 0, 24_000));
        assert!(hostile.len() >= 10, "only {} suggestions arrived", hostile.len());
        assert!(hostile.iter().all(|l| (1..=max_level).contains(l)), "{hostile:?}");
        assert_eq!(hostile, suggestions_for(max_level, (100, 0, 24_000)));
    }

    /// Two reports land in every 2 s window, each with `u64::MAX` in all
    /// three counters: folding the window used to overflow (a panic in
    /// debug builds; in release `expected` wrapped and a lossy window read
    /// as lossless). Ingest bounds each counter to `u32::MAX`, so the run
    /// is the twin of one whose receiver reports exactly that.
    #[test]
    fn report_counters_at_the_integer_ceiling_are_ingested_bounded() {
        let ceiling = u32::MAX as u64;
        let hostile = suggestions_for(2, (u64::MAX, u64::MAX, u64::MAX));
        assert!(hostile.len() >= 10, "only {} suggestions arrived", hostile.len());
        assert_eq!(hostile, suggestions_for(2, (ceiling, ceiling, ceiling)));
        // Half of everything lost is read as loss, not as the clean path it
        // wrapped to: a clean reporter at level 2 is told to climb.
        let clean = suggestions_for(2, (100, 0, 24_000));
        assert!(hostile.iter().all(|&l| l <= 2), "{hostile:?}");
        assert!(clean.iter().any(|&l| l > 2), "{clean:?}");
    }

    /// Registers once and never speaks again.
    struct MuteReceiver {
        controller: NodeId,
    }
    impl App for MuteReceiver {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let body: ControlBody = Arc::new(Register {
                receiver: ctx.app_id(),
                node: ctx.node_id(),
                session: netsim::SessionId(0),
                level: 1,
            });
            ctx.send_control(self.controller, 48, body);
        }
    }

    /// A receiver that registers and then falls silent is eventually
    /// evicted (and the registry gauge drops back to zero).
    #[test]
    fn silent_receiver_is_evicted() {
        let (mut sim, catalog, _def, src, _mid, rcv) = chain();
        let cfg = Config::default();
        let (ctrl, shared) = Controller::new(catalog, cfg, SimDuration::ZERO, 1);
        sim.add_app(src, Box::new(ctrl));
        sim.add_app(rcv, Box::new(MuteReceiver { controller: src }));
        sim.run_until(SimTime::from_secs(30));
        let c = shared.lock().unwrap();
        assert_eq!(c.evicted, 1, "silent receiver must be evicted");
        assert_eq!(c.registered, 0);
        assert!(c.acks_sent >= 1, "registration was acknowledged");
    }

    /// Regression: with discovery staler than `evict_after` the sweep fires
    /// on a tick that then leaves through the cold-start return — the
    /// eviction must be counted all the same.
    #[test]
    fn eviction_during_discovery_cold_start_is_recorded() {
        let (mut sim, catalog, _def, src, _mid, rcv) = chain();
        let cfg = Config::default();
        let staleness = cfg.evict_after() + cfg.interval * 4;
        let (ctrl, shared) = Controller::new(catalog, cfg, staleness, 1);
        sim.add_app(src, Box::new(ctrl));
        sim.add_app(rcv, Box::new(MuteReceiver { controller: src }));
        sim.run_until(SimTime::ZERO + cfg.evict_after() + cfg.interval * 2);
        let c = shared.lock().unwrap();
        assert_eq!(c.intervals, 0, "discovery has not answered yet");
        assert_eq!(c.evicted, 1, "an eviction on a cold-start tick must be counted");
    }

    /// Regression (stage-1 no-data rule): a receiver that reports loss and
    /// then falls silent until quarantined and evicted must neither freeze
    /// its subtree in a congested state forever (the old `f64::INFINITY`
    /// child-min seed hazard) nor mask its still-reporting sibling's loss
    /// with a fabricated all-clear.
    #[test]
    fn evicted_subtree_is_no_data_and_does_not_mask_sibling_loss() {
        struct LossyReporter {
            controller: NodeId,
            group: GroupId,
            mute_after: Option<SimTime>,
        }
        impl App for LossyReporter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.join(self.group);
                let body: ControlBody = Arc::new(Register {
                    receiver: ctx.app_id(),
                    node: ctx.node_id(),
                    session: netsim::SessionId(0),
                    level: 2,
                });
                ctx.send_control(self.controller, 48, body);
                ctx.set_timer(SimDuration::from_secs(2), 7);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                let now = ctx.now();
                if self.mute_after.is_none_or(|m| now < m) {
                    let body: ControlBody = Arc::new(Report {
                        receiver: ctx.app_id(),
                        node: ctx.node_id(),
                        session: netsim::SessionId(0),
                        level: 2,
                        received: 70,
                        lost: 30, // 30% loss, well above p_threshold
                        bytes: 20_000,
                        time: now,
                        cause: 0,
                    });
                    ctx.send_control(self.controller, 64, body);
                }
                ctx.set_timer(SimDuration::from_secs(2), 7);
            }
        }

        let mut b = NetworkBuilder::new(SimConfig::default());
        let src = b.add_node("src");
        let mid = b.add_node("mid");
        let r1 = b.add_node("r1");
        let r2 = b.add_node("r2");
        b.add_link(src, mid, LinkConfig::kbps(100_000.0));
        b.add_link(mid, r1, LinkConfig::kbps(100_000.0));
        b.add_link(mid, r2, LinkConfig::kbps(100_000.0));
        let mut sim = b.build();
        let groups: Vec<GroupId> = (0..6).map(|_| sim.create_group(src)).collect();
        let def = SessionDef {
            id: netsim::SessionId(0),
            source: src,
            groups: groups.clone(),
            spec: LayerSpec::paper_default(),
        };
        let mut catalog = SessionCatalog::new();
        catalog.add(def);
        let cfg = Config::default();
        let (ctrl, shared) = Controller::new(catalog.share(), cfg, SimDuration::ZERO, 1);
        sim.add_app(src, Box::new(ctrl));
        // r1 reports ~30% loss every interval for the whole run; r2 reports
        // the same loss once, then goes mute and rides the quarantine
        // (6 s) -> eviction (24 s) path.
        sim.add_app(
            r1,
            Box::new(LossyReporter { controller: src, group: groups[0], mute_after: None }),
        );
        sim.add_app(
            r2,
            Box::new(LossyReporter {
                controller: src,
                group: groups[0],
                mute_after: Some(SimTime::from_secs(4)),
            }),
        );
        sim.run_until(SimTime::from_secs(30));
        let late = congested_steps(&mut sim, &shared, 5);

        let c = shared.lock().unwrap();
        assert_eq!(c.evicted, 1, "mute receiver must be evicted");
        assert_eq!(c.registered, 1, "the reporting receiver stays registered");
        assert!(c.suggestions_sent > 0);
        // Long after the eviction, the shared parent must still be labelled
        // congested from r1's reports alone: r2's silent subtree is no-data,
        // not a 0.0-loss child dragging the parent's min to all-clear — and
        // not an infinitely-lossy child freezing it CONGESTED either. With
        // r1, mid and src self-congested and r2 inheriting mid's parental
        // congestion, the count sits at 4 nodes.
        assert!(
            late.iter().all(|&n| n >= 3),
            "silent subtree masked the lossy sibling: late congested counts {late:?}"
        );
    }

    /// Warm standby: when the primary's node crashes, the standby notices
    /// the heartbeat silence, takes over, re-ACKs the receivers, and keeps
    /// steering them.
    #[test]
    fn standby_takes_over_after_primary_crash() {
        let mut w = failover_world(SimDuration::ZERO, |primary| primary);
        w.sim.install_faults(&netsim::FaultPlan::new().node_crash(w.ctl, SimTime::from_secs(7)));
        w.sim.run_until(SimTime::from_secs(40));

        let p = w.primary.lock().unwrap();
        assert!(p.suggestions_sent > 0, "primary steered before the crash");
        assert!(p.failover_at.is_none());
        let s = w.standby.lock().unwrap();
        let at = s.failover_at.expect("standby must take over");
        assert!(at > SimTime::from_secs(7) && at <= SimTime::from_secs(16), "takeover at {at:?}");
        assert!(s.intervals > 0, "standby runs the algorithm after takeover");
        assert!(s.suggestions_sent > 0);
        assert!(s.acks_sent >= 1, "receivers re-ACKed on takeover");
        let r = w.receiver.lock().unwrap();
        // The unconstrained path must still end at the top level — steering
        // continued across the failover.
        assert_eq!(r.final_level(), 6, "changes: {:?}", r.changes);
    }

    /// A primary whose tick returns early is alive, and says so: with 8 s of
    /// staleness (longer than `failover_after`) every tick until a snapshot
    /// is old enough is a cold start, and no fault is injected — the standby
    /// must stay passive through all 16 of the primary's intervals.
    #[test]
    fn a_cold_starting_primary_is_not_deposed_by_its_standby() {
        let mut w = failover_world(SimDuration::from_secs(8), |primary| primary);
        w.sim.run_until(SimTime::from_secs(33));
        assert!(w.primary.lock().unwrap().intervals > 0, "the primary did leave its cold start");
        let s = w.standby.lock().unwrap();
        assert_eq!((s.failover_at, s.acks_sent), (None, 0));
    }

    /// The same through the suspended branch: discovery is down for longer
    /// than `max_degradation_age + failover_after` (16 s), so the primary
    /// suspends suggestions — and keeps beaconing.
    #[test]
    fn a_suspended_primary_is_not_deposed_by_its_standby() {
        let outage = (SimTime::from_secs(9), SimTime::from_secs(41));
        let mut w = failover_world(SimDuration::ZERO, |primary| {
            primary.with_discovery_outage(outage.0, outage.1)
        });
        w.sim.run_until(SimTime::from_secs(50));
        let p = w.primary.lock().unwrap();
        assert!(p.suspended_intervals >= 8, "suspended {} intervals", p.suspended_intervals);
        assert_eq!(w.standby.lock().unwrap().failover_at, None);
    }

    /// The five-node world of the standby tests, ready to run.
    struct FailoverWorld {
        sim: netsim::Simulator,
        /// The primary's node.
        ctl: NodeId,
        primary: ControllerHandle,
        standby: ControllerHandle,
        receiver: crate::receiver::ReceiverHandle,
    }

    /// Source, primary on `ctl`, warm standby on `ctl2` and one receiver
    /// behind `mid`, all links fat; both controllers see the topology
    /// `staleness` late and `configure` finishes the primary.
    fn failover_world(
        staleness: SimDuration,
        configure: impl FnOnce(Controller) -> Controller,
    ) -> FailoverWorld {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let src = b.add_node("src");
        let ctl = b.add_node("ctl");
        let ctl2 = b.add_node("ctl2");
        let mid = b.add_node("mid");
        let rcv = b.add_node("rcv");
        b.add_link(src, mid, LinkConfig::kbps(100_000.0));
        b.add_link(ctl, mid, LinkConfig::kbps(100_000.0));
        b.add_link(ctl2, mid, LinkConfig::kbps(100_000.0));
        b.add_link(mid, rcv, LinkConfig::kbps(100_000.0));
        let mut sim = b.build();
        let groups: Vec<GroupId> = (0..6).map(|_| sim.create_group(src)).collect();
        let def = SessionDef {
            id: netsim::SessionId(0),
            source: src,
            groups,
            spec: LayerSpec::paper_default(),
        };
        let mut catalog = SessionCatalog::new();
        catalog.add(def.clone());
        let catalog = catalog.share();

        let cfg = Config::default();
        let (primary, p_shared) = Controller::new(Arc::clone(&catalog), cfg, staleness, 1);
        let primary = configure(primary.with_peer(ctl2));
        let (standby, s_shared) = Controller::new(Arc::clone(&catalog), cfg, staleness, 2);
        let standby = standby.with_peer(ctl).as_standby();
        sim.add_app(ctl, Box::new(primary));
        sim.add_app(ctl2, Box::new(standby));
        sim.add_app(src, Box::new(LayeredSource::new(def.clone(), TrafficModel::Cbr, 2)));
        let (rx, rx_shared) = Receiver::new(def, ctl, cfg, 3, "r0");
        sim.add_app(rcv, Box::new(rx));
        FailoverWorld { sim, ctl, primary: p_shared, standby: s_shared, receiver: rx_shared }
    }

    /// One step of a [`Scripted`] receiver.
    #[derive(Clone, Copy)]
    enum Step {
        Register,
        Deregister,
        Report { received: u64, lost: u64 },
    }

    /// `Report` steps every second over `[from, until)` seconds, each half
    /// a second off the controller's tick instants.
    fn reports(from: u64, until: u64, received: u64, lost: u64) -> Vec<(SimTime, Step)> {
        (from..until)
            .map(|s| (SimTime::from_millis(s * 1000 + 500), Step::Report { received, lost }))
            .collect()
    }

    /// Joins the base group, plays its steps at their scripted instants and
    /// records when each suggestion reached it.
    struct Scripted {
        controller: NodeId,
        group: GroupId,
        steps: Vec<(SimTime, Step)>,
        suggested_at: Arc<Mutex<Vec<SimTime>>>,
    }
    impl App for Scripted {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.join(self.group);
            for (i, &(at, _)) in self.steps.iter().enumerate() {
                ctx.set_timer(at.since(ctx.now()), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let (receiver, node, session, time) =
                (ctx.app_id(), ctx.node_id(), netsim::SessionId(0), ctx.now());
            let body: ControlBody = match self.steps[token as usize].1 {
                Step::Register => Arc::new(Register { receiver, node, session, level: 1 }),
                Step::Deregister => Arc::new(Deregister { receiver, session, time }),
                Step::Report { received, lost } => Arc::new(Report {
                    receiver,
                    node,
                    session,
                    level: 1,
                    received,
                    lost,
                    bytes: received * 240,
                    time,
                    cause: 0,
                }),
            };
            ctx.send_control(self.controller, 64, body);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &netsim::Packet) {
            if packet.control_as::<Suggestion>().is_some() {
                self.suggested_at.lock().unwrap().push(ctx.now());
            }
        }
    }

    /// Satellite (fails at the parent): a report still in the inbox when
    /// its receiver deregisters must not park loss counts that a later
    /// registration of the same id inherits.
    #[test]
    fn departed_receivers_last_report_does_not_resurrect_its_state() {
        let (mut sim, catalog, def, src, _mid, rcv) = chain();
        let (ctrl, shared) = Controller::new(catalog, Config::default(), SimDuration::ZERO, 1);
        sim.add_app(src, Box::new(ctrl));
        let mut steps = vec![
            (SimTime::from_millis(100), Step::Register),
            (SimTime::from_millis(500), Step::Report { received: 70, lost: 30 }),
            (SimTime::from_millis(1000), Step::Deregister),
            (SimTime::from_millis(11_000), Step::Register),
        ];
        steps.extend(reports(11, 30, 100, 0));
        sim.add_app(
            rcv,
            Box::new(Scripted {
                controller: src,
                group: def.groups[0],
                steps,
                suggested_at: Arc::default(),
            }),
        );
        sim.run_until(SimTime::from_secs(10));
        assert_eq!(shared.lock().unwrap().registered, 0, "the departure emptied the table");
        // At the parent the first interval back folds the departed 70 / 30
        // into the fresh 100 / 0: 15 % loss, a congested tree.
        let back = congested_steps(&mut sim, &shared, 10);
        assert!(back.iter().all(|&n| n == 0), "{back:?}");
        assert_eq!(shared.lock().unwrap().registered, 1, "the receiver came back");
    }

    /// Satellite (fails at the parent): an eviction on a suspended interval
    /// must show in the population gauges at once, not at the next
    /// interval that completes.
    #[test]
    fn eviction_during_a_suspended_interval_refreshes_the_gauges() {
        let (mut sim, catalog, _def, src, _mid, rcv) = chain();
        let cfg = Config::default();
        let (ctrl, shared) = Controller::new(catalog, cfg, SimDuration::ZERO, 1);
        let outage_end = SimTime::from_secs(5) + cfg.evict_after() + cfg.interval * 4;
        let ctrl = ctrl.with_discovery_outage(SimTime::from_secs(5), outage_end);
        sim.add_app(src, Box::new(ctrl));
        sim.add_app(rcv, Box::new(MuteReceiver { controller: src }));
        sim.run_until(SimTime::from_secs(5));
        {
            let c = shared.lock().unwrap();
            assert_eq!((c.intervals, c.registered, c.evicted), (2, 1, 0));
        }
        // The sweep fires on the first tick past `evict_after`, deep inside
        // the suspended stretch of the outage.
        sim.run_until(SimTime::ZERO + cfg.evict_after() + cfg.interval * 2);
        let c = shared.lock().unwrap();
        assert!(c.suspended_intervals > 0 && sim.now() < outage_end);
        assert_eq!(c.evicted, 1);
        assert_eq!(c.registered, 0, "the gauge still counts the evicted receiver");
        assert_eq!(c.quarantined, 0);
    }

    /// What the controller sent its peer node: every replicated batch and
    /// the send time of every heartbeat. Scripted, it sends back
    /// checkpoint transfers, or acks every batch — from seq `diverge_at` on
    /// with a flipped fingerprint, then an honest ack and a resync request
    /// that a quarantined replica must not be heard on.
    #[derive(Default)]
    struct ScriptedPeer {
        controller: Option<NodeId>,
        transfers: Vec<(SimTime, u64, String)>,
        diverge_at: Option<u64>,
        batches: Arc<Mutex<Vec<ReplicateInputs>>>,
        heartbeats: Arc<Mutex<Vec<SimTime>>>,
    }
    impl App for ScriptedPeer {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, (at, _, _)) in self.transfers.iter().enumerate() {
                ctx.set_timer(at.since(ctx.now()), i as u64);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let (_, next_seq, blob) = self.transfers[token as usize].clone();
            let body: ControlBody =
                Arc::new(CheckpointTransfer { next_seq, blob, from: ctx.node_id() });
            ctx.send_control(self.controller.expect("scripted with a target"), 512, body);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &netsim::Packet) {
            if let Some(h) = packet.control_as::<Heartbeat>() {
                self.heartbeats.lock().unwrap().push(h.time);
            }
            let Some(m) = packet.control_as::<ReplicateInputs>() else { return };
            self.batches.lock().unwrap().push(m.clone());
            let fp = m.fingerprint;
            let acks = match self.diverge_at {
                Some(at) if m.seq >= at => vec![Some(fp ^ 1), Some(fp), None],
                Some(_) => vec![Some(fp)],
                None => vec![],
            };
            for fingerprint in acks {
                let ack = ReplicaAck { seq: m.seq, fingerprint, from: ctx.node_id() };
                ctx.send_control(m.from, ReplicaAck::WIRE_SIZE, Arc::new(ack));
            }
        }
    }

    /// A replica whose ack disagrees with the primary's own fingerprint is
    /// quarantined the moment the ack lands — the primary stops
    /// replicating to it but keeps beaconing it, and nothing the replica
    /// says afterwards moves a counter.
    #[test]
    fn divergent_ack_quarantines_the_replica() {
        let (mut sim, catalog, _def, src, mid, _rcv) = chain();
        let (ctrl, shared) = Controller::new(catalog, Config::default(), SimDuration::ZERO, 1);
        sim.add_app(src, Box::new(ctrl.with_peer(mid)));
        let (batches, heartbeats) = (Arc::default(), Arc::default());
        let (b, h) = (Arc::clone(&batches), Arc::clone(&heartbeats));
        let peer =
            ScriptedPeer { diverge_at: Some(3), batches: b, heartbeats: h, ..Default::default() };
        sim.add_app(mid, Box::new(peer));
        sim.run_until(SimTime::from_secs(21));

        let c = shared.lock().unwrap();
        assert_eq!((c.replica_acks, c.replica_divergences, c.replica_resyncs), (3, 1, 0));
        assert!(c.replica_quarantined);
        let occurrences = c.flight.items().into_iter();
        let quarantines: Vec<(u64, String)> =
            occurrences.filter(|o| o.kind == "quarantine").map(|o| (o.seq, o.detail)).collect();
        assert_eq!(quarantines, [(3, "node 1".to_string())]);
        let counters = c.counter_entries();
        assert!(counters.contains(&("replica_divergences", 1)), "{counters:?}");
        assert!(counters.contains(&("replica_quarantined", 1)), "{counters:?}");

        // The divergent ack answered seq 3, sent at 8 s: nothing is
        // replicated after it, and a beacon still goes out every tick.
        let batches = batches.lock().unwrap();
        assert_eq!(batches.iter().map(|m| m.seq).collect::<Vec<_>>(), [0, 1, 2, 3]);
        let beacons = heartbeats.lock().unwrap();
        assert_eq!(beacons.iter().filter(|&&t| t > batches[3].now).count(), 6, "10 s to 20 s");
    }

    /// Satellite: a checkpoint transfer is bytes off the wire. One whose
    /// blob decodes but whose `next_seq` disagrees with it is dropped and
    /// counted like a corrupt one (the parent panics here under `cargo
    /// test`), and so is one nested deeper than any parser stack (which
    /// used to abort the process); neither spoils the honest transfer
    /// that follows.
    #[test]
    fn checkpoint_transfer_with_a_wrong_next_seq_is_dropped() {
        let (mut sim, catalog, _def, src, mid, _rcv) = chain();
        let cfg = Config::default();
        let (standby, shared) = Controller::new(catalog, cfg, SimDuration::ZERO, 1);
        let standby = standby.with_peer(mid).as_standby();
        sim.add_app(src, Box::new(standby));
        let snap = AlgorithmState::new(cfg, 9).checkpoint();
        let transfers = vec![
            (SimTime::from_secs(1), snap.runs + 7, snap.encode()),
            (SimTime::from_millis(1_500), snap.runs, "[".repeat(1_000_000)),
            (SimTime::from_secs(3), snap.runs, snap.encode()),
        ];
        sim.add_app(
            mid,
            Box::new(ScriptedPeer { controller: Some(src), transfers, ..Default::default() }),
        );
        let resyncs = || {
            let c = shared.lock().unwrap();
            (c.replica_resyncs, c.replica_resync_failures)
        };
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(resyncs(), (0, 2), "a bad transfer was applied, or not counted");
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(resyncs(), (1, 2), "the honest transfer was refused");
    }

    /// Satellite: the whole silence life-cycle through the table — three
    /// receivers registering in *descending* id order, one talking, one
    /// mute from 4 s to 14 s, one mute from the start — watched interval by
    /// interval on the gauges and on what the peer node is sent.
    #[test]
    fn silence_life_cycle_quarantines_readmits_and_evicts() {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let src = b.add_node("src");
        let mid = b.add_node("mid");
        let peer = b.add_node("peer");
        b.add_link(src, mid, LinkConfig::kbps(100_000.0));
        b.add_link(mid, peer, LinkConfig::kbps(100_000.0));
        let leaves: Vec<NodeId> = (0..3)
            .map(|i| {
                let n = b.add_node(format!("r{i}"));
                b.add_link(mid, n, LinkConfig::kbps(100_000.0));
                n
            })
            .collect();
        let mut sim = b.build();
        let groups: Vec<GroupId> = (0..6).map(|_| sim.create_group(src)).collect();
        let mut catalog = SessionCatalog::new();
        catalog.add(SessionDef {
            id: netsim::SessionId(0),
            source: src,
            groups: groups.clone(),
            spec: LayerSpec::paper_default(),
        });
        let cfg = Config::default();
        let (ctrl, shared) = Controller::new(catalog.share(), cfg, SimDuration::ZERO, 1);
        sim.add_app(src, Box::new(ctrl.with_peer(peer)));
        let batches = Arc::new(Mutex::new(Vec::new()));
        sim.add_app(
            peer,
            Box::new(ScriptedPeer { batches: Arc::clone(&batches), ..Default::default() }),
        );

        // Ids ascend talker < returner < mute; registrations arrive mute
        // first.
        let scripts = [
            [vec![(SimTime::from_millis(300), Step::Register)], reports(0, 40, 100, 0)].concat(),
            [
                vec![(SimTime::from_millis(200), Step::Register)],
                reports(0, 4, 100, 0),
                reports(14, 40, 100, 0),
            ]
            .concat(),
            vec![(SimTime::from_millis(100), Step::Register)],
        ];
        let mut ids = Vec::new();
        let mut suggested_at = Vec::new();
        for (steps, &leaf) in scripts.into_iter().zip(&leaves) {
            let seen = Arc::new(Mutex::new(Vec::new()));
            suggested_at.push(Arc::clone(&seen));
            let app = Scripted { controller: src, group: groups[0], steps, suggested_at: seen };
            ids.push(sim.add_app(leaf, Box::new(app)));
        }
        let (returner, mute) = (ids[1], ids[2]);

        // `(quarantined, evicted, registered)` as each tick left them.
        let mut gauges = Vec::new();
        for tick in 1..=14u64 {
            sim.run_until(SimTime::from_secs(tick * 2 + 1));
            let c = shared.lock().unwrap();
            gauges.push((c.quarantined, c.evicted, c.registered));
        }
        // quarantine_after = 6 s: the mute one (last heard 0.1 s) is
        // withheld from the 8 s tick, the returner (3.5 s) from the 10 s
        // tick; its 14.5 s report re-admits it for the 16 s tick;
        // evict_after = 24 s removes the mute one on the 26 s tick.
        let expected: Vec<(usize, u64, usize)> = (1..=14)
            .map(|tick| match tick * 2 {
                0..=6 => (0, 0, 3),
                8 => (1, 0, 3),
                10..=14 => (2, 0, 3),
                16..=24 => (1, 0, 3),
                _ => (0, 1, 2),
            })
            .collect();
        assert_eq!(gauges, expected);

        // No suggestion while quarantined; one in the first interval back.
        let to_returner = suggested_at[1].lock().unwrap().clone();
        let within = |from: u64, until: u64| {
            to_returner
                .iter()
                .filter(|&&t| t >= SimTime::from_secs(from) && t < SimTime::from_secs(until))
                .count()
        };
        assert_eq!((within(10, 16), within(16, 18)), (0, 1), "{to_returner:?}");

        let batches = batches.lock().unwrap();
        assert_eq!(batches.len(), 14, "one batch per interval");
        for m in batches.iter() {
            let listed: Vec<AppId> = m.registry.iter().map(|&(a, _, _)| a).collect();
            assert!(listed.windows(2).all(|w| w[0] < w[1]), "registry order at {:?}", m.now);
            assert!(m.reports.iter().all(|r| listed.contains(&r.receiver)), "orphan report");
            let secs = m.now.since(SimTime::ZERO).as_secs_f64() as u64;
            assert_eq!(listed.contains(&mute), secs < 8, "mute receiver at {secs} s");
            assert_eq!(
                listed.contains(&returner),
                !(10..=14).contains(&secs),
                "returner, {secs} s"
            );
        }
    }
}
