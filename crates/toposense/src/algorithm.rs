//! The algorithm driver: wires the five stages together and owns every
//! piece of state that persists across intervals (congestion histories,
//! byte/supply windows, capacity estimates, backoff timers).
//!
//! [`AlgorithmState::run`] is a pure-ish function of its inputs: given the
//! same sequence of `(trees, reports)` and the same seed it produces the
//! same suggestions, which is what makes whole simulations reproducible.
#![deny(clippy::too_many_lines)]

use crate::config::Config;
use crate::history::{BwEquality, CongestionHistory, BW_EQUAL_TOLERANCE};
use crate::stages::bottleneck;
use crate::stages::capacity::{CapacityEstimator, CapacityEvent, SessionLinkObs};
use crate::stages::congestion::{self, LeafObs, NodeState};
use crate::stages::sharing::{self, Crossings, SharingScratch};
use crate::stages::subscription::{self, BackoffTable, NodeInputs};
use netsim::{AppId, DirLinkId, NodeId, RngStream, SessionId, SimDuration, SimTime};
use std::collections::HashMap;
use telemetry::{
    BottleneckNode, CapacityLink, CongestionNode, IntervalAudit, SessionNodes, SharingEntry, Span,
    SubscriptionNode,
};
use topology::{DirtySet, SessionTree};
use traffic::LayerSpec;

/// One receiver's aggregated report for the interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReceiverReport {
    pub receiver: AppId,
    pub node: NodeId,
    pub session: SessionId,
    /// Subscription level during the window.
    pub level: u8,
    pub received: u64,
    pub lost: u64,
    pub bytes: u64,
}

impl ReceiverReport {
    pub fn loss_rate(&self) -> f64 {
        netsim::stats::loss_rate(self.received, self.lost)
    }
}

/// Everything one interval of the algorithm consumes.
pub struct AlgorithmInputs<'a> {
    pub now: SimTime,
    /// Time since the previous run.
    pub interval: SimDuration,
    /// `trees[i]` describes session `i` (aligned with `specs`).
    pub trees: &'a [SessionTree],
    pub specs: &'a [&'a LayerSpec],
    /// All receivers known to the controller (reporters or not).
    pub registry: &'a [(AppId, NodeId, SessionId)],
    /// The interval's reports.
    pub reports: &'a [ReceiverReport],
}

/// A prescribed subscription level for one receiver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SuggestionOut {
    pub receiver: AppId,
    pub session: SessionId,
    pub level: u8,
}

/// One interval's outputs plus diagnostics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlgorithmOutputs {
    pub suggestions: Vec<SuggestionOut>,
    /// Links with a finite capacity estimate after this run.
    pub estimated_links: Vec<(DirLinkId, f64)>,
    /// Nodes labelled congested this run (across sessions).
    pub congested_nodes: usize,
    /// Per-session supply at the root (levels) — the session-wide ceiling.
    pub root_supply: Vec<u8>,
    /// Whether this interval was served warm from the change cache
    /// (dirty subtrees only); `false` on a cold start.
    pub incremental: bool,
    /// Tree slots the stage kernels actually recomputed this interval
    /// (stage-1 congestion states + stage-5 decisions). A cold run counts
    /// every slot twice; a warm run only the dirty ones.
    pub slots_recomputed: u64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct NodeMemory {
    hist: CongestionHistory,
    bytes_older: u64,
    bytes_recent: u64,
    supply_older: u8,
    supply_recent: u8,
    demand_prev: Option<u8>,
}

impl Default for NodeMemory {
    fn default() -> Self {
        NodeMemory {
            hist: CongestionHistory::new(),
            bytes_older: 0,
            bytes_recent: 0,
            supply_older: 1,
            supply_recent: 1,
            demand_prev: None,
        }
    }
}

/// Per-session scratch buffers, slot-indexed against the session's tree.
///
/// One of these lives in [`AlgorithmState`] per concurrent session and is
/// reused every interval: each vector is cleared and refilled (allocation
/// kept), so the steady-state hot path allocates nothing.
#[derive(Debug, Default)]
struct SessionScratch {
    /// Stage 1's observations and congestion states.
    stage1: congestion::Buffers,
    /// This interval's working copy of each node's persistent memory.
    mem: Vec<NodeMemory>,
    /// Stage-3 outputs per tree slot.
    bottleneck: Vec<f64>,
    max_handle: Vec<f64>,
    /// Stage 5's inputs, decisions and blocked-level view.
    stage5: subscription::Buffers,
    /// Table I branch label of each slot's last decision.
    branches: Vec<&'static str>,
    /// How many slots of stage 1's states are congested, kept up to date
    /// as flags flip.
    congested: usize,
    /// The session's slot change sets of the interval in flight (see
    /// [`Changes`]). Entry: the slots whose reports moved, repeats allowed.
    obs_dirty: Vec<u32>,
    /// Stage 1: the slots whose propagated state (congested, parent flag,
    /// loss or subtree bytes) moved.
    state_dirty: Vec<u32>,
    /// Stage 1: the slots of `state_dirty` whose congested flag flipped.
    flipped: Vec<u32>,
    /// Stage 5: one bit per slot, set where [`aborted_probe`] holds on
    /// the slot's observation, state and memory as stage 5 last read them.
    armable: Vec<u64>,
}

impl SessionScratch {
    /// A receiver sitting below the level we last supplied while its loss
    /// is high just aborted a failed probe (possibly unilaterally, if our
    /// drop suggestion died at the congested link). Arm the backoff for
    /// the abandoned level here, because the decision table never will: by
    /// the time it runs, the receiver's current level already equals the
    /// reduced target.
    ///
    /// [`aborted_probe`] reads a slot's observation, state and memory,
    /// which move only at `obs_dirty`, `state_dirty` and the carried
    /// `mem5_dirty` (stage 1's fold never writes `supply_recent`). So
    /// `armable` is refreshed at those slots, or at every slot of a tree
    /// new to the cache, and the timers are armed from its set bits a word
    /// at a time in ascending slot order: the RNG draw order of a scan
    /// over every slot.
    fn arm_aborted_probes(
        &mut self,
        cx: subscription::Ctx<'_>,
        mem5_dirty: &[u32],
        new_tree: bool,
        table: &mut BackoffTable,
        rng: &mut RngStream,
    ) {
        let t = cx.tree.tree();
        let (obs, states, mem) = (&self.stage1.obs, &self.stage1.states, &self.mem);
        let probe = |s: usize| aborted_probe(obs[s], states[s], mem[s].supply_recent, cx.cfg);
        let bits = &mut self.armable;
        if new_tree {
            bits.clear();
            bits.resize(t.len().div_ceil(64), 0);
            t.slots().filter(|&s| probe(s)).for_each(|s| bits[s / 64] |= 1u64 << (s % 64));
        } else {
            for &s in self.obs_dirty.iter().chain(&self.state_dirty).chain(mem5_dirty) {
                let (w, bit) = (s as usize / 64, 1u64 << (s % 64));
                bits[w] = if probe(s as usize) { bits[w] | bit } else { bits[w] & !bit };
            }
        }
        for (w, &word) in bits.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                let s = w * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                table.arm(t.node_at(s), mem[s].supply_recent, cx.now, cx.cfg, rng);
            }
        }
    }
}

/// Whether a slot's receivers just aborted a failed probe: an observed
/// level below `supply_recent`, the supply last persisted, under a loss
/// above `high_loss`.
fn aborted_probe(obs: Option<LeafObs>, st: NodeState, supply_recent: u8, cfg: &Config) -> bool {
    obs.is_some_and(|o| st.loss > cfg.high_loss && o.level < supply_recent)
}

/// Per-session inputs frozen by [`IncCache`] at the last cold start. As
/// long as the live inputs still match (same routing, same spec, same
/// report keys), the previous interval's scratch buffers are a valid
/// starting point for change-driven recomputation.
#[derive(Debug)]
struct SessionCache {
    session: SessionId,
    spec: LayerSpec,
    /// CSR attribution: `rep_idx[rep_start[slot]..rep_start[slot + 1]]`
    /// are the global report indices folding into `slot`, in report order
    /// (so a re-fold replays the cold fold exactly).
    rep_start: Vec<u32>,
    rep_idx: Vec<u32>,
    /// Suggestion routing resolved once per topology: `(receiver, slot)`
    /// per registered receiver of this session present in the tree, in
    /// registry order.
    sugg_route: Vec<(AppId, u32)>,
}

impl SessionCache {
    /// Slot `s`'s observation, folded from its reports in global report
    /// order (loss = min, bytes/level = max). A report is outside input: a
    /// level above the session's top means "everything", not a number to
    /// do arithmetic on.
    fn fold(&self, s: usize, reports: &[ReceiverReport], max_level: u8) -> Option<LeafObs> {
        let rows = &self.rep_idx[self.rep_start[s] as usize..self.rep_start[s + 1] as usize];
        rows.iter().map(|&ri| &reports[ri as usize]).fold(None, |acc, r| {
            let e = acc.unwrap_or(LeafObs { loss: f64::INFINITY, bytes: 0, level: 0 });
            Some(LeafObs {
                loss: e.loss.min(r.loss_rate()),
                bytes: e.bytes.max(r.bytes),
                level: e.level.max(r.level.min(max_level)),
            })
        })
    }
}

/// What one interval hands the next besides the per-slot values
/// themselves: the bases the next input diff runs against, and the seeds
/// — the slots not yet at a fixed point.
///
/// The invariant every warm step relies on (and [`AlgorithmState::audit`]
/// checks): re-running a stage at a slot on the cached results of the
/// stages before it reproduces the slot's cached values everywhere except
/// at the seeds. Stage 1's memory fold, `mem' = f(mem, state)`, moves
/// memory only at `mem_dirty`; stage 5's cached inputs and level caps
/// equal a rebuild from the current stage 1–4 results, `border_caps` and
/// the layers of `tree` except at `mem5_dirty` (persistence wrote their
/// memory after the rebuild); and a cached Table I decision is what its
/// cached inputs decide, without an RNG draw, except at `backoff_slots`
/// (a slot holding a timer may arm again and draw). A cold start seeds
/// every slot of `mem5_dirty`: no persisted window is known to be at a
/// fixed point.
#[derive(Debug, Default)]
struct Carry {
    /// The reports stage 1's observations were folded from.
    reports: Vec<ReceiverReport>,
    /// The border caps stage 5's root level caps were built from.
    border_caps: Vec<(SessionId, u8)>,
    sessions: Vec<SessionCarry>,
}

#[derive(Debug)]
struct SessionCarry {
    /// The tree whose per-edge layers stage 5's inputs were built from.
    tree: SessionTree,
    /// Slots whose memory stage 1's fold changed.
    mem_dirty: Vec<u32>,
    /// Slots whose memory stage 5's persistence changed.
    mem5_dirty: Vec<u32>,
    /// Slots holding at least one backoff timer, ascending.
    backoff_slots: Vec<u32>,
}

/// Everything an interval needs to prove, cheaply, that only the changed
/// inputs can have changed the outputs. Primed by every cold start;
/// consulted and refreshed by every run; dropped on any mismatch (the run
/// that finds it so starts cold and reprimes it).
#[derive(Debug, Default)]
struct IncCache {
    valid: bool,
    interval: SimDuration,
    registry: Vec<(AppId, NodeId, SessionId)>,
    /// Per report: `(session index, slot)` it folds into, or
    /// `(u32::MAX, u32::MAX)` when unattributable (node outside the tree).
    report_target: Vec<(u32, u32)>,
    /// Which sessions cross each link, and at which slot: stage 2's
    /// observation runs, the sessions stages 3 and 4 recompute, and the
    /// crossed links `emit` reports estimates for.
    crossings: Crossings,
    sessions: Vec<SessionCache>,
    carry: Carry,
}

/// One interval's change sets as the stage steps hand them on (the
/// per-session slot sets live in [`SessionScratch`] and [`Carry`]); each
/// step reads the sets of the steps before it and writes its own. A cold
/// start enters with `Changes::all()` — every slot's reports moved, every
/// tree is new — and then runs the same steps.
#[derive(Debug, Default)]
struct Changes {
    /// Entry: sessions whose tree is new to the cache, ascending. Stages
    /// 3 and 4 recompute them whole.
    trees: Vec<u32>,
    /// Stage 2: links whose estimate moved, sorted.
    caps: Vec<DirLinkId>,
    /// Stage 3: the new trees and the sessions crossing a link in `caps`,
    /// ascending. Stages 3 and 4 recompute them.
    stale: Vec<u32>,
    /// Stage 4: sessions whose allowances were refreshed, ascending.
    refreshed: Vec<u32>,
    /// Stage 2's estimator events (a cold start's reset pass first), in
    /// the order they happened; only an audit reads them.
    cap_events: Vec<CapacityEvent>,
    /// Work buffers: stage 2's candidate links and observation run, and
    /// two slot-marking sets.
    links: Vec<DirLinkId>,
    run: Vec<SessionLinkObs>,
    dirty: DirtySet,
    aux: DirtySet,
}

/// The controller's persistent algorithm state.
pub struct AlgorithmState {
    cfg: Config,
    rng: RngStream,
    estimator: CapacityEstimator,
    memories: HashMap<(SessionId, NodeId), NodeMemory>,
    backoffs: HashMap<SessionId, BackoffTable>,
    runs: u64,
    scratch: Vec<SessionScratch>,
    sharing_scratch: SharingScratch,
    cache: IncCache,
    changes: Changes,
    /// Per-session root-level ceilings imposed from outside the domain
    /// (federation border aggregation, DESIGN.md §16). Sorted by session,
    /// deduplicated; `u8::MAX` / absence means uncapped. These are
    /// per-interval *external inputs*, not persistent state: checkpoints
    /// do not capture them — the aggregator re-sends them every interval,
    /// so a restored or promoted controller is reprimed before its next
    /// run (the determinism argument is in DESIGN.md §16).
    border_caps: Vec<(SessionId, u8)>,
    /// The last run's wall spans, nanoseconds, in [`SPANS`] order. Only
    /// an audit reads them.
    stage_ns: [u64; 6],
}

/// The wall spans every run takes: the five stage steps, then the whole
/// interval before its outputs are emitted.
const SPANS: [&str; 6] = [
    "stage1_congestion",
    "stage2_capacity",
    "stage3_bottleneck",
    "stage4_sharing",
    "stage5_subscription",
    "interval",
];

impl AlgorithmState {
    pub fn new(cfg: Config, seed: u64) -> Self {
        cfg.validate();
        AlgorithmState {
            cfg,
            rng: RngStream::derive(seed, "toposense/algorithm"),
            estimator: CapacityEstimator::new(),
            memories: HashMap::new(),
            backoffs: HashMap::new(),
            runs: 0,
            scratch: Vec::new(),
            sharing_scratch: SharingScratch::default(),
            cache: IncCache::default(),
            changes: Changes::default(),
            border_caps: Vec::new(),
            stage_ns: [0; 6],
        }
    }

    /// Install the per-session border caps for the *next* run. `caps` is
    /// normalized (sorted by session, last write wins, `u8::MAX` rows
    /// dropped) so two callers handing over the same set in any order
    /// leave byte-identical state. Does not invalidate the change cache:
    /// a cap change is tracked as a root-slot input change.
    pub fn set_border_caps(&mut self, caps: &[(SessionId, u8)]) {
        self.border_caps.clear();
        self.border_caps.extend_from_slice(caps);
        self.border_caps.sort_by_key(|&(sid, _)| sid.0);
        // Last write per session wins; drop uncapped rows.
        let mut out: Vec<(SessionId, u8)> = Vec::with_capacity(self.border_caps.len());
        for &(sid, cap) in &self.border_caps {
            match out.last_mut() {
                Some(last) if last.0 == sid => last.1 = cap,
                _ => out.push((sid, cap)),
            }
        }
        out.retain(|&(_, cap)| cap != u8::MAX);
        self.border_caps = out;
    }

    /// The border caps currently in force (sorted by session).
    pub fn border_caps(&self) -> &[(SessionId, u8)] {
        &self.border_caps
    }

    /// The effective root-level ceiling for `sid` (`u8::MAX` = uncapped).
    fn border_cap_of(caps: &[(SessionId, u8)], sid: SessionId) -> u8 {
        caps.binary_search_by_key(&sid.0, |&(s, _)| s.0).map(|i| caps[i].1).unwrap_or(u8::MAX)
    }

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Number of completed runs.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Current capacity estimate for a link.
    #[cfg(test)]
    fn capacity_estimate(&self, link: DirLinkId) -> Option<f64> {
        self.estimator.capacity(link)
    }

    /// Run one interval of the five-stage algorithm from scratch: every
    /// slot, crossed link and session is recomputed. The exhaustive side
    /// of the twin tests — [`Self::run_incremental`] must equal it byte
    /// for byte.
    pub fn run(&mut self, inputs: &AlgorithmInputs<'_>) -> AlgorithmOutputs {
        self.invalidate();
        self.run_incremental(inputs)
    }

    /// Run one interval, recomputing only the tree slots whose inputs
    /// changed since the previous interval. When the change cache cannot
    /// vouch for the inputs (see `Self::can_run_incremental`) the cache
    /// is primed from them and the same body runs over full work sets.
    ///
    /// The one interval body, watched or not: it always keeps what an
    /// audit reads — each decided slot's Table I branch, stage 2's
    /// estimator events and the wall span of each stage step and of the
    /// whole interval — and nothing reads those back into a decision or a
    /// checkpoint.
    pub fn run_incremental(&mut self, inputs: &AlgorithmInputs<'_>) -> AlgorithmOutputs {
        assert_eq!(inputs.trees.len(), inputs.specs.len());
        let whole = Span::new();
        let cold = !self.can_run_incremental(inputs) || !self.diff_reports(inputs);
        self.changes.cap_events.clear();
        if cold {
            self.prime_cache(inputs);
        }
        let mut out = AlgorithmOutputs { incremental: !cold, ..AlgorithmOutputs::default() };
        let mut ns = [0; 6];
        out.slots_recomputed = timed(&mut ns[0], || self.congestion_step(inputs));
        timed(&mut ns[1], || self.capacity_step(inputs));
        timed(&mut ns[2], || self.bottleneck_step(inputs));
        timed(&mut ns[3], || self.sharing_step(inputs));
        out.slots_recomputed += timed(&mut ns[4], || self.subscription_step(inputs));
        ns[5] = whole.elapsed_ns();
        self.stage_ns = ns;

        self.emit(inputs, &mut out);
        self.refresh_carry(inputs, cold);
        self.runs += 1;
        out
    }

    /// [`Self::run_incremental`], then, when `audit` is `Some`, one read
    /// of what the interval left behind into it: every stage's record and
    /// the wall spans. No stage overwrites an earlier stage's buffers, so
    /// the read sees each stage's output. It takes `&self`, so watching a
    /// run cannot change a decision, an RNG draw or whether it ran warm.
    pub fn run_incremental_audited(
        &mut self,
        inputs: &AlgorithmInputs<'_>,
        audit: Option<&mut IntervalAudit>,
    ) -> AlgorithmOutputs {
        let out = self.run_incremental(inputs);
        if let Some(a) = audit {
            self.read_audit(inputs, a);
        }
        out
    }

    /// Drop the change cache (flushing the dense node memories back into
    /// the persistent map first). Call on any external state transition —
    /// controller failover, restart — after which last interval's cached
    /// invariants no longer hold; the next run then starts cold.
    pub fn invalidate(&mut self) {
        self.sync_memories();
    }

    /// Capture a [`Snapshot`](crate::checkpoint::Snapshot) of the
    /// persistent state *without perturbing it*: the change cache (if
    /// live) stays valid, so a primary can serve resync checkpoints
    /// mid-stream without forcing its own next interval into a cold
    /// start. Dense per-slot memories are merged over the
    /// persistent map read-only — the same flush [`Self::invalidate`]
    /// performs, minus the invalidation.
    pub fn checkpoint(&self) -> crate::checkpoint::Snapshot {
        use crate::checkpoint::{BackoffEntry, EstimateEntry, MemoryEntry, Snapshot};
        let mut mem = self.memories.clone();
        flush_memories(&self.cache, &self.scratch, &mut mem);
        let mut memories: Vec<MemoryEntry> = mem
            .iter()
            .map(|(&(sid, node), m)| MemoryEntry {
                session: sid.0,
                node: node.0,
                hist: m.hist.bits(),
                bytes_older: m.bytes_older,
                bytes_recent: m.bytes_recent,
                supply_older: m.supply_older,
                supply_recent: m.supply_recent,
                demand_prev: m.demand_prev,
            })
            .collect();
        memories.sort_by_key(|e| (e.session, e.node));
        let estimates = self
            .estimator
            .snapshot()
            .into_iter()
            .map(|(link, bits, set_at)| EstimateEntry {
                link: link.0,
                capacity_bits: bits,
                set_at_ns: set_at.0,
            })
            .collect();
        let mut backoffs: Vec<BackoffEntry> = Vec::new();
        for (&sid, table) in &self.backoffs {
            for (node, level, until, fails) in table.snapshot() {
                backoffs.push(BackoffEntry {
                    session: sid.0,
                    node: node.0,
                    level,
                    until_ns: until.map(|t| t.0),
                    failures: fails,
                });
            }
        }
        backoffs.sort_by_key(|b| (b.session, b.node, b.level));
        Snapshot {
            config_fingerprint: self.cfg.fingerprint(),
            runs: self.runs,
            rng: self.rng.state(),
            estimates,
            memories,
            backoffs,
        }
    }

    /// Rebuild a state from a [`Snapshot`](crate::checkpoint::Snapshot).
    /// `cfg` must be the parameter set the snapshot was taken under
    /// (checked via [`Config::fingerprint`] — the pipeline is only
    /// byte-deterministic for a fixed config). The restored state's first
    /// run starts cold, which is byte-identical — RNG draw sequence
    /// included — to what the uninterrupted original would have produced
    /// (DESIGN.md §11).
    pub fn restore(cfg: Config, snap: &crate::checkpoint::Snapshot) -> Result<Self, String> {
        if cfg.fingerprint() != snap.config_fingerprint {
            return Err(format!(
                "checkpoint was taken under a different Config (fingerprint {:#018x}, ours {:#018x})",
                snap.config_fingerprint,
                cfg.fingerprint()
            ));
        }
        // A hand-built snapshot never met the decoder's range checks.
        if let Some(m) = snap.memories.iter().find(|m| m.hist >= 8) {
            return Err(format!("memory ({}, {}) has a >3-bit history", m.session, m.node));
        }
        let mut st = Self::new(cfg, 0);
        st.rng = RngStream::from_state(snap.rng);
        st.runs = snap.runs;
        let est: Vec<(DirLinkId, u64, SimTime)> = snap
            .estimates
            .iter()
            .map(|e| (DirLinkId(e.link), e.capacity_bits, SimTime(e.set_at_ns)))
            .collect();
        st.estimator = CapacityEstimator::restore(&est);
        st.memories = snap
            .memories
            .iter()
            .map(|m| {
                (
                    (SessionId(m.session), NodeId(m.node)),
                    NodeMemory {
                        hist: CongestionHistory::from_bits(m.hist),
                        bytes_older: m.bytes_older,
                        bytes_recent: m.bytes_recent,
                        supply_older: m.supply_older,
                        supply_recent: m.supply_recent,
                        demand_prev: m.demand_prev,
                    },
                )
            })
            .collect();
        type BackoffRows = Vec<(NodeId, u8, Option<SimTime>, u32)>;
        let mut per: HashMap<SessionId, BackoffRows> = HashMap::new();
        for b in &snap.backoffs {
            per.entry(SessionId(b.session)).or_default().push((
                NodeId(b.node),
                b.level,
                b.until_ns.map(SimTime),
                b.failures,
            ));
        }
        st.backoffs =
            per.into_iter().map(|(sid, rows)| (sid, BackoffTable::restore(&rows))).collect();
        Ok(st)
    }

    /// Flush the dense per-slot node memories back into the `memories`
    /// map and invalidate the cache. Runs update only the dense copies,
    /// so this must happen before anything reads the map.
    fn sync_memories(&mut self) {
        flush_memories(&self.cache, &self.scratch, &mut self.memories);
        self.cache.valid = false;
    }

    /// Can this interval be served from the change cache? Every check
    /// guards a specific invariant the change-driven work sets assume.
    fn can_run_incremental(&self, inputs: &AlgorithmInputs<'_>) -> bool {
        let c = &self.cache;
        if !c.valid || inputs.interval != c.interval {
            return false;
        }
        // Report keys are checked row by row in `diff_reports`, the last
        // entry check.
        if inputs.trees.len() != c.sessions.len()
            || inputs.registry != c.registry.as_slice()
            || inputs.reports.len() != c.carry.reports.len()
        {
            return false;
        }
        // Routing equality only: per-edge layer attributes may differ
        // (receivers moving a subscription level under steering is the
        // steady-state common case). A layer feeds exactly one input —
        // the no-report fallback level of its own slot — so stage 5
        // re-decides the changed slots instead of the cache dying.
        let trees = inputs.trees.iter().zip(inputs.specs).zip(&c.sessions).zip(&c.carry.sessions);
        for (((tree, spec), cs), carry) in trees {
            if tree.session() != cs.session || **spec != cs.spec || !tree.routing_eq(&carry.tree) {
                return false;
            }
        }
        // A due capacity reset rewrites estimator state outside the
        // change-tracking model; a cold run applies it.
        !self.estimator.has_pending_reset(inputs.now)
    }

    /// Cold start: flush the dense memories, then rebuild every cached
    /// input and resize every per-slot buffer from `inputs`, and do the
    /// two things only a cold start does: the estimator's reset pass
    /// (logged into `Changes::cap_events`) and forgetting stage 4's
    /// shares. The interval then enters with
    /// `Changes::all()`: every slot's reports moved and every tree is new.
    fn prime_cache(&mut self, inputs: &AlgorithmInputs<'_>) {
        self.sync_memories();
        let pool = inputs.trees.len().max(self.scratch.len());
        self.scratch.resize_with(pool, SessionScratch::default);
        self.estimator.begin_interval(inputs.now, &mut self.changes.cap_events);
        sharing::prime(inputs.trees, &mut self.sharing_scratch);
        self.changes.trees.clear();
        self.changes.trees.extend(0..inputs.trees.len() as u32);
        let c = &mut self.cache;
        c.interval = inputs.interval;
        c.registry.clear();
        c.registry.extend_from_slice(inputs.registry);

        c.report_target.clear();
        for r in inputs.reports {
            // Reports from nodes outside the (possibly stale) tree cannot
            // be attributed to a subtree; they fold into nothing.
            let target =
                inputs.trees.iter().position(|t| t.session() == r.session).and_then(|k| {
                    inputs.trees[k].tree().slot_of(r.node).map(|s| (k as u32, s as u32))
                });
            c.report_target.push(target.unwrap_or((u32::MAX, u32::MAX)));
        }

        c.sessions.clear();
        c.carry.sessions.clear();
        for (k, tree) in inputs.trees.iter().enumerate() {
            let t = tree.tree();
            let sid = tree.session();
            // Each slot's report indices in global report order — the
            // order the observation fold runs in — as a CSR.
            let mut rows: Vec<(u32, u32)> = (c.report_target.iter().enumerate())
                .filter(|&(_, &(sess, _))| sess as usize == k)
                .map(|(i, &(_, slot))| (slot, i as u32))
                .collect();
            rows.sort_unstable();
            let rep_idx = rows.iter().map(|&(_, i)| i).collect();
            let rep_start = (0..=t.len() as u32)
                .map(|s| rows.partition_point(|&(slot, _)| slot < s) as u32)
                .collect();
            // Suggestions go to every registered receiver of this session
            // whose node is in the (possibly stale) tree.
            let sugg_route = inputs
                .registry
                .iter()
                .filter(|&&(_, _, rsid)| rsid == sid)
                .filter_map(|&(app, node, _)| t.slot_of(node).map(|s| (app, s as u32)))
                .collect();
            c.sessions.push(SessionCache {
                session: sid,
                spec: inputs.specs[k].clone(),
                rep_start,
                rep_idx,
                sugg_route,
            });
            c.carry.sessions.push(SessionCarry {
                tree: tree.clone(),
                mem_dirty: Vec::new(),
                mem5_dirty: (0..t.len() as u32).collect(),
                backoff_slots: Vec::new(),
            });

            let sc = &mut self.scratch[k];
            sc.obs_dirty.clear();
            sc.obs_dirty.extend(0..t.len() as u32);
            sc.stage1.reset(t.len());
            sc.congested = 0;
            sc.mem.clear();
            sc.mem.extend(
                t.slots()
                    .map(|s| self.memories.get(&(sid, t.node_at(s))).copied().unwrap_or_default()),
            );
            sc.stage5.reset(t.len());
            sc.branches.clear();
            sc.branches.resize(t.len(), "");
        }

        c.crossings.build(inputs.trees);
        c.valid = true;
    }

    /// The last entry check and a warm run's entry change set, in one pass
    /// over the index-aligned rows of `inputs.reports` and
    /// [`Carry::reports`]: an equal row is skipped; a row whose key
    /// `(receiver, node, session)` moved voids the cached attribution, and
    /// the run starts cold (`false`); any other row is written back into
    /// the carry and names the slot it folds into. No tree is new. A cold
    /// start after a partial pass is sound: priming never reads the
    /// carried reports, and a cold `refresh_carry` rewrites all of them.
    fn diff_reports(&mut self, inputs: &AlgorithmInputs<'_>) -> bool {
        let Self { scratch, cache, changes, .. } = self;
        changes.trees.clear();
        scratch.iter_mut().for_each(|sc| sc.obs_dirty.clear());
        let rows = inputs.reports.iter().zip(&mut cache.carry.reports).zip(&cache.report_target);
        for ((new, old), &(k, slot)) in rows {
            if new == old {
                continue;
            }
            if (new.receiver, new.node, new.session) != (old.receiver, old.node, old.session) {
                return false;
            }
            *old = *new;
            if k != u32::MAX {
                scratch[k as usize].obs_dirty.push(slot);
            }
        }
        true
    }

    /// Stage 1: re-fold the observations of the slots whose reports moved,
    /// then run the congestion step from them and from the carried
    /// `mem_dirty`. Its visit does the driver's per-slot work: the
    /// congested-node count, the state diff stages 2 and 5 read, and the
    /// memory fold, which is a function of (memory, state) — so a slot
    /// whose state did not move and whose memory the fold left alone last
    /// interval is at a fixed point. Returns the slots recomputed.
    fn congestion_step(&mut self, inputs: &AlgorithmInputs<'_>) -> u64 {
        let Self { cfg, scratch, cache, changes, .. } = self;
        let mut recomputed = 0;
        for (k, tree) in inputs.trees.iter().enumerate() {
            let (sc, cs) = (&mut scratch[k], &cache.sessions[k]);
            let max_level = inputs.specs[k].max_level();
            let dirty = &mut changes.dirty;
            dirty.begin(tree.tree().len());
            for &s in &sc.obs_dirty {
                if dirty.mark(s as usize) {
                    sc.stage1.obs[s as usize] = cs.fold(s as usize, inputs.reports, max_level);
                }
            }
            let SessionScratch { stage1, mem, congested, state_dirty, flipped, .. } = sc;
            state_dirty.clear();
            flipped.clear();
            let revisit = &mut cache.carry.sessions[k].mem_dirty;
            stage1.step(tree, cfg, dirty, revisit, |s, old, st| {
                if old.congested != st.congested {
                    *congested = *congested + st.congested as usize - old.congested as usize;
                    flipped.push(s as u32);
                }
                if old.congested != st.congested
                    || old.parent_congested != st.parent_congested
                    || old.loss.to_bits() != st.loss.to_bits()
                    || old.max_bytes != st.max_bytes
                {
                    state_dirty.push(s as u32);
                }
                fold_memory(&mut mem[s], st)
            });
            recomputed += dirty.len() as u64;
        }
        recomputed
    }

    /// Stage 2: links holding an estimate always re-run — creep/hold/
    /// recompute fire even on clean intervals — and links under a moved
    /// state re-run to learn. Skipping the rest is provably a no-op:
    /// learning is a pure function of the link's observations, which did
    /// not move (it declined identically last time) or, on a cold start,
    /// match the placeholder states (nothing crossed the link, which a
    /// link without an estimate ignores); and the reset pass ran in
    /// `prime_cache` or was proven empty before entry. Fills
    /// `Changes::caps`.
    fn capacity_step(&mut self, inputs: &AlgorithmInputs<'_>) {
        let Self { cfg, estimator, scratch, cache, changes, .. } = self;
        let Changes { caps, cap_events, links, run, .. } = changes;
        let crossings = &cache.crossings;
        links.clear();
        links.extend(estimator.iter().map(|(l, _)| l).filter(|&l| !crossings.of(l).is_empty()));
        for (tree, sc) in inputs.trees.iter().zip(scratch.iter()) {
            let moved = sc.state_dirty.iter().filter(|&&s| s != 0);
            links.extend(moved.map(|&s| tree.in_link_at(s as usize)));
        }
        links.sort_unstable();
        links.dedup();
        caps.clear();
        for &link in links.iter() {
            run.clear();
            run.extend(crossings.of(link).iter().map(|&(sess, slot)| {
                let st = scratch[sess as usize].stage1.states[slot as usize];
                let session = inputs.trees[sess as usize].session();
                SessionLinkObs { session, loss: st.loss, bytes: st.max_bytes }
            }));
            let before = estimator.capacity(link).map(f64::to_bits);
            estimator.update_link(inputs.now, inputs.interval, link, run, cfg, cap_events);
            if estimator.capacity(link).map(f64::to_bits) != before {
                caps.push(link);
            }
        }
    }

    /// Stage 3: the bottleneck curves are a pure function of tree +
    /// estimates, so only new trees and the sessions crossing a link whose
    /// estimate moved need a recompute. Fills `Changes::stale`.
    fn bottleneck_step(&mut self, inputs: &AlgorithmInputs<'_>) {
        let Self { estimator, scratch, cache, changes, .. } = self;
        let Changes { trees, caps, stale, .. } = changes;
        stale.clone_from(trees);
        for &link in caps.iter() {
            stale.extend(cache.crossings.of(link).iter().map(|&(k, _)| k));
        }
        stale.sort_unstable();
        stale.dedup();
        for &k in stale.iter() {
            let sc = &mut scratch[k as usize];
            let (b, m) = (&mut sc.bottleneck, &mut sc.max_handle);
            bottleneck::compute_into(&inputs.trees[k as usize], |l| estimator.capacity(l), b, m);
        }
    }

    /// Stage 4: a session-granular refresh around new trees and moved
    /// estimates, a no-op when there are neither. Fills
    /// `Changes::refreshed`.
    fn sharing_step(&mut self, inputs: &AlgorithmInputs<'_>) {
        let Self { estimator, sharing_scratch: scratch, cache, changes, .. } = self;
        let Changes { stale, refreshed, .. } = changes;
        let (trees, specs, capacity) = (inputs.trees, inputs.specs, |l| estimator.capacity(l));
        sharing::update(trees, specs, capacity, &cache.crossings, scratch, stale, refreshed);
    }

    /// Stage 5, per session and in session order (the sessions share one
    /// RNG stream). A slot's decision inputs are rebuilt only when one of
    /// its feeds moved: every slot of a session whose allowances were
    /// refreshed; otherwise a re-folded observation, a memory write (the
    /// stage-1 fold this interval or persistence last interval), a state
    /// change at the slot, a congestion flip at a sibling, a per-edge layer
    /// move, or — at the root — a border-cap change. A rebuilt slot whose
    /// inputs compare equal is not re-decided: its cached decision and
    /// armed backoffs stand, and no RNG is drawn. Fills the carried
    /// `mem5_dirty`; returns the number of decisions.
    fn subscription_step(&mut self, inputs: &AlgorithmInputs<'_>) -> u64 {
        let Self {
            cfg, rng, backoffs, scratch, sharing_scratch, cache, changes, border_caps, ..
        } = self;
        let cfg = &*cfg;
        let mut decisions = 0;
        for (k, tree) in inputs.trees.iter().enumerate() {
            let (sid, spec, t) = (tree.session(), inputs.specs[k], tree.tree());
            let (sc, carry) = (&mut scratch[k], &mut cache.carry.sessions[k]);
            let Changes { trees: new_trees, refreshed, dirty: decide, aux: cand, .. } =
                &mut *changes;
            let border_cap = Self::border_cap_of(border_caps, sid);
            cand.begin(t.len());
            decide.begin(t.len());
            sc.stage5.queue.begin(t.len());
            if refreshed.binary_search(&(k as u32)).is_ok() {
                t.slots().for_each(|s| _ = cand.mark(s));
            } else {
                if border_cap != Self::border_cap_of(&cache.carry.border_caps, sid) {
                    cand.mark(0);
                }
                let seeds = [&sc.obs_dirty, &carry.mem_dirty, &carry.mem5_dirty, &sc.state_dirty];
                seeds.into_iter().flatten().for_each(|&s| _ = cand.mark(s as usize));
                // Per-edge layer moves (routing unchanged — the entry
                // precondition) alter the no-report fallback level of
                // exactly their own slot.
                if !tree.layers_eq(&carry.tree) {
                    for s in 1..t.len() {
                        if tree.max_layer_at(s) != carry.tree.max_layer_at(s) {
                            cand.mark(s);
                        }
                    }
                }
                // Siblings read a slot's `congested` in their sibling scan.
                for p in sc.flipped.iter().filter_map(|&s| t.parent_slot_of(s as usize)) {
                    t.child_slots(p).for_each(|c| _ = cand.mark(c));
                }
            }
            let cx = subscription::Ctx { tree, spec, cfg, now: inputs.now };
            let table = backoffs.entry(sid).or_default();
            let new_tree = new_trees.binary_search(&(k as u32)).is_ok();
            sc.arm_aborted_probes(cx, &carry.mem5_dirty, new_tree, table, rng);
            let (interval, allowed) = (inputs.interval, sharing_scratch.allowed(k));
            let (stage1, mem, max_handle) = (&sc.stage1, &sc.mem[..], &sc.max_handle[..]);
            let feed =
                Feed { tree, spec, cfg, interval, allowed, border_cap, stage1, mem, max_handle };
            let b = &mut sc.stage5;
            for &s in cand.slots() {
                let s = s as usize;
                let (inp, lc) = feed.input_at(s);
                if inp != b.inputs[s] || lc != b.level_cap[s] {
                    if lc != b.level_cap[s] {
                        b.queue.mark(s);
                    }
                    (b.inputs[s], b.level_cap[s]) = (inp, lc);
                    decide.mark(s);
                }
            }

            // A slot that held a timer after the previous run re-decides
            // itself (its branch may arm again and draw); what the timer
            // does to its subtree is the blocked view's row diff. Timers
            // are armed only by decisions and a restore starts cold, so on
            // a warm run this covers every live timer too.
            carry.backoff_slots.iter().for_each(|&s| _ = decide.mark(s as usize));

            cand.begin(t.len());
            let branches = &mut sc.branches;
            let decided = |s: usize, branch| {
                decisions += 1;
                branches[s] = branch;
            };
            b.step(cx, table, rng, decide, decided, |s| _ = cand.mark(s));

            // Persist the new supply/demand windows into the dense copies
            // only; the `memories` map is synced lazily on the next cold
            // start. The windows are a function of (memory, supply,
            // demand), so only the slots whose supply or demand moved and
            // those whose memory this step changed last run can move.
            carry.mem5_dirty.iter().for_each(|&s| _ = cand.mark(s as usize));
            carry.mem5_dirty.clear();
            for &s in cand.slots() {
                let (s, m) = (s as usize, &mut sc.mem[s as usize]);
                let mut new = *m;
                new.supply_older = m.supply_recent;
                (new.supply_recent, new.demand_prev) = (b.supply[s], Some(b.demand[s]));
                if new != *m {
                    carry.mem5_dirty.push(s as u32);
                    *m = new;
                }
            }
        }
        decisions
    }

    /// Emit the outputs from the stage buffers: per session the root
    /// supply, the congested-node count and the suggestions via the cached
    /// route, in registry order; then the estimated links: the estimator's
    /// entries on crossed links, sorted by link.
    fn emit(&self, inputs: &AlgorithmInputs<'_>, out: &mut AlgorithmOutputs) {
        for k in 0..inputs.trees.len() {
            let (sc, cs) = (&self.scratch[k], &self.cache.sessions[k]);
            out.root_supply.push(sc.stage5.supply[0]);
            out.congested_nodes += sc.congested;
            out.suggestions.extend(cs.sugg_route.iter().map(|&(receiver, slot)| SuggestionOut {
                receiver,
                session: cs.session,
                level: suggested_level(sc, slot, inputs.specs[k]),
            }));
        }
        let crossings = &self.cache.crossings;
        out.estimated_links
            .extend(self.estimator.iter().filter(|&(l, _)| !crossings.of(l).is_empty()));
        out.estimated_links.sort_unstable_by_key(|&(l, _)| l);
    }

    /// Fill `a` from the buffers the last run over `inputs` left: stage
    /// 1's states, stage 2's events (sorted by link: the reset pass
    /// surfaces in `HashMap` order, and a stable sort keeps a link's reset
    /// ahead of its re-learn), stage 3's curves, stage 4's shares, stage
    /// 5's branches, demand, supply and suggestions, and the wall spans.
    fn read_audit(&self, inputs: &AlgorithmInputs<'_>, a: &mut IntervalAudit) {
        let (trees, scratch) = (inputs.trees, &self.scratch);
        a.congestion = congestion_audit(trees, scratch);
        a.capacity = capacity_audit(&self.changes.cap_events);
        a.capacity.sort_by_key(|c| c.link);
        a.bottleneck = bottleneck_audit(trees, scratch);
        a.sharing = sharing_audit(&self.sharing_scratch, &self.cache.crossings, trees);
        a.subscription.extend(trees.iter().enumerate().map(|(k, tree)| {
            let (sc, cs) = (&scratch[k], &self.cache.sessions[k]);
            let mut suggested: Vec<Option<u8>> = vec![None; tree.tree().len()];
            for &(_, slot) in &cs.sugg_route {
                suggested[slot as usize] = Some(suggested_level(sc, slot, inputs.specs[k]));
            }
            subscription_session_audit(tree, sc, &suggested)
        }));
        a.stage_ns.extend(SPANS.into_iter().zip(self.stage_ns));
    }

    /// Refresh the carry for the next interval: the reports, copied only
    /// by a cold run (a warm entry pass wrote back every row that moved),
    /// the border caps just applied, the per-edge layers stage 5 just
    /// decided from (routing is proven equal on entry, so only the layers
    /// can differ), and the slots holding a timer.
    fn refresh_carry(&mut self, inputs: &AlgorithmInputs<'_>, cold: bool) {
        let c = &mut self.cache;
        if cold {
            c.carry.reports.clear();
            c.carry.reports.extend_from_slice(inputs.reports);
        }
        c.carry.border_caps.clone_from(&self.border_caps);
        for (tree, carry) in inputs.trees.iter().zip(&mut c.carry.sessions) {
            if !tree.layers_eq(&carry.tree) {
                carry.tree = tree.clone();
            }
            let t = tree.tree();
            carry.backoff_slots.clear();
            if let Some(b) = self.backoffs.get(&tree.session()) {
                carry
                    .backoff_slots
                    .extend(b.armed_nodes().filter_map(|n| t.slot_of(n)).map(|s| s as u32));
            }
            carry.backoff_slots.sort_unstable();
            carry.backoff_slots.dedup();
        }
    }

    /// Check the state between two intervals against a recompute from the
    /// values it was derived from, and return the first violation: the
    /// `Carry` invariant (cached stage-5 inputs and level caps equal a
    /// rebuild everywhere but `mem5_dirty`, `backoff_slots` are the slots
    /// holding a timer), cached congestion states and counts equal a
    /// stage-1 recompute, the armable set equals the aborted-probe
    /// predicate at every slot as the arming read it, every live timer
    /// sits on a node of its session's tree (timers are armed only at tree
    /// slots; a routing change that prunes a timer's node would leave it
    /// behind until it expires, and the audited runs keep their node
    /// sets), the blocked view equals the [`BackoffTable::blocked`] walk,
    /// supply never grows down the tree and the root's respects its border
    /// cap, and every capacity estimate is finite and positive. A test
    /// oracle; no run calls it.
    pub fn audit(&self) -> Result<(), String> {
        if let Some((l, c)) = self.estimator.iter().find(|&(_, c)| !(c.is_finite() && c > 0.0)) {
            return Err(format!("link {}: estimate {c}", l.0));
        }
        if !self.cache.valid {
            return Ok(());
        }
        let c = &self.cache;
        for (k, (cs, carry)) in c.sessions.iter().zip(&c.carry.sessions).enumerate() {
            let (tree, sc, b) = (&carry.tree, &self.scratch[k], &self.scratch[k].stage5);
            let t = tree.tree();
            let fail =
                |what: &str, s: usize| Err(format!("session {} slot {s}: {what}", cs.session.0));
            let mut states = vec![NodeState::default(); t.len()];
            for s in t.slots_bottom_up() {
                states[s] = congestion::slot_state(tree, s, &sc.stage1.obs, &states, &self.cfg);
            }
            t.slots().for_each(|s| congestion::propagate_slot(tree, s, &mut states));
            if let Some(s) = t.slots().find(|&s| states[s] != sc.stage1.states[s]) {
                return fail("cached congestion state is not a recompute", s);
            }
            if sc.congested != states.iter().filter(|st| st.congested).count() {
                return fail("congested count is off", 0);
            }
            let border_cap = Self::border_cap_of(&c.carry.border_caps, cs.session);
            let (spec, cfg, interval) = (&cs.spec, &self.cfg, c.interval);
            let (allowed, stage1) = (self.sharing_scratch.allowed(k), &sc.stage1);
            let (mem, max_handle) = (&sc.mem[..], &sc.max_handle[..]);
            let feed =
                Feed { tree, spec, cfg, interval, allowed, border_cap, stage1, mem, max_handle };
            let mut persisted = vec![false; t.len()];
            carry.mem5_dirty.iter().for_each(|&s| persisted[s as usize] = true);
            let stale = |s: usize| feed.input_at(s) != (b.inputs[s], b.level_cap[s]);
            if let Some(s) = t.slots().find(|&s| !persisted[s] && stale(s)) {
                return fail("cached stage-5 inputs are not a rebuild", s);
            }
            // Persistence moved `supply_recent` into `supply_older` after
            // the arming read it.
            let read =
                |s: usize| if persisted[s] { mem[s].supply_older } else { mem[s].supply_recent };
            let probe = |s: usize| aborted_probe(stage1.obs[s], stage1.states[s], read(s), cfg);
            let bit = |s: usize| sc.armable.get(s / 64).is_some_and(|w| w >> (s % 64) & 1 != 0);
            if sc.armable.len() != t.len().div_ceil(64) {
                return fail("armable set is not one bit per slot", 0);
            }
            if let Some(s) = t.slots().find(|&s| bit(s) != probe(s)) {
                return fail("armable set is not a recompute", s);
            }
            let table = self.backoffs.get(&cs.session).cloned().unwrap_or_default();
            if let Some(n) = table.armed_nodes().find(|&n| t.slot_of(n).is_none()) {
                return Err(format!(
                    "session {}: timer on node {} off the tree",
                    cs.session.0, n.0
                ));
            }
            let mut armed: Vec<u32> =
                table.armed_nodes().filter_map(|n| t.slot_of(n)).map(|s| s as u32).collect();
            armed.sort_unstable();
            armed.dedup();
            if armed != carry.backoff_slots {
                return fail("backoff_slots are not the slots holding a timer", 0);
            }
            if b.blocked_gen == Some(table.generation()) {
                let walk = |s, l| table.blocked(tree, t.node_at(s), l, SimTime::ZERO);
                let levels = 0..=cs.spec.max_level();
                if let Some(s) = t
                    .slots()
                    .find(|&s| levels.clone().any(|l| b.blocked.blocked(s, l) != walk(s, l)))
                {
                    return fail("blocked view disagrees with the timer walk", s);
                }
            }
            if let Some(s) =
                (1..t.len()).find(|&s| b.supply[s] > b.supply[t.parent_slot_of(s).unwrap()])
            {
                return fail("supply above the parent's", s);
            }
            if b.supply[0] > border_cap.max(1) {
                return fail("root supply above the border cap", 0);
            }
        }
        Ok(())
    }
}

/// Copy the dense per-slot memories of a valid cache over `map` — the
/// one flush behind both [`AlgorithmState::checkpoint`] and
/// `sync_memories`.
fn flush_memories(
    cache: &IncCache,
    scratch: &[SessionScratch],
    map: &mut HashMap<(SessionId, NodeId), NodeMemory>,
) {
    if !cache.valid {
        return;
    }
    for ((cs, carry), sc) in cache.sessions.iter().zip(&cache.carry.sessions).zip(scratch) {
        let t = carry.tree.tree();
        map.extend(t.slots().map(|s| ((cs.session, t.node_at(s)), sc.mem[s])));
    }
}

/// Stage 1's memory fold at one slot; returns whether the memory moved.
fn fold_memory(mem: &mut NodeMemory, st: NodeState) -> bool {
    let old = *mem;
    if st.has_data || st.parent_congested {
        mem.hist.push(st.congested);
        mem.bytes_older = mem.bytes_recent;
        mem.bytes_recent = st.max_bytes;
    } else {
        // No-data subtree (every receiver below quarantined, evicted, or
        // silenced by an outage): the interval is not evidence of
        // anything, so the node inherits its prior state instead of
        // recording a fabricated all-clear. The byte windows hold too —
        // rotating a 0 in would crater the goodput floor the reduce rules
        // use once reports resume.
        mem.hist.push(mem.hist.now());
    }
    *mem != old
}

/// Run `f`, storing its wall time in `ns`.
fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let span = Span::new();
    let out = f();
    *ns = span.elapsed_ns();
    out
}

/// The level suggested to a receiver at `slot`: the slot's supply,
/// clamped to the session's layers.
fn suggested_level(sc: &SessionScratch, slot: u32, spec: &LayerSpec) -> u8 {
    sc.stage5.supply[slot as usize].clamp(1, spec.max_level())
}

/// What stage 5 reads of one session's stage 1–4 results to build a
/// slot's decision inputs.
struct Feed<'a> {
    tree: &'a SessionTree,
    spec: &'a LayerSpec,
    cfg: &'a Config,
    interval: SimDuration,
    /// Stage 4's allowances, slot-indexed.
    allowed: &'a [f64],
    border_cap: u8,
    stage1: &'a congestion::Buffers,
    mem: &'a [NodeMemory],
    max_handle: &'a [f64],
}

impl Feed<'_> {
    /// The stage-5 decision inputs and level cap of slot `s`.
    fn input_at(&self, s: usize) -> (NodeInputs, u8) {
        let t = self.tree.tree();
        let states = &self.stage1.states;
        let st = states[s];
        let sibling_congested = match t.parent_slot_of(s) {
            None => false,
            Some(p) => t.child_slots(p).any(|c| c != s && states[c].congested),
        };
        let m = self.mem[s];
        // Receivers that did not report this interval fall back to
        // the subscription implied by the tree itself.
        let reported = self.stage1.obs[s]
            .map(|o| o.level)
            .or_else(|| (s != 0).then(|| self.tree.max_layer_at(s).saturating_add(1)));
        // Reports lag suggestions by up to an interval. While a node
        // is clean, a reported level below our last supply is just
        // that lag (the receiver is catching up to the suggestion),
        // not a deliberate drop — trusting the stale value makes the
        // controller re-suggest it and flap. Under congestion the
        // report is authoritative (unilateral drops are real).
        // The trust is bounded to one unreported step (`r + 1`):
        // with a stale discovery tool the reports lag by much more
        // than an interval, and trusting the full supply would let
        // the controller climb on the echo of its own suggestions.
        let current_level = reported.map(|r| {
            if st.congested || st.loss > self.cfg.p_threshold {
                r
            } else {
                r.max(m.supply_recent.min(r.saturating_add(1)))
            }
        });
        let inp = NodeInputs {
            hist: m.hist,
            parent_congested: st.parent_congested,
            sibling_congested,
            bw: BwEquality::classify(m.bytes_older, m.bytes_recent, BW_EQUAL_TOLERANCE),
            loss: st.loss,
            supply_older: m.supply_older,
            supply_recent: m.supply_recent,
            demand_prev: m.demand_prev,
            current_level,
            // Two-interval max: during a neighbour's transient
            // probe this interval's goodput dips, but the prior
            // interval still witnesses the sustainable level, so
            // innocent subtrees are not dragged down with the
            // prober (see reduce_target).
            goodput_bps: m.bytes_recent.max(m.bytes_older) as f64 * 8.0
                / self.interval.as_secs_f64().max(1e-9),
        };
        let mut lc = self.spec.level_fitting(self.allowed[s].min(self.max_handle[s]));
        if s == 0 {
            // Federation border cap (DESIGN.md §16): an externally imposed
            // ceiling on what this domain's root may carry. Applied at the
            // root only — the top-down supply pass min-folds it over every
            // slot, so one capped slot steers the whole domain.
            lc = lc.min(self.border_cap);
        }
        (inp, lc)
    }
}

/// Stage-1 audit record.
fn congestion_audit(
    trees: &[SessionTree],
    scratch: &[SessionScratch],
) -> Vec<SessionNodes<CongestionNode>> {
    trees
        .iter()
        .zip(scratch)
        .map(|(tree, sc)| {
            let t = tree.tree();
            SessionNodes {
                session: tree.session().0 as u64,
                nodes: t
                    .slots()
                    .map(|s| {
                        let st = sc.stage1.states[s];
                        CongestionNode {
                            node: t.node_at(s).0 as u64,
                            loss: st.loss,
                            self_congested: st.self_congested,
                            congested: st.congested,
                            parent_congested: st.parent_congested,
                        }
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Stage-2 audit record from link-sorted capacity events.
fn capacity_audit(events: &[CapacityEvent]) -> Vec<CapacityLink> {
    events
        .iter()
        .map(|&(l, bps, event)| CapacityLink { link: l.0 as u64, bps, event: event.into() })
        .collect()
}

/// Stage-3 audit record.
fn bottleneck_audit(
    trees: &[SessionTree],
    scratch: &[SessionScratch],
) -> Vec<SessionNodes<BottleneckNode>> {
    trees
        .iter()
        .zip(scratch)
        .map(|(tree, sc)| {
            let t = tree.tree();
            SessionNodes {
                session: tree.session().0 as u64,
                nodes: t
                    .slots()
                    .map(|s| BottleneckNode {
                        node: t.node_at(s).0 as u64,
                        bottleneck_bps: sc.bottleneck[s],
                        max_handle_bps: sc.max_handle[s],
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Stage-4 audit record.
fn sharing_audit(
    sharing: &SharingScratch,
    crossings: &Crossings,
    trees: &[SessionTree],
) -> Vec<SharingEntry> {
    sharing
        .shares_sorted(crossings)
        .into_iter()
        .map(|(l, i, bps)| SharingEntry {
            link: l.0 as u64,
            session: trees[i as usize].session().0 as u64,
            allowed_bps: bps,
        })
        .collect()
}

/// One session's stage-5 audit record; `suggested` mirrors the clamp
/// applied to outgoing suggestions, so the audit can be cross-checked
/// against the levels the controller actually sends.
fn subscription_session_audit(
    tree: &SessionTree,
    sc: &SessionScratch,
    suggested: &[Option<u8>],
) -> SessionNodes<SubscriptionNode> {
    let t = tree.tree();
    SessionNodes {
        session: tree.session().0 as u64,
        nodes: t
            .slots()
            .map(|s| SubscriptionNode {
                node: t.node_at(s).0 as u64,
                branch: sc.branches[s].into(),
                demand: sc.stage5.demand[s],
                supply: sc.stage5.supply[s],
                suggested: suggested[s],
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{GroupId, GroupSnapshot};
    use topology::discovery::{LinkView, TopologyView};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn l(i: u32) -> DirLinkId {
        DirLinkId(i)
    }

    /// One session: 0 -> 1 -> {2, 3}, receivers at 2 and 3.
    fn one_session_tree() -> SessionTree {
        let view = TopologyView {
            time: SimTime::ZERO,
            links: vec![
                LinkView { id: l(0), from: n(0), to: n(1) },
                LinkView { id: l(1), from: n(1), to: n(2) },
                LinkView { id: l(2), from: n(1), to: n(3) },
            ],
            groups: vec![GroupSnapshot {
                group: GroupId(0),
                root: n(0),
                active_links: vec![l(0), l(1), l(2)],
                member_nodes: vec![n(2), n(3)],
            }],
        };
        SessionTree::build(&view, SessionId(0), &[GroupId(0)]).unwrap()
    }

    fn report(
        app: u32,
        node: u32,
        level: u8,
        received: u64,
        lost: u64,
        bytes: u64,
    ) -> ReceiverReport {
        ReceiverReport {
            receiver: AppId(app),
            node: n(node),
            session: SessionId(0),
            level,
            received,
            lost,
            bytes,
        }
    }

    fn run_once(
        state: &mut AlgorithmState,
        tree: &SessionTree,
        spec: &LayerSpec,
        reports: &[ReceiverReport],
        now_secs: u64,
    ) -> AlgorithmOutputs {
        let registry = vec![(AppId(10), n(2), SessionId(0)), (AppId(11), n(3), SessionId(0))];
        state.run(&one(now_secs, tree, &[spec], &registry, reports))
    }

    /// The 2 s interval ending at `now_secs` of one session, `tree`.
    fn one<'a>(
        now_secs: u64,
        tree: &'a SessionTree,
        specs: &'a [&'a LayerSpec],
        registry: &'a [(AppId, NodeId, SessionId)],
        reports: &'a [ReceiverReport],
    ) -> AlgorithmInputs<'a> {
        let trees = std::slice::from_ref(tree);
        let (now, interval) = (SimTime::from_secs(now_secs), SimDuration::from_secs(2));
        AlgorithmInputs { now, interval, trees, specs, registry, reports }
    }

    #[test]
    fn clean_network_lets_receivers_explore() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let mut state = AlgorithmState::new(Config::default(), 7);
        let reports = vec![report(10, 2, 2, 100, 0, 24_000), report(11, 3, 2, 100, 0, 24_000)];
        // First runs settle the supply history at the current level; the
        // add-layer rule requires two stable runs before exploring.
        let _ = run_once(&mut state, &tree, &spec, &reports, 2);
        let _ = run_once(&mut state, &tree, &spec, &reports, 4);
        let out = run_once(&mut state, &tree, &spec, &reports, 6);
        assert_eq!(out.suggestions.len(), 2);
        for s in &out.suggestions {
            assert_eq!(s.level, 3, "uncongested, settled receivers step up one layer");
        }
        assert!(out.estimated_links.is_empty());
        assert_eq!(out.congested_nodes, 0);
    }

    #[test]
    fn shared_loss_reduces_supply_without_estimating_private_links() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let mut state = AlgorithmState::new(Config::default(), 7);
        // Both receivers at level 3 with ~30% similar loss on a
        // single-session tree: the links carry only one session, so (per
        // Fig. 4: estimates are for *shared* links) no capacity estimate is
        // set — control comes from the congestion states instead.
        let reports = vec![
            report(10, 2, 3, 70, 30, 37_500), // 37.5 kB / 2 s = 150 kb/s
            report(11, 3, 3, 72, 28, 37_500),
        ];
        let out = run_once(&mut state, &tree, &spec, &reports, 2);
        assert!(out.congested_nodes > 0);
        assert_eq!(state.capacity_estimate(l(0)), None, "single-session link");
        // The congested subtree root reduces; goodput (150 kb/s -> 2 layers)
        // floors the reduction, so suggestions land exactly on 2.
        for s in &out.suggestions {
            assert_eq!(s.level, 2, "expected the goodput-floored level");
        }
    }

    /// A report is input the controller did not author. `level = 255` used
    /// to reach `cur + 1` / `r + 1` unclamped: a panic in debug builds, a
    /// wrap to level 0 in release. It now reads as "the top level": the run
    /// is the twin of one whose receivers report `max_level`, through clean
    /// intervals (the add-layer path) and lossy ones (the reduce path).
    #[test]
    fn report_level_above_the_top_reads_as_the_top_level() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let run = |level: u8| {
            let mut state = AlgorithmState::new(Config::default(), 7);
            (1..=8)
                .map(|t| {
                    let lost = if t > 4 { 30 } else { 0 };
                    let reports = vec![
                        report(10, 2, level, 100 - lost, lost, 24_000),
                        report(11, 3, level, 100 - lost, lost, 24_000),
                    ];
                    run_once(&mut state, &tree, &spec, &reports, 2 * t).suggestions
                })
                .collect::<Vec<_>>()
        };
        let hostile = run(u8::MAX);
        assert_eq!(hostile, run(spec.max_level()));
        assert!(hostile.iter().all(|interval| interval.len() == 2));
        for s in hostile.iter().flatten() {
            assert!((1..=spec.max_level()).contains(&s.level), "suggested {}", s.level);
        }
    }

    /// Same class, the counters: `received + lost` used to be added
    /// unchecked, so a report with `u64::MAX` in either panicked in debug
    /// builds and in release wrapped `expected` to 0 — a window *with* a
    /// loss read as lossless. The sum saturates: the run is the twin of one
    /// whose counters stop at `u32::MAX` (where `Controller` bounds them),
    /// hostile `received` through the clean intervals and hostile `lost`
    /// through the lossy ones.
    #[test]
    fn report_counters_at_the_integer_ceiling_do_not_overflow() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let run = |ceiling: u64| {
            let mut state = AlgorithmState::new(Config::default(), 7);
            (1..=8)
                .map(|t| {
                    let (received, lost) = if t > 4 { (70, ceiling) } else { (ceiling, 1) };
                    let reports = vec![
                        report(10, 2, 2, received, lost, 24_000),
                        report(11, 3, 2, 100, 0, 24_000),
                    ];
                    run_once(&mut state, &tree, &spec, &reports, 2 * t).suggestions
                })
                .collect::<Vec<_>>()
        };
        let hostile = run(u64::MAX);
        assert_eq!(hostile, run(u32::MAX as u64));
        assert!(hostile.iter().all(|interval| interval.len() == 2));
        // The lossy half must be seen as lossy: receiver 10 ends below the
        // clean receiver 11.
        let last = hostile.last().unwrap();
        let level_of = |app| last.iter().find(|s| s.receiver == AppId(app)).unwrap().level;
        assert!(level_of(10) < level_of(11), "{last:?}");
    }

    #[test]
    fn suggestions_address_registered_receivers() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let mut state = AlgorithmState::new(Config::default(), 7);
        let reports = vec![report(10, 2, 1, 10, 0, 2500)];
        let out = run_once(&mut state, &tree, &spec, &reports, 2);
        let who: Vec<AppId> = out.suggestions.iter().map(|s| s.receiver).collect();
        // Both registered receivers get suggestions (node 3 is in the tree
        // even without a report this interval).
        assert!(who.contains(&AppId(10)));
        assert!(who.contains(&AppId(11)));
    }

    #[test]
    fn determinism_same_seed_same_output() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let go = || {
            let mut state = AlgorithmState::new(Config::default(), 99);
            let mut outs = Vec::new();
            for t in 1..10u64 {
                let reports = vec![
                    report(10, 2, 2, 80, (t % 3) * 10, 20_000),
                    report(11, 3, 2, 80, 5, 20_000),
                ];
                outs.push(run_once(&mut state, &tree, &spec, &reports, 2 * t).suggestions);
            }
            outs
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn silence_inherits_prior_state_and_never_climbs() {
        // Drive the tree congested, then cut every report (all receivers
        // quarantined/evicted upstream). The silent intervals are no-data:
        // nothing may stay labelled congested (the infinite child-min seed
        // hazard), but the congestion history must not be walked back to
        // "never congested" either — the old fabricated all-clear let the
        // controller climb the subscription on pure silence.
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let mut state = AlgorithmState::new(Config::default(), 7);
        let lossy = vec![report(10, 2, 2, 70, 30, 20_000), report(11, 3, 2, 72, 28, 20_000)];
        let mut pre = 0u8;
        for t in 1..=3u64 {
            let out = run_once(&mut state, &tree, &spec, &lossy, 2 * t);
            assert!(out.congested_nodes > 0, "similar sibling loss must congest");
            pre = out.suggestions.iter().map(|s| s.level).max().unwrap();
        }
        for t in 4..=8u64 {
            let out = run_once(&mut state, &tree, &spec, &[], 2 * t);
            assert_eq!(out.congested_nodes, 0, "silence alone is not congestion");
            for s in &out.suggestions {
                assert!(
                    s.level <= pre,
                    "climbed to {} on silence (pre-silence max {pre})",
                    s.level
                );
            }
        }
    }

    #[test]
    fn run_counter_increments() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let mut state = AlgorithmState::new(Config::default(), 1);
        assert_eq!(state.runs(), 0);
        run_once(&mut state, &tree, &spec, &[], 2);
        run_once(&mut state, &tree, &spec, &[], 4);
        assert_eq!(state.runs(), 2);
    }

    #[test]
    fn empty_tree_session_produces_no_suggestions() {
        // Session with no receivers: root-only tree.
        let view = TopologyView {
            time: SimTime::ZERO,
            links: vec![LinkView { id: l(0), from: n(0), to: n(1) }],
            groups: vec![GroupSnapshot {
                group: GroupId(0),
                root: n(0),
                active_links: vec![],
                member_nodes: vec![],
            }],
        };
        let tree = SessionTree::build(&view, SessionId(0), &[GroupId(0)]).unwrap();
        let spec = LayerSpec::paper_default();
        let specs = [&spec];
        let mut state = AlgorithmState::new(Config::default(), 1);
        let out = state.run(&one(2, &tree, &specs, &[(AppId(10), n(2), SessionId(0))], &[]));
        // Receiver's node is not in the stale tree: no suggestion for it.
        assert!(out.suggestions.is_empty());
        // A subscriber-less session still reports a root supply (its value
        // is inconsequential — there is nobody to suggest anything to).
        assert_eq!(out.root_supply.len(), 1);
    }

    /// Report churn for interval `t` in the differential tests below:
    /// loss, bytes, and levels all move so every stage sees changes.
    fn churn_reports(t: u64) -> Vec<ReceiverReport> {
        let lost = match t % 5 {
            0 => 30,
            1 => 0,
            _ => 5,
        };
        vec![
            report(10, 2, 2, 100 - lost, lost, 20_000 + (t % 3) * 4_000),
            report(11, 3, (2 + (t % 2)) as u8, 95, 5, 24_000),
        ]
    }

    #[test]
    fn incremental_matches_full_run_byte_for_byte() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let specs = [&spec];
        let registry = vec![(AppId(10), n(2), SessionId(0)), (AppId(11), n(3), SessionId(0))];
        let mut full = AlgorithmState::new(Config::default(), 42);
        let mut inc = AlgorithmState::new(Config::default(), 42);
        for t in 1..40u64 {
            let reports = churn_reports(t);
            let inputs = one(2 * t, &tree, &specs, &registry, &reports);
            let a = full.run(&inputs);
            let b = inc.run_incremental(&inputs);
            assert!(!a.incremental);
            if t > 1 {
                assert!(b.incremental, "interval {t} unexpectedly fell back");
            }
            assert_eq!(a.suggestions, b.suggestions, "interval {t}");
            assert_eq!(a.root_supply, b.root_supply, "interval {t}");
            assert_eq!(a.congested_nodes, b.congested_nodes, "interval {t}");
            assert_eq!(a.estimated_links, b.estimated_links, "interval {t}");
        }
    }

    /// A receiver that ignores the controller and keeps reporting the same
    /// heavy loss at the same level: once its windows settle, its inputs
    /// repeat every interval, yet its branch re-arms a timer (and draws)
    /// each time. Incremental must still re-decide it — the timer table,
    /// failure counts included, must match the full run's.
    #[test]
    fn a_slot_that_re_arms_on_repeated_inputs_is_re_decided() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let specs = [&spec];
        let registry = vec![(AppId(10), n(2), SessionId(0)), (AppId(11), n(3), SessionId(0))];
        let reports = vec![report(10, 2, 4, 70, 30, 20_000), report(11, 3, 2, 100, 0, 24_000)];
        let mut full = AlgorithmState::new(Config::default(), 5);
        let mut inc = AlgorithmState::new(Config::default(), 5);
        let timers = |st: &AlgorithmState| {
            let mut v = st.checkpoint().backoffs;
            v.sort_by_key(|e| (e.session, e.node, e.level));
            v
        };
        for t in 1..=12u64 {
            let inputs = one(2 * t, &tree, &specs, &registry, &reports);
            let a = full.run(&inputs);
            let b = inc.run_incremental(&inputs);
            assert_eq!(a.suggestions, b.suggestions, "interval {t}");
            assert_eq!(timers(&full), timers(&inc), "interval {t}");
        }
    }

    /// The audit reads the carry: with either of stage 5's seeds dropped
    /// from it, the state no longer checks out.
    #[test]
    fn audit_fails_without_a_carry_seed() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let reports = vec![report(10, 2, 4, 70, 30, 20_000), report(11, 3, 2, 100, 0, 24_000)];
        let mut state = AlgorithmState::new(Config::default(), 5);
        for t in 1..=3 {
            run_once(&mut state, &tree, &spec, &reports, 2 * t);
        }
        assert_eq!(state.audit(), Ok(()));
        let carry = &mut state.cache.carry.sessions[0];
        let mem5 = std::mem::take(&mut carry.mem5_dirty);
        let timers = std::mem::take(&mut carry.backoff_slots);
        assert!(!mem5.is_empty() && !timers.is_empty());
        assert!(state.audit().is_err(), "mem5_dirty dropped");
        state.cache.carry.sessions[0].mem5_dirty = mem5;
        assert!(state.audit().is_err(), "backoff_slots dropped");
        state.cache.carry.sessions[0].backoff_slots = timers;
        assert_eq!(state.audit(), Ok(()));
        // The root hosts no receiver, so it is never armable.
        state.scratch[0].armable[0] ^= 1;
        assert!(state.audit().is_err(), "armable bit flipped");
        state.scratch[0].armable[0] ^= 1;
        assert_eq!(state.audit(), Ok(()));
        // A timer on a node the tree does not hold.
        state.backoffs.get_mut(&SessionId(0)).unwrap().set(n(99), 2, SimTime::from_secs(99));
        assert!(state.audit().is_err(), "timer off the tree");
    }

    /// `0 -> 1 -> {2, 3}` over two layers; layer 1 crosses the link into
    /// node 1 when `layer_at_1`, and no link otherwise.
    fn two_layer_tree(layer_at_1: bool) -> SessionTree {
        let group = |g: u32, active_links: Vec<DirLinkId>| GroupSnapshot {
            group: GroupId(g),
            root: n(0),
            active_links,
            member_nodes: vec![n(2), n(3)],
        };
        let view = TopologyView {
            time: SimTime::ZERO,
            links: vec![
                LinkView { id: l(0), from: n(0), to: n(1) },
                LinkView { id: l(1), from: n(1), to: n(2) },
                LinkView { id: l(2), from: n(1), to: n(3) },
            ],
            groups: vec![
                group(0, vec![l(0), l(1), l(2)]),
                group(1, if layer_at_1 { vec![l(0)] } else { vec![] }),
            ],
        };
        SessionTree::build(&view, SessionId(0), &[GroupId(0), GroupId(1)]).unwrap()
    }

    /// A per-edge layer move is a stage-5 input change at its own slot
    /// alone. Node 1 hosts no receiver, so the layer into it is its
    /// no-report fallback level. Once a clean loop has settled at the top
    /// level, the same tree — a clone, or a rebuild from the same view —
    /// re-decides nothing, and a rebuild whose layer into node 1 moved
    /// re-decides that one slot: node 1 is internal, its demand is its
    /// children's, and nothing propagates.
    #[test]
    fn a_rebuilt_tree_re_decides_exactly_its_moved_layers() {
        let spec = LayerSpec::paper_default();
        let specs = [&spec];
        let registry = vec![(AppId(10), n(2), SessionId(0)), (AppId(11), n(3), SessionId(0))];
        let top = spec.max_level();
        let reports = [report(10, 2, top, 100, 0, 90_000), report(11, 3, top, 100, 0, 90_000)];
        let mut full = AlgorithmState::new(Config::default(), 3);
        let mut inc = AlgorithmState::new(Config::default(), 3);
        let mut t = 0;
        let mut run = |tree: &SessionTree| {
            t += 1;
            let inputs = one(2 * t, tree, &specs, &registry, &reports);
            let (a, b) = (full.run(&inputs), inc.run_incremental(&inputs));
            assert_eq!(a.suggestions, b.suggestions, "interval {t}");
            assert_eq!(a.root_supply, b.root_supply, "interval {t}");
            assert_eq!(inc.audit(), Ok(()), "interval {t}");
            assert!(t == 1 || b.incremental, "interval {t} fell back");
            b.slots_recomputed
        };
        let tree = two_layer_tree(true);
        assert!((0..12).any(|_| run(&tree) == 0), "the clean loop never settled");
        assert_eq!(run(&tree.clone()), 0, "a clone");
        assert_eq!(run(&two_layer_tree(true)), 0, "a rebuild from the same view");
        assert_eq!(run(&two_layer_tree(false)), 1, "node 1's layer moved");
        assert_eq!(run(&two_layer_tree(false)), 0, "the moved layer is carried");
    }

    /// A border-cap change is an input change at the root alone. Once a
    /// clean closed loop has settled at the top level every other feed is
    /// at a fixed point, so a warm cap cut must still reach the root's
    /// level cap and, through supply, every suggestion.
    #[test]
    fn a_warm_border_cap_cut_reaches_a_settled_root() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let specs = [&spec];
        let registry = vec![(AppId(10), n(2), SessionId(0)), (AppId(11), n(3), SessionId(0))];
        let mut full = AlgorithmState::new(Config::default(), 3);
        let mut inc = AlgorithmState::new(Config::default(), 3);
        let mut level = 1;
        for t in 1..=24u64 {
            if t == 20 {
                assert_eq!(level, spec.max_level(), "the loop settles at the top");
                full.set_border_caps(&[(SessionId(0), 2)]);
                inc.set_border_caps(&[(SessionId(0), 2)]);
            }
            let reports =
                [report(10, 2, level, 100, 0, 90_000), report(11, 3, level, 100, 0, 90_000)];
            let inputs = one(2 * t, &tree, &specs, &registry, &reports);
            let (a, b) = (full.run(&inputs), inc.run_incremental(&inputs));
            assert_eq!(a.suggestions, b.suggestions, "interval {t}");
            assert_eq!(inc.audit(), Ok(()), "interval {t}");
            level = b.suggestions[0].level;
        }
        assert_eq!(level, 2, "the cut reached the receivers");
    }

    /// A balanced `fanout^depth` session tree rooted at node 0, every leaf
    /// a member; returns the tree and its leaves in slot order.
    fn balanced_tree(fanout: u32, depth: u32) -> (SessionTree, Vec<NodeId>) {
        let mut links = Vec::new();
        let mut tier = vec![0u32];
        for _ in 0..depth {
            let mut next = Vec::new();
            for &p in &tier {
                for _ in 0..fanout {
                    let c = links.len() as u32 + 1;
                    links.push(LinkView { id: l(c - 1), from: n(p), to: n(c) });
                    next.push(c);
                }
            }
            tier = next;
        }
        let view = TopologyView {
            time: SimTime::ZERO,
            groups: vec![GroupSnapshot {
                group: GroupId(0),
                root: n(0),
                active_links: links.iter().map(|lv| lv.id).collect(),
                member_nodes: tier.iter().map(|&i| n(i)).collect(),
            }],
            links,
        };
        let tree = SessionTree::build(&view, SessionId(0), &[GroupId(0)]).unwrap();
        let leaves = tree.tree().slots().filter(|&s| tree.tree().is_leaf_slot(s));
        let leaves = leaves.map(|s| tree.tree().node_at(s)).collect();
        (tree, leaves)
    }

    /// A domain behind a 300 kb/s border link and a border cap of 4
    /// layers, closed loop: each leaf reports the level it was last
    /// suggested, with loss in proportion to the overshoot. Climbing to
    /// level 4 (480 kb/s) congests the whole tree, the root halves and
    /// arms a backoff for level 4 at itself, and the tree settles at
    /// level 3 under that live root timer. Incremental must equal the
    /// full run throughout, and once settled re-decide only what moved —
    /// not the whole tree the root timer sits above.
    #[test]
    fn a_live_root_timer_does_not_redecide_its_subtree() {
        let (tree, leaves) = balanced_tree(3, 3);
        let spec = LayerSpec::paper_default();
        let specs = [&spec];
        let registry: Vec<(AppId, NodeId, SessionId)> =
            leaves.iter().enumerate().map(|(i, &nd)| (AppId(i as u32), nd, SessionId(0))).collect();
        let mut full = AlgorithmState::new(Config::default(), 11);
        let mut inc = AlgorithmState::new(Config::default(), 11);
        for st in [&mut full, &mut inc] {
            st.set_border_caps(&[(SessionId(0), 4)]);
        }
        let mut levels = vec![1u8; leaves.len()];
        let (mut repeats, mut settled_rounds) = (0, 0);
        for t in 1..=34u64 {
            if t == 27 {
                // A warm border-cap cut under the live timer: supply must
                // follow it down the tree even where demand holds.
                for st in [&mut full, &mut inc] {
                    st.set_border_caps(&[(SessionId(0), 2)]);
                }
            }
            let reports: Vec<ReceiverReport> = leaves
                .iter()
                .zip(&levels)
                .enumerate()
                .map(|(i, (&nd, &level))| {
                    let cum = spec.cumulative_rate(level);
                    let received = (100.0 * (300_000.0 / cum).min(1.0)).round() as u64;
                    ReceiverReport {
                        receiver: AppId(i as u32),
                        node: nd,
                        session: SessionId(0),
                        level,
                        received,
                        lost: 100 - received,
                        bytes: (cum.min(300_000.0) / 8.0 * 2.0) as u64,
                    }
                })
                .collect();
            let inputs = one(2 * t, &tree, &specs, &registry, &reports);
            let a = full.run(&inputs);
            let b = inc.run_incremental(&inputs);
            assert_eq!(a.suggestions, b.suggestions, "interval {t}");
            assert_eq!(a.root_supply, b.root_supply, "interval {t}");
            assert_eq!(a.congested_nodes, b.congested_nodes, "interval {t}");
            let bits = |o: &AlgorithmOutputs| {
                o.estimated_links.iter().map(|&(lk, c)| (lk, c.to_bits())).collect::<Vec<_>>()
            };
            assert_eq!(bits(&a), bits(&b), "interval {t}");
            let root_timer = inc
                .checkpoint()
                .backoffs
                .iter()
                .any(|e| e.node == 0 && e.until_ns.is_some_and(|u| u > inputs.now.0));
            // Settled: the reports have repeated for as long as the 3-bit
            // congestion history takes to forget the overshoot.
            if root_timer && repeats >= 3 {
                settled_rounds += 1;
                assert!(
                    (b.slots_recomputed as usize) < tree.tree().len(),
                    "interval {t}: {} slots recomputed under a live root timer",
                    b.slots_recomputed
                );
            }
            let before = levels.clone();
            for (level, s) in levels.iter_mut().zip(&b.suggestions) {
                *level = s.level;
            }
            repeats = if levels == before { repeats + 1 } else { 0 };
        }
        assert!(settled_rounds >= 5, "the tree settled under a root timer {settled_rounds} times");
    }

    #[test]
    fn audited_incremental_matches_audited_full_including_records() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let specs = [&spec];
        let registry = vec![(AppId(10), n(2), SessionId(0)), (AppId(11), n(3), SessionId(0))];
        let mut full = AlgorithmState::new(Config::default(), 5);
        let mut inc = AlgorithmState::new(Config::default(), 5);
        for t in 1..25u64 {
            let reports = churn_reports(t);
            let inputs = one(2 * t, &tree, &specs, &registry, &reports);
            let mut aa = telemetry::IntervalAudit::new(full.runs(), 0);
            let mut ab = telemetry::IntervalAudit::new(inc.runs(), 0);
            full.invalidate();
            let a = full.run_incremental_audited(&inputs, Some(&mut aa));
            let b = inc.run_incremental_audited(&inputs, Some(&mut ab));
            assert_eq!(a.suggestions, b.suggestions, "interval {t}");
            // Every deterministic audit record must be identical too —
            // incremental recomputation may not even change the *story*
            // the telemetry tells.
            assert_eq!(aa.congestion, ab.congestion, "interval {t}");
            assert_eq!(aa.capacity, ab.capacity, "interval {t}");
            assert_eq!(aa.bottleneck, ab.bottleneck, "interval {t}");
            assert_eq!(aa.sharing, ab.sharing, "interval {t}");
            assert_eq!(aa.subscription, ab.subscription, "interval {t}");
        }
    }

    /// Two sessions over the same links, so the shared links earn capacity
    /// estimates (and, `capacity_reset` later, a due reset). `rehomed`
    /// hangs node 3 off the root instead of node 1 — a routing change.
    fn two_session_trees(rehomed: bool) -> Vec<SessionTree> {
        let view = TopologyView {
            time: SimTime::ZERO,
            links: vec![
                LinkView { id: l(0), from: n(0), to: n(1) },
                LinkView { id: l(1), from: n(1), to: n(2) },
                LinkView { id: l(2), from: n(1), to: n(3) },
                LinkView { id: l(3), from: n(0), to: n(3) },
            ],
            groups: (0..2)
                .map(|g| GroupSnapshot {
                    group: GroupId(g),
                    root: n(0),
                    active_links: vec![l(0), l(1), if rehomed { l(3) } else { l(2) }],
                    member_nodes: vec![n(2), n(3)],
                })
                .collect(),
        };
        (0..2).map(|g| SessionTree::build(&view, SessionId(g), &[GroupId(g)]).unwrap()).collect()
    }

    #[test]
    fn incremental_falls_back_on_change_and_stays_correct() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Trigger {
            FirstRun,
            Routing,
            Registry,
            Spec,
            Interval,
            ReportKey,
            CapacityReset,
            Invalidate,
            Restore,
            RootTimer,
        }
        use Trigger::*;
        // (round it fires in, trigger). Input changes persist, so the round
        // after each one repeats its inputs and must be served warm. Lossy
        // round 1 learns the shared-link estimates at t = 2 s; every later
        // round is clean, so their reset falls due at t = 26 s, round 13.
        // `RootTimer` arms a level-4 timer at both sessions' root (through
        // a checkpoint, so both twins hold it): every receiver's next
        // layer is blocked through rounds 21-24, which run warm under it
        // after the first, and round 25 climbs, warm, across its expiry.
        // Rounds 19 and 20 are audited, and watching is no trigger: both
        // follow unaudited rounds and must be served warm.
        let table = [
            (1, FirstRun),
            (3, Routing),
            (5, Registry),
            (7, Spec),
            (9, Interval),
            (11, ReportKey),
            (13, CapacityReset),
            (15, Invalidate),
            (17, Restore),
            (21, RootTimer),
        ];
        let cfg = Config::default();
        let specs = [LayerSpec::paper_default(), LayerSpec::doubling(32_000.0, 5)];
        let mut full = AlgorithmState::new(cfg, 9);
        let mut inc = AlgorithmState::new(cfg, 9);
        for t in 1..=28u64 {
            let fired = |trigger: Trigger| table.iter().any(|&(at, tr)| tr == trigger && at <= t);
            let now = |trigger: Trigger| table.contains(&(t, trigger));
            let trees = two_session_trees(fired(Routing));
            let spec = &specs[fired(Spec) as usize];
            let mut registry = vec![
                (AppId(10), n(2), SessionId(0)),
                (AppId(11), n(3), SessionId(0)),
                (AppId(20), n(2), SessionId(1)),
                (AppId(21), n(3), SessionId(1)),
            ];
            registry.truncate(if fired(Registry) { 3 } else { 4 });
            let lost = if t == 1 { 30 } else { 0 };
            let reports: Vec<ReceiverReport> = [(10, 2, 0), (11, 3, 0), (20, 2, 1), (21, 3, 1)]
                .iter()
                .map(|&(app, node, sess)| ReceiverReport {
                    // A renamed reporter: same row count, different key.
                    receiver: AppId(if app == 21 && fired(ReportKey) { 22 } else { app }),
                    session: SessionId(sess),
                    ..report(app, node, 2, 100 - lost, lost, 20_000 + (t % 3) * 4_000)
                })
                .collect();
            let inputs = AlgorithmInputs {
                now: SimTime::from_secs(2 * t),
                interval: SimDuration::from_secs(if fired(Interval) { 3 } else { 2 }),
                trees: &trees,
                specs: &[spec, spec],
                registry: &registry,
                reports: &reports,
            };
            if now(CapacityReset) {
                assert!(inc.capacity_estimate(l(0)).is_some(), "nothing to reset");
            }
            if now(Invalidate) {
                inc.invalidate();
            }
            if now(Restore) {
                inc = AlgorithmState::restore(cfg, &inc.checkpoint()).unwrap();
            }
            if now(RootTimer) {
                for st in [&mut full, &mut inc] {
                    let mut snap = st.checkpoint();
                    snap.backoffs.extend((0..2).map(|session| crate::checkpoint::BackoffEntry {
                        session,
                        node: 0,
                        level: 4,
                        until_ns: Some(SimTime::from_secs(49).0),
                        failures: 1,
                    }));
                    *st = AlgorithmState::restore(cfg, &snap).unwrap();
                }
            }
            let a = full.run(&inputs);
            let mut audit = telemetry::IntervalAudit::new(inc.runs(), 0);
            let audited = (19..=20).contains(&t);
            let b = inc.run_incremental_audited(&inputs, audited.then_some(&mut audit));
            match table.iter().find(|&&(at, _)| at == t) {
                Some(&(_, trigger)) => {
                    assert!(!b.incremental, "interval {t}: {trigger:?} must start cold");
                    let slots: u64 = trees.iter().map(|tr| 2 * tr.tree().len() as u64).sum();
                    assert_eq!(b.slots_recomputed, slots, "interval {t}: {trigger:?}");
                }
                None => assert!(b.incremental, "interval {t} should be served warm"),
            }
            if now(CapacityReset) {
                assert_eq!(inc.capacity_estimate(l(0)), None, "the due reset must fire");
            }
            assert_eq!(inc.audit(), Ok(()), "interval {t}");
            assert!(!a.incremental);
            assert_eq!(a.suggestions, b.suggestions, "interval {t}");
            assert_eq!(a.root_supply, b.root_supply, "interval {t}");
            assert_eq!(a.congested_nodes, b.congested_nodes, "interval {t}");
            assert_eq!(a.estimated_links, b.estimated_links, "interval {t}");
        }
    }

    #[test]
    fn direct_full_run_after_incremental_sees_synced_memories() {
        let tree = one_session_tree();
        let spec = LayerSpec::paper_default();
        let specs = [&spec];
        let registry = vec![(AppId(10), n(2), SessionId(0)), (AppId(11), n(3), SessionId(0))];
        let mut full = AlgorithmState::new(Config::default(), 3);
        let mut inc = AlgorithmState::new(Config::default(), 3);
        for t in 1..30u64 {
            let reports = churn_reports(t);
            let inputs = one(2 * t, &tree, &specs, &registry, &reports);
            let a = full.run(&inputs);
            // Interleave: incremental mostly, but a direct full run every
            // few intervals (as a failover would) — the lazily synced
            // memories must make both entry points interchangeable.
            let b = if t % 7 == 0 {
                inc.invalidate();
                inc.run(&inputs)
            } else {
                inc.run_incremental(&inputs)
            };
            assert_eq!(a.suggestions, b.suggestions, "interval {t}");
            assert_eq!(a.root_supply, b.root_supply, "interval {t}");
        }
    }
}
