//! The algorithm driver: wires the five stages together and owns every
//! piece of state that persists across intervals (congestion histories,
//! byte/supply windows, capacity estimates, backoff timers).
//!
//! [`AlgorithmState::run`] is a pure-ish function of its inputs: given the
//! same sequence of `(trees, reports)` and the same seed it produces the
//! same suggestions, which is what makes whole simulations reproducible.

use crate::config::Config;
use crate::history::{BwEquality, CongestionHistory, BW_EQUAL_TOLERANCE};
use crate::stages::bottleneck;
use crate::stages::capacity::{CapacityEstimator, CapacityEvent, SessionLinkObs};
use crate::stages::congestion::{self, LeafObs, NodeState};
use crate::stages::sharing::{self, SharingScratch};
use crate::stages::subscription::{self, BackoffTable, BlockedView, NodeInputs};
use netsim::{AppId, DirLinkId, NodeId, RngStream, SessionId, SimDuration, SimTime};
use std::collections::HashMap;
use telemetry::{
    BottleneckNode, CapacityLink, CongestionNode, IntervalAudit, SessionNodes, SharingEntry, Span,
    SubscriptionNode,
};
use topology::SessionTree;
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
#[derive(Clone, Debug, Default)]
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
    /// Aggregated leaf observation per tree slot (stage 1 input).
    obs: Vec<Option<LeafObs>>,
    /// Congestion state per tree slot (stage 1 output).
    states: Vec<NodeState>,
    /// This interval's working copy of each node's persistent memory.
    mem: Vec<NodeMemory>,
    /// Stage-3 outputs per tree slot.
    bottleneck: Vec<f64>,
    max_handle: Vec<f64>,
    /// Stage-5 inputs/outputs per tree slot.
    inputs: Vec<NodeInputs>,
    level_cap: Vec<u8>,
    demand: Vec<u8>,
    supply: Vec<u8>,
    /// Stage 5's blocked-level view, refilled once the session's backoff
    /// table has expired its timers — on a warm run only when the table's
    /// key set changed since the last fill.
    blocked: BlockedView,
    /// The view as of the fill before, diffed against `blocked` to find
    /// the slots whose `blocked` answers moved.
    blocked_prev: BlockedView,
    /// The backoff table's generation when `blocked` was filled.
    blocked_gen: u64,
    /// Table I branch labels per tree slot (filled only when auditing).
    branches: Vec<&'static str>,
    /// At every slot stage 1's top-down walk visited this interval, the
    /// slot's state as of the previous interval (saved just before it is
    /// overwritten); stage 5 reads it only at slots in `state_dirty`.
    states_prev: Vec<NodeState>,
    /// How many slots of `states` are congested, kept up to date by the
    /// top-down walk as flags flip.
    congested: usize,
    /// Slots whose observation was re-folded this interval (report diff).
    obs_dirty: Vec<u32>,
    /// Slots whose memory the stage-1 fold changed this interval.
    mem_dirty: Vec<u32>,
    /// Slots whose propagated congestion state (congested / parent flag /
    /// loss) moved this interval relative to `states_prev`.
    state_dirty: Vec<u32>,
    /// The session's top-down work list (stage 1's propagation, stage 5's
    /// supply).
    walk: topology::SlotQueue,
}

/// Per-session inputs frozen by [`IncCache`] at the last cold start. As
/// long as the live inputs still match (same routing, same spec, same
/// report keys), the previous interval's scratch buffers are a valid
/// starting point for change-driven recomputation.
#[derive(Debug)]
struct SessionCache {
    session: SessionId,
    tree: SessionTree,
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
    /// Slots holding at least one backoff timer after the previous run.
    /// They are re-decided next interval even if the timer has expired
    /// since: their branch may arm again and draw from the RNG.
    backoff_slots: Vec<u32>,
    /// Slots whose memory the previous run's stage-5 persistence changed
    /// (supply/demand writes land after that interval's inputs were built,
    /// so they surface as input changes one interval later).
    mem5_dirty: Vec<u32>,
}

/// Everything an interval needs to prove, cheaply, that only the changed
/// inputs can have changed the outputs. Primed by every cold start;
/// consulted and refreshed by every run; dropped on any mismatch (the run
/// that finds it so starts cold and reprimes it).
#[derive(Debug, Default)]
struct IncCache {
    valid: bool,
    /// Whether `SessionScratch::branches` is current for every slot — an
    /// audited incremental run reuses clean slots' cached labels, which is
    /// only sound if the previous run filled them.
    branches_valid: bool,
    interval: SimDuration,
    registry: Vec<(AppId, NodeId, SessionId)>,
    /// The previous interval's reports, diffed element-wise against the
    /// current ones to find changed slots.
    reports: Vec<ReceiverReport>,
    /// Per cached report: `(session index, slot)` it folds into, or
    /// `(u32::MAX, u32::MAX)` when unattributable (node outside the tree).
    report_target: Vec<(u32, u32)>,
    /// One `(link, session index, slot)` row per non-root slot, stably
    /// sorted by link, so stage 2 can rebuild any link's observation run
    /// from current states without re-sorting.
    usage: Vec<(DirLinkId, u32, u32)>,
    /// Every link any session crosses, sorted (dedup of `usage`'s link
    /// column).
    crossed_links: Vec<DirLinkId>,
    /// The border caps in force when the cache was last primed/refreshed.
    /// A cap change is an *input* change at the root slot: stage 5 diffs
    /// against this copy and marks the root dirty, and the supply walk
    /// carries the new ceiling down as far as it moves supply.
    border_caps: Vec<(SessionId, u8)>,
    sessions: Vec<SessionCache>,
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
    dirty: topology::DirtySet,
    /// Second marking set for stage 5: candidate slots whose inputs may
    /// have moved (`dirty` holds the slots whose decisions must re-run).
    dirty_aux: topology::DirtySet,
    /// Per-session root-level ceilings imposed from outside the domain
    /// (federation border aggregation, DESIGN.md §16). Sorted by session,
    /// deduplicated; `u8::MAX` / absence means uncapped. These are
    /// per-interval *external inputs*, not persistent state: checkpoints
    /// do not capture them — the aggregator re-sends them every interval,
    /// so a restored or promoted controller is reprimed before its next
    /// run (the determinism argument is in DESIGN.md §16).
    border_caps: Vec<(SessionId, u8)>,
}

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
            dirty: topology::DirtySet::new(),
            dirty_aux: topology::DirtySet::new(),
            border_caps: Vec::new(),
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

    /// Current capacity estimate for a link (diagnostics / tests).
    pub fn capacity_estimate(&self, link: DirLinkId) -> Option<f64> {
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
    pub fn run_incremental(&mut self, inputs: &AlgorithmInputs<'_>) -> AlgorithmOutputs {
        self.run_incremental_audited(inputs, None)
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
        if self.cache.valid {
            for (k, cs) in self.cache.sessions.iter().enumerate() {
                let t = cs.tree.tree();
                let sc = &self.scratch[k];
                for s in t.slots() {
                    mem.insert((cs.session, t.node_at(s)), sc.mem[s]);
                }
            }
        }
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
        if !self.cache.valid {
            return;
        }
        self.cache.valid = false;
        for (k, cs) in self.cache.sessions.iter().enumerate() {
            let t = cs.tree.tree();
            let sc = &self.scratch[k];
            for s in t.slots() {
                self.memories.insert((cs.session, t.node_at(s)), sc.mem[s]);
            }
        }
    }

    /// Can this interval be served from the change cache? Every check
    /// guards a specific invariant the change-driven work sets assume.
    fn can_run_incremental(&self, inputs: &AlgorithmInputs<'_>, want_audit: bool) -> bool {
        let c = &self.cache;
        if !c.valid || (want_audit && !c.branches_valid) || inputs.interval != c.interval {
            return false;
        }
        if inputs.trees.len() != c.sessions.len()
            || inputs.registry != c.registry.as_slice()
            || inputs.reports.len() != c.reports.len()
        {
            return false;
        }
        // Routing equality only: per-edge layer attributes may differ
        // (receivers moving a subscription level under steering is the
        // steady-state common case). A layer feeds exactly one input —
        // the no-report fallback level of its own slot — so stage 5
        // re-decides the changed slots instead of the cache dying.
        for ((tree, spec), cs) in inputs.trees.iter().zip(inputs.specs).zip(&c.sessions) {
            if tree.session() != cs.session || **spec != cs.spec || !tree.routing_eq(&cs.tree) {
                return false;
            }
        }
        // Report *keys* must match index-for-index so the cached
        // slot attribution still applies; values are what gets diffed.
        for (new, old) in inputs.reports.iter().zip(&c.reports) {
            if (new.receiver, new.node, new.session) != (old.receiver, old.node, old.session) {
                return false;
            }
        }
        // A due capacity reset rewrites estimator state outside the
        // change-tracking model; a cold run applies it.
        !self.estimator.has_pending_reset(inputs.now)
    }

    /// Cold start: flush the dense memories, then rebuild every cached
    /// input and resize every per-slot buffer from `inputs`, so the
    /// interval body can run over full work sets. The cached reports are
    /// left empty — every row then differs from its cached copy, which is
    /// what puts it in the work set.
    fn prime_cache(&mut self, inputs: &AlgorithmInputs<'_>) {
        self.sync_memories();
        let pool = inputs.trees.len().max(self.scratch.len());
        self.scratch.resize_with(pool, SessionScratch::default);
        let c = &mut self.cache;
        c.interval = inputs.interval;
        c.registry.clear();
        c.registry.extend_from_slice(inputs.registry);
        c.reports.clear();

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
        for (k, tree) in inputs.trees.iter().enumerate() {
            let t = tree.tree();
            let sid = tree.session();
            // Counting sort into a CSR keeps each slot's report indices in
            // global report order — the order the observation fold runs in.
            let mut rep_start = vec![0u32; t.len() + 1];
            for &(sess, slot) in &c.report_target {
                if sess as usize == k {
                    rep_start[slot as usize + 1] += 1;
                }
            }
            for i in 1..rep_start.len() {
                rep_start[i] += rep_start[i - 1];
            }
            let mut cursor = rep_start.clone();
            let mut rep_idx = vec![0u32; *rep_start.last().unwrap() as usize];
            for (i, &(sess, slot)) in c.report_target.iter().enumerate() {
                if sess as usize == k {
                    rep_idx[cursor[slot as usize] as usize] = i as u32;
                    cursor[slot as usize] += 1;
                }
            }
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
                tree: tree.clone(),
                spec: inputs.specs[k].clone(),
                rep_start,
                rep_idx,
                sugg_route,
                backoff_slots: Vec::new(),
                mem5_dirty: Vec::new(),
            });

            let sc = &mut self.scratch[k];
            sc.obs.clear();
            sc.obs.resize(t.len(), None);
            sc.states.clear();
            sc.states.resize(t.len(), NodeState::default());
            sc.states_prev.clear();
            sc.states_prev.resize(t.len(), NodeState::default());
            sc.congested = 0;
            // Last interval's fold changes index the old tree.
            sc.mem_dirty.clear();
            sc.mem.clear();
            sc.mem.extend(
                t.slots()
                    .map(|s| self.memories.get(&(sid, t.node_at(s))).copied().unwrap_or_default()),
            );
            sc.inputs.clear();
            sc.inputs.resize(t.len(), NodeInputs::default());
            sc.level_cap.clear();
            sc.level_cap.resize(t.len(), 0);
            sc.demand.clear();
            sc.demand.resize(t.len(), 1);
            sc.supply.clear();
            sc.supply.resize(t.len(), 1);
            sc.branches.clear();
            sc.branches.resize(t.len(), "");
        }

        // One row per non-root slot, stably sorted by link: each link's
        // rows are contiguous and keep tree order — the per-link
        // observation lists stage 2 estimates from.
        c.usage.clear();
        for (k, tree) in inputs.trees.iter().enumerate() {
            c.usage
                .extend((1..tree.tree().len()).map(|s| (tree.in_link_at(s), k as u32, s as u32)));
        }
        c.usage.sort_by_key(|&(l, _, _)| l);
        c.crossed_links.clear();
        c.crossed_links.extend(c.usage.iter().map(|&(l, _, _)| l));
        c.crossed_links.dedup();
        c.valid = true;
    }

    /// [`Self::run_incremental`] plus an optional decision audit: when
    /// `audit` is `Some`, every stage's intermediate output is copied into
    /// it after the stage runs, along with wall-clock spans per kernel.
    /// The audit is strictly write-only — auditing cannot alter any
    /// decision or the RNG draw sequence, so outputs are identical either
    /// way (the telemetry determinism test pins this down). Clean slots
    /// reuse their cached branch labels, so an audited run after an
    /// unaudited one starts cold.
    pub fn run_incremental_audited(
        &mut self,
        inputs: &AlgorithmInputs<'_>,
        mut audit: Option<&mut IntervalAudit>,
    ) -> AlgorithmOutputs {
        assert_eq!(inputs.trees.len(), inputs.specs.len());
        let cfg = self.cfg;
        let nsess = inputs.trees.len();
        let timing = audit.is_some();
        let whole_span = timing.then(Span::new);
        let cold = !self.can_run_incremental(inputs, timing);
        if cold {
            self.prime_cache(inputs);
        }

        let mut cache = std::mem::take(&mut self.cache);
        let mut dirty = std::mem::take(&mut self.dirty);
        let mut dirty_aux = std::mem::take(&mut self.dirty_aux);
        let mut scratch = std::mem::take(&mut self.scratch);
        let spare = scratch.split_off(nsess);
        let mut outputs = AlgorithmOutputs { incremental: !cold, ..AlgorithmOutputs::default() };
        let mut slots_recomputed: u64 = 0;

        // Stage 1: diff the reports against the previous interval's copy
        // (empty when cold, so every row differs); each changed row
        // dirties the slot it folds into, and every ancestor of a dirty
        // slot re-runs the bottom-up kernel (its child fold reads the
        // recomputed state).
        let stage_span = timing.then(Span::new);
        let mut report_dirty: Vec<(u32, u32)> = Vec::new();
        for (i, (new, &target)) in inputs.reports.iter().zip(&cache.report_target).enumerate() {
            if cache.reports.get(i) != Some(new) && target.0 != u32::MAX {
                report_dirty.push(target);
            }
        }
        let mut state_changed: Vec<(u32, u32)> = Vec::new();
        let mut congested_nodes = 0usize;
        for (k, tree) in inputs.trees.iter().enumerate() {
            let t = tree.tree();
            let sc = &mut scratch[k];
            let cs = &cache.sessions[k];
            dirty.begin(t.len());
            for &(sess, slot) in &report_dirty {
                if sess as usize != k || !dirty.mark(slot as usize) {
                    continue;
                }
                // Re-aggregate this slot's observation from its reports
                // (loss = min, bytes/level = max), in global report order.
                // A report is outside input: a level above the session's
                // top means "everything", not a number to do arithmetic on.
                let max_level = inputs.specs[k].max_level();
                let slot = slot as usize;
                sc.obs[slot] = None;
                let (lo, hi) = (cs.rep_start[slot] as usize, cs.rep_start[slot + 1] as usize);
                for &ri in &cs.rep_idx[lo..hi] {
                    let r = &inputs.reports[ri as usize];
                    let e = sc.obs[slot].get_or_insert(LeafObs {
                        loss: f64::INFINITY,
                        bytes: 0,
                        level: 0,
                    });
                    e.loss = e.loss.min(r.loss_rate());
                    e.bytes = e.bytes.max(r.bytes);
                    e.level = e.level.max(r.level.min(max_level));
                }
            }
            sc.obs_dirty.clear();
            sc.obs_dirty.extend_from_slice(dirty.slots());
            if cold {
                for s in t.slots() {
                    dirty.mark(s);
                }
            }
            for i in 0..sc.obs_dirty.len() {
                // Start the walk at the parent: the changed slot is already
                // marked, and `mark_ancestors` stops at the first marked slot.
                if let Some(p) = t.parent_slot_of(sc.obs_dirty[i] as usize) {
                    tree.mark_ancestors(p, &mut dirty);
                }
            }
            dirty.sort_descending();
            slots_recomputed += dirty.len() as u64;
            for &s in dirty.slots() {
                let s = s as usize;
                let old = sc.states[s];
                sc.states_prev[s] = old;
                let new = congestion::slot_state(tree, s, &sc.obs, &sc.states, &cfg);
                sc.states[s] = new;
                // Bit-compare: what stage 2 reads from a state is its
                // (loss, bytes) pair; NaN-safe and exact.
                if old.loss.to_bits() != new.loss.to_bits() || old.max_bytes != new.max_bytes {
                    state_changed.push((k as u32, s as u32));
                }
            }
            // One fused top-down walk over the session: congestion
            // propagation, the congested-node count, the memory fold, and
            // the stage-5 feed diffs. The memory fold is a function of
            // (memory, state), so a slot whose state did not move and whose
            // memory the fold left alone last interval is at a fixed point:
            // the walk visits the recomputed slots, last interval's
            // `mem_dirty`, and the children of every slot whose congestion
            // flag flipped (the one thing a child's propagation reads).
            // Slots whose memory or propagated state actually moved are
            // recorded for the stage-5 input diff.
            sc.walk.begin(t.len());
            for &s in dirty.slots().iter().chain(&sc.mem_dirty) {
                sc.walk.mark(s as usize);
            }
            sc.mem_dirty.clear();
            sc.state_dirty.clear();
            while let Some(s) = sc.walk.pop() {
                if !dirty.contains(s) {
                    sc.states_prev[s] = sc.states[s];
                }
                congestion::propagate_slot(tree, s, &mut sc.states);
                let st = sc.states[s];
                let old = sc.states_prev[s];
                if old.congested != st.congested {
                    sc.congested = sc.congested + st.congested as usize - old.congested as usize;
                    t.child_slots(s).for_each(|c| sc.walk.mark(c));
                }
                if old.congested != st.congested
                    || old.parent_congested != st.parent_congested
                    || old.loss.to_bits() != st.loss.to_bits()
                {
                    sc.state_dirty.push(s as u32);
                }
                let mut mem = sc.mem[s];
                if st.has_data || st.parent_congested {
                    mem.hist.push(st.congested);
                    mem.bytes_older = mem.bytes_recent;
                    mem.bytes_recent = st.max_bytes;
                } else {
                    // No-data subtree (every receiver below quarantined,
                    // evicted, or silenced by an outage): the interval is
                    // not evidence of anything, so the node inherits its
                    // prior state instead of recording a fabricated
                    // all-clear. The byte windows hold too — rotating a 0
                    // in would crater the goodput floor the reduce rules
                    // use once reports resume.
                    mem.hist.push(mem.hist.now());
                }
                if mem != sc.mem[s] {
                    sc.mem_dirty.push(s as u32);
                    sc.mem[s] = mem;
                }
            }
            congested_nodes += sc.congested;
        }
        if let Some(a) = stage_end(&mut audit, "stage1_congestion", stage_span) {
            a.congestion = congestion_audit(inputs.trees, &scratch);
        }

        // Stage 2: links holding an estimate always re-run —
        // creep/hold/recompute fire even on clean intervals — and links
        // under a changed observation re-run to learn. Skipping the rest
        // is provably a no-op: learning is a pure function of the link's
        // unchanged observations (it declined identically last time), and
        // the reset pass was proven empty before entry. A cold run makes
        // neither argument: it runs the reset pass and every crossed link.
        let stage_span = timing.then(Span::new);
        let mut cap_events: Vec<CapacityEvent> = Vec::new();
        let mut candidates: Vec<DirLinkId> = Vec::new();
        if cold {
            self.estimator.begin_interval(inputs.now, timing.then_some(&mut cap_events));
            candidates.clone_from(&cache.crossed_links);
        } else {
            candidates.extend(
                self.estimator
                    .iter()
                    .map(|(l, _)| l)
                    .filter(|l| cache.crossed_links.binary_search(l).is_ok()),
            );
            for &(sess, slot) in &state_changed {
                if slot != 0 {
                    candidates.push(inputs.trees[sess as usize].in_link_at(slot as usize));
                }
            }
            candidates.sort_unstable();
            candidates.dedup();
        }
        let mut cap_changed: Vec<DirLinkId> = Vec::new();
        let mut run_buf: Vec<SessionLinkObs> = Vec::new();
        for &link in &candidates {
            let lo = cache.usage.partition_point(|&(l, _, _)| l < link);
            let hi = cache.usage.partition_point(|&(l, _, _)| l <= link);
            run_buf.clear();
            for &(_, sess, slot) in &cache.usage[lo..hi] {
                let st = scratch[sess as usize].states[slot as usize];
                run_buf.push(SessionLinkObs {
                    session: inputs.trees[sess as usize].session(),
                    loss: st.loss,
                    bytes: st.max_bytes,
                });
            }
            let before = self.estimator.capacity(link).map(f64::to_bits);
            self.estimator.update_link(
                inputs.now,
                inputs.interval,
                link,
                &run_buf,
                &cfg,
                timing.then_some(&mut cap_events),
            );
            if self.estimator.capacity(link).map(f64::to_bits) != before {
                cap_changed.push(link);
            }
        }
        if let Some(a) = stage_end(&mut audit, "stage2_capacity", stage_span) {
            // Reset events surface in HashMap iteration order; a stable
            // sort by link makes the record deterministic while keeping
            // a link's reset ahead of its re-learn.
            cap_events.sort_by_key(|&(l, _, _)| l);
            a.capacity = capacity_audit(&cap_events);
        }

        // Stage 3: the bottleneck curves are a pure function of tree +
        // estimates, so only sessions crossing a changed link need a
        // recompute (every session when cold).
        let est = &self.estimator;
        let stage_span = timing.then(Span::new);
        if cold || !cap_changed.is_empty() {
            for (tree, sc) in inputs.trees.iter().zip(scratch.iter_mut()) {
                let crosses = |s| cap_changed.binary_search(&tree.in_link_at(s)).is_ok();
                if cold || (1..tree.tree().len()).any(crosses) {
                    bottleneck::compute_into(
                        tree,
                        |l| est.capacity(l),
                        &mut sc.bottleneck,
                        &mut sc.max_handle,
                    );
                }
            }
        }
        if let Some(a) = stage_end(&mut audit, "stage3_bottleneck", stage_span) {
            a.bottleneck = bottleneck_audit(inputs.trees, &scratch);
        }

        // Stage 4: session-granular refresh around the changed
        // capacities, a no-op when none changed; the full cross-session
        // pass when cold.
        let stage_span = timing.then(Span::new);
        let refreshed_sessions: Vec<u32> = if cold {
            sharing::compute_into(
                inputs.trees,
                inputs.specs,
                |l| est.capacity(l),
                &mut self.sharing_scratch,
            );
            (0..nsess as u32).collect()
        } else {
            sharing::compute_incremental_into(
                inputs.trees,
                inputs.specs,
                |l| est.capacity(l),
                &mut self.sharing_scratch,
                &cap_changed,
            )
        };
        if let Some(a) = stage_end(&mut audit, "stage4_sharing", stage_span) {
            a.sharing = sharing_audit(&self.sharing_scratch, inputs.trees);
        }

        // Stage 5 per session (sequential: shares one RNG stream).
        let stage_span = timing.then(Span::new);
        for (k, tree) in inputs.trees.iter().enumerate() {
            let sid = tree.session();
            let spec = inputs.specs[k];
            let t = tree.tree();
            let sc = &mut scratch[k];
            let cs = &mut cache.sessions[k];

            let border_cap = Self::border_cap_of(&self.border_caps, sid);
            let border_cap_moved = border_cap != Self::border_cap_of(&cache.border_caps, sid);
            // Rebuild the stage-5 inputs of every candidate slot and diff
            // them against the cached copy to find the dirty decisions.
            dirty.begin(t.len());
            dirty_aux.begin(t.len());
            sc.walk.begin(t.len());
            if refreshed_sessions.binary_search(&(k as u32)).is_ok() {
                // Sharing refreshed this session's allowances: any slot's
                // level cap may have moved, so every slot is a candidate.
                for s in t.slots() {
                    dirty_aux.mark(s);
                }
            } else {
                // Allowances untouched: a slot's inputs can only have moved
                // through one of its trackable feeds — a re-folded
                // observation, a memory write (stage-1 fold this interval
                // or stage-5 persistence last interval), or a congestion
                // state change at the slot, its parent, or a sibling.
                if border_cap_moved {
                    // The cap feeds exactly one input — the root's level
                    // cap — so the root is the (only) candidate; the
                    // supply walk below carries the change down.
                    dirty_aux.mark(0);
                }
                for &s in &sc.obs_dirty {
                    dirty_aux.mark(s as usize);
                }
                for &s in &sc.mem_dirty {
                    dirty_aux.mark(s as usize);
                }
                for &s in &cs.mem5_dirty {
                    dirty_aux.mark(s as usize);
                }
                // Per-edge layer moves (routing unchanged — the entry
                // precondition) alter the no-report fallback level of
                // exactly their own slot.
                for s in 1..t.len() {
                    if tree.max_layer_at(s) != cs.tree.max_layer_at(s) {
                        dirty_aux.mark(s);
                    }
                }
                for i in 0..sc.state_dirty.len() {
                    let s = sc.state_dirty[i] as usize;
                    dirty_aux.mark(s);
                    // Siblings read this slot's `congested` in their
                    // sibling scan.
                    if sc.states_prev[s].congested != sc.states[s].congested {
                        if let Some(p) = t.parent_slot_of(s) {
                            for sib in t.child_slots(p) {
                                dirty_aux.mark(sib);
                            }
                        }
                    }
                }
            }
            for &s in dirty_aux.slots() {
                let s = s as usize;
                let (inp, lc) = stage5_input_at(
                    tree,
                    k,
                    spec,
                    &cfg,
                    inputs.interval,
                    &self.sharing_scratch,
                    &sc.obs,
                    &sc.states,
                    &sc.mem,
                    &sc.max_handle,
                    border_cap,
                    s,
                );
                // Cold buffers hold placeholders, not a previous interval.
                if cold || inp != sc.inputs[s] || lc != sc.level_cap[s] {
                    if lc != sc.level_cap[s] {
                        sc.walk.mark(s);
                    }
                    sc.inputs[s] = inp;
                    sc.level_cap[s] = lc;
                    dirty.mark(s);
                }
            }

            let backoffs = self.backoffs.entry(sid).or_default();
            // A receiver sitting below the level we last supplied while its
            // loss is high just aborted a failed probe (possibly
            // unilaterally, if our drop suggestion died at the congested
            // link). Arm the backoff for the abandoned level here, because
            // the decision table never will: by the time it runs, the
            // receiver's current level already equals the reduced target.
            // Full width even when warm: the scan order is the RNG draw
            // order.
            for s in t.slots() {
                let Some(o) = sc.obs[s] else { continue };
                let st = sc.states[s];
                let mem = sc.mem[s];
                if st.loss > cfg.high_loss && o.level < mem.supply_recent {
                    backoffs.arm(t.node_at(s), mem.supply_recent, inputs.now, &cfg, &mut self.rng);
                }
            }
            // Like the dense kernel, expire timers before the demand pass
            // and answer every `blocked` query of the pass from one view.
            // After `expire` the view is a function of the timer key set,
            // so a warm run refills it only when that set changed, and
            // re-decides the slots whose row moved.
            backoffs.expire(inputs.now);
            if cold || backoffs.generation() != sc.blocked_gen {
                std::mem::swap(&mut sc.blocked, &mut sc.blocked_prev);
                backoffs.fill_blocked(tree, spec.max_level(), inputs.now, &mut sc.blocked);
                sc.blocked_gen = backoffs.generation();
                sc.blocked.changed_rows(&sc.blocked_prev, t.len(), |s| {
                    dirty.mark(s);
                });
            }
            // A slot that held a timer after the previous run re-decides
            // itself (its branch may arm again and draw); what the timer
            // does to its subtree is the view's row diff above. Timers are
            // armed only by the decide loop and a restore starts cold, so
            // on a warm run this covers every live timer too.
            for &s in &cs.backoff_slots {
                dirty.mark(s as usize);
            }

            // Demand over dirty slots, in the dense kernel's bottom-up
            // order. A clean slot repeats last interval's decision by
            // construction (same inputs, same children demands, same
            // view row — and no RNG draw: had its branch armed a timer,
            // the slot would hold one and be dirty). A changed demand
            // dirties the parent, which sits at a lower slot and is
            // therefore still ahead of the scan, and seeds the supply
            // walk and the persistence below.
            dirty_aux.begin(t.len());
            for s in (0..t.len()).rev() {
                if !dirty.contains(s) {
                    continue;
                }
                let (d, br) = subscription::decide_slot(
                    tree,
                    spec,
                    &cfg,
                    inputs.now,
                    s,
                    &sc.inputs[s],
                    sc.level_cap[s],
                    &sc.demand,
                    &sc.blocked,
                    backoffs,
                    &mut self.rng,
                );
                slots_recomputed += 1;
                if timing {
                    sc.branches[s] = br;
                }
                if sc.demand[s] != d {
                    sc.demand[s] = d;
                    sc.walk.mark(s);
                    dirty_aux.mark(s);
                    if let Some(p) = t.parent_slot_of(s) {
                        dirty.mark(p);
                    }
                }
            }
            // Supply follows the slots whose demand or level cap moved;
            // cold buffers hold placeholders, so a cold run fills it all.
            if cold {
                subscription::supply_pass(tree, &sc.demand, &sc.level_cap, &mut sc.supply);
            } else {
                subscription::supply_walk(
                    tree,
                    &sc.demand,
                    &sc.level_cap,
                    &mut sc.supply,
                    &mut sc.walk,
                    |s| {
                        dirty_aux.mark(s);
                    },
                );
            }

            // Persist the new supply/demand windows into the dense copies
            // only; the `memories` map is synced lazily on the next cold
            // start. The windows are a function of (memory, supply,
            // demand), so a warm run visits only the slots whose supply or
            // demand moved and those whose memory this step changed last
            // run — everywhere else it is a fixed point. Slots whose
            // memory moved feed the next interval's input diff.
            if cold {
                for s in t.slots() {
                    dirty_aux.mark(s);
                }
            }
            for &s in &cs.mem5_dirty {
                dirty_aux.mark(s as usize);
            }
            cs.mem5_dirty.clear();
            for &s in dirty_aux.slots() {
                let s = s as usize;
                let mut mem = sc.mem[s];
                mem.supply_older = mem.supply_recent;
                mem.supply_recent = sc.supply[s];
                mem.demand_prev = Some(sc.demand[s]);
                if mem != sc.mem[s] {
                    cs.mem5_dirty.push(s as u32);
                    sc.mem[s] = mem;
                }
            }
            outputs.root_supply.push(sc.supply[0]);

            // Suggestions via the cached route, in registry order.
            for &(app, slot) in &cs.sugg_route {
                outputs.suggestions.push(SuggestionOut {
                    receiver: app,
                    session: sid,
                    level: sc.supply[slot as usize].clamp(1, spec.max_level()),
                });
            }

            if let Some(a) = audit.as_deref_mut() {
                let mut suggested: Vec<Option<u8>> = vec![None; t.len()];
                for &(_, slot) in &cs.sugg_route {
                    suggested[slot as usize] =
                        Some(sc.supply[slot as usize].clamp(1, spec.max_level()));
                }
                a.subscription.push(subscription_session_audit(tree, sc, &suggested));
            }
        }
        stage_end(&mut audit, "stage5_subscription", stage_span);
        stage_end(&mut audit, "interval", whole_span);

        // Estimated links, over the sorted crossed-link list.
        for &l in &cache.crossed_links {
            if let Some(c) = self.estimator.capacity(l) {
                outputs.estimated_links.push((l, c));
            }
        }
        outputs.congested_nodes = congested_nodes;
        outputs.slots_recomputed = slots_recomputed;

        // Refresh the cache for the next interval: new report values
        // (keys unchanged), the border caps just applied, fresh backoff
        // snapshots, and — without an audit — stale branch labels at the
        // slots just re-decided.
        cache.reports.clear();
        cache.reports.extend_from_slice(inputs.reports);
        cache.border_caps.clear();
        cache.border_caps.extend_from_slice(&self.border_caps);
        for (k, tree) in inputs.trees.iter().enumerate() {
            let t = tree.tree();
            let cs = &mut cache.sessions[k];
            // Adopt this interval's per-edge layers (routing is unchanged
            // by the entry precondition): the next interval's layer diff
            // must run against what stage 5 just decided from.
            if !tree.structure_eq(&cs.tree) {
                cs.tree = tree.clone();
            }
            cs.backoff_slots.clear();
            if let Some(b) = self.backoffs.get(&tree.session()) {
                cs.backoff_slots
                    .extend(b.armed_nodes().filter_map(|n| t.slot_of(n)).map(|s| s as u32));
            }
            cs.backoff_slots.sort_unstable();
            cs.backoff_slots.dedup();
        }
        // Warm audited runs require current labels on entry, so the labels
        // are current afterwards exactly when this run wrote its own.
        cache.branches_valid = timing;

        scratch.extend(spare);
        self.scratch = scratch;
        self.cache = cache;
        self.dirty = dirty;
        self.dirty_aux = dirty_aux;
        self.runs += 1;
        outputs
    }
}

/// Close a stage: record its wall span (audited runs only) and hand back
/// the audit for the stage's record.
fn stage_end<'a>(
    audit: &'a mut Option<&mut IntervalAudit>,
    stage: &'static str,
    span: Option<Span>,
) -> Option<&'a mut IntervalAudit> {
    let a = audit.as_deref_mut()?;
    a.stage_ns.extend(span.map(|s| (stage, s.elapsed_ns())));
    Some(a)
}

/// The stage-5 decision inputs and level cap of a single slot, from the
/// stage-1..4 results.
#[allow(clippy::too_many_arguments)]
fn stage5_input_at(
    tree: &SessionTree,
    sess_idx: usize,
    spec: &LayerSpec,
    cfg: &Config,
    interval: SimDuration,
    sharing: &SharingScratch,
    obs: &[Option<LeafObs>],
    states: &[NodeState],
    mem: &[NodeMemory],
    max_handle: &[f64],
    border_cap: u8,
    s: usize,
) -> (NodeInputs, u8) {
    let t = tree.tree();
    let st = states[s];
    let sibling_congested = match t.parent_slot_of(s) {
        None => false,
        Some(p) => t.child_slots(p).any(|c| c != s && states[c].congested),
    };
    let m = mem[s];
    // Receivers that did not report this interval fall back to
    // the subscription implied by the tree itself.
    let reported = obs[s]
        .map(|o| o.level)
        .or_else(|| (s != 0).then(|| tree.max_layer_at(s).saturating_add(1)));
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
        if st.congested || st.loss > cfg.p_threshold {
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
            / interval.as_secs_f64().max(1e-9),
    };
    let bw = sharing.allowed_at(sess_idx, s).min(max_handle[s]);
    let mut lc = spec.level_fitting(bw);
    if s == 0 {
        // Federation border cap (DESIGN.md §16): an externally imposed
        // ceiling on what this domain's root may carry. Applied at the
        // root only — the top-down supply pass min-folds it over every
        // slot, so one capped slot steers the whole domain.
        lc = lc.min(border_cap);
    }
    (inp, lc)
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
                        let st = sc.states[s];
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
fn sharing_audit(sharing: &SharingScratch, trees: &[SessionTree]) -> Vec<SharingEntry> {
    sharing
        .shares_sorted()
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
                demand: sc.demand[s],
                supply: sc.supply[s],
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
        let inputs = AlgorithmInputs {
            now: SimTime::from_secs(now_secs),
            interval: SimDuration::from_secs(2),
            trees: std::slice::from_ref(tree),
            specs: &[spec],
            registry: &registry,
            reports,
        };
        state.run(&inputs)
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
        let mut state = AlgorithmState::new(Config::default(), 1);
        let inputs = AlgorithmInputs {
            now: SimTime::from_secs(2),
            interval: SimDuration::from_secs(2),
            trees: std::slice::from_ref(&tree),
            specs: &[&spec],
            registry: &[(AppId(10), n(2), SessionId(0))],
            reports: &[],
        };
        let out = state.run(&inputs);
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
        let registry = vec![(AppId(10), n(2), SessionId(0)), (AppId(11), n(3), SessionId(0))];
        let mut full = AlgorithmState::new(Config::default(), 42);
        let mut inc = AlgorithmState::new(Config::default(), 42);
        for t in 1..40u64 {
            let reports = churn_reports(t);
            let inputs = AlgorithmInputs {
                now: SimTime::from_secs(2 * t),
                interval: SimDuration::from_secs(2),
                trees: std::slice::from_ref(&tree),
                specs: &[&spec],
                registry: &registry,
                reports: &reports,
            };
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
            let inputs = AlgorithmInputs {
                now: SimTime::from_secs(2 * t),
                interval: SimDuration::from_secs(2),
                trees: std::slice::from_ref(&tree),
                specs: &[&spec],
                registry: &registry,
                reports: &reports,
            };
            let a = full.run(&inputs);
            let b = inc.run_incremental(&inputs);
            assert_eq!(a.suggestions, b.suggestions, "interval {t}");
            assert_eq!(timers(&full), timers(&inc), "interval {t}");
        }
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
            let inputs = AlgorithmInputs {
                now: SimTime::from_secs(2 * t),
                interval: SimDuration::from_secs(2),
                trees: std::slice::from_ref(&tree),
                specs: &[&spec],
                registry: &registry,
                reports: &reports,
            };
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
        let registry = vec![(AppId(10), n(2), SessionId(0)), (AppId(11), n(3), SessionId(0))];
        let mut full = AlgorithmState::new(Config::default(), 5);
        let mut inc = AlgorithmState::new(Config::default(), 5);
        for t in 1..25u64 {
            let reports = churn_reports(t);
            let inputs = AlgorithmInputs {
                now: SimTime::from_secs(2 * t),
                interval: SimDuration::from_secs(2),
                trees: std::slice::from_ref(&tree),
                specs: &[&spec],
                registry: &registry,
                reports: &reports,
            };
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
            AuditAfterUnaudited,
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
            (19, AuditAfterUnaudited),
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
            // Audited on its trigger round and the one after, which must
            // then be served warm (the labels are current).
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
        let registry = vec![(AppId(10), n(2), SessionId(0)), (AppId(11), n(3), SessionId(0))];
        let mut full = AlgorithmState::new(Config::default(), 3);
        let mut inc = AlgorithmState::new(Config::default(), 3);
        for t in 1..30u64 {
            let reports = churn_reports(t);
            let inputs = AlgorithmInputs {
                now: SimTime::from_secs(2 * t),
                interval: SimDuration::from_secs(2),
                trees: std::slice::from_ref(&tree),
                specs: &[&spec],
                registry: &registry,
                reports: &reports,
            };
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
