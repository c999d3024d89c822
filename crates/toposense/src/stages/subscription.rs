//! Stage 5 — computing subscription levels.
//!
//! Two passes per session:
//!
//! * **demand**, bottom-up, driven by the Table I decision table. A leaf's
//!   demand starts from its current subscription; an internal node's from
//!   the aggregate (max) of its children. If a node's parent is congested
//!   the node defers — "in case of congestion in a sub-tree, action is
//!   taken by the root of that sub-tree". A node that reduces its demand
//!   sets a **backoff timer for the highest layer being dropped** so no
//!   receiver in the subtree re-subscribes it soon — this is how receiver
//!   coordination is achieved.
//! * **supply**, top-down: each node gets the minimum of its demand, its
//!   parent's supply, and the stage-3/4 bandwidth cap. Leaf supplies are
//!   the suggestions sent to receivers.
#![deny(clippy::too_many_lines)]

use crate::config::Config;
use crate::decision::{decide, Action, NodeKind, SupplyWindow};
use crate::history::{BwEquality, CongestionHistory};
use netsim::{NodeId, RngStream, SimTime};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use topology::{DirtySet, SessionTree, SlotQueue};
use traffic::LayerSpec;

/// Per-node inputs assembled by the algorithm driver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeInputs {
    /// 3-bit congestion history with the current interval at bit 0.
    pub hist: CongestionHistory,
    /// Whether the parent is congested this interval (defer if so).
    pub parent_congested: bool,
    /// Whether any sibling subtree is congested this interval. Adding a
    /// layer while a sibling hurts is exactly the topology-blind mistake of
    /// Fig. 1 — the shared upstream link may be the cause — so exploration
    /// pauses until the neighbourhood is clean.
    pub sibling_congested: bool,
    /// BW-equality classification of the last two intervals.
    pub bw: BwEquality,
    /// Effective loss rate this interval.
    pub loss: f64,
    /// Supply allocated two runs ago (`T0–Tn`, the older window), levels.
    pub supply_older: u8,
    /// Supply allocated last run (`Tn–T2n`, the recent window), levels.
    pub supply_recent: u8,
    /// Demand computed last run.
    pub demand_prev: Option<u8>,
    /// Current subscription level (receiver-hosting nodes).
    pub current_level: Option<u8>,
    /// Bandwidth demonstrably delivered to the subtree this interval
    /// (max receiver bytes x 8 / interval). Reductions never go below the
    /// level this goodput fits: that much bandwidth evidently exists, so
    /// shedding further only under-subscribes (see DESIGN.md §5).
    pub goodput_bps: f64,
}

impl Default for NodeInputs {
    fn default() -> Self {
        NodeInputs {
            hist: CongestionHistory::new(),
            parent_congested: false,
            sibling_congested: false,
            bw: BwEquality::Equal,
            loss: 0.0,
            supply_older: 1,
            supply_recent: 1,
            demand_prev: None,
            current_level: None,
            goodput_bps: 0.0,
        }
    }
}

/// Per-session backoff timers: `(node, level) -> expiry`.
///
/// A leaf may raise its demand to `level` only if neither it nor any
/// ancestor holds an active backoff for that level.
#[derive(Clone, Debug, Default)]
pub struct BackoffTable {
    until: HashMap<(NodeId, u8), SimTime>,
    /// How often this (node, level) has been backed off; each repeat
    /// doubles the drawn duration (capped), so a layer that keeps failing
    /// gets probed more and more rarely — the same exponential persistence
    /// RLM applies to its join timers.
    failures: HashMap<(NodeId, u8), u32>,
    /// Bumped whenever the key set of `until` changes (a new
    /// `(node, level)` timer, or an expiry that removes one). Once
    /// [`Self::expire`] has run, [`Self::fill_blocked`] depends on the key
    /// set alone, so an unchanged generation means an unchanged view.
    generation: u64,
}

/// Cap on the exponential backoff doubling (2^3 = 8x the base draw).
const MAX_BACKOFF_EXPONENT: u32 = 3;

impl BackoffTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm a timer at `node` for `level`, drawing a random base duration
    /// from `cfg` and doubling it per previous failure of the same pair.
    pub fn arm(
        &mut self,
        node: NodeId,
        level: u8,
        now: SimTime,
        cfg: &Config,
        rng: &mut RngStream,
    ) {
        let fails = self.failures.entry((node, level)).or_insert(0);
        let lo = cfg.backoff_min.nanos();
        let hi = cfg.backoff_max.nanos().max(lo + 1);
        let base = rng.range_u64(lo, hi);
        let scaled = base.saturating_mul(1 << (*fails).min(MAX_BACKOFF_EXPONENT));
        *fails += 1;
        self.set(node, level, now + netsim::SimDuration(scaled));
    }

    /// Arm a timer at `node` for `level` with an explicit expiry.
    /// Re-arming a live timer only ever raises its expiry.
    pub fn set(&mut self, node: NodeId, level: u8, until: SimTime) {
        match self.until.entry((node, level)) {
            Entry::Occupied(mut e) => *e.get_mut() = (*e.get()).max(until),
            Entry::Vacant(e) => {
                e.insert(until);
                self.generation += 1;
            }
        }
    }

    /// Is subscribing `level` blocked at `node` (checking ancestors too)?
    /// The `NodeId`-keyed oracle of the dense `BlockedView`: the driver and
    /// [`Buffers::step`] test one bit of the view instead of walking.
    pub fn blocked(&self, tree: &SessionTree, node: NodeId, level: u8, now: SimTime) -> bool {
        if self.until.is_empty() {
            return false;
        }
        let t = tree.tree();
        let mut cur = Some(node);
        while let Some(n) = cur {
            if self.until.get(&(n, level)).is_some_and(|&u| u > now) {
                return true;
            }
            cur = t.parent(n);
        }
        false
    }

    /// Drop expired timers.
    pub fn expire(&mut self, now: SimTime) {
        let before = self.until.len();
        self.until.retain(|_, &mut u| u > now);
        if self.until.len() != before {
            self.generation += 1;
        }
    }

    /// Changes whenever the set of timer keys does (see the field). The
    /// driver refills its [`BlockedView`] only when this moved since the
    /// last fill.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Fill `view` with what [`Self::blocked`] answers at `now` for every
    /// slot of `tree` and every level up to `max_level`: each live timer
    /// sets its own slot's bit, then one top-down pass ORs every parent
    /// row into its children's (parents precede children in slot order).
    /// Timers on nodes outside the tree are never on a walk from a tree
    /// node, and levels above `max_level` are never asked about, so both
    /// are skipped. The buffer is reused; an empty table leaves it empty
    /// and costs no pass.
    pub(crate) fn fill_blocked(
        &self,
        tree: &SessionTree,
        max_level: u8,
        now: SimTime,
        view: &mut BlockedView,
    ) {
        let t = tree.tree();
        let words = max_level as usize / 64 + 1;
        view.words = words;
        view.bits.clear();
        if self.until.is_empty() {
            return;
        }
        view.bits.resize(t.len() * words, 0);
        for (&(node, level), &until) in &self.until {
            if until > now && level <= max_level {
                if let Some(s) = t.slot_of(node) {
                    view.bits[s * words + level as usize / 64] |= 1 << (level % 64);
                }
            }
        }
        for s in 1..t.len() {
            let p = t.parent_slot_of(s).expect("only slot 0 is the root");
            for w in 0..words {
                view.bits[s * words + w] |= view.bits[p * words + w];
            }
        }
    }

    /// The nodes holding at least one timer, in `HashMap` iteration order
    /// (callers needing determinism must sort). The incremental path
    /// re-decides these slots the next interval: a slot whose branch arms
    /// a timer holds one afterwards, so its RNG draws are never skipped.
    pub fn armed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.until.keys().map(|&(node, _)| node)
    }

    /// Flatten the table to `(node, level, expiry, failures)` sorted by
    /// `(node, level)` — the checkpoint-stable rendering. Failure counts
    /// without a live timer are kept: they scale future backoff draws.
    pub(crate) fn snapshot(&self) -> Vec<(NodeId, u8, Option<SimTime>, u32)> {
        let mut keys: Vec<(NodeId, u8)> =
            self.until.keys().chain(self.failures.keys()).copied().collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .map(|k| {
                (k.0, k.1, self.until.get(&k).copied(), self.failures.get(&k).copied().unwrap_or(0))
            })
            .collect()
    }

    /// Rebuild a table from a [`Self::snapshot`] rendering.
    pub(crate) fn restore(entries: &[(NodeId, u8, Option<SimTime>, u32)]) -> Self {
        let mut t = Self::new();
        for &(node, level, until, fails) in entries {
            if let Some(u) = until {
                t.until.insert((node, level), u);
            }
            if fails > 0 {
                t.failures.insert((node, level), fails);
            }
        }
        t
    }

    /// Number of live timers (diagnostics).
    pub fn len(&self) -> usize {
        self.until.len()
    }

    /// True when no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.until.is_empty()
    }
}

/// The dense form of [`BackoffTable::blocked`]: one bit row per tree slot
/// (`max_level / 64 + 1` words), bit `level` set when the slot or one of
/// its ancestors holds a live timer for `level`. Filled once per interval
/// by [`BackoffTable::fill_blocked`], after the table has expired its
/// timers and before the demand pass.
///
/// The view stays exact through the pass although timers are armed while
/// it runs: only leaves query, a timer is armed at the slot being decided
/// and can only block that slot's subtree, and in bottom-up order every
/// leaf below it has already decided (a leaf arming at itself does so
/// after its own query, in a different Table I branch).
#[derive(Clone, Debug, Default)]
pub(crate) struct BlockedView {
    words: usize,
    /// `slots x words` bit rows; empty when the table held no timer.
    bits: Vec<u64>,
}

impl BlockedView {
    /// Is subscribing `level` (at most the `max_level` the view was filled
    /// for) blocked at `slot`?
    pub(crate) fn blocked(&self, slot: usize, level: u8) -> bool {
        let l = level as usize;
        debug_assert!(l / 64 < self.words, "level {level} beyond the view's rows");
        self.bits.get(slot * self.words + l / 64).is_some_and(|w| w >> (l % 64) & 1 != 0)
    }

    /// Word `w` of `slot`'s row; a row or word the view lacks (an empty
    /// view, a shorter tree, a narrower row) reads as unblocked.
    fn word(&self, slot: usize, w: usize) -> u64 {
        if w >= self.words {
            return 0;
        }
        self.bits.get(slot * self.words + w).copied().unwrap_or(0)
    }

    /// Call `changed` for every slot below `slots` at which [`Self::blocked`]
    /// answers differently from `prev` for some level. `prev` may have been
    /// filled for a tree of another length or for another `max_level`.
    pub(crate) fn changed_rows(
        &self,
        prev: &BlockedView,
        slots: usize,
        mut changed: impl FnMut(usize),
    ) {
        if self.bits.is_empty() && prev.bits.is_empty() {
            return;
        }
        let words = self.words.max(prev.words);
        for s in 0..slots {
            if (0..words).any(|w| self.word(s, w) != prev.word(s, w)) {
                changed(s);
            }
        }
    }
}

/// What one session's stage-5 decisions read besides the per-slot buffers.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub tree: &'a SessionTree,
    pub spec: &'a LayerSpec,
    pub cfg: &'a Config,
    pub now: SimTime,
}

/// One session's stage-5 buffers, slot-indexed and reused across
/// intervals.
#[derive(Debug, Default)]
pub struct Buffers {
    /// Decision inputs and level cap (the stage-3/4 bandwidth cap, in
    /// levels) per slot.
    pub inputs: Vec<NodeInputs>,
    pub level_cap: Vec<u8>,
    /// The two passes' results per slot.
    pub demand: Vec<u8>,
    pub supply: Vec<u8>,
    /// The blocked-level view as of the last fill, the fill before it, and
    /// the backoff table's generation at the last fill (`None`: the view
    /// describes no table yet).
    pub(crate) blocked: BlockedView,
    blocked_prev: BlockedView,
    pub(crate) blocked_gen: Option<u64>,
    /// Supply's top-down work list: the slots whose level cap or demand
    /// moved since `supply` was last consistent.
    pub queue: SlotQueue,
}

impl Buffers {
    /// Size the buffers for a tree of `len` slots with placeholders no
    /// step has decided from: demand and supply at the base layer, and
    /// inputs no rebuilt input equals (a NaN loss), so the first step
    /// decides every slot handed to it.
    pub fn reset(&mut self, len: usize) {
        let unseen = NodeInputs { loss: f64::NAN, ..NodeInputs::default() };
        self.inputs.clear();
        self.inputs.resize(len, unseen);
        self.level_cap.clear();
        self.level_cap.resize(len, 0);
        self.demand.clear();
        self.demand.resize(len, 1);
        self.supply.clear();
        self.supply.resize(len, 1);
        self.blocked_gen = None;
    }

    /// Stage 5's step over one session. Expires the table's timers, and
    /// refills the blocked view when the table's key set moved since the
    /// last fill, adding the slots whose row moved to `decide`. Then
    /// re-decides every slot in `decide` in bottom-up order — a slot whose
    /// demand moves queues its parent, still ahead of the scan, and itself
    /// for supply — and walks supply top-down from `queue`, queueing the
    /// children of every slot whose supply moves.
    ///
    /// Backoff timers stay keyed by [`NodeId`] because they outlive any one
    /// tree shape; the bottom-up slot order equals the reverse-BFS node
    /// order, which fixes the RNG draw sequence.
    ///
    /// `decided(slot, branch)` sees every decision and its Table I branch
    /// label (like `"leaf.add"` or `"internal.reduce_half"`); `moved(slot)`
    /// every slot whose demand or supply moved. Neither can change a
    /// decision or the RNG draw sequence, which is what keeps telemetry a
    /// pure observer.
    pub fn step(
        &mut self,
        cx: Ctx<'_>,
        backoffs: &mut BackoffTable,
        rng: &mut RngStream,
        decide: &mut DirtySet,
        mut decided: impl FnMut(usize, &'static str),
        mut moved: impl FnMut(usize),
    ) {
        let t = cx.tree.tree();
        // After `expire` the view is a function of the timer key set.
        backoffs.expire(cx.now);
        if self.blocked_gen != Some(backoffs.generation()) {
            std::mem::swap(&mut self.blocked, &mut self.blocked_prev);
            backoffs.fill_blocked(cx.tree, cx.spec.max_level(), cx.now, &mut self.blocked);
            self.blocked_gen = Some(backoffs.generation());
            self.blocked.changed_rows(&self.blocked_prev, t.len(), |s| {
                decide.mark(s);
            });
        }
        for s in t.slots_bottom_up() {
            if !decide.contains(s) {
                continue;
            }
            let (d, branch) = decide_slot(cx, s, self, backoffs, rng);
            decided(s, branch);
            if self.demand[s] != d {
                self.demand[s] = d;
                self.queue.mark(s);
                moved(s);
                if let Some(p) = t.parent_slot_of(s) {
                    decide.mark(p);
                }
            }
        }
        // The supply rule: the minimum of the slot's demand, its parent's
        // supply and its level cap — never below the base layer, which the
        // paper assumes every session keeps.
        while let Some(s) = self.queue.pop() {
            let parent = t.parent_slot_of(s).map_or(u8::MAX, |p| self.supply[p]);
            let v = self.demand[s].min(parent).min(self.level_cap[s]).max(1);
            if v != self.supply[s] {
                self.supply[s] = v;
                moved(s);
                t.child_slots(s).for_each(|c| self.queue.mark(c));
            }
        }
    }
}

/// The per-slot Table I decision kernel of [`Buffers::step`]: one slot's
/// demand (already clamped to the base layer) and branch label, given its
/// inputs, its children's (already computed) entries in `demand` and the
/// interval's [`BlockedView`].
fn decide_slot(
    cx: Ctx<'_>,
    s: usize,
    b: &Buffers,
    backoffs: &mut BackoffTable,
    rng: &mut RngStream,
) -> (u8, &'static str) {
    let Ctx { tree, spec, cfg, now } = cx;
    let (inp, cap, demand, view) = (b.inputs[s], b.level_cap[s], &b.demand, &b.blocked);
    let t = tree.tree();
    let cs = t.child_slots(s);
    let branch;
    let d = if cs.is_empty() {
        let cur = inp.current_level.unwrap_or(1).max(1);
        if inp.parent_congested {
            // Defer: the congested ancestor acts for the subtree.
            branch = "leaf.defer";
            cur
        } else {
            let node = t.node_at(s);
            let floor = spec.level_fitting(inp.goodput_bps);
            match decide(NodeKind::Leaf, inp.hist, inp.bw) {
                Action::AddLayer => {
                    // Explore only after the current level has been held
                    // for two runs: loss feedback lags a join by about
                    // one interval, and climbing every interval would
                    // overshoot bottlenecks by several layers before the
                    // first loss report lands.
                    let settled = inp.supply_recent == cur && inp.supply_older == cur;
                    let target = cur.saturating_add(1).min(spec.max_level());
                    // Climbing toward a *freshly estimated fair share*
                    // is not an experiment — the bandwidth is known to
                    // exist — so neither the settling gate nor a backoff
                    // from an earlier over-subscription applies. This is
                    // what makes freed capacity get "fairly and fully
                    // utilized" quickly after a crash.
                    let known_safe = cap < spec.max_level() && target <= cap;
                    if target > cur
                        && !inp.sibling_congested
                        && (known_safe || (settled && !view.blocked(s, target)))
                    {
                        branch = "leaf.add";
                        target
                    } else {
                        branch = "leaf.add.hold";
                        cur
                    }
                }
                Action::DropIfLossHigh => {
                    if inp.loss > cfg.high_loss && cur > 1 {
                        let d = reduce_target(cur - 1, floor, cap, cur);
                        if d < cur {
                            backoffs.arm(node, cur, now, cfg, rng);
                        }
                        branch = "leaf.drop_loss";
                        d
                    } else {
                        branch = "leaf.drop_loss.hold";
                        cur
                    }
                }
                Action::Maintain => {
                    branch = "leaf.maintain";
                    cur
                }
                Action::ReduceToSupply(w) => {
                    branch = "leaf.reduce_supply";
                    reduce_target(supply_of(&inp, w), floor, cap, cur)
                }
                Action::ReduceToHalfSupply { window, backoff } => {
                    let tgt = half_supply_level(spec, &inp, window);
                    let d = reduce_target(tgt, floor, cap, cur);
                    if backoff && cur > d {
                        backoffs.arm(node, cur, now, cfg, rng);
                    }
                    branch = "leaf.reduce_half";
                    d
                }
                Action::ReduceToHalfSupplyIfLossVeryHigh(w) => {
                    if inp.loss > cfg.very_high_loss {
                        let tgt = half_supply_level(spec, &inp, w);
                        branch = "leaf.reduce_half_vhl";
                        reduce_target(tgt, floor, cap, cur)
                    } else {
                        branch = "leaf.reduce_half_vhl.hold";
                        cur
                    }
                }
                Action::AcceptChildren => unreachable!("leaf cannot accept children"),
            }
        }
    } else {
        let childmax = cs.map(|c| demand[c]).max().unwrap_or(1);
        if inp.parent_congested {
            branch = "internal.defer";
            childmax
        } else {
            let floor = spec.level_fitting(inp.goodput_bps);
            match decide(NodeKind::Internal, inp.hist, inp.bw) {
                Action::AcceptChildren => {
                    branch = "internal.accept";
                    childmax
                }
                Action::Maintain => {
                    branch = "internal.maintain";
                    childmax.min(inp.demand_prev.unwrap_or(childmax))
                }
                Action::ReduceToHalfSupply { window, backoff } => {
                    let tgt = half_supply_level(spec, &inp, window);
                    let d = reduce_target(tgt, floor, cap, childmax);
                    if backoff && childmax > d {
                        backoffs.arm(t.node_at(s), childmax, now, cfg, rng);
                    }
                    branch = "internal.reduce_half";
                    d
                }
                other => unreachable!("internal rows never yield {other:?}"),
            }
        }
    };
    (d.max(1), branch)
}

/// Clamp a table-prescribed reduction `target` (from `basis`, the current
/// level or child max):
///
/// * never below the **goodput floor** — the level whose cumulative rate
///   the subtree demonstrably received this interval;
/// * snapped up to the fair-share **cap** when the cap is what explains the
///   congestion (we are above it): reducing below the freshly estimated
///   fair share only under-subscribes and re-probes later;
/// * never above `basis` (this is a reduction) and never below base.
pub(crate) fn reduce_target(target: u8, floor: u8, cap: u8, basis: u8) -> u8 {
    let mut t = target.max(floor);
    if cap < basis {
        t = t.max(cap);
    }
    t.min(basis).max(1)
}

pub(crate) fn supply_of(inp: &NodeInputs, w: SupplyWindow) -> u8 {
    match w {
        SupplyWindow::Older => inp.supply_older,
        SupplyWindow::Recent => inp.supply_recent,
    }
}

/// The level whose cumulative rate fits half the window's supplied
/// bandwidth (never below the base layer).
pub(crate) fn half_supply_level(spec: &LayerSpec, inp: &NodeInputs, w: SupplyWindow) -> u8 {
    let bw = spec.cumulative_rate(supply_of(inp, w)) / 2.0;
    spec.level_fitting(bw).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{DirLinkId, GroupId, GroupSnapshot, SessionId, SimTime};
    use topology::discovery::{LinkView, TopologyView};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Tree 0 -> 1 -> {2, 3}; receivers at 2 and 3.
    fn tree() -> SessionTree {
        tree_of(&[0, 1, 1])
    }

    /// The tree rooted at node 0 in which node `i + 1` hangs under node
    /// `parents[i]`; every node is a member.
    fn tree_of(parents: &[u32]) -> SessionTree {
        let links: Vec<LinkView> = parents
            .iter()
            .enumerate()
            .map(|(i, &p)| LinkView { id: DirLinkId(i as u32), from: n(p), to: n(i as u32 + 1) })
            .collect();
        let view = TopologyView {
            time: SimTime::ZERO,
            groups: vec![GroupSnapshot {
                group: GroupId(0),
                root: n(0),
                active_links: links.iter().map(|l| l.id).collect(),
                member_nodes: (0..=parents.len() as u32).map(n).collect(),
            }],
            links,
        };
        SessionTree::build(&view, SessionId(0), &[GroupId(0)]).unwrap()
    }

    /// The step over every slot of `cx.tree`, as changed, from the given
    /// inputs and caps; `branches` optionally receives the branch labels.
    fn decide_all(
        cx: Ctx<'_>,
        inputs: &[NodeInputs],
        level_cap: &[u8],
        backoffs: &mut BackoffTable,
        rng: &mut RngStream,
        mut branches: Option<&mut Vec<&'static str>>,
    ) -> (Vec<u8>, Vec<u8>) {
        let t = cx.tree.tree();
        let mut b = Buffers::default();
        b.reset(t.len());
        b.inputs.copy_from_slice(inputs);
        b.level_cap.copy_from_slice(level_cap);
        let mut all = DirtySet::new();
        all.begin(t.len());
        b.queue.begin(t.len());
        for s in t.slots() {
            all.mark(s);
            b.queue.mark(s);
        }
        if let Some(br) = branches.as_deref_mut() {
            br.resize(t.len(), "");
        }
        let label = |s: usize, branch| branches.iter_mut().for_each(|br| br[s] = branch);
        b.step(cx, backoffs, rng, &mut all, label, |_| {});
        (b.demand, b.supply)
    }

    /// Stage-5 results keyed back by node.
    struct Out {
        demand: HashMap<NodeId, u8>,
        supply: HashMap<NodeId, u8>,
    }

    /// Run [`decide_all`] over [`tree`]: per-node inputs and caps
    /// are spread into slot vectors (absent nodes get default inputs).
    fn run(
        inputs: HashMap<NodeId, NodeInputs>,
        cap: impl Fn(NodeId) -> u8,
        backoffs: &mut BackoffTable,
        now: SimTime,
    ) -> Out {
        let tree = tree();
        let t = tree.tree();
        let nodes = || t.slots().map(|s| t.node_at(s));
        let slot_inputs: Vec<NodeInputs> =
            nodes().map(|n| inputs.get(&n).copied().unwrap_or_default()).collect();
        let level_cap: Vec<u8> = nodes().map(cap).collect();
        let mut rng = RngStream::derive(1, "stage5-test");
        let (spec, cfg) = (LayerSpec::paper_default(), Config::default());
        let cx = Ctx { tree: &tree, spec: &spec, cfg: &cfg, now };
        let (demand, supply) = decide_all(cx, &slot_inputs, &level_cap, backoffs, &mut rng, None);
        Out { demand: nodes().zip(demand).collect(), supply: nodes().zip(supply).collect() }
    }

    fn leaf_inp(level: u8, hist: u8, bw: BwEquality, loss: f64) -> NodeInputs {
        NodeInputs {
            hist: CongestionHistory::from_bits(hist),
            bw,
            loss,
            current_level: Some(level),
            supply_older: level,
            supply_recent: level,
            ..NodeInputs::default()
        }
    }

    #[test]
    fn uncongested_leaves_explore_one_layer() {
        let inputs = HashMap::from([
            (n(2), leaf_inp(2, 0, BwEquality::Equal, 0.0)),
            (n(3), leaf_inp(3, 0, BwEquality::Equal, 0.0)),
        ]);
        let r = run(inputs, |_| 6, &mut BackoffTable::new(), SimTime::from_secs(10));
        assert_eq!(r.supply[&n(2)], 3);
        assert_eq!(r.supply[&n(3)], 4);
        // Internal demand aggregates the max.
        assert_eq!(r.demand[&n(1)], 4);
    }

    #[test]
    fn cap_clamps_supply_but_not_demand() {
        let inputs = HashMap::from([
            (n(2), leaf_inp(3, 0, BwEquality::Equal, 0.0)),
            (n(3), leaf_inp(3, 0, BwEquality::Equal, 0.0)),
        ]);
        let r = run(inputs, |_| 2, &mut BackoffTable::new(), SimTime::from_secs(10));
        assert_eq!(r.demand[&n(2)], 4, "demand may explore past the cap");
        assert_eq!(r.supply[&n(2)], 2, "supply respects the cap");
        assert_eq!(r.supply[&n(3)], 2);
    }

    #[test]
    fn lossy_leaf_drops_and_backs_off() {
        let mut backoffs = BackoffTable::new();
        // hist=1 (congested now), BW grew -> Lesser -> drop if loss high.
        let inputs = HashMap::from([
            (n(2), leaf_inp(3, 1, BwEquality::Lesser, 0.4)),
            (n(3), leaf_inp(1, 0, BwEquality::Equal, 0.0)),
        ]);
        let now = SimTime::from_secs(10);
        let r = run(inputs, |_| 6, &mut backoffs, now);
        assert_eq!(r.supply[&n(2)], 2);
        // Level 3 is now backed off at node 2.
        assert!(backoffs.blocked(&tree(), n(2), 3, now + netsim::SimDuration::from_secs(1)));
        // Far in the future the timer has expired.
        assert!(!backoffs.blocked(&tree(), n(2), 3, now + netsim::SimDuration::from_secs(100)));
    }

    #[test]
    fn low_loss_does_not_trigger_the_drop_rule() {
        let inputs = HashMap::from([(n(2), leaf_inp(3, 1, BwEquality::Lesser, 0.05))]);
        let r = run(inputs, |_| 6, &mut BackoffTable::new(), SimTime::from_secs(10));
        assert_eq!(r.demand[&n(2)], 3, "loss below high_loss maintains");
    }

    #[test]
    fn backoff_blocks_exploration_including_ancestors() {
        let mut backoffs = BackoffTable::new();
        let now = SimTime::from_secs(10);
        // Backoff armed at the *internal* node 1 for level 3.
        backoffs.set(n(1), 3, now + netsim::SimDuration::from_secs(30));
        let inputs = HashMap::from([(n(2), leaf_inp(2, 0, BwEquality::Equal, 0.0))]);
        let r = run(inputs, |_| 6, &mut backoffs, now);
        assert_eq!(r.demand[&n(2)], 2, "add blocked by ancestor backoff");
    }

    #[test]
    fn persistent_congestion_halves_supply() {
        // hist=7, Equal at a leaf whose parent is NOT congested:
        // reduce to half the older supply. Older supply = 4 (480 kb/s);
        // half = 240 kb/s -> level 3 (224k).
        let mut inp = leaf_inp(4, 7, BwEquality::Equal, 0.2);
        inp.supply_older = 4;
        let inputs = HashMap::from([(n(2), inp)]);
        let r = run(inputs, |_| 6, &mut BackoffTable::new(), SimTime::from_secs(10));
        assert_eq!(r.demand[&n(2)], 3);
    }

    #[test]
    fn children_defer_to_congested_parent() {
        // Parent (node 1) congested: leaves maintain; node 1 acts.
        let mut l2 = leaf_inp(3, 1, BwEquality::Lesser, 0.4);
        l2.parent_congested = true;
        let mut l3 = leaf_inp(3, 1, BwEquality::Lesser, 0.4);
        l3.parent_congested = true;
        let n1 = NodeInputs {
            hist: CongestionHistory::from_bits(1),
            bw: BwEquality::Lesser,
            supply_older: 3,
            supply_recent: 3,
            ..NodeInputs::default()
        };
        let inputs = HashMap::from([(n(2), l2), (n(3), l3), (n(1), n1)]);
        let mut backoffs = BackoffTable::new();
        let now = SimTime::from_secs(10);
        let r = run(inputs, |_| 6, &mut backoffs, now);
        // Leaves kept demand 3 (deferred)...
        assert_eq!(r.demand[&n(2)], 3);
        assert_eq!(r.demand[&n(3)], 3);
        // ...but node 1 reduced to half its older supply:
        // cum(3) = 224k, half = 112k -> level 2.
        assert_eq!(r.demand[&n(1)], 2);
        assert_eq!(r.supply[&n(2)], 2);
        assert_eq!(r.supply[&n(3)], 2);
        // The highest dropped layer (3) is backed off at the subtree root.
        assert!(backoffs.blocked(&tree(), n(2), 3, now + netsim::SimDuration::from_secs(1)));
    }

    #[test]
    fn supply_never_below_base() {
        let mut inp = leaf_inp(1, 7, BwEquality::Equal, 0.9);
        inp.supply_older = 1;
        let inputs = HashMap::from([(n(2), inp)]);
        let r = run(inputs, |_| 0, &mut BackoffTable::new(), SimTime::from_secs(10));
        assert_eq!(r.supply[&n(2)], 1);
    }

    #[test]
    fn internal_maintain_uses_previous_demand() {
        // Node 1 hist=3 (congested, already reduced last run): maintain the
        // reduced demand even though children ask for more.
        let l2 = leaf_inp(4, 0, BwEquality::Equal, 0.0);
        let n1 = NodeInputs {
            hist: CongestionHistory::from_bits(3),
            bw: BwEquality::Equal,
            demand_prev: Some(2),
            ..NodeInputs::default()
        };
        let inputs = HashMap::from([(n(2), l2), (n(1), n1)]);
        let r = run(inputs, |_| 6, &mut BackoffTable::new(), SimTime::from_secs(10));
        assert_eq!(r.demand[&n(1)], 2);
        assert_eq!(r.supply[&n(2)], 2);
    }

    #[test]
    fn very_high_loss_rule_on_greater() {
        // hist=3, Greater: only reduces when loss is very high.
        let mild = HashMap::from([(n(2), leaf_inp(4, 3, BwEquality::Greater, 0.2))]);
        let r = run(mild, |_| 6, &mut BackoffTable::new(), SimTime::from_secs(10));
        assert_eq!(r.demand[&n(2)], 4, "20% loss is not 'very high'");
        let severe = HashMap::from([(n(2), leaf_inp(4, 3, BwEquality::Greater, 0.5))]);
        let r = run(severe, |_| 6, &mut BackoffTable::new(), SimTime::from_secs(10));
        // half of cum(4)=480k -> 240k -> level 3.
        assert_eq!(r.demand[&n(2)], 3);
    }

    #[test]
    fn backoff_table_expire_and_len() {
        let mut b = BackoffTable::new();
        b.set(n(1), 2, SimTime::from_secs(5));
        b.set(n(1), 3, SimTime::from_secs(50));
        assert_eq!(b.len(), 2);
        b.expire(SimTime::from_secs(10));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }

    #[test]
    fn arm_scales_exponentially_per_failure() {
        let mut b = BackoffTable::new();
        let cfg = Config::default();
        let mut rng = RngStream::derive(1, "arm-test");
        let now = SimTime::from_secs(100);
        // Repeated failures of the same (node, level) must stay blocked for
        // geometrically longer horizons (capped at 8x the max base draw).
        let base_max = cfg.backoff_max.as_secs_f64();
        let mut prev_horizon = 0.0;
        for k in 0..4 {
            let mut fresh = b.clone();
            fresh.arm(n(3), 4, now, &cfg, &mut rng);
            // Find the expiry by probing.
            let mut horizon = 0.0;
            for secs in 1..(base_max as u64 * 16) {
                let t = now + netsim::SimDuration::from_secs(secs);
                if !fresh.blocked(&tree(), n(3), 4, t) {
                    horizon = secs as f64;
                    break;
                }
            }
            assert!(horizon > 0.0, "failure {k}: timer never expired in probe range");
            assert!(
                horizon >= prev_horizon * 0.9,
                "failure {k}: horizon {horizon} shrank from {prev_horizon}"
            );
            // Within the cap.
            assert!(horizon <= base_max * 8.0 + 1.0, "failure {k}: {horizon}");
            prev_horizon = horizon;
            // Arm for real to bump the failure counter.
            b.arm(n(3), 4, now, &cfg, &mut rng);
        }
        // After 4 failures the scale factor is at the 8x cap.
        let mut capped = b.clone();
        capped.arm(n(3), 4, now, &cfg, &mut rng);
        let far = now + netsim::SimDuration::from_secs((base_max * 8.0) as u64 + 2);
        assert!(!capped.blocked(&tree(), n(3), 4, far), "must respect the 8x cap");
    }

    #[test]
    fn arm_counters_are_per_node_and_level() {
        let mut b = BackoffTable::new();
        let cfg = Config::default();
        let mut rng = RngStream::derive(2, "arm-iso");
        let now = SimTime::from_secs(10);
        for _ in 0..4 {
            b.arm(n(3), 4, now, &cfg, &mut rng);
        }
        // A different level at the same node still gets a base-range draw.
        b.arm(n(3), 2, now, &cfg, &mut rng);
        let past_base =
            now + netsim::SimDuration::from_secs(cfg.backoff_max.as_secs_f64() as u64 + 1);
        assert!(!b.blocked(&tree(), n(3), 2, past_base), "level 2 not scaled");
    }

    #[test]
    fn backoff_set_keeps_latest_expiry() {
        let mut b = BackoffTable::new();
        b.set(n(1), 2, SimTime::from_secs(50));
        b.set(n(1), 2, SimTime::from_secs(5));
        assert!(b.blocked(&tree(), n(1), 2, SimTime::from_secs(30)));
    }

    /// A timer blocks exactly its own subtree: one at the root reaches
    /// every leaf, one inside a subtree leaves the sibling subtree free.
    #[test]
    fn view_blocks_the_timer_subtree_and_nothing_else() {
        // 0 -> {1, 2}; 1 -> {3, 4}; 2 -> {5}.
        let tree = tree_of(&[0, 0, 1, 1, 2]);
        let t = tree.tree();
        let now = SimTime::from_secs(10);
        let later = now + netsim::SimDuration::from_secs(30);
        let blocked_nodes = |timer_at: u32| {
            let mut b = BackoffTable::new();
            b.set(n(timer_at), 3, later);
            let mut view = BlockedView::default();
            b.fill_blocked(&tree, 6, now, &mut view);
            let at = |node: NodeId, level| view.blocked(t.slot_of(node).unwrap(), level);
            assert!(t.top_down().all(|node| !at(node, 2) && !at(node, 4)), "other levels free");
            t.top_down().filter(|&node| at(node, 3)).collect::<Vec<_>>()
        };
        assert_eq!(blocked_nodes(0), (0..=5).map(n).collect::<Vec<_>>());
        assert_eq!(blocked_nodes(1), vec![n(1), n(3), n(4)]);
        assert_eq!(blocked_nodes(5), vec![n(5)]);
    }

    proptest::proptest! {
        /// The view is the oracle, bit for bit: for every slot and every
        /// level up to the spec's maximum it answers what the ancestor
        /// walk answers — with timers on nodes outside the tree, expired
        /// and just-expiring timers still in the table, timers at and
        /// above `max_level`, and rows wider than one word.
        #[test]
        fn view_equals_blocked_walk(
            parents in proptest::collection::vec(0usize..24, 0..24),
            width in 0usize..7,
            timers in proptest::collection::vec((0u32..28, 0u8..=255, 0u64..3), 0..12),
            reuse in proptest::any::<bool>(),
        ) {
            let max_level = [1u8, 6, 63, 64, 65, 200, 255][width];
            let parents: Vec<u32> =
                parents.iter().enumerate().map(|(i, &p)| (p % (i + 1)) as u32).collect();
            let tree = tree_of(&parents);
            let t = tree.tree();
            let now = SimTime::from_secs(10);
            let mut b = BackoffTable::new();
            for &(node, level, age) in &timers {
                // Snap most levels into range; keep some above it.
                let level =
                    if level % 4 == 0 { level } else { (level as u16 % (max_level as u16 + 1)) as u8 };
                // Expired a second ago, expiring this instant, or live.
                b.set(n(node), level, SimTime::from_secs(9 + age));
            }
            let mut view = BlockedView::default();
            if reuse {
                // A buffer left over from a wider, fully blocked interval.
                let mut all = BackoffTable::new();
                all.set(n(0), 255, SimTime::from_secs(99));
                all.fill_blocked(&tree, 255, now, &mut view);
            }
            b.fill_blocked(&tree, max_level, now, &mut view);
            for s in t.slots() {
                for level in 0..=max_level {
                    proptest::prop_assert!(
                        view.blocked(s, level) == b.blocked(&tree, t.node_at(s), level, now),
                        "slot {s} level {level} of {max_level}"
                    );
                }
            }
        }
    }

    /// The generation follows the key set: a new timer and an expiry that
    /// drops one move it; re-arming a live key (even through `arm`, which
    /// draws and counts a failure) and an expiry that drops nothing do not.
    #[test]
    fn generation_moves_with_the_timer_keys_only() {
        let mut b = BackoffTable::new();
        let cfg = Config::default();
        let mut rng = RngStream::derive(3, "generation-test");
        let at = SimTime::from_secs;
        let mut last = b.generation();
        let mut step = |b: &BackoffTable, moved: bool, what: &str| {
            assert_eq!(b.generation() != last, moved, "{what}");
            last = b.generation();
        };
        b.set(n(1), 2, at(20));
        step(&b, true, "new key");
        b.set(n(1), 2, at(30));
        step(&b, false, "later expiry on a live key");
        b.set(n(1), 2, at(5));
        step(&b, false, "earlier expiry on a live key");
        b.arm(n(1), 2, at(10), &cfg, &mut rng);
        step(&b, false, "arm on a live key");
        b.arm(n(2), 4, at(10), &cfg, &mut rng);
        step(&b, true, "arm on a new key");
        b.set(n(3), 2, at(12));
        step(&b, true, "another new key");
        b.expire(at(11));
        step(&b, false, "expiry that drops nothing");
        b.expire(at(12));
        step(&b, true, "expiry that drops (3, 2)");
        b.expire(at(12));
        step(&b, false, "the same expiry again");
    }

    proptest::proptest! {
        /// `changed_rows` reports exactly the slots at which `blocked`
        /// answers differently for some level — against a previous view
        /// filled for a tree of another length, for another `max_level`,
        /// or never filled at all. A level beyond a view's rows reads as
        /// unblocked, the way the driver never asks it.
        #[test]
        fn changed_rows_are_the_slots_whose_answers_moved(
            parents in proptest::collection::vec(0usize..20, 0..20),
            prev_parents in proptest::collection::vec(0usize..20, 0..20),
            widths in (0usize..4, 0usize..4),
            timers in proptest::collection::vec((0u32..22, 0u8..=200, proptest::prelude::any::<bool>()), 0..10),
            prev_filled in proptest::prelude::any::<bool>(),
        ) {
            let grow = |ps: &[usize]| {
                tree_of(&ps.iter().enumerate().map(|(i, &p)| (p % (i + 1)) as u32).collect::<Vec<_>>())
            };
            let (tree, prev_tree) = (grow(&parents), grow(&prev_parents));
            let levels = [6u8, 63, 64, 200];
            let now = SimTime::from_secs(10);
            // Each timer lands in the current table, the previous one, or
            // both, so rows both agree and differ.
            let (mut cur, mut prev) = (BackoffTable::new(), BackoffTable::new());
            for (i, &(node, level, both)) in timers.iter().enumerate() {
                let table = if i % 2 == 0 { &mut cur } else { &mut prev };
                table.set(n(node), level, SimTime::from_secs(99));
                if both {
                    let other = if i % 2 == 0 { &mut prev } else { &mut cur };
                    other.set(n(node), level, SimTime::from_secs(99));
                }
            }
            let (mut view, mut prev_view) = (BlockedView::default(), BlockedView::default());
            cur.fill_blocked(&tree, levels[widths.0], now, &mut view);
            if prev_filled {
                prev.fill_blocked(&prev_tree, levels[widths.1], now, &mut prev_view);
            }
            let answer = |v: &BlockedView, s: usize, l: usize| l / 64 < v.words && v.blocked(s, l as u8);
            let want: Vec<usize> = tree
                .tree()
                .slots()
                .filter(|&s| (0..256).any(|l| answer(&view, s, l) != answer(&prev_view, s, l)))
                .collect();
            let mut got = Vec::new();
            view.changed_rows(&prev_view, tree.tree().len(), |s| got.push(s));
            proptest::prop_assert_eq!(got, want);
        }
    }

    /// The branch trace is a pure observer: traced and untraced runs make
    /// identical decisions and draw the same randomness, and the trace
    /// labels every slot with the Table I branch that fired.
    #[test]
    fn traced_run_labels_branches_without_changing_decisions() {
        let tree = tree();
        let t = tree.tree();
        let spec = LayerSpec::paper_default();
        let cfg = Config::default();
        let now = SimTime::from_secs(10);
        let by_node = HashMap::from([
            // Congested leaf with a loss spike: must halve (Table I row 4).
            (n(2), leaf_inp(4, 0b111, BwEquality::Equal, 0.3)),
            // Clean leaf: must explore one layer up.
            (n(3), leaf_inp(3, 0, BwEquality::Equal, 0.0)),
        ]);
        let inputs: Vec<NodeInputs> =
            t.slots().map(|s| by_node.get(&t.node_at(s)).copied().unwrap_or_default()).collect();
        let level_cap = vec![6u8; t.len()];

        let cx = Ctx { tree: &tree, spec: &spec, cfg: &cfg, now };
        let go = |branches: Option<&mut Vec<&'static str>>| {
            let mut backoffs = BackoffTable::new();
            let mut rng = RngStream::derive(7, "stage5-trace-test");
            let (demand, supply) =
                decide_all(cx, &inputs, &level_cap, &mut backoffs, &mut rng, branches);
            // Drain the RNG once more: any extra draw in the traced run
            // would desynchronize this value.
            (demand, supply, rng.range_u64(0, u64::MAX))
        };
        let untraced = go(None);
        let mut branches = Vec::new();
        let traced = go(Some(&mut branches));
        assert_eq!(untraced, traced, "tracing must not alter decisions or RNG draws");

        assert_eq!(branches.len(), t.len());
        assert!(branches.iter().all(|b| !b.is_empty()), "every slot labelled: {branches:?}");
        let label_of =
            |node: NodeId| t.slots().find(|&s| t.node_at(s) == node).map(|s| branches[s]).unwrap();
        assert_eq!(label_of(n(3)), "leaf.add");
        assert!(
            label_of(n(2)).starts_with("leaf.reduce_half"),
            "lossy congested leaf halves, got {}",
            label_of(n(2))
        );
        assert!(label_of(n(1)).starts_with("internal."));
    }
}
