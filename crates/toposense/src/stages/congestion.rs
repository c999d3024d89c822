//! Stage 1 — computing congestion states.
//!
//! Packet loss is known only at the leaves (receiver reports). The loss rate
//! of an internal node is the **minimum** of its children's: "if all the
//! children of a node are congested, then all the children will have to
//! reduce their bandwidth demands", i.e. the parent is only as constrained
//! as its least-lossy descendant. States flow bottom-up; parental congestion
//! then flows back down, because a node whose parent is congested is
//! congested too (and must defer action to the parent).
//!
//! An internal node is **self-congested** when all children exceed
//! `p_threshold` *and* at least `eta_similar` of them sit close to the mean
//! child loss — similar losses across siblings point at the shared upstream
//! link rather than at independent downstream bottlenecks.
//!
//! The stage also records, per node, the maximum bytes received by any
//! receiver in the subtree — the input to the capacity estimator.
#![deny(clippy::too_many_lines)]

use crate::config::Config;
use topology::{DirtySet, SessionTree, SlotQueue};

/// Absolute loss-rate deviation treated as "close to the average".
pub const SIMILARITY_TOLERANCE: f64 = 0.05;

/// Aggregated observation at a node that hosts receivers.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LeafObs {
    /// Loss rate over the last interval (min across co-located receivers).
    pub loss: f64,
    /// Bytes received over the last interval (max across co-located
    /// receivers).
    pub bytes: u64,
    /// Current subscription level (max across co-located receivers).
    pub level: u8,
}

/// Stage-1 output for one node.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeState {
    /// Effective loss rate at the node (min over children / own report).
    pub loss: f64,
    /// Congested by its own subtree's evidence.
    pub self_congested: bool,
    /// Congested overall (self, or any ancestor congested).
    pub congested: bool,
    /// Whether the parent is congested (leaves defer action when so).
    pub parent_congested: bool,
    /// Max bytes received by any receiver in the subtree.
    pub max_bytes: u64,
    /// Whether any receiver in the subtree reported this interval. A
    /// report-less subtree (all receivers quarantined/evicted, or an
    /// outage) carries **no evidence** either way: its loss is a
    /// placeholder, it is excluded from its parent's child-min fold, and
    /// callers should inherit the node's prior state rather than treat
    /// the silence as all-clear.
    pub has_data: bool,
}

/// One session's stage-1 buffers, slot-indexed and reused across
/// intervals: `obs[slot]` holds the aggregated observation for the node at
/// that tree slot, `states[slot]` its state.
#[derive(Debug, Default)]
pub struct Buffers {
    /// Aggregated leaf observation per slot (the stage's input).
    pub obs: Vec<Option<LeafObs>>,
    /// Congestion state per slot (its output).
    pub states: Vec<NodeState>,
    /// At every slot the last step visited, the state it overwrote.
    prev: Vec<NodeState>,
    /// The step's top-down work list.
    walk: SlotQueue,
}

impl Buffers {
    /// Size the buffers for a tree of `len` slots, holding no observation
    /// and default states.
    pub fn reset(&mut self, len: usize) {
        self.obs.clear();
        self.obs.resize(len, None);
        self.states.clear();
        self.states.resize(len, NodeState::default());
        self.prev.clear();
        self.prev.resize(len, NodeState::default());
    }

    /// Stage 1 over the slots that can have moved. `changed` holds the
    /// slots whose observation changed since the last step; their
    /// ancestors join it (a parent's child fold reads the recomputed
    /// state), and `slot_state` re-runs on the lot, bottom-up. One
    /// top-down walk then re-propagates congestion from those slots, from
    /// `revisit`, and from the children of every slot whose `congested`
    /// flag flips (the one thing a child's propagation reads).
    ///
    /// `visit(slot, before, after)` sees every slot the walk pops, with its
    /// state before this step and after it. A slot for which it returns
    /// `true` is not yet at a fixed point of the caller's per-slot work:
    /// the step drains `revisit` and refills it with those slots, so the
    /// next step walks them even if nothing under them moves.
    pub fn step(
        &mut self,
        tree: &SessionTree,
        cfg: &Config,
        changed: &mut DirtySet,
        revisit: &mut Vec<u32>,
        mut visit: impl FnMut(usize, NodeState, NodeState) -> bool,
    ) {
        let t = tree.tree();
        for i in 0..changed.len() {
            // Start the walk at the parent: the changed slot is already
            // marked, and `mark_ancestors` stops at the first marked slot.
            if let Some(p) = t.parent_slot_of(changed.slots()[i] as usize) {
                tree.mark_ancestors(p, changed);
            }
        }
        // Bottom-up: children occupy higher slots than their parent.
        changed.sort_descending();
        for &s in changed.slots() {
            let s = s as usize;
            let st = slot_state(tree, s, &self.obs, &self.states, cfg);
            self.prev[s] = std::mem::replace(&mut self.states[s], st);
        }
        self.walk.begin(t.len());
        for &s in changed.slots().iter().chain(revisit.iter()) {
            self.walk.mark(s as usize);
        }
        revisit.clear();
        while let Some(s) = self.walk.pop() {
            if !changed.contains(s) {
                self.prev[s] = self.states[s];
            }
            propagate_slot(tree, s, &mut self.states);
            let (before, after) = (self.prev[s], self.states[s]);
            if before.congested != after.congested {
                t.child_slots(s).for_each(|c| self.walk.mark(c));
            }
            if visit(s, before, after) {
                revisit.push(s as u32);
            }
        }
    }
}

/// The per-slot bottom-up kernel of [`Buffers::step`]: the state of one
/// slot given its children's (already computed) states. Only the
/// bottom-up fields are set here; `congested` / `parent_congested` come
/// from [`propagate_slot`].
pub(crate) fn slot_state(
    tree: &SessionTree,
    s: usize,
    obs: &[Option<LeafObs>],
    states: &[NodeState],
    cfg: &Config,
) -> NodeState {
    let t = tree.tree();
    let own = obs[s];
    let mut state = NodeState::default();
    if t.is_leaf_slot(s) {
        // A silent leaf (quarantined, evicted, or outside the report
        // horizon) is no-data, not all-clear: its placeholder state
        // must not feed the parent's child-min fold, or an interval
        // of silence would mask real sibling loss (and the seed
        // `f64::INFINITY` below could survive the fold when *every*
        // child is silent, freezing the node as CONGESTED).
        let o = own.unwrap_or_default();
        state.loss = o.loss;
        state.max_bytes = o.bytes;
        state.self_congested = own.is_some() && o.loss > cfg.p_threshold;
        state.has_data = own.is_some();
    } else {
        // Child losses, plus the node's own receivers as a pseudo-child
        // when it hosts any (a member node can be internal). Two passes
        // over the contiguous child range instead of a scratch vector:
        // the first folds min/sum/max, the second (mean in hand) counts
        // the similar ones. Report-less children are skipped: they are
        // no-data, and folding their placeholder 0.0 loss (or keeping
        // the infinite seed when all of them are silent) would be
        // evidence invented from silence.
        let cs = t.child_slots(s);
        let mut loss = f64::INFINITY;
        let mut sum = 0.0;
        let mut count = 0usize;
        let mut all_lossy = true;
        let mut max_bytes = 0u64;
        for c in cs.clone() {
            if !states[c].has_data {
                continue;
            }
            let l = states[c].loss;
            loss = loss.min(l);
            sum += l;
            count += 1;
            all_lossy &= l > cfg.p_threshold;
            max_bytes = max_bytes.max(states[c].max_bytes);
        }
        if let Some(o) = own {
            loss = loss.min(o.loss);
            sum += o.loss;
            count += 1;
            all_lossy &= o.loss > cfg.p_threshold;
            max_bytes = max_bytes.max(o.bytes);
        }
        if count == 0 {
            // Whole subtree silent this interval: no-data, with a
            // finite placeholder loss instead of the infinite seed.
            state.has_data = false;
        } else {
            state.loss = loss;
            state.max_bytes = max_bytes;
            state.has_data = true;
            if all_lossy {
                let mean = sum / count as f64;
                let close = cs
                    .filter(|&c| states[c].has_data)
                    .map(|c| states[c].loss)
                    .chain(own.map(|o| o.loss))
                    .filter(|l| (l - mean).abs() <= SIMILARITY_TOLERANCE)
                    .count();
                let frac = close as f64 / count as f64;
                state.self_congested = frac >= cfg.eta_similar;
            }
        }
    }
    state
}

/// The per-slot top-down half of stage 1: parental congestion propagates.
/// Slots must be visited in ascending order (parents first).
#[inline]
pub(crate) fn propagate_slot(tree: &SessionTree, s: usize, states: &mut [NodeState]) {
    let parent_congested =
        tree.tree().parent_slot_of(s).map(|p| states[p].congested).unwrap_or(false);
    states[s].parent_congested = parent_congested;
    states[s].congested = states[s].self_congested || parent_congested;
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{DirLinkId, GroupId, GroupSnapshot, NodeId, SessionId, SimTime};
    use topology::discovery::{LinkView, TopologyView};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Tree: 0 -> 1 -> {2, 3}; receivers at 2 and 3.
    fn tree() -> SessionTree {
        let view = TopologyView {
            time: SimTime::ZERO,
            links: vec![
                LinkView { id: DirLinkId(0), from: n(0), to: n(1) },
                LinkView { id: DirLinkId(1), from: n(1), to: n(2) },
                LinkView { id: DirLinkId(2), from: n(1), to: n(3) },
            ],
            groups: vec![GroupSnapshot {
                group: GroupId(0),
                root: n(0),
                active_links: vec![DirLinkId(0), DirLinkId(1), DirLinkId(2)],
                member_nodes: vec![n(2), n(3)],
            }],
        };
        SessionTree::build(&view, SessionId(0), &[GroupId(0)]).unwrap()
    }

    /// Run the step over [`tree`] with every slot changed and
    /// `(node, loss, bytes)` observations; the result maps a node number
    /// to its state.
    fn compute(pairs: &[(u32, f64, u64)], cfg: &Config) -> impl Fn(u32) -> NodeState {
        let tree = tree();
        let t = tree.tree();
        let mut b = Buffers::default();
        b.reset(t.len());
        for &(i, loss, bytes) in pairs {
            b.obs[t.slot_of(n(i)).unwrap()] = Some(LeafObs { loss, bytes, level: 1 });
        }
        let mut all = DirtySet::new();
        all.begin(t.len());
        t.slots().for_each(|s| _ = all.mark(s));
        b.step(&tree, cfg, &mut all, &mut Vec::new(), |_, _, _| false);
        move |i| b.states[tree.tree().slot_of(n(i)).unwrap()]
    }

    #[test]
    fn all_clear_when_no_loss() {
        let sc = compute(&[(2, 0.0, 1000), (3, 0.0, 2000)], &Config::default());
        for i in [0u32, 1, 2, 3] {
            assert!(!sc(i).congested, "node {i}");
        }
        // Byte maxima propagate up.
        assert_eq!(sc(1).max_bytes, 2000);
        assert_eq!(sc(0).max_bytes, 2000);
    }

    #[test]
    fn single_lossy_leaf_congests_only_itself() {
        let sc = compute(&[(2, 0.2, 1000), (3, 0.0, 2000)], &Config::default());
        assert!(sc(2).congested);
        assert!(sc(2).self_congested);
        // Internal loss = min(0.2, 0.0) = 0 -> not congested.
        assert!(!sc(1).congested);
        assert_eq!(sc(1).loss, 0.0);
        assert!(!sc(3).congested);
    }

    #[test]
    fn similar_sibling_losses_congest_the_parent() {
        // Both leaves lossy at similar rates -> shared upstream bottleneck.
        let sc = compute(&[(2, 0.10, 1000), (3, 0.12, 1000)], &Config::default());
        assert!(sc(1).self_congested);
        assert!(sc(1).congested);
        // Parental congestion flows down to the leaves' flags.
        assert!(sc(2).parent_congested);
        assert!(sc(3).parent_congested);
        // Root: child (node 1) is its only child with loss 0.10 > threshold;
        // single-child similarity trivially holds, so the root also
        // self-congests under the letter of the rule.
        assert!(sc(0).congested);
    }

    #[test]
    fn dissimilar_sibling_losses_do_not_congest_the_parent() {
        // Both lossy but very different: independent downstream causes.
        let cfg = Config { eta_similar: 0.9, ..Config::default() };
        let sc = compute(&[(2, 0.05, 1000), (3, 0.60, 1000)], &cfg);
        assert!(!sc(1).self_congested);
        assert!(sc(2).congested);
        assert!(sc(3).congested);
    }

    #[test]
    fn internal_loss_is_min_of_children() {
        let sc = compute(&[(2, 0.3, 10), (3, 0.08, 20)], &Config::default());
        assert!((sc(1).loss - 0.08).abs() < 1e-12);
    }

    #[test]
    fn missing_observation_is_no_data_not_all_clear() {
        let sc = compute(&[(2, 0.5, 10)], &Config::default());
        // Node 3 never reported: it carries no evidence, so it does not
        // pull the parent's child-min down to 0. The parent's state comes
        // from the one reporting child alone.
        assert!(!sc(3).has_data);
        assert!(!sc(3).self_congested);
        assert!(sc(1).has_data);
        assert!((sc(1).loss - 0.5).abs() < 1e-12);
        assert!(sc(1).self_congested, "silence must not mask the lossy sibling");
    }

    #[test]
    fn fully_silent_subtree_is_no_data_with_finite_loss() {
        // Nobody reports at all (e.g. every receiver quarantined or
        // evicted this interval): every node is no-data, nothing is
        // congested, and no infinite loss survives the child-min fold.
        let sc = compute(&[], &Config::default());
        for i in [0u32, 1, 2, 3] {
            let s = sc(i);
            assert!(!s.has_data, "node {i}");
            assert!(!s.congested, "node {i} must not be congested on silence");
            assert!(s.loss.is_finite(), "node {i} loss must stay finite, got {}", s.loss);
        }
    }

    #[test]
    fn unknown_node_defaults() {
        let sc = crate::stages::reference::SessionCongestion::default();
        let s = sc.node(n(99));
        assert!(!s.congested && s.loss == 0.0 && s.max_bytes == 0);
    }
}
