//! Rooted trees over simulator nodes.
//!
//! Every stage of the TopoSense algorithm is a pass over a tree: congestion
//! states and demands flow **bottom-up**, bottleneck bandwidths and supplies
//! flow **top-down**. [`Tree`] stores nodes in BFS order so both passes are
//! simple slice iterations.

use netsim::NodeId;

/// Sentinel slot meaning "no parent" (only the root carries it).
const NO_SLOT: u32 = u32::MAX;

/// [`Tree::from_edges`]'s mark for a node that has a parent edge but no
/// slot yet. No tree reaches `u32::MAX - 1` nodes, so it is never a slot.
const HAS_PARENT: u32 = u32::MAX - 1;

/// A rooted tree over [`NodeId`]s.
///
/// Nodes are stored in BFS order and addressed two ways: by [`NodeId`]
/// (the stable simulator identity) and by *slot* — the node's position in
/// the BFS order, a dense `0..len` index. Slots let per-interval passes
/// use plain `Vec`s instead of `HashMap`s: `slots()` is the top-down pass
/// order, `slots_bottom_up()` the bottom-up one, and because BFS appends
/// children contiguously, each node's children occupy the consecutive
/// slot range `child_slots(s)` (a CSR layout needing only one prefix-sum
/// array).
#[derive(Clone, Debug)]
pub struct Tree {
    root: NodeId,
    /// Nodes in BFS order from the root (root first); `order[slot]` is the
    /// node occupying `slot`.
    order: Vec<NodeId>,
    /// The smallest node id in the tree: `slot[id - base]` is the slot of
    /// node `id`.
    base: u32,
    /// `NodeId -> slot` over the tree's id range `base..base + slot.len()`
    /// (`NO_SLOT` for ids in that range that are not in the tree).
    slot: Vec<u32>,
    /// Parent slot per slot (`NO_SLOT` for the root).
    parent_slot: Vec<u32>,
    /// CSR child index: children of slot `s` are slots
    /// `child_start[s]..child_start[s + 1]`.
    child_start: Vec<u32>,
}

/// Error building a tree from an edge list.
#[derive(Debug, PartialEq, Eq)]
pub enum TreeError {
    /// A node was given two parents.
    TwoParents(NodeId),
    /// The root has an incoming edge.
    RootHasParent,
    /// An edge's parent is not reachable from the root (cycle or orphan).
    Disconnected(NodeId),
}

impl Tree {
    /// Build from `(parent, child)` edges rooted at `root`.
    ///
    /// Edges whose parent is unreachable from the root produce
    /// [`TreeError::Disconnected`]; duplicate parents produce
    /// [`TreeError::TwoParents`]. A root-only tree (no edges) is valid.
    /// The error names the first offending edge in `edges` order. Children
    /// keep their first-seen order under each parent.
    ///
    /// Every table is an array over the id range of `root` and the edges'
    /// endpoints: a counting sort groups the children by parent (CSR), and
    /// the BFS runs over that. The cost is O(edges + id range), with a
    /// fixed number of allocations whatever the size.
    pub fn from_edges(root: NodeId, edges: &[(NodeId, NodeId)]) -> Result<Self, TreeError> {
        let (lo, hi) = edges.iter().fold((root.0, root.0), |(lo, hi), &(p, c)| {
            (lo.min(p.0).min(c.0), hi.max(p.0).max(c.0))
        });
        let at = |n: NodeId| (n.0 - lo) as usize;
        let span = (hi - lo) as usize + 1;
        // `slot` doubles as the "has a parent" mark until the BFS fills it.
        let mut slot = vec![NO_SLOT; span];
        // Counting sort of the children by parent: counts, running totals
        // (the end of each parent's block), then a backwards fill that
        // leaves `start[p]..start[p + 1]` holding `p`'s children in edge
        // order.
        let mut start = vec![0u32; span + 1];
        for &(p, c) in edges {
            if c == root {
                return Err(TreeError::RootHasParent);
            }
            if slot[at(c)] == HAS_PARENT {
                return Err(TreeError::TwoParents(c));
            }
            slot[at(c)] = HAS_PARENT;
            start[at(p)] += 1;
        }
        for i in 1..=span {
            start[i] += start[i - 1];
        }
        let mut kids = vec![root; edges.len()];
        for &(p, c) in edges.iter().rev() {
            start[at(p)] -= 1;
            kids[start[at(p)] as usize] = c;
        }
        let children = |n: NodeId| &kids[start[at(n)] as usize..start[at(n) + 1] as usize];
        // BFS to establish order and check connectivity.
        let mut order = Vec::with_capacity(edges.len() + 1);
        order.push(root);
        let mut i = 0;
        while i < order.len() {
            let n = order[i];
            slot[at(n)] = i as u32;
            i += 1;
            order.extend_from_slice(children(n));
        }
        if order.len() != edges.len() + 1 {
            // Some edge's subtree never got visited.
            let &(_, unreachable) = edges
                .iter()
                .find(|&&(_, c)| slot[at(c)] == HAS_PARENT)
                .expect("count mismatch implies an unreachable child");
            return Err(TreeError::Disconnected(unreachable));
        }
        // BFS appends each node's children as one contiguous block, so the
        // CSR child index is a prefix sum over child counts in slot order.
        let mut child_start = Vec::with_capacity(order.len() + 1);
        child_start.push(1u32);
        for &node in &order {
            let n = children(node).len() as u32;
            child_start.push(child_start.last().unwrap() + n);
        }
        let mut parent_slot = vec![NO_SLOT; order.len()];
        for s in 0..order.len() {
            for c in child_start[s]..child_start[s + 1] {
                parent_slot[c as usize] = s as u32;
            }
        }
        Ok(Tree { root, order, base: lo, slot, parent_slot, child_start })
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True for a root-only tree.
    pub fn is_empty(&self) -> bool {
        self.order.len() == 1
    }

    /// Whether `node` is in the tree.
    pub fn contains(&self, node: NodeId) -> bool {
        self.slot_of(node).is_some()
    }

    /// The parent of `node` (`None` for the root or unknown nodes).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        let s = self.slot_of(node)?;
        self.parent_slot_of(s).map(|p| self.order[p])
    }

    /// The children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        match self.slot_of(node) {
            Some(s) => &self.order[self.child_slots(s)],
            None => &[],
        }
    }

    /// True when `node` has no children.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.children(node).is_empty()
    }

    /// The dense slot of `node` — its position in BFS order (`None` for
    /// unknown nodes). Slots are stable for the lifetime of the tree.
    pub fn slot_of(&self, node: NodeId) -> Option<usize> {
        let i = node.0.checked_sub(self.base)?;
        match *self.slot.get(i as usize)? {
            NO_SLOT => None,
            s => Some(s as usize),
        }
    }

    /// The node occupying `slot` (panics on out-of-range slots).
    pub fn node_at(&self, slot: usize) -> NodeId {
        self.order[slot]
    }

    /// The parent's slot (`None` for the root slot).
    pub fn parent_slot_of(&self, slot: usize) -> Option<usize> {
        match self.parent_slot[slot] {
            NO_SLOT => None,
            p => Some(p as usize),
        }
    }

    /// The contiguous slot range holding the children of `slot`.
    pub fn child_slots(&self, slot: usize) -> std::ops::Range<usize> {
        self.child_start[slot] as usize..self.child_start[slot + 1] as usize
    }

    /// True when `slot` has no children.
    pub fn is_leaf_slot(&self, slot: usize) -> bool {
        self.child_start[slot] == self.child_start[slot + 1]
    }

    /// Slots in BFS order (the **top-down** pass order).
    pub fn slots(&self) -> std::ops::Range<usize> {
        0..self.order.len()
    }

    /// Slots in reverse BFS order (the **bottom-up** pass order: every
    /// child slot is visited before its parent slot).
    pub fn slots_bottom_up(&self) -> std::iter::Rev<std::ops::Range<usize>> {
        (0..self.order.len()).rev()
    }

    /// Nodes in BFS order, root first (the **top-down** pass order).
    pub fn top_down(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.order.iter().copied()
    }

    /// Nodes in reverse BFS order, leaves first (the **bottom-up** pass
    /// order: every child is visited before its parent).
    pub fn bottom_up(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.order.iter().rev().copied()
    }

    /// All leaves, in BFS order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.order.iter().copied().filter(|&n| self.is_leaf(n))
    }

    /// Structural equality over the dense layout: same root, same BFS
    /// order, same CSR child index. Two trees that compare equal here have
    /// identical slot assignments, so per-slot caches built against one
    /// remain valid against the other. Deliberately skips the
    /// `NodeId -> slot` map (fully determined by `order`) so the check is
    /// three contiguous memcmp-style comparisons, cheap enough to run
    /// every interval.
    pub fn structure_eq(&self, other: &Tree) -> bool {
        self.root == other.root
            && self.order == other.order
            && self.child_start == other.child_start
    }

    /// Mark `slot` and every ancestor up to the root in `dirty`. Walks the
    /// parent chain and stops at the first slot already marked — repeated
    /// calls over a batch of dirty slots therefore cost O(total newly
    /// marked), not O(depth) each.
    pub fn mark_ancestors(&self, slot: usize, dirty: &mut DirtySet) {
        let mut s = slot;
        loop {
            if !dirty.mark(s) {
                return;
            }
            match self.parent_slot_of(s) {
                Some(p) => s = p,
                None => return,
            }
        }
    }
}

/// A reusable work list of tree slots, handed out lowest slot first —
/// parents before children — as one bit per slot scanned a word at a
/// time: the pattern of a top-down pass that visits only what moved. A
/// slot marked while the list drains must lie above the last slot popped
/// (a child of it, say), which is all a top-down pass ever marks.
#[derive(Clone, Debug, Default)]
pub struct SlotQueue {
    bits: Vec<u64>,
    /// Every word below this one is clear.
    cursor: usize,
}

impl SlotQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh round over a tree of `len` slots, forgetting every
    /// mark left over.
    pub fn begin(&mut self, len: usize) {
        self.bits.clear();
        self.bits.resize(len.div_ceil(64), 0);
        self.cursor = 0;
    }

    /// Mark `slot` (a no-op if it is already marked).
    pub fn mark(&mut self, slot: usize) {
        debug_assert!(slot / 64 >= self.cursor, "slot {slot} is behind the drain");
        self.bits[slot / 64] |= 1 << (slot % 64);
    }

    /// Remove and return the lowest marked slot.
    pub fn pop(&mut self) -> Option<usize> {
        while let Some(&w) = self.bits.get(self.cursor) {
            if w != 0 {
                self.bits[self.cursor] = w & (w - 1);
                return Some(self.cursor * 64 + w.trailing_zeros() as usize);
            }
            self.cursor += 1;
        }
        None
    }
}

/// A reusable set of dirty tree slots.
///
/// Made for the incremental recomputation path: membership is an
/// epoch-stamped array (no per-interval clearing), and the marked slots are
/// also kept as a list so callers can iterate exactly the dirty slots
/// without scanning the whole tree. [`DirtySet::begin`] starts a fresh
/// interval in O(1) amortized; the stamp array is only rewritten when the
/// tree grows or the epoch counter wraps.
#[derive(Clone, Debug, Default)]
pub struct DirtySet {
    /// `stamp[slot] == epoch` means the slot is marked this interval.
    stamp: Vec<u32>,
    epoch: u32,
    /// The marked slots, in marking order (deduplicated by `mark`).
    slots: Vec<u32>,
}

impl DirtySet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh marking round over a tree of `len` slots. Previous
    /// marks are forgotten without touching the stamp array (epoch bump);
    /// the array is re-zeroed only on growth or epoch wrap-around.
    pub fn begin(&mut self, len: usize) {
        self.slots.clear();
        if self.stamp.len() < len || self.epoch == u32::MAX {
            self.stamp.clear();
            self.stamp.resize(len, 0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Mark `slot`; returns `true` when it was not already marked.
    pub fn mark(&mut self, slot: usize) -> bool {
        if self.stamp[slot] == self.epoch {
            return false;
        }
        self.stamp[slot] = self.epoch;
        self.slots.push(slot as u32);
        true
    }

    /// Whether `slot` is marked this round.
    pub fn contains(&self, slot: usize) -> bool {
        self.stamp.get(slot).is_some_and(|&e| e == self.epoch)
    }

    /// The marked slots (in marking order unless sorted).
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// Sort the marked slots descending — the bottom-up processing order
    /// (children occupy higher slots than their parents).
    pub fn sort_descending(&mut self) {
        self.slots.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Number of marked slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::RngStream;
    use std::collections::HashMap;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// What the map-based [`Tree::from_edges`] built: its tables, and its
    /// `NodeId -> slot` map.
    struct Reference {
        order: Vec<NodeId>,
        slot: HashMap<NodeId, u32>,
        parent_slot: Vec<u32>,
        child_start: Vec<u32>,
    }

    /// The map-based [`Tree::from_edges`]: the reference the array-based
    /// one is checked against.
    fn reference_from_edges(
        root: NodeId,
        edges: &[(NodeId, NodeId)],
    ) -> Result<Reference, TreeError> {
        let mut parent = HashMap::with_capacity(edges.len());
        let mut children: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for &(p, c) in edges {
            if c == root {
                return Err(TreeError::RootHasParent);
            }
            if parent.insert(c, p).is_some() {
                return Err(TreeError::TwoParents(c));
            }
            children.entry(p).or_default().push(c);
        }
        let mut order = Vec::with_capacity(edges.len() + 1);
        order.push(root);
        let mut i = 0;
        while i < order.len() {
            let n = order[i];
            i += 1;
            if let Some(cs) = children.get(&n) {
                order.extend(cs.iter().copied());
            }
        }
        if order.len() != edges.len() + 1 {
            let unreachable = edges
                .iter()
                .map(|&(_, c)| c)
                .find(|c| !order.contains(c))
                .expect("count mismatch implies an unreachable child");
            return Err(TreeError::Disconnected(unreachable));
        }
        let slot: HashMap<NodeId, u32> =
            order.iter().enumerate().map(|(i, &node)| (node, i as u32)).collect();
        let mut child_start = Vec::with_capacity(order.len() + 1);
        child_start.push(1u32);
        for &node in &order {
            let n = children.get(&node).map_or(0, |cs| cs.len());
            child_start.push(child_start.last().unwrap() + n as u32);
        }
        let mut parent_slot = vec![NO_SLOT; order.len()];
        for s in 0..order.len() {
            for c in child_start[s]..child_start[s + 1] {
                parent_slot[c as usize] = s as u32;
            }
        }
        Ok(Reference { order, slot, parent_slot, child_start })
    }

    /// A random edge list over ids `base..base + 40`: a random tree,
    /// shuffled, then (sometimes) broken by a duplicate child, an edge
    /// into the root, an orphan edge or a two-node cycle.
    fn random_edges(g: &mut RngStream) -> (NodeId, Vec<(NodeId, NodeId)>) {
        let base = g.range_u64(0, 1_000) as u32;
        let size = g.range_u64(1, 40) as u32;
        // A random permutation of the ids: ids[0] is the root.
        let mut ids: Vec<u32> = (base..base + 40).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, g.range_u64(0, i as u64 + 1) as usize);
        }
        let root = n(ids[0]);
        let mut edges: Vec<(NodeId, NodeId)> = (1..size as usize)
            .map(|i| (n(ids[g.range_u64(0, i as u64) as usize]), n(ids[i])))
            .collect();
        let outside = |g: &mut RngStream| n(ids[g.range_u64(size as u64, 40) as usize]);
        let inside = |g: &mut RngStream| n(ids[g.range_u64(0, size as u64) as usize]);
        match g.range_u64(0, 6) {
            0 if size > 1 => {
                let c = n(ids[g.range_u64(1, size as u64) as usize]);
                edges.push((inside(g), c));
            }
            1 => edges.push((inside(g), root)),
            2 if size < 40 => {
                let (p, c) = (outside(g), outside(g));
                if p != c {
                    edges.push((p, c));
                }
            }
            3 if size < 39 => {
                let (a, b) = (outside(g), outside(g));
                if a != b {
                    edges.extend([(a, b), (b, a)]);
                }
            }
            _ => {}
        }
        for i in (1..edges.len()).rev() {
            edges.swap(i, g.range_u64(0, i as u64 + 1) as usize);
        }
        (root, edges)
    }

    #[test]
    fn from_edges_equals_the_map_based_reference() {
        let (mut valid, mut invalid) = (0, 0);
        netsim::rng::check("tree/from_edges_reference", 500, |g| {
            let (root, edges) = random_edges(g);
            match (Tree::from_edges(root, &edges), reference_from_edges(root, &edges)) {
                (Ok(t), Ok(r)) => {
                    valid += 1;
                    assert_eq!(t.order, r.order);
                    assert_eq!(t.child_start, r.child_start);
                    assert_eq!(t.parent_slot, r.parent_slot);
                    let hi = r.order.iter().map(|x| x.0).max().unwrap();
                    let lo = r.order.iter().map(|x| x.0).min().unwrap();
                    for id in lo.saturating_sub(1)..=hi + 1 {
                        let want = r.slot.get(&n(id)).map(|&s| s as usize);
                        assert_eq!(t.slot_of(n(id)), want, "slot of {id}");
                    }
                }
                (Err(e), Err(r)) => {
                    invalid += 1;
                    assert_eq!(e, r, "edges {edges:?}");
                }
                (t, r) => panic!("edges {edges:?}: {:?} vs {:?}", t.err(), r.err()),
            }
        });
        // Both sides of the comparison were exercised.
        assert!(valid > 100 && invalid > 100, "{valid} valid, {invalid} invalid");
    }

    /// The Fig. 1 tree: 0 -> 1, 1 -> {2, 5}, 2 -> {3, 4}.
    fn fig1() -> Tree {
        Tree::from_edges(
            n(0),
            &[(n(0), n(1)), (n(1), n(2)), (n(1), n(5)), (n(2), n(3)), (n(2), n(4))],
        )
        .unwrap()
    }

    #[test]
    fn structure_queries() {
        let t = fig1();
        assert_eq!(t.root(), n(0));
        assert_eq!(t.len(), 6);
        assert_eq!(t.parent(n(3)), Some(n(2)));
        assert_eq!(t.parent(n(0)), None);
        assert_eq!(t.children(n(1)), &[n(2), n(5)]);
        assert!(t.is_leaf(n(5)));
        assert!(!t.is_leaf(n(1)));
        assert!(t.contains(n(4)));
        assert!(!t.contains(n(9)));
    }

    #[test]
    fn bfs_orders_are_consistent() {
        let t = fig1();
        let down: Vec<NodeId> = t.top_down().collect();
        assert_eq!(down[0], n(0));
        // Every parent precedes its children.
        let pos: HashMap<NodeId, usize> = down.iter().enumerate().map(|(i, &x)| (x, i)).collect();
        for &node in &down {
            if let Some(p) = t.parent(node) {
                assert!(pos[&p] < pos[&node]);
            }
        }
        let up: Vec<NodeId> = t.bottom_up().collect();
        let mut rev = down.clone();
        rev.reverse();
        assert_eq!(up, rev);
    }

    #[test]
    fn leaves_and_subtrees() {
        let t = fig1();
        let leaves: Vec<NodeId> = t.leaves().collect();
        assert_eq!(leaves, vec![n(5), n(3), n(4)]);
    }

    #[test]
    fn root_only_tree() {
        let t = Tree::from_edges(n(7), &[]).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.leaves().collect::<Vec<_>>(), vec![n(7)]);
        assert!(t.is_leaf(n(7)));
    }

    #[test]
    fn error_two_parents() {
        let e = Tree::from_edges(n(0), &[(n(0), n(1)), (n(0), n(2)), (n(2), n(1))]);
        assert_eq!(e.unwrap_err(), TreeError::TwoParents(n(1)));
    }

    #[test]
    fn error_root_has_parent() {
        let e = Tree::from_edges(n(0), &[(n(1), n(0))]);
        assert_eq!(e.unwrap_err(), TreeError::RootHasParent);
    }

    #[test]
    fn error_disconnected() {
        let e = Tree::from_edges(n(0), &[(n(0), n(1)), (n(5), n(6))]);
        assert_eq!(e.unwrap_err(), TreeError::Disconnected(n(6)));
    }

    #[test]
    fn dense_slots_mirror_node_api() {
        let t = fig1();
        // Slot 0 is the root; node_at/slot_of round-trip.
        assert_eq!(t.node_at(0), t.root());
        for (s, node) in t.top_down().enumerate() {
            assert_eq!(t.slot_of(node), Some(s));
            assert_eq!(t.node_at(s), node);
            // Parent agreement.
            assert_eq!(t.parent_slot_of(s).map(|p| t.node_at(p)), t.parent(node));
            // CSR children are the same nodes in the same order.
            let via_slots: Vec<NodeId> = t.child_slots(s).map(|c| t.node_at(c)).collect();
            assert_eq!(via_slots.as_slice(), t.children(node));
            assert_eq!(t.is_leaf_slot(s), t.is_leaf(node));
        }
        assert_eq!(t.slot_of(n(9)), None);
        assert_eq!(t.slots().len(), t.len());
        let up: Vec<NodeId> = t.slots_bottom_up().map(|s| t.node_at(s)).collect();
        assert_eq!(up, t.bottom_up().collect::<Vec<_>>());
    }

    #[test]
    fn error_cycle_detected_as_disconnected() {
        let e = Tree::from_edges(n(0), &[(n(1), n(2)), (n(2), n(1))]);
        assert!(matches!(e.unwrap_err(), TreeError::TwoParents(_) | TreeError::Disconnected(_)));
    }

    #[test]
    fn structure_eq_detects_any_shape_change() {
        let t = fig1();
        assert!(t.structure_eq(&fig1()));
        assert!(t.structure_eq(&t.clone()));
        // Extra leaf under node 5.
        let grown = Tree::from_edges(
            n(0),
            &[(n(0), n(1)), (n(1), n(2)), (n(1), n(5)), (n(2), n(3)), (n(2), n(4)), (n(5), n(6))],
        )
        .unwrap();
        assert!(!t.structure_eq(&grown));
        // Same node set, node 4 re-parented under node 5: BFS order equal
        // but the CSR child index differs.
        let moved = Tree::from_edges(
            n(0),
            &[(n(0), n(1)), (n(1), n(2)), (n(1), n(5)), (n(2), n(3)), (n(5), n(4))],
        )
        .unwrap();
        assert!(!t.structure_eq(&moved));
        // Different root.
        let reroot = Tree::from_edges(n(1), &[(n(1), n(2))]).unwrap();
        assert!(!t.structure_eq(&reroot));
    }

    #[test]
    fn dirty_set_marks_and_resets_by_epoch() {
        let mut d = DirtySet::new();
        d.begin(6);
        assert!(d.is_empty());
        assert!(d.mark(3));
        assert!(!d.mark(3), "double mark is deduplicated");
        assert!(d.mark(5));
        assert!(d.contains(3) && d.contains(5) && !d.contains(0));
        assert_eq!(d.len(), 2);
        d.sort_descending();
        assert_eq!(d.slots(), &[5, 3]);
        // New round: previous marks are gone without clearing storage.
        d.begin(6);
        assert!(d.is_empty());
        assert!(!d.contains(3));
        assert!(d.mark(3));
        // Growing the tree re-zeroes the stamp array.
        d.begin(10);
        assert!(!d.contains(3));
        assert!(d.mark(9));
        assert!(!d.contains(6));
    }

    /// ISSUE 9 satellite: epoch wrap + shrink-then-regrow. `begin` never
    /// shrinks `stamp`, so slots past the current tree keep old stamps —
    /// none of those may ever read back as marked after the tree regrows,
    /// and the `u32::MAX` wrap must flush every stamp in the array
    /// (including the beyond-`len` tail a shrink left behind).
    #[test]
    fn dirty_set_epoch_wrap_and_shrink_regrow_leave_no_stale_marks() {
        let mut d = DirtySet::new();
        d.begin(8);
        for s in 0..8 {
            assert!(d.mark(s));
        }
        // Shrink to 3 slots: the stamp array keeps length 8, so slots 3..8
        // still carry the previous round's epoch.
        d.begin(3);
        assert!(d.is_empty());
        assert!(d.mark(1));
        // Regrow to 8 without an epoch wrap: the kept tail must stay clean.
        d.begin(8);
        for s in 0..8 {
            assert!(!d.contains(s), "stale mark survived shrink-then-regrow at slot {s}");
        }
        assert!(d.mark(5));
        // Drive the counter to the wrap point with marks outstanding in
        // both the live range and the stale tail, then shrink and wrap.
        d.epoch = u32::MAX - 1;
        d.slots.clear();
        d.begin(8); // epoch -> u32::MAX: every stamp slot now matches it
        for s in 0..8 {
            assert!(d.mark(s));
        }
        d.begin(3); // wrap: re-zero + epoch = 1
        assert!(d.is_empty());
        for s in 0..3 {
            assert!(!d.contains(s), "stale mark survived the epoch wrap at slot {s}");
        }
        assert_eq!(d.epoch, 1, "wrap must restart the epoch counter");
        // And the regrow after the wrap is clean too.
        d.begin(8);
        for s in 0..8 {
            assert!(!d.contains(s), "stale mark survived wrap-then-regrow at slot {s}");
        }
        assert!(d.mark(2) && !d.mark(2));
    }

    #[test]
    fn mark_ancestors_walks_to_root_and_stops_at_marked() {
        let t = fig1();
        // fig1 BFS order: 0,1,2,5,3,4 -> slot of node 4 is 5, node 3 is 4.
        let s4 = t.slot_of(n(4)).unwrap();
        let s3 = t.slot_of(n(3)).unwrap();
        let mut d = DirtySet::new();
        d.begin(t.len());
        t.mark_ancestors(s4, &mut d);
        // Path 4 -> 2 -> 1 -> 0.
        let mut got: Vec<u32> = d.slots().to_vec();
        got.sort_unstable();
        let mut want: Vec<u32> =
            [n(4), n(2), n(1), n(0)].iter().map(|&x| t.slot_of(x).unwrap() as u32).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        // Second walk from the sibling stops at the shared parent: only the
        // sibling itself is newly marked.
        let before = d.len();
        t.mark_ancestors(s3, &mut d);
        assert_eq!(d.len(), before + 1);
        assert!(d.contains(s3));
    }

    #[test]
    fn slot_queue_pops_ascending_and_reaches_marks_made_while_draining() {
        let t = fig1();
        let mut q = SlotQueue::new();
        q.begin(130);
        q.mark(0);
        q.mark(70);
        // Popping a slot marks its children, as a top-down pass does; a
        // mark in the word being drained and one in a later word both
        // come out in order.
        let mut seen = Vec::new();
        while let Some(s) = q.pop() {
            seen.push(s);
            if s < t.len() {
                t.child_slots(s).for_each(|c| q.mark(c));
            }
            if s == 0 {
                q.mark(129);
            }
        }
        let mut want: Vec<usize> = t.slots().collect();
        want.extend([70, 129]);
        assert_eq!(seen, want);
        // A fresh round forgets leftover marks.
        q.begin(130);
        q.mark(3);
        q.begin(5);
        assert_eq!(q.pop(), None);
    }
}
