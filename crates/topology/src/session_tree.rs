//! Per-session overlay trees.
//!
//! A *multicast session* is a set of layers on different multicast groups;
//! its *session topology* is the overlay of the per-layer distribution
//! trees. Because layers are cumulative (a receiver of layer *i* also
//! receives layers `0..i`), the overlay is itself a tree, rooted at the
//! source — the structure every TopoSense stage operates on.

use crate::discovery::TopologyView;
use crate::tree::{DirtySet, Tree, TreeError};
use netsim::{DirLinkId, GroupId, NodeId, SessionId};
use std::sync::Arc;

/// The overlay of one session's per-layer trees.
///
/// Per-edge attributes are stored densely by tree *slot* (see
/// [`Tree::slot_of`]): every non-root node enters the overlay through
/// exactly one edge, so `in_link`/`max_layer_in` are plain `Vec`s indexed
/// by slot, with the root's entries unused.
///
/// A built tree never changes (no method takes `&mut self`), so its data
/// sits behind an `Arc`: `clone` is O(1), and two handles on one build
/// are equal by pointer — [`Self::routing_eq`] and [`Self::layers_eq`]
/// answer them without comparing a slot.
#[derive(Clone, Debug)]
pub struct SessionTree(Arc<Overlay>);

/// The `in_link` of a node no edge enters yet (and of the root slot).
const NO_LINK: DirLinkId = DirLinkId(u32::MAX);

#[derive(Debug)]
struct Overlay {
    session: SessionId,
    tree: Tree,
    /// Highest layer index crossing the edge *into* each slot's node
    /// (root slot unused).
    max_layer_in: Vec<u8>,
    /// The directed link carrying the session into each slot's node (root
    /// slot holds `NO_LINK` and must not be read).
    in_link: Vec<DirLinkId>,
}

impl SessionTree {
    /// Build from a discovery snapshot.
    ///
    /// `groups[k]` must be the group carrying layer `k` of `session`; the
    /// session root is taken from the base-layer group. Links active for a
    /// higher layer but not the base layer still enter the overlay (this can
    /// happen transiently while prunes are in flight).
    pub fn build(
        view: &TopologyView,
        session: SessionId,
        groups: &[GroupId],
    ) -> Result<Self, TreeError> {
        assert!(!groups.is_empty(), "a session needs at least a base layer");
        let root = view
            .group(groups[0])
            .map(|g| g.root)
            .expect("base-layer group missing from topology view");

        // Per-node scratch over the view's id range: the first link seen
        // into each node (`NO_LINK` until then) and the highest layer
        // crossing into it. Every active link is one of `view.links`.
        let (lo, hi) = view
            .links
            .iter()
            .fold((root.0, root.0), |(lo, hi), l| (lo.min(l.to.0), hi.max(l.to.0)));
        let at = |n: NodeId| (n.0 - lo) as usize;
        let span = (hi - lo) as usize + 1;
        let mut in_link = vec![NO_LINK; span];
        let mut max_layer_in = vec![0u8; span];
        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(span);
        for (layer, &gid) in groups.iter().enumerate() {
            let Some(snap) = view.group(gid) else { continue };
            for &lid in &snap.active_links {
                let lv = view.link(lid).expect("group active on unknown link");
                let i = at(lv.to);
                if in_link[i] == NO_LINK {
                    in_link[i] = lid;
                    edges.push((lv.from, lv.to));
                }
                max_layer_in[i] = max_layer_in[i].max(layer as u8);
            }
        }
        let tree = Tree::from_edges(root, &edges)?;
        // Re-key the per-edge attributes by dense slot. Every non-root node
        // entered through an edge, so each has its entry.
        let mut max_layer_v = vec![0u8; tree.len()];
        let mut in_link_v = vec![NO_LINK; tree.len()];
        for s in 1..tree.len() {
            let i = at(tree.node_at(s));
            max_layer_v[s] = max_layer_in[i];
            in_link_v[s] = in_link[i];
        }
        let overlay = Overlay { session, tree, max_layer_in: max_layer_v, in_link: in_link_v };
        Ok(SessionTree(Arc::new(overlay)))
    }

    /// Which session this tree describes.
    pub fn session(&self) -> SessionId {
        self.0.session
    }

    /// The overlay tree.
    pub fn tree(&self) -> &Tree {
        &self.0.tree
    }

    /// Highest layer crossing the edge into `node` (`None` for the root).
    #[cfg(test)]
    fn max_layer_into(&self, node: NodeId) -> Option<u8> {
        let s = self.0.tree.slot_of(node)?;
        (s != 0).then(|| self.0.max_layer_in[s])
    }

    /// The directed link carrying the session into `node` (`None` for the
    /// root).
    pub fn in_link(&self, node: NodeId) -> Option<DirLinkId> {
        let s = self.0.tree.slot_of(node)?;
        (s != 0).then(|| self.0.in_link[s])
    }

    /// Highest layer crossing the edge into the node at `slot` (must be a
    /// non-root slot).
    pub fn max_layer_at(&self, slot: usize) -> u8 {
        debug_assert_ne!(slot, 0, "the root has no incoming edge");
        self.0.max_layer_in[slot]
    }

    /// The directed link into the node at `slot` (must be a non-root slot).
    pub fn in_link_at(&self, slot: usize) -> DirLinkId {
        debug_assert_ne!(slot, 0, "the root has no incoming edge");
        self.0.in_link[slot]
    }

    /// Iterate `(node, incoming link, max layer)` over all non-root nodes,
    /// top-down.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, DirLinkId, u8)> + '_ {
        let o = &*self.0;
        (1..o.tree.len()).map(move |s| (o.tree.node_at(s), o.in_link[s], o.max_layer_in[s]))
    }

    /// Routing equality: the underlying tree (see [`Tree::structure_eq`])
    /// plus the per-edge links — everything slot-indexed caches depend on
    /// *except* the per-edge layer attributes. Two trees that compare
    /// equal here have identical slot assignments and link attribution;
    /// only the no-report fallback level (`max_layer_in`) may differ.
    /// This is the check the incremental recomputation path runs each
    /// interval: subscription-level churn alone (receivers moving a layer
    /// up or down under steering — the steady-state common case) keeps
    /// the caches valid, with the changed slots re-decided from the new
    /// layers. Two handles on one build answer at once.
    pub fn routing_eq(&self, other: &SessionTree) -> bool {
        let (a, b) = (&*self.0, &*other.0);
        Arc::ptr_eq(&self.0, &other.0)
            || (a.session == b.session && a.tree.structure_eq(&b.tree) && a.in_link == b.in_link)
    }

    /// Whether the per-edge layer attributes equal `other`'s, slot for
    /// slot — meaningful between two trees already [`Self::routing_eq`],
    /// which together are equal as whole overlays: identical per-slot
    /// inputs then give identical results from every slot-indexed stage.
    /// Two handles on one build answer at once.
    pub fn layers_eq(&self, other: &SessionTree) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.max_layer_in == other.0.max_layer_in
    }

    /// Mark `slot` and its ancestors in `dirty` (see
    /// [`Tree::mark_ancestors`]): the propagation pattern of the bottom-up
    /// stages, where a changed observation at a slot can only affect the
    /// states on its root path.
    pub fn mark_ancestors(&self, slot: usize, dirty: &mut DirtySet) {
        self.0.tree.mark_ancestors(slot, dirty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::LinkView;
    use netsim::{GroupSnapshot, SimTime};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn l(i: u32) -> DirLinkId {
        DirLinkId(i)
    }

    /// Chain src(0) -> a(1) -> b(2); directed links 0: 0->1, 2: 1->2 (odd
    /// ids are the reverse directions).
    fn view(groups: Vec<GroupSnapshot>) -> TopologyView {
        TopologyView {
            time: SimTime::ZERO,
            links: vec![
                LinkView { id: l(0), from: n(0), to: n(1) },
                LinkView { id: l(1), from: n(1), to: n(0) },
                LinkView { id: l(2), from: n(1), to: n(2) },
                LinkView { id: l(3), from: n(2), to: n(1) },
            ],
            groups,
        }
    }

    fn snap(g: u32, links: Vec<DirLinkId>, members: Vec<NodeId>) -> GroupSnapshot {
        GroupSnapshot { group: GroupId(g), root: n(0), active_links: links, member_nodes: members }
    }

    #[test]
    fn overlay_takes_max_layer_per_edge() {
        // Layer 0 reaches node 2; layer 1 stops at node 1.
        let v = view(vec![
            snap(0, vec![l(0), l(2)], vec![n(1), n(2)]),
            snap(1, vec![l(0)], vec![n(1)]),
        ]);
        let st = SessionTree::build(&v, SessionId(0), &[GroupId(0), GroupId(1)]).unwrap();
        assert_eq!(st.tree().len(), 3);
        assert_eq!(st.max_layer_into(n(1)), Some(1));
        assert_eq!(st.max_layer_into(n(2)), Some(0));
        assert_eq!(st.max_layer_into(n(0)), None);
        assert_eq!(st.in_link(n(2)), Some(l(2)));
    }

    #[test]
    fn empty_session_is_root_only() {
        let v = view(vec![snap(0, vec![], vec![])]);
        let st = SessionTree::build(&v, SessionId(0), &[GroupId(0)]).unwrap();
        assert_eq!(st.tree().len(), 1);
        assert_eq!(st.tree().root(), n(0));
        assert_eq!(st.edges().count(), 0);
    }

    #[test]
    fn higher_layer_only_link_still_enters_overlay() {
        // Transient state: layer 1 active on 1->2 while layer 0 already
        // pruned there.
        let v = view(vec![snap(0, vec![l(0)], vec![n(1)]), snap(1, vec![l(0), l(2)], vec![n(1)])]);
        let st = SessionTree::build(&v, SessionId(0), &[GroupId(0), GroupId(1)]).unwrap();
        assert_eq!(st.max_layer_into(n(2)), Some(1));
        assert_eq!(st.tree().len(), 3);
    }

    #[test]
    fn missing_higher_group_is_tolerated() {
        let v = view(vec![snap(0, vec![l(0)], vec![n(1)])]);
        // Group 9 not in the view at all (e.g. never announced).
        let st = SessionTree::build(&v, SessionId(0), &[GroupId(0), GroupId(9)]).unwrap();
        assert_eq!(st.max_layer_into(n(1)), Some(0));
    }

    #[test]
    fn routing_eq_ignores_layer_changes_layers_eq_does_not() {
        // Same shape and links; node 1's max layer differs (a receiver
        // there dropped from layer 1 to layer 0 between snapshots).
        let layered =
            || vec![snap(0, vec![l(0), l(2)], vec![n(2)]), snap(1, vec![l(0)], vec![n(1)])];
        let groups = [GroupId(0), GroupId(1)];
        let build = |snaps, sid| SessionTree::build(&view(snaps), sid, &groups).unwrap();
        let a = build(layered(), SessionId(0));
        let b = build(vec![snap(0, vec![l(0), l(2)], vec![n(2)])], SessionId(0));
        assert!(a.routing_eq(&b), "layer-only change must keep routing equality");
        assert!(!a.layers_eq(&b), "layer change must break layer equality");

        // A clone shares the build, so both answer through the pointer.
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.0, &c.0));
        assert!(a.routing_eq(&c) && a.layers_eq(&c));
        // The same view built again is another build, equal by content.
        let again = build(layered(), SessionId(0));
        assert!(!Arc::ptr_eq(&a.0, &again.0));
        assert!(a.routing_eq(&again) && a.layers_eq(&again));
        // Another session over the same links does not route alike.
        assert!(!a.routing_eq(&build(layered(), SessionId(1))));
    }

    #[test]
    fn edges_iterates_top_down() {
        let v = view(vec![snap(0, vec![l(0), l(2)], vec![n(2)])]);
        let st = SessionTree::build(&v, SessionId(0), &[GroupId(0)]).unwrap();
        let es: Vec<(NodeId, DirLinkId, u8)> = st.edges().collect();
        assert_eq!(es, vec![(n(1), l(0), 0), (n(2), l(2), 0)]);
    }
}
