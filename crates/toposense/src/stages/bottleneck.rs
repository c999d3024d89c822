//! Stage 3 — finding bottleneck bandwidths.
//!
//! Two passes over each session tree:
//!
//! * **top-down**: propagate the minimum (estimated) link capacity from the
//!   source to every node — `bottleneck(node)`;
//! * **bottom-up**: the maximum bandwidth a node "can handle" is the maximum
//!   bottleneck over its children — `max_handle(node)`, which caps the
//!   subscription of a whole subtree at the best receiver's bottleneck
//!   ("TopoSense limits the maximum subscription of layers in a subtree to
//!   the maximum bandwidth between any receiver in the subtree and the
//!   source").

use netsim::DirLinkId;
use topology::SessionTree;

/// Both passes over one session tree. `capacity(link)` returns the
/// stage-2 estimate (`None` = infinite); `bottleneck[slot]` — the minimum
/// capacity on the path source -> slot — and `max_handle[slot]` — the max
/// bottleneck over the subtree's receivers — receive the results per tree
/// slot (∞ if unconstrained). Both vectors are cleared and refilled,
/// reusing their allocations.
pub fn compute_into(
    tree: &SessionTree,
    capacity: impl Fn(DirLinkId) -> Option<f64>,
    bottleneck: &mut Vec<f64>,
    max_handle: &mut Vec<f64>,
) {
    let t = tree.tree();
    bottleneck.clear();
    bottleneck.resize(t.len(), f64::INFINITY);
    for s in t.slots() {
        if let Some(p) = t.parent_slot_of(s) {
            let cap = capacity(tree.in_link_at(s)).unwrap_or(f64::INFINITY);
            bottleneck[s] = bottleneck[p].min(cap);
        }
    }
    max_handle.clear();
    max_handle.resize(t.len(), f64::INFINITY);
    for s in t.slots_bottom_up() {
        let cs = t.child_slots(s);
        max_handle[s] = if cs.is_empty() {
            bottleneck[s]
        } else {
            cs.map(|c| max_handle[c]).fold(f64::NEG_INFINITY, f64::max)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{GroupId, GroupSnapshot, NodeId, SessionId, SimTime};
    use topology::discovery::{LinkView, TopologyView};

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }
    fn l(i: u32) -> DirLinkId {
        DirLinkId(i)
    }

    /// 0 -> 1 (link 0); 1 -> 2 (link 1); 1 -> 3 (link 2).
    fn tree() -> SessionTree {
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

    /// Both passes over [`tree`], looked up by node number.
    struct Out(SessionTree, Vec<f64>, Vec<f64>);

    impl Out {
        fn bottleneck(&self, i: u32) -> f64 {
            self.1[self.0.tree().slot_of(n(i)).unwrap()]
        }
        fn max_handle(&self, i: u32) -> f64 {
            self.2[self.0.tree().slot_of(n(i)).unwrap()]
        }
    }

    fn compute(capacity: impl Fn(DirLinkId) -> Option<f64>) -> Out {
        let mut out = Out(tree(), Vec::new(), Vec::new());
        compute_into(&out.0, capacity, &mut out.1, &mut out.2);
        out
    }

    #[test]
    fn all_infinite_without_estimates() {
        let m = compute(|_| None);
        for i in [0u32, 1, 2, 3] {
            assert_eq!(m.bottleneck(i), f64::INFINITY);
            assert_eq!(m.max_handle(i), f64::INFINITY);
        }
    }

    #[test]
    fn min_propagates_down() {
        // link 0 = 500k, link 1 = 100k, link 2 unconstrained.
        let m = compute(|id| match id.0 {
            0 => Some(500_000.0),
            1 => Some(100_000.0),
            _ => None,
        });
        assert_eq!(m.bottleneck(0), f64::INFINITY);
        assert_eq!(m.bottleneck(1), 500_000.0);
        assert_eq!(m.bottleneck(2), 100_000.0);
        assert_eq!(m.bottleneck(3), 500_000.0);
    }

    #[test]
    fn max_handle_is_best_child() {
        let m = compute(|id| match id.0 {
            0 => Some(500_000.0),
            1 => Some(100_000.0),
            _ => None,
        });
        // Leaves handle their own bottleneck.
        assert_eq!(m.max_handle(2), 100_000.0);
        assert_eq!(m.max_handle(3), 500_000.0);
        // Node 1 can handle the best of its children.
        assert_eq!(m.max_handle(1), 500_000.0);
        assert_eq!(m.max_handle(0), 500_000.0);
    }

    #[test]
    fn tighter_upstream_cap_dominates() {
        // Upstream link 0 tighter than everything below.
        let m = compute(|id| match id.0 {
            0 => Some(50_000.0),
            1 => Some(100_000.0),
            _ => None,
        });
        assert_eq!(m.bottleneck(2), 50_000.0);
        assert_eq!(m.bottleneck(3), 50_000.0);
        assert_eq!(m.max_handle(0), 50_000.0);
    }

    #[test]
    fn unknown_node_is_unconstrained() {
        let m = crate::stages::reference::BottleneckMap::default();
        assert_eq!(m.bottleneck(n(42)), f64::INFINITY);
    }
}
