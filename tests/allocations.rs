//! Exact allocation counts of the control plane's cold paths, pinned at
//! two sizes so that a per-node or per-link allocation shows as a moved
//! count: `SessionTree::build`, and the first, cold interval of
//! `AlgorithmState::run_incremental`.
//!
//! Allocations are counted per thread by the workspace's one counting
//! allocator (`counting_alloc`, this binary's `#[global_allocator]`), so
//! tests running beside a pin do not disturb its count. The pins hold in
//! the dev and the release profile alike.

use netsim::{DirLinkId, GroupId, GroupSnapshot, NodeId, SessionId, SimDuration, SimTime};
use scenarios::largetree::{balanced_session_tree, registry_for_leaves, reports_for_leaves};
use topology::discovery::{LinkView, TopologyView};
use topology::SessionTree;
use toposense::algorithm::AlgorithmState;
use toposense::{AlgorithmInputs, Config};
use traffic::LayerSpec;

mod counting_alloc;
use counting_alloc::allocations;

/// A fanout-10 tree of `depth` levels below node 0, as a captured view
/// with three layer groups: layer 0 on every link, layer 1 on the links
/// into the first half of the nodes, layer 2 into the first tenth.
fn fanout10_view(depth: u32) -> (TopologyView, [GroupId; 3]) {
    let nodes: u32 = (0..=depth).map(|d| 10u32.pow(d)).sum();
    // Node i > 0 hangs under (i - 1) / 10; its in-link is id i - 1.
    let links: Vec<LinkView> = (1..nodes)
        .map(|i| LinkView { id: DirLinkId(i - 1), from: NodeId((i - 1) / 10), to: NodeId(i) })
        .collect();
    let groups = [GroupId(0), GroupId(1), GroupId(2)];
    let snaps = groups
        .iter()
        .zip([nodes, nodes / 2, nodes / 10])
        .map(|(&group, reach)| GroupSnapshot {
            group,
            root: NodeId(0),
            active_links: (1..reach).map(|i| DirLinkId(i - 1)).collect(),
            member_nodes: Vec::new(),
        })
        .collect();
    (TopologyView { time: SimTime::ZERO, links, groups: snaps }, groups)
}

/// Allocations made by one `SessionTree::build` of the view.
fn build_allocations(view: &TopologyView, groups: &[GroupId]) -> (u64, usize) {
    let before = allocations();
    let tree = SessionTree::build(view, SessionId(0), groups).expect("a tree");
    let made = allocations() - before;
    (made, tree.tree().len())
}

/// Twelve allocations at 1,111 nodes and at 11,111: three scratch arrays,
/// six `Tree` tables, the two slot-indexed attribute arrays and the `Arc`.
#[test]
fn session_tree_build_allocates_a_fixed_number_of_times() {
    for depth in [3, 4] {
        let (view, groups) = fanout10_view(depth);
        let (made, len) = build_allocations(&view, &groups);
        assert_eq!(len, [1_111, 11_111][depth as usize - 3]);
        assert_eq!(made, 12, "{len} nodes");
    }
}

/// Allocations made by the first `run_incremental` of a fresh state over
/// one balanced fanout-10 session of `depth` levels, every leaf reporting.
fn cold_interval_allocations(depth: usize) -> (u64, usize) {
    let (tree, leaves) = balanced_session_tree(0, 10, depth);
    let trees = [tree];
    let spec = LayerSpec::paper_default();
    let registry = registry_for_leaves(0, &leaves);
    let reports = reports_for_leaves(0, &leaves, 3, 0);
    let inputs = AlgorithmInputs {
        now: SimTime::from_secs(2),
        interval: SimDuration::from_secs(2),
        trees: &trees,
        specs: &[&spec],
        registry: &registry,
        reports: &reports,
    };
    let mut state = AlgorithmState::new(Config::default(), 1);
    let before = allocations();
    let out = state.run_incremental(&inputs);
    let made = allocations() - before;
    assert!(!out.incremental && out.suggestions.len() == leaves.len());
    (made, trees[0].tree().len())
}

/// A cold interval allocates per buffer, not per node or per link: every
/// per-slot table is one array, grown by doubling where it is filled by
/// pushes, so ten times the nodes costs a handful of allocations more.
#[test]
fn a_cold_interval_allocates_per_buffer_not_per_node() {
    for (depth, pinned) in [(3, 121), (4, 148)] {
        let (made, len) = cold_interval_allocations(depth);
        assert_eq!(len, [1_111, 11_111][depth - 3]);
        assert_eq!(made, pinned, "{len} nodes");
    }
}
