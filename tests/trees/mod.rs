//! The random session trees the algorithm-level tests share — a parent
//! vector drawn from a property case's stream, and the tree it builds —
//! with the receivers, interval inputs and output comparison over them.
//! Each test crate that includes this module uses a subset of it.
#![allow(dead_code)]

use netsim::{
    AppId, DirLinkId, GroupId, GroupSnapshot, NodeId, RngStream, SessionId, SimDuration, SimTime,
};
use topology::discovery::{LinkView, TopologyView};
use topology::SessionTree;
use toposense::algorithm::AlgorithmOutputs;
use toposense::{AlgorithmInputs, ReceiverReport};
use traffic::LayerSpec;

/// A random tree of `len + 1` nodes as a parent vector: node `i + 1`
/// attaches under a node drawn uniformly from `0..=i`.
pub fn parents(g: &mut RngStream, len: usize) -> Vec<usize> {
    (0..len).map(|i| g.range_u64(0, i as u64 + 1) as usize).collect()
}

/// Build a session tree from a parent vector: node `i + 1` attaches under
/// node `parents[i]`, link ids offset so several sessions can either share
/// or disjointly own their links.
pub fn session_tree(parents: &[usize], session: u32, link_offset: u32) -> SessionTree {
    let mut links = Vec::new();
    let mut active = Vec::new();
    for (i, &p) in parents.iter().enumerate() {
        let id = DirLinkId(link_offset + i as u32);
        links.push(LinkView { id, from: NodeId(p as u32), to: NodeId(i as u32 + 1) });
        active.push(id);
    }
    let all: Vec<NodeId> = (0..=parents.len() as u32).map(NodeId).collect();
    let view = TopologyView {
        time: SimTime::ZERO,
        links,
        groups: vec![GroupSnapshot {
            group: GroupId(0),
            root: NodeId(0),
            active_links: active,
            member_nodes: all,
        }],
    };
    SessionTree::build(&view, SessionId(session), &[GroupId(0)]).unwrap()
}

/// The tree's leaves, root excluded: where the receivers sit.
pub fn leaf_receivers(tree: &SessionTree) -> Vec<NodeId> {
    tree.tree().leaves().filter(|&n| n != tree.tree().root()).collect()
}

/// One receiver per node of `leaves`, ids from 500 on, all in `session`.
pub fn registry_for(leaves: &[NodeId], session: u32) -> Vec<(AppId, NodeId, SessionId)> {
    leaves
        .iter()
        .enumerate()
        .map(|(i, &node)| (AppId(500 + i as u32), node, SessionId(session)))
        .collect()
}

/// The inputs of the 2 s interval that ends at `now_secs`.
pub fn inputs_at<'a>(
    now_secs: u64,
    trees: &'a [SessionTree],
    specs: &'a [&'a LayerSpec],
    registry: &'a [(AppId, NodeId, SessionId)],
    reports: &'a [ReceiverReport],
) -> AlgorithmInputs<'a> {
    AlgorithmInputs {
        now: SimTime::from_secs(now_secs),
        interval: SimDuration::from_secs(2),
        trees,
        specs,
        registry,
        reports,
    }
}

/// Field-wise byte-identity on everything except the path diagnostics
/// that are *supposed* to differ (`incremental`, `slots_recomputed`).
#[track_caller]
pub fn assert_outputs_eq(a: &AlgorithmOutputs, b: &AlgorithmOutputs, at: impl std::fmt::Display) {
    assert!(a.suggestions == b.suggestions, "suggestions diverged at {at}");
    assert!(a.estimated_links == b.estimated_links, "estimates diverged at {at}");
    assert!(a.congested_nodes == b.congested_nodes, "congested count diverged at {at}");
    assert!(a.root_supply == b.root_supply, "root supply diverged at {at}");
}
