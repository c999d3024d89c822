//! Property-based tests over the TopoSense algorithm stages: invariants
//! that must hold for *any* tree shape and any report pattern.

use netsim::{AppId, DirLinkId, GroupId, GroupSnapshot, NodeId, SessionId, SimDuration, SimTime};
use proptest::prelude::*;
use topology::discovery::{LinkView, TopologyView};
use topology::{DirtySet, SessionTree};
use toposense::algorithm::{AlgorithmInputs, AlgorithmState, ReceiverReport};
use toposense::Config;
use traffic::LayerSpec;

/// Build a random tree: node `i + 1` attaches under some node `0..=i`.
fn random_session_tree(parents: &[usize]) -> (SessionTree, Vec<NodeId>) {
    let mut links = Vec::new();
    let mut active = Vec::new();
    for (i, &p) in parents.iter().enumerate() {
        let child = NodeId(i as u32 + 1);
        let parent = NodeId((p % (i + 1)) as u32);
        let id = DirLinkId(i as u32);
        links.push(LinkView { id, from: parent, to: child });
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
            member_nodes: all.clone(),
        }],
    };
    let tree = SessionTree::build(&view, SessionId(0), &[GroupId(0)]).unwrap();
    let leaves: Vec<NodeId> = tree.tree().leaves().filter(|&n| n != tree.tree().root()).collect();
    (tree, leaves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any random tree and any random report pattern, across several
    /// intervals:
    /// * every suggestion stays within [1, max_level];
    /// * supply is monotone down the tree (a child never gets more than
    ///   its parent's supply would allow — verified via the root bound);
    /// * the algorithm never panics and stays deterministic.
    #[test]
    fn suggestions_always_in_range(
        parents in prop::collection::vec(0usize..12, 1..12),
        losses in prop::collection::vec(0u64..40, 1..12),
        levels in prop::collection::vec(1u8..=6, 1..12),
        seed in 0u64..500,
    ) {
        let (tree, leaves) = random_session_tree(&parents);
        prop_assume!(!leaves.is_empty());
        let spec = LayerSpec::paper_default();
        let mut state = AlgorithmState::new(Config::default(), seed);
        let trees = vec![tree];
        let registry: Vec<(AppId, NodeId, SessionId)> = leaves
            .iter()
            .enumerate()
            .map(|(i, &n)| (AppId(i as u32), n, SessionId(0)))
            .collect();
        for round in 0..4u64 {
            let reports: Vec<ReceiverReport> = leaves
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let lost = losses[i % losses.len()] + round % 2;
                    let level = levels[i % levels.len()];
                    ReceiverReport {
                        receiver: AppId(i as u32),
                        node: n,
                        session: SessionId(0),
                        level,
                        received: 100,
                        lost,
                        bytes: 25_000 * level as u64,
                    }
                })
                .collect();
            let inputs = AlgorithmInputs {
                now: SimTime::from_secs(2 * (round + 1)),
                interval: SimDuration::from_secs(2),
                trees: &trees,
                specs: &[&spec],
                registry: &registry,
                reports: &reports,
            };
            let out = state.run(&inputs);
            // One suggestion per registered receiver (all nodes in tree).
            prop_assert_eq!(out.suggestions.len(), leaves.len());
            for s in &out.suggestions {
                prop_assert!(s.level >= 1, "below base: {:?}", s);
                prop_assert!(s.level <= spec.max_level(), "above max: {:?}", s);
            }
            // Root supply bounds every suggestion (supply is monotone
            // down the tree).
            let root_supply = out.root_supply[0];
            for s in &out.suggestions {
                prop_assert!(
                    s.level <= root_supply,
                    "suggestion {} above root supply {}",
                    s.level,
                    root_supply
                );
            }
        }
    }

    /// With zero loss everywhere, the algorithm never *reduces* a
    /// receiver's level below what it reports (no spurious drops).
    #[test]
    fn clean_network_never_reduces(
        parents in prop::collection::vec(0usize..8, 1..8),
        level in 1u8..=5,
        seed in 0u64..100,
    ) {
        let (tree, leaves) = random_session_tree(&parents);
        prop_assume!(!leaves.is_empty());
        let spec = LayerSpec::paper_default();
        let mut state = AlgorithmState::new(Config::default(), seed);
        let trees = vec![tree];
        let registry: Vec<(AppId, NodeId, SessionId)> = leaves
            .iter()
            .enumerate()
            .map(|(i, &n)| (AppId(i as u32), n, SessionId(0)))
            .collect();
        for round in 0..3u64 {
            let reports: Vec<ReceiverReport> = leaves
                .iter()
                .enumerate()
                .map(|(i, &n)| ReceiverReport {
                    receiver: AppId(i as u32),
                    node: n,
                    session: SessionId(0),
                    level,
                    received: 100,
                    lost: 0,
                    bytes: (spec.cumulative_rate(level) / 4.0) as u64,
                })
                .collect();
            let inputs = AlgorithmInputs {
                now: SimTime::from_secs(2 * (round + 1)),
                interval: SimDuration::from_secs(2),
                trees: &trees,
                specs: &[&spec],
                registry: &registry,
                reports: &reports,
            };
            let out = state.run(&inputs);
            for s in &out.suggestions {
                prop_assert!(
                    s.level >= level,
                    "clean network reduced {} -> {}",
                    level,
                    s.level
                );
            }
        }
    }

    /// Determinism: same seed and inputs produce identical suggestion
    /// sequences.
    #[test]
    fn algorithm_is_deterministic(
        parents in prop::collection::vec(0usize..6, 1..6),
        seed in 0u64..100,
    ) {
        let run_all = || {
            let (tree, leaves) = random_session_tree(&parents);
            let spec = LayerSpec::paper_default();
            let mut state = AlgorithmState::new(Config::default(), seed);
            let trees = vec![tree];
            let registry: Vec<(AppId, NodeId, SessionId)> = leaves
                .iter()
                .enumerate()
                .map(|(i, &n)| (AppId(i as u32), n, SessionId(0)))
                .collect();
            let mut all = Vec::new();
            for round in 0..5u64 {
                let reports: Vec<ReceiverReport> = leaves
                    .iter()
                    .enumerate()
                    .map(|(i, &n)| ReceiverReport {
                        receiver: AppId(i as u32),
                        node: n,
                        session: SessionId(0),
                        level: 3,
                        received: 90,
                        lost: (round * 7 + i as u64) % 25,
                        bytes: 20_000,
                    })
                    .collect();
                let inputs = AlgorithmInputs {
                    now: SimTime::from_secs(2 * (round + 1)),
                    interval: SimDuration::from_secs(2),
                    trees: &trees,
                    specs: &[&spec],
                    registry: &registry,
                    reports: &reports,
                };
                all.push(state.run(&inputs).suggestions);
            }
            all
        };
        prop_assert_eq!(run_all(), run_all());
    }
}

/// Deterministic (non-proptest) check: the congestion stage's internal
/// loss is never larger than the smallest child loss — for a chain of any
/// length the root's loss equals the leaf's.
#[test]
fn chain_loss_propagates_to_root() {
    use toposense::stages::congestion::{self, LeafObs};
    for len in 1..8usize {
        // A pure chain: node i+1 under node i.
        let chain: Vec<usize> = (0..len).collect();
        let (tree, leaves) = random_session_tree(&chain);
        assert_eq!(leaves.len(), 1);
        let t = tree.tree();
        let mut obs = vec![None; t.len()];
        obs[t.slot_of(leaves[0]).unwrap()] = Some(LeafObs { loss: 0.2, bytes: 1000, level: 2 });
        let mut b = congestion::Buffers::default();
        b.reset(t.len());
        b.obs.copy_from_slice(&obs);
        let mut all = DirtySet::new();
        all.begin(t.len());
        t.slots().for_each(|s| _ = all.mark(s));
        b.step(&tree, &Config::default(), &mut all, &mut Vec::new(), |_, _, _| false);
        let root_state = b.states[0];
        assert!((root_state.loss - 0.2).abs() < 1e-12, "chain length {len}");
        assert!(root_state.congested);
    }
}
