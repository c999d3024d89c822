//! Property-based tests over the TopoSense algorithm stages: invariants
//! that must hold for *any* tree shape and any report pattern.

use netsim::rng::check;
use netsim::{AppId, NodeId, SessionId};
use topology::DirtySet;
use toposense::algorithm::{AlgorithmState, ReceiverReport};
use toposense::Config;
use traffic::LayerSpec;

mod trees;

/// For any random tree and any random report pattern, across several
/// intervals:
/// * every suggestion stays within [1, max_level];
/// * supply is monotone down the tree (a child never gets more than
///   its parent's supply would allow — verified via the root bound);
/// * the algorithm never panics and stays deterministic.
#[test]
fn suggestions_always_in_range() {
    check("suggestions_always_in_range", 48, |g| {
        let len = g.range_u64(1, 12) as usize;
        let parents = trees::parents(g, len);
        let losses: Vec<u64> = (0..g.range_u64(1, 12)).map(|_| g.range_u64(0, 40)).collect();
        let levels: Vec<u8> = (0..g.range_u64(1, 12)).map(|_| g.range_u64(1, 7) as u8).collect();
        let seed = g.range_u64(0, 500);
        let tree = trees::session_tree(&parents, 0, 0);
        let leaves = trees::leaf_receivers(&tree);
        assert!(!leaves.is_empty(), "a tree with a parent has a non-root leaf");
        let spec = LayerSpec::paper_default();
        let specs = [&spec];
        let mut state = AlgorithmState::new(Config::default(), seed);
        let trees = vec![tree];
        let registry: Vec<(AppId, NodeId, SessionId)> =
            leaves.iter().enumerate().map(|(i, &n)| (AppId(i as u32), n, SessionId(0))).collect();
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
            let inputs = trees::inputs_at(2 * (round + 1), &trees, &specs, &registry, &reports);
            let out = state.run(&inputs);
            // One suggestion per registered receiver (all nodes in tree).
            assert_eq!(out.suggestions.len(), leaves.len(), "parents {parents:?}");
            for s in &out.suggestions {
                assert!(s.level >= 1, "below base: {s:?}, parents {parents:?}");
                assert!(s.level <= spec.max_level(), "above max: {s:?}, parents {parents:?}");
            }
            // Root supply bounds every suggestion (supply is monotone
            // down the tree).
            let root_supply = out.root_supply[0];
            for s in &out.suggestions {
                assert!(
                    s.level <= root_supply,
                    "suggestion {} above root supply {root_supply}, parents {parents:?}",
                    s.level
                );
            }
        }
    });
}

/// With zero loss everywhere, the algorithm never *reduces* a
/// receiver's level below what it reports (no spurious drops).
#[test]
fn clean_network_never_reduces() {
    check("clean_network_never_reduces", 48, |g| {
        let len = g.range_u64(1, 8) as usize;
        let parents = trees::parents(g, len);
        let level = g.range_u64(1, 6) as u8;
        let seed = g.range_u64(0, 100);
        let tree = trees::session_tree(&parents, 0, 0);
        let leaves = trees::leaf_receivers(&tree);
        assert!(!leaves.is_empty(), "a tree with a parent has a non-root leaf");
        let spec = LayerSpec::paper_default();
        let specs = [&spec];
        let mut state = AlgorithmState::new(Config::default(), seed);
        let trees = vec![tree];
        let registry: Vec<(AppId, NodeId, SessionId)> =
            leaves.iter().enumerate().map(|(i, &n)| (AppId(i as u32), n, SessionId(0))).collect();
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
            let inputs = trees::inputs_at(2 * (round + 1), &trees, &specs, &registry, &reports);
            let out = state.run(&inputs);
            for s in &out.suggestions {
                assert!(
                    s.level >= level,
                    "clean network reduced {level} -> {}: parents {parents:?}, round {round}",
                    s.level
                );
            }
        }
    });
}

/// Determinism: same seed and inputs produce identical suggestion
/// sequences.
#[test]
fn algorithm_is_deterministic() {
    check("algorithm_is_deterministic", 48, |g| {
        let len = g.range_u64(1, 6) as usize;
        let parents = trees::parents(g, len);
        let seed = g.range_u64(0, 100);
        let run_all = || {
            let tree = trees::session_tree(&parents, 0, 0);
            let leaves = trees::leaf_receivers(&tree);
            let spec = LayerSpec::paper_default();
            let specs = [&spec];
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
                let inputs = trees::inputs_at(2 * (round + 1), &trees, &specs, &registry, &reports);
                all.push(state.run(&inputs).suggestions);
            }
            all
        };
        assert_eq!(run_all(), run_all(), "parents {parents:?}, seed {seed}");
    });
}

/// Deterministic (non-random) check: the congestion stage's internal
/// loss is never larger than the smallest child loss — for a chain of any
/// length the root's loss equals the leaf's.
#[test]
fn chain_loss_propagates_to_root() {
    use toposense::stages::congestion::{self, LeafObs};
    for len in 1..8usize {
        // A pure chain: node i+1 under node i.
        let chain: Vec<usize> = (0..len).collect();
        let tree = trees::session_tree(&chain, 0, 0);
        let leaves = trees::leaf_receivers(&tree);
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
