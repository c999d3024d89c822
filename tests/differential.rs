//! Differential tests: the slot-indexed stage entries — the steps the
//! algorithm driver runs, handed every slot as changed — must reproduce
//! the pre-refactor `HashMap`-indexed implementations bit for bit.
//!
//! The originals are preserved verbatim in `toposense::stages::reference`
//! and act as the oracle; every comparison below is exact (`==` on floats
//! included), because the refactor promises identical iteration and
//! float-summation order, not merely "close" results. Each test spreads
//! its `NodeId`-keyed inputs into slot vectors for the dense side and reads
//! the dense result back at `slot_of(node)`.

use netsim::rng::check;
use netsim::{AppId, DirLinkId, NodeId, RngStream, SessionId, SimDuration, SimTime};
use std::collections::HashMap;
use topology::{DirtySet, SessionTree};
use toposense::history::{BwEquality, CongestionHistory};
use toposense::stages::congestion::{LeafObs, NodeState};
use toposense::stages::reference::{self, DemandContext};
use toposense::stages::subscription::{BackoffTable, NodeInputs};
use toposense::stages::{bottleneck, congestion, sharing, subscription, SharingScratch};
use toposense::Config;
use toposense::BW_EQUAL_TOLERANCE;
use traffic::LayerSpec;

mod trees;
use trees::session_tree;

/// Every slot of `tree`, as a change set.
fn all_slots(tree: &SessionTree) -> DirtySet {
    let mut all = DirtySet::new();
    all.begin(tree.tree().len());
    tree.tree().slots().for_each(|s| _ = all.mark(s));
    all
}

/// Stage 1's step — the one the algorithm driver runs — with every slot
/// changed.
fn congestion_step_all(
    tree: &SessionTree,
    obs: &[Option<LeafObs>],
    cfg: &Config,
) -> Vec<NodeState> {
    let mut b = congestion::Buffers::default();
    b.reset(obs.len());
    b.obs.copy_from_slice(obs);
    b.step(tree, cfg, &mut all_slots(tree), &mut Vec::new(), |_, _, _| false);
    b.states
}

/// Deterministic pseudo-random observations over a subset of nodes.
fn random_obs(tree: &SessionTree, seed: u64) -> HashMap<NodeId, LeafObs> {
    let mut rng = RngStream::derive(seed, "differential/obs");
    let mut obs = HashMap::new();
    for node in tree.tree().top_down() {
        if rng.f64() < 0.7 {
            obs.insert(
                node,
                LeafObs {
                    loss: rng.f64() * 0.4,
                    bytes: (rng.f64() * 200_000.0) as u64,
                    level: 1 + (rng.f64() * 5.0) as u8,
                },
            );
        }
    }
    obs
}

/// Deterministic pseudo-random capacity table over a subset of links.
fn random_capacities(trees: &[SessionTree], seed: u64) -> HashMap<DirLinkId, f64> {
    let mut rng = RngStream::derive(seed, "differential/caps");
    let mut caps = HashMap::new();
    for tree in trees {
        for (_, link, _) in tree.edges() {
            if rng.f64() < 0.5 {
                caps.entry(link).or_insert(50_000.0 + rng.f64() * 2_000_000.0);
            }
        }
    }
    caps
}

/// Stage 1: identical `NodeState` for every node, including exact
/// float equality on the loss field (same summation order).
#[test]
fn congestion_matches_reference() {
    check("congestion_matches_reference", 64, |g| {
        let len = g.range_u64(1, 16) as usize;
        let parents = trees::parents(g, len);
        let seed = g.range_u64(0, 1000);
        let tree = session_tree(&parents, 0, 0);
        let obs = random_obs(&tree, seed);
        let cfg = Config::default();
        let t = tree.tree();
        let slot_obs: Vec<Option<LeafObs>> =
            t.slots().map(|s| obs.get(&t.node_at(s)).copied()).collect();
        let dense = congestion_step_all(&tree, &slot_obs, &cfg);
        let oracle = reference::congestion_compute(&tree, &obs, &cfg);
        for node in t.top_down() {
            let a = dense[t.slot_of(node).unwrap()];
            let b = oracle.node(node);
            assert_eq!(a.loss, b.loss, "{node:?}: parents {parents:?}, seed {seed}");
            assert_eq!(
                a.self_congested, b.self_congested,
                "{node:?}: parents {parents:?}, seed {seed}"
            );
            assert_eq!(a.congested, b.congested, "{node:?}: parents {parents:?}, seed {seed}");
            assert_eq!(
                a.parent_congested, b.parent_congested,
                "{node:?}: parents {parents:?}, seed {seed}"
            );
            assert_eq!(a.max_bytes, b.max_bytes, "{node:?}: parents {parents:?}, seed {seed}");
        }
    });
}

/// Stage 3: identical bottleneck and max-handle values per node.
#[test]
fn bottleneck_matches_reference() {
    check("bottleneck_matches_reference", 64, |g| {
        let len = g.range_u64(1, 16) as usize;
        let parents = trees::parents(g, len);
        let seed = g.range_u64(0, 1000);
        let tree = session_tree(&parents, 0, 0);
        let trees = [tree];
        let caps = random_capacities(&trees, seed);
        let cap = |l: DirLinkId| caps.get(&l).copied();
        let (mut bottleneck, mut max_handle) = (Vec::new(), Vec::new());
        bottleneck::compute_into(&trees[0], cap, &mut bottleneck, &mut max_handle);
        let oracle = reference::bottleneck_compute(&trees[0], cap);
        let t = trees[0].tree();
        for node in t.top_down() {
            let s = t.slot_of(node).unwrap();
            assert_eq!(
                bottleneck[s],
                oracle.bottleneck(node),
                "{node:?}: parents {parents:?}, seed {seed}"
            );
            assert_eq!(
                max_handle[s],
                oracle.max_handle(node),
                "{node:?}: parents {parents:?}, seed {seed}"
            );
        }
    });
}

/// Stage 4 with several sessions sharing every link: identical allowed
/// bandwidth per (session, node) — the proportional-share arithmetic
/// must sum the crossing sessions in the same order.
#[test]
fn sharing_matches_reference() {
    check("sharing_matches_reference", 64, |g| {
        let len = g.range_u64(1, 12) as usize;
        let parents = trees::parents(g, len);
        let nsess = g.range_u64(1, 4) as usize;
        let seed = g.range_u64(0, 1000);
        // Same parent vector and link ids: all sessions share all links.
        let trees: Vec<SessionTree> =
            (0..nsess).map(|s| session_tree(&parents, s as u32, 0)).collect();
        let spec = LayerSpec::paper_default();
        let specs: Vec<&LayerSpec> = trees.iter().map(|_| &spec).collect();
        let caps = random_capacities(&trees, seed);
        let cap = |l: DirLinkId| caps.get(&l).copied();
        let mut dense = SharingScratch::default();
        sharing::compute_into(&trees, &specs, cap, &mut dense);
        let oracle = reference::sharing_compute(&trees, &specs, cap);
        for (i, tree) in trees.iter().enumerate() {
            let t = tree.tree();
            for node in t.top_down() {
                let s = t.slot_of(node).unwrap();
                assert_eq!(
                    dense.allowed_at(i, s),
                    oracle.allowed(i, node),
                    "session {i}, {node:?}: parents {parents:?}, seed {seed}"
                );
            }
        }
    });
}

/// Stage 4 with disjoint links (nothing shared): the fallback
/// "allowed = capacity" path must also match.
#[test]
fn sharing_matches_reference_disjoint_links() {
    check("sharing_matches_reference_disjoint_links", 64, |g| {
        let len = g.range_u64(1, 10) as usize;
        let parents = trees::parents(g, len);
        let seed = g.range_u64(0, 1000);
        let trees = vec![session_tree(&parents, 0, 0), session_tree(&parents, 1, 100)];
        let spec = LayerSpec::paper_default();
        let specs: Vec<&LayerSpec> = trees.iter().map(|_| &spec).collect();
        let caps = random_capacities(&trees, seed);
        let cap = |l: DirLinkId| caps.get(&l).copied();
        let mut dense = SharingScratch::default();
        sharing::compute_into(&trees, &specs, cap, &mut dense);
        let oracle = reference::sharing_compute(&trees, &specs, cap);
        for (i, tree) in trees.iter().enumerate() {
            let t = tree.tree();
            for node in t.top_down() {
                let s = t.slot_of(node).unwrap();
                assert_eq!(
                    dense.allowed_at(i, s),
                    oracle.allowed(i, node),
                    "session {i}, {node:?}: parents {parents:?}, seed {seed}"
                );
            }
        }
    });
}

/// Stage 5 over several rounds with persistent backoff tables and RNG
/// streams on both sides: demand and supply must stay identical, which
/// also proves the RNG draw order (backoff arming) is unchanged. Every
/// round plants the same extra timers in both tables, internal nodes
/// included, so leaves are blocked through ancestors and the dense
/// side's once-per-pass blocked view meets timers armed mid-pass above
/// slots that have yet to decide.
#[test]
fn subscription_matches_reference() {
    check("subscription_matches_reference", 64, |g| {
        let len = g.range_u64(1, 12) as usize;
        let parents = trees::parents(g, len);
        let seed = g.range_u64(0, 1000);
        let tree = session_tree(&parents, 0, 0);
        let t = tree.tree();
        let spec = LayerSpec::paper_default();
        let cfg = Config::default();
        let mut dense_backoffs = BackoffTable::new();
        let mut oracle_backoffs = BackoffTable::new();
        let mut dense_rng = RngStream::derive(seed, "differential/sub");
        let mut oracle_rng = RngStream::derive(seed, "differential/sub");
        let mut gen = RngStream::derive(seed, "differential/sub-inputs");

        for round in 0..3u64 {
            let now = SimTime::from_secs(2 * (round + 1));
            let mut inputs: HashMap<NodeId, NodeInputs> = HashMap::new();
            let mut caps: HashMap<NodeId, u8> = HashMap::new();
            for node in t.top_down() {
                if gen.f64() < 0.3 {
                    // Some already expired, some outliving the next round.
                    let level = 2 + (gen.f64() * 5.0) as u8;
                    let until = now + SimDuration::from_secs((gen.f64() * 5.0) as u64);
                    dense_backoffs.set(node, level, until);
                    oracle_backoffs.set(node, level, until);
                }
                let mut hist = CongestionHistory::new();
                for _ in 0..3 {
                    hist.push(gen.f64() < 0.4);
                }
                let bytes_older = (gen.f64() * 120_000.0) as u64;
                let bytes_recent = (gen.f64() * 120_000.0) as u64;
                // Half the nodes have held their level for two runs: only
                // a settled leaf gets as far as asking whether it is blocked.
                let cur = 1 + (gen.f64() * 5.0) as u8;
                let settled = gen.f64() < 0.5;
                let mut supply = || if settled { cur } else { 1 + (gen.f64() * 5.0) as u8 };
                let (supply_older, supply_recent) = (supply(), supply());
                inputs.insert(
                    node,
                    NodeInputs {
                        hist,
                        parent_congested: gen.f64() < 0.2,
                        sibling_congested: gen.f64() < 0.2,
                        bw: BwEquality::classify(bytes_older, bytes_recent, BW_EQUAL_TOLERANCE),
                        loss: gen.f64() * 0.4,
                        supply_older,
                        supply_recent,
                        demand_prev: (gen.f64() < 0.8).then(|| 1 + (gen.f64() * 5.0) as u8),
                        current_level: (gen.f64() < 0.8).then_some(cur),
                        goodput_bps: gen.f64() * 1_500_000.0,
                    },
                );
                caps.insert(node, 1 + (gen.f64() * 6.0) as u8);
            }
            let level_cap = |n: NodeId| caps[&n];
            let level_cap: &dyn Fn(NodeId) -> u8 = &level_cap;
            let ctx = DemandContext {
                tree: &tree,
                spec: &spec,
                cfg: &cfg,
                now,
                inputs: &inputs,
                level_cap,
            };
            let slot_inputs: Vec<NodeInputs> = t.slots().map(|s| inputs[&t.node_at(s)]).collect();
            let slot_caps: Vec<u8> = t.slots().map(|s| caps[&t.node_at(s)]).collect();
            let cx = subscription::Ctx { tree: &tree, spec: &spec, cfg: &cfg, now };
            let mut b = subscription::Buffers::default();
            b.reset(t.len());
            b.inputs.copy_from_slice(&slot_inputs);
            b.level_cap.copy_from_slice(&slot_caps);
            b.queue.begin(t.len());
            let mut all = all_slots(&tree);
            t.slots().for_each(|s| b.queue.mark(s));
            b.step(cx, &mut dense_backoffs, &mut dense_rng, &mut all, |_, _| {}, |_| {});
            let (demand, supply) = (b.demand, b.supply);
            let oracle =
                reference::subscription_compute(&ctx, &mut oracle_backoffs, &mut oracle_rng);
            for node in t.top_down() {
                let s = t.slot_of(node).unwrap();
                assert_eq!(
                    demand[s], oracle.demand[&node],
                    "round {round}, {node:?}: parents {parents:?}, seed {seed}"
                );
                assert_eq!(
                    supply[s], oracle.supply[&node],
                    "round {round}, {node:?}: parents {parents:?}, seed {seed}"
                );
            }
            assert_eq!(
                dense_backoffs.len(),
                oracle_backoffs.len(),
                "round {round}: parents {parents:?}, seed {seed}"
            );
        }
    });
}

/// End-to-end determinism: two identical `scenarios::run` invocations with
/// the same seed must produce byte-identical results (the dense scratch
/// reuse must not introduce any ordering dependence).
#[test]
fn scenario_results_are_byte_identical_for_fixed_seeds() {
    use scenarios::{run, Scenario};
    use topology::generators;
    use traffic::TrafficModel;

    for seed in [1u64, 7, 42] {
        let go = || {
            let s = Scenario::new(
                generators::topology_b_default(4),
                TrafficModel::Vbr { p: 3.0 },
                seed,
            )
            .with_duration(SimDuration::from_secs(60));
            let r = run(&s);
            format!(
                "{:?}|{:?}|{:?}|{:?}|{:?}",
                r.receivers, r.duration, r.total_drops, r.control_bytes, r.events
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a, b, "seed {seed} produced diverging bytes");
    }
}

/// Session independence: sessions over disjoint link spaces share nothing
/// but the driver (no common link for stages 2/4 to couple them through),
/// so a paired run must give each session the same suggestions it gets
/// when run alone.
#[test]
fn disjoint_sessions_paired_run_matches_solo_run() {
    use toposense::{AlgorithmState, ReceiverReport};

    let parents = [0usize, 0, 1, 1, 2];
    // Disjoint link id spaces: the sessions never interact through stage 2/4.
    let t0 = session_tree(&parents, 0, 0);
    let t1 = session_tree(&parents, 1, 100);
    let spec = LayerSpec::paper_default();

    let leaves = trees::leaf_receivers(&t0);
    let mk_reports = |sid: u32| -> Vec<ReceiverReport> {
        leaves
            .iter()
            .enumerate()
            .map(|(i, &n)| ReceiverReport {
                receiver: AppId(sid * 100 + i as u32),
                node: n,
                session: SessionId(sid),
                level: 2,
                received: 90,
                // Clean reports: stage 5 then consumes no RNG (no backoff
                // arming), so the solo and paired controllers stay in
                // lockstep across rounds and the comparison is exact.
                lost: 0,
                bytes: 25_000,
            })
            .collect()
    };
    let registry_for = |sid: u32| -> Vec<(AppId, NodeId, SessionId)> {
        leaves
            .iter()
            .enumerate()
            .map(|(i, &n)| (AppId(sid * 100 + i as u32), n, SessionId(sid)))
            .collect()
    };

    // Paired run: both sessions in one controller.
    let mut paired = AlgorithmState::new(Config::default(), 5);
    // Solo run: session 0 alone.
    let mut solo = AlgorithmState::new(Config::default(), 5);

    // Session 0 alone is the first of the paired trees, receivers and reports.
    let trees = [t0, t1];
    let (solo_registry, solo_reports) = (registry_for(0), mk_reports(0));
    let mut registry = solo_registry.clone();
    registry.extend(registry_for(1));
    let mut reports = solo_reports.clone();
    reports.extend(mk_reports(1));
    let specs = [&spec, &spec];
    for round in 1..=4u64 {
        let out_paired =
            paired.run(&trees::inputs_at(2 * round, &trees, &specs, &registry, &reports));
        let out_solo = solo.run(&trees::inputs_at(
            2 * round,
            &trees[..1],
            &specs[..1],
            &solo_registry,
            &solo_reports,
        ));

        let paired_s0: Vec<_> =
            out_paired.suggestions.iter().filter(|s| s.session == SessionId(0)).collect();
        let solo_s0: Vec<_> = out_solo.suggestions.iter().collect();
        assert_eq!(paired_s0.len(), solo_s0.len(), "round {round}");
        for (a, b) in paired_s0.iter().zip(&solo_s0) {
            assert_eq!(a.receiver, b.receiver, "round {round}");
            assert_eq!(a.level, b.level, "round {round}");
        }
    }
}
