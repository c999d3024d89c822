//! Property-based tests over the core data structures and invariants.

use metrics::StepSeries;
use netsim::rng::check;
use netsim::sim::SimConfig;
use netsim::{EventQueue, FaultKind, FaultPlan, LinkConfig, NodeId, SimTime};
use std::collections::BTreeMap;
use topology::Tree;
use traffic::LayerSpec;

mod trees;

/// The event queue pops in non-decreasing time order regardless of the
/// insertion pattern, with ties broken by insertion order.
#[test]
fn event_queue_is_monotone() {
    check("event_queue_is_monotone", 64, |g| {
        let times: Vec<u64> = (0..g.range_u64(1, 200)).map(|_| g.range_u64(0, 10_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(
                SimTime::from_millis(t),
                netsim::Event::Timer { app: netsim::AppId(0), token: i as u64 },
            );
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<u64> = Vec::new();
        while let Some((t, ev)) = q.pop() {
            assert!(t >= last_time, "{t:?} popped after {last_time:?} from {times:?}");
            let token = match ev {
                netsim::Event::Timer { token, .. } => token,
                _ => unreachable!(),
            };
            if t == last_time {
                // FIFO among equal timestamps: tokens increase.
                if let Some(&prev) = seen_at_time.last() {
                    assert!(token > prev, "token {token} after {prev} at {t:?} from {times:?}");
                }
                seen_at_time.push(token);
            } else {
                seen_at_time.clear();
                seen_at_time.push(token);
            }
            last_time = t;
        }
    });
}

/// Random parent assignments build a valid tree (parents precede children
/// in index order, so no cycles) with consistent invariants.
#[test]
fn random_trees_have_consistent_structure() {
    check("random_trees_have_consistent_structure", 64, |g| {
        let len = g.range_u64(1, 20) as usize;
        let parents = trees::parents(g, len);
        let edges: Vec<(NodeId, NodeId)> = parents
            .iter()
            .enumerate()
            .map(|(i, &p)| (NodeId(p as u32), NodeId(i as u32 + 1)))
            .collect();
        let tree = Tree::from_edges(NodeId(0), &edges).expect("valid by construction");
        assert_eq!(tree.len(), edges.len() + 1, "parents {parents:?}");
        // Top-down visits every parent before its children.
        let order: Vec<NodeId> = tree.top_down().collect();
        let pos = |n: NodeId| order.iter().position(|&x| x == n).unwrap();
        for n in tree.top_down() {
            if let Some(p) = tree.parent(n) {
                assert!(pos(p) < pos(n), "{p:?} after its child {n:?}: parents {parents:?}");
                // children() and parent() agree.
                assert!(tree.children(p).contains(&n), "{n:?} under {p:?}: parents {parents:?}");
            }
        }
    });
}

/// `level_fitting` is the inverse of `cumulative_rate` up to bracketing:
/// the chosen level fits, the next one does not.
#[test]
fn level_fitting_brackets_cumulative_rate() {
    check("level_fitting_brackets_cumulative_rate", 64, |g| {
        let bw = g.range_f64(0.0, 3_000_000.0);
        let spec = LayerSpec::paper_default();
        let level = spec.level_fitting(bw);
        assert!(spec.cumulative_rate(level) <= bw || level == 0, "bw {bw}: level {level}");
        if level < spec.max_level() {
            assert!(spec.cumulative_rate(level + 1) > bw, "bw {bw}: level {level}");
        }
    });
}

/// Relative deviation is zero iff the series sits at the optimum, and
/// scales linearly with a constant offset.
#[test]
fn relative_deviation_properties() {
    check("relative_deviation_properties", 64, |g| {
        let opt = g.range_u64(1, 7) as u8;
        let held = g.range_u64(0, 7) as u8;
        let mut s = StepSeries::new();
        s.push(SimTime::ZERO, held);
        let dev = metrics::relative_deviation(&s, opt, SimTime::ZERO, SimTime::from_secs(100))
            .expect("positive optimum and non-empty window");
        let expect = (held as f64 - opt as f64).abs() / opt as f64;
        assert!((dev - expect).abs() < 1e-9, "opt {opt}, held {held}: {dev} != {expect}");
    });
}

/// Step series time-weighted mean always lies within [min, max] of the
/// values it passes through.
#[test]
fn step_series_mean_is_bounded() {
    check("step_series_mean_is_bounded", 64, |g| {
        let mut changes: Vec<(u64, u8)> = (0..g.range_u64(1, 30))
            .map(|_| (g.range_u64(0, 600), g.range_u64(0, 7) as u8))
            .collect();
        changes.sort_by_key(|&(t, _)| t);
        let mut s = StepSeries::new();
        for &(t, v) in &changes {
            s.push(SimTime::from_secs(t), v);
        }
        let mean = s.mean(SimTime::ZERO, SimTime::from_secs(700));
        assert!((0.0..=6.0).contains(&mean), "mean {mean} of {changes:?}");
    });
}

/// Jain's index is always in (0, 1] and is exactly 1 for equal shares.
#[test]
fn jain_index_bounds() {
    check("jain_index_bounds", 64, |g| {
        let shares: Vec<f64> = (0..g.range_u64(1, 40)).map(|_| g.range_f64(0.0, 1e9)).collect();
        let j = metrics::jain_index(&shares);
        assert!(j > 0.0 - 1e-12 && j <= 1.0 + 1e-12, "index {j} of {shares:?}");
    });
}

/// The VBR packet-count distribution takes only its two design values
/// and long-run-averages to A.
#[test]
fn vbr_two_point_distribution() {
    check("vbr_two_point_distribution", 64, |g| {
        let p = g.range_f64(2.0, 10.0);
        let a = g.range_f64(4.0, 64.0);
        let seed = g.range_u64(0, 1000);
        let model = traffic::TrafficModel::Vbr { p };
        let mut rng = netsim::RngStream::derive(seed, "prop-vbr");
        let peak = (p * a + 1.0 - p).round().max(1.0) as u32;
        let mut total = 0u64;
        let n = 2000;
        for _ in 0..n {
            let k = model.packets_in_frame(a, &mut rng);
            assert!(k == 1 || k == peak, "unexpected count {k}: p {p}, A {a}, seed {seed}");
            total += k as u64;
        }
        let mean = total as f64 / n as f64;
        // Loose bound: two-point distribution has high variance.
        assert!((mean - a).abs() < a * 0.35, "mean {mean} vs A {a}: p {p}, seed {seed}");
    });
}

/// The oracle never allocates below the base layer or above the max, its
/// allocation fits every link, and it is maximal: any receiver below the
/// max would overflow some link on its path with one more layer. Loads are
/// computed here from the spec alone: a tiered tree's links run parent to
/// child, and a directed link carries, per session, the cumulative rate of
/// the highest level downstream of it.
#[test]
fn oracle_allocations_fit() {
    check("oracle_allocations_fit", 64, |g| {
        let seed = g.range_u64(0, 500);
        let mut rng = netsim::RngStream::derive(seed, "prop-oracle");
        let params = topology::generators::TieredParams {
            tiers: 2,
            fanout: (1, 3),
            top_kbps: g.range_f64(1000.0, 4000.0),
            capacity_decay: 3.0,
        };
        let sessions = g.range_u64(1, 4) as usize;
        let spec = topology::generators::tiered_multisession(&mut rng, params, sessions);
        let headroom = 1.0 - g.range_f64(0.0, 0.5);
        let layer_spec = LayerSpec::paper_default();
        let optima = baselines::oracle::optimal_levels(&spec, &layer_spec, headroom);
        assert_eq!(optima.len(), spec.receivers().len(), "seed {seed}");
        for e in &optima {
            assert!(e.level >= 1, "seed {seed}: {e:?}");
            assert!(e.level <= layer_spec.max_level(), "seed {seed}: {e:?}");
        }

        // Each receiver's path as spec link positions, walking up from it.
        let mut up: BTreeMap<NodeId, (NodeId, usize)> = BTreeMap::new();
        for (j, l) in spec.links.iter().enumerate() {
            assert!(up.insert(l.b, (l.a, j)).is_none(), "seed {seed}: {:?} has two parents", l.b);
        }
        let paths: Vec<Vec<usize>> = optima
            .iter()
            .map(|e| {
                let mut path = Vec::new();
                let mut cur = e.node;
                while let Some(&(parent, j)) = up.get(&cur) {
                    path.push(j);
                    cur = parent;
                }
                path
            })
            .collect();
        // Load of each downward link: Σ over sessions of the cumulative rate
        // of the session's highest level below it.
        let loads = |levels: &[u8]| -> Vec<f64> {
            let mut top: BTreeMap<(usize, u32), u8> = BTreeMap::new();
            for ((e, path), &level) in optima.iter().zip(&paths).zip(levels) {
                for &j in path {
                    let m = top.entry((j, e.session)).or_insert(0);
                    *m = (*m).max(level);
                }
            }
            let mut load = vec![0.0; spec.links.len()];
            for (&(j, _), &level) in &top {
                load[j] += layer_spec.cumulative_rate(level);
            }
            load
        };
        let fits = |j: usize, load: f64| load <= spec.links[j].config.bandwidth_bps * headroom;

        let levels: Vec<u8> = optima.iter().map(|e| e.level).collect();
        for (j, &load) in loads(&levels).iter().enumerate() {
            assert!(fits(j, load), "seed {seed}: link {j} carries {load} b/s: {optima:?}");
        }
        for (i, e) in optima.iter().enumerate() {
            if e.level == layer_spec.max_level() {
                continue;
            }
            let mut more = levels.clone();
            more[i] += 1;
            let load = loads(&more);
            assert!(
                paths[i].iter().any(|&j| !fits(j, load[j])),
                "seed {seed}: {e:?} could take one more layer: {optima:?}"
            );
        }
    });
}

/// `TopoSpec` hands out the simulator's ids. On random trees whose links run
/// in random directions, `instantiate` yields one node per `TopoSpec::node`,
/// each pair `TopoSpec::link` returned runs `a -> b` and `b -> a`, and a chaos
/// plan over the spec's ids names only those links and nodes and replays in full.
#[test]
fn topo_spec_ids_are_the_simulator_ids() {
    check("topo_spec_ids_are_the_simulator_ids", 64, |g| {
        let len = g.range_u64(1, 40) as usize;
        let mut spec = topology::TopoSpec::new("random-tree");
        let nodes: Vec<NodeId> = (0..=len).map(|i| spec.node(format!("n{i}"), vec![])).collect();
        let mut meant = BTreeMap::new();
        for (i, p) in trees::parents(g, len).into_iter().enumerate() {
            let (a, b) = if g.chance(0.5) { (p, i + 1) } else { (i + 1, p) };
            let (ab, ba) = spec.link(nodes[a], nodes[b], LinkConfig::kbps(1000.0));
            meant.extend([(ab, (nodes[a], nodes[b])), (ba, (nodes[b], nodes[a]))]);
        }
        assert_eq!(spec.all_nodes(), nodes);
        let mut sim = spec.instantiate(SimConfig::default());
        assert_eq!(sim.network().node_count(), nodes.len());
        for (i, &n) in nodes.iter().enumerate() {
            assert_eq!(sim.network().node_label(n), format!("n{i}"));
        }
        for (&l, &ends) in &meant {
            assert_eq!((sim.network().link_tail(l), sim.network().link_head(l)), ends, "{l:?}");
        }
        let (t0, t1) = (SimTime::from_secs(1), SimTime::from_secs(2));
        let plan =
            FaultPlan::new().chaos(g.range_u64(0, 1 << 20), &spec.all_links(), &nodes, t0, t1, 8);
        for &(_, kind) in plan.events() {
            let known = match kind {
                FaultKind::LinkDown(l) | FaultKind::LinkUp(l) => meant.contains_key(&l),
                FaultKind::NodeCrash(n) | FaultKind::NodeRestart(n) => nodes.contains(&n),
            };
            assert!(known, "{kind:?} names no element of the spec");
        }
        sim.install_faults(&plan);
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.profile().ev_fault, plan.events().len() as u64);
    });
}

/// Loss tracking: for any loss pattern, received + lost equals the
/// sequence span, and the loss rate is within [0, 1].
#[test]
fn seq_tracker_accounting() {
    check("seq_tracker_accounting", 64, |g| {
        let drops: Vec<bool> = (0..g.range_u64(1, 500)).map(|_| g.chance(0.5)).collect();
        let mut tracker = netsim::SeqTracker::new();
        let mut sent = 0u64;
        let mut delivered = 0u64;
        for (seq, &dropped) in drops.iter().enumerate() {
            sent += 1;
            if !dropped {
                tracker.on_packet(seq as u64, 1000);
                delivered += 1;
            }
        }
        let w = tracker.take_window();
        assert_eq!(w.received, delivered, "drops {drops:?}");
        assert!((0.0..=1.0).contains(&w.loss_rate()), "drops {drops:?}");
        if delivered > 0 {
            // Everything between the first and last delivered packet is
            // accounted for.
            assert!(w.received + w.lost <= sent, "drops {drops:?}");
        }
    });
}
