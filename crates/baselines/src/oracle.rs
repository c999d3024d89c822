//! The static optimal subscription oracle.
//!
//! Works on the [`TopoSpec`] (which, unlike the running controller, knows
//! the true link capacities) and computes per-receiver optimal levels by
//! **discrete max-min filling**: start everyone at the base layer and
//! repeatedly grant one more layer to a lowest receiver (lowest
//! `(level, receiver index)`) for whom the resulting link loads still fit;
//! a receiver whose grant does not fit keeps its level and is frozen. The
//! filling ends when nobody can grow.
//!
//! Layered multicast load model: on a directed link, a session consumes the
//! cumulative rate of the *maximum* level among its downstream receivers
//! (layers are shared on the tree, not duplicated per receiver). A link's
//! load sums those rates in ascending session order.
//!
//! **How it runs.** One BFS per session from its source gives every
//! receiver's path by walking parent pointers; BFS sets a parent on first
//! discovery, so these are the paths a BFS per receiver would find. Each
//! `(directed link, session)` pair on some path is interned once as a
//! *use* holding the session's maximum downstream level there, and each
//! directed link lists its uses in ascending session order. The filling
//! then runs in rounds: round `l` visits the unfrozen receivers in index
//! order and tries to lift each from `l` to `l + 1`. This is the
//! lowest-`(level, index)`-first order: every receiver starts at level 1
//! and a grant lifts it by exactly one, so when round `l` begins every
//! unfrozen receiver sits at `l`, and within the round the lowest pair is
//! always the next unfrozen receiver in index order. A grant raises the
//! maxima on its own path and re-sums only the links whose maximum moved
//! (every other link's load is unchanged and already fits); if one of
//! them overflows, the maxima go back and the receiver freezes.
//!
//! **Cost.** O(S·(N + E)) for the BFSes and O(R·depth) for the paths, then
//! at most `L − 1` grants per receiver, each touching its `depth` uses and
//! re-summing at most `depth` links of `s` sessions each: O(R·L·depth·s)
//! for S sessions, N nodes, E links, R receivers, L layers and `s` the
//! most sessions sharing one link. On a 2-vCPU Xeon, release build,
//! `scenarios::largetree::heterogeneous_lastmile(10, 4, …)` (10,000
//! receivers) takes 3.3–6.7 ms, where the direct filling took 90 s.

use netsim::NodeId;
use topology::spec::TopoSpec;
use traffic::LayerSpec;

/// One receiver's optimum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OptimalEntry {
    /// The receiver's node.
    pub node: NodeId,
    pub session: u32,
    pub set: u32,
    /// Optimal subscription level.
    pub level: u8,
}

/// Compute the optimal level for every receiver in `spec`, assuming every
/// session uses `layer_spec` (the paper's sessions are homogeneous). The
/// entries follow [`TopoSpec::receivers`] order.
///
/// `headroom` scales capacities before fitting (e.g. `0.95` leaves 5% for
/// control traffic and VBR jitter; `1.0` = exact CBR fit).
///
/// ```
/// use baselines::oracle::optimal_levels;
/// use topology::generators;
/// use traffic::LayerSpec;
/// // Topology A: 150 kb/s and 600 kb/s bottlenecks -> 2 and 4 layers.
/// let spec = generators::topology_a_default(1);
/// let optima = optimal_levels(&spec, &LayerSpec::paper_default(), 1.0);
/// let mut levels: Vec<u8> = optima.iter().map(|e| e.level).collect();
/// levels.sort();
/// assert_eq!(levels, vec![2, 4]);
/// ```
pub fn optimal_levels(spec: &TopoSpec, layer_spec: &LayerSpec, headroom: f64) -> Vec<OptimalEntry> {
    assert!(headroom > 0.0 && headroom <= 1.0);
    let receivers = spec.receivers();
    let sources = spec.sources();
    let source_of = |session: u32| -> usize {
        sources
            .iter()
            .find(|&&(_, s)| s == session)
            .map(|&(n, _)| n.index())
            .unwrap_or_else(|| panic!("no source for session {session}"))
    };

    // Adjacency: node -> [(directed link, neighbor)], where the spec's
    // `j`-th link is `2j` from `a` to `b` and `2j + 1` back.
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); spec.nodes.len()];
    for (j, l) in spec.links.iter().enumerate() {
        adj[l.a.index()].push((2 * j, l.b.index()));
        adj[l.b.index()].push((2 * j + 1, l.a.index()));
    }

    // Receiver indices grouped by session, ascending, so that uses are
    // interned in ascending session order.
    let mut by_session: Vec<usize> = (0..receivers.len()).collect();
    by_session.sort_by_key(|&i| receivers[i].1 .0);

    // Paths as use ids, flat; `span[i]` is receiver `i`'s slice of `paths`.
    let mut use_link: Vec<usize> = Vec::new();
    let mut link_uses: Vec<Vec<u32>> = vec![Vec::new(); 2 * spec.links.len()];
    let mut paths: Vec<u32> = Vec::new();
    let mut span = vec![(0, 0); receivers.len()];
    // The current session's use of each directed link, once interned.
    let mut current_use = vec![u32::MAX; link_uses.len()];
    let mut current_session = None;
    // BFS parent of each node: (parent node, directed link into the node).
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; spec.nodes.len()];
    let mut from = 0;
    for &i in &by_session {
        let (node, (session, _)) = receivers[i];
        if current_session != Some(session) {
            current_session = Some(session);
            current_use.fill(u32::MAX);
            from = source_of(session);
            prev.fill(None);
            let mut queue = std::collections::VecDeque::from([from]);
            while let Some(n) = queue.pop_front() {
                for &(d, nb) in &adj[n] {
                    if nb != from && prev[nb].is_none() {
                        prev[nb] = Some((n, d));
                        queue.push_back(nb);
                    }
                }
            }
        }
        let start = paths.len();
        let mut cur = node.index();
        while cur != from {
            let (p, d) = prev[cur].unwrap_or_else(|| panic!("no path {from} -> {}", node.index()));
            if current_use[d] == u32::MAX {
                current_use[d] = use_link.len() as u32;
                link_uses[d].push(current_use[d]);
                use_link.push(d);
            }
            paths.push(current_use[d]);
            cur = p;
        }
        span[i] = (start, paths.len());
    }

    let cumulative: Vec<f64> =
        (0..=layer_spec.max_level()).map(|l| layer_spec.cumulative_rate(l)).collect();
    // Every receiver starts at the base layer, so every use's maximum is 1.
    let mut use_max = vec![1u8; use_link.len()];
    let fits = |use_max: &[u8], d: usize| -> bool {
        let load =
            link_uses[d].iter().fold(0.0, |sum, &u| sum + cumulative[use_max[u as usize] as usize]);
        load <= spec.links[d / 2].config.bandwidth_bps * headroom
    };
    assert!(
        use_link.iter().all(|&d| fits(&use_max, d)),
        "even base layers do not fit this topology"
    );

    let mut level = vec![1u8; receivers.len()];
    let mut frozen = vec![false; receivers.len()];
    let mut raised: Vec<u32> = Vec::new();
    for l in 1..layer_spec.max_level() {
        for i in 0..receivers.len() {
            if frozen[i] {
                continue;
            }
            let (start, end) = span[i];
            raised.clear();
            for &u in &paths[start..end] {
                if use_max[u as usize] == l {
                    use_max[u as usize] = l + 1;
                    raised.push(u);
                }
            }
            if raised.iter().all(|&u| fits(&use_max, use_link[u as usize])) {
                level[i] = l + 1;
            } else {
                for &u in &raised {
                    use_max[u as usize] = l;
                }
                frozen[i] = true;
            }
        }
    }

    receivers
        .into_iter()
        .zip(level)
        .map(|((node, (session, set)), level)| OptimalEntry { node, session, set, level })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::check;
    use std::collections::BTreeMap;
    use topology::generators::{self, TieredParams};

    /// A directed use of a spec link: `(position in TopoSpec::links, forward?)`
    /// where forward means the `a -> b` direction.
    type DirUse = (usize, bool);

    /// The filling done the direct way: one BFS per receiver, a scan of
    /// every receiver for the lowest `(level, index)` before each grant, and
    /// after it a re-check of every link from scratch. Its maps are ordered so that each link's load sums
    /// in ascending session order, as [`optimal_levels`] sums it.
    fn reference_levels(
        spec: &TopoSpec,
        layer_spec: &LayerSpec,
        headroom: f64,
    ) -> Vec<OptimalEntry> {
        assert!(headroom > 0.0 && headroom <= 1.0);
        let sources = spec.sources();
        let source_of = |session: u32| -> usize {
            sources
                .iter()
                .find(|&&(_, s)| s == session)
                .map(|&(n, _)| n.index())
                .unwrap_or_else(|| panic!("no source for session {session}"))
        };

        // Adjacency: node -> [(link index, neighbor, forward?)].
        let mut adj: Vec<Vec<(usize, usize, bool)>> = vec![Vec::new(); spec.nodes.len()];
        for (li, l) in spec.links.iter().enumerate() {
            adj[l.a.index()].push((li, l.b.index(), true));
            adj[l.b.index()].push((li, l.a.index(), false));
        }

        // BFS path from `from` to `to`, as directed link uses.
        let path = |from: usize, to: usize| -> Vec<DirUse> {
            let mut prev: Vec<Option<(usize, DirUse)>> = vec![None; spec.nodes.len()];
            let mut seen = vec![false; spec.nodes.len()];
            seen[from] = true;
            let mut q = std::collections::VecDeque::from([from]);
            while let Some(n) = q.pop_front() {
                if n == to {
                    break;
                }
                for &(li, nb, fwd) in &adj[n] {
                    if !seen[nb] {
                        seen[nb] = true;
                        prev[nb] = Some((n, (li, fwd)));
                        q.push_back(nb);
                    }
                }
            }
            let mut out = Vec::new();
            let mut cur = to;
            while cur != from {
                let (p, du) = prev[cur].unwrap_or_else(|| panic!("no path {from} -> {to}"));
                out.push(du);
                cur = p;
            }
            out.reverse();
            out
        };

        struct R {
            node: NodeId,
            session: u32,
            set: u32,
            path: Vec<DirUse>,
            level: u8,
            frozen: bool,
        }
        let mut receivers: Vec<R> = spec
            .receivers()
            .into_iter()
            .map(|(node, (session, set))| R {
                node,
                session,
                set,
                path: path(source_of(session), node.index()),
                level: 1,
                frozen: false,
            })
            .collect();

        // Link load given candidate levels: per (dir-link, session) the max
        // level downstream, converted to cumulative rate.
        let fits = |receivers: &[R]| -> bool {
            let mut max_level: BTreeMap<(DirUse, u32), u8> = BTreeMap::new();
            for r in receivers {
                for &du in &r.path {
                    let e = max_level.entry((du, r.session)).or_insert(0);
                    *e = (*e).max(r.level);
                }
            }
            let mut load: BTreeMap<DirUse, f64> = BTreeMap::new();
            for ((du, _), lvl) in &max_level {
                *load.entry(*du).or_insert(0.0) += layer_spec.cumulative_rate(*lvl);
            }
            load.iter()
                .all(|(&(li, _), &bps)| bps <= spec.links[li].config.bandwidth_bps * headroom)
        };

        assert!(fits(&receivers), "even base layers do not fit this topology");

        while let Some(idx) = receivers
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.frozen && r.level < layer_spec.max_level())
            .min_by_key(|(i, r)| (r.level, *i))
            .map(|(i, _)| i)
        {
            receivers[idx].level += 1;
            if !fits(&receivers) {
                receivers[idx].level -= 1;
                receivers[idx].frozen = true;
            }
        }

        receivers
            .into_iter()
            .map(|r| OptimalEntry { node: r.node, session: r.session, set: r.set, level: r.level })
            .collect()
    }

    /// The filling in rounds over interned uses equals the reference, entry
    /// for entry, on random tiered trees with one to five sessions, random
    /// headroom in (0.5, 1], and doubling or arbitrary fractional layer
    /// rates. Every base rate fits by construction, so both sides fill.
    #[test]
    fn equals_the_reference_on_random_specs() {
        check("oracle_equals_the_reference", 500, |g| {
            let fanout_lo = g.range_u64(1, 4);
            let params = TieredParams {
                tiers: g.range_u64(1, 4) as usize,
                fanout: (fanout_lo, fanout_lo + g.range_u64(0, 3)),
                top_kbps: g.range_f64(1000.0, 8000.0),
                capacity_decay: g.range_f64(0.5, 3.0),
            };
            let mut rng = netsim::RngStream::derive(g.range_u64(0, 1 << 32), "oracle-diff");
            let sessions = g.range_u64(1, 6) as usize;
            let spec = if sessions == 1 {
                generators::tiered(&mut rng, params)
            } else {
                generators::tiered_multisession(&mut rng, params, sessions)
            };
            let count = g.range_u64(2, 11) as usize;
            let layers = if g.chance(0.5) {
                LayerSpec::doubling(g.range_f64(1000.0, 20_000.0), count)
            } else {
                let mut rates = vec![g.range_f64(1000.0, 20_000.0)];
                rates.extend((1..count).map(|_| g.range_f64(1000.0, 400_000.0)));
                LayerSpec::from_rates(rates)
            };
            let headroom = if g.chance(0.2) { 1.0 } else { 1.0 - g.range_f64(0.0, 0.5) };
            let fast = optimal_levels(&spec, &layers, headroom);
            let slow = reference_levels(&spec, &layers, headroom);
            assert_eq!(
                fast, slow,
                "{params:?}, {sessions} sessions, {layers:?}, headroom {headroom}"
            );
        });
    }

    /// The same on the paper's topologies, including the headrooms at which
    /// some base layer does not fit: then both sides refuse the spec.
    #[test]
    fn equals_the_reference_on_the_paper_topologies() {
        let specs = [
            generators::figure1(),
            generators::topology_a_default(3),
            generators::topology_b_default(16),
            generators::topology_b(4, 300.0),
        ];
        for spec in &specs {
            for headroom in [0.75, 0.9, 1.0] {
                let run = |f: fn(&TopoSpec, &LayerSpec, f64) -> Vec<OptimalEntry>| {
                    std::panic::catch_unwind(|| f(spec, &spec6(), headroom)).ok()
                };
                let fast = run(optimal_levels);
                assert_eq!(fast, run(reference_levels), "{} at {headroom}", spec.name);
            }
        }
    }

    fn spec6() -> LayerSpec {
        LayerSpec::paper_default()
    }

    #[test]
    fn topology_a_optima_are_2_and_4() {
        let spec = generators::topology_a_default(3);
        let opt = optimal_levels(&spec, &spec6(), 1.0);
        assert_eq!(opt.len(), 6);
        for e in &opt {
            let expect = if e.set == 0 { 2 } else { 4 };
            assert_eq!(e.level, expect, "set {} receiver at {:?}", e.set, e.node);
        }
    }

    #[test]
    fn topology_b_everyone_gets_4() {
        for n in [1usize, 4, 16] {
            let spec = generators::topology_b_default(n);
            let opt = optimal_levels(&spec, &spec6(), 1.0);
            assert_eq!(opt.len(), n);
            for e in &opt {
                assert_eq!(e.level, 4, "n={n} session {}", e.session);
            }
        }
    }

    #[test]
    fn figure1_optima_match_the_paper_story() {
        let spec = generators::figure1();
        let opt = optimal_levels(&spec, &spec6(), 1.0);
        // Receivers: n3 (set 0) -> 1 layer, n4 (set 1) -> 2, n5 (set 2) -> 4.
        let by_set = |set: u32| opt.iter().find(|e| e.set == set).unwrap().level;
        assert_eq!(by_set(0), 1);
        assert_eq!(by_set(1), 2);
        assert_eq!(by_set(2), 4);
    }

    #[test]
    fn headroom_tightens_the_fit() {
        // Topology B at headroom 0.9: 4 layers = 480 > 450 allowed -> 3.
        let spec = generators::topology_b_default(1);
        let opt = optimal_levels(&spec, &spec6(), 0.9);
        assert_eq!(opt[0].level, 3);
    }

    #[test]
    fn chain_bottleneck() {
        let spec = generators::chain(3, 250.0);
        let opt = optimal_levels(&spec, &spec6(), 1.0);
        // 250 kb/s fits 3 layers (224k), not 4 (480k).
        assert_eq!(opt[0].level, 3);
    }

    #[test]
    fn star_with_heterogeneous_legs() {
        let spec = generators::star(&[40.0, 100.0, 2100.0]);
        let opt = optimal_levels(&spec, &spec6(), 1.0);
        let by_node: Vec<u8> = opt.iter().map(|e| e.level).collect();
        assert_eq!(by_node, vec![1, 2, 6]);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn infeasible_base_layer_panics() {
        // 10 kb/s leg cannot even carry the 32 kb/s base layer.
        let spec = generators::star(&[10.0]);
        let _ = optimal_levels(&spec, &spec6(), 1.0);
    }

    #[test]
    fn shared_link_sums_across_sessions_but_not_within() {
        // Two sessions of one receiver each via one shared 600 kb/s link:
        // each gets 3 layers (224+224=448 <= 600) but not 4 (480+224=704).
        let spec = generators::topology_b(2, 300.0);
        let opt = optimal_levels(&spec, &spec6(), 1.0);
        assert_eq!(opt.iter().map(|e| e.level).collect::<Vec<_>>(), vec![3, 3]);
    }
}
