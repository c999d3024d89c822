//! The static optimal subscription oracle.
//!
//! Works on the [`TopoSpec`] (which, unlike the running controller, knows
//! the true link capacities) and computes per-receiver optimal levels by
//! **discrete max-min filling**: start everyone at the base layer and
//! repeatedly grant one more layer to a lowest receiver for whom the
//! resulting link loads still fit, until nobody can grow.
//!
//! Layered multicast load model: on a directed link, a session consumes the
//! cumulative rate of the *maximum* level among its downstream receivers
//! (layers are shared on the tree, not duplicated per receiver).

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

/// A directed use of a spec link: `(position in TopoSpec::links, forward?)`
/// where forward means the `a -> b` direction.
type DirUse = (usize, bool);

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
    // Source node per session.
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

    // Receivers with their paths.
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
        let mut max_level: std::collections::HashMap<(DirUse, u32), u8> =
            std::collections::HashMap::new();
        for r in receivers {
            for &du in &r.path {
                let e = max_level.entry((du, r.session)).or_insert(0);
                *e = (*e).max(r.level);
            }
        }
        let mut load: std::collections::HashMap<DirUse, f64> = std::collections::HashMap::new();
        for ((du, _), lvl) in &max_level {
            *load.entry(*du).or_insert(0.0) += layer_spec.cumulative_rate(*lvl);
        }
        load.iter().all(|(&(li, _), &bps)| bps <= spec.links[li].config.bandwidth_bps * headroom)
    };

    assert!(fits(&receivers), "even base layers do not fit this topology");

    // Discrete max-min filling: lowest unfrozen receiver first (ties by
    // receiver order for determinism).
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

#[cfg(test)]
mod tests {
    use super::*;
    use topology::generators;

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
