//! Topology generators: the paper's evaluation topologies plus generic
//! shapes for tests and stress runs.
//!
//! Capacities for the named topologies follow the paper's layered-source
//! arithmetic: 6 layers, base 32 kb/s, doubling per layer, so the cumulative
//! subscription rates are 32 / 96 / 224 / 480 / 992 / 2016 kb/s.

use crate::spec::{NodeRole, TopoSpec};
use netsim::{LinkConfig, RngStream, SimDuration};

/// Paper default: 200 ms latency on every link.
const LATENCY: SimDuration = SimDuration(200 * 1_000_000);

/// A fat link that is never the bottleneck.
fn fat() -> LinkConfig {
    LinkConfig::kbps(100_000.0).with_delay(LATENCY)
}

/// A constrained link with the default drop-tail queue.
fn thin(kbps: f64) -> LinkConfig {
    LinkConfig::kbps(kbps).with_delay(LATENCY)
}

/// **Topology A** (Fig. 5, left): one session, two sets of receivers behind
/// different bottlenecks.
///
/// ```text
///          src(+controller)
///               |
///              core
///             /    \
///   [cap_a kbps]  [cap_b kbps]      <- the two bottlenecks
///           lanA    lanB
///          / | \    / | \
///        receivers  receivers       <- n per set, fat last hops
/// ```
///
/// With the defaults (`cap_a = 150`, `cap_b = 600`) the optimal subscription
/// is 2 layers (96 kb/s) for set A and 4 layers (480 kb/s) for set B.
fn topology_a(receivers_per_set: usize, cap_a_kbps: f64, cap_b_kbps: f64) -> TopoSpec {
    assert!(receivers_per_set >= 1);
    let mut s = TopoSpec::new(format!("topology-a/{receivers_per_set}"));
    let src = s.node("src", vec![NodeRole::Source { session: 0 }, NodeRole::Controller]);
    let core = s.node("core", vec![NodeRole::Router]);
    s.link(src, core, fat());
    for (set, cap) in [(0u32, cap_a_kbps), (1u32, cap_b_kbps)] {
        let lan = s.node(format!("lan{set}"), vec![NodeRole::Router]);
        s.link(core, lan, thin(cap));
        for r in 0..receivers_per_set {
            let rcv = s.node(format!("rcv{set}.{r}"), vec![NodeRole::Receiver { session: 0, set }]);
            s.link(lan, rcv, fat());
        }
    }
    s
}

/// Topology A with the capacities used throughout the evaluation.
pub fn topology_a_default(receivers_per_set: usize) -> TopoSpec {
    topology_a(receivers_per_set, 150.0, 600.0)
}

/// **Topology B** (Fig. 5, right): `n` single-receiver sessions sharing one
/// bottleneck link whose capacity scales as `per_session_kbps * n`, so each
/// session can ideally receive 4 layers (480 kb/s) at the paper's
/// `per_session_kbps = 500`.
///
/// ```text
///   s0 s1 .. s(n-1)
///     \ | | /
///       agg  ==[n * per_session_kbps]==  dist
///                                       / | \
///                                     r0 r1 .. r(n-1)
/// ```
///
/// The controller sits on session 0's source node, so its suggestions cross
/// the shared link and can be lost under congestion, as in the paper.
pub fn topology_b(n_sessions: usize, per_session_kbps: f64) -> TopoSpec {
    assert!(n_sessions >= 1);
    let mut s = TopoSpec::new(format!("topology-b/{n_sessions}"));
    let agg = s.node("agg", vec![NodeRole::Router]);
    let dist = s.node("dist", vec![NodeRole::Router]);
    s.link(agg, dist, thin(per_session_kbps * n_sessions as f64));
    for i in 0..n_sessions {
        let roles = if i == 0 {
            vec![NodeRole::Source { session: 0 }, NodeRole::Controller]
        } else {
            vec![NodeRole::Source { session: i as u32 }]
        };
        let src = s.node(format!("s{i}"), roles);
        s.link(src, agg, fat());
        let rcv = s.node(format!("r{i}"), vec![NodeRole::Receiver { session: i as u32, set: 0 }]);
        s.link(dist, rcv, fat());
    }
    s
}

/// Topology B with the paper's 500 kb/s fair share per session.
pub fn topology_b_default(n_sessions: usize) -> TopoSpec {
    topology_b(n_sessions, 500.0)
}

/// The **Fig. 1** motivating example: a receiver at node 4 that greedily
/// adds a third layer congests the shared link into node 2 and causes loss
/// for the slower sibling at node 3.
///
/// ```text
///   src -- n1 -- n2 -- n3   (2->3: 40 kb/s,  optimal 1 layer)
///           |     \
///           |      n4       (2->4: 120 kb/s, optimal 2 layers)
///           n5              (1->5: fat,      optimal capped by 1->2? no:
///                            separate subtree, optimal 4+ layers)
/// ```
///
/// The link 1 -> 2 carries 110 kb/s, which fits layers {1,2} (96 kb/s) but
/// not layer 3 (224 kb/s cumulative): over-subscription at node 4 therefore
/// hurts node 3 as well, which is the paper's motivating observation.
pub fn figure1() -> TopoSpec {
    let mut s = TopoSpec::new("figure1");
    let src = s.node("src", vec![NodeRole::Source { session: 0 }, NodeRole::Controller]);
    let n1 = s.node("n1", vec![NodeRole::Router]);
    let n2 = s.node("n2", vec![NodeRole::Router]);
    let n3 = s.node("n3", vec![NodeRole::Receiver { session: 0, set: 0 }]);
    let n4 = s.node("n4", vec![NodeRole::Receiver { session: 0, set: 1 }]);
    let n5 = s.node("n5", vec![NodeRole::Receiver { session: 0, set: 2 }]);
    s.link(src, n1, fat());
    s.link(n1, n2, thin(110.0));
    s.link(n2, n3, thin(40.0));
    s.link(n2, n4, thin(120.0));
    s.link(n1, n5, thin(600.0));
    s
}

/// Parameters for a random tiered (Fig. 2-style) topology.
#[derive(Clone, Copy, Debug)]
pub struct TieredParams {
    /// Number of tiers below the source (≥ 1).
    pub tiers: usize,
    /// Fan-out range per router, inclusive.
    pub fanout: (u64, u64),
    /// Capacity of tier-1 links in kb/s; each deeper tier divides by
    /// `capacity_decay`.
    pub top_kbps: f64,
    /// Per-tier capacity division factor (> 1 puts bottlenecks at the edge —
    /// the paper's "last mile problem").
    pub capacity_decay: f64,
}

impl Default for TieredParams {
    fn default() -> Self {
        TieredParams { tiers: 3, fanout: (2, 3), top_kbps: 8000.0, capacity_decay: 4.0 }
    }
}

/// A random tiered tree for one session: national -> regional -> local ->
/// institutional ISPs, capacities decaying toward the leaves. Receivers sit
/// at every leaf of the last tier.
pub fn tiered(rng: &mut RngStream, p: TieredParams) -> TopoSpec {
    assert!(p.tiers >= 1);
    let mut s = TopoSpec::new("tiered");
    let src = s.node("src", vec![NodeRole::Source { session: 0 }, NodeRole::Controller]);
    let mut frontier = vec![src];
    let mut kbps = p.top_kbps;
    for tier in 0..p.tiers {
        let mut next = Vec::new();
        let last = tier + 1 == p.tiers;
        for (pi, &parent) in frontier.iter().enumerate() {
            let fan = rng.range_u64(p.fanout.0, p.fanout.1 + 1) as usize;
            for c in 0..fan {
                let roles = if last {
                    vec![NodeRole::Receiver { session: 0, set: tier as u32 }]
                } else {
                    vec![NodeRole::Router]
                };
                let node = s.node(format!("t{tier}.{pi}.{c}"), roles);
                // Jitter capacities ±25% so sibling subtrees differ.
                let jitter = rng.range_f64(0.75, 1.25);
                s.link(parent, node, thin(kbps * jitter));
                next.push(node);
            }
        }
        frontier = next;
        kbps /= p.capacity_decay;
    }
    s
}

/// A random tiered tree shared by `n_sessions` co-located sources: leaf
/// receivers are assigned to sessions round-robin, so sessions interleave
/// across the whole tree and every interior link is *shared* — the
/// stress case for the capacity estimator and the fair-share stage.
pub fn tiered_multisession(rng: &mut RngStream, p: TieredParams, n_sessions: usize) -> TopoSpec {
    assert!(n_sessions >= 1);
    let mut s = tiered(rng, p);
    // Re-role: the single source node hosts every session's source; leaf
    // receivers rotate through the sessions.
    let mut roles = vec![NodeRole::Controller];
    for sess in 0..n_sessions as u32 {
        roles.push(NodeRole::Source { session: sess });
    }
    s.nodes[0].roles = roles;
    let mut next = 0u32;
    for node in s.nodes.iter_mut().skip(1) {
        for role in node.roles.iter_mut() {
            if let NodeRole::Receiver { session, .. } = role {
                *session = next % n_sessions as u32;
                next += 1;
            }
        }
    }
    s.name = format!("tiered-multi/{n_sessions}");
    s
}

/// A chain `src - r1 - … - r(n-1) - rcv` with uniform capacity; for unit and
/// property tests.
pub fn chain(hops: usize, kbps: f64) -> TopoSpec {
    assert!(hops >= 1);
    let mut s = TopoSpec::new(format!("chain/{hops}"));
    let src = s.node("src", vec![NodeRole::Source { session: 0 }, NodeRole::Controller]);
    let mut prev = src;
    for h in 0..hops {
        let roles = if h + 1 == hops {
            vec![NodeRole::Receiver { session: 0, set: 0 }]
        } else {
            vec![NodeRole::Router]
        };
        let node = s.node(format!("h{h}"), roles);
        s.link(prev, node, thin(kbps));
        prev = node;
    }
    s
}

/// A star: source in the middle, `n` receivers on individually-capped legs.
pub fn star(legs: &[f64]) -> TopoSpec {
    assert!(!legs.is_empty());
    let mut s = TopoSpec::new(format!("star/{}", legs.len()));
    let src = s.node("src", vec![NodeRole::Source { session: 0 }, NodeRole::Controller]);
    for (i, &kbps) in legs.iter().enumerate() {
        let rcv = s.node(format!("r{i}"), vec![NodeRole::Receiver { session: 0, set: i as u32 }]);
        s.link(src, rcv, thin(kbps));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NodeId;

    #[test]
    fn topology_a_shape() {
        let s = topology_a_default(3);
        // src + core + 2 lans + 6 receivers.
        assert_eq!(s.nodes.len(), 10);
        assert_eq!(s.links.len(), 9);
        assert_eq!(s.receivers().len(), 6);
        assert_eq!(s.sources().len(), 1);
        assert_eq!(s.controller(), NodeId(0));
        // Both sets present.
        let sets: Vec<u32> = s.receivers().iter().map(|&(_, (_, set))| set).collect();
        assert_eq!(sets.iter().filter(|&&x| x == 0).count(), 3);
        assert_eq!(sets.iter().filter(|&&x| x == 1).count(), 3);
    }

    #[test]
    fn topology_b_shared_link_scales() {
        let s = topology_b_default(4);
        assert_eq!(s.session_count(), 4);
        assert_eq!(s.receivers().len(), 4);
        // The shared link (the first one added) carries 4 * 500 kb/s.
        assert_eq!(s.links[0].config.bandwidth_bps, 2_000_000.0);
        // Controller rides on source 0.
        let ctrl = s.controller();
        assert!(s.sources().iter().any(|&(i, sess)| i == ctrl && sess == 0));
    }

    #[test]
    fn figure1_capacities_tell_the_story() {
        let s = figure1();
        // 1 -> 2 fits two layers (96) but not three (224).
        let [n1, n2, n3] = [1, 2, 3].map(NodeId);
        let c12 = s.capacity_between(n1, n2).unwrap();
        assert!(c12 > 96_000.0 && c12 < 224_000.0);
        let c23 = s.capacity_between(n2, n3).unwrap();
        assert!(c23 > 32_000.0 && c23 < 96_000.0);
    }

    #[test]
    fn tiered_is_buildable_and_decays() {
        let mut rng = RngStream::derive(11, "tiered-test");
        let p = TieredParams::default();
        let s = tiered(&mut rng, p);
        assert!(s.receivers().len() >= 4, "at least 2^2 leaves");
        let sim = s.instantiate(Default::default());
        assert_eq!(sim.network().node_count(), s.nodes.len());
        // Last-tier links are slower than first-tier links.
        let first = s.links.first().unwrap().config.bandwidth_bps;
        let last = s.links.last().unwrap().config.bandwidth_bps;
        assert!(last < first / 4.0);
    }

    #[test]
    fn tiered_is_deterministic_per_seed() {
        let gen = |seed| {
            let mut rng = RngStream::derive(seed, "tiered-test");
            tiered(&mut rng, TieredParams::default()).nodes.len()
        };
        assert_eq!(gen(5), gen(5));
    }

    #[test]
    fn tiered_multisession_interleaves_sessions() {
        let mut rng = RngStream::derive(3, "tiered-ms");
        let s = tiered_multisession(&mut rng, TieredParams::default(), 3);
        assert_eq!(s.session_count(), 3);
        let sessions: Vec<u32> = s.receivers().iter().map(|&(_, (sess, _))| sess).collect();
        // Every session has at least one receiver (enough leaves exist).
        for sess in 0..3 {
            assert!(sessions.contains(&sess), "session {sess} unassigned: {sessions:?}");
        }
        // All sources are co-located with the controller at the root node.
        assert!(s.sources().iter().all(|&(node, _)| node == NodeId(0)));
        assert_eq!(s.controller(), NodeId(0));
    }

    #[test]
    fn chain_and_star() {
        let c = chain(4, 100.0);
        assert_eq!(c.nodes.len(), 5);
        assert_eq!(c.receivers().len(), 1);
        let st = star(&[100.0, 200.0, 300.0]);
        assert_eq!(st.receivers().len(), 3);
        assert_eq!(st.links.len(), 3);
    }
}
