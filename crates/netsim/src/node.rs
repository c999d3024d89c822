//! Nodes (routers/hosts) and unicast routing.
//!
//! A node is a router that may also host application agents (a media source,
//! a receiver, a controller). Unicast routing is precomputed after the
//! topology is frozen. Every topology the paper evaluates is a tree, and so
//! is every world this program builds, so netsim routes duplex forests only:
//! [`Routing::build`] stores an O(n) interval-labelled structure (parent
//! links + Euler tin/tout ranges + a CSR child table) and refuses any other
//! graph, naming the link that breaks the forest. Paths in a forest are
//! unique, so no search is needed; an all-pairs next-hop table would cost n²
//! entries, which no million-node domain could allocate.

use crate::app::AppId;
use crate::link::DirLinkId;
use std::collections::HashSet;

/// Index of a node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One router/host.
///
/// Liveness (crashed or not) is *not* stored here: the simulator keeps it in
/// a dense per-network bitmap (`Network::node_up`) because the up-check runs
/// on every packet arrival and every timer, and a bitmap stays cache-resident
/// where an array of `Node` structs (label string, link and app lists) does
/// not.
#[derive(Debug, Default)]
pub struct Node {
    /// Outgoing directed links.
    pub out_links: Vec<DirLinkId>,
    /// Applications hosted here.
    pub apps: Vec<AppId>,
    /// Human-readable label for traces and error messages.
    pub label: String,
}

/// Precomputed unicast routing over a duplex forest. `next_hop(from, to)` is
/// the directed link to take at `from` for a packet headed to `to`: up
/// towards the root, unless the destination's Euler interval nests inside
/// ours, in which case down into the unique child subtree containing it.
pub struct Routing {
    /// Connected-component id per node (forests route `None` across them).
    comp: Vec<u32>,
    /// Directed link towards the parent; `None` at component roots.
    up: Vec<Option<DirLinkId>>,
    /// Euler entry label per node (DFS preorder, unique).
    tin: Vec<u32>,
    /// Largest `tin` in the node's subtree (inclusive).
    tout: Vec<u32>,
    /// CSR offsets into `child_tin`/`child_link`, length `n + 1`.
    child_start: Vec<u32>,
    /// `tin` of each child, ascending within a node (DFS order).
    child_tin: Vec<u32>,
    /// Directed link parent → child, parallel to `child_tin`.
    child_link: Vec<DirLinkId>,
}

/// Check that `links` form a duplex tree/forest: no self-loops, no parallel
/// edges, every directed link has its reverse twin, and the undirected edge
/// set is acyclic. Returns each node's outgoing `(link, neighbor)` list on
/// success, or names the first link that breaks one of those rules.
#[allow(clippy::type_complexity)]
fn duplex_forest(
    num_nodes: usize,
    links: &[(DirLinkId, NodeId, NodeId)],
) -> Result<Vec<Vec<(DirLinkId, NodeId)>>, String> {
    let mut seen: HashSet<(u32, u32)> = HashSet::with_capacity(links.len());
    for &(id, from, to) in links {
        if from == to {
            return Err(format!("link {} is a self-loop at node {}", id.0, from.0));
        }
        if !seen.insert((from.0, to.0)) {
            return Err(format!("link {} ({} -> {}) is a parallel edge", id.0, from.0, to.0));
        }
    }
    for &(id, from, to) in links {
        if !seen.contains(&(to.0, from.0)) {
            return Err(format!("link {} ({} -> {}) has no reverse twin", id.0, from.0, to.0));
        }
    }
    // Union-find acyclicity over the undirected edges.
    let mut parent: Vec<u32> = (0..num_nodes as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    let mut adj: Vec<Vec<(DirLinkId, NodeId)>> = vec![Vec::new(); num_nodes];
    for &(id, from, to) in links {
        adj[from.index()].push((id, to));
        if from.0 < to.0 {
            let (a, b) = (find(&mut parent, from.0), find(&mut parent, to.0));
            if a == b {
                return Err(format!("link {} ({} -> {}) closes a cycle", id.0, from.0, to.0));
            }
            parent[a as usize] = b;
        }
    }
    Ok(adj)
}

impl Routing {
    /// Build from `links`, where each entry is `(id, from, to)` of a directed
    /// link.
    ///
    /// # Panics
    /// If `links` is not a duplex forest, naming the offending link. Every
    /// topology is authored by this program (the generators, the scenario
    /// specs, the large-tree worlds), so a non-forest is a bug in its author.
    pub fn build(num_nodes: usize, links: &[(DirLinkId, NodeId, NodeId)]) -> Self {
        let adj = duplex_forest(num_nodes, links)
            .unwrap_or_else(|e| panic!("netsim routes duplex forests only: {e}"));
        let mut comp = vec![u32::MAX; num_nodes];
        let mut up = vec![None; num_nodes];
        let mut tin = vec![0u32; num_nodes];
        let mut tout = vec![0u32; num_nodes];
        let mut children: Vec<Vec<(u32, DirLinkId)>> = vec![Vec::new(); num_nodes];
        let mut clock = 0u32;
        let mut ncomp = 0u32;
        // Iterative DFS per component; the component root is the smallest
        // unvisited node id, children are visited in adjacency (= link
        // insertion) order.
        let mut stack: Vec<(usize, usize)> = Vec::new(); // (node, next child idx)
        for root in 0..num_nodes {
            if comp[root] != u32::MAX {
                continue;
            }
            comp[root] = ncomp;
            tin[root] = clock;
            clock += 1;
            stack.push((root, 0));
            while let Some(top) = stack.last_mut() {
                let (n, i) = (top.0, top.1);
                top.1 += 1;
                if i < adj[n].len() {
                    let (l, nb) = adj[n][i];
                    if comp[nb.index()] == u32::MAX {
                        comp[nb.index()] = ncomp;
                        tin[nb.index()] = clock;
                        clock += 1;
                        // The reverse twin exists by construction; find it.
                        let rev = adj[nb.index()]
                            .iter()
                            .find(|&&(_, t)| t.index() == n)
                            .expect("duplex twin")
                            .0;
                        up[nb.index()] = Some(rev);
                        children[n].push((tin[nb.index()], l));
                        stack.push((nb.index(), 0));
                    }
                } else {
                    tout[n] = clock - 1;
                    stack.pop();
                }
            }
            ncomp += 1;
        }
        // Flatten children into CSR (already tin-ascending: DFS order).
        let mut child_start = Vec::with_capacity(num_nodes + 1);
        let mut child_tin = Vec::new();
        let mut child_link = Vec::new();
        child_start.push(0u32);
        for kids in &children {
            for &(t, l) in kids {
                child_tin.push(t);
                child_link.push(l);
            }
            child_start.push(child_tin.len() as u32);
        }
        Routing { comp, up, tin, tout, child_start, child_tin, child_link }
    }

    /// Next directed link at `from` toward `to`, or `None` if unreachable or
    /// already there.
    pub fn next_hop(&self, from: NodeId, to: NodeId) -> Option<DirLinkId> {
        let (f, t) = (from.index(), to.index());
        if f == t || self.comp[f] != self.comp[t] {
            return None;
        }
        let tt = self.tin[t];
        if self.tin[f] < tt && tt <= self.tout[f] {
            // `to` is in our subtree: descend into the child whose Euler
            // interval contains it. Children are interval-contiguous in DFS
            // order, so it is the last child with `tin <= tt`.
            let (lo, hi) = (self.child_start[f] as usize, self.child_start[f + 1] as usize);
            let kids = &self.child_tin[lo..hi];
            let idx = kids.partition_point(|&k| k <= tt) - 1;
            Some(self.child_link[lo + idx])
        } else {
            // `to` is outside our subtree: the unique path leads through the
            // parent. Roots always hit the descend branch for same-component
            // destinations, so `up` is present here.
            self.up[f]
        }
    }

    /// The sequence of directed links on the path `from -> to`.
    ///
    /// `link_to` maps a directed link to its head node. Returns an empty
    /// vector when `from == to`; panics if `to` is unreachable.
    pub fn path(
        &self,
        from: NodeId,
        to: NodeId,
        link_to: impl Fn(DirLinkId) -> NodeId,
    ) -> Vec<DirLinkId> {
        let mut path = Vec::new();
        let mut cur = from;
        while cur != to {
            let l = self.next_hop(cur, to).unwrap_or_else(|| panic!("no route {cur:?} -> {to:?}"));
            path.push(l);
            cur = link_to(l);
            assert!(path.len() <= self.comp.len(), "routing loop {from:?} -> {to:?}");
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// All-sources BFS next-hop table: the oracle the interval form must
    /// match hop for hop on trees.
    fn build_dense(
        num_nodes: usize,
        links: &[(DirLinkId, NodeId, NodeId)],
    ) -> Vec<Vec<Option<DirLinkId>>> {
        // Adjacency: for each node, its outgoing (link, neighbor) pairs.
        let mut adj: Vec<Vec<(DirLinkId, NodeId)>> = vec![Vec::new(); num_nodes];
        for &(id, from, to) in links {
            adj[from.index()].push((id, to));
        }
        let mut next = vec![vec![None; num_nodes]; num_nodes];
        // BFS outward from each source; first-found path is shortest (hops).
        for src in 0..num_nodes {
            let mut visited = vec![false; num_nodes];
            visited[src] = true;
            let mut q = VecDeque::new();
            // Seed with each first hop so we can record the originating link.
            for &(l, nb) in &adj[src] {
                if !visited[nb.index()] {
                    visited[nb.index()] = true;
                    next[src][nb.index()] = Some(l);
                    q.push_back(nb);
                }
            }
            while let Some(n) = q.pop_front() {
                let via = next[src][n.index()];
                for &(_, nb) in &adj[n.index()] {
                    if !visited[nb.index()] {
                        visited[nb.index()] = true;
                        next[src][nb.index()] = via;
                        q.push_back(nb);
                    }
                }
            }
        }
        next
    }

    /// Chain 0 - 1 - 2 with duplex links (ids: 0:0->1, 1:1->0, 2:1->2, 3:2->1).
    fn chain() -> Routing {
        let links = vec![
            (DirLinkId(0), NodeId(0), NodeId(1)),
            (DirLinkId(1), NodeId(1), NodeId(0)),
            (DirLinkId(2), NodeId(1), NodeId(2)),
            (DirLinkId(3), NodeId(2), NodeId(1)),
        ];
        Routing::build(3, &links)
    }

    #[test]
    fn next_hops_on_chain() {
        let r = chain();
        assert_eq!(r.next_hop(NodeId(0), NodeId(1)), Some(DirLinkId(0)));
        assert_eq!(r.next_hop(NodeId(0), NodeId(2)), Some(DirLinkId(0)));
        assert_eq!(r.next_hop(NodeId(1), NodeId(2)), Some(DirLinkId(2)));
        assert_eq!(r.next_hop(NodeId(2), NodeId(0)), Some(DirLinkId(3)));
        assert_eq!(r.next_hop(NodeId(1), NodeId(1)), None);
    }

    #[test]
    fn path_walks_the_chain() {
        let r = chain();
        let to = |l: DirLinkId| match l.0 {
            0 => NodeId(1),
            1 => NodeId(0),
            2 => NodeId(2),
            3 => NodeId(1),
            _ => unreachable!(),
        };
        assert_eq!(r.path(NodeId(0), NodeId(2), to), vec![DirLinkId(0), DirLinkId(2)]);
        assert_eq!(r.path(NodeId(2), NodeId(2), to), Vec::<DirLinkId>::new());
    }

    #[test]
    fn star_topology_routes_through_hub() {
        // Hub 0 with leaves 1, 2, 3.
        let mut links = Vec::new();
        let mut id = 0;
        for leaf in 1..4u32 {
            links.push((DirLinkId(id), NodeId(0), NodeId(leaf)));
            id += 1;
            links.push((DirLinkId(id), NodeId(leaf), NodeId(0)));
            id += 1;
        }
        let r = Routing::build(4, &links);
        // leaf 1 -> leaf 2 goes via its uplink to the hub.
        assert_eq!(r.next_hop(NodeId(1), NodeId(2)), Some(DirLinkId(1)));
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), Some(DirLinkId(4)));
    }

    #[test]
    fn unreachable_is_none() {
        // Two disconnected nodes.
        let r = Routing::build(2, &[]);
        // A forest of singletons.
        assert_eq!(r.next_hop(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn forest_routes_within_components_only() {
        // Two separate chains: 0-1 and 2-3.
        let links = vec![
            (DirLinkId(0), NodeId(0), NodeId(1)),
            (DirLinkId(1), NodeId(1), NodeId(0)),
            (DirLinkId(2), NodeId(2), NodeId(3)),
            (DirLinkId(3), NodeId(3), NodeId(2)),
        ];
        let r = Routing::build(4, &links);
        assert_eq!(r.next_hop(NodeId(0), NodeId(1)), Some(DirLinkId(0)));
        assert_eq!(r.next_hop(NodeId(3), NodeId(2)), Some(DirLinkId(3)));
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), None);
        assert_eq!(r.next_hop(NodeId(2), NodeId(1)), None);
    }

    #[test]
    #[should_panic(expected = "netsim routes duplex forests only: link 5 (0 -> 2) closes a cycle")]
    fn cyclic_graph_is_refused() {
        // Triangle 0-1-2-0: the third edge closes a cycle.
        let mut links = Vec::new();
        let mut id = 0;
        for (a, b) in [(0u32, 1u32), (1, 2), (2, 0)] {
            links.push((DirLinkId(id), NodeId(a), NodeId(b)));
            id += 1;
            links.push((DirLinkId(id), NodeId(b), NodeId(a)));
            id += 1;
        }
        Routing::build(3, &links);
    }

    #[test]
    #[should_panic(
        expected = "netsim routes duplex forests only: link 0 (0 -> 1) has no reverse twin"
    )]
    fn unidirectional_link_is_refused() {
        // 0 -> 1 with no reverse: the tree form cannot route asymmetric
        // reachability.
        Routing::build(2, &[(DirLinkId(0), NodeId(0), NodeId(1))]);
    }

    /// The interval form and the dense BFS table agree hop-for-hop on random
    /// trees (unique paths make them necessarily equal; this pins the
    /// interval arithmetic).
    #[test]
    fn tree_and_dense_agree_on_random_trees() {
        use crate::rng::RngStream;
        let mut rng = RngStream::derive(0x7EE5, "node/tree-vs-dense");
        for n in [2usize, 3, 7, 17, 40] {
            let mut links = Vec::new();
            let mut id = 0u32;
            for i in 1..n {
                let p = rng.range_u64(0, i as u64) as u32;
                links.push((DirLinkId(id), NodeId(p), NodeId(i as u32)));
                id += 1;
                links.push((DirLinkId(id), NodeId(i as u32), NodeId(p)));
                id += 1;
            }
            let tree = Routing::build(n, &links);
            let dense = build_dense(n, &links);
            for a in 0..n as u32 {
                for b in 0..n as u32 {
                    assert_eq!(
                        tree.next_hop(NodeId(a), NodeId(b)),
                        dense[a as usize][b as usize],
                        "divergence at {a}->{b} (n={n})"
                    );
                }
            }
        }
    }
}
