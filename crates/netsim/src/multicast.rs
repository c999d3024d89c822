//! IP-multicast-style group membership and distribution-tree maintenance.
//!
//! Each multicast group is rooted at its source node. The distribution tree
//! of a group is the union of the routed paths from the root to every node
//! with at least one subscribed application. Joining grafts the missing
//! links onto the tree after a (small) graft latency; leaving prunes links
//! after the IGMP-style **leave latency** — the delay the paper's §V calls
//! out as a congestion hazard, because a dropped layer keeps flowing (and
//! keeps congesting the bottleneck) until the prune takes effect.
//!
//! Grafts and prunes are *checked against current desire when they fire*:
//! if membership changed again in flight, a stale graft does not activate a
//! link nobody wants, and a stale prune does not cut a link that regained a
//! subscriber.
//!
//! Hot state is structure-of-arrays over dense `u32` ids: per-link bitmaps
//! for active/pending-graft/pending-prune (one bit per directed link, so a
//! 2M-link federation costs 256 KiB per group instead of hash tables of
//! 8-byte entries), a dense refcount vector for desire, and per-node
//! active-out adjacency. Join/leave walk only the member's root path —
//! O(depth) — instead of scanning every link; `join_batch` coalesces a
//! flash crowd into one membership pass plus one deduplicated graft sweep.

use crate::app::AppId;
use crate::link::DirLinkId;
use crate::node::{NodeId, Routing};
use crate::time::SimDuration;

/// Index of a multicast group. Layered sessions use one group per layer.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GroupId(pub u32);

/// Delay from a join until the grafted links carry traffic.
const GRAFT_LATENCY: SimDuration = SimDuration::from_millis(50);

/// Latency parameters for multicast state changes.
#[derive(Clone, Copy, Debug)]
pub struct MulticastConfig {
    /// Delay from the last local leave until pruned links stop carrying
    /// traffic (IGMP group-leave latency).
    pub leave_latency: SimDuration,
}

impl Default for MulticastConfig {
    fn default() -> Self {
        MulticastConfig { leave_latency: SimDuration::from_millis(500) }
    }
}

/// A graft/prune the caller must schedule as a future event.
#[derive(Debug, PartialEq, Eq)]
pub enum TreeOp {
    Graft { group: GroupId, link: DirLinkId, after: SimDuration },
    Prune { group: GroupId, link: DirLinkId, after: SimDuration },
}

struct GroupState {
    root: NodeId,
    /// Subscribed apps per node, indexed densely by node id and kept
    /// **sorted** (node-level membership is the count > 0). Sorted storage
    /// makes the per-arrival delivery path a plain slice borrow — no
    /// per-packet collect-and-sort, and no hashing on the hot path.
    members: Vec<Vec<AppId>>,
    /// One bit per node, set iff `members[node]` is non-empty. The bitmap is
    /// L1-resident even on 100k-node domains, so the per-arrival membership
    /// probe at the (common) non-member router never touches the dense
    /// members table.
    member_bits: Vec<u64>,
    /// Nodes with at least one subscriber, sorted — the tree-maintenance
    /// walks (desired-link recomputation, snapshots) iterate this instead of
    /// scanning every node.
    member_nodes: Vec<NodeId>,
    /// One bit per directed link, set iff the link currently carries the
    /// group.
    active_bits: Vec<u64>,
    /// Refcounted desired-link set, dense by directed-link id: how many
    /// current members' root-paths traverse each link. Maintained
    /// incrementally on join/leave/crash (routing is static, so a member's
    /// path never changes while it is subscribed), which makes the
    /// desire check at graft/prune completion O(1) instead of a re-walk of
    /// every member's path — the walk made large-domain tree setup
    /// O(links × members × depth).
    desired_refs: Vec<u32>,
    /// Outgoing active links per node, indexed densely by node id — the
    /// forwarding fast path reads this on every multicast hop.
    active_out: Vec<Vec<DirLinkId>>,
    /// One bit per node, set iff `active_out[node]` is non-empty; lets the
    /// fan-out probe at leaf routers skip the table load entirely.
    active_out_bits: Vec<u64>,
    /// One bit per directed link: graft in flight.
    graft_bits: Vec<u64>,
    /// One bit per directed link: prune in flight.
    prune_bits: Vec<u64>,
}

#[inline]
fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i >> 6] & (1 << (i & 63)) != 0
}

#[inline]
fn bit_set(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1 << (i & 63);
}

#[inline]
fn bit_clear(bits: &mut [u64], i: usize) {
    bits[i >> 6] &= !(1 << (i & 63));
}

/// Indices of all set bits, ascending.
fn bit_indices(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let b = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some((w << 6) | b)
        })
    })
}

impl GroupState {
    /// Root path of `node`, ascending by link id (the deterministic order
    /// every graft/prune emission uses).
    fn sorted_path(
        &self,
        node: NodeId,
        routing: &Routing,
        link_to: &impl Fn(DirLinkId) -> NodeId,
    ) -> Vec<DirLinkId> {
        if node == self.root {
            return Vec::new();
        }
        let mut path = routing.path(self.root, node, link_to);
        path.sort_unstable();
        path
    }
}

/// All multicast state of the network.
pub struct MulticastState {
    cfg: MulticastConfig,
    groups: Vec<GroupState>,
    num_nodes: usize,
    num_links: usize,
}

impl MulticastState {
    pub fn new(cfg: MulticastConfig, num_nodes: usize, num_links: usize) -> Self {
        MulticastState { cfg, groups: Vec::new(), num_nodes, num_links }
    }

    /// Register a new group rooted at `root`. Layered sources create one
    /// group per layer, all rooted at the source's node.
    pub fn create_group(&mut self, root: NodeId) -> GroupId {
        let id = GroupId(self.groups.len() as u32);
        let words = self.num_nodes.div_ceil(64).max(1);
        let link_words = self.num_links.div_ceil(64).max(1);
        self.groups.push(GroupState {
            root,
            members: vec![Vec::new(); self.num_nodes],
            member_bits: vec![0; words],
            member_nodes: Vec::new(),
            active_bits: vec![0; link_words],
            desired_refs: vec![0; self.num_links],
            active_out: vec![Vec::new(); self.num_nodes],
            active_out_bits: vec![0; words],
            graft_bits: vec![0; link_words],
            prune_bits: vec![0; link_words],
        });
        id
    }

    /// Apps subscribed to `group` at `node`, in ascending id order.
    pub fn subscribers_at(&self, group: GroupId, node: NodeId) -> &[AppId] {
        let g = &self.groups[group.0 as usize];
        if !bit_get(&g.member_bits, node.index()) {
            return &[];
        }
        &g.members[node.index()]
    }

    /// Whether `app` at `node` is subscribed to `group`.
    pub fn is_subscribed(&self, group: GroupId, node: NodeId, app: AppId) -> bool {
        let g = &self.groups[group.0 as usize];
        bit_get(&g.member_bits, node.index()) && g.members[node.index()].binary_search(&app).is_ok()
    }

    /// Active outgoing links for `group` at `node`.
    pub fn active_out(&self, group: GroupId, node: NodeId) -> &[DirLinkId] {
        let g = &self.groups[group.0 as usize];
        if !bit_get(&g.active_out_bits, node.index()) {
            return &[];
        }
        &g.active_out[node.index()]
    }

    /// Whether a directed link currently carries `group`.
    #[cfg(test)]
    fn is_active(&self, group: GroupId, link: DirLinkId) -> bool {
        bit_get(&self.groups[group.0 as usize].active_bits, link.0 as usize)
    }

    /// Record membership for one `(node, app)` pair; returns the sorted root
    /// path, with desire refcounts bumped if the node is newly a member.
    fn join_membership(
        g: &mut GroupState,
        node: NodeId,
        app: AppId,
        routing: &Routing,
        link_to: &impl Fn(DirLinkId) -> NodeId,
    ) -> Vec<DirLinkId> {
        let apps = &mut g.members[node.index()];
        let was_member = !apps.is_empty();
        if !was_member {
            bit_set(&mut g.member_bits, node.index());
            if let Err(pos) = g.member_nodes.binary_search(&node) {
                g.member_nodes.insert(pos, node);
            }
        }
        if let Err(pos) = apps.binary_search(&app) {
            apps.insert(pos, app);
        }
        let path = g.sorted_path(node, routing, link_to);
        if !was_member {
            for &l in &path {
                g.desired_refs[l.0 as usize] += 1;
            }
        }
        path
    }

    /// Emit grafts for every link in `links` (sorted, deduplicated) that is
    /// desired but neither active nor already being grafted. This is where a
    /// retry of a previously failed graft on the member's own path happens.
    fn graft_missing(&mut self, group: GroupId, links: &[DirLinkId], ops: &mut Vec<TreeOp>) {
        let g = &mut self.groups[group.0 as usize];
        for &l in links {
            let i = l.0 as usize;
            if g.desired_refs[i] > 0 && !bit_get(&g.active_bits, i) && !bit_get(&g.graft_bits, i) {
                bit_set(&mut g.graft_bits, i);
                ops.push(TreeOp::Graft { group, link: l, after: GRAFT_LATENCY });
            }
        }
    }

    /// Subscribe `app` at `node` to `group`. Returns the tree operations the
    /// simulator must schedule. Only the member's own root path is examined
    /// — O(depth), not O(links) — so a stale failed graft elsewhere in the
    /// tree is retried by *its* subtree's next join, not by every join.
    pub fn join(
        &mut self,
        group: GroupId,
        node: NodeId,
        app: AppId,
        routing: &Routing,
        link_to: impl Fn(DirLinkId) -> NodeId,
    ) -> Vec<TreeOp> {
        let g = &mut self.groups[group.0 as usize];
        let path = Self::join_membership(g, node, app, routing, &link_to);
        let mut ops = Vec::new();
        self.graft_missing(group, &path, &mut ops);
        ops
    }

    /// Subscribe a whole batch of `(node, app)` pairs at once — the flash
    /// crowd path. Membership and desire refcounts are applied for every
    /// member first, then one deduplicated sweep over the union of touched
    /// paths emits each needed graft exactly once (per-event joins would
    /// re-check shared ancestor links once per member).
    pub fn join_batch(
        &mut self,
        group: GroupId,
        members: &[(NodeId, AppId)],
        routing: &Routing,
        link_to: impl Fn(DirLinkId) -> NodeId,
    ) -> Vec<TreeOp> {
        let g = &mut self.groups[group.0 as usize];
        let mut touched: Vec<DirLinkId> = Vec::new();
        for &(node, app) in members {
            touched.extend(Self::join_membership(g, node, app, routing, &link_to));
        }
        touched.sort_unstable();
        touched.dedup();
        let mut ops = Vec::new();
        self.graft_missing(group, &touched, &mut ops);
        ops
    }

    /// Unsubscribe `app` at `node` from `group`. Examines only the member's
    /// own root path for links whose desire dropped to zero.
    pub fn leave(
        &mut self,
        group: GroupId,
        node: NodeId,
        app: AppId,
        routing: &Routing,
        link_to: impl Fn(DirLinkId) -> NodeId,
    ) -> Vec<TreeOp> {
        let leave_latency = self.cfg.leave_latency;
        let g = &mut self.groups[group.0 as usize];
        let apps = &mut g.members[node.index()];
        let was_member = !apps.is_empty();
        if let Ok(pos) = apps.binary_search(&app) {
            apps.remove(pos);
        }
        let now_empty = was_member && apps.is_empty();
        if now_empty {
            bit_clear(&mut g.member_bits, node.index());
            if let Ok(pos) = g.member_nodes.binary_search(&node) {
                g.member_nodes.remove(pos);
            }
        }
        let path = g.sorted_path(node, routing, &link_to);
        let mut ops = Vec::new();
        for &l in &path {
            let i = l.0 as usize;
            if now_empty {
                let refs = &mut g.desired_refs[i];
                debug_assert!(*refs > 0, "desired refcount underflow on {l:?}");
                *refs -= 1;
            }
            if g.desired_refs[i] == 0 && bit_get(&g.active_bits, i) && !bit_get(&g.prune_bits, i) {
                bit_set(&mut g.prune_bits, i);
                ops.push(TreeOp::Prune { group, link: l, after: leave_latency });
            }
        }
        ops
    }

    /// A graft completed. Activates the link iff it is still desired.
    pub fn graft_done(&mut self, group: GroupId, link: DirLinkId, link_from: NodeId) {
        let g = &mut self.groups[group.0 as usize];
        let i = link.0 as usize;
        bit_clear(&mut g.graft_bits, i);
        if g.desired_refs[i] > 0 && !bit_get(&g.active_bits, i) {
            bit_set(&mut g.active_bits, i);
            g.active_out[link_from.index()].push(link);
            bit_set(&mut g.active_out_bits, link_from.index());
        }
    }

    /// A graft could not take effect (an endpoint was down when it fired).
    /// The pending marker is cleared so a later join can retry the graft.
    pub fn graft_failed(&mut self, group: GroupId, link: DirLinkId) {
        bit_clear(&mut self.groups[group.0 as usize].graft_bits, link.0 as usize);
    }

    /// A router crashed: it loses all multicast forwarding state. Every
    /// group's active links *out of* the node are deactivated (it forwards
    /// nothing any more) and local membership is wiped (its apps are dead).
    /// Links *into* the node stay active — upstream routers have no way to
    /// know and keep forwarding into the blackhole until the protocol
    /// repairs the tree (receivers re-join, which re-grafts).
    pub fn node_crashed(
        &mut self,
        node: NodeId,
        routing: &Routing,
        link_to: impl Fn(DirLinkId) -> NodeId,
    ) {
        for g in &mut self.groups {
            for l in std::mem::take(&mut g.active_out[node.index()]) {
                bit_clear(&mut g.active_bits, l.0 as usize);
            }
            bit_clear(&mut g.active_out_bits, node.index());
            if !g.members[node.index()].is_empty() {
                g.members[node.index()].clear();
                if let Ok(pos) = g.member_nodes.binary_search(&node) {
                    g.member_nodes.remove(pos);
                }
                if node != g.root {
                    for l in routing.path(g.root, node, &link_to) {
                        let refs = &mut g.desired_refs[l.0 as usize];
                        debug_assert!(*refs > 0, "desired refcount underflow on {l:?}");
                        *refs -= 1;
                    }
                }
            }
            bit_clear(&mut g.member_bits, node.index());
        }
    }

    /// A prune completed. Deactivates the link iff it is still undesired.
    pub fn prune_done(&mut self, group: GroupId, link: DirLinkId, link_from: NodeId) {
        let g = &mut self.groups[group.0 as usize];
        let i = link.0 as usize;
        bit_clear(&mut g.prune_bits, i);
        if g.desired_refs[i] == 0 && bit_get(&g.active_bits, i) {
            bit_clear(&mut g.active_bits, i);
            let outs = &mut g.active_out[link_from.index()];
            outs.retain(|&x| x != link);
            if outs.is_empty() {
                bit_clear(&mut g.active_out_bits, link_from.index());
            }
        }
    }

    /// Ground-truth snapshot: for each group, the set of active links and
    /// member nodes. The topology-discovery tool reads this (possibly with
    /// staleness added by the `topology` crate).
    pub fn snapshot(&self) -> Vec<GroupSnapshot> {
        self.groups
            .iter()
            .enumerate()
            .map(|(i, g)| GroupSnapshot {
                group: GroupId(i as u32),
                root: g.root,
                active_links: bit_indices(&g.active_bits).map(|i| DirLinkId(i as u32)).collect(),
                member_nodes: g.member_nodes.clone(),
            })
            .collect()
    }

    /// Cross-check every SoA view against the others — bitmaps vs sorted
    /// vectors vs refcounts. O(members × depth + links/64) per group; meant
    /// for tests and post-run harness assertions, not the hot path. Returns
    /// the first inconsistency found.
    pub fn audit(
        &self,
        routing: &Routing,
        link_to: impl Fn(DirLinkId) -> NodeId,
    ) -> Result<(), String> {
        for (gi, g) in self.groups.iter().enumerate() {
            // Membership: bitmap ⇔ non-empty sorted app vector ⇔ member_nodes.
            let mut expect_nodes = Vec::new();
            for n in 0..self.num_nodes {
                let apps = &g.members[n];
                if !apps.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("group {gi}: members[{n}] not strictly sorted"));
                }
                if bit_get(&g.member_bits, n) == apps.is_empty() {
                    return Err(format!("group {gi}: member bit mismatch at node {n}"));
                }
                if !apps.is_empty() {
                    expect_nodes.push(NodeId(n as u32));
                }
            }
            if g.member_nodes != expect_nodes {
                return Err(format!("group {gi}: member_nodes diverges from members table"));
            }
            // Desire: refcounts must equal a fresh recount of member paths.
            let mut refs = vec![0u32; self.num_links];
            for &n in &g.member_nodes {
                if n != g.root {
                    for l in routing.path(g.root, n, &link_to) {
                        refs[l.0 as usize] += 1;
                    }
                }
            }
            if refs != g.desired_refs {
                return Err(format!("group {gi}: desired_refs diverges from member paths"));
            }
            // Active set: each active_out entry is unique, has its active
            // bit set, and every active bit is owned by exactly one node
            // (counts match ⇒ bijection).
            let mut out_total = 0usize;
            for n in 0..self.num_nodes {
                let outs = &g.active_out[n];
                if bit_get(&g.active_out_bits, n) == outs.is_empty() {
                    return Err(format!("group {gi}: active_out bit mismatch at node {n}"));
                }
                for (i, &l) in outs.iter().enumerate() {
                    if outs[..i].contains(&l) {
                        return Err(format!("group {gi}: duplicate active_out {l:?} at {n}"));
                    }
                    if !bit_get(&g.active_bits, l.0 as usize) {
                        return Err(format!("group {gi}: active_out {l:?} not in active bitmap"));
                    }
                }
                out_total += outs.len();
            }
            if out_total != bit_indices(&g.active_bits).count() {
                return Err(format!("group {gi}: active bitmap count != active_out total"));
            }
            // A link being grafted is by construction not active yet.
            for (w, (&gb, &ab)) in g.graft_bits.iter().zip(&g.active_bits).enumerate() {
                if gb & ab != 0 {
                    return Err(format!("group {gi}: graft pending on active link (word {w})"));
                }
            }
        }
        Ok(())
    }
}

/// Point-in-time view of one group's distribution tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupSnapshot {
    pub group: GroupId,
    pub root: NodeId,
    pub active_links: Vec<DirLinkId>,
    pub member_nodes: Vec<NodeId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Routing;

    // The default `MulticastConfig::graft_latency` had; nothing ever set it.
    const _: () = assert!(GRAFT_LATENCY.0 == SimDuration::from_millis(50).0);

    /// Chain 0 - 1 - 2; link ids: 0:0->1, 1:1->0, 2:1->2, 3:2->1.
    fn setup() -> (MulticastState, Routing, impl Fn(DirLinkId) -> NodeId + Copy) {
        let links = vec![
            (DirLinkId(0), NodeId(0), NodeId(1)),
            (DirLinkId(1), NodeId(1), NodeId(0)),
            (DirLinkId(2), NodeId(1), NodeId(2)),
            (DirLinkId(3), NodeId(2), NodeId(1)),
        ];
        let routing = Routing::build(3, &links);
        let link_to = |l: DirLinkId| match l.0 {
            0 => NodeId(1),
            1 => NodeId(0),
            2 => NodeId(2),
            3 => NodeId(1),
            _ => unreachable!(),
        };
        (MulticastState::new(MulticastConfig::default(), 3, 4), routing, link_to)
    }

    #[test]
    fn join_grafts_path_from_root() {
        let (mut m, r, to) = setup();
        let g = m.create_group(NodeId(0));
        let ops = m.join(g, NodeId(2), AppId(5), &r, to);
        // Path 0->2 is links 0 and 2.
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|op| matches!(op, TreeOp::Graft { .. })));
        // Not active until grafts complete.
        assert!(!m.is_active(g, DirLinkId(0)));
        m.graft_done(g, DirLinkId(0), NodeId(0));
        m.graft_done(g, DirLinkId(2), NodeId(1));
        assert!(m.is_active(g, DirLinkId(0)));
        assert!(m.is_active(g, DirLinkId(2)));
        assert_eq!(m.active_out(g, NodeId(0)), &[DirLinkId(0)]);
        assert_eq!(m.active_out(g, NodeId(1)), &[DirLinkId(2)]);
        m.audit(&r, to).unwrap();
    }

    #[test]
    fn leave_prunes_unneeded_links_only() {
        let (mut m, r, to) = setup();
        let g = m.create_group(NodeId(0));
        // Members at both node 1 and node 2.
        for op in m.join(g, NodeId(1), AppId(1), &r, to) {
            if let TreeOp::Graft { link, .. } = op {
                m.graft_done(g, link, NodeId(0));
            }
        }
        for op in m.join(g, NodeId(2), AppId(2), &r, to) {
            if let TreeOp::Graft { link, .. } = op {
                m.graft_done(g, link, NodeId(1));
            }
        }
        // Node 2 leaves: only link 1->2 should be pruned.
        let ops = m.leave(g, NodeId(2), AppId(2), &r, to);
        assert_eq!(ops.len(), 1);
        match &ops[0] {
            TreeOp::Prune { link, .. } => assert_eq!(*link, DirLinkId(2)),
            other => panic!("expected prune, got {other:?}"),
        }
        m.prune_done(g, DirLinkId(2), NodeId(1));
        assert!(!m.is_active(g, DirLinkId(2)));
        assert!(m.is_active(g, DirLinkId(0)));
        m.audit(&r, to).unwrap();
    }

    #[test]
    fn rejoin_during_prune_keeps_link() {
        let (mut m, r, to) = setup();
        let g = m.create_group(NodeId(0));
        for op in m.join(g, NodeId(2), AppId(2), &r, to) {
            if let TreeOp::Graft { link, .. } = op {
                let from = if link == DirLinkId(0) { NodeId(0) } else { NodeId(1) };
                m.graft_done(g, link, from);
            }
        }
        let ops = m.leave(g, NodeId(2), AppId(2), &r, to);
        assert_eq!(ops.len(), 2); // both links pruned
                                  // Rejoin before prune fires.
        let grafts = m.join(g, NodeId(2), AppId(2), &r, to);
        // Links are still active, so no new grafts needed.
        assert!(grafts.is_empty());
        // The stale prunes fire and must be ignored.
        m.prune_done(g, DirLinkId(0), NodeId(0));
        m.prune_done(g, DirLinkId(2), NodeId(1));
        assert!(m.is_active(g, DirLinkId(0)));
        assert!(m.is_active(g, DirLinkId(2)));
        m.audit(&r, to).unwrap();
    }

    #[test]
    fn leave_during_graft_suppresses_activation() {
        let (mut m, r, to) = setup();
        let g = m.create_group(NodeId(0));
        let _ = m.join(g, NodeId(2), AppId(2), &r, to);
        let _ = m.leave(g, NodeId(2), AppId(2), &r, to);
        // Graft fires after the member already left: must not activate.
        m.graft_done(g, DirLinkId(0), NodeId(0));
        m.graft_done(g, DirLinkId(2), NodeId(1));
        assert!(!m.is_active(g, DirLinkId(0)));
        assert!(!m.is_active(g, DirLinkId(2)));
        m.audit(&r, to).unwrap();
    }

    #[test]
    fn two_apps_same_node_count_as_one_membership() {
        let (mut m, r, to) = setup();
        let g = m.create_group(NodeId(0));
        let ops1 = m.join(g, NodeId(2), AppId(1), &r, to);
        assert_eq!(ops1.len(), 2);
        for op in ops1 {
            if let TreeOp::Graft { link, .. } = op {
                let from = if link == DirLinkId(0) { NodeId(0) } else { NodeId(1) };
                m.graft_done(g, link, from);
            }
        }
        // Second app at the same node: no new grafts.
        assert!(m.join(g, NodeId(2), AppId(2), &r, to).is_empty());
        // First app leaves: node still a member, nothing pruned.
        assert!(m.leave(g, NodeId(2), AppId(1), &r, to).is_empty());
        // Last app leaves: prunes scheduled.
        assert_eq!(m.leave(g, NodeId(2), AppId(2), &r, to).len(), 2);
        m.audit(&r, to).unwrap();
    }

    #[test]
    fn member_at_root_needs_no_links() {
        let (mut m, r, to) = setup();
        let g = m.create_group(NodeId(0));
        assert!(m.join(g, NodeId(0), AppId(9), &r, to).is_empty());
        assert!(m.is_subscribed(g, NodeId(0), AppId(9)));
        assert_eq!(m.subscribers_at(g, NodeId(0)), &[AppId(9)]);
        m.audit(&r, to).unwrap();
    }

    #[test]
    fn node_crash_deactivates_outgoing_links_and_membership() {
        let (mut m, r, to) = setup();
        let g = m.create_group(NodeId(0));
        for op in m.join(g, NodeId(2), AppId(2), &r, to) {
            if let TreeOp::Graft { link, .. } = op {
                let from = if link == DirLinkId(0) { NodeId(0) } else { NodeId(1) };
                m.graft_done(g, link, from);
            }
        }
        // Node 1 (mid-router) crashes: its out-link 1->2 deactivates, but
        // the upstream 0->1 link keeps blindly carrying the group.
        m.node_crashed(NodeId(1), &r, to);
        assert!(m.is_active(g, DirLinkId(0)));
        assert!(!m.is_active(g, DirLinkId(2)));
        assert!(m.active_out(g, NodeId(1)).is_empty());
        m.audit(&r, to).unwrap();
        // The downstream member survives in the member list (its node did
        // not crash) so a re-join can re-graft the lost link.
        let ops = m.join(g, NodeId(2), AppId(2), &r, to);
        assert_eq!(ops.len(), 1);
        match &ops[0] {
            TreeOp::Graft { link, .. } => assert_eq!(*link, DirLinkId(2)),
            other => panic!("expected graft, got {other:?}"),
        }
    }

    #[test]
    fn failed_graft_can_be_retried() {
        let (mut m, r, to) = setup();
        let g = m.create_group(NodeId(0));
        let ops = m.join(g, NodeId(2), AppId(2), &r, to);
        assert_eq!(ops.len(), 2);
        // Both grafts fail (say, the mid-router was down when they fired).
        m.graft_failed(g, DirLinkId(0));
        m.graft_failed(g, DirLinkId(2));
        assert!(!m.is_active(g, DirLinkId(0)));
        // A later join retries both grafts.
        let retry = m.join(g, NodeId(2), AppId(2), &r, to);
        assert_eq!(retry.len(), 2);
        m.audit(&r, to).unwrap();
    }

    #[test]
    fn snapshot_reports_sorted_state() {
        let (mut m, r, to) = setup();
        let g = m.create_group(NodeId(0));
        for op in m.join(g, NodeId(2), AppId(2), &r, to) {
            if let TreeOp::Graft { link, .. } = op {
                let from = if link == DirLinkId(0) { NodeId(0) } else { NodeId(1) };
                m.graft_done(g, link, from);
            }
        }
        let snap = m.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].root, NodeId(0));
        assert_eq!(snap[0].active_links, vec![DirLinkId(0), DirLinkId(2)]);
        assert_eq!(snap[0].member_nodes, vec![NodeId(2)]);
    }

    #[test]
    fn join_batch_matches_sequential_joins() {
        let links = vec![
            (DirLinkId(0), NodeId(0), NodeId(1)),
            (DirLinkId(1), NodeId(1), NodeId(0)),
            (DirLinkId(2), NodeId(1), NodeId(2)),
            (DirLinkId(3), NodeId(2), NodeId(1)),
            (DirLinkId(4), NodeId(1), NodeId(3)),
            (DirLinkId(5), NodeId(3), NodeId(1)),
        ];
        let routing = Routing::build(4, &links);
        let to = |l: DirLinkId| match l.0 {
            0 => NodeId(1),
            1 => NodeId(0),
            2 => NodeId(2),
            3 => NodeId(1),
            4 => NodeId(3),
            5 => NodeId(1),
            _ => unreachable!(),
        };
        let crowd = [(NodeId(2), AppId(1)), (NodeId(3), AppId(2)), (NodeId(1), AppId(3))];

        let mut seq = MulticastState::new(MulticastConfig::default(), 4, 6);
        let gs = seq.create_group(NodeId(0));
        let mut seq_links: Vec<DirLinkId> = Vec::new();
        for &(n, a) in &crowd {
            for op in seq.join(gs, n, a, &routing, to) {
                if let TreeOp::Graft { link, .. } = op {
                    seq_links.push(link);
                }
            }
        }
        seq_links.sort_unstable();

        let mut bat = MulticastState::new(MulticastConfig::default(), 4, 6);
        let gb = bat.create_group(NodeId(0));
        let mut bat_links: Vec<DirLinkId> = bat
            .join_batch(gb, &crowd, &routing, to)
            .iter()
            .map(|op| match op {
                TreeOp::Graft { link, .. } => *link,
                other => panic!("expected graft, got {other:?}"),
            })
            .collect();
        bat_links.sort_unstable();

        // Same graft set, each shared ancestor link exactly once.
        assert_eq!(seq_links, bat_links);
        assert_eq!(bat_links, vec![DirLinkId(0), DirLinkId(2), DirLinkId(4)]);
        bat.audit(&routing, to).unwrap();
        // And identical desire/membership state afterwards.
        assert_eq!(seq.snapshot(), bat.snapshot());
    }
}
