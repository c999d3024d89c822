//! The topology-discovery tool.
//!
//! The paper deliberately abstracts the discovery mechanism (mtrace, SNMP,
//! MHealth, mrtree, …): *"Our algorithm concerns itself only with the
//! information and not how it was acquired."* What it does model is the
//! information being **old**: Fig. 10 studies staleness from 2 s to 18 s.
//!
//! [`DiscoveryTool`] therefore archives ground-truth snapshots of the
//! simulator's multicast state as they are captured and answers queries with
//! the newest snapshot at least `staleness` old — a delayed oracle, which is
//! exactly the paper's model of an imperfect tool.

use netsim::sim::Network;
use netsim::{DirLinkId, GroupId, GroupSnapshot, NodeId, SimDuration, SimTime};
use std::collections::VecDeque;

/// A directed link as seen by the discovery tool (no capacity: the paper
/// assumes link capacities are *not* available and must be estimated).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkView {
    pub id: DirLinkId,
    pub from: NodeId,
    pub to: NodeId,
}

/// One snapshot of the domain: physical links plus every group's
/// distribution tree and membership.
#[derive(Clone, Debug)]
pub struct TopologyView {
    /// When the snapshot was taken.
    pub time: SimTime,
    /// All directed links in the domain.
    pub links: Vec<LinkView>,
    /// Per-group distribution state.
    pub groups: Vec<GroupSnapshot>,
}

impl TopologyView {
    /// Capture the ground truth right now.
    ///
    /// A partially-failed network yields a view with the failed pieces
    /// missing rather than a panic: down links, links touching a crashed
    /// node, and crashed members simply do not appear — exactly what a real
    /// discovery tool would (fail to) see. On a fault-free network every
    /// filter keeps everything, so the capture is identical to the naive
    /// one.
    pub fn capture(net: &Network, now: SimTime) -> Self {
        let alive = |id: DirLinkId| {
            net.link_is_up(id)
                && net.node_is_up(net.link_tail(id))
                && net.node_is_up(net.link_head(id))
        };
        let links: Vec<LinkView> = (0..net.link_count() as u32)
            .map(DirLinkId)
            .filter(|&id| alive(id))
            .map(|id| LinkView { id, from: net.link_tail(id), to: net.link_head(id) })
            .collect();
        let groups = net
            .multicast_snapshot()
            .into_iter()
            .map(|g| {
                let netsim::GroupSnapshot { group, root, active_links, member_nodes } = g;
                netsim::GroupSnapshot {
                    group,
                    root,
                    active_links: active_links.into_iter().filter(|&l| alive(l)).collect(),
                    member_nodes: member_nodes.into_iter().filter(|&n| net.node_is_up(n)).collect(),
                }
            })
            .collect();
        TopologyView { time: now, links, groups }
    }

    /// The snapshot of one group, if it exists.
    pub fn group(&self, g: GroupId) -> Option<&GroupSnapshot> {
        self.groups.iter().find(|s| s.group == g)
    }

    /// Endpoints of a directed link.
    pub fn link(&self, id: DirLinkId) -> Option<LinkView> {
        find_link(&self.links, id)
    }

    /// Restrict the view to one administrative domain (the paper's Fig. 3:
    /// "multiple controller agents, each concerned with one particular
    /// administrative domain", each unaware of the others).
    ///
    /// Links with an endpoint outside `domain` disappear; each group's
    /// member list is filtered; and the group root is re-based onto the
    /// **domain ingress** — the node inside the domain through which the
    /// session enters (the forest root whose subtree contains the domain's
    /// members). A controller built on a restricted view manages only its
    /// own subtree, exactly as the paper prescribes.
    pub fn restrict(&self, domain: &std::collections::HashSet<NodeId>) -> TopologyView {
        let inside = |l: &LinkView| domain.contains(&l.from) && domain.contains(&l.to);
        let links: Vec<LinkView> = self.links.iter().copied().filter(inside).collect();
        let groups = self
            .groups
            .iter()
            .map(|g| {
                let active_links: Vec<DirLinkId> = g
                    .active_links
                    .iter()
                    .copied()
                    .filter(|&l| self.link(l).is_some_and(|v| inside(&v)))
                    .collect();
                let member_nodes: Vec<NodeId> =
                    g.member_nodes.iter().copied().filter(|n| domain.contains(n)).collect();
                let root = if domain.contains(&g.root) {
                    g.root
                } else {
                    Self::domain_ingress(&links, &active_links, &member_nodes).unwrap_or(g.root)
                };
                netsim::GroupSnapshot { group: g.group, root, active_links, member_nodes }
            })
            .collect();
        TopologyView { time: self.time, links, groups }
    }

    /// The forest root (a node with no retained in-link) whose subtree
    /// contains a member, among the retained active links.
    fn domain_ingress(
        domain_links: &[LinkView],
        active: &[DirLinkId],
        members: &[NodeId],
    ) -> Option<NodeId> {
        let arcs = Arcs::new(domain_links, active);
        let member_set = sorted(members.to_vec());
        let heads = sorted(arcs.0.iter().map(|&(_, to)| to).collect());
        let tails = arcs.0.iter().map(|&(from, _)| from);
        let candidates = sorted(tails.filter(|n| heads.binary_search(n).is_err()).collect());
        // BFS each candidate's component; pick the one that reaches a member.
        // No active links inside the domain yet: a lone member is its own
        // ingress.
        candidates
            .into_iter()
            .find(|&cand| arcs.reach(cand, &member_set))
            .or_else(|| members.first().copied())
    }

    /// Every node mentioned anywhere in the view.
    fn known_nodes(&self) -> std::collections::HashSet<NodeId> {
        let mut nodes: std::collections::HashSet<NodeId> =
            self.links.iter().flat_map(|l| [l.from, l.to]).collect();
        for g in &self.groups {
            nodes.insert(g.root);
            nodes.extend(g.member_nodes.iter().copied());
        }
        nodes
    }

    /// The view with `hidden` nodes — and everything hanging off them —
    /// removed, modelling a discovery pass that could not reach part of the
    /// domain. Implemented as a restriction to the reachable remainder, so
    /// roots inside a hidden subtree are re-based exactly as for domains.
    fn without_nodes(&self, hidden: &[NodeId]) -> TopologyView {
        let mut domain = self.known_nodes();
        for n in hidden {
            domain.remove(n);
        }
        let mut v = self.restrict(&domain);
        // Hiding an interior node can disconnect a root from the surviving
        // members even though the root itself is still visible; re-base such
        // groups onto the ingress of the member-bearing remainder, as
        // `restrict` does for roots outside the domain.
        let rebased: Vec<Option<NodeId>> = v
            .groups
            .iter()
            .map(|g| {
                if g.member_nodes.is_empty()
                    || Self::root_reaches_member(&v.links, &g.active_links, g.root, &g.member_nodes)
                {
                    None
                } else {
                    Self::domain_ingress(&v.links, &g.active_links, &g.member_nodes)
                }
            })
            .collect();
        for (g, r) in v.groups.iter_mut().zip(rebased) {
            if let Some(r) = r {
                g.root = r;
            }
        }
        v
    }

    /// Whether `root` reaches any of `members` along `active` links.
    fn root_reaches_member(
        links: &[LinkView],
        active: &[DirLinkId],
        root: NodeId,
        members: &[NodeId],
    ) -> bool {
        Arcs::new(links, active).reach(root, &sorted(members.to_vec()))
    }
}

/// One group's active links as `(from, to)` arcs sorted by tail, so a
/// node's out-arcs are one binary search away: built once per query,
/// every BFS step then costs O(log arcs) instead of a scan of them all.
struct Arcs(Vec<(NodeId, NodeId)>);

impl Arcs {
    fn new(links: &[LinkView], active: &[DirLinkId]) -> Self {
        let arcs = active.iter().filter_map(|&id| find_link(links, id)).map(|l| (l.from, l.to));
        Arcs(sorted(arcs.collect()))
    }

    /// The heads of `n`'s out-arcs.
    fn out_of(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let first = self.0.partition_point(|&(from, _)| from < n);
        self.0[first..].iter().take_while(move |&&(from, _)| from == n).map(|&(_, to)| to)
    }

    /// Whether a BFS from `start` along the arcs meets a node of the
    /// sorted `members`.
    fn reach(&self, start: NodeId, members: &[NodeId]) -> bool {
        let mut seen = std::collections::HashSet::from([start]);
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(n) = queue.pop_front() {
            if members.binary_search(&n).is_ok() {
                return true;
            }
            for to in self.out_of(n) {
                if seen.insert(to) {
                    queue.push_back(to);
                }
            }
        }
        false
    }
}

/// `v` sorted and without duplicates.
fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v.dedup();
    v
}

/// The entry of `links` with id `id`. [`TopologyView::capture`],
/// [`TopologyView::restrict`] and [`TopologyView::without_nodes`] all emit
/// `links` in id order — a fault-free capture lists every id, so the entry
/// sits at its own index; otherwise a binary search answers. Hand-built
/// views need not be sorted, so a miss falls back to a scan.
fn find_link(links: &[LinkView], id: DirLinkId) -> Option<LinkView> {
    if let Some(l) = links.get(id.0 as usize).filter(|l| l.id == id) {
        return Some(*l);
    }
    match links.binary_search_by_key(&id, |l| l.id) {
        Ok(i) => Some(links[i]),
        Err(_) => links.iter().copied().find(|l| l.id == id),
    }
}

/// Why a discovery query produced no (full) answer.
#[derive(Clone, Debug)]
pub enum SnapshotError {
    /// The tool is down: no information at all this interval.
    Unavailable,
    /// The tool reached only part of the domain; the carried view omits the
    /// unreachable subtree.
    Partial(TopologyView),
}

/// One scheduled failure window of the discovery tool.
#[derive(Clone, Debug)]
enum Outage {
    /// Queries in `[from, until)` fail outright.
    Total { from: SimTime, until: SimTime },
    /// Queries in `[from, until)` see a view missing `hidden` subtrees.
    Partial { from: SimTime, until: SimTime, hidden: Vec<NodeId> },
}

/// Archives snapshots and serves them with a staleness delay.
pub struct DiscoveryTool {
    staleness: SimDuration,
    history: VecDeque<TopologyView>,
    outages: Vec<Outage>,
}

impl DiscoveryTool {
    /// `staleness` is the minimum age of any served snapshot; zero gives an
    /// instantaneous oracle (the paper's baseline premise, which it calls
    /// "clearly unrealistic").
    pub fn new(staleness: SimDuration) -> Self {
        DiscoveryTool { staleness, history: VecDeque::new(), outages: Vec::new() }
    }

    /// Schedule a total outage: queries in `[from, until)` return
    /// [`SnapshotError::Unavailable`].
    pub fn add_outage(&mut self, from: SimTime, until: SimTime) {
        assert!(until > from, "outage must end after it starts");
        self.outages.push(Outage::Total { from, until });
    }

    /// Schedule a partial outage: queries in `[from, until)` return a view
    /// with the `hidden` subtrees missing.
    pub fn add_partial_outage(&mut self, from: SimTime, until: SimTime, hidden: Vec<NodeId>) {
        assert!(until > from, "outage must end after it starts");
        self.outages.push(Outage::Partial { from, until, hidden });
    }

    /// The configured staleness.
    pub fn staleness(&self) -> SimDuration {
        self.staleness
    }

    /// Record a snapshot (call this periodically, e.g. once per controller
    /// interval).
    ///
    /// The archive keeps exactly what staleness can still serve. Queries
    /// move forward in time and come no earlier than the newest snapshot, so
    /// every query's cutoff is at or after `newest.time - staleness`, and
    /// the newest snapshot at or before that horizon is the oldest one a
    /// query can ever pick again: everything before it is dropped. At zero
    /// staleness that leaves the newest snapshot alone.
    pub fn record(&mut self, view: TopologyView) {
        debug_assert!(
            self.history.back().is_none_or(|v| v.time <= view.time),
            "snapshots must be recorded in time order"
        );
        let horizon = view.time.saturating_sub(self.staleness);
        self.history.push_back(view);
        while self.history.get(1).is_some_and(|v| v.time <= horizon) {
            self.history.pop_front();
        }
    }

    /// The newest snapshot taken at or before `now - staleness`.
    ///
    /// Returns `None` when the tool has not been running long enough —
    /// early in a session even a perfect tool has produced nothing yet.
    fn query(&self, now: SimTime) -> Option<&TopologyView> {
        let cutoff = now.saturating_sub(self.staleness);
        self.history.iter().rev().find(|v| v.time <= cutoff)
    }

    /// The newest snapshot taken at or before `now - staleness`, honouring
    /// the scheduled failure windows.
    ///
    /// `Ok(None)` still means a cold start (nothing captured yet);
    /// `Err(Unavailable)` means the tool itself is down right now; and
    /// `Err(Partial(view))` carries what the degraded tool could still see.
    /// With no outages scheduled this is exactly `Ok(self.query(now))`.
    pub fn query_checked(&self, now: SimTime) -> Result<Option<&TopologyView>, SnapshotError> {
        for o in &self.outages {
            match o {
                Outage::Total { from, until } if now >= *from && now < *until => {
                    return Err(SnapshotError::Unavailable);
                }
                Outage::Partial { from, until, hidden } if now >= *from && now < *until => {
                    return match self.query(now) {
                        Some(v) => Err(SnapshotError::Partial(v.without_nodes(hidden))),
                        None => Ok(None),
                    };
                }
                _ => {}
            }
        }
        Ok(self.query(now))
    }

    /// Number of archived snapshots.
    #[cfg(test)]
    fn history_len(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_at(secs: u64) -> TopologyView {
        TopologyView { time: SimTime::from_secs(secs), links: Vec::new(), groups: Vec::new() }
    }

    #[test]
    fn zero_staleness_serves_newest() {
        let mut d = DiscoveryTool::new(SimDuration::ZERO);
        d.record(view_at(1));
        d.record(view_at(2));
        d.record(view_at(3));
        let v = d.query(SimTime::from_secs(3)).unwrap();
        assert_eq!(v.time, SimTime::from_secs(3));
    }

    #[test]
    fn staleness_delays_the_view() {
        let mut d = DiscoveryTool::new(SimDuration::from_secs(4));
        for s in [0u64, 2, 4, 6, 8, 10] {
            d.record(view_at(s));
        }
        // At t=10, only snapshots taken at or before t=6 may be served.
        let v = d.query(SimTime::from_secs(10)).unwrap();
        assert_eq!(v.time, SimTime::from_secs(6));
    }

    #[test]
    fn too_early_returns_none() {
        let mut d = DiscoveryTool::new(SimDuration::from_secs(10));
        d.record(view_at(2));
        assert!(d.query(SimTime::from_secs(5)).is_none());
        // Eventually the old snapshot becomes servable.
        assert!(d.query(SimTime::from_secs(12)).is_some());
    }

    #[test]
    fn history_is_bounded() {
        let mut d = DiscoveryTool::new(SimDuration::ZERO);
        for s in 0..200 {
            d.record(view_at(s));
        }
        // Zero staleness can only ever serve the newest snapshot.
        assert_eq!(d.history_len(), 1);
        assert_eq!(d.query(SimTime::from_secs(500)).unwrap().time, SimTime::from_secs(199));
    }

    /// A staleness longer than any fixed archive depth is still served: at
    /// 130 s and a snapshot every 2 s, the query at t = 300 s needs the
    /// 170 s snapshot, 65 snapshots back.
    #[test]
    fn long_staleness_is_served() {
        let mut d = DiscoveryTool::new(SimDuration::from_secs(130));
        for s in (0..=300).step_by(2) {
            d.record(view_at(s));
        }
        let v = d.query_checked(SimTime::from_secs(300)).unwrap().unwrap();
        assert_eq!(v.time, SimTime::from_secs(170));
        // Nothing older than the servable snapshot is kept.
        assert_eq!(d.history_len(), 66);
    }

    #[test]
    fn empty_tool_returns_none() {
        let d = DiscoveryTool::new(SimDuration::ZERO);
        assert!(d.query(SimTime::from_secs(100)).is_none());
    }

    /// Chain 0 -> 1 -> 2 -> 3 with members at 2 and 3; domain = {2, 3}.
    fn spanning_view() -> TopologyView {
        let n = |i: u32| NodeId(i);
        let l = |i: u32| DirLinkId(i);
        TopologyView {
            time: SimTime::ZERO,
            links: vec![
                LinkView { id: l(0), from: n(0), to: n(1) },
                LinkView { id: l(1), from: n(1), to: n(2) },
                LinkView { id: l(2), from: n(2), to: n(3) },
            ],
            groups: vec![netsim::GroupSnapshot {
                group: GroupId(0),
                root: n(0),
                active_links: vec![l(0), l(1), l(2)],
                member_nodes: vec![n(2), n(3)],
            }],
        }
    }

    #[test]
    fn restrict_rebases_the_root_on_the_domain_ingress() {
        let view = spanning_view();
        let domain = std::collections::HashSet::from([NodeId(2), NodeId(3)]);
        let r = view.restrict(&domain);
        // Only the 2 -> 3 link survives.
        assert_eq!(r.links.len(), 1);
        assert_eq!(r.links[0].id, DirLinkId(2));
        let g = &r.groups[0];
        assert_eq!(g.active_links, vec![DirLinkId(2)]);
        assert_eq!(g.member_nodes, vec![NodeId(2), NodeId(3)]);
        // The ingress (node 2) becomes the domain-local root.
        assert_eq!(g.root, NodeId(2));
    }

    #[test]
    fn restrict_keeps_the_root_when_it_is_inside() {
        let view = spanning_view();
        let domain = std::collections::HashSet::from([NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let r = view.restrict(&domain);
        assert_eq!(r.groups[0].root, NodeId(0));
        assert_eq!(r.links.len(), 3);
    }

    #[test]
    fn capture_reflects_link_and_node_faults() {
        use netsim::{App, Ctx, FaultKind, FaultPlan, LinkConfig, NetworkBuilder, SimConfig};
        struct Joiner {
            group: GroupId,
        }
        impl App for Joiner {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.join(self.group);
            }
        }
        let mut b = NetworkBuilder::new(SimConfig::default());
        let s = b.add_node("src");
        let m = b.add_node("mid");
        let r = b.add_node("rcv");
        let (sm, _) = b.add_link(s, m, LinkConfig::kbps(100.0));
        b.add_link(m, r, LinkConfig::kbps(100.0));
        let mut sim = b.build();
        let g = sim.create_group(s);
        sim.add_app(r, Box::new(Joiner { group: g }));
        sim.run_until(SimTime::from_secs(1));
        let clean = TopologyView::capture(sim.network(), sim.now());
        assert_eq!(clean.links.len(), 4);
        assert_eq!(clean.group(g).unwrap().member_nodes, vec![r]);
        assert_eq!(clean.group(g).unwrap().active_links.len(), 2);

        // Take the src->mid half down: it vanishes from the capture, and so
        // does its entry in the active tree.
        sim.install_faults(&FaultPlan::new().at(SimTime::from_secs(2), FaultKind::LinkDown(sm)));
        sim.run_until(SimTime::from_secs(3));
        let faulted = TopologyView::capture(sim.network(), sim.now());
        assert_eq!(faulted.links.len(), 3);
        assert!(faulted.link(sm).is_none());
        assert_eq!(faulted.group(g).unwrap().active_links.len(), 1);

        // Crash the receiver's node: its links and membership vanish too.
        sim.install_faults(&FaultPlan::new().at(SimTime::from_secs(4), FaultKind::NodeCrash(r)));
        sim.run_until(SimTime::from_secs(5));
        let crashed = TopologyView::capture(sim.network(), sim.now());
        assert_eq!(crashed.links.len(), 1);
        assert!(crashed.group(g).unwrap().member_nodes.is_empty());
    }

    /// `link` resolves exactly the retained ids, whatever produced the view.
    #[test]
    fn link_lookup_resolves_retained_ids_and_only_those() {
        use netsim::{FaultKind, FaultPlan, LinkConfig, NetworkBuilder, SimConfig};
        let assert_resolves = |v: &TopologyView, all_ids: u32| {
            for id in (0..all_ids).map(DirLinkId) {
                let want = v.links.iter().copied().find(|l| l.id == id);
                assert_eq!(v.link(id), want, "link {id:?}");
            }
        };

        // Restriction: only 2 -> 3 survives.
        let domain = std::collections::HashSet::from([NodeId(2), NodeId(3)]);
        let restricted = spanning_view().restrict(&domain);
        assert_resolves(&restricted, 3);
        assert_eq!(restricted.link(DirLinkId(0)), None);
        let kept = restricted.link(DirLinkId(2)).unwrap();
        assert_eq!((kept.from, kept.to), (NodeId(2), NodeId(3)));

        // Link fault: the downed half vanishes, the rest still resolve.
        let mut b = NetworkBuilder::new(SimConfig::default());
        let nodes: Vec<NodeId> = (0..4).map(|i| b.add_node(format!("n{i}"))).collect();
        let mut down = DirLinkId(0);
        for w in nodes.windows(2) {
            down = b.add_link(w[0], w[1], LinkConfig::kbps(100.0)).0;
        }
        let mut sim = b.build();
        sim.install_faults(&FaultPlan::new().at(SimTime::from_secs(1), FaultKind::LinkDown(down)));
        sim.run_until(SimTime::from_secs(2));
        let faulted = TopologyView::capture(sim.network(), sim.now());
        assert_eq!(faulted.links.len(), 5);
        assert_resolves(&faulted, 6);
        assert_eq!(faulted.link(down), None);

        // A hand-built view need not list its links in id order.
        let mut unsorted = spanning_view();
        unsorted.links.reverse();
        assert_resolves(&unsorted, 4);
        let l0 = unsorted.link(DirLinkId(0)).unwrap();
        assert_eq!((l0.from, l0.to), (NodeId(0), NodeId(1)));
        assert_eq!(unsorted.link(DirLinkId(3)), None);
    }

    #[test]
    fn without_nodes_drops_the_subtree_and_rebases() {
        let view = spanning_view();
        let partial = view.without_nodes(&[NodeId(1)]);
        // Links touching node 1 vanish; 2 -> 3 survives.
        assert_eq!(partial.links.len(), 1);
        assert_eq!(partial.links[0].id, DirLinkId(2));
        let g = &partial.groups[0];
        assert_eq!(g.member_nodes, vec![NodeId(2), NodeId(3)]);
        // The surviving subtree's ingress becomes the root.
        assert_eq!(g.root, NodeId(2));
    }

    #[test]
    fn query_checked_honours_outage_windows() {
        let mut d = DiscoveryTool::new(SimDuration::ZERO);
        d.record(view_at(1));
        d.add_outage(SimTime::from_secs(5), SimTime::from_secs(8));
        assert!(matches!(d.query_checked(SimTime::from_secs(4)), Ok(Some(_))));
        assert!(matches!(d.query_checked(SimTime::from_secs(5)), Err(SnapshotError::Unavailable)));
        assert!(matches!(d.query_checked(SimTime::from_secs(7)), Err(SnapshotError::Unavailable)));
        assert!(matches!(d.query_checked(SimTime::from_secs(8)), Ok(Some(_))));
    }

    #[test]
    fn query_checked_partial_hides_the_subtree() {
        let mut d = DiscoveryTool::new(SimDuration::ZERO);
        d.record(spanning_view());
        d.add_partial_outage(SimTime::ZERO, SimTime::from_secs(10), vec![NodeId(3)]);
        match d.query_checked(SimTime::from_secs(2)) {
            Err(SnapshotError::Partial(v)) => {
                assert!(v.links.iter().all(|l| l.from != NodeId(3) && l.to != NodeId(3)));
                assert_eq!(v.groups[0].member_nodes, vec![NodeId(2)]);
            }
            other => panic!("expected a partial view, got {other:?}"),
        }
        // A cold start during a partial outage still reads as a cold start.
        let mut cold = DiscoveryTool::new(SimDuration::from_secs(30));
        cold.add_partial_outage(SimTime::ZERO, SimTime::from_secs(10), vec![NodeId(3)]);
        assert!(matches!(cold.query_checked(SimTime::from_secs(2)), Ok(None)));
    }

    /// [`TopologyView::domain_ingress`] before its adjacency was built
    /// once: every dequeued node rescans every active link.
    fn reference_domain_ingress(
        domain_links: &[LinkView],
        active: &[DirLinkId],
        members: &[NodeId],
    ) -> Option<NodeId> {
        let view_of = |id: &DirLinkId| find_link(domain_links, *id);
        let heads: std::collections::HashSet<NodeId> =
            active.iter().filter_map(view_of).map(|l| l.to).collect();
        let mut candidates: Vec<NodeId> = active
            .iter()
            .filter_map(view_of)
            .map(|l| l.from)
            .filter(|n| !heads.contains(n))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        for &cand in &candidates {
            if reference_root_reaches_member(domain_links, active, cand, members) {
                return Some(cand);
            }
        }
        members.first().copied()
    }

    /// [`TopologyView::root_reaches_member`] before its adjacency was
    /// built once.
    fn reference_root_reaches_member(
        links: &[LinkView],
        active: &[DirLinkId],
        root: NodeId,
        members: &[NodeId],
    ) -> bool {
        let view_of = |id: &DirLinkId| find_link(links, *id);
        let mut seen = std::collections::HashSet::from([root]);
        let mut queue = std::collections::VecDeque::from([root]);
        while let Some(n) = queue.pop_front() {
            if members.contains(&n) {
                return true;
            }
            for l in active.iter().filter_map(view_of) {
                if l.from == n && seen.insert(l.to) {
                    queue.push_back(l.to);
                }
            }
        }
        false
    }

    /// A random view over 24 nodes: random directed links (parallel arcs,
    /// cycles and self-contained islands included), three groups with
    /// random roots, active links and members, sometimes unsorted links.
    fn random_view(g: &mut netsim::RngStream) -> TopologyView {
        let node = |g: &mut netsim::RngStream| NodeId(g.range_u64(0, 24) as u32);
        let mut links: Vec<LinkView> = (0..g.range_u64(0, 48) as u32)
            .map(|i| LinkView { id: DirLinkId(i), from: node(g), to: node(g) })
            .collect();
        if g.chance(0.2) {
            links.reverse();
        }
        let groups = (0..3)
            .map(|k| netsim::GroupSnapshot {
                group: GroupId(k),
                root: node(g),
                active_links: links.iter().filter(|_| g.chance(0.6)).map(|l| l.id).collect(),
                member_nodes: (0..g.range_u64(0, 6)).map(|_| node(g)).collect(),
            })
            .collect();
        TopologyView { time: SimTime::ZERO, links, groups }
    }

    #[test]
    fn restricted_views_equal_the_rescanning_reference() {
        netsim::rng::check("discovery/restrict_reference", 500, |g| {
            let view = random_view(g);
            let domain: std::collections::HashSet<NodeId> =
                (0..24).map(NodeId).filter(|_| g.chance(0.7)).collect();
            for grp in &view.groups {
                let (active, members) = (&grp.active_links, &grp.member_nodes);
                assert_eq!(
                    TopologyView::domain_ingress(&view.links, active, members),
                    reference_domain_ingress(&view.links, active, members)
                );
                assert_eq!(
                    TopologyView::root_reaches_member(&view.links, active, grp.root, members),
                    reference_root_reaches_member(&view.links, active, grp.root, members)
                );
            }
            // `restrict` re-bases a root outside the domain on the ingress.
            let r = view.restrict(&domain);
            for (before, after) in view.groups.iter().zip(&r.groups) {
                let want = if domain.contains(&before.root) {
                    before.root
                } else {
                    let (active, members) = (&after.active_links, &after.member_nodes);
                    reference_domain_ingress(&r.links, active, members).unwrap_or(before.root)
                };
                assert_eq!(after.root, want);
            }
            // `without_nodes` also re-bases a root cut off from its members.
            let hidden: Vec<NodeId> = (0..24).map(NodeId).filter(|_| g.chance(0.2)).collect();
            let keep: std::collections::HashSet<NodeId> =
                view.known_nodes().into_iter().filter(|n| !hidden.contains(n)).collect();
            let cut = view.restrict(&keep);
            let w = view.without_nodes(&hidden);
            for (c, after) in cut.groups.iter().zip(&w.groups) {
                let (active, members) = (&c.active_links, &c.member_nodes);
                let want = if members.is_empty()
                    || reference_root_reaches_member(&cut.links, active, c.root, members)
                {
                    c.root
                } else {
                    reference_domain_ingress(&cut.links, active, members).unwrap_or(c.root)
                };
                assert_eq!(after.root, want);
            }
        });
    }

    /// A 10,000-member domain whose ingress sits 5,000 hops above its
    /// first member: the rescanning BFS reads 7.5 × 10⁷ links and checks
    /// 5 × 10⁷ members here (2.6 s in the dev profile on a 2-vCPU box);
    /// arcs built once take about 10 ms.
    #[test]
    fn ten_thousand_member_restrict_is_fast() {
        const CHAIN: u32 = 5_000;
        const MEMBERS: u32 = 10_000;
        // Source 0 outside the domain; chain 1 -> 2 -> … -> CHAIN; every
        // member hangs off the chain's end.
        let mut links: Vec<LinkView> = (0..CHAIN)
            .map(|i| LinkView { id: DirLinkId(i), from: NodeId(i), to: NodeId(i + 1) })
            .collect();
        links.extend((0..MEMBERS).map(|i| LinkView {
            id: DirLinkId(CHAIN + i),
            from: NodeId(CHAIN),
            to: NodeId(CHAIN + 1 + i),
        }));
        let view = TopologyView {
            time: SimTime::ZERO,
            groups: vec![netsim::GroupSnapshot {
                group: GroupId(0),
                root: NodeId(0),
                active_links: links.iter().map(|l| l.id).collect(),
                member_nodes: (CHAIN + 1..=CHAIN + MEMBERS).map(NodeId).collect(),
            }],
            links,
        };
        let domain: std::collections::HashSet<NodeId> = (1..=CHAIN + MEMBERS).map(NodeId).collect();
        let started = std::time::Instant::now();
        let r = view.restrict(&domain);
        let took = started.elapsed();
        assert_eq!(r.groups[0].root, NodeId(1));
        assert_eq!(r.groups[0].member_nodes.len(), MEMBERS as usize);
        assert!(took.as_secs_f64() < 1.0, "restrict took {took:?}");
    }

    #[test]
    fn restrict_with_no_active_links_uses_a_member_as_ingress() {
        let mut view = spanning_view();
        view.groups[0].active_links.clear();
        let domain = std::collections::HashSet::from([NodeId(3)]);
        let r = view.restrict(&domain);
        assert_eq!(r.groups[0].root, NodeId(3));
        assert!(r.links.is_empty());
    }
}
