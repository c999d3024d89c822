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
                    self.domain_ingress(&links, &active_links, &member_nodes).unwrap_or(g.root)
                };
                netsim::GroupSnapshot { group: g.group, root, active_links, member_nodes }
            })
            .collect();
        TopologyView { time: self.time, links, groups }
    }

    /// The forest root (a node with no retained in-link) whose subtree
    /// contains a member, among the retained active links.
    fn domain_ingress(
        &self,
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
        // BFS each candidate's component; pick the one that reaches a member.
        for &cand in &candidates {
            let mut seen = std::collections::HashSet::from([cand]);
            let mut queue = std::collections::VecDeque::from([cand]);
            while let Some(n) = queue.pop_front() {
                if members.contains(&n) {
                    return Some(cand);
                }
                for l in active.iter().filter_map(view_of) {
                    if l.from == n && seen.insert(l.to) {
                        queue.push_back(l.to);
                    }
                }
            }
        }
        // No active links inside the domain yet: a lone member is its own
        // ingress.
        members.first().copied()
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
                    v.domain_ingress(&v.links, &g.active_links, &g.member_nodes)
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
