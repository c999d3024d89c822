//! Declarative topology descriptions.
//!
//! A [`TopoSpec`] is a plain description of nodes, roles, and links that can
//! be instantiated into a live [`netsim::Simulator`]. Keeping the
//! description separate from the simulator lets generators, tests, and the
//! oracle baseline all reason about the *intended* topology (including true
//! link capacities, which the running TopoSense controller is not allowed to
//! see).

use netsim::sim::{NetworkBuilder, SimConfig, Simulator};
use netsim::{DirLinkId, LinkConfig, NodeId};

/// What an instantiated node will host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeRole {
    /// Pure router, no agents.
    Router,
    /// Hosts the source of `session`.
    Source { session: u32 },
    /// Hosts one receiver of `session`; `set` groups receivers that share a
    /// bandwidth constraint (Topology A has two sets).
    Receiver { session: u32, set: u32 },
    /// Hosts the controller agent.
    Controller,
}

/// One node of the spec.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    pub label: String,
    pub roles: Vec<NodeRole>,
}

/// One duplex link of the spec, between two of its nodes.
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    pub a: NodeId,
    pub b: NodeId,
    pub config: LinkConfig,
}

/// A whole topology with roles.
///
/// Its ids are the simulator's: [`TopoSpec::node`] and [`TopoSpec::link`]
/// return the [`NodeId`] and the duplex [`DirLinkId`] pair that
/// [`TopoSpec::instantiate`] will give the element, because the spec is
/// built in [`NetworkBuilder`]'s own numbering (node *i* is `NodeId(i)`,
/// link *j* is `(DirLinkId(2j), DirLinkId(2j + 1))`). Faults, standby hosts
/// and discovery outages are written in those ids before the world exists.
#[derive(Clone, Debug)]
pub struct TopoSpec {
    pub name: String,
    pub nodes: Vec<NodeSpec>,
    pub links: Vec<LinkSpec>,
}

/// The duplex pair [`NetworkBuilder::add_link`] returns for the spec's
/// `j`-th link.
fn halves(j: usize) -> (DirLinkId, DirLinkId) {
    (DirLinkId(2 * j as u32), DirLinkId(2 * j as u32 + 1))
}

impl TopoSpec {
    pub fn new(name: impl Into<String>) -> Self {
        TopoSpec { name: name.into(), nodes: Vec::new(), links: Vec::new() }
    }

    /// Add a node; returns the id it will have in the simulator.
    pub fn node(&mut self, label: impl Into<String>, roles: Vec<NodeRole>) -> NodeId {
        self.nodes.push(NodeSpec { label: label.into(), roles });
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Add a duplex link between nodes `a` and `b`; returns the directed
    /// halves `(a->b, b->a)` it will have in the simulator.
    pub fn link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> (DirLinkId, DirLinkId) {
        let n = self.nodes.len();
        assert!(a.index() < n && b.index() < n, "link endpoint out of range");
        self.links.push(LinkSpec { a, b, config });
        halves(self.links.len() - 1)
    }

    /// Every node, in the order it was added.
    pub fn all_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32).map(NodeId).collect()
    }

    /// Every link's duplex pair, in the order it was added.
    pub fn all_links(&self) -> Vec<(DirLinkId, DirLinkId)> {
        (0..self.links.len()).map(halves).collect()
    }

    /// Source nodes: `(node, session)`.
    pub fn sources(&self) -> Vec<(NodeId, u32)> {
        self.roles_of(|r| match r {
            NodeRole::Source { session } => Some(session),
            _ => None,
        })
    }

    /// Receiver nodes: `(node, (session, set))`.
    pub fn receivers(&self) -> Vec<(NodeId, (u32, u32))> {
        self.roles_of(|r| match r {
            NodeRole::Receiver { session, set } => Some((session, set)),
            _ => None,
        })
    }

    /// The controller's node (panics if absent or duplicated).
    pub fn controller(&self) -> NodeId {
        let v = self.roles_of(|r| if r == NodeRole::Controller { Some(()) } else { None });
        assert_eq!(v.len(), 1, "expected exactly one controller, found {}", v.len());
        v[0].0
    }

    /// Number of distinct sessions mentioned by sources.
    pub fn session_count(&self) -> usize {
        let mut ids: Vec<u32> = self.sources().into_iter().map(|(_, s)| s).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    fn roles_of<T>(&self, mut f: impl FnMut(NodeRole) -> Option<T>) -> Vec<(NodeId, T)> {
        let mut out = Vec::new();
        for (id, n) in (0..).map(NodeId).zip(&self.nodes) {
            for &r in &n.roles {
                if let Some(t) = f(r) {
                    out.push((id, t));
                }
            }
        }
        out
    }

    /// Instantiate into a simulator whose every node and link carries the
    /// id the spec handed out for it.
    pub fn instantiate(&self, cfg: SimConfig) -> Simulator {
        let mut b = NetworkBuilder::new(cfg);
        for (id, n) in (0..).map(NodeId).zip(&self.nodes) {
            assert_eq!(b.add_node(n.label.clone()), id, "the builder renumbered a node");
        }
        for (j, l) in self.links.iter().enumerate() {
            assert_eq!(b.add_link(l.a, l.b, l.config), halves(j), "the builder renumbered a link");
        }
        b.build()
    }

    /// Replace the queue discipline on every link (ablation knob for
    /// drop-tail vs. layer-priority dropping).
    pub fn with_discipline_everywhere(mut self, d: netsim::QueueDiscipline) -> Self {
        for l in &mut self.links {
            l.config.discipline = d;
        }
        self
    }

    /// The true capacity (bits/s) of the directed link `a -> b`, if such a
    /// link exists. Used by the oracle, never by the controller.
    pub fn capacity_between(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.links
            .iter()
            .find(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
            .map(|l| l.config.bandwidth_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TopoSpec {
        let mut s = TopoSpec::new("tiny");
        let src = s.node("src", vec![NodeRole::Source { session: 0 }, NodeRole::Controller]);
        let mid = s.node("mid", vec![NodeRole::Router]);
        let rcv = s.node("rcv", vec![NodeRole::Receiver { session: 0, set: 0 }]);
        s.link(src, mid, LinkConfig::kbps(1000.0));
        s.link(mid, rcv, LinkConfig::kbps(100.0));
        s
    }

    #[test]
    fn role_queries() {
        let s = tiny();
        assert_eq!(s.sources(), vec![(NodeId(0), 0)]);
        assert_eq!(s.receivers(), vec![(NodeId(2), (0, 0))]);
        assert_eq!(s.controller(), NodeId(0));
        assert_eq!(s.session_count(), 1);
    }

    #[test]
    fn capacity_lookup_is_direction_agnostic() {
        let s = tiny();
        let [src, mid, rcv] = [0, 1, 2].map(NodeId);
        assert_eq!(s.capacity_between(mid, rcv), Some(100_000.0));
        assert_eq!(s.capacity_between(rcv, mid), Some(100_000.0));
        assert_eq!(s.capacity_between(src, rcv), None);
    }

    #[test]
    #[should_panic(expected = "exactly one controller")]
    fn missing_controller_panics() {
        let mut s = TopoSpec::new("none");
        s.node("a", vec![NodeRole::Router]);
        let _ = s.controller();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_link_panics() {
        let mut s = TopoSpec::new("bad");
        let a = s.node("a", vec![]);
        s.link(a, NodeId(5), LinkConfig::kbps(10.0));
    }
}
