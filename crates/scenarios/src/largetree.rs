//! World generators for campaigns, probes and the sharded twin.
//!
//! The paper's topologies top out at tens of receivers; the change-driven
//! pipeline (DESIGN.md §11) and the sharded simulator (§17) are aimed at
//! session trees orders of magnitude larger. Everything here grows from one
//! balanced `fanout^depth` tree walk (fanout 10, depth 4 gives an
//! 11,111-node domain): kernel-level session trees with deterministic
//! report churn at a configurable dirty fraction (the `perf` benchmark's
//! pipeline probes, `tests/incremental.rs`), the campaign zoo's flash
//! crowds, diurnal churn and heterogeneous last miles (§13), federated
//! domains behind capacity-oracle borders (§16), and the federated packet
//! world — laid down once, instantiated split into a [`ShardedSim`] or
//! joined into its sequential oracle (§17).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netsim::sim::{NetworkBuilder, SimConfig};
use netsim::trace::Ring;
use netsim::{
    App, AppId, Ctx, DirLinkId, GroupId, GroupSnapshot, LinkConfig, NodeId, Packet, QueueBackend,
    RelayApp, SessionId, ShardedSim, SimDuration, SimTime, Simulator,
};
use topology::discovery::{LinkView, TopologyView};
use topology::SessionTree;
use toposense::algorithm::ReceiverReport;

/// Breadth-first walk of a balanced tree with `fanout^depth` leaves: one
/// `(parent, child, level)` per non-root node. The root is node 0 at level
/// 0 and children are numbered `1..` in visiting order, so the leaves —
/// the `level == depth` nodes — come last.
fn balanced_walk(fanout: usize, depth: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    assert!(fanout >= 1 && depth >= 1);
    let nodes_below_root: usize = (1..=depth as u32).map(|l| fanout.pow(l)).sum();
    let mut level = 1;
    let mut level_end = fanout;
    (1..=nodes_below_root).map(move |child| {
        if child > level_end {
            level += 1;
            level_end += fanout.pow(level as u32);
        }
        ((child - 1) / fanout, child, level)
    })
}

/// Build a balanced session tree with `fanout^depth` leaves.
///
/// Node 0 is the root/source; nodes are numbered breadth-first. Returns the
/// tree plus the list of leaf nodes (the receivers).
pub fn balanced_session_tree(
    session: u32,
    fanout: usize,
    depth: usize,
) -> (SessionTree, Vec<NodeId>) {
    let mut links = Vec::new();
    let mut members = Vec::new();
    for (parent, child, level) in balanced_walk(fanout, depth) {
        links.push(LinkView {
            id: DirLinkId(child as u32 - 1),
            from: NodeId(parent as u32),
            to: NodeId(child as u32),
        });
        if level == depth {
            members.push(NodeId(child as u32));
        }
    }
    let view = TopologyView {
        time: SimTime::ZERO,
        groups: vec![GroupSnapshot {
            group: GroupId(session),
            root: NodeId(0),
            active_links: links.iter().map(|l| l.id).collect(),
            member_nodes: members.clone(),
        }],
        links,
    };
    let tree = SessionTree::build(&view, SessionId(session), &[GroupId(session)])
        .expect("balanced tree is valid");
    (tree, members)
}

/// One report per leaf with a deterministic loss pattern (every
/// `lossy_mod`-th receiver sees 10 % loss; `0` disables loss entirely).
pub fn reports_for_leaves(
    session: u32,
    leaves: &[NodeId],
    level: u8,
    lossy_mod: usize,
) -> Vec<ReceiverReport> {
    leaves
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let lossy = lossy_mod != 0 && i % lossy_mod == 0;
            ReceiverReport {
                receiver: AppId(1000 + i as u32),
                node,
                session: SessionId(session),
                level,
                received: if lossy { 90 } else { 100 },
                lost: if lossy { 10 } else { 0 },
                bytes: 25_000,
            }
        })
        .collect()
}

/// The registry matching [`reports_for_leaves`].
pub fn registry_for_leaves(session: u32, leaves: &[NodeId]) -> Vec<(AppId, NodeId, SessionId)> {
    leaves
        .iter()
        .enumerate()
        .map(|(i, &node)| (AppId(1000 + i as u32), node, SessionId(session)))
        .collect()
}

/// Mutate a `dirty_fraction` of the reports in place, deterministically.
///
/// The touched receivers are stride-spread across the report list and the
/// stride offset rotates with `round`, so successive intervals dirty
/// different (but same-sized) receiver sets — the access pattern an
/// incremental pipeline sees in steady state, not a fixed hot set it could
/// get lucky on. Every touched report genuinely changes (its byte counter
/// toggles), so the diff pass cannot skip it; the perturbation stays in
/// the bytes field so the congestion regime is steady and the measured
/// dirty fraction is exactly the requested one — toggling loss instead
/// would accumulate congested receivers across rounds and swing global
/// supply, turning a nominal 1 % churn into a near-full recompute. Returns
/// how many reports were touched.
pub fn churn_fraction(reports: &mut [ReceiverReport], dirty_fraction: f64, round: u64) -> usize {
    assert!((0.0..=1.0).contains(&dirty_fraction));
    let n = reports.len();
    let k = ((n as f64 * dirty_fraction).round() as usize).min(n);
    if k == 0 {
        return 0;
    }
    let stride = (n / k).max(1);
    let offset = (round as usize) % stride;
    let mut touched = 0usize;
    let mut i = offset;
    while i < n && touched < k {
        let r = &mut reports[i];
        r.bytes = if r.bytes == 25_000 { 24_000 } else { 25_000 };
        i += stride;
        touched += 1;
    }
    touched
}

// ---------------------------------------------------------------------------
// Federated multi-domain worlds (DESIGN.md §16)
// ---------------------------------------------------------------------------

/// Build `k` federated domains, each a balanced `fanout^depth` subtree with
/// its own registry — the multi-domain world the federation campaign and
/// `tests/multidomain.rs` drive (10 domains × fanout 10 × depth 4 is the
/// full-profile 100k-receiver world). Every domain gets its own
/// deterministic pipeline stream derived from `(seed, domain id)`. Returns
/// the domains plus the shared per-domain leaf list (all domains are
/// shape-identical, so one list serves them all).
pub fn federated_domains(
    k: usize,
    fanout: usize,
    depth: usize,
    cfg: toposense::Config,
    seed: u64,
) -> (Vec<toposense::federation::Domain>, Vec<NodeId>) {
    assert!(k >= 1);
    let mut domains = Vec::with_capacity(k);
    let mut shared_leaves = Vec::new();
    for i in 0..k {
        let (tree, leaves) = balanced_session_tree(0, fanout, depth);
        let registry = registry_for_leaves(0, &leaves);
        domains.push(toposense::federation::Domain::new(
            i as u32,
            cfg,
            seed,
            tree,
            traffic::LayerSpec::paper_default(),
            registry,
        ));
        shared_leaves = leaves;
    }
    (domains, shared_leaves)
}

/// The reports a domain's receivers file when the whole domain sits behind
/// one `cap_bps` border link: a receiver subscribed past the fitting level
/// sees loss in proportion to the overshoot, and delivered bytes saturate
/// at the link capacity — the deterministic capacity oracle the federated
/// drives use in place of a packet-level simulation.
pub fn reports_behind_border(
    session: u32,
    leaves: &[NodeId],
    levels: &[u8],
    cap_bps: f64,
    spec: &traffic::LayerSpec,
    window: SimDuration,
) -> Vec<ReceiverReport> {
    assert_eq!(levels.len(), leaves.len());
    assert!(cap_bps > 0.0);
    leaves
        .iter()
        .zip(levels)
        .enumerate()
        .map(|(i, (&node, &level))| {
            let cum = spec.cumulative_rate(level);
            let frac = if cum <= cap_bps { 1.0 } else { cap_bps / cum };
            let received = (100.0 * frac).round() as u64;
            ReceiverReport {
                receiver: AppId(1000 + i as u32),
                node,
                session: SessionId(session),
                level,
                received,
                lost: 100 - received,
                bytes: (cum.min(cap_bps) / 8.0 * window.as_secs_f64()) as u64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Campaign zoo: flash crowds, diurnal churn, heterogeneous last miles
// (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// Deterministic diurnal churn profile: a triangle wave over `period`
/// rounds between `low` (night) and `high` (midday peak), peaking at
/// `period / 2`. A triangle instead of a sinusoid keeps the profile exactly
/// reproducible across platforms (no libm calls) while still sweeping the
/// dirty fraction smoothly through the day.
pub fn diurnal_fraction(round: u64, period: u64, low: f64, high: f64) -> f64 {
    assert!(period >= 2, "a day needs at least two rounds");
    assert!((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high) && low <= high);
    let phase = round % period;
    let half = period as f64 / 2.0;
    // 0 at dawn, 1 at midday, back to 0 at dusk.
    let up = 1.0 - ((phase as f64 - half).abs() / half);
    low + (high - low) * up
}

/// A balanced multicast domain whose *last-mile* links are heterogeneous:
/// the backbone (every tier but the last) is fat, and each leaf's access
/// link cycles through `lastmile_kbps` — the paper's "last mile problem"
/// pushed to its extreme, where every bottleneck sits on a leaf edge and
/// the controller must steer each receiver to its own fitting level.
///
/// Receivers are grouped into sets by their capacity class (index into
/// `lastmile_kbps`), so oracle checks and campaign gates can reason per
/// class. One session, source and controller at the root.
pub fn heterogeneous_lastmile(
    fanout: usize,
    depth: usize,
    lastmile_kbps: &[f64],
) -> topology::spec::TopoSpec {
    use topology::spec::{NodeRole, TopoSpec};
    assert!(fanout >= 1 && depth >= 2, "need at least one backbone tier plus the last mile");
    assert!(!lastmile_kbps.is_empty());
    let latency = netsim::SimDuration(200 * 1_000_000);
    let fat = netsim::LinkConfig::kbps(100_000.0).with_delay(latency);
    let mut s = TopoSpec::new(format!("het-lastmile/{fanout}x{depth}"));
    // Spec node indices are handed out in insertion order, so the root is
    // the walk's node 0 and every `s.node` below returns the walk's `child`.
    s.node("src", vec![NodeRole::Source { session: 0 }, NodeRole::Controller]);
    let mut leaf_idx = 0usize;
    for (parent, child, level) in balanced_walk(fanout, depth) {
        let c = (child - 1) % fanout;
        let (label, roles, cfg) = if level == depth {
            let class = leaf_idx % lastmile_kbps.len();
            leaf_idx += 1;
            (
                format!("rcv{}.{c}", leaf_idx - 1),
                vec![NodeRole::Receiver { session: 0, set: class as u32 }],
                netsim::LinkConfig::kbps(lastmile_kbps[class]).with_delay(latency),
            )
        } else {
            (format!("t{}.{c}", level - 1), vec![NodeRole::Router], fat)
        };
        let node = s.node(label, roles);
        s.link(parent, node, cfg);
    }
    s
}

/// One step of a flash-crowd drive: the registry/report pair visible to the
/// controller at `round`. Before `join_round` only the first `core` leaves
/// are registered (the steady overnight audience); from `join_round` on,
/// every leaf is — the paper-scale "100k joins inside one control interval"
/// event, compressed into a single registry snapshot change.
pub fn flash_crowd_membership(
    session: u32,
    leaves: &[NodeId],
    core: usize,
    round: u64,
    join_round: u64,
    level: u8,
    lossy_mod: usize,
) -> (Vec<(AppId, NodeId, SessionId)>, Vec<ReceiverReport>) {
    assert!(core >= 1 && core <= leaves.len());
    let active = if round < join_round { &leaves[..core] } else { leaves };
    (registry_for_leaves(session, active), reports_for_leaves(session, active, level, lossy_mod))
}

// ---------------------------------------------------------------------------
// Federated packet world: sharded twin + sequential oracle (DESIGN.md §17)
// ---------------------------------------------------------------------------

/// Shape of a federated packet-level world: a core shard (source plus one
/// border stub per domain) feeding `domains` balanced `fanout^depth`
/// multicast domains across fixed-latency inter-domain handoffs.
#[derive(Clone, Copy, Debug)]
pub struct FederationWorldParams {
    /// Federation domains (each becomes one shard; the core is shard 0).
    pub domains: usize,
    /// Branching factor of each domain's balanced tree.
    pub fanout: usize,
    /// Depth of each domain's balanced tree (`fanout^depth` leaves).
    pub depth: usize,
    /// Every `sink_stride`-th leaf hosts a counting receiver.
    pub sink_stride: usize,
    /// Core feed rate: control packets per second towards every stub.
    pub rate_pps: u64,
    /// Inter-domain propagation latency — the conservative lookahead.
    pub handoff_delay: SimDuration,
    /// Event-queue backend for every shard and the oracle.
    pub backend: QueueBackend,
    /// Structured-trace capacity per simulator (0 disables tracing).
    pub trace_cap: usize,
}

impl Default for FederationWorldParams {
    fn default() -> Self {
        FederationWorldParams {
            domains: 3,
            fanout: 3,
            depth: 2,
            sink_stride: 2,
            rate_pps: 100,
            handoff_delay: SimDuration::from_millis(20),
            backend: QueueBackend::CalendarWheel,
            trace_cap: 0,
        }
    }
}

impl FederationWorldParams {
    /// Receivers across all domains (`domains * ceil(leaves / stride)`).
    pub fn receivers(&self) -> usize {
        let leaves = self.fanout.pow(self.depth as u32);
        self.domains * leaves.div_ceil(self.sink_stride)
    }
}

/// Ticks `period`-spaced control packets to every border stub — the core
/// traffic that crosses the inter-domain handoffs.
struct FeedSource {
    stubs: Vec<NodeId>,
    period: SimDuration,
}

impl App for FeedSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        for &s in &self.stubs {
            ctx.send_control(s, 1000, Arc::new(()));
        }
        ctx.set_timer(self.period, 0);
    }
}

/// Re-originates every packet arriving at a domain border as a media packet
/// on the domain's local multicast group.
struct BorderFeeder {
    group: GroupId,
    seq: u64,
}

impl App for BorderFeeder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _packet: &Packet) {
        ctx.send_media(self.group, SessionId(0), 0, self.seq, 1000);
        self.seq += 1;
    }
}

/// A counting receiver. It is subscribed via the batched join at build time
/// and re-joins itself after a crash/restart cycle (a crash wipes the
/// node's membership), exercising both the batched and the incremental
/// graft paths.
struct DomainSink {
    group: GroupId,
    delivered: Arc<AtomicU64>,
}

impl App for DomainSink {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &Packet) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        ctx.join(self.group);
    }
}

/// A federated packet world laid down twice from the same parameters: split
/// into a [`ShardedSim`] (core shard + one shard per domain, mailbox
/// handoffs) and joined into a single sequential [`Simulator`] where each
/// border stub hosts a [`RelayApp`] — the differential oracle. Node and link
/// id maps translate oracle ids to `(shard, local id)` so fault plans and
/// per-link stats can be compared across the two worlds.
pub struct FederatedMediaWorld {
    pub params: FederationWorldParams,
    pub sharded: ShardedSim,
    pub oracle: Simulator,
    /// Per-domain delivery counters in the sharded world.
    pub delivered_sharded: Vec<Arc<AtomicU64>>,
    /// Per-domain delivery counters in the oracle.
    pub delivered_oracle: Vec<Arc<AtomicU64>>,
    /// Oracle node id (by index) → `(shard, shard-local node id)`.
    pub node_map: Vec<(usize, NodeId)>,
    /// Oracle directed link id (by index) → `(shard, shard-local link id)`.
    pub link_map: Vec<(usize, DirLinkId)>,
    /// Oracle duplex pairs of the core `src → stub` links, one per domain.
    pub core_links: Vec<(DirLinkId, DirLinkId)>,
    /// Oracle node ids per domain, border first then breadth-first tiers.
    pub domain_nodes: Vec<Vec<NodeId>>,
    /// Oracle duplex link pairs per domain, in construction order.
    pub domain_links: Vec<Vec<(DirLinkId, DirLinkId)>>,
}

/// The sharded half of a federated world on its own — what the 1M-receiver
/// wall-budget runs and the throughput bench use, where building the
/// sequential oracle twin alongside would double the footprint for nothing.
pub struct FederatedShardedWorld {
    pub params: FederationWorldParams,
    pub sharded: ShardedSim,
    /// Per-domain delivery counters.
    pub delivered: Vec<Arc<AtomicU64>>,
}

impl FederatedShardedWorld {
    /// Total deliveries across all domains.
    pub fn delivered_total(&self) -> u64 {
        self.delivered.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// The federated world on the ground: every part built and populated, only
/// the border stubs still bare — what crosses a border is the one thing the
/// split and the joined instantiation do differently.
struct LaidWorld {
    /// One simulator per part (core, then each domain) when split; exactly
    /// one holding every part when joined.
    sims: Vec<Simulator>,
    /// The core's egress stub towards each domain.
    stubs: Vec<NodeId>,
    /// Each domain's border (tree root), in the ids of the simulator holding it.
    borders: Vec<NodeId>,
    /// Per-domain delivery counters.
    delivered: Vec<Arc<AtomicU64>>,
}

/// Lay the federated world down part by part — the core (source plus one
/// stub per domain), then each domain's balanced tree — with a
/// [`NetworkBuilder`] per part (`split`) or one shared by all, then build
/// the simulators and attach the feed source, each domain's border feeder,
/// its sinks and their batched join. Parts go down in the same order
/// either way, so a joined world's ids are the split parts' local ids laid
/// end to end.
fn lay_out(params: &FederationWorldParams, split: bool) -> LaidWorld {
    assert!(params.domains >= 1 && params.sink_stride >= 1 && params.rate_pps >= 1);
    let cfg = || SimConfig { queue: params.backend, ..SimConfig::default() };
    let fat = LinkConfig::kbps(100_000.0);

    let mut builders = vec![NetworkBuilder::new(cfg())];
    let nb = &mut builders[0];
    let src = nb.add_node("src");
    let stubs: Vec<NodeId> = (0..params.domains).map(|d| nb.add_node(format!("stub{d}"))).collect();
    for &stub in &stubs {
        nb.add_link(src, stub, fat);
    }
    let mut borders = Vec::new();
    let mut domain_leaves = Vec::new();
    for d in 0..params.domains {
        if split {
            builders.push(NetworkBuilder::new(cfg()));
        }
        let nb = builders.last_mut().expect("the core's builder at least");
        let border = nb.add_node(format!("d{d}/border"));
        let mut leaves = Vec::new();
        for (parent, _, level) in balanced_walk(params.fanout, params.depth) {
            let n = nb.add_node("n");
            nb.add_link(NodeId(border.0 + parent as u32), n, fat);
            if level == params.depth {
                leaves.push(n);
            }
        }
        borders.push(border);
        domain_leaves.push(leaves);
    }

    let mut sims: Vec<Simulator> = builders.into_iter().map(NetworkBuilder::build).collect();
    for sim in &mut sims {
        sim.trace = Ring::new(params.trace_cap);
    }
    let period = SimDuration(1_000_000_000 / params.rate_pps);
    sims[0].add_app(src, Box::new(FeedSource { stubs: stubs.clone(), period }));
    let mut delivered = Vec::new();
    for (d, (&border, leaves)) in borders.iter().zip(&domain_leaves).enumerate() {
        let sim = &mut sims[if split { d + 1 } else { 0 }];
        let group = sim.create_group(border);
        sim.add_app(border, Box::new(BorderFeeder { group, seq: 0 }));
        let counter = Arc::new(AtomicU64::new(0));
        let mut members = Vec::new();
        for &leaf in leaves.iter().step_by(params.sink_stride) {
            let sink = DomainSink { group, delivered: Arc::clone(&counter) };
            let app = sim.add_app(leaf, Box::new(sink));
            members.push((leaf, app));
        }
        sim.batch_join(group, &members);
        delivered.push(counter);
    }
    LaidWorld { sims, stubs, borders, delivered }
}

/// Build only the sharded half of a federated world (no oracle twin): the
/// world laid out split, one handoff per stub.
pub fn federated_media_sharded(params: FederationWorldParams) -> FederatedShardedWorld {
    let laid = lay_out(&params, true);
    let mut sharded = ShardedSim::new(laid.sims);
    for (d, (&stub, &border)) in laid.stubs.iter().zip(&laid.borders).enumerate() {
        sharded.add_handoff(0, stub, d + 1, border, params.handoff_delay);
    }
    FederatedShardedWorld { params, sharded, delivered: laid.delivered }
}

/// Build the sharded world and its sequential oracle from one parameter set.
///
/// The oracle is the same layout joined into one simulator; the only
/// structural difference is the stub app: the handoff's capturing app on
/// the sharded side, a [`RelayApp`] re-injecting after the same delay on
/// the oracle side. Because both lay their parts down in the same order,
/// the id maps are plain arithmetic: an oracle id is a shard-local id plus
/// the sizes of the parts before it (so core ids coincide with shard 0's).
pub fn federated_media_world(params: FederationWorldParams) -> FederatedMediaWorld {
    let FederatedShardedWorld { sharded, delivered: delivered_sharded, .. } =
        federated_media_sharded(params);
    let mut laid = lay_out(&params, false);
    let mut oracle = laid.sims.pop().expect("a joined layout is one simulator");
    for (&stub, &border) in laid.stubs.iter().zip(&laid.borders) {
        oracle.add_app(stub, Box::new(RelayApp { dest: border, delay: params.handoff_delay }));
    }

    let mut node_map = Vec::new();
    let mut link_map = Vec::new();
    let mut part_nodes = Vec::new();
    let mut part_links = Vec::new();
    for shard in 0..sharded.shard_count() {
        let net = sharded.shard(shard).network();
        let (node_base, link_base) = (node_map.len() as u32, link_map.len() as u32);
        node_map.extend((0..net.node_count() as u32).map(|n| (shard, NodeId(n))));
        link_map.extend((0..net.link_count() as u32).map(|l| (shard, DirLinkId(l))));
        part_nodes.push((node_base..node_map.len() as u32).map(NodeId).collect());
        // `add_link` numbers a duplex pair's two halves back to back.
        let halves = (link_base..link_map.len() as u32).step_by(2);
        part_links.push(halves.map(|l| (DirLinkId(l), DirLinkId(l + 1))).collect());
    }
    let domain_nodes = part_nodes.split_off(1);
    let domain_links = part_links.split_off(1);
    let core_links = part_links.pop().expect("the core part");

    FederatedMediaWorld {
        params,
        sharded,
        oracle,
        delivered_sharded,
        delivered_oracle: laid.delivered,
        node_map,
        link_map,
        core_links,
        domain_nodes,
        domain_links,
    }
}

impl FederatedMediaWorld {
    /// Install one fault plan (expressed in oracle ids) into both worlds:
    /// verbatim into the oracle, and partitioned by node/link ownership into
    /// per-shard plans with shard-local ids. Must be called before either
    /// world starts running.
    pub fn install_faults(&mut self, plan: &netsim::FaultPlan) {
        use netsim::FaultKind;
        self.oracle.install_faults(plan);
        let mut per_shard: Vec<netsim::FaultPlan> =
            (0..self.sharded.shard_count()).map(|_| netsim::FaultPlan::new()).collect();
        for &(t, kind) in plan.events() {
            let (shard, local) = match kind {
                FaultKind::LinkDown(l) => {
                    let (s, ll) = self.link_map[l.0 as usize];
                    (s, FaultKind::LinkDown(ll))
                }
                FaultKind::LinkUp(l) => {
                    let (s, ll) = self.link_map[l.0 as usize];
                    (s, FaultKind::LinkUp(ll))
                }
                FaultKind::NodeCrash(n) => {
                    let (s, ln) = self.node_map[n.index()];
                    (s, FaultKind::NodeCrash(ln))
                }
                FaultKind::NodeRestart(n) => {
                    let (s, ln) = self.node_map[n.index()];
                    (s, FaultKind::NodeRestart(ln))
                }
            };
            per_shard[shard] = std::mem::take(&mut per_shard[shard]).at(t, local);
        }
        for (s, p) in per_shard.iter().enumerate() {
            if !p.is_empty() {
                self.sharded.install_faults(s, p);
            }
        }
    }

    /// Run both worlds to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.sharded.run_until(deadline);
        self.oracle.run_until(deadline);
    }

    /// Total deliveries per world: `(sharded, oracle)`.
    pub fn delivered(&self) -> (u64, u64) {
        let s = self.delivered_sharded.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        let o = self.delivered_oracle.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        (s, o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::rng::check;

    #[test]
    fn balanced_tree_shape() {
        let (tree, leaves) = balanced_session_tree(0, 3, 3);
        assert_eq!(leaves.len(), 27);
        assert_eq!(tree.tree().len(), 1 + 3 + 9 + 27);
        assert!(leaves.iter().all(|&l| tree.tree().is_leaf(l)));
    }

    #[test]
    fn ten_k_domain_is_reachable() {
        let (tree, leaves) = balanced_session_tree(0, 10, 4);
        assert_eq!(leaves.len(), 10_000);
        assert!(tree.tree().len() >= 10_000, "domain must span ≥10k nodes");
    }

    #[test]
    fn churn_touches_requested_fraction() {
        let (_, leaves) = balanced_session_tree(0, 10, 3);
        let mut reports = reports_for_leaves(0, &leaves, 3, 0);
        let before = reports.clone();
        let touched = churn_fraction(&mut reports, 0.01, 1);
        assert_eq!(touched, 10);
        let changed = reports.iter().zip(&before).filter(|(a, b)| a != b).count();
        assert_eq!(changed, touched, "every touched report must differ");
        // A later round with the same fraction rotates to a different set.
        let mid = reports.clone();
        churn_fraction(&mut reports, 0.01, 2);
        assert_ne!(reports, mid);
    }

    #[test]
    fn churn_full_fraction_touches_everything() {
        let (_, leaves) = balanced_session_tree(0, 4, 2);
        let mut reports = reports_for_leaves(0, &leaves, 3, 0);
        let before = reports.clone();
        let touched = churn_fraction(&mut reports, 1.0, 0);
        assert_eq!(touched, before.len());
        assert!(reports.iter().zip(&before).all(|(a, b)| a != b));
    }

    #[test]
    fn diurnal_profile_peaks_at_midday_and_repeats() {
        let p = 24u64;
        assert_eq!(diurnal_fraction(0, p, 0.01, 0.5), 0.01);
        assert_eq!(diurnal_fraction(12, p, 0.01, 0.5), 0.5);
        assert_eq!(diurnal_fraction(0, p, 0.01, 0.5), diurnal_fraction(24, p, 0.01, 0.5));
        // Monotone up the morning, down the evening.
        for r in 0..12 {
            assert!(diurnal_fraction(r, p, 0.0, 1.0) < diurnal_fraction(r + 1, p, 0.0, 1.0));
        }
        for r in 12..23 {
            assert!(diurnal_fraction(r, p, 0.0, 1.0) > diurnal_fraction(r + 1, p, 0.0, 1.0));
        }
    }

    #[test]
    fn heterogeneous_lastmile_cycles_capacity_classes() {
        let caps = [150.0, 600.0, 2500.0];
        let s = heterogeneous_lastmile(3, 2, &caps);
        let receivers = s.receivers();
        assert_eq!(receivers.len(), 9);
        // Every class is represented and matches its leaf link capacity.
        for (node, (_, set)) in receivers {
            let parent = s.links.iter().find(|l| l.b == node).map(|l| l.a).unwrap();
            let cap = s.capacity_between(parent, node).unwrap();
            assert_eq!(cap, caps[set as usize] * 1000.0);
        }
        // Buildable into a simulator.
        let built = s.instantiate(Default::default());
        assert_eq!(built.sim.network().node_count(), s.nodes.len());
    }

    #[test]
    fn flash_crowd_membership_jumps_at_join_round() {
        let (_, leaves) = balanced_session_tree(0, 4, 2);
        let (reg_before, rep_before) = flash_crowd_membership(0, &leaves, 3, 4, 5, 1, 0);
        assert_eq!(reg_before.len(), 3);
        assert_eq!(rep_before.len(), 3);
        let (reg_after, rep_after) = flash_crowd_membership(0, &leaves, 3, 5, 5, 1, 0);
        assert_eq!(reg_after.len(), leaves.len());
        assert_eq!(rep_after.len(), leaves.len());
        // The core keeps its identities across the join (no re-keying).
        assert_eq!(&reg_after[..3], &reg_before[..]);
    }

    #[test]
    fn border_capacity_oracle_matches_fitting_levels() {
        let spec = traffic::LayerSpec::paper_default();
        let (_, leaves) = balanced_session_tree(0, 2, 2);
        let fit = vec![2u8; leaves.len()];
        let ok =
            reports_behind_border(0, &leaves, &fit, 150_000.0, &spec, SimDuration::from_secs(2));
        assert!(ok.iter().all(|r| r.lost == 0), "at the fitting level nothing is lost");
        let over = vec![3u8; leaves.len()];
        let lossy =
            reports_behind_border(0, &leaves, &over, 150_000.0, &spec, SimDuration::from_secs(2));
        assert!(lossy.iter().all(|r| r.lost > 0), "overshooting the border loses packets");
        // Bytes saturate at the border: observed throughput re-derives the
        // capacity, which is what parent stage 2 learns from the fold.
        assert_eq!(lossy[0].bytes, (150_000.0 / 8.0 * 2.0) as u64);
    }

    #[test]
    fn federated_world_shape() {
        let (domains, leaves) = federated_domains(3, 2, 2, toposense::Config::default(), 1);
        assert_eq!(domains.len(), 3);
        assert_eq!(leaves.len(), 4);
        assert!(domains.iter().all(|d| d.receivers() == 4));
    }

    #[test]
    fn federated_media_world_twin_agrees() {
        let mut w = federated_media_world(FederationWorldParams::default());
        assert_eq!(w.sharded.shard_count(), 4, "core + 3 domains");
        // Maps cover every oracle node and directed link.
        assert_eq!(w.node_map.len(), w.oracle.network().node_count());
        assert_eq!(w.link_map.len(), w.oracle.network().link_count());
        w.run_until(SimTime::from_secs(2));
        let (s, o) = w.delivered();
        assert_eq!(s, o, "sharded and oracle deliveries diverged");
        assert!(s > 0, "the twin must carry real traffic");
        assert_eq!(w.sharded.events_processed(), w.oracle.events_processed());
        assert_eq!(w.sharded.packets_live(), w.oracle.packets_live());
        for i in 0..w.sharded.shard_count() {
            w.sharded.shard(i).network().multicast_audit().unwrap();
        }
        w.oracle.network().multicast_audit().unwrap();
    }

    /// What lining two hand-mirrored builds up used to assert at build
    /// time, checked from the outside: the id maps send every oracle node
    /// and directed link to the same node and link in its shard, cover both
    /// exactly, and the per-part indices name the links they say they do.
    #[test]
    fn id_maps_line_the_oracle_up_with_the_shards() {
        let shapes = [
            FederationWorldParams::default(),
            FederationWorldParams { domains: 1, ..FederationWorldParams::default() },
            FederationWorldParams { depth: 1, ..FederationWorldParams::default() },
            FederationWorldParams { sink_stride: 100, ..FederationWorldParams::default() },
        ];
        for params in shapes {
            let w = federated_media_world(params);
            let oracle = w.oracle.network();
            let shard = |s: usize| w.sharded.shard(s).network();
            assert_eq!(w.node_map.len(), oracle.node_count());
            assert_eq!(w.link_map.len(), oracle.link_count());
            let shard_nodes: usize =
                (0..w.sharded.shard_count()).map(|s| shard(s).node_count()).sum();
            let shard_links: usize =
                (0..w.sharded.shard_count()).map(|s| shard(s).link_count()).sum();
            assert_eq!((shard_nodes, shard_links), (oracle.node_count(), oracle.link_count()));
            for (o, &(s, local)) in w.node_map.iter().enumerate() {
                assert_eq!(oracle.node_label(NodeId(o as u32)), shard(s).node_label(local));
            }
            for (o, &(s, local)) in w.link_map.iter().enumerate() {
                let (ol, sl) = (oracle.link(DirLinkId(o as u32)), shard(s).link(local));
                assert_eq!(w.node_map[ol.from.index()], (s, sl.from), "tail of oracle link {o}");
                assert_eq!(w.node_map[ol.to.index()], (s, sl.to), "head of oracle link {o}");
            }

            assert_eq!(w.core_links.len(), params.domains);
            for (d, &(down, up)) in w.core_links.iter().enumerate() {
                let stub = oracle.link(down).to;
                assert_eq!(oracle.node_label(stub), format!("stub{d}"));
                assert_eq!(oracle.node_label(oracle.link(down).from), "src");
                assert_eq!(
                    (oracle.link(up).from, oracle.link(up).to),
                    (stub, oracle.link(down).from)
                );
            }
            assert_eq!(w.domain_nodes.len(), params.domains);
            for (d, (nodes, links)) in w.domain_nodes.iter().zip(&w.domain_links).enumerate() {
                assert_eq!(oracle.node_label(nodes[0]), format!("d{d}/border"));
                assert!(nodes.iter().all(|n| w.node_map[n.index()].0 == d + 1));
                assert_eq!(nodes.len(), shard(d + 1).node_count());
                // One duplex pair per non-border node, in breadth-first
                // order: pair `i` hangs node `i + 1` under its parent.
                assert_eq!(links.len(), nodes.len() - 1);
                for (i, &(down, up)) in links.iter().enumerate() {
                    let parent = nodes[i / params.fanout];
                    assert_eq!(
                        (oracle.link(down).from, oracle.link(down).to),
                        (parent, nodes[i + 1])
                    );
                    assert_eq!((oracle.link(up).from, oracle.link(up).to), (nodes[i + 1], parent));
                }
            }
            assert_eq!(w.delivered_sharded.len(), params.domains);
            assert_eq!(w.delivered_oracle.len(), params.domains);
        }
    }

    /// The walk is the numbering every generator here relies on.
    #[test]
    fn balanced_walk_numbers_breadth_first() {
        check("balanced_walk_numbers_breadth_first", 64, |g| {
            let fanout = g.range_u64(1, 7) as usize;
            let depth = g.range_u64(1, 6) as usize;
            let edges: Vec<_> = balanced_walk(fanout, depth).collect();
            let leaves = fanout.pow(depth as u32);
            for (i, &(parent, child, level)) in edges.iter().enumerate() {
                // Children are `1..n` in visiting order.
                assert_eq!(child, i + 1, "edge {i}: fanout {fanout}, depth {depth}");
                assert_eq!(
                    parent,
                    (child - 1) / fanout,
                    "edge {i}: fanout {fanout}, depth {depth}"
                );
                // Exactly the last `fanout^depth` edges reach the leaf level.
                assert_eq!(
                    level == depth,
                    i >= edges.len() - leaves,
                    "edge {i}: fanout {fanout}, depth {depth}"
                );
                assert!((1..=depth).contains(&level), "edge {i}: fanout {fanout}, depth {depth}");
            }
            let (_, tree_leaves) = balanced_session_tree(0, fanout, depth);
            let walk_leaves: Vec<NodeId> =
                edges[edges.len() - leaves..].iter().map(|&(_, c, _)| NodeId(c as u32)).collect();
            assert_eq!(tree_leaves, walk_leaves, "fanout {fanout}, depth {depth}");
        });
    }

    #[test]
    fn federated_media_world_faults_stay_twinned() {
        let mut w = federated_media_world(FederationWorldParams::default());
        // Crash a mid-tier node of domain 1 and flap its border link to the
        // core — faults on both sides of a handoff, in oracle ids.
        let mid = w.domain_nodes[1][1];
        let plan = netsim::FaultPlan::new()
            .node_outage(mid, SimTime::from_millis(300), SimTime::from_millis(900))
            .link_outage(w.core_links[1], SimTime::from_millis(500), SimTime::from_millis(700));
        w.install_faults(&plan);
        w.run_until(SimTime::from_secs(2));
        let (s, o) = w.delivered();
        assert_eq!(s, o, "faulted sharded and oracle deliveries diverged");
        assert_eq!(w.sharded.events_processed(), w.oracle.events_processed());
    }

    #[test]
    fn reports_match_registry() {
        let (_, leaves) = balanced_session_tree(0, 2, 2);
        let reports = reports_for_leaves(0, &leaves, 3, 2);
        let registry = registry_for_leaves(0, &leaves);
        assert_eq!(reports.len(), registry.len());
        assert!(reports
            .iter()
            .zip(&registry)
            .all(|(r, &(a, n, s))| r.receiver == a && r.node == n && r.session == s));
    }

    #[test]
    fn churn_zero_fraction_is_a_noop() {
        let (_, leaves) = balanced_session_tree(0, 2, 2);
        let mut reports = reports_for_leaves(0, &leaves, 3, 2);
        let before = reports.clone();
        assert_eq!(churn_fraction(&mut reports, 0.0, 5), 0);
        assert_eq!(reports, before);
    }
}
