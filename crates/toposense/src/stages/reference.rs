//! Pre-refactor `HashMap`-indexed stage implementations, kept verbatim as
//! the oracle for the differential test suite (`tests/differential.rs` in
//! the workspace root): the dense slot-indexed cores must produce
//! identical congestion states, bottlenecks, shares, and subscription
//! levels on arbitrary trees. The only [`NodeId`]-keyed stage code left;
//! not part of the public API.

use crate::config::Config;
use crate::decision::{decide, Action, NodeKind};
use crate::stages::congestion::{LeafObs, NodeState, SIMILARITY_TOLERANCE};
use crate::stages::subscription::{
    half_supply_level, reduce_target, supply_of, BackoffTable, NodeInputs,
};
use netsim::{DirLinkId, NodeId, RngStream, SimTime};
use std::collections::HashMap;
use topology::SessionTree;
use traffic::LayerSpec;

/// Stage-1 output for one session.
#[derive(Clone, Debug, Default)]
pub struct SessionCongestion {
    pub nodes: HashMap<NodeId, NodeState>,
}

impl SessionCongestion {
    /// The state of `node` (default all-clear for unknown nodes).
    pub fn node(&self, node: NodeId) -> NodeState {
        self.nodes.get(&node).copied().unwrap_or_default()
    }
}

/// Stage-3 output for one session.
#[derive(Clone, Debug, Default)]
pub struct BottleneckMap {
    pub(crate) bottleneck: HashMap<NodeId, f64>,
    pub(crate) max_handle: HashMap<NodeId, f64>,
}

impl BottleneckMap {
    /// Minimum capacity on the path source -> `node` (∞ if unconstrained).
    pub fn bottleneck(&self, node: NodeId) -> f64 {
        self.bottleneck.get(&node).copied().unwrap_or(f64::INFINITY)
    }

    /// Max bottleneck over the subtree's receivers (∞ if unconstrained).
    pub fn max_handle(&self, node: NodeId) -> f64 {
        self.max_handle.get(&node).copied().unwrap_or(f64::INFINITY)
    }
}

/// Stage-4 output: per-session allowed bandwidth at every tree node.
#[derive(Clone, Debug, Default)]
pub struct ShareMap {
    pub(crate) allowed: Vec<HashMap<NodeId, f64>>,
}

impl ShareMap {
    /// The bandwidth session `idx` may use at `node` (∞ if unconstrained).
    pub fn allowed(&self, idx: usize, node: NodeId) -> f64 {
        self.allowed.get(idx).and_then(|m| m.get(&node)).copied().unwrap_or(f64::INFINITY)
    }
}

/// Stage-5 output.
#[derive(Clone, Debug, Default)]
pub struct SubscriptionResult {
    /// Demand per node (levels).
    pub demand: HashMap<NodeId, u8>,
    /// Supply per node (levels); leaf entries are the suggestions.
    pub supply: HashMap<NodeId, u8>,
}

/// Everything stage 5 needs for one session.
pub struct DemandContext<'a> {
    pub tree: &'a SessionTree,
    pub spec: &'a LayerSpec,
    pub cfg: &'a Config,
    pub now: SimTime,
    pub inputs: &'a HashMap<NodeId, NodeInputs>,
    /// Bandwidth cap per node from stages 3+4, already in level units.
    pub level_cap: &'a dyn Fn(NodeId) -> u8,
}

/// The original stage-1 implementation.
pub fn congestion_compute(
    tree: &SessionTree,
    obs: &HashMap<NodeId, LeafObs>,
    cfg: &Config,
) -> SessionCongestion {
    let t = tree.tree();
    let mut out: HashMap<NodeId, NodeState> = HashMap::with_capacity(t.len());

    // Bottom-up: loss, self-congestion, subtree byte maxima. Mirrors the
    // dense kernel's no-data rule: report-less children carry no evidence
    // and are skipped; a node whose whole subtree is silent is no-data
    // itself (finite placeholder loss, never self-congested).
    for node in t.bottom_up() {
        let children = t.children(node);
        let own = obs.get(&node);
        let mut state = NodeState::default();
        if children.is_empty() {
            let o = own.copied().unwrap_or_default();
            state.loss = o.loss;
            state.max_bytes = o.bytes;
            state.self_congested = own.is_some() && o.loss > cfg.p_threshold;
            state.has_data = own.is_some();
        } else {
            let mut losses: Vec<f64> =
                children.iter().filter(|c| out[c].has_data).map(|c| out[c].loss).collect();
            if let Some(o) = own {
                losses.push(o.loss);
            }
            if losses.is_empty() {
                state.has_data = false;
            } else {
                state.loss = losses.iter().copied().fold(f64::INFINITY, f64::min);
                state.max_bytes = children
                    .iter()
                    .filter(|c| out[c].has_data)
                    .map(|c| out[c].max_bytes)
                    .chain(own.map(|o| o.bytes))
                    .max()
                    .unwrap_or(0);
                state.has_data = true;
                let all_lossy = losses.iter().all(|&l| l > cfg.p_threshold);
                if all_lossy {
                    let mean = losses.iter().sum::<f64>() / losses.len() as f64;
                    let close = losses
                        .iter()
                        .filter(|&&l| (l - mean).abs() <= SIMILARITY_TOLERANCE)
                        .count();
                    let frac = close as f64 / losses.len() as f64;
                    state.self_congested = frac >= cfg.eta_similar;
                }
            }
        }
        out.insert(node, state);
    }

    // Top-down: parental congestion propagates.
    for node in t.top_down() {
        let parent_congested = t.parent(node).map(|p| out[&p].congested).unwrap_or(false);
        let s = out.get_mut(&node).expect("visited in bottom-up pass");
        s.parent_congested = parent_congested;
        s.congested = s.self_congested || parent_congested;
    }

    SessionCongestion { nodes: out }
}

/// The original stage-3 implementation.
pub fn bottleneck_compute(
    tree: &SessionTree,
    capacity: impl Fn(DirLinkId) -> Option<f64>,
) -> BottleneckMap {
    let t = tree.tree();
    let mut bottleneck: HashMap<NodeId, f64> = HashMap::with_capacity(t.len());
    for node in t.top_down() {
        let b = match t.parent(node) {
            None => f64::INFINITY,
            Some(p) => {
                let up = bottleneck[&p];
                let cap = tree.in_link(node).and_then(&capacity).unwrap_or(f64::INFINITY);
                up.min(cap)
            }
        };
        bottleneck.insert(node, b);
    }
    let mut max_handle: HashMap<NodeId, f64> = HashMap::with_capacity(t.len());
    for node in t.bottom_up() {
        let children = t.children(node);
        let m = if children.is_empty() {
            bottleneck[&node]
        } else {
            children.iter().map(|c| max_handle[c]).fold(f64::NEG_INFINITY, f64::max)
        };
        max_handle.insert(node, m);
    }
    BottleneckMap { bottleneck, max_handle }
}

/// The original stage-4 implementation.
pub fn sharing_compute(
    trees: &[SessionTree],
    specs: &[&LayerSpec],
    capacity: impl Fn(DirLinkId) -> Option<f64>,
) -> ShareMap {
    assert_eq!(trees.len(), specs.len());

    let mut crossing: HashMap<DirLinkId, Vec<(usize, NodeId)>> = HashMap::new();
    for (i, tree) in trees.iter().enumerate() {
        for (node, link, _) in tree.edges() {
            crossing.entry(link).or_default().push((i, node));
        }
    }

    let mut maxposs: Vec<HashMap<NodeId, f64>> = Vec::with_capacity(trees.len());
    for (i, tree) in trees.iter().enumerate() {
        let t = tree.tree();
        let mut m: HashMap<NodeId, f64> = HashMap::with_capacity(t.len());
        for node in t.top_down() {
            let v = match t.parent(node) {
                None => f64::INFINITY,
                Some(p) => {
                    let up = m[&p];
                    let link = tree.in_link(node).expect("non-root node has an in-link");
                    let avail = match capacity(link) {
                        None => f64::INFINITY,
                        Some(b) => {
                            let others_base: f64 = crossing[&link]
                                .iter()
                                .filter(|&&(j, _)| j != i)
                                .map(|&(j, _)| specs[j].base_rate())
                                .sum();
                            (b - others_base).max(specs[i].base_rate())
                        }
                    };
                    up.min(avail)
                }
            };
            m.insert(node, v);
        }
        maxposs.push(m);
    }

    let mut aggdem: Vec<HashMap<NodeId, f64>> = Vec::with_capacity(trees.len());
    for (i, tree) in trees.iter().enumerate() {
        let t = tree.tree();
        let mut m: HashMap<NodeId, f64> = HashMap::with_capacity(t.len());
        for node in t.bottom_up() {
            let children = t.children(node);
            let v = if children.is_empty() {
                maxposs[i][&node]
            } else {
                children.iter().map(|c| m[c]).fold(f64::NEG_INFINITY, f64::max)
            };
            m.insert(node, v);
        }
        aggdem.push(m);
    }

    let mut share: HashMap<(DirLinkId, usize), f64> = HashMap::new();
    for (&link, sessions) in &crossing {
        if sessions.len() < 2 {
            continue;
        }
        let Some(b) = capacity(link) else { continue };
        let xs: Vec<(usize, u32)> = sessions
            .iter()
            .map(|&(i, head)| {
                let level = specs[i].level_fitting(aggdem[i][&head]).max(1);
                (i, level as u32)
            })
            .collect();
        let total: u32 = xs.iter().map(|&(_, x)| x).sum();
        let n = xs.len();
        for (i, x) in xs {
            // Same guard as the dense kernel (`sharing::proportional_share`):
            // a zero Σx would make the division NaN/∞ and poison the final
            // top-down mins, so it degrades to an equal split of `b`.
            let bps = if total == 0 { b / n as f64 } else { x as f64 * b / total as f64 };
            share.insert((link, i), bps);
        }
    }

    let mut allowed: Vec<HashMap<NodeId, f64>> = Vec::with_capacity(trees.len());
    for (i, tree) in trees.iter().enumerate() {
        let t = tree.tree();
        let mut m: HashMap<NodeId, f64> = HashMap::with_capacity(t.len());
        for node in t.top_down() {
            let v = match t.parent(node) {
                None => f64::INFINITY,
                Some(p) => {
                    let up = m[&p];
                    let link = tree.in_link(node).expect("non-root node has an in-link");
                    let limit = share
                        .get(&(link, i))
                        .copied()
                        .or_else(|| capacity(link))
                        .unwrap_or(f64::INFINITY);
                    up.min(limit)
                }
            };
            m.insert(node, v);
        }
        allowed.push(m);
    }

    ShareMap { allowed }
}

/// The original stage-5 implementation.
pub fn subscription_compute(
    ctx: &DemandContext<'_>,
    backoffs: &mut BackoffTable,
    rng: &mut RngStream,
) -> SubscriptionResult {
    let t = ctx.tree.tree();
    let cfg = ctx.cfg;
    let spec = ctx.spec;
    let mut demand: HashMap<NodeId, u8> = HashMap::with_capacity(t.len());

    backoffs.expire(ctx.now);

    // Demand, bottom-up.
    for node in t.bottom_up() {
        let inp = ctx.inputs.get(&node).copied().unwrap_or_default();
        let children = t.children(node);
        let d = if children.is_empty() {
            let cur = inp.current_level.unwrap_or(1).max(1);
            if inp.parent_congested {
                cur
            } else {
                let floor = spec.level_fitting(inp.goodput_bps);
                let cap = (ctx.level_cap)(node);
                match decide(NodeKind::Leaf, inp.hist, inp.bw) {
                    Action::AddLayer => {
                        let settled = inp.supply_recent == cur && inp.supply_older == cur;
                        let target = cur.saturating_add(1).min(spec.max_level());
                        let known_safe = cap < spec.max_level() && target <= cap;
                        if target > cur
                            && !inp.sibling_congested
                            && (known_safe
                                || (settled && !backoffs.blocked(ctx.tree, node, target, ctx.now)))
                        {
                            target
                        } else {
                            cur
                        }
                    }
                    Action::DropIfLossHigh => {
                        if inp.loss > cfg.high_loss && cur > 1 {
                            let d = reduce_target(cur - 1, floor, cap, cur);
                            if d < cur {
                                backoffs.arm(node, cur, ctx.now, cfg, rng);
                            }
                            d
                        } else {
                            cur
                        }
                    }
                    Action::Maintain => cur,
                    Action::ReduceToSupply(w) => reduce_target(supply_of(&inp, w), floor, cap, cur),
                    Action::ReduceToHalfSupply { window, backoff } => {
                        let tgt = half_supply_level(spec, &inp, window);
                        let d = reduce_target(tgt, floor, cap, cur);
                        if backoff && cur > d {
                            backoffs.arm(node, cur, ctx.now, cfg, rng);
                        }
                        d
                    }
                    Action::ReduceToHalfSupplyIfLossVeryHigh(w) => {
                        if inp.loss > cfg.very_high_loss {
                            let tgt = half_supply_level(spec, &inp, w);
                            reduce_target(tgt, floor, cap, cur)
                        } else {
                            cur
                        }
                    }
                    Action::AcceptChildren => unreachable!("leaf cannot accept children"),
                }
            }
        } else {
            let childmax = children.iter().map(|c| demand[c]).max().unwrap_or(1);
            if inp.parent_congested {
                childmax
            } else {
                let floor = spec.level_fitting(inp.goodput_bps);
                let cap = (ctx.level_cap)(node);
                match decide(NodeKind::Internal, inp.hist, inp.bw) {
                    Action::AcceptChildren => childmax,
                    Action::Maintain => childmax.min(inp.demand_prev.unwrap_or(childmax)),
                    Action::ReduceToHalfSupply { window, backoff } => {
                        let tgt = half_supply_level(spec, &inp, window);
                        let d = reduce_target(tgt, floor, cap, childmax);
                        if backoff && childmax > d {
                            backoffs.arm(node, childmax, ctx.now, cfg, rng);
                        }
                        d
                    }
                    other => unreachable!("internal rows never yield {other:?}"),
                }
            }
        };
        demand.insert(node, d.max(1));
    }

    // Supply, top-down.
    let mut supply: HashMap<NodeId, u8> = HashMap::with_capacity(t.len());
    for node in t.top_down() {
        let cap = (ctx.level_cap)(node);
        let s = match t.parent(node) {
            None => demand[&node].min(cap),
            Some(p) => demand[&node].min(supply[&p]).min(cap),
        };
        supply.insert(node, s.max(1));
    }

    SubscriptionResult { demand, supply }
}
