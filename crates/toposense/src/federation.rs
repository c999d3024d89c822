//! Federated multi-domain control plane (DESIGN.md §16).
//!
//! One [`Controller`](crate::Controller) scales to one domain; the paper's
//! Fig. 3 sketches the next tier — per-domain agents plus a hierarchy that
//! keeps cross-domain bottlenecks consistent. This module is that tier at
//! the algorithm level: a [`Federation`] shards sessions across per-domain
//! [`AlgorithmState`] pipelines (run in parallel, deterministically), and
//! an inter-controller **border protocol** closes the loop between them:
//!
//! 1. Each interval, every domain runs the dense incremental pipeline over
//!    its own restricted view, under the border cap its gateway was handed
//!    last interval ([`AlgorithmState::set_border_caps`]).
//! 2. Each domain distills its interval into a [`BorderSummary`] — the
//!    congestion/throughput/bottleneck picture at its gateway link — and
//!    ships it as canonical single-line JSON (`toposense.border.v1`, a
//!    wire record like `toposense.checkpoint.v1`: DESIGN.md "Wire records").
//! 3. A parent aggregator decodes the summaries and **folds** each one
//!    into its own pipeline as a synthetic receiver report stationed at
//!    that domain's gateway node, so child-domain congestion flows through
//!    the parent's stage-1/stage-2 exactly like ordinary receiver loss
//!    flows through a domain controller.
//! 4. The parent's stage-5 supply at each gateway slot becomes that
//!    domain's border cap for the *next* interval — a saturated core link
//!    above the gateways is therefore reflected in every domain's root
//!    ceiling one interval after it first shows in the summaries.
//!
//! Determinism: domains run as independent pieces of [`netsim::par::map`]
//! (results in domain order, whatever the thread count), summaries are canonical
//! JSON round-tripped through [`BorderSummary::decode`] before folding,
//! and caps are normalized by [`AlgorithmState::set_border_caps`] — the
//! whole federation interval is a pure function of `(seed, inputs)`, which
//! `tests/baselines.rs` pins as a fingerprint.

use crate::algorithm::{AlgorithmInputs, AlgorithmOutputs, AlgorithmState, ReceiverReport};
use crate::config::Config;
use netsim::{
    derive_stream_seed, par, AppId, DirLinkId, GroupId, GroupSnapshot, NodeId, SessionId,
    SimDuration, SimTime,
};
use serde_json::wire;
use topology::discovery::{LinkView, TopologyView};
use topology::SessionTree;
use traffic::LayerSpec;

/// Schema identifier carried by every border summary.
pub const SCHEMA: &str = "toposense.border.v1";

/// Synthetic receivers the parent aggregator stations at gateway nodes
/// live in this reserved high `AppId` range (`BORDER_APP_BASE + domain`),
/// far above any real receiver id a scenario mints.
const BORDER_APP_BASE: u32 = 0xF000_0000;

wire! {
    /// One domain's per-interval digest of its border state: what the parent
    /// aggregator needs to treat the whole domain as a single receiver sitting
    /// behind the gateway link. All fields are integers (floats travel as raw
    /// bit patterns), so the canonical JSON rendering is byte-stable.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct BorderSummary {
        "schema" = SCHEMA;
        /// Domain ordinal inside the federation.
        pub domain: u32,
        /// Federation interval sequence number the summary belongs to.
        pub seq: u64,
        /// Gateway node id *in the parent topology*.
        pub gateway: u32,
        /// The domain's root supply this interval — the layer ceiling it is
        /// actually sustaining (bottleneck layer as seen from inside).
        pub level: u8,
        /// Packets received, summed across the domain's reports. Summing keeps
        /// the border loss rate audience-weighted: a single lossy last mile
        /// inside a large domain must not read as border congestion.
        pub received: u64,
        /// Packets lost, summed across the domain's reports.
        pub lost: u64,
        /// Max per-receiver bytes observed in the window — the throughput of
        /// the best-fed receiver, i.e. the flow actually crossing the gateway.
        pub bytes: u64,
        /// Tree slots labelled congested inside the domain this interval.
        pub congested_nodes: u64,
        /// `f64::to_bits` of the domain's tightest finite internal capacity
        /// estimate (bits of `f64::INFINITY` when it has learned none).
        pub capacity_bits: u64,
    }
}

impl BorderSummary {
    /// Loss rate across the whole domain's audience.
    pub fn loss_rate(&self) -> f64 {
        netsim::stats::loss_rate(self.received, self.lost)
    }

    /// Canonical single-line JSON text — the border protocol's wire form.
    pub fn encode(&self) -> String {
        serde_json::to_string(self).expect("border serialization is infallible")
    }

    /// Parse and validate a border summary document: the schema tag and
    /// every field's presence and type.
    pub fn decode(text: &str) -> Result<BorderSummary, String> {
        serde_json::decode(text)
    }
}

/// One federated domain: its own pipeline state over its own session tree.
pub struct Domain {
    /// Domain ordinal (also the session id the domain runs internally).
    pub id: u32,
    /// Gateway node id in the parent topology; assigned by
    /// [`Federation::new`] from the domain's position.
    gateway: NodeId,
    state: AlgorithmState,
    tree: SessionTree,
    spec: LayerSpec,
    registry: Vec<(AppId, NodeId, SessionId)>,
}

impl Domain {
    /// A domain running `tree`/`spec` for the receivers in `registry`.
    /// The domain's internal session id is always `SessionId(0)` — ids are
    /// domain-local, exactly like a real per-domain controller's.
    pub fn new(
        id: u32,
        cfg: Config,
        seed: u64,
        tree: SessionTree,
        spec: LayerSpec,
        registry: Vec<(AppId, NodeId, SessionId)>,
    ) -> Self {
        Domain {
            id,
            gateway: NodeId(u32::MAX),
            state: AlgorithmState::new(
                cfg,
                derive_stream_seed(seed, "federation/domain", id as u64),
            ),
            tree,
            spec,
            registry,
        }
    }

    /// Receivers registered in this domain.
    pub fn receivers(&self) -> usize {
        self.registry.len()
    }

    /// Distill one interval into the border digest the parent folds.
    fn summarize(
        &self,
        seq: u64,
        reports: &[ReceiverReport],
        out: &AlgorithmOutputs,
    ) -> BorderSummary {
        let capacity = out.estimated_links.iter().map(|&(_, c)| c).fold(f64::INFINITY, f64::min);
        // One walk over the domain's reports; the sums saturate because a
        // caller may hand in counters no ingest has bounded.
        let (received, lost, bytes) = reports.iter().fold((0u64, 0u64, 0u64), |(rx, lo, by), r| {
            (rx.saturating_add(r.received), lo.saturating_add(r.lost), by.max(r.bytes))
        });
        BorderSummary {
            domain: self.id,
            seq,
            gateway: self.gateway.0,
            level: out.root_supply.first().copied().unwrap_or(1),
            received,
            lost,
            bytes,
            congested_nodes: out.congested_nodes as u64,
            capacity_bits: capacity.to_bits(),
        }
    }
}

/// Everything one federation interval produced.
#[derive(Clone, Debug)]
pub struct FederationInterval {
    /// Per-domain pipeline outputs, in domain order.
    pub domain_outputs: Vec<AlgorithmOutputs>,
    /// The border summaries the domains shipped (post wire round-trip).
    pub summaries: Vec<BorderSummary>,
    /// The parent aggregator's own pipeline outputs over the fold.
    pub parent: AlgorithmOutputs,
    /// Border caps now in force — computed this interval, binding the
    /// *next* one (`caps[i]` is domain `i`'s root ceiling).
    pub caps: Vec<u8>,
}

impl FederationInterval {
    /// Order-sensitive splitmix64 digest of everything observable in the
    /// interval — what `tests/baselines.rs` pins.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xfeed_b0bd_ea11_ca11u64;
        for out in &self.domain_outputs {
            for s in &out.suggestions {
                h = mix(
                    h,
                    ((s.receiver.0 as u64) << 32) | ((s.session.0 as u64) << 8) | s.level as u64,
                );
            }
            for &lv in &out.root_supply {
                h = mix(h, lv as u64);
            }
        }
        for s in &self.summaries {
            for b in s.encode().as_bytes() {
                h = mix(h, *b as u64);
            }
        }
        for s in &self.parent.suggestions {
            h = mix(h, ((s.receiver.0 as u64) << 32) | s.level as u64);
        }
        for &c in &self.caps {
            h = mix(h, c as u64);
        }
        h
    }
}

fn mix(h: u64, v: u64) -> u64 {
    netsim::rng::splitmix64(h.wrapping_add(v))
}

/// The federated control plane: `k` sharded domains plus the parent
/// aggregator that folds their border summaries and hands back caps.
pub struct Federation {
    domains: Vec<Domain>,
    parent: AlgorithmState,
    parent_tree: SessionTree,
    parent_spec: LayerSpec,
    parent_registry: Vec<(AppId, NodeId, SessionId)>,
    caps: Vec<u8>,
    seq: u64,
}

impl Federation {
    /// Assemble a federation over `domains`. The parent core topology is
    /// `src(0) — core(1) — gateway(2+i)` for domain `i`: one shared core
    /// link above every gateway, so core saturation caps all domains while
    /// a single slow gateway caps only its own.
    pub fn new(cfg: Config, seed: u64, mut domains: Vec<Domain>, parent_spec: LayerSpec) -> Self {
        assert!(!domains.is_empty(), "a federation needs at least one domain");
        let k = domains.len();
        let mut links = Vec::with_capacity(1 + k);
        let mut active = Vec::with_capacity(1 + k);
        links.push(LinkView { id: DirLinkId(0), from: NodeId(0), to: NodeId(1) });
        active.push(DirLinkId(0));
        let mut members = Vec::with_capacity(k);
        for (i, d) in domains.iter_mut().enumerate() {
            let gw = NodeId(2 + i as u32);
            d.gateway = gw;
            links.push(LinkView { id: DirLinkId(1 + i as u32), from: NodeId(1), to: gw });
            active.push(DirLinkId(1 + i as u32));
            members.push(gw);
        }
        let view = TopologyView {
            time: SimTime::ZERO,
            links,
            groups: vec![GroupSnapshot {
                group: GroupId(0),
                root: NodeId(0),
                active_links: active,
                member_nodes: members.clone(),
            }],
        };
        let parent_tree = SessionTree::build(&view, SessionId(0), &[GroupId(0)])
            .expect("parent core topology is a valid tree");
        let parent_registry: Vec<(AppId, NodeId, SessionId)> = domains
            .iter()
            .map(|d| (AppId(BORDER_APP_BASE + d.id), d.gateway, SessionId(0)))
            .collect();
        Federation {
            caps: vec![u8::MAX; k],
            domains,
            parent: AlgorithmState::new(cfg, derive_stream_seed(seed, "federation/parent", 0)),
            parent_tree,
            parent_spec,
            parent_registry,
            seq: 0,
        }
    }

    /// Run one federated control interval: domains in parallel under last
    /// interval's caps, then the parent fold, then the cap handback.
    /// `reports[i]` is domain `i`'s report batch for the window.
    pub fn run_interval(
        &mut self,
        now: SimTime,
        interval: SimDuration,
        reports: Vec<Vec<ReceiverReport>>,
    ) -> FederationInterval {
        assert_eq!(reports.len(), self.domains.len(), "one report batch per domain");
        let seq = self.seq;

        // Per-domain pipelines, in parallel and in place. A piece of work is
        // a domain, its report batch (by value: dropped when the domain is
        // done) and its cap; pieces share no mutable state, so the interval
        // is byte-identical at any thread count.
        let work = self.domains.iter_mut().zip(reports).zip(&self.caps);
        let ran: Vec<(AlgorithmOutputs, BorderSummary)> = par::map(work, |((d, reports), &cap)| {
            d.state.set_border_caps(&[(SessionId(0), cap)]);
            let trees = std::slice::from_ref(&d.tree);
            let specs = [&d.spec];
            let inputs = AlgorithmInputs {
                now,
                interval,
                trees,
                specs: &specs,
                registry: &d.registry,
                reports: &reports,
            };
            let out = d.state.run_incremental(&inputs);
            let summary = d.summarize(seq, &reports, &out);
            (out, summary)
        });

        let mut domain_outputs = Vec::with_capacity(ran.len());
        let mut summaries = Vec::with_capacity(ran.len());
        for (out, summary) in ran {
            // The border protocol's wire round-trip: what the parent folds
            // is the decoded canonical JSON, never the in-memory struct,
            // so a schema drift fails loudly here and not in a replica.
            let decoded = BorderSummary::decode(&summary.encode())
                .expect("border summary must round-trip its own wire form");
            debug_assert_eq!(decoded, summary);
            domain_outputs.push(out);
            summaries.push(decoded);
        }

        // The fold: each domain becomes one synthetic receiver at its
        // gateway, and the parent runs the ordinary five-stage pipeline
        // over them — child congestion enters parent stage-1, gateway
        // throughput feeds parent stage-2 usage, and the parent's supply
        // is the federation-consistent ceiling per gateway.
        let folded: Vec<ReceiverReport> = summaries
            .iter()
            .map(|s| ReceiverReport {
                receiver: AppId(BORDER_APP_BASE + s.domain),
                node: NodeId(s.gateway),
                session: SessionId(0),
                level: s.level,
                received: s.received,
                lost: s.lost,
                bytes: s.bytes,
            })
            .collect();
        let trees = std::slice::from_ref(&self.parent_tree);
        let specs = [&self.parent_spec];
        let inputs = AlgorithmInputs {
            now,
            interval,
            trees,
            specs: &specs,
            registry: &self.parent_registry,
            reports: &folded,
        };
        let parent = self.parent.run_incremental(&inputs);

        // Hand back next interval's caps from the parent's per-gateway
        // supply. Computed at interval n, binding at n + 1: the one-hop
        // lag is the federation's propagation delay.
        for s in &parent.suggestions {
            let domain = s.receiver.0.wrapping_sub(BORDER_APP_BASE) as usize;
            if let Some(cap) = self.caps.get_mut(domain) {
                *cap = s.level;
            }
        }
        self.seq += 1;
        FederationInterval { domain_outputs, summaries, parent, caps: self.caps.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BorderSummary {
        BorderSummary {
            domain: 3,
            seq: 17,
            gateway: 5,
            level: 4,
            received: 9_000,
            lost: 250,
            bytes: 120_000,
            congested_nodes: 12,
            capacity_bits: 150_000.0f64.to_bits(),
        }
    }

    /// A tiny two-leaf domain tree (root 0 — {1, 2}).
    fn tiny_domain_tree() -> (SessionTree, Vec<NodeId>) {
        let leaves = vec![NodeId(1), NodeId(2)];
        let view = TopologyView {
            time: SimTime::ZERO,
            links: vec![
                LinkView { id: DirLinkId(0), from: NodeId(0), to: NodeId(1) },
                LinkView { id: DirLinkId(1), from: NodeId(0), to: NodeId(2) },
            ],
            groups: vec![GroupSnapshot {
                group: GroupId(0),
                root: NodeId(0),
                active_links: vec![DirLinkId(0), DirLinkId(1)],
                member_nodes: leaves.clone(),
            }],
        };
        (SessionTree::build(&view, SessionId(0), &[GroupId(0)]).unwrap(), leaves)
    }

    fn tiny_domain(id: u32, seed: u64) -> (Domain, Vec<NodeId>) {
        let (tree, leaves) = tiny_domain_tree();
        let registry: Vec<(AppId, NodeId, SessionId)> = leaves
            .iter()
            .enumerate()
            .map(|(i, &n)| (AppId(100 * id + i as u32), n, SessionId(0)))
            .collect();
        (
            Domain::new(id, Config::default(), seed, tree, LayerSpec::paper_default(), registry),
            leaves,
        )
    }

    fn clean_reports(id: u32, leaves: &[NodeId], level: u8) -> Vec<ReceiverReport> {
        leaves
            .iter()
            .enumerate()
            .map(|(i, &node)| ReceiverReport {
                receiver: AppId(100 * id + i as u32),
                node,
                session: SessionId(0),
                level,
                received: 100,
                lost: 0,
                bytes: 25_000,
            })
            .collect()
    }

    #[test]
    fn border_summary_round_trip_is_identity() {
        let s = sample();
        let text = s.encode();
        let back = BorderSummary::decode(&text).expect("decodes");
        assert_eq!(back, s);
        assert_eq!(back.encode(), text, "canonical rendering is stable");
    }

    #[test]
    fn border_summary_rejects_bad_documents() {
        let s = sample();
        let bad_schema = s.encode().replace(SCHEMA, "toposense.border.v0");
        assert!(BorderSummary::decode(&bad_schema).unwrap_err().contains("schema mismatch"));
        assert!(BorderSummary::decode("not json").is_err());
        assert!(BorderSummary::decode("{}").is_err());
        let no_level = s.encode().replace("\"level\":4,", "");
        assert!(BorderSummary::decode(&no_level).unwrap_err().contains("level"));
        // Integers the fields cannot hold are rejected by name, not
        // truncated into another domain's id (2^32 + 3 -> 3).
        for (field, from, to) in [
            ("domain", "\"domain\":3", "\"domain\":4294967299"),
            ("gateway", "\"gateway\":5", "\"gateway\":4294967301"),
            ("level", "\"level\":4", "\"level\":260"),
        ] {
            let err = BorderSummary::decode(&s.encode().replace(from, to)).unwrap_err();
            assert!(err.contains(field) && err.contains("out of range"), "{to}: {err}");
        }
    }

    #[test]
    fn border_cap_binds_the_domain_root_supply() {
        // A domain that believes in the moon (no loss anywhere) still may
        // not out-subscribe its border cap: the cap clamps the root slot
        // of stage 5 and the top-down supply pass carries it everywhere.
        let (tree, leaves) = tiny_domain_tree();
        let spec = LayerSpec::paper_default();
        let registry: Vec<(AppId, NodeId, SessionId)> =
            leaves.iter().enumerate().map(|(i, &n)| (AppId(i as u32), n, SessionId(0))).collect();
        let mut capped = AlgorithmState::new(Config::default(), 9);
        let mut free = AlgorithmState::new(Config::default(), 9);
        capped.set_border_caps(&[(SessionId(0), 2)]);
        let mut level = 1u8;
        let mut free_level = 1u8;
        for round in 1..=12u64 {
            let reports: Vec<ReceiverReport> = leaves
                .iter()
                .enumerate()
                .map(|(i, &node)| ReceiverReport {
                    receiver: AppId(i as u32),
                    node,
                    session: SessionId(0),
                    level,
                    received: 100,
                    lost: 0,
                    bytes: 25_000,
                })
                .collect();
            let trees = std::slice::from_ref(&tree);
            let specs = [&spec];
            let inputs = AlgorithmInputs {
                now: SimTime::from_secs(2 * round),
                interval: SimDuration::from_secs(2),
                trees,
                specs: &specs,
                registry: &registry,
                reports: &reports,
            };
            let out = capped.run_incremental(&inputs);
            assert!(out.root_supply[0] <= 2, "cap 2 violated: {}", out.root_supply[0]);
            assert!(out.suggestions.iter().all(|s| s.level <= 2));
            if let Some(s) = out.suggestions.first() {
                level = s.level;
            }
            let mut free_reports = reports.clone();
            for r in &mut free_reports {
                r.level = free_level;
            }
            let free_inputs = AlgorithmInputs { reports: &free_reports, ..inputs };
            let free_out = free.run_incremental(&free_inputs);
            if let Some(s) = free_out.suggestions.first() {
                free_level = s.level;
            }
        }
        assert!(
            free_level > 2,
            "uncapped twin must climb past the cap (got {free_level}) or the cap test is vacuous"
        );
        assert_eq!(level, 2, "capped domain settles exactly at the cap");
    }

    #[test]
    fn federation_interval_is_deterministic_and_counts() {
        let go = || {
            let domains: Vec<Domain> = (0..3).map(|i| tiny_domain(i, 7).0).collect();
            let leaves = tiny_domain(0, 7).1;
            let mut fed =
                Federation::new(Config::default(), 7, domains, LayerSpec::paper_default());
            let mut fps = Vec::new();
            for round in 1..=4u64 {
                let reports: Vec<Vec<ReceiverReport>> =
                    (0..3).map(|i| clean_reports(i, &leaves, 1)).collect();
                let out = fed.run_interval(
                    SimTime::from_secs(2 * round),
                    SimDuration::from_secs(2),
                    reports,
                );
                fps.push(out.fingerprint());
                // Interval n (from 0) ships one summary per domain, all
                // stamped with sequence number n.
                let seqs: Vec<u64> = out.summaries.iter().map(|s| s.seq).collect();
                assert_eq!(seqs, [round - 1; 3]);
            }
            fps
        };
        assert_eq!(go(), go(), "federation interval must be bit-reproducible");
    }
}
