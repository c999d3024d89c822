//! Differential coverage for the change-driven (incremental) pipeline of
//! DESIGN.md §11: `AlgorithmState::run_incremental` must reproduce
//! `AlgorithmState::run` byte for byte — suggestions, capacity estimates,
//! congestion counts and root supply — across randomized report churn,
//! membership churn (the cold-start fallback) and a large balanced domain.
//! The canned chaos plans through the full simulator are pinned by digest
//! in `tests/baselines.rs`.
//!
//! Comparisons are exact (`==` on floats included): the incremental path
//! promises identical arithmetic on the slots it recomputes and untouched
//! cached values everywhere else, not merely "close" results.

use netsim::{
    AppId, DirLinkId, GroupId, GroupSnapshot, NodeId, RngStream, SessionId, SimDuration, SimTime,
};
use proptest::prelude::*;
use telemetry::IntervalAudit;
use topology::discovery::{LinkView, TopologyView};
use topology::SessionTree;
use toposense::algorithm::{AlgorithmInputs, AlgorithmOutputs, AlgorithmState, ReceiverReport};
use toposense::checkpoint::BackoffEntry;
use toposense::Config;
use traffic::LayerSpec;

/// Build a session tree from a parent vector: node `i + 1` attaches under
/// node `parents[i] % (i + 1)` (same generator as `tests/differential.rs`).
fn session_tree(parents: &[usize], session: u32, link_offset: u32) -> SessionTree {
    let mut links = Vec::new();
    let mut active = Vec::new();
    for (i, &p) in parents.iter().enumerate() {
        let child = NodeId(i as u32 + 1);
        let parent = NodeId((p % (i + 1)) as u32);
        let id = DirLinkId(link_offset + i as u32);
        links.push(LinkView { id, from: parent, to: child });
        active.push(id);
    }
    let all: Vec<NodeId> = (0..=parents.len() as u32).map(NodeId).collect();
    let view = TopologyView {
        time: SimTime::ZERO,
        links,
        groups: vec![GroupSnapshot {
            group: GroupId(0),
            root: NodeId(0),
            active_links: active,
            member_nodes: all,
        }],
    };
    SessionTree::build(&view, SessionId(session), &[GroupId(0)]).unwrap()
}

fn leaf_receivers(tree: &SessionTree) -> Vec<NodeId> {
    tree.tree().leaves().filter(|&n| n != tree.tree().root()).collect()
}

fn reports_for(leaves: &[NodeId], session: u32) -> Vec<ReceiverReport> {
    leaves
        .iter()
        .enumerate()
        .map(|(i, &node)| ReceiverReport {
            receiver: AppId(500 + i as u32),
            node,
            session: SessionId(session),
            level: 3,
            received: 100,
            lost: 0,
            bytes: 25_000,
        })
        .collect()
}

fn registry_for(leaves: &[NodeId], session: u32) -> Vec<(AppId, NodeId, SessionId)> {
    leaves
        .iter()
        .enumerate()
        .map(|(i, &node)| (AppId(500 + i as u32), node, SessionId(session)))
        .collect()
}

/// Randomly perturb the report values in place: byte-counter drift, loss
/// toggles (which flip congestion labels and arm/expire backoffs; 25 % is
/// above `high_loss`, so a receiver below its supply aborts a probe) and
/// level changes. Keys are left alone so the incremental path stays on.
fn churn(reports: &mut [ReceiverReport], rng: &mut RngStream) {
    for r in reports.iter_mut() {
        let x = rng.f64();
        if x < 0.30 {
            r.bytes = 10_000 + (rng.f64() * 40_000.0) as u64;
        } else if x < 0.45 {
            r.lost = [0, 10, 25][(rng.f64() * 3.0) as usize];
            r.received = 100 - r.lost;
        } else if x < 0.55 {
            r.level = 1 + (rng.f64() * 5.0) as u8;
        }
    }
}

/// Next interval's reports carry the level the controller just suggested
/// (suggestions come out in registry order, so this is a straight zip).
fn follow_suggestions(out: &AlgorithmOutputs, reports: &mut [ReceiverReport]) {
    for (r, s) in reports.iter_mut().zip(&out.suggestions) {
        assert_eq!(r.receiver, s.receiver);
        r.level = s.level;
    }
}

fn inputs_at<'a>(
    now_secs: u64,
    trees: &'a [SessionTree],
    specs: &'a [&'a LayerSpec],
    registry: &'a [(AppId, NodeId, SessionId)],
    reports: &'a [ReceiverReport],
) -> AlgorithmInputs<'a> {
    AlgorithmInputs {
        now: SimTime::from_secs(now_secs),
        interval: SimDuration::from_secs(2),
        trees,
        specs,
        registry,
        reports,
    }
}

/// The round the report-churn twins are handed their root timer.
const ROOT_TIMER_ROUND: u64 = 4;

/// `state` as restored from its own checkpoint plus a session-0 backoff
/// timer for `level` at the root, live until `until`.
fn with_root_timer(state: &AlgorithmState, level: u8, until: SimTime) -> AlgorithmState {
    let mut snap = state.checkpoint();
    snap.backoffs.push(BackoffEntry {
        session: 0,
        node: 0,
        level,
        until_ns: Some(until.0),
        failures: 1,
    });
    AlgorithmState::restore(*state.config(), &snap).unwrap()
}

/// Field-wise byte-identity on everything except the diagnostics that are
/// *supposed* to differ (`incremental`, `slots_recomputed`).
macro_rules! assert_outputs_eq {
    ($assert:ident, $full:expr, $inc:expr, $ctx:expr) => {{
        let (a, b) = (&$full, &$inc);
        $assert!(a.suggestions == b.suggestions, "suggestions diverged at {}", $ctx);
        $assert!(a.estimated_links == b.estimated_links, "estimates diverged at {}", $ctx);
        $assert!(a.congested_nodes == b.congested_nodes, "congested count diverged at {}", $ctx);
        $assert!(a.root_supply == b.root_supply, "root supply diverged at {}", $ctx);
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Report churn only (stable keys, stable topology): after the first
    /// cache-priming interval every run must take the incremental path and
    /// still match a twin that recomputes everything. Mid-run both twins
    /// are handed a timer at the root (through a checkpoint, which starts
    /// that one round cold) that blocks `timer.0` for the whole tree and
    /// expires `timer.1` rounds later, warm. A third twin is audited on
    /// the rounds whose bit is set in `audit_mask` and must equal the
    /// never-audited one every round, path diagnostics included: watching
    /// a run changes nothing about it.
    #[test]
    fn incremental_matches_full_across_report_churn(
        parents in prop::collection::vec(0usize..12, 2..14),
        seed in 0u64..1000,
        timer in (2u8..=6, 1u64..6),
        audit_mask in 0u64..1 << 13,
    ) {
        let trees = vec![session_tree(&parents, 0, 0)];
        // Every non-root node hosts a receiver: an internal one folds its
        // own loss with its children's, so its state can move while its
        // reports do not.
        let t = trees[0].tree();
        let members: Vec<NodeId> = t.slots().skip(1).map(|s| t.node_at(s)).collect();
        let spec = LayerSpec::paper_default();
        let specs: Vec<&LayerSpec> = vec![&spec];
        let registry = registry_for(&members, 0);
        let mut reports = reports_for(&members, 0);
        let mut rng = RngStream::derive(seed, "incremental/churn");

        let mut full = AlgorithmState::new(Config::default(), seed);
        let mut inc = AlgorithmState::new(Config::default(), seed);
        let mut watched = AlgorithmState::new(Config::default(), seed);

        for round in 1..=12u64 {
            churn(&mut reports, &mut rng);
            if round == ROOT_TIMER_ROUND {
                let until = SimTime::from_secs(2 * (round + timer.1) - 1);
                full = with_root_timer(&full, timer.0, until);
                inc = with_root_timer(&inc, timer.0, until);
                watched = with_root_timer(&watched, timer.0, until);
            }
            let inputs = inputs_at(2 * round, &trees, &specs, &registry, &reports);
            let a = full.run(&inputs);
            let b = inc.run_incremental(&inputs);
            let mut record = IntervalAudit::new(round, 0);
            let audited = audit_mask >> round & 1 == 1;
            let c = watched.run_incremental_audited(&inputs, audited.then_some(&mut record));
            assert_outputs_eq!(prop_assert, a, b, format_args!("round {round}"));
            prop_assert!(b == c, "round {}: audited {}: {:?} != {:?}", round, audited, b, c);
            if audited {
                let filled = record.subscription.len() == 1 && record.stage_ns.len() == 6;
                prop_assert!(filled, "round {}: audit left unfilled", round);
            }
            let audit = inc.audit();
            prop_assert!(audit.is_ok(), "round {}: {:?}", round, audit);
            let audit = watched.audit();
            prop_assert!(audit.is_ok(), "round {}: watched: {:?}", round, audit);
            if round >= 2 && round != ROOT_TIMER_ROUND {
                prop_assert!(b.incremental, "round {} should be incremental", round);
            }
            // Some intervals the receivers obey the controller, so the
            // domain converges and clean (skippable) slots actually appear.
            if rng.f64() < 0.5 {
                follow_suggestions(&b, &mut reports);
            }
        }
    }

    /// Join/leave churn: receivers leave mid-run and later rejoin. The
    /// registry change must force a full-run fallback (the cached report
    /// → slot attribution no longer applies) and the outputs must stay
    /// identical through the transition — including the report-less
    /// subtrees the departures leave behind.
    #[test]
    fn incremental_matches_full_across_membership_churn(
        parents in prop::collection::vec(0usize..10, 4..12),
        seed in 0u64..500,
    ) {
        let trees = vec![session_tree(&parents, 0, 0)];
        let leaves = leaf_receivers(&trees[0]);
        let spec = LayerSpec::paper_default();
        let specs: Vec<&LayerSpec> = vec![&spec];
        let all_registry = registry_for(&leaves, 0);
        let all_reports = reports_for(&leaves, 0);
        // After the leave, only every other receiver remains: the pruned
        // half's subtrees go report-less.
        let half_registry: Vec<_> =
            all_registry.iter().step_by(2).copied().collect();
        let half_reports: Vec<_> =
            all_reports.iter().step_by(2).cloned().collect();
        let mut rng = RngStream::derive(seed, "incremental/membership");

        let mut full = AlgorithmState::new(Config::default(), seed);
        let mut inc = AlgorithmState::new(Config::default(), seed);

        for round in 1..=9u64 {
            let (registry, mut reports) = match round {
                1..=3 => (&all_registry, all_reports.clone()),
                4..=6 => (&half_registry, half_reports.clone()),
                _ => (&all_registry, all_reports.clone()),
            };
            churn(&mut reports, &mut rng);
            let inputs = inputs_at(2 * round, &trees, &specs, registry, &reports);
            let a = full.run(&inputs);
            let b = inc.run_incremental(&inputs);
            assert_outputs_eq!(prop_assert, a, b, format_args!("round {round}"));
            let audit = inc.audit();
            prop_assert!(audit.is_ok(), "round {}: {:?}", round, audit);
            match round {
                // Cache priming (1) and each membership flip (4, 7) must
                // fall back to the full path...
                1 | 4 | 7 => prop_assert!(
                    !b.incremental,
                    "round {} must fall back on membership change", round
                ),
                // ...and every steady round must be served incrementally.
                _ => prop_assert!(
                    b.incremental,
                    "round {} should be incremental", round
                ),
            }
        }
    }
}

/// A receiver can sit at an internal node, whose state's loss is the
/// minimum over its own reports and its children's, so the state moves
/// while the node's own reports repeat. Node 1 keeps reporting level 1
/// under 25 % loss, below what it is supplied, while one child's loss
/// toggles: its aborted-probe arming must follow the state, and the
/// audit checks the armable set after every interval.
#[test]
fn an_internal_receivers_aborted_probe_follows_its_childrens_loss() {
    let trees = vec![session_tree(&[0, 1, 1], 0, 0)];
    let members = [NodeId(1), NodeId(2), NodeId(3)];
    let spec = LayerSpec::paper_default();
    let specs: Vec<&LayerSpec> = vec![&spec];
    let registry = registry_for(&members, 0);
    let mut reports = reports_for(&members, 0);
    for r in &mut reports {
        (r.received, r.lost, r.bytes) = (75, 25, 60_000);
    }
    reports[0].level = 1;

    let mut full = AlgorithmState::new(Config::default(), 21);
    let mut inc = AlgorithmState::new(Config::default(), 21);
    let mut probes_at_1 = 0;
    for round in 1..=12u64 {
        let lost = if round % 2 == 0 { 0 } else { 25 };
        (reports[1].received, reports[1].lost) = (100 - lost, lost);
        let inputs = inputs_at(2 * round, &trees, &specs, &registry, &reports);
        let a = full.run(&inputs);
        let b = inc.run_incremental(&inputs);
        assert_outputs_eq!(assert, a, b, format_args!("round {round}"));
        assert_eq!(inc.audit(), Ok(()), "round {round}");
        assert_eq!(b.incremental, round > 1, "round {round}");
        let live = |e: &BackoffEntry| e.until_ns.is_some_and(|u| u > inputs.now.0);
        probes_at_1 += inc.checkpoint().backoffs.iter().filter(|e| e.node == 1 && live(e)).count();
    }
    assert!(probes_at_1 > 0, "node 1 never aborted a probe");
}

/// The entry pass writes each moved report row back into the carry as it
/// goes, so a key change partway through leaves a half-written carry
/// behind. Rows before the middle move value and the middle row swaps in
/// another receiver (same node, same registry): that run must start cold
/// and equal its twin, and the next one, over the same keys, must be warm
/// and equal again — which it is only if the cold run rewrote every
/// carried row.
#[test]
fn a_key_change_partway_through_the_report_pass_starts_cold() {
    use scenarios::largetree::{balanced_session_tree, registry_for_leaves, reports_for_leaves};

    let (tree, leaves) = balanced_session_tree(0, 4, 3);
    let trees = vec![tree];
    let spec = LayerSpec::paper_default();
    let specs: Vec<&LayerSpec> = vec![&spec];
    let registry = registry_for_leaves(0, &leaves);
    let mut reports = reports_for_leaves(0, &leaves, 3, 5);
    let mid = reports.len() / 2;

    let mut full = AlgorithmState::new(Config::default(), 13);
    let mut inc = AlgorithmState::new(Config::default(), 13);
    for round in 1..=6u64 {
        match round {
            4 => {
                reports[..mid].iter_mut().for_each(|r| r.bytes += 1_000);
                reports[mid].receiver = AppId(9_999);
            }
            5 | 6 => reports[mid..].iter_mut().for_each(|r| r.bytes += 500),
            _ => {}
        }
        let inputs = inputs_at(2 * round, &trees, &specs, &registry, &reports);
        let a = full.run(&inputs);
        let b = inc.run_incremental(&inputs);
        assert_outputs_eq!(assert, a, b, format_args!("round {round}"));
        assert_eq!(inc.audit(), Ok(()), "round {round}");
        assert_eq!(b.incremental, round != 1 && round != 4, "round {round}");
    }
}

/// Large-tree smoke test: an 11,111-slot balanced domain (fanout 10,
/// depth 4 — 10,000 receivers) under 1 % report churn. Incremental and
/// full twins must agree byte for byte every interval, and once the
/// domain converges the incremental path must recompute far fewer slots
/// than the full path touches.
#[test]
fn large_tree_smoke_incremental_matches_full() {
    use scenarios::largetree::{
        balanced_session_tree, churn_fraction, registry_for_leaves, reports_for_leaves,
    };

    let (tree, leaves) = balanced_session_tree(0, 10, 4);
    let trees = vec![tree];
    let spec = LayerSpec::paper_default();
    let specs: Vec<&LayerSpec> = vec![&spec];
    let registry = registry_for_leaves(0, &leaves);
    let mut reports = reports_for_leaves(0, &leaves, 3, 0);

    let mut full = AlgorithmState::new(Config::default(), 7);
    let mut inc = AlgorithmState::new(Config::default(), 7);

    let mut t = 0u64;
    for round in 1..=24u64 {
        t += 2;
        churn_fraction(&mut reports, 0.01, t);
        let inputs = inputs_at(t, &trees, &specs, &registry, &reports);
        let a = full.run(&inputs);
        let b = inc.run_incremental(&inputs);
        assert_outputs_eq!(assert, a, b, format_args!("round {round}"));
        assert_eq!(inc.audit(), Ok(()), "round {round}");
        if round >= 2 {
            assert!(b.incremental, "round {round} should be incremental");
        }
        // Past warm-up the domain has converged and only the churned 1 %
        // (plus their ancestor paths) should be recomputed.
        if round >= 14 {
            assert!(
                b.slots_recomputed * 4 < a.slots_recomputed,
                "round {round}: incremental recomputed {} slots vs {} on the full path",
                b.slots_recomputed,
                a.slots_recomputed
            );
        }
        follow_suggestions(&b, &mut reports);
    }
}
