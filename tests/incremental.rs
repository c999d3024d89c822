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

use netsim::rng::check;
use netsim::{AppId, DirLinkId, GroupId, GroupSnapshot, NodeId, RngStream, SessionId, SimTime};
use std::collections::BTreeSet;
use telemetry::IntervalAudit;
use topology::discovery::{LinkView, TopologyView};
use topology::SessionTree;
use toposense::algorithm::{AlgorithmOutputs, AlgorithmState, ReceiverReport};
use toposense::checkpoint::BackoffEntry;
use toposense::Config;
use traffic::LayerSpec;

mod trees;
use trees::{assert_outputs_eq, inputs_at, leaf_receivers, registry_for, session_tree};

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
fn incremental_matches_full_across_report_churn() {
    check("incremental_matches_full_across_report_churn", 48, |g| {
        let len = g.range_u64(2, 14) as usize;
        let parents = trees::parents(g, len);
        let seed = g.range_u64(0, 1000);
        let timer = (g.range_u64(2, 7) as u8, g.range_u64(1, 6));
        let audit_mask = g.range_u64(0, 1 << 13);
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
            let at = format!("round {round}, parents {parents:?}, seed {seed}, timer {timer:?}");
            assert_outputs_eq(&a, &b, &at);
            assert!(b == c, "{at}: audited {audited}: {b:?} != {c:?}");
            if audited {
                let filled = record.subscription.len() == 1 && record.stage_ns.len() == 6;
                assert!(filled, "{at}: audit left unfilled");
            }
            let audit = inc.audit();
            assert!(audit.is_ok(), "{at}: {audit:?}");
            let audit = watched.audit();
            assert!(audit.is_ok(), "{at}: watched: {audit:?}");
            if round >= 2 && round != ROOT_TIMER_ROUND {
                assert!(b.incremental, "{at}: should be incremental");
            }
            // Some intervals the receivers obey the controller, so the
            // domain converges and clean (skippable) slots actually appear.
            if rng.f64() < 0.5 {
                follow_suggestions(&b, &mut reports);
            }
        }
    });
}

/// Session `session` over the undirected tree of `parents` (edge `i`
/// joins `parents[i]` to node `i + 1`; its halves are links `2i`, away
/// from node 0, and `2i + 1`), sourced at `root` and spanning the paths
/// from it to `members`. Sessions whose paths cross an edge the same way
/// share that link; sessions from different sources can share a link and
/// part on either side of it.
fn spanning_session(parents: &[usize], session: u32, root: u32, members: &[NodeId]) -> SessionTree {
    let mut links = Vec::new();
    for (i, &p) in parents.iter().enumerate() {
        let (p, c, id) = (NodeId(p as u32), NodeId(i as u32 + 1), 2 * i as u32);
        links.push(LinkView { id: DirLinkId(id), from: p, to: c });
        links.push(LinkView { id: DirLinkId(id + 1), from: c, to: p });
    }
    // Each node's link on its path from the root, by a walk from the root.
    let mut via: Vec<Option<&LinkView>> = vec![None; parents.len() + 1];
    let mut stack = vec![NodeId(root)];
    while let Some(v) = stack.pop() {
        for l in &links {
            if l.from == v && l.to != NodeId(root) && via[l.to.0 as usize].is_none() {
                via[l.to.0 as usize] = Some(l);
                stack.push(l.to);
            }
        }
    }
    let mut active = Vec::new();
    for m in members {
        let mut v = m.0 as usize;
        while let Some(l) = via[v].filter(|l| !active.contains(&l.id)) {
            active.push(l.id);
            v = l.from.0 as usize;
        }
    }
    let group = GroupSnapshot {
        group: GroupId(session),
        root: NodeId(root),
        active_links: active,
        member_nodes: members.to_vec(),
    };
    let view = TopologyView { time: SimTime::ZERO, links, groups: vec![group] };
    SessionTree::build(&view, SessionId(session), &[GroupId(session)]).unwrap()
}

/// One round's reports for one session: lossy (a link all its sessions
/// lose on learns an estimate, and a lossy link whose bytes repeat keeps
/// its estimate bit for bit), clean (estimates creep), silent (no bytes:
/// estimates hold), or per-receiver [`churn`]. Outside churn, a
/// receiver's bytes are its own fixed rate.
fn session_round(reports: &mut [ReceiverReport], rng: &mut RngStream) {
    let mode = rng.f64();
    for r in reports.iter_mut() {
        let bytes = 20_000 + u64::from(r.receiver.0 % 7) * 3_000;
        (r.received, r.lost, r.bytes) = match mode {
            x if x < 0.3 => (80, 20, bytes),
            x if x < 0.55 => (100, 0, bytes),
            x if x < 0.85 => (0, 0, 0),
            _ => (r.received, r.lost, r.bytes),
        };
    }
    if mode >= 0.85 {
        churn(reports, rng);
    }
}

/// Two to four sessions over one random tree, in pairs, each pair sourced
/// and spanning members inside one subtree: some links carry several
/// sessions, some one, and two pairs in disjoint subtrees share nothing.
/// Every round each session's reports turn lossy, clean, silent or
/// churned, so the estimates on shared links learn, creep and hold. Stage
/// 4's warm step then recomputes the shares of every link the sessions
/// crossing a moved estimate cross, and keeps the rest, which takes a
/// second pair to see. The warm twin must equal the cold one every round,
/// outputs and stage-4 shares alike, and pass its audit. Across the cases
/// every one of those estimator events occurs, and many warm steps run,
/// some of them keeping a share.
#[test]
fn several_sessions_on_shared_links_match_full_every_round() {
    let (mut events, mut steps, mut kept_steps) = (BTreeSet::new(), 0, 0);
    check("several_sessions_on_shared_links_match_full_every_round", 192, |g| {
        let len = g.range_u64(6, 24) as usize;
        let parents = trees::parents(g, len);
        let seed = g.range_u64(0, 1000);
        let specs = [LayerSpec::paper_default(), LayerSpec::doubling(48_000.0, 5)];
        let mut inner = parents.clone();
        inner.sort_unstable();
        inner.dedup();
        let (mut trees, mut spec_of, mut registry) = (Vec::new(), Vec::new(), Vec::new());
        let mut area = Vec::new();
        for k in 0..g.range_u64(2, 5) as u32 {
            // Sessions come in pairs, each pair in the subtree of a node
            // with children: source and members lie in it, so two pairs
            // in disjoint subtrees share no link. A node's parent has a
            // lower id, so one pass marks the subtree.
            if k % 2 == 0 {
                let top = inner[g.range_u64(0, inner.len() as u64) as usize];
                area = vec![top];
                for v in top + 1..=len {
                    if area.contains(&parents[v - 1]) {
                        area.push(v);
                    }
                }
            }
            let root = area[g.range_u64(0, area.len() as u64) as usize] as u32;
            let others: Vec<NodeId> =
                area.iter().map(|&v| NodeId(v as u32)).filter(|&v| v != NodeId(root)).collect();
            let mut members: Vec<NodeId> =
                others.iter().copied().filter(|_| g.f64() < 0.6).collect();
            if members.is_empty() {
                members.push(others[0]);
            }
            trees.push(spanning_session(&parents, k, root, &members));
            spec_of.push(&specs[g.range_u64(0, 2) as usize]);
            registry.extend(members.iter().map(|&n| (AppId(100 * k + n.0), n, SessionId(k))));
        }
        let mut reports: Vec<ReceiverReport> = (registry.iter())
            .map(|&(receiver, node, session)| ReceiverReport {
                receiver,
                node,
                session,
                level: 3,
                received: 100,
                lost: 0,
                bytes: 25_000,
            })
            .collect();
        let mut rng = RngStream::derive(seed, "incremental/shared");
        let mut full = AlgorithmState::new(Config::default(), seed);
        let mut inc = AlgorithmState::new(Config::default(), seed);
        let mut last_estimates = Vec::new();
        for round in 1..=16u64 {
            for session in reports.chunk_by_mut(|a, b| a.session == b.session) {
                session_round(session, &mut rng);
            }
            let inputs = inputs_at(2 * round, &trees, &spec_of, &registry, &reports);
            let (mut ra, mut rb) = (IntervalAudit::new(round, 0), IntervalAudit::new(round, 0));
            full.invalidate();
            let a = full.run_incremental_audited(&inputs, Some(&mut ra));
            let b = inc.run_incremental_audited(&inputs, Some(&mut rb));
            let at = format!("round {round}, parents {parents:?}, seed {seed}");
            assert_outputs_eq(&a, &b, &at);
            assert!(ra.sharing == rb.sharing, "{at}: shares {:?} != {:?}", ra.sharing, rb.sharing);
            let audit = inc.audit();
            assert!(audit.is_ok(), "{at}: {audit:?}");
            events.extend(rb.capacity.iter().map(|c| c.event.clone()));
            // A warm step recomputes the sessions crossing a link whose
            // estimate moved, and keeps the shares of links none crosses.
            let bits = |v: &[(DirLinkId, f64)]| -> BTreeSet<(DirLinkId, u64)> {
                v.iter().map(|&(l, c)| (l, c.to_bits())).collect()
            };
            let (old, new) = (bits(&last_estimates), bits(&b.estimated_links));
            let moved: Vec<DirLinkId> = old.symmetric_difference(&new).map(|&(l, _)| l).collect();
            let crosses =
                |t: &SessionTree| (1..t.tree().len()).any(|s| moved.contains(&t.in_link_at(s)));
            let stale: Vec<u64> =
                (0..trees.len() as u64).filter(|&k| crosses(&trees[k as usize])).collect();
            if b.incremental && !stale.is_empty() {
                let mut links = rb.sharing.chunk_by(|x, y| x.link == y.link);
                let kept = links.any(|rows| rows.iter().all(|e| !stale.contains(&e.session)));
                (steps, kept_steps) = (steps + 1, kept_steps + usize::from(kept));
            }
            last_estimates.clone_from(&b.estimated_links);
            if rng.f64() < 0.5 {
                follow_suggestions(&b, &mut reports);
            }
        }
    });
    for event in ["learned", "crept", "held"] {
        assert!(events.contains(event), "no estimate was ever {event}: {events:?}");
    }
    // The property cases are fixed: 1,336 warm steps, 19 of them keeping
    // a share, when this was written.
    assert!(steps >= 600 && kept_steps >= 10, "{steps} warm steps, {kept_steps} keeping a share");
}

/// Join/leave churn: receivers leave mid-run and later rejoin. A
/// registry change must force a full-run fallback (the cached report →
/// slot attribution no longer applies), a repeated registry must be
/// served warm, and the outputs must stay identical through the
/// transition — including the report-less subtrees the departures leave
/// behind. With one leaf the half registry is the full one, so nothing
/// changes and only round 1 is cold.
#[test]
fn incremental_matches_full_across_membership_churn() {
    check("incremental_matches_full_across_membership_churn", 48, |g| {
        let len = g.range_u64(4, 12) as usize;
        let parents = trees::parents(g, len);
        let seed = g.range_u64(0, 500);
        let trees = vec![session_tree(&parents, 0, 0)];
        let leaves = leaf_receivers(&trees[0]);
        let spec = LayerSpec::paper_default();
        let specs: Vec<&LayerSpec> = vec![&spec];
        let all_registry = registry_for(&leaves, 0);
        let all_reports = reports_for(&leaves, 0);
        // After the leave, only every other receiver remains: the pruned
        // half's subtrees go report-less.
        let half_registry: Vec<_> = all_registry.iter().step_by(2).copied().collect();
        let half_reports: Vec<_> = all_reports.iter().step_by(2).cloned().collect();
        let mut rng = RngStream::derive(seed, "incremental/membership");

        let mut full = AlgorithmState::new(Config::default(), seed);
        let mut inc = AlgorithmState::new(Config::default(), seed);
        let mut previous = None;

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
            let at = format!("round {round}, parents {parents:?}, seed {seed}");
            assert_outputs_eq(&a, &b, &at);
            let audit = inc.audit();
            assert!(audit.is_ok(), "{at}: {audit:?}");
            // Cold exactly on cache priming and on a membership change.
            let cold = previous != Some(registry);
            assert_eq!(b.incremental, !cold, "{at}: expected cold: {cold}");
            previous = Some(registry);
        }
    });
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
        assert_outputs_eq(&a, &b, format_args!("round {round}"));
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
        assert_outputs_eq(&a, &b, format_args!("round {round}"));
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
        assert_outputs_eq(&a, &b, format_args!("round {round}"));
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
