//! Coverage for the primary/standby replication protocol (DESIGN.md §14).
//!
//! Pipeline level, over plain `AlgorithmState` twins: a single flipped
//! state bit surfaces in the next interval's output fingerprint — what the
//! primary cross-checks on every replica ack — and checkpoint → encode →
//! decode → restore → resume is byte-identical to an uninterrupted run,
//! for the full and the change-driven pipeline alike. Wire level, over the
//! simulator: the warm standby stays input-synced and takes over inside the
//! heartbeat bound, its `first_steer_at` fold agrees with the trail's
//! first post-takeover `decide` hop, and a partitioned standby rejoins
//! through a `CheckpointTransfer`. (The primary's verdict on a divergent
//! ack is pinned in `controller.rs`'s own tests.)
//!
//! Comparisons are exact (`==` on floats included), same contract as
//! `tests/incremental.rs`.

use netsim::rng::check;
use netsim::{AppId, NodeId, RngStream, SessionId};
use telemetry::{Record, Telemetry};
use toposense::algorithm::{AlgorithmState, ReceiverReport};
use toposense::{fingerprint_outputs, Config, Snapshot};
use traffic::LayerSpec;

mod trees;
use trees::{assert_outputs_eq, inputs_at, leaf_receivers, registry_for, session_tree};

fn reports_for(leaves: &[NodeId]) -> Vec<ReceiverReport> {
    leaves
        .iter()
        .enumerate()
        .map(|(i, &node)| ReceiverReport {
            receiver: AppId(500 + i as u32),
            node,
            session: SessionId(0),
            level: 3,
            // Every other receiver starts lossy so congestion histories
            // carry information from the first interval on.
            received: if i % 2 == 0 { 100 } else { 90 },
            lost: if i % 2 == 0 { 0 } else { 10 },
            bytes: 25_000,
        })
        .collect()
}

/// Randomly perturb report values in place (keys stay stable).
fn churn(reports: &mut [ReceiverReport], rng: &mut RngStream) {
    for r in reports.iter_mut() {
        let x = rng.f64();
        if x < 0.30 {
            r.bytes = 10_000 + (rng.f64() * 40_000.0) as u64;
        } else if x < 0.50 {
            let lossy = rng.f64() < 0.5;
            r.received = if lossy { 90 } else { 100 };
            r.lost = if lossy { 10 } else { 0 };
        } else if x < 0.60 {
            r.level = 1 + (rng.f64() * 5.0) as u8;
        }
    }
}

/// A single silent bit flip in the capacity-estimate table surfaces in the
/// very next interval's output fingerprint — the cross-check the wire
/// protocol runs on every replica ack (DESIGN.md §14) — while a twin
/// restored from the clean checkpoint carries on as if nothing happened.
/// Two sessions share the tree: capacities are only learned for shared
/// links.
#[test]
fn flipped_estimate_bit_surfaces_in_the_next_fingerprint() {
    let parents = [0usize, 0, 1, 2, 2, 3];
    let trees = vec![session_tree(&parents, 0, 0), session_tree(&parents, 1, 0)];
    let leaves = leaf_receivers(&trees[0]);
    let spec = LayerSpec::paper_default();
    let specs: Vec<&LayerSpec> = vec![&spec, &spec];
    let mut reports = reports_for(&leaves);
    let twins = reports_for(&leaves).into_iter();
    reports.extend(twins.map(|r| ReceiverReport {
        receiver: AppId(r.receiver.0 + 100),
        session: SessionId(1),
        ..r
    }));
    let registry: Vec<_> = reports.iter().map(|r| (r.receiver, r.node, r.session)).collect();
    let mut rng = RngStream::derive(23, "replication/bitflip");

    let cfg = Config::default();
    let mut uninterrupted = AlgorithmState::new(cfg, 23);
    for round in 1..=4u64 {
        churn(&mut reports, &mut rng);
        uninterrupted.run_incremental(&inputs_at(2 * round, &trees, &specs, &registry, &reports));
    }

    let clean = uninterrupted.checkpoint();
    let mut flipped = clean.clone();
    flipped.estimates.first_mut().expect("four intervals learn an estimate").capacity_bits ^=
        1 << 52;
    let mut healthy = AlgorithmState::restore(cfg, &clean).expect("same-config restore");
    let mut corrupted = AlgorithmState::restore(cfg, &flipped).expect("same-config restore");

    churn(&mut reports, &mut rng);
    let inputs = inputs_at(10, &trees, &specs, &registry, &reports);
    let want = uninterrupted.run_incremental(&inputs);
    let good = healthy.run_incremental(&inputs);
    let bad = corrupted.run_incremental(&inputs);
    assert_outputs_eq(&want, &good, "the clean twin");
    assert_eq!(fingerprint_outputs(&good), fingerprint_outputs(&want));
    assert_ne!(
        fingerprint_outputs(&bad),
        fingerprint_outputs(&good),
        "the flip must surface in the first interval after it"
    );
}

/// checkpoint → encode → decode → restore → resume is byte-identical
/// to the uninterrupted twin, wherever the cut lands, with or without
/// membership churn mid-stream.
#[test]
fn checkpoint_restore_resume_matches_uninterrupted_twin() {
    check("checkpoint_restore_resume_matches_uninterrupted_twin", 32, |g| {
        let len = g.range_u64(3, 12) as usize;
        let parents = trees::parents(g, len);
        let seed = g.range_u64(0, 500);
        let cut = g.range_u64(1, 7);
        let member_churn = g.chance(0.5);
        let trees = vec![session_tree(&parents, 0, 0)];
        let leaves = leaf_receivers(&trees[0]);
        let spec = LayerSpec::paper_default();
        let specs: Vec<&LayerSpec> = vec![&spec];
        let all_registry = registry_for(&leaves, 0);
        let all_reports = reports_for(&leaves);
        let half_registry: Vec<_> = all_registry.iter().step_by(2).copied().collect();
        let half_reports: Vec<_> = all_reports.iter().step_by(2).cloned().collect();
        let mut rng = RngStream::derive(seed, "replication/ckpt-resume");
        let cfg = Config::default();

        let mut uninterrupted = AlgorithmState::new(cfg, seed);
        let mut resumed = AlgorithmState::new(cfg, seed);

        for round in 1..=10u64 {
            // Membership churn mid-stream exercises the cold-start fallback
            // (and a checkpoint cut right on the flip boundary).
            let (registry, mut reports) = if member_churn && (5..=7).contains(&round) {
                (&half_registry, half_reports.clone())
            } else {
                (&all_registry, all_reports.clone())
            };
            churn(&mut reports, &mut rng);
            let inputs = inputs_at(2 * round, &trees, &specs, registry, &reports);
            let a = uninterrupted.run_incremental(&inputs);
            let b = resumed.run_incremental(&inputs);
            let at =
                format!("round {round} (cut {cut}), churn {member_churn}, parents {parents:?}");
            assert_outputs_eq(&a, &b, &at);

            if round == cut {
                // Interrupt the twin: serialize, parse, restore.
                let snap = resumed.checkpoint();
                let blob = snap.encode();
                let parsed = Snapshot::decode(&blob).expect("canonical blob parses");
                assert!(parsed == snap, "{at}: JSON round-trip must be the identity");
                resumed = AlgorithmState::restore(cfg, &parsed).expect("same-config restore");
                assert!(resumed.runs() == round, "{at}: restore must resume at the cut");
            }
        }
    });
}

/// The checkpoint is config-bound: restoring under a different Config
/// is refused instead of silently misinterpreting the state.
#[test]
fn restore_refuses_a_foreign_config() {
    check("restore_refuses_a_foreign_config", 32, |g| {
        let seed = g.range_u64(0, 200);
        let state = AlgorithmState::new(Config::default(), seed);
        let snap = state.checkpoint();
        let other = Config { capacity_creep: 2.0, ..Config::default() };
        assert!(AlgorithmState::restore(other, &snap).is_err(), "seed {seed}");
    });
}

// ---------------------------------------------------------------- wire level

/// End-to-end over the simulator: with replication on (the default), the
/// warm standby applies the primary's input batches, acks fingerprints,
/// and takes over inside the heartbeat bound when the primary dies
/// mid-interval.
#[test]
fn wire_failover_standby_is_input_synced_and_takes_over_in_bound() {
    let (scenario, crash_at) = scenarios::chaos::primary_crash_mid_interval(5);
    let cfg = scenario.cfg;
    let (tel, trail) = Telemetry::memory();
    let r = scenarios::run(&scenario.with_telemetry(tel));

    let ctrl = r.controller.as_ref().expect("primary stats");
    let standby = r.standby.as_ref().expect("standby stats");

    // Before the crash the pair ran the replication protocol for real.
    assert!(standby.replica_applied > 0, "standby never applied a batch");
    assert!(ctrl.replica_acks > 0, "primary never saw a matching ack");
    assert_eq!(ctrl.replica_divergences, 0);
    assert!(!ctrl.replica_quarantined);

    // Takeover within failover_after + one interval of the mid-interval
    // crash (heartbeat silence is only observable at the next check).
    let at = standby.failover_at.expect("standby must take over");
    let bound = cfg.failover_after() + cfg.interval;
    assert!(
        at.since(crash_at) <= bound,
        "takeover at {at:?} missed the bound {bound:?} after the {crash_at:?} crash"
    );

    // The promoted standby kept steering: its own first interval followed
    // within one control interval of the takeover.
    let first_steer = standby.first_steer_at.expect("promoted standby never sent a suggestion");
    assert!(
        first_steer.since(at) <= cfg.interval,
        "first post-takeover steer at {first_steer:?} is later than one interval after {at:?}"
    );
    // The fold agrees with the trail: the first `decide` hop at or after
    // the takeover is the standby's, stamped with that same interval.
    let first_decide = trail.records().iter().find_map(|r| match r {
        Record::Trace { phase, t_ns, .. } if phase == "decide" && *t_ns >= at.nanos() => {
            Some(*t_ns)
        }
        _ => None,
    });
    assert_eq!(first_decide, Some(first_steer.nanos()));
}

/// End-to-end over the simulator: a partitioned standby misses batches and
/// rejoins through a `CheckpointTransfer` when its uplink heals.
#[test]
fn wire_partitioned_standby_resyncs_via_checkpoint_transfer() {
    let (scenario, _heal) = scenarios::chaos::replica_partition(3);
    let r = scenarios::run(&scenario);

    let ctrl = r.controller.as_ref().expect("primary stats");
    let standby = r.standby.as_ref().expect("standby stats");

    assert!(standby.replica_applied > 0, "standby applied batches before/after the partition");
    assert!(ctrl.replica_resyncs > 0, "primary never served a checkpoint resync");
    assert!(standby.replica_resyncs > 0, "standby never applied a checkpoint resync");
    assert_eq!(ctrl.replica_divergences, 0, "a resynced replica must not diverge");
    assert!(!ctrl.replica_quarantined);
}
