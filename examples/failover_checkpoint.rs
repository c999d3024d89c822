//! Failover and checkpoint/restore in one sitting.
//!
//! ```text
//! cargo run --release --example failover_checkpoint [ckpt.json]
//! ```
//!
//! Failover: the shipped primary/standby pair runs
//! `chaos::primary_crash_mid_interval`, and the input-synced standby takes
//! over. Checkpoint: one [`AlgorithmState`] runs twelve intervals, its
//! round-6 `toposense.checkpoint.v1` file is written (to the path argument,
//! else a temp file, for `inspect snapshot` to read), read back and
//! restored, and the restored state replays rounds 7–12 — panicking unless
//! every fingerprint equals the uninterrupted run's.

use netsim::{
    AppId, DirLinkId, GroupId, GroupSnapshot, NodeId, RngStream, SessionId, SimDuration, SimTime,
};
use topology::discovery::{LinkView, TopologyView};
use topology::SessionTree;
use toposense::algorithm::{AlgorithmInputs, AlgorithmState, ReceiverReport};
use toposense::{fingerprint_outputs, Config, Snapshot};
use traffic::LayerSpec;

const ROUNDS: u64 = 12;
const CHECKPOINT_ROUND: u64 = 6;

/// A 9-node session tree: root 0, two routers, six leaf receivers.
fn demo_tree() -> SessionTree {
    let parents = [0u32, 0, 1, 1, 2, 2, 3, 3];
    let mut links = Vec::new();
    let mut active = Vec::new();
    for (i, &p) in parents.iter().enumerate() {
        let id = DirLinkId(i as u32);
        links.push(LinkView { id, from: NodeId(p), to: NodeId(i as u32 + 1) });
        active.push(id);
    }
    let members: Vec<NodeId> = (0..=parents.len() as u32).map(NodeId).collect();
    let view = TopologyView {
        time: SimTime::ZERO,
        links,
        groups: vec![GroupSnapshot {
            group: GroupId(0),
            root: NodeId(0),
            active_links: active,
            member_nodes: members,
        }],
    };
    SessionTree::build(&view, SessionId(0), &[GroupId(0)]).unwrap()
}

fn main() {
    failover();
    checkpoint_replay();
}

/// The primary crashes mid-interval; the standby takes over from its own
/// replicated state and keeps steering.
fn failover() {
    let (scenario, crash_at) = scenarios::chaos::primary_crash_mid_interval(5);
    let standby = scenarios::run(&scenario).standby.expect("the scenario runs a standby");
    let at = standby.failover_at.expect("the standby takes over");
    println!(
        "failover: primary crashed @{crash_at} s; standby applied {} replicated batches, \
         took over @{at} s, first steer @{}",
        standby.replica_applied,
        standby.first_steer_at.expect("the promoted standby steers")
    );
}

/// Checkpoint at round 6 through a file, restore, and replay the tail.
fn checkpoint_replay() {
    let cfg = Config::default();
    let tree = demo_tree();
    let leaves: Vec<NodeId> = tree.tree().leaves().filter(|&n| n != tree.tree().root()).collect();
    let spec = LayerSpec::paper_default();
    let trees = [tree];
    let specs = [&spec];
    let mut reports: Vec<ReceiverReport> = leaves
        .iter()
        .enumerate()
        .map(|(i, &node)| ReceiverReport {
            receiver: AppId(100 + i as u32),
            node,
            session: SessionId(0),
            level: 3,
            received: if i % 2 == 0 { 100 } else { 92 },
            lost: if i % 2 == 0 { 0 } else { 8 },
            bytes: 30_000,
        })
        .collect();
    let registry: Vec<(AppId, NodeId, SessionId)> =
        reports.iter().map(|r| (r.receiver, r.node, r.session)).collect();
    // Each round's reports, jittered a little so the pipeline has work to
    // do; the replay feeds the restored state the very same batches.
    let mut rng = RngStream::derive(7, "failover-checkpoint/churn");
    let batches: Vec<Vec<ReceiverReport>> = (1..=ROUNDS)
        .map(|_| {
            for r in reports.iter_mut() {
                if rng.f64() < 0.3 {
                    r.bytes = 15_000 + (rng.f64() * 30_000.0) as u64;
                }
            }
            reports.clone()
        })
        .collect();
    let inputs = |round: u64| AlgorithmInputs {
        now: SimTime::from_secs(2 * round),
        interval: SimDuration::from_secs(2),
        trees: &trees,
        specs: &specs,
        registry: &registry,
        reports: &batches[round as usize - 1],
    };

    println!("checkpoint: {ROUNDS} intervals, checkpoint @{CHECKPOINT_ROUND}:");
    let path = std::env::args().nth(1).map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("toposense-ckpt-{}.json", std::process::id()))
    });
    let mut state = AlgorithmState::new(cfg, 7);
    let mut fingerprints = Vec::new();
    for round in 1..=ROUNDS {
        let out = state.run_incremental(&inputs(round));
        let levels: Vec<u8> = out.suggestions.iter().map(|s| s.level).collect();
        let fingerprint = fingerprint_outputs(&out);
        println!("  @{round}: suggestions={levels:?} fingerprint={fingerprint:#018x}");
        fingerprints.push(fingerprint);
        if round == CHECKPOINT_ROUND {
            // Non-invalidating capture: the next interval stays on the
            // incremental path.
            state.checkpoint().save(&path).expect("write checkpoint");
        }
    }

    // The checkpoint file: canonical JSON, validated on load.
    let loaded = Snapshot::load(&path).expect("re-load checkpoint");
    println!("checkpoint file: {} ({} bytes)", path.display(), loaded.encode().len());
    print!("{}", loaded.summary());

    // Restore and replay the tail: zero re-learning (DESIGN.md §14) means
    // every interval lands on the uninterrupted run's fingerprint.
    let mut restored = AlgorithmState::restore(cfg, &loaded).expect("config fingerprints match");
    assert_eq!(restored.runs(), CHECKPOINT_ROUND, "restore resumes at the cut");
    for round in CHECKPOINT_ROUND + 1..=ROUNDS {
        let replayed = fingerprint_outputs(&restored.run_incremental(&inputs(round)));
        assert_eq!(replayed, fingerprints[round as usize - 1], "replay diverged @{round}");
    }
    println!("restored @{CHECKPOINT_ROUND}, replayed to @{ROUNDS}: every fingerprint matches");
}
