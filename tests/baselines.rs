//! Pinned behavior baselines — THE one place to re-baseline.
//!
//! Every entry is an FNV-1a digest of a canned run's deterministic
//! fingerprint. The digests change whenever simulation behavior changes —
//! including *intentional* changes like a new seed-derivation scheme (the
//! splitmix64 stream deriver replaced the old XOR folds here) or a
//! controller-stage fix. That is the point: a PR that shifts behavior must
//! update `BASELINES` below, in this file and nowhere else, and the diff
//! makes the behavioral change explicit in review.
//!
//! To re-baseline after an intentional change, run:
//!
//! ```text
//! cargo test --test baselines -- --nocapture
//! ```
//!
//! and copy the `("name", 0x...)` lines the failing test prints into the
//! `BASELINES` table.

use netsim::rng::fnv1a;
use netsim::SimDuration;
use netsim::SimTime;
use scenarios::largetree::{
    balanced_session_tree, churn_fraction, federated_domains, registry_for_leaves,
    reports_behind_border, reports_for_leaves,
};
use scenarios::{chaos, runner, ControlMode, Scenario};
use topology::generators;
use toposense::algorithm::{AlgorithmInputs, AlgorithmState, ReceiverReport};
use toposense::federation::Federation;
use traffic::{LayerSpec, TrafficModel};

/// (name, FNV-1a 64 digest of the canned fingerprint).
const BASELINES: &[(&str, u64)] = &[
    ("chaos/link_flap/s1", 0x945c6a287dd5f7a7),
    // The three node-crash plans re-pinned for PR 10: arrivals into a dead
    // node now count as down-drops on the feeding link (owning-shard drop
    // attribution, DESIGN.md §17), which moves total_drops. Link-only
    // plans are untouched.
    ("chaos/router_crash/s1", 0x984db0a1753b6307),
    ("chaos/discovery_outage/s1", 0xd0db415f3085ed08),
    ("chaos/controller_failover/s1", 0x6dbf784d8a3495b0),
    ("chaos/random_chaos/s7", 0x4f2ff4298cd6a333),
    ("incremental/diurnal_1k/s1", 0x9a6a1869cc0331fe),
    ("federation/border_aggregation/s1", 0x6cc9e582868478ea),
    // The two controller-less contenders: what moves these and the
    // chaos digests together moved the shared `Subscriber` core.
    ("baselines/rlm/s1", 0xf2ea759ca8bc9ec9),
    ("baselines/fixed/s1", 0x6c50a4ddffd3f891),
];

/// Digest of a canned incremental drive: 1k-leaf tree, 12 rounds of
/// deterministic churn, rendering every round's suggestion set and
/// recompute stats.
fn incremental_fingerprint(seed: u64) -> String {
    use std::fmt::Write;
    let (tree, leaves) = balanced_session_tree(0, 10, 3);
    let layer_spec = LayerSpec::paper_default();
    let trees = [tree];
    let specs = [&layer_spec];
    let cfg = chaos::chaos_config();
    let mut state = AlgorithmState::new(cfg, netsim::derive_stream_seed(seed, "baseline-inc", 0));
    let registry = registry_for_leaves(0, &leaves);
    let mut reports = reports_for_leaves(0, &leaves, 2, 9);
    let mut out_text = String::new();
    for round in 0..12u64 {
        churn_fraction(&mut reports, 0.1, round);
        let inputs = AlgorithmInputs {
            now: SimTime::from_secs(2 * (round + 1)),
            interval: SimDuration::from_secs(2),
            trees: &trees,
            specs: &specs,
            registry: &registry,
            reports: &reports,
        };
        let out = state.run_incremental(&inputs);
        write!(out_text, "r{round} inc={} slots={} sugg=[", out.incremental, out.slots_recomputed)
            .unwrap();
        for s in &out.suggestions {
            write!(out_text, "{}:{},", s.receiver.0, s.level).unwrap();
        }
        out_text.push_str("]\n");
    }
    out_text
}

/// Digest of a canned federated drive: three 4-leaf domains behind
/// heterogeneous border bandwidth, ten intervals, rendering each
/// interval's federation fingerprint and the caps the parent handed back.
fn federation_fingerprint(seed: u64) -> String {
    use std::fmt::Write;
    let cfg = chaos::chaos_config();
    let (domains, leaves) = federated_domains(3, 2, 2, cfg, seed);
    let spec = LayerSpec::paper_default();
    let caps_bps = [150_000.0, 300_000.0, 600_000.0];
    let mut fed = Federation::new(cfg, seed, domains, spec.clone());
    let mut levels = vec![vec![1u8; leaves.len()]; caps_bps.len()];
    let mut out_text = String::new();
    for round in 1..=10u64 {
        let reports: Vec<Vec<ReceiverReport>> = (0..caps_bps.len())
            .map(|d| {
                reports_behind_border(
                    0,
                    &leaves,
                    &levels[d],
                    caps_bps[d],
                    &spec,
                    SimDuration::from_secs(2),
                )
            })
            .collect();
        let out =
            fed.run_interval(SimTime::from_secs(2 * round), SimDuration::from_secs(2), reports);
        for (d, dom) in out.domain_outputs.iter().enumerate() {
            for s in &dom.suggestions {
                levels[d][(s.receiver.0 - 1000) as usize] = s.level;
            }
        }
        write!(out_text, "r{round} fp={:#018x} caps=[", out.fingerprint()).unwrap();
        for c in &out.caps {
            write!(out_text, "{c},").unwrap();
        }
        out_text.push_str("]\n");
    }
    out_text
}

/// Digest of a controller-less run: Topology A (two receivers per set),
/// VBR(P=3), 120 s, every receiver under `control`.
fn baseline_fingerprint(control: ControlMode, seed: u64) -> String {
    use std::fmt::Write;
    let scenario =
        Scenario::new(generators::topology_a_default(2), TrafficModel::Vbr { p: 3.0 }, seed)
            .with_control(control)
            .with_duration(SimDuration::from_secs(120));
    let result = runner::run(&scenario);
    // `chaos::fingerprint` renders the level changes; the window close
    // (bytes and the per-window loss and level series) is pinned here too.
    let mut out = chaos::fingerprint(&result);
    for r in &result.receivers {
        let s = &r.stats;
        writeln!(
            out,
            "bytes={} loss={:?} levels={:?}",
            s.bytes_total, s.loss_series, s.level_series
        )
        .unwrap();
    }
    out
}

fn compute(name: &str) -> u64 {
    let text = match name {
        "chaos/link_flap/s1" => chaos::fingerprint(&runner::run(&chaos::link_flap(1).0)),
        "chaos/router_crash/s1" => chaos::fingerprint(&runner::run(&chaos::router_crash(1).0)),
        "chaos/discovery_outage/s1" => {
            chaos::fingerprint(&runner::run(&chaos::discovery_outage(1).0))
        }
        "chaos/controller_failover/s1" => {
            chaos::fingerprint(&runner::run(&chaos::controller_failover(1).0))
        }
        "chaos/random_chaos/s7" => chaos::fingerprint(&runner::run(&chaos::random_chaos(7).0)),
        "incremental/diurnal_1k/s1" => incremental_fingerprint(1),
        "federation/border_aggregation/s1" => federation_fingerprint(1),
        "baselines/rlm/s1" => baseline_fingerprint(ControlMode::Rlm, 1),
        "baselines/fixed/s1" => baseline_fingerprint(ControlMode::Fixed(3), 1),
        other => panic!("unknown baseline {other}"),
    };
    fnv1a(text.as_bytes())
}

#[test]
fn canned_fingerprints_match_pinned_baselines() {
    let mut mismatches = Vec::new();
    for &(name, pinned) in BASELINES {
        let got = compute(name);
        if got != pinned {
            println!("    (\"{name}\", {got:#018x}),");
            mismatches.push(name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "baseline drift in {mismatches:?} — if the behavior change is intentional, copy the \
         `(\"...\", 0x...)` lines printed above into BASELINES in tests/baselines.rs"
    );
}
