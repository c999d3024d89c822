//! Building and controlling a custom topology through the public API.
//!
//! ```text
//! cargo run --release --example custom_topology [seed]
//! ```
//!
//! Generates a random tiered (Fig. 2-style) distribution tree — national /
//! regional / institutional ISPs with capacities decaying toward the edge —
//! runs TopoSense over it, and compares every receiver against the oracle.
//! Demonstrates the `TopoSpec` builder, the random generators, the scenario
//! runner, and the oracle in one place.

use baselines::oracle;
use netsim::{RngStream, SimDuration, SimTime};
use scenarios::{run, Scenario};
use topology::generators::{self, TieredParams};
use traffic::{LayerSpec, TrafficModel};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(11);

    // A 3-tier random tree: ~8 kb/s top links decaying by 4x per tier, so
    // the last mile is the bottleneck, as in the paper's tiered Internet.
    let mut rng = RngStream::derive(seed, "example/tiered");
    let params = TieredParams { tiers: 3, fanout: (2, 3), top_kbps: 8000.0, capacity_decay: 4.0 };
    let spec = generators::tiered(&mut rng, params);
    println!(
        "generated tiered topology: {} nodes, {} links, {} receivers",
        spec.nodes.len(),
        spec.links.len(),
        spec.receivers().len()
    );

    // Ground truth before running anything: what should everyone get?
    let optima = oracle::optimal_levels(&spec, &LayerSpec::paper_default(), 1.0);

    let scenario =
        Scenario::new(spec, TrafficModel::Cbr, seed).with_duration(SimDuration::from_secs(400));
    let result = run(&scenario);

    let start = SimTime::from_secs(200);
    let end = SimTime::from_secs(400);
    println!(
        "\n{:<10} {:>8} {:>12} {:>12} {:>12}",
        "receiver", "optimal", "mean level", "rel. dev.", "mean loss"
    );
    println!("{}", "-".repeat(58));
    let mut total_dev = 0.0;
    for r in &result.receivers {
        let dev = r.relative_deviation(start, end).unwrap_or(f64::NAN);
        total_dev += dev;
        println!(
            "{:<10} {:>8} {:>12.2} {:>12.4} {:>12.4}",
            format!("node{}", r.node.0),
            r.optimal,
            r.level_series().mean(start, end),
            dev,
            r.mean_loss(start, end).unwrap_or(f64::NAN),
        );
    }
    println!(
        "\nmean relative deviation: {:.4} over {} receivers",
        total_dev / result.receivers.len() as f64,
        result.receivers.len()
    );
    let _ = optima; // the runner already used the same oracle internally
}
