//! Topology B: many sessions competing over one shared bottleneck.
//!
//! ```text
//! cargo run --release --example competing_sessions [n_sessions]
//! ```
//!
//! The paper's inter-session fairness setup: `n` single-receiver sessions
//! share one link sized for exactly 4 layers (480 kb/s) each. Prints the
//! per-session bandwidth shares, the Jain index, and the relative deviation
//! from the 4-layer optimum.

use netsim::{SimDuration, SimTime};
use scenarios::{run, Scenario};
use topology::generators;
use traffic::TrafficModel;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(6);
    let scenario =
        Scenario::new(generators::topology_b_default(n), TrafficModel::Vbr { p: 3.0 }, 7)
            .with_duration(SimDuration::from_secs(600));

    println!("running Topology B ({n} sessions, VBR P=3, 600 s)...");
    let result = run(&scenario);

    let half = SimTime::from_secs(300);
    let end = SimTime::from_secs(600);
    println!(
        "\n{:<8} {:>8} {:>8} {:>14} {:>12} {:>12}",
        "session", "optimal", "final", "bytes (MB)", "rel. dev.", "mean loss"
    );
    println!("{}", "-".repeat(68));
    for r in &result.receivers {
        println!(
            "{:<8} {:>8} {:>8} {:>14.2} {:>12.4} {:>12.4}",
            r.session,
            r.optimal,
            r.stats.final_level(),
            r.stats.bytes_total as f64 / 1e6,
            r.relative_deviation(half, end).unwrap_or(f64::NAN),
            r.mean_loss(half, end).unwrap_or(f64::NAN),
        );
    }

    let bytes: Vec<f64> = result.session_bytes().iter().map(|&(_, b)| b as f64).collect();
    println!("\nJain fairness index over session bytes: {:.4}", metrics::jain_index(&bytes));
    println!(
        "mean relative deviation (2nd half):     {:.4}",
        result.mean_relative_deviation(half, end).expect("scenario has receivers")
    );
    println!(
        "\nEvery session should sit near 4 layers with near-equal byte totals —\n\
         the paper's claim that TopoSense \"imposes fairness among competing\n\
         sessions irrespective of the time intervals\"."
    );
}
