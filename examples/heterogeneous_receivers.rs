//! Topology A: one session, heterogeneous receiver sets.
//!
//! ```text
//! cargo run --release --example heterogeneous_receivers
//! ```
//!
//! The paper's first evaluation topology — two sets of receivers behind
//! 150 kb/s and 600 kb/s bottlenecks — exercised through the high-level
//! scenario runner. Shows per-set convergence to the oracle optimum (2 and
//! 4 layers) and intra-set fairness.

use metrics::StepSeries;
use netsim::{SimDuration, SimTime};
use scenarios::{run, ControlMode, Scenario};
use topology::generators;
use traffic::TrafficModel;

fn main() {
    let scenario = Scenario::new(
        generators::topology_a_default(4), // 4 receivers per set
        TrafficModel::Vbr { p: 3.0 },
        2026,
    )
    .with_control(ControlMode::TopoSense { staleness: SimDuration::ZERO })
    .with_duration(SimDuration::from_secs(600));

    println!("running Topology A (4 receivers/set, VBR P=3, 600 s)...");
    let result = run(&scenario);

    let half = SimTime::from_secs(300);
    let end = SimTime::from_secs(600);
    println!(
        "\n{:<6} {:>8} {:>14} {:>12} {:>12} {:>10}",
        "set", "optimal", "mean lvl(late)", "rel. dev.", "mean loss", "changes"
    );
    println!("{}", "-".repeat(68));
    for set in [0u32, 1] {
        let members: Vec<_> = result.receivers.iter().filter(|r| r.set == set).collect();
        let mean_level: f64 = members
            .iter()
            .map(|m| StepSeries::from_changes(&m.stats.changes).mean(half, end))
            .sum::<f64>()
            / members.len() as f64;
        let dev: f64 = members
            .iter()
            .map(|m| m.relative_deviation(half, end).unwrap_or(f64::NAN))
            .sum::<f64>()
            / members.len() as f64;
        let loss: f64 =
            members.iter().map(|m| m.mean_loss(half, end).unwrap_or(f64::NAN)).sum::<f64>()
                / members.len() as f64;
        let changes: usize = members.iter().map(|m| m.stats.changes.len()).max().unwrap();
        println!(
            "{:<6} {:>8} {:>14.2} {:>12.4} {:>12.4} {:>10}",
            set, members[0].optimal, mean_level, dev, loss, changes
        );
    }

    let ctrl = result.controller.expect("TopoSense mode has a controller");
    println!("\ncontroller: {} intervals, {} suggestions", ctrl.intervals, ctrl.suggestions_sent);
    println!("total queue drops across all links: {}", result.total_drops);
    println!("simulator events: {}", result.events);
    println!(
        "\nEach set should sit near its optimum (2 and 4 layers) with matching\n\
         levels inside a set — the intra-session fairness of the paper's §IV."
    );
}
