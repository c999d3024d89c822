//! TopoSense vs. the receiver-driven baseline vs. a fixed strawman on the
//! Fig. 1 motivating topology.
//!
//! ```text
//! cargo run --release --example baseline_comparison
//! ```
//!
//! The Fig. 1 story: receivers at nodes 3 and 4 share a constrained subtree
//! (optima 1 and 2 layers); the receiver at node 5 sits in a disjoint
//! subtree (optimum 4). A topology-blind scheme lets node 4's exploration
//! hurt node 3; a fixed over-subscriber is worst of all.

use netsim::{SimDuration, SimTime};
use scenarios::{run, ControlMode, Scenario};
use topology::generators;
use traffic::TrafficModel;

fn main() {
    let duration = SimDuration::from_secs(600);
    let modes: Vec<(&str, ControlMode)> = vec![
        ("TopoSense", ControlMode::TopoSense { staleness: SimDuration::ZERO }),
        ("RLM", ControlMode::Rlm),
        ("Fixed(3)", ControlMode::Fixed(3)),
    ];

    println!(
        "{:<12} {:>6} {:>8} {:>12} {:>12} {:>12}",
        "control", "node", "optimal", "mean level", "mean loss", "MB recv"
    );
    println!("{}", "-".repeat(68));
    for (name, mode) in modes {
        let scenario = Scenario::new(generators::figure1(), TrafficModel::Cbr, 5)
            .with_control(mode)
            .with_duration(duration);
        let result = run(&scenario);
        let start = SimTime::from_secs(60);
        let end = SimTime::ZERO + duration;
        for r in &result.receivers {
            println!(
                "{:<12} {:>6} {:>8} {:>12.2} {:>12.4} {:>12.2}",
                name,
                format!("n{}", r.set + 3),
                r.optimal,
                r.level_series().mean(start, end),
                r.mean_loss(start, end).unwrap_or(f64::NAN),
                r.stats.bytes_total as f64 / 1e6,
            );
        }
        println!();
    }
    println!(
        "Expected shape: TopoSense holds every receiver near its optimum with low\n\
         loss; RLM under-subscribes n4 and lets its experiments leak loss onto n3;\n\
         Fixed(3) over-subscribes the slow subtree and loses forever."
    );
}
