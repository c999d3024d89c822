//! The scenario the observer tests run, and what must not depend on
//! observing it — shared by `tests/telemetry.rs` and
//! `tests/observability.rs`.

use netsim::{SimDuration, SimTime};
use scenarios::{ControlMode, Scenario, ScenarioResult};
use topology::generators;
use traffic::TrafficModel;

/// Topology A with two receivers under TopoSense, 90 s of VBR traffic.
pub fn scenario(seed: u64) -> Scenario {
    Scenario::new(generators::topology_a_default(2), TrafficModel::Vbr { p: 3.0 }, seed)
        .with_control(ControlMode::TopoSense { staleness: SimDuration::ZERO })
        .with_duration(SimDuration::from_secs(90))
}

/// Everything observable about a run that must not depend on telemetry.
pub type Fingerprint = (u64, u64, Vec<Vec<(SimTime, u8, u8)>>, u64);

pub fn fingerprint(r: &ScenarioResult) -> Fingerprint {
    (
        r.events,
        r.total_drops,
        r.receivers.iter().map(|x| x.stats.changes.clone()).collect(),
        r.controller.as_ref().map(|c| c.suggestions_sent).unwrap_or(0),
    )
}
