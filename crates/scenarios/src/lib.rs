//! # scenarios — end-to-end experiment harness
//!
//! Assembles a [`topology::TopoSpec`] into a live simulation — sources,
//! receivers, controller — runs it, and collects the measurements the
//! paper's figures are built from.
//!
//! * [`runner`] — one scenario = one simulation run ([`runner::run`]).
//! * [`experiments`] — the parameter sweeps behind every figure of the
//!   paper (Figs. 1 and 6–10 plus the §IV convergence claims), each
//!   returning typed rows so binaries print them and tests assert on them.
//! * [`ablations`] — sweeps for the open questions of the paper's §V
//!   (interval size, leave latency, layer granularity, queue discipline,
//!   control-traffic scaling).
//! * [`chaos`] — canned fault plans (link flap, router crash, discovery
//!   outage, controller failover, seeded chaos) and the recovery-bound
//!   checker behind `tests/chaos.rs`.
//! * [`largetree`] — balanced ≥10k-node domains with deterministic report
//!   churn at a configurable dirty fraction, the workload behind the
//!   incremental-pipeline bench and smoke tests.
//! * [`campaign`] — the deterministic evaluation-campaign harness
//!   (DESIGN.md §13): a scenario-matrix builder over the zoo workloads
//!   with pass/fail gates and byte-identical JSON/markdown artifacts.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod campaign;
pub mod chaos;
pub mod experiments;
pub mod largetree;
pub mod runner;

pub use campaign::{CampaignReport, CampaignSpec, Gate, GateStatus, Profile, RunRecord};
pub use runner::{run, ControlMode, ReceiverOutcome, Scenario, ScenarioResult, SpecFault};
