//! # scenarios — end-to-end experiment harness
//!
//! Assembles a [`topology::TopoSpec`] into a live simulation — sources,
//! receivers, controller — runs it, and collects the measurements the
//! paper's figures are built from.
//!
//! * [`runner`] — one scenario = one simulation run ([`runner::run`]); a
//!   batch of them in parallel ([`runner::run_many`]).
//! * [`campaign`] — the one evaluation harness (DESIGN.md §13): the zoo
//!   workloads and the paper's figures as one list of [`campaign::Cell`]s
//!   — scenarios to run, a judge for their results — with pass/fail gates,
//!   coverage caps and byte-identical JSON/markdown artifacts.
//! * [`paper`] — every table and figure of the paper described once as
//!   such a cell: its sentence, sizes, scenarios, and the judge that turns
//!   results into a table and gates.
//! * [`ablations`] — the open questions of the paper's §V as figures
//!   (interval size, leave latency, layer granularity, queue discipline,
//!   control-traffic scaling, capacity-estimator accuracy).
//! * [`chaos`] — canned fault plans (link flap, router crash, discovery
//!   outage, controller failover, seeded chaos) and the recovery-bound
//!   checker behind `tests/chaos.rs`.
//! * [`largetree`] — world generators: balanced session trees with
//!   deterministic report churn, heterogeneous last-mile domains, and the
//!   federated packet world (sharded, and its sequential oracle twin).

#![forbid(unsafe_code)]

pub mod ablations;
pub mod campaign;
pub mod chaos;
pub mod largetree;
pub mod paper;
pub mod runner;

pub use runner::{run, ControlMode, ReceiverOutcome, Scenario, ScenarioResult};
