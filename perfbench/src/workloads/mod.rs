//! The four workloads and what they share: the run context, the
//! correctness tally, the fixed-step checkpoint and the closed-loop clock.
//!
//! Every workload has the same shape. It sets its world up several times
//! (`setup_s` is the median), warms up, then runs *steps* one after the
//! other — a closed loop, one caller — until `--seconds` have passed. A
//! step is the unit a user of that layer waits for: a whole paper run, a
//! controller tick, a federation interval, a 100 ms slice of a packet
//! world. Because the number of steps depends on the machine, everything
//! that must repeat exactly (the `sim_digest`, the simulator's profile
//! counters, simulated statistics, peak memory) is read at a *checkpoint*
//! after a fixed number of timed steps, which every run reaches.

pub mod ctl_10k;
pub mod fed_10x32k;
pub mod fedpkt_40k;
pub mod paper_b16;

use crate::calib::{Calibrator, NOMINAL_NS, TABLE_MIB};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = ["paper_b16", "ctl_10k", "fed_10x32k", "fedpkt_40k"];

/// `Full` is the benchmark; `Smoke` shrinks every world so the smoke test
/// finishes in seconds. Smoke numbers are not comparable with anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

pub struct Run<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub tracer: &'a mut Tracer,
    pub calib: Calibrator,
}

/// One calibrated timing: the wall time as measured, and the same scaled
/// to nominal machine speed (see [`crate::calib`]).
#[derive(Clone, Copy)]
pub struct Timed {
    pub raw_ns: u64,
    pub ns: f64,
}

impl Run<'_> {
    pub fn smoke(&self) -> bool {
        self.scale == Scale::Smoke
    }

    /// Time one call that feeds an end-to-end metric, as span `name`, with
    /// a calibration probe on either side of it. Per-layer probes use
    /// `tracer.time` and stay wall time.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Timed) {
        let before = self.calib.probe();
        let (r, raw_ns) = self.tracer.time(name, f);
        let after = self.calib.probe();
        let reference = (before + after) as f64 / 2.0;
        (r, Timed { raw_ns, ns: raw_ns as f64 * NOMINAL_NS / reference })
    }

    /// A sub-seed for one named input of this run.
    pub fn derive(&self, stream: &str, index: u64) -> u64 {
        netsim::derive_stream_seed(self.seed, stream, index)
    }
}

/// Correctness checks: every one counts as attempted, a miss as failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perf: check failed: {what}");
        }
    }
}

/// What a workload hands back to the report.
#[derive(Default)]
pub struct Outcome {
    /// Seconds of each set-up, at nominal speed.
    pub setups_s: Vec<f64>,
    /// Milliseconds of each timed step, at nominal speed.
    pub steps_ms: Vec<f64>,
    /// The same steps as measured (wall milliseconds).
    pub raw_steps_ms: Vec<f64>,
    /// Work units per second at nominal speed, one sample per timed step
    /// (netsim events for `paper_b16` and `fedpkt_40k`, receiver
    /// suggestions for the other two).
    pub work_per_s: Vec<f64>,
    pub checks: Checks,
    /// Hash of the simulated state at the checkpoint.
    pub sim_digest: u64,
    /// `VmHWM` at the checkpoint, MiB.
    pub peak_rss_mb: f64,
    /// Worker threads the workload's layer used.
    pub workers: usize,
    /// Per-layer metrics (only filled on a traced run).
    pub layers: Vec<(String, f64)>,
}

impl Outcome {
    pub fn step(&mut self, t: Timed) {
        self.steps_ms.push(t.ns / 1e6);
        self.raw_steps_ms.push(t.raw_ns as f64 / 1e6);
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.push((name.into(), value));
    }

    /// The latest value recorded for a per-layer metric.
    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.layers.iter().rev().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The closed loop's stop rule: at least `min_steps` (so the checkpoint is
/// always reached), then until the wall budget is spent.
pub struct Clock {
    deadline: Instant,
    min_steps: usize,
}

impl Clock {
    pub fn start(seconds: f64, min_steps: usize) -> Self {
        Clock { deadline: Instant::now() + Duration::from_secs_f64(seconds), min_steps }
    }

    pub fn keep_going(&self, steps_done: usize) -> bool {
        steps_done < self.min_steps || Instant::now() < self.deadline
    }
}

/// Set-ups per run: at least three, and for worlds that build in
/// milliseconds up to fifteen within a 1.5 s budget — a handful of 15 ms
/// samples does not give a steady median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);

/// Build the workload's world several times, each dropped before the next
/// is built, and keep the last. `setup_s` is the median of the builds.
pub fn set_up<W>(run: &mut Run<'_>, out: &mut Outcome, mut build: impl FnMut() -> W) -> W {
    let started = Instant::now();
    let mut world = None;
    while out.setups_s.len() < MIN_SETUPS
        || (out.setups_s.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
    {
        drop(world.take());
        let (w, t) = run.timed("setup", &mut build);
        out.setups_s.push(t.ns / 1e9);
        world = Some(w);
    }
    world.expect("at least MIN_SETUPS builds ran")
}

/// Peak resident set of this process so far (`VmHWM`) without the
/// calibrator's reference table, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0 - TABLE_MIB)
}

/// Order-sensitive 64-bit fold (splitmix64 finalizer) for `sim_digest`.
pub fn mix(h: u64, v: u64) -> u64 {
    let mut z = h.wrapping_add(v).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Record all 23 simulator profile counters as `netsim.profile.<counter>`.
pub fn profile_layers(out: &mut Outcome, profile: &netsim::SimProfile) {
    for (name, value) in profile.counter_entries() {
        out.layer(format!("netsim.profile.{name}"), value as f64);
    }
}

pub fn run(name: &str, run: &mut Run<'_>) -> Option<Outcome> {
    Some(match name {
        "paper_b16" => paper_b16::run(run),
        "ctl_10k" => ctl_10k::run(run),
        "fed_10x32k" => fed_10x32k::run(run),
        "fedpkt_40k" => fedpkt_40k::run(run),
        _ => return None,
    })
}
