//! `fed_10x32k` — the federated control plane alone: 10 domains of 32,768
//! receivers (fanout 8, depth 5) through `Federation::run_interval`, closed
//! loop — each domain sits behind a border link, its receivers report the
//! loss that link causes and obey the suggestions they get back.
//!
//! Why it exists: the stage kernels, the incremental driver, the border
//! JSON codec and the parent fold do all the work. There is no netsim and
//! no `Controller`, so a change to the controller shell or the simulator
//! must leave this workload where it was, and a kernel or driver change
//! (ROADMAP item 4) must show here.
//!
//! One step is one `run_interval` call — reports in, suggestions and border
//! caps out; generating the next reports is the harness's work and is not
//! timed (the traced run shows it as a sibling span). A work unit is one
//! receiver suggestion.

use super::{peak_rss_mb, set_up, Clock, Outcome, Run, Timed};
use crate::probes;
use netsim::{NodeId, SimDuration, SimTime};
use scenarios::largetree::{federated_domains, reports_behind_border};
use toposense::algorithm::ReceiverReport;
use toposense::federation::{Federation, FederationInterval};
use toposense::Config;
use traffic::LayerSpec;

const WARMUP_INTERVALS: u64 = 10;
/// Timed intervals before the checkpoint.
const CHECKPOINT_INTERVALS: usize = 100;
/// Border capacities the domains cycle through (bits/s): they fit 2, 3 and
/// 4 layers, so domains converge to different levels.
const BORDER_BPS: [f64; 3] = [150_000.0, 300_000.0, 600_000.0];

struct World {
    fed: Federation,
    leaves: Vec<NodeId>,
    spec: LayerSpec,
    window: SimDuration,
    /// Border capacity per domain.
    caps_bps: Vec<f64>,
    /// Current level of every receiver, per domain.
    levels: Vec<Vec<u8>>,
    round: u64,
}

fn build(seed: u64, domains: usize, fanout: usize, depth: usize) -> World {
    let cfg = Config::default();
    let spec = LayerSpec::paper_default();
    let (doms, leaves) = federated_domains(domains, fanout, depth, cfg, seed);
    let fed = Federation::new(cfg, seed, doms, spec.clone());
    let phase = netsim::derive_stream_seed(seed, "perf/fed/caps", 0) as usize;
    let caps_bps = (0..domains).map(|d| BORDER_BPS[(d + phase) % BORDER_BPS.len()]).collect();
    let levels = vec![vec![1u8; leaves.len()]; domains];
    World { fed, leaves, spec, window: cfg.interval, caps_bps, levels, round: 0 }
}

impl World {
    /// One closed-loop round; returns the interval and the time of
    /// `run_interval` alone (reports in, suggestions out).
    fn interval(&mut self, run: &mut Run<'_>) -> (FederationInterval, Timed) {
        self.round += 1;
        let now = SimTime(self.window.nanos() * self.round);
        let (reports, _): (Vec<Vec<ReceiverReport>>, _) =
            run.tracer.time("scenarios.reports_behind_border", || {
                (0..self.caps_bps.len())
                    .map(|d| {
                        reports_behind_border(
                            0,
                            &self.leaves,
                            &self.levels[d],
                            self.caps_bps[d],
                            &self.spec,
                            self.window,
                        )
                    })
                    .collect()
            });
        let fed = &mut self.fed;
        let window = self.window;
        let (out, t) = run
            .timed("toposense.federation_run_interval", || fed.run_interval(now, window, reports));
        // Receivers obey: suggestions come out in registry (= leaf) order.
        for (levels, outputs) in self.levels.iter_mut().zip(&out.domain_outputs) {
            for (level, s) in levels.iter_mut().zip(&outputs.suggestions) {
                *level = s.level;
            }
        }
        (out, t)
    }
}

pub fn run(run: &mut Run<'_>) -> Outcome {
    let (domains, fanout, depth) = if run.smoke() { (3, 4, 3) } else { (10, 8, 5) };
    let mut out = Outcome {
        workers: std::thread::available_parallelism().map_or(1, |p| p.get()),
        ..Outcome::default()
    };

    let seed = run.derive("perf/fed/world", 0);
    let mut world = set_up(run, &mut out, || build(seed, domains, fanout, depth));
    // Domains run in parallel from here on; set-up does not.
    run.calib.threads = out.workers;
    let receivers = world.leaves.len();
    let open = run.tracer.enter("warmup");
    for _ in 0..WARMUP_INTERVALS {
        world.interval(run);
    }
    run.tracer.exit(open);

    let mut slots = Vec::new();
    let mut full_fallbacks = 0u64;
    let clock = Clock::start(run.seconds, CHECKPOINT_INTERVALS);
    let mut step = 0usize;
    while clock.keep_going(step) {
        step += 1;
        let open = run.tracer.enter("step");
        let (interval, t) = world.interval(run);
        run.tracer.exit(open);
        out.step(t);
        out.work_per_s.push((receivers * domains) as f64 / (t.ns / 1e9));

        out.checks.check(
            interval.domain_outputs.len() == domains
                && interval.domain_outputs.iter().all(|o| o.suggestions.len() == receivers),
            "fed_10x32k: every domain suggests to every receiver",
        );
        out.checks.check(interval.caps.len() == domains, "fed_10x32k: one border cap per domain");
        // Counts must repeat exactly, so only the intervals every run
        // reaches are counted.
        if step <= CHECKPOINT_INTERVALS {
            let outputs = &interval.domain_outputs;
            slots.push(outputs.iter().map(|o| o.slots_recomputed).sum::<u64>() as f64);
            full_fallbacks += outputs.iter().filter(|o| !o.incremental).count() as u64;
        }
        if step == CHECKPOINT_INTERVALS {
            out.peak_rss_mb = peak_rss_mb();
            out.sim_digest = interval.fingerprint();
        }
    }

    if run.tracer.is_keeping() {
        // No simulator in this workload: every netsim metric stays 0.
        out.layer("toposense.slots_recomputed_per_tick", crate::stats::median(&slots));
        out.layer("toposense.full_fallbacks", full_fallbacks as f64);
        out.layer("toposense.suggestions_per_tick", (receivers * domains) as f64);
        out.layer(
            "toposense.federation_setup_ms_per_domain",
            crate::stats::median(&out.setups_s) * 1e3 / domains as f64,
        );
        drop(world);
        probes::stage_kernels(run, &mut out);
        probes::border_codec(run, &mut out);
    }
    out
}
