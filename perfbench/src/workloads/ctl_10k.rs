//! `ctl_10k` — one `Controller` (with a warm standby) steering 10,000
//! receivers on a fanout-10 depth-4 tree, at the packet level.
//!
//! Why it exists: here the controller *shell* (view capture, clones,
//! `SessionTree::build`, `routing_eq`, registry assembly, outbox, input
//! replication) is nearly all of a tick and the stage kernels about 1 % of
//! it — the path ROADMAP item 2 wants to make dense. Between ticks netsim
//! does a 10k-way media fan-out and carries 10k reports up. Last-mile
//! links cycle 40/40/40/110 kb/s so media stays at layers 1–2.
//!
//! The world is built here from public APIs and not through
//! `scenarios::run`, whose set-up is quadratic in receivers
//! (`baselines.oracle_ms_1k`).
//!
//! One control interval is driven as two `run_until` calls: up to 1 ns
//! before the tick, and across it. The step is the second — the tick plus
//! the few dozen events sharing its instant — and a work unit is one
//! receiver suggestion. The first, the between-tick slice, is a per-layer
//! number only (`netsim.between_tick_ms`, `netsim.loop_ns_per_event`): its
//! event rate spread 19–31 % between identical runs, too much for an
//! end-to-end metric. Steps come in laps of [`LAP_TICKS`] on a
//! fresh world.

use super::{mix, peak_rss_mb, profile_layers, set_up, Clock, Outcome, Run, Timed};
use crate::probes;
use crate::stats::median;
use netsim::sim::{NetworkBuilder, SimConfig};
use netsim::{
    derive_stream_seed, GroupId, LinkConfig, NodeId, SessionId, SimDuration, SimTime, Simulator,
};
use std::sync::Arc;
use topology::discovery::{DiscoveryTool, TopologyView};
use topology::SessionTree;
use toposense::controller::ControllerHandle;
use toposense::receiver::ReceiverHandle;
use toposense::{Config, Controller, Receiver};
use traffic::session::SessionDef;
use traffic::{LayerSpec, LayeredSource, SessionCatalog, TrafficModel};

const WARMUP_TICKS: u64 = 10;
/// Timed ticks of one lap. This world never settles: receivers keep
/// joining and shedding layers and every series grows, so a tick and the
/// slice before it cost more the later they come (about twice as much
/// after 50 ticks). A run is therefore whole laps — a fresh world, the
/// warm-up, these ticks — and its samples cover the same simulated work
/// however many laps fit the time box. The checkpoint is the end of lap 1.
const LAP_TICKS: usize = 20;
const LASTMILE_KBPS: [f64; 4] = [40.0, 40.0, 40.0, 110.0];
const PROBE_CALLS: usize = 20;
/// The workload must see the controller shell, not just the kernels: a
/// tick is at least this many 100 %-dirty kernel runs (measured: about 40).
const MIN_TICK_TO_KERNEL: f64 = 10.0;

struct World {
    sim: Simulator,
    def: SessionDef,
    controller: ControllerHandle,
    /// Each receiver's stats and the level its last mile fits.
    receivers: Vec<(ReceiverHandle, u8)>,
    cfg: Config,
    ticks: u64,
}

fn build(seed: u64, depth: usize, standby: bool) -> World {
    let derive = |stream: &str, index: u64| derive_stream_seed(seed, stream, index);
    let cfg = Config::default();
    let mut nb = NetworkBuilder::new(SimConfig {
        seed: derive("perf/ctl_10k/sim", 0),
        ..SimConfig::default()
    });
    let root = nb.add_node("root");
    // Deep backbone queues: 10k registrations arrive at once.
    let fat = LinkConfig::kbps(100_000.0).with_queue(1_000);
    let cap_phase = derive("perf/ctl_10k/caps", 0) as usize;
    let mut frontier = vec![root];
    let mut leaves: Vec<(NodeId, f64)> = Vec::new();
    for level in 0..depth {
        let mut next = Vec::with_capacity(frontier.len() * 10);
        for &parent in &frontier {
            for _ in 0..10 {
                let n = nb.add_node("n");
                if level + 1 == depth {
                    let kbps = LASTMILE_KBPS[(leaves.len() + cap_phase) % LASTMILE_KBPS.len()];
                    nb.add_link(parent, n, LinkConfig::kbps(kbps));
                    leaves.push((n, kbps * 1000.0));
                } else {
                    nb.add_link(parent, n, fat);
                }
                next.push(n);
            }
        }
        frontier = next;
    }
    let standby_node = standby.then(|| {
        let n = nb.add_node("standby");
        nb.add_link(root, n, fat.with_queue(20_000));
        n
    });
    let mut sim = nb.build();

    let spec = LayerSpec::paper_default();
    let groups: Vec<GroupId> = (0..spec.layer_count()).map(|_| sim.create_group(root)).collect();
    let def = SessionDef { id: SessionId(0), source: root, groups, spec };
    let mut catalog = SessionCatalog::new();
    catalog.add(def.clone());
    let catalog = catalog.share();

    let (mut ctrl, controller) = Controller::new(
        Arc::clone(&catalog),
        cfg,
        SimDuration::ZERO,
        derive("perf/ctl_10k/controller", 0),
    );
    if let Some(node) = standby_node {
        ctrl = ctrl.with_peer(node);
        let (twin, _) = Controller::new(
            Arc::clone(&catalog),
            cfg,
            SimDuration::ZERO,
            derive("perf/ctl_10k/controller", 1),
        );
        sim.add_app(node, Box::new(twin.with_peer(root).as_standby()));
    }
    sim.add_app(root, Box::new(ctrl));
    let source =
        LayeredSource::new(def.clone(), TrafficModel::Cbr, derive("perf/ctl_10k/source", 0));
    sim.add_app(root, Box::new(source));
    let receivers = leaves
        .iter()
        .enumerate()
        .map(|(i, &(node, cap_bps))| {
            let seed = derive("perf/ctl_10k/receiver", i as u64);
            let (rx, handle) = Receiver::new(def.clone(), root, cfg, seed, &format!("r{i}"));
            sim.add_app(node, Box::new(rx));
            (handle, def.spec.level_fitting(cap_bps))
        })
        .collect();
    World { sim, def, controller, receivers, cfg, ticks: 0 }
}

impl World {
    /// Advance one control interval; returns `(between-tick ns, its netsim
    /// events, tick-slice time)`.
    fn interval(&mut self, run: &mut Run<'_>) -> (u64, u64, Timed) {
        self.ticks += 1;
        let tick_at = SimTime(self.cfg.interval.nanos() * self.ticks);
        let before = self.sim.events_processed();
        let sim = &mut self.sim;
        let (_, between) = run
            .tracer
            .time("netsim.run_until.between_ticks", || sim.run_until(SimTime(tick_at.0 - 1)));
        let events = sim.events_processed() - before;
        let (_, tick) = run.timed("netsim.run_until.tick", || sim.run_until(tick_at));
        (between, events, tick)
    }

    fn warm_up(&mut self, run: &mut Run<'_>) {
        let open = run.tracer.enter("warmup");
        for _ in 0..WARMUP_TICKS {
            self.interval(run);
        }
        run.tracer.exit(open);
    }
}

pub fn run(run: &mut Run<'_>) -> Outcome {
    let depth = if run.smoke() { 2 } else { 4 };
    let mut out = Outcome { workers: 1, ..Outcome::default() };

    let seed = run.seed;
    let mut world = set_up(run, &mut out, || build(seed, depth, true));
    let receivers = world.receivers.len();

    let mut between_ms = Vec::new();
    let (mut between_ns, mut between_events) = (0u64, 0u64);
    let mut slots = Vec::new();
    let mut full_fallbacks = 0u64;
    let clock = Clock::start(run.seconds, 1);
    let mut laps = 0usize;
    loop {
        laps += 1;
        world.warm_up(run);
        for _ in 0..LAP_TICKS {
            let step = run.tracer.enter("step");
            let (between, events, tick_slice) = world.interval(run);
            run.tracer.exit(step);
            out.step(tick_slice);
            out.work_per_s.push(receivers as f64 / (tick_slice.ns / 1e9));
            between_ms.push(between as f64 / 1e6);
            between_ns += between;
            between_events += events;

            let shared = world.controller.lock().expect("controller stats");
            let outputs = shared.last_outputs.as_ref();
            out.checks.check(shared.registered == receivers, "ctl_10k: every receiver registered");
            out.checks.check(
                outputs.is_some_and(|o| o.suggestions.len() == receivers),
                "ctl_10k: one suggestion per receiver",
            );
            out.checks
                .check(outputs.is_some_and(|o| o.incremental), "ctl_10k: tick ran incrementally");
            if laps == 1 {
                slots.push(outputs.map_or(0.0, |o| o.slots_recomputed as f64));
                full_fallbacks += u64::from(outputs.is_some_and(|o| !o.incremental));
            }
        }
        if laps == 1 {
            checkpoint(&world, &mut out, run.tracer.is_keeping());
        }

        let shared = world.controller.lock().expect("controller stats").clone();
        out.checks.check(shared.replica_divergences == 0, "ctl_10k: standby never diverged");
        out.checks.check(!shared.replica_quarantined, "ctl_10k: standby not quarantined");
        out.checks
            .check(shared.replica_acks > 0, "ctl_10k: standby acknowledged replicated inputs");
        out.checks.check(
            world.sim.network().multicast_audit().is_ok(),
            "ctl_10k: multicast state audits clean",
        );

        if !clock.keep_going(laps) {
            break;
        }
        drop(world);
        let (fresh, t) = run.timed("setup", || build(seed, depth, true));
        out.setups_s.push(t.ns / 1e9);
        world = fresh;
    }

    if run.tracer.is_keeping() {
        // Per-layer numbers are wall time.
        let tick_p50 = median(&out.raw_steps_ms);
        out.layer("netsim.loop_ns_per_event", between_ns as f64 / between_events as f64);
        out.layer("netsim.between_tick_ms", median(&between_ms));
        out.layer("toposense.tick_p50_ms", tick_p50);
        out.layer("toposense.slots_recomputed_per_tick", median(&slots));
        out.layer("toposense.full_fallbacks", full_fallbacks as f64);
        out.layer("toposense.suggestions_per_tick", receivers as f64);

        let shell = topology_probes(run, &world, &mut out);
        probes::algorithm(run, &mut out);
        let kernel = out.layer_value("toposense.algorithm_incremental_ms.100pct").unwrap_or(0.0);
        out.layer("toposense.shell_unattributed_ms", tick_p50 - shell - kernel);
        out.layer("toposense.tick_to_kernel_ratio", tick_p50 / kernel);
        // The 100-receiver smoke world is all kernel; the criterion is the
        // full world's.
        if !run.smoke() {
            out.checks.check(
                tick_p50 >= MIN_TICK_TO_KERNEL * kernel,
                "ctl_10k: a tick is at least ten 100 %-dirty kernel runs",
            );
        }

        // One lap of the same world without a standby: what input
        // replication adds to a tick.
        drop(world);
        let mut solo = build(seed, depth, false);
        solo.warm_up(run);
        let open = run.tracer.enter("lap_without_standby");
        let solo_ms: Vec<f64> =
            (0..LAP_TICKS).map(|_| solo.interval(run).2.raw_ns as f64 / 1e6).collect();
        run.tracer.exit(open);
        out.layer("toposense.replicate_overhead_ms", tick_p50 - median(&solo_ms));
    }
    out
}

/// Everything that must repeat exactly, read at the end of the first lap.
fn checkpoint(world: &World, out: &mut Outcome, layers: bool) {
    out.peak_rss_mb = peak_rss_mb();
    let shared = world.controller.lock().expect("controller stats");
    let profile = world.sim.profile();
    let mut bytes = 0u64;
    let mut delivered = 0u64;
    let mut deviation = 0.0;
    for (handle, fitting) in &world.receivers {
        let rx = handle.lock().expect("receiver stats");
        bytes += rx.bytes_total;
        delivered += rx.suggestions_received;
        deviation += (rx.final_level() as f64 - *fitting as f64).abs() / *fitting as f64;
    }
    let mut h = mix(0, world.sim.events_processed());
    h = mix(h, bytes);
    h = mix(h, profile.drops_queue_full);
    out.sim_digest = mix(h, shared.last_outputs.as_ref().map_or(0, toposense::fingerprint_outputs));
    if layers {
        profile_layers(out, &profile);
        out.layer(
            "netsim.events_per_step",
            world.sim.events_processed() as f64 / world.ticks as f64,
        );
        out.layer("sim.mean_rel_deviation", deviation / world.receivers.len() as f64);
        out.layer(
            "toposense.suggestions_delivered_share",
            delivered as f64 / shared.suggestions_sent.max(1) as f64,
        );
    }
}

/// The topology calls a tick makes, each timed alone on the live network.
/// Returns the part of a tick they account for: one capture, two clones,
/// one tree build, one `routing_eq`.
fn topology_probes(run: &mut Run<'_>, world: &World, out: &mut Outcome) -> f64 {
    let net = world.sim.network();
    let now = world.sim.now();
    let mut sample = |name: &'static str, f: &mut dyn FnMut()| -> f64 {
        let ms: Vec<f64> =
            (0..PROBE_CALLS).map(|_| run.tracer.time(name, &mut *f).1 as f64 / 1e6).collect();
        median(&ms)
    };

    let capture = sample("topology.view_capture", &mut || {
        std::hint::black_box(TopologyView::capture(net, now));
    });
    let view = TopologyView::capture(net, now);
    let clone = sample("topology.view_clone", &mut || {
        std::hint::black_box(view.clone());
    });
    let build_tree = || SessionTree::build(&view, world.def.id, &world.def.groups);
    let tree_build = sample("topology.session_tree_build", &mut || {
        std::hint::black_box(build_tree().is_ok());
    });
    let (a, b) = (build_tree().expect("live tree"), build_tree().expect("live tree"));
    let mut same = true;
    let routing_eq = sample("topology.routing_eq", &mut || {
        same &= std::hint::black_box(&a).routing_eq(std::hint::black_box(&b));
    });
    out.checks.check(same, "ctl_10k: two builds of one view route alike");
    let mut tool = DiscoveryTool::new(SimDuration::ZERO);
    let mut at = now;
    let discovery = sample("topology.discovery_record_query", &mut || {
        at = SimTime(at.0 + 1);
        let mut v = view.clone();
        v.time = at;
        tool.record(v);
        std::hint::black_box(tool.query_checked(at).is_ok());
    });

    out.layer("topology.view_capture_ms", capture);
    out.layer("topology.view_clone_ms", clone);
    out.layer("topology.session_tree_build_ms", tree_build);
    out.layer("topology.routing_eq_ms", routing_eq);
    // The record/query pair includes the clone it is handed.
    out.layer("topology.discovery_record_query_ms", (discovery - clone).max(0.0));
    capture + 2.0 * clone + tree_build + routing_eq
}
