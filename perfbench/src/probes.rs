//! Single-layer probes: one timed public call each, run only on a traced
//! run, by the workload whose end-to-end numbers the layer should move.
//! They are layer numbers, not end-to-end ones — each skips everything
//! around the call it times.

use crate::stats::median;
use crate::workloads::{Outcome, Run};
use netsim::sim::{NetworkBuilder, SimConfig};
use netsim::{App, AppId, Event, EventQueue, LinkConfig, NodeId, RngStream, SimDuration, SimTime};
use scenarios::largetree;
use telemetry::IntervalAudit;
use toposense::algorithm::{AlgorithmInputs, AlgorithmOutputs, AlgorithmState, ReceiverReport};
use toposense::Config;
use traffic::LayerSpec;

/// `netsim.queue_ns_per_op`: the calendar wheel in the classic hold model —
/// `pending` events outstanding, each op pops the earliest and schedules a
/// successor a random 0–2 s ahead.
pub fn event_queue(run: &mut Run<'_>, out: &mut Outcome) {
    let (pending, ops) = if run.smoke() { (1_000, 50_000) } else { (100_000, 2_000_000) };
    let mut rng = RngStream::derive(run.derive("perf/probe/queue", 0), "hold");
    let mut q = EventQueue::new();
    q.reserve(pending);
    let timer = |i: u64| Event::Timer { app: AppId(0), token: i };
    for i in 0..pending as u64 {
        q.schedule(SimTime(rng.range_u64(0, 2_000_000_000)), timer(i));
    }
    let (_, ns) = run.tracer.time("netsim.event_queue_hold", || {
        for i in 0..ops as u64 {
            let (t, _) = q.pop().expect("the hold model never drains");
            q.schedule(SimTime(t.0 + rng.range_u64(1, 2_000_000_000)), timer(i));
        }
        std::hint::black_box(q.len())
    });
    out.layer("netsim.queue_ns_per_op", ns as f64 / ops as f64);
}

/// `baselines.oracle_ms_1k`: the optimal-allocation oracle `scenarios::run`
/// calls during set-up, on a 1,000-receiver balanced tree. It is quadratic
/// in receivers, which is why `ctl_10k` builds its own world.
pub fn oracle_1k(run: &mut Run<'_>, out: &mut Outcome) {
    let depth = if run.smoke() { 2 } else { 3 };
    let spec = largetree::heterogeneous_lastmile(10, depth, &[40.0, 110.0, 250.0, 500.0]);
    let layers = LayerSpec::paper_default();
    let (optima, ns) = run.tracer.time("baselines.optimal_levels", || {
        baselines::oracle::optimal_levels(&spec, &layers, 1.0)
    });
    std::hint::black_box(optima.len());
    out.layer("baselines.oracle_ms_1k", ns as f64 / 1e6);
}

struct Idle;
impl App for Idle {}

/// `netsim.build_ns_per_node.*` and `netsim.graft_ns_per_join.*`: freeze a
/// balanced fanout-10 tree into a simulator, then subscribe every leaf in
/// one batched join — the cost per membership change that world set-up is
/// made of. Depth 4 is `ctl_10k`'s and `fedpkt_40k`'s domain size; depth 5
/// is where the superlinear build of the largest worlds starts to show.
pub fn build_and_graft(run: &mut Run<'_>, out: &mut Outcome) {
    let sizes: &[(usize, &str, &str)] =
        if run.smoke() { &[(2, "11k", "10k")] } else { &[(4, "11k", "10k"), (5, "111k", "100k")] };
    for &(depth, nodes_tag, joins_tag) in sizes {
        let mut nb = NetworkBuilder::new(SimConfig::default());
        let root = nb.add_node("root");
        let mut frontier = vec![root];
        let mut nodes = 1usize;
        for _ in 0..depth {
            let mut next = Vec::with_capacity(frontier.len() * 10);
            for &parent in &frontier {
                for _ in 0..10 {
                    let n = nb.add_node("n");
                    nb.add_link(parent, n, LinkConfig::kbps(100_000.0));
                    next.push(n);
                }
            }
            nodes += next.len();
            frontier = next;
        }
        let (mut sim, built_ns) = run.tracer.time("netsim.network_build", || nb.build());
        out.layer(format!("netsim.build_ns_per_node.{nodes_tag}"), built_ns as f64 / nodes as f64);

        let group = sim.create_group(root);
        let members: Vec<(NodeId, AppId)> =
            frontier.iter().map(|&leaf| (leaf, sim.add_app(leaf, Box::new(Idle)))).collect();
        let (_, joined_ns) =
            run.tracer.time("netsim.batch_join", || sim.batch_join(group, &members));
        out.layer(
            format!("netsim.graft_ns_per_join.{joins_tag}"),
            joined_ns as f64 / members.len() as f64,
        );
        // Let the grafts land so the audit sees the finished tree.
        sim.run_until(SimTime::from_secs(1));
        out.checks
            .check(sim.network().multicast_audit().is_ok(), "probe: grafted tree audits clean");
    }
}

/// A synthetic single-session domain driven closed-loop: receivers follow
/// the controller's suggestions, a `dirty` fraction of reports changes
/// each interval.
struct Domain {
    trees: Vec<topology::SessionTree>,
    registry: Vec<(AppId, NodeId, netsim::SessionId)>,
    reports: Vec<ReceiverReport>,
    spec: LayerSpec,
    t: u64,
}

impl Domain {
    fn new(fanout: usize, depth: usize) -> Self {
        let (tree, leaves) = largetree::balanced_session_tree(0, fanout, depth);
        Domain {
            trees: vec![tree],
            registry: largetree::registry_for_leaves(0, &leaves),
            reports: largetree::reports_for_leaves(0, &leaves, 3, 0),
            spec: LayerSpec::paper_default(),
            t: 0,
        }
    }

    /// One interval: churn, run `f` over the inputs, follow its suggestions.
    fn interval(
        &mut self,
        dirty: f64,
        f: impl FnOnce(&AlgorithmInputs<'_>) -> AlgorithmOutputs,
    ) -> AlgorithmOutputs {
        self.t += 2;
        largetree::churn_fraction(&mut self.reports, dirty, self.t);
        let specs = [&self.spec];
        let inputs = AlgorithmInputs {
            now: SimTime::from_secs(self.t),
            interval: SimDuration::from_secs(2),
            trees: &self.trees,
            specs: &specs,
            registry: &self.registry,
            reports: &self.reports,
        };
        let outputs = f(&inputs);
        // Suggestions come out in registry order, the order of the reports.
        for (r, s) in self.reports.iter_mut().zip(&outputs.suggestions) {
            r.level = s.level;
        }
        outputs
    }
}

const KERNEL_WARMUP: usize = 8;
const KERNEL_SAMPLES: usize = 20;

/// `toposense.algorithm_incremental_ms.{1,10,100}pct` and
/// `toposense.algorithm_full_ms`: the pipeline alone on `ctl_10k`'s tree
/// shape (11,111 slots), no controller around it.
pub fn algorithm(run: &mut Run<'_>, out: &mut Outcome) {
    let depth = if run.smoke() { 2 } else { 4 };
    let seed = run.derive("perf/probe/algorithm", 0);
    let cases: [(&str, &'static str, f64, bool); 4] = [
        ("toposense.algorithm_incremental_ms.1pct", "toposense.run_incremental", 0.01, true),
        ("toposense.algorithm_incremental_ms.10pct", "toposense.run_incremental", 0.10, true),
        ("toposense.algorithm_incremental_ms.100pct", "toposense.run_incremental", 1.0, true),
        ("toposense.algorithm_full_ms", "toposense.run", 0.01, false),
    ];
    for (metric, span, dirty, incremental) in cases {
        let mut domain = Domain::new(10, depth);
        let mut state = AlgorithmState::new(Config::default(), seed);
        let mut ms = Vec::with_capacity(KERNEL_SAMPLES);
        for i in 0..KERNEL_WARMUP + KERNEL_SAMPLES {
            let mut kernel_ms = 0.0;
            domain.interval(dirty, |inputs| {
                let (outputs, ns) = run.tracer.time(span, || {
                    if incremental {
                        state.run_incremental(inputs)
                    } else {
                        state.run(inputs)
                    }
                });
                kernel_ms = ns as f64 / 1e6;
                outputs
            });
            if i >= KERNEL_WARMUP {
                ms.push(kernel_ms);
            }
        }
        out.layer(metric, median(&ms));
    }
}

/// `toposense.stage{1..5}_us`: the five kernel spans the pipeline itself
/// records into an [`IntervalAudit`], on one `fed_10x32k`-shaped domain at
/// 1 % churn. (`Federation` runs its domains unaudited, so the spans are
/// read from an audited run of the same kernels over the same tree.)
pub fn stage_kernels(run: &mut Run<'_>, out: &mut Outcome) {
    let (fanout, depth) = if run.smoke() { (4, 3) } else { (8, 5) };
    let mut domain = Domain::new(fanout, depth);
    let mut state = AlgorithmState::new(Config::default(), run.derive("perf/probe/stages", 0));
    for _ in 0..KERNEL_WARMUP {
        domain.interval(0.01, |inputs| state.run_incremental(inputs));
    }
    let stages = [
        ("stage1_congestion", "toposense.stage1_us"),
        ("stage2_capacity", "toposense.stage2_us"),
        ("stage3_bottleneck", "toposense.stage3_us"),
        ("stage4_sharing", "toposense.stage4_us"),
        ("stage5_subscription", "toposense.stage5_us"),
    ];
    let mut us: [Vec<f64>; 5] = Default::default();
    for i in 0..KERNEL_SAMPLES {
        let mut audit = IntervalAudit::new(i as u64, 0);
        run.tracer.time("toposense.run_incremental_audited", || {
            domain.interval(0.01, |inputs| state.run_incremental_audited(inputs, Some(&mut audit)))
        });
        for ((stage, _), v) in stages.iter().zip(us.iter_mut()) {
            let ns: u64 = audit.stage_ns.iter().filter(|(s, _)| s == stage).map(|&(_, n)| n).sum();
            v.push(ns as f64 / 1e3);
        }
    }
    for ((_, metric), v) in stages.iter().zip(&us) {
        out.layer(*metric, median(v));
    }
}

/// `toposense.border_codec_us`: one `BorderSummary` through its wire form
/// and back, as every domain's summary goes each interval.
pub fn border_codec(run: &mut Run<'_>, out: &mut Outcome) {
    let rounds = if run.smoke() { 1_000 } else { 20_000 };
    let summary = toposense::BorderSummary {
        domain: 3,
        seq: run.seed,
        gateway: 5,
        level: 4,
        received: 3_276_800,
        lost: 1_250,
        bytes: 120_000,
        congested_nodes: 12,
        capacity_bits: 450_000.0f64.to_bits(),
    };
    let (ok, ns) = run.tracer.time("toposense.border_codec", || {
        (0..rounds).all(|_| {
            toposense::BorderSummary::decode(&std::hint::black_box(&summary).encode())
                .is_ok_and(|d| d == summary)
        })
    });
    out.checks.check(ok, "probe: border summary round-trips its wire form");
    out.layer("toposense.border_codec_us", ns as f64 / rounds as f64 / 1e3);
}
