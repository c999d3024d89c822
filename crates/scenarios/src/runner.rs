//! Scenario assembly and execution.
//!
//! [`run`] turns a declarative [`Scenario`] into a live simulation:
//! multicast groups (one per layer per session), a layered source per
//! session, a receiver agent per receiver role (TopoSense / RLM / fixed),
//! and — for TopoSense — the controller agent on the spec's controller
//! node. After `duration` simulated seconds it harvests every agent's
//! shared stats plus the ground-truth optimum from the oracle.

use baselines::oracle;
use baselines::{FixedReceiver, RlmReceiver};
use metrics::StepSeries;
use netsim::sim::SimConfig;
use netsim::{
    derive_stream_seed, FaultPlan, GroupId, NodeId, QueueBackend, SessionId, SimDuration, SimTime,
};
use telemetry::{Record, Span, Telemetry};
use topology::spec::TopoSpec;
use toposense::controller::{Controller, ControllerShared};
use toposense::messages::{Report, Suggestion};
use toposense::receiver::{Receiver, ReceiverHandle, ReceiverShared};
use traffic::session::SessionDef;
use traffic::{LayerSpec, LayeredSource, SessionCatalog, TrafficModel};

/// How receivers are controlled.
#[derive(Clone, Copy, Debug)]
pub enum ControlMode {
    /// The paper's system: controller + cooperating receivers, with the
    /// discovery tool serving snapshots at least `staleness` old.
    TopoSense { staleness: SimDuration },
    /// Receiver-driven baseline (no controller, no topology).
    Rlm,
    /// Pin every receiver at a fixed level (no adaptation).
    Fixed(u8),
}

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub topo: TopoSpec,
    pub layers: LayerSpec,
    pub traffic: TrafficModel,
    pub control: ControlMode,
    pub cfg: toposense::Config,
    pub seed: u64,
    pub duration: SimDuration,
    /// IGMP group-leave latency applied network-wide (§V ablation knob).
    pub leave_latency: SimDuration,
    /// Faults injected into the run, in the ids `topo` hands out (empty =
    /// today's fault-free behavior).
    pub faults: FaultPlan,
    /// Windows where the controller's discovery tool is down entirely.
    pub discovery_outages: Vec<(SimTime, SimTime)>,
    /// Windows where discovery answers with these nodes missing.
    pub discovery_partial_outages: Vec<(SimTime, SimTime, Vec<NodeId>)>,
    /// Node hosting a warm-standby controller (TopoSense only).
    pub standby: Option<NodeId>,
    /// Telemetry handle threaded through the controller and the harvest
    /// pass. Disabled by default; attaching a sink must not change the
    /// simulation (the telemetry determinism test pins this).
    pub telemetry: Telemetry,
    /// Event-queue backend for the underlying simulator. The calendar
    /// wheel is the fast default; the binary heap is the differential
    /// oracle (both produce bit-identical runs).
    pub queue_backend: QueueBackend,
    /// Per-session control-mode overrides: receivers of a listed session
    /// run under that mode instead of `control`. This is how a TopoSense
    /// foreground session competes against RLM (or fixed-rate) background
    /// sessions on the same bottlenecks — the campaign zoo's mixed
    /// workload. Overriding to TopoSense is only valid when the base mode
    /// is TopoSense too (there is at most one controller).
    pub session_control: Vec<(u32, ControlMode)>,
    /// Per-session traffic-model overrides (mixed CBR/VBR worlds).
    pub session_traffic: Vec<(u32, TrafficModel)>,
}

impl Scenario {
    /// A scenario with the paper's defaults (6 doubling layers, TopoSense
    /// with an instantaneous discovery tool, 1200 s).
    pub fn new(topo: TopoSpec, traffic: TrafficModel, seed: u64) -> Self {
        Scenario {
            topo,
            layers: LayerSpec::paper_default(),
            traffic,
            control: ControlMode::TopoSense { staleness: SimDuration::ZERO },
            cfg: toposense::Config::default(),
            seed,
            duration: SimDuration::from_secs(1200),
            leave_latency: netsim::MulticastConfig::default().leave_latency,
            faults: FaultPlan::new(),
            discovery_outages: Vec::new(),
            discovery_partial_outages: Vec::new(),
            standby: None,
            telemetry: Telemetry::disabled(),
            queue_backend: QueueBackend::default(),
            session_control: Vec::new(),
            session_traffic: Vec::new(),
        }
    }

    /// Receivers of `session` run under `control` instead of the scenario's
    /// base mode (background-session competition).
    pub fn with_session_control(mut self, session: u32, control: ControlMode) -> Self {
        self.session_control.push((session, control));
        self
    }

    /// The source of `session` emits `traffic` instead of the scenario's
    /// base model (mixed CBR/VBR worlds).
    pub fn with_session_traffic(mut self, session: u32, traffic: TrafficModel) -> Self {
        self.session_traffic.push((session, traffic));
        self
    }

    /// The same scenario with a different seed (for multi-seed sweeps).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a telemetry handle: the controller's audit records and
    /// trace hops, the stage timers, and one closing `"counters"` record
    /// ([`ScenarioResult::counters`]).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    pub fn with_control(mut self, control: ControlMode) -> Self {
        self.control = control;
        self
    }

    /// Add faults to the run's plan (may be called repeatedly):
    /// `s.with_faults(|p| p.node_crash(node, at))`.
    pub fn with_faults(mut self, add: impl FnOnce(FaultPlan) -> FaultPlan) -> Self {
        self.faults = add(std::mem::take(&mut self.faults));
        self
    }

    /// The controller's discovery tool is unavailable over `[from, until)`.
    pub fn with_discovery_outage(mut self, from: SimTime, until: SimTime) -> Self {
        self.discovery_outages.push((from, until));
        self
    }

    /// Discovery answers with the given nodes hidden over `[from, until)`.
    pub fn with_discovery_partial_outage(
        mut self,
        from: SimTime,
        until: SimTime,
        hidden: Vec<NodeId>,
    ) -> Self {
        self.discovery_partial_outages.push((from, until, hidden));
        self
    }

    /// Host a warm-standby controller on `node` (TopoSense only).
    pub fn with_standby(mut self, node: NodeId) -> Self {
        self.standby = Some(node);
        self
    }

    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    pub fn with_config(mut self, cfg: toposense::Config) -> Self {
        self.cfg = cfg;
        self
    }

    pub fn with_layers(mut self, layers: LayerSpec) -> Self {
        self.layers = layers;
        self
    }

    pub fn with_leave_latency(mut self, leave_latency: SimDuration) -> Self {
        self.leave_latency = leave_latency;
        self
    }
}

/// One receiver's measurements plus its ground-truth optimum.
#[derive(Clone, Debug)]
pub struct ReceiverOutcome {
    /// The node the receiver sits on.
    pub node: NodeId,
    /// Simulator app id — the `receiver` field of the run's `"trace"`
    /// records, so chains reconstruct from a [`ScenarioResult`] alone.
    pub app: netsim::AppId,
    pub session: u32,
    pub set: u32,
    /// Oracle-optimal subscription level.
    pub optimal: u8,
    /// The receiver's recorded stats.
    pub stats: ReceiverShared,
}

impl ReceiverOutcome {
    /// The subscription level as a step series.
    pub fn level_series(&self) -> StepSeries {
        StepSeries::from_changes(&self.stats.changes)
    }

    /// Relative deviation from the optimum over `[start, end]`. `None`
    /// when the metric is undefined (zero optimum or empty window).
    pub fn relative_deviation(&self, start: SimTime, end: SimTime) -> Option<f64> {
        metrics::relative_deviation(&self.level_series(), self.optimal, start, end)
    }

    /// Mean loss rate over report windows in `[start, end)`. `None` when no
    /// report window falls inside — an empty window is missing data, not a
    /// lossless run.
    pub fn mean_loss(&self, start: SimTime, end: SimTime) -> Option<f64> {
        metrics::window_mean(&self.stats.loss_series, start, end)
    }
}

/// Everything a scenario run produced.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    pub receivers: Vec<ReceiverOutcome>,
    /// Controller stats when running TopoSense.
    pub controller: Option<ControllerShared>,
    /// Warm-standby controller stats, when one was hosted.
    pub standby: Option<ControllerShared>,
    pub duration: SimDuration,
    /// Total packets dropped at queues across all links.
    pub total_drops: u64,
    /// Total packets dropped because their link was down.
    pub down_link_drops: u64,
    /// Estimated control bytes exchanged (registrations excluded): reports
    /// up plus suggestions down — the paper's §V claims this scales
    /// linearly in receivers and sessions.
    pub control_bytes: u64,
    /// Total events processed (throughput diagnostics).
    pub events: u64,
    /// Wall-clock spent assembling the simulation (nanoseconds). The
    /// pipeline has no separate warmup phase, so the issue's
    /// setup/warmup/run split collapses to setup/run/harvest here.
    pub setup_wall_ns: u64,
    /// Wall-clock spent inside the event loop (nanoseconds).
    pub run_wall_ns: u64,
    /// Wall-clock spent harvesting stats afterwards (nanoseconds).
    pub harvest_wall_ns: u64,
    /// The simulator's always-on profile: per-event-type counts, drop
    /// reasons, slab/queue high-water marks, wheel internals.
    pub profile: netsim::SimProfile,
}

impl ScenarioResult {
    /// Mean relative deviation across receivers over `[start, end]`
    /// (the quantity Figs. 8 and 10 plot), by
    /// [`metrics::deviation::mean_relative_deviation`]. `None` when nothing
    /// is there to average: the scenario had no receivers, the window is
    /// empty, or every receiver's optimum is zero.
    pub fn mean_relative_deviation(&self, start: SimTime, end: SimTime) -> Option<f64> {
        metrics::deviation::mean_relative_deviation(
            self.receivers.iter().map(|r| r.relative_deviation(start, end)),
        )
    }

    /// `(max change count, mean gap)` over receivers in `[start, end)` —
    /// one Fig. 6/7 point. The initial base-layer join is excluded.
    pub fn stability(&self, start: SimTime, end: SimTime) -> (usize, f64) {
        let series: Vec<StepSeries> = self.receivers.iter().map(|r| r.level_series()).collect();
        let refs: Vec<&StepSeries> = series.iter().collect();
        metrics::stability::worst_receiver(&refs, start, end)
    }

    /// Per-session received bytes (fairness shares).
    pub fn session_bytes(&self) -> Vec<(u32, u64)> {
        let mut map = std::collections::BTreeMap::new();
        for r in &self.receivers {
            *map.entry(r.session).or_insert(0u64) += r.stats.bytes_total;
        }
        map.into_iter().collect()
    }

    /// Event-loop throughput: simulator events per wall-clock second of the
    /// run phase (setup and harvest excluded). Zero for a zero-length run.
    pub fn events_per_sec(&self) -> f64 {
        if self.run_wall_ns == 0 {
            0.0
        } else {
            self.events as f64 / (self.run_wall_ns as f64 / 1e9)
        }
    }

    /// Every counter of the run, sorted by name: the simulator's
    /// (`netsim.*`, `netsim.profile.*`), the receivers' sums
    /// (`receivers.*`), and each controller's under its role
    /// (`controller.*` for the primary, `standby.*` for the standby). The
    /// trail's closing `"counters"` record and the black-box dump both
    /// carry exactly this list; no wall-clock value is in it.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = vec![
            ("netsim.events".into(), self.events),
            ("netsim.queue_drops".into(), self.total_drops),
            ("netsim.down_link_drops".into(), self.down_link_drops),
        ];
        let named = |prefix: &str, entries: &[(&str, u64)]| -> Vec<(String, u64)> {
            entries.iter().map(|&(n, v)| (format!("{prefix}.{n}"), v)).collect()
        };
        out.extend(named("netsim.profile", &self.profile.counter_entries()));
        let sum = |f: fn(&ReceiverShared) -> u64| self.receivers.iter().map(|r| f(&r.stats)).sum();
        out.extend(named(
            "receivers",
            &[
                ("reports_sent", sum(|s| s.reports_sent)),
                ("register_retries", sum(|s| s.registers_sent.saturating_sub(1))),
                ("unilateral_actions", sum(|s| s.unilateral_actions)),
                ("dead_air_rejoins", sum(|s| s.rejoins)),
                ("suggestions_received", sum(|s| s.suggestions_received)),
            ],
        ));
        for (role, c) in [("controller", &self.controller), ("standby", &self.standby)] {
            if let Some(c) = c {
                out.extend(named(role, &c.counter_entries()));
            }
        }
        out.sort_unstable();
        out
    }
}

/// Run one scenario to completion.
pub fn run(scenario: &Scenario) -> ScenarioResult {
    let tel = &scenario.telemetry;
    tel.emit(&Record::Run {
        label: "scenario".to_string(),
        seed: scenario.seed,
        duration_ns: scenario.duration.nanos(),
    });
    let setup_span = Span::new();
    let topo = &scenario.topo;
    let sim_cfg = SimConfig {
        seed: scenario.seed,
        multicast: netsim::MulticastConfig { leave_latency: scenario.leave_latency },
        queue: scenario.queue_backend,
    };
    let mut sim = topo.instantiate(sim_cfg);

    // Sessions: dense ids from the source roles.
    let mut sources = topo.sources();
    sources.sort_by_key(|&(_, s)| s);
    assert!(
        sources.iter().enumerate().all(|(i, &(_, s))| s == i as u32),
        "session ids must be dense 0..n"
    );

    // One multicast group per layer per session, rooted at the source node.
    let mut catalog = SessionCatalog::new();
    for &(root, session) in &sources {
        let groups: Vec<GroupId> =
            (0..scenario.layers.layer_count()).map(|_| sim.create_group(root)).collect();
        catalog.add(SessionDef {
            id: SessionId(session),
            source: root,
            groups,
            spec: scenario.layers.clone(),
        });
    }
    let catalog = catalog.share();

    // Controller (TopoSense only) — add first so suggestions start early.
    let mut standby_handle = None;
    let controller_handle = if let ControlMode::TopoSense { staleness } = scenario.control {
        let ctrl_node = topo.controller();
        let apply_outages = |mut c: Controller| {
            for &(from, until) in &scenario.discovery_outages {
                c = c.with_discovery_outage(from, until);
            }
            for (from, until, hidden) in &scenario.discovery_partial_outages {
                c = c.with_discovery_partial_outage(*from, *until, hidden.clone());
            }
            c
        };
        let (ctrl, handle) = Controller::new(
            std::sync::Arc::clone(&catalog),
            scenario.cfg,
            staleness,
            derive_stream_seed(scenario.seed, "controller", 0),
        );
        let mut ctrl = apply_outages(ctrl).with_telemetry(scenario.telemetry.clone());
        if let Some(standby_node) = scenario.standby {
            ctrl = ctrl.with_peer(standby_node);
            let (standby, handle) = Controller::new(
                std::sync::Arc::clone(&catalog),
                scenario.cfg,
                staleness,
                derive_stream_seed(scenario.seed, "controller", 1),
            );
            // The standby shares the handle's records and timers: it only
            // emits once active, so the audit stream follows whichever
            // controller is steering. Its counts stay in its own stats.
            let standby = apply_outages(standby)
                .with_telemetry(scenario.telemetry.clone())
                .with_peer(ctrl_node)
                .as_standby();
            sim.add_app(standby_node, Box::new(standby));
            standby_handle = Some(handle);
        }
        sim.add_app(ctrl_node, Box::new(ctrl));
        Some((ctrl_node, handle))
    } else {
        None
    };

    // Sources (per-session traffic overrides apply here).
    for &(node, session) in &sources {
        let def = catalog.get(SessionId(session)).clone();
        let traffic = scenario
            .session_traffic
            .iter()
            .rev()
            .find(|&&(s, _)| s == session)
            .map(|&(_, t)| t)
            .unwrap_or(scenario.traffic);
        let src = LayeredSource::new(
            def,
            traffic,
            derive_stream_seed(scenario.seed, "source", session as u64),
        );
        sim.add_app(node, Box::new(src));
    }

    // Receivers.
    let optima = oracle::optimal_levels(topo, &scenario.layers, 1.0);
    let mut handles: Vec<(NodeId, netsim::AppId, u32, u32, ReceiverHandle)> = Vec::new();
    for (i, (node, (session, set))) in topo.receivers().into_iter().enumerate() {
        let def = catalog.get(SessionId(session)).clone();
        let label = format!("s{session}.r{i}");
        let seed = derive_stream_seed(scenario.seed, "receiver", i as u64);
        let control = scenario
            .session_control
            .iter()
            .rev()
            .find(|&&(s, _)| s == session)
            .map(|&(_, c)| c)
            .unwrap_or(scenario.control);
        let (app, handle) = match control {
            ControlMode::TopoSense { .. } => {
                let ctrl_node = controller_handle
                    .as_ref()
                    .map(|&(n, _)| n)
                    .expect("TopoSense mode has a controller");
                let (rx, handle) = Receiver::new(def, ctrl_node, scenario.cfg, seed, &label);
                (sim.add_app(node, Box::new(rx)), handle)
            }
            ControlMode::Rlm => {
                let (rx, handle) = RlmReceiver::new(def, seed, &label);
                (sim.add_app(node, Box::new(rx)), handle)
            }
            ControlMode::Fixed(level) => {
                let (rx, handle) = FixedReceiver::new(def, level);
                (sim.add_app(node, Box::new(rx)), handle)
            }
        };
        handles.push((node, app, session, set, handle));
    }

    // Faults. An empty plan is not installed at all, keeping fault-free
    // runs on exactly today's event sequence.
    if !scenario.faults.is_empty() {
        sim.install_faults(&scenario.faults);
    }
    let setup_wall_ns = setup_span.elapsed_ns();
    tel.record_span_ns("scenario_setup", setup_wall_ns);

    // Run.
    let run_span = Span::new();
    sim.run_until(SimTime::ZERO + scenario.duration);
    let run_wall_ns = run_span.elapsed_ns();
    tel.record_span_ns("scenario_run", run_wall_ns);

    // Harvest.
    let harvest_span = Span::new();
    // `optimal_levels` lists its entries in `TopoSpec::receivers()` order,
    // the order `handles` was filled in.
    let receivers: Vec<ReceiverOutcome> = handles
        .into_iter()
        .zip(optima)
        .map(|((node, app, session, set, handle), entry)| {
            assert_eq!(entry.node, node, "oracle entries follow the receiver order");
            let stats = handle.lock().unwrap().clone();
            ReceiverOutcome { node, app, session, set, optimal: entry.level, stats }
        })
        .collect();
    let net = sim.network();
    // Every finished run must leave the SoA multicast state internally
    // consistent — bitmaps, sorted member vectors, and desire refcounts are
    // re-derived from first principles and cross-checked.
    net.multicast_audit().expect("SoA multicast invariants violated after run");
    let total_drops: u64 = (0..net.link_count() as u32)
        .map(|i| net.link(netsim::DirLinkId(i)).stats.dropped_packets)
        .sum();
    let down_link_drops: u64 = (0..net.link_count() as u32)
        .map(|i| net.link(netsim::DirLinkId(i)).stats.down_dropped_packets)
        .sum();
    let controller = controller_handle.map(|(_, h)| h.lock().unwrap().clone());
    let standby = standby_handle.map(|h| h.lock().unwrap().clone());
    let control_bytes =
        receivers.iter().map(|r| r.stats.reports_sent * Report::WIRE_SIZE as u64).sum::<u64>()
            + controller
                .as_ref()
                .map(|c| c.suggestions_sent * Suggestion::WIRE_SIZE as u64)
                .unwrap_or(0);
    let mut result = ScenarioResult {
        receivers,
        controller,
        standby,
        duration: scenario.duration,
        total_drops,
        down_link_drops,
        control_bytes,
        events: sim.events_processed(),
        setup_wall_ns,
        run_wall_ns,
        harvest_wall_ns: 0,
        profile: sim.profile(),
    };

    // Close the stream: one "apply" hop per layer change a suggestion
    // actually caused (recorded receiver-side, closing each causal chain),
    // then the run's counters, then the timers.
    if tel.is_enabled() {
        for r in &result.receivers {
            r.stats.emit_apply_hops(tel, r.session as u64, r.app.0 as u64);
        }
        tel.emit(&Record::Counters { t_ns: sim.now().nanos(), entries: result.counters() });
    }
    result.harvest_wall_ns = harvest_span.elapsed_ns();
    tel.record_span_ns("scenario_harvest", result.harvest_wall_ns);
    tel.emit_timers();
    tel.flush();
    result
}

/// Run many scenarios concurrently ([`netsim::par`]), preserving input order
/// in the results. Each simulation is single-threaded and fully
/// deterministic, so the parallel sweep returns exactly what a sequential
/// loop would — only faster on multi-core hosts.
pub fn run_many(scenarios: &[Scenario]) -> Vec<ScenarioResult> {
    netsim::par::map(scenarios.iter(), run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::generators;

    #[test]
    fn topology_a_scenario_assembles_and_runs() {
        let s = Scenario::new(generators::topology_a_default(2), TrafficModel::Cbr, 1)
            .with_duration(SimDuration::from_secs(60));
        let r = run(&s);
        assert_eq!(r.receivers.len(), 4);
        assert!(r.controller.is_some());
        let c = r.controller.as_ref().unwrap();
        assert!(c.intervals >= 25);
        assert_eq!(c.registered, 4);
        // Oracle optima as designed: 2 for set 0, 4 for set 1.
        for rec in &r.receivers {
            let expect = if rec.set == 0 { 2 } else { 4 };
            assert_eq!(rec.optimal, expect);
            assert!(rec.stats.reports_sent > 0);
        }
    }

    #[test]
    fn mean_relative_deviation_is_none_without_receivers() {
        // Regression: this used to assert (and panic) on an empty receiver
        // set instead of reporting "nothing to average".
        let r = ScenarioResult {
            receivers: Vec::new(),
            controller: None,
            standby: None,
            duration: SimDuration::from_secs(10),
            total_drops: 0,
            down_link_drops: 0,
            control_bytes: 0,
            events: 0,
            setup_wall_ns: 0,
            run_wall_ns: 0,
            harvest_wall_ns: 0,
            profile: netsim::SimProfile::default(),
        };
        assert_eq!(r.mean_relative_deviation(SimTime::ZERO, SimTime::from_secs(10)), None);
    }

    /// `run` at 10,000 receivers: set-up (the oracle included) is linear
    /// enough for tier-1. Every bottleneck is a last mile on a fat
    /// backbone, so each receiver's optimum is the level its own leaf link
    /// fits — a closed form the oracle does not compute.
    #[test]
    fn ten_thousand_receivers_get_their_last_mile_optimum() {
        let lastmile = [40.0, 110.0, 250.0, 500.0];
        let topo = crate::largetree::heterogeneous_lastmile(10, 4, &lastmile);
        let s =
            Scenario::new(topo, TrafficModel::Cbr, 1).with_duration(SimDuration::from_millis(500));
        let fits: Vec<u8> =
            lastmile.iter().map(|kbps| s.layers.level_fitting(kbps * 1000.0)).collect();
        assert_eq!(fits, [1, 2, 3, 4], "the four classes land on four levels");
        let r = run(&s);
        assert_eq!(r.receivers.len(), 10_000);
        for rec in &r.receivers {
            assert_eq!(rec.optimal, fits[rec.set as usize], "receiver at {:?}", rec.node);
        }
    }

    #[test]
    fn rlm_mode_runs_without_controller() {
        let s = Scenario::new(generators::topology_b_default(2), TrafficModel::Cbr, 1)
            .with_control(ControlMode::Rlm)
            .with_duration(SimDuration::from_secs(30));
        let r = run(&s);
        assert!(r.controller.is_none());
        assert_eq!(r.receivers.len(), 2);
        for rec in &r.receivers {
            assert!(rec.stats.final_level() >= 1);
        }
    }

    #[test]
    fn fixed_mode_pins_levels() {
        let s = Scenario::new(generators::topology_b_default(2), TrafficModel::Cbr, 1)
            .with_control(ControlMode::Fixed(3))
            .with_duration(SimDuration::from_secs(20));
        let r = run(&s);
        for rec in &r.receivers {
            assert_eq!(rec.stats.final_level(), 3);
            assert_eq!(rec.stats.changes.len(), 1);
        }
    }

    #[test]
    fn determinism_across_identical_runs() {
        let go = || {
            let s =
                Scenario::new(generators::topology_a_default(1), TrafficModel::Vbr { p: 3.0 }, 42)
                    .with_duration(SimDuration::from_secs(90));
            let r = run(&s);
            (
                r.events,
                r.total_drops,
                r.receivers.iter().map(|x| x.stats.changes.clone()).collect::<Vec<_>>(),
            )
        };
        let a = go();
        let b = go();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
    }

    #[test]
    fn different_seeds_differ() {
        let go = |seed| {
            let s = Scenario::new(
                generators::topology_a_default(1),
                TrafficModel::Vbr { p: 3.0 },
                seed,
            )
            .with_duration(SimDuration::from_secs(90));
            run(&s).events
        };
        assert_ne!(go(1), go(2));
    }
}
