//! Differential twin for the netsim fast path (DESIGN.md §12).
//!
//! The calendar-wheel event queue is the fast default; the binary heap it
//! replaced stays behind `SimConfig::queue` as the ordering oracle. These
//! tests pin the contract that makes that switch safe: for any topology,
//! traffic load, and fault plan, the two backends must produce **the same
//! run** — same event count, same deliveries, same structured trace, same
//! per-link counters — because both implement the identical
//! `(time, insertion-seq)` order. A divergence anywhere is a wheel bug, not
//! a tolerance to calibrate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use netsim::rng::check;
use netsim::sim::{NetworkBuilder, SimConfig};
use netsim::trace::{Ring, TraceEvent};
use netsim::{
    App, Ctx, DirLinkId, FaultPlan, GroupId, LinkConfig, LinkStats, NodeId, Packet, QueueBackend,
    SessionId, SimDuration, SimTime,
};
use scenarios::chaos::{
    self, discovery_outage, link_flap, partial_discovery_outage, random_chaos, router_crash,
};
use scenarios::largetree::{federated_media_world, FederatedMediaWorld, FederationWorldParams};
use scenarios::{run, runner, Scenario};
use topology::generators;
use traffic::TrafficModel;

mod trees;

/// Timer-driven CBR source multicasting from the tree root.
struct Source {
    group: GroupId,
    rate_pps: u64,
    size: u32,
    seq: u64,
}

impl App for Source {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1), 0);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        ctx.send_media(self.group, SessionId(0), 0, self.seq, self.size);
        self.seq += 1;
        ctx.set_timer(SimDuration(1_000_000_000 / self.rate_pps), 0);
    }
}

/// Counting receiver.
struct Sink {
    group: GroupId,
    delivered: Arc<AtomicU64>,
}

impl App for Sink {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.join(self.group);
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: &Packet) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }
}

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct Digest {
    events: u64,
    delivered: u64,
    live: usize,
    trace: Vec<TraceEvent>,
    links: Vec<LinkStats>,
}

/// Link capacities mixed so some worlds congest and some do not.
const CAPS_KBPS: [f64; 4] = [150.0, 500.0, 2_000.0, 10_000.0];

/// Build a random world from raw drawn vectors and run it for 3 s.
///
/// `parents[i] <= i` is node `i+1`'s parent; `caps`/`sinks` are indexed
/// cyclically. Each raw fault is `(target, kind, from_ms, len_ms)` with
/// kind 0 = duplex link outage, 1 = node outage, 2 = permanent node crash.
#[allow(clippy::too_many_arguments)]
fn run_world(
    parents: &[usize],
    caps: &[usize],
    sinks: &[bool],
    rate_pps: u64,
    size: u32,
    faults: &[(u64, usize, u64, u64)],
    backend: QueueBackend,
) -> Digest {
    let n = parents.len() + 1;
    let mut nb = NetworkBuilder::new(SimConfig { queue: backend, ..SimConfig::default() });
    let mut nodes = vec![nb.add_node("root")];
    let mut links = Vec::new();
    for (i, &p) in parents.iter().enumerate() {
        let node = nb.add_node("n");
        let parent = nodes[p];
        let cfg = LinkConfig::kbps(CAPS_KBPS[caps[i % caps.len()] % CAPS_KBPS.len()]);
        links.push(nb.add_link(parent, node, cfg));
        nodes.push(node);
    }
    let mut sim = nb.build();
    sim.trace = Ring::new(1 << 20);
    let group = sim.create_group(nodes[0]);
    let delivered = Arc::new(AtomicU64::new(0));
    let mut any_sink = false;
    for i in 1..n {
        if sinks[(i - 1) % sinks.len()] {
            sim.add_app(nodes[i], Box::new(Sink { group, delivered: Arc::clone(&delivered) }));
            any_sink = true;
        }
    }
    if !any_sink {
        sim.add_app(nodes[n - 1], Box::new(Sink { group, delivered: Arc::clone(&delivered) }));
    }
    sim.add_app(nodes[0], Box::new(Source { group, rate_pps, size, seq: 0 }));

    let mut plan = FaultPlan::new();
    for &(target, kind, from_ms, len_ms) in faults {
        let from = SimTime::from_millis(from_ms);
        let until = SimTime::from_millis(from_ms + len_ms);
        match kind {
            0 => plan = plan.link_outage(links[target as usize % links.len()], from, until),
            1 => plan = plan.node_outage(nodes[1 + target as usize % (n - 1)], from, until),
            _ => plan = plan.node_crash(nodes[1 + target as usize % (n - 1)], from),
        }
    }
    if !plan.is_empty() {
        sim.install_faults(&plan);
    }

    sim.run_until(SimTime::from_secs(3));
    let net = sim.network();
    Digest {
        events: sim.events_processed(),
        delivered: delivered.load(Ordering::Relaxed),
        live: sim.packets_live(),
        trace: sim.trace.items(),
        links: (0..net.link_count() as u32).map(|i| net.link(netsim::DirLinkId(i)).stats).collect(),
    }
}

/// The twin itself: random topology + traffic + fault plan, run under
/// both backends — every observable must match exactly.
#[test]
fn wheel_matches_heap_on_random_worlds() {
    check("wheel_matches_heap_on_random_worlds", 24, |g| {
        let len = g.range_u64(3, 24) as usize;
        let parents = trees::parents(g, len);
        let caps: Vec<usize> = (0..g.range_u64(1, 8)).map(|_| g.range_u64(0, 4) as usize).collect();
        let sinks: Vec<bool> = (0..g.range_u64(1, 8)).map(|_| g.chance(0.5)).collect();
        let rate_pps = g.range_u64(20, 200);
        let size = g.range_u64(200, 1400) as u32;
        let faults: Vec<(u64, usize, u64, u64)> = (0..g.range_u64(0, 4))
            .map(|_| {
                let target = g.range_u64(0, 1000);
                (target, g.range_u64(0, 3) as usize, g.range_u64(200, 2500), g.range_u64(100, 1500))
            })
            .collect();
        let run = |backend| run_world(&parents, &caps, &sinks, rate_pps, size, &faults, backend);
        let (wheel, heap) = (run(QueueBackend::CalendarWheel), run(QueueBackend::BinaryHeap));
        let at = format!(
            "parents {parents:?}, caps {caps:?}, sinks {sinks:?}, {rate_pps} pps, {size} B, \
             faults {faults:?}"
        );
        assert_eq!(wheel.events, heap.events, "{at}");
        assert_eq!(wheel.delivered, heap.delivered, "{at}");
        assert_eq!(wheel.live, heap.live, "{at}");
        assert_eq!(&wheel.links, &heap.links, "{at}");
        assert_eq!(&wheel.trace, &heap.trace, "{at}");
        // The workload was real: something got delivered unless a fault cut
        // every sink off (which links-stats equality already covers).
        assert!(wheel.events > 0, "{at}");
    });
}

/// Far-future events (beyond the wheel's ~52-day horizon, in its overflow
/// bucket) must obey the same `(time, seq)` total order as everything else
/// — in particular when the cursor advances to within the horizon of an
/// overflow entry while the wheel is still busy, and later events are then
/// scheduled in-wheel at or after the overflow entry's time. The old code
/// only respilled the bucket once the wheel drained, letting those later
/// events jump the queue.
#[test]
fn far_future_events_keep_total_order_against_heap_oracle() {
    use netsim::rng::RngStream;
    use netsim::{Event, EventQueue};
    let timer = |token: u64| Event::Timer { app: netsim::AppId(0), token };
    let horizon = 1u64 << 52;
    let mut rng = RngStream::derive(0xFA2F, "differential/far-future");
    let mut wheel = EventQueue::with_backend(QueueBackend::CalendarWheel);
    let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
    let mut now = 0u64;
    let mut token = 0u64;
    let sched = |w: &mut EventQueue, h: &mut EventQueue, t: u64, tok: u64| {
        w.schedule(SimTime(t), timer(tok));
        h.schedule(SimTime(t), timer(tok));
    };
    for _ in 0..6_000 {
        if rng.chance(0.55) || wheel.is_empty() {
            // Heavy tail past the horizon, plus exact-collision times so
            // the seq tie-break is exercised across the overflow boundary.
            let t = match rng.range_u64(0, 100) {
                0..=29 => now + rng.range_u64(0, 1 << 20),
                30..=54 => now + horizon + rng.range_u64(0, 1 << 24),
                55..=74 => now + horizon + (1 << 22), // deliberate collisions
                _ => now + rng.range_u64(0, horizon / 2),
            };
            sched(&mut wheel, &mut heap, t, token);
            token += 1;
        } else {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b, "wheel diverged from heap oracle mid-run");
            if let Some((t, _)) = a {
                now = t.nanos();
            }
        }
    }
    loop {
        let a = wheel.pop();
        let b = heap.pop();
        assert_eq!(a, b, "wheel diverged from heap oracle during drain");
        if a.is_none() {
            break;
        }
    }
}

/// Every canned chaos plan — the full controller/receiver stack under
/// faults — produces a byte-identical fingerprint (events, drops, control
/// counters, and each receiver's full suggestion/level-change series) under
/// both backends.
#[test]
fn chaos_plans_are_backend_identical() {
    type Plan = fn(u64) -> (Scenario, SimTime);
    let plans: [(&str, Plan); 5] = [
        ("link_flap", link_flap),
        ("router_crash", router_crash),
        ("discovery_outage", discovery_outage),
        ("partial_discovery_outage", partial_discovery_outage),
        ("random_chaos", random_chaos),
    ];
    for (name, plan) in plans {
        let (s, _heal) = plan(7);
        let wheel =
            chaos::fingerprint(&run(&s.clone().with_queue_backend(QueueBackend::CalendarWheel)));
        let heap = chaos::fingerprint(&run(&s.with_queue_backend(QueueBackend::BinaryHeap)));
        assert_eq!(wheel, heap, "{name}: wheel and heap runs diverged");
    }
}

/// The parallel seed sweep returns exactly what a sequential loop over the
/// same seeds would, in input order.
#[test]
fn parallel_seed_sweep_matches_sequential() {
    let base = Scenario::new(generators::topology_b_default(4), TrafficModel::Vbr { p: 3.0 }, 1)
        .with_duration(SimDuration::from_secs(30));
    let seeds = [11u64, 12, 13, 14];
    let swept = runner::run_seeds(&base, &seeds);
    assert_eq!(swept.len(), seeds.len());
    for (i, r) in swept.iter().enumerate() {
        let solo = run(&base.clone().with_seed(seeds[i]));
        assert_eq!(
            chaos::fingerprint(r),
            chaos::fingerprint(&solo),
            "sweep result {i} (seed {}) diverged from a solo run",
            seeds[i]
        );
    }
}

// ---------------------------------------------------------------------------
// Sharded parallel runner vs the sequential oracle (DESIGN.md §17)
// ---------------------------------------------------------------------------

/// Canonically ordered trace: `(time, rendered event)` sorted, so the merged
/// per-shard streams compare against the oracle's single stream without
/// depending on the interleaving of same-instant events across shards.
fn canonical_trace(events: Vec<TraceEvent>) -> Vec<(u64, String)> {
    let mut v: Vec<(u64, String)> =
        events.into_iter().map(|e| (e.time().nanos(), format!("{e:?}"))).collect();
    v.sort();
    v
}

/// Run both halves of a federated twin and require every observable to
/// match: event totals, live packets, per-domain deliveries, per-link stats
/// through the id map, and the merged-stream trace fingerprint with shard
/// ids remapped to oracle ids. Finishes with a full SoA multicast audit of
/// every simulator.
fn assert_federated_twin_matches(w: &mut FederatedMediaWorld, until: SimTime) {
    w.run_until(until);

    assert_eq!(w.sharded.events_processed(), w.oracle.events_processed(), "event totals diverged");
    assert_eq!(w.sharded.packets_live(), w.oracle.packets_live(), "live packets diverged");
    for (d, (s, o)) in w.delivered_sharded.iter().zip(&w.delivered_oracle).enumerate() {
        assert_eq!(
            s.load(Ordering::Relaxed),
            o.load(Ordering::Relaxed),
            "domain {d} deliveries diverged"
        );
    }

    for (oid, &(shard, local)) in w.link_map.iter().enumerate() {
        let o = w.oracle.network().link(DirLinkId(oid as u32)).stats;
        let s = w.sharded.shard(shard).network().link(local).stats;
        assert_eq!(s, o, "stats diverged on oracle link {oid} (shard {shard})");
    }

    let shards = w.sharded.shard_count();
    let mut node_inv: Vec<Vec<u32>> =
        (0..shards).map(|s| vec![u32::MAX; w.sharded.shard(s).network().node_count()]).collect();
    for (oid, &(s, l)) in w.node_map.iter().enumerate() {
        node_inv[s][l.index()] = oid as u32;
    }
    let mut link_inv: Vec<Vec<u32>> =
        (0..shards).map(|s| vec![u32::MAX; w.sharded.shard(s).network().link_count()]).collect();
    for (oid, &(s, l)) in w.link_map.iter().enumerate() {
        link_inv[s][l.0 as usize] = oid as u32;
    }
    let mut merged = Vec::new();
    for s in 0..shards {
        for e in w.sharded.shard(s).trace.items() {
            merged.push(match e {
                TraceEvent::Drop { time, link, bytes, reason } => TraceEvent::Drop {
                    time,
                    link: DirLinkId(link_inv[s][link.0 as usize]),
                    bytes,
                    reason,
                },
                TraceEvent::LinkState { time, link, up } => TraceEvent::LinkState {
                    time,
                    link: DirLinkId(link_inv[s][link.0 as usize]),
                    up,
                },
                TraceEvent::NodeState { time, node, up } => {
                    TraceEvent::NodeState { time, node: NodeId(node_inv[s][node.index()]), up }
                }
            });
        }
    }
    assert_eq!(
        canonical_trace(merged),
        canonical_trace(w.oracle.trace.items()),
        "merged-stream trace fingerprint diverged from the sequential run"
    );

    for s in 0..shards {
        w.sharded.shard(s).network().multicast_audit().unwrap();
    }
    w.oracle.network().multicast_audit().unwrap();
}

/// The sharded tentpole contract: for any federated world shape,
/// handoff latency, queue backend, and fault plan, the parallel sharded
/// run's merged per-shard event streams must fingerprint-match the
/// sequential oracle exactly.
#[test]
fn sharded_matches_sequential_on_federated_worlds() {
    check("sharded_matches_sequential_on_federated_worlds", 10, |g| {
        let domains = g.range_u64(1, 4) as usize;
        let fanout = g.range_u64(1, 4) as usize;
        let depth = g.range_u64(1, 3) as usize;
        let sink_stride = g.range_u64(1, 3) as usize;
        let rate_pps = g.range_u64(40, 160);
        let delay_ms = g.range_u64(5, 40);
        let heap = g.chance(0.5);
        let faults: Vec<(usize, usize, usize, u64, u64)> = (0..g.range_u64(0, 4))
            .map(|_| {
                let (dsel, kind) = (g.range_u64(0, 1000) as usize, g.range_u64(0, 4) as usize);
                (
                    dsel,
                    kind,
                    g.range_u64(0, 1000) as usize,
                    g.range_u64(150, 1200),
                    g.range_u64(100, 800),
                )
            })
            .collect();
        let backend = if heap { QueueBackend::BinaryHeap } else { QueueBackend::CalendarWheel };
        let mut w = federated_media_world(FederationWorldParams {
            domains,
            fanout,
            depth,
            sink_stride,
            rate_pps,
            handoff_delay: SimDuration::from_millis(delay_ms),
            backend,
            trace_cap: 1 << 20,
        });
        let mut plan = FaultPlan::new();
        for &(dsel, kind, target, from_ms, len_ms) in &faults {
            let d = dsel % domains;
            let from = SimTime::from_millis(from_ms);
            let until = SimTime::from_millis(from_ms + len_ms);
            match kind {
                0 => {
                    let ls = &w.domain_links[d];
                    plan = plan.link_outage(ls[target % ls.len()], from, until);
                }
                1 => {
                    let ns = &w.domain_nodes[d];
                    plan = plan.node_outage(ns[target % ns.len()], from, until);
                }
                2 => {
                    let ns = &w.domain_nodes[d];
                    plan = plan.node_crash(ns[target % ns.len()], from);
                }
                _ => plan = plan.link_outage(w.core_links[d], from, until),
            }
        }
        if !plan.is_empty() {
            w.install_faults(&plan);
        }
        assert_federated_twin_matches(&mut w, SimTime::from_secs(2));
    });
}

/// The five chaos archetypes from the scenario zoo, re-expressed as
/// packet-level fault plans over the federated world — each must leave the
/// sharded run bit-identical to the sequential oracle, and the SoA
/// membership state must pass a full audit afterwards.
#[test]
fn federated_chaos_archetypes_match_sequential() {
    let mk = || {
        federated_media_world(FederationWorldParams {
            domains: 3,
            fanout: 3,
            depth: 2,
            sink_stride: 2,
            rate_pps: 120,
            handoff_delay: SimDuration::from_millis(15),
            backend: QueueBackend::CalendarWheel,
            trace_cap: 1 << 20,
        })
    };
    type PlanOf = fn(&FederatedMediaWorld) -> FaultPlan;
    let archetypes: [(&str, PlanOf); 5] = [
        ("link_flap", |w| {
            FaultPlan::new().link_flap(
                w.domain_links[0][0],
                SimTime::from_millis(300),
                SimDuration::from_millis(120),
                SimDuration::from_millis(400),
                5,
            )
        }),
        ("router_crash", |w| {
            FaultPlan::new()
                .node_outage(
                    w.domain_nodes[1][1],
                    SimTime::from_millis(400),
                    SimTime::from_millis(1400),
                )
                .node_crash(w.domain_nodes[0][2], SimTime::from_millis(900))
        }),
        ("border_outage", |w| {
            FaultPlan::new().node_outage(
                w.domain_nodes[2][0],
                SimTime::from_millis(500),
                SimTime::from_millis(1200),
            )
        }),
        ("core_partition", |w| {
            FaultPlan::new().node_partition(
                &w.core_links,
                SimTime::from_millis(600),
                SimTime::from_millis(1100),
            )
        }),
        ("random_chaos", |w| {
            let links: Vec<_> =
                w.core_links.iter().chain(w.domain_links.iter().flatten()).copied().collect();
            let nodes: Vec<_> = w.domain_nodes.iter().flatten().copied().collect();
            FaultPlan::new().chaos(
                7,
                &links,
                &nodes,
                SimTime::from_millis(200),
                SimTime::from_millis(2800),
                10,
            )
        }),
    ];
    for (name, plan_of) in archetypes {
        let mut w = mk();
        let plan = plan_of(&w);
        assert!(!plan.is_empty(), "{name}: archetype must inject something");
        w.install_faults(&plan);
        assert_federated_twin_matches(&mut w, SimTime::from_secs(3));
    }
}

// ---------------------------------------------------------------------------
// SoA membership bitmaps under churn (DESIGN.md §17)
// ---------------------------------------------------------------------------

/// Deterministic join/leave churner driven by a pre-baked schedule; re-joins
/// after a crash/restart cycle the way a real receiver would.
struct Churner {
    group: GroupId,
    schedule: Vec<(SimDuration, bool)>,
}

impl App for Churner {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (i, &(at, _)) in self.schedule.iter().enumerate() {
            ctx.set_timer(at, i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let (_, join) = self.schedule[token as usize];
        if join {
            ctx.join(self.group);
        } else {
            ctx.leave(self.group);
        }
    }
    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        ctx.join(self.group);
    }
}

/// Random tree + churn schedule + crash/restart plan under one backend.
/// Returns the event total after asserting the full SoA membership audit.
fn run_churn_world(
    parents: &[usize],
    ops: &[(usize, u64, bool)],
    faults: &[(usize, u64, u64, bool)],
    backend: QueueBackend,
) -> u64 {
    let n = parents.len() + 1;
    let mut nb = NetworkBuilder::new(SimConfig { queue: backend, ..SimConfig::default() });
    let mut nodes = vec![nb.add_node("root")];
    for &p in parents {
        let node = nb.add_node("n");
        nb.add_link(nodes[p], node, LinkConfig::kbps(2_000.0));
        nodes.push(node);
    }
    let mut sim = nb.build();
    let group = sim.create_group(nodes[0]);
    let mut scheds: Vec<Vec<(SimDuration, bool)>> = vec![Vec::new(); n];
    for &(sel, at_ms, join) in ops {
        scheds[1 + sel % (n - 1)].push((SimDuration::from_millis(at_ms), join));
    }
    for i in 1..n {
        sim.add_app(nodes[i], Box::new(Churner { group, schedule: scheds[i].clone() }));
    }
    sim.add_app(nodes[0], Box::new(Source { group, rate_pps: 50, size: 1000, seq: 0 }));
    let mut plan = FaultPlan::new();
    for &(sel, from_ms, len_ms, permanent) in faults {
        let node = nodes[1 + sel % (n - 1)];
        let from = SimTime::from_millis(from_ms);
        if permanent {
            plan = plan.node_crash(node, from);
        } else {
            plan = plan.node_outage(node, from, SimTime::from_millis(from_ms + len_ms));
        }
    }
    if !plan.is_empty() {
        sim.install_faults(&plan);
    }
    sim.run_until(SimTime::from_secs(3));
    sim.network().multicast_audit().expect("bitmaps diverged from sorted member vectors");
    sim.events_processed()
}

/// Satellite contract: the dense membership bitmaps must stay
/// bit-for-bit consistent with the sorted member vectors under
/// arbitrary join/leave/crash/restart churn — `multicast_audit`
/// recomputes every invariant from first principles — and the churned
/// run must stay identical across queue backends.
#[test]
fn membership_bitmaps_survive_churn() {
    check("membership_bitmaps_survive_churn", 24, |g| {
        let len = g.range_u64(3, 16) as usize;
        let parents = trees::parents(g, len);
        let ops: Vec<(usize, u64, bool)> = (0..g.range_u64(0, 40))
            .map(|_| (g.range_u64(0, 1000) as usize, g.range_u64(0, 2900), g.chance(0.5)))
            .collect();
        let faults: Vec<(usize, u64, u64, bool)> = (0..g.range_u64(0, 4))
            .map(|_| {
                let (sel, from_ms) = (g.range_u64(0, 1000) as usize, g.range_u64(200, 2500));
                (sel, from_ms, g.range_u64(100, 1500), g.chance(0.5))
            })
            .collect();
        let wheel = run_churn_world(&parents, &ops, &faults, QueueBackend::CalendarWheel);
        let heap = run_churn_world(&parents, &ops, &faults, QueueBackend::BinaryHeap);
        assert_eq!(wheel, heap, "parents {parents:?}, ops {ops:?}, faults {faults:?}");
    });
}
