//! Deterministic tests for the sharded parallel runner (DESIGN.md §17):
//! fault/handoff interactions, drop attribution across shard boundaries,
//! and the release-profile regression gates the CI `netsim-sharded` job
//! runs with `--ignored` (single-shard overhead, 1M-receiver wall budget).

use std::time::Instant;

use netsim::{DirLinkId, FaultPlan, QueueBackend, SimDuration, SimTime};
use scenarios::largetree::{federated_media_sharded, federated_media_world, FederationWorldParams};

/// A fault that lands *during* a handoff: the destination border crashes
/// while packets are crossing the inter-domain mailbox. The injected
/// arrivals die at the dead border, the domain's tree links flush, and the
/// drop accounting must stay attributed to the owning shard's `LinkStats` —
/// bit-identical to the sequential oracle through the id map.
#[test]
fn fault_during_handoff_keeps_drop_attribution_per_shard() {
    let mut w = federated_media_world(FederationWorldParams {
        domains: 2,
        fanout: 2,
        depth: 2,
        sink_stride: 1,
        rate_pps: 200,
        handoff_delay: SimDuration::from_millis(10),
        backend: QueueBackend::CalendarWheel,
        trace_cap: 1 << 16,
    });
    // Crash a mid-tier router while media is flowing (its upstream keeps
    // forwarding into the blackhole — dead arrivals must be charged to the
    // feeding link), then the border itself across several barrier epochs
    // while handoffs keep arriving at the dead node.
    let border = w.domain_nodes[0][0];
    let mid = w.domain_nodes[0][1];
    let plan = FaultPlan::new()
        .node_outage(mid, SimTime::from_millis(300), SimTime::from_millis(800))
        .node_outage(border, SimTime::from_millis(1200), SimTime::from_millis(1600));
    w.install_faults(&plan);
    w.run_until(SimTime::from_secs(2));

    // Every per-link counter matches the oracle through the id map, and the
    // faulted domain recorded fault loss in its *own* shard's stats.
    let mut domain0_down_drops = 0;
    for (oid, &(shard, local)) in w.link_map.iter().enumerate() {
        let o = w.oracle.network().link(DirLinkId(oid as u32)).stats;
        let s = w.sharded.shard(shard).network().link(local).stats;
        assert_eq!(s, o, "stats diverged on oracle link {oid} (shard {shard})");
        if shard == 1 {
            domain0_down_drops += s.down_dropped_packets;
        }
    }
    assert!(
        domain0_down_drops > 0,
        "the crashed domain must charge its fault loss to its own shard's links"
    );
    assert_eq!(w.sharded.events_processed(), w.oracle.events_processed());
    let (s, o) = w.delivered();
    assert_eq!(s, o);
    let p = w.sharded.profile();
    assert!(p.shard_handoffs > 0, "traffic must actually have crossed shards");
    assert!(p.shard_barrier_epochs > 100, "2 s at 10 ms lookahead spans many epochs");
}

/// Handoffs captured in the final epoch are still injected (at a time past
/// the deadline) rather than silently lost: resuming the run must deliver
/// them exactly like the oracle does.
#[test]
fn resumed_run_delivers_tail_handoffs() {
    let mut w = federated_media_world(FederationWorldParams::default());
    w.run_until(SimTime::from_millis(700));
    w.run_until(SimTime::from_millis(1400));
    w.run_until(SimTime::from_secs(2));
    let (s, o) = w.delivered();
    assert_eq!(s, o);
    assert!(s > 0);
    assert_eq!(w.sharded.events_processed(), w.oracle.events_processed());
}

/// Profile plumbing: the shard counters surface through the merged profile
/// with per-shard event extremes folded in.
#[test]
fn sharded_profile_reports_barrier_counters() {
    let mut w = federated_media_sharded(FederationWorldParams::default());
    w.sharded.run_until(SimTime::from_secs(1));
    let p = w.sharded.profile();
    assert_eq!(p.shards, 4);
    assert!(p.shard_handoffs > 0);
    assert!(p.shard_barrier_epochs >= 50, "1 s at 20 ms lookahead");
    assert!(p.shard_events_min <= p.shard_events_max);
    assert!(p.shard_events_max <= p.events_total);
    let names: Vec<&str> = p.counter_entries().iter().map(|&(n, _)| n).collect();
    for want in ["shard.count", "shard.handoffs", "shard.barrier_epochs", "shard.lookahead_stalls"]
    {
        assert!(names.contains(&want), "profile must export {want}");
    }
}

/// Release-profile gate (CI `netsim-sharded` job): on a 1-shard topology the
/// sharded runner is the plain wheel plus one epoch check — it must not be
/// slower than the bare simulator beyond noise.
#[test]
#[ignore = "release-profile regression gate; run with --ignored"]
fn single_shard_is_not_slower_than_bare_wheel() {
    let horizon = SimTime::from_secs(20);
    // The sequential half of a one-domain world: a single simulator holding
    // the core and the domain, run bare and then as the runner's only shard.
    let world = || {
        federated_media_world(FederationWorldParams {
            domains: 1,
            fanout: 8,
            depth: 3,
            sink_stride: 2,
            rate_pps: 400,
            ..FederationWorldParams::default()
        })
        .oracle
    };
    let bare_t = {
        let mut sim = world();
        let start = Instant::now();
        sim.run_until(horizon);
        (start.elapsed(), sim.events_processed())
    };
    let sharded_t = {
        let mut s = netsim::ShardedSim::new(vec![world()]);
        let start = Instant::now();
        s.run_until(horizon);
        (start.elapsed(), s.events_processed())
    };
    assert_eq!(bare_t.1, sharded_t.1, "same world, same events");
    // Generous noise margin: the wrapper adds one clock comparison per run.
    assert!(
        sharded_t.0 < bare_t.0.mul_f64(1.5),
        "1-shard sharded run regressed: {:?} vs bare {:?}",
        sharded_t.0,
        bare_t.0
    );
}

/// Release-profile gate (CI `netsim-sharded` job): the full federation
/// campaign world — 10 domains x fanout 10 x depth 5 = 1,000,000 receivers
/// — builds and carries packet-level media end to end inside the wall
/// budget. The batched join grafts each domain's 111,110-link tree in one
/// sweep; the per-domain wheels then run the media fan-out.
#[test]
#[ignore = "release-profile wall-budget gate; run with --ignored"]
fn million_receiver_federation_within_wall_budget() {
    let start = Instant::now();
    let mut w = federated_media_sharded(FederationWorldParams {
        domains: 10,
        fanout: 10,
        depth: 5,
        sink_stride: 1,
        rate_pps: 40,
        handoff_delay: SimDuration::from_millis(20),
        backend: QueueBackend::CalendarWheel,
        trace_cap: 0,
    });
    assert_eq!(w.params.receivers(), 1_000_000);
    let built = start.elapsed();
    w.sharded.run_until(SimTime::from_millis(1500));
    let ran = start.elapsed() - built;
    let events = w.sharded.events_processed();
    let delivered = w.delivered_total();
    // The process-wide peak: the ignored gates share one test process and
    // may run concurrently, so this is a ceiling on the world, not its size.
    let vm_hwm = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| s.lines().find_map(|l| l.strip_prefix("VmHWM:").map(|v| v.trim().to_owned())))
        .unwrap_or_else(|| "n/a".to_owned());
    eprintln!(
        "1M-receiver federation: build {built:?}, run {ran:?}, {events} events, \
         {delivered} delivered, {:.1} Mevents/s, VmHWM {vm_hwm}",
        events as f64 / ran.as_secs_f64() / 1e6
    );
    assert!(delivered > 0, "media must reach the receivers");
    for d in 1..w.sharded.shard_count() {
        w.sharded.shard(d).network().multicast_audit().unwrap();
    }
    // Wall budget for the whole thing (build + run) on one core.
    assert!(start.elapsed().as_secs() < 300, "1M-receiver campaign blew the wall budget");
}
