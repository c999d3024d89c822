//! `fedpkt_40k` — a federated packet world through `ShardedSim`: a core
//! shard feeding 4 domains of 10,000 sinks each (fanout 10, depth 4) at
//! 200 packets/s across ~20 ms handoffs.
//!
//! Why it exists: netsim at a working set that no longer fits in cache, on
//! every core — barrier epochs, mailboxes, shard imbalance — with the
//! build and the 40k batched joins as its set-up. It bypasses toposense
//! entirely, so a controller or kernel change must leave it where it was.
//!
//! One step is a 100 ms slice of simulated time; a work unit is a netsim
//! event. The feed period divides the slice, so once the pipeline is full
//! every slice delivers exactly `sinks x rate x 0.1 s` packets — the
//! analytic count each slice is checked against.

use super::{mix, peak_rss_mb, profile_layers, set_up, Clock, Outcome, Run};
use crate::probes;
use netsim::{QueueBackend, SimDuration, SimTime};
use scenarios::largetree::{federated_media_sharded, FederationWorldParams};

/// Simulated time before timing starts: five 200 ms hops plus the handoff
/// is 1.02 s of latency, so the first packets reach the sinks just after
/// 1 s and steady state holds from 1.5 s on.
const WARMUP: SimTime = SimTime(1_500_000_000);
const SLICE: SimDuration = SimDuration(100_000_000);
/// Timed slices before the checkpoint.
const CHECKPOINT_SLICES: usize = 30;
const RATE_PPS: u64 = 200;

pub fn run(run: &mut Run<'_>) -> Outcome {
    let (domains, depth) = if run.smoke() { (3, 2) } else { (4, 4) };
    // The one free input of this generator: the inter-domain latency (and
    // with it the barrier epoch), 20.000–20.999 ms.
    let handoff_us = 20_000 + run.derive("perf/fedpkt/handoff", 0) % 1_000;
    let params = FederationWorldParams {
        domains,
        fanout: 10,
        depth,
        sink_stride: 1,
        rate_pps: RATE_PPS,
        handoff_delay: SimDuration::from_micros(handoff_us),
        backend: QueueBackend::CalendarWheel,
        trace_cap: 0,
    };
    let mut out = Outcome::default();
    let mut world = set_up(run, &mut out, || federated_media_sharded(params));
    out.workers = world.sharded.workers();
    // Shards run in parallel from here on; set-up does not.
    run.calib.threads = out.workers;
    let per_slice = params.receivers() as u64 * RATE_PPS * SLICE.nanos() / 1_000_000_000;

    let sim = &mut world.sharded;
    run.tracer.time("warmup", || sim.run_until(WARMUP));

    let clock = Clock::start(run.seconds, CHECKPOINT_SLICES);
    let mut deadline = WARMUP;
    let mut slice = 0usize;
    let (mut loop_ns, mut loop_events) = (0u64, 0u64);
    while clock.keep_going(slice) {
        slice += 1;
        deadline += SLICE;
        let events_before = world.sharded.events_processed();
        let delivered_before = world.delivered_total();
        let open = run.tracer.enter("step");
        let sim = &mut world.sharded;
        let (_, t) = run.timed("netsim.sharded_run_until", || sim.run_until(deadline));
        run.tracer.exit(open);
        let events = world.sharded.events_processed() - events_before;
        out.step(t);
        out.work_per_s.push(events as f64 / (t.ns / 1e9));
        loop_ns += t.raw_ns;
        loop_events += events;
        out.checks.check(
            world.delivered_total() - delivered_before == per_slice,
            "fedpkt_40k: a slice delivers sinks x rate x slice packets",
        );

        if slice == CHECKPOINT_SLICES {
            out.peak_rss_mb = peak_rss_mb();
            let profile = world.sharded.profile();
            let mut h = mix(0, world.sharded.events_processed());
            h = mix(h, world.delivered_total());
            h = mix(h, profile.drops_queue_full);
            out.sim_digest = mix(h, profile.shard_handoffs);
            out.checks.check(profile.shard_handoffs > 0, "fedpkt_40k: packets crossed shards");
            if run.tracer.is_keeping() {
                profile_layers(&mut out, &profile);
                out.layer("netsim.events_per_step", loop_events as f64 / slice as f64);
                out.layer(
                    "netsim.shard_event_imbalance",
                    profile.shard_events_max as f64 / profile.shard_events_min.max(1) as f64,
                );
            }
        }
    }
    for i in 0..world.sharded.shard_count() {
        out.checks.check(
            world.sharded.shard(i).network().multicast_audit().is_ok(),
            "fedpkt_40k: shard multicast state audits clean",
        );
    }

    if run.tracer.is_keeping() {
        out.layer("netsim.loop_ns_per_event", loop_ns as f64 / loop_events as f64);
        drop(world);
        probes::build_and_graft(run, &mut out);
    }
    out
}
