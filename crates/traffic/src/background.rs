//! Non-conforming background traffic.
//!
//! The paper's capacity estimator must survive "transient non-conforming
//! flows" that skew bandwidth estimates. [`OnOffFlood`] is that adversary: a
//! unicast CBR blast between two nodes that switches on and off on a fixed
//! schedule, ignoring congestion entirely.

use netsim::{App, ControlBody, Ctx, NodeId, SimDuration, SimTime};
use std::sync::Arc;

/// Marker payload carried by flood packets (receivers ignore it).
#[derive(Debug)]
struct FloodPayload;

/// A periodic on/off unicast CBR flooder.
pub struct OnOffFlood {
    dest: NodeId,
    rate_bps: f64,
    packet_size: u32,
    on_at: SimTime,
    off_at: SimTime,
}

const TOKEN_TICK: u64 = 1;

impl OnOffFlood {
    /// Flood `dest` at `rate_bps` between `on_at` and `off_at`.
    pub fn new(dest: NodeId, rate_bps: f64, on_at: SimTime, off_at: SimTime) -> Self {
        assert!(rate_bps > 0.0 && off_at > on_at);
        OnOffFlood { dest, rate_bps, packet_size: 1000, on_at, off_at }
    }

    fn gap(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.packet_size as f64 * 8.0 / self.rate_bps)
    }
}

impl App for OnOffFlood {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let delay = self.on_at.since(ctx.now());
        ctx.set_timer(delay, TOKEN_TICK);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        if ctx.now() >= self.off_at {
            return;
        }
        let body: ControlBody = Arc::new(FloodPayload);
        ctx.send_control(self.dest, self.packet_size, body);
        ctx.set_timer(self.gap(), TOKEN_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::sim::{NetworkBuilder, SimConfig};
    use netsim::{LinkConfig, Packet, SimTime};
    use std::sync::atomic::{AtomicU64, Ordering};

    struct CountSink(Arc<AtomicU64>);
    impl App for CountSink {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, p: &Packet) {
            if p.control_as::<FloodPayload>().is_some() {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn flood_respects_schedule_and_rate() {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let a = b.add_node("a");
        let c = b.add_node("c");
        b.add_link(a, c, LinkConfig::kbps(10_000.0));
        let mut sim = b.build();
        let got = Arc::new(AtomicU64::new(0));
        sim.add_app(c, Box::new(CountSink(Arc::clone(&got))));
        // 80 kb/s = 10 packets/s, on for 10 s => ~100 packets.
        let flood = OnOffFlood::new(c, 80_000.0, SimTime::from_secs(5), SimTime::from_secs(15));
        sim.add_app(a, Box::new(flood));
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(got.load(Ordering::Relaxed), 0, "silent before on_at");
        sim.run_until(SimTime::from_secs(30));
        let n = got.load(Ordering::Relaxed);
        assert!((95..=105).contains(&n), "expected ~100 packets, got {n}");
    }
}
