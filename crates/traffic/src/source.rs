//! The layered source application.
//!
//! One [`LayeredSource`] per session. Every layer runs its own one-second
//! frame clock (with a random initial phase so concurrent sessions do not
//! beat in lockstep): at each frame boundary the traffic model draws the
//! packet count `n`, and the `n` packets are emitted evenly spaced across
//! the frame. The source transmits unconditionally — whether anything is
//! listening is the multicast tree's business, exactly as with a real
//! hierarchical source.

use crate::model::TrafficModel;
use crate::session::SessionDef;
use crate::PACKET_SIZE;
use netsim::{App, Ctx, RngStream, SimDuration};

/// Frame length: the paper's VBR model is defined on 1-second intervals.
const FRAME: SimDuration = SimDuration(1_000_000_000);

/// Timer-token encoding: low byte = layer, next byte = kind.
const KIND_FRAME: u64 = 1;
const KIND_EMIT: u64 = 2;

fn token(kind: u64, layer: u8) -> u64 {
    (kind << 8) | layer as u64
}

fn untoken(token: u64) -> (u64, u8) {
    (token >> 8, (token & 0xff) as u8)
}

/// A source transmitting every layer of one session.
pub struct LayeredSource {
    def: SessionDef,
    model: TrafficModel,
    /// Per-layer frame RNG.
    rngs: Vec<RngStream>,
    /// Per-layer media sequence numbers.
    seqs: Vec<u64>,
}

impl LayeredSource {
    pub fn new(def: SessionDef, model: TrafficModel, seed: u64) -> Self {
        let layers = def.spec.layer_count();
        let rngs = (0..layers)
            .map(|k| RngStream::derive_sub(seed, &format!("source/{}", def.id.0), k as u64))
            .collect();
        LayeredSource { def, model, rngs, seqs: vec![0; layers] }
    }

    fn start_frame(&mut self, ctx: &mut Ctx<'_>, layer: u8) {
        let a = self.def.spec.packets_per_sec(layer, PACKET_SIZE);
        let n = self.model.packets_in_frame(a, &mut self.rngs[layer as usize]);
        // Evenly space the n packets across the frame; the first leaves
        // immediately so a frame's worth of traffic starts at its boundary.
        if n > 0 {
            let gap = FRAME / n as u64;
            self.emit(ctx, layer);
            for i in 1..n {
                ctx.set_timer(gap * i as u64, token(KIND_EMIT, layer));
            }
        }
        ctx.set_timer(FRAME, token(KIND_FRAME, layer));
    }

    fn emit(&mut self, ctx: &mut Ctx<'_>, layer: u8) {
        let seq = self.seqs[layer as usize];
        self.seqs[layer as usize] += 1;
        ctx.send_media(self.def.group_of_layer(layer), self.def.id, layer, seq, PACKET_SIZE);
    }
}

impl App for LayeredSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for layer in 0..self.def.spec.max_level() {
            // Random phase in [0, 1) s per layer, so sessions and layers
            // do not all burst at the same instant.
            let phase = self.rngs[layer as usize].range_f64(0.0, 1.0);
            ctx.set_timer(SimDuration::from_secs_f64(phase), token(KIND_FRAME, layer));
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tok: u64) {
        let (kind, layer) = untoken(tok);
        match kind {
            KIND_FRAME => self.start_frame(ctx, layer),
            KIND_EMIT => self.emit(ctx, layer),
            other => unreachable!("unknown source timer kind {other}"),
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        // The crash swallowed every frame and emit timer: restart the layer
        // clocks with a fresh phase. Sequence numbers continue from where
        // they stopped, so receivers see the outage as dead air rather than
        // as a sequence gap (nothing was actually sent to lose).
        for layer in 0..self.def.spec.max_level() {
            let phase = self.rngs[layer as usize].range_f64(0.0, 1.0);
            ctx.set_timer(SimDuration::from_secs_f64(phase), token(KIND_FRAME, layer));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::LayerSpec;
    use netsim::sim::{NetworkBuilder, SimConfig};
    use netsim::{GroupId, LinkConfig, Packet, SeqTracker, SessionId, SimTime};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Sink {
        groups: Vec<GroupId>,
        counts: Arc<Vec<AtomicU64>>,
    }
    impl App for Sink {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for &g in &self.groups {
                ctx.join(g);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, p: &Packet) {
            if let Some((_, layer, _)) = p.media_fields() {
                self.counts[layer as usize].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn run(model: TrafficModel, secs: u64) -> (Vec<u64>, u64) {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let s = b.add_node("src");
        let r = b.add_node("rcv");
        b.add_link(s, r, LinkConfig::kbps(100_000.0));
        let mut sim = b.build();
        let spec = LayerSpec::doubling(32_000.0, 3);
        let groups: Vec<GroupId> = (0..3).map(|_| sim.create_group(s)).collect();
        let def = SessionDef { id: SessionId(0), source: s, groups: groups.clone(), spec };
        let counts: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        sim.add_app(r, Box::new(Sink { groups, counts: Arc::clone(&counts) }));
        let src = LayeredSource::new(def, model, 42);
        let src_id = sim.add_app(s, Box::new(src));
        sim.run_until(SimTime::from_secs(secs));
        let out: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let _ = src_id;
        (out, secs)
    }

    #[test]
    fn cbr_rates_match_spec() {
        let (counts, secs) = run(TrafficModel::Cbr, 60);
        // Layer rates 32/64/128 kb/s at 1000 B = 4/8/16 packets/s. Allow a
        // frame or two of slack for phase and the final partial frame.
        for (k, expect) in [(0usize, 4.0), (1, 8.0), (2, 16.0)] {
            let rate = counts[k] as f64 / secs as f64;
            assert!((rate - expect).abs() < 0.5, "layer {k}: rate {rate} != {expect}");
        }
    }

    #[test]
    fn vbr_long_run_mean_matches_spec() {
        let (counts, secs) = run(TrafficModel::Vbr { p: 3.0 }, 400);
        for (k, expect) in [(0usize, 4.0), (1, 8.0), (2, 16.0)] {
            let rate = counts[k] as f64 / secs as f64;
            assert!(
                (rate - expect).abs() < expect * 0.2,
                "layer {k}: VBR mean rate {rate} too far from {expect}"
            );
        }
    }

    #[test]
    fn sequence_numbers_are_contiguous_per_layer() {
        // Deliver over a fat link and verify no gaps with a SeqTracker.
        struct Tracking {
            group: GroupId,
            tracker: Arc<std::sync::Mutex<SeqTracker>>,
        }
        impl App for Tracking {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.join(self.group);
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, p: &Packet) {
                if let Some((_, 0, seq)) = p.media_fields() {
                    self.tracker.lock().unwrap().on_packet(seq, p.size);
                }
            }
        }
        let mut b = NetworkBuilder::new(SimConfig::default());
        let s = b.add_node("src");
        let r = b.add_node("rcv");
        b.add_link(s, r, LinkConfig::kbps(100_000.0));
        let mut sim = b.build();
        let g = sim.create_group(s);
        let def = SessionDef {
            id: SessionId(0),
            source: s,
            groups: vec![g],
            spec: LayerSpec::doubling(32_000.0, 1),
        };
        let tracker = Arc::new(std::sync::Mutex::new(SeqTracker::new()));
        sim.add_app(r, Box::new(Tracking { group: g, tracker: Arc::clone(&tracker) }));
        sim.add_app(s, Box::new(LayeredSource::new(def, TrafficModel::Cbr, 7)));
        sim.run_until(SimTime::from_secs(30));
        let w = tracker.lock().unwrap().take_window();
        assert!(w.received > 100);
        assert_eq!(w.lost, 0, "uncongested fat link must not lose packets");
    }

    /// A sink that re-joins every second: a source crash wipes the root's
    /// multicast state, so someone must re-graft (in the real system the
    /// receiver's dead-air repair does this).
    struct RejoiningSink {
        group: GroupId,
        count: Arc<AtomicU64>,
    }

    impl App for RejoiningSink {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.join(self.group);
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _tok: u64) {
            ctx.join(self.group);
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, p: &Packet) {
            if p.media_fields().is_some() {
                self.count.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A one-layer 4 packets/s CBR source feeding a [`RejoiningSink`] over a
    /// fat link, with the source node down during `outage_ms`. Returns the
    /// packets delivered by `split` and by `end`.
    fn deliveries_around_outage(outage_ms: (u64, u64), split: SimTime, end: SimTime) -> (u64, u64) {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let s = b.add_node("src");
        let r = b.add_node("rcv");
        b.add_link(s, r, LinkConfig::kbps(100_000.0));
        let mut sim = b.build();
        let spec = LayerSpec::doubling(32_000.0, 1);
        let g = sim.create_group(s);
        let def = SessionDef { id: SessionId(0), source: s, groups: vec![g], spec };
        let count = Arc::new(AtomicU64::new(0));
        sim.add_app(r, Box::new(RejoiningSink { group: g, count: Arc::clone(&count) }));
        sim.add_app(s, Box::new(LayeredSource::new(def, TrafficModel::Cbr, 42)));
        sim.install_faults(&netsim::FaultPlan::new().node_outage(
            s,
            SimTime::from_millis(outage_ms.0),
            SimTime::from_millis(outage_ms.1),
        ));
        sim.run_until(split);
        let at_split = count.load(Ordering::Relaxed);
        sim.run_until(end);
        (at_split, count.load(Ordering::Relaxed))
    }

    #[test]
    fn source_resumes_after_node_restart() {
        let (_, got) =
            deliveries_around_outage((5000, 6000), SimTime::from_secs(6), SimTime::from_secs(12));
        // 4 packets/s for ~11 live seconds; without the restart hook the
        // stream would stop at 5 s (~20 packets).
        assert!(got > 35, "source must resume after restart, got {got} packets");
    }

    /// A blink shorter than the frame leaves frame and emit timers armed
    /// before the crash due after the restart. The simulator swallows them,
    /// so the chains `on_restart` arms are the only ones: the rate after the
    /// blink is the rate of a source that never went down, not twice it.
    #[test]
    fn blink_shorter_than_a_frame_does_not_double_the_rate() {
        let (split, end) = (SimTime::from_secs(10), SimTime::from_secs(30));
        let (before, after) = deliveries_around_outage((5000, 5100), split, end);
        // An outage past the end of the run: the source never crashes.
        let (calm_before, calm_after) = deliveries_around_outage((40_000, 41_000), split, end);
        assert_eq!(calm_after - calm_before, 80, "4 packets/s over 20 s");
        assert_eq!(after - before, calm_after - calm_before);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run(TrafficModel::Vbr { p: 6.0 }, 120);
        let b = run(TrafficModel::Vbr { p: 6.0 }, 120);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn token_round_trip() {
        for kind in [KIND_FRAME, KIND_EMIT] {
            for layer in [0u8, 3, 255] {
                assert_eq!(untoken(token(kind, layer)), (kind, layer));
            }
        }
    }
}
