//! A receiver-driven layered-multicast baseline (RLM-style).
//!
//! Each receiver adapts **independently**, with no controller and no
//! topology knowledge: it runs *join experiments* — periodically adding the
//! next layer — and drops the top layer when a loss window exceeds a
//! threshold, doubling that layer's join timer (exponential backoff). This
//! is the class of "end-to-end information only" schemes the paper contrasts
//! with; its pathology in Fig. 1 is that one receiver's failed experiment
//! congests shared links and causes loss for topologically-related
//! neighbours.

use netsim::{App, Ctx, Packet, RngStream, SimDuration, SimTime};
use toposense::receiver::{ReceiverHandle, Subscriber};
use traffic::session::SessionDef;

/// Loss-measurement window.
const WINDOW: SimDuration = SimDuration::from_secs(1);
/// Loss rate that triggers dropping the top layer.
const DROP_LOSS: f64 = 0.10;
/// Initial join-experiment timer per layer.
const JOIN_TIMER: SimDuration = SimDuration::from_secs(5);
/// Cap on the backed-off join timer.
const JOIN_TIMER_MAX: SimDuration = SimDuration::from_secs(120);
/// Multiplier applied to a layer's join timer after a failed experiment.
const BACKOFF_MULTIPLIER: f64 = 2.0;

const TOKEN_WINDOW: u64 = 1;

/// The receiver-driven baseline app. Subscribes through the same
/// [`Subscriber`] as the TopoSense receiver, so metrics treat it
/// identically; only the rule that picks the level is its own.
pub struct RlmReceiver {
    sub: Subscriber,
    /// Per-level join timer (indexed by the level being *added*).
    timers: Vec<SimDuration>,
    /// Time of the next allowed join experiment.
    next_join_at: SimTime,
    /// Consecutive clean windows since the last change.
    clean_windows: u32,
    rng: RngStream,
}

impl RlmReceiver {
    pub fn new(def: SessionDef, seed: u64, label: &str) -> (Self, ReceiverHandle) {
        let layers = def.spec.layer_count();
        let (sub, shared) = Subscriber::new(def);
        let r = RlmReceiver {
            sub,
            timers: vec![JOIN_TIMER; layers + 1],
            next_join_at: SimTime::ZERO,
            clean_windows: 0,
            rng: RngStream::derive(seed, &format!("rlm/{label}")),
        };
        (r, shared)
    }

    /// Current subscription level.
    pub fn level(&self) -> u8 {
        self.sub.level()
    }

    fn window_tick(&mut self, ctx: &mut Ctx<'_>) {
        let loss = self.sub.close_window(ctx).loss_rate();
        let level = self.sub.level();
        let max_level = self.sub.def().spec.max_level();

        if loss > DROP_LOSS && level > 1 {
            // Failed experiment (or shared congestion): shed the top layer
            // and back off its join timer exponentially.
            let t = &mut self.timers[level as usize];
            *t = SimDuration::from_secs_f64(
                (t.as_secs_f64() * BACKOFF_MULTIPLIER).min(JOIN_TIMER_MAX.as_secs_f64()),
            );
            self.sub.move_to(ctx, level - 1);
            // Back at `level - 1`, the next experiment re-adds `level`.
            self.next_join_at = ctx.now() + self.timers[level as usize];
            self.clean_windows = 0;
        } else if loss == 0.0 {
            self.clean_windows += 1;
            // Join experiment: enough clean windows and the timer expired.
            if level < max_level && ctx.now() >= self.next_join_at && self.clean_windows >= 2 {
                self.sub.move_to(ctx, level + 1);
                // Jittered timer for the *next* experiment (one above the
                // level just joined).
                let next = (level as usize + 2).min(max_level as usize);
                let base = self.timers[next];
                let jitter = self.rng.range_f64(0.8, 1.2);
                self.next_join_at =
                    ctx.now() + SimDuration::from_secs_f64(base.as_secs_f64() * jitter);
                self.clean_windows = 0;
            }
        } else {
            self.clean_windows = 0;
        }

        ctx.set_timer(WINDOW, TOKEN_WINDOW);
    }
}

impl App for RlmReceiver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.sub.move_to(ctx, 1);
        self.next_join_at = ctx.now() + JOIN_TIMER;
        let jitter = self.rng.range_f64(0.0, WINDOW.as_secs_f64());
        ctx.set_timer(SimDuration::from_secs_f64(jitter), TOKEN_WINDOW);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, packet: &Packet) {
        self.sub.on_media(packet);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        debug_assert_eq!(token, TOKEN_WINDOW);
        self.window_tick(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The defaults of the parameter struct these were; nothing set another.
    const _: () = {
        assert!(WINDOW.0 == SimDuration::from_secs(1).0);
        assert!(DROP_LOSS == 0.10);
        assert!(JOIN_TIMER.0 == SimDuration::from_secs(5).0);
        assert!(JOIN_TIMER_MAX.0 == SimDuration::from_secs(120).0);
        assert!(BACKOFF_MULTIPLIER == 2.0);
    };

    fn run_rlm(bottleneck_kbps: f64, secs: u64) -> ReceiverHandle {
        crate::run_two_node(bottleneck_kbps, secs, |def| RlmReceiver::new(def, 3, "r0"))
    }

    #[test]
    fn climbs_on_a_clean_path() {
        let shared = run_rlm(100_000.0, 120);
        let s = shared.lock().unwrap();
        assert_eq!(s.final_level(), 6, "changes: {:?}", s.changes);
        // Purely additive climb: no drops on a clean path.
        assert!(s.changes.iter().all(|&(_, old, new)| new > old));
    }

    #[test]
    fn oscillates_around_a_bottleneck() {
        // 150 kb/s fits 2 layers; experiments to 3 must fail and back off.
        let shared = run_rlm(150.0, 600);
        let s = shared.lock().unwrap();
        let ups = s.changes.iter().filter(|&&(_, o, n)| n > o).count();
        let downs = s.changes.iter().filter(|&&(_, o, n)| n < o).count();
        assert!(downs >= 1, "some experiment must fail: {:?}", s.changes);
        assert!(ups >= downs, "cannot drop more than was added");
        // Oscillates in the bottleneck's neighbourhood, never far above it.
        assert!(
            (1..=3).contains(&s.final_level()),
            "final {} out of range; changes: {:?}",
            s.final_level(),
            s.changes
        );
        // The time-weighted level in the second half should sit around the
        // 2-layer optimum (96 kb/s through a 150 kb/s pipe).
        let half = SimTime::from_secs(300);
        let mut level = 0u8;
        let mut weighted = 0.0;
        let mut last = half;
        for &(t, _, new) in &s.changes {
            if t <= half {
                level = new;
                continue;
            }
            weighted += level as f64 * t.since(last).as_secs_f64();
            last = t;
            level = new;
        }
        weighted += level as f64 * SimTime::from_secs(600).since(last).as_secs_f64();
        let avg = weighted / 300.0;
        assert!((1.2..=3.0).contains(&avg), "mean level {avg}; changes: {:?}", s.changes);
    }

    #[test]
    fn backoff_spaces_out_failed_experiments() {
        let shared = run_rlm(150.0, 900);
        let s = shared.lock().unwrap();
        // Gaps between successive drops should grow (exponential backoff).
        let drops: Vec<SimTime> =
            s.changes.iter().filter(|&&(_, o, n)| n < o).map(|&(t, _, _)| t).collect();
        assert!(drops.len() >= 2, "need at least two failed experiments");
        let first_gap = drops[1].since(drops[0]).as_secs_f64();
        let last_gap = drops[drops.len() - 1].since(drops[drops.len() - 2]).as_secs_f64();
        assert!(
            last_gap >= first_gap * 0.9,
            "gaps should not shrink: first {first_gap}, last {last_gap}"
        );
    }
}
