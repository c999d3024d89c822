//! An equation-based (TFRC-style) receiver baseline.
//!
//! The paper's §VI surveys attempts to apply the TCP-friendly rate
//! equation (Mathis et al. / Padhye et al.) to multicast and argues they
//! "run into an intuitive roadblock" — RTT is nebulous with many receivers
//! and AIMD-style rates map poorly onto discrete layers. This baseline
//! makes that argument executable: each receiver computes the TCP-friendly
//! rate `T = (packet_size / (rtt * sqrt(2p/3)))` from its measured loss
//! rate and a configured RTT, then subscribes the highest level fitting
//! that rate.
//!
//! With zero loss the equation prescribes an infinite rate, so (as in real
//! equation-based protocols) the rate is capped by a slow-start-like
//! doubling of the previous rate — which still produces the layer-hunting
//! oscillation the paper predicts.

use netsim::{App, Ctx, Packet, RngStream, SimDuration};
use toposense::receiver::{ReceiverHandle, Subscriber};
use traffic::session::SessionDef;

/// Loss-measurement window.
const WINDOW: SimDuration = SimDuration::from_secs(1);
/// Assumed round-trip time for the rate equation (the paper's point:
/// there is no principled multicast value to put here).
const RTT: SimDuration = SimDuration::from_millis(600);
/// EWMA weight for the loss estimate (new sample weight).
const LOSS_EWMA: f64 = 0.25;
/// Minimum windows between subscription changes (damping).
const HOLD_WINDOWS: u32 = 3;

const TOKEN_WINDOW: u64 = 1;

/// The equation-based receiver.
pub struct TfrcReceiver {
    sub: Subscriber,
    /// Smoothed loss estimate.
    loss_hat: f64,
    /// Last computed allowed rate (b/s); doubles when lossless.
    rate_hat: f64,
    windows_since_change: u32,
    rng: RngStream,
}

impl TfrcReceiver {
    pub fn new(def: SessionDef, seed: u64, label: &str) -> (Self, ReceiverHandle) {
        let rate_hat = def.spec.base_rate();
        let (sub, shared) = Subscriber::new(def);
        let r = TfrcReceiver {
            sub,
            loss_hat: 0.0,
            rate_hat,
            windows_since_change: 0,
            rng: RngStream::derive(seed, &format!("tfrc/{label}")),
        };
        (r, shared)
    }

    /// The TCP-friendly rate for loss `p` (Mathis et al. simplified form).
    fn tcp_rate(p: f64) -> f64 {
        let rtt = RTT.as_secs_f64();
        // The wire packet size the sources emit.
        let s = traffic::PACKET_SIZE as f64 * 8.0;
        if p <= 0.0 {
            f64::INFINITY
        } else {
            s / (rtt * (2.0 * p / 3.0).sqrt())
        }
    }

    fn window_tick(&mut self, ctx: &mut Ctx<'_>) {
        let loss = self.sub.close_window(ctx).loss_rate();
        self.loss_hat = self.loss_hat * (1.0 - LOSS_EWMA) + loss * LOSS_EWMA;

        // Rate update: the equation under loss, slow-start doubling without.
        let spec = &self.sub.def().spec;
        let eq = Self::tcp_rate(self.loss_hat);
        self.rate_hat = if eq.is_finite() {
            eq
        } else {
            (self.rate_hat * 2.0).min(spec.cumulative_rate(spec.max_level()))
        };

        self.windows_since_change += 1;
        if self.windows_since_change >= HOLD_WINDOWS {
            let target = spec.level_fitting(self.rate_hat).max(1);
            if self.sub.move_to(ctx, target) {
                self.windows_since_change = 0;
            }
        }
        ctx.set_timer(WINDOW, TOKEN_WINDOW);
    }
}

impl App for TfrcReceiver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.sub.move_to(ctx, 1);
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
        assert!(RTT.0 == SimDuration::from_millis(600).0);
        assert!(traffic::PACKET_SIZE == 1000);
        assert!(LOSS_EWMA == 0.25);
        assert!(HOLD_WINDOWS == 3);
    };

    fn run_tfrc(bottleneck_kbps: f64, secs: u64) -> ReceiverHandle {
        crate::run_two_node(bottleneck_kbps, secs, |def| TfrcReceiver::new(def, 3, "t0"))
    }

    #[test]
    fn equation_rate_shapes() {
        let tcp_rate = TfrcReceiver::tcp_rate;
        assert!(tcp_rate(0.0).is_infinite());
        // Higher loss -> lower rate.
        assert!(tcp_rate(0.01) > tcp_rate(0.1));
        // 1% loss at 600 ms RTT: 8000 / (0.6 * sqrt(0.00667)) ~ 163 kb/s.
        let t = tcp_rate(0.01);
        assert!((150_000.0..180_000.0).contains(&t), "got {t}");
    }

    #[test]
    fn climbs_on_clean_path() {
        let shared = run_tfrc(100_000.0, 120);
        let s = shared.lock().unwrap();
        assert!(s.final_level() >= 5, "final {}; changes {:?}", s.final_level(), s.changes);
    }

    #[test]
    fn oscillates_at_a_bottleneck_as_the_paper_predicts() {
        // The equation maps loss onto a rate that rarely matches a layer
        // boundary: expect visible hunting around the 150 kb/s bottleneck.
        let shared = run_tfrc(150.0, 600);
        let s = shared.lock().unwrap();
        let downs = s.changes.iter().filter(|&&(_, o, n)| n < o).count();
        assert!(downs >= 2, "expected hunting; changes {:?}", s.changes);
        // But it must not run away: levels stay <= 4.
        assert!(s.changes.iter().all(|&(_, _, n)| n <= 4));
    }
}
