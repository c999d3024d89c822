//! The no-adaptation strawman: subscribe `k` layers and never change.
//!
//! Useful as a floor in comparisons and as a congestion generator in
//! robustness tests (a fixed over-subscriber is a non-conforming flow from
//! the network's point of view).

use netsim::{App, Ctx, Packet, SimDuration};
use toposense::receiver::{ReceiverHandle, Subscriber};
use traffic::session::SessionDef;

/// Loss-measurement window.
const WINDOW: SimDuration = SimDuration::from_secs(1);

const TOKEN_WINDOW: u64 = 1;

/// A receiver pinned at a fixed subscription level.
pub struct FixedReceiver {
    sub: Subscriber,
    level: u8,
}

impl FixedReceiver {
    pub fn new(def: SessionDef, level: u8) -> (Self, ReceiverHandle) {
        assert!(level >= 1 && level <= def.spec.max_level());
        let (sub, shared) = Subscriber::new(def);
        (FixedReceiver { sub, level }, shared)
    }

    /// The pinned level.
    pub fn level(&self) -> u8 {
        self.level
    }
}

impl App for FixedReceiver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.sub.move_to(ctx, self.level);
        ctx.set_timer(WINDOW, TOKEN_WINDOW);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, packet: &Packet) {
        self.sub.on_media(packet);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.sub.close_window(ctx);
        ctx.set_timer(WINDOW, TOKEN_WINDOW);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{GroupId, SessionId, SimTime};
    use traffic::LayerSpec;

    fn run_fixed(level: u8, kbps: f64, secs: u64) -> ReceiverHandle {
        crate::run_two_node(kbps, secs, |def| FixedReceiver::new(def, level))
    }

    #[test]
    fn never_changes_level() {
        let shared = run_fixed(3, 100_000.0, 60);
        let s = shared.lock().unwrap();
        assert_eq!(s.changes.len(), 1);
        assert_eq!(s.final_level(), 3);
        // Clean path: zero loss in every window.
        assert!(s.loss_series.iter().all(|&(_, l)| l == 0.0));
    }

    #[test]
    fn oversubscription_shows_persistent_loss() {
        // Level 4 = 480 kb/s through a 150 kb/s pipe.
        let shared = run_fixed(4, 150.0, 120);
        let s = shared.lock().unwrap();
        let late: Vec<f64> = s
            .loss_series
            .iter()
            .filter(|&&(t, _)| t > SimTime::from_secs(30))
            .map(|&(_, l)| l)
            .collect();
        assert!(!late.is_empty());
        let mean = late.iter().sum::<f64>() / late.len() as f64;
        assert!(mean > 0.4, "sustained overload must lose heavily, got {mean}");
        assert_eq!(s.final_level(), 4, "and never adapt");
    }

    #[test]
    #[should_panic]
    fn zero_level_rejected() {
        let def = SessionDef {
            id: SessionId(0),
            source: netsim::NodeId(0),
            groups: vec![GroupId(0)],
            spec: LayerSpec::paper_default(),
        };
        let _ = FixedReceiver::new(def, 0);
    }
}
