//! The cooperating receiver agent.
//!
//! A receiver subscribes to the base layer at startup, registers with its
//! domain's controller, accounts loss per layer from sequence gaps (the
//! RTCP model), reports periodically, and obeys the controller's
//! subscription suggestions. Because suggestion packets can be lost, a
//! receiver that has heard nothing for a while "can make unilateral
//! decisions": it sheds a layer on sustained high loss.
//!
//! # Failure hardening (DESIGN.md §9)
//!
//! * Registration is retried with exponential backoff until the controller
//!   answers (ACK or suggestion) — a lost `Register` no longer orphans the
//!   receiver forever.
//! * [`RegisterAck`] and [`Suggestion::from`] both carry the active
//!   controller's node, so receivers follow a warm-standby takeover without
//!   any extra protocol.
//! * Consecutive all-empty report windows on a level that used to carry
//!   traffic ("dead air" — the upstream router crashed and lost our graft)
//!   trigger an idempotent re-join of every subscribed group.
//! * An orderly departure sends [`Deregister`] so the controller's registry
//!   does not leak until the silence deadline.
//! * `on_restart` re-joins, re-registers, and re-arms every timer after the
//!   hosting node crashes and comes back.

use crate::config::Config;
use crate::messages::{cause_id, Deregister, Register, RegisterAck, Report, Suggestion};
use crate::sync::lock_or_recover;
use netsim::{
    App, ControlBody, Ctx, LossWindow, NodeId, Packet, RngStream, SeqTracker, SimDuration, SimTime,
};
use std::sync::{Arc, Mutex, MutexGuard};
use telemetry::{Record, Telemetry};
use traffic::session::SessionDef;

/// Receivers act unilaterally after this long without a suggestion.
pub(crate) const UNILATERAL_TIMEOUT: SimDuration = SimDuration::from_millis(5500);
/// First re-registration delay; doubles each unacknowledged attempt.
pub(crate) const REGISTER_BACKOFF_BASE: SimDuration = SimDuration::from_secs(4);
/// Ceiling of the re-registration backoff.
pub(crate) const REGISTER_BACKOFF_MAX: SimDuration = SimDuration::from_secs(32);
/// Consecutive empty report windows (no packets, no gaps, on a level
/// that used to carry traffic) before a receiver re-joins its groups to
/// repair a possibly-severed tree.
pub(crate) const DEAD_AIR_WINDOWS: u32 = 2;

/// One subscription change: `(when, old level, new level)`.
pub type LevelChange = (SimTime, u8, u8);

/// Observable receiver state, shared with the harness for metrics.
#[derive(Clone, Debug, Default)]
pub struct ReceiverShared {
    /// Every subscription change, including the initial join.
    pub changes: Vec<LevelChange>,
    /// `(window end, loss rate)` per report window.
    pub loss_series: Vec<(SimTime, f64)>,
    /// `(window end, level)` per report window.
    pub level_series: Vec<(SimTime, u8)>,
    /// Total media bytes received.
    pub bytes_total: u64,
    /// Suggestions received (and applied or confirmed).
    pub suggestions_received: u64,
    /// Times the receiver acted without the controller.
    pub unilateral_actions: u64,
    /// Reports sent.
    pub reports_sent: u64,
    /// Registration attempts sent (first try and backoff retries).
    pub registers_sent: u64,
    /// Dead-air repairs: re-joins of all subscribed groups after consecutive
    /// empty report windows.
    pub rejoins: u64,
    /// Suggestion-driven level changes with their causal-trace ids:
    /// `(when, cause id of the suggestion, old level, new level)`. Kept
    /// separate from `changes` (which is fingerprint-pinned) so the trace
    /// plumbing never perturbs existing determinism checks.
    pub applies: Vec<(SimTime, u64, u8, u8)>,
}

impl ReceiverShared {
    /// Subscription level at the end of the run.
    pub fn final_level(&self) -> u8 {
        self.changes.last().map(|&(_, _, new)| new).unwrap_or(0)
    }

    /// Emit one `"apply"` trace hop per entry of [`Self::applies`]: the
    /// receiver-side end of each causal chain, written once the run is over.
    pub fn emit_apply_hops(&self, tel: &Telemetry, session: u64, receiver: u64) {
        for &(when, cause, _old, new) in &self.applies {
            tel.emit(&Record::Trace {
                seq: 0,
                t_ns: when.nanos(),
                phase: "apply".to_string(),
                session,
                receiver,
                cause,
                level: new as u64,
            });
        }
    }
}

/// Handle the harness keeps to read stats after the run.
pub type ReceiverHandle = Arc<Mutex<ReceiverShared>>;

/// The layered-subscription mechanics every receiver app shares: which
/// layers of one session are joined, the per-layer loss accounting, and the
/// series the harness reads afterwards. It decides nothing — *who* picks the
/// level (the controller's suggestions here, join experiments in
/// `baselines::rlm`, the rate equation in `baselines::tfrc`, nobody in
/// `baselines::fixed`) is the only thing the contenders differ in, so a
/// comparison between them compares exactly that.
pub struct Subscriber {
    def: SessionDef,
    level: u8,
    trackers: Vec<SeqTracker>,
    shared: ReceiverHandle,
}

impl Subscriber {
    /// A subscriber to `def` holding no layer yet. Returns the stats handle.
    pub fn new(def: SessionDef) -> (Self, ReceiverHandle) {
        let shared: ReceiverHandle = Arc::default();
        let trackers = (0..def.spec.layer_count()).map(|_| SeqTracker::new()).collect();
        (Subscriber { def, level: 0, trackers, shared: Arc::clone(&shared) }, shared)
    }

    /// The session subscribed to.
    pub fn def(&self) -> &SessionDef {
        &self.def
    }

    /// Current subscription level.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// The shared stats, for the counters an app keeps beside the series.
    fn shared(&self) -> MutexGuard<'_, ReceiverShared> {
        lock_or_recover(&self.shared)
    }

    /// Account `packet` if it is media; returns whether it was (media of
    /// another session or of a layer not subscribed is consumed uncounted).
    #[inline]
    pub fn on_media(&mut self, packet: &Packet) -> bool {
        let Some((session, layer, seq)) = packet.media_fields() else {
            return false;
        };
        if session == self.def.id && layer < self.level {
            self.trackers[layer as usize].on_packet(seq, packet.size);
        }
        true
    }

    /// Forget layer `layer`'s stale counts and stream position: they cover
    /// a window when we were not listening and would surface as phantom
    /// loss in the next report.
    fn rebaseline(&mut self, layer: u8) {
        let tracker = &mut self.trackers[layer as usize];
        let _ = tracker.take_window();
        tracker.resync();
    }

    /// Subscribe exactly `new` layers (clamped to the session's top): join
    /// upward, leave downward from the top. Returns whether the level moved.
    pub fn move_to(&mut self, ctx: &mut Ctx<'_>, new: u8) -> bool {
        let new = new.min(self.def.spec.max_level());
        if new == self.level {
            return false;
        }
        let old = self.level;
        if new > old {
            for layer in old..new {
                ctx.join(self.def.group_of_layer(layer));
                self.rebaseline(layer);
            }
        } else {
            for layer in (new..old).rev() {
                ctx.leave(self.def.group_of_layer(layer));
                self.rebaseline(layer);
            }
        }
        self.level = new;
        self.shared().changes.push((ctx.now(), old, new));
        true
    }

    /// Close the loss window: sum the subscribed layers' counts, append the
    /// window to the loss / level / byte series, and return the counts.
    pub fn close_window(&mut self, ctx: &mut Ctx<'_>) -> LossWindow {
        let window = self.trackers[..self.level as usize]
            .iter_mut()
            .fold(LossWindow::default(), |sum, t| sum.merge(&t.take_window()));
        let mut s = self.shared();
        s.loss_series.push((ctx.now(), window.loss_rate()));
        s.level_series.push((ctx.now(), self.level));
        s.bytes_total += window.bytes;
        window
    }

    /// Join every subscribed layer again with clean loss windows, after the
    /// network lost the grafts (a router crash wipes group state).
    /// Idempotent — on a healthy tree it grafts nothing and costs no wire
    /// traffic.
    fn rejoin(&mut self, ctx: &mut Ctx<'_>) {
        for layer in 0..self.level {
            ctx.join(self.def.group_of_layer(layer));
            self.rebaseline(layer);
        }
    }
}

const TOKEN_REPORT: u64 = 1;
const TOKEN_REREGISTER: u64 = 2;
const TOKEN_ACTIVATE: u64 = 3;
const TOKEN_STOP: u64 = 4;

/// The receiver application.
pub struct Receiver {
    sub: Subscriber,
    controller: NodeId,
    cfg: Config,
    last_suggestion_at: Option<SimTime>,
    high_loss_windows: u32,
    /// Until this instant, ignore suggestions that would *raise* the level:
    /// right after a unilateral drop the controller's view lags, and its
    /// in-flight suggestions still reflect the pre-drop state.
    raise_guard_until: SimTime,
    /// Lifetime window for churn scenarios: join at `start_at`, depart at
    /// `stop_at` (None = whole run).
    start_at: SimTime,
    stop_at: Option<SimTime>,
    active: bool,
    /// The controller confirmed our registration (or sent a suggestion,
    /// which proves the same thing). Stops the re-register retries.
    acked: bool,
    /// Current re-registration retry delay (doubles per attempt).
    reregister_backoff: SimDuration,
    /// Consecutive report windows with neither packets nor gaps while
    /// subscribed — dead air, the signature of a lost upstream graft.
    empty_windows: u32,
    /// We have seen media at least once, so an empty window is anomalous
    /// rather than a session that has not started.
    had_traffic: bool,
    rng: RngStream,
}

impl Receiver {
    /// Create a receiver for `def`, reporting to the controller at
    /// `controller`. Returns the app and the stats handle.
    pub fn new(
        def: SessionDef,
        controller: NodeId,
        cfg: Config,
        seed: u64,
        label: &str,
    ) -> (Self, ReceiverHandle) {
        cfg.validate();
        let (sub, shared) = Subscriber::new(def);
        let r = Receiver {
            sub,
            controller,
            cfg,
            last_suggestion_at: None,
            high_loss_windows: 0,
            raise_guard_until: SimTime::ZERO,
            start_at: SimTime::ZERO,
            stop_at: None,
            active: false,
            acked: false,
            reregister_backoff: REGISTER_BACKOFF_BASE,
            empty_windows: 0,
            had_traffic: false,
            rng: RngStream::derive(seed, &format!("receiver/{label}")),
        };
        (r, shared)
    }

    /// Current subscription level.
    pub fn level(&self) -> u8 {
        self.sub.level()
    }

    /// Delay joining until `start_at` and depart at `stop_at` — the
    /// receiver-churn support the paper's long-lived-session architecture
    /// needs (recipients "register themselves with the controller agent"
    /// whenever they appear).
    pub fn with_lifetime(mut self, start_at: SimTime, stop_at: Option<SimTime>) -> Self {
        if let Some(stop) = stop_at {
            assert!(stop > start_at, "stop must come after start");
        }
        self.start_at = start_at;
        self.stop_at = stop_at;
        self
    }

    fn activate(&mut self, ctx: &mut Ctx<'_>) {
        self.active = true;
        // Subscribe the base layer and announce ourselves.
        self.sub.move_to(ctx, 1);
        self.announce(ctx);
    }

    /// Register from scratch and (re-)arm the report and retry timers.
    fn announce(&mut self, ctx: &mut Ctx<'_>) {
        self.acked = false;
        self.reregister_backoff = REGISTER_BACKOFF_BASE;
        self.register(ctx);
        // Jitter the report phase so co-located receivers do not report in
        // lockstep.
        let jitter = self.rng.range_f64(0.0, self.cfg.report_interval().as_secs_f64());
        ctx.set_timer(SimDuration::from_secs_f64(jitter), TOKEN_REPORT);
        ctx.set_timer(self.reregister_backoff, TOKEN_REREGISTER);
    }

    /// Depart: tell the controller (so its registry entry dies now, not at
    /// the eviction deadline) and leave every group.
    fn depart(&mut self, ctx: &mut Ctx<'_>) {
        if self.active {
            self.deregister(ctx);
        }
        self.sub.move_to(ctx, 0);
        self.active = false;
    }

    fn send_report(&mut self, ctx: &mut Ctx<'_>) {
        // Aggregate the window across currently subscribed layers.
        let window = self.sub.close_window(ctx);
        let LossWindow { received, lost, bytes } = window;
        // Mint the causal-trace id from this report's sequence number; the
        // controller echoes it on the suggestion this report produces.
        let seq = {
            let mut s = self.sub.shared();
            s.reports_sent += 1;
            s.reports_sent - 1
        };
        let def = self.sub.def();
        let report = Report {
            receiver: ctx.app_id(),
            node: ctx.node_id(),
            session: def.id,
            level: self.sub.level(),
            received,
            lost,
            bytes,
            time: ctx.now(),
            cause: cause_id(ctx.app_id().0 as u64, def.id.0 as u64, seq),
        };
        let body: ControlBody = Arc::new(report);
        ctx.send_control(self.controller, Report::WIRE_SIZE, body);

        // Dead-air repair: windows with neither packets nor gaps on a level
        // that used to carry traffic mean the upstream graft is gone (a
        // router crash wipes group state).
        if received > 0 {
            self.had_traffic = true;
            self.empty_windows = 0;
        } else if lost == 0 && self.had_traffic && self.sub.level() >= 1 {
            self.empty_windows += 1;
            if self.empty_windows >= DEAD_AIR_WINDOWS {
                // The gap we slept through was already reported as dead
                // air; the re-join re-baselines instead of booking it as
                // loss.
                self.sub.rejoin(ctx);
                self.empty_windows = 0;
                self.sub.shared().rejoins += 1;
            }
        } else {
            self.empty_windows = 0;
        }

        // Unilateral fallback: sustained high loss with a silent controller.
        let silent = match self.last_suggestion_at {
            None => false, // never heard from it; keep registering instead
            Some(t) => ctx.now().since(t) > UNILATERAL_TIMEOUT,
        };
        let loss = window.loss_rate();
        if loss > self.cfg.unilateral_drop_loss {
            self.high_loss_windows += 1;
        } else {
            self.high_loss_windows = 0;
        }
        let level = self.sub.level();
        if silent && self.high_loss_windows >= 2 && level > 1 {
            // Shed one layer, or straight to the goodput-supported level
            // when the overload is severe (a saturated bottleneck also
            // starves the suggestion channel, so waiting for the controller
            // can take a while).
            let goodput = bytes as f64 * 8.0 / self.cfg.report_interval().as_secs_f64();
            let fit = self.sub.def().spec.level_fitting(goodput);
            let new = if loss > 0.4 { fit } else { level - 1 }.clamp(1, level - 1);
            self.sub.move_to(ctx, new);
            self.high_loss_windows = 0;
            self.raise_guard_until = ctx.now() + self.cfg.interval * 2;
            self.sub.shared().unilateral_actions += 1;
        }
    }

    fn register(&mut self, ctx: &mut Ctx<'_>) {
        let body: ControlBody = Arc::new(Register {
            receiver: ctx.app_id(),
            node: ctx.node_id(),
            session: self.sub.def().id,
            level: self.sub.level(),
        });
        ctx.send_control(self.controller, Register::WIRE_SIZE, body);
        self.sub.shared().registers_sent += 1;
    }

    fn deregister(&mut self, ctx: &mut Ctx<'_>) {
        let body: ControlBody = Arc::new(Deregister {
            receiver: ctx.app_id(),
            session: self.sub.def().id,
            time: ctx.now(),
        });
        ctx.send_control(self.controller, Deregister::WIRE_SIZE, body);
    }
}

impl App for Receiver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.start_at > ctx.now() {
            ctx.set_timer(self.start_at.since(ctx.now()), TOKEN_ACTIVATE);
        } else {
            self.activate(ctx);
        }
        if let Some(stop) = self.stop_at {
            ctx.set_timer(stop.since(ctx.now()), TOKEN_STOP);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: &Packet) {
        if !self.active || self.sub.on_media(packet) {
            return;
        }
        if let Some(a) = packet.control_as::<RegisterAck>() {
            if a.receiver == ctx.app_id() {
                // Confirmed — stop the retries, and follow whichever
                // controller answered (a standby re-ACKs after takeover).
                self.acked = true;
                self.controller = a.controller;
            }
            return;
        }
        if let Some(s) = packet.control_as::<Suggestion>() {
            if s.receiver == ctx.app_id() && s.session == self.sub.def().id {
                self.last_suggestion_at = Some(ctx.now());
                // A suggestion proves the controller knows us, even if the
                // explicit ACK was lost; report to whoever steered us last.
                self.acked = true;
                self.controller = s.from;
                self.sub.shared().suggestions_received += 1;
                let old = self.sub.level();
                if s.level > old && ctx.now() < self.raise_guard_until {
                    // A raise computed before our unilateral drop: skip it,
                    // the next interval's suggestion will reflect reality.
                    return;
                }
                if self.sub.move_to(ctx, s.level) {
                    let applied = (ctx.now(), s.cause, old, self.sub.level());
                    self.sub.shared().applies.push(applied);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_REPORT if self.active => {
                self.send_report(ctx);
                ctx.set_timer(self.cfg.report_interval(), TOKEN_REPORT);
            }
            TOKEN_REREGISTER if self.active => {
                // Keep announcing, with exponential backoff, until the
                // controller talks back (ACK or suggestion).
                if !self.acked && self.last_suggestion_at.is_none() {
                    self.register(ctx);
                    self.reregister_backoff =
                        (self.reregister_backoff * 2).min(REGISTER_BACKOFF_MAX);
                    ctx.set_timer(self.reregister_backoff, TOKEN_REREGISTER);
                }
            }
            TOKEN_ACTIVATE => self.activate(ctx),
            TOKEN_STOP => self.depart(ctx),
            // Timers for a departed/not-yet-active receiver.
            TOKEN_REPORT | TOKEN_REREGISTER => {}
            other => unreachable!("unknown receiver timer {other}"),
        }
    }

    fn on_restart(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if self.stop_at.is_some_and(|stop| now >= stop) {
            // The crash outlived our lifetime. The swallowed STOP timer
            // never ran: depart now (leave() is a no-op for the wiped
            // membership, but the level history should read 0).
            self.depart(ctx);
            return;
        }
        if let Some(stop) = self.stop_at {
            ctx.set_timer(stop.since(now), TOKEN_STOP);
        }
        if !self.active {
            if self.start_at > now {
                ctx.set_timer(self.start_at.since(now), TOKEN_ACTIVATE);
            } else {
                // The crash swallowed the ACTIVATE timer: join late.
                self.activate(ctx);
            }
            return;
        }
        // Active through the crash: the router lost our subscriptions, so
        // re-join every layer with clean loss windows, and re-announce —
        // the controller may have evicted us during the outage.
        self.sub.rejoin(ctx);
        self.empty_windows = 0;
        self.had_traffic = false;
        self.announce(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::sim::{NetworkBuilder, SimConfig};
    use netsim::{GroupId, LinkConfig, Packet, SessionId};
    use traffic::LayerSpec;

    struct ControlCollector {
        registers: Arc<Mutex<Vec<Register>>>,
        reports: Arc<Mutex<Vec<Report>>>,
    }
    impl App for ControlCollector {
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, p: &Packet) {
            if let Some(r) = p.control_as::<Register>() {
                self.registers.lock().unwrap().push(r.clone());
            }
            if let Some(r) = p.control_as::<Report>() {
                self.reports.lock().unwrap().push(r.clone());
            }
        }
    }

    fn setup() -> (netsim::Simulator, SessionDef, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let src = b.add_node("src");
        let rcv = b.add_node("rcv");
        b.add_link(src, rcv, LinkConfig::kbps(10_000.0));
        let mut sim = b.build();
        let groups: Vec<GroupId> = (0..6).map(|_| sim.create_group(src)).collect();
        let def =
            SessionDef { id: SessionId(0), source: src, groups, spec: LayerSpec::paper_default() };
        (sim, def, src, rcv)
    }

    #[test]
    fn registers_and_reports() {
        let (mut sim, def, src, rcv) = setup();
        let registers = Arc::new(Mutex::new(Vec::new()));
        let reports = Arc::new(Mutex::new(Vec::new()));
        sim.add_app(
            src,
            Box::new(ControlCollector {
                registers: Arc::clone(&registers),
                reports: Arc::clone(&reports),
            }),
        );
        let (r, shared) = Receiver::new(def, src, Config::default(), 5, "r0");
        sim.add_app(rcv, Box::new(r));
        sim.run_until(SimTime::from_secs(10));
        assert!(!registers.lock().unwrap().is_empty(), "must register");
        let reps = reports.lock().unwrap();
        assert!(reps.len() >= 8, "got only {} reports", reps.len());
        assert!(reps.iter().all(|r| r.level == 1));
        let s = shared.lock().unwrap();
        assert_eq!(s.final_level(), 1);
        assert_eq!(s.changes.len(), 1, "only the initial join");
    }

    #[test]
    fn obeys_suggestions() {
        let (mut sim, def, src, rcv) = setup();

        struct Suggester {
            target: Option<netsim::AppId>,
            dest_node: NodeId,
            session: SessionId,
        }
        impl App for Suggester {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(netsim::SimDuration::from_secs(3), 0);
                ctx.set_timer(netsim::SimDuration::from_secs(6), 1);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                let level = if token == 0 { 4 } else { 2 };
                let body: ControlBody = Arc::new(Suggestion {
                    receiver: self.target.unwrap(),
                    session: self.session,
                    level,
                    time: ctx.now(),
                    from: ctx.node_id(),
                    cause: 42,
                });
                ctx.send_control(self.dest_node, 64, body);
            }
        }

        let (r, shared) = Receiver::new(def.clone(), src, Config::default(), 5, "r0");
        // Receiver app id will be 1 (suggester added first gets 0).
        let mut suggester = Suggester { target: None, dest_node: rcv, session: def.id };
        suggester.target = Some(netsim::AppId(1));
        sim.add_app(src, Box::new(suggester));
        sim.add_app(rcv, Box::new(r));
        sim.run_until(SimTime::from_secs(10));
        let s = shared.lock().unwrap();
        assert_eq!(s.suggestions_received, 2);
        // 0 -> 1 (join), 1 -> 4, 4 -> 2.
        let levels: Vec<(u8, u8)> = s.changes.iter().map(|&(_, o, n)| (o, n)).collect();
        assert_eq!(levels, vec![(0, 1), (1, 4), (4, 2)]);
        assert_eq!(s.final_level(), 2);
        // Both applied suggestions carry the suggester's cause id.
        let applies: Vec<(u64, u8, u8)> = s.applies.iter().map(|&(_, c, o, n)| (c, o, n)).collect();
        assert_eq!(applies, vec![(42, 1, 4), (42, 4, 2)]);
    }

    #[test]
    fn lifetime_bounds_all_activity() {
        let (mut sim, def, src, rcv) = setup();
        let registers = Arc::new(Mutex::new(Vec::new()));
        let reports = Arc::new(Mutex::new(Vec::new()));
        sim.add_app(
            src,
            Box::new(ControlCollector {
                registers: Arc::clone(&registers),
                reports: Arc::clone(&reports),
            }),
        );
        let (r, shared) = Receiver::new(def, src, Config::default(), 5, "r0");
        let r = r.with_lifetime(SimTime::from_secs(5), Some(SimTime::from_secs(12)));
        sim.add_app(rcv, Box::new(r));
        sim.run_until(SimTime::from_secs(30));
        let s = shared.lock().unwrap();
        // Active only inside [5, 12): joined at 5, left at 12.
        assert_eq!(s.changes.first().unwrap().0, SimTime::from_secs(5));
        assert_eq!(s.final_level(), 0);
        let reps = reports.lock().unwrap();
        assert!(!reps.is_empty());
        assert!(reps.iter().all(|r| {
            r.time >= SimTime::from_secs(5) && r.time <= SimTime::from_millis(12_100)
        }));
    }

    #[test]
    fn ignores_suggestions_for_other_receivers() {
        let (mut sim, def, src, rcv) = setup();
        struct WrongSuggester {
            dest_node: NodeId,
            session: SessionId,
        }
        impl App for WrongSuggester {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(netsim::SimDuration::from_secs(3), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
                let body: ControlBody = Arc::new(Suggestion {
                    receiver: netsim::AppId(999),
                    session: self.session,
                    level: 5,
                    time: ctx.now(),
                    from: ctx.node_id(),
                    cause: 0,
                });
                ctx.send_control(self.dest_node, 64, body);
            }
        }
        sim.add_app(src, Box::new(WrongSuggester { dest_node: rcv, session: def.id }));
        let (r, shared) = Receiver::new(def, src, Config::default(), 5, "r0");
        sim.add_app(rcv, Box::new(r));
        sim.run_until(SimTime::from_secs(10));
        let s = shared.lock().unwrap();
        assert_eq!(s.suggestions_received, 0);
        assert_eq!(s.final_level(), 1);
    }

    /// With nobody answering, registration retries back off exponentially:
    /// attempts at 0, 4, 12 and 28 s land inside a 30 s run.
    #[test]
    fn reregisters_with_exponential_backoff_while_unacked() {
        let (mut sim, def, src, rcv) = setup();
        // No app at src: every registration vanishes unanswered.
        let (r, shared) = Receiver::new(def, src, Config::default(), 5, "r0");
        sim.add_app(rcv, Box::new(r));
        sim.run_until(SimTime::from_secs(30));
        let s = shared.lock().unwrap();
        assert_eq!(s.registers_sent, 4, "0 s, 4 s, 12 s, 28 s");
    }

    /// An acknowledged registration stops the retries after one attempt.
    #[test]
    fn ack_stops_the_register_retries() {
        struct Acker;
        impl App for Acker {
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, p: &Packet) {
                if let Some(r) = p.control_as::<Register>() {
                    let body: ControlBody = Arc::new(RegisterAck {
                        receiver: r.receiver,
                        controller: ctx.node_id(),
                        time: ctx.now(),
                    });
                    ctx.send_control(r.node, 32, body);
                }
            }
        }
        let (mut sim, def, src, rcv) = setup();
        sim.add_app(src, Box::new(Acker));
        let (r, shared) = Receiver::new(def, src, Config::default(), 5, "r0");
        sim.add_app(rcv, Box::new(r));
        sim.run_until(SimTime::from_secs(30));
        let s = shared.lock().unwrap();
        assert_eq!(s.registers_sent, 1, "the ACK must stop the retries");
    }

    /// A router crash between source and receiver wipes the graft; the
    /// receiver must notice the dead air and repair it by re-joining.
    #[test]
    fn dead_air_after_router_crash_triggers_rejoin() {
        let mut b = NetworkBuilder::new(SimConfig::default());
        let src = b.add_node("src");
        let mid = b.add_node("mid");
        let rcv = b.add_node("rcv");
        b.add_link(src, mid, LinkConfig::kbps(10_000.0));
        b.add_link(mid, rcv, LinkConfig::kbps(10_000.0));
        let mut sim = b.build();
        let groups: Vec<GroupId> = (0..6).map(|_| sim.create_group(src)).collect();
        let def =
            SessionDef { id: SessionId(0), source: src, groups, spec: LayerSpec::paper_default() };
        sim.add_app(
            src,
            Box::new(traffic::LayeredSource::new(def.clone(), traffic::TrafficModel::Cbr, 2)),
        );
        let (r, shared) = Receiver::new(def, src, Config::default(), 5, "r0");
        sim.add_app(rcv, Box::new(r));
        // Crash the middle router briefly: it comes back up with empty
        // multicast state, so the media goes dark at the receiver.
        sim.install_faults(&netsim::FaultPlan::new().node_outage(
            mid,
            SimTime::from_secs(5),
            SimTime::from_millis(5200),
        ));
        sim.run_until(SimTime::from_secs(15));
        let s = shared.lock().unwrap();
        assert!(s.rejoins >= 1, "dead air must trigger a re-join");
        let &(t, loss) = s.loss_series.last().unwrap();
        assert!(t > SimTime::from_secs(14));
        assert_eq!(loss, 0.0, "clean windows after the repair (no phantom gap)");
        assert_eq!(s.final_level(), 1, "repair must not change the level");
    }
}
