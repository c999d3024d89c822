//! Lightweight structured tracing: a flight recorder for the simulator.
//!
//! Disabled by default (zero cost beyond a branch); scenarios that need the
//! Fig. 9-style event history enable it and drain the records afterwards.
//! The log is a *ring*: once `cap` events are recorded, each new event
//! overwrites the oldest, so what survives is always the most recent window
//! — exactly what a black-box dump after a failure needs.

use crate::link::DirLinkId;
use crate::node::NodeId;
use crate::time::SimTime;

/// Why a packet was dropped — black-box dumps must distinguish congestion
/// loss (the control loop's signal) from fault loss (the chaos plan's).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The link's queue was full (drop-tail or priority-drop congestion).
    QueueFull,
    /// The link itself was down (outage flush or refusal at a dead link).
    LinkDown,
    /// The link's endpoint node crashed (outage flush on its out-links).
    NodeDown,
}

impl DropReason {
    /// Stable lower-case label for dumps and counters.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::QueueFull => "queue_full",
            DropReason::LinkDown => "link_down",
            DropReason::NodeDown => "node_down",
        }
    }
}

/// One traced occurrence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A packet was dropped.
    Drop { time: SimTime, link: DirLinkId, bytes: u32, reason: DropReason },
    /// A directed link changed state (fault injection).
    LinkState { time: SimTime, link: DirLinkId, up: bool },
    /// A node crashed or restarted (fault injection).
    NodeState { time: SimTime, node: NodeId, up: bool },
}

impl TraceEvent {
    /// The simulated instant of the occurrence.
    pub fn time(&self) -> SimTime {
        match *self {
            TraceEvent::Drop { time, .. }
            | TraceEvent::LinkState { time, .. }
            | TraceEvent::NodeState { time, .. } => time,
        }
    }
}

/// A bounded in-memory ring of the most recent trace events.
pub struct TraceLog {
    /// Events kept; 0 records nothing.
    cap: usize,
    events: Vec<TraceEvent>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    dropped: u64,
}

impl TraceLog {
    /// A trace that records nothing.
    pub fn disabled() -> Self {
        Self::bounded(0)
    }

    /// A trace that keeps the most recent `cap` events; older ones are
    /// overwritten (and counted in [`TraceLog::dropped`]).
    fn bounded(cap: usize) -> Self {
        TraceLog { cap, events: Vec::new(), head: 0, dropped: 0 }
    }

    /// Enable recording on an existing log.
    pub fn enable(&mut self, cap: usize) {
        self.cap = cap;
    }

    pub(crate) fn drop(&mut self, time: SimTime, link: DirLinkId, bytes: u32, reason: DropReason) {
        self.record(TraceEvent::Drop { time, link, bytes, reason });
    }

    pub(crate) fn link_state(&mut self, time: SimTime, link: DirLinkId, up: bool) {
        self.record(TraceEvent::LinkState { time, link, up });
    }

    pub(crate) fn node_state(&mut self, time: SimTime, node: NodeId, up: bool) {
        self.record(TraceEvent::NodeState { time, node, up });
    }

    fn record(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            return;
        }
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// The recorded events, oldest surviving first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }

    /// How many events were overwritten past the bound. An overflowed ring
    /// is still useful — it holds the *latest* window — but only if the
    /// reader knows how much history rolled off the front.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded (or recording is off).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drain all recorded events, oldest surviving first.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        let out = self.events();
        self.events.clear();
        self.head = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut t = TraceLog::disabled();
        t.drop(SimTime::ZERO, DirLinkId(0), 100, DropReason::QueueFull);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        // Regression: the old log kept the *first* `cap` events and dropped
        // the newest — useless as a flight recorder. The ring must retain
        // the last `cap`, in order, and count what rolled off.
        let mut t = TraceLog::bounded(2);
        for i in 0..5 {
            t.drop(SimTime::from_secs(i), DirLinkId(0), 100, DropReason::QueueFull);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].time(), SimTime::from_secs(3));
        assert_eq!(evs[1].time(), SimTime::from_secs(4));
        assert_eq!(t.dropped(), 3, "every event rolled off the ring is counted");
    }

    #[test]
    fn log_at_exact_capacity_reports_no_loss() {
        let mut t = TraceLog::bounded(2);
        for i in 0..2 {
            t.drop(SimTime::from_secs(i), DirLinkId(0), 100, DropReason::QueueFull);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_order_is_chronological_after_wraparound() {
        let mut t = TraceLog::bounded(3);
        for i in 0..7 {
            t.drop(SimTime::from_secs(i), DirLinkId(0), 1, DropReason::LinkDown);
        }
        let times: Vec<u64> = t.events().iter().map(|e| e.time().as_secs_f64() as u64).collect();
        assert_eq!(times, vec![4, 5, 6]);
        assert_eq!(t.dropped(), 4);
    }

    #[test]
    fn take_drains() {
        let mut t = TraceLog::bounded(8);
        t.drop(SimTime::ZERO, DirLinkId(1), 50, DropReason::NodeDown);
        let evs = t.take();
        assert_eq!(evs.len(), 1);
        assert!(t.events().is_empty());
        match evs[0] {
            TraceEvent::Drop { link, bytes, reason, .. } => {
                assert_eq!(link, DirLinkId(1));
                assert_eq!(bytes, 50);
                assert_eq!(reason, DropReason::NodeDown);
            }
            other => panic!("expected a drop, got {other:?}"),
        }
    }

    #[test]
    fn zero_cap_enabled_ring_records_nothing() {
        let mut t = TraceLog::bounded(0);
        t.drop(SimTime::ZERO, DirLinkId(0), 1, DropReason::QueueFull);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
