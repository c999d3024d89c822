//! Bounded last-N windows: the simulator's packet trace and, through the
//! same [`Ring`], the controller's control-plane flight recorder.
//!
//! A ring keeps the most recent `cap` items: once full, each new item
//! overwrites the oldest and counts it as dropped, so what survives is
//! always the latest window — exactly what a black-box dump after a
//! failure needs. The simulator's ring is off by default (zero cost beyond
//! a branch); tests that want the drop/fault history replace it with a
//! sized one.

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

/// A ring of the most recent `cap` items; a ring of capacity 0 (also the
/// `Default`) records nothing.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    cap: usize,
    items: Vec<T>,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    dropped: u64,
}

impl<T> Default for Ring<T> {
    fn default() -> Self {
        Ring::new(0)
    }
}

impl<T> Ring<T> {
    /// A ring keeping the most recent `cap` items.
    pub fn new(cap: usize) -> Self {
        Ring { cap, items: Vec::new(), head: 0, dropped: 0 }
    }

    /// Record `item`, overwriting the oldest once the ring is full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.cap == 0 {
            return;
        }
        if self.items.len() < self.cap {
            self.items.push(item);
        } else {
            self.items[self.head] = item;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// How many items were overwritten. An overflowed ring still holds the
    /// latest window, but only a reader who knows how much history rolled
    /// off the front can tell it from the whole run.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<T: Clone> Ring<T> {
    /// The retained items, oldest first.
    pub fn items(&self) -> Vec<T> {
        let (newer, older) = self.items.split_at(self.head);
        [older, newer].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::check;
    use std::collections::VecDeque;

    /// The ring against the obvious model: a queue that pops its front
    /// past `cap` and counts the pops. Caps 0..=8 and up to 40 pushes
    /// cover the disabled ring, a ring never filled, one filled exactly
    /// and one wrapped several times over.
    #[test]
    fn ring_matches_a_bounded_queue() {
        check("ring_matches_a_bounded_queue", 256, |g| {
            let cap = g.range_u64(0, 9) as usize;
            let pushes = g.range_u64(0, 41);
            let mut ring = Ring::new(cap);
            let (mut model, mut dropped) = (VecDeque::new(), 0u64);
            for item in 0..pushes {
                ring.push(item);
                if cap > 0 {
                    model.push_back(item);
                    if model.len() > cap {
                        model.pop_front();
                        dropped += 1;
                    }
                }
            }
            let at = format!("cap {cap}, {pushes} pushes");
            assert_eq!(ring.items(), Vec::from(model), "{at}");
            assert_eq!(ring.dropped(), dropped, "{at}");
        });
    }
}
