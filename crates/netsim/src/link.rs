//! Point-to-point links with bandwidth, propagation delay, and a drop-tail
//! FIFO queue — the loss model the paper evaluates against ("a drop-tail
//! policy was used at all nodes").
//!
//! A physical link is duplex: it is created as a pair of independent
//! **directed** links, each with its own transmitter and queue. Packet
//! transmission is store-and-forward: a packet occupies the transmitter for
//! its serialization time, then crosses the wire in the propagation delay,
//! and arrives at the far node. Packets that find the transmitter busy wait
//! in the queue; packets that find the queue full are dropped.
//!
//! Links never touch packet payloads: queues, the transmitter, and the wire
//! hold [`QueuedPacket`] records (slab id + the size and layer the queueing
//! disciplines need). The wire is a FIFO of `(arrival time, id)` pairs
//! drained by a single self-rescheduling `LinkDeliver` event per link, so a
//! busy link keeps one delivery entry in the event queue no matter how many
//! packets are mid-flight.

use crate::node::NodeId;
use crate::packet::PacketId;
use crate::prefetch;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Index of a **directed** link.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DirLinkId(pub u32);

/// What happens when a packet arrives at a full queue.
///
/// The paper evaluates drop-tail ("a drop-tail policy was used at all
/// nodes"); the layer-priority discipline implements the network-based
/// priority-dropping alternative it cites (Bajaj, Breslau & Shenker): on
/// overflow, evict the queued media packet of the **highest layer** — the
/// least valuable in a cumulative layering — in favour of lower layers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// FIFO, arrivals at a full queue are dropped.
    #[default]
    DropTail,
    /// FIFO, but overflow evicts the queued packet with the highest media
    /// layer (ties: latest arrival). Non-media packets count as layer 0.
    PriorityDrop,
}

/// Parameters for one duplex link.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Capacity in bits per second (per direction).
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Drop-tail queue limit, in packets, per direction (excluding the
    /// packet in transmission).
    pub queue_packets: usize,
    /// Overflow behaviour.
    pub discipline: QueueDiscipline,
}

impl LinkConfig {
    /// Convenience constructor with capacity in kilobits per second and the
    /// paper's default 200 ms latency. The 10-packet drop-tail queue keeps
    /// the queueing delay at a 150 kb/s bottleneck near half a second, so a
    /// failed layer probe shows up in loss reports within one interval.
    pub fn kbps(kbps: f64) -> Self {
        LinkConfig {
            bandwidth_bps: kbps * 1000.0,
            delay: SimDuration::from_millis(200),
            queue_packets: 10,
            discipline: QueueDiscipline::DropTail,
        }
    }

    /// Override the propagation delay.
    pub fn with_delay(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }

    /// Override the queue limit.
    pub fn with_queue(mut self, packets: usize) -> Self {
        self.queue_packets = packets;
        self
    }

    /// Override the overflow discipline.
    #[cfg(test)]
    fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }
}

/// Cumulative counters for one directed link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets fully transmitted.
    pub tx_packets: u64,
    /// Bytes fully transmitted.
    pub tx_bytes: u64,
    /// Packets dropped at the queue (tail or priority eviction).
    pub dropped_packets: u64,
    /// Packets lost to a fault: arrivals refused while the link is failed,
    /// queues flushed by an outage (link failure or transmitting-router
    /// crash — both fault kinds account flushes identically), and
    /// transmissions aborted by a mid-serialization outage. A subset of
    /// `dropped_packets`, kept separately so fault post-mortems can tell
    /// congestion loss from outage loss per link. Congestion (queue-full)
    /// loss is the difference `dropped_packets - down_dropped_packets`.
    pub down_dropped_packets: u64,
    /// Bytes dropped at the queue tail.
    pub dropped_bytes: u64,
    /// Packets offered to the link (tx + queued + dropped).
    pub offered_packets: u64,
    /// Most packets ever waiting in the queue at once (excluding the one in
    /// transmission) — the profiler's per-link queue high-water mark.
    pub queue_hwm: u64,
}

impl LinkStats {
    /// Account a packet this link delivered into a crashed node. The link
    /// did complete the transmission (`tx_*` already counted it), but the
    /// payload was lost on arrival; charging the loss here keeps drop
    /// accounting attributable to the link's owning shard instead of
    /// vanishing into a global unowned bucket.
    pub fn count_dead_arrival(&mut self, bytes: u32) {
        self.dropped_packets += 1;
        self.down_dropped_packets += 1;
        self.dropped_bytes += bytes as u64;
    }

    /// Fraction of offered packets that were dropped.
    #[cfg(test)]
    fn drop_rate(&self) -> f64 {
        if self.offered_packets == 0 {
            0.0
        } else {
            self.dropped_packets as f64 / self.offered_packets as f64
        }
    }
}

/// What a link knows about a packet: its slab id plus the two fields the
/// queueing disciplines read. 16 bytes, `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedPacket {
    /// Slab handle; the simulator resolves it on delivery.
    pub id: PacketId,
    /// Wire size in bytes (drives serialization time and drop accounting).
    pub size: u32,
    /// Media layer (control packets rank as layer 0).
    pub layer: u8,
}

/// Result of offering a packet to a link.
#[derive(Debug, PartialEq, Eq)]
pub enum Enqueue {
    /// Transmission started immediately; `LinkTxDone` fires after the
    /// returned serialization time.
    StartTx(SimDuration),
    /// Packet queued behind the current transmission. Under
    /// [`QueueDiscipline::PriorityDrop`] this may have evicted a queued
    /// packet — the caller must release (and may trace) the victim.
    Queued { evicted: Option<QueuedPacket> },
    /// Queue full; the offered packet was dropped (already counted).
    Dropped,
}

/// One directed link.
///
/// `repr(C)`, 200 bytes, 8-aligned: a `Link` overlaps four cache lines
/// wherever it starts, and every hot path reaches across them —
/// `tx_done` reads the endpoints and transmitter at the front, the counters
/// in the middle and both `VecDeque` headers at the back; `enqueue` the
/// front and the counters; a wire drain `to` and the `wire` header. A
/// steady-state simulation walks `Link`s in effectively random order, so
/// beyond L2 the first touch is a miss whichever line it lands on; the run
/// loop therefore prefetches the whole struct ahead of the event
/// (`Simulator::prefetch_ahead`) instead of relying on the field order.
#[repr(C)]
pub struct Link {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// False while the link is failed: it accepts nothing and carries
    /// nothing (fault injection).
    up: bool,
    discipline: QueueDiscipline,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Capacity in bits per second.
    pub bandwidth_bps: f64,
    /// Last `(size, serialization time)` computed — steady traffic repeats
    /// one packet size per link, so this turns the per-hop f64 division
    /// into a compare. Memoization is exact: on a hit the cached result is
    /// bit-identical to recomputing it.
    ser_memo: (u32, SimDuration),
    in_flight: Option<QueuedPacket>,
    /// Cumulative statistics.
    pub stats: LinkStats,
    queue_limit: usize,
    queue: VecDeque<QueuedPacket>,
    /// Packets crossing the wire: `(arrival time, id)`, FIFO (the constant
    /// propagation delay keeps arrival times monotone). Exactly one
    /// `LinkDeliver` event is pending iff this is non-empty.
    wire: VecDeque<(SimTime, PacketId)>,
}

impl Link {
    pub fn new(from: NodeId, to: NodeId, cfg: &LinkConfig) -> Self {
        assert!(cfg.bandwidth_bps > 0.0, "link bandwidth must be positive");
        Link {
            from,
            to,
            up: true,
            discipline: cfg.discipline,
            delay: cfg.delay,
            bandwidth_bps: cfg.bandwidth_bps,
            ser_memo: (0, SimDuration::ZERO),
            in_flight: None,
            stats: LinkStats::default(),
            queue_limit: cfg.queue_packets,
            // Allocated by the first packet that has to wait: a link that
            // never queues (idle, or the upstream half of a tree) owns none.
            queue: VecDeque::new(),
            wire: VecDeque::new(),
        }
    }

    /// Serialization time of a `size`-byte packet, memoized on the last
    /// distinct size seen (exact — a hit returns the identical value).
    #[inline]
    fn ser_time(&mut self, size: u32) -> SimDuration {
        if self.ser_memo.0 != size {
            self.ser_memo = (size, SimDuration::serialization(size as u64, self.bandwidth_bps));
        }
        self.ser_memo.1
    }

    /// Offer a packet to this link.
    pub fn enqueue(&mut self, packet: QueuedPacket) -> Enqueue {
        self.stats.offered_packets += 1;
        if !self.up {
            self.drop_counted(packet);
            self.stats.down_dropped_packets += 1;
            return Enqueue::Dropped;
        }
        if self.in_flight.is_none() {
            let ser = self.ser_time(packet.size);
            self.in_flight = Some(packet);
            Enqueue::StartTx(ser)
        } else if self.queue.len() < self.queue_limit {
            self.queue.push_back(packet);
            self.stats.queue_hwm = self.stats.queue_hwm.max(self.queue.len() as u64);
            Enqueue::Queued { evicted: None }
        } else {
            match self.discipline {
                QueueDiscipline::DropTail => {
                    self.drop_counted(packet);
                    Enqueue::Dropped
                }
                QueueDiscipline::PriorityDrop => {
                    // Evict the queued packet of the highest layer if it is
                    // strictly less valuable than the arrival; otherwise the
                    // arrival itself is the least valuable and is dropped.
                    let victim = self
                        .queue
                        .iter()
                        .enumerate()
                        .rev() // latest arrival loses ties
                        .max_by_key(|(_, p)| p.layer)
                        .map(|(i, p)| (i, p.layer));
                    match victim {
                        Some((i, vl)) if vl > packet.layer => {
                            let evicted = self.queue.remove(i).expect("victim index valid");
                            self.drop_counted(evicted);
                            self.queue.push_back(packet);
                            Enqueue::Queued { evicted: Some(evicted) }
                        }
                        _ => {
                            self.drop_counted(packet);
                            Enqueue::Dropped
                        }
                    }
                }
            }
        }
    }

    fn drop_counted(&mut self, packet: QueuedPacket) {
        self.stats.dropped_packets += 1;
        self.stats.dropped_bytes += packet.size as u64;
    }

    /// The current transmission finished. Returns the packet that now
    /// crosses the wire (arriving after [`Link::delay`]) and, if another
    /// packet was waiting, the serialization time of the next transmission.
    pub fn tx_done(&mut self) -> (QueuedPacket, Option<SimDuration>) {
        let sent = self.in_flight.take().expect("tx_done with idle transmitter");
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += sent.size as u64;
        let next = self.queue.pop_front().map(|p| {
            let ser = self.ser_time(p.size);
            self.in_flight = Some(p);
            ser
        });
        (sent, next)
    }

    /// Fail the link: flush the queue and stop accepting traffic. The packet
    /// being serialized, if any, stays on the transmitter — the simulator
    /// judges it against the link state when its `LinkTxDone` fires — and
    /// packets already past the transmitter survive on the wire (micro-flaps
    /// shorter than the remaining flight are never noticed). Flushed packets
    /// are appended to `flushed` so the caller can release their slab
    /// references and trace the drops; returns how many were flushed.
    pub fn set_down(&mut self, flushed: &mut Vec<QueuedPacket>) -> usize {
        self.up = false;
        self.flush_outage(flushed)
    }

    /// Drop every queued packet with **outage accounting** — the shared
    /// flush path for both fault kinds (`LinkDown` here via
    /// [`Link::set_down`], `NodeCrash` when the transmitting router's
    /// buffers vanish), so `LinkStats` drop totals agree between them:
    /// every flushed packet counts in both `dropped_packets` and
    /// `down_dropped_packets`. The transmitter keeps its current packet;
    /// the simulator judges it at `LinkTxDone` time.
    pub fn flush_outage(&mut self, flushed: &mut Vec<QueuedPacket>) -> usize {
        let n = self.queue.len();
        while let Some(p) = self.queue.pop_front() {
            self.drop_counted(p);
            self.stats.down_dropped_packets += 1;
            flushed.push(p);
        }
        n
    }

    /// Repair the link: it accepts traffic again (with an empty queue).
    pub fn set_up(&mut self) {
        self.up = true;
    }

    /// Whether the link is currently carrying traffic.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Abort the in-flight transmission (link or transmitting router went
    /// down before serialization finished): the packet counts as dropped —
    /// as outage loss, since aborts only happen on a fault — and nothing
    /// arrives. Returns it so the caller can release its slab reference;
    /// `None` when the transmitter is idle.
    pub fn abort_tx(&mut self) -> Option<QueuedPacket> {
        let aborted = self.in_flight.take();
        if let Some(p) = aborted {
            self.drop_counted(p);
            self.stats.down_dropped_packets += 1;
        }
        aborted
    }

    /// Near prefetch stage for a pending `LinkDeliver`: the wire slot it
    /// pops. Reads the `VecDeque` header, so the far stage (`prefetch` of the
    /// whole `Link`) should have landed by now.
    #[inline]
    pub(crate) fn prefetch_wire_front(&self) {
        if let Some(slot) = self.wire.front() {
            prefetch(slot);
        }
    }

    /// Near prefetch stage for a pending `LinkTxDone`: the wire's tail line,
    /// on or next to which `wire_push` writes.
    #[inline]
    pub(crate) fn prefetch_wire_back(&self) {
        if let Some(slot) = self.wire.back() {
            prefetch(slot);
        }
    }

    /// Put a transmitted packet on the wire, arriving at `at`. Returns true
    /// when the wire was empty — the caller must then schedule the link's
    /// `LinkDeliver` event (otherwise one is already pending).
    pub fn wire_push(&mut self, at: SimTime, id: PacketId) -> bool {
        debug_assert!(self.wire.back().is_none_or(|&(t, _)| t <= at), "wire must stay FIFO");
        let was_empty = self.wire.is_empty();
        self.wire.push_back((at, id));
        was_empty
    }

    /// Pop the head-of-wire packet if it has arrived by `now`.
    pub fn wire_pop_due(&mut self, now: SimTime) -> Option<PacketId> {
        if self.wire.front().is_some_and(|&(t, _)| t <= now) {
            self.wire.pop_front().map(|(_, id)| id)
        } else {
            None
        }
    }

    /// Arrival time of the next wire packet, if any.
    pub fn wire_next(&self) -> Option<SimTime> {
        self.wire.front().map(|&(t, _)| t)
    }

    /// Packets currently crossing the wire.
    #[cfg(test)]
    fn wire_len(&self) -> usize {
        self.wire.len()
    }

    /// Packets currently waiting (excluding the one in transmission).
    #[cfg(test)]
    fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True if the transmitter is serializing a packet.
    #[cfg(test)]
    fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Average utilization over `[start, now]` from cumulative counters.
    #[cfg(test)]
    fn utilization(&self, start: SimTime, now: SimTime) -> f64 {
        let secs = now.since(start).as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.stats.tx_bytes as f64 * 8.0) / (self.bandwidth_bps * secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;

    /// Links never dereference ids, so tests can mint synthetic ones.
    fn qp(n: u32, size: u32, layer: u8) -> QueuedPacket {
        QueuedPacket { id: PacketId::new(n, 0), size, layer }
    }

    fn pkt(size: u32) -> QueuedPacket {
        qp(0, size, 0)
    }

    fn link(kbps: f64, queue: usize) -> Link {
        let cfg = LinkConfig::kbps(kbps).with_queue(queue);
        Link::new(NodeId(0), NodeId(1), &cfg)
    }

    fn queued(e: Enqueue) -> bool {
        matches!(e, Enqueue::Queued { .. })
    }

    #[test]
    fn idle_link_starts_tx_immediately() {
        let mut l = link(32.0, 4);
        match l.enqueue(pkt(1000)) {
            Enqueue::StartTx(d) => assert_eq!(d, SimDuration::from_millis(250)),
            other => panic!("expected StartTx, got {other:?}"),
        }
        assert!(l.is_busy());
        assert_eq!(l.queue_len(), 0);
    }

    #[test]
    fn busy_link_queues_then_drops() {
        let mut l = link(32.0, 2);
        assert!(matches!(l.enqueue(pkt(1000)), Enqueue::StartTx(_)));
        assert!(queued(l.enqueue(pkt(1000))));
        assert!(queued(l.enqueue(pkt(1000))));
        assert_eq!(l.enqueue(pkt(1000)), Enqueue::Dropped);
        assert_eq!(l.stats.dropped_packets, 1);
        assert_eq!(l.stats.offered_packets, 4);
        assert_eq!(l.queue_len(), 2);
    }

    #[test]
    fn tx_done_advances_queue_fifo() {
        let mut l = link(32.0, 4);
        assert!(matches!(l.enqueue(pkt(500)), Enqueue::StartTx(_)));
        l.enqueue(pkt(1000));
        let (sent, next) = l.tx_done();
        assert_eq!(sent.size, 500);
        assert_eq!(next, Some(SimDuration::from_millis(250)));
        assert!(l.is_busy());
        let (sent2, next2) = l.tx_done();
        assert_eq!(sent2.size, 1000);
        assert_eq!(next2, None);
        assert!(!l.is_busy());
        assert_eq!(l.stats.tx_packets, 2);
        assert_eq!(l.stats.tx_bytes, 1500);
    }

    #[test]
    #[should_panic]
    fn tx_done_on_idle_panics() {
        let mut l = link(32.0, 4);
        let _ = l.tx_done();
    }

    #[test]
    fn drop_rate_computation() {
        let mut l = link(32.0, 0);
        assert!(matches!(l.enqueue(pkt(1000)), Enqueue::StartTx(_)));
        assert_eq!(l.enqueue(pkt(1000)), Enqueue::Dropped);
        assert!((l.stats.drop_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn priority_drop_evicts_highest_layer() {
        let cfg =
            LinkConfig::kbps(32.0).with_queue(2).with_discipline(QueueDiscipline::PriorityDrop);
        let mut l = Link::new(NodeId(0), NodeId(1), &cfg);
        let mk = |n: u32, layer: u8| qp(n, 1000, layer);
        assert!(matches!(l.enqueue(mk(0, 0)), Enqueue::StartTx(_)));
        assert!(queued(l.enqueue(mk(1, 3))));
        assert!(queued(l.enqueue(mk(2, 5))));
        // Queue full; a base-layer packet evicts the layer-5 one — and the
        // victim surfaces so the simulator can release its slab reference.
        match l.enqueue(mk(3, 0)) {
            Enqueue::Queued { evicted: Some(v) } => assert_eq!(v.layer, 5),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(l.stats.dropped_packets, 1);
        // A layer-6 arrival is itself the least valuable: dropped.
        assert_eq!(l.enqueue(mk(4, 6)), Enqueue::Dropped);
        assert_eq!(l.stats.dropped_packets, 2);
        // Drain and verify the surviving layers.
        let mut layers = Vec::new();
        let (first, mut more) = l.tx_done();
        layers.push(first.layer);
        while more.is_some() {
            let (p, next) = l.tx_done();
            layers.push(p.layer);
            more = next;
        }
        assert_eq!(layers, vec![0, 3, 0]);
    }

    #[test]
    fn priority_drop_protects_control_packets() {
        let cfg =
            LinkConfig::kbps(32.0).with_queue(1).with_discipline(QueueDiscipline::PriorityDrop);
        let mut l = Link::new(NodeId(0), NodeId(1), &cfg);
        let media = |n| qp(n, 1000, 4);
        let ctrl = qp(9, 64, 0); // control packets rank as layer 0
        assert!(matches!(l.enqueue(media(0)), Enqueue::StartTx(_)));
        assert!(queued(l.enqueue(media(1))));
        // Control packet (layer 0) evicts the queued layer-4 media packet.
        match l.enqueue(ctrl) {
            Enqueue::Queued { evicted: Some(v) } => assert_eq!(v.layer, 4),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert_eq!(l.stats.dropped_packets, 1);
    }

    #[test]
    fn downed_link_counts_outage_drops_separately() {
        let mut l = link(32.0, 4);
        assert!(matches!(l.enqueue(pkt(1000)), Enqueue::StartTx(_)));
        assert!(queued(l.enqueue(pkt(1000))));
        // Failure flushes the one queued packet...
        let mut flushed = Vec::new();
        assert_eq!(l.set_down(&mut flushed), 1);
        assert_eq!(flushed.len(), 1);
        assert_eq!(l.stats.down_dropped_packets, 1);
        // ...and refusals while down also count as outage loss.
        assert_eq!(l.enqueue(pkt(1000)), Enqueue::Dropped);
        assert_eq!(l.stats.down_dropped_packets, 2);
        assert_eq!(l.stats.dropped_packets, 2, "outage drops are a subset of all drops");
        // A plain congestion drop after repair moves only the total.
        l.set_up();
        assert!(queued(l.enqueue(pkt(1000)))); // transmitter still busy
        let mut l2 = link(32.0, 0);
        assert!(matches!(l2.enqueue(pkt(1000)), Enqueue::StartTx(_)));
        assert_eq!(l2.enqueue(pkt(1000)), Enqueue::Dropped);
        assert_eq!(l2.stats.down_dropped_packets, 0);
        assert_eq!(l2.stats.dropped_packets, 1);
    }

    /// Satellite regression: a link-down flush and a router-crash flush of
    /// identical queue states must leave identical `LinkStats` — both fault
    /// kinds go through the unified outage-flush path.
    #[test]
    fn outage_flush_accounting_identical_for_both_fault_kinds() {
        let fill = |l: &mut Link| {
            assert!(matches!(l.enqueue(qp(0, 1000, 0)), Enqueue::StartTx(_)));
            assert!(queued(l.enqueue(qp(1, 700, 1))));
            assert!(queued(l.enqueue(qp(2, 300, 2))));
        };
        // Fault kind 1: the link itself fails.
        let mut by_link_down = link(32.0, 4);
        fill(&mut by_link_down);
        let mut flushed_a = Vec::new();
        by_link_down.set_down(&mut flushed_a);
        // Fault kind 2: the transmitting router crashes (link stays up).
        let mut by_node_crash = link(32.0, 4);
        fill(&mut by_node_crash);
        let mut flushed_b = Vec::new();
        by_node_crash.flush_outage(&mut flushed_b);
        assert_eq!(flushed_a, flushed_b);
        assert_eq!(by_link_down.stats, by_node_crash.stats);
        assert_eq!(by_link_down.stats.dropped_packets, 2);
        assert_eq!(by_link_down.stats.down_dropped_packets, 2);
        assert_eq!(by_link_down.stats.dropped_bytes, 1000);
    }

    #[test]
    fn abort_tx_returns_the_victim() {
        let mut l = link(32.0, 4);
        assert!(l.abort_tx().is_none());
        assert!(matches!(l.enqueue(qp(7, 1000, 2)), Enqueue::StartTx(_)));
        let aborted = l.abort_tx().expect("in-flight packet");
        assert_eq!(aborted, qp(7, 1000, 2));
        assert_eq!(l.stats.dropped_packets, 1);
        assert_eq!(l.stats.down_dropped_packets, 1, "an abort is fault loss, not congestion");
        assert!(!l.is_busy());
    }

    #[test]
    fn queue_high_water_mark_tracks_peak_occupancy() {
        let mut l = link(32.0, 4);
        assert_eq!(l.stats.queue_hwm, 0);
        assert!(matches!(l.enqueue(pkt(1000)), Enqueue::StartTx(_)));
        assert_eq!(l.stats.queue_hwm, 0, "the in-flight packet is not queue occupancy");
        assert!(queued(l.enqueue(pkt(1000))));
        assert!(queued(l.enqueue(pkt(1000))));
        assert_eq!(l.stats.queue_hwm, 2);
        // Draining does not lower the mark.
        let _ = l.tx_done();
        let _ = l.tx_done();
        assert_eq!(l.queue_len(), 0);
        assert_eq!(l.stats.queue_hwm, 2);
    }

    /// A link owns no queue allocation until a packet has to wait, and the
    /// first waiting packet — after creation or after an outage flush —
    /// meets the same drop-tail limit and priority eviction as ever.
    #[test]
    fn queue_allocates_on_first_waiting_packet() {
        let mut l = link(32.0, 2);
        assert_eq!(l.queue.capacity(), 0, "a fresh link owns no queue");
        assert!(matches!(l.enqueue(pkt(1000)), Enqueue::StartTx(_)));
        assert_eq!(l.queue.capacity(), 0, "the transmitter is not the queue");
        assert!(queued(l.enqueue(pkt(1000))));
        assert!(l.queue.capacity() > 0, "the first waiting packet allocates");
        assert!(queued(l.enqueue(pkt(1000))));
        assert_eq!(l.enqueue(pkt(1000)), Enqueue::Dropped);
        let mut flushed = Vec::new();
        assert_eq!(l.set_down(&mut flushed), 2);
        l.set_up();
        assert!(queued(l.enqueue(pkt(1000))));
        assert!(queued(l.enqueue(pkt(1000))));
        assert_eq!(l.enqueue(pkt(1000)), Enqueue::Dropped, "drop-tail limit after a flush");
        assert_eq!(l.stats.dropped_packets, 4);
        assert_eq!(l.stats.down_dropped_packets, 2);

        let cfg =
            LinkConfig::kbps(32.0).with_queue(1).with_discipline(QueueDiscipline::PriorityDrop);
        for flush_first in [false, true] {
            let mut l = Link::new(NodeId(0), NodeId(1), &cfg);
            assert!(matches!(l.enqueue(qp(0, 1000, 0)), Enqueue::StartTx(_)));
            if flush_first {
                assert!(queued(l.enqueue(qp(1, 1000, 1))));
                assert_eq!(l.flush_outage(&mut flushed), 1);
            }
            assert_eq!(l.queue.capacity() > 0, flush_first, "allocated iff a packet waited");
            assert!(queued(l.enqueue(qp(2, 1000, 5))));
            match l.enqueue(qp(3, 1000, 2)) {
                Enqueue::Queued { evicted: Some(v) } => assert_eq!(v, qp(2, 1000, 5)),
                other => panic!("expected eviction, got {other:?}"),
            }
            assert_eq!(l.enqueue(qp(4, 1000, 3)), Enqueue::Dropped);
            assert_eq!(l.queue_len(), 1);
        }
    }

    #[test]
    fn wire_fifo_and_deliver_scheduling_contract() {
        let mut l = link(32.0, 4);
        let t1 = SimTime::from_millis(100);
        let t2 = SimTime::from_millis(150);
        // First push: wire was empty, caller must schedule LinkDeliver.
        assert!(l.wire_push(t1, PacketId::new(1, 0)));
        // Second push: a deliver event is already pending.
        assert!(!l.wire_push(t2, PacketId::new(2, 0)));
        assert_eq!(l.wire_len(), 2);
        assert_eq!(l.wire_next(), Some(t1));
        // Nothing is due before its arrival time.
        assert!(l.wire_pop_due(SimTime::from_millis(99)).is_none());
        assert_eq!(l.wire_pop_due(t1), Some(PacketId::new(1, 0)));
        assert!(l.wire_pop_due(t1).is_none(), "head not yet due");
        assert_eq!(l.wire_next(), Some(t2));
        assert_eq!(l.wire_pop_due(SimTime::from_secs(1)), Some(PacketId::new(2, 0)));
        assert_eq!(l.wire_len(), 0);
    }

    #[test]
    fn utilization_from_counters() {
        let mut l = link(80.0, 4); // 80 kbit/s
        assert!(matches!(l.enqueue(pkt(1000)), Enqueue::StartTx(_)));
        let _ = l.tx_done();
        // 8000 bits sent; over 1 s at 80_000 bit/s => 10% utilization.
        let u = l.utilization(SimTime::ZERO, SimTime::from_secs(1));
        assert!((u - 0.1).abs() < 1e-9);
    }
}
