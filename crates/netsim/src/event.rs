//! The event queue at the heart of the simulator.
//!
//! Events are keyed on `(time, sequence)`. The monotonically increasing
//! sequence number breaks ties deterministically: two events scheduled for
//! the same instant fire in the order they were scheduled, which is what
//! makes whole runs reproducible bit-for-bit.
//!
//! Two interchangeable backends implement that contract:
//!
//! * [`QueueBackend::CalendarWheel`] (default) — a hierarchical calendar
//!   queue in the ns-2 tradition: 6 levels × 64 slots with per-level
//!   occupancy bitmaps. Level 0 buckets 2^16 ns (≈65 µs) of simulated time
//!   per slot; each level above widens slots 64×, so the wheel spans ~52
//!   simulated days before spilling into an unordered overflow bucket.
//!   Schedule and pop are O(1) amortized: an event is filed at the lowest
//!   level whose current rotation can hold it, cascades toward level 0 as
//!   the cursor approaches, and is popped by a bitmap scan instead of a
//!   heap sift. A level-0 slot is gathered into one buffer and sorted by
//!   `(time, seq)` the first time a pop is due from it, and drains from
//!   the back, so even the hundreds of same-instant events a symmetric
//!   multicast fan-out produces cost O(1) per pop. Slots store their
//!   entries in page-sized chunks drawn from one pool per wheel: a slot
//!   holds chunks only while it holds entries, and a drained slot's chunks
//!   go back to the pool for whichever slot fills next. The memory the
//!   wheel retains is its pending high-water mark, plus at most one partly
//!   filled chunk per occupied slot, plus the draining buffer; once the
//!   pool reaches that mark it never allocates again.
//! * [`QueueBackend::BinaryHeap`] — the original binary-heap future-event
//!   list, kept as the **differential oracle**: `tests/netsim_differential.rs`
//!   proves runs are byte-identical under either backend.

use crate::app::AppId;
use crate::faults::FaultKind;
use crate::link::DirLinkId;
use crate::multicast::GroupId;
use crate::node::NodeId;
use crate::packet::PacketId;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;

/// Everything that can happen in the simulated world.
///
/// Variants carry ids only — a full `Event` is 16 bytes (32 with the
/// queue's time and sequence), so queue reshuffles move machine words, not
/// packet structs (payloads live in the [`crate::packet::PacketSlab`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A link finished serializing the packet at the head of its queue.
    LinkTxDone(DirLinkId),
    /// The self-rescheduling link-drain event: the packet at the head of a
    /// link's wire FIFO reaches the far node. One of these is pending per
    /// link iff the link's wire is non-empty, so back-to-back packets on a
    /// busy link cost one queue operation each, not two.
    LinkDeliver(DirLinkId),
    /// An application injected a packet at its own node (no incoming link);
    /// the ordinary forwarding path takes it from there.
    Inject { node: NodeId, packet: PacketId },
    /// An application timer fires with an app-chosen token.
    Timer { app: AppId, token: u64 },
    /// A multicast graft completes: `link` starts carrying `group`.
    GraftDone { group: GroupId, link: DirLinkId },
    /// A multicast prune completes: `link` stops carrying `group`
    /// (unless membership re-appeared in the meantime).
    PruneDone { group: GroupId, link: DirLinkId },
    /// A scheduled fault fires (see [`crate::faults::FaultPlan`]).
    Fault(FaultKind),
}

/// Which future-event-list implementation a simulation uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Hierarchical calendar/timer-wheel queue (fast path).
    #[default]
    CalendarWheel,
    /// The original binary min-heap, retained as the differential oracle.
    BinaryHeap,
}

/// Calendar-wheel activity counters — the profiler's view of where queue
/// work goes (cascade traffic and lazy-sort pressure are what the sharded-
/// simulator roadmap item needs to size per-domain wheels). Pure observers:
/// they never influence scheduling. All zeros on the heap backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Upper-level slots cascaded down as the cursor reached them.
    pub cascades: u64,
    /// Entries re-filed by those cascades.
    pub cascaded_entries: u64,
    /// Level-0 slots reached by a pop. Each is sorted once, by the first
    /// pop that finds its earliest entry due.
    pub lazy_sorts: u64,
    /// Entries filed into the unordered overflow bucket (beyond the wheel
    /// horizon), including re-filings when the bucket respills.
    pub overflow_filed: u64,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the earliest first.
        other.time.cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Log2 of the level-0 slot width: 2^16 ns ≈ 65.5 µs per tick.
const GRAN_BITS: u32 = 16;
/// Log2 of the slots per level.
const LEVEL_BITS: u32 = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
const LEVELS: usize = 6;
/// Entries per pool chunk: 128 × 32 B is 4 KiB, one page. A slot leaves at
/// most its tail chunk partly filled, so the slack is bounded by occupied
/// slots × one page (1.5 MiB if all 384 are occupied), while a chunk is
/// still long enough that a cascade or gather reads contiguous runs and
/// follows a `next` index once per page, not once per entry.
const CHUNK: usize = 128;
/// End of a chunk list.
const NIL: u32 = u32::MAX;
/// What a pool entry holds before a slot first writes it; never read.
const FILLER: Entry = Entry { time: SimTime::ZERO, seq: 0, event: Event::LinkTxDone(DirLinkId(0)) };

/// An occupied slot's chunks, linked from `head` to `tail` through
/// `CalendarWheel::next`. Every chunk but the tail is full, so the tail's
/// fill is the only length a slot keeps, and the one `file` reads.
#[derive(Clone, Copy, Debug)]
struct SlotList {
    head: u32,
    tail: u32,
    tail_len: u32,
}

/// Hierarchical timer wheel. All arithmetic is on raw nanosecond counts.
///
/// Invariants:
/// * `cursor` never exceeds the time of any pending entry, and never moves
///   backwards, so every entry filed at level `L` stays within the 64-slot
///   window `[cursor_slot_L, cursor_slot_L + 63]` for its whole residence —
///   slot indices (`abs_slot & 63`) are unambiguous.
/// * An entry is filed at the lowest level whose window can hold it;
///   entries beyond the top level's window live in `overflow` (unordered)
///   until the cursor comes within the top level's horizon of the bucket's
///   earliest time, at which point the bucket respills into the wheel.
/// * Every chunk of the pool is in exactly one list: an occupied slot's
///   (every chunk full but the tail, which is not empty) or the free list.
///   The active slot's entries are all in `drain`, and it owns no chunk.
struct CalendarWheel {
    /// Entry storage for every slot, `CHUNK` entries per chunk: chunk `c`
    /// is `pool[c * CHUNK..][..CHUNK]`. It grows only when the free list
    /// is empty, so it stops growing at the pending high-water mark plus
    /// one partly filled chunk per occupied slot.
    pool: Vec<Entry>,
    /// Per pool chunk: the chunk after it in its slot's list or in the
    /// free list.
    next: Vec<u32>,
    /// First free chunk, `NIL` when every chunk is in a slot. Freed chunks
    /// are reused first (LIFO: still cache-warm).
    free: u32,
    /// Each slot's chunks (`level * SLOTS + idx`); read only while the
    /// slot's occupancy bit is set. Unordered within a slot.
    lists: Box<[SlotList; LEVELS * SLOTS]>,
    /// Per-level occupancy bitmaps: bit `i` set iff slot `i` is non-empty.
    occupied: [u64; LEVELS],
    /// Level-0 slot currently draining, if any. Its entries sit in `drain`,
    /// and while it is non-empty it provably holds the global minimum
    /// (every other slot is a later tick, and same-tick inserts merge into
    /// it in order), so pops skip the per-level candidate scan entirely.
    active: Option<u8>,
    /// The active slot's entries in descending `(time, seq)` order, so the
    /// earliest is at the back and a burst of same-tick events (multicast
    /// fan-out on a symmetric tree produces hundreds) drains in O(1) pops.
    /// A level-0 slot is gathered here and sorted once, the first time a
    /// pop is due from it; inserts into it keep the order by binary search.
    drain: Vec<Entry>,
    /// Current position in nanoseconds (lower bound on all pending times).
    cursor: u64,
    /// Entries beyond the top level's horizon (~52 simulated days out).
    overflow: Vec<Entry>,
    /// Earliest time in `overflow` (`u64::MAX` when empty) — checked on
    /// every slow-path pop so the bucket respills the moment its minimum
    /// re-enters the wheel's horizon, not only once the wheel drains.
    overflow_min: u64,
    len: usize,
    /// Profiler counters ([`WheelStats`]) — write-only observers.
    stats: WheelStats,
    /// A refused pop already reached the level-0 slot the next gather will
    /// take, and counted it in `stats.lazy_sorts`: a slot counts once,
    /// when a pop first reaches it, whether or not its earliest entry was
    /// due then.
    reached: bool,
}

#[inline]
fn shift(level: usize) -> u32 {
    GRAN_BITS + LEVEL_BITS * level as u32
}

impl CalendarWheel {
    fn new() -> Self {
        CalendarWheel {
            pool: Vec::new(),
            next: Vec::new(),
            free: NIL,
            lists: Box::new([SlotList { head: NIL, tail: NIL, tail_len: 0 }; LEVELS * SLOTS]),
            occupied: [0; LEVELS],
            active: None,
            drain: Vec::new(),
            cursor: 0,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
            stats: WheelStats::default(),
            reached: false,
        }
    }

    /// File an entry at the lowest level whose current window holds it.
    fn file(&mut self, e: Entry) {
        let t = e.time.nanos();
        debug_assert!(t >= self.cursor, "entry files behind the cursor");
        for level in 0..LEVELS {
            let s = shift(level);
            if (t >> s).saturating_sub(self.cursor >> s) < SLOTS as u64 {
                let idx = ((t >> s) & (SLOTS as u64 - 1)) as usize;
                let bit = 1u64 << idx;
                let slot = level * SLOTS + idx;
                if self.occupied[level] & bit == 0 {
                    self.occupied[level] |= bit;
                    let c = self.take_chunk();
                    self.lists[slot] = SlotList { head: c, tail: c, tail_len: 0 };
                } else if level == 0 && self.active == Some(idx as u8) {
                    let key = (e.time, e.seq);
                    let pos = self.drain.partition_point(|x| (x.time, x.seq) > key);
                    self.drain.insert(pos, e);
                    return;
                } else if self.lists[slot].tail_len == CHUNK as u32 {
                    let c = self.take_chunk();
                    let list = &mut self.lists[slot];
                    self.next[list.tail as usize] = c;
                    *list = SlotList { tail: c, tail_len: 0, ..*list };
                }
                // Unsorted append: a cascading burst pays O(1) per entry and
                // the slot one sort when it is gathered.
                let list = &mut self.lists[slot];
                self.pool[list.tail as usize * CHUNK + list.tail_len as usize] = e;
                list.tail_len += 1;
                return;
            }
        }
        self.stats.overflow_filed += 1;
        self.overflow_min = self.overflow_min.min(t);
        self.overflow.push(e);
    }

    /// An empty chunk: the most recently freed one, or a new one at the end
    /// of the pool.
    fn take_chunk(&mut self) -> u32 {
        if self.free == NIL {
            self.pool.resize(self.pool.len() + CHUNK, FILLER);
            self.next.push(NIL);
            return (self.next.len() - 1) as u32;
        }
        let c = self.free;
        self.free = self.next[c as usize];
        c
    }

    /// Empty `slot`: hand each chunk's run of `pool` indices to `f`, head
    /// to tail, and free the chunk once `f` returns.
    #[inline]
    fn empty_slot(&mut self, slot: usize, mut f: impl FnMut(&mut Self, Range<usize>)) {
        let list = self.lists[slot];
        let mut c = list.head;
        loop {
            let start = c as usize * CHUNK;
            let len = if c == list.tail { list.tail_len as usize } else { CHUNK };
            f(self, start..start + len);
            let next = std::mem::replace(&mut self.next[c as usize], self.free);
            self.free = c;
            if c == list.tail {
                return;
            }
            c = next;
        }
    }

    /// The entries of an occupied slot, one run per chunk, head to tail.
    fn runs(&self, slot: usize) -> impl Iterator<Item = &[Entry]> + '_ {
        let list = self.lists[slot];
        let chunks = std::iter::successors(Some(list.head), move |&c| {
            (c != list.tail).then(|| self.next[c as usize])
        });
        chunks.map(move |c| {
            let len = if c == list.tail { list.tail_len as usize } else { CHUNK };
            &self.pool[c as usize * CHUNK..][..len]
        })
    }

    /// Refile the whole overflow bucket; entries still beyond the horizon
    /// land back in (the now-fresh) `overflow`, the rest enter the wheel.
    fn respill_overflow(&mut self) {
        let mut spill = std::mem::take(&mut self.overflow);
        self.overflow_min = u64::MAX;
        for e in spill.drain(..) {
            self.file(e);
        }
        if self.overflow.is_empty() {
            self.overflow = spill; // keep the allocated buffer
        }
    }

    fn insert(&mut self, e: Entry) {
        self.file(e);
        self.len += 1;
    }

    /// For each level, the start time of the nearest occupied slot (in
    /// circular order from the cursor), or `None` if the level is empty.
    #[inline]
    fn candidate(&self, level: usize) -> Option<u64> {
        let bits = self.occupied[level];
        if bits == 0 {
            return None;
        }
        let s = shift(level);
        let cur = self.cursor >> s;
        let off = (cur & (SLOTS as u64 - 1)) as u32;
        // Rotate so the cursor's slot is bit 0; trailing_zeros is then the
        // circular distance to the nearest occupied slot in the window.
        let dist = bits.rotate_right(off).trailing_zeros() as u64;
        Some((cur + dist) << s)
    }

    /// Pop the earliest entry iff its time is `<= deadline`, committing *no*
    /// cursor movement past the deadline otherwise.
    ///
    /// This is not an optimization of `pop` + re-insert: that pair advances
    /// the cursor to the future entry's slot, which forbids ever scheduling
    /// anything earlier again. Epoch-based callers (the sharded runner)
    /// alternate `run_until(epoch)` with cross-shard injections just after
    /// the epoch boundary — legal times, but behind where a careless pop
    /// would have parked the cursor. Bounding every cursor advance by
    /// `deadline` keeps the wheel's invariant exactly as strong as the
    /// caller's contract (nothing is ever scheduled before the last
    /// deadline it finished).
    fn pop_due(&mut self, deadline: SimTime) -> Option<Entry> {
        if self.len == 0 {
            return None;
        }
        // Fast path: `drain` is sorted descending; its back is the earliest
        // pending entry overall.
        if let Some(idx) = self.active {
            if self.drain.last().expect("active slot is non-empty").time > deadline {
                return None;
            }
            return Some(self.pop_drain(idx));
        }
        loop {
            // Respill the overflow bucket the moment its earliest entry
            // re-enters the top level's window. Waiting for the wheel to
            // drain completely (the old behaviour) let an in-wheel entry
            // scheduled *later* — with a later time, or the same time and
            // a higher seq — pop ahead of an overflow entry whose horizon
            // had already arrived: ordering drift vs the heap oracle.
            if !self.overflow.is_empty() {
                let s = shift(LEVELS - 1);
                if self.occupied.iter().all(|&b| b == 0) {
                    // Wheel empty: everything pending is in overflow. If even
                    // the earliest overflow entry is past the deadline, stop
                    // without touching the cursor; otherwise jump straight to
                    // it so at least it lands inside the window.
                    if SimTime(self.overflow_min) > deadline {
                        return None;
                    }
                    self.cursor = self.cursor.max(self.overflow_min);
                }
                if (self.overflow_min >> s).saturating_sub(self.cursor >> s) < SLOTS as u64 {
                    self.respill_overflow();
                    continue;
                }
            }
            // Best = earliest slot start over all levels; ties go to the
            // higher level so wide slots cascade before narrow ones pop
            // (a level-1 slot starting at the same instant as a level-0
            // slot may hold an even earlier entry).
            let mut best: Option<(u64, usize)> = None;
            for level in 0..LEVELS {
                if let Some(start) = self.candidate(level) {
                    if best.is_none_or(|(bs, _)| start <= bs) {
                        best = Some((start, level));
                    }
                }
            }
            let Some((start, level)) = best else {
                // len > 0 with an empty wheel means everything lived in
                // overflow, and the respill above already moved the
                // earliest entry in.
                unreachable!("pending entries but wheel and overflow both empty");
            };
            // Every entry in the best slot is at or after the slot start; if
            // even that is past the deadline, nothing is due. The cursor has
            // not moved beyond previously-popped ground.
            if SimTime(start) > deadline {
                return None;
            }
            self.cursor = self.cursor.max(start);
            let s = shift(level);
            let idx = ((start >> s) & (SLOTS as u64 - 1)) as usize;
            let slot = level * SLOTS + idx;
            if level == 0 {
                // A level-0 slot spans 2^16 ns: if it reaches past the
                // deadline its earliest entry may not be due, and a refused
                // pop must leave the slot as it found it.
                let last = start | ((1 << GRAN_BITS) - 1);
                if SimTime(last) > deadline {
                    let earliest = self.runs(slot).flatten().map(|e| e.time);
                    if earliest.min().expect("candidate slot is non-empty") > deadline {
                        self.stats.lazy_sorts += u64::from(!self.reached);
                        self.reached = true;
                        return None;
                    }
                }
                self.gather(slot);
                self.active = Some(idx as u8);
                return Some(self.pop_drain(idx as u8));
            }
            // Cascade the whole slot down now that the cursor reached it,
            // freeing each chunk once its entries are refiled. None of them
            // files back into this slot: they all fit a lower level now.
            self.occupied[level] &= !(1 << idx);
            self.stats.cascades += 1;
            self.empty_slot(slot, |w, run| {
                w.stats.cascaded_entries += run.len() as u64;
                for i in run {
                    w.file(w.pool[i]);
                }
            });
        }
    }

    /// Move level-0 `slot`'s entries into `drain`, freeing its chunks, and
    /// sort them descending so pops come off the back.
    fn gather(&mut self, slot: usize) {
        debug_assert!(self.drain.is_empty(), "another slot is still draining");
        self.empty_slot(slot, |w, run| w.drain.extend_from_slice(&w.pool[run]));
        self.drain.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
        self.stats.lazy_sorts += u64::from(!self.reached);
        self.reached = false;
    }

    /// Pop the back of `drain`; the active slot `idx` empties with it.
    #[inline]
    fn pop_drain(&mut self, idx: u8) -> Entry {
        let entry = self.drain.pop().expect("active slot is non-empty");
        if self.drain.is_empty() {
            self.occupied[0] &= !(1u64 << idx);
            self.active = None;
        }
        self.len -= 1;
        entry
    }

    /// The entry `k` pops ahead (`k = 0` is what the next `pop` returns),
    /// read off `drain`: it is sorted descending, so pop order is back to
    /// front. `None` between slots (`drain` is empty) and past the draining
    /// slot's end — the entries after that sit in slots no pop has gathered.
    #[inline]
    fn lookahead(&self, k: usize) -> Option<&Entry> {
        self.drain.get(self.drain.len().checked_sub(k + 1)?)
    }

    /// Validate occupancy bitmaps, chunk lists, len accounting, and window
    /// bounds (test-only: O(slots + pool) per call).
    #[cfg(test)]
    fn audit(&self) {
        assert_eq!(self.pool.len(), self.next.len() * CHUNK, "pool and chunk table desync");
        let mut owner: Vec<Option<usize>> = vec![None; self.next.len()];
        let mut claim = |c: u32, list: usize| {
            let prev = owner[c as usize].replace(list);
            assert!(prev.is_none(), "chunk {c} in lists {prev:?} and {list}");
        };
        let mut count = self.overflow.len() + self.drain.len();
        for slot in self.chunked_slots() {
            let (level, idx) = (slot / SLOTS, slot % SLOTS);
            let s = shift(level);
            let list = self.lists[slot];
            assert!(list.tail_len > 0, "empty tail chunk level={level} idx={idx}");
            let mut c = list.head;
            loop {
                claim(c, slot);
                if c == list.tail {
                    break;
                }
                c = self.next[c as usize];
            }
            for e in self.runs(slot).flatten() {
                count += 1;
                let t = e.time.nanos();
                assert!(t >= self.cursor, "entry behind cursor level={level} idx={idx}");
                let delta = (t >> s) - (self.cursor >> s);
                assert!(
                    delta < SLOTS as u64,
                    "entry out of window level={level} idx={idx} delta={delta}"
                );
                assert_eq!((t >> s) & (SLOTS as u64 - 1), idx as u64, "entry in wrong slot");
            }
        }
        let mut c = self.free;
        while c != NIL {
            claim(c, usize::MAX);
            c = self.next[c as usize];
        }
        assert!(owner.iter().all(Option::is_some), "chunk in no list");
        let min_o = self.overflow.iter().map(|e| e.time.nanos()).min().unwrap_or(u64::MAX);
        assert_eq!(self.overflow_min, min_o, "overflow_min desync");
        if let Some(idx) = self.active {
            assert!(!self.drain.is_empty(), "active slot is empty");
            assert!(self.occupied[0] & (1 << idx) != 0, "active slot not occupied");
            assert!(
                self.drain.windows(2).all(|w| (w[0].time, w[0].seq) > (w[1].time, w[1].seq)),
                "drain out of order"
            );
            assert_eq!((self.cursor >> GRAN_BITS) & (SLOTS as u64 - 1), idx as u64);
            for e in &self.drain {
                assert!(e.time.nanos() >= self.cursor, "drained entry behind cursor");
                assert_eq!(
                    e.time.nanos() >> GRAN_BITS,
                    self.cursor >> GRAN_BITS,
                    "drained entry off the tick"
                );
            }
        } else {
            assert!(self.drain.is_empty(), "drain holds entries with no active slot");
        }
        assert_eq!(count, self.len, "len desync");
    }

    /// The slots whose entries sit in pool chunks: the occupied ones but
    /// the active slot, whose entries are in `drain`.
    #[cfg(test)]
    fn chunked_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..LEVELS * SLOTS).filter(|&slot| {
            let (level, idx) = (slot / SLOTS, slot % SLOTS);
            self.occupied[level] & (1 << idx) != 0
                && !(level == 0 && self.active == Some(idx as u8))
        })
    }

    /// O(pending) scan for the earliest time; diagnostics only.
    #[cfg(test)]
    fn peek_time(&self) -> Option<SimTime> {
        let slotted = self.chunked_slots().flat_map(|slot| self.runs(slot)).flatten();
        slotted.chain(&self.drain).chain(&self.overflow).map(|e| e.time).min()
    }

    /// Entries the pool and `drain` can hold without reallocating — what
    /// the wheel retains for its slots.
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.pool.capacity() + self.drain.capacity()
    }
}

enum Backing {
    Wheel(CalendarWheel),
    Heap(BinaryHeap<Entry>),
}

/// Deterministic future-event list.
pub struct EventQueue {
    backing: Backing,
    scheduled: u64,
    /// Most events ever pending at once (profiler high-water mark).
    pending_hwm: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Construct with an explicit backend (see [`QueueBackend`]).
    pub fn with_backend(backend: QueueBackend) -> Self {
        let backing = match backend {
            QueueBackend::CalendarWheel => Backing::Wheel(CalendarWheel::new()),
            QueueBackend::BinaryHeap => Backing::Heap(BinaryHeap::new()),
        };
        EventQueue { backing, scheduled: 0, pending_hwm: 0 }
    }

    /// Pre-size for about `n` concurrently pending events. On the wheel
    /// this sizes only the overflow bucket: slots draw on the chunk pool,
    /// which grows to its own high-water mark and keeps it.
    pub fn reserve(&mut self, n: usize) {
        match &mut self.backing {
            Backing::Wheel(w) => w.overflow.reserve(n.min(1024)),
            Backing::Heap(h) => h.reserve(n),
        }
    }

    /// Schedule `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: Event) {
        let seq = self.scheduled;
        self.scheduled += 1;
        let entry = Entry { time, seq, event };
        match &mut self.backing {
            Backing::Wheel(w) => w.insert(entry),
            Backing::Heap(h) => h.push(entry),
        }
        self.pending_hwm = self.pending_hwm.max(self.len());
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_due(SimTime::MAX)
    }

    /// Pop the earliest event iff it fires at or before `deadline` — a
    /// single queue access on the run loop's hot path instead of
    /// peek-then-pop. Events past the deadline stay pending.
    fn pop_due(&mut self, deadline: SimTime) -> Option<(SimTime, Event)> {
        self.pop_due_seq(deadline).map(|(time, _, event)| (time, event))
    }

    /// [`Self::pop_due`] plus the event's sequence number ([`Self::total_scheduled`]
    /// when it was scheduled) — what orders a timer against its node's crash.
    pub(crate) fn pop_due_seq(&mut self, deadline: SimTime) -> Option<(SimTime, u64, Event)> {
        match &mut self.backing {
            Backing::Wheel(w) => w.pop_due(deadline),
            Backing::Heap(h) => h.peek_mut().filter(|e| e.time <= deadline).map(PeekMut::pop),
        }
        .map(|e| (e.time, e.seq, e.event))
    }

    /// A pure peek at the event `k` pops ahead of the next one (`k = 0` is
    /// the next pop itself), for the run loop's prefetch: answers only from
    /// the wheel's draining level-0 slot and moves no queue state. `None`
    /// on the heap oracle, between slots, and past the draining slot's end.
    /// An event scheduled into the draining slot after the peek may pop
    /// earlier than the one peeked — a hint, never a promise.
    #[inline]
    pub fn lookahead(&self, k: usize) -> Option<&Event> {
        match &self.backing {
            Backing::Wheel(w) => w.lookahead(k).map(|e| &e.event),
            Backing::Heap(_) => None,
        }
    }

    /// The time of the earliest pending event. O(1) on the heap backend,
    /// O(pending) on the wheel — diagnostics, not the run loop.
    #[cfg(test)]
    fn peek_time(&self) -> Option<SimTime> {
        match &self.backing {
            Backing::Wheel(w) => w.peek_time(),
            Backing::Heap(h) => h.peek().map(|e| e.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Wheel(w) => w.len,
            Backing::Heap(h) => h.len(),
        }
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events ever scheduled — equally, the next one's sequence number.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Most events ever pending at once.
    pub fn pending_hwm(&self) -> usize {
        self.pending_hwm
    }

    /// Calendar-wheel activity counters; all zeros on the heap backend.
    pub fn wheel_stats(&self) -> WheelStats {
        match &self.backing {
            Backing::Wheel(w) => w.stats,
            Backing::Heap(_) => WheelStats::default(),
        }
    }

    /// Wheel invariant audit (no-op on the heap backend).
    #[cfg(test)]
    fn audit(&self) {
        if let Backing::Wheel(w) = &self.backing {
            w.audit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counting_alloc::allocations;
    use crate::rng::RngStream;
    use crate::time::SimDuration;

    const BACKENDS: [QueueBackend; 2] = [QueueBackend::CalendarWheel, QueueBackend::BinaryHeap];

    fn timer(token: u64) -> Event {
        Event::Timer { app: AppId(0), token }
    }

    fn tokens(q: &mut EventQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_secs(3), timer(3));
            q.schedule(SimTime::from_secs(1), timer(1));
            q.schedule(SimTime::from_secs(2), timer(2));
            assert_eq!(tokens(&mut q), vec![1, 2, 3], "{backend:?}");
        }
    }

    #[test]
    fn ties_break_by_schedule_order() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            let t = SimTime::from_secs(5);
            for token in 0..100 {
                q.schedule(t, timer(token));
            }
            assert_eq!(tokens(&mut q), (0..100).collect::<Vec<_>>(), "{backend:?}");
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_secs(10), timer(10));
            q.schedule(SimTime::from_secs(1), timer(1));
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime::from_secs(1));
            q.schedule(t + SimDuration::from_secs(2), timer(3));
            let (t2, _) = q.pop().unwrap();
            assert_eq!(t2, SimTime::from_secs(3));
            assert_eq!(q.len(), 1);
            assert_eq!(q.total_scheduled(), 3);
        }
    }

    #[test]
    fn empty_queue() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            assert!(q.is_empty());
            assert!(q.pop().is_none());
            assert!(q.peek_time().is_none());
            assert!(q.pop_due(SimTime::MAX).is_none());
        }
    }

    #[test]
    fn pop_due_respects_deadline_without_losing_events() {
        for backend in BACKENDS {
            let mut q = EventQueue::with_backend(backend);
            q.schedule(SimTime::from_secs(2), timer(2));
            q.schedule(SimTime::from_secs(1), timer(1));
            let (t, _) = q.pop_due(SimTime::from_secs(1)).unwrap();
            assert_eq!(t, SimTime::from_secs(1));
            // The 2 s event is past the deadline: stays pending, order kept.
            assert!(q.pop_due(SimTime::from_secs(1)).is_none());
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
            let (t2, _) = q.pop_due(SimTime::from_secs(2)).unwrap();
            assert_eq!(t2, SimTime::from_secs(2));
        }
    }

    /// Satellite: seq tie-break must survive bucket boundaries. Same-instant
    /// events are scheduled at times chosen to straddle level-0 slot edges,
    /// level boundaries, and cascade points of the wheel.
    #[test]
    fn same_instant_ordering_across_bucket_boundaries() {
        // One tick = 2^16 ns; one level-0 rotation = 2^22 ns.
        let tick = 1u64 << 16;
        let rotation = 1u64 << 22;
        let interesting = [
            0,
            tick - 1,
            tick,
            tick + 1,
            rotation - 1,
            rotation,
            rotation + 1,
            3 * rotation + 17,
            (1 << 28) - 1, // level-1 rotation edge
            1 << 28,
            (1 << 34) + 5, // level-2 territory
            (1 << 52) + 9, // beyond the wheel horizon: overflow bucket
        ];
        let mut q = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let mut expect: Vec<(u64, u64)> = Vec::new();
        let mut token = 0;
        // Schedule three same-instant events per time, interleaved across
        // times so the tie-break cannot lean on insertion locality.
        for round in 0..3 {
            for &t in &interesting {
                q.schedule(SimTime(t), timer(token));
                expect.push((t, token));
                token += 1;
            }
            let _ = round;
        }
        expect.sort_by_key(|&(t, tok)| (t, tok));
        let got: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Timer { token, .. } => (t.nanos(), token),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn wheel_stats_count_cascades_sorts_and_overflow() {
        let mut q = EventQueue::with_backend(QueueBackend::CalendarWheel);
        // Same-tick burst: one lazy sort on first pop.
        for token in 0..10 {
            q.schedule(SimTime(5), timer(token));
        }
        // Far-future entry: lands above level 0 and cascades on the way out.
        q.schedule(SimTime(1 << 30), timer(100));
        // Beyond the wheel horizon: overflow bucket.
        q.schedule(SimTime(1 << 55), timer(101));
        assert_eq!(q.pending_hwm(), 12);
        while q.pop().is_some() {}
        let s = q.wheel_stats();
        assert!(s.lazy_sorts >= 1, "same-tick burst must lazy-sort: {s:?}");
        assert!(s.cascades >= 1 && s.cascaded_entries >= 1, "upper level must cascade: {s:?}");
        assert_eq!(s.overflow_filed, 1, "one entry beyond the horizon: {s:?}");
        // The heap backend reports zeros (it has no wheel machinery).
        let mut h = EventQueue::with_backend(QueueBackend::BinaryHeap);
        h.schedule(SimTime(1), timer(0));
        assert_eq!(h.wheel_stats(), WheelStats::default());
        assert_eq!(h.pending_hwm(), 1);
    }

    /// Regression for the overflow refile path: an overflow-bucket entry
    /// whose time has come inside the wheel's horizon must pop before any
    /// later-scheduled in-wheel entry — including the tie-on-time case,
    /// where the overflow entry's lower seq must win. The old code only
    /// respilled once the wheel was *empty*, so a non-empty wheel let a
    /// later event jump the queue.
    #[test]
    fn overflow_entry_pops_in_order_once_horizon_arrives() {
        let horizon = 1u64 << (GRAN_BITS + LEVEL_BITS * LEVELS as u32);
        let far = horizon + (1 << 20); // beyond the horizon as seen from 0
        for in_wheel_dt in [1u64, 0] {
            // dt=1: strictly-later in-wheel event; dt=0: same-time,
            // higher-seq in-wheel event. Both must pop *after* the
            // overflow entry.
            let mut q = EventQueue::with_backend(QueueBackend::CalendarWheel);
            q.schedule(SimTime(far), timer(0)); // -> overflow bucket
                                                // A stepping stone the cursor can advance through so `far`
                                                // comes inside the horizon while the wheel stays non-empty.
            q.schedule(SimTime(far - (1 << 30)), timer(1));
            let (t, _) = q.pop().unwrap();
            assert_eq!(t.nanos(), far - (1 << 30));
            // The cursor now sits well within the horizon of `far`; an
            // event scheduled in-wheel at (or just after) `far` must not
            // overtake the overflow entry.
            q.schedule(SimTime(far + in_wheel_dt), timer(2));
            q.audit();
            let order: Vec<u64> = tokens(&mut q);
            assert_eq!(order, vec![0, 2], "in_wheel_dt={in_wheel_dt}");
        }
    }

    /// `lookahead` is a pure peek: whatever it answers is what the following
    /// pops return, it survives inserts into the draining slot and refused
    /// `pop_due`s, and (audited after every call) it moves no wheel state.
    #[test]
    fn lookahead_agrees_with_following_pops_and_moves_nothing() {
        let peek = |q: &EventQueue| -> Vec<Option<Event>> {
            let seen = (0..16).map(|k| q.lookahead(k).copied()).collect();
            q.audit();
            seen
        };
        // Every `Some` in `seen` must be the event the (k+1)-th pop returns.
        // Returns the time of the last pop.
        let pops_match = |q: &mut EventQueue, seen: &[Option<Event>]| -> Option<u64> {
            let mut last = None;
            for (k, peeked) in seen.iter().enumerate() {
                let Some((t, popped)) = q.pop() else { break };
                last = Some(t.nanos());
                if let Some(p) = peeked {
                    assert_eq!(*p, popped, "lookahead({k}) disagrees with pop");
                }
            }
            last
        };
        let mut rng = RngStream::derive(0xC0FFEE, "event/lookahead");
        let mut q = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let mut now = 0u64;
        let mut token = 0u64;
        let mut answered = 0usize;
        for _ in 0..4_000 {
            // Mostly bursts inside one 2^16 ns tick, so slots are worth
            // peeking into; the rest lands in later slots and levels.
            for _ in 0..rng.range_u64(1, 24) {
                let span = if rng.chance(0.7) { 1 << GRAN_BITS } else { 1 << 24 };
                q.schedule(SimTime(now + rng.range_u64(0, span)), timer(token));
                token += 1;
            }
            // The first pop selects and sorts a slot; before it (between
            // slots) there is nothing to read from.
            now = q.pop().expect("just scheduled").0.nanos();
            let seen = peek(&q);
            answered += seen.iter().flatten().count();
            let seen = match rng.range_u64(0, 3) {
                0 => seen,
                1 => {
                    // A deadline just short of the next event: `pop_due`
                    // refuses and the peeks stand.
                    if let Some(next) = q.peek_time().filter(|t| t.nanos() > 0) {
                        assert!(q.pop_due(SimTime(next.nanos() - 1)).is_none());
                        assert_eq!(peek(&q), seen);
                    }
                    seen
                }
                _ => {
                    // Schedule into the draining slot (the tick of `now`):
                    // earlier peeks may be displaced, fresh ones hold.
                    let tick_end = (now | ((1 << GRAN_BITS) - 1)) + 1;
                    for _ in 0..rng.range_u64(1, 6) {
                        q.schedule(SimTime(rng.range_u64(now, tick_end)), timer(token));
                        token += 1;
                    }
                    peek(&q)
                }
            };
            now = pops_match(&mut q, &seen).unwrap_or(now);
        }
        assert!(answered > 4_000, "the peek must actually fire: {answered} answers");

        // The heap oracle has no sorted slot to read: it never answers.
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        for token in 0..32 {
            heap.schedule(SimTime(token), timer(token));
        }
        heap.pop();
        assert!((0..16).all(|k| heap.lookahead(k).is_none()));
    }

    fn retained_capacity(q: &EventQueue) -> usize {
        match &q.backing {
            Backing::Wheel(w) => w.retained_capacity(),
            Backing::Heap(_) => unreachable!("the heap oracle has no slots"),
        }
    }

    /// Retained slot capacity follows the pending high-water mark, not the
    /// number of slots ever used: 64 bursts of 4,096 same-tick events, each
    /// drained before the next, fill 64 consecutive level-0 slots — filed
    /// there directly, or a full level-0 rotation ahead so that each burst
    /// arrives through a level-1 cascade. Slots that kept their buffers
    /// after draining would retain about 64 times the mark.
    #[test]
    fn drained_slots_release_their_buffers() {
        const BURST: u64 = 4_096;
        const BURSTS: u64 = 64;
        for ahead in [0, 1u64 << (GRAN_BITS + LEVEL_BITS)] {
            let mut q = EventQueue::with_backend(QueueBackend::CalendarWheel);
            let mut now = 0;
            for burst in 0..BURSTS {
                let t = now + ahead + (1 << GRAN_BITS);
                for token in 0..BURST {
                    q.schedule(SimTime(t), timer(burst * BURST + token));
                }
                for _ in 0..BURST {
                    now = q.pop().expect("burst pending").0.nanos();
                }
                assert_eq!(now, t);
                q.audit();
            }
            let cascades = if ahead == 0 { 0 } else { BURSTS };
            assert_eq!(q.wheel_stats().cascades, cascades, "ahead={ahead}");
            assert_eq!(q.pending_hwm(), BURST as usize);
            let retained = retained_capacity(&q);
            assert!(
                retained <= 4 * q.pending_hwm(),
                "ahead={ahead}: {retained} entries retained for a high-water mark of {}",
                q.pending_hwm()
            );
        }
    }

    /// Wave shapes `(period ns, burst, singletons)`. The first is a
    /// `fedpkt_40k` domain shard: an 11,111-way fan-out every 5 ms with a
    /// few timers out to 300 ms. The other two trade burst size against
    /// how many far slots the singletons keep occupied.
    const WAVES: [(u64, u64, u64); 3] =
        [(5_000_000, 11_111, 3), (2_000_000, 5_000, 8), (20_000_000, 3_000, 20)];

    /// Run waves `range` of `shape`: wave `w` files `burst` entries within
    /// 2^14 ns of `w * period` and `singletons` more up to 300 ms out, then
    /// pops everything due by `w * period`. A wave's burst therefore stays
    /// pending until the next wave pops it, as a fan-out's deliveries do.
    fn waves(q: &mut EventQueue, rng: &mut RngStream, shape: (u64, u64, u64), range: Range<u64>) {
        let (period, burst, singletons) = shape;
        for w in range {
            let at = w * period;
            for _ in 0..burst {
                q.schedule(SimTime(at + rng.range_u64(0, 1 << 14)), timer(w));
            }
            for _ in 0..singletons {
                q.schedule(SimTime(at + rng.range_u64(0, 300_000_000)), timer(w));
            }
            while q.pop_due(SimTime(at)).is_some() {}
        }
    }

    /// The wheel's retained capacity stays within 4× the pending high-water
    /// mark over 400 waves. Slot buffers that never shrink and are handed
    /// on to whichever slot fills next each grow to the largest burst, and
    /// retained 40–62× the mark on these shapes.
    #[test]
    fn retained_capacity_follows_the_pending_mark() {
        for shape in WAVES {
            let mut rng = RngStream::derive(0xC0FFEE, "event/waves");
            let mut q = EventQueue::with_backend(QueueBackend::CalendarWheel);
            waves(&mut q, &mut rng, shape, 0..400);
            q.audit();
            let retained = retained_capacity(&q);
            assert!(
                retained <= 4 * q.pending_hwm(),
                "{shape:?}: {retained} entries retained for a high-water mark of {}",
                q.pending_hwm()
            );
        }
    }

    /// A warm wheel allocates nothing: after 200 waves its storage is at
    /// its fixed point, and waves 200–400 make no allocation at all. A
    /// spare list that reuses buffers by recency, not by size, still grew
    /// buffers on two of these shapes.
    #[test]
    fn warm_wheel_allocates_nothing() {
        for shape in WAVES {
            let mut rng = RngStream::derive(0xC0FFEE, "event/waves");
            let mut q = EventQueue::with_backend(QueueBackend::CalendarWheel);
            waves(&mut q, &mut rng, shape, 0..200);
            let before = allocations();
            waves(&mut q, &mut rng, shape, 200..400);
            let made = allocations() - before;
            assert_eq!(made, 0, "{shape:?}: {made} allocations in waves 200-400");
        }
    }

    /// The sizes the chunk pool's page-sized chunks and the run loop's
    /// word-moving reshuffles rely on.
    #[test]
    fn event_and_entry_sizes() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
        assert_eq!(std::mem::size_of::<Entry>(), 32);
        assert_eq!(CHUNK * std::mem::size_of::<Entry>(), 4096);
    }

    /// Recycled slot buffers under load: same-slot bursts of 1k–10k events
    /// (at the draining instant, inside the next rotation, far enough ahead
    /// to cascade, or past the horizon so they respill from overflow), with
    /// single events filed into the draining slot between pops (the active
    /// slot's binary insert). The wheel must match the heap oracle pop for
    /// pop, `lookahead(0)` must name the next pop whenever it answers, and
    /// `audit` must hold after every pop.
    #[test]
    fn wheel_matches_heap_under_same_slot_bursts() {
        let tick = 1u64 << GRAN_BITS;
        let mut rng = RngStream::derive(0xC0FFEE, "event/bursts");
        let mut wheel = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let schedule = |wheel: &mut EventQueue, heap: &mut EventQueue, t: u64| {
            let token = wheel.total_scheduled();
            wheel.schedule(SimTime(t), timer(token));
            heap.schedule(SimTime(t), timer(token));
        };
        let pop = |wheel: &mut EventQueue, heap: &mut EventQueue| {
            let peeked = wheel.lookahead(0).copied();
            let a = wheel.pop();
            assert_eq!(a, heap.pop());
            if let (Some(p), Some((_, e))) = (peeked, a) {
                assert_eq!(p, e, "lookahead(0) disagrees with pop");
            }
            wheel.audit();
            a.map(|(t, _)| t.nanos())
        };
        let mut now = 0u64;
        for _ in 0..10 {
            let n = rng.range_u64(1_000, 10_001);
            let same_instant = rng.chance(0.25);
            let slot_start = match rng.range_u64(0, 3) {
                0 => now + rng.range_u64(0, tick << LEVEL_BITS),
                1 => now + rng.range_u64(tick << LEVEL_BITS, 1 << 34),
                _ => now + rng.range_u64(1 << 52, 1 << 53),
            } & !(tick - 1);
            for _ in 0..n {
                let t = if same_instant { now } else { slot_start + rng.range_u64(0, tick) };
                schedule(&mut wheel, &mut heap, t.max(now));
            }
            for _ in 0..rng.range_u64(n / 2, n + n / 2) {
                let Some(t) = pop(&mut wheel, &mut heap) else { break };
                now = t;
                if rng.chance(0.05) {
                    let tick_end = (now | (tick - 1)) + 1;
                    schedule(&mut wheel, &mut heap, rng.range_u64(now, tick_end));
                }
            }
        }
        while pop(&mut wheel, &mut heap).is_some() {}
        let s = wheel.wheel_stats();
        assert!(s.cascades > 0 && s.overflow_filed > 0 && s.lazy_sorts > 0, "{s:?}");
    }

    /// Randomized differential: the wheel must agree with the heap oracle
    /// pop-for-pop under interleaved schedule/pop traffic.
    #[test]
    fn wheel_matches_heap_under_random_interleaving() {
        let mut rng = RngStream::derive(0xC0FFEE, "event/differential");
        let mut wheel = EventQueue::with_backend(QueueBackend::CalendarWheel);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut now = 0u64;
        let mut token = 0u64;
        for _ in 0..20_000 {
            if rng.chance(0.6) || wheel.is_empty() {
                // Mix of near, same-instant, far, and overflow-range times.
                let dt = match rng.range_u64(0, 100) {
                    0..=39 => rng.range_u64(0, 1 << 18),
                    40..=69 => 0,
                    70..=94 => rng.range_u64(0, 1 << 31),
                    _ => rng.range_u64(1 << 50, 1 << 54),
                };
                let t = SimTime(now + dt);
                wheel.schedule(t, timer(token));
                heap.schedule(t, timer(token));
                token += 1;
            } else {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t.nanos();
                }
            }
        }
        // Drain both queues; audit the wheel's internal invariants as the
        // cursor sweeps the full range (this is what caught the overflow
        // re-spill bug: refiling far-future entries used to clobber the
        // overflow bucket).
        loop {
            wheel.audit();
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
