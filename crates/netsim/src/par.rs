//! The workspace's one parallel region: independent pieces of work spread
//! over scoped threads — the shards of a [`crate::ShardedSim`] between two
//! barriers, the scenarios of a sweep, the domains of a federation interval.
//!
//! Pieces share nothing while they run and are joined before anything reads
//! them, so which thread ran a piece, and in what order pieces were picked
//! up, never shows in a result; only the wall time does. There is no pool: a
//! region spawns its threads and joins them ([`std::thread::scope`]), so
//! pieces should be coarse (a simulation, a shard's epoch, a pipeline pass).

use std::sync::Mutex;

/// How many threads are worth starting for `pieces` independent pieces of
/// work on this machine: one per core, never more than there are pieces.
pub fn workers_for(pieces: usize) -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get()).min(pieces).max(1)
}

/// Run `f` on every item of `iter` on `workers` scoped threads. A free
/// thread takes the next item, so uneven pieces balance themselves; with
/// `workers <= 1` the loop runs inline on the caller's thread. A panic in
/// `f` reaches the caller once every thread has been joined.
pub fn for_each<I, F>(iter: I, workers: usize, f: F)
where
    I: Iterator + Send,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    if workers <= 1 {
        return iter.for_each(f);
    }
    let queue = Mutex::new(iter);
    // A function call, so the guard is dropped before `f` runs.
    let next = || queue.lock().expect("a worker panicked inside the iterator").next();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(item) = next() {
                    f(item);
                }
            });
        }
    });
}

/// `f` over every item of `items` in parallel, results in input order.
pub fn map<I, R>(items: I, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
    R: Send,
{
    let workers = workers_for(items.len());
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for_each(items.zip(&mut out), workers, |(item, slot)| *slot = Some(f(item)));
    out.into_iter().map(|r| r.expect("for_each visits every item")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_keeps_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        assert_eq!(map(items.iter(), |&x| x * x), items.iter().map(|&x| x * x).collect::<Vec<_>>());
        assert_eq!(map([41u32].into_iter(), |x| x + 1), [42]);
        assert!(map(std::iter::empty::<u32>(), |x| x).is_empty());
    }

    #[test]
    fn every_item_is_visited_exactly_once_and_in_its_own_slot_at_any_width() {
        for workers in [1, 2, 7] {
            let mut slots = vec![(0u32, usize::MAX); 103];
            for_each(slots.iter_mut().enumerate(), workers, |(i, slot)| {
                slot.0 += 1;
                slot.1 = i;
            });
            for (i, slot) in slots.iter().enumerate() {
                assert_eq!(*slot, (1, i), "{workers} workers");
            }
        }
    }

    #[test]
    #[should_panic]
    fn a_panicking_piece_reaches_the_caller() {
        for_each(0..8, 2, |i| assert_ne!(i, 5, "piece 5 fails"));
    }
}
