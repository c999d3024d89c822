//! Offline stand-in for the `rayon` crate.
//!
//! Implements the subset this workspace uses — `par_iter()` /
//! `into_par_iter()` + `map` + `collect::<Vec<_>>()` — on top of
//! `std::thread::scope`. Work is split into one contiguous chunk per
//! available core; results are reassembled in input order, so `collect`
//! is deterministic regardless of scheduling.
//!
//! Unlike real rayon there is no work-stealing pool: each `collect`
//! spawns short-lived scoped threads. That is fine for this workspace,
//! where parallel regions are coarse (whole simulations or whole
//! per-session stage passes).

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;

pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
    };
}

/// The worker width a parallel region gets on this machine — the shim's
/// analogue of `rayon::current_num_threads()`. There is no persistent pool:
/// each `collect` spawns up to this many scoped threads. Benchmarks record
/// this next to any scaling ratio, because a "parallel" sweep on a 1-core
/// box is sequential and its numbers must not be read as speedup.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

fn worker_count(items: usize) -> usize {
    if items <= 1 {
        return 1;
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1).min(items)
}

/// Apply `f` to every element of `items` across scoped threads, preserving
/// input order in the output.
fn parallel_map_vec<T, R, F>(mut items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
    while !items.is_empty() {
        let tail = items.split_off(items.len().min(chunk));
        chunks.push(std::mem::replace(&mut items, tail));
    }
    let f = &f;
    let per_chunk: Vec<Vec<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|c| s.spawn(move || c.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles.into_iter().map(|h| h.join().expect("rayon-shim worker panicked")).collect()
    });
    per_chunk.into_iter().flatten().collect()
}

/// The `rayon::iter::ParallelIterator` subset used by the workspace.
///
/// `drive` is the eager executor: adapters run their base serially (it is
/// cheap — just collecting references) and parallelize their own step.
pub trait ParallelIterator: Sized {
    type Item: Send;

    #[doc(hidden)]
    fn drive(self) -> Vec<Self::Item>;

    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_iter(self)
    }
}

pub trait FromParallelIterator<T: Send>: Sized {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(iter: I) -> Self {
        iter.drive()
    }
}

pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync,
{
    type Item = R;

    fn drive(self) -> Vec<R> {
        parallel_map_vec(self.base.drive(), self.f)
    }
}

pub struct SliceParIter<'data, T> {
    slice: &'data [T],
}

impl<'data, T: Sync> ParallelIterator for SliceParIter<'data, T> {
    type Item = &'data T;

    fn drive(self) -> Vec<&'data T> {
        self.slice.iter().collect()
    }
}

pub struct VecParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;

    fn drive(self) -> Vec<T> {
        self.items
    }
}

pub trait IntoParallelRefIterator<'data> {
    type Iter: ParallelIterator;
    fn par_iter(&'data self) -> Self::Iter;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Iter = SliceParIter<'data, T>;
    fn par_iter(&'data self) -> Self::Iter {
        SliceParIter { slice: self }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Iter = SliceParIter<'data, T>;
    fn par_iter(&'data self) -> Self::Iter {
        SliceParIter { slice: self }
    }
}

pub trait IntoParallelIterator {
    type Item: Send;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;
    fn into_par_iter(self) -> Self::Iter {
        VecParIter { items: self }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        let squared: Vec<u64> = xs.into_par_iter().map(|x| x * x).collect();
        assert_eq!(squared, (0..1000).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x + 1).collect();
        assert!(none.is_empty());
        let one: Vec<u32> = vec![41].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![42]);
    }
}
