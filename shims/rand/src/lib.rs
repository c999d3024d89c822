//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace-local
//! crate provides the small API subset the simulator actually uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and [`Rng`] with
//! `gen::<f64>()` / `gen_range(..)` over `u64` and `f64` ranges.
//!
//! The generator is xoshiro256** seeded through SplitMix64 — a different
//! bit stream than the real `StdRng` (ChaCha12), which is fine: nothing in
//! the workspace depends on specific values, only on determinism and
//! reasonable statistical quality.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Seedable generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// Uniform sampling support for `Rng::gen` (subset of `rand`'s `Standard`
/// distribution).
pub trait Sample: Sized {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Sample for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Sample for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Sample for u32 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Sample for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Range sampling for `Rng::gen_range` (subset of `rand::distributions::uniform`).
pub trait SampleRange {
    type Output;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        let u = f64::sample(rng);
        let v = self.start + u * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl SampleRange for Range<u64> {
    type Output = u64;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> u64 {
        assert!(self.start < self.end, "empty u64 range");
        let span = self.end - self.start;
        // Multiply-shift bounded sampling (Lemire); bias is negligible for
        // the simulator's span sizes and costs no rejection loop.
        let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
        self.start + hi
    }
}

impl SampleRange for Range<usize> {
    type Output = usize;
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> usize {
        (self.start as u64..self.end as u64).sample_from(rng) as usize
    }
}

/// The `rand::Rng` subset used by the workspace.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    fn gen<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        f64::sample(self) < p
    }
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256** — deterministic, fast, and good enough for simulation.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let s = [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ];
            StdRng { s }
        }
    }

    impl StdRng {
        /// Expose the raw xoshiro256** state for checkpointing.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuild a generator from a previously captured [`Self::state`].
        pub fn from_state(s: [u64; 4]) -> Self {
            StdRng { s }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v: f64 = r.gen();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn ranges_hold_bounds() {
        let mut r = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let v = r.gen_range(10u64..20);
            assert!((10..20).contains(&v));
            let f = r.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn mean_is_roughly_centered() {
        let mut r = StdRng::seed_from_u64(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.gen::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
