//! Deterministic per-component random-number streams.
//!
//! Every stochastic component (each VBR source, each receiver's backoff
//! timer, …) gets its own [`RngStream`] derived from the master seed and a
//! stable component label. Streams are therefore independent of the order in
//! which components are created or fire, which keeps sweeps comparable: the
//! traffic a source generates does not change when an unrelated receiver is
//! added to the scenario.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named, seeded random stream.
pub struct RngStream {
    rng: StdRng,
}

/// Stable 64-bit FNV-1a hash used to mix labels into the master seed (and
/// by downstream crates wherever a stable byte digest is needed).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The splitmix64 finalizer: a full-avalanche 64-bit mix (every input bit
/// flips each output bit with probability ~1/2).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Derive an independent seed for the stream named `(stream, index)` from a
/// master `seed`.
///
/// Each of the three inputs passes through a [`splitmix64`] round before the
/// next is folded in, so related inputs land on unrelated outputs. This is
/// the supported way to hand sub-seeds to scenario components (the
/// controller, each source, each receiver); the ad-hoc XOR folds it replaced
/// (`seed ^ 0xc0f1`, `seed ^ (0x9e37 + i * 0x61c8)`) kept streams a constant
/// XOR apart, so an adversarial pair of base seeds — exactly the kind a
/// campaign's seed-index sweep enumerates — could make, say, run A's
/// receiver stream coincide bit-for-bit with run B's controller stream.
pub fn derive_stream_seed(seed: u64, stream: &str, index: u64) -> u64 {
    let mut z = splitmix64(seed);
    z = splitmix64(z ^ fnv1a(stream.as_bytes()));
    splitmix64(z ^ index)
}

impl RngStream {
    /// Derive a stream from `master_seed` and a stable `label`.
    pub fn derive(master_seed: u64, label: &str) -> Self {
        let mixed = master_seed ^ fnv1a(label.as_bytes()).rotate_left(17);
        RngStream { rng: StdRng::seed_from_u64(mixed) }
    }

    /// Derive a sub-stream, e.g. one per layer of a source.
    pub fn derive_sub(master_seed: u64, label: &str, index: u64) -> Self {
        let mixed = master_seed
            ^ fnv1a(label.as_bytes()).rotate_left(17)
            ^ index.wrapping_mul(0x9e3779b97f4a7c15);
        RngStream { rng: StdRng::seed_from_u64(mixed) }
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        if lo == hi {
            return lo;
        }
        self.rng.gen_range(lo..hi)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        self.rng.gen_range(lo..hi)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        self.rng.gen::<f64>() < p
    }

    /// Access the underlying RNG for anything else.
    pub fn inner(&mut self) -> &mut impl Rng {
        &mut self.rng
    }

    /// Capture the generator's raw state for checkpointing.
    pub fn state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuild a stream from a previously captured [`Self::state`]. The
    /// restored stream continues the exact draw sequence of the original.
    pub fn from_state(s: [u64; 4]) -> Self {
        RngStream { rng: StdRng::from_state(s) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RngStream::derive(42, "src/0");
        let mut b = RngStream::derive(42, "src/0");
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = RngStream::derive(42, "src/0");
        let mut b = RngStream::derive(42, "src/1");
        let va: Vec<u64> = (0..8).map(|_| a.f64().to_bits()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.f64().to_bits()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = RngStream::derive(1, "x");
        let mut b = RngStream::derive(2, "x");
        let va: Vec<u64> = (0..8).map(|_| a.f64().to_bits()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.f64().to_bits()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn sub_streams_independent() {
        let mut a = RngStream::derive_sub(7, "vbr", 0);
        let mut b = RngStream::derive_sub(7, "vbr", 1);
        let va: Vec<u64> = (0..8).map(|_| a.f64().to_bits()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.f64().to_bits()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn range_bounds_hold() {
        let mut r = RngStream::derive(9, "range");
        for _ in 0..1000 {
            let v = r.range_f64(2.0, 3.0);
            assert!((2.0..3.0).contains(&v));
            let u = r.range_u64(5, 10);
            assert!((5..10).contains(&u));
        }
    }

    #[test]
    fn stream_seeds_are_deterministic_and_distinct() {
        let a = derive_stream_seed(42, "receiver", 0);
        assert_eq!(a, derive_stream_seed(42, "receiver", 0));
        assert_ne!(a, derive_stream_seed(42, "receiver", 1));
        assert_ne!(a, derive_stream_seed(42, "controller", 0));
        assert_ne!(a, derive_stream_seed(43, "receiver", 0));
    }

    /// Regression for the XOR-fold collisions: under the old scheme
    /// (`seed ^ const`, `seed ^ (0x9e37 + i * 0x61c8)`), base seeds a
    /// constant XOR apart made streams of *different roles in different
    /// runs* coincide exactly — e.g. seed `s` receiver 0 vs seed
    /// `s ^ 0x9e37 ^ 0xc0f1` controller. A campaign sweeping a dense
    /// seed-index hits such pairs routinely. The derived seeds must be
    /// pairwise distinct across a dense grid of adversarial base seeds,
    /// roles, and indices.
    #[test]
    fn no_collisions_across_adversarial_seed_grid() {
        let old_receiver = |seed: u64, i: u64| seed ^ (0x9e37 + i * 0x61c8);
        let old_controller = |seed: u64| seed ^ 0xc0f1;
        // Demonstrate the old scheme's cross-run collision.
        let s = 7u64;
        let s2 = s ^ 0x9e37 ^ 0xc0f1;
        assert_eq!(old_receiver(s, 0), old_controller(s2), "old XOR fold collided");

        // Adversarial bases: dense, plus each base XORed with the old
        // scheme's constants (deduplicated — the grid overlaps itself).
        let mut seeds = std::collections::HashSet::new();
        for base in 0..64u64 {
            seeds.extend([base, base ^ 0xc0f1, base ^ 0xc0f2, base ^ 0x9e37, base ^ 0x61c8]);
        }
        let mut seen = std::collections::HashSet::new();
        for &seed in &seeds {
            for stream in ["controller", "source", "receiver", "chaos-plan"] {
                for index in 0..8u64 {
                    let d = derive_stream_seed(seed, stream, index);
                    assert!(seen.insert(d), "collision at (seed {seed}, {stream}, {index})");
                }
            }
        }
    }

    #[test]
    fn state_roundtrip_resumes_the_stream() {
        let mut a = RngStream::derive(11, "ckpt");
        for _ in 0..37 {
            a.f64();
        }
        let mut b = RngStream::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::derive(9, "chance");
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }
}
