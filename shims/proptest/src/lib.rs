//! Offline stand-in for the `proptest` crate.
//!
//! Supports the API subset the workspace's property tests use: the
//! `proptest!` macro (with an optional `#![proptest_config(..)]` header),
//! `prop_assert!` / `prop_assert_eq!` / `prop_assume!`, range and tuple
//! strategies, `any::<T>()`, and `prop::collection::vec`.
//!
//! Differences from real proptest, acceptable for this workspace:
//! * no shrinking — failures report the case's generated inputs verbatim;
//! * cases are generated from a fixed per-test seed, so runs are fully
//!   deterministic (no `PROPTEST_CASES`/persistence machinery).

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

#[derive(Debug)]
pub enum TestCaseError {
    Fail(String),
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// Deterministic xoshiro256** source for case generation.
pub struct TestRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

impl TestRng {
    /// Seed from the test's name and the attempt number, so every test has
    /// its own reproducible stream.
    pub fn for_case(test_name: &str, attempt: u32) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        let mut sm = h ^ ((attempt as u64) << 32 | 0x9e37);
        TestRng {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform value in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform value in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Value generator; the shim's substitute for `proptest::strategy::Strategy`
/// (generation only — no shrink trees).
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                #[allow(clippy::unnecessary_cast)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64) - (self.start as u64);
                    self.start + rng.below(span) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                #[allow(clippy::unnecessary_cast)]
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "empty range strategy");
                    let span = (end as u64) - (start as u64) + 1;
                    start + rng.below(span) as $t
                }
            }
        )*
    };
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        let v = self.start + rng.unit_f64() * (self.end - self.start);
        if v >= self.end {
            self.start
        } else {
            v
        }
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng), self.3.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy, E: Strategy> Strategy for (A, B, C, D, E) {
    type Value = (A::Value, B::Value, C::Value, D::Value, E::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
            self.3.generate(rng),
            self.4.generate(rng),
        )
    }
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

pub struct Any<T>(PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Mirror of real proptest's `prop::` prelude alias.
pub mod prop {
    pub use super::collection;
}

pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assume, proptest, Arbitrary, ProptestConfig,
        Strategy, TestCaseError,
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!(($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr);) => {};
    (($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __attempts: u32 = 0;
            let mut __done: u32 = 0;
            while __done < __cfg.cases {
                __attempts += 1;
                assert!(
                    __attempts <= __cfg.cases.saturating_mul(20).saturating_add(100),
                    "proptest '{}': too many prop_assume! rejections",
                    stringify!($name),
                );
                let mut __rng = $crate::TestRng::for_case(stringify!($name), __attempts);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)+
                let __inputs = ::std::format!(
                    concat!($("\n  ", stringify!($arg), " = {:?}",)+),
                    $(&$arg),+
                );
                let __outcome = (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                    $body
                    ::std::result::Result::Ok(())
                })();
                match __outcome {
                    ::std::result::Result::Ok(()) => __done += 1,
                    ::std::result::Result::Err($crate::TestCaseError::Reject(_)) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(__msg)) => {
                        panic!(
                            "proptest '{}' failed on case {} (attempt {}): {}\ninputs:{}",
                            stringify!($name), __done, __attempts, __msg, __inputs,
                        );
                    }
                }
            }
        }
        $crate::__proptest_tests!(($cfg); $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                ::std::format!($($fmt)+),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = ($left, $right);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(::std::format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r,
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 3u64..17, y in 1u8..=6, f in -1.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=6).contains(&y));
            prop_assert!((-1.0..1.0).contains(&f));
        }

        #[test]
        fn vectors_respect_size(xs in prop::collection::vec(0u64..100, 2..9)) {
            prop_assert!(xs.len() >= 2 && xs.len() < 9);
            for &x in &xs {
                prop_assert!(x < 100, "element {} out of range", x);
            }
        }

        #[test]
        fn tuples_and_any(pair in (0u64..600, 0u8..=6), flag in any::<bool>()) {
            prop_assert!(pair.0 < 600);
            prop_assert_eq!(pair.1.min(6), pair.1);
            // Exercise prop_assume! with a condition that sometimes holds.
            prop_assume!(flag || pair.1 < 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_header_is_accepted(x in 0u32..10) {
            prop_assert!(x < 10);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strat = prop::collection::vec(0u64..1000, 1..50);
        let a = strat.generate(&mut TestRng::for_case("det", 3));
        let b = strat.generate(&mut TestRng::for_case("det", 3));
        assert_eq!(a, b);
        let c = strat.generate(&mut TestRng::for_case("det", 4));
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "proptest 'always_fails' failed")]
    fn failures_panic_with_inputs() {
        // No #[test] on the inner fn: it is invoked manually below.
        proptest! {
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x is small: {}", x);
            }
        }
        always_fails();
    }
}
