//! Fixed-point simulated time.
//!
//! Time is a `u64` count of **nanoseconds** since the start of the
//! simulation. Nanosecond resolution keeps serialization times of single
//! packets on multi-megabit links exact enough that event ordering is stable,
//! while still allowing runs of ~584 simulated years before overflow.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant in simulated time (nanoseconds since t=0).
///
/// ```
/// use netsim::{SimTime, SimDuration};
/// let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
/// assert_eq!(t.as_secs_f64(), 10.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

const NANOS_PER_SEC: u64 = 1_000_000_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_MICRO: u64 = 1_000;

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any time reachable in practice.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole simulated seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from fractional simulated seconds.
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid time {s}");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * NANOS_PER_MILLI)
    }

    /// This instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Nanosecond tick count.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating subtraction of a duration.
    pub fn saturating_sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole simulated seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional simulated seconds.
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "invalid duration {s}");
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    /// Construct from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us * NANOS_PER_MICRO)
    }

    /// This duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Nanosecond tick count.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// The wire time of `bytes` at `bits_per_sec` (rounded up to a whole
    /// nanosecond so back-to-back packets never collapse onto one instant).
    pub fn serialization(bytes: u64, bits_per_sec: f64) -> Self {
        assert!(bits_per_sec > 0.0, "link bandwidth must be positive");
        let bits = bytes as f64 * 8.0;
        let secs = bits / bits_per_sec;
        SimDuration((secs * NANOS_PER_SEC as f64).ceil() as u64)
    }

    /// True when zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(250).as_secs_f64(), 0.25);
        assert_eq!(SimDuration::from_secs_f64(1.5).nanos(), 1_500_000_000);
        assert_eq!(SimTime::from_secs_f64(2.0), SimTime::from_secs(2));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_millis(500);
        assert_eq!((t + d).as_secs_f64(), 10.5);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 4, SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs(2) / 4, d);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn serialization_time_of_1000_bytes_at_32kbps() {
        // 8000 bits at 32_000 bits/s = 0.25 s.
        let d = SimDuration::serialization(1000, 32_000.0);
        assert_eq!(d, SimDuration::from_millis(250));
    }

    #[test]
    fn serialization_rounds_up() {
        // 8 bits at 3 bit/s = 2.666..s -> ceil in nanoseconds.
        let d = SimDuration::serialization(1, 3.0);
        assert!(d > SimDuration::from_secs_f64(2.6666));
        assert!(d <= SimDuration::from_secs_f64(2.6667));
    }

    #[test]
    #[should_panic]
    fn negative_duration_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::ZERO < SimTime::MAX);
    }
}
