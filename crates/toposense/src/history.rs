//! Congestion-state history and bandwidth-equality classification.
//!
//! Table I is indexed by a **3-bit congestion history**: the states at the
//! three most recent algorithm intervals `T0`, `T1`, `T2` sit at bit
//! positions 2, 1, 0 respectively (CONGESTED = 1), so e.g. value 3 = 0b011
//! means "congested in the two most recent intervals", and by a **BW
//! equality** column comparing the total bandwidth received in `T0–T1`
//! against `T1–T2`.

/// Rolling 3-bit congestion history of one node in one session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CongestionHistory(u8);

impl CongestionHistory {
    /// A never-congested history (0b000).
    pub fn new() -> Self {
        CongestionHistory(0)
    }

    /// Construct from a raw 3-bit value (tests, table enumeration).
    pub fn from_bits(bits: u8) -> Self {
        assert!(bits < 8, "history is 3 bits");
        CongestionHistory(bits)
    }

    /// Shift in the newest state: the old `T1` becomes `T0`, old `T2`
    /// becomes `T1`, and `congested_now` becomes `T2` (bit 0).
    pub fn push(&mut self, congested_now: bool) {
        self.0 = ((self.0 << 1) | congested_now as u8) & 0b111;
    }

    /// The raw table index (0..8).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Congestion state at the current interval `T2` (bit 0).
    pub fn now(self) -> bool {
        self.0 & 1 == 1
    }

    /// Congestion state two intervals ago, `T0` (bit 2).
    #[cfg(test)]
    fn prev2(self) -> bool {
        self.0 & 0b100 != 0
    }
}

/// Relative tolerance for the BW-equality classifier: the one value every
/// caller hands [`BwEquality::classify`].
pub const BW_EQUAL_TOLERANCE: f64 = 0.10;

/// The Table I "BW Equality" column: how the bandwidth received in the
/// older interval `T0–T1` relates to the recent interval `T1–T2`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BwEquality {
    /// Received less before than now (bandwidth grew).
    Lesser,
    /// About the same (within tolerance).
    Equal,
    /// Received more before than now (bandwidth shrank).
    Greater,
}

impl BwEquality {
    /// Classify `older` (bytes in `T0–T1`) against `recent` (bytes in
    /// `T1–T2`) with a relative `tolerance`.
    pub fn classify(older: u64, recent: u64, tolerance: f64) -> Self {
        let hi = older.max(recent) as f64;
        if hi == 0.0 {
            return BwEquality::Equal;
        }
        let diff = older.abs_diff(recent) as f64;
        if diff <= hi * tolerance {
            BwEquality::Equal
        } else if older < recent {
            BwEquality::Lesser
        } else {
            BwEquality::Greater
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_shifts_toward_t0() {
        let mut h = CongestionHistory::new();
        h.push(true); // T2 = 1                -> 0b001
        assert_eq!(h.bits(), 0b001);
        assert!(h.now());
        h.push(false); // that 1 moves to T1   -> 0b010
        assert_eq!(h.bits(), 0b010);
        assert!(!h.now());
        h.push(false); // 1 moves to T0        -> 0b100
        assert_eq!(h.bits(), 0b100);
        assert!(h.prev2());
        h.push(false); // falls off            -> 0b000
        assert_eq!(h.bits(), 0b000);
    }

    #[test]
    fn saturates_at_three_bits() {
        let mut h = CongestionHistory::new();
        for _ in 0..10 {
            h.push(true);
        }
        assert_eq!(h.bits(), 0b111);
    }

    #[test]
    #[should_panic]
    fn from_bits_range_checked() {
        let _ = CongestionHistory::from_bits(8);
    }

    #[test]
    fn bw_equality_classification() {
        use BwEquality::*;
        assert_eq!(BwEquality::classify(100, 100, 0.1), Equal);
        assert_eq!(BwEquality::classify(95, 100, 0.1), Equal);
        assert_eq!(BwEquality::classify(50, 100, 0.1), Lesser);
        assert_eq!(BwEquality::classify(100, 50, 0.1), Greater);
        assert_eq!(BwEquality::classify(0, 0, 0.1), Equal);
        assert_eq!(BwEquality::classify(0, 10, 0.1), Lesser);
        assert_eq!(BwEquality::classify(10, 0, 0.1), Greater);
    }

    #[test]
    fn tolerance_zero_is_strict() {
        assert_eq!(BwEquality::classify(99, 100, 0.0), BwEquality::Lesser);
        assert_eq!(BwEquality::classify(100, 100, 0.0), BwEquality::Equal);
    }
}
