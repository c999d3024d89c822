//! Layer rates and subscription-level arithmetic.
//!
//! A **subscription level** is the number of layers a receiver takes:
//! level 0 is nothing, level 1 the base layer, level `k` the layers
//! `0..k-1`. Levels are what the TopoSense decision table manipulates and
//! what the paper's figures plot.

/// Rates of the cumulative layers of one session.
///
/// ```
/// use traffic::LayerSpec;
/// let spec = LayerSpec::paper_default();
/// // 6 layers, base 32 kb/s, doubling: cumulative 32/96/224/480/992/2016.
/// assert_eq!(spec.cumulative_rate(4), 480_000.0);
/// // A 500 kb/s pipe fits 4 layers but not 5.
/// assert_eq!(spec.level_fitting(500_000.0), 4);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LayerSpec {
    rates_bps: Vec<f64>,
}

impl LayerSpec {
    /// The paper's spec: 6 layers, base 32 kb/s, each double the previous
    /// (cumulative: 32 / 96 / 224 / 480 / 992 / 2016 kb/s).
    pub fn paper_default() -> Self {
        Self::doubling(32_000.0, 6)
    }

    /// `count` layers (at most 64: layer `k` runs at `base_bps * 2^k`,
    /// computed in a `u64`) starting at `base_bps`, each double the
    /// previous.
    pub fn doubling(base_bps: f64, count: usize) -> Self {
        assert!((1..=64).contains(&count) && base_bps > 0.0);
        let rates_bps = (0..count).map(|k| base_bps * (1u64 << k) as f64).collect();
        LayerSpec { rates_bps }
    }

    /// Arbitrary per-layer rates (finer-granularity codecs, §V); at most
    /// 255 of them, because subscription levels are `u8`.
    pub fn from_rates(rates_bps: Vec<f64>) -> Self {
        assert!((1..=u8::MAX as usize).contains(&rates_bps.len()));
        assert!(rates_bps.iter().all(|&r| r > 0.0));
        LayerSpec { rates_bps }
    }

    /// Number of layers.
    pub fn layer_count(&self) -> usize {
        self.rates_bps.len()
    }

    /// Maximum subscription level (= layer count).
    pub fn max_level(&self) -> u8 {
        self.rates_bps.len() as u8
    }

    /// Rate of layer `k` (0-based) in bits/s.
    fn layer_rate(&self, k: u8) -> f64 {
        self.rates_bps[k as usize]
    }

    /// Bandwidth of subscription `level` (sum of layers `0..level`).
    pub fn cumulative_rate(&self, level: u8) -> f64 {
        self.rates_bps.iter().take(level as usize).sum()
    }

    /// Rate of the base layer — the floor every session is assumed to get
    /// in the bandwidth-sharing stage.
    pub fn base_rate(&self) -> f64 {
        self.rates_bps[0]
    }

    /// The highest level whose cumulative rate fits in `bw_bps`.
    pub fn level_fitting(&self, bw_bps: f64) -> u8 {
        let mut sum = 0.0;
        for (k, &r) in self.rates_bps.iter().enumerate() {
            sum += r;
            if sum > bw_bps {
                return k as u8;
            }
        }
        self.max_level()
    }

    /// Mean packets per second of layer `k` at `packet_size` bytes.
    pub fn packets_per_sec(&self, k: u8, packet_size: u32) -> f64 {
        self.layer_rate(k) / (packet_size as f64 * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_rates() {
        let s = LayerSpec::paper_default();
        assert_eq!(s.layer_count(), 6);
        assert_eq!(s.layer_rate(0), 32_000.0);
        assert_eq!(s.layer_rate(5), 1_024_000.0);
        assert_eq!(s.cumulative_rate(0), 0.0);
        assert_eq!(s.cumulative_rate(1), 32_000.0);
        assert_eq!(s.cumulative_rate(4), 480_000.0);
        assert_eq!(s.cumulative_rate(6), 2_016_000.0);
    }

    #[test]
    fn level_fitting_brackets() {
        let s = LayerSpec::paper_default();
        assert_eq!(s.level_fitting(0.0), 0);
        assert_eq!(s.level_fitting(31_999.0), 0);
        assert_eq!(s.level_fitting(32_000.0), 1);
        assert_eq!(s.level_fitting(100_000.0), 2);
        assert_eq!(s.level_fitting(480_000.0), 4);
        assert_eq!(s.level_fitting(500_000.0), 4);
        assert_eq!(s.level_fitting(1e9), 6);
    }

    #[test]
    fn packets_per_sec_at_paper_packet_size() {
        let s = LayerSpec::paper_default();
        // 32 kb/s at 1000-byte packets = 4 packets/s.
        assert_eq!(s.packets_per_sec(0, 1000), 4.0);
        assert_eq!(s.packets_per_sec(5, 1000), 128.0);
    }

    #[test]
    fn custom_rates() {
        let s = LayerSpec::from_rates(vec![10_000.0, 15_000.0]);
        assert_eq!(s.max_level(), 2);
        assert_eq!(s.cumulative_rate(2), 25_000.0);
        assert_eq!(s.level_fitting(12_000.0), 1);
    }

    #[test]
    #[should_panic]
    fn empty_rates_panic() {
        let _ = LayerSpec::from_rates(vec![]);
    }

    #[test]
    fn widest_specs_are_accepted() {
        assert_eq!(LayerSpec::doubling(1.0, 64).layer_rate(63), (1u64 << 63) as f64);
        assert_eq!(LayerSpec::from_rates(vec![1.0; 255]).max_level(), 255);
    }

    #[test]
    #[should_panic]
    fn doubling_past_64_layers_panics() {
        let _ = LayerSpec::doubling(1.0, 65);
    }

    #[test]
    #[should_panic]
    fn more_rates_than_levels_panic() {
        let _ = LayerSpec::from_rates(vec![1.0; 256]);
    }
}
