//! Receiver-side loss accounting.
//!
//! Receivers learn about loss the way RTCP does: from gaps in per-group
//! sequence numbers. [`SeqTracker`] tracks one group's stream; windows are
//! harvested periodically into [`LossWindow`]s, which are what receivers
//! report to the controller agent ("receivers periodically report loss
//! information to the controller agent").
//!
//! In this simulator packets on one group follow a single FIFO tree path, so
//! there is no reordering or duplication; a sequence gap is always loss.

/// Fraction of the expected packets (`received + lost`) that were lost; 0
/// when nothing was expected. Every loss rate in the workspace is this one
/// body: the counts can come off the wire (a receiver's report, a border
/// summary), so the sum saturates instead of overflowing.
pub fn loss_rate(received: u64, lost: u64) -> f64 {
    let expected = received.saturating_add(lost);
    if expected == 0 {
        0.0
    } else {
        lost as f64 / expected as f64
    }
}

/// Loss/throughput accounting for one interval of one group's stream.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LossWindow {
    /// Packets received in the window.
    pub received: u64,
    /// Packets detected lost (sequence gaps) in the window.
    pub lost: u64,
    /// Bytes received in the window.
    pub bytes: u64,
}

impl LossWindow {
    /// Fraction of expected packets that were lost (0 when nothing expected).
    pub fn loss_rate(&self) -> f64 {
        loss_rate(self.received, self.lost)
    }

    /// Merge two windows (e.g. across the layers of one session).
    pub fn merge(&self, other: &LossWindow) -> LossWindow {
        LossWindow {
            received: self.received + other.received,
            lost: self.lost + other.lost,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Per-group sequence tracking with window harvesting.
#[derive(Debug, Default)]
pub struct SeqTracker {
    last_seq: Option<u64>,
    window: LossWindow,
    total: LossWindow,
}

impl SeqTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a received packet with sequence `seq` and `bytes` on the wire.
    pub fn on_packet(&mut self, seq: u64, bytes: u32) {
        match self.last_seq {
            None => {
                // First packet after (re)subscribing: nothing before it can
                // be counted as lost — we may have joined mid-stream.
                self.window.received += 1;
                self.window.bytes += bytes as u64;
            }
            Some(last) if seq > last => {
                let gap = seq - last - 1;
                self.window.lost += gap;
                self.window.received += 1;
                self.window.bytes += bytes as u64;
            }
            Some(_) => {
                // Late/duplicate: impossible on a FIFO tree, but count the
                // bytes defensively rather than panicking on a model change.
                self.window.received += 1;
                self.window.bytes += bytes as u64;
            }
        }
        self.last_seq = Some(seq.max(self.last_seq.unwrap_or(0)));
    }

    /// Harvest and reset the current window.
    pub fn take_window(&mut self) -> LossWindow {
        let w = self.window;
        self.total = self.total.merge(&w);
        self.window = LossWindow::default();
        w
    }

    /// Peek at the running window without resetting.
    #[cfg(test)]
    fn current_window(&self) -> LossWindow {
        self.window
    }

    /// Cumulative counters over all harvested windows.
    #[cfg(test)]
    fn lifetime(&self) -> LossWindow {
        self.total.merge(&self.window)
    }

    /// Forget stream position (call on re-subscribe so the gap across the
    /// unsubscribed period is not counted as loss).
    pub fn resync(&mut self) {
        self.last_seq = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_stream_has_no_loss() {
        let mut t = SeqTracker::new();
        for s in 0..10 {
            t.on_packet(s, 1000);
        }
        let w = t.take_window();
        assert_eq!(w.received, 10);
        assert_eq!(w.lost, 0);
        assert_eq!(w.bytes, 10_000);
        assert_eq!(w.loss_rate(), 0.0);
    }

    #[test]
    fn gaps_count_as_loss() {
        let mut t = SeqTracker::new();
        t.on_packet(0, 1000);
        t.on_packet(1, 1000);
        t.on_packet(4, 1000); // 2, 3 lost
        t.on_packet(5, 1000);
        let w = t.take_window();
        assert_eq!(w.received, 4);
        assert_eq!(w.lost, 2);
        assert!((w.loss_rate() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn join_mid_stream_is_not_loss() {
        let mut t = SeqTracker::new();
        t.on_packet(1000, 500);
        let w = t.take_window();
        assert_eq!(w.received, 1);
        assert_eq!(w.lost, 0);
    }

    #[test]
    fn resync_suppresses_cross_gap() {
        let mut t = SeqTracker::new();
        t.on_packet(5, 1000);
        let _ = t.take_window();
        // Receiver unsubscribed and re-subscribed; stream moved to seq 50.
        t.resync();
        t.on_packet(50, 1000);
        let w = t.take_window();
        assert_eq!(w.lost, 0);
        assert_eq!(w.received, 1);
    }

    #[test]
    fn windows_reset_and_accumulate_lifetime() {
        let mut t = SeqTracker::new();
        t.on_packet(0, 100);
        t.on_packet(2, 100); // 1 lost
        let w1 = t.take_window();
        assert_eq!((w1.received, w1.lost), (2, 1));
        t.on_packet(3, 100);
        let w2 = t.take_window();
        assert_eq!((w2.received, w2.lost), (1, 0));
        let life = t.lifetime();
        assert_eq!((life.received, life.lost, life.bytes), (3, 1, 300));
    }

    #[test]
    fn empty_window_loss_rate_is_zero() {
        let t = SeqTracker::new();
        assert_eq!(t.current_window().loss_rate(), 0.0);
    }

    #[test]
    fn merge_sums_fields() {
        let a = LossWindow { received: 1, lost: 2, bytes: 3 };
        let b = LossWindow { received: 10, lost: 20, bytes: 30 };
        assert_eq!(a.merge(&b), LossWindow { received: 11, lost: 22, bytes: 33 });
    }
}
