//! PCIe DMA engine pacing.
//!
//! The DMA engine serialises line-granular PCIe transactions onto the link
//! between the NIC and the root complex. It is a bandwidth-limited server:
//! each 64-byte transaction occupies the link for [`LINE_TIME`], and
//! requests queue FIFO. Inbound writes (RX) and outbound reads (TX)
//! share the same engine, modelling shared PCIe bandwidth.

use idio_engine::time::{Duration, SimTime};

/// Service time of one 64-byte transaction on the link: 64 B at the
/// ~16 GB/s effective payload bandwidth of a x16 Gen3 link, comfortably
/// above a 100 Gbps port (12.5 GB/s) so the link itself is not the
/// bottleneck.
pub const LINE_TIME: Duration = Duration::from_ns(4);

/// Delay between the completion of a packet's payload DMA and the
/// descriptor writeback becoming visible to the driver. The paper measures
/// ~1.9 µs between the first DMA transaction and the start of the
/// execution phase (Sec. VII).
pub const DESC_WRITEBACK_DELAY: Duration = Duration::from_ns(1900);

/// The schedule of one multi-line DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaSchedule {
    /// Time the first line transaction issues; the others follow
    /// [`LINE_TIME`] apart.
    pub first: SimTime,
    /// Number of line transactions.
    pub lines: u32,
}

impl DmaSchedule {
    /// Issue time of line `i` (zero-based).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `i` is out of range.
    pub fn line_time(&self, i: u32) -> SimTime {
        debug_assert!(i < self.lines);
        self.first + LINE_TIME * u64::from(i)
    }

    /// Completion time of the last line transaction.
    pub fn done(&self) -> SimTime {
        self.first + LINE_TIME * u64::from(self.lines)
    }

    /// Iterates over the issue times of all lines.
    pub fn iter(&self) -> impl Iterator<Item = SimTime> + '_ {
        (0..self.lines).map(|i| self.line_time(i))
    }
}

/// The PCIe DMA pacing engine.
///
/// # Examples
///
/// ```
/// use idio_engine::time::SimTime;
/// use idio_nic::dma::DmaEngine;
///
/// let mut dma = DmaEngine::default();
/// // A 1514-byte frame: 24 line transactions, 4 ns each.
/// let s = dma.schedule(SimTime::ZERO, 24);
/// assert_eq!(s.lines, 24);
/// assert_eq!(s.done().as_ns(), 96);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DmaEngine {
    next_free: SimTime,
}

impl DmaEngine {
    /// Reserves link time for a `lines`-line transfer requested at `now`;
    /// returns the per-line schedule.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn schedule(&mut self, now: SimTime, lines: u32) -> DmaSchedule {
        assert!(lines > 0, "empty DMA transfer");
        let first = self.next_free.max(now);
        let sched = DmaSchedule { first, lines };
        self.next_free = sched.done();
        sched
    }

    /// Earliest time a new transfer could start.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_time_matches_bandwidth() {
        // 64 B at 16 GB/s.
        let ps = (64.0 / 16.0e9 * 1e12_f64).round() as u64;
        assert_eq!(LINE_TIME, Duration::from_ps(ps));
    }

    #[test]
    fn transfers_serialise_on_the_link() {
        let mut dma = DmaEngine::default();
        let a = dma.schedule(SimTime::ZERO, 10);
        let b = dma.schedule(SimTime::ZERO, 10);
        assert_eq!(b.first, a.done());
        assert_eq!(dma.next_free(), b.done());
    }

    #[test]
    fn idle_link_starts_immediately() {
        let mut dma = DmaEngine::default();
        dma.schedule(SimTime::ZERO, 1);
        let s = dma.schedule(SimTime::from_us(5), 1);
        assert_eq!(s.first, SimTime::from_us(5));
    }

    #[test]
    fn schedule_iter_yields_paced_times() {
        let mut dma = DmaEngine::default();
        let s = dma.schedule(SimTime::ZERO, 3);
        let times: Vec<_> = s.iter().collect();
        assert_eq!(
            times,
            vec![SimTime::ZERO, SimTime::from_ns(4), SimTime::from_ns(8)]
        );
        assert_eq!(s.line_time(2), SimTime::from_ns(8));
    }

    #[test]
    #[should_panic(expected = "empty DMA")]
    fn zero_line_transfer_rejected() {
        DmaEngine::default().schedule(SimTime::ZERO, 0);
    }
}
