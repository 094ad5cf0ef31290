//! # idio-mem
//!
//! A bandwidth/latency DRAM model for the IDIO reproduction.
//!
//! The model follows the Table I configuration: two channels of
//! DDR4-3200. Each channel is a bandwidth-limited server: a line transfer
//! occupies the channel for [`LINE_SERVICE`], requests queue FIFO per
//! channel, and every request additionally pays [`DEVICE_LATENCY`]. That is
//! deliberately simpler than a bank-state DRAM simulator — the paper's
//! observations depend on *how much* DRAM traffic each policy generates
//! and on congestion-induced queueing, not on bank-level timing.
//!
//! # Examples
//!
//! ```
//! use idio_engine::time::SimTime;
//! use idio_mem::{DramModel, DEVICE_LATENCY, LINE_SERVICE};
//!
//! let mut dram = DramModel::default();
//! let done = dram.request(SimTime::ZERO);
//! assert_eq!(done, SimTime::ZERO + DEVICE_LATENCY + LINE_SERVICE);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use idio_engine::time::{Duration, SimTime};

/// Independent DDR4-3200 channels (Table I).
pub const CHANNELS: usize = 2;

/// Service time of one 64-byte line on a channel: 64 B at DDR4-3200's
/// 25.6 GB/s is 2.5 ns.
pub const LINE_SERVICE: Duration = Duration::from_ps(2500);

/// Fixed device latency (CAS + controller) added to every request.
pub const DEVICE_LATENCY: Duration = Duration::from_ns(50);

/// The DRAM timing model.
///
/// Requests are assigned to channels round-robin, approximating line
/// interleaving.
#[derive(Debug, Clone, Default)]
pub struct DramModel {
    next_free: [SimTime; CHANNELS],
    rr: usize,
}

impl DramModel {
    /// Issues one line transaction at `now`; returns its completion time
    /// (queueing + device latency + transfer).
    pub fn request(&mut self, now: SimTime) -> SimTime {
        let ch = self.rr;
        self.rr = (self.rr + 1) % CHANNELS;
        let start = self.next_free[ch].max(now);
        self.next_free[ch] = start + LINE_SERVICE;
        start + DEVICE_LATENCY + LINE_SERVICE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_service_time_ddr4_3200() {
        // 64 B / 25.6 GB/s = 2.5 ns.
        let ps = (64.0 / 25.6e9 * 1e12_f64).round() as u64;
        assert_eq!(LINE_SERVICE, Duration::from_ps(ps));
    }

    #[test]
    fn unloaded_latency_is_device_plus_transfer() {
        let mut d = DramModel::default();
        let done = d.request(SimTime::from_ns(100));
        assert_eq!(done, SimTime::from_ns(100) + Duration::from_ps(52_500));
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = DramModel::default();
        let t = SimTime::ZERO;
        let first = d.request(t);
        d.request(t);
        // The third request finds both channels busy and waits 2.5 ns
        // for the first one.
        let third = d.request(t);
        assert_eq!(third - first, Duration::from_ps(2500));
    }

    #[test]
    fn channels_serve_in_parallel() {
        let mut d = DramModel::default();
        let t = SimTime::ZERO;
        let a = d.request(t);
        let b = d.request(t);
        assert_eq!(a, b, "two channels absorb two requests without queueing");
    }
}
