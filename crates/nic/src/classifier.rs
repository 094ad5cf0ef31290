//! The NIC-side IDIO classifier (Sec. V-A).
//!
//! For every inbound packet the classifier determines:
//!
//! 1. the **application class** from the DSCP field of the IP header
//!    ([`Dscp::CLASS1_DEFAULT`] marks class 1);
//! 2. which DMA transaction carries the packet **header** (the first line —
//!    all common protocol headers fit in 64 bytes);
//! 3. the **destination core** (resolved by Flow Director / ADQ, passed in
//!    by the NIC);
//! 4. the start of an **RX burst** per destination core: a 32-bit byte
//!    counter per core, reset every 1 µs, that signals a burst when it
//!    exceeds `rxBurstTHR` within the window.

use idio_cache::addr::CoreId;
use idio_engine::time::{Duration, SimTime};
use idio_net::packet::{Dscp, Packet};

use crate::tlp::AppClass;

/// Burst counter window (1 µs in the paper).
pub const BURST_WINDOW: Duration = Duration::from_us(1);

/// Byte threshold per window above which a burst is signalled: the
/// paper's `rxBurstTHR` of 10 Gbps is 1250 bytes per 1 µs window.
pub const RX_BURST_THR_BYTES: u32 = 1250;

/// Classification outcome for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketClass {
    /// Application class derived from the DSCP marking.
    pub app_class: AppClass,
    /// Whether this packet's first DMA transaction should carry the
    /// burst-start flag for its destination core.
    pub burst_started: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct BurstCounter {
    window_idx: u64,
    bytes: u32,
    signalled: bool,
}

/// The classifier state machine.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::CoreId;
/// use idio_engine::time::SimTime;
/// use idio_net::packet::{Dscp, FiveTuple, Packet};
/// use idio_nic::classifier::IdioClassifier;
/// use idio_nic::tlp::AppClass;
///
/// let mut cl = IdioClassifier::new(2);
/// let pkt = Packet::new(0, 1514, FiveTuple::default(), Dscp::BEST_EFFORT);
/// let c = cl.classify(SimTime::ZERO, &pkt, CoreId::new(0));
/// assert_eq!(c.app_class, AppClass::Class0);
/// // One MTU frame already exceeds 1250 B in the window: burst signalled.
/// assert!(c.burst_started);
/// ```
#[derive(Debug, Clone)]
pub struct IdioClassifier {
    counters: Vec<BurstCounter>,
    bursts_signalled: u64,
}

impl IdioClassifier {
    /// Creates a classifier for `num_cores` destination cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        IdioClassifier {
            counters: vec![BurstCounter::default(); num_cores],
            bursts_signalled: 0,
        }
    }

    /// Total burst-start notifications emitted.
    pub fn bursts_signalled(&self) -> u64 {
        self.bursts_signalled
    }

    /// Classifies one packet arriving at `at` destined for `dest_core`.
    ///
    /// # Panics
    ///
    /// Panics if `dest_core` is out of range.
    pub fn classify(&mut self, at: SimTime, packet: &Packet, dest_core: CoreId) -> PacketClass {
        let app_class = if packet.dscp == Dscp::CLASS1_DEFAULT {
            AppClass::Class1
        } else {
            AppClass::Class0
        };

        let ctr = &mut self.counters[dest_core.index()];
        let window_idx = at.as_ps() / BURST_WINDOW.as_ps();
        if window_idx != ctr.window_idx {
            // The 1 us window rolled over: reset the 32-bit counter. The
            // burst signal re-arms only after a quiet window (one that
            // stayed below the threshold), so a sustained multi-window
            // burst signals its *arrival* once, not once per window.
            let prev_over = ctr.bytes > RX_BURST_THR_BYTES;
            let contiguous = window_idx == ctr.window_idx + 1;
            ctr.window_idx = window_idx;
            ctr.bytes = 0;
            if !(prev_over && contiguous) {
                ctr.signalled = false;
            }
        }
        ctr.bytes = ctr.bytes.saturating_add(u32::from(packet.len));

        let burst_started = if !ctr.signalled && ctr.bytes > RX_BURST_THR_BYTES {
            ctr.signalled = true;
            self.bursts_signalled += 1;
            true
        } else {
            false
        };

        PacketClass {
            app_class,
            burst_started,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_net::packet::FiveTuple;

    fn pkt(len: u16, dscp: Dscp) -> Packet {
        Packet::new(0, len, FiveTuple::default(), dscp)
    }

    const C0: CoreId = CoreId::new(0);
    const C1: CoreId = CoreId::new(1);

    #[test]
    fn dscp_mapping_to_class1() {
        let mut cl = IdioClassifier::new(1);
        let c = cl.classify(SimTime::ZERO, &pkt(200, Dscp::CLASS1_DEFAULT), C0);
        assert_eq!(c.app_class, AppClass::Class1);
        let c = cl.classify(SimTime::ZERO, &pkt(200, Dscp::BEST_EFFORT), C0);
        assert_eq!(c.app_class, AppClass::Class0);
    }

    #[test]
    fn burst_signalled_once_per_sustained_burst() {
        let mut cl = IdioClassifier::new(1);
        // 100 Gbps: an MTU frame every ~121 ns, 8 frames in the window.
        let mut signals = 0;
        for i in 0..8 {
            let t = SimTime::from_ps(i * 121_120);
            if cl
                .classify(t, &pkt(1514, Dscp::BEST_EFFORT), C0)
                .burst_started
            {
                signals += 1;
            }
        }
        assert_eq!(signals, 1, "one signal per threshold crossing");
        assert_eq!(cl.bursts_signalled(), 1);
    }

    #[test]
    fn slow_traffic_never_signals() {
        let mut cl = IdioClassifier::new(1);
        // 1 Gbps of small frames: 125 bytes per window.
        for i in 0..100 {
            let t = SimTime::from_us(i);
            let c = cl.classify(t, &pkt(125, Dscp::BEST_EFFORT), C0);
            assert!(!c.burst_started);
        }
    }

    #[test]
    fn counters_are_per_core() {
        let mut cl = IdioClassifier::new(2);
        // Saturate core 0's counter; core 1 stays quiet.
        let c = cl.classify(SimTime::ZERO, &pkt(1514, Dscp::BEST_EFFORT), C0);
        assert!(c.burst_started);
        let c = cl.classify(SimTime::ZERO, &pkt(125, Dscp::BEST_EFFORT), C1);
        assert!(!c.burst_started);
    }

    #[test]
    fn sustained_burst_signals_only_at_arrival() {
        let mut cl = IdioClassifier::new(1);
        // 100 Gbps sustained for 5 us: ~8 frames per 1 us window.
        let mut signals = 0;
        for i in 0..40u64 {
            let t = SimTime::from_ps(i * 121_120);
            if cl
                .classify(t, &pkt(1514, Dscp::BEST_EFFORT), C0)
                .burst_started
            {
                signals += 1;
            }
        }
        assert_eq!(signals, 1, "a multi-window burst signals once");
    }

    #[test]
    fn new_burst_after_quiet_window_resignals() {
        let mut cl = IdioClassifier::new(1);
        assert!(
            cl.classify(SimTime::ZERO, &pkt(1514, Dscp::BEST_EFFORT), C0)
                .burst_started
        );
        // 10 ms later (a new burst period): signals again.
        assert!(
            cl.classify(SimTime::from_ms(10), &pkt(1514, Dscp::BEST_EFFORT), C0)
                .burst_started
        );
        assert_eq!(cl.bursts_signalled(), 2);
    }

    #[test]
    fn threshold_from_gbps() {
        // 10 Gbps over one window.
        let bytes = 10e9 / 8.0 * BURST_WINDOW.as_secs_f64();
        assert_eq!(RX_BURST_THR_BYTES, bytes.round() as u32);
    }
}
