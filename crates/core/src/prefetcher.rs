//! The queued MLC prefetcher (Sec. V-C).
//!
//! Each MLC controller implements a simple queued prefetcher: hints from
//! the IDIO controller are enqueued (default depth 32) and drained at a
//! bounded issue rate toward the LLC. A hint that arrives when the queue is
//! full is dropped — which is exactly what throttles MLC steering at
//! 100 Gbps burst rates, where the wire outruns the prefetcher.

use std::collections::VecDeque;

use idio_cache::addr::LineAddr;
use idio_engine::stats::Counter;
use idio_engine::time::Duration;

/// How prefetch hints are admitted to the queue.
///
/// The paper's design is the simple drop-on-full queue
/// ([`PrefetchPacing::Queued`]); Sec. VII suggests as future work "a more
/// sophisticated prefetcher that follows the CPU pointer in the ring
/// buffer to regulate the MLC prefetching rate" — implemented here as
/// [`PrefetchPacing::CpuPaced`]: hints for packets more than
/// `window_packets` ahead of the consumption pointer are parked and
/// released as the CPU catches up, so nothing is dropped and the MLC is
/// never flooded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetchPacing {
    /// Fixed-depth queue; overflowing hints are dropped (the paper's
    /// design).
    #[default]
    Queued,
    /// Ring-pointer-following regulation (the paper's future-work
    /// suggestion).
    CpuPaced {
        /// Maximum packets the prefetcher may run ahead of the CPU
        /// pointer.
        window_packets: u32,
    },
}

/// Minimum gap between issued prefetches (LLC→MLC move pipeline rate).
pub const ISSUE_GAP: Duration = Duration::from_ns(5);

/// Prefetcher parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetcherConfig {
    /// Queue depth (default 32, Sec. V-C).
    pub queue_depth: usize,
    /// Hint admission policy.
    pub pacing: PrefetchPacing,
}

impl Default for PrefetcherConfig {
    fn default() -> Self {
        PrefetcherConfig {
            queue_depth: 32,
            pacing: PrefetchPacing::Queued,
        }
    }
}

/// Per-core prefetch-queue counters.
#[derive(Debug, Clone, Default)]
pub struct PrefetcherStats {
    /// Hints accepted into the queue.
    pub accepted: Counter,
    /// Hints dropped because the queue was full.
    pub dropped: Counter,
    /// Prefetches issued to the hierarchy.
    pub issued: Counter,
}

/// One core's MLC prefetch queue.
///
/// The event-driven pacing (one issue per [`ISSUE_GAP`])
/// is driven by the system simulator; this structure owns the queue state.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::LineAddr;
/// use idio_core::prefetcher::{MlcPrefetcher, PrefetcherConfig};
///
/// let mut p = MlcPrefetcher::new(PrefetcherConfig::default());
/// assert!(p.push(LineAddr::new(1)));
/// assert_eq!(p.pop(), Some(LineAddr::new(1)));
/// assert_eq!(p.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct MlcPrefetcher {
    cfg: PrefetcherConfig,
    queue: VecDeque<LineAddr>,
    stats: PrefetcherStats,
    /// Whether an issue event is currently scheduled (managed by the
    /// system's event loop to avoid double-scheduling).
    pub issue_pending: bool,
}

impl MlcPrefetcher {
    /// Creates a prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the queue depth is zero.
    pub fn new(cfg: PrefetcherConfig) -> Self {
        assert!(cfg.queue_depth > 0, "prefetch queue must have capacity");
        MlcPrefetcher {
            cfg,
            queue: VecDeque::with_capacity(cfg.queue_depth),
            stats: PrefetcherStats::default(),
            issue_pending: false,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PrefetcherConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &PrefetcherStats {
        &self.stats
    }

    /// Pending hints.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues a hint; returns `false` (and counts a drop) when full.
    pub fn push(&mut self, line: LineAddr) -> bool {
        if self.queue.len() >= self.cfg.queue_depth {
            self.stats.dropped.inc();
            return false;
        }
        self.queue.push_back(line);
        self.stats.accepted.inc();
        true
    }

    /// Dequeues the next hint to issue.
    pub fn pop(&mut self) -> Option<LineAddr> {
        let line = self.queue.pop_front();
        if line.is_some() {
            self.stats.issued.inc();
        }
        line
    }
}

/// Arena-backed parked-hint storage for the CPU-paced prefetcher: one
/// fixed-capacity FIFO ring per core, all carved from a single allocation.
///
/// Replaces the per-core `VecDeque<(seq, line)>` queues: parking a hint or
/// releasing a window's worth of hints never allocates, and the per-core
/// ring headers sit in one contiguous array next to each other. Capacity
/// is provisioned from the RX ring geometry (`ring_slots *
/// lines_per_slot`), a hard bound on parked hints: a packet parks at most
/// one hint per buffer line, and at most `ring_slots` packets are ever in
/// flight before the CPU pointer advances past them.
#[derive(Debug, Clone)]
pub struct HintArena {
    /// Flat slot storage; core `c` owns `slots[c * cap .. (c + 1) * cap]`.
    slots: Box<[(u64, LineAddr)]>,
    /// Per-core ring capacity.
    cap: usize,
    /// Per-core `(head, len)` ring headers.
    rings: Box<[(u32, u32)]>,
}

impl HintArena {
    /// Creates rings for `cores` cores of `cap_per_core` slots each. A
    /// zero capacity is valid for configurations that never park (the
    /// default queued pacing) and allocates no slot storage.
    pub fn new(cores: usize, cap_per_core: usize) -> Self {
        assert!(
            u32::try_from(cap_per_core).is_ok(),
            "hint ring capacity exceeds u32"
        );
        HintArena {
            slots: vec![(0, LineAddr::new(0)); cores * cap_per_core].into_boxed_slice(),
            cap: cap_per_core,
            rings: vec![(0u32, 0u32); cores].into_boxed_slice(),
        }
    }

    /// Per-core ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Parked hints on `core`.
    pub fn len(&self, core: usize) -> usize {
        self.rings[core].1 as usize
    }

    /// Whether `core` has no parked hints.
    pub fn is_empty(&self, core: usize) -> bool {
        self.len(core) == 0
    }

    /// Parks `(seq, line)` at the tail of `core`'s ring.
    ///
    /// # Panics
    ///
    /// Panics, naming the core and sequence number, if the ring is full.
    /// The capacity is provisioned to the RX-ring bound, so an overflow
    /// means the pacing invariant broke — it is diagnosed, not dropped.
    pub fn park(&mut self, core: usize, seq: u64, line: LineAddr) {
        let (head, len) = self.rings[core];
        assert!(
            (len as usize) < self.cap,
            "parked-hint ring overflow on core{core} at seq {seq}: {len} hints \
             parked, capacity {} (RX-ring pacing bound violated)",
            self.cap
        );
        let slot = core * self.cap + (head as usize + len as usize) % self.cap;
        self.slots[slot] = (seq, line);
        self.rings[core].1 = len + 1;
    }

    /// Releases the oldest parked hint if its sequence number is within
    /// `limit` (the CPU pointer plus the pacing window); `None` when the
    /// ring is empty or the head is still too far ahead.
    pub fn pop_ready(&mut self, core: usize, limit: u64) -> Option<LineAddr> {
        let (head, len) = self.rings[core];
        if len == 0 {
            return None;
        }
        let (seq, line) = self.slots[core * self.cap + head as usize];
        if seq > limit {
            return None;
        }
        self.rings[core] = (((head as usize + 1) % self.cap) as u32, len - 1);
        Some(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn queue_overflow_drops_hints() {
        let mut p = MlcPrefetcher::new(PrefetcherConfig {
            queue_depth: 2,
            pacing: PrefetchPacing::Queued,
        });
        assert!(p.push(line(1)));
        assert!(p.push(line(2)));
        assert!(!p.push(line(3)));
        assert_eq!(p.stats().dropped.get(), 1);
        assert_eq!(p.stats().accepted.get(), 2);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn fifo_ordering() {
        let mut p = MlcPrefetcher::new(PrefetcherConfig::default());
        p.push(line(5));
        p.push(line(6));
        assert_eq!(p.pop(), Some(line(5)));
        assert_eq!(p.pop(), Some(line(6)));
        assert_eq!(p.stats().issued.get(), 2);
    }

    #[test]
    fn default_depth_is_32() {
        let p = MlcPrefetcher::new(PrefetcherConfig::default());
        assert_eq!(p.config().queue_depth, 32);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_depth_rejected() {
        let _ = MlcPrefetcher::new(PrefetcherConfig {
            queue_depth: 0,
            pacing: PrefetchPacing::Queued,
        });
    }

    #[test]
    fn arena_rings_are_independent_fifos() {
        let mut a = HintArena::new(2, 4);
        a.park(0, 1, line(10));
        a.park(1, 1, line(20));
        a.park(0, 2, line(11));
        assert_eq!(a.len(0), 2);
        assert_eq!(a.len(1), 1);
        assert_eq!(a.pop_ready(0, u64::MAX), Some(line(10)));
        assert_eq!(a.pop_ready(0, u64::MAX), Some(line(11)));
        assert_eq!(a.pop_ready(0, u64::MAX), None);
        assert_eq!(a.pop_ready(1, u64::MAX), Some(line(20)));
        assert!(a.is_empty(0) && a.is_empty(1));
    }

    #[test]
    fn arena_pop_gated_by_sequence_limit() {
        let mut a = HintArena::new(1, 4);
        a.park(0, 5, line(1));
        a.park(0, 9, line(2));
        assert_eq!(a.pop_ready(0, 4), None);
        assert_eq!(a.pop_ready(0, 5), Some(line(1)));
        // The head advanced; the next hint still waits for its window.
        assert_eq!(a.pop_ready(0, 8), None);
        assert_eq!(a.pop_ready(0, 9), Some(line(2)));
    }

    #[test]
    fn arena_ring_wraps_at_capacity_boundary() {
        let mut a = HintArena::new(1, 3);
        // Fill to capacity, drain two, refill two: the tail wraps past the
        // end of the slot range and FIFO order must survive the wrap.
        a.park(0, 1, line(1));
        a.park(0, 2, line(2));
        a.park(0, 3, line(3));
        assert_eq!(a.len(0), a.capacity());
        assert_eq!(a.pop_ready(0, u64::MAX), Some(line(1)));
        assert_eq!(a.pop_ready(0, u64::MAX), Some(line(2)));
        a.park(0, 4, line(4));
        a.park(0, 5, line(5));
        assert_eq!(a.len(0), 3);
        assert_eq!(a.pop_ready(0, u64::MAX), Some(line(3)));
        assert_eq!(a.pop_ready(0, u64::MAX), Some(line(4)));
        assert_eq!(a.pop_ready(0, u64::MAX), Some(line(5)));
        assert_eq!(a.pop_ready(0, u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "parked-hint ring overflow on core1 at seq 42")]
    fn arena_overflow_panic_names_core_and_seq() {
        let mut a = HintArena::new(2, 2);
        a.park(1, 40, line(1));
        a.park(1, 41, line(2));
        a.park(1, 42, line(3));
    }

    #[test]
    fn arena_zero_capacity_is_valid_but_parks_nothing() {
        let mut a = HintArena::new(4, 0);
        assert_eq!(a.capacity(), 0);
        assert!(a.is_empty(3));
        assert_eq!(a.pop_ready(3, u64::MAX), None);
    }
}
