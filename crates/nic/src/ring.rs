//! RX descriptor rings and their DMA buffers.
//!
//! A receive queue is a circular ring of descriptors. The NIC fills
//! descriptors at its *head*; the software stack consumes completed
//! descriptors and, after the packet is fully processed, advances the
//! *tail* to return buffers to the NIC (Fig. 3 of the paper). Each slot
//! owns a fixed, MTU-sized DMA buffer (2 KiB) and a descriptor record
//! (128 B), exactly the run-to-completion recycling model the paper
//! analyses.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

use idio_cache::addr::{Addr, LINE_SIZE};
use idio_engine::time::SimTime;
use idio_net::packet::Packet;
use idio_pool::BufPool;

/// Default DMA buffer entry size: MTU packets round up to 2 KiB (Sec. IV-A).
pub const DEFAULT_BUF_BYTES: u64 = 2048;
/// Descriptor record size (Sec. III, observation 1).
pub const DESC_BYTES: u64 = 128;

/// Why [`RxRing::reserve`] dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReserveError {
    /// The ring had no free descriptor.
    RingFull,
    /// The queue's recycling mbuf pool had no free buffer (allocation
    /// outran recycling; counted in the pool's `starved` stat).
    PoolStarved,
}

impl fmt::Display for ReserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReserveError::RingFull => f.write_str("rx ring full; packet dropped"),
            ReserveError::PoolStarved => f.write_str("mbuf pool starved; packet dropped"),
        }
    }
}

impl Error for ReserveError {}

/// A filled RX descriptor handed to the software stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxSlot {
    /// Ring slot index.
    pub slot: u32,
    /// Base address of the slot's DMA buffer.
    pub buf: Addr,
    /// Base address of the slot's descriptor record.
    pub desc: Addr,
    /// The received packet.
    pub packet: Packet,
    /// Arrival time of the packet at the NIC (for latency accounting).
    pub arrived_at: SimTime,
}

/// A receive descriptor ring with fixed per-slot DMA buffers.
///
/// Invariants (checked in debug builds and property tests):
/// * `0 <= inflight + completed <= size`, where *inflight* slots have been
///   reserved by the NIC but not yet written back, and *completed* slots
///   await software consumption;
/// * slots are consumed and freed strictly in FIFO order.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::Addr;
/// use idio_engine::time::SimTime;
/// use idio_net::packet::{Dscp, FiveTuple, Packet};
/// use idio_nic::ring::RxRing;
///
/// let mut ring = RxRing::new(4, Addr::new(0x10000), Addr::new(0x20000));
/// let pkt = Packet::new(0, 1514, FiveTuple::default(), Dscp::BEST_EFFORT);
/// let slot = ring.reserve(pkt, SimTime::ZERO)?;
/// ring.complete(slot.slot);
/// let batch = ring.pop_completed(32);
/// assert_eq!(batch.len(), 1);
/// ring.free(1);
/// # Ok::<(), idio_nic::ring::ReserveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RxRing {
    size: u32,
    desc_base: Addr,
    desc_stride: u64,
    /// The queue's mbuf pool: buffer allocation per reserved descriptor.
    pool: BufPool,
    /// NIC producer cursor (absolute count of reservations).
    head: u64,
    /// Software free cursor (absolute count of freed slots).
    tail: u64,
    /// Reserved-but-not-yet-completed slots, FIFO.
    inflight: VecDeque<RxSlot>,
    /// Completed slots awaiting software consumption, FIFO.
    completed: VecDeque<RxSlot>,
}

impl RxRing {
    /// Creates a ring of `size` slots with buffers at `buf_base` (2 KiB
    /// stride) and descriptors at `desc_base` (128 B stride). The implicit
    /// mbuf pool is the status quo: one fixed buffer per ring slot, no
    /// LLC budget.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(size: u32, buf_base: Addr, desc_base: Addr) -> Self {
        let pool = BufPool::unbudgeted_dram(
            buf_base,
            DEFAULT_BUF_BYTES,
            (DEFAULT_BUF_BYTES / LINE_SIZE) as u32,
        );
        RxRing::with_pool(size, desc_base, pool)
    }

    /// Creates a ring of `size` slots drawing buffers from `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn with_pool(size: u32, desc_base: Addr, pool: BufPool) -> Self {
        assert!(size > 0, "ring must have at least one slot");
        RxRing {
            size,
            desc_base,
            desc_stride: DESC_BYTES,
            pool,
            head: 0,
            tail: 0,
            inflight: VecDeque::new(),
            completed: VecDeque::new(),
        }
    }

    /// Replaces the ring's mbuf pool. Only legal before any packet has
    /// been reserved (the system installs configured pools right after
    /// NIC construction).
    ///
    /// # Panics
    ///
    /// Panics if the ring has already seen traffic.
    pub fn install_pool(&mut self, pool: BufPool) {
        assert_eq!(self.head, 0, "pool installed on a ring with traffic");
        self.pool = pool;
    }

    /// The ring's mbuf pool (stats, budget, mode).
    pub fn pool(&self) -> &BufPool {
        &self.pool
    }

    /// Ring capacity in slots.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Number of slots currently owned by the NIC or awaiting consumption.
    pub fn occupied(&self) -> u32 {
        (self.head - self.tail) as u32
    }

    /// Number of free slots available to the NIC.
    pub fn free_slots(&self) -> u32 {
        self.size - self.occupied()
    }

    /// The *use distance* of Fig. 3: packets received but not yet freed.
    pub fn use_distance(&self) -> u32 {
        self.occupied()
    }

    /// Byte span of the descriptor array.
    pub fn desc_region_bytes(&self) -> u64 {
        self.desc_stride * u64::from(self.size)
    }

    /// Buffer base address of pool slot `slot`.
    pub fn buf_addr(&self, slot: u32) -> Addr {
        debug_assert!(slot < self.size);
        self.pool.buf_addr(slot)
    }

    /// Descriptor base address of `slot`.
    pub fn desc_addr(&self, slot: u32) -> Addr {
        debug_assert!(slot < self.size);
        self.desc_base + self.desc_stride * u64::from(slot)
    }

    /// NIC side: reserves the next slot for `packet` and allocates its
    /// DMA buffer from the queue's pool.
    ///
    /// # Errors
    ///
    /// Returns [`ReserveError::RingFull`] when no free descriptor exists,
    /// or [`ReserveError::PoolStarved`] when a recycling pool has no free
    /// buffer. Either way the packet is dropped — the caller must count
    /// it — and neither the descriptor cursor nor the pool advance.
    pub fn reserve(&mut self, packet: Packet, arrived_at: SimTime) -> Result<RxSlot, ReserveError> {
        if self.free_slots() == 0 {
            return Err(ReserveError::RingFull);
        }
        let slot = (self.head % u64::from(self.size)) as u32;
        let buf = self
            .pool
            .alloc(slot)
            .map_err(|_| ReserveError::PoolStarved)?;
        self.head += 1;
        let rx = RxSlot {
            slot,
            buf,
            desc: self.desc_addr(slot),
            packet,
            arrived_at,
        };
        self.inflight.push_back(rx);
        Ok(rx)
    }

    /// NIC side: marks `slot`'s descriptor as written back, making the
    /// packet visible to the polling driver. Slots complete in FIFO order.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not the oldest in-flight slot.
    pub fn complete(&mut self, slot: u32) {
        let rx = self
            .inflight
            .pop_front()
            .expect("complete() with no in-flight slot");
        assert_eq!(rx.slot, slot, "descriptors must complete in order");
        self.completed.push_back(rx);
    }

    /// Software side: number of completed descriptors ready to poll.
    pub fn completed_count(&self) -> u32 {
        self.completed.len() as u32
    }

    /// Software side: takes up to `max` completed descriptors (the PMD's
    /// `rx_burst`).
    pub fn pop_completed(&mut self, max: u32) -> Vec<RxSlot> {
        let n = max.min(self.completed.len() as u32) as usize;
        self.completed.drain(..n).collect()
    }

    /// Software side: returns `n` processed buffers to the NIC (tail
    /// advance) without naming them — only legal on status-quo `Dram`
    /// pools, where buffer identity is the ring slot.
    ///
    /// # Panics
    ///
    /// Panics if freeing more slots than are consumed-but-unfreed, or if
    /// the queue uses a recycling pool (free by address via
    /// [`release`](Self::release) instead).
    pub fn free(&mut self, n: u32) {
        self.advance_tail(n);
        self.pool.free_n(n);
    }

    /// Software side: returns one processed buffer to the NIC *and* to
    /// the mbuf pool, identified by its base address. This is the
    /// completion-time free: for recycling pools the buffer goes back on
    /// top of the LIFO free list here, and the caller self-invalidates
    /// its payload lines when [`BufPool::invalidate_on_free`] says so.
    ///
    /// Returns the freed pool slot id.
    ///
    /// # Panics
    ///
    /// Panics on tail over-advance, on a buffer the pool never handed
    /// out, or on a double free (recycling pools track per-slot liveness).
    pub fn release(&mut self, buf: Addr) -> u32 {
        self.advance_tail(1);
        self.pool.free_buf(buf)
    }

    fn advance_tail(&mut self, n: u32) {
        let consumed =
            self.head - self.tail - self.inflight.len() as u64 - self.completed.len() as u64;
        assert!(
            u64::from(n) <= consumed,
            "freeing {n} slots but only {consumed} are consumed"
        );
        self.tail += u64::from(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_net::packet::{Dscp, FiveTuple};

    fn pkt(id: u64) -> Packet {
        Packet::new(id, 1514, FiveTuple::default(), Dscp::BEST_EFFORT)
    }

    fn ring(size: u32) -> RxRing {
        RxRing::new(size, Addr::new(0x100000), Addr::new(0x200000))
    }

    #[test]
    fn addresses_are_strided() {
        let r = ring(8);
        assert_eq!(r.buf_addr(0), Addr::new(0x100000));
        assert_eq!(r.buf_addr(3), Addr::new(0x100000 + 3 * 2048));
        assert_eq!(r.desc_addr(5), Addr::new(0x200000 + 5 * 128));
        assert_eq!(r.desc_region_bytes(), 8 * 128);
    }

    #[test]
    fn fill_consume_free_cycle() {
        let mut r = ring(4);
        for i in 0..4 {
            let s = r.reserve(pkt(i), SimTime::ZERO).unwrap();
            assert_eq!(s.slot, i as u32);
        }
        assert_eq!(
            r.reserve(pkt(9), SimTime::ZERO),
            Err(ReserveError::RingFull)
        );
        assert_eq!(r.use_distance(), 4);
        for i in 0..4 {
            r.complete(i);
        }
        let batch = r.pop_completed(2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].packet.id, 0);
        r.free(2);
        assert_eq!(r.free_slots(), 2);
        // Slots wrap around.
        let s = r.reserve(pkt(10), SimTime::ZERO).unwrap();
        assert_eq!(s.slot, 0);
    }

    #[test]
    fn completion_is_fifo() {
        let mut r = ring(4);
        r.reserve(pkt(0), SimTime::ZERO).unwrap();
        r.reserve(pkt(1), SimTime::ZERO).unwrap();
        r.complete(0);
        r.complete(1);
        assert_eq!(r.completed_count(), 2);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_completion_panics() {
        let mut r = ring(4);
        r.reserve(pkt(0), SimTime::ZERO).unwrap();
        r.reserve(pkt(1), SimTime::ZERO).unwrap();
        r.complete(1);
    }

    #[test]
    #[should_panic(expected = "freeing")]
    fn over_free_panics() {
        let mut r = ring(4);
        r.reserve(pkt(0), SimTime::ZERO).unwrap();
        r.complete(0);
        // Not yet consumed by pop_completed.
        r.free(1);
    }

    #[test]
    fn free_requires_consumption() {
        let mut r = ring(4);
        r.reserve(pkt(0), SimTime::ZERO).unwrap();
        r.complete(0);
        r.pop_completed(32);
        r.free(1);
        assert_eq!(r.free_slots(), 4);
    }

    #[test]
    fn use_distance_tracks_backlog() {
        let mut r = ring(8);
        for i in 0..5 {
            r.reserve(pkt(i), SimTime::ZERO).unwrap();
        }
        for i in 0..5 {
            r.complete(i);
        }
        r.pop_completed(3);
        r.free(3);
        assert_eq!(r.use_distance(), 2);
    }

    #[test]
    fn arrival_time_preserved() {
        let mut r = ring(2);
        let t = SimTime::from_us(7);
        let s = r.reserve(pkt(0), t).unwrap();
        assert_eq!(s.arrived_at, t);
    }

    fn recycle_ring(size: u32, slots: u32) -> RxRing {
        let pool = BufPool::new(
            idio_pool::PoolMode::Recycle { slots },
            Addr::new(0x100000),
            DEFAULT_BUF_BYTES,
            32,
            u64::from(slots) * 32,
        );
        RxRing::with_pool(size, Addr::new(0x200000), pool)
    }

    #[test]
    fn recycle_pool_starves_before_the_ring_fills() {
        let mut r = recycle_ring(4, 2);
        let a = r.reserve(pkt(0), SimTime::ZERO).unwrap();
        let b = r.reserve(pkt(1), SimTime::ZERO).unwrap();
        // Two descriptors still free, but the pool is out of buffers.
        assert_eq!(
            r.reserve(pkt(2), SimTime::ZERO),
            Err(ReserveError::PoolStarved)
        );
        assert_eq!(r.pool().stats().starved, 1);
        // The failed reserve consumed neither a descriptor nor a buffer.
        assert_eq!(r.free_slots(), 2);
        // Completion-time release puts b back on top of the LIFO list.
        r.complete(a.slot);
        r.complete(b.slot);
        r.pop_completed(32);
        r.release(b.buf);
        let c = r.reserve(pkt(3), SimTime::ZERO).unwrap();
        assert_eq!(c.buf, b.buf, "hottest buffer reused first");
        assert_eq!(r.pool().stats().recycled, 1);
    }

    #[test]
    fn release_returns_buffers_by_address_on_dram_pools_too() {
        let mut r = ring(4);
        let s = r.reserve(pkt(0), SimTime::ZERO).unwrap();
        r.complete(s.slot);
        r.pop_completed(32);
        assert_eq!(r.release(s.buf), s.slot);
        assert_eq!(r.free_slots(), 4);
    }

    #[test]
    #[should_panic(expected = "free by buffer address")]
    fn anonymous_free_on_recycle_pool_panics() {
        let mut r = recycle_ring(4, 2);
        let s = r.reserve(pkt(0), SimTime::ZERO).unwrap();
        r.complete(s.slot);
        r.pop_completed(32);
        r.free(1);
    }

    #[test]
    #[should_panic(expected = "ring with traffic")]
    fn late_pool_install_panics() {
        let mut r = ring(4);
        r.reserve(pkt(0), SimTime::ZERO).unwrap();
        r.install_pool(BufPool::unbudgeted_dram(Addr::new(0), 2048, 32));
    }
}
