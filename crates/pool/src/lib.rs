//! # idio-pool
//!
//! Per-queue mbuf pools for the RX path, after RDCA: the last mile of
//! inbound data should run out of a **small LLC-resident buffer pool**
//! recycled fast enough that DMA writes never spill to DRAM.
//!
//! Two modes:
//!
//! * [`PoolMode::Dram`] — the status quo the paper analyses: every ring
//!   slot owns a fixed buffer, the working set is the whole ring, and
//!   under backlog the DMA footprint grows past the DDIO partition
//!   (the *latent-bloat* / *DMA-leak* precondition). Allocation never
//!   fails; allocations whose live footprint exceeds the pool's LLC
//!   budget are counted as `spilled`.
//! * [`PoolMode::Recycle`] — an RDCA-style pool of `slots` buffers sized
//!   to the DDIO partition, recycled through a **LIFO free list** so the
//!   hottest (most recently freed, still cache-resident) buffer is
//!   reused first. When allocation outruns recycling the pool *starves*
//!   (`starved` counter; the NIC drops the packet) instead of growing —
//!   bounding the LLC footprint by construction. Frees are paired with
//!   free-side self-invalidation of the payload lines by the caller
//!   (see [`BufPool::invalidate_on_free`]).
//!
//! The pool is pure bookkeeping: it hands out buffer base addresses and
//! tracks liveness/occupancy; the system simulator charges cache and
//! timing effects.
//!
//! # Examples
//!
//! ```
//! use idio_cache::addr::Addr;
//! use idio_pool::{BufPool, PoolMode};
//!
//! // A 2-slot recycle pool over 2 KiB buffers (32 lines each).
//! let mut p = BufPool::new(
//!     PoolMode::Recycle { slots: 2 },
//!     Addr::new(0x10000),
//!     2048,
//!     32,
//!     64,
//! );
//! let a = p.alloc(0)?;
//! let b = p.alloc(1)?;
//! assert!(p.alloc(2).is_err()); // starved: both buffers live
//! p.free_buf(b);
//! assert_eq!(p.alloc(3)?, b); // LIFO: hottest buffer reused first
//! # drop(a);
//! # Ok::<(), idio_pool::PoolStarvedError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use idio_cache::addr::Addr;

/// Configuration-level pool selection, before ring geometry and the DDIO
/// partition are known. Resolved to a [`PoolMode`] by [`PoolSpec::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolSpec {
    /// Status-quo per-ring-slot buffers (unbounded working set).
    Dram,
    /// LLC-resident recycling pool. `slots: None` sizes the pool from the
    /// queue's share of the DDIO partition at resolve time.
    Recycle {
        /// Explicit pool size in buffers, or `None` to derive it.
        slots: Option<u32>,
    },
}

impl PoolSpec {
    /// Resolves the spec against the queue's LLC budget and ring geometry.
    ///
    /// A derived `Recycle` pool holds as many buffers as fit in
    /// `budget_lines` (the queue's share of the DDIO partition), clamped
    /// to `[1, ring_size]`; an explicit slot count is clamped the same way
    /// (a pool larger than the ring can never be fully live).
    pub fn resolve(self, budget_lines: u64, lines_per_buf: u32, ring_size: u32) -> PoolMode {
        match self {
            PoolSpec::Dram => PoolMode::Dram,
            PoolSpec::Recycle { slots } => {
                let fit = budget_lines / u64::from(lines_per_buf.max(1));
                let fit = u32::try_from(fit).unwrap_or(u32::MAX);
                let slots = slots.unwrap_or(fit).clamp(1, ring_size.max(1));
                PoolMode::Recycle { slots }
            }
        }
    }

    /// The scenario-file spelling (`"dram"`, `"recycle"`, `"recycle:N"`).
    pub fn file_name(self) -> String {
        match self {
            PoolSpec::Dram => "dram".into(),
            PoolSpec::Recycle { slots: None } => "recycle".into(),
            PoolSpec::Recycle { slots: Some(n) } => format!("recycle:{n}"),
        }
    }

    /// Parses the scenario-file spelling back (the inverse of
    /// [`PoolSpec::file_name`]).
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown spelling, a slot count that is not
    /// a `u32`, or a zero slot count.
    pub fn from_name(name: &str) -> Result<PoolSpec, String> {
        match name {
            "dram" => return Ok(PoolSpec::Dram),
            "recycle" => return Ok(PoolSpec::Recycle { slots: None }),
            _ => {}
        }
        let Some(n) = name.strip_prefix("recycle:") else {
            return Err(format!(
                "unknown pool '{name}' (expected dram|recycle|recycle:<slots>)"
            ));
        };
        match n.parse::<u32>() {
            Ok(0) => Err("recycle pool needs at least one slot".into()),
            Ok(slots) => Ok(PoolSpec::Recycle { slots: Some(slots) }),
            Err(_) => Err(format!("recycle pool size '{n}' is not a u32")),
        }
    }
}

/// Resolved pool mode (see [`PoolSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolMode {
    /// Status-quo per-ring-slot buffers.
    Dram,
    /// Recycling pool of exactly `slots` buffers.
    Recycle {
        /// Pool size in buffers.
        slots: u32,
    },
}

/// Error: a recycle pool had no free buffer — allocation outran recycling
/// and the packet is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStarvedError;

impl fmt::Display for PoolStarvedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("mbuf pool starved; packet dropped")
    }
}

impl Error for PoolStarvedError {}

/// Monotonic pool counters, exported as `pool.q{q}.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers returned to a recycle pool's free list.
    pub recycled: u64,
    /// Allocations that failed because the recycle pool was empty.
    pub starved: u64,
    /// Allocations made while the pool's live footprint already exceeded
    /// its LLC budget — buffers that conceptually spill past the DDIO
    /// partition (the bloat/leak precondition).
    pub spilled: u64,
}

/// A per-queue mbuf pool: fixed-stride buffers carved from one region,
/// allocated per received packet and freed when processing (or TX
/// completion) finishes.
#[derive(Debug, Clone)]
pub struct BufPool {
    mode: PoolMode,
    base: Addr,
    stride: u64,
    lines_per_buf: u32,
    budget_lines: u64,
    /// LIFO free list of pool slot ids (`Recycle` only).
    free: Vec<u32>,
    /// Per-slot liveness guard (`Recycle` only).
    live: Vec<bool>,
    live_count: u32,
    stats: PoolStats,
}

impl BufPool {
    /// Creates a pool over buffers of `stride` bytes (`lines_per_buf`
    /// cache lines each) starting at `base`. `budget_lines` is the LLC
    /// budget the pool is supposed to stay inside (allocations beyond it
    /// count as `spilled`).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero, or if a `Recycle` mode has zero slots.
    pub fn new(
        mode: PoolMode,
        base: Addr,
        stride: u64,
        lines_per_buf: u32,
        budget_lines: u64,
    ) -> Self {
        assert!(stride > 0, "buffer stride must be non-zero");
        let (free, live) = match mode {
            PoolMode::Dram => (Vec::new(), Vec::new()),
            PoolMode::Recycle { slots } => {
                assert!(slots > 0, "recycle pool must have at least one slot");
                // Push high slots first so the first pop (and the cold-start
                // allocation order) walks 0, 1, 2, ... exactly like the
                // status-quo ring addressing.
                ((0..slots).rev().collect(), vec![false; slots as usize])
            }
        };
        BufPool {
            mode,
            base,
            stride,
            lines_per_buf,
            budget_lines,
            free,
            live,
            live_count: 0,
            stats: PoolStats::default(),
        }
    }

    /// A status-quo pool with no meaningful LLC budget (never spills):
    /// the implicit pool behind legacy ring construction.
    pub fn unbudgeted_dram(base: Addr, stride: u64, lines_per_buf: u32) -> Self {
        BufPool::new(PoolMode::Dram, base, stride, lines_per_buf, u64::MAX)
    }

    /// The pool's mode.
    pub fn mode(&self) -> PoolMode {
        self.mode
    }

    /// Whether this is a recycling pool.
    pub fn is_recycle(&self) -> bool {
        matches!(self.mode, PoolMode::Recycle { .. })
    }

    /// Whether frees must be paired with self-invalidation of the
    /// buffer's payload lines (the RDCA recycling contract: a freed
    /// buffer's stale lines are invalidated without writeback so the next
    /// DMA write re-allocates clean lines in the LLC).
    pub fn invalidate_on_free(&self) -> bool {
        self.is_recycle()
    }

    /// Cache lines per buffer.
    pub fn lines_per_buf(&self) -> u32 {
        self.lines_per_buf
    }

    /// The pool's LLC budget in cache lines.
    pub fn budget_lines(&self) -> u64 {
        self.budget_lines
    }

    /// Buffer base address of pool slot `slot`.
    pub fn buf_addr(&self, slot: u32) -> Addr {
        self.base + self.stride * u64::from(slot)
    }

    /// Buffers currently allocated.
    pub fn live_bufs(&self) -> u32 {
        self.live_count
    }

    /// Cache-line footprint of the live buffers.
    pub fn live_lines(&self) -> u64 {
        u64::from(self.live_count) * u64::from(self.lines_per_buf)
    }

    /// Free buffers remaining (`None` for `Dram`, which never runs out).
    pub fn available(&self) -> Option<u32> {
        match self.mode {
            PoolMode::Dram => None,
            PoolMode::Recycle { .. } => Some(self.free.len() as u32),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Allocates a buffer for a packet landing in ring slot `ring_slot`.
    ///
    /// `Dram` hands out the ring slot's fixed buffer (never fails);
    /// `Recycle` pops the hottest buffer off the LIFO free list.
    ///
    /// # Errors
    ///
    /// Returns [`PoolStarvedError`] when a recycle pool has no free
    /// buffer (the caller drops the packet and must count it).
    pub fn alloc(&mut self, ring_slot: u32) -> Result<Addr, PoolStarvedError> {
        let slot = match self.mode {
            PoolMode::Dram => ring_slot,
            PoolMode::Recycle { .. } => match self.free.pop() {
                Some(s) => {
                    debug_assert!(!self.live[s as usize], "free list handed out a live slot");
                    self.live[s as usize] = true;
                    s
                }
                None => {
                    self.stats.starved += 1;
                    return Err(PoolStarvedError);
                }
            },
        };
        self.live_count += 1;
        if self.live_lines() > self.budget_lines {
            self.stats.spilled += 1;
        }
        Ok(self.buf_addr(slot))
    }

    /// Frees the buffer at `buf`, returning its pool slot id. For recycle
    /// pools the slot goes back on top of the LIFO free list and the
    /// caller is expected to self-invalidate the payload lines (see
    /// [`invalidate_on_free`](Self::invalidate_on_free)).
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a buffer base this pool handed out, or (for
    /// recycle pools) if the buffer is already free — the double-free /
    /// slot-leak guard.
    pub fn free_buf(&mut self, buf: Addr) -> u32 {
        assert!(
            buf >= self.base,
            "buffer {buf} below pool base {}",
            self.base
        );
        let off = buf - self.base;
        assert!(
            off.is_multiple_of(self.stride),
            "buffer {buf} is not stride-aligned in the pool"
        );
        let slot = (off / self.stride) as u32;
        match self.mode {
            PoolMode::Dram => {
                assert!(self.live_count > 0, "free with no live buffers");
            }
            PoolMode::Recycle { slots } => {
                assert!(slot < slots, "buffer {buf} past the pool's {slots} slots");
                assert!(self.live[slot as usize], "double free of pool slot {slot}");
                self.live[slot as usize] = false;
                self.free.push(slot);
                self.stats.recycled += 1;
            }
        }
        self.live_count -= 1;
        slot
    }

    /// Bulk free of `n` buffers for `Dram` pools, where individual buffer
    /// identity does not matter (legacy tail-advance path).
    ///
    /// # Panics
    ///
    /// Panics on recycle pools (they free by buffer address so the LIFO
    /// order and liveness guard stay exact) or when freeing more buffers
    /// than are live.
    pub fn free_n(&mut self, n: u32) {
        assert!(
            !self.is_recycle(),
            "recycle pools free by buffer address (free_buf)"
        );
        assert!(
            n <= self.live_count,
            "freeing {n} buffers but only {} are live",
            self.live_count
        );
        self.live_count -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recycle(slots: u32, budget_lines: u64) -> BufPool {
        BufPool::new(
            PoolMode::Recycle { slots },
            Addr::new(0x4000),
            2048,
            32,
            budget_lines,
        )
    }

    #[test]
    fn dram_mode_is_status_quo_addressing() {
        let mut p = BufPool::unbudgeted_dram(Addr::new(0x8000), 2048, 32);
        assert_eq!(p.alloc(0).unwrap(), Addr::new(0x8000));
        assert_eq!(p.alloc(5).unwrap(), Addr::new(0x8000 + 5 * 2048));
        assert_eq!(p.live_bufs(), 2);
        assert_eq!(p.stats(), PoolStats::default());
        p.free_n(2);
        assert_eq!(p.live_bufs(), 0);
    }

    #[test]
    fn recycle_cold_start_walks_slots_in_order() {
        let mut p = recycle(4, 4 * 32);
        for i in 0..4u64 {
            assert_eq!(p.alloc(99).unwrap(), Addr::new(0x4000 + i * 2048));
        }
    }

    #[test]
    fn recycle_is_lifo_and_counts_recycles() {
        let mut p = recycle(4, 4 * 32);
        let a = p.alloc(0).unwrap();
        let b = p.alloc(1).unwrap();
        p.free_buf(a);
        p.free_buf(b);
        // b freed last => reused first.
        assert_eq!(p.alloc(2).unwrap(), b);
        assert_eq!(p.alloc(3).unwrap(), a);
        assert_eq!(p.stats().recycled, 2);
    }

    #[test]
    fn starvation_counts_and_recovers() {
        let mut p = recycle(2, 2 * 32);
        let a = p.alloc(0).unwrap();
        let _b = p.alloc(1).unwrap();
        assert_eq!(p.alloc(2), Err(PoolStarvedError));
        assert_eq!(p.alloc(3), Err(PoolStarvedError));
        assert_eq!(p.stats().starved, 2);
        p.free_buf(a);
        assert_eq!(p.alloc(4).unwrap(), a);
        assert_eq!(p.available(), Some(0));
    }

    #[test]
    fn spill_counts_allocations_past_the_budget() {
        // Budget of one buffer's worth of lines; second+ live alloc spills.
        let mut p = BufPool::new(PoolMode::Dram, Addr::new(0), 2048, 32, 32);
        p.alloc(0).unwrap();
        assert_eq!(p.stats().spilled, 0);
        p.alloc(1).unwrap();
        p.alloc(2).unwrap();
        assert_eq!(p.stats().spilled, 2);
        p.free_n(2);
        p.alloc(3).unwrap();
        assert_eq!(p.stats().spilled, 3);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut p = recycle(2, 64);
        let a = p.alloc(0).unwrap();
        p.free_buf(a);
        p.free_buf(a);
    }

    #[test]
    #[should_panic(expected = "stride-aligned")]
    fn misaligned_free_panics() {
        let mut p = recycle(2, 64);
        p.alloc(0).unwrap();
        p.free_buf(Addr::new(0x4000 + 7));
    }

    #[test]
    #[should_panic(expected = "free by buffer address")]
    fn bulk_free_of_recycle_pool_panics() {
        let mut p = recycle(2, 64);
        p.alloc(0).unwrap();
        p.free_n(1);
    }

    #[test]
    fn spec_resolution_sizes_from_budget_and_clamps_to_ring() {
        let spec = PoolSpec::Recycle { slots: None };
        // 256 budget lines / 32 lines per buf = 8 slots.
        assert_eq!(spec.resolve(256, 32, 64), PoolMode::Recycle { slots: 8 });
        // Clamped to the ring size.
        assert_eq!(
            spec.resolve(1 << 20, 32, 16),
            PoolMode::Recycle { slots: 16 }
        );
        // Never zero, even with a budget smaller than one buffer.
        assert_eq!(spec.resolve(1, 32, 64), PoolMode::Recycle { slots: 1 });
        // Explicit slot counts clamp the same way.
        let explicit = PoolSpec::Recycle { slots: Some(1000) };
        assert_eq!(
            explicit.resolve(256, 32, 64),
            PoolMode::Recycle { slots: 64 }
        );
        assert_eq!(PoolSpec::Dram.resolve(256, 32, 64), PoolMode::Dram);
    }

    #[test]
    fn file_names_round_trip_shapes() {
        assert_eq!(PoolSpec::Dram.file_name(), "dram");
        assert_eq!(PoolSpec::Recycle { slots: None }.file_name(), "recycle");
        assert_eq!(
            PoolSpec::Recycle { slots: Some(12) }.file_name(),
            "recycle:12"
        );
        for p in [
            PoolSpec::Dram,
            PoolSpec::Recycle { slots: None },
            PoolSpec::Recycle { slots: Some(1) },
            PoolSpec::Recycle {
                slots: Some(u32::MAX),
            },
        ] {
            assert_eq!(PoolSpec::from_name(&p.file_name()), Ok(p));
        }
        for bad in ["hugepages", "recycle:0", "recycle:-1", "recycle:", "Dram"] {
            assert!(PoolSpec::from_name(bad).is_err(), "{bad}");
        }
    }
}
