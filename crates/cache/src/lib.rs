//! # idio-cache
//!
//! The cache substrate of the IDIO reproduction: a line-granular model of a
//! Skylake-class **non-inclusive** cache hierarchy with private MLCs (L2), a
//! shared victim LLC with **DDIO ways**, an exact MLC snoop-filter
//! directory, and the cache-maintenance extensions IDIO adds
//! (invalidate-without-writeback guarded by an `Invalidatable` PTE bit).
//! Every cache level uses true LRU replacement.
//!
//! The hierarchy is a pure, deterministic state machine: operations report
//! what happened (hit level, victims, DRAM traffic) and the caller — the
//! full-system simulator in `idio-core` — charges timing.
//!
//! # Examples
//!
//! The DMA-bloating effect from Sec. III, observation 3 — a consumed DMA
//! buffer's MLC victim lands in a *non-DDIO* LLC way:
//!
//! ```
//! use idio_cache::addr::{CoreId, LineAddr};
//! use idio_cache::config::HierarchyConfig;
//! use idio_cache::hierarchy::{DmaPlacement, Hierarchy};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::paper_default(1));
//! let core = CoreId::new(0);
//!
//! // NIC delivers a line; core consumes it (line moves to the MLC).
//! h.pcie_write(LineAddr::new(0), DmaPlacement::Llc);
//! h.cpu_read(core, LineAddr::new(0));
//!
//! // New packets keep the DDIO ways of that LLC set occupied.
//! let llc_sets = h.llc().num_sets() as u64;
//! h.pcie_write(LineAddr::new(llc_sets), DmaPlacement::Llc);
//! h.pcie_write(LineAddr::new(2 * llc_sets), DmaPlacement::Llc);
//!
//! // Thrash the MLC set until the consumed line is evicted back to LLC.
//! let mlc_sets = h.mlc(core).num_sets() as u64;
//! for i in (1..=15u64).step_by(2) {
//!     h.cpu_read(core, LineAddr::new(i * mlc_sets));
//! }
//! let way = h.llc().way_of(LineAddr::new(0)).expect("victim in LLC");
//! assert!(way >= 2, "bloated outside the 2 DDIO ways");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod directory;
pub mod hierarchy;
pub mod maintenance;
pub mod replacement;
pub mod set;
pub mod stats;

pub use addr::{Addr, CoreId, LineAddr, PageAddr, LINE_SIZE, PAGE_SIZE};
pub use config::{CacheGeometry, HierarchyConfig};
pub use hierarchy::{
    CpuAccess, DmaPlacement, Hierarchy, HitLevel, InvalidateOutcome, MemEffects, PcieRead,
    PcieReadSource, PcieWrite, PcieWriteKind, PrefetchOutcome,
};
pub use maintenance::{allocate_invalidatable, invalidate_range, NotInvalidatableError, PageTable};
pub use set::{SetAssocCache, Victim, WayMask};
pub use stats::{CoreCacheStats, HierarchyStats, SharedCacheStats};
