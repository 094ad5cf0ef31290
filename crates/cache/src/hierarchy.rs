//! The non-inclusive MLC + LLC hierarchy state machine.
//!
//! This module encodes the data-movement semantics of Figs. 1 and 2 of the
//! paper at cache-line granularity:
//!
//! * **PCIe writes** (RX DMA) invalidate any MLC-resident copy, update an
//!   LLC-resident copy in place, and otherwise write-allocate into the DDIO
//!   ways. A dirty victim pushed out of the DDIO ways goes to DRAM — the
//!   *DMA leak*.
//! * **CPU demand fills** move an LLC-resident line into the requesting
//!   core's MLC (the LLC copy is relinquished; its tag lives on in the MLC
//!   directory) — the hierarchy is exclusive between MLC and LLC data ways.
//! * **MLC victims** are installed into the LLC through the *core* way mask
//!   (all ways by default), so consumed DMA buffers spread beyond the DDIO
//!   partition — the *DMA bloating* effect.
//! * **PCIe reads** (TX DMA) pull MLC-resident lines back into the LLC
//!   before serving the device.
//! * The **self-invalidate** maintenance operation drops dead buffer lines
//!   from the issuing core's private caches and the LLC without any
//!   writeback (IDIO mechanism 1).
//! * **Prefetch fills** move a line LLC → MLC on behalf of the IDIO
//!   controller's hints (IDIO mechanism 2).
//! * **Direct-DRAM placement** bypasses the hierarchy for class-1 payloads
//!   (IDIO mechanism 3).

use crate::addr::{CoreId, LineAddr};
use crate::config::HierarchyConfig;
use crate::directory::MlcDirectory;
use crate::set::{SetAssocCache, WayMask};
use crate::stats::HierarchyStats;

/// Where a CPU demand access was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Served by the core's L1 data cache.
    L1,
    /// Served by the core's private MLC.
    Mlc,
    /// Served by the shared LLC (line migrates into the MLC).
    Llc,
    /// Served by another core's MLC via a cache-to-cache transfer.
    RemoteMlc,
    /// Served from DRAM.
    Dram,
}

/// DRAM traffic generated as a side effect of one hierarchy operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemEffects {
    /// Number of DRAM line reads triggered (0 or 1).
    pub dram_reads: u32,
    /// Number of DRAM line writes triggered (victim writebacks or direct
    /// DMA stores).
    pub dram_writes: u32,
}

impl MemEffects {
    /// Merges another effect set into this one.
    pub fn merge(&mut self, other: MemEffects) {
        self.dram_reads += other.dram_reads;
        self.dram_writes += other.dram_writes;
    }
}

/// Result of a CPU demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuAccess {
    /// Level that served the access.
    pub level: HitLevel,
    /// DRAM traffic triggered.
    pub effects: MemEffects,
}

/// Steering decision for an inbound PCIe (DMA) write, as made by the IDIO
/// controller (or fixed to `Llc` under baseline DDIO).
///
/// MLC steering is expressed as an LLC placement plus a prefetch hint issued
/// by the controller — matching the paper's queued-prefetcher design — so it
/// does not appear here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaPlacement {
    /// Write-allocate/update in the LLC (classic DDIO).
    Llc,
    /// Bypass the hierarchy and write DRAM directly (IDIO selective direct
    /// DRAM access, class-1 payloads).
    Dram,
}

/// What an inbound PCIe write did in the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcieWriteKind {
    /// Updated a line already resident in the LLC (any way).
    LlcUpdate,
    /// Write-allocated a new line into the DDIO ways.
    LlcAlloc,
    /// Went straight to DRAM.
    DirectDram,
}

/// Result of an inbound PCIe write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcieWrite {
    /// How the write was placed.
    pub kind: PcieWriteKind,
    /// Core whose MLC copy was invalidated, if any.
    pub invalidated_core: Option<CoreId>,
    /// DRAM traffic triggered.
    pub effects: MemEffects,
}

/// Where an outbound PCIe read was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcieReadSource {
    /// The line was pulled out of a core's MLC (written back to the LLC
    /// first, per Fig. 1).
    Mlc,
    /// Served directly from the LLC.
    Llc,
    /// Served from DRAM.
    Dram,
}

/// Result of an outbound PCIe read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcieRead {
    /// Where the data came from.
    pub source: PcieReadSource,
    /// DRAM traffic triggered.
    pub effects: MemEffects,
}

/// Result of a self-invalidation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalidateOutcome {
    /// A private (L1/MLC) copy was dropped.
    pub private_dropped: bool,
    /// An LLC copy was dropped.
    pub llc_dropped: bool,
}

/// Result of an IDIO prefetch fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The line was moved from the LLC into the core's MLC.
    Filled(MemEffects),
    /// The line was already in the core's private caches; nothing to do.
    AlreadyPrivate,
    /// The line was no longer in the LLC; the hint was dropped (prefetches
    /// never escalate to DRAM).
    NotInLlc,
}

#[derive(Debug)]
struct PrivateCaches {
    l1d: SetAssocCache,
    mlc: SetAssocCache,
}

/// The complete modelled cache hierarchy.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::{CoreId, LineAddr};
/// use idio_cache::config::HierarchyConfig;
/// use idio_cache::hierarchy::{DmaPlacement, Hierarchy, HitLevel, PcieWriteKind};
///
/// let mut h = Hierarchy::new(HierarchyConfig::paper_default(2));
/// let line = LineAddr::new(0x100);
///
/// // NIC delivers a packet line: write-allocates into the DDIO ways.
/// let w = h.pcie_write(line, DmaPlacement::Llc);
/// assert_eq!(w.kind, PcieWriteKind::LlcAlloc);
///
/// // The core then reads it: LLC hit, line migrates to the MLC.
/// let r = h.cpu_read(CoreId::new(0), line);
/// assert_eq!(r.level, HitLevel::Llc);
/// assert!(h.mlc(CoreId::new(0)).contains(line));
/// assert!(!h.llc().contains(line));
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    cfg: HierarchyConfig,
    cores: Vec<PrivateCaches>,
    llc: SetAssocCache,
    dir: MlcDirectory,
    stats: HierarchyStats,
    /// Per-core CAT override of the LLC core-fill mask. `None` follows the
    /// shared [`HierarchyConfig::core_mask`] (and therefore tracks IAT
    /// DDIO-way retuning); `Some` pins the core's demand fills and MLC
    /// victims to an explicit way subset.
    cat_mask: Vec<Option<WayMask>>,
}

impl Hierarchy {
    /// Builds the hierarchy from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`HierarchyConfig::validate`]).
    pub fn new(cfg: HierarchyConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid hierarchy config: {e}");
        }
        let cores = (0..cfg.num_cores)
            .map(|i| {
                let mlc_geom = cfg.mlc_for_core(i);
                PrivateCaches {
                    l1d: SetAssocCache::with_capacity("l1d", cfg.l1d.size_bytes, cfg.l1d.ways),
                    mlc: SetAssocCache::with_capacity("mlc", mlc_geom.size_bytes, mlc_geom.ways),
                }
            })
            .collect();
        let llc = SetAssocCache::with_capacity("llc", cfg.llc.size_bytes, cfg.llc.ways);
        let dir = MlcDirectory::new(cfg.num_cores);
        let stats = HierarchyStats::new(cfg.num_cores);
        let cat_mask = vec![None; cfg.num_cores];
        Hierarchy {
            cfg,
            cores,
            llc,
            dir,
            stats,
            cat_mask,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HierarchyStats {
        &self.stats
    }

    /// Zeroes all statistics (e.g. after a cache warm-up phase).
    pub fn reset_stats(&mut self) {
        self.stats = HierarchyStats::new(self.cfg.num_cores);
    }

    /// The shared LLC array (read-only, for inspection and tests).
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }

    /// Declares the raw-line ranges whose LLC occupancy should be counted
    /// incrementally (see [`SetAssocCache::track_ranges`]); telemetry
    /// reads the result via `self.llc().tracked_resident()`.
    pub fn track_llc_ranges(&mut self, ranges: &[(u64, u64)]) {
        self.llc.track_ranges(ranges);
    }

    /// A core's MLC array (read-only).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn mlc(&self, core: CoreId) -> &SetAssocCache {
        &self.cores[core.index()].mlc
    }

    /// A core's L1D array (read-only).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn l1d(&self, core: CoreId) -> &SetAssocCache {
        &self.cores[core.index()].l1d
    }

    /// Whether no cache holds a line. O(1): the LLC is empty and the MLC
    /// directory tracks no line; the directory mirrors every MLC line, and
    /// every L1 line is also in its MLC.
    pub fn is_empty(&self) -> bool {
        self.llc.resident_lines() == 0 && self.dir.is_empty()
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cfg.num_cores
    }

    /// Current number of DDIO ways.
    pub fn ddio_ways(&self) -> usize {
        self.cfg.ddio_ways
    }

    /// Re-partitions the LLC at runtime: the lowest `n` ways become the
    /// DDIO ways (IAT-style dynamic I/O way allocation). Resident lines
    /// stay where they are; only future allocations follow the new masks.
    ///
    /// Has no effect on configurations with an explicit
    /// [`HierarchyConfig::core_alloc_ways`] override.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or leaves no way for core fills.
    pub fn set_ddio_ways(&mut self, n: usize) {
        assert!(
            n >= 1 && n < self.cfg.llc.ways,
            "ddio ways {n} must be in 1..{}",
            self.cfg.llc.ways
        );
        self.cfg.ddio_ways = n;
    }

    /// Pins `core`'s LLC fills (demand misses and MLC victims) to an
    /// explicit way subset — the CAT partition — or clears the pin
    /// (`None`) so the core follows the shared core mask again. Resident
    /// lines stay where they are; only future allocations honour the mask.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range, or if the mask is empty or
    /// selects ways beyond the LLC associativity.
    pub fn set_cat_mask(&mut self, core: CoreId, mask: Option<WayMask>) {
        if let Some(m) = mask {
            assert!(!m.is_empty(), "CAT mask selects no LLC way");
            assert!(
                m.intersect(WayMask::all(self.cfg.llc.ways)) == m,
                "CAT mask {m} exceeds {}-way LLC",
                self.cfg.llc.ways
            );
        }
        self.cat_mask[core.index()] = mask;
    }

    /// The CAT pin active for `core`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn cat_mask(&self, core: CoreId) -> Option<WayMask> {
        self.cat_mask[core.index()]
    }

    // ----- internal fill helpers -------------------------------------------------

    /// The LLC ways `core`'s demand fills and MLC victims allocate
    /// through: its CAT partition if pinned, the shared core mask
    /// otherwise.
    fn llc_fill_mask(&self, core: CoreId) -> WayMask {
        self.cat_mask[core.index()].unwrap_or_else(|| self.cfg.core_mask())
    }

    /// Installs `line` into `core`'s MLC, cascading the victim into the LLC
    /// (an "MLC writeback") and a dirty LLC victim to DRAM (an "LLC
    /// writeback"). Updates the directory.
    fn fill_mlc(&mut self, core: CoreId, line: LineAddr, dirty: bool) -> MemEffects {
        let mut fx = MemEffects::default();
        let ci = core.index();
        let mlc = &mut self.cores[ci].mlc;
        let (victim, _) = mlc.insert(line, dirty, WayMask::all(mlc.ways()));
        self.dir.add(line, core);
        if let Some(v) = victim {
            debug_assert_ne!(v.line, line);
            // Back-invalidate the (inclusive) L1 copy; its dirtiness folds
            // into the victim data.
            let mut victim_dirty = v.dirty;
            if let Some(l1) = self.cores[ci].l1d.remove(v.line) {
                victim_dirty |= l1.dirty;
            }
            self.dir.remove(v.line, core);
            self.stats.core[ci].mlc_wb.inc();
            if victim_dirty {
                self.stats.core[ci].mlc_wb_dirty.inc();
            }
            fx.merge(self.fill_llc(core, v.line, victim_dirty));
        }
        fx
    }

    /// Installs a line into the LLC on behalf of `from` through that
    /// core's allocation mask (its CAT partition if pinned, the shared
    /// core mask otherwise), handling the victim cascade to DRAM.
    fn fill_llc(&mut self, from: CoreId, line: LineAddr, dirty: bool) -> MemEffects {
        let mut fx = MemEffects::default();
        let (victim, _) = self.llc.insert(line, dirty, self.llc_fill_mask(from));
        if let Some(v) = victim {
            if v.dirty {
                self.stats.shared.llc_wb.inc();
                self.stats.shared.dram_writes.inc();
                fx.dram_writes += 1;
            } else {
                self.stats.shared.llc_evict_clean.inc();
            }
        }
        fx
    }

    /// Installs `line` into `core`'s L1D. The line must already be MLC
    /// resident (L1 is inclusive in the MLC).
    fn fill_l1(&mut self, core: CoreId, line: LineAddr) {
        let ci = core.index();
        debug_assert!(
            self.cores[ci].mlc.contains(line),
            "L1 fill breaks inclusion"
        );
        let l1d = &mut self.cores[ci].l1d;
        let (victim, _) = l1d.insert(line, false, WayMask::all(l1d.ways()));
        if let Some(v) = victim {
            if v.dirty {
                // Fold L1 dirtiness back into the MLC copy.
                let present = self.cores[ci].mlc.mark_dirty(v.line);
                debug_assert!(present, "L1 victim not in MLC: inclusion broken");
            }
        }
    }

    /// Removes `line` from `core`'s private caches where the directory
    /// says the line *must* be resident, diagnosing the desync (which op
    /// hit it, which core, which line) instead of panicking with a bare
    /// `expect` deep in the fill path.
    #[inline]
    fn remove_private_held(&mut self, core: CoreId, line: LineAddr, op: &'static str) -> bool {
        match self.remove_private(core, line) {
            Some(dirty) => dirty,
            None => panic!(
                "{op}: directory says {core} holds line {}, but its private \
                 caches do not (directory/cache desync)",
                line.get()
            ),
        }
    }

    /// Removes `line` from `core`'s private caches, returning whether it was
    /// present and whether any copy was dirty.
    fn remove_private(&mut self, core: CoreId, line: LineAddr) -> Option<bool> {
        let ci = core.index();
        let l1 = self.cores[ci].l1d.remove(line);
        let mlc = self.cores[ci].mlc.remove(line);
        if mlc.is_none() {
            debug_assert!(
                l1.is_none(),
                "L1 held a line the MLC did not: inclusion broken"
            );
            return None;
        }
        self.dir.remove(line, core);
        Some(l1.is_some_and(|e| e.dirty) || mlc.is_some_and(|e| e.dirty))
    }

    // ----- CPU demand path -------------------------------------------------------

    /// A CPU demand load of one cache line.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn cpu_read(&mut self, core: CoreId, line: LineAddr) -> CpuAccess {
        self.cpu_access(core, line, false)
    }

    /// A CPU demand store of one cache line (write-allocate; the line is
    /// dirtied in the private caches).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn cpu_write(&mut self, core: CoreId, line: LineAddr) -> CpuAccess {
        self.cpu_access(core, line, true)
    }

    fn cpu_access(&mut self, core: CoreId, line: LineAddr, store: bool) -> CpuAccess {
        let ci = core.index();
        let mut fx = MemEffects::default();

        // L1 hit.
        if self.cores[ci].l1d.touch(line).is_some() {
            self.stats.core[ci].l1_hits.inc();
            if store {
                self.cores[ci].l1d.mark_dirty(line);
            }
            return CpuAccess {
                level: HitLevel::L1,
                effects: fx,
            };
        }

        // MLC hit.
        if self.cores[ci].mlc.touch(line).is_some() {
            self.stats.core[ci].mlc_hits.inc();
            self.fill_l1(core, line);
            if store {
                self.cores[ci].l1d.mark_dirty(line);
                self.cores[ci].mlc.mark_dirty(line);
            }
            return CpuAccess {
                level: HitLevel::Mlc,
                effects: fx,
            };
        }

        self.stats.core[ci].mlc_misses.inc();

        // LLC hit: the line migrates into the MLC (exclusive fill).
        if let Some(entry) = self.llc.remove(line) {
            self.stats.shared.llc_hits.inc();
            self.stats.core[ci].llc_hits.inc();
            fx.merge(self.fill_mlc(core, line, entry.dirty || store));
            self.fill_l1(core, line);
            if store {
                self.cores[ci].l1d.mark_dirty(line);
            }
            return CpuAccess {
                level: HitLevel::Llc,
                effects: fx,
            };
        }

        // Cache-to-cache transfer from another core's MLC.
        if let Some(holder) = self.dir.holder(line) {
            debug_assert_ne!(holder, core, "directory stale: missed own MLC line");
            if holder != core {
                let dirty = self.remove_private_held(holder, line, "cpu_access c2c");
                self.stats.core[ci].c2c_transfers.inc();
                fx.merge(self.fill_mlc(core, line, dirty || store));
                self.fill_l1(core, line);
                if store {
                    self.cores[ci].l1d.mark_dirty(line);
                }
                return CpuAccess {
                    level: HitLevel::RemoteMlc,
                    effects: fx,
                };
            }
        }

        // DRAM fill.
        self.stats.shared.llc_misses.inc();
        self.stats.core[ci].llc_misses.inc();
        self.stats.shared.dram_reads.inc();
        fx.dram_reads += 1;
        fx.merge(self.fill_mlc(core, line, store));
        self.fill_l1(core, line);
        if store {
            self.cores[ci].l1d.mark_dirty(line);
        }
        CpuAccess {
            level: HitLevel::Dram,
            effects: fx,
        }
    }

    /// Warms the caches with `lines` stores by `core` to the consecutive
    /// lines from `first` on, as a co-runner initialising its buffer does
    /// before measurement (Sec. VI). The hierarchy ends exactly as after
    /// that many [`Hierarchy::cpu_write`]s in line order, but is written
    /// in one pass per level instead of one fill cascade per line. No
    /// statistics are counted: a warm-up is followed by
    /// [`Hierarchy::reset_stats`].
    ///
    /// The closed form holds because every level is true LRU, every
    /// stored line is new, and L1 holds fewer lines than the MLC (see
    /// [`HierarchyConfig::validate`]), so each line leaves L1 before the
    /// MLC evicts it and no back-invalidation reorders L1. Every level
    /// then sees its arrivals in line order and evicts them first in,
    /// first out ([`SetAssocCache::fill_run`]):
    /// * L1 and the MLC keep the last lines of the run, all dirty, and
    ///   the directory records the MLC's lines for `core`;
    /// * the MLC evicts line `x` when line `x + mlc_lines` arrives, so
    ///   the LLC receives the run minus its last `mlc_lines` lines, dirty,
    ///   in line order, through `core`'s LLC fill mask.
    ///
    /// Planes are allocated in the order the replay allocates them: the
    /// MLC, then L1, then the LLC on the first MLC victim.
    ///
    /// # Panics
    ///
    /// Panics if a cache holds a line, or if one the run fills was ever
    /// filled.
    pub fn warm_writes(&mut self, core: CoreId, first: LineAddr, lines: u64) {
        assert!(self.is_empty(), "warm_writes needs an empty hierarchy");
        let llc_mask = self.llc_fill_mask(core);
        let pc = &mut self.cores[core.index()];
        let mlc_lines = pc.mlc.capacity_lines() as u64;
        debug_assert!(pc.l1d.capacity_lines() < pc.mlc.capacity_lines());
        pc.mlc
            .fill_run(first, lines, true, WayMask::all(pc.mlc.ways()));
        let kept = lines.min(mlc_lines);
        for i in lines - kept..lines {
            self.dir.add(first.offset(i), core);
        }
        pc.l1d
            .fill_run(first, lines, true, WayMask::all(pc.l1d.ways()));
        self.llc.fill_run(first, lines - kept, true, llc_mask);
    }

    // ----- PCIe / DMA path -------------------------------------------------------

    /// An inbound full-line PCIe write (RX DMA), with the placement decided
    /// by the steering policy.
    pub fn pcie_write(&mut self, line: LineAddr, placement: DmaPlacement) -> PcieWrite {
        self.stats.shared.pcie_writes.inc();
        let mut fx = MemEffects::default();

        // Invalidate any private copies: the NIC overwrites the whole line,
        // so the core-resident data is dead and is dropped without
        // writeback (Fig. 1 steps P1-1 / P2-1).
        let invalidated_core = self.dir.holder(line);
        if let Some(holder) = invalidated_core {
            self.remove_private_held(holder, line, "pcie_write");
            self.stats.core[holder.index()].mlc_inval_by_dma.inc();
        }

        match placement {
            DmaPlacement::Dram => {
                // Selective direct DRAM access: drop any (now dead) LLC copy
                // and store the line in memory.
                self.llc.remove(line);
                self.stats.shared.dma_direct_dram.inc();
                self.stats.shared.dram_writes.inc();
                fx.dram_writes += 1;
                PcieWrite {
                    kind: PcieWriteKind::DirectDram,
                    invalidated_core,
                    effects: fx,
                }
            }
            DmaPlacement::Llc => {
                if self.llc.contains(line) {
                    // In-place update, regardless of which way holds it
                    // (Fig. 1 steps P2-2 / P3-1).
                    let (victim, _) = self.llc.insert(line, true, self.cfg.ddio_mask());
                    debug_assert!(victim.is_none());
                    self.stats.shared.ddio_updates.inc();
                    PcieWrite {
                        kind: PcieWriteKind::LlcUpdate,
                        invalidated_core,
                        effects: fx,
                    }
                } else {
                    // Write-allocate into the DDIO ways (Fig. 1 step P5-1).
                    let (victim, _) = self.llc.insert(line, true, self.cfg.ddio_mask());
                    self.stats.shared.ddio_allocs.inc();
                    if let Some(v) = victim {
                        self.stats.shared.ddio_evictions.inc();
                        if v.dirty {
                            // The DMA leak: RX data pushed to DRAM before
                            // the core ever touched it.
                            self.stats.shared.llc_wb.inc();
                            self.stats.shared.dram_writes.inc();
                            fx.dram_writes += 1;
                        } else {
                            self.stats.shared.llc_evict_clean.inc();
                        }
                    }
                    PcieWrite {
                        kind: PcieWriteKind::LlcAlloc,
                        invalidated_core,
                        effects: fx,
                    }
                }
            }
        }
    }

    /// An outbound PCIe read (TX DMA) of one line.
    pub fn pcie_read(&mut self, line: LineAddr) -> PcieRead {
        self.stats.shared.pcie_reads.inc();
        let mut fx = MemEffects::default();

        // An MLC-resident line is written back to the LLC first, then
        // served (Fig. 1 steps P1-1 / P2-1; Fig. 3 right).
        if let Some(holder) = self.dir.holder(line) {
            let dirty = self.remove_private_held(holder, line, "pcie_read");
            let hi = holder.index();
            self.stats.core[hi].mlc_wb.inc();
            self.stats.core[hi].mlc_wb_by_pcie_rd.inc();
            if dirty {
                self.stats.core[hi].mlc_wb_dirty.inc();
            }
            fx.merge(self.fill_llc(holder, line, dirty));
            return PcieRead {
                source: PcieReadSource::Mlc,
                effects: fx,
            };
        }

        if self.llc.touch(line).is_some() {
            self.stats.shared.pcie_rd_llc_hits.inc();
            return PcieRead {
                source: PcieReadSource::Llc,
                effects: fx,
            };
        }

        self.stats.shared.pcie_rd_dram.inc();
        self.stats.shared.dram_reads.inc();
        fx.dram_reads += 1;
        PcieRead {
            source: PcieReadSource::Dram,
            effects: fx,
        }
    }

    // ----- IDIO mechanisms -------------------------------------------------------

    /// The invalidate-without-writeback maintenance operation (IDIO
    /// mechanism 1). Drops the line from `core`'s private caches and from
    /// the LLC without any writeback. The LLC copy is dead too: a
    /// zero-copy NF's TX path pulls the buffer back into the LLC
    /// (Sec. VII).
    ///
    /// Page-permission checking (the `Invalidatable` PTE bit) is enforced a
    /// level up, in [`crate::maintenance`].
    pub fn self_invalidate(&mut self, core: CoreId, line: LineAddr) -> InvalidateOutcome {
        let mut out = InvalidateOutcome::default();
        if self.remove_private(core, line).is_some() {
            self.stats.core[core.index()].self_invalidations.inc();
            out.private_dropped = true;
        }
        if self.llc.remove(line).is_some() {
            self.stats.shared.llc_self_invalidations.inc();
            out.llc_dropped = true;
        }
        out
    }

    /// An IDIO prefetch fill: moves `line` from the LLC into `core`'s MLC
    /// (IDIO mechanism 2). Never escalates to DRAM on an LLC miss.
    pub fn prefetch_fill(&mut self, core: CoreId, line: LineAddr) -> PrefetchOutcome {
        let ci = core.index();
        if self.cores[ci].mlc.contains(line) {
            return PrefetchOutcome::AlreadyPrivate;
        }
        match self.llc.remove(line) {
            Some(entry) => {
                let fx = self.fill_mlc(core, line, entry.dirty);
                self.stats.core[ci].prefetch_fills.inc();
                PrefetchOutcome::Filled(fx)
            }
            None => {
                self.stats.core[ci].prefetch_misses.inc();
                PrefetchOutcome::NotInLlc
            }
        }
    }

    /// A *deep* prefetch fill used by the CPU-paced prefetcher (Sec. VII
    /// future work): like [`Hierarchy::prefetch_fill`], but on an LLC miss
    /// the line is fetched from DRAM — the regulated prefetcher walks the
    /// ring buffer just ahead of the CPU pointer, so it can recover lines
    /// that already leaked to memory. A line another core's MLC holds is
    /// not in memory either: the hint is dropped (`NotInLlc`), since
    /// prefetches never take a line from another core.
    pub fn prefetch_fill_deep(&mut self, core: CoreId, line: LineAddr) -> PrefetchOutcome {
        let ci = core.index();
        match self.prefetch_fill(core, line) {
            PrefetchOutcome::NotInLlc if !self.dir.is_cached(line) => {
                let mut fx = MemEffects {
                    dram_reads: 1,
                    dram_writes: 0,
                };
                self.stats.shared.dram_reads.inc();
                fx.merge(self.fill_mlc(core, line, false));
                self.stats.core[ci].prefetch_fills.inc();
                PrefetchOutcome::Filled(fx)
            }
            other => other,
        }
    }

    /// Flushes `line` to DRAM and invalidates every cached copy (classic
    /// `clflush` semantics; used when the kernel prepares an `Invalidatable`
    /// buffer).
    pub fn flush_line(&mut self, line: LineAddr) -> MemEffects {
        let mut dirty = false;
        if let Some(holder) = self.dir.holder(line) {
            dirty = self.remove_private_held(holder, line, "flush_line");
        }
        if let Some(e) = self.llc.remove(line) {
            dirty |= e.dirty;
        }
        let mut fx = MemEffects::default();
        if dirty {
            self.stats.shared.dram_writes.inc();
            fx.dram_writes += 1;
        }
        fx
    }

    /// Verifies internal consistency; intended for tests and property
    /// checks.
    ///
    /// Checks:
    /// * L1D contents are a subset of the MLC (inclusion),
    /// * the directory exactly mirrors MLC residency: each MLC line's
    ///   directory holder is that core, so no line is in two MLCs, and
    ///   the directory tracks no line that no MLC holds,
    /// * no line is simultaneously in the LLC and any MLC (exclusivity).
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        let mut mlc_lines = 0;
        for (ci, pc) in self.cores.iter().enumerate() {
            let core = CoreId::new(ci as u16);
            for e in pc.l1d.iter() {
                assert!(
                    pc.mlc.contains(e.line),
                    "{core}: L1 line {} not in MLC (inclusion broken)",
                    e.line
                );
            }
            for e in pc.mlc.iter() {
                let holder = self.dir.holder(e.line);
                assert!(
                    holder == Some(core),
                    "{core}: MLC line {} has directory holder {holder:?} \
                     (single residency broken)",
                    e.line
                );
                assert!(
                    !self.llc.contains(e.line),
                    "{core}: line {} in both MLC and LLC (exclusivity broken)",
                    e.line
                );
            }
            mlc_lines += pc.mlc.resident_lines();
        }
        assert_eq!(
            self.dir.len(),
            mlc_lines,
            "directory tracks lines no MLC holds"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;
    use idio_engine::check::{Cases, Gen};

    fn tiny_config() -> HierarchyConfig {
        // 2 cores; L1 2 sets x 2 ways, MLC 4 sets x 2 ways, LLC 4 sets x 4
        // ways with 2 DDIO ways — small enough to force evictions quickly.
        HierarchyConfig {
            num_cores: 2,
            l1d: CacheGeometry::new(2 * 2 * 64, 2),
            mlc: CacheGeometry::new(4 * 2 * 64, 2),
            mlc_overrides: vec![None; 2],
            llc: CacheGeometry::new(4 * 4 * 64, 4),
            ddio_ways: 2,
            core_alloc_ways: None,
        }
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    const C0: CoreId = CoreId::new(0);
    const C1: CoreId = CoreId::new(1);

    #[test]
    fn cold_read_fills_from_dram() {
        let mut h = Hierarchy::new(tiny_config());
        let a = h.cpu_read(C0, line(1));
        assert_eq!(a.level, HitLevel::Dram);
        assert_eq!(a.effects.dram_reads, 1);
        assert!(h.mlc(C0).contains(line(1)));
        assert!(h.l1d(C0).contains(line(1)));
        assert!(!h.llc().contains(line(1)));
        h.check_invariants();
    }

    #[test]
    fn repeat_read_hits_l1_then_mlc() {
        let mut h = Hierarchy::new(tiny_config());
        h.cpu_read(C0, line(1));
        assert_eq!(h.cpu_read(C0, line(1)).level, HitLevel::L1);
        // Evict from tiny L1 (2 sets: lines 1, 3, 5 map to set 1).
        h.cpu_read(C0, line(3));
        h.cpu_read(C0, line(5));
        assert_eq!(h.cpu_read(C0, line(1)).level, HitLevel::Mlc);
        h.check_invariants();
    }

    #[test]
    fn pcie_write_allocates_in_ddio_ways() {
        let mut h = Hierarchy::new(tiny_config());
        let w = h.pcie_write(line(7), DmaPlacement::Llc);
        assert_eq!(w.kind, PcieWriteKind::LlcAlloc);
        assert!(h.llc().probe(line(7)).unwrap().dirty);
        assert!(
            h.llc().way_of(line(7)).unwrap() < 2,
            "must land in a DDIO way"
        );
    }

    #[test]
    fn dma_leak_on_ddio_way_overflow() {
        let mut h = Hierarchy::new(tiny_config());
        // 3 lines in the same set through 2 DDIO ways: the third evicts a
        // dirty RX line to DRAM.
        h.pcie_write(line(0), DmaPlacement::Llc);
        h.pcie_write(line(4), DmaPlacement::Llc);
        let w = h.pcie_write(line(8), DmaPlacement::Llc);
        assert_eq!(w.effects.dram_writes, 1);
        assert_eq!(h.stats().shared.llc_wb.get(), 1);
        assert_eq!(h.stats().shared.ddio_evictions.get(), 1);
    }

    #[test]
    fn pcie_write_invalidates_mlc_copy_without_writeback() {
        let mut h = Hierarchy::new(tiny_config());
        h.cpu_read(C0, line(9));
        assert!(h.mlc(C0).contains(line(9)));
        let w = h.pcie_write(line(9), DmaPlacement::Llc);
        assert_eq!(w.invalidated_core, Some(C0));
        assert!(!h.mlc(C0).contains(line(9)));
        assert!(!h.l1d(C0).contains(line(9)));
        assert_eq!(h.stats().core(C0).mlc_inval_by_dma.get(), 1);
        // No MLC writeback happened: the data was dropped dead.
        assert_eq!(h.stats().core(C0).mlc_wb.get(), 0);
        h.check_invariants();
    }

    #[test]
    fn llc_hit_migrates_line_to_mlc() {
        let mut h = Hierarchy::new(tiny_config());
        h.pcie_write(line(5), DmaPlacement::Llc);
        let a = h.cpu_read(C1, line(5));
        assert_eq!(a.level, HitLevel::Llc);
        assert!(h.mlc(C1).contains(line(5)));
        assert!(!h.llc().contains(line(5)));
        // Dirtiness travelled with the line.
        assert!(h.mlc(C1).probe(line(5)).unwrap().dirty);
        h.check_invariants();
    }

    #[test]
    fn mlc_victim_bloats_into_non_ddio_ways() {
        let mut h = Hierarchy::new(tiny_config());
        // MLC has 4 sets x 2 ways; lines 0,4,8 collide in MLC set 0 and LLC
        // set 0. Read three colliding lines: the first is evicted to LLC.
        h.cpu_read(C0, line(0));
        h.cpu_read(C0, line(4));
        h.cpu_read(C0, line(8));
        assert_eq!(h.stats().core(C0).mlc_wb.get(), 1);
        assert!(h.llc().contains(line(0)));
        h.check_invariants();
    }

    #[test]
    fn pcie_read_pulls_mlc_line_back_to_llc() {
        let mut h = Hierarchy::new(tiny_config());
        h.cpu_write(C0, line(3));
        let r = h.pcie_read(line(3));
        assert_eq!(r.source, PcieReadSource::Mlc);
        assert!(!h.mlc(C0).contains(line(3)));
        assert!(h.llc().contains(line(3)));
        assert!(h.llc().probe(line(3)).unwrap().dirty);
        assert_eq!(h.stats().core(C0).mlc_wb_by_pcie_rd.get(), 1);
        h.check_invariants();
    }

    #[test]
    fn pcie_read_from_llc_and_dram() {
        let mut h = Hierarchy::new(tiny_config());
        h.pcie_write(line(2), DmaPlacement::Llc);
        assert_eq!(h.pcie_read(line(2)).source, PcieReadSource::Llc);
        let r = h.pcie_read(line(100));
        assert_eq!(r.source, PcieReadSource::Dram);
        assert_eq!(r.effects.dram_reads, 1);
    }

    #[test]
    fn direct_dram_bypasses_hierarchy() {
        let mut h = Hierarchy::new(tiny_config());
        let w = h.pcie_write(line(6), DmaPlacement::Dram);
        assert_eq!(w.kind, PcieWriteKind::DirectDram);
        assert_eq!(w.effects.dram_writes, 1);
        assert!(!h.llc().contains(line(6)));
        assert_eq!(h.stats().shared.dma_direct_dram.get(), 1);
    }

    #[test]
    fn direct_dram_drops_stale_llc_copy() {
        let mut h = Hierarchy::new(tiny_config());
        h.pcie_write(line(6), DmaPlacement::Llc);
        h.pcie_write(line(6), DmaPlacement::Dram);
        assert!(!h.llc().contains(line(6)));
        // Only the direct write reached DRAM; the stale copy was dropped.
        assert_eq!(h.stats().shared.dram_writes.get(), 1);
    }

    #[test]
    fn self_invalidate_drops_without_writeback() {
        let mut h = Hierarchy::new(tiny_config());
        h.cpu_write(C0, line(11));
        let out = h.self_invalidate(C0, line(11));
        assert!(out.private_dropped);
        assert!(!h.mlc(C0).contains(line(11)));
        assert_eq!(h.stats().shared.dram_writes.get(), 0);
        assert_eq!(h.stats().core(C0).self_invalidations.get(), 1);
        h.check_invariants();
    }

    #[test]
    fn self_invalidate_llc_scope() {
        let mut h = Hierarchy::new(tiny_config());
        h.pcie_write(line(12), DmaPlacement::Llc);
        let out = h.self_invalidate(C0, line(12));
        assert!(!out.private_dropped);
        assert!(out.llc_dropped);
        assert!(!h.llc().contains(line(12)));
    }

    #[test]
    fn self_invalidate_absent_line_is_noop() {
        let mut h = Hierarchy::new(tiny_config());
        let out = h.self_invalidate(C0, line(42));
        assert!(!out.private_dropped && !out.llc_dropped);
        assert_eq!(h.stats().core(C0).self_invalidations.get(), 0);
    }

    #[test]
    fn prefetch_fill_moves_llc_line_to_mlc() {
        let mut h = Hierarchy::new(tiny_config());
        h.pcie_write(line(13), DmaPlacement::Llc);
        match h.prefetch_fill(C0, line(13)) {
            PrefetchOutcome::Filled(_) => {}
            other => panic!("expected fill, got {other:?}"),
        }
        assert!(h.mlc(C0).contains(line(13)));
        assert!(!h.llc().contains(line(13)));
        assert_eq!(h.stats().core(C0).prefetch_fills.get(), 1);
        h.check_invariants();
    }

    #[test]
    fn prefetch_fill_misses_do_not_touch_dram() {
        let mut h = Hierarchy::new(tiny_config());
        assert_eq!(h.prefetch_fill(C0, line(50)), PrefetchOutcome::NotInLlc);
        assert_eq!(h.stats().shared.dram_reads.get(), 0);
        assert_eq!(h.stats().core(C0).prefetch_misses.get(), 1);
    }

    #[test]
    fn prefetch_fill_already_private_is_noop() {
        let mut h = Hierarchy::new(tiny_config());
        h.cpu_read(C0, line(3));
        assert_eq!(
            h.prefetch_fill(C0, line(3)),
            PrefetchOutcome::AlreadyPrivate
        );
    }

    #[test]
    fn deep_prefetch_never_copies_a_remote_mlc_line() {
        let mut h = Hierarchy::new(HierarchyConfig::paper_default(2));
        let l = line(0x4242);
        h.cpu_write(C1, l);
        // The line is in no LLC and in no memory that is current: core 1
        // holds the only (dirty) copy, so the hint is dropped.
        assert_eq!(h.prefetch_fill_deep(C0, l), PrefetchOutcome::NotInLlc);
        assert!(!h.mlc(C0).contains(l));
        assert!(h.mlc(C1).probe(l).unwrap().dirty);
        assert_eq!(h.stats().shared.dram_reads.get(), 1, "only core 1's fill");
        assert_eq!(h.stats().core(C0).prefetch_fills.get(), 0);
        h.check_invariants();
        // A line nobody holds is still recovered from DRAM.
        assert!(matches!(
            h.prefetch_fill_deep(C0, line(0x4343)),
            PrefetchOutcome::Filled(_)
        ));
        assert!(h.mlc(C0).contains(line(0x4343)));
        h.check_invariants();
    }

    #[test]
    #[should_panic(expected = "single residency broken")]
    fn second_mlc_copy_fails_the_invariants() {
        let mut h = Hierarchy::new(tiny_config());
        h.cpu_read(C0, line(1));
        // Plant a copy the directory does not know about.
        h.cores[1].mlc.insert(line(1), false, WayMask::all(2));
        h.check_invariants();
    }

    #[test]
    fn c2c_transfer_moves_line_between_cores() {
        let mut h = Hierarchy::new(tiny_config());
        h.cpu_write(C0, line(17));
        let a = h.cpu_read(C1, line(17));
        assert_eq!(a.level, HitLevel::RemoteMlc);
        assert!(!h.mlc(C0).contains(line(17)));
        assert!(h.mlc(C1).contains(line(17)));
        // Dirtiness travelled.
        assert!(h.mlc(C1).probe(line(17)).unwrap().dirty);
        assert_eq!(h.stats().core(C1).c2c_transfers.get(), 1);
        h.check_invariants();
    }

    #[test]
    fn flush_writes_dirty_data_to_dram() {
        let mut h = Hierarchy::new(tiny_config());
        h.cpu_write(C0, line(20));
        let fx = h.flush_line(line(20));
        assert_eq!(fx.dram_writes, 1);
        assert!(!h.mlc(C0).contains(line(20)));
        let fx2 = h.flush_line(line(20));
        assert_eq!(fx2.dram_writes, 0);
        h.check_invariants();
    }

    #[test]
    fn only_touched_cores_allocate_private_planes() {
        let mut h = Hierarchy::new(HierarchyConfig::paper_default(200));
        assert!(h.is_empty());
        assert!(!h.llc().is_allocated());
        let c7 = CoreId::new(7);
        h.cpu_write(c7, line(0x4242));
        h.pcie_write(line(0x100), DmaPlacement::Llc);
        assert!(!h.is_empty());
        assert!(h.llc().is_allocated());
        for c in 0..200 {
            let core = CoreId::new(c);
            let touched = core == c7;
            assert_eq!(h.l1d(core).is_allocated(), touched, "{core} L1D");
            assert_eq!(h.mlc(core).is_allocated(), touched, "{core} MLC");
        }
        let c8 = CoreId::new(8);
        assert!(!h.mlc(c8).contains(line(0x4242)));
        assert_eq!(h.mlc(c8).resident_lines(), 0);
        assert_eq!(h.mlc(c8).iter().count(), 0);
        h.check_invariants();
    }

    #[test]
    fn stats_reset_zeroes_everything() {
        let mut h = Hierarchy::new(tiny_config());
        h.cpu_read(C0, line(1));
        h.pcie_write(line(2), DmaPlacement::Llc);
        h.reset_stats();
        assert_eq!(h.stats().shared.pcie_writes.get(), 0);
        assert_eq!(h.stats().core(C0).l1_hits.get(), 0);
        // State survives the reset.
        assert!(h.mlc(C0).contains(line(1)));
    }

    #[test]
    fn cat_partitioning_confines_core_fills() {
        let mut cfg = tiny_config();
        cfg.core_alloc_ways = Some(WayMask::range(3, 4));
        let mut h = Hierarchy::new(cfg);
        // Force MLC victims: read 3 colliding lines (MLC set 0).
        h.cpu_read(C0, line(0));
        h.cpu_read(C0, line(4));
        h.cpu_read(C0, line(8));
        // Victim must be in way 3 only.
        assert_eq!(h.llc().way_of(line(0)), Some(3));
    }

    #[test]
    fn per_core_cat_mask_partitions_victims() {
        let mut h = Hierarchy::new(tiny_config());
        h.set_cat_mask(C0, Some(WayMask::range(2, 3)));
        h.set_cat_mask(C1, Some(WayMask::range(3, 4)));
        // Each core spills one MLC victim from set 0 (3 colliding lines
        // through a 2-way MLC set); the victims must land in the cores'
        // respective CAT ways, not spread across the shared mask.
        for l in [0u64, 4, 8] {
            h.cpu_read(C0, line(l));
        }
        for l in [16u64, 20, 24] {
            h.cpu_read(C1, line(l));
        }
        assert_eq!(h.llc().way_of(line(0)), Some(2), "C0 pinned to way 2");
        assert_eq!(h.llc().way_of(line(16)), Some(3), "C1 pinned to way 3");
        h.check_invariants();
    }

    #[test]
    fn clearing_cat_mask_restores_shared_core_mask() {
        let mut h = Hierarchy::new(tiny_config());
        h.set_cat_mask(C0, Some(WayMask::range(3, 4)));
        assert_eq!(h.cat_mask(C0), Some(WayMask::range(3, 4)));
        h.set_cat_mask(C0, None);
        assert_eq!(h.cat_mask(C0), None);
        for l in [0u64, 4, 8] {
            h.cpu_read(C0, line(l));
        }
        // Default shared mask is ways 2..4; LRU picks the lowest free way.
        assert_eq!(h.llc().way_of(line(0)), Some(2));
    }

    #[test]
    fn dma_fills_ignore_cat_masks() {
        let mut h = Hierarchy::new(tiny_config());
        h.set_cat_mask(C0, Some(WayMask::range(3, 4)));
        let w = h.pcie_write(line(7), DmaPlacement::Llc);
        assert_eq!(w.kind, PcieWriteKind::LlcAlloc);
        assert!(
            h.llc().way_of(line(7)).unwrap() < 2,
            "DMA keeps the DDIO ways regardless of CAT pins"
        );
    }

    /// The reference [`Hierarchy::warm_writes`] must reproduce: one
    /// `cpu_write` per line, in line order, then zeroed statistics.
    fn replay_writes(h: &mut Hierarchy, core: CoreId, first: LineAddr, lines: u64) {
        for i in 0..lines {
            h.cpu_write(core, first.offset(i));
        }
        h.reset_stats();
    }

    /// Asserts identical tag, valid, dirty and rank planes and resident
    /// counts at every level, identical directory holders and identical
    /// statistics.
    fn assert_same_state(a: &Hierarchy, b: &Hierarchy, ctx: &str) {
        for (ci, (pa, pb)) in a.cores.iter().zip(&b.cores).enumerate() {
            assert!(pa.l1d == pb.l1d, "{ctx}: core {ci}'s L1D differs");
            assert!(pa.mlc == pb.mlc, "{ctx}: core {ci}'s MLC differs");
        }
        assert!(a.llc == b.llc, "{ctx}: the LLC differs");
        assert!(a.dir == b.dir, "{ctx}: the directory differs");
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "{ctx}: statistics differ"
        );
    }

    /// A geometry of `sets` x `ways` lines.
    fn geometry(sets: u64, ways: usize) -> CacheGeometry {
        CacheGeometry::new(sets * ways as u64 * 64, ways)
    }

    /// A random operation on one of `cores` cores and a line below
    /// `span`: its kind, core and line.
    fn random_op(g: &mut Gen, cores: usize, span: u64) -> (u64, CoreId, LineAddr) {
        let core = CoreId::new(g.u16(0..cores as u16));
        (g.u64(0..9), core, line(g.u64(0..span)))
    }

    /// Applies an operation of [`random_op`], returning its outcome.
    fn apply_op(h: &mut Hierarchy, (kind, core, l): (u64, CoreId, LineAddr)) -> String {
        match kind {
            0 => format!("{:?}", h.cpu_read(core, l)),
            1 => format!("{:?}", h.cpu_write(core, l)),
            2 => format!("{:?}", h.pcie_write(l, DmaPlacement::Llc)),
            3 => format!("{:?}", h.pcie_write(l, DmaPlacement::Dram)),
            4 => format!("{:?}", h.pcie_read(l)),
            5 => format!("{:?}", h.self_invalidate(core, l)),
            6 => format!("{:?}", h.prefetch_fill(core, l)),
            7 => format!("{:?}", h.prefetch_fill_deep(core, l)),
            _ => format!("{:?}", h.flush_line(l)),
        }
    }

    #[test]
    fn warm_writes_matches_the_cpu_write_replay() {
        Cases::new(300).run(|g| {
            let cores = g.usize(1..4);
            let (l1_sets, l1_ways) = (g.u64(1..5), g.usize(1..5));
            let l1_lines = l1_sets * l1_ways as u64;
            // An MLC of more lines than L1, as validation demands.
            let mlc = |g: &mut Gen| {
                let ways = g.usize(1..7);
                geometry(l1_lines / ways as u64 + 1 + g.u64(0..4), ways)
            };
            let llc_ways = g.usize(2..9);
            let mut cfg = HierarchyConfig {
                num_cores: cores,
                l1d: geometry(l1_sets, l1_ways),
                mlc: mlc(g),
                mlc_overrides: vec![None; cores],
                llc: geometry(g.u64(1..9), llc_ways),
                ddio_ways: g.usize(1..llc_ways),
                core_alloc_ways: None,
            };
            let core = CoreId::new(g.u16(0..cores as u16));
            if g.bool() {
                cfg.mlc_overrides[core.index()] = Some(mlc(g));
            }
            if g.bool() {
                let ways = g.u64(1..1 << llc_ways);
                cfg.core_alloc_ways = Some(WayMask::from_bits(ways));
            }
            let mut warm = Hierarchy::new(cfg.clone());
            let mut replay = Hierarchy::new(cfg);
            if g.u64(0..4) == 0 {
                let pin = Some(WayMask::from_bits(g.u64(1..1 << llc_ways)));
                warm.set_cat_mask(core, pin);
                replay.set_cat_mask(core, pin);
            }
            let mlc_lines = warm.mlc(core).capacity_lines() as u64;
            let both = mlc_lines + warm.llc().capacity_lines() as u64;
            let lines = match g.u64(0..4) {
                0 => g.u64(0..l1_lines + 1),
                1 => g.u64(l1_lines..mlc_lines + 1),
                2 => g.u64(mlc_lines..both + 1),
                _ => g.u64(both..3 * both + 2),
            };
            let first = line(g.u64(0..1000));
            let ctx = format!("{lines} lines from {first} by {core}");
            warm.warm_writes(core, first, lines);
            replay_writes(&mut replay, core, first, lines);
            assert_same_state(&warm, &replay, &ctx);
            warm.check_invariants();

            let span = first.get() + lines + 64;
            for i in 0..200 {
                let op = random_op(g, cores, span);
                let (a, b) = (apply_op(&mut warm, op), apply_op(&mut replay, op));
                assert_eq!(a, b, "{ctx}: follow-on op {i}, {op:?}");
            }
            assert_same_state(&warm, &replay, &format!("{ctx}, after the follow-on ops"));
            warm.check_invariants();
        });
    }

    #[test]
    fn warm_writes_matches_the_replay_on_the_co_run_geometry() {
        // The co-run cells' hierarchy: the antagonist core's 256 KiB MLC
        // and a 3 MiB buffer, from a line-aligned and an unaligned base.
        let mut cfg = HierarchyConfig::paper_default(3);
        cfg.mlc_overrides[2] = Some(CacheGeometry::new(256 << 10, 8));
        let core = CoreId::new(2);
        for first in [line(0x40_0000), line(0x40_0007)] {
            let mut warm = Hierarchy::new(cfg.clone());
            let mut replay = Hierarchy::new(cfg.clone());
            warm.warm_writes(core, first, 49_152);
            replay_writes(&mut replay, core, first, 49_152);
            assert_same_state(&warm, &replay, &format!("from {first}"));
            warm.check_invariants();
            assert_eq!(warm.llc().resident_lines(), 4096 * 10);
            assert_eq!(warm.dir.len(), 4096);
        }
    }

    #[test]
    #[should_panic(expected = "empty hierarchy")]
    fn warm_writes_rejects_a_hierarchy_that_holds_lines() {
        let mut h = Hierarchy::new(tiny_config());
        h.pcie_write(line(3), DmaPlacement::Llc);
        h.warm_writes(C0, line(8), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn cat_mask_wider_than_llc_rejected() {
        let mut h = Hierarchy::new(tiny_config());
        h.set_cat_mask(C0, Some(WayMask::range(3, 6)));
    }

    #[test]
    #[should_panic(expected = "no LLC way")]
    fn empty_cat_mask_rejected() {
        let mut h = Hierarchy::new(tiny_config());
        h.set_cat_mask(C0, Some(WayMask::EMPTY));
    }
}
