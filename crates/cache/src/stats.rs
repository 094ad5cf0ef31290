//! Typed event counters for the cache hierarchy.
//!
//! These counters are the raw material for every figure in the paper's
//! evaluation: MLC writeback rates (Figs. 4, 5, 9, 11, 13), LLC writeback
//! rates, DRAM read/write transactions (Fig. 10), invalidation rates, and
//! the prefetcher effectiveness counters used in ablations.

use idio_engine::stats::Counter;

use crate::addr::CoreId;

/// Per-core private-cache counters.
///
/// All fields are plain counters over cache-line transactions; this is a
/// passive data structure with public fields by design.
#[derive(Debug, Clone, Default)]
pub struct CoreCacheStats {
    /// L1D hits.
    pub l1_hits: Counter,
    /// MLC hits (L1 misses that hit in the MLC).
    pub mlc_hits: Counter,
    /// MLC misses (demand requests forwarded to the LLC).
    pub mlc_misses: Counter,
    /// Demand LLC hits attributed to this core (the shared
    /// [`SharedCacheStats::llc_hits`] counter cannot say *whose* miss hit).
    pub llc_hits: Counter,
    /// Demand LLC misses attributed to this core (requests that went all
    /// the way to DRAM).
    pub llc_misses: Counter,
    /// Lines evicted from the MLC into the LLC. In the non-inclusive
    /// hierarchy every MLC eviction transfers the line to the LLC, so this
    /// counts *all* MLC victims ("MLC writebacks" in the paper's figures).
    pub mlc_wb: Counter,
    /// The subset of [`CoreCacheStats::mlc_wb`] whose line was dirty.
    pub mlc_wb_dirty: Counter,
    /// MLC lines invalidated by an inbound PCIe write (NIC reusing a DMA
    /// buffer that was still core-resident).
    pub mlc_inval_by_dma: Counter,
    /// MLC lines moved back to the LLC by an outbound PCIe read (TX path).
    pub mlc_wb_by_pcie_rd: Counter,
    /// Lines dropped by the self-invalidate instruction (no writeback).
    pub self_invalidations: Counter,
    /// Prefetch hints accepted into the MLC prefetch queue.
    pub prefetch_hints: Counter,
    /// Prefetches that moved a line LLC → MLC.
    pub prefetch_fills: Counter,
    /// Prefetches dropped because the line was no longer in the LLC.
    pub prefetch_misses: Counter,
    /// Prefetch hints dropped because the queue was full.
    pub prefetch_queue_drops: Counter,
    /// Lines transferred directly from another core's MLC.
    pub c2c_transfers: Counter,
}

/// Shared LLC and DMA-path counters.
#[derive(Debug, Clone, Default)]
pub struct SharedCacheStats {
    /// Demand (CPU-side) LLC hits.
    pub llc_hits: Counter,
    /// Demand (CPU-side) LLC misses.
    pub llc_misses: Counter,
    /// Dirty LLC victims written back to DRAM ("LLC writebacks").
    pub llc_wb: Counter,
    /// Clean LLC victims silently dropped.
    pub llc_evict_clean: Counter,
    /// PCIe writes that write-allocated a line into the DDIO ways.
    pub ddio_allocs: Counter,
    /// PCIe writes that updated a line already resident in the LLC.
    pub ddio_updates: Counter,
    /// Victims evicted out of a DDIO way by a DDIO allocation (the "DMA
    /// leak" when dirty).
    pub ddio_evictions: Counter,
    /// PCIe writes steered directly to DRAM (IDIO selective direct DRAM
    /// access, or systems with DCA disabled).
    pub dma_direct_dram: Counter,
    /// PCIe reads served from the LLC.
    pub pcie_rd_llc_hits: Counter,
    /// PCIe reads that had to fetch from DRAM.
    pub pcie_rd_dram: Counter,
    /// Total inbound PCIe write transactions observed.
    pub pcie_writes: Counter,
    /// Total outbound PCIe read transactions observed.
    pub pcie_reads: Counter,
    /// DRAM line reads issued by the hierarchy (demand + PCIe).
    pub dram_reads: Counter,
    /// DRAM line writes issued by the hierarchy (LLC WBs + direct DMA).
    pub dram_writes: Counter,
    /// Lines whose LLC copy was dropped by a self-invalidation.
    pub llc_self_invalidations: Counter,
}

/// Complete hierarchy statistics: one [`CoreCacheStats`] per core plus the
/// shared counters.
#[derive(Debug, Clone, Default)]
pub struct HierarchyStats {
    /// Per-core private-cache counters, indexed by core id.
    pub core: Vec<CoreCacheStats>,
    /// Shared LLC/DMA counters.
    pub shared: SharedCacheStats,
}

impl HierarchyStats {
    /// Creates zeroed statistics for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        HierarchyStats {
            core: vec![CoreCacheStats::default(); num_cores],
            shared: SharedCacheStats::default(),
        }
    }

    /// Per-core counters for `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: CoreId) -> &CoreCacheStats {
        &self.core[core.index()]
    }

    /// Total MLC writebacks across all cores.
    pub fn total_mlc_wb(&self) -> u64 {
        self.core.iter().map(|c| c.mlc_wb.get()).sum()
    }

    /// Total MLC invalidations by DMA across all cores.
    pub fn total_mlc_inval_by_dma(&self) -> u64 {
        self.core.iter().map(|c| c.mlc_inval_by_dma.get()).sum()
    }

    /// Total self-invalidations across all cores.
    pub fn total_self_invalidations(&self) -> u64 {
        self.core.iter().map(|c| c.self_invalidations.get()).sum()
    }

    /// Total prefetch fills across all cores.
    pub fn total_prefetch_fills(&self) -> u64 {
        self.core.iter().map(|c| c.prefetch_fills.get()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_across_cores() {
        let mut s = HierarchyStats::new(3);
        s.core[0].mlc_wb.add(5);
        s.core[2].mlc_wb.add(7);
        s.core[1].mlc_inval_by_dma.add(2);
        assert_eq!(s.total_mlc_wb(), 12);
        assert_eq!(s.total_mlc_inval_by_dma(), 2);
        assert_eq!(s.core(CoreId::new(0)).mlc_wb.get(), 5);
    }

    #[test]
    fn default_is_zeroed() {
        let s = HierarchyStats::new(2);
        assert_eq!(s.total_mlc_wb(), 0);
        assert_eq!(s.shared.llc_wb.get(), 0);
    }
}
