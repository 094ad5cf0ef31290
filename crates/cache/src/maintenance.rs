//! Cache-maintenance operations and the `Invalidatable` page protocol.
//!
//! IDIO introduces an invalidate-without-writeback instruction usable from
//! userspace (Sec. V-D). Because such an instruction can expose stale data
//! across processes, the paper guards it with a PTE bit: the kernel marks a
//! page *Invalidatable* only after flushing it to DRAM, and the instruction
//! faults on pages without the bit. This module models the page table, the
//! kernel allocation step, and the checked multi-cacheline invalidate.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use crate::addr::{lines_covering, Addr, CoreId, PageAddr, PAGE_SIZE};
use crate::hierarchy::{Hierarchy, MemEffects};

/// Error returned when a maintenance operation violates page permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotInvalidatableError {
    /// The first offending page.
    pub page: PageAddr,
}

impl fmt::Display for NotInvalidatableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "page {} is not marked Invalidatable; invalidate-without-writeback faulted",
            self.page
        )
    }
}

impl Error for NotInvalidatableError {}

/// The modelled page table: tracks the per-page `Invalidatable` PTE bit.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::Addr;
/// use idio_cache::maintenance::PageTable;
///
/// let mut pt = PageTable::new();
/// assert!(!pt.is_invalidatable(Addr::new(0x5000)));
/// pt.mark_invalidatable(Addr::new(0x5000), 4096);
/// assert!(pt.is_invalidatable(Addr::new(0x5fff)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    invalidatable: HashSet<PageAddr>,
}

impl PageTable {
    /// Creates an empty page table (no page is invalidatable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the `Invalidatable` bit on every page overlapping
    /// `[start, start + len)`.
    pub fn mark_invalidatable(&mut self, start: Addr, len: u64) {
        for page in pages_covering(start, len) {
            self.invalidatable.insert(page);
        }
    }

    /// Clears the `Invalidatable` bit on every page overlapping the range
    /// (e.g. when the kernel reclaims the buffer).
    pub fn clear_invalidatable(&mut self, start: Addr, len: u64) {
        for page in pages_covering(start, len) {
            self.invalidatable.remove(&page);
        }
    }

    /// Whether the page containing `addr` is invalidatable.
    pub fn is_invalidatable(&self, addr: Addr) -> bool {
        self.invalidatable.contains(&addr.page())
    }

    /// Whether every page overlapping `[start, start + len)` is
    /// invalidatable; returns the first offender otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`NotInvalidatableError`] naming the first page without the
    /// PTE bit.
    pub fn check_range(&self, start: Addr, len: u64) -> Result<(), NotInvalidatableError> {
        for page in pages_covering(start, len) {
            if !self.invalidatable.contains(&page) {
                return Err(NotInvalidatableError { page });
            }
        }
        Ok(())
    }

    /// Number of invalidatable pages.
    pub fn invalidatable_pages(&self) -> usize {
        self.invalidatable.len()
    }
}

fn pages_covering(start: Addr, len: u64) -> impl Iterator<Item = PageAddr> {
    let first = start.page().get();
    let last = if len == 0 {
        first
    } else {
        (start.get() + len - 1) >> crate::addr::PAGE_SHIFT
    };
    (first..=last).map(PageAddr::new)
}

/// Kernel-side allocation of an `Invalidatable` buffer: flushes every
/// page overlapping the range to DRAM (so no stale data from a previous
/// owner can be resurrected) and then sets those pages' PTE bits. An empty
/// hierarchy holds no copy to flush, so only the bits are set.
///
/// Returns the DRAM traffic caused by the flush.
pub fn allocate_invalidatable(
    page_table: &mut PageTable,
    hierarchy: &mut Hierarchy,
    start: Addr,
    len: u64,
) -> MemEffects {
    let mut fx = MemEffects::default();
    if !hierarchy.is_empty() {
        for page in pages_covering(start, len) {
            for line in lines_covering(page.base(), PAGE_SIZE) {
                fx.merge(hierarchy.flush_line(line));
            }
        }
    }
    page_table.mark_invalidatable(start, len);
    fx
}

/// The checked multi-cacheline invalidate instruction: drops every line of
/// `[start, start + len)` from `core`'s private caches and the LLC without
/// writeback, after verifying the `Invalidatable` PTE bit on every touched
/// page.
///
/// Returns the number of lines that actually held a dropped copy.
///
/// # Errors
///
/// Returns [`NotInvalidatableError`] — modelling the hardware fault — if
/// any page in the range lacks the PTE bit. No line is invalidated in that
/// case.
pub fn invalidate_range(
    hierarchy: &mut Hierarchy,
    page_table: &PageTable,
    core: CoreId,
    start: Addr,
    len: u64,
) -> Result<u64, NotInvalidatableError> {
    page_table.check_range(start, len)?;
    let mut dropped = 0;
    for line in lines_covering(start, len) {
        let out = hierarchy.self_invalidate(core, line);
        if out.private_dropped || out.llc_dropped {
            dropped += 1;
        }
    }
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HierarchyConfig;
    use crate::hierarchy::DmaPlacement;

    const C0: CoreId = CoreId::new(0);

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::paper_default(2))
    }

    #[test]
    fn mark_and_check_ranges() {
        let mut pt = PageTable::new();
        pt.mark_invalidatable(Addr::new(0x2000), 8192);
        assert!(pt.check_range(Addr::new(0x2000), 8192).is_ok());
        assert!(pt.check_range(Addr::new(0x2000), 8193).is_err());
        assert_eq!(pt.invalidatable_pages(), 2);
        pt.clear_invalidatable(Addr::new(0x2000), 1);
        assert!(!pt.is_invalidatable(Addr::new(0x2000)));
        assert!(pt.is_invalidatable(Addr::new(0x3000)));
    }

    #[test]
    fn unaligned_range_covers_both_pages() {
        let mut pt = PageTable::new();
        pt.mark_invalidatable(Addr::new(0xFFF), 2);
        assert!(pt.is_invalidatable(Addr::new(0x0)));
        assert!(pt.is_invalidatable(Addr::new(0x1000)));
    }

    #[test]
    fn invalidate_range_faults_without_pte_bit() {
        let mut h = hierarchy();
        let pt = PageTable::new();
        h.cpu_write(C0, Addr::new(0x4000).line());
        let err = invalidate_range(&mut h, &pt, C0, Addr::new(0x4000), 64).unwrap_err();
        assert_eq!(err.page, Addr::new(0x4000).page());
        // Nothing was dropped: the line is still cached.
        assert!(h.mlc(C0).contains(Addr::new(0x4000).line()));
    }

    #[test]
    fn invalidate_range_drops_buffer_lines() {
        let mut h = hierarchy();
        let mut pt = PageTable::new();
        let base = Addr::new(0x10000);
        allocate_invalidatable(&mut pt, &mut h, base, 2048);
        // Core touches the whole 2 KiB buffer (32 lines).
        for line in lines_covering(base, 2048) {
            h.cpu_write(C0, line);
        }
        let dropped =
            invalidate_range(&mut h, &pt, C0, base, 2048).expect("range is invalidatable");
        assert_eq!(dropped, 32);
        // No writebacks to DRAM happened for the dropped dirty lines.
        assert_eq!(h.stats().shared.dram_writes.get(), 0);
        h.check_invariants();
    }

    #[test]
    fn allocation_flushes_stale_dirty_data() {
        let mut h = hierarchy();
        let mut pt = PageTable::new();
        let base = Addr::new(0x20000);
        // A previous owner left dirty data behind.
        h.cpu_write(C0, base.line());
        let fx = allocate_invalidatable(&mut pt, &mut h, base, 64);
        assert_eq!(fx.dram_writes, 1);
        assert!(!h.mlc(C0).contains(base.line()));
        assert!(pt.is_invalidatable(base));
    }

    #[test]
    fn allocation_flushes_every_page_it_marks() {
        let mut h = hierarchy();
        let mut pt = PageTable::new();
        let page = Addr::new(0x20000);
        // Stale dirty data at the head of a page the range starts inside.
        h.cpu_write(C0, page.line());
        let fx = allocate_invalidatable(&mut pt, &mut h, Addr::new(0x20040), 64);
        assert!(pt.is_invalidatable(page));
        assert_eq!(fx.dram_writes, 1, "the stale line is written back");
        assert!(!h.mlc(C0).contains(page.line()));
        h.check_invariants();
    }

    #[test]
    fn allocation_on_an_empty_hierarchy_only_marks_pages() {
        let mut h = hierarchy();
        let mut pt = PageTable::new();
        let fx = allocate_invalidatable(&mut pt, &mut h, Addr::new(0x40000), 2 << 20);
        assert_eq!(fx, MemEffects::default());
        assert_eq!(pt.invalidatable_pages(), 512);
        assert!(h.is_empty());
        assert!(!h.llc().is_allocated() && !h.mlc(C0).is_allocated());
        assert_eq!(h.stats().shared.dram_writes.get(), 0);
    }

    #[test]
    fn llc_scope_drops_llc_copies_in_range() {
        let mut h = hierarchy();
        let mut pt = PageTable::new();
        let base = Addr::new(0x30000);
        pt.mark_invalidatable(base, 4096);
        h.pcie_write(base.line(), DmaPlacement::Llc);
        let dropped = invalidate_range(&mut h, &pt, C0, base, 64).unwrap();
        assert_eq!(dropped, 1);
        assert!(!h.llc().contains(base.line()));
    }

    #[test]
    fn error_message_names_page() {
        let err = NotInvalidatableError {
            page: PageAddr::new(5),
        };
        let msg = err.to_string();
        assert!(msg.contains("P0x5"));
        assert!(msg.contains("Invalidatable"));
    }
}
