//! Set-associative cache arrays with LRU replacement and way masks.
//!
//! [`SetAssocCache`] is the building block for every cache level. It is a
//! pure state machine over cache-line tags — data contents are never
//! modelled, only presence and dirtiness. Allocation can be restricted to a
//! subset of ways via a [`WayMask`], which models both the DDIO way
//! partition and CAT-style way partitioning (the `*_1way` configurations of
//! Fig. 4).

use std::fmt;

use crate::addr::LineAddr;
use crate::replacement;

/// A bitmask selecting a subset of a cache's ways.
///
/// # Examples
///
/// ```
/// use idio_cache::set::WayMask;
///
/// let ddio = WayMask::first(2);
/// assert!(ddio.contains(0) && ddio.contains(1) && !ddio.contains(2));
/// let rest = ddio.complement(11);
/// assert_eq!(rest.count(), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(u64);

impl WayMask {
    /// A mask selecting no ways. Allocation with this mask always fails.
    pub const EMPTY: WayMask = WayMask(0);

    /// Selects all `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds 64.
    pub fn all(ways: usize) -> Self {
        assert!(ways <= 64, "at most 64 ways supported");
        if ways == 64 {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << ways) - 1)
        }
    }

    /// Selects the first `n` ways (ways `0..n`).
    pub fn first(n: usize) -> Self {
        Self::all(n)
    }

    /// Selects ways `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > 64`.
    pub fn range(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi && hi <= 64, "invalid way range");
        WayMask(Self::all(hi).0 & !Self::all(lo).0)
    }

    /// Whether way `w` is selected.
    #[inline]
    pub const fn contains(self, w: usize) -> bool {
        w < 64 && (self.0 >> w) & 1 == 1
    }

    /// Number of selected ways.
    #[inline]
    pub const fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Ways in `0..total` not selected by `self`.
    pub fn complement(self, total: usize) -> WayMask {
        WayMask(WayMask::all(total).0 & !self.0)
    }

    /// Union of two masks.
    #[inline]
    pub const fn union(self, other: WayMask) -> WayMask {
        WayMask(self.0 | other.0)
    }

    /// Whether no ways are selected.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Intersection of two masks.
    #[inline]
    pub const fn intersect(self, other: WayMask) -> WayMask {
        WayMask(self.0 & other.0)
    }

    /// The raw bit pattern (bit `w` set ⇔ way `w` selected).
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// A mask from a raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u64) -> WayMask {
        WayMask(bits)
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ways{:#b}", self.0)
    }
}

/// A resident cache line's metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineEntry {
    /// The resident line address.
    pub line: LineAddr,
    /// Whether the line holds data newer than the next level / DRAM.
    pub dirty: bool,
}

/// A line evicted to make room for an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line.
    pub line: LineAddr,
    /// Whether the evicted line was dirty.
    pub dirty: bool,
    /// The way it was evicted from.
    pub way: usize,
}

/// Iterates the set bit positions of a word, ascending.
pub(crate) struct SetBits(pub(crate) u64);

impl Iterator for SetBits {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let w = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(w)
    }
}

/// A set-associative cache array with per-set LRU replacement.
///
/// Internally the array is flat: one 32-bit set-relative tag per slot
/// (`line / num_sets`; the line is rebuilt as `tag * num_sets + set`)
/// plus per-set `valid`/`dirty` bitmasks, so a lookup is a bit-scan over
/// at most `ways` tag compares with no pointer chasing and no `Option`
/// padding, and an invalid-way search is a single `trailing_zeros`. This
/// is the hottest data structure in the simulator — every DMA line, CPU
/// access and prefetch lands here.
///
/// A line whose tag does not fit 32 bits cannot be cached: inserting it
/// panics, and every lookup reports it absent.
///
/// The planes are allocated on the first [`SetAssocCache::insert`] or
/// [`SetAssocCache::fill_run`]. Until then the cache holds no memory per
/// set, and every read answers as an empty cache does, so a core that
/// never runs costs nothing to build.
///
/// Two caches are equal when every plane matches slot for slot, including
/// the tag an invalid slot last held.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::LineAddr;
/// use idio_cache::set::{SetAssocCache, WayMask};
///
/// // A 4-set, 2-way cache (512 bytes).
/// let mut c = SetAssocCache::new("toy", 4, 2);
/// let mask = WayMask::all(2);
/// assert!(c.insert(LineAddr::new(0), false, mask).0.is_none());
/// assert!(c.contains(LineAddr::new(0)));
/// // Filling the same set twice more evicts the LRU line.
/// c.insert(LineAddr::new(4), false, mask);
/// let (victim, _) = c.insert(LineAddr::new(8), false, mask);
/// assert_eq!(victim.unwrap().line, LineAddr::new(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetAssocCache {
    name: &'static str,
    num_sets: usize,
    ways: usize,
    /// Set-relative tag (`line / num_sets`) per slot; slot index =
    /// `set * ways + way`. Only meaningful where the set's `valid` bit is
    /// on.
    tags: Box<[u32]>,
    /// Per-set validity bitmask (bit `w` = way `w` holds a line). Empty
    /// until the first insert allocates the planes; an empty `valid` is
    /// an empty cache.
    valid: Box<[u64]>,
    /// Per-set dirty bitmask (subset of `valid`).
    dirty: Box<[u64]>,
    /// LRU recency rank per slot (see [`crate::replacement`]).
    ranks: Box<[u8]>,
    resident: usize,
    /// Half-open `[lo, hi)` raw-line ranges whose occupancy is counted
    /// incrementally; see [`SetAssocCache::track_ranges`].
    tracked: Box<[(u64, u64)]>,
    /// Cold plane parallel to `valid`: bit `w` of `tracked_bits[set]` says
    /// whether the line in that slot lies inside a tracked range. The
    /// range membership is computed once at fill time, so evictions and
    /// removals read one bit instead of re-scanning `tracked`. Empty when
    /// nothing is tracked or the planes are not allocated yet.
    tracked_bits: Box<[u64]>,
    tracked_resident: usize,
}

impl SetAssocCache {
    /// Creates a cache with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` or `ways` is zero, or `ways > 64`.
    pub fn new(name: &'static str, num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0, "cache needs at least one set");
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64");
        SetAssocCache {
            name,
            num_sets,
            ways,
            tags: Box::new([]),
            valid: Box::new([]),
            dirty: Box::new([]),
            ranks: Box::new([]),
            resident: 0,
            tracked: Box::new([]),
            tracked_bits: Box::new([]),
            tracked_resident: 0,
        }
    }

    /// Creates a cache from a capacity in bytes (64-byte lines).
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not an exact multiple of `ways * 64`.
    pub fn with_capacity(name: &'static str, bytes: u64, ways: usize) -> Self {
        let lines = bytes / crate::addr::LINE_SIZE;
        assert!(
            bytes.is_multiple_of(crate::addr::LINE_SIZE * ways as u64),
            "capacity {bytes} not divisible into {ways}-way sets"
        );
        Self::new(name, (lines / ways as u64) as usize, ways)
    }

    /// The cache's name (for diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Ways per set.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.num_sets * self.ways
    }

    /// Number of currently resident lines.
    pub fn resident_lines(&self) -> usize {
        self.resident
    }

    /// Whether the planes have been allocated, i.e. whether anything was
    /// ever inserted.
    pub fn is_allocated(&self) -> bool {
        !self.valid.is_empty()
    }

    /// Allocates the tag, valid, dirty and LRU rank planes (and the
    /// tracked-range plane, when ranges are tracked) for the first fill.
    #[cold]
    fn allocate(&mut self) {
        let (sets, ways) = (self.num_sets, self.ways);
        self.tags = vec![0; sets * ways].into_boxed_slice();
        self.valid = vec![0; sets].into_boxed_slice();
        self.dirty = vec![0; sets].into_boxed_slice();
        self.ranks = replacement::ranks(sets, ways);
        if !self.tracked.is_empty() {
            self.tracked_bits = vec![0; sets].into_boxed_slice();
        }
    }

    /// Splits `line` into its set index and set-relative tag; the tag is
    /// `None` when it does not fit 32 bits.
    #[inline]
    fn locate(&self, line: LineAddr) -> (usize, Option<u32>) {
        let n = self.num_sets as u64;
        let l = line.get();
        ((l % n) as usize, u32::try_from(l / n).ok())
    }

    /// The way holding `tag` in set `idx`, if any; `None` in an
    /// unallocated cache. The single-residency invariant (insert
    /// refreshes instead of duplicating) makes the match unique, so scan
    /// order does not matter.
    #[inline]
    fn find_way(&self, idx: usize, tag: u32) -> Option<usize> {
        let base = idx * self.ways;
        SetBits(*self.valid.get(idx)?).find(|&w| self.tags[base + w] == tag)
    }

    /// The `(set, way)` slot holding `line`, if resident. A line whose
    /// tag does not fit 32 bits is never resident.
    #[inline]
    fn lookup(&self, line: LineAddr) -> Option<(usize, usize)> {
        let (idx, tag) = self.locate(line);
        self.find_way(idx, tag?).map(|w| (idx, w))
    }

    /// The line held in slot `(idx, w)`, rebuilt from its tag.
    #[inline]
    fn line_at(&self, idx: usize, w: usize) -> LineAddr {
        let tag = u64::from(self.tags[idx * self.ways + w]);
        LineAddr::new(tag * self.num_sets as u64 + idx as u64)
    }

    #[inline]
    fn entry_at(&self, idx: usize, w: usize) -> LineEntry {
        LineEntry {
            line: self.line_at(idx, w),
            dirty: (self.dirty[idx] >> w) & 1 == 1,
        }
    }

    /// Set `idx`'s slice of the LRU rank plane.
    #[inline]
    fn set_ranks(&mut self, idx: usize) -> &mut [u8] {
        &mut self.ranks[idx * self.ways..(idx + 1) * self.ways]
    }

    /// Whether `line` is resident. Does not touch LRU state.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lookup(line).is_some()
    }

    /// Looks up `line` without updating LRU state.
    pub fn probe(&self, line: LineAddr) -> Option<LineEntry> {
        self.lookup(line).map(|(idx, w)| self.entry_at(idx, w))
    }

    /// Looks up `line`, updating LRU state on hit. Returns the entry.
    pub fn touch(&mut self, line: LineAddr) -> Option<LineEntry> {
        let (idx, w) = self.lookup(line)?;
        replacement::promote(self.set_ranks(idx), w);
        Some(self.entry_at(idx, w))
    }

    /// Marks `line` dirty if resident; returns whether it was resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        match self.lookup(line) {
            Some((idx, w)) => {
                self.dirty[idx] |= 1 << w;
                true
            }
            None => false,
        }
    }

    /// Removes `line` if resident, returning its entry. No writeback is
    /// implied — the caller decides what to do with a dirty victim.
    pub fn remove(&mut self, line: LineAddr) -> Option<LineEntry> {
        let (idx, w) = self.lookup(line)?;
        let entry = self.entry_at(idx, w);
        self.valid[idx] &= !(1 << w);
        self.dirty[idx] &= !(1 << w);
        self.resident -= 1;
        self.untrack_slot(idx, w);
        Some(entry)
    }

    /// Allocates `line` into a way permitted by `mask`, evicting the LRU
    /// permitted line if the permitted ways are full.
    ///
    /// Returns `(victim, way)`: the evicted line (if any) and the way the
    /// new line was placed in. If `line` is already resident (in any way),
    /// the existing entry is refreshed instead: its LRU stamp is updated,
    /// `dirty` is OR-ed in, and no eviction occurs.
    ///
    /// # Panics
    ///
    /// Panics if `mask` selects no way below `self.ways()`, or if `line`'s
    /// set-relative tag does not fit 32 bits.
    pub fn insert(
        &mut self,
        line: LineAddr,
        dirty: bool,
        mask: WayMask,
    ) -> (Option<Victim>, usize) {
        let (idx, tag) = self.locate(line);
        let Some(tag) = tag else {
            panic!(
                "{}: line {} does not fit a 32-bit tag with {} sets",
                self.name,
                line.get(),
                self.num_sets
            );
        };
        if !self.is_allocated() {
            self.allocate();
        }

        // Refresh if already resident (any way, even outside the mask:
        // an in-place update does not migrate ways).
        if let Some(w) = self.find_way(idx, tag) {
            self.dirty[idx] |= u64::from(dirty) << w;
            replacement::promote(self.set_ranks(idx), w);
            return (None, w);
        }

        // Prefer the lowest invalid permitted way.
        let ways_bits = WayMask::all(self.ways).0;
        let free = !self.valid[idx] & mask.0 & ways_bits;
        if free != 0 {
            let w = free.trailing_zeros() as usize;
            self.fill_slot(idx, w, tag, dirty);
            replacement::promote(self.set_ranks(idx), w);
            self.resident += 1;
            self.track_slot(idx, w, line);
            return (None, w);
        }

        // Evict the least recent permitted line.
        assert!(
            mask.0 & ways_bits != 0,
            "{}: way mask {mask} selects no way",
            self.name
        );
        let victim_way = replacement::victim(self.set_ranks(idx), mask);
        let old = self.entry_at(idx, victim_way);
        self.untrack_slot(idx, victim_way);
        self.fill_slot(idx, victim_way, tag, dirty);
        replacement::promote(self.set_ranks(idx), victim_way);
        self.track_slot(idx, victim_way, line);
        (
            Some(Victim {
                line: old.line,
                dirty: old.dirty,
                way: victim_way,
            }),
            victim_way,
        )
    }

    /// Fills a never-filled cache with the consecutive lines
    /// `[first, first + len)`, leaving exactly the state that inserting
    /// them one by one in line order, each with `dirty` through `mask`,
    /// leaves, but in one pass over the sets instead of one insert per
    /// line.
    ///
    /// Every line is new, so a set fills its `k` permitted ways lowest
    /// first and then evicts them round-robin: its arrival `r` lands in
    /// its `(r mod k)`-th permitted way, and only the last `k` arrivals
    /// stay. Those rank by recency; the other ways keep their initial
    /// order behind them. An empty run allocates nothing, as no insert
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if the cache was ever filled, if `mask` selects no way
    /// below `self.ways()`, or if the last line's set-relative tag does
    /// not fit 32 bits.
    pub fn fill_run(&mut self, first: LineAddr, len: u64, dirty: bool, mask: WayMask) {
        if len == 0 {
            return;
        }
        assert!(
            !self.is_allocated(),
            "{}: fill_run needs a cache that was never filled",
            self.name
        );
        let permitted: Vec<usize> = SetBits(mask.0 & WayMask::all(self.ways).0).collect();
        assert!(
            !permitted.is_empty(),
            "{}: way mask {mask} selects no way",
            self.name
        );
        let last = first.offset(len - 1);
        assert!(
            self.locate(last).1.is_some(),
            "{}: line {} does not fit a 32-bit tag with {} sets",
            self.name,
            last.get(),
            self.num_sets
        );
        self.allocate();
        let (sets, ways, k) = (self.num_sets as u64, self.ways, permitted.len() as u64);
        // The j-th set the run reaches gets the lines `first + j + r * sets`.
        for j in 0..len.min(sets) {
            let head = first.get() + j;
            let idx = (head % sets) as usize;
            let arrivals = (len - j).div_ceil(sets);
            let mut touched = 0u64;
            for r in arrivals.saturating_sub(k)..arrivals {
                let w = permitted[(r % k) as usize];
                let line = head + r * sets;
                self.tags[idx * ways + w] = (line / sets) as u32;
                self.ranks[idx * ways + w] = (arrivals - 1 - r) as u8;
                touched |= 1 << w;
                self.track_slot(idx, w, LineAddr::new(line));
            }
            replacement::rank_untouched(self.set_ranks(idx), touched);
            self.valid[idx] = touched;
            self.dirty[idx] = if dirty { touched } else { 0 };
            self.resident += touched.count_ones() as usize;
        }
    }

    #[inline]
    fn fill_slot(&mut self, idx: usize, w: usize, tag: u32, dirty: bool) {
        self.tags[idx * self.ways + w] = tag;
        self.valid[idx] |= 1 << w;
        self.dirty[idx] = (self.dirty[idx] & !(1 << w)) | (u64::from(dirty) << w);
    }

    /// The way `line` currently occupies, if resident.
    pub fn way_of(&self, line: LineAddr) -> Option<usize> {
        self.lookup(line).map(|(_, w)| w)
    }

    /// Iterates over all resident lines (set-major order).
    pub fn iter(&self) -> impl Iterator<Item = LineEntry> + '_ {
        self.valid
            .iter()
            .enumerate()
            .flat_map(move |(idx, &bits)| SetBits(bits).map(move |w| self.entry_at(idx, w)))
    }

    /// Removes every resident line, returning the dirty ones.
    pub fn drain_dirty(&mut self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for idx in 0..self.valid.len() {
            for w in SetBits(self.valid[idx] & self.dirty[idx]) {
                out.push(self.line_at(idx, w));
            }
            self.resident -= self.valid[idx].count_ones() as usize;
            self.valid[idx] = 0;
            self.dirty[idx] = 0;
        }
        self.tracked_bits.fill(0);
        self.tracked_resident = 0;
        out
    }

    /// Declares the half-open `[lo, hi)` raw-line ranges whose combined
    /// residency [`SetAssocCache::tracked_resident`] reports. The count
    /// is maintained incrementally on insert/evict/remove, replacing the
    /// full-array occupancy scans the telemetry sampler used to do.
    /// Replaces any previous ranges; the counter is recomputed from the
    /// current contents.
    pub fn track_ranges(&mut self, ranges: &[(u64, u64)]) {
        self.tracked = ranges.to_vec().into_boxed_slice();
        self.tracked_bits = vec![0; self.valid.len()].into_boxed_slice();
        self.tracked_resident = 0;
        for idx in 0..self.valid.len() {
            for w in SetBits(self.valid[idx]) {
                let l = self.line_at(idx, w).get();
                if ranges.iter().any(|&(lo, hi)| l >= lo && l < hi) {
                    self.tracked_bits[idx] |= 1 << w;
                    self.tracked_resident += 1;
                }
            }
        }
    }

    /// Number of resident lines inside the tracked ranges. Zero when no
    /// ranges are tracked.
    #[inline]
    pub fn tracked_resident(&self) -> usize {
        self.tracked_resident
    }

    #[inline]
    fn in_tracked(&self, line: LineAddr) -> bool {
        let l = line.get();
        self.tracked.iter().any(|&(lo, hi)| l >= lo && l < hi)
    }

    /// Records the tracked-range membership of the line just filled into
    /// `(idx, w)`. The range scan happens here, once per fill; the
    /// membership bit makes the eventual eviction or removal O(1).
    #[inline]
    fn track_slot(&mut self, idx: usize, w: usize, line: LineAddr) {
        if self.tracked.is_empty() {
            return;
        }
        if self.in_tracked(line) {
            self.tracked_bits[idx] |= 1 << w;
            self.tracked_resident += 1;
        } else {
            self.tracked_bits[idx] &= !(1 << w);
        }
    }

    /// Clears the tracked bit of slot `(idx, w)` on eviction/removal,
    /// decrementing the occupancy counter if the departing line was in a
    /// tracked range.
    #[inline]
    fn untrack_slot(&mut self, idx: usize, w: usize) {
        if self.tracked.is_empty() {
            return;
        }
        if self.tracked_bits[idx] & (1 << w) != 0 {
            self.tracked_bits[idx] &= !(1 << w);
            self.tracked_resident -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn with_capacity_geometry() {
        // 1 MiB 8-way: 2048 sets.
        let c = SetAssocCache::with_capacity("mlc", 1 << 20, 8);
        assert_eq!(c.num_sets(), 2048);
        assert_eq!(c.capacity_lines(), 16384);
        // 3 MiB 12-way LLC: 4096 sets.
        let l = SetAssocCache::with_capacity("llc", 3 << 20, 12);
        assert_eq!(l.num_sets(), 4096);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn with_capacity_rejects_ragged() {
        let _ = SetAssocCache::with_capacity("bad", 1000, 3);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = SetAssocCache::new("t", 1, 3);
        let m = WayMask::all(3);
        c.insert(line(1), false, m);
        c.insert(line(2), false, m);
        c.insert(line(3), false, m);
        // Touch line 1 so line 2 becomes LRU.
        c.touch(line(1));
        let (v, _) = c.insert(line(4), false, m);
        assert_eq!(v.unwrap().line, line(2));
    }

    #[test]
    fn insert_refreshes_existing_without_eviction() {
        let mut c = SetAssocCache::new("t", 1, 2);
        let m = WayMask::all(2);
        c.insert(line(1), false, m);
        c.insert(line(2), false, m);
        let (v, _) = c.insert(line(1), true, m);
        assert!(v.is_none());
        assert!(c.probe(line(1)).unwrap().dirty);
        assert_eq!(c.resident_lines(), 2);
    }

    #[test]
    fn way_mask_restricts_allocation() {
        let mut c = SetAssocCache::new("llc", 1, 4);
        let ddio = WayMask::first(2);
        // Four inserts through a 2-way mask keep only 2 lines.
        for i in 0..4 {
            c.insert(line(i), true, ddio);
        }
        assert_eq!(c.resident_lines(), 2);
        assert!(c.way_of(line(2)).unwrap() < 2);
        assert!(c.way_of(line(3)).unwrap() < 2);
        // The other ways are still free for unmasked inserts.
        let (v, w) = c.insert(line(10), false, WayMask::all(4));
        assert!(v.is_none());
        assert!(w >= 2);
    }

    #[test]
    fn masked_insert_refresh_does_not_migrate_way() {
        let mut c = SetAssocCache::new("llc", 1, 4);
        c.insert(line(1), false, WayMask::range(2, 4));
        let w0 = c.way_of(line(1)).unwrap();
        // Re-inserting through the DDIO mask must refresh in place.
        let (v, w) = c.insert(line(1), true, WayMask::first(2));
        assert!(v.is_none());
        assert_eq!(w, w0);
        assert!(c.probe(line(1)).unwrap().dirty);
    }

    #[test]
    fn remove_returns_dirty_state() {
        let mut c = SetAssocCache::new("t", 2, 2);
        c.insert(line(5), true, WayMask::all(2));
        let e = c.remove(line(5)).unwrap();
        assert!(e.dirty);
        assert!(!c.contains(line(5)));
        assert!(c.remove(line(5)).is_none());
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn mark_dirty_only_if_resident() {
        let mut c = SetAssocCache::new("t", 2, 2);
        assert!(!c.mark_dirty(line(9)));
        c.insert(line(9), false, WayMask::all(2));
        assert!(c.mark_dirty(line(9)));
        assert!(c.probe(line(9)).unwrap().dirty);
    }

    #[test]
    fn victims_report_their_way() {
        let mut c = SetAssocCache::new("t", 1, 2);
        let m = WayMask::all(2);
        c.insert(line(1), false, m);
        c.insert(line(2), false, m);
        let (v, w) = c.insert(line(3), false, m);
        let v = v.unwrap();
        assert_eq!(v.way, w);
        assert_eq!(v.line, line(1));
    }

    #[test]
    fn drain_dirty_reports_only_dirty_lines() {
        let mut c = SetAssocCache::new("t", 4, 2);
        c.insert(line(0), true, WayMask::all(2));
        c.insert(line(1), false, WayMask::all(2));
        c.insert(line(2), true, WayMask::all(2));
        let mut d = c.drain_dirty();
        d.sort();
        assert_eq!(d, vec![line(0), line(2)]);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn way_mask_algebra() {
        let m = WayMask::range(2, 5);
        assert_eq!(m.count(), 3);
        assert!(!m.contains(1) && m.contains(2) && m.contains(4) && !m.contains(5));
        let c = m.complement(6);
        assert_eq!(c.count(), 3);
        assert!(c.contains(0) && c.contains(1) && c.contains(5));
        assert_eq!(m.union(c), WayMask::all(6));
        assert!(WayMask::EMPTY.is_empty());
    }

    #[test]
    #[should_panic(expected = "selects no way")]
    fn empty_mask_insert_panics_when_full() {
        let mut c = SetAssocCache::new("t", 1, 1);
        c.insert(line(0), false, WayMask::all(1));
        c.insert(line(1), false, WayMask::EMPTY);
    }

    #[test]
    fn tracked_resident_follows_inserts_evictions_and_removals() {
        let mut c = SetAssocCache::new("t", 1, 2);
        let m = WayMask::all(2);
        c.insert(line(3), false, m); // in-range before tracking starts
        c.track_ranges(&[(0, 10)]);
        assert_eq!(c.tracked_resident(), 1, "recomputed from current contents");
        c.insert(line(5), false, m); // in range
        assert_eq!(c.tracked_resident(), 2);
        c.insert(line(21), false, m); // out of range, evicts line 3 (LRU)
        assert_eq!(c.tracked_resident(), 1);
        c.insert(line(5), true, m); // refresh: no change
        assert_eq!(c.tracked_resident(), 1);
        c.remove(line(5));
        assert_eq!(c.tracked_resident(), 0);
        c.insert(line(9), false, m);
        c.drain_dirty();
        assert_eq!(c.tracked_resident(), 0);
    }

    #[test]
    fn tracked_resident_matches_full_scan() {
        // The incremental counter must agree with the scan it replaced
        // under a random workload.
        let ranges = [(0u64, 40u64), (100, 140)];
        let mut c = SetAssocCache::new("t", 8, 4);
        c.track_ranges(&ranges);
        let mut state = 0x1D10_CA5Eu64;
        let mut rng = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..2_000 {
            let l = line(rng() % 200);
            match rng() % 4 {
                0 => {
                    c.remove(l);
                }
                1 => {
                    c.touch(l);
                }
                _ => {
                    c.insert(l, rng() % 2 == 0, WayMask::all(4));
                }
            }
            let scan = c
                .iter()
                .filter(|e| {
                    let l = e.line.get();
                    ranges.iter().any(|&(lo, hi)| l >= lo && l < hi)
                })
                .count();
            assert_eq!(c.tracked_resident(), scan);
        }
    }

    #[test]
    fn planes_are_allocated_on_the_first_insert() {
        let mut c = SetAssocCache::new("t", 4, 2);
        assert!(!c.is_allocated());
        assert_eq!((c.num_sets(), c.ways(), c.capacity_lines()), (4, 2, 8));
        assert!(!c.contains(line(1)));
        assert!(c.probe(line(1)).is_none());
        assert!(c.touch(line(1)).is_none());
        assert!(!c.mark_dirty(line(1)));
        assert!(c.remove(line(1)).is_none());
        assert!(c.way_of(line(1)).is_none());
        assert_eq!(c.iter().count(), 0);
        assert!(c.drain_dirty().is_empty());
        assert_eq!(c.resident_lines(), 0);
        c.track_ranges(&[(0, 4)]);
        assert_eq!(c.tracked_resident(), 0);
        assert!(!c.is_allocated(), "reads allocate nothing");

        c.insert(line(2), true, WayMask::all(2));
        assert!(c.is_allocated());
        assert!(c.probe(line(2)).unwrap().dirty);
        assert_eq!(c.tracked_resident(), 1, "earlier ranges count");
    }

    #[test]
    fn fill_run_matches_inserting_the_run_line_by_line() {
        let masks = [
            WayMask::all(3),
            WayMask::from_bits(0b101),
            WayMask::first(1),
        ];
        let runs = [
            (0, 0, true),
            (1, 0, true),
            (5, 1, false),
            (13, 0, true),
            (40, 1, true),
            (41, 2, false),
            (100, 0, true),
        ];
        for (len, mask, dirty) in runs {
            let mut inserted = SetAssocCache::new("t", 5, 3);
            let mut filled = SetAssocCache::new("t", 5, 3);
            inserted.track_ranges(&[(10, 20)]);
            filled.track_ranges(&[(10, 20)]);
            for l in 7..7 + len {
                inserted.insert(line(l), dirty, masks[mask]);
            }
            filled.fill_run(line(7), len, dirty, masks[mask]);
            assert!(filled == inserted, "len {len}, mask {}", masks[mask]);
            assert_eq!(filled.is_allocated(), len > 0);
        }
    }

    #[test]
    #[should_panic(expected = "never filled")]
    fn fill_run_rejects_a_cache_that_was_filled() {
        let mut c = SetAssocCache::new("t", 2, 2);
        c.insert(line(1), false, WayMask::all(2));
        c.remove(line(1));
        c.fill_run(line(4), 3, true, WayMask::all(2));
    }

    #[test]
    fn iter_reports_set_major_order_with_dirtiness() {
        let mut c = SetAssocCache::new("t", 2, 2);
        c.insert(line(1), true, WayMask::all(2)); // set 1
        c.insert(line(2), false, WayMask::all(2)); // set 0
        c.insert(line(3), false, WayMask::all(2)); // set 1
        let all: Vec<(u64, bool)> = c.iter().map(|e| (e.line.get(), e.dirty)).collect();
        assert_eq!(all, vec![(2, false), (1, true), (3, false)]);
    }
}
