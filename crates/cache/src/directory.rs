//! The MLC snoop-filter directory ("Excl MLC" tags in Fig. 1).
//!
//! The LLC of a non-inclusive Skylake-class hierarchy keeps a directory of
//! cache lines that are valid in some core's MLC, so inbound PCIe writes and
//! cross-core requests can be filtered to the right private cache. We model
//! the directory as exact: it tracks every MLC line and never evicts an
//! entry, since directory-capacity back-invalidations are orthogonal to
//! the mechanisms IDIO adds.

use std::fmt;

use crate::addr::{CoreId, LineAddr};
use crate::set::SetBits;

/// Lines per page: 4,096 consecutive lines (256 KiB of memory), one
/// presence bit and one holder each. A 1514-byte frame's 24 lines share
/// one presence word and 48 bytes of holders, so the DMA, prefetch and
/// read of a packet touch the same few cache lines of the table.
const PAGE_BITS: u32 = 12;
const PAGE_LINES: usize = 1 << PAGE_BITS;

/// Pages per chunk: 4,096, so a chunk spans 2^24 lines (1 GiB of memory)
/// in a 32 KiB table of page pointers.
const CHUNK_BITS: u32 = 12;
const CHUNK_PAGES: usize = 1 << CHUNK_BITS;

/// The tracked lines of one page and their holders.
#[derive(Clone)]
struct Page {
    /// Bit `i % 64` of word `i / 64` is set while line `i` of the page
    /// is tracked.
    present: [u64; PAGE_LINES / 64],
    /// `holder[i]` is the core holding line `i`; meaningless unless its
    /// presence bit is set, so every core id stays usable.
    holder: [CoreId; PAGE_LINES],
}

impl Page {
    const EMPTY: Page = Page {
        present: [0; PAGE_LINES / 64],
        holder: [CoreId::new(0); PAGE_LINES],
    };

    #[inline]
    fn get(&self, i: usize) -> Option<CoreId> {
        (self.present[i / 64] >> (i % 64) & 1 == 1).then_some(self.holder[i])
    }

    fn is_empty(&self) -> bool {
        self.present.iter().all(|&w| w == 0)
    }
}

/// Pages are equal when they track the same lines with the same holders;
/// what an untracked slot still holds does not count.
impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        self.present == other.present
            && self.present.iter().enumerate().all(|(w, &bits)| {
                SetBits(bits).all(|b| self.holder[w * 64 + b] == other.holder[w * 64 + b])
            })
    }
}

/// The page pointers of one chunk, each allocated on the first add to its
/// page.
type Chunk = [Option<Box<Page>>; CHUNK_PAGES];

/// A line's chunk, the page within the chunk and the line within the page.
#[inline]
fn split(line: LineAddr) -> (usize, usize, usize) {
    let l = line.get();
    (
        (l >> (PAGE_BITS + CHUNK_BITS)) as usize,
        (l >> PAGE_BITS) as usize % CHUNK_PAGES,
        l as usize % PAGE_LINES,
    )
}

/// Tracks the one core whose MLC holds each line.
///
/// MLC residency is exclusive: a line lives in at most one core's MLC
/// (cache-to-cache transfers move it, DMA writes invalidate it, and
/// prefetches never take a line from another core). So each line needs
/// a single [`CoreId`], for any core count. A second holder would mean
/// the directory and the caches disagree, and [`MlcDirectory::add`]
/// panics on it.
///
/// The table is indexed by line number, with no hashing: a line's page
/// of 4,096 lines holds a presence bit and a holder per line, and a
/// chunk of 4,096 page pointers spans 2^24 lines. A page and a chunk are
/// allocated on the first add into them and kept until the directory is
/// dropped; the top level is a vector of chunk pointers grown to the
/// highest chunk added. So a lookup is three dependent loads, any line an
/// MLC can hold (a set-relative tag below 2^32: lines below 2^43 for a
/// 2048-set MLC) fits, and the memory is 8 bytes per 2^24 lines below
/// the highest line added, plus 32 KiB per chunk and 8.5 KiB per page
/// ever added to. A lookup of a line no add reached allocates nothing.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::{CoreId, LineAddr};
/// use idio_cache::directory::MlcDirectory;
///
/// let mut dir = MlcDirectory::new(4);
/// dir.add(LineAddr::new(7), CoreId::new(2));
/// assert_eq!(dir.holder(LineAddr::new(7)), Some(CoreId::new(2)));
/// dir.remove(LineAddr::new(7), CoreId::new(2));
/// assert_eq!(dir.holder(LineAddr::new(7)), None);
/// ```
#[derive(Clone)]
pub struct MlcDirectory {
    /// Chunk `c` holds the pages of lines `c * 2^24 .. (c + 1) * 2^24`;
    /// `None` until a line in it is added.
    chunks: Vec<Option<Box<Chunk>>>,
    /// Tracked lines over all pages.
    len: usize,
    num_cores: usize,
}

impl MlcDirectory {
    /// Creates an empty directory for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or exceeds the `u16` core-id space.
    pub fn new(num_cores: usize) -> Self {
        assert!(
            num_cores > 0 && num_cores <= usize::from(u16::MAX) + 1,
            "1..=65536 cores supported"
        );
        MlcDirectory {
            chunks: Vec::new(),
            len: 0,
            num_cores,
        }
    }

    /// The page holding `line`, if any add ever reached it, with the
    /// line's index in it.
    #[inline]
    fn page(&self, line: LineAddr) -> Option<(&Page, usize)> {
        let (c, p, i) = split(line);
        let page = self.chunks.get(c)?.as_deref()?[p].as_deref()?;
        Some((page, i))
    }

    /// Every allocated page with its page number (line number / 4,096).
    fn pages(&self) -> impl Iterator<Item = (usize, &Page)> {
        self.chunks.iter().enumerate().flat_map(|(c, chunk)| {
            chunk.iter().flat_map(move |chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .filter_map(move |(p, page)| Some((c * CHUNK_PAGES + p, page.as_deref()?)))
            })
        })
    }

    /// Records that `core`'s MLC now holds `line`. Re-adding the current
    /// holder changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if another core already holds `line`: MLC residency is
    /// exclusive, so a second holder is a directory/cache desync.
    pub fn add(&mut self, line: LineAddr, core: CoreId) {
        debug_assert!(core.index() < self.num_cores);
        let (c, p, i) = split(line);
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| Box::new([const { None }; CHUNK_PAGES]));
        let page = chunk[p].get_or_insert_with(|| Box::new(Page::EMPTY));
        if let Some(holder) = page.get(i) {
            assert!(
                holder == core,
                "directory add: {holder} already holds line {}, so {core} cannot \
                 hold it too (directory/cache desync)",
                line.get()
            );
            return;
        }
        page.present[i / 64] |= 1 << (i % 64);
        page.holder[i] = core;
        self.len += 1;
    }

    /// Records that `core`'s MLC no longer holds `line`. A no-op unless
    /// `core` is the line's holder.
    pub fn remove(&mut self, line: LineAddr, core: CoreId) {
        let (c, p, i) = split(line);
        let Some(page) = self
            .chunks
            .get_mut(c)
            .and_then(|chunk| chunk.as_deref_mut()?[p].as_deref_mut())
        else {
            return;
        };
        if page.get(i) == Some(core) {
            page.present[i / 64] &= !(1 << (i % 64));
            self.len -= 1;
        }
    }

    /// Whether any MLC holds `line`.
    pub fn is_cached(&self, line: LineAddr) -> bool {
        self.holder(line).is_some()
    }

    /// The core holding `line`, if any.
    #[inline]
    pub fn holder(&self, line: LineAddr) -> Option<CoreId> {
        let (page, i) = self.page(line)?;
        page.get(i)
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Directories are equal when they track the same lines with the same
/// holders, whatever pages each has allocated.
impl PartialEq for MlcDirectory {
    fn eq(&self, other: &MlcDirectory) -> bool {
        // Equal counts and every page of `self` matched leave `other` no
        // line outside those pages.
        self.num_cores == other.num_cores
            && self.len == other.len
            && self.pages().all(|(n, page)| {
                let first = LineAddr::new((n * PAGE_LINES) as u64);
                match other.page(first) {
                    Some((theirs, _)) => page == theirs,
                    None => page.is_empty(),
                }
            })
    }
}

impl Eq for MlcDirectory {}

impl fmt::Debug for MlcDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MlcDirectory")
            .field("len", &self.len)
            .field("num_cores", &self.num_cores)
            .field("pages", &self.pages().count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut d = MlcDirectory::new(4);
        d.add(line(1), CoreId::new(3));
        assert!(d.is_cached(line(1)));
        assert_eq!(d.holder(line(1)), Some(CoreId::new(3)));
        d.remove(line(1), CoreId::new(3));
        assert!(!d.is_cached(line(1)));
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "core2 already holds line 9, so core5 cannot hold it too")]
    fn second_holder_is_a_desync() {
        let mut d = MlcDirectory::new(8);
        d.add(line(9), CoreId::new(2));
        d.add(line(9), CoreId::new(5));
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut d = MlcDirectory::new(2);
        d.remove(line(4), CoreId::new(1));
        assert!(d.is_empty());
        d.add(line(4), CoreId::new(0));
        d.remove(line(4), CoreId::new(1));
        assert!(d.is_cached(line(4)));
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut d = MlcDirectory::new(2);
        d.add(line(4), CoreId::new(1));
        d.add(line(4), CoreId::new(1));
        assert_eq!(d.len(), 1);
        d.remove(line(4), CoreId::new(1));
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn zero_cores_rejected() {
        let _ = MlcDirectory::new(0);
    }

    /// The largest line a 2048-set MLC can hold: set-relative tag
    /// 2^32 - 1 in set 2047.
    const MLC_MAX_LINE: u64 = (u32::MAX as u64) * 2048 + 2047;

    /// Core counts on both sides of 64 (the width of a one-word holder
    /// mask), a 200-core system and the full 65536-core id space. A
    /// scripted prefix puts lines of one page under different cores,
    /// core id 65535 on both sides of a page boundary, a chunk boundary
    /// and the largest line a 2048-set MLC can hold; then a deterministic
    /// op sequence over windows at each of those places follows. The
    /// directory is checked against a `BTreeMap` reference model after
    /// every step, and removing every line at the end must leave it empty.
    #[test]
    fn directory_matches_reference_model_across_core_counts() {
        use std::collections::BTreeMap;
        let page = PAGE_LINES as u64;
        let chunk = page * CHUNK_PAGES as u64;
        let top = MLC_MAX_LINE;
        assert_eq!(top, (1 << 43) - 1);
        let mut mlc = crate::set::SetAssocCache::new("mlc", 2048, 8);
        mlc.fill(line(top), false, crate::set::WayMask::all(8));
        // Windows of 300 lines that straddle line 0's page, a page
        // boundary, a chunk boundary, and end at the largest line.
        let windows = [0, page - 150, 3 * chunk - 150, top - 299];
        for num_cores in [63usize, 64, 65, 200, 65536] {
            let hi = (num_cores - 1) as u16;
            let mut d = MlcDirectory::new(num_cores);
            let mut model: BTreeMap<u64, u16> = BTreeMap::new();
            let check = |d: &MlcDirectory, model: &BTreeMap<u64, u16>, l: u64| {
                assert_eq!(d.len(), model.len(), "{num_cores} cores: len");
                assert_eq!(d.holder(line(l)), model.get(&l).map(|&c| CoreId::new(c)));
            };
            // (add?, core, line): page 0 split four ways, the top core id
            // on both sides of a page, a chunk and the top line, and
            // removals by non-holders (no-ops) and holders across each
            // boundary.
            let script = [
                (true, 0, 0),
                (true, 1, 1),
                (true, hi, 2),
                (true, hi / 2, 3),
                (true, hi, page - 1),
                (true, hi, page),
                (true, 0, page + 1),
                (true, 1, chunk - 1),
                (true, hi, chunk),
                (true, hi, top),
                (true, 0, top - 1),
                (false, 0, page - 1),
                (false, hi, page),
                (false, hi, page - 1),
                (true, 1, page - 1),
                (false, 1, chunk - 1),
                (false, 0, top),
                (false, hi, top),
                (false, 0, 0),
                (false, 1, 1),
                (false, hi, 2),
            ];
            for (add, c, l) in script {
                if add {
                    d.add(line(l), CoreId::new(c));
                    model.insert(l, c);
                } else {
                    d.remove(line(l), CoreId::new(c));
                    if model.get(&l) == Some(&c) {
                        model.remove(&l);
                    }
                }
                check(&d, &model, l);
            }
            // xorshift64* keeps the sequence deterministic and seedless.
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ num_cores as u64;
            for _ in 0..4000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let c = (x % num_cores as u64) as u16;
                let l = windows[(x >> 50) as usize % windows.len()] + (x >> 20) % 300;
                if x & (1 << 40) == 0 {
                    // Only the holder (or nobody) may add: exclusivity.
                    let c = *model.entry(l).or_insert(c);
                    d.add(line(l), CoreId::new(c));
                } else {
                    d.remove(line(l), CoreId::new(c));
                    if model.get(&l) == Some(&c) {
                        model.remove(&l);
                    }
                }
                check(&d, &model, l);
            }
            for l in windows.iter().flat_map(|&w| w..w + 300) {
                let want = model.get(&l).map(|&c| CoreId::new(c));
                assert_eq!(d.holder(line(l)), want, "{num_cores} cores: line {l}");
                assert_eq!(d.is_cached(line(l)), want.is_some());
            }
            let before = d.clone();
            for (&l, &c) in &model {
                d.remove(line(l), CoreId::new(c));
            }
            assert!(d.is_empty());
            assert!(d.pages().all(|(_, p)| p.is_empty()), "{num_cores} cores");
            assert!(
                d == MlcDirectory::new(num_cores),
                "allocated pages do not count"
            );
            assert!(d != before || model.is_empty());
        }
    }

    #[test]
    fn holder_of_an_untouched_line_allocates_nothing() {
        let mut d = MlcDirectory::new(4);
        assert_eq!(d.holder(line(MLC_MAX_LINE)), None);
        assert!(d.chunks.is_empty());
        // Two packets' worth of lines straddling a page boundary.
        let first = PAGE_LINES as u64 - 24;
        for l in first..first + 48 {
            d.add(line(l), CoreId::new((l % 4) as u16));
        }
        assert_eq!((d.chunks.len(), d.pages().count()), (1, 2));
        for far in [MLC_MAX_LINE, 1 << 24, 5 * PAGE_LINES as u64, first - 1] {
            assert_eq!(d.holder(line(far)), None, "line {far}");
            assert!(!d.is_cached(line(far)));
        }
        d.remove(line(MLC_MAX_LINE), CoreId::new(0));
        assert_eq!(
            (d.chunks.len(), d.pages().count()),
            (1, 2),
            "lookups allocated"
        );
        assert_eq!(d.len(), 48);
    }

    #[test]
    fn directory_tracks_wide_systems() {
        // 200 cores — the generated datacenter scenarios — have ids past
        // any one-word bitmask; the directory keeps them exactly.
        let mut d = MlcDirectory::new(200);
        d.add(line(1), CoreId::new(150));
        d.add(line(2), CoreId::new(199));
        d.add(line(65), CoreId::new(64));
        assert_eq!(d.holder(line(1)), Some(CoreId::new(150)));
        assert_eq!(d.holder(line(2)), Some(CoreId::new(199)));
        assert_eq!(d.holder(line(65)), Some(CoreId::new(64)));
        d.remove(line(1), CoreId::new(22));
        assert_eq!(d.holder(line(1)), Some(CoreId::new(150)));
        d.remove(line(1), CoreId::new(150));
        assert!(!d.is_cached(line(1)));
        assert_eq!(d.len(), 2);
    }
}
