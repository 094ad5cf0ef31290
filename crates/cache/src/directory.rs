//! The MLC snoop-filter directory ("Excl MLC" tags in Fig. 1).
//!
//! The LLC of a non-inclusive Skylake-class hierarchy keeps a directory of
//! cache lines that are valid in some core's MLC, so inbound PCIe writes and
//! cross-core requests can be filtered to the right private cache. We model
//! the directory as a map that is unbounded by default — directory-capacity
//! back-invalidations are orthogonal to the mechanisms IDIO adds — with an
//! optional entry bound ([`MlcDirectory::with_capacity`]) whose evictions
//! back-invalidate the displaced MLC lines.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::{CoreId, LineAddr};

/// A multiplicative hasher for line addresses (fxhash-style). The
/// directory is probed on every DMA line and every MLC miss, and the
/// default SipHash dominates those lookups; line numbers need no
/// DoS resistance, only good avalanche, which one odd-constant multiply
/// provides. The map is never iterated, so hash order can't leak into
/// simulation results.
#[derive(Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only fixed-width integer keys are ever hashed here.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The low bits of a multiply are weak; fold the high bits down
        // since HashMap buckets by the low bits.
        self.0 ^ (self.0 >> 32)
    }
}

type LineMap<V> = HashMap<LineAddr, V, BuildHasherDefault<LineHasher>>;

/// Number of directory shards. A line's shard is its low bits, so a
/// rehash copies 1/64 of the table instead of all of it.
const SHARDS: usize = 64;

#[inline]
fn shard_of(line: LineAddr) -> usize {
    (line.get() % SHARDS as u64) as usize
}

/// Tracks the one core whose MLC holds each line.
///
/// MLC residency is exclusive: a line lives in at most one core's MLC
/// (cache-to-cache transfers move it, DMA writes invalidate it, and
/// prefetches never take a line from another core). So each entry is a
/// single [`CoreId`], 16 bytes with its key, for any core count. A second
/// holder would mean the directory and the caches disagree, and
/// [`MlcDirectory::add`] panics on it.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::{CoreId, LineAddr};
/// use idio_cache::directory::MlcDirectory;
///
/// let mut dir = MlcDirectory::new(4);
/// let evicted = dir.add(LineAddr::new(7), CoreId::new(2));
/// assert!(evicted.is_none(), "unbounded directories never evict");
/// assert_eq!(dir.holder(LineAddr::new(7)), Some(CoreId::new(2)));
/// dir.remove(LineAddr::new(7), CoreId::new(2));
/// assert_eq!(dir.holder(LineAddr::new(7)), None);
/// ```
#[derive(Debug, Clone)]
pub struct MlcDirectory {
    /// `shards[line % SHARDS]` maps each tracked line to its holder.
    shards: Box<[LineMap<CoreId>]>,
    /// Tracked lines over all shards.
    len: usize,
    num_cores: usize,
    /// Maximum tracked lines; `None` = unbounded.
    capacity: Option<usize>,
    /// FIFO of insertion order (lazily cleaned), used for capacity
    /// evictions.
    order: std::collections::VecDeque<LineAddr>,
}

/// A directory entry displaced by a capacity conflict. The hierarchy must
/// back-invalidate the holder's copy of the line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryEviction {
    /// The line whose tracking entry was evicted.
    pub line: LineAddr,
    /// The core holding the line.
    pub holder: CoreId,
}

impl MlcDirectory {
    /// Creates an empty, unbounded directory for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or exceeds the `u16` core-id space.
    pub fn new(num_cores: usize) -> Self {
        Self::with_capacity(num_cores, None)
    }

    /// Creates a directory with a bounded entry count. Inserting beyond
    /// the bound evicts the oldest entry (FIFO) and reports it so the
    /// caller can back-invalidate the MLC copy — the behaviour that
    /// makes snoop-filter directories a shared resource worth attacking
    /// (Yan et al.).
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or exceeds the `u16` core-id space,
    /// or if `capacity` is `Some(0)`.
    pub fn with_capacity(num_cores: usize, capacity: Option<usize>) -> Self {
        assert!(
            num_cores > 0 && num_cores <= usize::from(u16::MAX) + 1,
            "1..=65536 cores supported"
        );
        assert!(capacity != Some(0), "directory capacity must be positive");
        MlcDirectory {
            shards: (0..SHARDS).map(|_| LineMap::default()).collect(),
            len: 0,
            num_cores,
            capacity,
            order: std::collections::VecDeque::new(),
        }
    }

    /// Records that `core`'s MLC now holds `line`. Returns the entry that
    /// had to be evicted to make room, if the directory is bounded and
    /// full. Re-adding the current holder changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if another core already holds `line`: MLC residency is
    /// exclusive, so a second holder is a directory/cache desync.
    #[must_use = "a directory eviction requires back-invalidating the MLC copy"]
    pub fn add(&mut self, line: LineAddr, core: CoreId) -> Option<DirectoryEviction> {
        debug_assert!(core.index() < self.num_cores);
        let shard = shard_of(line);
        if let Some(&holder) = self.shards[shard].get(&line) {
            assert!(
                holder == core,
                "directory add: {holder} already holds line {}, so {core} cannot \
                 hold it too (directory/cache desync)",
                line.get()
            );
            return None;
        }
        // New entry: make room first if bounded.
        let mut evicted = None;
        if let Some(cap) = self.capacity {
            while self.len >= cap {
                let old = self
                    .order
                    .pop_front()
                    .expect("entries outnumber the order queue");
                if let Some(holder) = self.shards[shard_of(old)].remove(&old) {
                    self.len -= 1;
                    evicted = Some(DirectoryEviction { line: old, holder });
                    break;
                }
                // Stale queue entry (line already removed); keep popping.
            }
            // Unbounded directories never consult the FIFO; skip the
            // bookkeeping (it would grow without limit).
            self.order.push_back(line);
        }
        self.shards[shard].insert(line, core);
        self.len += 1;
        evicted
    }

    /// Records that `core`'s MLC no longer holds `line`. A no-op unless
    /// `core` is the line's holder.
    pub fn remove(&mut self, line: LineAddr, core: CoreId) {
        let shard = &mut self.shards[shard_of(line)];
        if shard.get(&line) == Some(&core) {
            shard.remove(&line);
            self.len -= 1;
        }
    }

    /// Whether any MLC holds `line`.
    pub fn is_cached(&self, line: LineAddr) -> bool {
        self.shards[shard_of(line)].contains_key(&line)
    }

    /// The core holding `line`, if any.
    #[inline]
    pub fn holder(&self, line: LineAddr) -> Option<CoreId> {
        self.shards[shard_of(line)].get(&line).copied()
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

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n)
    }

    #[test]
    fn add_remove_roundtrip() {
        let mut d = MlcDirectory::new(4);
        let _ = d.add(line(1), CoreId::new(3));
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
        let _ = d.add(line(9), CoreId::new(2));
        let _ = d.add(line(9), CoreId::new(5));
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut d = MlcDirectory::new(2);
        d.remove(line(4), CoreId::new(1));
        assert!(d.is_empty());
        let _ = d.add(line(4), CoreId::new(0));
        d.remove(line(4), CoreId::new(1));
        assert!(d.is_cached(line(4)));
    }

    #[test]
    fn duplicate_add_is_idempotent() {
        let mut d = MlcDirectory::new(2);
        let _ = d.add(line(4), CoreId::new(1));
        let _ = d.add(line(4), CoreId::new(1));
        assert_eq!(d.len(), 1);
        d.remove(line(4), CoreId::new(1));
        assert!(d.is_empty());
    }

    #[test]
    #[should_panic(expected = "cores")]
    fn zero_cores_rejected() {
        let _ = MlcDirectory::new(0);
    }

    /// Core counts on both sides of 64 (the width of a one-word holder
    /// mask) and a 200-core system. A deterministic op sequence over all
    /// core ids and lines from every shard is checked against a
    /// `BTreeMap` reference model after every step.
    #[test]
    fn directory_matches_reference_model_across_core_counts() {
        use std::collections::BTreeMap;
        for num_cores in [63usize, 64, 65, 200] {
            let mut d = MlcDirectory::new(num_cores);
            let mut model: BTreeMap<u64, u16> = BTreeMap::new();
            // xorshift64* keeps the sequence deterministic and seedless.
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ num_cores as u64;
            for _ in 0..4000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let c = (x % num_cores as u64) as u16;
                let l = (x >> 20) % 300;
                if x & (1 << 40) == 0 {
                    // Only the holder (or nobody) may add: exclusivity.
                    let c = *model.entry(l).or_insert(c);
                    assert!(d.add(line(l), CoreId::new(c)).is_none());
                } else {
                    d.remove(line(l), CoreId::new(c));
                    if model.get(&l) == Some(&c) {
                        model.remove(&l);
                    }
                }
                assert_eq!(d.len(), model.len(), "{num_cores} cores: len");
                assert_eq!(d.holder(line(l)), model.get(&l).map(|&c| CoreId::new(c)));
            }
            for l in 0..300 {
                let want = model.get(&l).map(|&c| CoreId::new(c));
                assert_eq!(d.holder(line(l)), want, "{num_cores} cores: line {l}");
                assert_eq!(d.is_cached(line(l)), want.is_some());
            }
        }
    }

    #[test]
    fn directory_tracks_wide_systems() {
        // 200 cores — the generated datacenter scenarios — have ids past
        // any one-word bitmask; the directory keeps them exactly.
        let mut d = MlcDirectory::new(200);
        let _ = d.add(line(1), CoreId::new(150));
        let _ = d.add(line(2), CoreId::new(199));
        let _ = d.add(line(65), CoreId::new(64));
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
