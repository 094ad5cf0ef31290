//! The MLC snoop-filter directory ("Excl MLC" tags in Fig. 1).
//!
//! The LLC of a non-inclusive Skylake-class hierarchy keeps a directory of
//! cache lines that are valid in some core's MLC, so inbound PCIe writes and
//! cross-core requests can be filtered to the right private cache. We model
//! the directory as exact: it tracks every MLC line and never evicts an
//! entry, since directory-capacity back-invalidations are orthogonal to
//! the mechanisms IDIO adds.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::{CoreId, LineAddr};
use crate::set::SetBits;

/// A multiplicative hasher for group numbers (fxhash-style). The
/// directory is probed on every DMA line and every MLC miss, and the
/// default SipHash dominates those lookups; group numbers need no
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

type GroupMap = HashMap<u64, Group, BuildHasherDefault<LineHasher>>;

/// Lines per directory group: 16 consecutive lines (1 KiB), one bit of
/// [`Group::present`] each. A 1514-byte frame's 24 lines span two groups,
/// so the DMA, prefetch and read of a packet's lines share two probes'
/// worth of table memory instead of touching 24 cold buckets.
const GROUP_LINES: u64 = u16::BITS as u64;

/// The tracked lines of one group and their holders.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// Bit `i` is set while line `i` of the group is tracked. A group
    /// whose mask reaches zero leaves the map.
    present: u16,
    /// `holder[i]` is the core holding line `i`; meaningless unless bit
    /// `i` of `present` is set, so every core id stays usable.
    holder: [CoreId; GROUP_LINES as usize],
}

impl Group {
    const EMPTY: Group = Group {
        present: 0,
        holder: [CoreId::new(0); GROUP_LINES as usize],
    };

    #[inline]
    fn get(&self, slot: usize) -> Option<CoreId> {
        (self.present & (1 << slot) != 0).then_some(self.holder[slot])
    }
}

/// Groups are equal when they track the same lines with the same holders;
/// what an untracked slot still holds does not count.
impl PartialEq for Group {
    fn eq(&self, other: &Group) -> bool {
        self.present == other.present
            && SetBits(u64::from(self.present)).all(|i| self.holder[i] == other.holder[i])
    }
}

impl Eq for Group {}

/// A line's group number and its slot within the group.
#[inline]
fn split(line: LineAddr) -> (u64, usize) {
    (
        line.get() / GROUP_LINES,
        (line.get() % GROUP_LINES) as usize,
    )
}

/// Tracks the one core whose MLC holds each line.
///
/// MLC residency is exclusive: a line lives in at most one core's MLC
/// (cache-to-cache transfers move it, DMA writes invalidate it, and
/// prefetches never take a line from another core). So each line needs
/// a single [`CoreId`], for any core count. Lines are kept in groups of
/// 16 consecutive lines under one map entry, a presence mask beside 16
/// holders. A second holder would mean the directory and the caches
/// disagree, and [`MlcDirectory::add`] panics on it.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlcDirectory {
    /// Each group with at least one tracked line, by group number.
    groups: GroupMap,
    /// Tracked lines over all groups.
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
            groups: GroupMap::default(),
            len: 0,
            num_cores,
        }
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
        let (key, slot) = split(line);
        let group = self.groups.entry(key).or_insert(Group::EMPTY);
        if let Some(holder) = group.get(slot) {
            assert!(
                holder == core,
                "directory add: {holder} already holds line {}, so {core} cannot \
                 hold it too (directory/cache desync)",
                line.get()
            );
            return;
        }
        group.present |= 1 << slot;
        group.holder[slot] = core;
        self.len += 1;
    }

    /// Records that `core`'s MLC no longer holds `line`. A no-op unless
    /// `core` is the line's holder.
    pub fn remove(&mut self, line: LineAddr, core: CoreId) {
        let (key, slot) = split(line);
        let Some(group) = self.groups.get_mut(&key) else {
            return;
        };
        if group.get(slot) == Some(core) {
            group.present &= !(1 << slot);
            self.len -= 1;
            if group.present == 0 {
                self.groups.remove(&key);
            }
        }
    }

    /// Whether any MLC holds `line`.
    pub fn is_cached(&self, line: LineAddr) -> bool {
        self.holder(line).is_some()
    }

    /// The core holding `line`, if any.
    #[inline]
    pub fn holder(&self, line: LineAddr) -> Option<CoreId> {
        let (key, slot) = split(line);
        self.groups.get(&key).and_then(|g| g.get(slot))
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

    /// Core counts on both sides of 64 (the width of a one-word holder
    /// mask), a 200-core system and the full 65536-core id space. A
    /// scripted prefix puts lines of one group under different cores,
    /// core id 65535 at a group's last line and the next group's first
    /// line, and lines on both sides of each boundary near 16·k; then a
    /// deterministic op sequence over 19 groups follows. The directory is
    /// checked against a `BTreeMap` reference model after every step, and
    /// removing every line at the end must leave no group behind.
    #[test]
    fn directory_matches_reference_model_across_core_counts() {
        use std::collections::BTreeMap;
        for num_cores in [63usize, 64, 65, 200, 65536] {
            let top = (num_cores - 1) as u16;
            let mut d = MlcDirectory::new(num_cores);
            let mut model: BTreeMap<u64, u16> = BTreeMap::new();
            let check = |d: &MlcDirectory, model: &BTreeMap<u64, u16>, l: u64| {
                assert_eq!(d.len(), model.len(), "{num_cores} cores: len");
                assert_eq!(d.holder(line(l)), model.get(&l).map(|&c| CoreId::new(c)));
            };
            // (add?, core, line): group 0 split four ways, the top core id
            // on both sides of the 15|16 and 31|32 boundaries, and removals
            // by non-holders (no-ops) and holders across each boundary.
            let script = [
                (true, 0, 0),
                (true, 1, 1),
                (true, top, 2),
                (true, top / 2, 3),
                (true, top, 15),
                (true, top, 16),
                (true, 0, 17),
                (true, 1, 31),
                (true, top, 32),
                (false, 0, 15),
                (false, top, 16),
                (false, top, 15),
                (true, 1, 15),
                (false, 1, 31),
                (false, 0, 0),
                (false, 1, 1),
                (false, top, 2),
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
                let l = (x >> 20) % 300;
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
            for l in 0..300 {
                let want = model.get(&l).map(|&c| CoreId::new(c));
                assert_eq!(d.holder(line(l)), want, "{num_cores} cores: line {l}");
                assert_eq!(d.is_cached(line(l)), want.is_some());
            }
            let groups: std::collections::BTreeSet<u64> =
                model.keys().map(|l| l / GROUP_LINES).collect();
            assert_eq!(d.groups.len(), groups.len(), "{num_cores} cores: groups");
            for (&l, &c) in &model {
                d.remove(line(l), CoreId::new(c));
            }
            assert!(d.is_empty());
            assert_eq!(d.groups.len(), 0, "{num_cores} cores: empty groups leaked");
        }
    }

    #[test]
    fn emptied_groups_leave_the_map() {
        let mut d = MlcDirectory::new(4);
        // Two packets' worth of lines straddling three groups.
        for l in 10..58 {
            d.add(line(l), CoreId::new((l % 4) as u16));
        }
        assert_eq!(d.groups.len(), 4);
        for l in 10..58 {
            d.remove(line(l), CoreId::new((l % 4) as u16));
            let live_groups = (l + 1..58)
                .map(|l| l / GROUP_LINES)
                .collect::<std::collections::BTreeSet<_>>();
            assert_eq!(d.groups.len(), live_groups.len(), "after removing {l}");
        }
        assert!(d.is_empty());
        assert!(d.groups.is_empty());
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
