//! Replacement policies for the set-associative arrays.
//!
//! The baseline model uses true LRU (what gem5's classic caches default
//! to); [`ReplacementPolicy`] also provides tree-PLRU (what real Skylake
//! LLCs approximate), SRRIP, and pseudo-random — useful for ablating how
//! sensitive the paper's observations are to the replacement policy.
//!
//! A policy instance holds the per-set metadata for *one* cache and is
//! driven by the cache array through three hooks: `on_insert`, `on_touch`,
//! and `victim` (choose among the permitted, fully occupied ways).

use crate::set::{SetBits, WayMask};

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementKind {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Tree pseudo-LRU (binary decision tree per set).
    TreePlru,
    /// Static re-reference interval prediction (2-bit RRPV, hit promotion
    /// to 0, insert at 2).
    Srrip,
    /// Pseudo-random (xorshift) victim selection.
    Random,
}

impl std::fmt::Display for ReplacementKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplacementKind::Lru => "LRU",
            ReplacementKind::TreePlru => "TreePLRU",
            ReplacementKind::Srrip => "SRRIP",
            ReplacementKind::Random => "Random",
        })
    }
}

/// Per-cache replacement state.
///
/// Every variant keeps its per-line metadata in one flat slab (slot index
/// `set * ways + way`) so a touch or victim scan walks contiguous memory —
/// the same struct-of-arrays layout the cache array itself uses for tags
/// and valid/dirty bits.
#[derive(Debug, Clone)]
pub enum ReplacementPolicy {
    /// LRU recency ranks: each set's ranks are a permutation of
    /// `0..ways`, rank 0 the most recent.
    Lru {
        /// `ranks[set * ways + way]`, smaller = more recent.
        ranks: Box<[u8]>,
        /// Associativity (slot stride).
        ways: usize,
    },
    /// Tree-PLRU decision bits, one tree per set.
    TreePlru {
        /// `bits[set]`: the (ways-1) internal tree nodes, packed LSB-first.
        bits: Box<[u64]>,
        /// Associativity (power of two required).
        ways: usize,
    },
    /// SRRIP 2-bit re-reference prediction values.
    Srrip {
        /// `rrpv[set * ways + way]` in `0..=3`.
        rrpv: Box<[u8]>,
        /// Associativity (slot stride).
        ways: usize,
    },
    /// Pseudo-random state.
    Random {
        /// xorshift state.
        state: u64,
    },
}

impl ReplacementPolicy {
    /// Creates policy state for a cache of `num_sets` x `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `TreePlru` is requested with a non-power-of-two
    /// associativity.
    pub fn new(kind: ReplacementKind, num_sets: usize, ways: usize) -> Self {
        match kind {
            ReplacementKind::Lru => {
                // Every set starts as the permutation `ways-1 … 0`, so
                // never-touched ways are evicted lowest index first.
                let mut ranks = Vec::with_capacity(num_sets * ways);
                for _ in 0..num_sets {
                    ranks.extend((0..ways).rev().map(|r| r as u8));
                }
                ReplacementPolicy::Lru {
                    ranks: ranks.into_boxed_slice(),
                    ways,
                }
            }
            ReplacementKind::TreePlru => {
                assert!(
                    ways.is_power_of_two(),
                    "tree-PLRU needs power-of-two associativity, got {ways}"
                );
                ReplacementPolicy::TreePlru {
                    bits: vec![0; num_sets].into_boxed_slice(),
                    ways,
                }
            }
            ReplacementKind::Srrip => ReplacementPolicy::Srrip {
                rrpv: vec![3; num_sets * ways].into_boxed_slice(),
                ways,
            },
            ReplacementKind::Random => ReplacementPolicy::Random {
                state: 0x9E37_79B9_7F4A_7C15,
            },
        }
    }

    /// The kind of this policy instance.
    pub fn kind(&self) -> ReplacementKind {
        match self {
            ReplacementPolicy::Lru { .. } => ReplacementKind::Lru,
            ReplacementPolicy::TreePlru { .. } => ReplacementKind::TreePlru,
            ReplacementPolicy::Srrip { .. } => ReplacementKind::Srrip,
            ReplacementPolicy::Random { .. } => ReplacementKind::Random,
        }
    }

    /// Records that `way` of `set` was (re)inserted.
    pub fn on_insert(&mut self, set: usize, way: usize) {
        match self {
            ReplacementPolicy::Lru { ranks, ways } => {
                promote(&mut ranks[set * *ways..(set + 1) * *ways], way);
            }
            ReplacementPolicy::TreePlru { bits, ways } => {
                touch_plru(&mut bits[set], way, *ways);
            }
            ReplacementPolicy::Srrip { rrpv, ways } => {
                // Insert with "long re-reference interval" (RRPV = 2).
                rrpv[set * *ways + way] = 2;
            }
            ReplacementPolicy::Random { .. } => {}
        }
    }

    /// Records a hit on `way` of `set`.
    pub fn on_touch(&mut self, set: usize, way: usize) {
        match self {
            ReplacementPolicy::Lru { ranks, ways } => {
                promote(&mut ranks[set * *ways..(set + 1) * *ways], way);
            }
            ReplacementPolicy::TreePlru { bits, ways } => {
                touch_plru(&mut bits[set], way, *ways);
            }
            ReplacementPolicy::Srrip { rrpv, ways } => {
                rrpv[set * *ways + way] = 0;
            }
            ReplacementPolicy::Random { .. } => {}
        }
    }

    /// Chooses a victim among the permitted (and fully occupied) ways of
    /// `set`.
    ///
    /// Allocation-free: the permitted set is carried as a bit pattern and
    /// scanned in ascending way order. LRU takes the permitted way with the
    /// largest rank; the initial `ways-1 … 0` ranks make never-touched ways
    /// go lowest index first.
    ///
    /// # Panics
    ///
    /// Panics if `mask` permits no way below `total_ways`.
    pub fn victim(&mut self, set: usize, mask: WayMask, total_ways: usize) -> usize {
        let perm = mask.bits() & WayMask::all(total_ways).bits();
        assert!(perm != 0, "way mask selects no way");
        match self {
            ReplacementPolicy::Lru { ranks, ways } => {
                // Ranks within a set are distinct, so the maximum is unique.
                let base = set * *ways;
                SetBits(perm)
                    .max_by_key(|&w| ranks[base + w])
                    .expect("perm is non-empty")
            }
            ReplacementPolicy::TreePlru { bits, ways } => {
                // Walk the tree toward the PLRU leaf; if it is outside the
                // mask, fall back to the first permitted way that the tree
                // has pointed away from longest (approximate with the
                // plru leaf scan order).
                let leaf = plru_victim(bits[set], *ways);
                if mask.contains(leaf) {
                    leaf
                } else {
                    perm.trailing_zeros() as usize
                }
            }
            ReplacementPolicy::Srrip { rrpv, ways } => {
                let base = set * *ways;
                // Age permitted ways until one reaches RRPV 3.
                loop {
                    if let Some(w) = SetBits(perm).find(|&w| rrpv[base + w] == 3) {
                        return w;
                    }
                    for w in SetBits(perm) {
                        rrpv[base + w] = (rrpv[base + w] + 1).min(3);
                    }
                }
            }
            ReplacementPolicy::Random { state } => {
                *state ^= *state << 13;
                *state ^= *state >> 7;
                *state ^= *state << 17;
                let n = perm.count_ones() as u64;
                let k = (*state % n) as usize;
                SetBits(perm).nth(k).expect("k < popcount")
            }
        }
    }
}

/// Makes `way` the most recent of its set: every rank below its old rank
/// moves one step older, and `way` takes rank 0.
#[inline]
fn promote(ranks: &mut [u8], way: usize) {
    let old = ranks[way];
    for r in ranks.iter_mut() {
        *r += u8::from(*r < old);
    }
    ranks[way] = 0;
}

/// Flips the tree bits so they point *away* from `way`.
fn touch_plru(bits: &mut u64, way: usize, ways: usize) {
    let mut node = 0usize; // root
    let mut lo = 0usize;
    let mut hi = ways;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if way < mid {
            // Went left: point the bit right.
            *bits |= 1 << node;
            node = 2 * node + 1;
            hi = mid;
        } else {
            *bits &= !(1 << node);
            node = 2 * node + 2;
            lo = mid;
        }
    }
}

/// Follows the tree bits to the PLRU leaf.
fn plru_victim(bits: u64, ways: usize) -> usize {
    let mut node = 0usize;
    let mut lo = 0usize;
    let mut hi = ways;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if bits >> node & 1 == 1 {
            // Bit points right.
            node = 2 * node + 2;
            lo = mid;
        } else {
            node = 2 * node + 1;
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_least_recent() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Lru, 1, 4);
        for w in 0..4 {
            p.on_insert(0, w);
        }
        p.on_touch(0, 0);
        assert_eq!(p.victim(0, WayMask::all(4), 4), 1);
    }

    #[test]
    fn lru_ranks_stay_a_permutation_and_untouched_ways_go_lowest_first() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Lru, 2, 5);
        // Nothing touched: way 0 is the oldest, then way 1, ...
        assert_eq!(p.victim(1, WayMask::all(5), 5), 0);
        assert_eq!(p.victim(1, WayMask::range(1, 5), 5), 1);
        p.on_insert(1, 0);
        p.on_touch(1, 3);
        // Untouched ways 1, 2, 4 are older than every touched way.
        assert_eq!(p.victim(1, WayMask::all(5), 5), 1);
        assert_eq!(p.victim(1, WayMask::from_bits(0b1_1001), 5), 4);
        assert_eq!(p.victim(1, WayMask::from_bits(0b0_1001), 5), 0);
        let ReplacementPolicy::Lru { ranks, .. } = &p else {
            unreachable!()
        };
        for set in ranks.chunks(5) {
            let mut sorted = set.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
        // Set 0 was never touched.
        assert_eq!(&ranks[..5], &[4, 3, 2, 1, 0]);
    }

    #[test]
    fn lru_respects_mask() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Lru, 1, 4);
        for w in 0..4 {
            p.on_insert(0, w);
        }
        assert_eq!(p.victim(0, WayMask::range(2, 4), 4), 2);
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        let mut p = ReplacementPolicy::new(ReplacementKind::TreePlru, 1, 8);
        for w in 0..8 {
            p.on_insert(0, w);
        }
        for _ in 0..100 {
            let v = p.victim(0, WayMask::all(8), 8);
            p.on_touch(0, v);
            // Immediately after touching, the same way is not the victim.
            assert_ne!(p.victim(0, WayMask::all(8), 8), v);
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_pow2() {
        let _ = ReplacementPolicy::new(ReplacementKind::TreePlru, 1, 12);
    }

    #[test]
    fn srrip_promotes_on_hit() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Srrip, 1, 2);
        p.on_insert(0, 0);
        p.on_insert(0, 1);
        p.on_touch(0, 0); // way 0 becomes near-immune
        let v = p.victim(0, WayMask::all(2), 2);
        assert_eq!(v, 1, "the non-promoted way ages out first");
    }

    #[test]
    fn srrip_terminates_by_aging() {
        let mut p = ReplacementPolicy::new(ReplacementKind::Srrip, 1, 4);
        for w in 0..4 {
            p.on_insert(0, w);
            p.on_touch(0, w);
        }
        // All at RRPV 0: victim still found by aging.
        let v = p.victim(0, WayMask::all(4), 4);
        assert!(v < 4);
    }

    #[test]
    fn random_is_deterministic_and_in_mask() {
        let mut a = ReplacementPolicy::new(ReplacementKind::Random, 1, 8);
        let mut b = ReplacementPolicy::new(ReplacementKind::Random, 1, 8);
        for _ in 0..50 {
            let (va, vb) = (
                a.victim(0, WayMask::range(3, 6), 8),
                b.victim(0, WayMask::range(3, 6), 8),
            );
            assert_eq!(va, vb);
            assert!((3..6).contains(&va));
        }
    }

    #[test]
    fn kind_roundtrips() {
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Srrip,
            ReplacementKind::Random,
        ] {
            let ways = if kind == ReplacementKind::TreePlru {
                8
            } else {
                12
            };
            assert_eq!(ReplacementPolicy::new(kind, 4, ways).kind(), kind);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", ReplacementKind::TreePlru), "TreePLRU");
        assert_eq!(format!("{}", ReplacementKind::Lru), "LRU");
    }
}
