//! LRU replacement for the set-associative arrays.
//!
//! Every cache level uses true LRU, what gem5's classic caches default
//! to. The state is one `u8` recency rank per slot, kept in a flat plane
//! (slot index `set * ways + way`) beside the cache's tag plane: each
//! set's ranks are a permutation of `0..ways`, rank 0 the most recent.
//! The cache hands these functions one set's slice of the plane.

use crate::set::{SetBits, WayMask};

/// The rank plane of a cache of `num_sets` x `ways`. Every set starts as
/// the permutation `ways-1 … 0`, so never-touched ways are evicted
/// lowest index first.
pub fn ranks(num_sets: usize, ways: usize) -> Box<[u8]> {
    let mut ranks = Vec::with_capacity(num_sets * ways);
    for _ in 0..num_sets {
        ranks.extend((0..ways).rev().map(|r| r as u8));
    }
    ranks.into_boxed_slice()
}

/// Makes `way` the most recent of its set, on an insert or a hit: every
/// rank below its old rank moves one step older, and `way` takes rank 0.
#[inline]
pub fn promote(set: &mut [u8], way: usize) {
    let old = set[way];
    for r in set.iter_mut() {
        *r += u8::from(*r < old);
    }
    set[way] = 0;
}

/// Ranks the ways of a never-touched set that the bit pattern `touched`
/// leaves out, behind the touched ones. Promotions keep the untouched
/// ways in their initial order, the highest way the most recent, so they
/// take ranks `touched.count_ones()..ways` from the highest way down.
/// The touched ways' ranks are the caller's to write.
pub fn rank_untouched(set: &mut [u8], touched: u64) {
    let mut rank = touched.count_ones() as u8;
    for w in (0..set.len()).rev() {
        if touched & (1 << w) == 0 {
            set[w] = rank;
            rank += 1;
        }
    }
}

/// The least recent way of `set` among those `mask` permits.
///
/// Allocation-free: the permitted ways are scanned as a bit pattern.
/// Ranks within a set are distinct, so the victim is unique.
///
/// # Panics
///
/// Panics if `mask` permits no way of the set.
pub fn victim(set: &[u8], mask: WayMask) -> usize {
    let perm = mask.bits() & WayMask::all(set.len()).bits();
    SetBits(perm)
        .max_by_key(|&w| set[w])
        .expect("way mask selects no way")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_least_recent() {
        let mut r = ranks(1, 4);
        for w in 0..4 {
            promote(&mut r, w);
        }
        promote(&mut r, 0);
        assert_eq!(victim(&r, WayMask::all(4)), 1);
    }

    #[test]
    fn lru_ranks_stay_a_permutation_and_untouched_ways_go_lowest_first() {
        let mut r = ranks(2, 5);
        let set1 = 5..10;
        // Nothing touched: way 0 is the oldest, then way 1, ...
        assert_eq!(victim(&r[set1.clone()], WayMask::all(5)), 0);
        assert_eq!(victim(&r[set1.clone()], WayMask::range(1, 5)), 1);
        promote(&mut r[set1.clone()], 0);
        promote(&mut r[set1.clone()], 3);
        // Untouched ways 1, 2, 4 are older than every touched way.
        assert_eq!(victim(&r[set1.clone()], WayMask::all(5)), 1);
        assert_eq!(victim(&r[set1.clone()], WayMask::from_bits(0b1_1001)), 4);
        assert_eq!(victim(&r[set1], WayMask::from_bits(0b0_1001)), 0);
        for set in r.chunks(5) {
            let mut sorted = set.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
        // Set 0 was never touched.
        assert_eq!(&r[..5], &[4, 3, 2, 1, 0]);
    }

    #[test]
    fn lru_respects_mask() {
        let mut r = ranks(1, 4);
        for w in 0..4 {
            promote(&mut r, w);
        }
        assert_eq!(victim(&r, WayMask::range(2, 4)), 2);
    }
}
