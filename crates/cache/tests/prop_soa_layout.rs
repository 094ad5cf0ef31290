//! Equivalence check for the SoA hot/cold cache layout: drive
//! [`SetAssocCache`] and a deliberately naive reference model through the
//! same randomized operation stream and demand identical observable
//! behaviour — victims, placement ways, occupancy, dirty bits, and the
//! incrementally-maintained tracked-range counter.
//!
//! The production array keeps 32-bit set-relative tags (`line / sets`,
//! the line rebuilt as `tag * sets + set`) and valid/dirty bitmasks in
//! flat hot planes, LRU recency ranks in a flattened `Box<[u8]>` (one
//! permutation of `0..ways` per set), and tracked membership in a cold
//! per-set bitmask computed once at fill time. The reference model stores
//! one struct per resident line with its full line number and a
//! monotonic stamp, and rescans the tracked ranges on every query — slow,
//! but obviously correct. Any divergence in the layout plumbing (a stale
//! `tracked_bits` bit, a wrong flattened index, a tag rebuilt into the
//! wrong line, a rank update that breaks LRU order or its tie-break)
//! shows up as a mismatch here. Lines are drawn from the bottom of the tag
//! range and from a window at its top, over small set counts and the
//! 12-set and 12288-set (fig4's LLC) non-power-of-two geometries.
//!
//! Driven by the in-repo deterministic harness (`idio_engine::check`).

use std::collections::BTreeMap;

use idio_cache::addr::LineAddr;
use idio_cache::set::{SetAssocCache, WayMask};
use idio_engine::check::{Cases, Gen};

/// One resident line in the reference model.
#[derive(Debug, Clone, Copy)]
struct RefLine {
    line: u64,
    dirty: bool,
    /// Monotonic last-use stamp; mirrors the production LRU counter,
    /// which advances once per insert or touch event.
    stamp: u64,
}

/// Naive per-line reference: `Vec<Option<RefLine>>` per touched set
/// (untouched sets are absent, so a 12288-set geometry costs only the
/// sets a case uses), tracked ranges rescanned on demand.
struct RefCache {
    sets: BTreeMap<usize, Vec<Option<RefLine>>>,
    num_sets: usize,
    ways: usize,
    next_stamp: u64,
    tracked: Vec<(u64, u64)>,
}

impl RefCache {
    fn new(num_sets: usize, ways: usize) -> Self {
        RefCache {
            sets: BTreeMap::new(),
            num_sets,
            ways,
            next_stamp: 0,
            tracked: Vec::new(),
        }
    }

    fn set_index(&self, line: u64) -> usize {
        (line % self.num_sets as u64) as usize
    }

    fn find_way(&self, idx: usize, line: u64) -> Option<usize> {
        self.sets
            .get(&idx)?
            .iter()
            .position(|s| s.is_some_and(|e| e.line == line))
    }

    fn bump(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    /// The resident entry of `line`, which the caller found at way `w`.
    fn entry_mut(&mut self, idx: usize, w: usize) -> &mut RefLine {
        self.sets.get_mut(&idx).expect("touched set")[w]
            .as_mut()
            .expect("resident")
    }

    /// Mirrors `SetAssocCache::insert` for the LRU policy: refresh in
    /// place when resident, else lowest free permitted way, else evict
    /// the permitted way with the smallest stamp (first minimum wins).
    fn insert(&mut self, line: u64, dirty: bool, mask: u64) -> (Option<(u64, bool, usize)>, usize) {
        let idx = self.set_index(line);
        let stamp = self.bump();
        if let Some(w) = self.find_way(idx, line) {
            let e = self.entry_mut(idx, w);
            e.dirty |= dirty;
            e.stamp = stamp;
            return (None, w);
        }
        let ways = self.ways;
        let set = self.sets.entry(idx).or_insert_with(|| vec![None; ways]);
        let permitted = |w: usize| mask >> w & 1 == 1;
        if let Some(w) = (0..ways).find(|&w| permitted(w) && set[w].is_none()) {
            set[w] = Some(RefLine { line, dirty, stamp });
            return (None, w);
        }
        let w = (0..ways)
            .filter(|&w| permitted(w))
            .min_by_key(|&w| set[w].expect("full").stamp)
            .expect("mask selects a way");
        let old = set[w].expect("full");
        set[w] = Some(RefLine { line, dirty, stamp });
        (Some((old.line, old.dirty, w)), w)
    }

    fn touch(&mut self, line: u64) -> Option<bool> {
        let idx = self.set_index(line);
        let w = self.find_way(idx, line)?;
        let stamp = self.bump();
        let e = self.entry_mut(idx, w);
        e.stamp = stamp;
        Some(e.dirty)
    }

    fn probe(&self, line: u64) -> Option<bool> {
        let idx = self.set_index(line);
        self.find_way(idx, line)
            .map(|w| self.sets[&idx][w].expect("resident").dirty)
    }

    fn remove(&mut self, line: u64) -> Option<bool> {
        let idx = self.set_index(line);
        let w = self.find_way(idx, line)?;
        self.sets.get_mut(&idx).expect("touched set")[w]
            .take()
            .map(|e| e.dirty)
    }

    fn mark_dirty(&mut self, line: u64) -> bool {
        let idx = self.set_index(line);
        match self.find_way(idx, line) {
            Some(w) => {
                self.entry_mut(idx, w).dirty = true;
                true
            }
            None => false,
        }
    }

    /// Set-major order, as the production array drains.
    fn drain_dirty(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        for set in self.sets.values_mut() {
            for slot in set.iter_mut() {
                if let Some(e) = slot.take() {
                    if e.dirty {
                        out.push(e.line);
                    }
                }
            }
        }
        out
    }

    fn resident(&self) -> usize {
        self.sets.values().map(|s| s.iter().flatten().count()).sum()
    }

    fn tracked_resident(&self) -> usize {
        self.sets
            .values()
            .flat_map(|s| s.iter().flatten())
            .filter(|e| {
                self.tracked
                    .iter()
                    .any(|&(lo, hi)| e.line >= lo && e.line < hi)
            })
            .count()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, bool),
    /// Insert restricted to a way sub-range (the DDIO/CAT partitioning
    /// path — exercises the allocation-free masked victim scan).
    InsertMasked(u64, bool, usize, usize),
    Touch(u64),
    Probe(u64),
    Remove(u64),
    MarkDirty(u64),
    Retrack(u64, u64),
    DrainDirty,
}

/// The lines one case draws from: a few hot sets, each with `tags`
/// consecutive tags starting at `tag_base` — so every geometry sees
/// conflicts, and a `tag_base` near `u32::MAX` covers the top of the tag
/// range.
struct Lines {
    sets: u64,
    hot_sets: Vec<u64>,
    tag_base: u64,
    tags: u64,
}

impl Lines {
    fn draw(&self, g: &mut Gen) -> u64 {
        let set = *g.choose(&self.hot_sets);
        (self.tag_base + g.u64(0..self.tags)) * self.sets + set
    }

    /// The half-open span of raw line numbers the draws fall in.
    fn span(&self) -> (u64, u64) {
        (
            self.tag_base * self.sets,
            (self.tag_base + self.tags) * self.sets,
        )
    }
}

fn gen_op(g: &mut Gen, lines: &Lines, ways: usize) -> Op {
    let l = lines.draw(g);
    match g.u64(0..16) {
        0..=4 => Op::Insert(l, g.bool()),
        5..=6 => {
            let lo = g.usize(0..ways);
            let hi = g.usize(lo + 1..ways + 1);
            Op::InsertMasked(l, g.bool(), lo, hi)
        }
        7..=8 => Op::Touch(l),
        9..=10 => Op::Probe(l),
        11..=12 => Op::Remove(l),
        13 => Op::MarkDirty(l),
        14 => {
            let (start, end) = lines.span();
            let lo = g.u64(start..end);
            let hi = g.u64(lo..end + 1);
            Op::Retrack(lo, hi)
        }
        _ => Op::DrainDirty,
    }
}

#[test]
fn soa_layout_matches_reference_model() {
    Cases::new(512).run(|g| {
        let sets = match g.u64(0..4) {
            0 => 12,
            1 => 12288,
            _ => g.usize(1..6),
        };
        let ways = g.usize(1..7);
        let tags = (ways * 3) as u64;
        let top = g.bool();
        let lines = Lines {
            sets: sets as u64,
            hot_sets: g.vec(1..4, |g| g.u64(0..sets as u64)),
            // The top window's last tag is exactly `u32::MAX`.
            tag_base: if top {
                u64::from(u32::MAX) + 1 - tags
            } else {
                0
            },
            tags,
        };
        let ops = g.vec(1..250, |g| gen_op(g, &lines, ways));

        let mut real = SetAssocCache::new("prop-soa", sets, ways);
        let mut model = RefCache::new(sets, ways);
        // Start with a tracked window so the fill-time membership bits are
        // live from the first op, not only after a Retrack.
        let (start, end) = lines.span();
        let half = (start, start + (end - start) / 2);
        real.track_ranges(&[half]);
        model.tracked = vec![half];

        for op in ops {
            match op {
                Op::Insert(l, d) => {
                    let (victim, way) = real.insert(LineAddr::new(l), d, WayMask::all(ways));
                    let (mv, mw) = model.insert(l, d, WayMask::all(ways).bits());
                    assert_eq!(way, mw, "placement way for line {l}");
                    assert_eq!(
                        victim.map(|v| (v.line.get(), v.dirty, v.way)),
                        mv,
                        "victim for line {l}"
                    );
                }
                Op::InsertMasked(l, d, lo, hi) => {
                    let mask = WayMask::range(lo, hi);
                    let (victim, way) = real.insert(LineAddr::new(l), d, mask);
                    let (mv, mw) = model.insert(l, d, mask.bits());
                    assert_eq!(way, mw, "masked placement way for line {l}");
                    assert_eq!(
                        victim.map(|v| (v.line.get(), v.dirty, v.way)),
                        mv,
                        "masked victim for line {l}"
                    );
                }
                Op::Touch(l) => {
                    assert_eq!(
                        real.touch(LineAddr::new(l)).map(|e| e.dirty),
                        model.touch(l),
                        "touch {l}"
                    );
                }
                Op::Probe(l) => {
                    assert_eq!(
                        real.probe(LineAddr::new(l)).map(|e| e.dirty),
                        model.probe(l),
                        "probe {l}"
                    );
                    assert_eq!(real.contains(LineAddr::new(l)), model.probe(l).is_some());
                }
                Op::Remove(l) => {
                    assert_eq!(
                        real.remove(LineAddr::new(l)).map(|e| e.dirty),
                        model.remove(l),
                        "remove {l}"
                    );
                }
                Op::MarkDirty(l) => {
                    assert_eq!(real.mark_dirty(LineAddr::new(l)), model.mark_dirty(l));
                }
                Op::Retrack(lo, hi) => {
                    real.track_ranges(&[(lo, hi)]);
                    model.tracked = vec![(lo, hi)];
                }
                Op::DrainDirty => {
                    assert_eq!(
                        real.drain_dirty(),
                        model
                            .drain_dirty()
                            .into_iter()
                            .map(LineAddr::new)
                            .collect::<Vec<_>>(),
                        "drain order"
                    );
                }
            }
            // The incrementally-maintained counters must agree with the
            // rescan-everything model after every single operation.
            assert_eq!(real.resident_lines(), model.resident(), "occupancy");
            assert_eq!(
                real.tracked_resident(),
                model.tracked_resident(),
                "tracked occupancy"
            );
        }
    });
}

/// The lowest line in set 0 of a 12-set cache whose tag needs 33 bits.
const OUT_OF_RANGE: u64 = (u32::MAX as u64 + 1) * 12;

#[test]
#[should_panic(expected = "llc: line 51539607552 does not fit a 32-bit tag")]
fn out_of_range_insert_panics_naming_cache_and_line() {
    let mut c = SetAssocCache::new("llc", 12, 2);
    c.insert(LineAddr::new(OUT_OF_RANGE), false, WayMask::all(2));
}

#[test]
fn out_of_range_line_is_absent() {
    let mut c = SetAssocCache::new("llc", 12, 2);
    let big = LineAddr::new(OUT_OF_RANGE);
    // Fill set 0 with tags 0 and `u32::MAX`; neither may match the
    // out-of-range line, whatever its tag would truncate to.
    c.insert(LineAddr::new(0), true, WayMask::all(2));
    c.insert(
        LineAddr::new(u64::from(u32::MAX) * 12),
        true,
        WayMask::all(2),
    );
    assert!(!c.contains(big));
    assert!(c.probe(big).is_none());
    assert!(c.touch(big).is_none());
    assert!(!c.mark_dirty(big));
    assert!(c.way_of(big).is_none());
    assert!(c.remove(big).is_none());
    assert_eq!(c.resident_lines(), 2);
}
