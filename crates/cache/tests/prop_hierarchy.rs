//! Randomized property tests: the hierarchy's structural invariants
//! survive any sequence of operations (at 2 cores and past 64 cores), no
//! line is ever in two MLCs, and the set-associative array never exceeds
//! its capacity. Driven by the in-repo deterministic harness
//! (`idio_engine::check`) — the build environment has no crates.io access.

use idio_cache::addr::{CoreId, LineAddr};
use idio_cache::config::{CacheGeometry, HierarchyConfig};
use idio_cache::hierarchy::{DmaPlacement, Hierarchy};
use idio_cache::set::{SetAssocCache, WayMask};
use idio_engine::check::{Cases, Gen};

#[derive(Debug, Clone, Copy)]
enum Op {
    CpuRead(u16, u64),
    CpuWrite(u16, u64),
    PcieWriteLlc(u64),
    PcieWriteDram(u64),
    PcieRead(u64),
    Invalidate(u16, u64),
    Prefetch(u16, u64),
    PrefetchDeep(u16, u64),
    Flush(u64),
}

fn gen_op(g: &mut Gen, cores: u16, lines: u64) -> Op {
    let c = g.u16(0..cores);
    let l = g.u64(0..lines);
    match g.u64(0..9) {
        0 => Op::CpuRead(c, l),
        1 => Op::CpuWrite(c, l),
        2 => Op::PcieWriteLlc(l),
        3 => Op::PcieWriteDram(l),
        4 => Op::PcieRead(l),
        5 => Op::Invalidate(c, l),
        6 => Op::Prefetch(c, l),
        7 => Op::PrefetchDeep(c, l),
        _ => Op::Flush(l),
    }
}

fn apply(h: &mut Hierarchy, op: Op) {
    match op {
        Op::CpuRead(c, l) => {
            h.cpu_read(CoreId::new(c), LineAddr::new(l));
        }
        Op::CpuWrite(c, l) => {
            h.cpu_write(CoreId::new(c), LineAddr::new(l));
        }
        Op::PcieWriteLlc(l) => {
            h.pcie_write(LineAddr::new(l), DmaPlacement::Llc);
        }
        Op::PcieWriteDram(l) => {
            h.pcie_write(LineAddr::new(l), DmaPlacement::Dram);
        }
        Op::PcieRead(l) => {
            h.pcie_read(LineAddr::new(l));
        }
        Op::Invalidate(c, l) => {
            h.self_invalidate(CoreId::new(c), LineAddr::new(l));
        }
        Op::Prefetch(c, l) => {
            h.prefetch_fill(CoreId::new(c), LineAddr::new(l));
        }
        Op::PrefetchDeep(c, l) => {
            h.prefetch_fill_deep(CoreId::new(c), LineAddr::new(l));
        }
        Op::Flush(l) => {
            h.flush_line(LineAddr::new(l));
        }
    }
}

fn tiny_hierarchy() -> Hierarchy {
    tiny_hierarchy_with(2)
}

fn tiny_hierarchy_with(cores: usize) -> Hierarchy {
    Hierarchy::new(HierarchyConfig {
        num_cores: cores,
        l1d: CacheGeometry::new(2 * 2 * 64, 2),
        mlc: CacheGeometry::new(4 * 2 * 64, 2),
        mlc_overrides: vec![None; cores],
        llc: CacheGeometry::new(4 * 4 * 64, 4),
        ddio_ways: 2,
        core_alloc_ways: None,
    })
}

/// Asserts that no line in `0..lines` is resident in two cores' MLCs.
/// Checked directly on the arrays, not through the directory, so a fill
/// path that copies a line behind the directory's back is caught too.
fn assert_single_residency(h: &Hierarchy, lines: u64, op: Op) {
    for l in 0..lines {
        let line = LineAddr::new(l);
        let holders: Vec<usize> = (0..h.num_cores())
            .filter(|&c| h.mlc(CoreId::new(c as u16)).contains(line))
            .collect();
        assert!(
            holders.len() <= 1,
            "after {op:?}: line {l} in MLCs {holders:?}"
        );
    }
}

#[test]
fn invariants_hold_under_arbitrary_op_sequences() {
    Cases::new(256).run(|g| {
        let ops = g.vec(1..200, |g| gen_op(g, 2, 64));
        let mut h = tiny_hierarchy();
        for op in ops {
            apply(&mut h, op);
            assert_single_residency(&h, 64, op);
        }
        h.check_invariants();
    });
}

/// More than 64 cores on a small geometry: core ids past one 64-bit word
/// share lines through c2c transfers, DMA invalidations and prefetches.
#[test]
fn invariants_hold_past_64_cores() {
    Cases::new(64).run(|g| {
        let ops = g.vec(1..400, |g| gen_op(g, 70, 48));
        let mut h = tiny_hierarchy_with(70);
        for op in ops {
            apply(&mut h, op);
            assert_single_residency(&h, 48, op);
        }
        h.check_invariants();
    });
}

/// Private planes are allocated on a core's first fill: a core that no
/// read, write or prefetch names stays unallocated and reads as empty,
/// whatever DMA, invalidations and other cores' traffic do around it.
#[test]
fn never_touched_cores_stay_unallocated() {
    Cases::new(128).run(|g| {
        let ops = g.vec(1..300, |g| gen_op(g, 6, 64));
        let mut h = tiny_hierarchy_with(6);
        for op in &ops {
            apply(&mut h, *op);
        }
        h.check_invariants();
        for c in 0..6u16 {
            let filled = ops.iter().any(|op| {
                matches!(*op, Op::CpuRead(oc, _) | Op::CpuWrite(oc, _)
                    | Op::Prefetch(oc, _) | Op::PrefetchDeep(oc, _) if oc == c)
            });
            let core = CoreId::new(c);
            if !filled {
                assert!(!h.l1d(core).is_allocated(), "core {c}: L1D allocated");
                assert!(!h.mlc(core).is_allocated(), "core {c}: MLC allocated");
                assert_eq!(h.mlc(core).iter().count(), 0);
            }
        }
    });
}

#[test]
fn reads_are_always_eventually_private() {
    Cases::new(256).run(|g| {
        let warm = g.vec(0..100, |g| gen_op(g, 2, 64));
        let core = g.u16(0..2);
        let line = g.u64(0..64);
        let mut h = tiny_hierarchy();
        for op in warm {
            apply(&mut h, op);
        }
        // Whatever the state, after a CPU read the line is in that core's
        // L1 and MLC and in no other core's private caches.
        let c = CoreId::new(core);
        h.cpu_read(c, LineAddr::new(line));
        assert!(h.l1d(c).contains(LineAddr::new(line)));
        assert!(h.mlc(c).contains(LineAddr::new(line)));
        let other = CoreId::new(1 - core);
        assert!(!h.mlc(other).contains(LineAddr::new(line)));
        assert!(!h.llc().contains(LineAddr::new(line)));
        h.check_invariants();
    });
}

#[test]
fn pcie_write_always_clears_private_copies() {
    Cases::new(256).run(|g| {
        let warm = g.vec(0..60, |g| gen_op(g, 2, 32));
        let line = g.u64(0..32);
        let mut h = tiny_hierarchy();
        for op in warm {
            if let Op::CpuRead(c, l) = op {
                h.cpu_read(CoreId::new(c), LineAddr::new(l));
            }
        }
        h.pcie_write(LineAddr::new(line), DmaPlacement::Llc);
        for c in 0..2 {
            assert!(!h.mlc(CoreId::new(c)).contains(LineAddr::new(line)));
            assert!(!h.l1d(CoreId::new(c)).contains(LineAddr::new(line)));
        }
        assert!(h.llc().probe(LineAddr::new(line)).unwrap().dirty);
    });
}

#[test]
fn set_assoc_never_exceeds_capacity() {
    Cases::new(256).run(|g| {
        let inserts = g.vec(1..500, |g| (g.u64(0..256), g.bool()));
        let ways = g.usize(1..8);
        let sets = g.usize(1..8);
        let mut c = SetAssocCache::new("prop", sets, ways);
        let mask = WayMask::all(ways);
        for (line, dirty) in inserts {
            c.insert(LineAddr::new(line), dirty, mask);
            assert!(c.resident_lines() <= c.capacity_lines());
        }
        // Every resident line is findable and in a permitted way.
        let resident: Vec<_> = c.iter().map(|e| e.line).collect();
        for line in resident {
            assert!(c.way_of(line).unwrap() < ways);
        }
    });
}

#[test]
fn set_assoc_insert_then_remove_roundtrips() {
    Cases::new(256).run(|g| {
        let line = g.u64(0..1024);
        let dirty = g.bool();
        let mut c = SetAssocCache::new("prop", 16, 4);
        c.insert(LineAddr::new(line), dirty, WayMask::all(4));
        let e = c.remove(LineAddr::new(line)).unwrap();
        assert_eq!(e.dirty, dirty);
        assert!(!c.contains(LineAddr::new(line)));
        assert_eq!(c.resident_lines(), 0);
    });
}
