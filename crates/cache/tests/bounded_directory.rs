//! Bounded-directory and replacement-policy configurations of the
//! hierarchy.

use idio_cache::addr::{CoreId, LineAddr};
use idio_cache::config::HierarchyConfig;
use idio_cache::directory::MlcDirectory;
use idio_cache::hierarchy::Hierarchy;
use idio_cache::replacement::ReplacementKind;

const C0: CoreId = CoreId::new(0);
const C1: CoreId = CoreId::new(1);

fn cfg() -> HierarchyConfig {
    HierarchyConfig::paper_default(2)
}

#[test]
fn unbounded_directory_never_evicts() {
    let mut d = MlcDirectory::new(2);
    for i in 0..100_000u64 {
        assert!(d.add(LineAddr::new(i), C0).is_none());
    }
    assert_eq!(d.len(), 100_000);
}

#[test]
fn bounded_directory_evicts_fifo() {
    let mut d = MlcDirectory::with_capacity(2, Some(3));
    assert!(d.add(LineAddr::new(1), C0).is_none());
    assert!(d.add(LineAddr::new(2), C1).is_none());
    assert!(d.add(LineAddr::new(3), C0).is_none());
    let ev = d.add(LineAddr::new(4), C0).expect("capacity eviction");
    assert_eq!(ev.line, LineAddr::new(1));
    assert_eq!(ev.holder, C0);
    assert_eq!(d.len(), 3);
    assert!(!d.is_cached(LineAddr::new(1)));
    assert!(d.is_cached(LineAddr::new(4)));
}

#[test]
fn re_add_does_not_trigger_eviction() {
    let mut d = MlcDirectory::with_capacity(2, Some(2));
    assert!(d.add(LineAddr::new(1), C0).is_none());
    assert!(d.add(LineAddr::new(2), C0).is_none());
    // Re-adding the holder of an existing entry is not a new entry.
    assert!(d.add(LineAddr::new(1), C0).is_none());
    assert_eq!(d.holder(LineAddr::new(1)), Some(C0));
    assert_eq!(d.len(), 2);
}

#[test]
fn stale_queue_entries_are_skipped() {
    let mut d = MlcDirectory::with_capacity(2, Some(2));
    let _ = d.add(LineAddr::new(1), C0);
    let _ = d.add(LineAddr::new(2), C0);
    d.remove(LineAddr::new(1), C0); // leaves a stale order entry
    assert!(
        d.add(LineAddr::new(3), C0).is_none(),
        "room freed by remove"
    );
    // Next insertion must evict line 2 (1 is stale), not panic.
    let ev = d.add(LineAddr::new(4), C0).unwrap();
    assert_eq!(ev.line, LineAddr::new(2));
}

#[test]
#[should_panic(expected = "capacity must be positive")]
fn zero_capacity_rejected() {
    let _ = MlcDirectory::with_capacity(2, Some(0));
}

#[test]
fn hierarchy_back_invalidates_on_directory_pressure() {
    let mut c = cfg();
    c.directory_entries = Some(64);
    let mut h = Hierarchy::new(c);
    // Touch far more than 64 distinct lines: older MLC lines must be
    // back-invalidated to keep the directory consistent.
    for i in 0..1000u64 {
        h.cpu_write(C0, LineAddr::new(i * 7));
    }
    assert!(h.stats().shared.dir_back_invalidations.get() > 0);
    // The MLC holds at most directory-capacity lines now.
    assert!(h.mlc(C0).resident_lines() <= 64);
    h.check_invariants();
}

#[test]
fn back_invalidated_dirty_lines_are_preserved_in_llc() {
    let mut c = cfg();
    c.directory_entries = Some(8);
    let mut h = Hierarchy::new(c);
    for i in 0..32u64 {
        h.cpu_write(C0, LineAddr::new(i));
    }
    // The displaced dirty lines must still be readable (from LLC or DRAM),
    // i.e. no data was silently dropped: a re-read never panics and the
    // invariants hold.
    for i in 0..32u64 {
        h.cpu_read(C0, LineAddr::new(i));
    }
    h.check_invariants();
}

#[test]
fn hierarchy_accepts_every_replacement_policy() {
    for kind in [
        ReplacementKind::Lru,
        ReplacementKind::TreePlru,
        ReplacementKind::Srrip,
        ReplacementKind::Random,
    ] {
        let mut c = cfg();
        c.private_replacement = kind;
        // The 12-way LLC cannot use tree-PLRU (not a power of two).
        c.llc_replacement = if kind == ReplacementKind::TreePlru {
            ReplacementKind::Lru
        } else {
            kind
        };
        let mut h = Hierarchy::new(c);
        for i in 0..10_000u64 {
            h.cpu_read(C0, LineAddr::new(i % 3000));
            if i % 3 == 0 {
                h.pcie_write(
                    LineAddr::new(i % 500),
                    idio_cache::hierarchy::DmaPlacement::Llc,
                );
            }
        }
        h.check_invariants();
        assert_eq!(h.mlc(C0).replacement_kind(), kind);
    }
}

#[test]
fn llc_replacement_changes_victim_pattern() {
    // Identical access streams under LRU vs Random LLC replacement should
    // (with overwhelming probability) produce different writeback counts.
    let run = |kind| {
        let mut c = cfg();
        c.llc_replacement = kind;
        let mut h = Hierarchy::new(c);
        for i in 0..200_000u64 {
            h.cpu_write(C0, LineAddr::new(i % 70_000));
        }
        h.stats().shared.llc_wb.get()
    };
    let lru = run(ReplacementKind::Lru);
    let random = run(ReplacementKind::Random);
    assert_ne!(lru, random);
}
