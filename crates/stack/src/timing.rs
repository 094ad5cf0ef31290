//! The parametric core timing model.
//!
//! The paper's evaluation runs an out-of-order aarch64 core in gem5; here a
//! core is a service-time model: each line access costs a latency decided
//! by where it hit, divided by a memory-level-parallelism (MLP) factor for
//! levels the core can overlap, plus a small per-line compute cost. The
//! constants below are calibrated (see `DESIGN.md`) so the CPU keeps up with
//! 10 Gbps/core, roughly matches 25 Gbps, and falls behind 100 Gbps — the
//! regime structure all of the paper's burst observations depend on.

use idio_cache::hierarchy::HitLevel;
use idio_engine::time::{Duration, Freq};

/// Core clock (Table I: 3 GHz).
pub const FREQ: Freq = Freq::from_ghz(3.0);
/// L1D hit cost in cycles (Table I: 2 CC).
pub const L1_CYCLES: u64 = 2;
/// MLC hit cost in cycles: Table I's 12 CC plus lookup overheads.
pub const MLC_CYCLES: u64 = 14;
/// LLC hit cost in cycles, including the mesh round trip (Table I lists
/// 24 CC for the array alone).
pub const LLC_CYCLES: u64 = 60;
/// Cache-to-cache transfer cost in cycles.
pub const REMOTE_CYCLES: u64 = 80;
/// Extra cycles on an LLC miss before DRAM takes over (miss handling).
pub const LLC_MISS_OVERHEAD_CYCLES: u64 = 20;
/// Memory-level parallelism applied to DRAM accesses (sequential buffer
/// touching is prefetch/overlap friendly).
pub const DRAM_MLP: u64 = 4;
/// Per-line compute cost in cycles (load + checksum-ish work).
pub const PER_LINE_WORK_CYCLES: u64 = 6;
/// Fixed per-packet software overhead in cycles (descriptor parsing, mbuf
/// bookkeeping, API crossing).
pub const PER_PACKET_CYCLES: u64 = 300;
/// Cost of one empty PMD poll iteration, in cycles.
pub const POLL_CYCLES: u64 = 60;
/// Fixed cost of a non-empty `rx_burst` call in cycles (amortised over a
/// batch).
pub const BATCH_CYCLES: u64 = 80;
/// Cost of one self-invalidate instruction (per line), in cycles.
pub const INVALIDATE_CYCLES: u64 = 1;

const fn cycles(c: u64) -> Duration {
    FREQ.cycles_to_duration(c)
}

/// Access and software costs of one core, from the constants above.
///
/// # Examples
///
/// ```
/// use idio_cache::hierarchy::HitLevel;
/// use idio_engine::time::Duration;
/// use idio_stack::timing::CoreTiming;
///
/// let mlc = CoreTiming::hit_cost(HitLevel::Mlc);
/// let llc = CoreTiming::hit_cost(HitLevel::Llc);
/// assert!(llc > mlc, "LLC residency costs more than MLC residency");
/// let dram = CoreTiming::dram_cost(Duration::from_ns(60));
/// assert!(dram > llc);
/// ```
pub struct CoreTiming;

impl CoreTiming {
    /// Cost of one demand line access that a cache served at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is [`HitLevel::Dram`]: a DRAM access costs the
    /// memory model's latency, so it is charged by
    /// [`CoreTiming::dram_cost`].
    pub fn hit_cost(level: HitLevel) -> Duration {
        let hit = match level {
            HitLevel::L1 => L1_CYCLES,
            HitLevel::Mlc => MLC_CYCLES,
            HitLevel::Llc => LLC_CYCLES,
            HitLevel::RemoteMlc => REMOTE_CYCLES,
            HitLevel::Dram => panic!("a DRAM access is charged by dram_cost"),
        };
        cycles(hit + PER_LINE_WORK_CYCLES)
    }

    /// Cost of one demand line access served from DRAM, where `latency`
    /// is the memory model's queue-aware completion latency for it. The
    /// core overlaps it [`DRAM_MLP`] ways.
    pub fn dram_cost(latency: Duration) -> Duration {
        let overlapped = Duration::from_ps(latency.as_ps() / DRAM_MLP);
        cycles(LLC_MISS_OVERHEAD_CYCLES + PER_LINE_WORK_CYCLES) + overlapped
    }

    /// Cost of one *dependent* line access served from DRAM
    /// (pointer-chasing style, as the LLCAntagonist performs): the
    /// latency is fully exposed, with no memory-level-parallelism
    /// overlap. A dependent cache hit costs [`CoreTiming::hit_cost`].
    pub fn dram_cost_dependent(latency: Duration) -> Duration {
        cycles(LLC_MISS_OVERHEAD_CYCLES + PER_LINE_WORK_CYCLES) + latency
    }

    /// Fixed per-packet software cost.
    pub fn per_packet() -> Duration {
        cycles(PER_PACKET_CYCLES)
    }

    /// Cost of an empty poll iteration.
    pub fn poll() -> Duration {
        cycles(POLL_CYCLES)
    }

    /// Fixed cost of a non-empty `rx_burst`.
    pub fn batch() -> Duration {
        cycles(BATCH_CYCLES)
    }

    /// Cost of self-invalidating `lines` cache lines.
    pub fn invalidate(lines: u32) -> Duration {
        cycles(INVALIDATE_CYCLES * u64::from(lines))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_ordering_matches_hierarchy() {
        let l1 = CoreTiming::hit_cost(HitLevel::L1);
        let mlc = CoreTiming::hit_cost(HitLevel::Mlc);
        let llc = CoreTiming::hit_cost(HitLevel::Llc);
        let remote = CoreTiming::hit_cost(HitLevel::RemoteMlc);
        let dram = CoreTiming::dram_cost(Duration::from_ns(60));
        assert!(l1 < mlc && mlc < llc && llc < remote);
        // With MLP overlap DRAM may undercut a remote-MLC transfer, but it
        // must stay costlier than an LLC hit.
        assert!(dram > llc);
    }

    #[test]
    fn dram_mlp_overlaps_latency() {
        // A dependent access exposes all 80 ns; an overlapped one a quarter.
        let dram = Duration::from_ns(80);
        let serial = CoreTiming::dram_cost_dependent(dram);
        let overlapped = CoreTiming::dram_cost(dram);
        assert_eq!(DRAM_MLP, 4);
        assert_eq!(serial - overlapped, Duration::from_ns(60));
    }

    #[test]
    fn regime_structure_holds() {
        // 1514-byte TouchDrop packet: 24 payload + 2 desc + 2 mbuf lines.
        let service_mlc = CoreTiming::per_packet()
            + CoreTiming::hit_cost(HitLevel::Mlc) * 28
            + CoreTiming::batch() / 32;
        let service_llc = CoreTiming::per_packet()
            + CoreTiming::hit_cost(HitLevel::Llc) * 24
            + CoreTiming::hit_cost(HitLevel::Mlc) * 4
            + CoreTiming::batch() / 32;
        let at_100g = idio_engine::time::wire_time(1514, 100.0);
        let at_25g = idio_engine::time::wire_time(1514, 25.0);
        let at_10g = idio_engine::time::wire_time(1514, 10.0);
        // 100 Gbps: even all-MLC service falls behind the wire.
        assert!(service_mlc > at_100g, "{service_mlc} vs {at_100g}");
        // 25 Gbps: MLC residency keeps up, LLC residency does not.
        assert!(service_mlc < at_25g);
        assert!(service_llc > at_25g, "{service_llc} vs {at_25g}");
        // 10 Gbps: even LLC residency keeps up.
        assert!(service_llc < at_10g);
    }

    #[test]
    #[should_panic(expected = "charged by dram_cost")]
    fn a_dram_access_has_no_hit_cost() {
        CoreTiming::hit_cost(HitLevel::Dram);
    }

    #[test]
    fn invalidate_cost_scales_with_lines() {
        assert_eq!(CoreTiming::invalidate(24), CoreTiming::invalidate(12) * 2);
    }
}
