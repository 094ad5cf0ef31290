//! Host-speed reference kernel.
//!
//! This host's speed moves in phases of 30–100 s, in which memory-bound
//! code runs up to 2.6× slower while an ALU loop barely moves (see
//! `README.md`, "Noise record"). A phase longer than a run cannot be
//! averaged out by any statistic over the run. The benchmark therefore
//! times this fixed kernel between repetitions and scales each
//! repetition's host times by the kernel's time around it.
//!
//! The kernel is random tag lookups in a 4 MiB 8-way set-associative
//! table, the simulator's own access pattern: it misses the private L2
//! and hits the shared L3, where the other guests' load shows. Of the
//! kernels tried (streaming fills and copies, pointer chases, tables of
//! 4, 16 and 32 MiB), it tracked the flow-storm and dc-200 repetitions
//! best, and no kernel tracked paper-quick much better. It is benchmark
//! code, so it is the same on every commit the benchmark compares.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time, in seconds, in a fast phase of the host the
/// benchmark was tuned on. It only sets the scale of the scaled times:
/// a repetition at this kernel time keeps its measured time.
pub const REFERENCE_S: f64 = 0.015;

/// Words in the lookup table (4 MiB), in sets of 8.
const TABLE_WORDS: usize = 1 << 19;
const SETS: usize = TABLE_WORDS / 8;
/// Lookups per measurement.
const LOOKUPS: usize = 2_000_000;

/// The reference kernel and its table, allocated once.
pub struct HostKernel {
    table: Vec<u64>,
}

impl HostKernel {
    pub fn new() -> Self {
        HostKernel {
            table: vec![0; TABLE_WORDS],
        }
    }

    /// How much slower than the reference the host runs the kernel now:
    /// 1.0 at [`REFERENCE_S`].
    ///
    /// An untimed pass first reads the whole table back into the host
    /// caches, so what the last repetition evicted is not charged to the
    /// kernel.
    pub fn slowness(&mut self) -> f64 {
        black_box(self.table.iter().sum::<u64>());
        let t = Instant::now();
        black_box(self.lookups());
        t.elapsed().as_secs_f64() / REFERENCE_S
    }

    /// Random tag lookups, installing each miss in a pseudo-random way.
    /// The sequence is the same on every call.
    fn lookups(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let mut hits = 0;
        for _ in 0..LOOKUPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let set = (x as usize % SETS) * 8;
            let tag = x >> 40;
            let ways = &mut self.table[set..set + 8];
            if ways.contains(&tag) {
                hits += 1;
            } else {
                ways[(x >> 8) as usize & 7] = tag;
            }
        }
        hits
    }
}
