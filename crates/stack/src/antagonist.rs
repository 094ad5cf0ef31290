//! The LLCAntagonist workload (Table II).
//!
//! Allocates a buffer and performs dependent random line accesses over it,
//! generating LLC pressure and measuring sensitivity to LLC contention.
//! Sec. VI pins it to a core whose MLC is shrunk to 256 KiB so its working
//! set cannot hide in the private cache.

use idio_cache::addr::{Addr, LineAddr};
use idio_engine::rng::SimRng;
use idio_engine::stats::Counter;
use idio_engine::time::Duration;

/// The co-run antagonist's buffer: as large as the 3 MiB LLC, so its
/// random accesses contend for every LLC way.
pub const BUFFER_BYTES: u64 = 3 << 20;

/// Compute cycles between two dependent accesses.
pub const THINK_CYCLES: u64 = 2;

/// Configuration of the antagonist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntagonistConfig {
    /// Buffer base address.
    pub base: Addr,
    /// Buffer size in bytes.
    pub size_bytes: u64,
}

impl AntagonistConfig {
    /// A [`BUFFER_BYTES`] buffer at `base`.
    pub fn llc_thrashing(base: Addr) -> Self {
        AntagonistConfig {
            base,
            size_bytes: BUFFER_BYTES,
        }
    }
}

/// Runtime statistics of the antagonist.
#[derive(Debug, Clone, Default)]
pub struct AntagonistStats {
    /// Completed accesses.
    pub accesses: Counter,
    /// Total time spent (service latency + think), in picoseconds.
    pub busy_ps: Counter,
}

impl AntagonistStats {
    /// Mean cycles per access at `freq` — the paper's CPI proxy for the
    /// antagonist (each dependent access stands for a fixed instruction
    /// window).
    pub fn cycles_per_access(&self, ps_per_cycle: u64) -> f64 {
        let n = self.accesses.get();
        if n == 0 {
            return 0.0;
        }
        self.busy_ps.get() as f64 / n as f64 / ps_per_cycle as f64
    }
}

/// The antagonist state machine: yields the next line to access.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::Addr;
/// use idio_engine::rng::SimRng;
/// use idio_stack::antagonist::{AntagonistConfig, LlcAntagonist};
///
/// let mut a = LlcAntagonist::new(
///     AntagonistConfig::llc_thrashing(Addr::new(0x4000_0000)),
///     SimRng::seed_from(1),
/// );
/// let l = a.next_line();
/// assert!(l.base().get() >= 0x4000_0000);
/// ```
#[derive(Debug, Clone)]
pub struct LlcAntagonist {
    cfg: AntagonistConfig,
    lines: u64,
    rng: SimRng,
    stats: AntagonistStats,
}

impl LlcAntagonist {
    /// Creates the antagonist.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is smaller than one cache line.
    pub fn new(cfg: AntagonistConfig, rng: SimRng) -> Self {
        let lines = cfg.size_bytes / 64;
        assert!(lines > 0, "antagonist buffer too small");
        LlcAntagonist {
            cfg,
            lines,
            rng,
            stats: AntagonistStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AntagonistConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &AntagonistStats {
        &self.stats
    }

    /// Zeroes the statistics (after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = AntagonistStats::default();
    }

    /// The next (random, dependent) line to access.
    pub fn next_line(&mut self) -> LineAddr {
        self.cfg.base.line().offset(self.rng.below(self.lines))
    }

    /// The buffer as a run of lines, its first line and its length, for
    /// cache warm-up before measurement (Sec. VI: "we warm up caches by
    /// initializing the allocated buffer").
    pub fn warmup_lines(&self) -> (LineAddr, u64) {
        (self.cfg.base.line(), self.lines)
    }

    /// Records a completed access that took `elapsed`.
    pub fn record(&mut self, elapsed: Duration) {
        self.stats.accesses.inc();
        self.stats.busy_ps.add(elapsed.as_ps());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_stay_in_bounds() {
        let cfg = AntagonistConfig {
            base: Addr::new(0x1000),
            size_bytes: 4096,
        };
        let mut a = LlcAntagonist::new(cfg, SimRng::seed_from(3));
        for _ in 0..1000 {
            let l = a.next_line();
            assert!(l.base().get() >= 0x1000);
            assert!(l.base().get() < 0x1000 + 4096);
        }
    }

    #[test]
    fn warmup_covers_every_line_once() {
        let cfg = AntagonistConfig {
            base: Addr::new(0x2000),
            size_bytes: 640,
        };
        let a = LlcAntagonist::new(cfg, SimRng::seed_from(3));
        let (first, lines) = a.warmup_lines();
        assert_eq!(lines, 10);
        assert_eq!(first, Addr::new(0x2000).line());
        assert_eq!(first.offset(9), Addr::new(0x2000 + 9 * 64).line());
    }

    #[test]
    fn cpi_proxy_computation() {
        let cfg = AntagonistConfig::llc_thrashing(Addr::new(0));
        let mut a = LlcAntagonist::new(cfg, SimRng::seed_from(3));
        a.record(Duration::from_ns(10));
        a.record(Duration::from_ns(20));
        // 15 ns mean at 333 ps/cycle = ~45 cycles.
        let cpi = a.stats().cycles_per_access(333);
        assert!((cpi - 45.0).abs() < 0.2, "{cpi}");
    }

    #[test]
    fn deterministic_across_seeds() {
        let cfg = AntagonistConfig::llc_thrashing(Addr::new(0));
        let mut a = LlcAntagonist::new(cfg, SimRng::seed_from(7));
        let mut b = LlcAntagonist::new(cfg, SimRng::seed_from(7));
        for _ in 0..100 {
            assert_eq!(a.next_line(), b.next_line());
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_buffer_rejected() {
        let cfg = AntagonistConfig {
            base: Addr::new(0),
            size_bytes: 32,
        };
        let _ = LlcAntagonist::new(cfg, SimRng::seed_from(0));
    }
}
