//! Per-layer accounting of one workload repetition.
//!
//! Host time is measured from outside, around the calls the benchmark
//! makes into each layer's public functions. Inside `System::run` the
//! split comes from the simulator's own per-event-type wall clock
//! (`SystemConfig::profile_events`), and each handler's whole time is
//! charged to the layer its event enters: cache work done inside
//! `core_wake` and `dma_line` shows up as stack and nic time, and as cache
//! counts.

use std::collections::BTreeMap;
use std::time::Duration;

use idio_core::RunReport;

/// Event type (as the simulator names it) → per-layer metric its handler
/// time is charged to.
pub const HANDLERS: [(&str, &str); 9] = [
    ("arrival", "nic.arrival_s"),
    ("dma_line", "nic.dma_line_s"),
    ("desc_writeback", "nic.desc_writeback_s"),
    ("tx_complete", "nic.tx_complete_s"),
    ("core_wake", "stack.core_wake_s"),
    ("antagonist", "stack.antagonist_s"),
    ("prefetch_issue", "core.prefetch_issue_s"),
    ("control_tick", "core.control_tick_s"),
    ("sample_tick", "core.sample_tick_s"),
];

/// Simulator counter → per-layer count metric, summed over cells.
const COUNTERS: [(&str, &str); 11] = [
    ("fd.perfect_hits", "nic.fd.perfect_hits"),
    ("fd.atr_hits", "nic.fd.atr_hits"),
    ("fd.atr_collisions", "nic.fd.collisions"),
    ("fd.rss_fallbacks", "nic.fd.rss_fallbacks"),
    ("fd.mis_steered", "nic.fd.mis_steered"),
    ("nic.rx.drops", "nic.rx_drops"),
    ("steer.llc", "nic.steer_llc"),
    ("packets.completed", "stack.completed"),
    ("llc.wb", "cache.llc_wb"),
    ("dram.rd", "mem.dram_rd"),
    ("dram.wr", "mem.dram_wr"),
];

/// Where one repetition's host time went and what it simulated.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Scenario file read, parse and `[generate]` expansion.
    pub load_s: f64,
    /// Building the cells' `SystemConfig`s.
    pub config_s: f64,
    /// `System::new`, summed over cells.
    pub system_new_s: f64,
    /// `System::run`, summed over cells.
    pub run_s: f64,
    /// Report building and rendering outside `System::run`.
    pub report_s: f64,
    /// Cells simulated.
    pub cells: u64,
    /// Handler wall clock per event type (zero unless profiled).
    pub handler_s: BTreeMap<&'static str, f64>,
    /// Simulated counts, keyed by per-layer metric name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Layers {
    /// Folds one finished cell in: its `System::new` and `System::run`
    /// host times and its report's counters.
    pub fn add_cell(&mut self, report: &RunReport, new: Duration, run: Duration) {
        self.cells += 1;
        self.system_new_s += new.as_secs_f64();
        self.run_s += run.as_secs_f64();
        for p in &report.profile {
            *self.handler_s.entry(p.name).or_default() += p.wall.as_secs_f64();
            *self.counts.entry("engine.events").or_default() += p.count;
        }
        for (counter, metric) in COUNTERS {
            *self.counts.entry(metric).or_default() += report.metrics.counter(counter);
        }
        let mut steered = 0;
        let (mut recycled, mut starved) = (0, 0);
        for (name, v) in report.metrics.counters() {
            if name.starts_with("steer.") {
                steered += v;
            } else if name.starts_with("pool.q") && name.ends_with(".recycled") {
                recycled += v;
            } else if name.starts_with("pool.q") && name.ends_with(".starved") {
                starved += v;
            }
        }
        let h = &report.hierarchy;
        let (hits, misses) = h.core.iter().fold((0, 0), |(a, b), c| {
            (a + c.mlc_hits.get(), b + c.mlc_misses.get())
        });
        for (metric, v) in [
            ("nic.steer_total", steered),
            ("pool.recycled", recycled),
            ("pool.starved", starved),
            ("cache.mlc_wb", h.total_mlc_wb()),
            ("cache.mlc_hits", hits),
            ("cache.mlc_misses", misses),
            ("core.prefetch_fills", report.totals.prefetch_fills),
            ("core.self_inval", report.totals.self_inval),
        ] {
            *self.counts.entry(metric).or_default() += v;
        }
    }

    /// A summed count (0 when never recorded).
    pub fn count(&self, metric: &str) -> u64 {
        self.counts.get(metric).copied().unwrap_or(0)
    }

    /// Total handler wall clock across event types.
    pub fn handler_total_s(&self) -> f64 {
        self.handler_s.values().sum()
    }

    /// Handler wall clock of one event type (0 when never dispatched).
    pub fn handler(&self, event: &str) -> f64 {
        self.handler_s.get(event).copied().unwrap_or(0.0)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
