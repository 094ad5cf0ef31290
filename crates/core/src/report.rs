//! Run reports: sampled timelines, latency summaries, burst windows.
//!
//! Everything the paper's figures plot is assembled here from the raw
//! counters: 10 µs-sampled MTPS rate timelines (Figs. 5, 9, 11, 13),
//! aggregate transaction counts (Fig. 10), p50/p99 latency (Fig. 12), and
//! per-burst processing times ("Exe Time").

use std::collections::BTreeMap;
use std::fmt::Write as _;

use idio_cache::addr::CoreId;
use idio_cache::stats::HierarchyStats;
use idio_engine::stats::{LatencyRecorder, TimeSeries};
use idio_engine::telemetry::{MetricsSnapshot, TraceRecord};
use idio_engine::time::{Duration, SimTime};

use crate::policy::SteeringPolicy;

/// Percentile summary of one workload's packet latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Mean.
    pub mean: Duration,
    /// Number of completed packets.
    pub count: usize,
}

impl LatencySummary {
    /// Builds a summary from a recorder; `None` when nothing completed.
    pub fn from_recorder(r: &mut LatencyRecorder) -> Option<Self> {
        if r.is_empty() {
            return None;
        }
        Some(LatencySummary {
            p50: r.percentile(50.0)?,
            p99: r.percentile(99.0)?,
            mean: r.mean()?,
            count: r.count(),
        })
    }
}

/// One burst's processing window: from the first DMA transaction to the
/// completion of the last packet of the burst (the paper's "Exe Time").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstWindow {
    /// Burst index (arrival time divided by the burst period).
    pub index: u64,
    /// First DMA transaction of the burst.
    pub first_dma: SimTime,
    /// Last DMA transaction of the burst (end of the DMA phase).
    pub dma_end: SimTime,
    /// Completion of the last packet (end of the execution phase).
    pub exec_end: SimTime,
    /// Packets processed in the burst.
    pub packets: u64,
}

impl BurstWindow {
    /// The burst processing time.
    pub fn exe_time(&self) -> Duration {
        self.exec_end.saturating_since(self.first_dma)
    }
}

/// Mean exe time over a burst sequence: drops the first `skip` (warm-up)
/// bursts, ignores incomplete windows (a DMA was recorded but no packet
/// completed, so `exe_time` would read as a bogus zero-length burst), and
/// rounds the picosecond mean to nearest instead of truncating.
fn mean_exe_over<'a, I>(windows: I, skip: usize) -> Option<Duration>
where
    I: Iterator<Item = &'a BurstWindow>,
{
    let (mut total, mut n) = (0u64, 0u64);
    for b in windows.skip(skip).filter(|b| b.packets > 0) {
        total += b.exe_time().as_ps();
        n += 1;
    }
    if n == 0 {
        return None;
    }
    Some(Duration::from_ps((total + n / 2) / n))
}

/// Tracks per-burst windows during a run.
#[derive(Debug, Clone)]
pub struct BurstTracker {
    period: Duration,
    windows: BTreeMap<u64, BurstWindow>,
}

impl BurstTracker {
    /// Creates a tracker for traffic with the given burst period.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn new(period: Duration) -> Self {
        assert!(period > Duration::ZERO, "burst period must be positive");
        BurstTracker {
            period,
            windows: BTreeMap::new(),
        }
    }

    /// The burst period the tracker windows arrivals by.
    pub fn period(&self) -> Duration {
        self.period
    }

    fn index(&self, arrival: SimTime) -> u64 {
        arrival.as_ps() / self.period.as_ps()
    }

    /// Records a DMA transaction for a packet that arrived at `arrival`.
    pub fn record_dma(&mut self, arrival: SimTime, dma_at: SimTime) {
        let idx = self.index(arrival);
        let w = self.windows.entry(idx).or_insert(BurstWindow {
            index: idx,
            first_dma: dma_at,
            dma_end: dma_at,
            exec_end: dma_at,
            packets: 0,
        });
        w.first_dma = w.first_dma.min(dma_at);
        w.dma_end = w.dma_end.max(dma_at);
    }

    /// Records the completion of a packet that arrived at `arrival`.
    pub fn record_completion(&mut self, arrival: SimTime, done_at: SimTime) {
        let idx = self.index(arrival);
        if let Some(w) = self.windows.get_mut(&idx) {
            w.exec_end = w.exec_end.max(done_at);
            w.packets += 1;
        }
    }

    /// The recorded windows, in burst order.
    pub fn windows(&self) -> Vec<BurstWindow> {
        self.windows.values().copied().collect()
    }

    /// Mean exe time over complete bursts, skipping the first `skip`
    /// (warm-up) bursts. Windows with no completed packets are excluded —
    /// a burst whose packets are still in flight has no exe time yet.
    pub fn mean_exe_time(&self, skip: usize) -> Option<Duration> {
        mean_exe_over(self.windows.values(), skip)
    }
}

/// The sampled rate timelines of one run (all in MTPS except DMA rate).
#[derive(Debug, Clone)]
pub struct Timelines {
    /// MLC writeback rate (all cores).
    pub mlc_wb: TimeSeries,
    /// LLC writeback (to DRAM) rate.
    pub llc_wb: TimeSeries,
    /// DRAM read transaction rate.
    pub dram_rd: TimeSeries,
    /// DRAM write transaction rate.
    pub dram_wr: TimeSeries,
    /// Inbound DMA (PCIe write) transaction rate.
    pub dma_wr: TimeSeries,
    /// MLC prefetch fill rate.
    pub prefetch: TimeSeries,
    /// Self-invalidation rate.
    pub self_inval: TimeSeries,
    /// Gauge: fraction of LLC *capacity* occupied by DMA buffer lines —
    /// the direct measurement of *DMA bloating* (Sec. III, observation 3).
    pub dma_llc_share: TimeSeries,
}

/// Final counters of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTotals {
    /// MLC writebacks (all cores).
    pub mlc_wb: u64,
    /// MLC invalidations by DMA.
    pub mlc_inval_by_dma: u64,
    /// LLC writebacks to DRAM.
    pub llc_wb: u64,
    /// DRAM line reads.
    pub dram_rd: u64,
    /// DRAM line writes.
    pub dram_wr: u64,
    /// Inbound PCIe writes.
    pub pcie_wr: u64,
    /// Prefetch fills into MLCs.
    pub prefetch_fills: u64,
    /// Self-invalidated lines.
    pub self_inval: u64,
    /// Packets delivered by the NIC.
    pub rx_packets: u64,
    /// Packets dropped at full rings.
    pub rx_drops: u64,
    /// Packets fully processed by NFs.
    pub completed_packets: u64,
}

/// Per-core demand hit-level breakdown (fractions over all demand line
/// accesses the core issued).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitBreakdown {
    /// L1D hit fraction.
    pub l1: f64,
    /// MLC hit fraction.
    pub mlc: f64,
    /// LLC hit fraction.
    pub llc: f64,
    /// DRAM fraction.
    pub dram: f64,
    /// Total demand line accesses.
    pub accesses: u64,
}

/// Per-event-type profile of the engine loop of one run.
///
/// `count` is deterministic (a pure function of config and seed); `wall`
/// is host wall-clock attributed to the event type's handler and stays
/// zero unless [`crate::config::SystemConfig::profile_events`] was set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventTypeProfile {
    /// Stable event-type name (e.g. `"dma_line"`).
    pub name: &'static str,
    /// Times this event type was dispatched.
    pub count: u64,
    /// Host wall-clock spent in its handler (zero when not profiled).
    pub wall: std::time::Duration,
}

/// Complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy that produced the run.
    pub policy: SteeringPolicy,
    /// Simulated time at the end of the run.
    pub finished_at: SimTime,
    /// Aggregate counters.
    pub totals: RunTotals,
    /// Full hierarchy statistics snapshot.
    pub hierarchy: HierarchyStats,
    /// Sampled timelines.
    pub timelines: Timelines,
    /// Per-NF-core latency summaries.
    pub latency: Vec<(CoreId, LatencySummary)>,
    /// Per-burst windows (empty for steady traffic).
    pub bursts: Vec<BurstWindow>,
    /// Antagonist cycles-per-access (CPI proxy), if an antagonist ran.
    pub antagonist_cpa: Option<f64>,
    /// Final metrics registry snapshot (stable dotted names; see
    /// `DESIGN.md` for the naming scheme). Deterministic.
    pub metrics: MetricsSnapshot,
    /// Trace records kept by the run's tracer (empty when tracing is
    /// off). Deterministic.
    pub trace: Vec<TraceRecord>,
    /// Engine-loop dispatch profile, one entry per event type in stable
    /// order.
    pub profile: Vec<EventTypeProfile>,
    /// Per-control-tick NDJSON timeline (empty unless
    /// `SystemConfig::tick_metrics` is set). Each entry is one complete
    /// JSON object: steering-mix delta since the previous tick, per-core
    /// prefetch-FSM states, and the CAT allocator's state when one is
    /// configured. Deterministic.
    pub tick_metrics: Vec<String>,
}

impl RunReport {
    /// MLC writebacks of the NF cores only (cores `0..n`), excluding a
    /// co-running antagonist's private-cache churn. This is the quantity
    /// the paper's Fig. 10 compares in co-run scenarios.
    pub fn nf_mlc_wb(&self, nf_cores: usize) -> u64 {
        self.hierarchy
            .core
            .iter()
            .take(nf_cores)
            .map(|c| c.mlc_wb.get())
            .sum()
    }

    /// Demand hit-level breakdown for `core`, derived from the hierarchy
    /// counters. `None` when the core issued no demand accesses.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn hit_breakdown(&self, core: CoreId) -> Option<HitBreakdown> {
        let c = self.hierarchy.core(core);
        let l1 = c.l1_hits.get();
        let mlc = c.mlc_hits.get();
        let misses = c.mlc_misses.get();
        let total = l1 + mlc + misses;
        if total == 0 {
            return None;
        }
        // Exact per-core attribution: the hierarchy counts each core's
        // demand LLC hits and DRAM fills separately, so a mixed run no
        // longer smears one tenant's misses across every core. (The small
        // remainder of `misses` is cache-to-cache transfers, which land in
        // neither bucket.)
        let llc = c.llc_hits.get();
        let dram = c.llc_misses.get();
        Some(HitBreakdown {
            l1: l1 as f64 / total as f64,
            mlc: mlc as f64 / total as f64,
            llc: llc as f64 / total as f64,
            dram: dram as f64 / total as f64,
            accesses: total,
        })
    }

    /// Mean burst processing time, skipping `skip` warm-up bursts and
    /// any window with no completed packets.
    pub fn mean_exe_time(&self, skip: usize) -> Option<Duration> {
        mean_exe_over(self.bursts.iter(), skip)
    }

    /// Worst p99 latency across NF cores.
    pub fn p99(&self) -> Option<Duration> {
        self.latency.iter().map(|(_, s)| s.p99).max()
    }

    /// Worst p50 latency across NF cores.
    pub fn p50(&self) -> Option<Duration> {
        self.latency.iter().map(|(_, s)| s.p50).max()
    }
}

/// Per-column totals of per-core or per-queue count rows.
pub(crate) fn column_sums<const N: usize>(rows: &[[u64; N]]) -> [u64; N] {
    rows.iter()
        .fold([0; N], |acc, r| std::array::from_fn(|i| acc[i] + r[i]))
}

/// Appends `{"k0":v0,"k1":v1,...}`: one keyed-count object of the tick
/// log, rendered from the same key table its report metrics use.
pub(crate) fn write_counts(line: &mut String, keys: &[&str], values: &[u64]) {
    for (i, (key, v)) in keys.iter().zip(values).enumerate() {
        let _ = write!(line, "{}\"{key}\":{v}", if i == 0 { '{' } else { ',' });
    }
    line.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_tracker_windows() {
        let mut t = BurstTracker::new(Duration::from_ms(10));
        // Burst 0: two packets.
        t.record_dma(SimTime::from_us(1), SimTime::from_us(2));
        t.record_dma(SimTime::from_us(3), SimTime::from_us(4));
        t.record_completion(SimTime::from_us(1), SimTime::from_us(50));
        t.record_completion(SimTime::from_us(3), SimTime::from_us(90));
        // Burst 1.
        t.record_dma(SimTime::from_ms(10), SimTime::from_ms(10));
        t.record_completion(SimTime::from_ms(10), SimTime::from_ms(11));
        let w = t.windows();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].packets, 2);
        assert_eq!(w[0].exe_time(), Duration::from_us(88));
        assert_eq!(w[1].index, 1);
    }

    #[test]
    fn mean_exe_skips_warmup() {
        let mut t = BurstTracker::new(Duration::from_ms(10));
        t.record_dma(SimTime::ZERO, SimTime::ZERO);
        t.record_completion(SimTime::ZERO, SimTime::from_us(100));
        t.record_dma(SimTime::from_ms(10), SimTime::from_ms(10));
        t.record_completion(
            SimTime::from_ms(10),
            SimTime::from_ms(10) + Duration::from_us(50),
        );
        assert_eq!(t.mean_exe_time(0), Some(Duration::from_us(75)));
        assert_eq!(t.mean_exe_time(1), Some(Duration::from_us(50)));
        assert_eq!(t.mean_exe_time(2), None);
    }

    /// Regression: a window whose packets never completed (DMA recorded,
    /// no completion) used to be averaged in as a zero-length burst,
    /// dragging the mean down. It must be excluded.
    #[test]
    fn mean_exe_ignores_incomplete_windows() {
        let mut t = BurstTracker::new(Duration::from_ms(10));
        t.record_dma(SimTime::ZERO, SimTime::ZERO);
        t.record_completion(SimTime::ZERO, SimTime::from_us(100));
        // Second burst: DMA arrives but nothing completes before the run
        // ends. Old code averaged this in as exe_time == 0 → 50 µs mean.
        t.record_dma(SimTime::from_ms(10), SimTime::from_ms(10));
        assert_eq!(t.mean_exe_time(0), Some(Duration::from_us(100)));
        // Only incomplete windows left after the warm-up skip → no mean.
        assert_eq!(t.mean_exe_time(1), None);
    }

    /// Regression: the picosecond mean used to truncate; it must round to
    /// nearest (1 ps + 2 ps → 1.5 ps → 2 ps, not 1 ps).
    #[test]
    fn mean_exe_rounds_to_nearest() {
        let mut t = BurstTracker::new(Duration::from_ms(10));
        t.record_dma(SimTime::ZERO, SimTime::ZERO);
        t.record_completion(SimTime::ZERO, SimTime::from_ps(1));
        t.record_dma(SimTime::from_ms(10), SimTime::from_ms(10));
        t.record_completion(
            SimTime::from_ms(10),
            SimTime::from_ms(10) + Duration::from_ps(2),
        );
        assert_eq!(t.mean_exe_time(0), Some(Duration::from_ps(2)));
    }

    /// `RunReport::mean_exe_time` shares the same exclusion + rounding
    /// rules as the tracker.
    #[test]
    fn report_mean_exe_matches_tracker_rules() {
        let complete = BurstWindow {
            index: 0,
            first_dma: SimTime::ZERO,
            dma_end: SimTime::from_us(1),
            exec_end: SimTime::from_us(80),
            packets: 4,
        };
        let incomplete = BurstWindow {
            index: 1,
            first_dma: SimTime::from_ms(10),
            dma_end: SimTime::from_ms(10),
            exec_end: SimTime::from_ms(10),
            packets: 0,
        };
        let bursts = [complete, incomplete];
        assert_eq!(mean_exe_over(bursts.iter(), 0), Some(Duration::from_us(80)));
        assert_eq!(mean_exe_over(bursts.iter(), 1), None);
    }

    #[test]
    fn latency_summary_from_recorder() {
        let mut r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(Duration::from_us(i));
        }
        let s = LatencySummary::from_recorder(&mut r).unwrap();
        assert_eq!(s.p50, Duration::from_us(50));
        assert_eq!(s.p99, Duration::from_us(99));
        assert_eq!(s.count, 100);
        let mut empty = LatencyRecorder::new();
        assert!(LatencySummary::from_recorder(&mut empty).is_none());
    }

    #[test]
    fn completions_without_dma_are_ignored() {
        let mut t = BurstTracker::new(Duration::from_ms(1));
        t.record_completion(SimTime::ZERO, SimTime::from_us(5));
        assert!(t.windows().is_empty());
    }
}
