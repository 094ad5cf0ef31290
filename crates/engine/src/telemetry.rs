//! Runtime telemetry: a hierarchical metrics registry and a bounded
//! event tracer.
//!
//! I/O-aware cache management lives or dies by runtime observability —
//! the quantities Alg. 1 computes (`mlcWB`, `mlcWBAvg`), DMA-leak and
//! bloating counters, and engine-level anomalies (schedule-in-past
//! clamps, backwards counters, prefetch-queue drops) all need to be
//! *visible* in release builds, not hidden behind `debug_assert!`. This
//! module provides the two primitives the rest of the workspace builds
//! on:
//!
//! * [`MetricsRegistry`] — counters, gauges and histograms registered
//!   under stable dotted names (`nic.dma.lines`, `core0.mlc.wb`,
//!   `prefetch.drops`), with snapshot/delta support and a compact,
//!   deterministic JSON export;
//! * [`Tracer`] — a bounded ring buffer of typed [`TraceRecord`]s
//!   (steering decisions, FSM transitions, queue anomalies, ...) stamped
//!   with [`SimTime`] and filtered per component by a [`TraceFilter`],
//!   exportable as NDJSON.
//!
//! # Determinism contract
//!
//! Everything in this module is a pure function of the operations applied
//! to it: maps are ordered (`BTreeMap`), no wall-clock or thread identity
//! leaks in, and the JSON/NDJSON renderings are byte-stable. Simulations
//! that populate a registry or tracer deterministically therefore export
//! byte-identical telemetry regardless of host, thread count, or repeat
//! count.
//!
//! # Examples
//!
//! ```
//! use idio_engine::telemetry::MetricsRegistry;
//!
//! let mut m = MetricsRegistry::new();
//! m.counter_add("nic.dma.lines", 4);
//! m.counter_inc("prefetch.drops");
//! let before = m.snapshot();
//! m.counter_add("nic.dma.lines", 6);
//! let delta = m.snapshot().delta_since(&before);
//! assert_eq!(delta.counter("nic.dma.lines"), 6);
//! assert_eq!(delta.counter("prefetch.drops"), 0);
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use crate::json;
use crate::time::SimTime;

/// Default capacity of a [`Tracer`] ring buffer.
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// A log2-bucketed histogram of `u64` observations.
///
/// Bucket `i` counts values whose bit length is `i` (bucket 0 holds the
/// value 0, bucket 1 holds 1, bucket 2 holds 2..=3, ...), which is exact
/// enough for latency/occupancy distributions while staying O(1) per
/// record and fully deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[(u64::BITS - value.leading_zeros()) as usize] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or 0 when empty.
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges `other` into `self`: bucket-wise sum with combined
    /// count/sum/min/max. Used to aggregate per-core histograms into a
    /// per-tenant one; merging is associative and commutative, so the
    /// result does not depend on merge order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Upper-bound estimate of the `p`-th percentile (`0.0..=100.0`)
    /// by nearest rank over the log2 buckets: the smallest bucket upper
    /// bound below which at least `ceil(p/100 * count)` observations
    /// fall, clamped into `[min, max]`. The true percentile lies within
    /// a factor of two below the estimate (the bucket width). Returns
    /// `None` when the histogram is empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil().max(1.0) as u64).min(self.count);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                // Upper bound of bucket i (values of bit length i).
                let hi = match i {
                    0 => 0,
                    64.. => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty `(bit_length, count)` buckets in ascending order.
    pub fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u32, n))
    }

    fn to_json(&self) -> String {
        let buckets: Vec<String> = self.buckets().map(|(i, n)| format!("[{i},{n}]")).collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.min,
            self.max,
            buckets.join(",")
        )
    }
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

/// A hierarchical registry of named counters, gauges and histograms.
///
/// Names are stable dotted paths (`engine.schedule_past_clamped`,
/// `core0.mlc.wb`). Metrics are created lazily on first touch; iteration
/// and export order is the lexicographic name order, so the JSON
/// rendering is deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c = c.saturating_add(n);
        } else {
            self.counters.insert(name.to_string(), n);
        }
    }

    /// Adds one to counter `name`.
    pub fn counter_inc(&mut self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Overwrites counter `name` with an absolute value (for folding in
    /// externally maintained monotonic counters at export time).
    pub fn counter_set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Merges a fully built histogram into histogram `name`, creating it
    /// if absent (for folding externally maintained per-core histograms
    /// in at export time, mirroring [`MetricsRegistry::counter_set`]).
    pub fn histogram_merge(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Histogram `name`, if ever recorded into.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// An immutable snapshot of the whole registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Compact JSON rendering of the current state (see
    /// [`MetricsSnapshot::to_json`]).
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// A point-in-time copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Value of counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Counter delta since an `earlier` snapshot of the same registry:
    /// per-counter saturating difference, with counters absent from
    /// `earlier` treated as starting at zero. Gauges and histograms keep
    /// their current (later) values.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }

    /// Compact, single-line, deterministic JSON:
    ///
    /// ```json
    /// {"counters":{"a.b":1},"gauges":{"c":0.5},"histograms":{"h":{...}}}
    /// ```
    pub fn to_json(&self) -> String {
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{v}", json::escape(k)))
            .collect();
        let gauges: Vec<String> = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json::escape(k), json::float(*v)))
            .collect();
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|(k, h)| format!("\"{}\":{}", json::escape(k), h.to_json()))
            .collect();
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// One trace record: a simulated-time-stamped event of a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Component that emitted the record (stable short name, e.g.
    /// `"steer"`, `"fsm"`, `"prefetch"`, `"maint"`, `"event"`).
    pub component: &'static str,
    /// Event name within the component (e.g. `"placement"`).
    pub event: &'static str,
    /// Free-form detail, conventionally `key=value` pairs separated by
    /// single spaces.
    pub detail: String,
}

impl TraceRecord {
    /// One NDJSON line (no trailing newline):
    /// `{"t_ps":1234,"c":"steer","e":"placement","d":"..."}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t_ps\":{},\"c\":\"{}\",\"e\":\"{}\",\"d\":\"{}\"}}",
            self.at.as_ps(),
            json::escape(self.component),
            json::escape(self.event),
            json::escape(&self.detail)
        )
    }
}

/// Renders records as NDJSON, one record per line (with trailing newline
/// after each line; empty input renders as the empty string).
pub fn records_to_ndjson(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json());
        out.push('\n');
    }
    out
}

/// Selects which components a [`Tracer`] records.
///
/// Parsed from strings like `"steer,fsm"`, `"all"` (or `"*"`), and
/// `"off"` (or the empty string).
///
/// # Examples
///
/// ```
/// use idio_engine::telemetry::TraceFilter;
///
/// let f: TraceFilter = "steer,prefetch".parse().unwrap();
/// assert!(f.enables("steer"));
/// assert!(!f.enables("fsm"));
/// assert!(TraceFilter::all().enables("anything"));
/// assert!(!TraceFilter::off().enables("steer"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceFilter {
    all: bool,
    components: BTreeSet<String>,
}

impl TraceFilter {
    /// Records nothing (the default).
    pub fn off() -> Self {
        TraceFilter::default()
    }

    /// Records every component.
    pub fn all() -> Self {
        TraceFilter {
            all: true,
            components: BTreeSet::new(),
        }
    }

    /// Records exactly the given components.
    pub fn components<I: IntoIterator<Item = S>, S: Into<String>>(names: I) -> Self {
        TraceFilter {
            all: false,
            components: names.into_iter().map(Into::into).collect(),
        }
    }

    /// Whether nothing is recorded.
    pub fn is_off(&self) -> bool {
        !self.all && self.components.is_empty()
    }

    /// Whether records of `component` are kept.
    pub fn enables(&self, component: &str) -> bool {
        self.all || self.components.contains(component)
    }
}

impl std::str::FromStr for TraceFilter {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        match s {
            "" | "off" | "none" => Ok(TraceFilter::off()),
            "*" | "all" => Ok(TraceFilter::all()),
            list => {
                let mut components = BTreeSet::new();
                for part in list.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        return Err(format!("empty component in trace filter '{s}'"));
                    }
                    components.insert(part.to_string());
                }
                Ok(TraceFilter {
                    all: false,
                    components,
                })
            }
        }
    }
}

impl fmt::Display for TraceFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.all {
            write!(f, "all")
        } else if self.components.is_empty() {
            write!(f, "off")
        } else {
            let names: Vec<&str> = self.components.iter().map(String::as_str).collect();
            write!(f, "{}", names.join(","))
        }
    }
}

/// A bounded ring buffer of [`TraceRecord`]s.
///
/// When the buffer is full the *oldest* record is evicted (and counted),
/// so the tracer always holds the most recent window of activity. Detail
/// strings are built lazily: [`Tracer::record`] takes a closure that is
/// only invoked when the component passes the filter, so a disabled
/// tracer costs one branch per call site.
///
/// # Examples
///
/// ```
/// use idio_engine::telemetry::{TraceFilter, Tracer};
/// use idio_engine::time::SimTime;
///
/// let mut t = Tracer::new(TraceFilter::all(), 2);
/// t.record(SimTime::from_ns(1), "steer", "placement", || "p=llc".into());
/// t.record(SimTime::from_ns(2), "steer", "placement", || "p=mlc".into());
/// t.record(SimTime::from_ns(3), "steer", "placement", || "p=dram".into());
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.evicted(), 1);
/// assert_eq!(t.records().next().unwrap().detail, "p=mlc");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    filter: TraceFilter,
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    evicted: u64,
    total: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer keeping the most recent `capacity` records of the
    /// components enabled by `filter`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero while the filter enables anything.
    pub fn new(filter: TraceFilter, capacity: usize) -> Self {
        assert!(
            capacity > 0 || filter.is_off(),
            "an enabled tracer needs capacity"
        );
        Tracer {
            filter,
            capacity,
            buf: VecDeque::new(),
            evicted: 0,
            total: 0,
        }
    }

    /// The active filter.
    pub fn filter(&self) -> &TraceFilter {
        &self.filter
    }

    /// Whether `component` would currently be recorded (use to gate
    /// expensive context gathering at call sites).
    #[inline]
    pub fn enabled(&self, component: &str) -> bool {
        self.filter.enables(component)
    }

    /// Records one event if `component` passes the filter. `detail` is
    /// only evaluated when the record is kept.
    pub fn record(
        &mut self,
        at: SimTime,
        component: &'static str,
        event: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        if !self.filter.enables(component) {
            return;
        }
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.evicted += 1;
        }
        self.buf.push_back(TraceRecord {
            at,
            component,
            event,
            detail: detail(),
        });
        self.total += 1;
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total records accepted (held + evicted).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Drains the buffer into a `Vec`, oldest first, leaving the tracer
    /// empty (eviction/total counters are kept).
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        self.buf.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let mut m = MetricsRegistry::new();
        m.counter_add("a.b", 5);
        m.counter_inc("a.b");
        m.counter_inc("x");
        assert_eq!(m.counter("a.b"), 6);
        let snap = m.snapshot();
        m.counter_add("a.b", 4);
        m.counter_inc("fresh");
        let delta = m.snapshot().delta_since(&snap);
        assert_eq!(delta.counter("a.b"), 4);
        assert_eq!(delta.counter("x"), 0);
        assert_eq!(delta.counter("fresh"), 1, "new counters delta from zero");
    }

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let mut m = MetricsRegistry::new();
        m.counter_set("c", u64::MAX - 1);
        m.counter_add("c", 5);
        assert_eq!(m.counter("c"), u64::MAX);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.gauge("g"), None);
        m.gauge_set("g", 0.25);
        m.gauge_set("g", 0.5);
        assert_eq!(m.gauge("g"), Some(0.5));
    }

    #[test]
    fn histogram_tracks_distribution() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        let buckets: Vec<(u32, u64)> = h.buckets().collect();
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 1000 → bucket 10.
        assert_eq!(buckets, vec![(0, 1), (1, 1), (2, 2), (10, 1)]);
    }

    #[test]
    fn histogram_merge_matches_joint_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut joint = Histogram::new();
        for v in [3, 9, 200] {
            a.record(v);
            joint.record(v);
        }
        for v in [0, 1, 7_000] {
            b.record(v);
            joint.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, joint);
        // Merging into / from an empty histogram is the identity.
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        let mut a2 = a.clone();
        a2.merge(&Histogram::new());
        assert_eq!(a2, a);
    }

    #[test]
    fn percentile_is_clamped_bucket_upper_bound() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(50.0), None);
        for v in [10, 20, 40, 600] {
            h.record(v);
        }
        // Ranks 1..=4 land in buckets 4 (10), 5 (20), 6 (40), 10 (600).
        assert_eq!(h.percentile(0.0), Some(15)); // bucket 4 hi, clamped ≥ min
        assert_eq!(h.percentile(50.0), Some(31));
        assert_eq!(h.percentile(75.0), Some(63));
        assert_eq!(h.percentile(99.0), Some(600)); // bucket 10 hi clamped to max
        assert_eq!(h.percentile(100.0), Some(600));
        let mut zeros = Histogram::new();
        zeros.record(0);
        assert_eq!(zeros.percentile(99.0), Some(0));
    }

    #[test]
    fn registry_histogram_merge_folds_external_histograms() {
        let mut m = MetricsRegistry::new();
        let mut h = Histogram::new();
        h.record(5);
        h.record(9);
        m.histogram_merge("core0.lat", &h);
        m.histogram_merge("core0.lat", &h);
        assert_eq!(m.histogram("core0.lat").unwrap().count(), 4);
    }

    #[test]
    fn json_is_sorted_and_compact() {
        let mut m = MetricsRegistry::new();
        m.counter_inc("z.last");
        m.counter_inc("a.first");
        m.gauge_set("share", 0.125);
        let mut lat = Histogram::new();
        lat.record(7);
        m.histogram_merge("lat", &lat);
        let json = m.to_json();
        assert!(!json.contains('\n'), "single line: {json}");
        let a = json.find("a.first").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < z, "counters sorted by name");
        assert!(json.contains("\"share\":0.125"));
        assert!(json.contains("\"lat\":{\"count\":1"));
    }

    #[test]
    fn filter_parses_and_round_trips() {
        for (s, is_off, all) in [
            ("", true, false),
            ("off", true, false),
            ("none", true, false),
            ("*", false, true),
            ("all", false, true),
        ] {
            let f: TraceFilter = s.parse().unwrap();
            assert_eq!(f.is_off(), is_off, "{s}");
            assert_eq!(
                f,
                if all {
                    TraceFilter::all()
                } else {
                    TraceFilter::off()
                }
            );
        }
        let f: TraceFilter = " steer , fsm ".parse().unwrap();
        assert!(f.enables("steer") && f.enables("fsm") && !f.enables("maint"));
        assert_eq!(f.to_string(), "fsm,steer");
        assert!("steer,,fsm".parse::<TraceFilter>().is_err());
    }

    #[test]
    fn tracer_ring_keeps_most_recent() {
        let mut t = Tracer::new(TraceFilter::all(), 3);
        for i in 0..5u64 {
            t.record(SimTime::from_ns(i), "c", "e", || format!("i={i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.evicted(), 2);
        assert_eq!(t.total(), 5);
        let details: Vec<&str> = t.records().map(|r| r.detail.as_str()).collect();
        assert_eq!(details, vec!["i=2", "i=3", "i=4"]);
    }

    #[test]
    fn disabled_component_skips_detail_closure() {
        let mut t = Tracer::new(TraceFilter::components(["steer"]), 4);
        t.record(SimTime::ZERO, "fsm", "x", || {
            panic!("detail built for filtered-out component")
        });
        assert!(t.is_empty());
        t.record(SimTime::ZERO, "steer", "x", || "ok".into());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn ndjson_escapes_and_terminates_lines() {
        let mut t = Tracer::new(TraceFilter::all(), 4);
        t.record(SimTime::from_us(2), "c", "e", || "a\"b".into());
        assert_eq!(
            records_to_ndjson(&t.take_records()),
            "{\"t_ps\":2000000,\"c\":\"c\",\"e\":\"e\",\"d\":\"a\\\"b\"}\n"
        );
        assert!(t.is_empty());
    }

    #[test]
    fn disabled_tracer_is_free_of_capacity_demands() {
        let mut t = Tracer::disabled();
        t.record(SimTime::ZERO, "c", "e", || "x".into());
        assert!(t.is_empty());
        assert_eq!(t.total(), 0);
    }
}
