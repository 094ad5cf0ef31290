//! Statistics primitives: counters, rate-sampled time series, and
//! percentile histograms.
//!
//! The evaluation figures of the paper are all built from three kinds of
//! measurement:
//!
//! * monotonically increasing **event counters** (MLC writebacks, LLC
//!   writebacks, DRAM reads/writes, ...) — [`Counter`];
//! * counter **rates sampled on a fixed interval** (the 10 µs sampling used
//!   for Figs. 5, 9, 11, 13) — [`RateSampler`] producing a [`TimeSeries`];
//! * **latency distributions** (Fig. 12's p50/p99) — [`LatencyRecorder`].

use crate::time::{Duration, SimTime};

/// A monotonically increasing event counter.
///
/// # Examples
///
/// ```
/// use idio_engine::stats::Counter;
///
/// let mut c = Counter::default();
/// c.inc();
/// c.add(4);
/// assert_eq!(c.get(), 5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Difference since an earlier snapshot of the same counter.
    ///
    /// Counters never decrease, so a "later" value below `earlier` is a
    /// caller bug; the difference saturates to zero (identically in debug
    /// and release — this used to debug-panic but wrap in release).
    #[inline]
    pub fn delta_since(self, earlier: Counter) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

/// One sample of a time series: the interval end time and a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// End of the sampling interval.
    pub at: SimTime,
    /// Sampled value (meaning depends on the series, e.g. events/s).
    pub value: f64,
}

/// Marks a tick whose count does not fit in a `u32`; the count itself is
/// kept in [`TimeSeries::wide`].
const WIDE: u32 = u32::MAX;

/// A sequence of evenly spaced samples, e.g. a writeback-rate timeline.
///
/// The series stores one integer count per tick, 4 bytes a sample.
/// Timestamps are implied by the tick index: tick `i` is at
/// `first + i·step`, where the first push fixes `first`. Values are
/// derived on read as `(count as f64 / divisor) * scale`. For the rate
/// series of a [`RateSampler`] the divisor is the interval in seconds,
/// the exact expression the sampler has always used, so derived values
/// are bit-identical to storing the computed `f64`. A count too wide for
/// a `u32` is kept whole in a sparse side table, never truncated.
///
/// # Examples
///
/// ```
/// use idio_engine::stats::TimeSeries;
/// use idio_engine::time::{Duration, SimTime};
///
/// // Lines of a 4-line cache that hold DMA data, gauged every 10 µs.
/// let mut ts = TimeSeries::ratio("dma_share", Duration::from_us(10), 4);
/// ts.push(SimTime::from_us(10), 2);
/// ts.push(SimTime::from_us(20), 4);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.max_value(), 1.0);
/// assert_eq!(ts.mean(), 0.75);
/// assert_eq!(ts.samples().next_back().unwrap().at, SimTime::from_us(20));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    /// Time of tick 0, fixed by the first push.
    first: SimTime,
    step: Duration,
    divisor: f64,
    scale: f64,
    /// One count per tick; [`WIDE`] defers to `wide`.
    counts: Vec<u32>,
    /// `(tick, count)` for every tick whose count is at least `u32::MAX`,
    /// in tick order.
    wide: Vec<(usize, u64)>,
}

impl TimeSeries {
    /// A ratio gauge over ticks `step` apart: a tick's value is
    /// `count / denominator`.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn ratio(name: impl Into<String>, step: Duration, denominator: u64) -> Self {
        Self::new(name, step, denominator as f64, 1.0)
    }

    fn new(name: impl Into<String>, step: Duration, divisor: f64, scale: f64) -> Self {
        assert!(step > Duration::ZERO, "sampling interval must be positive");
        TimeSeries {
            name: name.into(),
            first: SimTime::ZERO,
            step,
            divisor,
            scale,
            counts: Vec::new(),
            wide: Vec::new(),
        }
    }

    /// The series name (used as a column header in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends the count of the tick at `at`.
    ///
    /// # Panics
    ///
    /// Panics unless `at` is the next tick, one `step` after the previous
    /// one: timestamps are implied by the tick index, so a late or early
    /// tick would be reported at the wrong time.
    pub fn push(&mut self, at: SimTime, count: u64) {
        if self.counts.is_empty() {
            self.first = at;
        } else {
            assert_eq!(
                at,
                self.tick_at(self.counts.len()),
                "{}: sample ticks must be {} apart",
                self.name,
                self.step
            );
        }
        match u32::try_from(count) {
            Ok(c) if c != WIDE => self.counts.push(c),
            _ => {
                self.wide.push((self.counts.len(), count));
                self.counts.push(WIDE);
            }
        }
    }

    fn tick_at(&self, i: usize) -> SimTime {
        self.first + self.step * i as u64
    }

    fn value_at(&self, i: usize) -> f64 {
        let count = match self.counts[i] {
            WIDE => self.wide[self.wide.partition_point(|&(t, _)| t < i)].1,
            c => u64::from(c),
        };
        (count as f64 / self.divisor) * self.scale
    }

    fn values(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.counts.len()).map(|i| self.value_at(i))
    }

    /// All samples in time order, derived from the stored counts.
    pub fn samples(&self) -> impl DoubleEndedIterator<Item = Sample> + ExactSizeIterator + '_ {
        (0..self.counts.len()).map(|i| Sample {
            at: self.tick_at(i),
            value: self.value_at(i),
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Makes room for `samples` more samples, so a series whose length
    /// is known up front is filled without regrowing (and copying) it.
    pub fn reserve(&mut self, samples: usize) {
        self.counts.reserve_exact(samples);
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Largest sample value, or 0.0 when empty.
    pub fn max_value(&self) -> f64 {
        self.values().fold(0.0, f64::max)
    }

    /// Mean of the sample values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.values().sum::<f64>() / self.counts.len() as f64
    }

    /// Sum of sample values.
    pub fn sum(&self) -> f64 {
        self.values().sum()
    }

    /// Heap bytes held by the samples (the name excluded): 4 per tick's
    /// capacity, plus the side table of counts too wide for a `u32`.
    pub fn heap_bytes(&self) -> usize {
        self.counts.capacity() * std::mem::size_of::<u32>()
            + self.wide.capacity() * std::mem::size_of::<(usize, u64)>()
    }

    /// Number of ticks strictly before `t`.
    fn ticks_before(&self, t: SimTime) -> usize {
        let n = t
            .checked_since(self.first)
            .map_or(0, |d| d.as_ps().div_ceil(self.step.as_ps()));
        usize::try_from(n).map_or(self.len(), |n| n.min(self.len()))
    }

    /// Restricts the series to samples with `start <= at < end`.
    pub fn window(&self, start: SimTime, end: SimTime) -> TimeSeries {
        let lo = self.ticks_before(start);
        let hi = self.ticks_before(end).max(lo);
        TimeSeries {
            name: self.name.clone(),
            first: self.tick_at(lo),
            step: self.step,
            divisor: self.divisor,
            scale: self.scale,
            counts: self.counts[lo..hi].to_vec(),
            wide: (self.wide.iter())
                .filter(|(t, _)| (lo..hi).contains(t))
                .map(|&(t, c)| (t - lo, c))
                .collect(),
        }
    }
}

/// Turns counter deltas into a rate [`TimeSeries`].
///
/// Call [`RateSampler::sample`] on every sampling tick with the current
/// counter value; the series records the delta and reports it as
/// `(delta / interval)` in events per second (or, for a sampler built
/// with [`RateSampler::scaled`], any scaled unit such as MTPS).
#[derive(Debug, Clone)]
pub struct RateSampler {
    series: TimeSeries,
    last_value: u64,
    backwards: u64,
}

impl RateSampler {
    /// Creates a sampler with a fixed interval, reporting events per
    /// second.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(name: impl Into<String>, interval: Duration) -> Self {
        Self::scaled(name, interval, 1.0)
    }

    /// Creates a sampler reporting `rate_per_sec * scale` — e.g.
    /// `scale = 1e-6` for MTPS (million transactions per second).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn scaled(name: impl Into<String>, interval: Duration, scale: f64) -> Self {
        RateSampler {
            series: TimeSeries::new(name, interval, interval.as_secs_f64(), scale),
            last_value: 0,
            backwards: 0,
        }
    }

    /// Records the rate over the interval ending at `at`, which must be
    /// one interval after the previous sample (see [`TimeSeries::push`]).
    ///
    /// Counters are expected to be monotonic. A `counter_value` below the
    /// previous one (a counter that was reset without
    /// [`RateSampler::reset`]) records a 0-rate sample, re-baselines on
    /// the new value, and is counted in
    /// [`RateSampler::backwards_samples`] — identically in debug and
    /// release builds — so the anomaly is observable as telemetry
    /// (`stats.counter_backwards`) rather than a debug-only panic.
    pub fn sample(&mut self, at: SimTime, counter_value: u64) {
        if counter_value < self.last_value {
            self.backwards += 1;
        }
        let delta = counter_value.saturating_sub(self.last_value);
        self.last_value = counter_value;
        self.series.push(at, delta);
    }

    /// Re-baselines the sampler on `counter_value` without emitting a
    /// sample. Use this when the underlying counter is legitimately reset
    /// (e.g. a sampler reused across runs after `reset_stats`), so the
    /// first sample of the new run measures a real delta instead of
    /// tripping the backwards-counter detection.
    pub fn reset(&mut self, counter_value: u64) {
        self.last_value = counter_value;
    }

    /// Number of samples whose counter value went backwards (each
    /// recorded as a 0-rate sample).
    pub fn backwards_samples(&self) -> u64 {
        self.backwards
    }

    /// Makes room for `samples` more samples (see [`TimeSeries::reserve`]).
    pub fn reserve(&mut self, samples: usize) {
        self.series.reserve(samples);
    }

    /// The accumulated series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Consumes the sampler, returning the series trimmed to its length.
    pub fn into_series(mut self) -> TimeSeries {
        self.series.counts.shrink_to_fit();
        self.series.wide.shrink_to_fit();
        self.series
    }
}

/// Records individual latency observations and reports percentiles.
///
/// Observations are stored exactly (the simulations here record at most a
/// few hundred thousand packets), so percentiles are exact.
///
/// # Examples
///
/// ```
/// use idio_engine::stats::LatencyRecorder;
/// use idio_engine::time::Duration;
///
/// let mut r = LatencyRecorder::new();
/// for us in 1..=100 {
///     r.record(Duration::from_us(us));
/// }
/// assert_eq!(r.percentile(50.0), Some(Duration::from_us(50)));
/// assert_eq!(r.percentile(99.0), Some(Duration::from_us(99)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<Duration>,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, latency: Duration) {
        self.samples.push(latency);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency, or `None` when empty.
    pub fn mean(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let total: u128 = self.samples.iter().map(|d| d.as_ps() as u128).sum();
        Some(Duration::from_ps(
            (total / self.samples.len() as u128) as u64,
        ))
    }

    /// Maximum latency, or `None` when empty.
    pub fn max(&self) -> Option<Duration> {
        self.samples.iter().copied().max()
    }

    /// Exact percentile (nearest-rank method), or `None` when empty.
    ///
    /// `p == 0` reports the minimum and `p == 100` the maximum.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<Duration> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        // Nearest rank = ceil(p/100 · n), clamped into [1, n]. The clamp is
        // explicit: p == 0 means rank 1 (the minimum), and float rounding at
        // p == 100 must never index past the end. The previous code leaned on
        // `saturating_sub(1)` to absorb the rank-0 case, which hid the
        // boundary instead of defining it.
        let n = self.samples.len();
        let rank = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n);
        Some(self.samples[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_delta() {
        let mut c = Counter::new();
        c.add(10);
        let snap = c;
        c.add(7);
        assert_eq!(c.delta_since(snap), 7);
    }

    #[test]
    fn rate_sampler_computes_events_per_second() {
        let mut s = RateSampler::new("x", Duration::from_us(10));
        let mut c = Counter::new();
        c.add(100);
        s.sample(SimTime::from_us(10), c.get());
        // 100 events / 10 us = 1e7 events/s.
        assert!((s.series().samples().next().unwrap().value - 1e7).abs() < 1e-3);

        let mut m = RateSampler::scaled("x", Duration::from_us(10), 1e-6);
        m.sample(SimTime::from_us(10), 50);
        // 50 events / 10 us = 5e6/s = 5 MTPS.
        assert!((m.series().samples().next().unwrap().value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn sampler_reused_across_runs_via_reset() {
        // Regression: a sampler re-pointed at a freshly reset counter used
        // to debug-panic ("counter went backwards") while silently
        // emitting a 0-rate sample in release. reset() re-baselines
        // explicitly and keeps both profiles identical.
        let mut s = RateSampler::new("x", Duration::from_us(10));
        s.sample(SimTime::from_us(10), 500);
        assert_eq!(s.backwards_samples(), 0);

        // Run 2: counters restarted from zero; reset instead of sampling.
        s.reset(0);
        s.sample(SimTime::from_us(20), 100);
        assert_eq!(s.backwards_samples(), 0, "reset path is not an anomaly");
        let v = s.series().samples().nth(1).unwrap().value;
        assert!((v - 1e7).abs() < 1e-3, "fresh delta measured: {v}");
    }

    #[test]
    fn backwards_counter_is_counted_not_fatal() {
        let mut s = RateSampler::new("x", Duration::from_us(10));
        s.sample(SimTime::from_us(10), 500);
        // No reset: the backwards value is absorbed as a 0-rate sample
        // and counted.
        s.sample(SimTime::from_us(20), 100);
        assert_eq!(s.backwards_samples(), 1);
        assert_eq!(s.series().samples().nth(1).unwrap().value, 0.0);
        // The sampler re-baselines, so the next sample is a real rate.
        s.sample(SimTime::from_us(30), 200);
        assert_eq!(s.backwards_samples(), 1);
        assert!((s.series().samples().nth(2).unwrap().value - 1e7).abs() < 1e-3);
    }

    #[test]
    fn time_series_window() {
        let mut ts = TimeSeries::ratio("w", Duration::from_us(10), 1);
        for i in 0..10 {
            ts.push(SimTime::from_us(i * 10), i);
        }
        let w = ts.window(SimTime::from_us(20), SimTime::from_us(50));
        let got: Vec<(u64, f64)> = w.samples().map(|s| (s.at.as_us(), s.value)).collect();
        assert_eq!(got, [(20, 2.0), (30, 3.0), (40, 4.0)]);
        assert!(ts.window(SimTime::from_us(95), SimTime::MAX).is_empty());
        assert_eq!(ts.window(SimTime::ZERO, SimTime::from_us(1)).len(), 1);
    }

    #[test]
    fn counts_too_wide_for_u32_are_kept_whole() {
        let mut ts = TimeSeries::ratio("w", Duration::from_us(10), 1);
        let counts = [7, u64::from(u32::MAX), u64::MAX, 0, u64::from(u32::MAX) + 1];
        for (i, &c) in counts.iter().enumerate() {
            ts.push(SimTime::from_us(10 * (i as u64 + 1)), c);
        }
        let got: Vec<f64> = ts.samples().map(|s| s.value).collect();
        let want: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        assert_eq!(got, want);
        let w = ts.window(SimTime::from_us(30), SimTime::from_us(60));
        assert_eq!(w.samples().map(|s| s.value).collect::<Vec<_>>(), want[2..]);
    }

    #[test]
    #[should_panic(expected = "apart")]
    fn uneven_ticks_are_rejected() {
        let mut ts = TimeSeries::ratio("w", Duration::from_us(10), 1);
        ts.push(SimTime::from_us(10), 1);
        ts.push(SimTime::from_us(25), 1);
    }

    #[test]
    fn latency_percentiles_exact() {
        let mut r = LatencyRecorder::new();
        // Insert in reverse to exercise sorting.
        for us in (1..=1000).rev() {
            r.record(Duration::from_us(us));
        }
        assert_eq!(r.percentile(50.0), Some(Duration::from_us(500)));
        assert_eq!(r.percentile(99.0), Some(Duration::from_us(990)));
        assert_eq!(r.percentile(100.0), Some(Duration::from_us(1000)));
        assert_eq!(r.max(), Some(Duration::from_us(1000)));
        assert_eq!(r.mean(), Some(Duration::from_ps(500_500_000)));
    }

    #[test]
    fn latency_single_sample() {
        let mut r = LatencyRecorder::new();
        r.record(Duration::from_ns(42));
        assert_eq!(r.percentile(50.0), Some(Duration::from_ns(42)));
        assert_eq!(r.percentile(99.0), Some(Duration::from_ns(42)));
    }

    #[test]
    fn empty_recorder_returns_none() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.percentile(99.0), None);
        assert_eq!(r.mean(), None);
        assert!(r.is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn percentile_out_of_range_panics() {
        let mut r = LatencyRecorder::new();
        r.record(Duration::ZERO);
        let _ = r.percentile(-1.0);
    }

    #[test]
    fn percentile_zero_is_minimum() {
        let mut r = LatencyRecorder::new();
        for us in [40, 10, 30] {
            r.record(Duration::from_us(us));
        }
        assert_eq!(r.percentile(0.0), Some(Duration::from_us(10)));
        assert_eq!(r.percentile(100.0), Some(Duration::from_us(40)));
    }

    /// Nearest-rank percentile against a naive reference: count how many
    /// sorted samples the rank covers by scanning, never by arithmetic.
    /// Exercises the extreme percentiles (0, ~1, 100) whose ranks the old
    /// `saturating_sub` masked, across sample sizes 1..64.
    #[test]
    fn percentile_matches_naive_reference() {
        fn naive(sorted: &[Duration], p: f64) -> Duration {
            // Reference nearest-rank: the smallest sample with at least
            // p percent of the distribution at or below it.
            let n = sorted.len();
            for (i, &v) in sorted.iter().enumerate() {
                if (i + 1) as f64 * 100.0 / n as f64 >= p {
                    return v;
                }
            }
            sorted[n - 1]
        }

        crate::check::Cases::new(200).run(|g| {
            let n = g.usize(1..64);
            let mut r = LatencyRecorder::new();
            let mut samples: Vec<Duration> = (0..n)
                .map(|_| Duration::from_ps(g.u64(0..1_000_000)))
                .collect();
            for &s in &samples {
                r.record(s);
            }
            samples.sort_unstable();
            for p in [0.0, 0.5, 0.99, 1.0, 50.0, 99.0, 100.0] {
                assert_eq!(
                    r.percentile(p),
                    Some(naive(&samples, p)),
                    "p={p} n={n} samples={samples:?}"
                );
            }
        });
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_rejected() {
        let _ = RateSampler::new("x", Duration::ZERO);
    }
}
