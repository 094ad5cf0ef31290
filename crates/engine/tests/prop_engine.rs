//! Randomized property tests for the simulation engine: the event queue is
//! a stable time-ordered priority queue, and the statistics primitives
//! compute exact values. Driven by the in-repo deterministic harness
//! (`idio_engine::check`) — the build environment has no crates.io access.

use std::collections::BTreeMap;

use idio_engine::check::Cases;
use idio_engine::queue::EventQueue;
use idio_engine::stats::{LatencyRecorder, RateSampler};
use idio_engine::telemetry::MetricsRegistry;
use idio_engine::time::{Duration, SimTime};

#[test]
fn queue_pops_sorted_and_stable() {
    Cases::new(256).run(|g| {
        let times = g.vec(1..200, |g| g.u64(0..10_000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ps(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                assert!(at >= lt, "time order");
                if at == lt {
                    assert!(idx > lidx, "FIFO among ties");
                }
            }
            assert_eq!(SimTime::from_ps(times[idx]), at, "payload matches schedule");
            last = Some((at, idx));
        }
        assert_eq!(q.now(), SimTime::from_ps(*times.iter().max().unwrap()));
    });
}

#[test]
fn percentiles_match_sorted_reference() {
    Cases::new(256).run(|g| {
        let mut samples = g.vec(1..500, |g| g.u64(0..1_000_000));
        let p = g.u64(1..101) as u8;
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            rec.record(Duration::from_ps(s));
        }
        samples.sort_unstable();
        let rank = ((f64::from(p) / 100.0) * samples.len() as f64).ceil() as usize;
        let expected = samples[rank.saturating_sub(1)];
        assert_eq!(
            rec.percentile(f64::from(p)),
            Some(Duration::from_ps(expected))
        );
    });
}

#[test]
fn rate_sampler_recovers_total() {
    Cases::new(256).run(|g| {
        let counts = g.vec(1..100, |g| g.u64(0..1000));
        let interval = Duration::from_us(10);
        let mut s = RateSampler::new("prop", interval);
        let mut acc = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            acc += c;
            s.sample(SimTime::from_us((i as u64 + 1) * 10), acc);
        }
        // Integrating the rate series recovers the total event count.
        let recovered: f64 = s
            .series()
            .samples()
            .map(|smp| smp.value * interval.as_secs_f64())
            .sum();
        assert!((recovered - acc as f64).abs() < 1e-6 * acc.max(1) as f64);
    });
}

/// The compact series (a `u32` count per tick, implicit timestamps,
/// values derived on read) must reproduce, bit for bit, the
/// `(at, delta / interval * scale)` samples a sampler storing `f64`s
/// would hold — across zero deltas, backwards counters and deltas too
/// wide for a `u32`.
#[test]
fn compact_rate_series_matches_f64_reference_bit_for_bit() {
    fn bits(v: &[(SimTime, f64)]) -> Vec<(SimTime, u64)> {
        v.iter().map(|&(at, x)| (at, x.to_bits())).collect()
    }
    fn stats(v: &[(SimTime, f64)]) -> [u64; 3] {
        let vals = || v.iter().map(|&(_, x)| x);
        let mean = if v.is_empty() {
            0.0
        } else {
            vals().sum::<f64>() / v.len() as f64
        };
        [
            vals().fold(0.0, f64::max).to_bits(),
            mean.to_bits(),
            vals().sum::<f64>().to_bits(),
        ]
    }
    Cases::new(256).run(|g| {
        let interval = Duration::from_ps(g.u64(1..20_000_000));
        let scale = *g.choose(&[1.0, 1e-6, 0.1]);
        let mut s = RateSampler::scaled("prop", interval, scale);
        let mut reference: Vec<(SimTime, f64)> = Vec::new();
        let (mut counter, mut last, mut backwards) = (0u64, 0u64, 0u64);
        let ticks = g.usize(0..200);
        for i in 0..ticks {
            counter = match g.u64(0..6) {
                0 => counter,                                // zero delta
                1 => counter - counter.min(g.u64(1..1_000)), // backwards
                2 => counter.saturating_add(g.u64(u64::from(u32::MAX) - 1..1 << 62)),
                _ => counter.saturating_add(g.u64(0..100_000)),
            };
            let at = SimTime::ZERO + interval * (i as u64 + 1);
            s.sample(at, counter);
            // The f64 expression a sampler storing values used.
            backwards += u64::from(counter < last);
            let delta = counter.saturating_sub(last);
            last = counter;
            reference.push((at, (delta as f64 / interval.as_secs_f64()) * scale));
        }
        let series = s.series();
        let got: Vec<(SimTime, f64)> = series.samples().map(|x| (x.at, x.value)).collect();
        assert_eq!(bits(&got), bits(&reference), "samples");
        assert_eq!(series.len(), reference.len());
        assert_eq!(s.backwards_samples(), backwards);
        let got_stats = [
            series.max_value().to_bits(),
            series.mean().to_bits(),
            series.sum().to_bits(),
        ];
        assert_eq!(got_stats, stats(&reference), "max, mean, sum");

        let horizon = interval.as_ps() * (ticks as u64 + 2);
        let (a, b) = (g.u64(0..horizon), g.u64(0..horizon));
        let (start, end) = (SimTime::from_ps(a.min(b)), SimTime::from_ps(a.max(b)));
        let want: Vec<(SimTime, f64)> = (reference.iter())
            .filter(|&&(at, _)| start <= at && at < end)
            .copied()
            .collect();
        let w = series.window(start, end);
        let got: Vec<(SimTime, f64)> = w.samples().map(|x| (x.at, x.value)).collect();
        assert_eq!(bits(&got), bits(&want), "window [{start}, {end})");
        assert_eq!(w.len(), want.len());
        let got_stats = [
            w.max_value().to_bits(),
            w.mean().to_bits(),
            w.sum().to_bits(),
        ];
        assert_eq!(got_stats, stats(&want), "window max, mean, sum");
    });
}

#[test]
fn rate_series_keeps_at_most_four_heap_bytes_per_sample() {
    const TICKS: u64 = 100_000;
    let interval = Duration::from_us(10);
    let mut s = RateSampler::scaled("mlc_wb", interval, 1e-6);
    for i in 1..=TICKS {
        s.sample(SimTime::ZERO + interval * i, i * 37);
    }
    let series = s.into_series();
    assert_eq!(series.len() as u64, TICKS);
    assert!(
        series.heap_bytes() as u64 <= 4 * TICKS,
        "{} heap bytes for {TICKS} samples",
        series.heap_bytes()
    );
}

#[test]
fn registry_delta_equals_sum_of_increments() {
    // A snapshot delta must account for exactly the increments applied
    // between the two snapshots — no more, no less — for any interleaving
    // of counter names and increment sizes.
    const NAMES: [&str; 5] = [
        "nic.dma.lines",
        "core0.mlc.wb",
        "prefetch.drops",
        "llc.wb",
        "engine.events.arrival",
    ];
    Cases::new(256).run(|g| {
        let mut reg = MetricsRegistry::new();
        let ops = g.vec(1..200, |g| (*g.choose(&NAMES), g.u64(0..1000)));
        let split = g.usize(0..ops.len() + 1);

        let mut before_sums: BTreeMap<&str, u64> = BTreeMap::new();
        for &(name, n) in &ops[..split] {
            reg.counter_add(name, n);
            *before_sums.entry(name).or_default() += n;
        }
        let mid = reg.snapshot();

        let mut after_sums: BTreeMap<&str, u64> = BTreeMap::new();
        for &(name, n) in &ops[split..] {
            reg.counter_add(name, n);
            *after_sums.entry(name).or_default() += n;
        }
        let end = reg.snapshot();

        // Absolute values: snapshot equals the total of all increments.
        for &name in &NAMES {
            let total = before_sums.get(name).copied().unwrap_or(0)
                + after_sums.get(name).copied().unwrap_or(0);
            assert_eq!(end.counter(name), total, "total for {name}");
            assert_eq!(
                mid.counter(name),
                before_sums.get(name).copied().unwrap_or(0)
            );
        }

        // Delta: exactly the increments applied after the mid snapshot.
        let delta = end.delta_since(&mid);
        for &name in &NAMES {
            assert_eq!(
                delta.counter(name),
                after_sums.get(name).copied().unwrap_or(0),
                "delta for {name}"
            );
        }
        // And nothing else: every counter present in the delta was named.
        for (name, _) in delta.counters() {
            assert!(NAMES.contains(&name), "unexpected counter {name}");
        }
    });
}

#[test]
fn wire_time_scales_linearly() {
    Cases::new(256).run(|g| {
        let bytes = g.u64(1..100_000);
        let gbps = g.u32(1..400);
        let one = idio_engine::time::wire_time(bytes, f64::from(gbps));
        let two = idio_engine::time::wire_time(bytes * 2, f64::from(gbps));
        let diff = two.as_ps() as i128 - 2 * one.as_ps() as i128;
        assert!(diff.abs() <= 1, "rounding only: {diff}");
    });
}
