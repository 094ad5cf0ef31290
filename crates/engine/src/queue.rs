//! A deterministic discrete-event queue.
//!
//! Events of any payload type `E` are scheduled at absolute [`SimTime`]s and
//! popped in time order. Ties are broken by insertion order (FIFO), which
//! makes simulations deterministic regardless of payload contents.
//!
//! # Structure
//!
//! The queue is a hierarchical bucketed (calendar-queue-style) scheduler
//! tuned for the near-monotonic insert pattern of packet simulations,
//! where almost every event lands within a few hundred nanoseconds of
//! `now()`:
//!
//! * an **active heap** holds every event in the current time bucket (or
//!   earlier, for clamped inserts) and is the only structure `pop` and
//!   `peek` ever look at;
//! * a **bucket ring** of [`NUM_BUCKETS`] fixed-width future buckets
//!   ([`BUCKET_WIDTH_PS`] ps each) gives O(1) insert for everything within
//!   the ~134 µs horizon — the common case for DMA lines, wakeups and
//!   descriptor writebacks;
//! * a **far heap** absorbs the rare event beyond the horizon (control
//!   ticks, long timeouts) and is drained into the ring as time advances.
//!
//! Every event is keyed by `(at, seq)` and each structure preserves that
//! total order, so the pop sequence is byte-for-byte identical to the
//! previous single-`BinaryHeap` implementation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{Duration, SimTime};

/// log2 of the bucket width in picoseconds: 2^17 ps ≈ 131 ns, about one
/// full-size packet time at 100 GbE — adjacent arrivals usually share a
/// bucket or hit neighbouring ones.
const BUCKET_SHIFT: u32 = 17;
/// Bucket width in picoseconds.
pub const BUCKET_WIDTH_PS: u64 = 1 << BUCKET_SHIFT;
/// Number of future buckets in the ring; together with the width this
/// puts the horizon at ~134 µs.
pub const NUM_BUCKETS: usize = 1024;

#[inline]
fn bucket_of(at: SimTime) -> u64 {
    at.as_ps() >> BUCKET_SHIFT
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we want the earliest event.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue driving a discrete-event simulation.
///
/// The queue tracks the current simulated time: [`EventQueue::pop`] advances
/// `now()` to the timestamp of the event it returns. Scheduling an event in
/// the past is a model bug, but one that must behave identically in debug
/// and release builds: the timestamp is always clamped to `now()` and the
/// anomaly is counted ([`EventQueue::schedule_past_clamped`]) so callers can
/// surface it as telemetry (`engine.schedule_past_clamped`) instead of it
/// being silently absorbed.
///
/// # Examples
///
/// ```
/// use idio_engine::queue::EventQueue;
/// use idio_engine::time::{Duration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_after(Duration::from_ns(10), "b");
/// q.schedule_after(Duration::from_ns(5), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_ns(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_ns(10), "b")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Events in the active bucket (or earlier). Invariant: non-empty
    /// whenever the queue is non-empty, so `pop`/`peek` never search.
    active: BinaryHeap<Scheduled<E>>,
    /// Future buckets, indexed by `bucket % NUM_BUCKETS`. Slot `b` is
    /// live for absolute buckets in `(active_bucket, active_bucket +
    /// NUM_BUCKETS)`; the window's residues are all distinct and never
    /// collide with the active bucket's own residue, so a slot never
    /// mixes two buckets.
    ring: Box<[Vec<Scheduled<E>>]>,
    /// Total events currently stored in `ring`.
    ring_len: usize,
    /// Events beyond the ring horizon, ordered; drained forward as the
    /// active bucket advances.
    far: BinaryHeap<Scheduled<E>>,
    /// Absolute index of the bucket the active heap covers.
    active_bucket: u64,
    len: usize,
    seq: u64,
    now: SimTime,
    clamped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            active: BinaryHeap::new(),
            ring: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            ring_len: 0,
            far: BinaryHeap::new(),
            active_bucket: 0,
            len: 0,
            seq: 0,
            now: SimTime::ZERO,
            clamped: 0,
        }
    }

    /// The current simulated time — the timestamp of the last popped event.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Routes one keyed event to the structure owning its bucket.
    #[inline]
    fn place(&mut self, s: Scheduled<E>) {
        let b = bucket_of(s.at);
        if b <= self.active_bucket {
            self.active.push(s);
        } else if b - self.active_bucket < NUM_BUCKETS as u64 {
            self.ring[(b % NUM_BUCKETS as u64) as usize].push(s);
            self.ring_len += 1;
        } else {
            self.far.push(s);
        }
    }

    /// Moves far-heap events that the current window can hold into the
    /// ring (or active heap). Called whenever `active_bucket` advances so
    /// the far heap never shadows a live ring slot.
    fn drain_far(&mut self) {
        while let Some(s) = self.far.peek() {
            if bucket_of(s.at) >= self.active_bucket + NUM_BUCKETS as u64 {
                break;
            }
            let s = self.far.pop().expect("peeked");
            self.place(s);
        }
    }

    /// Restores the invariant that the active heap is non-empty whenever
    /// the queue is non-empty, advancing the active bucket through the
    /// ring (or jumping straight to the far heap's first bucket).
    fn settle(&mut self) {
        while self.active.is_empty() {
            if self.ring_len == 0 {
                let Some(first_far) = self.far.peek() else {
                    return; // queue fully empty
                };
                // Nothing inside the horizon: jump, don't crawl.
                self.active_bucket = bucket_of(first_far.at);
            } else {
                self.active_bucket += 1;
            }
            self.drain_far();
            let slot = &mut self.ring[(self.active_bucket % NUM_BUCKETS as u64) as usize];
            if !slot.is_empty() {
                self.ring_len -= slot.len();
                self.active.extend(slot.drain(..));
            }
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// An `at` earlier than `now()` is clamped to `now()` — identically in
    /// debug and release builds — and counted; see
    /// [`EventQueue::schedule_past_clamped`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = self.clamp_to_now(at);
        let seq = self.seq;
        self.seq += 1;
        self.place(Scheduled { at, seq, event });
        self.len += 1;
        self.settle();
    }

    /// `at`, or `now()` if `at` lies in the past (counted in
    /// [`EventQueue::schedule_past_clamped`]).
    #[inline]
    fn clamp_to_now(&mut self, at: SimTime) -> SimTime {
        if at < self.now {
            self.clamped += 1;
            self.now
        } else {
            at
        }
    }

    /// Schedules `event` after `delay` from the current time.
    pub fn schedule_after(&mut self, delay: Duration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` at the current time (runs after already-queued
    /// events with the same timestamp).
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Re-schedules the continuation of an event that has already been
    /// popped, **reusing its original tie-break sequence number** instead
    /// of allocating a new one.
    ///
    /// This exists for handlers that spread one logical event over a time
    /// span (batched DMA application) and must yield to interleaved
    /// events: the continuation keeps the parent's position in the FIFO
    /// tie-break, so splitting an event is unobservable in the pop order.
    /// `seq` must come from an event this queue popped (it is never
    /// re-issued to new events). An `at` in the past is clamped to
    /// `now()` and counted, exactly as in [`EventQueue::schedule_at`].
    pub fn schedule_resume(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(seq < self.seq, "resume seq was never issued");
        let at = self.clamp_to_now(at);
        self.place(Scheduled { at, seq, event });
        self.len += 1;
        self.settle();
    }

    /// The sequence number the next `schedule_*` call will assign. Lets a
    /// caller embed an event's own tie-break key in its payload (see
    /// [`EventQueue::schedule_resume`]) by reading it just before
    /// scheduling.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Number of events whose requested timestamp lay in the past and was
    /// clamped to `now()`. A nonzero value indicates a model bug upstream
    /// (an event handler computing a completion time earlier than the
    /// event it is handling); the queue keeps the simulation causal either
    /// way, and this counter makes the anomaly observable.
    #[inline]
    pub fn schedule_past_clamped(&self) -> u64 {
        self.clamped
    }

    /// `(timestamp, sequence)` key of the next event, if any. The key is
    /// the queue's total order: an event with a smaller key pops first.
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.active.peek().map(|s| (s.at, s.seq))
    }

    /// Pops the earliest event, advancing `now()` to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.active.pop()?;
        debug_assert!(s.at >= self.now, "event queue returned out-of-order event");
        self.now = s.at;
        self.len -= 1;
        self.settle();
        Some((s.at, s.event))
    }

    /// Drops all pending events without changing the current time.
    pub fn clear(&mut self) {
        self.active.clear();
        for slot in self.ring.iter_mut() {
            slot.clear();
        }
        self.ring_len = 0;
        self.far.clear();
        self.len = 0;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Cases;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(30), 3);
        q.schedule_at(SimTime::from_ns(10), 1);
        q.schedule_at(SimTime::from_ns(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_broken_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), "first");
        q.pop();
        q.schedule_after(Duration::from_ns(5), "second");
        assert_eq!(q.pop(), Some((SimTime::from_ns(15), "second")));
    }

    #[test]
    fn scheduling_into_past_clamps_and_counts_in_every_profile() {
        // Regression: this used to panic under debug_assertions but
        // silently clamp in release — the same input now behaves
        // identically in both profiles.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), "on-time");
        q.pop();
        assert_eq!(q.schedule_past_clamped(), 0);
        q.schedule_at(SimTime::from_ns(5), "late");
        assert_eq!(q.schedule_past_clamped(), 1);
        // The clamped event fires at now(), not at its stale timestamp,
        // so time never runs backwards.
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "late")));
        assert_eq!(q.now(), SimTime::from_ns(10));
    }

    #[test]
    fn clamped_events_keep_fifo_order_at_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), 0);
        q.pop();
        q.schedule_now(1);
        q.schedule_at(SimTime::from_ns(3), 2); // clamped to 10ns
        q.schedule_now(3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3], "clamp preserves insertion order");
        assert_eq!(q.schedule_past_clamped(), 1);
    }

    #[test]
    fn peek_does_not_advance_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), ());
        assert_eq!(q.peek_key(), Some((SimTime::from_ns(10), 0)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn clear_keeps_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), 1);
        q.pop();
        q.schedule_after(Duration::from_ns(1), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_ns(10));
    }

    #[test]
    fn far_horizon_events_pop_in_order() {
        // Events far beyond the ring horizon (and straddling it) must
        // still come out sorted, including after the empty-ring jump.
        let mut q = EventQueue::new();
        let horizon_ps = BUCKET_WIDTH_PS * NUM_BUCKETS as u64;
        let times = [
            5 * horizon_ps,
            1,
            horizon_ps,
            horizon_ps + 1,
            3 * horizon_ps + 7,
            2 * horizon_ps,
        ];
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_ps(*t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t.as_ps());
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
    }

    #[test]
    fn ring_wraps_across_many_horizons() {
        // March time forward over several full ring generations so every
        // slot is reused with a different absolute bucket.
        let mut q = EventQueue::new();
        let step = BUCKET_WIDTH_PS * 3 + 17;
        let mut expect = Vec::new();
        for i in 0..2_000u64 {
            let t = i * step;
            q.schedule_at(SimTime::from_ps(t), i);
            expect.push(t);
        }
        let mut popped = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t.as_ps());
        }
        assert_eq!(popped, expect);
    }

    #[test]
    fn peek_key_exposes_pop_order_key() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), "a"); // seq 0
        q.schedule_at(SimTime::from_ns(10), "b"); // seq 1
        assert_eq!(q.peek_key(), Some((SimTime::from_ns(10), 0)));
        q.pop();
        assert_eq!(q.peek_key(), Some((SimTime::from_ns(10), 1)));
        q.pop();
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn resume_keeps_parents_tie_break_position() {
        // A popped event's continuation scheduled with its original seq
        // must pop ahead of same-time events that were scheduled later.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), "parent"); // seq 0
        let (t0, _) = q.pop().expect("parent");
        q.schedule_at(SimTime::from_ns(20), "rival"); // seq 1, same time
        q.schedule_resume(SimTime::from_ns(20), 0, "continuation");
        assert_eq!(t0, SimTime::from_ns(10));
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), "continuation")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(20), "rival")));
    }

    #[test]
    fn resume_into_past_clamps_and_counts_in_every_profile() {
        // Regression: a past resume used to panic under debug_assertions
        // but clamp silently in release, the split schedule_at once had.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_ns(10), "parent"); // seq 0
        q.pop();
        q.schedule_now("rival"); // seq 1, at now()
        q.schedule_resume(SimTime::from_ns(4), 0, "continuation");
        assert_eq!(q.schedule_past_clamped(), 1);
        // Clamped to now(), the continuation keeps the parent's seq and
        // so pops ahead of the rival scheduled before it.
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "continuation")));
        assert_eq!(q.pop(), Some((SimTime::from_ns(10), "rival")));
        assert_eq!(q.now(), SimTime::from_ns(10));
    }

    /// Reference model: the exact (at, seq) sort the old single-heap
    /// implementation produced.
    #[test]
    fn matches_reference_model_on_random_workloads() {
        Cases::new(60).run(|g| {
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, u64, u32)> = Vec::new(); // (at, seq, id)
            let mut seq = 0u64;
            let mut now = 0u64;
            let ops = g.usize(1..400);
            let mut popped = Vec::new();
            let mut expected = Vec::new();
            for id in 0..ops as u32 {
                if g.bool() && !model.is_empty() {
                    // Pop from both and compare.
                    let i = model
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, (at, s, _))| (*at, *s))
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    let (at, _, mid) = model.swap_remove(i);
                    now = at;
                    expected.push((at, mid));
                    let (t, e) = q.pop().expect("model has events");
                    popped.push((t.as_ps(), e));
                } else {
                    // Horizons from same-bucket to multiple rings out.
                    let spread = match g.u32(0..4) {
                        0 => g.u64(0..1_000),
                        1 => g.u64(0..BUCKET_WIDTH_PS * 4),
                        2 => g.u64(0..BUCKET_WIDTH_PS * NUM_BUCKETS as u64 * 2),
                        _ => g.u64(0..BUCKET_WIDTH_PS * NUM_BUCKETS as u64 * 5),
                    };
                    // Occasionally aim into the past to exercise clamping.
                    let at = if g.u32(0..8) == 0 {
                        now.saturating_sub(spread)
                    } else {
                        now + spread
                    };
                    q.schedule_at(SimTime::from_ps(at), id);
                    model.push((at.max(now), seq, id));
                    seq += 1;
                }
            }
            while let Some((t, e)) = q.pop() {
                popped.push((t.as_ps(), e));
            }
            while !model.is_empty() {
                let i = model
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (at, s, _))| (*at, *s))
                    .map(|(i, _)| i)
                    .expect("non-empty");
                let (at, _, mid) = model.swap_remove(i);
                expected.push((at, mid));
            }
            assert_eq!(popped, expected);
            assert!(q.is_empty());
            assert_eq!(q.len(), 0);
        });
    }
}
