//! Ethernet Flow Director: steering packets to the consuming core's queue.
//!
//! Models the two flavours described in Sec. II-C:
//!
//! * **Externally Programmed (EP)** — software installs perfect-match
//!   filters (five-tuple → queue), used when applications are pinned;
//! * **Application Targeting Routing (ATR)** — the NIC learns the target
//!   queue by populating a hash-indexed *Filter Table* (up to 8 K entries in
//!   modern adapters); lookups hash the packet's five-tuple into the table.
//!
//! Unmatched packets fall back to RSS (hash modulo queue count).
//!
//! Both tables are **bounded**, the way the silicon's are:
//!
//! * Perfect-match filters live in a fixed-capacity set-associative table
//!   (hash-bucketed, [`PERFECT_WAYS`] entries per set). An install into a
//!   full set either fails ([`FilterInstall::Rejected`] — the sideband
//!   "filter space full" error real drivers report) or, in the evicting
//!   flavour drivers use to refresh stale pins, deterministically replaces
//!   the oldest entry of the set.
//! * ATR entries carry the installing flow's hash signature and an install
//!   timestamp. A colliding lookup still steers to the stored queue — the
//!   hardware has no way to tell — but is counted as a stale/collision
//!   mis-steer. With an ATR lifetime configured, entries age out lazily on
//!   first touch past the deadline.
//!
//! Every lookup outcome and table mutation is counted in [`FdStats`], so
//! the host can export the perfect/ATR/RSS steering mix and the
//! eviction/aging churn behind it.

use idio_engine::time::{Duration, SimTime};
use idio_net::packet::FiveTuple;

/// Default Filter Table capacity (Sec. II-C: "up to 8k entries").
pub const DEFAULT_FILTER_TABLE_ENTRIES: usize = 8192;

/// Default RSS indirection-table size (Intel NICs: 128–512 entries).
pub const DEFAULT_RSS_TABLE_ENTRIES: usize = 128;

/// Associativity of the perfect-filter table: each flow hashes to a set of
/// this many candidate slots.
pub const PERFECT_WAYS: usize = 4;

/// A receive-queue index on the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueueId(pub u16);

impl QueueId {
    /// Index as `usize` for container indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a lookup was resolved (exposed for diagnostics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SteeringSource {
    /// A perfect-match (EP) filter matched.
    PerfectMatch,
    /// The ATR filter table matched with the installing flow's signature.
    FilterTable,
    /// The ATR filter table matched, but the entry was installed by a
    /// *different* flow (hash collision) — the packet is steered to the
    /// colliding flow's queue, i.e. very likely mis-steered.
    FilterTableCollision,
    /// Fallback RSS hash.
    Rss,
}

/// Outcome of a perfect-filter install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterInstall {
    /// The flow took a free slot in its set.
    Installed,
    /// The flow was already present; its queue was updated in place.
    Updated,
    /// The set was full; the oldest resident entry was evicted to make
    /// room (evicting installs only).
    Evicted,
    /// The set was full and nothing was evicted; the filter was not
    /// installed (non-evicting installs only).
    Rejected,
}

/// Flow-director table and lookup counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FdStats {
    /// Lookups resolved by a perfect-match filter.
    pub perfect_hits: u64,
    /// Lookups resolved by an ATR entry whose signature matched.
    pub atr_hits: u64,
    /// Lookups resolved by a colliding ATR entry (stale or hash-aliased):
    /// steered to the *colliding* flow's queue.
    pub atr_collisions: u64,
    /// Lookups that fell back to RSS.
    pub rss_fallbacks: u64,
    /// Perfect filters installed into a free slot.
    pub perfect_installed: u64,
    /// Perfect installs that updated an existing filter in place.
    pub perfect_updated: u64,
    /// Perfect installs that evicted the oldest entry of a full set.
    pub perfect_evicted: u64,
    /// Perfect installs rejected because the set was full.
    pub perfect_rejected: u64,
    /// ATR learn events that wrote the filter table.
    pub atr_learned: u64,
    /// ATR entries invalidated because they outlived the ATR lifetime.
    pub atr_aged: u64,
}

/// One resident perfect-match filter.
#[derive(Debug, Clone, Copy)]
struct PerfectEntry {
    flow: FiveTuple,
    queue: QueueId,
    /// Global install sequence number; the eviction victim in a full set
    /// is always the entry with the smallest sequence (oldest install).
    seq: u64,
}

/// One ATR filter-table entry.
#[derive(Debug, Clone, Copy)]
struct AtrEntry {
    /// Signature of the installing flow, to detect collisions at lookup.
    sig: u32,
    queue: QueueId,
    installed_at: SimTime,
}

/// Bit-mixes a 32-bit flow hash with a salt, so the perfect-set index,
/// the ATR signature, and the raw hash are decorrelated.
#[inline]
fn mix32(h: u32, salt: u32) -> u32 {
    let mut x = h ^ salt;
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^= x >> 16;
    x
}

/// The Flow Director steering engine.
///
/// # Examples
///
/// ```
/// use idio_engine::time::SimTime;
/// use idio_net::packet::FiveTuple;
/// use idio_nic::flow_director::{FlowDirector, QueueId, SteeringSource};
///
/// let mut fd = FlowDirector::new(4, 8192);
/// let flow = FiveTuple::udp(1, 2, 100, 200);
/// // Before any filter: RSS fallback.
/// let (q0, src) = fd.lookup(SimTime::ZERO, &flow);
/// assert_eq!(src, SteeringSource::Rss);
/// // Pin the flow (EP mode):
/// fd.install_perfect(flow, QueueId(3));
/// assert_eq!(
///     fd.lookup(SimTime::ZERO, &flow),
///     (QueueId(3), SteeringSource::PerfectMatch)
/// );
/// # let _ = q0;
/// ```
#[derive(Debug, Clone)]
pub struct FlowDirector {
    num_queues: u16,
    /// Perfect-match filters: `perfect_sets` sets of `perfect_ways` slots,
    /// flattened row-major.
    perfect: Vec<Option<PerfectEntry>>,
    perfect_sets: usize,
    perfect_ways: usize,
    perfect_occupied: usize,
    install_seq: u64,
    filter_table: Vec<Option<AtrEntry>>,
    /// ATR entries older than this are invalidated on first touch.
    /// `None` disables aging.
    atr_lifetime: Option<Duration>,
    /// RSS indirection table: hash → queue (the power-on identity spread).
    rss_table: Vec<QueueId>,
    stats: FdStats,
}

impl FlowDirector {
    /// Creates a director for `num_queues` queues with both the perfect
    /// and ATR tables sized to `table_entries` slots (real adapters share
    /// one filter memory between the two).
    ///
    /// # Panics
    ///
    /// Panics if `num_queues` or `table_entries` is zero.
    pub fn new(num_queues: u16, table_entries: usize) -> Self {
        Self::with_tables(num_queues, table_entries, table_entries)
    }

    /// Creates a director with independently sized tables:
    /// `perfect_entries` perfect-filter slots (rounded down to a multiple
    /// of [`PERFECT_WAYS`], minimum one set) and `atr_entries` ATR
    /// filter-table slots.
    ///
    /// # Panics
    ///
    /// Panics if `num_queues`, `perfect_entries`, or `atr_entries` is zero.
    pub fn with_tables(num_queues: u16, perfect_entries: usize, atr_entries: usize) -> Self {
        assert!(num_queues > 0, "need at least one queue");
        assert!(perfect_entries > 0, "perfect filter table cannot be empty");
        assert!(atr_entries > 0, "filter table cannot be empty");
        let ways = PERFECT_WAYS.min(perfect_entries);
        let sets = (perfect_entries / ways).max(1);
        FlowDirector {
            num_queues,
            perfect: vec![None; sets * ways],
            perfect_sets: sets,
            perfect_ways: ways,
            perfect_occupied: 0,
            install_seq: 0,
            filter_table: vec![None; atr_entries],
            atr_lifetime: None,
            // Identity spread: entry i -> queue i % n (the power-on
            // default real NICs program).
            rss_table: (0..DEFAULT_RSS_TABLE_ENTRIES)
                .map(|i| QueueId((i % num_queues as usize) as u16))
                .collect(),
            stats: FdStats::default(),
        }
    }

    /// Sets the ATR entry lifetime; entries older than this are
    /// invalidated (and counted as aged) when next touched. `None`
    /// disables aging.
    pub fn set_atr_lifetime(&mut self, lifetime: Option<Duration>) {
        self.atr_lifetime = lifetime;
    }

    /// The current RSS indirection table.
    pub fn rss_table(&self) -> &[QueueId] {
        &self.rss_table
    }

    /// Number of configured queues.
    pub fn num_queues(&self) -> u16 {
        self.num_queues
    }

    /// Total perfect-filter slots.
    pub fn perfect_capacity(&self) -> usize {
        self.perfect.len()
    }

    /// Installs a perfect-match (EP) filter. When the flow's set is full
    /// the install is rejected (and counted); drivers that want to
    /// replace stale pins use [`FlowDirector::install_perfect_evicting`].
    ///
    /// # Panics
    ///
    /// Panics if the queue is out of range.
    pub fn install_perfect(&mut self, flow: FiveTuple, queue: QueueId) -> FilterInstall {
        self.install_inner(flow, queue, false)
    }

    /// Installs a perfect-match filter, evicting the oldest entry of the
    /// flow's set when it is full (deterministic victim: smallest install
    /// sequence number).
    ///
    /// # Panics
    ///
    /// Panics if the queue is out of range.
    pub fn install_perfect_evicting(&mut self, flow: FiveTuple, queue: QueueId) -> FilterInstall {
        self.install_inner(flow, queue, true)
    }

    fn install_inner(&mut self, flow: FiveTuple, queue: QueueId, evict: bool) -> FilterInstall {
        assert!(queue.0 < self.num_queues, "queue out of range");
        let base = self.perfect_set_base(&flow);
        let set = &mut self.perfect[base..base + self.perfect_ways];
        // Present already? Update in place (keeps the original age).
        if let Some(e) = set.iter_mut().flatten().find(|e| e.flow == flow) {
            e.queue = queue;
            self.stats.perfect_updated += 1;
            return FilterInstall::Updated;
        }
        // Free slot in the set?
        if let Some(slot) = set.iter_mut().find(|s| s.is_none()) {
            *slot = Some(PerfectEntry {
                flow,
                queue,
                seq: self.install_seq,
            });
            self.install_seq += 1;
            self.perfect_occupied += 1;
            self.stats.perfect_installed += 1;
            return FilterInstall::Installed;
        }
        if !evict {
            self.stats.perfect_rejected += 1;
            return FilterInstall::Rejected;
        }
        // Evict the oldest entry of the set.
        let victim = set
            .iter_mut()
            .min_by_key(|s| s.as_ref().map_or(u64::MAX, |e| e.seq))
            .expect("sets have at least one way");
        *victim = Some(PerfectEntry {
            flow,
            queue,
            seq: self.install_seq,
        });
        self.install_seq += 1;
        self.stats.perfect_evicted += 1;
        FilterInstall::Evicted
    }

    /// ATR learning: records that `flow`'s consumer lives on `queue`
    /// (hardware does this by observing TX traffic or, for drop-path
    /// applications, the driver mirrors it at packet completion).
    ///
    /// # Panics
    ///
    /// Panics if the queue is out of range.
    pub fn learn(&mut self, now: SimTime, flow: &FiveTuple, queue: QueueId) {
        assert!(queue.0 < self.num_queues, "queue out of range");
        let idx = self.table_index(flow);
        self.filter_table[idx] = Some(AtrEntry {
            sig: mix32(flow.hash32(), 0x85eb_ca6b),
            queue,
            installed_at: now,
        });
        self.stats.atr_learned += 1;
    }

    /// Looks up the destination queue for a packet, counting the outcome.
    pub fn lookup(&mut self, now: SimTime, flow: &FiveTuple) -> (QueueId, SteeringSource) {
        let base = self.perfect_set_base(flow);
        if let Some(e) = self.perfect[base..base + self.perfect_ways]
            .iter()
            .flatten()
            .find(|e| e.flow == *flow)
        {
            let q = e.queue;
            self.stats.perfect_hits += 1;
            return (q, SteeringSource::PerfectMatch);
        }
        let idx = self.table_index(flow);
        if let Some(e) = self.filter_table[idx] {
            if self
                .atr_lifetime
                .is_some_and(|life| now.saturating_since(e.installed_at) > life)
            {
                // Entry outlived the ATR lifetime: invalidate and fall
                // through to RSS.
                self.filter_table[idx] = None;
                self.stats.atr_aged += 1;
            } else if e.sig == mix32(flow.hash32(), 0x85eb_ca6b) {
                self.stats.atr_hits += 1;
                return (e.queue, SteeringSource::FilterTable);
            } else {
                // A different flow installed this entry; the hardware
                // cannot tell and steers to the colliding flow's queue.
                self.stats.atr_collisions += 1;
                return (e.queue, SteeringSource::FilterTableCollision);
            }
        }
        let idx = (flow.hash32() as usize) % self.rss_table.len();
        self.stats.rss_fallbacks += 1;
        (self.rss_table[idx], SteeringSource::Rss)
    }

    fn table_index(&self, flow: &FiveTuple) -> usize {
        (flow.hash32() as usize) % self.filter_table.len()
    }

    fn perfect_set_base(&self, flow: &FiveTuple) -> usize {
        (mix32(flow.hash32(), 0x9e37_79b9) as usize % self.perfect_sets) * self.perfect_ways
    }

    /// Lookup and mutation counters.
    pub fn stats(&self) -> &FdStats {
        &self.stats
    }

    /// Number of installed perfect-match filters.
    pub fn perfect_filter_count(&self) -> usize {
        self.perfect_occupied
    }

    /// Number of populated ATR filter-table entries.
    pub fn filter_table_population(&self) -> usize {
        self.filter_table.iter().filter(|e| e.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_engine::check::{Cases, Gen};

    /// Naive reference model of a *single-set* director: a perfect table
    /// of at most [`PERFECT_WAYS`] slots (so set indexing is trivial and
    /// FIFO eviction is exact), an ATR table storing the real flow per
    /// hash bucket, and the director's own RSS indirection table.
    struct Model {
        perfect: Vec<(FiveTuple, QueueId, u64)>,
        capacity: usize,
        seq: u64,
        atr: Vec<Option<(FiveTuple, QueueId, SimTime)>>,
        atr_lifetime: Option<Duration>,
        rss: Vec<QueueId>,
    }

    impl Model {
        fn install(&mut self, flow: FiveTuple, queue: QueueId, evict: bool) -> FilterInstall {
            if let Some(e) = self.perfect.iter_mut().find(|(f, _, _)| *f == flow) {
                e.1 = queue;
                return FilterInstall::Updated;
            }
            if self.perfect.len() < self.capacity {
                self.perfect.push((flow, queue, self.seq));
                self.seq += 1;
                return FilterInstall::Installed;
            }
            if !evict {
                return FilterInstall::Rejected;
            }
            let oldest = self
                .perfect
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, s))| *s)
                .map(|(i, _)| i)
                .expect("table is full, hence non-empty");
            self.perfect.remove(oldest);
            self.perfect.push((flow, queue, self.seq));
            self.seq += 1;
            FilterInstall::Evicted
        }

        fn learn(&mut self, now: SimTime, flow: FiveTuple, queue: QueueId) {
            let idx = flow.hash32() as usize % self.atr.len();
            self.atr[idx] = Some((flow, queue, now));
        }

        fn lookup(&mut self, now: SimTime, flow: &FiveTuple) -> (QueueId, SteeringSource) {
            if let Some((_, q, _)) = self.perfect.iter().find(|(f, _, _)| f == flow) {
                return (*q, SteeringSource::PerfectMatch);
            }
            let idx = flow.hash32() as usize % self.atr.len();
            if let Some((f, q, at)) = self.atr[idx] {
                if self
                    .atr_lifetime
                    .is_some_and(|life| now.saturating_since(at) > life)
                {
                    self.atr[idx] = None;
                } else if f == *flow {
                    return (q, SteeringSource::FilterTable);
                } else {
                    return (q, SteeringSource::FilterTableCollision);
                }
            }
            let idx = flow.hash32() as usize % self.rss.len();
            (self.rss[idx], SteeringSource::Rss)
        }
    }

    /// A pool of flows with pairwise-distinct hardware hashes, so the
    /// model's flow-equality collision check agrees with the director's
    /// signature comparison.
    fn flow_pool() -> Vec<FiveTuple> {
        let flows: Vec<FiveTuple> = (0..8u32)
            .map(|i| FiveTuple::udp(i + 1, i + 100, 1000 + i as u16, 2000 + i as u16))
            .collect();
        for a in 0..flows.len() {
            for b in a + 1..flows.len() {
                assert_ne!(flows[a].hash32(), flows[b].hash32(), "pool must not alias");
            }
        }
        flows
    }

    /// The satellite's property: against a bounded director whose perfect
    /// table is a single set (capacity <= [`PERFECT_WAYS`]), a random
    /// stream of installs, learns, lookups and time advances behaves
    /// exactly like the naive model — same steering decisions, same
    /// install outcomes, same occupancy.
    #[test]
    fn random_streams_match_the_reference_model() {
        let flows = flow_pool();
        Cases::new(300).run(|g: &mut Gen| {
            let queues = g.u16(1..5);
            let capacity = g.usize(1..PERFECT_WAYS + 1);
            let atr_entries = g.usize(1..9);
            let lifetime = g.bool().then(|| Duration::from_ns(g.u64(1..3_000)));
            let mut fd = FlowDirector::with_tables(queues, capacity, atr_entries);
            fd.set_atr_lifetime(lifetime);
            let mut model = Model {
                perfect: Vec::new(),
                capacity,
                seq: 0,
                atr: vec![None; atr_entries],
                atr_lifetime: lifetime,
                rss: fd.rss_table().to_vec(),
            };
            let mut now = SimTime::ZERO;
            for step in 0..g.usize(1..200) {
                now += Duration::from_ns(g.u64(0..1_500));
                let flow = flows[g.usize(0..flows.len())];
                let queue = QueueId(g.u16(0..queues));
                match g.usize(0..4) {
                    0 => {
                        fd.learn(now, &flow, queue);
                        model.learn(now, flow, queue);
                    }
                    1 => {
                        let evict = g.bool();
                        let got = if evict {
                            fd.install_perfect_evicting(flow, queue)
                        } else {
                            fd.install_perfect(flow, queue)
                        };
                        let want = model.install(flow, queue, evict);
                        assert_eq!(got, want, "step {step}: install diverged");
                    }
                    _ => {
                        let got = fd.lookup(now, &flow);
                        let want = model.lookup(now, &flow);
                        assert_eq!(got, want, "step {step}: lookup diverged");
                    }
                }
                assert_eq!(
                    fd.perfect_filter_count(),
                    model.perfect.len(),
                    "step {step}: occupancy diverged"
                );
            }
        });
    }

    /// Capacity-1 boundary: the table is one set of one way, so a second
    /// distinct flow is rejected outright and an evicting install always
    /// replaces the sole occupant.
    #[test]
    fn capacity_one_table_rejects_then_evicts() {
        let mut fd = FlowDirector::with_tables(2, 1, 4);
        let a = FiveTuple::udp(1, 2, 10, 20);
        let b = FiveTuple::udp(3, 4, 30, 40);
        assert_eq!(fd.perfect_capacity(), 1);
        assert_eq!(fd.install_perfect(a, QueueId(0)), FilterInstall::Installed);
        assert_eq!(fd.install_perfect(b, QueueId(1)), FilterInstall::Rejected);
        assert_eq!(
            fd.lookup(SimTime::ZERO, &a),
            (QueueId(0), SteeringSource::PerfectMatch)
        );
        assert_eq!(fd.install_perfect(a, QueueId(1)), FilterInstall::Updated);
        assert_eq!(
            fd.install_perfect_evicting(b, QueueId(1)),
            FilterInstall::Evicted
        );
        assert_eq!(
            fd.lookup(SimTime::ZERO, &b),
            (QueueId(1), SteeringSource::PerfectMatch)
        );
        assert_ne!(
            fd.lookup(SimTime::ZERO, &a).1,
            SteeringSource::PerfectMatch,
            "the evicted flow lost its filter"
        );
        assert_eq!(fd.perfect_filter_count(), 1);
        assert_eq!(fd.stats().perfect_rejected, 1);
        assert_eq!(fd.stats().perfect_evicted, 1);
    }

    /// Exactly-full boundary: a single 4-way set filled to the brim keeps
    /// updating in place, rejects fresh flows, and an evicting install
    /// removes precisely the oldest entry.
    #[test]
    fn exactly_full_set_updates_rejects_and_evicts_fifo() {
        let mut fd = FlowDirector::with_tables(4, PERFECT_WAYS, 4);
        let flows = flow_pool();
        for (i, f) in flows[..PERFECT_WAYS].iter().enumerate() {
            assert_eq!(
                fd.install_perfect(*f, QueueId(i as u16)),
                FilterInstall::Installed
            );
        }
        assert_eq!(fd.perfect_filter_count(), PERFECT_WAYS);
        assert_eq!(
            fd.install_perfect(flows[4], QueueId(0)),
            FilterInstall::Rejected,
            "full set rejects a fresh flow"
        );
        assert_eq!(
            fd.install_perfect(flows[2], QueueId(3)),
            FilterInstall::Updated,
            "resident flows update in place at capacity"
        );
        assert_eq!(
            fd.install_perfect_evicting(flows[4], QueueId(2)),
            FilterInstall::Evicted
        );
        assert_ne!(
            fd.lookup(SimTime::ZERO, &flows[0]).1,
            SteeringSource::PerfectMatch,
            "the first-installed flow was the FIFO victim"
        );
        for f in &flows[1..5] {
            assert_eq!(
                fd.lookup(SimTime::ZERO, f).1,
                SteeringSource::PerfectMatch,
                "younger residents survive the eviction"
            );
        }
        assert_eq!(fd.perfect_filter_count(), PERFECT_WAYS);
    }

    #[test]
    fn rss_fallback_is_stable_and_in_range() {
        let mut fd = FlowDirector::new(4, 16);
        let f = FiveTuple::udp(9, 9, 9, 9);
        let (q1, s1) = fd.lookup(SimTime::ZERO, &f);
        let (q2, _) = fd.lookup(SimTime::ZERO, &f);
        assert_eq!(q1, q2);
        assert_eq!(s1, SteeringSource::Rss);
        assert!(q1.0 < 4);
        assert_eq!(fd.stats().rss_fallbacks, 2);
    }

    #[test]
    fn atr_learning_overrides_rss() {
        let mut fd = FlowDirector::new(4, 8192);
        let f = FiveTuple::udp(1, 2, 3, 4);
        fd.learn(SimTime::ZERO, &f, QueueId(2));
        assert_eq!(
            fd.lookup(SimTime::ZERO, &f),
            (QueueId(2), SteeringSource::FilterTable)
        );
        assert_eq!(fd.filter_table_population(), 1);
        assert_eq!(fd.stats().atr_hits, 1);
    }

    #[test]
    fn perfect_match_beats_atr() {
        let mut fd = FlowDirector::new(4, 8192);
        let f = FiveTuple::udp(1, 2, 3, 4);
        fd.learn(SimTime::ZERO, &f, QueueId(1));
        assert_eq!(fd.install_perfect(f, QueueId(3)), FilterInstall::Installed);
        assert_eq!(
            fd.lookup(SimTime::ZERO, &f),
            (QueueId(3), SteeringSource::PerfectMatch)
        );
        assert_eq!(fd.perfect_filter_count(), 1);
        assert_eq!(fd.stats().perfect_hits, 1);
    }

    #[test]
    fn hash_collisions_share_table_entries() {
        // A 1-entry table makes every flow collide: the last learner wins —
        // the documented ATR behaviour for colliding flows. The colliding
        // lookup still steers to the stored queue, but is counted as a
        // collision mis-steer.
        let mut fd = FlowDirector::new(4, 1);
        let f1 = FiveTuple::udp(1, 1, 1, 1);
        let f2 = FiveTuple::udp(2, 2, 2, 2);
        fd.learn(SimTime::ZERO, &f1, QueueId(0));
        fd.learn(SimTime::ZERO, &f2, QueueId(3));
        let (q, src) = fd.lookup(SimTime::ZERO, &f1);
        assert_eq!(q, QueueId(3));
        assert_eq!(src, SteeringSource::FilterTableCollision);
        assert_eq!(fd.stats().atr_collisions, 1);
    }

    #[test]
    fn default_rss_spread_covers_all_queues() {
        let mut fd = FlowDirector::new(4, 16);
        let mut hit = [false; 4];
        for port in 0..200 {
            let f = FiveTuple::udp(1, 2, port, 9);
            let (q, _) = fd.lookup(SimTime::ZERO, &f);
            hit[q.index()] = true;
        }
        assert!(hit.iter().all(|&h| h), "RSS spreads across queues: {hit:?}");
    }

    #[test]
    fn full_set_rejects_then_evicts_oldest() {
        // Capacity 4 with 4 ways = a single set: every flow collides.
        let mut fd = FlowDirector::new(4, 4);
        assert_eq!(fd.perfect_capacity(), 4);
        let flows: Vec<FiveTuple> = (0..5).map(|i| FiveTuple::udp(i, i, 1, 1)).collect();
        for f in &flows[..4] {
            assert_eq!(fd.install_perfect(*f, QueueId(0)), FilterInstall::Installed);
        }
        // Non-evicting install into the full set fails and is counted.
        assert_eq!(
            fd.install_perfect(flows[4], QueueId(1)),
            FilterInstall::Rejected
        );
        assert_eq!(fd.stats().perfect_rejected, 1);
        assert_eq!(fd.perfect_filter_count(), 4);
        // The evicting flavour replaces the oldest install (flows[0]).
        assert_eq!(
            fd.install_perfect_evicting(flows[4], QueueId(1)),
            FilterInstall::Evicted
        );
        assert_eq!(fd.stats().perfect_evicted, 1);
        assert_eq!(fd.perfect_filter_count(), 4);
        assert_eq!(fd.lookup(SimTime::ZERO, &flows[4]).0, QueueId(1));
        assert_eq!(
            fd.lookup(SimTime::ZERO, &flows[0]).1,
            SteeringSource::Rss,
            "the oldest pin was the eviction victim"
        );
    }

    #[test]
    fn reinstall_updates_in_place() {
        let mut fd = FlowDirector::new(4, 4);
        let f = FiveTuple::udp(1, 2, 3, 4);
        assert_eq!(fd.install_perfect(f, QueueId(0)), FilterInstall::Installed);
        assert_eq!(fd.install_perfect(f, QueueId(2)), FilterInstall::Updated);
        assert_eq!(fd.perfect_filter_count(), 1);
        assert_eq!(fd.lookup(SimTime::ZERO, &f).0, QueueId(2));
    }

    #[test]
    fn capacity_one_table_holds_exactly_one_pin() {
        let mut fd = FlowDirector::with_tables(4, 1, 1);
        assert_eq!(fd.perfect_capacity(), 1);
        let f1 = FiveTuple::udp(1, 1, 1, 1);
        let f2 = FiveTuple::udp(2, 2, 2, 2);
        assert_eq!(fd.install_perfect(f1, QueueId(0)), FilterInstall::Installed);
        assert_eq!(fd.install_perfect(f2, QueueId(1)), FilterInstall::Rejected);
        assert_eq!(
            fd.install_perfect_evicting(f2, QueueId(1)),
            FilterInstall::Evicted
        );
        assert_eq!(fd.lookup(SimTime::ZERO, &f2).0, QueueId(1));
        assert_eq!(fd.perfect_filter_count(), 1);
    }

    #[test]
    fn atr_entries_age_out_lazily() {
        let mut fd = FlowDirector::new(4, 8192);
        fd.set_atr_lifetime(Some(Duration::from_us(10)));
        let f = FiveTuple::udp(1, 2, 3, 4);
        fd.learn(SimTime::ZERO, &f, QueueId(2));
        // Within the lifetime: a normal ATR hit.
        assert_eq!(
            fd.lookup(SimTime::from_us(10), &f).1,
            SteeringSource::FilterTable
        );
        // Past it: the entry is invalidated and the lookup falls to RSS.
        let (_, src) = fd.lookup(SimTime::from_us(21), &f);
        assert_eq!(src, SteeringSource::Rss);
        assert_eq!(fd.stats().atr_aged, 1);
        assert_eq!(fd.filter_table_population(), 0);
        // Re-learning re-arms the entry.
        fd.learn(SimTime::from_us(21), &f, QueueId(1));
        assert_eq!(
            fd.lookup(SimTime::from_us(22), &f),
            (QueueId(1), SteeringSource::FilterTable)
        );
    }

    #[test]
    fn no_lifetime_means_no_aging() {
        let mut fd = FlowDirector::new(4, 8192);
        let f = FiveTuple::udp(1, 2, 3, 4);
        fd.learn(SimTime::ZERO, &f, QueueId(2));
        assert_eq!(
            fd.lookup(SimTime::from_ms(500), &f).1,
            SteeringSource::FilterTable
        );
        assert_eq!(fd.stats().atr_aged, 0);
    }

    #[test]
    #[should_panic(expected = "queue out of range")]
    fn oob_queue_rejected() {
        let mut fd = FlowDirector::new(2, 8);
        fd.install_perfect(FiveTuple::default(), QueueId(2));
    }
}
