//! The full-system simulator: NIC ⇄ IDIO controller ⇄ cache hierarchy ⇄
//! cores ⇄ DRAM, driven by a single deterministic event queue.
//!
//! One [`System`] instance runs one experiment configuration end to end:
//! traffic generators emit packet arrivals; the NIC steers, classifies and
//! paces DMA; every DMA line write consults the IDIO controller for its
//! placement; polling cores consume descriptor rings in batches and execute
//! their NF's per-packet memory program against the hierarchy; and the
//! statistics machinery samples the counters every 10 µs into the timelines
//! the paper's figures are drawn from.

use std::collections::VecDeque;
use std::fmt::Write as _;

use idio_cache::addr::{Addr, CoreId, LineAddr, LINE_SIZE};
use idio_cache::hierarchy::{DmaPlacement, Hierarchy, HitLevel, MemEffects};
use idio_cache::maintenance::{allocate_invalidatable, invalidate_range, PageTable};
use idio_engine::queue::EventQueue;
use idio_engine::rng::SimRng;
use idio_engine::stats::{LatencyRecorder, RateSampler, TimeSeries};
use idio_engine::telemetry::{Histogram, MetricsRegistry, Tracer, DEFAULT_TRACE_CAPACITY};
use idio_engine::time::{Duration, SimTime};
use idio_mem::DramModel;
use idio_net::gen::{Arrival, FlowSet, MultiFlowGen, TrafficPattern};
use idio_net::packet::{FiveTuple, Packet};
use idio_nic::dma::LINE_TIME;
use idio_nic::flow_director::QueueId;
use idio_nic::nic::{Nic, NicConfig, RingLayout};
use idio_nic::ring::RxSlot;
use idio_nic::tlp::TlpMeta;
use idio_nic::tx::TxRing;
use idio_pool::BufPool;
use idio_stack::antagonist::{AntagonistConfig, LlcAntagonist, BUFFER_BYTES, THINK_CYCLES};
use idio_stack::nf::{ChainStage, MemOp, NfKind, PacketAction, PacketCtx, PacketWork};
use idio_stack::pmd::DEFAULT_BATCH;
use idio_stack::timing::{CoreTiming, FREQ};

use crate::config::{FlowSteering, SystemConfig, SAMPLE_INTERVAL};
use crate::controller::{CatPartition, IatTuner, IdioController, Placement, CONTROL_INTERVAL};
use crate::fd::{FdAccounting, FdTenant};
use crate::fsm::MlcStatus;
use crate::layout::{AddressMap, QueueRegions};
use crate::policy::{PolicyCaps, PolicyTable};
use crate::pools::Pools;
use crate::prefetcher::{HintArena, MlcPrefetcher, ISSUE_GAP};
use crate::report::{
    column_sums, write_counts, BurstTracker, EventTypeProfile, LatencySummary, RunReport,
    RunTotals, Timelines,
};

/// Steering placements, in `System::steer` column order: the keys of the
/// `steer.*` and `core{i}.steer.*` metrics and of the tick log's `steer`
/// section.
const STEER_KEYS: [&str; 3] = ["llc", "mlc", "dram"];

/// Events of the full-system simulation.
#[derive(Debug, Clone)]
enum Event {
    /// The next packet of traffic generator `gen` arrives at the NIC.
    Arrival { gen: usize },
    /// The inbound PCIe line writes of one packet's payload, batched.
    ///
    /// Scheduled at the first line's arrival; the handler applies each
    /// line at its own timestamp (`first + gap * i`), yielding via a
    /// continuation whenever an interleaved event sorts earlier, so the
    /// observable ordering is identical to the per-line events this
    /// replaces — the continuation keeps `batch_seq`, the batch's
    /// original queue sequence number, as its tie-break.
    DmaPacket(DmaBatch),
    /// A descriptor writeback becomes visible to the polling driver.
    DescWriteback { queue: QueueId, slot: u32 },
    /// A core's MLC prefetcher issues its next queued prefetch.
    PrefetchIssue { core: usize },
    /// A core wakes: finishes the in-flight packet and/or polls for more.
    CoreWake { core: usize },
    /// The NIC finished reading a forwarded packet out of memory.
    TxComplete(TxDone),
    /// The antagonist's next dependent access.
    AntagonistNext,
    /// IDIO control-plane 1 µs tick.
    ControlTick,
    /// Statistics sampling tick (10 µs).
    SampleTick,
}

impl Event {
    /// Number of event types (length of [`Event::NAMES`]).
    const TYPES: usize = 9;

    /// Stable event-type names, indexed by [`Event::type_index`]. These
    /// appear in trace output, metrics (`engine.events.<name>`), and the
    /// `--timings` profile, so they must not change across releases.
    const NAMES: [&'static str; Event::TYPES] = [
        "arrival",
        "dma_line",
        "desc_writeback",
        "prefetch_issue",
        "core_wake",
        "tx_complete",
        "antagonist",
        "control_tick",
        "sample_tick",
    ];

    fn type_index(&self) -> usize {
        match self {
            Event::Arrival { .. } => 0,
            // The batch event keeps the per-line name: the handler bumps
            // the count by the extra lines it applies, so the
            // `engine.events.dma_line` metric still counts DMA lines.
            Event::DmaPacket(_) => 1,
            Event::DescWriteback { .. } => 2,
            Event::PrefetchIssue { .. } => 3,
            Event::CoreWake { .. } => 4,
            Event::TxComplete(_) => 5,
            Event::AntagonistNext => 6,
            Event::ControlTick => 7,
            Event::SampleTick => 8,
        }
    }
}

// Every pending event is stored in the calendar queue: the payload batch
// must not widen the enum.
const _: () = assert!(std::mem::size_of::<Event>() <= 64);

/// One packet's batched payload DMA ([`Event::DmaPacket`]); a
/// continuation is the same batch with `next` advanced.
#[derive(Debug, Clone, Copy)]
struct DmaBatch {
    /// First buffer line; line `i` is `buf_line + i`.
    buf_line: LineAddr,
    /// Header-line TLP metadata; payload-line metadata is derived.
    meta: TlpMeta,
    arrival: SimTime,
    /// Per-queue packet sequence number (for CPU-paced prefetching).
    seq: u64,
    /// Time line 0 reaches the root complex; line `i` follows
    /// `i` [`LINE_TIME`]s later.
    first: SimTime,
    /// Total payload lines.
    lines: u32,
    /// Index of the next line to apply (continuation resume point).
    next: u32,
    /// The batch's original queue sequence number.
    batch_seq: u64,
    /// Resolved steering-policy domain of the packet's queue.
    domain: u16,
}

/// A forwarded packet whose transmission completes
/// ([`Event::TxComplete`]).
#[derive(Debug, Clone)]
struct TxDone {
    queue: QueueId,
    buf: Addr,
    lines: u32,
    arrival: SimTime,
    flow: FiveTuple,
}

/// A tenant's packet-arrival stream: a multi-flow generator or a trace
/// replay.
enum ArrivalSource {
    Multi(Box<MultiFlowGen>),
    Replay(std::vec::IntoIter<Arrival>),
}

impl Iterator for ArrivalSource {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        match self {
            ArrivalSource::Multi(g) => g.next(),
            ArrivalSource::Replay(it) => it.next(),
        }
    }
}

/// Per-NF-core runtime state.
#[derive(Debug)]
struct NfState {
    kind: NfKind,
    queue: QueueId,
    regions: QueueRegions,
    busy: bool,
    batch: VecDeque<RxSlot>,
    current: Option<(RxSlot, PacketAction)>,
    latency: LatencyRecorder,
    /// End-to-end packet latency (arrival → completion) in nanoseconds,
    /// log2-bucketed; exported as `core{i}.pkt_latency_ns` (the scenario
    /// report's percentile source).
    lat_hist: Histogram,
    /// Per-stage service time for chained NFs, indexed by
    /// [`ChainStage::index`]; exported as `core{i}.stage.<name>_ns` only
    /// for stages that ran, so single-NF cores add no metrics.
    stage_hist: [Histogram; ChainStage::ALL.len()],
    /// Reusable per-packet program buffer: one NF program runs per packet,
    /// so building it in place removes a `Vec<MemOp>` allocation from the
    /// hot path.
    scratch: PacketWork,
    completed: u64,
    /// Packets received on this queue (CPU-paced prefetch sequencing).
    rx_seq: u64,
    /// Packets fully consumed (the "CPU pointer" of Fig. 3).
    done_seq: u64,
    /// Transmit descriptor ring (egress path of forwarding NFs).
    tx_ring: TxRing,
}

/// The burst windows of a run: run-level (exported as
/// [`RunReport::bursts`]) and per core (exported as
/// `core<i>.burst_exe_ns`). They record only the packets of queues whose
/// tenant sends bursts of the tracked period, so another tenant's traffic
/// never lands in those windows.
#[derive(Debug)]
struct Bursts {
    run: BurstTracker,
    cores: Vec<BurstTracker>,
    /// Per core: whether its queue's tenant bursts with the tracked period.
    tracked: Vec<bool>,
}

impl Bursts {
    fn new(period: Duration, num_cores: usize, cfg: &SystemConfig) -> Self {
        let mut tracked = vec![false; num_cores];
        for (core, t) in cfg.queues() {
            tracked[core.index()] =
                matches!(t.traffic, TrafficPattern::Bursty(spec) if spec.period == period);
        }
        Bursts {
            run: BurstTracker::new(period),
            cores: (0..num_cores).map(|_| BurstTracker::new(period)).collect(),
            tracked,
        }
    }

    fn record_dma(&mut self, core: usize, arrival: SimTime, now: SimTime) {
        if self.tracked[core] {
            self.run.record_dma(arrival, now);
            self.cores[core].record_dma(arrival, now);
        }
    }

    fn record_completion(&mut self, core: usize, arrival: SimTime, now: SimTime) {
        if self.tracked[core] {
            self.run.record_completion(arrival, now);
            self.cores[core].record_completion(arrival, now);
        }
    }

    /// The log2 distribution of per-window exe times, one histogram per
    /// core that completed at least one burst.
    fn export(&self, m: &mut MetricsRegistry) {
        for (i, b) in self.cores.iter().enumerate() {
            let mut hist = Histogram::new();
            for w in b.windows() {
                if w.packets > 0 {
                    hist.record(w.exe_time().as_ns());
                }
            }
            if hist.count() > 0 {
                m.histogram_merge(&format!("core{i}.burst_exe_ns"), &hist);
            }
        }
    }
}

/// Names of the sampled rate timelines, in [`System::sampled_counters`]
/// order (the [`Timelines`] fields of the same names).
const RATES: [&str; 7] = [
    "mlc_wb",
    "llc_wb",
    "dram_rd",
    "dram_wr",
    "dma_wr",
    "prefetch",
    "self_inval",
];

/// The full-system simulator.
///
/// # Examples
///
/// ```
/// use idio_core::config::SystemConfig;
/// use idio_core::policy::SteeringPolicy;
/// use idio_core::system::System;
/// use idio_engine::time::SimTime;
/// use idio_net::gen::TrafficPattern;
///
/// let mut cfg = SystemConfig::touchdrop_scenario(
///     1,
///     TrafficPattern::Steady { rate_gbps: 5.0 },
/// );
/// cfg.duration = SimTime::from_us(200);
/// let report = System::new(cfg).run();
/// assert!(report.totals.completed_packets > 0);
/// ```
pub struct System {
    cfg: SystemConfig,
    queue: EventQueue<Event>,
    hier: Hierarchy,
    dram: DramModel,
    nic: Nic,
    page_table: PageTable,
    ctrl: IdioController,
    prefetchers: Vec<MlcPrefetcher>,
    nf: Vec<Option<NfState>>,
    antagonist: Option<(CoreId, LlcAntagonist)>,
    gens: Vec<ArrivalSource>,
    pending_arrival: Vec<Option<Packet>>,
    /// One rate sampler per [`RATES`] counter (10 µs sampling).
    rates: [RateSampler; RATES.len()],
    /// Gauge: fraction of LLC capacity holding DMA-buffer lines.
    dma_llc_share: TimeSeries,
    /// Burst windows; present only when the first tenant sends bursts.
    bursts: Option<Bursts>,
    hard_stop: SimTime,
    /// Sample ticks seen (the occupancy gauge samples every 10th tick).
    sample_ticks: u64,
    /// Resolved layered policy table: system default → per-tenant →
    /// per-queue, interned into dense policy domains (see
    /// [`SystemConfig::policy_table`]). The hot path indexes it by the
    /// domain id the NIC stamped into the packet's DMA plan.
    policy: PolicyTable,
    /// IAT-style DDIO way tuner; present only when some policy domain
    /// tunes the DDIO ways.
    iat: Option<IatTuner>,
    /// CAT way partitioning; present only when some policy domain uses
    /// CAT (static or auto).
    cat: Option<CatPartition>,
    /// Run-level metrics registry (exported via [`RunReport::metrics`]).
    metrics: MetricsRegistry,
    /// Bounded event tracer (filter from [`SystemConfig::trace`]).
    tracer: Tracer,
    /// Per-event-type dispatch counts (deterministic).
    ev_counts: [u64; Event::TYPES],
    /// Per-event-type handler wall-clock (only with `profile_events`).
    ev_wall: [std::time::Duration; Event::TYPES],
    /// Steering decisions by placement, per destination core: `[LLC, MLC,
    /// DRAM]` line counts (summed into the global `steer.*` metrics;
    /// exported per core as `core{i}.steer.*` for tenant attribution).
    steer: Vec<[u64; 3]>,
    /// Arena-backed parked-hint rings (CPU-paced prefetch pacing): one
    /// fixed-capacity FIFO per core carved from a single allocation,
    /// replacing the per-core `VecDeque` queues. Zero-capacity (and
    /// allocation-free) under the default queued pacing.
    hints: HintArena,
    /// Control-tick scratch: the per-core MLC-WB snapshot, refilled in
    /// place every tick so the 1 µs control loop never allocates.
    ctrl_wbs: Vec<u64>,
    /// Control-tick scratch: pre-tick FSM statuses (only filled while the
    /// `fsm` tracer is on).
    ctrl_fsm_before: Vec<MlcStatus>,
    /// Per-control-tick `metrics.delta` NDJSON lines (only with
    /// [`SystemConfig::tick_metrics`]); exported via
    /// [`RunReport::tick_metrics`].
    tick_log: Vec<String>,
    /// Steering-mix totals at the previous control tick (delta source for
    /// the tick log).
    tick_last_steer: [u64; 3],
    /// Flow-director-pressure accounting; present only when some
    /// tenant's flows can outrun the NIC's steering state.
    fd: Option<FdAccounting>,
    /// Explicit mbuf pools; present only when some tenant configured
    /// one.
    pools: Option<Pools>,
}

impl System {
    /// Builds the system: lays out memory, wires components, warms caches,
    /// and schedules the initial events.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`System::try_new`]).
    pub fn new(cfg: SystemConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid system config: {e}"))
    }

    /// Builds the system like [`System::new`], but returns an invalid
    /// configuration's [`SystemConfig::validate`] message instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns the first violated configuration constraint.
    pub fn try_new(cfg: SystemConfig) -> Result<Self, String> {
        cfg.validate()?;
        // Per-core state (controller FSMs, prefetchers, NF slots, steering
        // counters) is sized by the *hierarchy's* core count, which may
        // exceed the tenant-derived count when a config deliberately
        // keeps spare cores (e.g. a tenant's solo run on the full mixed
        // hierarchy); the control tick feeds one counter per hierarchy
        // core, so the two must agree.
        let effective_hierarchy = cfg.effective_hierarchy();
        let num_cores = effective_hierarchy.num_cores;
        let mut hier = Hierarchy::new(effective_hierarchy);
        let dram = DramModel::default();
        let mut page_table = PageTable::new();
        let mut rng = SimRng::seed_from(cfg.seed);

        // --- address map & NIC ------------------------------------------------
        let mut map = AddressMap::new();
        let mut layouts = Vec::new();
        let mut regions = Vec::new();
        for _ in cfg.queues() {
            let q = map.alloc_queue(cfg.ring_size);
            layouts.push(RingLayout {
                buf_base: q.buf_base,
                desc_base: q.desc_base,
            });
            regions.push(q);
        }
        let mut queue_core: Vec<CoreId> = cfg.queues().map(|(core, _)| core).collect();
        // Resolve the policy layers (system default → per-tenant) once,
        // into a dense per-queue domain array. The NIC stamps each
        // packet's domain into its DMA plan; the hot path does a single
        // index into the table.
        let policy = cfg.policy_table();
        let mut queue_policy_domain = policy.queue_domains().to_vec();
        if cfg.tenants.is_empty() {
            // Antagonist-only runs still need a (dormant) NIC queue.
            let q = map.alloc_queue(cfg.ring_size);
            layouts.push(RingLayout {
                buf_base: q.buf_base,
                desc_base: q.desc_base,
            });
            queue_core.push(CoreId::new(0));
            queue_policy_domain.push(0);
        }
        let mut nic = Nic::new(
            NicConfig {
                ring_size: cfg.ring_size,
                queue_core,
                perfect_filter_entries: cfg.perfect_filter_entries,
                filter_table_entries: idio_nic::flow_director::DEFAULT_FILTER_TABLE_ENTRIES,
                atr_lifetime: cfg.atr_lifetime,
                queue_policy_domain,
            },
            layouts,
        );

        // --- traffic sources & flow pinning -----------------------------------
        // One aggregate source per tenant, its flows spread round-robin
        // over the tenant's queues (the contiguous span its cores occupy
        // in queue order) via the flow director (or left to RSS/ATR
        // learning). Flow populations stream from a `FlowSet` —
        // five-tuples derived on demand, so memory stays O(1) at any flow
        // count. Perfect-filter slots are a shared resource: each tenant
        // may pin at most its equal share of the NIC's table, sampled
        // evenly across its flow index space; the rest of its flows steer
        // via ATR learning and RSS (Sec. II-C's capacity pressure).
        let tenants = &cfg.tenants;
        let mut gens = Vec::with_capacity(tenants.len());
        let pin_budget = (cfg.perfect_filter_entries / tenants.len().max(1)).max(1);
        let mut fd_tenants: Vec<Option<FdTenant>> = Vec::with_capacity(tenants.len());
        let mut fd_active = false;
        let mut next_queue = 0;
        for (ti, t) in tenants.iter().enumerate() {
            let first = next_queue;
            next_queue += t.cores.len();
            let queues: Vec<QueueId> = (first..next_queue).map(|q| QueueId(q as u16)).collect();
            if let Some(arrivals) = &t.replay {
                let clipped: Vec<Arrival> = arrivals
                    .iter()
                    .copied()
                    .take_while(|a| a.at < cfg.duration)
                    .collect();
                if cfg.steering == FlowSteering::Perfect {
                    // Pin first-seen flows round-robin across the
                    // tenant's queues.
                    let mut seen = std::collections::HashSet::new();
                    for a in &clipped {
                        if seen.insert(a.packet.flow) {
                            let q = queues[(seen.len() - 1) % queues.len()];
                            nic.flow_director_mut().install_perfect(a.packet.flow, q);
                        }
                    }
                }
                fd_tenants.push(None);
                gens.push(ArrivalSource::Replay(clipped.into_iter()));
            } else {
                let mut set = FlowSet::new(ti as u16, t.flows, t.base_port, t.packet_len, t.dscp)
                    .with_train(t.train);
                if let Some(life) = t.churn {
                    set = set.with_churn(life);
                }
                let pins = (t.flows as usize).min(pin_budget) as u32;
                let mut pinned = Vec::with_capacity(pins as usize);
                if cfg.steering == FlowSteering::Perfect {
                    for p in 0..u64::from(pins) {
                        // Stride the pins across the whole index space so
                        // perfect coverage interleaves with ATR/RSS-steered
                        // flows instead of truncating at the budget
                        // boundary.
                        let slot = (p * u64::from(t.flows) / u64::from(pins)) as u32;
                        let q = queues[slot as usize % queues.len()];
                        nic.flow_director_mut()
                            .install_perfect(set.tuple_of(slot), q);
                        pinned.push(slot);
                    }
                }
                if set.is_wide() || t.flows as usize > pin_budget {
                    fd_active = true;
                }
                fd_tenants.push(Some(FdTenant::new(set, queues, pinned)));
                gens.push(ArrivalSource::Multi(Box::new(MultiFlowGen::streaming(
                    set,
                    t.traffic,
                    cfg.duration,
                ))));
            }
        }
        let fd = fd_active.then(|| FdAccounting::new(fd_tenants, regions.len()));

        // --- explicit mbuf pools ------------------------------------------------
        // RDCA sizing: a queue's pool budget is its equal share of the
        // DDIO partition, so a Recycle pool's working set fits inside the
        // I/O ways it recycles through. Dram pools carry the same budget
        // for spill accounting only. Geometry is fixed at construction;
        // the IAT tuner moving the boundary later does not resize pools.
        let lines_per_buf = (idio_nic::ring::DEFAULT_BUF_BYTES / LINE_SIZE) as u32;
        let pool_budget = {
            let h = hier.config();
            let ddio_lines = h.llc.lines() * h.ddio_ways as u64 / h.llc.ways as u64;
            (ddio_lines / regions.len().max(1) as u64).max(u64::from(lines_per_buf))
        };

        // --- per-core software state -------------------------------------------
        let mut nf: Vec<Option<NfState>> = (0..num_cores).map(|_| None).collect();
        for (qi, (core, t)) in cfg.queues().enumerate() {
            // Kernel-allocates the DMA buffers as Invalidatable pages.
            allocate_invalidatable(
                &mut page_table,
                &mut hier,
                regions[qi].buf_base,
                u64::from(cfg.ring_size) * idio_nic::ring::DEFAULT_BUF_BYTES,
            );
            if let Some(spec) = t.pool {
                let mode = spec.resolve(pool_budget, lines_per_buf, cfg.ring_size);
                nic.ring_mut(QueueId(qi as u16)).install_pool(BufPool::new(
                    mode,
                    regions[qi].buf_base,
                    idio_nic::ring::DEFAULT_BUF_BYTES,
                    lines_per_buf,
                    pool_budget,
                ));
            }
            nf[core.index()] = Some(NfState {
                kind: t.nf,
                queue: QueueId(qi as u16),
                regions: regions[qi],
                busy: false,
                batch: VecDeque::new(),
                current: None,
                latency: LatencyRecorder::new(),
                lat_hist: Histogram::new(),
                stage_hist: std::array::from_fn(|_| Histogram::new()),
                scratch: PacketWork::empty(),
                completed: 0,
                rx_seq: 0,
                done_seq: 0,
                tx_ring: TxRing::new(cfg.ring_size, regions[qi].tx_desc_base),
            });
        }

        // --- antagonist ---------------------------------------------------------
        let antagonist = cfg.antagonist.map(|spec| {
            let ant_cfg = AntagonistConfig::llc_thrashing(map.alloc(BUFFER_BYTES));
            (spec.core, LlcAntagonist::new(ant_cfg, rng.fork(1)))
        });

        // Warm-up: the antagonist initialises its buffer (Sec. VI), then all
        // statistics start from zero.
        if let Some((core, ant)) = &antagonist {
            let (first, lines) = ant.warmup_lines();
            hier.warm_writes(*core, first, lines);
        }
        hier.reset_stats();

        let ctrl = IdioController::new(cfg.idio, num_cores);
        let prefetchers = (0..num_cores)
            .map(|_| MlcPrefetcher::new(cfg.prefetcher))
            .collect();
        // Parked-hint arena: only CPU-paced pacing ever parks. The ring
        // bound is exact — at most `ring_size` packets are in flight and
        // each parks at most one hint per line of its RX buffer slot.
        let hint_cap = match cfg.prefetcher.pacing {
            crate::prefetcher::PrefetchPacing::CpuPaced { .. } => {
                cfg.ring_size as usize * lines_per_buf as usize
            }
            crate::prefetcher::PrefetchPacing::Queued => 0,
        };
        let hints = HintArena::new(num_cores, hint_cap);
        const MTPS: f64 = 1e-6;
        let hard_stop = cfg.duration + cfg.drain_grace;
        // Sample ticks fall at every multiple of the interval up to the
        // hard stop, so the timelines are sized once, exactly (up to a
        // cap past which they grow as needed).
        const MAX_RESERVED_TICKS: u64 = 1 << 20;
        let ticks = (hard_stop.as_ps() / SAMPLE_INTERVAL.as_ps()).min(MAX_RESERVED_TICKS);
        let rates = RATES.map(|name| {
            let mut r = RateSampler::scaled(name, SAMPLE_INTERVAL, MTPS);
            r.reserve(ticks as usize);
            r
        });
        // The occupancy gauge samples every tenth tick (see on_sample_tick).
        let mut dma_llc_share = TimeSeries::ratio(
            "dma_llc_share",
            SAMPLE_INTERVAL * 10,
            hier.llc().capacity_lines() as u64,
        );
        dma_llc_share.reserve((ticks / 10) as usize);
        // Burst windows follow the traffic of the tenant that owns queue 0
        // (every tenant owns a core, so that is the first tenant).
        let bursts = tenants.first().and_then(|t| match t.traffic {
            TrafficPattern::Bursty(spec) => Some(Bursts::new(spec.period, num_cores, &cfg)),
            TrafficPattern::Steady { .. } | TrafficPattern::Poisson { .. } => None,
        });

        let dma_line_ranges: Vec<(u64, u64)> = regions
            .iter()
            .map(|r| {
                let (lo, hi) = r.buf_range();
                (lo.line().get(), hi.line().get())
            })
            .collect();
        let tracer = if cfg.trace.is_off() {
            Tracer::disabled()
        } else {
            Tracer::new(cfg.trace.clone(), DEFAULT_TRACE_CAPACITY)
        };
        let iat = IatTuner::new(&policy);
        let cat = CatPartition::new(&policy, cfg.queues().map(|(core, _)| core), &mut hier);
        let pools = Pools::new(&cfg, &nic, &regions);
        let mut system = System {
            queue: EventQueue::new(),
            pending_arrival: vec![None; gens.len()],
            gens,
            hier,
            dram,
            nic,
            page_table,
            ctrl,
            prefetchers,
            nf,
            antagonist,
            rates,
            dma_llc_share,
            bursts,
            hard_stop,
            sample_ticks: 0,
            iat,
            cat,
            policy,
            metrics: MetricsRegistry::new(),
            tracer,
            ev_counts: [0; Event::TYPES],
            ev_wall: [std::time::Duration::ZERO; Event::TYPES],
            steer: vec![[0; 3]; num_cores],
            hints,
            ctrl_wbs: Vec::with_capacity(num_cores),
            ctrl_fsm_before: Vec::new(),
            tick_log: Vec::new(),
            tick_last_steer: [0; 3],
            fd,
            pools,
            cfg,
        };
        // The occupancy gauge counts DMA-buffer lines resident in the
        // LLC; tracking the buffer ranges in the array keeps that a
        // counter read instead of a full-LLC scan every sample tick.
        system.hier.track_llc_ranges(&dma_line_ranges);
        system.schedule_initial();
        Ok(system)
    }

    fn schedule_initial(&mut self) {
        for gi in 0..self.gens.len() {
            self.arm_next_arrival(gi);
        }
        if self.antagonist.is_some() {
            self.queue.schedule_at(SimTime::ZERO, Event::AntagonistNext);
        }
        self.queue
            .schedule_at(SimTime::ZERO + CONTROL_INTERVAL, Event::ControlTick);
        self.queue
            .schedule_at(SimTime::ZERO + SAMPLE_INTERVAL, Event::SampleTick);
    }

    fn arm_next_arrival(&mut self, gen: usize) {
        if let Some(arrival) = self.gens[gen].next() {
            self.pending_arrival[gen] = Some(arrival.packet);
            self.queue.schedule_at(arrival.at, Event::Arrival { gen });
        }
    }

    /// Runs the simulation to completion and produces the report.
    pub fn run(mut self) -> RunReport {
        let profile_wall = self.cfg.profile_events;
        while let Some((now, ev)) = self.queue.pop() {
            if now > self.hard_stop {
                break;
            }
            let ti = ev.type_index();
            self.ev_counts[ti] += 1;
            if self.tracer.enabled("event") {
                let pending = self.queue.len();
                self.tracer.record(now, "event", Event::NAMES[ti], || {
                    format!("pending={pending}")
                });
            }
            if profile_wall {
                let t0 = std::time::Instant::now();
                self.handle(now, ev);
                self.ev_wall[ti] += t0.elapsed();
            } else {
                self.handle(now, ev);
            }
        }
        self.into_report()
    }

    /// Read access to the hierarchy (tests and diagnostics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    // ----- event handlers ---------------------------------------------------

    /// Checked lookup of the NF state pinned to `core`. Every NF-path
    /// handler goes through this instead of indexing `self.nf` directly.
    ///
    /// # Panics
    ///
    /// Panics if `core` has no NF. Every queue is pinned to exactly one NF
    /// core at construction, so only a mis-wired configuration (a queue
    /// pinned to one core while its events address another) gets here; the
    /// message names both the core and the event being handled.
    #[track_caller]
    fn nf_state(&mut self, core: usize, event: &'static str) -> &mut NfState {
        match self.nf.get_mut(core).and_then(Option::as_mut) {
            Some(st) => st,
            None => panic!(
                "{event} event dispatched to core{core}, but no NF is configured there \
                 (check the tenants' core pinning in SystemConfig::tenants)"
            ),
        }
    }

    fn handle(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Arrival { gen } => self.on_arrival(now, gen),
            Event::DmaPacket(batch) => self.on_dma_packet(batch),
            Event::DescWriteback { queue, slot } => self.on_desc_writeback(now, queue, slot),
            Event::PrefetchIssue { core } => self.on_prefetch_issue(now, core),
            Event::CoreWake { core } => self.on_core_wake(now, core),
            Event::TxComplete(tx) => self.on_tx_complete(now, tx),
            Event::AntagonistNext => self.on_antagonist(now),
            Event::ControlTick => self.on_control_tick(now),
            Event::SampleTick => self.on_sample_tick(now),
        }
    }

    fn on_arrival(&mut self, now: SimTime, gen: usize) {
        let packet = self.pending_arrival[gen]
            .take()
            .expect("arrival event without pending packet");
        // Resolve the packet's *home* queue (where its flow's NF runs)
        // before the NIC steers it; comparing against the steered queue
        // is what detects flow-director mis-steers.
        let home = self.fd.as_ref().and_then(|fd| fd.home(gen, &packet.flow));
        if let Some(dma) = self.nic.rx_packet(now, packet) {
            if let (Some(home), Some(fd)) = (home, self.fd.as_mut()) {
                fd.tally(now, home, dma.steer, dma.queue, &mut self.tracer);
            }
            if let Some(pools) = &mut self.pools {
                pools.mark_active(now, dma.queue);
            }
            let core = dma.dest_core.index();
            let seq = {
                let st = self.nf_state(core, "Arrival");
                st.rx_seq += 1;
                st.rx_seq
            };
            let buf_line = dma.slot.buf.line();
            // One batched event for the whole payload instead of one
            // event per cache line; the handler applies the lines at
            // their original per-line timestamps.
            let batch_seq = self.queue.next_seq();
            self.queue.schedule_at(
                dma.payload.first,
                Event::DmaPacket(DmaBatch {
                    buf_line,
                    meta: dma.head_meta,
                    arrival: now,
                    seq,
                    first: dma.payload.first,
                    lines: dma.payload.lines,
                    next: 0,
                    batch_seq,
                    domain: dma.policy_domain,
                }),
            );
            self.queue.schedule_at(
                dma.descriptor.done(),
                Event::DescWriteback {
                    queue: dma.queue,
                    slot: dma.slot.slot,
                },
            );
        }
        self.arm_next_arrival(gen);
    }

    /// Resolved policy capabilities of `queue` (one table index).
    #[inline]
    fn queue_caps(&self, queue: QueueId) -> PolicyCaps {
        self.policy.caps(self.policy.queue_domain(queue.index()))
    }

    fn charge_dram(&mut self, now: SimTime, fx: MemEffects) {
        for _ in 0..fx.dram_writes + fx.dram_reads {
            self.dram.request(now);
        }
    }

    /// Writes a `bytes`-long descriptor at `addr` over PCIe, placed like
    /// any DDIO write.
    fn write_descriptor(&mut self, now: SimTime, addr: Addr, bytes: u64) {
        for l in 0..bytes / LINE_SIZE {
            let w = self
                .hier
                .pcie_write(addr.line().offset(l), DmaPlacement::Llc);
            self.charge_dram(now, w.effects);
        }
    }

    /// Applies one batched-DMA event from payload line `b.next` onward.
    ///
    /// Each line is applied at its own timestamp `first + LINE_TIME * i`
    /// (identical DRAM queueing and burst accounting to the per-line
    /// events this replaces). Before applying line `i`, the queue head is
    /// compared against the line's order key `(at_i, batch_seq)`: if some
    /// interleaved event sorts earlier, the remaining lines are parked as
    /// a continuation behind it via
    /// [`EventQueue::schedule_resume`](idio_engine::queue::EventQueue::schedule_resume),
    /// which preserves `batch_seq` so FIFO tie-breaks match the old
    /// per-line scheduling exactly.
    fn on_dma_packet(&mut self, b: DmaBatch) {
        let mut applied: u64 = 0;
        for i in b.next..b.lines {
            let at = b.first + LINE_TIME * u64::from(i);
            if let Some(key) = self.queue.peek_key() {
                if key < (at, b.batch_seq) {
                    self.queue.schedule_resume(
                        at,
                        b.batch_seq,
                        Event::DmaPacket(DmaBatch { next: i, ..b }),
                    );
                    break;
                }
            }
            let meta = if i == 0 {
                b.meta
            } else {
                TlpMeta {
                    is_header: false,
                    is_burst: false,
                    ..b.meta
                }
            };
            self.apply_dma_line(
                at,
                b.buf_line.offset(u64::from(i)),
                meta,
                b.arrival,
                b.seq,
                b.domain,
            );
            applied += 1;
        }
        // run() already counted this pop once; count the extra lines so
        // `engine.events.dma_line` still equals the number of DMA lines.
        self.ev_counts[1] += applied.saturating_sub(1);
    }

    /// The per-line DMA logic: burst accounting, steering, cache-hierarchy
    /// write and DRAM charge, all at the line's own arrival time `now`.
    fn apply_dma_line(
        &mut self,
        now: SimTime,
        line: LineAddr,
        meta: TlpMeta,
        arrival: SimTime,
        seq: u64,
        domain: u16,
    ) {
        if let Some(b) = &mut self.bursts {
            b.record_dma(meta.dest_core.index(), arrival, now);
        }
        // A burst flag can flip the destination core's FSM inside steer();
        // observe the before/after status only when someone is watching.
        let fsm_before = if self.tracer.enabled("fsm") {
            Some(self.ctrl.status(meta.dest_core))
        } else {
            None
        };
        let placement = self.ctrl.steer(self.policy.caps(domain), meta);
        if let Some(before) = fsm_before {
            let after = self.ctrl.status(meta.dest_core);
            if after != before {
                self.tracer.record(now, "fsm", "transition", move || {
                    format!("core={} {before:?}->{after:?} cause=burst", meta.dest_core)
                });
            }
        }
        if self.tracer.enabled("steer") {
            self.tracer.record(now, "steer", "placement", move || {
                format!(
                    "line={line} core={} class={:?} hdr={} burst={} p={placement:?}",
                    meta.dest_core, meta.app_class, meta.is_header, meta.is_burst
                )
            });
        }
        // `STEER_KEYS` column and cache-side placement of the write; an
        // MLC placement lands in the LLC and hints the core's prefetcher.
        let (col, to) = match placement {
            Placement::Llc => (0, DmaPlacement::Llc),
            Placement::Mlc(_) => (1, DmaPlacement::Llc),
            Placement::Dram => (2, DmaPlacement::Dram),
        };
        self.steer[meta.dest_core.index()][col] += 1;
        let w = self.hier.pcie_write(line, to);
        self.charge_dram(now, w.effects);
        if let Placement::Mlc(core) = placement {
            self.hier_prefetch_hint(now, core.index(), line, seq);
        }
    }

    fn hier_prefetch_hint(&mut self, now: SimTime, core: usize, line: LineAddr, seq: u64) {
        use crate::prefetcher::PrefetchPacing;
        if let PrefetchPacing::CpuPaced { window_packets } = self.cfg.prefetcher.pacing {
            if let Some(st) = self.nf[core].as_ref() {
                if seq > st.done_seq + u64::from(window_packets) {
                    // Too far ahead of the CPU pointer: park the hint; it
                    // is released as packets complete (Sec. VII future
                    // work — nothing is dropped, the MLC is not flooded).
                    self.hints.park(core, seq, line);
                    return;
                }
            }
        }
        self.push_hint(now, core, line);
    }

    fn push_hint(&mut self, now: SimTime, core: usize, line: LineAddr) {
        if !self.prefetchers[core].push(line) {
            self.tracer.record(now, "prefetch", "drop", move || {
                format!("core=core{core} line={line}")
            });
            return;
        }
        let pf = &mut self.prefetchers[core];
        if !pf.issue_pending {
            pf.issue_pending = true;
            self.queue
                .schedule_at(now + ISSUE_GAP, Event::PrefetchIssue { core });
        }
    }

    /// Advances the CPU pointer for `core` and releases parked hints that
    /// fell inside the pacing window.
    ///
    /// Hints drain straight from the arena ring into the prefetcher — no
    /// per-advance `release` buffer, no pop-after-peek `expect`: the ring
    /// hands back one ready hint at a time, and an impossible state (a
    /// parked hint that cannot exist) is diagnosed inside
    /// [`HintArena::park`] with the core and sequence number.
    fn advance_cpu_pointer(&mut self, now: SimTime, core: usize) {
        use crate::prefetcher::PrefetchPacing;
        let window = match self.cfg.prefetcher.pacing {
            PrefetchPacing::CpuPaced { window_packets } => u64::from(window_packets),
            PrefetchPacing::Queued => {
                if let Some(st) = self.nf[core].as_mut() {
                    st.done_seq += 1;
                }
                return;
            }
        };
        let Some(st) = self.nf[core].as_mut() else {
            return;
        };
        st.done_seq += 1;
        let limit = st.done_seq + window;
        while let Some(line) = self.hints.pop_ready(core, limit) {
            self.push_hint(now, core, line);
        }
    }

    fn on_prefetch_issue(&mut self, now: SimTime, core: usize) {
        if let Some(line) = self.prefetchers[core].pop() {
            use crate::prefetcher::PrefetchPacing;
            use idio_cache::hierarchy::PrefetchOutcome;
            // The CPU-paced prefetcher walks the ring just ahead of the
            // consumption pointer, so it may recover lines from DRAM; the
            // paper's queued prefetcher only pulls from the LLC.
            let out = match self.cfg.prefetcher.pacing {
                PrefetchPacing::Queued => self.hier.prefetch_fill(CoreId::new(core as u16), line),
                PrefetchPacing::CpuPaced { .. } => {
                    self.hier.prefetch_fill_deep(CoreId::new(core as u16), line)
                }
            };
            if let PrefetchOutcome::Filled(fx) = out {
                self.charge_dram(now, fx);
            }
        }
        if self.prefetchers[core].is_empty() {
            self.prefetchers[core].issue_pending = false;
        } else {
            self.queue
                .schedule_at(now + ISSUE_GAP, Event::PrefetchIssue { core });
        }
    }

    fn on_desc_writeback(&mut self, now: SimTime, queue: QueueId, slot: u32) {
        // The descriptor record (2 lines) is written back over PCIe —
        // placed like any DDIO write (descriptors are not packet data and
        // are not steered).
        let desc = self.nic.ring(queue).desc_addr(slot);
        self.write_descriptor(now, desc, idio_nic::ring::DESC_BYTES);
        self.nic.ring_mut(queue).complete(slot);

        // Wake the pinned core if it is idle.
        let core = self.nic.config().queue_core[queue.index()].index();
        let st = self.nf_state(core, "DescWriteback");
        if !st.busy {
            st.busy = true;
            let poll = CoreTiming::poll();
            self.queue.schedule_at(now + poll, Event::CoreWake { core });
        }
    }

    fn on_core_wake(&mut self, now: SimTime, core: usize) {
        // Finish the packet whose service time just elapsed.
        if let Some((slot, action)) = self.nf_state(core, "CoreWake").current.take() {
            self.finish_packet(now, core, slot, action);
        }

        // Refill the batch if needed.
        let queue = self.nf_state(core, "CoreWake").queue;
        let mut extra = Duration::ZERO;
        if self.nf_state(core, "CoreWake").batch.is_empty() {
            let got = self.nic.ring_mut(queue).pop_completed(DEFAULT_BATCH);
            if got.is_empty() {
                self.nf_state(core, "CoreWake").busy = false;
                return;
            }
            extra = CoreTiming::batch();
            self.nf_state(core, "CoreWake").batch.extend(got);
        }

        // Start the next packet.
        let slot = self
            .nf_state(core, "CoreWake")
            .batch
            .pop_front()
            .expect("batch refilled above");
        let (service, action) = self.execute_packet(now, core, &slot);
        self.nf_state(core, "CoreWake").current = Some((slot, action));
        self.queue
            .schedule_at(now + extra + service, Event::CoreWake { core });
    }

    /// Runs the NF's memory program for one packet, returning the service
    /// time and post-action.
    fn execute_packet(
        &mut self,
        now: SimTime,
        core: usize,
        slot: &RxSlot,
    ) -> (Duration, PacketAction) {
        let st = self.nf_state(core, "CoreWake");
        let kind = st.kind;
        let queue = st.queue;
        let ctx = PacketCtx {
            buf: slot.buf,
            desc: slot.desc,
            meta: st.regions.meta_addr(slot.slot),
            app: st.regions.app_addr(slot.slot),
            len: slot.packet.len,
        };
        // Build the program into the core's scratch buffer (taken out of
        // the state to release the borrow, put back below): no per-packet
        // allocation.
        let mut work = std::mem::take(&mut st.scratch);
        kind.packet_work_into(&ctx, &mut work);
        let core_id = CoreId::new(core as u16);
        let mut service = CoreTiming::per_packet();
        // Chain-stage attribution: each mark closes the segment of ops
        // since the previous mark; segment service lands in that stage's
        // histogram (empty for single NFs — `marks` is empty).
        let mut seg = Duration::ZERO;
        let mut segs = [(0usize, 0u64); idio_stack::MAX_CHAIN_STAGES];
        let mut n_segs = 0usize;
        let mut next_mark = 0usize;
        for (oi, op) in work.ops.iter().enumerate() {
            let (addr, lines, is_write) = match *op {
                MemOp::Read { addr, lines } => (addr, lines, false),
                MemOp::Write { addr, lines } => (addr, lines, true),
            };
            for l in 0..u64::from(lines) {
                let line = addr.line().offset(l);
                let acc = if is_write {
                    self.hier.cpu_write(core_id, line)
                } else {
                    self.hier.cpu_read(core_id, line)
                };
                // Victim writebacks consume DRAM bandwidth but do not
                // stall the core.
                let mut fx = acc.effects;
                let cost = if acc.level == HitLevel::Dram {
                    debug_assert!(fx.dram_reads >= 1);
                    fx.dram_reads -= 1;
                    let done = self.dram.request(now);
                    CoreTiming::dram_cost(done.saturating_since(now))
                } else {
                    CoreTiming::hit_cost(acc.level)
                };
                self.charge_dram(now, fx);
                service += cost;
                seg += cost;
            }
            while next_mark < work.marks.len() && work.marks[next_mark].op_end as usize == oi + 1 {
                segs[n_segs] = (work.marks[next_mark].stage.index(), seg.as_ns());
                n_segs += 1;
                seg = Duration::ZERO;
                next_mark += 1;
            }
        }
        // The self-invalidate instructions run as part of the packet's
        // service when the buffer is freed inline (drop path). Recycle
        // pools self-invalidate on every free regardless of policy caps.
        if work.action == PacketAction::Drop && self.invalidates_on_free(queue) {
            service += CoreTiming::invalidate(ctx.frame_lines());
        }
        let action = work.action;
        let st = self.nf_state(core, "CoreWake");
        for &(si, ns) in &segs[..n_segs] {
            st.stage_hist[si].record(ns);
        }
        st.scratch = work;
        (service, action)
    }

    fn invalidate_buffer(&mut self, now: SimTime, core: usize, buf: Addr, lines: u32) {
        self.tracer.record(now, "maint", "invalidate", move || {
            format!("core=core{core} buf={buf} lines={lines}")
        });
        if let Err(e) = invalidate_range(
            &mut self.hier,
            &self.page_table,
            CoreId::new(core as u16),
            buf,
            u64::from(lines) * LINE_SIZE,
        ) {
            panic!(
                "invalidate on core{core} rejected for buffer {buf} \
                 ({lines} lines): {e:?} — DMA buffers must be allocated \
                 Invalidatable (check the queue's buffer layout)"
            );
        }
    }

    fn finish_packet(&mut self, now: SimTime, core: usize, slot: RxSlot, action: PacketAction) {
        match action {
            PacketAction::Drop => {
                // Drop-type NFs never transmit: the packet completes (and
                // its buffer is freed) here.
                self.learn_flow(now, &slot.packet.flow, None);
                let lines = slot.packet.lines();
                self.complete_packet(now, core, slot.buf, lines, slot.arrived_at, "CoreWake");
            }
            PacketAction::Tx { lines } => {
                // Post a TX descriptor; the NIC reads the descriptor, then
                // the packet data, then writes the completion back.
                let st = self.nf_state(core, "CoreWake");
                let queue = st.queue;
                st.tx_ring
                    .post(slot.buf, lines, now)
                    .expect("tx ring sized to the rx ring cannot overflow");
                let sched = self.nic.tx_packet(now, lines);
                self.queue.schedule_at(
                    sched.done(),
                    Event::TxComplete(TxDone {
                        queue,
                        buf: slot.buf,
                        lines,
                        arrival: slot.arrived_at,
                        flow: slot.packet.flow,
                    }),
                );
            }
        }
    }

    /// Completion-time steering feedback. Under flow-director pressure the
    /// driver programs the NIC's filter table with the flow's *home* queue
    /// (where its consumer actually runs — not where this packet happened
    /// to land), so unpinned flows converge onto ATR steering after their
    /// first completion (aRFS-style). Otherwise, under
    /// [`FlowSteering::Atr`], the NIC learns the queue a forwarded packet
    /// was transmitted from (`tx_queue`; `None` for a drop).
    fn learn_flow(&mut self, now: SimTime, flow: &FiveTuple, tx_queue: Option<QueueId>) {
        let home = self.fd.as_ref().and_then(|fd| fd.home_of(flow));
        let atr = tx_queue.filter(|_| self.cfg.steering == FlowSteering::Atr);
        if let Some(q) = home.or(atr) {
            self.nic.flow_director_mut().learn(now, flow, q);
        }
    }

    /// Whether freeing a buffer of `queue` self-invalidates it: the
    /// queue's policy asks for it, or its pool recycles (recycle pools
    /// self-invalidate on every free regardless of policy caps).
    fn invalidates_on_free(&self, queue: QueueId) -> bool {
        self.queue_caps(queue).invalidate || self.nic.ring(queue).pool().invalidate_on_free()
    }

    /// Returns a consumed buffer to its queue's pool at the packet's
    /// completion event — never at steer or TX-post time — so a recycle
    /// pool's LIFO free list sees the true release order.
    fn free_buffer(&mut self, now: SimTime, core: usize, queue: QueueId, buf: Addr, lines: u32) {
        if self.invalidates_on_free(queue) {
            self.invalidate_buffer(now, core, buf, lines);
        }
        self.nic.ring_mut(queue).release(buf);
        if let Some(pools) = &mut self.pools {
            pools.mark_active(now, queue);
        }
    }

    /// Completes one packet on `core`: frees its buffer, records its
    /// end-to-end latency and the burst trackers, and advances the CPU
    /// pointer. Both completion points — a drop at the end of service and
    /// a forwarded packet's TX completion — end here.
    fn complete_packet(
        &mut self,
        now: SimTime,
        core: usize,
        buf: Addr,
        lines: u32,
        arrival: SimTime,
        event: &'static str,
    ) {
        let queue = self.nf_state(core, event).queue;
        self.free_buffer(now, core, queue, buf, lines);
        let st = self.nf_state(core, event);
        let lat = now.saturating_since(arrival);
        st.latency.record(lat);
        st.lat_hist.record(lat.as_ns());
        st.completed += 1;
        if let Some(b) = &mut self.bursts {
            b.record_completion(core, arrival, now);
        }
        self.advance_cpu_pointer(now, core);
    }

    fn on_tx_complete(&mut self, now: SimTime, tx: TxDone) {
        self.learn_flow(now, &tx.flow, Some(tx.queue));
        for l in 0..u64::from(tx.lines) {
            let r = self.hier.pcie_read(tx.buf.line().offset(l));
            self.charge_dram(now, r.effects);
        }
        let core = self.nic.config().queue_core[tx.queue.index()].index();
        // Completion descriptor writeback: an inbound PCIe write that
        // lands in the DDIO ways like any other device write.
        let done = self.nf_state(core, "TxComplete").tx_ring.complete();
        self.write_descriptor(now, done.desc, idio_nic::tx::TX_DESC_BYTES);
        self.complete_packet(now, core, tx.buf, tx.lines, tx.arrival, "TxComplete");
    }

    fn on_antagonist(&mut self, now: SimTime) {
        let (core, line) = {
            let (core, ant) = self.antagonist.as_mut().expect("antagonist event");
            (*core, ant.next_line())
        };
        let acc = self.hier.cpu_read(core, line);
        let mut fx = acc.effects;
        // Dependent random loads: DRAM latency is fully exposed (no MLP).
        let cost = if acc.level == HitLevel::Dram {
            fx.dram_reads = fx.dram_reads.saturating_sub(1);
            let done = self.dram.request(now);
            CoreTiming::dram_cost_dependent(done.saturating_since(now))
        } else {
            CoreTiming::hit_cost(acc.level)
        };
        self.charge_dram(now, fx);
        let elapsed = cost + FREQ.cycles_to_duration(THINK_CYCLES);
        self.antagonist.as_mut().unwrap().1.record(elapsed);
        if now + elapsed <= self.hard_stop {
            self.queue.schedule_at(now + elapsed, Event::AntagonistNext);
        }
    }

    fn on_control_tick(&mut self, now: SimTime) {
        // The controller's MLC-WB snapshot, refilled in place so the 1 µs
        // control loop never allocates; the CAT loop folds it into
        // per-domain pressure.
        self.ctrl_wbs.clear();
        self.ctrl_wbs
            .extend(self.hier.stats().core.iter().map(|c| c.mlc_wb.get()));
        let fsm_watch = self.tracer.enabled("fsm");
        if fsm_watch {
            self.ctrl_fsm_before.clear();
            for i in 0..self.ctrl_wbs.len() {
                self.ctrl_fsm_before
                    .push(self.ctrl.status(CoreId::new(i as u16)));
            }
        }
        self.ctrl.control_tick(&self.ctrl_wbs);
        if fsm_watch {
            for i in 0..self.ctrl_fsm_before.len() {
                let prev = self.ctrl_fsm_before[i];
                let cur = self.ctrl.status(CoreId::new(i as u16));
                if cur != prev {
                    let wb = self.ctrl_wbs[i];
                    self.tracer.record(now, "fsm", "transition", move || {
                        format!("core=core{i} {prev:?}->{cur:?} wb={wb} cause=tick")
                    });
                }
            }
        }
        if let Some(iat) = &mut self.iat {
            iat.tick(&mut self.hier);
        }
        if let Some(cat) = &mut self.cat {
            cat.tick(
                now,
                &self.ctrl_wbs,
                &mut self.hier,
                &self.policy,
                &mut self.tracer,
            );
        }
        if let Some(fd) = &mut self.fd {
            fd.refresh(now, self.nic.flow_director_mut());
        }
        while let Some((core, base, lines)) = self
            .pools
            .as_mut()
            .and_then(|p| p.next_idle_flush(now, &self.nic))
        {
            self.invalidate_buffer(now, core, base, lines);
        }
        if self.cfg.tick_metrics {
            self.record_tick_metrics(now);
        }
        let next = now + CONTROL_INTERVAL;
        if next <= self.hard_stop {
            self.queue.schedule_at(next, Event::ControlTick);
        }
    }

    /// Appends one NDJSON line describing this control tick to the
    /// tick-metrics timeline ([`SystemConfig::tick_metrics`]): the steering
    /// mix since the previous tick (delta line counts, not cumulative), the
    /// per-core prefetch-FSM states as a compact `M`/`L` string, then the
    /// `cat`, `fd` and `pool` sections of whichever of those components
    /// the run configured.
    fn record_tick_metrics(&mut self, now: SimTime) {
        let total = column_sums(&self.steer);
        let delta: [u64; 3] = std::array::from_fn(|i| total[i] - self.tick_last_steer[i]);
        self.tick_last_steer = total;
        let mut line = String::with_capacity(96);
        let _ = write!(line, "{{\"t_us\":{:.3},\"steer\":", now.as_us_f64());
        write_counts(&mut line, &STEER_KEYS, &delta);
        line.push_str(",\"fsm\":\"");
        for i in 0..self.steer.len() {
            line.push(match self.ctrl.status(CoreId::new(i as u16)) {
                MlcStatus::Mlc => 'M',
                MlcStatus::Llc => 'L',
            });
        }
        line.push('"');
        if let Some(cat) = &self.cat {
            cat.tick_section(&mut line, &self.policy);
        }
        if let Some(fd) = &mut self.fd {
            fd.tick_section(&mut line);
        }
        if let Some(pools) = &self.pools {
            pools.tick_section(&mut line, &self.nic);
        }
        line.push('}');
        self.tick_log.push(line);
    }

    /// The cumulative counters behind the [`RATES`] timelines.
    fn sampled_counters(&self) -> [u64; RATES.len()] {
        let h = self.hier.stats();
        [
            h.total_mlc_wb(),
            h.shared.llc_wb.get(),
            h.shared.dram_reads.get(),
            h.shared.dram_writes.get(),
            h.shared.pcie_writes.get(),
            h.total_prefetch_fills(),
            // Private-cache and LLC copies are mutually exclusive in the
            // non-inclusive hierarchy, so the sum counts each dropped
            // line exactly once.
            h.total_self_invalidations() + h.shared.llc_self_invalidations.get(),
        ]
    }

    fn on_sample_tick(&mut self, now: SimTime) {
        let counters = self.sampled_counters();
        for (s, v) in self.rates.iter_mut().zip(counters) {
            s.sample(now, v);
        }
        // The occupancy gauge used to scan the LLC, so it sampled at a
        // tenth of the counter-sampling rate; the array now maintains
        // the count incrementally, but the cadence is kept so the
        // sampled series stays identical.
        self.sample_ticks += 1;
        if self.sample_ticks.is_multiple_of(10) {
            let dma = self.hier.llc().tracked_resident();
            self.dma_llc_share.push(now, dma as u64);
        }
        let next = now + SAMPLE_INTERVAL;
        if next <= self.hard_stop {
            self.queue.schedule_at(next, Event::SampleTick);
        }
    }

    // ----- report -------------------------------------------------------------

    fn into_report(mut self) -> RunReport {
        let [mlc_wb, llc_wb, dram_rd, dram_wr, pcie_wr, prefetch_fills, self_inval] =
            self.sampled_counters();
        let h = self.hier.stats();
        let totals = RunTotals {
            mlc_wb,
            mlc_inval_by_dma: h.total_mlc_inval_by_dma(),
            llc_wb,
            dram_rd,
            dram_wr,
            pcie_wr,
            prefetch_fills,
            self_inval,
            rx_packets: self.nic.stats().rx_packets.get(),
            rx_drops: self.nic.stats().rx_drops.get(),
            completed_packets: self.nf.iter().flatten().map(|st| st.completed).sum(),
        };
        let latency = (self.nf.iter_mut().enumerate())
            .filter_map(|(ci, st)| {
                let s = LatencySummary::from_recorder(&mut st.as_mut()?.latency)?;
                Some((CoreId::new(ci as u16), s))
            })
            .collect();
        let antagonist_cpa = self
            .antagonist
            .as_ref()
            .map(|(_, a)| a.stats().cycles_per_access(FREQ.ps_per_cycle()));

        // ---- fold final counters into the metrics registry -----------------
        let backwards = self.rates.iter().map(|s| s.backwards_samples()).sum();
        let (accepted, dropped, issued) = self.prefetchers.iter().fold((0, 0, 0), |acc, p| {
            let s = p.stats();
            (
                acc.0 + s.accepted.get(),
                acc.1 + s.dropped.get(),
                acc.2 + s.issued.get(),
            )
        });
        let m = &mut self.metrics;
        for (name, v) in [
            // Engine-level anomaly counters (were debug_assert!s; now
            // always-on diagnostics identical across build profiles).
            (
                "engine.schedule_past_clamped",
                self.queue.schedule_past_clamped(),
            ),
            ("stats.counter_backwards", backwards),
            // Component counters under stable dotted names.
            ("nic.rx.packets", totals.rx_packets),
            ("nic.rx.drops", totals.rx_drops),
            ("nic.dma.lines", totals.pcie_wr),
            ("llc.wb", totals.llc_wb),
            ("dram.rd", totals.dram_rd),
            ("dram.wr", totals.dram_wr),
            ("packets.completed", totals.completed_packets),
            ("maint.self_inval", totals.self_inval),
            ("prefetch.accepted", accepted),
            ("prefetch.drops", dropped),
            ("prefetch.issued", issued),
            ("trace.records", self.tracer.total()),
            ("trace.evicted", self.tracer.evicted()),
        ] {
            m.counter_set(name, v);
        }
        for (name, &v) in Event::NAMES.iter().zip(&self.ev_counts) {
            m.counter_set(&format!("engine.events.{name}"), v);
        }
        for (key, v) in STEER_KEYS.iter().zip(column_sums(&self.steer)) {
            m.counter_set(&format!("steer.{key}"), v);
        }
        // Each configured component exports its own counters.
        if let Some(cat) = &self.cat {
            cat.export(m, &self.policy);
        }
        if let Some(fd) = &self.fd {
            fd.export(m, self.nic.flow_director().stats());
        }
        if let Some(pools) = &self.pools {
            pools.export(m, &self.nic);
        }
        // Per-core attribution: steering mix by destination core, queue
        // RX load/loss, completions, and the packet-latency histograms —
        // everything a multi-tenant report needs to slice a mixed run by
        // the cores/queues each tenant owns.
        for (i, c) in h.core.iter().enumerate() {
            m.counter_set(&format!("core{i}.mlc.wb"), c.mlc_wb.get());
        }
        for (i, s) in self.steer.iter().enumerate() {
            for (key, &v) in STEER_KEYS.iter().zip(s) {
                m.counter_set(&format!("core{i}.steer.{key}"), v);
            }
        }
        for (q, qs) in self.nic.queue_stats().iter().enumerate() {
            m.counter_set(&format!("queue{q}.rx.packets"), qs.rx_packets.get());
            m.counter_set(&format!("queue{q}.rx.drops"), qs.rx_drops.get());
        }
        for (i, st) in self.nf.iter().enumerate() {
            if let Some(st) = st {
                m.counter_set(&format!("core{i}.packets.completed"), st.completed);
                if st.lat_hist.count() > 0 {
                    m.histogram_merge(&format!("core{i}.pkt_latency_ns"), &st.lat_hist);
                }
                for (si, stage) in ChainStage::ALL.iter().enumerate() {
                    if st.stage_hist[si].count() > 0 {
                        m.histogram_merge(
                            &format!("core{i}.stage.{}_ns", stage.name()),
                            &st.stage_hist[si],
                        );
                    }
                }
            }
        }
        if let Some(b) = &self.bursts {
            b.export(m);
        }
        if let Some(s) = self.dma_llc_share.samples().next_back() {
            m.gauge_set("llc.dma_share", s.value);
        }
        let metrics = self.metrics.snapshot();
        let [mlc_wb, llc_wb, dram_rd, dram_wr, dma_wr, prefetch, self_inval] =
            self.rates.map(RateSampler::into_series);
        let trace = self.tracer.take_records();
        let profile = (0..Event::TYPES)
            .map(|ti| EventTypeProfile {
                name: Event::NAMES[ti],
                count: self.ev_counts[ti],
                wall: self.ev_wall[ti],
            })
            .collect();
        RunReport {
            policy: self.cfg.policy,
            finished_at: self.queue.now(),
            totals,
            hierarchy: self.hier.stats().clone(),
            timelines: Timelines {
                mlc_wb,
                llc_wb,
                dram_rd,
                dram_wr,
                dma_wr,
                prefetch,
                self_inval,
                dma_llc_share: self.dma_llc_share,
            },
            latency,
            bursts: self.bursts.map(|b| b.run.windows()).unwrap_or_default(),
            antagonist_cpa,
            metrics,
            trace,
            profile,
            tick_metrics: self.tick_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CatMode, SteeringPolicy};
    use idio_net::gen::BurstSpec;

    fn steady_cfg(rate_gbps: f64, policy: SteeringPolicy) -> SystemConfig {
        let mut cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps });
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(200);
        cfg.policy = policy;
        cfg
    }

    /// `System::new` sizes the timelines from this count: one sample per
    /// interval up to the hard stop, and a gauge sample every tenth.
    #[test]
    fn timelines_hold_one_sample_per_tick_to_the_hard_stop() {
        let cfg = steady_cfg(10.0, SteeringPolicy::Idio);
        let ticks = ((cfg.duration + cfg.drain_grace).as_ps() / SAMPLE_INTERVAL.as_ps()) as usize;
        assert_eq!(ticks, 50);
        let t = System::new(cfg).run().timelines;
        for s in [
            &t.mlc_wb,
            &t.llc_wb,
            &t.dram_rd,
            &t.dram_wr,
            &t.dma_wr,
            &t.prefetch,
            &t.self_inval,
        ] {
            assert_eq!(s.len(), ticks, "{}", s.name());
        }
        assert_eq!(t.dma_llc_share.len(), ticks / 10);
    }

    #[test]
    fn steady_ddio_processes_packets() {
        let report = System::new(steady_cfg(10.0, SteeringPolicy::Ddio)).run();
        assert!(
            report.totals.rx_packets > 400,
            "{}",
            report.totals.rx_packets
        );
        assert_eq!(report.totals.rx_drops, 0);
        // At 10 Gbps/core the CPU keeps up: nearly everything completes.
        assert!(
            report.totals.completed_packets as f64 >= 0.95 * report.totals.rx_packets as f64,
            "completed {} of {}",
            report.totals.completed_packets,
            report.totals.rx_packets
        );
        // DDIO never self-invalidates or prefetches.
        assert_eq!(report.totals.self_inval, 0);
        assert_eq!(report.totals.prefetch_fills, 0);
    }

    #[test]
    fn idio_reduces_mlc_writebacks_on_steady_traffic() {
        // Long enough for the 1 MiB MLC to wrap (>585 packets/core), so the
        // DDIO baseline actually evicts consumed buffers.
        let mut d = steady_cfg(10.0, SteeringPolicy::Ddio);
        d.duration = SimTime::from_ms(2);
        let mut i = steady_cfg(10.0, SteeringPolicy::Idio);
        i.duration = SimTime::from_ms(2);
        let ddio = System::new(d).run();
        let idio = System::new(i).run();
        assert!(idio.totals.self_inval > 0);
        assert!(
            (idio.totals.mlc_wb as f64) < 0.5 * ddio.totals.mlc_wb as f64,
            "idio {} vs ddio {}",
            idio.totals.mlc_wb,
            ddio.totals.mlc_wb
        );
    }

    #[test]
    fn bursty_traffic_tracks_burst_windows() {
        let spec = BurstSpec::for_ring(64, 1514, 25.0, Duration::from_ms(1));
        let mut cfg = SystemConfig::touchdrop_scenario(1, TrafficPattern::Bursty(spec));
        cfg.ring_size = 64;
        cfg.duration = SimTime::from_ms(3);
        cfg.drain_grace = Duration::from_ms(1);
        let report = System::new(cfg).run();
        assert_eq!(report.bursts.len(), 3);
        for b in &report.bursts {
            assert_eq!(b.packets, 64, "all packets of each burst complete");
            assert!(b.exe_time() > Duration::ZERO);
        }
    }

    /// Burst windows follow the traffic of the tenant on queue 0 — the
    /// first tenant listed, wherever its core is: a bursty tenant listed
    /// first on core 1 opens windows, and listed after a steady tenant it
    /// opens none. The windows count the bursty tenant's packets only,
    /// never the steady tenant's on core 0.
    #[test]
    fn burst_windows_follow_the_tenants_traffic() {
        use crate::config::TenantSpec;
        let spec = BurstSpec::for_ring(64, 1514, 25.0, Duration::from_ms(1));
        let bursty = TenantSpec::new(
            "burst",
            NfKind::TouchDrop,
            vec![1],
            1,
            5000,
            TrafficPattern::Bursty(spec),
            1514,
        );
        let steady = TrafficPattern::Steady { rate_gbps: 1.0 };
        let steady = TenantSpec::new("steady", NfKind::TouchDrop, vec![0], 1, 6000, steady, 1514);
        let run = |tenants: Vec<TenantSpec>| {
            let mut cfg = SystemConfig::paper_default(2);
            cfg.tenants = tenants;
            cfg.ring_size = 64;
            cfg.duration = SimTime::from_ms(4);
            cfg.drain_grace = Duration::from_ms(1);
            System::new(cfg).run()
        };
        let bursts = run(vec![bursty.clone(), steady.clone()]).bursts;
        assert_eq!(bursts.len(), 4);
        for b in &bursts {
            assert_eq!(b.packets, 64, "window {} counts other traffic", b.index);
        }
        assert!(run(vec![steady, bursty]).bursts.is_empty());
    }

    #[test]
    fn latency_is_recorded_per_core() {
        let report = System::new(steady_cfg(5.0, SteeringPolicy::Ddio)).run();
        assert_eq!(report.latency.len(), 2);
        for (_, s) in &report.latency {
            // At least the descriptor-writeback delay.
            assert!(s.p50 >= Duration::from_us_f64(1.9));
            assert!(s.p99 >= s.p50);
        }
    }

    #[test]
    fn cat_auto_partitions_cores_and_exports_metrics() {
        use crate::policy::PolicySpec;
        let caps = PolicyCaps {
            cat: CatMode::Auto,
            ..SteeringPolicy::Idio.caps()
        };
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Idio);
        cfg.tenants[0].policy = Some(PolicySpec::Custom(caps));
        let sys = System::new(cfg);
        // Core 0 (the auto domain) holds an exclusive slice; core 1 is
        // pushed to the shared pool — the masks never overlap, and both
        // stay clear of the DDIO ways.
        let m0 = sys.hier.cat_mask(CoreId::new(0)).expect("auto mask");
        let m1 = sys.hier.cat_mask(CoreId::new(1)).expect("shared mask");
        assert!(m0.intersect(m1).is_empty(), "slice {m0} overlaps pool {m1}");
        let ddio = idio_cache::set::WayMask::first(sys.hier.ddio_ways());
        assert!(m0.intersect(ddio).is_empty());
        assert!(m1.intersect(ddio).is_empty());
        let report = sys.run();
        // The default policy interns as domain 0, the custom caps as 1.
        assert!(report.metrics.counter("cat.domain1.ways") >= 1);
        // cat.reallocations is always exported on CAT runs (may be 0).
        assert!(report
            .metrics
            .counters()
            .any(|(n, _)| n == "cat.reallocations"));
    }

    #[test]
    fn cat_static_masks_restrict_only_their_own_cores() {
        use crate::policy::PolicySpec;
        use idio_cache::set::WayMask;
        let caps = PolicyCaps {
            cat: CatMode::Static(WayMask::range(4, 8)),
            ..SteeringPolicy::Ddio.caps()
        };
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
        cfg.tenants[0].policy = Some(PolicySpec::Custom(caps));
        let sys = System::new(cfg);
        assert_eq!(
            sys.hier.cat_mask(CoreId::new(0)),
            Some(WayMask::range(4, 8))
        );
        // Without an auto allocator, other cores keep the default mask.
        assert_eq!(sys.hier.cat_mask(CoreId::new(1)), None);
        let report = sys.run();
        assert_eq!(report.metrics.counter("cat.domain1.ways"), 4);
    }

    /// Regression: an NF event dispatched to a core with no NF used to die
    /// on a bare `unwrap`/`expect` deep in the handler; it must fail with a
    /// diagnostic naming both the core and the event.
    #[test]
    #[should_panic(expected = "CoreWake event dispatched to core1, but no NF is configured there")]
    fn nf_event_at_unconfigured_core_is_diagnosed() {
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
        // Pin the NFs to cores 0 and 2, leaving core 1 with no NF state.
        cfg.tenants[1].cores = vec![2];
        let mut sys = System::new(cfg);
        assert!(sys.nf[1].is_none(), "core 1 must be unconfigured");
        sys.handle(SimTime::ZERO, Event::CoreWake { core: 1 });
    }

    #[test]
    fn hierarchy_invariants_hold_after_run() {
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Idio);
        cfg.duration = SimTime::from_us(100);
        let mut sys = System::new(cfg);
        // Drive manually so we keep the system afterwards.
        while let Some((now, ev)) = sys.queue.pop() {
            if now > sys.hard_stop {
                break;
            }
            sys.handle(now, ev);
        }
        sys.hier.check_invariants();
    }

    #[test]
    fn hit_breakdown_fractions_sum_to_one() {
        let report = System::new(steady_cfg(10.0, SteeringPolicy::Idio)).run();
        let b = report
            .hit_breakdown(idio_cache::addr::CoreId::new(0))
            .expect("core 0 issued accesses");
        let sum = b.l1 + b.mlc + b.llc + b.dram;
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to 1: {sum}");
        assert!(b.accesses > 0);
        // Under IDIO at 10 Gbps the working set is MLC-resident.
        assert!(b.mlc + b.l1 > 0.8, "mostly private hits: {b:?}");
    }

    /// A replay tenant on core `q`, playing back `arrivals`.
    fn replay_tenant(q: u16, arrivals: Vec<idio_net::gen::Arrival>) -> crate::config::TenantSpec {
        let steady = TrafficPattern::Steady { rate_gbps: 10.0 };
        crate::config::TenantSpec::new(
            format!("replay{q}"),
            NfKind::TouchDrop,
            vec![q],
            1,
            5000 + q,
            steady,
            1514,
        )
        .with_replay(arrivals)
    }

    #[test]
    fn trace_replay_reproduces_generator_run() {
        use idio_net::gen::{FlowSpec, TrafficGen};
        // Record what the generator would emit, then replay it: totals
        // must be identical to the generator-driven run.
        let horizon = SimTime::from_us(400);
        let mk_cfg = || {
            let mut cfg =
                SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 10.0 });
            cfg.duration = horizon;
            cfg.drain_grace = Duration::from_us(200);
            cfg
        };
        let generated = System::new(mk_cfg()).run();

        // The one-flow tenant on core 0 sends to port 5000.
        let trace: Vec<_> = TrafficGen::new(
            FlowSpec::udp_to_port(5000, 1514),
            TrafficPattern::Steady { rate_gbps: 10.0 },
            horizon,
        )
        .collect();
        let mut cfg = mk_cfg();
        cfg.tenants = vec![replay_tenant(0, trace)];
        let replayed = System::new(cfg).run();
        assert_eq!(generated.totals, replayed.totals);
    }

    #[test]
    fn empty_trace_replay_is_harmless() {
        use idio_net::gen::{FlowSpec, TrafficGen};
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
        let live = TrafficGen::new(
            FlowSpec::udp_to_port(5001, 1514),
            TrafficPattern::Steady { rate_gbps: 10.0 },
            cfg.duration,
        )
        .collect();
        cfg.tenants = vec![replay_tenant(0, Vec::new()), replay_tenant(1, live)];
        let r = System::new(cfg).run();
        // Tenant 0 sends nothing; tenant 1 still flows.
        assert!(r.totals.rx_packets > 0);
        assert_eq!(r.latency.len(), 1, "only core 1 saw packets");
    }

    #[test]
    fn try_new_returns_an_invalid_configs_error() {
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
        cfg.ring_size = 0;
        let err = System::try_new(cfg).err();
        assert_eq!(err.as_deref(), Some("ring size must be positive"));
        // Configs that used to panic inside `System::new` (an empty
        // perfect-filter table, a zero burst period) or run without
        // complaint (an empty burst, a burst longer than its period).
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
        cfg.perfect_filter_entries = 0;
        let err = System::try_new(cfg).err();
        assert_eq!(err.as_deref(), Some("perfect_filters must be positive"));
        let burst = |period_us: u64, packets: u32, gap_ns: u64| {
            let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
            cfg.tenants[0].traffic = TrafficPattern::Bursty(idio_net::gen::BurstSpec {
                period: Duration::from_us(period_us),
                packets_per_burst: packets,
                intra_gap: Duration::from_ns(gap_ns),
            });
            System::try_new(cfg).err()
        };
        let err = burst(0, 16, 100);
        assert!(
            err.as_deref()
                .is_some_and(|e| e.contains("burst_period must be positive")),
            "{err:?}"
        );
        let err = burst(10, 0, 100);
        assert!(
            err.as_deref()
                .is_some_and(|e| e.contains("burst_packets must be positive")),
            "{err:?}"
        );
        let err = burst(10, 200, 100);
        assert!(
            err.as_deref()
                .is_some_and(|e| e.contains("does not fit in period")),
            "{err:?}"
        );
        assert!(burst(10, 16, 100).is_none(), "a burst that fits builds");
        // A core allocation mask past the LLC's ways used to build and
        // panic at the first core-side LLC fill.
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
        cfg.hierarchy.core_alloc_ways = Some(idio_cache::set::WayMask::from_bits(1 << 13));
        let err = System::try_new(cfg).err();
        assert_eq!(
            err.as_deref(),
            Some("core allocation mask ways0b10000000000000 wider than the 12-way LLC")
        );
    }

    #[test]
    fn replay_tenant_on_an_owned_core_is_rejected() {
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio);
        cfg.tenants.push(replay_tenant(1, Vec::new()));
        let err = System::try_new(cfg).err().expect("core 1 is owned twice");
        assert!(err.contains("core 1 is owned by two tenants"), "{err}");
    }

    /// Narrow tenants never encode their index in a five-tuple, so the
    /// wide-set tag bound must not cap how many of them a config holds.
    #[test]
    fn more_than_240_narrow_tenants_build_and_run() {
        let n = 241;
        let mut cfg =
            SystemConfig::touchdrop_scenario(n, TrafficPattern::Steady { rate_gbps: 1.0 });
        cfg.ring_size = 64;
        cfg.duration = SimTime::from_us(20);
        cfg.drain_grace = Duration::from_us(20);
        assert_eq!(cfg.tenants.len(), n);
        let report = System::try_new(cfg).expect("valid config").run();
        assert!(report.totals.rx_packets >= n as u64, "every tenant sent");
        for q in 0..n {
            assert!(
                report.metrics.counter(&format!("queue{q}.rx.packets")) > 0,
                "queue {q}"
            );
        }
    }

    #[test]
    fn latency_histograms_are_exported_per_core() {
        let report = System::new(steady_cfg(5.0, SteeringPolicy::Ddio)).run();
        for core in 0..2 {
            let h = report
                .metrics
                .histogram(&format!("core{core}.pkt_latency_ns"))
                .expect("both cores completed packets");
            assert_eq!(
                h.count(),
                report
                    .metrics
                    .counter(&format!("core{core}.packets.completed")),
                "one histogram sample per completed packet"
            );
            // Matches the LatencyRecorder summary to bucket precision.
            let (_, s) = report.latency[core];
            let p99_ns = s.p99.as_ns();
            let est = h.percentile(99.0).unwrap();
            assert!(
                est >= p99_ns && est <= p99_ns.max(1) * 2,
                "{est} vs {p99_ns}"
            );
        }
    }

    #[test]
    fn per_core_steer_sums_to_global() {
        let report = System::new(steady_cfg(10.0, SteeringPolicy::Idio)).run();
        let m = &report.metrics;
        for kind in ["llc", "mlc", "dram"] {
            let total = m.counter(&format!("steer.{kind}"));
            let sum: u64 = (0..2)
                .map(|i| m.counter(&format!("core{i}.steer.{kind}")))
                .sum();
            assert_eq!(sum, total, "steer.{kind}");
        }
        assert!(m.counter("steer.mlc") > 0, "IDIO steers into MLCs");
        // Per-queue RX attribution covers the global counters.
        let rx: u64 = (0..2)
            .map(|q| m.counter(&format!("queue{q}.rx.packets")))
            .sum();
        assert_eq!(rx, report.totals.rx_packets);
    }

    fn tenant_cfg() -> SystemConfig {
        use crate::config::TenantSpec;
        use idio_net::packet::Dscp;
        let steady = |rate_gbps| TrafficPattern::Steady { rate_gbps };
        let mut cfg = SystemConfig::touchdrop_scenario(4, steady(5.0));
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(200);
        cfg.tenants = vec![
            TenantSpec::new(
                "lat",
                NfKind::TouchDrop,
                vec![0, 1],
                6,
                5000,
                steady(8.0),
                1514,
            ),
            TenantSpec::new(
                "stream",
                NfKind::L2FwdPayloadDrop,
                vec![2, 3],
                4,
                6000,
                steady(20.0),
                1514,
            )
            .with_dscp(Dscp::CLASS1_DEFAULT),
        ];
        cfg
    }

    #[test]
    fn tenant_flows_spread_across_the_tenants_queues() {
        let report = System::new(tenant_cfg()).run();
        let m = &report.metrics;
        // Every queue of both tenants receives packets (6 flows over
        // queues {0,1} and 4 flows over queues {2,3}, dealt round-robin).
        for q in 0..4 {
            assert!(
                m.counter(&format!("queue{q}.rx.packets")) > 0,
                "queue {q} starved"
            );
        }
        // The tenant halves split the aggregate close to evenly: flows
        // 0,2,4 of 6 land on queue 0 (3/6), flows 1,3,5 on queue 1.
        let q0 = m.counter("queue0.rx.packets") as f64;
        let q1 = m.counter("queue1.rx.packets") as f64;
        assert!((q0 / (q0 + q1) - 0.5).abs() < 0.05, "{q0} vs {q1}");
        assert!(report.totals.completed_packets > 0);
    }

    #[test]
    fn tenant_runs_are_deterministic() {
        let a = System::new(tenant_cfg()).run();
        let b = System::new(tenant_cfg()).run();
        assert_eq!(a.totals, b.totals);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    }

    #[test]
    fn antagonist_runs_and_reports_cpa() {
        let mut cfg = steady_cfg(10.0, SteeringPolicy::Ddio).with_antagonist();
        cfg.duration = SimTime::from_us(200);
        let report = System::new(cfg).run();
        let cpa = report.antagonist_cpa.expect("antagonist ran");
        assert!(cpa > 0.0);
    }

    /// Regression test for the CPU-paced parked-hint release path. The old
    /// implementation drained the parked queue into a fresh `Vec` on every
    /// pointer advance and popped it back with `expect("checked front")`;
    /// the arena-backed version must still release every parked hint as
    /// the pointer catches up (under pressure that parks far beyond the
    /// pacing window) and must steer/prefetch exactly as many lines as a
    /// fresh run — the drain is observable through the prefetch counters.
    #[test]
    fn cpu_paced_parked_hints_release_on_pointer_advance() {
        let mk = || {
            // A tight window at an over-provisioned rate forces hints well
            // past the window, so most of them park and only the pointer
            // advances release them.
            let mut cfg = steady_cfg(40.0, SteeringPolicy::Idio);
            cfg.prefetcher.pacing =
                crate::prefetcher::PrefetchPacing::CpuPaced { window_packets: 2 };
            cfg
        };
        let report = System::new(mk()).run();
        assert!(report.totals.completed_packets > 100);
        // CPU pacing never drops hints: everything accepted is eventually
        // issued (parked hints drain as the pointer advances, and the run
        // includes a drain grace long enough to finish them).
        assert_eq!(report.metrics.counter("prefetch.drops"), 0);
        assert!(report.metrics.counter("prefetch.issued") > 0);
        // Determinism across the arena-backed path.
        let again = System::new(mk()).run();
        assert_eq!(report.totals, again.totals);
        assert_eq!(report.metrics.to_json(), again.metrics.to_json());
    }

    /// The tick-metrics timeline is off by default, dumps one well-formed
    /// NDJSON object per control tick when enabled, and never perturbs the
    /// simulation it observes.
    #[test]
    fn tick_metrics_records_one_line_per_tick_without_perturbing_the_run() {
        let base = steady_cfg(10.0, SteeringPolicy::Idio);
        let off = System::new(base.clone()).run();
        assert!(off.tick_metrics.is_empty(), "off by default");
        let mut cfg = base;
        cfg.tick_metrics = true;
        let on = System::new(cfg).run();
        // One line per 1 us control tick over duration + drain grace.
        let expect_ticks = (on.finished_at.as_us()) as usize;
        assert_eq!(on.tick_metrics.len(), expect_ticks);
        for line in &on.tick_metrics {
            assert!(
                line.starts_with("{\"t_us\":") && line.ends_with('}'),
                "{line}"
            );
            assert!(line.contains("\"steer\":{\"llc\":"), "{line}");
            // Two cores -> two FSM state chars, each M or L.
            let fsm = line
                .split("\"fsm\":\"")
                .nth(1)
                .and_then(|r| r.split('"').next())
                .expect("fsm field");
            assert_eq!(fsm.len(), 2, "{line}");
            assert!(fsm.chars().all(|c| c == 'M' || c == 'L'), "{line}");
            // No CAT allocator in this config -> no cat section.
            assert!(!line.contains("\"cat\""), "{line}");
        }
        // The steering deltas must sum to the run's total steered lines.
        let sum: u64 = on
            .tick_metrics
            .iter()
            .map(|l| {
                ["\"llc\":", "\"mlc\":", "\"dram\":"]
                    .iter()
                    .map(|k| {
                        l.split(k)
                            .nth(1)
                            .and_then(|r| {
                                r.chars()
                                    .take_while(char::is_ascii_digit)
                                    .collect::<String>()
                                    .parse::<u64>()
                                    .ok()
                            })
                            .expect("steer delta")
                    })
                    .sum::<u64>()
            })
            .sum();
        let total = on.metrics.counter("steer.llc")
            + on.metrics.counter("steer.mlc")
            + on.metrics.counter("steer.dram");
        assert_eq!(sum, total, "tick deltas cover every steered line");
        // Observation is free: the observed run's results are identical.
        assert_eq!(on.totals, off.totals);
        assert_eq!(on.metrics.to_json(), off.metrics.to_json());
    }

    #[test]
    fn recycle_pool_frees_at_completion_and_never_leaks() {
        // Satellite audit: buffers return to the pool at the completion
        // event (TX writeback for forwarding NFs), never at steer time.
        // A 32-slot recycle pool under L2Fwd wraps its free list many
        // times over; the pool's own double-free / slot-leak asserts
        // would abort the run if a buffer were freed twice or dropped on
        // the floor, and the final recycled count must equal every
        // buffer the NIC ever handed out.
        let mut cfg =
            SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 10.0 });
        cfg.duration = SimTime::from_us(500);
        cfg.drain_grace = Duration::from_us(400);
        cfg.policy = SteeringPolicy::Idio;
        cfg.tenants[0].nf = NfKind::L2Fwd;
        cfg.tenants[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: Some(32) });
        let report = System::new(cfg).run();
        assert!(
            report.totals.completed_packets > 64,
            "pool wrapped at least twice, got {}",
            report.totals.completed_packets
        );
        assert_eq!(report.metrics.counter("pool.q0.slots"), 32);
        // No leak: every reserved buffer was recycled exactly once by the
        // end of the drain grace.
        assert_eq!(
            report.metrics.counter("pool.q0.recycled"),
            report.totals.rx_packets
        );
        // A 32-buffer working set never exceeds the per-queue DDIO budget.
        assert_eq!(report.metrics.counter("pool.q0.spilled"), 0);
    }

    #[test]
    fn starved_recycle_pool_drops_instead_of_growing() {
        // A deliberately tiny pool under a high rate: allocation outruns
        // recycling, the NIC drops at reserve time, and the starvation
        // counter — not the footprint — absorbs the pressure.
        let mut cfg =
            SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 40.0 });
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(300);
        cfg.policy = SteeringPolicy::Ddio;
        cfg.tenants[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: Some(2) });
        let report = System::new(cfg).run();
        let starved = report.metrics.counter("pool.q0.starved");
        assert!(starved > 0, "2 slots at 40 Gbps must starve");
        assert!(
            report.totals.rx_drops >= starved,
            "every starvation is a dropped packet: drops {} < starved {starved}",
            report.totals.rx_drops
        );
        assert_eq!(
            report.metrics.counter("pool.q0.recycled"),
            report.totals.rx_packets,
            "the buffers that were granted still all come back"
        );
    }

    #[test]
    fn flow_director_pressure_degrades_steering_and_counts_mis_steers() {
        use crate::config::TenantSpec;
        // One tenant, 64 churning flows over 4 queues, but only 8 perfect
        // filters: pinned flows hit perfectly, the rest spread by RSS
        // until aRFS-style learning converges them onto ATR — and churn
        // keeps invalidating both, so every steering source and the
        // mis-steer path are exercised.
        let mut cfg =
            SystemConfig::touchdrop_scenario(4, TrafficPattern::Steady { rate_gbps: 20.0 });
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(200);
        cfg.perfect_filter_entries = 8;
        cfg.atr_lifetime = Some(Duration::from_us(200));
        let steady = TrafficPattern::Steady { rate_gbps: 20.0 };
        cfg.tenants = vec![TenantSpec::new(
            "churny",
            NfKind::TouchDrop,
            vec![0, 1, 2, 3],
            32,
            5000,
            steady,
            1514,
        )
        .with_churn(Duration::from_us(60))];
        let report = System::new(cfg).run();
        let m = &report.metrics;
        assert!(m.counter("fd.perfect_hits") > 0, "pinned flows hit EP");
        assert!(m.counter("fd.rss_fallbacks") > 0, "unpinned start on RSS");
        assert!(m.counter("fd.atr_learned") > 0, "completions program ATR");
        assert!(m.counter("fd.atr_hits") > 0, "learned flows steer by ATR");
        assert!(
            m.counter("fd.mis_steered") > 0,
            "RSS spreads some flows off their home queue"
        );
        assert!(
            m.counter("fd.perfect_evicted") > 0,
            "churn refresh into a full 8-entry table evicts"
        );
        // Conservation: every accepted packet was steered exactly once.
        let total = m.counter("fd.perfect_hits")
            + m.counter("fd.atr_hits")
            + m.counter("fd.atr_collisions")
            + m.counter("fd.rss_fallbacks");
        assert_eq!(total, report.totals.rx_packets + report.totals.rx_drops);
        // Per-queue mix sums to the global counters.
        let mis: u64 = (0..4).map(|q| m.counter(&format!("fd.q{q}.mis"))).sum();
        assert_eq!(mis, m.counter("fd.mis_steered"));
    }

    #[test]
    fn idle_recycle_pool_flushes_after_the_configured_window() {
        // Traffic stops at `duration`; the pool sits idle through the
        // drain grace and must self-invalidate once the window elapses.
        let mut cfg =
            SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 10.0 });
        cfg.duration = SimTime::from_us(150);
        cfg.drain_grace = Duration::from_us(300);
        cfg.policy = SteeringPolicy::Ddio;
        cfg.tenants[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: Some(32) });
        cfg.pool_idle_flush = Some(Duration::from_us(100));
        let report = System::new(cfg.clone()).run();
        assert_eq!(
            report.metrics.counter("pool.q0.idle_flushed"),
            1,
            "one idle window elapses inside the drain grace"
        );
        // The flush is an invalidation pass: it must show up in the
        // self-invalidation totals even under a policy that never
        // invalidates on free.
        assert!(report.totals.self_inval > 0);
        // Without the knob the counter is not exported at all.
        cfg.pool_idle_flush = None;
        let legacy = System::new(cfg).run();
        assert!(legacy
            .metrics
            .counters()
            .all(|(k, _)| k != "pool.q0.idle_flushed"));
    }

    /// Regression: the idle flush invalidated a pool's whole buffer region
    /// while a packet accepted before the quiet period was still waiting
    /// for its NF, discarding DMA'd lines that were read afterwards (they
    /// came back from DRAM). A pool with a live buffer is never flushed,
    /// so the flush is invisible to the packets it would have hit.
    #[test]
    fn idle_flush_never_discards_a_live_buffer() {
        let mut cfg =
            SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 2.0 });
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(100);
        cfg.policy = SteeringPolicy::Ddio;
        cfg.tenants[0].nf = NfKind::L2Fwd;
        cfg.tenants[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: Some(32) });
        cfg.pool_idle_flush = Some(Duration::from_us(1));
        let flushed = System::new(cfg.clone()).run();
        cfg.pool_idle_flush = None;
        let plain = System::new(cfg).run();
        assert!(flushed.metrics.counter("pool.q0.idle_flushed") > 0);
        assert_eq!(flushed.totals.dram_rd, plain.totals.dram_rd);
        assert_eq!(flushed.totals.self_inval, plain.totals.self_inval);
    }

    #[test]
    fn chained_nf_exports_per_stage_histograms() {
        use idio_stack::nf::{ChainStage, NfChain};
        let mut cfg =
            SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 8.0 });
        cfg.duration = SimTime::from_us(300);
        cfg.drain_grace = Duration::from_us(200);
        cfg.policy = SteeringPolicy::Idio;
        cfg.tenants[0].nf = NfKind::Chain(NfChain::upf());
        cfg.tenants[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: None });
        let report = System::new(cfg).run();
        let completed = report.totals.completed_packets;
        assert!(completed > 0);
        // Every stage of the UPF chain ran once per completed packet and
        // carries real service time; stages not in the chain export
        // nothing.
        for stage in [
            ChainStage::Parse,
            ChainStage::Classify,
            ChainStage::Rewrite,
            ChainStage::Forward,
        ] {
            let h = report
                .metrics
                .histogram(&format!("core0.stage.{}_ns", stage.name()))
                .unwrap_or_else(|| panic!("missing histogram for stage {}", stage.name()));
            assert_eq!(h.count(), completed, "stage {}", stage.name());
            assert!(
                h.mean() > 0.0,
                "stage {} has real service time",
                stage.name()
            );
        }
        assert!(
            report.metrics.histogram("core0.stage.inspect_ns").is_none(),
            "stages outside the chain are not exported"
        );
    }

    #[test]
    fn tick_metrics_diverge_between_recycle_and_dram_pools() {
        // The acceptance shape of the recycle-vs-dram duel: under the
        // same chained workload, the recycling queue's live footprint is
        // pinned at its slot bound with starvation drops absorbing the
        // pressure, while the dram twin never recycles and lets its
        // footprint float.
        use idio_stack::nf::NfChain;
        let mut cfg =
            SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps: 40.0 });
        cfg.duration = SimTime::from_us(400);
        cfg.drain_grace = Duration::from_us(300);
        cfg.policy = SteeringPolicy::Idio;
        for t in &mut cfg.tenants {
            t.nf = NfKind::Chain(NfChain::upf());
        }
        cfg.tenants[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: Some(8) });
        cfg.tenants[1].pool = Some(idio_pool::PoolSpec::Dram);
        cfg.tick_metrics = true;
        let report = System::new(cfg).run();

        let field = |line: &str, queue: &str, key: &str| -> u64 {
            let q = line.split(queue).nth(1).expect("queue present");
            q.split(key)
                .nth(1)
                .and_then(|r| {
                    r.chars()
                        .take_while(char::is_ascii_digit)
                        .collect::<String>()
                        .parse()
                        .ok()
                })
                .expect("pool field")
        };
        for line in &report.tick_metrics {
            assert!(
                field(line, "\"q0\":", "\"live\":") <= 8,
                "recycle footprint stays inside its bound: {line}"
            );
            assert_eq!(
                field(line, "\"q1\":", "\"recycled\":"),
                0,
                "dram mbufs are never re-identified"
            );
        }
        let last = report.tick_metrics.last().expect("ticks recorded");
        assert!(field(last, "\"q0\":", "\"recycled\":") > 0);
        assert!(
            field(last, "\"q0\":", "\"starved\":") > 0,
            "8 slots at 40 Gbps starve: {last}"
        );
    }

    /// The telemetry contract behind golden stability: a component exists
    /// only when configured, so an unconfigured one adds no metric and no
    /// tick-log section. Runs `cfg` with the tick log on and asserts which
    /// of the `cat`/`fd`/`pool` metric prefixes, the `idle_flushed`
    /// counter and the tick-log sections appear.
    fn assert_exports(label: &str, mut cfg: SystemConfig, metrics: &[&str], sections: &[&str]) {
        const METRICS: [&str; 4] = ["cat.", "fd.", "pool.", ".idle_flushed"];
        const SECTIONS: [&str; 3] = ["\"cat\":", "\"fd\":", "\"pool\":"];
        cfg.tick_metrics = true;
        let report = System::new(cfg).run();
        for key in METRICS {
            let has = report.metrics.counters().any(|(n, _)| n.contains(key));
            assert_eq!(has, metrics.contains(&key), "{label}: metric {key}");
        }
        for key in SECTIONS {
            let has = report.tick_metrics.iter().any(|l| l.contains(key));
            assert_eq!(has, sections.contains(&key), "{label}: section {key}");
        }
    }

    #[test]
    fn non_cat_runs_export_no_cat_metrics() {
        assert_exports("plain", steady_cfg(10.0, SteeringPolicy::Idio), &[], &[]);
    }

    #[test]
    fn fully_pinned_tenants_export_no_fd_metrics() {
        // Flow populations that fit the filter budget keep the
        // pin-everything behavior and add no fd.* keys.
        assert_exports("fully pinned tenants", tenant_cfg(), &[], &[]);
    }

    #[test]
    fn unpooled_runs_export_no_pool_metrics() {
        // Without an explicit pool there is no pool.* surface at all.
        assert_exports("unpooled", steady_cfg(10.0, SteeringPolicy::Ddio), &[], &[]);
    }

    /// Configured components export: a static CAT partition exports
    /// `cat.*` but has no allocator to log per tick; a pool without the
    /// idle-flush knob exports `pool.*` and a tick section but no
    /// `idle_flushed`.
    #[test]
    fn components_export_only_when_configured() {
        use crate::policy::PolicySpec;
        use idio_cache::set::WayMask;
        let static_cat = PolicyCaps {
            cat: CatMode::Static(WayMask::range(4, 8)),
            ..SteeringPolicy::Ddio.caps()
        };
        let mut cat = steady_cfg(10.0, SteeringPolicy::Ddio);
        cat.tenants[0].policy = Some(PolicySpec::Custom(static_cat));
        assert_exports("static cat", cat, &["cat."], &[]);
        let mut pooled = steady_cfg(10.0, SteeringPolicy::Idio);
        pooled.tenants[0].pool = Some(idio_pool::PoolSpec::Recycle { slots: Some(32) });
        assert_exports("pool", pooled, &["pool."], &["\"pool\":"]);
    }
}
