//! The on-chip IDIO controller (Alg. 1).
//!
//! The controller sits next to the PCIe root complex. Its **data plane**
//! steers every inbound DMA write using the classifier metadata carried in
//! the TLP reserved bits: headers are hinted toward the destination core's
//! MLC; class-1 payloads go straight to DRAM; class-0 payloads follow the
//! per-core *status* register. Its **control plane** measures per-core MLC
//! writeback pressure every 1 µs against a long-run average (8192 samples)
//! and drives the Fig. 8 FSM.
//!
//! Beside it run the two LLC way allocators over the same telemetry: the
//! IAT-style DDIO way tuner (`IatTuner`) and CAT way partitioning
//! (`CatPartition`, with its closed-loop [`CatController`]).

use std::fmt::Write as _;

use idio_cache::addr::CoreId;
use idio_cache::hierarchy::Hierarchy;
use idio_cache::set::WayMask;
use idio_engine::telemetry::{MetricsRegistry, Tracer};
use idio_engine::time::{Duration, SimTime};
use idio_nic::tlp::{AppClass, TlpMeta};

use crate::fsm::{MlcStatus, PrefetchFsm};
use crate::policy::{CatMode, PolicyCaps, PolicyTable, PrefetchMode};

/// Controller configuration (Sec. V-B and VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdioConfig {
    /// Control-plane sampling interval (1 µs).
    pub control_interval: Duration,
    /// Number of control intervals averaged into `mlcWBAvg` (8192).
    pub avg_window: u32,
    /// MLC-pressure threshold `mlcTHR`, in writebacks per control interval.
    /// The paper's 50 MTPS over 1 µs is 50 writebacks/interval.
    pub mlc_thr: u32,
    /// The rate intent behind `mlc_thr`, in milli-MTPS (fixed point so the
    /// config stays `Eq`/`Hash`-able). When set, the effective threshold
    /// is recomputed from this and the *current* `control_interval`, so
    /// changing the interval after [`IdioConfig::with_mlc_thr_mtps`] can
    /// never leave a stale `mlc_thr`.
    pub mlc_thr_mtps_milli: Option<u64>,
}

impl IdioConfig {
    /// The paper's experimentally chosen values.
    pub fn paper_default() -> Self {
        IdioConfig {
            control_interval: Duration::from_us(1),
            avg_window: 8192,
            mlc_thr: 50,
            mlc_thr_mtps_milli: None,
        }
    }

    /// Sets `mlcTHR` from a rate in MTPS (million transactions/second).
    ///
    /// The intent is stored, so a later `control_interval` change
    /// (via [`IdioConfig::with_control_interval`] or direct field
    /// assignment) transparently rescales the effective threshold. Rates
    /// that round to zero writebacks per interval are rounded *up* to 1 —
    /// a zero threshold would silently disable pressure detection.
    ///
    /// # Panics
    ///
    /// Panics if `mtps` is not finite and strictly positive.
    pub fn with_mlc_thr_mtps(mut self, mtps: f64) -> Self {
        assert!(
            mtps.is_finite() && mtps > 0.0,
            "mlcTHR rate must be finite and positive, got {mtps}"
        );
        self.mlc_thr_mtps_milli = Some(((mtps * 1e3).round() as u64).max(1));
        self.mlc_thr = self.effective_mlc_thr();
        self
    }

    /// Sets the control interval, rescaling `mlc_thr` when it was derived
    /// from an MTPS rate.
    pub fn with_control_interval(mut self, interval: Duration) -> Self {
        self.control_interval = interval;
        self.mlc_thr = self.effective_mlc_thr();
        self
    }

    /// The threshold actually applied by the controller, in writebacks per
    /// `control_interval`: recomputed from the stored MTPS intent (if any)
    /// and the current interval, and never zero.
    pub fn effective_mlc_thr(&self) -> u32 {
        let thr = match self.mlc_thr_mtps_milli {
            Some(milli) => {
                // milli-MTPS → transactions/second → per interval.
                let per_interval = milli as f64 * 1e3 * self.control_interval.as_secs_f64();
                per_interval.round().min(u32::MAX as f64) as u32
            }
            None => self.mlc_thr,
        };
        thr.max(1)
    }
}

impl Default for IdioConfig {
    fn default() -> Self {
        IdioConfig::paper_default()
    }
}

/// Placement decision for one inbound DMA line write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// Write-allocate/update in the LLC DDIO ways (classic DDIO).
    Llc,
    /// Land in the LLC and hint the destination core's MLC prefetcher.
    Mlc(CoreId),
    /// Bypass the hierarchy: direct DRAM write.
    Dram,
}

#[derive(Debug, Clone, Copy, Default)]
struct CoreTelemetry {
    /// `mlcWB` counter snapshot at the last control tick.
    last_wb: u64,
    /// Writebacks observed in the most recent interval.
    wb_1us: u32,
    /// Accumulator across the averaging window (`mlcWBAcc`).
    wb_acc: u64,
    /// Long-run average per interval (`mlcWBAvg`).
    wb_avg: u32,
    /// Intervals accumulated so far in the current window.
    intervals: u32,
}

/// The IDIO controller state.
///
/// # Examples
///
/// ```
/// use idio_cache::addr::CoreId;
/// use idio_core::controller::{IdioConfig, IdioController, Placement};
/// use idio_core::policy::SteeringPolicy;
/// use idio_nic::tlp::{AppClass, TlpMeta};
///
/// let mut ctrl = IdioController::new(IdioConfig::paper_default(), 2);
/// let header = TlpMeta {
///     dest_core: CoreId::new(1),
///     app_class: AppClass::Class0,
///     is_header: true,
///     is_burst: true,
/// };
/// // Headers always steer toward the destination MLC under IDIO.
/// assert_eq!(
///     ctrl.steer(SteeringPolicy::Idio, header),
///     Placement::Mlc(CoreId::new(1))
/// );
/// // ...and the burst flag armed payload steering too.
/// let payload = TlpMeta { is_header: false, is_burst: false, ..header };
/// assert_eq!(
///     ctrl.steer(SteeringPolicy::Idio, payload),
///     Placement::Mlc(CoreId::new(1))
/// );
/// ```
#[derive(Debug, Clone)]
pub struct IdioController {
    cfg: IdioConfig,
    fsm: Vec<PrefetchFsm>,
    telemetry: Vec<CoreTelemetry>,
}

impl IdioController {
    /// Creates a controller for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or the averaging window is zero.
    pub fn new(mut cfg: IdioConfig, num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        assert!(cfg.avg_window > 0, "averaging window must be positive");
        // Resolve the threshold once against the final interval, so an
        // intent stored before an interval change still applies correctly.
        cfg.mlc_thr = cfg.effective_mlc_thr();
        IdioController {
            cfg,
            fsm: vec![PrefetchFsm::new(); num_cores],
            telemetry: vec![CoreTelemetry::default(); num_cores],
        }
    }

    /// The configuration.
    pub fn config(&self) -> &IdioConfig {
        &self.cfg
    }

    /// Current FSM status for `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn status(&self, core: CoreId) -> MlcStatus {
        self.fsm[core.index()].status()
    }

    /// The per-core FSM behind a steering decision, diagnosing a
    /// descriptor that targets a core this controller was never sized for
    /// (a mis-wired queue→core map) instead of a bare index panic.
    #[inline]
    fn fsm_checked(&mut self, core: CoreId, event: &'static str) -> &mut PrefetchFsm {
        let cores = self.fsm.len();
        match self.fsm.get_mut(core.index()) {
            Some(f) => f,
            None => panic!(
                "{event}: steering descriptor targets {core}, but the controller \
                 manages cores 0..{cores} (mis-wired queue→core map?)"
            ),
        }
    }

    /// Current long-run MLC writeback average for `core` (per interval).
    pub fn mlc_wb_avg(&self, core: CoreId) -> u32 {
        self.telemetry[core.index()].wb_avg
    }

    /// **Data plane** (Alg. 1 lines 1–11): steering decision for one DMA
    /// write, given the capabilities of the queue's resolved policy.
    ///
    /// Accepts either a [`PolicyCaps`] (the hot path hands in the caps
    /// resolved for the packet's queue) or a [`crate::policy::SteeringPolicy`]
    /// preset, which converts to its capability set.
    pub fn steer(&mut self, policy: impl Into<PolicyCaps>, meta: TlpMeta) -> Placement {
        let caps: PolicyCaps = policy.into();
        let mode = caps.prefetch;
        if mode == PrefetchMode::Off {
            // DDIO / Invalidate configs: everything to the LLC. (Class-1
            // direct DRAM requires the IDIO data path too.)
            return Placement::Llc;
        }

        let core = meta.dest_core;
        if meta.is_burst {
            self.fsm_checked(core, "steer").reset_on_burst();
        }
        if meta.is_header {
            return Placement::Mlc(core);
        }
        if meta.app_class == AppClass::Class1 && caps.direct_dram {
            return Placement::Dram;
        }
        let steer_mlc = match mode {
            PrefetchMode::Always => true,
            PrefetchMode::Dynamic => self.fsm_checked(core, "steer").status() == MlcStatus::Mlc,
            PrefetchMode::Off => unreachable!("handled above"),
        };
        if steer_mlc {
            Placement::Mlc(core)
        } else {
            Placement::Llc
        }
    }

    /// **Control plane**, 1 µs tick (Alg. 1 lines 14–19): feed the current
    /// per-core cumulative MLC-writeback counters.
    ///
    /// # Panics
    ///
    /// Panics if `mlc_wb_counters` has the wrong length.
    pub fn control_tick(&mut self, mlc_wb_counters: &[u64]) {
        assert_eq!(mlc_wb_counters.len(), self.telemetry.len());
        for (i, &wb) in mlc_wb_counters.iter().enumerate() {
            let t = &mut self.telemetry[i];
            let delta = wb.saturating_sub(t.last_wb);
            t.last_wb = wb;
            t.wb_1us = delta.min(u64::from(u32::MAX)) as u32;
            let high = t.wb_1us > t.wb_avg.saturating_add(self.cfg.mlc_thr);
            self.fsm[i].update(high);
            t.wb_acc += u64::from(t.wb_1us);
            t.intervals += 1;
            if t.intervals >= self.cfg.avg_window {
                // Alg. 1 lines 20–24: refresh the long-run average.
                t.wb_avg =
                    (t.wb_acc / u64::from(self.cfg.avg_window)).min(u64::from(u32::MAX)) as u32;
                t.wb_acc = 0;
                t.intervals = 0;
            }
        }
    }
}

/// Configuration of the closed-loop CAT way allocator.
///
/// Mirrors the IAT way-tuner's cadence and hysteresis: slices grow
/// promptly under pressure and are given back only after a sustained
/// quiet period, so the partition does not flap at the control rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatConfig {
    /// Control ticks between slice evaluations (25 → every 25 µs at the
    /// paper's 1 µs control interval, matching the IAT tuner).
    pub period: u64,
    /// Per-evaluation MLC-writeback delta (summed over the domain's
    /// cores) above which the domain is considered under pressure.
    pub grow_thr: u64,
    /// Consecutive quiet evaluations before a way is given back.
    pub quiet_evals: u32,
    /// Smallest slice an auto domain ever holds.
    pub min_ways: usize,
    /// Largest slice an auto domain ever holds.
    pub max_ways: usize,
    /// Ways always left to the shared (non-CAT) core pool.
    pub min_shared: usize,
}

impl CatConfig {
    /// Defaults matched to the 12-way paper LLC: slices of 1..6 ways per
    /// domain, at least 2 ways always shared, IAT-tuner cadence. The
    /// 6-way ceiling matters: the LLC has twice the sets of an MLC, so a
    /// slice only out-holds the 8-way MLC once it exceeds 4 ways — a
    /// smaller cap could never protect anything the MLC did not already.
    pub fn paper_default() -> Self {
        CatConfig {
            period: 25,
            grow_thr: 25,
            quiet_evals: 40,
            min_ways: 1,
            max_ways: 6,
            min_shared: 2,
        }
    }
}

impl Default for CatConfig {
    fn default() -> Self {
        CatConfig::paper_default()
    }
}

#[derive(Debug, Clone, Copy)]
struct CatSlot {
    /// Current slice width in ways.
    ways: usize,
    /// Domain MLC-WB counter snapshot at the last evaluation.
    last_wb: u64,
    /// Consecutive quiet evaluations (hysteresis).
    quiet: u32,
}

/// The way layout computed by [`CatController::plan`] for the current
/// LLC geometry: one exclusive mask per auto domain, plus the mask the
/// remaining (non-CAT) cores share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatPlan {
    /// Per-domain exclusive mask; `None` for domains that are not
    /// auto-managed, or whose slice could not be carved (no budget).
    pub domain_mask: Vec<Option<WayMask>>,
    /// Ways left to cores outside every auto domain (never empty).
    pub shared: WayMask,
}

/// Closed-loop CAT way allocator (modelled after Intel RDT/CAT on top
/// of the DDIO partition).
///
/// Each policy domain whose caps request `cat = auto` is granted an
/// *exclusive* slice of the core-side LLC ways, carved from the **top**
/// of the way range — the DDIO partition grows from the bottom (and the
/// IAT tuner may widen it at run time), so the two allocators never
/// collide. Cores outside every auto domain share whatever remains in
/// the middle. The loop widens a slice while the domain's MLC-writeback
/// pressure keeps climbing (victims of its private caches are landing
/// in its slice) and narrows it only after a sustained quiet period.
#[derive(Debug, Clone)]
pub struct CatController {
    cfg: CatConfig,
    /// One slot per policy domain; `None` = domain is not auto-managed.
    slots: Vec<Option<CatSlot>>,
    ticks: u64,
    reallocations: u64,
}

impl CatController {
    /// Creates an allocator for the given domains; `auto[d]` says whether
    /// domain `d` asked for closed-loop management. Every managed domain
    /// starts at `min_ways`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero period, zero slice
    /// floor, or an inverted `min_ways > max_ways` range).
    pub fn new(cfg: CatConfig, auto: &[bool]) -> Self {
        assert!(cfg.period > 0, "evaluation period must be positive");
        assert!(cfg.min_ways > 0, "a CAT slice needs at least one way");
        assert!(
            cfg.min_ways <= cfg.max_ways,
            "min_ways must not exceed max_ways"
        );
        CatController {
            cfg,
            slots: auto
                .iter()
                .map(|&a| {
                    a.then_some(CatSlot {
                        ways: cfg.min_ways,
                        last_wb: 0,
                        quiet: 0,
                    })
                })
                .collect(),
            ticks: 0,
            reallocations: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CatConfig {
        &self.cfg
    }

    /// Current slice width of domain `d` (`None` when not auto-managed).
    pub fn ways(&self, d: usize) -> Option<usize> {
        self.slots.get(d).and_then(|s| s.as_ref()).map(|s| s.ways)
    }

    /// Number of slice-width changes the loop has made so far.
    pub fn reallocations(&self) -> u64 {
        self.reallocations
    }

    /// Control-tick entry point: feed the cumulative MLC-writeback
    /// counter of every policy domain (summed over the domain's cores).
    /// Evaluates slices every `period` ticks; returns `true` when any
    /// slice width changed and masks must be re-planned.
    ///
    /// `budget` is the number of ways currently available to auto slices
    /// in total (LLC ways − DDIO ways − `min_shared`); growth stops when
    /// the summed slices would exceed it, so an IAT-widened DDIO
    /// partition transparently squeezes CAT's head-room.
    ///
    /// # Panics
    ///
    /// Panics if `domain_wb` has the wrong length.
    pub fn tick(&mut self, domain_wb: &[u64], budget: usize) -> bool {
        assert_eq!(domain_wb.len(), self.slots.len());
        self.ticks += 1;
        if !self.ticks.is_multiple_of(self.cfg.period) {
            return false;
        }
        let mut total: usize = self.slots.iter().flatten().map(|s| s.ways).sum();
        let mut changed = false;
        for (d, slot) in self.slots.iter_mut().enumerate() {
            let Some(s) = slot else { continue };
            let wb = domain_wb[d];
            let delta = wb.saturating_sub(s.last_wb);
            s.last_wb = wb;
            if delta > self.cfg.grow_thr {
                s.quiet = 0;
                if s.ways < self.cfg.max_ways && total < budget {
                    s.ways += 1;
                    total += 1;
                    changed = true;
                    self.reallocations += 1;
                }
            } else if delta == 0 {
                s.quiet += 1;
                if s.quiet >= self.cfg.quiet_evals && s.ways > self.cfg.min_ways {
                    s.ways -= 1;
                    total -= 1;
                    s.quiet = 0;
                    changed = true;
                    self.reallocations += 1;
                }
            } else {
                s.quiet = 0;
            }
        }
        changed
    }

    /// Lays the current slices out over the given LLC geometry.
    ///
    /// Slices are carved top-down in domain order, never touching the
    /// bottom `ddio_ways + min_shared` ways; a slice that no longer fits
    /// (the DDIO partition grew) is clamped, and dropped to the shared
    /// pool when clamped below one way. Deterministic: same slices and
    /// geometry → same plan.
    pub fn plan(&self, llc_ways: usize, ddio_ways: usize) -> CatPlan {
        let floor = ddio_ways + self.cfg.min_shared;
        let mut cursor = llc_ways;
        let domain_mask = self
            .slots
            .iter()
            .map(|slot| {
                let s = slot.as_ref()?;
                let k = s.ways.min(cursor.saturating_sub(floor));
                if k == 0 {
                    return None;
                }
                let m = WayMask::range(cursor - k, cursor);
                cursor -= k;
                Some(m)
            })
            .collect();
        CatPlan {
            domain_mask,
            shared: WayMask::range(ddio_ways, cursor),
        }
    }
}

/// IAT-style DDIO way tuner: every 25 control intervals (25 µs) it
/// grows the DDIO partition while inbound data is leaking to DRAM, and
/// shrinks it back one way at a time only after a sustained quiet period
/// (hysteresis, as IAT's monitoring loop does). Each tuning policy domain
/// steps with its own quiet streak, unperturbed by domains that never
/// tune; all of them evaluate together against one LLC-writeback counter.
#[derive(Debug, Clone)]
pub(crate) struct IatTuner {
    ticks: u64,
    /// LLC-writeback counter at the last evaluation.
    last_wb: u64,
    /// Per tuning domain: consecutive quiet evaluations.
    quiet: Vec<u32>,
}

impl IatTuner {
    /// The tuner for `policy`; `None` when no domain tunes the DDIO ways.
    pub(crate) fn new(policy: &PolicyTable) -> Option<Self> {
        let tuning = policy.domain_caps().iter().filter(|c| c.tune_ddio_ways);
        let quiet = vec![0; tuning.count()];
        (!quiet.is_empty()).then_some(IatTuner {
            ticks: 0,
            last_wb: 0,
            quiet,
        })
    }

    /// Control-tick step: re-sizes `hier`'s DDIO partition.
    pub(crate) fn tick(&mut self, hier: &mut Hierarchy) {
        self.ticks += 1;
        if !self.ticks.is_multiple_of(25) {
            return;
        }
        let wb = hier.stats().shared.llc_wb.get();
        let delta = wb - self.last_wb;
        self.last_wb = wb;
        // Dynamic DDIO policies re-allocate a bounded slice of the LLC to
        // I/O (growing further only squeezes the ways the consumed data
        // bloats into).
        let max_ways = 4.min(hier.config().llc.ways - 2);
        for quiet in &mut self.quiet {
            let ways = hier.ddio_ways();
            if delta > 25 {
                *quiet = 0;
                if ways < max_ways {
                    hier.set_ddio_ways(ways + 1);
                }
            } else if delta == 0 {
                *quiet += 1;
                // ~1 ms of silence before giving a way back.
                if *quiet >= 40 && ways > 2 {
                    hier.set_ddio_ways(ways - 1);
                    *quiet = 0;
                }
            } else {
                *quiet = 0;
            }
        }
    }
}

/// CAT way partitioning of one run: the static masks and the closed-loop
/// allocator, the per-core domain map they are applied through, and the
/// `cat.*` metrics and tick-log section they export.
#[derive(Debug, Clone)]
pub(crate) struct CatPartition {
    /// Closed-loop allocator, if some domain asked for `cat = auto`.
    auto: Option<CatController>,
    /// First policy domain hosted on each core (by queue order); `None`
    /// for cores without a queue. Maps per-core MLC-WB counters onto
    /// per-domain pressure, and picks each core's mask.
    core_domain: Vec<Option<u16>>,
    /// DDIO width the masks were last planned against; the IAT tuner
    /// moving the partition boundary forces a re-plan.
    planned_ddio: usize,
    /// Control-tick scratch: per-domain MLC-WB pressure.
    domain_wb: Vec<u64>,
}

impl CatPartition {
    /// The partition `policy` asks for over the queues' cores
    /// (`queue_core`, in queue order), with its masks applied to `hier`;
    /// `None` when no domain uses CAT.
    pub(crate) fn new(
        policy: &PolicyTable,
        queue_core: impl Iterator<Item = CoreId>,
        hier: &mut Hierarchy,
    ) -> Option<Self> {
        if !policy.any_cat() {
            return None;
        }
        let mut core_domain = vec![None; hier.config().num_cores];
        for (q, core) in queue_core.enumerate() {
            core_domain[core.index()].get_or_insert(policy.queue_domain(q));
        }
        let caps = policy.domain_caps();
        let auto: Vec<bool> = caps.iter().map(|c| c.cat == CatMode::Auto).collect();
        let mut cat = CatPartition {
            auto: policy
                .any_cat_auto()
                .then(|| CatController::new(CatConfig::paper_default(), &auto)),
            core_domain,
            planned_ddio: 0,
            domain_wb: Vec::with_capacity(auto.len()),
        };
        cat.apply_masks(hier, policy);
        Some(cat)
    }

    /// (Re)derives every core's CAT mask from the policy table and the
    /// allocator's current plan. Static domains pin their configured
    /// mask; auto domains get their exclusive slice (falling back to the
    /// shared pool when no slice fits); all remaining cores share the
    /// pool, which excludes every auto slice — that exclusion is what
    /// makes the slices exclusive. Without an auto allocator only static
    /// masks are applied and other cores keep the default core mask.
    fn apply_masks(&mut self, hier: &mut Hierarchy, policy: &PolicyTable) {
        let (ddio, llc_ways) = (hier.ddio_ways(), hier.config().llc.ways);
        self.planned_ddio = ddio;
        let plan = self.auto.as_ref().map(|c| c.plan(llc_ways, ddio));
        for (core, &domain) in self.core_domain.iter().enumerate() {
            let mask = match domain.map(|d| (d, policy.caps(d).cat)) {
                Some((_, CatMode::Static(m))) => Some(m),
                Some((d, CatMode::Auto)) => {
                    let p = plan.as_ref().expect("auto CAT domain without allocator");
                    Some(p.domain_mask[d as usize].unwrap_or(p.shared))
                }
                Some((_, CatMode::Off)) | None => plan.as_ref().map(|p| p.shared),
            };
            hier.set_cat_mask(CoreId::new(core as u16), mask);
        }
    }

    /// Control-tick step of the closed loop, run after the IAT tuner so a
    /// freshly widened DDIO partition is reflected in this tick's plan:
    /// folds the per-core MLC-WB counters `core_wb` into per-domain
    /// pressure, lets the allocator adjust the slices, and re-plans the
    /// masks when a slice or the DDIO width changed. Static-only
    /// partitions have no step.
    pub(crate) fn tick(
        &mut self,
        now: SimTime,
        core_wb: &[u64],
        hier: &mut Hierarchy,
        policy: &PolicyTable,
        tracer: &mut Tracer,
    ) {
        let Some(cat) = self.auto.as_mut() else {
            return;
        };
        self.domain_wb.clear();
        self.domain_wb.resize(policy.num_domains(), 0);
        for (&wb, d) in core_wb.iter().zip(&self.core_domain) {
            if let Some(d) = d {
                self.domain_wb[*d as usize] += wb;
            }
        }
        let (ddio, llc_ways) = (hier.ddio_ways(), hier.config().llc.ways);
        let budget = llc_ways.saturating_sub(ddio + cat.config().min_shared);
        if cat.tick(&self.domain_wb, budget) || ddio != self.planned_ddio {
            tracer.record(now, "cat", "realloc", || {
                let mut widths = String::new();
                for d in 0..policy.num_domains() {
                    if let Some(w) = cat.ways(d) {
                        let _ = write!(widths, " d{d}={w}");
                    }
                }
                format!("ddio={ddio}{widths} reallocs={}", cat.reallocations())
            });
            self.apply_masks(hier, policy);
        }
    }

    /// Exports `cat.reallocations` and every CAT domain's width.
    pub(crate) fn export(&self, metrics: &mut MetricsRegistry, policy: &PolicyTable) {
        let auto = self.auto.as_ref();
        metrics.counter_set("cat.reallocations", auto.map_or(0, |c| c.reallocations()));
        for (d, caps) in policy.domain_caps().iter().enumerate() {
            let ways = match caps.cat {
                CatMode::Off => continue,
                CatMode::Static(mask) => mask.count(),
                CatMode::Auto => auto.and_then(|c| c.ways(d)).expect("auto CAT domain"),
            };
            metrics.counter_set(&format!("cat.domain{d}.ways"), ways as u64);
        }
    }

    /// Appends the tick log's `cat` section: the auto allocator's
    /// reallocation count and per-domain widths. Static-only partitions
    /// have no section, since it describes the allocator.
    pub(crate) fn tick_section(&self, line: &mut String, policy: &PolicyTable) {
        let Some(cat) = &self.auto else {
            return;
        };
        let reallocs = cat.reallocations();
        let _ = write!(line, ",\"cat\":{{\"reallocs\":{reallocs},\"ways\":[");
        for d in 0..policy.num_domains() {
            let sep = if d > 0 { "," } else { "" };
            let _ = match cat.ways(d) {
                Some(w) => write!(line, "{sep}{w}"),
                None => write!(line, "{sep}null"),
            };
        }
        line.push_str("]}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SteeringPolicy;

    const C0: CoreId = CoreId::new(0);

    fn meta(header: bool, burst: bool, class: AppClass) -> TlpMeta {
        TlpMeta {
            dest_core: C0,
            app_class: class,
            is_header: header,
            is_burst: burst,
        }
    }

    #[test]
    fn thr_conversion_matches_paper() {
        let cfg = IdioConfig::paper_default().with_mlc_thr_mtps(50.0);
        assert_eq!(cfg.mlc_thr, 50);
        let cfg = IdioConfig::paper_default().with_mlc_thr_mtps(10.0);
        assert_eq!(cfg.mlc_thr, 10);
    }

    #[test]
    fn mtps_intent_survives_interval_change() {
        // Regression: with_mlc_thr_mtps used to bake the interval in at
        // call time, so changing the interval afterwards left a stale
        // threshold (50 instead of 100 here).
        let cfg = IdioConfig::paper_default()
            .with_mlc_thr_mtps(50.0)
            .with_control_interval(Duration::from_us(2));
        assert_eq!(cfg.mlc_thr, 100);
        assert_eq!(cfg.effective_mlc_thr(), 100);

        // Direct field assignment is also rescued at controller build.
        let mut cfg = IdioConfig::paper_default().with_mlc_thr_mtps(50.0);
        cfg.control_interval = Duration::from_us(4);
        assert_eq!(cfg.effective_mlc_thr(), 200);
        let c = IdioController::new(cfg, 1);
        assert_eq!(c.config().mlc_thr, 200);
    }

    #[test]
    fn tiny_mtps_rounds_up_to_one_not_zero() {
        // Regression: 0.2 MTPS over 1 µs is 0.2 WB/interval, which used to
        // round to a threshold of 0 — a value that makes *any* writeback
        // count as pressure, silently disabling MLC steering.
        let cfg = IdioConfig::paper_default().with_mlc_thr_mtps(0.2);
        assert_eq!(cfg.mlc_thr, 1);
        assert_eq!(cfg.effective_mlc_thr(), 1);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_mtps_is_rejected() {
        let _ = IdioConfig::paper_default().with_mlc_thr_mtps(0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn nan_mtps_is_rejected() {
        let _ = IdioConfig::paper_default().with_mlc_thr_mtps(f64::NAN);
    }

    #[test]
    fn ddio_policy_never_leaves_llc() {
        let mut c = IdioController::new(IdioConfig::paper_default(), 1);
        for m in [
            meta(true, true, AppClass::Class0),
            meta(false, false, AppClass::Class1),
        ] {
            assert_eq!(c.steer(SteeringPolicy::Ddio, m), Placement::Llc);
            assert_eq!(c.steer(SteeringPolicy::InvalidateOnly, m), Placement::Llc);
        }
    }

    #[test]
    fn class1_payload_goes_to_dram_headers_stay_onchip() {
        let mut c = IdioController::new(IdioConfig::paper_default(), 1);
        let payload = meta(false, false, AppClass::Class1);
        let header = meta(true, false, AppClass::Class1);
        assert_eq!(c.steer(SteeringPolicy::Idio, payload), Placement::Dram);
        assert_eq!(c.steer(SteeringPolicy::Idio, header), Placement::Mlc(C0));
        // PrefetchOnly lacks mechanism 3: class-1 payload stays in LLC.
        assert_eq!(
            c.steer(SteeringPolicy::PrefetchOnly, payload),
            Placement::Llc
        );
    }

    #[test]
    fn dynamic_payload_follows_fsm() {
        let mut c = IdioController::new(IdioConfig::paper_default(), 1);
        let payload = meta(false, false, AppClass::Class0);
        // Default FSM state: disabled → LLC.
        assert_eq!(c.steer(SteeringPolicy::Idio, payload), Placement::Llc);
        // Burst arms it.
        let burst_payload = meta(false, true, AppClass::Class0);
        assert_eq!(
            c.steer(SteeringPolicy::Idio, burst_payload),
            Placement::Mlc(C0)
        );
        assert_eq!(c.steer(SteeringPolicy::Idio, payload), Placement::Mlc(C0));
    }

    #[test]
    fn static_policy_ignores_fsm() {
        let mut c = IdioController::new(IdioConfig::paper_default(), 1);
        let payload = meta(false, false, AppClass::Class0);
        assert_eq!(
            c.steer(SteeringPolicy::StaticIdio, payload),
            Placement::Mlc(C0)
        );
    }

    #[test]
    fn sustained_pressure_disables_dynamic_steering() {
        let mut c = IdioController::new(IdioConfig::paper_default(), 1);
        c.steer(SteeringPolicy::Idio, meta(false, true, AppClass::Class0));
        assert_eq!(c.status(C0), MlcStatus::Mlc);
        // Three intervals with wb rate far above avg+thr (avg starts 0).
        let mut wb = 0u64;
        for _ in 0..3 {
            wb += 200; // 200 WB/us >> 0 + 50
            c.control_tick(&[wb]);
        }
        assert_eq!(c.status(C0), MlcStatus::Llc);
        let payload = meta(false, false, AppClass::Class0);
        assert_eq!(c.steer(SteeringPolicy::Idio, payload), Placement::Llc);
    }

    #[test]
    fn quiet_intervals_keep_steering_enabled() {
        let mut c = IdioController::new(IdioConfig::paper_default(), 1);
        c.steer(SteeringPolicy::Idio, meta(false, true, AppClass::Class0));
        let mut wb = 0u64;
        for _ in 0..100 {
            wb += 30; // below thr
            c.control_tick(&[wb]);
        }
        assert_eq!(c.status(C0), MlcStatus::Mlc);
    }

    #[test]
    fn average_window_updates() {
        let cfg = IdioConfig {
            control_interval: Duration::from_us(1),
            avg_window: 4,
            mlc_thr: 50,
            mlc_thr_mtps_milli: None,
        };
        let mut c = IdioController::new(cfg, 1);
        let mut wb = 0u64;
        for _ in 0..4 {
            wb += 100;
            c.control_tick(&[wb]);
        }
        assert_eq!(c.mlc_wb_avg(C0), 100);
        // With avg raised to 100, 140 WB/us is no longer "high".
        c.steer(SteeringPolicy::Idio, meta(false, true, AppClass::Class0));
        wb += 140;
        c.control_tick(&[wb]);
        assert_eq!(c.status(C0), MlcStatus::Mlc);
    }

    #[test]
    fn per_core_isolation() {
        let mut c = IdioController::new(IdioConfig::paper_default(), 2);
        let m1 = TlpMeta {
            dest_core: CoreId::new(1),
            app_class: AppClass::Class0,
            is_header: false,
            is_burst: true,
        };
        c.steer(SteeringPolicy::Idio, m1);
        assert_eq!(c.status(CoreId::new(1)), MlcStatus::Mlc);
        assert_eq!(c.status(C0), MlcStatus::Llc);
    }

    // ---- CAT allocator -----------------------------------------------------

    /// Fast-cadence config so tests don't need hundreds of ticks.
    fn cat_cfg() -> CatConfig {
        CatConfig {
            period: 1,
            grow_thr: 25,
            quiet_evals: 3,
            ..CatConfig::paper_default()
        }
    }

    #[test]
    fn cat_slices_start_at_the_floor_and_carve_from_the_top() {
        let c = CatController::new(cat_cfg(), &[false, true, true]);
        assert_eq!(c.ways(0), None);
        assert_eq!(c.ways(1), Some(1));
        assert_eq!(c.ways(2), Some(1));
        let plan = c.plan(12, 2);
        assert_eq!(plan.domain_mask[0], None);
        // Domain 1 takes the top way, domain 2 the next one down.
        assert_eq!(plan.domain_mask[1], Some(WayMask::range(11, 12)));
        assert_eq!(plan.domain_mask[2], Some(WayMask::range(10, 11)));
        assert_eq!(plan.shared, WayMask::range(2, 10));
        // Exclusive: masks are pairwise disjoint and avoid the DDIO ways.
        let m1 = plan.domain_mask[1].unwrap();
        let m2 = plan.domain_mask[2].unwrap();
        assert!(m1.intersect(m2).is_empty());
        assert!(m1.intersect(plan.shared).is_empty());
        assert!(m1.intersect(WayMask::first(2)).is_empty());
    }

    #[test]
    fn cat_grows_under_pressure_and_shrinks_after_quiet() {
        let mut c = CatController::new(cat_cfg(), &[true]);
        let budget = 12 - 2 - 2;
        // Sustained pressure: the slice widens one way per evaluation up
        // to the per-domain cap.
        let mut wb = 0u64;
        for _ in 0..10 {
            wb += 100;
            c.tick(&[wb], budget);
        }
        assert_eq!(c.ways(0), Some(6));
        // Silence: only after `quiet_evals` consecutive quiet checks does
        // a way go back, one at a time.
        assert!(!c.tick(&[wb], budget));
        assert!(!c.tick(&[wb], budget));
        assert!(c.tick(&[wb], budget));
        assert_eq!(c.ways(0), Some(5));
        // Low-but-nonzero traffic resets the quiet streak.
        assert!(!c.tick(&[wb + 1], budget));
        assert!(!c.tick(&[wb + 1], budget));
        assert!(!c.tick(&[wb + 1], budget));
        assert_eq!(c.ways(0), Some(5));
        assert!(c.reallocations() >= 4);
    }

    #[test]
    fn cat_growth_respects_the_shared_budget() {
        // Three hungry domains, budget of 4 ways total: growth stops when
        // the summed slices hit the budget, regardless of per-domain cap.
        let mut c = CatController::new(cat_cfg(), &[true, true, true]);
        let mut wb = 0u64;
        for _ in 0..10 {
            wb += 1000;
            c.tick(&[wb, wb, wb], 4);
        }
        let total: usize = (0..3).map(|d| c.ways(d).unwrap()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn cat_plan_clamps_when_ddio_grows() {
        let mut c = CatController::new(cat_cfg(), &[true, true]);
        let mut wb = 0u64;
        for _ in 0..10 {
            wb += 100;
            c.tick(&[wb, wb], 8);
        }
        assert_eq!(c.ways(0), Some(4));
        assert_eq!(c.ways(1), Some(4));
        // DDIO at 4 ways leaves 12-4-2 = 6 ways for slices: domain 0
        // keeps its 4, domain 1 is clamped to 2, shared keeps 2.
        let plan = c.plan(12, 4);
        assert_eq!(plan.domain_mask[0], Some(WayMask::range(8, 12)));
        assert_eq!(plan.domain_mask[1], Some(WayMask::range(6, 8)));
        assert_eq!(plan.shared, WayMask::range(4, 6));
        // An absurdly wide DDIO partition drops slices entirely rather
        // than leaving any core with an empty mask.
        let plan = c.plan(12, 10);
        assert_eq!(plan.domain_mask[0], None);
        assert_eq!(plan.domain_mask[1], None);
        assert_eq!(plan.shared, WayMask::range(10, 12));
    }

    #[test]
    fn cat_evaluates_only_on_period_boundaries() {
        let mut c = CatController::new(
            CatConfig {
                period: 25,
                ..cat_cfg()
            },
            &[true],
        );
        for t in 1..=24 {
            assert!(!c.tick(&[t * 1000], 8));
        }
        assert_eq!(c.ways(0), Some(1));
        assert!(c.tick(&[25_000], 8));
        assert_eq!(c.ways(0), Some(2));
    }
}
