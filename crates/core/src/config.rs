//! Full-system configuration (Table I defaults plus workload wiring).

use idio_cache::addr::CoreId;
use idio_cache::config::{CacheGeometry, HierarchyConfig};
use idio_engine::telemetry::TraceFilter;
use idio_engine::time::{Duration, SimTime};
use idio_net::gen::{Arrival, TrafficPattern, MAX_FLOW_SET_FLOWS};
use idio_net::packet::{Dscp, MIN_FRAME_BYTES};
use idio_pool::PoolSpec;
use idio_stack::nf::NfKind;

use idio_cache::set::WayMask;

use crate::controller::IdioConfig;
use crate::policy::{CatMode, PolicySpec, PolicyTable, SteeringPolicy};
use crate::prefetcher::PrefetcherConfig;

/// How flows are steered to queues (Sec. II-C's two Flow Director
/// flavours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowSteering {
    /// Externally programmed perfect-match filters: every tenant flow
    /// is pinned to its queue up front (applications pinned to cores).
    #[default]
    Perfect,
    /// Application Targeting Routing: no filters up front; initial packets
    /// spread by RSS, and the NIC learns each flow's queue from the TX
    /// traffic it observes.
    Atr,
}

/// Per-tenant service-level objectives. Plain data that a
/// [`crate::system::System`] ignores; the scenario runner asserts them
/// against the tenant's mixed run.
///
/// Bounds are optional; a tenant with no `SloSpec` (or with all bounds
/// `None`) is never flagged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloSpec {
    /// Upper bound on the tenant's mixed-run p99 packet latency (ns).
    pub max_p99_ns: Option<u64>,
    /// Upper bound on the tenant's mixed-run drop rate (fraction of
    /// offered packets dropped at full rings).
    pub max_drop_rate: Option<f64>,
}

impl SloSpec {
    /// Whether any bound is actually set.
    pub fn is_bounded(&self) -> bool {
        self.max_p99_ns.is_some() || self.max_drop_rate.is_some()
    }

    /// Checks the bounds' values: a drop-rate bound is a finite fraction
    /// in `0.0..=1.0` (a `NaN` bound would never fail, a negative one
    /// always would).
    ///
    /// # Errors
    ///
    /// Returns the broken rule, keyed `max_drop_rate`.
    pub fn check(&self) -> Result<(), FieldError> {
        match self.max_drop_rate {
            Some(v) if !(v.is_finite() && (0.0..=1.0).contains(&v)) => Err(FieldError::new(
                "max_drop_rate",
                format!("max_drop_rate {v} out of range (0.0..=1.0)"),
            )),
            _ => Ok(()),
        }
    }
}

/// The statistics sampling interval of every run's timelines (10 µs, as
/// in the paper's figures).
pub const SAMPLE_INTERVAL: Duration = Duration::from_us(10);

/// The largest Flow Director perfect-filter table a configuration may ask
/// for (1M entries, 128x the hardware's ~8K).
const MAX_PERFECT_FILTERS: usize = 1 << 20;

/// The fastest line rate a tenant may offer: 1.6 Tb/s, the fastest
/// standard Ethernet (IEEE 802.3dj). A 64-byte frame then takes 320 ps on
/// the wire, so every frame advances the picosecond clock.
pub const MAX_RATE_GBPS: f64 = 1600.0;

/// A value rule that a configuration field breaks, named by its
/// scenario-file key so a parser can point at the offending value. Time
/// keys use their base name (`churn`, not `churn_us`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// The scenario-file key at fault.
    pub key: &'static str,
    /// What is wrong with its value.
    pub msg: String,
}

impl FieldError {
    /// An error about `key`.
    pub fn new(key: &'static str, msg: impl Into<String>) -> Self {
        FieldError {
            key,
            msg: msg.into(),
        }
    }
}

/// The one rate rule: `rate` (the value of `key`) must be positive and
/// finite.
///
/// # Errors
///
/// Returns a [`FieldError`] on `key` otherwise.
pub fn positive_rate(key: &'static str, rate: f64) -> Result<f64, FieldError> {
    if rate.is_finite() && rate > 0.0 {
        Ok(rate)
    } else {
        Err(FieldError::new(
            key,
            format!("{key} must be a positive finite rate, got {rate}"),
        ))
    }
}

/// One tenant: a traffic source bound to a network function on a group of
/// cores, each core with its own NIC queue.
///
/// Tenants are the only way traffic enters a [`crate::system::System`]:
/// arrivals come from one [`idio_net::gen::MultiFlowGen`] per tenant (or a
/// replayed trace), dealt round-robin over `flows` distinct five-tuples.
/// Queue `q` is the `q`-th core in the order of the tenants' `cores`
/// lists. Under [`FlowSteering::Perfect`] flow `i` is pinned to the
/// tenant's `i % cores.len()`-th queue via the flow director; under
/// [`FlowSteering::Atr`] flows spread by RSS until the NIC learns them.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Stable tenant name (report key; must be unique within a config).
    pub name: String,
    /// The network function every one of the tenant's cores runs.
    pub nf: NfKind,
    /// The cores (and therefore NIC queues) the tenant owns. A core
    /// belongs to at most one tenant.
    pub cores: Vec<u16>,
    /// Number of concurrently-active flows (five-tuples) the tenant's load
    /// is dealt over — up to [`idio_net::gen::MAX_FLOW_SET_FLOWS`] (16M),
    /// derived on demand by a streaming [`idio_net::gen::FlowSet`] rather
    /// than materialised. Ignored when `replay` is set (the trace brings
    /// its own flows).
    pub flows: u32,
    /// First UDP destination port. Small flow counts use the narrow
    /// derivation (flow `i` targets `base_port + i`; tenants must then use
    /// disjoint port ranges, and any number of them may exist); counts
    /// past the port range (or churning tenants) spill the flow index into
    /// the source address, keyed by the tenant's index, so they cannot
    /// alias other tenants (only the first 240 tenants may be wide).
    pub base_port: u16,
    /// Flow lifetime: each active-flow slot retires its flow and starts a
    /// fresh five-tuple after this long (staggered across slots), so the
    /// working set turns over like a real tenant's connection table.
    /// `None` = the flow population is fixed for the whole run.
    pub churn: Option<Duration>,
    /// Packets dealt to one flow per visit before rotating to the next
    /// (a packet train). 1 = plain round-robin.
    pub train: u32,
    /// Aggregate arrival pattern of the whole tenant (independent of
    /// `flows`: the flow count only changes how the load is dealt out).
    pub traffic: TrafficPattern,
    /// Frame size in bytes (all flows of a tenant share it).
    pub packet_len: u16,
    /// DSCP marking applied by the tenant's (simulated) senders — the
    /// application-class signal the NIC classifier reads.
    pub dscp: Dscp,
    /// Recorded arrivals replacing the analytic `traffic` pattern (see
    /// `idio_net::trace`). Flows found in the trace are pinned first-seen
    /// round-robin across the tenant's queues.
    pub replay: Option<Vec<Arrival>>,
    /// Steering-policy override for every queue this tenant owns. `None`
    /// inherits [`SystemConfig::policy`]; a preset override equal to it
    /// behaves identically but labels the tenant in scenario reports.
    pub policy: Option<PolicySpec>,
    /// Mbuf-pool mode of every one of the tenant's queues. `None` is the
    /// implicit status quo (per-slot buffers, no pool telemetry);
    /// `Some(PoolSpec::Dram)` is the same working set *with* LLC-budget
    /// spill accounting; `Some(PoolSpec::Recycle { .. })` is the RDCA
    /// cache-resident recycling pool. Resolved against the DDIO partition
    /// and ring geometry when the system is built.
    pub pool: Option<PoolSpec>,
    /// Optional service-level objectives (not read by the system).
    pub slo: Option<SloSpec>,
}

impl TenantSpec {
    /// A synthetic-traffic tenant with best-effort DSCP, plain
    /// round-robin flows, no churn and no overrides.
    pub fn new(
        name: impl Into<String>,
        nf: NfKind,
        cores: Vec<u16>,
        flows: u32,
        base_port: u16,
        traffic: TrafficPattern,
        packet_len: u16,
    ) -> Self {
        TenantSpec {
            name: name.into(),
            nf,
            cores,
            flows,
            base_port,
            churn: None,
            train: 1,
            traffic,
            packet_len,
            dscp: Dscp::BEST_EFFORT,
            replay: None,
            policy: None,
            pool: None,
            slo: None,
        }
    }

    /// Returns the tenant with a different DSCP marking.
    pub fn with_dscp(mut self, dscp: Dscp) -> Self {
        self.dscp = dscp;
        self
    }

    /// Returns the tenant with flow churn: each active flow lives
    /// `lifetime`, then its slot starts a fresh five-tuple.
    pub fn with_churn(mut self, lifetime: Duration) -> Self {
        self.churn = Some(lifetime);
        self
    }

    /// Returns the tenant dealing `train` consecutive packets per flow
    /// visit instead of rotating every packet.
    pub fn with_train(mut self, train: u32) -> Self {
        self.train = train;
        self
    }

    /// Returns the tenant replaying `arrivals` instead of its analytic
    /// traffic pattern.
    pub fn with_replay(mut self, arrivals: Vec<Arrival>) -> Self {
        self.replay = Some(arrivals);
        self
    }

    /// Returns the tenant pinned to its own steering policy instead of
    /// inheriting the system default.
    pub fn with_policy(mut self, policy: impl Into<PolicySpec>) -> Self {
        self.policy = Some(policy.into());
        self
    }

    /// Returns the tenant with an explicit mbuf-pool mode on its queues.
    pub fn with_pool(mut self, pool: PoolSpec) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Returns the tenant with service-level objectives attached.
    pub fn with_slo(mut self, slo: SloSpec) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Checks the rules on this tenant's own values, CAT masks against
    /// the hierarchy `h` it runs on (the DDIO ways stay reserved for
    /// inbound DMA). Rules about how tenants share the machine are
    /// [`SystemConfig::validate`]'s.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule.
    pub fn check(&self, h: &HierarchyConfig) -> Result<(), FieldError> {
        let fail = |key, msg: String| Err(FieldError::new(key, msg));
        if self.name.is_empty() {
            return fail("name", "name must not be empty".into());
        }
        if self.cores.is_empty() {
            return fail("cores", "cores must list at least one core".into());
        }
        if self.flows == 0 {
            return fail("flows", "flows must be positive".into());
        }
        let (flows, len) = (self.flows, self.packet_len);
        if flows > MAX_FLOW_SET_FLOWS {
            let msg = format!("flows {flows} out of range (0..={MAX_FLOW_SET_FLOWS})");
            return fail("flows", msg);
        }
        if self.churn == Some(Duration::ZERO) {
            return fail("churn", "churn must be positive".into());
        }
        if self.train == 0 {
            return fail("train", "train must be positive".into());
        }
        if len < MIN_FRAME_BYTES {
            let msg = format!("packet_len {len} below the Ethernet minimum ({MIN_FRAME_BYTES})");
            return fail("packet_len", msg);
        }
        match self.traffic {
            TrafficPattern::Steady { rate_gbps } | TrafficPattern::Poisson { rate_gbps, .. } => {
                positive_rate("rate_gbps", rate_gbps)?;
                if rate_gbps > MAX_RATE_GBPS {
                    let msg = format!("rate_gbps {rate_gbps} out of range (0..={MAX_RATE_GBPS})");
                    return fail("rate_gbps", msg);
                }
            }
            TrafficPattern::Bursty(b) => {
                if b.packets_per_burst == 0 {
                    return fail("burst_packets", "burst_packets must be positive".into());
                }
                if b.period == Duration::ZERO {
                    return fail("burst_period", "burst_period must be positive".into());
                }
                // The fit `BurstSpec::for_ring` asserts.
                let packets = u64::from(b.packets_per_burst);
                let span = Duration::from_ps(b.intra_gap.as_ps().saturating_mul(packets));
                let period = b.period;
                if span >= period {
                    let msg = format!("burst of {span} does not fit in period {period}");
                    return fail("burst_packets", msg);
                }
            }
        }
        if let Some(CatMode::Static(m)) = self.policy.map(|p| p.caps().cat) {
            if m.is_empty() {
                return fail("way_mask", "way mask selects no way".into());
            }
            let (ways, ddio) = (h.llc.ways, h.ddio_ways);
            if m.intersect(WayMask::all(ways)) != m {
                let msg = format!("way mask {m} wider than the {ways}-way LLC");
                return fail("way_mask", msg);
            }
            if !m.intersect(h.ddio_mask()).is_empty() {
                let msg = format!("way mask {m} overlaps the {ddio} DDIO ways (ways 0..{ddio})");
                return fail("way_mask", msg);
            }
        }
        if let Some(PoolSpec::Recycle { slots: Some(0) }) = self.pool {
            return fail("pool", "recycle pool needs at least one slot".into());
        }
        if let Some(arrivals) = &self.replay {
            if arrivals.windows(2).any(|w| w[0].at > w[1].at) {
                return fail("replay", "replay is not time-ordered".into());
            }
        }
        self.slo.as_ref().map_or(Ok(()), SloSpec::check)
    }
}

/// The LLCAntagonist co-runner (Sec. VI), with the buffer and think time
/// of `idio_stack::antagonist`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntagonistSpec {
    /// The core running the antagonist.
    pub core: CoreId,
}

/// Everything needed to build and run a [`crate::system::System`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Cache hierarchy (Table I; antagonist MLC override applied by the
    /// builder).
    pub hierarchy: HierarchyConfig,
    /// NIC ring depth per queue.
    pub ring_size: u32,
    /// Flow Director perfect-match (EP) filter capacity. Tenant flows are
    /// pinned up to this bound (sampled evenly across each tenant's flow
    /// index space); the rest steer via ATR learning and RSS. Sec. II-C
    /// puts the real table at ~8K entries.
    pub perfect_filter_entries: usize,
    /// ATR filter-table entry lifetime: learned entries past this age are
    /// dropped on next touch and the flow falls back to RSS until
    /// re-learned. `None` = entries never age (legacy behavior).
    pub atr_lifetime: Option<Duration>,
    /// Idle window after which a `Recycle` pool that holds no live
    /// buffer self-invalidates its buffers and releases its LLC footprint
    /// (checked at control ticks). `None` = pools hold their footprint
    /// forever (legacy behavior).
    pub pool_idle_flush: Option<Duration>,
    /// The system-default placement policy — the bottom layer of the
    /// policy table. [`TenantSpec::policy`] overrides it per tenant;
    /// [`SystemConfig::policy_table`] resolves the layering.
    pub policy: SteeringPolicy,
    /// IDIO controller settings.
    pub idio: IdioConfig,
    /// MLC prefetcher settings.
    pub prefetcher: PrefetcherConfig,
    /// The tenants: per-tenant multi-flow (or replayed) sources, each
    /// spread across its own cores' queues via the flow director / RSS.
    /// To replay a trace, give it a tenant with [`TenantSpec::replay`].
    pub tenants: Vec<TenantSpec>,
    /// Optional antagonist co-runner.
    pub antagonist: Option<AntagonistSpec>,
    /// Flow Director operating mode.
    pub steering: FlowSteering,
    /// Traffic generation horizon.
    pub duration: SimTime,
    /// Extra time allowed for queued packets to drain after traffic stops.
    pub drain_grace: Duration,
    /// Which components the run's tracer records (off by default; see
    /// [`idio_engine::telemetry::Tracer`]). Trace output is deterministic:
    /// a pure function of the configuration and seed.
    pub trace: TraceFilter,
    /// Measure host wall-clock per event type in the engine loop.
    /// Dispatch *counts* are always collected (they are deterministic);
    /// the wall-clock measurement is host noise and is opt-in so it never
    /// taxes—or leaks into—deterministic runs.
    pub profile_events: bool,
    /// Record one NDJSON line per control tick (steering-mix delta, per-core
    /// prefetch-FSM states, CAT timeline) into
    /// [`RunReport::tick_metrics`](crate::report::RunReport::tick_metrics).
    /// Off by default: the timeline is deterministic but verbose (one line
    /// per microsecond of simulated time).
    pub tick_metrics: bool,
    /// PRNG seed (antagonist access pattern).
    pub seed: u64,
}

impl SystemConfig {
    /// The Fig. 9 baseline scenario: `n` TouchDrop instances on `n` cores
    /// (plus room for an antagonist if added later), Table I hierarchy with
    /// the 3 MiB LLC, 1024-deep rings, 1514-byte packets. Instance `q` is a
    /// one-flow tenant `workload{q}` on core `q` at UDP port `5000 + q`.
    pub fn touchdrop_scenario(n: usize, traffic: TrafficPattern) -> Self {
        let one_flow = |q: u16| {
            TenantSpec::new(
                format!("workload{q}"),
                NfKind::TouchDrop,
                vec![q],
                1,
                5000 + q,
                traffic,
                1514,
            )
        };
        SystemConfig {
            tenants: (0..n as u16).map(one_flow).collect(),
            ..SystemConfig::paper_default(n)
        }
    }

    /// Table I defaults sized for `num_cores` cores, with no tenant yet.
    pub fn paper_default(num_cores: usize) -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::paper_default(num_cores.max(1)),
            ring_size: 1024,
            perfect_filter_entries: idio_nic::DEFAULT_FILTER_TABLE_ENTRIES,
            atr_lifetime: None,
            pool_idle_flush: None,
            policy: SteeringPolicy::Ddio,
            idio: IdioConfig::paper_default(),
            prefetcher: PrefetcherConfig::default(),
            tenants: Vec::new(),
            antagonist: None,
            steering: FlowSteering::default(),
            duration: SimTime::from_ms(10),
            drain_grace: Duration::from_ms(5),
            trace: TraceFilter::off(),
            profile_events: false,
            tick_metrics: false,
            seed: 0xD10,
        }
    }

    /// Returns the config with a different system-default policy.
    pub fn with_policy(mut self, policy: SteeringPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Every NIC queue as its core and owning tenant: queue `q` is the
    /// `q`-th core in the order of the tenants' `cores` lists.
    pub fn queues(&self) -> impl Iterator<Item = (CoreId, &TenantSpec)> + '_ {
        (self.tenants.iter()).flat_map(|t| t.cores.iter().map(move |&c| (CoreId::new(c), t)))
    }

    /// Resolves the layered policy configuration (system default →
    /// per-tenant override) into the dense [`PolicyTable`] the hot path
    /// indexes. A preset-only configuration with no overrides resolves to
    /// a single-domain table whose behavior is exactly the old global
    /// enum's.
    pub fn policy_table(&self) -> PolicyTable {
        let default = PolicySpec::Preset(self.policy);
        let per_queue: Vec<PolicySpec> = self
            .queues()
            .map(|(_, t)| t.policy.unwrap_or(default))
            .collect();
        PolicyTable::new(default, &per_queue)
    }

    /// Adds the antagonist on the next free core, shrinking that core's MLC
    /// to 256 KiB per Sec. VI.
    pub fn with_antagonist(mut self) -> Self {
        let core = CoreId::new(self.num_cores() as u16);
        self.antagonist = Some(AntagonistSpec { core });
        self
    }

    /// Number of cores the configuration requires.
    pub fn num_cores(&self) -> usize {
        let tenant_max = self.queues().map(|(c, _)| c.index() + 1).max().unwrap_or(0);
        let ant = self.antagonist.map(|a| a.core.index() + 1).unwrap_or(0);
        tenant_max.max(ant).max(1)
    }

    /// Finalises the hierarchy config: core count and antagonist MLC
    /// override.
    pub(crate) fn effective_hierarchy(&self) -> HierarchyConfig {
        let mut h = self.hierarchy.clone();
        let n = self.num_cores();
        if h.num_cores < n {
            h.num_cores = n;
        }
        h.mlc_overrides.resize(h.num_cores, None);
        if let Some(a) = self.antagonist {
            // Sec. VI: the antagonist core's MLC is set to 256 KiB so it
            // stays sensitive to LLC contention.
            h.mlc_overrides[a.core.index()] = Some(CacheGeometry::new(256 << 10, h.mlc.ways));
        }
        h
    }

    /// Checks the rules on single values: each tenant's
    /// [`TenantSpec::check`] and the system-wide fields'.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule, with the index of the tenant it is
    /// about (`None` for a system-wide field).
    pub fn check_values(&self) -> Result<(), (Option<usize>, FieldError)> {
        for (i, t) in self.tenants.iter().enumerate() {
            t.check(&self.hierarchy).map_err(|e| (Some(i), e))?;
        }
        let fail = |key, msg: String| Err((None, FieldError::new(key, msg)));
        if self.duration == SimTime::ZERO {
            return fail("duration", "duration must be positive".into());
        }
        let filters = self.perfect_filter_entries;
        if filters == 0 {
            return fail("perfect_filters", "perfect_filters must be positive".into());
        }
        if filters > MAX_PERFECT_FILTERS {
            let msg = format!("perfect_filters {filters} out of range (0..={MAX_PERFECT_FILTERS})");
            return fail("perfect_filters", msg);
        }
        if self.atr_lifetime == Some(Duration::ZERO) {
            return fail("atr_lifetime", "atr_lifetime must be positive".into());
        }
        if self.pool_idle_flush == Some(Duration::ZERO) {
            return fail("pool_idle_flush", "pool_idle_flush must be positive".into());
        }
        Ok(())
    }

    /// Validates the configuration: [`SystemConfig::check_values`], then
    /// the rules about how tenants share the machine (core ownership,
    /// unique names, disjoint flow ports, the wide-set cap), the ring
    /// size and the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint; a
    /// tenant's value error reads `tenant '<name>': <msg>`.
    pub fn validate(&self) -> Result<(), String> {
        self.check_values().map_err(|(tenant, e)| match tenant {
            Some(i) => format!("tenant '{}': {}", self.tenants[i].name, e.msg),
            None => e.msg,
        })?;
        if self.tenants.is_empty() && self.antagonist.is_none() {
            return Err("no workload configured".into());
        }
        let mut seen = std::collections::HashSet::new();
        for &c in self.tenants.iter().flat_map(|t| &t.cores) {
            if !seen.insert(c) {
                return Err(format!("core {c} is owned by two tenants"));
            }
        }
        if let Some(a) = self.antagonist {
            if seen.contains(&(a.core.index() as u16)) {
                return Err(format!("antagonist collides with an NF on {}", a.core));
            }
        }
        if self.ring_size == 0 {
            return Err("ring size must be positive".into());
        }
        self.validate_tenants()?;
        self.effective_hierarchy().validate()
    }

    /// Whether tenant `t` uses the wide (source-address-spilling) flow
    /// derivation: churn always does; so does a flow count that exceeds
    /// the tenant's port range. Everything else keeps the narrow
    /// port-offset derivation byte-for-byte.
    pub(crate) fn tenant_is_wide(t: &TenantSpec) -> bool {
        t.churn.is_some() || u32::from(t.base_port) + t.flows > 65536
    }

    /// How tenants share flow identities: names are unique, and
    /// *narrow* tenants' synthetic flow port ranges do not collide
    /// (colliding ranges would make two tenants share a five-tuple and
    /// merge at the flow director). Wide tenants embed their tenant index
    /// in the source address and cannot alias anything, but only the
    /// first 240 may be wide.
    fn validate_tenants(&self) -> Result<(), String> {
        let mut names = std::collections::HashSet::new();
        let mut port_ranges: Vec<(String, u32, u32)> = Vec::new();
        for (ti, t) in self.tenants.iter().enumerate() {
            if !names.insert(t.name.as_str()) {
                return Err(format!("duplicate tenant name '{}'", t.name));
            }
            if t.replay.is_some() {
                continue;
            }
            if Self::tenant_is_wide(t) {
                if ti > usize::from(idio_net::MAX_FLOW_SET_TAG) {
                    return Err(format!(
                        "tenant '{}': at most {} tenants may use wide flow sets",
                        t.name,
                        usize::from(idio_net::MAX_FLOW_SET_TAG) + 1
                    ));
                }
            } else {
                let end = u32::from(t.base_port) + t.flows;
                for (other, lo, hi) in &port_ranges {
                    if u32::from(t.base_port) < *hi && *lo < end {
                        return Err(format!(
                            "tenants '{}' and '{other}' have overlapping flow ports",
                            t.name
                        ));
                    }
                }
                port_ranges.push((t.name.clone(), u32::from(t.base_port), end));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_net::gen::{BurstSpec, TrafficPattern};

    fn bursty() -> TrafficPattern {
        TrafficPattern::Bursty(BurstSpec::for_ring(
            1024,
            1514,
            100.0,
            Duration::from_ms(10),
        ))
    }

    #[test]
    fn touchdrop_scenario_matches_paper() {
        let cfg = SystemConfig::touchdrop_scenario(2, bursty());
        assert_eq!(cfg.queues().count(), 2);
        assert_eq!(cfg.tenants[1].name, "workload1");
        assert_eq!(cfg.tenants[1].base_port, 5001);
        assert_eq!(cfg.ring_size, 1024);
        assert_eq!(cfg.hierarchy.llc.size_bytes, 3 << 20);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn antagonist_gets_shrunk_mlc() {
        let cfg = SystemConfig::touchdrop_scenario(2, bursty()).with_antagonist();
        assert_eq!(cfg.num_cores(), 3);
        let h = cfg.effective_hierarchy();
        assert_eq!(h.num_cores, 3);
        assert_eq!(h.mlc_for_core(2).size_bytes, 256 << 10);
        assert_eq!(h.mlc_for_core(0).size_bytes, 1 << 20);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn double_booked_core_rejected() {
        let mut cfg = SystemConfig::touchdrop_scenario(2, bursty());
        cfg.tenants[1].cores = vec![0];
        assert!(cfg
            .validate()
            .unwrap_err()
            .contains("core 0 is owned by two tenants"));
    }

    #[test]
    fn antagonist_collision_rejected() {
        let mut cfg = SystemConfig::touchdrop_scenario(2, bursty()).with_antagonist();
        cfg.antagonist = Some(AntagonistSpec {
            core: CoreId::new(1),
        });
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn policy_builder() {
        let cfg = SystemConfig::touchdrop_scenario(1, bursty()).with_policy(SteeringPolicy::Idio);
        assert_eq!(cfg.policy, SteeringPolicy::Idio);
    }

    fn tenant(name: &str, cores: Vec<u16>, base_port: u16) -> TenantSpec {
        let steady = TrafficPattern::Steady { rate_gbps: 10.0 };
        TenantSpec::new(name, NfKind::TouchDrop, cores, 4, base_port, steady, 1514)
    }

    #[test]
    fn tenant_mode_validates() {
        let mut cfg = SystemConfig::touchdrop_scenario(4, bursty());
        cfg.tenants = vec![tenant("a", vec![2, 3], 5000), tenant("b", vec![0, 1], 6000)];
        assert!(cfg.validate().is_ok());
        // Queues follow the tenants' core lists in order.
        let queues: Vec<(CoreId, &str)> = cfg.queues().map(|(c, t)| (c, &*t.name)).collect();
        let core = CoreId::new;
        assert_eq!(
            queues,
            [
                (core(2), "a"),
                (core(3), "a"),
                (core(0), "b"),
                (core(1), "b")
            ]
        );
    }

    #[test]
    fn policy_layers_resolve_tenant_over_default() {
        let mut cfg =
            SystemConfig::touchdrop_scenario(4, bursty()).with_policy(SteeringPolicy::Idio);
        cfg.tenants = vec![
            tenant("a", vec![0, 1], 5000),
            tenant("b", vec![2], 6000).with_policy(SteeringPolicy::Ddio),
            tenant("c", vec![3], 7000).with_policy(SteeringPolicy::IatDynamic),
        ];
        assert!(cfg.validate().is_ok());
        let t = cfg.policy_table();
        assert_eq!(t.num_domains(), 3);
        // Queues 0/1 inherit the default, 2 and 3 take their tenants'
        // overrides.
        assert_eq!(t.queue_domains(), &[0, 0, 1, 2]);
        assert_eq!(t.spec(0), PolicySpec::Preset(SteeringPolicy::Idio));
        assert_eq!(t.spec(1), PolicySpec::Preset(SteeringPolicy::Ddio));
        assert_eq!(t.spec(2), PolicySpec::Preset(SteeringPolicy::IatDynamic));
    }

    #[test]
    fn preset_only_config_resolves_to_one_domain() {
        let cfg = SystemConfig::touchdrop_scenario(3, bursty()).with_policy(SteeringPolicy::Idio);
        let t = cfg.policy_table();
        assert_eq!(t.num_domains(), 1);
        assert_eq!(t.queue_domains(), &[0, 0, 0]);
        assert_eq!(t.caps(0), SteeringPolicy::Idio.caps());
    }

    #[test]
    fn cat_masks_validated_against_llc_and_ddio_partition() {
        use crate::policy::{CatMode, PolicyCaps};
        // Tenant 0 runs under `cat`; tenant 1 keeps the default.
        let with_cat = |cat: CatMode| {
            let mut cfg = SystemConfig::touchdrop_scenario(2, bursty());
            cfg.tenants[0].policy = Some(PolicySpec::Custom(PolicyCaps {
                cat,
                ..SteeringPolicy::Idio.caps()
            }));
            cfg
        };
        // A clean non-DDIO mask validates (paper LLC: 12 ways, 2 DDIO).
        let ok = with_cat(CatMode::Static(WayMask::range(4, 8)));
        assert!(ok.validate().is_ok());
        // Auto needs no mask to validate.
        assert!(with_cat(CatMode::Auto).validate().is_ok());
        let wide = with_cat(CatMode::Static(WayMask::range(10, 14)));
        assert!(wide.validate().unwrap_err().contains("wider"));
        let overlap = with_cat(CatMode::Static(WayMask::range(1, 4)));
        assert!(overlap.validate().unwrap_err().contains("overlaps"));
        let empty = with_cat(CatMode::Static(WayMask::EMPTY));
        assert!(empty.validate().unwrap_err().contains("no way"));
    }

    #[test]
    fn frames_and_rates_checked_for_workloads_and_tenants() {
        let mut cfg = SystemConfig::touchdrop_scenario(2, bursty());
        cfg.tenants[1].packet_len = MIN_FRAME_BYTES - 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("'workload1': packet_len 63"), "{err}");
        for rate_gbps in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut cfg = SystemConfig::touchdrop_scenario(2, bursty());
            cfg.tenants[0].traffic = TrafficPattern::Poisson { rate_gbps, seed: 1 };
            let err = cfg.validate().unwrap_err();
            assert!(
                err.contains("'workload0': rate_gbps must be a positive finite rate"),
                "{err}"
            );
        }
        // A multi-core tenant is checked once, under its own name.
        let mut cfg = SystemConfig::touchdrop_scenario(2, bursty());
        cfg.tenants = vec![tenant("a", vec![0, 1], 5000)];
        assert!(cfg.validate().is_ok());
        cfg.tenants[0].traffic = TrafficPattern::Steady { rate_gbps: 0.0 };
        let err = cfg.validate().unwrap_err();
        assert!(
            err.contains("'a': rate_gbps must be a positive finite rate"),
            "{err}"
        );
    }

    #[test]
    fn tenant_violations_rejected() {
        let base = SystemConfig::touchdrop_scenario(4, bursty());
        let reject = |tenants: Vec<TenantSpec>, why: &str| {
            let mut cfg = base.clone();
            cfg.tenants = tenants;
            assert!(cfg.validate().is_err(), "{why}");
        };
        reject(vec![tenant("", vec![0], 5000)], "empty name");
        reject(
            vec![tenant("a", vec![0], 5000), tenant("a", vec![1], 6000)],
            "duplicate name",
        );
        reject(vec![tenant("a", vec![], 5000)], "no cores");
        reject(
            vec![tenant("a", vec![0, 1], 5000), tenant("b", vec![1], 6000)],
            "core owned twice",
        );
        let mut zero_slots = tenant("a", vec![0], 5000);
        zero_slots.pool = Some(PoolSpec::Recycle { slots: Some(0) });
        reject(vec![zero_slots], "zero-slot recycle pool");
        reject(
            vec![tenant("a", vec![0], 5000), tenant("b", vec![1], 5003)],
            "overlapping ports",
        );
        let mut zero = tenant("a", vec![0], 5000);
        zero.flows = 0;
        reject(vec![zero], "zero flows");
        let mut unordered = tenant("a", vec![0], 5000);
        unordered.replay = Some(vec![
            Arrival {
                at: SimTime::from_us(2),
                packet: idio_net::packet::Packet::new(
                    0,
                    128,
                    idio_net::packet::FiveTuple::udp(1, 2, 3, 4),
                    Dscp::BEST_EFFORT,
                ),
            },
            Arrival {
                at: SimTime::from_us(1),
                packet: idio_net::packet::Packet::new(
                    1,
                    128,
                    idio_net::packet::FiveTuple::udp(1, 2, 3, 4),
                    Dscp::BEST_EFFORT,
                ),
            },
        ]);
        reject(vec![unordered], "unordered replay");
    }

    #[test]
    fn value_errors_name_their_key_and_tenant() {
        let mut churn = tenant("a", vec![0], 5000);
        churn.churn = Some(Duration::ZERO);
        let h = HierarchyConfig::paper_default(1);
        assert_eq!(churn.check(&h).unwrap_err().key, "churn");
        // Replay tenants keep the flow, frame and rate rules.
        let mut cfg = SystemConfig::touchdrop_scenario(2, bursty());
        cfg.tenants[1].replay = Some(Vec::new());
        cfg.tenants[1].flows = 0;
        let flows = FieldError::new("flows", "flows must be positive");
        assert_eq!(cfg.check_values(), Err((Some(1), flows)));
        let err = cfg.validate().unwrap_err();
        assert_eq!(err, "tenant 'workload1': flows must be positive");
        // System-wide fields carry no tenant index.
        let mut cfg = SystemConfig::touchdrop_scenario(1, bursty());
        cfg.atr_lifetime = Some(Duration::ZERO);
        assert_eq!(cfg.check_values().unwrap_err().0, None);
        assert_eq!(cfg.validate().unwrap_err(), "atr_lifetime must be positive");
        cfg.atr_lifetime = None;
        cfg.duration = SimTime::ZERO;
        let zero = FieldError::new("duration", "duration must be positive");
        assert_eq!(cfg.check_values(), Err((None, zero)));
    }
}
