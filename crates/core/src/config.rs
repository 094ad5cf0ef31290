//! Full-system configuration (Table I defaults plus workload wiring).

use std::borrow::Cow;

use idio_cache::addr::CoreId;
use idio_cache::config::{CacheGeometry, HierarchyConfig};
use idio_cache::hierarchy::InvalidateScope;
use idio_engine::telemetry::TraceFilter;
use idio_engine::time::{Duration, SimTime};
use idio_mem::DramConfig;
use idio_net::gen::{Arrival, TrafficPattern};
use idio_net::packet::{Dscp, MIN_FRAME_BYTES};
use idio_nic::classifier::ClassifierConfig;
use idio_nic::dma::DmaConfig;
use idio_pool::PoolSpec;
use idio_stack::nf::NfKind;
use idio_stack::pmd::PmdConfig;
use idio_stack::timing::TimingConfig;

use idio_cache::set::WayMask;

use crate::controller::IdioConfig;
use crate::policy::{CatMode, PolicySpec, PolicyTable, SteeringPolicy};
use crate::prefetcher::PrefetcherConfig;

/// How flows are steered to queues (Sec. II-C's two Flow Director
/// flavours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowSteering {
    /// Externally programmed perfect-match filters: every workload's flow
    /// is pinned to its queue up front (applications pinned to cores).
    #[default]
    Perfect,
    /// Application Targeting Routing: no filters up front; initial packets
    /// spread by RSS, and the NIC learns each flow's queue from the TX
    /// traffic it observes.
    Atr,
}

/// One network-function instance pinned to one core with its own NIC
/// queue and traffic stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// The core running the NF (also its queue's ADQ pin target).
    pub core: CoreId,
    /// Which Table II workload.
    pub kind: NfKind,
    /// Arrival pattern of this instance's flow, used only when the config
    /// has no [`SystemConfig::tenants`] (the workload then runs as a
    /// one-flow tenant on its own queue); otherwise the owning tenant's
    /// `traffic` drives the queue.
    pub traffic: TrafficPattern,
    /// Frame size in bytes (one-flow tenant only, like `traffic`).
    pub packet_len: u16,
    /// DSCP marking applied by the (simulated) sender (one-flow tenant
    /// only, like `traffic`).
    pub dscp: Dscp,
    /// The queue's mbuf pool. `None` is the legacy implicit status quo
    /// (per-slot buffers, no pool telemetry); `Some(PoolSpec::Dram)` is
    /// the same working set *with* LLC-budget spill accounting;
    /// `Some(PoolSpec::Recycle { .. })` is the RDCA cache-resident
    /// recycling pool. Resolved against the DDIO partition and ring
    /// geometry when the system is built.
    pub pool: Option<PoolSpec>,
}

/// One tenant of a multi-tenant run: a group of workload instances
/// (queues/cores) fed by a *single* aggregate traffic source whose flows
/// are spread across the group.
///
/// Tenants are the only way traffic enters a [`crate::system::System`]:
/// arrivals come from one [`idio_net::gen::MultiFlowGen`] per tenant (or a
/// replayed trace), dealt round-robin over `flows` distinct five-tuples,
/// and the per-workload [`WorkloadSpec::traffic`] of a tenant's queues is
/// not used. Under [`FlowSteering::Perfect`] flow `i` is pinned to the
/// tenant's `workloads[i % len]` queue via the flow director; under
/// [`FlowSteering::Atr`] flows spread by RSS until the NIC learns them.
/// A config without tenants gets one one-flow tenant per workload (see
/// [`SystemConfig::tenants`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Stable tenant name (report key; must be unique within a config).
    pub name: String,
    /// Indices into [`SystemConfig::workloads`] owned by this tenant.
    /// A workload belongs to at most one tenant.
    pub workloads: Vec<usize>,
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
    /// DSCP marking applied by the tenant's (simulated) senders.
    pub dscp: Dscp,
    /// Recorded arrivals replacing the analytic `traffic` pattern (see
    /// `idio_net::trace`). Flows found in the trace are pinned first-seen
    /// round-robin across the tenant's queues.
    pub replay: Option<Vec<Arrival>>,
    /// Steering-policy override for every queue this tenant owns. `None`
    /// inherits [`SystemConfig::policy`]; a per-queue entry in
    /// [`SystemConfig::queue_policies`] overrides this in turn.
    pub policy: Option<PolicySpec>,
}

impl TenantSpec {
    /// The cores this tenant's workloads run on, resolved against `cfg`.
    pub fn cores<'a>(&'a self, cfg: &'a SystemConfig) -> impl Iterator<Item = CoreId> + 'a {
        self.workloads.iter().map(|&wi| cfg.workloads[wi].core)
    }
}

/// The LLCAntagonist co-runner (Sec. VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AntagonistSpec {
    /// The core running the antagonist.
    pub core: CoreId,
    /// Its buffer size in bytes.
    pub buffer_bytes: u64,
    /// Compute cycles between dependent accesses.
    pub think_cycles: u64,
}

impl AntagonistSpec {
    /// The paper's setting: pinned core with an LLC-thrashing buffer.
    pub fn paper_default(core: CoreId) -> Self {
        AntagonistSpec {
            core,
            buffer_bytes: 3 << 20,
            think_cycles: 2,
        }
    }
}

/// Everything needed to build and run a [`crate::system::System`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Cache hierarchy (Table I; antagonist MLC override applied by the
    /// builder).
    pub hierarchy: HierarchyConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// Core timing model.
    pub timing: TimingConfig,
    /// Polling-mode driver parameters.
    pub pmd: PmdConfig,
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
    /// NIC-side classifier settings.
    pub classifier: ClassifierConfig,
    /// PCIe/DMA settings.
    pub dma: DmaConfig,
    /// The system-default placement policy — the bottom layer of the
    /// policy table. [`TenantSpec::policy`] and
    /// [`SystemConfig::queue_policies`] override it per tenant / per
    /// queue; [`SystemConfig::policy_table`] resolves the layering.
    pub policy: SteeringPolicy,
    /// Per-queue policy overrides (queue index = workload index), the top
    /// layer of the policy table: an entry here wins over both the owning
    /// tenant's [`TenantSpec::policy`] and the system default.
    pub queue_policies: std::collections::BTreeMap<usize, PolicySpec>,
    /// IDIO controller settings.
    pub idio: IdioConfig,
    /// MLC prefetcher settings.
    pub prefetcher: PrefetcherConfig,
    /// Scope of the self-invalidate instruction.
    pub invalidate_scope: InvalidateScope,
    /// NF instances (at most one per core).
    pub workloads: Vec<WorkloadSpec>,
    /// Optional antagonist co-runner.
    pub antagonist: Option<AntagonistSpec>,
    /// Tenant groups: per-tenant multi-flow (or replayed) sources, spread
    /// across each tenant's queues via the flow director / RSS. Empty =
    /// every workload `q` is a one-flow tenant on queue `q`, carrying its
    /// own `traffic`, `packet_len` and `dscp` on UDP port `5000 + q`. To
    /// replay a trace, give it a tenant with [`TenantSpec::replay`].
    pub tenants: Vec<TenantSpec>,
    /// Flow Director operating mode.
    pub steering: FlowSteering,
    /// Traffic generation horizon.
    pub duration: SimTime,
    /// Extra time allowed for queued packets to drain after traffic stops.
    pub drain_grace: Duration,
    /// Statistics sampling interval (10 µs in the paper's figures).
    pub sample_interval: Duration,
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
    /// the 3 MiB LLC, 1024-deep rings, 1514-byte packets.
    pub fn touchdrop_scenario(n: usize, traffic: TrafficPattern) -> Self {
        let workloads = (0..n as u16)
            .map(|i| WorkloadSpec {
                core: CoreId::new(i),
                kind: NfKind::TouchDrop,
                traffic,
                packet_len: 1514,
                dscp: Dscp::BEST_EFFORT,
                pool: None,
            })
            .collect();
        SystemConfig {
            hierarchy: HierarchyConfig::paper_default(n.max(1)),
            dram: DramConfig::default(),
            timing: TimingConfig::default(),
            pmd: PmdConfig::default(),
            ring_size: 1024,
            perfect_filter_entries: idio_nic::DEFAULT_FILTER_TABLE_ENTRIES,
            atr_lifetime: None,
            pool_idle_flush: None,
            classifier: ClassifierConfig::paper_default(),
            dma: DmaConfig::default(),
            policy: SteeringPolicy::Ddio,
            queue_policies: std::collections::BTreeMap::new(),
            idio: IdioConfig::paper_default(),
            prefetcher: PrefetcherConfig::default(),
            invalidate_scope: InvalidateScope::IncludeLlc,
            workloads,
            antagonist: None,
            tenants: Vec::new(),
            steering: FlowSteering::default(),
            duration: SimTime::from_ms(10),
            drain_grace: Duration::from_ms(5),
            sample_interval: Duration::from_us(10),
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

    /// Returns the config with a per-queue policy override (queue index =
    /// workload index).
    pub fn with_queue_policy(mut self, queue: usize, policy: impl Into<PolicySpec>) -> Self {
        self.queue_policies.insert(queue, policy.into());
        self
    }

    /// Resolves the layered policy configuration (system default →
    /// per-tenant override → per-queue override) into the dense
    /// [`PolicyTable`] the hot path indexes. A preset-only configuration
    /// with no overrides resolves to a single-domain table whose behavior
    /// is exactly the old global enum's.
    pub fn policy_table(&self) -> PolicyTable {
        let default = PolicySpec::Preset(self.policy);
        let mut per_queue = vec![default; self.workloads.len()];
        for t in &self.tenants {
            if let Some(p) = t.policy {
                for &wi in &t.workloads {
                    if let Some(slot) = per_queue.get_mut(wi) {
                        *slot = p;
                    }
                }
            }
        }
        for (&q, &p) in &self.queue_policies {
            if let Some(slot) = per_queue.get_mut(q) {
                *slot = p;
            }
        }
        PolicyTable::new(default, &per_queue)
    }

    /// Adds the antagonist on the next free core, shrinking that core's MLC
    /// to 256 KiB per Sec. VI.
    pub fn with_antagonist(mut self) -> Self {
        let core = CoreId::new(self.num_cores() as u16);
        self.antagonist = Some(AntagonistSpec::paper_default(core));
        self
    }

    /// Number of cores the configuration requires.
    pub fn num_cores(&self) -> usize {
        let wl_max = self
            .workloads
            .iter()
            .map(|w| w.core.index() + 1)
            .max()
            .unwrap_or(0);
        let ant = self.antagonist.map(|a| a.core.index() + 1).unwrap_or(0);
        wl_max.max(ant).max(1)
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
            h.mlc_overrides[a.core.index()] = Some(CacheGeometry::new(
                256 << 10,
                h.mlc.ways,
                h.mlc.latency_cycles,
            ));
        }
        h
    }

    /// Validates cross-cutting constraints.
    ///
    /// # Errors
    ///
    /// Returns a message when cores are double-booked, a workload core
    /// collides with the antagonist, or a nested config is invalid.
    pub fn validate(&self) -> Result<(), String> {
        if self.workloads.is_empty() && self.antagonist.is_none() {
            return Err("no workload configured".into());
        }
        let mut seen = std::collections::HashSet::new();
        for w in &self.workloads {
            if !seen.insert(w.core) {
                return Err(format!("core {} has two workloads", w.core));
            }
        }
        if let Some(a) = self.antagonist {
            if seen.contains(&a.core) {
                return Err(format!("antagonist collides with an NF on {}", a.core));
            }
        }
        if self.ring_size == 0 {
            return Err("ring size must be positive".into());
        }
        for (i, w) in self.workloads.iter().enumerate() {
            if let Some(PoolSpec::Recycle { slots: Some(0) }) = w.pool {
                return Err(format!("workload {i}: recycle pool with zero slots"));
            }
        }
        for &q in self.queue_policies.keys() {
            if q >= self.workloads.len() {
                return Err(format!("policy override for nonexistent queue {q}"));
            }
        }
        self.validate_tenants()?;
        // The scenario-file rules for every generated source (a replay
        // brings its own arrivals): an Ethernet-sized frame and a
        // positive, finite rate.
        for t in self
            .effective_tenants()
            .iter()
            .filter(|t| t.replay.is_none())
        {
            if t.packet_len < MIN_FRAME_BYTES {
                return Err(format!(
                    "tenant '{}': packet_len {} below the Ethernet minimum ({MIN_FRAME_BYTES})",
                    t.name, t.packet_len
                ));
            }
            if let TrafficPattern::Steady { rate_gbps }
            | TrafficPattern::Poisson { rate_gbps, .. } = t.traffic
            {
                if !(rate_gbps.is_finite() && rate_gbps > 0.0) {
                    return Err(format!(
                        "tenant '{}': rate must be positive and finite, got {rate_gbps}",
                        t.name
                    ));
                }
            }
        }
        let h = self.effective_hierarchy();
        h.validate()?;
        // Static CAT way masks must fit the LLC and stay clear of the
        // DDIO partition (which remains reserved for inbound DMA).
        for (d, caps) in self.policy_table().domain_caps().iter().enumerate() {
            if let CatMode::Static(m) = caps.cat {
                if m.is_empty() {
                    return Err(format!("policy domain {d}: CAT way mask selects no way"));
                }
                if m.intersect(WayMask::all(h.llc.ways)) != m {
                    return Err(format!(
                        "policy domain {d}: CAT way mask {m} wider than the {}-way LLC",
                        h.llc.ways
                    ));
                }
                if !m.intersect(h.ddio_mask()).is_empty() {
                    return Err(format!(
                        "policy domain {d}: CAT way mask {m} overlaps the {} DDIO ways",
                        h.ddio_ways
                    ));
                }
            }
        }
        self.dram.validate()?;
        self.dma.validate()?;
        self.pmd.validate()?;
        if self.sample_interval == Duration::ZERO {
            return Err("sample interval must be positive".into());
        }
        Ok(())
    }

    /// The tenants the system wires: [`SystemConfig::tenants`], or — when
    /// there are none — one one-flow tenant per workload `q`, on queue `q`
    /// at UDP port `5000 + q` with the workload's own traffic, frame
    /// length and DSCP.
    pub(crate) fn effective_tenants(&self) -> Cow<'_, [TenantSpec]> {
        if !self.tenants.is_empty() {
            return Cow::Borrowed(&self.tenants);
        }
        let one_flow = |(q, w): (usize, &WorkloadSpec)| TenantSpec {
            name: format!("workload{q}"),
            workloads: vec![q],
            flows: 1,
            base_port: 5000 + q as u16,
            churn: None,
            train: 1,
            traffic: w.traffic,
            packet_len: w.packet_len,
            dscp: w.dscp,
            replay: None,
            policy: None,
        };
        Cow::Owned(self.workloads.iter().enumerate().map(one_flow).collect())
    }

    /// Whether tenant `t` uses the wide (source-address-spilling) flow
    /// derivation: churn always does; so does a flow count that exceeds
    /// the tenant's port range. Everything else keeps the narrow
    /// port-offset derivation byte-for-byte.
    pub(crate) fn tenant_is_wide(t: &TenantSpec) -> bool {
        t.churn.is_some() || u32::from(t.base_port) + t.flows > 65536
    }

    /// Tenant-mode invariants: every tenant owns at least one existing
    /// workload, no workload has two tenants, names are unique, flow
    /// counts fit the streaming `FlowSet`, and *narrow* tenants' synthetic
    /// flow port ranges do not collide (colliding ranges would make two
    /// tenants share a five-tuple and merge at the flow director). Wide
    /// tenants embed their tenant index in the source address and cannot
    /// alias anything.
    fn validate_tenants(&self) -> Result<(), String> {
        let mut names = std::collections::HashSet::new();
        let mut owned = std::collections::HashSet::new();
        let mut port_ranges: Vec<(String, u32, u32)> = Vec::new();
        for (ti, t) in self.tenants.iter().enumerate() {
            if t.name.is_empty() {
                return Err("tenant with empty name".into());
            }
            if !names.insert(t.name.as_str()) {
                return Err(format!("duplicate tenant name '{}'", t.name));
            }
            if t.workloads.is_empty() {
                return Err(format!("tenant '{}' owns no workloads", t.name));
            }
            for &wi in &t.workloads {
                if wi >= self.workloads.len() {
                    return Err(format!("tenant '{}' references workload {wi}", t.name));
                }
                if !owned.insert(wi) {
                    return Err(format!("workload {wi} belongs to two tenants"));
                }
            }
            if t.train == 0 {
                return Err(format!("tenant '{}' has a zero-packet train", t.name));
            }
            if t.churn == Some(Duration::ZERO) {
                return Err(format!("tenant '{}' has a zero flow lifetime", t.name));
            }
            if let Some(arrivals) = &t.replay {
                if arrivals.windows(2).any(|w| w[0].at > w[1].at) {
                    return Err(format!("tenant '{}' replay is not time-ordered", t.name));
                }
            } else {
                if t.flows == 0 {
                    return Err(format!("tenant '{}' has zero flows", t.name));
                }
                if t.flows > idio_net::MAX_FLOW_SET_FLOWS {
                    return Err(format!(
                        "tenant '{}' has {} flows; the streaming flow set caps at {}",
                        t.name,
                        t.flows,
                        idio_net::MAX_FLOW_SET_FLOWS
                    ));
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
        assert_eq!(cfg.workloads.len(), 2);
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
        cfg.workloads[1].core = CoreId::new(0);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn antagonist_collision_rejected() {
        let mut cfg = SystemConfig::touchdrop_scenario(2, bursty()).with_antagonist();
        cfg.antagonist = Some(AntagonistSpec::paper_default(CoreId::new(1)));
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn policy_builder() {
        let cfg = SystemConfig::touchdrop_scenario(1, bursty()).with_policy(SteeringPolicy::Idio);
        assert_eq!(cfg.policy, SteeringPolicy::Idio);
    }

    fn tenant(name: &str, workloads: Vec<usize>, base_port: u16) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            workloads,
            flows: 4,
            base_port,
            churn: None,
            train: 1,
            traffic: TrafficPattern::Steady { rate_gbps: 10.0 },
            packet_len: 1514,
            dscp: Dscp::BEST_EFFORT,
            replay: None,
            policy: None,
        }
    }

    #[test]
    fn tenant_mode_validates() {
        let mut cfg = SystemConfig::touchdrop_scenario(4, bursty());
        cfg.tenants = vec![tenant("a", vec![0, 1], 5000), tenant("b", vec![2, 3], 6000)];
        assert!(cfg.validate().is_ok());
        assert_eq!(
            cfg.tenants[1].cores(&cfg).collect::<Vec<_>>(),
            vec![CoreId::new(2), CoreId::new(3)]
        );
    }

    #[test]
    fn policy_layers_resolve_queue_over_tenant_over_default() {
        let mut cfg =
            SystemConfig::touchdrop_scenario(4, bursty()).with_policy(SteeringPolicy::Idio);
        cfg.tenants = vec![tenant("a", vec![0, 1], 5000), tenant("b", vec![2, 3], 6000)];
        cfg.tenants[1].policy = Some(PolicySpec::Preset(SteeringPolicy::Ddio));
        cfg = cfg.with_queue_policy(3, SteeringPolicy::IatDynamic);
        assert!(cfg.validate().is_ok());
        let t = cfg.policy_table();
        assert_eq!(t.num_domains(), 3);
        // Queues 0/1 inherit the default, 2 takes the tenant override, 3
        // the queue override on top of it.
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
        let cat = |cat: CatMode| {
            PolicySpec::Custom(PolicyCaps {
                cat,
                ..SteeringPolicy::Idio.caps()
            })
        };
        // A clean non-DDIO mask validates (paper LLC: 12 ways, 2 DDIO).
        let ok = SystemConfig::touchdrop_scenario(2, bursty())
            .with_queue_policy(0, cat(CatMode::Static(WayMask::range(4, 8))));
        assert!(ok.validate().is_ok());
        // Auto needs no mask to validate.
        let auto =
            SystemConfig::touchdrop_scenario(2, bursty()).with_queue_policy(0, cat(CatMode::Auto));
        assert!(auto.validate().is_ok());
        let wide = SystemConfig::touchdrop_scenario(2, bursty())
            .with_queue_policy(0, cat(CatMode::Static(WayMask::range(10, 14))));
        assert!(wide.validate().unwrap_err().contains("wider"));
        let overlap = SystemConfig::touchdrop_scenario(2, bursty())
            .with_queue_policy(0, cat(CatMode::Static(WayMask::range(1, 4))));
        assert!(overlap.validate().unwrap_err().contains("overlaps"));
        let empty = SystemConfig::touchdrop_scenario(2, bursty())
            .with_queue_policy(0, cat(CatMode::Static(WayMask::EMPTY)));
        assert!(empty.validate().unwrap_err().contains("no way"));
    }

    #[test]
    fn queue_policy_for_unknown_queue_rejected() {
        let cfg = SystemConfig::touchdrop_scenario(2, bursty())
            .with_queue_policy(7, SteeringPolicy::Ddio);
        assert!(cfg.validate().unwrap_err().contains("nonexistent queue 7"));
    }

    #[test]
    fn frames_and_rates_checked_for_workloads_and_tenants() {
        let mut cfg = SystemConfig::touchdrop_scenario(2, bursty());
        cfg.workloads[1].packet_len = MIN_FRAME_BYTES - 1;
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("'workload1': packet_len 63"), "{err}");
        for rate_gbps in [0.0, -5.0, f64::NAN, f64::INFINITY] {
            let mut cfg = SystemConfig::touchdrop_scenario(2, bursty());
            cfg.workloads[0].traffic = TrafficPattern::Poisson { rate_gbps, seed: 1 };
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("'workload0': rate must be positive"), "{err}");
        }
        // With explicit tenants the tenants' traffic is the one checked.
        let mut cfg = SystemConfig::touchdrop_scenario(2, bursty());
        cfg.workloads[0].traffic = TrafficPattern::Steady { rate_gbps: 0.0 };
        cfg.tenants = vec![tenant("a", vec![0, 1], 5000)];
        assert!(cfg.validate().is_ok());
        cfg.tenants[0].traffic = TrafficPattern::Steady { rate_gbps: 0.0 };
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("'a': rate must be positive"), "{err}");
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
        reject(vec![tenant("a", vec![], 5000)], "no workloads");
        reject(vec![tenant("a", vec![9], 5000)], "bad workload index");
        reject(
            vec![tenant("a", vec![0, 1], 5000), tenant("b", vec![1], 6000)],
            "workload owned twice",
        );
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
}
