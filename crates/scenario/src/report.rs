//! Per-tenant scenario reports and their deterministic JSON rendering.
//!
//! Everything in a [`ScenarioReport`] is a pure function of the scenario
//! and the sweep's root seed — no wall-clock, no thread identity — so the
//! rendering is byte-identical at any worker count and can be golden-
//! tested exactly like the paper figures.
//!
//! For datacenter-scale scenarios (hundreds of tenants, one solo cell
//! each) the report is assembled *streamingly* by a
//! [`ScenarioReportBuilder`], which holds the report itself: every
//! finished cell is reduced to a small [`CellFold`] on the worker that
//! ran it — dropping the full [`RunReport`] with its histograms
//! immediately. The mixed cell's fold is the run totals plus every
//! tenant's finished [`TenantReport`]; a solo cell's is one latency
//! summary. Peak builder memory is O(tenants), not O(cells × histograms),
//! and because each fold is a pure function of its own cell, the
//! assembled JSON stays byte-identical at any `--jobs`.

use idio_core::report::RunReport;
use idio_engine::json;
use idio_engine::telemetry::Histogram;

use crate::spec::{Scenario, SloSpec};

/// Packet-latency summary of one tenant in one run (nanoseconds), taken
/// from the merged `core{i}.pkt_latency_ns` histograms of the tenant's
/// cores. Percentiles are the log2-bucket upper-bound estimates of
/// [`idio_engine::telemetry::Histogram::percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Completed packets the summary covers.
    pub count: u64,
    /// Mean latency.
    pub mean_ns: f64,
    /// Median (bucket upper bound).
    pub p50_ns: u64,
    /// 90th percentile (bucket upper bound).
    pub p90_ns: u64,
    /// 99th percentile (bucket upper bound).
    pub p99_ns: u64,
    /// Worst observed latency (exact).
    pub max_ns: u64,
}

impl LatencyStats {
    fn to_json(self) -> String {
        format!(
            "{{\"count\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            self.count,
            json::float(self.mean_ns),
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.max_ns
        )
    }
}

/// Where a tenant's inbound DMA lines were placed (the steering mix).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SteerMix {
    /// Lines write-allocated into the shared LLC (DDIO path).
    pub llc: u64,
    /// Lines steered into the tenant cores' MLCs.
    pub mlc: u64,
    /// Lines sent directly to DRAM.
    pub dram: u64,
}

impl SteerMix {
    fn to_json(self) -> String {
        format!(
            "{{\"llc\": {}, \"mlc\": {}, \"dram\": {}}}",
            self.llc, self.mlc, self.dram
        )
    }
}

/// Solo-vs-mixed latency comparison for one tenant: what sharing the
/// machine with the other tenants cost it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interference {
    /// Mixed p50 minus solo p50 (negative = faster in the mix).
    pub p50_delta_ns: i64,
    /// Mixed p99 minus solo p99.
    pub p99_delta_ns: i64,
    /// Mixed p99 over solo p99 (1.0 = no interference); `NaN` renders as
    /// `null` when the solo p99 was zero.
    pub p99_ratio: f64,
}

impl Interference {
    fn to_json(self) -> String {
        format!(
            "{{\"p50_delta_ns\": {}, \"p99_delta_ns\": {}, \"p99_ratio\": {}}}",
            self.p50_delta_ns,
            self.p99_delta_ns,
            json::float(self.p99_ratio)
        )
    }
}

/// Flow-director steering mix of one tenant's queues (mixed run), summed
/// from the engine's `fd.q{q}.*` counters. Present only when the run
/// exported flow-director metrics (some tenant's flows outgrew its
/// perfect-filter budget), so filter-resident scenarios render exactly
/// as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FdMix {
    /// Packets steered by a pinned perfect-match filter.
    pub perfect: u64,
    /// Packets steered by a live ATR filter-table entry for their flow.
    pub atr: u64,
    /// Packets steered by a colliding filter-table entry (some *other*
    /// flow's queue).
    pub collision: u64,
    /// Packets that fell through to the RSS hash.
    pub rss: u64,
    /// Packets that landed on a queue other than their flow's home —
    /// their payloads warm the wrong core's MLC.
    pub mis_steered: u64,
}

impl FdMix {
    fn to_json(self) -> String {
        format!(
            "{{\"perfect\": {}, \"atr\": {}, \"collision\": {}, \"rss\": {}, \"mis_steered\": {}}}",
            self.perfect, self.atr, self.collision, self.rss, self.mis_steered
        )
    }
}

/// Buffer-pool aggregates of one tenant's queues (mixed run), summed
/// from the engine's `pool.q{q}.*` counters. Present only for tenants
/// that declared an explicit pool, so pool-free reports render exactly
/// as before.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolAgg {
    /// Buffers returned to the recycle free list (always 0 for `dram`
    /// pools, which never re-use buffer identity).
    pub recycled: u64,
    /// Allocation attempts that found the recycle pool empty — each one
    /// is a dropped packet.
    pub starved: u64,
    /// Allocations made past the cache-resident budget — the latent-bloat
    /// measure of an unbounded `dram` pool.
    pub spilled: u64,
}

impl PoolAgg {
    fn to_json(self) -> String {
        format!(
            "{{\"recycled\": {}, \"starved\": {}, \"spilled\": {}}}",
            self.recycled, self.starved, self.spilled
        )
    }
}

/// The evaluation of one tenant's [`crate::spec::SloSpec`] against the
/// mixed run: the bounds, what was actually measured, and the violations
/// (empty = the tenant met its objectives).
#[derive(Debug, Clone, PartialEq)]
pub struct SloOutcome {
    /// The p99 bound, if one was set.
    pub max_p99_ns: Option<u64>,
    /// The drop-rate bound, if one was set.
    pub max_drop_rate: Option<f64>,
    /// The tenant's measured mixed-run p99 (`None` if nothing completed).
    pub actual_p99_ns: Option<u64>,
    /// The tenant's measured mixed-run drop rate.
    pub actual_drop_rate: f64,
    /// Human-readable description of each violated bound.
    pub violations: Vec<String>,
}

impl SloOutcome {
    /// Whether the tenant met every bound.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }

    fn to_json(&self) -> String {
        let opt_u64 = |v: Option<u64>| v.map_or("null".into(), |x| x.to_string());
        let violations: Vec<String> = self.violations.iter().map(|v| json::string(v)).collect();
        format!(
            "{{\"pass\": {}, \"max_p99_ns\": {}, \"max_drop_rate\": {}, \"actual_p99_ns\": {}, \"actual_drop_rate\": {}, \"violations\": [{}]}}",
            self.pass(),
            opt_u64(self.max_p99_ns),
            self.max_drop_rate.map_or("null".into(), json::float),
            opt_u64(self.actual_p99_ns),
            json::float(self.actual_drop_rate),
            violations.join(", ")
        )
    }
}

/// Everything the scenario runner measured about one tenant.
#[derive(Debug, Clone, Default)]
pub struct TenantReport {
    /// Tenant name.
    pub name: String,
    /// Display name of the tenant's network function.
    pub nf: &'static str,
    /// The cores the tenant owns.
    pub cores: Vec<u16>,
    /// Packets the NIC delivered into the tenant's rings (mixed run).
    pub rx_packets: u64,
    /// Packets dropped at the tenant's full rings (mixed run).
    pub rx_drops: u64,
    /// `rx_drops / (rx_packets + rx_drops)`, 0 when idle.
    pub drop_rate: f64,
    /// Packets the tenant's NFs fully processed (mixed run).
    pub completed: u64,
    /// Delivered goodput over the traffic horizon, in Gbit/s.
    pub throughput_gbps: f64,
    /// MLC writebacks of the tenant's cores (mixed run) — the quantity
    /// IDIO's FSM throttles on.
    pub mlc_wb: u64,
    /// Steering mix of DMA lines destined to the tenant's cores.
    pub steer: SteerMix,
    /// Latency summary in the mixed run (`None` if nothing completed).
    pub latency: Option<LatencyStats>,
    /// Latency summary of the tenant's solo run.
    pub solo_latency: Option<LatencyStats>,
    /// Solo-vs-mixed comparison (`None` unless both runs completed
    /// packets).
    pub interference: Option<Interference>,
    /// Label of the tenant's steering-policy override, when it has one
    /// (`None` = inherits the scenario policy; omitted from the JSON so
    /// override-free reports render exactly as before).
    pub policy: Option<String>,
    /// SLO evaluation, when the tenant declared bounds (omitted from the
    /// JSON otherwise).
    pub slo: Option<SloOutcome>,
    /// Buffer-pool aggregates, when the tenant declared an explicit pool
    /// (omitted from the JSON otherwise).
    pub pool: Option<PoolAgg>,
    /// Flow-director steering mix, when the run exported `fd.*` metrics
    /// (omitted from the JSON otherwise).
    pub fd: Option<FdMix>,
}

impl TenantReport {
    fn to_json(&self, indent: &str) -> String {
        let pad = format!("{indent}  ");
        let cores: Vec<String> = self.cores.iter().map(|c| c.to_string()).collect();
        let opt = |v: &Option<String>| v.clone().unwrap_or_else(|| "null".into());
        let latency = opt(&self.latency.map(LatencyStats::to_json));
        let solo = opt(&self.solo_latency.map(LatencyStats::to_json));
        let interference = opt(&self.interference.map(Interference::to_json));
        // The policy and slo keys are only rendered when present, so
        // reports of scenarios that use neither are byte-identical to the
        // pre-policy-engine format (and its blessed goldens).
        let mut extra = String::new();
        if let Some(p) = &self.policy {
            extra.push_str(&format!(",\n{pad}\"policy\": {}", json::string(p)));
        }
        if let Some(s) = &self.slo {
            extra.push_str(&format!(",\n{pad}\"slo\": {}", s.to_json()));
        }
        if let Some(p) = &self.pool {
            extra.push_str(&format!(",\n{pad}\"pool\": {}", p.to_json()));
        }
        if let Some(f) = &self.fd {
            extra.push_str(&format!(",\n{pad}\"fd\": {}", f.to_json()));
        }
        format!(
            "{{\n\
             {pad}\"name\": {},\n\
             {pad}\"nf\": {},\n\
             {pad}\"cores\": [{}],\n\
             {pad}\"rx_packets\": {},\n\
             {pad}\"rx_drops\": {},\n\
             {pad}\"drop_rate\": {},\n\
             {pad}\"completed\": {},\n\
             {pad}\"throughput_gbps\": {},\n\
             {pad}\"mlc_wb\": {},\n\
             {pad}\"steer\": {},\n\
             {pad}\"latency\": {latency},\n\
             {pad}\"solo_latency\": {solo},\n\
             {pad}\"interference\": {interference}{extra}\n\
             {indent}}}",
            json::string(&self.name),
            json::string(self.nf),
            cores.join(", "),
            self.rx_packets,
            self.rx_drops,
            json::float(self.drop_rate),
            self.completed,
            json::float(self.throughput_gbps),
            self.mlc_wb,
            self.steer.to_json(),
        )
    }
}

/// The complete result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Label of the steering policy the run used.
    pub policy: &'static str,
    /// Root seed every cell seed was derived from.
    pub root_seed: u64,
    /// Traffic horizon in nanoseconds.
    pub duration_ns: u64,
    /// Mixed-run aggregates: packets delivered by the NIC.
    pub rx_packets: u64,
    /// Mixed-run aggregates: packets dropped at full rings.
    pub rx_drops: u64,
    /// Mixed-run aggregates: packets fully processed.
    pub completed: u64,
    /// Per-tenant reports, in declaration order.
    pub tenants: Vec<TenantReport>,
}

impl ScenarioReport {
    /// Every SLO violation across all tenants, prefixed with the tenant
    /// name — empty when every bounded tenant met its objectives. The
    /// `scenario` CLI exits non-zero when this is non-empty.
    pub fn slo_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in &self.tenants {
            if let Some(slo) = &t.slo {
                for v in &slo.violations {
                    out.push(format!("tenant '{}': {v}", t.name));
                }
            }
        }
        out
    }

    /// Renders the report as deterministic, human-reviewable JSON (stable
    /// key order, no trailing newline).
    pub fn to_json(&self) -> String {
        let tenants: Vec<String> = self.tenants.iter().map(|t| t.to_json("    ")).collect();
        format!(
            "{{\n\
             \x20 \"scenario\": {},\n\
             \x20 \"description\": {},\n\
             \x20 \"policy\": {},\n\
             \x20 \"root_seed\": {},\n\
             \x20 \"duration_ns\": {},\n\
             \x20 \"totals\": {{\"rx_packets\": {}, \"rx_drops\": {}, \"completed\": {}}},\n\
             \x20 \"tenants\": [\n    {}\n  ]\n\
             }}",
            json::string(&self.scenario),
            json::string(&self.description),
            json::string(self.policy),
            self.root_seed,
            self.duration_ns,
            self.rx_packets,
            self.rx_drops,
            self.completed,
            tenants.join(",\n    "),
        )
    }
}

/// Merges the `core{i}.pkt_latency_ns` histograms of `cores` out of a
/// run's final metrics snapshot.
fn merged_latency(report: &RunReport, cores: &[u16]) -> Option<LatencyStats> {
    let mut h = Histogram::new();
    for &c in cores {
        if let Some(hc) = report.metrics.histogram(&format!("core{c}.pkt_latency_ns")) {
            h.merge(hc);
        }
    }
    if h.count() == 0 {
        return None;
    }
    Some(LatencyStats {
        count: h.count(),
        mean_ns: h.mean(),
        p50_ns: h.percentile(50.0).expect("non-empty"),
        p90_ns: h.percentile(90.0).expect("non-empty"),
        p99_ns: h.percentile(99.0).expect("non-empty"),
        max_ns: h.max(),
    })
}

/// Sums the counters `{prefix}{id}.{key}` over `ids` (absent counters
/// read 0).
fn sum_counters(
    report: &RunReport,
    prefix: &str,
    ids: impl IntoIterator<Item = impl std::fmt::Display>,
    key: &str,
) -> u64 {
    (ids.into_iter())
        .map(|id| report.metrics.counter(&format!("{prefix}{id}.{key}")))
        .sum()
}

/// One scenario cell reduced to the fixed-size aggregate the report needs
/// — produced on the sweep worker by [`ScenarioReportBuilder::reduce`] so
/// the cell's full [`RunReport`] can be dropped immediately.
#[derive(Debug, Clone)]
pub enum CellFold {
    /// The mixed cell (always cell 0 of a scenario sweep): the run totals
    /// and every tenant's finished mixed-run record.
    Mixed {
        /// Packets the NIC delivered, across all tenants.
        rx_packets: u64,
        /// Packets dropped at full rings, across all tenants.
        rx_drops: u64,
        /// Packets fully processed, across all tenants.
        completed: u64,
        /// Per-tenant records in scenario declaration order, without the
        /// solo latency, interference and SLO outcome.
        tenants: Vec<TenantReport>,
    },
    /// The solo cell of tenant `tenant`: only its merged latency summary
    /// is kept.
    Solo {
        /// Index of the tenant in scenario declaration order.
        tenant: usize,
        /// The tenant's solo latency summary (`None` if nothing
        /// completed).
        latency: Option<LatencyStats>,
    },
}

/// What the builder reads about one tenant but the report does not print.
#[derive(Debug, Clone)]
struct TenantInputs {
    /// The tenant's queue indices in the mixed run (queue `q` is the
    /// `q`-th core in the order of the tenants' `cores` lists).
    queues: std::ops::Range<usize>,
    packet_len: u16,
    /// The SLO bounds, when at least one is set.
    slo: Option<SloSpec>,
    /// Whether the tenant declared an explicit buffer pool — gates the
    /// `pool.q{q}.*` counter sums so pool-free tenants render unchanged.
    has_pool: bool,
    solo_folded: bool,
}

/// Streaming assembly of a [`ScenarioReport`]: cells are reduced to
/// [`CellFold`]s on the workers ([`reduce`](Self::reduce), `&self`, safe
/// to call concurrently) and written into the report the builder holds
/// ([`fold`](Self::fold)); [`finish`](Self::finish) adds interference
/// and SLO outcomes once every cell has been folded.
///
/// The builder never stores a [`RunReport`]: its memory is O(tenants)
/// regardless of how many packets, flows or histogram buckets the cells
/// produced. Fold order does not matter — every fold writes its own
/// fields — which is what keeps the report byte-identical at any worker
/// count.
#[derive(Debug, Clone)]
pub struct ScenarioReportBuilder {
    report: ScenarioReport,
    tenants: Vec<TenantInputs>,
    mixed_folded: bool,
}

impl ScenarioReportBuilder {
    /// Prepares the builder for `scenario`: the report header and one
    /// record per tenant with its identity (name, nf, cores, policy
    /// label) filled and every measurement empty.
    pub fn new(scenario: &Scenario, root_seed: u64) -> Self {
        let mut next_queue = 0usize;
        let mut tenants = Vec::with_capacity(scenario.tenants.len());
        let mut records = Vec::with_capacity(scenario.tenants.len());
        for t in &scenario.tenants {
            let queues = next_queue..next_queue + t.cores.len();
            next_queue = queues.end;
            tenants.push(TenantInputs {
                queues,
                packet_len: t.packet_len,
                slo: t.slo.filter(SloSpec::is_bounded),
                has_pool: t.pool.is_some(),
                solo_folded: false,
            });
            records.push(TenantReport {
                name: t.name.clone(),
                nf: t.nf.name(),
                cores: t.cores.clone(),
                policy: t.policy.map(|p| p.label()),
                ..TenantReport::default()
            });
        }
        ScenarioReportBuilder {
            report: ScenarioReport {
                scenario: scenario.name.clone(),
                description: scenario.description.clone(),
                policy: scenario.policy.label(),
                root_seed,
                duration_ns: scenario.duration.as_ns(),
                rx_packets: 0,
                rx_drops: 0,
                completed: 0,
                tenants: records,
            },
            tenants,
            mixed_folded: false,
        }
    }

    /// Number of cells the scenario sweep produces (mixed + one solo per
    /// tenant) — the indices [`reduce`](Self::reduce) accepts.
    pub fn num_cells(&self) -> usize {
        self.tenants.len() + 1
    }

    /// Reduces cell `cell` (0 = mixed, `i + 1` = tenant `i`'s solo run) to
    /// its fold. Takes `&self` so sweep workers can reduce concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= self.num_cells()`.
    pub fn reduce(&self, cell: usize, report: &RunReport) -> CellFold {
        assert!(cell < self.num_cells(), "cell {cell} out of range");
        let records = &self.report.tenants;
        if cell > 0 {
            let tenant = cell - 1;
            let latency = merged_latency(report, &records[tenant].cores);
            return CellFold::Solo { tenant, latency };
        }
        let has_fd = report.metrics.counters().any(|(k, _)| k.starts_with("fd."));
        let duration_s = self.report.duration_ns as f64 * 1e-9;
        let tenants = (records.iter().zip(&self.tenants))
            .map(|(template, t)| {
                let cores = &template.cores;
                let queue_sum = |prefix, key| sum_counters(report, prefix, t.queues.clone(), key);
                let rx_packets = queue_sum("queue", "rx.packets");
                let rx_drops = queue_sum("queue", "rx.drops");
                let completed = sum_counters(report, "core", cores, "packets.completed");
                // An idle tenant (nothing offered) divides 0 by 1.
                let offered = (rx_packets + rx_drops).max(1);
                TenantReport {
                    rx_packets,
                    rx_drops,
                    drop_rate: rx_drops as f64 / offered as f64,
                    completed,
                    throughput_gbps: completed as f64 * f64::from(t.packet_len) * 8.0
                        / duration_s
                        / 1e9,
                    mlc_wb: (cores.iter())
                        .map(|&c| report.hierarchy.core[c as usize].mlc_wb.get())
                        .sum(),
                    steer: SteerMix {
                        llc: sum_counters(report, "core", cores, "steer.llc"),
                        mlc: sum_counters(report, "core", cores, "steer.mlc"),
                        dram: sum_counters(report, "core", cores, "steer.dram"),
                    },
                    latency: merged_latency(report, cores),
                    pool: t.has_pool.then(|| PoolAgg {
                        recycled: queue_sum("pool.q", "recycled"),
                        starved: queue_sum("pool.q", "starved"),
                        spilled: queue_sum("pool.q", "spilled"),
                    }),
                    fd: has_fd.then(|| FdMix {
                        perfect: queue_sum("fd.q", "perfect"),
                        atr: queue_sum("fd.q", "atr"),
                        collision: queue_sum("fd.q", "collision"),
                        rss: queue_sum("fd.q", "rss"),
                        mis_steered: queue_sum("fd.q", "mis"),
                    }),
                    ..template.clone()
                }
            })
            .collect();
        CellFold::Mixed {
            rx_packets: report.totals.rx_packets,
            rx_drops: report.totals.rx_drops,
            completed: report.totals.completed_packets,
            tenants,
        }
    }

    /// Writes one fold into the report. Order-independent: every fold
    /// writes its own fields, and a mixed fold keeps the solo latencies
    /// folded before it.
    ///
    /// # Panics
    ///
    /// Panics if the cell was already folded or a solo fold names an
    /// out-of-range tenant.
    pub fn fold(&mut self, fold: CellFold) {
        match fold {
            CellFold::Mixed {
                rx_packets,
                rx_drops,
                completed,
                tenants,
            } => {
                assert!(!self.mixed_folded, "mixed cell folded twice");
                assert_eq!(tenants.len(), self.tenants.len());
                self.mixed_folded = true;
                self.report.rx_packets = rx_packets;
                self.report.rx_drops = rx_drops;
                self.report.completed = completed;
                for (record, mixed) in self.report.tenants.iter_mut().zip(tenants) {
                    *record = TenantReport {
                        solo_latency: record.solo_latency,
                        ..mixed
                    };
                }
            }
            CellFold::Solo { tenant, latency } => {
                let t = &mut self.tenants[tenant];
                assert!(!t.solo_folded, "solo cell of tenant {tenant} folded twice");
                t.solo_folded = true;
                self.report.tenants[tenant].solo_latency = latency;
            }
        }
    }

    /// Finishes the report: computes each tenant's interference and SLO
    /// outcome from its folded measurements.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first cell that was never folded.
    pub fn finish(mut self) -> Result<ScenarioReport, String> {
        let scenario = &self.report.scenario;
        if !self.mixed_folded {
            return Err(format!("scenario '{scenario}': mixed cell never folded"));
        }
        for (record, t) in self.report.tenants.iter_mut().zip(&self.tenants) {
            if !t.solo_folded {
                return Err(format!(
                    "scenario '{scenario}': solo cell of tenant '{}' never folded",
                    record.name
                ));
            }
            record.interference = match (record.latency, record.solo_latency) {
                (Some(m), Some(s)) => Some(Interference {
                    p50_delta_ns: m.p50_ns as i64 - s.p50_ns as i64,
                    p99_delta_ns: m.p99_ns as i64 - s.p99_ns as i64,
                    p99_ratio: if s.p99_ns > 0 {
                        m.p99_ns as f64 / s.p99_ns as f64
                    } else {
                        f64::NAN
                    },
                }),
                _ => None,
            };
            // SLO bounds are asserted against the *mixed* run — the whole
            // point of an objective is surviving the neighbors.
            record.slo = t.slo.map(|s| {
                let actual_p99_ns = record.latency.map(|l| l.p99_ns);
                let drop_rate = record.drop_rate;
                let mut violations = Vec::new();
                if let Some(bound) = s.max_p99_ns {
                    match actual_p99_ns {
                        Some(p99) if p99 > bound => {
                            violations.push(format!("mixed p99 {p99}ns exceeds bound {bound}ns"));
                        }
                        None => violations
                            .push(format!("no completed packets to check p99 bound {bound}ns")),
                        _ => {}
                    }
                }
                if let Some(bound) = s.max_drop_rate {
                    if drop_rate > bound {
                        violations.push(format!(
                            "mixed drop rate {drop_rate:.6} exceeds bound {bound:.6}"
                        ));
                    }
                }
                SloOutcome {
                    max_p99_ns: s.max_p99_ns,
                    max_drop_rate: s.max_drop_rate,
                    actual_p99_ns,
                    actual_drop_rate: drop_rate,
                    violations,
                }
            });
        }
        Ok(self.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant() -> TenantReport {
        TenantReport {
            name: "t0".into(),
            nf: "TouchDrop",
            cores: vec![0, 1],
            rx_packets: 100,
            rx_drops: 4,
            drop_rate: 4.0 / 104.0,
            completed: 100,
            throughput_gbps: 9.5,
            mlc_wb: 42,
            steer: SteerMix {
                llc: 10,
                mlc: 20,
                dram: 30,
            },
            latency: Some(LatencyStats {
                count: 100,
                mean_ns: 1500.0,
                p50_ns: 1023,
                p90_ns: 2047,
                p99_ns: 4095,
                max_ns: 5000,
            }),
            solo_latency: None,
            interference: None,
            policy: None,
            slo: None,
            pool: None,
            fd: None,
        }
    }

    #[test]
    fn json_has_stable_shape_and_null_for_missing_summaries() {
        let r = ScenarioReport {
            scenario: "demo".into(),
            description: "a demo".into(),
            policy: "IDIO",
            root_seed: 0xD10,
            duration_ns: 400_000,
            rx_packets: 100,
            rx_drops: 4,
            completed: 100,
            tenants: vec![tenant()],
        };
        let json = r.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"scenario\": \"demo\""));
        assert!(json.contains("\"steer\": {\"llc\": 10, \"mlc\": 20, \"dram\": 30}"));
        assert!(json.contains("\"solo_latency\": null"));
        assert!(json.contains("\"interference\": null"));
        assert!(json.contains("\"p99_ns\": 4095"));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(json, r.to_json());
    }

    #[test]
    fn policy_and_slo_render_only_when_present() {
        let plain = tenant().to_json("");
        assert!(!plain.contains("\"policy\""));
        assert!(!plain.contains("\"slo\""));

        let mut t = tenant();
        t.policy = Some("DDIO".into());
        t.slo = Some(SloOutcome {
            max_p99_ns: Some(10_000),
            max_drop_rate: None,
            actual_p99_ns: Some(4095),
            actual_drop_rate: 0.0,
            violations: Vec::new(),
        });
        let json = t.to_json("");
        assert!(json.contains("\"policy\": \"DDIO\""));
        assert!(json.contains("\"slo\": {\"pass\": true"));
        assert!(json.contains("\"max_p99_ns\": 10000"));
        assert!(json.contains("\"max_drop_rate\": null"));
        assert!(json.contains("\"violations\": []"));
    }

    #[test]
    fn pool_renders_only_when_present() {
        let plain = tenant().to_json("");
        assert!(!plain.contains("\"pool\""));

        let mut t = tenant();
        t.pool = Some(PoolAgg {
            recycled: 90,
            starved: 3,
            spilled: 0,
        });
        let json = t.to_json("");
        assert!(json.contains("\"pool\": {\"recycled\": 90, \"starved\": 3, \"spilled\": 0}"));
    }

    #[test]
    fn slo_violations_are_collected_per_tenant() {
        let mut t = tenant();
        t.slo = Some(SloOutcome {
            max_p99_ns: Some(1000),
            max_drop_rate: Some(0.01),
            actual_p99_ns: Some(4095),
            actual_drop_rate: 0.5,
            violations: vec!["p99 too high".into(), "drop rate too high".into()],
        });
        let r = ScenarioReport {
            scenario: "demo".into(),
            description: "a demo".into(),
            policy: "IDIO",
            root_seed: 1,
            duration_ns: 1,
            rx_packets: 0,
            rx_drops: 0,
            completed: 0,
            tenants: vec![tenant(), t],
        };
        let v = r.slo_violations();
        assert_eq!(v.len(), 2);
        assert!(v[0].contains("tenant 't0'"));
        assert!(r.to_json().contains("\"pass\": false"));
    }

    #[test]
    fn non_finite_ratio_renders_as_null() {
        let i = Interference {
            p50_delta_ns: 0,
            p99_delta_ns: 0,
            p99_ratio: f64::NAN,
        };
        assert!(i.to_json().contains("\"p99_ratio\": null"));
    }
}
