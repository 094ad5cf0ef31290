//! Reproduction drivers for every table and figure of the paper's
//! evaluation (Sec. VII).
//!
//! Each figure is expressed *declaratively*: a `figN_spec` function builds
//! a [`FigureSpec`] from the figure's rows — each row's key and the
//! simulation configuration (cell) that measures it — plus a pure assembly
//! function that turns the keys and the finished cells' reports into a
//! printable [`FigureResult`]. Most cells are built by `bursty_cfg` or
//! `steady_cfg`, so a figure states only what it varies. The sweep
//! orchestrator in [`crate::sweep`] executes the cells, serially or on a
//! worker pool, with per-cell seeds derived from the cell labels so the
//! output is independent of scheduling.
//!
//! Every function takes a [`Scale`]: [`Scale::full`] approximates the
//! paper's run lengths, [`Scale::quick`] shrinks them for CI and unit
//! tests while preserving the qualitative shapes.

use std::fmt;

use idio_cache::set::WayMask;
use idio_engine::stats::TimeSeries;
use idio_engine::time::{Duration, SimTime};
use idio_net::gen::{BurstSpec, TrafficPattern};
use idio_net::packet::Dscp;
use idio_nic::classifier::RX_BURST_THR_BYTES;
use idio_stack::nf::NfKind;
use idio_stack::pmd::DEFAULT_BATCH;
use idio_stack::timing::{L1_CYCLES, LLC_CYCLES, MLC_CYCLES};

use crate::config::{SystemConfig, TenantSpec};
use crate::policy::SteeringPolicy;
use crate::report::RunReport;
use crate::sweep::{FigureSpec, SweepCell};

/// Run-length scaling for the experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Number of burst periods simulated (first is treated as warm-up
    /// where more than one is available).
    pub periods: u64,
    /// Burst period (paper: 10 ms).
    pub period: Duration,
    /// Horizon for steady-traffic experiments.
    pub steady_duration: Duration,
}

impl Scale {
    /// Paper-equivalent run lengths.
    pub fn full() -> Self {
        Scale {
            periods: 3,
            period: Duration::from_ms(10),
            steady_duration: Duration::from_ms(5),
        }
    }

    /// Shrunk runs for tests and CI (same shapes, several times faster).
    ///
    /// The rings stay at Table I's 1024 entries at every scale: the paper's
    /// central phenomenon requires the DMA ring (1024 × 2 KiB = 2 MiB) to
    /// exceed the 1 MiB MLC, so the ring cannot be scaled down without
    /// losing the effect. Time is shrunk instead.
    pub fn quick() -> Self {
        Scale {
            periods: 2,
            period: Duration::from_ms(2),
            steady_duration: Duration::from_ms(3),
        }
    }
}

/// One reproduced table/figure: a printable grid plus any raw series.
#[derive(Debug, Clone)]
pub struct FigureResult {
    /// Identifier, e.g. `"fig9"`.
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Table rows (pre-formatted).
    pub rows: Vec<Vec<String>>,
    /// Named sampled series for timeline figures.
    pub series: Vec<(String, TimeSeries)>,
}

impl FigureResult {
    /// Creates an empty table with the given identity and columns.
    pub fn new(id: &'static str, title: impl Into<String>, columns: &[&str]) -> Self {
        FigureResult {
            id,
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Appends one pre-formatted row (must match the column count).
    pub fn push_row(&mut self, row: Vec<String>) {
        debug_assert_eq!(row.len(), self.columns.len());
        self.rows.push(row);
    }

    /// Appends `r`'s MLC and LLC writeback timelines as the series
    /// `<prefix>_mlc_wb` and `<prefix>_llc_wb`.
    fn push_wb_series(&mut self, prefix: &str, r: &RunReport) {
        self.series
            .push((format!("{prefix}_mlc_wb"), r.timelines.mlc_wb.clone()));
        self.series
            .push((format!("{prefix}_llc_wb"), r.timelines.llc_wb.clone()));
    }
}

impl fmt::Display for FigureResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            writeln!(f, "{}", cells.join("  "))?;
        }
        Ok(())
    }
}

/// `num / den` to three decimals; a zero base reads `1.000` when `num` is
/// zero too and `inf` otherwise.
fn fmt_ratio(num: u64, den: u64) -> String {
    match (num, den) {
        (0, 0) => "1.000".into(),
        (_, 0) => "inf".into(),
        _ => format!("{:.3}", num as f64 / den as f64),
    }
}

/// The mean burst processing time in ms, or `-` when no burst completed.
fn exe_ms(r: &RunReport) -> String {
    r.mean_exe_time(1)
        .map(|d| format!("{:.3}", d.as_secs_f64() * 1e3))
        .unwrap_or_else(|| "-".into())
}

/// The mean burst processing time as a ratio to `base`'s, or `-` when
/// either has none.
fn exe_ratio(r: &RunReport, base: &RunReport) -> String {
    match (r.mean_exe_time(1), base.mean_exe_time(1)) {
        (Some(a), Some(b)) if b > Duration::ZERO => {
            format!("{:.3}", a.as_ps() as f64 / b.as_ps() as f64)
        }
        _ => "-".into(),
    }
}

/// The two policies most figures compare.
const DDIO_VS_IDIO: [SteeringPolicy; 2] = [SteeringPolicy::Ddio, SteeringPolicy::Idio];

/// Builds the bursty-traffic configuration behind most figures: the two
/// TouchDrop tenants of [`SystemConfig::touchdrop_scenario`] (1514-byte
/// best-effort frames, Table I's 1024-entry rings) under `policy`, each
/// receiving one ring's worth of frames per burst period at `rate_gbps`
/// for `scale.periods` periods. `tenant` sets what a figure varies per
/// tenant (NF, frame size, DSCP); each burst is sized to the frame size it
/// leaves.
fn bursty_cfg(
    scale: Scale,
    rate_gbps: f64,
    policy: SteeringPolicy,
    tenant: impl Fn(&mut TenantSpec),
) -> SystemConfig {
    // The steady traffic is a placeholder: every tenant's is replaced below.
    let mut cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps });
    cfg.duration = SimTime::ZERO + scale.period * scale.periods;
    cfg.drain_grace = scale.period;
    for t in &mut cfg.tenants {
        tenant(t);
        let burst = BurstSpec::for_ring(cfg.ring_size, t.packet_len, rate_gbps, scale.period);
        t.traffic = TrafficPattern::Bursty(burst);
    }
    cfg.with_policy(policy)
}

/// Builds the steady-traffic configuration (Fig. 13, bloating, ring
/// sweep): the two TouchDrop tenants of
/// [`SystemConfig::touchdrop_scenario`] at a steady 10 Gbps each under
/// `policy`, for `scale.steady_duration`.
fn steady_cfg(scale: Scale, policy: SteeringPolicy) -> SystemConfig {
    let mut cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps: 10.0 });
    cfg.duration = SimTime::ZERO + scale.steady_duration;
    cfg.drain_grace = Duration::from_ms(1);
    cfg.with_policy(policy)
}

/// Lines of RX data (payload only) delivered in a run — the normalisation
/// base for Fig. 4-style rates.
fn rx_data_lines(report: &RunReport, packet_len: u16) -> u64 {
    report.totals.rx_packets * u64::from(u32::from(packet_len).div_ceil(64))
}

// ---------------------------------------------------------------------------
// Table I / Table II
// ---------------------------------------------------------------------------

/// Table I as a (cell-less) figure spec.
pub fn table1_spec() -> FigureSpec {
    FigureSpec::new("table1", Vec::<((), SweepCell)>::new(), |_| table1())
}

/// Table I: the simulated configuration, as actually instantiated. The
/// latencies are the ones the core timing model charges.
pub fn table1() -> FigureResult {
    let cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps: 10.0 });
    let h = cfg.effective_hierarchy();
    let mut t = FigureResult::new(
        "table1",
        "Simulation configuration",
        &["parameter", "value"],
    );
    let rows: Vec<(&str, String)> = vec![
        ("core freq", "3 GHz".into()),
        (
            "L1D (size, assoc, lat)",
            format!(
                "{} KiB, {}, {L1_CYCLES} CC",
                h.l1d.size_bytes >> 10,
                h.l1d.ways
            ),
        ),
        (
            "MLC (size, assoc, lat)",
            format!(
                "{} MiB, {}, {MLC_CYCLES} CC",
                h.mlc.size_bytes >> 20,
                h.mlc.ways
            ),
        ),
        (
            "LLC (size, assoc, lat)",
            format!(
                "{} MiB, {}, {LLC_CYCLES} CC",
                h.llc.size_bytes >> 20,
                h.llc.ways
            ),
        ),
        ("DDIO ways", format!("{}", h.ddio_ways)),
        ("DRAM", format!("DDR4-3200, {} ch", idio_mem::CHANNELS)),
        ("network", "100 Gbps-class, 1514 B packets".into()),
        ("ring size", format!("{}", cfg.ring_size)),
        ("batch size", format!("{DEFAULT_BATCH}")),
        ("rxBurstTHR", format!("{RX_BURST_THR_BYTES} B / 1 us")),
        (
            "mlcTHR",
            format!("{} WB / 1 us (50 MTPS)", cfg.idio.mlc_thr),
        ),
        ("prefetch queue", format!("{}", cfg.prefetcher.queue_depth)),
    ];
    for (k, v) in rows {
        t.push_row(vec![k.into(), v]);
    }
    t
}

/// Table II as a (cell-less) figure spec.
pub fn table2_spec() -> FigureSpec {
    FigureSpec::new("table2", Vec::<((), SweepCell)>::new(), |_| table2())
}

/// Table II: the evaluated functions.
pub fn table2() -> FigureResult {
    let mut t = FigureResult::new(
        "table2",
        "Functions used for evaluation",
        &["function", "description"],
    );
    t.push_row(vec![
        "TouchDrop".into(),
        "receive packets, touch data, drop packets".into(),
    ]);
    t.push_row(vec![
        "L2Fwd".into(),
        "receive packets, forward based on Ethernet header".into(),
    ]);
    t.push_row(vec![
        "LLCAntagonist".into(),
        "allocate a buffer and randomly access elements".into(),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Fig. 4 — MLC/DRAM leaks vs ring size and load (DDIO baseline)
// ---------------------------------------------------------------------------

/// Fig. 4: MLC writeback and MLC invalidation rates (normalised to the RX
/// data rate) and DRAM write bandwidth, across ring sizes and load levels,
/// under baseline DDIO — including the CAT `*_1way` configurations.
///
/// The paper measures this on the *physical* Xeon Gold 6242 (22 MiB LLC,
/// 10 TouchDrop instances), whose LLC+MLC capacity comfortably exceeds the
/// aggregate ring footprint. We reproduce the capacity *ratio* with 4
/// instances on a proportionally sized (8.25 MiB, 11-way) LLC. Each run
/// lasts long enough to deliver a fixed per-core packet count, so the
/// normalised rates are comparable across loads.
///
/// Paper shape: ring 64 ⇒ low normalised MLC WB and high invalidations;
/// ring ≥ 1024 ⇒ MLC WB around/above the RX rate at *every* load; DRAM
/// write bandwidth near zero except in the `_1way` CAT configurations.
///
/// Fig. 4 as a declarative sweep (11 cells).
pub fn fig4_spec(scale: Scale) -> FigureSpec {
    const NFS: usize = 4;
    // Per-NF steady rates; "high" matches the paper's 2 Gbps/NF.
    let loads = [("low", 0.1), ("med", 0.5), ("high", 2.0)];
    // Steady state needs several full ring recycles (the first pass is a
    // cold-start transient); scale the horizon with the ring size.
    let wraps: u64 = if scale.periods >= 3 { 4 } else { 3 };

    let mut cases = Vec::new();
    for ring in [64u32, 1024, 2048] {
        cases.extend(loads.map(|load| (ring, false, load)));
    }
    cases.extend([1024u32, 2048].map(|ring| (ring, true, loads[2])));
    let rows = cases.into_iter().map(|(ring, one_way, (lname, gbps))| {
        let name = format!("ring{ring}{}", if one_way { "_1way" } else { "" });
        let pkt_time = idio_engine::time::wire_time(1514, gbps);
        let packets_per_nf = (wraps * u64::from(ring)).max(1500);
        let duration = SimTime::ZERO + pkt_time * packets_per_nf;
        let mut cfg =
            SystemConfig::touchdrop_scenario(NFS, TrafficPattern::Steady { rate_gbps: gbps });
        cfg.ring_size = ring;
        cfg.duration = duration;
        cfg.drain_grace = Duration::from_ms(1);
        // Physical-server LLC, scaled to 4 NFs: 12288 sets x 11 ways x 64 B
        // = 8.25 MiB (the paper's 22 MiB hosts 10 NFs at the same ratio).
        cfg.hierarchy = idio_cache::config::HierarchyConfig {
            num_cores: NFS,
            llc: idio_cache::config::CacheGeometry::new(12288 * 11 * 64, 11),
            mlc_overrides: vec![None; NFS],
            ..idio_cache::config::HierarchyConfig::paper_default(NFS)
        };
        if one_way {
            // CAT: confine core fills to a single non-DDIO LLC way.
            cfg.hierarchy.core_alloc_ways = Some(WayMask::range(2, 3));
        }
        let cell = SweepCell::new(format!("fig4/{name}/{lname}"), cfg);
        ((name, lname, duration), cell)
    });
    FigureSpec::new("fig4", rows, |rows| {
        let mut t = FigureResult::new(
            "fig4",
            "MLC and DRAM leaks vs load level and ring size (DDIO, physical-server geometry)",
            &[
                "config",
                "load",
                "mlc_wb/rx",
                "mlc_inval/rx",
                "dram_wr_gbps",
                "dram_rd_gbps",
            ],
        );
        for ((name, lname, duration), r) in rows {
            let rx = rx_data_lines(r, 1514).max(1);
            let secs = duration.as_secs_f64();
            let gbps = |lines: u64| format!("{:.2}", lines as f64 * 64.0 * 8.0 / secs / 1e9);
            t.push_row(vec![
                name,
                lname.into(),
                fmt_ratio(r.totals.mlc_wb, rx),
                fmt_ratio(r.totals.mlc_inval_by_dma, rx),
                gbps(r.totals.dram_wr),
                gbps(r.totals.dram_rd),
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 5 — writeback timeline under bursty traffic (DDIO baseline)
// ---------------------------------------------------------------------------

/// Fig. 5: the MLC/LLC writeback timeline while processing bursty traffic
/// under DDIO, exposing the DMA phase (LLC-writeback spike) and execution
/// phase (MLC-writeback wave).
///
/// Fig. 5 as a declarative sweep (1 cell).
pub fn fig5_spec(scale: Scale) -> FigureSpec {
    let cfg = bursty_cfg(scale, 100.0, SteeringPolicy::Ddio, |_| {});
    let rows = [((), SweepCell::new("fig5/DDIO/100G", cfg))];
    FigureSpec::new("fig5", rows, |rows| {
        let r = rows[0].1;
        let mut t = FigureResult::new(
            "fig5",
            "MLC and LLC writebacks, bursty traffic, DDIO",
            &["metric", "peak_mtps", "mean_mtps", "total_txn"],
        );
        for (name, series, total) in [
            ("mlc_wb", &r.timelines.mlc_wb, r.totals.mlc_wb),
            ("llc_wb", &r.timelines.llc_wb, r.totals.llc_wb),
            ("dma_wr", &r.timelines.dma_wr, r.totals.pcie_wr),
        ] {
            t.push_row(vec![
                name.into(),
                format!("{:.1}", series.max_value()),
                format!("{:.2}", series.mean()),
                format!("{total}"),
            ]);
            t.series.push((name.into(), series.clone()));
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 9 — policy comparison timelines at 100 and 25 Gbps
// ---------------------------------------------------------------------------

/// Fig. 9: MLC/LLC writeback behaviour of DDIO, Invalidate, Prefetch,
/// Static and IDIO while processing one burst, at 100 and 25 Gbps burst
/// rates.
///
/// Paper shape: self-invalidation removes most writebacks; prefetching
/// shortens the execution phase; Static ≈ IDIO at 25 Gbps while IDIO
/// regulates MLC pressure at 100 Gbps.
///
/// Fig. 9 as a declarative sweep (2 rates × 6 policies).
pub fn fig9_spec(scale: Scale) -> FigureSpec {
    let mut rows = Vec::new();
    for rate in [100.0f64, 25.0] {
        for policy in SteeringPolicy::ALL {
            let label = format!("fig9/{rate:.0}G/{}", policy.label());
            let cfg = bursty_cfg(scale, rate, policy, |_| {});
            rows.push(((rate, policy), SweepCell::new(label, cfg)));
        }
    }
    FigureSpec::new("fig9", rows, |rows| {
        let mut t = FigureResult::new(
            "fig9",
            "Policy comparison on one burst (TouchDrop)",
            &[
                "rate",
                "policy",
                "mlc_wb",
                "llc_wb",
                "peak_mlc_wb_mtps",
                "prefetches",
                "exe_ms",
            ],
        );
        for ((rate, policy), r) in rows {
            t.push_row(vec![
                format!("{rate:.0}G"),
                policy.label().into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                format!("{:.1}", r.timelines.mlc_wb.max_value()),
                format!("{}", r.totals.prefetch_fills),
                exe_ms(r),
            ]);
            t.push_wb_series(&format!("{}_{}", rate as u32, policy.label()), r);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 10 — normalised transactions and exe time
// ---------------------------------------------------------------------------

/// Fig. 10: MLC WB, LLC WB, DRAM read/write transactions and burst
/// processing time of Static and IDIO normalised to DDIO, at 100/25/10
/// Gbps, plus the TouchDrop+LLCAntagonist co-run.
///
/// Paper shape: 60–85% MLC WB reduction, near-elimination of DRAM writes,
/// exe time ~0.78–0.82 at 100/25 Gbps and ~1.0 at 10 Gbps.
///
/// Fig. 10 as a declarative sweep (per scenario × rate: one DDIO base cell
/// plus the compared policies).
pub fn fig10_spec(scale: Scale) -> FigureSpec {
    use SteeringPolicy::{Ddio, Idio, StaticIdio};
    let mut rows = Vec::new();
    for (scenario, antagonist) in [("solo", false), ("corun", true)] {
        // The DDIO base cell first, then the compared policies.
        let policies: &[SteeringPolicy] = if antagonist {
            &[Ddio, Idio]
        } else {
            &[Ddio, StaticIdio, Idio]
        };
        for rate in [100.0f64, 25.0, 10.0] {
            for &policy in policies {
                let label = format!("fig10/{scenario}/{rate:.0}G/{}", policy.label());
                let mut cfg = bursty_cfg(scale, rate, policy, |_| {});
                if antagonist {
                    cfg = cfg.with_antagonist();
                }
                rows.push(((scenario, rate, policy), SweepCell::new(label, cfg)));
            }
        }
    }
    FigureSpec::new("fig10", rows, |rows| {
        let mut t = FigureResult::new(
            "fig10",
            "Normalised transactions and exe time (vs DDIO)",
            &[
                "scenario",
                "rate",
                "policy",
                "mlc_wb",
                "llc_wb",
                "dram_rd",
                "dram_wr",
                "exe_time",
                "antag_cpa",
            ],
        );
        let mut ddio = None;
        for ((scenario, rate, policy), r) in rows {
            if policy == Ddio {
                ddio = Some(r);
                continue;
            }
            let base = ddio.expect("each group declares its DDIO base first");
            let cpa = match (r.antagonist_cpa, base.antagonist_cpa) {
                (Some(a), Some(b)) if b > 0.0 => format!("{:.3}", a / b),
                _ => "-".into(),
            };
            t.push_row(vec![
                scenario.into(),
                format!("{rate:.0}G"),
                policy.label().into(),
                // NF-core writebacks only: the antagonist's own MLC
                // churn is identical across policies and would mask
                // the effect in co-run rows.
                fmt_ratio(r.nf_mlc_wb(2), base.nf_mlc_wb(2)),
                fmt_ratio(r.totals.llc_wb, base.totals.llc_wb),
                fmt_ratio(r.totals.dram_rd, base.totals.dram_rd),
                fmt_ratio(r.totals.dram_wr, base.totals.dram_wr),
                exe_ratio(r, base),
                cpa,
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 11 — L2Fwd (shallow NF) timelines
// ---------------------------------------------------------------------------

/// Fig. 11: L2Fwd with 1024-byte packets under DDIO vs IDIO.
///
/// Paper shape: DDIO shows almost no MLC activity but a growing LLC
/// writeback rate; IDIO admits buffers to the MLC and invalidates after
/// forwarding, strongly reducing LLC writebacks.
///
/// Fig. 11 as a declarative sweep (2 cells).
pub fn fig11_spec(scale: Scale) -> FigureSpec {
    let rows = DDIO_VS_IDIO.map(|policy| {
        let cfg = bursty_cfg(scale, 25.0, policy, |t| {
            t.nf = NfKind::L2Fwd;
            t.packet_len = 1024;
        });
        let label = format!("fig11/{}", policy.label());
        (policy, SweepCell::new(label, cfg))
    });
    FigureSpec::new("fig11", rows, |rows| {
        let mut t = FigureResult::new(
            "fig11",
            "L2Fwd, 1024-byte packets",
            &[
                "policy",
                "mlc_wb",
                "llc_wb",
                "prefetches",
                "tx_pkts",
                "p99_us",
            ],
        );
        for (policy, r) in rows {
            let p99 = r
                .p99()
                .map(|d| format!("{:.1}", d.as_us_f64()))
                .unwrap_or_else(|| "-".into());
            t.push_row(vec![
                policy.label().into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                format!("{}", r.totals.prefetch_fills),
                format!("{}", r.totals.completed_packets),
                p99,
            ]);
            t.push_wb_series(policy.label(), r);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Sec. VII — selective direct DRAM access
// ---------------------------------------------------------------------------

/// The direct-DRAM experiment of Sec. VII: an L2Fwd variant that drops the
/// payload after header processing, with senders marking the flow
/// application class 1. Under IDIO the payload bypasses the LLC entirely:
/// DRAM write bandwidth tracks the RX payload bandwidth and the DDIO ways
/// stop thrashing.
///
/// The direct-DRAM experiment as a declarative sweep (2 cells).
pub fn direct_dram_spec(scale: Scale) -> FigureSpec {
    let rows = DDIO_VS_IDIO.map(|policy| {
        let cfg = bursty_cfg(scale, 25.0, policy, |t| {
            t.nf = NfKind::L2FwdPayloadDrop;
            t.dscp = Dscp::CLASS1_DEFAULT;
        });
        let label = format!("direct_dram/{}", policy.label());
        (policy, SweepCell::new(label, cfg))
    });
    FigureSpec::new("direct_dram", rows, |rows| {
        let mut t = FigureResult::new(
            "direct_dram",
            "Selective direct DRAM access (L2FwdPayloadDrop, class 1)",
            &[
                "policy",
                "dma_direct",
                "dram_wr/rx_payload",
                "llc_wb",
                "ddio_allocs",
            ],
        );
        for (policy, r) in rows {
            let payload_lines = r.totals.rx_packets * 23; // 1514 B = 1 header + 23 payload lines
            t.push_row(vec![
                policy.label().into(),
                format!("{}", r.hierarchy.shared.dma_direct_dram.get()),
                fmt_ratio(r.totals.dram_wr, payload_lines.max(1)),
                format!("{}", r.totals.llc_wb),
                format!("{}", r.hierarchy.shared.ddio_allocs.get()),
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 12 — tail latency
// ---------------------------------------------------------------------------

/// Fig. 12: 50th and 99th percentile TouchDrop latency, solo and co-run
/// with LLCAntagonist, normalised to DDIO solo at each rate.
///
/// Paper shape: IDIO's p99 reduction is largest at 25 Gbps (~30%), smaller
/// at 100 and 10 Gbps; co-running inflates DDIO's tail more than IDIO's.
///
/// Fig. 12 as a declarative sweep (per rate: DDIO-solo base, IDIO-solo,
/// DDIO-corun, IDIO-corun).
pub fn fig12_spec(scale: Scale) -> FigureSpec {
    let mut rows = Vec::new();
    for rate in [100.0f64, 25.0, 10.0] {
        for (scenario, antagonist) in [("solo", false), ("corun", true)] {
            for policy in DDIO_VS_IDIO {
                let label = format!("fig12/{rate:.0}G/{scenario}/{}", policy.label());
                let mut cfg = bursty_cfg(scale, rate, policy, |_| {});
                if antagonist {
                    cfg = cfg.with_antagonist();
                }
                rows.push(((rate, scenario, policy), SweepCell::new(label, cfg)));
            }
        }
    }
    FigureSpec::new("fig12", rows, |rows| {
        let mut t = FigureResult::new(
            "fig12",
            "p50/p99 latency normalised to DDIO solo",
            &["rate", "scenario", "policy", "p50", "p99", "p99_us"],
        );
        let mut solo_ddio = None;
        for ((rate, scenario, policy), r) in rows {
            if (scenario, policy) == ("solo", SteeringPolicy::Ddio) {
                solo_ddio = Some(r);
            }
            let base = solo_ddio.expect("each rate declares its DDIO-solo base first");
            let (bp50, bp99) = (
                base.p50().unwrap_or(Duration::from_ns(1)),
                base.p99().unwrap_or(Duration::from_ns(1)),
            );
            let p50 = r.p50().unwrap_or(Duration::ZERO);
            let p99 = r.p99().unwrap_or(Duration::ZERO);
            t.push_row(vec![
                format!("{rate:.0}G"),
                scenario.into(),
                policy.label().into(),
                format!("{:.3}", p50.as_ps() as f64 / bp50.as_ps() as f64),
                format!("{:.3}", p99.as_ps() as f64 / bp99.as_ps() as f64),
                format!("{:.1}", p99.as_us_f64()),
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 13 — steady traffic
// ---------------------------------------------------------------------------

/// Fig. 13: two TouchDrop instances at a steady 10 Gbps each, DDIO vs
/// IDIO.
///
/// Paper shape: DDIO shows a constant MLC writeback rate matching the
/// packet consumption rate; IDIO's self-invalidation removes most of it.
///
/// Fig. 13 as a declarative sweep (2 cells).
pub fn fig13_spec(scale: Scale) -> FigureSpec {
    let rows = DDIO_VS_IDIO.map(|policy| {
        let label = format!("fig13/{}", policy.label());
        (policy, SweepCell::new(label, steady_cfg(scale, policy)))
    });
    FigureSpec::new("fig13", rows, |rows| {
        let mut t = FigureResult::new(
            "fig13",
            "Steady 10 Gbps/core TouchDrop",
            &[
                "policy",
                "mlc_wb_mtps",
                "llc_wb_mtps",
                "self_inval",
                "completed",
            ],
        );
        for (policy, r) in rows {
            t.push_row(vec![
                policy.label().into(),
                format!("{:.2}", r.timelines.mlc_wb.mean()),
                format!("{:.2}", r.timelines.llc_wb.mean()),
                format!("{}", r.totals.self_inval),
                format!("{}", r.totals.completed_packets),
            ]);
            t.push_wb_series(policy.label(), r);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Fig. 14 — mlcTHR sensitivity
// ---------------------------------------------------------------------------

/// Fig. 14: the Fig. 10 metrics at 100 Gbps while sweeping `mlcTHR` from
/// 10 to 100 MTPS.
///
/// Paper shape: IDIO's improvements are consistent across the sweep — the
/// self-invalidation/prefetch synergy makes the threshold uncritical.
///
/// Fig. 14 as a declarative sweep (DDIO base + 5 threshold cells).
pub fn fig14_spec(scale: Scale) -> FigureSpec {
    // Row key: the threshold, or `None` for the DDIO base.
    let base_cfg = bursty_cfg(scale, 100.0, SteeringPolicy::Ddio, |_| {});
    let mut rows = vec![(None, SweepCell::new("fig14/DDIO-base", base_cfg))];
    for thr in [10.0f64, 25.0, 50.0, 75.0, 100.0] {
        let mut cfg = bursty_cfg(scale, 100.0, SteeringPolicy::Idio, |_| {});
        cfg.idio = cfg.idio.with_mlc_thr_mtps(thr);
        rows.push((Some(thr), SweepCell::new(format!("fig14/thr{thr:.0}"), cfg)));
    }
    FigureSpec::new("fig14", rows, |rows| {
        let mut t = FigureResult::new(
            "fig14",
            "Sensitivity to mlcTHR at 100 Gbps (normalised to DDIO)",
            &["mlc_thr_mtps", "mlc_wb", "llc_wb", "dram_wr", "exe_time"],
        );
        let mut ddio = None;
        for (thr, r) in rows {
            let Some(thr) = thr else {
                ddio = Some(r);
                continue;
            };
            let base = ddio.expect("the DDIO base is declared first");
            t.push_row(vec![
                format!("{thr:.0}"),
                fmt_ratio(r.totals.mlc_wb, base.totals.mlc_wb),
                fmt_ratio(r.totals.llc_wb, base.totals.llc_wb),
                fmt_ratio(r.totals.dram_wr, base.totals.dram_wr),
                exe_ratio(r, base),
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Sec. VII future work — CPU-paced prefetching
// ---------------------------------------------------------------------------

/// The paper's future-work suggestion (Sec. VII): "a more sophisticated
/// prefetcher that follows the CPU pointer in the ring buffer to regulate
/// the MLC prefetching rate will likely provide more benefit". Compares
/// the paper's drop-on-full queued prefetcher against the CPU-paced
/// variant at 100 and 25 Gbps.
///
/// Expected shape: identical at 25 Gbps (the queue keeps up anyway); at
/// 100 Gbps the paced prefetcher avoids both the hint drops and the
/// MLC flood/FSM-disable cycle, yielding shorter burst processing.
///
/// The future-work comparison as a declarative sweep (2 rates × 2
/// prefetcher variants).
pub fn future_work_spec(scale: Scale) -> FigureSpec {
    use crate::prefetcher::PrefetchPacing;
    let variants = [
        ("queued", PrefetchPacing::Queued),
        ("cpu-paced", PrefetchPacing::CpuPaced { window_packets: 64 }),
    ];
    let mut rows = Vec::new();
    for rate in [100.0f64, 25.0] {
        for (name, pacing) in variants {
            let mut cfg = bursty_cfg(scale, rate, SteeringPolicy::Idio, |_| {});
            cfg.prefetcher.pacing = pacing;
            if matches!(pacing, PrefetchPacing::CpuPaced { .. }) {
                // The paced queue never drops; give it room for a full
                // window of parked-then-released packets.
                cfg.prefetcher.queue_depth = 64 * 32;
            }
            let label = format!("future-work/{rate:.0}G/{name}");
            rows.push(((rate, name), SweepCell::new(label, cfg)));
        }
    }
    FigureSpec::new("future-work", rows, |rows| {
        let mut t = FigureResult::new(
            "future-work",
            "Queued vs CPU-paced prefetching (IDIO)",
            &[
                "rate",
                "prefetcher",
                "mlc_wb",
                "llc_wb",
                "prefetches",
                "exe_ms",
            ],
        );
        for ((rate, name), r) in rows {
            t.push_row(vec![
                format!("{rate:.0}G"),
                name.into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                format!("{}", r.totals.prefetch_fills),
                exe_ms(r),
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// DMA bloating occupancy (Sec. III observation 3, measured directly)
// ---------------------------------------------------------------------------

/// Directly measures *DMA bloating*: the share of LLC lines occupied by
/// DMA buffer regions over time, under DDIO vs IDIO, for steady traffic
/// that recycles a 1024-entry ring.
///
/// Expected shape: under DDIO the dead consumed buffers spread across the
/// non-DDIO ways until I/O data dominates the LLC; IDIO's
/// self-invalidation keeps the share near the DDIO-way footprint.
///
/// The bloating measurement as a declarative sweep (2 cells).
pub fn bloating_spec(scale: Scale) -> FigureSpec {
    let rows = DDIO_VS_IDIO.map(|policy| {
        let label = format!("bloating/{}", policy.label());
        (policy, SweepCell::new(label, steady_cfg(scale, policy)))
    });
    FigureSpec::new("bloating", rows, |rows| {
        let mut t = FigureResult::new(
            "bloating",
            "DMA share of LLC capacity (steady 10 Gbps/core)",
            &["policy", "mean_share", "max_share", "final_share"],
        );
        for (policy, r) in rows {
            let series = &r.timelines.dma_llc_share;
            let last = series.samples().next_back().map(|s| s.value).unwrap_or(0.0);
            t.push_row(vec![
                policy.label().into(),
                format!("{:.3}", series.mean()),
                format!("{:.3}", series.max_value()),
                format!("{last:.3}"),
            ]);
            t.series
                .push((format!("{}_dma_share", policy.label()), series.clone()));
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Buffer recycling modes (Sec. II-B)
// ---------------------------------------------------------------------------

/// Compares the Sec. II-B buffer-recycling modes: run-to-completion
/// (TouchDrop) vs copy-mode (TouchDropCopy, how the Linux stack works),
/// under DDIO and IDIO.
///
/// Expected shape: copy-mode roughly doubles the MLC writeback stream
/// under DDIO (dead DMA lines *and* application copies are evicted), and
/// IDIO removes the DMA-buffer share of it while the application copies —
/// live data — still write back.
///
/// The recycling-mode comparison as a declarative sweep (2 stacks × 2
/// policies).
pub fn copy_mode_spec(scale: Scale) -> FigureSpec {
    let mut rows = Vec::new();
    for (name, nf) in [
        ("run-to-completion", NfKind::TouchDrop),
        ("copy", NfKind::TouchDropCopy),
    ] {
        for policy in DDIO_VS_IDIO {
            let label = format!("copy-mode/{name}/{}", policy.label());
            let cfg = bursty_cfg(scale, 25.0, policy, |t| t.nf = nf);
            rows.push(((name, policy), SweepCell::new(label, cfg)));
        }
    }
    FigureSpec::new("copy-mode", rows, |rows| {
        let mut t = FigureResult::new(
            "copy-mode",
            "Run-to-completion vs copy-mode recycling",
            &[
                "stack",
                "policy",
                "mlc_wb",
                "llc_wb",
                "self_inval",
                "exe_ms",
            ],
        );
        for ((name, policy), r) in rows {
            t.push_row(vec![
                name.into(),
                policy.label().into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                format!("{}", r.totals.self_inval),
                exe_ms(r),
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Prior-work baseline comparison (IAT, Yuan et al. ISCA'21)
// ---------------------------------------------------------------------------

/// Compares baseline DDIO, the IAT-style dynamic-DDIO-way baseline, and
/// full IDIO on TouchDrop bursts.
///
/// Expected shape (matching the paper's related-work positioning): IAT
/// reduces the DMA leak by growing the I/O partition, but — lacking
/// self-invalidation and MLC steering — it cannot remove the MLC
/// writeback stream or shorten execution the way IDIO does.
///
/// The baseline comparison as a declarative sweep (2 rates × 3 policies).
pub fn baselines_spec(scale: Scale) -> FigureSpec {
    let mut rows = Vec::new();
    for rate in [100.0f64, 25.0] {
        for policy in [
            SteeringPolicy::Ddio,
            SteeringPolicy::IatDynamic,
            SteeringPolicy::Idio,
        ] {
            let label = format!("baselines/{rate:.0}G/{}", policy.label());
            let cfg = bursty_cfg(scale, rate, policy, |_| {});
            rows.push(((rate, policy), SweepCell::new(label, cfg)));
        }
    }
    FigureSpec::new("baselines", rows, |rows| {
        let mut t = FigureResult::new(
            "baselines",
            "DDIO vs IAT-dynamic vs IDIO (TouchDrop)",
            &["rate", "policy", "mlc_wb", "llc_wb", "dram_wr", "exe_ms"],
        );
        for ((rate, policy), r) in rows {
            t.push_row(vec![
                format!("{rate:.0}G"),
                policy.label().into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                format!("{}", r.totals.dram_wr),
                exe_ms(r),
            ]);
        }
        t
    })
}

// ---------------------------------------------------------------------------
// Sweeps (ablations extending the paper's Fig. 4 analysis)
// ---------------------------------------------------------------------------

/// Ring-size sweep: normalised MLC writebacks and invalidations for DDIO
/// *and* IDIO across ring depths — extends Fig. 4 (which only measures
/// DDIO) with the proposed design.
///
/// Expected shape: DDIO transitions from invalidation-dominated (ring ≤
/// MLC capacity) to writeback-dominated (ring > MLC); IDIO turns the
/// writebacks back into (self-)invalidations at every depth.
///
/// The ring-depth sweep as a declarative sweep (5 rings × 2 policies).
pub fn ring_sweep_spec(scale: Scale) -> FigureSpec {
    let mut rows = Vec::new();
    for ring in [64u32, 256, 512, 1024, 2048] {
        for policy in DDIO_VS_IDIO {
            let label = format!("ring-sweep/ring{ring}/{}", policy.label());
            let mut cfg = steady_cfg(scale, policy);
            cfg.ring_size = ring;
            rows.push(((ring, policy), SweepCell::new(label, cfg)));
        }
    }
    FigureSpec::new("ring-sweep", rows, |rows| {
        let mut t = FigureResult::new(
            "ring-sweep",
            "Ring-depth sweep at steady 10 Gbps/core",
            &["ring", "policy", "mlc_wb/rx", "inval/rx", "self_inval/rx"],
        );
        for ((ring, policy), r) in rows {
            let rx = rx_data_lines(r, 1514).max(1);
            t.push_row(vec![
                format!("{ring}"),
                policy.label().into(),
                fmt_ratio(r.totals.mlc_wb, rx),
                fmt_ratio(r.totals.mlc_inval_by_dma, rx),
                fmt_ratio(r.totals.self_inval, rx),
            ]);
        }
        t
    })
}

/// Packet-size sweep at a fixed 25 Gbps burst rate: small frames are
/// header-dominated (IDIO's always-on header steering covers them);
/// large frames exercise payload steering and invalidation.
///
/// The packet-size sweep as a declarative sweep (per size: DDIO base +
/// IDIO).
pub fn packet_sweep_spec(scale: Scale) -> FigureSpec {
    let mut rows = Vec::new();
    for len in [64u16, 256, 1024, 1514] {
        for policy in DDIO_VS_IDIO {
            let label = format!("packet-sweep/{len}B/{}", policy.label());
            let cfg = bursty_cfg(scale, 25.0, policy, |t| t.packet_len = len);
            rows.push(((len, policy), SweepCell::new(label, cfg)));
        }
    }
    FigureSpec::new("packet-sweep", rows, |rows| {
        let mut t = FigureResult::new(
            "packet-sweep",
            "Packet-size sweep, 25 Gbps bursts",
            &["bytes", "policy", "mlc_wb", "llc_wb", "exe_ratio"],
        );
        let mut ddio = None;
        for ((len, policy), r) in rows {
            if policy == SteeringPolicy::Ddio {
                ddio = Some(r);
            }
            let base = ddio.expect("each size declares its DDIO base first");
            t.push_row(vec![
                format!("{len}"),
                policy.label().into(),
                format!("{}", r.totals.mlc_wb),
                format!("{}", r.totals.llc_wb),
                exe_ratio(r, base),
            ]);
        }
        t
    })
}

/// Declares one experiment at a scale.
type SpecFn = fn(Scale) -> FigureSpec;

/// Every experiment of the suite, in paper order: its name and the
/// function that declares it at a scale. The CLI names, the benchmark's
/// workload and the golden suites all read this one table.
pub const SUITE: [(&str, SpecFn); 17] = [
    ("table1", |_| table1_spec()),
    ("table2", |_| table2_spec()),
    ("fig4", fig4_spec),
    ("fig5", fig5_spec),
    ("fig9", fig9_spec),
    ("fig10", fig10_spec),
    ("fig11", fig11_spec),
    ("direct-dram", direct_dram_spec),
    ("fig12", fig12_spec),
    ("fig13", fig13_spec),
    ("fig14", fig14_spec),
    ("future-work", future_work_spec),
    ("bloating", bloating_spec),
    ("copy-mode", copy_mode_spec),
    ("baselines", baselines_spec),
    ("ring-sweep", ring_sweep_spec),
    ("packet-sweep", packet_sweep_spec),
];

/// Declares the [`SUITE`] experiment called `name` at `scale`. An
/// underscore may stand for a hyphen (`direct_dram`).
pub fn spec_by_name(name: &str, scale: Scale) -> Option<FigureSpec> {
    let name = name.replace('_', "-");
    SUITE
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, spec)| spec(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_figures, SweepOptions};

    fn run_one(spec: FigureSpec) -> FigureResult {
        let mut figures = run_figures(vec![spec], &SweepOptions::default())
            .expect("built-in cells are valid")
            .figures;
        figures.pop().expect("one figure")
    }

    #[test]
    fn table_rendering_is_aligned() {
        let t = table2();
        let s = format!("{t}");
        assert!(s.contains("TouchDrop"));
        assert!(s.contains("LLCAntagonist"));
    }

    #[test]
    fn table1_reflects_config() {
        let t = table1();
        let s = format!("{t}");
        assert!(s.contains("3 MiB"));
        assert!(s.contains("DDIO ways"));
    }

    #[test]
    fn fig5_quick_smoke_has_two_phases() {
        let f = run_one(fig5_spec(Scale::quick()));
        assert_eq!(f.rows.len(), 3);
        // The timeline series are populated for plotting.
        assert!(f.series.iter().any(|(n, s)| n == "llc_wb" && !s.is_empty()));
        // The DMA-phase LLC-writeback spike exceeds the execution-phase
        // MLC-writeback peak under DDIO at 100 Gbps.
        let peak = |name: &str| {
            f.series
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, s)| s.max_value())
                .unwrap()
        };
        assert!(peak("llc_wb") > peak("mlc_wb"));
    }

    #[test]
    fn direct_dram_quick_smoke_ratio_is_one() {
        let f = run_one(direct_dram_spec(Scale::quick()));
        // Row order: DDIO then IDIO; column 2 is dram_wr/rx_payload.
        let idio = &f.rows[1];
        assert_eq!(idio[0], "IDIO");
        assert_eq!(idio[2], "1.000");
        assert_eq!(idio[3], "0", "zero LLC writebacks under direct DRAM");
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(fmt_ratio(0, 0), "1.000");
        assert_eq!(fmt_ratio(5, 0), "inf");
        assert_eq!(fmt_ratio(1, 2), "0.500");
    }

    #[test]
    fn specs_declare_unique_labels_across_the_suite() {
        let mut labels = Vec::new();
        for (_, spec) in SUITE {
            let spec = spec(Scale::quick());
            for cell in &spec.cells {
                labels.push(cell.label.clone());
            }
        }
        let total = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), total, "duplicate cell label across figures");
        assert!(total >= 50, "the suite declares a substantial cell pool");
    }
}
