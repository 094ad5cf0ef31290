//! Table I conformance: the default simulated system matches the paper's
//! configuration (with the Fig. 5 LLC scaling used for all burst
//! experiments), and Table I prints what the model uses.

use idio_core::cache::hierarchy::HitLevel;
use idio_core::config::SystemConfig;
use idio_core::controller::{AVG_WINDOW, CONTROL_INTERVAL};
use idio_core::net::gen::TrafficPattern;
use idio_core::nic::classifier::{BURST_WINDOW, RX_BURST_THR_BYTES};
use idio_core::stack::pmd::DEFAULT_BATCH;
use idio_core::stack::timing::{CoreTiming, FREQ, PER_LINE_WORK_CYCLES};
use idio_engine::time::{Duration, Freq};

fn cfg() -> SystemConfig {
    SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps: 10.0 })
}

#[test]
fn core_frequency_is_3ghz() {
    assert_eq!(FREQ, Freq::from_ghz(3.0));
}

#[test]
fn cache_geometry_matches_table1() {
    let h = cfg().hierarchy;
    // I/D/L2/L3 (per core size, assoc): 64KB,2 / 1MB,8 / (scaled LLC),12.
    assert_eq!(h.l1d.size_bytes, 64 << 10);
    assert_eq!(h.l1d.ways, 2);
    assert_eq!(h.mlc.size_bytes, 1 << 20);
    assert_eq!(h.mlc.ways, 8);
    // Fig. 5: "we scale down the LLC size in gem5 to 3MB and run only two
    // TouchDrop instances".
    assert_eq!(h.llc.size_bytes, 3 << 20);
    assert_eq!(h.llc.ways, 12);
    assert_eq!(h.ddio_ways, 2);
}

/// The cycles `CoreTiming::hit_cost` charges for a hit at `level`,
/// without the per-line work every access adds.
fn charged_cycles(level: HitLevel) -> u64 {
    let work = FREQ.cycles_to_duration(PER_LINE_WORK_CYCLES);
    (CoreTiming::hit_cost(level) - work).as_ps() / FREQ.ps_per_cycle()
}

/// The latency, in cycles, that Table I prints in row `parameter`
/// (a value such as `1 MiB, 8, 14 CC`).
fn table1_cycles(parameter: &str) -> u64 {
    let t = idio_core::experiments::table1();
    let row = t.rows.iter().find(|r| r[0] == parameter).expect(parameter);
    let lat = row[1].rsplit(", ").next().unwrap();
    lat.strip_suffix(" CC").unwrap().parse().unwrap()
}

#[test]
fn cache_latencies_match_table1() {
    // Table I's L1D latency; the MLC and LLC charge lookup overheads and
    // the mesh round trip on top of Table I's 12 and 24 CC.
    assert_eq!(charged_cycles(HitLevel::L1), 2);
    assert_eq!(charged_cycles(HitLevel::Mlc), 14);
    assert_eq!(charged_cycles(HitLevel::Llc), 60);
}

#[test]
fn table1_prints_the_latencies_the_timing_model_charges() {
    for (parameter, level) in [
        ("L1D (size, assoc, lat)", HitLevel::L1),
        ("MLC (size, assoc, lat)", HitLevel::Mlc),
        ("LLC (size, assoc, lat)", HitLevel::Llc),
    ] {
        assert_eq!(
            table1_cycles(parameter),
            charged_cycles(level),
            "{parameter}"
        );
    }
}

#[test]
fn network_software_matches_section6() {
    let c = cfg();
    // DPDK defaults: 1024-entry rings, batch of 32, 1514-byte packets.
    assert_eq!(c.ring_size, 1024);
    assert_eq!(DEFAULT_BATCH, 32);
    assert!(c.tenants.iter().all(|t| t.packet_len == 1514));
}

#[test]
fn idio_thresholds_match_section6() {
    let c = cfg();
    // rxBurstTHR = 10 Gbps over a 1 us window = 1250 bytes.
    assert_eq!(RX_BURST_THR_BYTES, 1250);
    assert_eq!(BURST_WINDOW, Duration::from_us(1));
    // mlcTHR = 50 MTPS = 50 writebacks per 1 us interval.
    assert_eq!(c.idio.mlc_thr, 50);
    assert_eq!(CONTROL_INTERVAL, Duration::from_us(1));
    // mlcWBAvg window: 8192 consecutive samples.
    assert_eq!(AVG_WINDOW, 8192);
    // Default MLC prefetcher queue size: 32 requests (Sec. V-C).
    assert_eq!(c.prefetcher.queue_depth, 32);
}

#[test]
fn dram_matches_table1() {
    // DDR4-3200: 25.6 GB/s per channel moves a 64-byte line in 2.5 ns,
    // over two channels.
    assert_eq!(idio_core::mem::LINE_SERVICE, Duration::from_ps(2500));
    assert_eq!(idio_core::mem::CHANNELS, 2);
}

#[test]
fn antagonist_core_gets_256kb_mlc() {
    let c = SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps: 1.0 })
        .with_antagonist();
    let sys = idio_core::system::System::new(c);
    let h = sys.hierarchy();
    assert_eq!(
        h.mlc(idio_core::cache::addr::CoreId::new(2))
            .capacity_lines(),
        (256 << 10) / 64
    );
    assert_eq!(
        h.mlc(idio_core::cache::addr::CoreId::new(0))
            .capacity_lines(),
        (1 << 20) / 64
    );
}
