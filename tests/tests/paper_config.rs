//! Table I conformance: the default simulated system matches the paper's
//! configuration (with the Fig. 5 LLC scaling used for all burst
//! experiments).

use idio_core::config::SystemConfig;
use idio_core::net::gen::TrafficPattern;
use idio_engine::time::Duration;

fn cfg() -> SystemConfig {
    SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps: 10.0 })
}

#[test]
fn core_frequency_is_3ghz() {
    assert_eq!(cfg().timing.freq, idio_engine::time::Freq::from_ghz(3.0));
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

#[test]
fn cache_latencies_match_table1() {
    let h = cfg().hierarchy;
    assert_eq!(h.l1d.latency_cycles, 2);
    assert_eq!(h.mlc.latency_cycles, 12);
    assert_eq!(h.llc.latency_cycles, 24);
}

#[test]
fn network_software_matches_section6() {
    let c = cfg();
    // DPDK defaults: 1024-entry rings, batch of 32, 1514-byte packets.
    assert_eq!(c.ring_size, 1024);
    assert_eq!(c.pmd.batch_size, 32);
    assert!(c.tenants.iter().all(|t| t.packet_len == 1514));
}

#[test]
fn idio_thresholds_match_section6() {
    let c = cfg();
    // rxBurstTHR = 10 Gbps over a 1 us window = 1250 bytes.
    assert_eq!(c.classifier.rx_burst_thr_bytes, 1250);
    assert_eq!(c.classifier.burst_window, Duration::from_us(1));
    // mlcTHR = 50 MTPS = 50 writebacks per 1 us interval.
    assert_eq!(c.idio.mlc_thr, 50);
    assert_eq!(c.idio.control_interval, Duration::from_us(1));
    // mlcWBAvg window: 8192 consecutive samples.
    assert_eq!(c.idio.avg_window, 8192);
    // Default MLC prefetcher queue size: 32 requests (Sec. V-C).
    assert_eq!(c.prefetcher.queue_depth, 32);
}

#[test]
fn dram_matches_table1() {
    let c = cfg();
    // DDR4-3200: 25.6 GB/s per channel.
    assert!((c.dram.channel_bytes_per_sec - 25.6e9).abs() < 1e6);
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
