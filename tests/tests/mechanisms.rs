//! End-to-end verification of each IDIO mechanism against the baseline,
//! exercising the NIC classifier → TLP metadata → controller → hierarchy
//! chain through the public API.

use idio_core::config::SystemConfig;
use idio_core::net::gen::{BurstSpec, TrafficPattern};
use idio_core::net::packet::Dscp;
use idio_core::policy::SteeringPolicy;
use idio_core::stack::nf::NfKind;
use idio_core::system::System;
use idio_engine::time::{Duration, SimTime};

fn burst_cfg(rate: f64, policy: SteeringPolicy) -> SystemConfig {
    let spec = BurstSpec::for_ring(1024, 1514, rate, Duration::from_ms(2));
    let mut cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Bursty(spec));
    cfg.duration = SimTime::from_ms(4);
    cfg.drain_grace = Duration::from_ms(2);
    cfg.with_policy(policy)
}

// ---- mechanism 1: self-invalidating I/O buffers ---------------------------

#[test]
fn m1_invalidation_eliminates_dram_write_bandwidth() {
    let ddio = System::new(burst_cfg(25.0, SteeringPolicy::Ddio)).run();
    let idio = System::new(burst_cfg(25.0, SteeringPolicy::Idio)).run();
    assert!(ddio.totals.dram_wr > 10_000, "baseline leaks to DRAM");
    // Fig. 10: "IDIO almost eliminates DRAM write bandwidth".
    assert!(
        idio.totals.dram_wr * 50 < ddio.totals.dram_wr,
        "idio {} vs ddio {}",
        idio.totals.dram_wr,
        ddio.totals.dram_wr
    );
}

#[test]
fn m1_invalidations_cover_consumed_buffers() {
    let r = System::new(burst_cfg(25.0, SteeringPolicy::Idio)).run();
    // TouchDrop invalidates 24 lines per 1514-byte packet.
    assert_eq!(r.totals.self_inval, r.totals.completed_packets * 24);
}

// ---- mechanism 2: network-driven MLC prefetching ---------------------------

#[test]
fn m2_fsm_regulates_mlc_pressure_at_100g() {
    let stat = System::new(burst_cfg(100.0, SteeringPolicy::StaticIdio)).run();
    let idio = System::new(burst_cfg(100.0, SteeringPolicy::Idio)).run();
    // Sec. VII: Static lets the MLC writeback rate exceed mlcTHR (50 MTPS
    // per core); dynamic IDIO clamps it by disabling prefetching.
    let static_peak = stat.timelines.mlc_wb.max_value();
    let idio_peak = idio.timelines.mlc_wb.max_value();
    assert!(static_peak > 150.0, "static peak {static_peak}");
    assert!(
        idio_peak < static_peak / 1.5,
        "idio {idio_peak} vs static {static_peak}"
    );
}

#[test]
fn m2_static_equals_idio_at_moderate_rates() {
    // Sec. VII: "For lower burst rates like 25Gbps, there is no difference
    // between Static and IDIO".
    let stat = System::new(burst_cfg(25.0, SteeringPolicy::StaticIdio)).run();
    let idio = System::new(burst_cfg(25.0, SteeringPolicy::Idio)).run();
    assert_eq!(stat.totals.prefetch_fills, idio.totals.prefetch_fills);
    assert_eq!(stat.totals.mlc_wb, idio.totals.mlc_wb);
    assert_eq!(stat.mean_exe_time(1), idio.mean_exe_time(1));
}

#[test]
fn m2_headers_are_prefetched_even_when_payload_is_not() {
    // At a rate below rxBurstTHR no bursts are signalled, so payload stays
    // in the LLC; headers still go to the MLC. 1024-byte frames at 5 Gbps
    // arrive 1.64 us apart, so no 1 us window ever holds more than the
    // 1024 bytes of one frame, under the 1250-byte threshold.
    let mut cfg = SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 5.0 });
    cfg.tenants[0].packet_len = 1024;
    cfg.duration = SimTime::from_ms(1);
    let r = System::new(cfg.with_policy(SteeringPolicy::Idio)).run();
    assert!(r.totals.prefetch_fills > 0, "headers still admitted");
    // Only ~1 line per packet is prefetched (header), not the payload.
    assert!(
        r.totals.prefetch_fills < r.totals.rx_packets * 3,
        "{} fills for {} packets",
        r.totals.prefetch_fills,
        r.totals.rx_packets
    );
}

// ---- mechanism 3: selective direct DRAM access ------------------------------

#[test]
fn m3_class1_payload_bypasses_the_llc() {
    let make = |policy| {
        let spec = BurstSpec::for_ring(512, 1514, 25.0, Duration::from_ms(1));
        let mut cfg = SystemConfig::touchdrop_scenario(1, TrafficPattern::Bursty(spec));
        cfg.ring_size = 512;
        for t in &mut cfg.tenants {
            t.nf = NfKind::L2FwdPayloadDrop;
            t.dscp = Dscp::CLASS1_DEFAULT;
        }
        cfg.duration = SimTime::from_ms(2);
        cfg.drain_grace = Duration::from_ms(1);
        System::new(cfg.with_policy(policy)).run()
    };
    let idio = make(SteeringPolicy::Idio);
    // Every payload line (23 per packet) goes straight to DRAM.
    assert_eq!(
        idio.hierarchy.shared.dma_direct_dram.get(),
        idio.totals.rx_packets * 23
    );
    assert_eq!(idio.totals.llc_wb, 0, "LLC untouched by the payload");
    // DDIO without the mechanism thrashes the LLC instead.
    let ddio = make(SteeringPolicy::Ddio);
    assert_eq!(ddio.hierarchy.shared.dma_direct_dram.get(), 0);
    assert!(ddio.totals.llc_wb > 10_000);
}

#[test]
fn m3_class1_header_stays_on_chip() {
    let spec = BurstSpec::for_ring(512, 1514, 25.0, Duration::from_ms(1));
    let mut cfg = SystemConfig::touchdrop_scenario(1, TrafficPattern::Bursty(spec));
    cfg.ring_size = 512;
    for t in &mut cfg.tenants {
        t.nf = NfKind::L2FwdPayloadDrop;
        t.dscp = Dscp::CLASS1_DEFAULT;
    }
    cfg.duration = SimTime::from_ms(2);
    cfg.drain_grace = Duration::from_ms(1);
    let r = System::new(cfg.with_policy(SteeringPolicy::Idio)).run();
    // Headers are prefetched into the MLC (1 per packet), so header reads
    // hit on-chip. The only DRAM reads are the cold-start write-allocate
    // fills of the mbuf metadata (2 lines per ring slot, first pass only).
    assert!(r.totals.prefetch_fills >= r.totals.rx_packets);
    let cold_meta_fills = 2 * 512 + 64;
    assert!(
        r.totals.dram_rd <= cold_meta_fills,
        "dram_rd {} exceeds cold-start bound {}",
        r.totals.dram_rd,
        cold_meta_fills
    );
}

// ---- synergy ----------------------------------------------------------------

#[test]
fn synergy_beats_individual_mechanisms_at_25g() {
    // Fig. 9: invalidation alone removes writebacks but not execution
    // time; prefetching alone shortens execution but keeps writebacks;
    // both together do both.
    let inv = System::new(burst_cfg(25.0, SteeringPolicy::InvalidateOnly)).run();
    let pf = System::new(burst_cfg(25.0, SteeringPolicy::PrefetchOnly)).run();
    let idio = System::new(burst_cfg(25.0, SteeringPolicy::Idio)).run();

    let exe = |r: &idio_core::report::RunReport| r.mean_exe_time(1).unwrap();
    assert!(exe(&idio) < exe(&inv), "idio beats invalidate-only exe");
    assert!(
        idio.totals.mlc_wb < pf.totals.mlc_wb / 10,
        "idio beats prefetch-only writebacks"
    );
}
