//! End-to-end tests of the extensions beyond the paper's evaluation:
//! copy-mode recycling, the CPU-paced future-work prefetcher, the IAT
//! dynamic-ways baseline and the DMA-bloat occupancy gauge at system
//! level.

use idio_core::config::SystemConfig;
use idio_core::net::gen::{BurstSpec, TrafficPattern};
use idio_core::policy::SteeringPolicy;
use idio_core::prefetcher::PrefetchPacing;
use idio_core::stack::nf::NfKind;
use idio_core::system::System;
use idio_engine::time::{Duration, SimTime};

fn base_cfg(rate: f64) -> SystemConfig {
    let spec = BurstSpec::for_ring(1024, 1514, rate, Duration::from_ms(2));
    let mut cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Bursty(spec));
    cfg.duration = SimTime::from_ms(4);
    cfg.drain_grace = Duration::from_ms(2);
    cfg
}

#[test]
fn copy_mode_doubles_ddio_writebacks() {
    let run = |kind| {
        let mut cfg = base_cfg(25.0);
        for t in &mut cfg.tenants {
            t.nf = kind;
        }
        System::new(cfg).run()
    };
    let rtc = run(NfKind::TouchDrop);
    let copy = run(NfKind::TouchDropCopy);
    // The copy stack evicts both the dead DMA lines and the app copies.
    assert!(
        copy.totals.mlc_wb as f64 > 1.8 * rtc.totals.mlc_wb as f64,
        "copy {} vs rtc {}",
        copy.totals.mlc_wb,
        rtc.totals.mlc_wb
    );
    assert_eq!(copy.totals.completed_packets, copy.totals.rx_packets);
}

#[test]
fn copy_mode_idio_removes_only_the_dma_share() {
    let mut cfg = base_cfg(25.0);
    for t in &mut cfg.tenants {
        t.nf = NfKind::TouchDropCopy;
    }
    let r = System::new(cfg.with_policy(SteeringPolicy::Idio)).run();
    // DMA buffers are invalidated (24 lines/packet)...
    assert_eq!(r.totals.self_inval, r.totals.completed_packets * 24);
    // ...but the live application copies still write back.
    assert!(r.totals.mlc_wb > 0, "app-copy writebacks are real data");
}

#[test]
fn cpu_paced_prefetcher_avoids_mlc_flood_at_100g() {
    let queued = System::new(base_cfg(100.0).with_policy(SteeringPolicy::Idio)).run();
    let mut cfg = base_cfg(100.0);
    cfg.prefetcher.pacing = PrefetchPacing::CpuPaced { window_packets: 64 };
    cfg.prefetcher.queue_depth = 64 * 32;
    let paced = System::new(cfg.with_policy(SteeringPolicy::Idio)).run();
    // The paced prefetcher never floods the MLC...
    assert_eq!(paced.totals.mlc_wb, 0, "no MLC writebacks under pacing");
    // ...prefetches every line (deep fills recover leaked lines)...
    assert!(paced.totals.prefetch_fills >= queued.totals.prefetch_fills);
    // ...and processes bursts at least as fast (Sec. VII: "will likely
    // provide more benefit").
    let (qe, pe) = (
        queued.mean_exe_time(1).unwrap(),
        paced.mean_exe_time(1).unwrap(),
    );
    assert!(pe <= qe, "paced {pe} vs queued {qe}");
}

#[test]
fn cpu_paced_matches_queued_at_moderate_rates() {
    let queued = System::new(base_cfg(25.0).with_policy(SteeringPolicy::Idio)).run();
    let mut cfg = base_cfg(25.0);
    cfg.prefetcher.pacing = PrefetchPacing::CpuPaced { window_packets: 64 };
    cfg.prefetcher.queue_depth = 64 * 32;
    let paced = System::new(cfg.with_policy(SteeringPolicy::Idio)).run();
    assert_eq!(paced.totals.prefetch_fills, queued.totals.prefetch_fills);
    assert_eq!(paced.mean_exe_time(1), queued.mean_exe_time(1));
}

#[test]
fn iat_baseline_runs_without_idio_mechanisms() {
    let r = System::new(base_cfg(25.0).with_policy(SteeringPolicy::IatDynamic)).run();
    assert_eq!(r.totals.self_inval, 0);
    assert_eq!(r.totals.prefetch_fills, 0);
    assert_eq!(r.totals.completed_packets, r.totals.rx_packets);
    // Re-partitioning alone cannot remove the MLC writeback stream — the
    // paper's S1 critique of dynamic DDIO policies.
    let ddio = System::new(base_cfg(25.0)).run();
    assert!(r.totals.mlc_wb >= ddio.totals.mlc_wb * 9 / 10);
}

#[test]
fn bloat_gauge_separates_policies() {
    let run = |policy| {
        let mut cfg =
            SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps: 10.0 });
        cfg.duration = SimTime::from_ms(3);
        System::new(cfg.with_policy(policy)).run()
    };
    let ddio = run(SteeringPolicy::Ddio);
    let idio = run(SteeringPolicy::Idio);
    let (ds, is_) = (
        ddio.timelines.dma_llc_share.max_value(),
        idio.timelines.dma_llc_share.max_value(),
    );
    assert!(ds > 0.3, "DDIO bloats the LLC with DMA data: {ds}");
    assert!(is_ < 0.1, "IDIO keeps DMA data out of the LLC: {is_}");
}

#[test]
fn poisson_traffic_runs_end_to_end() {
    let mut cfg = SystemConfig::touchdrop_scenario(
        2,
        TrafficPattern::Poisson {
            rate_gbps: 10.0,
            seed: 11,
        },
    );
    cfg.duration = SimTime::from_ms(2);
    cfg.drain_grace = Duration::from_ms(1);
    let r = System::new(cfg.with_policy(SteeringPolicy::Idio)).run();
    // ~10 Gbps of MTU frames for 2 ms per core: roughly 1650 packets/core.
    assert!(r.totals.rx_packets > 2500, "{}", r.totals.rx_packets);
    assert_eq!(r.totals.completed_packets, r.totals.rx_packets);
    assert!(
        r.bursts.is_empty(),
        "no burst windows for open-loop traffic"
    );
}

#[test]
fn deepfwd_combines_deep_touch_with_tx() {
    let mut cfg = base_cfg(25.0);
    for t in &mut cfg.tenants {
        t.nf = NfKind::DeepFwd;
    }
    let r = System::new(cfg.with_policy(SteeringPolicy::Idio)).run();
    assert_eq!(r.totals.completed_packets, r.totals.rx_packets);
    // Every frame line is read back out by the NIC for TX.
    assert!(r.hierarchy.shared.pcie_reads.get() >= r.totals.rx_packets * 24);
    // Deep inspection touched everything, so the whole frame was
    // prefetchable; invalidation fires after TX and drops the LLC copy.
    assert!(r.totals.self_inval >= r.totals.rx_packets * 24);
}

#[test]
fn atr_steering_learns_from_tx_traffic() {
    use idio_core::config::FlowSteering;
    let mut cfg = base_cfg(25.0);
    cfg.steering = FlowSteering::Atr;
    for t in &mut cfg.tenants {
        t.nf = NfKind::L2Fwd;
    }
    let r = System::new(cfg.with_policy(SteeringPolicy::Idio)).run();
    // RSS spreads the flows initially; after the first forwards, ATR pins
    // them and every packet still completes.
    assert_eq!(r.totals.completed_packets, r.totals.rx_packets);
    assert!(r.totals.rx_drops == 0);
}

#[test]
fn atr_without_tx_stays_on_rss() {
    use idio_core::config::FlowSteering;
    let mut cfg = base_cfg(25.0);
    cfg.steering = FlowSteering::Atr;
    // TouchDrop never transmits, so nothing is ever learned — packets
    // keep flowing via RSS and still complete.
    let r = System::new(cfg.with_policy(SteeringPolicy::Ddio)).run();
    assert_eq!(r.totals.completed_packets, r.totals.rx_packets);
}

#[test]
fn misclassified_dscp_degrades_but_stays_correct() {
    use idio_core::net::packet::Dscp;
    // Failure injection: a deep-inspection workload whose sender wrongly
    // marks it class 1. IDIO sends the payload to DRAM, the core then
    // reads it back from memory — slower, but functionally correct.
    let run = |dscp| {
        let mut cfg = base_cfg(25.0);
        for t in &mut cfg.tenants {
            t.dscp = dscp;
        }
        System::new(cfg.with_policy(SteeringPolicy::Idio)).run()
    };
    let good = run(Dscp::BEST_EFFORT);
    let bad = run(Dscp::CLASS1_DEFAULT);
    assert_eq!(bad.totals.completed_packets, bad.totals.rx_packets);
    // The misclassification forces payload round-trips through DRAM.
    assert!(
        bad.totals.dram_rd > 10 * good.totals.dram_rd.max(1),
        "bad {} vs good {}",
        bad.totals.dram_rd,
        good.totals.dram_rd
    );
    assert!(bad.p99().unwrap() > good.p99().unwrap());
}
