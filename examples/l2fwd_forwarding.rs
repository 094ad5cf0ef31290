//! Zero-copy forwarding (the paper's Fig. 11 scenario): two L2Fwd
//! instances receive 1024-byte frames, rewrite the Ethernet header, and
//! transmit the same buffer back out. Under DDIO the untouched payload
//! churns through the LLC; under IDIO it is admitted to the MLC and the
//! buffer is invalidated once the TX read completes.
//!
//! ```text
//! cargo run -p idio-examples --release --bin l2fwd-forwarding
//! ```

use idio_core::config::SystemConfig;
use idio_core::policy::SteeringPolicy;
use idio_core::stack::nf::NfKind;
use idio_core::system::System;
use idio_engine::time::{Duration, SimTime};
use idio_net::gen::{BurstSpec, TrafficPattern};

fn main() {
    let period = Duration::from_ms(5);
    let spec = BurstSpec::for_ring(1024, 1024, 25.0, period);
    for policy in [SteeringPolicy::Ddio, SteeringPolicy::Idio] {
        let mut cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Bursty(spec));
        for t in &mut cfg.tenants {
            t.nf = NfKind::L2Fwd;
            t.packet_len = 1024;
        }
        cfg.duration = SimTime::ZERO + period * 3;
        cfg.drain_grace = period;
        let report = System::new(cfg.with_policy(policy)).run();

        println!("[{policy}]");
        println!(
            "  forwarded: {} packets   ring drops: {}",
            report.totals.completed_packets, report.totals.rx_drops
        );
        println!(
            "  MLC writebacks: {:>8}  (MLC activity under DDIO is headers only)",
            report.totals.mlc_wb
        );
        println!(
            "  LLC writebacks: {:>8}  DRAM writes: {}",
            report.totals.llc_wb, report.totals.dram_wr
        );
        println!(
            "  data admitted to MLC by prefetching: {} lines",
            report.totals.prefetch_fills
        );
        if let Some((core, lat)) = report.latency.first() {
            println!(
                "  {core} forwarding latency: p50 {} / p99 {}",
                lat.p50, lat.p99
            );
        }
        println!();
    }
    println!(
        "IDIO turns the growing LLC-writeback stream of the shallow NF into\n\
         MLC admissions plus post-TX invalidations (Sec. VII, Fig. 11)."
    );
}
