//! Selective direct DRAM access (IDIO mechanism 3, Sec. VII): a
//! DoS-style shallow firewall (L2FwdPayloadDrop) inspects headers only and
//! drops payloads untouched. The sender marks the flow application class 1
//! via the DSCP field; IDIO then writes the payload lines straight to
//! DRAM, keeping the LLC free for workloads that actually use it.
//!
//! ```text
//! cargo run -p idio-examples --release --bin direct-dram
//! ```

use idio_core::config::SystemConfig;
use idio_core::net::packet::Dscp;
use idio_core::policy::SteeringPolicy;
use idio_core::stack::nf::NfKind;
use idio_core::system::System;
use idio_engine::time::{Duration, SimTime};
use idio_net::gen::{BurstSpec, TrafficPattern};

fn main() {
    let period = Duration::from_ms(5);
    let spec = BurstSpec::for_ring(1024, 1514, 25.0, period);
    for policy in [SteeringPolicy::Ddio, SteeringPolicy::Idio] {
        let mut cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Bursty(spec));
        for t in &mut cfg.tenants {
            t.nf = NfKind::L2FwdPayloadDrop;
            // The sending application sets the class-1 code point on its
            // socket (setsockopt on the DS field, Sec. V-A).
            t.dscp = Dscp::CLASS1_DEFAULT;
        }
        cfg.duration = SimTime::ZERO + period * 3;
        cfg.drain_grace = period;
        let report = System::new(cfg.with_policy(policy)).run();

        let payload_lines = report.totals.rx_packets * 23;
        println!("[{policy}]");
        println!(
            "  packets: {}   payload lines delivered: {}",
            report.totals.rx_packets, payload_lines
        );
        println!(
            "  payload lines written directly to DRAM: {}",
            report.hierarchy.shared.dma_direct_dram.get()
        );
        println!(
            "  DDIO way allocations: {}   LLC writebacks: {}",
            report.hierarchy.shared.ddio_allocs.get(),
            report.totals.llc_wb
        );
        println!(
            "  DRAM write bandwidth / RX payload bandwidth: {:.3}",
            report.totals.dram_wr as f64 / payload_lines.max(1) as f64
        );
        println!();
    }
    println!(
        "Under IDIO the DRAM write rate equals the RX payload rate and the\n\
         DDIO ways only carry headers and descriptors — the LLC is isolated\n\
         from the never-read payload stream."
    );
}
