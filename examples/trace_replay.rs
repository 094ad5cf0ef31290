//! Trace-driven replay: record a stochastic arrival sequence, write it in
//! the trace-file format, read it back, and replay the *same* packets
//! through DDIO and IDIO — apples-to-apples comparison on identical
//! traffic.
//!
//! ```text
//! cargo run -p idio-examples --release --bin trace-replay
//! ```

use idio_core::config::{SystemConfig, TenantSpec};
use idio_core::net::gen::{Arrival, FlowSpec, TrafficGen, TrafficPattern};
use idio_core::net::trace::{read_trace, write_trace};
use idio_core::policy::SteeringPolicy;
use idio_core::stack::nf::NfKind;
use idio_core::system::System;
use idio_engine::time::{Duration, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Record: 3 ms of Poisson traffic at 15 Gbps per core.
    let horizon = SimTime::from_ms(3);
    let mut traces = Vec::new();
    for core in 0..2u16 {
        let gen = TrafficGen::new(
            FlowSpec::udp_to_port(5000 + core, 1514),
            TrafficPattern::Poisson {
                rate_gbps: 15.0,
                seed: 0xACE + u64::from(core),
            },
            horizon,
        );
        traces.push(gen.collect::<Vec<_>>());
    }

    // 2. Serialise and re-parse through the trace-file format, in memory.
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &traces[0])?;
    let replayed = read_trace(bytes.as_slice())?;
    println!(
        "recorded {} arrivals to a {}-byte trace and read {} back",
        traces[0].len(),
        bytes.len(),
        replayed.len()
    );

    // 3. Replay the identical traffic under both policies: each core's
    //    trace drives a replay tenant that owns that core's queue.
    let replay_tenant = |core: u16, arrivals: &[Arrival]| {
        let unused = TrafficPattern::Steady { rate_gbps: 15.0 }; // a replay brings its own
        TenantSpec::new(
            format!("replay{core}"),
            NfKind::TouchDrop,
            vec![core],
            1,
            5000 + core,
            unused,
            1514,
        )
        .with_replay(arrivals.to_vec())
    };
    for policy in [SteeringPolicy::Ddio, SteeringPolicy::Idio] {
        let mut cfg = SystemConfig::paper_default(2);
        cfg.duration = horizon;
        cfg.drain_grace = Duration::from_ms(2);
        cfg.tenants = vec![replay_tenant(0, &replayed), replay_tenant(1, &traces[1])];
        let report = System::new(cfg.with_policy(policy)).run();
        println!(
            "[{policy}] completed {} / {} packets, mlc_wb {}, llc_wb {}, p99 {}",
            report.totals.completed_packets,
            report.totals.rx_packets,
            report.totals.mlc_wb,
            report.totals.llc_wb,
            report.p99().expect("packets completed"),
        );
    }
    Ok(())
}
