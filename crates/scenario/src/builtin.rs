//! The built-in scenarios: curated mixed workloads exercising the
//! steering policies under multi-tenant pressure.
//!
//! Each built-in is golden-tested (byte-stable JSON report), so their
//! parameters are part of the repo's regression surface — change them
//! deliberately and re-bless.

use idio_core::config::FlowSteering;
use idio_core::net::gen::{Arrival, BurstSpec, FlowSet, MultiFlowGen, TrafficPattern};
use idio_core::net::packet::Dscp;
use idio_core::net::trace::{read_trace, write_trace};
use idio_core::policy::{CatMode, PolicyCaps, PolicySpec, SteeringPolicy};
use idio_core::pool::PoolSpec;
use idio_core::stack::nf::{ChainStage, NfChain, NfKind};
use idio_engine::time::{Duration, SimTime};

use crate::spec::{Scenario, SloSpec, TenantSpec};

/// Traffic horizon shared by the built-ins (short enough for debug-mode
/// golden tests, long enough for thousands of packets per tenant).
const HORIZON: SimTime = SimTime::from_us(400);

/// Drain grace shared by the built-ins.
const GRACE: Duration = Duration::from_us(300);

/// Longer horizon for the CAT scenarios: the copy-mode victims' app
/// arena only recycles after a full ring rotation (~1.2 ms per queue at
/// 10 Gb/s / 1514 B with the default 1024-slot ring), and CAT retention
/// only pays off once surviving LLC copies are re-referenced.
const CAT_HORIZON: SimTime = SimTime::from_us(1500);

/// Names of the built-in scenarios, in listing order.
pub fn builtin_names() -> [&'static str; 9] {
    [
        "noisy-neighbor",
        "incast",
        "mixed-rate",
        "trace-replay",
        "llc-duel",
        "cat-duel",
        "upf-chain",
        "recycle-duel",
        "flow-churn",
    ]
}

/// All built-in scenarios, in listing order.
pub fn builtins() -> Vec<Scenario> {
    builtin_names()
        .iter()
        .map(|n| builtin(n).expect("listed name"))
        .collect()
}

/// Looks up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<Scenario> {
    match name {
        "noisy-neighbor" => Some(noisy_neighbor()),
        "incast" => Some(incast()),
        "mixed-rate" => Some(mixed_rate()),
        "trace-replay" => Some(trace_replay()),
        "llc-duel" => Some(llc_duel()),
        "cat-duel" => Some(cat_duel()),
        "upf-chain" => Some(upf_chain()),
        "recycle-duel" => Some(recycle_duel()),
        "flow-churn" => Some(flow_churn()),
        _ => None,
    }
}

/// IDIO caps plus a closed-loop CAT slice (`cat = auto`).
fn idio_with_auto_cat() -> PolicySpec {
    PolicySpec::Custom(PolicyCaps {
        cat: CatMode::Auto,
        ..SteeringPolicy::Idio.caps()
    })
}

/// A latency-sensitive tenant sharing the LLC with a bandwidth hog —
/// the Sec. VI antagonist question asked at the tenant level.
fn noisy_neighbor() -> Scenario {
    Scenario {
        name: "noisy-neighbor".into(),
        description: "Poisson latency-sensitive tenant vs. a steady bulk-bandwidth hog".into(),
        policy: SteeringPolicy::Idio,
        steering: FlowSteering::Perfect,
        duration: HORIZON,
        perfect_filters: None,
        atr_lifetime: None,
        pool_idle_flush: None,
        drain_grace: GRACE,
        tenants: vec![
            TenantSpec::new(
                "latency",
                NfKind::TouchDrop,
                vec![0, 1],
                8,
                5000,
                TrafficPattern::Poisson {
                    rate_gbps: 6.0,
                    seed: 0x1D10,
                },
                512,
            ),
            TenantSpec::new(
                "bulk",
                NfKind::TouchDrop,
                vec![2, 3],
                4,
                6000,
                TrafficPattern::Steady { rate_gbps: 30.0 },
                1514,
            ),
        ],
    }
}

/// Many short flows fanning into two cores in synchronized bursts (the
/// classic incast pattern), over a steady background tenant, under plain
/// DDIO — the regime where DMA bloating shows up.
fn incast() -> Scenario {
    Scenario {
        name: "incast".into(),
        description: "32 short bursty flows fanning into two cores over a steady background".into(),
        policy: SteeringPolicy::Ddio,
        steering: FlowSteering::Perfect,
        duration: HORIZON,
        perfect_filters: None,
        atr_lifetime: None,
        pool_idle_flush: None,
        drain_grace: GRACE,
        tenants: vec![
            TenantSpec::new(
                "incast",
                NfKind::TouchDrop,
                vec![0, 1],
                32,
                5000,
                TrafficPattern::Bursty(BurstSpec::for_ring(256, 256, 40.0, Duration::from_us(100))),
                256,
            ),
            TenantSpec::new(
                "background",
                NfKind::TouchDrop,
                vec![2],
                2,
                7000,
                TrafficPattern::Steady { rate_gbps: 10.0 },
                1514,
            ),
        ],
    }
}

/// Three tenants at very different rates and NF classes, including a
/// class-1 payload-drop tenant whose payloads IDIO sends direct to DRAM.
fn mixed_rate() -> Scenario {
    Scenario {
        name: "mixed-rate".into(),
        description: "slow copy-mode, mid forwarding and fast class-1 tenants under IDIO".into(),
        policy: SteeringPolicy::Idio,
        steering: FlowSteering::Perfect,
        duration: HORIZON,
        perfect_filters: None,
        atr_lifetime: None,
        pool_idle_flush: None,
        drain_grace: GRACE,
        tenants: vec![
            TenantSpec::new(
                "slow",
                NfKind::TouchDropCopy,
                vec![0],
                2,
                5000,
                TrafficPattern::Steady { rate_gbps: 4.0 },
                1024,
            ),
            TenantSpec::new(
                "mid",
                NfKind::L2Fwd,
                vec![1],
                4,
                6000,
                TrafficPattern::Steady { rate_gbps: 12.0 },
                1514,
            ),
            TenantSpec::new(
                "fast",
                NfKind::L2FwdPayloadDrop,
                vec![2, 3],
                8,
                7000,
                TrafficPattern::Steady { rate_gbps: 30.0 },
                1514,
            )
            .with_dscp(Dscp::CLASS1_DEFAULT),
        ],
    }
}

/// The arrivals of the trace-replay tenant: a multi-flow Poisson stream
/// recorded to the line-oriented trace format and parsed back, so the
/// scenario exercises the real writer/reader pair end to end (times are
/// nanosecond-quantised by the format, exactly as an external capture
/// would be).
fn replayed_arrivals() -> Vec<Arrival> {
    let gen = MultiFlowGen::streaming(
        FlowSet::new(0, 4, 5000, 1024, Dscp::BEST_EFFORT),
        TrafficPattern::Poisson {
            rate_gbps: 10.0,
            seed: 0x7ACE,
        },
        HORIZON,
    );
    let recorded: Vec<Arrival> = gen.collect();
    let mut buf = Vec::new();
    write_trace(&mut buf, &recorded).expect("in-memory trace write cannot fail");
    read_trace(buf.as_slice()).expect("recorded trace parses back")
}

/// A tenant replaying a recorded multi-flow trace next to a live
/// synthetic tenant; the trace's flows are pinned first-seen round-robin
/// across the replay tenant's queues.
fn trace_replay() -> Scenario {
    Scenario {
        name: "trace-replay".into(),
        description: "recorded multi-flow trace replayed next to a live forwarding tenant".into(),
        policy: SteeringPolicy::Idio,
        steering: FlowSteering::Perfect,
        duration: HORIZON,
        perfect_filters: None,
        atr_lifetime: None,
        pool_idle_flush: None,
        drain_grace: GRACE,
        tenants: vec![
            TenantSpec::new(
                "replay",
                NfKind::TouchDrop,
                vec![0, 1],
                4,
                5000,
                TrafficPattern::Poisson {
                    rate_gbps: 10.0,
                    seed: 0x7ACE,
                },
                1024,
            )
            .with_replay(replayed_arrivals()),
            TenantSpec::new(
                "live",
                NfKind::L2Fwd,
                vec![2],
                2,
                7000,
                TrafficPattern::Steady { rate_gbps: 8.0 },
                1514,
            ),
        ],
    }
}

/// A mixed-policy duel over the LLC's DDIO ways: an IDIO-steered
/// latency-sensitive victim against a bandwidth attacker pinned to plain
/// DDIO via a per-tenant policy override — the two tenants run *in the
/// same mixed cell* under different steering policies, which only the
/// layered policy table can express. The victim additionally carries SLO
/// bounds asserted against the mixed run.
fn llc_duel() -> Scenario {
    Scenario {
        name: "llc-duel".into(),
        description: "IDIO victim vs. DDIO-pinned attacker fighting over the DDIO ways".into(),
        policy: SteeringPolicy::Idio,
        steering: FlowSteering::Perfect,
        duration: CAT_HORIZON,
        perfect_filters: None,
        atr_lifetime: None,
        pool_idle_flush: None,
        drain_grace: GRACE,
        tenants: vec![
            TenantSpec::new(
                "victim",
                NfKind::TouchDropCopy,
                vec![0],
                8,
                5000,
                TrafficPattern::Poisson {
                    rate_gbps: 10.0,
                    seed: 0xD0E1,
                },
                1514,
            )
            // Same preset as the scenario default: behaviorally a no-op,
            // but it labels the victim's policy in the report next to the
            // attacker's.
            .with_policy(SteeringPolicy::Idio)
            .with_slo(SloSpec {
                max_p99_ns: Some(2_000_000),
                max_drop_rate: Some(0.01),
            }),
            TenantSpec::new(
                "attacker",
                NfKind::TouchDropCopy,
                vec![1, 2],
                4,
                6000,
                TrafficPattern::Steady { rate_gbps: 30.0 },
                1514,
            )
            // The override that makes it a duel: the attacker's queues
            // run classic DDIO while the victim's run IDIO. Copy-mode
            // keeps the attacker's MLC victims cascading into the shared
            // LLC ways, so the pool the unprotected victim lives in is
            // under constant churn.
            .with_policy(SteeringPolicy::Ddio),
            // A second, identical victim whose policy adds a closed-loop
            // CAT slice: same arrival process (same seed), same SLO, so
            // the report is a controlled CAT-vs-no-CAT comparison inside
            // one mixed run.
            TenantSpec::new(
                "victim-cat",
                NfKind::TouchDropCopy,
                vec![3],
                8,
                7000,
                TrafficPattern::Poisson {
                    rate_gbps: 10.0,
                    seed: 0xD0E1,
                },
                1514,
            )
            .with_policy(idio_with_auto_cat())
            .with_slo(SloSpec {
                max_p99_ns: Some(2_000_000),
                max_drop_rate: Some(0.01),
            }),
        ],
    }
}

/// Controller-vs-controller over the same LLC: an IAT tenant that widens
/// the DDIO partition from the bottom, a CAT tenant that carves an
/// exclusive core-side slice from the top, a tenant running both loops
/// at once, and a DDIO-pinned bandwidth attacker squeezing all three.
/// Exercises the two allocators' non-collision invariant (DDIO grows
/// bottom-up, CAT slices are carved top-down and re-planned whenever the
/// IAT tuner moves the boundary).
fn cat_duel() -> Scenario {
    let latency = |name: &str, cores: Vec<u16>, port: u16, seed: u64| {
        TenantSpec::new(
            name,
            NfKind::TouchDropCopy,
            cores,
            8,
            port,
            TrafficPattern::Poisson {
                rate_gbps: 10.0,
                seed,
            },
            1514,
        )
        .with_slo(SloSpec {
            max_p99_ns: Some(2_000_000),
            max_drop_rate: Some(0.01),
        })
    };
    Scenario {
        name: "cat-duel".into(),
        description: "IAT vs CAT vs combined latency tenants under a DDIO bandwidth attacker"
            .into(),
        policy: SteeringPolicy::Idio,
        steering: FlowSteering::Perfect,
        duration: CAT_HORIZON,
        perfect_filters: None,
        atr_lifetime: None,
        pool_idle_flush: None,
        drain_grace: GRACE,
        tenants: vec![
            latency("iat", vec![0], 5000, 0xCA70).with_policy(SteeringPolicy::IatDynamic),
            latency("cat", vec![1], 6000, 0xCA71).with_policy(idio_with_auto_cat()),
            latency("both", vec![2], 7000, 0xCA72).with_policy(PolicySpec::Custom(PolicyCaps {
                cat: CatMode::Auto,
                ..SteeringPolicy::IatDynamic.caps()
            })),
            TenantSpec::new(
                "attacker",
                NfKind::TouchDropCopy,
                vec![3, 4],
                4,
                8000,
                TrafficPattern::Steady { rate_gbps: 30.0 },
                1514,
            )
            .with_policy(SteeringPolicy::Ddio),
        ],
    }
}

/// The 5GC²ache shape: a chained UPF pipeline (parse → classify →
/// rewrite → forward) on a recycling mbuf pool, next to a deep-inspection
/// chain that drops — the two chain flavours (TX-freeing and drop-freeing)
/// in one mixed run, both with per-stage latency telemetry.
fn upf_chain() -> Scenario {
    Scenario {
        name: "upf-chain".into(),
        description: "chained UPF pipeline on a recycling pool next to a DPI drop chain".into(),
        policy: SteeringPolicy::Idio,
        steering: FlowSteering::Perfect,
        duration: HORIZON,
        perfect_filters: None,
        atr_lifetime: None,
        pool_idle_flush: None,
        drain_grace: GRACE,
        tenants: vec![
            TenantSpec::new(
                "upf",
                NfKind::Chain(NfChain::upf()),
                vec![0, 1],
                8,
                5000,
                TrafficPattern::Poisson {
                    rate_gbps: 8.0,
                    seed: 0x56C2,
                },
                1514,
            )
            .with_pool(PoolSpec::Recycle { slots: None }),
            TenantSpec::new(
                "dpi",
                NfKind::Chain(
                    NfChain::new(&[ChainStage::Parse, ChainStage::Classify, ChainStage::Inspect])
                        .expect("static chain is valid"),
                ),
                vec![2],
                4,
                6000,
                TrafficPattern::Steady { rate_gbps: 6.0 },
                1024,
            ),
        ],
    }
}

/// RDCA's question as a controlled twin experiment: two identical
/// forwarding-chain tenants with the same Poisson arrival process (same
/// seed), one on an LLC-resident recycling pool, one on an explicit
/// status-quo DRAM pool. The Recycle tenant's DMA working set stays
/// bounded by its DDIO share while the Dram twin's buffers sprawl —
/// `pool.*` counters and `--tick-metrics` show the divergence directly.
fn recycle_duel() -> Scenario {
    let twin = |name: &str, cores: Vec<u16>, port: u16, pool: PoolSpec| {
        TenantSpec::new(
            name,
            NfKind::Chain(NfChain::upf()),
            cores,
            8,
            port,
            TrafficPattern::Poisson {
                rate_gbps: 12.0,
                seed: 0x2DCA,
            },
            1514,
        )
        .with_pool(pool)
    };
    Scenario {
        name: "recycle-duel".into(),
        description: "identical UPF-chain twins: recycling pool vs status-quo DRAM buffers".into(),
        policy: SteeringPolicy::Idio,
        steering: FlowSteering::Perfect,
        duration: HORIZON,
        perfect_filters: None,
        atr_lifetime: None,
        pool_idle_flush: None,
        drain_grace: GRACE,
        tenants: vec![
            twin("recycle", vec![0], 5000, PoolSpec::Recycle { slots: None }),
            twin("dram", vec![1], 6000, PoolSpec::Dram),
        ],
    }
}

/// The flow-scale sweep: three tenants whose flow counts span three
/// orders of magnitude (1 K → 64 K → 1 M) against a deliberately small
/// perfect-filter table, so the report shows the Sec. II-C steering
/// shift directly — the 1 K tenant mostly rides pinned perfect filters
/// and ATR re-learning, the 64 K churning tenant keeps evicting and
/// re-installing filters, and the 1 M tenant falls through to RSS with
/// the p99 cost of landing in the wrong core's MLC. Flow state is
/// streamed (no per-flow allocation), so the 1 M tenant costs the same
/// memory as the 1 K one.
fn flow_churn() -> Scenario {
    Scenario {
        name: "flow-churn".into(),
        description: "1K/64K/1M-flow tenants degrading from perfect filters through ATR to RSS"
            .into(),
        policy: SteeringPolicy::Idio,
        steering: FlowSteering::Perfect,
        duration: HORIZON,
        // 384 perfect filters across three tenants: a 128-filter budget
        // each, far under every tenant's flow count.
        perfect_filters: Some(384),
        atr_lifetime: Some(Duration::from_us(150)),
        pool_idle_flush: None,
        drain_grace: GRACE,
        tenants: vec![
            // 1 K flows at a revisit period (~105 us) inside the ATR
            // lifetime: unpinned flows are learned on first completion
            // and steer by filter table from their second visit on.
            TenantSpec::new(
                "small-1k",
                NfKind::TouchDrop,
                vec![0, 1, 2],
                1 << 10,
                5000,
                TrafficPattern::Steady { rate_gbps: 20.0 },
                256,
            ),
            // 64 K churning flows: the working set turns over every
            // 100 us, so the control tick keeps re-installing pinned
            // slots into a full table (perfect_evicted) while the rest
            // age out of the filter table between visits.
            TenantSpec::new(
                "churn-64k",
                NfKind::TouchDrop,
                vec![3, 4],
                1 << 16,
                6000,
                TrafficPattern::Steady { rate_gbps: 15.0 },
                512,
            )
            .with_churn(Duration::from_us(100))
            .with_train(4),
            // 1 M flows: each packet is a fresh flow, so almost every
            // lookup misses both tables and falls back to RSS — the
            // millions-of-flows regime where steering is effectively
            // random and mis-steers dominate.
            TenantSpec::new(
                "huge-1m",
                NfKind::TouchDrop,
                vec![5],
                1 << 20,
                7000,
                TrafficPattern::Poisson {
                    rate_gbps: 10.0,
                    seed: 0xF10C,
                },
                1514,
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_validates() {
        for name in builtin_names() {
            let sc = builtin(name).expect("lookup");
            assert_eq!(sc.name, name);
            assert!(!sc.description.is_empty());
            sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert_eq!(builtins().len(), builtin_names().len());
        assert!(builtin("no-such-scenario").is_none());
    }

    #[test]
    fn replay_trace_round_trips_through_the_parser() {
        let arrivals = replayed_arrivals();
        assert!(arrivals.len() > 100, "enough packets to be interesting");
        // Times are ns-quantised and non-decreasing; flows rotate.
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        let ports: std::collections::BTreeSet<u16> =
            arrivals.iter().map(|a| a.packet.flow.dst_port).collect();
        assert_eq!(ports.len(), 4, "all four flows present in the trace");
    }
}
