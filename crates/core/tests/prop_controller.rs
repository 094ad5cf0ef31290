//! Randomized property tests for the IDIO controller and FSM: the 2-bit
//! counter never leaves its domain, policy contracts hold for arbitrary
//! metadata, and the prefetch queue never exceeds its depth. Driven by the
//! in-repo deterministic harness (`idio_engine::check`).

use idio_core::cache::addr::{CoreId, LineAddr};
use idio_core::controller::{IdioConfig, IdioController, Placement};
use idio_core::fsm::{MlcStatus, PrefetchFsm};
use idio_core::nic::tlp::{AppClass, TlpMeta};
use idio_core::policy::SteeringPolicy;
use idio_core::prefetcher::{MlcPrefetcher, PrefetchPacing, PrefetcherConfig};
use idio_engine::check::{Cases, Gen};

fn gen_meta(g: &mut Gen, cores: u16) -> TlpMeta {
    TlpMeta {
        dest_core: CoreId::new(g.u16(0..cores)),
        app_class: if g.bool() {
            AppClass::Class1
        } else {
            AppClass::Class0
        },
        is_header: g.bool(),
        is_burst: g.bool(),
    }
}

#[test]
fn fsm_state_stays_in_domain() {
    Cases::new(512).run(|g| {
        let events = g.vec(0..200, |g| if g.bool() { Some(g.bool()) } else { None });
        let mut fsm = PrefetchFsm::new();
        for ev in events {
            match ev {
                None => fsm.reset_on_burst(),
                Some(pressure) => fsm.update(pressure),
            }
            assert!(fsm.state() <= 0b11);
            assert_eq!(
                fsm.status() == MlcStatus::Llc,
                fsm.state() == 0b11,
                "status is derived exactly from the disabled state"
            );
        }
    });
}

#[test]
fn disabled_state_needs_a_burst_to_leave() {
    Cases::new(512).run(|g| {
        let pressures = g.vec(1..100, Gen::bool);
        let mut fsm = PrefetchFsm::new();
        for p in pressures {
            fsm.update(p);
            assert_eq!(fsm.status(), MlcStatus::Llc, "no burst, no steering");
        }
    });
}

#[test]
fn ddio_and_invalidate_policies_always_place_in_llc() {
    Cases::new(512).run(|g| {
        let metas = g.vec(1..100, |g| gen_meta(g, 4));
        let mut ctrl = IdioController::new(IdioConfig::paper_default(), 4);
        for m in metas {
            assert_eq!(ctrl.steer(SteeringPolicy::Ddio, m), Placement::Llc);
            assert_eq!(
                ctrl.steer(SteeringPolicy::InvalidateOnly, m),
                Placement::Llc
            );
        }
    });
}

#[test]
fn headers_always_reach_the_destination_mlc() {
    Cases::new(512).run(|g| {
        let metas = g.vec(1..100, |g| gen_meta(g, 4));
        let mut ctrl = IdioController::new(IdioConfig::paper_default(), 4);
        for m in metas {
            if m.is_header {
                assert_eq!(
                    ctrl.steer(SteeringPolicy::Idio, m),
                    Placement::Mlc(m.dest_core)
                );
            }
        }
    });
}

#[test]
fn class1_payload_never_lands_in_cache_under_idio() {
    Cases::new(512).run(|g| {
        let metas = g.vec(1..100, |g| gen_meta(g, 4));
        let mut ctrl = IdioController::new(IdioConfig::paper_default(), 4);
        for m in metas {
            if !m.is_header && m.app_class == AppClass::Class1 {
                assert_eq!(ctrl.steer(SteeringPolicy::Idio, m), Placement::Dram);
                assert_eq!(ctrl.steer(SteeringPolicy::StaticIdio, m), Placement::Dram);
            }
        }
    });
}

#[test]
fn static_policy_steers_every_class0_line_to_mlc() {
    Cases::new(512).run(|g| {
        let metas = g.vec(1..100, |g| gen_meta(g, 4));
        let mut ctrl = IdioController::new(IdioConfig::paper_default(), 4);
        for m in metas {
            if m.app_class == AppClass::Class0 {
                assert_eq!(
                    ctrl.steer(SteeringPolicy::StaticIdio, m),
                    Placement::Mlc(m.dest_core)
                );
            }
        }
    });
}

#[test]
fn control_plane_accepts_any_monotonic_counters() {
    Cases::new(512).run(|g| {
        let deltas = g.vec(1..100, |g| (g.u64(0..500), g.u64(0..500)));
        let mut ctrl = IdioController::new(IdioConfig::paper_default(), 2);
        let (mut a, mut b) = (0u64, 0u64);
        for (da, db) in deltas {
            a += da;
            b += db;
            ctrl.control_tick(&[a, b]);
            // Telemetry stays within u32 range by construction.
            let _ = ctrl.mlc_wb_avg(CoreId::new(0));
            let _ = ctrl.mlc_wb_avg(CoreId::new(1));
        }
    });
}

#[test]
fn prefetch_queue_depth_is_a_hard_bound() {
    Cases::new(512).run(|g| {
        let depth = g.usize(1..64);
        let pushes = g.u64(1..300);
        let mut p = MlcPrefetcher::new(PrefetcherConfig {
            queue_depth: depth,
            pacing: PrefetchPacing::Queued,
        });
        let mut accepted = 0u64;
        for i in 0..pushes {
            if p.push(LineAddr::new(i)) {
                accepted += 1;
            }
            assert!(p.len() <= depth);
        }
        assert_eq!(accepted.min(depth as u64), p.len() as u64);
        assert_eq!(p.stats().accepted.get() + p.stats().dropped.get(), pushes);
    });
}
