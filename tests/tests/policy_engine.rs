//! Property tests for the layered policy engine (system default, then
//! per-tenant override).
//!
//! The contract being locked: the six named policies are pure *presets*
//! over `PolicyCaps`, and a configuration that only uses presets — whether
//! expressed globally or as per-tenant overrides — must behave bit-for-bit
//! like the old global `SteeringPolicy` enum.

use idio_core::config::{SystemConfig, TenantSpec};
use idio_core::net::gen::TrafficPattern;
use idio_core::net::packet::Dscp;
use idio_core::policy::{PolicySpec, SteeringPolicy};
use idio_core::stack::nf::NfKind;
use idio_core::sweep::SweepOptions;
use idio_core::system::System;
use idio_engine::time::{Duration, SimTime};
use idio_scenario::{builtin, run_scenario};

/// A small two-tenant mixed config exercising both the drop path (with
/// self-invalidation under capable policies) and the forwarding + class-1
/// path (direct DRAM under capable policies).
fn tenant_cfg(policy: SteeringPolicy) -> SystemConfig {
    let steady = |rate_gbps| TrafficPattern::Steady { rate_gbps };
    let mut cfg = SystemConfig::paper_default(4);
    cfg.duration = SimTime::from_us(300);
    cfg.drain_grace = Duration::from_us(200);
    cfg.policy = policy;
    cfg.tenants = vec![
        TenantSpec::new(
            "lat",
            NfKind::TouchDrop,
            vec![0, 1],
            6,
            5000,
            steady(8.0),
            1514,
        ),
        TenantSpec::new(
            "stream",
            NfKind::L2FwdPayloadDrop,
            vec![2, 3],
            4,
            6000,
            steady(20.0),
            1514,
        )
        .with_dscp(Dscp::CLASS1_DEFAULT),
    ];
    cfg
}

/// (a) Every preset's `PolicyCaps` matches the capability matrix the old
/// enum methods encode — the Fig. 9 mechanism table.
#[test]
fn preset_caps_match_the_legacy_capability_matrix() {
    use SteeringPolicy::*;
    for p in SteeringPolicy::EXTENDED {
        let c = p.caps();
        assert_eq!(
            c.invalidate,
            matches!(p, InvalidateOnly | StaticIdio | Idio),
            "{p}: invalidate"
        );
        assert_eq!(c.direct_dram, matches!(p, StaticIdio | Idio), "{p}: dram");
        assert_eq!(c.tune_ddio_ways, matches!(p, IatDynamic), "{p}: tune");
        assert_eq!(c.invalidate, p.invalidates(), "{p}");
        assert_eq!(c.prefetch, p.prefetch_mode(), "{p}");
        assert_eq!(c.direct_dram, p.direct_dram(), "{p}");
        assert_eq!(c.tune_ddio_ways, p.tunes_ddio_ways(), "{p}");
    }
}

/// A global preset and the same preset written as a per-tenant override
/// on every tenant must produce byte-identical runs. This is the
/// equivalence that keeps every pre-existing golden valid.
#[test]
fn preset_overrides_are_equivalent_to_the_global_policy() {
    for policy in SteeringPolicy::EXTENDED {
        let spec = PolicySpec::Preset(policy);

        let global = System::new(tenant_cfg(policy)).run();

        let mut by_tenant = tenant_cfg(policy);
        for t in &mut by_tenant.tenants {
            t.policy = Some(spec);
        }
        let by_tenant = System::new(by_tenant).run();

        assert_eq!(global.totals, by_tenant.totals, "{policy}: tenant layer");
        assert_eq!(
            global.metrics.to_json(),
            by_tenant.metrics.to_json(),
            "{policy}: tenant-layer metrics diverged"
        );
    }
}

/// (b) A *mixed-policy* scenario — tenants running different steering
/// policies in the same cell — renders byte-identically at any worker
/// count. Policy domains must not introduce any scheduling- or
/// thread-dependent state.
#[test]
fn mixed_policy_scenario_is_jobs_independent() {
    let scenario = builtin("llc-duel").expect("built-in");
    let mut renderings = Vec::new();
    for jobs in [1usize, 4, 8] {
        let opts = SweepOptions {
            jobs,
            ..SweepOptions::default()
        };
        let report = run_scenario(&scenario, &opts).expect("valid scenario");
        renderings.push((jobs, report.to_json()));
    }
    for (jobs, r) in &renderings[1..] {
        assert_eq!(
            r, &renderings[0].1,
            "llc-duel report at --jobs {jobs} diverged from --jobs 1"
        );
    }
}

/// The llc-duel mix is a real duel: the two tenants' steering mixes
/// diverge in the same run (IDIO victim uses the MLC path, the
/// DDIO-pinned attacker never does), and both carry policy labels.
#[test]
fn llc_duel_tenants_steer_differently_in_one_run() {
    let scenario = builtin("llc-duel").expect("built-in");
    let report = run_scenario(&scenario, &SweepOptions::serial()).expect("valid scenario");
    let victim = &report.tenants[0];
    let attacker = &report.tenants[1];
    assert_eq!(victim.policy.as_deref(), Some("IDIO"));
    assert_eq!(attacker.policy.as_deref(), Some("DDIO"));
    assert!(victim.steer.mlc > 0, "IDIO victim steers lines to its MLCs");
    assert_eq!(
        attacker.steer.mlc, 0,
        "DDIO attacker never touches the MLC path"
    );
    assert!(
        attacker.steer.llc > 0,
        "attacker's lines all land in the LLC"
    );
    let slo = victim.slo.as_ref().expect("victim declared SLOs");
    assert!(
        slo.pass(),
        "victim meets its SLO bounds: {:?}",
        slo.violations
    );
    assert!(report.slo_violations().is_empty());
}
