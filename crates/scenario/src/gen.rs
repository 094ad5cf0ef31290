//! ScenarioGen: datacenter-scale scenario synthesis from a compact spec.
//!
//! The checked-in scenarios are hand-written and small (2–4 tenants); the
//! consolidation experiments the paper motivates (Sec. VII: many tenants
//! sharing one server's LLC and DDIO ways) need *hundreds* of tenants,
//! which nobody should write by hand. A [`GenSpec`] — a dozen knobs in a
//! `[generate]` table — expands deterministically into a full
//! [`Scenario`]: heavy-tailed per-tenant rates, a mix of application
//! classes, and an optional fraction of "attacker" tenants pinned to
//! cache-hostile policy overrides (which also stresses the policy-table
//! interning path with many distinct per-tenant [`PolicySpec`]s).
//!
//! Expansion is a pure function of `(spec, scenario header)`:
//!
//! * every random draw comes from [`SimRng`] streams seeded with
//!   [`derive_seed`] under stable labels (`scenariogen/<name>` for the
//!   rank shuffle, `scenariogen/<name>/t<i>` for tenant `i`), so adding
//!   or removing tenants never perturbs the others;
//! * tenants own disjoint contiguous core and port ranges by
//!   construction, so the expanded scenario passes
//!   [`Scenario::validate`] whenever the resource spaces fit.

use idio_core::config::{positive_rate, FieldError};
use idio_core::net::gen::{TrafficPattern, MAX_FLOW_SET_FLOWS};
use idio_core::net::packet::Dscp;
use idio_core::policy::{CatMode, PolicyCaps, PolicySpec, PrefetchMode, SteeringPolicy};
use idio_core::pool::PoolSpec;
use idio_core::stack::nf::{ChainStage, NfChain, NfKind};
use idio_engine::rng::{derive_seed, SimRng};

use crate::spec::{Scenario, SloSpec, TenantSpec};

/// How the aggregate offered load is split across tenants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateDist {
    /// Every tenant offers the same rate.
    Uniform,
    /// Zipf-distributed rates: the tenant of rank `k` (1-based, assigned
    /// by a seeded shuffle) gets weight `1 / k^s` — the classic
    /// heavy-tailed datacenter tenant mix.
    Zipf {
        /// The Zipf exponent (`s = 1.1` is the common datacenter fit).
        s: f64,
    },
}

/// The application classes ScenarioGen draws tenants from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppClass {
    /// Latency-sensitive key-value-store front end: small frames, Poisson
    /// arrivals, touch-and-drop processing, optionally SLO-bounded.
    Kvs,
    /// A network-function chain: mid-size frames forwarded (L2 or
    /// deep-inspect) at a steady rate.
    NfChain,
    /// Bulk transfer: MTU frames at a steady rate, marked application
    /// class 1 (long use distance — direct-to-DRAM under IDIO).
    Bulk,
}

impl AppClass {
    /// The file spelling (`app_classes = ["kvs", ...]`).
    pub fn name(self) -> &'static str {
        match self {
            AppClass::Kvs => "kvs",
            AppClass::NfChain => "nf-chain",
            AppClass::Bulk => "bulk",
        }
    }

    /// Parses a file spelling.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "kvs" => Some(AppClass::Kvs),
            "nf-chain" => Some(AppClass::NfChain),
            "bulk" => Some(AppClass::Bulk),
            _ => None,
        }
    }
}

/// The distinct policy overrides attacker tenants cycle through — cache-
/// hostile or otherwise non-default placements, several of them custom
/// capability sets so a large expansion exercises policy-domain interning
/// beyond the named presets.
const ATTACKER_POLICIES: [PolicySpec; 6] = [
    PolicySpec::Preset(SteeringPolicy::Ddio),
    PolicySpec::Preset(SteeringPolicy::IatDynamic),
    PolicySpec::Custom(PolicyCaps {
        invalidate: true,
        prefetch: PrefetchMode::Always,
        direct_dram: false,
        tune_ddio_ways: false,
        cat: CatMode::Off,
    }),
    PolicySpec::Custom(PolicyCaps {
        invalidate: false,
        prefetch: PrefetchMode::Always,
        direct_dram: true,
        tune_ddio_ways: false,
        cat: CatMode::Off,
    }),
    PolicySpec::Custom(PolicyCaps {
        invalidate: true,
        prefetch: PrefetchMode::Off,
        direct_dram: true,
        tune_ddio_ways: false,
        cat: CatMode::Off,
    }),
    PolicySpec::Custom(PolicyCaps {
        invalidate: false,
        prefetch: PrefetchMode::Off,
        direct_dram: false,
        tune_ddio_ways: true,
        cat: CatMode::Off,
    }),
];

/// Tenants below this mean rate may complete no packets within a short
/// horizon (their p99 would be undefined), so SLO bounds are only
/// attached above it.
const SLO_MIN_RATE_GBPS: f64 = 0.5;

/// Per-tenant rates are floored here so every tenant's traffic generator
/// has a positive, finite rate even deep in the Zipf tail.
const MIN_RATE_GBPS: f64 = 0.02;

/// The most tenants one `[generate]` table may synthesize.
const MAX_GEN_TENANTS: usize = 4096;

/// A compact generator spec — the `[generate]` table of a scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct GenSpec {
    /// Number of tenants to synthesize.
    pub tenants: usize,
    /// Root seed of every draw the expansion makes.
    pub seed: u64,
    /// Cores (= queues) per tenant; tenant `i` owns the contiguous block
    /// starting at `i * cores_per_tenant`.
    pub cores_per_tenant: u16,
    /// Flows per tenant; tenant `i` owns the port block starting at
    /// `base_port + i * flows_per_tenant`. Counts past the 16-bit port
    /// space (up to [`idio_core::net::gen::MAX_FLOW_SET_FLOWS`]) switch
    /// every tenant to a *wide* flow set — tenants then share `base_port`
    /// and are told apart by the per-tenant source-address block instead
    /// of disjoint port ranges.
    pub flows_per_tenant: u32,
    /// First port of the first tenant's flow block.
    pub base_port: u16,
    /// Aggregate offered load split across tenants by `rate_dist`.
    pub total_rate_gbps: f64,
    /// How the aggregate load is split.
    pub rate_dist: RateDist,
    /// The classes tenants are drawn from (uniformly; duplicates weight).
    pub app_classes: Vec<AppClass>,
    /// Fraction of tenants pinned to hostile policy overrides.
    pub attacker_frac: f64,
    /// SLO attached to non-attacker [`AppClass::Kvs`] tenants offering at
    /// least `SLO_MIN_RATE_GBPS` (0.5 Gbps).
    pub slo: Option<SloSpec>,
    /// Give every non-attacker tenant an auto CAT partition (`cat =
    /// "auto"` in the `[generate]` table): the closed-loop controller
    /// carves core-side LLC ways per tenant at runtime.
    pub cat_auto: bool,
}

impl GenSpec {
    /// A spec with the documented defaults: seed `0xDC`, one core and four
    /// flows per tenant, ports from 1024, 40 Gbps total load split
    /// Zipf(1.1), all three app classes, no attackers, no SLOs.
    pub fn new(tenants: usize) -> Self {
        GenSpec {
            tenants,
            seed: 0xDC,
            cores_per_tenant: 1,
            flows_per_tenant: 4,
            base_port: 1024,
            total_rate_gbps: 40.0,
            rate_dist: RateDist::Zipf { s: 1.1 },
            app_classes: vec![AppClass::Kvs, AppClass::NfChain, AppClass::Bulk],
            attacker_frac: 0.0,
            slo: None,
            cat_auto: false,
        }
    }

    /// Checks the rules on the spec's own values.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule, named by its `[generate]` key.
    pub fn check(&self) -> Result<(), FieldError> {
        let fail = |key, msg: String| Err(FieldError::new(key, msg));
        let (tenants, flows, frac) = (self.tenants, self.flows_per_tenant, self.attacker_frac);
        if tenants == 0 {
            return fail("tenants", "tenants must be positive".into());
        }
        if tenants > MAX_GEN_TENANTS {
            let msg = format!("tenants {tenants} out of range (0..={MAX_GEN_TENANTS})");
            return fail("tenants", msg);
        }
        if self.cores_per_tenant == 0 {
            return fail(
                "cores_per_tenant",
                "cores_per_tenant must be positive".into(),
            );
        }
        if flows == 0 {
            return fail(
                "flows_per_tenant",
                "flows_per_tenant must be positive".into(),
            );
        }
        if flows > MAX_FLOW_SET_FLOWS {
            let msg = format!("flows_per_tenant {flows} out of range (0..={MAX_FLOW_SET_FLOWS})");
            return fail("flows_per_tenant", msg);
        }
        positive_rate("total_rate_gbps", self.total_rate_gbps)?;
        if let RateDist::Zipf { s } = self.rate_dist {
            if !(s.is_finite() && s > 0.0) {
                let msg = format!("zipf_s must be a positive finite exponent, got {s}");
                return fail("zipf_s", msg);
            }
        }
        if self.app_classes.is_empty() {
            return fail("app_classes", "app_classes must not be empty".into());
        }
        if !(0.0..=1.0).contains(&frac) {
            let msg = format!("attacker_frac {frac} out of range (0.0..=1.0)");
            return fail("attacker_frac", msg);
        }
        // Checked here too: the SLO reaches no tenant when no kvs tenant
        // offers enough load.
        self.slo.as_ref().map_or(Ok(()), SloSpec::check)
    }

    /// Expands the spec into `header`'s tenant list (which must be empty:
    /// a scenario is either written out or generated, never both).
    ///
    /// The result is a pure function of `(self, header.name)` — the same
    /// spec under the same scenario name expands identically in every
    /// process on every machine.
    ///
    /// # Errors
    ///
    /// Returns a message when [`GenSpec::check`] fails or the tenants do
    /// not fit the core or port space.
    pub fn expand(&self, header: Scenario) -> Result<Scenario, String> {
        if !header.tenants.is_empty() {
            return Err(format!(
                "scenario '{}' already has {} tenants; [generate] needs an empty tenant list",
                header.name,
                header.tenants.len()
            ));
        }
        self.check().map_err(|e| e.msg)?;
        let n = self.tenants;
        if n.saturating_mul(self.cores_per_tenant as usize) > u16::MAX as usize + 1 {
            return Err(format!(
                "{n} tenants x {} cores exceed the {}-core space",
                self.cores_per_tenant,
                u16::MAX as usize + 1
            ));
        }
        // A tenant whose own flow block overruns the port space is *wide*
        // (five-tuples spread over a per-tenant source-address block), so
        // tenants share `base_port` instead of owning disjoint port
        // ranges. Narrow tenants still need disjoint blocks.
        let wide = u32::from(self.base_port) + self.flows_per_tenant > u16::MAX as u32 + 1;
        let port_span = n * self.flows_per_tenant as usize;
        if !wide && self.base_port as usize + port_span > u16::MAX as usize + 1 {
            return Err(format!(
                "{n} tenants x {} flows from port {} exceed the 16-bit port space",
                self.flows_per_tenant, self.base_port
            ));
        }

        // Rank shuffle: which tenant sits where in the rate distribution's
        // tail. One master stream, separate from the per-tenant streams.
        let mut master = SimRng::seed_from(derive_seed(
            self.seed,
            &format!("scenariogen/{}", header.name),
        ));
        let mut rank: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = master.below(i as u64 + 1) as usize;
            rank.swap(i, j);
        }
        let weights: Vec<f64> = match self.rate_dist {
            RateDist::Uniform => vec![1.0; n],
            RateDist::Zipf { s } => (0..n)
                .map(|i| 1.0 / ((rank[i] + 1) as f64).powf(s))
                .collect(),
        };
        let rates = split_rates(self.total_rate_gbps, &weights);

        let mut scenario = header;
        for (i, &rate) in rates.iter().enumerate() {
            // One independent stream per tenant, in a fixed draw order
            // (class, attacker coin, class-specific draws): tenant i's
            // definition never depends on any other tenant.
            let mut rng = SimRng::seed_from(derive_seed(
                self.seed,
                &format!("scenariogen/{}/t{i}", scenario.name),
            ));
            let class = self.app_classes[rng.below(self.app_classes.len() as u64) as usize];
            let attacker = rng.unit_f64() < self.attacker_frac;
            let first_core = i as u16 * self.cores_per_tenant;
            let cores: Vec<u16> = (first_core..first_core + self.cores_per_tenant).collect();
            let base_port = if wide {
                self.base_port
            } else {
                self.base_port + (i as u32 * self.flows_per_tenant) as u16
            };
            let suffix = if attacker { "-atk" } else { "" };
            let name = format!("t{i:03}-{}{suffix}", class.name());
            let mut tenant = match class {
                AppClass::Kvs => TenantSpec::new(
                    name,
                    NfKind::TouchDrop,
                    cores,
                    self.flows_per_tenant,
                    base_port,
                    TrafficPattern::Poisson {
                        rate_gbps: rate,
                        seed: rng.next_u64(),
                    },
                    256,
                ),
                // A real multi-stage service chain (the class's namesake):
                // half the tenants run the forwarding UPF pipeline, half a
                // deep-inspection drop chain, and all of them recycle
                // their mbufs from an LLC-resident pool.
                AppClass::NfChain => TenantSpec::new(
                    name,
                    NfKind::Chain(if rng.below(2) == 0 {
                        NfChain::upf()
                    } else {
                        NfChain::new(&[
                            ChainStage::Parse,
                            ChainStage::Classify,
                            ChainStage::Inspect,
                        ])
                        .expect("static chain is valid")
                    }),
                    cores,
                    self.flows_per_tenant,
                    base_port,
                    TrafficPattern::Steady { rate_gbps: rate },
                    512,
                )
                .with_pool(PoolSpec::Recycle { slots: None }),
                AppClass::Bulk => TenantSpec::new(
                    name,
                    if rng.below(2) == 0 {
                        NfKind::TouchDrop
                    } else {
                        NfKind::TouchDropCopy
                    },
                    cores,
                    self.flows_per_tenant,
                    base_port,
                    TrafficPattern::Steady { rate_gbps: rate },
                    1514,
                )
                .with_dscp(Dscp::CLASS1_DEFAULT),
            };
            if attacker {
                tenant = tenant.with_policy(
                    ATTACKER_POLICIES[rng.below(ATTACKER_POLICIES.len() as u64) as usize],
                );
            } else {
                if self.cat_auto {
                    tenant = tenant.with_policy(PolicySpec::Custom(PolicyCaps {
                        cat: CatMode::Auto,
                        ..scenario.policy.caps()
                    }));
                }
                if let Some(slo) = self.slo {
                    if class == AppClass::Kvs && rate >= SLO_MIN_RATE_GBPS && slo.is_bounded() {
                        tenant = tenant.with_slo(slo);
                    }
                }
            }
            scenario.tenants.push(tenant);
        }
        Ok(scenario)
    }
}

/// Splits `total` across `weights` proportionally, flooring every share
/// at [`MIN_RATE_GBPS`] and renormalizing the unfloored shares over the
/// remaining budget, so the emitted rates sum to *exactly* `total`
/// (bit-for-bit as `f64`) whenever the floors leave room. Only when
/// `weights.len() * MIN_RATE_GBPS` exceeds `total` is every share the
/// floor and the sum unavoidably overshoots.
fn split_rates(total: f64, weights: &[f64]) -> Vec<f64> {
    let n = weights.len();
    let mut rates = vec![0.0; n];
    let mut floored = vec![false; n];
    // Fixed point: flooring a tail tenant shrinks the budget the
    // remaining weights share, which can push further tenants under the
    // floor — at most n rounds, typically one or two.
    loop {
        let budget = total - MIN_RATE_GBPS * floored.iter().filter(|&&f| f).count() as f64;
        let wsum: f64 = weights
            .iter()
            .zip(&floored)
            .filter(|(_, &f)| !f)
            .map(|(w, _)| w)
            .sum();
        let mut changed = false;
        for i in 0..n {
            if floored[i] {
                rates[i] = MIN_RATE_GBPS;
                continue;
            }
            let r = budget * weights[i] / wsum;
            if !r.is_finite() || r < MIN_RATE_GBPS {
                floored[i] = true;
                changed = true;
            } else {
                rates[i] = r;
            }
        }
        if !changed {
            break;
        }
    }
    // Make the forward (index-order) f64 sum hit `total` exactly. Two
    // passes: fold the bulk of the residual into the largest unfloored
    // share, then refine by single ulps of the *last* unfloored share.
    // The last share matters: a perturbation there passes through only
    // the final roundings (whose grids are nondecreasing along the
    // chain), so the sum moves at most one representable step per ulp
    // and cannot jump over `total` — perturbing an earlier share
    // re-rounds every later partial sum and can skip it (observed for
    // 7-tenant Zipf splits).
    if let Some(head) = (0..n)
        .filter(|&i| !floored[i])
        .max_by(|&a, &b| rates[a].total_cmp(&rates[b]))
    {
        let sum: f64 = rates.iter().sum();
        rates[head] += total - sum;
        let last = (0..n)
            .rev()
            .find(|&i| !floored[i])
            .expect("head is unfloored");
        for _ in 0..8192 {
            let sum: f64 = rates.iter().sum();
            if sum == total {
                break;
            }
            rates[last] = if sum < total {
                rates[last].next_up()
            } else {
                rates[last].next_down()
            };
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_core::config::FlowSteering;
    use idio_engine::time::{Duration, SimTime};

    fn header(name: &str) -> Scenario {
        Scenario {
            name: name.into(),
            description: "generated".into(),
            policy: SteeringPolicy::Idio,
            steering: FlowSteering::Perfect,
            duration: SimTime::from_us(60),
            drain_grace: Duration::from_us(60),
            perfect_filters: None,
            atr_lifetime: None,
            pool_idle_flush: None,
            antagonist: false,
            tenants: Vec::new(),
        }
    }

    #[test]
    fn expansion_is_deterministic_and_valid() {
        let mut spec = GenSpec::new(12);
        spec.attacker_frac = 0.25;
        spec.slo = Some(SloSpec {
            max_p99_ns: Some(50_000_000),
            max_drop_rate: Some(0.5),
        });
        let a = spec.expand(header("dc")).unwrap();
        let b = spec.expand(header("dc")).unwrap();
        assert_eq!(a, b, "same spec, same name: identical expansion");
        a.validate().expect("generated scenarios are valid");
        assert_eq!(a.tenants.len(), 12);
        assert_eq!(a.num_cores(), 12);
    }

    #[test]
    fn expansion_depends_on_seed_and_name() {
        let spec = GenSpec::new(8);
        let base = spec.expand(header("dc")).unwrap();
        let renamed = spec.expand(header("dc2")).unwrap();
        assert_ne!(base.tenants, renamed.tenants, "name feeds the seed labels");
        let mut reseeded_spec = spec.clone();
        reseeded_spec.seed = 0xDD;
        let reseeded = reseeded_spec.expand(header("dc")).unwrap();
        assert_ne!(base.tenants, reseeded.tenants);
    }

    #[test]
    fn tenants_own_disjoint_contiguous_resources() {
        let mut spec = GenSpec::new(20);
        spec.cores_per_tenant = 2;
        spec.flows_per_tenant = 8;
        let sc = spec.expand(header("res")).unwrap();
        for (i, t) in sc.tenants.iter().enumerate() {
            assert_eq!(t.cores, vec![i as u16 * 2, i as u16 * 2 + 1]);
            assert_eq!(t.base_port, 1024 + i as u16 * 8);
            assert_eq!(t.flows, 8);
        }
        sc.validate().unwrap();
    }

    #[test]
    fn classes_attackers_and_slos_follow_the_spec() {
        let mut spec = GenSpec::new(60);
        spec.attacker_frac = 0.4;
        spec.slo = Some(SloSpec {
            max_p99_ns: Some(10_000_000),
            max_drop_rate: None,
        });
        let sc = spec.expand(header("mix")).unwrap();
        let attackers = sc.tenants.iter().filter(|t| t.policy.is_some()).count();
        assert!(attackers > 0, "40% of 60 tenants should include attackers");
        assert!(attackers < 60);
        let mut distinct: Vec<PolicySpec> = Vec::new();
        for t in &sc.tenants {
            assert_eq!(t.name.ends_with("-atk"), t.policy.is_some());
            if let Some(p) = t.policy {
                if !distinct.contains(&p) {
                    distinct.push(p);
                }
            }
            if let Some(slo) = t.slo {
                assert!(t.name.contains("kvs") && t.policy.is_none());
                assert_eq!(slo.max_p99_ns, Some(10_000_000));
                if let TrafficPattern::Poisson { rate_gbps, .. } = t.traffic {
                    assert!(rate_gbps >= SLO_MIN_RATE_GBPS);
                } else {
                    panic!("kvs tenants are Poisson");
                }
            }
        }
        assert!(distinct.len() >= 3, "attackers cycle multiple policy specs");
        assert!(
            sc.tenants.iter().any(|t| t.slo.is_some()),
            "head kvs tenants get the SLO"
        );
    }

    #[test]
    fn zipf_rates_are_heavy_tailed_and_sum_close_to_total() {
        let spec = GenSpec::new(50);
        let sc = spec.expand(header("zipf")).unwrap();
        let rate = |t: &TenantSpec| match t.traffic {
            TrafficPattern::Steady { rate_gbps } | TrafficPattern::Poisson { rate_gbps, .. } => {
                rate_gbps
            }
            TrafficPattern::Bursty(_) => unreachable!("generator never emits bursty"),
        };
        let rates: Vec<f64> = sc.tenants.iter().map(rate).collect();
        let sum: f64 = rates.iter().sum();
        // Floored tail shares are renormalized away: the total is exact.
        assert_eq!(sum, 40.0, "renormalized split hits the target exactly");
        let max = rates.iter().cloned().fold(0.0, f64::max);
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min > 10.0, "heavy tail: {max} vs {min}");
        assert!(rates.iter().all(|&r| r >= MIN_RATE_GBPS));
    }

    /// The satellite's property: for every tenant count the floor can
    /// interact with, the emitted rates sum to exactly the target and
    /// never dip below the floor.
    #[test]
    fn rate_split_sums_exactly_for_all_tenant_counts() {
        for n in 1..=300usize {
            let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(1.1)).collect();
            let rates = split_rates(40.0, &weights);
            let sum: f64 = rates.iter().sum();
            assert_eq!(sum, 40.0, "n={n}: sum {sum}");
            assert!(
                rates.iter().all(|&r| r >= MIN_RATE_GBPS),
                "n={n}: floor violated"
            );
            let uniform = split_rates(40.0, &vec![1.0; n]);
            assert_eq!(uniform.iter().sum::<f64>(), 40.0, "n={n} uniform");
        }
        // Infeasible target: every share floors; the sum overshoots but
        // stays the minimal n * floor.
        let rates = split_rates(0.05, &[1.0, 1.0, 1.0, 1.0]);
        assert!(rates.iter().all(|&r| r == MIN_RATE_GBPS));
    }

    #[test]
    fn cat_auto_marks_non_attackers_only() {
        let mut spec = GenSpec::new(24);
        spec.attacker_frac = 0.3;
        spec.cat_auto = true;
        let sc = spec.expand(header("cat")).unwrap();
        sc.validate().expect("cat-auto scenarios are valid");
        let mut auto = 0;
        for t in &sc.tenants {
            let caps = t.policy.expect("every tenant carries a policy").caps();
            if t.name.ends_with("-atk") {
                assert_eq!(
                    caps.cat,
                    CatMode::Off,
                    "{}: attackers keep their policy",
                    t.name
                );
            } else {
                assert_eq!(caps.cat, CatMode::Auto, "{}", t.name);
                auto += 1;
            }
        }
        assert!(auto > 0, "some non-attackers exist");
    }

    #[test]
    fn resource_exhaustion_is_an_error() {
        // At most 4096 tenants, so the spaces overflow through the
        // per-tenant counts.
        let mut spec = GenSpec::new(4096);
        spec.flows_per_tenant = 16;
        let err = spec.expand(header("big")).unwrap_err();
        assert!(err.contains("port space"), "{err}");
        let mut spec = GenSpec::new(4096);
        spec.cores_per_tenant = 17;
        spec.flows_per_tenant = 1;
        let err = spec.expand(header("big")).unwrap_err();
        assert!(err.contains("core space"), "{err}");
        for (tenants, cores) in [(9000, 1), (40_000, 2)] {
            let mut spec = GenSpec::new(tenants);
            spec.cores_per_tenant = cores;
            let err = spec.expand(header("big")).unwrap_err();
            assert!(err.contains("out of range (0..=4096)"), "{err}");
        }
    }

    #[test]
    fn check_names_the_key_at_fault() {
        let key = |edit: fn(&mut GenSpec)| {
            let mut spec = GenSpec::new(4);
            edit(&mut spec);
            spec.check().err().map(|e| e.key)
        };
        assert_eq!(key(|_| {}), None);
        assert_eq!(key(|s| s.tenants = 0), Some("tenants"));
        assert_eq!(key(|s| s.cores_per_tenant = 0), Some("cores_per_tenant"));
        assert_eq!(
            key(|s| s.flows_per_tenant = 1 << 25),
            Some("flows_per_tenant")
        );
        assert_eq!(
            key(|s| s.total_rate_gbps = f64::NAN),
            Some("total_rate_gbps")
        );
        assert_eq!(
            key(|s| s.rate_dist = RateDist::Zipf { s: 0.0 }),
            Some("zipf_s")
        );
        assert_eq!(key(|s| s.app_classes.clear()), Some("app_classes"));
        assert_eq!(key(|s| s.attacker_frac = 1.5), Some("attacker_frac"));
    }

    #[test]
    fn slo_bound_is_checked_even_when_no_tenant_receives_it() {
        let mut spec = GenSpec::new(4);
        spec.app_classes = vec![AppClass::Bulk];
        spec.slo = Some(SloSpec {
            max_p99_ns: None,
            max_drop_rate: Some(f64::NAN),
        });
        assert_eq!(spec.check().unwrap_err().key, "max_drop_rate");
        let err = spec.expand(header("nan-slo")).unwrap_err();
        assert_eq!(err, "max_drop_rate NaN out of range (0.0..=1.0)");
    }

    #[test]
    fn expansion_rejects_populated_scenarios() {
        let mut h = header("busy");
        h.tenants.push(TenantSpec::new(
            "existing",
            NfKind::TouchDrop,
            vec![0],
            1,
            9000,
            TrafficPattern::Steady { rate_gbps: 1.0 },
            256,
        ));
        assert!(GenSpec::new(4).expand(h).is_err());
    }
}
