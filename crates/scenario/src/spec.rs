//! Scenario and tenant specifications, and their mapping onto
//! [`SystemConfig`].
//!
//! A [`Scenario`] is pure data: it can be validated, listed, and turned
//! into system configurations without running anything. The mapping
//! produces one *mixed* configuration (all tenants together) and one
//! *solo* configuration per tenant (the tenant alone on its own cores,
//! same cache hierarchy), which is what makes the interference report an
//! apples-to-apples comparison.

use idio_core::cache::addr::CoreId;
use idio_core::config::{AntagonistSpec, FieldError, FlowSteering, SystemConfig};
use idio_core::policy::SteeringPolicy;
use idio_engine::time::{Duration, SimTime};

pub use idio_core::config::{SloSpec, TenantSpec};

/// A named, declarative mixed-workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Stable scenario name (label prefix of every cell it spawns).
    pub name: String,
    /// One-line human description (shown by `scenario --list`).
    pub description: String,
    /// The steering policy the run is evaluated under.
    pub policy: SteeringPolicy,
    /// Flow Director operating mode.
    pub steering: FlowSteering,
    /// Traffic generation horizon.
    pub duration: SimTime,
    /// Extra drain time after traffic stops.
    pub drain_grace: Duration,
    /// Flow Director perfect-match filter capacity. `None` keeps the
    /// hardware default (~8K, Sec. II-C); small values put the table
    /// under pressure so steering degrades perfect -> ATR -> RSS.
    pub perfect_filters: Option<usize>,
    /// ATR filter-table entry lifetime (entries age out lazily and the
    /// flow falls back to RSS until re-learned). `None` = no aging.
    pub atr_lifetime: Option<Duration>,
    /// Idle window after which a recycle pool self-invalidates and
    /// releases its LLC footprint. `None` = pools keep their footprint.
    pub pool_idle_flush: Option<Duration>,
    /// Co-run the LLCAntagonist (Sec. VI) on core [`Scenario::num_cores`]
    /// in every cell, so the mixed and solo runs share it alike.
    pub antagonist: bool,
    /// The tenants, in declaration (report) order.
    pub tenants: Vec<TenantSpec>,
}

impl Scenario {
    /// Number of cores the scenario requires (highest owned core + 1).
    pub fn num_cores(&self) -> usize {
        self.tenants
            .iter()
            .flat_map(|t| t.cores.iter())
            .map(|&c| c as usize + 1)
            .max()
            .unwrap_or(1)
    }

    /// Table I defaults sized for this scenario, with no tenant yet. The
    /// antagonist, when set, sits on the first core past the tenants'.
    /// It is placed here rather than by [`SystemConfig::with_antagonist`],
    /// which would put it on a solo tenant's next core: a core another
    /// tenant owns in the mixed run.
    pub(crate) fn base_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default(self.num_cores());
        cfg.policy = self.policy;
        cfg.steering = self.steering;
        cfg.duration = self.duration;
        cfg.drain_grace = self.drain_grace;
        if let Some(entries) = self.perfect_filters {
            cfg.perfect_filter_entries = entries;
        }
        cfg.atr_lifetime = self.atr_lifetime;
        cfg.pool_idle_flush = self.pool_idle_flush;
        if self.antagonist {
            let core = CoreId::new(self.num_cores() as u16);
            cfg.antagonist = Some(AntagonistSpec { core });
        }
        cfg
    }

    /// The mixed configuration: all tenants running together.
    pub fn mixed_config(&self) -> SystemConfig {
        SystemConfig {
            tenants: self.tenants.clone(),
            ..self.base_config()
        }
    }

    /// The solo configuration of tenant `i`: only its cores, with the
    /// *same* core count and cache hierarchy as the mixed run — so solo
    /// vs. mixed latency isolates contention, not capacity.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn solo_config(&self, i: usize) -> SystemConfig {
        SystemConfig {
            tenants: vec![self.tenants[i].clone()],
            ..self.base_config()
        }
    }

    /// Checks the scenario's own rules: a non-empty name, at least one
    /// tenant, and a core id left for the antagonist.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule, keyed by the scenario-file key it is
    /// about.
    pub fn check(&self) -> Result<(), FieldError> {
        if self.name.is_empty() {
            return Err(FieldError::new("name", "scenario name must not be empty"));
        }
        if self.tenants.is_empty() {
            return Err(FieldError::new(
                "tenant",
                "scenario has no tenants (add [[tenant]] tables or a [generate] table)",
            ));
        }
        if self.antagonist && self.num_cores() > usize::from(u16::MAX) {
            let msg = "antagonist needs a core past the tenants', but they own core 65535";
            return Err(FieldError::new("antagonist", msg));
        }
        Ok(())
    }

    /// Validates the scenario: its own rules ([`Scenario::check`]) and a
    /// mixed configuration valid under [`SystemConfig::validate`].
    ///
    /// Each solo configuration is then valid too: it holds one of the
    /// mixed run's tenants, now at index 0, on the same hierarchy, so its
    /// value rules are a subset of the mixed run's and its cross-tenant
    /// rules only get easier.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.check().map_err(|e| e.msg)?;
        self.mixed_config()
            .validate()
            .map_err(|e| format!("scenario '{}' (mixed): {e}", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_core::config::MAX_RATE_GBPS;
    use idio_core::net::gen::TrafficPattern;
    use idio_core::net::packet::Dscp;
    use idio_core::stack::nf::NfKind;

    fn two_tenants() -> Scenario {
        Scenario {
            name: "test".into(),
            description: "two tenants".into(),
            policy: SteeringPolicy::Idio,
            steering: FlowSteering::Perfect,
            duration: SimTime::from_us(100),
            drain_grace: Duration::from_us(100),
            perfect_filters: None,
            atr_lifetime: None,
            pool_idle_flush: None,
            antagonist: false,
            tenants: vec![
                TenantSpec::new(
                    "a",
                    NfKind::TouchDrop,
                    vec![0, 1],
                    6,
                    5000,
                    TrafficPattern::Steady { rate_gbps: 10.0 },
                    1514,
                ),
                TenantSpec::new(
                    "b",
                    NfKind::L2FwdPayloadDrop,
                    vec![2],
                    3,
                    6000,
                    TrafficPattern::Steady { rate_gbps: 20.0 },
                    1024,
                )
                .with_dscp(Dscp::CLASS1_DEFAULT),
            ],
        }
    }

    #[test]
    fn mixed_config_maps_tenants_to_contiguous_workloads() {
        let sc = two_tenants();
        let cfg = sc.mixed_config();
        assert!(sc.validate().is_ok());
        assert_eq!(cfg.tenants, sc.tenants);
        // Queues follow the tenants' cores in declaration order.
        let queues: Vec<(CoreId, NfKind, Dscp)> =
            cfg.queues().map(|(c, t)| (c, t.nf, t.dscp)).collect();
        let (td, be) = (NfKind::TouchDrop, Dscp::BEST_EFFORT);
        assert_eq!(
            queues,
            [
                (CoreId::new(0), td, be),
                (CoreId::new(1), td, be),
                (
                    CoreId::new(2),
                    NfKind::L2FwdPayloadDrop,
                    Dscp::CLASS1_DEFAULT
                ),
            ]
        );
        assert_eq!(cfg.num_cores(), 3);
    }

    #[test]
    fn solo_config_keeps_original_cores_and_hierarchy_size() {
        let sc = two_tenants();
        let cfg = sc.solo_config(1);
        assert_eq!(cfg.tenants, [sc.tenants[1].clone()]);
        assert_eq!(
            cfg.queues().map(|(c, _)| c).collect::<Vec<_>>(),
            [CoreId::new(2)]
        );
        // Same core count as the mixed run: contention-only comparison.
        assert_eq!(cfg.hierarchy.num_cores, 3);
    }

    #[test]
    fn the_antagonist_sits_on_the_same_core_in_every_cell() {
        let mut sc = two_tenants();
        sc.antagonist = true;
        let want = Some(AntagonistSpec {
            core: CoreId::new(3),
        });
        assert_eq!(sc.mixed_config().antagonist, want);
        for i in 0..sc.tenants.len() {
            let solo = sc.solo_config(i);
            assert_eq!(solo.antagonist, want, "solo cell of tenant {i}");
            assert_eq!(solo.validate(), Ok(()));
        }
        assert_eq!(sc.validate(), Ok(()));
        sc.antagonist = false;
        assert_eq!(sc.mixed_config().antagonist, None);
        // Core 65535 is the last a tenant can own; then no core is left.
        sc.tenants[1].cores = vec![u16::MAX];
        assert_eq!(sc.check(), Ok(()));
        sc.antagonist = true;
        assert_eq!(sc.check().unwrap_err().key, "antagonist");
    }

    #[test]
    fn scenario_rules_name_their_key() {
        let mut sc = two_tenants();
        sc.tenants.clear();
        assert_eq!(sc.check().unwrap_err().key, "tenant");
        assert!(sc
            .validate()
            .unwrap_err()
            .contains("scenario has no tenants"));
        sc.name.clear();
        assert_eq!(sc.check().unwrap_err().key, "name");
        assert_eq!(
            sc.validate().unwrap_err(),
            "scenario name must not be empty"
        );
    }

    #[test]
    fn slo_drop_rate_bound_must_be_a_fraction() {
        for bound in [0.0, 1.0, f64::NAN, -1.0, 1.5] {
            let mut sc = two_tenants();
            sc.tenants[1] = sc.tenants[1].clone().with_slo(SloSpec {
                max_p99_ns: None,
                max_drop_rate: Some(bound),
            });
            if (0.0..=1.0).contains(&bound) {
                assert_eq!(sc.validate(), Ok(()));
                continue;
            }
            let err = sc.validate().unwrap_err();
            let want = format!("tenant 'b': max_drop_rate {bound} out of range (0.0..=1.0)");
            assert!(err.ends_with(&want), "{err}");
        }
    }

    #[test]
    fn a_rate_that_sends_a_frame_in_under_a_picosecond_is_rejected() {
        // 1514 bytes at 3e7 Gbps would take 0.40 ps, and the generator's
        // clock would never advance. The 1.6 Tb/s ceiling rejects every
        // such rate, and 1e7 Gbps (1.2 ps a frame) too.
        for rate_gbps in [3e7, 1e300, 1e7, MAX_RATE_GBPS.next_up()] {
            let traffics = [
                TrafficPattern::Steady { rate_gbps },
                TrafficPattern::Poisson { rate_gbps, seed: 1 },
            ];
            for traffic in traffics {
                let mut sc = two_tenants();
                sc.tenants[0].traffic = traffic;
                let err = sc.validate().unwrap_err();
                let want = format!("tenant 'a': rate_gbps {rate_gbps} out of range (0..=1600)");
                assert!(err.ends_with(&want), "{err}");
            }
        }
        let mut sc = two_tenants();
        sc.tenants[0].traffic = TrafficPattern::Steady {
            rate_gbps: MAX_RATE_GBPS,
        };
        assert_eq!(sc.validate(), Ok(()));
    }

    #[test]
    fn double_owned_core_rejected() {
        let mut sc = two_tenants();
        sc.tenants[1].cores = vec![1];
        assert!(sc.validate().unwrap_err().contains("owned by two tenants"));
    }

    #[test]
    fn overlapping_ports_rejected_via_config_validation() {
        let mut sc = two_tenants();
        sc.tenants[1].base_port = 5002;
        assert!(sc.validate().unwrap_err().contains("overlapping"));
    }
}
