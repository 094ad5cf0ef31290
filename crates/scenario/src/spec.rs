//! Scenario and tenant specifications, and their mapping onto
//! [`SystemConfig`].
//!
//! A [`Scenario`] is pure data: it can be validated, listed, and turned
//! into system configurations without running anything. The mapping
//! produces one *mixed* configuration (all tenants together) and one
//! *solo* configuration per tenant (the tenant alone on its own cores,
//! same cache hierarchy), which is what makes the interference report an
//! apples-to-apples comparison.

use idio_core::config::{FieldError, FlowSteering, SystemConfig};
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

    /// Table I defaults sized for this scenario, with no tenant yet.
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

    /// Checks the scenario's own rules: a non-empty name and at least one
    /// tenant.
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
    use idio_core::cache::addr::CoreId;
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
