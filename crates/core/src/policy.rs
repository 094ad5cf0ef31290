//! The steering-policy matrix used in the evaluation (Fig. 9).
//!
//! The paper compares five inbound-data-placement configurations:
//! baseline **DDIO**, **Invalidate** (self-invalidating buffers only),
//! **Prefetch** (network-driven MLC prefetching only), **Static** (both,
//! with MLC steering hard-wired on), and full dynamic **IDIO** (both, with
//! the Fig. 8 FSM gating MLC steering).

use std::fmt;

use idio_cache::set::WayMask;

/// How MLC steering of payload lines is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchMode {
    /// Never steer payload to the MLC.
    Off,
    /// Always steer class-0 payload to the MLC (the *Static* config: the
    /// status register is hard-wired to MLC).
    Always,
    /// Gate steering with the per-core FSM (full IDIO).
    Dynamic,
}

/// A named placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SteeringPolicy {
    /// Baseline DDIO: everything write-allocates in the LLC DDIO ways.
    Ddio,
    /// DDIO plus self-invalidating I/O buffers (mechanism 1 only).
    InvalidateOnly,
    /// DDIO plus network-driven MLC prefetching (mechanism 2 only,
    /// dynamically gated).
    PrefetchOnly,
    /// Mechanisms 1+2+3 with MLC steering always on for class 0.
    StaticIdio,
    /// Full IDIO: mechanisms 1+2+3 with the dynamic FSM.
    Idio,
    /// The IAT-style prior-work baseline (Yuan et al., ISCA'21): classic
    /// DDIO placement, but the number of DDIO ways is re-tuned at runtime
    /// from LLC-writeback telemetry. No invalidation, no MLC steering.
    IatDynamic,
}

impl SteeringPolicy {
    /// The paper's Fig. 9 policies, in presentation order.
    pub const ALL: [SteeringPolicy; 5] = [
        SteeringPolicy::Ddio,
        SteeringPolicy::InvalidateOnly,
        SteeringPolicy::PrefetchOnly,
        SteeringPolicy::StaticIdio,
        SteeringPolicy::Idio,
    ];

    /// Every implemented policy, including the prior-work IAT baseline.
    pub const EXTENDED: [SteeringPolicy; 6] = [
        SteeringPolicy::Ddio,
        SteeringPolicy::IatDynamic,
        SteeringPolicy::InvalidateOnly,
        SteeringPolicy::PrefetchOnly,
        SteeringPolicy::StaticIdio,
        SteeringPolicy::Idio,
    ];

    /// Whether the software stack self-invalidates consumed buffers.
    pub fn invalidates(self) -> bool {
        matches!(
            self,
            SteeringPolicy::InvalidateOnly | SteeringPolicy::StaticIdio | SteeringPolicy::Idio
        )
    }

    /// Whether the LLC's DDIO way count is re-tuned at runtime.
    pub fn tunes_ddio_ways(self) -> bool {
        matches!(self, SteeringPolicy::IatDynamic)
    }

    /// How payload MLC steering is decided.
    pub fn prefetch_mode(self) -> PrefetchMode {
        match self {
            SteeringPolicy::Ddio | SteeringPolicy::InvalidateOnly | SteeringPolicy::IatDynamic => {
                PrefetchMode::Off
            }
            SteeringPolicy::PrefetchOnly | SteeringPolicy::Idio => PrefetchMode::Dynamic,
            SteeringPolicy::StaticIdio => PrefetchMode::Always,
        }
    }

    /// Whether headers are steered to the destination MLC (any
    /// prefetch-capable policy).
    pub fn prefetches_headers(self) -> bool {
        self.prefetch_mode() != PrefetchMode::Off
    }

    /// Whether class-1 payloads bypass the cache hierarchy (selective
    /// direct DRAM access, mechanism 3).
    pub fn direct_dram(self) -> bool {
        matches!(self, SteeringPolicy::StaticIdio | SteeringPolicy::Idio)
    }

    /// Short display label used in reports and figures.
    pub fn label(self) -> &'static str {
        match self {
            SteeringPolicy::Ddio => "DDIO",
            SteeringPolicy::InvalidateOnly => "Invalidate",
            SteeringPolicy::PrefetchOnly => "Prefetch",
            SteeringPolicy::StaticIdio => "Static",
            SteeringPolicy::Idio => "IDIO",
            SteeringPolicy::IatDynamic => "IAT",
        }
    }

    /// The lowercase CLI and scenario-file name (`ddio`, `invalidate`,
    /// `prefetch`, `static`, `idio`, `iat`).
    pub fn name(self) -> &'static str {
        match self {
            SteeringPolicy::Ddio => "ddio",
            SteeringPolicy::InvalidateOnly => "invalidate",
            SteeringPolicy::PrefetchOnly => "prefetch",
            SteeringPolicy::StaticIdio => "static",
            SteeringPolicy::Idio => "idio",
            SteeringPolicy::IatDynamic => "iat",
        }
    }

    /// Parses a CLI policy name (the inverse of [`SteeringPolicy::name`]).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::EXTENDED.into_iter().find(|p| p.name() == name)
    }

    /// The capability set this preset resolves to. The named policies are
    /// pure presets over [`PolicyCaps`]: every behavioral question the hot
    /// path asks goes through the caps, never back through the enum.
    pub fn caps(self) -> PolicyCaps {
        PolicyCaps {
            invalidate: self.invalidates(),
            prefetch: self.prefetch_mode(),
            direct_dram: self.direct_dram(),
            tune_ddio_ways: self.tunes_ddio_ways(),
            cat: CatMode::Off,
        }
    }
}

/// How the policy domain's core-side LLC ways are partitioned (Intel
/// CAT layered on the DDIO partition, the IOCA/A4 lever). The mask only
/// constrains *core-side* fills — demand misses and MLC victims of the
/// domain's cores; inbound DMA keeps the DDIO ways regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CatMode {
    /// No partitioning: the domain's cores fill through the hierarchy's
    /// shared core mask (all non-DDIO ways unless configured otherwise).
    #[default]
    Off,
    /// A fixed way mask, validated against the LLC associativity and the
    /// DDIO partition at configuration time.
    Static(WayMask),
    /// The closed-loop CAT controller carves an exclusive slice of the
    /// non-DDIO ways for this domain and resizes it from telemetry.
    Auto,
}

/// The orthogonal capabilities a steering policy resolves to — what the
/// data and control planes actually consult. The six named
/// [`SteeringPolicy`] values are presets over this struct; a custom
/// combination can express configurations the paper never named (e.g.
/// invalidation plus static MLC steering without direct DRAM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyCaps {
    /// The software stack self-invalidates consumed buffers (mechanism 1).
    pub invalidate: bool,
    /// How payload MLC steering is decided (mechanism 2).
    pub prefetch: PrefetchMode,
    /// Class-1 payloads bypass the hierarchy (mechanism 3).
    pub direct_dram: bool,
    /// The LLC's DDIO way count is re-tuned at runtime (IAT-style).
    pub tune_ddio_ways: bool,
    /// Core-side LLC way partitioning for this domain's cores (CAT).
    pub cat: CatMode,
}

impl PolicyCaps {
    /// Whether headers are steered to the destination MLC (any
    /// prefetch-capable capability set).
    pub fn prefetches_headers(self) -> bool {
        self.prefetch != PrefetchMode::Off
    }
}

impl From<SteeringPolicy> for PolicyCaps {
    fn from(p: SteeringPolicy) -> Self {
        p.caps()
    }
}

/// A policy selection in the layered table: a named preset or an explicit
/// capability set. Preset-only configurations resolve to exactly the
/// behavior the global enum produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicySpec {
    /// One of the paper's named policies.
    Preset(SteeringPolicy),
    /// An explicit capability combination.
    Custom(PolicyCaps),
}

impl PolicySpec {
    /// The capability set this spec resolves to.
    pub fn caps(&self) -> PolicyCaps {
        match *self {
            PolicySpec::Preset(p) => p.caps(),
            PolicySpec::Custom(c) => c,
        }
    }

    /// Display label: the preset's figure label, or a deterministic
    /// rendering of the custom capability set.
    pub fn label(&self) -> String {
        match *self {
            PolicySpec::Preset(p) => p.label().to_string(),
            PolicySpec::Custom(c) => {
                let pf = match c.prefetch {
                    PrefetchMode::Off => "off",
                    PrefetchMode::Always => "always",
                    PrefetchMode::Dynamic => "dynamic",
                };
                let cat = match c.cat {
                    CatMode::Off => String::new(),
                    CatMode::Static(m) => format!(",ways={:#b}", m.bits()),
                    CatMode::Auto => ",cat=auto".to_string(),
                };
                format!(
                    "custom(inval={},prefetch={pf},dram={},tune={}{cat})",
                    u8::from(c.invalidate),
                    u8::from(c.direct_dram),
                    u8::from(c.tune_ddio_ways),
                )
            }
        }
    }
}

impl From<SteeringPolicy> for PolicySpec {
    fn from(p: SteeringPolicy) -> Self {
        PolicySpec::Preset(p)
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The layered policy configuration resolved into dense per-queue arrays.
///
/// Resolution happens once (at `System::new` time): the system default
/// and the per-tenant overrides collapse into a set of
/// *policy domains* — the distinct capability sets active in the run —
/// plus a queue → domain index. The hot path then does exactly one array
/// index per DMA line instead of a layered lookup.
///
/// Domain 0 is always the system default, even when every queue overrides
/// it (the control plane's way tuner and the report's headline label both
/// key off it). Further domains are interned in ascending queue order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyTable {
    domains: Vec<PolicySpec>,
    domain_caps: Vec<PolicyCaps>,
    queue_domain: Vec<u16>,
}

impl PolicyTable {
    /// Resolves `per_queue` effective specs (one per receive queue, already
    /// layered: queue override > tenant override > `default`) into interned
    /// domains.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` distinct domains appear (impossible
    /// in practice: domains are bounded by the queue count).
    pub fn new(default: PolicySpec, per_queue: &[PolicySpec]) -> Self {
        let mut domains = vec![default];
        let mut queue_domain = Vec::with_capacity(per_queue.len());
        for spec in per_queue {
            let id = match domains.iter().position(|d| d == spec) {
                Some(i) => i,
                None => {
                    domains.push(*spec);
                    domains.len() - 1
                }
            };
            queue_domain.push(u16::try_from(id).expect("domain count fits u16"));
        }
        let domain_caps = domains.iter().map(|d| d.caps()).collect();
        PolicyTable {
            domains,
            domain_caps,
            queue_domain,
        }
    }

    /// A table where every queue runs the system default (legacy global
    /// behavior).
    pub fn uniform(default: PolicySpec, queues: usize) -> Self {
        PolicyTable {
            domains: vec![default],
            domain_caps: vec![default.caps()],
            queue_domain: vec![0; queues],
        }
    }

    /// Number of distinct policy domains (≥ 1; domain 0 is the default).
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }

    /// Number of receive queues the table covers.
    pub fn num_queues(&self) -> usize {
        self.queue_domain.len()
    }

    /// The spec of `domain`.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range.
    pub fn spec(&self, domain: u16) -> PolicySpec {
        self.domains[usize::from(domain)]
    }

    /// The resolved capability set of `domain` — the hot path's one index.
    ///
    /// # Panics
    ///
    /// Panics if `domain` is out of range.
    #[inline]
    pub fn caps(&self, domain: u16) -> PolicyCaps {
        self.domain_caps[usize::from(domain)]
    }

    /// All domain capability sets, indexed by domain id.
    pub fn domain_caps(&self) -> &[PolicyCaps] {
        &self.domain_caps
    }

    /// The domain `queue` resolved to.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is out of range.
    #[inline]
    pub fn queue_domain(&self, queue: usize) -> u16 {
        self.queue_domain[queue]
    }

    /// The per-queue domain array (what the NIC config carries).
    pub fn queue_domains(&self) -> &[u16] {
        &self.queue_domain
    }

    /// Whether any domain (default or override) wants the DDIO way tuner.
    pub fn any_tunes_ddio_ways(&self) -> bool {
        self.domain_caps.iter().any(|c| c.tune_ddio_ways)
    }

    /// Whether any domain carries a CAT partition (static or auto).
    pub fn any_cat(&self) -> bool {
        self.domain_caps.iter().any(|c| c.cat != CatMode::Off)
    }

    /// Whether any domain runs the closed-loop CAT controller.
    pub fn any_cat_auto(&self) -> bool {
        self.domain_caps.iter().any(|c| c.cat == CatMode::Auto)
    }
}

impl fmt::Display for SteeringPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capability_matrix_matches_fig9() {
        use SteeringPolicy::*;
        assert!(!Ddio.invalidates() && Ddio.prefetch_mode() == PrefetchMode::Off);
        assert!(InvalidateOnly.invalidates());
        assert_eq!(InvalidateOnly.prefetch_mode(), PrefetchMode::Off);
        assert!(!PrefetchOnly.invalidates());
        assert_eq!(PrefetchOnly.prefetch_mode(), PrefetchMode::Dynamic);
        assert!(StaticIdio.invalidates());
        assert_eq!(StaticIdio.prefetch_mode(), PrefetchMode::Always);
        assert!(Idio.invalidates());
        assert_eq!(Idio.prefetch_mode(), PrefetchMode::Dynamic);
    }

    #[test]
    fn direct_dram_only_with_full_mechanisms() {
        assert!(!SteeringPolicy::Ddio.direct_dram());
        assert!(!SteeringPolicy::PrefetchOnly.direct_dram());
        assert!(SteeringPolicy::StaticIdio.direct_dram());
        assert!(SteeringPolicy::Idio.direct_dram());
    }

    #[test]
    fn caps_mirror_the_enum_methods() {
        for p in SteeringPolicy::EXTENDED {
            let c = p.caps();
            assert_eq!(c.invalidate, p.invalidates(), "{p}");
            assert_eq!(c.prefetch, p.prefetch_mode(), "{p}");
            assert_eq!(c.direct_dram, p.direct_dram(), "{p}");
            assert_eq!(c.tune_ddio_ways, p.tunes_ddio_ways(), "{p}");
            assert_eq!(c.prefetches_headers(), p.prefetches_headers(), "{p}");
            assert_eq!(PolicyCaps::from(p), c);
        }
    }

    #[test]
    fn spec_labels_and_parsing() {
        for p in SteeringPolicy::EXTENDED {
            assert_eq!(PolicySpec::Preset(p).label(), p.label());
            let name = p.label().to_lowercase();
            let name = match p {
                SteeringPolicy::InvalidateOnly => "invalidate".to_string(),
                SteeringPolicy::StaticIdio => "static".to_string(),
                _ => name,
            };
            assert_eq!(SteeringPolicy::from_name(&name), Some(p), "{name}");
        }
        assert_eq!(SteeringPolicy::from_name("bogus"), None);
        let caps = PolicyCaps {
            invalidate: true,
            prefetch: PrefetchMode::Always,
            direct_dram: false,
            tune_ddio_ways: true,
            cat: CatMode::Off,
        };
        let custom = PolicySpec::Custom(caps);
        assert_eq!(
            custom.label(),
            "custom(inval=1,prefetch=always,dram=0,tune=1)"
        );
        assert_eq!(format!("{custom}"), custom.label());
        let auto = PolicySpec::Custom(PolicyCaps {
            cat: CatMode::Auto,
            ..caps
        });
        assert_eq!(
            auto.label(),
            "custom(inval=1,prefetch=always,dram=0,tune=1,cat=auto)"
        );
        let fixed = PolicySpec::Custom(PolicyCaps {
            cat: CatMode::Static(WayMask::range(4, 8)),
            ..caps
        });
        assert_eq!(
            fixed.label(),
            "custom(inval=1,prefetch=always,dram=0,tune=1,ways=0b11110000)"
        );
    }

    #[test]
    fn cat_helpers_see_through_the_table() {
        let idio = PolicySpec::Preset(SteeringPolicy::Idio);
        let cat = PolicySpec::Custom(PolicyCaps {
            cat: CatMode::Auto,
            ..SteeringPolicy::Idio.caps()
        });
        let t = PolicyTable::new(idio, &[idio, cat]);
        assert!(t.any_cat() && t.any_cat_auto());
        let fixed = PolicySpec::Custom(PolicyCaps {
            cat: CatMode::Static(WayMask::range(2, 4)),
            ..SteeringPolicy::Ddio.caps()
        });
        let u = PolicyTable::new(idio, &[fixed]);
        assert!(u.any_cat() && !u.any_cat_auto());
        assert!(!PolicyTable::uniform(idio, 2).any_cat());
    }

    #[test]
    fn table_interns_domains_in_queue_order() {
        let ddio = PolicySpec::Preset(SteeringPolicy::Ddio);
        let idio = PolicySpec::Preset(SteeringPolicy::Idio);
        let iat = PolicySpec::Preset(SteeringPolicy::IatDynamic);
        let t = PolicyTable::new(idio, &[idio, ddio, iat, ddio]);
        assert_eq!(t.num_domains(), 3, "default + two overrides");
        assert_eq!(t.num_queues(), 4);
        assert_eq!(t.queue_domains(), &[0, 1, 2, 1]);
        assert_eq!(t.spec(0), idio);
        assert_eq!(t.spec(1), ddio);
        assert_eq!(t.caps(2), SteeringPolicy::IatDynamic.caps());
        assert!(t.any_tunes_ddio_ways());
        // A preset override identical to the default folds into domain 0.
        let u = PolicyTable::new(idio, &[idio, idio]);
        assert_eq!(u.num_domains(), 1);
        assert_eq!(u, PolicyTable::uniform(idio, 2));
        assert!(!u.any_tunes_ddio_ways());
    }

    #[test]
    fn names_round_trip() {
        for p in SteeringPolicy::EXTENDED {
            assert_eq!(SteeringPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(SteeringPolicy::from_name("IDIO"), None);
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<_> = SteeringPolicy::ALL.iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
        assert_eq!(format!("{}", SteeringPolicy::Idio), "IDIO");
    }
}
