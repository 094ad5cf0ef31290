//! Cache hierarchy configuration (geometry and way partitioning).

use crate::set::WayMask;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
}

impl CacheGeometry {
    /// Creates a geometry.
    pub const fn new(size_bytes: u64, ways: usize) -> Self {
        CacheGeometry { size_bytes, ways }
    }

    /// Capacity in 64-byte lines.
    pub const fn lines(&self) -> u64 {
        self.size_bytes / crate::addr::LINE_SIZE
    }
}

/// Full hierarchy configuration.
///
/// The defaults follow the paper's Table I gem5 configuration with the
/// Fig. 5 LLC scaling: 64 KiB 2-way L1D, 1 MiB 8-way MLC, and a 3 MiB
/// 12-way shared LLC of which 2 ways are DDIO ways. Access latencies are
/// the core timing model's (`idio_stack::timing`), not the geometry's.
///
/// # Examples
///
/// ```
/// use idio_cache::config::HierarchyConfig;
///
/// let cfg = HierarchyConfig::paper_default(2);
/// assert_eq!(cfg.mlc_for_core(0).size_bytes, 1 << 20);
/// assert_eq!(cfg.llc.ways, 12);
/// assert_eq!(cfg.ddio_mask().count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    /// Number of cores (each with a private L1D and MLC).
    pub num_cores: usize,
    /// L1 data cache geometry.
    pub l1d: CacheGeometry,
    /// Default private MLC (L2) geometry.
    pub mlc: CacheGeometry,
    /// Per-core MLC overrides (e.g. the 256 KiB MLC used for the
    /// LLCAntagonist core in Sec. VI). `None` means use [`Self::mlc`].
    pub mlc_overrides: Vec<Option<CacheGeometry>>,
    /// Shared LLC geometry (total, not per-core).
    pub llc: CacheGeometry,
    /// Number of LLC ways reserved for DDIO write-allocation (lowest ways).
    pub ddio_ways: usize,
    /// LLC ways core-demand fills and MLC victims may allocate into.
    /// Defaults to the complement of the DDIO ways: consumed DMA buffers
    /// bloat across the *non-DDIO* ways (Sec. III observation 3) while the
    /// DDIO partition stays reserved for inbound writes — keeping core
    /// victims out of the I/O ways, as CAT-based deployments (and IAT) set
    /// it up. The Fig. 4 `*_1way` configurations restrict this further.
    pub core_alloc_ways: Option<WayMask>,
}

impl HierarchyConfig {
    /// The Table I configuration scaled to the Fig. 5 evaluation setup
    /// (3 MiB LLC), for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn paper_default(num_cores: usize) -> Self {
        assert!(num_cores > 0, "need at least one core");
        HierarchyConfig {
            num_cores,
            l1d: CacheGeometry::new(64 << 10, 2),
            mlc: CacheGeometry::new(1 << 20, 8),
            mlc_overrides: vec![None; num_cores],
            llc: CacheGeometry::new(3 << 20, 12),
            ddio_ways: 2,
            core_alloc_ways: None,
        }
    }

    /// The MLC geometry for a specific core, honouring overrides.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn mlc_for_core(&self, core: usize) -> CacheGeometry {
        assert!(core < self.num_cores, "core {core} out of range");
        self.mlc_overrides
            .get(core)
            .copied()
            .flatten()
            .unwrap_or(self.mlc)
    }

    /// The DDIO way mask (lowest [`Self::ddio_ways`] ways).
    pub fn ddio_mask(&self) -> WayMask {
        WayMask::first(self.ddio_ways)
    }

    /// The way mask core demand fills and MLC victims allocate through
    /// (the non-DDIO ways unless overridden).
    pub fn core_mask(&self) -> WayMask {
        self.core_alloc_ways
            .unwrap_or_else(|| self.ddio_mask().complement(self.llc.ways))
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the configuration is invalid
    /// (zero cores, DDIO ways exceeding LLC associativity, capacities not
    /// divisible into sets, a core allocation mask that is empty or wider
    /// than the LLC, or an L1D not smaller than some core's MLC: L1 is
    /// inclusive in the MLC).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_cores == 0 {
            return Err("num_cores must be positive".into());
        }
        if self.ddio_ways == 0 || self.ddio_ways > self.llc.ways {
            return Err(format!(
                "ddio_ways {} must be in 1..={}",
                self.ddio_ways, self.llc.ways
            ));
        }
        let core_mask = self.core_mask();
        if core_mask.is_empty() {
            return Err("core allocation mask selects no LLC way".into());
        }
        if core_mask.intersect(WayMask::all(self.llc.ways)) != core_mask {
            return Err(format!(
                "core allocation mask {core_mask} wider than the {}-way LLC",
                self.llc.ways
            ));
        }
        for (geom, name) in [(self.l1d, "l1d"), (self.mlc, "mlc"), (self.llc, "llc")] {
            if geom.size_bytes % (crate::addr::LINE_SIZE * geom.ways as u64) != 0 {
                return Err(format!("{name} capacity not divisible into sets"));
            }
        }
        for (i, ov) in self.mlc_overrides.iter().enumerate() {
            if let Some(g) = ov {
                if g.size_bytes % (crate::addr::LINE_SIZE * g.ways as u64) != 0 {
                    return Err(format!("mlc override for core {i} not divisible into sets"));
                }
            }
        }
        for i in 0..self.num_cores {
            let mlc = self.mlc_for_core(i);
            if self.l1d.size_bytes >= mlc.size_bytes {
                return Err(format!(
                    "l1d capacity {} B not smaller than core {i}'s {} B mlc, \
                     which holds every L1 line",
                    self.l1d.size_bytes, mlc.size_bytes
                ));
            }
        }
        Ok(())
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper_default(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let cfg = HierarchyConfig::paper_default(2);
        assert_eq!(cfg.l1d, CacheGeometry::new(65536, 2));
        assert_eq!(cfg.mlc, CacheGeometry::new(1048576, 8));
        assert_eq!(cfg.llc, CacheGeometry::new(3 << 20, 12));
        assert_eq!(cfg.mlc.lines(), 16384);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn mlc_override_applies() {
        let mut cfg = HierarchyConfig::paper_default(3);
        cfg.mlc_overrides[1] = Some(CacheGeometry::new(256 << 10, 8));
        assert_eq!(cfg.mlc_for_core(1).size_bytes, 256 << 10);
        assert_eq!(cfg.mlc_for_core(0).size_bytes, 1 << 20);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_ddio_ways() {
        let mut cfg = HierarchyConfig::paper_default(1);
        cfg.ddio_ways = 13;
        assert!(cfg.validate().is_err());
        cfg.ddio_ways = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_core_mask() {
        let mut cfg = HierarchyConfig::paper_default(1);
        cfg.core_alloc_ways = Some(WayMask::EMPTY);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_core_mask_wider_than_llc() {
        let mut cfg = HierarchyConfig::paper_default(1);
        cfg.core_alloc_ways = Some(WayMask::from_bits(1 << 13));
        assert_eq!(
            cfg.validate().unwrap_err(),
            "core allocation mask ways0b10000000000000 wider than the 12-way LLC"
        );
        // Reaching one way past the LLC is as wrong as missing it.
        cfg.core_alloc_ways = Some(WayMask::range(2, 13));
        assert!(cfg.validate().is_err());
        cfg.core_alloc_ways = Some(WayMask::range(2, 12));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validate_rejects_an_l1d_not_smaller_than_an_mlc() {
        let mut cfg = HierarchyConfig::paper_default(3);
        cfg.mlc_overrides[2] = Some(CacheGeometry::new(64 << 10, 8));
        assert_eq!(
            cfg.validate().unwrap_err(),
            "l1d capacity 65536 B not smaller than core 2's 65536 B mlc, \
             which holds every L1 line"
        );
        cfg.mlc_overrides[2] = Some(CacheGeometry::new(128 << 10, 8));
        assert!(cfg.validate().is_ok());
        cfg.l1d = CacheGeometry::new(2 << 20, 2);
        assert!(cfg
            .validate()
            .unwrap_err()
            .starts_with("l1d capacity 2097152 B"));
    }

    #[test]
    fn one_way_cat_config_validates() {
        let mut cfg = HierarchyConfig::paper_default(2);
        cfg.core_alloc_ways = Some(WayMask::range(2, 3));
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.core_mask().count(), 1);
    }
}
