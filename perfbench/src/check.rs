//! Output checks: simulated digests and the blessed per-cell goldens.

use std::collections::BTreeMap;
use std::path::Path;

use idio_core::RunReport;

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds bytes into the digest.
    pub fn bytes(mut self, data: &[u8]) -> Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Feeds a length-prefixed string.
    pub fn str(self, s: &str) -> Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Feeds a number.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The simulated digest of one cell: its label, events dispatched per
/// type, packets completed, received and dropped, and every flow-director
/// counter. Host time never enters it, so it must repeat exactly across
/// repetitions and between traced and untraced runs.
pub fn cell_digest(label: &str, report: &RunReport) -> Digest {
    let mut d = Digest::default().str(label);
    for p in &report.profile {
        d = d.str(p.name).u64(p.count);
    }
    let t = &report.totals;
    d = d.u64(t.completed_packets).u64(t.rx_packets).u64(t.rx_drops);
    for (name, v) in report.metrics.counters() {
        if name.starts_with("fd.") {
            d = d.str(name).u64(v);
        }
    }
    d
}

/// Blessed `repro --quick --metrics` lines, keyed by cell label.
pub fn load_metric_goldens(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read goldens '{}': {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|line| {
            let label = line
                .strip_prefix("{\"cell\":\"")
                .and_then(|rest| rest.split_once('"'))
                .map(|(label, _)| label.to_string())
                .ok_or_else(|| format!("{}: line without a cell label", path.display()))?;
            Ok((label, line.to_string()))
        })
        .collect()
}

/// Compares per-cell digest lists of two repetitions of one workload;
/// returns one message per cell whose digest differs.
pub fn digest_mismatches(
    what: &str,
    expected: &[(String, u64)],
    got: &[(String, u64)],
) -> Vec<String> {
    if expected.len() != got.len() {
        return vec![format!(
            "{what}: {} cells, expected {}",
            got.len(),
            expected.len()
        )];
    }
    expected
        .iter()
        .zip(got)
        .filter(|(e, g)| e != g)
        .map(|(e, g)| {
            format!(
                "{what}: cell '{}' digest {:016x}, expected {:016x}",
                g.0, g.1, e.1
            )
        })
        .collect()
}
