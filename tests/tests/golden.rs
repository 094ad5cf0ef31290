//! Golden-report regression harness.
//!
//! Runs a curated subset of the `Scale::quick()` figure suite and diffs
//! the compact JSON (tables only — the raw time series are dropped to
//! keep the goldens reviewable) against the blessed copies under
//! `tests/golden/`. The simulation is deterministic, so any diff is a
//! behaviour change that must be either fixed or explicitly re-blessed:
//!
//! ```text
//! IDIO_BLESS=1 cargo test -p idio-integration-tests --test golden
//! ```
//!
//! The subset covers both tables, a bursty timeline figure (fig5), a
//! forwarding NF (fig11), direct DRAM placement, steady traffic (fig13)
//! and the recycling-mode comparison — one figure per simulation regime —
//! while staying cheap enough for debug-mode CI. The other ten quick
//! figures' tables are pinned by the `golden_metrics` test, which runs
//! every quick cell anyway. The full suite's `--jobs`-independence is
//! covered by the determinism tests.

use std::path::PathBuf;

use idio_bench::experiment_spec;
use idio_bench::json::figure_to_json;
use idio_core::experiments::Scale;
use idio_core::sweep::{run_figures, SweepOptions};

/// Figures under golden protection (experiment names as accepted by the
/// `repro` binary).
const GOLDEN: &[&str] = &[
    "table1",
    "table2",
    "fig5",
    "fig11",
    "direct-dram",
    "fig13",
    "copy-mode",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn blessing() -> bool {
    std::env::var_os("IDIO_BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn quick_suite_matches_blessed_goldens() {
    let specs = GOLDEN
        .iter()
        .map(|name| experiment_spec(name, Scale::quick()).expect("known name"))
        .collect();
    // Default options: the same root seed and declaration order the repro
    // binary uses, so goldens match `repro --quick --json` rows.
    let figures = run_figures(specs, &SweepOptions::default()).figures;

    let dir = golden_dir();
    let mut failures = Vec::new();
    for mut figure in figures {
        // Compact form: drop the sampled series, keep identity + table.
        figure.series.clear();
        let rendered = format!("{}\n", figure_to_json(&figure));
        let path = dir.join(format!("{}.json", figure.id));
        if blessing() {
            std::fs::create_dir_all(&dir).expect("create golden dir");
            std::fs::write(&path, &rendered).expect("write golden");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == rendered => {}
            Ok(expected) => failures.push(format!(
                "{}: output diverged from golden.\n--- golden\n{expected}\n--- current\n{rendered}",
                figure.id
            )),
            Err(e) => failures.push(format!(
                "{}: missing golden at {} ({e}); run with IDIO_BLESS=1 to create it",
                figure.id,
                path.display()
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches (IDIO_BLESS=1 re-blesses after intentional changes):\n{}",
        failures.join("\n")
    );
}
