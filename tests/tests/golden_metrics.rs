//! Golden harness for per-cell `repro --metrics` output.
//!
//! Runs every experiment of the quick-scale suite ([`EXPERIMENTS`], the
//! 95 cells `repro --quick` runs) and diffs every cell's final metrics
//! snapshot — rendered exactly as `repro --quick --metrics` prints it, one
//! NDJSON line per cell in declaration order — against
//! `tests/golden/metrics.ndjson`.
//! Metric regressions (a counter silently stops incrementing, a gauge
//! changes scale) are caught the same way figure-table regressions
//! already are. Re-bless intentional changes with:
//!
//! ```text
//! IDIO_BLESS=1 cargo test -p idio-integration-tests --test golden_metrics
//! ```

use std::path::PathBuf;

use idio_bench::json::cell_metrics_line;
use idio_bench::{experiment_spec, EXPERIMENTS};
use idio_core::experiments::Scale;
use idio_core::sweep::{run_figures_detailed, SweepOptions};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("metrics.ndjson")
}

fn blessing() -> bool {
    std::env::var_os("IDIO_BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn quick_suite_metrics_match_blessed_goldens() {
    let specs = EXPERIMENTS
        .iter()
        .map(|name| experiment_spec(name, Scale::quick()).expect("known name"))
        .collect();
    // Same root seed and declaration order as the repro binary, so the
    // goldens match `repro --quick --metrics` lines. Output is identical
    // at any worker count; two workers halve the debug-build run time.
    let opts = SweepOptions {
        jobs: 2,
        ..SweepOptions::default()
    };
    let out = run_figures_detailed(specs, &opts);
    let rendered: String = out
        .cells
        .iter()
        .map(|c| format!("{}\n", cell_metrics_line(c)))
        .collect();

    let path = golden_path();
    if blessing() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let expected = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!(
            "missing metrics golden at {} ({e}); run with IDIO_BLESS=1 to create it",
            path.display()
        ),
    };
    if expected == rendered {
        return;
    }
    // Point at the first diverging cell line to keep the failure readable;
    // a full 90-cell dump would drown the actual regression.
    let mut exp_lines = expected.lines();
    let mut got_lines = rendered.lines();
    let mut line_no = 1usize;
    loop {
        match (exp_lines.next(), got_lines.next()) {
            (Some(e), Some(g)) if e == g => line_no += 1,
            (e, g) => panic!(
                "metrics output diverged from golden at line {line_no} \
                 (IDIO_BLESS=1 re-blesses after intentional changes):\n\
                 --- golden\n{}\n--- current\n{}",
                e.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>"),
            ),
        }
    }
}
