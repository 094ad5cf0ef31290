//! Golden harness for the whole quick-scale suite's output.
//!
//! Runs every experiment of the quick-scale suite ([`EXPERIMENTS`], the
//! 95 cells `repro --quick` runs) once and checks two things:
//!
//! * every cell's final metrics snapshot — rendered exactly as
//!   `repro --quick --metrics` prints it, one NDJSON line per cell in
//!   declaration order — against `tests/golden/metrics.ndjson`, so metric
//!   regressions (a counter silently stops incrementing, a gauge changes
//!   scale) are caught the same way figure-table regressions are;
//! * the compact table (series dropped, rendered as the `golden` test
//!   does) of each figure in [`TABLES`] against `tests/golden/<id>.json`.
//!   Together with the `golden` test's figures this pins every table of
//!   the suite, without a second simulation of these cells.
//!
//! Re-bless intentional changes with:
//!
//! ```text
//! IDIO_BLESS=1 cargo test -p idio-integration-tests --test golden_metrics
//! ```

use std::path::PathBuf;

use idio_bench::json::{cell_metrics_line, figure_to_json};
use idio_bench::{experiment_spec, EXPERIMENTS};
use idio_core::experiments::Scale;
use idio_core::sweep::{run_figures, SweepOptions};

/// Figure ids whose compact tables this test pins (the `golden` test pins
/// the rest of the suite).
const TABLES: &[&str] = &[
    "fig4",
    "fig9",
    "fig10",
    "fig12",
    "fig14",
    "future-work",
    "bloating",
    "baselines",
    "ring-sweep",
    "packet-sweep",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden")
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
    let out = run_figures(specs, &opts).unwrap();
    let rendered: String = out
        .cells
        .iter()
        .map(|c| format!("{}\n", cell_metrics_line(c)))
        .collect();
    let tables: Vec<(&str, String)> = out
        .figures
        .into_iter()
        .filter(|f| TABLES.contains(&f.id))
        .map(|mut figure| {
            // Compact form: drop the sampled series, keep identity + table.
            figure.series.clear();
            (figure.id, format!("{}\n", figure_to_json(&figure)))
        })
        .collect();
    assert_eq!(tables.len(), TABLES.len(), "every pinned figure ran");

    let dir = golden_dir();
    let path = dir.join("metrics.ndjson");
    if blessing() {
        std::fs::create_dir_all(&dir).expect("create golden dir");
        std::fs::write(&path, &rendered).expect("write golden");
        for (id, table) in &tables {
            std::fs::write(dir.join(format!("{id}.json")), table).expect("write golden");
        }
        return;
    }
    let mut failures = Vec::new();
    for (id, table) in &tables {
        let table_path = dir.join(format!("{id}.json"));
        match std::fs::read_to_string(&table_path) {
            Ok(expected) if expected == *table => {}
            Ok(expected) => failures.push(format!(
                "{id}: table diverged from golden.\n--- golden\n{expected}\n--- current\n{table}"
            )),
            Err(e) => failures.push(format!(
                "{id}: missing golden at {} ({e}); run with IDIO_BLESS=1 to create it",
                table_path.display()
            )),
        }
    }
    let expected = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => panic!(
            "missing metrics golden at {} ({e}); run with IDIO_BLESS=1 to create it",
            path.display()
        ),
    };
    if expected != rendered {
        // Point at the first diverging cell line to keep the failure
        // readable; a full 95-cell dump would drown the actual regression.
        let (mut exp_lines, mut got_lines) = (expected.lines(), rendered.lines());
        let mut line_no = 1usize;
        loop {
            match (exp_lines.next(), got_lines.next()) {
                (Some(e), Some(g)) if e == g => line_no += 1,
                (e, g) => {
                    failures.push(format!(
                        "metrics output diverged from golden at line {line_no}:\n\
                         --- golden\n{}\n--- current\n{}",
                        e.unwrap_or("<end of file>"),
                        g.unwrap_or("<end of file>"),
                    ));
                    break;
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches (IDIO_BLESS=1 re-blesses after intentional changes):\n{}",
        failures.join("\n")
    );
}
