//! Minimal JSON serialisation for figure results (no external
//! dependencies), so `repro --json` output can be piped straight into
//! plotting scripts.

use idio_core::experiments::FigureResult;
use idio_core::sweep::{CellMetrics, SuiteTiming};
use idio_engine::json;

/// Renders one figure result as a JSON object:
///
/// ```json
/// {
///   "id": "fig9",
///   "title": "...",
///   "columns": ["rate", "policy", ...],
///   "rows": [["100G", "DDIO", ...], ...],
///   "series": {"100_DDIO_mlc_wb": [[10.0, 92.5], ...]}
/// }
/// ```
///
/// Series samples are `[time_us, value]` pairs.
///
/// # Examples
///
/// ```
/// use idio_bench::json::figure_to_json;
/// use idio_core::experiments;
///
/// let json = figure_to_json(&experiments::table2());
/// assert!(json.contains("\"id\": \"table2\""));
/// assert!(json.contains("TouchDrop"));
/// ```
pub fn figure_to_json(fig: &FigureResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"id\": {},\n", json::string(fig.id)));
    out.push_str(&format!("  \"title\": {},\n", json::string(&fig.title)));

    let cols: Vec<String> = fig.columns.iter().map(|c| json::string(c)).collect();
    out.push_str(&format!("  \"columns\": [{}],\n", cols.join(", ")));

    let rows: Vec<String> = fig
        .rows
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(|c| json::string(c)).collect();
            format!("    [{}]", cells.join(", "))
        })
        .collect();
    out.push_str(&format!("  \"rows\": [\n{}\n  ],\n", rows.join(",\n")));

    let series: Vec<String> = fig
        .series
        .iter()
        .map(|(name, ts)| {
            let samples: Vec<String> = ts
                .samples()
                .map(|s| {
                    format!(
                        "[{}, {}]",
                        json::float(s.at.as_us_f64()),
                        json::float(s.value)
                    )
                })
                .collect();
            format!("    {}: [{}]", json::string(name), samples.join(", "))
        })
        .collect();
    out.push_str(&format!("  \"series\": {{\n{}\n  }}\n", series.join(",\n")));
    out.push('}');
    out
}

/// Renders one cell's final metrics as the NDJSON line `repro --metrics`
/// emits, e.g. `{"cell":"fig9/100G/DDIO","metrics":{...}}`.
///
/// The golden harness blesses these exact lines, so the repro binary and
/// the regression test must share this rendering.
pub fn cell_metrics_line(cell: &CellMetrics) -> String {
    format!(
        "{{\"cell\":{},\"metrics\":{}}}",
        json::string(&cell.label),
        cell.metrics.to_json()
    )
}

/// Renders a list of figures as a JSON array.
pub fn figures_to_json(figs: &[FigureResult]) -> String {
    let items: Vec<String> = figs.iter().map(figure_to_json).collect();
    format!("[\n{}\n]", items.join(",\n"))
}

/// Renders a sweep timing summary as a JSON object:
///
/// ```json
/// {
///   "wall_ms": 1234.5,
///   "jobs": 8,
///   "root_seed": 3344,
///   "cpu_ms": 9000.1,
///   "figures": [
///     {"id": "fig9", "cpu_ms": 800.0,
///      "cells": [{"label": "fig9/100G/DDIO", "wall_ms": 66.7}, ...]},
///     ...
///   ]
/// }
/// ```
///
/// Kept separate from the figure JSON: figure output is a deterministic
/// function of the configuration, timing is host noise.
pub fn suite_timing_to_json(timing: &SuiteTiming) -> String {
    let ms = |d: std::time::Duration| json::float(d.as_secs_f64() * 1e3);
    let figures: Vec<String> = timing
        .figures
        .iter()
        .map(|f| {
            let cells: Vec<String> = f
                .cells
                .iter()
                .map(|c| {
                    // Per-event-type engine-loop profile: counts are
                    // deterministic; wall_ms is zero unless the sweep ran
                    // with event profiling on (repro --timings).
                    let events: Vec<String> = c
                        .events
                        .iter()
                        .filter(|e| e.count > 0)
                        .map(|e| {
                            format!(
                                "{{\"name\": {}, \"count\": {}, \"wall_ms\": {}}}",
                                json::string(e.name),
                                e.count,
                                ms(e.wall)
                            )
                        })
                        .collect();
                    format!(
                        "      {{\"label\": {}, \"wall_ms\": {}, \"events\": [{}]}}",
                        json::string(&c.label),
                        ms(c.wall),
                        events.join(", ")
                    )
                })
                .collect();
            format!(
                "    {{\"id\": {}, \"cpu_ms\": {}, \"cells\": [\n{}\n    ]}}",
                json::string(f.id),
                ms(f.cpu_total()),
                cells.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"wall_ms\": {},\n  \"jobs\": {},\n  \"root_seed\": {},\n  \"cpu_ms\": {},\n  \"figures\": [\n{}\n  ]\n}}",
        ms(timing.wall),
        timing.jobs,
        timing.root_seed,
        ms(timing.cpu_total()),
        figures.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_core::experiments;

    #[test]
    fn table_round_trips_structurally() {
        let json = figure_to_json(&experiments::table1());
        // Spot-check structure without a JSON parser dependency.
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches("\"columns\"").count(), 1);
        assert_eq!(json.matches("\"rows\"").count(), 1);
        assert_eq!(json.matches("\"series\"").count(), 1);
        // Balanced braces and brackets.
        let braces = json.matches('{').count() as i64 - json.matches('}').count() as i64;
        assert_eq!(braces, 0);
        let brackets = json.matches('[').count() as i64 - json.matches(']').count() as i64;
        assert_eq!(brackets, 0);
    }

    #[test]
    fn array_of_figures() {
        let json = figures_to_json(&[experiments::table1(), experiments::table2()]);
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"table1\"") && json.contains("\"table2\""));
    }
}
