//! Determinism guarantees of the sweep orchestrator.
//!
//! Two contracts: (1) the same root seed reproduces identical simulation
//! totals run-to-run, and (2) the serialized figure output is a pure
//! function of the declared cells — byte-identical no matter how many
//! workers execute the sweep.

use idio_bench::json::figures_to_json;
use idio_core::config::SystemConfig;
use idio_core::experiments::{self, Scale};
use idio_core::net::gen::TrafficPattern;
use idio_core::sweep::{run_cells, run_figures, FigureSpec, SweepCell, SweepOptions};
use idio_engine::telemetry::{records_to_ndjson, TraceFilter};
use idio_engine::time::{Duration, SimTime};

/// A small scenario whose behaviour actually depends on the RNG (the LLC
/// antagonist draws its access pattern from the seeded stream).
fn antagonist_cell(label: &str) -> SweepCell {
    let mut cfg = SystemConfig::touchdrop_scenario(2, TrafficPattern::Steady { rate_gbps: 5.0 })
        .with_antagonist();
    cfg.duration = SimTime::from_us(300);
    cfg.drain_grace = Duration::from_us(100);
    SweepCell::new(label, cfg)
}

#[test]
fn same_root_seed_reproduces_identical_totals() {
    let opts = SweepOptions {
        root_seed: 0xFEED,
        ..SweepOptions::default()
    };
    let first = run_cells(
        vec![antagonist_cell("det/a"), antagonist_cell("det/b")],
        &opts,
    )
    .unwrap();
    let second = run_cells(
        vec![antagonist_cell("det/a"), antagonist_cell("det/b")],
        &opts,
    )
    .unwrap();
    for (x, y) in first.iter().zip(&second) {
        assert_eq!(x.seed, y.seed);
        assert_eq!(
            x.report.totals, y.report.totals,
            "rerun diverged for {}",
            x.label
        );
    }
}

#[test]
fn different_root_seeds_derive_different_cell_seeds() {
    let a = run_cells(
        vec![antagonist_cell("det/a")],
        &SweepOptions {
            root_seed: 1,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let b = run_cells(
        vec![antagonist_cell("det/a")],
        &SweepOptions {
            root_seed: 2,
            ..SweepOptions::default()
        },
    )
    .unwrap();
    assert_ne!(a[0].seed, b[0].seed);
}

fn sample_specs() -> Vec<FigureSpec> {
    let scale = Scale::quick();
    vec![
        experiments::fig5_spec(scale),
        experiments::direct_dram_spec(scale),
        experiments::fig13_spec(scale),
    ]
}

#[test]
fn figure_json_is_byte_identical_across_worker_counts() {
    let serial = {
        let suite = run_figures(sample_specs(), &SweepOptions::default()).unwrap();
        assert_eq!(suite.timing.jobs, 1);
        figures_to_json(&suite.figures)
    };
    let parallel = {
        let opts = SweepOptions {
            jobs: 4,
            ..SweepOptions::default()
        };
        let suite = run_figures(sample_specs(), &opts).unwrap();
        assert_eq!(suite.timing.jobs, 4);
        figures_to_json(&suite.figures)
    };
    assert_eq!(serial, parallel, "--jobs 1 and --jobs 4 output diverged");
}

/// Like [`antagonist_cell`] but with full tracing on, so the trace
/// contract itself is under test.
fn traced_cell(label: &str) -> SweepCell {
    let mut cell = antagonist_cell(label);
    cell.cfg.trace = TraceFilter::all();
    cell
}

/// Trace records and the metrics snapshot are part of the deterministic
/// output contract: byte-identical run-to-run and across worker counts.
/// This is what makes `scenario run --trace` and `repro --metrics` diffable.
#[test]
fn trace_and_metrics_are_byte_identical_across_worker_counts() {
    let cells = || {
        vec![
            traced_cell("trace/a"),
            traced_cell("trace/b"),
            traced_cell("trace/c"),
        ]
    };
    let opts = |jobs| SweepOptions {
        jobs,
        root_seed: 0xFEED,
        ..SweepOptions::default()
    };
    let render = |outcomes: Vec<idio_core::sweep::CellOutcome>| -> Vec<(String, String, String)> {
        outcomes
            .into_iter()
            .map(|o| {
                assert!(!o.report.trace.is_empty(), "trace empty for {}", o.label);
                (
                    o.label,
                    records_to_ndjson(&o.report.trace),
                    o.report.metrics.to_json(),
                )
            })
            .collect()
    };
    let serial = render(run_cells(cells(), &opts(1)).unwrap());
    let parallel = render(run_cells(cells(), &opts(4)).unwrap());
    assert_eq!(
        serial, parallel,
        "--jobs 1 and --jobs 4 trace/metrics diverged"
    );
}

/// The per-cell metrics that back `repro --metrics` come out in cell
/// declaration order and are byte-identical across worker counts.
#[test]
fn suite_cell_metrics_are_deterministic_across_worker_counts() {
    let render = |jobs| {
        let opts = SweepOptions {
            jobs,
            ..SweepOptions::default()
        };
        let suite = run_figures(sample_specs(), &opts).unwrap();
        suite
            .cells
            .iter()
            .map(|c| (c.label.clone(), c.metrics.to_json()))
            .collect::<Vec<_>>()
    };
    let serial = render(1);
    let parallel = render(4);
    assert!(!serial.is_empty());
    let declared: Vec<String> = sample_specs()
        .iter()
        .flat_map(|s| s.cells.iter().map(|c| c.label.clone()))
        .collect();
    let got: Vec<String> = serial.iter().map(|(l, _)| l.clone()).collect();
    assert_eq!(declared, got, "cells out of declaration order");
    assert_eq!(serial, parallel, "--jobs 1 and --jobs 4 metrics diverged");
}

#[test]
fn suite_timing_covers_every_declared_cell() {
    let specs = sample_specs();
    let declared: Vec<(&'static str, usize)> =
        specs.iter().map(|s| (s.id, s.cells.len())).collect();
    let timing = run_figures(specs, &SweepOptions::default()).unwrap().timing;
    let measured: Vec<(&'static str, usize)> = timing
        .figures
        .iter()
        .map(|f| (f.id, f.cells.len()))
        .collect();
    assert_eq!(declared, measured);
    assert!(timing.cpu_total() > std::time::Duration::ZERO);
}
