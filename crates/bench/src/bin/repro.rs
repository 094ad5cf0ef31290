//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p idio-bench --release --bin repro            # everything, full scale
//! cargo run -p idio-bench --release --bin repro -- --quick # shrunk runs
//! cargo run -p idio-bench --release --bin repro -- fig9 fig10
//! cargo run -p idio-bench --release --bin repro -- --series fig5
//! cargo run -p idio-bench --release --bin repro -- --jobs 8 --progress
//! ```
//!
//! All requested figures are fanned out as one cell pool over `--jobs`
//! worker threads; per-cell seeds are derived from the cell labels, so the
//! output is byte-identical for every `--jobs` value.

use std::io::{self, Write};
use std::process::ExitCode;

use idio_bench::json::{cell_metrics_line, figure_to_json, suite_timing_to_json};
use idio_bench::{experiment_spec, EXPERIMENTS};
use idio_core::experiments::Scale;
use idio_core::sweep::{run_figures, SweepOptions};

fn main() -> ExitCode {
    run(&mut io::stdout().lock()).unwrap_or_else(idio_bench::stdout_failed)
}

fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let mut scale = Scale::full();
    let mut print_series = false;
    let mut as_json = false;
    let mut timings = false;
    let mut metrics = false;
    let mut opts = SweepOptions::default();
    let mut names: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::quick(),
            "--series" => print_series = true,
            "--json" => as_json = true,
            "--timings" => {
                timings = true;
                // Per-event wall-clock makes --timings answer "where does
                // simulation time go"; it never touches stdout.
                opts.profile_events = true;
            }
            "--metrics" => metrics = true,
            "--progress" => opts.progress = true,
            "--jobs" | "-j" => match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) => opts.jobs = n,
                _ => {
                    eprintln!("error: --jobs needs a number (0 = all cores)");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--seed" => match args.next().map(|v| v.parse::<u64>()) {
                Some(Ok(s)) => opts.root_seed = s,
                _ => {
                    eprintln!("error: --seed needs an integer");
                    return Ok(ExitCode::FAILURE);
                }
            },
            "--help" | "-h" => {
                writeln!(
                    out,
                    "usage: repro [--quick] [--series] [--json] [--metrics] [--timings] \
                     [--progress] [--jobs N] [--seed S] [experiment...]"
                )?;
                writeln!(out, "experiments: {}", EXPERIMENTS.join(" "))?;
                return Ok(ExitCode::SUCCESS);
            }
            other => names.push(other.to_string()),
        }
    }
    if names.is_empty() {
        names = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }

    let mut specs = Vec::with_capacity(names.len());
    for name in &names {
        match experiment_spec(name, scale) {
            Ok(spec) => specs.push(spec),
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("known experiments: {}", EXPERIMENTS.join(" "));
                return Ok(ExitCode::FAILURE);
            }
        }
    }

    let suite = match run_figures(specs, &opts) {
        Ok(suite) => suite,
        Err(e) => {
            eprintln!("error: invalid configuration: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let timing = &suite.timing;

    for figure in &suite.figures {
        if as_json {
            writeln!(out, "{}", figure_to_json(figure))?;
            continue;
        }
        writeln!(out, "{figure}")?;
        if print_series {
            for (label, series) in &figure.series {
                writeln!(out, "-- series {label} ({} samples)", series.len())?;
                for s in series.samples() {
                    if s.value != 0.0 {
                        writeln!(out, "{:.1}us {:.2}", s.at.as_us_f64(), s.value)?;
                    }
                }
            }
        }
        writeln!(out)?;
    }

    if metrics {
        // Per-cell metrics in declaration order, one NDJSON line each.
        // Deterministic (byte-identical across --jobs values), so it
        // belongs on stdout with the figures.
        for cell in &suite.cells {
            writeln!(out, "{}", cell_metrics_line(cell))?;
        }
    }

    // Timing goes to stderr so stdout stays a pure function of the figure
    // results (byte-identical across --jobs values).
    if timings {
        eprintln!("{}", suite_timing_to_json(timing));
    } else {
        let cpu = timing.cpu_total();
        // cpu/wall is the mean number of in-flight cells, which equals the
        // speedup only when the host has that many free cores.
        eprintln!(
            "[{} cells on {} worker(s): wall {:.1?}, cell time {:.1?}, concurrency {:.2}x]",
            timing.figures.iter().map(|f| f.cells.len()).sum::<usize>(),
            timing.jobs,
            timing.wall,
            cpu,
            cpu.as_secs_f64() / timing.wall.as_secs_f64().max(1e-9),
        );
    }
    Ok(ExitCode::SUCCESS)
}
