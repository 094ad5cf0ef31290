//! Run, check, or list multi-tenant scenarios — built-in or from files.
//!
//! ```text
//! cargo run -p idio-bench --release --bin scenario -- list
//! cargo run -p idio-bench --release --bin scenario -- run noisy-neighbor --jobs 4
//! cargo run -p idio-bench --release --bin scenario -- run examples/scenarios/llc-duel.toml
//! cargo run -p idio-bench --release --bin scenario -- check examples/scenarios/datacenter-200.toml
//! ```
//!
//! The legacy spellings (`scenario --list`, `scenario <builtin>`) keep
//! working. A positional that names an existing file (or ends in `.toml`)
//! is parsed as a scenario file; anything else is looked up among the
//! built-ins.
//!
//! The report is byte-identical at any `--jobs` (cell seeds derive from
//! stable labels), so the output can be diffed against the golden copies
//! under `tests/golden/scenario_<name>.json`.
//!
//! `run` can also write what the mixed cell records: its NDJSON trace
//! (`--trace <filter> --trace-out <file>`) and its per-control-tick
//! timeline (`--tick-metrics-out <file>`). Both are deterministic, and
//! the report is the same with or without them:
//!
//! ```text
//! cargo run -p idio-bench --release --bin scenario -- run \
//!     tests/scenario_files/bursty-pair.toml --tick-metrics-out tick.ndjson
//! ```

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

use idio_core::sweep::{SweepOptions, DEFAULT_ROOT_SEED};
use idio_engine::telemetry::{records_to_ndjson, TraceFilter};
use idio_scenario::{builtins, resolve, run_scenario_observed};

enum Command {
    Run,
    Check,
    List,
}

struct Args {
    command: Command,
    name: Option<String>,
    jobs: usize,
    seed: u64,
    out: Option<String>,
    progress: bool,
    trace: Option<TraceFilter>,
    trace_out: Option<String>,
    tick_metrics_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            command: Command::Run,
            name: None,
            jobs: 1,
            seed: DEFAULT_ROOT_SEED,
            out: None,
            progress: false,
            trace: None,
            trace_out: None,
            tick_metrics_out: None,
        }
    }
}

fn usage() {
    println!(
        "usage: scenario [run|check|list] [<name-or-file.toml>] [options]\n\
         run <what>         run a scenario and print its JSON report (default)\n\
         check <file>       parse and validate a scenario file, run nothing\n\
         list               list the built-in scenarios and exit\n\
         --list             alias of the list subcommand\n\
         --jobs <n> | -j    worker threads (0 = all cores; default 1)\n\
         --seed <n>         root seed cell seeds derive from (default {DEFAULT_ROOT_SEED:#x})\n\
         --out <file>       write the JSON report to <file> instead of stdout\n\
         --progress         print one line per finished cell to stderr\n\
         --trace <filter>   trace the mixed cell: 'all' or components like 'steer,fsm'\n\
         \x20                  (steer fsm prefetch maint event); needs --trace-out\n\
         --trace-out <file> write the mixed cell's NDJSON trace to <file>\n\
         --tick-metrics-out <file>\n\
         \x20                  write the mixed cell's per-control-tick NDJSON timeline\n\
         \x20                  (steering-mix delta, per-core FSM states, CAT) to <file>"
    );
}

/// Parses the value of numeric flag `flag`, naming the flag on error.
fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag} '{v}': {e}"))
}

fn parse() -> Result<Args, String> {
    let mut args = Args::default();
    let mut saw_command = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match a.as_str() {
            "--list" => {
                args.command = Command::List;
                saw_command = true;
            }
            "--jobs" | "-j" => args.jobs = number("--jobs", &val("--jobs")?)?,
            "--seed" => args.seed = number("--seed", &val("--seed")?)?,
            "--out" => args.out = Some(val("--out")?),
            "--progress" => args.progress = true,
            "--trace" => args.trace = Some(number("--trace", &val("--trace")?)?),
            "--trace-out" => args.trace_out = Some(val("--trace-out")?),
            "--tick-metrics-out" => args.tick_metrics_out = Some(val("--tick-metrics-out")?),
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            cmd if !saw_command && matches!(cmd, "run" | "check" | "list") => {
                args.command = match cmd {
                    "run" => Command::Run,
                    "check" => Command::Check,
                    _ => Command::List,
                };
                saw_command = true;
            }
            name if args.name.is_none() => {
                // Legacy spelling: a bare name implies `run <name>`.
                saw_command = true;
                args.name = Some(name.to_string());
            }
            extra => return Err(format!("unexpected argument '{extra}'")),
        }
    }
    if args.trace.is_some() != args.trace_out.is_some() {
        return Err("--trace and --trace-out go together".into());
    }
    Ok(args)
}

/// An output file, created before any cell runs so that an unwritable
/// path fails at once rather than after the sweep.
struct Sink {
    path: String,
    file: File,
}

impl Sink {
    fn create(path: &str) -> Result<Sink, String> {
        let file = File::create(path).map_err(|e| format!("cannot create '{path}': {e}"))?;
        let path = path.to_string();
        Ok(Sink { path, file })
    }

    fn write(self, bytes: &[u8]) -> Result<(), String> {
        let mut w = BufWriter::new(self.file);
        (w.write_all(bytes).and_then(|()| w.flush()))
            .map_err(|e| format!("cannot write to '{}': {e}", self.path))
    }
}

/// Ends the invocation with `error: <e>` on stderr and exit code 1.
fn fail(e: impl std::fmt::Display) -> io::Result<ExitCode> {
    eprintln!("error: {e}");
    Ok(ExitCode::FAILURE)
}

fn main() -> ExitCode {
    run(&mut io::stdout().lock()).unwrap_or_else(idio_bench::stdout_failed)
}

fn run(out: &mut impl Write) -> io::Result<ExitCode> {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return Ok(ExitCode::FAILURE);
        }
    };

    if matches!(args.command, Command::List) {
        for sc in builtins() {
            writeln!(out, "{:<16} {}", sc.name, sc.description)?;
        }
        return Ok(ExitCode::SUCCESS);
    }

    let Some(name) = args.name else {
        eprintln!("error: no scenario named\n");
        usage();
        return Ok(ExitCode::FAILURE);
    };
    let scenario = match resolve(&name) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };

    if let Err(e) = scenario.validate() {
        return fail(format!("{name}: {e}"));
    }
    if matches!(args.command, Command::Check) {
        writeln!(
            out,
            "ok: {}: {} tenants, {} cells, {} cores",
            scenario.name,
            scenario.tenants.len(),
            scenario.tenants.len() + 1,
            scenario.num_cores()
        )?;
        return Ok(ExitCode::SUCCESS);
    }

    let open = |path: &Option<String>| path.as_deref().map(Sink::create).transpose();
    let (report_sink, trace_sink, tick_sink) = match (
        open(&args.out),
        open(&args.trace_out),
        open(&args.tick_metrics_out),
    ) {
        (Ok(r), Ok(t), Ok(k)) => (r, t, k),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => return fail(e),
    };
    let opts = SweepOptions {
        jobs: args.jobs,
        root_seed: args.seed,
        progress: args.progress,
        profile_events: false,
    };
    let trace = args.trace.unwrap_or_else(TraceFilter::off);
    let tick_metrics = tick_sink.is_some();
    let (report, mixed) = match run_scenario_observed(&scenario, &opts, &trace, tick_metrics) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    if let Some(sink) = trace_sink {
        eprintln!(
            "[trace: {} records kept, {} evicted (filter {trace})]",
            mixed.trace.len(),
            mixed.trace_evicted
        );
        if let Err(e) = sink.write(records_to_ndjson(&mixed.trace).as_bytes()) {
            return fail(e);
        }
    }
    if let Some(sink) = tick_sink {
        let lines = mixed.tick_metrics.iter();
        let ndjson: String = lines.flat_map(|l| [l.as_str(), "\n"]).collect();
        if let Err(e) = sink.write(ndjson.as_bytes()) {
            return fail(e);
        }
    }
    let rendered = format!("{}\n", report.to_json());
    match report_sink {
        Some(sink) => {
            if let Err(e) = sink.write(rendered.as_bytes()) {
                return fail(e);
            }
        }
        None => write!(out, "{rendered}")?,
    }
    // SLO gate: a scenario whose tenants declared objectives fails the
    // invocation (after the report is written) when any bound is violated,
    // so CI can assert service levels with a plain exit-code check.
    let violations = report.slo_violations();
    if !violations.is_empty() {
        eprintln!("SLO violations:");
        for v in &violations {
            eprintln!("  {v}");
        }
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
