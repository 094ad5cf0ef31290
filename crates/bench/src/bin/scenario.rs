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

use std::io::{self, Write};
use std::process::ExitCode;

use idio_core::sweep::{SweepOptions, DEFAULT_ROOT_SEED};
use idio_scenario::{builtins, resolve, run_scenario};

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
         --progress         print one line per finished cell to stderr"
    );
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
            "--jobs" | "-j" => args.jobs = val("--jobs")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => args.out = Some(val("--out")?),
            "--progress" => args.progress = true,
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
    Ok(args)
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
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };

    if matches!(args.command, Command::Check) {
        if let Err(e) = scenario.validate() {
            eprintln!("error: {name}: {e}");
            return Ok(ExitCode::FAILURE);
        }
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

    let opts = SweepOptions {
        jobs: args.jobs,
        root_seed: args.seed,
        progress: args.progress,
        profile_events: false,
    };
    let report = match run_scenario(&scenario, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let rendered = format!("{}\n", report.to_json());
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("error: cannot write report to '{path}': {e}");
                return Ok(ExitCode::FAILURE);
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
