//! Run one scenario — a built-in name or a `.toml` scenario file — as a
//! single mixed system and print its run report.
//!
//! ```text
//! cargo run -p idio-bench --release --bin simulate -- \
//!     tests/scenario_files/simulate-default.toml --antagonist --tick-metrics
//! ```
//!
//! The scenario file sets the workload: policy, tenants (NF, pool, cores,
//! traffic, rate, frame size, DSCP) and duration; see DESIGN.md "Scenario
//! files & generation". The flags set only what no scenario key models:
//! the NIC ring depth, the LLC antagonist, the mlcTHR override and the
//! seed. Prints the run report (transaction totals, latency percentiles,
//! burst processing times), optionally followed by the NDJSON trace or
//! tick-metrics timeline; `--all-policies` instead runs the scenario under
//! every preset and prints one comparison row per policy.

use std::io::{self, Write};
use std::process::ExitCode;

use idio_core::policy::SteeringPolicy;
use idio_core::sweep::{run_cells, SweepCell, SweepOptions};
use idio_core::system::System;
use idio_engine::telemetry::{records_to_ndjson, TraceFilter};
use idio_scenario::resolve;

struct Args {
    scenario: String,
    ring: u32,
    antagonist: bool,
    mlc_thr_mtps: Option<f64>,
    seed: u64,
    all_policies: bool,
    jobs: usize,
    trace: TraceFilter,
    trace_out: Option<String>,
    tick_metrics: bool,
    tick_metrics_out: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scenario: String::new(),
            ring: 1024,
            antagonist: false,
            mlc_thr_mtps: None,
            seed: 0xD10,
            all_policies: false,
            jobs: 1,
            trace: TraceFilter::off(),
            trace_out: None,
            tick_metrics: false,
            tick_metrics_out: None,
        }
    }
}

fn usage() {
    println!(
        "usage: simulate <builtin-or-file.toml> [options]\n\
         <builtin-or-file.toml>                          a built-in scenario name (see `scenario list`)\n\
                                                         or a scenario file; its tenants run together\n\
         --ring <slots>                                  NIC ring depth per queue (default 1024)\n\
         --antagonist                                    co-run LLCAntagonist on the next free core\n\
         --mlc-thr <mtps>                                override mlcTHR (positive, finite)\n\
         --seed <n>                                      PRNG seed (default 0xd10)\n\
         --all-policies                                  run every policy and compare (the scenario's\n\
                                                         tenants must set no policy, way_mask or cat)\n\
         --jobs <n>                                      worker threads for --all-policies (0 = all cores)\n\
         --trace <filter>                                dump NDJSON trace to stdout after the report;\n\
                                                         filter is 'all' or components like 'steer,fsm'\n\
                                                         (steer fsm prefetch maint event); ignored with\n\
                                                         --all-policies\n\
         --trace-out <file>                              write the NDJSON trace to <file> instead of\n\
                                                         stdout (requires --trace)\n\
         --tick-metrics                                  dump one NDJSON line per control tick\n\
                                                         (steering-mix delta, per-core FSM states,\n\
                                                         CAT timeline) after the report; deterministic\n\
         --tick-metrics-out <file>                       write the tick-metrics NDJSON to <file>\n\
                                                         instead of stdout (implies --tick-metrics)"
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
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match a.as_str() {
            "--ring" => {
                args.ring = number("--ring", &val("--ring")?)?;
                if args.ring == 0 {
                    return Err("--ring must be positive".into());
                }
            }
            "--antagonist" => args.antagonist = true,
            "--mlc-thr" => {
                let v = val("--mlc-thr")?;
                let thr: f64 = number("--mlc-thr", &v)?;
                if !(thr.is_finite() && thr > 0.0) {
                    return Err(format!("--mlc-thr must be a positive finite rate, got {v}"));
                }
                args.mlc_thr_mtps = Some(thr);
            }
            "--seed" => args.seed = number("--seed", &val("--seed")?)?,
            "--trace" => args.trace = val("--trace")?.parse()?,
            "--trace-out" => args.trace_out = Some(val("--trace-out")?),
            "--tick-metrics" => args.tick_metrics = true,
            "--tick-metrics-out" => {
                args.tick_metrics = true;
                args.tick_metrics_out = Some(val("--tick-metrics-out")?);
            }
            "--all-policies" => args.all_policies = true,
            "--jobs" | "-j" => args.jobs = number("--jobs", &val("--jobs")?)?,
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other if other.starts_with("--trace=") => {
                args.trace = other["--trace=".len()..].parse()?;
            }
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            name if args.scenario.is_empty() => args.scenario = name.to_string(),
            extra => return Err(format!("unexpected argument '{extra}'")),
        }
    }
    if args.scenario.is_empty() {
        return Err("no scenario named (pass a built-in name or a .toml file)".into());
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

    let scenario = match resolve(&args.scenario) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    if args.all_policies {
        if let Some(t) = scenario.tenants.iter().find(|t| t.policy.is_some()) {
            eprintln!(
                "error: --all-policies runs every preset on every tenant, but tenant '{}' \
                 sets its own policy (a policy, way_mask or cat key)",
                t.name
            );
            return Ok(ExitCode::FAILURE);
        }
    }

    // Validate the trace sink *before* the (potentially long) simulation:
    // an unwritable path must fail cleanly up front, not after minutes of
    // simulated time.
    let mut trace_sink = match &args.trace_out {
        Some(path) => {
            if args.trace.is_off() {
                eprintln!("error: --trace-out requires --trace");
                return Ok(ExitCode::FAILURE);
            }
            if args.all_policies {
                eprintln!("error: --trace-out cannot be combined with --all-policies");
                return Ok(ExitCode::FAILURE);
            }
            match std::fs::File::create(path) {
                Ok(f) => Some((path.clone(), f)),
                Err(e) => {
                    eprintln!("error: cannot create trace file '{path}': {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        None => None,
    };
    let mut tick_sink = match &args.tick_metrics_out {
        Some(path) => {
            if args.all_policies {
                eprintln!("error: --tick-metrics-out cannot be combined with --all-policies");
                return Ok(ExitCode::FAILURE);
            }
            match std::fs::File::create(path) {
                Ok(f) => Some((path.clone(), f)),
                Err(e) => {
                    eprintln!("error: cannot create tick-metrics file '{path}': {e}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        None => None,
    };
    if args.tick_metrics && args.all_policies {
        eprintln!("error: --tick-metrics cannot be combined with --all-policies");
        return Ok(ExitCode::FAILURE);
    }

    let mut cfg = scenario.mixed_config();
    cfg.ring_size = args.ring;
    cfg.seed = args.seed;
    if let Some(thr) = args.mlc_thr_mtps {
        cfg.idio = cfg.idio.with_mlc_thr_mtps(thr);
    }
    cfg.trace = args.trace.clone();
    cfg.tick_metrics = args.tick_metrics;
    if args.antagonist {
        cfg = cfg.with_antagonist();
    }
    // Building the system validates the configuration; --all-policies
    // runs the same configuration under each preset.
    let system = match System::try_new(cfg.clone()) {
        Ok(system) => system,
        Err(e) => {
            eprintln!("error: invalid configuration: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };

    if args.all_policies {
        drop(system);
        let cells: Vec<SweepCell> = SteeringPolicy::ALL
            .into_iter()
            .map(|policy| {
                SweepCell::new(
                    format!("simulate/{}", policy.label()),
                    cfg.clone().with_policy(policy),
                )
            })
            .collect();
        let opts = SweepOptions {
            jobs: args.jobs,
            root_seed: args.seed,
            progress: false,
            profile_events: false,
        };
        let outcomes = run_cells(cells, &opts);
        // Host time goes to stderr so stdout stays a pure function of the
        // scenario and seed (byte-identical at any --jobs).
        writeln!(
            out,
            "comparing {} policies, seed {:#x}:",
            outcomes.len(),
            args.seed
        )?;
        writeln!(
            out,
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "policy", "mlc_wb", "llc_wb", "dram_wr", "self_inv", "p99_us"
        )?;
        let mut walls = Vec::with_capacity(outcomes.len());
        for (policy, o) in SteeringPolicy::ALL.into_iter().zip(&outcomes) {
            let p99 = o
                .report
                .p99()
                .map(|d| format!("{:.1}", d.as_us_f64()))
                .unwrap_or_else(|| "-".into());
            writeln!(
                out,
                "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10}",
                policy.label(),
                o.report.totals.mlc_wb,
                o.report.totals.llc_wb,
                o.report.totals.dram_wr,
                o.report.totals.self_inval,
                p99,
            )?;
            walls.push(format!("{} {:.1?}", policy.label(), o.wall));
        }
        eprintln!(
            "[{} policies on {} worker(s): {}]",
            outcomes.len(),
            opts.effective_jobs(),
            walls.join(", ")
        );
        return Ok(ExitCode::SUCCESS);
    }

    writeln!(
        out,
        "simulating: {}: {} tenant(s) on {} core(s), {}, ring {}, {}{}",
        scenario.name,
        scenario.tenants.len(),
        scenario.num_cores(),
        scenario.policy,
        args.ring,
        scenario.duration,
        if args.antagonist {
            ", + antagonist"
        } else {
            ""
        },
    )?;
    let report = system.run();
    write!(out, "{report}")?;
    if !report.bursts.is_empty() {
        writeln!(out, "bursts:")?;
        for b in report.bursts.iter().take(8) {
            writeln!(
                out,
                "  #{:<3} dma {:>10} .. {:>10}  exec_end {:>10}  exe {}  pkts {}",
                b.index,
                format!("{}", b.first_dma),
                format!("{}", b.dma_end),
                format!("{}", b.exec_end),
                b.exe_time(),
                b.packets
            )?;
        }
    }
    let share = &report.timelines.dma_llc_share;
    if !share.is_empty() {
        writeln!(
            out,
            "dma share of LLC capacity: mean {:.3}, max {:.3}",
            share.mean(),
            share.max_value()
        )?;
    }
    if !args.trace.is_off() {
        // NDJSON trace dump: deterministic, so it goes to stdout (or the
        // --trace-out file). The summary stays on stderr to keep stdout
        // machine-readable.
        eprintln!(
            "[trace: {} records kept, {} evicted (filter {})]",
            report.trace.len(),
            report.metrics.counter("trace.evicted"),
            args.trace
        );
        let ndjson = records_to_ndjson(&report.trace);
        match &mut trace_sink {
            Some((path, f)) => {
                if let Err(e) = f.write_all(ndjson.as_bytes()) {
                    eprintln!("error: cannot write trace to '{path}': {e}");
                    return Ok(ExitCode::FAILURE);
                }
                eprintln!("[trace written to {path}]");
            }
            None => write!(out, "{ndjson}")?,
        }
    }
    if args.tick_metrics {
        // Per-control-tick NDJSON timeline: deterministic (a pure function
        // of the configuration and seed), one object per 1 µs tick.
        eprintln!(
            "[tick-metrics: {} control ticks]",
            report.tick_metrics.len()
        );
        let mut ndjson = String::new();
        for line in &report.tick_metrics {
            ndjson.push_str(line);
            ndjson.push('\n');
        }
        match &mut tick_sink {
            Some((path, f)) => {
                if let Err(e) = f.write_all(ndjson.as_bytes()) {
                    eprintln!("error: cannot write tick metrics to '{path}': {e}");
                    return Ok(ExitCode::FAILURE);
                }
                eprintln!("[tick metrics written to {path}]");
            }
            None => write!(out, "{ndjson}")?,
        }
    }
    Ok(ExitCode::SUCCESS)
}
