//! End-to-end and per-layer host-time benchmark of the IDIO simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-quick|flow-storm|dc-200|all> [--seed N] [--gen-seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload serially on one thread. After one
//! untimed warm-up repetition it repeats the workload until `--seconds`
//! have passed, at least [`MIN_REPS`] times, and prints each metric by
//! name and unit: the median over repetitions. End-to-end times are scaled
//! by the host's speed around each repetition (see [`calib`]). The last line of stdout is
//! a JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates untraced and traced repetitions and reports the per-layer
//! split. `--workload all` runs each workload in a process of its own. The
//! exit code is non-zero when an output check fails. See
//! `perfbench/README.md`.

mod calib;
mod check;
mod layers;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use idio_core::sweep::DEFAULT_ROOT_SEED;

use calib::HostKernel;
use check::digest_mismatches;
use layers::{ratio, Layers, HANDLERS};
use workloads::{paper_quick_goldens, Rep, Seeds, Workload};

/// Fewest repetitions a run reports a median over.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: idio-perfbench --workload <paper-quick|flow-storm|dc-200|all> \
                     [--seed N] [--gen-seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seeds: Seeds {
            root: DEFAULT_ROOT_SEED,
            generate: None,
        },
        seconds: 40.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seeds.root = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--gen-seed" => {
                let seed = value()?.parse().map_err(|e| format!("--gen-seed: {e}"))?;
                args.seeds.generate = Some(seed);
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let Some(workload) = Workload::from_name(&args.workload) else {
        eprintln!("error: unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    match run(workload, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every workload, each in a child process of its own (so each
/// reports its own peak RSS), forwarding the remaining arguments.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut forwarded: Vec<String> = std::env::args().skip(1).collect();
    let mut ok = true;
    for w in Workload::ALL {
        if let Some(i) = forwarded.iter().position(|a| a == "--workload") {
            forwarded[i + 1] = w.name().to_string();
        }
        match Command::new(&exe).args(&forwarded).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("error: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One output metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Runs `workload` for the requested time and prints its report. Returns
/// whether every output check passed.
fn run(workload: Workload, args: &Args) -> Result<bool, String> {
    let mut attempted = 0;
    let mut problems = Vec::new();
    if workload == Workload::PaperQuick {
        let (cells, golden_problems) = paper_quick_goldens()?;
        attempted += cells;
        problems.extend(golden_problems);
    }

    // The first repetition pays for heap growth and cold host caches (it
    // measured up to 30% slower than the rest): it is checked, not timed.
    let warmup = workload.run(args.seeds, false)?;
    // Read before the reference kernel allocates its table, so the peak
    // is the workload's.
    let peak_rss_mib = peak_rss_mib()?;
    let mut kernel = HostKernel::new();
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut slowness: Vec<f64> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut before = kernel.slowness();
    while plain.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        plain.push(workload.run(args.seeds, false)?);
        let after = kernel.slowness();
        slowness.push((before + after) / 2.0);
        before = after;
        if args.trace {
            traced.push(workload.run(args.seeds, true)?);
            before = kernel.slowness();
        }
    }

    let reference = &warmup.digests;
    for (i, rep) in std::iter::once(&warmup)
        .chain(&plain)
        .chain(&traced)
        .enumerate()
    {
        attempted += rep.layers.cells;
        problems.extend(rep.problems.iter().cloned());
        problems.extend(digest_mismatches(
            &format!("repetition {i}"),
            reference,
            &rep.digests,
        ));
    }
    let failed = (problems.len() as u64).min(attempted);

    let metrics = if args.trace {
        per_layer(&plain, &traced)
    } else {
        end_to_end(&plain, &slowness, peak_rss_mib)
    };

    println!(
        "{} seed {}{}: {} repetition(s){} of {} cells, {:.1} s",
        workload.name(),
        args.seeds.root,
        args.seeds
            .generate
            .map_or(String::new(), |g| format!(" gen-seed {g}")),
        plain.len(),
        if args.trace { " untraced + traced" } else { "" },
        plain[0].layers.cells,
        start.elapsed().as_secs_f64()
    );
    let walls: Vec<String> = plain.iter().map(|r| format!("{:.3}", r.wall_s)).collect();
    println!("  measured wall_s per repetition: {}", walls.join(" "));
    let factors: Vec<String> = slowness.iter().map(|f| format!("{f:.3}")).collect();
    println!("  host slowness per repetition:   {}", factors.join(" "));
    println!(
        "  measured wall_s median {:.6} s; end-to-end times below are scaled by host slowness",
        median_of(&plain, |r| r.wall_s)
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    for p in &problems {
        println!("  FAILED: {p}");
    }
    let correct = problems.is_empty();
    let json: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    Ok(correct)
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

/// The end-to-end metrics, medians over repetitions. Each repetition's
/// host times are divided by the host's slowness around it, and its rate
/// multiplied by it.
fn end_to_end(reps: &[Rep], slowness: &[f64], peak_rss_mib: f64) -> Vec<Metric> {
    let scaled = |f: &dyn Fn(&Rep, f64) -> f64| {
        median(reps.iter().zip(slowness).map(|(r, &s)| f(r, s)).collect())
    };
    vec![
        ("wall_s", scaled(&|r, s| r.wall_s / s), "s"),
        ("setup_s", scaled(&|r, s| r.setup_s() / s), "s"),
        (
            "sim_pkts_per_s",
            scaled(&|r, s| r.sim_pkts_per_s() * s),
            "1/s",
        ),
        ("peak_rss_mib", peak_rss_mib, "MiB"),
    ]
}

/// The per-layer split: host times are medians over the traced
/// repetitions, counts come from one repetition (they repeat exactly).
/// Only the tracing overhead reads the untraced repetitions.
fn per_layer(plain: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Layers) -> f64| median_of(traced, |r| f(&r.layers));
    let l = &traced[0].layers;
    let count = |name: &str| l.count(name) as f64;
    let events = count("engine.events");
    let handler = med(&|l| l.handler_total_s());
    let mut out: Vec<Metric> = vec![
        ("engine.ns_per_event", handler * 1e9 / events, "ns"),
        ("engine.events", events, "count"),
        (
            "engine.events_per_pkt",
            ratio(events, count("stack.completed")),
            "events/pkt",
        ),
        ("engine.handler_s", handler, "s"),
    ];
    for (event, metric) in HANDLERS {
        out.push((metric, med(&|l| l.handler(event)), "s"));
    }
    let fd_total = count("nic.fd.perfect_hits")
        + count("nic.fd.atr_hits")
        + count("nic.fd.collisions")
        + count("nic.fd.rss_fallbacks");
    out.extend([
        (
            "nic.arrival_share",
            med(&|l| ratio(l.handler("arrival"), l.handler_total_s())),
            "ratio",
        ),
        ("nic.fd.perfect_hits", count("nic.fd.perfect_hits"), "count"),
        ("nic.fd.atr_hits", count("nic.fd.atr_hits"), "count"),
        ("nic.fd.collisions", count("nic.fd.collisions"), "count"),
        (
            "nic.fd.rss_fallbacks",
            count("nic.fd.rss_fallbacks"),
            "count",
        ),
        ("nic.fd.mis_steered", count("nic.fd.mis_steered"), "count"),
        (
            "nic.fd.perfect_share",
            ratio(count("nic.fd.perfect_hits"), fd_total),
            "ratio",
        ),
        ("nic.rx_drops", count("nic.rx_drops"), "count"),
        (
            "nic.dma_llc_share",
            ratio(count("nic.steer_llc"), count("nic.steer_total")),
            "ratio",
        ),
        ("stack.completed", count("stack.completed"), "count"),
        ("core.system_new_s", med(&|l| l.system_new_s), "s"),
        (
            "core.system_new_ms_per_cell",
            med(&|l| l.system_new_s) * 1e3 / l.cells as f64,
            "ms",
        ),
        (
            "core.export_s",
            med(&|l| l.run_s - l.handler_total_s()),
            "s",
        ),
        ("core.prefetch_fills", count("core.prefetch_fills"), "count"),
        ("core.self_inval", count("core.self_inval"), "count"),
        ("cache.mlc_wb", count("cache.mlc_wb"), "count"),
        ("cache.llc_wb", count("cache.llc_wb"), "count"),
        (
            "cache.mlc_hit_ratio",
            ratio(
                count("cache.mlc_hits"),
                count("cache.mlc_hits") + count("cache.mlc_misses"),
            ),
            "ratio",
        ),
        ("mem.dram_rd", count("mem.dram_rd"), "count"),
        ("mem.dram_wr", count("mem.dram_wr"), "count"),
        ("pool.recycled", count("pool.recycled"), "count"),
        ("pool.starved", count("pool.starved"), "count"),
        ("scenario.load_s", med(&|l| l.load_s), "s"),
        ("scenario.config_s", med(&|l| l.config_s), "s"),
        ("scenario.report_s", med(&|l| l.report_s), "s"),
        (
            "trace.overhead_s",
            median_of(traced, |r| r.wall_s) - median_of(plain, |r| r.wall_s),
            "s",
        ),
    ]);
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
