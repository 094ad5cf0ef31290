//! Run a custom IDIO simulation from the command line.
//!
//! ```text
//! cargo run -p idio-bench --release --bin simulate -- \
//!     --policy idio --nf touchdrop --rate 25 --bursty --ring 1024 \
//!     --packet 1514 --cores 2 --duration-ms 20 --antagonist
//! ```
//!
//! Prints the run report (transaction totals, latency percentiles, burst
//! processing times) for the configured scenario.

use std::process::ExitCode;

use idio_core::config::SystemConfig;
use idio_core::net::gen::{BurstSpec, TrafficPattern};
use idio_core::net::packet::Dscp;
use idio_core::policy::{PolicySpec, SteeringPolicy};
use idio_core::pool::PoolSpec;
use idio_core::stack::nf::{NfChain, NfKind};
use idio_core::sweep::{run_cells, SweepCell, SweepOptions};
use idio_core::system::System;
use idio_engine::telemetry::{records_to_ndjson, TraceFilter};
use idio_engine::time::{Duration, SimTime};

struct Args {
    policy: SteeringPolicy,
    queue_policies: Vec<(usize, SteeringPolicy)>,
    nf: NfKind,
    pool: Option<PoolSpec>,
    queue_pools: Vec<(usize, PoolSpec)>,
    rate_gbps: f64,
    bursty: bool,
    poisson: bool,
    ring: u32,
    packet: u16,
    cores: usize,
    duration_ms: u64,
    antagonist: bool,
    class1: bool,
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
            policy: SteeringPolicy::Idio,
            queue_policies: Vec::new(),
            nf: NfKind::TouchDrop,
            pool: None,
            queue_pools: Vec::new(),
            rate_gbps: 25.0,
            bursty: true,
            poisson: false,
            ring: 1024,
            packet: 1514,
            cores: 2,
            duration_ms: 20,
            antagonist: false,
            class1: false,
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
        "usage: simulate [options]\n\
         --policy ddio|invalidate|prefetch|static|idio|iat (default idio)\n\
         --queue-policy <q>=<policy>                     per-queue override of --policy\n\
                                                         (repeatable; queue q runs <policy>)\n\
         --nf touchdrop|l2fwd|payload-drop|copy|deepfwd|chain\n\
                                                         (default touchdrop; chain = the UPF\n\
                                                         parse>classify>rewrite>forward pipeline)\n\
         --pool dram|recycle|recycle:<slots>             mbuf pool for every queue (default: the\n\
                                                         implicit status quo, no pool telemetry)\n\
         --queue-pool <q>=<pool>                         per-queue override of --pool (repeatable)\n\
         --rate <gbps>                                   (default 25)\n\
         --bursty | --steady | --poisson                 (default bursty)\n\
         --ring <slots>                                  (default 1024)\n\
         --packet <bytes>                                (default 1514)\n\
         --cores <n>                                     (default 2)\n\
         --duration-ms <ms>                              (default 20)\n\
         --antagonist                                    co-run LLCAntagonist\n\
         --class1                                        mark flows app class 1\n\
         --mlc-thr <mtps>                                override mlcTHR\n\
         --seed <n>                                      PRNG seed\n\
         --all-policies                                  run every policy and compare\n\
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

/// Parses a pool spec: `dram`, `recycle`, or `recycle:<slots>` (the same
/// shapes the scenario-file `pool` key accepts).
fn parse_pool(s: &str) -> Result<PoolSpec, String> {
    match s {
        "dram" => Ok(PoolSpec::Dram),
        "recycle" => Ok(PoolSpec::Recycle { slots: None }),
        _ => match s.strip_prefix("recycle:") {
            Some(n) => {
                let slots: u32 = n.parse().map_err(|_| format!("bad slot count '{n}'"))?;
                if slots == 0 {
                    return Err("recycle pool needs at least one slot".into());
                }
                Ok(PoolSpec::Recycle { slots: Some(slots) })
            }
            None => Err(format!(
                "unknown pool '{s}' (expected dram|recycle|recycle:<slots>)"
            )),
        },
    }
}

fn parse() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match a.as_str() {
            "--policy" => {
                let name = val("--policy")?;
                args.policy = SteeringPolicy::from_name(&name)
                    .ok_or_else(|| format!("unknown policy '{name}'"))?;
            }
            "--queue-policy" => {
                let spec = val("--queue-policy")?;
                let (q, name) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--queue-policy expects <q>=<policy>, got '{spec}'"))?;
                let q: usize = q
                    .parse()
                    .map_err(|e| format!("bad queue index '{q}': {e}"))?;
                let p = SteeringPolicy::from_name(name)
                    .ok_or_else(|| format!("unknown policy '{name}'"))?;
                args.queue_policies.push((q, p));
            }
            "--nf" => {
                args.nf = match val("--nf")?.to_lowercase().as_str() {
                    "touchdrop" => NfKind::TouchDrop,
                    "l2fwd" => NfKind::L2Fwd,
                    "payload-drop" | "payloaddrop" => NfKind::L2FwdPayloadDrop,
                    "copy" => NfKind::TouchDropCopy,
                    "deepfwd" => NfKind::DeepFwd,
                    "chain" => NfKind::Chain(NfChain::upf()),
                    other => return Err(format!("unknown nf '{other}'")),
                }
            }
            "--pool" => args.pool = Some(parse_pool(&val("--pool")?)?),
            "--queue-pool" => {
                let spec = val("--queue-pool")?;
                let (q, pool) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--queue-pool expects <q>=<pool>, got '{spec}'"))?;
                let q: usize = q
                    .parse()
                    .map_err(|e| format!("bad queue index '{q}': {e}"))?;
                args.queue_pools.push((q, parse_pool(pool)?));
            }
            "--rate" => args.rate_gbps = val("--rate")?.parse().map_err(|e| format!("{e}"))?,
            "--bursty" => args.bursty = true,
            "--steady" => args.bursty = false,
            "--poisson" => {
                args.bursty = false;
                args.poisson = true;
            }
            "--ring" => args.ring = val("--ring")?.parse().map_err(|e| format!("{e}"))?,
            "--packet" => args.packet = val("--packet")?.parse().map_err(|e| format!("{e}"))?,
            "--cores" => args.cores = val("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--duration-ms" => {
                args.duration_ms = val("--duration-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--antagonist" => args.antagonist = true,
            "--class1" => args.class1 = true,
            "--mlc-thr" => {
                args.mlc_thr_mtps = Some(val("--mlc-thr")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--trace" => args.trace = val("--trace")?.parse()?,
            "--trace-out" => args.trace_out = Some(val("--trace-out")?),
            "--tick-metrics" => args.tick_metrics = true,
            "--tick-metrics-out" => {
                args.tick_metrics = true;
                args.tick_metrics_out = Some(val("--tick-metrics-out")?);
            }
            "--all-policies" => args.all_policies = true,
            "--jobs" | "-j" => args.jobs = val("--jobs")?.parse().map_err(|e| format!("{e}"))?,
            "--help" | "-h" => {
                usage();
                std::process::exit(0);
            }
            other if other.starts_with("--trace=") => {
                args.trace = other["--trace=".len()..].parse()?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(args)
}

/// Builds the traffic pattern, rejecting the flag values that must be
/// caught before a configuration exists: a rate that is not positive and
/// finite (the burst construction needs one), an empty core set, and a
/// burst that does not fit its period. `SystemConfig::validate` owns the
/// remaining rules, such as the minimum frame size.
fn traffic(args: &Args) -> Result<TrafficPattern, String> {
    let (rate_gbps, seed) = (args.rate_gbps, args.seed);
    if !(rate_gbps.is_finite() && rate_gbps > 0.0) {
        return Err(format!(
            "--rate must be a positive finite rate, got {rate_gbps}"
        ));
    }
    if args.cores == 0 {
        return Err("--cores must be positive".into());
    }
    if args.bursty {
        let period = Duration::from_ms(5);
        return BurstSpec::try_for_ring(args.ring, args.packet, rate_gbps, period)
            .map(TrafficPattern::Bursty)
            .map_err(|e| format!("--ring {} at --rate {rate_gbps} Gbps: {e}", args.ring));
    }
    Ok(if args.poisson {
        TrafficPattern::Poisson { rate_gbps, seed }
    } else {
        TrafficPattern::Steady { rate_gbps }
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            return ExitCode::FAILURE;
        }
    };

    // Validate the trace sink *before* the (potentially long) simulation:
    // an unwritable path must fail cleanly up front, not after minutes of
    // simulated time.
    let mut trace_sink = match &args.trace_out {
        Some(path) => {
            if args.trace.is_off() {
                eprintln!("error: --trace-out requires --trace");
                return ExitCode::FAILURE;
            }
            if args.all_policies {
                eprintln!("error: --trace-out cannot be combined with --all-policies");
                return ExitCode::FAILURE;
            }
            match std::fs::File::create(path) {
                Ok(f) => Some((path.clone(), f)),
                Err(e) => {
                    eprintln!("error: cannot create trace file '{path}': {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    let mut tick_sink = match &args.tick_metrics_out {
        Some(path) => {
            if args.all_policies {
                eprintln!("error: --tick-metrics-out cannot be combined with --all-policies");
                return ExitCode::FAILURE;
            }
            match std::fs::File::create(path) {
                Ok(f) => Some((path.clone(), f)),
                Err(e) => {
                    eprintln!("error: cannot create tick-metrics file '{path}': {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };
    if args.tick_metrics && args.all_policies {
        eprintln!("error: --tick-metrics cannot be combined with --all-policies");
        return ExitCode::FAILURE;
    }

    let traffic = match traffic(&args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = SystemConfig::touchdrop_scenario(args.cores, traffic);
    cfg.ring_size = args.ring;
    cfg.duration = SimTime::from_ms(args.duration_ms);
    cfg.drain_grace = Duration::from_ms(5);
    cfg.seed = args.seed;
    for w in &mut cfg.workloads {
        w.kind = args.nf;
        w.packet_len = args.packet;
        w.pool = args.pool;
        if args.class1 {
            w.dscp = Dscp::CLASS1_DEFAULT;
        }
    }
    for &(q, pool) in &args.queue_pools {
        if q >= cfg.workloads.len() {
            eprintln!(
                "error: --queue-pool {q}=... names a nonexistent queue (have {})",
                cfg.workloads.len()
            );
            return ExitCode::FAILURE;
        }
        cfg.workloads[q].pool = Some(pool);
    }
    if let Some(thr) = args.mlc_thr_mtps {
        cfg.idio = cfg.idio.with_mlc_thr_mtps(thr);
    }
    cfg.trace = args.trace.clone();
    cfg.tick_metrics = args.tick_metrics;
    cfg = cfg.with_policy(args.policy);
    for &(q, p) in &args.queue_policies {
        if q >= cfg.workloads.len() {
            eprintln!(
                "error: --queue-policy {q}={} names a nonexistent queue (have {})",
                p.label().to_lowercase(),
                cfg.workloads.len()
            );
            return ExitCode::FAILURE;
        }
        cfg.queue_policies.insert(q, PolicySpec::Preset(p));
    }
    if args.all_policies && !args.queue_policies.is_empty() {
        eprintln!("error: --queue-policy cannot be combined with --all-policies");
        return ExitCode::FAILURE;
    }
    if args.antagonist {
        cfg = cfg.with_antagonist();
    }
    if let Err(e) = cfg.validate() {
        eprintln!("error: invalid configuration: {e}");
        return ExitCode::FAILURE;
    }

    if args.all_policies {
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
        println!(
            "comparing {} policies on {} worker(s), seed {:#x}:",
            cells.len(),
            opts.effective_jobs(),
            args.seed
        );
        println!(
            "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}",
            "policy", "mlc_wb", "llc_wb", "dram_wr", "self_inv", "p99_us", "wall"
        );
        for (policy, o) in SteeringPolicy::ALL.into_iter().zip(run_cells(cells, &opts)) {
            let p99 = o
                .report
                .p99()
                .map(|d| format!("{:.1}", d.as_us_f64()))
                .unwrap_or_else(|| "-".into());
            println!(
                "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8.1?}",
                policy.label(),
                o.report.totals.mlc_wb,
                o.report.totals.llc_wb,
                o.report.totals.dram_wr,
                o.report.totals.self_inval,
                p99,
                o.wall,
            );
        }
        return ExitCode::SUCCESS;
    }

    println!(
        "simulating: {} x {} {} at {} Gbps ({}), ring {}, {} B packets, {} ms{}",
        args.cores,
        args.nf,
        args.policy,
        args.rate_gbps,
        if args.bursty {
            "bursty"
        } else if args.poisson {
            "poisson"
        } else {
            "steady"
        },
        args.ring,
        args.packet,
        args.duration_ms,
        if args.antagonist {
            ", + antagonist"
        } else {
            ""
        },
    );
    let report = System::new(cfg).run();
    print!("{report}");
    if !report.bursts.is_empty() {
        println!("bursts:");
        for b in report.bursts.iter().take(8) {
            println!(
                "  #{:<3} dma {:>10} .. {:>10}  exec_end {:>10}  exe {}  pkts {}",
                b.index,
                format!("{}", b.first_dma),
                format!("{}", b.dma_end),
                format!("{}", b.exec_end),
                b.exe_time(),
                b.packets
            );
        }
    }
    let share = &report.timelines.dma_llc_share;
    if !share.is_empty() {
        println!(
            "dma share of LLC capacity: mean {:.3}, max {:.3}",
            share.mean(),
            share.max_value()
        );
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
                use std::io::Write;
                if let Err(e) = f.write_all(ndjson.as_bytes()) {
                    eprintln!("error: cannot write trace to '{path}': {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[trace written to {path}]");
            }
            None => print!("{ndjson}"),
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
                use std::io::Write;
                if let Err(e) = f.write_all(ndjson.as_bytes()) {
                    eprintln!("error: cannot write tick metrics to '{path}': {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("[tick metrics written to {path}]");
            }
            None => print!("{ndjson}"),
        }
    }
    ExitCode::SUCCESS
}
