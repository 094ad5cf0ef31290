//! The benchmark's workloads: one repetition of each, timed per layer.
//!
//! Every repetition runs its cells serially on the calling thread, the
//! way `repro --jobs 1` and `scenario run --jobs 1` do: each cell's seed
//! is derived from the root seed and the cell label, then `System::new`
//! and `System::run` are called and timed separately.

use std::path::{Path, PathBuf};
use std::time::Instant;

use idio_bench::json::cell_metrics_line;
use idio_bench::{experiment_spec, EXPERIMENTS};
use idio_core::experiments::Scale;
use idio_core::net::gen::TrafficPattern;
use idio_core::sweep::{CellMetrics, SweepCell, DEFAULT_ROOT_SEED};
use idio_core::{RunReport, System};
use idio_engine::rng::derive_seed;
use idio_scenario::{
    load_path, parse_str, scenario_cells, Scenario, ScenarioReport, ScenarioReportBuilder,
};

use crate::check::{cell_digest, load_metric_goldens, Digest};
use crate::layers::Layers;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 17 experiments at `Scale::quick()`: what `repro --quick` runs.
    PaperQuick,
    /// A 64-byte flow-director storm (`scenarios/flow-storm.toml`).
    FlowStorm,
    /// The checked-in 200-tenant generated scenario.
    Dc200,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::PaperQuick, Workload::FlowStorm, Workload::Dc200];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQuick => "paper-quick",
            Workload::FlowStorm => "flow-storm",
            Workload::Dc200 => "dc-200",
        }
    }

    /// Resolves a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs one repetition with the simulator's per-event-type wall clock
    /// on when `traced`.
    ///
    /// # Errors
    ///
    /// Returns a message when an input file is missing or malformed.
    pub fn run(self, seeds: Seeds, traced: bool) -> Result<Rep, String> {
        let root = seeds.root;
        match self {
            Workload::PaperQuick => Ok(paper_quick(root, traced)),
            Workload::FlowStorm => {
                run_scenario(|| flow_storm(root), root, traced, check_flow_storm)
            }
            Workload::Dc200 => {
                run_scenario(|| dc_200(seeds.generate), root, traced, |_| Vec::new())
            }
        }
    }
}

/// The seeds a workload's inputs are made from.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    /// Sweep root seed every cell seed derives from; flow-storm's Poisson
    /// tenants are reseeded from it too, except at the default seed.
    pub root: u64,
    /// ScenarioGen seed of dc-200; `None` keeps the file's own.
    pub generate: Option<u64>,
}

/// One timed repetition of a workload.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Host seconds from workload start to the rendered report.
    pub wall_s: f64,
    /// Per-layer host time and simulated counts.
    pub layers: Layers,
    /// Simulated digest per cell, in declaration order; a scenario's
    /// rendered report is one more entry.
    pub digests: Vec<(String, u64)>,
    /// Failed output checks of this repetition.
    pub problems: Vec<String>,
}

impl Rep {
    /// Scenario load, config build and every `System::new`.
    pub fn setup_s(&self) -> f64 {
        let l = &self.layers;
        l.load_s + l.config_s + l.system_new_s
    }

    /// Completed simulated packets per host second inside `System::run`.
    pub fn sim_pkts_per_s(&self) -> f64 {
        self.layers.count("stack.completed") as f64 / self.layers.run_s
    }
}

/// The repository root: the benchmark package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Seeds, builds and runs one cell, charging its time to `layers`.
fn run_cell(cell: SweepCell, root: u64, traced: bool, layers: &mut Layers) -> (String, RunReport) {
    let SweepCell { label, mut cfg } = cell;
    cfg.seed = derive_seed(root, &label);
    cfg.profile_events = traced;
    let t0 = Instant::now();
    let system = System::new(cfg);
    let new = t0.elapsed();
    let t1 = Instant::now();
    let report = system.run();
    layers.add_cell(&report, new, t1.elapsed());
    (label, report)
}

fn quick_cells(layers: &mut Layers) -> Vec<SweepCell> {
    let t = Instant::now();
    let cells = EXPERIMENTS
        .iter()
        .flat_map(|name| {
            experiment_spec(name, Scale::quick())
                .expect("every listed experiment resolves")
                .cells
        })
        .collect();
    layers.config_s += secs(t);
    cells
}

/// Renders a cell as the `repro --metrics` line.
fn render(label: String, report: RunReport) -> String {
    cell_metrics_line(&CellMetrics {
        label,
        metrics: report.metrics,
    })
}

fn paper_quick(root: u64, traced: bool) -> Rep {
    let start = Instant::now();
    let mut rep = Rep::default();
    let mut rendered = String::new();
    for cell in quick_cells(&mut rep.layers) {
        let (label, report) = run_cell(cell, root, traced, &mut rep.layers);
        let digest = cell_digest(&label, &report);
        let t = Instant::now();
        let line = render(label.clone(), report);
        rendered.push_str(&line);
        rendered.push('\n');
        rep.layers.report_s += secs(t);
        rep.digests.push((label, digest.str(&line).value()));
    }
    std::hint::black_box(&rendered);
    rep.wall_s = secs(start);
    rep
}

/// Runs the paper-quick cells that have a blessed line in
/// `tests/golden/metrics.ndjson` at the default seed and compares them.
/// Returns the number of cells run and one message per mismatch.
///
/// # Errors
///
/// Returns a message when the golden file is missing or malformed.
pub fn paper_quick_goldens() -> Result<(u64, Vec<String>), String> {
    let goldens = load_metric_goldens(&repo_root().join("tests/golden/metrics.ndjson"))?;
    let mut layers = Layers::default();
    let mut problems = Vec::new();
    let mut seen = 0;
    for cell in quick_cells(&mut layers) {
        let Some(blessed) = goldens.get(&cell.label) else {
            continue;
        };
        seen += 1;
        let (label, report) = run_cell(cell, DEFAULT_ROOT_SEED, false, &mut layers);
        if render(label.clone(), report) != *blessed {
            problems.push(format!(
                "cell '{label}' differs from its blessed metrics golden"
            ));
        }
    }
    if seen != goldens.len() {
        problems.push(format!(
            "{} blessed cells are not in the quick suite",
            goldens.len() - seen
        ));
    }
    Ok((layers.cells, problems))
}

fn run_scenario(
    load: impl FnOnce() -> Result<Scenario, String>,
    root: u64,
    traced: bool,
    check: fn(&ScenarioReport) -> Vec<String>,
) -> Result<Rep, String> {
    let start = Instant::now();
    let mut rep = Rep::default();
    let scenario = load()?;
    scenario.validate()?;
    rep.layers.load_s = secs(start);

    let t = Instant::now();
    let cells = scenario_cells(&scenario);
    rep.layers.config_s = secs(t);

    let t = Instant::now();
    let mut builder = ScenarioReportBuilder::new(&scenario, root);
    rep.layers.report_s += secs(t);
    for (i, cell) in cells.into_iter().enumerate() {
        let (label, report) = run_cell(cell, root, traced, &mut rep.layers);
        let digest = cell_digest(&label, &report).value();
        rep.digests.push((label, digest));
        let t = Instant::now();
        let fold = builder.reduce(i, &report);
        builder.fold(fold);
        rep.layers.report_s += secs(t);
    }
    let t = Instant::now();
    let report = builder.finish()?;
    let json = report.to_json();
    rep.layers.report_s += secs(t);
    rep.wall_s = secs(start);

    rep.digests
        .push(("report".into(), Digest::default().str(&json).value()));
    rep.problems = check_scenario(&scenario, &report);
    rep.problems.extend(check(&report));
    Ok(rep)
}

/// Invariants every scenario report keeps: one report per tenant, and the
/// per-tenant folds add up to the mixed run's totals.
fn check_scenario(scenario: &Scenario, report: &ScenarioReport) -> Vec<String> {
    let mut problems = Vec::new();
    if report.tenants.len() != scenario.tenants.len() {
        problems.push(format!(
            "{} tenant reports for {} tenants",
            report.tenants.len(),
            scenario.tenants.len()
        ));
    }
    let rx: u64 = report.tenants.iter().map(|t| t.rx_packets).sum();
    let done: u64 = report.tenants.iter().map(|t| t.completed).sum();
    if rx != report.rx_packets || done != report.completed {
        problems.push(format!(
            "tenant folds rx {rx} / completed {done} differ from totals {} / {}",
            report.rx_packets, report.completed
        ));
    }
    if report.completed == 0 || report.completed > report.rx_packets {
        problems.push(format!(
            "completed {} of {} received packets",
            report.completed, report.rx_packets
        ));
    }
    problems
}

/// flow-storm must exercise every steering tier without dropping.
fn check_flow_storm(report: &ScenarioReport) -> Vec<String> {
    let mut problems = Vec::new();
    let (mut perfect, mut atr, mut rss) = (0, 0, 0);
    for fd in report.tenants.iter().filter_map(|t| t.fd) {
        perfect += fd.perfect;
        atr += fd.atr;
        rss += fd.rss;
    }
    if perfect == 0 || atr == 0 || rss == 0 {
        problems.push(format!(
            "steering tiers perfect {perfect} / atr {atr} / rss {rss}: every tier must be used"
        ));
    }
    let offered = report.rx_packets + report.rx_drops;
    if report.rx_drops * 100 >= offered {
        problems.push(format!(
            "{} of {offered} packets dropped (limit: under 1%)",
            report.rx_drops
        ));
    }
    problems
}

/// flow-storm, with its Poisson tenants reseeded from the workload seed.
fn flow_storm(seed: u64) -> Result<Scenario, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios/flow-storm.toml");
    let mut scenario = load_path(&path).map_err(|e| e.at_path(&path.display().to_string()))?;
    if seed != DEFAULT_ROOT_SEED {
        for t in &mut scenario.tenants {
            if let TrafficPattern::Poisson { rate_gbps, .. } = t.traffic {
                t.traffic = TrafficPattern::Poisson {
                    rate_gbps,
                    seed: derive_seed(seed, &t.name),
                };
            }
        }
    }
    Ok(scenario)
}

/// datacenter-200, expanded with ScenarioGen seed `generate` (the file's
/// own seed when `None`).
fn dc_200(generate: Option<u64>) -> Result<Scenario, String> {
    let path = repo_root().join("examples/scenarios/datacenter-200.toml");
    let at = path.display().to_string();
    let mut src = std::fs::read_to_string(&path).map_err(|e| format!("cannot read '{at}': {e}"))?;
    if let Some(seed) = generate {
        src = with_generate_seed(&src, seed).ok_or_else(|| format!("{at}: no [generate] seed"))?;
    }
    parse_str(&src).map_err(|e| e.at_path(&at))
}

/// Rewrites the `seed` key of a scenario file's `[generate]` table.
fn with_generate_seed(src: &str, seed: u64) -> Option<String> {
    let mut in_generate = false;
    let mut replaced = false;
    let mut out = String::with_capacity(src.len());
    for line in src.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with('[') {
            in_generate = trimmed.trim_end() == "[generate]";
        }
        let is_seed = trimmed
            .split_once('=')
            .is_some_and(|(key, _)| key.trim() == "seed");
        if in_generate && is_seed {
            out.push_str(&format!("seed = {seed}"));
            replaced = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    replaced.then_some(out)
}
