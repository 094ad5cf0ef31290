//! The parallel figure-sweep orchestrator.
//!
//! Every paper figure is a *sweep matrix*: dozens of independent
//! [`System`] runs (cells) whose results are assembled into one table.
//! This module turns that matrix into explicit data — a [`SweepCell`] is a
//! labelled [`SystemConfig`], a [`FigureSpec`] is a list of cells, each
//! with the key of the table row it measures, plus an assembly function —
//! and executes the cells on a pool of worker threads ([`run_figures`])
//! while keeping the output *bit-identical* to a serial run:
//!
//! * **Deterministic seeding.** Each cell's RNG seed is derived from the
//!   sweep's root seed and a stable FNV-1a hash of the cell *label*
//!   ([`idio_engine::rng::derive_seed`]) — never from thread identity,
//!   scheduling order, or cell position. Renaming a cell changes its seed;
//!   reordering or parallelising the sweep does not.
//! * **Declaration-order reassembly.** Workers claim cells from a shared
//!   cursor, but results are written into a slot table indexed by
//!   declaration position, so the assembled [`FigureResult`]s are
//!   byte-identical at `--jobs 1` and `--jobs N`.
//!
//! Wall-clock per cell is measured and reported via [`CellTiming`] /
//! [`SuiteTiming`] — timing is kept *outside* [`FigureResult`] so the
//! figure output itself stays deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use idio_engine::rng::derive_seed;
use idio_engine::telemetry::MetricsSnapshot;

use crate::config::SystemConfig;
use crate::experiments::FigureResult;
use crate::report::{EventTypeProfile, RunReport};
use crate::system::System;

/// Default root seed of every sweep (matches `SystemConfig`'s default).
pub const DEFAULT_ROOT_SEED: u64 = 0xD10;

/// One cell of a sweep matrix: a label and the configuration to run.
///
/// The label doubles as the cell's identity for seeding, progress
/// reporting, and timing, so it should be unique within a sweep and stable
/// across releases (e.g. `"fig9/100G/IDIO"`).
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Stable, unique identity of the cell within its sweep.
    pub label: String,
    /// The system configuration to run (its `seed` is overwritten by the
    /// orchestrator with the label-derived seed).
    pub cfg: SystemConfig,
}

impl SweepCell {
    /// Creates a cell.
    pub fn new(label: impl Into<String>, cfg: SystemConfig) -> Self {
        SweepCell {
            label: label.into(),
            cfg,
        }
    }
}

/// The result of one executed cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell's label.
    pub label: String,
    /// The seed the run actually used (root ⊕ label hash).
    pub seed: u64,
    /// The simulation report.
    pub report: RunReport,
    /// Host wall-clock time of the run.
    pub wall: std::time::Duration,
}

/// Orchestrator knobs.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; `0` uses the host's available parallelism.
    pub jobs: usize,
    /// Root seed every cell seed is derived from.
    pub root_seed: u64,
    /// Print one progress line per finished cell to stderr.
    pub progress: bool,
    /// Measure host wall-clock per event type inside every cell (fed into
    /// [`CellTiming::events`]; dispatch counts are collected either way).
    pub profile_events: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 1,
            root_seed: DEFAULT_ROOT_SEED,
            progress: false,
            profile_events: false,
        }
    }
}

impl SweepOptions {
    /// Serial execution with the default seed (the legacy behaviour).
    pub fn serial() -> Self {
        SweepOptions::default()
    }

    /// Resolves `jobs == 0` to the host's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        }
    }
}

/// Per-cell wall-clock entry of a timing report.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// The cell's label.
    pub label: String,
    /// Host wall-clock of the cell's simulation.
    pub wall: std::time::Duration,
    /// Engine-loop profile: where the cell's simulation time went, one
    /// entry per event type. Wall-clock components are zero unless
    /// [`SweepOptions::profile_events`] was set.
    pub events: Vec<EventTypeProfile>,
}

/// Per-figure timing: the figure's cells plus their summed cost.
#[derive(Debug, Clone)]
pub struct FigureTiming {
    /// Figure identifier (e.g. `"fig9"`).
    pub id: &'static str,
    /// One entry per cell, in declaration order.
    pub cells: Vec<CellTiming>,
}

impl FigureTiming {
    /// Sum of the figure's cell wall-clocks (CPU cost, not elapsed time).
    pub fn cpu_total(&self) -> std::time::Duration {
        self.cells.iter().map(|c| c.wall).sum()
    }
}

/// Timing summary of a whole suite run.
#[derive(Debug, Clone)]
pub struct SuiteTiming {
    /// Wall-clock of the complete sweep (cells + assembly), as elapsed.
    pub wall: std::time::Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Root seed of the sweep.
    pub root_seed: u64,
    /// Per-figure breakdowns, in declaration order.
    pub figures: Vec<FigureTiming>,
}

impl SuiteTiming {
    /// Summed per-cell CPU cost across all figures. The ratio
    /// `cpu_total / wall` approximates the achieved parallel speedup.
    pub fn cpu_total(&self) -> std::time::Duration {
        self.figures.iter().map(FigureTiming::cpu_total).sum()
    }
}

/// An order-preserving parallel map: applies `f` to every item on up to
/// `jobs` worker threads and returns the outputs in input order.
///
/// Each item is claimed exactly once via a shared cursor; the output
/// position of an item is its input position regardless of which worker
/// ran it or when it finished. With `jobs <= 1` (or a single item) the map
/// degenerates to a plain sequential loop on the caller's thread.
///
/// # Panics
///
/// Panics (propagated) if `f` panics on any item.
///
/// # Examples
///
/// ```
/// use idio_core::sweep::parallel_map;
///
/// let doubled = parallel_map(vec![1, 2, 3, 4], 8, |_, x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8]);
/// ```
pub fn parallel_map<I, O, F>(items: Vec<I>, jobs: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(usize, I) -> O + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, it)| f(i, it))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("cell slot lock")
                    .take()
                    .expect("each cell is claimed exactly once");
                let out = f(i, item);
                *results[i].lock().expect("result slot lock") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every claimed cell produced a result")
        })
        .collect()
}

/// Executes a batch of cells on the worker pool, returning outcomes in
/// declaration order.
///
/// Each cell's config gets its seed overwritten with
/// `derive_seed(root_seed, label)` before the run, making the outcome a
/// pure function of `(cell, root_seed)` — independent of `jobs`.
pub fn run_cells(cells: Vec<SweepCell>, opts: &SweepOptions) -> Vec<CellOutcome> {
    run_cells_map(cells, opts, |_, outcome| outcome)
}

/// [`run_cells`] with a per-cell fold applied *on the worker thread*: the
/// full [`CellOutcome`] (report, metrics, histograms) is reduced to `O`
/// the moment the cell finishes and dropped before the next cell is
/// claimed, so a sweep of `N` cells holds at most `jobs` full reports in
/// memory at once plus `N` folded values — the sharded-aggregation path
/// large scenario sweeps use to stay O(tenants) instead of
/// O(cells × histograms).
///
/// `f` receives the cell's declaration index and its outcome; the folded
/// values are returned in declaration order, so the result is exactly
/// `run_cells(...)` mapped through `f` — byte-identical at any
/// [`SweepOptions::jobs`].
pub fn run_cells_map<O, F>(cells: Vec<SweepCell>, opts: &SweepOptions, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize, CellOutcome) -> O + Sync,
{
    let total = cells.len();
    let done = AtomicUsize::new(0);
    let progress = opts.progress;
    let profile_events = opts.profile_events;
    let root = opts.root_seed;
    parallel_map(cells, opts.effective_jobs(), move |i, cell| {
        let SweepCell { label, mut cfg } = cell;
        let seed = derive_seed(root, &label);
        cfg.seed = seed;
        if profile_events {
            cfg.profile_events = true;
        }
        let t0 = Instant::now();
        let report = System::new(cfg).run();
        let wall = t0.elapsed();
        if progress {
            let k = done.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!("[{k}/{total}] {label} ({wall:.1?})");
        }
        f(
            i,
            CellOutcome {
                label,
                seed,
                report,
                wall,
            },
        )
    })
}

/// The assembly stage of a figure: outcomes in declaration order → table.
type AssembleFn = Box<dyn FnOnce(&[CellOutcome]) -> FigureResult>;

/// A declared figure: its cells plus the function that assembles the
/// executed cells into the printable [`FigureResult`].
pub struct FigureSpec {
    /// Figure identifier (e.g. `"fig9"`).
    pub id: &'static str,
    /// The sweep cells, in declaration order.
    pub cells: Vec<SweepCell>,
    assemble: AssembleFn,
}

impl std::fmt::Debug for FigureSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FigureSpec")
            .field("id", &self.id)
            .field("cells", &self.cells.len())
            .finish()
    }
}

impl FigureSpec {
    /// Declares a figure from its rows: each row's key and the cell that
    /// measures it.
    ///
    /// `assemble` receives every key with its cell's report, in
    /// declaration order, and must be a pure function of them (it runs on
    /// the coordinating thread, after all of the figure's cells finished).
    pub fn new<K: 'static>(
        id: &'static str,
        rows: impl IntoIterator<Item = (K, SweepCell)>,
        assemble: impl FnOnce(Vec<(K, &RunReport)>) -> FigureResult + 'static,
    ) -> Self {
        let (keys, cells): (Vec<K>, Vec<SweepCell>) = rows.into_iter().unzip();
        debug_assert!(
            {
                let mut labels: Vec<&str> = cells.iter().map(|c| c.label.as_str()).collect();
                labels.sort_unstable();
                labels.windows(2).all(|w| w[0] != w[1])
            },
            "cell labels within a figure must be unique ({id})"
        );
        FigureSpec {
            id,
            cells,
            assemble: Box::new(move |outcomes: &[CellOutcome]| {
                assemble(
                    keys.into_iter()
                        .zip(outcomes.iter().map(|o| &o.report))
                        .collect(),
                )
            }),
        }
    }
}

/// Final telemetry of one executed cell, in declaration order within a
/// suite run (see [`run_figures`]).
#[derive(Debug, Clone)]
pub struct CellMetrics {
    /// The cell's label.
    pub label: String,
    /// The cell's final [`MetricsSnapshot`] (deterministic).
    pub metrics: MetricsSnapshot,
}

/// A suite run's complete output: assembled figures, per-cell telemetry,
/// and timing.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// Assembled figures, in declaration order.
    pub figures: Vec<FigureResult>,
    /// Per-cell metrics across all figures, in declaration order.
    pub cells: Vec<CellMetrics>,
    /// Timing summary (host noise; keep on stderr).
    pub timing: SuiteTiming,
}

/// Runs figures — one or a whole suite — over one shared worker pool: the
/// one way to run a figure.
///
/// All cells of all figures are flattened into a single batch so that a
/// figure with one long-running cell does not serialise the sweep; results
/// are regrouped per figure and assembled in declaration order.
pub fn run_figures(mut specs: Vec<FigureSpec>, opts: &SweepOptions) -> SuiteOutcome {
    let t0 = Instant::now();
    // Flatten the figures' cells, remembering each figure's span.
    let mut flat = Vec::new();
    let mut spans = Vec::with_capacity(specs.len());
    for spec in &mut specs {
        let start = flat.len();
        flat.append(&mut spec.cells);
        spans.push(start..flat.len());
    }
    let outcomes = run_cells(flat, opts);
    let cells = outcomes
        .iter()
        .map(|o| CellMetrics {
            label: o.label.clone(),
            metrics: o.report.metrics.clone(),
        })
        .collect();

    let mut figures = Vec::with_capacity(specs.len());
    let mut timings = Vec::with_capacity(specs.len());
    for (spec, span) in specs.into_iter().zip(spans) {
        let mine = &outcomes[span];
        let cells = mine.iter().map(|o| CellTiming {
            label: o.label.clone(),
            wall: o.wall,
            events: o.report.profile.clone(),
        });
        timings.push(FigureTiming {
            id: spec.id,
            cells: cells.collect(),
        });
        figures.push((spec.assemble)(mine));
    }
    let timing = SuiteTiming {
        wall: t0.elapsed(),
        jobs: opts.effective_jobs(),
        root_seed: opts.root_seed,
        figures: timings,
    };
    SuiteOutcome {
        figures,
        cells,
        timing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_engine::time::{Duration, SimTime};
    use idio_net::gen::TrafficPattern;

    fn tiny_cfg() -> SystemConfig {
        let mut cfg =
            SystemConfig::touchdrop_scenario(1, TrafficPattern::Steady { rate_gbps: 5.0 });
        cfg.duration = SimTime::from_us(50);
        cfg.drain_grace = Duration::from_us(50);
        cfg
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..64).collect::<Vec<_>>(), 8, |i, x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_with_zero_items_is_empty() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn cell_seeds_are_label_derived_not_position_derived() {
        let cells = vec![
            SweepCell::new("a", tiny_cfg()),
            SweepCell::new("b", tiny_cfg()),
        ];
        let swapped = vec![
            SweepCell::new("b", tiny_cfg()),
            SweepCell::new("a", tiny_cfg()),
        ];
        let out1 = run_cells(cells, &SweepOptions::serial());
        let out2 = run_cells(swapped, &SweepOptions::serial());
        assert_eq!(out1[0].seed, out2[1].seed, "seed follows the label");
        assert_eq!(out1[1].seed, out2[0].seed);
        assert_ne!(out1[0].seed, out1[1].seed);
    }

    #[test]
    fn outcomes_are_identical_across_worker_counts() {
        let mk = || {
            (0..6)
                .map(|i| SweepCell::new(format!("cell{i}"), tiny_cfg()))
                .collect::<Vec<_>>()
        };
        let serial = run_cells(mk(), &SweepOptions::serial());
        let parallel = run_cells(
            mk(),
            &SweepOptions {
                jobs: 4,
                ..SweepOptions::default()
            },
        );
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.seed, p.seed);
            assert_eq!(s.report.totals, p.report.totals);
        }
    }

    #[test]
    fn run_cells_map_folds_on_workers_in_declaration_order() {
        let mk = || {
            (0..6)
                .map(|i| SweepCell::new(format!("cell{i}"), tiny_cfg()))
                .collect::<Vec<_>>()
        };
        // The folded value keeps only a tiny summary; compare against the
        // unfolded path to prove the fold sees the same outcomes.
        let full = run_cells(mk(), &SweepOptions::serial());
        let folded = run_cells_map(
            mk(),
            &SweepOptions {
                jobs: 4,
                ..SweepOptions::default()
            },
            |i, o| (i, o.label.clone(), o.seed, o.report.totals.rx_packets),
        );
        assert_eq!(full.len(), folded.len());
        for (i, (fi, label, seed, rx)) in folded.iter().enumerate() {
            assert_eq!(i, *fi);
            assert_eq!(&full[i].label, label);
            assert_eq!(full[i].seed, *seed);
            assert_eq!(full[i].report.totals.rx_packets, *rx);
        }
    }

    #[test]
    fn figure_spec_assembles_in_declaration_order() {
        // The second cell runs three times as long, so its report is
        // recognisable: each key must arrive with its own cell's report.
        let rows = [("first", 50), ("second", 150)].map(|(label, us)| {
            let mut cfg = tiny_cfg();
            cfg.duration = SimTime::from_us(us);
            (label, SweepCell::new(label, cfg))
        });
        let spec = FigureSpec::new("test", rows, |rows| {
            let mut f = FigureResult::new("test", "order", &["label", "rx"]);
            for (label, r) in rows {
                f.push_row(vec![label.to_string(), r.totals.rx_packets.to_string()]);
            }
            f
        });
        let mut figures = run_figures(vec![spec], &SweepOptions::serial()).figures;
        let fig = figures.pop().expect("one figure");
        let labels: Vec<&str> = fig.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(labels, ["first", "second"]);
        let rx: Vec<u64> = fig.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(rx[0] < rx[1], "keys paired with the wrong reports: {rx:?}");
    }
}
