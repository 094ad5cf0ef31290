//! The scenario runner: mixed + solo cells sharded across the sweep pool.
//!
//! A scenario with `N` tenants expands to `N + 1` [`SweepCell`]s — one
//! mixed run labelled `scenario/<name>/mixed` and one solo run per tenant
//! labelled `scenario/<name>/solo/<tenant>` — executed by
//! [`idio_core::sweep::run_cells_map`]. Labels are stable, so every cell's
//! seed (and therefore the whole report) is independent of the worker
//! count.
//!
//! The report is assembled through the *streaming* path: each cell is
//! reduced to a [`crate::report::CellFold`] on the worker that ran it and
//! its full [`idio_core::report::RunReport`] is dropped right there, so a
//! 200-tenant scenario (201 cells, each with per-core histograms) peaks at
//! `jobs` live reports plus the report being built (one record per
//! tenant) — not O(cells × histograms).

use idio_core::sweep::{run_cells_map, SweepCell, SweepOptions};
use idio_engine::telemetry::{TraceFilter, TraceRecord};

use crate::report::{ScenarioReport, ScenarioReportBuilder};
use crate::spec::Scenario;

/// The sweep cells of `scenario`, in the fixed order the report builder
/// expects: the mixed cell first, then one solo cell per tenant in
/// declaration order.
pub fn scenario_cells(scenario: &Scenario) -> Vec<SweepCell> {
    let mut cells = vec![SweepCell::new(
        format!("scenario/{}/mixed", scenario.name),
        scenario.mixed_config(),
    )];
    for (i, t) in scenario.tenants.iter().enumerate() {
        cells.push(SweepCell::new(
            format!("scenario/{}/solo/{}", scenario.name, t.name),
            scenario.solo_config(i),
        ));
    }
    cells
}

/// What the mixed cell recorded besides its counters: the trace records
/// its filter kept and its per-control-tick NDJSON timeline. Both are
/// pure functions of the scenario and the cell's seed.
#[derive(Debug, Clone, Default)]
pub struct MixedRecords {
    /// The trace records the tracer's ring still held at the end.
    pub trace: Vec<TraceRecord>,
    /// Records the full ring evicted (oldest first) before the end.
    pub trace_evicted: u64,
    /// One NDJSON object per control tick.
    pub tick_metrics: Vec<String>,
}

/// Runs `scenario` under `opts` and assembles the per-tenant report.
///
/// The result is a pure function of `(scenario, opts.root_seed)`:
/// byte-identical JSON at any `opts.jobs`.
///
/// # Errors
///
/// Returns the validation message when the scenario is malformed, or
/// when a cell's configuration is invalid; the simulation itself cannot
/// fail.
pub fn run_scenario(scenario: &Scenario, opts: &SweepOptions) -> Result<ScenarioReport, String> {
    run_scenario_observed(scenario, opts, &TraceFilter::off(), false).map(|(report, _)| report)
}

/// [`run_scenario`], with the mixed cell traced under `trace` and, if
/// `tick_metrics` is set, keeping its per-tick timeline. The report is
/// the one [`run_scenario`] returns: recording changes no counter it
/// reads. No cell runs twice.
///
/// # Errors
///
/// As [`run_scenario`].
pub fn run_scenario_observed(
    scenario: &Scenario,
    opts: &SweepOptions,
    trace: &TraceFilter,
    tick_metrics: bool,
) -> Result<(ScenarioReport, MixedRecords), String> {
    scenario.validate()?;
    let mut builder = ScenarioReportBuilder::new(scenario, opts.root_seed);
    let mut cells = scenario_cells(scenario);
    debug_assert_eq!(cells.len(), builder.num_cells());
    cells[0].cfg.trace = trace.clone();
    cells[0].cfg.tick_metrics = tick_metrics;
    // Reduce on the workers (dropping each RunReport as soon as its cell
    // finishes, the mixed cell's records moved out first), then fold the
    // per-cell aggregates on this thread.
    let folds = run_cells_map(cells, opts, |i, mut outcome| {
        let report = &mut outcome.report;
        let records = (i == 0).then(|| MixedRecords {
            trace: std::mem::take(&mut report.trace),
            trace_evicted: report.metrics.counter("trace.evicted"),
            tick_metrics: std::mem::take(&mut report.tick_metrics),
        });
        (builder.reduce(i, report), records)
    })?;
    let mut mixed = MixedRecords::default();
    for (fold, records) in folds {
        builder.fold(fold);
        if let Some(records) = records {
            mixed = records;
        }
    }
    Ok((builder.finish()?, mixed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::CellFold;
    use idio_core::config::FlowSteering;
    use idio_core::net::gen::TrafficPattern;
    use idio_core::policy::SteeringPolicy;
    use idio_core::stack::nf::NfKind;
    use idio_engine::time::{Duration, SimTime};

    use crate::spec::TenantSpec;

    fn tiny() -> Scenario {
        Scenario {
            name: "tiny".into(),
            description: "runner test".into(),
            policy: SteeringPolicy::Idio,
            steering: FlowSteering::Perfect,
            duration: SimTime::from_us(200),
            drain_grace: Duration::from_us(200),
            perfect_filters: None,
            atr_lifetime: None,
            pool_idle_flush: None,
            antagonist: false,
            tenants: vec![
                TenantSpec::new(
                    "a",
                    NfKind::TouchDrop,
                    vec![0, 1],
                    4,
                    5000,
                    TrafficPattern::Steady { rate_gbps: 10.0 },
                    1514,
                ),
                TenantSpec::new(
                    "b",
                    NfKind::TouchDrop,
                    vec![2],
                    2,
                    6000,
                    TrafficPattern::Steady { rate_gbps: 8.0 },
                    512,
                ),
            ],
        }
    }

    #[test]
    fn tenant_attribution_adds_up_to_run_totals() {
        let r = run_scenario(&tiny(), &SweepOptions::serial()).unwrap();
        assert_eq!(r.tenants.len(), 2);
        let rx: u64 = r.tenants.iter().map(|t| t.rx_packets).sum();
        let done: u64 = r.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(rx, r.rx_packets, "per-queue rx folds cover every queue");
        assert_eq!(done, r.completed, "per-core completions cover every core");
        for t in &r.tenants {
            assert!(t.completed > 0, "tenant '{}' made progress", t.name);
            assert!(t.throughput_gbps > 0.0);
            let lat = t.latency.expect("completed packets have latency");
            assert_eq!(lat.count, t.completed);
            assert!(lat.p50_ns <= lat.p90_ns && lat.p90_ns <= lat.p99_ns);
            assert!(lat.p99_ns <= lat.max_ns.next_power_of_two().max(1) * 2);
            let steer_total = t.steer.llc + t.steer.mlc + t.steer.dram;
            assert!(steer_total > 0, "tenant '{}' received DMA lines", t.name);
            t.interference.expect("both runs completed packets");
            t.solo_latency.expect("solo run completed packets");
        }
    }

    #[test]
    fn report_is_independent_of_worker_count() {
        let serial = run_scenario(&tiny(), &SweepOptions::serial()).unwrap();
        let parallel = run_scenario(
            &tiny(),
            &SweepOptions {
                jobs: 4,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    /// Regression: a tenant that never completes a packet must yield a
    /// deterministic "no data" SLO outcome — no p99 read off an empty
    /// recorder, no NaN drop rate — and the report must stay
    /// byte-identical across worker counts.
    #[test]
    fn slo_on_tenant_with_no_completed_packets_reports_no_data() {
        use crate::spec::SloSpec;
        let mut sc = tiny();
        // An empty replay: every packet of the tenant is lost before the
        // horizon, so zero arrivals, zero completions.
        sc.tenants[1] = sc.tenants[1]
            .clone()
            .with_replay(Vec::new())
            .with_slo(SloSpec {
                max_p99_ns: Some(1_000_000),
                max_drop_rate: Some(0.01),
            });
        let r = run_scenario(&sc, &SweepOptions::serial()).unwrap();
        let t = &r.tenants[1];
        assert_eq!(t.completed, 0);
        assert!(t.latency.is_none());
        assert_eq!(t.drop_rate, 0.0, "idle tenant must not divide by zero");
        let slo = t.slo.as_ref().expect("slo configured");
        assert!(!slo.pass(), "no data cannot satisfy a p99 bound");
        assert_eq!(slo.actual_p99_ns, None);
        assert_eq!(slo.actual_drop_rate, 0.0);
        assert_eq!(slo.violations.len(), 1, "{:?}", slo.violations);
        assert!(
            slo.violations[0].contains("no completed packets"),
            "{:?}",
            slo.violations
        );
        let parallel = run_scenario(
            &sc,
            &SweepOptions {
                jobs: 2,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.to_json(), parallel.to_json());
    }

    #[test]
    fn invalid_scenario_is_rejected_before_running() {
        let mut sc = tiny();
        sc.tenants[1].cores = vec![0];
        assert!(run_scenario(&sc, &SweepOptions::serial()).is_err());
    }

    /// The builder of `tiny()` and the folds of its cells, in cell order.
    fn tiny_folds() -> (ScenarioReportBuilder, Vec<CellFold>) {
        let sc = tiny();
        let b = ScenarioReportBuilder::new(&sc, 1);
        let opts = SweepOptions::serial();
        let folds =
            run_cells_map(scenario_cells(&sc), &opts, |i, o| b.reduce(i, &o.report)).unwrap();
        (b, folds)
    }

    #[test]
    fn fold_order_does_not_change_the_report() {
        let (b, folds) = tiny_folds();
        let mut in_order = b.clone();
        for f in folds.iter().cloned() {
            in_order.fold(f);
        }
        // Every solo cell first, the mixed cell last.
        let mut solos_first = b;
        for f in folds.into_iter().rev() {
            solos_first.fold(f);
        }
        let (a, z) = (in_order.finish().unwrap(), solos_first.finish().unwrap());
        assert!(z.tenants.iter().all(|t| t.solo_latency.is_some()));
        assert_eq!(a.to_json(), z.to_json());
    }

    #[test]
    fn builder_names_the_tenant_whose_solo_cell_is_missing() {
        let (mut b, mut folds) = tiny_folds();
        folds.pop(); // tenant 'b's solo cell
        for f in folds {
            b.fold(f);
        }
        let err = b.finish().unwrap_err();
        assert_eq!(err, "scenario 'tiny': solo cell of tenant 'b' never folded");
    }

    #[test]
    #[should_panic(expected = "mixed cell folded twice")]
    fn folding_the_mixed_cell_twice_panics() {
        let (mut b, folds) = tiny_folds();
        b.fold(folds[0].clone());
        b.fold(folds[0].clone());
    }

    #[test]
    fn builder_rejects_missing_folds() {
        let sc = tiny();
        let b = ScenarioReportBuilder::new(&sc, 1);
        assert_eq!(b.num_cells(), 3);
        // Nothing folded at all: the mixed cell is reported missing.
        let err = b.finish().unwrap_err();
        assert!(err.contains("mixed cell never folded"), "{err}");
    }
}
