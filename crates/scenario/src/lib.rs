//! # idio-scenario
//!
//! Declarative multi-tenant scenarios on top of the full-system
//! simulator: a [`Scenario`] names a set of [`TenantSpec`]s — each binding
//! a traffic source, an application class (DSCP), a network function and
//! a group of cores — and the runner executes the mixed workload plus one
//! *solo* run per tenant on the [`idio_core::sweep`] worker pool,
//! emitting a per-tenant [`report::ScenarioReport`]:
//!
//! * throughput, drop rate and packet-latency percentiles (from the
//!   per-core `core{i}.pkt_latency_ns` histograms),
//! * the steering mix (DRAM/LLC/MLC line counts) and MLC writebacks
//!   attributed to the tenant's cores,
//! * a cross-tenant *interference* summary: the tenant's latency when it
//!   runs alone vs. inside the mix (Sec. VI's noisy-neighbour question,
//!   asked of every tenant).
//!
//! Flows are spread across each tenant's cores via the flow director
//! (perfect filters by default, RSS/ATR optionally) rather than the
//! legacy one-flow-per-core wiring, and reports are byte-identical at any
//! `--jobs` because every cell's seed derives from its stable label.
//!
//! Scenarios also live in **files** — a dependency-free TOML subset parsed
//! by [`spec_file`] with line/column errors and written back by
//! [`spec_file::to_file_string`]. The built-ins ([`builtin()`]) are the
//! checked-in files `examples/scenarios/<name>.toml`, compiled in with
//! the replay traces they name, so each is defined once. A file's
//! `[generate]` table ([`gen::GenSpec`]) expands a compact spec into
//! hundreds of tenants deterministically. The report path *streams*:
//! each sweep cell is reduced on the worker that ran it and written
//! straight into the per-tenant records of the report
//! ([`report::ScenarioReportBuilder`]), so memory stays O(tenants), not
//! O(cells × histograms), with the JSON still byte-identical at any
//! worker count.
//!
//! # Quick start
//!
//! ```
//! use idio_core::sweep::SweepOptions;
//! use idio_scenario::{builtin, run_scenario};
//!
//! let scenario = builtin("mixed-rate").expect("built-in");
//! let report = run_scenario(&scenario, &SweepOptions::serial()).unwrap();
//! assert_eq!(report.tenants.len(), 3);
//! assert!(report.to_json().starts_with('{'));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod gen;
pub mod report;
pub mod run;
pub mod spec;
pub mod spec_file;

pub use builtin::{builtin, builtin_names, builtins, resolve};
pub use gen::{AppClass, GenSpec, RateDist};
pub use report::{
    Interference, LatencyStats, PoolAgg, ScenarioReport, ScenarioReportBuilder, SloOutcome,
    SteerMix, TenantReport,
};
pub use run::{run_scenario, run_scenario_observed, scenario_cells, MixedRecords};
pub use spec::{Scenario, SloSpec, TenantSpec};
pub use spec_file::{load_path, parse_str, to_file_string, SpecError};
