//! # idio-bench
//!
//! Benchmark harness for the IDIO reproduction. Two entry points:
//!
//! * the **`repro` binary** (`cargo run -p idio-bench --release --bin
//!   repro -- [fig...]`) regenerates every table and figure of the paper's
//!   evaluation and prints them;
//! * the **`bench` binary** times the engine hot paths and the quick
//!   figure suite against the tracked `BENCH_engine.json` baseline
//!   ([`micro`] holds its measurement helpers), so regressions in
//!   simulator speed are caught continuously.
//!
//! The actual experiment drivers live in [`idio_core::experiments`]; this
//! crate only selects, times, and prints them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod micro;

use idio_core::experiments::{self, FigureResult, Scale};
use idio_core::sweep::FigureSpec;

/// Known experiment names, in paper order.
pub const EXPERIMENTS: [&str; 17] = [
    "table1",
    "table2",
    "fig4",
    "fig5",
    "fig9",
    "fig10",
    "fig11",
    "direct-dram",
    "fig12",
    "fig13",
    "fig14",
    "future-work",
    "bloating",
    "copy-mode",
    "baselines",
    "ring-sweep",
    "packet-sweep",
];

/// Resolves one experiment name to its declarative sweep spec.
///
/// # Errors
///
/// Returns the unknown name back to the caller.
pub fn experiment_spec(name: &str, scale: Scale) -> Result<FigureSpec, String> {
    Ok(match name {
        "table1" => experiments::table1_spec(),
        "table2" => experiments::table2_spec(),
        "fig4" => experiments::fig4_spec(scale),
        "fig5" => experiments::fig5_spec(scale),
        "fig9" => experiments::fig9_spec(scale),
        "fig10" => experiments::fig10_spec(scale),
        "fig11" => experiments::fig11_spec(scale),
        "direct-dram" | "direct_dram" => experiments::direct_dram_spec(scale),
        "fig12" => experiments::fig12_spec(scale),
        "fig13" => experiments::fig13_spec(scale),
        "fig14" => experiments::fig14_spec(scale),
        "future-work" | "future_work" => experiments::future_work_spec(scale),
        "bloating" => experiments::bloating_spec(scale),
        "copy-mode" | "copy_mode" => experiments::copy_mode_spec(scale),
        "baselines" => experiments::baselines_spec(scale),
        "ring-sweep" | "ring_sweep" => experiments::ring_sweep_spec(scale),
        "packet-sweep" | "packet_sweep" => experiments::packet_sweep_spec(scale),
        other => return Err(format!("unknown experiment '{other}'")),
    })
}

/// Runs one experiment by name, serially.
///
/// # Errors
///
/// Returns the unknown name back to the caller.
pub fn run_experiment(name: &str, scale: Scale) -> Result<FigureResult, String> {
    Ok(experiment_spec(name, scale)?.run_serial())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_resolve() {
        // Only the cheap table experiments actually run here; the rest are
        // validated by the integration suite and the repro binary.
        assert!(run_experiment("table1", Scale::quick()).is_ok());
        assert!(run_experiment("table2", Scale::quick()).is_ok());
        assert!(run_experiment("nope", Scale::quick()).is_err());
    }
}
