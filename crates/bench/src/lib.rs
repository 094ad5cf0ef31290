//! # idio-bench
//!
//! Command-line front ends of the IDIO reproduction:
//!
//! * the **`repro` binary** (`cargo run -p idio-bench --release --bin
//!   repro -- [fig...]`) regenerates every table and figure of the paper's
//!   evaluation and prints them;
//! * the **`simulate` binary** runs one scenario (a built-in or a file)
//!   as a single system and prints its run report;
//! * the **`scenario` binary** runs a scenario's mixed and solo cells and
//!   prints the per-tenant report.
//!
//! The actual experiment drivers live in [`idio_core::experiments`]; this
//! crate only selects, times, and prints them. Simulator speed is measured
//! by the separate `perfbench` package at the repository root, which
//! calls [`experiment_spec`] and [`json::cell_metrics_line`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use idio_core::experiments::{self, Scale};
use idio_core::sweep::FigureSpec;

/// Known experiment names, in paper order ([`experiments::SUITE`]'s).
pub const EXPERIMENTS: [&str; experiments::SUITE.len()] = {
    let mut names = [""; experiments::SUITE.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = experiments::SUITE[i].0;
        i += 1;
    }
    names
};

/// Resolves one experiment name to its declarative sweep spec.
///
/// # Errors
///
/// Returns the unknown name back to the caller.
pub fn experiment_spec(name: &str, scale: Scale) -> Result<FigureSpec, String> {
    experiments::spec_by_name(name, scale).ok_or_else(|| format!("unknown experiment '{name}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_resolve() {
        for name in EXPERIMENTS {
            assert!(experiment_spec(name, Scale::quick()).is_ok(), "{name}");
        }
        for alias in [
            "direct_dram",
            "future_work",
            "copy_mode",
            "ring_sweep",
            "packet_sweep",
        ] {
            assert!(experiment_spec(alias, Scale::quick()).is_ok(), "{alias}");
        }
        assert!(experiment_spec("nope", Scale::quick()).is_err());
        assert!(experiment_spec("fig_4", Scale::quick()).is_err());
    }
}
