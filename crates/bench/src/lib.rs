//! # idio-bench
//!
//! Command-line front ends of the IDIO reproduction:
//!
//! * the **`repro` binary** (`cargo run -p idio-bench --release --bin
//!   repro -- [fig...]`) regenerates every table and figure of the paper's
//!   evaluation and prints them;
//! * the **`scenario` binary** runs a scenario's mixed and solo cells and
//!   prints the per-tenant report, optionally writing the mixed cell's
//!   trace and tick timeline to files.
//!
//! The actual experiment drivers live in [`idio_core::experiments`]; this
//! crate only selects, times, and prints them. Simulator speed is measured
//! by the separate `perfbench` package at the repository root, which
//! calls [`experiment_spec`] and [`json::cell_metrics_line`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::io;
use std::process::ExitCode;

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

/// How a CLI ends when writing its stdout failed: a closed pipe (the
/// reader quit early, as `| head` does) stops the run quietly with
/// success; any other error fails it with a message.
pub fn stdout_failed(err: io::Error) -> ExitCode {
    if err.kind() == io::ErrorKind::BrokenPipe {
        return ExitCode::SUCCESS;
    }
    eprintln!("error: cannot write to stdout: {err}");
    ExitCode::FAILURE
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
