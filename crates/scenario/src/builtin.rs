//! The built-in scenarios: curated mixed workloads exercising the
//! steering policies under multi-tenant pressure.
//!
//! Each built-in is defined by its checked-in scenario file,
//! `examples/scenarios/<name>.toml`, compiled into the binary together
//! with the replay traces those files name. Each is golden-tested
//! (byte-stable JSON report), so their parameters are part of the repo's
//! regression surface — edit the file deliberately and re-bless.

use idio_core::net::gen::Arrival;

use crate::spec::Scenario;
use crate::spec_file::{load_path, parse_trace, parse_with_replays};

/// `(name, file source)` pairs for the named files under
/// `examples/scenarios/`.
macro_rules! scenario_files {
    ($($name:literal),* $(,)?) => {
        [$(($name, include_str!(concat!("../../../examples/scenarios/", $name, ".toml")))),*]
    };
}

/// The built-ins' `(name, file source)` table, in listing order.
const BUILTINS: [(&str, &str); 9] = scenario_files![
    "noisy-neighbor",
    "incast",
    "mixed-rate",
    "trace-replay",
    "llc-duel",
    "cat-duel",
    "upf-chain",
    "recycle-duel",
    "flow-churn",
];

/// The replay traces the built-ins name, by their path relative to the
/// scenario files.
const TRACES: [(&str, &[u8]); 1] = [(
    "traces/replay.trace",
    include_bytes!("../../../examples/scenarios/traces/replay.trace"),
)];

/// Names of the built-in scenarios, in listing order.
pub fn builtin_names() -> [&'static str; 9] {
    BUILTINS.map(|(name, _)| name)
}

/// All built-in scenarios, in listing order.
pub fn builtins() -> Vec<Scenario> {
    builtin_names()
        .iter()
        .map(|n| builtin(n).expect("listed name"))
        .collect()
}

/// Looks up a built-in scenario by name.
pub fn builtin(name: &str) -> Option<Scenario> {
    let (_, src) = BUILTINS.iter().find(|(n, _)| *n == name)?;
    let scenario = parse_with_replays(src, &embedded_trace)
        .unwrap_or_else(|e| panic!("built-in scenario file {name}.toml: {e}"));
    Some(scenario)
}

/// Whether a command-line positional names a scenario file rather than a
/// built-in: it ends in `.toml` or is an existing file.
fn is_file(name: &str) -> bool {
    name.ends_with(".toml") || std::path::Path::new(name).is_file()
}

/// Resolves a command-line positional to a scenario: a file path is
/// loaded with [`load_path`], anything else is looked up among the
/// built-ins.
///
/// # Errors
///
/// Returns the message to print after `error: `: a file's parse error
/// rendered as `path:line:col: msg`, or an unknown name with the list of
/// built-ins.
pub fn resolve(name: &str) -> Result<Scenario, String> {
    if is_file(name) {
        return load_path(name).map_err(|e| e.at_path(name));
    }
    builtin(name).ok_or_else(|| {
        format!(
            "unknown scenario '{name}' (built-ins: {}; or pass a .toml file)",
            builtin_names().join(", ")
        )
    })
}

/// Resolves a built-in's `replay` path among the embedded traces.
fn embedded_trace(rel: &str) -> Result<Vec<Arrival>, String> {
    let (_, bytes) = TRACES
        .iter()
        .find(|(path, _)| *path == rel)
        .ok_or_else(|| format!("cannot read replay trace '{rel}': not an embedded trace"))?;
    parse_trace(rel, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_core::net::gen::{FlowSet, MultiFlowGen, TrafficPattern};
    use idio_core::net::packet::Dscp;
    use idio_core::net::trace::write_trace;
    use idio_engine::time::SimTime;

    #[test]
    fn every_builtin_validates() {
        for name in builtin_names() {
            let sc = builtin(name).expect("lookup");
            assert_eq!(sc.name, name);
            assert!(!sc.description.is_empty());
            sc.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        assert_eq!(builtins().len(), builtin_names().len());
        assert!(builtin("no-such-scenario").is_none());
    }

    /// The replay trace is the recording of a four-flow Poisson stream:
    /// regenerated and written here, it must match the checked-in file
    /// byte for byte, and the parser must read it back as that stream.
    #[test]
    fn replay_trace_round_trips_through_the_parser() {
        let gen = MultiFlowGen::streaming(
            FlowSet::new(0, 4, 5000, 1024, Dscp::BEST_EFFORT),
            TrafficPattern::Poisson {
                rate_gbps: 10.0,
                seed: 0x7ACE,
            },
            SimTime::from_us(400),
        );
        let recorded: Vec<Arrival> = gen.collect();
        let mut buf = Vec::new();
        write_trace(&mut buf, &recorded).expect("in-memory trace write cannot fail");
        let (_, on_disk) = TRACES[0];
        assert!(buf == on_disk, "traces/replay.trace is not the recording");

        let scenario = builtin("trace-replay").expect("built-in");
        let arrivals = scenario.tenants[0].replay.as_ref().expect("replay tenant");
        assert!(arrivals.len() > 100, "enough packets to be interesting");
        // Times are ns-quantised and non-decreasing; flows rotate.
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        let ports: std::collections::BTreeSet<u16> =
            arrivals.iter().map(|a| a.packet.flow.dst_port).collect();
        assert_eq!(ports.len(), 4, "all four flows present in the trace");
    }
}
