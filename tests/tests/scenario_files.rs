//! Scenario-file integration tests: the checked-in examples, the bad-file
//! corpus, and generator determinism.
//!
//! * Every built-in scenario is defined by its file
//!   `examples/scenarios/<name>.toml` (plus sidecar traces under
//!   `traces/`), embedded into `idio_scenario::builtin`. The files must
//!   stay in canonical form (`to_file_string` of the built-in), and
//!   loading them from disk must reproduce the embedded built-in *struct*
//!   — and therefore its byte-identical golden report. After a
//!   hand edit, rewrite a file in canonical form with:
//!
//!   ```text
//!   IDIO_BLESS=1 cargo test -p idio-integration-tests --test scenario_files
//!   ```
//!
//! * `tests/scenario_files/bad/` holds deliberately broken files; each
//!   must fail with an error naming the offending line and column.
//!
//! * `[generate]` expansion must be byte-stable across worker counts
//!   (process-level double-run determinism is covered by the `scenario`
//!   CLI tests in `crates/bench/tests/`).

use std::path::PathBuf;

use idio_core::sweep::SweepOptions;
use idio_scenario::{builtin, builtin_names, builtins, load_path, run_scenario, to_file_string};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests package sits under the repo root")
        .to_path_buf()
}

fn examples_dir() -> PathBuf {
    repo_root().join("examples/scenarios")
}

fn bad_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenario_files/bad")
}

fn blessing() -> bool {
    std::env::var_os("IDIO_BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn example_files_are_the_canonical_rendering_of_the_builtins() {
    let dir = examples_dir();
    let mut failures = Vec::new();
    for name in builtin_names() {
        let path = dir.join(format!("{name}.toml"));
        if blessing() {
            let loaded = load_path(&path)
                .unwrap_or_else(|e| panic!("{}", e.at_path(&path.display().to_string())));
            std::fs::write(&path, to_file_string(&loaded)).expect("write example");
            continue;
        }
        let scenario = builtin(name).expect("listed name");
        match std::fs::read_to_string(&path) {
            Ok(on_disk) if on_disk == to_file_string(&scenario) => {}
            Ok(_) => failures.push(format!(
                "{}: {} is not the canonical rendering of the built-in",
                scenario.name,
                path.display()
            )),
            Err(e) => failures.push(format!("{}: {e} ({})", scenario.name, path.display())),
        }
        match load_path(&path) {
            Ok(loaded) if loaded == scenario => {}
            Ok(_) => failures.push(format!(
                "{}: file loads but differs from the built-in struct",
                scenario.name
            )),
            Err(e) => failures.push(format!(
                "{}: {}",
                scenario.name,
                e.at_path(&path.display().to_string())
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "example scenario files diverged (IDIO_BLESS=1 rewrites them in canonical form):\n{}",
        failures.join("\n")
    );
}

/// The ISSUE's golden guarantee, end to end: running a *file-loaded*
/// scenario produces the byte-identical report the built-in's blessed
/// golden records. `llc-duel` covers policy overrides + SLOs;
/// `trace-replay` covers the sidecar-trace path; `cat-duel` covers the
/// CAT way-partitioning sugar (`cat = "auto"`).
#[test]
fn file_loaded_runs_match_the_blessed_goldens() {
    if blessing() {
        return; // goldens are blessed by golden_scenarios.rs
    }
    let opts = SweepOptions {
        jobs: 2,
        ..SweepOptions::default()
    };
    for name in ["llc-duel", "trace-replay", "cat-duel"] {
        let loaded = load_path(examples_dir().join(format!("{name}.toml")))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = run_scenario(&loaded, &opts).expect("example scenarios are valid");
        let rendered = format!("{}\n", report.to_json());
        let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("scenario_{name}.json"));
        let expected = std::fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden.display()));
        assert_eq!(
            expected, rendered,
            "{name}: file-loaded run diverged from the built-in's golden"
        );
    }
}

#[test]
fn datacenter_200_expands_deterministically_and_validates() {
    let path = examples_dir().join("datacenter-200.toml");
    let a = load_path(&path).unwrap_or_else(|e| panic!("{}", e.at_path("datacenter-200.toml")));
    let b = load_path(&path).unwrap();
    assert_eq!(a, b, "expansion is a pure function of the file");
    assert_eq!(a.tenants.len(), 200);
    assert_eq!(a.num_cores(), 200);
    a.validate().expect("generated scenario is valid");
    let attackers = a.tenants.iter().filter(|t| t.policy.is_some()).count();
    assert!(
        (10..=30).contains(&attackers),
        "~10% of 200 tenants are attackers, got {attackers}"
    );
    assert!(
        a.tenants.iter().any(|t| t.slo.is_some()),
        "head kvs tenants carry the SLO bounds the CI smoke step gates on"
    );
}

/// A small generated scenario runs byte-identically at every worker
/// count (the streaming report fold is order-independent).
#[test]
fn generated_scenario_reports_are_worker_count_independent() {
    let src = r#"
name = "gen-jobs"
description = "worker-count independence of generated scenarios"
duration_us = 60
drain_grace_us = 40

[generate]
tenants = 8
seed = 7
flows_per_tenant = 2
total_rate_gbps = 10.0
attacker_frac = 0.25
"#;
    let scenario = idio_scenario::parse_str(src).expect("generator spec parses");
    let mut renders = Vec::new();
    for jobs in [1, 2, 8] {
        let opts = SweepOptions {
            jobs,
            ..SweepOptions::default()
        };
        let report = run_scenario(&scenario, &opts).expect("valid");
        renders.push(report.to_json());
    }
    assert_eq!(renders[0], renders[1], "jobs 1 vs 2");
    assert_eq!(renders[0], renders[2], "jobs 1 vs 8");
}

/// The chained-pipeline golden guarantee: `upf-chain` — recycling pools,
/// chained NFs, per-stage histograms and all — renders the byte-identical
/// blessed golden at every worker count.
#[test]
fn upf_chain_golden_is_byte_identical_at_any_worker_count() {
    if blessing() {
        return; // goldens are blessed by golden_scenarios.rs
    }
    let scenario = builtin("upf-chain").expect("upf-chain is a builtin");
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/scenario_upf-chain.json");
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", golden.display()));
    for jobs in [1, 2, 8] {
        let opts = SweepOptions {
            jobs,
            ..SweepOptions::default()
        };
        let report = run_scenario(&scenario, &opts).expect("upf-chain is valid");
        assert_eq!(
            expected,
            format!("{}\n", report.to_json()),
            "upf-chain at --jobs {jobs} diverged from the blessed golden"
        );
    }
}

#[test]
fn bad_corpus_errors_name_line_and_column() {
    // (file, line, col, message fragment)
    let cases = [
        ("unknown-key.toml", 9, 1, "unknown key 'corez'"),
        ("dup-tenant.toml", 16, 8, "duplicate tenant name 'same'"),
        ("bad-dscp.toml", 12, 8, "dscp 64 out of range"),
        ("bad-core.toml", 8, 13, "core 70000 out of range"),
        ("truncated.toml", 4, 1, "truncated table header"),
        ("non-utf8.toml", 2, 16, "not valid UTF-8"),
        (
            "tenant-and-generate.toml",
            16,
            1,
            "either [[tenant]] tables or one [generate] table",
        ),
        ("bad-way-mask.toml", 15, 12, "overlaps the 2 DDIO ways"),
        (
            "unknown-chain-stage.toml",
            8,
            19,
            "unknown chain stage 'classfy'",
        ),
        ("bad-pool.toml", 9, 8, "unknown pool 'hugepages'"),
        (
            "bad-flow-count.toml",
            10,
            9,
            "flows 16777217 out of range (0..=16777216)",
        ),
        ("bad-churn.toml", 13, 12, "churn must be positive"),
    ];
    let dir = bad_dir();
    for (file, line, col, needle) in cases {
        let err = load_path(dir.join(file))
            .map(|sc| sc.name)
            .expect_err(&format!("{file} must fail to load"));
        assert_eq!(
            (err.line, err.col),
            (line, col),
            "{file}: wrong position in '{err}'"
        );
        assert!(
            err.msg.contains(needle),
            "{file}: '{}' does not mention '{needle}'",
            err.msg
        );
    }
    // The corpus and the expectation table must stay in sync.
    let on_disk = std::fs::read_dir(&dir)
        .expect("bad corpus dir exists")
        .count();
    assert_eq!(on_disk, cases.len(), "every corpus file has an expectation");
}

#[test]
fn builtin_lookup_and_examples_cover_the_same_names() {
    let dir = examples_dir();
    for scenario in builtins() {
        assert!(
            dir.join(format!("{}.toml", scenario.name)).is_file(),
            "{} has no example file",
            scenario.name
        );
        assert!(builtin(&scenario.name).is_some());
    }
}
