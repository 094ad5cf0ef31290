//! Process-level tests of the `simulate` binary: a scenario file's report,
//! bad scenario files and bad flag values. Every rejected input ends in an
//! `error:` line and exit code 1, never in a panic (exit code 101).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    // crates/bench → crates → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate sits two levels under the repo root")
        .to_path_buf()
}

fn simulate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("simulate binary runs")
}

const DEFAULT: &str = "tests/scenario_files/simulate-default.toml";

/// Per-tenant policy and pool overrides land on the queues they name: the
/// report matches the blessed golden byte for byte.
#[test]
fn queue_overrides_match_the_golden() {
    let out = simulate(&["tests/scenario_files/simulate-queue-overrides.toml"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = repo_root().join("tests/golden/simulate_queue_overrides.txt");
    let want = std::fs::read_to_string(golden).expect("golden file exists");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}

#[test]
fn bad_flags_exit_one_and_name_the_flag() {
    let cases: [(&[&str], &str); 4] = [
        (&["--ring", "0"], "--ring"),
        (&["--mlc-thr", "0"], "--mlc-thr"),
        (&["--mlc-thr", "-3"], "--mlc-thr"),
        (&["--mlc-thr", "nan"], "--mlc-thr"),
    ];
    for (args, named) in cases {
        let out = simulate(&[&[DEFAULT], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "{args:?}: stderr does not name {named}: {stderr}"
        );
    }
}

/// Every file of the bad corpus is rejected with the parser's positioned
/// error, `error: <path>:<line>:<col>: ...`, exactly as `scenario check`
/// renders it.
#[test]
fn bad_scenario_files_exit_one_with_a_positioned_error() {
    let dir = repo_root().join("tests/scenario_files/bad");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("bad corpus dir exists") {
        let path = entry.expect("readable entry").path();
        let path = path.to_str().expect("utf-8 path");
        let out = simulate(&[path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{path}: {stderr}");
        let rest = stderr
            .strip_prefix(&format!("error: {path}:"))
            .unwrap_or_else(|| panic!("{path}: unpositioned error: {stderr}"));
        let mut fields = rest.splitn(3, ':');
        for what in ["line", "column"] {
            let field = fields.next().unwrap_or_default();
            assert!(
                field.parse::<u32>().is_ok_and(|n| n > 0),
                "{path}: no {what} in {stderr}"
            );
        }
        checked += 1;
    }
    assert!(checked >= 12, "the whole corpus was run, got {checked}");
}

/// `--all-policies` prints no host time on stdout: the comparison table
/// is byte-identical at one and two workers.
#[test]
fn all_policies_stdout_is_independent_of_worker_count() {
    let run = |jobs: &str| {
        let out = simulate(&[DEFAULT, "--all-policies", "--jobs", jobs]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let serial = run("1");
    assert!(String::from_utf8_lossy(&serial).contains("IDIO"));
    assert_eq!(serial, run("2"));
}

/// `--all-policies` overrides every tenant's policy, so a tenant that sets
/// its own is an error rather than a silently ignored key.
#[test]
fn all_policies_rejects_a_tenant_policy_override() {
    let out = simulate(&[
        "tests/scenario_files/simulate-queue-overrides.toml",
        "--all-policies",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: --all-policies") && stderr.contains("'workload1'"),
        "{stderr}"
    );
}
