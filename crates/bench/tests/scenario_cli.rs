//! Process-level tests of the `scenario` binary: exit codes, error
//! rendering, output files, and cross-process determinism of generated
//! scenarios.
//!
//! These run the real executable (via `CARGO_BIN_EXE_scenario`), so they
//! cover what CI scripts and users actually observe — `scenario check`
//! failing with `file:line:col`, `scenario list` output staying stable,
//! a bad flag or output path failing before any cell runs, the mixed
//! cell's trace and tick timeline leaving the report unchanged, and a
//! `[generate]` scenario producing byte-identical reports in two
//! separate invocations at different worker counts.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn scenario_bin() -> &'static str {
    env!("CARGO_BIN_EXE_scenario")
}

fn repo_root() -> PathBuf {
    // crates/bench → crates → repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate sits two levels under the repo root")
        .to_path_buf()
}

fn run(args: &[&str]) -> Output {
    Command::new(scenario_bin())
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("scenario binary runs")
}

#[test]
fn check_accepts_every_example_file() {
    let dir = repo_root().join("examples/scenarios");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples dir exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "toml") {
            continue;
        }
        let out = run(&["check", path.to_str().expect("utf-8 path")]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{}: check failed\nstdout: {stdout}\nstderr: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.starts_with("ok: "), "{}: {stdout}", path.display());
        checked += 1;
    }
    assert!(
        checked >= 6,
        "all example files were checked, got {checked}"
    );
}

#[test]
fn check_rejects_each_bad_corpus_file_naming_line_and_column() {
    let dir = repo_root().join("tests/scenario_files/bad");
    let mut rejected = 0;
    for entry in std::fs::read_dir(&dir).expect("bad corpus dir exists") {
        let path = entry.expect("readable entry").path();
        let arg = path.to_str().expect("utf-8 path");
        let out = run(&["check", arg]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            !out.status.success(),
            "{}: check must fail\nstdout: {}",
            path.display(),
            String::from_utf8_lossy(&out.stdout)
        );
        // Every corpus error is positioned: `error: <path>:<line>:<col>: …`.
        let prefix = format!("error: {arg}:");
        let rest = stderr
            .strip_prefix(&prefix)
            .unwrap_or_else(|| panic!("{}: stderr '{stderr}' lacks '{prefix}'", path.display()));
        let mut parts = rest.splitn(3, ':');
        let line: u32 = parts
            .next()
            .unwrap_or("")
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{}: no line number in '{stderr}'", path.display()));
        let col: u32 = parts
            .next()
            .unwrap_or("")
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{}: no column number in '{stderr}'", path.display()));
        assert!(line >= 1 && col >= 1, "{}: {stderr}", path.display());
        rejected += 1;
    }
    assert_eq!(rejected, 12, "the whole corpus was exercised");
}

#[test]
fn list_output_is_stable() {
    let out = run(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8 listing");
    let names: Vec<&str> = text
        .lines()
        .map(|l| l.split_whitespace().next().expect("name column"))
        .collect();
    assert_eq!(
        names,
        [
            "noisy-neighbor",
            "incast",
            "mixed-rate",
            "trace-replay",
            "llc-duel",
            "cat-duel",
            "upf-chain",
            "recycle-duel",
            "flow-churn"
        ],
        "built-in listing changed — update docs and this test together"
    );
    // The legacy spelling prints the identical listing.
    let legacy = run(&["--list"]);
    assert!(legacy.status.success());
    assert_eq!(legacy.stdout, text.as_bytes());
}

#[test]
fn unknown_scenario_fails_and_names_the_builtins() {
    let out = run(&["run", "no-such-scenario"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown scenario"), "{stderr}");
    assert!(stderr.contains("noisy-neighbor"), "{stderr}");
    assert!(stderr.contains(".toml"), "{stderr}");
}

/// ScenarioGen's end-to-end determinism guarantee across *processes*: two
/// separate invocations of the binary on a `[generate]` scenario file,
/// at different worker counts, print byte-identical reports.
#[test]
fn generated_scenario_reports_are_identical_across_processes() {
    let dir = std::env::temp_dir().join(format!("idio-scenario-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("gen-proc.toml");
    std::fs::write(
        &file,
        "name = \"gen-proc\"\n\
         description = \"cross-process determinism probe\"\n\
         duration_us = 60\n\
         drain_grace_us = 40\n\n\
         [generate]\n\
         tenants = 6\n\
         seed = 11\n\
         flows_per_tenant = 2\n\
         total_rate_gbps = 9.0\n\
         attacker_frac = 0.2\n",
    )
    .expect("write scenario file");
    let arg = file.to_str().expect("utf-8 path");

    let a = run(&["run", arg, "--jobs", "1"]);
    let b = run(&["run", arg, "--jobs", "4"]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert!(b.status.success(), "{}", String::from_utf8_lossy(&b.stderr));
    assert!(!a.stdout.is_empty());
    assert_eq!(
        a.stdout, b.stdout,
        "reports diverged across processes/worker counts"
    );
}

/// Per-tenant policy and pool overrides land on the queues they name: the
/// report matches the blessed golden byte for byte.
#[test]
fn queue_overrides_match_the_golden() {
    let out = run(&["run", "tests/scenario_files/queue-overrides.toml"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = repo_root().join("tests/golden/scenario_queue-overrides.json");
    let want = std::fs::read_to_string(golden).expect("golden file exists");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}

#[test]
fn a_bad_number_names_its_flag() {
    for flag in ["--jobs", "--seed"] {
        let out = run(&["run", "noisy-neighbor", flag, "x"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        let want = format!("error: {flag} 'x': invalid digit found in string\n");
        assert!(stderr.starts_with(&want), "{flag}: {stderr}");
    }
}

#[test]
fn trace_and_trace_out_go_together() {
    for args in [["--trace", "all"], ["--trace-out", "t.ndjson"]] {
        let out = run(&[&["run", "noisy-neighbor"], &args[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: --trace and --trace-out go together"),
            "{args:?}: {stderr}"
        );
    }
}

/// Every output file is created before the sweep: an unwritable path
/// fails with exit code 1 and names the path, and no cell ran before.
#[test]
fn an_unwritable_output_fails_before_any_cell_runs() {
    let path = "/nonexistent/dir/x.json";
    for args in [
        &["--out", path][..],
        &["--trace", "all", "--trace-out", path],
        &["--tick-metrics-out", path],
    ] {
        let out = run(&[&["run", "noisy-neighbor", "--progress"], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: cannot create '{path}'")),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("scenario/"), "a cell ran: {stderr}");
    }
}

/// Tracing the mixed cell and keeping its tick timeline change nothing in
/// the report, and the timeline starts with the blessed golden's lines.
#[test]
fn the_report_is_the_same_with_and_without_trace_and_tick_outputs() {
    let dir = std::env::temp_dir().join(format!("idio-scenario-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (trace, tick) = (dir.join("trace.ndjson"), dir.join("tick.ndjson"));
    let file = "tests/scenario_files/bursty-pair.toml";
    let plain = run(&["run", file]);
    let observed = run(&[
        "run",
        file,
        "--trace",
        "steer,fsm,prefetch,maint",
        "--trace-out",
        trace.to_str().expect("utf-8 path"),
        "--tick-metrics-out",
        tick.to_str().expect("utf-8 path"),
    ]);
    let trace = std::fs::read_to_string(&trace).expect("trace written");
    let tick = std::fs::read_to_string(&tick).expect("tick metrics written");
    std::fs::remove_dir_all(&dir).ok();
    for out in [&plain, &observed] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
    }
    assert!(!plain.stdout.is_empty());
    assert_eq!(
        plain.stdout, observed.stdout,
        "the outputs changed the report"
    );
    assert_eq!(trace.lines().count(), 51_202);
    assert!(trace.lines().all(|l| l.starts_with('{')), "trace is NDJSON");
    assert_eq!(tick.lines().count(), 6000, "one line per control tick");
    let golden = repo_root().join("tests/golden/tick_metrics_idio_1ms.head.ndjson");
    let head = std::fs::read_to_string(golden).expect("golden file exists");
    assert!(
        tick.starts_with(&head),
        "tick timeline diverged from its golden"
    );
}

/// A reader that quits early (`scenario run … | head -1`) ends the run
/// with exit code 0 and no panic. datacenter-200's report (about 130 KB)
/// outgrows a pipe's buffer, so the writes after the reader left fail with
/// a broken pipe.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(scenario_bin())
        .args([
            "run",
            "examples/scenarios/datacenter-200.toml",
            "--jobs",
            "2",
        ])
        .current_dir(repo_root())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("scenario binary starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("first line");
    assert_eq!(first, "{\n");
    drop(stdout);
    let mut stderr = String::new();
    (child.stderr.take().expect("piped stderr"))
        .read_to_string(&mut stderr)
        .expect("stderr is UTF-8");
    let status = child.wait().expect("scenario exits");
    assert_eq!(status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
