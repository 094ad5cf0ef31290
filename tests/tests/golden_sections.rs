//! Golden harness for the configuration-gated report and tick-log
//! sections.
//!
//! The CAT allocator, flow-director accounting and explicit mbuf pools
//! (with the idle flush) each add `cat.*`/`fd.*`/`pool.*` metrics and a
//! `cat`/`fd`/`pool` tick-log section, but only when configured. No other
//! golden pins those sections, so this harness runs the mixed
//! configuration of the three built-ins that switch them on, with the
//! tick log enabled, and diffs a compact digest of each run against
//! `tests/golden/sections.txt`: the tick-log line count, a 64-bit FNV-1a
//! digest of the whole log, every 100th tick line and the full metrics
//! snapshot. Re-bless intentional changes with:
//!
//! ```text
//! IDIO_BLESS=1 cargo test -p idio-integration-tests --test golden_sections
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use idio_core::system::System;
use idio_engine::rng::stable_hash64;
use idio_engine::time::Duration;
use idio_scenario::builtin;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join("sections.txt")
}

fn blessing() -> bool {
    std::env::var_os("IDIO_BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Renders one cell: the mixed run of built-in `name`, with the tick log
/// on and, when given, the pool idle-flush window set.
fn render_cell(out: &mut String, name: &str, idle_flush: Option<Duration>) {
    let scenario = builtin(name).expect("known built-in");
    let mut cfg = scenario.mixed_config();
    cfg.tick_metrics = true;
    cfg.pool_idle_flush = idle_flush;
    let report = System::new(cfg).run();
    let log = &report.tick_metrics;
    let whole: String = log.iter().map(|l| format!("{l}\n")).collect();
    let _ = writeln!(out, "== {name}");
    let _ = writeln!(
        out,
        "ticks={} fnv1a={:016x}",
        log.len(),
        stable_hash64(&whole)
    );
    for (i, line) in log.iter().enumerate().step_by(100) {
        let _ = writeln!(out, "tick[{i}]={line}");
    }
    let _ = writeln!(out, "metrics={}", report.metrics.to_json());
}

#[test]
fn gated_sections_match_blessed_golden() {
    let mut rendered = String::new();
    render_cell(&mut rendered, "cat-duel", None);
    render_cell(&mut rendered, "flow-churn", None);
    // Traffic stops at 400 us; a 100 us window elapses only inside the
    // 300 us drain grace, once every buffer has been released.
    render_cell(&mut rendered, "recycle-duel", Some(Duration::from_us(100)));

    let path = golden_path();
    if blessing() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing sections golden at {} ({e}); run with IDIO_BLESS=1 to create it",
            path.display()
        )
    });
    for (i, (e, g)) in expected.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(
            e,
            g,
            "sections output diverged from golden at line {} \
             (IDIO_BLESS=1 re-blesses after intentional changes)",
            i + 1
        );
    }
    assert_eq!(
        expected.lines().count(),
        rendered.lines().count(),
        "sections output line count differs from golden"
    );
}
