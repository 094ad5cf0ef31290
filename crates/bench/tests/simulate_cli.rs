//! Process-level tests of the `simulate` binary: flag values the
//! scenario-file parser would reject end in an `error:` line naming the
//! flag, or the configuration field it sets, and exit code 1, never in a
//! panic (exit code 101).

use std::process::Command;

/// Per-queue policy and pool overrides land on the queues they name: the
/// report matches the blessed golden byte for byte.
#[test]
fn queue_overrides_match_the_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args([
            "--duration-ms",
            "1",
            "--cores",
            "3",
            "--queue-policy",
            "1=ddio",
        ])
        .args(["--queue-pool", "0=recycle:32", "--queue-pool", "2=dram"])
        .output()
        .expect("simulate binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/simulate_queue_overrides.txt"
    );
    let want = std::fs::read_to_string(golden).expect("golden file exists");
    assert_eq!(String::from_utf8_lossy(&out.stdout), want);
}

#[test]
fn bad_flags_exit_one_and_name_the_flag() {
    let cases: [(&[&str], &str); 9] = [
        (&["--rate", "-5"], "--rate"),
        (&["--rate", "nan"], "--rate"),
        (&["--steady", "--rate", "0"], "--rate"),
        (&["--packet", "10"], "packet_len 10"),
        (&["--ring", "0"], "--ring"),
        (&["--cores", "0"], "--cores"),
        (&["--ring", "65536", "--rate", "1"], "--ring"),
        (&["--queue-policy", "7=ddio"], "--queue-policy"),
        (&["--queue-pool", "9=dram"], "--queue-pool"),
    ];
    for (args, named) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
            .args(args)
            .args(["--duration-ms", "1"])
            .output()
            .expect("simulate binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(named),
            "{args:?}: stderr does not name {named}: {stderr}"
        );
    }
}
