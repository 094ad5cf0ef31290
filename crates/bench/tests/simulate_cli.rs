//! Process-level tests of the `simulate` binary: flag values the
//! scenario-file parser would reject end in an `error:` line naming the
//! flag, or the configuration field it sets, and exit code 1, never in a
//! panic (exit code 101).

use std::process::Command;

#[test]
fn bad_flags_exit_one_and_name_the_flag() {
    let cases: [(&[&str], &str); 7] = [
        (&["--rate", "-5"], "--rate"),
        (&["--rate", "nan"], "--rate"),
        (&["--steady", "--rate", "0"], "--rate"),
        (&["--packet", "10"], "packet_len 10"),
        (&["--ring", "0"], "--ring"),
        (&["--cores", "0"], "--cores"),
        (&["--ring", "65536", "--rate", "1"], "--ring"),
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
