//! Mutation fuzzing of the scenario-file parser.
//!
//! Every `scenario` file goes through `idio_scenario::parse_str`, so no
//! input may panic it, and every error it returns must point at a line and
//! column of the text it was given. The property mutates the checked-in
//! scenario files (the examples, the test files and the bad corpus) by
//! byte flips, line deletions,
//! line duplications and truncation, and parses the result.
//!
//! A failing case prints its seed; replay it with
//! `IDIO_CHECK_SEED=<seed> cargo test -p idio-integration-tests --test spec_file_fuzz`.

use std::path::PathBuf;

use idio_engine::check::{Cases, Gen};
use idio_scenario::parse_str;

/// Every scenario file checked into the repository, as raw bytes.
fn corpus() -> Vec<(String, Vec<u8>)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let dirs = [
        root.join("../examples/scenarios"),
        root.join("scenario_files"),
        root.join("scenario_files/bad"),
    ];
    let mut files = Vec::new();
    for dir in dirs {
        for entry in std::fs::read_dir(&dir).expect("corpus dir exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == "toml") {
                let bytes = std::fs::read(&path).expect("readable corpus file");
                files.push((path.display().to_string(), bytes));
            }
        }
    }
    files.sort();
    files
}

/// Byte ranges of the lines of `bytes`, each with its trailing newline.
fn line_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            spans.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < bytes.len() {
        spans.push((start, bytes.len()));
    }
    spans
}

/// Applies one random mutation to `bytes`.
fn mutate(g: &mut Gen, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    match g.u32(0..4) {
        0 => {
            let i = g.usize(0..bytes.len());
            bytes[i] ^= g.u16(1..256) as u8;
        }
        1 => {
            let spans = line_spans(bytes);
            let (a, b) = *g.choose(&spans);
            bytes.drain(a..b);
        }
        2 => {
            let spans = line_spans(bytes);
            let (a, b) = *g.choose(&spans);
            let line = bytes[a..b].to_vec();
            bytes.splice(b..b, line);
        }
        _ => bytes.truncate(g.usize(0..bytes.len())),
    }
}

/// Whether 1-based `(line, col)` lies within `src`: on one of its lines,
/// at most one column past the line's last character (where a missing
/// token would start), or at 1:1 of an empty text.
fn points_into(src: &str, line: u32, col: u32) -> bool {
    let lines: Vec<&str> = src.lines().collect();
    if lines.is_empty() {
        return (line, col) == (1, 1);
    }
    let Some(text) = (line as usize).checked_sub(1).and_then(|i| lines.get(i)) else {
        return false;
    };
    col >= 1 && col as usize <= text.chars().count() + 1
}

/// Parses `src`, asserting that an error points into it; returns whether
/// the text parsed.
fn check_parse(src: &str) -> bool {
    match parse_str(src) {
        Ok(_) => true,
        Err(e) => {
            assert!(
                points_into(src, e.line, e.col),
                "error '{e}' points outside the text:\n{src}"
            );
            false
        }
    }
}

#[test]
fn mutated_scenario_files_never_panic_and_errors_point_into_the_text() {
    let corpus = corpus();
    assert!(corpus.len() >= 20, "examples, test files and bad corpus");
    let (mut parsed, mut rejected) = (0, 0);
    Cases::new(1500).run(|g| {
        let (_, original) = g.choose(&corpus);
        let mut bytes = original.clone();
        for _ in 0..g.u32(1..5) {
            mutate(g, &mut bytes);
        }
        if check_parse(&String::from_utf8_lossy(&bytes)) {
            parsed += 1;
        } else {
            rejected += 1;
        }
    });
    // Both outcomes occur, so the mutations neither always break the
    // files nor always miss the parser.
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
