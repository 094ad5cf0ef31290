//! The JSON value rendering every writer in the workspace shares: metrics
//! snapshots, trace records, figure tables, scenario reports and the
//! scenario-file writer all escape strings and print numbers through these
//! functions, so their outputs agree byte for byte.
//!
//! # Examples
//!
//! ```
//! use idio_engine::json;
//!
//! assert_eq!(json::string("a\"b"), "\"a\\\"b\"");
//! assert_eq!(json::float(2.0), "2.0");
//! assert_eq!(json::float(f64::NAN), "null");
//! ```

/// Escapes `s` for use inside a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// `s` as a quoted, escaped JSON string.
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// `v` as a JSON number in Rust's shortest round-trip form, always with a
/// decimal point or exponent (`2.0`, not `2`). JSON has no infinities or
/// NaN, so non-finite values render as `null`.
pub fn float(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\r\t"), "\\r\\t");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(string("x"), "\"x\"");
    }

    #[test]
    fn numbers_are_valid_json() {
        assert_eq!(float(1.5), "1.5");
        assert_eq!(float(2.0), "2.0");
        assert_eq!(float(f64::INFINITY), "null");
        assert_eq!(float(f64::NAN), "null");
    }
}
