//! Scenario files: a dependency-free TOML-subset parser and the canonical
//! serializer.
//!
//! Scenarios are defined in files so they can be added, tuned and shared
//! without recompiling (the same reason PR 1 replaced unavailable crates
//! with in-repo substrates, this module hand-rolls the parser instead of
//! depending on a TOML crate). The accepted grammar is a strict subset of
//! TOML, line-oriented:
//!
//! * `key = value` pairs; keys are bare (`[A-Za-z0-9_-]+`).
//! * Values: `"strings"` (escapes `\\ \" \n \t \r \uXXXX`), integers
//!   (decimal or `0x` hex, `_` separators), floats, booleans, and
//!   single-line arrays of integers or strings.
//! * `[[tenant]]` array-of-tables headers and one optional `[generate]`
//!   table (see [`crate::gen`]); no other tables, no inline tables, no
//!   dotted keys, no multi-line values.
//! * `#` comments.
//!
//! Time-valued keys (`duration`, `drain_grace`, `burst_period`,
//! `burst_gap`) accept a `_us`, `_ns` or `_ps` suffix — exactly one —
//! and the serializer picks `_ns` unless the value needs picosecond
//! precision (the simulator's clocks tick in picoseconds).
//!
//! Every error carries the 1-based **line and column** of the offending
//! token ([`SpecError`]), which the `scenario check` CLI renders as
//! `file.toml:line:col: message`.
//!
//! This module checks syntax, types and names: the grammar, unknown,
//! duplicate and missing keys, value types and integer widths, name
//! lookups and key conflicts. Value rules belong to the types the values
//! configure — [`TenantSpec::check`] and
//! [`idio_core::config::SystemConfig::check_values`], [`SloSpec::check`],
//! [`GenSpec::check`] and [`NfChain::new`] — whose errors name the key at
//! fault; the parser
//! only positions them at that key's value.
//!
//! [`to_file_string`] renders a [`Scenario`] in canonical form such that
//! `parse_str(to_file_string(s)) == s` for any scenario without replay
//! tenants (replay arrivals are kept in sidecar trace files named
//! `traces/<tenant>.trace` next to the scenario file, written with
//! [`idio_core::net::trace::write_trace`]).

use std::fmt;
use std::path::Path;

use idio_core::cache::set::WayMask;
use idio_core::config::{positive_rate, FlowSteering};
use idio_core::net::gen::{Arrival, BurstSpec, TrafficPattern};
use idio_core::net::packet::Dscp;
use idio_core::net::trace::read_trace;
use idio_core::policy::{CatMode, PolicyCaps, PolicySpec, PrefetchMode, SteeringPolicy};
use idio_core::pool::PoolSpec;
use idio_core::stack::nf::{ChainStage, NfChain, NfKind};
use idio_engine::json;
use idio_engine::time::{wire_time, Duration, SimTime};

use crate::gen::{AppClass, GenSpec, RateDist};
use crate::spec::{Scenario, SloSpec, TenantSpec};

/// A parse or validation error anchored to a 1-based line and column of
/// the scenario file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line of the offending token (0 when the error has no
    /// position, e.g. the file could not be read at all).
    pub line: u32,
    /// 1-based column (in characters) of the offending token.
    pub col: u32,
    /// Human-readable description.
    pub msg: String,
}

impl SpecError {
    fn new(pos: Pos, msg: impl Into<String>) -> Self {
        SpecError {
            line: pos.0,
            col: pos.1,
            msg: msg.into(),
        }
    }

    fn no_pos(msg: impl Into<String>) -> Self {
        SpecError {
            line: 0,
            col: 0,
            msg: msg.into(),
        }
    }

    /// Renders the error prefixed with a file path, `path:line:col: msg`
    /// (or `path: msg` when the error has no position).
    pub fn at_path(&self, path: &str) -> String {
        if self.line == 0 {
            format!("{path}: {}", self.msg)
        } else {
            format!("{path}:{}:{}: {}", self.line, self.col, self.msg)
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            f.write_str(&self.msg)
        } else {
            write!(f, "line {}, column {}: {}", self.line, self.col, self.msg)
        }
    }
}

impl std::error::Error for SpecError {}

/// (line, column), both 1-based.
type Pos = (u32, u32);

#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Int(i128),
    Float(f64),
    Bool(bool),
    Ints(Vec<(i128, Pos)>),
    Strs(Vec<(String, Pos)>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Ints(_) => "integer array",
            Value::Strs(_) => "string array",
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    key: String,
    key_pos: Pos,
    val: Value,
    val_pos: Pos,
}

#[derive(Debug, Clone)]
struct Table {
    /// Position of the table header (`(1, 1)` for the implicit top-level
    /// table); anchor for "missing required key" errors.
    pos: Pos,
    entries: Vec<Entry>,
}

impl Table {
    fn get(&self, key: &str) -> Option<&Entry> {
        self.entries.iter().find(|e| e.key == key)
    }
}

// ---------------------------------------------------------------------
// Lexing: source text → tables of positioned key/value entries.
// ---------------------------------------------------------------------

fn is_bare_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

struct LineLexer {
    chars: Vec<char>,
    line: u32,
    i: usize,
}

impl LineLexer {
    fn pos(&self) -> Pos {
        (self.line, self.i as u32 + 1)
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ') | Some('\t')) {
            self.i += 1;
        }
    }

    /// Whether the rest of the line is only whitespace or a comment.
    fn at_end(&mut self) -> bool {
        self.skip_ws();
        matches!(self.peek(), None | Some('#'))
    }

    fn bare_token(&mut self) -> (String, Pos) {
        let pos = self.pos();
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if is_bare_key_char(c) || c == '.' || c == '+' {
                s.push(c);
                self.i += 1;
            } else {
                break;
            }
        }
        (s, pos)
    }

    fn string(&mut self) -> Result<(String, Pos), SpecError> {
        let open = self.pos();
        debug_assert_eq!(self.peek(), Some('"'));
        self.i += 1;
        let mut s = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(SpecError::new(open, "unterminated string"));
            };
            self.i += 1;
            match c {
                '"' => return Ok((s, open)),
                '\\' => {
                    let esc_pos = (self.line, self.i as u32);
                    let Some(e) = self.peek() else {
                        return Err(SpecError::new(open, "unterminated string"));
                    };
                    self.i += 1;
                    match e {
                        '"' => s.push('"'),
                        '\\' => s.push('\\'),
                        'n' => s.push('\n'),
                        't' => s.push('\t'),
                        'r' => s.push('\r'),
                        'u' => {
                            let mut v = 0u32;
                            for _ in 0..4 {
                                let Some(h) = self.peek().and_then(|c| c.to_digit(16)) else {
                                    return Err(SpecError::new(
                                        esc_pos,
                                        "\\u escape needs four hex digits",
                                    ));
                                };
                                self.i += 1;
                                v = v * 16 + h;
                            }
                            let Some(c) = char::from_u32(v) else {
                                return Err(SpecError::new(esc_pos, "invalid \\u escape"));
                            };
                            s.push(c);
                        }
                        other => {
                            return Err(SpecError::new(
                                esc_pos,
                                format!("unknown escape '\\{other}'"),
                            ));
                        }
                    }
                }
                c => s.push(c),
            }
        }
    }

    fn scalar_token(&mut self) -> Result<(Value, Pos), SpecError> {
        let (tok, pos) = self.bare_token();
        if tok.is_empty() {
            let c = self
                .peek()
                .map_or("end of line".into(), |c| format!("'{c}'"));
            return Err(SpecError::new(
                self.pos(),
                format!("expected a value, found {c}"),
            ));
        }
        match tok.as_str() {
            "true" => return Ok((Value::Bool(true), pos)),
            "false" => return Ok((Value::Bool(false), pos)),
            _ => {}
        }
        let clean: String = tok.chars().filter(|&c| c != '_').collect();
        let (neg, body) = match clean.strip_prefix('-') {
            Some(b) => (true, b),
            None => (false, clean.as_str()),
        };
        if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
            return i128::from_str_radix(hex, 16)
                .map(|v| (Value::Int(if neg { -v } else { v }), pos))
                .map_err(|_| SpecError::new(pos, format!("invalid number '{tok}'")));
        }
        if body.contains(['.', 'e', 'E']) {
            return clean
                .parse::<f64>()
                .map(|v| (Value::Float(v), pos))
                .map_err(|_| SpecError::new(pos, format!("invalid number '{tok}'")));
        }
        clean
            .parse::<i128>()
            .map(|v| (Value::Int(v), pos))
            .map_err(|_| SpecError::new(pos, format!("invalid number '{tok}'")))
    }

    fn value(&mut self) -> Result<(Value, Pos), SpecError> {
        self.skip_ws();
        match self.peek() {
            Some('"') => self.string().map(|(s, p)| (Value::Str(s), p)),
            Some('[') => self.array(),
            Some('-') => {
                // A leading '-' is only valid on numbers; bare_token keeps
                // it because it is a bare-key char.
                self.scalar_token()
            }
            _ => self.scalar_token(),
        }
    }

    fn array(&mut self) -> Result<(Value, Pos), SpecError> {
        let open = self.pos();
        debug_assert_eq!(self.peek(), Some('['));
        self.i += 1;
        let mut ints: Vec<(i128, Pos)> = Vec::new();
        let mut strs: Vec<(String, Pos)> = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Err(SpecError::new(open, "unterminated array")),
                Some(']') => {
                    self.i += 1;
                    break;
                }
                Some(_) => {}
            }
            let (v, pos) = self.value()?;
            match v {
                Value::Int(i) if strs.is_empty() => ints.push((i, pos)),
                Value::Str(s) if ints.is_empty() => strs.push((s, pos)),
                Value::Int(_) | Value::Str(_) => {
                    return Err(SpecError::new(pos, "mixed array element types"));
                }
                other => {
                    return Err(SpecError::new(
                        pos,
                        format!(
                            "arrays may hold integers or strings, not {}",
                            other.type_name()
                        ),
                    ));
                }
            }
            self.skip_ws();
            match self.peek() {
                Some(',') => {
                    self.i += 1;
                }
                Some(']') => {}
                None => return Err(SpecError::new(open, "unterminated array")),
                Some(c) => {
                    return Err(SpecError::new(
                        self.pos(),
                        format!("expected ',' or ']' in array, found '{c}'"),
                    ));
                }
            }
        }
        if strs.is_empty() {
            Ok((Value::Ints(ints), open))
        } else {
            Ok((Value::Strs(strs), open))
        }
    }
}

#[derive(Debug)]
struct RawFile {
    top: Table,
    tenants: Vec<Table>,
    generate: Option<Table>,
}

fn lex(src: &str) -> Result<RawFile, SpecError> {
    let mut raw = RawFile {
        top: Table {
            pos: (1, 1),
            entries: Vec::new(),
        },
        tenants: Vec::new(),
        generate: None,
    };
    #[derive(Clone, Copy, PartialEq)]
    enum Section {
        Top,
        Tenant,
        Generate,
    }
    let mut section = Section::Top;
    for (idx, text) in src.lines().enumerate() {
        let mut lx = LineLexer {
            chars: text.chars().collect(),
            line: idx as u32 + 1,
            i: 0,
        };
        if lx.at_end() {
            continue;
        }
        if lx.peek() == Some('[') {
            let header_pos = lx.pos();
            lx.i += 1;
            let array_of_tables = lx.peek() == Some('[');
            if array_of_tables {
                lx.i += 1;
            }
            let (name, _) = lx.bare_token();
            let close = if array_of_tables { "]]" } else { "]" };
            for _ in 0..close.len() {
                if lx.peek() != Some(']') {
                    return Err(SpecError::new(
                        header_pos,
                        format!("truncated table header (expected '{close}')"),
                    ));
                }
                lx.i += 1;
            }
            if !lx.at_end() {
                return Err(SpecError::new(
                    lx.pos(),
                    "unexpected characters after table header",
                ));
            }
            match (array_of_tables, name.as_str()) {
                (true, "tenant") => {
                    raw.tenants.push(Table {
                        pos: header_pos,
                        entries: Vec::new(),
                    });
                    section = Section::Tenant;
                }
                (false, "generate") => {
                    if raw.generate.is_some() {
                        return Err(SpecError::new(header_pos, "duplicate [generate] table"));
                    }
                    raw.generate = Some(Table {
                        pos: header_pos,
                        entries: Vec::new(),
                    });
                    section = Section::Generate;
                }
                (true, other) => {
                    return Err(SpecError::new(
                        header_pos,
                        format!("unknown table '[[{other}]]' (only [[tenant]] is accepted)"),
                    ));
                }
                (false, other) => {
                    return Err(SpecError::new(
                        header_pos,
                        format!("unknown table '[{other}]' (only [generate] is accepted)"),
                    ));
                }
            }
            continue;
        }
        // key = value
        let (key, key_pos) = lx.bare_token();
        if key.is_empty() {
            return Err(SpecError::new(
                lx.pos(),
                format!("expected a key, found '{}'", lx.peek().unwrap_or(' ')),
            ));
        }
        lx.skip_ws();
        if lx.peek() != Some('=') {
            return Err(SpecError::new(
                lx.pos(),
                format!("expected '=' after key '{key}'"),
            ));
        }
        lx.i += 1;
        let (val, val_pos) = lx.value()?;
        if !lx.at_end() {
            return Err(SpecError::new(
                lx.pos(),
                "unexpected characters after value",
            ));
        }
        let table = match section {
            Section::Top => &mut raw.top,
            Section::Tenant => raw.tenants.last_mut().expect("in a tenant section"),
            Section::Generate => raw.generate.as_mut().expect("in the generate section"),
        };
        if let Some(prev) = table.get(&key) {
            return Err(SpecError::new(
                key_pos,
                format!(
                    "duplicate key '{key}' (first set at line {}, column {})",
                    prev.key_pos.0, prev.key_pos.1
                ),
            ));
        }
        table.entries.push(Entry {
            key,
            key_pos,
            val,
            val_pos,
        });
    }
    Ok(raw)
}

// ---------------------------------------------------------------------
// Typed extraction helpers.
// ---------------------------------------------------------------------

fn want_str(e: &Entry) -> Result<&str, SpecError> {
    match &e.val {
        Value::Str(s) => Ok(s),
        other => Err(SpecError::new(
            e.val_pos,
            format!(
                "key '{}' expects a string, found {}",
                e.key,
                other.type_name()
            ),
        )),
    }
}

fn want_bool(e: &Entry) -> Result<bool, SpecError> {
    match e.val {
        Value::Bool(v) => Ok(v),
        ref other => Err(SpecError::new(
            e.val_pos,
            format!(
                "key '{}' expects a boolean, found {}",
                e.key,
                other.type_name()
            ),
        )),
    }
}

fn want_int(e: &Entry) -> Result<i128, SpecError> {
    match e.val {
        Value::Int(v) => Ok(v),
        ref other => Err(SpecError::new(
            e.val_pos,
            format!(
                "key '{}' expects an integer, found {}",
                e.key,
                other.type_name()
            ),
        )),
    }
}

fn want_uint(e: &Entry, max: u128) -> Result<u128, SpecError> {
    let v = want_int(e)?;
    if v < 0 || v as u128 > max {
        return Err(SpecError::new(
            e.val_pos,
            format!("{} {v} out of range (0..={max})", e.key),
        ));
    }
    Ok(v as u128)
}

fn want_u64(e: &Entry) -> Result<u64, SpecError> {
    want_uint(e, u64::MAX as u128).map(|v| v as u64)
}

fn want_u32(e: &Entry) -> Result<u32, SpecError> {
    want_uint(e, u32::MAX as u128).map(|v| v as u32)
}

fn want_u16(e: &Entry) -> Result<u16, SpecError> {
    want_uint(e, u16::MAX as u128).map(|v| v as u16)
}

fn want_f64(e: &Entry) -> Result<f64, SpecError> {
    match e.val {
        Value::Float(v) => Ok(v),
        Value::Int(v) => Ok(v as f64),
        ref other => Err(SpecError::new(
            e.val_pos,
            format!(
                "key '{}' expects a number, found {}",
                e.key,
                other.type_name()
            ),
        )),
    }
}

/// A string array; `[]` lexes as an empty integer array and counts as an
/// empty string array.
fn want_strs(e: &Entry) -> Result<&[(String, Pos)], SpecError> {
    match &e.val {
        Value::Strs(list) => Ok(list),
        Value::Ints(list) if list.is_empty() => Ok(&[]),
        other => Err(SpecError::new(
            e.val_pos,
            format!(
                "key '{}' expects a string array, found {}",
                e.key,
                other.type_name()
            ),
        )),
    }
}

fn check_known_keys(table: &Table, allowed: &[&str]) -> Result<(), SpecError> {
    for e in &table.entries {
        if !allowed.contains(&e.key.as_str()) {
            return Err(SpecError::new(
                e.key_pos,
                format!("unknown key '{}'", e.key),
            ));
        }
    }
    Ok(())
}

fn missing(table: &Table, what: &str, key: &str) -> SpecError {
    SpecError::new(table.pos, format!("{what} is missing required key '{key}'"))
}

fn required<'a>(table: &'a Table, what: &str, key: &str) -> Result<&'a Entry, SpecError> {
    table.get(key).ok_or_else(|| missing(table, what, key))
}

/// Unit suffixes a time-valued key accepts, with their picosecond scale.
const TIME_SUFFIXES: [(&str, u64); 3] = [("us", 1_000_000), ("ns", 1_000), ("ps", 1)];

/// An optional duration key: `<name>_us` / `<name>_ns` / `<name>_ps`,
/// rejecting more than one spelling; `None` when no spelling is present.
/// The simulator's clocks tick in picoseconds, so the `_ps` spelling
/// round-trips values the coarser units cannot (e.g. a 51.2 ns
/// intra-burst gap).
fn opt_time(table: &Table, base: &str) -> Result<Option<Duration>, SpecError> {
    let mut found: Option<(String, Duration)> = None;
    for (suffix, scale) in TIME_SUFFIXES {
        let key = format!("{base}_{suffix}");
        let Some(e) = table.get(&key) else { continue };
        if let Some((first, _)) = &found {
            return Err(SpecError::new(
                e.key_pos,
                format!("give '{first}' or '{key}', not both"),
            ));
        }
        let ps = want_u64(e)?
            .checked_mul(scale)
            .ok_or_else(|| SpecError::new(e.val_pos, format!("{key} overflows picoseconds")))?;
        found = Some((key, Duration::from_ps(ps)));
    }
    Ok(found.map(|(_, d)| d))
}

/// Where a value rule's error about `key` points: the key's value (a time
/// key's present spelling), `policy` for a CAT mask a custom policy sets,
/// and the table header for a key the table leaves out.
fn value_pos(table: &Table, key: &str) -> Pos {
    let entry = table.get(key).or_else(|| {
        (TIME_SUFFIXES.iter()).find_map(|(suffix, _)| table.get(&format!("{key}_{suffix}")))
    });
    let entry = match entry {
        None if key == "way_mask" => table.get("policy"),
        e => e,
    };
    entry.map_or(table.pos, |e| e.val_pos)
}

/// Parses a `"0b..."` binary way-mask literal.
fn parse_way_mask(s: &str, pos: Pos) -> Result<WayMask, SpecError> {
    let bits = s
        .strip_prefix("0b")
        .and_then(|b| u64::from_str_radix(b, 2).ok())
        .ok_or_else(|| {
            SpecError::new(
                pos,
                format!("way mask '{s}' must be a binary literal like \"0b111100\""),
            )
        })?;
    Ok(WayMask::from_bits(bits))
}

fn parse_policy_spec(s: &str, pos: Pos) -> Result<PolicySpec, SpecError> {
    if let Some(p) = SteeringPolicy::from_name(s) {
        return Ok(PolicySpec::Preset(p));
    }
    // The custom form mirrors PolicySpec::label exactly:
    // custom(inval=0|1,prefetch=off|always|dynamic,dram=0|1,tune=0|1
    //        [,ways=0b..|,cat=auto])
    if let Some(body) = s.strip_prefix("custom(").and_then(|r| r.strip_suffix(')')) {
        let mut caps = PolicyCaps {
            invalidate: false,
            prefetch: PrefetchMode::Off,
            direct_dram: false,
            tune_ddio_ways: false,
            cat: CatMode::Off,
        };
        let bit = |v: &str, k: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(SpecError::new(
                pos,
                format!("custom policy flag '{k}' must be 0 or 1"),
            )),
        };
        let mut seen = Vec::new();
        for part in body.split(',') {
            let Some((k, v)) = part.split_once('=') else {
                return Err(SpecError::new(
                    pos,
                    format!("malformed custom policy component '{part}'"),
                ));
            };
            if seen.contains(&k.to_string()) {
                return Err(SpecError::new(
                    pos,
                    format!("duplicate custom policy flag '{k}'"),
                ));
            }
            seen.push(k.to_string());
            match k {
                "inval" => caps.invalidate = bit(v, k)?,
                "prefetch" => {
                    caps.prefetch = match v {
                        "off" => PrefetchMode::Off,
                        "always" => PrefetchMode::Always,
                        "dynamic" => PrefetchMode::Dynamic,
                        _ => {
                            return Err(SpecError::new(
                                pos,
                                format!("prefetch mode '{v}' is not off|always|dynamic"),
                            ));
                        }
                    }
                }
                "dram" => caps.direct_dram = bit(v, k)?,
                "tune" => caps.tune_ddio_ways = bit(v, k)?,
                "ways" => {
                    if caps.cat != CatMode::Off {
                        return Err(SpecError::new(pos, "give 'ways' or 'cat', not both"));
                    }
                    caps.cat = CatMode::Static(parse_way_mask(v, pos)?);
                }
                "cat" => {
                    if caps.cat != CatMode::Off {
                        return Err(SpecError::new(pos, "give 'ways' or 'cat', not both"));
                    }
                    if v != "auto" {
                        return Err(SpecError::new(
                            pos,
                            format!("custom policy component cat '{v}' must be auto"),
                        ));
                    }
                    caps.cat = CatMode::Auto;
                }
                _ => {
                    return Err(SpecError::new(
                        pos,
                        format!("unknown custom policy flag '{k}'"),
                    ));
                }
            }
        }
        return Ok(PolicySpec::Custom(caps));
    }
    Err(SpecError::new(
        pos,
        format!(
            "unknown policy '{s}' (expected ddio|invalidate|prefetch|static|idio|iat \
             or custom(inval=..,prefetch=..,dram=..,tune=..[,ways=0b..|,cat=auto]))"
        ),
    ))
}

fn parse_nf(s: &str, pos: Pos) -> Result<NfKind, SpecError> {
    NfKind::from_file_name(s).ok_or_else(|| {
        let names: Vec<&str> = NfKind::NAMED
            .iter()
            .filter_map(|nf| nf.file_name())
            .collect();
        SpecError::new(
            pos,
            format!("unknown nf '{s}' (expected {})", names.join("|")),
        )
    })
}

/// Parses a `chain = ["parse", ...]` stage list into a chained NF.
fn parse_chain(e: &Entry) -> Result<NfKind, SpecError> {
    let list = want_strs(e)?;
    let mut stages = Vec::with_capacity(list.len());
    for (s, pos) in list {
        stages.push(ChainStage::from_name(s).ok_or_else(|| {
            SpecError::new(
                *pos,
                format!(
                    "unknown chain stage '{s}' (expected parse|classify|inspect|rewrite|forward)"
                ),
            )
        })?);
    }
    let chain = NfChain::new(&stages)
        .map_err(|err| SpecError::new(err.stage.map_or(e.val_pos, |i| list[i].1), err.msg))?;
    Ok(NfKind::Chain(chain))
}

fn policy_file_name(spec: PolicySpec) -> String {
    match spec {
        PolicySpec::Preset(p) => p.name().into(),
        // The custom form is exactly PolicySpec::label, which
        // parse_policy_spec accepts back.
        custom => custom.label(),
    }
}

// ---------------------------------------------------------------------
// Tables → Scenario.
// ---------------------------------------------------------------------

const TOP_KEYS: &[&str] = &[
    "name",
    "description",
    "policy",
    "steering",
    "duration_us",
    "duration_ns",
    "duration_ps",
    "drain_grace_us",
    "drain_grace_ns",
    "drain_grace_ps",
    "perfect_filters",
    "atr_lifetime_us",
    "atr_lifetime_ns",
    "atr_lifetime_ps",
    "pool_idle_flush_us",
    "pool_idle_flush_ns",
    "pool_idle_flush_ps",
    "antagonist",
];

const TENANT_KEYS: &[&str] = &[
    "name",
    "nf",
    "chain",
    "pool",
    "cores",
    "flows",
    "churn_us",
    "churn_ns",
    "churn_ps",
    "train",
    "base_port",
    "packet_len",
    "dscp",
    "traffic",
    "rate_gbps",
    "seed",
    "burst_packets",
    "burst_period_us",
    "burst_period_ns",
    "burst_period_ps",
    "burst_gap_us",
    "burst_gap_ns",
    "burst_gap_ps",
    "policy",
    "way_mask",
    "cat",
    "max_p99_ns",
    "max_drop_rate",
    "replay",
];

const GEN_KEYS: &[&str] = &[
    "tenants",
    "seed",
    "cores_per_tenant",
    "flows_per_tenant",
    "base_port",
    "total_rate_gbps",
    "rate_dist",
    "zipf_s",
    "app_classes",
    "attacker_frac",
    "cat",
    "max_p99_ns",
    "max_drop_rate",
];

fn reject_inapplicable(table: &Table, keys: &[&str], why: &str) -> Result<(), SpecError> {
    for key in keys {
        if let Some(e) = table.get(key) {
            return Err(SpecError::new(e.key_pos, format!("key '{key}' {why}")));
        }
    }
    Ok(())
}

/// Keys only `traffic = "bursty"` accepts.
const BURST_KEYS: &[&str] = &[
    "burst_packets",
    "burst_period_us",
    "burst_period_ns",
    "burst_period_ps",
    "burst_gap_us",
    "burst_gap_ns",
    "burst_gap_ps",
];

fn tenant_traffic(t: &Table, packet_len: u16) -> Result<TrafficPattern, SpecError> {
    let kind_entry = required(t, "tenant", "traffic")?;
    let kind = want_str(kind_entry)?;
    match kind {
        "steady" => {
            reject_inapplicable(t, &["seed"], "requires traffic = \"poisson\"")?;
            reject_inapplicable(t, BURST_KEYS, "requires traffic = \"bursty\"")?;
            let rate = required(t, "tenant", "rate_gbps")?;
            Ok(TrafficPattern::Steady {
                rate_gbps: want_f64(rate)?,
            })
        }
        "poisson" => {
            reject_inapplicable(t, BURST_KEYS, "requires traffic = \"bursty\"")?;
            let rate = required(t, "tenant", "rate_gbps")?;
            let seed = required(t, "tenant", "seed")?;
            Ok(TrafficPattern::Poisson {
                rate_gbps: want_f64(rate)?,
                seed: want_u64(seed)?,
            })
        }
        "bursty" => {
            reject_inapplicable(t, &["seed"], "requires traffic = \"poisson\"")?;
            let packets = want_u32(required(t, "tenant", "burst_packets")?)?;
            let period = opt_time(t, "burst_period")?
                .ok_or_else(|| missing(t, "tenant", "burst_period_us"))?;
            let intra_gap = match (opt_time(t, "burst_gap")?, t.get("rate_gbps")) {
                (Some(_), Some(e)) => {
                    return Err(SpecError::new(
                        e.key_pos,
                        "give 'burst_gap_ns' or 'rate_gbps', not both",
                    ));
                }
                (Some(gap), None) => gap,
                (None, Some(e)) => {
                    // The paper's for_ring construction: the intra-burst
                    // gap is the wire time of one frame at the burst rate,
                    // so the rate is checked here, before `wire_time`.
                    let rate = positive_rate("rate_gbps", want_f64(e)?)
                        .map_err(|err| SpecError::new(e.val_pos, err.msg))?;
                    wire_time(u64::from(packet_len), rate)
                }
                (None, None) => return Err(missing(t, "tenant", "burst_gap_ns")),
            };
            Ok(TrafficPattern::Bursty(BurstSpec {
                period,
                packets_per_burst: packets,
                intra_gap,
            }))
        }
        other => Err(SpecError::new(
            kind_entry.val_pos,
            format!("unknown traffic '{other}' (expected steady|poisson|bursty)"),
        )),
    }
}

fn tenant_slo(t: &Table) -> Result<Option<SloSpec>, SpecError> {
    let p99 = t.get("max_p99_ns").map(want_u64).transpose()?;
    let drop = t.get("max_drop_rate").map(want_f64).transpose()?;
    if p99.is_none() && drop.is_none() {
        return Ok(None);
    }
    Ok(Some(SloSpec {
        max_p99_ns: p99,
        max_drop_rate: drop,
    }))
}

/// Resolves a tenant's `replay` path to its arrivals, or to the message
/// of the error reported at the path's position.
pub(crate) type ReplayReader<'a> = &'a dyn Fn(&str) -> Result<Vec<Arrival>, String>;

/// Parses the bytes of the replay trace at `path` (named in the error).
pub(crate) fn parse_trace(path: impl fmt::Display, bytes: &[u8]) -> Result<Vec<Arrival>, String> {
    read_trace(bytes).map_err(|err| format!("replay trace '{path}' is malformed: {err}"))
}

fn build_tenant(
    t: &Table,
    replay_reader: ReplayReader<'_>,
    default_policy: SteeringPolicy,
) -> Result<TenantSpec, SpecError> {
    check_known_keys(t, TENANT_KEYS)?;
    let name = want_str(required(t, "tenant", "name")?)?.to_string();
    let nf = match (t.get("nf"), t.get("chain")) {
        (Some(_), Some(chain_entry)) => {
            return Err(SpecError::new(
                chain_entry.key_pos,
                "give 'nf' or 'chain', not both",
            ));
        }
        (Some(nf_entry), None) => parse_nf(want_str(nf_entry)?, nf_entry.val_pos)?,
        (None, Some(chain_entry)) => parse_chain(chain_entry)?,
        (None, None) => return Err(missing(t, "tenant", "nf")),
    };
    let pool = match t.get("pool") {
        Some(e) => {
            Some(PoolSpec::from_name(want_str(e)?).map_err(|m| SpecError::new(e.val_pos, m))?)
        }
        None => None,
    };
    let cores_entry = required(t, "tenant", "cores")?;
    let cores = match &cores_entry.val {
        Value::Ints(list) => {
            let mut cores = Vec::with_capacity(list.len());
            for &(v, pos) in list {
                if !(0..=i128::from(u16::MAX)).contains(&v) {
                    return Err(SpecError::new(
                        pos,
                        format!("core {v} out of range (0..={})", u16::MAX),
                    ));
                }
                cores.push(v as u16);
            }
            cores
        }
        other => {
            return Err(SpecError::new(
                cores_entry.val_pos,
                format!(
                    "key 'cores' expects an integer array, found {}",
                    other.type_name()
                ),
            ));
        }
    };
    let flows = want_u32(required(t, "tenant", "flows")?)?;
    let churn = opt_time(t, "churn")?;
    let train = t.get("train").map_or(Ok(1), want_u32)?;
    let base_port = want_u16(required(t, "tenant", "base_port")?)?;
    let packet_len = want_u16(required(t, "tenant", "packet_len")?)?;
    let dscp = match t.get("dscp") {
        Some(e) => {
            let v = want_uint(e, 255)? as u8;
            Dscp::new(v).ok_or_else(|| {
                SpecError::new(e.val_pos, format!("dscp {v} out of range (0..=63)"))
            })?
        }
        None => Dscp::BEST_EFFORT,
    };
    let traffic = tenant_traffic(t, packet_len)?;
    let mut policy = match t.get("policy") {
        Some(e) => Some(parse_policy_spec(want_str(e)?, e.val_pos)?),
        None => None,
    };
    // `way_mask` / `cat` sugar: fold a CAT partition into the tenant's
    // capability set (the explicit policy if given, the scenario default
    // otherwise).
    let cat_sugar = match (t.get("way_mask"), t.get("cat")) {
        (Some(_), Some(e)) => {
            return Err(SpecError::new(
                e.key_pos,
                "give 'way_mask' or 'cat', not both",
            ));
        }
        (Some(e), None) => {
            let mask = parse_way_mask(want_str(e)?, e.val_pos)?;
            Some((CatMode::Static(mask), e))
        }
        (None, Some(e)) => {
            let v = want_str(e)?;
            if v != "auto" {
                return Err(SpecError::new(
                    e.val_pos,
                    format!("cat '{v}' must be \"auto\" (or use way_mask for a fixed mask)"),
                ));
            }
            Some((CatMode::Auto, e))
        }
        (None, None) => None,
    };
    if let Some((mode, e)) = cat_sugar {
        let base = policy.map_or_else(|| default_policy.caps(), |p| p.caps());
        if base.cat != CatMode::Off {
            return Err(SpecError::new(
                e.key_pos,
                "the tenant's policy already sets a CAT partition",
            ));
        }
        policy = Some(PolicySpec::Custom(PolicyCaps { cat: mode, ..base }));
    }
    let replay = match t.get("replay") {
        Some(e) => Some(replay_reader(want_str(e)?).map_err(|msg| SpecError::new(e.val_pos, msg))?),
        None => None,
    };
    Ok(TenantSpec {
        name,
        nf,
        cores,
        flows,
        churn,
        train,
        base_port,
        traffic,
        packet_len,
        dscp,
        replay,
        policy,
        slo: tenant_slo(t)?,
        pool,
    })
}

fn build_generate(g: &Table) -> Result<GenSpec, SpecError> {
    check_known_keys(g, GEN_KEYS)?;
    let tenants = want_uint(required(g, "[generate]", "tenants")?, usize::MAX as u128)? as usize;
    let mut spec = GenSpec::new(tenants);
    if let Some(e) = g.get("seed") {
        spec.seed = want_u64(e)?;
    }
    if let Some(e) = g.get("cores_per_tenant") {
        spec.cores_per_tenant = want_u16(e)?;
    }
    if let Some(e) = g.get("flows_per_tenant") {
        spec.flows_per_tenant = want_u32(e)?;
    }
    if let Some(e) = g.get("base_port") {
        spec.base_port = want_u16(e)?;
    }
    if let Some(e) = g.get("total_rate_gbps") {
        spec.total_rate_gbps = want_f64(e)?;
    }
    let dist_entry = g.get("rate_dist");
    let dist_name = dist_entry.map(want_str).transpose()?.unwrap_or("zipf");
    spec.rate_dist = match dist_name {
        "uniform" => {
            reject_inapplicable(g, &["zipf_s"], "requires rate_dist = \"zipf\"")?;
            RateDist::Uniform
        }
        "zipf" => RateDist::Zipf {
            s: g.get("zipf_s").map_or(Ok(1.1), want_f64)?,
        },
        other => {
            let e = dist_entry.expect("non-default name comes from an entry");
            return Err(SpecError::new(
                e.val_pos,
                format!("unknown rate_dist '{other}' (expected zipf|uniform)"),
            ));
        }
    };
    if let Some(e) = g.get("app_classes") {
        let mut classes = Vec::new();
        for (s, pos) in want_strs(e)? {
            classes.push(AppClass::from_name(s).ok_or_else(|| {
                SpecError::new(
                    *pos,
                    format!("unknown app class '{s}' (expected kvs|nf-chain|bulk)"),
                )
            })?);
        }
        spec.app_classes = classes;
    }
    if let Some(e) = g.get("attacker_frac") {
        spec.attacker_frac = want_f64(e)?;
    }
    if let Some(e) = g.get("cat") {
        match want_str(e)? {
            "auto" => spec.cat_auto = true,
            "off" => spec.cat_auto = false,
            other => {
                return Err(SpecError::new(
                    e.val_pos,
                    format!("cat '{other}' must be \"auto\" or \"off\""),
                ));
            }
        }
    }
    spec.slo = tenant_slo(g)?;
    Ok(spec)
}

fn build_scenario(raw: &RawFile, replay_reader: ReplayReader<'_>) -> Result<Scenario, SpecError> {
    check_known_keys(&raw.top, TOP_KEYS)?;
    let name = want_str(required(&raw.top, "scenario", "name")?)?.to_string();
    let description = raw
        .top
        .get("description")
        .map(want_str)
        .transpose()?
        .unwrap_or_default()
        .to_string();
    let policy = match raw.top.get("policy") {
        Some(e) => match parse_policy_spec(want_str(e)?, e.val_pos)? {
            PolicySpec::Preset(p) => p,
            PolicySpec::Custom(_) => {
                return Err(SpecError::new(
                    e.val_pos,
                    "the scenario-level policy must be a named preset \
                     (custom capability sets are per-tenant overrides)",
                ));
            }
        },
        None => SteeringPolicy::Idio,
    };
    let steering = match raw.top.get("steering") {
        Some(e) => match want_str(e)? {
            "perfect" => FlowSteering::Perfect,
            "atr" => FlowSteering::Atr,
            other => {
                return Err(SpecError::new(
                    e.val_pos,
                    format!("unknown steering '{other}' (expected perfect|atr)"),
                ));
            }
        },
        None => FlowSteering::Perfect,
    };
    let duration = (opt_time(&raw.top, "duration")?)
        .map_or(SimTime::from_us(400), |d| SimTime::from_ps(d.as_ps()));
    let drain_grace = opt_time(&raw.top, "drain_grace")?.unwrap_or(Duration::from_us(300));
    let perfect_filters = (raw.top.get("perfect_filters"))
        .map(|e| want_uint(e, usize::MAX as u128).map(|v| v as usize))
        .transpose()?;
    let atr_lifetime = opt_time(&raw.top, "atr_lifetime")?;
    let pool_idle_flush = opt_time(&raw.top, "pool_idle_flush")?;
    let antagonist = (raw.top.get("antagonist"))
        .map(want_bool)
        .transpose()?
        .unwrap_or(false);

    let mut scenario = Scenario {
        name,
        description,
        policy,
        steering,
        duration,
        drain_grace,
        perfect_filters,
        atr_lifetime,
        pool_idle_flush,
        antagonist,
        tenants: Vec::new(),
    };

    match (&raw.generate, raw.tenants.is_empty()) {
        (Some(g), true) => {
            let spec = build_generate(g)?;
            spec.check()
                .map_err(|err| SpecError::new(value_pos(g, err.key), err.msg))?;
            scenario = spec
                .expand(scenario)
                .map_err(|e| SpecError::new(g.pos, format!("[generate] expansion failed: {e}")))?;
        }
        (Some(g), false) => {
            return Err(SpecError::new(
                g.pos,
                "a scenario defines either [[tenant]] tables or one [generate] table, not both",
            ));
        }
        (None, _) => {
            let mut seen: Vec<(String, Pos)> = Vec::new();
            for t in &raw.tenants {
                let tenant = build_tenant(t, replay_reader, scenario.policy)?;
                let name_pos = t.get("name").expect("required by build_tenant").val_pos;
                if let Some((_, first)) = seen.iter().find(|(n, _)| *n == tenant.name) {
                    return Err(SpecError::new(
                        name_pos,
                        format!(
                            "duplicate tenant name '{}' (first declared at line {}, column {})",
                            tenant.name, first.0, first.1
                        ),
                    ));
                }
                seen.push((tenant.name.clone(), name_pos));
                scenario.tenants.push(tenant);
            }
        }
    }
    (scenario.check()).map_err(|e| SpecError::new(value_pos(&raw.top, e.key), e.msg))?;
    // The value rules are the configuration's own: check the mixed
    // configuration (moving the tenants in and back, not copying their
    // replays) and point at the value of the key each error names.
    let mut mixed = scenario.base_config();
    mixed.tenants = std::mem::take(&mut scenario.tenants);
    let checked = mixed.check_values();
    scenario.tenants = mixed.tenants;
    if let Err((tenant, err)) = checked {
        let table =
            (tenant.and_then(|i| raw.tenants.get(i).or(raw.generate.as_ref()))).unwrap_or(&raw.top);
        return Err(SpecError::new(value_pos(table, err.key), err.msg));
    }
    Ok(scenario)
}

// ---------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------

/// Parses a scenario from source text.
///
/// A `[generate]` section is expanded into its full tenant list (see
/// [`crate::gen::GenSpec`]). Tenants with `replay` keys are rejected here
/// — sidecar trace files need a directory to resolve against, so replay
/// scenarios must go through [`load_path`].
///
/// # Errors
///
/// Returns a [`SpecError`] naming the line and column of the first
/// offending token.
pub fn parse_str(src: &str) -> Result<Scenario, SpecError> {
    parse_with_replays(src, &|_| {
        Err("replay traces need a file context (load the scenario from a path)".into())
    })
}

/// Parses a scenario from source text, resolving `replay` paths with
/// `replay_reader`.
pub(crate) fn parse_with_replays(
    src: &str,
    replay_reader: ReplayReader<'_>,
) -> Result<Scenario, SpecError> {
    build_scenario(&lex(src)?, replay_reader)
}

/// Reads and parses a scenario file, resolving `replay` trace paths
/// relative to the file's directory.
///
/// # Errors
///
/// Returns a [`SpecError`]; unreadable files produce a position-free
/// error, non-UTF-8 content is reported at the line/column of the first
/// invalid byte, and everything else behaves like [`parse_str`].
pub fn load_path(path: impl AsRef<Path>) -> Result<Scenario, SpecError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path)
        .map_err(|e| SpecError::no_pos(format!("cannot read '{}': {e}", path.display())))?;
    let src = match String::from_utf8(bytes) {
        Ok(s) => s,
        Err(e) => {
            let valid = &e.as_bytes()[..e.utf8_error().valid_up_to()];
            let line = valid.iter().filter(|&&b| b == b'\n').count() as u32 + 1;
            let col = valid.iter().rev().take_while(|&&b| b != b'\n').count() as u32 + 1;
            return Err(SpecError::new((line, col), "file is not valid UTF-8"));
        }
    };
    let dir = path.parent().unwrap_or(Path::new(""));
    parse_with_replays(&src, &|rel| {
        let path = dir.join(rel);
        let bytes = std::fs::read(&path)
            .map_err(|err| format!("cannot read replay trace '{}': {err}", path.display()))?;
        parse_trace(path.display(), &bytes)
    })
}

/// Renders a time key in the coarsest unit that loses nothing: `_ns` when
/// the value is a whole number of nanoseconds, `_ps` otherwise.
fn fmt_time(out: &mut String, base: &str, ps: u64) {
    use std::fmt::Write as _;
    if ps.is_multiple_of(1_000) {
        let _ = writeln!(out, "{base}_ns = {}", ps / 1_000);
    } else {
        let _ = writeln!(out, "{base}_ps = {ps}");
    }
}

/// Renders `scenario` in the canonical file form, such that
/// `parse_str(to_file_string(s))` reproduces `s` exactly for scenarios
/// without replay tenants.
///
/// Replay tenants are rendered with a `replay = "traces/<tenant>.trace"`
/// reference; the caller is responsible for writing the sidecar trace
/// (via [`idio_core::net::trace::write_trace`]) when shipping the file.
pub fn to_file_string(scenario: &Scenario) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "# idio-scenario file (TOML subset; see DESIGN.md)");
    let _ = writeln!(w, "name = {}", json::string(&scenario.name));
    let _ = writeln!(w, "description = {}", json::string(&scenario.description));
    let _ = writeln!(
        w,
        "policy = {}",
        json::string(&policy_file_name(PolicySpec::Preset(scenario.policy)))
    );
    let steering = match scenario.steering {
        FlowSteering::Perfect => "perfect",
        FlowSteering::Atr => "atr",
    };
    let _ = writeln!(w, "steering = {}", json::string(steering));
    fmt_time(w, "duration", scenario.duration.as_ps());
    fmt_time(w, "drain_grace", scenario.drain_grace.as_ps());
    if let Some(v) = scenario.perfect_filters {
        let _ = writeln!(w, "perfect_filters = {v}");
    }
    if let Some(d) = scenario.atr_lifetime {
        fmt_time(w, "atr_lifetime", d.as_ps());
    }
    if let Some(d) = scenario.pool_idle_flush {
        fmt_time(w, "pool_idle_flush", d.as_ps());
    }
    if scenario.antagonist {
        let _ = writeln!(w, "antagonist = true");
    }
    for t in &scenario.tenants {
        let _ = writeln!(w);
        let _ = writeln!(w, "[[tenant]]");
        let _ = writeln!(w, "name = {}", json::string(&t.name));
        match t.nf {
            NfKind::Chain(c) => {
                let stages: Vec<String> =
                    c.stages().iter().map(|s| json::string(s.name())).collect();
                let _ = writeln!(w, "chain = [{}]", stages.join(", "));
            }
            other => {
                let name = other.file_name().expect("only a chain has no file name");
                let _ = writeln!(w, "nf = {}", json::string(name));
            }
        }
        if let Some(pool) = t.pool {
            let _ = writeln!(w, "pool = {}", json::string(&pool.file_name()));
        }
        let cores: Vec<String> = t.cores.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(w, "cores = [{}]", cores.join(", "));
        let _ = writeln!(w, "flows = {}", t.flows);
        if let Some(d) = t.churn {
            fmt_time(w, "churn", d.as_ps());
        }
        if t.train != 1 {
            let _ = writeln!(w, "train = {}", t.train);
        }
        let _ = writeln!(w, "base_port = {}", t.base_port);
        let _ = writeln!(w, "packet_len = {}", t.packet_len);
        let _ = writeln!(w, "dscp = {}", t.dscp.get());
        match t.traffic {
            TrafficPattern::Steady { rate_gbps } => {
                let _ = writeln!(w, "traffic = \"steady\"");
                let _ = writeln!(w, "rate_gbps = {}", json::float(rate_gbps));
            }
            TrafficPattern::Poisson { rate_gbps, seed } => {
                let _ = writeln!(w, "traffic = \"poisson\"");
                let _ = writeln!(w, "rate_gbps = {}", json::float(rate_gbps));
                let _ = writeln!(w, "seed = {seed}");
            }
            TrafficPattern::Bursty(spec) => {
                let _ = writeln!(w, "traffic = \"bursty\"");
                let _ = writeln!(w, "burst_packets = {}", spec.packets_per_burst);
                fmt_time(w, "burst_period", spec.period.as_ps());
                fmt_time(w, "burst_gap", spec.intra_gap.as_ps());
            }
        }
        if let Some(p) = t.policy {
            let _ = writeln!(w, "policy = {}", json::string(&policy_file_name(p)));
        }
        if let Some(slo) = t.slo {
            if let Some(v) = slo.max_p99_ns {
                let _ = writeln!(w, "max_p99_ns = {v}");
            }
            if let Some(v) = slo.max_drop_rate {
                let _ = writeln!(w, "max_drop_rate = {}", json::float(v));
            }
        }
        if t.replay.is_some() {
            let _ = writeln!(
                w,
                "replay = {}",
                json::string(&format!("traces/{}.trace", t.name))
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use idio_core::net::gen::MAX_FLOW_SET_FLOWS;
    use idio_core::net::packet::MIN_FRAME_BYTES;
    use idio_engine::check::{Cases, Gen};

    const MINIMAL: &str = r#"
# smallest useful scenario
name = "mini"
description = "one tenant"

[[tenant]]
name = "a"
nf = "touch-drop"
cores = [0, 1]
flows = 4
base_port = 5_000
packet_len = 0x200
traffic = "steady"
rate_gbps = 10.0
"#;

    #[test]
    fn parses_a_minimal_scenario_with_defaults() {
        let sc = parse_str(MINIMAL).unwrap();
        assert_eq!(sc.name, "mini");
        assert_eq!(sc.description, "one tenant");
        assert_eq!(sc.policy, SteeringPolicy::Idio, "default policy");
        assert_eq!(sc.steering, FlowSteering::Perfect, "default steering");
        assert_eq!(sc.duration, SimTime::from_us(400), "default horizon");
        assert_eq!(sc.drain_grace, Duration::from_us(300));
        assert_eq!(sc.tenants.len(), 1);
        let t = &sc.tenants[0];
        assert_eq!(t.cores, vec![0, 1]);
        assert_eq!(t.base_port, 5000, "underscore separators accepted");
        assert_eq!(t.packet_len, 0x200, "hex integers accepted");
        assert_eq!(t.traffic, TrafficPattern::Steady { rate_gbps: 10.0 });
        assert_eq!(t.dscp, Dscp::BEST_EFFORT);
        assert!(t.policy.is_none() && t.slo.is_none() && t.replay.is_none());
        assert!(!sc.antagonist, "no antagonist by default");
        sc.validate().unwrap();
    }

    #[test]
    fn full_surface_parses() {
        let src = r#"
name = "full"
description = "every optional key"
policy = "static"
steering = "atr"
duration_us = 120
drain_grace_ns = 5000
antagonist = true

[[tenant]]
name = "poisson"
nf = "deep-fwd"
cores = [0]
flows = 2
base_port = 5000
packet_len = 256
dscp = 8
traffic = "poisson"
rate_gbps = 3.5
seed = 18446744073709551615
policy = "custom(inval=1,prefetch=dynamic,dram=0,tune=1)"
max_p99_ns = 1000000

[[tenant]]
name = "bursty"
nf = "l2fwd"
cores = [1]
flows = 1
base_port = 6000
packet_len = 1514
traffic = "bursty"
burst_packets = 16
burst_period_us = 50
burst_gap_ns = 200
policy = "ddio"
max_drop_rate = 0.25
"#;
        let sc = parse_str(src).unwrap();
        assert_eq!(sc.policy, SteeringPolicy::StaticIdio);
        assert_eq!(sc.steering, FlowSteering::Atr);
        assert_eq!(sc.duration, SimTime::from_us(120));
        assert_eq!(sc.drain_grace, Duration::from_ns(5000));
        assert!(sc.antagonist);
        let p = &sc.tenants[0];
        assert_eq!(
            p.traffic,
            TrafficPattern::Poisson {
                rate_gbps: 3.5,
                seed: u64::MAX
            },
            "u64-range seeds survive"
        );
        assert_eq!(
            p.policy,
            Some(PolicySpec::Custom(PolicyCaps {
                invalidate: true,
                prefetch: PrefetchMode::Dynamic,
                direct_dram: false,
                tune_ddio_ways: true,
                cat: CatMode::Off,
            }))
        );
        assert_eq!(p.slo.unwrap().max_p99_ns, Some(1_000_000));
        assert_eq!(p.dscp.get(), 8);
        let b = &sc.tenants[1];
        assert_eq!(
            b.traffic,
            TrafficPattern::Bursty(BurstSpec {
                period: Duration::from_us(50),
                packets_per_burst: 16,
                intra_gap: Duration::from_ns(200),
            })
        );
        assert_eq!(b.policy, Some(PolicySpec::Preset(SteeringPolicy::Ddio)));
        assert_eq!(b.slo.unwrap().max_drop_rate, Some(0.25));
    }

    #[track_caller]
    fn err_at(src: &str, line: u32, col: u32, needle: &str) {
        let e = parse_str(src).unwrap_err();
        assert_eq!((e.line, e.col), (line, col), "{e}");
        assert!(e.msg.contains(needle), "'{}' missing '{needle}'", e.msg);
    }

    #[test]
    fn errors_carry_line_and_column() {
        err_at("name = \"x\"\nbogus = 1\n", 2, 1, "unknown key 'bogus'");
        err_at("name = \"x\"\nname = \"y\"\n", 2, 1, "duplicate key 'name'");
        err_at("name \"x\"\n", 1, 6, "expected '='");
        err_at("name = \"x\n", 1, 8, "unterminated string");
        err_at(
            "name = \"x\"\nduration_us = [1, \"a\"]\n",
            2,
            19,
            "mixed array",
        );
        err_at("name = \"x\" trailing\n", 1, 12, "unexpected characters");
        err_at("name = \"x\"\n[what]\n", 2, 1, "unknown table");
        err_at("name = \"x\"\n[[tenant\n", 2, 1, "truncated table header");
        err_at(
            "name = \"x\"\npolicy = \"warp\"\n",
            2,
            10,
            "unknown policy 'warp'",
        );
        err_at(
            "name = \"x\"\nduration_us = 12q\n",
            2,
            15,
            "invalid number '12q'",
        );
        err_at("name = 7\n", 1, 8, "expects a string, found integer");
        err_at(
            "name = \"x\"\nantagonist = 1\n",
            2,
            14,
            "key 'antagonist' expects a boolean, found integer",
        );
        err_at("name = \"\"\n", 1, 8, "scenario name must not be empty");
        err_at("name = \"x\"\n", 1, 1, "scenario has no tenants");
        err_at(
            "name = \"x\"\n[[tenant]]\nname = \"t\"\nnf = \"warp\"\n",
            4,
            6,
            "unknown nf 'warp' (expected touch-drop|l2fwd|l2fwd-payload-drop|\
             touch-drop-copy|deep-fwd)",
        );
        // Missing required keys anchor at the owning table's header.
        err_at("description = \"x\"\n", 1, 1, "missing required key 'name'");
        err_at(
            "name = \"x\"\n\n[[tenant]]\nname = \"t\"\n",
            3,
            1,
            "missing required key 'nf'",
        );
    }

    #[test]
    fn horizon_and_slo_value_rules_are_positioned() {
        let tenant = "[[tenant]]\nname = \"t\"\nnf = \"l2fwd\"\ncores = [0]\nflows = 1\n\
                      base_port = 1000\npacket_len = 256\ntraffic = \"steady\"\nrate_gbps = 1.0\n";
        let zero = format!("name = \"x\"\nduration_us = 0\n{tenant}");
        err_at(&zero, 2, 15, "duration must be positive");
        let slo = format!("name = \"x\"\n{tenant}max_drop_rate = -0.5\n");
        err_at(&slo, 11, 17, "max_drop_rate -0.5 out of range (0.0..=1.0)");
        err_at(
            "name = \"x\"\n[generate]\ntenants = 2\nmax_drop_rate = 2\n",
            4,
            17,
            "max_drop_rate 2 out of range (0.0..=1.0)",
        );
    }

    #[test]
    fn schema_cross_checks_are_positioned() {
        let tenant = |extra: &str| {
            format!(
                "name = \"x\"\n[[tenant]]\nname = \"t\"\nnf = \"l2fwd\"\ncores = [0]\n\
                 flows = 1\nbase_port = 1000\npacket_len = 256\n{extra}"
            )
        };
        // seed without poisson: error at the seed key.
        let e =
            parse_str(&tenant("traffic = \"steady\"\nrate_gbps = 1.0\nseed = 3\n")).unwrap_err();
        assert_eq!((e.line, e.col), (11, 1), "{e}");
        assert!(e.msg.contains("requires traffic = \"poisson\""));
        // both rate and gap on bursty.
        let e = parse_str(&tenant(
            "traffic = \"bursty\"\nburst_packets = 4\nburst_period_us = 10\n\
             rate_gbps = 1.0\nburst_gap_ns = 50\n",
        ))
        .unwrap_err();
        assert!(e.msg.contains("not both"), "{e}");
        // burst that overflows its period.
        let e = parse_str(&tenant(
            "traffic = \"bursty\"\nburst_packets = 1000\nburst_period_us = 1\nburst_gap_ns = 5000\n",
        ))
        .unwrap_err();
        assert!(e.msg.contains("does not fit"), "{e}");
        // A span past u64 picoseconds saturates instead of wrapping.
        let e = parse_str(&tenant(
            "traffic = \"bursty\"\nburst_packets = 2\nburst_period_us = 10\n\
             burst_gap_ps = 9223372036854775808\n",
        ))
        .unwrap_err();
        assert_eq!((e.line, e.col), (10, 17), "{e}");
        assert!(e.msg.contains("does not fit"), "{e}");
        // rates that are not positive and finite, at the rate's value.
        for (rate, needle) in [
            ("-5.0", "positive finite rate"),
            ("0", "positive finite rate"),
            ("1e999", "positive finite rate"),
            ("nan", "invalid number 'nan'"),
            ("3e7", "rate_gbps 30000000 out of range (0..=1600)"),
            (
                "1600.0000000000002",
                "rate_gbps 1600.0000000000002 out of range (0..=1600)",
            ),
        ] {
            let src = tenant(&format!("traffic = \"steady\"\nrate_gbps = {rate}\n"));
            let e = parse_str(&src).unwrap_err();
            assert_eq!((e.line, e.col), (10, 13), "{e}");
            assert!(e.msg.contains(needle), "{rate}: {e}");
        }
        // The ceiling itself is a valid rate.
        let ceiling = tenant("traffic = \"steady\"\nrate_gbps = 1600.0\n");
        assert_eq!(parse_str(&ceiling).map(|_| ()), Ok(()));
        // a frame below the Ethernet minimum, and a tenant without cores.
        let steady = "traffic = \"steady\"\nrate_gbps = 1.0\n";
        let e =
            parse_str(&tenant(steady).replace("packet_len = 256", "packet_len = 10")).unwrap_err();
        assert_eq!((e.line, e.col), (8, 14), "{e}");
        assert!(e.msg.contains("below the Ethernet minimum"), "{e}");
        let e = parse_str(&tenant(steady).replace("cores = [0]", "cores = []")).unwrap_err();
        assert_eq!((e.line, e.col), (5, 9), "{e}");
        assert!(e.msg.contains("at least one core"), "{e}");
        // replay needs a file context under parse_str.
        let e = parse_str(&tenant(
            "traffic = \"steady\"\nrate_gbps = 1.0\nreplay = \"t.trace\"\n",
        ))
        .unwrap_err();
        assert!(e.msg.contains("file context"), "{e}");
    }

    #[test]
    fn generate_section_expands_deterministically() {
        let src = r#"
name = "gen"
description = "generated"
policy = "idio"

[generate]
tenants = 6
seed = 42
flows_per_tenant = 2
total_rate_gbps = 12.0
rate_dist = "zipf"
zipf_s = 1.2
app_classes = ["kvs", "bulk"]
attacker_frac = 0.3
"#;
        let a = parse_str(src).unwrap();
        let b = parse_str(src).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.tenants.len(), 6);
        a.validate().unwrap();
        assert!(a
            .tenants
            .iter()
            .all(|t| t.name.contains("kvs") || t.name.contains("bulk")));
    }

    #[test]
    fn generate_and_tenant_tables_conflict() {
        let src = "name = \"x\"\n[[tenant]]\nname = \"t\"\nnf = \"l2fwd\"\ncores = [0]\n\
                   flows = 1\nbase_port = 1000\npacket_len = 256\ntraffic = \"steady\"\n\
                   rate_gbps = 1.0\n\n[generate]\ntenants = 4\n";
        let e = parse_str(src).unwrap_err();
        assert_eq!((e.line, e.col), (12, 1), "{e}");
        assert!(e.msg.contains("not both"));
    }

    // ----- round-trip property -------------------------------------

    fn arbitrary_name(g: &mut Gen, prefix: &str, i: usize) -> String {
        const PALETTE: [char; 12] = [
            'a', 'Z', '0', '-', '_', ' ', '"', '\\', '\u{b5}', '\t', '#', '=',
        ];
        let chars: String = g.vec(0..6, |g| *g.choose(&PALETTE)).into_iter().collect();
        format!("{prefix}{i}{chars}")
    }

    fn arbitrary_policy(g: &mut Gen) -> PolicySpec {
        if g.bool() {
            PolicySpec::Preset(*g.choose(&SteeringPolicy::EXTENDED))
        } else {
            PolicySpec::Custom(PolicyCaps {
                invalidate: g.bool(),
                prefetch: *g.choose(&[
                    PrefetchMode::Off,
                    PrefetchMode::Always,
                    PrefetchMode::Dynamic,
                ]),
                direct_dram: g.bool(),
                tune_ddio_ways: g.bool(),
                cat: arbitrary_cat(g),
            })
        }
    }

    /// CAT modes whose static masks are valid against the paper geometry
    /// (inside the 12 ways, clear of the 2 DDIO ways), so rendered specs
    /// always parse back.
    fn arbitrary_cat(g: &mut Gen) -> CatMode {
        match g.usize(0..3) {
            0 => CatMode::Off,
            1 => CatMode::Auto,
            _ => {
                let lo = g.usize(2..11);
                let hi = g.usize(lo + 1..13);
                CatMode::Static(WayMask::range(lo, hi))
            }
        }
    }

    fn arbitrary_scenario(g: &mut Gen) -> Scenario {
        let n = g.usize(1..5);
        let tenants = (0..n)
            .map(|i| {
                let packet_len = g.u16(MIN_FRAME_BYTES..1515);
                let traffic = match g.usize(0..3) {
                    0 => TrafficPattern::Steady {
                        rate_gbps: g.unit_f64() * 99.0 + 0.01,
                    },
                    1 => TrafficPattern::Poisson {
                        rate_gbps: g.unit_f64() * 99.0 + 0.01,
                        seed: g.u64(0..u64::MAX),
                    },
                    _ => {
                        let packets = g.u32(1..64);
                        // Ps-precision draws exercise both serializer
                        // branches (`_ns` for whole nanoseconds, `_ps`
                        // otherwise).
                        let gap = Duration::from_ps(g.u64(1..1_000_000));
                        let period =
                            gap * u64::from(packets) + Duration::from_ps(g.u64(1..10_000_000));
                        TrafficPattern::Bursty(BurstSpec {
                            period,
                            packets_per_burst: packets,
                            intra_gap: gap,
                        })
                    }
                };
                let mut t = TenantSpec::new(
                    arbitrary_name(g, "t", i),
                    *g.choose(&[
                        NfKind::TouchDrop,
                        NfKind::L2Fwd,
                        NfKind::L2FwdPayloadDrop,
                        NfKind::TouchDropCopy,
                        NfKind::DeepFwd,
                    ]),
                    g.vec(1..4, |g| g.u16(0..u16::MAX)),
                    // Mostly narrow counts, sometimes past the port space
                    // (a wide flow set) to exercise both derivations.
                    if g.bool() {
                        u32::from(g.u16(1..200))
                    } else {
                        g.u32(1..MAX_FLOW_SET_FLOWS)
                    },
                    g.u16(0..60_000),
                    traffic,
                    packet_len,
                );
                if g.bool() {
                    t = t.with_churn(Duration::from_ps(g.u64(1..10_000_000_000)));
                }
                if g.bool() {
                    t = t.with_train(g.u32(2..64));
                }
                t.dscp = Dscp::new(g.u16(0..64) as u8).expect("in range");
                if g.bool() {
                    t = t.with_policy(arbitrary_policy(g));
                }
                if g.bool() {
                    // Always bounded: an all-None SloSpec has no file form.
                    let p99 = g.bool().then(|| g.u64(1..u64::MAX));
                    let drop = (p99.is_none() || g.bool()).then(|| g.unit_f64());
                    t = t.with_slo(SloSpec {
                        max_p99_ns: p99,
                        max_drop_rate: drop,
                    });
                }
                t
            })
            .collect();
        Scenario {
            name: arbitrary_name(g, "s", 0),
            description: arbitrary_name(g, "d", 0),
            policy: *g.choose(&SteeringPolicy::EXTENDED),
            steering: *g.choose(&[FlowSteering::Perfect, FlowSteering::Atr]),
            duration: SimTime::from_ps(g.u64(1..10_000_000_000)),
            drain_grace: Duration::from_ps(g.u64(0..10_000_000_000)),
            perfect_filters: g.bool().then(|| g.usize(1..1 << 20)),
            atr_lifetime: g
                .bool()
                .then(|| Duration::from_ps(g.u64(1..10_000_000_000))),
            pool_idle_flush: g
                .bool()
                .then(|| Duration::from_ps(g.u64(1..10_000_000_000))),
            antagonist: g.bool(),
            tenants,
        }
    }

    /// `Scenario::validate` checks only the mixed configuration: a solo
    /// configuration holds one of its tenants on the same hierarchy, so it
    /// must be valid whenever the mixed one is.
    #[test]
    fn a_valid_mixed_config_implies_valid_solo_configs() {
        let mut valid = 0;
        Cases::new(300).run(|g| {
            let sc = arbitrary_scenario(g);
            if sc.mixed_config().validate().is_ok() {
                valid += 1;
                for i in 0..sc.tenants.len() {
                    let solo = sc.solo_config(i).validate();
                    assert!(solo.is_ok(), "solo {i}: {solo:?}\n{sc:?}");
                }
            }
        });
        assert!(valid > 0, "some arbitrary scenarios are valid");
    }

    #[test]
    fn arbitrary_scenarios_round_trip_byte_identically() {
        Cases::new(300).run(|g| {
            let sc = arbitrary_scenario(g);
            let text = to_file_string(&sc);
            let parsed = parse_str(&text)
                .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n--- file\n{text}"));
            assert_eq!(parsed, sc, "--- file\n{text}");
            // Canonical form is a fixed point of serialize ∘ parse.
            assert_eq!(to_file_string(&parsed), text);
        });
    }
}
