//! String escaping and a minimal parser for the workspace's hand-rolled
//! JSON surfaces.
//!
//! The workspace emits JSON with `format!` rather than a serializer (the
//! vendored `serde` is a marker-trait stand-in), so every string that can
//! carry attacker-influenced bytes — template names from the operator DSL,
//! addresses, drop reasons — must be escaped at the emission site. This
//! module is the single shared implementation.
//!
//! The [`parse`] half reads those surfaces back — `snids analyze --json`
//! output and the benchmark's result lines — into a [`Value`] tree. It is
//! a bounded recursive-descent parser — depth- and
//! input-limited, total over hostile bytes (it returns `None`, never
//! panics) — and keeps numbers as their raw source text so `u64` counters
//! round-trip without `f64` precision loss.

/// Escape `s` for inclusion inside a JSON string literal (the surrounding
/// quotes are the caller's job). Handles `"`, `\`, and all control bytes
/// below 0x20 (`\n`/`\r`/`\t` as short escapes, the rest as `\u00XX`).
/// Non-ASCII is passed through unescaped: the output is UTF-8 and valid
/// JSON either way.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(s, &mut out);
    out
}

/// [`escape`] appending into an existing buffer.
pub fn escape_into(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Nesting depth past which [`parse`] gives up — far beyond anything the
/// workspace emits, small enough that hostile input cannot blow the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Numbers keep their raw source text
/// ([`Value::as_u64`] / [`Value::as_f64`] convert on demand), and objects
/// preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object member lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `u64`, if it parses exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }
}

/// Parse one JSON document. Returns `None` on any syntax error, trailing
/// garbage, or nesting deeper than 64 levels; never panics.
pub fn parse(input: &str) -> Option<Value> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(value)
    } else {
        None
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Option<()> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Some(())
    } else {
        None
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    if depth > MAX_DEPTH {
        return None;
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos)? {
        b'{' => parse_object(bytes, pos, depth),
        b'[' => parse_array(bytes, pos, depth),
        b'"' => parse_string(bytes, pos).map(Value::Str),
        b't' => parse_literal(bytes, pos, b"true", Value::Bool(true)),
        b'f' => parse_literal(bytes, pos, b"false", Value::Bool(false)),
        b'n' => parse_literal(bytes, pos, b"null", Value::Null),
        _ => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &[u8], value: Value) -> Option<Value> {
    if bytes.get(*pos..*pos + word.len()) == Some(word) {
        *pos += word.len();
        Some(value)
    } else {
        None
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits_start = *pos;
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    if *pos == digits_start {
        return None;
    }
    let raw = std::str::from_utf8(bytes.get(start..*pos)?).ok()?;
    // Validate by parsing; keep the raw text for lossless integers.
    raw.parse::<f64>().ok().filter(|n| n.is_finite())?;
    Some(Value::Num(raw.to_string()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        // Surrogates map to the replacement character; the
                        // workspace never emits them.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (multi-byte sequences pass
                // through unvalidated bytes; re-check at the end).
                let rest = std::str::from_utf8(bytes.get(*pos..)?).ok()?;
                let ch = rest.chars().next()?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Some(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Option<Value> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Some(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(Value::Obj(members));
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_strings_pass_through() {
        assert_eq!(escape("sled-decode"), "sled-decode");
        assert_eq!(escape("10.0.0.1:80"), "10.0.0.1:80");
    }

    #[test]
    fn quotes_backslashes_and_controls_escape() {
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape("\u{1}\u{1f}"), "\\u0001\\u001f");
    }

    #[test]
    fn non_ascii_passes_through_as_utf8() {
        assert_eq!(escape("šablóna-π"), "šablóna-π");
    }

    #[test]
    fn parser_reads_the_workspace_shapes() {
        let doc = parse(
            "{\"stats\":{\"packets\":18446744073709551615,\"ok\":true},\"alerts\":[1,2.5,null,\"x\"]}",
        )
        .expect("valid document");
        // Full-range u64 counters survive (no f64 round-trip).
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("packets"))
                .and_then(Value::as_u64),
            Some(u64::MAX)
        );
        assert_eq!(
            doc.get("stats")
                .and_then(|s| s.get("ok"))
                .and_then(Value::as_bool),
            Some(true)
        );
        let alerts = doc.get("alerts").and_then(Value::as_arr).expect("array");
        assert_eq!(alerts.len(), 4);
        assert_eq!(alerts[1].as_f64(), Some(2.5));
        assert_eq!(alerts[2], Value::Null);
        assert_eq!(alerts[3].as_str(), Some("x"));
    }

    #[test]
    fn parser_round_trips_escaped_strings() {
        let hostile = "a\"b\\c\nd\t\u{1}é";
        let doc = parse(&format!("{{\"k\":\"{}\"}}", escape(hostile))).expect("valid");
        assert_eq!(doc.get("k").and_then(Value::as_str), Some(hostile));
    }

    #[test]
    fn parser_is_total_over_hostile_bytes() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "tru",
            "1e",
            "\"unterminated",
            "{\"a\":1}trailing",
            "nan",
            "1e999",
        ] {
            assert_eq!(parse(bad), None, "accepted {bad:?}");
        }
        // Depth bomb: refused, not a stack overflow.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert_eq!(parse(&deep), None);
        // ... but reasonable nesting is fine.
        assert!(parse("[[[[[[[[1]]]]]]]]").is_some());
    }

    #[test]
    fn escaped_output_is_valid_inside_a_json_string() {
        // Every escaped string, wrapped in quotes, must contain no raw
        // quote, backslash-without-escape, or control byte.
        let hostile = "x\"\\\u{0}\u{7}\nénd";
        let escaped = escape(hostile);
        assert!(!escaped.bytes().any(|b| b < 0x20));
        // Raw quotes only appear escaped.
        let mut prev_backslash = false;
        for ch in escaped.chars() {
            if ch == '"' {
                assert!(prev_backslash, "unescaped quote in {escaped:?}");
            }
            prev_backslash = ch == '\\' && !prev_backslash;
        }
    }
}
