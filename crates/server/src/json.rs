//! A minimal JSON value, parser, and serializer.
//!
//! The service protocol needs exactly flat request objects and structured
//! responses, so this is a small recursive-descent parser over UTF-8 bytes
//! with a hard nesting limit, not a general-purpose library. Numbers are
//! kept as `f64` (every protocol field fits losslessly: weights and step
//! counts stay below 2⁵³). Duplicate object keys keep the last value, like
//! most JSON decoders.
//!
//! Parsing is one linear pass. Strings in particular are copied run by
//! run: everything up to the next `"`, `\` or control byte moves as one
//! slice, so a megabyte body or a thousands-entry replication digest
//! costs time proportional to its length.

use std::fmt::Write as _;

/// Maximum nesting depth accepted by [`parse`] — far above anything the
/// protocol produces, low enough that hostile input cannot overflow the
/// parse stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (integers up to 2⁵³ round-trip exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize to compact JSON text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Build a [`Json::Obj`] from key/value pairs.
pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A [`Json::Str`].
pub fn s(text: impl Into<String>) -> Json {
    Json::Str(text.into())
}

/// A [`Json::Num`] from an integer.
pub fn n(value: u64) -> Json {
    Json::Num(value as f64)
}

fn write_escaped(out: &mut String, text: &str) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("nesting too deep".to_string());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, ":")?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {pos}", pos = *pos)),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        // Surrogates are replaced rather than paired; the
                        // protocol never emits them.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".to_string()),
                }
                *pos += 1;
            }
            Some(&c) if c < 0x20 => return Err("control character in string".to_string()),
            Some(_) => {
                // Copy the whole run up to the next delimiter as one slice.
                // Delimiters are ASCII, and ASCII bytes never occur inside
                // a multibyte UTF-8 sequence, so the run ends on a char
                // boundary and validating it alone is linear overall.
                let run = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                    .map_or(bytes.len(), |len| *pos + len);
                let text = std::str::from_utf8(&bytes[*pos..run]).map_err(|_| "invalid UTF-8")?;
                out.push_str(text);
                *pos = run;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "invalid UTF-8")?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{text}`"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shapes() {
        let v = parse(r#"{"psi": "A & B", "timeout_ms": 250, "weights": [1, 2.5], "deep": {"x": null, "y": [true, false]}}"#).unwrap();
        assert_eq!(v.get("psi").unwrap().as_str(), Some("A & B"));
        assert_eq!(v.get("timeout_ms").unwrap().as_u64(), Some(250));
        let weights = v.get("weights").unwrap().as_array().unwrap();
        assert_eq!(weights[0].as_u64(), Some(1));
        assert_eq!(weights[1].as_u64(), None); // 2.5 is not an integer
        assert_eq!(v.get("deep").unwrap().get("x"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            r#"{"a"}"#,
            r#"{"a":}"#,
            "nul",
            "tru",
            "01a",
            "\"\\q\"",
            "\"unterminated",
            "{\"a\":1} trailing",
            "[1 2]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(10) + &"]".repeat(10);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn roundtrips_with_escaping() {
        let v = obj([
            ("msg", s("line\none \"two\"\t\\")),
            ("n", n(42)),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        let text = v.to_text();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains("\\n"));
        assert!(text.contains("\\\""));
    }

    #[test]
    fn malformed_strings_keep_their_errors() {
        for (bad, expected) in [
            ("\"unterminated", "unterminated string"),
            ("\"abc\\q\"", "bad escape"),
            ("\"\\u12zz\"", "bad \\u escape"),
            ("\"\\u12\"", "truncated \\u escape"),
            ("\"tab\there\"", "control character in string"),
            ("\"caf\u{e9}\nx\"", "control character in string"),
            ("{\"a\u{e9}\":1", "expected `,` or `}` at byte 8"),
            ("[\"\u{1F600}\" 1]", "expected `,` or `]` at byte 8"),
        ] {
            assert_eq!(parse(bad), Err(expected.to_string()), "input {bad:?}");
        }
    }

    /// Parse `text` on a helper thread and fail if it takes longer than
    /// `limit` — a quadratic scan of a megabyte takes minutes.
    fn parse_within(text: String, limit: std::time::Duration) -> Json {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(parse(&text));
        });
        rx.recv_timeout(limit)
            .expect("parse did not finish in time: string scanning is not linear")
            .expect("document should parse")
    }

    #[test]
    fn megabyte_string_parses_in_linear_time() {
        // Every escape, ASCII runs and 2-, 3- and 4-byte UTF-8 scalars.
        let chunk = "plain ASCII text, caf\u{e9} \u{3b1}\u{3b2} \u{20ac}\u{2192} \u{1F600} \"q\" \\ / \n\r\t\u{8}\u{c}\u{1}\u{1f} ";
        let mut value = String::new();
        while value.len() < 1 << 20 {
            value.push_str(chunk);
        }
        let mut text = Json::Str(value.clone()).to_text();
        // `to_text` writes only the escapes it needs; splice in `\/`,
        // `\b`, `\f` and `\u` forms of printable characters too.
        text.insert_str(1, "\\/\\b\\f\\u0041\\u00e9\\u20ac");
        let expected = format!("/\u{8}\u{c}A\u{e9}\u{20ac}{value}");
        let got = parse_within(text, std::time::Duration::from_secs(10));
        assert_eq!(got.as_str(), Some(expected.as_str()));
    }

    #[test]
    fn large_digest_parses_in_linear_time() {
        // The shape of `GET /v1/kbs`, which anti-entropy and shard
        // rebalancing parse on every round.
        let kbs: Vec<Json> = (0..5000u64)
            .map(|i| {
                obj([
                    ("name", s(format!("kb-{i:05}-\u{3bc}\u{3c8}"))),
                    ("seq", n(i * 7)),
                    (
                        "hash",
                        s(format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15))),
                    ),
                    ("epoch", n(3)),
                ])
            })
            .collect();
        let doc = obj([("kbs", Json::Arr(kbs)), ("node_epoch", n(3))]);
        let got = parse_within(doc.to_text(), std::time::Duration::from_secs(10));
        assert_eq!(got, doc);
    }

    #[test]
    fn last_duplicate_key_wins() {
        let v = parse(r#"{"a": 1, "a": 2}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(2));
    }
}
