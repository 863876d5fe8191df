//! The one JSON codec of `mcm-bench`: a value model, a parser and a
//! writer with two layouts. Every document the crate writes (journal
//! lines, `bench_timings.json`, trace and timeline files) is built as a
//! [`Json`] value and written by [`Json::compact`] or [`Json::pretty`];
//! every document it reads goes through [`Json::parse`].
//! The workspace deliberately has no serde dependency.

use std::fmt::{self, Write as _};

/// A JSON value.
///
/// Numbers keep their raw text so 64-bit counters round-trip exactly
/// (an `f64` intermediate would corrupt counts above 2^53), and so each
/// emitter fixes a number's format once, through a constructor
/// ([`Json::num`], [`Json::secs`], [`Json::ratio`]).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number written as `v` displays (integers: exact).
    pub fn num(v: impl fmt::Display) -> Json {
        Json::Num(v.to_string())
    }

    /// A duration in seconds, to the millisecond (`{:.3}`).
    pub fn secs(v: f64) -> Json {
        Json::Num(format!("{v:.3}"))
    }

    /// A ratio to six decimals (`{:.6}`); `None` and non-finite values
    /// are `null`.
    pub fn ratio(v: Option<f64>) -> Json {
        match v {
            Some(v) if v.is_finite() => Json::Num(format!("{v:.6}")),
            _ => Json::Null,
        }
    }

    /// A number, or `null` for `None`.
    pub fn opt(v: Option<impl fmt::Display>) -> Json {
        v.map_or(Json::Null, Json::num)
    }

    /// A string.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An array of numbers.
    pub fn nums<T: fmt::Display>(vs: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(vs.into_iter().map(Json::num).collect())
    }

    /// An object from `(key, value)` pairs, in order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Parses one JSON document (the whole string must be consumed).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            b: s.as_bytes(),
            i: 0,
        };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// One line with no spaces: `{"k":v,"a":[1,2]}`.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, None);
        out
    }

    /// Containers nested shallower than `break_depth` put one element per
    /// line with a two-space indent; deeper ones stay inline, separated by
    /// `", "` and `": "`. Ends with a newline.
    pub fn pretty(&self, break_depth: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, Some(break_depth));
        out.push('\n');
        out
    }

    /// Writes the value nested at `depth`; `pretty` is the break depth,
    /// `None` for the compact layout.
    fn write(&self, out: &mut String, depth: usize, pretty: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, depth, pretty, ('[', ']'), items, |out, v| {
                v.write(out, depth + 1, pretty);
            }),
            Json::Obj(fields) => {
                write_seq(out, depth, pretty, ('{', '}'), fields, |out, (k, v)| {
                    write_str(out, k);
                    out.push_str(if pretty.is_some() { ": " } else { ":" });
                    v.write(out, depth + 1, pretty);
                })
            }
        }
    }

    /// Object field lookup (`None` for non-objects or absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object fields, if it is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }
}

/// Writes `items` between `open` and `close`: one per line when `depth`
/// is shallower than the break depth, inline otherwise.
fn write_seq<T>(
    out: &mut String,
    depth: usize,
    pretty: Option<usize>,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    out.push(open);
    let broken = pretty.is_some_and(|b| depth < b) && !items.is_empty();
    for (i, x) in items.iter().enumerate() {
        if broken {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            push_indent(out, depth + 1);
        } else if i > 0 {
            out.push_str(if pretty.is_some() { ", " } else { "," });
        }
        item(out, x);
    }
    if broken {
        out.push('\n');
        push_indent(out, depth);
    }
    out.push(close);
}

fn push_indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
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
}

/// Escapes a string for embedding in a JSON document (quotes excluded).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

struct JsonParser<'a> {
    b: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'{') => self.obj(),
            Some(b'[') => self.arr(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.num(),
            Some(c) => Err(format!(
                "unexpected byte {:?} at offset {}",
                *c as char, self.i
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn num(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        let raw = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| format!("non-utf8 number at offset {start}"))?;
        // Validate it is a number at all; the raw text is what we keep.
        raw.parse::<f64>()
            .map_err(|_| format!("bad number {raw:?} at offset {start}"))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.i += 1; // opening quote
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at offset {}", self.i))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at offset {}", self.i))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("bad codepoint \\u{hex}"))?,
                            );
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (multi-byte sequences pass
                    // through unchanged).
                    let rest = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| format!("non-utf8 string at offset {}", self.i))?;
                    let c = rest
                        .chars()
                        .next()
                        .ok_or_else(|| format!("unterminated string at offset {}", self.i))?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn arr(&mut self) -> Result<Json, String> {
        self.i += 1; // [
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn obj(&mut self) -> Result<Json, String> {
        self.i += 1; // {
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            if self.b.get(self.i) != Some(&b'"') {
                return Err(format!("expected object key at offset {}", self.i));
            }
            let key = self.string()?;
            self.ws();
            if self.b.get(self.i) != Some(&b':') {
                return Err(format!("expected ':' at offset {}", self.i));
            }
            self.i += 1;
            self.ws();
            let v = self.value()?;
            out.push((key, v));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parser_handles_documents() {
        let j = Json::parse(
            r#"{"a": 1, "b": [true, null, "x\n\"y\""], "c": {"d": 18446744073709551615}}"#,
        )
        .expect("parse");
        assert_eq!(j.get("a").and_then(Json::as_u64), Some(1));
        let b = j.get("b").and_then(Json::as_arr).expect("arr");
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[1], Json::Null);
        assert_eq!(b[2].as_str(), Some("x\n\"y\""));
        // u64::MAX survives (an f64 intermediate would round it).
        assert_eq!(
            j.get("c").and_then(|c| c.get("d")).and_then(Json::as_u64),
            Some(u64::MAX)
        );
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let doc = format!("\"{}\"", json_escape(nasty));
        assert_eq!(Json::parse(&doc).expect("parse").as_str(), Some(nasty));
    }

    #[test]
    fn writer_layouts() {
        let doc = Json::obj([
            ("n", Json::num(7)),
            ("s", Json::str("a\"b")),
            ("t", Json::secs(1.25)),
            ("r", Json::ratio(None)),
            (
                "rows",
                Json::Arr(vec![Json::obj([("a", Json::nums([1, 2]))])]),
            ),
            ("empty", Json::Arr(Vec::new())),
        ]);
        let compact = doc.compact();
        assert_eq!(
            compact,
            r#"{"n":7,"s":"a\"b","t":1.250,"r":null,"rows":[{"a":[1,2]}],"empty":[]}"#
        );
        assert_eq!(
            doc.pretty(2),
            "{\n  \"n\": 7,\n  \"s\": \"a\\\"b\",\n  \"t\": 1.250,\n  \"r\": null,\n  \
             \"rows\": [\n    {\"a\": [1, 2]}\n  ],\n  \"empty\": []\n}\n"
        );
        assert_eq!(Json::parse(&compact).expect("parse"), doc);
        assert_eq!(Json::parse(&doc.pretty(0)).expect("parse"), doc);
    }
}
