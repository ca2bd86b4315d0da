//! Minimal JSON tree: an order-preserving builder/writer and a strict
//! recursive-descent parser.
//!
//! The workspace is dependency-free by design (no `serde`), yet the
//! telemetry plane needs machine-readable exports *and* a way to read
//! them back (`fgqos-tool telemetry` diffs two snapshot files). This
//! module is the shared substrate: snapshots, Chrome traces and the
//! `BENCH_*.json` perf artifacts are all emitted through [`JsonValue`]
//! instead of hand-rolled `format!` strings.

/// A JSON document node.
///
/// Integers keep full `u64` precision (a counter does not fit `f64`);
/// [`JsonValue::Fixed`] renders a float with a fixed decimal count for
/// stable, readable perf artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer, full precision.
    Int(u64),
    /// Float, shortest-roundtrip rendering.
    Float(f64),
    /// Float rendered with exactly `.1` decimals.
    Fixed(f64, u8),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<JsonValue>),
    /// Object with preserved key order.
    Obj(JsonObj),
}

impl JsonValue {
    /// The integer value, if this node is an integer.
    #[must_use]
    pub fn as_int(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this node is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this node is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// The object, if this node is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&JsonObj> {
        match self {
            JsonValue::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Render compactly (no whitespace).
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Render pretty-printed with two-space indentation and a trailing
    /// newline (the house style of the `BENCH_*.json` artifacts).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(n) => out.push_str(&n.to_string()),
            JsonValue::Float(f) => write_float(out, *f),
            JsonValue::Fixed(f, p) => {
                if f.is_finite() {
                    out.push_str(&format!("{f:.prec$}", prec = *p as usize));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Obj(obj) => {
                if obj.entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in obj.entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(w) = indent {
        out.push('\n');
        for _ in 0..w * depth {
            out.push(' ');
        }
    }
}

fn write_float(out: &mut String, f: f64) {
    if f.is_finite() {
        let s = f.to_string();
        out.push_str(&s);
        // `1.0f64.to_string()` is "1": still valid JSON number.
    } else {
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An object with insertion-ordered keys and a chaining builder API.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObj {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObj {
    /// Empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObj::default()
    }

    /// Append (or replace) a key.
    #[must_use]
    pub fn set(mut self, key: &str, value: JsonValue) -> Self {
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| k == key) {
            e.1 = value;
        } else {
            self.entries.push((key.to_string(), value));
        }
        self
    }

    /// Append a string field.
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        self.set(key, JsonValue::Str(value.to_string()))
    }

    /// Append an integer field.
    #[must_use]
    pub fn int(self, key: &str, value: u64) -> Self {
        self.set(key, JsonValue::Int(value))
    }

    /// Append a fixed-precision float field.
    #[must_use]
    pub fn fixed(self, key: &str, value: f64, decimals: u8) -> Self {
        self.set(key, JsonValue::Fixed(value, decimals))
    }

    /// Append a boolean field.
    #[must_use]
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.set(key, JsonValue::Bool(value))
    }

    /// Append a nested object field.
    #[must_use]
    pub fn obj(self, key: &str, value: JsonObj) -> Self {
        self.set(key, JsonValue::Obj(value))
    }

    /// Append an array field.
    #[must_use]
    pub fn arr(self, key: &str, items: Vec<JsonValue>) -> Self {
        self.set(key, JsonValue::Arr(items))
    }

    /// Wrap into a [`JsonValue`].
    #[must_use]
    pub fn build(self) -> JsonValue {
        JsonValue::Obj(self)
    }

    /// Look up a key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Key/value pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &JsonValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the object has no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Deepest array/object nesting [`parse`] accepts. Documents the
/// workspace writes (snapshots, Chrome traces) nest a handful of levels;
/// the cap keeps hostile input from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document.
///
/// # Errors
/// Returns a message with a byte offset on malformed input, trailing
/// garbage, or nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if b == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        let mut float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            float = true; // telemetry never emits negative ints
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes, then decode it as UTF-8.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("invalid utf-8 in string at byte {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            // Surrogate pairs are not emitted by this
                            // workspace; reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| format!("unpaired surrogate \\u{code:04x}"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut obj = JsonObj::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(obj));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            obj = obj.set(&key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(obj));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let doc = JsonObj::new()
            .str("name", "a \"quoted\"\npath\\x")
            .int("count", u64::MAX)
            .fixed("ratio", 1.5, 3)
            .bool("ok", true)
            .set("nothing", JsonValue::Null)
            .arr(
                "items",
                vec![
                    JsonValue::Int(1),
                    JsonValue::Float(2.5),
                    JsonValue::Arr(vec![]),
                ],
            )
            .obj("nested", JsonObj::new().int("x", 7))
            .build();
        for text in [doc.compact(), doc.pretty()] {
            let back = parse(&text).expect("parse");
            let obj = back.as_obj().expect("obj");
            assert_eq!(obj.get("count").and_then(JsonValue::as_int), Some(u64::MAX));
            assert_eq!(
                obj.get("name").and_then(JsonValue::as_str),
                Some("a \"quoted\"\npath\\x")
            );
            assert_eq!(obj.get("ratio"), Some(&JsonValue::Float(1.5)));
            assert_eq!(obj.get("nothing"), Some(&JsonValue::Null));
            assert_eq!(
                obj.get("items").and_then(JsonValue::as_arr).map(<[_]>::len),
                Some(3)
            );
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("01x").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        // The cap itself is reachable, one level past it is not.
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn integer_precision_preserved() {
        let v = parse(&u64::MAX.to_string()).expect("parse");
        assert_eq!(v, JsonValue::Int(u64::MAX));
        assert_eq!(parse("-3").expect("parse"), JsonValue::Float(-3.0));
    }

    #[test]
    fn set_replaces_existing_key() {
        let o = JsonObj::new().int("a", 1).int("a", 2);
        assert_eq!(o.get("a"), Some(&JsonValue::Int(2)));
        assert_eq!(o.len(), 1);
    }
}
