//! The one reader and the one writer of every JSON file the harness
//! touches: a [`Json`] value, its serializer ([`Json::line`],
//! [`Json::document`]), a bounds-checked parser ([`parse`]) that answers
//! malformed text with a typed [`ParseError`], and [`compare`], the check
//! behind `report check`.
//!
//! `BENCH_report.json` at the repository root is the committed record: what
//! the deterministic simulator determines (the `fidelity`, `search` and
//! `pipeline` entries, exact on any host) under one `provenance` stamp. It
//! holds no wall-clock number — host time is `benchmark/`'s to record.
//! `report record` writes it, `report check` recomputes the entries and
//! names the first field that differs. The files under `target/`
//! (`report.json`, `profile.json`, `model.json`) go through the same
//! serializer.

use std::fmt::Write as _;

/// A JSON value. Integers and floats are kept apart so that counts compare
/// exactly; object members keep the order they were written in.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what a non-finite float is written as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent that fits an `i64`.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, members in document order.
    Object(Vec<(String, Json)>),
}

/// `object! { "key": value, ... }`: a [`Json::Object`] whose values are
/// anything `Json::from` takes.
#[macro_export]
macro_rules! object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::record::Json::Object(vec![
            $(($key.to_string(), $crate::record::Json::from($value))),*
        ])
    };
}

macro_rules! json_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        })*
    };
}

json_from! {
    bool => |v| Json::Bool(v),
    i64 => |v| Json::Int(v),
    // Counts; one that overflows `i64` has no exact form here and is a bug.
    u64 => |v| Json::Int(i64::try_from(v).expect("count fits i64")),
    usize => |v| Json::from(v as u64),
    f64 => |v| Json::Float(v),
    &str => |v| Json::Str(v.to_string()),
    &String => |v| Json::Str(v.clone()),
    String => |v| Json::Str(v),
    Vec<Json> => |v| Json::Array(v),
}

impl Json {
    /// Member `key` of an object (`None` for a missing key or a non-object).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array (empty for a non-array).
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            _ => &[],
        }
    }

    /// A number of either kind as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::Int(v) => Some(v as f64),
            Json::Float(v) => Some(v),
            _ => None,
        }
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value on one line: `, ` between elements, `: ` after a key.
    pub fn line(&self) -> String {
        let mut out = String::new();
        self.write_line(&mut out);
        out
    }

    fn write_line(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            // Rust's shortest round-trip form: no exponent, `-0` for -0.0,
            // every digit of a float above 2^53. JSON has no non-finite
            // number.
            Json::Float(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.write_line(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    write_string(key, out);
                    out.push_str(": ");
                    value.write_line(out);
                }
                out.push('}');
            }
        }
    }

    /// The value as a file: a top-level array or object has one member per
    /// line, and an object's non-empty array members one element per line
    /// below that; everything deeper is [`Json::line`]. No trailing newline.
    pub fn document(&self) -> String {
        fn broken(out: &mut String, open: char, close: char, indent: &str, lines: Vec<String>) {
            out.push(open);
            for (i, line) in lines.iter().enumerate() {
                let _ = write!(out, "{}\n{indent}  {line}", if i > 0 { "," } else { "" });
            }
            let _ = write!(out, "\n{indent}{close}");
        }
        let mut out = String::new();
        match self {
            Json::Array(items) => {
                broken(&mut out, '[', ']', "", items.iter().map(Json::line).collect());
            }
            Json::Object(members) => {
                let member = |(key, value): &(String, Json)| {
                    let mut line = String::new();
                    write_string(key, &mut line);
                    line.push_str(": ");
                    match value {
                        Json::Array(items) if !items.is_empty() => {
                            let items = items.iter().map(Json::line).collect();
                            broken(&mut line, '[', ']', "  ", items);
                        }
                        other => other.write_line(&mut line),
                    }
                    line
                };
                broken(&mut out, '{', '}', "", members.iter().map(member).collect());
            }
            scalar => scalar.write_line(&mut out),
        }
        out
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// What [`parse`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The text ended inside a value.
    UnexpectedEnd,
    /// A byte that cannot start or continue the value being read.
    UnexpectedByte(u8),
    /// A number token that is not a JSON number.
    BadNumber,
    /// An escape that is not one of JSON's, or a `\u` that names no `char`.
    BadEscape,
    /// A string holding a raw control byte or invalid UTF-8.
    BadString,
    /// Containers nested deeper than [`MAX_DEPTH`].
    TooDeep,
    /// Bytes other than white space after the value.
    TrailingBytes,
}

/// A [`parse`] failure and the byte offset it was found at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Offset into the input.
    pub at: usize,
    /// What was wrong there.
    pub kind: ParseErrorKind,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "not JSON at byte {}: {:?}", self.at, self.kind)
    }
}

impl std::error::Error for ParseError {}

/// Deepest container nesting [`parse`] follows (the record's is four).
pub const MAX_DEPTH: usize = 32;

/// Parse one JSON value spanning the whole of `text`. The committed record
/// is outside input: any byte string ends in a value or a [`ParseError`].
pub fn parse(text: &[u8]) -> Result<Json, ParseError> {
    let mut p = Parser { text, at: 0 };
    let value = p.value(0)?;
    p.skip_space();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.error(ParseErrorKind::TrailingBytes)),
    }
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, kind: ParseErrorKind) -> ParseError {
        ParseError { at: self.at, kind }
    }

    fn peek(&self) -> Option<u8> {
        self.text.get(self.at).copied()
    }

    /// The next byte, consumed; the end of the text is an error.
    fn next(&mut self) -> Result<u8, ParseError> {
        let b = self.peek().ok_or_else(|| self.error(ParseErrorKind::UnexpectedEnd))?;
        self.at += 1;
        Ok(b)
    }

    fn skip_space(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Consume `want` after optional white space, or say what was there.
    fn expect(&mut self, want: u8) -> Result<(), ParseError> {
        self.skip_space();
        match self.next()? {
            b if b == want => Ok(()),
            b => {
                self.at -= 1;
                Err(self.error(ParseErrorKind::UnexpectedByte(b)))
            }
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error(ParseErrorKind::TooDeep));
        }
        self.skip_space();
        match self.next()? {
            b'{' => self
                .container(b'}', |p| {
                    p.expect(b'"')?;
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Object),
            b'[' => self.container(b']', |p| p.value(depth + 1)).map(Json::Array),
            b'"' => self.string().map(Json::Str),
            b't' => self.word(b"rue", Json::Bool(true)),
            b'f' => self.word(b"alse", Json::Bool(false)),
            b'n' => self.word(b"ull", Json::Null),
            b'-' | b'0'..=b'9' => {
                self.at -= 1;
                self.number()
            }
            b => {
                self.at -= 1;
                Err(self.error(ParseErrorKind::UnexpectedByte(b)))
            }
        }
    }

    /// The comma-separated members of a container whose opener is consumed.
    fn container<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        let mut members = Vec::new();
        self.skip_space();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(members);
        }
        loop {
            members.push(member(self)?);
            self.skip_space();
            match self.next()? {
                b',' => {}
                b if b == close => return Ok(members),
                b => {
                    self.at -= 1;
                    return Err(self.error(ParseErrorKind::UnexpectedByte(b)));
                }
            }
        }
    }

    fn word(&mut self, rest: &[u8], value: Json) -> Result<Json, ParseError> {
        for &want in rest {
            match self.next()? {
                b if b == want => {}
                b => {
                    self.at -= 1;
                    return Err(self.error(ParseErrorKind::UnexpectedByte(b)));
                }
            }
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.at;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.at += 1;
        }
        // The token is ASCII by construction.
        let token = std::str::from_utf8(&self.text[start..self.at]).expect("ascii number token");
        let digits = token.strip_prefix('-').unwrap_or(token);
        let value = if digits.bytes().all(|b| b.is_ascii_digit()) {
            // An integer too long for `i64` is still a number.
            token.parse().map(Json::Int).or_else(|_| token.parse().map(Json::Float)).ok()
        } else {
            // Rust reads `1.` and `.5`, JSON does not: a digit on both
            // sides of the point.
            let pointed = digits.split(['e', 'E']).next().unwrap_or(digits);
            let well_formed = pointed.split('.').all(|part| !part.is_empty());
            token.parse().ok().filter(|v: &f64| well_formed && v.is_finite()).map(Json::Float)
        };
        value.ok_or(ParseError { at: start, kind: ParseErrorKind::BadNumber })
    }

    /// The rest of a string whose opening quote is consumed.
    fn string(&mut self) -> Result<String, ParseError> {
        let mut bytes = Vec::new();
        loop {
            match self.next()? {
                b'"' => break,
                b'\\' => {
                    let c = match self.next()? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        _ => {
                            self.at -= 1;
                            return Err(self.error(ParseErrorKind::BadEscape));
                        }
                    };
                    bytes.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b if b < 0x20 => {
                    self.at -= 1;
                    return Err(self.error(ParseErrorKind::BadString));
                }
                b => bytes.push(b),
            }
        }
        String::from_utf8(bytes).map_err(|_| self.error(ParseErrorKind::BadString))
    }

    /// The four hex digits after `\u`. The writer escapes only control
    /// characters, so a surrogate half is refused rather than paired.
    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let start = self.at;
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = (self.next()? as char).to_digit(16);
            code = code * 16
                + digit.ok_or(ParseError { at: start, kind: ParseErrorKind::BadEscape })?;
        }
        char::from_u32(code).ok_or(ParseError { at: start, kind: ParseErrorKind::BadEscape })
    }
}

/// The record's entries: what the simulator determines, so what
/// [`compare`] holds a fresh measurement to.
pub const ENTRIES: [&str; 3] = ["fidelity", "search", "pipeline"];

/// The first place two records differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Path of the field, as in `search.rows[2].search_best_cycles`.
    pub field: String,
    /// What this tree measures there.
    pub fresh: String,
    /// What the committed record says.
    pub committed: String,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Mismatch { field, fresh, committed } = self;
        write!(f, "{field}: this tree measures {fresh}, the committed record says {committed}")
    }
}

/// Hold the [`ENTRIES`] of the committed record to a fresh measurement:
/// counts, strings and flags exactly, floats to 1e-9 relative (the
/// simulated numbers repeat exactly; the slack is for a libm that rounds a
/// last digit differently). The `provenance` stamp is not compared.
pub fn compare(fresh: &Json, committed: &Json) -> Result<(), Mismatch> {
    for entry in ENTRIES {
        let side = |record: &Json| if record.get(entry).is_some() { "an entry" } else { "nothing" };
        match (fresh.get(entry), committed.get(entry)) {
            (Some(a), Some(b)) => same(entry, a, b)?,
            _ => {
                return Err(Mismatch {
                    field: entry.into(),
                    fresh: side(fresh).into(),
                    committed: side(committed).into(),
                })
            }
        }
    }
    Ok(())
}

fn same(path: &str, fresh: &Json, committed: &Json) -> Result<(), Mismatch> {
    let differs =
        || Err(Mismatch { field: path.into(), fresh: fresh.line(), committed: committed.line() });
    match (fresh, committed) {
        (Json::Object(a), Json::Object(b)) => {
            for (key, value) in a {
                let field = format!("{path}.{key}");
                match committed.get(key) {
                    Some(other) => same(&field, value, other)?,
                    None => {
                        return Err(Mismatch {
                            field,
                            fresh: value.line(),
                            committed: "nothing".into(),
                        })
                    }
                }
            }
            match b.iter().find(|(key, _)| fresh.get(key).is_none()) {
                Some((key, value)) => Err(Mismatch {
                    field: format!("{path}.{key}"),
                    fresh: "nothing".into(),
                    committed: value.line(),
                }),
                None => Ok(()),
            }
        }
        (Json::Array(a), Json::Array(b)) => {
            if a.len() != b.len() {
                return Err(Mismatch {
                    field: format!("{path}.len"),
                    fresh: a.len().to_string(),
                    committed: b.len().to_string(),
                });
            }
            a.iter()
                .zip(b)
                .enumerate()
                .try_for_each(|(i, (x, y))| same(&format!("{path}[{i}]"), x, y))
        }
        (Json::Int(a), Json::Int(b)) if a != b => differs(),
        (a, b) => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) if (x - y).abs() <= 1e-9 * y.abs() => Ok(()),
            (None, None) if a == b => Ok(()),
            _ => differs(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str =
        include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json"));

    fn committed() -> Json {
        parse(COMMITTED.as_bytes()).expect("the committed record parses")
    }

    /// A value of every kind, nested the way the record nests.
    fn sample() -> Json {
        object! {
            "null": Json::Null,
            "flags": vec![Json::from(true), Json::from(false)],
            "count": 9_007_199_254_740_993_u64,
            "delta": -260_i64,
            "ratio": 1.3176641665660613,
            "text": "tab\t quote\" slash\\ line\n bell\u{7} 64^3 \u{e9}\u{2192}",
            "empty": vec![],
            "rows": vec![object! { "cell": "a", "gap": 2.5 }, object! {}],
        }
    }

    #[test]
    fn every_kind_of_value_and_every_entry_round_trips() {
        for value in [sample(), committed(), Json::from(vec![sample(), Json::Null])] {
            assert_eq!(parse(value.line().as_bytes()).as_ref(), Ok(&value));
            assert_eq!(parse(value.document().as_bytes()).as_ref(), Ok(&value));
        }
        // The record is written the way it is committed.
        assert_eq!(committed().document() + "\n", COMMITTED);
        let record = committed();
        for entry in ENTRIES.iter().chain(&["provenance"]) {
            assert!(record.get(entry).is_some(), "the record has no {entry}");
        }
    }

    #[test]
    fn every_measured_field_of_the_record_states_its_unit() {
        // `entry.field`, for a field of the entry or of its rows.
        fn fields(entry: &Json) -> Vec<(&String, &Json)> {
            let Json::Object(members) = entry else { return Vec::new() };
            let rows = entry.get("rows").map_or(&[][..], Json::items);
            members.iter().map(|(k, v)| (k, v)).chain(rows.iter().flat_map(fields)).collect()
        }
        let record = committed();
        let units = record.get("provenance").and_then(|p| p.get("units")).expect("units");
        for entry in ENTRIES {
            for (field, value) in fields(record.get(entry).expect("entry")) {
                let measured = matches!(value, Json::Float(_)) || field.ends_with("_cycles");
                let unit = units.get(&format!("{entry}.{field}"));
                assert!(!measured || unit.is_some(), "{entry}.{field} has no unit");
            }
        }
        // And no unit is left naming a field that is gone.
        let Json::Object(units) = units else { panic!("units is an object") };
        for (key, _) in units {
            let (entry, field) = key.split_once('.').expect("entry.field");
            let entry = record.get(entry).unwrap_or_else(|| panic!("{key} names no entry"));
            assert!(fields(entry).iter().any(|(f, _)| *f == field), "{key} names no field");
        }
    }

    #[test]
    fn the_layout_is_the_one_the_target_files_had() {
        let rows =
            Json::from(vec![object! { "figure": "fig9", "x": 2_usize }, object! { "x": 0.5 }]);
        assert_eq!(rows.document(), "[\n  {\"figure\": \"fig9\", \"x\": 2},\n  {\"x\": 0.5}\n]");
        let report = object! { "summary": object! { "rows": 1_usize }, "rows": vec![object! { "ok": true }] };
        assert_eq!(
            report.document(),
            "{\n  \"summary\": {\"rows\": 1},\n  \"rows\": [\n    {\"ok\": true}\n  ]\n}"
        );
    }

    #[test]
    fn numbers_are_written_as_they_always_were() {
        let line = |v: f64| Json::from(v).line();
        assert_eq!(line(-0.0), "-0");
        assert_eq!(line(1.0), "1");
        assert_eq!(line(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(line(9_007_199_254_740_994.0), "9007199254740994");
        assert_eq!(line(1e21), "1000000000000000000000");
        assert_eq!([line(f64::NAN), line(f64::INFINITY), line(f64::NEG_INFINITY)], ["null"; 3]);
        assert_eq!(Json::from(u64::MAX >> 1).line(), "9223372036854775807");
        // And read back: an integer beyond `i64` is a float, not an error.
        assert_eq!(parse(b"9007199254740993"), Ok(Json::Int(9_007_199_254_740_993)));
        assert_eq!(parse(b"1000000000000000000000"), Ok(Json::Float(1e21)));
        assert_eq!(parse(b"-0"), Ok(Json::Int(0)));
        assert_eq!(parse(b"2.5e-3"), Ok(Json::Float(0.0025)));
        for bad in ["1.", ".5", "-", "1e", "--1", "1e999", "0x10"] {
            assert!(parse(bad.as_bytes()).is_err(), "{bad} is not a JSON number");
        }
    }

    #[test]
    fn malformed_text_is_a_typed_error_never_a_panic() {
        for text in [sample().document(), COMMITTED.trim_end().to_string()] {
            let value = parse(text.as_bytes()).expect("valid");
            for cut in 0..text.len() {
                assert!(
                    parse(&text.as_bytes()[..cut]).is_err(),
                    "accepted the prefix of {cut} bytes"
                );
            }
            for at in 0..text.len() {
                let mut flipped = text.clone().into_bytes();
                flipped[at] ^= 0x01;
                // An error or another value. The one flip that can read back
                // the same: a float's seventeenth digit, where two decimal
                // spellings name one double.
                let unseen = parse(&flipped).as_ref() == Ok(&value);
                assert!(!unseen || flipped[at].is_ascii_digit(), "a flip at byte {at} went unseen");
            }
        }
        let error = |text: &str| parse(text.as_bytes()).unwrap_err();
        assert_eq!(
            error("[1, ]"),
            ParseError { at: 4, kind: ParseErrorKind::UnexpectedByte(b']') }
        );
        assert_eq!(
            error("{\"a\": 1} x"),
            ParseError { at: 9, kind: ParseErrorKind::TrailingBytes }
        );
        assert_eq!(error("\"\\q\"").kind, ParseErrorKind::BadEscape);
        assert_eq!(error("\"\\ud800\"").kind, ParseErrorKind::BadEscape);
        assert_eq!(error("\"a\nb\"").kind, ParseErrorKind::BadString);
        assert_eq!(parse(b"\"\xff\"").unwrap_err().kind, ParseErrorKind::BadString);
        assert_eq!(error("tru").kind, ParseErrorKind::UnexpectedEnd);
        assert_eq!(error(&"[".repeat(MAX_DEPTH + 2)).kind, ParseErrorKind::TooDeep);
    }

    /// The committed record with the value at `path` replaced.
    fn tampered(path: &[&str], with: impl Fn(&Json) -> Json) -> Json {
        fn walk(value: &mut Json, path: &[&str], with: &dyn Fn(&Json) -> Json) {
            let Some((head, rest)) = path.split_first() else {
                *value = with(value);
                return;
            };
            let child = match value {
                Json::Object(members) => {
                    members.iter_mut().find(|(k, _)| k == head).map(|(_, v)| v)
                }
                Json::Array(items) => items.get_mut(head.parse::<usize>().expect("array index")),
                _ => None,
            };
            walk(child.unwrap_or_else(|| panic!("no {head} in the record")), rest, with);
        }
        let mut record = committed();
        walk(&mut record, path, &with);
        record
    }

    #[test]
    fn compare_names_the_first_field_that_differs() {
        let fresh = committed();
        assert_eq!(compare(&fresh, &committed()), Ok(()));
        let field = |committed: &Json| compare(&fresh, committed).unwrap_err().field;

        // (a) a count that moved by one.
        let cycles = ["search", "rows", "3", "search_best_cycles"];
        let moved = tampered(&cycles, |v| Json::Int(v.as_f64().unwrap() as i64 + 1));
        assert_eq!(field(&moved), "search.rows[3].search_best_cycles");
        // (b) a ratio 1e-6 away; a last digit of another libm is accepted.
        let speedup = ["fidelity", "rows", "0", "speedup"];
        let scaled = |by: f64| tampered(&speedup, move |v| Json::Float(v.as_f64().unwrap() * by));
        assert_eq!(field(&scaled(1.0 + 1e-6)), "fidelity.rows[0].speedup");
        assert_eq!(compare(&fresh, &scaled(1.0 + f64::EPSILON)), Ok(()));
        // (c) an entry, a row or a field that is not there, on either side.
        let Json::Object(members) = committed() else { panic!("the record is an object") };
        let without = Json::Object(members.into_iter().filter(|(k, _)| k != "pipeline").collect());
        assert_eq!(field(&without), "pipeline");
        assert_eq!(compare(&without, &fresh).unwrap_err().field, "pipeline");
        assert_eq!(
            field(&tampered(&["pipeline", "rows"], |_| Json::from(vec![]))),
            "pipeline.rows.len"
        );
        assert_eq!(
            field(&tampered(&["search", "rows", "0"], |_| object! {})),
            "search.rows[0].kernel"
        );
        let extra = tampered(&["pipeline"], |p| {
            let Json::Object(mut members) = p.clone() else { panic!("an object") };
            members.push(("seconds".into(), Json::from(1.5)));
            Json::Object(members)
        });
        assert_eq!(field(&extra), "pipeline.seconds");
        // A flag or a string is held exactly; the provenance is not held.
        assert_eq!(field(&tampered(&["search", "win"], |_| Json::from(false))), "search.win");
        assert_eq!(
            field(&tampered(&["pipeline", "arch"], |_| Json::from("H100"))),
            "pipeline.arch"
        );
        assert_eq!(
            compare(&fresh, &tampered(&["provenance", "sha"], |_| Json::from("0000000"))),
            Ok(())
        );
        let message = compare(&fresh, &moved).unwrap_err().to_string();
        assert!(
            message.starts_with("search.rows[3].search_best_cycles: this tree measures "),
            "{message}"
        );
    }
}
