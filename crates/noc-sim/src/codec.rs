//! The workspace's one text codec: the JSON lexer and parser, the
//! string/number writers and the FNV-1a content hash. It lives here, at
//! the bottom of the crate graph, so every format above — run records,
//! cache cells, search records, trained-model checkpoints, fault plans
//! and simulator snapshots — reads through the same code.
//!
//! One lexer, two value trees. [`Json`] keeps every number as its lexeme
//! so `u64` seeds and shortest-round-trip floats survive exactly; the
//! record-shaped documents use it. Simulator snapshots are hundreds of
//! kilobytes of unsigned integers, where a `String` per number more than
//! doubles parse time and allocation, so they (and the fault plans they
//! embed) use the integer-only tree in `faults::json`. Both trees are
//! built by the one recursive-descent walk in `parse`; a tree only says
//! how to make its nodes (the `Tree` trait).
//!
//! Inside a snapshot, each checkpoint hook's state (an arbiter's pointers,
//! a traffic source's RNG, a learned policy's networks) is one JSON string
//! that [`Words`] writes and [`WordReader`] reads back.

use std::fmt::Write as _;

/// 64-bit FNV-1a over raw bytes: the content hash behind every recipe,
/// spec, fault-plan, cell and snapshot key in the workspace.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Quotes and escapes a string for JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out
}

/// Formats a finite f64 so it parses back to the same bits (`{:?}` is
/// Rust's shortest round-trip float form); non-finite values become null.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A JSON value whose numbers keep their lexeme.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its lexeme so integers survive exactly.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax problem.
    pub fn parse(text: &str) -> Result<Json, String> {
        parse(text)
    }

    /// The fields of an object.
    ///
    /// # Errors
    ///
    /// Names the value found instead.
    pub fn as_object(&self) -> Result<&Vec<(String, Json)>, String> {
        match self {
            Json::Obj(m) => Ok(m),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    /// The items of an array.
    ///
    /// # Errors
    ///
    /// Names the value found instead.
    pub fn as_array(&self) -> Result<&Vec<Json>, String> {
        match self {
            Json::Arr(a) => Ok(a),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    /// A copy of a string value.
    ///
    /// # Errors
    ///
    /// Names the value found instead.
    pub fn as_str(&self) -> Result<String, String> {
        match self {
            Json::Str(s) => Ok(s.clone()),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// A number as an exact `u64`.
    ///
    /// # Errors
    ///
    /// Rejects non-numbers and lexemes that are not a `u64`.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Num(n) => n.parse().map_err(|_| format!("expected u64, got {n}")),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// A number as an `f64`; `null` (what [`json_num`] writes for a
    /// non-finite value) reads back as NaN.
    ///
    /// # Errors
    ///
    /// Rejects every other value.
    pub fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Num(n) => n.parse().map_err(|_| format!("bad number {n}")),
            Json::Null => Ok(f64::NAN),
            other => Err(format!("expected number, got {other:?}")),
        }
    }
}

/// Field lookup on an object's insertion-ordered pairs.
pub trait ObjExt {
    /// Looks up `key`, returning the first match.
    fn get(&self, key: &str) -> Option<&Json>;
}

impl ObjExt for Vec<(String, Json)> {
    fn get(&self, key: &str) -> Option<&Json> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// How a value tree makes its nodes; [`parse`] does the walking.
pub(crate) trait Tree: Sized {
    fn obj(fields: Vec<(String, Self)>) -> Self;
    fn arr(items: Vec<Self>) -> Self;
    fn str(s: String) -> Self;
    /// A number, from its lexeme.
    fn num(lexeme: &str) -> Result<Self, String>;
    /// `true` / `false`, or `null` as `None`.
    fn lit(v: Option<bool>) -> Result<Self, String>;
}

impl Tree for Json {
    fn obj(fields: Vec<(String, Self)>) -> Self {
        Json::Obj(fields)
    }
    fn arr(items: Vec<Self>) -> Self {
        Json::Arr(items)
    }
    fn str(s: String) -> Self {
        Json::Str(s)
    }
    fn num(lexeme: &str) -> Result<Self, String> {
        lexeme
            .parse::<f64>()
            .map_err(|_| format!("bad number '{lexeme}'"))?;
        Ok(Json::Num(lexeme.to_string()))
    }
    fn lit(v: Option<bool>) -> Result<Self, String> {
        Ok(v.map_or(Json::Null, Json::Bool))
    }
}

/// Parses one whole document into the tree `T`.
pub(crate) fn parse<T: Tree>(text: &str) -> Result<T, String> {
    let mut pos = 0;
    let v = value(text, &mut pos)?;
    skip_ws(text.as_bytes(), &mut pos);
    if pos != text.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// After a value inside `{}` or `[]`: consumes `,` (more follow, `true`)
/// or `close` (`false`).
fn more(b: &[u8], pos: &mut usize, close: u8) -> Result<bool, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b',') => {
            *pos += 1;
            Ok(true)
        }
        Some(c) if *c == close => {
            *pos += 1;
            Ok(false)
        }
        _ => Err(format!(
            "expected ',' or '{}' at byte {}",
            close as char, *pos
        )),
    }
}

fn value<T: Tree>(text: &str, pos: &mut usize) -> Result<T, String> {
    let b = text.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(T::obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = string(text, pos)?;
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {}", *pos));
                }
                *pos += 1;
                fields.push((key, value(text, pos)?));
                if !more(b, pos, b'}')? {
                    return Ok(T::obj(fields));
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(T::arr(items));
            }
            loop {
                items.push(value(text, pos)?);
                if !more(b, pos, b']')? {
                    return Ok(T::arr(items));
                }
            }
        }
        Some(b'"') => Ok(T::str(string(text, pos)?)),
        Some(b't') => literal(b, pos, "true").and_then(|()| T::lit(Some(true))),
        Some(b'f') => literal(b, pos, "false").and_then(|()| T::lit(Some(false))),
        Some(b'n') => literal(b, pos, "null").and_then(|()| T::lit(None)),
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            if start == *pos {
                return Err(format!("unexpected byte at {start}"));
            }
            T::num(&text[start..*pos])
        }
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

/// A quoted string, escapes decoded. Runs between quotes and backslashes
/// (both ASCII, so never inside a multi-byte scalar) are copied whole.
fn string(text: &str, pos: &mut usize) -> Result<String, String> {
    let b = text.as_bytes();
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let start = *pos;
        while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(&text[start..*pos]);
        if *pos >= b.len() {
            return Err("unterminated string".into());
        }
        *pos += 1;
        if b[*pos - 1] == b'"' {
            return Ok(out);
        }
        match b.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let hex = text.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                *pos += 4;
            }
            _ => return Err(format!("bad escape at byte {}", *pos)),
        }
        *pos += 1;
    }
}

/// The writer of a checkpoint hook's state: space-separated unsigned
/// decimal words, read back by [`WordReader`]. Floats are written as their
/// IEEE-754 bits and every list starts with its length, so the text is
/// escape-free and has no grammar beyond "the next word".
///
/// ```
/// use noc_sim::codec::Words;
/// let state = Words::default().u64(7).len(1).f64(0.5).finish();
/// let mut r = Words::read("example", &state);
/// assert_eq!((r.u64("counter"), r.len("list", 1)), (Ok(7), Ok(1)));
/// assert_eq!(r.f64("item"), Ok(0.5));
/// assert!(r.end().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct Words(String);

impl Words {
    /// Appends one word.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        if !self.0.is_empty() {
            self.0.push(' ');
        }
        let _ = write!(self.0, "{v}");
        self
    }

    /// Appends a float as its bits.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Appends the length of the list that follows.
    pub fn len(&mut self, n: usize) -> &mut Self {
        self.u64(n as u64)
    }

    /// The state written so far, leaving the writer empty.
    pub fn finish(&mut self) -> String {
        std::mem::take(&mut self.0)
    }

    /// A reader over `state` whose errors name `hook`.
    pub fn read<'a>(hook: &'a str, state: &'a str) -> WordReader<'a> {
        let left = state.split(' ').count() - usize::from(state.is_empty());
        let words = state.split(' ');
        WordReader {
            hook,
            words,
            at: 0,
            left,
        }
    }
}

/// Reads a [`Words`] state back, one typed word at a time. Each read
/// takes a name for the word, and every error names the hook, the index
/// of the word at fault and what was wrong with it.
#[derive(Debug)]
pub struct WordReader<'a> {
    hook: &'a str,
    words: std::str::Split<'a, char>,
    /// Words taken, counting a read past the end.
    at: usize,
    /// Words not taken yet.
    left: usize,
}

impl WordReader<'_> {
    /// An error about the word taken last.
    pub fn fail(&self, msg: impl std::fmt::Display) -> String {
        format!("{} state word {}: {msg}", self.hook, self.at - 1)
    }

    /// The next word as a `u64`; `Err` if the state has ended or the word
    /// is not a decimal `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        self.at += 1;
        if self.left == 0 {
            return Err(self.fail(format_args!("{what} missing")));
        }
        self.left -= 1;
        let word = self.words.next().unwrap_or_default();
        match word.parse() {
            Ok(v) if word.bytes().all(|b| b.is_ascii_digit()) => Ok(v),
            _ => Err(self.fail(format_args!("{what} {word:?} is not a u64"))),
        }
    }

    /// The next word as float bits.
    pub fn f64(&mut self, what: &str) -> Result<f64, String> {
        self.u64(what).map(f64::from_bits)
    }

    /// The next word as an index; `Err` unless it is below `limit`.
    pub fn index(&mut self, what: &str, limit: usize) -> Result<usize, String> {
        match self.u64(what)? {
            v if v < limit as u64 => Ok(v as usize),
            v => Err(self.fail(format_args!("{what} {v} is not below {limit}"))),
        }
    }

    /// The next word as the length of a list whose items take at least
    /// `words_each` (at least 1) words each; `Err`, before the caller can
    /// allocate for it, if the words left cannot hold the list.
    pub fn len(&mut self, what: &str, words_each: usize) -> Result<usize, String> {
        let n = self.u64(what)?;
        match n.checked_mul(words_each.max(1) as u64) {
            Some(words) if words <= self.left as u64 => Ok(n as usize),
            _ => Err(self.fail(format_args!(
                "{what} {n} runs past the {} words left",
                self.left
            ))),
        }
    }

    /// `Err` naming the first word left unread, if any.
    pub fn end(mut self) -> Result<(), String> {
        self.at += 1;
        match self.left {
            0 => Ok(()),
            n => Err(self.fail(format_args!("{n} words left unread"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hash_matches_the_published_fnv_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn strings_round_trip_through_the_writer_and_the_lexer() {
        let s = "quote \" backslash \\ newline \n tab \t bell \u{7} é ✓";
        assert_eq!(Json::parse(&json_str(s)).unwrap(), Json::Str(s.into()));
        assert_eq!(
            Json::parse(r#""\u00e9\/\b\f""#).unwrap(),
            Json::Str("é/\u{8}\u{c}".into())
        );
    }

    #[test]
    fn numbers_keep_their_lexeme_and_literals_parse() {
        let v = Json::parse(" [18446744073709551615, -1.5e3, true, false, null] ").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64().unwrap(), u64::MAX);
        assert_eq!(items[1].as_f64().unwrap(), -1500.0);
        assert_eq!(
            items[2..],
            [Json::Bool(true), Json::Bool(false), Json::Null]
        );
        assert!(items[4].as_f64().unwrap().is_nan());
        assert_eq!(json_num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn malformed_documents_are_structured_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\": }",
            "{} x",
            "\"abc",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\ud800\"",
            "tru",
            "nul",
            "-",
            "1e",
            "--1",
            "{1: 2}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn words_round_trip_and_errors_name_the_hook_and_the_word() {
        let mut w = Words::default();
        let state = w.u64(u64::MAX).f64(-0.0).len(1).u64(3).finish();
        assert_eq!(state, "18446744073709551615 9223372036854775808 1 3");
        let mut r = Words::read("t", &state);
        assert_eq!(r.u64("a"), Ok(u64::MAX));
        assert_eq!(r.f64("b").map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!((r.len("l", 1), r.index("i", 4)), (Ok(1), Ok(3)));
        assert!(r.end().is_ok() && Words::read("t", "").end().is_ok());

        type Read = fn(&mut WordReader<'_>) -> Result<usize, String>;
        let err = |state: &str, read: Read| read(&mut Words::read("t", state)).unwrap_err();
        let last_of_two: Read = |r| r.index("a", 9).and(r.index("b", 9));
        assert_eq!(
            err("1 x", last_of_two),
            "t state word 1: b \"x\" is not a u64"
        );
        assert_eq!(
            err("4", |r| r.index("i", 4)),
            "t state word 0: i 4 is not below 4"
        );
        assert_eq!(err("", |r| r.index("i", 1)), "t state word 0: i missing");
        let past = "t state word 0: l 3 runs past the 2 words left";
        assert_eq!(err("3 0 0", |r| r.len("l", 1)), past);
        let past = format!("t state word 0: l {} runs past the 1 words left", u64::MAX);
        assert_eq!(err(&format!("{} 0", u64::MAX), |r| r.len("l", 2)), past);
        let mut r = Words::read("t", "1 2");
        assert_eq!(r.u64("a"), Ok(1));
        assert_eq!(r.end().unwrap_err(), "t state word 1: 1 words left unread");
        for bad in ["+1", "-1", " 1", "1.0", "0x1", "18446744073709551616"] {
            assert!(Words::read("t", bad).u64("a").is_err(), "{bad:?}");
        }
    }
}
