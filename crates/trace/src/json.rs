//! The one JSON value, writer and reader behind every document the
//! workspace writes: the committed `*_1.json` / `*_2.json` reports, the
//! flight recorder's span export and the SLO report the façade serves.
//!
//! Objects keep insertion order and [`Json::render`] has one layout, so a
//! report is byte-identical whenever its values are. Integers are exact
//! (`u64` / `i64`, never squeezed through `f64`); a finite float reads
//! back as the same bits *and* as a float (`3.0`, never `3`); NaN and ±∞,
//! which JSON cannot spell, are written as the strings `"NaN"`, `"inf"`
//! and `"-inf"`. [`Json::parse`] takes untrusted bytes: nesting is bounded
//! by [`MAX_DEPTH`] and every failure is a typed [`ParseError`], never a
//! panic.

use std::fmt::{self, Write as _};

use crate::EXPORT_SCHEMA_VERSION;

/// Deepest container nesting [`Json::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// One JSON value.
#[derive(Clone, Debug)]
pub enum Json {
    Null,
    Bool(bool),
    /// A non-negative integer — the form the reader gives every integer ≥ 0.
    U64(u64),
    /// A negative integer only: `From<i64>` and the reader put every
    /// integer ≥ 0 in [`Json::U64`], and equality never crosses variants.
    I64(i64),
    /// Compared by bits: `-0.0 != 0.0`, and a float never equals an integer.
    F64(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in insertion order.
    Obj(Vec<(String, Json)>),
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::U64(a), Json::U64(b)) => a == b,
            (Json::I64(a), Json::I64(b)) => a == b,
            (Json::F64(a), Json::F64(b)) => a.to_bits() == b.to_bits(),
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {
        $(impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        })*
    };
}

from! {
    bool => |v| Json::Bool(v),
    u64 => |v| Json::U64(v),
    u32 => |v| Json::U64(v.into()),
    usize => |v| Json::U64(v as u64),
    i64 => |v| u64::try_from(v).map_or(Json::I64(v), Json::U64),
    f64 => |v| Json::F64(v),
    &str => |v| Json::Str(v.to_string()),
    &String => |v| Json::Str(v.clone()),
    String => |v| Json::Str(v),
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl Json {
    /// An object from `(key, value)` members, in the order given.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of anything that converts.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// `x` rounded exactly as `format!("{x:.decimals$}")` rounds it — how
    /// a report keeps a float at the precision it has always printed.
    /// With no decimals a finite value becomes an integer.
    pub fn rounded(x: f64, decimals: usize) -> Json {
        let text = format!("{x:.decimals$}");
        match text.parse::<i64>() {
            Ok(i) if decimals == 0 => Json::from(i),
            _ => Json::F64(text.parse().unwrap_or(x)),
        }
    }

    /// A harness report: `schema_version` first, the report's own members,
    /// `passed` last.
    pub fn report<'a>(members: impl IntoIterator<Item = (&'a str, Json)>, passed: bool) -> Json {
        let mut kv = vec![("schema_version", EXPORT_SCHEMA_VERSION.into())];
        kv.extend(members);
        kv.push(("passed", passed.into()));
        Json::obj(kv)
    }

    /// The member named `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// The one layout, ending in a newline: the outermost container one
    /// member per line, indented two spaces; a member that is a list of
    /// arrays or objects (a table: spans, scenarios) one row per line,
    /// indented four; everything else on one line, with `", "` and `": "`
    /// separators.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// `level` 0 is the outermost container, 1 its members.
    fn write(&self, out: &mut String, level: u8) {
        let table = match self {
            Json::Arr(xs) => xs.iter().all(|x| matches!(x, Json::Arr(_) | Json::Obj(_))),
            _ => false,
        };
        let (first, sep, last) = match level {
            0 => ("\n  ", ",\n  ", "\n"),
            1 if table => ("\n    ", ",\n    ", "\n  "),
            _ => ("", ", ", ""),
        };
        let inner = level.saturating_add(1);
        let _ = match self {
            Json::Null => write!(out, "null"),
            Json::Bool(v) => write!(out, "{v}"),
            Json::U64(v) => write!(out, "{v}"),
            Json::I64(v) => write!(out, "{v}"),
            // The shortest text that reads back as the same bits; it always
            // carries a `.` or an exponent.
            Json::F64(v) if v.is_finite() => write!(out, "{v:?}"),
            Json::F64(v) => write_str(&v.to_string(), out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    out.push_str(if i == 0 { first } else { sep });
                    x.write(out, inner);
                }
                write!(out, "{}]", if xs.is_empty() { "" } else { last })
            }
            Json::Obj(kv) => {
                out.push('{');
                for (i, (k, v)) in kv.iter().enumerate() {
                    out.push_str(if i == 0 { first } else { sep });
                    let _ = write_str(k, out);
                    out.push_str(": ");
                    v.write(out, inner);
                }
                write!(out, "{}}}", if kv.is_empty() { "" } else { last })
            }
        };
    }

    /// Read one JSON document. Whitespace may surround it; anything else
    /// after it is [`ErrorKind::TrailingInput`].
    pub fn parse(input: &[u8]) -> Result<Json, ParseError> {
        let mut r = Reader { s: input, i: 0 };
        let v = r.value(0)?;
        r.ws();
        if r.i < input.len() {
            return error(r.i, ErrorKind::TrailingInput);
        }
        Ok(v)
    }
}

/// The one string escaper: `"` and `\` backslashed, `\n` `\r` `\t` by
/// name, every other control character as `\u00XX`, the rest verbatim.
fn write_str(s: &str, out: &mut String) -> fmt::Result {
    out.push('"');
    for c in s.chars() {
        let _ = match c {
            '"' => write!(out, "\\\""),
            '\\' => write!(out, "\\\\"),
            '\n' => write!(out, "\\n"),
            '\r' => write!(out, "\\r"),
            '\t' => write!(out, "\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32),
            c => out.write_char(c),
        };
    }
    out.write_char('"')
}

/// What went wrong, and at which byte of the input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub at: usize,
    pub kind: ErrorKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    UnexpectedEnd,
    UnexpectedByte(u8),
    /// Containers nested deeper than [`MAX_DEPTH`].
    TooDeep,
    BadNumber,
    /// An integer outside `i64`/`u64`, or a float that overflows to ±∞.
    NumberOutOfRange,
    BadEscape,
    /// A raw control character inside a string.
    ControlInString,
    BadUtf8,
    TrailingInput,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at byte {}", self.kind, self.at)
    }
}

fn error<T>(at: usize, kind: ErrorKind) -> Result<T, ParseError> {
    Err(ParseError { at, kind })
}

struct Reader<'a> {
    s: &'a [u8],
    i: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.i += usize::from(hit);
        hit
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// The error for whatever sits at the cursor.
    fn unexpected<T>(&self) -> Result<T, ParseError> {
        let kind = self
            .peek()
            .map_or(ErrorKind::UnexpectedEnd, ErrorKind::UnexpectedByte);
        error(self.i, kind)
    }

    /// Skip whitespace, then require `b`.
    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        self.ws();
        if self.eat(b) {
            Ok(())
        } else {
            self.unexpected()
        }
    }

    /// One value inside `depth` enclosing containers.
    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.ws();
        let literal = |r: &mut Self, word: &str, v: Json| {
            if r.s[r.i..].starts_with(word.as_bytes()) {
                r.i += word.len();
                Ok(v)
            } else {
                r.unexpected()
            }
        };
        match self.peek() {
            Some(b'[' | b'{') if depth == MAX_DEPTH => error(self.i, ErrorKind::TooDeep),
            Some(b'[') => self.members(depth + 1, b']'),
            Some(b'{') => self.members(depth + 1, b'}'),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => literal(self, "true", Json::Bool(true)),
            Some(b'f') => literal(self, "false", Json::Bool(false)),
            Some(b'n') => literal(self, "null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.unexpected(),
        }
    }

    /// An array (`close` is `]`) or an object (`}`), from its opening
    /// bracket through its closing one.
    fn members(&mut self, depth: usize, close: u8) -> Result<Json, ParseError> {
        let object = close == b'}';
        let (mut xs, mut kv) = (Vec::new(), Vec::new());
        self.i += 1;
        self.ws();
        if !self.eat(close) {
            loop {
                if object {
                    self.ws();
                    if self.peek() != Some(b'"') {
                        return self.unexpected();
                    }
                    let k = self.string()?;
                    self.expect(b':')?;
                    kv.push((k, self.value(depth)?));
                } else {
                    xs.push(self.value(depth)?);
                }
                self.ws();
                if self.eat(close) {
                    break;
                }
                self.expect(b',')?;
            }
        }
        Ok(if object { Json::Obj(kv) } else { Json::Arr(xs) })
    }

    /// `[0-9]*`; whether any digit was read.
    fn digits(&mut self) -> bool {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i > start
    }

    /// Exactly `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`; without a
    /// fraction or an exponent it is an integer.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        let negative = self.eat(b'-');
        let mut ok = self.eat(b'0') || self.digits();
        let fraction = ok && self.eat(b'.');
        ok &= !fraction || self.digits();
        let exponent = ok && (self.eat(b'e') || self.eat(b'E'));
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits();
        }
        if !ok {
            return error(self.i, ErrorKind::BadNumber);
        }
        // Every byte matched above is ASCII.
        let text = std::str::from_utf8(&self.s[start..self.i]).unwrap_or_default();
        let v = if fraction || exponent {
            text.parse()
                .ok()
                .filter(|v: &f64| v.is_finite())
                .map(Json::F64)
        } else if negative {
            text.parse::<i64>().ok().map(Json::from)
        } else {
            text.parse::<u64>().ok().map(Json::U64)
        };
        v.map_or_else(|| error(start, ErrorKind::NumberOutOfRange), Ok)
    }

    /// A string, from its opening quote through its closing one.
    fn string(&mut self) -> Result<String, ParseError> {
        let start = self.i;
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let at = self.i;
            let Some(c) = self.peek() else {
                return self.unexpected();
            };
            self.i += 1;
            let ch = match c {
                b'"' => break,
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return self.unexpected();
                    };
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' => char::from(e),
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape(at)?,
                        _ => return error(at, ErrorKind::BadEscape),
                    }
                }
                ..0x20 => return error(at, ErrorKind::ControlInString),
                c => {
                    out.push(c);
                    continue;
                }
            };
            out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
        }
        String::from_utf8(out).or_else(|_| error(start, ErrorKind::BadUtf8))
    }

    /// The `XXXX` of a `\u` escape starting at `at`, joined with the low
    /// half from a second `\uXXXX` when it is the high half of a pair.
    fn unicode_escape(&mut self, at: usize) -> Result<char, ParseError> {
        let hex4 = |r: &mut Self| {
            let digits = r.s.get(r.i..r.i + 4)?;
            r.i += 4;
            digits.iter().try_fold(0u32, |acc, &b| {
                char::from(b).to_digit(16).map(|d| acc * 16 + d)
            })
        };
        let code = match hex4(self) {
            Some(hi @ 0xD800..=0xDBFF) => {
                let lo = (self.eat(b'\\') && self.eat(b'u'))
                    .then(|| hex4(self))
                    .flatten();
                lo.filter(|lo| (0xDC00..0xE000).contains(lo))
                    .map(|lo| 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
            }
            code => code,
        };
        code.and_then(char::from_u32)
            .map_or_else(|| error(at, ErrorKind::BadEscape), Ok)
    }
}
