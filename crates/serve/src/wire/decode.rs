//! One-pass decoder for a JSONL request line.
//!
//! It walks the line's bytes once. `id` goes straight into a `u64`, and
//! `features`/`images`/`dates` go straight into `Vec<f32>`. Every other
//! value is checked against the same grammar the vendored
//! `serde_json::from_str` accepts and then dropped. The result, and
//! whether the line is an error, are exactly what parsing the line into a
//! `serde_json::Value` and reading the fields from it gives
//! (`tests/wire_props.rs` holds that parser as the oracle):
//!
//! - a syntax error anywhere, including trailing bytes or nesting deeper
//!   than [`MAX_DEPTH`], wins over a missing or ill-typed field;
//! - the first occurrence of a duplicate key wins;
//! - number tokens follow the vendored tokenizer: a token without `.`,
//!   `e`, `E`, `+` or inner `-` is an integer tried as `i64`, then `u64`,
//!   then `f64` (so `-0` is +0.0), anything else is an `f64`; array
//!   elements are then narrowed with `as f32`.
//!
//! Tokens of the form `-?d+.d+` with at most 19 digits, at most 15 of
//! them significant, take Clinger's exact path: the digits form an
//! integer `m < 10^15 < 2^53` and `10^k` is exact, so `m as f64 / 10^k`
//! is one correctly rounded division of two exact values, the same bits
//! `str::parse::<f64>` gives. Every other token goes through
//! `str::parse::<f64>`.

use std::borrow::Cow;

use crate::engine::{Request, RequestInput};

/// Containers may nest this deep; the vendored `serde_json` has the same
/// limit.
const MAX_DEPTH: usize = 128;

/// `10^k` for every scale the exact path can meet: at most 19 digits, at
/// least one of them before the point. All are exact in `f64`.
const POW10: [f64; 19] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18,
];

/// `10^15`: a mantissa below it has at most 15 significant digits, so
/// it is below 2^53 and converts to `f64` without rounding.
const MAX_EXACT_MANTISSA: u64 = 1_000_000_000_000_000;

/// Parses one JSONL request line.
///
/// The line is decoded in one pass, with the semantics of parsing it as
/// a JSON value and reading the fields: every number is parsed as `f64`
/// and then narrowed with `as f32` (an integer token such as `-0` goes
/// through `i64`, so it is +0.0), the first occurrence of a duplicate key
/// wins, unknown keys are checked and ignored, trailing bytes are an
/// error, and arrays/objects may nest at most 128 deep.
///
/// # Errors
///
/// Returns a human-readable reason when the line is not valid JSON, lacks
/// a numeric `"id"`, or carries neither `"features"` nor
/// `"images"`+`"dates"`.
pub fn parse_request_line(line: &str) -> Result<Request, String> {
    let mut d = Decoder {
        text: line,
        bytes: line.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let fields = d.line().map_err(|e| format!("invalid json: {e}"))?;
    fields.into_request()
}

/// A number token as the vendored tokenizer types it.
enum Number {
    U64(u64),
    I64(i64),
    F64(f64),
}

impl Number {
    fn as_f64(&self) -> f64 {
        match *self {
            Number::U64(v) => v as f64,
            Number::I64(v) => v as f64,
            Number::F64(v) => v,
        }
    }

    /// A non-negative integer token is always `U64`.
    fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U64(v) => Some(v),
            _ => None,
        }
    }
}

/// The first value seen under an array key.
#[derive(Default)]
enum Numbers {
    #[default]
    Absent,
    NotArray,
    NonNumber,
    Values(Vec<f32>),
}

impl Numbers {
    fn into_vec(self, key: &str) -> Result<Vec<f32>, String> {
        match self {
            Numbers::Values(v) => Ok(v),
            Numbers::Absent | Numbers::NotArray => {
                Err(format!("\"{key}\" must be an array of numbers"))
            }
            Numbers::NonNumber => Err(format!("\"{key}\" must contain only numbers")),
        }
    }
}

#[derive(Default)]
struct Fields {
    /// `None` until the key is seen; then the id if it was a `u64`.
    id: Option<Option<u64>>,
    features: Numbers,
    images: Numbers,
    dates: Numbers,
}

impl Fields {
    fn into_request(self) -> Result<Request, String> {
        let id = self.id.flatten().ok_or("missing or non-integer \"id\"")?;
        let input = if !matches!(self.features, Numbers::Absent) {
            RequestInput::Features(self.features.into_vec("features")?)
        } else if !matches!(self.images, Numbers::Absent) || !matches!(self.dates, Numbers::Absent)
        {
            RequestInput::Cutouts {
                images: self.images.into_vec("images")?,
                dates: self.dates.into_vec("dates")?,
            }
        } else {
            return Err("request needs \"features\" or \"images\"+\"dates\"".into());
        };
        Ok(Request { id, input })
    }
}

struct Decoder<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

fn is_number_byte(b: u8) -> bool {
    matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
}

impl<'a> Decoder<'a> {
    fn line(&mut self) -> Result<Fields, String> {
        self.skip_ws();
        let fields = if self.peek() == Some(b'{') {
            self.object()?
        } else {
            self.skip_value()?;
            Fields::default()
        };
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing characters at byte {}", self.pos));
        }
        Ok(fields)
    }

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

    /// Whether a number token starts here.
    fn at_number(&self) -> bool {
        self.peek().is_some_and(|b| b == b'-' || b.is_ascii_digit())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    /// Walks the array (`close` is `]`) or object (`close` is `}`) whose
    /// opening bracket is next, handing each member's key (objects only)
    /// to `member`, which must consume the member's value.
    fn container(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self, Option<Cow<'a, str>>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("recursion limit exceeded at byte {}", self.pos));
        }
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(());
        }
        loop {
            let key = if close == b'}' {
                self.skip_ws();
                let key = self.key()?;
                self.skip_ws();
                self.expect(b':')?;
                Some(key)
            } else {
                None
            };
            member(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at byte {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    /// The top-level object: known keys are decoded, the rest skipped.
    fn object(&mut self) -> Result<Fields, String> {
        let mut fields = Fields::default();
        self.container(b'}', |d, key| {
            match key.as_deref() {
                Some("id") if fields.id.is_none() => {
                    d.skip_ws();
                    fields.id = Some(if d.at_number() {
                        d.number()?.as_u64()
                    } else {
                        d.skip_value()?;
                        None
                    });
                }
                Some("features") if matches!(fields.features, Numbers::Absent) => {
                    fields.features = d.numbers()?;
                }
                Some("images") if matches!(fields.images, Numbers::Absent) => {
                    fields.images = d.numbers()?;
                }
                Some("dates") if matches!(fields.dates, Numbers::Absent) => {
                    fields.dates = d.numbers()?;
                }
                _ => d.skip_value()?,
            }
            Ok(())
        })?;
        Ok(fields)
    }

    /// An object key: borrowed from the line unless it has escapes,
    /// which are decoded.
    fn key(&mut self) -> Result<Cow<'a, str>, String> {
        let text: &'a str = self.text;
        if self.peek() == Some(b'"') {
            let start = self.pos + 1;
            let end = self.bytes[start..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .map(|len| start + len);
            if let Some(end) = end.filter(|&end| self.bytes[end] == b'"') {
                self.pos = end + 1;
                return Ok(Cow::Borrowed(&text[start..end]));
            }
        }
        let mut decoded = String::new();
        self.string(Some(&mut decoded))?;
        Ok(Cow::Owned(decoded))
    }

    /// The value under an array key.
    fn numbers(&mut self) -> Result<Numbers, String> {
        self.skip_ws();
        if self.peek() != Some(b'[') {
            self.skip_value()?;
            return Ok(Numbers::NotArray);
        }
        let mut values = Vec::new();
        let mut all_numbers = true;
        self.container(b']', |d, _| {
            d.skip_ws();
            if all_numbers && d.at_number() {
                values.push(d.number_f64()? as f32);
                Ok(())
            } else {
                all_numbers = false;
                d.skip_value()
            }
        })?;
        Ok(if all_numbers {
            Numbers::Values(values)
        } else {
            Numbers::NonNumber
        })
    }

    /// A number token's value as an `f64`, through the exact path when
    /// the token qualifies.
    fn number_f64(&mut self) -> Result<f64, String> {
        let b = self.bytes;
        let negative = b[self.pos] == b'-';
        let int_start = self.pos + usize::from(negative);
        let mut i = int_start;
        let mut mantissa = 0u64;
        let mut digits = |i: &mut usize| {
            while let Some(d) = b.get(*i).map(|c| c.wrapping_sub(b'0')).filter(|&d| d < 10) {
                mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(d));
                *i += 1;
            }
        };
        digits(&mut i);
        if i > int_start && b.get(i) == Some(&b'.') {
            i += 1;
            let frac_start = i;
            digits(&mut i);
            let scale = i - frac_start;
            // At most 19 digits cannot wrap a u64, so `mantissa` is exact.
            if scale > 0
                && i - int_start - 1 <= 19
                && mantissa < MAX_EXACT_MANTISSA
                && !b.get(i).is_some_and(|&c| is_number_byte(c))
            {
                self.pos = i;
                let magnitude = mantissa as f64 / POW10[scale];
                return Ok(if negative { -magnitude } else { magnitude });
            }
        }
        Ok(self.number()?.as_f64())
    }

    /// A number token, typed as the vendored tokenizer types it.
    fn number(&mut self) -> Result<Number, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos).filter(|&&b| is_number_byte(b)) {
            is_float |= !b.is_ascii_digit();
            self.pos += 1;
        }
        // Every byte of the token is ASCII, so both ends are char
        // boundaries.
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(if i >= 0 {
                    Number::U64(i as u64)
                } else {
                    Number::I64(i)
                });
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::U64(u));
            }
        }
        text.parse::<f64>()
            .map(Number::F64)
            .map_err(|_| format!("invalid number '{text}'"))
    }

    /// Checks one value of any kind and moves past it.
    fn skip_value(&mut self) -> Result<(), String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.keyword("null"),
            Some(b't') => self.keyword("true"),
            Some(b'f') => self.keyword("false"),
            Some(b'"') => self.string(None),
            Some(b'[') => self.container(b']', |d, _| d.skip_value()),
            Some(b'{') => self.container(b'}', |d, _| d.skip_value()),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number().map(drop),
            Some(b) => Err(format!(
                "unexpected character '{}' at byte {}",
                b as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn keyword(&mut self, kw: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    /// A string, decoded into `out` when one is given.
    fn string(&mut self, mut out: Option<&mut String>) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[start..self.pos]);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            if let Some(out) = out.as_deref_mut() {
                                out.push(c);
                            }
                            continue;
                        }
                        _ => return Err("invalid escape sequence".into()),
                    };
                    self.pos += 1;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is consumed; a high
    /// surrogate must be followed by an escaped low one.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let code = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&code) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                (0xDC00..0xE000)
                    .contains(&low)
                    .then(|| char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)))
                    .flatten()
            } else {
                None
            }
        } else {
            char::from_u32(code)
        };
        c.ok_or_else(|| "invalid unicode escape".into())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated unicode escape".into());
        }
        let code = self
            .text
            .get(self.pos..end)
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or("invalid unicode escape")?;
        self.pos = end;
        Ok(code)
    }
}
