//! The workspace's one JSON codec: a value type, a strict parser, a
//! compact renderer, and the bit-exact scalar encodings crash-safe
//! controller state needs.
//!
//! Every JSON path in the workspace goes through this crate: checkpoints
//! and decision journals (`dragster-sim`, which re-exports it as
//! `dragster_sim::json`), experiment specs and `dragster-cli --json`
//! traces, bench results, and the linter's SARIF output.
//! It has no dependencies, so `dragster-lint` still runs when the rest of
//! the dependency graph does not build.
//!
//! Learner state is serialized with floats as the 16-hex-digit IEEE-754
//! bit pattern ([`f64_to_hex`]/[`f64_from_hex`]), never as decimal text:
//! replay-identity after a crash requires *bit*-identical restored
//! state, NaN payloads included. A float vector is one string of those
//! patterns back to back ([`bits_arr`]/[`bits_vec`]). Exports read by people and tools
//! (traces, results) use [`Json::Num`] instead, which renders the
//! shortest decimal that parses back to the same `f64`.

pub mod convert;

use convert::usize_to_f64;

/// The largest count [`Json::as_usize`] reads back, `2^53 − 1`: every
/// integer up to it is exact as an `f64`. A count that must survive a
/// checkpoint saturates here instead of at `usize::MAX`, whose rendering
/// the decoder rejects.
pub const MAX_COUNT: usize = (1 << 53) - 1;

/// 2^53, the largest magnitude [`Json::render`] prints as an integer.
const TWO_POW_53: f64 = 9_007_199_254_740_992.0;

// ---------------------------------------------------------------------------
// Value type.
// ---------------------------------------------------------------------------

/// Minimal JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Non-negative integral number up to [`MAX_COUNT`]. Every such value
    /// is exact, and no larger integer can round into the range, so a
    /// count that did not fit is rejected rather than silently rounded.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= usize_to_f64(MAX_COUNT) => {
                crate::convert::f64_to_usize_saturating(*x).into()
            }
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// A float stored as its hex bit pattern (the bit-exact encoding this
    /// codec uses for all learner state).
    pub fn as_f64_bits(&self) -> Option<f64> {
        self.as_str().and_then(f64_from_hex)
    }

    /// Moves the value of object field `key` out of the document, leaving
    /// `null` in its place; `None` for non-objects and missing keys. A
    /// decoder keeps a large subtree this way instead of deep-cloning it.
    pub fn take(&mut self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Appends the value's compact JSON text to `out` — [`Json::render`]
    /// without the fresh `String`. Nothing but `out`'s own growth
    /// allocates, except numbers that are negative, fractional or beyond
    /// 2^53, which keep `format!`.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => {
                // Integral values print without a fraction so counts and
                // slots re-parse via `as_usize`. A non-negative one up to
                // 2^53 round-trips through `usize` exactly, which tests
                // integrality without `fract` (a libm call on baseline
                // x86-64). The sign bit, not `>= 0.0`, routes −0.0 to
                // `format!`, which prints it as `-0`.
                let n = crate::convert::f64_to_usize_saturating(*x);
                if x.is_sign_positive() && *x <= TWO_POW_53 && usize_to_f64(n) == *x {
                    push_usize(n, out);
                } else if x.is_finite() {
                    if x.fract() == 0.0 && x.abs() <= TWO_POW_53 {
                        out.push_str(&format!("{:.0}", x));
                    } else {
                        // `{:?}` is Rust's shortest round-trip formatting.
                        out.push_str(&format!("{:?}", x));
                    }
                } else {
                    // JSON has no NaN/Inf, so a non-finite number encodes
                    // as null (state that needs them travels as hex bits).
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escapes `s` for use inside a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(s, &mut out);
    out
}

/// Escapes `s` directly into `out` — the allocation-free form of [`esc`],
/// and the escaper behind [`Json::render`]. Byte-identical to [`esc`].
/// Each run of bytes that needs no escaping is copied with one
/// `push_str`: a packed float vector is one run.
pub fn escape_into(s: &str, out: &mut String) {
    let mut rest = s;
    loop {
        let plain = plain_len(rest.as_bytes());
        out.push_str(rest.get(..plain).unwrap_or_default());
        let Some(&b) = rest.as_bytes().get(plain) else {
            return;
        };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                // `\u{:04x}` by hand: control chars are < 0x20, so the two
                // high digits are always zero.
                out.push_str("\\u00");
                out.push(char::from(hex_digit(b >> 4)));
                out.push(char::from(hex_digit(b & 0xf)));
            }
        }
        rest = rest.get(plain + 1..).unwrap_or_default();
    }
}

/// Length of the longest prefix of `bytes` with no `"`, `\\` or control
/// byte (below 0x20): a run that a string's escaper, and its parser, copy
/// in one piece. All three are ASCII and no byte of a multi-byte UTF-8
/// sequence is below 0x80, so the run ends on a char boundary. Eight bytes
/// are tested at a time: in a word `x`, `(x − 0x0101…01·n) & !x &
/// 0x8080…80` is non-zero exactly when some byte is below `n` (n ≤ 128),
/// and a byte equal to `c` is a byte of `x ^ c·0x0101…01` below 1.
fn plain_len(bytes: &[u8]) -> usize {
    const ONES: u64 = u64::MAX / 0xff;
    let below = |x: u64, n: u8| x.wrapping_sub(ONES * u64::from(n)) & !x & (ONES * 0x80);
    let mut words = bytes.chunks_exact(8);
    let mut plain = 0;
    for word in &mut words {
        let x = u64::from_le_bytes(word.try_into().unwrap_or_default());
        let quote = x ^ (ONES * u64::from(b'"'));
        let backslash = x ^ (ONES * u64::from(b'\\'));
        if below(x, 0x20) | below(quote, 1) | below(backslash, 1) != 0 {
            break;
        }
        plain += 8;
    }
    let tail = bytes.get(plain..).unwrap_or_default();
    plain
        + tail
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(tail.len())
}

/// Writes a `usize` as plain decimal digits into `out` without
/// allocating — byte-identical to how [`num`] values render.
pub fn push_usize(v: usize, out: &mut String) {
    if v < 10 {
        // One digit: task counts, the common case in a checkpoint.
        out.push(char::from(b'0' + u8::try_from(v).unwrap_or(0)));
        return;
    }
    // Collect digits least-significant first, then emit in reverse; a
    // 64-bit usize has at most 20 decimal digits, so the buffer never
    // fills before `n` reaches zero.
    let mut digits = [0u32; 20];
    let mut used = 0;
    let mut n = v;
    for slot in digits.iter_mut() {
        if n == 0 {
            break;
        }
        *slot = u32::try_from(n % 10).unwrap_or(0);
        n /= 10;
        used += 1;
    }
    for &d in digits.iter().take(used).rev() {
        out.push(char::from_digit(d, 10).unwrap_or('0'));
    }
}

/// Writes a `u64` as 16 lowercase hex digits into `out` without
/// allocating — byte-identical to [`u64_to_hex`], and one `push_str`.
pub fn push_u64_hex(v: u64, out: &mut String) {
    out.push_str(std::str::from_utf8(&hex_digits(v)).unwrap_or_default());
}

/// The lowercase ASCII hex digit of a nibble (`n < 16`).
fn hex_digit(n: u8) -> u8 {
    if n < 10 {
        b'0' + n
    } else {
        b'a' - 10 + n
    }
}

/// The 16 lowercase ASCII hex digits of `v`, most significant first —
/// the bytes [`push_u64_hex`] appends, for a writer that fills a reserved
/// place instead. All 16 nibbles are converted at once: they are spread
/// one per byte of a `u128` (nibble `k` in byte `k`), then `'0'` is added
/// to every byte and `'a' − '0' − 10` to those holding 10 or more.
pub fn hex_digits(v: u64) -> [u8; 16] {
    const ONES: u128 = u128::MAX / 0xff;
    let x = u128::from(v);
    let x = (x & 0xffff_ffff_0000_0000) << 32 | (x & 0xffff_ffff);
    let x = (x & 0xffff_0000_0000_0000_ffff_0000) << 16 | (x & 0xffff_0000_0000_0000_ffff);
    let x = (x & (ONES / 0x0101 * 0xff00)) << 8 | (x & (ONES / 0x0101 * 0xff));
    let x = (x & (ONES * 0xf0)) << 4 | (x & (ONES * 0x0f));
    let ten_or_more = ((x + ONES * 6) >> 4) & ONES;
    (x + ONES * u128::from(b'0') + ten_or_more * u128::from(b'a' - b'0' - 10)).to_be_bytes()
}

/// Inverse of [`hex_digits`]: exactly 16 lowercase hex digits, or `None`.
fn hex_word(digits: &[u8]) -> Option<u64> {
    if digits.len() != 16 {
        return None;
    }
    digits.iter().try_fold(0u64, |word, &d| {
        let nibble = match d {
            b'0'..=b'9' => d - b'0',
            b'a'..=b'f' => d - b'a' + 10,
            _ => return None,
        };
        Some(word << 4 | u64::from(nibble))
    })
}

/// Writes an `f64`'s IEEE-754 bit pattern as 16 hex digits into `out`
/// without allocating — byte-identical to [`f64_to_hex`].
pub fn push_f64_hex(v: f64, out: &mut String) {
    push_u64_hex(v.to_bits(), out);
}

// ---------------------------------------------------------------------------
// Bit-exact scalar encodings.
// ---------------------------------------------------------------------------

/// Encodes an `f64` as its 16-hex-digit IEEE-754 bit pattern. Unlike any
/// decimal rendering, this round-trips every value (including NaN
/// payloads, signed zeros, and subnormals) bit-for-bit.
pub fn f64_to_hex(v: f64) -> String {
    u64_to_hex(v.to_bits())
}

/// Inverse of [`f64_to_hex`]. Rejects anything but exactly 16 lowercase
/// hex digits.
pub fn f64_from_hex(s: &str) -> Option<f64> {
    u64_from_hex(s).map(f64::from_bits)
}

/// Encodes a `u64` (RNG words, checksums) as 16 hex digits.
pub fn u64_to_hex(v: u64) -> String {
    let mut out = String::with_capacity(16);
    push_u64_hex(v, &mut out);
    out
}

/// Inverse of [`u64_to_hex`]. Rejects anything but exactly 16 lowercase
/// hex digits, the only form the writer emits.
pub fn u64_from_hex(s: &str) -> Option<u64> {
    hex_word(s.as_bytes())
}

/// FNV-1a 64-bit hash, one byte a step — the hash of decision streams,
/// seed pins and lint finding fingerprints. Not cryptographic. Checkpoints
/// and journal lines are sealed with `dragster_sim::checkpoint`'s own
/// word-wise checksum, not with this one.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

/// Deepest array/object nesting [`parse_json`] accepts. Checkpoints nest a
/// handful of levels; the bound keeps hostile input such as a user spec
/// of a million `[` from overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document (objects, arrays, strings, numbers, literals).
/// Strict enough for round-tripping the documents this module writes;
/// trailing garbage and nesting deeper than [`MAX_DEPTH`] are errors, and
/// whitespace is JSON's four bytes (space, tab, LF, CR).
///
/// The parser reads the text's bytes in place. Every byte the grammar
/// acts on is ASCII, so string runs without escapes are copied with one
/// `push_str` and numbers are parsed from their slice of the text. Error
/// offsets are byte offsets.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser { text, pos: 0 };
    let v = parser.value(0)?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(format!("trailing garbage at offset {}", parser.pos));
    }
    Ok(v)
}

/// A cursor over the text of one document.
struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread byte.
    pos: usize,
}

impl Parser<'_> {
    /// The unread bytes.
    fn rest(&self) -> &[u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or_default()
    }

    fn peek(&self) -> Option<u8> {
        self.rest().first().copied()
    }

    fn skip_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't' | b'f' | b'n') => self.literal(),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(format!(
                    "object key must be a string at offset {}",
                    self.pos
                ));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(format!("expected ':' at offset {}", self.pos));
            }
            self.pos += 1;
            let val = self.value(depth + 1)?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    /// The string literal whose opening quote is the next byte. A raw
    /// control byte, which the writer never emits, is kept as it is.
    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut s = String::new();
        loop {
            let plain = plain_len(self.rest());
            s.push_str(
                self.text
                    .get(self.pos..self.pos + plain)
                    .unwrap_or_default(),
            );
            self.pos += plain;
            let Some(b) = self.peek() else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => self.escape(&mut s)?,
                control => s.push(char::from(control)),
            }
        }
    }

    /// The escape after a backslash, appended to `s`.
    fn escape(&mut self, s: &mut String) -> Result<(), String> {
        let Some(e) = self.peek() else {
            return Err("unterminated escape".to_string());
        };
        self.pos += 1;
        match e {
            b'"' => s.push('"'),
            b'\\' => s.push('\\'),
            b'/' => s.push('/'),
            b'n' => s.push('\n'),
            b'r' => s.push('\r'),
            b't' => s.push('\t'),
            b'b' => s.push('\u{8}'),
            b'f' => s.push('\u{c}'),
            b'u' => {
                let hex = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .ok_or("truncated \\u escape")?;
                let code =
                    u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u escape: {e}"))?;
                s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                self.pos += 4;
            }
            _ => {
                let other = self
                    .text
                    .get(self.pos - 1..)
                    .and_then(|r| r.chars().next())
                    .unwrap_or('\u{fffd}');
                return Err(format!("bad escape '\\{other}'"));
            }
        }
        Ok(())
    }

    fn literal(&mut self) -> Result<Json, String> {
        for (lit, val) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if self.rest().starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(val);
            }
        }
        Err(format!("bad literal at offset {}", self.pos))
    }

    fn number(&mut self) -> Result<Json, String> {
        let digits = self
            .rest()
            .iter()
            .take_while(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'));
        let len = digits.clone().count();
        // Up to 15 plain digits are an integer below 2^53, which the float
        // parser would return exactly: counts and task numbers skip it.
        if (1..=15).contains(&len) && digits.clone().all(u8::is_ascii_digit) {
            let n = digits.fold(0usize, |n, &d| n * 10 + usize::from(d - b'0'));
            self.pos += len;
            return Ok(Json::Num(usize_to_f64(n)));
        }
        let text = self.text.get(self.pos..self.pos + len).unwrap_or_default();
        self.pos += len;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

// ---------------------------------------------------------------------------
// Encoders.
// ---------------------------------------------------------------------------

/// Conversion into a [`Json`] value, the building block of every
/// hand-written encoder. Implemented once here for the scalars, strings,
/// options and sequences that traces and result rows are made of.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        num(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// `None` encodes as `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }
}

/// A pair encodes as a two-element array.
impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl Json {
    /// An object from `(key, value)` pairs, keys in the given order.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

/// Implements [`ToJson`] for a struct as an object with one key per listed
/// field, in the listed order. The key is the field's own name, so the
/// two cannot drift apart.
///
/// ```
/// use dragster_json::{impl_to_json, ToJson};
///
/// struct Row {
///     scheme: String,
///     regret: f64,
///     slot: Option<usize>,
/// }
/// impl_to_json! { Row { scheme, regret, slot } }
///
/// let row = Row { scheme: "static".into(), regret: 1.5, slot: None };
/// assert_eq!(row.to_json().render(), r#"{"scheme":"static","regret":1.5,"slot":null}"#);
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj([
                    $((stringify!($field), $crate::ToJson::to_json(&self.$field))),+
                ])
            }
        }
    };
}

/// `Json::Num` from a usize (counts, slot indices). Values above 2^53
/// would lose precision; the simulator never produces them, and the
/// saturating conversion keeps the encoder total.
pub fn num(v: usize) -> Json {
    Json::Num(crate::convert::usize_to_f64(v))
}

/// A float as its bit-exact hex string.
pub fn bits(v: f64) -> Json {
    Json::Str(f64_to_hex(v))
}

/// A float vector packed into one string: each value's 16-digit bit
/// pattern, as [`bits`] writes it, with no separator. One string instead
/// of one node per value is what keeps a checkpoint of a long GP history
/// cheap to build, render and parse.
pub fn bits_arr<'a, I>(vs: I) -> Json
where
    I: IntoIterator<Item = &'a f64, IntoIter: ExactSizeIterator>,
{
    let vs = vs.into_iter();
    let mut packed = String::with_capacity(16 * vs.len());
    push_bits(vs, &mut packed);
    Json::Str(packed)
}

/// Appends the packed digits of [`bits_arr`] to `out`, without quotes —
/// the writer behind it, for encoders that render in place. The digits
/// are staged eight values at a time, so the UTF-8 check and the copy
/// into `out` run once per 128 bytes rather than once per value.
pub fn push_bits<'a>(vs: impl IntoIterator<Item = &'a f64>, out: &mut String) {
    let mut staged = [0u8; 128];
    let mut used = 0;
    for &v in vs {
        if let Some(slot) = staged.get_mut(used..used + 16) {
            slot.copy_from_slice(&hex_digits(v.to_bits()));
        }
        used += 16;
        if used == staged.len() {
            out.push_str(std::str::from_utf8(&staged).unwrap_or_default());
            used = 0;
        }
    }
    let tail = staged.get(..used).unwrap_or_default();
    out.push_str(std::str::from_utf8(tail).unwrap_or_default());
}

/// Decodes a packed float vector ([`bits_arr`]): a string of 16 lowercase
/// hex digits per value. A length that is not a multiple of 16, or any
/// other character, is `None`.
pub fn bits_vec(j: &Json) -> Option<Vec<f64>> {
    let digits = j.as_str()?.as_bytes();
    if !digits.len().is_multiple_of(16) {
        return None;
    }
    digits
        .chunks_exact(16)
        .map(|w| hex_word(w).map(f64::from_bits))
        .collect()
}

/// Decodes an array of usizes.
pub fn usize_vec(j: &Json) -> Option<Vec<usize>> {
    j.as_arr()?.iter().map(Json::as_usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let doc = Json::Obj(vec![
            ("version".to_string(), num(1)),
            ("name".to_string(), Json::Str("op \"a\"\n\\x".to_string())),
            (
                "xs".to_string(),
                Json::Arr(vec![Json::Null, Json::Bool(true), num(42)]),
            ),
            ("cap".to_string(), bits(1234.5678e-3)),
        ]);
        let text = doc.render();
        let back = parse_json(&text).expect("roundtrip parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn f64_hex_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.0,
            0.1,
            f64::MIN_POSITIVE,
            f64::MAX,
            -3.918_243_1e-17,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let hex = f64_to_hex(v);
            let back = f64_from_hex(&hex).expect("parse hex");
            assert_eq!(back.to_bits(), v.to_bits(), "bits differ for {v}");
        }
        // NaN payload survives too (plain equality can't see this).
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let back = f64_from_hex(&f64_to_hex(nan)).expect("parse NaN hex");
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn f64_hex_rejects_malformed() {
        assert_eq!(f64_from_hex(""), None);
        assert_eq!(f64_from_hex("123"), None);
        assert_eq!(f64_from_hex("zzzzzzzzzzzzzzzz"), None);
        assert_eq!(f64_from_hex("00000000000000000"), None);
        // Only the writer's own form: no uppercase, no sign.
        assert_eq!(f64_from_hex("3FF0000000000000"), None);
        assert_eq!(f64_from_hex("+3ff000000000000"), None);
        assert_eq!(f64_from_hex("3ff0000000000000"), Some(1.0));
    }

    #[test]
    fn hex_digits_match_the_formatter() {
        let mut words = vec![0, 1, 9, 10, 15, 16, u64::MAX, 0xdead_beef, 1 << 63];
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..1_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            words.push(x);
        }
        let mut out = String::new();
        for w in words {
            out.clear();
            push_u64_hex(w, &mut out);
            assert_eq!(out, format!("{w:016x}"));
            assert_eq!(u64_from_hex(&out), Some(w));
        }
    }

    #[test]
    fn packed_bits_roundtrip_bit_exactly() {
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let vs = [
            0.0,
            -0.0,
            1.0,
            nan,
            f64::MIN_POSITIVE / 3.0,
            f64::NEG_INFINITY,
        ];
        let packed = bits_arr(&vs);
        let Json::Str(digits) = &packed else {
            panic!("a packed vector is one string")
        };
        assert_eq!(digits.len(), 16 * vs.len());
        let expected: String = vs.iter().map(|v| f64_to_hex(*v)).collect();
        assert_eq!(*digits, expected);
        let back = bits_vec(&parse_json(&packed.render()).expect("parse")).expect("decode");
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(bits_arr(&[]), Json::Str(String::new()));
        assert_eq!(bits_vec(&Json::Str(String::new())), Some(Vec::new()));
    }

    #[test]
    fn bits_vec_rejects_malformed_columns() {
        let good = f64_to_hex(1.5) + &f64_to_hex(-2.0);
        assert_eq!(bits_vec(&Json::Str(good.clone())), Some(vec![1.5, -2.0]));
        let mut cases = vec![
            // A length that is not a multiple of 16.
            good[..31].to_string(),
            good.clone() + "0",
            // An uppercase and a non-hex digit.
            good.replacen('f', "F", 1),
            good.replacen('f', "g", 1),
            good.replacen('f', " ", 1),
        ];
        // A sign, which `from_str_radix` would have read.
        cases.push(format!("+{}", &good[1..]));
        for bad in cases {
            assert_eq!(bits_vec(&Json::Str(bad.clone())), None, "accepted `{bad}`");
        }
        // The array-of-strings layout that packed vectors replaced.
        let old = Json::Arr(vec![bits(1.5), bits(-2.0)]);
        assert_eq!(bits_vec(&old), None);
        assert_eq!(bits_vec(&num(3)), None);
    }

    #[test]
    fn integral_numbers_reparse_as_usize() {
        let text = num(7).render();
        assert_eq!(text, "7");
        let back = parse_json(&text).expect("parse");
        assert_eq!(back.as_usize(), Some(7));
        // 2^53 + 1 parses as 2^53: rejected, not rounded.
        let big = parse_json("9007199254740993").expect("parse");
        assert_eq!(big.as_usize(), None);
        assert_eq!(
            Json::Num(9_007_199_254_740_991.0).as_usize(),
            Some((1 << 53) - 1)
        );
    }

    #[test]
    fn parser_rejects_trailing_garbage_and_bad_docs() {
        assert!(parse_json("{} x").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,").is_err());
        assert!(parse_json("\"open").is_err());
        assert!(parse_json("tru").is_err());
        let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_json(&nested(MAX_DEPTH + 1)).is_ok());
        assert!(parse_json(&nested(MAX_DEPTH + 2)).is_err());
        // Far past the bound: an error, not a stack overflow.
        assert!(parse_json(&nested(1_000_000)).is_err());
    }

    #[test]
    fn parser_reads_bytes_and_reports_byte_offsets() {
        // `é` is two bytes, so the garbage sits at byte 5, char 4.
        assert_eq!(
            parse_json("\"é\" x"),
            Err("trailing garbage at offset 5".to_string())
        );
        let doc = parse_json(" {\"k\\u00e9\\n\":[\"a\\\"b\\\\c\\/\", \"ü€𝄞\"],\r\n\t\"n\":null} ")
            .expect("parse");
        assert_eq!(
            doc,
            Json::Obj(vec![
                (
                    "ké\n".to_string(),
                    Json::Arr(vec![
                        Json::Str("a\"b\\c/".to_string()),
                        Json::Str("ü€𝄞".to_string())
                    ])
                ),
                ("n".to_string(), Json::Null)
            ])
        );
        // Only JSON's four whitespace bytes separate tokens.
        assert!(parse_json("[1,\u{a0}2]").is_err());
        assert!(parse_json("[1,\u{c}2]").is_err());
        assert!(parse_json("\"\\x\"").is_err());
        assert!(parse_json("\"\\u12\"").is_err());
        assert!(parse_json("{1:2}").is_err());
    }

    #[test]
    fn integer_fast_path_matches_the_float_parser() {
        for text in [
            "0",
            "7",
            "10",
            "007",
            "123456789012345",
            "1234567890123456",
            "9007199254740993",
            "-0",
            "-12",
            "1e3",
            "2.50",
        ] {
            let want = text.parse::<f64>().expect("valid number");
            let Ok(Json::Num(got)) = parse_json(text) else {
                panic!("`{text}` did not parse as a number")
            };
            assert_eq!(got.to_bits(), want.to_bits(), "`{text}`");
        }
        assert!(parse_json("1-2").is_err());
        assert!(parse_json("+").is_err());
    }

    #[test]
    fn escape_into_matches_the_char_escaper() {
        /// The escaper as it was: one `char` at a time.
        fn by_char(s: &str) -> String {
            let mut out = String::new();
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                    c => out.push(c),
                }
            }
            out
        }
        let all_controls: String = (0u8..0x20).map(char::from).collect();
        for s in [
            "",
            "plain",
            "\"",
            "a\"b\\c\nd\re\tf",
            "é\u{1}ü\u{1f}€\u{7f}𝄞\"",
            all_controls.as_str(),
            "trailing\\",
        ] {
            let mut out = String::from("prefix");
            escape_into(s, &mut out);
            assert_eq!(out, format!("prefix{}", by_char(s)), "{s:?}");
            assert_eq!(
                parse_json(&format!("\"{}\"", esc(s))),
                Ok(Json::Str(s.to_string()))
            );
        }
    }

    #[test]
    fn decimal_floats_reparse_exactly() {
        for v in [0.1, -2.5e-300, 123_456.789, 1e21, 4.0, f64::MAX] {
            let back = parse_json(&v.to_json().render()).expect("parse");
            assert_eq!(back, Json::Num(v), "{v} did not round-trip");
        }
        // JSON has no NaN/Inf, so non-finite values encode as null.
        assert_eq!(f64::NAN.to_json().render(), "null");
    }

    #[test]
    fn generic_encoders_compose() {
        let row = Json::obj([
            ("name", "op".to_json()),
            ("tasks", vec![1usize, 2].to_json()),
            ("path", [(1usize, 2usize)].to_json()),
            ("limit", None::<usize>.to_json()),
            ("rate", Some(0.5).to_json()),
            ("ok", true.to_json()),
        ]);
        assert_eq!(
            row.render(),
            r#"{"name":"op","tasks":[1,2],"path":[[1,2]],"limit":null,"rate":0.5,"ok":true}"#
        );
    }

    /// The renderer as it was before it wrote integers and strings in
    /// place: every number and string went through a temporary `String`.
    fn reference_render(j: &Json, out: &mut String) {
        match j {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if !x.is_finite() => out.push_str("null"),
            Json::Num(x) if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) => {
                out.push_str(&format!("{:.0}", x))
            }
            Json::Num(x) => out.push_str(&format!("{:?}", x)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&esc(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    reference_render(item, out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&esc(k));
                    out.push_str("\":");
                    reference_render(v, out);
                }
                out.push('}');
            }
        }
    }

    #[test]
    fn render_is_byte_identical_to_the_formatting_renderer() {
        let two53 = 2f64.powi(53);
        let nums = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            7.0,
            -42.0,
            0.5,
            -2.5e-300,
            f64::MIN_POSITIVE / 2.0,
            1e21,
            two53,
            two53 + 2.0,
            -two53,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let doc = Json::Obj(vec![
            (
                "nums".to_string(),
                Json::Arr(nums.iter().map(|&x| Json::Num(x)).collect()),
            ),
            (
                "k\"ey\n\u{1}\t\\".to_string(),
                Json::Str("q\"\r\u{1f}\u{7f} \u{e9}".to_string()),
            ),
            ("empty".to_string(), Json::Arr(Vec::new())),
            ("obj".to_string(), Json::Obj(Vec::new())),
            (
                "lit".to_string(),
                Json::Arr(vec![Json::Null, Json::Bool(false)]),
            ),
            (
                "hex".to_string(),
                bits(f64::from_bits(0x7ff8_0000_dead_beef)),
            ),
        ]);
        let mut reference = String::new();
        reference_render(&doc, &mut reference);
        assert_eq!(doc.render(), reference);
        assert_eq!(f64_to_hex(-0.0), format!("{:016x}", (-0.0f64).to_bits()));
        assert_eq!(u64_to_hex(0xdead_beef), format!("{:016x}", 0xdead_beefu64));
    }

    #[test]
    fn take_moves_a_field_out() {
        let mut doc = Json::Obj(vec![
            ("a".to_string(), num(1)),
            ("b".to_string(), Json::Arr(vec![num(2)])),
        ]);
        assert_eq!(doc.take("b"), Some(Json::Arr(vec![num(2)])));
        assert_eq!(doc.get("b"), Some(&Json::Null));
        assert_eq!(doc.take("missing"), None);
        assert_eq!(num(3).take("a"), None);
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
