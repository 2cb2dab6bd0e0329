//! The workspace's one JSON writer and its one JSON reader.
//!
//! Every artifact the stack emits — the campaign report array and the
//! Chrome trace — is written through [`JsonWriter`], and CI reads them
//! back with [`parse`]. Pulling in a JSON crate for either would break
//! the workspace's no-new-dependencies rule, so both live here, side by
//! side: the writer places separators itself, sends every key and
//! string through one escaper, and writes numbers straight into its
//! output buffer; the reader is a small recursive-descent parser whose
//! objects keep their members in document order (a `Vec` — no hash
//! maps in determinism-policed crates).

use std::fmt::Write as _;

/// A streaming JSON writer into one `String`.
///
/// Containers are opened and closed explicitly; the writer puts the
/// comma before every array element and every object key after the
/// first, so callers never track separators. Non-finite floats are
/// written as `null`.
///
/// # Example
///
/// ```
/// use deepnote_telemetry::json::JsonWriter;
///
/// let mut w = JsonWriter::with_capacity(64);
/// w.begin_obj().key("ok").bool(true).key("xs").begin_arr();
/// w.u64(1).f64(2.5).f64(f64::NAN).str("a\"b");
/// w.end_arr().end_obj();
/// assert_eq!(w.finish(), r#"{"ok":true,"xs":[1,2.5,null,"a\"b"]}"#);
/// ```
#[derive(Debug)]
pub struct JsonWriter {
    out: String,
    /// Whether the next key or value needs a comma before it.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer with `bytes` of output buffer reserved.
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(bytes),
            comma: false,
        }
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Starts a value: writes the separator it needs and returns the
    /// buffer to write it into.
    fn value(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        &mut self.out
    }

    fn open(&mut self, bracket: char) -> &mut Self {
        self.value().push(bracket);
        self.comma = false;
        self
    }

    fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Opens an object (`{`).
    pub fn begin_obj(&mut self) -> &mut Self {
        self.open('{')
    }

    /// Closes the innermost object (`}`).
    pub fn end_obj(&mut self) -> &mut Self {
        self.close('}')
    }

    /// Opens an array (`[`).
    pub fn begin_arr(&mut self) -> &mut Self {
        self.open('[')
    }

    /// Closes the innermost array (`]`).
    pub fn end_arr(&mut self) -> &mut Self {
        self.close(']')
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        push_string(self.value(), key);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes a string value.
    pub fn str(&mut self, s: &str) -> &mut Self {
        push_string(self.value(), s);
        self
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, n: u64) -> &mut Self {
        push_digits(self.value(), n);
        self
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, b: bool) -> &mut Self {
        self.value().push_str(if b { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.value().push_str("null");
        self
    }

    /// Writes a float in its shortest round-trip form (`2`, `0.25`);
    /// NaN and the infinities become `null`.
    ///
    /// Most floats in the reports are whole or half numbers (window
    /// ends, scrape times, counters). Those, below 2^52 in magnitude,
    /// are written from integers: the sign, the integer digits and an
    /// optional `.5`, the same bytes `{x}` prints. Every other float
    /// goes through `{x}`.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        /// 2^53: every integer below it is exact as an `f64`.
        const EXACT: f64 = 9_007_199_254_740_992.0;
        let twice = x * 2.0;
        if twice.abs() < EXACT && twice.trunc() == twice {
            let halves = twice.abs() as u64;
            let out = self.value();
            if x.is_sign_negative() {
                out.push('-');
            }
            push_digits(out, halves >> 1);
            if halves & 1 == 1 {
                out.push_str(".5");
            }
            self
        } else if x.is_finite() {
            let _ = write!(self.value(), "{x}");
            self
        } else {
            self.null()
        }
    }

    /// Writes a float, or `null` for `None`.
    pub fn opt_f64(&mut self, x: Option<f64>) -> &mut Self {
        match x {
            Some(x) => self.f64(x),
            None => self.null(),
        }
    }

    /// Writes nanoseconds as microseconds with a fixed three-digit
    /// fraction (`1234.567`), integer-exact: Chrome's timestamp form.
    pub fn micros(&mut self, nanos: u64) -> &mut Self {
        let _ = write!(self.value(), "{}.{:03}", nanos / 1_000, nanos % 1_000);
        self
    }
}

/// Appends the decimal digits of `n`.
fn push_digits(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).unwrap_or_default());
}

/// Appends `s` as a JSON string literal: quotes, backslashes and
/// control characters escaped, everything else copied as is.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    // Most strings need no escape and are copied in one piece below.
    let needs_escape = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
    if s.bytes().any(needs_escape) {
        for (i, b) in s.bytes().enumerate() {
            let short = match b {
                b'"' => Some("\\\""),
                b'\\' => Some("\\\\"),
                b'\n' => Some("\\n"),
                b'\r' => Some("\\r"),
                b'\t' => Some("\\t"),
                0..=0x1f => None,
                _ => continue,
            };
            // Every escaped byte is ASCII, so `start..i` is a char range.
            out.push_str(&s[start..i]);
            match short {
                Some(escape) => out.push_str(escape),
                None => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
            start = i + 1;
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// A parsed JSON value. Object members keep document order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The bool payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// How deep arrays and objects may nest. The parser recurses once per
/// level, so the cap keeps hostile input from overflowing the stack;
/// the artifacts written here nest about five levels deep.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &str) -> String {
        format!("json error at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(&format!("nested deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.consume(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.consume(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is valid UTF-8:
                    // it came in as &str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    if let Ok(s) = std::str::from_utf8(&self.bytes[start..self.pos]) {
                        out.push_str(s);
                    }
                }
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Parses one JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// `json error at byte N: …` for malformed input, including arrays and
/// objects nested deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    #[test]
    fn parser_rejects_deep_nesting_instead_of_overflowing() {
        let err = parse(&"[".repeat(200_000)).unwrap_err();
        assert_eq!(
            err,
            format!("json error at byte {MAX_DEPTH}: nested deeper than {MAX_DEPTH} levels")
        );
        let err = parse(&"{\"k\":".repeat(200_000)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        // The cap itself is reachable.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_cap).is_ok());
    }

    #[test]
    fn writer_escapes_every_control_character() {
        let all: String = (0u8..0x20).map(char::from).collect();
        let mut w = JsonWriter::with_capacity(64);
        w.str(&all);
        let out = w.finish();
        assert_eq!(
            out,
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\t\\n\\u000b\
             \\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\
             \\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\""
        );
        assert_eq!(parse(&out), Ok(Json::Str(all)));
    }

    /// What the writer emits for one float.
    fn written_f64(x: f64) -> String {
        let mut w = JsonWriter::with_capacity(32);
        w.f64(x);
        w.finish()
    }

    /// Asserts that the writer prints `x` as `{x}` does (`null` for the
    /// non-finite).
    fn assert_f64_as_display(x: f64) {
        let want = if x.is_finite() {
            format!("{x}")
        } else {
            "null".to_owned()
        };
        assert_eq!(written_f64(x), want, "bits {:#018x}", x.to_bits());
    }

    fn assert_u64_as_display(n: u64) {
        let mut w = JsonWriter::with_capacity(32);
        w.u64(n);
        assert_eq!(w.finish(), n.to_string());
    }

    /// Whole and half numbers around `h / 2` for `h` within `spread` of
    /// each of `centres`, both signs, plus `draws` random floats of
    /// every kind: random bits, random whole numbers and random halves.
    fn sweep_f64(centres: &[i64], spread: i64, draws: u32, rng: &mut TestRng) {
        for &c in centres {
            for h in c.saturating_sub(spread)..=c.saturating_add(spread) {
                assert_f64_as_display(h as f64 / 2.0);
                assert_f64_as_display(-(h as f64) / 2.0);
            }
        }
        for _ in 0..draws {
            let bits = rng.next_u64();
            assert_f64_as_display(f64::from_bits(bits));
            let whole = (bits >> 11) as f64;
            assert_f64_as_display(whole);
            assert_f64_as_display(-whole / 2.0);
            assert_f64_as_display((bits >> rng.below(64)) as f64 / 2.0);
        }
    }

    /// `h` at every power of two up to 2^55, where the fast path for
    /// whole and half numbers ends (at `|2x| = 2^53`) and beyond.
    fn powers_of_two() -> Vec<i64> {
        (0..56).map(|k| 1i64 << k).collect()
    }

    #[test]
    fn floats_print_as_display_does() {
        for x in [0.0, -0.0, 0.5, -0.5, 1.0, 0.25, -0.25, 1e-7, 0.1, 1.5e300] {
            assert_f64_as_display(x);
        }
        for x in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ] {
            assert_f64_as_display(x);
        }
        assert_f64_as_display(f64::MIN_POSITIVE);
        assert_f64_as_display(-f64::from_bits(1));
        assert_eq!(written_f64(-0.0), "-0");
        assert_eq!(written_f64(2.5), "2.5");
        // The last half number the fast path takes, and the first whole
        // one it leaves to `{x}`.
        assert_eq!(written_f64(4_503_599_627_370_495.5), "4503599627370495.5");
        assert_eq!(written_f64(4_503_599_627_370_496.0), "4503599627370496");
        let mut rng = TestRng::for_test("floats_print_as_display_does");
        sweep_f64(&powers_of_two(), 300, 20_000, &mut rng);
        sweep_f64(&[0], 20_000, 0, &mut rng);
    }

    #[test]
    fn integers_print_as_display_does() {
        for n in [0, 1, 9, 10, 99, 100, u64::MAX, u64::MAX - 1, 1 << 63] {
            assert_u64_as_display(n);
        }
        let mut rng = TestRng::for_test("integers_print_as_display_does");
        for _ in 0..20_000 {
            let n = rng.next_u64();
            assert_u64_as_display(n >> rng.below(64));
        }
    }

    /// The larger sweep: millions of floats and integers. Run in
    /// release: `cargo test --release -p deepnote-telemetry --lib --
    /// --ignored numbers_print_as_display_does_at_scale`.
    #[test]
    #[ignore = "a release-mode sweep of millions of numbers"]
    fn numbers_print_as_display_does_at_scale() {
        let mut rng = TestRng::for_test("numbers_print_as_display_does_at_scale");
        sweep_f64(&powers_of_two(), 100_000, 5_000_000, &mut rng);
        sweep_f64(&[0], 5_000_000, 0, &mut rng);
        for _ in 0..5_000_000 {
            let n = rng.next_u64();
            assert_u64_as_display(n >> rng.below(64));
        }
    }

    /// Random value trees: every leaf kind, strings over all control
    /// characters plus quotes, backslashes and multi-byte chars, empty
    /// containers, and non-finite floats.
    struct Tree {
        depth: u32,
    }

    const CHARS: &[char] = &['"', '\\', '/', 'a', 'Z', ' ', 'é', '\u{7f}', '😀'];

    impl Tree {
        fn string(rng: &mut TestRng) -> String {
            (0..rng.below(12))
                .map(|_| match rng.below(3) {
                    0 => char::from(rng.below(0x20) as u8),
                    _ => CHARS[rng.below(CHARS.len() as u64) as usize],
                })
                .collect()
        }
    }

    impl Strategy for Tree {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            let kinds = if self.depth == 0 { 6 } else { 8 };
            let inner = Tree {
                depth: self.depth.saturating_sub(1),
            };
            match rng.below(kinds) {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 1),
                2 => Json::Num((rng.below(1 << 53)) as f64),
                3 => Json::Num(match rng.below(4) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => (rng.unit_f64() - 0.5) * 10f64.powi(rng.below(40) as i32 - 20),
                }),
                4 | 5 => Json::Str(Tree::string(rng)),
                6 => Json::Arr((0..rng.below(4)).map(|_| inner.generate(rng)).collect()),
                _ => Json::Obj(
                    (0..rng.below(4))
                        .map(|_| (Tree::string(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    fn write(w: &mut JsonWriter, v: &Json) {
        match v {
            Json::Null => {
                w.null();
            }
            Json::Bool(b) => {
                w.bool(*b);
            }
            Json::Num(x) if x.fract() == 0.0 && (0.0..9e15).contains(x) => {
                w.u64(*x as u64);
            }
            Json::Num(x) => {
                w.f64(*x);
            }
            Json::Str(s) => {
                w.str(s);
            }
            Json::Arr(items) => {
                w.begin_arr();
                items.iter().for_each(|item| write(w, item));
                w.end_arr();
            }
            Json::Obj(members) => {
                w.begin_obj();
                for (k, item) in members {
                    w.key(k);
                    write(w, item);
                }
                w.end_obj();
            }
        }
    }

    /// What the tree reads back as: non-finite numbers become `null`.
    fn written(v: &Json) -> Json {
        match v {
            Json::Num(x) if !x.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(written).collect()),
            Json::Obj(members) => Json::Obj(
                members
                    .iter()
                    .map(|(k, v)| (k.clone(), written(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn written_trees_parse_back(tree in Tree { depth: 4 }) {
            let mut w = JsonWriter::with_capacity(256);
            write(&mut w, &tree);
            let out = w.finish();
            prop_assert_eq!(parse(&out), Ok(written(&tree)), "{}", out);
        }
    }
}
