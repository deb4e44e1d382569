//! A small recursive-descent JSON parser building the workspace's
//! [`Value`] tree.
//!
//! The vendored `serde_json` is writer-only, so everything that has to
//! *read* JSON back — the serve wire protocol, the run journal's replay
//! path, the `repro runs` query surface — funnels through this one
//! parser. It is the exact inverse of [`Value::render_json`] on rendered
//! output: integers parse back as integers, floats (which always carry a
//! `.` or exponent) as floats, and objects keep field order, so
//! `parse_value(v.render_json(None))` reproduces `v` bit-for-bit.
//!
//! (Historically this lived in `kcb-serve::protocol`; it moved down here
//! so `kcb-core` can replay journals without depending on the server.)

use serde::{Number, Value};

/// Deepest array/object nesting [`parse_value`] accepts. The deepest JSON
/// kcb writes and reads back nests 5 levels; the bound keeps a hostile
/// line (a request, a damaged journal tail) from recursing the parser off
/// the end of its thread's stack.
pub const MAX_DEPTH: usize = 128;

/// Parses one complete JSON value (rejecting trailing data and nesting
/// deeper than [`MAX_DEPTH`]). Errors name the byte offset.
pub fn parse_value(s: &str) -> Result<Value, String> {
    let mut p = Parser { s, b: s.as_bytes(), i: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.eat("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.eat("null").map(|()| Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.i += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.i += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else { return Err(self.err("unterminated string")) };
            match c {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'u') => {
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a sign.
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate halves are replaced rather than
                            // paired — the workspace never emits astral
                            // chars through \u escapes.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.i += 5;
                        }
                        Some(e @ (b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't')) => {
                            out.push(match e {
                                b'b' => '\u{8}',
                                b'f' => '\u{c}',
                                b'n' => '\n',
                                b'r' => '\r',
                                b't' => '\t',
                                c => c as char,
                            });
                            self.i += 1;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                c if c < 0x20 => return Err(self.err("raw control character in string")),
                _ => {
                    // Multi-byte UTF-8: push the full char (`i` is on a
                    // char boundary, since it only ever steps over whole
                    // chars or ASCII bytes).
                    let rest = &self.s[self.i..];
                    let ch = rest.chars().next().expect("peek saw a byte, so a char follows");
                    out.push(ch);
                    self.i += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        let neg = self.peek() == Some(b'-');
        if neg {
            self.i += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.i;
            while p.peek().is_some_and(|c| c.is_ascii_digit()) {
                p.i += 1;
            }
            p.i > s
        };
        if !digits(self) {
            return Err(self.err("expected digits"));
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.i += 1;
            if !digits(self) {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            if !digits(self) {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
        let n = if float {
            Number::F(text.parse().map_err(|_| self.err("bad number"))?)
        } else if neg {
            Number::I(text.parse().map_err(|_| self.err("bad number"))?)
        } else {
            Number::U(text.parse().map_err(|_| self.err("bad number"))?)
        };
        Ok(Value::Number(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nesting_strings_and_numbers() {
        let v = parse_value(r#"{"a":[1,-2,2.5,"x\n\"y\"",{"b":null},true,false]}"#).unwrap();
        let a = v.get("a").and_then(Value::as_array).unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_i64(), Some(-2));
        assert_eq!(a[2].as_f64(), Some(2.5));
        assert_eq!(a[3].as_str(), Some("x\n\"y\""));
        assert!(a[4].get("b").unwrap().is_null());
        for bad in ["{", "[1,]", "{\"a\":}", "\"oops", "01x", "[1] extra", "{\"a\" 1}"] {
            assert!(parse_value(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn render_then_parse_is_identity() {
        let v = serde_json::json!({
            "u": 42u64,
            "f": 1.0f64,
            "frac": 0.125f64,
            "s": "a\tb",
            "arr": [true, false],
        });
        let compact = v.render_json(None);
        assert_eq!(parse_value(&compact).unwrap(), v);
        let pretty = v.render_json(Some(2));
        assert_eq!(parse_value(&pretty).unwrap(), v);
        // The re-render of the parse reproduces the exact bytes, which is
        // what a stored artifact relies on for byte-identity.
        assert_eq!(parse_value(&compact).unwrap().render_json(None), compact);
    }

    #[test]
    fn large_integral_floats_render_as_floats() {
        for (v, text) in [(1e15, "1e15"), (2.5e18, "2.5e18"), (1e20, "1e20"), (-1e300, "-1e300")] {
            let n = Value::Number(Number::F(v));
            assert_eq!(n.render_json(None), text);
            assert_eq!(parse_value(text).unwrap(), n, "{text}");
        }
        // Below the cut-over, integral floats keep their `.0`.
        assert_eq!(Value::Number(Number::F(999_999_999_999_999.0)).render_json(None), "999999999999999.0");
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(parse_value(r#""\u0041\u00e9""#).unwrap().as_str(), Some("Aé"));
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u04g1""#, r#""\u041""#] {
            assert!(parse_value(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_value(&nest(MAX_DEPTH)).is_ok());
        let err = parse_value(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        // Far past the bound, unclosed and mixed: an error, not a
        // recursion to the end of the stack.
        assert!(parse_value(&"[".repeat(2_000_000)).is_err());
        assert!(parse_value(&r#"{"a":"#.repeat(200_000)).is_err());
        // Depth is the number of open containers, not of containers seen.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 3].join(","));
        assert!(parse_value(&wide).is_ok());
    }

    #[test]
    fn integer_vs_float_distinction_survives() {
        let v = parse_value("[3,3.0,-3]").unwrap();
        let a = v.as_array().unwrap();
        assert_eq!(a[0], Value::Number(Number::U(3)));
        assert_eq!(a[1], Value::Number(Number::F(3.0)));
        assert_eq!(a[2], Value::Number(Number::I(-3)));
        assert_eq!(v.render_json(None), "[3,3.0,-3]");
    }

    /// Characters JSON text is made of, plus a few that break it.
    const JSONISH: &[char] = &[
        '[', ']', '{', '}', '"', ',', ':', ' ', '\n', '0', '7', '-', '+', '.', 'e', 'E', 't', 'r',
        'u', 'n', 'l', 'f', 'a', 's', '\\', '/', 'x', 'é', '\u{1}',
    ];

    fn jsonish(ix: Vec<usize>) -> String {
        ix.into_iter().map(|i| JSONISH[i % JSONISH.len()]).collect()
    }

    /// Any finite float.
    fn float(n: u64) -> f64 {
        let v = f64::from_bits(n);
        if v.is_finite() { v } else { (n % 1_000_003) as f64 / 64.0 }
    }

    fn scalar(op: u8, n: u64, s: &str) -> Value {
        match op % 6 {
            0 => Value::Null,
            1 => Value::Bool(n % 2 == 1),
            2 => Value::Number(Number::U(n)),
            3 => Value::Number(Number::I(-((n >> 1) as i64) - 1)),
            4 => Value::Number(Number::F(float(n))),
            _ => Value::String(s.to_string()),
        }
    }

    fn append(container: &mut Value, key: &str, v: Value) {
        match container {
            Value::Array(items) => items.push(v),
            Value::Object(fields) => fields.push((key.to_string(), v)),
            _ => unreachable!("only containers are open"),
        }
    }

    /// Builds a nested value from a flat op list (the vendored proptest
    /// has no recursive strategies): op 0 opens an array, 1 opens an
    /// object, 2 closes the innermost container, anything else appends a
    /// scalar. Open containers are closed at the end.
    fn build(ops: &[(u8, u64, String)]) -> Value {
        let mut stack = vec![Value::Array(Vec::new())];
        for (op, n, s) in ops {
            match op % 9 {
                0 if stack.len() < 12 => stack.push(Value::Array(Vec::new())),
                1 if stack.len() < 12 => stack.push(Value::Object(Vec::new())),
                2 if stack.len() > 1 => {
                    let v = stack.pop().expect("open container");
                    append(stack.last_mut().expect("root"), s, v);
                }
                _ => append(stack.last_mut().expect("root"), s, scalar(*op, *n, s)),
            }
        }
        while stack.len() > 1 {
            let v = stack.pop().expect("open container");
            append(stack.last_mut().expect("root"), "k", v);
        }
        stack.pop().expect("root")
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn parse_value_never_panics(
            text in proptest::prop::collection::vec(0usize..64, 0..200),
            depth in 0usize..400,
            regex in "[a-z0-9{}:,. \"-]{0,64}",
        ) {
            let text = jsonish(text);
            let _ = parse_value(&text);
            let _ = parse_value(&regex);
            // The same text under nesting up to three times the bound.
            let _ = parse_value(&format!("{}{text}", "[".repeat(depth)));
            let _ = parse_value(&format!("{}{regex}{}", "[".repeat(depth), "]".repeat(depth)));
        }

        #[test]
        fn rendered_values_parse_back_to_the_same_value_and_bytes(
            ops in proptest::prop::collection::vec(
                (0u8..255, proptest::any::<u64>(), "[a-z\"\\\n\t\u{1}é/ ]{0,6}"),
                0..40,
            ),
        ) {
            let v = build(&ops);
            for indent in [None, Some(2)] {
                let text = v.render_json(indent);
                let back = parse_value(&text).map_err(proptest::TestCaseError::fail)?;
                proptest::prop_assert_eq!(&back, &v);
                proptest::prop_assert_eq!(back.render_json(indent), text);
            }
        }
    }
}
