//! Minimal JSON writing for the exporters: string escaping and number
//! formatting.
//!
//! The exporters hand-roll their output (this crate is dependency-free),
//! so they need only escaping and finite-number formatting. Tests read
//! the output back with `kcb_util::json::parse_value`, the workspace's one
//! JSON reader.

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends a finite `f64` (non-finite values become `null`, which JSON
/// requires).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcb_util::json::parse_value;

    #[test]
    fn escapes_and_validates_round_trip() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        let back = parse_value(&out).unwrap();
        assert_eq!(back.as_str(), Some("a\"b\\c\nd\te\u{1}"));
    }

    #[test]
    fn validates_nested_documents() {
        let mut out = String::from("[");
        write_f64(&mut out, -3e2);
        out.push(',');
        write_str(&mut out, "x");
        out.push(']');
        let doc = format!(r#"{{"a":[1,2.5,{out},{{"b":null}},true,false],"c":{{}}}}"#);
        parse_value(&doc).unwrap();
        parse_value("[]").unwrap();
        parse_value("  42 ").unwrap();
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\":}", "\"unterminated", "01x", "{\"a\" 1}", "[1] extra"] {
            assert!(parse_value(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        out.push(',');
        write_f64(&mut out, 1.5);
        assert_eq!(out, "null,1.5");
    }
}
