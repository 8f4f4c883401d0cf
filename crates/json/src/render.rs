//! Text rendering of [`Value`] trees: compact and pretty forms, string
//! escaping, and round-trip-exact number formatting.

use std::fmt::Write;

use crate::value::{Number, Value};

/// Renders the compact form (no whitespace).
pub fn compact(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Renders the pretty form (2-space indentation, one entry per line).
pub fn pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(n) => push_number(out, *n),
        Value::String(s) => push_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            if !items.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push(']');
        }
        Value::Object(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                push_escaped(out, key);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            if !entries.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..level * width {
            out.push(' ');
        }
    }
}

/// Appends a number in its round-trip-exact text form.
fn push_number(out: &mut String, n: Number) {
    match n {
        Number::PosInt(v) => write!(out, "{v}").expect("a String takes any text"),
        Number::NegInt(v) => write!(out, "{v}").expect("a String takes any text"),
        Number::Float(v) => push_f64(out, v),
    }
}

/// Appends an `f64`: Rust's shortest-round-trip `Display`, forced to
/// contain a decimal point (or exponent) so it re-parses as a float.
/// Non-finite values render as `null` (JSON has no NaN/Inf).
fn push_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    write!(out, "{v}").expect("a String takes any text");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

/// Appends a quoted, escaped JSON string.
fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Object(entries.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    #[test]
    fn compact_form() {
        let v = obj(vec![
            (
                "a",
                Value::Array(vec![Value::Number(Number::PosInt(1)), Value::Null]),
            ),
            ("b", Value::String("x\ny".into())),
        ]);
        assert_eq!(compact(&v), r#"{"a":[1,null],"b":"x\ny"}"#);
    }

    #[test]
    fn pretty_form() {
        let v = obj(vec![("a", Value::Array(vec![Value::Bool(true)]))]);
        assert_eq!(pretty(&v), "{\n  \"a\": [\n    true\n  ]\n}");
        assert_eq!(pretty(&Value::Array(vec![])), "[]");
        assert_eq!(pretty(&obj(vec![])), "{}");
    }

    #[test]
    fn floats_keep_their_floatness() {
        let mut s = String::new();
        push_f64(&mut s, 5.0);
        assert_eq!(s, "5.0");
        s.clear();
        push_f64(&mut s, 0.1);
        assert_eq!(s, "0.1");
        s.clear();
        push_f64(&mut s, -0.0);
        assert_eq!(s, "-0.0");
        s.clear();
        push_f64(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn control_characters_escape() {
        let mut s = String::new();
        push_escaped(&mut s, "\u{1}\u{1f}ok");
        assert_eq!(s, "\"\\u0001\\u001fok\"");
    }
}
