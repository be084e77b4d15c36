//! JSON text: a writer for [`Value`] trees and a recursive-descent parser.

use crate::value::{Map, Number, Value};
use crate::Error;
use std::fmt;

/// Writes a string with JSON escaping (quotes included).
pub fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\u{08}' => out.write_str("\\b")?,
            '\u{0C}' => out.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

pub(crate) fn write_value(out: &mut impl fmt::Write, v: &Value) -> fmt::Result {
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(true) => out.write_str("true"),
        Value::Bool(false) => out.write_str("false"),
        Value::Number(Number::U64(x)) => write!(out, "{x}"),
        Value::Number(Number::I64(x)) => write!(out, "{x}"),
        Value::Number(Number::F64(x)) => {
            if x.is_finite() {
                // Rust's shortest-round-trip formatting: parsing the output
                // recovers the exact bit pattern.
                write!(out, "{x}")
            } else {
                // JSON has no Infinity/NaN literals; follow serde_json.
                out.write_str("null")
            }
        }
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.write_char('[')?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_value(out, item)?;
            }
            out.write_char(']')
        }
        Value::Object(m) => {
            out.write_char('{')?;
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.write_char(',')?;
                }
                write_escaped(out, k)?;
                out.write_char(':')?;
                write_value(out, item)?;
            }
            out.write_char('}')
        }
    }
}

/// Parses a JSON document into a [`Value`]. Trailing whitespace is allowed;
/// trailing garbage is an error.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(Error::msg(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(Error::msg(format!(
                "unexpected `{}` at byte {}",
                b as char, self.pos
            ))),
            None => Err(Error::msg("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut m = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            m.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(m));
                }
                _ => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| Error::msg("truncated \\u escape"))?;
        let code = u32::from_str_radix(chunk, 16)
            .map_err(|_| Error::msg(format!("invalid \\u escape at byte {}", self.pos)))?;
        self.pos = end;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::msg("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let scalar = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(Error::msg("unpaired surrogate"));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| Error::msg("invalid unicode escape"))?,
                            );
                            continue; // hex4 advanced past the escape
                        }
                        _ => return Err(Error::msg("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (input is a valid &str).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| Error::msg("invalid utf-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let num = if is_float {
            Number::F64(
                text.parse::<f64>()
                    .map_err(|_| Error::msg(format!("invalid number `{text}`")))?,
            )
        } else if let Some(stripped) = text.strip_prefix('-') {
            // Negative integer; fall back to f64 on i64 overflow. Only a
            // float prints as `-0`, so it parses back as one, sign kept.
            match stripped.parse::<i64>() {
                Ok(0) => Number::F64(-0.0),
                Ok(x) => Number::I64(-x),
                Err(_) => Number::F64(
                    text.parse::<f64>()
                        .map_err(|_| Error::msg(format!("invalid number `{text}`")))?,
                ),
            }
        } else {
            match text.parse::<u64>() {
                Ok(x) => Number::U64(x),
                Err(_) => Number::F64(
                    text.parse::<f64>()
                        .map_err(|_| Error::msg(format!("invalid number `{text}`")))?,
                ),
            }
        };
        Ok(Value::Number(num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, -2, 3.5, "x\n", true, null], "b": {"c": 0.25}}"#).unwrap();
        let obj = v.as_object().unwrap();
        let a = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 6);
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[2].as_f64(), Some(3.5));
        assert_eq!(a[3].as_str(), Some("x\n"));
        assert_eq!(
            obj.get("b")
                .unwrap()
                .as_object()
                .unwrap()
                .get("c")
                .unwrap()
                .as_f64(),
            Some(0.25)
        );
    }

    #[test]
    fn writer_output_reparses() {
        let v = parse(r#"{"k":"quote \" backslash \\ tab \t","n":[1e-3,12345678901234567890]}"#)
            .unwrap();
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = Value::Number(Number::F64(-0.0)).to_string();
        assert_eq!(text, "-0");
        let back = parse(&text).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("nulL").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é😀""#).unwrap().as_str(), Some("é😀"));
    }
}
