//! A minimal JSON reader/writer for the JSONL trace encoding.
//!
//! The workspace carries no external dependencies, so this module hand-rolls the small
//! JSON subset the line schema needs: objects, arrays, strings (with full escape
//! handling, including `\uXXXX` surrogate pairs), booleans, `null`, and **non-negative
//! integer** numbers (every numeric field of the schema is a `u64`; floats, exponents
//! and negative numbers are rejected with a structured message rather than silently
//! rounded). Errors are plain `String` details; the JSONL layer wraps them with the
//! offending line number.

/// A parsed JSON value. Object keys keep their textual order, which the schema mappers
/// use to reject duplicate or unknown keys.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the only number form the trace schema uses).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A short name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Parses one complete JSON value from `input`, rejecting trailing non-whitespace.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at column {}", p.pos + 1));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at column {}",
                byte as char,
                self.pos + 1
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at column {}", self.pos + 1))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'0'..=b'9') => self.number(),
            Some(b'-') => Err(format!(
                "negative numbers are not part of the trace schema (column {})",
                self.pos + 1
            )),
            Some(c) => Err(format!(
                "unexpected character `{}` at column {}",
                c as char,
                self.pos + 1
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at column {}", self.pos + 1)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at column {}", self.pos + 1)),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(format!(
                "non-integer number at column {} (the trace schema uses integers only)",
                start + 1
            ));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ASCII");
        text.parse::<u64>()
            .map(Json::Num)
            .map_err(|_| format!("number at column {} overflows u64", start + 1))
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let start = self.pos;
        let Some(slice) = self.bytes.get(self.pos..self.pos + 4) else {
            return Err("truncated \\u escape".into());
        };
        // `from_str_radix` alone would accept a leading `+`; JSON requires exactly
        // four hex digits.
        if !slice.iter().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("invalid \\u escape at column {}", start + 1));
        }
        let text = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_owned())?;
        let value = u16::from_str_radix(text, 16)
            .map_err(|_| format!("invalid \\u escape at column {}", start + 1))?;
        self.pos += 4;
        Ok(value)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(byte) = self.peek() else {
                return Err("unterminated string".into());
            };
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let ch = if (0xd800..0xdc00).contains(&hi) {
                                // A high surrogate must pair with a following \uXXXX low
                                // surrogate.
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xdc00..0xe000).contains(&lo) {
                                        return Err("unpaired surrogate in \\u escape".into());
                                    }
                                    let code = 0x10000
                                        + ((u32::from(hi) - 0xd800) << 10)
                                        + (u32::from(lo) - 0xdc00);
                                    char::from_u32(code)
                                        .ok_or_else(|| "invalid surrogate pair".to_owned())?
                                } else {
                                    return Err("unpaired surrogate in \\u escape".into());
                                }
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err("unpaired low surrogate in \\u escape".into());
                            } else {
                                char::from_u32(u32::from(hi))
                                    .ok_or_else(|| "invalid \\u escape".to_owned())?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!("invalid escape `\\{}`", other as char));
                        }
                    }
                }
                0x00..=0x1f => {
                    return Err(format!("unescaped control character {byte:#04x} in string"));
                }
                _ => {
                    // Consume one UTF-8 scalar (the input is a &str, so boundaries are
                    // valid by construction).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid UTF-8 in string".to_owned())?;
                    let ch = rest.chars().next().expect("peeked byte implies a char");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }
}

/// Appends the JSON string literal for `s` (quotes included) to `out`.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{0008}' => out.push_str("\\b"),
            '\u{000c}' => out.push_str("\\f"),
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

    #[test]
    fn parses_the_schema_shapes() {
        let v = parse(r#"{"kind":"call","args":[{"class":"Int"},null,true],"tid":7}"#).unwrap();
        let Json::Obj(pairs) = v else {
            panic!("not an object")
        };
        assert_eq!(pairs.len(), 3);
        assert_eq!(pairs[0].0, "kind");
        assert_eq!(pairs[2].1, Json::Num(7));
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnewline\n",
            "uni ☃ 😀",
            "back\\slash",
        ] {
            let mut line = String::new();
            write_escaped(&mut line, s);
            assert_eq!(parse(&line).unwrap(), Json::Str(s.to_owned()), "case {s:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".to_owned()));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::Str("😀".to_owned())
        );
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn schema_foreign_numbers_are_rejected() {
        assert!(parse("-1").is_err());
        assert!(parse("1.5").is_err());
        assert!(parse("1e9").is_err());
        assert!(parse("99999999999999999999999999").is_err());
        assert_eq!(parse("18446744073709551615").unwrap(), Json::Num(u64::MAX));
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "}",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{\"a\":1}extra",
            "\u{7}",
            "\"bad \\q escape\"",
            "[1 2]",
            "\"\\u+abc\"",
            "\"\\u12g4\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
