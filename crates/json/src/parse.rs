//! Recursive-descent JSON parser (RFC 8259) with position-tracked errors.

use crate::error::{JsonError, Position};
use crate::number::Number;
use crate::value::{Map, Value};

/// Maximum nesting depth accepted by the parser. Transactions in
/// SmartchainDB are shallow (≤ 8 levels); the bound is purely defensive.
const MAX_DEPTH: usize = 128;

/// Parses a complete JSON document from text.
///
/// The entire input must be consumed (modulo trailing whitespace);
/// anything else is a [`JsonError::TrailingData`].
///
/// Nesting is bounded here; size is not. The bound sits at the caller,
/// which knows what its input is: a client's transaction payload is
/// refused above a fixed size before it reaches this function, while
/// the store's manifest reader parses whole-block seal lines, which
/// hold every document a block committed.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser::new(input);
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.peek().is_some() {
        return Err(JsonError::TrailingData(p.pos()));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    i: usize,
    line: usize,
    line_start: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            i: 0,
            line: 1,
            line_start: 0,
        }
    }

    fn pos(&self) -> Position {
        Position {
            line: self.line,
            column: self.i - self.line_start + 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.i += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.i;
        }
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.bump();
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(c) if c == b => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(JsonError::UnexpectedChar(c as char, self.pos())),
            None => Err(JsonError::UnexpectedEof(self.pos())),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::TooDeep(self.pos()));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal(b"true", Value::Bool(true)),
            Some(b'f') => self.literal(b"false", Value::Bool(false)),
            Some(b'n') => self.literal(b"null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(JsonError::UnexpectedChar(c as char, self.pos())),
            None => Err(JsonError::UnexpectedEof(self.pos())),
        }
    }

    fn literal(&mut self, lit: &[u8], v: Value) -> Result<Value, JsonError> {
        let start = self.pos();
        for &b in lit {
            if self.bump() != Some(b) {
                return Err(JsonError::BadLiteral(start));
            }
        }
        Ok(v)
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.bump();
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key_pos = self.pos();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            if map.insert(key.clone(), val).is_some() {
                return Err(JsonError::DuplicateKey(key, key_pos));
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map)),
                Some(c) => return Err(JsonError::UnexpectedChar(c as char, self.pos())),
                None => return Err(JsonError::UnexpectedEof(self.pos())),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                Some(c) => return Err(JsonError::UnexpectedChar(c as char, self.pos())),
                None => return Err(JsonError::UnexpectedEof(self.pos())),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.i;
            // Fast path: copy a run of plain bytes at once.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.i += 1;
            }
            if self.i > start {
                // The input is valid UTF-8 (it came from &str) and the run
                // stops only at ASCII delimiters, so the slice is valid.
                out.push_str(
                    std::str::from_utf8(&self.bytes[start..self.i])
                        .map_err(|_| JsonError::InvalidUtf8)?,
                );
            }
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => self.escape(&mut out)?,
                Some(_) => return Err(JsonError::BadEscape(self.pos())),
                None => return Err(JsonError::UnexpectedEof(self.pos())),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), JsonError> {
        let p = self.pos();
        match self.bump() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000C}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let hi = self.hex4()?;
                let c = if (0xD800..=0xDBFF).contains(&hi) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err(JsonError::BadUnicode(p));
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err(JsonError::BadUnicode(p));
                    }
                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(code).ok_or(JsonError::BadUnicode(p))?
                } else if (0xDC00..=0xDFFF).contains(&hi) {
                    return Err(JsonError::BadUnicode(p));
                } else {
                    char::from_u32(hi).ok_or(JsonError::BadUnicode(p))?
                };
                out.push(c);
            }
            _ => return Err(JsonError::BadEscape(p)),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let p = self.pos();
            let b = self.bump().ok_or(JsonError::UnexpectedEof(p))?;
            let d = (b as char).to_digit(16).ok_or(JsonError::BadUnicode(p))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.i;
        let pos = self.pos();
        let neg = self.peek() == Some(b'-');
        if neg {
            self.bump();
        }
        // Integer part: no leading zeros allowed (except a lone 0).
        match self.peek() {
            Some(b'0') => {
                self.bump();
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(JsonError::BadNumber(pos));
                }
            }
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.bump();
                }
            }
            _ => return Err(JsonError::BadNumber(pos)),
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.bump();
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::BadNumber(pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(JsonError::BadNumber(pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.bump();
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.i]).map_err(|_| JsonError::InvalidUtf8)?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Number(Number::Int(i)));
            }
            if !neg {
                if let Ok(u) = text.parse::<u64>() {
                    return Ok(Value::Number(Number::UInt(u)));
                }
            }
            // Fall through to float for magnitudes beyond 64-bit.
        }
        let f: f64 = text.parse().map_err(|_| JsonError::BadNumber(pos))?;
        if f.is_infinite() {
            return Err(JsonError::NumberOutOfRange(pos));
        }
        Ok(Value::Number(Number::Float(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arr, obj};

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::from(42i64));
        assert_eq!(parse("-7").unwrap(), Value::from(-7i64));
        assert_eq!(parse("2.5").unwrap(), Value::from(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::from(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::from("hi"));
    }

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"op":"BID","inputs":[{"amount":1}],"ok":true}"#).unwrap();
        assert_eq!(
            v,
            obj! {
                "op" => "BID",
                "inputs" => arr![obj! { "amount" => 1i64 }],
                "ok" => true,
            }
        );
    }

    #[test]
    fn big_u64_stays_exact() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse(r#""a\nb\t\"q\" \\ /""#).unwrap().as_str(),
            Some("a\nb\t\"q\" \\ /")
        );
        assert_eq!(parse(r#""A""#).unwrap().as_str(), Some("A"));
        // Surrogate pair: U+1F600
        assert_eq!(parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn rejects_unpaired_surrogate() {
        assert!(matches!(
            parse(r#""\uD83D""#),
            Err(JsonError::BadUnicode(_))
        ));
        assert!(matches!(
            parse(r#""\uDE00""#),
            Err(JsonError::BadUnicode(_))
        ));
    }

    #[test]
    fn rejects_leading_zero_and_bad_numbers() {
        assert!(matches!(parse("01"), Err(JsonError::BadNumber(_))));
        assert!(matches!(parse("-"), Err(JsonError::BadNumber(_))));
        assert!(matches!(parse("1."), Err(JsonError::BadNumber(_))));
        assert!(matches!(parse("1e"), Err(JsonError::BadNumber(_))));
    }

    #[test]
    fn rejects_trailing_data_and_garbage() {
        assert!(matches!(parse("1 2"), Err(JsonError::TrailingData(_))));
        assert!(matches!(parse("tru"), Err(JsonError::BadLiteral(_))));
        assert!(matches!(parse("@"), Err(JsonError::UnexpectedChar('@', _))));
        assert!(matches!(parse(""), Err(JsonError::UnexpectedEof(_))));
    }

    #[test]
    fn rejects_duplicate_keys() {
        assert!(matches!(
            parse(r#"{"a":1,"a":2}"#),
            Err(JsonError::DuplicateKey(_, _))
        ));
    }

    #[test]
    fn rejects_raw_control_chars_in_strings() {
        assert!(parse("\"a\u{0001}b\"").is_err());
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(matches!(parse(&deep), Err(JsonError::TooDeep(_))));
    }

    #[test]
    fn error_positions_track_lines() {
        let err = parse("{\n  \"a\": @\n}").unwrap_err();
        match err {
            JsonError::UnexpectedChar('@', p) => {
                assert_eq!(p.line, 2);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn whitespace_everywhere() {
        let v = parse(" \t\r\n { \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_array).map(<[Value]>::len),
            Some(2)
        );
    }
}
