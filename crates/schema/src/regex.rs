//! Schema `pattern` constraints: one shape, matched by a byte loop.
//!
//! A pattern is `^C$`, `^C*$`, `^C+$`, `^C?$`, `^C{n}$`, `^C{n,}$` or
//! `^C{n,m}$`, where `C` is one positive ASCII atom: a literal char, an
//! escape (`\d`, `\w`, `\s`, `\n`, `\t`, `\r` or an escaped char), or a
//! class `[...]` with ranges, escapes and a leading literal `]`. Every
//! other pattern — `.`, negated classes and `\D` `\W` `\S`, non-ASCII
//! chars, groups, alternation, sequences, unanchored patterns — is
//! refused at compile time with [`RegexError::Unsupported`].
//!
//! The shape is anchored at both ends, so JSON-Schema's search
//! semantics and a full match coincide, and matching is one pass over
//! the text's bytes. A multi-byte UTF-8 char is never in an ASCII
//! class, so on every accepted text the byte count is the char count.

use std::fmt;

/// A compiled pattern: the class as a 128-bit ASCII membership set
/// (bit `b` set when byte `b` is in the class) and the repetition
/// bounds.
#[derive(Debug, Clone)]
pub struct Regex {
    source: String,
    class: u128,
    min: u32,
    max: Option<u32>,
}

/// Compilation errors with byte offsets into the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegexError {
    UnexpectedEnd,
    BadClass(usize),
    BadRepeat(usize),
    /// The pattern leaves the one supported shape `^C{m,n}$` at this
    /// offset.
    Unsupported(usize),
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegexError::UnexpectedEnd => write!(f, "unexpected end of pattern"),
            RegexError::BadClass(i) => write!(f, "malformed character class at offset {i}"),
            RegexError::BadRepeat(i) => write!(f, "malformed repetition at offset {i}"),
            RegexError::Unsupported(i) => write!(
                f,
                "unsupported pattern at offset {i}: a pattern is ^C{{m,n}}$ for one positive ASCII class C"
            ),
        }
    }
}

impl std::error::Error for RegexError {}

impl Regex {
    /// Compiles a pattern.
    pub fn compile(pattern: &str) -> Result<Regex, RegexError> {
        if let Some(at) = pattern.bytes().position(|b| !b.is_ascii()) {
            return Err(RegexError::Unsupported(at));
        }
        let mut p = PatParser {
            bytes: pattern.as_bytes(),
            pos: 0,
        };
        p.anchor(b'^')?;
        let class = p.atom()?;
        let (min, max) = p.repetition()?;
        p.anchor(b'$')?;
        if p.pos != p.bytes.len() {
            return Err(RegexError::Unsupported(p.pos));
        }
        Ok(Regex {
            source: pattern.to_owned(),
            class,
            min,
            max,
        })
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// True when `text` matches (JSON-Schema `pattern` semantics; the
    /// one shape is anchored, so this is a full match).
    pub fn is_match(&self, text: &str) -> bool {
        // A length out of bounds could only be rescued by multi-byte
        // chars, which the ASCII class rejects anyway.
        let len = text.len() as u64;
        u64::from(self.min) <= len
            && self.max.is_none_or(|max| len <= u64::from(max))
            && text.bytes().all(|b| b < 128 && (self.class >> b) & 1 == 1)
    }
}

/// The set holding the bytes `lo..=hi`.
fn span(lo: u8, hi: u8) -> u128 {
    (lo..=hi).fold(0, |set, b| set | 1 << b)
}

/// An escape inside or outside a class: one char, or a class of its own.
enum Escape {
    Char(u8),
    Class(u128),
}

struct PatParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl PatParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn anchor(&mut self, want: u8) -> Result<(), RegexError> {
        match self.peek() {
            Some(b) if b == want => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(RegexError::Unsupported(self.pos)),
        }
    }

    /// The one atom, as the set of bytes it matches.
    fn atom(&mut self) -> Result<u128, RegexError> {
        let start = self.pos;
        match self.bump().ok_or(RegexError::UnexpectedEnd)? {
            b'^' | b'$' | b'.' | b'(' | b')' | b'|' | b'*' | b'+' | b'?' => {
                Err(RegexError::Unsupported(start))
            }
            b'[' => self.class(start),
            b'\\' => Ok(match self.escape(start)? {
                Escape::Char(c) => span(c, c),
                Escape::Class(set) => set,
            }),
            c => Ok(span(c, c)),
        }
    }

    /// The escape whose backslash sits at `start`, already consumed.
    fn escape(&mut self, start: usize) -> Result<Escape, RegexError> {
        Ok(match self.bump().ok_or(RegexError::UnexpectedEnd)? {
            b'd' => Escape::Class(span(b'0', b'9')),
            b'w' => Escape::Class(
                span(b'a', b'z') | span(b'A', b'Z') | span(b'0', b'9') | span(b'_', b'_'),
            ),
            b's' => Escape::Class(
                span(b' ', b' ') | span(b'\t', b'\t') | span(b'\n', b'\n') | span(b'\r', b'\r'),
            ),
            // Negated escapes match multi-byte chars.
            b'D' | b'W' | b'S' => return Err(RegexError::Unsupported(start)),
            b'n' => Escape::Char(b'\n'),
            b't' => Escape::Char(b'\t'),
            b'r' => Escape::Char(b'\r'),
            other => Escape::Char(other),
        })
    }

    /// The class whose `[` sits at `start`, already consumed.
    fn class(&mut self, start: usize) -> Result<u128, RegexError> {
        if self.peek() == Some(b'^') {
            // A negated class matches multi-byte chars.
            return Err(RegexError::Unsupported(self.pos));
        }
        let mut set = 0;
        // A leading `]` is a literal.
        if self.peek() == Some(b']') {
            self.pos += 1;
            set |= span(b']', b']');
        }
        loop {
            let at = self.pos;
            let lo = match self.bump().ok_or(RegexError::BadClass(start))? {
                b']' => return Ok(set),
                b'\\' => match self.escape(at)? {
                    Escape::Char(c) => c,
                    Escape::Class(sub) => {
                        set |= sub;
                        continue;
                    }
                },
                c => c,
            };
            if self.peek() != Some(b'-') || self.bytes.get(self.pos + 1) == Some(&b']') {
                set |= span(lo, lo);
                continue;
            }
            self.pos += 1; // '-'
            let at = self.pos;
            let hi = match self.bump().ok_or(RegexError::BadClass(start))? {
                b'\\' => match self.escape(at)? {
                    Escape::Char(c) => c,
                    Escape::Class(_) => return Err(RegexError::BadClass(start)),
                },
                c => c,
            };
            if hi < lo {
                return Err(RegexError::BadClass(start));
            }
            set |= span(lo, hi);
        }
    }

    /// The optional repetition: `(min, max)` with `max` `None` for no
    /// upper bound; a bare atom is `(1, Some(1))`.
    fn repetition(&mut self) -> Result<(u32, Option<u32>), RegexError> {
        let start = self.pos;
        let bounds = match self.peek() {
            Some(b'*') => (0, None),
            Some(b'+') => (1, None),
            Some(b'?') => (0, Some(1)),
            Some(b'{') => {
                self.pos += 1;
                let min = self.number().ok_or(RegexError::BadRepeat(start))?;
                return match self.bump() {
                    Some(b'}') => Ok((min, Some(min))),
                    Some(b',') if self.peek() == Some(b'}') => {
                        self.pos += 1;
                        Ok((min, None))
                    }
                    Some(b',') => match (self.number(), self.bump()) {
                        (Some(max), Some(b'}')) if max >= min => Ok((min, Some(max))),
                        _ => Err(RegexError::BadRepeat(start)),
                    },
                    _ => Err(RegexError::BadRepeat(start)),
                };
            }
            _ => return Ok((1, Some(1))),
        };
        self.pos += 1;
        Ok(bounds)
    }

    fn number(&mut self) -> Option<u32> {
        let start = self.pos;
        let mut n: u32 = 0;
        while let Some(d) = self.peek().filter(u8::is_ascii_digit) {
            n = n.checked_mul(10)?.checked_add(u32::from(d - b'0'))?;
            self.pos += 1;
        }
        (self.pos > start).then_some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::compile(p).expect("pattern compiles")
    }

    #[test]
    fn sha3_hexdigest_pattern() {
        // The transaction-id pattern from the schema (Fig. 5).
        let r = re("^[0-9a-f]{64}$");
        let ok = "a".repeat(64);
        assert!(r.is_match(&ok));
        assert!(!r.is_match(&"a".repeat(63)));
        assert!(!r.is_match(&"a".repeat(65)));
        assert!(!r.is_match(&("g".to_owned() + &"a".repeat(63))));
    }

    #[test]
    fn classes_and_negation() {
        let r = re("^[a-zA-Z_]+$");
        assert!(r.is_match("snake_Case"));
        assert!(!r.is_match("snake9"));
        assert!(re("^[a-zA-Z0-9_]*$").is_match("snake_case9"));
        assert!(re("^[]]$").is_match("]"));
        assert!(re("^[]a-c]+$").is_match("]ab]c"));
        // A trailing `-` is a literal, and a class may hold escapes.
        assert!(re("^[a-]+$").is_match("a-a"));
        assert!(re("^[\\d\\]x]+$").is_match("1]x9"));
        assert!(!re("^[\\d\\]x]+$").is_match("1]y"));
    }

    #[test]
    fn escapes() {
        assert!(re("^\\d+$").is_match("2024"));
        assert!(!re("^\\d+$").is_match("2x0"));
        assert!(re("^\\w+$").is_match("CREATE_2"));
        assert!(!re("^\\w+$").is_match("CREATE-2"));
        assert!(re("^\\s$").is_match(" "));
        assert!(re("^\\s*$").is_match(" \t\n\r"));
        assert!(re("^\\.$").is_match("."));
        assert!(!re("^\\.$").is_match("x"));
        assert!(re("^\\$$").is_match("$"));
        assert!(re("^\\^?$").is_match("^"));
        assert!(re("^\\n$").is_match("\n"));
        assert!(re("^\\t$").is_match("\t"));
        assert!(re("^[\\r]$").is_match("\r"));
    }

    #[test]
    fn repetitions() {
        assert!(re("^a*$").is_match(""));
        assert!(re("^a+$").is_match("aaa"));
        assert!(!re("^a+$").is_match(""));
        assert!(re("^a?$").is_match(""));
        assert!(re("^a?$").is_match("a"));
        assert!(!re("^a?$").is_match("aa"));
        assert!(re("^a$").is_match("a"));
        assert!(!re("^a$").is_match("aa"));
        assert!(re("^a{2,3}$").is_match("aa"));
        assert!(re("^a{2,3}$").is_match("aaa"));
        assert!(!re("^a{2,3}$").is_match("a"));
        assert!(!re("^a{2,3}$").is_match("aaaa"));
        assert!(re("^a{2,}$").is_match("aaaaa"));
        assert!(!re("^a{2,}$").is_match("a"));
        assert!(re("^a{0}$").is_match(""));
    }

    #[test]
    fn multi_byte_chars_never_match() {
        // Byte length 2 and 4 would pass the bounds; the class refuses.
        assert!(!re("^[a-z]{2}$").is_match("α"));
        assert!(!re("^[a-z]{1,4}$").is_match("\u{10348}"));
        assert!(!re("^[a-z]+$").is_match("aα"));
    }

    #[test]
    fn compile_errors() {
        assert_eq!(Regex::compile("^[a-").unwrap_err(), RegexError::BadClass(1));
        assert_eq!(
            Regex::compile("^[b-a]$").unwrap_err(),
            RegexError::BadClass(1)
        );
        assert_eq!(
            Regex::compile("^[a-\\d]$").unwrap_err(),
            RegexError::BadClass(1)
        );
        assert_eq!(
            Regex::compile("^a{3,1}$").unwrap_err(),
            RegexError::BadRepeat(2)
        );
        assert_eq!(
            Regex::compile("^a{x}$").unwrap_err(),
            RegexError::BadRepeat(2)
        );
        assert_eq!(
            Regex::compile("^a{99999999999}$").unwrap_err(),
            RegexError::BadRepeat(2)
        );
        assert_eq!(Regex::compile("^").unwrap_err(), RegexError::UnexpectedEnd);
        assert_eq!(
            Regex::compile("^\\").unwrap_err(),
            RegexError::UnexpectedEnd
        );
        // Offsets are bytes: `α` is two.
        assert_eq!(
            Regex::compile("^α+$").unwrap_err(),
            RegexError::Unsupported(1)
        );
        assert_eq!(
            Regex::compile("^[a-z]+$α").unwrap_err(),
            RegexError::Unsupported(8)
        );
    }

    #[test]
    fn every_other_shape_is_unsupported() {
        for (pattern, at) in [
            ("[0-9]{3}", 0),
            ("^[0-9]{3}", 9),
            ("^ab$", 2),
            ("^a|b$", 2),
            ("^(a+)+b$", 1),
            ("^(?:ab)$", 1),
            ("^.$", 1),
            ("^$", 1),
            ("^*a$", 1),
            ("^[^0-9]+$", 2),
            ("^\\D$", 1),
            ("^[\\W]$", 2),
            ("^a+?$", 3),
            ("^a{2}{3}$", 5),
        ] {
            assert_eq!(
                Regex::compile(pattern).unwrap_err(),
                RegexError::Unsupported(at),
                "{pattern}"
            );
        }
    }
}
