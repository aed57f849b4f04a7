//! A small backtracking regular-expression engine for schema `pattern`
//! constraints.
//!
//! Supported syntax: literals, `.`, character classes `[a-z0-9_]` (with
//! ranges and `^` negation), anchors `^` `$`, repetition `*` `+` `?`
//! `{n}` `{n,}` `{n,m}`, grouping `(...)`, alternation `|`, and `\`
//! escapes (including `\d`, `\w`, `\s`). Matching follows JSON-Schema
//! semantics: unanchored search unless the pattern anchors itself.

use std::fmt;

/// A compiled pattern.
#[derive(Debug, Clone)]
pub struct Regex {
    source: String,
    ast: Alt,
    /// Set when the whole pattern is `^C{m,n}$` for an ASCII class `C`:
    /// such patterns (e.g. the schema's hex-digest constraints) match
    /// with a byte loop instead of the backtracking engine.
    fast: Option<FastSpan>,
    /// Every alternative begins with `^`, so unanchored search only
    /// needs to try position 0.
    anchored_start: bool,
}

/// Byte-level matcher for `^C{m,n}$`: a 128-bit ASCII membership set
/// plus a repetition count. Multi-byte UTF-8 sequences can never match
/// an ASCII-only class, so byte counts and char counts agree on every
/// accepted string.
#[derive(Debug, Clone)]
struct FastSpan {
    bits: [u64; 2],
    min: u32,
    max: Option<u32>,
}

impl FastSpan {
    fn accepts(&self, b: u8) -> bool {
        b < 128 && (self.bits[(b >> 6) as usize] >> (b & 63)) & 1 == 1
    }

    fn matches(&self, text: &str) -> bool {
        let bytes = text.as_bytes();
        // A rejected length can only be rescued by multi-byte chars,
        // which the ASCII class rejects anyway.
        if (bytes.len() as u64) < u64::from(self.min) {
            return false;
        }
        if let Some(max) = self.max {
            if bytes.len() as u64 > u64::from(max) {
                return false;
            }
        }
        bytes.iter().all(|&b| self.accepts(b))
    }
}

/// Compilation errors with byte offsets into the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegexError {
    UnexpectedEnd,
    UnbalancedParen(usize),
    BadClass(usize),
    BadRepeat(usize),
    NothingToRepeat(usize),
}

impl fmt::Display for RegexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegexError::UnexpectedEnd => write!(f, "unexpected end of pattern"),
            RegexError::UnbalancedParen(i) => write!(f, "unbalanced parenthesis at offset {i}"),
            RegexError::BadClass(i) => write!(f, "malformed character class at offset {i}"),
            RegexError::BadRepeat(i) => write!(f, "malformed repetition at offset {i}"),
            RegexError::NothingToRepeat(i) => {
                write!(f, "repetition with no preceding atom at offset {i}")
            }
        }
    }
}

impl std::error::Error for RegexError {}

/// Alternation of concatenated sequences.
#[derive(Debug, Clone)]
struct Alt(Vec<Vec<Elem>>);

#[derive(Debug, Clone)]
struct Elem {
    atom: Atom,
    rep: Rep,
}

#[derive(Debug, Clone)]
enum Atom {
    Char(char),
    Any,
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
    Group(Alt),
    Start,
    End,
}

#[derive(Debug, Clone, Copy)]
enum Rep {
    One,
    Opt,
    Star,
    Plus,
    Range(u32, Option<u32>),
}

impl Regex {
    /// Compiles a pattern.
    pub fn compile(pattern: &str) -> Result<Regex, RegexError> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut p = PatParser { chars, pos: 0 };
        let ast = p.alternation(0)?;
        if p.pos != p.chars.len() {
            return Err(RegexError::UnbalancedParen(p.pos));
        }
        let fast = compile_fast_span(&ast);
        let anchored_start = ast
            .0
            .iter()
            .all(|seq| matches!(seq.first(), Some(e) if matches!(e.atom, Atom::Start)));
        Ok(Regex {
            source: pattern.to_owned(),
            ast,
            fast,
            anchored_start,
        })
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Unanchored search: true when the pattern matches anywhere in
    /// `text` (JSON-Schema `pattern` semantics).
    pub fn is_match(&self, text: &str) -> bool {
        if let Some(fast) = &self.fast {
            return fast.matches(text);
        }
        let chars: Vec<char> = text.chars().collect();
        let starts = if self.anchored_start {
            0..=0
        } else {
            0..=chars.len()
        };
        for start in starts {
            if match_alt(&self.ast, &chars, start, &mut |_| true) {
                return true;
            }
        }
        false
    }

    /// Anchored check: the whole string must match.
    pub fn matches_full(&self, text: &str) -> bool {
        if let Some(fast) = &self.fast {
            return fast.matches(text);
        }
        let chars: Vec<char> = text.chars().collect();
        let n = chars.len();
        match_alt(&self.ast, &chars, 0, &mut |end| end == n)
    }
}

/// Recognizes `^C{m,n}$` (and the `*` `+` `?` sugar) where `C` is a
/// positive ASCII-only class, a literal ASCII char, or an escape class.
/// Anything else — negation, non-ASCII, groups, alternation — keeps the
/// general engine.
fn compile_fast_span(ast: &Alt) -> Option<FastSpan> {
    let [seq] = ast.0.as_slice() else { return None };
    let [start, body, end] = seq.as_slice() else {
        return None;
    };
    if !matches!(start.atom, Atom::Start) || !matches!(end.atom, Atom::End) {
        return None;
    }
    let mut bits = [0u64; 2];
    let mut set = |c: char| {
        let b = c as u32;
        bits[(b >> 6) as usize] |= 1 << (b & 63);
    };
    match &body.atom {
        Atom::Char(c) if c.is_ascii() => set(*c),
        Atom::Class {
            negated: false,
            ranges,
        } if ranges.iter().all(|&(_, hi)| hi.is_ascii()) => {
            for &(lo, hi) in ranges {
                for c in lo..=hi {
                    set(c);
                }
            }
        }
        _ => return None,
    }
    let (min, max) = match body.rep {
        Rep::One => (1, Some(1)),
        Rep::Opt => (0, Some(1)),
        Rep::Star => (0, None),
        Rep::Plus => (1, None),
        Rep::Range(a, b) => (a, b),
    };
    Some(FastSpan { bits, min, max })
}

/// Continuation-passing matcher: `k(end)` decides whether a candidate
/// match ending at `end` is acceptable, enabling backtracking through
/// repetitions and groups without materializing all end positions.
fn match_alt(alt: &Alt, chars: &[char], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
    for seq in &alt.0 {
        if match_seq(seq, 0, chars, pos, k) {
            return true;
        }
    }
    false
}

fn match_seq(
    seq: &[Elem],
    idx: usize,
    chars: &[char],
    pos: usize,
    k: &mut dyn FnMut(usize) -> bool,
) -> bool {
    if idx == seq.len() {
        return k(pos);
    }
    let elem = &seq[idx];
    let (min, max) = match elem.rep {
        Rep::One => (1, Some(1)),
        Rep::Opt => (0, Some(1)),
        Rep::Star => (0, None),
        Rep::Plus => (1, None),
        Rep::Range(a, b) => (a, b),
    };
    match_counted(&elem.atom, min, max, 0, seq, idx, chars, pos, k)
}

/// Matches `atom` greedily between `min` and `max` times starting at
/// `pos`, then continues with the rest of the sequence.
#[allow(clippy::too_many_arguments)]
fn match_counted(
    atom: &Atom,
    min: u32,
    max: Option<u32>,
    count: u32,
    seq: &[Elem],
    idx: usize,
    chars: &[char],
    pos: usize,
    k: &mut dyn FnMut(usize) -> bool,
) -> bool {
    // Greedy: try one more repetition first (if allowed), then fall back
    // to continuing the sequence (if the minimum is satisfied).
    if max.is_none_or(|m| count < m) {
        let matched = match_atom(atom, chars, pos, &mut |end| {
            // Zero-width atoms must not loop forever.
            if end == pos && count >= min {
                return false;
            }
            match_counted(atom, min, max, count + 1, seq, idx, chars, end, k)
        });
        if matched {
            return true;
        }
    }
    if count >= min {
        return match_seq(seq, idx + 1, chars, pos, k);
    }
    false
}

fn match_atom(atom: &Atom, chars: &[char], pos: usize, k: &mut dyn FnMut(usize) -> bool) -> bool {
    match atom {
        Atom::Char(c) => pos < chars.len() && chars[pos] == *c && k(pos + 1),
        Atom::Any => pos < chars.len() && chars[pos] != '\n' && k(pos + 1),
        Atom::Class { negated, ranges } => {
            if pos >= chars.len() {
                return false;
            }
            let c = chars[pos];
            let inside = ranges.iter().any(|&(lo, hi)| c >= lo && c <= hi);
            inside != *negated && k(pos + 1)
        }
        Atom::Group(alt) => match_alt(alt, chars, pos, k),
        Atom::Start => pos == 0 && k(pos),
        Atom::End => pos == chars.len() && k(pos),
    }
}

struct PatParser {
    chars: Vec<char>,
    pos: usize,
}

impl PatParser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn alternation(&mut self, depth: usize) -> Result<Alt, RegexError> {
        let mut alts = vec![self.sequence(depth)?];
        while self.peek() == Some('|') {
            self.bump();
            alts.push(self.sequence(depth)?);
        }
        Ok(Alt(alts))
    }

    fn sequence(&mut self, depth: usize) -> Result<Vec<Elem>, RegexError> {
        let mut elems = Vec::new();
        loop {
            match self.peek() {
                None | Some('|') => break,
                Some(')') => {
                    if depth == 0 {
                        return Err(RegexError::UnbalancedParen(self.pos));
                    }
                    break;
                }
                _ => {}
            }
            let atom = self.atom(depth)?;
            let rep = self.repetition(&atom)?;
            elems.push(Elem { atom, rep });
        }
        Ok(elems)
    }

    fn atom(&mut self, depth: usize) -> Result<Atom, RegexError> {
        let start = self.pos;
        let c = self.bump().ok_or(RegexError::UnexpectedEnd)?;
        Ok(match c {
            '.' => Atom::Any,
            '^' => Atom::Start,
            '$' => Atom::End,
            '(' => {
                // Non-capturing prefix `?:` is accepted and ignored.
                if self.peek() == Some('?') {
                    self.bump();
                    if self.bump() != Some(':') {
                        return Err(RegexError::UnbalancedParen(start));
                    }
                }
                let inner = self.alternation(depth + 1)?;
                if self.bump() != Some(')') {
                    return Err(RegexError::UnbalancedParen(start));
                }
                Atom::Group(inner)
            }
            '[' => self.class(start)?,
            '\\' => self.escape()?,
            '*' | '+' | '?' => return Err(RegexError::NothingToRepeat(start)),
            other => Atom::Char(other),
        })
    }

    fn escape(&mut self) -> Result<Atom, RegexError> {
        let c = self.bump().ok_or(RegexError::UnexpectedEnd)?;
        Ok(match c {
            'd' => Atom::Class {
                negated: false,
                ranges: vec![('0', '9')],
            },
            'D' => Atom::Class {
                negated: true,
                ranges: vec![('0', '9')],
            },
            'w' => Atom::Class {
                negated: false,
                ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
            },
            'W' => Atom::Class {
                negated: true,
                ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
            },
            's' => Atom::Class {
                negated: false,
                ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
            },
            'S' => Atom::Class {
                negated: true,
                ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
            },
            'n' => Atom::Char('\n'),
            't' => Atom::Char('\t'),
            'r' => Atom::Char('\r'),
            other => Atom::Char(other),
        })
    }

    fn class(&mut self, start: usize) -> Result<Atom, RegexError> {
        let negated = if self.peek() == Some('^') {
            self.bump();
            true
        } else {
            false
        };
        let mut ranges = Vec::new();
        // A leading `]` is a literal.
        if self.peek() == Some(']') {
            self.bump();
            ranges.push((']', ']'));
        }
        loop {
            let c = self.bump().ok_or(RegexError::BadClass(start))?;
            if c == ']' {
                break;
            }
            let lo = if c == '\\' {
                match self.escape()? {
                    Atom::Char(ch) => ch,
                    Atom::Class {
                        negated: false,
                        ranges: sub,
                    } => {
                        ranges.extend(sub);
                        continue;
                    }
                    _ => return Err(RegexError::BadClass(start)),
                }
            } else {
                c
            };
            if self.peek() == Some('-') && self.chars.get(self.pos + 1) != Some(&']') {
                self.bump(); // '-'
                let hi = self.bump().ok_or(RegexError::BadClass(start))?;
                let hi = if hi == '\\' {
                    match self.escape()? {
                        Atom::Char(ch) => ch,
                        _ => return Err(RegexError::BadClass(start)),
                    }
                } else {
                    hi
                };
                if hi < lo {
                    return Err(RegexError::BadClass(start));
                }
                ranges.push((lo, hi));
            } else {
                ranges.push((lo, lo));
            }
        }
        Ok(Atom::Class { negated, ranges })
    }

    fn repetition(&mut self, atom: &Atom) -> Result<Rep, RegexError> {
        let rep = match self.peek() {
            Some('*') => Rep::Star,
            Some('+') => Rep::Plus,
            Some('?') => Rep::Opt,
            Some('{') => {
                let start = self.pos;
                self.bump();
                let min = self.number().ok_or(RegexError::BadRepeat(start))?;
                let rep = match self.bump() {
                    Some('}') => Rep::Range(min, Some(min)),
                    Some(',') => match self.peek() {
                        Some('}') => {
                            self.bump();
                            Rep::Range(min, None)
                        }
                        _ => {
                            let max = self.number().ok_or(RegexError::BadRepeat(start))?;
                            if self.bump() != Some('}') || max < min {
                                return Err(RegexError::BadRepeat(start));
                            }
                            Rep::Range(min, Some(max))
                        }
                    },
                    _ => return Err(RegexError::BadRepeat(start)),
                };
                if matches!(atom, Atom::Start | Atom::End) {
                    return Err(RegexError::BadRepeat(start));
                }
                return Ok(rep);
            }
            _ => return Ok(Rep::One),
        };
        if matches!(atom, Atom::Start | Atom::End) {
            return Err(RegexError::NothingToRepeat(self.pos));
        }
        self.bump();
        Ok(rep)
    }

    fn number(&mut self) -> Option<u32> {
        let mut n: u32 = 0;
        let mut any = false;
        while let Some(c) = self.peek() {
            if let Some(d) = c.to_digit(10) {
                n = n.checked_mul(10)?.checked_add(d)?;
                self.bump();
                any = true;
            } else {
                break;
            }
        }
        any.then_some(n)
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
    fn unanchored_search_semantics() {
        assert!(re("bid").is_match("accept_bid_tx"));
        assert!(!re("^bid").is_match("accept_bid"));
        assert!(re("bid$").is_match("accept_bid"));
    }

    #[test]
    fn classes_and_negation() {
        let r = re("^[^0-9]+$");
        assert!(r.is_match("abc"));
        assert!(!r.is_match("ab1c"));
        assert!(re("^[a-zA-Z_][a-zA-Z0-9_]*$").is_match("snake_case9"));
        assert!(re("[]]").is_match("]"));
    }

    #[test]
    fn escapes() {
        assert!(re("^\\d+\\.\\d+$").is_match("2.0"));
        assert!(!re("^\\d+\\.\\d+$").is_match("2x0"));
        assert!(re("^\\w+$").is_match("CREATE_2"));
        assert!(re("^\\s$").is_match(" "));
        assert!(re("^\\$\\^$").is_match("$^"));
    }

    #[test]
    fn alternation_and_groups() {
        let r = re("^(CREATE|TRANSFER|REQUEST|BID|RETURN|ACCEPT_BID)$");
        for op in [
            "CREATE",
            "TRANSFER",
            "REQUEST",
            "BID",
            "RETURN",
            "ACCEPT_BID",
        ] {
            assert!(r.is_match(op), "{op}");
        }
        assert!(!r.is_match("DELETE"));
        assert!(!r.is_match("BIDX"));
    }

    #[test]
    fn repetitions() {
        assert!(re("^a*$").is_match(""));
        assert!(re("^a+$").is_match("aaa"));
        assert!(!re("^a+$").is_match(""));
        assert!(re("^a?b$").is_match("b"));
        assert!(re("^a{2,3}$").is_match("aa"));
        assert!(re("^a{2,3}$").is_match("aaa"));
        assert!(!re("^a{2,3}$").is_match("a"));
        assert!(!re("^a{2,3}$").is_match("aaaa"));
        assert!(re("^a{2,}$").is_match("aaaaa"));
    }

    #[test]
    fn nested_groups_backtrack() {
        assert!(re("^(ab|a)b$").is_match("ab"));
        assert!(re("^(ab|a)b$").is_match("abb"));
        assert!(re("^(a+)+b$").is_match("aaab"));
        assert!(!re("^(a+)+b$").is_match("aaac"));
    }

    #[test]
    fn dot_excludes_newline() {
        assert!(re("^.$").is_match("x"));
        assert!(!re("^.$").is_match("\n"));
    }

    #[test]
    fn zero_width_star_terminates() {
        // (a?)* on a non-matching string must not loop forever.
        assert!(re("^(a?)*$").is_match(""));
        assert!(re("^(a?)*$").is_match("aaa"));
        assert!(!re("^(a?)*b$").is_match("c"));
    }

    #[test]
    fn matches_full_vs_search() {
        let r = re("[0-9]+");
        assert!(r.is_match("abc123def"));
        assert!(!r.matches_full("abc123def"));
        assert!(r.matches_full("123"));
    }

    #[test]
    fn compile_errors() {
        assert!(matches!(
            Regex::compile("("),
            Err(RegexError::UnbalancedParen(_) | RegexError::UnexpectedEnd)
        ));
        assert!(matches!(
            Regex::compile("a)"),
            Err(RegexError::UnbalancedParen(_))
        ));
        assert!(matches!(
            Regex::compile("[a-"),
            Err(RegexError::BadClass(_))
        ));
        assert!(matches!(
            Regex::compile("*a"),
            Err(RegexError::NothingToRepeat(_))
        ));
        assert!(matches!(
            Regex::compile("a{3,1}"),
            Err(RegexError::BadRepeat(_))
        ));
        assert!(matches!(
            Regex::compile("a{x}"),
            Err(RegexError::BadRepeat(_))
        ));
    }

    #[test]
    fn non_capturing_group_accepted() {
        assert!(re("^(?:foo|bar)$").is_match("bar"));
    }

    #[test]
    fn fast_span_covers_simple_anchored_patterns() {
        assert!(re("^[0-9a-f]{64}$").fast.is_some());
        assert!(re("^[a-z]+$").fast.is_some());
        assert!(re("^x*$").fast.is_some());
        assert!(re("^\\d?$").fast.is_some());
        // Shapes the fast path must decline.
        assert!(re("^[^0-9]+$").fast.is_none()); // negated
        assert!(re("^(?:[0-9a-f]){64}$").fast.is_none()); // group
        assert!(re("^a|b$").fast.is_none()); // alternation
        assert!(re("[0-9a-f]{64}").fast.is_none()); // unanchored
        assert!(re("^[α-ω]+$").fast.is_none()); // non-ASCII class
    }

    #[test]
    fn fast_span_agrees_with_the_engine() {
        // `(?:...)` wrapping defeats fast-span detection, so the pair
        // exercises both code paths over identical semantics.
        let cases = [
            ("^[0-9a-f]{64}$", "^(?:[0-9a-f]){64}$"),
            ("^[a-z]+$", "^(?:[a-z])+$"),
            ("^x*$", "^(?:x)*$"),
            ("^[0-9]{2,5}$", "^(?:[0-9]){2,5}$"),
        ];
        let inputs = [
            String::new(),
            "a".repeat(63),
            "a".repeat(64),
            "a".repeat(65),
            "0123456789abcdef".repeat(4),
            "x".to_owned(),
            "xxxx".to_owned(),
            "12".to_owned(),
            "12345".to_owned(),
            "123456".to_owned(),
            "g".to_owned() + &"a".repeat(63),
            "ααα".to_owned(),
            "aα".to_owned(),
            "\u{10348}".to_owned(),
        ];
        for (fast_pat, slow_pat) in cases {
            let fast = re(fast_pat);
            let slow = re(slow_pat);
            assert!(fast.fast.is_some(), "{fast_pat} should take the fast path");
            assert!(slow.fast.is_none());
            for input in &inputs {
                assert_eq!(
                    fast.is_match(input),
                    slow.is_match(input),
                    "{fast_pat} vs {slow_pat} on {input:?}"
                );
                assert_eq!(
                    fast.matches_full(input),
                    slow.matches_full(input),
                    "full: {fast_pat} on {input:?}"
                );
            }
        }
    }

    #[test]
    fn anchored_start_short_circuit_preserves_semantics() {
        // `(^a|^b)c` style: every alternative anchored → search only at 0.
        let r = re("^ab|^cd");
        assert!(r.anchored_start);
        assert!(r.is_match("abxx"));
        assert!(r.is_match("cdxx"));
        assert!(!r.is_match("xab"));
        // Mixed anchoring must keep the full scan.
        let mixed = re("^ab|cd");
        assert!(!mixed.anchored_start);
        assert!(mixed.is_match("xxcd"));
    }

    /// Every `pattern` the shipped transaction schemas carry compiles
    /// onto the byte-span path, so matching transaction text is one byte
    /// loop and never reaches the backtracker.
    #[test]
    fn every_shipped_pattern_is_a_byte_span() {
        fn patterns(value: &scdb_json::Value, found: &mut Vec<String>) {
            use scdb_json::Value;
            match value {
                Value::Object(map) => {
                    for (key, child) in map {
                        match (key.as_str(), child) {
                            ("pattern", Value::String(p)) => found.push(p.clone()),
                            _ => patterns(child, found),
                        }
                    }
                }
                Value::Array(items) => items.iter().for_each(|item| patterns(item, found)),
                _ => {}
            }
        }
        let mut found = Vec::new();
        for op in crate::OPERATIONS {
            let yaml = crate::schema_yaml(op).expect("a shipped operation");
            patterns(&crate::parse_yaml(&yaml).expect("shipped YAML"), &mut found);
        }
        assert!(!found.is_empty(), "the shipped schemas carry no pattern");
        for pattern in &found {
            assert!(
                re(pattern).fast.is_some(),
                "{pattern} needs the backtracker"
            );
        }
    }
}
