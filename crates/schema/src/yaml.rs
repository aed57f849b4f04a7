//! A YAML-subset parser producing [`scdb_json::Value`] documents.
//!
//! SmartchainDB defines its transaction schemas in YAML (paper Fig. 5).
//! The subset implemented here covers everything those schemas use:
//! block mappings and sequences, compact `- key: value` sequence items,
//! quoted and plain scalars, flow sequences `[a, b]`, comments, and blank
//! lines. Anchors, aliases, tags, multi-line scalars and flow mappings
//! are out of scope and rejected with errors rather than misparsed.

use scdb_json::{Map, Number, Value};
use std::fmt;

/// Errors produced while parsing the YAML subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum YamlError {
    /// Tabs are not allowed in indentation (YAML spec).
    TabInIndent(usize),
    /// A mapping line without a `:` separator.
    MissingColon(usize),
    /// Mixed sequence/mapping entries at one indentation level.
    MixedBlock(usize),
    /// Unterminated quoted scalar.
    UnterminatedQuote(usize),
    /// Unsupported YAML feature (anchors, tags, flow mappings, ...).
    Unsupported(usize, &'static str),
    /// Inconsistent indentation.
    BadIndent(usize),
    /// Duplicate mapping key.
    DuplicateKey(usize, String),
    /// Blocks, or flow sequences within one line, nested deeper than
    /// 128 (the line that opens the first level past the bound).
    TooDeep(usize),
    /// The document is longer than [`MAX_YAML_BYTES`]; refused unparsed.
    TooLarge { bytes: usize },
}

/// How deep blocks may nest: the bound `scdb_json::parse` puts on JSON
/// nesting, so a hostile document is refused, not a stack overflow.
const MAX_DEPTH: usize = 128;

/// The longest document [`parse_yaml`] reads. A shipped transaction
/// schema is under 3 KiB; the bound keeps a hostile document's parse
/// time and memory small before any line is looked at.
pub const MAX_YAML_BYTES: usize = 64 * 1024;

impl fmt::Display for YamlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            YamlError::TabInIndent(l) => write!(f, "line {l}: tab in indentation"),
            YamlError::MissingColon(l) => write!(f, "line {l}: expected 'key: value'"),
            YamlError::MixedBlock(l) => write!(f, "line {l}: mixed sequence and mapping entries"),
            YamlError::UnterminatedQuote(l) => write!(f, "line {l}: unterminated quote"),
            YamlError::Unsupported(l, what) => {
                write!(f, "line {l}: unsupported YAML feature: {what}")
            }
            YamlError::BadIndent(l) => write!(f, "line {l}: inconsistent indentation"),
            YamlError::DuplicateKey(l, k) => write!(f, "line {l}: duplicate key {k:?}"),
            YamlError::TooDeep(l) => write!(f, "line {l}: nested deeper than {MAX_DEPTH} levels"),
            YamlError::TooLarge { bytes } => {
                write!(
                    f,
                    "document of {bytes} bytes exceeds the {MAX_YAML_BYTES}-byte bound"
                )
            }
        }
    }
}

impl std::error::Error for YamlError {}

#[derive(Debug, Clone)]
struct Line {
    /// 1-based source line (for errors).
    number: usize,
    indent: usize,
    text: String,
}

/// Parses a YAML document into a JSON value.
pub fn parse_yaml(input: &str) -> Result<Value, YamlError> {
    if input.len() > MAX_YAML_BYTES {
        return Err(YamlError::TooLarge { bytes: input.len() });
    }
    let mut lines = Vec::new();
    for (idx, raw) in input.lines().enumerate() {
        let number = idx + 1;
        let stripped = strip_comment(raw);
        let trimmed_end = stripped.trim_end();
        if trimmed_end.trim().is_empty() {
            continue;
        }
        let indent = trimmed_end.len() - trimmed_end.trim_start().len();
        if trimmed_end[..indent].contains('\t') {
            return Err(YamlError::TabInIndent(number));
        }
        if trimmed_end.trim_start().starts_with('%') || trimmed_end.trim() == "---" {
            continue; // directives / document start markers are ignored
        }
        lines.push(Line {
            number,
            indent,
            text: trimmed_end.trim_start().to_owned(),
        });
    }
    let mut parser = Parser { lines, pos: 0 };
    let v = parser.block(0)?;
    if parser.pos < parser.lines.len() {
        return Err(YamlError::BadIndent(parser.lines[parser.pos].number));
    }
    Ok(v)
}

/// Removes a trailing `# comment`, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut quote: Option<u8> = None;
    for (i, &b) in bytes.iter().enumerate() {
        match quote {
            Some(q) => {
                if b == q {
                    quote = None;
                }
            }
            None => match b {
                b'\'' | b'"' => quote = Some(b),
                b'#'
                    // `#` starts a comment at line start or after a space.
                    if (i == 0 || bytes[i - 1] == b' ' || bytes[i - 1] == b'\t') => {
                        return &line[..i];
                    }
                _ => {}
            },
        }
    }
    line
}

struct Parser {
    lines: Vec<Line>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Line> {
        self.lines.get(self.pos)
    }

    /// The block opened by the next line, at that line's indent,
    /// `depth` blocks below the document's; no line left is null.
    fn block(&mut self, depth: usize) -> Result<Value, YamlError> {
        let Some(first) = self.peek() else {
            return Ok(Value::Null);
        };
        if depth > MAX_DEPTH {
            return Err(YamlError::TooDeep(first.number));
        }
        let indent = first.indent;
        if first.text.starts_with("- ") || first.text == "-" {
            self.sequence(indent, depth)
        } else {
            self.mapping(indent, depth)
        }
    }

    fn sequence(&mut self, indent: usize, depth: usize) -> Result<Value, YamlError> {
        let mut items = Vec::new();
        while let Some(line) = self.peek() {
            if line.indent < indent {
                break;
            }
            if line.indent > indent {
                return Err(YamlError::BadIndent(line.number));
            }
            if !(line.text.starts_with("- ") || line.text == "-") {
                return Err(YamlError::MixedBlock(line.number));
            }
            let number = line.number;
            let rest = line.text[1..].trim_start().to_owned();
            if rest.is_empty() {
                // Block item: content on following deeper-indented lines.
                self.pos += 1;
                match self.peek() {
                    Some(next) if next.indent > indent => items.push(self.block(depth + 1)?),
                    _ => items.push(Value::Null),
                }
            } else if is_mapping_entry(&rest) {
                // Compact `- key: value`: rewrite the line as a mapping
                // entry two columns deeper and parse the mapping block.
                let virtual_indent = indent + 2;
                self.lines[self.pos] = Line {
                    number,
                    indent: virtual_indent,
                    text: rest,
                };
                // Any following lines of this item are deeper than `indent`;
                // they must sit at `virtual_indent` for the subset.
                items.push(self.mapping(virtual_indent, depth + 1)?);
            } else {
                items.push(parse_scalar(&rest, number)?);
                self.pos += 1;
            }
        }
        Ok(Value::Array(items))
    }

    fn mapping(&mut self, indent: usize, depth: usize) -> Result<Value, YamlError> {
        let mut map = Map::new();
        while let Some(line) = self.peek() {
            if line.indent < indent {
                break;
            }
            if line.indent > indent {
                return Err(YamlError::BadIndent(line.number));
            }
            if line.text.starts_with("- ") || line.text == "-" {
                return Err(YamlError::MixedBlock(line.number));
            }
            let number = line.number;
            let (key, rest) = split_key(&line.text, number)?;
            if map.contains_key(&key) {
                return Err(YamlError::DuplicateKey(number, key));
            }
            if rest.is_empty() {
                self.pos += 1;
                match self.peek() {
                    Some(next) if next.indent > indent => {
                        let v = self.block(depth + 1)?;
                        map.insert(key, v);
                    }
                    _ => {
                        map.insert(key, Value::Null);
                    }
                }
            } else {
                map.insert(key, parse_scalar(&rest, number)?);
                self.pos += 1;
            }
        }
        Ok(Value::Object(map))
    }
}

/// True when `text` looks like `key: ...` or `key:` (a mapping entry).
fn is_mapping_entry(text: &str) -> bool {
    match find_key_colon(text) {
        Some(idx) => {
            let after = &text[idx + 1..];
            after.is_empty() || after.starts_with(' ')
        }
        None => false,
    }
}

/// Finds the colon terminating the key, respecting quoted keys.
fn find_key_colon(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    if bytes[0] == b'"' || bytes[0] == b'\'' {
        let q = bytes[0];
        let close = text[1..].find(q as char)? + 1;
        return text[close + 1..].find(':').map(|i| close + 1 + i);
    }
    let mut idx = 0;
    while let Some(i) = text[idx..].find(':') {
        let at = idx + i;
        let after = &text[at + 1..];
        if after.is_empty() || after.starts_with(' ') {
            return Some(at);
        }
        idx = at + 1;
    }
    None
}

fn split_key(text: &str, line: usize) -> Result<(String, String), YamlError> {
    let colon = find_key_colon(text).ok_or(YamlError::MissingColon(line))?;
    let raw_key = text[..colon].trim();
    let key = if (raw_key.starts_with('"') && raw_key.ends_with('"') && raw_key.len() >= 2)
        || (raw_key.starts_with('\'') && raw_key.ends_with('\'') && raw_key.len() >= 2)
    {
        raw_key[1..raw_key.len() - 1].to_owned()
    } else {
        raw_key.to_owned()
    };
    Ok((key, text[colon + 1..].trim().to_owned()))
}

fn parse_scalar(text: &str, line: usize) -> Result<Value, YamlError> {
    let t = text.trim();
    if t.starts_with('&') || t.starts_with('*') || t.starts_with('!') {
        return Err(YamlError::Unsupported(line, "anchors/aliases/tags"));
    }
    if t.starts_with('{') {
        return Err(YamlError::Unsupported(line, "flow mappings"));
    }
    if t.starts_with('|') || t.starts_with('>') {
        return Err(YamlError::Unsupported(line, "block scalars"));
    }
    if t.starts_with('[') {
        return parse_flow_sequence(t, line);
    }
    match t.chars().next() {
        Some(q @ ('"' | '\'')) => parse_quoted(t, q, line),
        _ => Ok(plain_scalar(t)),
    }
}

/// The scalar `t`, which opens with the quote `q`.
fn parse_quoted(t: &str, q: char, line: usize) -> Result<Value, YamlError> {
    if t.len() < 2 || !t.ends_with(q) {
        return Err(YamlError::UnterminatedQuote(line));
    }
    let inner = &t[1..t.len() - 1];
    if q == '\'' {
        // Single quotes: '' is an escaped quote, nothing else is special.
        Ok(Value::String(inner.replace("''", "'")))
    } else {
        // Double quotes: support the escapes our schemas need.
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some(other) => {
                        out.push('\\');
                        out.push(other);
                    }
                    None => return Err(YamlError::UnterminatedQuote(line)),
                }
            } else {
                out.push(c);
            }
        }
        Ok(Value::String(out))
    }
}

fn parse_flow_sequence(t: &str, line: usize) -> Result<Value, YamlError> {
    if !t.ends_with(']') {
        return Err(YamlError::Unsupported(line, "multi-line flow sequences"));
    }
    let inner = &t[1..t.len() - 1];
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut quote: Option<char> = None;
    let mut cur = String::new();
    for c in inner.chars() {
        match quote {
            Some(q) => {
                cur.push(c);
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                '\'' | '"' => {
                    quote = Some(c);
                    cur.push(c);
                }
                '[' => {
                    // Each nested sequence is parsed by a recursive call.
                    depth += 1;
                    if depth > MAX_DEPTH {
                        return Err(YamlError::TooDeep(line));
                    }
                    cur.push(c);
                }
                ']' => {
                    depth = depth.saturating_sub(1);
                    cur.push(c);
                }
                ',' if depth == 0 => {
                    if !cur.trim().is_empty() {
                        items.push(parse_scalar(cur.trim(), line)?);
                    }
                    cur.clear();
                }
                _ => cur.push(c),
            },
        }
    }
    if !cur.trim().is_empty() {
        items.push(parse_scalar(cur.trim(), line)?);
    }
    Ok(Value::Array(items))
}

fn plain_scalar(t: &str) -> Value {
    match t {
        "null" | "~" | "Null" | "NULL" => return Value::Null,
        "true" | "True" | "TRUE" => return Value::Bool(true),
        "false" | "False" | "FALSE" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(i) = t.parse::<i64>() {
        return Value::Number(Number::Int(i));
    }
    if let Ok(u) = t.parse::<u64>() {
        return Value::Number(Number::from(u));
    }
    // Floats: require a digit so strings like ".hidden" stay strings.
    if t.contains(['.', 'e', 'E'])
        && t.chars()
            .next()
            .is_some_and(|c| c.is_ascii_digit() || c == '-')
    {
        if let Ok(f) = t.parse::<f64>() {
            if f.is_finite() {
                return Value::Number(Number::Float(f));
            }
        }
    }
    Value::String(t.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_json::{arr, obj};

    #[test]
    fn parses_nested_mapping() {
        let y = r"
type: object
properties:
  id:
    type: string
    pattern: '^[0-9a-f]{64}$'
  amount:
    type: integer
";
        let v = parse_yaml(y).unwrap();
        assert_eq!(
            v.pointer("properties.id.pattern").and_then(Value::as_str),
            Some("^[0-9a-f]{64}$")
        );
        assert_eq!(
            v.pointer("properties.amount.type").and_then(Value::as_str),
            Some("integer")
        );
    }

    #[test]
    fn parses_block_and_flow_sequences() {
        let y = r"
required:
  - id
  - operation
enum: [CREATE, TRANSFER, BID]
counts: [1, 2, 3]
";
        let v = parse_yaml(y).unwrap();
        assert_eq!(v.pointer("required"), Some(&arr!["id", "operation"]));
        assert_eq!(v.pointer("enum"), Some(&arr!["CREATE", "TRANSFER", "BID"]));
        assert_eq!(v.pointer("counts"), Some(&arr![1, 2, 3]));
    }

    #[test]
    fn compact_sequence_of_mappings() {
        let y = r"
items:
  - name: a
    size: 1
  - name: b
    size: 2
";
        let v = parse_yaml(y).unwrap();
        assert_eq!(v.pointer("items.0.name").and_then(Value::as_str), Some("a"));
        assert_eq!(v.pointer("items.1.size").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let y = "# transaction schema\ntype: object   # top-level\n\nadditionalProperties: false\n";
        let v = parse_yaml(y).unwrap();
        assert_eq!(
            v,
            obj! { "type" => "object", "additionalProperties" => false }
        );
    }

    #[test]
    fn hash_inside_quotes_is_not_comment() {
        let v = parse_yaml("pattern: '^#[0-9]+$'\n").unwrap();
        assert_eq!(
            v.pointer("pattern").and_then(Value::as_str),
            Some("^#[0-9]+$")
        );
    }

    #[test]
    fn scalar_typing() {
        let v =
            parse_yaml("a: null\nb: true\nc: 42\nd: -1\ne: 2.5\nf: hello world\ng: ~\n").unwrap();
        assert!(v.get("a").unwrap().is_null());
        assert_eq!(v.get("b").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("c").and_then(Value::as_i64), Some(42));
        assert_eq!(v.get("d").and_then(Value::as_i64), Some(-1));
        assert_eq!(
            v.get("e").and_then(Value::as_number).map(|n| n.as_f64()),
            Some(2.5)
        );
        assert_eq!(v.get("f").and_then(Value::as_str), Some("hello world"));
        assert!(v.get("g").unwrap().is_null());
    }

    #[test]
    fn quoted_strings_preserve_specials() {
        let v = parse_yaml("a: 'true'\nb: \"42\"\nc: 'it''s'\nd: \"line\\nbreak\"\n").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_str), Some("true"));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("42"));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("it's"));
        assert_eq!(v.get("d").and_then(Value::as_str), Some("line\nbreak"));
    }

    #[test]
    fn empty_value_is_null_unless_block_follows() {
        let y = "a:\nb: 1\nc:\n  d: 2\n";
        let v = parse_yaml(y).unwrap();
        assert!(v.get("a").unwrap().is_null());
        assert_eq!(v.pointer("c.d").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn sequence_of_blocks() {
        let y = r"
-
  a: 1
-
  a: 2
";
        let v = parse_yaml(y).unwrap();
        assert_eq!(v.pointer("0.a").and_then(Value::as_i64), Some(1));
        assert_eq!(v.pointer("1.a").and_then(Value::as_i64), Some(2));
    }

    #[test]
    fn rejects_tabs_and_mixed_blocks() {
        assert!(matches!(
            parse_yaml("\ta: 1\n"),
            Err(YamlError::TabInIndent(1))
        ));
        assert!(matches!(
            parse_yaml("a: 1\n- b\n"),
            Err(YamlError::MixedBlock(2))
        ));
    }

    #[test]
    fn rejects_unsupported_features() {
        assert!(matches!(
            parse_yaml("a: &anchor 1\n"),
            Err(YamlError::Unsupported(1, _))
        ));
        assert!(matches!(
            parse_yaml("a: {x: 1}\n"),
            Err(YamlError::Unsupported(1, _))
        ));
        assert!(matches!(
            parse_yaml("a: |\n  text\n"),
            Err(YamlError::Unsupported(1, _))
        ));
    }

    #[test]
    fn rejects_duplicate_keys() {
        assert!(matches!(
            parse_yaml("a: 1\na: 2\n"),
            Err(YamlError::DuplicateKey(2, _))
        ));
    }

    /// Nesting is refused at the JSON parser's depth, not by a stack
    /// overflow that aborts the process. Level `i` is indented `i`
    /// columns, so the document grows with the square of its depth:
    /// 300 levels fit the size bound and are refused at the depth
    /// bound; 4,000 levels (8 MB, which overflowed a 1 MiB stack before
    /// either bound) are refused unread. Nested flow sequences recurse
    /// too and take the same depth bound.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let staircase = |depth: usize| -> String {
            (0..depth)
                .map(|i| format!("{}k:\n", " ".repeat(i)))
                .collect()
        };
        let flow = |depth: usize| format!("k: {}{}\n", "[".repeat(depth), "]".repeat(depth));
        let parse = |doc: String| {
            std::thread::Builder::new()
                .stack_size(1 << 20)
                .spawn(move || parse_yaml(&doc))
                .expect("spawn")
                .join()
                .expect("no stack overflow")
        };
        assert_eq!(
            parse(staircase(300)),
            Err(YamlError::TooDeep(MAX_DEPTH + 2))
        );
        assert_eq!(
            parse(staircase(4_000)),
            Err(YamlError::TooLarge { bytes: 8_010_000 })
        );
        assert_eq!(parse(flow(30_000)), Err(YamlError::TooDeep(1)));
        // At the bound itself the document still parses.
        assert!(parse_yaml(&staircase(MAX_DEPTH + 1)).is_ok());
        assert!(parse_yaml(&flow(MAX_DEPTH + 1)).is_ok());
    }

    #[test]
    fn document_marker_skipped() {
        let v = parse_yaml("---\na: 1\n").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_i64), Some(1));
    }

    #[test]
    fn empty_document_is_null() {
        assert_eq!(parse_yaml("").unwrap(), Value::Null);
        assert_eq!(parse_yaml("# only comments\n").unwrap(), Value::Null);
    }

    #[test]
    fn url_value_with_colon_stays_one_string() {
        let v = parse_yaml("ref: \"#/definitions/asset\"\n").unwrap();
        assert_eq!(
            v.get("ref").and_then(Value::as_str),
            Some("#/definitions/asset")
        );
    }
}
