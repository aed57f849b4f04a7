//! Property tests for the schema substrate.

use crate::model::{Schema, SchemaError};
use crate::regex::Regex;
use crate::yaml::{parse_yaml, YamlError, MAX_YAML_BYTES};
use proptest::prelude::*;
use scdb_json::Value;

/// The pattern syntax's metachars and a few literals.
const PATTERN_SOUP: [&str; 24] = [
    "^", "$", ".", "(", ")", "|", "*", "+", "?", "{", "}", ",", "[", "]", "-", "\\", "d", "D", "a",
    "z", "0", "9", "α", "3",
];

/// Chars a text under test mixes in: members of no ASCII class, of two
/// and four bytes, so a byte count read as a char count shows.
const MULTI_BYTE: [char; 3] = ['α', '\u{10348}', '\u{80}'];

/// An ASCII char as class text: alphanumerics raw, every other char
/// escaped (an escaped non-alphanumeric stands for itself).
fn class_char(b: u8) -> String {
    if b.is_ascii_alphanumeric() {
        char::from(b).to_string()
    } else {
        format!("\\{}", char::from(b))
    }
}

/// The repetition form `form` (0–5) over `n` and `m` as pattern text,
/// with the bounds it means.
fn repetition(form: u8, n: u32, m: u32) -> (String, u32, Option<u32>) {
    match form {
        0 => ("*".to_owned(), 0, None),
        1 => ("+".to_owned(), 1, None),
        2 => ("?".to_owned(), 0, Some(1)),
        3 => (format!("{{{n}}}"), n, Some(n)),
        4 => (format!("{{{n},}}"), n, None),
        _ => {
            let (lo, hi) = (n.min(m), n.max(m));
            (format!("{{{lo},{hi}}}"), lo, Some(hi))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The YAML parser never panics on arbitrary input.
    #[test]
    fn yaml_parser_total(s in "\\PC{0,200}") {
        let _ = parse_yaml(&s);
    }

    /// Scalars round-trip: a flat YAML mapping of printable values parses
    /// into an object containing every key.
    #[test]
    fn yaml_flat_mapping_keys(keys in prop::collection::btree_set("[a-z]{1,8}", 1..8)) {
        let mut text = String::new();
        for (i, k) in keys.iter().enumerate() {
            text.push_str(&format!("{k}: {i}\n"));
        }
        let v = parse_yaml(&text).expect("flat mapping parses");
        for k in &keys {
            prop_assert!(v.get(k).is_some(), "missing key {}", k);
        }
    }

    /// Compilation is total over pattern-syntax soup: it succeeds or
    /// returns a structured error, and a compiled pattern matches.
    #[test]
    fn regex_compile_total(
        soup in prop::collection::vec(0..PATTERN_SOUP.len(), 0..16),
        anchored in any::<bool>(),
        tail in "\\PC{0,4}",
    ) {
        let body: String = soup.iter().map(|&i| PATTERN_SOUP[i]).collect();
        let pat = if anchored { format!("^{body}$") } else { format!("{body}{tail}") };
        if let Ok(re) = Regex::compile(&pat) {
            let _ = re.is_match("sample text 123");
        }
    }

    /// The hex-digest pattern accepts exactly 64-char lowercase hex.
    #[test]
    fn sha3_pattern_classifies(s in "[0-9a-g]{60,68}") {
        let re = Regex::compile("^[0-9a-f]{64}$").unwrap();
        let expected = s.len() == 64 && s.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase() && c != 'g');
        prop_assert_eq!(re.is_match(&s), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The byte loop decides what the pattern means over chars: a text
    /// matches `^[R]{m,n}$` exactly when it holds between `m` and `n`
    /// chars, each inside one of the ranges `R`. Lengths sit at the
    /// bounds, and multi-byte chars are mixed in, so a byte count
    /// standing in for a char count shows.
    #[test]
    fn byte_span_equals_the_char_oracle(
        ranges in prop::collection::vec((0u8..128, 0u8..128), 1..=4),
        rep in (0u8..6, 0u32..=70, 0u32..=70),
        shape in (0u8..3, -2i64..=2, 0i64..=75, 0u8..4),
        picks in prop::collection::vec((0u8..8, any::<u64>()), 80),
    ) {
        let ranges: Vec<(u8, u8)> = ranges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
        let (rep_text, min, max) = repetition(rep.0, rep.1, rep.2);
        let class: String = ranges
            .iter()
            .map(|&(lo, hi)| {
                if lo == hi {
                    class_char(lo)
                } else {
                    format!("{}-{}", class_char(lo), class_char(hi))
                }
            })
            .collect();
        let pattern = format!("^[{class}]{rep_text}$");
        let re = Regex::compile(&pattern);
        prop_assert!(re.is_ok(), "{pattern} refused: {re:?}");
        let re = re.expect("checked");

        let (anchor, offset, free, noise) = shape;
        let len = match anchor {
            0 => i64::from(min) + offset,
            1 => i64::from(max.unwrap_or(min + 3)) + offset,
            _ => free,
        }
        .clamp(0, picks.len() as i64) as usize;
        let intruder_at = picks[0].1 as usize % len.max(1);
        let member = |x: u64| {
            let (lo, hi) = ranges[x as usize % ranges.len()];
            char::from(lo + (x % (u64::from(hi - lo) + 1)) as u8)
        };
        let intruder = |x: u64| match x % 4 {
            0 => char::from((x >> 8) as u8 & 0x7f),
            k => MULTI_BYTE[k as usize - 1],
        };
        let text: String = picks[..len]
            .iter()
            .enumerate()
            .map(|(i, &(kind, x))| match noise {
                0 if kind >= 6 => intruder(x),
                1 if i == intruder_at => intruder(x),
                _ => member(x),
            })
            .collect();

        let in_ranges = |c: char| ranges.iter().any(|&(lo, hi)| (char::from(lo)..=char::from(hi)).contains(&c));
        let chars = text.chars().count() as u64;
        let oracle = u64::from(min) <= chars
            && max.is_none_or(|max| chars <= u64::from(max))
            && text.chars().all(in_ranges);
        prop_assert_eq!(re.is_match(&text), oracle, "{} on {:?}", pattern, text);
    }
}

/// Every shape outside `^C{m,n}$` for one positive ASCII class `C` is
/// refused when its schema compiles.
#[test]
fn removed_shapes_are_refused_by_the_schema() {
    for pattern in [
        "^(a+)+b$",
        "^[^0-9]+$",
        "^.$",
        "^a|b$",
        "^ab$",
        "[0-9]{3}",
        "^[α-ω]+$",
        "^\\D$",
    ] {
        let yaml = format!("type: string\npattern: '{pattern}'\n");
        assert!(
            matches!(Schema::from_yaml(&yaml), Err(SchemaError::Pattern(ref p, _)) if p == pattern),
            "{pattern} compiled"
        );
    }
}

/// The chars hostile YAML is made of.
const YAML_SOUP: [char; 16] = [
    '\'', '"', '\\', '#', ':', ' ', '\n', '[', ']', ',', '-', 'a', '{', '&', '|', '\t',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The YAML parser returns — `Ok` or a structured error, never a
    /// panic or a stack overflow — on hostile documents: deep
    /// indentation, long and deeply nested flow sequences, quote soup,
    /// `- - - -` chains, and a document one byte over the bound.
    #[test]
    fn yaml_parser_survives_hostile_documents(
        kind in 0u8..6,
        n in 0usize..=20_000,
        soup in prop::collection::vec(0..YAML_SOUP.len(), 0..4_000),
    ) {
        let doc: String = match kind {
            0 => (0..n % 400).map(|i| format!("{}k:\n", " ".repeat(i))).collect(),
            1 => {
                let items: Vec<String> = (0..n.min(10_000)).map(|i| i.to_string()).collect();
                format!("k: [{}]\n", items.join(", "))
            }
            2 => format!("k: {}{}\n", "[".repeat(n), "]".repeat(n)),
            3 => soup.iter().map(|&i| YAML_SOUP[i]).collect(),
            4 => (0..n % 200)
                .map(|i| format!("{}{}x: 1\n", " ".repeat(i % 40), "- ".repeat(i)))
                .collect(),
            _ => {
                let doc = "a: 1\n".repeat(MAX_YAML_BYTES / 5 + 1);
                doc[..MAX_YAML_BYTES + 1].to_owned()
            }
        };
        let parsed = parse_yaml(&doc);
        if doc.len() > MAX_YAML_BYTES {
            prop_assert_eq!(parsed, Err(YamlError::TooLarge { bytes: doc.len() }));
        } else if kind == 1 {
            let items = parsed.ok().and_then(|v| v.get("k").and_then(Value::as_array).map(<[Value]>::len));
            prop_assert_eq!(items, Some(n.min(10_000)));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every generated transaction that passes the schema keeps passing
    /// after a JSON round trip (schema validity is representation-stable).
    #[test]
    fn schema_validity_survives_round_trip(seedbyte in any::<u8>()) {
        let hexid: String = std::iter::repeat_n(char::from_digit((seedbyte % 16) as u32, 16).unwrap(), 64).collect();
        let tx = scdb_json::obj! {
            "id" => hexid.clone(),
            "version" => "2.0",
            "operation" => "CREATE",
            "asset" => scdb_json::obj! { "data" => scdb_json::obj! { "n" => seedbyte as i64 } },
            "inputs" => scdb_json::arr![scdb_json::obj! {
                "owners_before" => scdb_json::arr![hexid.clone()],
                "fulfillment" => "sig",
                "fulfills" => Value::Null,
            }],
            "outputs" => scdb_json::arr![scdb_json::obj! {
                "amount" => 1,
                "public_keys" => scdb_json::arr![hexid],
            }],
            "metadata" => Value::Null,
            "children" => Value::array(),
            "references" => Value::array(),
        };
        prop_assert!(crate::validate_transaction_schema(&tx).is_ok());
        let reparsed = scdb_json::parse(&tx.to_compact_string()).unwrap();
        prop_assert!(crate::validate_transaction_schema(&reparsed).is_ok());
    }
}
