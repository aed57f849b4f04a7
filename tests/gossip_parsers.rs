//! Hostile bytes at the two parsers a proposer feeds every replica: the
//! gossiped wave schedule (`WaveSchedule::waves_from_wire`) and the
//! gossiped state digest (`StateDigest::from_hex`). Arbitrary strings
//! and one-byte mutations of valid wires must come back as a value or
//! an error, never a panic; and every digest wire `from_hex` accepts
//! must be exactly what `to_hex` writes for the parsed value.

use proptest::prelude::*;
use smartchaindb::core::WaveSchedule;
use smartchaindb::store::StateDigest;

fn digest_wire(entries: &[u64]) -> String {
    let mut digest = StateDigest::EMPTY;
    for entry in entries {
        digest.fold_add(*entry);
    }
    digest.to_hex()
}

fn schedule_wire(waves: Vec<Vec<usize>>) -> String {
    WaveSchedule {
        waves,
        footprints: Vec::new(),
    }
    .to_wire()
}

/// `wire` with the byte at `at` (modulo its length) replaced, removed
/// or duplicated, read back as text the way a replica would receive it.
fn mutate(wire: &str, at: usize, byte: u8, kind: usize) -> String {
    let mut bytes = wire.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    match kind {
        0 if at < bytes.len() => bytes[at] = byte,
        1 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, byte),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Both parsers on `wire`: neither may panic, and an accepted digest
/// must round-trip byte for byte.
fn parse_both(wire: &str) -> Result<(), TestCaseError> {
    let _ = WaveSchedule::waves_from_wire(wire);
    if let Some(digest) = StateDigest::from_hex(wire) {
        prop_assert_eq!(digest.to_hex(), wire);
    }
    Ok(())
}

/// JSON-shaped fragments, so arbitrary token strings reach past the
/// tokenizer into the schedule's own checks.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"v\"",
    "\"waves\"",
    ":",
    ",",
    "1",
    "0",
    "-1",
    "1e99",
    "2.5",
    "18446744073709551616",
    "null",
    "true",
    "\"x\"",
    " ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_strings_never_panic(
        wire in "\\PC{0,48}",
        hexish in "[0-9a-fA-F:+ -]{0,40}",
        tokens in prop::collection::vec(0usize..TOKENS.len(), 0..24),
    ) {
        parse_both(&wire)?;
        parse_both(&hexish)?;
        let jsonish: String = tokens.iter().map(|t| TOKENS[*t]).collect();
        parse_both(&jsonish)?;
    }

    #[test]
    fn mutated_valid_wires_never_panic(
        entries in prop::collection::vec(any::<u64>(), 0..4),
        waves in prop::collection::vec(prop::collection::vec(0usize..64, 0..4), 0..4),
        at in any::<usize>(),
        byte in any::<u8>(),
        kind in 0usize..3,
    ) {
        let digest = digest_wire(&entries);
        prop_assert!(StateDigest::from_hex(&digest).is_some(), "{digest}");
        let schedule = schedule_wire(waves.clone());
        prop_assert_eq!(WaveSchedule::waves_from_wire(&schedule), Ok(waves));
        parse_both(&mutate(&digest, at, byte, kind))?;
        parse_both(&mutate(&schedule, at, byte, kind))?;
    }
}

#[test]
fn the_digest_parser_takes_only_the_writers_spelling() {
    let wire = digest_wire(&[0xAC06_7882_DE03_EB25, 7]);
    assert_eq!(
        StateDigest::from_hex(&wire).map(|d| d.to_hex()),
        Some(wire.clone())
    );
    let fields: Vec<&str> = wire.split(':').collect();
    let [xor, sum, count] = fields[..] else {
        panic!("three fields: {wire}")
    };
    for respelled in [
        format!("+{}:{sum}:{count}", &xor[1..]),
        wire.to_uppercase(),
        format!("{}:{sum}:{count}", &xor[1..]),
        format!("{xor}:{sum}:0{count}"),
        format!(" {wire}"),
        format!("{wire}:"),
    ] {
        assert_eq!(StateDigest::from_hex(&respelled), None, "{respelled:?}");
    }
}
