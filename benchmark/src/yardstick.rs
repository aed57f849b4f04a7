//! The yardstick: a fixed piece of work, built from the standard
//! library only, that the harness times before, between and after the
//! repetitions and the set-ups of a run.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! drifts: for minutes at a time everything — set-up, commits,
//! recovery — runs 30–50 % slower, whatever the program does. A median
//! over one run's repetitions cannot remove a spell that outlasts the
//! run, so every timing is divided by how much slower than
//! [`REFERENCE_S`] the yardstick ran during the same run, and reads as
//! the time the same work takes at the reference speed.
//!
//! The yardstick shares no code with the program (no `scdb-*` call), so
//! no change to the program can move it: a real regression still shows
//! in full. Its two parts are the kinds of work the spells were seen to
//! slow by different amounts, in the proportion that tracked all four
//! workloads best over hours of recorded runs: wide integer
//! multiplication (signature checks: slowed 1.1–1.6×) and writing,
//! scanning, hashing and sorting short strings (parsing, indexes, the
//! document store: slowed 1.5–2×). It runs on the driving thread alone:
//! timing freshly spawned threads was tried and read the scheduler's
//! placement of them (45 or 120 µs a hand-off, flipping by the minute),
//! not the host's speed.

use crate::stats::trimmed_mean;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// What one [`run`] takes on the 2-core reference host in a quiet spell.
pub const REFERENCE_S: f64 = 0.044;

/// Sizes of the two parts: three tenths and seven tenths of a quiet
/// reading.
const FIELD_ROUNDS: u64 = 400_000;
const RECORDS: u64 = 20_000;
const TEXTS: u64 = 3;

/// Multiplies two field elements of five 51-bit limbs modulo 2^255 - 19:
/// the wide multiplies and carries of signature verification.
fn field_mul(a: [u64; 5], b: [u64; 5]) -> [u64; 5] {
    const MASK: u64 = (1 << 51) - 1;
    let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
    let b19 = [b[0], b[1] * 19, b[2] * 19, b[3] * 19, b[4] * 19];
    let mut wide = [
        m(a[0], b[0]) + m(a[1], b19[4]) + m(a[2], b19[3]) + m(a[3], b19[2]) + m(a[4], b19[1]),
        m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b19[4]) + m(a[3], b19[3]) + m(a[4], b19[2]),
        m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b19[4]) + m(a[4], b19[3]),
        m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b19[4]),
        m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
    ];
    let mut out = [0u64; 5];
    for limb in 0..4 {
        wide[limb + 1] += wide[limb] >> 51;
        out[limb] = wide[limb] as u64 & MASK;
    }
    out[4] = wide[4] as u64 & MASK;
    let low = u128::from(out[0]) + (wide[4] >> 51) * 19;
    out[0] = low as u64 & MASK;
    out[1] += (low >> 51) as u64;
    out
}

fn field(seed: u64) -> u64 {
    let mut x = [seed | 1, 3, 5, 7, 11];
    let y = [0x7_1234_5678_9ABC, 0x3_0F0F_0F0F_0F0F, 17, seed, 29];
    for _ in 0..FIELD_ROUNDS {
        x = field_mul(field_mul(x, x), y);
    }
    x.iter().fold(0, |acc, limb| acc ^ limb)
}

/// Writes records as text, scans the text back byte by byte, and
/// indexes, looks up and sorts the keys: parsing, serialising and the
/// maps behind the ledger and the document store.
fn text(seed: u64) -> u64 {
    let mut document = String::new();
    let mut key = seed;
    for n in 0..RECORDS {
        key = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x1234_5678_9ABC_DEF1);
        let _ = writeln!(
            document,
            "{{\"id\":\"{key:016x}\",\"amount\":{},\"tags\":[\"a{n}\",\"b\"]}}",
            key % 1000
        );
    }
    let mut by_id: HashMap<&str, u64> = HashMap::new();
    let mut by_amount: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut depth = 0u64;
    for line in document.lines() {
        for byte in line.bytes() {
            depth += u64::from(byte == b'{' || byte == b'[');
        }
        let id = &line[7..23];
        let amount = line[34..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .fold(0u64, |acc, digit| acc * 10 + u64::from(digit - b'0'));
        by_id.insert(id, amount);
        by_amount.entry(amount).or_default().push(id.to_owned());
    }
    let mut ids: Vec<&&str> = by_id.keys().collect();
    ids.sort_unstable();
    let looked_up = ids
        .iter()
        .step_by(3)
        .map(|id| by_id[**id])
        .fold(0, u64::wrapping_add);
    looked_up ^ depth ^ by_amount.len() as u64
}

/// Runs the yardstick once and returns how long it took, in seconds.
pub fn run() -> f64 {
    let start = Instant::now();
    black_box(field(black_box(1)));
    for seed in 0..TEXTS {
        black_box(text(black_box(seed)));
    }
    start.elapsed().as_secs_f64()
}

/// How much slower than the reference the host ran over a stretch of
/// work with these readings taken before, during and after it. The
/// mean of the middle three fifths: a spell wavers by the second, and
/// the mean follows what the work in between saw more closely than the
/// median does, once the stalls at either end are set aside.
pub fn slowdown(readings_s: &[f64]) -> f64 {
    trimmed_mean(readings_s, 0.2) / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_work_is_fixed() {
        for part in [field as fn(u64) -> u64, text] {
            assert_eq!(part(1), part(1));
            assert_ne!(part(1), part(2));
        }
    }

    #[test]
    fn slowdown_is_relative_to_the_reference() {
        assert!((slowdown(&[REFERENCE_S; 3]) - 1.0).abs() < 1e-12);
        let spell = [0.1, 2.0, 2.0, 2.0, 90.0].map(|factor| factor * REFERENCE_S);
        assert!((slowdown(&spell) - 2.0).abs() < 1e-12);
        assert!(run() > 0.0);
    }
}
