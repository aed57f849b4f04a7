//! Twisted Edwards curve arithmetic for edwards25519.
//!
//! The curve is −x² + y² = 1 + d·x²·y² over GF(2^255 − 19). Points use
//! extended homogeneous coordinates (X : Y : Z : T) with x = X/Z,
//! y = Y/Z, x·y = T/Z, which gives complete addition formulas
//! ("add-2008-hwcd-3" / "dbl-2008-hwcd" with a = −1).
//!
//! Two ways to multiply by a scalar. [`EdwardsPoint::mul_base`] (signing,
//! key derivation) adds one entry per radix-16 digit from 64 static
//! window tables and never doubles. [`multiscalar_mul`] (every
//! verification) runs one doubling chain shared by all its terms. A
//! point it meets often is *split*: it brings four odd-multiples tables,
//! one for each 2^(64j)·P, and its scalar is cut into integer chunks
//! that each run against their own table, so the chain is as long as
//! the widest chunk rather than the whole scalar. Each cached public key
//! brings four width-5 tables of 8 entries, and the base point reads
//! four static width-8 tables of 64, so a single check [k]A − [s]B costs
//! one chain of at most 64 doublings (a 253-bit scalar needs ~253) plus
//! ~43 + ~28 additions.

use crate::field::FieldElement;
use std::sync::OnceLock;

/// A point on edwards25519 in extended coordinates.
#[derive(Debug, Clone, Copy)]
pub struct EdwardsPoint {
    pub x: FieldElement,
    pub y: FieldElement,
    pub z: FieldElement,
    pub t: FieldElement,
}

/// Compressed encoding of the standard base point (y = 4/5, even x).
const BASE_POINT_BYTES: [u8; 32] = [
    0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
    0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
];

fn d2() -> FieldElement {
    static D2: OnceLock<FieldElement> = OnceLock::new();
    *D2.get_or_init(|| FieldElement::d().add(FieldElement::d()))
}

impl EdwardsPoint {
    /// The neutral element (0, 1).
    pub fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard base point B.
    #[allow(
        clippy::expect_used,
        reason = "BASE_POINT_BYTES is RFC 8032's encoding of B, a point on the curve; the RFC 8032 vectors pin it"
    )]
    pub fn base() -> EdwardsPoint {
        static BASE: OnceLock<EdwardsPoint> = OnceLock::new();
        *BASE.get_or_init(|| {
            EdwardsPoint::decompress(&BASE_POINT_BYTES).expect("base point decompresses")
        })
    }

    /// Complete point addition.
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        let a = self.y.sub(self.x).mul(other.y.sub(other.x));
        let b = self.y.add(self.x).mul(other.y.add(other.x));
        let c = self.t.mul(d2()).mul(other.t);
        let zz = self.z.mul(other.z);
        let d = zz.add(zz);
        let e = b.sub(a);
        let f = d.sub(c);
        let g = d.add(c);
        let h = b.add(a);
        EdwardsPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Point doubling ("dbl-2008-hwcd" with a = −1).
    pub fn double(&self) -> EdwardsPoint {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(zz);
        let d = a.neg(); // a·X² with a = −1
        let e = self.x.add(self.y).square().sub(a).sub(b);
        let g = d.add(b);
        let f = g.sub(c);
        let h = d.sub(b);
        EdwardsPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Converts to the cached ("projective Niels") form used by the
    /// window tables: one multiply up front buys one multiply off every
    /// subsequent addition against this point.
    pub(crate) fn to_cached(self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(d2()),
        }
    }

    /// `self + cached` ("add-2008-hwcd-3" against a precomputed addend).
    pub(crate) fn add_cached(&self, other: &CachedPoint) -> EdwardsPoint {
        let a = self.y.sub(self.x).mul(other.y_minus_x);
        let b = self.y.add(self.x).mul(other.y_plus_x);
        let c = self.t.mul(other.t2d);
        let zz = self.z.mul(other.z);
        let d = zz.add(zz);
        let e = b.sub(a);
        let f = d.sub(c);
        let g = d.add(c);
        let h = b.add(a);
        EdwardsPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// `self − cached`: addition against the negated cached point, which
    /// just swaps the (Y±X) components and flips the T·2d term.
    pub(crate) fn sub_cached(&self, other: &CachedPoint) -> EdwardsPoint {
        let a = self.y.sub(self.x).mul(other.y_plus_x);
        let b = self.y.add(self.x).mul(other.y_minus_x);
        let c = self.t.mul(other.t2d);
        let zz = self.z.mul(other.z);
        let d = zz.add(zz);
        let e = b.sub(a);
        let f = d.add(c);
        let g = d.sub(c);
        let h = b.add(a);
        EdwardsPoint {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// Scalar multiplication by a little-endian 256-bit scalar.
    ///
    /// Scalars below 2^255 (every canonical scalar and every clamped
    /// secret) take the windowed path: a per-point odd-multiples table
    /// plus width-5 NAF digits, sharing doublings across digit positions.
    /// The rare top-bit-set scalar falls back to plain double-and-add so
    /// the function stays total over all 256-bit inputs. Variable-time;
    /// signatures here protect ledger integrity, not side-channel
    /// secrecy — see crate docs.
    ///
    /// Production paths reuse tables via [`multiscalar_mul`] instead of
    /// building one per call, so this wrapper only anchors the tests.
    #[cfg(test)]
    pub fn scalar_mul(&self, scalar_le: &[u8; 32]) -> EdwardsPoint {
        if scalar_le[31] > 127 {
            return self.scalar_mul_serial(scalar_le);
        }
        let table = PointTable::from_point(self);
        multiscalar_mul(256, None, &[], &[(*scalar_le, &table)])
    }

    /// The pre-table double-and-add ladder, kept as the fallback for
    /// scalars with the top bit set (which the NAF recoding does not
    /// represent).
    pub(crate) fn scalar_mul_serial(&self, scalar_le: &[u8; 32]) -> EdwardsPoint {
        let mut acc = EdwardsPoint::identity();
        for byte_idx in (0..32).rev() {
            for bit_idx in (0..8).rev() {
                acc = acc.double();
                if (scalar_le[byte_idx] >> bit_idx) & 1 == 1 {
                    acc = acc.add(self);
                }
            }
        }
        acc
    }

    /// `scalar · B` for the standard base point, off the static
    /// per-window tables: no doublings at all, one cached addition per
    /// non-zero radix-16 digit. The signing side's multiplication;
    /// verification folds its base term into [`multiscalar_mul`]'s chain.
    pub fn mul_base(scalar_le: &[u8; 32]) -> EdwardsPoint {
        if scalar_le[31] > 127 {
            return EdwardsPoint::base().scalar_mul_serial(scalar_le);
        }
        let digits = radix16_digits(scalar_le);
        let tables = base_window_tables();
        let mut acc = EdwardsPoint::identity();
        for (table, &digit) in tables.iter().zip(digits.iter()) {
            acc = table.apply(&acc, digit);
        }
        acc
    }

    /// Point negation: (−x, y).
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Compresses to the 32-byte Ed25519 encoding: the y coordinate with
    /// the sign of x in bit 255.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompresses an encoded point; `None` if the bytes do not denote a
    /// curve point (non-canonical y, no square root, or x = 0 with
    /// negative sign).
    pub fn decompress(bytes: &[u8; 32]) -> Option<EdwardsPoint> {
        // Reject y >= p for canonicality.
        let mut y_bytes = *bytes;
        let sign = (y_bytes[31] >> 7) == 1;
        y_bytes[31] &= 0x7f;
        if !y_is_canonical(&y_bytes) {
            return None;
        }

        let y = FieldElement::from_bytes(&y_bytes);
        let yy = y.square();
        let u = yy.sub(FieldElement::ONE); // y² − 1
        let v = yy.mul(FieldElement::d()).add(FieldElement::ONE); // d·y² + 1

        // x = u·v³ · (u·v⁷)^((p−5)/8)
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());

        let vxx = v.mul(x.square());
        if !vxx.ct_eq(u) {
            if vxx.ct_eq(u.neg()) {
                x = x.mul(FieldElement::sqrt_m1());
            } else {
                return None;
            }
        }

        if x.is_zero() && sign {
            return None;
        }
        if x.is_negative() != sign {
            x = x.neg();
        }

        Some(EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(y),
        })
    }

    /// Projective equality: X1·Z2 == X2·Z1 and Y1·Z2 == Y2·Z1.
    pub fn eq_point(&self, other: &EdwardsPoint) -> bool {
        self.x.mul(other.z).ct_eq(other.x.mul(self.z))
            && self.y.mul(other.z).ct_eq(other.y.mul(self.z))
    }

    /// True when this is the neutral element.
    pub fn is_identity(&self) -> bool {
        self.eq_point(&EdwardsPoint::identity())
    }

    /// [8]P, three doublings. It clears any small-order component, so
    /// both verification paths accept when [8]P, not P, is the identity.
    pub(crate) fn mul_by_cofactor(&self) -> EdwardsPoint {
        self.double().double().double()
    }
}

/// A point in cached ("projective Niels") form: (Y+X, Y−X, Z, 2d·T).
/// Additions against this form cost one multiply less than the general
/// extended-coordinates addition, and negation is free (swap the first
/// two components, flip the last).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CachedPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    z: FieldElement,
    t2d: FieldElement,
}

/// Odd multiples [P, 3P, 5P, …, (2N−1)P] in cached form: the lookup
/// table for width-w NAF scalar recoding with N = 2^(w−2) (digit d uses
/// entry (|d|−1)/2). The default N = 8 is the width-5 table every
/// dynamic point gets; the static base-point tables are N = 64 (width 8).
/// The 8-entry layout doubles as the radix-16 table for the static
/// base-point windows (digit d uses entry |d|−1 over [P, 2P, …, 8P]).
#[derive(Debug, Clone)]
pub(crate) struct PointTable<const N: usize = 8> {
    entries: [CachedPoint; N],
}

impl<const N: usize> PointTable<N> {
    /// Odd multiples [P, 3P, …, (2N−1)P] of `p`.
    pub(crate) fn from_point(p: &EdwardsPoint) -> PointTable<N> {
        let p2 = p.double().to_cached();
        let mut entries = [p.to_cached(); N];
        let mut cur = *p;
        for slot in entries.iter_mut().skip(1) {
            cur = cur.add_cached(&p2);
            *slot = cur.to_cached();
        }
        PointTable { entries }
    }
}

/// The tables of a split point: entry j holds the odd multiples of
/// 2^(64j)·P, so a scalar cut into 64-bit (or 128-bit) integer chunks
/// runs each chunk against its own table — see [`multiscalar_mul`].
pub(crate) type SplitTables<const N: usize = 8> = [PointTable<N>; 4];

/// The four tables of `p`'s split, each 64 doublings above the last.
pub(crate) fn split_tables<const N: usize>(p: &EdwardsPoint) -> SplitTables<N> {
    let mut power = *p;
    std::array::from_fn(|j| {
        if j > 0 {
            for _ in 0..64 {
                power = power.double();
            }
        }
        PointTable::from_point(&power)
    })
}

/// `acc ± entry` for a signed odd NAF digit against an odd-multiples
/// table (0 is a no-op).
fn apply_naf(entries: &[CachedPoint], acc: &EdwardsPoint, digit: i8) -> EdwardsPoint {
    match digit.cmp(&0) {
        std::cmp::Ordering::Equal => *acc,
        std::cmp::Ordering::Greater => acc.add_cached(&entries[(digit as usize - 1) / 2]),
        std::cmp::Ordering::Less => acc.sub_cached(&entries[((-digit) as usize - 1) / 2]),
    }
}

impl PointTable {
    /// Consecutive multiples [P, 2P, …, 8P] of `p` — the signed radix-16
    /// layout used by the static base-point window tables.
    fn consecutive_from_point(p: &EdwardsPoint) -> PointTable {
        let first = p.to_cached();
        let mut entries = [first; 8];
        let mut cur = *p;
        for slot in entries.iter_mut().skip(1) {
            cur = cur.add_cached(&first);
            *slot = cur.to_cached();
        }
        PointTable { entries }
    }

    /// `acc ± entry` for a signed radix-16 digit in [−8, 8] against the
    /// consecutive-multiples layout (0 is a no-op).
    fn apply(&self, acc: &EdwardsPoint, digit: i8) -> EdwardsPoint {
        match digit.cmp(&0) {
            std::cmp::Ordering::Equal => *acc,
            std::cmp::Ordering::Greater => acc.add_cached(&self.entries[digit as usize - 1]),
            std::cmp::Ordering::Less => acc.sub_cached(&self.entries[(-digit) as usize - 1]),
        }
    }
}

/// Signed radix-16 digits of a little-endian scalar below 2^255:
/// 64 digits in [−8, 8] with value Σ dᵢ·16ⁱ.
fn radix16_digits(bytes: &[u8; 32]) -> [i8; 64] {
    debug_assert!(
        bytes[31] <= 127,
        "radix-16 recoding needs the top bit clear"
    );
    let mut digits = [0i8; 64];
    for i in 0..32 {
        digits[2 * i] = (bytes[i] & 15) as i8;
        digits[2 * i + 1] = (bytes[i] >> 4) as i8;
    }
    // Recenter each digit into [−8, 7] by carrying into the next; the
    // final digit absorbs at most +1 and tops out at 8.
    for i in 0..63 {
        let carry = (digits[i] + 8) >> 4;
        digits[i] -= carry << 4;
        digits[i + 1] += carry;
    }
    digits
}

/// NAF width for dynamic points: 8-entry [`PointTable`]s.
const NAF_WIDTH: usize = 5;

/// NAF width for the base point: its 64-entry tables are built once.
const BASE_NAF_WIDTH: usize = 8;

/// Width-`w` NAF digits (2 ≤ w ≤ 8) of a little-endian scalar below
/// 2^255: one signed odd digit in {±1, ±3, …, ±(2^(w−1)−1)} or 0 per bit
/// position, with value Σ dᵢ·2ⁱ, and the highest position holding a
/// non-zero digit (`None` for zero). At most one non-zero digit in any
/// w consecutive positions, so a 253-bit scalar averages ~253/(w+1)
/// additions (~43 at width 5, ~28 at width 8) instead of ~127. A b-bit
/// scalar's digits end at position b at the latest: the last window's
/// carry can set one digit past its top bit.
///
/// Carry-based recoding: an odd w-bit window at or above 2^(w−1) is
/// recentered by subtracting 2^w, and the borrowed 2^(pos+w) rides
/// along as a +1 carry into the next window read.
fn wnaf_digits(bytes: &[u8; 32], w: usize) -> ([i8; 256], Option<usize>) {
    debug_assert!(bytes[31] <= 127, "NAF recoding needs the top bit clear");
    debug_assert!((2..=8).contains(&w), "digits must fit an i8");
    let width = 1u64 << w;
    let mut limbs = [0u64; 5]; // one spare limb so window reads never index out
    for (limb, chunk) in limbs.iter_mut().zip(bytes.as_chunks::<8>().0) {
        *limb = u64::from_le_bytes(*chunk);
    }
    // One past the highest set bit: above it only a carry is left.
    let bit_len = limbs
        .iter()
        .rposition(|&limb| limb != 0)
        .map_or(0, |i| 64 * (i + 1) - limbs[i].leading_zeros() as usize);
    let mut digits = [0i8; 256];
    let mut top = None;
    let mut pos = 0;
    let mut carry = 0u64;
    while pos < 256 && (pos < bit_len || carry != 0) {
        let limb = pos / 64;
        let bit = pos % 64;
        let bit_buf = if bit < 64 - w {
            limbs[limb] >> bit
        } else {
            (limbs[limb] >> bit) | (limbs[limb + 1] << (64 - bit))
        };
        let window = carry + (bit_buf & (width - 1));
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            digits[pos] = window as i8;
        } else {
            carry = 1;
            digits[pos] = (window as i64 - width as i64) as i8;
        }
        top = Some(pos);
        pos += w;
    }
    (digits, top)
}

/// The static base-point window tables: table j holds the consecutive
/// multiples [1..8]·(16^j·B) in cached form, so `s·B` is 64 cached
/// additions with no doublings.
#[allow(
    clippy::expect_used,
    reason = "the loop pushes exactly one table per window, 64 of them"
)]
fn base_window_tables() -> &'static [PointTable; 64] {
    static TABLES: OnceLock<Box<[PointTable; 64]>> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = Vec::with_capacity(64);
        let mut p = EdwardsPoint::base();
        for j in 0..64 {
            tables.push(PointTable::consecutive_from_point(&p));
            if j < 63 {
                p = p.double().double().double().double();
            }
        }
        Box::new(<[PointTable; 64]>::try_from(tables).expect("64 windows"))
    })
}

/// The static width-8 tables of B's split: odd multiples
/// [P, 3P, …, 127P] of P = 2^(64j)·B for j = 0..3, ~40 KB once per
/// process.
fn base_split_tables() -> &'static SplitTables<64> {
    static TABLES: OnceLock<Box<SplitTables<64>>> = OnceLock::new();
    TABLES.get_or_init(|| Box::new(split_tables(&EdwardsPoint::base())))
}

/// One recoded scalar against one odd-multiples table.
struct Row<'a> {
    digits: [i8; 256],
    entries: &'a [CachedPoint],
}

/// The rows one doubling chain adds, and the highest digit position
/// among them, which sets the chain's length.
struct Chain<'a> {
    rows: Vec<Row<'a>>,
    top: Option<usize>,
}

impl<'a> Chain<'a> {
    fn push(&mut self, scalar: &[u8; 32], entries: &'a [CachedPoint], w: usize) {
        let (digits, top) = wnaf_digits(scalar, w);
        if top.is_some() {
            self.top = self.top.max(top);
            self.rows.push(Row { digits, entries });
        }
    }

    /// Cuts `scalar` into 256 / `chunk_bits` integer chunks, least
    /// significant first, and runs chunk i against the table of
    /// 2^(i·chunk_bits)·P. The cut is the identity
    /// s = Σ sᵢ·2^(i·chunk_bits) over the integers, with no reduction
    /// mod L, so [s]P is exact for a point of any order.
    fn push_split<const N: usize>(
        &mut self,
        scalar: &[u8; 32],
        tables: &'a SplitTables<N>,
        chunk_bits: usize,
        w: usize,
    ) {
        let chunk_bytes = chunk_bits / 8;
        for (i, chunk) in scalar.chunks_exact(chunk_bytes).enumerate() {
            let mut part = [0u8; 32];
            part[..chunk_bytes].copy_from_slice(chunk);
            self.push(&part, &tables[i * chunk_bits / 64].entries, w);
        }
    }

    /// Σ rows from the top digit down: one doubling per position below
    /// the top, then each row's digit at that position.
    fn run(&self) -> EdwardsPoint {
        let mut acc = EdwardsPoint::identity();
        let Some(top) = self.top else {
            return acc;
        };
        for pos in (0..=top).rev() {
            if pos < top {
                acc = acc.double();
            }
            for row in &self.rows {
                acc = apply_naf(row.entries, &acc, row.digits[pos]);
            }
        }
        #[cfg(test)]
        CHAIN_DOUBLINGS.with(|count| count.set(count.get() + top));
        acc
    }
}

/// `base_coeff·B + Σ sᵢ·Aᵢ + Σ tᵢ·Pᵢ` with one doubling chain shared by
/// every term: B and each split point Aᵢ have their scalars cut into
/// `chunk_bits`-bit chunks against their split tables (width 8 for B,
/// width 5 for the rest), and each plain point Pᵢ's scalar runs whole
/// against its one width-5 table. The chain is as long as the widest
/// chunk or plain scalar: `chunk_bits` of 64 gives at most 64
/// doublings, 128 gives at most 128, and 256 — one chunk against the
/// first table, the plain chain — gives ~253. Plain scalars, and every
/// scalar when `chunk_bits` is 256, must be below 2^255 (canonical
/// scalars always are). Variable-time.
pub(crate) fn multiscalar_mul(
    chunk_bits: usize,
    base_coeff: Option<&[u8; 32]>,
    split_terms: &[([u8; 32], &SplitTables)],
    terms: &[([u8; 32], &PointTable)],
) -> EdwardsPoint {
    debug_assert!(
        matches!(chunk_bits, 64 | 128 | 256),
        "chunks tile the 4 tables"
    );
    let chunks = 256 / chunk_bits;
    let mut chain = Chain {
        rows: Vec::with_capacity(chunks * (1 + split_terms.len()) + terms.len()),
        top: None,
    };
    if let Some(s) = base_coeff {
        chain.push_split(s, base_split_tables(), chunk_bits, BASE_NAF_WIDTH);
    }
    for (s, tables) in split_terms {
        chain.push_split(s, tables, chunk_bits, NAF_WIDTH);
    }
    for (s, table) in terms {
        chain.push(s, &table.entries, NAF_WIDTH);
    }
    chain.run()
}

#[cfg(test)]
thread_local! {
    /// Doublings run by [`multiscalar_mul`] chains on this thread (per
    /// thread because tests run in parallel).
    static CHAIN_DOUBLINGS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Returns this thread's chain doublings and resets the count.
#[cfg(test)]
pub(crate) fn take_chain_doublings() -> usize {
    CHAIN_DOUBLINGS.with(|count| count.take())
}

/// The order-2 point T₂ = (0, −1).
#[cfg(test)]
pub(crate) fn order_two() -> EdwardsPoint {
    EdwardsPoint {
        x: FieldElement::ZERO,
        y: FieldElement::ONE.neg(),
        z: FieldElement::ONE,
        t: FieldElement::ZERO,
    }
}

/// A point of order 8: [L]P for the first decodable P (y = 2, 3, …)
/// with [4]([L]P) ≠ O. [L] keeps only P's small-order component, so no
/// constant is pasted in.
#[cfg(test)]
pub(crate) fn order_eight() -> EdwardsPoint {
    (2u8..)
        .filter_map(|y| {
            let mut bytes = [0u8; 32];
            bytes[0] = y;
            EdwardsPoint::decompress(&bytes)
        })
        .map(|p| p.scalar_mul(&crate::scalar::L_BYTES))
        .find(|t| !t.double().double().is_identity())
        .expect("some small y has an order-8 component")
}

/// y < p when the 255-bit value is canonical.
fn y_is_canonical(y_bytes: &[u8; 32]) -> bool {
    // p = 2^255 − 19: bytes [0xed, 0xff × 30, 0x7f]. The sign bit has
    // already been cleared, so a top byte below 0x7f is always canonical.
    if y_bytes[31] != 0x7f {
        return true;
    }
    for i in (1..31).rev() {
        if y_bytes[i] != 0xff {
            return true;
        }
    }
    y_bytes[0] < 0xed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(n: u64) -> [u8; 32] {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&n.to_le_bytes());
        s
    }

    #[test]
    fn negation_and_identity() {
        let b = EdwardsPoint::base();
        // P + (−P) = identity.
        let sum = b.add(&b.neg());
        assert!(sum.is_identity());
        assert!(!b.is_identity());
        assert!(EdwardsPoint::identity().is_identity());
        // Double negation restores the point.
        assert!(b.neg().neg().eq_point(&b));
        // Negation preserves curve membership: 2·(−P) == −(2·P).
        let two = scalar(2);
        assert!(b.neg().scalar_mul(&two).eq_point(&b.scalar_mul(&two).neg()));
    }

    #[test]
    fn base_point_is_on_curve() {
        // −x² + y² = 1 + d·x²·y²
        let b = EdwardsPoint::base();
        let zinv = b.z.invert();
        let x = b.x.mul(zinv);
        let y = b.y.mul(zinv);
        let lhs = y.square().sub(x.square());
        let rhs = FieldElement::ONE.add(FieldElement::d().mul(x.square()).mul(y.square()));
        assert!(lhs.ct_eq(rhs));
    }

    #[test]
    fn identity_laws() {
        let b = EdwardsPoint::base();
        assert!(b.add(&EdwardsPoint::identity()).eq_point(&b));
        assert!(EdwardsPoint::identity().add(&b).eq_point(&b));
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn double_equals_add_self() {
        let b = EdwardsPoint::base();
        assert!(b.double().eq_point(&b.add(&b)));
        let b4 = b.double().double();
        assert!(b4.eq_point(&b.add(&b).add(&b).add(&b)));
    }

    #[test]
    fn scalar_mul_matches_repeated_addition() {
        let b = EdwardsPoint::base();
        let mut acc = EdwardsPoint::identity();
        for k in 0u64..16 {
            assert!(b.scalar_mul(&scalar(k)).eq_point(&acc), "k = {k}");
            acc = acc.add(&b);
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        let b = EdwardsPoint::base();
        // (a + b)·P == a·P + b·P for small scalars.
        let p1 = b.scalar_mul(&scalar(37));
        let p2 = b.scalar_mul(&scalar(63));
        let sum = b.scalar_mul(&scalar(100));
        assert!(p1.add(&p2).eq_point(&sum));
    }

    #[test]
    fn compress_decompress_round_trip() {
        for k in 1u64..8 {
            let p = EdwardsPoint::mul_base(&scalar(k));
            let enc = p.compress();
            let q = EdwardsPoint::decompress(&enc).expect("valid point");
            assert!(p.eq_point(&q));
            assert_eq!(q.compress(), enc);
        }
    }

    #[test]
    fn decompress_rejects_non_canonical_y() {
        // y = p (non-canonical encoding of 0) must be rejected.
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xed;
        bytes[31] = 0x7f;
        assert!(EdwardsPoint::decompress(&bytes).is_none());
    }

    #[test]
    fn decompress_rejects_non_square() {
        // y = 2 gives u/v that is not a QR for this curve; sweep a few
        // candidates and require at least one rejection to exercise the
        // failure path (not every y is on the curve).
        let mut rejected = 0;
        for y in 2u8..20 {
            let mut bytes = [0u8; 32];
            bytes[0] = y;
            if EdwardsPoint::decompress(&bytes).is_none() {
                rejected += 1;
            }
        }
        assert!(rejected > 0);
    }

    fn pseudo_scalar(seed: u64) -> [u8; 32] {
        // Deterministic pseudo-random bytes with the top bit clear.
        let mut s = [0u8; 32];
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for b in s.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x as u8;
        }
        s[31] &= 0x7f;
        s
    }

    #[test]
    fn wnaf_digits_reconstruct_the_scalar() {
        for w in [NAF_WIDTH, BASE_NAF_WIDTH] {
            let bound = (1i16 << (w - 1)) - 1;
            for seed in 0..8u64 {
                let s = pseudo_scalar(seed);
                let (digits, _) = wnaf_digits(&s, w);
                // Σ dᵢ·2ⁱ, carry-normalized bit by bit, is the scalar.
                let mut bytes = [0u8; 32];
                let mut carry: i16 = 0;
                for (i, &d) in digits.iter().enumerate() {
                    let cur = d as i16 + carry;
                    let bit = cur.rem_euclid(2);
                    carry = (cur - bit) / 2;
                    bytes[i / 8] |= (bit as u8) << (i % 8);
                }
                assert_eq!(carry, 0);
                assert_eq!(bytes, s, "width {w}, seed {seed}");
                for window in digits.windows(w) {
                    assert!(
                        window.iter().filter(|&&d| d != 0).count() <= 1,
                        "width-{w} non-adjacency violated"
                    );
                }
                for d in digits {
                    assert!(d == 0 || d % 2 != 0, "digits are odd");
                    assert!((-bound..=bound).contains(&(d as i16)));
                }
            }
        }
    }

    #[test]
    fn radix16_digits_reconstruct_the_scalar() {
        for seed in 0..8u64 {
            let s = pseudo_scalar(seed);
            let digits = radix16_digits(&s);
            // Reconstruct the little-endian bytes from Σ dᵢ·16ⁱ.
            let mut val = [0i16; 65];
            for (i, &d) in digits.iter().enumerate() {
                val[i] += d as i16;
            }
            // Carry-normalize to nibbles.
            let mut bytes = [0u8; 32];
            let mut carry: i16 = 0;
            for i in 0..64 {
                let cur = val[i] + carry;
                let nib = cur & 15;
                carry = (cur - nib) >> 4;
                bytes[i / 2] |= (nib as u8) << ((i % 2) * 4);
            }
            assert_eq!(carry, 0);
            assert_eq!(bytes, s, "seed {seed}");
        }
    }

    #[test]
    fn windowed_scalar_mul_matches_serial() {
        let b = EdwardsPoint::base();
        let p = b.scalar_mul(&scalar(7919)); // an arbitrary non-base point
        for seed in 0..6u64 {
            let s = pseudo_scalar(seed);
            assert!(
                p.scalar_mul(&s).eq_point(&p.scalar_mul_serial(&s)),
                "seed {seed}"
            );
        }
        // Degenerate scalars.
        for s in [scalar(0), scalar(1), scalar(2), scalar(u64::MAX)] {
            assert!(p.scalar_mul(&s).eq_point(&p.scalar_mul_serial(&s)));
        }
        // Top-bit-set scalars take the serial fallback and still work.
        let mut high = pseudo_scalar(3);
        high[31] |= 0x80;
        assert!(p.scalar_mul(&high).eq_point(&p.scalar_mul_serial(&high)));
    }

    #[test]
    fn windowed_mul_base_matches_serial() {
        for seed in 0..6u64 {
            let s = pseudo_scalar(seed);
            assert!(
                EdwardsPoint::mul_base(&s).eq_point(&EdwardsPoint::base().scalar_mul_serial(&s)),
                "seed {seed}"
            );
        }
        assert!(EdwardsPoint::mul_base(&scalar(0)).is_identity());
        assert!(EdwardsPoint::mul_base(&scalar(1)).eq_point(&EdwardsPoint::base()));
    }

    #[test]
    fn cached_addition_matches_plain() {
        let b = EdwardsPoint::base();
        let p = b.scalar_mul(&scalar(1234));
        let q = b.scalar_mul(&scalar(5678));
        assert!(p.add_cached(&q.to_cached()).eq_point(&p.add(&q)));
        assert!(p.sub_cached(&q.to_cached()).eq_point(&p.add(&q.neg())));
        // Identity edge cases.
        let id = EdwardsPoint::identity();
        assert!(id.add_cached(&p.to_cached()).eq_point(&p));
        assert!(p.add_cached(&id.to_cached()).eq_point(&p));
    }

    #[test]
    fn multiscalar_matches_separate_muls() {
        let b = EdwardsPoint::base();
        let p = b.scalar_mul(&scalar(31337));
        let q = b.scalar_mul(&scalar(271828));
        let (sa, sb, sc) = (pseudo_scalar(10), pseudo_scalar(11), pseudo_scalar(12));
        let tp = PointTable::from_point(&p);
        let tq = PointTable::from_point(&q);
        let got = multiscalar_mul(256, Some(&sa), &[], &[(sb, &tp), (sc, &tq)]);
        let want = EdwardsPoint::mul_base(&sa)
            .add(&p.scalar_mul_serial(&sb))
            .add(&q.scalar_mul_serial(&sc));
        assert!(got.eq_point(&want));
        // Empty term list is just the base term; no terms at all is identity.
        assert!(multiscalar_mul(256, Some(&sa), &[], &[]).eq_point(&EdwardsPoint::mul_base(&sa)));
        assert!(multiscalar_mul(256, None, &[], &[]).is_identity());
        // All-zero scalars collapse to identity.
        assert!(multiscalar_mul(256, None, &[], &[(scalar(0), &tp)]).is_identity());
    }

    #[test]
    fn base_order_times_base_is_identity() {
        // L·B = identity, where L is the prime group order — through
        // the signing windows and through the verification chain alike.
        let l_bytes = crate::scalar::L_BYTES;
        assert!(EdwardsPoint::mul_base(&l_bytes).is_identity());
        assert!(multiscalar_mul(256, Some(&l_bytes), &[], &[]).is_identity());
    }
}
