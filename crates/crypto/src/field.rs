//! Arithmetic in GF(2^255 − 19), the base field of curve25519.
//!
//! Elements are represented with five 51-bit limbs (radix 2^51), the
//! classic "ref10" layout: products of two 51-bit limbs fit in a `u128`
//! accumulator, and the modulus shape lets the overflow above bit 255 be
//! folded back with a multiplication by 19. Squaring has its own
//! 15-product form (doublings, and so verification, are mostly
//! squarings); it and `mul` share one carry chain.

/// A field element `a0 + a1·2^51 + a2·2^102 + a3·2^153 + a4·2^204`.
///
/// Invariant: after any public operation each limb is < 2^52 (loosely
/// reduced); [`FieldElement::to_bytes`] performs the final canonical
/// reduction mod `p`.
#[derive(Debug, Clone, Copy)]
pub struct FieldElement(pub [u64; 5]);

const MASK: u64 = (1 << 51) - 1;

impl FieldElement {
    pub const ZERO: FieldElement = FieldElement([0; 5]);
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0, 0]);

    /// The curve constant d = −121665/121666 mod p.
    pub fn d() -> FieldElement {
        // 37095705934669439343138083508754565189542113879843219016388785533085940283555
        FieldElement::from_bytes(&[
            0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75, 0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a,
            0x70, 0x00, 0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c, 0x73, 0xfe, 0x6f, 0x2b,
            0xee, 0x6c, 0x03, 0x52,
        ])
    }

    /// sqrt(−1) = 2^((p−1)/4) mod p, used in point decompression.
    pub fn sqrt_m1() -> FieldElement {
        // 19681161376707505956807079304988542015446066515923890162744021073123829784752
        FieldElement::from_bytes(&[
            0xb0, 0xa0, 0x0e, 0x4a, 0x27, 0x1b, 0xee, 0xc4, 0x78, 0xe4, 0x2f, 0xad, 0x06, 0x18,
            0x43, 0x2f, 0xa7, 0xd7, 0xfb, 0x3d, 0x99, 0x00, 0x4d, 0x2b, 0x0b, 0xdf, 0xc1, 0x4f,
            0x80, 0x24, 0x83, 0x2b,
        ])
    }

    /// Parses 32 little-endian bytes; the top bit (bit 255) is ignored,
    /// matching the Ed25519 encoding where it carries the x-coordinate
    /// sign.
    pub fn from_bytes(bytes: &[u8; 32]) -> FieldElement {
        let load = |i: usize| -> u64 {
            let mut v = [0u8; 8];
            v.copy_from_slice(&bytes[i..i + 8]);
            u64::from_le_bytes(v)
        };
        let mut limbs = [0u64; 5];
        limbs[0] = load(0) & MASK;
        limbs[1] = (load(6) >> 3) & MASK;
        limbs[2] = (load(12) >> 6) & MASK;
        limbs[3] = (load(19) >> 1) & MASK;
        limbs[4] = (load(24) >> 12) & MASK;
        FieldElement(limbs)
    }

    /// Serializes to 32 little-endian bytes after full canonical
    /// reduction into `[0, p)`.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut h = self.reduce_limbs();

        // Canonicalize: add 19 and see if the result overflows 2^255;
        // equivalently, subtract p when h >= p. Perform h + 19, and use
        // the carry out of bit 255 to decide.
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;

        h[0] += 19 * q;
        let mut carry = h[0] >> 51;
        h[0] &= MASK;
        h[1] += carry;
        carry = h[1] >> 51;
        h[1] &= MASK;
        h[2] += carry;
        carry = h[2] >> 51;
        h[2] &= MASK;
        h[3] += carry;
        carry = h[3] >> 51;
        h[3] &= MASK;
        h[4] += carry;
        h[4] &= MASK;

        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for &limb in &h {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 && idx < 32 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        while idx < 32 {
            out[idx] = (acc & 0xff) as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    /// Brings limbs back under 2^52 after additions.
    fn reduce_limbs(self) -> [u64; 5] {
        let mut h = self.0;
        let c = h[4] >> 51;
        h[4] &= MASK;
        h[0] += c * 19;
        let c = h[0] >> 51;
        h[0] &= MASK;
        h[1] += c;
        let c = h[1] >> 51;
        h[1] &= MASK;
        h[2] += c;
        let c = h[2] >> 51;
        h[2] &= MASK;
        h[3] += c;
        let c = h[3] >> 51;
        h[3] &= MASK;
        h[4] += c;
        h
    }

    pub fn add(self, rhs: FieldElement) -> FieldElement {
        let a = self.0;
        let b = rhs.0;
        FieldElement([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
        .weak_reduce()
    }

    pub fn sub(self, rhs: FieldElement) -> FieldElement {
        // Add 2p (in loose limb form) before subtracting so limbs stay
        // non-negative: 2p = 2^256 − 38 expressed per-limb.
        let a = self.0;
        let b = rhs.0;
        FieldElement([
            a[0] + 0xfffffffffffda - b[0],
            a[1] + 0xffffffffffffe - b[1],
            a[2] + 0xffffffffffffe - b[2],
            a[3] + 0xffffffffffffe - b[3],
            a[4] + 0xffffffffffffe - b[4],
        ])
        .weak_reduce()
    }

    pub fn neg(self) -> FieldElement {
        FieldElement::ZERO.sub(self)
    }

    fn weak_reduce(self) -> FieldElement {
        FieldElement(self.reduce_limbs())
    }

    pub fn mul(self, rhs: FieldElement) -> FieldElement {
        let a = self.0;
        let b = rhs.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };

        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;

        carry_wide([
            m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// `self · self` in 15 limb products instead of [`FieldElement::mul`]'s
    /// 25: each cross product aᵢ·aⱼ (i ≠ j) appears twice in the
    /// schoolbook sum, so it is computed once and doubled. Point doubling
    /// is four squarings, and doublings are most of a verification.
    pub fn square(self) -> FieldElement {
        let a = self.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };

        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;

        carry_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19)),
            m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19)),
            m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// Multiplicative inverse via Fermat: a^(p−2).
    pub fn invert(self) -> FieldElement {
        // p − 2 = 2^255 − 21; standard chain: compute a^(2^255 - 21).
        let z1 = self;
        let z2 = z1.square(); // 2
        let z8 = z2.square().square(); // 8
        let z9 = z1.mul(z8); // 9
        let z11 = z2.mul(z9); // 11
        let z22 = z11.square(); // 22
        let z_5_0 = z9.mul(z22); // 2^5 - 2^0 = 31
        let z_10_5 = square_n(z_5_0, 5);
        let z_10_0 = z_10_5.mul(z_5_0);
        let z_20_10 = square_n(z_10_0, 10);
        let z_20_0 = z_20_10.mul(z_10_0);
        let z_40_20 = square_n(z_20_0, 20);
        let z_40_0 = z_40_20.mul(z_20_0);
        let z_50_10 = square_n(z_40_0, 10);
        let z_50_0 = z_50_10.mul(z_10_0);
        let z_100_50 = square_n(z_50_0, 50);
        let z_100_0 = z_100_50.mul(z_50_0);
        let z_200_100 = square_n(z_100_0, 100);
        let z_200_0 = z_200_100.mul(z_100_0);
        let z_250_50 = square_n(z_200_0, 50);
        let z_250_0 = z_250_50.mul(z_50_0);
        let z_255_5 = square_n(z_250_0, 5);
        z_255_5.mul(z11) // 2^255 - 21
    }

    /// a^((p−5)/8), the core exponentiation of the square-root algorithm
    /// used in point decompression.
    pub fn pow_p58(self) -> FieldElement {
        // (p − 5)/8 = 2^252 − 3.
        let z1 = self;
        let z2 = z1.square();
        let z8 = z2.square().square();
        let z9 = z1.mul(z8);
        let z11 = z2.mul(z9);
        let z22 = z11.square();
        let z_5_0 = z9.mul(z22);
        let z_10_5 = square_n(z_5_0, 5);
        let z_10_0 = z_10_5.mul(z_5_0);
        let z_20_10 = square_n(z_10_0, 10);
        let z_20_0 = z_20_10.mul(z_10_0);
        let z_40_20 = square_n(z_20_0, 20);
        let z_40_0 = z_40_20.mul(z_20_0);
        let z_50_10 = square_n(z_40_0, 10);
        let z_50_0 = z_50_10.mul(z_10_0);
        let z_100_50 = square_n(z_50_0, 50);
        let z_100_0 = z_100_50.mul(z_50_0);
        let z_200_100 = square_n(z_100_0, 100);
        let z_200_0 = z_200_100.mul(z_100_0);
        let z_250_50 = square_n(z_200_0, 50);
        let z_250_0 = z_250_50.mul(z_50_0);
        let z_252_2 = square_n(z_250_0, 2);
        z_252_2.mul(z1) // 2^252 - 3
    }

    /// Canonical equality (compares fully reduced byte encodings).
    pub fn ct_eq(self, rhs: FieldElement) -> bool {
        self.to_bytes() == rhs.to_bytes()
    }

    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Low bit of the canonical encoding: the "sign" of x in Ed25519.
    pub fn is_negative(self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }
}

/// Carry chain over the five 51-bit column sums of a product, with the
/// ·19 wraparound folding the overflow above bit 255 back into limb 0.
fn carry_wide(t: [u128; 5]) -> FieldElement {
    let mut out = [0u64; 5];
    let mut carry: u128 = 0;
    for (limb, column) in out.iter_mut().zip(t) {
        let column = column + carry;
        *limb = (column as u64) & MASK;
        carry = column >> 51;
    }
    out[0] += (carry as u64) * 19;
    let c = out[0] >> 51;
    out[0] &= MASK;
    out[1] += c;
    FieldElement(out)
}

fn square_n(mut f: FieldElement, n: usize) -> FieldElement {
    for _ in 0..n {
        f = f.square();
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> FieldElement {
        FieldElement([n & MASK, 0, 0, 0, 0])
    }

    #[test]
    fn one_times_one() {
        assert!(FieldElement::ONE
            .mul(FieldElement::ONE)
            .ct_eq(FieldElement::ONE));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = fe(123456789);
        let b = fe(987654321);
        assert!(a.add(b).sub(b).ct_eq(a));
        assert!(a.sub(b).add(b).ct_eq(a));
    }

    #[test]
    fn mul_matches_small_integers() {
        let a = fe(100_000);
        let b = fe(250_000);
        let expected = fe(100_000 * 250_000);
        assert!(a.mul(b).ct_eq(expected));
    }

    #[test]
    fn square_matches_mul() {
        // Full-width, loosely reduced inputs: sums and differences of
        // products leave limbs just above 2^51, the worst case `square`
        // sees inside a doubling.
        let mut x = FieldElement::d();
        for _ in 0..64 {
            let y = x.mul(FieldElement::sqrt_m1()).add(x).sub(FieldElement::ONE);
            assert!(y.square().ct_eq(y.mul(y)));
            x = y.square().add(y);
        }
        let mut pm1 = [0xffu8; 32];
        pm1[0] = 0xec;
        pm1[31] = 0x7f;
        let minus_one = FieldElement::from_bytes(&pm1);
        assert!(minus_one.square().ct_eq(minus_one.mul(minus_one)));
        // Every limb at the invariant's ceiling.
        let top = FieldElement([(1 << 52) - 1; 5]);
        assert!(top.square().ct_eq(top.mul(top)));
    }

    #[test]
    fn invert_gives_one() {
        let a = fe(1234567890123);
        assert!(a.mul(a.invert()).ct_eq(FieldElement::ONE));
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = FieldElement::sqrt_m1();
        assert!(i.square().ct_eq(FieldElement::ONE.neg()));
    }

    #[test]
    fn bytes_round_trip() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(5);
        }
        bytes[31] &= 0x7f; // stay below 2^255
        let f = FieldElement::from_bytes(&bytes);
        // from_bytes(to_bytes(x)) is canonical mod p; value < p round-trips
        // only when it is already reduced. Use the canonical form.
        let canon = f.to_bytes();
        assert_eq!(FieldElement::from_bytes(&canon).to_bytes(), canon);
    }

    #[test]
    fn p_reduces_to_zero() {
        // p = 2^255 - 19 encodes as [0xed, 0xff .. 0xff, 0x7f].
        let mut p = [0xffu8; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        assert!(FieldElement::from_bytes(&p).is_zero());
    }

    #[test]
    fn p_minus_one_is_its_own_negation_square() {
        let mut pm1 = [0xffu8; 32];
        pm1[0] = 0xec;
        pm1[31] = 0x7f;
        let minus_one = FieldElement::from_bytes(&pm1);
        assert!(minus_one.ct_eq(FieldElement::ONE.neg()));
        assert!(minus_one.square().ct_eq(FieldElement::ONE));
    }

    #[test]
    fn d_constant_satisfies_definition() {
        // d = -121665/121666 ⇔ d · 121666 = -121665.
        let d = FieldElement::d();
        let lhs = d.mul(fe(121666));
        assert!(lhs.ct_eq(fe(121665).neg()));
    }

    #[test]
    fn negative_flag_tracks_low_bit() {
        assert!(!fe(2).is_negative());
        assert!(fe(3).is_negative());
    }
}
