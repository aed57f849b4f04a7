//! Arithmetic modulo the group order L = 2^252 + 27742317777372353535851937790883648493.
//!
//! Ed25519 needs two operations here: reducing a 512-bit SHA-512 output
//! mod L, and the signing equation S = (r + k·s) mod L. Batch
//! verification multiplies two scalars per signature, so reduction is
//! word-serial: each 64-bit limb is folded in using 2^252 ≡ −c (mod L)
//! with the 125-bit tail c = L − 2^252, which keeps every intermediate
//! under four limbs.

/// L as little-endian 64-bit limbs.
const L: [u64; 4] = [
    0x5812631a5cf5d3ed,
    0x14def9dea2f79cd6,
    0x0000000000000000,
    0x1000000000000000,
];

/// L as 32 little-endian bytes, for tests that multiply by the group
/// order.
#[cfg(test)]
pub(crate) const L_BYTES: [u8; 32] = {
    let mut out = [0u8; 32];
    let mut i = 0;
    while i < 32 {
        out[i] = (L[i / 8] >> (8 * (i % 8))) as u8;
        i += 1;
    }
    out
};

/// c = L − 2^252 (125 bits, two limbs, little-endian).
const C: [u64; 2] = [0x5812631a5cf5d3ed, 0x14def9dea2f79cd6];

/// A scalar in canonical form (< L), little-endian.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scalar(pub [u8; 32]);

impl Scalar {
    /// Reduces a 512-bit little-endian value mod L.
    pub fn from_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        let mut n = [0u64; 8];
        for (limb, chunk) in n.iter_mut().zip(bytes.as_chunks::<8>().0) {
            *limb = u64::from_le_bytes(*chunk);
        }
        Scalar(reduce_wide(n))
    }

    /// Interprets 32 little-endian bytes, reducing mod L.
    pub fn from_bytes(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_wide(&wide)
    }

    /// Returns the canonical 32-byte little-endian encoding.
    pub fn to_bytes(self) -> [u8; 32] {
        self.0
    }

    /// True when `bytes` already encode a canonical scalar (< L). Ed25519
    /// verification must reject non-canonical S to prevent malleability.
    pub fn is_canonical(bytes: &[u8; 32]) -> bool {
        cmp_256(&to_limbs(bytes), &L) == std::cmp::Ordering::Less
    }

    /// (a · b + c) mod L — the signing equation S = r + k·s.
    pub fn mul_add(a: Scalar, b: Scalar, c: Scalar) -> Scalar {
        let av = to_limbs(&a.0);
        let bv = to_limbs(&b.0);
        let cv = to_limbs(&c.0);

        // Schoolbook 256×256 → 512 multiply.
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let cur = prod[i + j] as u128 + (av[i] as u128) * (bv[j] as u128) + carry;
                prod[i + j] = cur as u64;
                carry = cur >> 64;
            }
            prod[i + 4] = carry as u64;
        }

        // 512-bit add of c.
        let mut carry: u128 = 0;
        for i in 0..8 {
            let add = if i < 4 { cv[i] } else { 0 };
            let cur = prod[i] as u128 + add as u128 + carry;
            prod[i] = cur as u64;
            carry = cur >> 64;
        }
        debug_assert_eq!(carry, 0, "512-bit accumulator cannot overflow");

        Scalar(reduce_wide(prod))
    }

    /// (a + b) mod L. Production accumulation fuses the addition into
    /// [`Scalar::mul_add`]; the standalone form anchors the tests.
    #[cfg(test)]
    pub fn add(a: Scalar, b: Scalar) -> Scalar {
        Scalar::mul_add(a, Scalar::one(), b)
    }

    /// The additive identity.
    pub fn zero() -> Scalar {
        Scalar([0u8; 32])
    }

    /// The multiplicative identity.
    #[cfg(test)]
    pub fn one() -> Scalar {
        let mut b = [0u8; 32];
        b[0] = 1;
        Scalar(b)
    }

    /// (−a) mod L, i.e. L − a for canonical non-zero `a`. Batch
    /// verification moves the base-point term across the equation with
    /// this.
    pub fn neg(a: Scalar) -> Scalar {
        let av = to_limbs(&a.0);
        if av == [0u64; 4] {
            return Scalar::zero();
        }
        debug_assert_eq!(cmp_256(&av, &L), std::cmp::Ordering::Less);
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d1, b1) = L[i].overflowing_sub(av[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 | b2) as u64;
        }
        debug_assert_eq!(borrow, 0);
        let mut bytes = [0u8; 32];
        for (i, limb) in out.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        Scalar(bytes)
    }
}

fn to_limbs(bytes: &[u8; 32]) -> [u64; 4] {
    let mut v = [0u64; 4];
    for (limb, chunk) in v.iter_mut().zip(bytes.as_chunks::<8>().0) {
        *limb = u64::from_le_bytes(*chunk);
    }
    v
}

fn cmp_256(a: &[u64; 4], b: &[u64; 4]) -> std::cmp::Ordering {
    for i in (0..4).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// Word-serial reduction of a 512-bit value mod L.
///
/// Limbs are absorbed from the top: each step shifts the accumulator
/// (< L) left by 64 bits, brings in the next limb, and folds the
/// resulting 317-bit value back under L via 2^252 ≡ −c (mod L). The
/// fold's high part is at most 65 bits, so hi·c < 2^190 and a single
/// conditional add of L restores the range after the subtraction.
fn reduce_wide(n: [u64; 8]) -> [u8; 32] {
    let mut acc = [0u64; 4]; // invariant: acc < L at every loop entry
    for &limb in n.iter().rev() {
        // t = acc·2^64 + limb, a 317-bit value in five limbs.
        let t = [limb, acc[0], acc[1], acc[2], acc[3]];
        // Split t = hi·2^252 + lo with lo < 2^252 and hi < 2^65.
        let hi = [(t[3] >> 60) | (t[4] << 4), t[4] >> 60];
        let lo = [t[0], t[1], t[2], t[3] & 0x0fff_ffff_ffff_ffff];
        // m = hi·c < 2^190 (fits four limbs with the top limb zero).
        let mut m = [0u64; 4];
        let mut carry: u128 = 0;
        for i in 0..2 {
            for j in 0..2 {
                let cur = m[i + j] as u128 + (hi[i] as u128) * (C[j] as u128) + carry;
                m[i + j] = cur as u64;
                carry = cur >> 64;
            }
            m[i + 2] = carry as u64;
            carry = 0;
        }
        // acc = lo − m (mod L): lo < 2^252 < L, so one conditional +L
        // suffices and the result is again < L.
        let mut borrow = 0u64;
        for i in 0..4 {
            let (d1, b1) = lo[i].overflowing_sub(m[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            acc[i] = d2;
            borrow = (b1 | b2) as u64;
        }
        if borrow != 0 {
            let mut carry = 0u64;
            for i in 0..4 {
                let (s1, c1) = acc[i].overflowing_add(L[i]);
                let (s2, c2) = s1.overflowing_add(carry);
                acc[i] = s2;
                carry = (c1 | c2) as u64;
            }
            debug_assert_eq!(carry, 1, "adding L wraps the borrowed bit");
        }
        debug_assert_eq!(cmp_256(&acc, &L), std::cmp::Ordering::Less);
    }
    let mut out = [0u8; 32];
    for (i, limb) in acc.iter().enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(n: u64) -> Scalar {
        let mut b = [0u8; 32];
        b[..8].copy_from_slice(&n.to_le_bytes());
        Scalar(b)
    }

    #[test]
    fn additive_identities() {
        // a + 0 == a; 0 + 1 == 1; add agrees with mul_add's definition.
        let a = sc(123_456_789);
        assert_eq!(Scalar::add(a, Scalar::zero()), a);
        assert_eq!(Scalar::add(Scalar::zero(), Scalar::one()), sc(1));
        assert_eq!(Scalar::add(sc(40), sc(2)), sc(42));
    }

    #[test]
    fn small_values_are_fixed_points() {
        for n in [0u64, 1, 2, 255, 1 << 40] {
            assert_eq!(Scalar::from_bytes(&sc(n).0), sc(n));
        }
    }

    #[test]
    fn l_reduces_to_zero() {
        assert_eq!(to_limbs(&L_BYTES), L);
        assert_eq!(Scalar::from_bytes(&L_BYTES), Scalar::zero());
        assert!(!Scalar::is_canonical(&L_BYTES));
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let mut l_bytes = L_BYTES;
        l_bytes[0] -= 1;
        assert!(Scalar::is_canonical(&l_bytes));
        assert_eq!(Scalar::from_bytes(&l_bytes).0, l_bytes);
    }

    #[test]
    fn mul_add_small_numbers() {
        assert_eq!(Scalar::mul_add(sc(7), sc(6), sc(5)), sc(47));
        assert_eq!(Scalar::mul_add(sc(0), sc(123), sc(9)), sc(9));
    }

    #[test]
    fn add_commutes() {
        assert_eq!(Scalar::add(sc(10), sc(32)), sc(42));
        assert_eq!(Scalar::add(sc(32), sc(10)), sc(42));
    }

    #[test]
    fn wide_reduction_matches_identity_for_small() {
        let mut wide = [0u8; 64];
        wide[0] = 200;
        assert_eq!(Scalar::from_bytes_wide(&wide), sc(200));
    }

    #[test]
    fn two_l_reduces_to_zero() {
        // 2L in a 512-bit buffer exercises the subtract path repeatedly.
        let mut wide = [0u64; 8];
        let mut carry: u128 = 0;
        for i in 0..4 {
            let cur = (L[i] as u128) * 2 + carry;
            wide[i] = cur as u64;
            carry = cur >> 64;
        }
        wide[4] = carry as u64;
        let mut bytes = [0u8; 64];
        for (i, limb) in wide.iter().enumerate() {
            bytes[i * 8..(i + 1) * 8].copy_from_slice(&limb.to_le_bytes());
        }
        assert_eq!(Scalar::from_bytes_wide(&bytes), Scalar::zero());
    }

    #[test]
    fn max_wide_value_reduces_below_l() {
        let bytes = [0xffu8; 64];
        let s = Scalar::from_bytes_wide(&bytes);
        assert!(Scalar::is_canonical(&s.0));
    }

    #[test]
    fn neg_is_additive_inverse() {
        for n in [0u64, 1, 42, u64::MAX] {
            let a = sc(n);
            assert_eq!(Scalar::add(a, Scalar::neg(a)), Scalar::zero());
        }
        // −1 ≡ L − 1, which negates back to 1.
        let minus_one = Scalar::neg(Scalar::one());
        assert!(Scalar::is_canonical(&minus_one.0));
        assert_eq!(Scalar::neg(minus_one), Scalar::one());
        // A wide-reduced pseudo-random scalar round-trips too.
        let wide = [0xa7u8; 64];
        let r = Scalar::from_bytes_wide(&wide);
        assert_eq!(Scalar::neg(Scalar::neg(r)), r);
    }

    #[test]
    fn wide_reduction_matches_mul_add_decomposition() {
        // Split a 512-bit value as hi·2^256 + lo and recombine through
        // mul_add: from_bytes_wide must agree with
        // hi·(2^256 mod L) + lo computed in the ring.
        let wide: Vec<u8> = (0..64)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect();
        let wide: [u8; 64] = wide.try_into().unwrap();
        let direct = Scalar::from_bytes_wide(&wide);

        let lo = Scalar::from_bytes(&wide[..32].try_into().unwrap());
        let hi = Scalar::from_bytes(&wide[32..].try_into().unwrap());
        // 2^256 mod L via from_bytes_wide of the 257-byte... compute as
        // ((2^255 mod L) + (2^255 mod L)) mod L.
        let mut p255 = [0u8; 32];
        p255[31] = 0x80;
        let t = Scalar::from_bytes(&p255);
        let p256 = Scalar::add(t, t);
        assert_eq!(Scalar::mul_add(hi, p256, lo), direct);
    }
}
