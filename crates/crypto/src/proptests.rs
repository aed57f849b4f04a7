//! Property tests for the cryptography substrate.

use crate::ed25519::{
    derive_public_key, prepare_public_key, sign, verify, verify_batch, verify_plain_chain,
    BatchItem, ExpandedSecret, PublicKey, Signature,
};
use crate::edwards::{
    multiscalar_mul, order_eight, order_two, split_tables, EdwardsPoint, SplitTables,
};
use crate::keys::{KeyPair, MultiSignature};
use crate::scalar::L_BYTES;
use crate::{hex, sha3_256, sha512};
use proptest::prelude::*;

/// The first encoding y = 2, 3, … that does not decode to a curve point.
fn undecodable_key() -> PublicKey {
    (2u8..)
        .map(|y| {
            let mut key = [0u8; 32];
            key[0] = y;
            key
        })
        .find(|key| prepare_public_key(key).is_none())
        .expect("some small y is off the curve")
}

/// 2^bit + delta for delta ∈ {−1, 0, 1}, little-endian.
fn power_of_two_plus(bit: usize, delta: i8) -> [u8; 32] {
    let mut s = [0u8; 32];
    s[bit / 8] = 1 << (bit % 8);
    match delta {
        1 => s[0] |= 1,
        -1 => {
            // 2^bit − 1: every bit below `bit` set.
            s = [0u8; 32];
            for b in 0..bit {
                s[b / 8] |= 1 << (b % 8);
            }
        }
        _ => {}
    }
    s
}

/// Scalars below 2^255: random ones, and the edges of the split — 0,
/// L − 1, 2^255 − 1, and each side of the chunk boundaries 2^64, 2^128
/// and 2^192.
fn chain_scalar() -> impl Strategy<Value = [u8; 32]> {
    let edge = (0usize..12).prop_map(|i| match i {
        0 => [0u8; 32],
        1 => {
            let mut l_minus_one = L_BYTES;
            l_minus_one[0] -= 1;
            l_minus_one
        }
        2 => power_of_two_plus(255, -1),
        _ => power_of_two_plus(64 * (1 + (i - 3) / 3), (i % 3) as i8 - 1),
    });
    let random = any::<[u8; 32]>().prop_map(|mut s| {
        s[31] &= 0x7f;
        s
    });
    prop_oneof![edge, random]
}

/// `public` with the order-2 point added: it decodes, and [L] of it is
/// T₂, not the identity.
fn twisted(public: &PublicKey) -> PublicKey {
    EdwardsPoint::decompress(public)
        .expect("honest key")
        .add(&order_two())
        .compress()
}

proptest! {
    // Point arithmetic dominates runtime; keep case counts modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Signatures verify for every (seed, message).
    #[test]
    fn sign_verify_round_trip(seed in any::<[u8; 32]>(), msg in prop::collection::vec(any::<u8>(), 0..128)) {
        let pk = derive_public_key(&seed);
        let sig = sign(&seed, &msg);
        prop_assert!(verify(&sig, &pk, &msg).is_ok());
    }

    /// A key pair signs from the secret it expanded once: byte-equal to
    /// the seed entry for every (seed, message), and what it signs
    /// verifies alone and in a pool.
    #[test]
    fn keypair_sign_equals_seed_sign(
        seeds in prop::collection::vec(any::<[u8; 32]>(), 1..4),
        msg in prop::collection::vec(any::<u8>(), 0..128),
    ) {
        let pairs: Vec<KeyPair> = seeds.iter().copied().map(KeyPair::from_seed).collect();
        let sigs: Vec<_> = pairs.iter().map(|pair| pair.sign(&msg)).collect();
        for ((seed, pair), sig) in seeds.iter().zip(&pairs).zip(&sigs) {
            prop_assert_eq!(pair.public(), &derive_public_key(seed));
            prop_assert_eq!(sig, &sign(seed, &msg));
            prop_assert!(pair.verify(sig, &msg));
        }
        let items: Vec<BatchItem<'_>> = pairs
            .iter()
            .zip(&sigs)
            .map(|(pair, signature)| BatchItem { signature, public: pair.public(), message: &msg })
            .collect();
        prop_assert!(verify_batch(&items).iter().all(Result::is_ok));
    }

    /// Flipping any message bit breaks the signature.
    #[test]
    fn bit_flip_breaks_signature(
        seed in any::<[u8; 32]>(),
        msg in prop::collection::vec(any::<u8>(), 1..64),
        idx in any::<prop::sample::Index>(),
    ) {
        let pk = derive_public_key(&seed);
        let sig = sign(&seed, &msg);
        let mut tampered = msg.clone();
        let i = idx.index(tampered.len());
        tampered[i] ^= 1;
        prop_assert!(verify(&sig, &pk, &tampered).is_err());
    }

    /// Pooled ≡ per-item: a batch of 2–64 items over three keys and a
    /// fourth, twisted(A) = A + T₂, held by the first key's holder (so
    /// A-terms group and their coefficients wrap mod L, a small-order
    /// term included), with a random tamper per item — an S byte, an R
    /// byte, a message byte, a non-canonical S or an undecodable key —
    /// or the holder's re-signature with R = [r]B + T for T = T₂ or a
    /// point of order 8. Every item gets exactly `verify`'s verdict,
    /// through every accepted, derived and singleton subset the
    /// bisection visits, and every untampered item is Ok.
    #[test]
    fn batch_verdicts_equal_per_item_verify(
        plan in prop::collection::vec((0usize..4, 0u8..20, any::<u8>(), 1u8..=255), 2..=64),
    ) {
        let secrets: Vec<ExpandedSecret> =
            (1u8..=3).map(|i| ExpandedSecret::from_seed(&[i; 32])).collect();
        let mut keys: Vec<PublicKey> = secrets.iter().map(ExpandedSecret::public_key).collect();
        keys.push(twisted(&keys[0]));
        let small_order = [order_two(), order_eight()];
        let undecodable = undecodable_key();
        let triples: Vec<(PublicKey, Vec<u8>, Signature)> = plan
            .iter()
            .enumerate()
            .map(|(i, &(signer, tamper, at, mask))| {
                let secret = &secrets[signer % 3];
                let mut public = keys[signer];
                let mut msg = format!("pooled {i} {at}").into_bytes();
                let mut sig = secret.sign(&public, &msg);
                match tamper {
                    0 => sig[32 + at as usize % 32] ^= mask, // S byte
                    1 => sig[at as usize % 32] ^= mask,      // R byte
                    2 => {
                        let j = at as usize % msg.len();
                        msg[j] ^= mask
                    }
                    3 => sig[63] |= 0xf0, // S ≥ L
                    4 => public = undecodable,
                    5 | 6 => {
                        // The holder's re-signature with a small-order R.
                        let t = &small_order[usize::from(tamper - 5)];
                        sig = secret.sign_with(&public, t, at, &msg);
                    }
                    _ => {} // honest
                }
                (public, msg, sig)
            })
            .collect();
        let items: Vec<BatchItem<'_>> = triples
            .iter()
            .map(|(public, message, signature)| BatchItem { signature, public, message })
            .collect();
        let singly: Vec<_> = triples
            .iter()
            .map(|(public, message, signature)| verify(signature, public, message))
            .collect();
        for (&(_, tamper, _, _), verdict) in plan.iter().zip(&singly) {
            if tamper >= 5 {
                prop_assert_eq!(verdict, &Ok(()));
            }
        }
        prop_assert_eq!(verify_batch(&items), singly);
    }

    /// Multisig round-trips through the wire encoding and verifies.
    #[test]
    fn multisig_wire_round_trip(seeds in prop::collection::vec(any::<[u8; 32]>(), 1..4), msg in prop::collection::vec(any::<u8>(), 0..32)) {
        let pairs: Vec<KeyPair> = seeds.into_iter().map(KeyPair::from_seed).collect();
        let refs: Vec<&KeyPair> = pairs.iter().collect();
        let ms = MultiSignature::create(&refs, &msg);
        let required: Vec<_> = pairs.iter().map(|k| *k.public()).collect();
        prop_assert!(ms.verify(&required, &msg));
        let back = MultiSignature::from_wire(&ms.to_wire()).expect("wire parses");
        prop_assert!(back.verify(&required, &msg));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The split chain (64- and 128-bit chunks), the plain chain and the
    /// serial double-and-add give one point, for an honest key, for that
    /// key plus T₂ and for B.
    #[test]
    fn split_chain_equals_plain_chain_and_serial(
        seed in any::<[u8; 32]>(),
        scalar in chain_scalar(),
    ) {
        let honest = derive_public_key(&seed);
        for public in [honest, twisted(&honest)] {
            let point = EdwardsPoint::decompress(&public).expect("decodes");
            let split: SplitTables = split_tables(&point);
            let serial = point.scalar_mul_serial(&scalar);
            for chunk_bits in [64, 128] {
                let chained = multiscalar_mul(chunk_bits, None, &[(scalar, &split)], &[]);
                prop_assert!(chained.eq_point(&serial), "{chunk_bits}-bit chunks");
            }
            let plain = multiscalar_mul(256, None, &[], &[(scalar, &split[0])]);
            prop_assert!(plain.eq_point(&serial), "plain chain");
        }
        let serial = EdwardsPoint::base().scalar_mul_serial(&scalar);
        for chunk_bits in [64, 128, 256] {
            let chained = multiscalar_mul(chunk_bits, Some(&scalar), &[], &[]);
            prop_assert!(chained.eq_point(&serial), "B at {chunk_bits}-bit chunks");
        }
    }

    /// `verify` and `verify_batch` give the plain-chain reference's
    /// verdict on every item: honest signatures, tampered ones, and
    /// signatures under a key with a torsion component.
    #[test]
    fn split_chain_verdicts_equal_plain_chain(
        plan in prop::collection::vec((0usize..4, 0u8..4, any::<u8>()), 1..=12),
    ) {
        let pairs: Vec<KeyPair> = (1u8..=3).map(|i| KeyPair::from_seed([i; 32])).collect();
        let torsion_secret = ExpandedSecret::from_seed(&[0x4D; 32]);
        let torsion_key = twisted(&torsion_secret.public_key());
        let triples: Vec<(PublicKey, Vec<u8>, Signature)> = plan
            .iter()
            .enumerate()
            .map(|(i, &(signer, tamper, at))| {
                let mut msg = format!("chained {i} {at}").into_bytes();
                let (public, mut sig) = match pairs.get(signer) {
                    Some(pair) => (*pair.public(), pair.sign(&msg)),
                    None => (torsion_key, torsion_secret.sign(&torsion_key, &msg)),
                };
                match tamper {
                    0 => sig[32 + at as usize % 31] ^= 1, // S byte
                    1 => sig[at as usize % 32] ^= 1,      // R byte
                    2 => msg[0] ^= 1,
                    _ => {} // untouched
                }
                (public, msg, sig)
            })
            .collect();
        let reference: Vec<_> = triples
            .iter()
            .map(|(public, message, signature)| verify_plain_chain(signature, public, message))
            .collect();
        for ((public, message, signature), want) in triples.iter().zip(&reference) {
            prop_assert_eq!(&verify(signature, public, message), want);
        }
        let items: Vec<BatchItem<'_>> = triples
            .iter()
            .map(|(public, message, signature)| BatchItem { signature, public, message })
            .collect();
        prop_assert_eq!(verify_batch(&items), reference);
    }

    /// A fulfillment has one spelling: whatever `from_wire` accepts,
    /// `to_wire` gives back byte for byte — here over real wires with
    /// letters re-cased and characters swapped for hex and separators.
    #[test]
    fn from_wire_accepts_only_to_wire_spellings(
        seeds in prop::collection::vec(any::<[u8; 32]>(), 0..3),
        edits in prop::collection::vec((any::<prop::sample::Index>(), 0usize..6), 0..3),
    ) {
        let pairs: Vec<KeyPair> = seeds.into_iter().map(KeyPair::from_seed).collect();
        let refs: Vec<&KeyPair> = pairs.iter().collect();
        let mut wire: Vec<u8> = MultiSignature::create(&refs, b"spelled").to_wire().into_bytes();
        for (at, edit) in &edits {
            if wire.is_empty() {
                break;
            }
            let i = at.index(wire.len());
            wire[i] = match edit {
                0 => wire[i].to_ascii_uppercase(),
                1 => wire[i].to_ascii_lowercase(),
                2 => b'A',
                3 => b'a',
                4 => b':',
                _ => b';',
            };
        }
        let wire = String::from_utf8(wire).expect("ascii");
        if let Some(parsed) = MultiSignature::from_wire(&wire) {
            prop_assert_eq!(parsed.to_wire(), wire);
        } else {
            prop_assert!(!edits.is_empty(), "an unedited wire parses");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hex round-trips arbitrary byte strings.
    #[test]
    fn hex_round_trip(data in prop::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    /// Hash functions are deterministic and length-stable.
    #[test]
    fn hashes_deterministic(data in prop::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(sha3_256(&data), sha3_256(&data));
        prop_assert_eq!(sha512(&data), sha512(&data));
    }

    /// Single-bit input changes alter the SHA3 digest (sanity avalanche).
    #[test]
    fn sha3_avalanche(data in prop::collection::vec(any::<u8>(), 1..64), idx in any::<prop::sample::Index>()) {
        let mut other = data.clone();
        let i = idx.index(other.len());
        other[i] ^= 1;
        prop_assert_ne!(sha3_256(&data), sha3_256(&other));
    }
}
