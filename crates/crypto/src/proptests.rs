//! Property tests for the cryptography substrate.

use crate::ed25519::{
    derive_public_key, prepare_public_key, sign, verify, verify_batch, BatchItem, PublicKey,
    Signature,
};
use crate::keys::{KeyPair, MultiSignature};
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

    /// Pooled ≡ per-item: a batch of 2–64 items over three keys (so
    /// A-terms group and their coefficients wrap mod L), with a random
    /// tamper per item — an S byte, an R byte, a message byte, a
    /// non-canonical S or an undecodable key — gets exactly `verify`'s
    /// verdicts, through every accepted, derived and singleton subset
    /// the bisection visits.
    #[test]
    fn batch_verdicts_equal_per_item_verify(
        plan in prop::collection::vec((0usize..3, 0u8..20, any::<u8>(), 1u8..=255), 2..=64),
    ) {
        let pairs: Vec<KeyPair> = (1u8..=3).map(|i| KeyPair::from_seed([i; 32])).collect();
        let undecodable = undecodable_key();
        let triples: Vec<(PublicKey, Vec<u8>, Signature)> = plan
            .iter()
            .enumerate()
            .map(|(i, &(signer, tamper, at, mask))| {
                let pair = &pairs[signer];
                let mut msg = format!("pooled {i} {at}").into_bytes();
                let mut sig = pair.sign(&msg);
                let mut public = *pair.public();
                match tamper {
                    0 => sig[32 + at as usize % 32] ^= mask, // S byte
                    1 => sig[at as usize % 32] ^= mask,      // R byte
                    2 => {
                        let j = at as usize % msg.len();
                        msg[j] ^= mask
                    }
                    3 => sig[63] |= 0xf0, // S ≥ L
                    4 => public = undecodable,
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
