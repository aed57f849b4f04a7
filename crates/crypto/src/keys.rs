//! Account key pairs and multi-signature strings.
//!
//! The formal model (§3.1) defines accounts as public/private pairs
//! `pbpk_i = <pb_i, pk_i>` and multi-signature strings `ms_{i,j,k}`
//! "made up as a function of multiple signatures … used in the case
//! where an asset is controlled by a group of entities who must sign
//! transactions on the asset".

use crate::ed25519::{verify, ExpandedSecret, PublicKey, SecretKey, Signature};
use crate::hex;
use rand::RngCore;
use std::fmt;

/// An account: the model's `pbpk_i` pair. The seed is expanded once,
/// here, so a signature costs one base-point multiplication instead of
/// re-deriving the public key per call.
#[derive(Clone)]
pub struct KeyPair {
    secret: ExpandedSecret,
    /// Always `secret.public_key()` — the invariant
    /// [`ExpandedSecret::sign`] relies on; private, set only in
    /// [`KeyPair::from_seed`].
    public: PublicKey,
}

/// The public half only: a key pair in a log line or a failed
/// assertion must not print what signs for the account.
impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyPair")
            .field("public", &self.public_hex())
            .finish_non_exhaustive()
    }
}

impl KeyPair {
    /// Generates a key pair from a cryptographically random seed.
    pub fn generate<R: RngCore>(rng: &mut R) -> KeyPair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        KeyPair::from_seed(seed)
    }

    /// Deterministic key pair from a 32-byte seed (used heavily by tests
    /// and the workload generator for reproducibility).
    pub fn from_seed(seed: SecretKey) -> KeyPair {
        let secret = ExpandedSecret::from_seed(&seed);
        let public = secret.public_key();
        KeyPair { secret, public }
    }

    /// The public key (the account identity placed in transaction
    /// outputs).
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The public key as lowercase hex, the wire form used in payloads.
    pub fn public_hex(&self) -> String {
        hex::encode(&self.public)
    }

    /// Signs a message with this account's private key.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.secret.sign(&self.public, message)
    }

    /// Verifies a signature against this account's public key.
    pub fn verify(&self, signature: &Signature, message: &[u8]) -> bool {
        verify(signature, &self.public, message).is_ok()
    }
}

/// A multi-signature string `ms_{i,j,k}`: an ordered list of
/// (public key, signature) pairs over one message. All listed owners must
/// have signed for the string to verify — the "group of entities who must
/// sign transactions on the asset" semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiSignature {
    entries: Vec<(PublicKey, Signature)>,
}

impl MultiSignature {
    /// Builds a multi-signature by having every key pair sign `message`.
    pub fn create(signers: &[&KeyPair], message: &[u8]) -> MultiSignature {
        let entries = signers
            .iter()
            .map(|kp| (*kp.public(), kp.sign(message)))
            .collect();
        MultiSignature { entries }
    }

    /// An empty multi-signature (used by unsigned template transactions
    /// before the driver's "fulfill" step).
    pub fn empty() -> MultiSignature {
        MultiSignature {
            entries: Vec::new(),
        }
    }

    /// Adds one signer's contribution.
    pub fn push(&mut self, public: PublicKey, signature: Signature) {
        self.entries.push((public, signature));
    }

    /// The public keys that contributed, in order.
    pub fn signers(&self) -> impl Iterator<Item = &PublicKey> {
        self.entries.iter().map(|(pb, _)| pb)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Verifies that *every* entry is a valid signature over `message`,
    /// and that the signers are `required`, in order. This is the
    /// model's `verify` lifted to multi-signature strings.
    pub fn verify(&self, required: &[PublicKey], message: &[u8]) -> bool {
        self.covers_exactly(required)
            && self
                .entries
                .iter()
                .all(|(pb, sig)| verify(sig, pb, message).is_ok())
    }

    /// The exact-cover half of [`MultiSignature::verify`]: the entries'
    /// keys equal `required` in order, no signature checked. One order
    /// means one spelling: a permuted fulfillment, re-sealed, would be a
    /// second valid transaction spending the same inputs. Batch
    /// verification runs this structurally, then pools the per-entry
    /// ed25519 checks across many strings.
    pub fn covers_exactly(&self, required: &[PublicKey]) -> bool {
        self.signers().eq(required)
    }

    /// The (public key, signature) pairs in entry order, for pooling
    /// into [`crate::verify_batch`].
    pub fn entries(&self) -> &[(PublicKey, Signature)] {
        &self.entries
    }

    /// Serializes to the wire string form: hex pairs joined with `:`,
    /// entries joined with `;` — a concrete rendering of the model's
    /// "complex string made up as a function of multiple signatures".
    pub fn to_wire(&self) -> String {
        self.entries
            .iter()
            .map(|(pb, sig)| format!("{}:{}", hex::encode(pb), hex::encode(sig)))
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Parses the wire string form. Only the spelling
    /// [`MultiSignature::to_wire`] gives is accepted: `hex::decode`
    /// alone would also take upper-case digits, and a fulfillment
    /// re-spelled that way, with its id re-sealed, would be a second
    /// valid transaction spending the same inputs under another id.
    pub fn from_wire(s: &str) -> Option<MultiSignature> {
        if s.is_empty() {
            return Some(MultiSignature::empty());
        }
        let mut entries = Vec::new();
        for part in s.split(';') {
            let (pb_hex, sig_hex) = part.split_once(':')?;
            let pb: PublicKey = hex::decode_array(pb_hex)?;
            let sig: Signature = hex::decode_array(sig_hex)?;
            entries.push((pb, sig));
        }
        let ms = MultiSignature { entries };
        (ms.to_wire() == s).then_some(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    #[test]
    fn keypair_sign_verify() {
        let kp = KeyPair::generate(&mut rng());
        let sig = kp.sign(b"declare");
        assert!(kp.verify(&sig, b"declare"));
        assert!(!kp.verify(&sig, b"declarf"));
    }

    #[test]
    fn from_seed_is_deterministic() {
        let a = KeyPair::from_seed([42u8; 32]);
        let b = KeyPair::from_seed([42u8; 32]);
        assert_eq!(a.public(), b.public());
        assert_eq!(a.public_hex().len(), 64);
    }

    #[test]
    fn debug_prints_the_public_key_only() {
        let kp = KeyPair::from_seed([42u8; 32]);
        assert_eq!(
            format!("{kp:?}"),
            format!("KeyPair {{ public: {:?}, .. }}", kp.public_hex())
        );
    }

    #[test]
    fn multisig_requires_all_signers() {
        let mut r = rng();
        let alice = KeyPair::generate(&mut r);
        let bob = KeyPair::generate(&mut r);
        let ms = MultiSignature::create(&[&alice, &bob], b"shared asset");
        let required = [*alice.public(), *bob.public()];
        assert!(ms.verify(&required, b"shared asset"));

        // Missing a signer fails.
        let ms_partial = MultiSignature::create(&[&alice], b"shared asset");
        assert!(!ms_partial.verify(&required, b"shared asset"));

        // An extra signer fails (exact cover).
        let carol = KeyPair::generate(&mut r);
        let ms_extra = MultiSignature::create(&[&alice, &bob, &carol], b"shared asset");
        assert!(!ms_extra.verify(&required, b"shared asset"));
    }

    #[test]
    fn multisig_refuses_a_permuted_entry_order() {
        let mut r = rng();
        let alice = KeyPair::generate(&mut r);
        let bob = KeyPair::generate(&mut r);
        let required = [*alice.public(), *bob.public()];
        assert!(MultiSignature::create(&[&alice, &bob], b"m").verify(&required, b"m"));
        let ms = MultiSignature::create(&[&bob, &alice], b"m");
        assert!(!ms.verify(&required, b"m"));
    }

    #[test]
    fn multisig_detects_tampered_message() {
        let mut r = rng();
        let alice = KeyPair::generate(&mut r);
        let ms = MultiSignature::create(&[&alice], b"one");
        assert!(!ms.verify(&[*alice.public()], b"two"));
    }

    #[test]
    fn wire_round_trip() {
        let mut r = rng();
        let alice = KeyPair::generate(&mut r);
        let bob = KeyPair::generate(&mut r);
        let ms = MultiSignature::create(&[&alice, &bob], b"wire");
        let s = ms.to_wire();
        let back = MultiSignature::from_wire(&s).expect("parses");
        assert_eq!(back, ms);
        assert!(back.verify(&[*alice.public(), *bob.public()], b"wire"));
    }

    #[test]
    fn wire_rejects_garbage() {
        assert!(MultiSignature::from_wire("nothex:beef").is_none());
        assert!(MultiSignature::from_wire("beef").is_none());
        assert_eq!(MultiSignature::from_wire("").map(|m| m.len()), Some(0));
    }

    #[test]
    fn wire_accepts_only_its_own_spelling() {
        let alice = KeyPair::generate(&mut rng());
        let wire = MultiSignature::create(&[&alice], b"m").to_wire();
        assert!(MultiSignature::from_wire(&wire).is_some());
        assert!(MultiSignature::from_wire(&wire.to_uppercase()).is_none());
    }

    #[test]
    fn duplicate_signer_cannot_satisfy_two_slots() {
        let mut r = rng();
        let alice = KeyPair::generate(&mut r);
        let bob = KeyPair::generate(&mut r);
        // Alice signs twice, but the requirement is {alice, bob}.
        let ms = MultiSignature::create(&[&alice, &alice], b"m");
        assert!(!ms.verify(&[*alice.public(), *bob.public()], b"m"));
    }
}
