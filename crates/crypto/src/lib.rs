//! Cryptography substrate for SmartchainDB, implemented from scratch.
//!
//! The paper's formal model (§3.1) assumes a signature system with
//! `sign(pk, m)` and `verify(s, pb, m)`, multi-signature strings
//! `ms_{i,j,k}`, and SHA3 hex-digest transaction identifiers. BigchainDB
//! realizes these with Ed25519 and SHA3-256; this crate re-implements both
//! primitives directly (no external crypto crates):
//!
//! * [`sha3_256`] — FIPS 202 SHA3-256 (Keccak-f\[1600\]), used for
//!   transaction ids (`sha3_hexdigest` in the paper's schema, Fig. 5);
//! * [`keccak_256`] — the legacy Keccak-256 padding variant Ethereum
//!   uses (storage slots, mapping keys, ABI selectors), shared by the
//!   ETH-SC baseline runtime in `scdb-evm`;
//! * [`sha512`] — FIPS 180-4 SHA-512, the internal hash of Ed25519;
//! * `ed25519` — RFC 8032 Ed25519 over our own curve25519 field and
//!   Edwards-point arithmetic;
//! * [`KeyPair`] / [`MultiSignature`] — account keys (the model's
//!   `PBPK` set) and multi-owner signature strings.
//!
//! Correctness is anchored on the official test vectors (RFC 8032 §7.1,
//! FIPS examples) plus property tests (sign/verify round trips, tampering
//! detection).

#![forbid(unsafe_code)]

mod ed25519;
mod edwards;
mod field;
pub mod hex;
mod keys;
mod scalar;
mod sha3;
mod sha512;

pub use ed25519::{
    derive_public_key, key_cache_stats, sign, verify, verify_batch, BatchItem, PublicKey,
    SecretKey, Signature, SignatureError, PUBLIC_KEY_LEN, SECRET_KEY_LEN, SIGNATURE_LEN,
};
pub use keys::{KeyPair, MultiSignature};
pub use sha3::{keccak_256, sha3_256, sha3_256_hex};
pub use sha512::sha512;

#[cfg(test)]
mod proptests;
