//! Ed25519 signatures (RFC 8032), assembled from the field, point and
//! scalar layers.
//!
//! This realizes the formal model's `sign(pk, m)` and
//! `verify(s, pb, m)` functions (§3.1 of the paper). Verification is
//! cofactored on both paths: a signature is accepted when
//! [8]([k]A − [s]B + R) is the identity, the check RFC 8032 §5.1.7
//! permits and ZIP 215 specifies. Under it a single check and a pooled
//! one give the same verdict, a small-order component in R or A
//! included. Non-canonical encodings of R and A are still refused.
//!
//! [`verify`] computes [k]A − [s]B in one shared doubling chain, cut to
//! 64 doublings by splitting k and −s into 64-bit chunks against tables
//! of 2^(64j)·A and 2^(64j)·B. [`verify_batch`] pools a flush into one
//! random linear combination and, when it fails, bisects at half cost:
//! each failing subset evaluates its left half and derives its right
//! half by one point subtraction, and a singleton is decided from its
//! own combined point.

use crate::edwards::{multiscalar_mul, split_tables, EdwardsPoint, PointTable, SplitTables};
use crate::scalar::Scalar;
use crate::sha512::sha512;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

pub const SECRET_KEY_LEN: usize = 32;
pub const PUBLIC_KEY_LEN: usize = 32;
pub const SIGNATURE_LEN: usize = 64;

/// A 32-byte Ed25519 seed (the model's private key `pk_i`).
pub type SecretKey = [u8; SECRET_KEY_LEN];

/// A 32-byte compressed public key (the model's `pb_i`).
pub type PublicKey = [u8; PUBLIC_KEY_LEN];

/// A 64-byte signature `R || S`.
pub type Signature = [u8; SIGNATURE_LEN];

/// Reasons a signature fails to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// The public key bytes do not decode to a curve point.
    InvalidPublicKey,
    /// The R component does not decode to a curve point.
    InvalidR,
    /// S is not canonical (>= L): rejected to prevent malleability.
    NonCanonicalS,
    /// The verification equation does not hold.
    Mismatch,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::InvalidPublicKey => write!(f, "invalid public key encoding"),
            SignatureError::InvalidR => write!(f, "invalid signature R encoding"),
            SignatureError::NonCanonicalS => write!(f, "non-canonical signature S"),
            SignatureError::Mismatch => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for SignatureError {}

/// A seed expanded once (RFC 8032 §5.1.5): the clamped scalar `s` and
/// the PRF prefix every signature derives its nonce from. As secret as
/// the seed itself — no `Debug`, and it never leaves the crate.
#[derive(Clone)]
pub(crate) struct ExpandedSecret {
    /// Clamped, < 2^255, used directly for point multiplication; it is
    /// NOT reduced mod L before multiplying, matching the RFC's "s·B"
    /// where s may exceed L.
    s: Scalar,
    prefix: [u8; 32],
}

impl ExpandedSecret {
    pub(crate) fn from_seed(seed: &SecretKey) -> ExpandedSecret {
        let h = sha512(seed);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&h[..32]);
        s_bytes[0] &= 248;
        s_bytes[31] &= 63;
        s_bytes[31] |= 64;
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        ExpandedSecret {
            s: Scalar(s_bytes),
            prefix,
        }
    }

    /// The public key A = s·B.
    pub(crate) fn public_key(&self) -> PublicKey {
        EdwardsPoint::mul_base(&self.s.0).compress()
    }

    /// Signs `message`, RFC 8032 §5.1.6, with one base-point
    /// multiplication. `public` MUST be [`ExpandedSecret::public_key`]
    /// of this secret: two signatures over one message under different
    /// claimed keys share the nonce `r` and differ in `k`, which solves
    /// for `s` — so only [`crate::KeyPair`], which derived the key
    /// itself, and [`sign`] call this.
    pub(crate) fn sign(&self, public: &PublicKey, message: &[u8]) -> Signature {
        // r = SHA-512(prefix || M) mod L
        let mut buf = Vec::with_capacity(32 + message.len());
        buf.extend_from_slice(&self.prefix);
        buf.extend_from_slice(message);
        let r = Scalar::from_bytes_wide(&sha512(&buf));

        let r_point = EdwardsPoint::mul_base(&r.0).compress();
        let k = challenge_scalar(&r_point, public, message);

        // S = (r + k·s) mod L. The clamped s exceeds L, so reduce it
        // first — this preserves the group action because s·B depends
        // only on s mod L (B has order L).
        let s_reduced = Scalar::from_bytes(&self.s.0);
        let big_s = Scalar::mul_add(k, s_reduced, r);

        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&big_s.to_bytes());
        sig
    }

    /// Signs RFC 8032's way except for the commitment: R is `r·B + extra`
    /// for r = `nonce` repeated, and the challenge is taken under
    /// `public` (which need not be this secret's own key). Only a key
    /// holder can do this.
    #[cfg(test)]
    pub(crate) fn sign_with(
        &self,
        public: &PublicKey,
        extra: &EdwardsPoint,
        nonce: u8,
        msg: &[u8],
    ) -> Signature {
        let r = Scalar::from_bytes(&[nonce; 32]);
        let r_point = EdwardsPoint::mul_base(&r.0).add(extra).compress();
        let k = challenge_scalar(&r_point, public, msg);
        let s = Scalar::mul_add(k, Scalar::from_bytes(&self.s.0), r);
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s.0);
        sig
    }
}

/// Derives the public key A = s·B from a seed.
pub fn derive_public_key(seed: &SecretKey) -> PublicKey {
    ExpandedSecret::from_seed(seed).public_key()
}

/// Signs `message` with the secret seed: expand, derive the public key,
/// then the one signing body (`ExpandedSecret::sign`). Callers that
/// sign repeatedly hold a [`crate::KeyPair`], which expands once.
pub fn sign(seed: &SecretKey, message: &[u8]) -> Signature {
    let secret = ExpandedSecret::from_seed(seed);
    secret.sign(&secret.public_key(), message)
}

/// A decompressed public key with its precomputed split tables. Senders
/// repeat, so prepared keys are cached process-wide and shared across
/// individual and batch verification.
#[derive(Debug)]
pub struct PreparedPublicKey {
    /// Width-5 odd-multiples tables of 2^(64j)·A for j = 0..3, 8 cached
    /// points of 160 bytes each, ~5 KB in all. A single check runs k's
    /// four 64-bit chunks against them, a pool its grouped coefficient's
    /// two 128-bit halves against tables 0 and 2. Building them costs 192
    /// doublings on top of the first table's.
    split: SplitTables,
}

impl PreparedPublicKey {
    fn decode(public: &PublicKey) -> Option<PreparedPublicKey> {
        let point = EdwardsPoint::decompress(public)?;
        Some(PreparedPublicKey {
            split: split_tables(&point),
        })
    }
}

/// Exact-LRU bounded cache for prepared keys.
///
/// A hit returns the *same* `Option<Arc<..>>` every time, because
/// batch verification groups A-terms by `Arc` identity and a hot key
/// (the marketplace escrow above all) must keep the same prepared
/// table across evictions. The cache holds at most `cap` entries;
/// inserting a new key at capacity evicts exactly the one
/// least-recently-touched entry, and a lookup only refreshes the hit
/// key's recency — it never evicts anything. (The two-generation
/// design this replaces routed promotion-on-hit through the insertion
/// path, so one cold-generation hit at `hot_cap` rotated the
/// generations and dropped up to `hot_cap` warm keys.) Recency is a
/// monotonic stamp per entry plus a stamp→key index, so get and
/// insert both cost O(log cap). Decode failures are cached too, so a
/// replayed garbage key does not pay the square-root decompression
/// attempt twice.
///
/// Memory: a decoded entry is ~5 KB of split tables, so a full cache
/// holds ~42 MB at [`PUBKEY_CACHE_CAP`].
struct PreparedKeyCache {
    entries: HashMap<PublicKey, (Option<Arc<PreparedPublicKey>>, u64)>,
    by_age: BTreeMap<u64, PublicKey>,
    clock: u64,
    cap: usize,
    /// Lookups that found the key resident, and those that did not.
    hits: u64,
    misses: u64,
    /// Entries dropped to make room at capacity.
    evicted: u64,
}

impl PreparedKeyCache {
    fn with_capacity(cap: usize) -> PreparedKeyCache {
        PreparedKeyCache {
            entries: HashMap::new(),
            by_age: BTreeMap::new(),
            clock: 0,
            cap: cap.max(1),
            hits: 0,
            misses: 0,
            evicted: 0,
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Marks an entry as just-touched: its old stamp leaves the recency
    /// index and the freshest stamp takes its place.
    fn touch(
        entry: &mut (Option<Arc<PreparedPublicKey>>, u64),
        by_age: &mut BTreeMap<u64, PublicKey>,
        clock: &mut u64,
        public: &PublicKey,
    ) {
        by_age.remove(&entry.1);
        *clock += 1;
        entry.1 = *clock;
        by_age.insert(*clock, *public);
    }

    fn stats(&self) -> [(&'static str, u64); 4] {
        [
            ("resident", self.entries.len() as u64),
            ("hits", self.hits),
            ("misses", self.misses),
            ("evicted", self.evicted),
        ]
    }

    /// The resident entry for `public`, refreshed; `None` if absent.
    fn resident(&mut self, public: &PublicKey) -> Option<Option<Arc<PreparedPublicKey>>> {
        let entry = self.entries.get_mut(public)?;
        Self::touch(entry, &mut self.by_age, &mut self.clock, public);
        Some(entry.0.clone())
    }

    /// [`PreparedKeyCache::resident`], counted as a hit or a miss.
    fn get(&mut self, public: &PublicKey) -> Option<Option<Arc<PreparedPublicKey>>> {
        let found = self.resident(public);
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Inserts `prepared` unless `public` is already resident, and
    /// returns the resident entry either way: a worker that lost a
    /// decode race gets the winner's `Arc`, so grouping by identity
    /// still holds.
    fn get_or_insert(
        &mut self,
        public: PublicKey,
        prepared: Option<Arc<PreparedPublicKey>>,
    ) -> Option<Arc<PreparedPublicKey>> {
        if let Some(resident) = self.resident(&public) {
            return resident;
        }
        if self.entries.len() >= self.cap {
            if let Some((&oldest, _)) = self.by_age.iter().next() {
                let evicted = self.by_age.remove(&oldest).expect("indexed key");
                self.entries.remove(&evicted);
                self.evicted += 1;
            }
        }
        self.clock += 1;
        self.entries.insert(public, (prepared.clone(), self.clock));
        self.by_age.insert(self.clock, public);
        prepared
    }
}

/// Process-wide prepared-key cache; see [`PreparedKeyCache`] for the
/// bounding and retention policy.
fn pubkey_cache() -> &'static Mutex<PreparedKeyCache> {
    static CACHE: std::sync::OnceLock<Mutex<PreparedKeyCache>> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(PreparedKeyCache::with_capacity(PUBKEY_CACHE_CAP)))
}

const PUBKEY_CACHE_CAP: usize = 8_192;

/// The process-wide prepared-key cache's figures: keys resident, lookups
/// that hit and missed, and entries evicted at capacity, in that order.
/// Every verifier in the process shares the one cache, so the figures
/// cover every node and replica in it. A miss costs a decompression
/// plus the split tables: 196 doublings and 28 additions.
pub fn key_cache_stats() -> [(&'static str, u64); 4] {
    pubkey_cache().lock().expect("pubkey cache").stats()
}

/// Decompresses `public` through the process-wide cache. A miss decodes
/// outside the lock — decompression and the split tables cost more than
/// a single check, and admission workers must not queue behind each
/// other's cold keys — then keeps whichever decoding landed first.
pub fn prepare_public_key(public: &PublicKey) -> Option<Arc<PreparedPublicKey>> {
    let hit = pubkey_cache().lock().expect("pubkey cache").get(public);
    if let Some(hit) = hit {
        return hit;
    }
    let prepared = PreparedPublicKey::decode(public).map(Arc::new);
    pubkey_cache()
        .lock()
        .expect("pubkey cache")
        .get_or_insert(*public, prepared)
}

/// k = SHA-512(R || A || M) mod L — the Fiat–Shamir challenge scalar.
fn challenge_scalar(r_bytes: &[u8; 32], public: &PublicKey, message: &[u8]) -> Scalar {
    let mut buf = Vec::with_capacity(64 + message.len());
    buf.extend_from_slice(r_bytes);
    buf.extend_from_slice(public);
    buf.extend_from_slice(message);
    Scalar::from_bytes_wide(&sha512(&buf))
}

/// A single check cuts k and −S into four 64-bit chunks, so its chain
/// is at most 64 doublings.
const SINGLE_CHUNK_BITS: usize = 64;

/// A pool's chain is already 128 doublings long for the 128-bit zᵢ on
/// each dynamic Rᵢ, so its B coefficient and each grouped A coefficient
/// are cut into two 128-bit halves: a key in a big pool costs additions
/// against two of its tables, not four, and no extra doubling.
const POOL_CHUNK_BITS: usize = 128;

/// The cofactored verification equation [8]([k]A − [S]B + R) == O over
/// decoded components — shared verbatim by `verify` and the batch's
/// single checks so their verdicts are identical by construction.
///
/// [k]A + [−S mod L]B runs in one doubling chain; negating B's scalar
/// mod L is exact because B has order L. Both scalars are cut into
/// `chunk_bits`-bit integer chunks against the split tables of A and B.
/// Production passes [`SINGLE_CHUNK_BITS`] (a chain of at most 64
/// doublings against ~253 for whole scalars); the tests' plain-chain
/// reference passes 256. R is added and the sum multiplied by the
/// cofactor, so a small-order component in R or A drops out, as it does
/// in the pool. `s_bytes` must be canonical (< L).
fn verify_equation(
    chunk_bits: usize,
    a: &PreparedPublicKey,
    r: &EdwardsPoint,
    s_bytes: &[u8; 32],
    k: &Scalar,
) -> bool {
    #[cfg(test)]
    count_work(|w| w.single_checks += 1);
    let neg_s = Scalar::neg(Scalar(*s_bytes));
    multiscalar_mul(chunk_bits, Some(&neg_s.0), &[(k.0, &a.split)], &[])
        .add(r)
        .mul_by_cofactor()
        .is_identity()
}

/// Verifies `signature` over `message` under `public`, RFC 8032 §5.1.7.
pub fn verify(
    signature: &Signature,
    public: &PublicKey,
    message: &[u8],
) -> Result<(), SignatureError> {
    verify_chunked(SINGLE_CHUNK_BITS, signature, public, message)
}

/// [`verify`] with its equation on the plain chain: k and −S run whole
/// against the first table of A and of B. The reference the split
/// chain is tested against.
#[cfg(test)]
pub(crate) fn verify_plain_chain(
    signature: &Signature,
    public: &PublicKey,
    message: &[u8],
) -> Result<(), SignatureError> {
    verify_chunked(256, signature, public, message)
}

fn verify_chunked(
    chunk_bits: usize,
    signature: &Signature,
    public: &PublicKey,
    message: &[u8],
) -> Result<(), SignatureError> {
    let a = prepare_public_key(public).ok_or(SignatureError::InvalidPublicKey)?;

    let mut r_bytes = [0u8; 32];
    r_bytes.copy_from_slice(&signature[..32]);
    let r = EdwardsPoint::decompress(&r_bytes).ok_or(SignatureError::InvalidR)?;

    let mut s_bytes = [0u8; 32];
    s_bytes.copy_from_slice(&signature[32..]);
    if !Scalar::is_canonical(&s_bytes) {
        return Err(SignatureError::NonCanonicalS);
    }

    let k = challenge_scalar(&r_bytes, public, message);

    if verify_equation(chunk_bits, &a, &r, &s_bytes, &k) {
        Ok(())
    } else {
        Err(SignatureError::Mismatch)
    }
}

/// One (signature, public key, message) triple for batch verification.
#[derive(Debug, Clone, Copy)]
pub struct BatchItem<'a> {
    pub signature: &'a Signature,
    pub public: &'a PublicKey,
    pub message: &'a [u8],
}

/// A batch item after upfront decoding.
struct DecodedItem {
    /// Position in the caller's slice.
    idx: usize,
    a: Arc<PreparedPublicKey>,
    r_point: EdwardsPoint,
    r_table: PointTable,
    s: Scalar,
    k: Scalar,
    /// The 128-bit random-linear-combination coefficient (odd, non-zero).
    z: Scalar,
}

/// Batch signature verification: per-item verdicts for a whole flush.
///
/// Valid batches are accepted with a single random-linear-combination
/// check — \[8\]V(S) == O for V(S) = Σ zᵢ·(Rᵢ + kᵢ·Aᵢ − Sᵢ·B), one
/// shared-doubling multiscalar accumulation — amortizing the
/// per-signature scalar multiplications. The 128-bit zᵢ set that chain
/// at 128 doublings; the full-width B and A coefficients run as two
/// 128-bit halves on their split tables to stay within it (see
/// `combined_point`). A failing subset bisects at half cost: its left
/// half is evaluated and its right half is V(S) − V(left), one point
/// subtraction. Reducing a grouped A coefficient mod L can add a
/// small-order point to V, and the cofactor clears it, so the derived
/// half is decided as a fresh evaluation would decide it. A singleton
/// is decided from its own point: \[8\]V({i}) = zᵢ·\[8\](Rᵢ + kᵢ·Aᵢ − Sᵢ·B)
/// lies in the prime-order subgroup and zᵢ is odd and below L, so it is
/// the identity exactly when [`verify`]'s equation holds.
///
/// The zᵢ coefficients are derived deterministically from a transcript
/// over all pooled (signature, key, challenge) triples, so verdicts are
/// a pure function of the batch. A signature set that fails the
/// individual equations passes the combined check with probability
/// ≲ 2⁻¹²⁷.
pub fn verify_batch(items: &[BatchItem<'_>]) -> Vec<Result<(), SignatureError>> {
    let mut results: Vec<Result<(), SignatureError>> = vec![Ok(()); items.len()];
    let mut decoded: Vec<DecodedItem> = Vec::with_capacity(items.len());

    for (idx, item) in items.iter().enumerate() {
        let Some(a) = prepare_public_key(item.public) else {
            results[idx] = Err(SignatureError::InvalidPublicKey);
            continue;
        };
        let mut r_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&item.signature[..32]);
        let Some(r_point) = EdwardsPoint::decompress(&r_bytes) else {
            results[idx] = Err(SignatureError::InvalidR);
            continue;
        };
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&item.signature[32..]);
        if !Scalar::is_canonical(&s_bytes) {
            results[idx] = Err(SignatureError::NonCanonicalS);
            continue;
        }
        let k = challenge_scalar(&r_bytes, item.public, item.message);
        decoded.push(DecodedItem {
            idx,
            r_table: PointTable::from_point(&r_point),
            a,
            r_point,
            s: Scalar(s_bytes),
            k,
            z: Scalar::zero(), // filled below, once the transcript is complete
        });
    }

    match decoded.len() {
        0 => return results,
        1 => {
            let d = &decoded[0];
            if !verify_equation(SINGLE_CHUNK_BITS, &d.a, &d.r_point, &d.s.0, &d.k) {
                results[d.idx] = Err(SignatureError::Mismatch);
            }
            return results;
        }
        _ => {}
    }

    // Transcript-derived coefficients: bind every signature, key and
    // challenge (the challenge in turn binds the message), then squeeze
    // one 128-bit zᵢ per item. The low bit is forced so zᵢ ≠ 0.
    let transcript = {
        let mut buf = Vec::with_capacity(16 + decoded.len() * 128);
        buf.extend_from_slice(b"scdb.batch.v1");
        buf.extend_from_slice(&(decoded.len() as u64).to_le_bytes());
        for d in &decoded {
            let item = &items[d.idx];
            buf.extend_from_slice(item.signature);
            buf.extend_from_slice(item.public);
            buf.extend_from_slice(&d.k.0);
        }
        sha512(&buf)
    };
    for (i, d) in decoded.iter_mut().enumerate() {
        let mut buf = [0u8; 72];
        buf[..64].copy_from_slice(&transcript);
        buf[64..].copy_from_slice(&(i as u64).to_le_bytes());
        let h = sha512(&buf);
        let mut z = [0u8; 32];
        z[..16].copy_from_slice(&h[..16]);
        z[0] |= 1;
        d.z = Scalar(z);
    }

    let pool: Vec<&DecodedItem> = decoded.iter().collect();
    bisect(&pool, combined_point(&pool), &mut results);
    results
}

/// Decides a non-empty `subset` whose combined point `v` = V(subset) is
/// already known: [8]V = O accepts every member, a singleton with
/// [8]V ≠ O is its member's mismatch, and anything else evaluates its
/// left half and derives the right as V(subset) − V(left).
fn bisect(subset: &[&DecodedItem], v: EdwardsPoint, results: &mut [Result<(), SignatureError>]) {
    if v.mul_by_cofactor().is_identity() {
        return; // every member already carries Ok
    }
    if let [d] = subset {
        results[d.idx] = Err(SignatureError::Mismatch);
        return;
    }
    let (left, right) = subset.split_at(subset.len() / 2);
    let v_left = combined_point(left);
    bisect(left, v_left, results);
    bisect(right, v.add(&v_left.neg()), results);
}

/// The combined point V(S) = −(Σ zᵢ·sᵢ)·B + Σ zᵢ·Rᵢ + Σ (zᵢ·kᵢ)·Aᵢ, up
/// to a small-order point; the subset's combined check passes when
/// [8]V(S) is the identity.
///
/// A-terms sharing one public key collapse into a single multiscalar
/// term with coefficient Σ zᵢ·kᵢ — the combination is linear in Aᵢ, so
/// this is an identity rewrite, and real traffic (one signer, many
/// transactions per flush) drops a full-width scalar multiplication
/// per repeated key. Repeats are recognized by prepared-key identity
/// (the process-wide cache hands equal keys the same `Arc`); a missed
/// share merely costs the optimization, never correctness.
///
/// Each Rᵢ runs its 128-bit zᵢ whole against its one table, which sets
/// the chain at 128 doublings; the B coefficient and each grouped A
/// coefficient are cut into two 128-bit halves against their split
/// tables 0 and 2 ([`POOL_CHUNK_BITS`]), so they stay within it.
fn combined_point(subset: &[&DecodedItem]) -> EdwardsPoint {
    #[cfg(test)]
    count_work(|w| {
        w.items += subset.len();
        w.equations += 1;
    });
    let mut b_coeff = Scalar::zero();
    let mut r_terms: Vec<([u8; 32], &PointTable)> = Vec::with_capacity(subset.len());
    let mut a_terms: Vec<([u8; 32], &SplitTables)> = Vec::with_capacity(subset.len());
    let mut a_index: std::collections::HashMap<*const PreparedPublicKey, usize> =
        std::collections::HashMap::with_capacity(subset.len());
    for d in subset {
        b_coeff = Scalar::mul_add(d.z, d.s, b_coeff);
        r_terms.push((d.z.0, &d.r_table));
        match a_index.get(&Arc::as_ptr(&d.a)) {
            Some(&slot) => a_terms[slot].0 = Scalar::mul_add(d.z, d.k, Scalar(a_terms[slot].0)).0,
            None => {
                a_index.insert(Arc::as_ptr(&d.a), a_terms.len());
                a_terms.push((Scalar::mul_add(d.z, d.k, Scalar::zero()).0, &d.a.split));
            }
        }
    }
    multiscalar_mul(
        POOL_CHUNK_BITS,
        Some(&Scalar::neg(b_coeff).0),
        &a_terms,
        &r_terms,
    )
}

/// What the pooled path did on this thread, for tests that pin its
/// cost (per thread because tests run in parallel).
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PoolWork {
    /// Item terms fed to combined equations.
    items: usize,
    /// Combined equations evaluated.
    equations: usize,
    /// Single-signature equations evaluated.
    single_checks: usize,
}

#[cfg(test)]
thread_local! {
    static POOL_WORK: std::cell::Cell<PoolWork> = std::cell::Cell::new(PoolWork::default());
}

#[cfg(test)]
fn count_work(update: impl FnOnce(&mut PoolWork)) {
    POOL_WORK.with(|cell| {
        let mut work = cell.get();
        update(&mut work);
        cell.set(work);
    });
}

/// Returns this thread's counts and resets them.
#[cfg(test)]
fn take_pool_work() -> PoolWork {
    POOL_WORK.with(|cell| cell.take())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edwards::{order_two, take_chain_doublings};
    use crate::hex;

    fn seed(hex_str: &str) -> SecretKey {
        hex::decode_array(hex_str).expect("32-byte seed")
    }

    /// One RFC 8032 §7.1 vector: the derived key and the signature
    /// match the RFC's bytes, through the seed entry [`sign`] and
    /// through a [`crate::KeyPair`] (which expands once and signs from
    /// its own stored key) alike.
    fn check_vector(seed_hex: &str, public_hex: &str, msg: &[u8], sig_hex: &str) {
        let sk = seed(seed_hex);
        let pk = derive_public_key(&sk);
        assert_eq!(hex::encode(&pk), public_hex);
        let sig = sign(&sk, msg);
        assert_eq!(hex::encode(&sig), sig_hex);
        assert!(verify(&sig, &pk, msg).is_ok());
        let pair = crate::KeyPair::from_seed(sk);
        assert_eq!(pair.public(), &pk);
        assert_eq!(pair.sign(msg), sig);
    }

    // RFC 8032 §7.1 TEST 1 (empty message).
    #[test]
    fn rfc8032_test_1() {
        check_vector(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            b"",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        );
    }

    // RFC 8032 §7.1 TEST 2 (one-byte message).
    #[test]
    fn rfc8032_test_2() {
        check_vector(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            &[0x72],
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        );
    }

    // RFC 8032 §7.1 TEST 3 (two-byte message).
    #[test]
    fn rfc8032_test_3() {
        check_vector(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            &[0xaf, 0x82],
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        );
    }

    // RFC 8032 §7.1 TEST SHA(abc): message is the SHA-512 digest of "abc".
    #[test]
    fn rfc8032_test_sha_abc() {
        check_vector(
            "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
            &crate::sha512(b"abc"),
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589\
             09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704",
        );
    }

    #[test]
    fn tampered_message_fails() {
        let sk = [7u8; 32];
        let pk = derive_public_key(&sk);
        let sig = sign(&sk, b"BID:asset=65be4");
        assert!(verify(&sig, &pk, b"BID:asset=65be4").is_ok());
        assert_eq!(
            verify(&sig, &pk, b"BID:asset=65be5"),
            Err(SignatureError::Mismatch)
        );
    }

    #[test]
    fn wrong_key_fails() {
        let sig = sign(&[1u8; 32], b"msg");
        let other_pk = derive_public_key(&[2u8; 32]);
        assert_eq!(
            verify(&sig, &other_pk, b"msg"),
            Err(SignatureError::Mismatch)
        );
    }

    #[test]
    fn non_canonical_s_rejected() {
        let sk = [9u8; 32];
        let pk = derive_public_key(&sk);
        let mut sig = sign(&sk, b"msg");
        // Force S >= L by setting the top scalar byte to the max: L's top
        // byte is 0x10, so 0xff is definitely non-canonical.
        sig[63] = 0xff;
        assert_eq!(
            verify(&sig, &pk, b"msg"),
            Err(SignatureError::NonCanonicalS)
        );
    }

    /// A batch of n honest (seed, message, signature) triples.
    fn honest_batch(n: usize) -> Vec<(PublicKey, Vec<u8>, Signature)> {
        (0..n)
            .map(|i| {
                let sk = [i as u8 + 1; 32];
                let pk = derive_public_key(&sk);
                let msg = format!("batch message {i}").into_bytes();
                let sig = sign(&sk, &msg);
                (pk, msg, sig)
            })
            .collect()
    }

    fn run_batch(triples: &[(PublicKey, Vec<u8>, Signature)]) -> Vec<Result<(), SignatureError>> {
        let items: Vec<BatchItem<'_>> = triples
            .iter()
            .map(|(pk, msg, sig)| BatchItem {
                signature: sig,
                public: pk,
                message: msg,
            })
            .collect();
        verify_batch(&items)
    }

    #[test]
    fn batch_accepts_honest_signatures() {
        for n in [0, 1, 2, 3, 7, 16] {
            let triples = honest_batch(n);
            let results = run_batch(&triples);
            assert_eq!(results.len(), n);
            assert!(results.iter().all(Result::is_ok), "n = {n}");
        }
    }

    #[test]
    fn batch_attributes_each_offender_exactly() {
        let mut triples = honest_batch(9);
        // Corrupt three members in three different ways.
        triples[1].2[40] ^= 0x01; // S tampered → Mismatch
        triples[4].1.push(b'!'); // message tampered → Mismatch
        triples[7].2[63] = 0xff; // S forced non-canonical
        let results = run_batch(&triples);
        for (i, r) in results.iter().enumerate() {
            match i {
                1 | 4 => assert_eq!(*r, Err(SignatureError::Mismatch), "item {i}"),
                7 => assert_eq!(*r, Err(SignatureError::NonCanonicalS), "item {i}"),
                _ => assert!(r.is_ok(), "item {i}"),
            }
        }
    }

    #[test]
    fn batch_verdicts_match_individual_verify() {
        let mut triples = honest_batch(12);
        triples[0].2[0] ^= 0xff; // R corrupted (may fail decode or equation)
        triples[5].1[0] ^= 0xff; // message corrupted
        let mut bad_pk = triples[9].0;
        bad_pk[0] ^= 0xff;
        triples[9].0 = bad_pk;
        let batch = run_batch(&triples);
        for ((pk, msg, sig), batch_verdict) in triples.iter().zip(&batch) {
            assert_eq!(&verify(sig, pk, msg), batch_verdict);
        }
    }

    #[test]
    fn batch_all_bad_still_terminates_with_exact_verdicts() {
        let mut triples = honest_batch(5);
        for t in triples.iter_mut() {
            t.2[35] ^= 0xaa;
        }
        let results = run_batch(&triples);
        for ((pk, msg, sig), verdict) in triples.iter().zip(&results) {
            assert_eq!(&verify(sig, pk, msg), verdict);
        }
    }

    #[test]
    fn batch_is_deterministic() {
        let mut triples = honest_batch(6);
        triples[2].2[33] ^= 0x10;
        let a = run_batch(&triples);
        let b = run_batch(&triples);
        assert_eq!(a, b);
    }

    #[test]
    fn prepared_key_cache_round_trips() {
        let pk = derive_public_key(&[0x5Au8; 32]);
        let first = prepare_public_key(&pk).expect("valid key");
        let second = prepare_public_key(&pk).expect("valid key");
        assert!(Arc::ptr_eq(&first, &second), "second lookup hits the cache");
        // Garbage keys cache their failure too.
        let mut bad = pk;
        bad[31] |= 0x7f;
        bad[0] = 0xee;
        let miss = prepare_public_key(&bad);
        let miss_again = prepare_public_key(&bad);
        assert_eq!(miss.is_none(), miss_again.is_none());

        // Two workers miss on one cold key at once: both decode outside
        // the lock, and the loser gets the winner's resident `Arc`.
        let cold = derive_public_key(&[0x5Bu8; 32]);
        let start = std::sync::Barrier::new(2);
        let prepare = || {
            start.wait();
            prepare_public_key(&cold).expect("valid key")
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(prepare);
            let b = scope.spawn(prepare);
            (
                a.join().expect("first worker"),
                b.join().expect("second worker"),
            )
        });
        assert!(Arc::ptr_eq(&a, &b), "a lost race returns the resident key");
        assert!(Arc::ptr_eq(
            &a,
            &prepare_public_key(&cold).expect("valid key")
        ));
    }

    /// Two signatures whose R carries the order-2 point: R′ + k·A − S·B
    /// is T₂, which the cofactor clears, so `verify` accepts each one
    /// and the pool, where z₁·T₂ + z₂·T₂ cancels anyway, agrees.
    #[test]
    fn torsion_in_r_is_accepted_alone_and_in_the_pool() {
        let secret = ExpandedSecret::from_seed(&[0x3Cu8; 32]);
        let public = secret.public_key();
        let msgs: [&[u8]; 2] = [b"first", b"second"];
        let sigs: Vec<Signature> = msgs
            .iter()
            .enumerate()
            .map(|(i, msg)| secret.sign_with(&public, &order_two(), i as u8 + 1, msg))
            .collect();
        let items: Vec<BatchItem<'_>> = sigs
            .iter()
            .zip(msgs)
            .map(|(signature, message)| BatchItem {
                signature,
                public: &public,
                message,
            })
            .collect();
        let singly: Vec<_> = items
            .iter()
            .map(|item| verify(item.signature, item.public, item.message))
            .collect();
        assert_eq!(singly, vec![Ok(()); 2]);
        assert_eq!(verify_batch(&items), singly);
    }

    /// Pins the bisection's cost: 128 distinct-key items with bad
    /// signatures at 17 and 90. Each failing subset evaluates only its
    /// left half (64 + 32 + … + 1 on the path to 17, 32 + … + 1 on the
    /// path to 90, after the whole pool's 128) and the singletons are
    /// decided from their own points, with no single check.
    #[test]
    fn failing_pool_evaluates_one_half_and_derives_the_other() {
        let mut triples = honest_batch(128);
        triples[17].2[40] ^= 0x01;
        triples[90].1.push(b'!');
        take_pool_work();
        let results = run_batch(&triples);
        let work = take_pool_work();
        for (i, r) in results.iter().enumerate() {
            match i {
                17 | 90 => assert_eq!(*r, Err(SignatureError::Mismatch), "item {i}"),
                _ => assert!(r.is_ok(), "item {i}"),
            }
        }
        assert_eq!(
            work,
            PoolWork {
                items: 318,
                equations: 14,
                single_checks: 0
            }
        );
    }

    /// Pins the chain lengths on warm keys: a single check runs at most
    /// 64 doublings (k and −S in 64-bit chunks), the combined equation
    /// over an honest pool at most 128 (its 128-bit zᵢ), and the plain
    /// chain the ~253 a whole scalar needs.
    #[test]
    fn single_checks_and_pools_run_short_chains() {
        let triples = honest_batch(16);
        for (pk, _, _) in &triples {
            prepare_public_key(pk).expect("valid key");
        }
        take_chain_doublings();
        for (pk, msg, sig) in &triples {
            assert!(verify(sig, pk, msg).is_ok());
            let doublings = take_chain_doublings();
            assert!((1..=64).contains(&doublings), "single check: {doublings}");
            assert!(verify_plain_chain(sig, pk, msg).is_ok());
            let doublings = take_chain_doublings();
            assert!((240..=253).contains(&doublings), "plain chain: {doublings}");
        }
        take_pool_work();
        assert!(run_batch(&triples).iter().all(Result::is_ok));
        let doublings = take_chain_doublings();
        assert!((1..=128).contains(&doublings), "pool: {doublings}");
        assert_eq!(take_pool_work().equations, 1, "one combined equation");
    }

    #[test]
    fn key_cache_counts_hits_misses_and_evictions() {
        let mut cache = PreparedKeyCache::with_capacity(2);
        let keys: Vec<PublicKey> = (1..=3u8).map(|i| [i; 32]).collect();
        assert!(cache.get(&keys[0]).is_none());
        cache.get_or_insert(keys[0], None);
        assert!(cache.get(&keys[0]).is_some());
        // Inserting without a lookup first counts neither; the third
        // key evicts the least recently touched.
        cache.get_or_insert(keys[1], None);
        cache.get_or_insert(keys[2], None);
        assert_eq!(
            cache.stats(),
            [("resident", 2), ("hits", 1), ("misses", 1), ("evicted", 1)]
        );
        // The process-wide figures report the same four names.
        let names = key_cache_stats().map(|(name, _)| name);
        assert_eq!(names, ["resident", "hits", "misses", "evicted"]);
    }

    #[test]
    fn key_cache_is_bounded_and_keeps_the_hot_key_resident() {
        // Exercise the struct directly (the process-wide cache is
        // shared across parallel tests, so size asserts on it race).
        let mut cache = PreparedKeyCache::with_capacity(8);
        let hot_pk = derive_public_key(&[0x11u8; 32]);
        let hot = Arc::new(PreparedPublicKey::decode(&hot_pk).expect("valid key"));
        cache.get_or_insert(hot_pk, Some(hot.clone()));

        // Flood with far more distinct keys than the capacity, touching
        // the hot key between insertions the way a busy escrow account
        // recurs between strangers' submissions.
        for i in 0..1_000u32 {
            let mut junk = [0u8; 32];
            junk[..4].copy_from_slice(&i.to_le_bytes());
            junk[31] = 0xee;
            cache.get_or_insert(junk, None);
            let resident = cache
                .get(&hot_pk)
                .expect("hot key survives the flood")
                .expect("hot key decoded");
            assert!(
                Arc::ptr_eq(&resident, &hot),
                "promotion must preserve Arc identity (batch verifier groups by it)"
            );
            assert!(
                cache.len() <= 8,
                "cache exceeded its bound: {}",
                cache.len()
            );
        }

        // A key that is never touched again ages out once enough
        // distinct keys pass through.
        let cold_pk = derive_public_key(&[0x22u8; 32]);
        cache.get_or_insert(cold_pk, None);
        for i in 0..16u32 {
            let mut junk = [0u8; 32];
            junk[..4].copy_from_slice(&i.to_le_bytes());
            junk[30] = 0xdd;
            cache.get_or_insert(junk, None);
        }
        assert!(cache.get(&cold_pk).is_none(), "untouched key must age out");
    }

    #[test]
    fn cache_hits_never_evict_resident_keys() {
        // Regression: promotion-on-hit used to route through the
        // insertion path, so a single hit on an aging entry while the
        // hot generation sat at capacity rotated the generations and
        // dropped up to hot_cap warm keys. A lookup must only refresh
        // the hit key's recency — never evict anything.
        let cap = 8;
        let mut cache = PreparedKeyCache::with_capacity(cap);
        let keys: Vec<PublicKey> = (0..cap as u8)
            .map(|i| {
                let mut k = [0u8; 32];
                k[0] = i + 1;
                k[31] = 0xcc;
                k
            })
            .collect();
        for k in &keys {
            cache.get_or_insert(*k, None);
        }
        assert_eq!(cache.len(), cap, "cache filled to capacity");

        // Hammer lookups in every order, including the oldest entry
        // (the cold-generation hit of the old design): every key must
        // stay resident because hits are not insertion pressure.
        for round in 0..3 {
            for k in keys.iter().skip(round % keys.len()) {
                assert!(cache.get(k).is_some(), "hit evicted a resident key");
            }
            for k in &keys {
                assert!(cache.get(k).is_some(), "hit evicted a resident key");
            }
        }
        assert_eq!(cache.len(), cap);

        // One genuine insertion at capacity evicts exactly the single
        // least-recently-touched key, nothing else.
        cache.get(&keys[0]); // keys[1] is now the oldest
        let mut fresh = [0u8; 32];
        fresh[0] = 0xff;
        cache.get_or_insert(fresh, None);
        assert_eq!(cache.len(), cap);
        assert!(cache.get(&keys[1]).is_none(), "LRU key evicted");
        for k in keys
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, k)| k)
        {
            assert!(cache.get(k).is_some(), "non-LRU keys stay resident");
        }
        assert!(cache.get(&fresh).is_some());
    }

    /// Encodings ZIP 215 accepts and this crate refuses, as R and as A:
    /// y = p and y = p + 1 (non-canonical), and the identity and T₂ with
    /// the sign bit set (x = 0 has no negative). Both paths name the
    /// component; an honest member beside them stays Ok.
    #[test]
    fn non_canonical_points_stay_refused() {
        let mut y_p = [0xffu8; 32];
        y_p[0] = 0xed;
        y_p[31] = 0x7f;
        let mut y_p_plus_one = y_p;
        y_p_plus_one[0] = 0xee;
        let mut identity_negative = [0u8; 32];
        identity_negative[0] = 1;
        identity_negative[31] = 0x80;
        let mut order_two_negative = order_two().compress();
        order_two_negative[31] |= 0x80;
        let refused = [y_p, y_p_plus_one, identity_negative, order_two_negative];

        let (honest_key, msg, honest_sig) = honest_batch(1).remove(0);
        let mut triples = vec![(honest_key, msg.clone(), honest_sig)];
        let mut want = vec![Ok(())];
        for encoding in refused {
            let mut sig = honest_sig;
            sig[..32].copy_from_slice(&encoding);
            triples.push((honest_key, msg.clone(), sig));
            want.push(Err(SignatureError::InvalidR));
            triples.push((encoding, msg.clone(), honest_sig));
            want.push(Err(SignatureError::InvalidPublicKey));
        }
        let singly: Vec<_> = triples
            .iter()
            .map(|(pk, msg, sig)| verify(sig, pk, msg))
            .collect();
        assert_eq!(singly, want);
        assert_eq!(run_batch(&triples), want);
    }

    #[test]
    fn invalid_point_encodings_rejected() {
        let sk = [3u8; 32];
        let pk = derive_public_key(&sk);
        let sig = sign(&sk, b"msg");

        let mut bad_pk = pk;
        bad_pk[0] ^= 0xff;
        // Either the point fails to decode or the equation fails; both are
        // rejections. (Some flipped encodings still decode to valid points.)
        assert!(verify(&sig, &bad_pk, b"msg").is_err());

        let mut bad_sig = sig;
        bad_sig[5] ^= 0xff;
        assert!(verify(&bad_sig, &pk, b"msg").is_err());
    }
}
