//! The unspent-transaction-output (UTXO) set.
//!
//! The formal model's inputs "spend" prior outputs (Definition 1: each
//! input is `<T'.o_b, ms>` where `T'.o_b` is "the output that is being
//! spent by this input"). Native validation "automatically handles
//! validation against errors like double-spending" (§2.1) — this module
//! is where that guarantee lives.
//!
//! # Sharding
//!
//! The set is partitioned into N shards keyed by a deterministic hash
//! of the [`OutputRef`], each behind its own reader–writer lock. Wave
//! validation only reads, so readers of distinct outputs never contend;
//! parallel *apply* workers mutate concurrently as long as their
//! footprints land on different shards. Multi-output operations
//! ([`UtxoSet::apply_tx`], [`UtxoSet::spend_all`]) acquire every shard
//! lock they touch in ascending shard order — a single global lock
//! order, so concurrent workers whose footprints overlap on shards
//! cannot deadlock. [`UtxoSet::snapshot`] sorts by `OutputRef`, so two
//! sets holding the same entries snapshot byte-identically regardless
//! of their shard counts — replica-equality checks are shard-blind.
//!
//! # State digests
//!
//! Every shard additionally maintains an incremental [`StateDigest`] —
//! an order- and partition-independent fold of a 64-bit hash of each
//! entry, updated on every insert and spend. [`UtxoSet::state_digest`]
//! merges the per-shard digests in O(shards), so two sets hold equal
//! entry sets *iff* their digests are equal (up to hash collisions,
//! made negligible by folding three independent accumulators), whatever
//! their shard counts. Replica-equality checks that used to sort and
//! compare whole [`UtxoSet::snapshot`]s — O(n log n) per comparison —
//! compare digests instead.

use parking_lot::{RwLock, RwLockWriteGuard};
use std::collections::HashMap;
use std::fmt;

/// Default shard count: enough that an 8-worker wave rarely collides,
/// small enough that snapshot/scan overhead stays negligible.
pub const DEFAULT_UTXO_SHARDS: usize = 16;

/// Reference to a transaction output: `(transaction id, output index)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OutputRef {
    pub tx_id: String,
    pub index: u32,
}

impl OutputRef {
    pub fn new(tx_id: impl Into<String>, index: u32) -> OutputRef {
        OutputRef {
            tx_id: tx_id.into(),
            index,
        }
    }

    /// Deterministic 64-bit FNV-1a over the ref's content — the shard
    /// key. The std `HashMap` hasher is randomized per process; this
    /// one is stable across runs and replicas, so every node shards a
    /// given output identically.
    pub fn shard_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for &b in self.tx_id.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        for b in self.index.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        h
    }
}

impl fmt::Display for OutputRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.tx_id, self.index)
    }
}

/// One entry in the UTXO set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Utxo {
    /// Hex public keys of the current owners/controllers.
    pub owners: Vec<String>,
    /// Hex public keys of the previous owners (the model's `pb_prev`).
    pub previous_owners: Vec<String>,
    /// Number of asset shares held by this output.
    pub amount: u64,
    /// Id of the asset these shares belong to.
    pub asset_id: String,
    /// Id of the transaction that spent this output, once spent.
    pub spent_by: Option<String>,
}

/// Why a spend was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpendError {
    /// The referenced output does not exist.
    UnknownOutput(OutputRef),
    /// The output was already consumed — the double-spend the paper's
    /// native validation exists to prevent.
    DoubleSpend { output: OutputRef, spent_by: String },
}

impl fmt::Display for SpendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpendError::UnknownOutput(o) => write!(f, "unknown output {o}"),
            SpendError::DoubleSpend { output, spent_by } => {
                write!(f, "double spend of {output}: already spent by {spent_by}")
            }
        }
    }
}

impl std::error::Error for SpendError {}

/// An order- and partition-independent digest of a set of UTXO entries.
///
/// Entries fold in and out through [`StateDigest::fold_add`] /
/// [`StateDigest::fold_remove`] using three commutative accumulators
/// (XOR, wrapping sum, count) over each entry's [`entry_hash`], so the
/// digest of a set is independent of insertion order *and* of how the
/// entries are partitioned across shards: merging per-shard digests
/// with [`StateDigest::merge`] yields the digest a single-shard set
/// holding the same entries would carry. Unlike the sorted-snapshot
/// comparison this replaces, equality costs O(shards), not O(n log n).
///
/// **Threat model.** Two independent 64-bit accumulators plus the
/// count make an *accidental* collision (honest replicas diverging yet
/// digesting equal) vanishingly unlikely. They are NOT
/// collision-resistant against an adversary who controls entry
/// contents and searches for multisets satisfying the combined
/// xor/sum constraint (a generalized-birthday problem over unkeyed
/// 64-bit hashes). That is acceptable here because the digest is a
/// comparator and divergence *detector*, never an input to execution:
/// consensus safety rests on deterministic block delivery, the
/// gossiped block digest is diagnostic-only, and the stress/proptest
/// suites re-validate digest agreement against byte-exact snapshots.
/// A deployment that needs adversarial set-commitment should swap
/// [`entry_hash`] for a keyed or cryptographic homomorphic hash
/// (LtHash-style) — the fold structure stays identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StateDigest {
    xor: u64,
    sum: u64,
    count: u64,
}

impl StateDigest {
    /// The digest of the empty entry set.
    pub const EMPTY: StateDigest = StateDigest {
        xor: 0,
        sum: 0,
        count: 0,
    };

    /// Folds one entry's hash into the digest.
    pub fn fold_add(&mut self, entry_hash: u64) {
        self.xor ^= entry_hash;
        self.sum = self.sum.wrapping_add(entry_hash);
        self.count = self.count.wrapping_add(1);
    }

    /// Folds one entry's hash out of the digest (the entry must have
    /// been folded in earlier for the digest to stay meaningful).
    pub fn fold_remove(&mut self, entry_hash: u64) {
        self.xor ^= entry_hash;
        self.sum = self.sum.wrapping_sub(entry_hash);
        self.count = self.count.wrapping_sub(1);
    }

    /// The digest of the union of two disjoint entry sets — how
    /// per-shard digests combine into the set-wide one.
    pub fn merge(&self, other: &StateDigest) -> StateDigest {
        StateDigest {
            xor: self.xor ^ other.xor,
            sum: self.sum.wrapping_add(other.sum),
            count: self.count.wrapping_add(other.count),
        }
    }

    /// Number of entries folded in.
    pub fn entries(&self) -> u64 {
        self.count
    }

    /// Compact hex wire form (`xor:sum:count`), for gossiping a digest
    /// with a block.
    pub fn to_hex(&self) -> String {
        format!("{:016x}:{:016x}:{:x}", self.xor, self.sum, self.count)
    }

    /// Parses [`StateDigest::to_hex`] output, and only its spelling:
    /// `None` on anything else (digests cross trust boundaries when
    /// gossiped), so an accepted wire round-trips byte for byte. A sign,
    /// an uppercase digit or a short field is refused, though
    /// `u64::from_str_radix` alone would take them.
    pub fn from_hex(wire: &str) -> Option<StateDigest> {
        let mut parts = wire.splitn(3, ':');
        let xor = u64::from_str_radix(parts.next()?, 16).ok()?;
        let sum = u64::from_str_radix(parts.next()?, 16).ok()?;
        let count = u64::from_str_radix(parts.next()?, 16).ok()?;
        let digest = StateDigest { xor, sum, count };
        (digest.to_hex() == wire).then_some(digest)
    }
}

/// The 64-bit hash of one UTXO entry — FNV-1a over every field, each
/// string length-prefixed *and* each vector count-prefixed so no field
/// or element boundary can alias (an owner list `["x","y"]` with empty
/// previous owners must never hash like `["x"]` with previous owner
/// `["y"]`), finished with a strong bit mixer so the commutative
/// [`StateDigest`] folds see well-spread values. Stable across
/// processes and replicas (no randomized state), like
/// [`OutputRef::shard_hash`].
pub fn entry_hash(output: &OutputRef, utxo: &Utxo) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        h = (h ^ bytes.len() as u64).wrapping_mul(PRIME);
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
    };
    eat(output.tx_id.as_bytes());
    eat(&output.index.to_le_bytes());
    eat(&(utxo.owners.len() as u64).to_le_bytes());
    for owner in &utxo.owners {
        eat(owner.as_bytes());
    }
    eat(&(utxo.previous_owners.len() as u64).to_le_bytes());
    for prev in &utxo.previous_owners {
        eat(prev.as_bytes());
    }
    eat(&utxo.amount.to_le_bytes());
    eat(utxo.asset_id.as_bytes());
    match &utxo.spent_by {
        Some(spender) => eat(spender.as_bytes()),
        None => eat(&[0xFF]),
    }
    // splitmix64 finisher: avalanche the FNV state so single-bit entry
    // differences flip ~half the digest bits (XOR/sum folds have no
    // mixing of their own).
    let mut z = h;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One lock-protected partition: the entries plus their incrementally
/// maintained digest. All mutation goes through the methods below so
/// the digest can never drift from the entry set.
#[derive(Default)]
struct Shard {
    entries: HashMap<OutputRef, Utxo>,
    digest: StateDigest,
}

impl Shard {
    /// Inserts (or replaces) an entry, keeping the digest in step.
    fn insert(&mut self, output: OutputRef, utxo: Utxo) {
        let hash = entry_hash(&output, &utxo);
        if let Some(old) = self.entries.insert(output.clone(), utxo) {
            self.digest.fold_remove(entry_hash(&output, &old));
        }
        self.digest.fold_add(hash);
    }

    /// Marks an entry as spent — presence and unspentness checked
    /// under this shard's write lock, digest kept in step, all in one
    /// map lookup.
    fn mark_spent(&mut self, output: &OutputRef, spender_tx: &str) -> Result<Utxo, SpendError> {
        let utxo = self
            .entries
            .get_mut(output)
            .ok_or_else(|| SpendError::UnknownOutput(output.clone()))?;
        if let Some(spent_by) = &utxo.spent_by {
            return Err(SpendError::DoubleSpend {
                output: output.clone(),
                spent_by: spent_by.clone(),
            });
        }
        self.digest.fold_remove(entry_hash(output, utxo));
        utxo.spent_by = Some(spender_tx.to_owned());
        self.digest.fold_add(entry_hash(output, utxo));
        Ok(utxo.clone())
    }
}

/// Concurrent, hash-sharded UTXO set.
pub struct UtxoSet {
    shards: Box<[RwLock<Shard>]>,
}

impl Default for UtxoSet {
    fn default() -> UtxoSet {
        UtxoSet::with_shards(DEFAULT_UTXO_SHARDS)
    }
}

/// Write guards over the distinct shards one operation touches,
/// acquired in ascending shard order (the global lock order).
struct TouchedShards<'a> {
    indices: Vec<usize>,
    guards: Vec<RwLockWriteGuard<'a, Shard>>,
}

impl<'a> TouchedShards<'a> {
    fn shard_mut(&mut self, shard_index: usize) -> &mut Shard {
        let slot = self
            .indices
            .binary_search(&shard_index)
            .expect("every touched shard was locked");
        &mut self.guards[slot]
    }
}

impl UtxoSet {
    pub fn new() -> UtxoSet {
        UtxoSet::default()
    }

    /// A set partitioned into `shards` partitions (clamped to ≥ 1).
    /// Entry placement is an internal detail: two sets holding the same
    /// entries behave identically whatever their shard counts.
    pub fn with_shards(shards: usize) -> UtxoSet {
        let shards = shards.max(1);
        UtxoSet {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
        }
    }

    /// Number of partitions.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard an output lives in.
    pub fn shard_of(&self, output: &OutputRef) -> usize {
        (output.shard_hash() % self.shards.len() as u64) as usize
    }

    /// Locks the distinct shards `outputs` touch, in ascending shard
    /// order — the single global order every multi-shard operation
    /// follows, so concurrent operations cannot deadlock.
    fn lock_touched<'a, 'o>(
        &'a self,
        outputs: impl Iterator<Item = &'o OutputRef>,
    ) -> TouchedShards<'a> {
        let mut indices: Vec<usize> = outputs.map(|o| self.shard_of(o)).collect();
        indices.sort_unstable();
        indices.dedup();
        let guards = indices.iter().map(|&i| self.shards[i].write()).collect();
        TouchedShards { indices, guards }
    }

    /// Registers a new unspent output.
    pub fn add(&self, output: OutputRef, utxo: Utxo) {
        self.shards[self.shard_of(&output)]
            .write()
            .insert(output, utxo);
    }

    /// Looks up an output (spent or not).
    pub fn get(&self, output: &OutputRef) -> Option<Utxo> {
        self.shards[self.shard_of(output)]
            .read()
            .entries
            .get(output)
            .cloned()
    }

    /// True when the output exists and is unspent.
    pub fn is_unspent(&self, output: &OutputRef) -> bool {
        self.shards[self.shard_of(output)]
            .read()
            .entries
            .get(output)
            .is_some_and(|u| u.spent_by.is_none())
    }

    /// Atomically marks an output as spent by `spender_tx`. Single
    /// output means single shard, so this skips the multi-shard lock
    /// machinery and takes the one lock directly.
    pub fn spend(&self, output: &OutputRef, spender_tx: &str) -> Result<Utxo, SpendError> {
        self.shards[self.shard_of(output)]
            .write()
            .mark_spent(output, spender_tx)
    }

    /// Atomically spends *all* outputs or none of them — the all-or-
    /// nothing input consumption of one transaction.
    pub fn spend_all(
        &self,
        outputs: &[OutputRef],
        spender_tx: &str,
    ) -> Result<Vec<Utxo>, SpendError> {
        self.apply_tx(outputs, Vec::new(), spender_tx)
    }

    /// The one mutation routine every commit path funnels through: the
    /// whole UTXO-side effect of one transaction — spend every entry in
    /// `spends`, register every entry in `adds` — applied atomically or
    /// not at all. Every touched shard is write-locked up front (in
    /// global shard order) and the spends validated before the first
    /// mutation, so a transaction that fails mid-wave (missing input,
    /// double spend) leaves every shard untouched. Returns the spent
    /// entries, `spent_by` filled in.
    pub fn apply_tx(
        &self,
        spends: &[OutputRef],
        adds: Vec<(OutputRef, Utxo)>,
        spender_tx: &str,
    ) -> Result<Vec<Utxo>, SpendError> {
        let mut touched = self.lock_touched(spends.iter().chain(adds.iter().map(|(o, _)| o)));

        // Validate first so a failure leaves no partial effects. A
        // duplicate ref within one batch is a double spend of itself.
        let mut seen = std::collections::HashSet::new();
        for output in spends {
            if !seen.insert(output) {
                return Err(SpendError::DoubleSpend {
                    output: output.clone(),
                    spent_by: spender_tx.to_owned(),
                });
            }
            match touched.shard_mut(self.shard_of(output)).entries.get(output) {
                None => return Err(SpendError::UnknownOutput(output.clone())),
                Some(u) => {
                    if let Some(spent_by) = &u.spent_by {
                        return Err(SpendError::DoubleSpend {
                            output: output.clone(),
                            spent_by: spent_by.clone(),
                        });
                    }
                }
            }
        }

        let mut spent = Vec::with_capacity(spends.len());
        for output in spends {
            let shard = touched.shard_mut(self.shard_of(output));
            spent.push(
                shard
                    .mark_spent(output, spender_tx)
                    .expect("validated above"),
            );
        }
        for (output, utxo) in adds {
            let shard = self.shard_of(&output);
            touched.shard_mut(shard).insert(output, utxo);
        }
        Ok(spent)
    }

    /// Read guards over *all* shards, acquired in ascending shard
    /// order. Writers ([`UtxoSet::apply_tx`]) take their locks in the
    /// same order, so whole-set readers cannot deadlock with them —
    /// and holding every shard at once yields a consistent point-in-
    /// time view: no reader can observe half of a concurrent
    /// transaction's atomic effect.
    fn lock_all_read(&self) -> Vec<parking_lot::RwLockReadGuard<'_, Shard>> {
        self.shards.iter().map(|shard| shard.read()).collect()
    }

    /// All unspent outputs currently owned by `owner` (hex public key).
    pub fn unspent_for_owner(&self, owner: &str) -> Vec<(OutputRef, Utxo)> {
        let mut hits: Vec<(OutputRef, Utxo)> = self
            .lock_all_read()
            .iter()
            .flat_map(|shard| {
                shard
                    .entries
                    .iter()
                    .filter(|(_, u)| u.spent_by.is_none() && u.owners.iter().any(|o| o == owner))
                    .map(|(k, v)| (k.clone(), v.clone()))
            })
            .collect();
        hits.sort_by(|(a, _), (b, _)| a.cmp(b));
        hits
    }

    /// Total unspent shares of an asset held by `owner`.
    pub fn balance(&self, owner: &str, asset_id: &str) -> u64 {
        self.unspent_for_owner(owner)
            .into_iter()
            .filter(|(_, u)| u.asset_id == asset_id)
            .map(|(_, u)| u.amount)
            .sum()
    }

    /// A stable, sorted snapshot of every entry (spent and unspent).
    /// This is the read-only accessor batch tooling compares replica
    /// states with: two sets with equal snapshots are byte-identical,
    /// and the sort makes the snapshot independent of the shard count.
    /// All shards are read-locked at once, so the snapshot is a
    /// consistent cut even while concurrent [`UtxoSet::apply_tx`]
    /// workers mutate other transactions' outputs.
    pub fn snapshot(&self) -> Vec<(OutputRef, Utxo)> {
        let mut entries: Vec<(OutputRef, Utxo)> = self
            .lock_all_read()
            .iter()
            .flat_map(|shard| shard.entries.iter().map(|(k, v)| (k.clone(), v.clone())))
            .collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries
    }

    /// The set-wide [`StateDigest`]: the per-shard digests merged in
    /// ascending shard order, under the same all-shards read lock
    /// [`UtxoSet::snapshot`] takes, so the digest is a consistent cut.
    /// Independent of the shard count — two sets holding the same
    /// entries digest identically at 1 and at 64 shards — so replica
    /// equality compares in O(shards) where snapshot comparison cost
    /// O(n log n).
    pub fn state_digest(&self) -> StateDigest {
        self.lock_all_read()
            .iter()
            .fold(StateDigest::EMPTY, |acc, shard| acc.merge(&shard.digest))
    }

    /// The per-shard digests, in shard order — the self-describing
    /// block payload gossips these merged; diagnostics can compare
    /// per-shard to localize a divergence.
    pub fn shard_digests(&self) -> Vec<StateDigest> {
        self.lock_all_read()
            .iter()
            .map(|shard| shard.digest)
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.lock_all_read()
            .iter()
            .all(|shard| shard.entries.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn utxo(owner: &str, amount: u64) -> Utxo {
        Utxo {
            owners: vec![owner.to_owned()],
            previous_owners: vec![],
            amount,
            asset_id: "asset1".to_owned(),
            spent_by: None,
        }
    }

    #[test]
    fn add_and_spend() {
        let set = UtxoSet::new();
        let out = OutputRef::new("tx1", 0);
        set.add(out.clone(), utxo("alice", 3));
        assert!(set.is_unspent(&out));
        let spent = set.spend(&out, "tx2").unwrap();
        assert_eq!(spent.amount, 3);
        assert!(!set.is_unspent(&out));
    }

    #[test]
    fn double_spend_detected() {
        let set = UtxoSet::new();
        let out = OutputRef::new("tx1", 0);
        set.add(out.clone(), utxo("alice", 1));
        set.spend(&out, "tx2").unwrap();
        let err = set.spend(&out, "tx3").unwrap_err();
        assert_eq!(
            err,
            SpendError::DoubleSpend {
                output: out,
                spent_by: "tx2".to_owned()
            }
        );
    }

    #[test]
    fn unknown_output_rejected() {
        let set = UtxoSet::new();
        let missing = OutputRef::new("ghost", 7);
        assert!(matches!(
            set.spend(&missing, "tx"),
            Err(SpendError::UnknownOutput(_))
        ));
    }

    #[test]
    fn spend_all_is_atomic() {
        let set = UtxoSet::new();
        let a = OutputRef::new("tx1", 0);
        let b = OutputRef::new("tx1", 1);
        set.add(a.clone(), utxo("alice", 1));
        set.add(b.clone(), utxo("alice", 2));
        // One output pre-spent: the batch must fail and leave `a` intact.
        set.spend(&b, "txX").unwrap();
        assert!(set.spend_all(&[a.clone(), b.clone()], "txY").is_err());
        assert!(set.is_unspent(&a), "atomicity: a must remain unspent");

        let c = OutputRef::new("tx2", 0);
        set.add(c.clone(), utxo("alice", 5));
        let spent = set.spend_all(&[a.clone(), c.clone()], "txZ").unwrap();
        assert_eq!(spent.len(), 2);
        assert!(!set.is_unspent(&a) && !set.is_unspent(&c));
    }

    #[test]
    fn apply_tx_is_atomic_across_shards() {
        // Many shards so the spends and adds are guaranteed to span
        // several partitions; a failing spend must roll nothing in.
        let set = UtxoSet::with_shards(64);
        let outs: Vec<OutputRef> = (0..8).map(|i| OutputRef::new("genesis", i)).collect();
        for out in &outs {
            set.add(out.clone(), utxo("alice", 1));
        }
        let before = set.snapshot();

        let mut spends = outs.clone();
        spends.push(OutputRef::new("missing", 0));
        let adds = vec![(OutputRef::new("child", 0), utxo("bob", 8))];
        assert!(matches!(
            set.apply_tx(&spends, adds.clone(), "child"),
            Err(SpendError::UnknownOutput(_))
        ));
        assert_eq!(set.snapshot(), before, "failed apply touched a shard");

        // The same effect without the bad ref goes through whole.
        let spent = set.apply_tx(&outs, adds, "child").unwrap();
        assert_eq!(spent.len(), 8);
        assert!(set.is_unspent(&OutputRef::new("child", 0)));
        assert!(outs.iter().all(|o| !set.is_unspent(o)));
    }

    #[test]
    fn shard_placement_is_deterministic() {
        let set = UtxoSet::with_shards(16);
        let other = UtxoSet::with_shards(16);
        for i in 0..32 {
            let out = OutputRef::new(format!("tx{i}"), i % 3);
            assert_eq!(set.shard_of(&out), other.shard_of(&out));
        }
        let spread: std::collections::HashSet<usize> = (0..64)
            .map(|i| set.shard_of(&OutputRef::new(format!("tx{i}"), 0)))
            .collect();
        assert!(spread.len() > 8, "hash must spread refs across shards");
    }

    #[test]
    fn snapshot_identical_across_shard_counts() {
        let sets = [
            UtxoSet::with_shards(1),
            UtxoSet::with_shards(4),
            UtxoSet::with_shards(16),
        ];
        for set in &sets {
            for i in 0..24u32 {
                set.add(
                    OutputRef::new(format!("tx{}", i / 3), i % 3),
                    utxo("alice", 1),
                );
            }
            set.spend(&OutputRef::new("tx0", 1), "spender").unwrap();
        }
        assert_eq!(sets[0].snapshot(), sets[1].snapshot());
        assert_eq!(sets[1].snapshot(), sets[2].snapshot());
        assert_eq!(sets[0].shard_count(), 1);
        assert_eq!(sets[2].shard_count(), 16);
    }

    #[test]
    fn concurrent_multi_shard_applies_do_not_deadlock_or_lose_outputs() {
        // Workers whose footprints overlap on shards (every worker
        // spends refs scattered over all shards) must serialize cleanly
        // through the global shard-lock order.
        let set = UtxoSet::with_shards(8);
        let workers = 8usize;
        let per_worker = 16usize;
        for w in 0..workers {
            for i in 0..per_worker {
                set.add(OutputRef::new(format!("w{w}-{i}"), 0), utxo("alice", 1));
            }
        }
        std::thread::scope(|scope| {
            for w in 0..workers {
                let set = &set;
                scope.spawn(move || {
                    let spends: Vec<OutputRef> = (0..per_worker)
                        .map(|i| OutputRef::new(format!("w{w}-{i}"), 0))
                        .collect();
                    let adds: Vec<(OutputRef, Utxo)> = (0..per_worker)
                        .map(|i| (OutputRef::new(format!("c{w}-{i}"), 0), utxo("bob", 1)))
                        .collect();
                    set.apply_tx(&spends, adds, &format!("c{w}")).unwrap();
                });
            }
        });
        let snap = set.snapshot();
        assert_eq!(snap.len(), workers * per_worker * 2);
        let unspent = snap.iter().filter(|(_, u)| u.spent_by.is_none()).count();
        assert_eq!(
            unspent,
            workers * per_worker,
            "no lost or duplicate outputs"
        );
    }

    #[test]
    fn owner_queries_and_balances() {
        let set = UtxoSet::new();
        set.add(OutputRef::new("tx1", 0), utxo("alice", 3));
        set.add(OutputRef::new("tx1", 1), utxo("bob", 4));
        set.add(OutputRef::new("tx2", 0), utxo("alice", 5));
        assert_eq!(set.unspent_for_owner("alice").len(), 2);
        assert_eq!(set.balance("alice", "asset1"), 8);
        assert_eq!(set.balance("bob", "asset1"), 4);
        assert_eq!(set.balance("alice", "other"), 0);

        set.spend(&OutputRef::new("tx1", 0), "txS").unwrap();
        assert_eq!(set.balance("alice", "asset1"), 5);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let set = UtxoSet::new();
        set.add(OutputRef::new("tx2", 0), utxo("bob", 1));
        set.add(OutputRef::new("tx1", 1), utxo("alice", 2));
        set.add(OutputRef::new("tx1", 0), utxo("alice", 3));
        set.spend(&OutputRef::new("tx1", 0), "txS").unwrap();
        let snap = set.snapshot();
        assert_eq!(snap.len(), 3);
        let refs: Vec<String> = snap.iter().map(|(r, _)| r.to_string()).collect();
        assert_eq!(refs, vec!["tx1#0", "tx1#1", "tx2#0"]);
        assert_eq!(snap[0].1.spent_by.as_deref(), Some("txS"));
    }

    /// Recomputes what the incremental digest must equal, from scratch.
    fn digest_of_snapshot(snap: &[(OutputRef, Utxo)]) -> StateDigest {
        let mut digest = StateDigest::EMPTY;
        for (output, utxo) in snap {
            digest.fold_add(entry_hash(output, utxo));
        }
        digest
    }

    #[test]
    fn digest_tracks_adds_and_spends_incrementally() {
        let set = UtxoSet::with_shards(4);
        assert_eq!(set.state_digest(), StateDigest::EMPTY);
        for i in 0..12u32 {
            set.add(
                OutputRef::new(format!("tx{}", i / 3), i % 3),
                utxo("alice", 1),
            );
            assert_eq!(set.state_digest(), digest_of_snapshot(&set.snapshot()));
        }
        set.spend(&OutputRef::new("tx0", 1), "spender").unwrap();
        assert_eq!(set.state_digest(), digest_of_snapshot(&set.snapshot()));
        assert_eq!(set.state_digest().entries(), 12);

        // apply_tx keeps the digest in step too — including a failed
        // apply, which must leave it untouched.
        let before = set.state_digest();
        let spends = vec![OutputRef::new("tx1", 0), OutputRef::new("missing", 0)];
        assert!(set.apply_tx(&spends, Vec::new(), "child").is_err());
        assert_eq!(set.state_digest(), before);
        set.apply_tx(
            &[OutputRef::new("tx1", 0)],
            vec![(OutputRef::new("child", 0), utxo("bob", 1))],
            "child",
        )
        .unwrap();
        assert_eq!(set.state_digest(), digest_of_snapshot(&set.snapshot()));
    }

    #[test]
    fn digest_identical_across_shard_counts() {
        let sets = [
            UtxoSet::with_shards(1),
            UtxoSet::with_shards(4),
            UtxoSet::with_shards(16),
        ];
        for set in &sets {
            for i in 0..24u32 {
                set.add(
                    OutputRef::new(format!("tx{}", i / 3), i % 3),
                    utxo("alice", 1),
                );
            }
            set.spend(&OutputRef::new("tx0", 1), "spender").unwrap();
        }
        assert_eq!(sets[0].state_digest(), sets[1].state_digest());
        assert_eq!(sets[1].state_digest(), sets[2].state_digest());
        // The per-shard breakdown merges back to the set-wide digest.
        for set in &sets {
            let merged = set
                .shard_digests()
                .iter()
                .fold(StateDigest::EMPTY, |acc, d| acc.merge(d));
            assert_eq!(merged, set.state_digest());
        }
    }

    #[test]
    fn digest_distinguishes_spent_from_unspent() {
        let spent = UtxoSet::with_shards(2);
        let unspent = UtxoSet::with_shards(2);
        for set in [&spent, &unspent] {
            set.add(OutputRef::new("tx1", 0), utxo("alice", 1));
        }
        assert_eq!(spent.state_digest(), unspent.state_digest());
        spent.spend(&OutputRef::new("tx1", 0), "spender").unwrap();
        assert_ne!(spent.state_digest(), unspent.state_digest());
        assert_eq!(
            spent.state_digest().entries(),
            unspent.state_digest().entries(),
            "a spend flips an entry, it does not remove one"
        );
    }

    #[test]
    fn entry_hash_does_not_alias_across_field_boundaries() {
        // Regression: element membership must be field-bound. An owner
        // list ["x","y"] with no previous owners is a different entry
        // from owners ["x"] with previous owner ["y"], even though the
        // concatenated element bytes agree.
        let out = OutputRef::new("tx1", 0);
        let mut a = utxo("x", 1);
        a.owners.push("y".to_owned());
        let mut b = utxo("x", 1);
        b.previous_owners.push("y".to_owned());
        assert_ne!(entry_hash(&out, &a), entry_hash(&out, &b));

        // And through the digest comparator: two sets differing only in
        // that split must not compare equal.
        let set_a = UtxoSet::with_shards(2);
        set_a.add(out.clone(), a);
        let set_b = UtxoSet::with_shards(2);
        set_b.add(out, b);
        assert_ne!(set_a.state_digest(), set_b.state_digest());
    }

    #[test]
    fn digest_hex_round_trips_and_rejects_garbage() {
        let set = UtxoSet::new();
        set.add(OutputRef::new("tx1", 0), utxo("alice", 3));
        let digest = set.state_digest();
        assert_eq!(StateDigest::from_hex(&digest.to_hex()), Some(digest));
        for garbage in [
            "",
            "xyz",
            "12:34",
            "1:2:3:4gg",
            "zz:00:0",
            "not-a-digest",
            // `u64::from_str_radix` takes these; `to_hex` never writes them.
            "+c067882de03eb25:d90cfc76d57f9afb:17",
            "AC067882DE03EB25:D90CFC76D57F9AFB:17",
            "1:2:3",
        ] {
            assert!(
                StateDigest::from_hex(garbage).is_none(),
                "{garbage:?} must not parse"
            );
        }
    }

    #[test]
    fn multi_owner_outputs_count_for_each_owner() {
        let set = UtxoSet::new();
        let mut u = utxo("alice", 2);
        u.owners.push("bob".to_owned());
        set.add(OutputRef::new("tx1", 0), u);
        assert_eq!(set.unspent_for_owner("alice").len(), 1);
        assert_eq!(set.unspent_for_owner("bob").len(), 1);
    }
}
