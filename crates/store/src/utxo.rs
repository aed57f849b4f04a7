//! The unspent-transaction-output (UTXO) set.
//!
//! The formal model's inputs "spend" prior outputs (Definition 1: each
//! input is `<T'.o_b, ms>` where `T'.o_b` is "the output that is being
//! spent by this input"). Native validation "automatically handles
//! validation against errors like double-spending" (§2.1) — this module
//! is where that guarantee lives.
//!
//! # Atomicity
//!
//! The entries live in one map behind one reader–writer lock. Every
//! mutation ([`UtxoSet::apply_tx`], [`UtxoSet::spend_all`],
//! [`UtxoSet::spend`], [`UtxoSet::add`]) holds the write lock for its
//! whole effect and validates its spends before the first change, so a
//! failing transaction leaves the set untouched and no reader —
//! [`UtxoSet::snapshot`], [`UtxoSet::state_digest`] — can observe half
//! of a transaction. The methods take `&self`, so validation workers
//! read the set concurrently while the committing thread owns writes.
//! [`UtxoSet::snapshot`] sorts by `OutputRef`, so two sets holding the
//! same entries snapshot byte-identically whatever order they were
//! built in.
//!
//! # State digests
//!
//! The set maintains an incremental [`StateDigest`] — an
//! order-independent fold of a 64-bit hash of each entry, updated on
//! every insert and spend. [`UtxoSet::state_digest`] reads it in O(1),
//! so two sets hold equal entry sets *iff* their digests are equal (up
//! to hash collisions, made negligible by folding three independent
//! accumulators), however they were built. Replica-equality checks
//! compare digests instead of sorting and comparing whole
//! [`UtxoSet::snapshot`]s, which costs O(n log n) per comparison.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;

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

/// An order-independent digest of a set of UTXO entries.
///
/// Entries fold in and out through [`StateDigest::fold_add`] /
/// [`StateDigest::fold_remove`] using three commutative accumulators
/// (XOR, wrapping sum, count) over each entry's [`entry_hash`], so the
/// digest of a set is independent of insertion order, and the folds
/// can follow every insert and spend as it happens. Equality costs
/// O(1), where comparing sorted snapshots costs O(n log n).
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

    /// Number of entries folded in.
    pub fn entries(&self) -> u64 {
        self.count
    }

    /// The digest of the union of two disjoint entry sets: each
    /// accumulator folds the other's in.
    pub fn combine(self, other: StateDigest) -> StateDigest {
        StateDigest {
            xor: self.xor ^ other.xor,
            sum: self.sum.wrapping_add(other.sum),
            count: self.count.wrapping_add(other.count),
        }
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
/// processes and replicas (no randomized state).
pub fn entry_hash(output: &OutputRef, utxo: &Utxo) -> u64 {
    let mut h = FieldHash::new();
    h.eat(output.tx_id.as_bytes());
    h.eat(&output.index.to_le_bytes());
    h.eat(&(utxo.owners.len() as u64).to_le_bytes());
    for owner in &utxo.owners {
        h.eat(owner.as_bytes());
    }
    h.eat(&(utxo.previous_owners.len() as u64).to_le_bytes());
    for prev in &utxo.previous_owners {
        h.eat(prev.as_bytes());
    }
    h.eat(&utxo.amount.to_le_bytes());
    h.eat(utxo.asset_id.as_bytes());
    match &utxo.spent_by {
        Some(spender) => h.eat(spender.as_bytes()),
        None => h.eat(&[0xFF]),
    }
    h.finish()
}

/// The 64-bit hash of a ledger entry that is not a UTXO — a committed
/// id, or a REQUEST's bid or accept — hashed as [`entry_hash`] hashes,
/// field by field after a one-byte `kind`. A UTXO entry's first field
/// is a 64-character transaction id, so neither kind of entry can
/// alias the other.
pub fn typed_entry_hash(kind: u8, fields: &[&str]) -> u64 {
    let mut h = FieldHash::new();
    h.eat(&[kind]);
    for field in fields {
        h.eat(field.as_bytes());
    }
    h.finish()
}

/// FNV-1a over length-prefixed fields.
struct FieldHash(u64);

impl FieldHash {
    fn new() -> FieldHash {
        FieldHash(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        self.0 = (self.0 ^ bytes.len() as u64).wrapping_mul(PRIME);
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }

    /// splitmix64 finisher: avalanche the FNV state so single-bit entry
    /// differences flip ~half the digest bits (XOR/sum folds have no
    /// mixing of their own).
    fn finish(self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The entries plus their incrementally maintained digest. All
/// mutation goes through the methods below so the digest can never
/// drift from the entry set.
#[derive(Default)]
struct Entries {
    map: HashMap<OutputRef, Utxo>,
    digest: StateDigest,
}

impl Entries {
    /// Inserts (or replaces) an entry, keeping the digest in step.
    fn insert(&mut self, output: OutputRef, utxo: Utxo) {
        let hash = entry_hash(&output, &utxo);
        if let Some(old) = self.map.insert(output.clone(), utxo) {
            self.digest.fold_remove(entry_hash(&output, &old));
        }
        self.digest.fold_add(hash);
    }

    /// Refuses a spend of `output` when it is missing or already spent.
    fn check_unspent(&self, output: &OutputRef) -> Result<(), SpendError> {
        let utxo = self
            .map
            .get(output)
            .ok_or_else(|| SpendError::UnknownOutput(output.clone()))?;
        match &utxo.spent_by {
            Some(spent_by) => Err(SpendError::DoubleSpend {
                output: output.clone(),
                spent_by: spent_by.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Marks an entry as spent — presence and unspentness checked, the
    /// digest kept in step, all in one map lookup.
    fn mark_spent(&mut self, output: &OutputRef, spender_tx: &str) -> Result<Utxo, SpendError> {
        let utxo = self
            .map
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

/// The UTXO set: one map and its digest behind one reader–writer lock.
#[derive(Default)]
pub struct UtxoSet {
    entries: RwLock<Entries>,
}

impl UtxoSet {
    pub fn new() -> UtxoSet {
        UtxoSet::default()
    }

    /// Registers a new unspent output.
    pub fn add(&self, output: OutputRef, utxo: Utxo) {
        self.entries.write().insert(output, utxo);
    }

    /// Looks up an output (spent or not).
    pub fn get(&self, output: &OutputRef) -> Option<Utxo> {
        self.entries.read().map.get(output).cloned()
    }

    /// True when the output exists and is unspent.
    pub fn is_unspent(&self, output: &OutputRef) -> bool {
        self.entries
            .read()
            .map
            .get(output)
            .is_some_and(|u| u.spent_by.is_none())
    }

    /// Atomically marks an output as spent by `spender_tx`.
    pub fn spend(&self, output: &OutputRef, spender_tx: &str) -> Result<Utxo, SpendError> {
        self.entries.write().mark_spent(output, spender_tx)
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
    /// not at all. The write lock is held throughout and every spend is
    /// validated before the first mutation, so a transaction that fails
    /// (missing input, double spend) leaves the set untouched. Returns
    /// the spent entries, `spent_by` filled in.
    pub fn apply_tx(
        &self,
        spends: &[OutputRef],
        adds: Vec<(OutputRef, Utxo)>,
        spender_tx: &str,
    ) -> Result<Vec<Utxo>, SpendError> {
        let mut entries = self.entries.write();

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
            entries.check_unspent(output)?;
        }

        let spent = spends
            .iter()
            .map(|output| entries.mark_spent(output, spender_tx))
            .collect::<Result<Vec<Utxo>, SpendError>>()?;
        for (output, utxo) in adds {
            entries.insert(output, utxo);
        }
        Ok(spent)
    }

    /// All unspent outputs currently owned by `owner` (hex public key).
    pub fn unspent_for_owner(&self, owner: &str) -> Vec<(OutputRef, Utxo)> {
        let mut hits: Vec<(OutputRef, Utxo)> = self
            .entries
            .read()
            .map
            .iter()
            .filter(|(_, u)| u.spent_by.is_none() && u.owners.iter().any(|o| o == owner))
            .map(|(k, v)| (k.clone(), v.clone()))
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
    /// states with: two sets with equal snapshots are byte-identical.
    /// Taken under the read lock, so it is a consistent cut even while
    /// other threads apply transactions.
    pub fn snapshot(&self) -> Vec<(OutputRef, Utxo)> {
        let mut entries: Vec<(OutputRef, Utxo)> = self
            .entries
            .read()
            .map
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries
    }

    /// The set's [`StateDigest`], maintained on every mutation and read
    /// under the lock, so it is a consistent cut: replica equality
    /// compares in O(1) where snapshot comparison costs O(n log n).
    pub fn state_digest(&self) -> StateDigest {
        self.entries.read().digest
    }

    pub fn is_empty(&self) -> bool {
        self.entries.read().map.is_empty()
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
    fn apply_tx_is_atomic() {
        // A failing spend after several good ones must roll nothing in.
        let set = UtxoSet::new();
        let outs: Vec<OutputRef> = (0..8).map(|i| OutputRef::new("genesis", i)).collect();
        for out in &outs {
            set.add(out.clone(), utxo("alice", 1));
        }
        let before = set.snapshot();
        let digest = set.state_digest();

        let mut spends = outs.clone();
        spends.push(OutputRef::new("missing", 0));
        let adds = vec![(OutputRef::new("child", 0), utxo("bob", 8))];
        assert!(matches!(
            set.apply_tx(&spends, adds.clone(), "child"),
            Err(SpendError::UnknownOutput(_))
        ));
        assert_eq!(set.snapshot(), before, "failed apply touched the set");
        assert_eq!(set.state_digest(), digest);

        // The same effect without the bad ref goes through whole.
        let spent = set.apply_tx(&outs, adds, "child").unwrap();
        assert_eq!(spent.len(), 8);
        assert!(set.is_unspent(&OutputRef::new("child", 0)));
        assert!(outs.iter().all(|o| !set.is_unspent(o)));
    }

    #[test]
    fn concurrent_applies_lose_no_outputs() {
        // `&self` applies from many threads serialize on the lock: every
        // worker's spends and adds land, none twice.
        let set = UtxoSet::new();
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
        let set = UtxoSet::new();
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
    fn digest_is_independent_of_insertion_order() {
        let refs: Vec<OutputRef> = (0..24u32)
            .map(|i| OutputRef::new(format!("tx{}", i / 3), i % 3))
            .collect();
        let forward = UtxoSet::new();
        let backward = UtxoSet::new();
        for out in &refs {
            forward.add(out.clone(), utxo("alice", 1));
        }
        for out in refs.iter().rev() {
            backward.add(out.clone(), utxo("alice", 1));
        }
        for set in [&forward, &backward] {
            set.spend(&OutputRef::new("tx0", 1), "spender").unwrap();
        }
        assert_eq!(forward.state_digest(), backward.state_digest());
        assert_eq!(forward.snapshot(), backward.snapshot());
    }

    #[test]
    fn digest_distinguishes_spent_from_unspent() {
        let spent = UtxoSet::new();
        let unspent = UtxoSet::new();
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
        let set_a = UtxoSet::new();
        set_a.add(out.clone(), a);
        let set_b = UtxoSet::new();
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
