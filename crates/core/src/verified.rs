//! The per-ledger verified set: "this id passed schema, id-digest and
//! signature checks against this signer set".
//!
//! Fig. 4 validates a transaction at the receiver, at CheckTx and at
//! DeliverTx. The stateless part of that — template shape, id digest,
//! ed25519 signatures — depends on the transaction's bytes alone, and
//! ids are content digests *including fulfillments*
//! ([`Transaction::compute_id`]): an id-consistent transaction whose id
//! was verified is byte-for-byte the verified one. So the stage that
//! first runs those checks (mempool admission, a replica's CheckTx, the
//! block pool a commit runs first) records the id here, pinned
//! to the `Arc` allocation it checked, and
//! [`crate::validate::validate_transaction`] skips them on a hit,
//! keeping every stateful rule. The object in hand is bound to the
//! verified content by address when it is the pinned allocation — the
//! case on every path that shares the `Arc` — and by an id recompute
//! otherwise (a clone, a re-parse, a body edited under the id).
//!
//! The address check is sound because a pinned allocation holds the
//! verified bytes for as long as the entry holds its [`Weak`]:
//! `Arc::get_mut` refuses while a weak reference exists,
//! `Arc::make_mut` / `Arc::try_unwrap` move the value to another
//! address, the allocation is not freed (so the address is not reused),
//! `Transaction` has no interior mutability, and every crate forbids
//! `unsafe`.
//!
//! The set is a cache, never an authority: a lost entry costs one
//! re-verification and cannot change a verdict. Entries leave when the
//! transaction applies or is rejected at commit; everything else
//! (evicted, expired, abandoned proposals) is bounded by two
//! generations swapped at a fixed size. One set per [`LedgerState`] —
//! per node, per cluster replica — so replicated work stays replicated.
//!
//! [`LedgerState`]: crate::LedgerState

use crate::model::Transaction;
use scdb_telemetry::{Counter, Telemetry};
use std::collections::HashMap;
use std::sync::{Arc, RwLock, Weak};

/// The signer set a verified-set entry vouches for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifiedSigners {
    /// Every input's fulfillment verified against that input's own
    /// `owners_before` — part of the content, hence bound by the id.
    InputOwners,
    /// Every input's fulfillment verified against this key set (hex).
    /// ACCEPT_BID is signed by the *requester*, who is named by the
    /// referenced REQUEST rather than by the transaction itself, so the
    /// entry hits only when commit resolves the same keys.
    Explicit(Vec<String>),
}

/// The young generation swaps to old when it reaches this many entries
/// (the default `MempoolConfig::max_pending`, so a full pool of
/// admitted transactions always fits in the live generations).
const GENERATION_CAP: usize = 65_536;

/// Verified-set activity since the ledger was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifiedStats {
    /// Lookups that let validation skip the stateless checks.
    pub hits: u64,
    /// Hits that paid the id recompute: the object in hand was not the
    /// pinned allocation (a clone or a re-parse of the verified bytes).
    pub rehashed: u64,
    /// Lookups that fell through to the full check.
    pub misses: u64,
    /// Entries recorded (re-recording a live id, in either generation,
    /// does not count).
    pub recorded: u64,
    /// Entries dropped by a generation swap.
    pub evicted: u64,
}

/// One entry: the signer set, and the allocation that was checked.
struct Entry {
    signers: VerifiedSigners,
    pin: Weak<Transaction>,
}

#[derive(Default)]
struct Generations {
    young: HashMap<String, Entry>,
    old: HashMap<String, Entry>,
}

/// The set itself; see the module docs. Interior-mutable so admission
/// and parallel validation, which hold the ledger by `&`, can fill and
/// consult it.
#[derive(Default)]
pub(crate) struct VerifiedSet {
    /// A poisoned lock is used as it is: a holder that panicked left
    /// both maps well-formed, and an entry it did not finish writing is
    /// a miss, which only costs a re-check.
    generations: RwLock<Generations>,
    hits: Arc<Counter>,
    rehashed: Arc<Counter>,
    misses: Arc<Counter>,
    recorded: Arc<Counter>,
    evicted: Arc<Counter>,
}

impl VerifiedSet {
    /// Re-points the counters at `telemetry`'s registry (`verified.*`);
    /// with telemetry off they stay standalone.
    pub(crate) fn set_telemetry(&mut self, telemetry: &Telemetry) {
        if let Some(registry) = telemetry.registry() {
            self.hits = registry.counter("verified.hits");
            self.rehashed = registry.counter("verified.rehashed");
            self.misses = registry.counter("verified.misses");
            self.recorded = registry.counter("verified.recorded");
            self.evicted = registry.counter("verified.evicted");
        }
    }

    /// The signer set `tx` was verified against, if its id is in the
    /// set **and** the object in hand is the verified content: the
    /// pinned allocation itself, or else an object that still hashes to
    /// the id (counted in `rehashed`). A different body under a
    /// recorded id is a miss, and the full check then names the
    /// mismatch.
    pub(crate) fn lookup(&self, tx: &Transaction) -> Option<VerifiedSigners> {
        let entry = {
            let generations = self.generations.read().unwrap_or_else(|e| e.into_inner());
            generations
                .young
                .get(&tx.id)
                .or_else(|| generations.old.get(&tx.id))
                .map(|entry| (entry.signers.clone(), std::ptr::eq(entry.pin.as_ptr(), tx)))
        };
        let hit = match entry {
            Some((signers, true)) => Some(signers),
            Some((signers, false)) if tx.id_is_consistent() => {
                self.rehashed.incr();
                Some(signers)
            }
            _ => None,
        };
        match hit {
            Some(_) => self.hits.incr(),
            None => self.misses.incr(),
        }
        hit
    }

    /// Whether `id` is in the set at all — a map probe, with no id
    /// check and no hit/miss accounting. The block pre-pass selects its
    /// candidates with this and leaves every present id to
    /// [`VerifiedSet::lookup`], which binds the object in hand.
    pub(crate) fn contains(&self, id: &str) -> bool {
        let generations = self.generations.read().unwrap_or_else(|e| e.into_inner());
        generations.young.contains_key(id) || generations.old.contains_key(id)
    }

    /// Records that `tx` passed the stateless checks against `signers`,
    /// pinning its allocation. Re-recording a live id replaces its
    /// entry and moves it to the young generation, counted once.
    pub(crate) fn record(&self, tx: &Arc<Transaction>, signers: VerifiedSigners) {
        let entry = Entry {
            signers,
            pin: Arc::downgrade(tx),
        };
        let mut generations = self.generations.write().unwrap_or_else(|e| e.into_inner());
        let was_old = generations.old.remove(&tx.id).is_some();
        let was_young = generations.young.insert(tx.id.clone(), entry).is_some();
        if !was_old && !was_young {
            self.recorded.incr();
        }
        if generations.young.len() >= GENERATION_CAP {
            let young = std::mem::take(&mut generations.young);
            let dropped = std::mem::replace(&mut generations.old, young);
            self.evicted.add(dropped.len() as u64);
        }
    }

    /// Drops `id`: it applied (a resubmission is a duplicate before any
    /// signature matters) or was rejected at commit (a resubmission is
    /// re-verified).
    pub(crate) fn forget(&self, id: &str) {
        let mut generations = self.generations.write().unwrap_or_else(|e| e.into_inner());
        generations.young.remove(id);
        generations.old.remove(id);
    }

    pub(crate) fn stats(&self) -> VerifiedStats {
        VerifiedStats {
            hits: self.hits.value(),
            rehashed: self.rehashed.value(),
            misses: self.misses.value(),
            recorded: self.recorded.value(),
            evicted: self.evicted.value(),
        }
    }
}
