//! The committed-ledger state validation runs against.
//!
//! Each validator node holds a [`LedgerState`]: the committed
//! transactions, the UTXO set (spend tracking), the reserved-account
//! registry `PBPK-ℛℯ𝓈` (escrow and other system accounts, §3.1), and the
//! marketplace indexes the validation algorithms query (`getTxFromDB`,
//! `getLockedBids`, `getAcceptTxForRFQ` in Algorithms 2–3).
//!
//! The read surface lives on the [`LedgerView`] trait so the same
//! validators serve the sequential path and the batch-parallel pipeline;
//! this type adds the mutation side ([`LedgerState::apply`]) plus the
//! indexes that keep the hot lookups cheap:
//!
//! * committed transactions are held as `Arc<Transaction>` — applying a
//!   parsed transaction shares it instead of deep-cloning the payload
//!   into the map;
//! * `unspent_escrow` counts each BID's still-unspent escrow outputs,
//!   maintained incrementally on apply, so `getLockedBids`
//!   (Algorithm 3's hottest probe) is O(bids still locked) instead of
//!   re-deriving spentness from the UTXO set per call.

use crate::conditions::{row, WriteKind};
use crate::model::Transaction;
use crate::verified::{VerifiedSet, VerifiedSigners, VerifiedStats};
use crate::view::LedgerView;
use scdb_store::{
    typed_entry_hash, DurableStore, OutputRef, SpendError, StateDigest, Utxo, UtxoSet,
};
use scdb_telemetry::Telemetry;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Node-local committed state.
#[derive(Default)]
pub struct LedgerState {
    txs: HashMap<String, Arc<Transaction>>,
    utxos: UtxoSet,
    reserved: HashSet<String>,
    /// REQUEST id -> BID ids referencing it, in id order: a set, so
    /// BIDs committed in one wave, or in waves that differ from their
    /// submission order, leave the index a sequential replay would.
    bids_by_request: HashMap<String, BTreeSet<String>>,
    /// BID id -> number of its escrow outputs not yet spent. Entries are
    /// removed when the count reaches zero, so iteration touches only
    /// still-locked bids.
    unspent_escrow: HashMap<String, u32>,
    /// REQUEST id -> the committed ACCEPT_BID id, once one exists.
    accept_by_request: HashMap<String, String>,
    committed_in_order: Vec<String>,
    /// The digest of the entries the UTXO set does not hold: each
    /// committed id, each (REQUEST, bid) membership and each (REQUEST,
    /// accept) pair, folded in as `record_indexes` records them.
    typed: StateDigest,
    /// The block manifest backing this ledger, when the durable mode
    /// ([`crate::pipeline::PipelineOptions::durable`]) is on. The
    /// ledger itself never writes to it: the commit paths fetch it via
    /// [`LedgerState::durable_store`] and seal each block after it
    /// applied. `None` (the default) is the in-memory oracle.
    durable: Option<Arc<DurableStore>>,
    /// Ids whose stateless checks (schema, id digest, signatures) an
    /// earlier stage already ran against this ledger — see
    /// [`crate::verified`]. Empty on a fresh ledger, where every
    /// validation is the full check.
    verified: VerifiedSet,
}

impl LedgerState {
    /// An empty ledger with no reserved accounts.
    pub fn new() -> LedgerState {
        LedgerState::default()
    }

    /// Registers a reserved/system account (hex public key). The
    /// canonical member is the ESCROW account holding bids.
    pub fn add_reserved_account(&mut self, public_key_hex: impl Into<String>) {
        self.reserved.insert(public_key_hex.into());
    }

    /// Attaches the durable store every commit path seals its blocks
    /// into. Attach only to a ledger whose state the store already
    /// reflects (empty + empty store, or a ledger just rebuilt by
    /// [`LedgerState::restore`] from the same store's recovery).
    pub fn attach_durable(&mut self, store: Arc<DurableStore>) {
        self.durable = Some(store);
    }

    /// The attached durable store, when the ledger runs durable.
    pub fn durable_store(&self) -> Option<&Arc<DurableStore>> {
        self.durable.as_ref()
    }

    /// Reports the verified set's activity under `verified.*` in
    /// `telemetry`'s registry. Ledgers sharing a registry (cluster
    /// replicas) share the counters.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.verified.set_telemetry(telemetry);
    }

    /// Verified-set activity: this ledger's own with telemetry off,
    /// the registry's totals with it on.
    pub fn verified_stats(&self) -> VerifiedStats {
        self.verified.stats()
    }

    /// Drops `id` from the verified set after a commit-time rejection,
    /// so a resubmission is verified afresh.
    pub(crate) fn forget_verified(&self, id: &str) {
        self.verified.forget(id);
    }

    /// Rebuilds a ledger from a durable store's recovery — the only
    /// code that turns a disk into state. `committed` is the sealed
    /// chain's transactions in commit order (parsed by the caller, which
    /// shares them with its own rebuilds) and `seals` its block
    /// boundaries, each the number of transactions the block holds and
    /// the digest its seal recorded. The blocks re-execute from genesis
    /// through the scalar apply (the same effects derivation every
    /// pipeline path funnels through) and the replayed digest must
    /// equal the seal's at **every** boundary, so a corrupted document
    /// is refused at the block that holds it. Sequential replay of the
    /// commit order is exact: waves are conflict-free, so flattening
    /// them in commit order reproduces every index and UTXO
    /// byte-identically. Fail-closed: any replay error or digest
    /// mismatch refuses the restore and names the height.
    pub fn restore(
        committed: &[Arc<Transaction>],
        seals: &[(usize, scdb_store::StateDigest)],
        reserved: impl IntoIterator<Item = String>,
    ) -> Result<LedgerState, String> {
        let mut ledger = LedgerState::new();
        for account in reserved {
            ledger.add_reserved_account(account);
        }
        let mut rest = committed;
        for (height, (count, digest)) in seals.iter().enumerate() {
            let Some((block, later)) = rest.split_at_checked(*count) else {
                return Err(format!(
                    "restore: seal {height} covers {count} transactions, {} remain",
                    rest.len()
                ));
            };
            for tx in block {
                ledger.apply_shared(tx).map_err(|e| {
                    format!(
                        "restore: replay of {} at height {height} failed: {e}",
                        tx.id
                    )
                })?;
            }
            if ledger.state_digest() != *digest {
                return Err(format!(
                    "restore: replayed digest {} != sealed digest {} at height {height}",
                    ledger.state_digest().to_hex(),
                    digest.to_hex()
                ));
            }
            rest = later;
        }
        if !rest.is_empty() {
            return Err(format!(
                "restore: {} transactions past the last seal",
                rest.len()
            ));
        }
        Ok(ledger)
    }

    /// Number of committed transactions.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Commit order (for workflow validation and audits).
    pub fn committed_ids(&self) -> &[String] {
        &self.committed_in_order
    }

    /// The concrete UTXO set (spend tracking, snapshots, balances).
    /// Inherent: validation reads outputs one at a time through
    /// [`LedgerView::utxo`].
    pub fn utxos(&self) -> &UtxoSet {
        &self.utxos
    }

    /// The O(1) [`StateDigest`] of the whole replicated ledger: the UTXO
    /// set's entries, the committed ids, and each REQUEST's bids and
    /// accept. It is the replica-equality comparator (two ledgers that
    /// applied the same blocks hold equal digests), the digest a
    /// proposer gossips with the block it formed on this state, and the
    /// one a durable seal records.
    pub fn state_digest(&self) -> StateDigest {
        self.utxos.state_digest().combine(self.typed)
    }

    /// Applies a validated transaction to the state: records it, spends
    /// its inputs (double-spend safe) and registers its outputs. The
    /// transaction is deep-cloned once; batch callers holding an
    /// `Arc<Transaction>` should use [`LedgerState::apply_shared`].
    ///
    /// ACCEPT_BID is the declarative exception on both sides: its inputs
    /// are *not* spent here and its outputs are *not* registered as
    /// UTXOs — they are the settlement plan the asynchronously committed
    /// children (winner TRANSFER + RETURNs) realize against the bids'
    /// escrow outputs (non-locking commit, §4.2; DESIGN.md §4).
    pub fn apply(&mut self, tx: &Transaction) -> Result<(), SpendError> {
        self.apply_shared(&Arc::new(tx.clone()))
    }

    /// [`LedgerState::apply`] without the deep clone: the ledger keeps a
    /// reference-counted handle to the caller's transaction.
    ///
    /// The one apply routine: the batch pipeline (each wave's survivors
    /// in wave order), recovery's re-execution and settlement all apply
    /// through it. The UTXO-side plan — the `OutputRef`s the transaction
    /// spends and the entries it registers — executes through
    /// [`UtxoSet::apply_tx`] atomically, so a refused transaction leaves
    /// the ledger untouched. A nested type moves no output: ACCEPT_BID's
    /// inputs and outputs are the settlement plan its children realize
    /// (non-locking commit).
    pub fn apply_shared(&mut self, tx: &Arc<Transaction>) -> Result<(), SpendError> {
        if !row(tx.operation).nested {
            let spends: Vec<OutputRef> = tx
                .inputs
                .iter()
                .filter_map(|i| i.fulfills.as_ref())
                .map(|f| OutputRef::new(f.tx_id.clone(), f.output_index))
                .collect();
            let asset_id = self.asset_id_of(tx).unwrap_or_else(|| tx.id.clone());
            let adds = tx
                .outputs
                .iter()
                .enumerate()
                .map(|(i, out)| {
                    (
                        OutputRef::new(tx.id.clone(), i as u32),
                        Utxo {
                            owners: out.public_keys.clone(),
                            previous_owners: out.previous_owners.clone(),
                            amount: out.amount,
                            asset_id: asset_id.clone(),
                            spent_by: None,
                        },
                    )
                })
                .collect();
            self.utxos.apply_tx(&spends, adds, &tx.id)?;
        }
        self.record_indexes(tx);
        Ok(())
    }

    /// Everything a commit mutates besides the UTXO set: the marketplace
    /// writes the type's row declares (`TxType::market_writes`), the
    /// committed map and the commit order. Each new entry of the
    /// committed map, a bid set or an accept slot is folded into the
    /// state digest.
    fn record_indexes(&mut self, tx: &Arc<Transaction>) {
        let row = row(tx.operation);
        for write in row.market_writes(tx, |id| self.txs.get(id).map(Arc::as_ref)) {
            match write.kind {
                // Spending a bid's escrow output unlocks that share of
                // the bid. A nested row spends nothing itself.
                WriteKind::Unlock if row.nested => {}
                WriteKind::Unlock => {
                    if let Some(remaining) = self.unspent_escrow.get_mut(write.member) {
                        *remaining -= 1;
                        if *remaining == 0 {
                            self.unspent_escrow.remove(write.member);
                        }
                    }
                }
                WriteKind::Append => {
                    if !tx.outputs.is_empty() {
                        self.unspent_escrow
                            .insert(tx.id.clone(), tx.outputs.len() as u32);
                    }
                    join_bids(
                        &mut self.bids_by_request,
                        &mut self.typed,
                        write.request,
                        &tx.id,
                    );
                }
                WriteKind::Set => {
                    let accept =
                        |id: &str| typed_entry_hash(ACCEPT_OF_REQUEST, &[write.request, id]);
                    let replaced =
                        (self.accept_by_request).insert(write.request.to_owned(), tx.id.clone());
                    if let Some(replaced) = replaced {
                        self.typed.fold_remove(accept(&replaced));
                    }
                    self.typed.fold_add(accept(&tx.id));
                }
            }
        }

        if self.txs.insert(tx.id.clone(), Arc::clone(tx)).is_none() {
            self.typed.fold_add(typed_entry_hash(COMMITTED, &[&tx.id]));
        }
        self.committed_in_order.push(tx.id.clone());
        // Committed: any later sight of this id is a duplicate before
        // its signatures matter.
        self.verified.forget(&tx.id);
    }

    /// Rewrites the commit-order tail starting at position `from` to
    /// `order`. The batch pipeline applies transactions wave by wave but
    /// defines a batch's commit order as submission order (see
    /// DESIGN-pipeline.md); this restores that order after the waves
    /// finish. `order` must be a permutation of the current tail.
    pub(crate) fn set_commit_order_tail(&mut self, from: usize, order: &[String]) {
        debug_assert_eq!(self.committed_in_order.len() - from, order.len());
        debug_assert_eq!(
            {
                let mut a: Vec<&String> = self.committed_in_order[from..].iter().collect();
                a.sort();
                a
            },
            {
                let mut b: Vec<&String> = order.iter().collect();
                b.sort();
                b
            },
            "batch commit order must be a permutation of the applied tail"
        );
        self.committed_in_order.truncate(from);
        self.committed_in_order.extend_from_slice(order);
    }
}

/// The kinds of entry [`LedgerState::state_digest`] folds in beside the
/// UTXO entries, each hashed by [`typed_entry_hash`] after its kind.
const COMMITTED: u8 = 1;
const BID_OF_REQUEST: u8 = 2;
const ACCEPT_OF_REQUEST: u8 = 3;

/// Adds `bid` to `request`'s bid set in `bids_by_request`, folding the
/// membership into `typed` if it is new.
fn join_bids(
    bids_by_request: &mut HashMap<String, BTreeSet<String>>,
    typed: &mut StateDigest,
    request: &str,
    bid: &str,
) {
    let bids = bids_by_request.entry(request.to_owned()).or_default();
    if bids.insert(bid.to_owned()) {
        typed.fold_add(typed_entry_hash(BID_OF_REQUEST, &[request, bid]));
    }
}

impl LedgerView for LedgerState {
    fn get(&self, id: &str) -> Option<&Transaction> {
        self.txs.get(id).map(Arc::as_ref)
    }

    fn utxo(&self, output: &OutputRef) -> Option<Utxo> {
        self.utxos.get(output)
    }

    fn reserved(&self) -> &HashSet<String> {
        &self.reserved
    }

    fn locked_bids_for_request(&self, request_id: &str) -> Vec<&Transaction> {
        self.bids_by_request
            .get(request_id)
            .into_iter()
            .flatten()
            .filter(|id| self.unspent_escrow.contains_key(*id))
            .filter_map(|id| self.get(id))
            .collect()
    }

    fn bids_for_request(&self, request_id: &str) -> Vec<&Transaction> {
        self.bids_by_request
            .get(request_id)
            .into_iter()
            .flatten()
            .filter_map(|id| self.get(id))
            .collect()
    }

    fn accept_for_request(&self, request_id: &str) -> Option<&Transaction> {
        self.accept_by_request
            .get(request_id)
            .and_then(|id| self.get(id))
    }

    fn verified(&self, tx: &Transaction) -> Option<VerifiedSigners> {
        self.verified.lookup(tx)
    }

    fn is_verified_id(&self, id: &str) -> bool {
        self.verified.contains(id)
    }

    fn record_verified(&self, tx: &Arc<Transaction>, signers: VerifiedSigners) {
        self.verified.record(tx, signers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AssetRef, Input, Operation, Output};
    use scdb_json::{obj, Value};

    fn create_tx(owner: &str, caps: &[&str], amount: u64) -> Transaction {
        let mut tx = Transaction {
            id: String::new(),
            operation: Operation::Create,
            asset: AssetRef::Data(obj! {
                "capabilities" => Value::Array(caps.iter().map(|c| Value::from(*c)).collect()),
            }),
            inputs: vec![Input {
                owners_before: vec![owner.to_owned()],
                fulfills: None,
                fulfillment: "s".into(),
            }],
            outputs: vec![Output::new(owner, amount)],
            metadata: Value::Null,
            children: vec![],
            references: vec![],
        };
        tx.seal();
        tx
    }

    #[test]
    fn apply_registers_outputs_and_asset() {
        let mut ledger = LedgerState::new();
        let tx = create_tx(&"aa".repeat(32), &["cnc"], 5);
        ledger.apply(&tx).unwrap();
        assert!(ledger.is_committed(&tx.id));
        assert!(ledger.utxos().is_unspent(&OutputRef::new(tx.id.clone(), 0)));
        assert_eq!(ledger.asset_capabilities(&tx.id), vec!["cnc"]);
        assert_eq!(ledger.utxos().balance(&"aa".repeat(32), &tx.id), 5);
    }

    #[test]
    fn apply_shared_does_not_clone() {
        let mut ledger = LedgerState::new();
        let tx = Arc::new(create_tx(&"aa".repeat(32), &[], 1));
        ledger.apply_shared(&tx).unwrap();
        // The map holds the same allocation the caller handed in.
        assert_eq!(Arc::strong_count(&tx), 2);
        assert!(std::ptr::eq(ledger.get(&tx.id).unwrap(), tx.as_ref()));
    }

    #[test]
    fn double_spend_rejected_on_apply() {
        let mut ledger = LedgerState::new();
        let owner = "aa".repeat(32);
        let create = create_tx(&owner, &[], 1);
        ledger.apply(&create).unwrap();

        let mut t1 = create.clone();
        t1.operation = Operation::Transfer;
        t1.asset = AssetRef::Id(create.id.clone());
        t1.inputs[0].fulfills = Some(crate::model::InputRef {
            tx_id: create.id.clone(),
            output_index: 0,
        });
        t1.seal();
        ledger.apply(&t1).unwrap();

        let mut t2 = t1.clone();
        t2.metadata = obj! { "n" => 2 };
        t2.seal();
        assert!(matches!(
            ledger.apply(&t2),
            Err(SpendError::DoubleSpend { .. })
        ));
    }

    #[test]
    fn reserved_account_registry() {
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account("e5".repeat(32));
        assert!(ledger.reserved().contains(&"e5".repeat(32)));
        assert!(!ledger.reserved().contains(&"00".repeat(32)));
        assert_eq!(ledger.reserved().len(), 1);
    }

    #[test]
    fn bid_indexes_track_requests() {
        let mut ledger = LedgerState::new();
        let bidder = "bb".repeat(32);
        let escrow = "e5".repeat(32);
        ledger.add_reserved_account(escrow.clone());

        let asset = create_tx(&bidder, &["cnc", "3d-print"], 1);
        ledger.apply(&asset).unwrap();
        let request = create_tx(&"cc".repeat(32), &["cnc"], 1);
        let mut request = Transaction {
            operation: Operation::Request,
            ..request
        };
        request.seal();
        ledger.apply(&request).unwrap();

        let mut bid = Transaction {
            id: String::new(),
            operation: Operation::Bid,
            asset: AssetRef::Id(asset.id.clone()),
            inputs: vec![Input {
                owners_before: vec![bidder.clone()],
                fulfills: Some(crate::model::InputRef {
                    tx_id: asset.id.clone(),
                    output_index: 0,
                }),
                fulfillment: "s".into(),
            }],
            outputs: vec![Output::new(escrow.clone(), 1).with_previous(vec![bidder.clone()])],
            metadata: Value::Null,
            children: vec![],
            references: vec![request.id.clone()],
        };
        bid.seal();
        ledger.apply(&bid).unwrap();

        assert_eq!(ledger.bids_for_request(&request.id).len(), 1);
        assert_eq!(ledger.locked_bids_for_request(&request.id).len(), 1);
        assert_eq!(ledger.asset_id_of(&bid), Some(asset.id.clone()));

        // Settling the bid (spending its escrow output) unlocks it.
        let mut ret = Transaction {
            id: String::new(),
            operation: Operation::Return,
            asset: AssetRef::Id(asset.id.clone()),
            inputs: vec![Input {
                owners_before: vec![escrow.clone()],
                fulfills: Some(crate::model::InputRef {
                    tx_id: bid.id.clone(),
                    output_index: 0,
                }),
                fulfillment: "s".into(),
            }],
            outputs: vec![Output::new(bidder.clone(), 1).with_previous(vec![escrow.clone()])],
            metadata: Value::Null,
            children: vec![],
            references: vec![bid.id.clone()],
        };
        ret.seal();
        ledger.apply(&ret).unwrap();
        assert_eq!(ledger.locked_bids_for_request(&request.id).len(), 0);
        let escrow_output = ledger.utxo(&OutputRef::new(bid.id.clone(), 0)).unwrap();
        assert_eq!(escrow_output.spent_by, Some(ret.id.clone()));
    }

    /// The incremental locked-bid index must agree with re-deriving
    /// lock state from the UTXO set (the seed implementation).
    #[test]
    fn escrow_index_agrees_with_utxo_scan() {
        let mut ledger = LedgerState::new();
        let bidder = "bb".repeat(32);
        let escrow = "e5".repeat(32);
        ledger.add_reserved_account(escrow.clone());

        let asset = create_tx(&bidder, &["cnc"], 2);
        ledger.apply(&asset).unwrap();
        let mut request = create_tx(&"cc".repeat(32), &["cnc"], 1);
        request.operation = Operation::Request;
        request.seal();
        ledger.apply(&request).unwrap();

        // A bid with TWO escrow outputs: it stays locked until both are
        // spent.
        let mut bid = Transaction {
            id: String::new(),
            operation: Operation::Bid,
            asset: AssetRef::Id(asset.id.clone()),
            inputs: vec![Input {
                owners_before: vec![bidder.clone()],
                fulfills: Some(crate::model::InputRef {
                    tx_id: asset.id.clone(),
                    output_index: 0,
                }),
                fulfillment: "s".into(),
            }],
            outputs: vec![
                Output::new(escrow.clone(), 1).with_previous(vec![bidder.clone()]),
                Output::new(escrow.clone(), 1).with_previous(vec![bidder.clone()]),
            ],
            metadata: Value::Null,
            children: vec![],
            references: vec![request.id.clone()],
        };
        bid.seal();
        ledger.apply(&bid).unwrap();

        let scan_locked = |ledger: &LedgerState, bid: &Transaction| {
            (0..bid.outputs.len() as u32).any(|i| {
                ledger
                    .utxos()
                    .is_unspent(&OutputRef::new(bid.id.clone(), i))
            })
        };
        assert!(scan_locked(&ledger, &bid));
        assert_eq!(ledger.locked_bids_for_request(&request.id).len(), 1);

        for spend_index in 0..2u32 {
            let mut ret = Transaction {
                id: String::new(),
                operation: Operation::Return,
                asset: AssetRef::Id(asset.id.clone()),
                inputs: vec![Input {
                    owners_before: vec![escrow.clone()],
                    fulfills: Some(crate::model::InputRef {
                        tx_id: bid.id.clone(),
                        output_index: spend_index,
                    }),
                    fulfillment: "s".into(),
                }],
                outputs: vec![Output::new(bidder.clone(), 1).with_previous(vec![escrow.clone()])],
                metadata: obj! { "n" => spend_index as i64 },
                children: vec![],
                references: vec![bid.id.clone()],
            };
            ret.seal();
            ledger.apply(&ret).unwrap();
            let indexed = ledger.locked_bids_for_request(&request.id).len() == 1;
            assert_eq!(
                indexed,
                scan_locked(&ledger, &bid),
                "after spend {spend_index}"
            );
        }
        assert!(ledger.locked_bids_for_request(&request.id).is_empty());
    }

    #[test]
    fn request_capabilities_read_from_asset_data() {
        let ledger = LedgerState::new();
        let mut req = create_tx(&"aa".repeat(32), &["cnc", "iso-9001"], 1);
        req.operation = Operation::Request;
        req.seal();
        assert_eq!(ledger.request_capabilities(&req), vec!["cnc", "iso-9001"]);
    }

    #[test]
    fn capabilities_empty_for_unknown_assets() {
        let ledger = LedgerState::new();
        assert!(ledger.asset_capabilities("missing").is_empty());
    }

    #[test]
    fn commit_order_is_preserved() {
        let mut ledger = LedgerState::new();
        let a = create_tx(&"aa".repeat(32), &[], 1);
        let b = create_tx(&"bb".repeat(32), &[], 2);
        ledger.apply(&a).unwrap();
        ledger.apply(&b).unwrap();
        assert_eq!(ledger.committed_ids(), &[a.id.clone(), b.id.clone()]);
    }

    #[test]
    fn restore_checks_the_digest_at_every_seal_and_names_the_height() {
        let txs: Vec<Arc<Transaction>> = (1..=3)
            .map(|n| Arc::new(create_tx(&"aa".repeat(32), &[], n)))
            .collect();
        let mut live = LedgerState::new();
        let mut seals = Vec::new();
        for tx in &txs {
            live.apply_shared(tx).unwrap();
            seals.push((1, live.state_digest()));
        }
        let restored = LedgerState::restore(&txs, &seals, []).expect("a true chain restores");
        assert_eq!(restored.state_digest(), live.state_digest());
        assert_eq!(restored.committed_ids(), live.committed_ids());

        // A wrong digest in the middle is refused there, though the last
        // seal's digest is right.
        let mut wrong = seals.clone();
        wrong[1].1 = seals[0].1;
        let refused = LedgerState::restore(&txs, &wrong, []).err().unwrap();
        assert!(refused.contains("at height 1"), "{refused}");
        // So is a chain whose seals do not cover its documents exactly.
        assert!(LedgerState::restore(&txs, &seals[..2], []).is_err());
        assert!(LedgerState::restore(&txs[..2], &seals, []).is_err());
    }

    /// Two ledgers that hold the same transactions and differ only in
    /// which REQUEST's bid set holds one bid digest differently; joining
    /// a bid set twice is joining it once.
    #[test]
    fn digest_commits_to_each_bid_set() {
        let tx = create_tx(&"aa".repeat(32), &[], 1);
        let (mut a, mut b) = (LedgerState::new(), LedgerState::new());
        a.apply(&tx).unwrap();
        b.apply(&tx).unwrap();
        let bid = "ee".repeat(32);
        join_bids(&mut a.bids_by_request, &mut a.typed, &"11".repeat(32), &bid);
        join_bids(&mut b.bids_by_request, &mut b.typed, &"22".repeat(32), &bid);
        assert_eq!(a.utxos().state_digest(), b.utxos().state_digest());
        assert_ne!(a.state_digest(), b.state_digest());
        let joined = a.state_digest();
        join_bids(&mut a.bids_by_request, &mut a.typed, &"11".repeat(32), &bid);
        assert_eq!(a.state_digest(), joined);
    }

    /// The digest a seal records commits to more than the UTXO set, so
    /// a store whose seals hold the UTXO digest alone is refused at the
    /// first height that holds a transaction.
    #[test]
    fn digest_commits_to_more_than_the_utxos_so_utxo_only_seals_are_refused() {
        let txs: Vec<Arc<Transaction>> = (1..=2)
            .map(|n| Arc::new(create_tx(&"aa".repeat(32), &[], n)))
            .collect();
        let mut live = LedgerState::new();
        let mut utxo_only = vec![(0, live.utxos().state_digest())];
        for tx in &txs {
            live.apply_shared(tx).unwrap();
            utxo_only.push((1, live.utxos().state_digest()));
        }
        let refused = LedgerState::restore(&txs, &utxo_only, []).err().unwrap();
        assert!(refused.contains("at height 1"), "{refused}");
    }

    #[test]
    fn commit_order_tail_rewrite() {
        let mut ledger = LedgerState::new();
        let a = create_tx(&"aa".repeat(32), &[], 1);
        let b = create_tx(&"bb".repeat(32), &[], 2);
        let c = create_tx(&"cc".repeat(32), &[], 3);
        ledger.apply(&a).unwrap();
        ledger.apply(&c).unwrap();
        ledger.apply(&b).unwrap();
        ledger.set_commit_order_tail(1, &[b.id.clone(), c.id.clone()]);
        assert_eq!(
            ledger.committed_ids(),
            &[a.id.clone(), b.id.clone(), c.id.clone()]
        );
    }
}
