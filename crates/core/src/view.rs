//! The ledger surface validation reads, and the part one transaction
//! may see of it.
//!
//! [`LedgerView`] is the read-only surface over committed state: a live
//! [`LedgerState`](crate::LedgerState) on the sequential path, an
//! immutable snapshot shared by worker threads on the batch-parallel
//! path ([`crate::pipeline`]). Every method takes `&self` and
//! implementors are `Sync`, so one snapshot serves any number of
//! concurrent validators.
//!
//! No condition holds the view. Each declares its `Lookup`s, a row's
//! lookups are resolved once into a `ReadSet`, and `Condition::check`
//! reads only that — a key the row did not declare is an `Err`. The
//! conflict footprint reads the keys of the same lookups.

use crate::conditions::TxType;
use crate::errors::ValidationError;
use crate::model::{AssetRef, Transaction};
use crate::verified::VerifiedSigners;
use scdb_json::Value;
use scdb_store::{OutputRef, Utxo};
use std::collections::HashSet;
use std::sync::Arc;

/// Read-only view of committed ledger state.
///
/// The required methods are the primitive lookups a node's store
/// answers (`getTxFromDB`, `getLockedBids`, `getAcceptTxForRFQ` of
/// Algorithms 2–3 plus the reserved-account registry and the UTXO
/// lookup); the provided methods are derived queries shared by every
/// implementor.
///
/// The UTXO read surface is the *per-output* lookup [`LedgerView::utxo`]
/// rather than a reference to a concrete `UtxoSet`: validation needs
/// one output at a time, and the sharded set answers that under a
/// single shard lock. [`LedgerState`](crate::LedgerState) is the only
/// implementor.
pub trait LedgerView: Sync {
    /// `getTxFromDB`: a committed transaction by id.
    fn get(&self, id: &str) -> Option<&Transaction>;

    /// One output's UTXO entry (owners, shares, spentness), if the
    /// output exists.
    fn utxo(&self, output: &OutputRef) -> Option<Utxo>;

    /// The reserved registry `PBPK-ℛℯ𝓈` (hex public keys).
    fn reserved(&self) -> &HashSet<String>;

    /// `getLockedBids`: committed BIDs referencing a REQUEST whose
    /// escrow output is still unspent, in id order.
    fn locked_bids_for_request(&self, request_id: &str) -> Vec<&Transaction>;

    /// All committed BIDs for a REQUEST (locked or settled), in id
    /// order: bids on one request commute, so the order they committed
    /// in is not part of the state.
    fn bids_for_request(&self, request_id: &str) -> Vec<&Transaction>;

    /// `getAcceptTxForRFQ`: the ACCEPT_BID committed for a REQUEST.
    fn accept_for_request(&self, request_id: &str) -> Option<&Transaction>;

    /// True when the transaction is committed.
    fn is_committed(&self, id: &str) -> bool {
        self.get(id).is_some()
    }

    /// The asset id a transaction's shares belong to, read off the
    /// asset's shape: inline data mints a new asset identified by the
    /// transaction's own id (the schema gives CREATE and REQUEST that
    /// shape, and only them); an asset id is inherited; a winning bid's
    /// asset is the bid's.
    fn asset_id_of(&self, tx: &Transaction) -> Option<String> {
        match &tx.asset {
            AssetRef::Data(_) => Some(tx.id.clone()),
            AssetRef::Id(id) => Some(id.clone()),
            AssetRef::WinBid(bid_id) => {
                let bid = self.get(bid_id)?;
                self.asset_id_of(bid)
            }
        }
    }

    /// The capability strings of a REQUEST (`getCapsFromRFQ`, Alg. 2).
    fn request_capabilities(&self, request: &Transaction) -> Vec<String> {
        capabilities(request)
    }

    /// The capability strings of an asset (`getCapsFromAsset`, Alg. 2):
    /// looked up from the CREATE transaction that minted it.
    fn asset_capabilities(&self, asset_id: &str) -> Vec<String> {
        self.get(asset_id).map(capabilities).unwrap_or_default()
    }

    /// Verified-set lookup ([`crate::verified`]): the signer set `tx`
    /// already passed schema, id-digest and signature checks against,
    /// if this view's ledger recorded its id and the object in hand is
    /// the verified content — the very allocation that was recorded,
    /// or, for any other object, one that still hashes to the id. The
    /// default — a view with no set — always misses, which is the full
    /// check.
    fn verified(&self, _tx: &Transaction) -> Option<VerifiedSigners> {
        None
    }

    /// Whether the verified set holds an entry for `id` — membership
    /// only: no id check, no hit/miss accounting, and no promise that
    /// [`LedgerView::verified`] will hit (it still binds the object in
    /// hand to the id). The default has no set.
    fn is_verified_id(&self, _id: &str) -> bool {
        false
    }

    /// Records that `tx` passed schema, id-digest and signature checks
    /// against `signers`, pinning its allocation: a later lookup on
    /// that same allocation hits without recomputing the id. Call only
    /// after all three passed on this very `Arc`'s content. The default
    /// discards the record.
    fn record_verified(&self, _tx: &Arc<Transaction>, _signers: VerifiedSigners) {}
}

/// The `capabilities` strings of a transaction's asset data
/// (`getCapsFromRFQ` / `getCapsFromAsset`); empty without any.
pub(crate) fn capabilities(tx: &Transaction) -> Vec<String> {
    let list = match &tx.asset {
        AssetRef::Data(data) => data.get("capabilities").and_then(Value::as_array),
        _ => None,
    };
    let strings = list.into_iter().flatten().filter_map(Value::as_str);
    strings.map(str::to_owned).collect()
}

/// One ledger read a condition declares, keyed off the transaction's
/// content or the REQUEST its row links to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup<'a> {
    /// `getTxFromDB`: a committed transaction by id.
    Tx(&'a str),
    /// One output's UTXO entry, by `(tx id, index)`.
    Utxo(&'a str, u32),
    /// `getLockedBids` of a REQUEST: its locked bids, each with the UTXO
    /// entries of all its outputs.
    LockedBids(&'a str),
    /// `getAcceptTxForRFQ`: the ACCEPT_BID committed for a REQUEST.
    Accept(&'a str),
}

/// A locked bid and the UTXO entry of each of its outputs, by index.
pub(crate) type LockedBid<'a> = (&'a Transaction, Vec<Option<Utxo>>);

/// The ledger state one row's lookups resolved to, each entry under the
/// lookup that fetched it: all its conditions see of the ledger.
pub(crate) struct ReadSet<'a> {
    /// `Tx` and `Accept` lookups.
    txs: Vec<(Lookup<'a>, Option<&'a Transaction>)>,
    utxos: Vec<(Lookup<'a>, Option<Utxo>)>,
    locked_bids: Vec<(Lookup<'a>, Vec<LockedBid<'a>>)>,
    /// The reserved registry: configuration no commit writes, so it is
    /// borrowed, not declared.
    reserved: &'a HashSet<String>,
}

impl<'a> ReadSet<'a> {
    /// Resolves every lookup `row`'s conditions declare for `tx`, once.
    /// A RETURN's REQUEST is reached through its committed bid.
    pub(crate) fn fetch(
        row: &TxType,
        tx: &'a Transaction,
        ledger: &'a impl LedgerView,
    ) -> ReadSet<'a> {
        let utxo = |id: &str, i| ledger.utxo(&OutputRef::new(id, i));
        let mut reads = ReadSet {
            txs: Vec::new(),
            utxos: Vec::new(),
            locked_bids: Vec::new(),
            reserved: ledger.reserved(),
        };
        for lookup in row.lookups(tx, row.request_of(tx, |id| ledger.get(id))) {
            match lookup {
                Lookup::Tx(id) => reads.txs.push((lookup, ledger.get(id))),
                Lookup::Accept(r) => reads.txs.push((lookup, ledger.accept_for_request(r))),
                Lookup::Utxo(id, i) => reads.utxos.push((lookup, utxo(id, i))),
                Lookup::LockedBids(r) => {
                    let bids = ledger.locked_bids_for_request(r).into_iter().map(|bid| {
                        let entries = (0..bid.outputs.len() as u32).map(|i| utxo(&bid.id, i));
                        (bid, entries.collect())
                    });
                    reads.locked_bids.push((lookup, bids.collect()));
                }
            }
        }
        reads
    }

    /// A committed transaction by id.
    pub(crate) fn tx(&self, id: &str) -> Result<Option<&'a Transaction>, ValidationError> {
        declared(&self.txs, Lookup::Tx(id)).copied()
    }

    /// One output's UTXO entry.
    pub(crate) fn utxo(&self, id: &str, i: u32) -> Result<Option<&Utxo>, ValidationError> {
        declared(&self.utxos, Lookup::Utxo(id, i)).map(Option::as_ref)
    }

    /// A REQUEST's locked bids, with their outputs' UTXO entries.
    pub(crate) fn locked_bids(&self, request: &str) -> Result<&[LockedBid<'a>], ValidationError> {
        declared(&self.locked_bids, Lookup::LockedBids(request)).map(Vec::as_slice)
    }

    /// The ACCEPT_BID committed for a REQUEST.
    pub(crate) fn accept(&self, request: &str) -> Result<Option<&'a Transaction>, ValidationError> {
        declared(&self.txs, Lookup::Accept(request)).copied()
    }

    /// True when the key belongs to the reserved registry.
    pub(crate) fn is_reserved(&self, public_key_hex: &str) -> bool {
        self.reserved.contains(public_key_hex)
    }
}

/// The entry `lookup` fetched — an `Err` when the row did not declare it.
fn declared<'s, V>(
    entries: &'s [(Lookup<'_>, V)],
    lookup: Lookup<'_>,
) -> Result<&'s V, ValidationError> {
    let entry = entries.iter().find(|(fetched, _)| *fetched == lookup);
    entry.map(|(_, v)| v).ok_or_else(|| {
        ValidationError::Semantic(format!("{lookup:?} is not a lookup this row declares"))
    })
}
