//! The read-only ledger surface validation runs against.
//!
//! Validation (Algorithms 1–3, the `C_α` condition sets) only ever
//! *reads* committed state. [`LedgerView`] captures exactly that read
//! surface, so the same validators run against a live
//! [`LedgerState`](crate::LedgerState) on the sequential path and
//! against an immutable snapshot shared by worker threads on the
//! batch-parallel path ([`crate::pipeline`]). Because every method
//! takes `&self` and implementors are `Sync`, one snapshot can serve
//! any number of concurrent validators.

use crate::model::{AssetRef, Operation, Transaction};
use crate::verified::VerifiedSigners;
use scdb_json::Value;
use scdb_store::{OutputRef, Utxo};

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

    /// True when the key belongs to the reserved registry `PBPK-ℛℯ𝓈`.
    fn is_reserved(&self, public_key_hex: &str) -> bool;

    /// `getLockedBids`: committed BIDs referencing a REQUEST whose
    /// escrow output is still unspent.
    fn locked_bids_for_request(&self, request_id: &str) -> Vec<&Transaction>;

    /// All committed BIDs for a REQUEST (locked or settled).
    fn bids_for_request(&self, request_id: &str) -> Vec<&Transaction>;

    /// `getAcceptTxForRFQ`: the ACCEPT_BID committed for a REQUEST.
    fn accept_for_request(&self, request_id: &str) -> Option<&Transaction>;

    /// True when the transaction is committed.
    fn is_committed(&self, id: &str) -> bool {
        self.get(id).is_some()
    }

    /// The asset id a transaction's shares belong to: CREATE mints a
    /// new asset identified by the CREATE's own id; spends inherit it.
    fn asset_id_of(&self, tx: &Transaction) -> Option<String> {
        match (&tx.operation, &tx.asset) {
            (Operation::Create | Operation::Request, _) => Some(tx.id.clone()),
            (_, AssetRef::Id(id)) => Some(id.clone()),
            (_, AssetRef::WinBid(bid_id)) => {
                let bid = self.get(bid_id)?;
                self.asset_id_of(bid)
            }
            _ => None,
        }
    }

    /// The capability strings of a REQUEST (`getCapsFromRFQ`, Alg. 2).
    fn request_capabilities(&self, request: &Transaction) -> Vec<String> {
        capability_list(match &request.asset {
            AssetRef::Data(data) => data,
            _ => return Vec::new(),
        })
    }

    /// The capability strings of an asset (`getCapsFromAsset`, Alg. 2):
    /// looked up from the CREATE transaction that minted it.
    fn asset_capabilities(&self, asset_id: &str) -> Vec<String> {
        match self.get(asset_id) {
            Some(create) => match &create.asset {
                AssetRef::Data(data) => capability_list(data),
                _ => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// True when the output exists and has not been spent.
    fn is_unspent_output(&self, output: &OutputRef) -> bool {
        self.utxo(output).is_some_and(|u| u.spent_by.is_none())
    }

    /// Verified-set lookup ([`crate::verified`]): the signer set `tx`
    /// already passed schema, id-digest and signature checks against,
    /// if this view's ledger recorded its id and the object in hand
    /// still hashes to it. The default — a view with no set — always
    /// misses, which is the full check.
    fn verified(&self, _tx: &Transaction) -> Option<VerifiedSigners> {
        None
    }

    /// Whether the verified set holds an entry for `id` — membership
    /// only: no id recompute, no hit/miss accounting, and no promise
    /// that [`LedgerView::verified`] will hit (it still binds the
    /// object in hand to the id). The default has no set.
    fn is_verified_id(&self, _id: &str) -> bool {
        false
    }

    /// Records that the transaction with this id passed schema,
    /// id-digest and signature checks against `signers`. Call only
    /// after all three passed. The default discards the record.
    fn record_verified(&self, _id: &str, _signers: VerifiedSigners) {}
}

/// Reads `capabilities` (a string array) out of an asset-data object.
pub(crate) fn capability_list(data: &Value) -> Vec<String> {
    data.get("capabilities")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect()
        })
        .unwrap_or_default()
}
