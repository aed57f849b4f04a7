//! The database: a set of named collections, mirroring the MongoDB
//! deployment inside each BigchainDB/SmartchainDB node.

use crate::collection::Collection;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Collection names used by a SmartchainDB node. `accept_tx_recovery` is
/// the collection the paper introduces for nested-transaction recovery
/// (§4.2: "a new collection named accept_tx_recovery was introduced in
/// the MongoDB database model").
pub mod collections {
    pub const TRANSACTIONS: &str = "transactions";
    pub const ASSETS: &str = "assets";
    pub const METADATA: &str = "metadata";
    pub const BLOCKS: &str = "blocks";
    pub const UTXOS: &str = "utxos";
    pub const ACCEPT_TX_RECOVERY: &str = "accept_tx_recovery";
}

/// A named-collection database, safe for concurrent use.
#[derive(Default)]
pub struct Db {
    colls: RwLock<BTreeMap<String, Arc<Collection>>>,
}

impl Db {
    /// An empty database.
    pub fn new() -> Db {
        Db::default()
    }

    /// A database pre-provisioned with the SmartchainDB collections and
    /// the indexes the validation algorithms query through (operation
    /// dispatch, reference lookups, recovery status scans).
    pub fn smartchaindb() -> Db {
        let db = Db::new();
        for name in [
            collections::TRANSACTIONS,
            collections::ASSETS,
            collections::METADATA,
            collections::BLOCKS,
            collections::UTXOS,
            collections::ACCEPT_TX_RECOVERY,
        ] {
            db.collection(name);
        }
        let txs = db.collection(collections::TRANSACTIONS);
        txs.create_index("operation");
        txs.create_index("asset.id");
        // getLockedBids / getAcceptTxForRFQ query by referenced REQUEST id.
        txs.create_index("references.0");
        let utxos = db.collection(collections::UTXOS);
        utxos.create_index("owner");
        utxos.create_index("spent");
        let recovery = db.collection(collections::ACCEPT_TX_RECOVERY);
        recovery.create_index("status");
        // A completed parent's status update finds its document by id,
        // not by scanning every accept ever committed.
        recovery.create_index("parent");
        db
    }

    /// Gets (creating on first use) a collection by name.
    pub fn collection(&self, name: &str) -> Arc<Collection> {
        if let Some(c) = self.colls.read().get(name) {
            return c.clone();
        }
        let mut write = self.colls.write();
        write
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(Collection::new(name)))
            .clone()
    }

    /// Names of all existing collections.
    pub fn collection_names(&self) -> Vec<String> {
        self.colls.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use scdb_json::obj;

    #[test]
    fn collections_are_created_on_demand_and_shared() {
        let db = Db::new();
        let a = db.collection("x");
        let b = db.collection("x");
        a.insert(obj! { "k" => 1 }).unwrap();
        assert_eq!(b.len(), 1, "same underlying collection");
        assert_eq!(db.collection_names(), vec!["x"]);
    }

    #[test]
    fn smartchaindb_layout_provisioned() {
        let db = Db::smartchaindb();
        let names = db.collection_names();
        for expected in [
            "accept_tx_recovery",
            "assets",
            "blocks",
            "metadata",
            "transactions",
            "utxos",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn indexed_operation_queries_work_from_fresh_db() {
        let db = Db::smartchaindb();
        let txs = db.collection(collections::TRANSACTIONS);
        txs.insert(obj! { "_id" => "t1", "operation" => "REQUEST" })
            .unwrap();
        txs.insert(obj! { "_id" => "t2", "operation" => "BID" })
            .unwrap();
        assert_eq!(txs.count(&Filter::eq("operation", "BID")), 1);
    }
}
