//! Shared by the durable-store and settlement-stage tests: a scratch
//! directory, and a node's whole nested-transaction state as one
//! comparable value.

use smartchaindb::json::Value;
use smartchaindb::store::collections;
use smartchaindb::{NestedStatus, NestedTracker, Node};
use std::path::PathBuf;

/// A self-cleaning scratch directory for one test.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("scdb-durable-it-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything a node keeps about nested settlement, outside the ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct NestedState {
    /// Per accept, in the caller's order: tracker status and the
    /// outstanding child ids, sorted.
    pub tracker: Vec<(Option<NestedStatus>, Vec<String>)>,
    /// The return queue front to back, as `(parent id, child id)`.
    pub queue: Vec<(String, String)>,
    /// The `accept_tx_recovery` collection as `(parent, children,
    /// status)`, sorted by parent.
    pub recovery: Vec<(String, Vec<String>, String)>,
}

/// A tracker's view of `accepts`: status and sorted outstanding ids.
pub fn tracker_state(
    tracker: &NestedTracker,
    accepts: &[String],
) -> Vec<(Option<NestedStatus>, Vec<String>)> {
    accepts
        .iter()
        .map(|accept| {
            let mut outstanding = tracker.outstanding_children(accept);
            outstanding.sort_unstable();
            (tracker.status(accept), outstanding)
        })
        .collect()
}

/// Reads `node`'s nested state. The queue is drained to be read and put
/// back in the same order.
pub fn nested_state(node: &Node, accepts: &[String]) -> NestedState {
    let jobs = node.queue().drain(usize::MAX);
    let queue = jobs
        .iter()
        .map(|job| (job.parent_id.clone(), job.child.id.clone()))
        .collect();
    for job in jobs {
        node.queue().enqueue(&job.parent_id, job.child);
    }
    let text = |doc: &Value, field: &str| {
        doc.get(field)
            .and_then(Value::as_str)
            .expect("recovery documents carry strings")
            .to_owned()
    };
    let mut recovery: Vec<(String, Vec<String>, String)> = node
        .db()
        .collection(collections::ACCEPT_TX_RECOVERY)
        .scan()
        .iter()
        .map(|doc| {
            let children = doc
                .get("children")
                .and_then(Value::as_array)
                .expect("recovery documents list their children")
                .iter()
                .map(|id| id.as_str().expect("child ids are strings").to_owned())
                .collect();
            (text(doc, "parent"), children, text(doc, "status"))
        })
        .collect();
    recovery.sort();
    NestedState {
        tracker: tracker_state(node.tracker(), accepts),
        queue,
        recovery,
    }
}
