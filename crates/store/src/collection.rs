//! A single document collection with secondary indexes.

use crate::filter::Filter;
use parking_lot::RwLock;
use scdb_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Errors from collection operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Insert with an `_id` that already exists.
    DuplicateId(String),
    /// Document is not a JSON object.
    NotAnObject,
    /// Update/delete target not found.
    NotFound,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateId(id) => write!(f, "duplicate document id {id:?}"),
            StoreError::NotAnObject => write!(f, "documents must be JSON objects"),
            StoreError::NotFound => write!(f, "no document matches the filter"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The primary-key field every document carries.
pub const ID_FIELD: &str = "_id";

#[derive(Default)]
struct Inner {
    /// Primary storage ordered by `_id` (insertion id or caller id).
    docs: BTreeMap<String, Arc<Value>>,
    /// Secondary hash indexes: path -> (encoded key -> doc ids).
    indexes: HashMap<String, HashMap<String, Vec<String>>>,
    /// Monotonic counter for generated ids.
    next_auto_id: u64,
}

impl Inner {
    /// Visits the documents matching `filter`, with their ids — the one
    /// target selection behind `find`, `update` and `delete`: the
    /// posting list of a secondary index when the filter contains an
    /// equality on an indexed path (re-checked against the whole
    /// filter), a full scan in id order otherwise.
    fn select<'a>(&'a self, filter: &Filter, mut visit: impl FnMut(&'a String, &'a Arc<Value>)) {
        if let Some((path, value)) = filter.index_candidate() {
            if let Some(index) = self.indexes.get(path) {
                for id in index.get(&index_key(value)).into_iter().flatten() {
                    if let Some((id, doc)) = self.docs.get_key_value(id) {
                        if filter.matches(doc) {
                            visit(id, doc);
                        }
                    }
                }
                return;
            }
        }
        for (id, doc) in &self.docs {
            if filter.matches(doc) {
                visit(id, doc);
            }
        }
    }

    /// [`Inner::select`]'s ids, owned: `update` and `delete` mutate the
    /// maps the selection borrows.
    fn select_ids(&self, filter: &Filter) -> Vec<String> {
        let mut ids = Vec::new();
        self.select(filter, |id, _| ids.push(id.clone()));
        ids
    }
}

/// A named collection of JSON documents, safe for concurrent use.
pub struct Collection {
    name: String,
    inner: RwLock<Inner>,
}

impl Collection {
    /// Creates a standalone collection. Most callers get collections
    /// through [`crate::Db::collection`]; direct construction serves
    /// tests and benchmarks.
    pub fn new(name: &str) -> Collection {
        Collection {
            name: name.to_owned(),
            inner: RwLock::new(Inner::default()),
        }
    }

    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inserts a document. If it lacks an `_id` string field, one is
    /// generated. Returns the id.
    pub fn insert(&self, mut doc: Value) -> Result<String, StoreError> {
        if doc.as_object().is_none() {
            return Err(StoreError::NotAnObject);
        }
        let mut inner = self.inner.write();
        let id = match doc.get(ID_FIELD).and_then(Value::as_str) {
            Some(id) => id.to_owned(),
            None => {
                let id = format!("{}:{}", self.name, inner.next_auto_id);
                inner.next_auto_id += 1;
                doc.insert(ID_FIELD, id.clone());
                id
            }
        };
        if inner.docs.contains_key(&id) {
            return Err(StoreError::DuplicateId(id));
        }
        let doc = Arc::new(doc);
        index_doc(&mut inner, &id, &doc, true);
        inner.docs.insert(id.clone(), doc);
        Ok(id)
    }

    /// Fetches a document by primary id.
    pub fn get(&self, id: &str) -> Option<Arc<Value>> {
        self.inner.read().docs.get(id).cloned()
    }

    /// Declares a secondary hash index on a dotted path and backfills it.
    pub fn create_index(&self, path: &str) {
        let mut inner = self.inner.write();
        if inner.indexes.contains_key(path) {
            return;
        }
        let mut entries: HashMap<String, Vec<String>> = HashMap::new();
        for (id, doc) in &inner.docs {
            if let Some(v) = doc.pointer(path) {
                entries.entry(index_key(v)).or_default().push(id.clone());
            }
        }
        inner.indexes.insert(path.to_owned(), entries);
    }

    /// Finds all documents matching a filter. Served from a secondary
    /// index when the filter contains an equality on an indexed path —
    /// the "efficient indexing for database queries" that keeps SCDB
    /// validation latency flat (paper §5.2.1).
    pub fn find(&self, filter: &Filter) -> Vec<Arc<Value>> {
        let inner = self.inner.read();
        let mut found = Vec::new();
        inner.select(filter, |_, doc| found.push(doc.clone()));
        found
    }

    /// First match, if any.
    pub fn find_one(&self, filter: &Filter) -> Option<Arc<Value>> {
        self.find(filter).into_iter().next()
    }

    /// Number of matching documents.
    pub fn count(&self, filter: &Filter) -> usize {
        self.find(filter).len()
    }

    /// Total documents stored.
    pub fn len(&self) -> usize {
        self.inner.read().docs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sets `path = value` on every matching document; returns how many
    /// were updated.
    pub fn update(&self, filter: &Filter, path: &str, value: Value) -> usize {
        let mut inner = self.inner.write();
        let targets = inner.select_ids(filter);
        for id in &targets {
            let Some(old) = inner.docs.get(id).cloned() else {
                continue;
            };
            index_doc(&mut inner, id, &old, false);
            let mut doc = (*old).clone();
            doc.set_path(path, value.clone());
            let doc = Arc::new(doc);
            index_doc(&mut inner, id, &doc, true);
            inner.docs.insert(id.clone(), doc);
        }
        targets.len()
    }

    /// Deletes matching documents; returns how many were removed.
    pub fn delete(&self, filter: &Filter) -> usize {
        let mut inner = self.inner.write();
        let targets = inner.select_ids(filter);
        for id in &targets {
            if let Some(old) = inner.docs.remove(id) {
                index_doc(&mut inner, id, &old, false);
            }
        }
        targets.len()
    }

    /// Snapshot of all documents (ordered by id).
    pub fn scan(&self) -> Vec<Arc<Value>> {
        self.inner.read().docs.values().cloned().collect()
    }
}

/// Encodes a value as an index key; type-tagged so `1` and `"1"` differ.
fn index_key(v: &Value) -> String {
    format!("{}|{}", v.type_name(), v.to_canonical_string())
}

fn index_doc(inner: &mut Inner, id: &str, doc: &Value, add: bool) {
    for (path, index) in inner.indexes.iter_mut() {
        let Some(value) = doc.pointer(path) else {
            continue;
        };
        let slot = index.entry(index_key(value)).or_default();
        if add {
            slot.push(id.to_owned());
        } else {
            slot.retain(|existing| existing != id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_json::{arr, obj};

    fn coll() -> Collection {
        Collection::new("transactions")
    }

    fn tx(id: &str, op: &str, qty: i64) -> Value {
        obj! {
            "_id" => id,
            "operation" => op,
            "asset" => obj! { "data" => obj! { "quantity" => qty } },
        }
    }

    #[test]
    fn insert_and_get() {
        let c = coll();
        c.insert(tx("t1", "CREATE", 1)).unwrap();
        assert_eq!(
            c.get("t1")
                .unwrap()
                .get("operation")
                .and_then(Value::as_str),
            Some("CREATE")
        );
        assert!(c.get("t2").is_none());
    }

    #[test]
    fn duplicate_ids_rejected() {
        let c = coll();
        c.insert(tx("t1", "CREATE", 1)).unwrap();
        assert_eq!(
            c.insert(tx("t1", "CREATE", 1)),
            Err(StoreError::DuplicateId("t1".into()))
        );
    }

    #[test]
    fn auto_ids_are_generated() {
        let c = coll();
        let id1 = c.insert(obj! { "a" => 1 }).unwrap();
        let id2 = c.insert(obj! { "a" => 2 }).unwrap();
        assert_ne!(id1, id2);
        assert!(c.get(&id1).is_some());
    }

    #[test]
    fn non_objects_rejected() {
        let c = coll();
        assert_eq!(c.insert(Value::from(1i64)), Err(StoreError::NotAnObject));
    }

    #[test]
    fn find_with_filters() {
        let c = coll();
        for i in 0..10 {
            let op = if i % 2 == 0 { "CREATE" } else { "BID" };
            c.insert(tx(&format!("t{i}"), op, i)).unwrap();
        }
        assert_eq!(c.count(&Filter::eq("operation", "BID")), 5);
        assert_eq!(
            c.count(&Filter::and([
                Filter::eq("operation", "CREATE"),
                Filter::Gte("asset.data.quantity".into(), Value::from(6i64)),
            ])),
            2
        );
        assert_eq!(c.count(&Filter::All), 10);
    }

    #[test]
    fn index_serves_equality_queries() {
        let c = coll();
        for i in 0..100 {
            let op = if i % 10 == 0 { "REQUEST" } else { "CREATE" };
            c.insert(tx(&format!("t{i:03}"), op, i)).unwrap();
        }
        c.create_index("operation");
        let requests = c.find(&Filter::eq("operation", "REQUEST"));
        assert_eq!(requests.len(), 10);
        // Index stays correct across later inserts.
        c.insert(tx("t200", "REQUEST", 200)).unwrap();
        assert_eq!(c.count(&Filter::eq("operation", "REQUEST")), 11);
        // Equality on unindexed value via index returns nothing quickly.
        assert_eq!(c.count(&Filter::eq("operation", "NOPE")), 0);
    }

    #[test]
    fn index_distinguishes_types() {
        let c = coll();
        c.insert(obj! { "_id" => "a", "v" => 1 }).unwrap();
        c.insert(obj! { "_id" => "b", "v" => "1" }).unwrap();
        c.create_index("v");
        assert_eq!(c.count(&Filter::eq("v", 1i64)), 1);
        assert_eq!(c.count(&Filter::eq("v", "1")), 1);
    }

    #[test]
    fn update_rewrites_and_reindexes() {
        let c = coll();
        c.insert(tx("t1", "REQUEST", 1)).unwrap();
        c.create_index("status");
        let n = c.update(&Filter::eq("_id", "t1"), "status", Value::from("closed"));
        assert_eq!(n, 1);
        assert_eq!(c.count(&Filter::eq("status", "closed")), 1);
        let n = c.update(&Filter::eq("_id", "t1"), "status", Value::from("open"));
        assert_eq!(n, 1);
        assert_eq!(c.count(&Filter::eq("status", "closed")), 0);
        assert_eq!(c.count(&Filter::eq("status", "open")), 1);
    }

    #[test]
    fn delete_removes_from_index() {
        let c = coll();
        c.create_index("operation");
        c.insert(tx("t1", "BID", 1)).unwrap();
        c.insert(tx("t2", "BID", 2)).unwrap();
        assert_eq!(c.delete(&Filter::eq("_id", "t1")), 1);
        assert_eq!(c.count(&Filter::eq("operation", "BID")), 1);
        assert_eq!(c.len(), 1);
    }

    /// `update` and `delete` pick their targets the way `find` does:
    /// with or without an index on the filter's equality path they
    /// touch the same documents and leave every index consistent.
    #[test]
    fn indexed_and_unindexed_update_delete_agree() {
        let build = |indexed: bool| {
            let c = coll();
            if indexed {
                c.create_index("operation");
                c.create_index("status");
            }
            for i in 0..30 {
                let op = ["CREATE", "BID", "REQUEST"][i % 3];
                c.insert(tx(&format!("t{i:02}"), op, i as i64)).unwrap();
            }
            if !indexed {
                // Unindexed on the selection path only: `status` keeps
                // an index so reindexing is checked on both sides.
                c.create_index("status");
            }
            c
        };
        let (indexed, scanned) = (build(true), build(false));
        let bids_over_ten = Filter::and([
            Filter::Gte("asset.data.quantity".into(), Value::from(10i64)),
            Filter::eq("operation", "BID"),
        ]);
        let ids = |c: &Collection, f: &Filter| {
            let mut ids: Vec<String> = c
                .find(f)
                .iter()
                .map(|d| d.get("_id").and_then(Value::as_str).unwrap().to_owned())
                .collect();
            ids.sort();
            ids
        };
        for c in [&indexed, &scanned] {
            assert_eq!(c.update(&bids_over_ten, "status", Value::from("won")), 7);
            assert_eq!(
                c.update(&Filter::eq("operation", "NOPE"), "status", 1i64.into()),
                0
            );
            assert_eq!(c.delete(&Filter::eq("operation", "REQUEST")), 10);
            assert_eq!(c.delete(&Filter::eq("operation", "REQUEST")), 0);
            assert_eq!(c.len(), 20);
        }
        for filter in [
            Filter::eq("status", "won"),
            Filter::eq("operation", "BID"),
            Filter::eq("operation", "REQUEST"),
            bids_over_ten,
            Filter::All,
        ] {
            assert_eq!(ids(&indexed, &filter), ids(&scanned, &filter), "{filter:?}");
        }
        // Every index answers what a scan of the documents answers.
        let all = indexed.scan();
        for (path, value) in [
            ("status", "won"),
            ("operation", "BID"),
            ("operation", "CREATE"),
        ] {
            let scan = all
                .iter()
                .filter(|d| d.pointer(path).and_then(Value::as_str) == Some(value))
                .count();
            assert_eq!(
                indexed.count(&Filter::eq(path, value)),
                scan,
                "{path}={value}"
            );
        }
        assert_eq!(indexed.count(&Filter::eq("status", "won")), 7);
    }

    #[test]
    fn scan_is_ordered_by_id() {
        let c = coll();
        c.insert(tx("b", "CREATE", 1)).unwrap();
        c.insert(tx("a", "CREATE", 1)).unwrap();
        let ids: Vec<String> = c
            .scan()
            .iter()
            .map(|d| d.get("_id").and_then(Value::as_str).unwrap().to_owned())
            .collect();
        assert_eq!(ids, vec!["a", "b"]);
    }

    #[test]
    fn contains_queries_on_capability_arrays() {
        let c = coll();
        c.insert(obj! {
            "_id" => "r1",
            "operation" => "REQUEST",
            "asset" => obj! { "data" => obj! { "capabilities" => arr!["3d-print", "cnc"] } },
        })
        .unwrap();
        c.insert(obj! {
            "_id" => "r2",
            "operation" => "REQUEST",
            "asset" => obj! { "data" => obj! { "capabilities" => arr!["welding"] } },
        })
        .unwrap();
        let hits = c.find(&Filter::Contains(
            "asset.data.capabilities".into(),
            "3d-print".into(),
        ));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get("_id").and_then(Value::as_str), Some("r1"));
    }
}
