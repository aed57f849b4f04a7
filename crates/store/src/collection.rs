//! A single document collection with secondary indexes.

use crate::filter::Filter;
use parking_lot::RwLock;
use scdb_json::{write_json_string, Number, Value};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write as _};
use std::sync::Arc;

/// Errors from collection operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Insert with an `_id` that already exists.
    DuplicateId(String),
    /// Document is not a JSON object.
    NotAnObject,
    /// Every one of the collection's 2^32 slots has been used.
    Full,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::DuplicateId(id) => write!(f, "duplicate document id {id:?}"),
            StoreError::NotAnObject => write!(f, "documents must be JSON objects"),
            StoreError::Full => write!(f, "the collection has used all its slots"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The primary-key field every document carries.
pub const ID_FIELD: &str = "_id";

#[derive(Default)]
struct Inner {
    /// One slot per inserted document, in insertion order. A delete
    /// empties its slot; slots are never reused, so a slot number names
    /// one document for the collection's lifetime.
    slots: Vec<Option<Arc<Value>>>,
    /// `_id` -> slot: `get` and full scans go in id order.
    ids: BTreeMap<String, u32>,
    /// Secondary hash indexes: path -> (key -> ascending slots).
    indexes: HashMap<String, Postings>,
    /// Monotonic counter for generated ids.
    next_auto_id: u64,
}

/// One secondary index: a document's [`index_key`] at the indexed path
/// -> the slots holding it, ascending. A key with no slots is dropped.
type Postings = HashMap<String, Vec<u32>>;

impl Inner {
    /// Visits the slots and documents matching `filter` — the one target
    /// selection behind `find`, `count`, `update` and `delete`.
    ///
    /// The planner: every `Eq` conjunct on an indexed path is a
    /// candidate, and the one with the shortest posting list serves the
    /// query, in slot (insertion) order. Keys are exact, so the serving
    /// conjunct holds on every slot of its list; the other conjuncts are
    /// re-checked on each visited document. Without a candidate the
    /// whole filter is checked on every document, in id order.
    fn select<'a>(&'a self, filter: &Filter, mut visit: impl FnMut(u32, &'a Arc<Value>)) {
        let conjuncts = filter.conjuncts();
        let Some((serving, list)) = self.plan(&conjuncts) else {
            for &slot in self.ids.values() {
                if let Some(doc) = self.doc(slot) {
                    if filter.matches(doc) {
                        visit(slot, doc);
                    }
                }
            }
            return;
        };
        for &slot in list {
            if let Some(doc) = self.doc(slot) {
                let rest_hold = conjuncts
                    .iter()
                    .enumerate()
                    .all(|(at, conjunct)| at == serving || conjunct.matches(doc));
                if rest_hold {
                    visit(slot, doc);
                }
            }
        }
    }

    /// The serving conjunct's position in `conjuncts` and its posting
    /// list: the shortest list of any `Eq` on an indexed path. A value
    /// no document holds has an empty list, which always wins.
    fn plan(&self, conjuncts: &[&Filter]) -> Option<(usize, &[u32])> {
        let mut best: Option<(usize, &[u32])> = None;
        for (at, conjunct) in conjuncts.iter().enumerate() {
            let Filter::Eq(path, value) = conjunct else {
                continue;
            };
            let Some(postings) = self.indexes.get(path) else {
                continue;
            };
            let list = index_key(value)
                .and_then(|key| postings.get(&key))
                .map_or(&[][..], Vec::as_slice);
            if best.is_none_or(|(_, shortest)| list.len() < shortest.len()) {
                best = Some((at, list));
            }
        }
        best
    }

    /// [`Inner::select`]'s slots: `update` and `delete` mutate what the
    /// selection borrows.
    fn select_slots(&self, filter: &Filter) -> Vec<u32> {
        let mut slots = Vec::new();
        self.select(filter, |slot, _| slots.push(slot));
        slots
    }

    fn doc(&self, slot: u32) -> Option<&Arc<Value>> {
        self.slots.get(slot as usize)?.as_ref()
    }

    /// Adds `slot` to every index under `doc`'s keys.
    fn index(&mut self, slot: u32, doc: &Value) {
        for (path, postings) in &mut self.indexes {
            if let Some(key) = doc.pointer(path).and_then(index_key) {
                let list = postings.entry(key).or_default();
                if let Err(at) = list.binary_search(&slot) {
                    list.insert(at, slot);
                }
            }
        }
    }

    /// Removes `slot` from every index under `doc`'s keys.
    fn unindex(&mut self, slot: u32, doc: &Value) {
        for (path, postings) in &mut self.indexes {
            let Some(key) = doc.pointer(path).and_then(index_key) else {
                continue;
            };
            if let Some(list) = postings.get_mut(&key) {
                if let Ok(at) = list.binary_search(&slot) {
                    list.remove(at);
                }
                if list.is_empty() {
                    postings.remove(&key);
                }
            }
        }
    }
}

/// A named collection of JSON documents, safe for concurrent use.
///
/// Each document lives in a slot numbered in insertion order; `get` and
/// full scans go through the id map in id order, and each secondary
/// index maps a value's key to the ascending slots holding it. Two
/// values share a key exactly when they are equal, so `1` and `1.0`
/// share one and `1` and `"1"` do not. The order rule: a query an index
/// serves returns its documents in slot (insertion) order, any other
/// query returns them in id order. An `update` keeps a document's slot,
/// so it keeps its place in both.
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

    /// Inserts a document into the next slot. If it lacks an `_id`
    /// string field, one is generated. Returns the id.
    pub fn insert(&self, mut doc: Value) -> Result<String, StoreError> {
        if doc.as_object().is_none() {
            return Err(StoreError::NotAnObject);
        }
        let mut inner = self.inner.write();
        let slot = u32::try_from(inner.slots.len()).map_err(|_| StoreError::Full)?;
        let id = match doc.get(ID_FIELD).and_then(Value::as_str) {
            Some(id) => id.to_owned(),
            None => {
                let id = format!("{}:{}", self.name, inner.next_auto_id);
                inner.next_auto_id += 1;
                doc.insert(ID_FIELD, id.clone());
                id
            }
        };
        match inner.ids.entry(id.clone()) {
            Entry::Occupied(_) => return Err(StoreError::DuplicateId(id)),
            Entry::Vacant(entry) => entry.insert(slot),
        };
        inner.index(slot, &doc);
        inner.slots.push(Some(Arc::new(doc)));
        Ok(id)
    }

    /// Fetches a document by primary id.
    pub fn get(&self, id: &str) -> Option<Arc<Value>> {
        let inner = self.inner.read();
        inner.doc(*inner.ids.get(id)?).cloned()
    }

    /// Declares a secondary hash index on a dotted path and backfills
    /// it. An `Eq` on the path can then serve a query from the index;
    /// two values share a posting list exactly when they are equal
    /// (see [`Collection::find`]).
    pub fn create_index(&self, path: &str) {
        let mut inner = self.inner.write();
        if inner.indexes.contains_key(path) {
            return;
        }
        let mut postings = Postings::new();
        for (slot, doc) in (0u32..).zip(&inner.slots) {
            if let Some(key) = doc
                .as_deref()
                .and_then(|d| d.pointer(path))
                .and_then(index_key)
            {
                postings.entry(key).or_default().push(slot);
            }
        }
        inner.indexes.insert(path.to_owned(), postings);
    }

    /// Finds all documents matching a filter — the "efficient indexing
    /// for database queries" that keeps SCDB validation latency flat
    /// (paper §5.2.1). Of the filter's top-level `Eq` conjuncts on
    /// indexed paths, the one with the fewest postings serves the query
    /// and the other conjuncts are checked on each document it visits;
    /// the documents come back in insertion order. A filter without
    /// such a conjunct scans every document in id order. `Contains`,
    /// ranges, `Or` and `Not` are never served from an index.
    pub fn find(&self, filter: &Filter) -> Vec<Arc<Value>> {
        let inner = self.inner.read();
        let mut found = Vec::new();
        inner.select(filter, |_, doc| found.push(Arc::clone(doc)));
        found
    }

    /// First match, if any.
    pub fn find_one(&self, filter: &Filter) -> Option<Arc<Value>> {
        self.find(filter).into_iter().next()
    }

    /// Number of matching documents.
    pub fn count(&self, filter: &Filter) -> usize {
        let mut n = 0;
        self.inner.read().select(filter, |_, _| n += 1);
        n
    }

    /// Total documents stored.
    pub fn len(&self) -> usize {
        self.inner.read().ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sets `path = value` on every matching document; returns how many
    /// were updated. A document keeps its slot, and so its place in
    /// every query's order.
    ///
    /// A document's `_id` is its key and never changes: an update whose
    /// path starts with the `_id` segment changes nothing and returns 0
    /// (delete and re-insert to re-key a document).
    pub fn update(&self, filter: &Filter, path: &str, value: Value) -> usize {
        if path.split('.').next() == Some(ID_FIELD) {
            return 0;
        }
        let mut inner = self.inner.write();
        let targets = inner.select_slots(filter);
        for &slot in &targets {
            let Some(old) = inner.doc(slot).cloned() else {
                continue;
            };
            let mut doc = (*old).clone();
            doc.set_path(path, value.clone());
            inner.unindex(slot, &old);
            inner.index(slot, &doc);
            if let Some(entry) = inner.slots.get_mut(slot as usize) {
                *entry = Some(Arc::new(doc));
            }
        }
        targets.len()
    }

    /// Deletes matching documents; returns how many were removed. Their
    /// slots stay empty.
    pub fn delete(&self, filter: &Filter) -> usize {
        let mut inner = self.inner.write();
        let mut targets = inner.select_slots(filter);
        if targets.is_empty() {
            return 0;
        }
        targets.sort_unstable();
        for &slot in &targets {
            if let Some(old) = inner.slots.get_mut(slot as usize).and_then(Option::take) {
                inner.unindex(slot, &old);
            }
        }
        inner
            .ids
            .retain(|_, slot| targets.binary_search(slot).is_err());
        targets.len()
    }

    /// Snapshot of all documents (ordered by id).
    pub fn scan(&self) -> Vec<Arc<Value>> {
        let inner = self.inner.read();
        inner
            .ids
            .values()
            .filter_map(|&slot| inner.doc(slot).cloned())
            .collect()
    }
}

/// A value's index key. The key rule: two values share a key exactly
/// when `Value`'s `==` equates them. The key is the value's compact
/// JSON with every number written by its value — an integral float as
/// the integer it is, so `1`, `1.0` and an unsigned `1` share a key and
/// `-0.0` keys as `0` — element by element through arrays and objects.
/// A string is quoted, so it never shares a key with a number. A value
/// holding a NaN equals nothing and has no key.
fn index_key(v: &Value) -> Option<String> {
    let mut key = String::new();
    write_key(v, &mut key).then_some(key)
}

/// Appends `v`'s key to `out`; `false` when `v` holds a NaN.
fn write_key(v: &Value, out: &mut String) -> bool {
    match v {
        Value::Number(n) => write_number_key(*n, out),
        Value::Array(items) => {
            out.push('[');
            for (at, item) in items.iter().enumerate() {
                if at > 0 {
                    out.push(',');
                }
                if !write_key(item, out) {
                    return false;
                }
            }
            out.push(']');
            true
        }
        Value::Object(map) => {
            out.push('{');
            for (at, (name, item)) in map.iter().enumerate() {
                if at > 0 {
                    out.push(',');
                }
                write_json_string(name, out);
                out.push(':');
                if !write_key(item, out) {
                    return false;
                }
            }
            out.push('}');
            true
        }
        Value::Null | Value::Bool(_) | Value::String(_) => {
            v.write_compact(out);
            true
        }
    }
}

/// Integers in decimal; an integral float as the exact integer it is
/// (`{:.0}` prints every digit); any other float in its shortest
/// round-trip form, which carries a `.` and so never meets an integer.
fn write_number_key(n: Number, out: &mut String) -> bool {
    // Writing to a `String` cannot fail.
    let _ = match n {
        Number::Int(i) => write!(out, "{i}"),
        Number::UInt(u) => write!(out, "{u}"),
        Number::Float(f) if f.is_nan() => return false,
        // The pattern compares by `==`, so `-0.0` takes this arm too.
        Number::Float(0.0) => write!(out, "0"),
        Number::Float(f) if f.fract() == 0.0 => write!(out, "{f:.0}"),
        Number::Float(f) => write!(out, "{f}"),
    };
    true
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

    /// The key rule: an index equates exactly what `Value`'s `==`
    /// equates, so an indexed query answers what a scan answers — `1`,
    /// `1.0` and an unsigned `1` meet, `-0.0` meets `0`, arrays meet
    /// element by element, and a string never meets a number.
    #[test]
    fn index_keys_numbers_the_way_equality_compares_them() {
        let values = [
            Value::from(1.0),
            Value::from(1i64),
            Value::Number(Number::UInt(1)),
            Value::from("1"),
            Value::from(-0.0),
            Value::from(0i64),
            Value::from(1.5),
            Value::from(9_007_199_254_740_992.0),
            Value::from(9_007_199_254_740_993i64),
            Value::from(u64::MAX),
            Value::from(18_446_744_073_709_551_616.0),
            arr![1.0, 2],
            arr![1, 2.0],
            obj! { "n" => 3.0 },
            obj! { "n" => 3 },
            Value::Number(Number::Float(f64::NAN)),
        ];
        let (indexed, scanned) = (coll(), coll());
        indexed.create_index("q");
        for (n, q) in values.iter().enumerate() {
            for c in [&indexed, &scanned] {
                c.insert(obj! { "_id" => format!("d{n:02}"), "q" => q.clone() })
                    .unwrap();
            }
        }
        assert_eq!(indexed.count(&Filter::eq("q", 1i64)), 3);
        assert_eq!(indexed.count(&Filter::eq("q", 0.0)), 2);
        for q in &values {
            let f = Filter::Eq("q".into(), q.clone());
            assert_eq!(indexed.find(&f), scanned.find(&f), "{q:?}");
        }
    }

    /// Of two indexed equalities, the one with the shorter posting list
    /// serves the query, wherever it stands in the conjunction.
    #[test]
    fn planner_serves_the_shortest_posting_list() {
        let c = coll();
        c.create_index("operation");
        c.create_index("references.0");
        for i in 0..40 {
            c.insert(obj! {
                "_id" => format!("b{i:02}"),
                "operation" => "BID",
                "references" => arr![format!("r{}", i % 20)],
            })
            .unwrap();
        }
        let bid = Filter::eq("operation", "BID");
        let on_r3 = Filter::eq("references.0", "r3");
        let inner = c.inner.read();
        for (f, serving, len) in [
            (Filter::and([bid.clone(), on_r3.clone()]), 1, 2),
            (Filter::and([on_r3.clone(), bid.clone()]), 0, 2),
            (
                Filter::and([bid.clone(), Filter::eq("references.0", "r99")]),
                1,
                0,
            ),
            (bid.clone(), 0, 40),
        ] {
            let conjuncts = f.conjuncts();
            let (at, list) = inner.plan(&conjuncts).unwrap();
            assert_eq!((at, list.len()), (serving, len), "{f:?}");
        }
        assert!(inner.plan(&[&Filter::eq("unindexed", "x")]).is_none());
        assert!(inner
            .plan(&[&Filter::Contains("references".into(), "r3".into())])
            .is_none());
        drop(inner);
        assert_eq!(c.count(&Filter::and([bid, on_r3])), 2);
    }

    /// The order rule: an index-served query returns insertion order, a
    /// scan id order, and an update keeps a document's place in both.
    #[test]
    fn index_order_is_insertion_order_and_updates_keep_it() {
        let c = coll();
        c.create_index("operation");
        for id in ["c", "a", "b"] {
            c.insert(tx(id, "BID", 1)).unwrap();
        }
        let ids = |docs: Vec<Arc<Value>>| -> Vec<String> {
            docs.iter()
                .map(|d| d.get("_id").and_then(Value::as_str).unwrap().to_owned())
                .collect()
        };
        let bids = Filter::eq("operation", "BID");
        assert_eq!(ids(c.find(&bids)), ["c", "a", "b"]);
        assert_eq!(ids(c.find(&Filter::All)), ["a", "b", "c"]);
        c.update(&Filter::eq("_id", "c"), "operation", Value::from("ASK"));
        c.update(&Filter::eq("_id", "c"), "operation", Value::from("BID"));
        assert_eq!(ids(c.find(&bids)), ["c", "a", "b"]);
        assert_eq!(
            c.find_one(&bids).unwrap().get("_id"),
            Some(&Value::from("c"))
        );
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
    fn update_never_rewrites_the_id() {
        let c = coll();
        c.insert(obj! { "_id" => "a", "v" => 1 }).unwrap();
        assert_eq!(c.update(&Filter::eq("v", 1), "_id", Value::from("b")), 0);
        assert_eq!(c.update(&Filter::eq("v", 1), "_id.x", Value::from("b")), 0);
        let doc = c.get("a").expect("still keyed by its id");
        assert_eq!(doc.get("_id").and_then(Value::as_str), Some("a"));
        assert!(c.get("b").is_none());
        // The id stays taken: no second `_id: a` can be inserted.
        assert!(c.insert(obj! { "_id" => "a", "v" => 2 }).is_err());
        assert_eq!(c.len(), 1);
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
