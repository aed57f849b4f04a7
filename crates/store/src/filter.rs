//! MongoDB-style declarative filters over JSON documents.
//!
//! The paper's queryability argument (§2.1) is that declarative
//! transactions keep metadata "queryable on the blockchain" — e.g.
//! *"finding open service requests for 3-D printing manufacturing
//! capabilities"*. Filters address nested fields with dotted paths and
//! compose with boolean operators.

use scdb_json::Value;

/// A declarative predicate over a document.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// Field equals a value (`{path: value}`).
    Eq(String, Value),
    /// Field differs from a value (missing fields match).
    Ne(String, Value),
    /// Field is numerically/lexically greater than the value.
    Gt(String, Value),
    /// Field is greater than or equal to the value.
    Gte(String, Value),
    /// Field is less than the value.
    Lt(String, Value),
    /// Field is less than or equal to the value.
    Lte(String, Value),
    /// Field equals one of the listed values (`$in`).
    In(String, Vec<Value>),
    /// Field is an array containing the value (`$elemMatch` on equality).
    Contains(String, Value),
    /// Field is an array containing *all* listed values — the capability
    /// subset check of Algorithm 2 (`RequestedCaps ⊆ AssetCaps`)
    /// expressed as a query.
    ContainsAll(String, Vec<Value>),
    /// Field exists (`$exists: true`).
    Exists(String),
    /// All sub-filters match (`$and`).
    And(Vec<Filter>),
    /// Any sub-filter matches (`$or`).
    Or(Vec<Filter>),
    /// Sub-filter does not match (`$not`).
    Not(Box<Filter>),
    /// Matches every document.
    All,
}

impl Filter {
    /// Evaluates the filter against a document.
    pub fn matches(&self, doc: &Value) -> bool {
        match self {
            Filter::Eq(path, v) => doc.pointer(path) == Some(v),
            Filter::Ne(path, v) => doc.pointer(path) != Some(v),
            Filter::Gt(path, v) => {
                cmp(doc, path, v).is_some_and(|o| o == std::cmp::Ordering::Greater)
            }
            Filter::Gte(path, v) => {
                cmp(doc, path, v).is_some_and(|o| o != std::cmp::Ordering::Less)
            }
            Filter::Lt(path, v) => cmp(doc, path, v).is_some_and(|o| o == std::cmp::Ordering::Less),
            Filter::Lte(path, v) => {
                cmp(doc, path, v).is_some_and(|o| o != std::cmp::Ordering::Greater)
            }
            Filter::In(path, vs) => doc.pointer(path).is_some_and(|f| vs.contains(f)),
            Filter::Contains(path, v) => doc
                .pointer(path)
                .and_then(Value::as_array)
                .is_some_and(|a| a.contains(v)),
            Filter::ContainsAll(path, vs) => doc
                .pointer(path)
                .and_then(Value::as_array)
                .is_some_and(|a| vs.iter().all(|v| a.contains(v))),
            Filter::Exists(path) => doc.pointer(path).is_some(),
            Filter::And(fs) => fs.iter().all(|f| f.matches(doc)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(doc)),
            Filter::Not(f) => !f.matches(doc),
            Filter::All => true,
        }
    }

    /// The conjuncts the collection's planner weighs: the members of a
    /// top-level `And` (nested `And`s flattened), or the filter itself.
    /// Each `Eq` among them on an indexed path can serve the query.
    pub(crate) fn conjuncts(&self) -> Vec<&Filter> {
        fn push<'a>(filter: &'a Filter, out: &mut Vec<&'a Filter>) {
            match filter {
                Filter::And(fs) => fs.iter().for_each(|f| push(f, out)),
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        push(self, &mut out);
        out
    }

    /// Convenience constructor: equality on a dotted path.
    pub fn eq(path: impl Into<String>, value: impl Into<Value>) -> Filter {
        Filter::Eq(path.into(), value.into())
    }

    /// Convenience constructor: conjunction.
    pub fn and(filters: impl IntoIterator<Item = Filter>) -> Filter {
        Filter::And(filters.into_iter().collect())
    }
}

/// Orders two values when comparable (numbers with numbers, strings with
/// strings); mixed types are incomparable, matching MongoDB's practical
/// use here.
fn cmp(doc: &Value, path: &str, v: &Value) -> Option<std::cmp::Ordering> {
    let field = doc.pointer(path)?;
    match (field, v) {
        (Value::Number(a), Value::Number(b)) => a.partial_cmp(b),
        (Value::String(a), Value::String(b)) => Some(a.cmp(b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_json::{arr, obj};

    fn request_doc() -> Value {
        obj! {
            "id" => "6ae47",
            "operation" => "REQUEST",
            "status" => "open",
            "asset" => obj! {
                "data" => obj! {
                    "capabilities" => arr!["3d-print", "cnc", "iso-9001"],
                    "quantity" => 50,
                },
            },
        }
    }

    #[test]
    fn equality_on_nested_paths() {
        let doc = request_doc();
        assert!(Filter::eq("operation", "REQUEST").matches(&doc));
        assert!(Filter::eq("asset.data.quantity", 50i64).matches(&doc));
        assert!(!Filter::eq("asset.data.quantity", 51i64).matches(&doc));
        assert!(!Filter::eq("missing.path", 1i64).matches(&doc));
    }

    #[test]
    fn ordering_comparisons() {
        let doc = request_doc();
        assert!(Filter::Gt("asset.data.quantity".into(), Value::from(49i64)).matches(&doc));
        assert!(Filter::Gte("asset.data.quantity".into(), Value::from(50i64)).matches(&doc));
        assert!(Filter::Lt("asset.data.quantity".into(), Value::from(51i64)).matches(&doc));
        assert!(!Filter::Lt("asset.data.quantity".into(), Value::from(50i64)).matches(&doc));
        // Strings compare lexically.
        assert!(Filter::Gt("status".into(), Value::from("ooen")).matches(&doc));
        // Mixed types are incomparable.
        assert!(!Filter::Gt("status".into(), Value::from(1i64)).matches(&doc));
    }

    #[test]
    fn membership_and_containment() {
        let doc = request_doc();
        assert!(Filter::In("status".into(), vec!["open".into(), "closed".into()]).matches(&doc));
        assert!(Filter::Contains("asset.data.capabilities".into(), "cnc".into()).matches(&doc));
        assert!(
            !Filter::Contains("asset.data.capabilities".into(), "welding".into()).matches(&doc)
        );
    }

    #[test]
    fn contains_all_models_capability_subset() {
        let doc = request_doc();
        // The 3-D printing provider query from the paper's motivation.
        let wanted = Filter::ContainsAll(
            "asset.data.capabilities".into(),
            vec!["3d-print".into(), "iso-9001".into()],
        );
        assert!(wanted.matches(&doc));
        let too_much = Filter::ContainsAll(
            "asset.data.capabilities".into(),
            vec!["3d-print".into(), "welding".into()],
        );
        assert!(!too_much.matches(&doc));
    }

    #[test]
    fn boolean_composition() {
        let doc = request_doc();
        let open_3dp = Filter::and([
            Filter::eq("operation", "REQUEST"),
            Filter::eq("status", "open"),
            Filter::Contains("asset.data.capabilities".into(), "3d-print".into()),
        ]);
        assert!(open_3dp.matches(&doc));
        assert!(Filter::Not(Box::new(Filter::eq("status", "closed"))).matches(&doc));
        assert!(Filter::Or(vec![Filter::eq("status", "closed"), Filter::All]).matches(&doc));
    }

    #[test]
    fn exists_and_ne_semantics() {
        let doc = request_doc();
        assert!(Filter::Exists("asset.data".into()).matches(&doc));
        assert!(!Filter::Exists("asset.nope".into()).matches(&doc));
        // Ne matches when the field is missing (MongoDB semantics).
        assert!(Filter::Ne("asset.nope".into(), Value::from(1i64)).matches(&doc));
    }

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let bid = Filter::eq("operation", "BID");
        let gt = Filter::Gt("n".into(), Value::from(1i64));
        let f = Filter::and([gt.clone(), Filter::and([bid.clone(), Filter::All])]);
        assert_eq!(f.conjuncts(), vec![&gt, &bid, &Filter::All]);
        let or = Filter::Or(vec![bid.clone()]);
        assert_eq!(or.conjuncts(), vec![&or]);
    }
}
