//! Property tests: index/scan agreement, UTXO conservation, log replay.

use crate::{Collection, Filter, OutputRef, Utxo, UtxoSet};
use proptest::prelude::*;
use scdb_json::{arr, obj, Number, Value};
use std::sync::Arc;

/// The field values the document-store proptest draws from: strings,
/// integers, integral and non-integral floats (`1`, `1.0` and an
/// unsigned `1` are equal; so are `0` and `-0.0`), arrays, and a
/// missing field (`None`).
fn pool_value(pick: u8) -> Option<Value> {
    Some(match pick % 14 {
        0 => return None,
        1 => Value::from("a"),
        2 => Value::from("b"),
        3 => Value::from("1"),
        4 => Value::from(1i64),
        5 => Value::from(1.0),
        6 => Value::Number(Number::UInt(1)),
        7 => Value::from(2i64),
        8 => Value::from(2.5),
        9 => Value::from(0i64),
        10 => Value::from(-0.0),
        11 => arr![1i64, "a"],
        12 => arr![1.0, "b"],
        _ => Value::Null,
    })
}

/// Indexed paths first; `u` is never indexed. `r.0` reaches into an
/// array the way `references.0` does.
const PATHS: [&str; 4] = ["p", "q", "r.0", "u"];
const INDEXED: [&str; 3] = ["p", "q", "r.0"];

/// A document: `p`, `q`, `r` and `u` from the pool (each maybe
/// missing), plus its insertion number `seq`.
fn pool_doc(seq: usize, picks: [u8; 4]) -> Value {
    // 37 is coprime to 1000, so ids are unique and id order is not
    // insertion order.
    let mut doc = obj! { "_id" => format!("d{:03}", seq * 37 % 1000), "seq" => seq };
    for (field, pick) in ["p", "q", "r", "u"].into_iter().zip(picks) {
        if let Some(v) = pool_value(pick) {
            doc.insert(field, v);
        }
    }
    doc
}

/// One leaf: mostly an `Eq` on any path, sometimes a `Contains` on an
/// array-holding field.
fn pool_leaf(path: u8, value: u8) -> Filter {
    let v = pool_value(value).unwrap_or(Value::from(1i64));
    match path % 6 {
        4 => Filter::Contains("r".into(), v),
        5 => Filter::Contains("p".into(), v),
        p => Filter::Eq(PATHS[p as usize].into(), v),
    }
}

/// A filter: an `Eq`/`Contains` leaf, an `And` of 1–3 leaves (often
/// two indexed equalities), an `Or` or a `Not`.
fn pool_filter(shape: u8, picks: [u8; 6]) -> Filter {
    let leaf = |i: usize| pool_leaf(picks[2 * i], picks[2 * i + 1]);
    match shape % 6 {
        0 => leaf(0),
        1 => Filter::and([leaf(0)]),
        2 => Filter::and([leaf(0), leaf(1)]),
        3 => Filter::and([leaf(0), leaf(1), leaf(2)]),
        4 => Filter::Or(vec![leaf(0), leaf(1)]),
        _ => Filter::Not(Box::new(leaf(0))),
    }
}

fn ids(docs: &[Arc<Value>]) -> Vec<String> {
    docs.iter()
        .map(|d| d.get("_id").and_then(Value::as_str).unwrap().to_owned())
        .collect()
}

fn seqs(docs: &[Arc<Value>]) -> Vec<u64> {
    docs.iter()
        .map(|d| d.get("seq").and_then(Value::as_u64).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Queries answered through a secondary index always agree with a
    /// full scan.
    #[test]
    fn index_agrees_with_scan(ops in prop::collection::vec(0u8..4, 1..60)) {
        let indexed = Collection::new("indexed");
        indexed.create_index("operation");
        let scanned = Collection::new("scanned");
        let names = ["CREATE", "TRANSFER", "REQUEST", "BID"];
        for (i, op) in ops.iter().enumerate() {
            let doc = obj! { "_id" => format!("t{i}"), "operation" => names[*op as usize] };
            indexed.insert(doc.clone()).unwrap();
            scanned.insert(doc).unwrap();
        }
        for name in names {
            let f = Filter::eq("operation", name);
            let mut a: Vec<String> = indexed.find(&f).iter()
                .map(|d| d.get("_id").and_then(Value::as_str).unwrap().to_owned()).collect();
            let mut b: Vec<String> = scanned.find(&f).iter()
                .map(|d| d.get("_id").and_then(Value::as_str).unwrap().to_owned()).collect();
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
    }

    /// Total share balance is conserved: spending never changes the sum
    /// of (unspent + spent) amounts, and each output is spent at most
    /// once regardless of the spend order attempted.
    #[test]
    fn utxo_single_spend_invariant(spend_order in prop::collection::vec(0usize..8, 0..24)) {
        let set = UtxoSet::new();
        let total: u64 = (0..8).map(|i| {
            let amount = i as u64 + 1;
            set.add(OutputRef::new("genesis", i), Utxo {
                owners: vec!["alice".into()],
                previous_owners: vec![],
                amount,
                asset_id: "a".into(),
                spent_by: None,
            });
            amount
        }).sum();

        let mut successful = 0usize;
        for (n, idx) in spend_order.iter().enumerate() {
            let out = OutputRef::new("genesis", *idx as u32);
            if set.spend(&out, &format!("spender{n}")).is_ok() {
                successful += 1;
            }
        }
        // Each of the 8 outputs can be spent at most once.
        let distinct: std::collections::BTreeSet<usize> = spend_order.iter().copied().collect();
        prop_assert_eq!(successful, distinct.len());

        // Conservation: amounts never change, only the spent flag.
        let remaining: u64 = (0..8).map(|i| set.get(&OutputRef::new("genesis", i)).unwrap().amount).sum();
        prop_assert_eq!(remaining, total);
    }

    /// `state_digest()` equality ⟺ `snapshot()` equality: two sets
    /// driven by (usually different) op sequences have equal digests
    /// exactly when their sorted snapshots are equal, and the
    /// incrementally maintained digest always equals a from-scratch fold
    /// over the snapshot.
    #[test]
    fn digest_equality_iff_snapshot_equality(
        ops_a in prop::collection::vec((0u8..2, 0u8..6, 0u8..4), 0..32),
        ops_b in prop::collection::vec((0u8..2, 0u8..6, 0u8..4), 0..32),
    ) {
        let apply = |set: &UtxoSet, ops: &[(u8, u8, u8)]| {
            for (n, (op, a, b)) in ops.iter().enumerate() {
                let out = OutputRef::new(format!("t{a}"), *b as u32);
                match op {
                    0 => set.add(out, Utxo {
                        owners: vec![format!("o{b}")],
                        previous_owners: if b % 2 == 0 {
                            vec![]
                        } else {
                            vec![format!("p{a}")]
                        },
                        amount: *a as u64 + 1,
                        asset_id: "a".into(),
                        spent_by: None,
                    }),
                    _ => { let _ = set.spend(&out, &format!("s{n}")); }
                }
            }
        };
        let set_a = UtxoSet::new();
        let set_b = UtxoSet::new();
        apply(&set_a, &ops_a);
        apply(&set_b, &ops_b);

        let snapshots_equal = set_a.snapshot() == set_b.snapshot();
        let digests_equal = set_a.state_digest() == set_b.state_digest();
        prop_assert_eq!(digests_equal, snapshots_equal);

        // Incremental maintenance never drifts from a full recompute.
        for set in [&set_a, &set_b] {
            let mut fresh = crate::StateDigest::EMPTY;
            for (output, utxo) in set.snapshot() {
                fresh.fold_add(crate::entry_hash(&output, &utxo));
            }
            prop_assert_eq!(fresh, set.state_digest());
        }
    }

    /// update() + delete() keep indexes consistent with scans.
    #[test]
    fn mutations_keep_index_consistent(steps in prop::collection::vec((0u8..3, 0u8..8), 0..40)) {
        let c = Collection::new("m");
        c.create_index("status");
        let mut next_id = 0usize;
        for (op, slot) in steps {
            match op {
                0 => {
                    let _ = c.insert(obj! { "_id" => format!("d{next_id}"), "status" => format!("s{slot}") });
                    next_id += 1;
                }
                1 => {
                    c.update(&Filter::eq("status", format!("s{slot}")), "status", Value::from("moved"));
                }
                _ => {
                    c.delete(&Filter::eq("status", format!("s{slot}")));
                }
            }
        }
        // Every indexed query must agree with a manual scan.
        for s in 0..8 {
            let f = Filter::eq("status", format!("s{s}"));
            let via_index = c.find(&f).len();
            let via_scan = c.scan().iter().filter(|d| f.matches(d)).count();
            prop_assert_eq!(via_index, via_scan);
        }
    }

    /// The document mirror against brute force: random interleavings of
    /// insert, update and delete on a collection indexed on three paths
    /// and on an unindexed twin, then random filters. `find` answers
    /// what `filter(matches)` over `scan()` answers, as a set; an
    /// index-served answer is in insertion order, any other in id
    /// order; `count` is `find`'s length; and the twin holds the same
    /// documents. A failure points at the planner (a conjunct not
    /// re-checked, the wrong posting list) or at the key rule (two
    /// equal values under different keys).
    #[test]
    fn indexed_queries_agree_with_brute_force(
        steps in prop::collection::vec((0u8..4, prop::array::uniform4(0u8..=255), 0u8..=255), 1..60),
        queries in prop::collection::vec((0u8..6, (prop::array::uniform4(0u8..=255), 0u8..=255, 0u8..=255)), 1..24),
    ) {
        let indexed = Collection::new("indexed");
        for path in INDEXED {
            indexed.create_index(path);
        }
        let plain = Collection::new("plain");
        let mut seq = 0usize;
        for (op, picks, extra) in steps {
            let target = pool_filter(extra, [picks[0], picks[1], picks[2], picks[3], extra, picks[0]]);
            match op {
                // Inserts are the commonest step.
                0 | 1 => {
                    let doc = pool_doc(seq, picks);
                    seq += 1;
                    prop_assert_eq!(indexed.insert(doc.clone()), plain.insert(doc));
                }
                2 => {
                    let path = ["p", "q", "r", "u"][extra as usize % 4];
                    let value = pool_value(picks[3]).unwrap_or(Value::from("gone"));
                    prop_assert_eq!(
                        indexed.update(&target, path, value.clone()),
                        plain.update(&target, path, value)
                    );
                }
                _ => prop_assert_eq!(indexed.delete(&target), plain.delete(&target)),
            }
        }
        let all = indexed.scan();
        prop_assert_eq!(&all, &plain.scan());
        for (shape, (picks, a, b)) in queries {
            let f = pool_filter(shape, [picks[0], picks[1], picks[2], picks[3], a, b]);
            let found = indexed.find(&f);
            let mut got = ids(&found);
            got.sort();
            let brute: Vec<Arc<Value>> = all.iter().filter(|d| f.matches(d)).cloned().collect();
            prop_assert_eq!(&got, &ids(&brute), "{:?}", f);
            let served = f
                .conjuncts()
                .iter()
                .any(|c| matches!(c, Filter::Eq(path, _) if INDEXED.contains(&path.as_str())));
            if served {
                let order = seqs(&found);
                prop_assert!(order.windows(2).all(|w| w[0] < w[1]), "{:?}: {:?}", f, order);
            } else {
                prop_assert_eq!(ids(&found), ids(&brute), "{:?}", f);
            }
            prop_assert_eq!(indexed.count(&f), found.len());
            prop_assert_eq!(plain.find(&f), brute);
        }
    }
}
