//! Property tests: index/scan agreement, UTXO conservation, log replay.

use crate::{Collection, Filter, OutputRef, Utxo, UtxoSet};
use proptest::prelude::*;
use scdb_json::{obj, Value};

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

    /// Shard count is unobservable: an arbitrary interleaving of adds,
    /// spends (including failing ones) and atomic multi-output applies
    /// leaves 1-, 3- and 16-shard sets with byte-identical snapshots
    /// and identical per-op results.
    #[test]
    fn shard_count_is_unobservable(ops in prop::collection::vec((0u8..3, 0u8..12, 0u8..12), 1..48)) {
        let sets = [UtxoSet::with_shards(1), UtxoSet::with_shards(3), UtxoSet::with_shards(16)];
        for (n, (op, a, b)) in ops.iter().enumerate() {
            let mut results = Vec::new();
            for set in &sets {
                let result: Result<usize, crate::SpendError> = match op {
                    0 => {
                        set.add(OutputRef::new(format!("t{a}"), *b as u32 % 3), Utxo {
                            owners: vec![format!("o{b}")],
                            previous_owners: vec![],
                            amount: *a as u64 + 1,
                            asset_id: "a".into(),
                            spent_by: None,
                        });
                        Ok(0)
                    }
                    1 => set
                        .spend(&OutputRef::new(format!("t{a}"), *b as u32 % 3), &format!("s{n}"))
                        .map(|_| 1),
                    _ => {
                        // Atomic two-spend + one-add, possibly failing.
                        let spends = [
                            OutputRef::new(format!("t{a}"), 0),
                            OutputRef::new(format!("t{b}"), 1),
                        ];
                        let adds = vec![(OutputRef::new(format!("n{n}"), 0), Utxo {
                            owners: vec!["x".into()],
                            previous_owners: vec![],
                            amount: 1,
                            asset_id: "a".into(),
                            spent_by: None,
                        })];
                        set.apply_tx(&spends, adds, &format!("s{n}")).map(|v| v.len())
                    }
                };
                results.push(result);
            }
            prop_assert_eq!(&results[0], &results[1], "op {} diverged", n);
            prop_assert_eq!(&results[1], &results[2], "op {} diverged", n);
        }
        prop_assert_eq!(sets[0].snapshot(), sets[1].snapshot());
        prop_assert_eq!(sets[1].snapshot(), sets[2].snapshot());
        // The incremental digests are as shard-blind as the snapshots.
        prop_assert_eq!(sets[0].state_digest(), sets[1].state_digest());
        prop_assert_eq!(sets[1].state_digest(), sets[2].state_digest());
    }

    /// `state_digest()` equality ⟺ `snapshot()` equality, across shard
    /// counts: two sets driven by (usually different) op sequences have
    /// equal digests exactly when their sorted snapshots are equal, and
    /// the incrementally maintained digest always equals a from-scratch
    /// fold over the snapshot.
    #[test]
    fn digest_equality_iff_snapshot_equality(
        ops_a in prop::collection::vec((0u8..2, 0u8..6, 0u8..4), 0..32),
        ops_b in prop::collection::vec((0u8..2, 0u8..6, 0u8..4), 0..32),
        shard_pick in 0usize..3,
    ) {
        let shards = [(1usize, 16usize), (4, 4), (16, 1)][shard_pick];
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
        let set_a = UtxoSet::with_shards(shards.0);
        let set_b = UtxoSet::with_shards(shards.1);
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
}
