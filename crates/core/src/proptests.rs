//! Property tests for the core transaction model.

use crate::validate::validate_transaction;
use crate::{LedgerState, LedgerView, Operation, Transaction, TxBuilder};
use proptest::prelude::*;
use scdb_crypto::KeyPair;
use scdb_json::{obj, Value};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Wire round trip preserves identity for signed transactions of any
    /// metadata size.
    #[test]
    fn wire_round_trip_preserves_validity(
        seed in any::<[u8; 32]>(),
        blob in "[a-z0-9 ]{0,256}",
        amount in 1u64..1_000_000,
    ) {
        let kp = KeyPair::from_seed(seed);
        let tx = TxBuilder::create(obj! { "blob" => blob })
            .output(kp.public_hex(), amount)
            .sign(&[&kp]);
        let back = Transaction::from_payload(&tx.to_payload()).expect("round trip");
        prop_assert_eq!(&back, &tx);
        prop_assert!(back.id_is_consistent());
        let ledger = LedgerState::new();
        prop_assert!(validate_transaction(&back, &ledger).is_ok());
    }

    /// Share conservation holds across arbitrary transfer splits: the
    /// total balance over all owners never changes.
    #[test]
    fn transfer_conserves_shares(splits in prop::collection::vec(1u64..50, 1..6)) {
        let alice = KeyPair::from_seed([1u8; 32]);
        let receivers: Vec<KeyPair> = (0..splits.len())
            .map(|i| KeyPair::from_seed([i as u8 + 2; 32]))
            .collect();
        let total: u64 = splits.iter().sum();

        let mut ledger = LedgerState::new();
        let create = TxBuilder::create(obj! {})
            .output(alice.public_hex(), total)
            .sign(&[&alice]);
        validate_transaction(&create, &ledger).unwrap();
        ledger.apply(&create).unwrap();

        let mut b = TxBuilder::transfer(create.id.clone())
            .input(create.id.clone(), 0, vec![alice.public_hex()]);
        for (i, amt) in splits.iter().enumerate() {
            b = b.output_with_prev(receivers[i].public_hex(), *amt, vec![alice.public_hex()]);
        }
        let transfer = b.sign(&[&alice]);
        prop_assert!(validate_transaction(&transfer, &ledger).is_ok());
        ledger.apply(&transfer).unwrap();

        let after: u64 = receivers
            .iter()
            .map(|r| ledger.utxos().balance(&r.public_hex(), &create.id))
            .sum();
        prop_assert_eq!(after, total);
        prop_assert_eq!(ledger.utxos().balance(&alice.public_hex(), &create.id), 0);
    }

    /// Any single-byte corruption of a signed payload is rejected —
    /// either as unparseable, schema-invalid, id-mismatched, or
    /// signature-invalid. Nothing corrupt validates.
    #[test]
    fn corrupted_payloads_never_validate(
        idx in any::<prop::sample::Index>(),
        flip in 1u8..255,
    ) {
        let kp = KeyPair::from_seed([9u8; 32]);
        let tx = TxBuilder::create(obj! { "kind" => "asset" })
            .output(kp.public_hex(), 3)
            .sign(&[&kp]);
        let payload = tx.to_payload();
        let mut bytes = payload.clone().into_bytes();
        let i = idx.index(bytes.len());
        bytes[i] ^= flip;
        let Ok(corrupted) = String::from_utf8(bytes) else { return Ok(()); };
        if corrupted == payload { return Ok(()); }

        let ledger = LedgerState::new();
        if let Ok(parsed) = Transaction::from_payload(&corrupted) {
            prop_assert!(
                validate_transaction(&parsed, &ledger).is_err(),
                "corruption at byte {} must not validate", i
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Operation parsing is total over arbitrary strings and exact over
    /// the known set.
    #[test]
    fn operation_parse_total(s in "\\PC{0,16}") {
        if let Some(op) = Operation::parse(&s) {
            prop_assert_eq!(op.as_str(), s);
        }
    }
}

/// Differential harness for the batch pipeline: committing a batch
/// through [`crate::pipeline::commit_batch`] must leave the ledger in
/// the byte-identical state sequential validate-then-apply produces —
/// same committed ids in the same order, same rejections, same UTXO
/// set and digest, same marketplace indexes.
mod pipeline_differential {
    use super::*;

    use crate::validate::validate_transaction as validate;
    use scdb_crypto::KeyPair;
    use scdb_json::arr;
    use std::sync::Arc;

    fn seed_key(tag: u8, index: u8) -> KeyPair {
        let mut seed = [0u8; 32];
        seed[0] = tag;
        seed[1] = index;
        seed[31] = 0x99;
        KeyPair::from_seed(seed)
    }

    pub struct GeneratedBatch {
        pub escrow: KeyPair,
        pub txs: Vec<Transaction>,
        pub request_ids: Vec<String>,
        pub bid_ids: Vec<String>,
    }

    /// One auction rendered phase-ordered: creates, request, bids,
    /// accept, then the settlement children (winner TRANSFER + RETURNs)
    /// — the full reverse-auction round as a single batch.
    pub fn generate(bidders_per_auction: &[usize], with_conflict: bool) -> GeneratedBatch {
        let escrow = seed_key(0xE5, 0);
        let mut txs = Vec::new();
        let mut request_ids = Vec::new();
        let mut bid_ids = Vec::new();
        for (a, &bidders) in bidders_per_auction.iter().enumerate() {
            let a = a as u8;
            let requester = seed_key(0x50, a);
            let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
                .output(requester.public_hex(), 1)
                .nonce(a as u64)
                .sign(&[&requester]);
            let mut creates = Vec::new();
            let mut bids = Vec::new();
            let mut suppliers = Vec::new();
            for b in 0..bidders as u8 {
                let supplier = seed_key(0x10 + a, b);
                let create = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
                    .output(supplier.public_hex(), 1)
                    .nonce((a as u64) << 8 | b as u64)
                    .sign(&[&supplier]);
                let bid = TxBuilder::bid(create.id.clone(), request.id.clone())
                    .input(create.id.clone(), 0, vec![supplier.public_hex()])
                    .output_with_prev(escrow.public_hex(), 1, vec![supplier.public_hex()])
                    .sign(&[&supplier]);
                creates.push(create);
                bids.push(bid);
                suppliers.push(supplier);
            }
            let mut accept = TxBuilder::accept_bid(bids[0].id.clone(), request.id.clone())
                .output_with_prev(requester.public_hex(), 1, vec![escrow.public_hex()]);
            for bid in &bids {
                accept = accept.input(bid.id.clone(), 0, vec![escrow.public_hex()]);
            }
            for supplier in suppliers.iter().skip(1) {
                accept =
                    accept.output_with_prev(supplier.public_hex(), 1, vec![escrow.public_hex()]);
            }
            let accept = accept.sign(&[&requester]);

            // Settlement children, constructed as the commit hook would.
            let winner_transfer = TxBuilder::transfer(creates[0].id.clone())
                .input(bids[0].id.clone(), 0, vec![escrow.public_hex()])
                .output_with_prev(requester.public_hex(), 1, vec![escrow.public_hex()])
                .metadata(
                    obj! { "parent" => accept.id.clone(), "settles_bid" => bids[0].id.clone() },
                )
                .sign(&[&escrow]);
            let mut returns = Vec::new();
            for (b, bid) in bids.iter().enumerate().skip(1) {
                let ret = TxBuilder::bid_return(creates[b].id.clone(), bid.id.clone())
                    .input(bid.id.clone(), 0, vec![escrow.public_hex()])
                    .output_with_prev(suppliers[b].public_hex(), 1, vec![escrow.public_hex()])
                    .metadata(obj! { "parent" => accept.id.clone() })
                    .sign(&[&escrow]);
                returns.push(ret);
            }

            if with_conflict {
                // A competing spend of the first asset: exactly one of
                // bid[0] and this transfer can win, whichever the order
                // makes first.
                let rogue = TxBuilder::transfer(creates[0].id.clone())
                    .input(creates[0].id.clone(), 0, vec![suppliers[0].public_hex()])
                    .output_with_prev(
                        seed_key(0x77, a).public_hex(),
                        1,
                        vec![suppliers[0].public_hex()],
                    )
                    .sign(&[&suppliers[0]]);
                txs.push(rogue);
            }

            request_ids.push(request.id.clone());
            bid_ids.extend(bids.iter().map(|b| b.id.clone()));
            txs.extend(creates);
            txs.push(request);
            txs.extend(bids);
            txs.push(accept);
            txs.push(winner_transfer);
            txs.extend(returns);
        }
        GeneratedBatch {
            escrow,
            txs,
            request_ids,
            bid_ids,
        }
    }

    /// The sequential reference: validate each transaction at its turn
    /// and apply survivors. Honours the pipeline's failure-injection
    /// harness: an injected id whose validation passed rejects at its
    /// turn with the same verdict
    /// [`crate::pipeline::PipelineOptions::fail_apply`] produces, and
    /// is not applied.
    pub fn sequential_commit(
        ledger: &mut LedgerState,
        batch: &[Arc<Transaction>],
        inject: Option<&str>,
    ) -> (Vec<String>, Vec<(usize, String)>) {
        let mut committed = Vec::new();
        let mut rejected = Vec::new();
        for (i, tx) in batch.iter().enumerate() {
            match validate(tx, &*ledger) {
                Ok(()) if inject == Some(tx.id.as_str()) => {
                    let e = crate::ValidationError::DoubleSpend(format!(
                        "injected apply failure for {}",
                        tx.id
                    ));
                    rejected.push((i, e.to_string()));
                }
                Ok(()) => {
                    ledger.apply_shared(tx).expect("validated spends apply");
                    committed.push(tx.id.clone());
                }
                Err(e) => rejected.push((i, e.to_string())),
            }
        }
        (committed, rejected)
    }

    /// Byte-identical-state check over everything the ledger tracks.
    pub fn assert_states_identical(a: &LedgerState, b: &LedgerState, gen: &GeneratedBatch) {
        assert_eq!(
            a.committed_ids(),
            b.committed_ids(),
            "commit order diverged"
        );
        assert_eq!(
            a.utxos().snapshot(),
            b.utxos().snapshot(),
            "UTXO set diverged"
        );
        assert_eq!(a.state_digest(), b.state_digest(), "state digest diverged");
        for request in &gen.request_ids {
            let locked_a: Vec<&str> = a
                .locked_bids_for_request(request)
                .iter()
                .map(|t| t.id.as_str())
                .collect();
            let locked_b: Vec<&str> = b
                .locked_bids_for_request(request)
                .iter()
                .map(|t| t.id.as_str())
                .collect();
            assert_eq!(
                locked_a, locked_b,
                "locked-bid index diverged for {request}"
            );
            assert_eq!(
                a.accept_for_request(request).map(|t| &t.id),
                b.accept_for_request(request).map(|t| &t.id),
                "accept index diverged for {request}"
            );
        }
        for bid in &gen.bid_ids {
            let escrow_output = scdb_store::OutputRef::new(bid.clone(), 0);
            assert_eq!(
                a.utxo(&escrow_output).map(|u| u.spent_by),
                b.utxo(&escrow_output).map(|u| u.spent_by),
                "settlement diverged for {bid}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole equivalence property: for random reverse-auction
    /// traffic — injected conflicting spends, arbitrary submission-order
    /// scrambling, the stream cut into consecutive blocks so dependency
    /// chains and double-spend races straddle block boundaries, and
    /// optionally one mid-apply failure injected into a random
    /// transaction — the parallel pipeline commits, block for block, the
    /// byte-identical ledger state the sequential path commits, with
    /// identical per-transaction verdicts.
    #[test]
    fn pipeline_commit_equals_sequential_commit(
        bidders in prop::collection::vec(1usize..4, 1..4),
        with_conflict in any::<bool>(),
        swaps in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..12,
        ),
        workers in 2usize..5,
        cuts in prop::collection::vec(any::<prop::sample::Index>(), 0..5),
        inject_on in any::<bool>(),
        inject_at in any::<prop::sample::Index>(),
    ) {
        let generated = pipeline_differential::generate(&bidders, with_conflict);
        let mut txs: Vec<std::sync::Arc<Transaction>> =
            generated.txs.iter().cloned().map(std::sync::Arc::new).collect();
        // Scramble submission order: equivalence must hold for invalid
        // orders too (both paths reject the same stragglers).
        for (i, j) in &swaps {
            let (i, j) = (i.index(txs.len()), j.index(txs.len()));
            txs.swap(i, j);
        }

        // Cut the stream into consecutive blocks (empty blocks pruned;
        // no cut is the single-batch case).
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c.index(txs.len())).collect();
        bounds.push(txs.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut blocks: Vec<&[std::sync::Arc<Transaction>]> = Vec::new();
        let mut start = 0;
        for end in bounds {
            if end > start {
                blocks.push(&txs[start..end]);
                start = end;
            }
        }

        // Optionally force one random transaction to abort mid-apply.
        let inject_id = inject_on.then(|| txs[inject_at.index(txs.len())].id.clone());
        let mut options = crate::pipeline::PipelineOptions::with_workers(workers);
        if let Some(id) = &inject_id {
            options = options.inject_apply_failure(id.clone());
        }

        let mut sequential = LedgerState::new();
        sequential.add_reserved_account(generated.escrow.public_hex());
        let mut parallel = LedgerState::new();
        parallel.add_reserved_account(generated.escrow.public_hex());
        for block in blocks {
            let (seq_committed, seq_rejected) = pipeline_differential::sequential_commit(
                &mut sequential,
                block,
                inject_id.as_deref(),
            );
            let outcome = crate::pipeline::commit_batch(&mut parallel, block, &options);

            prop_assert_eq!(&outcome.committed, &seq_committed, "committed ids diverged");
            let pipe_rejected: Vec<(usize, String)> =
                outcome.rejected.iter().map(|(i, e)| (*i, e.to_string())).collect();
            prop_assert_eq!(&pipe_rejected, &seq_rejected, "rejection verdicts diverged");
            pipeline_differential::assert_states_identical(&parallel, &sequential, &generated);
        }
    }

    /// The sharding equivalence property: committing the same batch —
    /// double spends, scrambled submission order, escrow unlock races
    /// between settlement children and competing spends included —
    /// through a 1-shard ledger and a 16-shard ledger (with parallel
    /// wave apply) produces identical committed ids, identical
    /// rejection verdicts, byte-identical `snapshot()`s, and identical
    /// marketplace indexes. The shard count is purely an apply-side
    /// lock-granularity knob.
    #[test]
    fn sharded_commit_equals_unsharded_commit(
        bidders in prop::collection::vec(1usize..4, 1..4),
        with_conflict in any::<bool>(),
        swaps in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..12,
        ),
        workers in 2usize..6,
    ) {
        let generated = pipeline_differential::generate(&bidders, with_conflict);
        let mut batch: Vec<std::sync::Arc<Transaction>> =
            generated.txs.iter().cloned().map(std::sync::Arc::new).collect();
        for (i, j) in &swaps {
            let (i, j) = (i.index(batch.len()), j.index(batch.len()));
            batch.swap(i, j);
        }

        let commit = |shards: usize, workers: usize| {
            let mut ledger = LedgerState::with_utxo_shards(shards);
            ledger.add_reserved_account(generated.escrow.public_hex());
            let outcome = crate::pipeline::commit_batch(
                &mut ledger,
                &batch,
                &crate::pipeline::PipelineOptions::with_workers(workers).utxo_shards(shards),
            );
            (ledger, outcome)
        };
        // The unsharded reference applies serially (workers=1); the
        // sharded run applies whole waves in parallel.
        let (unsharded, ref_outcome) = commit(1, 1);
        let (sharded, outcome) = commit(16, workers);

        prop_assert_eq!(unsharded.utxos().shard_count(), 1);
        prop_assert_eq!(sharded.utxos().shard_count(), 16);
        prop_assert_eq!(&outcome.committed, &ref_outcome.committed, "committed ids diverged");
        let verdicts = |o: &crate::pipeline::BatchOutcome| -> Vec<(usize, String)> {
            o.rejected.iter().map(|(i, e)| (*i, e.to_string())).collect()
        };
        prop_assert_eq!(verdicts(&outcome), verdicts(&ref_outcome), "verdicts diverged");
        pipeline_differential::assert_states_identical(&sharded, &unsharded, &generated);
    }

    /// A clean phase-ordered batch commits completely, and with real
    /// parallelism: same-phase transactions of independent auctions
    /// share waves.
    #[test]
    fn clean_batches_commit_fully_and_in_parallel(
        auctions in 2usize..4,
        bidders in 1usize..4,
    ) {
        let shape = vec![bidders; auctions];
        let generated = pipeline_differential::generate(&shape, false);
        let batch: Vec<std::sync::Arc<Transaction>> =
            generated.txs.iter().cloned().map(std::sync::Arc::new).collect();
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(generated.escrow.public_hex());
        let outcome = crate::pipeline::commit_batch(
            &mut ledger,
            &batch,
            &crate::pipeline::PipelineOptions::with_workers(4),
        );
        prop_assert!(outcome.rejected.is_empty(), "{:?}", outcome.rejected);
        prop_assert_eq!(outcome.committed.len(), batch.len());
        // Independent auctions overlap: strictly fewer waves than a
        // serial schedule would need.
        prop_assert!(outcome.waves < batch.len(), "waves {} vs {}", outcome.waves, batch.len());
        prop_assert!(outcome.widest_wave >= auctions, "auctions did not overlap");
    }
}

#[test]
fn metadata_null_and_object_both_roundtrip() {
    let kp = KeyPair::from_seed([3u8; 32]);
    for metadata in [Value::Null, obj! { "a" => 1 }] {
        let tx = TxBuilder::create(obj! {})
            .metadata(metadata.clone())
            .output(kp.public_hex(), 1)
            .sign(&[&kp]);
        let back = Transaction::from_payload(&tx.to_payload()).unwrap();
        assert_eq!(back.metadata, metadata);
    }
}
