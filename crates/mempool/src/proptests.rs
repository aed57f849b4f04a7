//! Property tests pinning the two ingest-layer contracts:
//!
//! 1. **Wave soundness** — a drained batch never co-schedules two
//!    footprint-conflicting transactions in one wave, measured against
//!    *freshly derived* footprints (so stale-but-conservative admission
//!    footprints cannot mask a real conflict), and conflicting members
//!    keep their arrival order across waves.
//! 2. **Flag ≠ reject** — admission's double-spend flagging is advisory
//!    only: any transaction the full validator would accept at its
//!    sequential turn must be admitted (possibly flagged), never turned
//!    away.
//! 3. **Parallel ≡ serial admission** — the staged batch pipeline at
//!    any worker count is byte-identical to a per-member `admit` loop:
//!    same per-tx verdicts, pool contents, seq order, stats, and
//!    subsequent drain schedules.

use crate::{Mempool, MempoolConfig};
use proptest::prelude::*;
use scdb_core::pipeline::{footprint, footprints_conflict, Footprint};
use scdb_core::validate::validate_transaction;
use scdb_core::{LedgerState, Transaction, TxBuilder};
use scdb_crypto::KeyPair;
use scdb_json::{arr, obj};
use std::collections::HashMap;
use std::sync::Arc;

fn seed_key(tag: u8, index: u8) -> KeyPair {
    let mut seed = [0u8; 32];
    seed[0] = tag;
    seed[1] = index;
    seed[31] = 0x7b;
    KeyPair::from_seed(seed)
}

/// Random reverse-auction traffic: `bidders[a]` bids per auction, an
/// accept folding each auction, plus (optionally) a rogue competing
/// spend per auction that races the first bid for the asset's escrow
/// output — the canonical double-spend the flagger must spot.
fn generate(bidders_per_auction: &[usize], with_conflict: bool) -> (KeyPair, Vec<Transaction>) {
    let escrow = seed_key(0xE5, 0);
    let mut txs = Vec::new();
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
                .nonce(((a as u64) << 8) | b as u64)
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
            accept = accept.output_with_prev(supplier.public_hex(), 1, vec![escrow.public_hex()]);
        }
        let accept = accept.sign(&[&requester]);

        if with_conflict {
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
        txs.extend(creates);
        txs.push(request);
        txs.extend(bids);
        txs.push(accept);
    }
    (escrow, txs)
}

fn fresh_ledger(escrow: &KeyPair) -> LedgerState {
    let mut ledger = LedgerState::new();
    ledger.add_reserved_account(escrow.public_hex());
    ledger
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite property 1: no drained wave ever contains two
    /// transactions whose (freshly re-derived) footprints conflict,
    /// at any drain budget, and conflicting members keep arrival order.
    #[test]
    fn drained_waves_are_conflict_free(
        bidders in prop::collection::vec(1usize..4, 1..4),
        with_conflict in any::<bool>(),
        swaps in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..12,
        ),
        budget in 0usize..4,
    ) {
        let max_n = [3usize, 7, 16, usize::MAX][budget];
        let (escrow, mut txs) = generate(&bidders, with_conflict);
        for (i, j) in &swaps {
            let (i, j) = (i.index(txs.len()), j.index(txs.len()));
            txs.swap(i, j);
        }
        let ledger = fresh_ledger(&escrow);
        let mut pool = Mempool::default();
        let mut arrival: HashMap<String, usize> = HashMap::new();
        for (i, tx) in txs.iter().enumerate() {
            pool.admit(Arc::new(tx.clone()), &ledger)
                .expect("well-formed traffic admits");
            arrival.insert(tx.id.clone(), i);
        }

        while !pool.is_empty() {
            let batch = pool.drain_batch(max_n, &ledger);
            prop_assert!(!batch.is_empty(), "a non-empty pool must drain progress");

            // Reference footprints, derived fresh over the drained batch.
            let by_id: HashMap<&str, &Transaction> = batch
                .txs
                .iter()
                .map(|t| (t.id.as_str(), t.as_ref()))
                .collect();
            let fresh: Vec<Footprint> = batch
                .txs
                .iter()
                .map(|t| footprint(t, &by_id, &ledger))
                .collect();

            for wave in &batch.schedule.waves {
                for (w, &i) in wave.iter().enumerate() {
                    for &j in &wave[w + 1..] {
                        prop_assert!(
                            !footprints_conflict(&fresh[i], &fresh[j]),
                            "wave co-schedules conflicting {} and {}",
                            batch.txs[i].id, batch.txs[j].id
                        );
                    }
                }
            }
            // Conflicting members appear in arrival order.
            for i in 0..batch.txs.len() {
                for j in (i + 1)..batch.txs.len() {
                    if footprints_conflict(&fresh[i], &fresh[j]) {
                        prop_assert!(
                            arrival[&batch.txs[i].id] < arrival[&batch.txs[j].id],
                            "conflicting pair reordered against arrival"
                        );
                    }
                }
            }
        }
    }

    /// Satellite property 2: flag ≠ reject. Every transaction the full
    /// validator accepts at its sequential turn is admitted by the
    /// pool — double-spend suspicion may only set the advisory flag.
    /// And the flag is not vacuous: the later arrival of each injected
    /// double-spend pair is flagged.
    #[test]
    fn double_spend_flagging_never_rejects_validator_acceptable_txs(
        bidders in prop::collection::vec(1usize..4, 1..3),
        swaps in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..8,
        ),
    ) {
        let (escrow, mut txs) = generate(&bidders, true);
        for (i, j) in &swaps {
            let (i, j) = (i.index(txs.len()), j.index(txs.len()));
            txs.swap(i, j);
        }
        // The sequential oracle ledger advances tx by tx; the pool
        // admits against the genesis state (ingest happens before any
        // of this traffic commits).
        let mut oracle = fresh_ledger(&escrow);
        let genesis = fresh_ledger(&escrow);
        let mut pool = Mempool::new(MempoolConfig {
            max_pending: usize::MAX,
            max_per_sender: usize::MAX,
            ..MempoolConfig::default()
        });
        let mut flagged_any = false;
        for tx in &txs {
            let acceptable = validate_transaction(tx, &oracle).is_ok();
            let verdict = pool.admit(Arc::new(tx.clone()), &genesis);
            match &verdict {
                Ok(receipt) => flagged_any |= receipt.flagged,
                Err(e) => prop_assert!(
                    !acceptable,
                    "admission rejected a validator-acceptable tx: {e}"
                ),
            }
            if acceptable {
                oracle.apply(tx).expect("validated tx applies");
            }
        }
        // Each auction injected a bid/rogue race on the first asset's
        // output; whichever arrived second must have been flagged.
        prop_assert!(flagged_any, "injected double spends must trip the flagger");
    }

    /// Satellite property 3: the staged batch pipeline is a pure
    /// optimization. One payload stream — valid auction traffic mixed
    /// with garbage payloads, wrong-signer transfers, tampered ids,
    /// duplicates, and capacity push-back from tiny pool/sender caps —
    /// admitted (a) tx by tx through the serial path and (b) as one
    /// batch at workers ∈ {1, 4, 8} must produce identical per-tx
    /// verdicts, stats, and byte-identical drain schedules.
    #[test]
    fn parallel_admission_equals_serial_admission(
        bidders in prop::collection::vec(1usize..3, 1..3),
        with_conflict in any::<bool>(),
        swaps in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..8,
        ),
        corruptions in prop::collection::vec(
            (0u8..4, any::<prop::sample::Index>()),
            0..6,
        ),
        max_pending in 0usize..3,
        max_per_sender in 0usize..2,
        budget in 0usize..3,
    ) {
        let max_n = [3usize, 7, usize::MAX][budget];
        let max_pending = [4usize, 9, 1024][max_pending];
        let max_per_sender = [2usize, 1024][max_per_sender];
        let (escrow, mut txs) = generate(&bidders, with_conflict);
        for (i, j) in &swaps {
            let (i, j) = (i.index(txs.len()), j.index(txs.len()));
            txs.swap(i, j);
        }
        let mut payloads: Vec<String> = txs.iter().map(Transaction::to_payload).collect();
        for (round, (mode, at)) in corruptions.iter().enumerate() {
            let at = at.index(payloads.len());
            match mode {
                // Garbage that fails to parse.
                0 => payloads.insert(at, format!("{{corrupt #{round}")),
                // A transfer whose owner never signed it (bad
                // signature past the parse/shape/id gates).
                1 => {
                    let victim = seed_key(0x67, round as u8);
                    let mallory = seed_key(0x66, round as u8);
                    let minted = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
                        .output(victim.public_hex(), 1)
                        .nonce(0xBAD0 + round as u64)
                        .sign(&[&victim]);
                    let unsigned = TxBuilder::transfer(minted.id.clone())
                        .input(minted.id.clone(), 0, vec![victim.public_hex()])
                        .output_with_prev(mallory.public_hex(), 1, vec![victim.public_hex()])
                        .sign(&[&mallory]);
                    payloads.insert(at, unsigned.to_payload());
                }
                // An exact duplicate of an earlier submission.
                2 => payloads.insert(at, payloads[at].clone()),
                // An id tampered in transit.
                3 => {
                    let mut flipped = payloads[at].clone();
                    if let Some(pos) = flipped.find("\"id\"") {
                        let range = pos + 7..pos + 11;
                        if flipped.is_char_boundary(range.end) {
                            flipped.replace_range(range, "0000");
                        }
                    }
                    payloads.insert(at, flipped);
                }
                _ => unreachable!(),
            }
        }

        let ledger = fresh_ledger(&escrow);
        let config = |workers: usize| MempoolConfig {
            max_pending,
            max_per_sender,
            admission_workers: workers,
            ..MempoolConfig::default()
        };

        // The serial oracle: a per-member `admit_payload` loop.
        let mut oracle = Mempool::new(config(1));
        let oracle_verdicts: Vec<_> = payloads
            .iter()
            .map(|p| oracle.admit_payload(p, &ledger))
            .collect();
        let oracle_stats = oracle.stats().clone();
        // Oracle drain schedules, recorded for comparison: (member ids,
        // seqs, flags, waves, expelled ids) per drain round.
        let mut oracle_drains = Vec::new();
        while !oracle.is_empty() {
            let batch = oracle.drain_batch(max_n, &ledger);
            prop_assert!(!batch.is_empty() || !batch.expelled.is_empty());
            oracle_drains.push((
                batch.txs.iter().map(|t| t.id.clone()).collect::<Vec<_>>(),
                batch.seqs,
                batch.flagged,
                batch.schedule.waves,
                batch.expelled.iter().map(|e| e.tx.id.clone()).collect::<Vec<_>>(),
            ));
        }

        for workers in [1usize, 4, 8] {
            let mut pool = Mempool::new(config(workers));
            let verdicts = pool.admit_payload_batch(&payloads, &ledger);
            prop_assert_eq!(
                &verdicts, &oracle_verdicts,
                "workers={} verdicts diverge from the serial loop", workers
            );
            prop_assert_eq!(
                pool.stats(), &oracle_stats,
                "workers={} stats diverge", workers
            );
            for (round, expected) in oracle_drains.iter().enumerate() {
                prop_assert!(!pool.is_empty(), "workers={workers} pool short at round {round}");
                let batch = pool.drain_batch(max_n, &ledger);
                let got = (
                    batch.txs.iter().map(|t| t.id.clone()).collect::<Vec<_>>(),
                    batch.seqs,
                    batch.flagged,
                    batch.schedule.waves,
                    batch.expelled.iter().map(|e| e.tx.id.clone()).collect::<Vec<_>>(),
                );
                prop_assert_eq!(
                    &got, expected,
                    "workers={} drain round {} diverges", workers, round
                );
            }
            prop_assert!(pool.is_empty(), "workers={workers} pool has members the oracle lacks");
        }
    }
}
