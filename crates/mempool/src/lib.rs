//! # scdb-mempool — conflict-aware ingest
//!
//! The layer between "millions of users, one transaction each" and the
//! conflict-aware batch pipeline those users starve when every
//! submission travels alone (Fig. 4's one-transaction-per-round-trip
//! drivers). Three parts:
//!
//! * **Admission** ([`Mempool::admit`]) — cheap stateless checks
//!   (template shape per Algorithm 1, id tamper check, input
//!   signatures, duplicate ids, a per-sender cap) plus a one-time
//!   derivation of the transaction's read/write footprint using the
//!   same [`scdb_core::pipeline`] computation the validator plans
//!   with. Every pending transaction is indexed by the `OutputRef`s
//!   it spends, so an obvious double spend is
//!   *flagged* the moment it arrives — flagged, never rejected: the
//!   full validator is the only judge of which racer wins.
//!   [`Mempool::admit_batch`] admits an arrival batch: the stateless
//!   screen and the signature checks fan out over the admission
//!   workers, then every member is decided, in arrival order, by the
//!   step `admit` itself ends in.
//! * **Batch forming** ([`Mempool::drain_batch`]) — a scheduler that
//!   packs pending transactions into wide, shallow wave schedules by
//!   greedy conflict-graph coloring over the pending footprints; each
//!   wave keeps its members in arrival order. The drained
//!   [`FormedBatch`] carries its precomputed
//!   [`scdb_core::WaveSchedule`]; the pipeline commits it through
//!   `commit_batch_planned` without ever re-deriving a footprint.
//! * **Re-queue** ([`Mempool::requeue`]) — a formed batch whose block
//!   proposal was abandoned returns to the pool at its original
//!   arrival positions, so races are decided exactly as if the
//!   abandoned proposal had never existed.
//!
//! The theory of transaction parallelism (Bartoletti et al.) frames
//! why this layer — not just the validator — determines realized
//! parallelism: the pipeline can only exploit whatever width the batch
//! former gives it, and FIFO slicing of a contended arrival stream
//! gives it almost none. See `DESIGN-mempool.md` for the protocol and
//! the equivalence argument.

#![forbid(unsafe_code)]

mod admission;
mod index;
mod pack;
mod pool;
#[cfg(test)]
mod proptests;

pub use pack::{pack_batch, PackedBatch};
pub use pool::{
    AdmitError, AdmitReceipt, ExpelledTx, FormedBatch, Mempool, MempoolConfig, MempoolStats,
};

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_core::pipeline::{footprints_conflict, Access};
    use scdb_core::{commit_batch_planned, LedgerState, PipelineOptions, Transaction, TxBuilder};
    use scdb_crypto::KeyPair;
    use scdb_json::{arr, obj};
    use std::sync::Arc;

    fn keys(seed: u8) -> KeyPair {
        KeyPair::from_seed([seed; 32])
    }

    fn market() -> (LedgerState, KeyPair) {
        let escrow = keys(0xE5);
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        (ledger, escrow)
    }

    fn create(owner: &KeyPair, nonce: u64) -> Arc<Transaction> {
        Arc::new(
            TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
                .output(owner.public_hex(), 1)
                .nonce(nonce)
                .sign(&[owner]),
        )
    }

    #[test]
    fn admission_accepts_and_indexes_independent_creates() {
        let (ledger, _) = market();
        let mut pool = Mempool::default();
        for i in 0..4u8 {
            let r = pool.admit(create(&keys(i + 1), i as u64), &ledger).unwrap();
            assert!(!r.flagged);
        }
        assert_eq!(pool.len(), 4);
        let batch = pool.drain_batch(usize::MAX, &ledger);
        assert_eq!(batch.waves(), 1, "independent creates share one wave");
        assert_eq!(batch.widest_wave(), 4);
        assert!(pool.is_empty());
    }

    #[test]
    fn duplicate_and_committed_ids_are_rejected() {
        let (mut ledger, _) = market();
        let mut pool = Mempool::default();
        let tx = create(&keys(1), 0);
        pool.admit(Arc::clone(&tx), &ledger).unwrap();
        assert!(matches!(
            pool.admit(Arc::clone(&tx), &ledger),
            Err(AdmitError::DuplicatePending(_))
        ));
        let committed = create(&keys(2), 1);
        ledger.apply(&committed).unwrap();
        assert!(matches!(
            pool.admit(committed, &ledger),
            Err(AdmitError::AlreadyCommitted(_))
        ));
    }

    #[test]
    fn tampered_and_unsigned_payloads_are_rejected() {
        let (ledger, _) = market();
        let mut pool = Mempool::default();
        let mut tampered = (*create(&keys(1), 0)).clone();
        tampered.id = "f".repeat(64);
        assert!(matches!(
            pool.admit(Arc::new(tampered), &ledger),
            Err(AdmitError::IdMismatch { .. })
        ));
        // Signed by the wrong key: the fulfillment does not cover the
        // declared owners.
        let alice = keys(0xA1);
        let mallory = keys(0x3F);
        let mut forged = TxBuilder::create(obj! {})
            .output(alice.public_hex(), 1)
            .sign(&[&mallory]);
        for input in &mut forged.inputs {
            input.owners_before = vec![alice.public_hex()];
        }
        forged.seal();
        assert!(matches!(
            pool.admit(Arc::new(forged), &ledger),
            Err(AdmitError::InvalidSignature(_))
        ));
        assert!(pool.is_empty());
    }

    #[test]
    fn per_sender_cap_pushes_back_retryably() {
        let (ledger, _) = market();
        let mut pool = Mempool::new(MempoolConfig {
            max_per_sender: 2,
            ..MempoolConfig::default()
        });
        let alice = keys(0xA1);
        pool.admit(create(&alice, 0), &ledger).unwrap();
        pool.admit(create(&alice, 1), &ledger).unwrap();
        let err = pool.admit(create(&alice, 2), &ledger).unwrap_err();
        assert!(matches!(err, AdmitError::SenderCapExceeded { .. }));
        assert!(err.is_retryable());
        // Another sender still gets in.
        pool.admit(create(&keys(0xB0), 3), &ledger).unwrap();
        assert_eq!(pool.len(), 3);
        // Draining frees the cap.
        pool.drain_batch(usize::MAX, &ledger);
        pool.admit(create(&alice, 2), &ledger).unwrap();
    }

    #[test]
    fn pool_capacity_pushes_back_retryably() {
        let (ledger, _) = market();
        let mut pool = Mempool::new(MempoolConfig {
            max_pending: 2,
            ..MempoolConfig::default()
        });
        pool.admit(create(&keys(1), 0), &ledger).unwrap();
        pool.admit(create(&keys(2), 1), &ledger).unwrap();
        let err = pool.admit(create(&keys(3), 2), &ledger).unwrap_err();
        assert!(matches!(err, AdmitError::PoolFull { cap: 2 }));
        assert!(err.is_retryable());
    }

    #[test]
    fn double_spends_are_flagged_not_rejected() {
        let (mut ledger, _) = market();
        let alice = keys(0xA1);
        let asset = create(&alice, 0);
        ledger.apply(&asset).unwrap();
        let spend = |to: u8, n: u64| {
            Arc::new(
                TxBuilder::transfer(asset.id.clone())
                    .input(asset.id.clone(), 0, vec![alice.public_hex()])
                    .output_with_prev(keys(to).public_hex(), 1, vec![alice.public_hex()])
                    .metadata(obj! { "n" => n })
                    .sign(&[&alice]),
            )
        };
        let mut pool = Mempool::default();
        let first = pool.admit(spend(0xB0, 1), &ledger).unwrap();
        assert!(!first.flagged, "first spender is clean");
        let second = pool.admit(spend(0xB1, 2), &ledger).unwrap();
        assert!(second.flagged, "second spender is an obvious double spend");
        assert_eq!(pool.len(), 2, "flag is not a rejection");
        assert_eq!(pool.flagged_pending(), 1);

        // The two spends land in different waves; committing the batch
        // lets the validator decide — first wins, second rejected.
        let batch = pool.drain_batch(usize::MAX, &ledger);
        assert_eq!(batch.waves(), 2);
        let outcome = commit_batch_planned(
            &mut ledger,
            &batch.txs,
            &batch.schedule,
            &PipelineOptions::with_workers(2),
        );
        assert_eq!(outcome.committed.len(), 1);
        assert_eq!(outcome.rejected.len(), 1);
    }

    #[test]
    fn spent_output_on_the_ledger_flags_at_ingest() {
        let (mut ledger, _) = market();
        let alice = keys(0xA1);
        let asset = create(&alice, 0);
        ledger.apply(&asset).unwrap();
        let spend = |to: u8, n: u64| {
            Arc::new(
                TxBuilder::transfer(asset.id.clone())
                    .input(asset.id.clone(), 0, vec![alice.public_hex()])
                    .output_with_prev(keys(to).public_hex(), 1, vec![alice.public_hex()])
                    .metadata(obj! { "n" => n })
                    .sign(&[&alice]),
            )
        };
        ledger.apply(&spend(0xB0, 1)).unwrap();
        let mut pool = Mempool::default();
        let receipt = pool.admit(spend(0xB1, 2), &ledger).unwrap();
        assert!(receipt.flagged, "output already spent on the ledger");
    }

    #[test]
    fn accept_bid_signatures_are_checked_at_drain_time() {
        // Admission exempts ACCEPT_BID from signature checks (the
        // required signer set is the requester's — stateful), so the
        // drain is where a forged accept must die.
        let (mut ledger, escrow) = market();
        let sally = keys(0x5A);
        let mallory = keys(0x4D);
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(sally.public_hex(), 1)
            .sign(&[&sally]);
        ledger.apply(&request).unwrap();
        let supplier = keys(0x21);
        let asset = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
            .output(supplier.public_hex(), 1)
            .sign(&[&supplier]);
        ledger.apply(&asset).unwrap();
        let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
            .input(asset.id.clone(), 0, vec![supplier.public_hex()])
            .output_with_prev(escrow.public_hex(), 1, vec![supplier.public_hex()])
            .sign(&[&supplier]);
        ledger.apply(&bid).unwrap();
        let accept = |signer: &KeyPair, request_id: &str| {
            Arc::new(
                TxBuilder::accept_bid(bid.id.clone(), request_id)
                    .input(bid.id.clone(), 0, vec![escrow.public_hex()])
                    .output_with_prev(sally.public_hex(), 1, vec![escrow.public_hex()])
                    .sign(&[signer]),
            )
        };

        // Forged accept against a committed REQUEST: admitted (the
        // admission-time exemption), expelled at drain.
        let mut pool = Mempool::default();
        let forged = accept(&mallory, &request.id);
        pool.admit(Arc::clone(&forged), &ledger).unwrap();
        let batch = pool.drain_batch(usize::MAX, &ledger);
        assert!(batch.txs.is_empty(), "forged accept never reaches a block");
        assert_eq!(batch.expelled.len(), 1);
        assert_eq!(batch.expelled[0].tx.id, forged.id);
        assert_eq!(pool.stats().rejected, 1, "expulsion is a verdict");
        assert!(pool.is_empty());

        // Properly signed accept drains normally.
        pool.admit(accept(&sally, &request.id), &ledger).unwrap();
        let batch = pool.drain_batch(usize::MAX, &ledger);
        assert_eq!(batch.txs.len(), 1);
        assert!(batch.expelled.is_empty());

        // The pool itself resolves a still-pending REQUEST.
        let request2 = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(sally.public_hex(), 1)
            .nonce(2)
            .sign(&[&sally]);
        let forged2 = accept(&mallory, &request2.id);
        pool.admit(Arc::new(request2), &ledger).unwrap();
        pool.admit(Arc::clone(&forged2), &ledger).unwrap();
        let batch = pool.drain_batch(usize::MAX, &ledger);
        assert_eq!(batch.txs.len(), 1, "the pending request still drains");
        assert_eq!(batch.expelled.len(), 1);
        assert_eq!(batch.expelled[0].tx.id, forged2.id);

        // An unresolvable REQUEST stays in: semantic validation at
        // commit remains the backstop.
        pool.admit(accept(&mallory, &"9".repeat(64)), &ledger)
            .unwrap();
        let batch = pool.drain_batch(usize::MAX, &ledger);
        assert_eq!(batch.txs.len(), 1);
        assert!(batch.expelled.is_empty());
    }

    /// Builds one contended auction round (1 request, 3 bids, the
    /// accept) on a fresh ledger and returns the batch to commit.
    fn auction_batch(ledger: &mut LedgerState, escrow: &KeyPair) -> Vec<Arc<Transaction>> {
        let sally = keys(0x5A);
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(sally.public_hex(), 1)
            .sign(&[&sally]);
        ledger.apply(&request).unwrap();
        let mut batch = Vec::new();
        let mut bids = Vec::new();
        for b in 0..3u8 {
            let supplier = keys(0x20 + b);
            let asset = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
                .output(supplier.public_hex(), 1)
                .nonce(b as u64)
                .sign(&[&supplier]);
            ledger.apply(&asset).unwrap();
            let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
                .input(asset.id.clone(), 0, vec![supplier.public_hex()])
                .output_with_prev(escrow.public_hex(), 1, vec![supplier.public_hex()])
                .sign(&[&supplier]);
            bids.push(bid.clone());
            batch.push(Arc::new(bid));
        }
        let mut accept = TxBuilder::accept_bid(bids[0].id.clone(), request.id.clone())
            .output_with_prev(sally.public_hex(), 1, vec![escrow.public_hex()]);
        for bid in &bids {
            accept = accept.input(bid.id.clone(), 0, vec![escrow.public_hex()]);
        }
        for b in 1..3u8 {
            accept =
                accept.output_with_prev(keys(0x20 + b).public_hex(), 1, vec![escrow.public_hex()]);
        }
        batch.push(Arc::new(accept.sign(&[&sally])));
        batch
    }

    #[test]
    fn drained_schedule_commits_identically_to_replanning() {
        // One contended auction round admitted tx by tx; the drained
        // precomputed schedule must commit byte-identically to letting
        // commit_batch re-plan the same batch.
        let (mut planned, escrow) = market();
        let batch_txs = auction_batch(&mut planned, &escrow);
        let (mut replanned, _) = market();
        auction_batch(&mut replanned, &escrow);

        let mut pool = Mempool::default();
        for tx in &batch_txs {
            pool.admit(Arc::clone(tx), &planned).unwrap();
        }
        let batch = pool.drain_batch(usize::MAX, &planned);
        assert_eq!(batch.waves(), 2, "bid bid bid | accept: bids commute");

        let options = PipelineOptions::with_workers(2);
        let a = commit_batch_planned(&mut planned, &batch.txs, &batch.schedule, &options);
        let b = scdb_core::commit_batch(&mut replanned, &batch.txs, &options);
        assert_eq!(a.committed, b.committed);
        assert!(a.fully_committed(), "{:?}", a.rejected);
        assert_eq!(planned.utxos().snapshot(), replanned.utxos().snapshot());
    }

    #[test]
    fn requeue_restores_arrival_order_and_race_outcomes() {
        let (mut ledger, _) = market();
        let alice = keys(0xA1);
        let asset = create(&alice, 0);
        ledger.apply(&asset).unwrap();
        let spend = |to: u8, n: u64| {
            Arc::new(
                TxBuilder::transfer(asset.id.clone())
                    .input(asset.id.clone(), 0, vec![alice.public_hex()])
                    .output_with_prev(keys(to).public_hex(), 1, vec![alice.public_hex()])
                    .metadata(obj! { "n" => n })
                    .sign(&[&alice]),
            )
        };
        let mut pool = Mempool::default();
        let winner = spend(0xB0, 1);
        pool.admit(Arc::clone(&winner), &ledger).unwrap();
        pool.admit(spend(0xB1, 2), &ledger).unwrap();
        pool.admit(create(&keys(0xC0), 7), &ledger).unwrap();

        // Drain as if proposing a block, then abandon the proposal.
        let formed = pool.drain_batch(usize::MAX, &ledger);
        assert_eq!(formed.len(), 3);
        assert!(pool.is_empty());
        assert_eq!(pool.requeue(formed, &ledger), 3);
        assert_eq!(pool.len(), 3);

        // The next drain decides the race identically: the first
        // arrival still leads its wave.
        let again = pool.drain_batch(usize::MAX, &ledger);
        assert_eq!(again.len(), 3);
        let winner_pos = again.txs.iter().position(|t| t.id == winner.id).unwrap();
        let loser_pos = again
            .txs
            .iter()
            .position(|t| t.id != winner.id && t.operation == scdb_core::Operation::Transfer)
            .unwrap();
        assert!(winner_pos < loser_pos, "arrival order survived the requeue");
        let outcome = commit_batch_planned(
            &mut ledger,
            &again.txs,
            &again.schedule,
            &PipelineOptions::with_workers(2),
        );
        assert_eq!(outcome.committed.len(), 2, "{:?}", outcome.rejected);
        assert!(outcome.committed.contains(&winner.id));
    }

    #[test]
    fn out_of_order_dependent_keeps_fifo_semantics() {
        // t2 spends t1's output but arrives first. Arrival order is the
        // pool's serialization order — exactly like submitting the same
        // sequence through `submit_batch` — so t2 validates before t1
        // exists and is rejected, and t1 commits. The conflict (t2
        // reads Id(t1)) still forces separate waves.
        let (mut ledger, _) = market();
        let alice = keys(0xA1);
        let bob = keys(0xB0);
        let asset = create(&alice, 0);
        ledger.apply(&asset).unwrap();
        let t1 = Arc::new(
            TxBuilder::transfer(asset.id.clone())
                .input(asset.id.clone(), 0, vec![alice.public_hex()])
                .output_with_prev(bob.public_hex(), 1, vec![alice.public_hex()])
                .sign(&[&alice]),
        );
        let t2 = Arc::new(
            TxBuilder::transfer(asset.id.clone())
                .input(t1.id.clone(), 0, vec![bob.public_hex()])
                .output_with_prev(keys(0xC0).public_hex(), 1, vec![bob.public_hex()])
                .sign(&[&bob]),
        );
        let mut pool = Mempool::default();
        pool.admit(Arc::clone(&t2), &ledger).unwrap();
        pool.admit(Arc::clone(&t1), &ledger).unwrap();
        let batch = pool.drain_batch(usize::MAX, &ledger);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.waves(), 2, "the id dependency is a conflict");
        assert!(footprints_conflict(
            &batch.schedule.footprints[0],
            &batch.schedule.footprints[1]
        ));
        assert_eq!(batch.txs[0].id, t2.id, "arrival order preserved");
        let outcome = commit_batch_planned(
            &mut ledger,
            &batch.txs,
            &batch.schedule,
            &PipelineOptions::with_workers(2),
        );
        assert_eq!(outcome.committed, vec![t1.id.clone()]);
        assert_eq!(outcome.rejected.len(), 1);
    }

    #[test]
    fn late_arriving_bid_refreshes_the_escrow_spenders_footprint() {
        // A transfer spending a BID's escrow output mutates that bid's
        // REQUEST's locked-bid set — but only if the footprint can see
        // the spent transaction IS a bid. Admit the spender while its
        // bid is still unknown, then the bid: the spender's footprint
        // must be re-derived to pick up the `Bids(request)` unlock, or a
        // later drain could co-schedule it with a reader of the bid set.
        let (mut ledger, escrow) = market();
        let sally = keys(0x5A);
        let supplier = keys(0x20);
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(sally.public_hex(), 1)
            .sign(&[&sally]);
        ledger.apply(&request).unwrap();
        let asset = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
            .output(supplier.public_hex(), 1)
            .sign(&[&supplier]);
        ledger.apply(&asset).unwrap();
        let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
            .input(asset.id.clone(), 0, vec![supplier.public_hex()])
            .output_with_prev(escrow.public_hex(), 1, vec![supplier.public_hex()])
            .sign(&[&supplier]);
        let spender = TxBuilder::transfer(asset.id.clone())
            .input(bid.id.clone(), 0, vec![escrow.public_hex()])
            .output_with_prev(supplier.public_hex(), 1, vec![escrow.public_hex()])
            .sign(&[&escrow]);

        let mut pool = Mempool::default();
        pool.admit(Arc::new(spender.clone()), &ledger).unwrap();
        pool.admit(Arc::new(bid.clone()), &ledger).unwrap();
        let batch = pool.drain_batch(usize::MAX, &ledger);
        let pos = batch
            .txs
            .iter()
            .position(|t| t.id == spender.id)
            .expect("spender drained");
        let bids_key = scdb_core::ConflictKey::Bids(request.id.clone());
        assert!(
            batch.schedule.footprints[pos].access(&bids_key) == Some(Access::Commute),
            "refreshed footprint must carry the locked-bid-set unlock"
        );
    }

    #[test]
    fn batch_admission_refreshes_a_waiter_from_earlier_in_the_same_batch() {
        // The batch twin of the test above: the escrow spender arrives
        // in one `admit_batch` ahead of the BID whose output it spends
        // and of that BID's REQUEST, so placing the BID re-derives the
        // footprint of a member admitted moments earlier in the same
        // batch. Receipts, stats and the next drain must be those of a
        // per-member `admit` loop at any worker count.
        let (mut ledger, escrow) = market();
        let sally = keys(0x5A);
        let supplier = keys(0x20);
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(sally.public_hex(), 1)
            .sign(&[&sally]);
        let asset = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
            .output(supplier.public_hex(), 1)
            .sign(&[&supplier]);
        ledger.apply(&asset).unwrap();
        let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
            .input(asset.id.clone(), 0, vec![supplier.public_hex()])
            .output_with_prev(escrow.public_hex(), 1, vec![supplier.public_hex()])
            .sign(&[&supplier]);
        let spender = TxBuilder::transfer(asset.id.clone())
            .input(bid.id.clone(), 0, vec![escrow.public_hex()])
            .output_with_prev(supplier.public_hex(), 1, vec![escrow.public_hex()])
            .sign(&[&escrow]);
        let batch = vec![
            Arc::new(spender.clone()),
            Arc::new(request.clone()),
            Arc::new(bid.clone()),
        ];
        let config = |workers: usize| MempoolConfig {
            admission_workers: workers,
            ..MempoolConfig::default()
        };
        let drained = |pool: &mut Mempool| {
            let formed = pool.drain_batch(usize::MAX, &ledger);
            let ids: Vec<String> = formed.txs.iter().map(|t| t.id.clone()).collect();
            (
                ids,
                formed.seqs,
                formed.flagged,
                formed.schedule.waves,
                formed.schedule.footprints,
            )
        };

        let mut serial = Mempool::new(config(1));
        let receipts: Vec<_> = batch
            .iter()
            .map(|tx| serial.admit(Arc::clone(tx), &ledger))
            .collect();
        let stats = serial.stats().clone();
        let (ids, seqs, flagged, waves, footprints) = drained(&mut serial);

        // The loop's own drain: the spender's refreshed footprint
        // carries the locked-bid-set unlock, and the spender — the
        // earlier arrival — is in an earlier wave than its BID.
        let wave_of = |id: &str| {
            let pos = ids.iter().position(|t| t == id).unwrap();
            waves.iter().position(|w| w.contains(&pos)).unwrap()
        };
        let spender_pos = ids.iter().position(|t| *t == spender.id).unwrap();
        let bids_key = scdb_core::ConflictKey::Bids(request.id.clone());
        assert!(footprints[spender_pos].access(&bids_key) == Some(Access::Commute));
        assert!(wave_of(&spender.id) < wave_of(&bid.id), "{waves:?}");

        for workers in [1, 4] {
            let mut pool = Mempool::new(config(workers));
            assert_eq!(
                pool.admit_batch(&batch, &ledger),
                receipts,
                "workers={workers}"
            );
            assert_eq!(pool.stats(), &stats, "workers={workers}");
            let (got_ids, got_seqs, got_flagged, got_waves, got_footprints) = drained(&mut pool);
            assert_eq!(got_ids, ids, "workers={workers}");
            assert_eq!(got_seqs, seqs, "workers={workers}");
            assert_eq!(got_flagged, flagged, "workers={workers}");
            assert_eq!(got_waves, waves, "workers={workers}");
            assert!(got_footprints[spender_pos].access(&bids_key) == Some(Access::Commute));
        }
    }

    #[test]
    fn requeue_refreshes_footprints_for_links_committed_during_the_proposal() {
        // A transfer spending bid B's escrow output is admitted while B
        // is unknown (its footprint cannot see the Bids(request) unlock)
        // and drained into a proposal. B commits through another path
        // while the proposal is in flight; the proposal is abandoned.
        // Requeue must re-derive the footprint against the new ledger —
        // reusing the admission-time footprint would silently drop the
        // refresh signal and under-approximate conflicts forever.
        let (mut ledger, escrow) = market();
        let sally = keys(0x5A);
        let supplier = keys(0x20);
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(sally.public_hex(), 1)
            .sign(&[&sally]);
        ledger.apply(&request).unwrap();
        let asset = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
            .output(supplier.public_hex(), 1)
            .sign(&[&supplier]);
        ledger.apply(&asset).unwrap();
        let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
            .input(asset.id.clone(), 0, vec![supplier.public_hex()])
            .output_with_prev(escrow.public_hex(), 1, vec![supplier.public_hex()])
            .sign(&[&supplier]);
        let spender = TxBuilder::transfer(asset.id.clone())
            .input(bid.id.clone(), 0, vec![escrow.public_hex()])
            .output_with_prev(supplier.public_hex(), 1, vec![escrow.public_hex()])
            .sign(&[&escrow]);

        let mut pool = Mempool::default();
        pool.admit(Arc::new(spender.clone()), &ledger).unwrap();
        let proposal = pool.drain_batch(usize::MAX, &ledger);
        let bids_key = scdb_core::ConflictKey::Bids(request.id.clone());
        assert!(
            proposal.schedule.footprints[0].access(&bids_key) != Some(Access::Commute),
            "admission could not know the spent output is a bid escrow"
        );

        // B commits while the proposal is in flight; then abandonment.
        ledger.apply(&bid).unwrap();
        assert_eq!(pool.requeue(proposal, &ledger), 1);

        let again = pool.drain_batch(usize::MAX, &ledger);
        let pos = again
            .txs
            .iter()
            .position(|t| t.id == spender.id)
            .expect("spender requeued");
        assert!(
            again.schedule.footprints[pos].access(&bids_key) == Some(Access::Commute),
            "requeue must re-derive the footprint against the new ledger"
        );
    }

    #[test]
    fn drain_respects_max_n_and_leaves_the_rest_pooled() {
        let (ledger, _) = market();
        let mut pool = Mempool::default();
        for i in 0..6u8 {
            pool.admit(create(&keys(i + 1), i as u64), &ledger).unwrap();
        }
        let batch = pool.drain_batch(4, &ledger);
        assert_eq!(batch.len(), 4);
        assert_eq!(pool.len(), 2);
        let rest = pool.drain_batch(4, &ledger);
        assert_eq!(rest.len(), 2);
        assert!(pool.is_empty());
    }
}
