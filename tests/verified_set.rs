//! The verified set ("verify every signature once") pinned two ways.
//!
//! **Differentially**: random valid / bad-signature / malformed /
//! duplicate / tampered mixes go through a node's ingest → form →
//! commit path, where admission fills the ledger's verified set and
//! commit hits it, and the very same formed blocks are replayed through
//! `commit_batch_planned` on a fresh ledger (whose empty set always
//! misses — the full check) and through the sequential validate+apply
//! oracle. Verdicts, error strings, commit order and digests must be
//! identical.
//!
//! **Adversarially**: one named test per way a cached verification
//! could be abused or go stale.

use proptest::prelude::*;
use smartchaindb::consensus::{App, BftConfig};
use smartchaindb::core::validate::{record_validated, validate_transaction};
use smartchaindb::core::{
    commit_batch, commit_batch_planned, determine_children, VerifiedSigners, WaveSchedule,
};
use smartchaindb::json::{arr, obj};
use smartchaindb::sim::SimTime;
use smartchaindb::workload::{scdb_plan, ScenarioConfig};
use smartchaindb::{
    KeyPair, LedgerState, LedgerView, Mempool, MempoolConfig, Node, Operation, PipelineOptions,
    SmartchainCluster, SmartchainHarness, Telemetry, Transaction, TxBuilder, ValidationError,
};
use std::sync::Arc;

fn seed_key(tag: u8, index: u8) -> KeyPair {
    let mut seed = [0u8; 32];
    seed[0] = tag;
    seed[1] = index;
    seed[31] = 0x5e;
    KeyPair::from_seed(seed)
}

fn escrow() -> KeyPair {
    seed_key(0xE5, 0)
}

fn fresh_ledger() -> LedgerState {
    let mut ledger = LedgerState::new();
    ledger.add_reserved_account(escrow().public_hex());
    ledger
}

fn create(owner: &KeyPair, nonce: u64) -> Transaction {
    TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
        .output(owner.public_hex(), 1)
        .nonce(nonce)
        .sign(&[owner])
}

/// A set filler: `template`'s body under the id `filler-{n}`.
fn filler_tx(template: &Transaction, n: usize) -> Arc<Transaction> {
    Arc::new(Transaction {
        id: format!("filler-{n}"),
        ..template.clone()
    })
}

fn transfer(asset: &Transaction, from: &KeyPair, to: &KeyPair, n: u64) -> Transaction {
    TxBuilder::transfer(asset.id.clone())
        .input(asset.id.clone(), 0, vec![from.public_hex()])
        .output_with_prev(to.public_hex(), 1, vec![from.public_hex()])
        .metadata(obj! { "n" => n })
        .sign(&[from])
}

/// One auction: creates, request, bids, and the accept signed by
/// `accept_signer` (the requester, unless a test forges it).
struct Auction {
    requester: KeyPair,
    creates: Vec<Transaction>,
    request: Transaction,
    bids: Vec<Transaction>,
    accept: Transaction,
}

fn auction(a: u8, bidders: usize, accept_signer: Option<&KeyPair>) -> Auction {
    let escrow = escrow();
    let requester = seed_key(0x50, a);
    let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
        .output(requester.public_hex(), 1)
        .nonce(a as u64)
        .sign(&[&requester]);
    let suppliers: Vec<KeyPair> = (0..bidders as u8).map(|b| seed_key(0x10 + a, b)).collect();
    let creates: Vec<Transaction> = suppliers
        .iter()
        .enumerate()
        .map(|(b, s)| create(s, ((a as u64) << 8) | b as u64))
        .collect();
    let bids: Vec<Transaction> = creates
        .iter()
        .zip(&suppliers)
        .map(|(asset, supplier)| {
            TxBuilder::bid(asset.id.clone(), request.id.clone())
                .input(asset.id.clone(), 0, vec![supplier.public_hex()])
                .output_with_prev(escrow.public_hex(), 1, vec![supplier.public_hex()])
                .sign(&[supplier])
        })
        .collect();
    let mut accept = TxBuilder::accept_bid(bids[0].id.clone(), request.id.clone())
        .output_with_prev(requester.public_hex(), 1, vec![escrow.public_hex()]);
    for bid in &bids {
        accept = accept.input(bid.id.clone(), 0, vec![escrow.public_hex()]);
    }
    for supplier in suppliers.iter().skip(1) {
        accept = accept.output_with_prev(supplier.public_hex(), 1, vec![escrow.public_hex()]);
    }
    let accept = accept.sign(&[accept_signer.unwrap_or(&requester)]);
    Auction {
        requester,
        creates,
        request,
        bids,
        accept,
    }
}

impl Auction {
    fn txs(&self) -> Vec<Transaction> {
        let mut txs = self.creates.clone();
        txs.push(self.request.clone());
        txs.extend(self.bids.iter().cloned());
        txs.push(self.accept.clone());
        txs
    }
}

/// Commits everything up to (not including) the accept, sequentially.
fn commit_up_to_accept(ledger: &mut LedgerState, auction: &Auction) {
    let txs = auction.txs();
    for tx in &txs[..txs.len() - 1] {
        validate_transaction(tx, &*ledger).expect("auction prefix validates");
        ledger.apply(tx).expect("auction prefix applies");
    }
}

fn rejected_strings(rejected: &[(usize, ValidationError)]) -> Vec<(usize, String)> {
    rejected.iter().map(|(i, e)| (*i, e.to_string())).collect()
}

/// Applies the children of every ACCEPT_BID among `committed`, in
/// commit order — what the node's return-queue pump does after a block.
fn settle_children(ledger: &mut LedgerState, block: &[Arc<Transaction>], committed: &[String]) {
    for id in committed {
        let tx = block
            .iter()
            .find(|t| &t.id == id)
            .expect("committed member");
        if tx.operation != Operation::AcceptBid {
            continue;
        }
        for child in determine_children(&*ledger, tx, &escrow()).expect("children determined") {
            ledger.apply(&child).expect("child settles");
        }
    }
}

/// Drives `payloads` through a node (admission in `chunk`-sized
/// batches, blocks of at most `max_n`) and replays every formed block
/// on a fresh always-missing ledger and on the sequential oracle.
fn assert_node_equals_fresh_and_sequential(
    payloads: &[String],
    chunk: usize,
    max_n: usize,
) -> Result<(), TestCaseError> {
    let fresh_options = PipelineOptions::with_workers(2).durable(false);
    let mut node = Node::with_options(escrow(), fresh_options.clone());
    let mut fresh = fresh_ledger();
    let mut sequential = fresh_ledger();

    for group in payloads.chunks(chunk) {
        node.ingest_payload_batch(group);
        loop {
            let formed = node.form_proposal(max_n);
            if formed.is_empty() && formed.expelled.is_empty() {
                break;
            }
            let block: Vec<Arc<Transaction>> = formed.txs.clone();
            let schedule: WaveSchedule = formed.schedule.clone();
            let report = node.commit_proposal(formed);
            prop_assert!(report.post_commit_failures.is_empty());
            while node.pump_returns(usize::MAX) > 0 {}

            let outcome = commit_batch_planned(&mut fresh, &block, &schedule, &fresh_options);
            settle_children(&mut fresh, &block, &outcome.committed);

            let mut seq_committed = Vec::new();
            let mut seq_rejected = Vec::new();
            for (i, tx) in block.iter().enumerate() {
                match validate_transaction(tx, &sequential) {
                    Ok(()) => {
                        sequential.apply_shared(tx).expect("validated spends apply");
                        seq_committed.push(tx.id.clone());
                    }
                    Err(e) => seq_rejected.push((i, e.to_string())),
                }
            }
            settle_children(&mut sequential, &block, &seq_committed);

            prop_assert_eq!(&report.outcome.committed, &outcome.committed);
            prop_assert_eq!(&report.outcome.committed, &seq_committed);
            prop_assert_eq!(
                rejected_strings(&report.outcome.rejected),
                rejected_strings(&outcome.rejected)
            );
            prop_assert_eq!(rejected_strings(&report.outcome.rejected), seq_rejected);
            prop_assert_eq!(node.state_digest(), fresh.state_digest());
            prop_assert_eq!(node.state_digest(), sequential.state_digest());
        }
    }
    prop_assert_eq!(node.ledger().committed_ids(), fresh.committed_ids());
    prop_assert_eq!(node.ledger().committed_ids(), sequential.committed_ids());

    // The node's set did the work; the fresh ledger never had one.
    let stats = node.ledger().verified_stats();
    prop_assert_eq!(fresh.verified_stats().hits, 0);
    prop_assert_eq!(sequential.verified_stats().hits, 0);
    if !node.ledger().is_empty() {
        prop_assert!(stats.hits > 0, "admitted traffic must hit: {stats:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The tentpole equivalence: a ledger whose verified set fills at
    /// admission decides exactly what an always-missing ledger and the
    /// sequential oracle decide.
    #[test]
    fn verified_commit_equals_fresh_commit_and_sequential(
        bidders in prop::collection::vec(1usize..4, 1..4),
        forged_accept in any::<bool>(),
        swaps in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..6,
        ),
        corruptions in prop::collection::vec(
            (0u8..6, any::<prop::sample::Index>()),
            0..6,
        ),
        chunk in 0usize..3,
        budget in 0usize..3,
    ) {
        let chunk = [5usize, 16, 1024][chunk];
        let max_n = [3usize, 8, usize::MAX][budget];
        let mallory = seed_key(0x66, 0);
        let mut txs: Vec<Transaction> = Vec::new();
        for (a, &n) in bidders.iter().enumerate() {
            let signer = (forged_accept && a == 0).then_some(&mallory);
            txs.extend(auction(a as u8, n, signer).txs());
        }
        for (i, j) in &swaps {
            let (i, j) = (i.index(txs.len()), j.index(txs.len()));
            txs.swap(i, j);
        }
        let mut payloads: Vec<String> = txs.iter().map(Transaction::to_payload).collect();
        for (round, (kind, at)) in corruptions.iter().enumerate() {
            let at = at.index(payloads.len());
            let round = round as u8;
            match kind {
                // Garbage that fails to parse.
                0 => payloads.insert(at, format!("{{corrupt #{round}")),
                // A spend its owner never signed.
                1 => {
                    let victim = seed_key(0x67, round);
                    let minted = create(&victim, 0xBAD0 + round as u64);
                    let mut stolen = transfer(&minted, &mallory, &mallory, 0);
                    stolen.inputs[0].owners_before = vec![victim.public_hex()];
                    stolen.seal();
                    payloads.insert(at, minted.to_payload());
                    payloads.insert(at + 1, stolen.to_payload());
                }
                // A byte-identical resubmission.
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
                // A double spend: both admitted, one rejected at commit.
                4 => {
                    let owner = seed_key(0x68, round);
                    let minted = create(&owner, 0xD500 + round as u64);
                    payloads.insert(at, minted.to_payload());
                    payloads.insert(at + 1, transfer(&minted, &owner, &mallory, 1).to_payload());
                    payloads.insert(at + 2, transfer(&minted, &owner, &owner, 2).to_payload());
                }
                // A shape the template rejects (CREATE with no outputs).
                5 => {
                    let owner = seed_key(0x69, round);
                    let mut hollow = create(&owner, 0x5C00 + round as u64);
                    hollow.outputs.clear();
                    hollow.seal();
                    payloads.insert(at, hollow.to_payload());
                }
                _ => unreachable!(),
            }
        }
        assert_node_equals_fresh_and_sequential(&payloads, chunk, max_n)?;
    }
}

/// (a) An admitted id handed to commit with a different body — same
/// `id` field, an output amount or a fulfillment changed — is an
/// `IdMismatch`, never a hit.
#[test]
fn admitted_id_with_a_different_body_is_an_id_mismatch_never_a_hit() {
    let mut ledger = fresh_ledger();
    let mut pool = Mempool::default();
    let alice = seed_key(0xA1, 0);
    let genuine = Arc::new(create(&alice, 1));
    pool.admit(Arc::clone(&genuine), &ledger).unwrap();
    assert_eq!(ledger.verified_stats().recorded, 1);

    let mut inflated = (*genuine).clone();
    inflated.outputs[0].amount = 1_000_000;
    let mut resigned = (*genuine).clone();
    resigned.inputs[0].fulfillment = create(&alice, 2).inputs[0].fulfillment.clone();
    for forged in [inflated, resigned] {
        assert_eq!(forged.id, genuine.id);
        let outcome = commit_batch(
            &mut ledger,
            &[Arc::new(forged)],
            &PipelineOptions::with_workers(1).durable(false),
        );
        assert!(outcome.committed.is_empty());
        assert!(
            matches!(outcome.rejected[0].1, ValidationError::IdMismatch { .. }),
            "{:?}",
            outcome.rejected
        );
        // The rejection consumed the entry; re-admit for the next round.
        pool.drain_batch(usize::MAX, &ledger);
        pool.admit(Arc::clone(&genuine), &ledger).unwrap();
    }
    assert_eq!(ledger.verified_stats().hits, 0);
}

/// (b) A re-sealed forgery — consistent id, signature no longer valid —
/// was never admitted under its new id: a miss, and the full check
/// names the signature.
#[test]
fn resealed_forgery_misses_and_fails_the_signature_check() {
    let mut ledger = fresh_ledger();
    let mut pool = Mempool::default();
    let alice = seed_key(0xA1, 0);
    let genuine = Arc::new(create(&alice, 1));
    pool.admit(Arc::clone(&genuine), &ledger).unwrap();

    let mut forged = (*genuine).clone();
    forged.outputs[0].amount = 1_000_000;
    forged.seal();
    assert!(forged.id_is_consistent());
    let outcome = commit_batch(
        &mut ledger,
        &[Arc::new(forged)],
        &PipelineOptions::with_workers(1).durable(false),
    );
    assert!(
        matches!(outcome.rejected[0].1, ValidationError::InvalidSignature(_)),
        "{:?}",
        outcome.rejected
    );
    let stats = ledger.verified_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1));
}

/// (c) An ACCEPT_BID entry vouches only for the requester it was
/// checked against: recorded against A, resolved to B at commit, the
/// signature is verified again.
#[test]
fn accept_bid_verified_against_another_requester_is_re_verified() {
    let mallory = seed_key(0x66, 0);
    let forged = auction(0, 2, Some(&mallory));
    let mut ledger = fresh_ledger();
    commit_up_to_accept(&mut ledger, &forged);
    // Mallory's signature is genuine — for Mallory's key set.
    ledger.record_verified(
        &Arc::new(forged.accept.clone()),
        VerifiedSigners::Explicit(vec![mallory.public_hex()]),
    );
    let verdict = validate_transaction(&forged.accept, &ledger);
    assert!(
        matches!(verdict, Err(ValidationError::InvalidSignature(_))),
        "{verdict:?}"
    );

    // The same entry against the resolved requester is a hit.
    let honest = auction(1, 2, None);
    let mut ledger = fresh_ledger();
    commit_up_to_accept(&mut ledger, &honest);
    ledger.record_verified(
        &Arc::new(honest.accept.clone()),
        VerifiedSigners::Explicit(vec![honest.requester.public_hex()]),
    );
    validate_transaction(&honest.accept, &ledger).expect("requester-signed accept validates");
    assert_eq!(ledger.verified_stats().hits, 1);
}

/// (e) The set is bounded by two generations; overflowing them evicts
/// the oldest entries and changes no verdict — the evicted transaction
/// is simply verified again.
#[test]
fn overflowing_the_cap_evicts_without_changing_a_verdict() {
    let mut ledger = fresh_ledger();
    let mut pool = Mempool::default();
    let alice = seed_key(0xA1, 0);
    let good = Arc::new(create(&alice, 1));
    pool.admit(Arc::clone(&good), &ledger).unwrap();
    let cap = MempoolConfig::default().max_pending;
    for filler in 0..2 * cap {
        ledger.record_verified(&filler_tx(&good, filler), VerifiedSigners::InputOwners);
    }
    assert!(ledger.verified_stats().evicted > 0);

    let batch = pool.drain_batch(usize::MAX, &ledger);
    let options = PipelineOptions::with_workers(1).durable(false);
    let outcome = commit_batch_planned(&mut ledger, &batch.txs, &batch.schedule, &options);
    assert_eq!(outcome.committed, vec![good.id.clone()]);
    let stats = ledger.verified_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1), "evicted ⇒ re-verified");
}

/// (f) A commit-time rejection consumes the entry: the same bytes
/// resubmitted are verified afresh, not waved through.
#[test]
fn rejected_at_commit_then_resubmitted_is_re_verified() {
    let mut ledger = fresh_ledger();
    let mut pool = Mempool::default();
    let alice = seed_key(0xA1, 0);
    let asset = create(&alice, 1);
    ledger.apply(&asset).unwrap();
    let winner = Arc::new(transfer(&asset, &alice, &seed_key(0xB0, 0), 1));
    let loser = Arc::new(transfer(&asset, &alice, &seed_key(0xB1, 0), 2));
    pool.admit(Arc::clone(&winner), &ledger).unwrap();
    pool.admit(Arc::clone(&loser), &ledger).unwrap();
    let batch = pool.drain_batch(usize::MAX, &ledger);
    let options = PipelineOptions::with_workers(2).durable(false);
    let outcome = commit_batch_planned(&mut ledger, &batch.txs, &batch.schedule, &options);
    assert_eq!(outcome.committed, vec![winner.id.clone()]);
    assert_eq!(outcome.rejected.len(), 1);
    let before = ledger.verified_stats();
    assert_eq!((before.hits, before.misses), (2, 0));

    let again = commit_batch(&mut ledger, &[Arc::clone(&loser)], &options);
    assert!(
        matches!(again.rejected[0].1, ValidationError::DoubleSpend(_)),
        "{:?}",
        again.rejected
    );
    let after = ledger.verified_stats();
    assert_eq!(
        (after.hits, after.misses),
        (2, 1),
        "the resubmission missed"
    );
    // Through the front door it is verified — and recorded — again.
    pool.admit(loser, &ledger).unwrap();
    assert_eq!(ledger.verified_stats().recorded, before.recorded + 1);
}

/// (g) A standing ACCEPT_BID is checked once, by the commit that
/// decides it: the three drains it stands through check nothing (the
/// set records nothing for it), and the block that carries it pools
/// its signature against the committed REQUEST's requester, so its
/// validation hits.
#[test]
fn standing_accept_bid_is_checked_once_by_the_commit_that_decides_it() {
    let honest = auction(0, 3, None);
    let mut node = Node::with_options(escrow(), PipelineOptions::with_workers(1).durable(false));
    let txs = honest.txs();
    let (prefix, accept) = txs.split_at(txs.len() - 1);
    let payloads: Vec<String> = prefix.iter().map(Transaction::to_payload).collect();
    for verdict in node.ingest_payload_batch(&payloads) {
        verdict.expect("auction prefix admits");
    }
    while !node.mempool().is_empty() {
        assert!(node.drain_block(usize::MAX).outcome.fully_committed());
    }

    // Three earlier arrivals keep the accept standing for three drains.
    let mut arrivals: Vec<String> = (0..3u8)
        .map(|filler| create(&seed_key(0xF1, filler), filler as u64).to_payload())
        .collect();
    arrivals.push(accept[0].to_payload());
    for verdict in node.ingest_payload_batch(&arrivals) {
        verdict.expect("fillers and the accept admit");
    }
    let before = node.ledger().verified_stats();
    for _ in 0..3 {
        let report = node.drain_block(1);
        assert_ne!(
            report.batch[0].id, honest.accept.id,
            "fillers arrived first"
        );
        assert!(report.outcome.fully_committed());
        let stats = node.ledger().verified_stats();
        assert_eq!(
            stats.recorded, before.recorded,
            "no drain checks the accept"
        );
        assert_eq!(stats.misses, before.misses);
    }

    let report = node.drain_block(1);
    assert_eq!(report.batch[0].id, honest.accept.id);
    assert_eq!(report.outcome.committed, vec![honest.accept.id.clone()]);
    let after = node.ledger().verified_stats();
    assert_eq!(
        after.recorded,
        before.recorded + 1,
        "pooled once, at commit"
    );
    assert_eq!(
        after.hits,
        before.hits + 4,
        "three fillers and the accept hit"
    );
    assert_eq!(after.misses, before.misses, "nothing took the serial check");
}

/// A re-sealed ACCEPT_BID signed by a non-requester goes the whole
/// ingest path: admission takes it (its signer set is the REQUEST's
/// requester, a commit-time rule), the drain forms it into the block
/// like any member, and the commit rejects it with exactly the verdict
/// the sequential oracle gives.
#[test]
fn forged_accept_reaches_its_block_and_the_commit_rejects_it() {
    let mallory = seed_key(0x66, 0);
    let forged = auction(0, 2, Some(&mallory));
    assert!(forged.accept.id_is_consistent(), "sealed under its own id");
    let mut node = Node::with_options(escrow(), PipelineOptions::with_workers(2).durable(false));
    let txs = forged.txs();
    let (prefix, accept) = txs.split_at(txs.len() - 1);
    let payloads: Vec<String> = prefix.iter().map(Transaction::to_payload).collect();
    for verdict in node.ingest_payload_batch(&payloads) {
        verdict.expect("auction prefix admits");
    }
    while !node.mempool().is_empty() {
        assert!(node.drain_block(usize::MAX).outcome.fully_committed());
    }
    let mut oracle = fresh_ledger();
    commit_up_to_accept(&mut oracle, &forged);
    assert_eq!(node.state_digest(), oracle.state_digest());
    let expected = validate_transaction(&accept[0], &oracle).expect_err("forged accept");
    assert!(
        matches!(expected, ValidationError::InvalidSignature(_)),
        "{expected}"
    );

    let admitted = node.ingest_payload_batch(&[accept[0].to_payload()]);
    assert!(admitted[0].is_ok(), "admitted: {admitted:?}");
    let formed = node.form_proposal(usize::MAX);
    let ids: Vec<&str> = formed.txs.iter().map(|t| t.id.as_str()).collect();
    assert_eq!(
        ids,
        vec![forged.accept.id.as_str()],
        "the accept is in the block"
    );
    let report = node.commit_proposal(formed);
    assert!(report.expelled.is_empty());
    assert!(report.outcome.committed.is_empty());
    assert_eq!(
        rejected_strings(&report.outcome.rejected),
        vec![(0, expected.to_string())]
    );
    assert!(node.mempool().is_empty());
    assert_eq!(node.state_digest(), oracle.state_digest());
}

/// (h) Each replica owns its set: replica 0's CheckTx lets replica 0's
/// delivery hit, and does nothing for replica 1.
#[test]
fn check_tx_on_one_replica_does_not_hit_on_another() {
    // Telemetry off, so the counters are per ledger, not per registry.
    let options = PipelineOptions::with_workers(1).with_telemetry(Telemetry::disabled());
    let mut cluster = SmartchainCluster::with_options(2, options);
    let payload = create(&seed_key(0xA1, 0), 1).to_payload();
    let decoded = cluster.decode(&payload).expect("decodes");
    cluster.check_tx(0, 1, &decoded).expect("CheckTx passes");
    let stats = |c: &SmartchainCluster, node| {
        let s = c.ledger(node).verified_stats();
        (s.hits, s.misses, s.recorded)
    };
    assert_eq!(stats(&cluster, 0), (0, 1, 1));
    assert_eq!(stats(&cluster, 1), (0, 0, 0));

    // Replica 1 never CheckTx'd these bytes: its delivery verifies them
    // for itself (the block pool records, the commit then hits) —
    // replica 0's entry did nothing for it.
    cluster.deliver_tx(1, 1, &decoded).expect("delivers");
    assert_eq!(
        stats(&cluster, 1),
        (1, 0, 1),
        "replica 1 verified for itself"
    );
    cluster.deliver_tx(0, 1, &decoded).expect("delivers");
    assert_eq!(stats(&cluster, 0), (1, 1, 1), "replica 0 verified once");
    assert_eq!(cluster.state_digest(0), cluster.state_digest(1));
}

/// The acceptance count: on the ingest → form → commit path every
/// signature is checked once — no misses at commit, one hit per
/// committed client transaction, each ACCEPT_BID pooled by the commit
/// that decides it.
#[test]
fn every_signature_is_checked_once_on_the_ingest_path() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let plan = scdb_plan(
        &ScenarioConfig {
            requests: 6,
            bidders_per_request: 2,
            capability_count: 2,
            capability_bytes: 16,
            seed: 0x0CE,
        },
        &escrow.public_hex(),
    );
    let telemetry = Telemetry::enabled();
    let mut node = Node::with_options(
        escrow,
        PipelineOptions::default().with_telemetry(telemetry.clone()),
    );
    let mut client_txs = 0u64;
    for phase in plan.phases() {
        for verdict in node.ingest_payload_batch(&phase) {
            verdict.expect("generated stream admits");
        }
        while !node.mempool().is_empty() {
            let report = node.drain_block(8);
            assert!(report.outcome.rejected.is_empty());
            client_txs += report.outcome.committed.len() as u64;
            while node.pump_returns(64) > 0 {}
        }
    }
    assert_eq!(client_txs, 6 * (2 + 1 + 2 + 1));
    let counters = telemetry.snapshot().expect("telemetry is on").counters;
    assert_eq!(counters.get("verified.misses").copied().unwrap_or(0), 0);
    assert_eq!(counters["verified.hits"], client_txs);
    assert_eq!(counters["verified.recorded"], client_txs);
}

/// Re-recording an id that already moved to the old generation moves
/// its one entry back to the young generation: counted once, and not
/// evicted by the next swap while it is still live.
#[test]
fn re_recording_an_old_generation_id_moves_it_and_counts_once() {
    let mut ledger = fresh_ledger();
    let mut pool = Mempool::default();
    let alice = seed_key(0xA1, 0);
    let good = Arc::new(create(&alice, 1));
    pool.admit(Arc::clone(&good), &ledger).unwrap();
    let cap = MempoolConfig::default().max_pending;
    // The young generation fills and swaps: `good` is now old.
    for n in 1..cap {
        ledger.record_verified(&filler_tx(&good, n), VerifiedSigners::InputOwners);
    }
    let swapped = ledger.verified_stats();
    assert_eq!((swapped.recorded, swapped.evicted), (cap as u64, 0));

    ledger.record_verified(&good, VerifiedSigners::InputOwners);
    assert_eq!(ledger.verified_stats().recorded, cap as u64, "counted once");
    // The next swap drops the fillers only.
    for n in cap..2 * cap - 1 {
        ledger.record_verified(&filler_tx(&good, n), VerifiedSigners::InputOwners);
    }
    assert_eq!(ledger.verified_stats().evicted, cap as u64 - 1);

    let batch = pool.drain_batch(usize::MAX, &ledger);
    let options = PipelineOptions::with_workers(1).durable(false);
    let outcome = commit_batch_planned(&mut ledger, &batch.txs, &batch.schedule, &options);
    assert_eq!(outcome.committed, vec![good.id.clone()]);
    let stats = ledger.verified_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0), "still live ⇒ a hit");
}

/// Validating the very `Arc` admission recorded hits without an id
/// recompute.
#[test]
fn a_hit_on_the_pinned_arc_does_not_rehash() {
    let ledger = fresh_ledger();
    let mut pool = Mempool::default();
    let genuine = Arc::new(create(&seed_key(0xA1, 0), 1));
    pool.admit(Arc::clone(&genuine), &ledger).unwrap();
    validate_transaction(&genuine, &ledger).expect("admitted create validates");
    let stats = ledger.verified_stats();
    assert_eq!((stats.hits, stats.rehashed, stats.misses), (1, 0, 0));
}

/// Another object with the verified body — a clone — is bound to the
/// entry by the id recompute: a hit that pays exactly one rehash.
#[test]
fn a_clone_with_the_same_body_hits_with_one_rehash() {
    let ledger = fresh_ledger();
    let mut pool = Mempool::default();
    let genuine = Arc::new(create(&seed_key(0xA1, 0), 1));
    pool.admit(Arc::clone(&genuine), &ledger).unwrap();
    let clone = (*genuine).clone();
    validate_transaction(&clone, &ledger).expect("the clone validates");
    let stats = ledger.verified_stats();
    assert_eq!((stats.hits, stats.rehashed, stats.misses), (1, 1, 0));
}

/// `Arc::make_mut` on a pinned transaction moves the value to a new
/// allocation, so an edit under the old id is not the pinned object: the
/// recompute names the mismatch, and the lookup is a miss.
#[test]
fn make_mut_then_an_edit_under_the_old_id_is_an_id_mismatch() {
    let ledger = fresh_ledger();
    let mut tx = Arc::new(create(&seed_key(0xA1, 0), 1));
    validate_transaction(&tx, &ledger).expect("the create validates");
    record_validated(&tx, &ledger);
    let pinned = Arc::as_ptr(&tx);
    let id = tx.id.clone();

    Arc::make_mut(&mut tx).outputs[0].amount = 1_000_000;
    assert_ne!(Arc::as_ptr(&tx), pinned, "the pin forces a move");
    assert_eq!(tx.id, id);
    let verdict = validate_transaction(&tx, &ledger);
    assert!(
        matches!(verdict, Err(ValidationError::IdMismatch { .. })),
        "{verdict:?}"
    );
    let stats = ledger.verified_stats();
    assert_eq!((stats.hits, stats.rehashed, stats.misses), (0, 0, 2));
}

/// Once every strong reference is gone, a re-parse of the same payload
/// is a new object: one rehash, and the verdict of the full check.
#[test]
fn a_re_parse_after_the_pinned_arc_is_dropped_rehashes_once() {
    let alice = seed_key(0xA1, 0);
    let asset = create(&alice, 1);
    let payload = transfer(&asset, &alice, &seed_key(0xB0, 0), 1).to_payload();
    let mut fresh = fresh_ledger();
    let mut ledger = fresh_ledger();
    fresh.apply(&asset).unwrap();
    ledger.apply(&asset).unwrap();

    let tx = Arc::new(Transaction::from_payload(&payload).unwrap());
    validate_transaction(&tx, &ledger).expect("the transfer validates");
    record_validated(&tx, &ledger);
    drop(tx);

    let again = Transaction::from_payload(&payload).unwrap();
    assert_eq!(
        validate_transaction(&again, &ledger),
        validate_transaction(&again, &fresh)
    );
    let stats = ledger.verified_stats();
    assert_eq!((stats.hits, stats.rehashed, stats.misses), (1, 1, 1));
}

/// On both ingest paths — a consensus cluster's Submit → CheckTx →
/// block → DeliverTx, and a node's ingest → drain → commit — every
/// stage shares the receiver's `Arc`, so no hit pays the id recompute.
#[test]
fn the_cluster_and_node_ingest_paths_never_rehash() {
    let config = ScenarioConfig {
        requests: 3,
        bidders_per_request: 2,
        capability_count: 2,
        capability_bytes: 16,
        seed: 0x0CF,
    };
    let counters = |telemetry: &Telemetry| {
        let counters = telemetry.snapshot().expect("telemetry is on").counters;
        let read = |name: &str| counters.get(name).copied().unwrap_or(0);
        (read("verified.hits"), read("verified.rehashed"))
    };

    let telemetry = Telemetry::enabled();
    let mut harness = SmartchainHarness::with_pipeline(
        BftConfig::tendermint(4),
        PipelineOptions::default().with_telemetry(telemetry.clone()),
    );
    let plan = scdb_plan(&config, &harness.escrow_public_hex());
    for phase in plan.phases() {
        let now = harness.consensus().now() + SimTime::from_millis(1);
        for payload in phase {
            harness.submit_at(now, payload);
        }
        harness.run();
    }
    let (hits, rehashed) = counters(&telemetry);
    assert!(hits > 0, "the cluster hit its verified sets");
    assert_eq!(rehashed, 0, "cluster");

    let escrow = KeyPair::from_seed([0xE5; 32]);
    let plan = scdb_plan(&config, &escrow.public_hex());
    let telemetry = Telemetry::enabled();
    let mut node = Node::with_options(
        escrow,
        PipelineOptions::default().with_telemetry(telemetry.clone()),
    );
    for phase in plan.phases() {
        for verdict in node.ingest_payload_batch(&phase) {
            verdict.expect("generated stream admits");
        }
        while !node.mempool().is_empty() {
            node.drain_block(8);
            while node.pump_returns(64) > 0 {}
        }
    }
    let (hits, rehashed) = counters(&telemetry);
    assert!(hits > 0, "the node hit its verified set");
    assert_eq!(rehashed, 0, "node");
}
