//! Integration: the §4.2.1 failure taxonomy under consensus — crashes
//! during parent processing, during child enqueueing, and during child
//! settlement — plus driver-level retry and mid-apply failure injection
//! for the commit pipeline.

use smartchaindb::consensus::{TxId, TxStatus};
use smartchaindb::core::pipeline::commit_batch;
use smartchaindb::core::validate::validate_transaction;
use smartchaindb::driver::{Driver, DriverConfig, DriverError, FlakyEndpoint};
use smartchaindb::json::{arr, obj};
use smartchaindb::sim::SimTime;
use smartchaindb::{
    KeyPair, LedgerState, LedgerView, NestedStatus, Node, PipelineOptions, SmartchainHarness,
    Transaction, TxBuilder,
};
use std::sync::Arc;

fn people() -> (KeyPair, KeyPair, KeyPair) {
    (
        KeyPair::from_seed([0x5A; 32]), // sally
        KeyPair::from_seed([0xA1; 32]), // alice
        KeyPair::from_seed([0xB0; 32]), // bob
    )
}

/// Builds and commits everything up to (not including) the accept on a
/// cluster; returns the pieces to accept later.
fn stage_auction(cluster: &mut SmartchainHarness) -> (Transaction, Transaction, Transaction) {
    let (sally, alice, bob) = people();
    let escrow_pk = cluster.escrow_public_hex();
    let asset_a = TxBuilder::create(obj! { "capabilities" => arr!["3d-print"] })
        .output(alice.public_hex(), 1)
        .nonce(1)
        .sign(&[&alice]);
    let asset_b = TxBuilder::create(obj! { "capabilities" => arr!["3d-print"] })
        .output(bob.public_hex(), 1)
        .nonce(2)
        .sign(&[&bob]);
    let request = TxBuilder::request(obj! { "capabilities" => arr!["3d-print"] })
        .output(sally.public_hex(), 1)
        .sign(&[&sally]);
    let t = SimTime::from_millis(1);
    cluster.submit_at(t, asset_a.to_payload());
    cluster.submit_at(t, asset_b.to_payload());
    cluster.submit_at(t, request.to_payload());
    cluster.run();

    let mk_bid = |asset: &Transaction, owner: &KeyPair| {
        TxBuilder::bid(asset.id.clone(), request.id.clone())
            .input(asset.id.clone(), 0, vec![owner.public_hex()])
            .output_with_prev(escrow_pk.clone(), 1, vec![owner.public_hex()])
            .sign(&[owner])
    };
    let bid_a = mk_bid(&asset_a, &alice);
    let bid_b = mk_bid(&asset_b, &bob);
    let now = cluster.consensus().now();
    cluster.submit_at(now, bid_a.to_payload());
    cluster.submit_at(now, bid_b.to_payload());
    cluster.run();
    (request, bid_a, bid_b)
}

fn build_accept(
    cluster: &SmartchainHarness,
    request: &Transaction,
    bid_a: &Transaction,
    bid_b: &Transaction,
) -> Transaction {
    let (sally, _, bob) = people();
    let escrow_pk = cluster.escrow_public_hex();
    TxBuilder::accept_bid(bid_a.id.clone(), request.id.clone())
        .input(bid_a.id.clone(), 0, vec![escrow_pk.clone()])
        .input(bid_b.id.clone(), 0, vec![escrow_pk.clone()])
        .output_with_prev(sally.public_hex(), 1, vec![escrow_pk.clone()])
        .output_with_prev(bob.public_hex(), 1, vec![escrow_pk.clone()])
        .sign(&[&sally])
}

#[test]
fn nested_settlement_survives_a_minority_crash() {
    // One validator (f = 1 of 4) dies right before the accept: the
    // parent and all children still settle on the live replicas.
    let mut cluster = SmartchainHarness::new(4);
    let (request, bid_a, bid_b) = stage_auction(&mut cluster);
    let accept = build_accept(&cluster, &request, &bid_a, &bid_b);

    let now = cluster.consensus().now();
    cluster.consensus_mut().crash_at(now, 3);
    let handle = cluster.consensus_mut().submit_at_node(
        now + SimTime::from_millis(2),
        0,
        accept.to_payload(),
    );
    cluster.run();

    assert!(matches!(
        cluster.consensus().status(handle),
        TxStatus::Committed(_)
    ));
    assert_eq!(cluster.consensus().app().nested_completed(), 1);
    for node in 0..3 {
        assert!(
            cluster
                .consensus()
                .app()
                .ledger(node)
                .is_committed(&accept.id),
            "node {node}"
        );
    }
}

#[test]
fn supermajority_crash_stalls_and_resumes_nested_settlement() {
    // The §4.2.1 case (2) scenario: >1/3 of voting power offline while
    // the parent is in flight. Everything stalls (no partial
    // settlement!) and resumes when quorum returns.
    let mut cluster = SmartchainHarness::new(4);
    let (request, bid_a, bid_b) = stage_auction(&mut cluster);
    let accept = build_accept(&cluster, &request, &bid_a, &bid_b);

    let now = cluster.consensus().now();
    cluster.consensus_mut().crash_at(now, 2);
    cluster.consensus_mut().crash_at(now, 3);
    let handle = cluster.consensus_mut().submit_at_node(
        now + SimTime::from_millis(2),
        0,
        accept.to_payload(),
    );
    let deadline = now + SimTime::from_secs(30);
    cluster.consensus_mut().run_until(deadline);
    assert!(
        matches!(cluster.consensus().status(handle), TxStatus::Pending),
        "no quorum => no commit: {:?}",
        cluster.consensus().status(handle)
    );
    assert_eq!(
        cluster.consensus().app().nested_completed(),
        0,
        "no partial settlement"
    );

    let resume = deadline + SimTime::from_secs(1);
    cluster.consensus_mut().recover_at(resume, 2);
    cluster.consensus_mut().recover_at(resume, 3);
    cluster.run();
    assert!(matches!(
        cluster.consensus().status(handle),
        TxStatus::Committed(_)
    ));
    assert_eq!(
        cluster.consensus().app().nested_completed(),
        1,
        "children settle after resume"
    );
}

/// `SmartchainHarness::run`'s loop, spelled out so every child payload
/// the cluster's outbox hands out is seen: runs to quiescence, submits
/// each drained child (returned in `drained`), and retries children a
/// lagging receiver rejected one block later — a retry resubmits, it
/// never drains again.
fn run_draining(cluster: &mut SmartchainHarness, drained: &mut Vec<String>) {
    let h = cluster.consensus_mut();
    let mut children: Vec<(TxId, String, u32)> = Vec::new();
    loop {
        let progressed = h.has_live_work() && h.step();
        let outbox = h.app_mut().drain_outbox();
        if !outbox.is_empty() {
            let now = h.now();
            for payload in outbox {
                children.push((h.submit_at(now, payload.clone()), payload.clone(), 0));
                drained.push(payload);
            }
            continue;
        }
        if progressed {
            continue;
        }
        let retry_at = h.now() + h.config().block_interval;
        let mut resubmitted = false;
        for (handle, payload, attempts) in &mut children {
            if *attempts < 8 && matches!(h.status(*handle), TxStatus::Rejected(_)) {
                *handle = h.submit_at(retry_at, payload.clone());
                *attempts += 1;
                resubmitted = true;
            }
        }
        if !resubmitted {
            break;
        }
    }
}

#[test]
fn each_accepts_children_reach_the_outbox_exactly_once() {
    // The first replica to settle an accept dispatches its children;
    // every other commit hook — live replicas, and replicas executing
    // the accept's block late after a crash — must not. Two schedules:
    // a supermajority outage the accept waits out, and a minority
    // outage whose replica catches up after the children settled.
    for supermajority in [true, false] {
        let mut cluster = SmartchainHarness::new(4);
        let (request, bid_a, bid_b) = stage_auction(&mut cluster);
        let accept = build_accept(&cluster, &request, &bid_a, &bid_b);
        let down: &[usize] = if supermajority { &[2, 3] } else { &[3] };

        let now = cluster.consensus().now();
        for &node in down {
            cluster.consensus_mut().crash_at(now, node);
        }
        let handle = cluster.consensus_mut().submit_at_node(
            now + SimTime::from_millis(2),
            0,
            accept.to_payload(),
        );
        let mut drained = Vec::new();
        if supermajority {
            // No quorum: nothing commits, nothing is dispatched.
            let deadline = now + SimTime::from_secs(30);
            cluster.consensus_mut().run_until(deadline);
            assert!(cluster.consensus_mut().app_mut().drain_outbox().is_empty());
            for &node in down {
                cluster
                    .consensus_mut()
                    .recover_at(deadline + SimTime::from_secs(1), node);
            }
            run_draining(&mut cluster, &mut drained);
        } else {
            run_draining(&mut cluster, &mut drained);
            // The children settled without node 3; it now executes the
            // accept's block (and the children's) on catching up.
            assert_eq!(cluster.consensus().app().nested_completed(), 1);
            let late = cluster.consensus().now() + SimTime::from_millis(1);
            cluster.consensus_mut().recover_at(late, 3);
            run_draining(&mut cluster, &mut drained);
        }

        let what = if supermajority {
            "supermajority"
        } else {
            "minority"
        };
        assert!(
            matches!(cluster.consensus().status(handle), TxStatus::Committed(_)),
            "{what}"
        );
        // Exactly one payload per child: one per accepted input.
        let mut children: Vec<String> = drained
            .iter()
            .map(|payload| {
                let child = Transaction::from_payload(payload).expect("child payload parses");
                assert_eq!(
                    child.metadata.get("parent").and_then(|v| v.as_str()),
                    Some(accept.id.as_str()),
                    "{what}"
                );
                child.id
            })
            .collect();
        children.sort_unstable();
        children.dedup();
        assert_eq!(
            children.len(),
            drained.len(),
            "{what}: a child dispatched twice"
        );
        assert_eq!(drained.len(), accept.inputs.len(), "{what}");
        let app = cluster.consensus().app();
        assert_eq!(app.nested_completed(), 1, "{what}");
        // Nothing is left to bound: the dispatch mark is the replicas'
        // own trackers, and at quiescence every one holds the accept
        // complete.
        for node in 0..4 {
            assert_eq!(
                app.tracker(node).status(&accept.id),
                Some(NestedStatus::Complete),
                "{what}: node {node}"
            );
        }
    }
}

#[test]
fn single_node_recovery_log_resettles_lost_children() {
    // §4.2.1 case (2.b): crash while the RETURNs sit in the queue.
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let mut node = Node::new(escrow);
    let (sally, alice, bob) = people();
    let escrow_pk = node.escrow_public_hex();

    let asset_a = TxBuilder::create(obj! { "capabilities" => arr!["x"] })
        .output(alice.public_hex(), 1)
        .nonce(1)
        .sign(&[&alice]);
    let asset_b = TxBuilder::create(obj! { "capabilities" => arr!["x"] })
        .output(bob.public_hex(), 1)
        .nonce(2)
        .sign(&[&bob]);
    let request = TxBuilder::request(obj! { "capabilities" => arr!["x"] })
        .output(sally.public_hex(), 1)
        .sign(&[&sally]);
    for tx in [&asset_a, &asset_b, &request] {
        node.process_transaction(&tx.to_payload()).unwrap();
    }
    let mk_bid = |asset: &Transaction, owner: &KeyPair| {
        TxBuilder::bid(asset.id.clone(), request.id.clone())
            .input(asset.id.clone(), 0, vec![owner.public_hex()])
            .output_with_prev(escrow_pk.clone(), 1, vec![owner.public_hex()])
            .sign(&[owner])
    };
    let bid_a = mk_bid(&asset_a, &alice);
    let bid_b = mk_bid(&asset_b, &bob);
    node.process_transaction(&bid_a.to_payload()).unwrap();
    node.process_transaction(&bid_b.to_payload()).unwrap();
    let accept = TxBuilder::accept_bid(bid_a.id.clone(), request.id.clone())
        .input(bid_a.id.clone(), 0, vec![escrow_pk.clone()])
        .input(bid_b.id.clone(), 0, vec![escrow_pk.clone()])
        .output_with_prev(sally.public_hex(), 1, vec![escrow_pk.clone()])
        .output_with_prev(bob.public_hex(), 1, vec![escrow_pk.clone()])
        .sign(&[&sally]);
    node.process_transaction(&accept.to_payload()).unwrap();

    // Crash with both children still queued; settle one first to prove
    // recovery only re-enqueues the outstanding remainder.
    assert_eq!(node.pump_returns(1), 1);
    let lost = node.queue().drain(usize::MAX);
    assert_eq!(lost.len(), 1);

    assert_eq!(node.recover(), 1, "only the unsettled child returns");
    assert_eq!(node.pump_returns(usize::MAX), 1);
    assert_eq!(
        node.tracker().status(&accept.id),
        Some(NestedStatus::Complete)
    );
}

#[test]
fn rejected_mid_wave_txs_leave_every_shard_untouched() {
    // A batch made entirely of invalid transactions — bad signature,
    // missing input, double spend — run through the sharded parallel
    // pipeline. Every shard of the 16-shard UTXO set must come out
    // byte-identical to how it went in.
    let (_, alice, bob) = people();
    let mut node = Node::with_options(
        KeyPair::from_seed([0xE5; 32]),
        PipelineOptions::with_workers(4).utxo_shards(16),
    );
    let asset_a = TxBuilder::create(obj! { "capabilities" => arr!["x"] })
        .output(alice.public_hex(), 3)
        .nonce(1)
        .sign(&[&alice]);
    let asset_b = TxBuilder::create(obj! { "capabilities" => arr!["x"] })
        .output(alice.public_hex(), 2)
        .nonce(2)
        .sign(&[&alice]);
    let spend_a = TxBuilder::transfer(asset_a.id.clone())
        .input(asset_a.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(bob.public_hex(), 3, vec![alice.public_hex()])
        .sign(&[&alice]);
    for tx in [&asset_a, &asset_b, &spend_a] {
        node.process_transaction(&tx.to_payload()).unwrap();
    }
    let before = node.ledger().utxos().snapshot();

    // (1) Bad signature: claims alice's output, signed by bob.
    let bad_signature = TxBuilder::transfer(asset_b.id.clone())
        .input(asset_b.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(bob.public_hex(), 2, vec![alice.public_hex()])
        .sign(&[&bob]);
    // (2) Missing input: spends an output that never existed.
    let missing_input = TxBuilder::transfer(asset_b.id.clone())
        .input("7".repeat(64), 0, vec![alice.public_hex()])
        .output_with_prev(bob.public_hex(), 2, vec![alice.public_hex()])
        .sign(&[&alice]);
    // (3) Double spend: asset_a's output was already consumed.
    let double_spend = TxBuilder::transfer(asset_a.id.clone())
        .input(asset_a.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(bob.public_hex(), 3, vec![alice.public_hex()])
        .metadata(obj! { "n" => 2 })
        .sign(&[&alice]);

    let report = node.submit_batch(&[
        bad_signature.to_payload(),
        missing_input.to_payload(),
        double_spend.to_payload(),
    ]);
    assert!(report.outcome.committed.is_empty());
    assert_eq!(report.outcome.rejected.len(), 3, "{report:?}");
    assert_eq!(
        node.ledger().utxos().snapshot(),
        before,
        "a rejected transaction mutated a shard"
    );
}

#[test]
fn failed_apply_is_atomic_across_shards() {
    // Bypass validation and drive apply directly: a transaction whose
    // spends straddle several shards but include one unknown ref must
    // leave the whole sharded set untouched — the all-or-nothing
    // guarantee the parallel wave apply relies on for rejected members.
    let (_, alice, bob) = people();
    let mut ledger = LedgerState::with_utxo_shards(16);
    let create = TxBuilder::create(obj! {})
        .output(alice.public_hex(), 1)
        .output(alice.public_hex(), 1)
        .output(alice.public_hex(), 1)
        .sign(&[&alice]);
    ledger.apply(&create).unwrap();
    let before = ledger.utxos().snapshot();

    let mut rogue = TxBuilder::transfer(create.id.clone())
        .input(create.id.clone(), 0, vec![alice.public_hex()])
        .input(create.id.clone(), 1, vec![alice.public_hex()])
        .input("9".repeat(64), 2, vec![alice.public_hex()])
        .output_with_prev(bob.public_hex(), 3, vec![alice.public_hex()])
        .sign(&[&alice]);
    assert!(ledger.apply(&rogue).is_err(), "unknown input must fail");
    assert_eq!(
        ledger.utxos().snapshot(),
        before,
        "failed apply left partial spends behind"
    );

    // The same spends without the ghost ref go through whole.
    rogue = TxBuilder::transfer(create.id.clone())
        .input(create.id.clone(), 0, vec![alice.public_hex()])
        .input(create.id.clone(), 1, vec![alice.public_hex()])
        .output_with_prev(bob.public_hex(), 2, vec![alice.public_hex()])
        .sign(&[&alice]);
    ledger.apply(&rogue).unwrap();
    assert_eq!(ledger.utxos().balance(&bob.public_hex(), &create.id), 2);
}

/// Two complete reverse-auction rounds (creates, request, bids, accept
/// and — when `with_children` — the settlement children) as one
/// phase-ordered batch. Returns the batch, the first auction's
/// winning-bid id (the injection victim) and the second
/// auction's ids (the control group that must stay clean).
fn two_auction_batch(
    escrow: &KeyPair,
    with_children: bool,
) -> (Vec<Arc<Transaction>>, String, Vec<String>) {
    let mut batch = Vec::new();
    let mut victim = String::new();
    let mut control = Vec::new();
    for a in 0..2u8 {
        let requester = KeyPair::from_seed([0x50 + a; 32]);
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(requester.public_hex(), 1)
            .nonce(a as u64)
            .sign(&[&requester]);
        let mut creates = Vec::new();
        let mut bids = Vec::new();
        let mut suppliers = Vec::new();
        for b in 0..2u8 {
            let supplier = KeyPair::from_seed([0x10 + a * 2 + b; 32]);
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
        let accept = TxBuilder::accept_bid(bids[0].id.clone(), request.id.clone())
            .input(bids[0].id.clone(), 0, vec![escrow.public_hex()])
            .input(bids[1].id.clone(), 0, vec![escrow.public_hex()])
            .output_with_prev(requester.public_hex(), 1, vec![escrow.public_hex()])
            .output_with_prev(suppliers[1].public_hex(), 1, vec![escrow.public_hex()])
            .sign(&[&requester]);
        let winner_transfer = TxBuilder::transfer(creates[0].id.clone())
            .input(bids[0].id.clone(), 0, vec![escrow.public_hex()])
            .output_with_prev(requester.public_hex(), 1, vec![escrow.public_hex()])
            .metadata(obj! { "parent" => accept.id.clone(), "settles_bid" => bids[0].id.clone() })
            .sign(&[escrow]);
        let ret = TxBuilder::bid_return(creates[1].id.clone(), bids[1].id.clone())
            .input(bids[1].id.clone(), 0, vec![escrow.public_hex()])
            .output_with_prev(suppliers[1].public_hex(), 1, vec![escrow.public_hex()])
            .metadata(obj! { "parent" => accept.id.clone() })
            .sign(&[escrow]);

        if a == 0 {
            victim = bids[0].id.clone();
        } else {
            control.extend(
                creates
                    .iter()
                    .map(|t| t.id.clone())
                    .chain([request.id.clone()])
                    .chain(bids.iter().map(|t| t.id.clone()))
                    .chain([accept.id.clone()]),
            );
            if with_children {
                control.extend([winner_transfer.id.clone(), ret.id.clone()]);
            }
        }
        batch.extend(creates.into_iter().map(Arc::new));
        batch.push(Arc::new(request));
        batch.extend(bids.into_iter().map(Arc::new));
        batch.push(Arc::new(accept));
        if with_children {
            batch.push(Arc::new(winner_transfer));
            batch.push(Arc::new(ret));
        }
    }
    (batch, victim, control)
}

/// The sequential oracle under the same injection: validate each
/// transaction at its turn; a surviving transaction applies unless it
/// is the injected victim, which aborts mid-apply touching nothing.
fn sequential_with_injection(
    ledger: &mut LedgerState,
    batch: &[Arc<Transaction>],
    fail_apply: &str,
) -> (Vec<String>, Vec<(usize, String)>) {
    let mut committed = Vec::new();
    let mut rejected = Vec::new();
    for (i, tx) in batch.iter().enumerate() {
        match validate_transaction(tx, &*ledger) {
            Ok(()) if tx.id == fail_apply => {
                // The pipeline reports injected aborts through its
                // late-spend-conflict arm; mirror its rendering.
                let error = smartchaindb::ValidationError::DoubleSpend(format!(
                    "injected apply failure for {}",
                    tx.id
                ));
                rejected.push((i, error.to_string()));
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

fn verdict_strings(rejected: &[(usize, smartchaindb::ValidationError)]) -> Vec<(usize, String)> {
    rejected.iter().map(|(i, e)| (*i, e.to_string())).collect()
}

// Keeps its pre-ISSUE-17 name (the test floor tracks it by name): every
// dependent is validated after the abort, none speculatively.
#[test]
fn injected_mid_apply_failure_cascades_through_every_dependent_speculation() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let (batch, victim, control) = two_auction_batch(&escrow, true);
    let fresh = || {
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        ledger
    };

    let mut seq_ledger = fresh();
    let (seq_committed, seq_rejected) = sequential_with_injection(&mut seq_ledger, &batch, &victim);

    let mut ledger = fresh();
    let outcome = commit_batch(
        &mut ledger,
        &batch,
        &PipelineOptions::with_workers(4).inject_apply_failure(victim.clone()),
    );

    // The victim and the three transactions that needed its state (the
    // accept and both settlement children) are rejected; the sibling
    // bid, validated a wave later, commits.
    assert_eq!(outcome.rejected.len(), 4, "{outcome:?}");

    // Byte-identical to the sequential run under the same injection —
    // ids, order, verdicts, UTXO state.
    assert_eq!(outcome.committed, seq_committed);
    assert_eq!(verdict_strings(&outcome.rejected), seq_rejected);
    assert_eq!(ledger.committed_ids(), seq_ledger.committed_ids());
    assert_eq!(ledger.utxos().snapshot(), seq_ledger.utxos().snapshot());

    // The untainted auction settled end to end despite its neighbour's
    // abort.
    for id in &control {
        assert!(ledger.is_committed(id), "control tx {id} lost");
    }
}

#[test]
fn cross_block_injected_failure_cascades_into_the_next_blocks_dependents() {
    // The block-boundary case: the victim bid aborts mid-apply in block
    // k; block k+1 (the accept and both settlement children) depends on
    // it and must be rejected exactly as the sequential run rejects it.
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let (batch, victim, control) = two_auction_batch(&escrow, true);
    // Blocks: auction 0's creates+request+bids (the victim commits
    // here), then auction 0's accept+children (every one a dependent of
    // the victim), then the clean second auction.
    let blocks: [&[Arc<Transaction>]; 3] = [&batch[0..5], &batch[5..8], &batch[8..16]];
    let fresh = || {
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        ledger
    };

    let mut seq_ledger = fresh();
    let seq_blocks: Vec<_> = blocks
        .iter()
        .map(|block| sequential_with_injection(&mut seq_ledger, block, &victim))
        .collect();

    let options = PipelineOptions::with_workers(4).inject_apply_failure(victim.clone());
    let mut ledger = fresh();
    let outcomes: Vec<_> = blocks
        .iter()
        .map(|block| commit_batch(&mut ledger, block, &options))
        .collect();

    // Block k rejects exactly the victim; block k+1's dependents are
    // rejected cleanly.
    assert_eq!(outcomes[0].rejected.len(), 1, "{:?}", outcomes[0]);
    assert_eq!(batch[outcomes[0].rejected[0].0].id, victim);
    assert_eq!(
        outcomes[1].rejected.len(),
        3,
        "accept + both settlement children: {:?}",
        outcomes[1]
    );
    assert!(outcomes[2].rejected.is_empty(), "{:?}", outcomes[2]);

    // Byte-identical to the sequential run under the same injection.
    for (outcome, (seq_committed, seq_rejected)) in outcomes.iter().zip(&seq_blocks) {
        assert_eq!(&outcome.committed, seq_committed);
        assert_eq!(&verdict_strings(&outcome.rejected), seq_rejected);
    }
    assert_eq!(ledger.committed_ids(), seq_ledger.committed_ids());
    assert_eq!(ledger.utxos().snapshot(), seq_ledger.utxos().snapshot());
    for id in &control {
        assert!(ledger.is_committed(id), "control tx {id} lost");
    }
}

#[test]
fn injected_failure_in_every_wave_still_converges_to_sequential() {
    // Harder cascade: fail the first auction's REQUEST itself (wave 0),
    // so everything downstream of it — bids, accept, children — is a
    // dependent that must be rejected.
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let (batch, _, control) = two_auction_batch(&escrow, true);
    let request_id = batch
        .iter()
        .find(|t| t.operation == smartchaindb::Operation::Request)
        .map(|t| t.id.clone())
        .expect("batch has a request");
    let fresh = || {
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        ledger
    };

    let mut seq_ledger = fresh();
    let (seq_committed, seq_rejected) =
        sequential_with_injection(&mut seq_ledger, &batch, &request_id);

    let mut ledger = fresh();
    let outcome = commit_batch(
        &mut ledger,
        &batch,
        &PipelineOptions::with_workers(4).inject_apply_failure(request_id.clone()),
    );

    assert!(
        outcome.rejected.len() >= 6,
        "the request plus its bids, accept and children: {outcome:?}"
    );
    assert_eq!(outcome.committed, seq_committed);
    assert_eq!(verdict_strings(&outcome.rejected), seq_rejected);
    assert_eq!(ledger.utxos().snapshot(), seq_ledger.utxos().snapshot());
    for id in &control {
        assert!(ledger.is_committed(id), "control tx {id} lost");
    }
}

#[test]
fn node_level_injection_keeps_auxiliary_stores_consistent() {
    // The same injected abort through the full server stack (batch
    // without pre-built children, so the commit hook determines them):
    // the rejected accept must enqueue nothing, while the clean
    // auction's accept settles its children through the normal queue,
    // and the document mirror holds exactly the committed set.
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let (batch, victim, control) = two_auction_batch(&escrow, false);
    let payloads: Vec<String> = batch.iter().map(|t| t.to_payload()).collect();

    let mut node = Node::with_options(
        escrow.clone(),
        PipelineOptions::with_workers(4).inject_apply_failure(victim.clone()),
    );
    assert!(node.pipeline_options().fail_apply.contains(&victim));
    let report = node.submit_batch(&payloads);
    assert!(report.parse_failures.is_empty());
    assert!(report.post_commit_failures.is_empty());
    // Victim bid (injected) + its accept; the sibling bid commits.
    assert_eq!(report.outcome.rejected.len(), 2, "{report:?}");

    // Only the clean auction's accept enqueued children.
    assert_eq!(node.queue().len(), 2, "winner transfer + return");
    assert_eq!(node.pump_returns(16), 2);
    let txs = node
        .db()
        .collection(smartchaindb::store::collections::TRANSACTIONS);
    for id in report.outcome.committed.iter().chain(&control) {
        assert!(
            txs.find_one(&smartchaindb::store::Filter::eq("_id", id.clone()))
                .is_some(),
            "{id} missing from the mirror"
        );
    }
    assert!(txs
        .find_one(&smartchaindb::store::Filter::eq("_id", victim.clone()))
        .is_none());
    assert!(!node.ledger().is_committed(&victim));
}

#[test]
fn driver_gives_up_after_budget_with_dead_receiver() {
    let node = Node::new(KeyPair::from_seed([0xE5; 32]));
    let mut driver = Driver::with_config(
        FlakyEndpoint::new(node, 100),
        DriverConfig { max_attempts: 4 },
    );
    let alice = KeyPair::from_seed([0xA1; 32]);
    let tx = TxBuilder::create(obj! {})
        .output(alice.public_hex(), 1)
        .sign(&[&alice]);
    let err = driver.submit_sync(&tx).unwrap_err();
    assert!(matches!(
        err,
        DriverError::RetriesExhausted { attempts: 4, .. }
    ));
    assert_eq!(driver.endpoint().attempts, 4);
}

#[test]
fn chain_progress_is_deterministic_under_faults() {
    // The same fault schedule produces the same timeline (the sim
    // substrate's core property, required for reproducible experiments).
    let run = || {
        let mut cluster = SmartchainHarness::new(4);
        let (request, bid_a, bid_b) = stage_auction(&mut cluster);
        let accept = build_accept(&cluster, &request, &bid_a, &bid_b);
        let now = cluster.consensus().now();
        cluster.consensus_mut().crash_at(now, 1);
        cluster
            .consensus_mut()
            .recover_at(now + SimTime::from_secs(5), 1);
        cluster.submit_at(now + SimTime::from_millis(2), accept.to_payload());
        cluster.run();
        (
            cluster.consensus().committed_count(),
            cluster.consensus().now(),
            cluster.consensus().app().nested_completed(),
        )
    };
    assert_eq!(run(), run());
}
