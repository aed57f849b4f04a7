//! Integration: the batch-parallel validation pipeline across the
//! server stack — `Node::submit_batch` ingesting a full reverse-auction
//! round in one batch, nested settlement riding the normal return
//! queue, and batch delivery through the replicated cluster.

use smartchaindb::core::validate::validate_transaction;
use smartchaindb::json::{arr, obj};
use smartchaindb::sim::SimTime;
use smartchaindb::store::{collections, Filter};
use smartchaindb::workload::{scdb_plan, ScenarioConfig};
use smartchaindb::{
    KeyPair, LedgerState, LedgerView, NestedStatus, Node, PipelineOptions, SmartchainHarness,
    Transaction, TxBuilder,
};

struct Round {
    sally: KeyPair,
    alice: KeyPair,
    bob: KeyPair,
    payloads: Vec<String>,
    asset_a: Transaction,
    request: Transaction,
    bid_a: Transaction,
    bid_b: Transaction,
    accept: Transaction,
}

/// A complete two-supplier reverse auction as one batch of payloads:
/// 2 CREATEs, 1 REQUEST, 2 BIDs, 1 ACCEPT_BID — six transactions whose
/// dependencies all resolve within the batch.
fn auction_round(escrow_pk: &str) -> Round {
    let sally = KeyPair::from_seed([0x5A; 32]);
    let alice = KeyPair::from_seed([0xA1; 32]);
    let bob = KeyPair::from_seed([0xB0; 32]);

    let asset_a = TxBuilder::create(obj! { "capabilities" => arr!["3d-print", "cnc"] })
        .output(alice.public_hex(), 1)
        .nonce(1)
        .sign(&[&alice]);
    let asset_b = TxBuilder::create(obj! { "capabilities" => arr!["3d-print"] })
        .output(bob.public_hex(), 1)
        .nonce(2)
        .sign(&[&bob]);
    let request = TxBuilder::request(obj! { "capabilities" => arr!["3d-print"] })
        .output(sally.public_hex(), 1)
        .nonce(3)
        .sign(&[&sally]);
    let bid_a = TxBuilder::bid(asset_a.id.clone(), request.id.clone())
        .input(asset_a.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(escrow_pk.to_owned(), 1, vec![alice.public_hex()])
        .sign(&[&alice]);
    let bid_b = TxBuilder::bid(asset_b.id.clone(), request.id.clone())
        .input(asset_b.id.clone(), 0, vec![bob.public_hex()])
        .output_with_prev(escrow_pk.to_owned(), 1, vec![bob.public_hex()])
        .sign(&[&bob]);
    let accept = TxBuilder::accept_bid(bid_a.id.clone(), request.id.clone())
        .input(bid_a.id.clone(), 0, vec![escrow_pk.to_owned()])
        .input(bid_b.id.clone(), 0, vec![escrow_pk.to_owned()])
        .output_with_prev(sally.public_hex(), 1, vec![escrow_pk.to_owned()])
        .output_with_prev(bob.public_hex(), 1, vec![escrow_pk.to_owned()])
        .sign(&[&sally]);

    let payloads = vec![
        asset_a.to_payload(),
        asset_b.to_payload(),
        request.to_payload(),
        bid_a.to_payload(),
        bid_b.to_payload(),
        accept.to_payload(),
    ];
    Round {
        sally,
        alice,
        bob,
        payloads,
        asset_a,
        request,
        bid_a,
        bid_b,
        accept,
    }
}

#[test]
fn full_auction_round_commits_as_one_batch() {
    let mut node = Node::with_workers(KeyPair::from_seed([0xE5; 32]), 4);
    let round = auction_round(&node.escrow_public_hex());

    let report = node.submit_batch(&round.payloads);
    assert!(report.fully_committed(), "{:?}", report);
    assert_eq!(report.outcome.committed.len(), 6);
    // Commit order is submission order.
    assert_eq!(report.outcome.committed[2], round.request.id);
    assert_eq!(node.ledger().committed_ids().len(), 6);
    // The dependency chain forces layering, but the two independent
    // CREATEs (and the two BIDs on the same request, which commute)
    // still compress six transactions into fewer waves.
    assert!(report.outcome.waves < 6, "waves: {}", report.outcome.waves);

    // The ACCEPT_BID ran the normal commit hook: children enqueued,
    // parent pending.
    assert_eq!(node.queue().len(), 2, "winner transfer + 1 return");
    assert!(matches!(
        node.tracker().status(&round.accept.id),
        Some(NestedStatus::PendingChildren { outstanding: 2 })
    ));

    // Settle the children and verify the economics end-to-end.
    assert_eq!(node.pump_returns(16), 2);
    assert_eq!(
        node.tracker().status(&round.accept.id),
        Some(NestedStatus::Complete)
    );
    assert_eq!(
        node.ledger()
            .utxos()
            .unspent_for_owner(&round.sally.public_hex())
            .len(),
        2
    );
    assert_eq!(
        node.ledger()
            .utxos()
            .unspent_for_owner(&round.bob.public_hex())
            .len(),
        1
    );
    assert!(node
        .ledger()
        .utxos()
        .unspent_for_owner(&round.alice.public_hex())
        .is_empty());

    // The document mirror saw every batch commit.
    let txs = node.db().collection(collections::TRANSACTIONS);
    assert_eq!(txs.count(&Filter::eq("operation", "BID")), 2);
    assert_eq!(txs.count(&Filter::eq("operation", "ACCEPT_BID")), 1);
}

#[test]
fn batch_and_sequential_nodes_agree() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let mut batch_node = Node::with_workers(escrow.clone(), 4);
    let mut seq_node = Node::with_workers(escrow, 1);
    let round = auction_round(&batch_node.escrow_public_hex());

    let report = batch_node.submit_batch(&round.payloads);
    assert!(report.fully_committed(), "{:?}", report);
    for payload in &round.payloads {
        seq_node
            .process_transaction(payload)
            .expect("sequential commit");
    }

    assert_eq!(
        batch_node.ledger().committed_ids(),
        seq_node.ledger().committed_ids()
    );
    assert_eq!(
        batch_node.ledger().utxos().snapshot(),
        seq_node.ledger().utxos().snapshot()
    );

    batch_node.pump_returns(16);
    seq_node.pump_returns(16);
    assert_eq!(
        batch_node.ledger().utxos().snapshot(),
        seq_node.ledger().utxos().snapshot()
    );
}

#[test]
fn batch_rejections_are_precise() {
    let mut node = Node::with_workers(KeyPair::from_seed([0xE5; 32]), 4);
    let round = auction_round(&node.escrow_public_hex());

    // Corrupt the batch: a parse failure, plus a double spend of
    // asset_a appended after the bid that already consumed it.
    let rogue = TxBuilder::transfer(round.asset_a.id.clone())
        .input(round.asset_a.id.clone(), 0, vec![round.alice.public_hex()])
        .output_with_prev(round.bob.public_hex(), 1, vec![round.alice.public_hex()])
        .sign(&[&round.alice]);
    let mut payloads = round.payloads.clone();
    payloads.push("not json".to_owned());
    payloads.push(rogue.to_payload());

    let report = node.submit_batch(&payloads);
    assert_eq!(report.outcome.committed.len(), 6, "the clean six commit");
    assert_eq!(report.parse_failures.len(), 1);
    assert_eq!(
        report.parse_failures[0].0, 6,
        "parse failure reported at its payload index"
    );
    assert_eq!(report.outcome.rejected.len(), 1);
    assert_eq!(
        report.outcome.rejected[0].0, 7,
        "double spend reported at its payload index"
    );
    assert!(node.ledger().is_committed(&round.bid_a.id));
    assert!(!node.ledger().is_committed(&rogue.id));
}

/// Whole reverse-auction rounds as one submission, each BID one
/// TRANSFER hop from its CREATE: CREATEs and REQUESTs, then the hops,
/// the BIDs and the ACCEPT_BIDs. Bids on one request commute, so the
/// hop is what layers a round into four waves.
fn hopped_rounds(requests: u8, bidders: u8, seed: u8, escrow_pk: &str) -> Vec<String> {
    let key = |request: u8, actor: u8| {
        let mut bytes = [seed; 32];
        bytes[..2].copy_from_slice(&[request, actor]);
        KeyPair::from_seed(bytes)
    };
    let escrow_pk = || escrow_pk.to_owned();
    let mut phases: [Vec<String>; 5] = Default::default();
    for r in 0..requests {
        let requester = key(r, 0xFF);
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(requester.public_hex(), 1)
            .sign(&[&requester]);
        let mut bids = Vec::new();
        for b in 0..bidders {
            let supplier = key(r, b);
            let owner = || vec![supplier.public_hex()];
            let create = TxBuilder::create(obj! { "capabilities" => arr!["cnc", "3d-print"] })
                .output(supplier.public_hex(), 1)
                .sign(&[&supplier]);
            let hop = TxBuilder::transfer(create.id.clone())
                .input(create.id.clone(), 0, owner())
                .output_with_prev(supplier.public_hex(), 1, owner())
                .sign(&[&supplier]);
            let bid = TxBuilder::bid(create.id.clone(), request.id.clone())
                .input(hop.id.clone(), 0, owner())
                .output_with_prev(escrow_pk(), 1, owner())
                .sign(&[&supplier]);
            phases[0].push(create.to_payload());
            phases[2].push(hop.to_payload());
            phases[3].push(bid.to_payload());
            bids.push((bid.id, supplier));
        }
        // Accept the first bid; the others return to their suppliers.
        let mut accept = TxBuilder::accept_bid(bids[0].0.clone(), request.id.clone())
            .output_with_prev(requester.public_hex(), 1, vec![escrow_pk()]);
        for (bid, _) in &bids {
            accept = accept.input(bid.clone(), 0, vec![escrow_pk()]);
        }
        for (_, supplier) in &bids[1..] {
            accept = accept.output_with_prev(supplier.public_hex(), 1, vec![escrow_pk()]);
        }
        phases[1].push(request.to_payload());
        phases[4].push(accept.sign(&[&requester]).to_payload());
    }
    phases.into_iter().flatten().collect()
}

/// Repeat count for the many-wave stress below. CI sets
/// `SCDB_STRESS_ITERS=50` (with `--test-threads=1`) to repeat the
/// parallel validation across many thread interleavings; local runs
/// default to a quick 3.
fn stress_iters() -> usize {
    std::env::var("SCDB_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

#[test]
fn many_wave_stress_no_lost_outputs_and_value_conserved() {
    // A many-wave batch (12 auctions × 2 bidders, whole rounds with a
    // TRANSFER hop before each BID in one submission) committed with 8
    // wave workers. Every iteration re-runs the pipeline from scratch
    // and must land byte-identically on the sequential reference: any
    // wave-ordering bug shows up as a lost, duplicated or misattributed
    // output.
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let mut reference = Node::with_options(escrow.clone(), PipelineOptions::with_workers(1));
    let payloads = hopped_rounds(12, 2, 0x57, &reference.escrow_public_hex());

    let ref_report = reference.submit_batch(&payloads);
    assert!(ref_report.fully_committed(), "{ref_report:?}");
    assert!(
        ref_report.outcome.waves >= 4,
        "whole rounds must layer into many waves, got {}",
        ref_report.outcome.waves
    );
    reference.pump_returns(usize::MAX);
    let ref_snapshot = reference.ledger().utxos().snapshot();

    // Total minted value: every CREATE output in the snapshot (spent or
    // not) minted its amount; all later ops only move shares around.
    let minted: u64 = ref_snapshot
        .iter()
        .filter(|(out, u)| out.tx_id == u.asset_id && out.tx_id.len() == 64)
        .map(|(_, u)| u.amount)
        .sum();
    assert!(minted > 0, "workload mints value");

    for iter in 0..stress_iters() {
        let mut node = Node::with_options(escrow.clone(), PipelineOptions::with_workers(8));
        let report = node.submit_batch(&payloads);
        assert!(report.fully_committed(), "iter {iter}: {report:?}");
        node.pump_returns(usize::MAX);

        // Digest first — the O(1) replica comparator — then the
        // exhaustive snapshot, whose agreement with the digest is the
        // stress job's digest-consistency assert.
        assert_eq!(
            node.state_digest(),
            reference.state_digest(),
            "iter {iter}: digest diverged"
        );
        let snapshot = node.ledger().utxos().snapshot();
        // No lost or duplicated outputs: the sorted snapshot is a map
        // dump, so byte-equality covers membership and multiplicity.
        assert_eq!(snapshot, ref_snapshot, "iter {iter}: wave apply diverged");
        // Total value conservation, independently of the reference:
        // unspent shares still sum to everything ever minted.
        let unspent: u64 = snapshot
            .iter()
            .filter(|(_, u)| u.spent_by.is_none())
            .map(|(_, u)| u.amount)
            .sum();
        assert_eq!(unspent, minted, "iter {iter}: value not conserved");
        assert_eq!(
            node.ledger().committed_ids(),
            reference.ledger().committed_ids(),
            "iter {iter}: commit order diverged"
        );
    }
}

// Keeps its pre-ISSUE-17 name (the test floor tracks it by name); it
// stresses the one wave-barrier executor.
#[test]
fn speculative_cross_wave_stress_value_conserved_and_replicas_agree() {
    // The dependent-wave analogue of the stress above: whole
    // reverse-auction rounds (deep bid→accept→settlement chains, so
    // many dependent waves) pushed through the pipeline at workers=8,
    // repeated SCDB_STRESS_ITERS times. Every iteration must land
    // byte-identically on the sequential reference, conserve minted value, and a 4-replica cluster
    // delivering with 8 wave workers must agree with a 1-worker cluster
    // on every replica's digest and commit order.
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let mut reference = Node::with_options(escrow.clone(), PipelineOptions::with_workers(1));
    let payloads = hopped_rounds(10, 3, 0x5B, &reference.escrow_public_hex());

    let ref_report = reference.submit_batch(&payloads);
    assert!(ref_report.fully_committed(), "{ref_report:?}");
    assert!(
        ref_report.outcome.waves >= 4,
        "rounds must layer into many waves, got {}",
        ref_report.outcome.waves
    );
    reference.pump_returns(usize::MAX);
    let ref_snapshot = reference.ledger().utxos().snapshot();
    let minted: u64 = ref_snapshot
        .iter()
        .filter(|(out, u)| out.tx_id == u.asset_id && out.tx_id.len() == 64)
        .map(|(_, u)| u.amount)
        .sum();
    assert!(minted > 0, "workload mints value");

    for iter in 0..stress_iters() {
        let mut node = Node::with_options(escrow.clone(), PipelineOptions::with_workers(8));
        let report = node.submit_batch(&payloads);
        assert!(report.fully_committed(), "iter {iter}: {report:?}");
        node.pump_returns(usize::MAX);

        assert_eq!(
            node.state_digest(),
            reference.state_digest(),
            "iter {iter}: digest diverged"
        );
        let snapshot = node.ledger().utxos().snapshot();
        assert_eq!(snapshot, ref_snapshot, "iter {iter}: commit diverged");
        let unspent: u64 = snapshot
            .iter()
            .filter(|(_, u)| u.spent_by.is_none())
            .map(|(_, u)| u.amount)
            .sum();
        assert_eq!(unspent, minted, "iter {iter}: value not conserved");
        assert_eq!(
            node.ledger().committed_ids(),
            reference.ledger().committed_ids(),
            "iter {iter}: commit order diverged"
        );
    }

    // Replica equality across a consensus cluster: all four parallel
    // replicas must match each other AND a sequential (1-worker)
    // cluster fed the same submissions.
    let cluster_config = ScenarioConfig {
        requests: 4,
        bidders_per_request: 2,
        capability_count: 2,
        capability_bytes: 32,
        seed: 0x5bec,
    };
    let run_cluster = |workers: usize| {
        let mut h = SmartchainHarness::with_pipeline(
            smartchaindb::consensus::BftConfig::tendermint(4),
            PipelineOptions::with_workers(workers),
        );
        let plan = scdb_plan(&cluster_config, &h.escrow_public_hex());
        for phase in plan.phases() {
            let at = if h.consensus().now() == SimTime::ZERO {
                SimTime::from_millis(1)
            } else {
                h.consensus().now()
            };
            for payload in phase {
                h.submit_at(at, payload.clone());
            }
            h.run();
        }
        h
    };
    let parallel = run_cluster(8);
    let sequential = run_cluster(1);
    let app = parallel.consensus().app();
    let seq_app = sequential.consensus().app();
    assert_eq!(app.nested_completed(), seq_app.nested_completed());
    // Replica equality by O(1) state digest — the comparison the
    // sorted-snapshot dumps used to do in O(n log n).
    let baseline = seq_app.state_digest(0);
    assert!(baseline.entries() > 0);
    for node in 0..4 {
        assert_eq!(
            app.state_digest(node),
            baseline,
            "replica {node} diverged from the sequential cluster"
        );
        assert_eq!(
            app.ledger(node).committed_ids(),
            seq_app.ledger(node).committed_ids(),
            "replica {node} commit order diverged"
        );
    }
}

#[test]
fn multi_block_proposal_stream_matches_sequential_replay_every_round() {
    // Contended auction traffic drained as consecutive
    // `form_proposal`/`commit_proposal` rounds. Small blocks force the
    // auction phases across block boundaries — every bid spends a
    // create committed blocks earlier — and after EVERY round the
    // node's verdicts and digest must equal a sequential
    // validate-then-apply replay of the same blocks.
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let payloads = scdb_plan(
        &ScenarioConfig {
            requests: 6,
            bidders_per_request: 3,
            capability_count: 2,
            capability_bytes: 32,
            seed: 0xCB0C,
        },
        &escrow.public_hex(),
    )
    .contended_payloads();

    let mut node = Node::with_options(escrow.clone(), PipelineOptions::with_workers(8));
    let mut replay = LedgerState::new();
    replay.add_reserved_account(escrow.public_hex());

    let mut cursor = 0usize;
    let mut rounds = 0usize;
    let mut spends_across_blocks = 0usize;
    while cursor < payloads.len() || !node.mempool().is_empty() {
        let run = payloads.len().min(cursor + 5);
        for payload in &payloads[cursor..run] {
            node.ingest_payload(payload).expect("stream admits");
        }
        cursor = run;
        let formed = node.form_proposal(7);
        let report = node.commit_proposal(formed);
        rounds += 1;
        assert!(
            report.outcome.rejected.is_empty(),
            "round {rounds}: {:?}",
            report.outcome.rejected
        );
        let in_block: Vec<&str> = report.batch.iter().map(|tx| tx.id.as_str()).collect();
        for tx in &report.batch {
            spends_across_blocks += tx
                .inputs
                .iter()
                .filter_map(|input| input.fulfills.as_ref())
                .filter(|f| !in_block.contains(&f.tx_id.as_str()))
                .count();
            validate_transaction(tx, &replay).expect("replay validates");
            replay.apply_shared(tx).expect("replay applies");
        }
        assert_eq!(
            node.ledger().committed_ids(),
            replay.committed_ids(),
            "round {rounds}: commit order diverged"
        );
        assert_eq!(
            node.state_digest(),
            replay.state_digest(),
            "round {rounds}: digest diverged"
        );
    }
    assert!(rounds >= 4, "stream must span several blocks, got {rounds}");
    assert!(spends_across_blocks > 0, "blocks must chain through UTXOs");

    // Children settled, the end state equals the whole stream through
    // one sequential submit_batch.
    let mut reference = Node::with_options(escrow, PipelineOptions::with_workers(1));
    let ref_report = reference.submit_batch(&payloads);
    assert!(ref_report.fully_committed(), "{ref_report:?}");
    for n in [&mut node, &mut reference] {
        while n.pump_returns(usize::MAX) > 0 {}
    }
    assert_eq!(node.state_digest(), reference.state_digest());
    assert_eq!(
        node.ledger().utxos().snapshot(),
        reference.ledger().utxos().snapshot()
    );
}

#[test]
fn cluster_delivers_blocks_through_the_pipeline() {
    // The same round, but through consensus: every replica feeds whole
    // blocks to the pipeline and all replicas converge.
    let mut h = SmartchainHarness::new(4);
    let round = auction_round(&h.escrow_public_hex());
    let t = SimTime::from_millis(1);
    // Submit phases with commit gaps, as clients would.
    for chunk in [
        &round.payloads[0..3],
        &round.payloads[3..5],
        &round.payloads[5..6],
    ] {
        let at = if h.consensus().now() == SimTime::ZERO {
            t
        } else {
            h.consensus().now()
        };
        for payload in chunk {
            h.submit_at(at, payload.clone());
        }
        h.run();
    }
    let app = h.consensus().app();
    assert_eq!(app.nested_completed(), 1);
    for node in 0..4 {
        assert!(
            app.ledger(node).is_committed(&round.accept.id),
            "node {node}"
        );
        assert_eq!(
            app.state_digest(0),
            app.state_digest(node),
            "replica {node} diverged"
        );
    }
    // Losing bidder Bob got his asset back through the settled RETURN.
    assert_eq!(
        app.ledger(0)
            .utxos()
            .unspent_for_owner(&round.bob.public_hex())
            .len(),
        1,
        "bob: {:?}",
        round.bid_b.id
    );
}
