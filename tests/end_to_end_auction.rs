//! Integration: the complete reverse-auction workflow across every
//! layer — driver templates → schema validation → semantic validation →
//! BFT consensus → document store → nested settlement.

use smartchaindb::consensus::TxStatus;
use smartchaindb::core::workflow::validate_workflow_sequence;
use smartchaindb::json::{arr, obj};
use smartchaindb::sim::SimTime;
use smartchaindb::store::{collections, Filter, OutputRef};
use smartchaindb::{KeyPair, LedgerView, SmartchainHarness, Transaction, TxBuilder};

struct Auction {
    cluster: SmartchainHarness,
    sally: KeyPair,
    alice: KeyPair,
    bob: KeyPair,
    asset_a: Transaction,
    asset_b: Transaction,
    request: Transaction,
    bid_a: Transaction,
    bid_b: Transaction,
    accept: Transaction,
}

/// The committed child that settled `bid`: whatever spent its escrow
/// output.
fn settlement(ledger: &impl LedgerView, bid: &Transaction) -> Option<String> {
    ledger.utxo(&OutputRef::new(bid.id.clone(), 0))?.spent_by
}

fn run_auction(nodes: usize) -> Auction {
    let mut cluster = SmartchainHarness::new(nodes);
    let escrow_pk = cluster.escrow_public_hex();
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

    let accept = TxBuilder::accept_bid(bid_a.id.clone(), request.id.clone())
        .input(bid_a.id.clone(), 0, vec![escrow_pk.clone()])
        .input(bid_b.id.clone(), 0, vec![escrow_pk.clone()])
        .output_with_prev(sally.public_hex(), 1, vec![escrow_pk.clone()])
        .output_with_prev(bob.public_hex(), 1, vec![escrow_pk.clone()])
        .sign(&[&sally]);
    let now = cluster.consensus().now();
    let handle = cluster.submit_at(now, accept.to_payload());
    cluster.run();
    assert!(
        matches!(cluster.consensus().status(handle), TxStatus::Committed(_)),
        "{:?}",
        cluster.consensus().status(handle)
    );

    Auction {
        cluster,
        sally,
        alice,
        bob,
        asset_a,
        asset_b,
        request,
        bid_a,
        bid_b,
        accept,
    }
}

#[test]
fn settlement_is_replicated_and_complete() {
    let a = run_auction(4);
    let app = a.cluster.consensus().app();
    assert_eq!(app.nested_completed(), 1, "eventual commit reached");
    for node in 0..4 {
        let ledger = app.ledger(node);
        assert_eq!(
            ledger.utxos().balance(&a.sally.public_hex(), &a.asset_a.id),
            1,
            "node {node}"
        );
        assert_eq!(
            ledger.utxos().balance(&a.bob.public_hex(), &a.asset_b.id),
            1,
            "node {node}"
        );
        assert_eq!(
            ledger.utxos().balance(&a.alice.public_hex(), &a.asset_a.id),
            0,
            "node {node}"
        );
        // The bid escrow outputs are spent exactly once.
        assert!(!ledger
            .utxos()
            .is_unspent(&smartchaindb::store::OutputRef::new(a.bid_a.id.clone(), 0)));
        assert!(!ledger
            .utxos()
            .is_unspent(&smartchaindb::store::OutputRef::new(a.bid_b.id.clone(), 0)));
    }
}

#[test]
fn committed_history_forms_a_valid_workflow() {
    let a = run_auction(4);
    let ledger = a.cluster.consensus().app().ledger(0);
    // Definition 5 over the concrete committed transactions.
    let winner_transfer_id = settlement(ledger, &a.bid_a).expect("winner settled");
    let winner_transfer = ledger.get(&winner_transfer_id).unwrap().clone();
    let seq = [
        &a.asset_a,
        &a.request,
        &a.bid_a,
        &a.accept,
        &winner_transfer,
    ];
    validate_workflow_sequence(&seq, ledger).expect("Definition 5 holds");
}

#[test]
fn query_mirror_sees_the_full_history() {
    let a = run_auction(4);
    let db = a.cluster.consensus().app().query_db();
    let txs = db.collection(collections::TRANSACTIONS);
    assert_eq!(txs.count(&Filter::eq("operation", "CREATE")), 2);
    assert_eq!(txs.count(&Filter::eq("operation", "REQUEST")), 1);
    assert_eq!(txs.count(&Filter::eq("operation", "BID")), 2);
    assert_eq!(txs.count(&Filter::eq("operation", "ACCEPT_BID")), 1);
    assert_eq!(txs.count(&Filter::eq("operation", "RETURN")), 1);
    assert_eq!(txs.count(&Filter::eq("operation", "TRANSFER")), 1);
    // The paper's query works against the mirror too.
    let hits = txs.find(&Filter::and([
        Filter::eq("operation", "REQUEST"),
        Filter::Contains("asset.data.capabilities".into(), "3d-print".into()),
    ]));
    assert_eq!(hits.len(), 1);
}

#[test]
fn losing_bidder_can_reuse_the_returned_asset() {
    let mut a = run_auction(4);
    // Bob's asset came back; he can trade it again — the RETURN output
    // is a first-class UTXO.
    let ledger = a.cluster.consensus().app().ledger(0);
    let return_id = settlement(ledger, &a.bid_b).expect("returned");
    let transfer = TxBuilder::transfer(a.asset_b.id.clone())
        .input(return_id.clone(), 0, vec![a.bob.public_hex()])
        .output_with_prev(a.alice.public_hex(), 1, vec![a.bob.public_hex()])
        .sign(&[&a.bob]);
    let now = a.cluster.consensus().now();
    let handle = a.cluster.submit_at(now, transfer.to_payload());
    a.cluster.run();
    assert!(matches!(
        a.cluster.consensus().status(handle),
        TxStatus::Committed(_)
    ));
    let ledger = a.cluster.consensus().app().ledger(0);
    assert_eq!(
        ledger.utxos().balance(&a.alice.public_hex(), &a.asset_b.id),
        1
    );
}

#[test]
fn double_accept_is_rejected_cluster_wide() {
    let mut a = run_auction(4);
    let escrow_pk = a.cluster.escrow_public_hex();
    // A second accept choosing the other winner must be rejected: the
    // security scenario of §4.2 ("the requester might receive both
    // winning bids").
    let accept2 = TxBuilder::accept_bid(a.bid_b.id.clone(), a.request.id.clone())
        .input(a.bid_a.id.clone(), 0, vec![escrow_pk.clone()])
        .input(a.bid_b.id.clone(), 0, vec![escrow_pk.clone()])
        .output_with_prev(a.sally.public_hex(), 1, vec![escrow_pk.clone()])
        .output_with_prev(a.alice.public_hex(), 1, vec![escrow_pk.clone()])
        .sign(&[&a.sally]);
    let now = a.cluster.consensus().now();
    let handle = a.cluster.submit_at(now, accept2.to_payload());
    a.cluster.run();
    assert!(
        matches!(a.cluster.consensus().status(handle), TxStatus::Rejected(_)),
        "{:?}",
        a.cluster.consensus().status(handle)
    );
}

#[test]
fn auction_settles_on_larger_clusters() {
    for nodes in [7, 10] {
        let a = run_auction(nodes);
        let app = a.cluster.consensus().app();
        assert_eq!(app.nested_completed(), 1, "{nodes} nodes");
        for node in 0..nodes {
            assert!(
                app.ledger(node).is_committed(&a.accept.id),
                "{nodes} nodes, replica {node}"
            );
        }
    }
}
