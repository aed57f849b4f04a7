//! End-to-end tests of the reverse-auction marketplace semantics: the
//! full `CREATE → REQUEST → BID → ACCEPT_BID → {TRANSFER, RETURN…}`
//! workflow with real keys, signatures and spend tracking.

use crate::validate::validate_transaction;
use crate::{
    determine_children, determine_outstanding_children, nested, Child, LedgerState, LedgerView,
    Transaction, TxBuilder,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scdb_crypto::KeyPair;
use scdb_json::{arr, obj, Value};
use scdb_store::OutputRef;

/// Test fixture: a requester (Sally), two suppliers (Alice, Bob), the
/// escrow system account, and a ledger with escrow registered.
struct Auction {
    ledger: LedgerState,
    escrow: KeyPair,
    sally: KeyPair,
    alice: KeyPair,
    bob: KeyPair,
}

impl Auction {
    fn new() -> Auction {
        let mut rng = StdRng::seed_from_u64(0xA0C710);
        let escrow = KeyPair::generate(&mut rng);
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        Auction {
            ledger,
            escrow,
            sally: KeyPair::generate(&mut rng),
            alice: KeyPair::generate(&mut rng),
            bob: KeyPair::generate(&mut rng),
        }
    }

    fn commit(&mut self, tx: &Transaction) {
        validate_transaction(tx, &self.ledger).expect("transaction must validate");
        self.ledger.apply(tx).expect("transaction must apply");
    }

    fn mint_asset(&mut self, owner: &KeyPair, caps: &[&str], nonce: u64) -> Transaction {
        let caps: Vec<Value> = caps.iter().map(|c| Value::from(*c)).collect();
        let tx = TxBuilder::create(
            obj! { "capabilities" => Value::Array(caps), "kind" => "mfg-capacity" },
        )
        .output(owner.public_hex(), 1)
        .nonce(nonce)
        .sign(&[owner]);
        self.commit(&tx);
        tx
    }

    fn post_request(&mut self, caps: &[&str]) -> Transaction {
        let caps: Vec<Value> = caps.iter().map(|c| Value::from(*c)).collect();
        let tx =
            TxBuilder::request(obj! { "capabilities" => Value::Array(caps), "quantity" => 50 })
                .output(self.sally.public_hex(), 1)
                .nonce(1000)
                .sign(&[&self.sally]);
        self.commit(&tx);
        tx
    }

    fn place_bid(
        &mut self,
        bidder: &KeyPair,
        asset: &Transaction,
        request: &Transaction,
    ) -> Transaction {
        let tx = TxBuilder::bid(asset.id.clone(), request.id.clone())
            .input(asset.id.clone(), 0, vec![bidder.public_hex()])
            .output_with_prev(self.escrow.public_hex(), 1, vec![bidder.public_hex()])
            .sign(&[bidder]);
        self.commit(&tx);
        tx
    }

    /// Builds (but does not commit) the ACCEPT_BID for `win` over all
    /// locked bids.
    fn build_accept(&self, request: &Transaction, win: &Transaction) -> Transaction {
        let locked: Vec<(String, Vec<String>)> = self
            .ledger
            .locked_bids_for_request(&request.id)
            .iter()
            .map(|b| {
                let utxo = self
                    .ledger
                    .utxos()
                    .get(&OutputRef::new(b.id.clone(), 0))
                    .expect("escrow utxo");
                (b.id.clone(), utxo.previous_owners.clone())
            })
            .collect();
        let mut b = TxBuilder::accept_bid(win.id.clone(), request.id.clone());
        for (bid_id, prev_owners) in &locked {
            b = b.input(bid_id.clone(), 0, vec![self.escrow.public_hex()]);
            if bid_id == &win.id {
                b = b.output_with_prev(self.sally.public_hex(), 1, vec![self.escrow.public_hex()]);
            } else {
                b = b.output_with_prev(prev_owners[0].clone(), 1, vec![self.escrow.public_hex()]);
            }
        }
        b.sign(&[&self.sally])
    }
}

#[test]
fn full_reverse_auction_settles() {
    let mut a = Auction::new();
    let alice_asset = a.mint_asset(&{ a.alice.clone() }, &["3d-print", "cnc", "iso-9001"], 1);
    let bob_asset = a.mint_asset(&{ a.bob.clone() }, &["3d-print", "cnc"], 2);
    let request = a.post_request(&["3d-print", "cnc"]);

    let alice_bid = a.place_bid(&{ a.alice.clone() }, &alice_asset, &request);
    let _bob_bid = a.place_bid(&{ a.bob.clone() }, &bob_asset, &request);
    assert_eq!(a.ledger.locked_bids_for_request(&request.id).len(), 2);

    // Sally accepts Alice's bid.
    let accept = a.build_accept(&request, &alice_bid);
    a.commit(&accept);

    // The commit hook determines the children: one TRANSFER (winner) and
    // one RETURN (Bob's bid).
    let children = determine_children(&a.ledger, &accept, &a.escrow).expect("children determined");
    assert_eq!(children.len(), 2);
    nested::validate_nested_complete(&accept, &children).expect("Def. 4 structural conditions");

    let mut tracker = crate::NestedTracker::new();
    tracker.register(&accept.id, children.iter().map(|c| c.id.clone()));

    for child in &children {
        validate_transaction(child, &a.ledger).expect("child must validate");
        a.ledger.apply(child).expect("child must apply");
        tracker.child_committed(&child.id);
    }
    assert_eq!(
        tracker.status(&accept.id),
        Some(crate::NestedStatus::Complete)
    );

    // Settlement: Sally owns Alice's asset shares; Bob got his back.
    assert_eq!(
        a.ledger
            .utxos()
            .balance(&a.sally.public_hex(), &alice_asset.id),
        1
    );
    assert_eq!(
        a.ledger.utxos().balance(&a.bob.public_hex(), &bob_asset.id),
        1
    );
    assert_eq!(
        a.ledger
            .utxos()
            .balance(&a.alice.public_hex(), &alice_asset.id),
        0
    );
}

/// The recovery view of an accept's children: the same ids in input
/// order as `determine_children`, a committed child read from the
/// bid output's `spent_by` instead of derived — and never from another
/// transaction's metadata.
/// Committing an ACCEPT_BID moves no UTXO, yet the state digest — the
/// comparator replicas and durable seals use — changes.
#[test]
fn digest_commits_to_the_accept() {
    let mut a = Auction::new();
    let alice = a.alice.clone();
    let asset = a.mint_asset(&alice, &["3d-print"], 1);
    let request = a.post_request(&["3d-print"]);
    let bid = a.place_bid(&alice, &asset, &request);
    let accept = a.build_accept(&request, &bid);
    let (before, utxos_before) = (a.ledger.state_digest(), a.ledger.utxos().state_digest());
    a.commit(&accept);
    assert_eq!(a.ledger.utxos().state_digest(), utxos_before);
    assert_ne!(a.ledger.state_digest(), before);
    let committed = a.ledger.accept_for_request(&request.id);
    assert_eq!(committed.map(|t| &t.id), Some(&accept.id));
}

#[test]
fn outstanding_children_follow_the_ledger_not_metadata() {
    let mut a = Auction::new();
    let alice_asset = a.mint_asset(&{ a.alice.clone() }, &["3d-print", "cnc"], 1);
    let bob_asset = a.mint_asset(&{ a.bob.clone() }, &["3d-print", "cnc"], 2);
    let request = a.post_request(&["3d-print"]);
    let alice_bid = a.place_bid(&{ a.alice.clone() }, &alice_asset, &request);
    let bob_bid = a.place_bid(&{ a.bob.clone() }, &bob_asset, &request);
    let accept = a.build_accept(&request, &alice_bid);
    a.commit(&accept);

    // A user-signed TRANSFER of an unrelated asset claiming to be both
    // children, committed before any real child.
    let sally_asset = a.mint_asset(&{ a.sally.clone() }, &["cnc"], 3);
    let forged = TxBuilder::transfer(sally_asset.id.clone())
        .input(sally_asset.id.clone(), 0, vec![a.sally.public_hex()])
        .output_with_prev(a.bob.public_hex(), 1, vec![a.sally.public_hex()])
        .metadata(obj! { "parent" => accept.id.clone(), "settles_bid" => bob_bid.id.clone() })
        .sign(&[&a.sally.clone()]);
    a.commit(&forged);

    let children = determine_children(&a.ledger, &accept, &a.escrow).expect("determined");
    let unsettled: Vec<Child> = children.iter().cloned().map(Child::Outstanding).collect();
    assert_eq!(
        determine_outstanding_children(&a.ledger, &accept, &a.escrow),
        Ok(unsettled.clone()),
        "nothing settled: every child is derived, the forgery counts for none"
    );

    a.commit(&children[0]);
    assert_eq!(
        determine_outstanding_children(&a.ledger, &accept, &a.escrow),
        Ok(vec![
            Child::Settled(children[0].id.clone()),
            unsettled[1].clone()
        ]),
        "one settled: its id comes off the UTXO set, its sibling is derived"
    );

    a.commit(&children[1]);
    let settled = determine_outstanding_children(&a.ledger, &accept, &a.escrow).expect("read");
    let ids: Vec<&str> = settled.iter().map(Child::id).collect();
    assert_eq!(ids, [children[0].id.as_str(), children[1].id.as_str()]);
    assert!(settled.iter().all(|c| matches!(c, Child::Settled(_))));
}

#[test]
fn bid_without_capabilities_rejected() {
    let mut a = Auction::new();
    let weak_asset = a.mint_asset(&{ a.bob.clone() }, &["welding"], 3);
    let request = a.post_request(&["3d-print"]);
    let bid = TxBuilder::bid(weak_asset.id.clone(), request.id.clone())
        .input(weak_asset.id.clone(), 0, vec![a.bob.public_hex()])
        .output_with_prev(a.escrow.public_hex(), 1, vec![a.bob.public_hex()])
        .sign(&[&a.bob.clone()]);
    let err = validate_transaction(&bid, &a.ledger).unwrap_err();
    assert!(
        matches!(err, crate::ValidationError::InsufficientCapabilities { ref missing } if missing == &vec!["3d-print".to_owned()]),
        "got {err}"
    );
}

#[test]
fn bid_to_non_escrow_rejected() {
    let mut a = Auction::new();
    let asset = a.mint_asset(&{ a.alice.clone() }, &["3d-print"], 4);
    let request = a.post_request(&["3d-print"]);
    // Alice "bids" to her own account instead of escrow.
    let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
        .input(asset.id.clone(), 0, vec![a.alice.public_hex()])
        .output_with_prev(a.alice.public_hex(), 1, vec![a.alice.public_hex()])
        .sign(&[&a.alice.clone()]);
    let err = validate_transaction(&bid, &a.ledger).unwrap_err();
    assert!(
        matches!(
            err,
            crate::ValidationError::NotEscrowOutput { output_index: 0 }
        ),
        "got {err}"
    );
}

#[test]
fn bid_referencing_uncommitted_request_rejected() {
    let mut a = Auction::new();
    let asset = a.mint_asset(&{ a.alice.clone() }, &["3d-print"], 5);
    let ghost_request = "9".repeat(64);
    let bid = TxBuilder::bid(asset.id.clone(), ghost_request.clone())
        .input(asset.id.clone(), 0, vec![a.alice.public_hex()])
        .output_with_prev(a.escrow.public_hex(), 1, vec![a.alice.public_hex()])
        .sign(&[&a.alice.clone()]);
    let err = validate_transaction(&bid, &a.ledger).unwrap_err();
    assert_eq!(
        err,
        crate::ValidationError::InputDoesNotExist(ghost_request)
    );
}

#[test]
fn accept_bid_by_non_requester_rejected() {
    let mut a = Auction::new();
    let asset = a.mint_asset(&{ a.alice.clone() }, &["3d-print"], 6);
    let request = a.post_request(&["3d-print"]);
    let bid = a.place_bid(&{ a.alice.clone() }, &asset, &request);

    // Bob (not Sally) tries to accept.
    let accept = TxBuilder::accept_bid(bid.id.clone(), request.id.clone())
        .input(bid.id.clone(), 0, vec![a.escrow.public_hex()])
        .output_with_prev(a.sally.public_hex(), 1, vec![a.escrow.public_hex()])
        .sign(&[&a.bob.clone()]);
    let err = validate_transaction(&accept, &a.ledger).unwrap_err();
    assert!(
        matches!(err, crate::ValidationError::InvalidSignature(_)),
        "got {err}"
    );
}

#[test]
fn duplicate_accept_bid_rejected() {
    let mut a = Auction::new();
    let asset_a = a.mint_asset(&{ a.alice.clone() }, &["3d-print"], 7);
    let asset_b = a.mint_asset(&{ a.bob.clone() }, &["3d-print"], 8);
    let request = a.post_request(&["3d-print"]);
    let bid_a = a.place_bid(&{ a.alice.clone() }, &asset_a, &request);
    let _bid_b = a.place_bid(&{ a.bob.clone() }, &asset_b, &request);

    let accept = a.build_accept(&request, &bid_a);
    a.commit(&accept);

    // "A potential issue arises if the ACCEPT_BID transaction is
    // reinitiated with a different winning bid" (§4.2) — rejected as a
    // duplicate.
    let accept2 = a.build_accept(&request, &bid_a);
    let err = validate_transaction(&accept2, &a.ledger).unwrap_err();
    assert!(
        matches!(err, crate::ValidationError::DuplicateTransaction(_)),
        "got {err}"
    );
}

#[test]
fn accept_bid_must_cover_all_locked_bids() {
    let mut a = Auction::new();
    let asset_a = a.mint_asset(&{ a.alice.clone() }, &["3d-print"], 9);
    let asset_b = a.mint_asset(&{ a.bob.clone() }, &["3d-print"], 10);
    let request = a.post_request(&["3d-print"]);
    let bid_a = a.place_bid(&{ a.alice.clone() }, &asset_a, &request);
    let _bid_b = a.place_bid(&{ a.bob.clone() }, &asset_b, &request);

    // Accept naming only the winning bid (|I| = 1 < n = 2) violates
    // C_ACCEPT_BID condition 1.
    let accept = TxBuilder::accept_bid(bid_a.id.clone(), request.id.clone())
        .input(bid_a.id.clone(), 0, vec![a.escrow.public_hex()])
        .output_with_prev(a.sally.public_hex(), 1, vec![a.escrow.public_hex()])
        .sign(&[&a.sally.clone()]);
    let err = validate_transaction(&accept, &a.ledger).unwrap_err();
    assert!(err.to_string().contains("all 2 locked bids"), "got {err}");
}

#[test]
fn return_of_winning_bid_rejected() {
    let mut a = Auction::new();
    let asset_a = a.mint_asset(&{ a.alice.clone() }, &["3d-print"], 11);
    let request = a.post_request(&["3d-print"]);
    let bid_a = a.place_bid(&{ a.alice.clone() }, &asset_a, &request);
    let accept = a.build_accept(&request, &bid_a);
    a.commit(&accept);

    // Returning the *winning* bid to Alice would double-settle.
    let ret = TxBuilder::bid_return(asset_a.id.clone(), bid_a.id.clone())
        .input(bid_a.id.clone(), 0, vec![a.escrow.public_hex()])
        .output_with_prev(a.alice.public_hex(), 1, vec![a.escrow.public_hex()])
        .sign(&[&a.escrow.clone()]);
    let err = validate_transaction(&ret, &a.ledger).unwrap_err();
    assert!(err.to_string().contains("winning bid"), "got {err}");
}

#[test]
fn double_spend_of_bid_asset_rejected() {
    let mut a = Auction::new();
    let asset = a.mint_asset(&{ a.alice.clone() }, &["3d-print"], 12);
    let request = a.post_request(&["3d-print"]);
    let _bid = a.place_bid(&{ a.alice.clone() }, &asset, &request);

    // Alice tries to bid the same asset output again.
    let second = TxBuilder::bid(asset.id.clone(), request.id.clone())
        .input(asset.id.clone(), 0, vec![a.alice.public_hex()])
        .output_with_prev(a.escrow.public_hex(), 1, vec![a.alice.public_hex()])
        .metadata(obj! { "attempt" => 2 })
        .sign(&[&a.alice.clone()]);
    let err = validate_transaction(&second, &a.ledger).unwrap_err();
    assert!(
        matches!(err, crate::ValidationError::DoubleSpend(_)),
        "got {err}"
    );
}

#[test]
fn tampered_payload_rejected_by_id_check() {
    let a = Auction::new();
    let alice = a.alice.clone();
    let mut tx = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
        .output(alice.public_hex(), 1)
        .sign(&[&alice]);
    // A malicious receiver node rewrites the output owner.
    tx.outputs[0].public_keys = vec![a.bob.public_hex()];
    let err = validate_transaction(&tx, &a.ledger).unwrap_err();
    assert!(
        matches!(err, crate::ValidationError::IdMismatch { .. }),
        "got {err}"
    );
}

#[test]
fn resubmitted_committed_tx_is_duplicate() {
    let mut a = Auction::new();
    let asset = a.mint_asset(&{ a.alice.clone() }, &["cnc"], 13);
    let err = validate_transaction(&asset, &a.ledger).unwrap_err();
    assert!(
        matches!(err, crate::ValidationError::DuplicateTransaction(_)),
        "got {err}"
    );
}

#[test]
fn request_without_capabilities_rejected() {
    let a = Auction::new();
    let sally = a.sally.clone();
    let req = TxBuilder::request(obj! { "quantity" => 5 })
        .output(sally.public_hex(), 1)
        .sign(&[&sally]);
    let err = validate_transaction(&req, &a.ledger).unwrap_err();
    assert!(err.to_string().contains("capabilities"), "got {err}");
}

#[test]
fn transfer_amount_conservation_enforced() {
    let mut a = Auction::new();
    let alice = a.alice.clone();
    let bob = a.bob.clone();
    let create = TxBuilder::create(obj! { "kind" => "token" })
        .output(alice.public_hex(), 10)
        .sign(&[&alice]);
    a.commit(&create);

    // 10 in, 7 out: violates conservation.
    let bad = TxBuilder::transfer(create.id.clone())
        .input(create.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(bob.public_hex(), 7, vec![alice.public_hex()])
        .sign(&[&alice]);
    let err = validate_transaction(&bad, &a.ledger).unwrap_err();
    assert!(
        matches!(
            err,
            crate::ValidationError::AmountMismatch {
                inputs: 10,
                outputs: 7
            }
        ),
        "got {err}"
    );

    // Split into 7 + 3 balances.
    let good = TxBuilder::transfer(create.id.clone())
        .input(create.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(bob.public_hex(), 7, vec![alice.public_hex()])
        .output_with_prev(alice.public_hex(), 3, vec![alice.public_hex()])
        .sign(&[&alice]);
    assert!(validate_transaction(&good, &a.ledger).is_ok());
}

#[test]
fn stranger_cannot_spend_others_outputs() {
    let mut a = Auction::new();
    let alice = a.alice.clone();
    let bob = a.bob.clone();
    let create = TxBuilder::create(obj! {})
        .output(alice.public_hex(), 1)
        .sign(&[&alice]);
    a.commit(&create);

    // Bob declares himself the owner and signs — owner mismatch.
    let theft = TxBuilder::transfer(create.id.clone())
        .input(create.id.clone(), 0, vec![bob.public_hex()])
        .output_with_prev(bob.public_hex(), 1, vec![alice.public_hex()])
        .sign(&[&bob]);
    let err = validate_transaction(&theft, &a.ledger).unwrap_err();
    assert!(
        matches!(err, crate::ValidationError::InvalidSignature(_)),
        "got {err}"
    );
}

/// Regression: listing the same output twice in one transaction must
/// not double-count its shares (value inflation).
#[test]
fn duplicate_inputs_cannot_inflate_shares() {
    let mut a = Auction::new();
    let alice = a.alice.clone();
    let bob = a.bob.clone();
    let create = TxBuilder::create(obj! {})
        .output(alice.public_hex(), 5)
        .sign(&[&alice]);
    a.commit(&create);

    // Spend create#0 twice, declaring 10 output shares from 5.
    let inflate = TxBuilder::transfer(create.id.clone())
        .input(create.id.clone(), 0, vec![alice.public_hex()])
        .input(create.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(bob.public_hex(), 10, vec![alice.public_hex()])
        .sign(&[&alice]);
    let err = validate_transaction(&inflate, &a.ledger).unwrap_err();
    assert!(
        matches!(err, crate::ValidationError::DoubleSpend(_)),
        "got {err}"
    );

    // The store-level batch spend refuses the duplicate as well.
    let refs = [
        OutputRef::new(create.id.clone(), 0),
        OutputRef::new(create.id.clone(), 0),
    ];
    assert!(a.ledger.utxos().spend_all(&refs, "spender").is_err());
}

/// Regression: the REQUEST must head a BID's reference vector — the
/// marketplace indexes, the RETURN trigger rule and the pipeline's
/// conflict footprint all key bids by `references[0]`.
#[test]
fn bid_request_must_be_first_reference() {
    let mut a = Auction::new();
    let alice = a.alice.clone();
    let escrow_pk = a.escrow.public_hex();
    let asset = a.mint_asset(&alice.clone(), &["cnc"], 1);
    let request = a.post_request(&["cnc"]);
    let decoy = a.mint_asset(&a.bob.clone(), &["cnc"], 2);

    // Valid content, but the REQUEST hides behind another reference.
    let bid = TxBuilder::bid(asset.id.clone(), decoy.id.clone())
        .reference(request.id.clone())
        .input(asset.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(escrow_pk.clone(), 1, vec![alice.public_hex()])
        .sign(&[&alice]);
    // (TxBuilder::bid put decoy first; the request is references[1].)
    assert_eq!(bid.references[1], request.id);
    let err = validate_transaction(&bid, &a.ledger).unwrap_err();
    assert!(err.to_string().contains("first reference"), "got {err}");

    // With the REQUEST first, extra trailing references stay legal.
    let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
        .reference(decoy.id.clone())
        .input(asset.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(escrow_pk, 1, vec![alice.public_hex()])
        .sign(&[&alice]);
    validate_transaction(&bid, &a.ledger).expect("request-first bid is valid");
}
