//! Failure injection and recovery — §4.2.1's crash taxonomy, exercised.
//!
//! Three scenarios:
//!  1. Receiver node offline at submission: the driver re-triggers
//!     after its timeout interval (crash case 1).
//!  2. Receiver crash after enqueueing RETURNs: the nested tracker
//!     rebuilds the return queue on restart (crash case 2).
//!  3. More than 1/3 of voting power offline: the chain stalls safely
//!     and resumes "as soon as sufficient voting power is attained".
//!
//! Run: `cargo run --example failure_recovery`

use smartchaindb::consensus::TxStatus;
use smartchaindb::driver::{Driver, DriverConfig, FlakyEndpoint};
use smartchaindb::json::{arr, obj};
use smartchaindb::sim::SimTime;
use smartchaindb::{KeyPair, NestedStatus, Node, SmartchainHarness, TxBuilder};

fn main() {
    scenario_1_driver_retry();
    scenario_2_return_queue_recovery();
    scenario_3_quorum_loss_and_resume();
    println!("\nfailure_recovery OK");
}

/// Crash case 1: the receiver is down; the driver retries after its
/// timeout until a live node accepts.
fn scenario_1_driver_retry() {
    println!("--- scenario 1: driver re-triggers past a dead receiver");
    let node = Node::new(KeyPair::from_seed([0xE5; 32]));
    // First two submissions hit the dead receiver window.
    let flaky = FlakyEndpoint::new(node, 2);
    let mut driver = Driver::with_config(flaky, DriverConfig { max_attempts: 5 });

    let alice = KeyPair::from_seed([0xA1; 32]);
    let tx = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
        .output(alice.public_hex(), 1)
        .sign(&[&alice]);
    let ack = driver.submit_sync(&tx).expect("committed after retries");
    println!(
        "    committed {} after {} attempts",
        &ack.tx_id[..12],
        driver.endpoint().attempts
    );
    assert_eq!(driver.endpoint().attempts, 3);
}

/// Crash case 2: ACCEPT_BID committed, RETURNs enqueued, then the
/// receiver dies before the workers settle them. On restart, recovery
/// re-enqueues exactly the outstanding children.
fn scenario_2_return_queue_recovery() {
    println!("--- scenario 2: return-queue recovery from the nested tracker");
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let mut node = Node::new(escrow.clone());
    let sally = KeyPair::from_seed([0x5A; 32]);
    let alice = KeyPair::from_seed([0xA1; 32]);
    let bob = KeyPair::from_seed([0xB0; 32]);

    // A two-bid auction, accepted but not yet settled.
    let mk_asset = |owner: &KeyPair, nonce| {
        TxBuilder::create(obj! { "capabilities" => arr!["3d-print"] })
            .output(owner.public_hex(), 1)
            .nonce(nonce)
            .sign(&[owner])
    };
    let asset_a = mk_asset(&alice, 1);
    let asset_b = mk_asset(&bob, 2);
    let request = TxBuilder::request(obj! { "capabilities" => arr!["3d-print"] })
        .output(sally.public_hex(), 1)
        .sign(&[&sally]);
    for tx in [&asset_a, &asset_b, &request] {
        node.process_transaction(&tx.to_payload()).unwrap();
    }
    let escrow_pk = node.escrow_public_hex();
    let mk_bid = |asset: &smartchaindb::Transaction, owner: &KeyPair| {
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

    // Crash: the in-memory queue is wiped before the workers ran.
    let lost = node.queue().drain(usize::MAX);
    println!("    crash wiped {} queued child settlements", lost.len());
    assert_eq!(lost.len(), 2);

    // Restart: re-enqueue what the tracker still has outstanding.
    let re_enqueued = node.recover();
    println!("    recovery re-enqueued {re_enqueued} children");
    let settled = node.pump_returns(usize::MAX);
    println!("    workers settled {settled} children");
    assert_eq!(
        node.tracker().status(&accept.id),
        Some(NestedStatus::Complete)
    );
    assert_eq!(
        node.ledger()
            .utxos()
            .balance(&bob.public_hex(), &asset_b.id),
        1
    );
    println!("    eventual commit reached; Bob refunded");
}

/// BFT quorum loss: with 2 of 4 validators down the chain stalls; when
/// one recovers, the stalled transaction commits.
fn scenario_3_quorum_loss_and_resume() {
    println!("--- scenario 3: >1/3 voting power offline stalls, then resumes");
    let mut cluster = SmartchainHarness::new(4);
    let alice = KeyPair::from_seed([0xA1; 32]);

    cluster.consensus_mut().crash_at(SimTime::ZERO, 2);
    cluster.consensus_mut().crash_at(SimTime::ZERO, 3);

    let tx = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
        .output(alice.public_hex(), 1)
        .sign(&[&alice]);
    let handle =
        cluster
            .consensus_mut()
            .submit_at_node(SimTime::from_millis(5), 0, tx.to_payload());
    cluster.consensus_mut().run_until(SimTime::from_secs(30));
    println!(
        "    at t=30s with quorum lost: status = {:?}",
        cluster.consensus().status(handle)
    );
    assert!(matches!(
        cluster.consensus().status(handle),
        TxStatus::Pending
    ));

    cluster
        .consensus_mut()
        .recover_at(SimTime::from_secs(31), 2);
    cluster.run();
    println!(
        "    after node 2 recovery: status = {:?}",
        cluster.consensus().status(handle)
    );
    assert!(matches!(
        cluster.consensus().status(handle),
        TxStatus::Committed(_)
    ));
}
