//! The settlement stage (DESIGN-pipeline.md § "Settlement stage"):
//! children are derived once per block on the wave workers and
//! registered in commit order, and recovery reads settled children off
//! the restored UTXO set instead of re-deriving and re-signing them.
//!
//! * the differential — block-level settlement at workers ∈ {1, 2, 4}
//!   ≡ a sequential oracle that settles each transaction the moment it
//!   commits, in child ids, enqueue order, `accept_tx_recovery`
//!   documents, tracker state and digest, with rejected accepts and a
//!   failing child determination inside a block;
//! * the adversary — a user-signed TRANSFER carrying forged
//!   `metadata.parent` / `settles_bid` is never counted as a child, at
//!   commit or on recovery;
//! * the telemetry pins — reopening a settled ledger signs nothing,
//!   reopening after a crash mid-pump signs exactly what is outstanding.

mod common;

use common::{nested_state, NestedState, Scratch};
use smartchaindb::core::validate::validate_transaction;
use smartchaindb::core::{determine_children, Telemetry};
use smartchaindb::json::obj;
use smartchaindb::workload::{scdb_plan, ScdbPlan, ScenarioConfig};
use smartchaindb::{
    KeyPair, LedgerState, LedgerView, NestedStatus, NestedTracker, Node, Operation,
    PipelineOptions, Transaction, TxBuilder,
};
use std::collections::VecDeque;
use std::sync::Arc;

fn escrow() -> KeyPair {
    KeyPair::from_seed([0xE5; 32])
}

fn plan(requests: usize, bidders: usize, seed: u64) -> ScdbPlan {
    scdb_plan(
        &ScenarioConfig {
            requests,
            bidders_per_request: bidders,
            capability_count: 2,
            capability_bytes: 16,
            seed,
        },
        &escrow().public_hex(),
    )
}

fn parse(payloads: &[String]) -> Vec<Arc<Transaction>> {
    payloads
        .iter()
        .map(|p| Arc::new(Transaction::from_payload(p).expect("workload payloads parse")))
        .collect()
}

/// The sequential oracle: validate, apply and settle one transaction at
/// a time, each ACCEPT_BID's children determined the moment it commits.
struct Oracle {
    ledger: LedgerState,
    tracker: NestedTracker,
    queue: VecDeque<(String, Arc<Transaction>)>,
    recovery: Vec<(String, Vec<String>, String)>,
}

impl Oracle {
    fn new() -> Oracle {
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow().public_hex());
        Oracle {
            ledger,
            tracker: NestedTracker::new(),
            queue: VecDeque::new(),
            recovery: Vec::new(),
        }
    }

    /// Validates and commits `tx`; false when validation rejects it.
    fn commit(&mut self, tx: &Transaction) -> bool {
        if validate_transaction(tx, &self.ledger).is_err() {
            return false;
        }
        self.ledger
            .apply(tx)
            .expect("a validated transaction applies");
        assert!(self.settle(tx), "a validated transaction settles");
        true
    }

    /// Algorithm 3's commit phase for one committed transaction; false
    /// when an accept's children cannot be determined.
    fn settle(&mut self, tx: &Transaction) -> bool {
        let is_child = tx.metadata.get("parent").and_then(|p| p.as_str()).is_some();
        match tx.operation {
            Operation::AcceptBid => {
                let Ok(children) = determine_children(&self.ledger, tx, &escrow()) else {
                    return false;
                };
                let ids: Vec<String> = children.iter().map(|c| c.id.clone()).collect();
                self.tracker.register(&tx.id, ids.iter().cloned());
                self.recovery
                    .push((tx.id.clone(), ids, "commit".to_owned()));
                for child in children {
                    self.queue.push_back((tx.id.clone(), Arc::new(child)));
                }
            }
            Operation::Return | Operation::Transfer if is_child => {
                if let Some(parent) = self.tracker.child_committed(&tx.id) {
                    let doc = self.recovery.iter_mut().find(|doc| doc.0 == parent);
                    doc.expect("a completed parent was logged").2 = "complete".to_owned();
                }
            }
            _ => {}
        }
        true
    }

    /// Settles up to `max` queued jobs the way `Node::pump_returns`
    /// does — applied without validation — one at a time. A job whose
    /// settlement fails is dropped (the node retries it; the test takes
    /// it back off the node's queue).
    fn pump(&mut self, max: usize) -> usize {
        let mut settled = 0;
        for _ in 0..max.min(self.queue.len()) {
            let (_, job) = self.queue.pop_front().expect("counted above");
            if job.operation != Operation::AcceptBid {
                validate_transaction(&job, &self.ledger).expect("a determined child validates");
            }
            self.ledger.apply(&job).expect("queued jobs apply");
            settled += usize::from(self.settle(&job));
        }
        settled
    }

    fn state(&self, accepts: &[String]) -> NestedState {
        let mut recovery = self.recovery.clone();
        recovery.sort();
        NestedState {
            tracker: common::tracker_state(&self.tracker, accepts),
            queue: self
                .queue
                .iter()
                .map(|(parent, child)| (parent.clone(), child.id.clone()))
                .collect(),
            recovery,
        }
    }
}

/// An ACCEPT_BID that commits (the pump applies without validating) but
/// whose children cannot be determined: its REQUEST does not exist.
fn undeterminable_accept(bid: &Transaction) -> Arc<Transaction> {
    let attacker = KeyPair::from_seed([0xBA; 32]);
    let escrow_pk = escrow().public_hex();
    Arc::new(
        TxBuilder::accept_bid(bid.id.clone(), "f".repeat(64))
            .input(bid.id.clone(), 0, vec![escrow_pk.clone()])
            .output_with_prev(attacker.public_hex(), 1, vec![escrow_pk])
            .sign(&[&attacker]),
    )
}

/// `stream` with the traffic the stage must shrug off: ahead of the
/// second auction's accept, the same accept signed by someone who is
/// not the requester (rejected at commit); at the very end, the first
/// auction's accept again, byte for byte (a duplicate by then).
fn with_rejected_accepts(plan: &ScdbPlan, stream: Vec<String>) -> Vec<Arc<Transaction>> {
    let attacker = KeyPair::from_seed([0xBA; 32]);
    let victim = &plan.auctions[1].accept;
    let mut usurped = victim.clone();
    smartchaindb::core::sign_transaction(&mut usurped, &[&attacker]);
    assert_ne!(usurped.id, victim.id);
    let mut txs = Vec::new();
    for tx in parse(&stream) {
        if tx.id == victim.id {
            txs.push(Arc::new(usurped.clone()));
        }
        txs.push(tx);
    }
    txs.push(Arc::new(plan.auctions[0].accept.clone()));
    txs
}

/// Block-level settlement ≡ settle-as-it-commits. After every block and
/// every pump the node's tracker, return queue, recovery collection and
/// digest equal the oracle's; one pump's block carries an accept whose
/// determination fails between two real children.
#[test]
fn staged_settlement_equals_settle_as_it_commits() {
    let flat = plan(6, 2, 0x5E77);
    let contended = plan(3, 16, 0xC0DE);
    let streams = [
        ("flat", &flat, flat.flat_payloads(), 8),
        ("contended", &contended, contended.contended_payloads(), 80),
    ];
    for (name, plan, stream, block_size) in streams {
        let txs = with_rejected_accepts(plan, stream);
        let bogus = undeterminable_accept(&plan.auctions[0].bids[0]);
        let mut accepts: Vec<String> = plan.auctions.iter().map(|a| a.accept.id.clone()).collect();
        accepts.push(bogus.id.clone());

        for workers in [1, 2, 4] {
            let mode = format!("{name} workers={workers}");
            let mut oracle = Oracle::new();
            let mut node = Node::with_options(escrow(), PipelineOptions::with_workers(workers));
            let mut injected = false;
            let mut rejected = 0;

            for (b, block) in txs.chunks(block_size).enumerate() {
                let at = format!("{mode} block={b}");
                let expected: Vec<String> = block
                    .iter()
                    .filter(|tx| oracle.commit(tx))
                    .map(|tx| tx.id.clone())
                    .collect();
                let report = node.submit_batch_parsed(block);
                assert_eq!(report.outcome.committed, expected, "verdicts: {at}");
                assert!(report.post_commit_failures.is_empty(), "{at}");
                rejected += report.outcome.rejected.len();
                assert_eq!(
                    nested_state(&node, &accepts),
                    oracle.state(&accepts),
                    "{at}"
                );

                // The first pump that has two children to settle gets
                // the undeterminable accept between them.
                let mut expect_failed = 0;
                if !injected && oracle.queue.len() >= 2 {
                    injected = true;
                    expect_failed = 1;
                    oracle.queue.insert(1, (String::new(), Arc::clone(&bogus)));
                    let jobs = node.queue().drain(usize::MAX);
                    for (i, job) in jobs.into_iter().enumerate() {
                        if i == 1 {
                            node.queue().enqueue("", Arc::clone(&bogus));
                        }
                        node.queue().enqueue(&job.parent_id, job.child);
                    }
                }
                let settled = oracle.pump(3);
                assert_eq!(node.pump_returns(3), settled, "pump: {at}");
                if expect_failed == 1 {
                    // The node retries what it could not settle; the
                    // oracle has no retry, so take the job back out.
                    let jobs = node.queue().drain(usize::MAX);
                    assert_eq!(jobs.iter().filter(|j| j.child.id == bogus.id).count(), 1);
                    for job in jobs.into_iter().filter(|j| j.child.id != bogus.id) {
                        node.queue().enqueue(&job.parent_id, job.child);
                    }
                    assert!(node.ledger().is_committed(&bogus.id), "{at}");
                }
                assert_eq!(
                    nested_state(&node, &accepts),
                    oracle.state(&accepts),
                    "after the pump: {at}"
                );
                assert_eq!(node.state_digest(), oracle.ledger.state_digest(), "{at}");
            }
            assert!(injected, "the failing determination ran: {mode}");
            assert_eq!(rejected, 2, "the usurped and the repeated accept: {mode}");

            while oracle.pump(usize::MAX) > 0 {}
            while node.pump_returns(usize::MAX) > 0 {}
            let end = nested_state(&node, &accepts);
            assert_eq!(end, oracle.state(&accepts), "settled: {mode}");
            assert!(end.queue.is_empty(), "{mode}");
            for (accept, (status, _)) in accepts.iter().zip(&end.tracker) {
                let expect = (*accept != bogus.id).then_some(NestedStatus::Complete);
                assert_eq!(*status, expect, "{accept}: {mode}");
            }
            assert_eq!(node.state_digest(), oracle.ledger.state_digest(), "{mode}");
            assert_eq!(
                node.ledger().committed_ids(),
                oracle.ledger.committed_ids(),
                "commit order: {mode}"
            );
        }
    }
}

/// A committed, user-signed TRANSFER that claims to be `accept`'s child
/// settling `bid`: the attacker mints an asset and moves it, with the
/// metadata a real child carries.
fn forged_child(nonce: u64, accept: &Transaction, bid: &Transaction) -> [Arc<Transaction>; 2] {
    let attacker = KeyPair::from_seed([0xF0; 32]);
    let mint = TxBuilder::create(obj! { "capabilities" => smartchaindb::json::arr!["cnc"] })
        .output(attacker.public_hex(), 1)
        .nonce(nonce)
        .sign(&[&attacker]);
    let forged = TxBuilder::transfer(mint.id.clone())
        .input(mint.id.clone(), 0, vec![attacker.public_hex()])
        .output_with_prev(attacker.public_hex(), 1, vec![attacker.public_hex()])
        .metadata(obj! { "parent" => accept.id.clone(), "settles_bid" => bid.id.clone() })
        .sign(&[&attacker]);
    [Arc::new(mint), Arc::new(forged)]
}

/// Forged `metadata.parent` / `settles_bid` on a user-signed TRANSFER
/// counts for nothing: committed before the real children, between
/// them and after them it never checks a child off, and a recovered
/// node — which reads settled children off the UTXO set — rebuilds
/// exactly the pre-crash tracker, queue and recovery collection.
#[test]
fn forged_settlement_metadata_is_never_a_child() {
    let plan = plan(1, 3, 0xF04E);
    let auction = &plan.auctions[0];
    let accepts = vec![auction.accept.id.clone()];
    let scratch = Scratch::new("forged");
    let opts = || PipelineOptions::with_workers(2);
    let mut node = Node::with_durable_dir(escrow(), opts(), &scratch.0).expect("store opens");
    assert!(node
        .submit_batch(&plan.contended_payloads())
        .fully_committed());
    let unsettled = nested_state(&node, &accepts);
    assert_eq!(
        unsettled.tracker[0].0,
        Some(NestedStatus::PendingChildren { outstanding: 3 })
    );

    let commit_forgery = |node: &mut Node, nonce: u64, bid: usize, expect: &NestedState| {
        let forgery = forged_child(nonce, &auction.accept, &auction.bids[bid]);
        assert!(node.submit_batch_parsed(&forgery).fully_committed());
        assert_eq!(&nested_state(node, &accepts), expect, "forgery {nonce}");
    };
    // Before any real child: nothing moves.
    commit_forgery(&mut node, 9001, 0, &unsettled);
    assert_eq!(node.pump_returns(1), 1, "the winner transfer settles");
    let one_settled = nested_state(&node, &accepts);
    assert_eq!(
        one_settled.tracker[0].0,
        Some(NestedStatus::PendingChildren { outstanding: 2 })
    );
    // Between the real children, claiming a bid that is still locked
    // and one that already settled.
    commit_forgery(&mut node, 9002, 1, &one_settled);
    commit_forgery(&mut node, 9003, 0, &one_settled);
    assert_eq!(node.pump_returns(1), 1, "one return settles");
    let pre_crash = nested_state(&node, &accepts);
    commit_forgery(&mut node, 9004, 2, &pre_crash);
    assert_eq!(pre_crash.queue.len(), 1);
    assert_eq!(
        pre_crash.tracker[0].0,
        Some(NestedStatus::PendingChildren { outstanding: 1 })
    );

    let digest = node.state_digest();
    node.flush_durable().expect("flush");
    drop(node);
    let mut recovered = Node::with_durable_dir(escrow(), opts(), &scratch.0).expect("recovers");
    assert_eq!(recovered.state_digest(), digest);
    assert_eq!(nested_state(&recovered, &accepts), pre_crash);

    // After the last real child: the parent completes on the real one.
    assert_eq!(recovered.pump_returns(usize::MAX), 1);
    let complete = nested_state(&recovered, &accepts);
    assert_eq!(complete.tracker[0], (Some(NestedStatus::Complete), vec![]));
    commit_forgery(&mut recovered, 9005, 2, &complete);
}

/// Opens `dir` with a fresh registry and returns the settlement
/// counters of the recovery: (`nested.children_derived`,
/// `nested.children_recovered`, samples of `nested.derive_ns`).
fn reopen_counts(dir: &std::path::Path) -> (u64, u64, u64) {
    let telemetry = Telemetry::enabled();
    let opts = PipelineOptions::with_workers(2).with_telemetry(telemetry.clone());
    let node = Node::with_durable_dir(escrow(), opts, dir).expect("recovers");
    drop(node);
    let snapshot = telemetry.snapshot().expect("telemetry is on");
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    (
        counter("nested.children_derived"),
        counter("nested.children_recovered"),
        snapshot
            .histograms
            .get("nested.derive_ns")
            .map_or(0, |h| h.count),
    )
}

/// Recovery signs nothing it does not have to: reopening a fully
/// settled ledger derives no child (every id comes off the UTXO set),
/// and reopening after a crash in the middle of a pump derives exactly
/// the children still outstanding.
#[test]
fn recovery_derives_only_what_a_crash_left_outstanding() {
    let plan = plan(2, 3, 0x7E1E);
    let scratch = Scratch::new("derive-counts");
    let telemetry = Telemetry::enabled();
    let opts = PipelineOptions::with_workers(2).with_telemetry(telemetry.clone());
    let mut node = Node::with_durable_dir(escrow(), opts, &scratch.0).expect("store opens");
    assert!(node
        .submit_batch(&plan.contended_payloads())
        .fully_committed());
    let at_commit = telemetry.snapshot().expect("telemetry is on");
    assert_eq!(at_commit.counters["nested.children_derived"], 6);
    assert_eq!(
        at_commit.counters.get("nested.children_recovered").copied(),
        Some(0)
    );
    assert_eq!(at_commit.histograms["nested.derive_ns"].count, 1);

    // All of the first accept's children and one of the second's.
    assert_eq!(node.pump_returns(4), 4);
    node.flush_durable().expect("flush");
    let outstanding = node.queue().len() as u64;
    assert_eq!(outstanding, 2);
    drop(node);
    assert_eq!(reopen_counts(&scratch.0), (outstanding, 4, 1), "mid-pump");

    // Settle the rest, then reopen: nothing is derived.
    let opts = PipelineOptions::with_workers(2);
    let mut node = Node::with_durable_dir(escrow(), opts, &scratch.0).expect("recovers");
    assert_eq!(node.pump_returns(usize::MAX), 2);
    node.flush_durable().expect("flush");
    drop(node);
    assert_eq!(reopen_counts(&scratch.0), (0, 6, 1), "fully settled");
}
