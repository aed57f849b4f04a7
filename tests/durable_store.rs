//! Durable-store crash lane: randomized (but seeded, repeatable)
//! auction streams committed through the write-ahead store, killed at
//! every write boundary — mid-wave, between the wave records and the
//! seal, a torn seal line, mid-checkpoint — then recovered. Recovery
//! must land on a *sealed block boundary* whose digest, UTXO snapshot
//! and commit order are byte-identical to a sequential in-memory
//! reference at the same height, and the recovered node must be able
//! to finish the rest of the stream and converge with the reference.
//!
//! CI's `stress-single-thread` job runs this with `SCDB_STRESS_ITERS=50`
//! and `--test-threads=1`, which switches the kill-point sweep from a
//! strided sample to every single write boundary.

mod common;

use common::{nested_state, tracker_state, Scratch};
use smartchaindb::consensus::{App, BlockView, TxId};
use smartchaindb::core::pipeline::PipelineOptions;
use smartchaindb::core::{NestedStatus, Transaction, ValidationError};
use smartchaindb::sim::SimTime;
use smartchaindb::store::{DurableStore, FsyncLevel, OutputRef, StateDigest, Utxo};
use smartchaindb::workload::{scdb_plan, ScenarioConfig};
use smartchaindb::{KeyPair, LedgerView, Node, SmartchainCluster, TxBuilder};
use std::sync::Arc;

fn stress_iters() -> usize {
    std::env::var("SCDB_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Kill-point stride: the stress lane sweeps every write boundary, the
/// default lane samples with a coprime stride so successive runs still
/// hit wave records, seals and checkpoint files.
fn kill_stride() -> u64 {
    if stress_iters() >= 10 {
        1
    } else {
        7
    }
}

/// Reference state at one sealed height: what recovery must reproduce.
struct RefState {
    digest: StateDigest,
    snapshot: Vec<(OutputRef, Utxo)>,
    committed: Vec<String>,
}

fn ref_state(node: &Node) -> RefState {
    RefState {
        digest: node.state_digest(),
        snapshot: node.ledger().utxos().snapshot(),
        committed: node.ledger().committed_ids().to_vec(),
    }
}

fn contended_blocks(seed: u64, block_size: usize) -> Vec<Vec<Arc<Transaction>>> {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let plan = scdb_plan(
        &ScenarioConfig {
            requests: 4,
            bidders_per_request: 2,
            capability_count: 2,
            capability_bytes: 16,
            seed,
        },
        &escrow.public_hex(),
    );
    let txs: Vec<Arc<Transaction>> = plan
        .contended_payloads()
        .iter()
        .map(|p| Arc::new(Transaction::from_payload(p).expect("workload payloads parse")))
        .collect();
    txs.chunks(block_size).map(<[_]>::to_vec).collect()
}

/// The batch path under fire: the whole contended stream is fed block
/// by block (checkpoints interleaved) into a durable node whose disk
/// dies after `k` whole writes. Recovery must land on a sealed block
/// boundary equal to the sequential reference at that height, and
/// finishing the remaining blocks must converge on the reference's
/// final state. `k` sweeps until a run survives the entire stream.
#[test]
fn crash_at_any_write_recovers_a_sealed_prefix_matching_the_reference() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let blocks = contended_blocks(0xD07A, 5);

    // Sequential in-memory reference: state after every block.
    let mut reference = Node::with_options(
        escrow.clone(),
        PipelineOptions::with_workers(1)
            .utxo_shards(1)
            .durable(false),
    );
    let mut ref_states = vec![ref_state(&reference)];
    for block in &blocks {
        let report = reference.submit_batch_parsed(block);
        assert!(report.post_commit_failures.is_empty());
        ref_states.push(ref_state(&reference));
    }

    // The kill sweep runs at every durability level: `None` keeps the
    // seed's boundary set, `Block` adds the per-seal fsync boundaries,
    // `Group(3)` adds buffered seals (lost like a crash until the group
    // flushes) and the coalesced manifest-chunk boundary.
    let scratch = Scratch::new("batch-crash");
    for level in [FsyncLevel::None, FsyncLevel::Block, FsyncLevel::Group(3)] {
        let opts = move || PipelineOptions::with_workers(4).utxo_shards(8).fsync(level);
        let mut k = 0u64;
        let mut survived = false;
        // Backstop far above any real write count for this stream.
        while !survived && k < 100_000 {
            let _ = std::fs::remove_dir_all(&scratch.0);
            let mut node = Node::with_durable_dir(escrow.clone(), opts(), &scratch.0)
                .expect("fresh store opens");
            let store = node
                .ledger()
                .durable_store()
                .expect("durable node has a store")
                .clone();
            store.inject_crash_after(k);
            for (i, block) in blocks.iter().enumerate() {
                node.submit_batch_parsed(block);
                if i % 2 == 1 {
                    node.checkpoint_durable()
                        .expect("checkpoint at a block boundary");
                }
            }
            // Orderly shutdown flushes group-buffered seals; a tripped
            // run's flush is swallowed by the simulated dead disk, so
            // the crash semantics under test are untouched. The flush
            // spends write budget too, so the survival check comes
            // after it — a run that dies mid-flush is still a crash.
            node.flush_durable().expect("group flush at shutdown");
            survived = !store.crash_tripped();
            drop(node);

            // Recovery: fail-closed open must succeed and land on a
            // sealed block boundary.
            let mut recovered = Node::with_durable_dir(escrow.clone(), opts(), &scratch.0)
                .expect("recovery after a torn crash is clean");
            let h = recovered
                .ledger()
                .durable_store()
                .expect("recovered node keeps its store")
                .next_height() as usize;
            assert!(h <= blocks.len(), "height k={k} h={h} level={level:?}");
            if survived {
                assert_eq!(
                    h,
                    blocks.len(),
                    "an untripped run seals every block (level={level:?})"
                );
            }
            let expect = &ref_states[h];
            assert_eq!(
                recovered.state_digest(),
                expect.digest,
                "digest at k={k} h={h} level={level:?}"
            );
            assert_eq!(
                recovered.ledger().utxos().snapshot(),
                expect.snapshot,
                "snapshot at k={k} h={h} level={level:?}"
            );
            assert_eq!(
                recovered.ledger().committed_ids(),
                expect.committed.as_slice(),
                "commit order at k={k} h={h} level={level:?}"
            );

            // The recovered node finishes the stream and converges.
            for block in &blocks[h..] {
                recovered.submit_batch_parsed(block);
            }
            let last = ref_states.last().unwrap();
            assert_eq!(
                recovered.state_digest(),
                last.digest,
                "converged digest at k={k} level={level:?}"
            );
            assert_eq!(
                recovered.ledger().utxos().snapshot(),
                last.snapshot,
                "converged snapshot at k={k} level={level:?}"
            );
            k += kill_stride();
        }
        assert!(
            survived,
            "the sweep must reach an untripped run (level={level:?})"
        );
    }
}

/// One scalar op of the lockstep auction script.
enum Op {
    Payload(String),
    Pump,
}

/// The auction script: six scalar commits plus the two child
/// settlements the ACCEPT_BID enqueues — every op seals exactly one
/// block.
fn auction_ops(escrow_pk: &str) -> Vec<Op> {
    let sally = KeyPair::from_seed([0x5A; 32]);
    let alice = KeyPair::from_seed([0xA1; 32]);
    let bob = KeyPair::from_seed([0xB0; 32]);
    use smartchaindb::json::{arr, obj};
    let asset_a = TxBuilder::create(obj! { "capabilities" => arr!["3d-print", "cnc"] })
        .output(alice.public_hex(), 1)
        .nonce(1)
        .sign(&[&alice]);
    let asset_b = TxBuilder::create(obj! { "capabilities" => arr!["3d-print", "cnc"] })
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
    vec![
        Op::Payload(asset_a.to_payload()),
        Op::Payload(asset_b.to_payload()),
        Op::Payload(request.to_payload()),
        Op::Payload(bid_a.to_payload()),
        Op::Payload(bid_b.to_payload()),
        Op::Payload(accept.to_payload()),
        Op::Pump,
        Op::Pump,
    ]
}

fn run_op(node: &mut Node, op: &Op) {
    match op {
        Op::Payload(p) => {
            node.process_transaction(p).expect("scripted op commits");
        }
        Op::Pump => {
            assert_eq!(node.pump_returns(1), 1, "one queued child settles");
        }
    }
}

/// The scalar path under fire: the nested-auction script runs op by op
/// on a durable node killed after `k` writes. Recovery rebuilds the
/// ledger AND the auxiliary state — document mirror, settlement
/// tracker, return queue — well enough that pumping the rebuilt queue
/// and replaying the remaining script converges on the reference,
/// children and all.
#[test]
fn scalar_auction_with_settlements_survives_crash_at_any_write() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let ops = auction_ops(&escrow.public_hex());

    // Lockstep reference: state after each sealed op.
    let mut reference = Node::with_options(
        escrow.clone(),
        PipelineOptions::with_workers(1)
            .utxo_shards(1)
            .durable(false),
    );
    let mut ref_states = vec![ref_state(&reference)];
    for op in &ops {
        run_op(&mut reference, op);
        ref_states.push(ref_state(&reference));
    }

    let scratch = Scratch::new("scalar-crash");
    for level in [FsyncLevel::None, FsyncLevel::Group(2)] {
        let opts = move || PipelineOptions::with_workers(2).utxo_shards(4).fsync(level);
        let mut k = 0u64;
        let mut survived = false;
        while !survived && k < 10_000 {
            let _ = std::fs::remove_dir_all(&scratch.0);
            let mut node = Node::with_durable_dir(escrow.clone(), opts(), &scratch.0)
                .expect("fresh store opens");
            let store = node.ledger().durable_store().unwrap().clone();
            store.inject_crash_after(k);
            for op in &ops {
                run_op(&mut node, op);
            }
            node.flush_durable().expect("group flush at shutdown");
            survived = !store.crash_tripped();
            drop(node);

            let mut recovered = Node::with_durable_dir(escrow.clone(), opts(), &scratch.0)
                .expect("recovery after a torn crash is clean");
            let h = recovered.ledger().durable_store().unwrap().next_height() as usize;
            assert!(h <= ops.len(), "height k={k} h={h} level={level:?}");
            let expect = &ref_states[h];
            assert_eq!(
                recovered.state_digest(),
                expect.digest,
                "digest at k={k} h={h} level={level:?}"
            );
            assert_eq!(
                recovered.ledger().committed_ids(),
                expect.committed.as_slice(),
                "commit order at k={k} h={h} level={level:?}"
            );

            // Finish the script: re-run the ops past the recovered
            // height. Pump ops drain the *rebuilt* queue — recovery
            // must have re-enqueued exactly the children the crash
            // left unsettled.
            for op in &ops[h..] {
                run_op(&mut recovered, op);
            }
            while recovered.pump_returns(usize::MAX) > 0 {}
            let last = ref_states.last().unwrap();
            assert_eq!(
                recovered.state_digest(),
                last.digest,
                "converged digest at k={k} level={level:?}"
            );
            assert_eq!(
                recovered.ledger().utxos().snapshot(),
                last.snapshot,
                "converged snapshot at k={k} level={level:?}"
            );
            k += kill_stride();
        }
        assert!(
            survived,
            "the sweep must reach an untripped run (level={level:?})"
        );
    }
}

/// A durable node that ran the auction script up to and including the
/// ACCEPT_BID: both children sit on the return queue, nothing pumped.
fn node_with_queued_children(dir: &std::path::Path, level: FsyncLevel) -> Node {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let opts = PipelineOptions::with_workers(2).utxo_shards(4).fsync(level);
    let mut node = Node::with_durable_dir(escrow.clone(), opts, dir).expect("store opens");
    for op in &auction_ops(&escrow.public_hex()) {
        if let Op::Payload(_) = op {
            run_op(&mut node, op);
        }
    }
    assert_eq!(node.queue().len(), 2, "winner transfer + return queued");
    node.flush_durable().expect("the pre-pump state is on disk");
    node
}

/// Batched settlement under fire: one `pump_returns` settles both
/// children as ONE block — a wave record per child, one shared seal.
/// A crash after any child's wave record and before the seal lands
/// whole must recover to the pre-pump state with every child back on
/// the return queue, and pumping the rebuilt queue must land
/// digest-equal to the uncrashed run. At every kill point the nested
/// state recovery rebuilds — tracker statuses and outstanding ids, the
/// return queue in order, the recovery collection — equals the
/// uncrashed node's at the same height: recovery reads the settled
/// children off the UTXO set and derives only the outstanding ones.
#[test]
fn crash_inside_a_multi_child_pump_recovers_to_the_pre_pump_state() {
    let scratch = Scratch::new("pump-crash");
    for level in [FsyncLevel::None, FsyncLevel::Group(2)] {
        let _ = std::fs::remove_dir_all(&scratch.0);
        let mut uncrashed = node_with_queued_children(&scratch.0, level);
        let pre_pump = ref_state(&uncrashed);
        let accepts = uncrashed.tracker().incomplete_parents();
        assert_eq!(accepts.len(), 1, "the script's one ACCEPT_BID");
        let pre_pump_nested = nested_state(&uncrashed, &accepts);
        let pre_height = uncrashed.ledger().durable_store().unwrap().next_height();
        assert_eq!(uncrashed.pump_returns(usize::MAX), 2);
        assert_eq!(
            uncrashed.ledger().durable_store().unwrap().next_height(),
            pre_height + 1,
            "one pump, one sealed block"
        );
        let settled = ref_state(&uncrashed);
        let settled_nested = nested_state(&uncrashed, &accepts);
        drop(uncrashed);

        let mut k = 0u64;
        let mut survived = false;
        while !survived && k < 1_000 {
            let _ = std::fs::remove_dir_all(&scratch.0);
            let mut node = node_with_queued_children(&scratch.0, level);
            let store = node.ledger().durable_store().unwrap().clone();
            store.inject_crash_after(k);
            node.pump_returns(usize::MAX);
            node.flush_durable().expect("group flush at shutdown");
            survived = !store.crash_tripped();
            drop(node);

            let escrow = KeyPair::from_seed([0xE5; 32]);
            let opts = PipelineOptions::with_workers(2).utxo_shards(4).fsync(level);
            let mut recovered = Node::with_durable_dir(escrow, opts, &scratch.0)
                .expect("recovery after a torn pump is clean");
            if survived {
                assert_eq!(recovered.state_digest(), settled.digest);
                assert!(recovered.queue().is_empty(), "nothing left to settle");
            } else {
                assert_eq!(
                    nested_state(&recovered, &accepts),
                    pre_pump_nested,
                    "pre-pump nested state at k={k} level={level:?}"
                );
                // The seal is the pump's last write: a tripped run never
                // landed it whole, so no child's wave is covered.
                assert_eq!(
                    recovered.state_digest(),
                    pre_pump.digest,
                    "pre-pump digest at k={k} level={level:?}"
                );
                assert_eq!(
                    recovered.ledger().committed_ids(),
                    pre_pump.committed.as_slice(),
                    "pre-pump commit order at k={k} level={level:?}"
                );
                assert_eq!(recovered.queue().len(), 2, "every child is back at k={k}");
                assert_eq!(recovered.pump_returns(usize::MAX), 2);
            }
            assert_eq!(
                recovered.state_digest(),
                settled.digest,
                "second pump converges at k={k} level={level:?}"
            );
            assert_eq!(
                recovered.ledger().utxos().snapshot(),
                settled.snapshot,
                "converged snapshot at k={k} level={level:?}"
            );
            assert_eq!(
                recovered.ledger().committed_ids(),
                settled.committed.as_slice(),
                "converged commit order at k={k} level={level:?}"
            );
            assert_eq!(
                nested_state(&recovered, &accepts),
                settled_nested,
                "converged nested state at k={k} level={level:?}"
            );
            k += 1;
        }
        assert!(survived, "the sweep reaches an untripped pump ({level:?})");
        assert!(k > 2, "the pump wrote a wave per child plus the seal");
    }
}

/// A child whose apply fails inside a batched pump is named aborted in
/// the shared seal — replay skips its write-ahead-logged effects — and
/// its siblings commit in the same block. The failed child goes back on
/// the queue, exactly as on the scalar path.
#[test]
fn failed_child_is_aborted_in_the_seal_and_its_siblings_commit() {
    let scratch = Scratch::new("pump-abort");
    let mut node = node_with_queued_children(&scratch.0, FsyncLevel::None);
    // Settle one child behind the queue's back, then queue both again:
    // the pump's apply of the settled one is a double spend.
    let jobs = node.queue().drain(usize::MAX);
    assert!(node
        .submit_batch_parsed(std::slice::from_ref(&jobs[0].child))
        .fully_committed());
    for job in &jobs {
        node.queue().enqueue(&job.parent_id, Arc::clone(&job.child));
    }
    let height = node.ledger().durable_store().unwrap().next_height();
    assert_eq!(node.pump_returns(usize::MAX), 1, "the sibling settles");
    assert_eq!(
        node.ledger().durable_store().unwrap().next_height(),
        height + 1,
        "one block for the failed child and its sibling"
    );
    assert_eq!(node.queue().len(), 1, "the failed child is retried");
    assert!(node.ledger().is_committed(&jobs[1].child.id));
    let expect = ref_state(&node);
    node.flush_durable().expect("flush");
    drop(node);

    // Replay must skip the aborted child's logged spend (it would be a
    // double spend) and land on the sealed digest.
    let recovered = Node::with_durable_dir(
        KeyPair::from_seed([0xE5; 32]),
        PipelineOptions::with_workers(2).utxo_shards(4),
        &scratch.0,
    )
    .expect("the aborted child's effects are skipped at replay");
    assert_eq!(recovered.state_digest(), expect.digest);
    assert_eq!(recovered.ledger().utxos().snapshot(), expect.snapshot);
    assert_eq!(
        recovered.ledger().committed_ids(),
        expect.committed.as_slice()
    );
}

/// `pump_returns(max)` settles `min(max, queued)` children — the counts
/// the per-child path returned — and an empty queue seals nothing.
#[test]
fn pump_returns_counts_are_independent_of_the_batching() {
    let scratch = Scratch::new("pump-counts");
    let mut node = node_with_queued_children(&scratch.0, FsyncLevel::None);
    let height = |n: &Node| n.ledger().durable_store().unwrap().next_height();
    let start = height(&node);
    assert_eq!(node.pump_returns(1), 1, "fewer than queued: max settle");
    assert_eq!(node.pump_returns(5), 1, "more than queued: the rest settle");
    assert_eq!(height(&node), start + 2);
    assert_eq!(node.pump_returns(5), 0, "empty queue");
    assert_eq!(height(&node), start + 2, "an empty pump seals no block");
}

/// Cluster durability: one replica restarts mid-stream and recovers
/// from its own WAL, another is wiped and catches up wholesale from a
/// peer's store. Everyone must stay digest-equal throughout.
#[test]
fn cluster_restart_and_catch_up_stay_digest_equal() {
    let blocks = contended_blocks(0xCAFE, 4);
    let payloads: Vec<Vec<String>> = blocks
        .iter()
        .map(|b| b.iter().map(|t| t.to_payload()).collect())
        .collect();
    let nodes = 3;
    let mut cluster = SmartchainCluster::with_options(
        nodes,
        PipelineOptions::with_workers(4)
            .utxo_shards(8)
            .durable(true),
    );
    let mut next_tx: TxId = 0;
    let mut deliver = |cluster: &mut SmartchainCluster, block: &[String]| {
        let pairs: Vec<(TxId, &str)> = block
            .iter()
            .map(|p| {
                next_tx += 1;
                (next_tx, p.as_str())
            })
            .collect();
        for node in 0..nodes {
            cluster.deliver_block(node, BlockView::bare(&pairs));
        }
    };

    let half = payloads.len() / 2;
    for block in &payloads[..half] {
        deliver(&mut cluster, block);
    }
    cluster
        .checkpoint_replica(0)
        .expect("replica 0 checkpoints at a block boundary");

    // Replica 1 restarts; recovery from its own store must reach the
    // sealed state every surviving replica holds.
    cluster.restart_replica(1).expect("replica 1 recovers");
    let d0 = cluster.state_digest(0);
    assert_eq!(d0, cluster.state_digest(1), "restarted replica diverged");
    assert_eq!(d0, cluster.state_digest(2));

    // Keep going: the restarted replica delivers the rest of the
    // stream like everyone else.
    for block in &payloads[half..] {
        deliver(&mut cluster, block);
    }
    let d0 = cluster.state_digest(0);
    assert_eq!(d0, cluster.state_digest(1));
    assert_eq!(d0, cluster.state_digest(2));

    // Replica 2 is wiped entirely and catches up from replica 0's
    // store (checkpoint + WAL tail, wholesale).
    let wiped = cluster.durable_dir(2).expect("durable cluster has dirs");
    std::fs::remove_dir_all(&wiped).expect("wipe replica 2");
    let stats = cluster.catch_up(2, 0).expect("replica 2 catches up");
    assert!(
        !stats.incremental,
        "a wiped replica has no checkpoint to diff against — full export"
    );
    assert_eq!(cluster.state_digest(0), cluster.state_digest(2));
    assert_eq!(
        cluster.ledger(0).utxos().snapshot(),
        cluster.ledger(2).utxos().snapshot(),
        "caught-up replica holds the full state"
    );

    // And it keeps working: one more delivered block stays replicated.
    deliver(&mut cluster, &payloads[0]);
    let d0 = cluster.state_digest(0);
    assert_eq!(d0, cluster.state_digest(1));
    assert_eq!(d0, cluster.state_digest(2));
}

/// Node ≡ replica recovery: the same committed auction stream — one
/// accept with its children settled, one with them outstanding —
/// recovered by `Node::with_durable_dir` and by
/// `SmartchainCluster::restart_replica` lands on the same digest and
/// the same tracker state (status and outstanding ids) per accept; the
/// node, which alone keeps a return queue, gets back exactly the
/// outstanding children. And the replica under fire: killed at any
/// write of the children's block, it recovers the tracker of the
/// height it landed on — the children's block whole, or not at all.
#[test]
fn node_and_replica_recover_the_same_nested_state() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let plan = scdb_plan(
        &ScenarioConfig {
            requests: 2,
            bidders_per_request: 2,
            capability_count: 2,
            capability_bytes: 16,
            seed: 0x9A21,
        },
        &escrow.public_hex(),
    );
    let payloads = plan.contended_payloads();
    let accepts: Vec<String> = plan.auctions.iter().map(|a| a.accept.id.clone()).collect();
    let opts = || PipelineOptions::with_workers(2).utxo_shards(4);

    // The node: commit the stream, settle the first accept's children.
    let scratch = Scratch::new("recovery-parity");
    let mut node =
        Node::with_durable_dir(escrow.clone(), opts(), &scratch.0).expect("fresh store opens");
    assert!(node.submit_batch(&payloads).fully_committed());
    let unsettled = tracker_state(node.tracker(), &accepts);
    assert_eq!(node.pump_returns(2), 2, "one accept's children settle");
    let before = nested_state(&node, &accepts);
    let statuses: Vec<_> = before.tracker.iter().map(|(status, _)| status).collect();
    assert_eq!(
        statuses,
        [
            &Some(NestedStatus::Complete),
            &Some(NestedStatus::PendingChildren { outstanding: 2 })
        ]
    );
    node.flush_durable().expect("flush");
    drop(node);
    let recovered = Node::with_durable_dir(escrow, opts(), &scratch.0).expect("node recovers");

    // The cluster: the same stream as one block on every replica, its
    // seal flushed, and the settled accept's children as the payloads
    // of a second.
    let commit = |cluster: &mut SmartchainCluster, first: TxId, block: &[String]| {
        let pairs: Vec<(TxId, &str)> = block
            .iter()
            .map(String::as_str)
            .zip(first..)
            .map(|(p, id)| (id, p))
            .collect();
        let ids: Vec<TxId> = pairs.iter().map(|(id, _)| *id).collect();
        for node in 0..2 {
            let verdicts = cluster.deliver_block(node, BlockView::bare(&pairs));
            assert!(verdicts.iter().all(Result::is_ok), "{verdicts:?}");
            cluster.on_commit(node, 0, &ids, SimTime::ZERO);
        }
    };
    let cluster_with_children = || {
        let mut cluster = SmartchainCluster::with_options(2, opts().durable(true));
        commit(&mut cluster, 1, &payloads);
        let children: Vec<String> = cluster
            .drain_outbox()
            .into_iter()
            .filter(|p| {
                let child = Transaction::from_payload(p).expect("child payload parses");
                child.metadata.get("parent").and_then(|v| v.as_str()) == Some(&accepts[0])
            })
            .collect();
        assert_eq!(children.len(), 2);
        cluster.restart_replica(1).expect("replica 1 reopens");
        assert_eq!(tracker_state(cluster.tracker(1), &accepts), unsettled);
        (cluster, children)
    };
    let (mut cluster, children) = cluster_with_children();
    commit(&mut cluster, 1000, &children);
    cluster.restart_replica(1).expect("replica 1 recovers");

    assert_eq!(recovered.state_digest(), cluster.state_digest(1));
    assert_eq!(cluster.state_digest(0), cluster.state_digest(1));
    assert_eq!(nested_state(&recovered, &accepts), before, "node");
    assert_eq!(
        tracker_state(cluster.tracker(1), &accepts),
        before.tracker,
        "replica"
    );
    let mut queued: Vec<&String> = before.queue.iter().map(|(_, child)| child).collect();
    queued.sort_unstable();
    let outstanding: Vec<&String> = before.tracker[1].1.iter().collect();
    assert_eq!(queued, outstanding, "exactly the outstanding children");

    // The replica killed after `k` writes of the children's block.
    let mut k = 0u64;
    let mut survived = false;
    while !survived && k < 1_000 {
        let (mut cluster, children) = cluster_with_children();
        let store = cluster.ledger(1).durable_store().unwrap().clone();
        store.inject_crash_after(k);
        commit(&mut cluster, 1000, &children);
        // The restart flushes first: under group commit that flush is
        // what writes the block's seal, so it too is a kill point.
        cluster.restart_replica(1).expect("replica 1 recovers");
        survived = !store.crash_tripped();
        let expect = if survived {
            &before.tracker
        } else {
            &unsettled
        };
        assert_eq!(
            &tracker_state(cluster.tracker(1), &accepts),
            expect,
            "replica tracker at k={k}"
        );
        k += 1;
    }
    assert!(survived, "the sweep reaches an untripped children block");
    assert!(k > 2, "the block wrote its waves and a seal");
}

/// Incremental catch-up: a lagging replica that already holds a
/// committed checkpoint at the same height as the source's newest one
/// reuses every digest-matching shard file in place — the transfer
/// ships only the WAL suffix — and still lands digest-equal.
#[test]
fn incremental_catch_up_reuses_matching_checkpoint_shards() {
    let blocks = contended_blocks(0x19C4, 4);
    let payloads: Vec<Vec<String>> = blocks
        .iter()
        .map(|b| b.iter().map(|t| t.to_payload()).collect())
        .collect();
    let shards = 8;
    let mut cluster = SmartchainCluster::with_options(
        3,
        PipelineOptions::with_workers(4)
            .utxo_shards(shards)
            .durable(true),
    );
    let mut next_tx: TxId = 0;
    let mut deliver = |cluster: &mut SmartchainCluster, block: &[String], nodes: &[usize]| {
        let pairs: Vec<(TxId, &str)> = block
            .iter()
            .map(|p| {
                next_tx += 1;
                (next_tx, p.as_str())
            })
            .collect();
        for &node in nodes {
            cluster.deliver_block(node, BlockView::bare(&pairs));
        }
    };

    // Everyone sees the stream prefix, then replicas 0 and 2 both
    // checkpoint at the same block boundary — their per-shard digests
    // now match file for file.
    let (last, prefix) = payloads.split_last().expect("stream has blocks");
    for block in prefix {
        deliver(&mut cluster, block, &[0, 1, 2]);
    }
    cluster
        .checkpoint_replica(0)
        .expect("replica 0 checkpoints");
    cluster
        .checkpoint_replica(2)
        .expect("replica 2 checkpoints");

    // Replica 2 misses the last block; catch-up from replica 0 must
    // take the incremental path and reuse every shard in place.
    deliver(&mut cluster, last, &[0, 1]);
    let stats = cluster.catch_up(2, 0).expect("replica 2 catches up");
    assert!(stats.incremental, "matching checkpoints diff incrementally");
    assert_eq!(stats.shards_reused, shards, "every shard file is reused");
    assert_eq!(stats.shards_shipped, 0, "only the WAL suffix moves");

    let d0 = cluster.state_digest(0);
    assert_eq!(d0, cluster.state_digest(2), "caught-up replica diverged");
    assert_eq!(
        cluster.ledger(0).utxos().snapshot(),
        cluster.ledger(2).utxos().snapshot(),
        "caught-up replica holds the full state"
    );

    // And it keeps replicating.
    deliver(&mut cluster, &payloads[0], &[0, 1, 2]);
    let d0 = cluster.state_digest(0);
    assert_eq!(d0, cluster.state_digest(1));
    assert_eq!(d0, cluster.state_digest(2));
}

/// Background checkpointing races live commits: the snapshot is pinned
/// at the block boundary where the checkpoint was requested, blocks
/// keep committing while the writer runs, and recovery stitches the
/// checkpoint plus the concurrently sealed WAL tail back into exactly
/// the final state.
#[test]
fn background_checkpoint_overlaps_commits_and_recovers() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let blocks = contended_blocks(0xBAC6, 4);
    for level in [FsyncLevel::None, FsyncLevel::Group(2)] {
        let opts = move || PipelineOptions::with_workers(4).utxo_shards(8).fsync(level);
        let scratch = Scratch::new(&format!("bg-ckpt-{level:?}"));
        let mut node =
            Node::with_durable_dir(escrow.clone(), opts(), &scratch.0).expect("fresh store opens");
        let half = blocks.len() / 2;
        for block in &blocks[..half] {
            node.submit_batch_parsed(block);
        }
        let handle = node
            .checkpoint_durable_background()
            .expect("background checkpoint starts")
            .expect("a durable node returns a handle");
        // Commits land while the checkpoint writer is (possibly still)
        // running; the snapshot must not absorb them.
        for block in &blocks[half..] {
            node.submit_batch_parsed(block);
        }
        handle
            .wait()
            .expect("background checkpoint writer succeeds");
        node.flush_durable().expect("group flush at shutdown");
        let expect = ref_state(&node);
        let dir = node.durable_dir().expect("durable node has a dir");
        drop(node);

        assert!(
            dir.join(format!("ckpt-{half}")).is_dir(),
            "the checkpoint is anchored at the request boundary (level={level:?})"
        );
        let recovered = Node::with_durable_dir(escrow.clone(), opts(), &scratch.0)
            .expect("recovery stitches checkpoint + concurrent tail");
        assert_eq!(
            recovered.state_digest(),
            expect.digest,
            "digest (level={level:?})"
        );
        assert_eq!(
            recovered.ledger().utxos().snapshot(),
            expect.snapshot,
            "snapshot (level={level:?})"
        );
        assert_eq!(
            recovered.ledger().committed_ids(),
            expect.committed.as_slice(),
            "commit order (level={level:?})"
        );
    }
}

/// A refused WAL write fails the commit closed at the node surface:
/// the batch is rejected as a storage error, the in-memory state never
/// runs ahead of the log, the store latches against further writes,
/// and reopening recovers the sealed prefix and finishes the stream.
#[test]
fn wal_write_failure_fails_the_commit_closed() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let blocks = contended_blocks(0xFA11, 5);
    let scratch = Scratch::new("wal-fail");
    let opts = || PipelineOptions::with_workers(2).utxo_shards(4);
    let mut node =
        Node::with_durable_dir(escrow.clone(), opts(), &scratch.0).expect("fresh store opens");
    node.submit_batch_parsed(&blocks[0]);
    // At a group-commit level (`SCDB_FSYNC=group:N`) block 0's seal is
    // only buffered: put the sealed prefix on disk before the failure.
    node.flush_durable().expect("the sealed prefix is flushed");
    let before = ref_state(&node);

    let store = node.ledger().durable_store().unwrap().clone();
    store.inject_io_failure();
    let report = node.submit_batch_parsed(&blocks[1]);
    assert!(
        report.outcome.committed.is_empty(),
        "nothing commits past a refused WAL write"
    );
    assert!(
        report.outcome.wal_error.is_some(),
        "the outcome names the storage failure"
    );
    assert!(
        report
            .outcome
            .rejected
            .iter()
            .any(|(_, e)| matches!(e, ValidationError::Storage(_))),
        "members are rejected as (retryable) storage errors"
    );
    assert_eq!(
        node.state_digest(),
        before.digest,
        "in-memory state never ran ahead of the log"
    );

    // The store latched fail-closed: later blocks are refused too.
    let report = node.submit_batch_parsed(&blocks[2]);
    assert!(report.outcome.committed.is_empty(), "the latch holds");
    assert!(report.outcome.wal_error.is_some());
    drop(node);

    // Reopen: the partial wave is an unsealed tail, discarded; the
    // sealed prefix survives and the stream finishes cleanly.
    let mut recovered = Node::with_durable_dir(escrow.clone(), opts(), &scratch.0)
        .expect("reopen recovers the sealed prefix");
    assert_eq!(recovered.state_digest(), before.digest);
    for block in &blocks[1..] {
        let report = recovered.submit_batch_parsed(block);
        assert!(report.outcome.wal_error.is_none(), "the reopen unlatches");
    }
}

/// The export surface itself: a copy taken mid-life is a complete,
/// independently recoverable store.
#[test]
fn exported_store_recovers_independently() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let blocks = contended_blocks(0xE49, 6);
    let scratch = Scratch::new("export-src");
    let target = Scratch::new("export-dst");
    let opts = || PipelineOptions::with_workers(2).utxo_shards(4);
    let mut node =
        Node::with_durable_dir(escrow.clone(), opts(), &scratch.0).expect("fresh store opens");
    for (i, block) in blocks.iter().enumerate() {
        node.submit_batch_parsed(block);
        if i == blocks.len() / 2 {
            node.checkpoint_durable().expect("mid-stream checkpoint");
        }
    }
    let store: Arc<DurableStore> = node.ledger().durable_store().unwrap().clone();
    store.export_to(&target.0).expect("export clones the store");

    let clone = Node::with_durable_dir(escrow.clone(), opts(), &target.0)
        .expect("the exported copy recovers");
    assert_eq!(clone.state_digest(), node.state_digest());
    assert_eq!(
        clone.ledger().utxos().snapshot(),
        node.ledger().utxos().snapshot()
    );
    assert_eq!(
        clone.ledger().committed_ids(),
        node.ledger().committed_ids()
    );
}
