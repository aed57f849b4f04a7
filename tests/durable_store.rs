//! Durable-store crash lane: randomized (but seeded, repeatable)
//! auction streams committed through the sealed block manifest, killed
//! at every write boundary — a torn seal line, a torn group flush —
//! then recovered. Recovery re-executes the sealed chain and must land
//! on a *sealed block boundary* whose digest, UTXO snapshot and commit
//! order are byte-identical to a sequential in-memory reference at the
//! same height, and the recovered node must be able to finish the rest
//! of the stream and converge with the reference.
//!
//! CI's `stress-single-thread` job runs this with `SCDB_STRESS_ITERS=50`
//! and `--test-threads=1`, which switches the kill-point sweep from a
//! strided sample to every single write boundary.

mod common;

use common::{nested_state, tracker_state, Scratch};
use smartchaindb::consensus::{App, BlockView, TxId};
use smartchaindb::core::pipeline::PipelineOptions;
use smartchaindb::core::{NestedStatus, Transaction, ValidationError};
use smartchaindb::server::DecodedTx;
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
/// default lane samples every other one (a block is one write, so a
/// wider stride would skip most of a short stream).
fn kill_stride() -> u64 {
    if stress_iters() >= 10 {
        1
    } else {
        2
    }
}

/// The one-log layout: whatever ran, a durable directory holds exactly
/// `wal/manifest.jsonl`.
fn assert_only_the_manifest(dir: &std::path::Path) {
    let names = |dir: &std::path::Path| -> Vec<String> {
        std::fs::read_dir(dir)
            .expect("durable directory lists")
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    };
    assert_eq!(names(dir), ["wal"], "{}", dir.display());
    assert_eq!(names(&dir.join("wal")), ["manifest.jsonl"]);
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
/// by block into a durable node whose disk dies after `k` whole writes.
/// Recovery must land on a sealed block boundary equal to the
/// sequential reference at that height, and finishing the remaining
/// blocks must converge on the reference's final state. `k` sweeps
/// until a run survives the entire stream.
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

    // The kill sweep runs at every durability level: `None` and `Block`
    // write one seal per block, `Group(3)` adds buffered seals (lost
    // like a crash until the group flushes) and the coalesced
    // manifest-chunk boundary.
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
            for block in &blocks {
                node.submit_batch_parsed(block);
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
            assert_only_the_manifest(&scratch.0);
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
/// children as ONE block — one shared seal, the pump's only write. A
/// crash before the seal lands whole must recover to the pre-pump state
/// with every child back on the return queue, and pumping the rebuilt
/// queue must land digest-equal to the uncrashed run. At every kill point the nested
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
                // The seal is the pump's only write: a tripped run never
                // landed it whole, so no child is on disk.
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
        assert_eq!(k, 2, "one pump, one write: its seal");
    }
}

/// A child whose apply fails inside a batched pump stays out of the
/// shared seal — re-execution never sees it — and its siblings commit
/// in the same block. The failed child goes back on the queue, exactly
/// as on the scalar path.
#[test]
fn failed_child_stays_out_of_the_seal_and_its_siblings_commit() {
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

    // Re-execution replays the sibling alone (the failed child would be
    // a double spend) and lands on the sealed digest.
    let recovered = Node::with_durable_dir(
        KeyPair::from_seed([0xE5; 32]),
        PipelineOptions::with_workers(2).utxo_shards(4),
        &scratch.0,
    )
    .expect("the failed child is not in the sealed chain");
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

/// `block` as the engine hands it to a cluster: every payload decoded
/// once, numbered from `first`.
fn decode_block(
    cluster: &SmartchainCluster,
    first: TxId,
    block: &[String],
) -> Vec<(TxId, DecodedTx)> {
    (first..)
        .zip(block)
        .map(|(id, payload)| (id, cluster.decode(payload).expect("payload decodes")))
        .collect()
}

/// The decoded members, lent the way the engine lends them.
fn members(decoded: &[(TxId, DecodedTx)]) -> Vec<(TxId, &DecodedTx)> {
    decoded.iter().map(|(id, tx)| (*id, tx)).collect()
}

/// Cluster durability: one replica restarts mid-stream and recovers
/// from its own manifest, another is wiped and catches up wholesale
/// from a peer's store. Everyone must stay digest-equal throughout.
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
    let mut next_tx: TxId = 1;
    let mut deliver = |cluster: &mut SmartchainCluster, block: &[String]| {
        let decoded = decode_block(cluster, next_tx, block);
        next_tx += block.len() as TxId;
        for node in 0..nodes {
            cluster.deliver_block(node, BlockView::bare(&members(&decoded)));
        }
    };

    let half = payloads.len() / 2;
    for block in &payloads[..half] {
        deliver(&mut cluster, block);
    }

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
    // store (the whole chain).
    let wiped = cluster.durable_dir(2).expect("durable cluster has dirs");
    std::fs::remove_dir_all(&wiped).expect("wipe replica 2");
    let stats = cluster.catch_up(2, 0).expect("replica 2 catches up");
    assert!(
        !stats.incremental,
        "a wiped replica holds no prefix to extend — full export"
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
    for node in 0..nodes {
        assert_only_the_manifest(&cluster.durable_dir(node).unwrap());
    }
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
        let decoded = decode_block(cluster, first, block);
        let members = members(&decoded);
        for node in 0..2 {
            let verdicts = cluster.deliver_block(node, BlockView::bare(&members));
            assert!(verdicts.iter().all(Result::is_ok), "{verdicts:?}");
            cluster.on_commit(node, 0, &members, SimTime::ZERO);
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
    assert_eq!(k, 2, "the children's block costs one write: its seal");
}

/// Catch-up ships only what the lagging replica lacks: a replica whose
/// manifest is a prefix of the source's gets the missing seals appended
/// to it, while one that diverged, or ran ahead of the source, is
/// replaced whole — and lands digest-equal with the source either way.
#[test]
fn catch_up_ships_only_the_missing_seals_and_replaces_a_diverged_or_longer_target() {
    let blocks = contended_blocks(0x19C4, 4);
    let payloads: Vec<Vec<String>> = blocks
        .iter()
        .map(|b| b.iter().map(|t| t.to_payload()).collect())
        .collect();
    // Write-through seals: what a replica holds on disk is what it
    // delivered, whatever level the suite runs at.
    let mut cluster = SmartchainCluster::with_options(
        3,
        PipelineOptions::with_workers(4)
            .utxo_shards(8)
            .durable(true)
            .fsync(FsyncLevel::None),
    );
    let mut next_tx: TxId = 1;
    let mut deliver = |cluster: &mut SmartchainCluster, block: &[String], nodes: &[usize]| {
        let decoded = decode_block(cluster, next_tx, block);
        next_tx += block.len() as TxId;
        for &node in nodes {
            cluster.deliver_block(node, BlockView::bare(&members(&decoded)));
        }
    };
    let manifest = |cluster: &SmartchainCluster, node: usize| {
        let dir = cluster.durable_dir(node).expect("durable cluster has dirs");
        std::fs::read(dir.join("wal/manifest.jsonl")).expect("manifest reads")
    };
    let caught_up = |cluster: &SmartchainCluster, node: usize| {
        assert_eq!(cluster.state_digest(0), cluster.state_digest(node));
        assert_eq!(
            cluster.ledger(0).utxos().snapshot(),
            cluster.ledger(node).utxos().snapshot(),
            "caught-up replica holds the full state"
        );
        assert_eq!(manifest(cluster, 0), manifest(cluster, node));
    };

    // Lagging: replica 2 misses the last two blocks. Its manifest is a
    // prefix of replica 0's, so only the two missing seals move.
    let (prefix, tail) = payloads.split_at(payloads.len() - 2);
    for block in prefix {
        deliver(&mut cluster, block, &[0, 1, 2]);
    }
    for block in tail {
        deliver(&mut cluster, block, &[0, 1]);
    }
    let held = manifest(&cluster, 2);
    let stats = cluster.catch_up(2, 0).expect("replica 2 catches up");
    assert!(stats.incremental, "a prefix is extended, not replaced");
    assert!(manifest(&cluster, 2).starts_with(&held));
    caught_up(&cluster, 2);

    // Diverged: replica 1 alone delivers a block the others never saw,
    // then the others move on. Longer: replica 2 alone runs ahead.
    let extra = |nonce: u64| vec![filler(nonce).to_payload()];
    deliver(&mut cluster, &extra(1), &[1]);
    deliver(&mut cluster, &extra(2), &[0]);
    deliver(&mut cluster, &extra(3), &[2]);
    deliver(&mut cluster, &extra(4), &[2]);
    for node in [1, 2] {
        let stats = cluster.catch_up(node, 0).expect("replica catches up");
        assert!(!stats.incremental, "replica {node} is replaced whole");
        caught_up(&cluster, node);
    }

    // And everyone keeps replicating.
    deliver(&mut cluster, &extra(5), &[0, 1, 2]);
    let d0 = cluster.state_digest(0);
    assert_eq!(d0, cluster.state_digest(1));
    assert_eq!(d0, cluster.state_digest(2));
}

/// A fresh single-output CREATE, one per `nonce`.
fn filler(nonce: u64) -> Arc<Transaction> {
    let owner = KeyPair::from_seed([0x77; 32]);
    Arc::new(
        TxBuilder::create(smartchaindb::json::obj! { "n" => nonce })
            .output(owner.public_hex(), 1)
            .nonce(nonce)
            .sign(&[&owner]),
    )
}

/// A refused write fails closed at the node surface. A seal is written
/// after its block applied, so the block whose seal (at `group:3`: whose
/// group flush) is refused is in memory and reports the storage error;
/// the store latches, and from then on the latch holds *before* memory:
/// the next block and the next pump commit nothing, reject every member
/// as a storage error and leave the state untouched. Reopening recovers
/// the last durable seal and finishes the stream.
#[test]
fn wal_write_failure_fails_the_commit_closed() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    for level in [FsyncLevel::None, FsyncLevel::Group(3)] {
        let scratch = Scratch::new("wal-fail");
        // Both children of the script's ACCEPT_BID are queued and the
        // sealed prefix is on disk.
        let mut node = node_with_queued_children(&scratch.0, level);
        let before = ref_state(&node);

        // The refusal surfaces at the first write: the very next seal,
        // or the flush of the group the third seal fills.
        let store = node.ledger().durable_store().unwrap().clone();
        store.inject_io_failure();
        let until_refusal = match level {
            FsyncLevel::Group(n) => n as u64,
            _ => 1,
        };
        for nonce in 1..until_refusal {
            node.process_transaction(&filler(nonce).to_payload())
                .expect("a buffered seal acknowledges nothing and refuses nothing");
        }
        let refused = filler(until_refusal);
        match node.process_transaction(&refused.to_payload()) {
            Err(ValidationError::Storage(why)) => {
                assert!(why.contains("durable seal failed"), "{why} ({level:?})")
            }
            other => panic!("the refused block names the failure, got {other:?} ({level:?})"),
        }
        assert!(
            node.ledger().is_committed(&refused.id),
            "the named cost: the refused block applied in memory ({level:?})"
        );
        assert!(node.flush_durable().is_err(), "nothing reads as flushed");
        let ahead = node.state_digest();

        // The latch holds before memory, for a block and for a pump.
        let next = [filler(100), filler(101)];
        let report = node.submit_batch_parsed(&next);
        assert!(report.outcome.committed.is_empty(), "the latch holds");
        assert!(report.outcome.wal_error.is_some());
        assert_eq!(report.outcome.rejected.len(), next.len());
        assert!(report
            .outcome
            .rejected
            .iter()
            .all(|(_, e)| matches!(e, ValidationError::Storage(_))));
        assert_eq!(node.pump_returns(usize::MAX), 0, "the pump is refused");
        assert_eq!(node.queue().len(), 2, "nothing left the queue");
        assert_eq!(node.state_digest(), ahead, "memory did not move");
        assert!(!node.ledger().is_committed(&next[0].id));
        drop(node);

        // Reopen: the last durable seal, children back on the queue,
        // and the stream finishes cleanly.
        let opts = PipelineOptions::with_workers(2).utxo_shards(4).fsync(level);
        let mut recovered = Node::with_durable_dir(escrow.clone(), opts, &scratch.0)
            .expect("reopen recovers the last durable seal");
        assert_eq!(recovered.state_digest(), before.digest, "{level:?}");
        assert_eq!(
            recovered.ledger().committed_ids(),
            before.committed.as_slice()
        );
        assert_eq!(recovered.queue().len(), 2);
        let report = recovered.submit_batch_parsed(&next);
        assert!(report.fully_committed(), "the reopen unlatches");
        assert!(report.outcome.wal_error.is_none());
        assert_eq!(recovered.pump_returns(usize::MAX), 2);
        recovered.flush_durable().expect("flush");
        assert_only_the_manifest(&scratch.0);
    }
}

/// Corruption is localised: one committed document altered in the
/// middle of the manifest — the line still parses — is refused at the
/// seal that holds it, not at the end of the replay.
#[test]
fn corrupted_document_is_refused_at_its_own_seal() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let blocks = contended_blocks(0xC0DE, 4);
    let scratch = Scratch::new("mid-corrupt");
    let opts = || PipelineOptions::with_workers(2).utxo_shards(4);
    let mut node =
        Node::with_durable_dir(escrow.clone(), opts(), &scratch.0).expect("fresh store opens");
    for block in &blocks {
        node.submit_batch_parsed(block);
    }
    node.flush_durable().expect("flush");
    drop(node);

    let path = scratch.0.join("wal/manifest.jsonl");
    let text = std::fs::read_to_string(&path).expect("manifest reads");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 4, "the stream seals several blocks");
    // One more share in the first output amount of a middle block. (An
    // ACCEPT_BID's outputs are a settlement plan, not UTXOs: the state
    // digest does not cover them.)
    let height = (1..lines.len() - 1)
        .find(|&h| lines[h].contains("\"amount\":1,") && !lines[h].contains("ACCEPT_BID"))
        .expect("a middle block creates an output");
    let altered = lines[height].replacen("\"amount\":1,", "\"amount\":2,", 1);
    let mut rewritten: Vec<&str> = lines.clone();
    rewritten[height] = &altered;
    std::fs::write(&path, rewritten.join("\n") + "\n").expect("manifest rewrites");

    let refused = Node::with_durable_dir(escrow, opts(), &scratch.0)
        .err()
        .expect("a corrupted document refuses the start");
    assert!(
        refused.contains(&format!("at height {height}")),
        "the error names seal {height}: {refused}"
    );
}

/// A directory of the retired layout — a checkpoint snapshot, or shard
/// files with records in them — holds history the manifest does not. It
/// is refused as corrupt, never opened as a shorter chain.
#[test]
fn a_retired_layout_is_refused() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    for stale in ["ckpt-4/meta.json", "wal/shard-3.jsonl"] {
        let scratch = Scratch::new("retired-layout");
        let opts = || PipelineOptions::with_workers(2).utxo_shards(4);
        let mut node =
            Node::with_durable_dir(escrow.clone(), opts(), &scratch.0).expect("fresh store opens");
        node.submit_batch_parsed(&[filler(1)]);
        node.flush_durable().expect("flush");
        drop(node);
        let path = scratch.0.join(stale);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "{\"h\":4}\n").unwrap();

        assert!(
            matches!(
                DurableStore::recover(&scratch.0, 4),
                Err(smartchaindb::store::WalError::Corrupt(_))
            ),
            "{stale}"
        );
        let refused = Node::with_durable_dir(escrow.clone(), opts(), &scratch.0)
            .err()
            .expect("the node refuses to start");
        assert!(refused.contains("retired"), "{stale}: {refused}");
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
    for block in &blocks {
        node.submit_batch_parsed(block);
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
