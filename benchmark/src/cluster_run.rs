//! One repetition of `cluster4`: the only workload that runs
//! `scdb-consensus` and `scdb_server::SmartchainCluster` — CheckTx on
//! the receiver, block forming with gossiped schedules, delivery on
//! four replicas, digest cross-checks. Consensus runs on a simulated
//! clock, so wall time here is the replicated CPU work per transaction;
//! `LatencyModel::lan()` message delay only paces the simulated clock.

use crate::inputs::Inputs;
use crate::rep::{
    check_final_reads, dir_bytes, pipeline_options, recover_probe_ms, run_query, ConsensusCounts,
    Rep, CLUSTER_ARRIVAL_US, CLUSTER_BLOCK_TXS, FINAL_SCANS, READS_PER_GROUP,
};
use crate::spans::Recorder;
use scdb_consensus::{BftConfig, TxStatus};
use scdb_core::{Operation, Telemetry};
use scdb_server::SmartchainHarness;
use scdb_sim::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Replicas in the cluster.
pub const NODES: usize = 4;
/// The replica that is restarted from its own durable store.
const RESTARTED: usize = NODES - 1;

fn harness(telemetry: Telemetry) -> SmartchainHarness {
    let config = BftConfig {
        max_block_txs: CLUSTER_BLOCK_TXS,
        ..BftConfig::tendermint(NODES)
    };
    SmartchainHarness::with_pipeline(config, pipeline_options(telemetry))
}

/// Runs one repetition on a fresh four-replica cluster. Replica stores
/// live under `TMPDIR`, which `main` points into the scratch root.
pub fn run_rep(inputs: &Inputs, telemetry: Telemetry) -> Rep {
    let traced = telemetry.is_enabled();
    let mut h = harness(telemetry.clone());
    assert_eq!(
        h.escrow_public_hex(),
        inputs.escrow.public_hex(),
        "inputs were signed for the cluster's escrow account"
    );
    let mut payloads: Vec<String> = inputs.writes.iter().map(|w| w.payload.clone()).collect();
    let mut rep = Rep {
        valid: true,
        ..Rep::default()
    };
    let mut handles = Vec::with_capacity(payloads.len());
    let mut rec = Recorder::new(traced);
    let mut next_query = 0;

    let root = rec.enter("run", 0);
    let origin_ns = rec.now_ns();
    for (round, group) in inputs.groups.iter().enumerate() {
        let submitted_ns = rec.now_ns();
        let base = h.consensus().now().as_micros();
        let span = rec.enter("submit_at", round as u64);
        for (k, index) in group.clone().enumerate() {
            let at = SimTime::from_micros(base + k as u64 * CLUSTER_ARRIVAL_US);
            handles.push(h.submit_at(at, std::mem::take(&mut payloads[index])));
        }
        rec.exit(span);
        let span = rec.enter("harness_run", round as u64);
        h.run();
        rec.exit(span);
        let done_ns = rec.now_ns();
        for index in group.clone() {
            if matches!(h.consensus().status(handles[index]), TxStatus::Committed(_)) {
                rep.committed += 1;
                rep.commit_latency_ms
                    .push((done_ns - submitted_ns) as f64 / 1e6);
            } else {
                rep.failed += 1;
            }
        }

        for _ in 0..READS_PER_GROUP {
            let query = &inputs.queries[next_query % inputs.queries.len()];
            next_query += 1;
            let issued_ns = rec.now_ns();
            let span = rec.enter("query", round as u64);
            let app = h.consensus().app();
            black_box(run_query(query, app.query_db(), app.ledger(0)));
            rec.exit(span);
            // Scans are timed over the complete ledger, below.
            if !query.is_scan() {
                let latency_ms = (rec.now_ns() - issued_ns) as f64 / 1e6;
                rep.point_latency_ms.push(latency_ms);
            }
        }
    }
    rep.wall_s = (rec.now_ns() - origin_ns) as f64 / 1e9;
    rec.exit(root);

    // Everything below is outside the timed region.
    let consensus = h.consensus();
    let app = consensus.app();
    let scans = inputs.queries.iter().filter(|query| query.is_scan());
    for query in scans.cycle().take(FINAL_SCANS) {
        let start = Instant::now();
        black_box(run_query(query, app.query_db(), app.ledger(0)));
        rep.scan_latency_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
    }
    rep.attempted = inputs.writes.len() + next_query;
    rep.failed += check_final_reads(inputs, app.query_db(), app.ledger(0));
    let accepts = inputs
        .oracle_committed
        .iter()
        .filter(|tx| tx.operation == Operation::AcceptBid)
        .count();
    rep.failed += (app.nested_completed() as usize).abs_diff(accepts);
    rep.layer.children_settled = inputs.expected_children as u64;
    let digest = app.state_digest(0);
    rep.digests_match =
        digest == inputs.oracle_digest() && (1..NODES).all(|node| app.state_digest(node) == digest);
    rep.layer.blocks = consensus.decided_height();
    rep.layer.block_txs = consensus.committed_count();
    let gossip = app.gossip_stats();
    rep.consensus = Some(ConsensusCounts {
        messages: consensus.messages_sent(),
        heights: consensus.decided_height(),
        committed: consensus.committed_count(),
        sim_tps: consensus.throughput_tps(),
        sim_latencies_ms: consensus
            .latencies_secs()
            .into_iter()
            .map(|s| s * 1e3)
            .collect(),
        gossip_used: gossip.gossip_used(),
        gossip_rejected: gossip.gossip_rejected(),
        footprints_cached: gossip.footprints_cached(),
        footprints_derived: gossip.footprints_derived(),
        digest_mismatches: gossip.digest_mismatches(),
    });
    rep.telemetry = telemetry.snapshot();
    rep.spans = rec.spans().to_vec();

    // Recovery: one replica restarts from its own write-ahead log and
    // must land digest-equal with the survivors.
    let restart = Instant::now();
    h.consensus_mut()
        .app_mut()
        .restart_replica(RESTARTED)
        .expect("the replica recovers from its durable store");
    let recovered = h.consensus().app().state_digest(RESTARTED);
    rep.recovery_s = restart.elapsed().as_secs_f64();
    rep.digests_match &= recovered == digest;
    // The restart flushed the replica's group-buffered seals, so its
    // directory now holds everything it committed.
    let dir = h
        .consensus()
        .app()
        .durable_dir(RESTARTED)
        .expect("replicas are durable");
    rep.dir_bytes = dir_bytes(&dir);
    if traced {
        let shards = h.consensus().app().pipeline_options().utxo_shards;
        rep.recover_probe_ms = recover_probe_ms(&dir, shards);
    }
    rep
}

/// Builds and drops a fresh cluster: the construction share of set-up.
pub fn construct() {
    drop(harness(Telemetry::disabled()));
}
