//! Differential pin for the telemetry layer: instrumentation must be
//! observation only. The same proposal stream driven through two nodes
//! whose options differ *only* in the telemetry handle (disabled vs a
//! live registry) must produce byte-identical commits — same verdicts
//! per round, same committed order, same state digest — with the
//! durable store off and on.
//!
//! The enabled node's snapshot is then audited: one commit trace per
//! drained block, stage timings summing into the block latency, and
//! the deterministic JSON export re-parsing.

use smartchaindb::telemetry::TELEMETRY_ENV;
use smartchaindb::workload::{scdb_plan, ScenarioConfig};
use smartchaindb::{KeyPair, Node, PipelineOptions, SmartchainCluster, Telemetry};

fn escrow() -> KeyPair {
    KeyPair::from_seed([0xE5; 32])
}

fn contended_payloads(requests: usize, bidders: usize, seed: u64) -> Vec<String> {
    scdb_plan(
        &ScenarioConfig {
            requests,
            bidders_per_request: bidders,
            capability_count: 2,
            capability_bytes: 32,
            seed,
        },
        &escrow().public_hex(),
    )
    .contended_payloads()
}

/// Drives `payloads` through the node in ingest+drain rounds,
/// returning the per-round verdict transcript (committed ids in
/// order, rejected count) — the observable a client sees.
fn run_rounds(node: &mut Node, payloads: &[String], block: usize) -> Vec<(Vec<String>, usize)> {
    let mut transcript = Vec::new();
    for chunk in payloads.chunks(block) {
        for verdict in node.ingest_payload_batch(chunk) {
            verdict.expect("generated stream admits");
        }
        let report = node.drain_block(usize::MAX);
        transcript.push((
            report.outcome.committed.clone(),
            report.outcome.rejected.len(),
        ));
    }
    transcript
}

#[test]
fn telemetry_off_and_on_commit_byte_identically_across_modes() {
    let payloads = contended_payloads(4, 3, 0x7E1E);
    for durable in [false, true] {
        let options = |telemetry: Telemetry| {
            PipelineOptions::with_workers(2)
                .durable(durable)
                .with_telemetry(telemetry)
        };
        let mut off = Node::with_options(escrow(), options(Telemetry::disabled()));
        let telemetry = Telemetry::enabled();
        let mut on = Node::with_options(escrow(), options(telemetry.clone()));

        let off_transcript = run_rounds(&mut off, &payloads, 8);
        let on_transcript = run_rounds(&mut on, &payloads, 8);

        let mode = format!("durable={durable}");
        assert_eq!(off_transcript, on_transcript, "verdicts diverged: {mode}");
        assert_eq!(
            off.ledger().committed_ids(),
            on.ledger().committed_ids(),
            "commit order diverged: {mode}"
        );
        assert_eq!(
            off.state_digest(),
            on.state_digest(),
            "state diverged: {mode}"
        );

        // Observation-only also means: off exports nothing,
        // on exports a coherent registry.
        assert!(off.telemetry_snapshot().is_none(), "{mode}");
        let snap = telemetry.snapshot().expect("enabled handle snapshots");
        let blocks = on_transcript.len() as u64;
        assert_eq!(
            snap.counters["pipeline.blocks"], blocks,
            "one commit per drained block: {mode}"
        );
        assert_eq!(snap.traces.len(), blocks as usize, "{mode}");
        let (waves, width) = (
            &snap.histograms["pipeline.waves"],
            &snap.histograms["pipeline.wave_width"],
        );
        assert_eq!(waves.count, blocks, "one wave count per block: {mode}");
        assert_eq!(width.count, waves.sum, "one width per wave: {mode}");
        let txs: usize = snap.traces.iter().map(|trace| trace.txs).sum();
        assert_eq!(width.sum, txs as u64, "waves partition blocks: {mode}");
        for trace in &snap.traces {
            assert_eq!(trace.executor, "pipeline", "{mode}");
            assert!(
                trace.stage_sum_ns() <= trace.total_ns,
                "serial stages cannot exceed the block wall: {mode}"
            );
        }
        // Admission shares the node's registry.
        assert!(snap.counters["mempool.admitted"] > 0, "{mode}");
        if durable {
            assert!(snap.counters["durable.blocks_sealed"] > 0, "{mode}");
        }
        // The export is deterministic and re-parses.
        let json = smartchaindb::server::snapshot_to_json(&snap);
        let text = json.to_compact_string();
        assert_eq!(
            text,
            smartchaindb::server::snapshot_to_json(&telemetry.snapshot().unwrap())
                .to_compact_string(),
            "{mode}"
        );
        smartchaindb::json::parse(&text).expect("snapshot JSON parses");
    }
}

#[test]
fn telemetry_env_gate_matches_the_sibling_flags() {
    // The gate is spelled and parsed like SCDB_DURABLE (one
    // `env_flag`); this pins the env var name so a rename cannot slip
    // through silently (from_env itself is exercised by every
    // default-built node under the CI matrix).
    assert_eq!(TELEMETRY_ENV, "SCDB_TELEMETRY");
}

/// The wave shape of every block lands in the registry: one
/// `pipeline.waves` sample per block and one `pipeline.wave_width`
/// sample per wave. A 16-bidder auction drained as one block is three
/// waves: its CREATEs and REQUEST, its 16 BIDs (appends to one bid set
/// commute), its ACCEPT_BID.
#[test]
fn wave_shape_is_recorded_per_block() {
    let telemetry = Telemetry::enabled();
    let options = PipelineOptions::with_workers(2)
        .durable(false)
        .with_telemetry(telemetry.clone());
    let mut node = Node::with_options(escrow(), options);
    let payloads = contended_payloads(1, 16, 0x3A7E);
    for verdict in node.ingest_payload_batch(&payloads) {
        verdict.expect("generated stream admits");
    }
    let report = node.drain_block(usize::MAX);
    assert!(report.outcome.fully_committed(), "{:?}", report.outcome);

    let snap = telemetry.snapshot().expect("enabled");
    assert_eq!(snap.counters["pipeline.blocks"], 1);
    let (waves, width) = (
        &snap.histograms["pipeline.waves"],
        &snap.histograms["pipeline.wave_width"],
    );
    assert_eq!((waves.count, waves.sum), (1, 3));
    assert_eq!((width.count, width.sum), (3, 17 + 16 + 1));
    assert_eq!(snap.traces[0].waves, 3);
}

/// Rejections are counted by reason: a block mixing four ways to be
/// refused leaves one `pipeline.rejected.<variant>` counter per reason,
/// summing to `pipeline.txs_rejected` — across blocks, since counters
/// accumulate.
#[test]
fn rejections_are_counted_by_reason_and_sum_to_the_total() {
    use smartchaindb::core::commit_batch;
    use smartchaindb::json::obj;
    use smartchaindb::{LedgerState, Transaction, TxBuilder};
    use std::sync::Arc;

    let alice = KeyPair::from_seed([0xA1; 32]);
    let bob = KeyPair::from_seed([0xB0; 32]);
    let mint = |nonce: u64| {
        TxBuilder::create(obj! { "kind" => "asset" })
            .output(alice.public_hex(), 2)
            .nonce(nonce)
            .sign(&[&alice])
    };
    let pay = |asset: &Transaction, amount: u64, nonce: u64| {
        TxBuilder::transfer(asset.id.clone())
            .input(asset.id.clone(), 0, vec![alice.public_hex()])
            .output_with_prev(bob.public_hex(), amount, vec![alice.public_hex()])
            .nonce(nonce)
            .sign(&[&alice])
    };
    let (a, b, never) = (mint(1), mint(2), mint(3));
    let mut forged = pay(&b, 2, 0);
    forged.outputs[0].amount = 1;
    forged.seal();
    let first: Vec<Arc<Transaction>> = [
        a.clone(),
        b.clone(),
        pay(&a, 2, 0),
        pay(&a, 2, 1),     // loses the race for a#0
        pay(&never, 2, 0), // spends an uncommitted mint
        forged,
    ]
    .into_iter()
    .map(Arc::new)
    .collect();
    let second: Vec<Arc<Transaction>> = [pay(&b, 1, 0), pay(&a, 2, 2), a]
        .into_iter()
        .map(Arc::new)
        .collect();

    let telemetry = Telemetry::enabled();
    let options = PipelineOptions::with_workers(2)
        .durable(false)
        .with_telemetry(telemetry.clone());
    let mut ledger = LedgerState::new();
    let mut rejected = 0;
    for block in [&first, &second] {
        rejected += commit_batch(&mut ledger, block, &options).rejected.len() as u64;
    }
    assert_eq!(rejected, 6);

    let counters = telemetry.snapshot().expect("enabled").counters;
    let by_reason: Vec<(&str, u64)> = counters
        .iter()
        .filter_map(|(name, n)| Some((name.strip_prefix("pipeline.rejected.")?, *n)))
        .collect();
    assert_eq!(
        by_reason,
        [
            ("amount_mismatch", 1),
            ("double_spend", 2),
            ("duplicate_transaction", 1),
            ("input_does_not_exist", 1),
            ("invalid_signature", 1),
        ]
    );
    assert_eq!(counters["pipeline.txs_rejected"], rejected);
}

/// Admission rejections are counted by reason too: one payload batch
/// holding six ways to be turned away at the front door leaves one
/// `mempool.rejected.<variant>` counter per reason, summing to
/// `mempool.rejected`.
#[test]
fn admission_rejections_are_counted_by_reason_and_sum_to_the_total() {
    use smartchaindb::json::obj;
    use smartchaindb::{MempoolConfig, TxBuilder};

    let telemetry = Telemetry::enabled();
    let mut node = Node::with_mempool_config(
        escrow(),
        PipelineOptions::with_workers(2)
            .durable(false)
            .with_telemetry(telemetry.clone()),
        MempoolConfig {
            max_per_sender: 1,
            ..MempoolConfig::default()
        },
    );
    let key = |seed: u8| KeyPair::from_seed([seed; 32]);
    let mint = |owner: &KeyPair, nonce: u64| {
        TxBuilder::create(obj! { "kind" => "asset" })
            .output(owner.public_hex(), 1)
            .nonce(nonce)
            .sign(&[owner])
    };
    let committed = mint(&key(0xC0), 0);
    node.process_transaction(&committed.to_payload())
        .expect("commits");

    let pending = mint(&key(0xA1), 0);
    let mut tampered = mint(&key(0xA2), 0);
    tampered.id = "f".repeat(64);
    // Signed by mallory, declaring alice as the minting owner.
    let (alice, mallory) = (key(0xA3), key(0x3F));
    let mut forged = TxBuilder::create(obj! {})
        .output(alice.public_hex(), 1)
        .sign(&[&mallory]);
    for input in &mut forged.inputs {
        input.owners_before = vec![alice.public_hex()];
    }
    forged.seal();
    let payloads = [
        "not json".to_owned(),
        pending.to_payload(),
        tampered.to_payload(),
        forged.to_payload(),
        pending.to_payload(),
        committed.to_payload(),
        mint(&key(0xA1), 1).to_payload(),
    ];
    let verdicts = node.ingest_payload_batch(&payloads);
    let admitted: Vec<bool> = verdicts.iter().map(Result::is_ok).collect();
    assert_eq!(admitted, [false, true, false, false, false, false, false]);

    let counters = telemetry.snapshot().expect("enabled").counters;
    let by_reason: Vec<(&str, u64)> = counters
        .iter()
        .filter_map(|(name, n)| Some((name.strip_prefix("mempool.rejected.")?, *n)))
        .collect();
    assert_eq!(
        by_reason,
        [
            ("already_committed", 1),
            ("duplicate_pending", 1),
            ("id_mismatch", 1),
            ("invalid_signature", 1),
            ("parse", 1),
            ("sender_cap_exceeded", 1),
        ]
    );
    let total: u64 = by_reason.iter().map(|(_, n)| n).sum();
    assert_eq!(counters["mempool.rejected"], total);
}

/// Group-commit lag: `durable.pending_seals` counts the seals written
/// to the group buffer but not yet fsynced. A flush empties it; a
/// failed flush keeps its seals pending.
#[test]
fn pending_seals_gauge_tracks_the_group_commit_buffer() {
    use smartchaindb::store::{DurableStore, FsyncLevel, StateDigest};

    let dir = std::env::temp_dir().join(format!("scdb-telemetry-group-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = Telemetry::enabled();
    let (mut store, _) = DurableStore::open(&dir).expect("open");
    store.set_fsync(FsyncLevel::Group(8));
    store.set_telemetry(telemetry.clone());
    let pending = || telemetry.snapshot().expect("enabled").gauges["durable.pending_seals"];
    let seal = |n: usize| {
        for _ in 0..n {
            store.seal_block(&[], &StateDigest::EMPTY).expect("seal");
        }
    };

    seal(3);
    assert_eq!(pending(), 3);
    store.flush_group().expect("flush");
    assert_eq!(pending(), 0);
    seal(2);
    store.inject_io_failure();
    assert!(store.flush_group().is_err());
    assert_eq!(pending(), 2, "a failed flush keeps its seals pending");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A latched store is visible: `durable.write_failures` counts the
/// write failures that latched it, through the immediate seal at level
/// `none` and through the group flush. A clean run reads 0, and a seal
/// the latch refuses afterwards counts nothing more.
#[test]
fn write_failures_count_the_failure_that_latched_the_store() {
    use smartchaindb::store::{DurableStore, FsyncLevel, StateDigest};

    for (level, clean) in [
        (FsyncLevel::None, false),
        (FsyncLevel::None, true),
        (FsyncLevel::Group(2), false),
        (FsyncLevel::Group(2), true),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "scdb-telemetry-write-failures-{}-{}-{clean}",
            std::process::id(),
            level.label().replace(':', "-"),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let telemetry = Telemetry::enabled();
        let (mut store, _) = DurableStore::open(&dir).expect("open");
        store.set_fsync(level);
        store.set_telemetry(telemetry.clone());
        let failures = || {
            let snapshot = telemetry.snapshot().expect("enabled");
            snapshot
                .counters
                .get("durable.write_failures")
                .copied()
                .unwrap_or(0)
        };

        store.seal_block(&[], &StateDigest::EMPTY).expect("seal");
        if !clean {
            store.inject_io_failure();
        }
        let second = store.seal_block(&[], &StateDigest::EMPTY);
        let flushed = store.flush_group();
        assert_eq!(second.is_ok() && flushed.is_ok(), clean, "{level:?}");
        let third = store.seal_block(&[], &StateDigest::EMPTY);
        assert_eq!(third.is_ok(), clean, "only a latched store refuses");
        assert_eq!(failures(), u64::from(!clean), "{level:?}, clean: {clean}");
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Both snapshot entry points carry the process-wide prepared-key
/// cache's four gauges. After a node has verified a stream, its keys
/// are resident and its lookups counted.
#[test]
fn key_cache_gauges_ride_node_and_cluster_snapshots() {
    let options = || {
        PipelineOptions::with_workers(2)
            .durable(false)
            .with_telemetry(Telemetry::enabled())
    };
    let mut node = Node::with_options(escrow(), options());
    run_rounds(&mut node, &contended_payloads(2, 2, 0xCAC4E), 8);
    let cluster = SmartchainCluster::with_options(1, options());
    for snap in [node.telemetry_snapshot(), cluster.telemetry_snapshot()] {
        let snap = snap.expect("telemetry on");
        let gauge = |name: &str| {
            snap.get("gauges")
                .and_then(|gauges| gauges.get(&format!("crypto.key_cache.{name}")))
                .and_then(|value| value.as_i64())
                .unwrap_or_else(|| panic!("crypto.key_cache.{name} is exported"))
        };
        assert!(gauge("resident") >= 1);
        assert!(gauge("hits") + gauge("misses") >= gauge("resident"));
        assert!(gauge("evicted") >= 0);
    }
}
