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
use smartchaindb::{KeyPair, Node, PipelineOptions, Telemetry};

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
