//! Mempool stress lane: randomized (but seeded, repeatable)
//! ingest/drain interleavings over contended auction traffic, with
//! abandoned-proposal requeues thrown in — every interleaving must land
//! byte-identically on the direct-`submit_batch` reference and conserve
//! minted value.
//!
//! CI's `stress-single-thread` job runs this `SCDB_STRESS_ITERS=50`
//! times with `--test-threads=1`, hammering the pool's index
//! maintenance across drain/requeue cycles and the planned-schedule
//! commit path at workers=8 / shards=16.

use smartchaindb::core::pipeline::PipelineOptions;
use smartchaindb::workload::{scdb_plan, ScenarioConfig};
use smartchaindb::{KeyPair, Node};

fn stress_iters() -> usize {
    std::env::var("SCDB_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Tiny deterministic generator so every iteration exercises a
/// different ingest/drain interleaving without depending on thread
/// timing.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound.max(1)
    }
}

#[test]
fn interleaved_ingest_drain_requeue_matches_direct_batch() {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let plan = scdb_plan(
        &ScenarioConfig {
            requests: 8,
            bidders_per_request: 3,
            capability_count: 2,
            capability_bytes: 32,
            seed: 0x57E55,
        },
        &escrow.public_hex(),
    );
    let payloads = plan.contended_payloads();

    // Reference: the whole contended stream through submit_batch on a
    // sequential 1-shard node, children settled.
    let mut reference = Node::with_options(
        escrow.clone(),
        PipelineOptions::with_workers(1).utxo_shards(1),
    );
    let ref_report = reference.submit_batch(&payloads);
    assert!(ref_report.fully_committed(), "{ref_report:?}");
    while reference.pump_returns(usize::MAX) > 0 {}
    let ref_snapshot = reference.ledger().utxos().snapshot();
    let ref_digest = reference.state_digest();
    let minted: u64 = ref_snapshot
        .iter()
        .filter(|(out, u)| out.tx_id == u.asset_id && out.tx_id.len() == 64)
        .map(|(_, u)| u.amount)
        .sum();
    assert!(minted > 0, "workload mints value");

    for iter in 0..stress_iters() {
        let mut node = Node::with_options(
            escrow.clone(),
            PipelineOptions::with_workers(8).utxo_shards(16),
        );
        let mut rng = Lcg(0x5EED ^ (iter as u64) << 1);
        let mut cursor = 0usize;
        let mut drains = 0usize;
        // Interleave: ingest a random run of submissions, then with
        // some probability drain a random-sized block, and
        // occasionally drain-and-requeue (an abandoned proposal)
        // before draining for real.
        while cursor < payloads.len() || !node.mempool().is_empty() {
            if cursor < payloads.len() {
                let run = 1 + rng.next(9) as usize;
                for payload in payloads[cursor..payloads.len().min(cursor + run)].iter() {
                    node.ingest_payload(payload).expect("stream admits");
                }
                cursor = payloads.len().min(cursor + run);
            }
            if rng.next(4) == 0 && !node.mempool().is_empty() {
                // Abandoned proposal: form a batch, decide nothing,
                // put every member back at its arrival position.
                let ledger_len = node.ledger().committed_ids().len();
                let pool_len = node.mempool().len();
                let proposal = node.form_proposal(usize::MAX);
                let formed_len = proposal.len();
                let restored = node.requeue_proposal(proposal);
                assert_eq!(restored, formed_len, "iter {iter}: requeue lost txs");
                assert_eq!(node.mempool().len(), pool_len, "iter {iter}: pool shrank");
                assert_eq!(
                    node.ledger().committed_ids().len(),
                    ledger_len,
                    "iter {iter}: abandoned proposal must not commit"
                );
            }
            if cursor >= payloads.len() || rng.next(3) == 0 {
                let block = 4 + rng.next(29) as usize;
                let report = node.drain_block(block);
                assert!(
                    report.outcome.rejected.is_empty(),
                    "iter {iter}: {:?}",
                    report.outcome.rejected
                );
                drains += 1;
            }
        }
        assert!(drains > 0);
        while node.pump_returns(usize::MAX) > 0 {}

        // Digest first (the O(shards) comparator production paths
        // use), then the exhaustive snapshot — their agreement is
        // the stress job's digest-consistency assert.
        assert_eq!(
            node.state_digest(),
            ref_digest,
            "iter {iter}: digest diverged"
        );
        let snapshot = node.ledger().utxos().snapshot();
        assert_eq!(snapshot, ref_snapshot, "iter {iter}: mempool path diverged");
        let unspent: u64 = snapshot
            .iter()
            .filter(|(_, u)| u.spent_by.is_none())
            .map(|(_, u)| u.amount)
            .sum();
        assert_eq!(unspent, minted, "iter {iter}: value not conserved");
        let mut ids = node.ledger().committed_ids().to_vec();
        let mut ref_ids = reference.ledger().committed_ids().to_vec();
        ids.sort_unstable();
        ref_ids.sort_unstable();
        assert_eq!(ids, ref_ids, "iter {iter}: committed sets diverged");
    }
}
