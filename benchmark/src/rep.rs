//! The fixed configuration and the record one repetition produces.

use crate::inputs::{Inputs, Query};
use crate::spans::Span;
use scdb_core::pipeline::PipelineOptions;
use scdb_core::{LedgerView, Telemetry, TelemetrySnapshot};
use scdb_store::{collections, Db, Filter, FsyncLevel};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wave-validation workers on the program side.
pub const WORKERS: usize = 2;
/// Admission workers, exported as `SCDB_ADMISSION_WORKERS` by `main`.
pub const ADMISSION_WORKERS: usize = 2;
/// Seals coalesced per fsync (`FsyncLevel::Group`).
pub const FSYNC_GROUP: usize = 8;
/// A write meets the service level when it is durable this soon after
/// it was due.
pub const SLO_MS: f64 = 100.0;
/// Offered write rate of the open loop, per second. A constant, never
/// derived at run time: about a fifth of what the 2-core reference
/// host sustains in the one-transaction blocks this rate produces
/// (~1.3 k/s in a quiet spell), so that the node still keeps up, and
/// latency still follows the cost of a block and not the depth of a
/// queue, when a spell of the shared host halves its speed.
pub const OPEN_LOOP_RATE: u64 = 250;
/// One read is due with every this-many-th write of the open loop
/// (250 reads/s, a scan every fourth).
pub const READ_EVERY: usize = 1;
/// Reads after each closed-loop group: one rotation over the four
/// query kinds.
pub const READS_PER_GROUP: usize = 4;
/// Scans over the complete ledger that end each closed-loop repetition.
pub const FINAL_SCANS: usize = 32;
/// Consensus block size of the `cluster4` workload.
pub const CLUSTER_BLOCK_TXS: usize = 64;
/// Simulated arrival spacing of `cluster4` submissions (2000 tx/s).
pub const CLUSTER_ARRIVAL_US: u64 = 500;

/// The program-side configuration every run uses. Everything not set
/// here is `PipelineOptions::default()`, so a later change of a
/// default is measured rather than bypassed.
pub fn pipeline_options(telemetry: Telemetry) -> PipelineOptions {
    PipelineOptions::with_workers(WORKERS)
        .durable(true)
        .fsync(FsyncLevel::Group(FSYNC_GROUP))
        .with_telemetry(telemetry)
}

/// Counts and samples a repetition gathers at the layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    pub blocks: u64,
    pub block_txs: u64,
    pub children_settled: u64,
    pub rejected_admission: u64,
    pub pushbacks: u64,
    pub flagged: u64,
    pub expelled: u64,
    pub backlog_max: u64,
    /// How late the generator issued each operation, beyond what the
    /// busy node imposed (ms).
    pub generator_lag_ms: Vec<f64>,
    /// Commit decided → seal durable, per block (ms).
    pub ack_wait_ms: Vec<f64>,
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// First submit (or first due time) → final flush returned.
    pub wall_s: f64,
    /// Client writes durably committed.
    pub committed: usize,
    /// Per committed write: submit/due → its block's verdicts returned
    /// (ms).
    pub commit_latency_ms: Vec<f64>,
    /// Per committed write: submit/due → its block's seal on disk (ms).
    pub durable_latency_ms: Vec<f64>,
    /// Per scan query: issue/due → result (ms).
    pub scan_latency_ms: Vec<f64>,
    /// Per point query, likewise.
    pub point_latency_ms: Vec<f64>,
    /// Operations issued: writes and reads.
    pub attempted: usize,
    /// Operations whose outcome differs from the oracle's, that were
    /// pushed back, or that never resolved.
    pub failed: usize,
    /// Every digest comparison held: oracle, replicas, reopen.
    pub digests_match: bool,
    /// Drop → reopen → digest equal again.
    pub recovery_s: f64,
    /// Bytes under the durable directory after the final flush.
    pub dir_bytes: u64,
    /// `DurableStore::recover` alone over the same directory (traced
    /// repetitions only): the store's share of `recovery_s`.
    pub recover_probe_ms: f64,
    /// Open-loop hygiene: false when the generator itself ran late or a
    /// backlog remained, which makes latencies meaningless, not slow.
    pub valid: bool,
    pub layer: LayerCounts,
    pub spans: Vec<Span>,
    pub telemetry: Option<TelemetrySnapshot>,
    /// Simulated-clock consensus figures (`cluster4` only).
    pub consensus: Option<ConsensusCounts>,
}

/// What the consensus harness reports, all on the simulated clock.
#[derive(Debug, Default, Clone)]
pub struct ConsensusCounts {
    pub messages: u64,
    pub heights: u64,
    pub committed: u64,
    pub sim_tps: f64,
    pub sim_latencies_ms: Vec<f64>,
    pub gossip_used: u64,
    pub gossip_rejected: u64,
    pub footprints_cached: u64,
    pub footprints_derived: u64,
    pub digest_mismatches: u64,
}

impl Rep {
    /// Committed writes durable within the service level, as a share
    /// of the writes the oracle says should commit.
    pub fn slo_met_fraction(&self, inputs: &Inputs) -> f64 {
        let met = self
            .durable_latency_ms
            .iter()
            .filter(|ms| **ms <= SLO_MS)
            .count();
        met as f64 / inputs.expected_commits().max(1) as f64
    }
}

/// Runs one read against a node's (or replica 0's) query surfaces and
/// returns a result size, so the call cannot be optimised away.
pub fn run_query(query: &Query, db: &Db, ledger: &impl LedgerView) -> usize {
    let txs = db.collection(collections::TRANSACTIONS);
    match query {
        Query::GetById(id) => usize::from(txs.get(id).is_some()),
        Query::LockedBids(request) => ledger.locked_bids_for_request(request).len(),
        Query::CountBids(request) => txs.count(&Filter::and([
            Filter::eq("operation", "BID"),
            Filter::eq("references.0", request.as_str()),
        ])),
        Query::FindRequests(capability) => txs
            .find(&Filter::and([
                Filter::eq("operation", "REQUEST"),
                Filter::Contains("asset.data.capabilities".into(), capability.as_str().into()),
            ]))
            .len(),
    }
}

/// Checks the final answers of the first queries of each kind against
/// the oracle's ledger. Returns how many disagree.
pub fn check_final_reads(inputs: &Inputs, db: &Db, ledger: &impl LedgerView) -> usize {
    let oracle = &inputs.oracle;
    inputs
        .queries
        .iter()
        .take(8)
        .filter(|query| {
            let expected = match query {
                Query::GetById(id) => usize::from(oracle.is_committed(id)),
                Query::LockedBids(request) => oracle.locked_bids_for_request(request).len(),
                Query::CountBids(request) => oracle.bids_for_request(request).len(),
                Query::FindRequests(capability) => inputs
                    .oracle_committed
                    .iter()
                    .filter(|tx| {
                        tx.operation == scdb_core::Operation::Request
                            && oracle.request_capabilities(tx).contains(capability)
                    })
                    .count(),
            };
            run_query(query, db, ledger) != expected
        })
        .count()
}

/// Times `DurableStore::recover` over a flushed durable directory.
pub fn recover_probe_ms(dir: &Path, shards: usize) -> f64 {
    let start = std::time::Instant::now();
    let recovered = scdb_store::DurableStore::recover(dir, shards);
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    recovered.expect("a flushed durable directory recovers");
    elapsed
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The scratch root every durable directory of this process lives
/// under; removed when dropped, whichever way the run ends.
pub struct TempRoot {
    root: PathBuf,
    next: AtomicU64,
}

impl TempRoot {
    pub fn create(parent: &Path) -> std::io::Result<TempRoot> {
        let root = parent.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(TempRoot {
            root,
            next: AtomicU64::new(0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, not yet created directory name under the root.
    pub fn fresh_dir(&self) -> PathBuf {
        self.root.join(format!(
            "durable-{}",
            self.next.fetch_add(1, Ordering::Relaxed)
        ))
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
