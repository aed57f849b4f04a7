//! The replicated SmartchainDB application driven by the consensus
//! engine: one [`Replica`] core per validator node, plus the nested-
//! transaction settlement pipeline.
//!
//! This is the `App` the Tendermint-profile harness runs (Fig. 4): the
//! same validation code executes at CheckTx (receiver + validators) and
//! DeliverTx (execution), and the commit hook determines ACCEPT_BID
//! children and hands them to the outbox for asynchronous submission —
//! the simulation-side realization of the ReturnQueue workers.
//!
//! Every replica opens, commits, settles and recovers through the
//! same core a standalone [`crate::Node`] embeds. What this
//! shell adds is what consensus needs around it: decoding each payload
//! once, on its receiver, into a [`DecodedTx`] the engine carries to
//! every later stage; schedule gossip (forming annotated blocks from
//! footprints derived per block, counting how deliveries used them);
//! CheckTx with the simulated cost model; the node-0 query mirror; and
//! the outbox that routes children back through consensus instead of a
//! local queue. It keeps no per-transaction state of its own: nothing
//! to find a parsed form again, nothing to retire.

use crate::cost::CostModel;
use crate::replica::{EphemeralDir, Plan, Replica, Settled};
use scdb_consensus::{App, AppResult, BlockAnnotations, BlockView, FormedBlock, TxId, TxStatus};
use scdb_core::conditions::row;
use scdb_core::pipeline::{derive_footprints, PipelineOptions, ScheduleSource, WaveSchedule};
use scdb_core::{
    validate::{
        record_validated, record_validated_batch, validate_transaction, PooledVerification,
    },
    AssetRef, Condition, LedgerState, LedgerView, NestedTracker, Transaction,
};
use scdb_crypto::KeyPair;
use scdb_json::Value;
use scdb_mempool::pack_batch;
use scdb_sim::{NodeId, SimTime};
use scdb_store::{collections, Db, ExportStats, StateDigest};
use scdb_telemetry::{Counter, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;

/// Counter names of the pooled stateless verification at its two call
/// sites: recorded by the pool / id already in the replica's verified
/// set / left to the per-member check.
const CHECK_BLOCK_POOL: [&str; 3] = [
    "cluster.check_block.pooled",
    "cluster.check_block.already_verified",
    "cluster.check_block.failed_stateless",
];
const DELIVER_BLOCK_POOL: [&str; 3] = [
    "cluster.deliver_block.pooled",
    "cluster.deliver_block.already_verified",
    "cluster.deliver_block.failed_stateless",
];

/// A client payload as the cluster decodes it, once, on its receiver:
/// the parsed transaction, shared with every batch that carries it,
/// and the payload's wire length, which the simulated cost model
/// charges at CheckTx and delivery.
#[derive(Debug)]
pub struct DecodedTx {
    tx: Arc<Transaction>,
    payload_len: usize,
}

/// The parsed transactions of a block or candidate set, in order.
fn batch(txs: &[(TxId, &DecodedTx)]) -> Vec<Arc<Transaction>> {
    txs.iter()
        .map(|(_, decoded)| Arc::clone(&decoded.tx))
        .collect()
}

/// Counters for the self-describing-block machinery (diagnostics and
/// test assertions), aggregated across replicas.
///
/// Backed by [`scdb_telemetry::Counter`]s: with telemetry enabled the
/// counters live in the registry (named `cluster.*`) so the gossip
/// numbers appear in [`SmartchainCluster::telemetry_snapshot`] for
/// free; otherwise they are standalone. Reads go through the accessor
/// methods, which keep the old field names.
#[derive(Debug, Clone)]
pub struct GossipStats {
    gossip_used: Arc<Counter>,
    gossip_rejected: Arc<Counter>,
    gossip_absent: Arc<Counter>,
    footprints_cached: Arc<Counter>,
    footprints_derived: Arc<Counter>,
    digest_matches: Arc<Counter>,
    digest_mismatches: Arc<Counter>,
}

impl Default for GossipStats {
    fn default() -> GossipStats {
        GossipStats {
            gossip_used: Arc::new(Counter::new()),
            gossip_rejected: Arc::new(Counter::new()),
            gossip_absent: Arc::new(Counter::new()),
            footprints_cached: Arc::new(Counter::new()),
            footprints_derived: Arc::new(Counter::new()),
            digest_matches: Arc::new(Counter::new()),
            digest_mismatches: Arc::new(Counter::new()),
        }
    }
}

impl GossipStats {
    /// Standalone (disabled telemetry) or registry-interned counters,
    /// depending on the handle.
    fn with_telemetry(telemetry: &Telemetry) -> GossipStats {
        match telemetry.registry() {
            Some(registry) => GossipStats {
                gossip_used: registry.counter("cluster.gossip_used"),
                gossip_rejected: registry.counter("cluster.gossip_rejected"),
                gossip_absent: registry.counter("cluster.gossip_absent"),
                footprints_cached: registry.counter("cluster.footprints_cached"),
                footprints_derived: registry.counter("cluster.footprints_derived"),
                digest_matches: registry.counter("cluster.digest_matches"),
                digest_mismatches: registry.counter("cluster.digest_mismatches"),
            },
            None => GossipStats::default(),
        }
    }

    /// Deliveries that executed a verified gossiped schedule.
    pub fn gossip_used(&self) -> u64 {
        self.gossip_used.value()
    }

    /// Deliveries that re-derived because the gossiped schedule failed
    /// verification (tampered/overlapping/incomplete — the adversarial
    /// fallback).
    pub fn gossip_rejected(&self) -> u64 {
        self.gossip_rejected.value()
    }

    /// Deliveries with no gossip offered (no annotation).
    pub fn gossip_absent(&self) -> u64 {
        self.gossip_absent.value()
    }

    /// Always 0 since PR 25: footprints are derived per block, never
    /// cached. Kept readable because `benchmark/` reads it; the next
    /// `benchmark` PR removes it.
    pub fn footprints_cached(&self) -> u64 {
        self.footprints_cached.value()
    }

    /// Footprints derived at block forming and delivery, one per
    /// member of each block or candidate set.
    pub fn footprints_derived(&self) -> u64 {
        self.footprints_derived.value()
    }

    /// Deliveries that started from the state the proposer formed the
    /// block against: the gossiped digest equalled this replica's own
    /// committed digest, read before the block executed.
    pub fn digest_matches(&self) -> u64 {
        self.digest_matches.value()
    }

    /// Deliveries whose pre-block digest differed from the gossiped one,
    /// or whose gossiped digest did not parse: this replica and the
    /// proposer disagree on the chain up to this block (divergence, a
    /// proposer that lied, or one that formed before applying its
    /// previous block) — an alarm, whatever this block's own verdicts.
    /// It never decides anything: the replica's state comes from its
    /// own execution.
    pub fn digest_mismatches(&self) -> u64 {
        self.digest_mismatches.value()
    }
}

/// The cluster application: all replicas plus shared bookkeeping.
pub struct SmartchainCluster {
    replicas: Vec<Replica>,
    escrow: KeyPair,
    cost: CostModel,
    /// Batch-validation options for block delivery (worker count).
    pipeline: PipelineOptions,
    /// Self-describing-block counters.
    gossip: GossipStats,
    /// Child payloads awaiting submission into consensus.
    outbox: Vec<String>,
    /// Node 0 keeps the full document mirror for queries. Replicas are
    /// identical by construction, so materializing one mirror is a
    /// memory optimization of the simulation, not a semantic change.
    query_db: Db,
    nested_completed: u64,
    /// Root of the per-replica durable directories when
    /// [`PipelineOptions::durable`] is on (removed when the cluster
    /// drops).
    _durable_root: Option<EphemeralDir>,
}

impl SmartchainCluster {
    /// Builds a cluster of `nodes` replicas with a deterministic escrow
    /// genesis account.
    pub fn new(nodes: usize) -> SmartchainCluster {
        SmartchainCluster::with_options(nodes, PipelineOptions::default())
    }

    /// Like [`SmartchainCluster::new`] with an explicit batch-validation
    /// worker count for block delivery.
    pub fn with_workers(nodes: usize, workers: usize) -> SmartchainCluster {
        SmartchainCluster::with_options(nodes, PipelineOptions::with_workers(workers))
    }

    /// Full pipeline control for block delivery: wave worker count,
    /// durability and telemetry for every replica.
    pub fn with_options(nodes: usize, pipeline: PipelineOptions) -> SmartchainCluster {
        let escrow = KeyPair::from_seed([0xE5; 32]);
        // Durable mode: every replica gets its own durable store
        // under one self-cleaning root — each survives (and recovers
        // from) an independent crash.
        let durable_root = pipeline.durable.then(|| EphemeralDir::new("scdb-cluster"));
        let replicas = (0..nodes)
            .map(|i| {
                let dir = durable_root
                    .as_ref()
                    .map(|root| root.0.join(format!("replica-{i}")));
                Replica::open(&pipeline, &escrow, dir.as_deref())
            })
            .collect();
        let gossip = GossipStats::with_telemetry(&pipeline.telemetry);
        SmartchainCluster {
            replicas,
            escrow,
            cost: CostModel::smartchaindb(),
            pipeline,
            gossip,
            outbox: Vec::new(),
            query_db: Db::smartchaindb(),
            nested_completed: 0,
            _durable_root: durable_root,
        }
    }

    /// The escrow account (clients need its public key to build BIDs).
    pub fn escrow(&self) -> &KeyPair {
        &self.escrow
    }

    /// The query mirror (node 0's document store).
    pub fn query_db(&self) -> &Db {
        &self.query_db
    }

    /// The batch-pipeline configuration every replica delivers blocks
    /// with (workers, durability, telemetry).
    pub fn pipeline_options(&self) -> &PipelineOptions {
        &self.pipeline
    }

    /// A node's committed ledger (for assertions and queries).
    pub fn ledger(&self, node: NodeId) -> &LedgerState {
        &self.replicas[node].ledger
    }

    /// Count of nested transactions that reached their eventual commit
    /// (all children settled) on replica 0.
    pub fn nested_completed(&self) -> u64 {
        self.nested_completed
    }

    /// A replica's nested-transaction settlement tracker.
    pub fn tracker(&self, node: NodeId) -> &NestedTracker {
        &self.replicas[node].tracker
    }

    /// Self-describing-block counters: gossip accept/reject/absent,
    /// footprints derived, digest match/mismatch.
    pub fn gossip_stats(&self) -> &GossipStats {
        &self.gossip
    }

    /// The telemetry registry as deterministic JSON (sorted metric
    /// names, traces in block order), or `None` with telemetry off.
    /// Covers every instrumented layer the cluster drives: delivery
    /// commits (`pipeline.*`), the per-replica durable stores
    /// (`durable.*`), and the gossip counters (`cluster.*`). The
    /// prepared-key cache's gauges (`crypto.key_cache.*`) are per
    /// process, shared by every replica.
    pub fn telemetry_snapshot(&self) -> Option<Value> {
        self.pipeline
            .telemetry
            .snapshot()
            .map(crate::telemetry::snapshot_with_key_cache)
    }

    /// A node's post-block UTXO state digest — the O(1) replica
    /// equality comparator.
    pub fn state_digest(&self, node: NodeId) -> StateDigest {
        self.replicas[node].ledger.state_digest()
    }

    /// The directory backing a replica's durable store, when the
    /// cluster runs with durability.
    pub fn durable_dir(&self, node: NodeId) -> Option<PathBuf> {
        self.replicas[node].durable_dir()
    }

    /// Orderly-restarts a replica: buffered group-commit seals are
    /// fsync'd, and the replica is then rebuilt from its own durable
    /// store (the sealed chain, re-executed). The recovered replica
    /// lands exactly on its last delivered block and stays
    /// digest-equal with the survivors. Loss at arbitrary *crash*
    /// points (no orderly shutdown) is the kill-point sweep's
    /// territory: recovery then lands on the last fsync'd seal for the
    /// configured durability level.
    pub fn restart_replica(&mut self, node: NodeId) -> Result<(), String> {
        let dir = self
            .durable_dir(node)
            .ok_or_else(|| "replica runs without durability".to_string())?;
        self.replicas[node]
            .flush()
            .map_err(|e| format!("restart flush failed: {e}"))?;
        // Detach first: the old store's manifest handle must drop
        // before recovery trims the file in place.
        self.replicas[node] = Replica::open(&self.pipeline, &self.escrow, None);
        self.reopen_replica(node, dir)
    }

    /// Catch-up for a lagging (or freshly wiped) replica: fetches the
    /// source replica's sealed chain and recovers from it, landing
    /// digest-equal with the source's sealed state. Incremental when
    /// the lagging replica's manifest is a verified prefix of the
    /// source's — only the seals it lacks are shipped; an empty,
    /// diverged or longer one is replaced whole. Returns which.
    pub fn catch_up(&mut self, node: NodeId, from: NodeId) -> Result<ExportStats, String> {
        if node == from {
            return Err("a replica cannot catch up from itself".into());
        }
        let src = self.replicas[from]
            .ledger
            .durable_store()
            .cloned()
            .ok_or_else(|| "source replica runs without durability".to_string())?;
        let dst = self
            .durable_dir(node)
            .ok_or_else(|| "lagging replica runs without durability".to_string())?;
        // Detach the lagging replica before writing into its store
        // directory, so its stale manifest handle drops first and
        // cannot append over the shipped seals.
        self.replicas[node] = Replica::open(&self.pipeline, &self.escrow, None);
        let stats = src
            .export_to(&dst)
            .map_err(|e| format!("catch-up fetch failed: {e}"))?;
        self.reopen_replica(node, dst)?;
        Ok(stats)
    }

    /// Rebuilds one replica from the durable store at `dir`
    /// ([`Replica::recover`]). The caller has already detached the old
    /// replica, so its store (and manifest handle) dropped before
    /// recovery trims the file in place. A parent whose children cannot
    /// be determined from the recovered state stays untracked and is
    /// counted.
    fn reopen_replica(&mut self, node: NodeId, dir: PathBuf) -> Result<(), String> {
        let (replica, replay) = Replica::recover(&self.pipeline, &self.escrow, &dir)?;
        let failures = replay
            .iter()
            .filter(|(_, settled)| settled.is_err())
            .count();
        self.pipeline
            .telemetry
            .add("cluster.settle_failures", failures as u64);
        self.replicas[node] = replica;
        Ok(())
    }

    /// Takes the pending child payloads for submission into consensus.
    pub fn drain_outbox(&mut self) -> Vec<String> {
        std::mem::take(&mut self.outbox)
    }

    /// Counts what the pooled stateless verification did with a block
    /// `node` was handed — a proposal to re-check or a block to deliver
    /// (DESIGN-pipeline.md § "Blocks are verified as a pool").
    /// `counters` names the stage's `pooled` / `already_verified` /
    /// `failed_stateless` counters.
    fn count_pool(&self, report: PooledVerification, counters: [&str; 3]) {
        let telemetry = &self.pipeline.telemetry;
        telemetry.add(counters[0], report.pooled as u64);
        telemetry.add(counters[1], report.already_verified as u64);
        telemetry.add(counters[2], report.failed_stateless as u64);
    }

    /// Capability-work estimate for the cost model: requested + offered
    /// strings touched by the subset check.
    fn capability_work(&self, node: NodeId, tx: &Transaction) -> usize {
        let conditions = &row(tx.operation).conditions;
        if !conditions.contains(&Condition::OffersRequestedCapabilities) {
            return 0;
        }
        let ledger = &self.replicas[node].ledger;
        let requested = tx
            .references
            .first()
            .and_then(|r| ledger.get(r))
            .map(|req| ledger.request_capabilities(req).len())
            .unwrap_or(0);
        let offered = match &tx.asset {
            AssetRef::Id(id) => ledger.asset_capabilities(id).len(),
            _ => 0,
        };
        requested + offered
    }
}

impl App for SmartchainCluster {
    type Tx = DecodedTx;

    /// The one parse of a payload, on its receiver: every later stage
    /// borrows the result from the engine.
    fn decode(&self, payload: &str) -> Result<DecodedTx, String> {
        let tx = Transaction::from_payload(payload).map_err(|e| e.to_string())?;
        Ok(DecodedTx {
            tx: Arc::new(tx),
            payload_len: payload.len(),
        })
    }

    /// CheckTx on `node`: the full validation against the replica's
    /// state, then the verified-set record and the simulated cost.
    fn check_tx(&mut self, node: NodeId, _id: TxId, decoded: &DecodedTx) -> AppResult {
        let t = decoded.tx.as_ref();
        let ledger = &self.replicas[node].ledger;
        validate_transaction(t, ledger).map_err(|e| e.to_string())?;
        // This replica has now checked the schema, id and signatures:
        // its own delivery of the same bytes re-runs only the stateful
        // rules. Other replicas' sets are untouched — each verifies
        // once for itself.
        record_validated(&decoded.tx, ledger);
        let caps = self.capability_work(node, t);
        Ok(self
            .cost
            .check_cost(decoded.payload_len, t.inputs.len(), caps))
    }

    /// CheckTx for a proposed block: the members `node` has not
    /// verified yet get their schema, id and signature checks as one
    /// pool over the workers, then every member goes through exactly
    /// [`App::check_tx`] in block order — where the pooled members now
    /// hit the verified set, and a member the pool could not vouch for
    /// takes the full check and is named by it.
    fn check_block(&mut self, node: NodeId, txs: &[(TxId, &DecodedTx)]) -> Vec<AppResult> {
        let _span = self.pipeline.telemetry.span("cluster.check_block_ns");
        // Verified as a pool into this replica's own verified set.
        let pooled = record_validated_batch(
            &batch(txs),
            &self.replicas[node].ledger,
            self.pipeline.workers,
        );
        self.count_pool(pooled, CHECK_BLOCK_POOL);
        txs.iter()
            .map(|(id, decoded)| self.check_tx(node, *id, decoded))
            .collect()
    }

    fn deliver_tx(&mut self, node: NodeId, id: TxId, decoded: &DecodedTx) -> AppResult {
        // Single-transaction delivery is block delivery of a singleton.
        #[allow(
            clippy::expect_used,
            reason = "`deliver_block` returns one verdict per member of the block it is \
                      given, and this block has exactly one"
        )]
        self.deliver_block(node, BlockView::bare(&[(id, decoded)]))
            .pop()
            .expect("deliver_block returns one verdict per tx")
    }

    /// Block forming: the proposer drains its mempool candidates
    /// through the conflict-aware packer — footprints over the
    /// replica's committed state (with candidate-local link
    /// resolution), greedy wave coloring, arrival order within a wave —
    /// so the proposed block order is already the wide, shallow schedule
    /// `deliver_block`'s pipeline wants. The packed wave schedule and
    /// the proposer's committed state digest are gossiped *with* the
    /// block (the self-describing payload), so replicas verify the
    /// waves against their own footprints instead of layering their
    /// own, and cross-check the state they execute from. Every formed
    /// block is annotated, one member or
    /// many; unselected candidates stay pooled, courtesy of the
    /// engine's re-queue contract.
    fn form_block(
        &mut self,
        node: NodeId,
        candidates: &[(TxId, &DecodedTx)],
        max: usize,
    ) -> FormedBlock {
        let ledger = &self.replicas[node].ledger;
        // Footprints are derived per block: a static function of the
        // content, cheap next to validation.
        self.gossip.footprints_derived.add(candidates.len() as u64);
        let footprints = derive_footprints(&batch(candidates), ledger);
        let packed = pack_batch(&footprints, max);
        let annotations = BlockAnnotations {
            // Only the waves travel: replicas verify them against their
            // own footprints.
            schedule: Some(
                WaveSchedule {
                    waves: packed.waves(),
                    ..WaveSchedule::default()
                }
                .to_wire(),
            ),
            // The state this block was formed against, as committed.
            state_digest: Some(ledger.state_digest().to_hex()),
        };
        FormedBlock {
            picks: packed.order,
            annotations,
        }
    }

    /// DeliverTx for a whole block: the third validation set (Fig. 4)
    /// runs through the conflict-aware pipeline — non-conflicting
    /// transactions validate concurrently against the replica's
    /// snapshot, and state mutates in block order. Self-describing
    /// blocks short-circuit the layering stage: the replica derives the
    /// block's footprints itself and the proposer's gossiped wave
    /// schedule executes after a cheap verification against them —
    /// with local layering as the fallback for anything tampered, so
    /// the gossip can shape parallelism but never outcomes. Both
    /// schedule sources are deterministic, so every replica derives
    /// the identical committed/rejected split and identical post-state.
    fn deliver_block(&mut self, node: NodeId, block: BlockView<'_, DecodedTx>) -> Vec<AppResult> {
        // Every member starts from the delivery cost.
        let mut verdicts: Vec<AppResult> = block
            .txs
            .iter()
            .map(|(_, d)| Ok(self.cost.deliver_cost(d.payload_len, d.tx.inputs.len())))
            .collect();
        let batch = batch(block.txs);

        // The digest the proposer formed this block against, when
        // gossiped, must equal this replica's own before the block
        // executes — whatever the block's verdicts turn out to be. A
        // digest that does not parse is a proposer fault and counts as
        // a mismatch. Diagnostic only: state comes from the execution
        // below.
        if let Some(gossiped) = block.annotations.state_digest.as_deref() {
            let own = self.replicas[node].ledger.state_digest();
            if StateDigest::from_hex(gossiped) == Some(own) {
                self.gossip.digest_matches.incr();
            } else {
                self.gossip.digest_mismatches.incr();
            }
        }

        // The members this replica never CheckTx'd (it proposed the
        // block, or caught up on it) are verified as one pool inside
        // the commit, so the pipeline re-runs only the stateful rules.
        self.gossip.footprints_derived.add(batch.len() as u64);
        let footprints = derive_footprints(&batch, &self.replicas[node].ledger);
        let (outcome, source, pooled) = self.replicas[node].commit_block(
            &batch,
            Plan::Footprints(footprints, block.annotations.schedule.as_deref()),
            &self.pipeline,
        );
        self.count_pool(pooled, DELIVER_BLOCK_POOL);
        match source {
            ScheduleSource::Gossip => self.gossip.gossip_used.incr(),
            ScheduleSource::Rederived(Some(_)) => self.gossip.gossip_rejected.incr(),
            ScheduleSource::Rederived(None) => self.gossip.gossip_absent.incr(),
        }

        for (index, error) in &outcome.rejected {
            verdicts[*index] = Err(error.to_string());
        }
        // Post-delivery bookkeeping, in block order: the node-0 query
        // mirror, then settlement of the delivered members — children
        // check themselves off their parents here; an ACCEPT_BID
        // settles in the commit hook, where its cost is charged.
        let mut delivered: Vec<&Transaction> = Vec::new();
        for (tx, verdict) in batch.iter().zip(&verdicts) {
            if verdict.is_err() {
                continue;
            }
            if node == 0 {
                let mut doc = tx.to_value();
                doc.insert("_id", tx.id.clone());
                let _ = self
                    .query_db
                    .collection(collections::TRANSACTIONS)
                    .insert(doc);
            }
            if !row(tx.operation).nested {
                delivered.push(tx);
            }
        }
        let completed = self.replicas[node]
            .settle_block(&delivered, &self.escrow, &self.pipeline)
            .iter()
            .filter(|settled| {
                matches!(
                    settled,
                    Ok(Settled::Child {
                        completed_parent: Some(_)
                    })
                )
            })
            .count();
        if node == 0 {
            self.nested_completed += completed as u64;
        }
        verdicts
    }

    fn on_commit(
        &mut self,
        node: NodeId,
        _height: u64,
        committed: &[(TxId, &DecodedTx)],
        _now: SimTime,
    ) -> SimTime {
        let mut extra = SimTime::ZERO;
        // The block's ACCEPT_BIDs settle here, once per replica: their
        // children are derived as one stage over the wave workers.
        let accepts: Vec<&Transaction> = committed
            .iter()
            .map(|(_, decoded)| decoded.tx.as_ref())
            .filter(|t| row(t.operation).nested)
            .collect();
        let settled = self.replicas[node].settle_block(&accepts, &self.escrow, &self.pipeline);
        for (accept, settled) in accepts.iter().zip(settled) {
            let Ok(Settled::Parent {
                child_ids,
                outstanding,
            }) = settled
            else {
                // The accept is committed but its children are not
                // tracked on this replica: an alarm, not a verdict.
                self.pipeline.telemetry.incr("cluster.settle_failures");
                continue;
            };
            extra += self.cost.commit_hook_cost(child_ids.len());
            // The first replica to settle an accept plays the
            // receiver-node role and enqueues its children for
            // asynchronous submission. The replicas' own trackers are
            // the mark: no other tracker holding the accept means no
            // other replica has settled, hence dispatched, it.
            let first = self
                .replicas
                .iter()
                .enumerate()
                .all(|(n, replica)| n == node || replica.tracker.status(&accept.id).is_none());
            if first {
                self.outbox
                    .extend(outstanding.iter().map(Transaction::to_payload));
            }
        }
        extra
    }
}

/// Convenience wrapper: a consensus harness over a [`SmartchainCluster`]
/// that automatically pumps determined children back into consensus —
/// the non-locking settlement loop — and re-submits children whose
/// randomly chosen receiver rejected them because its replica had not
/// executed the parent block yet (§4.2.1: returns are "sent to a
/// randomly selected validator node to track its commit status and to
/// retry them if needed").
pub struct SmartchainHarness {
    inner: scdb_consensus::Harness<SmartchainCluster>,
    /// Child submissions being tracked for retry: (handle, payload,
    /// attempts so far).
    tracked_children: Vec<(scdb_consensus::TxId, String, u32)>,
}

/// Retry budget for child settlements (each retry waits one block
/// interval, so replicas catch up).
const CHILD_RETRY_LIMIT: u32 = 8;

impl SmartchainHarness {
    /// A Tendermint-profile cluster of `nodes` validators.
    pub fn new(nodes: usize) -> SmartchainHarness {
        let config = scdb_consensus::BftConfig::tendermint(nodes);
        SmartchainHarness::with_config(config)
    }

    /// Custom consensus parameters (cluster-size sweeps and ablations).
    pub fn with_config(config: scdb_consensus::BftConfig) -> SmartchainHarness {
        SmartchainHarness::with_pipeline(config, PipelineOptions::default())
    }

    /// Custom consensus parameters plus explicit pipeline options
    /// (wave workers, durability, telemetry) for every replica's block
    /// delivery.
    pub fn with_pipeline(
        config: scdb_consensus::BftConfig,
        pipeline: PipelineOptions,
    ) -> SmartchainHarness {
        let app = SmartchainCluster::with_options(config.nodes, pipeline);
        SmartchainHarness {
            inner: scdb_consensus::Harness::new(config, app),
            tracked_children: Vec::new(),
        }
    }

    /// The underlying consensus harness.
    pub fn consensus(&self) -> &scdb_consensus::Harness<SmartchainCluster> {
        &self.inner
    }

    pub fn consensus_mut(&mut self) -> &mut scdb_consensus::Harness<SmartchainCluster> {
        &mut self.inner
    }

    /// The escrow public key clients direct bids to.
    pub fn escrow_public_hex(&self) -> String {
        self.inner.app().escrow().public_hex()
    }

    /// Submits a payload at a simulated time.
    pub fn submit_at(&mut self, at: SimTime, payload: String) -> TxId {
        self.inner.submit_at(at, payload)
    }

    /// Runs to quiescence, pumping nested children into consensus as
    /// commit hooks produce them and retrying children whose receiver
    /// replica lagged behind the parent commit.
    pub fn run(&mut self) {
        loop {
            let progressed = if self.inner.has_live_work() {
                self.inner.step()
            } else {
                false
            };
            let children = self.inner.app_mut().drain_outbox();
            if !children.is_empty() {
                let now = self.inner.now();
                for payload in children {
                    let handle = self.inner.submit_at(now, payload.clone());
                    self.tracked_children.push((handle, payload, 0));
                }
                continue;
            }
            if progressed {
                continue;
            }
            if !self.retry_rejected_children() {
                break;
            }
        }
    }

    /// Re-submits rejected children after a one-block delay; true when
    /// anything was re-queued (the run loop must keep going).
    fn retry_rejected_children(&mut self) -> bool {
        let retry_at = self.inner.now() + self.inner.config().block_interval;
        let mut resubmitted = false;
        for slot in 0..self.tracked_children.len() {
            let (handle, _, attempts) = &self.tracked_children[slot];
            if *attempts >= CHILD_RETRY_LIMIT
                || !matches!(self.inner.status(*handle), TxStatus::Rejected(_))
            {
                continue;
            }
            let payload = self.tracked_children[slot].1.clone();
            let next_attempts = self.tracked_children[slot].2 + 1;
            let new_handle = self.inner.submit_at(retry_at, payload.clone());
            self.tracked_children[slot] = (new_handle, payload, next_attempts);
            resubmitted = true;
        }
        resubmitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_consensus::TxStatus;
    use scdb_core::TxBuilder;
    use scdb_json::{arr, obj};
    use scdb_store::Filter;

    struct People {
        sally: KeyPair,
        alice: KeyPair,
        bob: KeyPair,
    }

    fn people() -> People {
        People {
            sally: KeyPair::from_seed([0x5A; 32]),
            alice: KeyPair::from_seed([0xA1; 32]),
            bob: KeyPair::from_seed([0xB0; 32]),
        }
    }

    /// Drives a complete two-supplier reverse auction through consensus.
    fn run_cluster_auction(nodes: usize) -> (SmartchainHarness, People, String) {
        let mut h = SmartchainHarness::new(nodes);
        let p = people();
        let escrow_pk = h.escrow_public_hex();
        let t = SimTime::from_millis(1);

        let asset_a = TxBuilder::create(obj! { "capabilities" => arr!["3d-print", "cnc"] })
            .output(p.alice.public_hex(), 1)
            .nonce(1)
            .sign(&[&p.alice]);
        let asset_b = TxBuilder::create(obj! { "capabilities" => arr!["3d-print", "cnc"] })
            .output(p.bob.public_hex(), 1)
            .nonce(2)
            .sign(&[&p.bob]);
        let request = TxBuilder::request(obj! { "capabilities" => arr!["3d-print"] })
            .output(p.sally.public_hex(), 1)
            .nonce(3)
            .sign(&[&p.sally]);
        h.submit_at(t, asset_a.to_payload());
        h.submit_at(t, asset_b.to_payload());
        h.submit_at(t, request.to_payload());
        h.run();

        let bid_a = TxBuilder::bid(asset_a.id.clone(), request.id.clone())
            .input(asset_a.id.clone(), 0, vec![p.alice.public_hex()])
            .output_with_prev(escrow_pk.clone(), 1, vec![p.alice.public_hex()])
            .sign(&[&p.alice]);
        let bid_b = TxBuilder::bid(asset_b.id.clone(), request.id.clone())
            .input(asset_b.id.clone(), 0, vec![p.bob.public_hex()])
            .output_with_prev(escrow_pk.clone(), 1, vec![p.bob.public_hex()])
            .sign(&[&p.bob]);
        let now = h.consensus().now();
        h.submit_at(now, bid_a.to_payload());
        h.submit_at(now, bid_b.to_payload());
        h.run();

        let accept = TxBuilder::accept_bid(bid_a.id.clone(), request.id.clone())
            .input(bid_a.id.clone(), 0, vec![escrow_pk.clone()])
            .input(bid_b.id.clone(), 0, vec![escrow_pk.clone()])
            .output_with_prev(p.sally.public_hex(), 1, vec![escrow_pk.clone()])
            .output_with_prev(p.bob.public_hex(), 1, vec![escrow_pk.clone()])
            .sign(&[&p.sally]);
        let now = h.consensus().now();
        let accept_handle = h.submit_at(now, accept.to_payload());
        h.run();
        assert!(
            matches!(h.consensus().status(accept_handle), TxStatus::Committed(_)),
            "{:?}",
            h.consensus().status(accept_handle)
        );
        (h, p, accept.id)
    }

    #[test]
    fn cluster_auction_settles_end_to_end() {
        let (h, p, accept_id) = run_cluster_auction(4);
        let app = h.consensus().app();
        // Children were produced and committed through consensus.
        assert_eq!(app.nested_completed(), 1);
        // Every replica agrees on the settlement.
        for node in 0..4 {
            let ledger = app.ledger(node);
            assert!(ledger.is_committed(&accept_id), "node {node}");
            assert_eq!(
                ledger.utxos().unspent_for_owner(&p.bob.public_hex()).len(),
                1,
                "node {node}: bob got his bid back"
            );
        }
    }

    #[test]
    fn replicas_stay_identical() {
        let (h, _, _) = run_cluster_auction(4);
        let app = h.consensus().app();
        let ids0: Vec<String> = app.ledger(0).committed_ids().to_vec();
        let digest0 = app.state_digest(0);
        for node in 1..4 {
            // Same transaction set on every replica (order can differ
            // only across blocks, and blocks are totally ordered) —
            // and the O(1) digest agrees, which is the comparison
            // production paths use instead of sorting snapshots.
            assert_eq!(app.ledger(node).committed_ids(), &ids0[..], "node {node}");
            assert_eq!(app.state_digest(node), digest0, "node {node}");
        }
        // Digest-vs-snapshot cross-check on one pair: the cheap
        // comparator and the exhaustive one agree.
        assert_eq!(
            app.ledger(0).utxos().snapshot(),
            app.ledger(1).utxos().snapshot()
        );
    }

    #[test]
    fn blocks_gossip_schedules_and_digests_end_to_end() {
        let (h, _, _) = run_cluster_auction(4);
        let stats = h.consensus().app().gossip_stats();
        // Every proposal — one member or many — ships a schedule and a
        // digest, and every replica verifies rather than falls back (an
        // honest proposer's schedule always passes): no delivery goes
        // without gossip.
        assert!(stats.gossip_used() > 0, "{stats:?}");
        assert_eq!(stats.gossip_rejected(), 0, "honest proposer: {stats:?}");
        assert_eq!(
            stats.gossip_absent(),
            0,
            "every block is annotated: {stats:?}"
        );
        // Footprints are derived per block, never cached.
        assert!(stats.footprints_derived() > 0, "{stats:?}");
        assert_eq!(stats.footprints_cached(), 0, "{stats:?}");
        // Every block was delivered from the state its proposer formed
        // it against.
        assert!(stats.digest_matches() > 0, "{stats:?}");
        assert_eq!(stats.digest_mismatches(), 0, "{stats:?}");
    }

    #[test]
    fn query_mirror_answers_marketplace_queries() {
        let (h, _, _) = run_cluster_auction(4);
        let db = h.consensus().app().query_db();
        let txs = db.collection(collections::TRANSACTIONS);
        let open_requests = txs.find(&Filter::and([
            Filter::eq("operation", "REQUEST"),
            Filter::Contains("asset.data.capabilities".into(), "3d-print".into()),
        ]));
        assert_eq!(open_requests.len(), 1);
        assert_eq!(txs.count(&Filter::eq("operation", "BID")), 2);
        assert_eq!(txs.count(&Filter::eq("operation", "RETURN")), 1);
        assert_eq!(txs.count(&Filter::eq("operation", "ACCEPT_BID")), 1);
    }

    #[test]
    fn invalid_submissions_rejected_by_check_tx() {
        let mut h = SmartchainHarness::new(4);
        let p = people();
        // A bid referencing a non-existent request fails CheckTx at the
        // receiver and never reaches consensus.
        let bid = TxBuilder::bid("9".repeat(64), "8".repeat(64))
            .input("9".repeat(64), 0, vec![p.alice.public_hex()])
            .output_with_prev(h.escrow_public_hex(), 1, vec![p.alice.public_hex()])
            .sign(&[&p.alice]);
        let handle = h.submit_at(SimTime::from_millis(1), bid.to_payload());
        h.run();
        assert!(matches!(
            h.consensus().status(handle),
            TxStatus::Rejected(_)
        ));
        assert_eq!(h.consensus().committed_count(), 0);
    }

    #[test]
    fn conflicting_double_spends_one_winner() {
        let mut h = SmartchainHarness::new(4);
        let p = people();
        let create = TxBuilder::create(obj! {})
            .output(p.alice.public_hex(), 1)
            .sign(&[&p.alice]);
        h.submit_at(SimTime::from_millis(1), create.to_payload());
        h.run();

        // Two conflicting transfers of the same output, submitted to
        // different receiver nodes at the same instant.
        let mk = |to: &KeyPair, n: u64| {
            TxBuilder::transfer(create.id.clone())
                .input(create.id.clone(), 0, vec![p.alice.public_hex()])
                .output_with_prev(to.public_hex(), 1, vec![p.alice.public_hex()])
                .metadata(obj! { "n" => n })
                .sign(&[&p.alice])
        };
        let t1 = mk(&p.bob, 1);
        let t2 = mk(&p.sally, 2);
        let now = h.consensus().now();
        let h1 = h.consensus_mut().submit_at_node(now, 0, t1.to_payload());
        let h2 = h.consensus_mut().submit_at_node(now, 1, t2.to_payload());
        h.run();

        let s1 = h.consensus().status(h1).clone();
        let s2 = h.consensus().status(h2).clone();
        let committed = [&s1, &s2]
            .iter()
            .filter(|s| matches!(s, TxStatus::Committed(_)))
            .count();
        assert_eq!(committed, 1, "exactly one spend may win: {s1:?} vs {s2:?}");

        // A rejected member is not divergence: the gossiped digest is
        // the state the block was formed against, so the losing spend
        // raises no alarm and the replicas end digest-equal.
        let app = h.consensus().app();
        let stats = app.gossip_stats();
        assert_eq!(stats.digest_mismatches(), 0, "{stats:?}");
        assert!(stats.digest_matches() > 0, "{stats:?}");
        // Every replica delivers the block its proposer formed, the
        // losing spend included, so the honest schedule covers it
        // everywhere.
        assert_eq!(stats.gossip_rejected(), 0, "{stats:?}");
        for node in 1..4 {
            assert_eq!(app.state_digest(node), app.state_digest(0), "node {node}");
        }
    }

    #[test]
    fn a_wrong_or_malformed_digest_is_a_mismatch() {
        let p = people();
        let create = TxBuilder::create(obj! {})
            .output(p.alice.public_hex(), 1)
            .sign(&[&p.alice]);
        let spend = |to: &KeyPair| {
            TxBuilder::transfer(create.id.clone())
                .input(create.id.clone(), 0, vec![p.alice.public_hex()])
                .output_with_prev(to.public_hex(), 1, vec![p.alice.public_hex()])
                .sign(&[&p.alice])
                .to_payload()
        };
        // A fresh one-replica cluster holding the CREATE.
        let fresh = || {
            let mut app = SmartchainCluster::new(1);
            let decoded = app.decode(&create.to_payload()).expect("decodes");
            app.deliver_tx(0, 0, &decoded).expect("create");
            app
        };
        // One winner and one rejected double spend per delivery.
        let payloads = [spend(&p.bob), spend(&p.sally)];
        // Delivers the block under `state_digest`; returns verdicts,
        // post-block digest and the (matches, mismatches) counted.
        let deliver = |state_digest: Option<&str>| {
            let mut app = fresh();
            let decoded = payloads
                .each_ref()
                .map(|payload| app.decode(payload).expect("decodes"));
            let block = [(1, &decoded[0]), (2, &decoded[1])];
            let annotations = BlockAnnotations {
                schedule: None,
                state_digest: state_digest.map(str::to_owned),
            };
            let verdicts = app.deliver_block(
                0,
                BlockView {
                    txs: &block,
                    annotations: &annotations,
                },
            );
            let stats = app.gossip_stats();
            let counted = (stats.digest_matches(), stats.digest_mismatches());
            (verdicts, app.state_digest(0), counted)
        };

        let bare = deliver(None);
        assert!(bare.0[0].is_ok() && bare.0[1].is_err(), "{:?}", bare.0);
        assert_eq!(bare.2, (0, 0), "an absent digest is not counted");
        let own = fresh().state_digest(0).to_hex();
        let other_state = LedgerState::new().state_digest().to_hex();
        for (digest, counted) in [(&*own, (1, 0)), (&*other_state, (0, 1)), ("zz", (0, 1))] {
            // The annotation never decides anything.
            assert_eq!(
                deliver(Some(digest)),
                (bare.0.clone(), bare.1, counted),
                "{digest}"
            );
        }
    }

    #[test]
    fn latency_matches_paper_operating_point() {
        // Single CREATE on an idle 4-node cluster: latency should land
        // in the ~0.1-0.3 s band (block pacing dominated), mirroring the
        // flat SCDB latencies of Fig. 7.
        let mut h = SmartchainHarness::new(4);
        let p = people();
        let tx = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
            .output(p.alice.public_hex(), 1)
            .sign(&[&p.alice]);
        let handle = h.submit_at(SimTime::from_millis(1), tx.to_payload());
        h.run();
        let latency = h.consensus().latency(handle).expect("committed");
        assert!(
            latency >= SimTime::from_millis(100) && latency <= SimTime::from_millis(500),
            "latency {latency} outside the SCDB operating band"
        );
    }
}
