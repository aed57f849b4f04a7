//! A standalone SmartchainDB node: the full server stack on one
//! machine — the replica core plus the shell a server needs around it:
//! document store, the return queue and the mempool.
//!
//! This is the unit the driver talks to in sync mode. It owns the whole
//! §4 life cycle minus distributed consensus: schema validation →
//! semantic validation → commit to storage → (for nested types) child
//! determination and asynchronous settlement. Opening, recovering,
//! committing and settling are the [`Replica`] core's — the same code
//! every cluster replica runs; this module adds the
//! queryable document mirror, the `ReturnQueue` whose
//! pump settles children locally, and the standing `Mempool`. Every
//! submission entry point reaches the pipeline through
//! [`Replica::commit_block`].

use crate::replica::{EphemeralDir, Plan, Replica, Settled};
use crate::return_queue::ReturnQueue;
use scdb_core::pipeline::{derive_footprints, BatchOutcome, PipelineOptions};
use scdb_core::{LedgerState, NestedTracker, Transaction, ValidationError};
use scdb_crypto::KeyPair;
use scdb_json::{obj, Value};
use scdb_mempool::{AdmitError, AdmitReceipt, Mempool, MempoolConfig};
use scdb_store::{collections, Db, Filter, WalError};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Result of [`Node::submit_batch`].
#[derive(Debug)]
pub struct BatchSubmitReport {
    /// The pipeline's verdicts: committed ids in submission order,
    /// rejected `(payload index, error)` pairs, wave statistics.
    pub outcome: BatchOutcome,
    /// Payloads that never reached validation because they failed to
    /// parse, as `(payload index, error)`.
    pub parse_failures: Vec<(usize, ValidationError)>,
    /// Transactions that committed to the ledger but whose post-commit
    /// effects (document mirror, nested-child determination) failed, as
    /// `(transaction id, error)`. Non-empty means the node's auxiliary
    /// stores lag the ledger and recovery should be run.
    pub post_commit_failures: Vec<(String, ValidationError)>,
}

impl BatchSubmitReport {
    /// True when every payload parsed, validated, committed and ran
    /// its post-commit effects.
    pub fn fully_committed(&self) -> bool {
        self.parse_failures.is_empty()
            && self.post_commit_failures.is_empty()
            && self.outcome.fully_committed()
    }
}

/// Result of one [`Node::drain_block`]: the pipeline outcome plus the
/// batch it decided, so callers (the batching driver endpoint, block
/// proposers) can map verdicts back to transactions by id.
#[derive(Debug)]
pub struct DrainReport {
    /// The drained batch, in commit order (wave-major as the mempool
    /// packed it).
    pub batch: Vec<Arc<Transaction>>,
    /// The pipeline's verdicts; rejection indices index `batch`.
    pub outcome: BatchOutcome,
    /// Post-commit (auxiliary-store) failures, as in
    /// [`BatchSubmitReport`].
    pub post_commit_failures: Vec<(String, ValidationError)>,
    /// ACCEPT_BID members the mempool expelled at drain time (their
    /// fulfillment does not verify against the resolved requester's
    /// keys). Definitive rejections — not in `batch`, never requeued.
    pub expelled: Vec<scdb_mempool::ExpelledTx>,
}

/// One SmartchainDB server node.
pub struct Node {
    replica: Replica,
    db: Db,
    queue: Arc<ReturnQueue>,
    escrow: KeyPair,
    pipeline: PipelineOptions,
    mempool: Mempool,
    /// Keeps the ephemeral durable directory alive (and cleans it up)
    /// when [`PipelineOptions::durable`] attached a store without an
    /// explicit directory.
    _durable_tmp: Option<EphemeralDir>,
}

impl Node {
    /// Creates a node with a fresh genesis: the escrow system account is
    /// generated and registered as the reserved account `PBPK-ℛℯ𝓈`.
    pub fn new(escrow: KeyPair) -> Node {
        Node::with_options(escrow, PipelineOptions::default())
    }

    /// Like [`Node::new`] with an explicit batch-validation worker
    /// count (`1` = sequential batch validation).
    pub fn with_workers(escrow: KeyPair, workers: usize) -> Node {
        Node::with_options(escrow, PipelineOptions::with_workers(workers))
    }

    /// Full pipeline control: worker count for wave validation,
    /// durability and telemetry.
    pub fn with_options(escrow: KeyPair, pipeline: PipelineOptions) -> Node {
        Node::with_mempool_config(escrow, pipeline, MempoolConfig::default())
    }

    /// [`Node::with_options`] with explicit mempool tuning (capacity,
    /// per-sender cap, admission workers).
    pub fn with_mempool_config(
        escrow: KeyPair,
        pipeline: PipelineOptions,
        mempool: MempoolConfig,
    ) -> Node {
        // Durable mode without an explicit directory: an ephemeral
        // per-node store, so every commit still seals its block,
        // cleaned up when the node drops.
        let durable_tmp = pipeline.durable.then(|| EphemeralDir::new("scdb-durable"));
        let replica = Replica::open(
            &pipeline,
            &escrow,
            durable_tmp.as_ref().map(|d| d.0.as_path()),
        );
        Node::assemble(replica, escrow, pipeline, mempool, durable_tmp)
    }

    /// The shell around a replica core. Admission shares the node's
    /// telemetry handle so mempool counters land in the same registry
    /// as commit traces.
    fn assemble(
        replica: Replica,
        escrow: KeyPair,
        pipeline: PipelineOptions,
        mempool: MempoolConfig,
        durable_tmp: Option<EphemeralDir>,
    ) -> Node {
        let mempool = Mempool::new(MempoolConfig {
            telemetry: pipeline.telemetry.clone(),
            ..mempool
        });
        Node {
            replica,
            db: Db::smartchaindb(),
            queue: Arc::new(ReturnQueue::new()),
            escrow,
            pipeline,
            mempool,
            _durable_tmp: durable_tmp,
        }
    }

    /// Opens (or re-opens) a node whose durable store lives at `dir`:
    /// the replica core recovers fail-closed (`Replica::recover`) and
    /// the node's own stores — document mirror, recovery collection,
    /// return queue — are rebuilt by replaying the recovered commit
    /// order, with each member's settlement as the core derived it,
    /// through the post-commit path (children that settled before the
    /// crash stay off the rebuilt return queue). A digest mismatch anywhere refuses to
    /// start rather than serving corrupt state.
    pub fn with_durable_dir(
        escrow: KeyPair,
        mut pipeline: PipelineOptions,
        dir: impl Into<PathBuf>,
    ) -> Result<Node, String> {
        pipeline.durable = true;
        let (replica, replay) = Replica::recover(&pipeline, &escrow, &dir.into())?;
        let mut node = Node::assemble(replica, escrow, pipeline, MempoolConfig::default(), None);
        for (tx, settled) in replay {
            node.record_commit(&tx, settled)
                .map_err(|e| format!("recovery: post-commit replay of {} failed: {e}", tx.id))?;
        }
        Ok(node)
    }

    /// The escrow account's public key (hex).
    pub fn escrow_public_hex(&self) -> String {
        self.escrow.public_hex()
    }

    /// The batch-pipeline configuration this node validates with
    /// (workers, durability, telemetry).
    pub fn pipeline_options(&self) -> &PipelineOptions {
        &self.pipeline
    }

    /// The telemetry registry as deterministic JSON (sorted metric
    /// names, traces in block order), or `None` with telemetry off.
    /// One handle spans the whole node — mempool admission
    /// (`mempool.*`), the commit pipeline (`pipeline.*`), and the
    /// durable store (`durable.*`) all report here. The prepared-key
    /// cache's gauges (`crypto.key_cache.*`) are per process, shared
    /// with every other node in it.
    pub fn telemetry_snapshot(&self) -> Option<Value> {
        self.pipeline
            .telemetry
            .snapshot()
            .map(crate::telemetry::snapshot_with_key_cache)
    }

    /// The committed ledger view.
    pub fn ledger(&self) -> &LedgerState {
        &self.replica.ledger
    }

    /// The node's UTXO state digest — the O(1) replica-equality
    /// comparator (see `scdb_store::StateDigest`).
    pub fn state_digest(&self) -> scdb_store::StateDigest {
        self.replica.ledger.state_digest()
    }

    /// The document store (queryability surface).
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The return queue.
    pub fn queue(&self) -> &Arc<ReturnQueue> {
        &self.queue
    }

    /// Nested-transaction settlement tracker.
    pub fn tracker(&self) -> &NestedTracker {
        &self.replica.tracker
    }

    /// Full single-node life cycle for one payload: a batch of one
    /// through [`Node::submit_batch_parsed`] — validate, commit to
    /// ledger and store, and, for ACCEPT_BID, determine children and
    /// enqueue them (Algorithm 3's commit phase) — folded into the one
    /// verdict. Returns the committed transaction.
    pub fn process_transaction(&mut self, payload: &str) -> Result<Transaction, ValidationError> {
        let tx = Transaction::from_payload(payload)
            .map_err(|e| ValidationError::Semantic(e.to_string()))?;
        let tx = Arc::new(tx);
        let mut report = self.submit_batch_parsed(std::slice::from_ref(&tx));
        if let Some((_, e)) = report.outcome.rejected.pop() {
            return Err(e);
        }
        if let Some(e) = report.outcome.wal_error {
            // Fail closed: the seal is the durability commit point. The
            // store latched and refuses further writes; reopen to
            // recover up to the last good seal.
            return Err(ValidationError::Storage(format!(
                "durable seal failed: {e}"
            )));
        }
        if let Some((_, e)) = report.post_commit_failures.pop() {
            return Err(e);
        }
        Ok(Arc::unwrap_or_clone(tx))
    }

    /// Validates and commits a whole batch of *already parsed*
    /// transactions through the conflict-aware parallel pipeline
    /// (`scdb_core::pipeline`): the batch is partitioned into
    /// conflict-free waves, validated concurrently by the node's
    /// configured workers, and applied in submission order.
    /// Post-commit effects (store mirror, nested-child determination)
    /// run exactly as on the single-transaction path.
    ///
    /// This is the ingest core: callers that hold parsed transactions
    /// hand them over as `Arc`s and nothing downstream re-parses a
    /// payload.
    pub fn submit_batch_parsed(&mut self, batch: &[Arc<Transaction>]) -> BatchSubmitReport {
        let footprints = derive_footprints(batch, &self.replica.ledger);
        let plan = Plan::Footprints(footprints, None);
        let (outcome, _, _) = self.replica.commit_block(batch, plan, &self.pipeline);
        let post_commit_failures = self.run_post_commit(batch, &outcome);
        BatchSubmitReport {
            outcome,
            parse_failures: Vec::new(),
            post_commit_failures,
        }
    }

    /// The string-accepting RPC surface over
    /// [`Node::submit_batch_parsed`]: payloads that fail to parse are
    /// rejected up front (reported at their payload index), the rest
    /// are parsed exactly once and threaded through as shared
    /// transactions.
    pub fn submit_batch(&mut self, payloads: &[String]) -> BatchSubmitReport {
        let mut parse_failures = Vec::new();
        let mut batch = Vec::with_capacity(payloads.len());
        let mut batch_indices = Vec::with_capacity(payloads.len());
        for (i, payload) in payloads.iter().enumerate() {
            match Transaction::from_payload(payload) {
                Ok(tx) => {
                    batch.push(Arc::new(tx));
                    batch_indices.push(i);
                }
                Err(e) => {
                    parse_failures.push((i, ValidationError::Semantic(e.to_string())));
                }
            }
        }

        let mut report = self.submit_batch_parsed(&batch);
        // Map pipeline indices (over the parsed subset) back to the
        // caller's payload indices.
        for rejected in &mut report.outcome.rejected {
            rejected.0 = batch_indices[rejected.0];
        }
        report.parse_failures = parse_failures;
        report
    }

    /// Post-commit effects for every committed member of a batch — the
    /// members the outcome does not reject — in commit order. A failure
    /// means the transaction is on the ledger but the node's stores
    /// lag it: reported, so the caller can run recovery rather than
    /// trust the mirror.
    fn run_post_commit(
        &mut self,
        batch: &[Arc<Transaction>],
        outcome: &BatchOutcome,
    ) -> Vec<(String, ValidationError)> {
        let rejected: HashSet<usize> = outcome.rejected.iter().map(|(i, _)| *i).collect();
        let committed: Vec<&Transaction> = batch
            .iter()
            .enumerate()
            .filter(|(index, _)| !rejected.contains(index))
            .map(|(_, tx)| tx.as_ref())
            .collect();
        self.post_commit(&committed)
    }

    /// Everything that follows a block's ledger apply: the core's
    /// settlement stage over its committed members, then the node's own
    /// stores member by member. Returns the members whose effects
    /// failed, as `(id, error)`.
    fn post_commit(&mut self, committed: &[&Transaction]) -> Vec<(String, ValidationError)> {
        let settled = self
            .replica
            .settle_block(committed, &self.escrow, &self.pipeline);
        let mut failures = Vec::new();
        for (tx, settled) in committed.iter().zip(settled) {
            if let Err(e) = self.record_commit(tx, settled) {
                failures.push((tx.id.clone(), e));
            }
        }
        failures
    }

    /// The standing ingest pool.
    pub fn mempool(&self) -> &Mempool {
        &self.mempool
    }

    /// Admits one serialized payload into the node's mempool (the
    /// single-transaction RPC surface): parsed exactly once, cheap
    /// stateless checks plus footprint indexing, no semantic
    /// validation (that happens at [`Node::drain_block`] commit time).
    pub fn ingest_payload(&mut self, payload: &str) -> Result<AdmitReceipt, AdmitError> {
        self.mempool.admit_payload(payload, &self.replica.ledger)
    }

    /// Admits a whole arrival batch of payloads through the mempool's
    /// staged pipeline (parallel parse → screen → pooled signature
    /// verification, then the per-member decide step): one verdict per member in
    /// input order, byte-identical to a loop of
    /// [`Node::ingest_payload`]. This is the client ingest path; the
    /// benchmark drives it, then [`Node::form_proposal`] and
    /// [`Node::commit_proposal`].
    pub fn ingest_payload_batch(
        &mut self,
        payloads: &[String],
    ) -> Vec<Result<AdmitReceipt, AdmitError>> {
        self.mempool
            .admit_payload_batch(payloads, &self.replica.ledger)
    }

    /// Drains up to `max_n` pooled transactions as one wave-packed
    /// batch and commits it through the pipeline with the mempool's
    /// precomputed schedule — footprints derived at admission are
    /// never re-derived here. This is the block-interval pump: the
    /// standalone node's equivalent of a proposer draining its mempool
    /// into a block. Equivalent to [`Node::form_proposal`] followed by
    /// [`Node::commit_proposal`].
    pub fn drain_block(&mut self, max_n: usize) -> DrainReport {
        let formed = self.form_proposal(max_n);
        self.commit_proposal(formed)
    }

    /// Forms a block proposal from the mempool *without* committing:
    /// the proposer-side half of the drain. The formed batch either
    /// commits via [`Node::commit_proposal`] (the proposal decided) or
    /// returns to the pool via [`Node::requeue_proposal`] (the
    /// proposal was abandoned).
    pub fn form_proposal(&mut self, max_n: usize) -> scdb_mempool::FormedBatch {
        self.mempool.drain_batch(max_n, &self.replica.ledger)
    }

    /// Commits a formed proposal through the pipeline with its
    /// precomputed schedule, running post-commit effects.
    pub fn commit_proposal(&mut self, formed: scdb_mempool::FormedBatch) -> DrainReport {
        let (outcome, _, _) =
            self.replica
                .commit_block(&formed.txs, Plan::Formed(&formed.schedule), &self.pipeline);
        let post_commit_failures = self.run_post_commit(&formed.txs, &outcome);
        DrainReport {
            batch: formed.txs,
            outcome,
            post_commit_failures,
            expelled: formed.expelled,
        }
    }

    /// Returns an abandoned proposal's members to the mempool at their
    /// original arrival positions (members committed meanwhile are
    /// skipped). Returns how many were reinstated.
    pub fn requeue_proposal(&mut self, formed: scdb_mempool::FormedBatch) -> usize {
        self.mempool.requeue(formed, &self.replica.ledger)
    }

    /// Flushes any group-buffered seal records to the manifest and
    /// fsyncs them ([`scdb_store::FsyncLevel::Group`] durability).
    /// Call before an orderly shutdown — buffered seals are invisible
    /// to recovery, exactly as if the host had crashed. A no-op
    /// returning `false` without durability.
    pub fn flush_durable(&mut self) -> Result<bool, WalError> {
        self.replica.flush()
    }

    /// The directory backing this node's durable store, when one is
    /// attached.
    pub fn durable_dir(&self) -> Option<PathBuf> {
        self.replica.durable_dir()
    }

    /// The shell's half of a commit: the document mirror, and what
    /// `settled` means for the recovery collection and the return queue
    /// (Algorithm 3, commit phase).
    fn record_commit(
        &mut self,
        tx: &Transaction,
        settled: Result<Settled, ValidationError>,
    ) -> Result<(), ValidationError> {
        // Mirror into the document store for queryability.
        let mut doc = tx.to_value();
        doc.insert("_id", tx.id.clone());
        self.db
            .collection(collections::TRANSACTIONS)
            .insert(doc)
            .map_err(|e| ValidationError::Semantic(e.to_string()))?;

        match settled? {
            Settled::Parent {
                child_ids,
                outstanding,
            } => {
                // "logAcceptBidTxUpdForRecovery(tx, status: commit)" +
                // the accept_tx_recovery collection of §4.2.
                let child_ids: Vec<Value> = child_ids.into_iter().map(Value::from).collect();
                self.db
                    .collection(collections::ACCEPT_TX_RECOVERY)
                    .insert(obj! {
                        "parent" => tx.id.clone(),
                        "children" => Value::Array(child_ids),
                        "status" => "commit",
                    })
                    .map_err(|e| ValidationError::Semantic(e.to_string()))?;
                for child in outstanding {
                    self.queue.enqueue(&tx.id, child);
                }
            }
            Settled::Child {
                completed_parent: Some(parent),
            } => {
                self.db.collection(collections::ACCEPT_TX_RECOVERY).update(
                    &Filter::eq("parent", parent),
                    "status",
                    Value::from("complete"),
                );
            }
            Settled::Child { .. } | Settled::Plain => {}
        }
        Ok(())
    }

    /// Settles up to `max` queued children as **one block** (the
    /// simulation-side worker pump): the children apply, then one seal
    /// covers the whole drain — the children that applied, in queue
    /// order. Post-commit effects run over them after the seal. A child
    /// whose apply failed goes back on the queue; a failed seal fails
    /// closed — the store latched — and every child of the drain goes
    /// back. A store already latched refuses the pump before anything
    /// leaves the queue. Returns how many settled.
    pub fn pump_returns(&mut self, max: usize) -> usize {
        let store = self.replica.ledger.durable_store();
        if store.is_some_and(|store| store.guard().is_err()) {
            return 0;
        }
        let jobs = self.queue.drain(max);
        if jobs.is_empty() {
            return 0;
        }
        let applied: Vec<bool> = jobs
            .iter()
            .map(|job| self.replica.ledger.apply_shared(&job.child).is_ok())
            .collect();
        if let Some(store) = self.replica.ledger.durable_store() {
            let docs: Vec<Value> = jobs
                .iter()
                .zip(&applied)
                .filter(|(_, ok)| **ok)
                .map(|(job, _)| job.child.to_value())
                .collect();
            let sealed = store.seal_block(&docs, &self.replica.ledger.state_digest());
            if sealed.is_err() {
                for job in jobs {
                    self.queue.retry(job);
                }
                return 0;
            }
        }
        let committed: Vec<&Transaction> = jobs
            .iter()
            .zip(&applied)
            .filter(|(_, ok)| **ok)
            .map(|(job, _)| job.child.as_ref())
            .collect();
        let failed = self.post_commit(&committed);
        let mut settled = 0;
        for (job, ok) in jobs.into_iter().zip(applied) {
            if ok && !failed.iter().any(|(id, _)| *id == job.child.id) {
                settled += 1;
            } else {
                self.queue.retry(job);
            }
        }
        settled
    }

    /// Crash-recovery (§4.2.1 case 2): rebuilds the return queue —
    /// "enqueue all the RETURNs … when the receiver node comes up
    /// online" — from the nested tracker (itself rebuilt from the
    /// sealed chain by `Replica::recover`): every parent with
    /// outstanding children, in ledger commit order, has them
    /// re-determined and re-enqueued. Children already committed are skipped. Returns
    /// how many were re-enqueued.
    pub fn recover(&mut self) -> usize {
        let incomplete: HashSet<String> = self
            .replica
            .tracker
            .incomplete_parents()
            .into_iter()
            .collect();
        let mut re_enqueued = 0;
        for parent_id in self.replica.ledger.committed_ids() {
            if !incomplete.contains(parent_id) {
                continue;
            }
            for child in self.replica.outstanding_children(parent_id, &self.escrow) {
                self.queue.enqueue(parent_id, child);
                re_enqueued += 1;
            }
        }
        re_enqueued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scdb_core::{LedgerView, TxBuilder};
    use scdb_json::arr;

    struct Fixture {
        node: Node,
        sally: KeyPair,
        alice: KeyPair,
        bob: KeyPair,
    }

    fn fixture() -> Fixture {
        let mut rng = StdRng::seed_from_u64(0x90DE);
        let escrow = KeyPair::generate(&mut rng);
        Fixture {
            node: Node::new(escrow),
            sally: KeyPair::generate(&mut rng),
            alice: KeyPair::generate(&mut rng),
            bob: KeyPair::generate(&mut rng),
        }
    }

    fn run_auction(f: &mut Fixture) -> (Transaction, Transaction, Transaction) {
        let asset_a = TxBuilder::create(obj! { "capabilities" => arr!["3d-print", "cnc"] })
            .output(f.alice.public_hex(), 1)
            .nonce(1)
            .sign(&[&f.alice]);
        f.node.process_transaction(&asset_a.to_payload()).unwrap();
        let asset_b = TxBuilder::create(obj! { "capabilities" => arr!["3d-print", "cnc"] })
            .output(f.bob.public_hex(), 1)
            .nonce(2)
            .sign(&[&f.bob]);
        f.node.process_transaction(&asset_b.to_payload()).unwrap();

        let request = TxBuilder::request(obj! { "capabilities" => arr!["3d-print"] })
            .output(f.sally.public_hex(), 1)
            .nonce(3)
            .sign(&[&f.sally]);
        f.node.process_transaction(&request.to_payload()).unwrap();

        let escrow_pk = f.node.escrow_public_hex();
        let bid_a = TxBuilder::bid(asset_a.id.clone(), request.id.clone())
            .input(asset_a.id.clone(), 0, vec![f.alice.public_hex()])
            .output_with_prev(escrow_pk.clone(), 1, vec![f.alice.public_hex()])
            .sign(&[&f.alice]);
        f.node.process_transaction(&bid_a.to_payload()).unwrap();
        let bid_b = TxBuilder::bid(asset_b.id.clone(), request.id.clone())
            .input(asset_b.id.clone(), 0, vec![f.bob.public_hex()])
            .output_with_prev(escrow_pk.clone(), 1, vec![f.bob.public_hex()])
            .sign(&[&f.bob]);
        f.node.process_transaction(&bid_b.to_payload()).unwrap();

        let accept = TxBuilder::accept_bid(bid_a.id.clone(), request.id.clone())
            .input(bid_a.id.clone(), 0, vec![escrow_pk.clone()])
            .input(bid_b.id.clone(), 0, vec![escrow_pk.clone()])
            .output_with_prev(f.sally.public_hex(), 1, vec![escrow_pk.clone()])
            .output_with_prev(f.bob.public_hex(), 1, vec![escrow_pk.clone()])
            .sign(&[&f.sally]);
        f.node.process_transaction(&accept.to_payload()).unwrap();
        (request, bid_a, accept)
    }

    #[test]
    fn accept_bid_enqueues_children_nonblocking() {
        let mut f = fixture();
        let (_, _, accept) = run_auction(&mut f);
        // Non-locking: the parent is committed before any child settles.
        assert!(f.node.ledger().is_committed(&accept.id));
        assert_eq!(f.node.queue().len(), 2, "winner transfer + 1 return");
        assert!(matches!(
            f.node.tracker().status(&accept.id),
            Some(scdb_core::NestedStatus::PendingChildren { outstanding: 2 })
        ));

        // Pumping the queue settles both children: eventual commit.
        let settled = f.node.pump_returns(16);
        assert_eq!(settled, 2);
        assert_eq!(
            f.node.tracker().status(&accept.id),
            Some(scdb_core::NestedStatus::Complete)
        );

        // Sally holds the winning asset, Bob got his back.
        assert_eq!(
            f.node
                .ledger()
                .utxos()
                .unspent_for_owner(&f.sally.public_hex())
                .len(),
            2, // request output + won asset
        );
        assert_eq!(
            f.node
                .ledger()
                .utxos()
                .unspent_for_owner(&f.bob.public_hex())
                .len(),
            1
        );
    }

    #[test]
    fn recovery_re_enqueues_outstanding_children() {
        let mut f = fixture();
        let (_, _, accept) = run_auction(&mut f);
        // Simulate a crash: the queue content is lost before settling.
        let lost = f.node.queue().drain(16);
        assert_eq!(lost.len(), 2);
        assert!(f.node.queue().is_empty());

        // On restart, recovery rebuilds the queue from the tracker.
        let re_enqueued = f.node.recover();
        assert_eq!(re_enqueued, 2);
        assert_eq!(f.node.pump_returns(16), 2);
        assert_eq!(
            f.node.tracker().status(&accept.id),
            Some(scdb_core::NestedStatus::Complete)
        );
    }

    #[test]
    fn recovery_skips_settled_children() {
        let mut f = fixture();
        let (_, _, accept) = run_auction(&mut f);
        f.node.pump_returns(1); // settle one child only
        let lost = f.node.queue().drain(16);
        assert_eq!(lost.len(), 1);
        let re_enqueued = f.node.recover();
        assert_eq!(re_enqueued, 1, "only the unsettled child returns");
        assert_eq!(f.node.pump_returns(16), 1);
        assert!(f.node.queue().is_empty());
        assert_eq!(
            f.node.tracker().status(&accept.id),
            Some(scdb_core::NestedStatus::Complete)
        );
    }

    #[test]
    fn store_mirror_supports_marketplace_queries() {
        let mut f = fixture();
        let (request, _, _) = run_auction(&mut f);
        let txs = f.node.db().collection(collections::TRANSACTIONS);
        // The motivating query of §2.1: open requests with 3-D printing
        // capabilities, straight off the blockchain store.
        let hits = txs.find(&Filter::and([
            Filter::eq("operation", "REQUEST"),
            Filter::Contains("asset.data.capabilities".into(), "3d-print".into()),
        ]));
        assert_eq!(hits.len(), 1);
        assert_eq!(
            hits[0].get("_id").and_then(Value::as_str),
            Some(request.id.as_str())
        );
        // Bids are queryable by their referenced request.
        let bids = txs.find(&Filter::and([
            Filter::eq("operation", "BID"),
            Filter::eq("references.0", request.id.clone()),
        ]));
        assert_eq!(bids.len(), 2);
    }

    #[test]
    fn recovery_collection_tracks_status() {
        let mut f = fixture();
        let (_, _, accept) = run_auction(&mut f);
        let recovery = f.node.db().collection(collections::ACCEPT_TX_RECOVERY);
        let doc = recovery
            .find_one(&Filter::eq("parent", accept.id.clone()))
            .unwrap();
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("commit"));
        f.node.pump_returns(16);
        let doc = recovery
            .find_one(&Filter::eq("parent", accept.id.clone()))
            .unwrap();
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("complete"));
    }

    #[test]
    fn invalid_payloads_rejected_without_side_effects() {
        let mut f = fixture();
        let before = f.node.ledger().len();
        assert!(f.node.process_transaction("not json").is_err());
        assert!(f
            .node
            .process_transaction("{\"operation\":\"MINT\"}")
            .is_err());
        assert_eq!(f.node.ledger().len(), before);
        assert_eq!(f.node.queue().len(), 0);
    }
}
