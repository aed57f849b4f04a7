//! The replica core: one validator's committed state and the life cycle
//! around it. [`crate::Node`] embeds one and a
//! [`crate::SmartchainCluster`] one per member, so "single node" and
//! "replica of four" differ only in who orders the blocks.
//!
//! This is the only place in the crate that opens or recovers a ledger
//! over a durable store, commits a block (pooled stateless verification
//! → schedule → pipeline), does the post-commit nested-transaction
//! bookkeeping, or checkpoints / flushes the store. The shells add
//! their own stores and caches on top and never repeat these steps.

use scdb_core::pipeline::{
    choose_schedule, commit_batch_planned, BatchOutcome, Footprint, PipelineOptions,
    ScheduleSource, WaveSchedule,
};
use scdb_core::validate::{record_validated_batch, PooledVerification};
use scdb_core::{
    determine_children, LedgerState, LedgerView, NestedTracker, Operation, Transaction,
    ValidationError,
};
use scdb_crypto::KeyPair;
use scdb_json::Value;
use scdb_store::{CheckpointHandle, DurableStore, WalError};
use scdb_telemetry::Stopwatch;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A self-cleaning directory backing the env-gated ephemeral durable
/// stores (`SCDB_DURABLE=1` without an explicit directory): the WAL
/// exists for the owner's lifetime — crash-consistency machinery is
/// exercised end to end — and is removed when the owner drops.
pub(crate) struct EphemeralDir(pub(crate) PathBuf);

impl EphemeralDir {
    /// A fresh `{prefix}-{pid}-{seq}` path under the system temp
    /// directory; the monotonic suffix keeps owners built in one
    /// process from colliding.
    pub(crate) fn new(prefix: &str) -> EphemeralDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        EphemeralDir(dir)
    }
}

impl Drop for EphemeralDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where a block's wave schedule comes from.
pub(crate) enum Plan<'a> {
    /// The mempool formed it at drain time, from admission's footprints.
    Formed(&'a WaveSchedule),
    /// Layered from the caller's own sound footprints — or, when the
    /// block carried the proposer's gossiped waves and they verify
    /// against those footprints, the gossiped partition.
    Footprints(Vec<Footprint>, Option<&'a str>),
}

/// What committing `tx` meant for nested-transaction settlement.
pub(crate) enum Settled {
    /// Not part of a nested transaction.
    Plain,
    /// An ACCEPT_BID: its determined children, now registered for
    /// eventual commit.
    Parent(Vec<Transaction>),
    /// A settlement child; `completed_parent` names the parent whose
    /// last outstanding child this was.
    Child { completed_parent: Option<String> },
}

/// A recovered commit order with each member's settlement, for the
/// embedding shell to rebuild its own stores from.
pub(crate) type Replay = Vec<(Arc<Transaction>, Result<Settled, ValidationError>)>;

/// One validator's replicated state.
pub(crate) struct Replica {
    pub(crate) ledger: LedgerState,
    pub(crate) tracker: NestedTracker,
}

impl Replica {
    /// A fresh replica with the escrow system account reserved. `dir`
    /// attaches a durable store on that (fresh) directory, so every
    /// commit runs the full WAL protocol — recovering an empty
    /// directory *is* opening it fresh.
    pub(crate) fn open(options: &PipelineOptions, escrow: &KeyPair, dir: Option<&Path>) -> Replica {
        if let Some(dir) = dir {
            return Replica::recover(options, escrow, dir)
                .expect("a fresh durable store opens")
                .0;
        }
        let mut ledger = LedgerState::with_utxo_shards(options.utxo_shards);
        ledger.add_reserved_account(escrow.public_hex());
        ledger.set_telemetry(&options.telemetry);
        Replica {
            ledger,
            tracker: NestedTracker::new(),
        }
    }

    /// Rebuilds a replica from the durable store at `dir`, fail-closed:
    /// newest valid checkpoint, sealed WAL tail replayed over it, torn
    /// tail discarded. Each committed document is parsed once and the
    /// same transactions feed the ledger replay (cross-checked against
    /// the recovered digest — a mismatch refuses to start) and the
    /// nested-settlement replay, which the returned [`Replay`] reports
    /// member by member.
    pub(crate) fn recover(
        options: &PipelineOptions,
        escrow: &KeyPair,
        dir: &Path,
    ) -> Result<(Replica, Replay), String> {
        let telemetry = &options.telemetry;
        let clock = telemetry.is_enabled().then(Stopwatch::new);
        let (mut store, recovered) = DurableStore::open(dir, options.utxo_shards)
            .map_err(|e| format!("durable store open failed: {e}"))?;
        if let Some(clock) = clock {
            telemetry.observe_ns("durable.recovery_ns", clock.elapsed_ns());
            telemetry.add("durable.recovery_tail_discards", recovered.tail_discards);
            telemetry.gauge_set("durable.recovered_height", recovered.height as i64);
        }
        store.set_telemetry(telemetry.clone());
        store.set_fsync(options.fsync);
        let committed = recovered
            .committed
            .iter()
            .map(|doc| Transaction::from_value(doc).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("recovery: unreadable committed transaction: {e}"))?;
        let mut ledger = LedgerState::restore(
            &committed,
            &recovered.digest,
            options.utxo_shards,
            [escrow.public_hex()],
        )?;
        ledger.attach_durable(Arc::new(store));
        ledger.set_telemetry(telemetry);
        let mut replica = Replica {
            ledger,
            tracker: NestedTracker::new(),
        };
        let replay = committed
            .into_iter()
            .map(|tx| {
                let settled = replica.settle(&tx, escrow);
                (tx, settled)
            })
            .collect();
        Ok((replica, replay))
    }

    /// Commits one block: the members this replica's verified set does
    /// not hold get their stateless checks as one pool (which decides
    /// nothing — a member it cannot vouch for takes the full check in
    /// the pipeline and is named there), then the wave-barrier pipeline
    /// validates, applies, write-ahead logs and seals under `plan`'s
    /// schedule. A formed schedule reports
    /// [`ScheduleSource::Rederived`]`(None)`.
    pub(crate) fn commit_block(
        &mut self,
        batch: &[Arc<Transaction>],
        plan: Plan<'_>,
        options: &PipelineOptions,
    ) -> (BatchOutcome, ScheduleSource, PooledVerification) {
        let pooled = record_validated_batch(batch, &self.ledger, options.workers);
        let chosen;
        let (schedule, source) = match plan {
            Plan::Formed(schedule) => (schedule, ScheduleSource::Rederived(None)),
            Plan::Footprints(footprints, wire) => {
                let (schedule, source) = choose_schedule(batch.len(), footprints, wire, options);
                chosen = schedule;
                (&chosen, source)
            }
        };
        let outcome = commit_batch_planned(&mut self.ledger, batch, schedule, options);
        (outcome, source, pooled)
    }

    /// Algorithm 3's commit phase for one committed transaction: an
    /// ACCEPT_BID has its children determined (against this replica's
    /// state, signed by the escrow account) and registered for eventual
    /// commit; a settlement child checks itself off its parent. A
    /// failed determination leaves the accept untracked and is the
    /// caller's to report.
    pub(crate) fn settle(
        &mut self,
        tx: &Transaction,
        escrow: &KeyPair,
    ) -> Result<Settled, ValidationError> {
        match tx.operation {
            Operation::AcceptBid => {
                let children = determine_children(&self.ledger, tx, escrow)?;
                self.tracker
                    .register(&tx.id, children.iter().map(|c| c.id.clone()));
                Ok(Settled::Parent(children))
            }
            Operation::Return | Operation::Transfer
                if tx.metadata.get("parent").and_then(Value::as_str).is_some() =>
            {
                Ok(Settled::Child {
                    completed_parent: self.tracker.child_committed(&tx.id),
                })
            }
            _ => Ok(Settled::Plain),
        }
    }

    /// The committed history as checkpoint documents, in commit order.
    fn checkpoint_documents(&self) -> Vec<Value> {
        self.ledger
            .committed_ids()
            .iter()
            .map(|id| {
                self.ledger
                    .get(id)
                    .expect("committed id resolves to a transaction")
                    .to_value()
            })
            .collect()
    }

    /// Snapshots the durable store at the current block boundary and
    /// truncates the write-ahead logs behind it. `Ok(false)` without
    /// durability.
    pub(crate) fn checkpoint(&self) -> Result<bool, WalError> {
        let Some(store) = self.ledger.durable_store() else {
            return Ok(false);
        };
        store.checkpoint(self.ledger.utxos(), &self.checkpoint_documents())?;
        Ok(true)
    }

    /// [`Replica::checkpoint`] with the file writes and WAL truncation
    /// on a background thread; the snapshot is still captured here, at
    /// the current block boundary. `Ok(None)` without durability.
    pub(crate) fn checkpoint_background(&self) -> Result<Option<CheckpointHandle>, WalError> {
        self.ledger
            .durable_store()
            .map(|store| store.checkpoint_async(self.ledger.utxos(), &self.checkpoint_documents()))
            .transpose()
    }

    /// Flushes group-buffered seal records to the manifest and fsyncs
    /// them. `Ok(false)` without durability.
    pub(crate) fn flush(&self) -> Result<bool, WalError> {
        let Some(store) = self.ledger.durable_store() else {
            return Ok(false);
        };
        store.flush_group()?;
        Ok(true)
    }

    /// The directory backing the durable store, when one is attached.
    pub(crate) fn durable_dir(&self) -> Option<PathBuf> {
        self.ledger.durable_store().map(|s| s.dir().to_path_buf())
    }
}
