//! The replica core: one validator's committed state and the life cycle
//! around it. [`crate::Node`] embeds one and a
//! [`crate::SmartchainCluster`] one per member, so "single node" and
//! "replica of four" differ only in who orders the blocks.
//!
//! This is the only place in the crate that opens or recovers a ledger
//! over a durable store, commits a block (pooled stateless verification
//! → schedule → pipeline), settles it (the nested-transaction stage:
//! children derived in parallel, registered in commit order — at commit
//! time and on replay alike), or flushes the store. The shells add
//! their own stores and caches on top and never repeat these steps.

use scdb_core::conditions::row;
use scdb_core::pipeline::{
    choose_schedule, commit_batch_planned, BatchOutcome, Footprint, PipelineOptions,
    ScheduleSource, WaveSchedule,
};
use scdb_core::validate::{record_validated_batch, PooledVerification};
use scdb_core::{
    determine_outstanding_children, map_chunks, parallel_map, settlement_parent, Child,
    LedgerState, LedgerView, NestedTracker, Transaction, ValidationError,
};
use scdb_crypto::KeyPair;
use scdb_store::{DurableStore, WalError};
use scdb_telemetry::Stopwatch;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A self-cleaning directory backing the env-gated ephemeral durable
/// stores (`SCDB_DURABLE=1` without an explicit directory): the log
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
    /// An ACCEPT_BID, now registered for eventual commit.
    Parent {
        /// Every child's id, in `accept.inputs` order.
        child_ids: Vec<String>,
        /// The children still to commit, for the shell to submit: all
        /// of them at commit time, on replay only those a crash left
        /// unsettled.
        outstanding: Vec<Transaction>,
    },
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
    /// commit seals its block — recovering an empty directory *is*
    /// opening it fresh.
    pub(crate) fn open(options: &PipelineOptions, escrow: &KeyPair, dir: Option<&Path>) -> Replica {
        if let Some(dir) = dir {
            #[allow(
                clippy::expect_used,
                reason = "`dir` is a fresh path under the system temp directory, named by \
                          `EphemeralDir` for this owner alone, so there is no chain to \
                          mismatch; an empty store fails to open there only when the temp \
                          directory cannot be written, which the infallible constructors \
                          that reach here have no way to report"
            )]
            return Replica::recover(options, escrow, dir)
                .expect("a fresh durable store opens")
                .0;
        }
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        ledger.set_telemetry(&options.telemetry);
        Replica {
            ledger,
            tracker: NestedTracker::new(),
        }
    }

    /// Rebuilds a replica from the durable store at `dir`, fail-closed:
    /// the sealed chain is read (a torn tail discarded), each committed
    /// document is parsed once, and the same transactions feed the
    /// ledger's re-execution from genesis (the replayed digest checked
    /// against every seal — a mismatch refuses to start, naming the
    /// height) and the nested-settlement replay, which the returned
    /// [`Replay`] reports member by member.
    pub(crate) fn recover(
        options: &PipelineOptions,
        escrow: &KeyPair,
        dir: &Path,
    ) -> Result<(Replica, Replay), String> {
        let telemetry = &options.telemetry;
        let clock = telemetry.is_enabled().then(Stopwatch::new);
        let (mut store, recovered) =
            DurableStore::open(dir).map_err(|e| format!("durable store open failed: {e}"))?;
        if let Some(clock) = clock {
            telemetry.observe_ns("durable.recovery_ns", clock.elapsed_ns());
            telemetry.add("durable.recovery_tail_discards", recovered.tail_discards);
            telemetry.gauge_set("durable.recovered_height", recovered.height as i64);
        }
        store.set_telemetry(telemetry.clone());
        store.set_fsync(options.fsync);
        // The pure per-member work of replay fans out over the workers:
        // parsing here, child derivation inside `settle_block`.
        let committed: Vec<Arc<Transaction>> =
            map_chunks(&recovered.committed, options.workers, |docs| {
                docs.iter()
                    .map(|doc| Transaction::from_value(doc).map(Arc::new))
                    .collect::<Result<Vec<_>, _>>()
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("recovery: unreadable committed transaction: {e}"))?
            .into_iter()
            .flatten()
            .collect();
        let mut ledger = LedgerState::restore(&committed, &recovered.seals, [escrow.public_hex()])?;
        ledger.attach_durable(Arc::new(store));
        ledger.set_telemetry(telemetry);
        let mut replica = Replica {
            ledger,
            tracker: NestedTracker::new(),
        };
        // The whole history settles as one block against the restored
        // state: a child that committed before the crash is read off
        // the UTXO set, so only a parent the crash caught between its
        // commit and its settlement derives (and signs) anything.
        let members: Vec<&Transaction> = committed.iter().map(Arc::as_ref).collect();
        let settled = replica.settle_block(&members, escrow, options);
        Ok((replica, committed.into_iter().zip(settled).collect()))
    }

    /// Commits one block: the members this replica's verified set does
    /// not hold get their stateless checks as one pool (which decides
    /// nothing — a member it cannot vouch for takes the full check in
    /// the pipeline and is named there), then the wave-barrier pipeline
    /// validates, applies and seals under `plan`'s schedule. A formed
    /// schedule reports [`ScheduleSource::Rederived`]`(None)`.
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
                let (schedule, source) = choose_schedule(batch.len(), footprints, wire);
                chosen = schedule;
                (&chosen, source)
            }
        };
        let outcome = commit_batch_planned(&mut self.ledger, batch, schedule, options);
        (outcome, source, pooled)
    }

    /// Algorithm 3's commit phase for the committed members of one
    /// block, in commit order — the settlement stage, shaped like every
    /// other: a pure parallel derive, then a serial record.
    ///
    /// *Derive*: the children of every ACCEPT_BID among `members` are
    /// determined against this replica's state — already past the whole
    /// block, and untouched until this returns — on `options.workers`
    /// threads (inline for a block with at most one accept). A child
    /// already on the ledger is read from it, not re-derived
    /// ([`determine_outstanding_children`]): none is at commit time, all
    /// but a crash's leftovers are on replay.
    ///
    /// *Record*: in commit order an accept registers its children for
    /// eventual commit and a settlement child checks itself off its
    /// parent — what settling member by member as each commits would
    /// do, since no derivation reads what a registration writes. A
    /// failed determination leaves the accept untracked and is the
    /// caller's to report. One result per member.
    pub(crate) fn settle_block(
        &mut self,
        members: &[&Transaction],
        escrow: &KeyPair,
        options: &PipelineOptions,
    ) -> Vec<Result<Settled, ValidationError>> {
        let telemetry = &options.telemetry;
        // Each accept's position among `members`; its derivation goes
        // back to that slot, so the record below reads one per member.
        let accepts: Vec<usize> = (0..members.len())
            .filter(|&m| row(members[m].operation).nested)
            .collect();
        let mut derived: Vec<Option<Result<Vec<Child>, ValidationError>>> =
            members.iter().map(|_| None).collect();
        if !accepts.is_empty() {
            let _span = telemetry.span("nested.derive_ns");
            let ledger = &self.ledger;
            let children = parallel_map(accepts.len(), options.workers, |a| {
                determine_outstanding_children(ledger, members[accepts[a]], escrow)
            });
            for (&m, children) in accepts.iter().zip(children) {
                derived[m] = Some(children);
            }
        }
        members
            .iter()
            .zip(derived)
            .map(|(tx, derived)| match derived {
                Some(children) => {
                    let children = children?;
                    // Commit time (the node's post-commit, the
                    // cluster's commit hook) and replay each settle an
                    // accept once; both firing would re-list children
                    // already checked off.
                    assert!(
                        self.tracker.status(&tx.id).is_none(),
                        "ACCEPT_BID {} settled twice",
                        tx.id
                    );
                    let child_ids: Vec<String> =
                        children.iter().map(|c| c.id().to_owned()).collect();
                    self.tracker.register(&tx.id, child_ids.iter().cloned());
                    let outstanding: Vec<Transaction> = children
                        .into_iter()
                        .filter_map(|child| match child {
                            Child::Outstanding(child) => Some(child),
                            Child::Settled(_) => None,
                        })
                        .collect();
                    telemetry.add("nested.children_derived", outstanding.len() as u64);
                    telemetry.add(
                        "nested.children_recovered",
                        (child_ids.len() - outstanding.len()) as u64,
                    );
                    Ok(Settled::Parent {
                        child_ids,
                        outstanding,
                    })
                }
                None if settlement_parent(tx).is_some() => Ok(Settled::Child {
                    completed_parent: self.tracker.child_committed(&tx.id),
                }),
                None => Ok(Settled::Plain),
            })
            .collect()
    }

    /// The still-unsettled children of a registered parent, re-derived
    /// for a shell whose queue lost them (§4.2.1 case 2). Empty for an
    /// unknown, complete or undeterminable parent.
    pub(crate) fn outstanding_children(
        &self,
        parent_id: &str,
        escrow: &KeyPair,
    ) -> Vec<Transaction> {
        let outstanding = self.tracker.outstanding_children(parent_id);
        let Some(parent) = self.ledger.get(parent_id) else {
            return Vec::new();
        };
        determine_outstanding_children(&self.ledger, parent, escrow)
            .unwrap_or_default()
            .into_iter()
            .filter_map(|child| match child {
                Child::Outstanding(child) if outstanding.contains(&child.id) => Some(child),
                _ => None,
            })
            .collect()
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
