//! The standing pool: footprint-indexed admission and draining.

use crate::index::SpendIndex;
use crate::pack::pack_batch;
use scdb_core::conditions::{row, Signers};
use scdb_core::pipeline::{footprint, Access, ConflictKey, Footprint, WaveSchedule};
use scdb_core::validate::{
    batch_verify_signed_by, requester_keys, stateless_screen, verify_input_signatures_over,
};
use scdb_core::{
    map_chunks, LedgerView, Operation, Telemetry, Transaction, ValidationError, VerifiedSigners,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Mempool tuning knobs.
#[derive(Debug, Clone)]
pub struct MempoolConfig {
    /// Pool capacity; admissions beyond it fail retryably.
    pub max_pending: usize,
    /// Per-sender cap — one account cannot monopolize the pool
    /// ("millions of users, one tx each" is the intended shape).
    pub max_per_sender: usize,
    /// Worker threads for the two stateless stages of batch admission
    /// ([`Mempool::admit_batch`]: the screen and the pooled signature
    /// batches) and the drain-time ACCEPT_BID signature pool. At `1`
    /// they run inline on the caller's thread. Results are
    /// byte-identical at any count — the worker count never shows
    /// through; see `DESIGN-mempool.md`. Defaults to
    /// `SCDB_ADMISSION_WORKERS` when set, else available parallelism.
    pub admission_workers: usize,
    /// Runtime telemetry: admission stage latency, push-back /
    /// rejection / expulsion counts, pool depth — recorded under
    /// `mempool.*`. The owning node overrides this with the pipeline's
    /// handle so every layer shares one registry; standalone pools
    /// follow `SCDB_TELEMETRY` (default off, in which case every
    /// record site is a single branch).
    pub telemetry: Telemetry,
}

impl Default for MempoolConfig {
    fn default() -> MempoolConfig {
        MempoolConfig {
            max_pending: 65_536,
            max_per_sender: 1_024,
            admission_workers: default_admission_workers(),
            telemetry: Telemetry::from_env(),
        }
    }
}

/// The `SCDB_ADMISSION_WORKERS` environment override, else every core
/// the host offers.
fn default_admission_workers() -> usize {
    std::env::var("SCDB_ADMISSION_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|w| w.max(1))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Why admission turned a transaction away. Admission is deliberately
/// *cheap and shallow* — it never consults marketplace state, so a
/// rejection here is either stateless-definitive (malformed, tampered,
/// bad signature, duplicate) or a retryable capacity push-back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitError {
    /// The payload did not parse as a transaction.
    Parse(String),
    /// Algorithm 1: the payload does not fit its type's template shape.
    Schema(String),
    /// The id is not the digest of the content (tampered in transit).
    IdMismatch { declared: String, computed: String },
    /// An input signature does not verify.
    InvalidSignature(String),
    /// The id is already pending in the pool.
    DuplicatePending(String),
    /// The id is already committed on the ledger.
    AlreadyCommitted(String),
    /// The sender hit its pending-transaction cap. Retryable.
    SenderCapExceeded { sender: String, cap: usize },
    /// The pool is full. Retryable.
    PoolFull { cap: usize },
}

impl AdmitError {
    /// True for capacity push-backs the client should retry after a
    /// drain; false for definitive rejections.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            AdmitError::SenderCapExceeded { .. } | AdmitError::PoolFull { .. }
        )
    }

    /// The variant's name, in the registry's spelling — what admission
    /// rejection counters (`mempool.rejected.<name>`) are keyed by.
    pub fn variant_name(&self) -> &'static str {
        match self {
            AdmitError::Parse(_) => "parse",
            AdmitError::Schema(_) => "schema",
            AdmitError::IdMismatch { .. } => "id_mismatch",
            AdmitError::InvalidSignature(_) => "invalid_signature",
            AdmitError::DuplicatePending(_) => "duplicate_pending",
            AdmitError::AlreadyCommitted(_) => "already_committed",
            AdmitError::SenderCapExceeded { .. } => "sender_cap_exceeded",
            AdmitError::PoolFull { .. } => "pool_full",
        }
    }
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmitError::Parse(e) => write!(f, "admission: payload does not parse: {e}"),
            AdmitError::Schema(e) => write!(f, "admission: schema: {e}"),
            AdmitError::IdMismatch { declared, computed } => {
                write!(
                    f,
                    "admission: id {declared} is not the content digest {computed}"
                )
            }
            AdmitError::InvalidSignature(e) => write!(f, "admission: signature: {e}"),
            AdmitError::DuplicatePending(id) => write!(f, "admission: {id} already pending"),
            AdmitError::AlreadyCommitted(id) => write!(f, "admission: {id} already committed"),
            AdmitError::SenderCapExceeded { sender, cap } => {
                write!(
                    f,
                    "admission: sender {sender} exceeds its cap of {cap} pending"
                )
            }
            AdmitError::PoolFull { cap } => write!(f, "admission: pool full ({cap})"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// A [`stateless_screen`] rejection as the admission error of the
/// cascade's schema and id steps.
pub(crate) fn screen_error(e: ValidationError) -> AdmitError {
    match e {
        ValidationError::Schema(violations) => AdmitError::Schema(
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; "),
        ),
        ValidationError::IdMismatch { declared, computed } => {
            AdmitError::IdMismatch { declared, computed }
        }
        other => unreachable!("the stateless screen names schema and id only: {other}"),
    }
}

/// An input-signature failure as the cascade's signature rejection.
pub(crate) fn signature_error(e: ValidationError) -> AdmitError {
    AdmitError::InvalidSignature(e.to_string())
}

/// What admission hands back for an accepted transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmitReceipt {
    /// Pool sequence number (arrival order; stable across requeues).
    pub seq: u64,
    /// True when the spender index spotted an obvious double spend —
    /// another *pending* transaction already consumes one of this
    /// transaction's spent outputs, or a spent output is already marked
    /// spent on the ledger. A flag is a prediction, never a verdict:
    /// the flagged transaction stays admitted and the validator decides
    /// (flag ≠ reject — the winner of the race may well be this one).
    pub flagged: bool,
}

/// One admitted-but-uncommitted transaction.
struct PendingTx {
    seq: u64,
    tx: Arc<Transaction>,
    footprint: Footprint,
    flagged: bool,
    sender: String,
    /// Ids this footprint could not resolve at admission (the spent
    /// transaction was neither pending nor committed). If such an id
    /// shows up later, the footprint is re-derived — the only case
    /// where "computed once at admission" must bend, because a missing
    /// link can under-approximate the footprint.
    unresolved: Vec<String>,
    /// True once the drain-time ACCEPT_BID check verified this member's
    /// fulfillment against its resolved requester, so later drains skip
    /// it. Never set for other operations (admission checked those).
    accept_sig_checked: bool,
}

/// A drained, ready-to-commit batch: the transactions in commit order
/// plus the precomputed wave schedule `commit_batch_planned` executes
/// directly — footprints were derived at admission and are never
/// re-derived downstream.
#[derive(Default)]
pub struct FormedBatch {
    /// Members in batch (= commit) order: wave-major, arrival order
    /// within a wave.
    pub txs: Vec<Arc<Transaction>>,
    /// The precomputed plan over `txs` (waves as index ranges).
    pub schedule: WaveSchedule,
    /// Per-member admission flag (suspected double spend at ingest).
    pub flagged: Vec<bool>,
    /// Original pool sequence numbers, aligned with `txs` — what
    /// [`Mempool::requeue`] uses to reinstate an abandoned proposal at
    /// its original arrival position.
    pub seqs: Vec<u64>,
    /// ACCEPT_BID members expelled at drain time because their
    /// fulfillment does not verify against the (pool- or
    /// ledger-resolved) requester's key set. A validity verdict — ids
    /// are content digests, so the resolved REQUEST (and with it the
    /// required signer set) can never change under the same id, and
    /// re-submission cannot succeed. Not part of `txs`; `requeue` of an
    /// abandoned proposal never reinstates them.
    pub expelled: Vec<ExpelledTx>,
}

impl FormedBatch {
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Number of waves in the precomputed schedule.
    pub fn waves(&self) -> usize {
        self.schedule.waves.len()
    }

    /// Size of the widest wave.
    pub fn widest_wave(&self) -> usize {
        self.schedule.waves.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Cumulative mempool counters (diagnostics and the bench's ingest
/// accounting).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MempoolStats {
    pub admitted: u64,
    pub rejected: u64,
    pub flagged: u64,
    pub drained: u64,
    pub requeued: u64,
}

/// An ACCEPT_BID the drain-time signature check expelled from the
/// pool (see [`FormedBatch::expelled`]).
#[derive(Debug, Clone)]
pub struct ExpelledTx {
    pub tx: Arc<Transaction>,
    /// The expelled member's pool seq (diagnostics).
    pub seq: u64,
}

/// A standing pool of admitted-but-uncommitted transactions, indexed
/// by read/write footprint.
///
/// The pool is the system's ingest path: clients hand payload batches
/// in (`Node::ingest_payload_batch`), admission runs the cheap
/// stateless checks and derives the conflict footprint once, and the
/// block former drains wide conflict-free wave schedules out.
pub struct Mempool {
    pub(crate) config: MempoolConfig,
    next_seq: u64,
    pending: BTreeMap<u64, PendingTx>,
    pub(crate) by_id: HashMap<String, u64>,
    /// Spender index: spent output → pending spenders.
    index: SpendIndex,
    per_sender: HashMap<String, usize>,
    /// Unresolved id → pending members awaiting it.
    waiting_on: HashMap<String, BTreeSet<u64>>,
    stats: MempoolStats,
}

impl Default for Mempool {
    fn default() -> Mempool {
        Mempool::new(MempoolConfig::default())
    }
}

impl Mempool {
    pub fn new(config: MempoolConfig) -> Mempool {
        Mempool {
            config,
            next_seq: 0,
            pending: BTreeMap::new(),
            by_id: HashMap::new(),
            index: SpendIndex::default(),
            per_sender: HashMap::new(),
            waiting_on: HashMap::new(),
            stats: MempoolStats::default(),
        }
    }

    pub fn config(&self) -> &MempoolConfig {
        &self.config
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// True when the id is pending.
    pub fn contains(&self, id: &str) -> bool {
        self.by_id.contains_key(id)
    }

    /// Pending transactions currently flagged as suspected double
    /// spends.
    pub fn flagged_pending(&self) -> usize {
        self.pending.values().filter(|p| p.flagged).count()
    }

    pub fn stats(&self) -> &MempoolStats {
        &self.stats
    }

    /// Parses and admits a serialized payload (the RPC surface). The
    /// parsed transaction is kept — downstream stages share the `Arc`
    /// and never re-parse.
    pub fn admit_payload(
        &mut self,
        payload: &str,
        ledger: &impl LedgerView,
    ) -> Result<AdmitReceipt, AdmitError> {
        let tx = Transaction::from_payload(payload)
            .map_err(|e| self.count_reject(AdmitError::Parse(e.to_string())))?;
        self.admit(Arc::new(tx), ledger)
    }

    /// Admission: cheap stateless checks, then footprint derivation
    /// and double-spend flagging against the spender index.
    ///
    /// `ledger` is read only for (a) the committed-duplicate check,
    /// (b) footprint link resolution and (c) spent-output flagging —
    /// never for full semantic validation; that stays the pipeline's
    /// job at commit time, against the then-current state.
    ///
    /// The pool drains in arrival order: a conflicting pair's pack
    /// order follows the arrival seq.
    pub fn admit(
        &mut self,
        tx: Arc<Transaction>,
        ledger: &impl LedgerView,
    ) -> Result<AdmitReceipt, AdmitError> {
        // Template shape (Algorithm 1), the id tamper check and the
        // signing payload, from one walk, then the input signatures.
        // ACCEPT_BID's signers are the requester's — stateful
        // knowledge; the drain-time check verifies it.
        self.decide(tx, ledger, |tx| {
            match stateless_screen(tx, signed_by_input_owners(tx)).map_err(screen_error)? {
                Some(payload) => {
                    verify_input_signatures_over(tx, &payload).map_err(signature_error)
                }
                None => Ok(()),
            }
        })
    }

    /// The admission cascade, the one step [`Mempool::admit`] and every
    /// member of [`Mempool::admit_batch`] are decided by: duplicate,
    /// committed and pool-full checks against the live pool, then
    /// `checks` (the schema, id and signature steps — run inline by
    /// `admit`, read off stages 1–2 by `admit_batch`), then the sender
    /// cap; an admitted member takes the next seq and is placed.
    /// `checks` runs only once the live checks pass, so a duplicate or
    /// a push-back never pays for a signature here.
    pub(crate) fn decide(
        &mut self,
        tx: Arc<Transaction>,
        ledger: &impl LedgerView,
        checks: impl FnOnce(&Transaction) -> Result<(), AdmitError>,
    ) -> Result<AdmitReceipt, AdmitError> {
        let sender = self
            .gate(&tx, ledger, checks)
            .map_err(|e| self.count_reject(e))?;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.record_admitted(&tx, ledger);
        let flagged = self.place(seq, tx, sender, false, ledger);
        self.stats.admitted += 1;
        self.config.telemetry.incr("mempool.admitted");
        if flagged {
            self.stats.flagged += 1;
        }
        Ok(AdmitReceipt { seq, flagged })
    }

    /// [`Mempool::decide`]'s checks in cascade order; the admitted
    /// member's sender key.
    fn gate(
        &self,
        tx: &Transaction,
        ledger: &impl LedgerView,
        checks: impl FnOnce(&Transaction) -> Result<(), AdmitError>,
    ) -> Result<String, AdmitError> {
        if self.by_id.contains_key(&tx.id) {
            return Err(AdmitError::DuplicatePending(tx.id.clone()));
        }
        if ledger.is_committed(&tx.id) {
            return Err(AdmitError::AlreadyCommitted(tx.id.clone()));
        }
        if self.pending.len() >= self.config.max_pending {
            return Err(AdmitError::PoolFull {
                cap: self.config.max_pending,
            });
        }
        checks(tx)?;
        let sender = sender_key(tx);
        if self.per_sender.get(&sender).copied().unwrap_or(0) >= self.config.max_per_sender {
            return Err(AdmitError::SenderCapExceeded {
                sender,
                cap: self.config.max_per_sender,
            });
        }
        Ok(sender)
    }

    /// Drains up to `max_n` pending transactions as a formed batch:
    /// wave-packed over the pending footprints, in arrival order within
    /// each wave, with the precomputed schedule attached. Members leave
    /// the pool; whatever the commit rejects is gone (exactly as a block
    /// would decide them), and [`Mempool::requeue`] reinstates batches
    /// whose proposal was abandoned before any decision.
    pub fn drain_batch(&mut self, max_n: usize, ledger: &impl LedgerView) -> FormedBatch {
        self.refresh_unresolved(ledger);
        let expelled = self.reject_unsigned_accepts(ledger);

        let seqs: Vec<u64> = self.pending.keys().copied().collect();
        // Pack over borrowed footprints: no per-drain clone of the
        // whole pool's key sets (the coloring itself is O(pool), which
        // is the price of a globally optimal wave-prefix selection).
        let packed = {
            let footprints: Vec<&Footprint> =
                seqs.iter().map(|s| &self.pending[s].footprint).collect();
            pack_batch(&footprints, max_n)
        };

        let mut batch = FormedBatch::default();
        for &position in &packed.order {
            let entry = self
                .remove_pending(seqs[position])
                .expect("packed position is pending");
            batch.txs.push(entry.tx);
            batch.schedule.footprints.push(entry.footprint);
            batch.flagged.push(entry.flagged);
            batch.seqs.push(entry.seq);
        }
        batch.schedule.waves = packed.waves();
        batch.expelled = expelled;
        self.stats.drained += batch.txs.len() as u64;
        let telemetry = &self.config.telemetry;
        if telemetry.is_enabled() {
            telemetry.add("mempool.drained", batch.txs.len() as u64);
            telemetry.add("mempool.expelled", batch.expelled.len() as u64);
            telemetry.gauge_set("mempool.pending", self.pending.len() as i64);
        }
        batch
    }

    /// Tells the committing ledger's verified set that admission's
    /// stateless checks — schema, id digest, input signatures — passed
    /// for `tx`, so commit-time validation does not repeat them — nor
    /// the id recompute, when it validates this same `Arc`.
    /// Nothing is recorded for ACCEPT_BID, whose signatures only the
    /// drain-time check verifies.
    fn record_admitted(&self, tx: &Arc<Transaction>, ledger: &impl LedgerView) {
        if signed_by_input_owners(tx) {
            ledger.record_verified(tx, VerifiedSigners::InputOwners);
        }
    }

    /// The drain-time half of the ACCEPT_BID signature check. Admission
    /// exempts ACCEPT_BID from signature verification because its
    /// required signer set is the *requester's*, not the input owners'
    /// — stateful knowledge the stateless front door does not have. By
    /// drain time the referenced REQUEST is usually resolvable (pending
    /// in this very pool, or already committed), so the check runs here
    /// and failures are expelled before they waste a block slot.
    /// Accepts whose REQUEST is still unresolvable stay in the batch:
    /// semantic validation at commit remains the backstop, exactly as
    /// before this check existed.
    ///
    /// Every not-yet-checked accept joins one pooled signature batch,
    /// fanned over the admission workers. A member that passes is
    /// checked once: it is marked so later drains skip it, and recorded
    /// in the ledger's verified set against the requester it resolved
    /// to, so commit skips it too.
    fn reject_unsigned_accepts(&mut self, ledger: &impl LedgerView) -> Vec<ExpelledTx> {
        let mut unchecked: Vec<(u64, Vec<String>)> = Vec::new();
        for entry in self.pending.values() {
            if signed_by_input_owners(&entry.tx) || entry.accept_sig_checked {
                continue;
            }
            // Malformed shapes (no reference, non-REQUEST reference)
            // are left for semantic validation — this check only
            // closes the signature gap.
            let Some(request_id) = entry.tx.references.first() else {
                continue;
            };
            let request = match self.by_id.get(request_id) {
                Some(seq) => &*self.pending[seq].tx,
                None => match ledger.get(request_id) {
                    Some(request) => request,
                    None => continue,
                },
            };
            if request.operation == Operation::Request {
                unchecked.push((entry.seq, requester_keys(request)));
            }
        }
        if unchecked.is_empty() {
            return Vec::new();
        }
        let verdicts = {
            let items: Vec<(&Transaction, &[String])> = unchecked
                .iter()
                .map(|(seq, requester)| (&*self.pending[seq].tx, requester.as_slice()))
                .collect();
            map_chunks(
                &items,
                self.config.admission_workers,
                batch_verify_signed_by,
            )
        };
        self.config
            .telemetry
            .add("mempool.accept_sig_checks", unchecked.len() as u64);

        let mut expelled = Vec::new();
        for ((seq, requester), verdict) in unchecked.into_iter().zip(verdicts.into_iter().flatten())
        {
            if verdict.is_ok() {
                let entry = self.pending.get_mut(&seq).expect("checked seq is pending");
                entry.accept_sig_checked = true;
                ledger.record_verified(&entry.tx, VerifiedSigners::Explicit(requester));
                continue;
            }
            let entry = self.remove_pending(seq).expect("failed seq is pending");
            self.stats.rejected += 1;
            expelled.push(ExpelledTx { tx: entry.tx, seq });
        }
        expelled
    }

    /// Reinstates a formed batch the proposer abandoned (its block
    /// never quorated and was not re-proposed): every member returns to
    /// the pool at its original arrival position, so the next drain
    /// decides races exactly as if the abandoned proposal had never
    /// been formed. Members that committed or re-entered meanwhile are
    /// skipped.
    pub fn requeue(&mut self, batch: FormedBatch, ledger: &impl LedgerView) -> usize {
        let mut restored = 0;
        for (tx, seq) in batch.txs.into_iter().zip(batch.seqs) {
            if self.by_id.contains_key(&tx.id) || ledger.is_committed(&tx.id) {
                continue;
            }
            // Re-derive footprint, flag and unresolved set from scratch
            // against the *current* pool + ledger: the world may have
            // moved during the drain-to-requeue window (a link that was
            // unresolved at admission may have committed meanwhile, and
            // reusing the admission-time footprint would silently drop
            // that refresh signal and under-approximate conflicts).
            let sender = sender_key(&tx);
            self.place(seq, tx, sender, false, ledger);
            restored += 1;
            self.stats.requeued += 1;
        }
        restored
    }

    /// Places one member into the pool at `seq`, the step admission,
    /// [`Mempool::requeue`] and footprint refresh share: derives its
    /// footprint and unresolved links against pool + ledger, reads the
    /// double-spend flag off the index *before* inserting (a member
    /// never races itself), inserts, and re-derives the footprints of
    /// members waiting on its id. Returns the flag.
    fn place(
        &mut self,
        seq: u64,
        tx: Arc<Transaction>,
        sender: String,
        accept_sig_checked: bool,
        ledger: &impl LedgerView,
    ) -> bool {
        let pending = |id: &str| self.by_id.get(id).map(|seq| &*self.pending[seq].tx);
        let (footprint, unresolved) = footprint(&tx, |id| pending(id).or_else(|| ledger.get(id)));
        let flagged = self.suspected_double_spend(&footprint, ledger);

        self.index.insert(seq, &footprint);
        self.by_id.insert(tx.id.clone(), seq);
        for id in &unresolved {
            self.waiting_on.entry(id.clone()).or_default().insert(seq);
        }
        *self.per_sender.entry(sender.clone()).or_default() += 1;
        self.pending.insert(
            seq,
            PendingTx {
                seq,
                tx,
                footprint,
                flagged,
                sender,
                unresolved,
                accept_sig_checked,
            },
        );
        self.on_arrival(seq, ledger);
        flagged
    }

    /// The double-spend flag, read off the spender index and the
    /// committed UTXO set: some spent output either has a pending
    /// spender already, or is already marked spent on the ledger.
    fn suspected_double_spend(&self, fp: &Footprint, ledger: &impl LedgerView) -> bool {
        fp.accesses().iter().any(|(key, access)| {
            let (ConflictKey::Output(tx_id, index), Access::Write) = (key, access) else {
                return false;
            };
            if self.index.has_pending_spender(key) {
                return true;
            }
            let out = scdb_store::OutputRef::new(tx_id.clone(), *index);
            ledger.utxo(&out).is_some_and(|u| u.spent_by.is_some())
        })
    }

    /// The one site every admission rejection passes — `decide` (for
    /// `admit` and each member of `admit_batch`) and the parse step of
    /// `admit_payload` and `admit_payload_batch` — so the counts are by
    /// construction the same on every path.
    pub(crate) fn count_reject(&mut self, e: AdmitError) -> AdmitError {
        self.stats.rejected += 1;
        let telemetry = &self.config.telemetry;
        telemetry.incr("mempool.rejected");
        if telemetry.is_enabled() {
            telemetry.incr(&format!("mempool.rejected.{}", e.variant_name()));
        }
        if e.is_retryable() {
            // Capacity push-backs (pool full, sender cap): load the
            // client is expected to re-submit after a drain.
            telemetry.incr("mempool.pushbacks");
        }
        e
    }

    fn remove_pending(&mut self, seq: u64) -> Option<PendingTx> {
        let entry = self.pending.remove(&seq)?;
        self.by_id.remove(&entry.tx.id);
        self.index.remove(seq, &entry.footprint);
        for id in &entry.unresolved {
            if let Some(set) = self.waiting_on.get_mut(id) {
                set.remove(&seq);
                if set.is_empty() {
                    self.waiting_on.remove(id);
                }
            }
        }
        let count = self.per_sender.entry(entry.sender.clone()).or_default();
        *count = count.saturating_sub(1);
        if *count == 0 {
            self.per_sender.remove(&entry.sender);
        }
        Some(entry)
    }

    /// A newly arrived id may be the missing link of earlier members'
    /// footprints — re-derive theirs so no conflict stays invisible.
    /// (A refreshed member's own id has no waiters: a waiter registers
    /// only while the id it waits on is absent, and every placement
    /// clears them.)
    fn on_arrival(&mut self, seq: u64, ledger: &impl LedgerView) {
        let id = self.pending[&seq].tx.id.clone();
        let Some(waiters) = self.waiting_on.remove(&id) else {
            return;
        };
        for waiter in waiters {
            self.refresh_footprint(waiter, ledger);
        }
    }

    /// Re-derives the footprints of members whose unresolved links may
    /// have committed since admission (checked against `ledger`).
    fn refresh_unresolved(&mut self, ledger: &impl LedgerView) {
        let stale: Vec<u64> = self
            .pending
            .values()
            .filter(|p| p.unresolved.iter().any(|id| ledger.is_committed(id)))
            .map(|p| p.seq)
            .collect();
        for seq in stale {
            self.refresh_footprint(seq, ledger);
        }
    }

    /// Removes and re-places one member with a freshly derived
    /// footprint (pool + ledger resolution as of now). The double-spend
    /// flag is re-read too — a refreshed footprint may reveal (or
    /// dissolve) a conflict the admission-time flag could not see.
    fn refresh_footprint(&mut self, seq: u64, ledger: &impl LedgerView) {
        if let Some(entry) = self.remove_pending(seq) {
            self.place(
                seq,
                entry.tx,
                entry.sender,
                entry.accept_sig_checked,
                ledger,
            );
        }
    }
}

/// Whether the stateless front door can check `tx`'s signatures: its
/// row says the inputs' own owners sign. A requester-signed type
/// (ACCEPT_BID) needs the REQUEST, so its check waits for drain.
pub(crate) fn signed_by_input_owners(tx: &Transaction) -> bool {
    row(tx.operation).signers == Signers::InputOwners
}

/// The admission-side sender identity: the union of input owner keys
/// (every transaction type self-identifies its controllers there; for
/// CREATE/REQUEST these are the minting signers).
fn sender_key(tx: &Transaction) -> String {
    let mut owners: Vec<&str> = tx
        .inputs
        .iter()
        .flat_map(|i| i.owners_before.iter().map(String::as_str))
        .collect();
    owners.sort_unstable();
    owners.dedup();
    if owners.is_empty() {
        "<anonymous>".to_owned()
    } else {
        owners.join(",")
    }
}
