//! Conflict-aware batch-parallel validation and commit.
//!
//! The paper's declarative transaction types expose their read/write
//! footprints statically: inputs name the `OutputRef`s they spend, and
//! the marketplace semantics hang off the typed reference vector (a BID
//! appends to its REQUEST's bid set, an ACCEPT_BID reads that set and
//! claims the request). Opaque smart-contract calls have no such
//! footprint — which is why BigchainDB-style systems validate one
//! transaction at a time. Here we cash the declarative model in for
//! throughput, following the transaction-parallelism line of work
//! (Bartoletti et al.; Dickerson et al., see PAPERS.md):
//!
//! 1. **Footprints** — [`footprint`] derives, per transaction and
//!    without touching signatures, each [`ConflictKey`] it touches, once,
//!    with an [`Access`]: `Read`, `Commute` or `Write`. The reads are the
//!    keys of the ledger lookups its row's conditions declare — the same
//!    list validation fetches — so a condition cannot consult state the
//!    schedule does not order.
//! 2. **Waves** — [`schedule_waves`] layers the batch: a transaction
//!    lands one wave after the last earlier transaction it conflicts
//!    with. [`Access::conflicts`] is the one rule: two accesses to a key
//!    conflict unless both read or both commute (BIDs appending to one
//!    REQUEST's bid set, spends unlocking bids in it). One frontier walk
//!    layers a batch and verifies a gossiped schedule
//!    ([`verify_schedule`]). Non-conflicting transactions share a wave.
//! 3. **Parallel validation, serial apply** — [`commit_batch`]
//!    validates each wave's members concurrently on `std::thread::scope`
//!    workers against the immutable [`LedgerView`] snapshot left by the
//!    previous waves, then applies the survivors one by one through
//!    [`LedgerState::apply_shared`], the routine recovery and settlement
//!    apply through too. Validation is nearly all of a commit's work;
//!    apply is a few per cent of it.
//! 4. **Determinism** — transactions are applied in wave order, and
//!    the batch's recorded commit order is submission order overall, so
//!    every replica that feeds the same block through the pipeline
//!    reaches the byte-identical state the sequential path produces
//!    (see DESIGN-pipeline.md for the argument).
//!
//! This wave-barrier loop is the only commit executor; the sequential
//! `validate_transaction` + `LedgerState::apply` replay is the oracle
//! the differential tests pin it against.

use crate::conditions::{row, MarketKey, WriteKind};
use crate::errors::ValidationError;
use crate::ledger::LedgerState;
use crate::model::Transaction;
use crate::par::parallel_map;
use crate::validate::validate_transaction;
use crate::view::{LedgerView, Lookup};
use scdb_json::Value;
use scdb_store::FsyncLevel;
use scdb_telemetry::{env_flag, CommitTrace, Stopwatch, Telemetry};
use std::borrow::Borrow;
use std::collections::{BTreeSet, HashMap};
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

/// One point in a transaction's read/write footprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConflictKey {
    /// A spendable output `(tx id, index)` — the UTXO the transaction
    /// consumes (or, for ACCEPT_BID, folds into its settlement plan).
    Output(String, u32),
    /// Existence of a transaction id. Written by the transaction that
    /// carries the id, read by anything referencing or spending it.
    Id(String),
    /// The locked-bid set of a REQUEST: a BID appends to it and any
    /// spend of a bid's escrow output unlocks a member (commuting
    /// changes), and ACCEPT_BID walks the whole set (Algorithm 3).
    Bids(String),
    /// The accepted-bid slot of a REQUEST: written by ACCEPT_BID, read
    /// by RETURNs (which are only valid once an acceptance committed).
    Accept(String),
}

/// How a transaction touches one [`ConflictKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// Reads the key.
    Read,
    /// Changes the key in a way that swaps with any other `Commute` of
    /// it: a BID's append to a bid set and a spend's unlock of a member
    /// ([`WriteKind::Append`], [`WriteKind::Unlock`]).
    Commute,
    /// Any other change, and a key touched two different ways.
    Write,
}

impl Access {
    /// Every access, in frontier-slot order.
    const ALL: [Access; 3] = [Access::Read, Access::Commute, Access::Write];

    /// The conflict rule, and the only place it is written: two accesses
    /// to one key conflict unless both read or both commute.
    pub fn conflicts(self, other: Access) -> bool {
        !matches!(
            (self, other),
            (Access::Read, Access::Read) | (Access::Commute, Access::Commute)
        )
    }

    /// The one access that conflicts with exactly what either of two
    /// does: the access itself when they agree, `Write` otherwise.
    fn join(self, other: Access) -> Access {
        if self == other {
            self
        } else {
            Access::Write
        }
    }
}

/// A transaction's statically derived footprint: every key it touches,
/// once, with how.
#[derive(Debug, Default, Clone)]
pub struct Footprint {
    /// Each key once, in first-touch order: [`Footprint::touch`] joins a
    /// second access to a key.
    accesses: Vec<(ConflictKey, Access)>,
}

impl Footprint {
    /// Every key touched, once, with how, in first-touch order.
    pub fn accesses(&self) -> &[(ConflictKey, Access)] {
        &self.accesses
    }

    /// Records one access to `key`, joined with any earlier one.
    pub fn touch(&mut self, key: ConflictKey, access: Access) {
        match self.accesses.iter_mut().find(|(k, _)| *k == key) {
            Some((_, held)) => *held = held.join(access),
            None => self.accesses.push((key, access)),
        }
    }

    /// How this footprint touches `key`, if at all.
    pub fn access(&self, key: &ConflictKey) -> Option<Access> {
        (self.accesses.iter())
            .find(|(k, _)| k == key)
            .map(|&(_, access)| access)
    }
}

/// True when two footprints conflict: some key both touch with
/// conflicting accesses. The pairwise reference the frontier walk is
/// tested against.
pub fn footprints_conflict(a: &Footprint, b: &Footprint) -> bool {
    (a.accesses.iter()).any(|(key, x)| b.access(key).is_some_and(|y| x.conflicts(y)))
}

/// Derives the footprint of one transaction, and the ids it could not
/// resolve.
///
/// It writes its own id and the outputs it spends (ACCEPT_BID's too:
/// its children consume them), changes the marketplace keys its row
/// declares (`TxType::market_writes`: a `Set` writes, an `Append` or an
/// `Unlock` commutes), and reads the keys of the lookups its row's
/// conditions declare (the list validation fetches). A key touched two
/// ways is a `Write`: ACCEPT_BID's bid set is read whole and unlocked
/// per spent bid. `resolve` follows links: batch members first, then
/// committed state. An id it cannot find may hide a `Bids` unlock;
/// re-derive once it shows.
pub fn footprint<'a>(
    tx: &'a Transaction,
    resolve: impl Fn(&str) -> Option<&'a Transaction>,
) -> (Footprint, Vec<String>) {
    let mut unresolved = Vec::new();
    let mut follow = |id: &str| {
        let found = resolve(id);
        if found.is_none() {
            unresolved.push(id.to_owned());
        }
        found
    };
    let row = row(tx.operation);
    let mut fp = Footprint::default();
    fp.touch(ConflictKey::Id(tx.id.clone()), Access::Write);
    for f in tx.inputs.iter().filter_map(|i| i.fulfills.as_ref()) {
        let spent = ConflictKey::Output(f.tx_id.clone(), f.output_index);
        fp.touch(spent, Access::Write);
    }
    for write in row.market_writes(tx, &mut follow) {
        let key = match write.key {
            MarketKey::Bids => ConflictKey::Bids(write.request.to_owned()),
            MarketKey::Accept => ConflictKey::Accept(write.request.to_owned()),
        };
        let access = match write.kind {
            WriteKind::Set => Access::Write,
            WriteKind::Append | WriteKind::Unlock => Access::Commute,
        };
        fp.touch(key, access);
    }
    let request = row.request_of(tx, &mut follow);
    // A UTXO entry changes when its transaction commits (`Id`) and when
    // it is spent (`Output`); the locked bids with their outputs' entries
    // change only under a `Bids` change.
    for lookup in row.lookups(tx, request) {
        match lookup {
            Lookup::Tx(id) => fp.touch(ConflictKey::Id(id.to_owned()), Access::Read),
            Lookup::Utxo(id, index) => {
                fp.touch(ConflictKey::Id(id.to_owned()), Access::Read);
                fp.touch(ConflictKey::Output(id.to_owned(), index), Access::Read);
            }
            Lookup::LockedBids(request) => {
                fp.touch(ConflictKey::Bids(request.to_owned()), Access::Read)
            }
            Lookup::Accept(request) => {
                fp.touch(ConflictKey::Accept(request.to_owned()), Access::Read)
            }
        }
    }
    unresolved.sort_unstable();
    unresolved.dedup();
    (fp, unresolved)
}

/// A member's place in a schedule: its wave, then its block position.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Seen {
    wave: usize,
    position: usize,
}

/// The frontier walk behind both [`schedule_waves`] and
/// [`verify_schedule`]. Visits the members in block order and keeps, per
/// key and access, the latest `(wave, position)` that touched it.
/// `place(position, bound)` is handed the earlier member with the
/// highest wave (then position) among those that conflict with this one
/// (`None` if there is none) and returns the wave the member takes, or
/// stops the walk. O(total footprint size).
fn walk<F: Borrow<Footprint>, E>(
    footprints: &[F],
    mut place: impl FnMut(usize, Option<Seen>) -> Result<usize, E>,
) -> Result<(), E> {
    let mut frontier: HashMap<&ConflictKey, [Option<Seen>; 3]> = HashMap::new();
    for (position, fp) in footprints.iter().enumerate() {
        let fp = fp.borrow();
        let mut bound = None;
        for (key, access) in &fp.accesses {
            if let Some(latest) = frontier.get(key) {
                for (seen, other) in latest.iter().zip(Access::ALL) {
                    if access.conflicts(other) {
                        bound = bound.max(*seen);
                    }
                }
            }
        }
        let this = Some(Seen {
            wave: place(position, bound)?,
            position,
        });
        for (key, access) in &fp.accesses {
            let slot = &mut frontier.entry(key).or_default()[*access as usize];
            *slot = (*slot).max(this);
        }
    }
    Ok(())
}

/// Assigns every batch member to a wave: one past the latest earlier
/// conflicting member, zero if unconflicted. Returns the wave index per
/// transaction. Generic over owned or borrowed footprints so the
/// mempool can layer its standing pool without cloning every pending
/// footprint per drain.
pub fn schedule_waves<F: Borrow<Footprint>>(footprints: &[F]) -> Vec<usize> {
    let mut waves = Vec::with_capacity(footprints.len());
    let walked = walk(footprints, |_, bound| {
        let wave = bound.map_or(0, |seen| seen.wave + 1);
        waves.push(wave);
        Ok::<usize, Infallible>(wave)
    });
    let Ok(()) = walked;
    waves
}

/// Pipeline tuning knobs.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Worker threads per wave, used for validation (and the other
    /// pooled stages: settlement, recovery's parse, admission). `1` runs
    /// inline (no threads spawned), which is also the fallback for
    /// one-element waves.
    pub workers: usize,
    /// Inert: the UTXO set is one map since the shard count went, and
    /// nothing in the program reads this field. It stays, at 1, only
    /// because the `benchmark/` package reads it; it goes with that
    /// package's next change.
    pub utxo_shards: usize,
    /// Failure-injection harness: ids whose UTXO apply is forced to
    /// abort mid-batch (atomically, touching nothing) even though
    /// validation passed — simulating a transaction failing mid-apply.
    /// The member is rejected exactly as a late spend conflict would
    /// be. Test-only; empty in production.
    pub fail_apply: BTreeSet<String>,
    /// Durable store: every commit path seals each block — its
    /// committed documents and post-block digest — into the block
    /// manifest ([`scdb_store::DurableStore`], attached to the ledger by
    /// `Node`/`SmartchainCluster`), the log recovery re-executes.
    /// `false` keeps the in-memory-only oracle; committed state is
    /// identical either way — durability only adds the recovery path.
    ///
    /// The default honours the `SCDB_DURABLE` environment variable
    /// ([`scdb_telemetry::env_flag`] — CI runs the whole suite with it
    /// set), falling back to off.
    pub durable: bool,
    /// Durability level for the attached store's group-commit path
    /// ([`scdb_store::FsyncLevel`]): `None` writes without syncing,
    /// `Block` fsyncs every seal, `Group(n)` coalesces up to `n`
    /// consecutive seals into one buffered manifest write plus one
    /// fsync. Only consulted when [`PipelineOptions::durable`] attaches
    /// a store.
    ///
    /// The default honours the `SCDB_FSYNC` environment variable
    /// (`none`/`block`/`group:N` — one cell of CI's durable matrix
    /// sets it), falling back to `None`.
    pub fsync: FsyncLevel,
    /// Runtime telemetry handle ([`scdb_telemetry::Telemetry`]):
    /// stage-level commit tracing, lock-free counters/histograms, and
    /// the per-block commit-trace ring. Disabled — the default — every
    /// record site is one `Option` branch and no clock is read;
    /// committed state is byte-identical either way (pinned by the
    /// differential test in `tests/telemetry.rs`). The handle is
    /// `Clone`-shared: every layer a `PipelineOptions` clone reaches
    /// (node, cluster replicas, mempool, durable store) records into
    /// the same registry.
    ///
    /// The default honours the `SCDB_TELEMETRY` environment variable
    /// ([`scdb_telemetry::env_flag`]), falling back to off.
    pub telemetry: Telemetry,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        PipelineOptions {
            workers: cores.min(8),
            utxo_shards: 1,
            fail_apply: BTreeSet::new(),
            durable: env_flag("SCDB_DURABLE").unwrap_or(false),
            fsync: FsyncLevel::from_env(),
            telemetry: Telemetry::from_env(),
        }
    }
}

impl PipelineOptions {
    pub fn with_workers(workers: usize) -> PipelineOptions {
        PipelineOptions {
            workers: workers.max(1),
            ..PipelineOptions::default()
        }
    }

    /// Registers a transaction id whose apply is forced to fail
    /// (failure-injection test harness; see
    /// [`PipelineOptions::fail_apply`]).
    pub fn inject_apply_failure(mut self, id: impl Into<String>) -> PipelineOptions {
        self.fail_apply.insert(id.into());
        self
    }

    /// Turns the durable store on or off.
    pub fn durable(mut self, on: bool) -> PipelineOptions {
        self.durable = on;
        self
    }

    /// Sets the durability level for the attached store (see
    /// [`PipelineOptions::fsync`]).
    pub fn fsync(mut self, level: FsyncLevel) -> PipelineOptions {
        self.fsync = level;
        self
    }

    /// Attaches a telemetry handle (or detaches with
    /// [`Telemetry::disabled`]).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> PipelineOptions {
        self.telemetry = telemetry;
        self
    }
}

/// Outcome of one batch.
#[derive(Debug, Default)]
pub struct BatchOutcome {
    /// Ids committed, in submission order.
    pub committed: Vec<String>,
    /// `(batch index, why)` for every transaction that did not commit.
    pub rejected: Vec<(usize, ValidationError)>,
    /// Number of waves the conflict graph partitioned into.
    pub waves: usize,
    /// Size of the largest wave (the parallelism actually available).
    pub widest_wave: usize,
    /// Always 0 since ISSUE 17 (the re-validating executors are gone);
    /// removed together with `core.re_validated_txs` by the next
    /// `benchmark` PR.
    pub re_validated: usize,
    /// Set when the durable store refused this block. A refused seal
    /// (or group flush) is discovered after the block applied: its
    /// members are in `committed`, in memory only, and the store
    /// latches. Every later block meets the latch before it touches
    /// memory — nothing commits and every member is listed in
    /// `rejected` as [`ValidationError::Storage`] — until the store is
    /// reopened, which recovers the last durable seal.
    pub wal_error: Option<String>,
}

impl BatchOutcome {
    /// True when every batch member committed.
    pub fn fully_committed(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// A planned batch: the wave partition plus every member's footprint.
///
/// Layering has to derive all footprints anyway; carrying them here
/// lets schedule verification and gossip reuse that one computation.
#[derive(Debug, Clone, Default)]
pub struct WaveSchedule {
    /// The wave partition as batch indices, wave-major — the exact
    /// schedule [`commit_batch`] executes.
    pub waves: Vec<Vec<usize>>,
    /// Every member's read/write footprint, by batch index.
    pub footprints: Vec<Footprint>,
}

/// Derives every batch member's footprint, with intra-batch link
/// resolution — the footprint half of [`plan_schedule`], exposed for
/// the cluster, which derives a block's footprints to pack it
/// (forming) and to verify a gossiped schedule against (delivery).
pub fn derive_footprints(batch: &[Arc<Transaction>], ledger: &impl LedgerView) -> Vec<Footprint> {
    let by_id: HashMap<&str, &Transaction> = batch
        .iter()
        .map(|tx| (tx.id.as_str(), tx.as_ref()))
        .collect();
    batch
        .iter()
        .map(|tx| footprint(tx, |id| by_id.get(id).copied().or_else(|| ledger.get(id))).0)
        .collect()
}

/// Layers already-derived footprints into a [`WaveSchedule`] — the
/// wave half of [`plan_schedule`].
pub fn build_schedule(footprints: Vec<Footprint>) -> WaveSchedule {
    let wave_of = schedule_waves(&footprints);
    let wave_count = wave_of.iter().copied().max().unwrap_or(0) + 1;
    let mut waves: Vec<Vec<usize>> = vec![Vec::new(); wave_count];
    for (index, wave) in wave_of.iter().enumerate() {
        waves[*wave].push(index);
    }
    WaveSchedule { waves, footprints }
}

/// The full planning stage: footprints + wave layering, as one call
/// (the tests inspect the same plan through this function).
pub fn plan_schedule(batch: &[Arc<Transaction>], ledger: &impl LedgerView) -> WaveSchedule {
    build_schedule(derive_footprints(batch, ledger))
}

impl WaveSchedule {
    /// Serializes the wave partition for block-level gossip: one JSON
    /// document. Replicas execute off the *waves*, verified against
    /// their own footprints ([`verify_schedule`]) — the proposer's
    /// footprints are untrusted and never travel.
    pub fn to_wire(&self) -> String {
        let waves: Vec<Value> = self
            .waves
            .iter()
            .map(|wave| Value::Array(wave.iter().map(|&i| Value::from(i as u64)).collect()))
            .collect();
        scdb_json::obj! {
            "v" => 1u64,
            "waves" => Value::Array(waves),
        }
        .to_string()
    }

    /// Parses a gossiped wave partition. Purely syntactic — index
    /// ranges, conflict-freedom and coverage are [`verify_schedule`]'s
    /// job — and every malformation, trailing bytes after the document
    /// included, is an error, never a panic: the bytes come from an
    /// untrusted proposer.
    pub fn waves_from_wire(wire: &str) -> Result<Vec<Vec<usize>>, String> {
        let doc = scdb_json::parse(wire).map_err(|e| format!("schedule wire: {e}"))?;
        if doc.get("v").and_then(Value::as_u64) != Some(1) {
            return Err("schedule wire: unsupported version".to_owned());
        }
        doc.get("waves")
            .and_then(Value::as_array)
            .ok_or("schedule wire: missing waves")?
            .iter()
            .map(|wave| {
                wave.as_array()
                    .ok_or_else(|| "schedule wire: wave is not an array".to_owned())?
                    .iter()
                    .map(|i| {
                        i.as_u64()
                            .map(|i| i as usize)
                            .ok_or_else(|| "schedule wire: non-numeric index".to_owned())
                    })
                    .collect::<Result<Vec<usize>, String>>()
            })
            .collect()
    }
}

/// Why a gossiped schedule was refused by [`verify_schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The wire bytes did not parse as a schedule.
    Wire(String),
    /// The waves are not an exact partition of the block's transaction
    /// indices `0..n` (an index missing, repeated, or out of range).
    Coverage { expected: usize },
    /// A wave is empty. A valid schedule never needs one (every wave a
    /// plan produces holds at least one member, so wave count ≤ n);
    /// accepting them would let an adversarial proposer pad a schedule
    /// with millions of no-op waves that each cost the replica a
    /// validation round — an amplification with no honest use.
    EmptyWave { wave: usize },
    /// Two conflicting members are not ordered into strictly increasing
    /// waves (`earlier` must apply in a strictly earlier wave than
    /// `later`, by their block positions).
    ConflictOrder { earlier: usize, later: usize },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Wire(e) => write!(f, "gossiped schedule: {e}"),
            ScheduleError::Coverage { expected } => write!(
                f,
                "gossiped schedule: waves do not partition the {expected} block transactions"
            ),
            ScheduleError::EmptyWave { wave } => {
                write!(f, "gossiped schedule: wave {wave} is empty")
            }
            ScheduleError::ConflictOrder { earlier, later } => write!(
                f,
                "gossiped schedule: conflicting members {earlier} and {later} are not in \
                 strictly increasing waves"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Cheaply verifies an untrusted wave partition against *locally
/// derived* footprints: the waves must cover exactly the block's `n`
/// transactions, and every conflicting pair must land in strictly
/// increasing waves in block order — the exact preconditions
/// [`commit_batch_planned`] needs from an upstream scheduler. Runs in
/// O(total footprint size) through the frontier walk
/// [`schedule_waves`] layers with; a schedule that merely under-uses parallelism
/// (more waves than minimal) still verifies, because conservative
/// schedules are always safe.
///
/// The footprints MUST be the verifier's own (re-derived, or cached
/// from admission with staleness guarded): verifying against the
/// *proposer's* gossiped footprints would let an adversarial proposer
/// hide a conflict and steer replicas into a nondeterministic parallel
/// apply.
pub fn verify_schedule(
    n: usize,
    waves: &[Vec<usize>],
    footprints: &[Footprint],
) -> Result<(), ScheduleError> {
    debug_assert_eq!(footprints.len(), n, "one local footprint per block tx");
    // Exact coverage: each index 0..n appears exactly once, and no
    // wave is empty (which also bounds the wave count at n — padding
    // is the one way an accepted schedule could cost more than the
    // replica's own plan).
    let mut wave_of = vec![usize::MAX; n];
    let mut seen = 0usize;
    for (wave, members) in waves.iter().enumerate() {
        if members.is_empty() {
            return Err(ScheduleError::EmptyWave { wave });
        }
        for &index in members {
            if index >= n || wave_of[index] != usize::MAX {
                return Err(ScheduleError::Coverage { expected: n });
            }
            wave_of[index] = wave;
            seen += 1;
        }
    }
    if seen != n {
        return Err(ScheduleError::Coverage { expected: n });
    }

    // Conflict order: each member's wave must exceed that of the
    // latest earlier member it conflicts with.
    walk(footprints, |position, bound| {
        let wave = wave_of[position];
        match bound {
            Some(seen) if seen.wave >= wave => Err(ScheduleError::ConflictOrder {
                earlier: seen.position,
                later: position,
            }),
            _ => Ok(wave),
        }
    })
}

/// Where the schedule a block committed with came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleSource {
    /// The gossiped schedule verified and was executed directly.
    Gossip,
    /// The schedule was re-derived locally: either no (usable) gossip
    /// was offered (`None`) or the gossiped schedule failed
    /// verification (`Some(error)`) — the adversarial-proposer
    /// fallback.
    Rederived(Option<ScheduleError>),
}

impl ScheduleSource {
    /// True when the gossiped schedule was used.
    pub fn used_gossip(&self) -> bool {
        matches!(self, ScheduleSource::Gossip)
    }
}

/// [`commit_batch`] over an optionally gossiped schedule: the block
/// delivery entry point for self-describing blocks.
///
/// `footprints` are the caller's own sound footprints for the batch
/// (freshly derived via [`derive_footprints`], or admission-time cached
/// entries whose staleness the caller guarded — see DESIGN-blocks.md
/// for the cache-safety argument). When `wire`
/// carries a schedule that parses and [`verify_schedule`]s against
/// those footprints, the gossiped wave partition executes directly;
/// otherwise the waves are re-layered locally. Either way the verdicts
/// and post-state are byte-identical — the schedule only shapes
/// parallelism — so a tampered schedule costs the replica a fallback,
/// never correctness.
pub fn commit_batch_with_gossip(
    ledger: &mut LedgerState,
    batch: &[Arc<Transaction>],
    footprints: Vec<Footprint>,
    wire: Option<&str>,
    options: &PipelineOptions,
) -> (BatchOutcome, ScheduleSource) {
    let (schedule, source) = choose_schedule(batch.len(), footprints, wire);
    (
        commit_batch_planned(ledger, batch, &schedule, options),
        source,
    )
}

/// The schedule-selection half of [`commit_batch_with_gossip`]:
/// verify-and-adopt the gossiped wave partition, or fall back to local
/// re-layering — without committing anything.
pub fn choose_schedule(
    n: usize,
    footprints: Vec<Footprint>,
    wire: Option<&str>,
) -> (WaveSchedule, ScheduleSource) {
    debug_assert_eq!(footprints.len(), n);
    let gossiped = wire.map(|wire| {
        let waves = WaveSchedule::waves_from_wire(wire).map_err(ScheduleError::Wire)?;
        verify_schedule(n, &waves, &footprints)?;
        Ok::<Vec<Vec<usize>>, ScheduleError>(waves)
    });
    match gossiped {
        Some(Ok(waves)) => (WaveSchedule { waves, footprints }, ScheduleSource::Gossip),
        Some(Err(e)) => (
            build_schedule(footprints),
            ScheduleSource::Rederived(Some(e)),
        ),
        None => (build_schedule(footprints), ScheduleSource::Rederived(None)),
    }
}

/// Validates and commits a batch through the conflict-aware pipeline.
///
/// Equivalent to validating and applying each transaction in order
/// (same accepted set, same rejection reasons, same final state — the
/// differential property tests in `proptests.rs` pin this), but wave
/// members validate concurrently on `options.workers` threads.
pub fn commit_batch(
    ledger: &mut LedgerState,
    batch: &[Arc<Transaction>],
    options: &PipelineOptions,
) -> BatchOutcome {
    if batch.is_empty() {
        return BatchOutcome::default();
    }
    let schedule = plan_schedule(batch, &*ledger);
    commit_batch_planned(ledger, batch, &schedule, options)
}

/// Per-commit stage accumulator. Disabled it never reads a clock;
/// enabled it folds each stage's wall time into one ordered entry per
/// stage name (a stage timed once per wave accumulates across waves).
struct StageClock {
    enabled: bool,
    stages: Vec<(&'static str, u64)>,
}

impl StageClock {
    fn new(enabled: bool) -> StageClock {
        StageClock {
            enabled,
            stages: Vec::new(),
        }
    }

    /// Runs `f`, charging its wall time to `stage` (just runs `f` when
    /// disabled).
    #[inline]
    fn time<T>(&mut self, stage: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let clock = Stopwatch::new();
        let out = f();
        let ns = clock.elapsed_ns();
        match self.stages.iter_mut().find(|(s, _)| *s == stage) {
            Some((_, total)) => *total += ns,
            None => self.stages.push((stage, ns)),
        }
        out
    }
}

/// Folds one finished commit into the registry: per-stage histograms,
/// the wave shape (the block's wave count, and each wave's width), the
/// block/tx counters, the rejections by reason, and the block's
/// [`CommitTrace`]. No-op when telemetry is disabled.
fn record_commit(
    telemetry: &Telemetry,
    clock: StageClock,
    total_ns: u64,
    waves: &[Vec<usize>],
    outcome: &BatchOutcome,
) {
    let Some(registry) = telemetry.registry() else {
        return;
    };
    registry
        .histogram("pipeline.commit_total_ns")
        .record(total_ns);
    registry
        .histogram("pipeline.waves")
        .record(waves.len() as u64);
    let width = registry.histogram("pipeline.wave_width");
    for wave in waves {
        width.record(wave.len() as u64);
    }
    for (stage, ns) in &clock.stages {
        registry
            .histogram(&format!("pipeline.stage.{stage}_ns"))
            .record(*ns);
    }
    registry.counter("pipeline.blocks").incr();
    registry
        .counter("pipeline.txs_committed")
        .add(outcome.committed.len() as u64);
    registry
        .counter("pipeline.txs_rejected")
        .add(outcome.rejected.len() as u64);
    for (_, why) in &outcome.rejected {
        registry
            .counter(&format!("pipeline.rejected.{}", why.variant_name()))
            .incr();
    }
    telemetry.record_trace(CommitTrace {
        block: 0, // assigned by the ring
        executor: "pipeline",
        txs: waves.iter().map(Vec::len).sum(),
        committed: outcome.committed.len(),
        rejected: outcome.rejected.len(),
        waves: outcome.waves,
        total_ns,
        stages: clock.stages,
    });
}

/// [`commit_batch`] with a caller-supplied [`WaveSchedule`] — the entry
/// point for upstream schedulers (the mempool's batch forming, block
/// proposals carrying their plan) that already derived footprints and
/// waves at admission, so the pipeline never re-derives them.
///
/// The schedule must cover exactly this batch and be *conservative*:
/// every pair of members whose footprints conflict must sit in
/// distinct waves with the winner's wave first. Extra (stale) footprint
/// keys only narrow waves and are always safe; validation still runs in
/// full, so a correct schedule yields byte-identical results to
/// [`commit_batch`]'s own plan.
pub fn commit_batch_planned(
    ledger: &mut LedgerState,
    batch: &[Arc<Transaction>],
    schedule: &WaveSchedule,
    options: &PipelineOptions,
) -> BatchOutcome {
    let mut outcome = BatchOutcome::default();
    if batch.is_empty() {
        return outcome;
    }
    debug_assert_eq!(
        schedule.footprints.len(),
        batch.len(),
        "schedule must cover the batch"
    );
    debug_assert_eq!(
        schedule.waves.iter().map(Vec::len).sum::<usize>(),
        batch.len(),
        "waves must partition the batch"
    );

    // Fail closed: a seal is written after its block applied, so a
    // latched store must stop the block here, before memory moves.
    if let Some(Err(e)) = ledger.durable_store().map(|store| store.guard()) {
        let why = e.to_string();
        outcome.rejected = (0..batch.len())
            .map(|index| (index, ValidationError::Storage(why.clone())))
            .collect();
        outcome.wal_error = Some(why);
        forget_rejected(ledger, batch, &outcome);
        return outcome;
    }

    outcome.waves = schedule.waves.len();
    outcome.widest_wave = schedule.waves.iter().map(Vec::len).max().unwrap_or(0);

    let traced = options.telemetry.is_enabled();
    let block_clock = traced.then(Stopwatch::new);
    let mut clock = StageClock::new(traced);

    let commit_start = ledger.committed_ids().len();
    let mut accepted: Vec<usize> = Vec::with_capacity(batch.len());
    // The wave barrier: validate wave `k`, apply wave `k`, only then
    // look at wave `k+1`.
    for wave in &schedule.waves {
        // Parallel validation of this wave against the current state —
        // immutable for the duration of the wave.
        let verdicts = clock.time("validate", || {
            parallel_map(wave.len(), options.workers, |slot| {
                validate_transaction(&batch[wave[slot]], &*ledger)
            })
        });
        let mut survivors: Vec<usize> = Vec::with_capacity(wave.len());
        for (&index, verdict) in wave.iter().zip(verdicts) {
            match verdict {
                Ok(()) => survivors.push(index),
                Err(e) => outcome.rejected.push((index, e)),
            }
        }
        apply_survivors(
            ledger,
            batch,
            &survivors,
            options,
            &mut outcome,
            &mut accepted,
            &mut clock,
        );
    }

    // The batch's commit order is submission order, independent of the
    // wave partition (replicas must agree byte-for-byte).
    accepted.sort_unstable();
    outcome.committed = accepted.iter().map(|&i| batch[i].id.clone()).collect();
    ledger.set_commit_order_tail(commit_start, &outcome.committed);
    if let Some(store) = ledger.durable_store() {
        // Seal the block: one manifest record carrying the committed
        // documents and the post-block digest — its durable commit.
        let docs: Vec<Value> = accepted.iter().map(|&i| batch[i].to_value()).collect();
        let sealed = clock.time("seal", || store.seal_block(&docs, &ledger.state_digest()));
        if let Err(e) = sealed {
            // The in-memory state already applied; the seal is the
            // durability commit point, so record the failure for the
            // caller. The store latched fail-closed — later blocks are
            // refused up front, and the next reopen replays up to the
            // last good seal.
            outcome.wal_error = Some(e.to_string());
        }
    }
    outcome.rejected.sort_unstable_by_key(|(i, _)| *i);
    forget_rejected(ledger, batch, &outcome);
    if let Some(block_clock) = block_clock {
        record_commit(
            &options.telemetry,
            clock,
            block_clock.elapsed_ns(),
            &schedule.waves,
            &outcome,
        );
    }
    outcome
}

/// Drops a block's rejected members from the ledger's verified set: a
/// verdict consumed the entry, and a resubmission is verified afresh.
/// (Committed members left the set when they applied.)
fn forget_rejected(ledger: &LedgerState, batch: &[Arc<Transaction>], outcome: &BatchOutcome) {
    for (index, _) in &outcome.rejected {
        ledger.forget_verified(&batch[*index].id);
    }
}

/// Applies one wave's surviving members, one by one in wave order,
/// honouring the failure-injection set.
///
/// Validation passed against the pre-wave state and wave members are
/// pairwise conflict-free, so apply cannot fail outside injection; the
/// double-spend arm is belt-and-braces.
fn apply_survivors(
    ledger: &mut LedgerState,
    batch: &[Arc<Transaction>],
    survivors: &[usize],
    options: &PipelineOptions,
    outcome: &mut BatchOutcome,
    accepted: &mut Vec<usize>,
    clock: &mut StageClock,
) {
    clock.time("apply", || {
        for &index in survivors {
            let tx = &batch[index];
            // An injected failure aborts atomically, touching nothing,
            // exactly like a late spend conflict.
            let applied = if options.fail_apply.contains(tx.id.as_str()) {
                Err(format!("injected apply failure for {}", tx.id))
            } else {
                ledger.apply_shared(tx).map_err(|spend| spend.to_string())
            };
            match applied {
                Ok(()) => accepted.push(index),
                Err(why) => outcome
                    .rejected
                    .push((index, ValidationError::DoubleSpend(why))),
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TxBuilder;
    use scdb_crypto::KeyPair;
    use scdb_json::{arr, obj};

    fn keys(seed: u8) -> KeyPair {
        KeyPair::from_seed([seed; 32])
    }

    struct Market {
        ledger: LedgerState,
        escrow: KeyPair,
        requester: KeyPair,
    }

    fn market() -> Market {
        let escrow = keys(0xE5);
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        Market {
            ledger,
            escrow,
            requester: keys(0x5A),
        }
    }

    fn arc(tx: Transaction) -> Arc<Transaction> {
        Arc::new(tx)
    }

    #[test]
    fn independent_creates_share_one_wave() {
        let mut m = market();
        let batch: Vec<Arc<Transaction>> = (0..6u8)
            .map(|i| {
                arc(TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
                    .output(keys(i + 1).public_hex(), 1)
                    .nonce(i as u64)
                    .sign(&[&keys(i + 1)]))
            })
            .collect();
        let outcome = commit_batch(&mut m.ledger, &batch, &PipelineOptions::with_workers(4));
        assert!(outcome.fully_committed(), "{:?}", outcome.rejected);
        assert_eq!(outcome.waves, 1);
        assert_eq!(outcome.widest_wave, 6);
        // Commit order is submission order.
        let expected: Vec<String> = batch.iter().map(|t| t.id.clone()).collect();
        assert_eq!(outcome.committed, expected);
        assert_eq!(m.ledger.committed_ids(), &expected[..]);
    }

    #[test]
    fn double_spends_are_serialized_and_second_rejected() {
        let mut m = market();
        let alice = keys(0xA1);
        let create = TxBuilder::create(obj! {})
            .output(alice.public_hex(), 1)
            .sign(&[&alice]);
        m.ledger.apply(&create).unwrap();

        let spend = |to: &KeyPair, n: u64| {
            arc(TxBuilder::transfer(create.id.clone())
                .input(create.id.clone(), 0, vec![alice.public_hex()])
                .output_with_prev(to.public_hex(), 1, vec![alice.public_hex()])
                .metadata(obj! { "n" => n })
                .sign(&[&alice]))
        };
        let batch = vec![spend(&keys(0xB0), 1), spend(&keys(0xB1), 2)];
        let outcome = commit_batch(&mut m.ledger, &batch, &PipelineOptions::with_workers(4));
        assert_eq!(outcome.waves, 2, "conflicting spends must not share a wave");
        assert_eq!(outcome.committed, vec![batch[0].id.clone()]);
        assert_eq!(outcome.rejected.len(), 1);
        assert_eq!(outcome.rejected[0].0, 1);
        assert!(matches!(
            outcome.rejected[0].1,
            ValidationError::DoubleSpend(_)
        ));
    }

    #[test]
    fn duplicate_ids_conflict() {
        let mut m = market();
        let alice = keys(0xA1);
        let tx = arc(TxBuilder::create(obj! {})
            .output(alice.public_hex(), 1)
            .sign(&[&alice]));
        let batch = vec![Arc::clone(&tx), tx];
        let outcome = commit_batch(&mut m.ledger, &batch, &PipelineOptions::with_workers(4));
        assert_eq!(outcome.committed.len(), 1);
        assert!(matches!(
            outcome.rejected[0].1,
            ValidationError::DuplicateTransaction(_)
        ));
    }

    #[test]
    fn bids_on_one_request_commute_like_bids_on_distinct_requests() {
        let mut m = market();
        // Two requests, two suppliers each: every bid appends to a bid
        // set, and appends commute, so all four share one wave.
        let mut batch = Vec::new();
        let mut bid_waves_expected = Vec::new();
        for r in 0..2u8 {
            let requester = keys(0x50 + r);
            let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
                .output(requester.public_hex(), 1)
                .nonce(r as u64)
                .sign(&[&requester]);
            for b in 0..2u8 {
                let supplier = keys(0x10 + r * 2 + b);
                let asset = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
                    .output(supplier.public_hex(), 1)
                    .nonce((10 + r * 2 + b) as u64)
                    .sign(&[&supplier]);
                let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
                    .input(asset.id.clone(), 0, vec![supplier.public_hex()])
                    .output_with_prev(m.escrow.public_hex(), 1, vec![supplier.public_hex()])
                    .sign(&[&supplier]);
                m.ledger.apply(&asset).unwrap();
                batch.push(arc(bid));
                bid_waves_expected.push(0);
            }
            m.ledger.apply(&request).unwrap();
        }
        let planned = plan_schedule(&batch, &m.ledger).waves;
        let mut wave_of = vec![0usize; batch.len()];
        for (wave, members) in planned.iter().enumerate() {
            for &index in members {
                wave_of[index] = wave;
            }
        }
        assert_eq!(wave_of, bid_waves_expected, "bids never wait for bids");

        let outcome = commit_batch(&mut m.ledger, &batch, &PipelineOptions::with_workers(4));
        assert!(outcome.fully_committed(), "{:?}", outcome.rejected);
        assert_eq!(outcome.waves, 1);
        assert_eq!(outcome.widest_wave, 4, "every bid runs concurrently");
        // The bid index is a set: id order, whatever the commit order.
        for request in batch.iter().map(|bid| &bid.references[0]) {
            let ids: Vec<&str> = (m.ledger.bids_for_request(request).iter())
                .map(|bid| bid.id.as_str())
                .collect();
            assert_eq!(ids.len(), 2);
            assert!(ids.is_sorted(), "{ids:?}");
        }
    }

    #[test]
    fn accept_bid_waits_for_its_requests_bids() {
        let mut m = market();
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(m.requester.public_hex(), 1)
            .sign(&[&m.requester]);
        m.ledger.apply(&request).unwrap();

        let mut batch = Vec::new();
        let mut bids = Vec::new();
        for b in 0..2u8 {
            let supplier = keys(0x20 + b);
            let asset = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
                .output(supplier.public_hex(), 1)
                .nonce(b as u64)
                .sign(&[&supplier]);
            m.ledger.apply(&asset).unwrap();
            let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
                .input(asset.id.clone(), 0, vec![supplier.public_hex()])
                .output_with_prev(m.escrow.public_hex(), 1, vec![supplier.public_hex()])
                .sign(&[&supplier]);
            bids.push(bid.clone());
            batch.push(arc(bid));
        }
        let mut accept = TxBuilder::accept_bid(bids[0].id.clone(), request.id.clone())
            .output_with_prev(m.requester.public_hex(), 1, vec![m.escrow.public_hex()]);
        for bid in &bids {
            accept = accept.input(bid.id.clone(), 0, vec![m.escrow.public_hex()]);
        }
        let accept = accept
            .output_with_prev(keys(0x21).public_hex(), 1, vec![m.escrow.public_hex()])
            .sign(&[&m.requester]);
        batch.push(arc(accept));

        let outcome = commit_batch(&mut m.ledger, &batch, &PipelineOptions::with_workers(4));
        assert!(outcome.fully_committed(), "{:?}", outcome.rejected);
        // bid0 bid1 | accept — the acceptance reads the full bid set.
        assert_eq!(outcome.waves, 2);
        assert!(m.ledger.accept_for_request(&request.id).is_some());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut m = market();
        let outcome = commit_batch(&mut m.ledger, &[], &PipelineOptions::default());
        assert!(outcome.fully_committed());
        assert_eq!(outcome.waves, 0);
        assert!(m.ledger.is_empty());
    }

    /// The canonical dependent-waves batch: a committed request, two
    /// bids and the accept folding them, all in one submission.
    fn dependent_wave_batch(m: &mut Market) -> Vec<Arc<Transaction>> {
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(m.requester.public_hex(), 1)
            .sign(&[&m.requester]);
        m.ledger.apply(&request).unwrap();

        let mut batch = Vec::new();
        let mut bids = Vec::new();
        for b in 0..2u8 {
            let supplier = keys(0x20 + b);
            let asset = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
                .output(supplier.public_hex(), 1)
                .nonce(b as u64)
                .sign(&[&supplier]);
            m.ledger.apply(&asset).unwrap();
            let bid = TxBuilder::bid(asset.id.clone(), request.id.clone())
                .input(asset.id.clone(), 0, vec![supplier.public_hex()])
                .output_with_prev(m.escrow.public_hex(), 1, vec![supplier.public_hex()])
                .sign(&[&supplier]);
            bids.push(bid.clone());
            batch.push(arc(bid));
        }
        let mut accept = TxBuilder::accept_bid(bids[0].id.clone(), request.id.clone())
            .output_with_prev(m.requester.public_hex(), 1, vec![m.escrow.public_hex()]);
        for bid in &bids {
            accept = accept.input(bid.id.clone(), 0, vec![m.escrow.public_hex()]);
        }
        batch.push(arc(accept
            .output_with_prev(keys(0x21).public_hex(), 1, vec![m.escrow.public_hex()])
            .sign(&[&m.requester])));
        batch
    }

    fn rejected_strings(outcome: &BatchOutcome) -> Vec<(usize, String)> {
        outcome
            .rejected
            .iter()
            .map(|(i, e)| (*i, e.to_string()))
            .collect()
    }

    #[test]
    fn schedule_wire_round_trips() {
        let mut m = market();
        let batch = dependent_wave_batch(&mut m);
        let schedule = plan_schedule(&batch, &m.ledger);
        let wire = schedule.to_wire();
        let back = WaveSchedule::waves_from_wire(&wire).expect("round trip");
        assert_eq!(back, schedule.waves);
        // Garbage, truncated and padded wires fail cleanly.
        assert!(WaveSchedule::waves_from_wire("not json").is_err());
        assert!(WaveSchedule::waves_from_wire("{\"v\":1}").is_err());
        assert!(WaveSchedule::waves_from_wire("{\"v\":9,\"waves\":[]}").is_err());
        assert!(WaveSchedule::waves_from_wire(&format!("{wire}\n{{}}")).is_err());
    }

    #[test]
    fn verify_schedule_accepts_own_plan_and_conservative_variants() {
        let mut m = market();
        let batch = dependent_wave_batch(&mut m);
        let schedule = plan_schedule(&batch, &m.ledger);
        verify_schedule(batch.len(), &schedule.waves, &schedule.footprints)
            .expect("own plan verifies");
        // Fully serial (one tx per wave, block order) is conservative
        // and must verify too.
        let serial: Vec<Vec<usize>> = (0..batch.len()).map(|i| vec![i]).collect();
        verify_schedule(batch.len(), &serial, &schedule.footprints).expect("serial verifies");
    }

    #[test]
    fn verify_schedule_rejects_tampering() {
        let mut m = market();
        let batch = dependent_wave_batch(&mut m); // bid bid | accept
        let schedule = plan_schedule(&batch, &m.ledger);
        let fps = &schedule.footprints;
        let n = batch.len();
        assert_eq!(schedule.waves, [vec![0, 1], vec![2]]);

        // The accept shares a wave with a bid on its request: it reads
        // the bid set the bid appends to.
        assert_eq!(
            verify_schedule(n, &[vec![0], vec![1, 2]], fps),
            Err(ScheduleError::ConflictOrder {
                earlier: 1,
                later: 2
            })
        );
        // Waves out of order: the accept before the bids it folds.
        assert!(matches!(
            verify_schedule(n, &[vec![2], vec![0], vec![1]], fps),
            Err(ScheduleError::ConflictOrder { .. })
        ));
        // Incomplete coverage.
        assert_eq!(
            verify_schedule(n, &[vec![0], vec![1]], fps),
            Err(ScheduleError::Coverage { expected: n })
        );
        // Overlapping coverage (an index twice).
        assert_eq!(
            verify_schedule(n, &[vec![0], vec![0], vec![1], vec![2]], fps),
            Err(ScheduleError::Coverage { expected: n })
        );
        // Out-of-range index.
        assert_eq!(
            verify_schedule(n, &[vec![0], vec![1], vec![2], vec![9]], fps),
            Err(ScheduleError::Coverage { expected: n })
        );
        // Empty-wave padding (the work-amplification vector).
        assert_eq!(
            verify_schedule(n, &[vec![0], vec![], vec![1], vec![2]], fps),
            Err(ScheduleError::EmptyWave { wave: 1 })
        );
        let mut padded: Vec<Vec<usize>> = vec![vec![0], vec![1], vec![2]];
        padded.extend((0..1000).map(|_| Vec::new()));
        assert!(matches!(
            verify_schedule(n, &padded, fps),
            Err(ScheduleError::EmptyWave { .. })
        ));
    }

    #[test]
    fn gossiped_commit_equals_rederived_commit() {
        let mut gossip = market();
        let batch = dependent_wave_batch(&mut gossip);
        let mut plain = market();
        dependent_wave_batch(&mut plain);

        let wire = plan_schedule(&batch, &gossip.ledger).to_wire();
        let options = PipelineOptions::with_workers(2);
        let (g, source) = commit_batch_with_gossip(
            &mut gossip.ledger,
            &batch,
            derive_footprints(&batch, &plain.ledger),
            Some(&wire),
            &options,
        );
        assert!(source.used_gossip(), "{source:?}");
        let p = commit_batch(&mut plain.ledger, &batch, &options);
        assert_eq!(g.committed, p.committed);
        assert_eq!(rejected_strings(&g), rejected_strings(&p));
        assert_eq!(gossip.ledger.state_digest(), plain.ledger.state_digest());
        assert_eq!(
            gossip.ledger.utxos().snapshot(),
            plain.ledger.utxos().snapshot()
        );
    }

    #[test]
    fn tampered_gossip_falls_back_and_state_is_identical() {
        let mut gossip = market();
        let batch = dependent_wave_batch(&mut gossip);
        let mut plain = market();
        dependent_wave_batch(&mut plain);

        // Tamper: collapse every wave into one — the accept now shares
        // a wave with the bids it reads, which verification must catch.
        let mut schedule = plan_schedule(&batch, &gossip.ledger);
        let merged: Vec<usize> = schedule.waves.drain(..).flatten().collect();
        schedule.waves = vec![merged];
        let wire = schedule.to_wire();

        let options = PipelineOptions::with_workers(2);
        let (g, source) = commit_batch_with_gossip(
            &mut gossip.ledger,
            &batch,
            derive_footprints(&batch, &plain.ledger),
            Some(&wire),
            &options,
        );
        assert!(
            matches!(source, ScheduleSource::Rederived(Some(_))),
            "{source:?}"
        );
        let p = commit_batch(&mut plain.ledger, &batch, &options);
        assert_eq!(g.committed, p.committed);
        assert_eq!(gossip.ledger.state_digest(), plain.ledger.state_digest());
    }

    /// The no-gossip reference: no wire offered means the waves are
    /// re-layered locally, and the state equals the gossiped run's.
    #[test]
    fn gossip_disabled_ignores_the_wire() {
        let mut gossip = market();
        let batch = dependent_wave_batch(&mut gossip);
        let mut plain = market();
        dependent_wave_batch(&mut plain);
        let wire = plan_schedule(&batch, &gossip.ledger).to_wire();
        let options = PipelineOptions::with_workers(2);
        let footprints = derive_footprints(&batch, &plain.ledger);
        let (g, source) = commit_batch_with_gossip(
            &mut gossip.ledger,
            &batch,
            footprints.clone(),
            Some(&wire),
            &options,
        );
        assert!(source.used_gossip(), "{source:?}");
        let (p, source) =
            commit_batch_with_gossip(&mut plain.ledger, &batch, footprints, None, &options);
        assert_eq!(source, ScheduleSource::Rederived(None));
        assert!(p.fully_committed());
        assert_eq!(g.committed, p.committed);
        assert_eq!(gossip.ledger.state_digest(), plain.ledger.state_digest());
    }

    // Keeps its pre-ISSUE-17 name (the test floor tracks it by name);
    // "re-validation" is now simply wave 1's validation.
    #[test]
    fn injected_apply_failure_cascades_through_re_validation() {
        // A cross-wave spend chain: t1 spends a committed output, t2
        // spends t1's output. Forcing t1 to fail mid-apply must reject
        // t2 — wave 1 validates against a state without t1's outputs —
        // and leave the UTXO set as it was.
        let mut m = market();
        let alice = keys(0xA1);
        let bob = keys(0xB0);
        let create = TxBuilder::create(obj! {})
            .output(alice.public_hex(), 1)
            .sign(&[&alice]);
        m.ledger.apply(&create).unwrap();
        let t1 = arc(TxBuilder::transfer(create.id.clone())
            .input(create.id.clone(), 0, vec![alice.public_hex()])
            .output_with_prev(bob.public_hex(), 1, vec![alice.public_hex()])
            .sign(&[&alice]));
        let t2 = arc(TxBuilder::transfer(create.id.clone())
            .input(t1.id.clone(), 0, vec![bob.public_hex()])
            .output_with_prev(keys(0xC0).public_hex(), 1, vec![bob.public_hex()])
            .sign(&[&bob]));
        let batch = vec![t1, t2];
        let before = m.ledger.utxos().snapshot();

        let inject = PipelineOptions::with_workers(4).inject_apply_failure(batch[0].id.clone());
        let outcome = commit_batch(&mut m.ledger, &batch, &inject);

        assert_eq!(outcome.waves, 2);
        assert!(outcome.committed.is_empty(), "{outcome:?}");
        let rejected = rejected_strings(&outcome);
        assert_eq!(rejected.len(), 2, "{outcome:?}");
        assert!(rejected[0].1.contains("injected apply failure"));
        // The sequential replay rejects t2 the same way once t1 is gone.
        let sequential = validate_transaction(&batch[1], &m.ledger).unwrap_err();
        assert_eq!(rejected[1], (1, sequential.to_string()));
        assert_eq!(m.ledger.utxos().snapshot(), before);
    }
}

/// The conflict rule on its own: the access table and its join, and the
/// frontier walk against the pairwise reference.
#[cfg(test)]
mod conflict_rule {
    use super::*;
    use proptest::prelude::*;

    /// Every access table fact the rule has: symmetric, conflicting
    /// unless both read or both commute, and a join that conflicts with
    /// exactly what either joined access conflicts with.
    #[test]
    fn access_laws_hold_over_every_triple() {
        for a in Access::ALL {
            for b in Access::ALL {
                let both_read = a == Access::Read && b == Access::Read;
                let both_commute = a == Access::Commute && b == Access::Commute;
                assert_eq!(a.conflicts(b), !(both_read || both_commute), "{a:?} {b:?}");
                assert_eq!(a.conflicts(b), b.conflicts(a), "{a:?} {b:?}");
                for c in Access::ALL {
                    assert_eq!(
                        a.join(b).conflicts(c),
                        a.conflicts(c) || b.conflicts(c),
                        "({a:?} ⊔ {b:?}) against {c:?}"
                    );
                }
            }
        }
    }

    /// A footprint from `(key, access)` picks over a four-key pool.
    fn footprint_of(picks: &[(u8, u8)]) -> Footprint {
        let mut fp = Footprint::default();
        for &(key, access) in picks {
            let key = match key {
                0 => ConflictKey::Id("t".to_owned()),
                1 => ConflictKey::Output("t".to_owned(), 0),
                2 => ConflictKey::Bids("r".to_owned()),
                _ => ConflictKey::Accept("r".to_owned()),
            };
            fp.touch(key, Access::ALL[usize::from(access)]);
        }
        fp
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Layering puts each member one past the highest wave of an
        /// earlier member it conflicts with, pairwise; a covering
        /// partition verifies exactly when every conflicting pair is in
        /// increasing waves, and a refusal names such a pair.
        #[test]
        fn one_walk_equals_the_pairwise_reference(
            members in prop::collection::vec(
                (prop::collection::vec((0u8..4, 0u8..3), 1..4), 0usize..12),
                1..13,
            ),
            jitter in any::<bool>(),
        ) {
            let fps: Vec<Footprint> = members.iter().map(|(picks, _)| footprint_of(picks)).collect();
            let n = fps.len();
            let conflict = |j: usize, i: usize| footprints_conflict(&fps[j], &fps[i]);

            let layered = schedule_waves(&fps);
            for i in 0..n {
                let bound = (0..i)
                    .filter(|&j| conflict(j, i))
                    .map(|j| layered[j] + 1)
                    .max()
                    .unwrap_or(0);
                prop_assert_eq!(layered[i], bound, "member {}", i);
            }
            prop_assert_eq!(verify_schedule(n, &build_schedule(fps.clone()).waves, &fps), Ok(()));

            // A random covering partition with no empty wave, renumbered
            // densely: the drawn waves, or (mostly in order) the layered
            // waves spread out and jittered by them.
            let drawn: Vec<usize> = (members.iter().zip(&layered))
                .map(|((_, wave), layer)| if jitter { 2 * layer + wave % 3 } else { *wave })
                .collect();
            let mut used = drawn.clone();
            used.sort_unstable();
            used.dedup();
            let wave_of: Vec<usize> = (drawn.iter())
                .map(|wave| used.binary_search(wave).expect("drawn wave"))
                .collect();
            let mut waves = vec![Vec::new(); used.len()];
            for (i, &wave) in wave_of.iter().enumerate() {
                waves[wave].push(i);
            }
            let ordered = (0..n).all(|i| (0..i).all(|j| !conflict(j, i) || wave_of[j] < wave_of[i]));
            let verdict = verify_schedule(n, &waves, &fps);
            prop_assert_eq!(verdict.is_ok(), ordered, "{:?}", verdict);
            if let Err(e) = verdict {
                let ScheduleError::ConflictOrder { earlier, later } = e else {
                    return Err(TestCaseError::fail(format!("not a conflict-order refusal: {e}")));
                };
                prop_assert!(earlier < later, "{} {}", earlier, later);
                prop_assert!(conflict(earlier, later));
                prop_assert!(wave_of[earlier] >= wave_of[later]);
            }
        }
    }
}
