//! Cross-block pipelined execution: block `k+1` validates while block
//! `k` applies.
//!
//! The block-at-a-time pipeline ([`crate::pipeline`]) finishes a
//! block's resolve *and* apply before the next block's validation may
//! start, so the whole deliver-to-commit latency of block `k+1` sits
//! behind block `k`'s apply. But the same overlay machinery that lets
//! wave `k+1` validate against wave `k`'s predicted effects within a
//! block ([`crate::speculation`]) extends across the block boundary:
//!
//! * When block `k` commits, its verdicts are resolved to finality but
//!   its *mechanical* state mutation — the sharded UTXO apply and the
//!   serial index bookkeeping — is deferred into a [`PendingBlock`].
//! * When block `k+1` arrives, the pending UTXO apply runs on a
//!   background thread while this thread predicts and speculatively
//!   validates block `k+1` against
//!   `base + block k's predicted WaveOverlay chain` — the same
//!   predict-once overlays a proposer gossips.
//! * After the join, block `k+1` resolves: exactly the members whose
//!   read∪write footprint intersects block `k`'s *diverged* writes
//!   (keys where actual effects differed from the prediction — a
//!   rejected member, an injected mid-apply abort, a re-validated
//!   member) are re-validated against the now-exact state; everyone
//!   else keeps their speculative verdict.
//!
//! Why the boundary needs no barrier: during the overlap the background
//! thread mutates only UTXO entries whose `OutputRef`s appear in the
//! pending block's predicted overlays (spend/add plans are static
//! functions of transaction content), and every such entry is shadowed
//! by those same overlays in the [`SpeculativeView`] chain the next
//! block reads through — a reader either never consults the base for
//! that key, or overwrites the one field (`spent_by`) the apply flips.
//! Index maps and the committed-transaction map are untouched until the
//! post-join serial phase. DESIGN-speculation.md § "Cross-block
//! pipelining" carries the full argument.
//!
//! Equivalence (pinned by the differential proptests): for any stream
//! of blocks, the verdicts, committed ids, commit order, UTXO snapshot,
//! marketplace indexes and state digests after a final [`CrossBlockPipeline::flush`]
//! are byte-identical to feeding the same stream through
//! [`crate::pipeline::commit_batch_planned`] block-at-a-time, which is
//! itself pinned to the sequential oracle.

use crate::errors::ValidationError;
use crate::ledger::{ApplyOutcome, LedgerState, UtxoEffects};
use crate::model::Transaction;
use crate::par::parallel_map;
use crate::pipeline::{
    forget_rejected, record_commit, BatchOutcome, ConflictKey, PipelineOptions, StageClock,
    WaveSchedule,
};
use crate::speculation::{fold_overlay_digest, SpeculativeView, WaveOverlay};
use crate::validate::validate_transaction;
use scdb_json::Value;
use scdb_store::{OutputRef, StateDigest, Utxo, WalError};
use scdb_telemetry::Stopwatch;
use std::collections::HashSet;
use std::sync::Arc;

/// One wave of a pending block awaiting its deferred apply: the
/// surviving members (batch indices, wave order) and their exact UTXO
/// plans.
struct PendingWave {
    members: Vec<usize>,
    effects: Vec<Option<UtxoEffects>>,
}

/// A block whose verdicts are final but whose state mutation has not
/// executed yet.
struct PendingBlock {
    /// The block's transactions (survivor indices point into this).
    batch: Vec<Arc<Transaction>>,
    /// Survivors + exact plans, wave by wave.
    waves: Vec<PendingWave>,
    /// The block's *predicted* overlays — every member, pre-resolve.
    /// This is what the next block speculates against (the predict-once
    /// chain a proposer could gossip), so mis-predictions surface as
    /// divergence there, exercising the re-validation protocol.
    predicted: Vec<WaveOverlay>,
    /// The block's *actual* overlays — survivors only, effects exact.
    /// `base + corrected` IS the post-block state; admission and
    /// CheckTx read through it while the apply is still pending.
    corrected: Vec<WaveOverlay>,
    /// Keys where actual ≠ predicted: the write footprints of every
    /// rejected or re-validated member. The next block re-validates
    /// exactly the members whose footprint intersects these.
    diverged: Vec<ConflictKey>,
    /// Commit-order position where this block's tail begins.
    commit_start: usize,
    /// Committed ids in submission order (the tail to restore on
    /// finalize).
    committed: Vec<String>,
    /// The exact post-apply digest of the UTXO set — what
    /// `state_digest()` must answer while the apply is pending.
    post_digest: StateDigest,
    /// Committed documents for the deferred seal (empty without a
    /// durable store).
    docs: Vec<Value>,
    /// Aborted ids for the deferred seal (empty without a durable
    /// store).
    aborted: Vec<String>,
}

/// Writes a detached block's wave records and seal to the durable
/// store, in write-ahead order: every wave's effects first, then the
/// one manifest seal covering them. Runs on the background thread
/// during the next commit (the async seal) or synchronously on
/// [`CrossBlockPipeline::flush`] — either way strictly before the
/// block's UTXO apply finalizes, so in-memory state never outruns
/// what the log can prove.
fn log_and_seal(store: &scdb_store::DurableStore, p: &PendingBlock) -> Result<u64, WalError> {
    for pw in &p.waves {
        let mut spends: Vec<(OutputRef, String)> = Vec::new();
        let mut adds: Vec<(OutputRef, Utxo)> = Vec::new();
        for (&index, slot) in pw.members.iter().zip(&pw.effects) {
            let plan = slot.as_ref().expect("resolved wave plans are exact");
            spends.extend(
                plan.spends
                    .iter()
                    .map(|o| (o.clone(), p.batch[index].id.clone())),
            );
            adds.extend(plan.adds.iter().cloned());
        }
        store.log_wave(&spends, &adds)?;
    }
    store.seal_block(&p.docs, &p.aborted, &p.post_digest)
}

/// The continuous commit pipeline: owns at most one [`PendingBlock`]
/// and overlaps its apply with the next block's validation.
///
/// One instance per ledger (a `Node`, or one cluster replica). All
/// reads of the ledger between commits must go through
/// [`CrossBlockPipeline::pending_overlays`] (or a prior
/// [`CrossBlockPipeline::flush`]) to see the pending block's effects.
#[derive(Default)]
pub struct CrossBlockPipeline {
    pending: Option<PendingBlock>,
    /// First async-seal failure, latched: once the store refuses a
    /// background WAL write or seal it fails closed for good, so every
    /// later [`BatchOutcome`] carries the error until the store is
    /// reopened. In-memory state keeps serving (verdicts were already
    /// final when the write failed); recovery lands on the last good
    /// seal.
    wal_failure: Option<String>,
}

impl CrossBlockPipeline {
    pub fn new() -> CrossBlockPipeline {
        CrossBlockPipeline::default()
    }

    /// True when a committed block's apply is still deferred.
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// The pending block's *actual* overlay chain (empty when nothing
    /// is pending): `SpeculativeView::new(ledger, pending_overlays())`
    /// is exactly the state the ledger will hold after the next flush.
    pub fn pending_overlays(&self) -> &[WaveOverlay] {
        self.pending
            .as_ref()
            .map(|p| p.corrected.as_slice())
            .unwrap_or(&[])
    }

    /// The exact UTXO digest of `ledger + pending`, when a block is
    /// pending. `None` means the ledger's own digest is current.
    pub fn pending_digest(&self) -> Option<StateDigest> {
        self.pending.as_ref().map(|p| p.post_digest)
    }

    /// Executes the deferred apply, leaving the ledger exactly where a
    /// block-at-a-time commit of the pending block would have. Call at
    /// quiescence points: before any read of the raw ledger that
    /// bypasses [`CrossBlockPipeline::pending_overlays`], before a
    /// non-pipelined mutation, and before proposing a block.
    pub fn flush(&mut self, ledger: &mut LedgerState, workers: usize) {
        let Some(mut p) = self.pending.take() else {
            return;
        };
        // Synchronous half of the async seal: a flushed block's log
        // writes land here instead of on the background thread, still
        // strictly before its apply.
        if let Some(store) = ledger.durable_store().cloned() {
            if let Err(e) = log_and_seal(&store, &p) {
                self.wal_failure.get_or_insert(e.to_string());
            }
        }
        let outcomes: Vec<Vec<ApplyOutcome>> = p
            .waves
            .iter_mut()
            .map(|wave| {
                let wave_txs: Vec<&Arc<Transaction>> =
                    wave.members.iter().map(|&i| &p.batch[i]).collect();
                ledger.apply_wave_utxos(&wave_txs, std::mem::take(&mut wave.effects), workers)
            })
            .collect();
        finalize_applied(
            ledger,
            &p.batch,
            &p.waves,
            outcomes,
            p.commit_start,
            p.committed,
        );
    }

    /// Commits one block through the pipelined executor.
    ///
    /// The returned [`BatchOutcome`]'s verdicts are final — byte-equal
    /// to [`crate::pipeline::commit_batch_planned`] on the same stream
    /// — but the block's state mutation is deferred: it executes on a
    /// background thread during the *next* call (or synchronously on
    /// [`CrossBlockPipeline::flush`]). `schedule` must cover the batch,
    /// exactly as for `commit_batch_planned`. Intra-block execution is
    /// always speculative here (the machinery is shared with the
    /// cross-block chain); [`PipelineOptions::speculation`] is not
    /// consulted — outcomes are identical either way.
    pub fn commit(
        &mut self,
        ledger: &mut LedgerState,
        batch: &[Arc<Transaction>],
        schedule: &WaveSchedule,
        options: &PipelineOptions,
    ) -> BatchOutcome {
        let mut outcome = BatchOutcome::default();
        if batch.is_empty() {
            self.flush(ledger, options.workers);
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
        outcome.waves = schedule.waves.len();
        outcome.widest_wave = schedule.waves.iter().map(Vec::len).max().unwrap_or(0);

        let traced = options.telemetry.is_enabled();
        let block_clock = traced.then(Stopwatch::new);
        let mut clock = StageClock::new(traced);

        // Detach the previous block: its predicted chain becomes the
        // `prior` segment this block speculates through, its diverged
        // keys seed this block's re-validation set.
        let mut prev = self.pending.take();
        let (prior, prev_diverged) = match prev.as_mut() {
            Some(p) => (
                std::mem::take(&mut p.predicted),
                std::mem::take(&mut p.diverged),
            ),
            None => (Vec::new(), Vec::new()),
        };
        outcome.speculative = schedule.waves.len() > 1 || prev.is_some();
        let workers = options.workers;

        // Overlap: the pending block's sharded UTXO apply on a
        // background thread; this block's overlay prediction and
        // speculative validation here. Both sides share `&LedgerState`
        // — the apply mutates only under the per-shard locks, and every
        // entry it touches is shadowed by `prior`, so reads through the
        // chained view are deterministic (module docs).
        let (predicted, mut spec_verdicts, prev_outcomes, prev_wal_err, apply_ns, validate_ns) =
            clock.time("overlap", || {
                let ledger_ref: &LedgerState = &*ledger;
                let prev_ref = prev.as_mut();
                std::thread::scope(|scope| {
                    let apply = scope.spawn(move || {
                        // Deferred-apply wall time: how long the previous
                        // block's WAL logging + seal + sharded UTXO apply
                        // actually ran hidden behind this block's
                        // validation. In durable mode the WAL/fsync cost
                        // dominates, and it is pure I/O wait — exactly
                        // the work a single core can overlap.
                        let apply_clock = traced.then(Stopwatch::new);
                        let mut wal_err: Option<String> = None;
                        let outcomes = prev_ref.map(|p| {
                            // Async seal: log every wave then seal, strictly
                            // before the apply — the durability commit point
                            // for block h lands before block h's effects
                            // mutate the ledger, and before block h+1's seal
                            // can run (pendings are serial). On failure the
                            // store latches; the apply still proceeds —
                            // verdicts were already returned — and recovery
                            // lands on the last good seal.
                            if let Some(store) = ledger_ref.durable_store() {
                                if let Err(e) = log_and_seal(store, p) {
                                    wal_err = Some(e.to_string());
                                }
                            }
                            p.waves
                                .iter_mut()
                                .map(|wave| {
                                    let wave_txs: Vec<&Arc<Transaction>> =
                                        wave.members.iter().map(|&i| &p.batch[i]).collect();
                                    ledger_ref.apply_wave_utxos(
                                        &wave_txs,
                                        std::mem::take(&mut wave.effects),
                                        workers,
                                    )
                                })
                                .collect::<Vec<Vec<ApplyOutcome>>>()
                        });
                        (
                            outcomes,
                            wal_err,
                            apply_clock.map(|c| c.elapsed_ns()).unwrap_or(0),
                        )
                    });
                    let validate_clock = traced.then(Stopwatch::new);

                    // Predict this block's overlays, wave by wave, against
                    // base + prior + own earlier waves (serial: prediction
                    // is footprint-cheap, no signature work).
                    let mut predicted: Vec<WaveOverlay> = Vec::with_capacity(schedule.waves.len());
                    for wave in &schedule.waves {
                        let members: Vec<&Arc<Transaction>> =
                            wave.iter().map(|&i| &batch[i]).collect();
                        let view = SpeculativeView::chained(ledger_ref, &prior, &predicted);
                        predicted.push(WaveOverlay::predict(&members, &view, workers));
                    }

                    // Speculatively validate every member in one pool, wave
                    // `k` against base + prior + predicted[..k] — signature
                    // checks and marketplace conditions overlap the apply.
                    let tasks: Vec<(usize, usize)> = schedule
                        .waves
                        .iter()
                        .enumerate()
                        .flat_map(|(k, wave)| wave.iter().map(move |&index| (index, k)))
                        .collect();
                    let results = parallel_map(tasks.len(), workers, |slot| {
                        let (index, k) = tasks[slot];
                        let view = SpeculativeView::chained(ledger_ref, &prior, &predicted[..k]);
                        validate_transaction(&batch[index], &view)
                    });
                    let mut verdicts: Vec<Option<Result<(), ValidationError>>> =
                        batch.iter().map(|_| None).collect();
                    for (slot, verdict) in results.into_iter().enumerate() {
                        verdicts[tasks[slot].0] = Some(verdict);
                    }
                    let validate_ns = validate_clock.map(|c| c.elapsed_ns()).unwrap_or(0);
                    let (prev_outcomes, prev_wal_err, apply_ns) =
                        apply.join().expect("pending-apply thread");
                    (
                        predicted,
                        verdicts,
                        prev_outcomes,
                        prev_wal_err,
                        apply_ns,
                        validate_ns,
                    )
                })
            });
        if let Some(why) = prev_wal_err {
            self.wal_failure.get_or_insert(why);
        }
        if traced && prev.is_some() {
            // The share of the deferred apply fully hidden behind this
            // block's prediction + speculative validation — the wall
            // time the overlap won over block-at-a-time execution.
            options
                .telemetry
                .observe_ns("cross_block.deferred_apply_ns", apply_ns);
            options
                .telemetry
                .add("cross_block.overlap_won_ns", apply_ns.min(validate_ns));
            clock.count("deferred_apply_ns", apply_ns);
            clock.count("overlap_won_ns", apply_ns.min(validate_ns));
        }

        // Finalize the previous block serially: index bookkeeping in
        // wave order, then its commit-order tail.
        if let Some(p) = prev {
            clock.time("finalize_prev", || {
                finalize_applied(
                    ledger,
                    &p.batch,
                    &p.waves,
                    prev_outcomes.expect("outcomes for the pending block"),
                    p.commit_start,
                    p.committed,
                )
            });
        }
        let commit_start = ledger.committed_ids().len();
        let resolve_clock = traced.then(Stopwatch::new);

        // Resolve: wave by wave, re-validate exactly the members whose
        // footprint intersects a diverged write (from the previous
        // block or from an earlier wave of this one) against the exact
        // state `base + corrected`, then derive the wave's *actual*
        // overlay from its survivors.
        let base: &LedgerState = &*ledger;
        let mut diverged: HashSet<ConflictKey> = prev_diverged.into_iter().collect();
        let mut next_diverged: HashSet<ConflictKey> = HashSet::new();
        let mut corrected: Vec<WaveOverlay> = Vec::with_capacity(schedule.waves.len());
        let mut pending_waves: Vec<PendingWave> = Vec::with_capacity(schedule.waves.len());
        let mut accepted: Vec<usize> = Vec::with_capacity(batch.len());
        for wave in &schedule.waves {
            let dirty: Vec<bool> = wave
                .iter()
                .map(|&index| {
                    let fp = &schedule.footprints[index];
                    fp.reads
                        .iter()
                        .chain(fp.writes.iter())
                        .any(|key| diverged.contains(key))
                })
                .collect();
            let dirty_members: Vec<usize> = wave
                .iter()
                .zip(&dirty)
                .filter(|(_, d)| **d)
                .map(|(&index, _)| index)
                .collect();
            outcome.re_validated += dirty_members.len();
            let fresh = parallel_map(dirty_members.len(), workers, |slot| {
                let view = SpeculativeView::new(base, &corrected);
                validate_transaction(&batch[dirty_members[slot]], &view)
            });
            let mut fresh = fresh.into_iter();

            let mut survivors: Vec<usize> = Vec::with_capacity(wave.len());
            for (j, &index) in wave.iter().enumerate() {
                let verdict = if dirty[j] {
                    fresh.next().expect("one fresh verdict per dirty member")
                } else {
                    spec_verdicts[index]
                        .take()
                        .expect("speculated exactly once")
                };
                // The injection harness aborts the member exactly where
                // the block-at-a-time apply would — after validation
                // passed — with the identical rejection.
                let verdict = match verdict {
                    Ok(()) if options.fail_apply.contains(batch[index].id.as_str()) => {
                        Err(ValidationError::DoubleSpend(format!(
                            "injected apply failure for {}",
                            batch[index].id
                        )))
                    }
                    v => v,
                };
                match verdict {
                    Ok(()) => survivors.push(index),
                    Err(e) => outcome.rejected.push((index, e)),
                }
            }

            // Divergence bookkeeping, mirroring the block-at-a-time
            // resolve: every member that did not commit — and,
            // conservatively, every re-validated member (its predicted
            // overlay entry may be stale) — taints its write keys for
            // later waves AND for the next block.
            let survivor_set: HashSet<usize> = survivors.iter().copied().collect();
            for (j, &index) in wave.iter().enumerate() {
                if dirty[j] || !survivor_set.contains(&index) {
                    for key in &schedule.footprints[index].writes {
                        diverged.insert(key.clone());
                        next_diverged.insert(key.clone());
                    }
                }
            }

            // The wave's actual overlay: survivors only, effects
            // derived against the exact resolved state — these are the
            // very plans the deferred apply will execute.
            let members: Vec<&Arc<Transaction>> = survivors.iter().map(|&i| &batch[i]).collect();
            let mut overlay =
                WaveOverlay::predict(&members, &SpeculativeView::new(base, &corrected), workers);
            let effects = overlay.take_effects();
            corrected.push(overlay);
            pending_waves.push(PendingWave {
                members: survivors.clone(),
                effects,
            });
            accepted.extend(survivors);
        }

        if let Some(c) = resolve_clock {
            clock.charge("resolve", c.elapsed_ns());
        }
        clock.count("re_validated", outcome.re_validated as u64);
        clock.count("diverged_keys", next_diverged.len() as u64);

        // Commit order is submission order, as everywhere.
        accepted.sort_unstable();
        outcome.committed = accepted.iter().map(|&i| batch[i].id.clone()).collect();
        outcome.rejected.sort_unstable_by_key(|(i, _)| *i);
        forget_rejected(base, batch, &outcome);

        // The exact post-apply digest: base (post previous block) plus
        // each actual overlay's folded deltas — O(block footprint).
        let post_digest = clock.time("digest", || {
            let mut post_digest = base.state_digest();
            for (k, overlay) in corrected.iter().enumerate() {
                let below = SpeculativeView::new(base, &corrected[..k]);
                fold_overlay_digest(&mut post_digest, overlay, &below);
            }
            post_digest
        });

        // Durable mode defers the WAL too: this block's wave records
        // and seal ride the background thread of the *next* commit (or
        // land synchronously on flush), strictly before its apply —
        // the seal rule holds, the commit point just moves off the
        // deliver-to-commit path. The payload is frozen now, while the
        // verdicts are final and the plans exact. A failure latched by
        // an earlier async seal is surfaced on this outcome: verdicts
        // already handed out stand in memory, but the caller learns
        // durability is gone until the store reopens.
        let (docs, aborted) = if ledger.durable_store().is_some() {
            (
                accepted.iter().map(|&i| batch[i].to_value()).collect(),
                outcome
                    .rejected
                    .iter()
                    .map(|(i, _)| batch[*i].id.clone())
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        outcome.wal_error = self.wal_failure.clone();

        if let Some(block_clock) = block_clock {
            record_commit(
                &options.telemetry,
                "cross_block",
                clock,
                block_clock.elapsed_ns(),
                batch.len(),
                &outcome,
            );
        }

        self.pending = Some(PendingBlock {
            batch: batch.to_vec(),
            waves: pending_waves,
            predicted,
            corrected,
            diverged: next_diverged.into_iter().collect(),
            commit_start,
            committed: outcome.committed.clone(),
            post_digest,
            docs,
            aborted,
        });
        outcome
    }
}

/// The serial half of a deferred apply: index bookkeeping for every
/// successfully applied member (wave order), then the block's
/// commit-order tail. A late apply failure is impossible when the
/// resolve was correct — validation ran against exactly the pre-apply
/// state and wave members are conflict-free — so it debug-asserts; in
/// release the failed member is simply left uncommitted and the tail
/// shrinks around it rather than corrupting the order.
fn finalize_applied(
    ledger: &mut LedgerState,
    batch: &[Arc<Transaction>],
    waves: &[PendingWave],
    outcomes: Vec<Vec<ApplyOutcome>>,
    commit_start: usize,
    committed: Vec<String>,
) {
    let mut failed: HashSet<String> = HashSet::new();
    for (wave, wave_outcomes) in waves.iter().zip(outcomes) {
        for (&index, (spends, verdict)) in wave.members.iter().zip(wave_outcomes) {
            match verdict {
                Ok(()) => ledger.record_indexes(&batch[index], &spends),
                Err(e) => {
                    debug_assert!(
                        false,
                        "pending member {} failed late apply: {e}",
                        batch[index].id
                    );
                    failed.insert(batch[index].id.clone());
                }
            }
        }
    }
    if failed.is_empty() {
        ledger.set_commit_order_tail(commit_start, &committed);
    } else {
        let survivors: Vec<String> = committed
            .into_iter()
            .filter(|id| !failed.contains(id))
            .collect();
        ledger.set_commit_order_tail(commit_start, &survivors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TxBuilder;
    use crate::pipeline::{commit_batch, plan_schedule};
    use crate::view::LedgerView;
    use scdb_crypto::KeyPair;
    use scdb_json::obj;

    fn keys(seed: u8) -> KeyPair {
        KeyPair::from_seed([seed; 32])
    }

    fn create(owner: &KeyPair, amount: u64, nonce: u64) -> Arc<Transaction> {
        Arc::new(
            TxBuilder::create(obj! { "kind" => "widget" })
                .output(owner.public_hex(), amount)
                .nonce(nonce)
                .sign(&[owner]),
        )
    }

    /// Spend `src`'s output 0, handing the full amount to `to`.
    fn transfer(src: &Transaction, from: &KeyPair, to: &KeyPair, amount: u64) -> Arc<Transaction> {
        let asset_id = match &src.asset {
            crate::model::AssetRef::Id(id) => id.clone(),
            _ => src.id.clone(),
        };
        Arc::new(
            TxBuilder::transfer(asset_id)
                .input(src.id.clone(), 0, vec![from.public_hex()])
                .output_with_prev(to.public_hex(), amount, vec![from.public_hex()])
                .sign(&[from]),
        )
    }

    /// Feeds `blocks` through the cross-block pipeline, scheduling each
    /// against the pending-aware view exactly as the node does, then
    /// flushes. Also pins `pending_digest` against the flushed state.
    fn run_cross(
        blocks: &[Vec<Arc<Transaction>>],
        options: &PipelineOptions,
    ) -> (LedgerState, Vec<BatchOutcome>) {
        let mut ledger = LedgerState::new();
        let mut cross = CrossBlockPipeline::new();
        let mut outcomes = Vec::new();
        for block in blocks {
            let schedule = {
                let view = SpeculativeView::new(&ledger, cross.pending_overlays());
                plan_schedule(block, &view)
            };
            outcomes.push(cross.commit(&mut ledger, block, &schedule, options));
            assert!(cross.has_pending());
        }
        let advertised = cross.pending_digest();
        cross.flush(&mut ledger, options.workers);
        assert!(!cross.has_pending());
        if let Some(digest) = advertised {
            assert_eq!(
                digest,
                ledger.state_digest(),
                "pending digest must equal the flushed state's digest"
            );
        }
        (ledger, outcomes)
    }

    fn run_oracle(
        blocks: &[Vec<Arc<Transaction>>],
        options: &PipelineOptions,
    ) -> (LedgerState, Vec<BatchOutcome>) {
        let mut ledger = LedgerState::new();
        let outcomes = blocks
            .iter()
            .map(|block| commit_batch(&mut ledger, block, options))
            .collect();
        (ledger, outcomes)
    }

    fn assert_equivalent(
        cross: &(LedgerState, Vec<BatchOutcome>),
        oracle: &(LedgerState, Vec<BatchOutcome>),
    ) {
        for (k, (c, o)) in cross.1.iter().zip(&oracle.1).enumerate() {
            assert_eq!(c.committed, o.committed, "block {k} committed ids");
            let cr: Vec<(usize, String)> = c
                .rejected
                .iter()
                .map(|(i, e)| (*i, e.to_string()))
                .collect();
            let or: Vec<(usize, String)> = o
                .rejected
                .iter()
                .map(|(i, e)| (*i, e.to_string()))
                .collect();
            assert_eq!(cr, or, "block {k} rejections");
        }
        assert_eq!(cross.0.committed_ids(), oracle.0.committed_ids());
        assert_eq!(cross.0.state_digest(), oracle.0.state_digest());
        assert_eq!(cross.0.utxos().snapshot(), oracle.0.utxos().snapshot());
    }

    #[test]
    fn cross_block_dependency_chain_matches_oracle() {
        let alice = keys(0xA1);
        let bob = keys(0xB0);
        let carol = keys(0xC4);
        let c1 = create(&alice, 3, 1);
        let c2 = create(&bob, 2, 2);
        let t1 = transfer(&c1, &alice, &bob, 3);
        let t2 = transfer(&t1, &bob, &carol, 3);
        // Block 2's t2 spends an output block 1 has not applied yet
        // when its validation runs — only the overlay chain sees it.
        let blocks = vec![vec![c1, c2, t1], vec![t2]];
        let options = PipelineOptions::with_workers(4);
        let cross = run_cross(&blocks, &options);
        let oracle = run_oracle(&blocks, &options);
        assert!(cross.1.iter().all(|o| o.rejected.is_empty()));
        assert_eq!(
            cross.1[1].re_validated, 0,
            "clean chain needs no re-validation"
        );
        assert_equivalent(&cross, &oracle);
    }

    #[test]
    fn mispredicted_block_revalidates_dependents() {
        let alice = keys(0xA1);
        let bob = keys(0xB0);
        let carol = keys(0xC4);
        let c1 = create(&alice, 3, 1);
        // t1 and t2 race for the same output: t2 loses in a later wave.
        let t1 = transfer(&c1, &alice, &bob, 3);
        let t2 = transfer(&c1, &alice, &carol, 3);
        // t3 spends the LOSER's output — block 1's predicted overlays
        // still contain it (prediction is pre-resolve), so t3's
        // speculative verdict is a mis-predicted Ok that only the
        // divergence-targeted re-validation can correct.
        let t3 = transfer(&t2, &carol, &bob, 3);
        let blocks = vec![vec![c1], vec![t1, t2], vec![t3]];
        let options = PipelineOptions::with_workers(4);
        let cross = run_cross(&blocks, &options);
        let oracle = run_oracle(&blocks, &options);
        assert_eq!(cross.1[1].rejected.len(), 1, "double spend must lose");
        assert!(cross.1[2].re_validated >= 1, "t3 must be re-validated");
        assert_eq!(
            cross.1[2].rejected.len(),
            1,
            "t3 spends a nonexistent output"
        );
        assert_equivalent(&cross, &oracle);
    }

    #[test]
    fn injected_apply_failure_cascades_to_dependents() {
        let alice = keys(0xA1);
        let bob = keys(0xB0);
        let carol = keys(0xC4);
        let c1 = create(&alice, 3, 1);
        let t1 = transfer(&c1, &alice, &bob, 3);
        let t2 = transfer(&t1, &bob, &carol, 3);
        let options = PipelineOptions::with_workers(4).inject_apply_failure(t1.id.clone());
        // Block 1's t1 aborts mid-apply; block 2's t2 speculated
        // against t1's predicted effects and must be re-validated and
        // rejected once the divergence lands.
        let blocks = vec![vec![c1, t1], vec![t2]];
        let cross = run_cross(&blocks, &options);
        let oracle = run_oracle(&blocks, &options);
        assert_eq!(cross.1[0].rejected.len(), 1, "injected abort rejects t1");
        assert!(cross.1[1].re_validated >= 1, "t2 must be re-validated");
        assert_eq!(cross.1[1].rejected.len(), 1, "t2's funding never existed");
        assert_equivalent(&cross, &oracle);
    }

    #[test]
    fn pending_overlays_present_the_uncommitted_block() {
        let alice = keys(0xA1);
        let bob = keys(0xB0);
        let c1 = create(&alice, 3, 1);
        let t1 = transfer(&c1, &alice, &bob, 3);
        let mut ledger = LedgerState::new();
        let mut cross = CrossBlockPipeline::new();
        let batch = vec![c1.clone(), t1.clone()];
        let schedule = plan_schedule(&batch, &ledger);
        let outcome = cross.commit(
            &mut ledger,
            &batch,
            &schedule,
            &PipelineOptions::with_workers(2),
        );
        assert_eq!(outcome.committed.len(), 2);
        // The raw ledger knows nothing yet; the pending view knows all.
        assert!(ledger.committed_ids().is_empty());
        let view = SpeculativeView::new(&ledger, cross.pending_overlays());
        assert!(view.get(&t1.id).is_some());
        assert!(view.is_unspent_output(&scdb_store::OutputRef::new(t1.id.clone(), 0)));
        assert!(!view.is_unspent_output(&scdb_store::OutputRef::new(c1.id.clone(), 0)));
        cross.flush(&mut ledger, 2);
        assert_eq!(ledger.committed_ids(), &[c1.id.clone(), t1.id.clone()]);
        // Flushing again (or with nothing pending) is a no-op.
        cross.flush(&mut ledger, 2);
        assert_eq!(ledger.committed_ids().len(), 2);
        // An empty commit drains the pending block too.
        let empty_schedule = plan_schedule(&[], &ledger);
        let empty = cross.commit(
            &mut ledger,
            &[],
            &empty_schedule,
            &PipelineOptions::with_workers(2),
        );
        assert!(empty.committed.is_empty());
        assert!(!cross.has_pending());
    }
}
