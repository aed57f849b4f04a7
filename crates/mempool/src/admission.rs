//! Staged parallel batch admission.
//!
//! [`Mempool::admit`] decides one transaction at a time; this module
//! admits a whole arrival batch through three stages without changing
//! a single verdict, receipt, or pool state bit:
//!
//! 1. **Screen** (stateless, worker pool): parse-independent checks
//!    per member — the duplicate-id probe, template shape (Algorithm
//!    1), the id tamper check, and the signing payload — all off the
//!    pool, in one `to_value` walk per member. A member already
//!    pending or committed is screened out *before* any signature
//!    work, so duplicate floods never reach the crypto stage.
//! 2. **Batch signature verification**: every screened-in member's
//!    input signatures pool into [`batch_verify_input_signatures`] —
//!    one random-linear-combination ed25519 batch equation per worker
//!    chunk, bisecting on failure — with per-member verdicts identical
//!    to the serial check's, same first-failing-input precedence, same
//!    error strings.
//! 3. **Sharded admission** (serial cascade, deferred index apply):
//!    members are decided in arrival order through exactly the serial
//!    cascade — live duplicate/capacity/sender-cap checks, footprint
//!    derivation against the batch-so-far pool — and their footprint
//!    keys are batched into one shard-parallel index apply
//!    ([`FootprintIndex::apply_admissions`][crate::index::FootprintIndex])
//!    that reconstructs each member's pre-insert conflict set and
//!    double-spend flag position-exactly.
//!
//! Equivalence to the serial loop is the design invariant (the
//! differential property test pins it): `admission_workers = 1` *is*
//! the serial loop, and any other worker count must be byte-identical
//! — verdict strings, receipts, seqs, stats, and every later drain.
//! The one deliberate divergence is effort, not outcome: a member the
//! serial loop would reject at the pool-full or sender-cap step (or an
//! intra-batch duplicate) may still have burned a screen/signature
//! slot in stages 1–2. See `DESIGN-mempool.md` § Admission pipeline.

use crate::pool::{
    screen_error, sender_key, signed_by_input_owners, AdmitError, AdmitReceipt, Mempool, PendingTx,
    PoolLookup,
};
use scdb_core::pipeline::{footprint, unresolved_links};
use scdb_core::validate::{batch_verify_input_signatures, stateless_screen};
use scdb_core::{map_chunks, parallel_map};
use scdb_core::{LedgerView, Transaction, ValidationError};
use std::collections::HashMap;
use std::sync::Arc;

/// Stage-1 outcome for one batch member.
enum Screened {
    /// Already pending or committed at screen time — no further
    /// stateless work, and (satellite of the pipeline) no signature
    /// slot. Both conditions can only persist until stage 3, which
    /// re-reads them live for the exact serial error.
    Duplicate,
    Checked {
        /// The shared stateless screen's verdict: the schema or id
        /// rejection, else the signing payload — `Some` iff this member
        /// is eligible for stage 2 (not ACCEPT_BID, shape and id
        /// clean), which is exactly when the serial cascade would
        /// reach its signature step.
        stateless: Result<Option<String>, ValidationError>,
        /// The ledger half of the double-spend flag: some spent input
        /// is already marked spent on the committed UTXO set. Output
        /// write keys are derived from `inputs[*].fulfills` alone, so
        /// this is computable statelessly and cannot drift from the
        /// stage-3 footprint.
        ledger_spent: bool,
        sender: String,
    },
}

fn screen(tx: &Transaction, by_id: &HashMap<String, u64>, ledger: &impl LedgerView) -> Screened {
    if by_id.contains_key(&tx.id) || ledger.is_committed(&tx.id) {
        return Screened::Duplicate;
    }
    let stateless = stateless_screen(tx, signed_by_input_owners(tx));
    let ledger_spent = tx
        .inputs
        .iter()
        .filter_map(|i| i.fulfills.as_ref())
        .any(|f| {
            let out = scdb_store::OutputRef::new(f.tx_id.clone(), f.output_index);
            ledger.utxo(&out).is_some_and(|u| u.spent_by.is_some())
        });
    Screened::Checked {
        stateless,
        ledger_spent,
        sender: sender_key(tx),
    }
}

/// A stage-3 admission whose conflict set, flag, and receipt await the
/// shard-parallel index apply.
struct Deferred {
    /// Position in the input batch (for the results slot).
    pos: usize,
    seq: u64,
    ledger_spent: bool,
}

impl Mempool {
    /// Admits a batch of transactions through the staged pipeline,
    /// returning one verdict per member in input order — each
    /// byte-identical to what a loop of [`Mempool::admit`] over the
    /// same slice would produce, including receipts, stats, and every
    /// subsequent drain. With `admission_workers` ≤ 1 (or a batch of
    /// one) it *is* that loop.
    pub fn admit_batch(
        &mut self,
        txs: &[Arc<Transaction>],
        ledger: &impl LedgerView,
    ) -> Vec<Result<AdmitReceipt, AdmitError>> {
        let workers = self.config.admission_workers;
        if workers <= 1 || txs.len() <= 1 {
            // The serial pin: workers = 1 means the member-by-member
            // loop, not a one-worker pipeline.
            return txs
                .iter()
                .map(|tx| self.admit(Arc::clone(tx), ledger))
                .collect();
        }

        let telemetry = self.config.telemetry.clone();

        // Stage 1: stateless screen, fanned out over the worker pool.
        let screened: Vec<Screened> = {
            let _span = telemetry.span("mempool.stage1_screen_ns");
            let by_id = &self.by_id;
            parallel_map(txs.len(), workers, |i| screen(&txs[i], by_id, ledger))
        };

        // Stage 2: pooled signature verification for every eligible
        // member, chunked across the workers. Verdicts are per-member,
        // so the chunking never shows through.
        let mut sig_verdicts: Vec<Option<Result<(), ValidationError>>> =
            (0..txs.len()).map(|_| None).collect();
        let eligible: Vec<usize> = screened
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                matches!(
                    s,
                    Screened::Checked {
                        stateless: Ok(Some(_)),
                        ..
                    }
                )
            })
            .map(|(i, _)| i)
            .collect();
        if !eligible.is_empty() {
            let _span = telemetry.span("mempool.stage2_verify_ns");
            let items: Vec<(&Transaction, &str)> = eligible
                .iter()
                .map(|&i| {
                    let Screened::Checked {
                        stateless: Ok(Some(payload)),
                        ..
                    } = &screened[i]
                    else {
                        unreachable!("eligible members carry a payload")
                    };
                    (&*txs[i], payload.as_str())
                })
                .collect();
            let verdicts = map_chunks(&items, workers, batch_verify_input_signatures);
            if telemetry.is_enabled() {
                telemetry.add("mempool.sig_batches", verdicts.len() as u64);
                // A chunk carrying any per-member failure means its
                // pooled RLC equation failed and the bisect fallback
                // ran to isolate the culprits.
                let bisected = verdicts
                    .iter()
                    .filter(|chunk| chunk.iter().any(Result::is_err))
                    .count();
                telemetry.add("mempool.sig_bisect_chunks", bisected as u64);
            }
            for (verdict, &i) in verdicts.into_iter().flatten().zip(&eligible) {
                sig_verdicts[i] = Some(verdict);
            }
        }

        // Stage 3: the serial cascade in arrival order, with index
        // application deferred so it can land shard-parallel. The
        // deferral flushes early whenever an admitted id resolves a
        // waiter — `on_arrival` re-derives footprints against the
        // index, which must be caught up to that point.
        let mut results: Vec<Option<Result<AdmitReceipt, AdmitError>>> =
            (0..txs.len()).map(|_| None).collect();
        let mut deferred: Vec<Deferred> = Vec::new();
        let stage3_span = telemetry.span("mempool.stage3_decide_ns");
        for (i, screened) in screened.into_iter().enumerate() {
            let tx = &txs[i];
            let verdict = match screened {
                Screened::Duplicate => {
                    // Still true (the pool only grew); re-read for the
                    // serial check order's exact error.
                    let err = if self.by_id.contains_key(&tx.id) {
                        AdmitError::DuplicatePending(tx.id.clone())
                    } else {
                        AdmitError::AlreadyCommitted(tx.id.clone())
                    };
                    Some(err)
                }
                Screened::Checked {
                    stateless,
                    ledger_spent,
                    sender,
                } => {
                    match self.decide_screened(
                        tx,
                        i,
                        stateless,
                        ledger_spent,
                        sender,
                        &mut sig_verdicts[i],
                        &mut deferred,
                        ledger,
                    ) {
                        Ok(resolves_waiter) => {
                            if resolves_waiter {
                                let seq = deferred.last().expect("just deferred").seq;
                                self.flush_admitted(&mut deferred, &mut results);
                                self.on_arrival(seq, ledger);
                            }
                            None
                        }
                        Err(e) => Some(e),
                    }
                }
            };
            if let Some(e) = verdict {
                results[i] = Some(Err(self.count_reject(e)));
            }
        }
        self.flush_admitted(&mut deferred, &mut results);
        stage3_span.stop();
        results
            .into_iter()
            .map(|r| r.expect("every member decided"))
            .collect()
    }

    /// Parses and admits a batch of serialized payloads (the batch RPC
    /// surface): parallel parse, then [`Mempool::admit_batch`] over
    /// the survivors, with parse failures slotted in input order.
    pub fn admit_payload_batch(
        &mut self,
        payloads: &[String],
        ledger: &impl LedgerView,
    ) -> Vec<Result<AdmitReceipt, AdmitError>> {
        let workers = self.config.admission_workers;
        if workers <= 1 || payloads.len() <= 1 {
            return payloads
                .iter()
                .map(|p| self.admit_payload(p, ledger))
                .collect();
        }
        let parsed = parallel_map(payloads.len(), workers, |i| {
            Transaction::from_payload(&payloads[i])
                .map(Arc::new)
                .map_err(|e| AdmitError::Parse(e.to_string()))
        });
        let mut results: Vec<Option<Result<AdmitReceipt, AdmitError>>> =
            (0..payloads.len()).map(|_| None).collect();
        let mut txs = Vec::with_capacity(payloads.len());
        let mut positions = Vec::with_capacity(payloads.len());
        for (i, outcome) in parsed.into_iter().enumerate() {
            match outcome {
                Ok(tx) => {
                    positions.push(i);
                    txs.push(tx);
                }
                Err(e) => results[i] = Some(Err(self.count_reject(e))),
            }
        }
        for (verdict, i) in self.admit_batch(&txs, ledger).into_iter().zip(positions) {
            results[i] = Some(verdict);
        }
        results
            .into_iter()
            .map(|r| r.expect("every payload decided"))
            .collect()
    }

    /// The stage-3 cascade for one screened-in member: exactly the
    /// serial [`Mempool::admit`] check order, with the conflict scan
    /// and index insert deferred. `Ok(true)` means the admitted id has
    /// waiters and the caller must flush + `on_arrival` immediately.
    #[allow(clippy::too_many_arguments)]
    fn decide_screened(
        &mut self,
        tx: &Arc<Transaction>,
        pos: usize,
        stateless: Result<Option<String>, ValidationError>,
        ledger_spent: bool,
        sender: String,
        sig_verdict: &mut Option<Result<(), ValidationError>>,
        deferred: &mut Vec<Deferred>,
        ledger: &impl LedgerView,
    ) -> Result<bool, AdmitError> {
        // Live re-checks in the serial order: an earlier batch member
        // may have taken this id or the last pool slot since stage 1.
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
        if stateless.map_err(screen_error)?.is_some() {
            // Shape and id were clean in stage 1 and are stateless, so
            // this member was stage-2 eligible and has a verdict.
            let verdict = sig_verdict.take().expect("eligible member has a verdict");
            if let Err(e) = verdict {
                return Err(AdmitError::InvalidSignature(e.to_string()));
            }
        }
        let in_flight = self.per_sender.get(&sender).copied().unwrap_or(0);
        if in_flight >= self.config.max_per_sender {
            return Err(AdmitError::SenderCapExceeded {
                sender,
                cap: self.config.max_per_sender,
            });
        }

        let (fp, unresolved) = {
            let lookup = PoolLookup {
                by_id: &self.by_id,
                pending: &self.pending,
            };
            (
                footprint(tx, &lookup, ledger),
                unresolved_links(tx, &lookup, ledger),
            )
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        let resolves_waiter = self.waiting_on.contains_key(&tx.id);
        self.insert_pending_core(PendingTx {
            seq,
            tx: Arc::clone(tx),
            footprint: fp,
            flagged: false, // settled at flush, before any receipt
            sender,
            unresolved,
            accept_sig_checked: false,
        });
        self.record_admitted(tx, ledger);
        self.stats.admitted += 1;
        self.config.telemetry.incr("mempool.admitted");
        deferred.push(Deferred {
            pos,
            seq,
            ledger_spent,
        });
        Ok(resolves_waiter)
    }

    /// Lands every deferred admission's footprint keys in one
    /// shard-parallel index apply and settles its conflict set,
    /// double-spend flag, and receipt — each position-exact to the
    /// serial loop's pre-insert scan.
    fn flush_admitted(
        &mut self,
        deferred: &mut Vec<Deferred>,
        results: &mut [Option<Result<AdmitReceipt, AdmitError>>],
    ) {
        if deferred.is_empty() {
            return;
        }
        let applied = {
            let _span = self.config.telemetry.span("mempool.index_apply_ns");
            let admitted: Vec<(u64, &scdb_core::pipeline::Footprint)> = deferred
                .iter()
                .map(|d| (d.seq, &self.pending[&d.seq].footprint))
                .collect();
            self.index
                .apply_admissions(self.config.admission_workers, &admitted)
        };
        for (d, (conflicts, writer_hit)) in deferred.drain(..).zip(applied) {
            let flagged = writer_hit || d.ledger_spent;
            self.pending
                .get_mut(&d.seq)
                .expect("deferred member is pending")
                .flagged = flagged;
            if flagged {
                self.stats.flagged += 1;
            }
            results[d.pos] = Some(Ok(AdmitReceipt {
                seq: d.seq,
                flagged,
                conflicts: conflicts.len(),
            }));
        }
    }
}
