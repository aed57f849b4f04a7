//! Staged batch admission.
//!
//! [`Mempool::admit`] decides one transaction at a time;
//! [`Mempool::admit_batch`] decides a whole arrival batch through the
//! same cascade, with its two costly stateless steps fanned out first:
//!
//! 1. **Screen** (worker pool): per member, the duplicate-id probe,
//!    then template shape (Algorithm 1), the id tamper check and the
//!    signing payload in one `to_value` walk. A member already pending
//!    or committed is screened out before any signature work, so
//!    duplicate floods never reach stage 2.
//! 2. **Pooled signature verification**: every screened-in member's
//!    input signatures pool into [`batch_verify_input_signatures`] —
//!    one random-linear-combination ed25519 batch equation per worker
//!    chunk, bisecting on failure — with per-member verdicts identical
//!    to the single check's: same first-failing-input precedence, same
//!    error strings.
//! 3. **Decide** (in arrival order): each member goes through `decide`,
//!    the step `admit` itself ends in. It re-checks duplicate,
//!    committed and pool-full against the live pool, reads the
//!    member's stage 1–2 verdicts where `admit` would compute them,
//!    checks the sender cap, and places the member: footprint,
//!    double-spend flag, conflict set, index insert, waiters refreshed.
//!
//! So verdict strings, receipts, seqs, stats and every later drain are
//! those of a loop of `admit` over the same batch, at any worker count
//! (the differential property test pins it). The one divergence is
//! effort, not outcome: a member the loop would turn away at the
//! pool-full step (or as an intra-batch duplicate) may still have
//! spent a screen and signature slot in stages 1–2. See
//! `DESIGN-mempool.md` § Admission pipeline.

use crate::pool::{
    screen_error, signature_error, signed_by_input_owners, AdmitError, AdmitReceipt, Mempool,
};
use scdb_core::validate::{batch_verify_input_signatures, stateless_screen};
use scdb_core::{map_chunks, parallel_map, LedgerView, Transaction};
use std::sync::Arc;

impl Mempool {
    /// Admits a batch of transactions through the staged pipeline,
    /// returning one verdict per member in input order — each
    /// byte-identical to what a loop of [`Mempool::admit`] over the
    /// same slice would produce, including receipts, stats, and every
    /// subsequent drain.
    pub fn admit_batch(
        &mut self,
        txs: &[Arc<Transaction>],
        ledger: &impl LedgerView,
    ) -> Vec<Result<AdmitReceipt, AdmitError>> {
        let workers = self.config.admission_workers;
        let telemetry = self.config.telemetry.clone();

        // Stage 1: `None` for a member already pending or committed,
        // else the stateless screen's verdict — the schema or id
        // rejection, or the signing payload when the signature step
        // applies (every type but ACCEPT_BID).
        let screened = {
            let _span = telemetry.span("mempool.stage1_screen_ns");
            let by_id = &self.by_id;
            parallel_map(txs.len(), workers, |i| {
                let tx = &txs[i];
                let duplicate = by_id.contains_key(&tx.id) || ledger.is_committed(&tx.id);
                (!duplicate).then(|| stateless_screen(tx, signed_by_input_owners(tx)))
            })
        };

        // Stage 2: pooled signature verification of every member with a
        // signing payload, chunked across the workers. Verdicts are
        // per-member, so the chunking never shows through.
        let items: Vec<(&Transaction, &str)> = txs
            .iter()
            .zip(&screened)
            .filter_map(|(tx, screened)| match screened {
                Some(Ok(Some(payload))) => Some((&**tx, payload.as_str())),
                _ => None,
            })
            .collect();
        let mut signatures = if items.is_empty() {
            Vec::new()
        } else {
            let _span = telemetry.span("mempool.stage2_verify_ns");
            let chunks = map_chunks(&items, workers, batch_verify_input_signatures);
            if telemetry.is_enabled() {
                telemetry.add("mempool.sig_batches", chunks.len() as u64);
                // A chunk carrying any per-member failure means its
                // pooled RLC equation failed and the bisect fallback
                // ran to isolate the culprits.
                let bisected = chunks
                    .iter()
                    .filter(|chunk| chunk.iter().any(Result::is_err))
                    .count();
                telemetry.add("mempool.sig_bisect_chunks", bisected as u64);
            }
            chunks
        }
        .into_iter()
        .flatten();

        // Stage 3: every member, in arrival order, through the cascade
        // `admit` uses, its schema, id and signature steps answered by
        // stages 1–2. The answers are matched up front, so a member
        // the live checks turn away still consumes its verdict.
        let _span = telemetry.span("mempool.stage3_decide_ns");
        txs.iter()
            .zip(screened)
            .map(|(tx, screened)| {
                let checks = screened.map(|stateless| {
                    if stateless.map_err(screen_error)?.is_some() {
                        #[allow(
                            clippy::expect_used,
                            reason = "`items` holds exactly the members with a signing \
                                      payload, in this order, and every chunk yields one \
                                      verdict per item"
                        )]
                        let verdict = signatures.next().expect("one verdict per signing payload");
                        verdict.map_err(signature_error)?;
                    }
                    Ok(())
                });
                self.decide(Arc::clone(tx), ledger, |tx| {
                    // The pool only grows within a batch and the ledger
                    // stands still, so a member screened out as a
                    // duplicate fails the live re-check first; were it
                    // to get here, it is still turned away as one.
                    checks.unwrap_or_else(|| Err(AdmitError::DuplicatePending(tx.id.clone())))
                })
            })
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
        let parsed = parallel_map(payloads.len(), self.config.admission_workers, |i| {
            Transaction::from_payload(&payloads[i]).map(Arc::new)
        });
        let txs: Vec<Arc<Transaction>> = parsed.iter().flatten().cloned().collect();
        let mut admitted = self.admit_batch(&txs, ledger).into_iter();
        parsed
            .into_iter()
            .map(|parsed| match parsed {
                Ok(_) => {
                    #[allow(
                        clippy::expect_used,
                        reason = "`admit_batch` returns one verdict per member of `txs`, \
                                  and `txs` is the parsed payloads, in this order"
                    )]
                    let verdict = admitted.next().expect("one verdict per parsed payload");
                    verdict
                }
                Err(e) => Err(self.count_reject(AdmitError::Parse(e.to_string()))),
            })
            .collect()
    }
}
