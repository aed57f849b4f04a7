//! Predicted post-block state for the proposer's gossiped digest.
//!
//! The declarative model exposes every transaction's footprint
//! statically, so the state a wave *will* produce is predictable before
//! it commits: each transaction's UTXO plan and marketplace index
//! deltas follow from its typed content alone. A proposer uses that to
//! gossip the digest its block should leave behind
//! ([`predict_post_state_digest`], DESIGN-blocks.md) without executing
//! the block:
//!
//! * [`WaveOverlay`] — the predicted effects of one wave (new
//!   transactions, spends, created outputs, bid/accept/settlement index
//!   deltas), derived with the *same* effects routine the apply later
//!   executes ([`crate::ledger`]'s shared plan derivation);
//! * [`SpeculativeView`] — a [`LedgerView`] layering a chain of
//!   overlays over the committed [`LedgerState`], so wave `k+1`'s
//!   effects are predicted against `base + overlay(0..=k)` exactly as
//!   if the earlier waves had committed.
//!
//! Nothing here decides a verdict: the commit pipeline validates every
//! wave against committed state, and replicas treat the predicted
//! digest as a diagnostic. An overlay is immutable once predicted.

use crate::ledger::{index_delta, utxo_effects_for, IndexDelta, LedgerState};
use crate::model::Transaction;
use crate::par::parallel_map;
use crate::verified::VerifiedSigners;
use crate::view::LedgerView;
use scdb_store::{entry_hash, OutputRef, StateDigest, Utxo};
use std::collections::HashMap;
use std::sync::Arc;

/// The predicted post-state delta of one conflict-free wave: what the
/// ledger will look like after the wave applies, assuming every member
/// commits. Mirrors exactly the mutations `LedgerState` makes on apply
/// (UTXO spends/adds plus the marketplace indexes of
/// `record_indexes`), derived read-only.
#[derive(Default)]
pub struct WaveOverlay {
    /// Wave members by id (the wave's `Id` writes).
    txs: HashMap<String, Arc<Transaction>>,
    /// Outputs the wave spends, with the predicted spender.
    spent: HashMap<OutputRef, String>,
    /// Outputs the wave creates.
    added: HashMap<OutputRef, Utxo>,
    /// REQUEST id -> BID ids this wave appends, in wave order.
    bids_by_request: HashMap<String, Vec<String>>,
    /// REQUEST id -> ACCEPT_BID id this wave commits.
    accept_by_request: HashMap<String, String>,
    /// BID id -> settlement (RETURN / winner TRANSFER) id.
    settled_bids: HashMap<String, String>,
}

impl WaveOverlay {
    /// Predicts the effects of `members` (one wave, in wave order)
    /// against `view` — the committed state plus the overlays of all
    /// earlier waves. Wave members are pairwise conflict-free, so no
    /// member's prediction depends on another member of the same wave;
    /// the clone-heavy plan derivation fans out over `workers` while
    /// the index fold stays serial in wave order.
    pub fn predict(
        members: &[&Arc<Transaction>],
        view: &impl LedgerView,
        workers: usize,
    ) -> WaveOverlay {
        let plans = parallel_map(members.len(), workers, |slot| {
            utxo_effects_for(members[slot], view)
        });
        let mut overlay = WaveOverlay::default();
        for (tx, plan) in members.iter().zip(plans) {
            for spend in plan.spends {
                overlay.spent.insert(spend, tx.id.clone());
            }
            overlay.added.extend(plan.adds);

            // The same decision table `record_indexes` applies — the
            // prediction cannot drift from the commit.
            match index_delta(tx) {
                IndexDelta::BidAppend { request } => {
                    overlay
                        .bids_by_request
                        .entry(request.to_owned())
                        .or_default()
                        .push(tx.id.clone());
                }
                IndexDelta::Accept { request } => {
                    overlay
                        .accept_by_request
                        .insert(request.to_owned(), tx.id.clone());
                }
                IndexDelta::Settle { bid } => {
                    overlay.settled_bids.insert(bid.to_owned(), tx.id.clone());
                }
                IndexDelta::None => {}
            }
            overlay.txs.insert(tx.id.clone(), Arc::clone(tx));
        }
        overlay
    }
}

/// Predicts the [`StateDigest`] of `base`'s UTXO set after `batch`
/// commits under `waves`, without mutating anything: the per-wave
/// overlays are chained in wave order, and each predicted spend/add
/// folds its entry-hash delta into
/// the digest — O(block footprint), not O(state). This is the digest a
/// proposer gossips inside its self-describing block: assuming every
/// member commits (the proposer packed the block from transactions it
/// admitted), the prediction is bit-identical to every replica's
/// post-block [`scdb_store::UtxoSet::state_digest`]. A block with
/// rejections diverges from its prediction — replicas treat a mismatch
/// as a diagnostic, never as truth, so a wrong prediction (adversarial
/// or raced) costs nothing but the cross-check.
pub fn predict_post_state_digest(
    base: &LedgerState,
    batch: &[Arc<Transaction>],
    waves: &[Vec<usize>],
) -> StateDigest {
    let mut digest = base.utxos().state_digest();
    let mut overlays: Vec<WaveOverlay> = Vec::with_capacity(waves.len());
    for wave in waves {
        let members: Vec<&Arc<Transaction>> = wave.iter().map(|&i| &batch[i]).collect();
        let view = SpeculativeView::new(base, &overlays);
        let overlay = WaveOverlay::predict(&members, &view, 1);
        fold_overlay_digest(&mut digest, &overlay, &view);
        overlays.push(overlay);
    }
    digest
}

/// Folds one predicted wave's UTXO deltas into `digest`. Spends flip an
/// existing entry's `spent_by`: fold the old entry out and the spent
/// version in. The pre-spend entry comes from `below` — the view *below*
/// this wave (waves never spend their own adds — that pair conflicts).
/// A spend of a nonexistent output is skipped rather than guessed: the
/// overlay then carries an invalid member and any digest built from it
/// will mismatch anyway.
fn fold_overlay_digest(digest: &mut StateDigest, overlay: &WaveOverlay, below: &impl LedgerView) {
    for (output, spender) in &overlay.spent {
        let Some(old) = below.utxo(output) else {
            continue;
        };
        digest.fold_remove(entry_hash(output, &old));
        let mut spent = old;
        spent.spent_by = Some(spender.clone());
        digest.fold_add(entry_hash(output, &spent));
    }
    for (output, utxo) in &overlay.added {
        digest.fold_add(entry_hash(output, utxo));
    }
}

/// A read-only ledger view of "committed state as of `base`, plus the
/// predicted effects of the waves in `overlays`, in order".
///
/// Later overlays shadow earlier ones, which shadow the base — though
/// by construction shadowing is rare: conflicting writes land in
/// different waves, and a wave never both creates and spends the same
/// output (that pair conflicts too).
pub struct SpeculativeView<'a> {
    base: &'a LedgerState,
    overlays: &'a [WaveOverlay],
}

impl<'a> SpeculativeView<'a> {
    /// A view of `base` as the waves described by `overlays` would
    /// leave it. With an empty overlay slice this is exactly `base`.
    pub fn new(base: &'a LedgerState, overlays: &'a [WaveOverlay]) -> SpeculativeView<'a> {
        SpeculativeView { base, overlays }
    }

    /// True when the bid still holds at least one unspent escrow output
    /// under this view (the lock criterion `LedgerState` tracks with
    /// its incremental `unspent_escrow` index).
    fn bid_is_locked(&self, bid: &Transaction) -> bool {
        (0..bid.outputs.len() as u32)
            .any(|i| self.is_unspent_output(&OutputRef::new(bid.id.clone(), i)))
    }
}

impl LedgerView for SpeculativeView<'_> {
    fn get(&self, id: &str) -> Option<&Transaction> {
        for overlay in self.overlays.iter().rev() {
            if let Some(tx) = overlay.txs.get(id) {
                return Some(tx);
            }
        }
        self.base.get(id)
    }

    fn utxo(&self, output: &OutputRef) -> Option<Utxo> {
        // The youngest overlay that created the output wins; otherwise
        // the committed entry. Any overlay spend then marks it.
        let mut utxo = self
            .overlays
            .iter()
            .rev()
            .find_map(|o| o.added.get(output).cloned())
            .or_else(|| self.base.utxo(output))?;
        for overlay in self.overlays {
            if let Some(spender) = overlay.spent.get(output) {
                utxo.spent_by = Some(spender.clone());
            }
        }
        Some(utxo)
    }

    fn is_reserved(&self, public_key_hex: &str) -> bool {
        // The reserved registry is genesis state; batches never touch it.
        self.base.is_reserved(public_key_hex)
    }

    fn locked_bids_for_request(&self, request_id: &str) -> Vec<&Transaction> {
        self.bids_for_request(request_id)
            .into_iter()
            .filter(|bid| self.bid_is_locked(bid))
            .collect()
    }

    fn bids_for_request(&self, request_id: &str) -> Vec<&Transaction> {
        // Committed bids first, then each wave's appends in wave order —
        // the same order `record_indexes` produces after the waves
        // really apply.
        let mut bids = self.base.bids_for_request(request_id);
        for overlay in self.overlays {
            bids.extend(
                overlay
                    .bids_by_request
                    .get(request_id)
                    .into_iter()
                    .flatten()
                    .filter_map(|id| overlay.txs.get(id).map(Arc::as_ref)),
            );
        }
        bids
    }

    fn accept_for_request(&self, request_id: &str) -> Option<&Transaction> {
        for overlay in self.overlays.iter().rev() {
            if let Some(id) = overlay.accept_by_request.get(request_id) {
                return overlay.txs.get(id).map(Arc::as_ref);
            }
        }
        self.base.accept_for_request(request_id)
    }

    fn settlement_for_bid(&self, bid_id: &str) -> Option<&str> {
        for overlay in self.overlays.iter().rev() {
            if let Some(id) = overlay.settled_bids.get(bid_id) {
                return Some(id);
            }
        }
        self.base.settlement_for_bid(bid_id)
    }

    // Verification is a property of a transaction's bytes, not of any
    // state an overlay predicts: the base ledger's set answers.
    fn verified(&self, tx: &Transaction) -> Option<VerifiedSigners> {
        self.base.verified(tx)
    }

    fn is_verified_id(&self, id: &str) -> bool {
        self.base.is_verified_id(id)
    }

    fn record_verified(&self, id: &str, signers: VerifiedSigners) {
        self.base.record_verified(id, signers);
    }
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

    /// Committed request + asset, with the bid left for an overlay.
    struct Staged {
        ledger: LedgerState,
        escrow: KeyPair,
        request: Transaction,
        asset: Transaction,
        bid: Arc<Transaction>,
    }

    fn staged() -> Staged {
        let escrow = keys(0xE5);
        let alice = keys(0xA1);
        let sally = keys(0x5A);
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        let asset = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
            .output(alice.public_hex(), 1)
            .sign(&[&alice]);
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(sally.public_hex(), 1)
            .sign(&[&sally]);
        ledger.apply(&asset).unwrap();
        ledger.apply(&request).unwrap();
        let bid = Arc::new(
            TxBuilder::bid(asset.id.clone(), request.id.clone())
                .input(asset.id.clone(), 0, vec![alice.public_hex()])
                .output_with_prev(escrow.public_hex(), 1, vec![alice.public_hex()])
                .sign(&[&alice]),
        );
        Staged {
            ledger,
            escrow,
            request,
            asset,
            bid,
        }
    }

    #[test]
    fn empty_view_answers_like_the_base() {
        let s = staged();
        let view = SpeculativeView::new(&s.ledger, &[]);
        assert!(view.get(&s.request.id).is_some());
        assert!(view.is_unspent_output(&OutputRef::new(s.asset.id.clone(), 0)));
        assert!(view.is_reserved(&s.escrow.public_hex()));
        assert!(view.locked_bids_for_request(&s.request.id).is_empty());
    }

    #[test]
    fn overlay_presents_the_predicted_wave() {
        let s = staged();
        let overlay = WaveOverlay::predict(&[&s.bid], &SpeculativeView::new(&s.ledger, &[]), 1);
        let overlays = [overlay];
        let view = SpeculativeView::new(&s.ledger, &overlays);

        // The bid exists, its escrow output exists unspent, the asset
        // output it consumed is spent — none of which the base agrees
        // with yet.
        assert!(view.get(&s.bid.id).is_some());
        assert!(s.ledger.get(&s.bid.id).is_none());
        assert!(view.is_unspent_output(&OutputRef::new(s.bid.id.clone(), 0)));
        let consumed = view.utxo(&OutputRef::new(s.asset.id.clone(), 0)).unwrap();
        assert_eq!(consumed.spent_by.as_deref(), Some(s.bid.id.as_str()));
        assert!(s
            .ledger
            .is_unspent_output(&OutputRef::new(s.asset.id.clone(), 0)));

        // The locked-bid index sees the overlay bid.
        let locked = view.locked_bids_for_request(&s.request.id);
        assert_eq!(locked.len(), 1);
        assert_eq!(locked[0].id, s.bid.id);
    }

    #[test]
    fn predicted_state_matches_really_applying_the_wave() {
        // The whole point: base + overlay must answer every LedgerView
        // query exactly as the ledger does after the wave applies.
        let s = staged();
        let overlay = WaveOverlay::predict(&[&s.bid], &SpeculativeView::new(&s.ledger, &[]), 1);
        let overlays = [overlay];
        let view = SpeculativeView::new(&s.ledger, &overlays);

        let mut applied = LedgerState::new();
        applied.add_reserved_account(s.escrow.public_hex());
        applied.apply(&s.asset).unwrap();
        applied.apply(&s.request).unwrap();
        applied.apply_shared(&s.bid).unwrap();

        for out_ref in [
            OutputRef::new(s.asset.id.clone(), 0),
            OutputRef::new(s.request.id.clone(), 0),
            OutputRef::new(s.bid.id.clone(), 0),
            OutputRef::new("0".repeat(64), 0),
        ] {
            assert_eq!(view.utxo(&out_ref), applied.utxo(&out_ref), "{out_ref}");
        }
        let ids = |bids: Vec<&Transaction>| -> Vec<String> {
            bids.iter().map(|b| b.id.clone()).collect()
        };
        assert_eq!(
            ids(view.locked_bids_for_request(&s.request.id)),
            ids(applied.locked_bids_for_request(&s.request.id)),
        );
        assert_eq!(
            ids(view.bids_for_request(&s.request.id)),
            ids(applied.bids_for_request(&s.request.id)),
        );
        assert_eq!(view.asset_id_of(&s.bid), applied.asset_id_of(&s.bid));
    }

    #[test]
    fn chained_overlays_speculate_across_dependent_waves() {
        let s = staged();
        let requester = keys(0x5A);
        let mut overlays: Vec<WaveOverlay> = Vec::new();
        let wave0 = WaveOverlay::predict(&[&s.bid], &SpeculativeView::new(&s.ledger, &overlays), 1);
        overlays.push(wave0);

        // Wave 1: an accept spending the still-uncommitted bid's escrow
        // output — it validates against the speculative view.
        let accept = Arc::new(
            TxBuilder::accept_bid(s.bid.id.clone(), s.request.id.clone())
                .input(s.bid.id.clone(), 0, vec![s.escrow.public_hex()])
                .output_with_prev(requester.public_hex(), 1, vec![s.escrow.public_hex()])
                .sign(&[&requester]),
        );
        crate::validate::validate_transaction(&accept, &SpeculativeView::new(&s.ledger, &overlays))
            .expect("speculatively valid");
        let wave1 =
            WaveOverlay::predict(&[&accept], &SpeculativeView::new(&s.ledger, &overlays), 1);
        overlays.push(wave1);

        let view = SpeculativeView::new(&s.ledger, &overlays);
        assert_eq!(
            view.accept_for_request(&s.request.id).map(|t| &t.id),
            Some(&accept.id)
        );
        // ACCEPT_BID has empty UTXO effects (non-locking commit), so
        // the bid's escrow output stays live for the children.
        assert!(view.bid_is_locked(&s.bid));
        // But a fresh base view still knows nothing of any of it.
        assert!(s.ledger.accept_for_request(&s.request.id).is_none());
    }
}
