//! Acceptance differential for block-level schedule gossip: delivering
//! a batch with the proposer's gossiped `WaveSchedule` must decide and
//! produce exactly what re-deriving the schedule locally — and what the
//! sequential validate-then-apply loop — decides and produces, for
//! honest *and* adversarial gossip. Tampered, overlapping and incomplete
//! schedules must be rejected by `verify_schedule` and fall back to
//! re-derivation; the gossiped *footprints* must never influence
//! outcomes at all (replicas verify against their own).

use proptest::prelude::*;
use smartchaindb::core::pipeline::{
    commit_batch_with_gossip, derive_footprints, PipelineOptions, ScheduleSource,
};
use smartchaindb::core::validate::validate_transaction;
use smartchaindb::core::{plan_schedule, WaveSchedule};
use smartchaindb::store::OutputRef;
use smartchaindb::workload::{scdb_plan, ScenarioConfig};
use smartchaindb::{KeyPair, LedgerState, LedgerView, Transaction};
use std::collections::BTreeMap;
use std::sync::Arc;

fn escrow() -> KeyPair {
    KeyPair::from_seed([0xE5; 32])
}

fn fresh_ledger() -> LedgerState {
    let mut ledger = LedgerState::new();
    ledger.add_reserved_account(escrow().public_hex());
    ledger
}

/// A contended auction stream (bids race on shared requests, accepts
/// fold the bid sets — several dependent waves) as one parsed batch.
fn contended_batch(requests: usize, bidders: usize, seed: u64) -> Vec<Arc<Transaction>> {
    let plan = scdb_plan(
        &ScenarioConfig {
            requests,
            bidders_per_request: bidders,
            capability_count: 2,
            capability_bytes: 48,
            seed,
        },
        &escrow().public_hex(),
    );
    plan.contended_payloads()
        .iter()
        .map(|p| Arc::new(Transaction::from_payload(p).expect("generated payload")))
        .collect()
}

/// The oracle: one transaction at a time, validate then apply.
fn sequential_reference(batch: &[Arc<Transaction>]) -> (LedgerState, BTreeMap<String, bool>) {
    let mut ledger = fresh_ledger();
    let mut verdicts = BTreeMap::new();
    for tx in batch {
        let ok = validate_transaction(tx, &ledger).is_ok() && ledger.apply_shared(tx).is_ok();
        verdicts.insert(tx.id.clone(), ok);
    }
    (ledger, verdicts)
}

/// One delivery through `commit_batch_with_gossip`; returns the ledger,
/// per-id verdicts, and where the schedule came from.
fn deliver(
    batch: &[Arc<Transaction>],
    wire: Option<&str>,
) -> (LedgerState, BTreeMap<String, bool>, ScheduleSource) {
    let mut ledger = fresh_ledger();
    let options = PipelineOptions::with_workers(4);
    let footprints = derive_footprints(batch, &ledger);
    let (outcome, source) =
        commit_batch_with_gossip(&mut ledger, batch, footprints, wire, &options);
    let mut verdicts: BTreeMap<String, bool> =
        batch.iter().map(|tx| (tx.id.clone(), true)).collect();
    for (index, _) in &outcome.rejected {
        verdicts.insert(batch[*index].id.clone(), false);
    }
    (ledger, verdicts, source)
}

/// Marketplace-index fingerprint for equality comparison.
fn index_fingerprint(ledger: &LedgerState, batch: &[Arc<Transaction>]) -> Vec<String> {
    let mut out = Vec::new();
    for tx in batch {
        let id = &tx.id;
        let mut locked: Vec<String> = ledger
            .locked_bids_for_request(id)
            .iter()
            .map(|t| t.id.clone())
            .collect();
        locked.sort_unstable();
        out.push(format!(
            "{id}:locked={locked:?}:accept={:?}:settled={:?}",
            ledger.accept_for_request(id).map(|t| t.id.clone()),
            ledger
                .utxo(&OutputRef::new(id.clone(), 0))
                .and_then(|u| u.spent_by),
        ));
    }
    out
}

/// The tamper arsenal. Each returns the wire to gossip and whether
/// verification is *guaranteed* to reject it (some tampers degenerate
/// to the identity on single-wave batches).
fn tampered_wire(schedule: &WaveSchedule, tamper: usize) -> (String, bool) {
    let n: usize = schedule.waves.iter().map(Vec::len).sum();
    let mut s = WaveSchedule {
        waves: schedule.waves.clone(),
        footprints: schedule.footprints.clone(),
    };
    match tamper {
        // Overlapping: collapse every wave into one. Conflicting pairs
        // then share a wave — unless there was only one wave.
        0 => {
            let merged: Vec<usize> = s.waves.drain(..).flatten().collect();
            s.waves = vec![merged];
            (s.to_wire(), schedule.waves.len() > 1)
        }
        // Incomplete: drop the last transaction from the schedule.
        1 => {
            for wave in s.waves.iter_mut().rev() {
                if wave.pop().is_some() {
                    break;
                }
            }
            (s.to_wire(), n > 0)
        }
        // Overlapping coverage: index 0 appears twice.
        2 => {
            if let Some(last) = s.waves.last_mut() {
                last.push(0);
            }
            (s.to_wire(), n > 0)
        }
        // Out of range.
        3 => {
            if let Some(last) = s.waves.last_mut() {
                last.push(n + 7);
            }
            (s.to_wire(), true)
        }
        // Reordered: reverse the waves. Every wave k > 0 holds a member
        // conflicting with an earlier wave (that is why it waited), so
        // reversal breaks conflict order — unless there was one wave.
        4 => {
            s.waves.reverse();
            (s.to_wire(), schedule.waves.len() > 1)
        }
        // Not a schedule at all.
        5 => ("ceci n'est pas un schedule".to_owned(), true),
        // Honest waves with trailing bytes (the retired footprints
        // document, say): the wire is one document, anything after it
        // is refused.
        _ => (format!("{}\n{{\"footprints\":[]}}", s.to_wire()), true),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Gossiped-schedule delivery ≡ re-derived delivery ≡ sequential:
    /// verdicts, committed ids, marketplace indexes, `state_digest()`
    /// and the full snapshot.
    #[test]
    fn gossiped_equals_rederived_equals_sequential(
        requests in 1usize..3,
        bidders in 1usize..4,
        seed in any::<u64>(),
    ) {
        let batch = contended_batch(requests, bidders, seed);
        let wire = plan_schedule(&batch, &fresh_ledger()).to_wire();
        let (seq_ledger, seq_verdicts) = sequential_reference(&batch);

        let (gossip_ledger, gossip_verdicts, source) = deliver(&batch, Some(&wire));
        prop_assert!(source.used_gossip(), "honest wire must verify: {source:?}");
        let (plain_ledger, plain_verdicts, plain_source) = deliver(&batch, None);
        prop_assert_eq!(&plain_source, &ScheduleSource::Rederived(None));

        prop_assert_eq!(&gossip_verdicts, &plain_verdicts);
        prop_assert_eq!(&gossip_verdicts, &seq_verdicts);
        prop_assert_eq!(gossip_ledger.state_digest(), plain_ledger.state_digest());
        prop_assert_eq!(gossip_ledger.state_digest(), seq_ledger.state_digest());
        prop_assert_eq!(
            gossip_ledger.utxos().snapshot(),
            seq_ledger.utxos().snapshot()
        );
        prop_assert_eq!(gossip_ledger.committed_ids(), seq_ledger.committed_ids());
        prop_assert_eq!(
            index_fingerprint(&gossip_ledger, &batch),
            index_fingerprint(&seq_ledger, &batch)
        );
    }

    /// Adversarial gossip: tampered / overlapping / incomplete /
    /// reordered / garbage / padded schedules are rejected and fall
    /// back to re-derivation; in every case the final state is
    /// byte-identical to the no-gossip path.
    #[test]
    fn tampered_gossip_is_rejected_and_never_corrupts_state(
        requests in 1usize..3,
        bidders in 1usize..4,
        seed in any::<u64>(),
        tamper in 0usize..7,
    ) {
        let batch = contended_batch(requests, bidders, seed);
        let schedule = plan_schedule(&batch, &fresh_ledger());
        let (wire, must_reject) = tampered_wire(&schedule, tamper);
        let (seq_ledger, seq_verdicts) = sequential_reference(&batch);

        let (ledger, verdicts, source) = deliver(&batch, Some(&wire));
        if must_reject {
            prop_assert!(
                matches!(source, ScheduleSource::Rederived(Some(_))),
                "tamper {tamper} must be caught: {source:?}"
            );
        } else {
            prop_assert!(
                source.used_gossip(),
                "tamper {tamper} is semantically harmless: {source:?}"
            );
        }
        // Corruption-freedom is unconditional: whatever the
        // schedule source, outcomes equal the sequential oracle.
        prop_assert_eq!(&verdicts, &seq_verdicts);
        prop_assert_eq!(ledger.state_digest(), seq_ledger.state_digest());
        prop_assert_eq!(ledger.utxos().snapshot(), seq_ledger.utxos().snapshot());
        prop_assert_eq!(ledger.committed_ids(), seq_ledger.committed_ids());
        prop_assert_eq!(
            index_fingerprint(&ledger, &batch),
            index_fingerprint(&seq_ledger, &batch)
        );
    }
}

/// A deterministic double-spend race delivered under gossip: the
/// schedule was formed before the rogue landed in the batch, so the
/// gossip covers a batch with a rejection — verdicts must still match
/// the oracle exactly.
#[test]
fn gossiped_block_with_rejections_matches_oracle() {
    let alice = KeyPair::from_seed([0xA1; 32]);
    let mut setup = fresh_ledger();
    let create = smartchaindb::TxBuilder::create(smartchaindb::json::obj! {})
        .output(alice.public_hex(), 1)
        .sign(&[&alice]);
    setup.apply(&create).unwrap();

    let spend = |n: u64| {
        Arc::new(
            smartchaindb::TxBuilder::transfer(create.id.clone())
                .input(create.id.clone(), 0, vec![alice.public_hex()])
                .output_with_prev(
                    KeyPair::from_seed([n as u8; 32]).public_hex(),
                    1,
                    vec![alice.public_hex()],
                )
                .metadata(smartchaindb::json::obj! { "n" => n })
                .sign(&[&alice]),
        )
    };
    let batch = vec![spend(1), spend(2)];

    let mk_ledger = || {
        let mut ledger = fresh_ledger();
        ledger.apply(&create).unwrap();
        ledger
    };
    let wire = plan_schedule(&batch, &mk_ledger()).to_wire();
    let mut gossip_ledger = mk_ledger();
    let options = PipelineOptions::with_workers(2);
    let footprints = derive_footprints(&batch, &gossip_ledger);
    let (outcome, source) = commit_batch_with_gossip(
        &mut gossip_ledger,
        &batch,
        footprints,
        Some(&wire),
        &options,
    );
    assert!(source.used_gossip());
    assert_eq!(outcome.committed, vec![batch[0].id.clone()]);
    assert_eq!(outcome.rejected.len(), 1);

    let mut plain_ledger = mk_ledger();
    let footprints = derive_footprints(&batch, &plain_ledger);
    let (plain, _) =
        commit_batch_with_gossip(&mut plain_ledger, &batch, footprints, None, &options);
    assert_eq!(outcome.committed, plain.committed);
    assert_eq!(gossip_ledger.state_digest(), plain_ledger.state_digest());
}
