//! The evaluator: Fig. 4's validation order over the declared rows.
//!
//! [`validate_transaction`] runs schema validation (Algorithm 1,
//! delegated to `scdb-schema`), then id-tamper checking, then the
//! duplicate check, then evaluates the type's condition set `C_α` —
//! the row [`crate::conditions`] declares for the operation (§3.2;
//! `validateT_BID` = Algorithm 2 and `validateT_ACCEPT_BID` =
//! Algorithm 3's first part are rows there) — over the ledger reads the
//! row declares. This file holds no per-type rule: it is the stateless
//! screen and the signature checks (serial, pooled and batched).

use crate::conditions::{evaluate, row, Signers};
use crate::errors::ValidationError;
use crate::model::Transaction;
use crate::par::map_chunks;
use crate::verified::VerifiedSigners;
use crate::view::{LedgerView, ReadSet};
use scdb_crypto::{MultiSignature, PublicKey, Signature};
use std::sync::Arc;

/// Full validation pipeline for one transaction against a ledger.
///
/// The stateless part — schema, id digest, signatures — runs once per
/// ledger: when an earlier stage (mempool admission, CheckTx, or the
/// block pool a commit runs first — the one place an ACCEPT_BID is
/// checked against its REQUEST's requester) already ran it and recorded
/// the id in the ledger's verified set, and the object in hand is the
/// recorded allocation or still hashes to that id, only the duplicate
/// check and the stateful per-type rules remain.
/// Ids are digests of the whole body, fulfillments included, so the
/// skipped checks would pass again on the same bytes: a hit and a miss
/// always return the same verdict. On a miss the order is the oracle's:
/// schema → id → duplicate → the type's row.
pub fn validate_transaction(
    tx: &Transaction,
    ledger: &impl LedgerView,
) -> Result<(), ValidationError> {
    let verified = ledger.verified(tx);
    if verified.is_none() {
        stateless_screen(tx, false)?;
    }
    let verified = verified.as_ref();

    // Re-submission of a committed transaction is a duplicate.
    if ledger.is_committed(&tx.id) {
        return Err(ValidationError::DuplicateTransaction(tx.id.clone()));
    }

    let row = row(tx.operation);
    let reads = ReadSet::fetch(row, tx, ledger);
    evaluate(&row.conditions, tx, &reads, verified)
}

/// The stateless screen every entry point shares — this function, pooled
/// block verification and mempool admission: one serialization walk
/// feeds Algorithm 1 (structural adherence to the type's YAML schema)
/// and the tamper check (the id must be the digest of the content), in
/// that precedence. `Ok` carries the signing payload when
/// `with_payload` asks for it, from the same walk.
pub fn stateless_screen(
    tx: &Transaction,
    with_payload: bool,
) -> Result<Option<String>, ValidationError> {
    let (value, computed, payload) = tx.admission_views(with_payload);
    scdb_schema::validate_transaction_schema(&value).map_err(ValidationError::Schema)?;
    if computed != tx.id {
        return Err(ValidationError::IdMismatch {
            declared: tx.id.clone(),
            computed,
        });
    }
    Ok(payload)
}

/// Records a transaction that just passed [`validate_transaction`]
/// against `ledger` in that ledger's verified set, so the next
/// validation there (CheckTx → DeliverTx on one replica) skips the
/// stateless checks — without an id recompute when it validates this
/// same `Arc`. An ACCEPT_BID is recorded against the requester its
/// REQUEST resolves to.
pub fn record_validated(tx: &Arc<Transaction>, ledger: &impl LedgerView) {
    if let Some(signers) = signers_to_vouch_for(tx, ledger) {
        ledger.record_verified(tx, signers);
    }
}

/// The signer set a verified-set entry for `tx` vouches for, as its row
/// declares it: the inputs' own owners, or the requester keys its
/// REQUEST resolves to in `ledger` — `None` while that REQUEST does not
/// resolve, which leaves the signature to the serial check.
fn signers_to_vouch_for(tx: &Transaction, ledger: &impl LedgerView) -> Option<VerifiedSigners> {
    match row(tx.operation).signers {
        Signers::InputOwners => Some(VerifiedSigners::InputOwners),
        Signers::Requester => {
            let request = tx.references.first().and_then(|id| ledger.get(id))?;
            Some(VerifiedSigners::Explicit(requester_keys(request)))
        }
    }
}

/// What [`record_validated_batch`] did with a block's members.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PooledVerification {
    /// Members that passed schema, id and signatures in the pool and
    /// were recorded.
    pub pooled: usize,
    /// Members whose id the verified set already held: left to
    /// [`validate_transaction`]'s own lookup.
    pub already_verified: usize,
    /// Members left unrecorded — a schema, id or signature failure, or
    /// an ACCEPT_BID whose REQUEST does not resolve — for the full
    /// serial check to name.
    pub failed_stateless: usize,
}

/// The stateless checks of a whole block, as a pool: every member
/// whose id `ledger`'s verified set does not hold yet goes through
/// schema + id digest (one serialization walk) and has its signatures
/// pooled into one batch equation per worker chunk; members that pass
/// all three are recorded, exactly as [`record_validated`] would after
/// a full [`validate_transaction`]. Nothing is decided here: a member
/// that fails is left unrecorded, so the validation that follows takes
/// the unchanged miss path and names the error with its usual string
/// and precedence. Each member is recorded pinned to its `Arc` in
/// `txs`, so validating those same `Arc`s hits without an id recompute.
/// Candidates are selected by membership alone
/// ([`LedgerView::is_verified_id`]) — a present id is left to
/// [`validate_transaction`]'s lookup, which binds the object in hand.
pub fn record_validated_batch(
    txs: &[Arc<Transaction>],
    ledger: &impl LedgerView,
    workers: usize,
) -> PooledVerification {
    let candidates: Vec<&Arc<Transaction>> = txs
        .iter()
        .filter(|tx| !ledger.is_verified_id(&tx.id))
        .collect();
    let vouched = map_chunks(&candidates, workers, |chunk| verify_chunk(chunk, ledger));
    let mut pooled = 0;
    for (tx, signers) in candidates.iter().zip(vouched.into_iter().flatten()) {
        if let Some(signers) = signers {
            ledger.record_verified(tx, signers);
            pooled += 1;
        }
    }
    PooledVerification {
        pooled,
        already_verified: txs.len() - candidates.len(),
        failed_stateless: candidates.len() - pooled,
    }
}

/// One worker's share of [`record_validated_batch`]: both stages on the
/// same thread, so a block costs one fan-out. `Some(signers)` per
/// member that passed schema, id and signatures against `signers`.
fn verify_chunk(
    chunk: &[&Arc<Transaction>],
    ledger: &impl LedgerView,
) -> Vec<Option<VerifiedSigners>> {
    // Stage 1: the signer set the entry will vouch for — first, so an
    // ACCEPT_BID whose REQUEST does not resolve yet (it commits in this
    // very block) costs no walk here — then shape, id digest and
    // signing payload from one walk.
    let clean: Vec<(usize, String, VerifiedSigners)> = chunk
        .iter()
        .enumerate()
        .filter_map(|(slot, tx)| {
            let signers = signers_to_vouch_for(tx, ledger)?;
            let payload = stateless_screen(tx, true).ok().flatten()?;
            Some((slot, payload, signers))
        })
        .collect();
    // Stage 2: every clean member's signatures in one pooled equation.
    let members: Vec<BatchMember<'_>> = clean
        .iter()
        .map(|(slot, payload, signers)| BatchMember {
            tx: chunk[*slot],
            payload,
            signers: match signers {
                VerifiedSigners::InputOwners => None,
                VerifiedSigners::Explicit(keys) => Some(keys),
            },
        })
        .collect();
    let verdicts = batch_verify(&members);
    let mut vouched = vec![None; chunk.len()];
    for ((slot, _, signers), verdict) in clean.into_iter().zip(verdicts) {
        if verdict.is_ok() {
            vouched[slot] = Some(signers);
        }
    }
    vouched
}

/// The account set that must sign an ACCEPT_BID for `request`: the
/// REQUEST's own signers (Alg. 3 lines 6-7).
pub(crate) fn requester_keys(request: &Transaction) -> Vec<String> {
    request
        .inputs
        .iter()
        .flat_map(|i| i.owners_before.iter().cloned())
        .collect()
}

/// The account an ACCEPT_BID settles the winning bid to: the owners of
/// the REQUEST's first input.
pub(crate) fn requester_account(request: &Transaction) -> Result<&[String], ValidationError> {
    match request.inputs.first() {
        Some(input) => Ok(&input.owners_before),
        None => Err(ValidationError::Semantic(format!(
            "REQUEST {} has no inputs",
            request.id
        ))),
    }
}

/// The rows' signature step over the inputs' own owners: already done
/// when the verified set vouches for exactly that.
pub(crate) fn check_input_signatures(
    tx: &Transaction,
    verified: Option<&VerifiedSigners>,
) -> Result<(), ValidationError> {
    match verified {
        Some(VerifiedSigners::InputOwners) => Ok(()),
        _ => verify_input_signatures(tx),
    }
}

/// Verifies every input's multi-signature against its declared owners
/// over the signing payload — the model's `verify(s, pb, m)` lifted to
/// transactions. (ACCEPT_BID uses [`verify_signed_by`] instead; see
/// below.)
pub fn verify_input_signatures(tx: &Transaction) -> Result<(), ValidationError> {
    verify_input_signatures_over(tx, &tx.signing_payload())
}

/// [`verify_input_signatures`] over a signing payload the caller
/// already holds (the [`stateless_screen`] walk produces it).
pub fn verify_input_signatures_over(
    tx: &Transaction,
    message: &str,
) -> Result<(), ValidationError> {
    for (i, input) in tx.inputs.iter().enumerate() {
        let ms = MultiSignature::from_wire(&input.fulfillment).ok_or_else(|| {
            ValidationError::InvalidSignature(format!("input {i}: malformed fulfillment"))
        })?;
        let required = decode_keys(&input.owners_before).map_err(|k| {
            ValidationError::InvalidSignature(format!("input {i}: bad owner key {k}"))
        })?;
        if !ms.verify(&required, message.as_bytes()) {
            return Err(ValidationError::InvalidSignature(format!(
                "input {i}: fulfillment does not cover owners_before"
            )));
        }
    }
    Ok(())
}

/// Batched form of [`verify_input_signatures`]: one verdict per
/// transaction, each identical to the serial check's — same
/// first-failing-input precedence, same error strings — with every
/// ed25519 check pooled into a single [`scdb_crypto::verify_batch`]
/// call so the curve work amortizes across the whole batch.
///
/// Each item pairs a transaction with its signing payload (callers in
/// the admission pipeline compute payloads once and reuse them here).
pub fn batch_verify_input_signatures(
    items: &[(&Transaction, &str)],
) -> Vec<Result<(), ValidationError>> {
    let members: Vec<BatchMember<'_>> = items
        .iter()
        .map(|&(tx, payload)| BatchMember {
            tx,
            payload,
            signers: None,
        })
        .collect();
    batch_verify(&members)
}

/// Batched form of [`verify_signed_by`]: each item pairs a transaction
/// with the explicit signer set every one of its inputs must carry.
/// Verdicts and error strings are the serial check's; the ed25519
/// checks of the whole batch pool into one
/// [`scdb_crypto::verify_batch`] call.
pub(crate) fn batch_verify_signed_by(
    items: &[(&Transaction, &[String])],
) -> Vec<Result<(), ValidationError>> {
    let payloads: Vec<String> = items.iter().map(|(tx, _)| tx.signing_payload()).collect();
    let members: Vec<BatchMember<'_>> = items
        .iter()
        .zip(&payloads)
        .map(|(&(tx, signers), payload)| BatchMember {
            tx,
            payload,
            signers: Some(signers),
        })
        .collect();
    batch_verify(&members)
}

/// Verifies every input's fulfillment against an explicit signer set
/// (used for ACCEPT_BID, which the *requester* signs while the inputs
/// name the escrow account as owner — see DESIGN.md §4). An
/// ACCEPT_BID's inputs all carry the same fulfillment; each distinct
/// (key, message, signature) triple is verified once.
pub fn verify_signed_by(tx: &Transaction, signers: &[String]) -> Result<(), ValidationError> {
    // One verdict per item; were it missing, the check fails closed.
    let verdict = batch_verify_signed_by(&[(tx, signers)]).pop();
    verdict.unwrap_or_else(|| Err(ValidationError::InvalidSignature("no verdict".to_owned())))
}

/// One transaction of a pooled signature batch.
struct BatchMember<'a> {
    tx: &'a Transaction,
    /// The transaction's signing payload.
    payload: &'a str,
    /// `None`: each input must be signed by its own `owners_before`.
    /// `Some`: every input must be signed by exactly this key set.
    signers: Option<&'a [String]>,
}

/// The pooled signature check behind both batch entry points.
fn batch_verify(members: &[BatchMember<'_>]) -> Vec<Result<(), ValidationError>> {
    // Per-input outcome of the structural pass. `Pending` inputs wait
    // on the pooled signatures `refs[range]` points at.
    enum InputCheck {
        Failed(ValidationError),
        Pending(std::ops::Range<usize>),
    }
    fn uncovered(i: usize, explicit: bool) -> ValidationError {
        ValidationError::InvalidSignature(if explicit {
            format!("input {i}: not signed by the required account set")
        } else {
            format!("input {i}: fulfillment does not cover owners_before")
        })
    }

    // Structural pass, mirroring the serial loops' order: decode the
    // explicit signers (if any), then per input the fulfillment, the
    // owner keys, the exact cover. The serial loops return at the
    // first failing input, so each transaction stops decoding there
    // too. A (key, signature) pair a member already enqueued — an
    // ACCEPT_BID repeats one fulfillment on every input — reuses its
    // slot: same message, same triple, same verdict.
    let mut pooled: Vec<(usize, PublicKey, Signature)> = Vec::new();
    let mut refs: Vec<usize> = Vec::new();
    let mut per_tx: Vec<Vec<InputCheck>> = Vec::with_capacity(members.len());
    for (m, member) in members.iter().enumerate() {
        let mut checks = Vec::with_capacity(member.tx.inputs.len());
        let explicit = match member.signers.map(decode_keys).transpose() {
            Ok(keys) => keys,
            Err(k) => {
                checks.push(InputCheck::Failed(ValidationError::InvalidSignature(
                    format!("bad signer key {k}"),
                )));
                per_tx.push(checks);
                continue;
            }
        };
        let first_slot = pooled.len();
        for (i, input) in member.tx.inputs.iter().enumerate() {
            let Some(ms) = MultiSignature::from_wire(&input.fulfillment) else {
                checks.push(InputCheck::Failed(ValidationError::InvalidSignature(
                    format!("input {i}: malformed fulfillment"),
                )));
                break;
            };
            let owners;
            let required = match &explicit {
                Some(keys) => keys,
                None => match decode_keys(&input.owners_before) {
                    Ok(keys) => {
                        owners = keys;
                        &owners
                    }
                    Err(k) => {
                        checks.push(InputCheck::Failed(ValidationError::InvalidSignature(
                            format!("input {i}: bad owner key {k}"),
                        )));
                        break;
                    }
                },
            };
            if !ms.covers_exactly(required) {
                checks.push(InputCheck::Failed(uncovered(i, explicit.is_some())));
                break;
            }
            let first_ref = refs.len();
            for (pb, sig) in ms.entries() {
                let slot = pooled[first_slot..]
                    .iter()
                    .position(|(_, p, s)| p == pb && s == sig)
                    .map(|pos| first_slot + pos)
                    .unwrap_or_else(|| {
                        pooled.push((m, *pb, *sig));
                        pooled.len() - 1
                    });
                refs.push(slot);
            }
            checks.push(InputCheck::Pending(first_ref..refs.len()));
        }
        per_tx.push(checks);
    }

    // Pooled crypto pass: one RLC batch over every distinct triple.
    let batch: Vec<scdb_crypto::BatchItem<'_>> = pooled
        .iter()
        .map(|(m, public, signature)| scdb_crypto::BatchItem {
            signature,
            public,
            message: members[*m].payload.as_bytes(),
        })
        .collect();
    let verdicts = scdb_crypto::verify_batch(&batch);

    // Replay in input order: the first structural failure or failed
    // signature decides, exactly as the serial loops would.
    per_tx
        .into_iter()
        .zip(members)
        .map(|(checks, member)| {
            for (i, check) in checks.into_iter().enumerate() {
                match check {
                    InputCheck::Failed(e) => return Err(e),
                    InputCheck::Pending(range) => {
                        if refs[range].iter().any(|&slot| verdicts[slot].is_err()) {
                            return Err(uncovered(i, member.signers.is_some()));
                        }
                    }
                }
            }
            Ok(())
        })
        .collect()
}

fn decode_keys(hex_keys: &[String]) -> Result<Vec<scdb_crypto::PublicKey>, String> {
    hex_keys
        .iter()
        .map(|k| scdb_crypto::hex::decode_array::<32>(k).ok_or_else(|| k.clone()))
        .collect()
}

#[cfg(test)]
mod batch_sig_tests {
    use super::*;
    use crate::builder::TxBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scdb_crypto::KeyPair;
    use scdb_json::obj;

    fn keys(n: usize) -> Vec<KeyPair> {
        let mut rng = StdRng::seed_from_u64(0x51B5);
        (0..n).map(|_| KeyPair::generate(&mut rng)).collect()
    }

    /// The batch path must agree with the serial path on every verdict
    /// *and* every error string, across all the failure modes the
    /// serial loop distinguishes.
    #[test]
    fn batch_signature_verdicts_match_serial() {
        let ks = keys(3);
        let mut txs: Vec<Transaction> = Vec::new();

        // Valid single-signer mint.
        txs.push(
            TxBuilder::create(obj! { "kind" => "a" })
                .output(ks[0].public_hex(), 1)
                .sign(&[&ks[0]]),
        );
        // Valid multisig mint.
        txs.push(
            TxBuilder::create(obj! { "kind" => "b" })
                .multi_output(vec![ks[0].public_hex(), ks[1].public_hex()], 1)
                .sign(&[&ks[0], &ks[1]]),
        );
        // Malformed fulfillment.
        let mut t = TxBuilder::create(obj! { "kind" => "c" })
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[0]]);
        t.inputs[0].fulfillment = "not-a-wire-string".to_owned();
        txs.push(t);
        // Undecodable owner key.
        let mut t = TxBuilder::create(obj! { "kind" => "d" })
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[0]]);
        t.inputs[0].owners_before = vec!["zz".to_owned()];
        txs.push(t);
        // Signer set does not cover the owners.
        let mut t = TxBuilder::create(obj! { "kind" => "e" })
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[0]]);
        t.inputs[0].owners_before = vec![ks[2].public_hex()];
        txs.push(t);
        // Tampered content: cover holds, the signature itself fails.
        let mut t = TxBuilder::create(obj! { "kind" => "f" })
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[0]]);
        t.outputs[0].amount = 999;
        t.seal();
        txs.push(t);
        // Batch member with no inputs at all.
        let mut t = TxBuilder::create(obj! { "kind" => "g" })
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[0]]);
        t.inputs.clear();
        txs.push(t);

        let payloads: Vec<String> = txs.iter().map(|t| t.signing_payload()).collect();
        let items: Vec<(&Transaction, &str)> = txs
            .iter()
            .zip(&payloads)
            .map(|(t, p)| (t, p.as_str()))
            .collect();
        let batch = batch_verify_input_signatures(&items);
        assert_eq!(batch.len(), txs.len());
        for (i, tx) in txs.iter().enumerate() {
            let serial = verify_input_signatures(tx);
            assert_eq!(
                format!("{:?}", batch[i]),
                format!("{serial:?}"),
                "tx {i} diverged"
            );
        }
        // The mix must include both verdicts to mean anything.
        assert!(batch.iter().filter(|r| r.is_ok()).count() >= 3);
        assert!(batch.iter().filter(|r| r.is_err()).count() >= 4);
    }

    /// The explicit-signer check (ACCEPT_BID's): one fulfillment
    /// repeated on every input verifies, and every failure mode keeps
    /// its serial error string, the first failing input naming it.
    #[test]
    fn signed_by_verdicts_and_first_failing_input() {
        let ks = keys(3);
        let requester = vec![ks[0].public_hex()];
        let mut tx = TxBuilder::create(obj! { "kind" => "accept-like" })
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[0]]);
        // Three inputs sharing the one requester fulfillment.
        let shared = tx.inputs[0].clone();
        tx.inputs.push(shared.clone());
        tx.inputs.push(shared);
        // (The extra inputs change the signing payload: re-sign.)
        let genuine = MultiSignature::create(&[&ks[0]], tx.signing_payload().as_bytes()).to_wire();
        for input in &mut tx.inputs {
            input.fulfillment = genuine.clone();
        }
        assert!(verify_signed_by(&tx, &requester).is_ok());

        let err = |tx: &Transaction, signers: &[String]| {
            verify_signed_by(tx, signers).unwrap_err().to_string()
        };
        assert!(err(&tx, &["zz".to_owned()]).contains("bad signer key zz"));
        assert!(err(&tx, &[ks[1].public_hex()])
            .contains("input 0: not signed by the required account set"));

        // Input 1 signed by someone else, input 2 malformed: input 1
        // names the error; input 0's verdict is unaffected.
        let mut mixed = tx.clone();
        mixed.inputs[1].fulfillment =
            MultiSignature::create(&[&ks[2]], tx.signing_payload().as_bytes()).to_wire();
        mixed.inputs[2].fulfillment = "garbage".to_owned();
        assert!(err(&mixed, &requester).contains("input 1: not signed by the required account set"));
        // Right key, signature over other bytes: caught by the pooled
        // crypto pass, same string.
        let mut stale = tx.clone();
        stale.inputs[2].fulfillment = MultiSignature::create(&[&ks[0]], b"other").to_wire();
        assert!(err(&stale, &requester).contains("input 2: not signed by the required account set"));

        // The batch form agrees member by member.
        let items: Vec<(&Transaction, &[String])> = vec![
            (&tx, &requester),
            (&mixed, &requester),
            (&stale, &requester),
        ];
        let batch = batch_verify_signed_by(&items);
        for ((member, signers), verdict) in items.iter().zip(&batch) {
            assert_eq!(
                format!("{verdict:?}"),
                format!("{:?}", verify_signed_by(member, signers))
            );
        }
    }

    /// Serial precedence: with several bad inputs, the first failing
    /// one names the error — the batch replay must do the same.
    #[test]
    fn batch_reports_the_first_failing_input() {
        let ks = keys(2);
        let mut tx = TxBuilder::create(obj! { "kind" => "multi" })
            .output(ks[0].public_hex(), 1)
            .sign(&[&ks[0]]);
        // Append a second self-input with a malformed fulfillment, then
        // corrupt the first input's signature bytes (cover still holds,
        // so only the pooled crypto check catches it).
        let mut extra = tx.inputs[0].clone();
        extra.fulfillment = "garbage".to_owned();
        tx.inputs.push(extra);
        let wire = tx.inputs[0].fulfillment.clone();
        let (pk_hex, _) = wire.split_once(':').expect("wire form");
        tx.inputs[0].fulfillment = format!("{pk_hex}:{}", "00".repeat(64));

        let payload = tx.signing_payload();
        let batch = batch_verify_input_signatures(&[(&tx, payload.as_str())]);
        let serial = verify_input_signatures(&tx);
        assert_eq!(format!("{:?}", batch[0]), format!("{serial:?}"));
        let msg = format!("{:?}", batch[0]);
        assert!(msg.contains("input 0"), "first failure wins: {msg}");
    }
}

#[cfg(test)]
mod pooled_record_tests {
    use super::*;
    use crate::builder::TxBuilder;
    use crate::{LedgerState, Operation};
    use scdb_crypto::KeyPair;
    use scdb_json::{arr, obj};

    fn key(tag: u8) -> KeyPair {
        KeyPair::from_seed([tag; 32])
    }

    fn create(owner: &KeyPair, nonce: u64) -> Transaction {
        TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
            .output(owner.public_hex(), 1)
            .nonce(nonce)
            .sign(&[owner])
    }

    /// An ACCEPT_BID-shaped transaction for `request_id`: only its
    /// stateless side matters here.
    fn accept(request_id: &str, signer: &KeyPair, escrow: &KeyPair) -> Transaction {
        let bid_id = "b".repeat(64);
        TxBuilder::accept_bid(bid_id.clone(), request_id)
            .input(bid_id, 0, vec![escrow.public_hex()])
            .output_with_prev(signer.public_hex(), 1, vec![escrow.public_hex()])
            .sign(&[signer])
    }

    /// A ledger holding one committed REQUEST, and a block mixing every
    /// way a member can pass or fail the stateless checks.
    fn fixture() -> (LedgerState, Vec<Arc<Transaction>>) {
        let (alice, mallory, requester, escrow) = (key(0xA1), key(0x66), key(0x50), key(0xE5));
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
            .output(requester.public_hex(), 1)
            .sign(&[&requester]);
        ledger.apply(&request).expect("request commits");

        let mut block = vec![create(&alice, 1)];
        // Stateless-clean, statefully doomed: spends an output that
        // does not exist. The pool vouches for the bytes, not the spend.
        block.push(
            TxBuilder::transfer("c".repeat(64))
                .input("c".repeat(64), 0, vec![alice.public_hex()])
                .output_with_prev(mallory.public_hex(), 1, vec![alice.public_hex()])
                .sign(&[&alice]),
        );
        // Re-sealed forgery: id consistent, signature stale.
        let mut forged = create(&alice, 2);
        forged.outputs[0].amount = 1_000_000;
        forged.seal();
        block.push(forged);
        // Id tampered in transit.
        let mut mismatched = create(&alice, 3);
        mismatched.id = "0".repeat(64);
        block.push(mismatched);
        // A shape the template rejects.
        let mut hollow = create(&alice, 4);
        hollow.outputs.clear();
        hollow.seal();
        block.push(hollow);
        // ACCEPT_BIDs: requester-signed, forged, and one whose REQUEST
        // this ledger cannot resolve.
        block.push(accept(&request.id, &requester, &escrow));
        block.push(accept(&request.id, &mallory, &escrow));
        block.push(accept(&"d".repeat(64), &requester, &escrow));
        (ledger, block.into_iter().map(Arc::new).collect())
    }

    /// The stateless verdict computed the long way round, one check at
    /// a time, against the signer set the serial path would use.
    fn passes_statelessly(tx: &Transaction, ledger: &LedgerState) -> bool {
        let signatures = if tx.operation == Operation::AcceptBid {
            match ledger.get(&tx.references[0]) {
                Some(request) => verify_signed_by(tx, &requester_keys(request)),
                None => return false,
            }
        } else {
            verify_input_signatures(tx)
        };
        scdb_schema::validate_transaction_schema(&tx.to_value()).is_ok()
            && tx.id_is_consistent()
            && signatures.is_ok()
    }

    /// The shared screen is the three separate derivations, from one
    /// walk: the schema verdict over `to_value`, `compute_id` against
    /// the declared id, and `signing_payload` — for every member of
    /// the fixture, clean or not.
    #[test]
    fn stateless_screen_equals_the_separate_derivations() {
        let (_, block) = fixture();
        for tx in &block {
            let separate = scdb_schema::validate_transaction_schema(&tx.to_value())
                .map_err(ValidationError::Schema)
                .and_then(|()| match tx.compute_id() {
                    computed if computed == tx.id => Ok(()),
                    computed => Err(ValidationError::IdMismatch {
                        declared: tx.id.clone(),
                        computed,
                    }),
                });
            assert_eq!(
                stateless_screen(tx, true),
                separate.clone().map(|()| Some(tx.signing_payload())),
                "{}",
                tx.id
            );
            assert_eq!(stateless_screen(tx, false), separate.map(|()| None));
        }
    }

    /// A transaction that violates the schema *and* carries a wrong id
    /// reports the schema first — the oracle's precedence.
    #[test]
    fn stateless_screen_reports_schema_before_id() {
        let mut tx = create(&key(0xA1), 9);
        tx.outputs.clear();
        tx.id = "0".repeat(64);
        assert!(matches!(
            stateless_screen(&tx, true),
            Err(ValidationError::Schema(_))
        ));
        tx.seal();
        assert!(matches!(
            stateless_screen(&tx, true),
            Err(ValidationError::Schema(_))
        ));
        let mut tx = create(&key(0xA1), 9);
        tx.id = "0".repeat(64);
        assert!(matches!(
            stateless_screen(&tx, true),
            Err(ValidationError::IdMismatch { .. })
        ));
    }

    #[test]
    fn pool_records_exactly_the_members_that_pass_statelessly() {
        let (ledger, block) = fixture();
        let expected: Vec<bool> = block
            .iter()
            .map(|tx| passes_statelessly(tx, &ledger))
            .collect();
        assert_eq!(
            expected,
            [true, true, false, false, false, true, false, false]
        );

        let report = record_validated_batch(&block, &ledger, 2);
        assert_eq!(
            report,
            PooledVerification {
                pooled: 3,
                already_verified: 0,
                failed_stateless: 5,
            }
        );
        for (tx, expected) in block.iter().zip(expected) {
            assert_eq!(ledger.is_verified_id(&tx.id), expected, "{}", tx.id);
        }
        // Entries vouch for the signer set the serial record would.
        assert_eq!(
            ledger.verified(&block[0]),
            Some(VerifiedSigners::InputOwners)
        );
        assert_eq!(
            ledger.verified(&block[5]),
            Some(VerifiedSigners::Explicit(vec![key(0x50).public_hex()]))
        );
        // The pool decided nothing: validation names every failure with
        // its own string, and the recorded members hit.
        let fresh = fixture().0;
        let hits_before = ledger.verified_stats().hits;
        for tx in &block {
            assert_eq!(
                format!("{:?}", validate_transaction(tx, &ledger)),
                format!("{:?}", validate_transaction(tx, &fresh)),
            );
        }
        assert_eq!(ledger.verified_stats().hits - hits_before, 3);
        assert_eq!(fresh.verified_stats().hits, 0);
    }

    #[test]
    fn pool_records_nothing_for_failing_members() {
        let (ledger, block) = fixture();
        let failing: Vec<Arc<Transaction>> = block
            .iter()
            .filter(|tx| !passes_statelessly(tx, &ledger))
            .cloned()
            .collect();
        assert_eq!(failing.len(), 5);
        let report = record_validated_batch(&failing, &ledger, 2);
        assert_eq!((report.pooled, report.failed_stateless), (0, 5));
        assert_eq!(ledger.verified_stats().recorded, 0);
    }

    #[test]
    fn pool_is_idempotent() {
        let (ledger, block) = fixture();
        let first = record_validated_batch(&block, &ledger, 2);
        let second = record_validated_batch(&block, &ledger, 2);
        assert_eq!(second.pooled, 0);
        assert_eq!(second.already_verified, first.pooled);
        assert_eq!(second.failed_stateless, first.failed_stateless);
        let stats = ledger.verified_stats();
        // Membership selects the candidates: no lookup, no hit or miss.
        assert_eq!((stats.recorded, stats.hits, stats.misses), (3, 0, 0));
        assert_eq!(
            record_validated_batch(&[], &ledger, 2),
            PooledVerification::default()
        );
    }

    #[test]
    fn one_worker_records_what_four_do() {
        let (serial, block) = fixture();
        let (fanned, _) = fixture();
        assert_eq!(
            record_validated_batch(&block, &serial, 1),
            record_validated_batch(&block, &fanned, 4)
        );
        for tx in &block {
            assert_eq!(serial.is_verified_id(&tx.id), fanned.is_verified_id(&tx.id));
            assert_eq!(serial.verified(tx), fanned.verified(tx));
        }
    }
}
