//! The declaration: every native transaction type is a row.
//!
//! The paper's thesis is that marketplace transactions are *declared* —
//! a type is its condition set `C_α` (§3.2, Definitions 3–4). Here that
//! is literal: [`row`] maps each [`Operation`] to a `static` [`TxType`]
//! whose `conditions` slice *is* `C_α`, in the order the checks run —
//! which is the order faults are named in, so the order is part of the
//! declaration. The row also says who must sign, which REQUEST the type
//! is about and which marketplace key it writes. Everything that needs
//! to know a type reads its row: [`crate::validate::validate_transaction`]
//! evaluates the conditions, the ledger applies the declared write, and
//! admission asks the row who signs.
//!
//! A [`Condition`] is a named primitive with one meaning
//! (`Condition::check`); a slice of them is their conjunction. Its
//! ledger reads are data too (`Condition::lookups`): `check` sees only
//! what they resolve to, and the conflict footprint reads their keys
//! (see `view.rs`). A new transaction family is a new slice —
//! §8's "transaction conditions and compositions" — run by the same
//! `evaluate`.

use crate::errors::ValidationError;
use crate::model::{AssetRef, Operation, Transaction};
use crate::validate::{
    check_input_signatures, requester_account, requester_keys, verify_signed_by,
};
use crate::verified::VerifiedSigners;
use crate::view::{capabilities, Lookup, ReadSet};
use scdb_store::{OutputRef, Utxo};
use std::collections::HashSet;
use Condition::*;

/// One primitive validation condition over a transaction and the ledger
/// reads it declares.
///
/// "The subject" is the committed transaction the one under validation
/// is about — the REQUEST of a BID or ACCEPT_BID, the BID of a RETURN —
/// resolved by [`Condition::OneRequestAmongReferences`] or
/// [`Condition::SoleReference`] for the conditions after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// No input spends an output (a mint's self-inputs only).
    NoSpends,
    /// The asset data lists at least one requested capability (§5.2.1).
    DeclaresCapabilities,
    /// Every input's multi-signature verifies against its own
    /// `owners_before` — the model's `verify(s, pb, m)`. Skipped when
    /// the verified set vouches for exactly that.
    InputSignatures,
    /// `validateTransferInputs` (Alg. 2 line 12): every input spends a
    /// distinct committed, unspent output whose owners are the input's
    /// `owners_before`. Resolves the spent outputs for later conditions.
    SpendsResolve,
    /// Input shares equal output shares.
    Balanced,
    /// Every spent output holds shares of the declared asset id.
    SpendsDeclaredAsset,
    /// `|I| ≥ 1` (C_BID 1).
    HasInputs,
    /// `|R| ≥ 1` (C_BID 2).
    HasReferences,
    /// Every reference is committed and exactly one is a REQUEST
    /// (C_BID 3, Alg. 2 lines 1–4). Resolves the subject.
    OneRequestAmongReferences,
    /// The subject is `references[0]` — what every marketplace index and
    /// the conflict footprint key a bid by, so a bid naming its REQUEST
    /// elsewhere would evade Algorithm 3's all-locked-bids accounting.
    RequestIsFirstReference,
    /// The declared asset id names a committed transaction.
    AssetCommitted,
    /// Every output is held by reserved accounts only (C_BID 6).
    OutputsToEscrow,
    /// The subject's requested capabilities are a subset of the declared
    /// asset's (C_BID 7, Alg. 2 lines 8–11).
    OffersRequestedCapabilities,
    /// The resolved inputs carry at least one share (C_BID 4).
    PositiveInputAmount,
    /// `|R| = 1` and the reference is a committed transaction of this
    /// operation. Resolves the subject.
    SoleReference(Operation),
    /// The asset names a committed BID on the subject (Alg. 3 lines 2–5).
    WinnerBidsOnRequest,
    /// Every input is signed by the subject's signers (Alg. 3 lines
    /// 6–7). Skipped when the verified set vouches for exactly them.
    SignedByRequester,
    /// The subject has no committed ACCEPT_BID (Alg. 3 lines 8–10).
    NoAcceptYet,
    /// The winning bid is among the subject's locked bids (Alg. 3 lines
    /// 11–12).
    WinnerLocked,
    /// The inputs spend one unspent, escrow-held output of each of the
    /// subject's locked bids, and nothing else (C_ACCEPT_BID 1, 7).
    InputsCoverLockedBids,
    /// Exactly one output pays the requester; every other returns to
    /// the original bidder of a locked, unaccepted bid (C_ACCEPT_BID 8–9).
    OutputsSettle,
    /// The subject's REQUEST has a committed ACCEPT_BID that chose
    /// another bid — what triggers a RETURN.
    ReturnTriggered,
    /// Every resolved input is an escrow-held output of the subject, and
    /// every output goes back to that output's previous owners.
    ReturnsBidFromEscrow,
}

/// Who must sign every input of a type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signers {
    /// Each input's own `owners_before` — part of the content, so the
    /// check needs no ledger.
    InputOwners,
    /// The signers of the REQUEST the type references: the inputs name
    /// the escrow account, the requester authorizes (Algorithm 3).
    Requester,
}

/// A per-REQUEST marketplace index a type reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarketKey {
    /// The REQUEST's locked-bid set.
    Bids,
    /// The REQUEST's accepted-bid slot.
    Accept,
}

/// How a commit changes a marketplace key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Replaces the key's value: an ACCEPT_BID claims the accept slot.
    Set,
    /// Adds a member to the key's set: a BID joins its REQUEST's
    /// locked bids.
    Append,
    /// Releases one escrow share of a member: a spend of a bid's output.
    Unlock,
}

/// One marketplace write a commit of a transaction makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MarketWrite<'t> {
    pub(crate) key: MarketKey,
    pub(crate) kind: WriteKind,
    /// The REQUEST whose index changes.
    pub(crate) request: &'t str,
    /// The bid an `Unlock` releases a share of; for the row's own write,
    /// the transaction itself.
    pub(crate) member: &'t str,
}

/// Where a type finds the REQUEST whose marketplace keys it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestLink {
    /// `references[0]` is the REQUEST.
    FirstReference,
    /// `references[0]` is a BID; the REQUEST is the one it bids on.
    BidAtFirstReference,
}

/// A transaction type, declared.
#[derive(Debug)]
pub struct TxType {
    /// `C_α`, in evaluation order: the first condition that fails names
    /// the error.
    pub conditions: &'static [Condition],
    pub signers: Signers,
    /// The REQUEST the marketplace keys below belong to, for the types
    /// that touch any.
    pub request: Option<RequestLink>,
    /// The marketplace index a commit of this type updates, and how: a
    /// BID joins its REQUEST's locked-bid set, an ACCEPT_BID claims the
    /// accept slot.
    pub writes: Option<(MarketKey, WriteKind)>,
    /// A nested type (Definition 2) commits without touching the UTXO
    /// set: its inputs and outputs are the plan its children realize.
    pub nested: bool,
}

impl TxType {
    /// The REQUEST the type's marketplace keys belong to. A link through
    /// another transaction (a RETURN's bid) is followed with `resolve`.
    pub(crate) fn request_of<'t>(
        &self,
        tx: &'t Transaction,
        resolve: impl FnOnce(&str) -> Option<&'t Transaction>,
    ) -> Option<&'t str> {
        let first = tx.references.first()?;
        match self.request? {
            RequestLink::FirstReference => Some(first),
            RequestLink::BidAtFirstReference => bid_request(resolve(first)?),
        }
    }

    /// Every marketplace write a commit of `tx` makes: an `Unlock` of
    /// its REQUEST's bid set per spent output of a bid, then the row's
    /// own write. A nested row declares the unlocks of the bids it
    /// spends but applies none: its children spend those outputs.
    /// `resolve` finds the spent transactions and a linked REQUEST.
    pub(crate) fn market_writes<'t>(
        &self,
        tx: &'t Transaction,
        mut resolve: impl FnMut(&str) -> Option<&'t Transaction>,
    ) -> Vec<MarketWrite<'t>> {
        let mut writes = Vec::new();
        for f in tx.inputs.iter().filter_map(|i| i.fulfills.as_ref()) {
            if let Some(request) = resolve(&f.tx_id).and_then(bid_request) {
                writes.push(MarketWrite {
                    key: MarketKey::Bids,
                    kind: WriteKind::Unlock,
                    request,
                    member: &f.tx_id,
                });
            }
        }
        if let Some((key, kind)) = self.writes {
            if let Some(request) = self.request_of(tx, resolve) {
                writes.push(MarketWrite {
                    key,
                    kind,
                    request,
                    member: &tx.id,
                });
            }
        }
        writes
    }

    /// Every lookup the row's conditions declare for `tx`, each once.
    pub(crate) fn lookups<'t>(
        &self,
        tx: &'t Transaction,
        request: Option<&'t str>,
    ) -> Vec<Lookup<'t>> {
        let mut lookups = Vec::new();
        for lookup in self.conditions.iter().flat_map(|c| c.lookups(tx, request)) {
            if !lookups.contains(&lookup) {
                lookups.push(lookup);
            }
        }
        lookups
    }
}

/// The REQUEST `tx` bids on, if it is a bid: a transaction whose row
/// joins its first reference's locked-bid set.
pub(crate) fn bid_request(tx: &Transaction) -> Option<&str> {
    let joins = row(tx.operation).writes == Some((MarketKey::Bids, WriteKind::Append));
    tx.references.first().filter(|_| joins).map(String::as_str)
}

/// What the rows below start from: signed by its input owners, touching
/// no marketplace key, not nested.
const PLAIN: TxType = TxType {
    conditions: &[],
    signers: Signers::InputOwners,
    request: None,
    writes: None,
    nested: false,
};

static CREATE: TxType = TxType {
    conditions: &[NoSpends, InputSignatures],
    ..PLAIN
};

static REQUEST: TxType = TxType {
    conditions: &[NoSpends, DeclaresCapabilities, InputSignatures],
    ..PLAIN
};

static TRANSFER: TxType = TxType {
    conditions: &[
        InputSignatures,
        SpendsResolve,
        Balanced,
        SpendsDeclaredAsset,
    ],
    ..PLAIN
};

/// Algorithm 2 — `validateT_BID` with C_BID (Definition 3).
static BID: TxType = TxType {
    conditions: &[
        HasInputs,
        HasReferences,
        OneRequestAmongReferences,
        RequestIsFirstReference,
        AssetCommitted,
        InputSignatures,
        OutputsToEscrow,
        OffersRequestedCapabilities,
        SpendsResolve,
        PositiveInputAmount,
        Balanced,
    ],
    request: Some(RequestLink::FirstReference),
    writes: Some((MarketKey::Bids, WriteKind::Append)),
    ..PLAIN
};

/// Algorithm 3, first part — `validateT_ACCEPT_BID` with C_ACCEPT_BID
/// (Definition 4).
static ACCEPT_BID: TxType = TxType {
    conditions: &[
        SoleReference(Operation::Request),
        WinnerBidsOnRequest,
        SignedByRequester,
        NoAcceptYet,
        WinnerLocked,
        InputsCoverLockedBids,
        OutputsSettle,
    ],
    signers: Signers::Requester,
    request: Some(RequestLink::FirstReference),
    writes: Some((MarketKey::Accept, WriteKind::Set)),
    nested: true,
};

/// C_RETURN: one unaccepted bid goes from escrow back to its bidder,
/// once an ACCEPT_BID for its REQUEST is committed.
static RETURN: TxType = TxType {
    conditions: &[
        SoleReference(Operation::Bid),
        ReturnTriggered,
        InputSignatures,
        SpendsResolve,
        ReturnsBidFromEscrow,
        Balanced,
    ],
    request: Some(RequestLink::BidAtFirstReference),
    ..PLAIN
};

/// The row of a native operation.
pub fn row(operation: Operation) -> &'static TxType {
    match operation {
        Operation::Create => &CREATE,
        Operation::Request => &REQUEST,
        Operation::Transfer => &TRANSFER,
        Operation::Bid => &BID,
        Operation::AcceptBid => &ACCEPT_BID,
        Operation::Return => &RETURN,
    }
}

/// Evaluates a condition set over what the ledger `reads` holds: the
/// slice is the conjunction, in order, and the first condition that
/// fails is the verdict. `verified` is what the ledger's verified set
/// vouches for, if anything — the signature conditions skip what it
/// covers.
pub(crate) fn evaluate(
    conditions: &[Condition],
    tx: &Transaction,
    reads: &ReadSet<'_>,
    verified: Option<&VerifiedSigners>,
) -> Result<(), ValidationError> {
    let mut evaluation = Evaluation {
        tx,
        reads,
        verified,
        subject: None,
        spends: None,
    };
    conditions
        .iter()
        .try_for_each(|condition| condition.check(&mut evaluation))
}

/// What one evaluation carries from condition to condition: the inputs
/// of every check, and what earlier conditions resolved for later ones,
/// so a row looks each thing up once.
struct Evaluation<'a> {
    tx: &'a Transaction,
    reads: &'a ReadSet<'a>,
    verified: Option<&'a VerifiedSigners>,
    subject: Option<&'a Transaction>,
    /// Each spent output's transaction id and UTXO entry.
    spends: Option<Vec<(&'a str, &'a Utxo)>>,
}

fn semantic(why: String) -> ValidationError {
    ValidationError::Semantic(why)
}

fn ensure(holds: bool, why: impl FnOnce() -> String) -> Result<(), ValidationError> {
    if holds {
        Ok(())
    } else {
        Err(semantic(why()))
    }
}

fn asset_id(tx: &Transaction) -> Result<&String, ValidationError> {
    match &tx.asset {
        AssetRef::Id(id) => Ok(id),
        _ => Err(semantic(format!(
            "{} must reference an asset id",
            tx.operation
        ))),
    }
}

fn win_bid_id(tx: &Transaction) -> Result<&String, ValidationError> {
    match &tx.asset {
        AssetRef::WinBid(id) => Ok(id),
        _ => Err(semantic(format!(
            "{} asset must name the winning bid",
            tx.operation
        ))),
    }
}

/// The check ACCEPT_BID and RETURN share: the output input `i` spends is
/// held by reserved accounts only (`PBPK-ℛℯ𝓈`).
fn escrow_held(
    tx: &Transaction,
    reads: &ReadSet<'_>,
    i: usize,
    utxo: &Utxo,
) -> Result<(), ValidationError> {
    ensure(utxo.owners.iter().all(|k| reads.is_reserved(k)), || {
        format!(
            "{} input {i} does not spend an escrow-held output",
            tx.operation
        )
    })
}

/// The entry of an output that exists and is unspent.
fn unspent<'r>(reads: &'r ReadSet<'_>, output: &OutputRef) -> Result<&'r Utxo, ValidationError> {
    let Some(utxo) = reads.utxo(&output.tx_id, output.index)? else {
        return Err(ValidationError::InputDoesNotExist(output.to_string()));
    };
    match &utxo.spent_by {
        Some(spender) => Err(ValidationError::DoubleSpend(format!(
            "{output} already spent by {spender}"
        ))),
        None => Ok(utxo),
    }
}

impl<'a> Evaluation<'a> {
    fn subject(&self) -> Result<&'a Transaction, ValidationError> {
        self.subject.ok_or_else(|| {
            semantic("no earlier condition resolved the referenced transaction".to_owned())
        })
    }

    fn spends(&self) -> Result<&[(&'a str, &'a Utxo)], ValidationError> {
        self.spends
            .as_deref()
            .ok_or_else(|| semantic("no earlier condition resolved the spent outputs".to_owned()))
    }

    /// Sum of the spent outputs' shares. The amounts are committed but
    /// attacker-chosen, so the sum is checked: two `u64::MAX` outputs
    /// must not wrap into a small balance.
    fn input_amount(&self) -> Result<u64, ValidationError> {
        self.spends()?
            .iter()
            .try_fold(0u64, |sum, (_, utxo)| sum.checked_add(utxo.amount))
            .ok_or_else(|| semantic(format!("{} input amounts overflow u64", self.tx.operation)))
    }
}

impl Condition {
    /// The ledger reads `check` makes, as data: each keyed off `tx`'s
    /// content or the `request` its row links to. `check` holds only what
    /// they resolve to, so a read it does not declare is an `Err`.
    fn lookups<'t>(self, tx: &'t Transaction, request: Option<&'t str>) -> Vec<Lookup<'t>> {
        let spent = tx.inputs.iter().filter_map(|i| i.fulfills.as_ref());
        let entries = spent
            .clone()
            .map(|f| Lookup::Utxo(&f.tx_id, f.output_index));
        let locked_bids = request.map(Lookup::LockedBids).into_iter();
        match self {
            SpendsResolve => spent.map(|f| Lookup::Tx(&f.tx_id)).chain(entries).collect(),
            OneRequestAmongReferences | SoleReference(_) => {
                tx.references.iter().map(|r| Lookup::Tx(r)).collect()
            }
            AssetCommitted | OffersRequestedCapabilities | WinnerBidsOnRequest => match &tx.asset {
                AssetRef::Id(id) | AssetRef::WinBid(id) => vec![Lookup::Tx(id)],
                AssetRef::Data(_) => Vec::new(),
            },
            NoAcceptYet | ReturnTriggered => request.map(Lookup::Accept).into_iter().collect(),
            WinnerLocked | OutputsSettle => locked_bids.collect(),
            InputsCoverLockedBids => locked_bids.chain(entries).collect(),
            _ => Vec::new(),
        }
    }

    /// What the condition means: `Err` is the verdict, variant and
    /// message, of a transaction that violates it.
    fn check(self, cx: &mut Evaluation<'_>) -> Result<(), ValidationError> {
        let (tx, reads, op) = (cx.tx, cx.reads, cx.tx.operation);
        match self {
            NoSpends => ensure(tx.inputs.iter().all(|i| i.fulfills.is_none()), || {
                format!("{op} inputs must not spend outputs")
            }),
            DeclaresCapabilities => ensure(!capabilities(tx).is_empty(), || {
                format!("{op} asset data must declare a non-empty capabilities list")
            }),
            InputSignatures => check_input_signatures(tx, cx.verified),
            SpendsResolve => {
                let mut seen = HashSet::new();
                let mut spends = Vec::with_capacity(tx.inputs.len());
                for (i, input) in tx.inputs.iter().enumerate() {
                    let Some(fulfills) = &input.fulfills else {
                        return Err(semantic(format!(
                            "input {i}: {op} inputs must spend an output"
                        )));
                    };
                    if reads.tx(&fulfills.tx_id)?.is_none() {
                        return Err(ValidationError::InputDoesNotExist(fulfills.tx_id.clone()));
                    }
                    let output = OutputRef::new(fulfills.tx_id.clone(), fulfills.output_index);
                    // One output may be consumed once per transaction:
                    // listing it twice would double-count its shares
                    // and mint value.
                    if !seen.insert((fulfills.tx_id.as_str(), fulfills.output_index)) {
                        return Err(ValidationError::DoubleSpend(format!(
                            "input {i} spends {output} twice within one transaction"
                        )));
                    }
                    let utxo = unspent(reads, &output)?;
                    if utxo.owners != input.owners_before {
                        return Err(ValidationError::InvalidSignature(format!(
                            "input {i}: owners_before does not match the current owners of {output}"
                        )));
                    }
                    spends.push((fulfills.tx_id.as_str(), utxo));
                }
                cx.spends = Some(spends);
                Ok(())
            }
            Balanced => {
                let inputs = cx.input_amount()?;
                let outputs = tx
                    .output_amount()
                    .ok_or_else(|| semantic(format!("{op} output amounts overflow u64")))?;
                if inputs != outputs {
                    return Err(ValidationError::AmountMismatch { inputs, outputs });
                }
                Ok(())
            }
            SpendsDeclaredAsset => {
                let declared = asset_id(tx)?;
                match cx.spends()?.iter().find(|(_, u)| &u.asset_id != declared) {
                    Some((_, utxo)) => Err(semantic(format!(
                        "input spends asset {} but the transaction declares {declared}",
                        utxo.asset_id
                    ))),
                    None => Ok(()),
                }
            }
            HasInputs => ensure(!tx.inputs.is_empty(), || {
                format!("{op} requires at least one input")
            }),
            HasReferences => ensure(!tx.references.is_empty(), || {
                format!("{op} must reference a REQUEST")
            }),
            OneRequestAmongReferences => {
                let mut request = None;
                for r in &tx.references {
                    let Some(referenced) = reads.tx(r)? else {
                        return Err(ValidationError::InputDoesNotExist(r.clone()));
                    };
                    if referenced.operation == Operation::Request
                        && request.replace(referenced).is_some()
                    {
                        return Err(semantic(format!("{op} must reference exactly one REQUEST")));
                    }
                }
                ensure(request.is_some(), || {
                    format!("{op} reference vector contains no REQUEST")
                })?;
                cx.subject = request;
                Ok(())
            }
            RequestIsFirstReference => {
                let request = cx.subject()?;
                ensure(tx.references.first() == Some(&request.id), || {
                    format!("{op} must name its REQUEST as the first reference")
                })
            }
            AssetCommitted => {
                let declared = asset_id(tx)?;
                if reads.tx(declared)?.is_none() {
                    return Err(ValidationError::InputDoesNotExist(declared.clone()));
                }
                Ok(())
            }
            OutputsToEscrow => {
                let loose = tx
                    .outputs
                    .iter()
                    .position(|o| !o.public_keys.iter().all(|k| reads.is_reserved(k)));
                match loose {
                    Some(output_index) => Err(ValidationError::NotEscrowOutput { output_index }),
                    None => Ok(()),
                }
            }
            OffersRequestedCapabilities => {
                let offered = reads.tx(asset_id(tx)?)?.map(capabilities);
                let offered = offered.unwrap_or_default();
                let mut missing = capabilities(cx.subject()?);
                missing.retain(|c| !offered.contains(c));
                if !missing.is_empty() {
                    return Err(ValidationError::InsufficientCapabilities { missing });
                }
                Ok(())
            }
            PositiveInputAmount => ensure(cx.input_amount()? != 0, || {
                format!("{op} requires at least one input with a non-null asset")
            }),
            SoleReference(target) => {
                let [id] = tx.references.as_slice() else {
                    return Err(semantic(format!(
                        "{op} must reference exactly one {target}"
                    )));
                };
                let Some(referenced) = reads.tx(id)? else {
                    return Err(ValidationError::InputDoesNotExist(id.clone()));
                };
                ensure(referenced.operation == target, || {
                    format!("{op} reference {id} is not a {target}")
                })?;
                cx.subject = Some(referenced);
                Ok(())
            }
            WinnerBidsOnRequest => {
                let (request, winner) = (cx.subject()?, win_bid_id(tx)?);
                let Some(bid) = reads.tx(winner)? else {
                    return Err(ValidationError::InputDoesNotExist(winner.clone()));
                };
                ensure(
                    bid.operation == Operation::Bid && bid.references.first() == Some(&request.id),
                    || {
                        format!(
                            "winning bid {winner} is not a BID for request {}",
                            request.id
                        )
                    },
                )
            }
            SignedByRequester => {
                // A verified-set entry vouches only for the requester it
                // was checked against.
                let requester = requester_keys(cx.subject()?);
                match cx.verified {
                    Some(VerifiedSigners::Explicit(keys)) if *keys == requester => Ok(()),
                    _ => verify_signed_by(tx, &requester),
                }
            }
            NoAcceptYet => match reads.accept(&cx.subject()?.id)? {
                Some(existing) => Err(ValidationError::DuplicateTransaction(existing.id.clone())),
                None => Ok(()),
            },
            WinnerLocked => {
                let (request, winner) = (cx.subject()?, win_bid_id(tx)?);
                let locked = reads.locked_bids(&request.id)?;
                ensure(locked.iter().any(|(bid, _)| &bid.id == winner), || {
                    format!(
                        "winning bid {winner} is not escrow-held for request {}",
                        request.id
                    )
                })
            }
            InputsCoverLockedBids => {
                let locked = reads.locked_bids(&cx.subject()?.id)?;
                ensure(tx.inputs.len() == locked.len(), || {
                    format!(
                        "{op} must take all {} locked bids as inputs, found {}",
                        locked.len(),
                        tx.inputs.len()
                    )
                })?;
                let mut covered = HashSet::new();
                for (i, input) in tx.inputs.iter().enumerate() {
                    let Some(fulfills) = &input.fulfills else {
                        return Err(semantic(format!("{op} input {i} must spend a bid output")));
                    };
                    ensure(
                        locked.iter().any(|(bid, _)| bid.id == fulfills.tx_id),
                        || format!("{op} input {i} does not spend a locked bid of this request"),
                    )?;
                    let output = OutputRef::new(fulfills.tx_id.clone(), fulfills.output_index);
                    escrow_held(tx, reads, i, unspent(reads, &output)?)?;
                    ensure(covered.insert(fulfills.tx_id.as_str()), || {
                        format!("{op} input {i} duplicates bid {}", fulfills.tx_id)
                    })?;
                }
                Ok(())
            }
            OutputsSettle => {
                let (requester, winner) = (requester_account(cx.subject()?)?, win_bid_id(tx)?);
                let to_requester = tx
                    .outputs
                    .iter()
                    .filter(|o| o.public_keys == requester)
                    .count();
                ensure(to_requester == 1, || {
                    format!(
                        "{op} must have exactly one output to the requester, found {to_requester}"
                    )
                })?;
                let locked = reads.locked_bids(&cx.subject()?.id)?;
                for (idx, output) in tx.outputs.iter().enumerate() {
                    if output.public_keys == requester {
                        continue; // the winner settlement
                    }
                    let returns_to_bidder = locked.iter().any(|(bid, entries)| {
                        &bid.id != winner
                            && (entries.iter().flatten())
                                .any(|u| u.previous_owners == output.public_keys)
                    });
                    ensure(returns_to_bidder, || {
                        format!(
                            "{op} output {idx} settles to neither the requester nor an unaccepted bidder"
                        )
                    })?;
                }
                Ok(())
            }
            ReturnTriggered => {
                let bid = cx.subject()?;
                let request = bid.references.first();
                let Some(accept) = request.map(|r| reads.accept(r)).transpose()?.flatten() else {
                    return Err(semantic(format!(
                        "{op} of bid {} has no committed ACCEPT_BID for its request",
                        bid.id
                    )));
                };
                ensure(
                    !matches!(&accept.asset, AssetRef::WinBid(w) if *w == bid.id),
                    || "the winning bid is transferred to the requester, not returned".to_owned(),
                )
            }
            ReturnsBidFromEscrow => {
                let bid = cx.subject()?;
                for (i, (spent, utxo)) in cx.spends()?.iter().enumerate() {
                    ensure(*spent == bid.id, || {
                        format!("{op} input {i} does not spend the referenced bid")
                    })?;
                    escrow_held(tx, reads, i, utxo)?;
                    ensure(
                        tx.outputs
                            .iter()
                            .all(|o| o.public_keys == utxo.previous_owners),
                        || format!("{op} outputs must go back to the original bidder"),
                    )?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TxBuilder;
    use crate::ledger::LedgerState;
    use crate::pipeline::{footprint, ConflictKey};
    use crate::view::LedgerView;
    use scdb_crypto::KeyPair;
    use scdb_json::{arr, obj};

    struct Market {
        ledger: LedgerState,
        escrow: KeyPair,
        alice: KeyPair,
        asset: Transaction,
        request: Transaction,
    }

    fn market() -> Market {
        let escrow = KeyPair::from_seed([0xE5; 32]);
        let alice = KeyPair::from_seed([0xA1; 32]);
        let sally = KeyPair::from_seed([0x5A; 32]);
        let mut ledger = LedgerState::new();
        ledger.add_reserved_account(escrow.public_hex());
        let asset = TxBuilder::create(obj! { "capabilities" => arr!["3d-print", "cnc"] })
            .output(alice.public_hex(), 1)
            .sign(&[&alice]);
        let request = TxBuilder::request(obj! { "capabilities" => arr!["3d-print"] })
            .output(sally.public_hex(), 1)
            .sign(&[&sally]);
        ledger.apply(&asset).unwrap();
        ledger.apply(&request).unwrap();
        Market {
            ledger,
            escrow,
            alice,
            asset,
            request,
        }
    }

    /// Evaluates `conditions` over the lookups they declare for `tx`,
    /// linked to a REQUEST as `tx`'s own row links.
    fn run(
        conditions: &'static [Condition],
        tx: &Transaction,
        ledger: &LedgerState,
    ) -> Result<(), ValidationError> {
        let declared = TxType {
            conditions,
            ..*row(tx.operation)
        };
        evaluate(conditions, tx, &ReadSet::fetch(&declared, tx, ledger), None)
    }

    fn bid_into(m: &Market, holder: &KeyPair) -> Transaction {
        TxBuilder::bid(m.asset.id.clone(), m.request.id.clone())
            .input(m.asset.id.clone(), 0, vec![m.alice.public_hex()])
            .output_with_prev(holder.public_hex(), 1, vec![m.alice.public_hex()])
            .sign(&[&m.alice])
    }

    #[test]
    fn declarative_bid_conditions_accept_valid_bids() {
        let m = market();
        let bid = bid_into(&m, &m.escrow);
        let c_bid = row(Operation::Bid).conditions;
        assert_eq!(run(c_bid, &bid, &m.ledger), Ok(()));
    }

    #[test]
    fn capability_subset_names_the_missing_capability() {
        let mut m = market();
        // A request wanting something the asset lacks.
        let sally = KeyPair::from_seed([0x5A; 32]);
        let fancy = TxBuilder::request(obj! { "capabilities" => arr!["welding", "cnc"] })
            .output(sally.public_hex(), 1)
            .sign(&[&sally]);
        m.ledger.apply(&fancy).unwrap();
        m.request = fancy;
        let bid = bid_into(&m, &m.escrow);
        assert_eq!(
            run(
                &[OneRequestAmongReferences, OffersRequestedCapabilities],
                &bid,
                &m.ledger
            ),
            Err(ValidationError::InsufficientCapabilities {
                missing: vec!["welding".to_owned()]
            })
        );
    }

    /// A transaction family defined purely by composition: a DONATE — a
    /// balanced, owner-signed move into a reserved account, naming its
    /// cause — is a condition slice the production evaluator runs. No
    /// validator function, no new `Operation`.
    #[test]
    fn new_type_definable_by_composition() {
        const DONATE: &[Condition] = &[
            HasInputs,
            HasReferences,
            InputSignatures,
            OutputsToEscrow,
            SpendsResolve,
            PositiveInputAmount,
            Balanced,
        ];
        let m = market();
        // Shaped as a BID-like transfer into escrow referencing the
        // request as the "cause".
        let donation = bid_into(&m, &m.escrow);
        assert_eq!(run(DONATE, &donation, &m.ledger), Ok(()));
        let kept = bid_into(&m, &m.alice);
        assert_eq!(
            run(DONATE, &kept, &m.ledger),
            Err(ValidationError::NotEscrowOutput { output_index: 0 })
        );
    }

    /// A slice that uses what no earlier condition resolved, or reads a
    /// key its row did not declare, is refused with an error, not a
    /// panic: here every slice runs over the lookups a BID declares,
    /// which hold no accept slot for `NoAcceptYet` to read.
    #[test]
    fn a_misordered_slice_is_an_error() {
        let m = market();
        let bid = bid_into(&m, &m.escrow);
        let reads = ReadSet::fetch(row(Operation::Bid), &bid, &m.ledger);
        for misordered in [
            &[Balanced][..],
            &[RequestIsFirstReference],
            &[WinnerLocked],
            &[OneRequestAmongReferences, NoAcceptYet],
        ] {
            assert!(matches!(
                evaluate(misordered, &bid, &reads, None),
                Err(ValidationError::Semantic(_))
            ));
        }
    }

    /// The marketplace keys the derived footprints read, from the lookups
    /// the rows' conditions declare: ACCEPT_BID reads the locked-bid set
    /// (three conditions walk it — once) and not the accept slot it
    /// writes; RETURN reads the accept slot; nothing else reads any. The
    /// writes to a bid set commute: a BID's append, and the unlock of
    /// every spend of a bid's output (ACCEPT_BID declares the unlocks its
    /// children apply). A type that touches a marketplace key says whose
    /// it is.
    #[test]
    fn rows_declare_their_marketplace_reads() {
        let mut m = market();
        let sally = KeyPair::from_seed([0x5A; 32]);
        let bid = bid_into(&m, &m.escrow);
        m.ledger.apply(&bid).unwrap();
        let accept = TxBuilder::accept_bid(bid.id.clone(), m.request.id.clone())
            .input(bid.id.clone(), 0, vec![m.escrow.public_hex()])
            .output_with_prev(sally.public_hex(), 1, vec![m.escrow.public_hex()])
            .sign(&[&sally]);
        let give_back = TxBuilder::bid_return(m.asset.id.clone(), bid.id.clone())
            .input(bid.id.clone(), 0, vec![m.escrow.public_hex()])
            .output_with_prev(m.alice.public_hex(), 1, vec![m.escrow.public_hex()])
            .sign(&[&m.escrow]);
        let transfer = TxBuilder::transfer(m.asset.id.clone())
            .input(m.asset.id.clone(), 0, vec![m.alice.public_hex()])
            .output_with_prev(sally.public_hex(), 1, vec![m.alice.public_hex()])
            .sign(&[&m.alice]);
        let request = m.request.id.clone();
        let market_keys = |keys: &[ConflictKey]| {
            let market =
                |k: &&ConflictKey| matches!(k, ConflictKey::Bids(_) | ConflictKey::Accept(_));
            keys.iter().filter(market).cloned().collect::<Vec<_>>()
        };
        for tx in [&m.asset, &m.request, &transfer, &bid, &accept, &give_back] {
            let (fp, _) = footprint(tx, |id| m.ledger.get(id));
            let reads = market_keys(&fp.reads);
            let bids = [ConflictKey::Bids(request.clone())];
            match tx.operation {
                Operation::AcceptBid => {
                    assert_eq!(reads, bids);
                    assert_eq!(fp.commuting_writes, bids);
                    assert!(fp.writes.contains(&ConflictKey::Accept(request.clone())));
                }
                Operation::Return => {
                    assert_eq!(reads, [ConflictKey::Accept(request.clone())]);
                    assert_eq!(fp.commuting_writes, bids);
                }
                Operation::Bid => {
                    assert!(reads.is_empty());
                    assert_eq!(fp.commuting_writes, bids);
                }
                op => {
                    assert!(reads.is_empty(), "{op}");
                    assert!(fp.commuting_writes.is_empty(), "{op}");
                }
            }
            assert!(market_keys(&fp.writes).iter().all(|k| !bids.contains(k)));
            let touches = !reads.is_empty()
                || !market_keys(&fp.writes).is_empty()
                || !fp.commuting_writes.is_empty();
            assert_eq!(
                row(tx.operation).request.is_some(),
                touches,
                "{}",
                tx.operation
            );
        }
    }
}
