//! The declaration: every native transaction type is a row.
//!
//! The paper's thesis is that marketplace transactions are *declared* —
//! a type is its condition set `C_α` (§3.2, Definitions 3–4). Here that
//! is literal: each type is one document in the catalogue `scdb-schema`
//! embeds (`types.yaml`), and [`row`] maps each [`Operation`] to the
//! [`TxType`] built from its document once. The row's `conditions`
//! *are* `C_α`, in the order the checks run — which is the order faults
//! are named in, so the order is part of the declaration. The row also
//! says which REQUEST the type is about and which marketplace key it
//! writes; who must sign follows from its conditions. Everything that
//! needs to know a type reads its row:
//! [`crate::validate::validate_transaction`] evaluates the conditions,
//! the ledger applies the declared write, and admission asks the row
//! who signs.
//!
//! A [`Condition`] is a named primitive with one meaning
//! (`Condition::check`); a list of them is their conjunction. Its
//! ledger reads are data too (`Condition::lookups`): `check` sees only
//! what they resolve to, and the conflict footprint reads their keys
//! (see `view.rs`). A new transaction family made of these primitives
//! is a new catalogue document — §8's "transaction conditions and
//! compositions" — run by the same `evaluate`.

use crate::errors::ValidationError;
use crate::model::{AssetRef, Operation, Transaction};
use crate::validate::{
    check_input_signatures, requester_account, requester_keys, verify_signed_by,
};
use crate::verified::VerifiedSigners;
use crate::view::{capabilities, Lookup, ReadSet};
use scdb_json::{Map, Value};
use scdb_store::{OutputRef, Utxo};
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;
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

/// The one key a type's asset holds: its document's `asset`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssetKind {
    /// `data`: inline asset data.
    Data,
    /// `id`: the id of the transaction that minted the asset.
    Id,
    /// `win_bid_id`: the winning bid.
    WinBidId,
}

/// Where a type finds the REQUEST whose marketplace keys it touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestLink {
    /// `references[0]` is the REQUEST.
    FirstReference,
    /// `references[0]` is a BID; the REQUEST is the one it bids on.
    BidAtFirstReference,
}

/// A transaction type, declared: the row half of its catalogue
/// document, and the asset key of its schema half.
#[derive(Debug, Clone, PartialEq)]
pub struct TxType {
    /// What the asset of the type's transactions holds.
    pub asset: AssetKind,
    /// `C_α`, in evaluation order: the first condition that fails names
    /// the error.
    pub conditions: Vec<Condition>,
    /// [`Signers::Requester`] exactly when `conditions` include
    /// [`Condition::SignedByRequester`].
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

/// The row of a type. The rows are built from the embedded catalogue
/// once, each with its type's name, in name order; finding one is a
/// scan of those few names.
#[allow(
    clippy::expect_used,
    reason = "the catalogue is embedded at build time, so a document that does not build is a build defect, named with its type; an Operation is a catalogue key or a constant whose type the build requires"
)]
pub fn row(operation: Operation) -> &'static TxType {
    static TABLE: OnceLock<Vec<(&'static str, TxType)>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        build_table(scdb_schema::type_documents()).expect("the embedded type catalogue builds")
    });
    let found = table.iter().find(|(name, _)| *name == operation.as_str());
    &found.expect("every operation has a row").1
}

/// Builds one row per catalogue document. The catalogue must hold the
/// types [`Operation`] names as constants.
fn build_table(documents: &Map) -> Result<Vec<(&str, TxType)>, String> {
    let mut shipped = Operation::SHIPPED.into_iter();
    if let Some(op) = shipped.find(|op| !documents.contains_key(op.as_str())) {
        return Err(format!("{op}: not in the catalogue"));
    }
    (documents.iter())
        .map(|(name, doc)| {
            let row = TxType::from_document(name, doc).map_err(|e| format!("{name}: {e}"))?;
            Ok((name.as_str(), row))
        })
        .collect()
}

/// The conditions a document names by their variant name alone: every
/// variant but `SoleReference`, which also names an operation.
const NAMED: [Condition; 22] = [
    NoSpends,
    DeclaresCapabilities,
    InputSignatures,
    SpendsResolve,
    Balanced,
    SpendsDeclaredAsset,
    HasInputs,
    HasReferences,
    OneRequestAmongReferences,
    RequestIsFirstReference,
    AssetCommitted,
    OutputsToEscrow,
    OffersRequestedCapabilities,
    PositiveInputAmount,
    WinnerBidsOnRequest,
    SignedByRequester,
    NoAcceptYet,
    WinnerLocked,
    InputsCoverLockedBids,
    OutputsSettle,
    ReturnTriggered,
    ReturnsBidFromEscrow,
];

/// The variant among `choices` whose name `value` spells: a document
/// spells every value of a row as its Rust variant name.
fn named<T: Copy + fmt::Debug>(value: Option<&Value>, choices: &[T]) -> Result<T, String> {
    let name = value.and_then(Value::as_str).unwrap_or_default();
    (choices.iter().copied().find(|c| format!("{c:?}") == name))
        .ok_or_else(|| format!("{name:?} is not one of {choices:?}"))
}

impl TxType {
    /// The row of the type `name` declares in `doc`. The document is
    /// taken whole: its schema half must fill the skeleton too.
    fn from_document(name: &str, doc: &Value) -> Result<TxType, String> {
        let keys = [
            "asset",
            "references",
            "nested",
            "conditions",
            "request",
            "writes",
        ];
        let fields = doc.as_object().ok_or("expected a mapping")?;
        if let Some(key) = fields.keys().find(|k| !keys.contains(&k.as_str())) {
            return Err(format!("unknown key {key:?}"));
        }
        scdb_schema::fill_template(name, doc).map_err(|e| e.to_string())?;
        let asset = match doc.get("asset").and_then(Value::as_str) {
            Some("data") => AssetKind::Data,
            Some("id") => AssetKind::Id,
            _ => AssetKind::WinBidId, // the only other kind the schema half takes
        };
        let conditions: Vec<Condition> = (doc.get("conditions").and_then(Value::as_array))
            .ok_or("expected a conditions list")?
            .iter()
            .map(Condition::from_document)
            .collect::<Result<_, _>>()?;
        let links = [
            RequestLink::FirstReference,
            RequestLink::BidAtFirstReference,
        ];
        let kinds = [WriteKind::Set, WriteKind::Append, WriteKind::Unlock];
        let writes = match doc.get("writes") {
            Some(w) if w.as_object().map(Map::len) != Some(2) => {
                return Err("writes: expected a key and a kind".to_owned())
            }
            Some(w) => Some((
                named(w.get("key"), &[MarketKey::Bids, MarketKey::Accept])?,
                named(w.get("kind"), &kinds)?,
            )),
            None => None,
        };
        Ok(TxType {
            asset,
            signers: if conditions.contains(&SignedByRequester) {
                Signers::Requester
            } else {
                Signers::InputOwners
            },
            request: (doc.get("request").map(|r| named(Some(r), &links))).transpose()?,
            writes,
            nested: doc.get("nested").and_then(Value::as_bool) == Some(true),
            conditions,
        })
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
    /// The condition a catalogue entry names: a variant name, or
    /// `SoleReference: <operation>`.
    fn from_document(entry: &Value) -> Result<Condition, String> {
        if entry.as_str().is_some() {
            return named(Some(entry), &NAMED);
        }
        let target = (entry.get("SoleReference").and_then(Value::as_str))
            .filter(|_| entry.as_object().map(Map::len) == Some(1))
            .ok_or_else(|| format!("unknown condition {entry}"))?;
        Operation::parse(target)
            .map(SoleReference)
            .ok_or_else(|| format!("SoleReference: unknown operation {target:?}"))
    }

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
                ensure(bid_request(bid) == Some(request.id.as_str()), || {
                    format!(
                        "winning bid {winner} is not a BID for request {}",
                        request.id
                    )
                })
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
    use crate::pipeline::{footprint, Access, ConflictKey};
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
        conditions: &[Condition],
        tx: &Transaction,
        ledger: &LedgerState,
    ) -> Result<(), ValidationError> {
        let declared = TxType {
            conditions: conditions.to_vec(),
            ..row(tx.operation).clone()
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
        let c_bid = &row(Operation::Bid).conditions;
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

    /// The marketplace keys the derived footprints touch, and how: the
    /// reads come from the lookups the rows' conditions declare, the
    /// changes from the rows' writes. ACCEPT_BID reads the locked-bid
    /// set (three conditions walk it — once) and unlocks the bids its
    /// children spend, and claims the accept slot it checks is empty:
    /// both keys are touched two ways, so both are `Write`. A RETURN's
    /// unlock and a BID's append commute; a RETURN reads the accept
    /// slot; nothing else touches a marketplace key. A type that
    /// touches one says whose it is.
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
        let bids = ConflictKey::Bids(request.clone());
        let accepted = ConflictKey::Accept(request.clone());
        for tx in [&m.asset, &m.request, &transfer, &bid, &accept, &give_back] {
            let (fp, _) = footprint(tx, |id| m.ledger.get(id));
            let market: Vec<(ConflictKey, Access)> = (fp.accesses().iter())
                .filter(|(k, _)| matches!(k, ConflictKey::Bids(_) | ConflictKey::Accept(_)))
                .cloned()
                .collect();
            let expected = match tx.operation {
                Operation::AcceptBid => {
                    vec![
                        (bids.clone(), Access::Write),
                        (accepted.clone(), Access::Write),
                    ]
                }
                Operation::Return => {
                    vec![
                        (bids.clone(), Access::Commute),
                        (accepted.clone(), Access::Read),
                    ]
                }
                Operation::Bid => vec![(bids.clone(), Access::Commute)],
                _ => vec![],
            };
            assert_eq!(market, expected, "{}", tx.operation);
            let touches = !market.is_empty();
            assert_eq!(
                row(tx.operation).request.is_some(),
                touches,
                "{}",
                tx.operation
            );
        }
    }

    /// The catalogue every replica builds its rows from, pinned: replicas
    /// that disagree on a type's rules disagree on verdicts, so an edit
    /// to `types.yaml` — a condition, its order, a write — must be made
    /// on purpose, here as well as there.
    #[test]
    fn the_catalogue_is_pinned() {
        let canonical = Value::Object(scdb_schema::type_documents().clone()).to_canonical_string();
        assert_eq!(
            scdb_crypto::sha3_256_hex(canonical.as_bytes()),
            "5337661d7019181afd7e89468c375de90f24c702f4fc15138b80642cc3a3b41f"
        );
    }

    /// `row` finds each type's row by its name: every document is a row,
    /// in name order, and a parsed name and a shipped constant are the
    /// same type.
    #[test]
    fn rows_are_indexed_by_operation() {
        let names: Vec<&str> = Operation::all().map(Operation::as_str).collect();
        assert!(names.is_sorted());
        let built = build_table(scdb_schema::type_documents()).unwrap();
        assert_eq!(built.len(), names.len());
        for ((name, declared), op) in built.iter().zip(Operation::all()) {
            assert_eq!((*name, row(op)), (op.as_str(), declared));
        }
        for op in Operation::SHIPPED {
            assert_eq!(Operation::parse(op.as_str()), Some(op));
        }
        let requester_signed: Vec<Operation> = Operation::all()
            .filter(|&op| row(op).signers == Signers::Requester)
            .collect();
        assert_eq!(requester_signed, [Operation::AcceptBid]);
    }

    /// A type made of existing primitives is one more document: a GIFT
    /// shaped as a TRANSFER builds a seventh row, equal to TRANSFER's.
    #[test]
    fn a_seventh_document_builds() {
        let mut documents = scdb_schema::type_documents().clone();
        documents.insert("GIFT".to_owned(), documents["TRANSFER"].clone());
        let table = build_table(&documents).unwrap();
        assert_eq!(table.len(), 7);
        let of = |type_name| &table.iter().find(|(name, _)| *name == type_name).unwrap().1;
        assert_eq!(of("GIFT"), of("TRANSFER"));
    }

    /// A malformed document is an `Err` naming its type, never a panic.
    #[test]
    fn malformed_documents_are_refused() {
        let shipped = scdb_schema::type_documents();
        let edited = |op: &str, key: &str, value: Option<Value>| {
            let mut documents = shipped.clone();
            let doc = documents
                .get_mut(op)
                .and_then(Value::as_object_mut)
                .unwrap();
            match value {
                Some(value) => doc.insert(key.to_owned(), value),
                None => doc.remove(key),
            };
            documents
        };
        let missing = |op: Operation| {
            let mut documents = shipped.clone();
            documents.remove(op.as_str());
            (op.as_str(), documents)
        };
        let cases = [
            (
                "CREATE",
                edited("CREATE", "conditions", Some(arr!["NoSpends", "Teleports"])),
            ),
            (
                "RETURN",
                edited(
                    "RETURN",
                    "conditions",
                    Some(arr![obj! { "SoleReference" => "MINT" }]),
                ),
            ),
            (
                "RETURN",
                edited(
                    "RETURN",
                    "conditions",
                    Some(arr![obj! { "SoleReference" => "BID", "x" => 1 }]),
                ),
            ),
            ("BID", edited("BID", "asset", Some("blob".into()))),
            (
                "BID",
                edited("BID", "request", Some("LastReference".into())),
            ),
            (
                "BID",
                edited(
                    "BID",
                    "writes",
                    Some(obj! { "key" => "Asks", "kind" => "Append" }),
                ),
            ),
            (
                "BID",
                edited(
                    "BID",
                    "writes",
                    Some(obj! { "key" => "Bids", "kind" => "Merge" }),
                ),
            ),
            (
                "BID",
                edited("BID", "writes", Some(obj! { "key" => "Bids" })),
            ),
            ("BID", edited("BID", "signers", Some("Requester".into()))),
            ("TRANSFER", edited("TRANSFER", "conditions", None)),
        ];
        // A catalogue must hold every type `Operation` names.
        let missing_shipped = Operation::SHIPPED.map(missing);
        assert!(build_table(shipped).is_ok());
        for (op, documents) in cases.into_iter().chain(missing_shipped) {
            let err = build_table(&documents).expect_err(op);
            assert!(err.starts_with(op), "{op}: {err}");
        }
    }
}
