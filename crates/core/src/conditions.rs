//! Composable declarative validation conditions — the paper's
//! future-work direction made concrete (§8: "generalize our modeling
//! framework further to support more complex transaction modeling,
//! including transaction conditions and compositions"; §2.2: the
//! declarative model "is extensible, allowing the combination of simple
//! conditional expressions to form complex ones").
//!
//! A [`Condition`] is a first-class value describing *what must hold*
//! for a transaction against the committed ledger. Primitive conditions
//! cover the checks the paper's `C_α` sets use; combinators (`all`,
//! `any`, `not`) compose them. [`condition_set_for`] expresses each
//! native type's condition set declaratively; the differential tests
//! in this module check the composed sets agree with the hand-written
//! validators of [`crate::validate`] — so new transaction types can be
//! defined by *writing a condition expression* rather than a validator
//! function.

use crate::errors::ValidationError;
use crate::model::{AssetRef, Operation, Transaction};
use crate::validate;
use crate::view::LedgerView;
use std::fmt;

/// A declarative validation condition over `(transaction, ledger)`.
#[derive(Debug, Clone)]
pub enum Condition {
    /// `|I| ≥ n`.
    MinInputs(usize),
    /// `|R| ≥ n`.
    MinReferences(usize),
    /// `|R| == n`.
    ExactReferences(usize),
    /// No input spends an output (CREATE-style self-inputs only).
    NoSpends,
    /// Exactly one committed reference with the given operation exists.
    ExactlyOneReferencedOp(Operation),
    /// Every input's multi-signature verifies against its
    /// `owners_before` (the model's `verify(s, pb, m)`).
    SignaturesMatchOwners,
    /// Every output is held by a reserved account (`PBPK-ℛℯ𝓈`).
    OutputsToReserved,
    /// The referenced REQUEST's capabilities are a subset of the bid
    /// asset's capabilities (Algorithm 2 lines 8–11).
    CapabilitySubset,
    /// Every spend input resolves to a committed, unspent output with
    /// matching owners, and input shares balance output shares.
    SpendsBalance,
    /// At least one input carries a non-null asset amount.
    PositiveInputAmount,
    /// The declared asset id names a committed transaction.
    AssetCommitted,
    /// Negation.
    Not(Box<Condition>),
    /// Conjunction (short-circuits on the first failure, like the
    /// sequential checks of Algorithms 2–3).
    All(Vec<Condition>),
    /// Disjunction.
    Any(Vec<Condition>),
}

impl Condition {
    /// Convenience conjunction.
    pub fn all(conditions: impl IntoIterator<Item = Condition>) -> Condition {
        Condition::All(conditions.into_iter().collect())
    }

    /// Convenience disjunction.
    pub fn any(conditions: impl IntoIterator<Item = Condition>) -> Condition {
        Condition::Any(conditions.into_iter().collect())
    }

    /// Convenience negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(condition: Condition) -> Condition {
        Condition::Not(Box::new(condition))
    }

    /// Evaluates the condition; `Err` carries the first violated leaf.
    pub fn check(
        &self,
        tx: &Transaction,
        ledger: &impl LedgerView,
    ) -> Result<(), ConditionViolation> {
        match self {
            Condition::MinInputs(n) => ensure(
                tx.inputs.len() >= *n,
                self,
                format!("|I| = {} < {n}", tx.inputs.len()),
            ),
            Condition::MinReferences(n) => ensure(
                tx.references.len() >= *n,
                self,
                format!("|R| = {} < {n}", tx.references.len()),
            ),
            Condition::ExactReferences(n) => ensure(
                tx.references.len() == *n,
                self,
                format!("|R| = {} ≠ {n}", tx.references.len()),
            ),
            Condition::NoSpends => ensure(
                tx.inputs.iter().all(|i| i.fulfills.is_none()),
                self,
                "an input spends an output".to_owned(),
            ),
            Condition::ExactlyOneReferencedOp(op) => {
                let mut found = 0usize;
                for r in &tx.references {
                    match ledger.get(r) {
                        None => {
                            return Err(ConditionViolation::new(
                                self,
                                format!("reference {r} not committed"),
                            ))
                        }
                        Some(referenced) if referenced.operation == *op => found += 1,
                        Some(_) => {}
                    }
                }
                ensure(
                    found == 1,
                    self,
                    format!("{found} committed {op} references, need exactly 1"),
                )
            }
            Condition::SignaturesMatchOwners => validate::verify_input_signatures(tx)
                .map_err(|e| ConditionViolation::new(self, e.to_string())),
            Condition::OutputsToReserved => {
                for (i, output) in tx.outputs.iter().enumerate() {
                    if !output.public_keys.iter().all(|k| ledger.is_reserved(k)) {
                        return Err(ConditionViolation::new(
                            self,
                            format!("output {i} is not held by a reserved account"),
                        ));
                    }
                }
                Ok(())
            }
            Condition::CapabilitySubset => {
                let request = tx
                    .references
                    .iter()
                    .filter_map(|r| ledger.get(r))
                    .find(|t| t.operation == Operation::Request);
                let Some(request) = request else {
                    return Err(ConditionViolation::new(
                        self,
                        "no committed REQUEST reference".to_owned(),
                    ));
                };
                let AssetRef::Id(asset_id) = &tx.asset else {
                    return Err(ConditionViolation::new(
                        self,
                        "transaction has no asset id".to_owned(),
                    ));
                };
                let requested = ledger.request_capabilities(request);
                let offered = ledger.asset_capabilities(asset_id);
                let missing: Vec<String> = requested
                    .into_iter()
                    .filter(|c| !offered.contains(c))
                    .collect();
                ensure(
                    missing.is_empty(),
                    self,
                    format!("missing capabilities: {missing:?}"),
                )
            }
            Condition::SpendsBalance => {
                let input_amount = validate::validate_spend_inputs(tx, ledger)
                    .map_err(|e| ConditionViolation::new(self, e.to_string()))?;
                let output_amount = tx.output_amount();
                ensure(
                    input_amount == output_amount,
                    self,
                    format!("inputs {input_amount} ≠ outputs {output_amount}"),
                )
            }
            Condition::PositiveInputAmount => {
                let total: u64 = tx
                    .inputs
                    .iter()
                    .filter_map(|i| i.fulfills.as_ref())
                    .filter_map(|f| {
                        ledger.utxo(&scdb_store::OutputRef::new(f.tx_id.clone(), f.output_index))
                    })
                    .map(|u| u.amount)
                    .sum();
                ensure(
                    total > 0,
                    self,
                    "no input carries a non-null asset".to_owned(),
                )
            }
            Condition::AssetCommitted => match &tx.asset {
                AssetRef::Id(id) => ensure(
                    ledger.is_committed(id),
                    self,
                    format!("asset {id} is not committed"),
                ),
                AssetRef::WinBid(id) => ensure(
                    ledger.is_committed(id),
                    self,
                    format!("winning bid {id} is not committed"),
                ),
                AssetRef::Data(_) => Ok(()),
            },
            Condition::Not(inner) => match inner.check(tx, ledger) {
                Ok(()) => Err(ConditionViolation::new(
                    self,
                    "negated condition held".to_owned(),
                )),
                Err(_) => Ok(()),
            },
            Condition::All(items) => {
                for item in items {
                    item.check(tx, ledger)?;
                }
                Ok(())
            }
            Condition::Any(items) => {
                let mut last = None;
                for item in items {
                    match item.check(tx, ledger) {
                        Ok(()) => return Ok(()),
                        Err(v) => last = Some(v),
                    }
                }
                Err(last.unwrap_or_else(|| ConditionViolation::new(self, "empty Any".to_owned())))
            }
        }
    }

    /// Number of leaf conditions (a complexity measure for optimizers).
    pub fn leaf_count(&self) -> usize {
        match self {
            Condition::Not(inner) => inner.leaf_count(),
            Condition::All(items) | Condition::Any(items) => {
                items.iter().map(Condition::leaf_count).sum()
            }
            _ => 1,
        }
    }
}

/// A failed condition leaf with its reason.
#[derive(Debug, Clone)]
pub struct ConditionViolation {
    /// Debug rendering of the violated condition.
    pub condition: String,
    /// Human-readable explanation.
    pub reason: String,
}

impl ConditionViolation {
    fn new(condition: &Condition, reason: String) -> ConditionViolation {
        ConditionViolation {
            condition: format!("{condition:?}"),
            reason,
        }
    }
}

impl fmt::Display for ConditionViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "condition {} violated: {}", self.condition, self.reason)
    }
}

impl From<ConditionViolation> for ValidationError {
    fn from(v: ConditionViolation) -> ValidationError {
        ValidationError::Semantic(v.to_string())
    }
}

fn ensure(ok: bool, condition: &Condition, reason: String) -> Result<(), ConditionViolation> {
    if ok {
        Ok(())
    } else {
        Err(ConditionViolation::new(condition, reason))
    }
}

/// The declarative condition sets `C_α` for the shared (stateless +
/// ledger-queryable) fragment of each native type. These mirror the
/// validators of [`crate::validate`]; the per-type extras that need
/// bespoke cross-transaction logic (the full ACCEPT_BID settlement plan
/// check, RETURN's trigger rule) stay in the validators, exactly as the
/// paper keeps Algorithm 3's second half in the commit hook.
pub fn condition_set_for(op: Operation) -> Condition {
    use Condition::*;
    match op {
        Operation::Create => Condition::all([NoSpends, SignaturesMatchOwners]),
        Operation::Request => Condition::all([NoSpends, SignaturesMatchOwners]),
        Operation::Transfer => Condition::all([
            MinInputs(1),
            SignaturesMatchOwners,
            AssetCommitted,
            SpendsBalance,
        ]),
        Operation::Bid => Condition::all([
            MinInputs(1),                               // C_BID 1
            MinReferences(1),                           // C_BID 2
            ExactlyOneReferencedOp(Operation::Request), // C_BID 3
            SignaturesMatchOwners,                      // C_BID 5
            OutputsToReserved,                          // C_BID 6
            CapabilitySubset,                           // C_BID 7
            SpendsBalance,                              // C_BID 4+8
            PositiveInputAmount,                        // C_BID 4
        ]),
        Operation::Return => Condition::all([
            MinInputs(1),
            ExactReferences(1),
            SignaturesMatchOwners,
            AssetCommitted,
            SpendsBalance,
        ]),
        Operation::AcceptBid => Condition::all([
            MinInputs(1),
            ExactReferences(1),                         // C 2
            ExactlyOneReferencedOp(Operation::Request), // C 3
            AssetCommitted,
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TxBuilder;
    use crate::ledger::LedgerState;
    use scdb_crypto::KeyPair;
    use scdb_json::{arr, obj};

    struct Market {
        ledger: LedgerState,
        escrow: KeyPair,
        alice: KeyPair,
        sally: KeyPair,
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
            sally,
            asset,
            request,
        }
    }

    fn valid_bid(m: &Market) -> Transaction {
        TxBuilder::bid(m.asset.id.clone(), m.request.id.clone())
            .input(m.asset.id.clone(), 0, vec![m.alice.public_hex()])
            .output_with_prev(m.escrow.public_hex(), 1, vec![m.alice.public_hex()])
            .sign(&[&m.alice])
    }

    #[test]
    fn declarative_bid_conditions_accept_valid_bids() {
        let m = market();
        let bid = valid_bid(&m);
        condition_set_for(Operation::Bid)
            .check(&bid, &m.ledger)
            .expect("valid bid");
        // And the imperative validator agrees.
        validate::validate_bid(&bid, &m.ledger, None).expect("validator agrees");
    }

    type Mutation = (&'static str, Box<dyn Fn(&Market) -> Transaction>);

    /// Differential test: on a corpus of mutations, the declarative
    /// C_BID and the hand-written Algorithm 2 return the same verdict.
    #[test]
    fn declarative_and_imperative_bid_validation_agree() {
        let m = market();
        let mutations: Vec<Mutation> = vec![
            ("valid", Box::new(valid_bid)),
            (
                "no reference",
                Box::new(|m: &Market| {
                    let mut tx = valid_bid(m);
                    tx.references.clear();
                    crate::builder::sign_transaction(&mut tx, &[&m.alice]);
                    tx
                }),
            ),
            (
                "output not escrow",
                Box::new(|m: &Market| {
                    TxBuilder::bid(m.asset.id.clone(), m.request.id.clone())
                        .input(m.asset.id.clone(), 0, vec![m.alice.public_hex()])
                        .output_with_prev(m.alice.public_hex(), 1, vec![m.alice.public_hex()])
                        .sign(&[&m.alice])
                }),
            ),
            (
                "unsigned",
                Box::new(|m: &Market| {
                    let mut tx = valid_bid(m);
                    tx.inputs[0].fulfillment = String::new();
                    tx.seal();
                    tx
                }),
            ),
            (
                "amount mismatch",
                Box::new(|m: &Market| {
                    TxBuilder::bid(m.asset.id.clone(), m.request.id.clone())
                        .input(m.asset.id.clone(), 0, vec![m.alice.public_hex()])
                        .output_with_prev(m.escrow.public_hex(), 5, vec![m.alice.public_hex()])
                        .sign(&[&m.alice])
                }),
            ),
        ];
        for (name, mutate) in mutations {
            let tx = mutate(&m);
            let declarative = condition_set_for(Operation::Bid)
                .check(&tx, &m.ledger)
                .is_ok();
            let imperative = validate::validate_bid(&tx, &m.ledger, None).is_ok();
            assert_eq!(declarative, imperative, "verdicts diverge on {name:?}");
        }
    }

    #[test]
    fn capability_subset_names_the_missing_capability() {
        let m = market();
        // A request wanting something the asset lacks.
        let fancy_request = TxBuilder::request(obj! { "capabilities" => arr!["welding"] })
            .output(m.sally.public_hex(), 1)
            .nonce(9)
            .sign(&[&m.sally]);
        let mut ledger = m.ledger;
        ledger.apply(&fancy_request).unwrap();
        let bid = TxBuilder::bid(m.asset.id.clone(), fancy_request.id.clone())
            .input(m.asset.id.clone(), 0, vec![m.alice.public_hex()])
            .output_with_prev(m.escrow.public_hex(), 1, vec![m.alice.public_hex()])
            .sign(&[&m.alice]);
        let err = Condition::CapabilitySubset
            .check(&bid, &ledger)
            .unwrap_err();
        assert!(err.reason.contains("welding"), "{err}");
    }

    #[test]
    fn combinators_compose() {
        let m = market();
        let bid = valid_bid(&m);
        // any(contradiction, C_BID) holds; not(C_BID) fails.
        let c = Condition::any([Condition::MinInputs(99), condition_set_for(Operation::Bid)]);
        assert!(c.check(&bid, &m.ledger).is_ok());
        let n = Condition::not(condition_set_for(Operation::Bid));
        assert!(n.check(&bid, &m.ledger).is_err());
        // Double negation restores the verdict.
        let nn = Condition::not(Condition::not(condition_set_for(Operation::Bid)));
        assert!(nn.check(&bid, &m.ledger).is_ok());
    }

    #[test]
    fn any_reports_the_last_failure() {
        let m = market();
        let bid = valid_bid(&m);
        let c = Condition::any([Condition::MinInputs(5), Condition::ExactReferences(3)]);
        let err = c.check(&bid, &m.ledger).unwrap_err();
        assert!(err.condition.contains("ExactReferences"), "{err}");
    }

    #[test]
    fn leaf_count_measures_complexity() {
        assert_eq!(condition_set_for(Operation::Bid).leaf_count(), 8);
        assert_eq!(condition_set_for(Operation::Create).leaf_count(), 2);
        assert_eq!(
            Condition::not(Condition::all([
                Condition::MinInputs(1),
                Condition::NoSpends
            ]))
            .leaf_count(),
            2
        );
    }

    /// A brand-new transaction type defined purely declaratively: a
    /// "DONATE" (transfer to a reserved account with a reference to the
    /// cause) — no validator function written.
    #[test]
    fn new_type_definable_by_composition() {
        let m = market();
        let donate_conditions = Condition::all([
            Condition::MinInputs(1),
            Condition::SignaturesMatchOwners,
            Condition::OutputsToReserved,
            Condition::SpendsBalance,
            Condition::MinReferences(1),
        ]);
        // Shape it as a BID-like transfer into escrow referencing the
        // request as the "cause".
        let donation = valid_bid(&m);
        donate_conditions
            .check(&donation, &m.ledger)
            .expect("declaratively valid");
        assert_eq!(donate_conditions.leaf_count(), 5);
    }
}
