//! Nested blockchain transactions (paper §3.1 Def. 2, §4.2).
//!
//! "The traditional nested-transaction semantics is that a parent
//! transaction is not committed unless child transactions have been
//! committed." Blockchain immutability forbids undoing a partially
//! settled parent, so SmartchainDB adopts the *non-locking* approach:
//! the parent ACCEPT_BID commits first, the children (the winner
//! TRANSFER and n−1 RETURNs) are determined at commit time
//! (`deterRtrnTxs`, Algorithm 3's second part) and settled
//! asynchronously under *eventually-commit* semantics, tracked by
//! [`NestedTracker`] (the `accept_tx_recovery` collection).

use crate::builder::sign_transaction;
use crate::errors::ValidationError;
use crate::model::{AssetRef, Input, InputRef, Operation, Output, Transaction};
use crate::validate::requester_account;
use crate::view::LedgerView;
use scdb_crypto::KeyPair;
use scdb_json::Value;
use scdb_store::{OutputRef, Utxo};
use std::collections::{HashMap, HashSet};

/// Algorithm 3, commit phase (`deterRtrnTxs` + the winner transfer):
/// determines and signs the children of a committed ACCEPT_BID.
///
/// The children are system transactions signed by the escrow account:
/// one TRANSFER of the winning bid's escrow shares to the requester, and
/// one RETURN per unaccepted bid back to its original bidder.
///
/// A pure function of `ledger` and `escrow`: it reads committed
/// transactions and UTXO entries, writes nothing, and ed25519 signing is
/// deterministic — so any number of accepts may be determined
/// concurrently against one ledger, and every replica derives the same
/// bytes.
pub fn determine_children(
    ledger: &impl LedgerView,
    accept: &Transaction,
    escrow: &KeyPair,
) -> Result<Vec<Transaction>, ValidationError> {
    let plan = SettlementPlan::of(ledger, accept)?;
    accept
        .inputs
        .iter()
        .map(|input| {
            let (bid_output, utxo) = bid_output(ledger, input)?;
            plan.child(ledger, bid_output, utxo, escrow)
        })
        .collect()
}

/// One ACCEPT_BID input's child, as a ledger that may already hold it
/// sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum Child {
    /// The bid's escrow output is spent by this committed child: its id
    /// is on the ledger, nothing is derived or signed.
    Settled(String),
    /// The bid's escrow output is still locked: the child is determined
    /// and escrow-signed, to be committed.
    Outstanding(Transaction),
}

impl Child {
    /// The child's transaction id.
    pub fn id(&self) -> &str {
        match self {
            Child::Settled(id) => id,
            Child::Outstanding(child) => &child.id,
        }
    }
}

/// [`determine_children`] against a ledger some of the children may
/// already be committed to — recovery's view, and commit time's, where
/// none is. One [`Child`] per input, in input order, with the same ids
/// [`determine_children`] yields.
///
/// A settled child is read off the UTXO set: a bid's escrow output is
/// spent at most once, only an escrow-signed transaction can spend it,
/// and [`scdb_store::Utxo::spent_by`] names the one that did. Metadata
/// on an unrelated transaction cannot forge that — a user-signed
/// TRANSFER claiming `parent` / `settles_bid` spends none of the bid's
/// outputs. The spender is still cross-checked (a committed
/// RETURN/TRANSFER whose `metadata.parent` is this accept); anything
/// else is treated as unsettled and derived, which is what a ledger
/// without `spent_by` would do.
pub fn determine_outstanding_children(
    ledger: &impl LedgerView,
    accept: &Transaction,
    escrow: &KeyPair,
) -> Result<Vec<Child>, ValidationError> {
    let plan = SettlementPlan::of(ledger, accept)?;
    accept
        .inputs
        .iter()
        .map(|input| {
            let (bid_output, utxo) = bid_output(ledger, input)?;
            match plan.settled_child(ledger, &utxo) {
                Some(id) => Ok(Child::Settled(id)),
                None => plan
                    .child(ledger, bid_output, utxo, escrow)
                    .map(Child::Outstanding),
            }
        })
        .collect()
}

/// The ACCEPT_BID a settlement child names: a RETURN or TRANSFER is
/// one of its parent's children when its `metadata.parent` names that
/// parent — the shape [`determine_children`] gives every child.
pub fn settlement_parent(tx: &Transaction) -> Option<&str> {
    match tx.operation {
        Operation::Return | Operation::Transfer => {
            tx.metadata.get("parent").and_then(Value::as_str)
        }
        _ => None,
    }
}

/// The bid escrow output an ACCEPT_BID input names, with its UTXO entry.
fn bid_output<'a>(
    ledger: &impl LedgerView,
    input: &'a Input,
) -> Result<(&'a InputRef, Utxo), ValidationError> {
    let fulfills = input.fulfills.as_ref().ok_or_else(|| {
        ValidationError::Semantic("ACCEPT_BID input without a bid output".to_owned())
    })?;
    let out_ref = OutputRef::new(fulfills.tx_id.clone(), fulfills.output_index);
    let utxo = ledger
        .utxo(&out_ref)
        .ok_or_else(|| ValidationError::InputDoesNotExist(out_ref.to_string()))?;
    Ok((fulfills, utxo))
}

/// What every child of one ACCEPT_BID shares.
struct SettlementPlan<'a> {
    accept: &'a Transaction,
    win_bid_id: &'a str,
    requester: Vec<String>,
}

impl<'a> SettlementPlan<'a> {
    fn of(
        ledger: &impl LedgerView,
        accept: &'a Transaction,
    ) -> Result<SettlementPlan<'a>, ValidationError> {
        let AssetRef::WinBid(win_bid_id) = &accept.asset else {
            return Err(ValidationError::Semantic(
                "ACCEPT_BID asset must name the winning bid".to_owned(),
            ));
        };
        let request_id = accept.references.first().ok_or_else(|| {
            ValidationError::Semantic("ACCEPT_BID missing its REQUEST reference".to_owned())
        })?;
        let request = ledger
            .get(request_id)
            .ok_or_else(|| ValidationError::InputDoesNotExist(request_id.clone()))?;
        Ok(SettlementPlan {
            accept,
            win_bid_id,
            requester: requester_account(request)?.to_vec(),
        })
    }

    /// The committed child that spent the bid output `utxo`, if one did.
    fn settled_child(&self, ledger: &impl LedgerView, utxo: &Utxo) -> Option<String> {
        let spender = utxo.spent_by.as_ref()?;
        let child = ledger.get(spender)?;
        (settlement_parent(child) == Some(self.accept.id.as_str())).then(|| spender.clone())
    }

    /// Determines and signs the child settling the bid whose escrow
    /// output is `fulfills`, with UTXO entry `utxo`.
    fn child(
        &self,
        ledger: &impl LedgerView,
        fulfills: &InputRef,
        utxo: Utxo,
        escrow: &KeyPair,
    ) -> Result<Transaction, ValidationError> {
        let bid_id = &fulfills.tx_id;
        let bid = ledger
            .get(bid_id)
            .ok_or_else(|| ValidationError::InputDoesNotExist(bid_id.clone()))?;
        let asset_id = ledger
            .asset_id_of(bid)
            .ok_or_else(|| ValidationError::Semantic(format!("bid {bid_id} has no asset")))?;

        let mut metadata = Value::object();
        metadata.insert("parent", self.accept.id.clone());
        metadata.insert("settles_bid", bid_id.clone());

        // Winner: TRANSFER escrow -> requester. Unaccepted bid: RETURN
        // escrow -> original bidder, referencing the bid.
        let winner = bid_id == self.win_bid_id;
        let mut child = Transaction {
            id: String::new(),
            operation: if winner {
                Operation::Transfer
            } else {
                Operation::Return
            },
            asset: AssetRef::Id(asset_id),
            inputs: vec![Input {
                owners_before: utxo.owners.clone(),
                fulfills: Some(fulfills.clone()),
                fulfillment: String::new(),
            }],
            outputs: vec![Output {
                public_keys: if winner {
                    self.requester.clone()
                } else {
                    utxo.previous_owners
                },
                amount: utxo.amount,
                previous_owners: utxo.owners,
            }],
            metadata,
            children: vec![],
            references: if winner { vec![] } else { vec![bid_id.clone()] },
        };
        sign_transaction(&mut child, &[escrow]);
        Ok(child)
    }
}

/// Definition 2's third condition, as written: ∃ child containing every
/// parent output. The paper's Def. 4(6) states the (conflicting)
/// operational variant; both are provided, and the completeness check
/// below enforces the operational reading (see DESIGN.md §4).
pub fn def2_holds(parent: &Transaction, children: &[Transaction]) -> bool {
    !children.is_empty()
        && children.iter().any(|child| {
            parent
                .outputs
                .iter()
                .all(|po| child.outputs.iter().any(|co| co == po))
        })
}

/// Validates a *complete* nested transaction (parent plus determined
/// children) against Definition 4's structural conditions:
/// |Ch| == |I| (condition 4), every child's outputs are a strict subset
/// of the parent's when n > 1 (condition 6, operational reading), and
/// the union of child outputs equals the parent's settlement plan.
pub fn validate_nested_complete(
    parent: &Transaction,
    children: &[Transaction],
) -> Result<(), ValidationError> {
    if children.len() != parent.inputs.len() {
        return Err(ValidationError::Semantic(format!(
            "nested transaction must have |Ch| == |I|: {} children, {} inputs",
            children.len(),
            parent.inputs.len()
        )));
    }
    let mut uncovered: Vec<&Output> = parent.outputs.iter().collect();
    for (ci, child) in children.iter().enumerate() {
        for co in &child.outputs {
            match uncovered
                .iter()
                .position(|po| po.public_keys == co.public_keys && po.amount == co.amount)
            {
                Some(pos) => {
                    uncovered.swap_remove(pos);
                }
                None => {
                    return Err(ValidationError::Semantic(format!(
                        "child {ci} settles an output not in the parent's plan"
                    )));
                }
            }
        }
        if children.len() > 1 && child.outputs.len() >= parent.outputs.len() {
            return Err(ValidationError::Semantic(format!(
                "child {ci} outputs must be a proper subset of the parent's"
            )));
        }
    }
    if !uncovered.is_empty() {
        return Err(ValidationError::Semantic(format!(
            "{} parent outputs have no settling child",
            uncovered.len()
        )));
    }
    Ok(())
}

/// Settlement status of one nested transaction — the in-memory twin of
/// the `accept_tx_recovery` collection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NestedStatus {
    /// Parent committed; children determined but not all settled.
    PendingChildren { outstanding: usize },
    /// Every child committed — the nested transaction reached its
    /// eventual commit.
    Complete,
}

/// Tracks eventual-commit progress of nested transactions.
#[derive(Default)]
pub struct NestedTracker {
    /// parent id -> outstanding child ids.
    pending: HashMap<String, HashSet<String>>,
    /// child id -> parent id.
    parent_of: HashMap<String, String>,
    complete: HashSet<String>,
}

impl NestedTracker {
    pub fn new() -> NestedTracker {
        NestedTracker::default()
    }

    /// Registers a committed parent and its determined children.
    pub fn register(&mut self, parent_id: &str, child_ids: impl IntoIterator<Item = String>) {
        let set: HashSet<String> = child_ids.into_iter().collect();
        for child in &set {
            self.parent_of.insert(child.clone(), parent_id.to_owned());
        }
        if set.is_empty() {
            self.complete.insert(parent_id.to_owned());
        } else {
            self.pending.insert(parent_id.to_owned(), set);
        }
    }

    /// Marks a child committed; returns the parent id when this was the
    /// last outstanding child (the parent's eventual commit).
    pub fn child_committed(&mut self, child_id: &str) -> Option<String> {
        let parent = self.parent_of.get(child_id)?.clone();
        let outstanding = self.pending.get_mut(&parent)?;
        outstanding.remove(child_id);
        if outstanding.is_empty() {
            self.pending.remove(&parent);
            self.complete.insert(parent.clone());
            return Some(parent);
        }
        None
    }

    /// Current status of a registered parent.
    pub fn status(&self, parent_id: &str) -> Option<NestedStatus> {
        if self.complete.contains(parent_id) {
            return Some(NestedStatus::Complete);
        }
        self.pending
            .get(parent_id)
            .map(|s| NestedStatus::PendingChildren {
                outstanding: s.len(),
            })
    }

    /// Child ids still outstanding for a parent (used by crash recovery
    /// to re-enqueue RETURNs).
    pub fn outstanding_children(&self, parent_id: &str) -> Vec<String> {
        self.pending
            .get(parent_id)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// All parents with outstanding children.
    pub fn incomplete_parents(&self) -> Vec<String> {
        self.pending.keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(owner: &str, amount: u64) -> Output {
        Output::new(owner.repeat(32), amount)
    }

    fn tx_with_outputs(outputs: Vec<Output>, inputs: usize) -> Transaction {
        Transaction {
            id: "p".repeat(64),
            operation: Operation::AcceptBid,
            asset: AssetRef::WinBid("w".repeat(64)),
            inputs: (0..inputs)
                .map(|i| Input {
                    owners_before: vec!["e5".repeat(32)],
                    fulfills: Some(InputRef {
                        tx_id: format!("{i}").repeat(64),
                        output_index: 0,
                    }),
                    fulfillment: String::new(),
                })
                .collect(),
            outputs,
            metadata: Value::Null,
            children: vec![],
            references: vec!["r".repeat(64)],
        }
    }

    fn child_with_outputs(outputs: Vec<Output>) -> Transaction {
        Transaction {
            id: "c".repeat(64),
            operation: Operation::Return,
            asset: AssetRef::Id("a".repeat(64)),
            inputs: vec![],
            outputs,
            metadata: Value::Null,
            children: vec![],
            references: vec![],
        }
    }

    #[test]
    fn complete_settlement_validates() {
        let parent = tx_with_outputs(vec![out("1", 5), out("2", 3)], 2);
        let children = vec![
            child_with_outputs(vec![out("1", 5)]),
            child_with_outputs(vec![out("2", 3)]),
        ];
        assert_eq!(validate_nested_complete(&parent, &children), Ok(()));
    }

    #[test]
    fn child_count_must_match_inputs() {
        let parent = tx_with_outputs(vec![out("1", 5)], 2);
        let children = vec![child_with_outputs(vec![out("1", 5)])];
        assert!(validate_nested_complete(&parent, &children).is_err());
    }

    #[test]
    fn unplanned_child_output_rejected() {
        let parent = tx_with_outputs(vec![out("1", 5), out("2", 3)], 2);
        let children = vec![
            child_with_outputs(vec![out("1", 5)]),
            child_with_outputs(vec![out("9", 3)]),
        ];
        assert!(validate_nested_complete(&parent, &children).is_err());
    }

    #[test]
    fn uncovered_parent_output_rejected() {
        let parent = tx_with_outputs(vec![out("1", 5), out("2", 3)], 2);
        let children = vec![
            child_with_outputs(vec![out("1", 5)]),
            child_with_outputs(vec![]),
        ];
        assert!(validate_nested_complete(&parent, &children).is_err());
    }

    #[test]
    fn def2_predicate() {
        let parent = tx_with_outputs(vec![out("1", 5)], 1);
        // One child holding every parent output satisfies Def. 2.
        let all_in_one = vec![child_with_outputs(vec![out("1", 5)])];
        assert!(def2_holds(&parent, &all_in_one));
        // Split settlement does not satisfy Def. 2's literal reading.
        let parent2 = tx_with_outputs(vec![out("1", 5), out("2", 3)], 2);
        let split = vec![
            child_with_outputs(vec![out("1", 5)]),
            child_with_outputs(vec![out("2", 3)]),
        ];
        assert!(!def2_holds(&parent2, &split));
        assert!(!def2_holds(&parent, &[]));
    }

    #[test]
    fn tracker_eventual_commit() {
        let mut t = NestedTracker::new();
        t.register("parent", ["c1".to_owned(), "c2".to_owned()]);
        assert_eq!(
            t.status("parent"),
            Some(NestedStatus::PendingChildren { outstanding: 2 })
        );
        assert_eq!(t.child_committed("c1"), None);
        assert_eq!(
            t.status("parent"),
            Some(NestedStatus::PendingChildren { outstanding: 1 })
        );
        assert_eq!(t.child_committed("c2"), Some("parent".to_owned()));
        assert_eq!(t.status("parent"), Some(NestedStatus::Complete));
        assert!(t.incomplete_parents().is_empty());
    }

    #[test]
    fn tracker_outstanding_listing_for_recovery() {
        let mut t = NestedTracker::new();
        t.register("p", ["a".to_owned(), "b".to_owned(), "c".to_owned()]);
        t.child_committed("b");
        let mut outstanding = t.outstanding_children("p");
        outstanding.sort();
        assert_eq!(outstanding, vec!["a", "c"]);
        assert_eq!(t.incomplete_parents(), vec!["p".to_owned()]);
    }

    #[test]
    fn tracker_ignores_unknown_children() {
        let mut t = NestedTracker::new();
        t.register("p", ["a".to_owned()]);
        assert_eq!(t.child_committed("zz"), None);
        assert_eq!(
            t.status("p"),
            Some(NestedStatus::PendingChildren { outstanding: 1 })
        );
    }

    #[test]
    fn empty_children_set_is_immediately_complete() {
        let mut t = NestedTracker::new();
        t.register("p", Vec::<String>::new());
        assert_eq!(t.status("p"), Some(NestedStatus::Complete));
    }
}
