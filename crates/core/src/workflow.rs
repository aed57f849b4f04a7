//! Blockchain transaction workflows (paper §3.2, Definition 5).
//!
//! "Transaction workflow is a sequence of transactions T1 … Tn where T1
//! is head that initiates the workflow and Tn is tail": the head has a
//! null input, and every later transaction's inputs must come from
//! committed transactions. [`validate_workflow_sequence`] checks those
//! structural conditions over a concrete sequence. Which operation may
//! follow which is not listed here: each type's row in the catalogue
//! (`conditions`, `request`) already says what it needs committed.

use crate::errors::ValidationError;
use crate::model::Transaction;
use crate::view::LedgerView;
use std::collections::HashSet;

/// Definition 5's structural conditions over a concrete sequence:
/// the head's inputs are null (no spends), and every other transaction's
/// spends come from committed transactions — either already on the
/// ledger or earlier in the sequence.
pub fn validate_workflow_sequence(
    txs: &[&Transaction],
    ledger: &impl LedgerView,
) -> Result<(), ValidationError> {
    let Some(head) = txs.first() else {
        return Err(ValidationError::Semantic("workflow is empty".to_owned()));
    };
    if head.inputs.iter().any(|i| i.fulfills.is_some()) {
        return Err(ValidationError::Semantic(
            "workflow head must have a null input (Definition 5)".to_owned(),
        ));
    }
    let mut committed_here: HashSet<&str> = HashSet::new();
    committed_here.insert(head.id.as_str());
    for tx in &txs[1..] {
        for (i, input) in tx.inputs.iter().enumerate() {
            if let Some(fulfills) = &input.fulfills {
                let known = committed_here.contains(fulfills.tx_id.as_str())
                    || ledger.is_committed(&fulfills.tx_id);
                if !known {
                    return Err(ValidationError::Semantic(format!(
                        "workflow step {} input {i} spends uncommitted transaction {}",
                        tx.operation, fulfills.tx_id
                    )));
                }
            }
        }
        committed_here.insert(tx.id.as_str());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerState;
    use crate::model::{AssetRef, Input, InputRef, Operation, Output};
    use scdb_json::Value;

    fn tx(op: Operation, id: &str, spends: Option<(&str, u32)>) -> Transaction {
        Transaction {
            id: id.to_owned(),
            operation: op,
            asset: AssetRef::Data(Value::object()),
            inputs: vec![Input {
                owners_before: vec!["aa".repeat(32)],
                fulfills: spends.map(|(t, i)| InputRef {
                    tx_id: t.to_owned(),
                    output_index: i,
                }),
                fulfillment: "f".into(),
            }],
            outputs: vec![Output::new("bb".repeat(32), 1)],
            metadata: Value::Null,
            children: vec![],
            references: vec![],
        }
    }

    #[test]
    fn head_must_have_null_input() {
        let ledger = crate::ledger::LedgerState::new();
        let bad_head = tx(Operation::Create, "h", Some(("x", 0)));
        assert!(validate_workflow_sequence(&[&bad_head], &ledger).is_err());
        let good_head = tx(Operation::Create, "h", None);
        assert!(validate_workflow_sequence(&[&good_head], &ledger).is_ok());
    }

    #[test]
    fn later_steps_must_spend_committed() {
        let ledger = crate::ledger::LedgerState::new();
        let head = tx(Operation::Create, "h", None);
        let ok_step = tx(Operation::Transfer, "t1", Some(("h", 0)));
        assert!(validate_workflow_sequence(&[&head, &ok_step], &ledger).is_ok());

        let dangling = tx(Operation::Transfer, "t2", Some(("ghost", 0)));
        let err = validate_workflow_sequence(&[&head, &dangling], &ledger).unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn ledger_commits_count_as_committed() {
        let mut ledger = LedgerState::new();
        let mut pre = tx(Operation::Create, "", None);
        pre.seal();
        ledger.apply(&pre).unwrap();
        let head = tx(Operation::Create, "h", None);
        let step = tx(Operation::Transfer, "t", Some((pre.id.as_str(), 0)));
        assert!(validate_workflow_sequence(&[&head, &step], &ledger).is_ok());
    }
}
