//! Transaction templates — "Driver utilizes the received payload to
//! generate a transaction by employing pre-existing templates customized
//! to each transaction type" (Fig. 4).
//!
//! A client hands the driver a *specification*: a small JSON document
//! naming the operation and the declarative intent (asset data, outputs,
//! spends, references). The template layer turns it into a well-formed
//! unsigned [`Transaction`] for the matching type, refusing
//! specifications that don't fit the type's template.

use scdb_core::{Transaction, TxBuilder};
use scdb_json::Value;
use std::fmt;

/// Why a specification couldn't be templated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrepareError {
    /// The `operation` field is missing or not a known type name.
    UnknownOperation(String),
    /// A required field for this template is missing or mistyped.
    Field {
        operation: &'static str,
        field: &'static str,
    },
    /// The specification isn't a JSON object.
    NotAnObject,
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepareError::UnknownOperation(op) => write!(f, "unknown operation {op:?}"),
            PrepareError::Field { operation, field } => {
                write!(f, "{operation} template requires field {field:?}")
            }
            PrepareError::NotAnObject => write!(f, "transaction spec must be a JSON object"),
        }
    }
}

impl std::error::Error for PrepareError {}

fn str_field(
    spec: &Value,
    operation: &'static str,
    field: &'static str,
) -> Result<String, PrepareError> {
    spec.get(field)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or(PrepareError::Field { operation, field })
}

fn apply_outputs(
    mut b: TxBuilder,
    spec: &Value,
    operation: &'static str,
) -> Result<TxBuilder, PrepareError> {
    let outputs = spec
        .get("outputs")
        .and_then(Value::as_array)
        .ok_or(PrepareError::Field {
            operation,
            field: "outputs",
        })?;
    for output in outputs {
        let owner =
            output
                .get("public_key")
                .and_then(Value::as_str)
                .ok_or(PrepareError::Field {
                    operation,
                    field: "outputs.public_key",
                })?;
        let amount = output.get("amount").and_then(Value::as_u64).unwrap_or(1);
        let previous = output
            .get("previous_owners")
            .and_then(Value::as_array)
            .map(|arr| {
                arr.iter()
                    .filter_map(|v| v.as_str().map(str::to_owned))
                    .collect()
            })
            .unwrap_or_default();
        b = b.output_with_prev(owner, amount, previous);
    }
    Ok(b)
}

fn apply_inputs(
    mut b: TxBuilder,
    spec: &Value,
    operation: &'static str,
) -> Result<TxBuilder, PrepareError> {
    let inputs = spec
        .get("inputs")
        .and_then(Value::as_array)
        .ok_or(PrepareError::Field {
            operation,
            field: "inputs",
        })?;
    for input in inputs {
        let tx_id =
            input
                .get("transaction_id")
                .and_then(Value::as_str)
                .ok_or(PrepareError::Field {
                    operation,
                    field: "inputs.transaction_id",
                })?;
        let index = input
            .get("output_index")
            .and_then(Value::as_u64)
            .unwrap_or(0) as u32;
        let owners: Vec<String> = input
            .get("owners")
            .and_then(Value::as_array)
            .map(|arr| {
                arr.iter()
                    .filter_map(|v| v.as_str().map(str::to_owned))
                    .collect()
            })
            .ok_or(PrepareError::Field {
                operation,
                field: "inputs.owners",
            })?;
        b = b.input(tx_id, index, owners);
    }
    Ok(b)
}

fn apply_common(mut b: TxBuilder, spec: &Value) -> TxBuilder {
    if let Some(metadata) = spec.get("metadata") {
        b = b.metadata(metadata.clone());
    }
    if let Some(nonce) = spec.get("nonce").and_then(Value::as_u64) {
        b = b.nonce(nonce);
    }
    b
}

/// Instantiates the template for `spec["operation"]`, producing an
/// unsigned transaction ready to be fulfilled (signed).
pub fn prepare(spec: &Value) -> Result<Transaction, PrepareError> {
    if spec.as_object().is_none() {
        return Err(PrepareError::NotAnObject);
    }
    let op = spec
        .get("operation")
        .and_then(Value::as_str)
        .ok_or_else(|| PrepareError::UnknownOperation("<missing>".to_owned()))?;

    let builder = match op {
        "CREATE" => {
            let data = spec.get("asset").cloned().ok_or(PrepareError::Field {
                operation: "CREATE",
                field: "asset",
            })?;
            apply_outputs(TxBuilder::create(data), spec, "CREATE")?
        }
        "REQUEST" => {
            let data = spec.get("asset").cloned().ok_or(PrepareError::Field {
                operation: "REQUEST",
                field: "asset",
            })?;
            apply_outputs(TxBuilder::request(data), spec, "REQUEST")?
        }
        "TRANSFER" => {
            let asset_id = str_field(spec, "TRANSFER", "asset_id")?;
            let b = TxBuilder::transfer(asset_id);
            apply_inputs(apply_outputs(b, spec, "TRANSFER")?, spec, "TRANSFER")?
        }
        "BID" => {
            let asset_id = str_field(spec, "BID", "asset_id")?;
            let rfq_id = str_field(spec, "BID", "rfq_id")?;
            let b = TxBuilder::bid(asset_id, rfq_id);
            apply_inputs(apply_outputs(b, spec, "BID")?, spec, "BID")?
        }
        "RETURN" => {
            let asset_id = str_field(spec, "RETURN", "asset_id")?;
            let bid_id = str_field(spec, "RETURN", "bid_id")?;
            let b = TxBuilder::bid_return(asset_id, bid_id);
            apply_inputs(apply_outputs(b, spec, "RETURN")?, spec, "RETURN")?
        }
        "ACCEPT_BID" => {
            let win_bid_id = str_field(spec, "ACCEPT_BID", "win_bid_id")?;
            let rfq_id = str_field(spec, "ACCEPT_BID", "rfq_id")?;
            let b = TxBuilder::accept_bid(win_bid_id, rfq_id);
            apply_inputs(apply_outputs(b, spec, "ACCEPT_BID")?, spec, "ACCEPT_BID")?
        }
        other => return Err(PrepareError::UnknownOperation(other.to_owned())),
    };

    Ok(apply_common(builder, spec).build_unsigned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_core::Operation;
    use scdb_json::{arr, obj};

    #[test]
    fn create_template() {
        let spec = obj! {
            "operation" => "CREATE",
            "asset" => obj! { "capabilities" => arr!["cnc"] },
            "outputs" => arr![obj! { "public_key" => "aa".repeat(32), "amount" => 5u64 }],
            "metadata" => obj! { "origin" => "factory-7" },
            "nonce" => 3u64,
        };
        let tx = prepare(&spec).expect("templated");
        assert_eq!(tx.operation, Operation::Create);
        assert_eq!(tx.outputs[0].amount, 5);
        assert_eq!(
            tx.metadata.get("origin").and_then(Value::as_str),
            Some("factory-7")
        );
        assert_eq!(tx.metadata.get("nonce").and_then(Value::as_u64), Some(3));
        assert!(tx.id.is_empty(), "unsigned: id not yet sealed");
    }

    #[test]
    fn bid_template_wires_reference_and_inputs() {
        let spec = obj! {
            "operation" => "BID",
            "asset_id" => "ab".repeat(32),
            "rfq_id" => "cd".repeat(32),
            "inputs" => arr![obj! {
                "transaction_id" => "ab".repeat(32),
                "output_index" => 0u64,
                "owners" => arr!["ee".repeat(32)],
            }],
            "outputs" => arr![obj! { "public_key" => "e5".repeat(32), "amount" => 1u64 }],
        };
        let tx = prepare(&spec).expect("templated");
        assert_eq!(tx.operation, Operation::Bid);
        assert_eq!(tx.references, vec!["cd".repeat(32)]);
        assert_eq!(tx.inputs.len(), 1);
        assert_eq!(tx.inputs[0].owners_before, vec!["ee".repeat(32)]);
    }

    #[test]
    fn accept_bid_template() {
        let spec = obj! {
            "operation" => "ACCEPT_BID",
            "win_bid_id" => "11".repeat(32),
            "rfq_id" => "22".repeat(32),
            "inputs" => arr![obj! {
                "transaction_id" => "11".repeat(32),
                "owners" => arr!["e5".repeat(32)],
            }],
            "outputs" => arr![obj! { "public_key" => "aa".repeat(32), "amount" => 1u64 }],
        };
        let tx = prepare(&spec).expect("templated");
        assert_eq!(tx.operation, Operation::AcceptBid);
        assert_eq!(tx.references, vec!["22".repeat(32)]);
    }

    #[test]
    fn missing_fields_name_the_gap() {
        let spec = obj! { "operation" => "BID", "rfq_id" => "cd".repeat(32) };
        assert_eq!(
            prepare(&spec),
            Err(PrepareError::Field {
                operation: "BID",
                field: "asset_id"
            })
        );
        let spec = obj! { "operation" => "CREATE", "asset" => obj! {} };
        assert_eq!(
            prepare(&spec),
            Err(PrepareError::Field {
                operation: "CREATE",
                field: "outputs"
            })
        );
    }

    #[test]
    fn unknown_operations_rejected() {
        let spec = obj! { "operation" => "MINT" };
        assert_eq!(
            prepare(&spec),
            Err(PrepareError::UnknownOperation("MINT".to_owned()))
        );
        assert_eq!(
            prepare(&Value::from("not an object")),
            Err(PrepareError::NotAnObject)
        );
    }

    #[test]
    fn transfer_template_round_trips_through_wire() {
        let spec = obj! {
            "operation" => "TRANSFER",
            "asset_id" => "ab".repeat(32),
            "inputs" => arr![obj! {
                "transaction_id" => "ab".repeat(32),
                "output_index" => 1u64,
                "owners" => arr!["ee".repeat(32)],
            }],
            "outputs" => arr![obj! {
                "public_key" => "ff".repeat(32),
                "amount" => 2u64,
                "previous_owners" => arr!["ee".repeat(32)],
            }],
        };
        let tx = prepare(&spec).expect("templated");
        assert_eq!(tx.outputs[0].previous_owners, vec!["ee".repeat(32)]);
        assert_eq!(tx.inputs[0].fulfills.as_ref().unwrap().output_index, 1);
    }
}
