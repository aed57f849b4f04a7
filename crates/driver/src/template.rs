//! Transaction templates — "Driver utilizes the received payload to
//! generate a transaction by employing pre-existing templates customized
//! to each transaction type" (Fig. 4).
//!
//! A client hands the driver a *specification*: a small JSON document
//! naming the operation and the declarative intent (asset, outputs,
//! spends, references). The template layer turns it into a well-formed
//! unsigned [`Transaction`] of that type, refusing specifications that
//! don't fit the type's template.
//!
//! A type's template is its catalogue document (`types.yaml`), read
//! through its row, so a type added to the catalogue is templated with
//! no driver code. The row names the fields a specification carries:
//!
//! * the asset kind names the asset field: `data` → `asset` (any JSON
//!   value), `id` → `asset_id`, `win_bid_id` → `win_bid_id`;
//! * the REQUEST link names the one reference: `FirstReference` →
//!   `rfq_id`, `BidAtFirstReference` → `bid_id`, none → no reference;
//! * `outputs` is always required, and `inputs` unless the row has
//!   `NoSpends` (a mint's self-input is added when it is signed).
//!
//! `metadata` and `nonce` are optional for every type.

use scdb_core::conditions::{row, AssetKind, Condition, RequestLink};
use scdb_core::{AssetRef, Operation, Transaction, TxBuilder};
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

/// The error naming `field` as missing from an `operation` spec.
fn missing(operation: &'static str, field: &'static str) -> PrepareError {
    PrepareError::Field { operation, field }
}

fn str_field(
    spec: &Value,
    operation: &'static str,
    field: &'static str,
) -> Result<String, PrepareError> {
    let value = spec.get(field).and_then(Value::as_str);
    value.map(str::to_owned).ok_or(missing(operation, field))
}

/// The strings among `list`'s elements.
fn strings(list: &[Value]) -> Vec<String> {
    list.iter()
        .filter_map(|v| v.as_str().map(str::to_owned))
        .collect()
}

fn apply_outputs(
    mut b: TxBuilder,
    spec: &Value,
    operation: &'static str,
) -> Result<TxBuilder, PrepareError> {
    let outputs = spec.get("outputs").and_then(Value::as_array);
    for output in outputs.ok_or(missing(operation, "outputs"))? {
        let owner = output.get("public_key").and_then(Value::as_str);
        let owner = owner.ok_or(missing(operation, "outputs.public_key"))?;
        // Absent means one share; a mistyped amount is refused, not
        // read as one.
        let amount = match output.get("amount") {
            None => 1,
            Some(a) => a.as_u64().ok_or(missing(operation, "outputs.amount"))?,
        };
        let previous = output.get("previous_owners").and_then(Value::as_array);
        b = b.output_with_prev(owner, amount, previous.map(strings).unwrap_or_default());
    }
    Ok(b)
}

fn apply_inputs(
    mut b: TxBuilder,
    spec: &Value,
    operation: &'static str,
) -> Result<TxBuilder, PrepareError> {
    let inputs = spec.get("inputs").and_then(Value::as_array);
    for input in inputs.ok_or(missing(operation, "inputs"))? {
        let tx_id = input.get("transaction_id").and_then(Value::as_str);
        let tx_id = tx_id.ok_or(missing(operation, "inputs.transaction_id"))?;
        // Absent means output 0; an index past u32 is refused, never
        // truncated into another output.
        let index = match input.get("output_index") {
            None => 0,
            Some(i) => (i.as_u64().and_then(|i| u32::try_from(i).ok()))
                .ok_or(missing(operation, "inputs.output_index"))?,
        };
        let owners = input.get("owners").and_then(Value::as_array);
        let owners = owners.ok_or(missing(operation, "inputs.owners"))?;
        b = b.input(tx_id, index, strings(owners));
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

/// Instantiates the template of `spec["operation"]`'s type, producing
/// an unsigned transaction ready to be fulfilled (signed).
pub fn prepare(spec: &Value) -> Result<Transaction, PrepareError> {
    if spec.as_object().is_none() {
        return Err(PrepareError::NotAnObject);
    }
    let name = spec
        .get("operation")
        .and_then(Value::as_str)
        .ok_or_else(|| PrepareError::UnknownOperation("<missing>".to_owned()))?;
    let op =
        Operation::parse(name).ok_or_else(|| PrepareError::UnknownOperation(name.to_owned()))?;
    let (operation, declared) = (op.as_str(), row(op));
    let asset = match declared.asset {
        AssetKind::Data => AssetRef::Data(
            spec.get("asset")
                .cloned()
                .ok_or(missing(operation, "asset"))?,
        ),
        AssetKind::Id => AssetRef::Id(str_field(spec, operation, "asset_id")?),
        AssetKind::WinBidId => AssetRef::WinBid(str_field(spec, operation, "win_bid_id")?),
    };
    let mut b = TxBuilder::new(op, asset);
    if let Some(link) = declared.request {
        let field = match link {
            RequestLink::FirstReference => "rfq_id",
            RequestLink::BidAtFirstReference => "bid_id",
        };
        b = b.reference(str_field(spec, operation, field)?);
    }
    b = apply_outputs(b, spec, operation)?;
    if !declared.conditions.contains(&Condition::NoSpends) {
        b = apply_inputs(b, spec, operation)?;
    }
    Ok(apply_common(b, spec).build_unsigned())
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The template every type derives from its row, checked against
    /// each shipped type's fields: a spec that lacks the asset field
    /// names it, one that lacks the reference names `rfq_id` or
    /// `bid_id`, one that lacks spends names `inputs` unless the type
    /// mints, and a full spec fills them in.
    #[test]
    fn the_derived_template_covers_every_type() {
        let expected = [
            ("ACCEPT_BID", "win_bid_id", Some("rfq_id"), true),
            ("BID", "asset_id", Some("rfq_id"), true),
            ("CREATE", "asset", None, false),
            ("REQUEST", "asset", None, false),
            ("RETURN", "asset_id", Some("bid_id"), true),
            ("TRANSFER", "asset_id", None, true),
        ];
        let names: Vec<&str> = Operation::all().map(Operation::as_str).collect();
        assert_eq!(names, expected.map(|(name, ..)| name));
        let (asset, reference) = ("ab".repeat(32), "cd".repeat(32));
        for (operation, asset_field, reference_field, spends) in expected {
            let gap = |field| Err(PrepareError::Field { operation, field });
            let mut spec = obj! { "operation" => operation };
            assert_eq!(prepare(&spec), gap(asset_field), "{operation}");
            spec.insert(asset_field, asset.as_str());
            if let Some(field) = reference_field {
                assert_eq!(prepare(&spec), gap(field), "{operation}");
                spec.insert(field, reference.as_str());
            }
            assert_eq!(prepare(&spec), gap("outputs"), "{operation}");
            spec.insert("outputs", arr![obj! { "public_key" => "e5".repeat(32) }]);
            if spends {
                assert_eq!(prepare(&spec), gap("inputs"), "{operation}");
            }
            spec.insert(
                "inputs",
                arr![
                    obj! { "transaction_id" => asset.as_str(), "owners" => arr!["ee".repeat(32)] }
                ],
            );
            let tx = prepare(&spec).expect(operation);
            assert_eq!(tx.operation.as_str(), operation);
            let held = match &tx.asset {
                AssetRef::Data(data) => data.as_str(),
                AssetRef::Id(id) | AssetRef::WinBid(id) => Some(id.as_str()),
            };
            assert_eq!(held, Some(asset.as_str()), "{operation}");
            let references = reference_field.map(|_| reference.clone());
            assert_eq!(tx.references, Vec::from_iter(references), "{operation}");
        }
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
        // An index that does not fit u32, or an amount that is not a
        // count, is refused, not read as another number.
        let mut spec = spec;
        let input = obj! {
            "transaction_id" => "ab".repeat(32),
            "output_index" => 1u64 << 32,
            "owners" => arr!["ee".repeat(32)],
        };
        spec.insert("inputs", arr![input]);
        assert_eq!(
            prepare(&spec),
            Err(PrepareError::Field {
                operation: "TRANSFER",
                field: "inputs.output_index"
            })
        );
        let output = obj! { "public_key" => "ff".repeat(32), "amount" => "2" };
        spec.insert("outputs", arr![output]);
        assert_eq!(
            prepare(&spec),
            Err(PrepareError::Field {
                operation: "TRANSFER",
                field: "outputs.amount"
            })
        );
    }
}
