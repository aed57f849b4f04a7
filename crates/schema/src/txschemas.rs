//! The embedded transaction schemas — the YAML blueprints of paper Fig. 5.
//!
//! Each SmartchainDB transaction type gets its own schema document. All
//! share the structural skeleton (id, version, operation, asset, inputs,
//! outputs, metadata, children, references) and differ in the asset
//! shape, reference-vector cardinality and children allowance. "If an
//! operation does not match this predetermined set, it is rejected during
//! schema validation and is prevented from proceeding to the semantic
//! validation phase" (§4.1).

use crate::model::{Schema, Violation};
use scdb_json::Value;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The native operations of SmartchainDB (§3.2): the BigchainDB legacy
/// pair plus the marketplace primitives, with `ACCEPT_BID` the nested
/// type.
pub const OPERATIONS: [&str; 6] = [
    "CREATE",
    "TRANSFER",
    "REQUEST",
    "BID",
    "RETURN",
    "ACCEPT_BID",
];

/// Shared skeleton; `@...@` placeholders are substituted per operation.
const TEMPLATE: &str = r##"
type: object
additionalProperties: false
required:
  - id
  - version
  - operation
  - asset
  - inputs
  - outputs
  - metadata
  - children
  - references
properties:
  id:
    "$ref": "#/definitions/sha3_hexdigest"
  version:
    type: string
    enum: ['2.0']
  operation:
    type: string
    enum: [@OP@]
  asset:
@ASSET@
  inputs:
    type: array
    minItems: 1
    items:
      "$ref": "#/definitions/input"
  outputs:
    type: array
    minItems: 1
    items:
      "$ref": "#/definitions/output"
  metadata:
    type: [object, 'null']
  children:
    type: array
@CHILDREN@
    items:
      "$ref": "#/definitions/sha3_hexdigest"
  references:
    type: array
@REFS@
    items:
      "$ref": "#/definitions/sha3_hexdigest"
definitions:
  sha3_hexdigest:
    type: string
    pattern: '^[0-9a-f]{64}$'
  public_key:
    type: string
    pattern: '^[0-9a-f]{64}$'
  output:
    type: object
    additionalProperties: false
    required: [amount, public_keys]
    properties:
      amount:
        type: integer
        minimum: 1
      public_keys:
        type: array
        minItems: 1
        items:
          "$ref": "#/definitions/public_key"
      previous_owners:
        type: array
        items:
          "$ref": "#/definitions/public_key"
  input:
    type: object
    additionalProperties: false
    required: [owners_before, fulfillment, fulfills]
    properties:
      owners_before:
        type: array
        minItems: 1
        items:
          "$ref": "#/definitions/public_key"
      fulfillment:
        type: string
      fulfills:
        anyOf:
          - type: 'null'
          -
            type: object
            additionalProperties: false
            required: [transaction_id, output_index]
            properties:
              transaction_id:
                "$ref": "#/definitions/sha3_hexdigest"
              output_index:
                type: integer
                minimum: 0
"##;

const ASSET_DATA: &str = "    type: object
    additionalProperties: false
    required: [data]
    properties:
      data:
        type: object";

const ASSET_ID: &str = "    type: object
    additionalProperties: false
    required: [id]
    properties:
      id:
        \"$ref\": \"#/definitions/sha3_hexdigest\"";

const ASSET_WIN_BID: &str = "    type: object
    additionalProperties: false
    required: [win_bid_id]
    properties:
      win_bid_id:
        \"$ref\": \"#/definitions/sha3_hexdigest\"";

/// Produces the YAML schema text for one operation.
pub fn schema_yaml(op: &str) -> Option<String> {
    let asset = match op {
        "CREATE" | "REQUEST" => ASSET_DATA,
        "TRANSFER" | "BID" | "RETURN" => ASSET_ID,
        "ACCEPT_BID" => ASSET_WIN_BID,
        _ => return None,
    };
    // Reference-vector cardinality (validation conditions over R, §3.2):
    // BID needs >= 1 (the REQUEST), RETURN and ACCEPT_BID exactly 1,
    // CREATE/TRANSFER none, REQUEST unconstrained.
    let refs = match op {
        "CREATE" | "TRANSFER" => "    maxItems: 0",
        "BID" => "    minItems: 1",
        "RETURN" | "ACCEPT_BID" => "    minItems: 1\n    maxItems: 1",
        _ => "",
    };
    // Only the nested ACCEPT_BID type carries children.
    let children = if op == "ACCEPT_BID" {
        ""
    } else {
        "    maxItems: 0"
    };
    Some(
        TEMPLATE
            .replace("@OP@", op)
            .replace("@ASSET@", asset)
            .replace("@REFS@", refs)
            .replace("@CHILDREN@", children),
    )
}

#[allow(
    clippy::expect_used,
    reason = "every name in `OPERATIONS` has a template, and a shipped schema that fails to compile is a build defect"
)]
fn registry() -> &'static BTreeMap<&'static str, Schema> {
    static REGISTRY: OnceLock<BTreeMap<&'static str, Schema>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        OPERATIONS
            .iter()
            .map(|&op| {
                let yaml = schema_yaml(op).expect("known operation");
                let schema = Schema::from_yaml(&yaml)
                    .unwrap_or_else(|e| panic!("embedded schema for {op} must compile: {e}"));
                (op, schema)
            })
            .collect()
    })
}

/// Looks up the compiled schema for an operation name.
pub fn schema_for(op: &str) -> Option<&'static Schema> {
    registry().get(op)
}

/// Algorithm 1 (`validateT_schema`): dispatches on the payload's
/// `operation` field and validates the whole document against that
/// type's schema. Unknown operations are rejected outright.
pub fn validate_transaction_schema(tx: &Value) -> Result<(), Vec<Violation>> {
    let op = tx.get("operation").and_then(Value::as_str).unwrap_or("");
    match schema_for(op) {
        Some(schema) => schema.validate(tx),
        None => Err(vec![Violation {
            path: "operation".to_owned(),
            message: format!("operation {op:?} is not a native SmartchainDB transaction type"),
        }]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_json::{arr, obj};

    fn hex64(fill: char) -> String {
        std::iter::repeat_n(fill, 64).collect()
    }

    fn base_tx(op: &str, asset: Value) -> Value {
        obj! {
            "id" => hex64('a'),
            "version" => "2.0",
            "operation" => op,
            "asset" => asset,
            "inputs" => arr![obj! {
                "owners_before" => arr![hex64('b')],
                "fulfillment" => "sig",
                "fulfills" => Value::Null,
            }],
            "outputs" => arr![obj! {
                "amount" => 1,
                "public_keys" => arr![hex64('c')],
            }],
            "metadata" => Value::Null,
            "children" => Value::array(),
            "references" => Value::array(),
        }
    }

    #[test]
    fn all_schemas_compile() {
        for op in OPERATIONS {
            assert!(schema_for(op).is_some(), "{op}");
        }
    }

    #[test]
    fn create_accepts_canonical_payload() {
        let tx = base_tx("CREATE", obj! { "data" => obj! { "kind" => "printer" } });
        assert_eq!(validate_transaction_schema(&tx), Ok(()));
    }

    #[test]
    fn unknown_operation_rejected() {
        let tx = base_tx("DESTROY", obj! { "data" => Value::object() });
        let errs = validate_transaction_schema(&tx).unwrap_err();
        assert!(errs[0].message.contains("DESTROY"));
    }

    #[test]
    fn operation_asset_shape_must_match() {
        // A BID must carry an asset id, not inline data.
        let tx = base_tx("BID", obj! { "data" => Value::object() });
        assert!(validate_transaction_schema(&tx).is_err());

        let mut tx = base_tx("BID", obj! { "id" => hex64('d') });
        tx.insert("references", arr![hex64('e')]);
        assert_eq!(validate_transaction_schema(&tx), Ok(()));
    }

    #[test]
    fn bid_requires_reference() {
        // BID with an empty reference vector violates minItems.
        let tx = base_tx("BID", obj! { "id" => hex64('d') });
        let errs = validate_transaction_schema(&tx).unwrap_err();
        assert!(errs.iter().any(|v| v.path == "references"));
    }

    #[test]
    fn create_rejects_references_and_children() {
        let mut tx = base_tx("CREATE", obj! { "data" => Value::object() });
        tx.insert("references", arr![hex64('e')]);
        assert!(validate_transaction_schema(&tx).is_err());

        let mut tx = base_tx("CREATE", obj! { "data" => Value::object() });
        tx.insert("children", arr![hex64('e')]);
        assert!(validate_transaction_schema(&tx).is_err());
    }

    #[test]
    fn accept_bid_allows_children() {
        let mut tx = base_tx("ACCEPT_BID", obj! { "win_bid_id" => hex64('d') });
        tx.insert("references", arr![hex64('e')]);
        tx.insert("children", arr![hex64('f'), hex64('1')]);
        assert_eq!(validate_transaction_schema(&tx), Ok(()));
    }

    #[test]
    fn malformed_id_rejected() {
        let mut tx = base_tx("CREATE", obj! { "data" => Value::object() });
        tx.insert("id", "not-a-digest");
        let errs = validate_transaction_schema(&tx).unwrap_err();
        assert!(errs.iter().any(|v| v.path == "id"));
    }

    #[test]
    fn output_amount_must_be_positive_integer() {
        let mut tx = base_tx("CREATE", obj! { "data" => Value::object() });
        *tx.pointer_mut("outputs.0.amount").unwrap() = Value::from(0i64);
        assert!(validate_transaction_schema(&tx).is_err());
        *tx.pointer_mut("outputs.0.amount").unwrap() = Value::from("3");
        assert!(validate_transaction_schema(&tx).is_err());
    }

    #[test]
    fn extra_top_level_property_rejected() {
        let mut tx = base_tx("CREATE", obj! { "data" => Value::object() });
        tx.insert("gas_limit", 21000);
        let errs = validate_transaction_schema(&tx).unwrap_err();
        assert!(errs.iter().any(|v| v.path == "gas_limit"));
    }

    #[test]
    fn fulfills_accepts_null_or_pointer() {
        let mut tx = base_tx("TRANSFER", obj! { "id" => hex64('d') });
        *tx.pointer_mut("inputs.0.fulfills").unwrap() = obj! {
            "transaction_id" => hex64('d'),
            "output_index" => 0,
        };
        assert_eq!(validate_transaction_schema(&tx), Ok(()));

        *tx.pointer_mut("inputs.0.fulfills").unwrap() = obj! {
            "transaction_id" => "short",
            "output_index" => 0,
        };
        assert!(validate_transaction_schema(&tx).is_err());
    }

    #[test]
    fn missing_required_fields_reported() {
        let tx = obj! { "operation" => "CREATE" };
        let errs = validate_transaction_schema(&tx).unwrap_err();
        // id, version, asset, inputs, outputs, metadata, children, references
        assert!(errs.len() >= 8);
    }

    #[test]
    fn schema_yaml_text_is_exposed() {
        let text = schema_yaml("BID").unwrap();
        assert!(text.contains("enum: [BID]"));
        assert!(text.contains("sha3_hexdigest"));
        assert!(schema_yaml("NOPE").is_none());
    }
}
