//! The embedded transaction types — the YAML blueprints of paper Fig. 5.
//!
//! `types.yaml` is the catalogue: one document per SmartchainDB
//! transaction type, and the only place a type is stated. All types
//! share the structural skeleton below (id, version, operation, asset,
//! inputs, outputs, metadata, children, references); a document's
//! `asset`, `references` and `nested` fields fill in where they differ
//! — the asset shape, the reference-vector cardinality and the
//! children allowance. The rest of a document (`conditions`, `request`,
//! `writes`) is the type's row, which `scdb-core` builds from
//! [`type_documents`]. "If an operation does not match this
//! predetermined set, it is rejected during schema validation and is
//! prevented from proceeding to the semantic validation phase" (§4.1).

use crate::model::{Schema, SchemaError, Violation};
use crate::yaml::parse_yaml;
use scdb_json::{Map, Value};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The catalogue text, one document per native type.
const TYPES: &str = include_str!("types.yaml");

/// Shared skeleton; `@...@` placeholders are filled from each type's
/// document by [`fill_template`].
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
    type: object
    additionalProperties: false
    required: [@ASSET@]
    properties:
      @ASSET@:
        @SHAPE@
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

fn bad(keyword: &str, why: &'static str) -> SchemaError {
    SchemaError::BadKeyword(keyword.to_owned(), why)
}

/// Fills the shared skeleton from one type's document: `asset` picks
/// the asset shape, `references` bounds the reference vector, and
/// `nested` lets `children` be non-empty.
pub fn fill_template(op: &str, doc: &Value) -> Result<String, SchemaError> {
    let asset = doc.get("asset").and_then(Value::as_str).unwrap_or("");
    let shape = match asset {
        "data" => "type: object",
        "id" | "win_bid_id" => "\"$ref\": \"#/definitions/sha3_hexdigest\"",
        _ => return Err(bad("asset", "expected data, id or win_bid_id")),
    };
    let mut refs = Vec::new();
    if let Some(bounds) = doc.get("references") {
        let bounds = (bounds.as_object()).ok_or_else(|| bad("references", "expected a mapping"))?;
        for (bound, n) in bounds {
            match (bound.as_str(), n.as_u64()) {
                ("minItems" | "maxItems", Some(n)) => refs.push(format!("    {bound}: {n}")),
                _ => return Err(bad("references", "expected minItems and maxItems counts")),
            }
        }
    }
    let children = match doc.get("nested").map(Value::as_bool) {
        None | Some(Some(false)) => "    maxItems: 0",
        Some(Some(true)) => "",
        Some(None) => return Err(bad("nested", "expected a boolean")),
    };
    Ok(TEMPLATE
        .replace("@OP@", op)
        .replace("@ASSET@", asset)
        .replace("@SHAPE@", shape)
        .replace("@REFS@", &refs.join("\n"))
        .replace("@CHILDREN@", children))
}

/// The parsed catalogue, and each type's schema text and compiled
/// schema.
struct Catalogue {
    documents: Map,
    schemas: BTreeMap<String, (String, Schema)>,
}

fn compile(text: &str) -> Result<Catalogue, String> {
    let Value::Object(documents) = parse_yaml(text).map_err(|e| e.to_string())? else {
        return Err("expected a mapping from type name to document".to_owned());
    };
    let mut schemas = BTreeMap::new();
    for (op, doc) in &documents {
        let yaml = fill_template(op, doc).map_err(|e| format!("{op}: {e}"))?;
        let schema = Schema::from_yaml(&yaml).map_err(|e| format!("{op}: {e}"))?;
        schemas.insert(op.clone(), (yaml, schema));
    }
    Ok(Catalogue { documents, schemas })
}

#[allow(
    clippy::expect_used,
    reason = "the catalogue is embedded at build time: a document that does not parse or compile is a build defect, named with its type"
)]
fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| compile(TYPES).expect("the embedded type catalogue compiles"))
}

/// Every type's document, by operation name.
pub fn type_documents() -> &'static Map {
    &catalogue().documents
}

/// The YAML schema text of one operation.
pub fn schema_yaml(op: &str) -> Option<String> {
    catalogue().schemas.get(op).map(|(yaml, _)| yaml.clone())
}

/// Looks up the compiled schema for an operation name.
pub fn schema_for(op: &str) -> Option<&'static Schema> {
    catalogue().schemas.get(op).map(|(_, schema)| schema)
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
        assert_eq!(type_documents().len(), 6);
        for op in type_documents().keys() {
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

    /// A document whose schema half does not fill the skeleton is an
    /// error, not a panic.
    #[test]
    fn malformed_schema_halves_are_refused() {
        let doc = |asset: Value, references: Value, nested: Value| {
            let mut doc = obj! { "asset" => asset };
            if !references.is_null() {
                doc.insert("references", references);
            }
            if !nested.is_null() {
                doc.insert("nested", nested);
            }
            doc
        };
        let fine = doc("id".into(), obj! { "minItems" => 1 }, true.into());
        assert!(fill_template("X", &fine).is_ok());
        for malformed in [
            doc("blob".into(), Value::Null, Value::Null),
            doc(Value::Null, Value::Null, Value::Null),
            doc("id".into(), arr![1], Value::Null),
            doc("id".into(), obj! { "uniqueItems" => true }, Value::Null),
            doc("id".into(), obj! { "maxItems" => -1 }, Value::Null),
            doc("id".into(), Value::Null, "yes".into()),
        ] {
            assert!(
                matches!(
                    fill_template("X", &malformed),
                    Err(SchemaError::BadKeyword(..))
                ),
                "{malformed}"
            );
        }
    }

    #[test]
    fn schema_yaml_text_is_exposed() {
        let text = schema_yaml("BID").unwrap();
        assert!(text.contains("enum: [BID]"));
        assert!(text.contains("sha3_hexdigest"));
        assert!(schema_yaml("NOPE").is_none());
    }
}
