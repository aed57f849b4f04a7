//! Integration: every transaction the builders produce conforms to its
//! YAML schema (Algorithm 1), and schema validation rejects the
//! malformed payloads it exists to catch — before semantic validation
//! ever runs.

use smartchaindb::json::{arr, obj, Value};
use smartchaindb::schema::validate_transaction_schema;
use smartchaindb::{KeyPair, TxBuilder};

fn keys() -> (KeyPair, KeyPair, KeyPair) {
    (
        KeyPair::from_seed([0x5A; 32]),
        KeyPair::from_seed([0xA1; 32]),
        KeyPair::from_seed([0xE5; 32]),
    )
}

#[test]
fn every_builder_output_passes_its_schema() {
    let (sally, alice, escrow) = keys();
    let create = TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
        .output(alice.public_hex(), 1)
        .sign(&[&alice]);
    let request = TxBuilder::request(obj! { "capabilities" => arr!["cnc"] })
        .output(sally.public_hex(), 1)
        .sign(&[&sally]);
    let transfer = TxBuilder::transfer(create.id.clone())
        .input(create.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(sally.public_hex(), 1, vec![alice.public_hex()])
        .sign(&[&alice]);
    let bid = TxBuilder::bid(create.id.clone(), request.id.clone())
        .input(create.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(escrow.public_hex(), 1, vec![alice.public_hex()])
        .sign(&[&alice]);
    let ret = TxBuilder::bid_return(create.id.clone(), bid.id.clone())
        .input(bid.id.clone(), 0, vec![escrow.public_hex()])
        .output_with_prev(alice.public_hex(), 1, vec![escrow.public_hex()])
        .sign(&[&escrow]);
    let accept = TxBuilder::accept_bid(bid.id.clone(), request.id.clone())
        .input(bid.id.clone(), 0, vec![escrow.public_hex()])
        .output_with_prev(sally.public_hex(), 1, vec![escrow.public_hex()])
        .sign(&[&sally]);

    for tx in [&create, &request, &transfer, &bid, &ret, &accept] {
        validate_transaction_schema(&tx.to_value())
            .unwrap_or_else(|e| panic!("{} failed its schema: {e:?}", tx.operation));
    }
}

#[test]
fn schema_catalogue_covers_all_native_operations() {
    let expected = [
        "CREATE",
        "TRANSFER",
        "REQUEST",
        "BID",
        "RETURN",
        "ACCEPT_BID",
    ];
    for op in expected {
        assert!(
            smartchaindb::schema::schema_for(op).is_some(),
            "{op} has no schema"
        );
    }
}

fn valid_create_value() -> Value {
    let alice = KeyPair::from_seed([0xA1; 32]);
    TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
        .output(alice.public_hex(), 1)
        .sign(&[&alice])
        .to_value()
}

#[test]
fn unknown_operations_rejected_at_schema_stage() {
    let mut v = valid_create_value();
    v.insert("operation", "MINT");
    assert!(
        validate_transaction_schema(&v).is_err(),
        "operations outside the native set must fail Algorithm 1"
    );
}

#[test]
fn malformed_ids_rejected_at_schema_stage() {
    let mut v = valid_create_value();
    v.insert("id", "not-a-sha3-hexdigest");
    assert!(
        validate_transaction_schema(&v).is_err(),
        "id must match sha3_hexdigest"
    );
    let mut v = valid_create_value();
    v.insert("id", "AB".repeat(32)); // uppercase hex is non-canonical
    assert!(validate_transaction_schema(&v).is_err());
}

#[test]
fn missing_required_fields_rejected() {
    for field in ["id", "inputs", "outputs", "operation", "asset", "version"] {
        let mut v = valid_create_value();
        v.as_object_mut().unwrap().remove(field);
        assert!(
            validate_transaction_schema(&v).is_err(),
            "removing {field} must fail schema validation"
        );
    }
}

#[test]
fn wrong_field_types_rejected() {
    let mut v = valid_create_value();
    v.insert("outputs", "not an array");
    assert!(validate_transaction_schema(&v).is_err());

    let mut v = valid_create_value();
    v.insert("version", 2u64); // must be the string "2.0"
    assert!(validate_transaction_schema(&v).is_err());
}

#[test]
fn amounts_must_be_positive_integers() {
    let mut v = valid_create_value();
    let outputs = v.get_mut("outputs").and_then(Value::as_array_mut).unwrap();
    outputs[0].insert("amount", -3i64);
    assert!(
        validate_transaction_schema(&v).is_err(),
        "negative amounts rejected"
    );
}
