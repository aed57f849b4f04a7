//! Hostile bytes at the admission front door: the payload batch a
//! client hands `Node::ingest_payload_batch`, and the one decoding each
//! consensus application runs on a receiver (`App::decode` of
//! `SmartchainCluster` and `EthScApp`). Arbitrary strings, JSON-token
//! soup and one-byte mutations of valid marketplace payloads must get
//! exactly one verdict each, in input order — the verdicts a
//! member-by-member `ingest_payload` loop gives — and the next drain
//! must decide every member admitted. Nothing may panic.

use proptest::prelude::*;
use smartchaindb::consensus::App;
use smartchaindb::core::{WireError, MAX_PAYLOAD_BYTES};
use smartchaindb::evm::EthScApp;
use smartchaindb::json::{arr, obj, Value};
use smartchaindb::mempool::AdmitError;
use smartchaindb::server::SmartchainCluster;
use smartchaindb::workload::{scdb_plan, ScenarioConfig};
use smartchaindb::{KeyPair, Node, PipelineOptions, Transaction, TxBuilder};
use std::collections::HashSet;
use std::sync::OnceLock;

fn escrow() -> KeyPair {
    KeyPair::from_seed([0xE5; 32])
}

fn fresh_node() -> Node {
    Node::with_options(escrow(), PipelineOptions::with_workers(2).durable(false))
}

/// Two small auctions in dependency order: creates, request, bids and
/// the accept of each.
fn plan_payloads() -> &'static [String] {
    static PAYLOADS: OnceLock<Vec<String>> = OnceLock::new();
    PAYLOADS.get_or_init(|| {
        scdb_plan(
            &ScenarioConfig {
                requests: 2,
                bidders_per_request: 2,
                capability_count: 2,
                capability_bytes: 32,
                seed: 0xF00D,
            },
            &escrow().public_hex(),
        )
        .contended_payloads()
    })
}

thread_local! {
    /// Decoding reads no replica state, so one decoder of each kind
    /// serves every case.
    static DECODERS: (SmartchainCluster, EthScApp) = (SmartchainCluster::new(1), EthScApp::new(1));
}

/// `payload` with the byte at `at` (modulo its length) replaced, removed
/// or duplicated, read back as text the way a receiver would get it.
fn mutate(payload: &str, at: usize, byte: u8, kind: usize) -> String {
    let mut bytes = payload.as_bytes().to_vec();
    let at = at % (bytes.len() + 1);
    match kind {
        0 if at < bytes.len() => bytes[at] = byte,
        1 if at < bytes.len() => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, byte),
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Every front door on `inputs`. Both decoders return; an input that
/// decodes re-encodes to the value it was parsed from; the batch gets
/// one verdict per input, equal position by position to a serial loop
/// on a twin node; the pool grows by the admitted count; one drain
/// decides every admitted member with no post-commit failure.
fn through_the_front_door(inputs: &[String]) -> Result<(), TestCaseError> {
    DECODERS.with(|(cluster, eth)| {
        for input in inputs {
            let _ = cluster.decode(input);
            let _ = eth.decode(input);
        }
    });
    for input in inputs {
        if let Ok(tx) = Transaction::from_payload(input) {
            let sent = smartchaindb::json::parse(input).expect("it decoded");
            prop_assert_eq!(tx.to_value(), sent);
        }
    }

    let mut node = fresh_node();
    let mut serial = fresh_node();
    let before = node.mempool().len();
    let verdicts = node.ingest_payload_batch(inputs);
    prop_assert_eq!(verdicts.len(), inputs.len());
    let expected: Vec<_> = inputs.iter().map(|p| serial.ingest_payload(p)).collect();
    prop_assert_eq!(&verdicts, &expected);

    let admitted: Vec<String> = inputs
        .iter()
        .zip(&verdicts)
        .filter(|(_, verdict)| verdict.is_ok())
        .map(|(payload, _)| {
            Transaction::from_payload(payload)
                .expect("an admitted payload parses")
                .id
        })
        .collect();
    prop_assert_eq!(node.mempool().len(), before + admitted.len());

    let report = node.drain_block(usize::MAX);
    prop_assert!(
        report.post_commit_failures.is_empty(),
        "{:?}",
        report.post_commit_failures
    );
    let mut decided: HashSet<&str> = report
        .outcome
        .committed
        .iter()
        .map(String::as_str)
        .collect();
    decided.extend(
        report
            .outcome
            .rejected
            .iter()
            .map(|(member, _)| report.batch[*member].id.as_str()),
    );
    for id in &admitted {
        prop_assert!(decided.contains(id.as_str()), "{id} admitted, not decided");
    }
    prop_assert!(node.mempool().is_empty());
    Ok(())
}

/// JSON-shaped fragments, transaction keys among them, so arbitrary
/// token strings reach past the tokenizer into the wire decoders.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"operation\"",
    "\"CREATE\"",
    "\"TRANSFER\"",
    "\"ACCEPT_BID\"",
    "\"id\"",
    "\"asset\"",
    "\"data\"",
    "\"inputs\"",
    "\"outputs\"",
    "\"amount\"",
    "\"public_keys\"",
    "\"owners_before\"",
    "\"fulfillment\"",
    "\"fulfills\"",
    "\"output_index\"",
    "\"transaction_id\"",
    "\"children\"",
    "\"references\"",
    "\"metadata\"",
    "native",
    "ab",
    "0",
    "1",
    "-1",
    "1e99",
    "18446744073709551616",
    "null",
    "true",
    "\"\"",
    " ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_strings_get_one_verdict_each(
        wire in "\\PC{0,48}",
        tokens in prop::collection::vec(0usize..TOKENS.len(), 0..32),
        at in 0usize..3,
    ) {
        let jsonish: String = tokens.iter().map(|t| TOKENS[*t]).collect();
        let mut inputs = vec![wire, jsonish];
        // One valid member among the garbage, at a drawn position, so
        // a misaligned verdict cannot pass unnoticed.
        inputs.insert(at, plan_payloads()[0].clone());
        through_the_front_door(&inputs)?;
    }

    #[test]
    fn mutated_plan_payloads_get_one_verdict_each(
        pick in any::<usize>(),
        at in any::<usize>(),
        byte in any::<u8>(),
        kind in 0usize..3,
    ) {
        let mut inputs = plan_payloads().to_vec();
        let pick = pick % inputs.len();
        let mutant = mutate(&inputs[pick], at, byte, kind);
        // Right behind its original: an unchanged or equivalent mutant
        // meets the duplicate check, a broken one its own rejection.
        inputs.insert(pick + 1, mutant);
        through_the_front_door(&inputs)?;
    }
}

/// The mutation cases start from a stream the front door takes whole:
/// without this, a plan that no longer commits would leave them
/// checking rejections only.
#[test]
fn the_unmutated_plan_commits_through_the_front_door() {
    let mut node = fresh_node();
    assert!(node
        .ingest_payload_batch(plan_payloads())
        .iter()
        .all(Result::is_ok));
    let report = node.drain_block(usize::MAX);
    assert!(report.outcome.fully_committed(), "{:?}", report.outcome);
}

/// An `output_index` past `u32::MAX` is refused at parse, never cast
/// onto the index it aliases: a spend respelled with 2³² + k in place
/// of k would otherwise be accepted as a second spelling of itself.
#[test]
fn an_output_index_past_u32_is_refused_not_truncated() {
    let mut inputs = plan_payloads().to_vec();
    let (pick, k) = inputs
        .iter()
        .enumerate()
        .find_map(|(i, payload)| {
            let tx = Transaction::from_payload(payload).expect("plan payloads parse");
            let spent = tx.inputs.iter().find_map(|input| input.fulfills.as_ref())?;
            Some((i, spent.output_index))
        })
        .expect("the plan spends an output");
    let spelled = format!("\"output_index\":{k}");
    assert!(inputs[pick].contains(&spelled));
    let respelled = inputs[pick].replacen(
        &spelled,
        &format!("\"output_index\":{}", (1u64 << 32) + u64::from(k)),
        1,
    );
    DECODERS.with(|(cluster, eth)| {
        assert!(cluster.decode(&respelled).is_err());
        assert!(eth.decode(&respelled).is_err());
    });
    inputs.insert(pick, respelled);
    let verdicts = fresh_node().ingest_payload_batch(&inputs);
    for (i, verdict) in verdicts.iter().enumerate() {
        if i == pick {
            assert!(matches!(verdict, Err(AdmitError::Parse(_))), "{verdict:?}");
        } else {
            assert!(verdict.is_ok(), "member {i}: {verdict:?}");
        }
    }
}

/// A payload is the wire form of the transaction it decodes to, so
/// Algorithm 1, which checks the re-encoding, judges what the client
/// sent. An unknown key, another `version`, a missing `metadata` or
/// `fulfills`, a second asset key, an empty `previous_owners` or an
/// amount spelled as a float (`1.0`) would each decode to the clean
/// transaction, id and all, and are refused at parse instead.
#[test]
fn a_payload_that_is_not_its_wire_form_is_refused() {
    let clean = plan_payloads()[0].clone();
    let value = smartchaindb::json::parse(&clean).expect("plan payloads are JSON");
    assert!(value.get("asset").and_then(|a| a.get("data")).is_some());
    let respell = |edit: &dyn Fn(&mut Value)| {
        let mut value = value.clone();
        edit(&mut value);
        value.to_compact_string()
    };
    let not_canonical = WireError::NotCanonical;
    let respelled = [
        (
            respell(&|v| _ = v.insert("gas_limit", 21000)),
            &not_canonical,
        ),
        (
            respell(&|v| _ = v.insert("version", "9.9")),
            &WireError::Field("version"),
        ),
        (
            respell(&|v| _ = v.as_object_mut().expect("an object").remove("metadata")),
            &WireError::Field("metadata"),
        ),
        (
            respell(&|v| {
                _ = v
                    .get_mut("asset")
                    .expect("an asset")
                    .insert("id", "ab".repeat(32))
            }),
            &not_canonical,
        ),
        (
            respell(&|v| {
                let amount = v.pointer_mut("outputs.0.amount").expect("an output");
                *amount = Value::from(amount.as_f64().expect("a number"));
            }),
            &WireError::Field("outputs.amount"),
        ),
        (
            respell(&|v| {
                _ = v
                    .pointer_mut("outputs.0")
                    .expect("an output")
                    .insert("previous_owners", arr![])
            }),
            &not_canonical,
        ),
        (
            respell(&|v| {
                _ = v
                    .pointer_mut("inputs.0")
                    .expect("an input")
                    .insert("note", "x")
            }),
            &not_canonical,
        ),
        (
            respell(&|v| {
                let input = v.pointer_mut("inputs.0").and_then(Value::as_object_mut);
                input.expect("an input").remove("fulfills");
            }),
            &WireError::Field("inputs.fulfills"),
        ),
    ];
    let mut inputs = vec![clean];
    for (payload, refused) in respelled {
        assert_eq!(Transaction::from_payload(&payload).as_ref(), Err(refused));
        DECODERS.with(|(cluster, _)| assert!(cluster.decode(&payload).is_err()));
        inputs.push(payload);
    }
    let verdicts = fresh_node().ingest_payload_batch(&inputs);
    assert!(verdicts[0].is_ok(), "{verdicts:?}");
    for verdict in &verdicts[1..] {
        assert!(matches!(verdict, Err(AdmitError::Parse(_))), "{verdict:?}");
    }
}

/// A fulfillment is spelled one way. Upper-casing a pending spend's
/// fulfillment and re-sealing its id makes a twin that names the same
/// signatures and spends the same inputs under a different id; it is
/// refused at admission, and the original still commits.
#[test]
fn an_upper_cased_fulfillment_is_refused_at_admission() {
    let mut inputs = plan_payloads().to_vec();
    let (pick, original) = inputs
        .iter()
        .enumerate()
        .find_map(|(i, payload)| {
            let tx = Transaction::from_payload(payload).expect("plan payloads parse");
            tx.inputs[0].fulfills.is_some().then_some((i, tx))
        })
        .expect("the plan spends an output");
    let mut twin = original.clone();
    for input in &mut twin.inputs {
        input.fulfillment = input.fulfillment.to_uppercase();
    }
    twin.seal();
    assert_ne!(twin.id, original.id);
    inputs.insert(pick, twin.to_payload());

    let mut node = fresh_node();
    let verdicts = node.ingest_payload_batch(&inputs);
    for (i, verdict) in verdicts.iter().enumerate() {
        if i == pick {
            assert!(
                matches!(verdict, Err(AdmitError::InvalidSignature(_))),
                "{verdict:?}"
            );
        } else {
            assert!(verdict.is_ok(), "member {i}: {verdict:?}");
        }
    }
    let report = node.drain_block(usize::MAX);
    assert!(report.outcome.fully_committed(), "{:?}", report.outcome);
    let committed = node.ledger().committed_ids();
    assert!(committed.contains(&original.id));
    assert!(!committed.contains(&twin.id));
}

/// A CREATE whose metadata pads its payload to `len` bytes exactly.
fn payload_of_length(len: usize) -> String {
    let alice = KeyPair::from_seed([0xA1; 32]);
    let padded = |pad: usize| {
        TxBuilder::create(obj! { "capabilities" => arr!["cnc"] })
            .output(alice.public_hex(), 1)
            .metadata(obj! { "pad" => "x".repeat(pad) })
            .sign(&[&alice])
            .to_payload()
    };
    let payload = padded(len - padded(0).len());
    assert_eq!(payload.len(), len);
    payload
}

/// A payload of exactly `MAX_PAYLOAD_BYTES` is parsed, admitted and
/// committed like any other.
#[test]
fn a_payload_at_the_size_limit_is_admitted() {
    let payload = payload_of_length(MAX_PAYLOAD_BYTES);
    DECODERS.with(|(cluster, _)| assert!(cluster.decode(&payload).is_ok()));
    let mut node = fresh_node();
    let verdicts = node.ingest_payload_batch(std::slice::from_ref(&payload));
    assert!(verdicts[0].is_ok(), "{verdicts:?}");
    assert!(node.drain_block(usize::MAX).outcome.fully_committed());
}

/// One byte over `MAX_PAYLOAD_BYTES` is refused unparsed — a valid
/// transaction and bytes that are not JSON alike — through the node's
/// payload batch and the cluster's decoder, and the batch's other
/// members are unaffected.
#[test]
fn a_payload_one_byte_over_the_size_limit_is_refused_unparsed() {
    let over = payload_of_length(MAX_PAYLOAD_BYTES + 1);
    let garbage = "[".repeat(MAX_PAYLOAD_BYTES + 1);
    for payload in [&over, &garbage] {
        let refused = Transaction::from_payload(payload).unwrap_err();
        assert_eq!(
            refused,
            WireError::TooLarge {
                bytes: MAX_PAYLOAD_BYTES + 1
            }
        );
        DECODERS.with(|(cluster, _)| {
            assert_eq!(cluster.decode(payload).err(), Some(refused.to_string()));
        });
    }
    let inputs = [over, plan_payloads()[0].clone()];
    let verdicts = fresh_node().ingest_payload_batch(&inputs);
    assert!(
        matches!(&verdicts[0], Err(AdmitError::Parse(why)) if why.contains("byte limit")),
        "{verdicts:?}"
    );
    assert!(verdicts[1].is_ok(), "{verdicts:?}");
}
