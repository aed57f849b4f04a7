//! Layer probes: the traced run replays the workload's own inputs
//! through one public function of a layer at a time, in isolation, so
//! each layer has a cost per transaction that does not depend on what
//! the others did. Probes run after the traced repetition and never
//! feed an end-to-end metric.

use crate::inputs::{Inputs, Kind, Query, IN_FLIGHT};
use crate::rep::{ADMISSION_WORKERS, WORKERS};
use crate::stats::{median, ratio};
use scdb_core::pipeline::{
    build_schedule, commit_batch_planned, derive_footprints, PipelineOptions,
};
use scdb_core::validate::{
    batch_verify_input_signatures, validate_transaction, verify_input_signatures,
};
use scdb_core::{determine_children, LedgerState, LedgerView, Operation, Telemetry, Transaction};
use scdb_crypto::KeyPair;
use scdb_driver::Driver;
use scdb_json::{arr, obj, Value};
use scdb_mempool::{Mempool, MempoolConfig};
use scdb_schema::validate_transaction_schema;
use scdb_server::Node;
use scdb_store::{collections, Db, Filter, OutputRef, Utxo, UtxoSet};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Metric name → value, as the probes and the span arithmetic fill it.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Signatures per pooled verification, as admission batches them.
const VERIFY_CHUNK: usize = 512;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos() as f64)
}

fn us_per(total_ns: f64, count: usize) -> f64 {
    ratio(total_ns / 1e3, count as f64)
}

fn fresh_ledger(inputs: &Inputs) -> LedgerState {
    let mut ledger = LedgerState::new();
    ledger.add_reserved_account(inputs.escrow.public_hex());
    ledger
}

/// An in-memory configuration: what `rep::pipeline_options` sets,
/// minus durability.
fn shadow_options(workers: usize) -> PipelineOptions {
    PipelineOptions::with_workers(workers)
        .durable(false)
        .with_telemetry(Telemetry::disabled())
}

/// Determines and applies the children of every ACCEPT_BID the block
/// committed; returns the time spent determining them and how many
/// accepts there were.
fn settle_children(
    ledger: &mut LedgerState,
    batch: &[Arc<Transaction>],
    committed: &[String],
    escrow: &KeyPair,
) -> (f64, usize) {
    let (mut determine_ns, mut accepts) = (0.0, 0);
    for tx in batch {
        if tx.operation != Operation::AcceptBid || !committed.contains(&tx.id) {
            continue;
        }
        let (children, ns) = timed(|| determine_children(&*ledger, tx, escrow));
        determine_ns += ns;
        accepts += 1;
        for child in children.expect("a committed ACCEPT_BID determines its children") {
            ledger.apply(&child).expect("children settle");
        }
    }
    (determine_ns, accepts)
}

fn json_schema_crypto(inputs: &Inputs, txs: &[Arc<Transaction>], m: &mut Metrics) {
    let payloads: Vec<&str> = inputs.writes.iter().map(|w| w.payload.as_str()).collect();
    let (_, parse_ns) = timed(|| {
        for payload in &payloads {
            black_box(scdb_json::parse(payload).is_ok());
        }
    });
    m.insert("json.parse_us_per_tx", us_per(parse_ns, payloads.len()));
    let (_, serialize_ns) = timed(|| {
        for tx in txs {
            black_box(tx.to_value().to_compact_string());
        }
    });
    m.insert("json.serialize_us_per_tx", us_per(serialize_ns, txs.len()));
    m.insert(
        "json.payload_bytes_mean",
        ratio(inputs.payload_bytes as f64, payloads.len() as f64),
    );

    let values: Vec<Value> = txs.iter().map(|tx| tx.to_value()).collect();
    let (_, schema_ns) = timed(|| {
        for value in &values {
            black_box(validate_transaction_schema(value).is_ok());
        }
    });
    m.insert("schema.validate_us_per_tx", us_per(schema_ns, values.len()));

    let (_, id_ns) = timed(|| {
        for tx in txs {
            black_box(tx.compute_id());
        }
    });
    m.insert("crypto.id_digest_us_per_tx", us_per(id_ns, txs.len()));

    // ACCEPT_BID is signed by the requester, not by its inputs' owners,
    // so the per-input check does not apply to it.
    let signed: Vec<&Transaction> = txs
        .iter()
        .map(Arc::as_ref)
        .filter(|tx| tx.operation != Operation::AcceptBid)
        .collect();
    let signatures: usize = signed
        .iter()
        .flat_map(|tx| &tx.inputs)
        .map(|input| input.owners_before.len())
        .sum();
    let (_, verify_ns) = timed(|| {
        for tx in &signed {
            black_box(verify_input_signatures(tx).is_ok());
        }
    });
    m.insert("crypto.verify_us_per_sig", us_per(verify_ns, signatures));
    let messages: Vec<String> = signed.iter().map(|tx| tx.signing_payload()).collect();
    let items: Vec<(&Transaction, &str)> = signed
        .iter()
        .copied()
        .zip(messages.iter().map(String::as_str))
        .collect();
    let (_, batch_ns) = timed(|| {
        for chunk in items.chunks(VERIFY_CHUNK) {
            black_box(batch_verify_input_signatures(chunk));
        }
    });
    m.insert(
        "crypto.batch_verify_us_per_sig",
        us_per(batch_ns, signatures),
    );
    let signer = KeyPair::from_seed([0x51; 32]);
    let to_sign = &messages[..messages.len().min(VERIFY_CHUNK)];
    let (_, sign_ns) = timed(|| {
        for message in to_sign {
            black_box(signer.sign(message.as_bytes()));
        }
    });
    m.insert("crypto.sign_us_per_sig", us_per(sign_ns, to_sign.len()));
    m.insert(
        "crypto.sigs_per_tx",
        ratio(signatures as f64, signed.len() as f64),
    );
}

/// Sequential validate + apply over the oracle's commit order, and the
/// same order through a bare `UtxoSet`.
fn sequential_replay(inputs: &Inputs, m: &mut Metrics) {
    let mut ledger = fresh_ledger(inputs);
    let (mut validate_ns, mut apply_ns) = (0.0, 0.0);
    for tx in &inputs.oracle_committed {
        let (verdict, ns) = timed(|| validate_transaction(tx, &ledger));
        validate_ns += ns;
        verdict.expect("the oracle's commit order validates");
        let (applied, ns) = timed(|| ledger.apply_shared(tx));
        apply_ns += ns;
        applied.expect("the oracle's commit order applies");
    }
    let count = inputs.oracle_committed.len();
    m.insert("core.validate_us_per_tx", us_per(validate_ns, count));
    m.insert("core.apply_us_per_tx", us_per(apply_ns, count));

    // ACCEPT_BID moves no output itself: its children do.
    let movers: Vec<&Arc<Transaction>> = inputs
        .oracle_committed
        .iter()
        .filter(|tx| tx.operation != Operation::AcceptBid)
        .collect();
    let utxos = UtxoSet::new();
    let mut utxo_ns = 0.0;
    for tx in &movers {
        let asset_id = ledger.asset_id_of(tx).unwrap_or_default();
        let spends: Vec<OutputRef> = tx
            .inputs
            .iter()
            .filter_map(|input| input.fulfills.as_ref())
            .map(|spent| OutputRef::new(spent.tx_id.clone(), spent.output_index))
            .collect();
        let adds: Vec<(OutputRef, Utxo)> = tx
            .outputs
            .iter()
            .enumerate()
            .map(|(index, output)| {
                (
                    OutputRef::new(tx.id.clone(), index as u32),
                    Utxo {
                        owners: output.public_keys.clone(),
                        previous_owners: output.previous_owners.clone(),
                        amount: output.amount,
                        asset_id: asset_id.clone(),
                        spent_by: None,
                    },
                )
            })
            .collect();
        let (applied, ns) = timed(|| utxos.apply_tx(&spends, adds, &tx.id));
        utxo_ns += ns;
        applied.expect("the oracle's commit order spends cleanly");
    }
    m.insert("store.utxo_apply_us_per_tx", us_per(utxo_ns, movers.len()));
    let digests: Vec<f64> = (0..32)
        .map(|_| timed(|| black_box(utxos.state_digest())).1 / 1e3)
        .collect();
    m.insert("store.digest_us", median(&digests));
}

/// A standalone `Mempool` over a shadow ledger: admission and drain
/// cost without the node around them.
fn mempool_replay(inputs: &Inputs, m: &mut Metrics) {
    let options = shadow_options(WORKERS);
    let mut ledger = fresh_ledger(inputs);
    let mut pool = Mempool::new(MempoolConfig {
        admission_workers: ADMISSION_WORKERS,
        telemetry: Telemetry::disabled(),
        ..MempoolConfig::default()
    });
    let payloads: Vec<String> = inputs.writes.iter().map(|w| w.payload.clone()).collect();
    let (mut admit_ns, mut drain_ns, mut drained) = (0.0, 0.0, 0);
    for group in &inputs.groups {
        let (_, ns) =
            timed(|| black_box(pool.admit_payload_batch(&payloads[group.clone()], &ledger)));
        admit_ns += ns;
        while !pool.is_empty() {
            let (formed, ns) = timed(|| pool.drain_batch(IN_FLIGHT, &ledger));
            drain_ns += ns;
            if formed.is_empty() {
                break;
            }
            drained += formed.len();
            let outcome =
                commit_batch_planned(&mut ledger, &formed.txs, &formed.schedule, &options);
            settle_children(&mut ledger, &formed.txs, &outcome.committed, &inputs.escrow);
        }
    }
    m.insert("mempool.admit_us_per_tx", us_per(admit_ns, payloads.len()));
    m.insert("mempool.drain_us_per_tx", us_per(drain_ns, drained));
}

/// Planning and commit on shadow ledgers: footprints, wave layering,
/// and `commit_batch_planned` at two workers and at one over the same
/// schedules.
fn planned_commit_replay(inputs: &Inputs, txs: &[Arc<Transaction>], m: &mut Metrics) {
    // What admission lets through, in arrival order.
    let admitted: Vec<Arc<Transaction>> = inputs
        .writes
        .iter()
        .zip(txs)
        .filter(|(write, _)| matches!(write.kind, Kind::Plain | Kind::DoubleSpend))
        .map(|(_, tx)| Arc::clone(tx))
        .collect();
    let (wide, narrow) = (shadow_options(WORKERS), shadow_options(1));
    let (mut ledger, mut ledger_w1) = (fresh_ledger(inputs), fresh_ledger(inputs));
    let (mut footprint_ns, mut schedule_ns, mut commit_ns, mut commit_w1_ns) = (0.0, 0.0, 0.0, 0.0);
    let (mut blocks, mut waves, mut rejected, mut re_validated) = (0usize, 0usize, 0usize, 0usize);
    let (mut children_ns, mut accepts) = (0.0, 0usize);
    // Blocks must not straddle a dependency phase any more than the
    // submission groups do.
    let mut offset = 0;
    for group in &inputs.groups {
        let in_group = inputs.writes[group.clone()]
            .iter()
            .filter(|w| matches!(w.kind, Kind::Plain | Kind::DoubleSpend))
            .count();
        let batch = &admitted[offset..offset + in_group];
        offset += in_group;
        if batch.is_empty() {
            continue;
        }
        let (footprints, ns) = timed(|| derive_footprints(batch, &ledger));
        footprint_ns += ns;
        let (schedule, ns) = timed(|| build_schedule(footprints));
        schedule_ns += ns;
        blocks += 1;
        waves += schedule.waves.len();
        let (outcome, ns) = timed(|| commit_batch_planned(&mut ledger, batch, &schedule, &wide));
        commit_ns += ns;
        let (outcome_w1, ns) =
            timed(|| commit_batch_planned(&mut ledger_w1, batch, &schedule, &narrow));
        commit_w1_ns += ns;
        assert_eq!(
            outcome.committed, outcome_w1.committed,
            "worker count must not change verdicts"
        );
        rejected += outcome.rejected.len();
        re_validated += outcome.re_validated;
        let (ns, settled) = settle_children(&mut ledger, batch, &outcome.committed, &inputs.escrow);
        children_ns += ns;
        accepts += settled;
        settle_children(&mut ledger_w1, batch, &outcome_w1.committed, &inputs.escrow);
    }
    assert_eq!(
        ledger.state_digest(),
        inputs.oracle_digest(),
        "the planned replay lands on the oracle's state"
    );
    let count = admitted.len();
    m.insert("core.footprint_us_per_tx", us_per(footprint_ns, count));
    m.insert("core.schedule_us_per_block", us_per(schedule_ns, blocks));
    m.insert("core.waves_per_block", ratio(waves as f64, blocks as f64));
    m.insert("core.wave_width_mean", ratio(count as f64, waves as f64));
    m.insert("core.commit_us_per_tx", us_per(commit_ns, count));
    m.insert("core.commit_us_per_tx_w1", us_per(commit_w1_ns, count));
    m.insert("core.parallel_speedup", ratio(commit_w1_ns, commit_ns));
    m.insert("core.rejected_txs", rejected as f64);
    m.insert("core.re_validated_txs", re_validated as f64);
    m.insert("core.children_us_per_accept", us_per(children_ns, accepts));

    let locked: Vec<f64> = inputs
        .queries
        .iter()
        .filter_map(|query| match query {
            Query::LockedBids(request) => Some(request),
            _ => None,
        })
        .map(|request| timed(|| black_box(ledger.locked_bids_for_request(request).len())).1 / 1e3)
        .collect();
    m.insert("core.locked_bids_us_p50", median(&locked));
}

/// The document mirror alone: inserts, an index-free scan, a point get.
fn document_store(inputs: &Inputs, m: &mut Metrics) {
    let db = Db::smartchaindb();
    let txs = db.collection(collections::TRANSACTIONS);
    let docs: Vec<Value> = inputs
        .oracle_committed
        .iter()
        .map(|tx| {
            let mut doc = tx.to_value();
            doc.insert("_id", tx.id.clone());
            doc
        })
        .collect();
    let count = docs.len();
    let (_, insert_ns) = timed(|| {
        for doc in docs {
            txs.insert(doc).expect("ids are unique");
        }
    });
    m.insert("store.db_insert_us_per_doc", us_per(insert_ns, count));
    let (mut scans, mut gets) = (Vec::new(), Vec::new());
    for query in inputs.queries.iter().take(128) {
        match query {
            Query::FindRequests(capability) => {
                let filter = Filter::and([
                    Filter::eq("operation", "REQUEST"),
                    Filter::Contains("asset.data.capabilities".into(), capability.as_str().into()),
                ]);
                scans.push(timed(|| black_box(txs.find(&filter).len())).1 / 1e3);
            }
            Query::GetById(id) => gets.push(timed(|| black_box(txs.get(id).is_some())).1 / 1e3),
            _ => {}
        }
    }
    m.insert("store.find_scan_us_p50", median(&scans));
    m.insert("store.get_us_p50", median(&gets));
}

/// Client side: the driver's Prepare-and-Sign over CREATE specs shaped
/// like the workload's. Moves only `setup_s`.
fn driver_prepare(m: &mut Metrics) {
    let driver = Driver::new(Node::with_options(
        KeyPair::from_seed([0xE5; 32]),
        shadow_options(1),
    ));
    let owner = KeyPair::from_seed([0xA1; 32]);
    let specs: Vec<Value> = (0..IN_FLIGHT as u64)
        .map(|nonce| {
            obj! {
                "operation" => "CREATE",
                "asset" => obj! { "capabilities" => arr!["3d-print", "cnc-milling"] },
                "outputs" => arr![obj! { "public_key" => owner.public_hex(), "amount" => 1u64 }],
                "nonce" => nonce,
            }
        })
        .collect();
    let (_, ns) = timed(|| {
        for spec in &specs {
            black_box(driver.prepare_and_sign(spec, &[&owner]).is_ok());
        }
    });
    m.insert("driver.prepare_sign_us_per_tx", us_per(ns, specs.len()));
}

/// Runs every probe over the workload's inputs.
pub fn run(inputs: &Inputs, m: &mut Metrics) {
    // Every write parses: tampering flips hex digits, never structure.
    let txs: Vec<Arc<Transaction>> = inputs
        .writes
        .iter()
        .map(|w| Arc::new(Transaction::from_payload(&w.payload).expect("payloads parse")))
        .collect();
    json_schema_crypto(inputs, &txs, m);
    sequential_replay(inputs, m);
    mempool_replay(inputs, m);
    planned_commit_replay(inputs, &txs, m);
    document_store(inputs, m);
    driver_prepare(m);
}
