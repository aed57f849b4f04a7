//! Validation-phase micro-benchmarks: the per-type `validateT_α` costs
//! (Algorithms 1–3) that dominate SmartchainDB's CheckTx/DeliverTx work,
//! measured on real transactions against a populated ledger.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion};
use scdb_core::{validate::validate_transaction, LedgerState, Transaction, TxBuilder};
use scdb_crypto::KeyPair;
use scdb_json::{arr, obj};
use std::hint::black_box;

struct Fixture {
    ledger: LedgerState,
    create: Transaction,
    transfer: Transaction,
    bid: Transaction,
    accept: Transaction,
}

/// A committed auction context: validate_* runs against this state.
fn fixture() -> Fixture {
    let escrow = KeyPair::from_seed([0xE5; 32]);
    let sally = KeyPair::from_seed([0x5A; 32]);
    let alice = KeyPair::from_seed([0xA1; 32]);
    let bob = KeyPair::from_seed([0xB0; 32]);

    let mut ledger = LedgerState::new();
    ledger.add_reserved_account(escrow.public_hex());

    let caps = arr!["3d-print", "cnc", "iso-9001", "laser-cutting"];
    let asset_a = TxBuilder::create(obj! { "capabilities" => caps.clone() })
        .output(alice.public_hex(), 2)
        .nonce(1)
        .sign(&[&alice]);
    let asset_b = TxBuilder::create(obj! { "capabilities" => caps.clone() })
        .output(bob.public_hex(), 1)
        .nonce(2)
        .sign(&[&bob]);
    // Spare assets with still-unspent outputs for the fresh TRANSFER and
    // BID under benchmark (the main assets are consumed by the committed
    // bids below).
    let asset_c = TxBuilder::create(obj! { "capabilities" => caps.clone() })
        .output(alice.public_hex(), 2)
        .nonce(4)
        .sign(&[&alice]);
    let asset_d = TxBuilder::create(obj! { "capabilities" => caps.clone() })
        .output(bob.public_hex(), 1)
        .nonce(5)
        .sign(&[&bob]);
    let request = TxBuilder::request(obj! { "capabilities" => arr!["3d-print", "cnc"] })
        .output(sally.public_hex(), 1)
        .nonce(3)
        .sign(&[&sally]);
    ledger.apply(&asset_a).unwrap();
    ledger.apply(&asset_b).unwrap();
    ledger.apply(&asset_c).unwrap();
    ledger.apply(&asset_d).unwrap();
    ledger.apply(&request).unwrap();

    let bid_a = TxBuilder::bid(asset_a.id.clone(), request.id.clone())
        .input(asset_a.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(escrow.public_hex(), 2, vec![alice.public_hex()])
        .sign(&[&alice]);
    let bid_b = TxBuilder::bid(asset_b.id.clone(), request.id.clone())
        .input(asset_b.id.clone(), 0, vec![bob.public_hex()])
        .output_with_prev(escrow.public_hex(), 1, vec![bob.public_hex()])
        .sign(&[&bob]);
    ledger.apply(&bid_a).unwrap();
    ledger.apply(&bid_b).unwrap();

    let accept = TxBuilder::accept_bid(bid_a.id.clone(), request.id.clone())
        .input(bid_a.id.clone(), 0, vec![escrow.public_hex()])
        .input(bid_b.id.clone(), 0, vec![escrow.public_hex()])
        .output_with_prev(sally.public_hex(), 2, vec![escrow.public_hex()])
        .output_with_prev(bob.public_hex(), 1, vec![escrow.public_hex()])
        .sign(&[&sally]);

    // Fresh (uncommitted) instances for the benchmarks to validate.
    let create = TxBuilder::create(obj! { "capabilities" => caps })
        .output(alice.public_hex(), 1)
        .nonce(99)
        .sign(&[&alice]);
    let transfer = TxBuilder::transfer(asset_c.id.clone())
        .input(asset_c.id.clone(), 0, vec![alice.public_hex()])
        .output_with_prev(bob.public_hex(), 2, vec![alice.public_hex()])
        .sign(&[&alice]);
    // A fresh BID over the spare asset whose escrow output is unspent.
    let bid = TxBuilder::bid(asset_d.id.clone(), request.id.clone())
        .input(asset_d.id.clone(), 0, vec![bob.public_hex()])
        .output_with_prev(escrow.public_hex(), 1, vec![bob.public_hex()])
        .metadata(obj! { "nonce" => 77u64 })
        .sign(&[&bob]);

    Fixture {
        ledger,
        create,
        transfer,
        bid,
        accept,
    }
}

fn bench_validation(c: &mut Criterion) {
    let f = fixture();
    let mut g = c.benchmark_group("validate");
    g.bench_function("CREATE", |b| {
        b.iter(|| validate_transaction(black_box(&f.create), &f.ledger).expect("valid"))
    });
    g.bench_function("TRANSFER", |b| {
        b.iter(|| validate_transaction(black_box(&f.transfer), &f.ledger).expect("valid"))
    });
    g.bench_function("BID", |b| {
        b.iter(|| validate_transaction(black_box(&f.bid), &f.ledger).expect("valid"))
    });
    g.bench_function("ACCEPT_BID", |b| {
        b.iter(|| validate_transaction(black_box(&f.accept), &f.ledger).expect("valid"))
    });
    g.finish();
}

fn bench_schema_only(c: &mut Criterion) {
    let f = fixture();
    let bid_value = f.bid.to_value();
    c.bench_function("schema/validateT_schema_BID", |b| {
        b.iter(|| scdb_schema::validate_transaction_schema(black_box(&bid_value)).expect("valid"))
    });
}

fn bench_prepare_and_sign(c: &mut Criterion) {
    let alice = KeyPair::from_seed([0xA1; 32]);
    let mut g = c.benchmark_group("prepare_sign");
    g.bench_function("CREATE_sign_and_seal", |b| {
        b.iter(|| {
            TxBuilder::create(obj! { "capabilities" => arr!["3d-print"] })
                .output(alice.public_hex(), 1)
                .nonce(5)
                .sign(black_box(&[&alice]))
        })
    });
    let sealed = TxBuilder::create(obj! {})
        .output(alice.public_hex(), 1)
        .sign(&[&alice]);
    g.bench_function("compute_id", |b| b.iter(|| black_box(&sealed).compute_id()));
    g.bench_function("wire_round_trip", |b| {
        b.iter(|| Transaction::from_payload(&black_box(&sealed).to_payload()).expect("parses"))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_validation,
    bench_schema_only,
    bench_prepare_and_sign
);
criterion_main!(benches);
