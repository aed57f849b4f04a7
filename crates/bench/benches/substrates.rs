//! Substrate micro-benchmarks: JSON, YAML-schema parsing, the document
//! store (indexed vs scanned queries), the UTXO set, and one consensus
//! round — the building blocks whose costs the server model charges.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scdb_consensus::{BftConfig, CountingApp, Harness};
use scdb_json::{obj, Value};
use scdb_sim::SimTime;
use scdb_store::{Collection, Filter, OutputRef, Utxo, UtxoSet};
use std::hint::black_box;

fn sample_tx_json() -> String {
    let mut caps = Vec::new();
    for i in 0..8 {
        caps.push(Value::from(format!("capability-{i:04}")));
    }
    obj! {
        "id" => "ab".repeat(32),
        "operation" => "BID",
        "asset" => obj! { "id" => "cd".repeat(32) },
        "metadata" => obj! { "capabilities" => Value::Array(caps) },
        "outputs" => scdb_json::arr![obj! { "amount" => 1u64, "public_keys" => scdb_json::arr!["e5".repeat(32)] }],
    }
    .to_compact_string()
}

fn bench_json(c: &mut Criterion) {
    let payload = sample_tx_json();
    let value = scdb_json::parse(&payload).unwrap();
    let mut g = c.benchmark_group("json");
    g.bench_function("parse_tx_payload", |b| {
        b.iter(|| scdb_json::parse(black_box(&payload)).expect("parses"))
    });
    g.bench_function("canonical_serialize", |b| {
        b.iter(|| black_box(&value).to_canonical_string())
    });
    g.finish();
}

fn bench_yaml_schema(c: &mut Criterion) {
    let yaml = scdb_schema::schema_yaml("BID").expect("BID schema exists");
    c.bench_function("yaml/parse_bid_schema", |b| {
        b.iter(|| scdb_schema::parse_yaml(black_box(yaml.as_str())).expect("parses"))
    });
}

fn populated_collection(docs: usize) -> Collection {
    let col = Collection::new("transactions");
    for i in 0..docs {
        col.insert(obj! {
            "operation" => if i % 10 == 0 { "REQUEST" } else { "CREATE" },
            "asset" => obj! { "data" => obj! { "capabilities" => scdb_json::arr![format!("cap-{}", i % 50)] } },
            "n" => i as u64,
        })
        .unwrap();
    }
    col
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("store");
    for docs in [1_000usize, 10_000] {
        let scan_col = populated_collection(docs);
        let filter = Filter::eq("operation", "REQUEST");
        g.bench_with_input(BenchmarkId::new("find_scan", docs), &scan_col, |b, col| {
            b.iter(|| col.find(black_box(&filter)))
        });
        let indexed = populated_collection(docs);
        indexed.create_index("operation");
        g.bench_with_input(
            BenchmarkId::new("find_indexed", docs),
            &indexed,
            |b, col| b.iter(|| col.find(black_box(&filter))),
        );
    }
    g.finish();
}

fn bench_utxo(c: &mut Criterion) {
    c.bench_function("utxo/add_spend_cycle", |b| {
        b.iter_batched(
            || {
                let set = UtxoSet::new();
                for i in 0..100u32 {
                    set.add(
                        OutputRef::new("t".repeat(64), i),
                        Utxo {
                            owners: vec!["aa".repeat(32)],
                            previous_owners: vec![],
                            amount: 1,
                            asset_id: "a".repeat(64),
                            spent_by: None,
                        },
                    );
                }
                set
            },
            |set| {
                for i in 0..100u32 {
                    set.spend(&OutputRef::new("t".repeat(64), i), "spender")
                        .unwrap();
                }
                set
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

fn bench_consensus_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("consensus");
    g.sample_size(20);
    g.bench_function("tendermint_4node_20tx_round", |b| {
        b.iter(|| {
            let mut h = Harness::new(BftConfig::tendermint(4), CountingApp::new(4));
            for i in 0..20 {
                h.submit_at(SimTime::from_millis(i), format!("tx{i}"));
            }
            h.run();
            assert_eq!(h.committed_count(), 20);
            h.now()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_json,
    bench_yaml_schema,
    bench_store,
    bench_utxo,
    bench_consensus_round
);
criterion_main!(benches);
