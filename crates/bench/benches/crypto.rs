//! Micro-benchmarks of the from-scratch crypto substrate: the
//! per-transaction costs (`sha3_hexdigest` ids, Ed25519 sign/verify,
//! multi-signatures) that the server cost model charges for.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scdb_crypto::{keccak_256, sha3_256, sha512, KeyPair, MultiSignature};
use std::hint::black_box;

fn bench_hashes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    for size in [64usize, 1024, 16 * 1024] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("sha3_256", size), &data, |b, d| {
            b.iter(|| sha3_256(black_box(d)))
        });
        g.bench_with_input(BenchmarkId::new("keccak_256", size), &data, |b, d| {
            b.iter(|| keccak_256(black_box(d)))
        });
        g.bench_with_input(BenchmarkId::new("sha512", size), &data, |b, d| {
            b.iter(|| sha512(black_box(d)))
        });
    }
    g.finish();
}

fn bench_ed25519(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let kp = KeyPair::generate(&mut rng);
    let message = vec![0x5Au8; 512];
    let signature = kp.sign(&message);

    let mut g = c.benchmark_group("ed25519");
    g.bench_function("sign_512B", |b| b.iter(|| kp.sign(black_box(&message))));
    g.bench_function("verify_512B", |b| {
        b.iter(|| kp.verify(black_box(&signature), black_box(&message)))
    });
    g.finish();
}

fn bench_multisig(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(9);
    let keys: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
    let signers: Vec<&KeyPair> = keys.iter().collect();
    let message = b"declarative transaction body".as_slice();
    let ms = MultiSignature::create(&signers, message);
    let required: Vec<_> = keys.iter().map(|k| *k.public()).collect();

    let mut g = c.benchmark_group("multisig");
    g.bench_function("create_3_of_3", |b| {
        b.iter(|| MultiSignature::create(black_box(&signers), black_box(message)))
    });
    g.bench_function("verify_3_of_3", |b| {
        b.iter(|| ms.verify(black_box(&required), black_box(message)))
    });
    g.bench_function("wire_round_trip", |b| {
        b.iter(|| MultiSignature::from_wire(&ms.to_wire()).expect("parses"))
    });
    g.finish();
}

criterion_group!(benches, bench_hashes, bench_ed25519, bench_multisig);
criterion_main!(benches);
