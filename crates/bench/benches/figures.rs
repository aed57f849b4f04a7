//! Figure-grade benchmarks in Criterion form: small, statistically
//! sampled versions of the headline comparisons. The full sweeps live in
//! the `fig2`/`fig7`/`fig8` binaries; these benches keep the headline
//! effects (contract gas growth, SCDB vs ETH-SC round times) under
//! continuous measurement.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scdb_bench::{eth_round, scdb_round};
use scdb_evm::{ReverseAuction, U256};
use scdb_sim::SimTime;
use scdb_workload::ScenarioConfig;
use std::hint::black_box;

/// Gas paid by `createBid` as capability counts grow — the O(n²)
/// validation term of §5.2.1, measured in wall time of the real metered
/// runtime.
fn bench_contract_bid_gas(c: &mut Criterion) {
    let mut g = c.benchmark_group("evm_create_bid");
    for caps in [4usize, 8, 16] {
        g.bench_with_input(BenchmarkId::new("capabilities", caps), &caps, |b, &caps| {
            let cap_list: Vec<String> = (0..caps).map(|i| format!("capability-{i:05}")).collect();
            b.iter_batched(
                || {
                    let mut market = ReverseAuction::new();
                    let (buyer, sup) = (U256::from_u64(1), U256::from_u64(2));
                    market
                        .execute(&sup, &ReverseAuction::call_create_asset(1, &cap_list))
                        .unwrap();
                    market
                        .execute(
                            &buyer,
                            &ReverseAuction::call_create_rfq(1, &cap_list, 1, 10),
                        )
                        .unwrap();
                    market
                },
                |mut market| {
                    let sup = U256::from_u64(2);
                    market
                        .execute(black_box(&sup), &ReverseAuction::call_create_bid(1, 1, 1))
                        .expect("bid")
                        .gas_used
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// One small auction round through each full stack. The measured value
/// is host wall time of the simulation, but the assertion inside keeps
/// the simulated-time headline (SCDB committing faster than ETH-SC)
/// under test on every bench run.
fn bench_full_rounds(c: &mut Criterion) {
    let config = ScenarioConfig {
        requests: 1,
        bidders_per_request: 3,
        capability_count: 4,
        capability_bytes: 300,
        seed: 0xF19,
    };
    let gap = SimTime::from_millis(20);
    let mut g = c.benchmark_group("full_round");
    g.sample_size(10);
    g.bench_function("scdb_1rfq_3bidders", |b| {
        b.iter(|| {
            let report = scdb_round(4, black_box(&config), gap);
            assert_eq!(report.rejected, 0);
            report.committed
        })
    });
    g.bench_function("ethsc_1rfq_3bidders", |b| {
        b.iter(|| {
            let report = eth_round(4, black_box(&config), gap);
            assert_eq!(report.reverted, 0);
            report.committed
        })
    });
    g.finish();
}

criterion_group!(benches, bench_contract_bid_gas, bench_full_rounds);
criterion_main!(benches);
