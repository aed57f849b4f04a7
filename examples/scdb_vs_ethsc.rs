//! Side-by-side: the same reverse-auction workload through both stacks.
//!
//! A miniature of the paper's evaluation — one identical logical plan
//! rendered as declarative SmartchainDB transactions (Tendermint
//! cluster, pipelined) and as Solidity-style contract calls (Quorum
//! IBFT cluster, sequential execution) — with the §5.1.4 metrics
//! printed side by side.
//!
//! Run: `cargo run --release --example scdb_vs_ethsc`

use smartchaindb::evm::EthScHarness;
use smartchaindb::sim::SimTime;
use smartchaindb::telemetry::LatencyStats;
use smartchaindb::workload::{eth_plan, scdb_plan, ScenarioConfig};
use smartchaindb::SmartchainHarness;

fn main() {
    let config = ScenarioConfig {
        requests: 3,
        bidders_per_request: 5,
        capability_count: 6,
        capability_bytes: 600,
        seed: 0xD0E,
    };
    let gap = SimTime::from_millis(20);
    let (creates, requests, bids, accepts) = config.counts();
    println!(
        "workload: {creates} CREATE, {requests} REQUEST, {bids} BID, {accepts} ACCEPT_BID (~{}B capability payloads)\n",
        config.capability_bytes
    );

    // --- SmartchainDB ---------------------------------------------------
    let mut scdb = SmartchainHarness::new(4);
    let plan = scdb_plan(&config, &scdb.escrow_public_hex());
    let mut scdb_latencies: Vec<Vec<f64>> = Vec::new();
    for phase in plan.phases() {
        let start = phase_start(scdb.consensus().now(), scdb.consensus().last_commit_time());
        let handles: Vec<_> = phase
            .iter()
            .enumerate()
            .map(|(i, p)| {
                scdb.submit_at(
                    start + SimTime::from_micros(gap.as_micros() * i as u64),
                    p.clone(),
                )
            })
            .collect();
        scdb.run();
        scdb_latencies.push(
            handles
                .iter()
                .filter_map(|&h| scdb.consensus().latency(h).map(SimTime::as_secs_f64))
                .collect(),
        );
    }
    let scdb_tps = scdb.consensus().throughput_tps();

    // --- ETH-SC ----------------------------------------------------------
    let mut eth = EthScHarness::new(4);
    let plan = eth_plan(&config);
    let mut eth_latencies: Vec<Vec<f64>> = Vec::new();
    for phase in plan.phases() {
        let start = phase_start(eth.consensus().now(), eth.consensus().last_commit_time());
        let handles: Vec<_> = phase
            .iter()
            .enumerate()
            .map(|(i, call)| {
                eth.submit_call_at(
                    start + SimTime::from_micros(gap.as_micros() * i as u64),
                    &call.sender,
                    &call.calldata,
                )
            })
            .collect();
        eth.run();
        eth_latencies.push(
            handles
                .iter()
                .filter_map(|&h| eth.consensus().latency(h).map(SimTime::as_secs_f64))
                .collect(),
        );
    }
    let eth_tps = eth.consensus().throughput_tps();

    // --- Report -----------------------------------------------------------
    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "type", "SCDB (s)", "ETH-SC (s)", "ratio"
    );
    println!("{}", "-".repeat(50));
    for (i, name) in ["CREATE", "REQUEST", "BID", "ACCEPT_BID"]
        .iter()
        .enumerate()
    {
        let s = LatencyStats::from_latencies(&scdb_latencies[i]).expect("scdb samples");
        let e = LatencyStats::from_latencies(&eth_latencies[i]).expect("eth samples");
        println!(
            "{:<12} {:>12.3} {:>12.3} {:>9.0}x",
            name,
            s.mean,
            e.mean,
            e.mean / s.mean
        );
    }
    println!("{}", "-".repeat(50));
    println!(
        "{:<12} {:>11.1}  {:>11.2}  {:>9.0}x",
        "tput (tps)",
        scdb_tps,
        eth_tps,
        scdb_tps / eth_tps
    );
    println!(
        "\ngas paid by the contract path: {} ({} reverts)",
        eth.consensus().app().gas_total(),
        eth.consensus().app().reverted()
    );
    println!(
        "nested settlements completed declaratively on SCDB: {}",
        scdb.consensus().app().nested_completed()
    );
    assert!(scdb_tps > eth_tps, "SCDB must out-throughput ETH-SC");
}

/// Next phase starts just after the previous phase's last commit (now()
/// also drains stale failure timers, which would insert dead air).
fn phase_start(now: SimTime, last_commit: SimTime) -> SimTime {
    if last_commit == SimTime::ZERO {
        now + SimTime::from_millis(1)
    } else {
        last_commit + SimTime::from_millis(1)
    }
}
