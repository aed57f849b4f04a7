//! Fig. 2 — TRANSFER transaction runtime and cost comparison
//! (log scale): Ethereum's native TRANSFER against its smart-contract
//! equivalent, both driven through the same IBFT cluster.
//!
//! The paper's observation (§2.1): "using smart contracts instead of
//! native transaction primitives increased GAS costs by 40% in Ethereum,
//! reflecting higher transaction latencies and variable execution fees".
//!
//! Run: `cargo run --release -p scdb-bench --bin fig2 [--transfers 20] [--nodes 4]`

#![forbid(unsafe_code)]

use scdb_bench::{arg_parse, Table};
use scdb_evm::{EthScHarness, ExecutionRate, ReverseAuction, U256};
use scdb_sim::SimTime;

fn main() {
    let transfers: usize = arg_parse("transfers", 20);
    let nodes: usize = arg_parse("nodes", 4);

    println!("Fig. 2 — TRANSFER runtime & cost: native vs smart contract");
    println!(
        "({} transfers per system, {} IBFT validators)\n",
        transfers, nodes
    );

    let alice = U256::from_u64(0xA11CE);
    let bob = U256::from_u64(0xB0B);
    let rate = ExecutionRate::quorum();

    // --- Native TRANSFER path -------------------------------------------
    let mut native = EthScHarness::new(nodes);
    native
        .consensus_mut()
        .app_mut()
        .fund_everywhere(alice, 10 * transfers as u64);
    let mut native_handles = Vec::new();
    for i in 0..transfers {
        let at = SimTime::from_millis(1 + 20 * i as u64);
        native_handles.push(native.submit_native_at(at, &alice, &bob, 1, i as u64));
    }
    native.run();
    let native_gas = native.consensus().app().gas_total() / transfers as u64;
    let native_latency = mean_latency(&native, &native_handles);

    // --- Smart-contract TRANSFER path -----------------------------------
    let mut contract = EthScHarness::new(nodes);
    for node in 0..nodes {
        contract
            .consensus_mut()
            .app_mut()
            .contract_mut(node)
            .mint_balance(&alice, 10 * transfers as u64);
    }
    let mut sc_handles = Vec::new();
    for i in 0..transfers {
        let at = SimTime::from_millis(1 + 20 * i as u64);
        let calldata = ReverseAuction::call_transfer(&bob, 1);
        sc_handles.push(contract.submit_call_at(at, &alice, &calldata));
    }
    contract.run();
    let sc_gas = contract.consensus().app().gas_total() / transfers as u64;
    let sc_latency = mean_latency(&contract, &sc_handles);

    // --- The figure -------------------------------------------------------
    let mut t = Table::new(["metric", "ETH native", "ETH-SC", "SC / native"]);
    t.row([
        "gas per TRANSFER".to_owned(),
        native_gas.to_string(),
        sc_gas.to_string(),
        format!("{:.2}x", sc_gas as f64 / native_gas as f64),
    ]);
    t.row([
        "execution runtime (us)".to_owned(),
        rate.to_time(native_gas).as_micros().to_string(),
        rate.to_time(sc_gas).as_micros().to_string(),
        format!(
            "{:.2}x",
            rate.to_time(sc_gas).as_micros() as f64
                / rate.to_time(native_gas).as_micros().max(1) as f64
        ),
    ]);
    t.row([
        "end-to-end latency (s)".to_owned(),
        format!("{native_latency:.3}"),
        format!("{sc_latency:.3}"),
        format!("{:.2}x", sc_latency / native_latency),
    ]);
    println!("{}", t.render());
    println!(
        "paper: smart-contract TRANSFER costs ~40% more gas than the native primitive;\n\
         measured overhead: {:.0}%  (gas is deterministic; latency shares the IBFT block cadence)",
        (sc_gas as f64 / native_gas as f64 - 1.0) * 100.0
    );
}

fn mean_latency(h: &EthScHarness, handles: &[scdb_consensus::TxId]) -> f64 {
    let latencies: Vec<f64> = handles
        .iter()
        .filter_map(|&tx| h.consensus().latency(tx).map(SimTime::as_secs_f64))
        .collect();
    assert!(!latencies.is_empty(), "no transfers committed");
    latencies.iter().sum::<f64>() / latencies.len() as f64
}
