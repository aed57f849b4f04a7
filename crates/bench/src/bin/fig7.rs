//! Fig. 7 — the effect of transaction size (Experiment 1).
//!
//! Panels:
//!   (a) latency of REQUEST and CREATE vs transaction size,
//!   (b) latency of BID and ACCEPT_BID vs transaction size,
//!   (c) throughput vs transaction size,
//! for SmartchainDB (SCDB, 4-node Tendermint-with-pipelining cluster)
//! and the Ethereum smart contract (ETH-SC, 4-node Quorum/IBFT cluster),
//! over identical reverse-auction workloads whose capability payloads
//! sweep the size axis (§5.2.1).
//!
//! Run: `cargo run --release -p scdb-bench --bin fig7 -- [--panel a|b|c]
//!        [--requests 5] [--bidders 10] [--nodes 4] [--gap-ms 20]`

#![forbid(unsafe_code)]

use scdb_bench::{arg_parse, arg_value, eth_round, render_series, scdb_round};
use scdb_sim::SimTime;
use scdb_telemetry::Series;
use scdb_workload::ScenarioConfig;

/// Capability-byte settings sweeping the paper's 0.39–1.74 KB axis.
const SIZE_SWEEP: [usize; 5] = [64, 400, 760, 1100, 1440];

fn main() {
    let panel = arg_value("panel");
    let requests: usize = arg_parse("requests", 5);
    let bidders: usize = arg_parse("bidders", 10);
    let nodes: usize = arg_parse("nodes", 4);
    let gap = SimTime::from_millis(arg_parse("gap-ms", 20));

    println!(
        "Fig. 7 — effect of transaction size ({requests} requests x {bidders} bidders per point, {nodes} nodes)\n"
    );

    // Series: per system, per transaction type, plus throughput.
    let mut lat = [
        Series::new("SCDB CREATE"),
        Series::new("SCDB REQUEST"),
        Series::new("SCDB BID"),
        Series::new("SCDB ACCEPT_BID"),
        Series::new("ETH-SC CREATE"),
        Series::new("ETH-SC REQUEST"),
        Series::new("ETH-SC BID"),
        Series::new("ETH-SC ACCEPT_BID"),
    ];
    let mut tput = [Series::new("SCDB"), Series::new("ETH-SC")];

    for capability_bytes in SIZE_SWEEP {
        let config = ScenarioConfig {
            requests,
            bidders_per_request: bidders,
            capability_count: 8,
            capability_bytes,
            seed: 0xF1607,
        };
        let scdb = scdb_round(nodes, &config, gap);
        let eth = eth_round(nodes, &config, gap);

        // Size axis: the mean CREATE payload in KB (the paper's x axis
        // is the wire size of the size-swept transactions).
        let scdb_kb = scdb.payload_bytes[0] as f64 / 1024.0;
        let eth_kb = (eth.calldata_bytes[0] as f64 + 110.0) / 1024.0; // + envelope

        for ty in 0..4 {
            if let Some(stats) = &scdb.latency[ty] {
                lat[ty].push(scdb_kb, stats.mean);
            }
            if let Some(stats) = &eth.latency[ty] {
                lat[4 + ty].push(eth_kb, stats.mean);
            }
        }
        tput[0].push(scdb_kb, scdb.throughput_tps);
        tput[1].push(eth_kb, eth.throughput_tps);
        eprintln!(
            "  swept capability_bytes={capability_bytes}: SCDB {:.1} tps, ETH-SC {:.2} tps",
            scdb.throughput_tps, eth.throughput_tps
        );
    }

    let show = |p: &str| panel.is_none() || panel.as_deref() == Some(p);
    if show("a") {
        println!(
            "\n{}",
            render_series(
                "Fig 7a — latency of REQUEST and CREATE vs tx size (KB, seconds)",
                &[
                    lat[0].clone(),
                    lat[1].clone(),
                    lat[4].clone(),
                    lat[5].clone()
                ],
            )
        );
    }
    if show("b") {
        println!(
            "\n{}",
            render_series(
                "Fig 7b — latency of BID and ACCEPT_BID vs tx size (KB, seconds)",
                &[
                    lat[2].clone(),
                    lat[3].clone(),
                    lat[6].clone(),
                    lat[7].clone()
                ],
            )
        );
    }
    if show("c") {
        println!(
            "\n{}",
            render_series("Fig 7c — throughput vs tx size (KB, tps)", &tput)
        );
    }

    println!("shape check:");
    println!(
        "  SCDB BID latency growth across the sweep: {:.2}x (paper: ~flat)",
        lat[2].growth_ratio()
    );
    println!(
        "  ETH-SC BID latency growth across the sweep: {:.2}x (paper: strong growth)",
        lat[6].growth_ratio()
    );
    let last = |s: &Series| s.points.last().map(|(_, y)| *y).unwrap_or(f64::NAN);
    println!(
        "  BID latency at the largest size: ETH-SC/SCDB = {:.0}x (paper: 635x at 1.74 KB)",
        last(&lat[6]) / last(&lat[2])
    );
    println!(
        "  throughput at the largest size: SCDB {:.1} tps vs ETH-SC {:.3} tps (paper: ~44 vs 0.02)",
        last(&tput[0]),
        last(&tput[1])
    );
}
