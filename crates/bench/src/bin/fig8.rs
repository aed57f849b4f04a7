//! Fig. 8 — the effect of cluster size (Experiment 2).
//!
//! Panels:
//!   (a) SCDB latency per transaction type vs validator count,
//!   (b) ETH-SC latency per transaction type vs validator count,
//!   (c) throughput vs validator count for both systems,
//! with the transaction size held at ~1.09 KB (§5.2.2). The paper's
//! findings: latencies stay roughly stable from 4 to 32 validators
//! (IBFT/Tendermint finality), SCDB throughput creeps *up* with cluster
//! size thanks to blockchain pipelining (43.5 → 45.3 tps), and ETH-SC
//! stays near 0.77 tps.
//!
//! Run: `cargo run --release -p scdb-bench --bin fig8 -- [--panel a|b|c]
//!        [--requests 5] [--bidders 10] [--gap-ms 20]`

#![forbid(unsafe_code)]

use scdb_bench::{arg_parse, arg_value, eth_round, render_series, scdb_round};
use scdb_sim::SimTime;
use scdb_telemetry::Series;
use scdb_workload::ScenarioConfig;

/// Validator counts the paper sweeps.
const CLUSTER_SWEEP: [usize; 4] = [4, 8, 16, 32];

/// Capability bytes that land the wire payload near 1.09 KB.
const SIZE_1_09KB: usize = 760;

fn main() {
    let panel = arg_value("panel");
    let requests: usize = arg_parse("requests", 5);
    let bidders: usize = arg_parse("bidders", 10);
    let gap = SimTime::from_millis(arg_parse("gap-ms", 20));

    println!(
        "Fig. 8 — effect of cluster size at ~1.09 KB ({requests} requests x {bidders} bidders per point)\n"
    );

    let mut scdb_lat = [
        Series::new("SCDB CREATE"),
        Series::new("SCDB REQUEST"),
        Series::new("SCDB BID"),
        Series::new("SCDB ACCEPT_BID"),
    ];
    let mut eth_lat = [
        Series::new("ETH-SC CREATE"),
        Series::new("ETH-SC REQUEST"),
        Series::new("ETH-SC BID"),
        Series::new("ETH-SC ACCEPT_BID"),
    ];
    let mut tput = [Series::new("SCDB"), Series::new("ETH-SC")];

    for nodes in CLUSTER_SWEEP {
        let config = ScenarioConfig {
            requests,
            bidders_per_request: bidders,
            capability_count: 8,
            capability_bytes: SIZE_1_09KB,
            seed: 0xF168,
        };
        let scdb = scdb_round(nodes, &config, gap);
        let eth = eth_round(nodes, &config, gap);
        let x = nodes as f64;
        for ty in 0..4 {
            if let Some(stats) = &scdb.latency[ty] {
                scdb_lat[ty].push(x, stats.mean);
            }
            if let Some(stats) = &eth.latency[ty] {
                eth_lat[ty].push(x, stats.mean);
            }
        }
        tput[0].push(x, scdb.throughput_tps);
        tput[1].push(x, eth.throughput_tps);
        eprintln!(
            "  {nodes} nodes: SCDB {:.1} tps, ETH-SC {:.2} tps",
            scdb.throughput_tps, eth.throughput_tps
        );
    }

    let show = |p: &str| panel.is_none() || panel.as_deref() == Some(p);
    if show("a") {
        println!(
            "\n{}",
            render_series(
                "Fig 8a — SCDB latency per tx type vs cluster size (s)",
                &scdb_lat
            )
        );
    }
    if show("b") {
        println!(
            "\n{}",
            render_series(
                "Fig 8b — ETH-SC latency per tx type vs cluster size (s)",
                &eth_lat
            )
        );
    }
    if show("c") {
        println!(
            "\n{}",
            render_series("Fig 8c — throughput vs cluster size (tps)", &tput)
        );
    }

    println!("shape check:");
    for s in &scdb_lat {
        println!(
            "  {} growth 4->32 nodes: {:.2}x (paper: ~stable)",
            s.label,
            s.growth_ratio()
        );
    }
    println!(
        "  SCDB throughput 4->32 nodes: {:.1} -> {:.1} tps (paper: 43.5 -> 45.3, pipelining)",
        tput[0].points.first().map(|p| p.1).unwrap_or(f64::NAN),
        tput[0].points.last().map(|p| p.1).unwrap_or(f64::NAN),
    );
    println!(
        "  ETH-SC throughput 4->32 nodes: {:.2} -> {:.2} tps (paper: ~0.77, flat)",
        tput[1].points.first().map(|p| p.1).unwrap_or(f64::NAN),
        tput[1].points.last().map(|p| p.1).unwrap_or(f64::NAN),
    );
}
