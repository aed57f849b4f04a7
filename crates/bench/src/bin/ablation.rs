//! Ablations of the design choices DESIGN.md calls out.
//!
//! 1. **Blockchain pipelining** (§2.2): anchor the next proposal at the
//!    previous block's prevote quorum instead of its commit. This is the
//!    mechanism behind Fig. 8c's throughput increment; turning it off on
//!    the same cluster shows the gap directly.
//! 2. **Store indexing**: the document-store secondary indexes behind
//!    the queryability claims — indexed vs full-scan lookup cost.
//! 3. **Validation caching** (parsed-payload cache in the cluster app):
//!    reflected in the check-vs-deliver cost asymmetry.
//!
//! Run: `cargo run --release -p scdb-bench --bin ablation [--requests 5] [--bidders 10]`

#![forbid(unsafe_code)]

use scdb_bench::{arg_parse, scdb_round_on, Table};
use scdb_consensus::BftConfig;
use scdb_server::SmartchainHarness;
use scdb_sim::SimTime;
use scdb_store::{Collection, Filter};
use scdb_telemetry::Stopwatch;
use scdb_workload::ScenarioConfig;

fn main() {
    let requests: usize = arg_parse("requests", 5);
    let bidders: usize = arg_parse("bidders", 10);
    pipelining_ablation(requests, bidders);
    index_ablation();
}

fn pipelining_ablation(requests: usize, bidders: usize) {
    println!("Ablation 1 — blockchain pipelining (the Fig. 8c mechanism)\n");
    let config = ScenarioConfig {
        requests,
        bidders_per_request: bidders,
        capability_count: 8,
        capability_bytes: 760,
        seed: 0xAB1A,
    };
    let gap = SimTime::from_millis(20);

    let mut t = Table::new(["nodes", "pipelined tps", "sequential tps", "gain"]);
    for nodes in [4usize, 8, 16, 32] {
        let mut on = SmartchainHarness::with_config(BftConfig::tendermint(nodes));
        let report_on = scdb_round_on(&mut on, &config, gap);

        let mut cfg = BftConfig::tendermint(nodes);
        cfg.pipelined = false;
        let mut off = SmartchainHarness::with_config(cfg);
        let report_off = scdb_round_on(&mut off, &config, gap);

        t.row([
            nodes.to_string(),
            format!("{:.2}", report_on.throughput_tps),
            format!("{:.2}", report_off.throughput_tps),
            format!(
                "{:+.1}%",
                (report_on.throughput_tps / report_off.throughput_tps - 1.0) * 100.0
            ),
        ]);
    }
    println!("{}", t.render());
    println!(
        "paper: pipelining lets \"server nodes vote on new blocks before the current\n\
         block is finalized\", producing the 43.5 -> 45.3 tps creep of Fig. 8c.\n"
    );
}

fn index_ablation() {
    println!("Ablation 2 — store secondary indexes (queryability substrate)\n");
    let docs = 50_000usize;
    let build = |indexed: bool| {
        let col = Collection::new("transactions");
        if indexed {
            col.create_index("operation");
        }
        for i in 0..docs {
            col.insert(scdb_json::obj! {
                "operation" => if i % 10 == 0 { "REQUEST" } else { "CREATE" },
                "n" => i as u64,
            })
            .unwrap();
        }
        col
    };
    let filter = Filter::eq("operation", "REQUEST");
    let scan_col = build(false);
    let indexed_col = build(true);

    let time = |col: &Collection| {
        let start = Stopwatch::new();
        let mut hits = 0usize;
        for _ in 0..20 {
            hits = col.find(&filter).len();
        }
        (start.elapsed_secs() / 20.0, hits)
    };
    let (scan_s, scan_hits) = time(&scan_col);
    let (idx_s, idx_hits) = time(&indexed_col);
    assert_eq!(scan_hits, idx_hits);

    let mut t = Table::new(["strategy", "mean query (ms)", "hits"]);
    t.row([
        "full scan".to_owned(),
        format!("{:.3}", scan_s * 1e3),
        scan_hits.to_string(),
    ]);
    t.row([
        "hash index".to_owned(),
        format!("{:.3}", idx_s * 1e3),
        idx_hits.to_string(),
    ]);
    println!("{}", t.render());
    println!(
        "speedup: {:.1}x over {docs} documents",
        scan_s / idx_s.max(1e-9)
    );
}
