//! Metric names and units — the contract `BENCHMARK.json` publishes —
//! and the arithmetic that turns repetitions, spans, the program's own
//! telemetry registry and the probes into those metrics.

use crate::cluster_run::NODES;
use crate::inputs::{Inputs, Workload};
use crate::probes::Metrics;
use crate::rep::Rep;
use crate::spans::{coverage, totals_by_name};
use crate::stats::{mean, median, percentile, ratio};
use crate::yardstick;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("committed_tps", "tx/s"),
    ("commit_latency_p50_ms", "ms"),
    ("query_scan_p50_ms", "ms"),
    ("recovery_s", "s"),
    ("wal_bytes_per_payload_byte", "ratio"),
];

/// `(name, unit)` of every per-layer metric, reported with `--trace 1`.
/// A layer the workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 85] = [
    ("json.parse_us_per_tx", "us"),
    ("json.serialize_us_per_tx", "us"),
    ("json.payload_bytes_mean", "bytes"),
    ("schema.validate_us_per_tx", "us"),
    ("crypto.id_digest_us_per_tx", "us"),
    ("crypto.verify_us_per_sig", "us"),
    ("crypto.batch_verify_us_per_sig", "us"),
    ("crypto.sign_us_per_sig", "us"),
    ("crypto.sigs_per_tx", "count"),
    ("core.footprint_us_per_tx", "us"),
    ("core.schedule_us_per_block", "us"),
    ("core.waves_per_block", "count"),
    ("core.wave_width_mean", "count"),
    ("core.validate_us_per_tx", "us"),
    ("core.apply_us_per_tx", "us"),
    ("core.commit_us_per_tx", "us"),
    ("core.commit_us_per_tx_w1", "us"),
    ("core.parallel_speedup", "ratio"),
    ("core.rejected_txs", "count"),
    ("core.re_validated_txs", "count"),
    ("core.children_us_per_accept", "us"),
    ("core.locked_bids_us_p50", "us"),
    ("mempool.admit_us_per_tx", "us"),
    ("mempool.drain_us_per_tx", "us"),
    ("mempool.screen_ms_per_flush", "ms"),
    ("mempool.verify_ms_per_flush", "ms"),
    ("mempool.decide_ms_per_flush", "ms"),
    ("mempool.index_ms_per_flush", "ms"),
    ("mempool.rejected_txs", "count"),
    ("mempool.pushbacks", "count"),
    ("mempool.flagged_txs", "count"),
    ("mempool.expelled_txs", "count"),
    ("store.wal_log_us_per_wave", "us"),
    ("store.seal_us_per_block", "us"),
    ("store.fsyncs_per_block", "count"),
    ("store.group_size_mean", "count"),
    ("store.wal_bytes_per_tx", "bytes"),
    ("store.flush_durable_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("store.dir_bytes", "bytes"),
    ("store.db_insert_us_per_doc", "us"),
    ("store.find_scan_us_p50", "us"),
    ("store.get_us_p50", "us"),
    ("store.utxo_apply_us_per_tx", "us"),
    ("store.digest_us", "us"),
    ("server.ingest_ms_per_block", "ms"),
    ("server.form_ms_per_block", "ms"),
    ("server.commit_ms_per_block", "ms"),
    ("server.settle_us_per_child", "us"),
    ("server.ack_wait_ms_p50", "ms"),
    ("server.ingest_share", "fraction"),
    ("server.form_share", "fraction"),
    ("server.commit_share", "fraction"),
    ("server.settle_share", "fraction"),
    ("server.query_share", "fraction"),
    ("server.flush_share", "fraction"),
    ("server.idle_share", "fraction"),
    ("server.harness_share", "fraction"),
    ("server.span_coverage", "fraction"),
    ("server.blocks", "count"),
    ("server.block_txs_mean", "count"),
    ("server.children_settled", "count"),
    ("server.commit_latency_p95_ms", "ms"),
    ("server.commit_latency_p99_ms", "ms"),
    ("server.durable_latency_p50_ms", "ms"),
    ("server.durable_latency_p99_ms", "ms"),
    ("server.slo_met_fraction", "fraction"),
    ("server.query_point_p50_ms", "ms"),
    ("server.generator_lag_p99_ms", "ms"),
    ("server.backlog_max_txs", "count"),
    ("server.run_valid", "count"),
    ("server.restore_reexec_ms", "ms"),
    ("server.gossip_used", "count"),
    ("server.gossip_rejected", "count"),
    ("server.footprints_cached", "count"),
    ("server.footprints_derived", "count"),
    ("server.digest_mismatches", "count"),
    ("consensus.messages_per_tx", "count"),
    ("consensus.heights", "count"),
    ("consensus.txs_per_block_mean", "count"),
    ("consensus.sim_tps", "tx/s"),
    ("consensus.sim_latency_p50_ms", "ms"),
    ("consensus.sim_latency_p95_ms", "ms"),
    ("telemetry.overhead_fraction", "fraction"),
    ("host.slowdown", "ratio"),
];

/// The traced run must account for this share of its wall time in
/// spans, or its per-layer numbers describe too little of the run.
pub const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Every end-to-end metric's value in each repetition (`setup_s`: in
/// each set-up) as the clock read it, kept in the results file next to
/// the reported values, and the yardstick readings taken between them.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// Keys of the yardstick readings in [`Samples`].
pub const YARDSTICK: &str = "yardstick_s";
pub const SETUP_YARDSTICK: &str = "setup_yardstick_s";

pub fn end_to_end_samples(inputs: &Inputs, reps: &[Rep], setups_s: &[f64]) -> Samples {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    Samples::from([
        ("setup_s", setups_s.to_vec()),
        (
            "committed_tps",
            per_rep(&|rep| ratio(rep.committed as f64, rep.wall_s)),
        ),
        (
            "commit_latency_p50_ms",
            per_rep(&|rep| median(&rep.commit_latency_ms)),
        ),
        (
            "query_scan_p50_ms",
            per_rep(&|rep| median(&rep.scan_latency_ms)),
        ),
        ("recovery_s", per_rep(&|rep| rep.recovery_s)),
        (
            "wal_bytes_per_payload_byte",
            per_rep(&|rep| ratio(rep.dir_bytes as f64, inputs.payload_bytes as f64)),
        ),
    ])
}

/// The end-to-end metrics: each the median over repetitions (`setup_s`:
/// over set-ups), with every timing brought to the reference host
/// speed by the yardstick readings taken alongside it.
pub fn end_to_end(workload: Workload, samples: &Samples) -> Metrics {
    let run = yardstick::slowdown(&samples[YARDSTICK]);
    let setup = yardstick::slowdown(&samples[SETUP_YARDSTICK]);
    END_TO_END
        .iter()
        .map(|(name, _)| {
            let measured = median(&samples[name]);
            let value = match *name {
                "setup_s" => measured / setup,
                // A size ratio, and a rate the schedule fixes whatever
                // the host's speed: neither is a timing.
                "wal_bytes_per_payload_byte" => measured,
                "committed_tps" if workload == Workload::OpenLoopMixed => measured,
                // Work per second falls, and every duration rises, by
                // the factor the host ran slow.
                "committed_tps" => measured * run,
                _ => measured / run,
            };
            (*name, value)
        })
        .collect()
}

/// Adds everything the traced repetition itself shows — spans around
/// the harness's calls, counts at those boundaries, and the program's
/// telemetry registry — to the probes' metrics.
pub fn add_traced(
    inputs: &Inputs,
    rep: &Rep,
    overhead_fraction: f64,
    host_slowdown: f64,
    m: &mut Metrics,
) {
    let totals = totals_by_name(&rep.spans);
    let total_ms = |name: &str| totals.get(name).map_or(0.0, |(ns, _)| *ns as f64 / 1e6);
    let wall_ms = rep.spans.first().map_or(0.0, |s| s.duration_ns() as f64) / 1e6;
    let layer = &rep.layer;
    // The cluster's two entry points stand where the node's ingest and
    // commit calls do; forming and settlement happen inside its run.
    let (ingest_ms, commit_ms) = match inputs.workload {
        Workload::Cluster4 => (total_ms("submit_at"), total_ms("harness_run")),
        _ => (
            total_ms("ingest_payload_batch"),
            total_ms("commit_proposal"),
        ),
    };
    let blocks = layer.blocks as f64;
    m.insert("server.ingest_ms_per_block", ratio(ingest_ms, blocks));
    m.insert(
        "server.form_ms_per_block",
        ratio(total_ms("form_proposal"), blocks),
    );
    m.insert("server.commit_ms_per_block", ratio(commit_ms, blocks));
    m.insert(
        "server.settle_us_per_child",
        ratio(
            total_ms("pump_returns") * 1e3,
            layer.children_settled as f64,
        ),
    );
    m.insert("server.ack_wait_ms_p50", median(&layer.ack_wait_ms));
    m.insert("server.ingest_share", ratio(ingest_ms, wall_ms));
    m.insert(
        "server.form_share",
        ratio(total_ms("form_proposal"), wall_ms),
    );
    m.insert("server.commit_share", ratio(commit_ms, wall_ms));
    m.insert(
        "server.settle_share",
        ratio(total_ms("pump_returns"), wall_ms),
    );
    m.insert("server.query_share", ratio(total_ms("query"), wall_ms));
    m.insert(
        "server.flush_share",
        ratio(total_ms("flush_durable"), wall_ms),
    );
    m.insert("server.idle_share", ratio(total_ms("idle"), wall_ms));
    m.insert("server.harness_share", ratio(total_ms("run"), wall_ms));
    m.insert("server.span_coverage", coverage(&rep.spans));
    m.insert("server.blocks", blocks);
    m.insert(
        "server.block_txs_mean",
        ratio(layer.block_txs as f64, blocks),
    );
    m.insert("server.children_settled", layer.children_settled as f64);
    m.insert(
        "server.commit_latency_p95_ms",
        percentile(&rep.commit_latency_ms, 95.0),
    );
    m.insert(
        "server.commit_latency_p99_ms",
        percentile(&rep.commit_latency_ms, 99.0),
    );
    m.insert(
        "server.durable_latency_p50_ms",
        median(&rep.durable_latency_ms),
    );
    m.insert(
        "server.durable_latency_p99_ms",
        percentile(&rep.durable_latency_ms, 99.0),
    );
    m.insert("server.slo_met_fraction", rep.slo_met_fraction(inputs));
    m.insert("server.query_point_p50_ms", median(&rep.point_latency_ms));
    m.insert(
        "server.generator_lag_p99_ms",
        percentile(&layer.generator_lag_ms, 99.0),
    );
    m.insert("server.backlog_max_txs", layer.backlog_max as f64);
    m.insert("server.run_valid", f64::from(u8::from(rep.valid)));
    m.insert(
        "server.restore_reexec_ms",
        (rep.recovery_s * 1e3 - rep.recover_probe_ms).max(0.0),
    );
    m.insert("mempool.rejected_txs", layer.rejected_admission as f64);
    m.insert("mempool.pushbacks", layer.pushbacks as f64);
    m.insert("mempool.flagged_txs", layer.flagged as f64);
    m.insert("mempool.expelled_txs", layer.expelled as f64);
    m.insert("store.flush_durable_ms", total_ms("flush_durable"));
    m.insert("store.recover_ms", rep.recover_probe_ms);
    m.insert("store.dir_bytes", rep.dir_bytes as f64);

    // The program's own registry, read only in the traced run.
    let snapshot = rep.telemetry.clone().unwrap_or_default();
    let hist_mean = |name: &str| snapshot.histograms.get(name).map_or(0.0, |h| h.mean());
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    m.insert(
        "mempool.screen_ms_per_flush",
        hist_mean("mempool.stage1_screen_ns") / 1e6,
    );
    m.insert(
        "mempool.verify_ms_per_flush",
        hist_mean("mempool.stage2_verify_ns") / 1e6,
    );
    m.insert(
        "mempool.decide_ms_per_flush",
        hist_mean("mempool.stage3_decide_ns") / 1e6,
    );
    m.insert(
        "mempool.index_ms_per_flush",
        hist_mean("mempool.index_apply_ns") / 1e6,
    );
    m.insert(
        "store.wal_log_us_per_wave",
        hist_mean("durable.log_wave_ns") / 1e3,
    );
    m.insert(
        "store.seal_us_per_block",
        hist_mean("durable.seal_ns") / 1e3,
    );
    m.insert(
        "store.fsyncs_per_block",
        ratio(counter("durable.fsyncs"), counter("durable.blocks_sealed")),
    );
    m.insert("store.group_size_mean", hist_mean("durable.group_size"));
    // The cluster's four replicas share one registry; report one
    // replica's worth so the figure compares with the single node's.
    let replicas = match inputs.workload {
        Workload::Cluster4 => NODES as f64,
        _ => 1.0,
    };
    let sealed_txs = (rep.committed as u64 + layer.children_settled) as f64;
    m.insert(
        "store.wal_bytes_per_tx",
        ratio(counter("durable.wal_bytes") / replicas, sealed_txs),
    );

    let c = rep.consensus.clone().unwrap_or_default();
    m.insert("server.gossip_used", c.gossip_used as f64);
    m.insert("server.gossip_rejected", c.gossip_rejected as f64);
    m.insert("server.footprints_cached", c.footprints_cached as f64);
    m.insert("server.footprints_derived", c.footprints_derived as f64);
    m.insert("server.digest_mismatches", c.digest_mismatches as f64);
    m.insert(
        "consensus.messages_per_tx",
        ratio(c.messages as f64, c.committed as f64),
    );
    m.insert("consensus.heights", c.heights as f64);
    m.insert(
        "consensus.txs_per_block_mean",
        ratio(c.committed as f64, c.heights as f64),
    );
    m.insert("consensus.sim_tps", c.sim_tps);
    m.insert("consensus.sim_latency_p50_ms", median(&c.sim_latencies_ms));
    m.insert(
        "consensus.sim_latency_p95_ms",
        percentile(&c.sim_latencies_ms, 95.0),
    );
    m.insert("telemetry.overhead_fraction", overhead_fraction);
    m.insert("host.slowdown", host_slowdown);
}

/// Traced wall ÷ untraced wall − 1, over the means of the paired
/// repetitions.
pub fn overhead_fraction(traced_wall_s: &[f64], untraced_wall_s: &[f64]) -> f64 {
    ratio(mean(traced_wall_s), mean(untraced_wall_s)) - 1.0
}

/// The result line's `metrics` object, in the contract's order.
pub fn metrics_json(names: &[(&str, &str)], values: &Metrics) -> String {
    let fields: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` at the repo root publishes exactly these names
    /// and units, and the four workloads.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = scdb_json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(scdb_json::Value::as_array)
                .expect("metric list")
                .iter()
                .map(|entry| {
                    let field = |f: &str| entry.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |names: &[(&str, &str)]| -> Vec<(String, String)> {
            names
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(scdb_json::Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_owned())
            .collect();
        let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_wall() {
        assert!((overhead_fraction(&[1.1, 1.1], &[1.0, 1.0]) - 0.1).abs() < 1e-12);
        assert_eq!(overhead_fraction(&[1.0], &[]), -1.0);
    }

    #[test]
    fn metrics_json_keeps_every_listed_name_and_all_digits() {
        let mut values = Metrics::new();
        values.insert("setup_s", 0.123456789012);
        let json = metrics_json(&END_TO_END[..2], &values);
        assert_eq!(
            json,
            "{\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \
             \"committed_tps\": {\"value\": 0, \"unit\": \"tx/s\"}}"
        );
    }
}
