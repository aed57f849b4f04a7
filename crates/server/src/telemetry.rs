//! Telemetry snapshot → JSON export.
//!
//! The telemetry crate is dependency-free, so the JSON shape lives
//! here, where `scdb_json` is already in scope. The export is
//! deterministic: metric maps come out of the snapshot's `BTreeMap`s
//! sorted by name, traces in block order, and every key below is a
//! fixed string — two equal snapshots serialize byte-identically
//! (`telemetry_snapshot_json_is_deterministic` pins it).
//!
//! Schema (see DESIGN-telemetry.md):
//!
//! ```json
//! {
//!   "counters":   { "<name>": <u64>, ... },
//!   "gauges":     { "<name>": <i64>, ... },
//!   "histograms": { "<name>": { "count", "sum", "mean", "p50", "p95",
//!                               "buckets": [[floor, count], ...] } },
//!   "traces": [ { "block", "executor", "txs", "committed", "rejected",
//!                 "waves", "total_ns", "coverage",
//!                 "stages": { "<stage>": <ns>, ... },
//!                 "counts": { "<name>": <u64>, ... } }, ... ]
//! }
//! ```

use scdb_json::Value;
use scdb_telemetry::{CommitTrace, HistSnapshot, TelemetrySnapshot};

/// Renders one histogram snapshot: exact count/sum/mean plus the
/// bucketed p50/p95 estimates and the occupied buckets.
fn hist_to_json(h: &HistSnapshot) -> Value {
    let mut doc = Value::object();
    doc.insert("count", h.count);
    doc.insert("sum", h.sum);
    doc.insert("mean", h.mean());
    doc.insert("p50", h.quantile(0.5));
    doc.insert("p95", h.quantile(0.95));
    let buckets: Vec<Value> = h
        .occupied_buckets()
        .into_iter()
        .map(|(floor, count)| Value::from(vec![floor, count]))
        .collect();
    doc.insert("buckets", buckets);
    doc
}

/// Renders one per-block commit trace.
fn trace_to_json(t: &CommitTrace) -> Value {
    let mut doc = Value::object();
    doc.insert("block", t.block);
    doc.insert("executor", t.executor);
    doc.insert("txs", t.txs);
    doc.insert("committed", t.committed);
    doc.insert("rejected", t.rejected);
    doc.insert("waves", t.waves);
    doc.insert("total_ns", t.total_ns);
    doc.insert("coverage", t.coverage());
    let mut stages = Value::object();
    for (stage, ns) in &t.stages {
        stages.insert(*stage, *ns);
    }
    doc.insert("stages", stages);
    doc
}

/// The full deterministic export: sorted metric maps, traces in block
/// order. This is what `Node::telemetry_snapshot` and
/// `SmartchainCluster::telemetry_snapshot` hand out.
pub fn snapshot_to_json(snap: &TelemetrySnapshot) -> Value {
    let mut counters = Value::object();
    for (name, v) in &snap.counters {
        counters.insert(name.as_str(), *v);
    }
    let mut gauges = Value::object();
    for (name, v) in &snap.gauges {
        gauges.insert(name.as_str(), *v);
    }
    let mut histograms = Value::object();
    for (name, h) in &snap.histograms {
        histograms.insert(name.as_str(), hist_to_json(h));
    }
    let traces: Vec<Value> = snap.traces.iter().map(trace_to_json).collect();
    let mut doc = Value::object();
    doc.insert("counters", counters);
    doc.insert("gauges", gauges);
    doc.insert("histograms", histograms);
    doc.insert("traces", traces);
    doc
}

/// [`snapshot_to_json`] of a node's or a cluster's registry, with the
/// process-wide prepared-key cache's figures added as gauges
/// `crypto.key_cache.{resident,hits,misses,evicted}`. They are read
/// when the snapshot is taken and cover the whole process: every node
/// and replica in it verifies through the one cache
/// (`scdb_crypto::key_cache_stats`).
pub(crate) fn snapshot_with_key_cache(mut snap: TelemetrySnapshot) -> Value {
    for (name, value) in scdb_crypto::key_cache_stats() {
        snap.gauges.insert(
            format!("crypto.key_cache.{name}"),
            i64::try_from(value).unwrap_or(i64::MAX),
        );
    }
    snapshot_to_json(&snap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scdb_telemetry::Telemetry;

    #[test]
    fn telemetry_snapshot_json_is_deterministic() {
        let t = Telemetry::enabled();
        t.add("zed", 3);
        t.add("alpha", 1);
        t.observe_ns("lat", 1_000);
        t.record_trace(CommitTrace {
            executor: "pipeline",
            txs: 4,
            committed: 3,
            rejected: 1,
            waves: 2,
            total_ns: 5_000,
            stages: vec![("validate", 3_000), ("apply", 1_500)],
            ..CommitTrace::default()
        });
        let a = snapshot_to_json(&t.snapshot().unwrap()).to_compact_string();
        let b = snapshot_to_json(&t.snapshot().unwrap()).to_compact_string();
        assert_eq!(a, b, "equal snapshots must serialize byte-identically");
        assert!(a.find("\"alpha\"").unwrap() < a.find("\"zed\"").unwrap());
        let parsed = scdb_json::parse(&a).expect("export parses back");
        assert_eq!(
            parsed.get("counters").unwrap().get("zed").unwrap().as_u64(),
            Some(3)
        );
        let trace = &parsed.get("traces").unwrap().as_array().unwrap()[0];
        assert_eq!(trace.get("executor").unwrap().as_str(), Some("pipeline"));
        assert_eq!(
            trace
                .get("stages")
                .unwrap()
                .get("validate")
                .unwrap()
                .as_u64(),
            Some(3_000)
        );
    }
}
