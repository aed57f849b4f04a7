//! The metric registry and the per-block commit-trace ring.
//!
//! Registration (name → metric) goes through an `RwLock`ed map — cold
//! path, once per name per registry — and hands back `Arc`s whose
//! operations are lock-free ([`Counter`], [`Gauge`], [`Histogram`]).
//! Hot call sites either hold the `Arc` or pay one read-lock + hash
//! lookup per *block* (never per transaction), which is noise next to
//! signature verification.
//!
//! Snapshots are deterministic: `BTreeMap`s keyed by metric name, so
//! two snapshots of equal state serialize byte-identically.

use crate::counter::{Counter, Gauge};
use crate::hist::{HistSnapshot, Histogram};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, RwLock};

/// How many per-block commit traces the ring keeps (oldest evicted).
pub const TRACE_RING_CAPACITY: usize = 256;

/// One block's structured stage breakdown: where its commit latency
/// went, stage by stage. Recorded by the commit pipeline
/// (`commit_batch_planned`) when telemetry is on; exported sorted and
/// stable through `Node::telemetry_snapshot`. DESIGN-telemetry.md
/// documents the schema.
#[derive(Debug, Clone, Default)]
pub struct CommitTrace {
    /// Monotone per-registry block sequence (assigned at record time).
    pub block: u64,
    /// Which executor committed it (always "pipeline": the
    /// wave-barrier loop is the only one).
    pub executor: &'static str,
    /// Batch size.
    pub txs: usize,
    /// Members committed / rejected.
    pub committed: usize,
    pub rejected: usize,
    /// Wave count of the executed schedule.
    pub waves: usize,
    /// End-to-end commit wall time in nanoseconds (the stage timings
    /// below partition this, up to untimed glue).
    pub total_ns: u64,
    /// Ordered `(stage, ns)` pairs — the per-block latency breakdown.
    /// Stage names are stable keys (see DESIGN-telemetry.md).
    pub stages: Vec<(&'static str, u64)>,
}

impl CommitTrace {
    /// Sum of the stage timings — the traced share of `total_ns`.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().map(|(_, ns)| ns).sum()
    }

    /// Traced share of the end-to-end time, in `[0, 1]` (1 when the
    /// stages account for every nanosecond; capped at 1 against timer
    /// jitter).
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            return 1.0;
        }
        (self.stage_sum_ns() as f64 / self.total_ns as f64).min(1.0)
    }
}

/// A named-metric registry plus the commit-trace ring. One per
/// enabled [`crate::Telemetry`] handle; shared by every layer a
/// `PipelineOptions` clone reaches.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    traces: Mutex<TraceRing>,
}

#[derive(Default)]
struct TraceRing {
    next_block: u64,
    buf: VecDeque<CommitTrace>,
}

/// Get-or-create in a `RwLock<BTreeMap>`: read-lock fast path, write
/// lock only on first registration of a name.
fn intern<M: Default>(map: &RwLock<BTreeMap<String, Arc<M>>>, name: &str) -> Arc<M> {
    if let Some(m) = map.read().expect("registry lock").get(name) {
        return Arc::clone(m);
    }
    let mut map = map.write().expect("registry lock");
    Arc::clone(map.entry(name.to_owned()).or_default())
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        intern(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        intern(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        intern(&self.histograms, name)
    }

    /// Appends a block's commit trace, assigning its ring-wide block
    /// sequence. The ring holds the latest [`TRACE_RING_CAPACITY`]
    /// traces.
    pub fn record_trace(&self, mut trace: CommitTrace) {
        let mut ring = self.traces.lock().expect("trace ring lock");
        trace.block = ring.next_block;
        ring.next_block += 1;
        if ring.buf.len() == TRACE_RING_CAPACITY {
            ring.buf.pop_front();
        }
        ring.buf.push_back(trace);
    }

    /// A deterministic merged snapshot of every registered metric and
    /// the retained commit traces.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: self
                .counters
                .read()
                .expect("registry lock")
                .iter()
                .map(|(name, c)| (name.clone(), c.value()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .expect("registry lock")
                .iter()
                .map(|(name, g)| (name.clone(), g.value()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .expect("registry lock")
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
            traces: self
                .traces
                .lock()
                .expect("trace ring lock")
                .buf
                .iter()
                .cloned()
                .collect(),
        }
    }
}

/// An owned, deterministic snapshot: `BTreeMap`s sort keys, traces
/// come out in block order.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistSnapshot>,
    pub traces: Vec<CommitTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_returns_the_same_metric() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.counter("a").value(), 5);
        assert_eq!(r.snapshot().counters["a"], 5);
    }

    #[test]
    fn trace_ring_caps_and_sequences() {
        let r = Registry::new();
        for _ in 0..TRACE_RING_CAPACITY + 10 {
            r.record_trace(CommitTrace::default());
        }
        let snap = r.snapshot();
        assert_eq!(snap.traces.len(), TRACE_RING_CAPACITY);
        assert_eq!(snap.traces.first().unwrap().block, 10);
        assert_eq!(
            snap.traces.last().unwrap().block,
            (TRACE_RING_CAPACITY + 9) as u64
        );
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let r = Registry::new();
        r.counter("zed").incr();
        r.counter("alpha").incr();
        let snap = r.snapshot();
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["alpha", "zed"]);
    }
}
