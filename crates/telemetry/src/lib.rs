//! `scdb-telemetry`: dependency-free runtime telemetry for the
//! SmartchainDB reproduction.
//!
//! One [`Telemetry`] handle threads through every layer (admission,
//! the commit pipeline, the WAL, cluster deliver). Disabled
//! — the default — it is a `None` and every operation is a single
//! branch; enabled (`SCDB_TELEMETRY=1` or
//! `PipelineOptions::with_telemetry`) it shares one [`Registry`] of
//! striped lock-free [`Counter`]s, [`Gauge`]s, and fixed-bucket
//! [`Histogram`]s, plus a ring of per-block [`CommitTrace`]s.
//!
//! The crate is std-only on purpose: it sits below every other crate
//! in the workspace (core, store, mempool, server, bench all depend on
//! it), so it must never pull the dependency graph sideways.

#![forbid(unsafe_code)]

mod counter;
mod hist;
mod registry;
mod sample;
mod span;

pub use counter::{Counter, Gauge};
pub use hist::{HistSnapshot, Histogram, BUCKETS};
pub use registry::{CommitTrace, Registry, TelemetrySnapshot, TRACE_RING_CAPACITY};
pub use sample::{percentile, throughput_tps, LatencyStats, Series};
pub use span::{Span, Stopwatch};

use std::sync::Arc;

/// The environment variable that switches telemetry on (an
/// [`env_flag`], like `SCDB_DURABLE`).
pub const TELEMETRY_ENV: &str = "SCDB_TELEMETRY";

/// Reads the boolean environment variable `name`: `1`/`true`/`on`/`yes`
/// is `Some(true)`, `0`/`false`/`off`/`no` is `Some(false)` — trimmed,
/// case-insensitive — and anything else, or unset, is `None` so the
/// caller's default applies. The one parser behind every boolean
/// `SCDB_*` variable.
pub fn env_flag(name: &str) -> Option<bool> {
    match std::env::var(name)
        .ok()?
        .trim()
        .to_ascii_lowercase()
        .as_str()
    {
        "1" | "true" | "on" | "yes" => Some(true),
        "0" | "false" | "off" | "no" => Some(false),
        _ => None,
    }
}

/// The shared telemetry handle: `Clone`-cheap, `None` when disabled.
///
/// Everything that might record goes through this handle, so the
/// disabled path is one `Option` discriminant test — no `Instant::now`,
/// no map lookup, no allocation. The differential test in
/// `tests/telemetry.rs` pins that commits are byte-identical off vs on.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A disabled handle (the default).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// An enabled handle over a fresh registry.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Registry::new())),
        }
    }

    /// Enabled iff [`TELEMETRY_ENV`] is set truthy.
    pub fn from_env() -> Telemetry {
        match env_flag(TELEMETRY_ENV) {
            Some(true) => Telemetry::enabled(),
            _ => Telemetry::disabled(),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The backing registry, when enabled. Hot paths that record per
    /// transaction should grab their `Arc<Counter>`/`Arc<Histogram>`
    /// once per batch through this rather than paying the name lookup
    /// per event.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.inner.as_ref()
    }

    /// Adds `n` to the counter `name` (no-op when disabled).
    #[inline]
    pub fn add(&self, name: &str, n: u64) {
        if let Some(reg) = &self.inner {
            reg.counter(name).add(n);
        }
    }

    /// Adds one to the counter `name` (no-op when disabled).
    #[inline]
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets the gauge `name` (no-op when disabled).
    #[inline]
    pub fn gauge_set(&self, name: &str, v: i64) {
        if let Some(reg) = &self.inner {
            reg.gauge(name).set(v);
        }
    }

    /// Records `ns` into the histogram `name` (no-op when disabled).
    #[inline]
    pub fn observe_ns(&self, name: &str, ns: u64) {
        if let Some(reg) = &self.inner {
            reg.histogram(name).record(ns);
        }
    }

    /// Starts a span timing into the histogram `name`; inert when
    /// disabled (no clock read).
    #[inline]
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            Some(reg) => Span::start(reg.histogram(name)),
            None => Span::disabled(),
        }
    }

    /// Appends a per-block commit trace (no-op when disabled).
    pub fn record_trace(&self, trace: CommitTrace) {
        if let Some(reg) = &self.inner {
            reg.record_trace(trace);
        }
    }

    /// A deterministic snapshot; `None` when disabled.
    pub fn snapshot(&self) -> Option<TelemetrySnapshot> {
        self.inner.as_ref().map(|reg| reg.snapshot())
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.is_enabled() { "on" } else { "off" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_flag_parses_one_idiom() {
        // A variable no other test touches: tests share the process
        // environment.
        const VAR: &str = "ENV_FLAG_UNIT_TEST_VAR";
        assert_eq!(env_flag(VAR), None, "unset");
        let cases = [
            ("1", Some(true)),
            ("true", Some(true)),
            ("on", Some(true)),
            ("yes", Some(true)),
            ("0", Some(false)),
            ("false", Some(false)),
            ("off", Some(false)),
            ("no", Some(false)),
            (" 1", Some(true)),
            ("off\n", Some(false)),
            ("TRUE", Some(true)),
            ("oFf", Some(false)),
            ("", None),
            ("2", None),
            ("enabled", None),
        ];
        for (value, expected) in cases {
            std::env::set_var(VAR, value);
            assert_eq!(env_flag(VAR), expected, "{value:?}");
        }
        std::env::remove_var(VAR);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.add("x", 5);
        t.incr("x");
        t.gauge_set("g", 1);
        t.observe_ns("h", 100);
        assert_eq!(t.span("h").stop(), 0);
        t.record_trace(CommitTrace::default());
        assert!(t.snapshot().is_none());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_handle_records_and_clones_share() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.add("events", 2);
        t2.incr("events");
        t.observe_ns("lat", 500);
        let snap = t2.snapshot().unwrap();
        assert_eq!(snap.counters["events"], 3);
        assert_eq!(snap.histograms["lat"].count, 1);
    }

    #[test]
    fn span_records_into_named_histogram() {
        let t = Telemetry::enabled();
        let ns = t.span("stage").stop();
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.histograms["stage"].count, 1);
        assert_eq!(snap.histograms["stage"].sum, ns);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Latency stats are internally consistent on any sample.
        #[test]
        fn stats_are_ordered(latencies in prop::collection::vec(0.0f64..1000.0, 1..200)) {
            let stats = LatencyStats::from_latencies(&latencies).unwrap();
            prop_assert!(stats.min <= stats.p50);
            prop_assert!(stats.p50 <= stats.p95);
            prop_assert!(stats.p95 <= stats.max);
            prop_assert!(stats.min <= stats.mean && stats.mean <= stats.max);
            prop_assert_eq!(stats.count, latencies.len());
        }
    }
}
