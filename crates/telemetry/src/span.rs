//! Span timers: scoped wall-clock measurement feeding a histogram.
//!
//! The disabled path never calls `Instant::now()` — a disabled
//! [`crate::Telemetry`] hands out an inert [`Span`], so the off path
//! costs one `Option` branch (the differential test in
//! `tests/telemetry.rs` pins that commits are byte-identical with
//! telemetry off vs on, and the bench pins the off-path throughput).

use crate::hist::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// A running stage timer. Records its elapsed nanoseconds into the
/// target histogram on [`Span::stop`] or drop, whichever comes first.
#[must_use = "a span measures until stopped or dropped"]
#[derive(Debug, Default)]
pub struct Span {
    live: Option<(Arc<Histogram>, Instant)>,
}

impl Span {
    /// An inert span (the disabled-telemetry path).
    pub fn disabled() -> Span {
        Span::default()
    }

    pub(crate) fn start(hist: Arc<Histogram>) -> Span {
        Span {
            live: Some((hist, Instant::now())),
        }
    }

    /// Stops the span, records it, and returns the elapsed
    /// nanoseconds (0 when telemetry is disabled).
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        match self.live.take() {
            Some((hist, start)) => {
                let ns = saturating_ns(start);
                hist.record(ns);
                ns
            }
            None => 0,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A plain stopwatch — the one audited wall-clock primitive the bench
/// bins and stage accumulators share (instead of each hand-rolling
/// `Instant` arithmetic).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        saturating_ns(self.start)
    }

    /// Elapsed seconds as a float (the bench bins' unit).
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

fn saturating_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_stop() {
        let hist = Arc::new(Histogram::new());
        let span = Span::start(Arc::clone(&hist));
        let ns = span.stop();
        let snap = hist.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, ns);
    }

    #[test]
    fn span_records_on_drop() {
        let hist = Arc::new(Histogram::new());
        drop(Span::start(Arc::clone(&hist)));
        assert_eq!(hist.snapshot().count, 1);
    }

    #[test]
    fn disabled_span_is_inert() {
        assert_eq!(Span::disabled().stop(), 0);
    }
}
