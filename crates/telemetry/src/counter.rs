//! Striped lock-free counters and gauges.
//!
//! A [`Counter`] spreads its increments across a fixed set of
//! cache-line-padded atomic stripes, one picked per thread, so
//! concurrent writers on different cores never contend on one cache
//! line — the classic striped-counter design (Java's LongAdder).
//! Reads merge the stripes; they are monotone but not a linearizable
//! point-in-time cut, which is exactly what a metrics snapshot needs
//! and no more.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Stripe count. 16 covers every container this runs on (the bench
/// hosts top out at 8 workers) while keeping an idle counter at 1 KiB.
pub(crate) const STRIPES: usize = 16;

/// One cache line's worth of counter, so neighbouring stripes never
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct Stripe(AtomicU64);

/// Round-robin stripe assignment: each thread takes the next slot the
/// first time it touches any counter and keeps it for life. Threads
/// from the worker pools land on distinct stripes until `STRIPES`
/// threads exist; beyond that they share, which is still correct —
/// just contended.
pub(crate) fn stripe_of() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// A monotone event counter. All operations are lock-free and
/// `Relaxed` — counts have no ordering relationship with the data they
/// describe.
#[derive(Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` to this thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_of()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The merged count across every stripe.
    pub fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

/// A last-writer-wins instantaneous value (pool depth, pending block
/// count). Unstriped: gauges are set at bounded rate from bookkeeping
/// code, not hot loops.
#[derive(Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn value(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_merges_stripes() {
        let c = Counter::new();
        c.add(3);
        c.incr();
        assert_eq!(c.value(), 4);
    }

    #[test]
    fn concurrent_adds_sum_exactly() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.value(), 4);
    }
}
