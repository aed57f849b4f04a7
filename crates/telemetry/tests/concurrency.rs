//! Concurrency property test: N threads hammering the same sharded
//! counters and histograms must merge to exactly the serial sums —
//! the striped relaxed-ordering fast path loses nothing.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use scdb_telemetry::Telemetry;
use std::thread;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_updates_merge_to_the_serial_sums(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(1u64..1_000_000_000, 1..64),
            2..6,
        )
    ) {
        let telemetry = Telemetry::enabled();
        thread::scope(|scope| {
            for work in &per_thread {
                let t = telemetry.clone();
                scope.spawn(move || {
                    for &v in work {
                        t.add("ops", v);
                        t.incr("events");
                        t.observe_ns("lat", v);
                        t.gauge_set("last", v as i64);
                    }
                });
            }
        });
        let snap = telemetry.snapshot().expect("enabled handle snapshots");

        let n: u64 = per_thread.iter().map(|w| w.len() as u64).sum();
        let sum: u64 = per_thread.iter().flatten().sum();
        prop_assert_eq!(snap.counters["ops"], sum);
        prop_assert_eq!(snap.counters["events"], n);

        // Histogram totals are exact (count and sum are striped
        // counters too), and every recording landed in some bucket.
        let hist = &snap.histograms["lat"];
        prop_assert_eq!(hist.count, n);
        prop_assert_eq!(hist.sum, sum);
        prop_assert_eq!(hist.buckets.iter().sum::<u64>(), n);

        // Bucket placement is value-determined, so the merged bucket
        // vector must equal a serial replay's, whatever the thread
        // interleaving was.
        let serial = Telemetry::enabled();
        for &v in per_thread.iter().flatten() {
            serial.observe_ns("lat", v);
        }
        let serial_snap = serial.snapshot().expect("snapshot");
        prop_assert_eq!(&hist.buckets, &serial_snap.histograms["lat"].buckets);

        // The gauge holds one of the written values (last-writer-wins
        // across threads — which writer is unspecified, garbage is not).
        let last = snap.gauges["last"];
        prop_assert!(per_thread.iter().flatten().any(|&v| v as i64 == last));
    }
}
