//! Property test: [`cardest_serve::ServiceStats`] latency quantiles are
//! thread-safe — many threads hammering `record_latency` concurrently
//! produce *exactly* the histogram that serial recording produces (the
//! buckets are relaxed atomic counters; interleaving must not lose or
//! misfile a sample), and the quantiles read off that histogram land within
//! one log2 bucket of the true order statistic.

use cardest_serve::ServiceStats;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

/// The log2 bucket a latency of `ns` lands in, capped to the histogram
/// width — the same `[2^b, 2^{b+1})` convention `ServiceStats` uses.
fn bucket_of(ns: u64, n_buckets: usize) -> usize {
    if ns == 0 {
        return 0;
    }
    (63 - ns.leading_zeros() as usize).min(n_buckets - 1)
}

/// True order statistic under the histogram's rank rule:
/// rank = max(1, ceil(q·n)).
fn true_quantile_ns(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concurrent_latency_recording_matches_serial_and_brackets_truth(
        latencies in prop::collection::vec(1u64..2_000_000_000, 8..400),
        threads in 2usize..5,
    ) {
        // Serial reference: one thread, same samples, same order.
        let serial = ServiceStats::new();
        for &ns in &latencies {
            serial.record_latency(Duration::from_nanos(ns));
        }
        let serial_snap = serial.snapshot();

        // Concurrent run: samples partitioned round-robin over threads.
        let concurrent = Arc::new(ServiceStats::new());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let stats = Arc::clone(&concurrent);
                let mine: Vec<u64> = latencies
                    .iter()
                    .copied()
                    .skip(t)
                    .step_by(threads)
                    .collect();
                scope.spawn(move || {
                    for ns in mine {
                        stats.record_latency(Duration::from_nanos(ns));
                    }
                });
            }
        });
        let conc_snap = concurrent.snapshot();

        // Exactness: no sample lost, none misfiled, whatever the schedule.
        prop_assert_eq!(&conc_snap.latency_hist, &serial_snap.latency_hist);

        // Quantiles agree with the serial read exactly (same histogram, same
        // deterministic walk)...
        let mut sorted = latencies.clone();
        sorted.sort_unstable();
        let n_buckets = conc_snap.latency_hist.buckets.len();
        for &q in &[0.50, 0.99] {
            let conc_q = conc_snap.latency_quantile(q).as_nanos() as u64;
            let serial_q = serial_snap.latency_quantile(q).as_nanos() as u64;
            prop_assert_eq!(conc_q, serial_q, "q={}", q);
            // ...and land within one bucket of the true order statistic
            // (the histogram's resolution bound).
            let got_bucket = bucket_of(conc_q, n_buckets) as i64;
            let want_bucket = bucket_of(true_quantile_ns(&sorted, q), n_buckets) as i64;
            prop_assert!(
                (got_bucket - want_bucket).abs() <= 1,
                "q={}: reported bucket {} vs true bucket {}",
                q,
                got_bucket,
                want_bucket
            );
        }
    }
}
