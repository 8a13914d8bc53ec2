//! Log-bucketed latency histograms with lock-free concurrent recording.
//!
//! Bucket `b` covers `[2^b, 2^{b+1})` nanoseconds (bucket 0 additionally
//! absorbs 0 ns). This is the one latency histogram in the stack: the
//! per-stage traces here and `ServiceStats`' end-to-end latency in
//! `cardest-serve` both record into a [`LogHistogram`], so their quantiles
//! are read by the same code. 48 buckets cover ~78 hours, far beyond any
//! plausible request latency.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets. Bucket `b` covers `[2^b, 2^{b+1})` ns.
pub const HIST_BUCKETS: usize = 48;

/// Index of the log2 bucket covering `ns` nanoseconds.
// lint: hot-path
#[inline]
pub fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        (63 - ns.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Geometric midpoint of bucket `b`: `2^b * sqrt(2)` ns — the canonical
/// representative value reported for quantiles.
#[inline]
pub fn bucket_midpoint_ns(b: usize) -> u64 {
    ((1u128 << b) as f64 * std::f64::consts::SQRT_2) as u64
}

/// A concurrent log2-bucketed histogram of nanosecond durations.
///
/// Recording is a single relaxed `fetch_add` per observation plus two for
/// the count/sum totals — cheap enough for the request hot path.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Record one observation of `ns` nanoseconds.
    // lint: hot-path
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] observation.
    // lint: hot-path
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent point-in-time copy of the histogram. Concurrent recording
    /// may skew individual buckets by in-flight observations, but every
    /// completed `record_ns` call is visible in at most one bucket.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        // Derive the count from the buckets themselves so the snapshot is
        // internally consistent even when racing recorders.
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// Immutable copy of a [`LogHistogram`] with quantile/mean accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum_ns: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Quantile estimate in nanoseconds: the geometric midpoint of the
    /// bucket containing the `q`-th order statistic. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_midpoint_ns(b);
            }
        }
        bucket_midpoint_ns(HIST_BUCKETS - 1)
    }

    /// Mean observation in nanoseconds (exact, from the running sum).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Merge another snapshot into this one bucket-by-bucket.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_land_in_right_bucket() {
        let h = LogHistogram::new();
        for ns in [10u64, 20, 40, 80, 160, 320, 640, 1280, 2560, 5120] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        // p50 -> 5th smallest = 160ns -> bucket 7 ([128,256)).
        assert_eq!(s.quantile_ns(0.5), bucket_midpoint_ns(7));
        // p100 -> 5120ns -> bucket 12 ([4096,8192)).
        assert_eq!(s.quantile_ns(1.0), bucket_midpoint_ns(12));
        assert!(s.mean_ns() > 0.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.quantile_ns(0.99), 0);
        assert_eq!(s.mean_ns(), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        a.record_ns(100);
        b.record_ns(100_000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 2);
        assert_eq!(s.sum_ns, 100_100);
    }
}
