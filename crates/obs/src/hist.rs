//! Lock-free log₂-bucketed histograms for latency observation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Bucket count: bucket `i` holds values `v` with `2^(i-1) <= v < 2^i`
/// (bucket 0 holds 0 and 1). 40 buckets cover up to ~2^39 ns ≈ 9 minutes,
/// far beyond any per-event pipeline latency; larger values clamp into the
/// last bucket.
pub const BUCKETS: usize = 40;

/// A concurrent histogram with power-of-two buckets.
///
/// Recording is wait-free (one `fetch_add` per bucket, plus count/sum/max
/// updates); reading is a racy-but-monotone scan, which is fine for
/// metrics. Quantiles are reported as the *upper bound* of the bucket that
/// crosses the requested rank, so readouts are deterministic for a given
/// set of recorded values regardless of arrival order.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket holding `value`.
fn bucket_of(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl LogHistogram {
    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// The value at quantile `q` in `[0, 1]`, reported as the upper bound
    /// of the bucket containing that rank. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_buckets(&self.buckets(), q)
    }
}

/// The quantile readout over a raw bucket array — the rank walk behind
/// [`LogHistogram::quantile`]. Returns 0 when the buckets are empty.
fn quantile_from_buckets(buckets: &[u64], q: f64) -> u64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0;
    }
    // Rank of the requested quantile, 1-based, clamped into range.
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, n) in buckets.iter().enumerate() {
        seen += n;
        if seen >= rank {
            return bucket_upper_bound(i);
        }
    }
    bucket_upper_bound(BUCKETS.min(buckets.len()).saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1100);
        assert_eq!(h.max(), 1000);
        // 10..=40 land in buckets 4..=6; 1000 in bucket 10.
        assert_eq!(h.quantile(0.5), bucket_upper_bound(bucket_of(30)));
        assert_eq!(h.quantile(1.0), bucket_upper_bound(bucket_of(1000)));
        assert!(h.quantile(0.99) >= h.quantile(0.5));
    }

    #[test]
    fn merged_buckets_report_the_same_quantiles() {
        let a = LogHistogram::default();
        let b = LogHistogram::default();
        let whole = LogHistogram::default();
        for (i, v) in [3u64, 9, 17, 80, 4096, 70_000].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
            whole.record(*v);
        }
        let mut merged = a.buckets();
        for (m, n) in merged.iter_mut().zip(b.buckets()) {
            *m += n;
        }
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(quantile_from_buckets(&merged, q), whole.quantile(q));
        }
        assert_eq!(quantile_from_buckets(&[0u64; BUCKETS], 0.99), 0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LogHistogram::default());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let h = std::sync::Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    h.record(t * 1000 + i % 977);
                }
            }));
        }
        for handle in handles {
            let _ = handle.join();
        }
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.buckets().iter().sum::<u64>(), 40_000);
    }
}
