//! Lock-free serving metrics: per-shard counters, log-bucketed latency
//! histograms and online prediction-error tracking.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power-of-two octave (≈ ±6 % value resolution).
const SUBBUCKETS: usize = 8;
/// Values `1..=LINEAR_MAX` ns get one exact bucket each; the sub-bucket
/// shift `v >> (octave - 3)` only makes sense once an octave holds at least
/// `SUBBUCKETS` distinct values, i.e. from octave 4 (values ≥ 16) up.
const LINEAR_MAX: u64 = 15;
/// First octave that is sub-bucketed (values `16..=31`).
const FIRST_OCTAVE: usize = 4;
/// Sub-bucketed octaves: 2^4 .. 2^63 nanoseconds.
const OCTAVES: usize = 64 - FIRST_OCTAVE;
/// Total bucket count: 15 linear + 60 octaves × 8 sub-buckets.
const NBUCKETS: usize = LINEAR_MAX as usize + OCTAVES * SUBBUCKETS;

/// A fixed-size log-bucketed histogram of nanosecond latencies.
///
/// Recording is a single relaxed atomic increment, so shards can share one
/// histogram (or keep their own and merge at snapshot time). Quantiles are
/// read from the bucket boundaries — accurate to one sub-bucket (~6 %),
/// plenty for p50/p95/p99 reporting.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .field("mean_ns", &self.mean_ns())
            .finish()
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: (0..NBUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    fn bucket_of(ns: u64) -> usize {
        let v = ns.max(1);
        if v <= LINEAR_MAX {
            // One exact bucket per value — the old `(v as usize) & 0x7`
            // fallback folded octaves 0–3 onto each other (e.g. 1 ns and
            // 9 ns shared a bucket) and disagreed with `bucket_value`.
            return (v - 1) as usize;
        }
        let octave = 63 - v.leading_zeros() as usize;
        let frac = ((v >> (octave - 3)) & 0x7) as usize;
        LINEAR_MAX as usize + (octave - FIRST_OCTAVE) * SUBBUCKETS + frac
    }

    /// Inclusive upper edge of a bucket, ns: the largest value that
    /// `bucket_of` maps to `idx` (so `bucket_of(bucket_value(idx)) == idx`
    /// for every index, and edges strictly increase).
    fn bucket_value(idx: usize) -> u64 {
        if idx < LINEAR_MAX as usize {
            return idx as u64 + 1;
        }
        let rest = idx - LINEAR_MAX as usize;
        let octave = FIRST_OCTAVE + rest / SUBBUCKETS;
        let frac = (rest % SUBBUCKETS) as u64;
        // Written so the top bucket (octave 63, frac 7) lands exactly on
        // u64::MAX instead of overflowing: 2^o − 1 + (f+1)·2^(o−3).
        ((1u64 << octave) - 1) + ((frac + 1) << (octave - 3))
    }

    /// Record one latency.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency, ns (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`), ns. Returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_value(i);
            }
        }
        Self::bucket_value(NBUCKETS - 1)
    }

    /// Fold another histogram into this one (for cross-shard aggregation).
    pub fn merge(&self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter().zip(&other.buckets) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Counters owned by one shard worker.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    /// Records ingested.
    pub processed: AtomicU64,
    /// Predictions emitted (warm sessions).
    pub predictions: AtomicU64,
    /// Records absorbed while a session was still warming up.
    pub warmups: AtomicU64,
    /// Session-window resets caused by stream discontinuities.
    pub resets: AtomicU64,
    /// Poison records whose processing panicked inside the shard's
    /// per-record isolation (the record is quarantined, the session rebuilt
    /// cold, and a degraded response still emitted).
    pub quarantined: AtomicU64,
    /// Responses served by the session-local harmonic fallback because the
    /// model panicked, returned non-finite, or blew its time budget.
    pub fallbacks: AtomicU64,
    /// Records shed at dequeue for exceeding the
    /// [`OverloadPolicy::Deadline`](crate::queue::OverloadPolicy::Deadline)
    /// staleness budget.
    pub shed_stale: AtomicU64,
    /// Times a panic escaped this shard's per-record isolation (or an
    /// injected kill fired) and unwound its worker loop. Incremented by the
    /// worker thread itself, which catches the unwind.
    pub panicked: AtomicU64,
    /// Times this shard's worker loop restarted in place on the same queue
    /// after such a panic (sessions rebuilt cold).
    pub restarted: AtomicU64,
    /// End-to-end latency (enqueue → prediction emitted).
    pub latency: LatencyHistogram,
    /// Sum of |predicted − measured| next-second errors, milli-Mbps
    /// fixed-point (atomic f64 without portable intrinsics).
    pub abs_err_milli_sum: AtomicU64,
    /// Errors accumulated into [`Self::abs_err_milli_sum`].
    pub err_count: AtomicU64,
}

impl ShardMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Track one realized next-second absolute error, Mbps.
    pub fn record_error(&self, abs_err_mbps: f64) {
        let milli = (abs_err_mbps * 1000.0).round().max(0.0) as u64;
        self.abs_err_milli_sum.fetch_add(milli, Ordering::Relaxed);
        self.err_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Mean absolute next-second error so far, Mbps (None before any truth
    /// arrived).
    pub fn mae_mbps(&self) -> Option<f64> {
        let n = self.err_count.load(Ordering::Relaxed);
        if n == 0 {
            return None;
        }
        Some(self.abs_err_milli_sum.load(Ordering::Relaxed) as f64 / 1000.0 / n as f64)
    }
}

/// A point-in-time view of one shard for operator reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Records ingested.
    pub processed: u64,
    /// Predictions emitted.
    pub predictions: u64,
    /// Warm-up records (no prediction possible yet).
    pub warmups: u64,
    /// Window resets.
    pub resets: u64,
    /// Poison records quarantined by per-record panic isolation.
    pub quarantined: u64,
    /// Responses served by the harmonic fallback predictor.
    pub fallbacks: u64,
    /// Records shed at dequeue by the `Deadline` staleness budget.
    pub shed_stale: u64,
    /// Panics that escaped this shard's per-record isolation.
    pub panicked: u64,
    /// In-place restarts of this shard's worker loop.
    pub restarted: u64,
    /// Ingest-queue depth at snapshot time.
    pub queue_depth: usize,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 95th-percentile latency, ns.
    pub p95_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Online mean absolute error, Mbps.
    pub mae_mbps: Option<f64>,
}

impl ShardMetrics {
    /// Snapshot this shard's counters.
    pub fn snapshot(&self, shard: usize, queue_depth: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            shard,
            processed: self.processed.load(Ordering::Relaxed),
            predictions: self.predictions.load(Ordering::Relaxed),
            warmups: self.warmups.load(Ordering::Relaxed),
            resets: self.resets.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            shed_stale: self.shed_stale.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            restarted: self.restarted.load(Ordering::Relaxed),
            queue_depth,
            p50_ns: self.latency.quantile_ns(0.50),
            p95_ns: self.latency.quantile_ns(0.95),
            p99_ns: self.latency.quantile_ns(0.99),
            mae_mbps: self.mae_mbps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = LatencyHistogram::new();
        for ns in 1..=1000u64 {
            h.record(ns);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_ns(0.50);
        let p99 = h.quantile_ns(0.99);
        // Log-bucketed: one sub-bucket (~12.5 %) of slack either side.
        assert!((400..=640).contains(&p50), "p50 = {p50}");
        assert!((900..=1152).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        assert_eq!(h.mean_ns(), 500);
    }

    #[test]
    fn histogram_merge_accumulates() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for _ in 0..10 {
            a.record(100);
            b.record(10_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 20);
        assert!(a.quantile_ns(0.25) <= 128);
        assert!(a.quantile_ns(0.95) >= 8_192);
    }

    #[test]
    fn error_tracking_reports_mae() {
        let m = ShardMetrics::new();
        assert_eq!(m.mae_mbps(), None);
        m.record_error(100.0);
        m.record_error(50.0);
        let mae = m.mae_mbps().unwrap();
        assert!((mae - 75.0).abs() < 1e-9, "mae = {mae}");
    }

    #[test]
    fn tiny_latencies_do_not_panic() {
        let h = LatencyHistogram::new();
        for ns in 0..16 {
            h.record(ns);
        }
        assert_eq!(h.count(), 16);
        assert!(h.quantile_ns(1.0) >= 8);
    }

    #[test]
    fn bucket_edges_strictly_increase_and_are_consistent() {
        let mut prev = 0u64;
        for idx in 0..NBUCKETS {
            let edge = LatencyHistogram::bucket_value(idx);
            assert!(edge > prev, "bucket {idx}: edge {edge} after {prev}");
            // The inclusive upper edge must map back to its own bucket.
            assert_eq!(LatencyHistogram::bucket_of(edge), idx);
            prev = edge;
        }
        assert_eq!(LatencyHistogram::bucket_value(NBUCKETS - 1), u64::MAX);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn bucket_of_is_monotone_and_exact_at_low_values() {
        // Every value up to 64 must land in a bucket whose inclusive edge
        // is ≥ the value, and bucket indices must never go backwards.
        let mut prev_idx = 0;
        for v in 1..=64u64 {
            let idx = LatencyHistogram::bucket_of(v);
            assert!(idx >= prev_idx, "bucket_of({v}) = {idx} < {prev_idx}");
            assert!(LatencyHistogram::bucket_value(idx) >= v);
            prev_idx = idx;
        }
        // The old low-octave fallback collapsed 1 ns and 9 ns together;
        // sub-16 values now get one exact bucket each.
        for v in 1..=LINEAR_MAX {
            assert_eq!(
                LatencyHistogram::bucket_value(LatencyHistogram::bucket_of(v)),
                v
            );
        }
    }
}
