//! Log₂-bucketed histograms for latency and size distributions.
//!
//! A recorded value `v` lands in bucket `0` when `v == 0` and otherwise in
//! bucket `floor(log2(v)) + 1`, i.e. bucket `b ≥ 1` covers the value range
//! `[2^(b-1), 2^b - 1]`. With 65 buckets the full `u64` domain is covered,
//! recording is branch-light (one `leading_zeros` plus one relaxed
//! `fetch_add`), and quantile estimates are exact to within one power of
//! two — plenty for the order-of-magnitude questions the figures ask
//! (microseconds per superstep, bytes per envelope).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per bit of `u64`.
pub const BUCKETS: usize = 65;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper edge of a bucket.
#[inline]
fn bucket_edge(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A concurrent log₂ histogram. Recording is lock-free; all counters are
/// relaxed atomics.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` observations that together total `total`, each counted
    /// at their mean: `n` lands in the bucket of `total / n`, the sum grows
    /// by `total`, so `sum / count` stays a per-observation mean. A batch
    /// timed as a whole (a run of frames through one handler call) records
    /// this way. A no-op when `n == 0`.
    #[inline]
    pub fn record_n(&self, total: u64, n: u64) {
        if n == 0 {
            return;
        }
        let mean = total / n;
        self.buckets[bucket_of(mean)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(total, Ordering::Relaxed);
        self.max.fetch_max(mean, Ordering::Relaxed);
    }

    /// Point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], or a difference of two copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; BUCKETS],
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow).
    pub sum: u64,
    /// Largest value ever recorded (monotonic: not meaningful in a delta
    /// beyond "largest seen up to the later snapshot").
    pub max: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistSnapshot {
    /// Observations recorded between two snapshots (`later - self`).
    pub fn delta_to(&self, later: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| later.buckets[i] - self.buckets[i]),
            count: later.count - self.count,
            sum: later.sum.wrapping_sub(self.sum),
            max: later.max,
        }
    }

    /// Element-wise sum (aggregating machines into cluster totals).
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-edge estimate of the `q`-quantile (`0.0 ..= 1.0`): the
    /// inclusive upper edge of the bucket containing the `ceil(q·count)`-th
    /// smallest observation, clamped to the observed maximum. Returns 0 for
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_edge(b).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Inclusive value range covered by bucket `b` — exposed so exporters
    /// and tests can label buckets without duplicating the edge math.
    pub fn bucket_range(b: usize) -> (u64, u64) {
        if b == 0 {
            (0, 0)
        } else {
            (1u64 << (b - 1), bucket_edge(b))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_partition_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for b in 1..BUCKETS {
            let (lo, hi) = HistSnapshot::bucket_range(b);
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(hi), b);
            if b > 1 {
                assert_eq!(bucket_edge(b - 1) + 1, lo, "buckets must tile");
            }
        }
    }

    #[test]
    fn quantiles_bound_the_samples() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // p50 of 1..=1000 is 500; the bucket upper edge for 500 is 511.
        assert_eq!(s.p50(), 511);
        assert!(s.p99() >= 990 && s.p99() <= 1000);
        assert_eq!(s.quantile(1.0), 1000, "q=1.0 clamps to observed max");
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn record_n_counts_each_observation_at_the_mean() {
        let h = Histogram::new();
        // Four observations totalling 10: mean 2 (integer), bucket [2, 3].
        h.record_n(10, 4);
        h.record(7);
        h.record_n(5, 0);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 17, "the sum keeps the exact total");
        assert_eq!(s.buckets[bucket_of(2)], 4);
        assert_eq!(s.buckets[bucket_of(7)], 1);
        assert_eq!(s.max, 7);
        assert!(
            (s.mean() - 17.0 / 5.0).abs() < 1e-9,
            "sum / count is per observation"
        );
    }

    #[test]
    fn quantiles_at_bucket_boundaries() {
        // Exact powers of two sit at the *bottom* of their bucket: the
        // estimate is the bucket's upper edge clamped to the observed max.
        for pow in [1u64, 2, 4, 1024, 1 << 32] {
            let h = Histogram::new();
            h.record(pow);
            let s = h.snapshot();
            assert_eq!(s.quantile(0.0), pow, "single sample: every q is it");
            assert_eq!(s.quantile(0.5), pow);
            assert_eq!(s.quantile(1.0), pow);
        }
        // Two samples in adjacent buckets: q below/above the midpoint must
        // land in the respective bucket, and the upper estimate clamps to
        // the observed max rather than the bucket edge (511).
        let h = Histogram::new();
        h.record(255); // bucket [128, 255] — upper edge exactly the sample
        h.record(256); // bucket [256, 511] — lower edge exactly the sample
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 255, "rank 1 → first bucket's edge");
        assert_eq!(s.quantile(0.51), 256, "rank 2 → clamped to max");
        assert_eq!(s.quantile(1.0), 256);
        // Zero occupies its own bucket with edge 0.
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.max, 0);
        // u64::MAX lands in the final bucket and clamps correctly.
        let h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.snapshot().quantile(0.5), u64::MAX);
    }

    #[test]
    fn hist_merge_of_deltas_equals_delta_of_merges() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(3);
        b.record(70);
        let (a0, b0) = (a.snapshot(), b.snapshot());
        a.record(5);
        b.record(900);
        let (a1, b1) = (a.snapshot(), b.snapshot());
        let mut merge_of_deltas = a0.delta_to(&a1);
        merge_of_deltas.merge(&b0.delta_to(&b1));
        let (mut m0, mut m1) = (a0, a1);
        m0.merge(&b0);
        m1.merge(&b1);
        let delta_of_merges = m0.delta_to(&m1);
        assert_eq!(merge_of_deltas.buckets, delta_of_merges.buckets);
        assert_eq!(merge_of_deltas.count, delta_of_merges.count);
        assert_eq!(merge_of_deltas.sum, delta_of_merges.sum);
    }

    #[test]
    fn delta_isolates_a_window() {
        let h = Histogram::new();
        h.record(10);
        let before = h.snapshot();
        h.record(100);
        h.record(1000);
        let d = before.delta_to(&h.snapshot());
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 1100);
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(5);
        b.record(500);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 2);
        assert_eq!(m.sum, 505);
        assert_eq!(m.max, 500);
    }
}
