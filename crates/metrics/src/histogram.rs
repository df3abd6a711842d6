//! A log-bucketed latency histogram.
//!
//! Storing every latency sample (as [`crate::cdf::LatencyCdf`] does) is
//! exact but O(n) memory; long simulations and the live executor benefit
//! from a fixed-size summary. This histogram uses logarithmic buckets
//! (~5% relative width), giving percentile estimates within one bucket
//! width — plenty for SLO accounting.

use serde::{Deserialize, Serialize};

/// Relative width of each bucket (5%).
const GROWTH: f64 = 1.05;

/// A fixed-memory log-bucketed histogram of non-negative values.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Smallest value resolvable; everything below lands in bucket 0.
    floor: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    max: f64,
}

impl LogHistogram {
    /// Creates a histogram resolving values from `floor` upward.
    pub fn new(floor: f64) -> Self {
        assert!(floor > 0.0);
        LogHistogram {
            floor,
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// A histogram suitable for millisecond latencies (floor 0.1 ms).
    pub fn for_latency_ms() -> Self {
        Self::new(0.1)
    }

    fn bucket_of(&self, v: f64) -> usize {
        if v <= self.floor {
            0
        } else {
            ((v / self.floor).ln() / GROWTH.ln()).floor() as usize + 1
        }
    }

    /// The lower edge of bucket `i`.
    fn bucket_lower(&self, i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            self.floor * GROWTH.powi(i as i32 - 1)
        }
    }

    /// Records a value.
    pub fn record(&mut self, v: f64) {
        assert!(
            v.is_finite() && v >= 0.0,
            "histogram values must be finite and non-negative"
        );
        let b = self.bucket_of(v);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.total += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of the recorded values (exact).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Maximum recorded value (exact).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The `q`-quantile estimate (within one bucket width). `None` when
    /// empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        debug_assert!((0.0..=1.0).contains(&q));
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Report the bucket's upper edge (conservative for SLOs).
                return Some(self.bucket_lower(i + 1));
            }
        }
        Some(self.max)
    }

    /// Fraction of samples at or below `x` (within one bucket width).
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let b = self.bucket_of(x);
        let below: u64 = self.counts.iter().take(b + 1).sum();
        below as f64 / self.total as f64
    }

    /// Merges another histogram with the same floor.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.floor, other.floor, "histogram floors must match");
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_within_bucket_accuracy() {
        let mut h = LogHistogram::for_latency_ms();
        for i in 1..=10_000 {
            h.record(i as f64 / 10.0); // 0.1 .. 1000.0 ms
        }
        assert_eq!(h.count(), 10_000);
        let p50 = h.percentile(0.5).unwrap();
        assert!((p50 / 500.0 - 1.0).abs() < 0.06, "p50 {p50}");
        let p95 = h.percentile(0.95).unwrap();
        assert!((p95 / 950.0 - 1.0).abs() < 0.06, "p95 {p95}");
        assert!((h.mean() - 500.05).abs() < 0.5);
        assert_eq!(h.max(), 1000.0);
    }

    #[test]
    fn fraction_below_tracks_cdf() {
        let mut h = LogHistogram::for_latency_ms();
        for v in [10.0, 20.0, 30.0, 40.0] {
            h.record(v);
        }
        assert!((h.fraction_below(25.0) - 0.5).abs() < 0.26);
        assert_eq!(h.fraction_below(1000.0), 1.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LogHistogram::for_latency_ms();
        let mut b = LogHistogram::for_latency_ms();
        a.record(10.0);
        b.record(1000.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 1000.0);
        assert!((a.mean() - 505.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::for_latency_ms();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.fraction_below(1.0), 0.0);
    }

    #[test]
    fn tiny_values_land_in_bucket_zero() {
        let mut h = LogHistogram::for_latency_ms();
        h.record(0.0);
        h.record(0.05);
        assert_eq!(h.count(), 2);
        assert!(h.percentile(1.0).unwrap() <= 0.1 + 1e-9);
    }
}
