//! Latency CDFs and percentiles (Figures 11–13).

/// An empirical latency distribution.
#[derive(Clone, Debug)]
pub struct LatencyCdf {
    sorted_ms: Vec<f64>,
}

impl LatencyCdf {
    /// Builds a CDF from latency samples (ms). Non-finite samples (NaN,
    /// ±∞) indicate an upstream accounting bug but must not crash a whole
    /// sweep: they are dropped here and counted against the process-wide
    /// [`ffs_obs::nonfinite_latency_samples`] counter so the loss stays
    /// visible.
    pub fn new(mut samples: Vec<f64>) -> Self {
        let before = samples.len();
        samples.retain(|x| x.is_finite());
        for _ in samples.len()..before {
            ffs_obs::note_nonfinite_latency_sample();
        }
        samples.sort_by(f64::total_cmp);
        LatencyCdf { sorted_ms: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted_ms.len()
    }

    /// True if there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted_ms.is_empty()
    }

    /// The `q`-quantile (0.0 ..= 1.0) by nearest-rank. Returns `None` when
    /// empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.sorted_ms.is_empty() {
            return None;
        }
        debug_assert!((0.0..=1.0).contains(&q));
        let n = self.sorted_ms.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.sorted_ms[rank - 1])
    }

    /// Median latency.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// 95th-percentile (the paper's tail-latency metric).
    pub fn p95(&self) -> Option<f64> {
        self.percentile(0.95)
    }

    /// 99th-percentile.
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }

    /// Fraction of samples at or below `x` ms.
    pub fn fraction_below(&self, x: f64) -> f64 {
        if self.sorted_ms.is_empty() {
            return 0.0;
        }
        let idx = self.sorted_ms.partition_point(|&v| v <= x);
        idx as f64 / self.sorted_ms.len() as f64
    }

    /// `points` evenly spaced CDF points `(latency_ms, cumulative_fraction)`
    /// for plotting.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted_ms.is_empty() || points == 0 {
            return Vec::new();
        }
        let n = self.sorted_ms.len();
        (1..=points)
            .map(|i| {
                let frac = i as f64 / points as f64;
                let rank = ((frac * n as f64).ceil() as usize).clamp(1, n);
                (self.sorted_ms[rank - 1], frac)
            })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_data() {
        let cdf = LatencyCdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(cdf.p50(), Some(50.0));
        assert_eq!(cdf.p95(), Some(95.0));
        assert_eq!(cdf.p99(), Some(99.0));
        assert_eq!(cdf.percentile(1.0), Some(100.0));
        assert_eq!(cdf.percentile(0.0), Some(1.0));
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let cdf = LatencyCdf::new(vec![5.0, 1.0, 3.0]);
        assert_eq!(cdf.p50(), Some(3.0));
    }

    #[test]
    fn fraction_below() {
        let cdf = LatencyCdf::new(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(cdf.fraction_below(25.0), 0.5);
        assert_eq!(cdf.fraction_below(40.0), 1.0);
        assert_eq!(cdf.fraction_below(5.0), 0.0);
    }

    #[test]
    fn curve_is_monotone() {
        let cdf = LatencyCdf::new((0..500).map(|i| (i % 97) as f64).collect());
        let curve = cdf.curve(20);
        assert_eq!(curve.len(), 20);
        for w in curve.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((curve.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nonfinite_samples_are_dropped_and_counted() {
        let before = ffs_obs::nonfinite_latency_samples();
        let cdf = LatencyCdf::new(vec![f64::NAN, 2.0, f64::INFINITY, 1.0, f64::NEG_INFINITY]);
        assert_eq!(cdf.len(), 2);
        assert_eq!(cdf.p50(), Some(1.0));
        assert_eq!(cdf.percentile(1.0), Some(2.0));
        assert_eq!(ffs_obs::nonfinite_latency_samples() - before, 3);
    }

    #[test]
    fn empty_cdf() {
        let cdf = LatencyCdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.p95(), None);
        assert!(cdf.curve(10).is_empty());
        assert_eq!(cdf.fraction_below(1.0), 0.0);
    }
}
