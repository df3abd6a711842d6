//! Property tests for [`LogHistogram`]: sharded aggregation must be
//! indistinguishable from centralized recording.
//!
//! The parallel harness scores each run on its own worker and merges the
//! per-run histograms afterwards, so `merge` has to commute with
//! recording: a histogram built by merging per-shard histograms must
//! answer every query exactly like one fed the concatenated sample
//! stream. Bucket-derived queries (count, max, percentiles, CDF) are
//! exact; only the mean is floating-point and allowed rounding slack.

use ffs_metrics::LogHistogram;
use proptest::prelude::*;

/// Builds one histogram per shard plus one over the concatenation.
fn build(shards: &[Vec<f64>]) -> (LogHistogram, LogHistogram) {
    let mut merged = LogHistogram::for_latency_ms();
    for shard in shards {
        let mut h = LogHistogram::for_latency_ms();
        for &v in shard {
            h.record(v);
        }
        merged.merge(&h);
    }
    let mut whole = LogHistogram::for_latency_ms();
    for v in shards.iter().flatten() {
        whole.record(*v);
    }
    (merged, whole)
}

proptest! {
    /// Merge of per-shard histograms == histogram of the concatenated
    /// samples, for every query the metrics layer asks.
    #[test]
    fn merge_of_shards_matches_concatenated_samples(
        shards in proptest::collection::vec(
            proptest::collection::vec(0.0f64..2000.0, 0..48),
            1..6,
        ),
    ) {
        let (merged, whole) = build(&shards);
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.max(), whole.max());
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.percentile(q), whole.percentile(q), "q={}", q);
        }
        for x in [0.05, 1.0, 50.0, 500.0, 1999.0, 5000.0] {
            prop_assert_eq!(
                merged.fraction_below(x),
                whole.fraction_below(x),
                "x={}", x
            );
        }
        // The sums are accumulated in different orders, so the means may
        // differ by floating-point rounding only.
        prop_assert!(
            (merged.mean() - whole.mean()).abs() <= 1e-9 * (1.0 + whole.mean()),
            "merged mean {} vs whole {}", merged.mean(), whole.mean()
        );
    }
}
