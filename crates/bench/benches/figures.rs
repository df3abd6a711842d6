//! One Criterion benchmark per paper table / figure.
//!
//! Each benchmark runs one paper entry of
//! [`ffs_experiments::artifacts::ARTIFACTS`] (the code behind
//! `exp <artifact>`) on a shortened trace, so `cargo bench` both
//! regenerates the artifacts and tracks the cost of producing them.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ffs_experiments::artifacts::ARTIFACTS;

/// Shortened trace length for benchmarking (seconds).
const BENCH_SECS: f64 = 30.0;
const SEED: u64 = 1;

fn bench_artifacts(c: &mut Criterion) {
    let mut g = c.benchmark_group("artifacts");
    g.sample_size(10);
    for a in ARTIFACTS.iter().filter(|a| a.in_all) {
        g.bench_function(a.name, |b| b.iter(|| black_box((a.run)(BENCH_SECS, SEED))));
    }
    g.finish();
}

criterion_group!(figures, bench_artifacts);
criterion_main!(figures);
