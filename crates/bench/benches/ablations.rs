//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! CV-ranked partition selection, eviction-based time sharing, pipeline
//! migration, and transfer-cost sensitivity.
//!
//! Each arm reports both its wall-clock (Criterion) and, through the
//! experiment module, its SLO impact (see `exp ablation`). The arms are
//! the experiment's own policy substitutions, [`ablation::arms`].

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ffs_experiments::ablation;
use ffs_mig::{Fleet, PartitionLayout, PartitionScheme};
use ffs_pipeline::{plan_deployment, plan_deployment_unranked};
use ffs_profile::{App, FunctionProfile, PerfModel, Variant};

const BENCH_SECS: f64 = 30.0;

fn bench_cv_vs_unranked_planning(c: &mut Criterion) {
    let profile = FunctionProfile::build(
        App::ImageClassification,
        Variant::Medium,
        &PerfModel::default(),
    );
    let fleet = Fleet::new(
        1,
        2,
        &PartitionScheme::Uniform(PartitionLayout::preset_seven_small()),
    )
    .unwrap();
    let free = fleet.free_slices(None);
    let mut g = c.benchmark_group("ablation_cv_ranking");
    g.bench_function("cv_ranked", |b| {
        b.iter(|| black_box(plan_deployment(&profile, &free)))
    });
    g.bench_function("unranked_first_fit", |b| {
        b.iter(|| black_box(plan_deployment_unranked(&profile, &free)))
    });
    g.finish();
}

fn bench_ablation_arms(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_arms_heavy");
    g.sample_size(10);
    for arm in ablation::arms() {
        g.bench_function(&arm.name, |b| {
            b.iter(|| black_box(ablation::run_arm(&arm, BENCH_SECS, 1)))
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    bench_cv_vs_unranked_planning,
    bench_ablation_arms
);
criterion_main!(ablations);
