//! Benchmarks the parallel sweep engine against the serial scans it
//! replaces, and the mask Δ* fixpoint against the naïve re-scan
//! fixpoint.
//!
//! On a multi-core box the `compare` group shows the sweep speedup
//! (thread count via `CCMM_THREADS`, default = available parallelism);
//! on one core the parallel engine degenerates to the serial inline
//! path, so the interesting row is `fixpoint`: mask vs naïve.

use ccmm_core::constructible::lanes::LaneConstructible;
use ccmm_core::constructible::BoundedConstructible;
use ccmm_core::relation::compare;
use ccmm_core::sweep::supervisor::{compare_supervised, Supervisor};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::{Lc, Nn};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_compare(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_compare");
    group.sample_size(10);
    let u = Universe::new(4, 1);
    group.bench_function(BenchmarkId::new("serial", 4), |b| {
        b.iter(|| black_box(compare(&Lc, &Nn::default(), &u).pairs_checked))
    });
    let cfg = SweepConfig::from_env();
    group.bench_function(BenchmarkId::new(format!("parallel_t{}", cfg.threads), 4), |b| {
        b.iter(|| {
            let out = compare_supervised(&Lc, &Nn::default(), &u, &cfg, &Supervisor::none());
            black_box(out.expect_complete("bench compare").pairs_checked)
        })
    });
    group.finish();
}

fn bench_fixpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_fixpoint");
    group.sample_size(10);
    for n in [4usize, 5] {
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, &n| {
            let u = Universe::new(n, 1);
            b.iter(|| black_box(BoundedConstructible::compute(&Nn::default(), &u).total_pairs()))
        });
        group.bench_with_input(BenchmarkId::new("mask", n), &n, |b, &n| {
            let u = Universe::new(n, 1);
            let cfg = SweepConfig::from_env();
            b.iter(|| black_box(LaneConstructible::compute(&Nn::default(), &u, &cfg).total_pairs()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_compare, bench_fixpoint);
criterion_main!(benches);
