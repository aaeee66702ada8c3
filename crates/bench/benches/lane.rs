//! Benchmarks the bit-parallel lane engine against the scalar-scratch
//! membership path it accelerates: the same six-model weighted
//! membership workload, decided one `(C, Φ)` pair at a time
//! (`contains_with` + reused `CheckScratch`) vs 64 observers per `u64`
//! lane word (`contains_lanes` + `LanePack`). Both run single-threaded
//! over the canonical enumeration so the ratio is a kernel ratio, not a
//! scheduling artifact — this is the reproducible form of the ≥4×
//! speedup claim behind `ccmm sweep --engine lane64`.
//!
//! `lane_lc` runs the same workload for LC alone, isolating the LC lane
//! kernel (one Warshall closure over lane masks per location) from the
//! other five models.

use ccmm_core::constructible::lanes::LaneConstructible;
use ccmm_core::constructible::BoundedConstructible;
use ccmm_core::enumerate::for_each_observer;
use ccmm_core::model::{CheckScratch, LanePack, LaneScratch, Nn, ObserverIndex, SlotOrder};
use ccmm_core::sweep::supervisor::{sweep_supervised, Supervisor};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::{MemoryModel, Model};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::ops::ControlFlow;

const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

/// The `ccmm sweep` phase-1 workload for `models` on the scalar-scratch
/// path.
fn memberships_scalar(models: &[Model], u: &Universe, cfg: &SweepConfig) -> u64 {
    sweep_supervised(
        u,
        cfg,
        &Supervisor::none(),
        None,
        None,
        || 0u64,
        CheckScratch::new,
        |acc, check, _, c, w| {
            let _ = for_each_observer(c, |phi| {
                for m in models {
                    *acc += w * m.contains_with(c, phi, check) as u64;
                }
                ControlFlow::Continue(())
            });
        },
    )
    .expect_complete("bench scalar memberships")
}

/// The same workload through the lane engine: observers packed 64 per
/// word in enumeration order, verdict masks popcounted against weights.
fn memberships_lanes(models: &[Model], u: &Universe, cfg: &SweepConfig) -> u64 {
    sweep_supervised(
        u,
        cfg,
        &Supervisor::none(),
        None,
        None,
        || 0u64,
        || (ObserverIndex::new(), LanePack::new(), LaneScratch::new()),
        |total, (index, pack, lanes), _, c, w| {
            index.prepare(c, SlotOrder::LocationMajor, pack);
            index.for_each_pack(pack, |pack| {
                let used = pack.used();
                for m in models {
                    *total += w * u64::from((m.contains_lanes(c, pack, lanes) & used).count_ones());
                }
            });
        },
    )
    .expect_complete("bench lane memberships")
}

/// Scalar-scratch vs lane64 rows of `models` in group `name`.
fn bench_engines(c: &mut Criterion, name: &str, models: &[Model], shapes: &[(usize, usize)]) {
    let mut group = c.benchmark_group(name);
    group.sample_size(10);
    for &(nodes, locs) in shapes {
        let u = Universe::new(nodes, locs);
        let cfg = SweepConfig::serial().canonical(true);
        let id = format!("{nodes}n{locs}l");
        let scalar = memberships_scalar(models, &u, &cfg);
        let lane = memberships_lanes(models, &u, &cfg);
        assert_eq!(scalar, lane, "engines disagree at {id}; the ratio would be meaningless");
        group.bench_function(BenchmarkId::new("scalar-scratch", &id), |b| {
            b.iter(|| black_box(memberships_scalar(models, &u, &cfg)))
        });
        group.bench_function(BenchmarkId::new("lane64", &id), |b| {
            b.iter(|| black_box(memberships_lanes(models, &u, &cfg)))
        });
    }
    group.finish();
}

fn bench_lane_engine(c: &mut Criterion) {
    bench_engines(c, "lane_engine", &MODELS, &[(4, 1), (4, 2), (5, 1)]);
}

fn bench_lane_lc(c: &mut Criterion) {
    bench_engines(c, "lane_lc", &[Model::Lc], &[(5, 1), (4, 2)]);
}

/// The `ccmm sweep` phase-3 workload under both `--engine` kernels: the
/// mask fixpoint with the scalar Stage-A kernel (one membership check
/// per observer) vs the lane kernel (64 observers per `u64` word). Both
/// are single-threaded end-to-end — Stage A plus the cascade — and both
/// are checked against the naïve re-scan before timing.
fn bench_lane_fixpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_fixpoint");
    group.sample_size(10);
    for (nodes, locs) in [(4usize, 1usize), (4, 2), (5, 1)] {
        let u = Universe::new(nodes, locs);
        let cfg = SweepConfig::serial();
        let id = format!("{nodes}n{locs}l");
        let engine = |lanes| {
            LaneConstructible::compute_supervised(
                &Nn::default(),
                &u,
                &cfg,
                &Supervisor::none(),
                None,
                None,
                lanes,
            )
            .expect_complete("bench fixpoint")
        };
        let naive = BoundedConstructible::compute(&Nn::default(), &u);
        for lanes in [false, true] {
            let fix = engine(lanes);
            assert_eq!(
                (naive.total_pairs(), naive.deleted),
                (fix.total_pairs(), fix.deleted),
                "engine disagrees with the naïve fixpoint at {id}"
            );
        }
        group.bench_function(BenchmarkId::new("scalar", &id), |b| {
            b.iter(|| black_box(engine(false)).total_pairs())
        });
        group.bench_function(BenchmarkId::new("lane64", &id), |b| {
            b.iter(|| black_box(engine(true)).total_pairs())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_lane_engine, bench_lane_lc, bench_lane_fixpoint);
criterion_main!(benches);
