//! Benchmarks the symmetry-reduced sweep against the labelled sweep it
//! shadows, and the reusable-scratch checker kernels against the
//! allocate-per-pair path they replace.
//!
//! `canon_sweep` isolates the enumeration win (canonical posets × one
//! labelling per `Aut(P) × S_k` orbit vs every labelled computation) on the
//! same membership workload; `canon_scratch` isolates the allocation win
//! (one `CheckScratch` reused across every pair vs fresh checker state
//! per call) on a fixed pair set. Both run single-threaded so the ratios
//! are engine ratios, not scheduling artifacts.
//!
//! `canonical_posets` times the sweep's canonical poset list at 5, 6 and
//! 7 nodes both ways: `for_each_canonical_poset` (pruned automorphism
//! search, down-set DP for `e(P)`) against filtering every labelled
//! poset through `canon_info` (every linear extension enumerated). Both
//! sum the orbits, which must equal the labelled poset count.
//!
//! `serve_key` times one `ccmm serve` cache key (`verdict_key`) on the
//! shapes that bound its cost: litmus shapes, four 2-chains, the 8-node
//! antichain, whose 40,320 linear extensions all tie on the ancestor-mask
//! vector, and a 16-node pair above the cap, which keys literally.

use ccmm_core::enumerate::for_each_observer;
use ccmm_core::model::CheckScratch;
use ccmm_core::serve::verdict_key;
use ccmm_core::sweep::supervisor::{sweep_supervised, Supervisor};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::{litmus, Computation, Location, MemoryModel, Model, ObserverFunction, Op};
use ccmm_dag::canon::{canon_info, for_each_canonical_poset};
use ccmm_dag::poset::{count_posets_fast, for_each_poset_indexed};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::ops::ControlFlow;

const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

/// Weighted membership counts over the universe — the `ccmm sweep`
/// phase-1 workload.
fn memberships(u: &Universe, cfg: &SweepConfig) -> u64 {
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
                for m in &MODELS {
                    *acc += w * m.contains_with(c, phi, check) as u64;
                }
                ControlFlow::Continue(())
            });
        },
    )
    .expect_complete("bench memberships sweep")
}

fn bench_enumeration(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon_sweep");
    group.sample_size(10);
    for (nodes, locs) in [(4usize, 1usize), (4, 2)] {
        let u = Universe::new(nodes, locs);
        let id = format!("{nodes}n{locs}l");
        group.bench_function(BenchmarkId::new("labelled", &id), |b| {
            let cfg = SweepConfig::serial();
            b.iter(|| black_box(memberships(&u, &cfg)))
        });
        group.bench_function(BenchmarkId::new("canonical", &id), |b| {
            let cfg = SweepConfig::serial().canonical(true);
            b.iter(|| black_box(memberships(&u, &cfg)))
        });
    }
    group.finish();
}

fn bench_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("canon_scratch");
    group.sample_size(10);
    let u = Universe::new(4, 1);
    let cfg = SweepConfig::serial();
    group.bench_function("alloc_per_pair", |b| {
        b.iter(|| {
            let n = sweep_supervised(
                &u,
                &cfg,
                &Supervisor::none(),
                None,
                None,
                || 0u64,
                || (),
                |acc, (), _, c, _| {
                    let _ = for_each_observer(c, |phi| {
                        for m in &MODELS {
                            *acc += m.contains(c, phi) as u64;
                        }
                        ControlFlow::Continue(())
                    });
                },
            );
            black_box(n.expect_complete("bench alloc sweep"))
        })
    });
    group.bench_function("reused_scratch", |b| b.iter(|| black_box(memberships(&u, &cfg))));
    group.finish();
}

fn bench_canonical_posets(c: &mut Criterion) {
    let mut group = c.benchmark_group("canonical_posets");
    group.sample_size(10);
    let pruned = |n: usize| {
        let mut orbits = 0u64;
        for_each_canonical_poset(n, |_, _, info, _| orbits += info.orbit);
        orbits
    };
    let enumerated = |n: usize| {
        let mut orbits = 0u64;
        for_each_poset_indexed(n, |_, dag| {
            let info = canon_info(dag);
            if info.is_canonical {
                orbits += info.orbit;
            }
        });
        orbits
    };
    for n in [5usize, 6, 7] {
        assert_eq!(pruned(n), count_posets_fast(n), "pruned orbits at n={n}");
        assert_eq!(enumerated(n), count_posets_fast(n), "enumerated orbits at n={n}");
        group.bench_function(BenchmarkId::new("pruned", n), |b| b.iter(|| black_box(pruned(n))));
        group.bench_function(BenchmarkId::new("canon_info", n), |b| {
            b.iter(|| black_box(enumerated(n)))
        });
    }
    group.finish();
}

fn bench_serve_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_key");
    let (x, y) = (Location::new(0), Location::new(1));
    let ops = vec![
        Op::Write(x),
        Op::Read(x),
        Op::Write(y),
        Op::Read(y),
        Op::Write(x),
        Op::Read(y),
        Op::Nop,
        Op::Read(x),
    ];
    // Above the canonicalisation cap: four 4-chains, keyed literally.
    let chains: Vec<(usize, usize)> = (0..16).filter(|v| v % 4 != 3).map(|v| (v, v + 1)).collect();
    let literal_ops = ops.iter().chain(&ops).copied().collect();
    let shapes: [(&str, Computation); 5] = [
        ("mp", litmus::message_passing().computation),
        ("iriw", litmus::iriw().computation),
        ("chains4x2", Computation::from_edges(8, &[(0, 1), (2, 3), (4, 5), (6, 7)], ops.clone())),
        ("antichain8", Computation::from_edges(8, &[], ops)),
        ("literal16", Computation::from_edges(16, &chains, literal_ops)),
    ];
    for (name, comp) in shapes {
        let phi = ObserverFunction::base(&comp);
        group.bench_function(name, |b| b.iter(|| black_box(verdict_key(Model::Sc, &comp, &phi))));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_enumeration,
    bench_scratch,
    bench_canonical_posets,
    bench_serve_key
);
criterion_main!(benches);
