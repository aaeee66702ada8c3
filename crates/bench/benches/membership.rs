//! Benchmarks the membership checkers (E10): LC's polynomial block
//! contraction, the Q-dag word-mask check, and the SC search, across
//! computation sizes and on the serve benchmark's literal-key pairs.

use ccmm_core::last_writer::last_writer_function;
use ccmm_core::model::CheckScratch;
use ccmm_core::{Computation, Lc, MemoryModel, Model, Nn, Nw, Op, Sc, Wn, Ww};
use ccmm_dag::topo;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use std::hint::black_box;

fn random_computation(n: usize, locs: usize, seed: u64) -> Computation {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dag = ccmm_dag::generate::gnp_dag(n, 2.0 / n as f64, &mut rng);
    let ops: Vec<Op> = (0..n)
        .map(|i| match i % 3 {
            0 => Op::Write(ccmm_core::Location::new(i % locs)),
            1 => Op::Read(ccmm_core::Location::new((i + 1) % locs)),
            _ => Op::Nop,
        })
        .collect();
    Computation::new(dag, ops).unwrap()
}

fn bench_members(c: &mut Criterion) {
    let mut group = c.benchmark_group("membership");
    for n in [16usize, 64, 256] {
        let comp = random_computation(n, 4, 42);
        let phi = last_writer_function(&comp, &topo::topo_sort(comp.dag()));
        group.bench_with_input(BenchmarkId::new("LC", n), &n, |b, _| {
            b.iter(|| black_box(Lc.contains(&comp, &phi)))
        });
        group.bench_with_input(BenchmarkId::new("NN", n), &n, |b, _| {
            b.iter(|| black_box(Nn::default().contains(&comp, &phi)))
        });
        group.bench_with_input(BenchmarkId::new("NW", n), &n, |b, _| {
            b.iter(|| black_box(Nw::default().contains(&comp, &phi)))
        });
        group.bench_with_input(BenchmarkId::new("WN", n), &n, |b, _| {
            b.iter(|| black_box(Wn::default().contains(&comp, &phi)))
        });
        group.bench_with_input(BenchmarkId::new("WW", n), &n, |b, _| {
            b.iter(|| black_box(Ww::default().contains(&comp, &phi)))
        });
        group.bench_with_input(BenchmarkId::new("SC-realizable", n), &n, |b, _| {
            b.iter(|| black_box(Sc.contains(&comp, &phi)))
        });
    }
    group.finish();
}

/// One pass of each checker over the literal-key pairs of the serve
/// benchmark: BACKER observers of six small Cilk programs (11–26 nodes),
/// checked with a reused scratch as the serve handler does. Divide by
/// the pair count in the id for the time per check.
fn bench_literal_pairs(c: &mut Criterion) {
    let programs = [
        ccmm_cilk::fib(3).computation,
        ccmm_cilk::stencil(2, 2).computation,
        ccmm_cilk::reduce(3).computation,
        ccmm_cilk::fib(4).computation,
        ccmm_cilk::mergesort(3).computation,
        ccmm_cilk::stencil(3, 2).computation,
    ];
    let mut pairs = Vec::new();
    for (p, comp) in programs.iter().enumerate() {
        for procs in 2..=4 {
            for lines in 1..=3 {
                let seed = (p * 100 + procs * 10 + lines) as u64;
                for phi in ccmm_backer::harvest::harvest_observers(comp, 16, procs, lines, seed) {
                    pairs.push((comp.clone(), phi));
                }
            }
        }
    }
    let mut group = c.benchmark_group("literal_pairs");
    let mut scratch = CheckScratch::new();
    for m in [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww] {
        group.bench_with_input(BenchmarkId::new(m.name(), pairs.len()), &m, |b, m| {
            b.iter(|| {
                black_box(
                    pairs.iter().filter(|(c, phi)| m.contains_with(c, phi, &mut scratch)).count(),
                )
            })
        });
    }
    group.finish();
}

fn bench_sc_adversarial(c: &mut Criterion) {
    let mut group = c.benchmark_group("sc_refutation");
    // Antichain of k writes + read forced to ⊥: unsatisfiable; the solver
    // must refute via memoised search.
    for k in [6usize, 8, 10] {
        let mut ops = vec![Op::Write(ccmm_core::Location::new(0)); k];
        ops.push(Op::Read(ccmm_core::Location::new(0)));
        let edges: Vec<(usize, usize)> = (0..k).map(|i| (i, k)).collect();
        let comp = Computation::from_edges(k + 1, &edges, ops);
        let phi = ccmm_core::ObserverFunction::base(&comp);
        group.bench_with_input(BenchmarkId::new("antichain", k), &k, |b, _| {
            b.iter(|| black_box(Sc.contains(&comp, &phi)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_members, bench_literal_pairs, bench_sc_adversarial);
criterion_main!(benches);
