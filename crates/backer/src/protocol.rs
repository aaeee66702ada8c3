//! The one BACKER protocol step that every runner shares.
//!
//! BACKER (\[BFJ+96a\]) executes node `u` on processor `p` in three moves:
//!
//! * **flush-before**: if a predecessor of `u` ran on another processor,
//!   `p` reconciles and empties its cache, which may hold copies older
//!   than the dependency;
//! * the op itself: a read hits or fetches, a write installs its token
//!   dirty;
//! * **reconcile-after**: if a successor of `u` may run on another
//!   processor, `p` writes its dirty lines back, so the dependent node
//!   sees them through main memory.
//!
//! [`step`] is that sequence over any [`CacheOps`] cache. The runners
//! ([`crate::sim`], [`crate::threads`], [`crate::stream`],
//! [`crate::timing`]) only schedule: each picks the processor, decides
//! the two flags and calls [`step`]. The [`FaultInjection`] switches are
//! applied here and nowhere else, so a mutation reaches every runner in
//! the same way.

use crate::cache::CacheOps;
use crate::config::FaultInjection;
use crate::memory::{node_of, token_of, MainMemory};
use crate::stats::Stats;
use ccmm_core::Op;
use ccmm_dag::NodeId;

/// Executes node `u` (operation `op`) on one processor's `cache`,
/// flushing first if `flush_before` and reconciling afterwards if
/// `reconcile_after`, unless `faults` skips that move. Returns what `u`
/// observes at its own location: the write itself for a write, the
/// token hit or fetched for a read, `None` for a nop.
pub fn step<C: CacheOps>(
    cache: &mut C,
    mem: &mut MainMemory,
    stats: &mut Stats,
    faults: FaultInjection,
    u: NodeId,
    op: Op,
    (flush_before, reconcile_after): (bool, bool),
) -> Option<NodeId> {
    if flush_before && !faults.skip_flush {
        cache.flush_all(mem, stats);
    }
    let observed = match op {
        Op::Read(l) => node_of(cache.read(l, mem, stats)),
        Op::Write(l) => {
            cache.write(l, token_of(u), mem, stats);
            Some(u)
        }
        Op::Nop => None,
    };
    if reconcile_after && !faults.skip_reconcile {
        cache.reconcile_all(mem, stats);
    }
    observed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BackerConfig;
    use crate::schedule::Schedule;
    use crate::{harvest, sim, stream::StreamRunner, threads, timing};
    use ccmm_cilk::{fib_trace, matmul_trace};
    use rand::SeedableRng;

    /// Order-sensitive FNV-1a over `bytes`, continuing from `h`.
    fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
    }

    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

    /// The literal-pool programs of the serve benchmark, harvested on 2–4
    /// processors with 1–3-line caches: observer count and digest as the
    /// dense-cache runners produced them.
    #[test]
    fn harvested_observers_are_pinned() {
        let programs = [
            ccmm_cilk::fib(3).computation,
            ccmm_cilk::stencil(2, 2).computation,
            ccmm_cilk::reduce(3).computation,
            ccmm_cilk::fib(4).computation,
            ccmm_cilk::mergesort(3).computation,
            ccmm_cilk::stencil(3, 2).computation,
        ];
        let (mut count, mut digest) = (0, FNV_OFFSET);
        for (p, c) in programs.iter().enumerate() {
            for procs in 2..=4 {
                for lines in 1..=3 {
                    let seed = ((p as u64) << 8) | ((procs as u64) << 4) | lines as u64;
                    for phi in harvest::harvest_observers(c, 16, procs, lines, seed) {
                        count += 1;
                        digest = fnv1a(digest, phi.render().as_bytes());
                    }
                }
            }
        }
        assert_eq!((count, digest), (585, 0x23e2_3cbc_c2c3_3ff2));
    }

    /// `StreamRunner` under each fault, at `ccmm watch`'s default shape
    /// (4 processors, 16-line caches, block 16): node count, digest of the
    /// own-location observations, and the merged counters.
    #[test]
    fn stream_runner_is_pinned() {
        let stats = |[hits, misses, fetches, writes, reconciles, flushes, evictions]: [u64; 7]| {
            Stats { hits, misses, fetches, writes, reconciles, flushes, evictions }
        };
        let pins = [
            ("fib:12", "none", 1161, 0x81aa_60ab_c67e_c3f8, [271, 193, 193, 465, 463, 118, 0]),
            (
                "fib:12",
                "skip-flush",
                1161,
                0x81aa_60ab_c67e_c3f8,
                [332, 132, 132, 465, 462, 0, 533],
            ),
            (
                "fib:12",
                "skip-reconcile",
                1161,
                0xd8af_3cc7_194f_7fd5,
                [271, 193, 193, 465, 449, 118, 0],
            ),
            ("matmul:8", "none", 2387, 0xaeb6_4924_fe6b_78d6, [131, 1405, 1405, 704, 704, 548, 32]),
            (
                "matmul:8",
                "skip-flush",
                2387,
                0xaed0_8248_d625_270e,
                [542, 994, 994, 704, 704, 0, 1148],
            ),
            (
                "matmul:8",
                "skip-reconcile",
                2387,
                0x97e5_e3f4_deae_70e3,
                [131, 1405, 1405, 704, 703, 548, 32],
            ),
        ];
        for (workload, fault, nodes, want_digest, want_stats) in pins {
            let trace = if workload == "fib:12" { fib_trace(12) } else { matmul_trace(8) };
            let faults = FaultInjection::from_name(fault).unwrap();
            let cfg = BackerConfig::with_processors(4).cache_capacity(16).faults(faults);
            let mut runner = StreamRunner::new(trace.num_locations, &cfg, 16);
            let (mut n, mut digest) = (0, FNV_OFFSET);
            while let Some((_, _, observed)) = runner.step(&trace.dag, &trace.ops) {
                n += 1;
                let token = observed.map_or(0, |v| v.index() as u64 + 1);
                digest = fnv1a(digest, &token.to_le_bytes());
            }
            let got = (n, digest, runner.stats());
            assert_eq!(got, (nodes, want_digest, stats(want_stats)), "{workload} {fault}");
        }
    }

    /// Each switch reaches every runner. Skipping the flush leaves no
    /// flush anywhere. With unbounded caches, lines are written back only
    /// by flushes and reconciles, so skipping both leaves no write-back,
    /// while skipping the flush alone leaves some in every runner.
    #[test]
    fn each_switch_reaches_every_runner() {
        let trace = fib_trace(8);
        let c = trace.to_computation();
        let runners = |faults: FaultInjection| -> [Stats; 4] {
            let cfg = BackerConfig::with_processors(3).faults(faults);
            let cost = timing::CostModel::default();
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let mut streamed = StreamRunner::new(trace.num_locations, &cfg, 4);
            while streamed.step(&trace.dag, &trace.ops).is_some() {}
            [
                sim::run(&c, &Schedule::round_robin(&c, 3), &cfg).stats,
                threads::run(&c, &cfg).stats,
                streamed.stats(),
                timing::run(&c, 3, &cfg, &cost, &mut rng).stats,
            ]
        };
        let names = ["sim", "threads", "stream", "timing"];
        let clean = runners(FaultInjection::NONE);
        let no_flush = runners(FaultInjection::SKIP_FLUSH);
        let neither = runners(FaultInjection { skip_flush: true, skip_reconcile: true });
        for (i, name) in names.into_iter().enumerate() {
            if name != "threads" {
                assert!(clean[i].flushes > 0, "{name}: a clean run flushes");
            }
            assert_eq!(no_flush[i].flushes, 0, "{name}: skip_flush");
            assert!(no_flush[i].reconciles > 0, "{name}: reconciles without the flush");
            assert_eq!(neither[i].reconciles, 0, "{name}: skip_reconcile");
        }
    }
}
