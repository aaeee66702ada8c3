//! The deterministic discrete-event BACKER simulator.
//!
//! Given a computation and a [`Schedule`], the simulator executes the
//! nodes in order, each on its assigned processor, through the shared
//! protocol step ([`crate::protocol`]): a flush before a node with a
//! cross-processor predecessor, a reconcile after a node with a
//! cross-processor successor (\[BFJ+96a\]).
//!
//! Writes carry unique tokens, so the execution yields a total
//! [`ObserverFunction`]: after each step, every location is *probed*
//! (cache line if resident, else main memory — without perturbing the
//! cache), defining what that node "observes" everywhere, exactly the
//! paper's device of giving memory semantics to all nodes. A reconcile
//! changes neither a resident line's value nor a non-resident cell, so
//! probing after the step sees what the node's own op left behind.
//! Luchangco \[Luc97\] proves BACKER maintains LC; experiment E9
//! verifies every simulated execution against the LC checker.

use crate::cache::{Cache, CacheOps};
use crate::config::BackerConfig;
use crate::memory::{node_of, MainMemory};
use crate::protocol;
use crate::schedule::Schedule;
use crate::stats::Stats;
use ccmm_core::{Computation, ObserverFunction};
use ccmm_dag::NodeId;

/// The result of a simulated execution.
#[derive(Debug)]
pub struct SimResult {
    /// The observer function induced by the execution.
    pub observer: ObserverFunction,
    /// Merged protocol counters across processors.
    pub stats: Stats,
    /// Per-processor counters.
    pub per_proc: Vec<Stats>,
}

/// Runs BACKER on `c` under `schedule` with word-granular caches.
///
/// Panics if the schedule fails validation.
pub fn run(c: &Computation, schedule: &Schedule, config: &BackerConfig) -> SimResult {
    run_with_caches(c, schedule, config, |_| Cache::new(config.cache_capacity.max(1)))
}

/// Runs BACKER with page-granular caches of `page_size` words and
/// capacity counted in pages (see [`crate::paged`]).
pub fn run_paged(
    c: &Computation,
    schedule: &Schedule,
    config: &BackerConfig,
    page_size: usize,
) -> SimResult {
    run_with_caches(c, schedule, config, |nl| {
        crate::paged::PagedCache::new(nl, page_size, config.cache_capacity.max(1))
    })
}

/// The simulator core; `make_cache(num_locations)` builds each
/// processor's cache.
fn run_with_caches<C: CacheOps>(
    c: &Computation,
    schedule: &Schedule,
    config: &BackerConfig,
    make_cache: impl Fn(usize) -> C,
) -> SimResult {
    schedule.validate(c).expect("invalid schedule");
    assert!(
        schedule.processors <= config.processors,
        "schedule uses {} processors, config allows {}",
        schedule.processors,
        config.processors
    );
    let num_locations = c.num_locations();
    let mut mem = MainMemory::new(num_locations);
    let mut caches: Vec<C> = (0..config.processors).map(|_| make_cache(num_locations)).collect();
    let mut per_proc: Vec<Stats> = vec![Stats::default(); config.processors];
    let mut observer = ObserverFunction::bottom(num_locations, c.node_count());

    for &u in &schedule.order {
        let p = schedule.proc[u.index()];
        let elsewhere = |vs: &[NodeId]| vs.iter().any(|&v| schedule.proc[v.index()] != p);
        let flags = (elsewhere(c.dag().predecessors(u)), elsewhere(c.dag().successors(u)));
        let (cache, stats) = (&mut caches[p], &mut per_proc[p]);
        protocol::step(cache, &mut mem, stats, config.faults, u, c.op(u), flags);
        // Non-perturbing probe: what does this node observe everywhere?
        for l in c.locations() {
            observer.set(l, u, node_of(cache.peek(l).unwrap_or_else(|| mem.load(l))));
        }
    }

    let mut stats = Stats::default();
    for s in &per_proc {
        stats.merge(s);
    }
    SimResult { observer, stats, per_proc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FaultInjection;
    use ccmm_core::{Lc, Location, MemoryModel, Op, Sc};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn l(i: usize) -> Location {
        Location::new(i)
    }

    fn chain_wrr() -> Computation {
        Computation::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Read(l(0))],
        )
    }

    #[test]
    fn serial_execution_is_exact() {
        let c = chain_wrr();
        let r = run(&c, &Schedule::serial(&c), &BackerConfig::default());
        assert!(r.observer.is_valid_for(&c));
        assert_eq!(r.observer.get(l(0), n(1)), Some(n(0)));
        assert_eq!(r.observer.get(l(0), n(2)), Some(n(0)));
        // Serial BACKER is sequentially consistent.
        assert!(Sc.contains(&c, &r.observer));
    }

    #[test]
    fn cross_processor_dependency_sees_the_write() {
        // W on p0, read on p1 across the edge: reconcile + flush deliver
        // the token.
        let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Write(l(0)), Op::Read(l(0))]);
        let s = Schedule { order: vec![n(0), n(1)], proc: vec![0, 1], processors: 2 };
        let r = run(&c, &s, &BackerConfig::with_processors(2));
        assert_eq!(r.observer.get(l(0), n(1)), Some(n(0)));
        assert!(r.stats.reconciles >= 1);
        assert!(r.stats.flushes >= 1);
    }

    #[test]
    fn skip_reconcile_loses_the_write() {
        let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Write(l(0)), Op::Read(l(0))]);
        let s = Schedule { order: vec![n(0), n(1)], proc: vec![0, 1], processors: 2 };
        let cfg = BackerConfig::with_processors(2).faults(FaultInjection::SKIP_RECONCILE);
        let r = run(&c, &s, &cfg);
        assert_eq!(r.observer.get(l(0), n(1)), None, "write never reached memory");
    }

    #[test]
    fn skip_flush_reads_stale_cache() {
        // p1 caches the initial value, p0 writes and reconciles, p1 reads
        // again across the dependency edge but (faultily) without
        // flushing: it sees its stale ⊥ — an LC violation.
        let c = Computation::from_edges(
            3,
            &[(0, 2), (1, 2)],
            vec![
                Op::Read(l(0)),  // 0 on p1: caches initial value
                Op::Write(l(0)), // 1 on p0
                Op::Read(l(0)),  // 2 on p1, after both
            ],
        );
        let s = Schedule { order: vec![n(0), n(1), n(2)], proc: vec![1, 0, 1], processors: 2 };
        let good = run(&c, &s, &BackerConfig::with_processors(2));
        assert_eq!(good.observer.get(l(0), n(2)), Some(n(1)));
        assert!(Lc.contains(&c, &good.observer));

        let cfg = BackerConfig::with_processors(2).faults(FaultInjection::SKIP_FLUSH);
        let bad = run(&c, &s, &cfg);
        assert_eq!(bad.observer.get(l(0), n(2)), None, "stale cached ⊥");
        assert!(!Lc.contains(&c, &bad.observer), "fault must violate LC");
    }

    #[test]
    fn observer_is_always_valid() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let dag = ccmm_dag::generate::gnp_dag(12, 0.25, &mut rng);
        let ops: Vec<Op> = (0..12)
            .map(|i| match i % 3 {
                0 => Op::Write(l(i % 2)),
                1 => Op::Read(l((i + 1) % 2)),
                _ => Op::Nop,
            })
            .collect();
        let c = Computation::new(dag, ops).unwrap();
        for _ in 0..20 {
            let s = Schedule::random(&c, 3, &mut rng);
            let r = run(&c, &s, &BackerConfig::with_processors(3).cache_capacity(1));
            assert!(r.observer.is_valid_for(&c), "invalid observer from sim");
        }
    }

    #[test]
    fn random_executions_maintain_lc() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let dag = ccmm_dag::generate::fork_join_tree(3);
        let nn = dag.node_count();
        let ops: Vec<Op> = (0..nn)
            .map(|i| match i % 3 {
                0 => Op::Write(l(0)),
                1 => Op::Read(l(0)),
                _ => Op::Write(l(1)),
            })
            .collect();
        let c = Computation::new(dag, ops).unwrap();
        for p in [1, 2, 4] {
            for _ in 0..25 {
                let s = Schedule::work_stealing(&c, p, &mut rng);
                let r = run(&c, &s, &BackerConfig::with_processors(p));
                assert!(
                    Lc.contains(&c, &r.observer),
                    "BACKER produced a non-LC observer on {p} procs"
                );
            }
        }
    }

    #[test]
    fn tiny_cache_still_correct() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let dag = ccmm_dag::generate::layered_dag(4, 3, 2, &mut rng);
        let nn = dag.node_count();
        let ops: Vec<Op> = (0..nn)
            .map(|i| if i % 2 == 0 { Op::Write(l(i % 4)) } else { Op::Read(l((i + 1) % 4)) })
            .collect();
        let c = Computation::new(dag, ops).unwrap();
        let mut total_evictions = 0;
        for _ in 0..10 {
            let s = Schedule::random(&c, 2, &mut rng);
            let r = run(&c, &s, &BackerConfig::with_processors(2).cache_capacity(1));
            assert!(ccmm_core::Lc.contains(&c, &r.observer));
            total_evictions += r.stats.evictions;
        }
        // Individual runs may flush before ever filling the single line,
        // but across runs capacity pressure must show up.
        assert!(total_evictions > 0, "capacity 1 should evict somewhere");
    }

    #[test]
    fn paged_executions_maintain_lc() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let dag = ccmm_dag::generate::fork_join_tree(3);
        let nn = dag.node_count();
        let ops: Vec<Op> = (0..nn)
            .map(|i| match i % 3 {
                0 => Op::Write(l(i % 6)),
                1 => Op::Read(l((i + 2) % 6)),
                _ => Op::Nop,
            })
            .collect();
        let c = Computation::new(dag, ops).unwrap();
        for page_size in [1usize, 2, 4, 8] {
            for _ in 0..15 {
                let s = Schedule::work_stealing(&c, 3, &mut rng);
                let r = run_paged(
                    &c,
                    &s,
                    &BackerConfig::with_processors(3).cache_capacity(2),
                    page_size,
                );
                assert!(r.observer.is_valid_for(&c), "page_size={page_size}");
                assert!(
                    Lc.contains(&c, &r.observer),
                    "paged BACKER violated LC at page_size={page_size}"
                );
            }
        }
    }

    #[test]
    fn paged_page_size_one_matches_word_cache() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let dag = ccmm_dag::generate::gnp_dag(10, 0.3, &mut rng);
        let ops: Vec<Op> = (0..10)
            .map(|i| if i % 2 == 0 { Op::Write(l(i % 3)) } else { Op::Read(l((i + 1) % 3)) })
            .collect();
        let c = Computation::new(dag, ops).unwrap();
        let s = Schedule::round_robin(&c, 2);
        let cfg = BackerConfig::with_processors(2).cache_capacity(2);
        let word = run(&c, &s, &cfg);
        let paged = run_paged(&c, &s, &cfg, 1);
        assert_eq!(word.observer, paged.observer);
        assert_eq!(word.stats.fetches, paged.stats.fetches);
        assert_eq!(word.stats.hits, paged.stats.hits);
    }

    #[test]
    fn larger_pages_exploit_spatial_locality() {
        // A serial sweep reading consecutive locations: big pages fetch
        // far less.
        let width = 32;
        let ops: Vec<Op> = (0..width).map(|i| Op::Read(l(i))).collect();
        let edges: Vec<(usize, usize)> = (0..width - 1).map(|i| (i, i + 1)).collect();
        let c = Computation::from_edges(width, &edges, ops);
        let s = Schedule::serial(&c);
        let cfg = BackerConfig::with_processors(1).cache_capacity(4);
        let small = run_paged(&c, &s, &cfg, 1);
        let big = run_paged(&c, &s, &cfg, 8);
        assert_eq!(small.stats.fetches, 32);
        assert_eq!(big.stats.fetches, 4, "8-word pages fetch 32/8 times");
    }

    #[test]
    fn stats_accumulate_per_processor() {
        let c = chain_wrr();
        let r = run(&c, &Schedule::serial(&c), &BackerConfig::with_processors(2));
        assert_eq!(r.per_proc.len(), 2);
        assert!(r.per_proc[0].writes == 1);
        assert_eq!(r.per_proc[1], Stats::default(), "idle processor untouched");
    }
}
