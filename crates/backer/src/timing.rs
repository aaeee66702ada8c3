//! A timed, event-driven BACKER execution model.
//!
//! \[BFJ+96a\]'s analysis of BACKER under work stealing bounds the
//! execution time as `T_P = O(T_1/P + σ·T_∞)` — work divided across
//! processors plus a critical-path term inflated by protocol costs. This
//! module makes that shape measurable: a greedy event-driven scheduler
//! executes the computation on `P` processors with a [`CostModel`]
//! charging for instructions, fetches, reconciles, and flushes, and
//! reports the makespan alongside the work (`T_1`) and span (`T_∞`)
//! lower bounds.
//!
//! The scheduler is greedy (no processor idles while a node is ready),
//! so Brent/Graham's bound `T_P ≤ T_1/P + T_∞` holds for the pure-work
//! component; protocol costs push the measured makespan above it by the
//! coherence overhead the experiments quantify.

use crate::cache::Cache;
use crate::config::BackerConfig;
use crate::memory::MainMemory;
use crate::protocol;
use crate::stats::Stats;
use ccmm_core::Computation;
use ccmm_dag::NodeId;
use rand::Rng;

/// Cost coefficients, in abstract time units.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Executing any instruction.
    pub op: u64,
    /// One fetch from main memory.
    pub fetch: u64,
    /// Writing one dirty line back.
    pub reconcile: u64,
    /// Emptying the cache (fixed part; dirty write-backs billed per line).
    pub flush: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        // A fetch is an order of magnitude slower than an instruction,
        // in the spirit of the DSM machines the Cilk papers measured.
        CostModel { op: 1, fetch: 10, reconcile: 10, flush: 2 }
    }
}

/// The result of a timed execution.
#[derive(Clone, Debug)]
pub struct TimedResult {
    /// Total simulated time (makespan).
    pub makespan: u64,
    /// Sum of all node costs as executed (includes protocol charges).
    pub total_cost: u64,
    /// Per-node completion times.
    pub finish: Vec<u64>,
    /// Which processor executed each node.
    pub proc: Vec<usize>,
    /// Protocol counters.
    pub stats: Stats,
}

/// Pure-work `T_1`: every node costs `cost.op` (no protocol on one
/// processor with an unbounded cache and perfect locality).
pub fn work(c: &Computation, cost: &CostModel) -> u64 {
    c.node_count() as u64 * cost.op
}

/// Pure-work `T_∞`: the longest path, each node costing `cost.op`.
pub fn span(c: &Computation, cost: &CostModel) -> u64 {
    let order = ccmm_dag::topo::topo_sort(c.dag());
    let mut depth = vec![0u64; c.node_count()];
    let mut best = 0;
    for u in order {
        let d = depth[u.index()] + cost.op;
        best = best.max(d);
        for &v in c.dag().successors(u) {
            depth[v.index()] = depth[v.index()].max(d);
        }
    }
    best
}

/// Runs a timed, greedy, randomized execution on `p` processors.
///
/// Scheduling: when a processor becomes free it executes a ready node,
/// preferring a successor of the node it just finished (continuation
/// locality) and otherwise stealing a uniformly random ready node. Each
/// node runs through [`crate::protocol::step`]: a flush before a node
/// with a cross-processor predecessor and, as a node's successors are
/// not placed yet, a reconcile after every node.
pub fn run<R: Rng + ?Sized>(
    c: &Computation,
    p: usize,
    config: &BackerConfig,
    cost: &CostModel,
    rng: &mut R,
) -> TimedResult {
    assert!(p > 0);
    let n = c.node_count();
    let mut mem = MainMemory::new(c.num_locations());
    let mut caches: Vec<Cache> = (0..p).map(|_| Cache::new(config.cache_capacity.max(1))).collect();
    let mut stats_per: Vec<Stats> = vec![Stats::default(); p];

    let mut indeg: Vec<usize> = (0..n).map(|u| c.dag().in_degree(NodeId::new(u))).collect();
    let mut ready_time: Vec<u64> = vec![0; n];
    let mut ready: Vec<NodeId> = c.dag().roots();
    let mut finish = vec![0u64; n];
    let mut proc_of = vec![usize::MAX; n];
    let mut proc_free = vec![0u64; p];
    let mut last_on: Vec<Option<NodeId>> = vec![None; p];
    let mut done = 0usize;
    let mut total_cost = 0u64;

    while done < n {
        // Pick the processor that frees up first.
        let me = (0..p).min_by_key(|&q| proc_free[q]).expect("p > 0");
        let now = proc_free[me];
        // Candidates ready by `now`; if none, idle until the earliest one.
        let avail: Vec<usize> = ready
            .iter()
            .enumerate()
            .filter(|(_, u)| ready_time[u.index()] <= now)
            .map(|(i, _)| i)
            .collect();
        let pick = if avail.is_empty() {
            let (i, u) = ready
                .iter()
                .enumerate()
                .min_by_key(|(_, u)| ready_time[u.index()])
                .expect("nodes remain");
            proc_free[me] = ready_time[u.index()];
            i
        } else {
            // Continuation locality, else random steal.
            avail
                .iter()
                .copied()
                .find(|&i| {
                    last_on[me].is_some_and(|prev| c.dag().predecessors(ready[i]).contains(&prev))
                })
                .unwrap_or_else(|| avail[rng.gen_range(0..avail.len())])
        };
        let u = ready.swap_remove(pick);
        let start = proc_free[me].max(ready_time[u.index()]);
        let stats_before = stats_per[me];

        let cross_pred = c.dag().predecessors(u).iter().any(|&q| proc_of[q.index()] != me);
        // Successors are not placed yet, so reconcile after every node.
        let (cache, stats) = (&mut caches[me], &mut stats_per[me]);
        protocol::step(cache, &mut mem, stats, config.faults, u, c.op(u), (cross_pred, true));

        // Bill the node: op + protocol deltas.
        let d = delta(&stats_before, &stats_per[me]);
        let node_cost = cost.op
            + d.fetches * cost.fetch
            + d.reconciles * cost.reconcile
            + d.flushes * cost.flush;
        total_cost += node_cost;
        let end = start + node_cost;
        finish[u.index()] = end;
        proc_of[u.index()] = me;
        proc_free[me] = end;
        last_on[me] = Some(u);
        done += 1;
        for &v in c.dag().successors(u) {
            indeg[v.index()] -= 1;
            ready_time[v.index()] = ready_time[v.index()].max(end);
            if indeg[v.index()] == 0 {
                ready.push(v);
            }
        }
    }

    let mut stats = Stats::default();
    for s in &stats_per {
        stats.merge(s);
    }
    TimedResult {
        makespan: finish.iter().copied().max().unwrap_or(0),
        total_cost,
        finish,
        proc: proc_of,
        stats,
    }
}

fn delta(before: &Stats, after: &Stats) -> Stats {
    Stats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        fetches: after.fetches - before.fetches,
        writes: after.writes - before.writes,
        reconciles: after.reconciles - before.reconciles,
        flushes: after.flushes - before.flushes,
        evictions: after.evictions - before.evictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmm_core::Op;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    fn fib_comp() -> Computation {
        ccmm_cilk_shim::fib_like()
    }

    /// A tiny local stand-in to avoid a dev-dependency cycle with
    /// ccmm-cilk: a fork/join tree with alternating reads and writes.
    mod ccmm_cilk_shim {
        use ccmm_core::{Computation, Location, Op};
        pub fn fib_like() -> Computation {
            let dag = ccmm_dag::generate::fork_join_tree(4);
            let n = dag.node_count();
            let ops: Vec<Op> = (0..n)
                .map(|i| match i % 3 {
                    0 => Op::Write(Location::new(i % 4)),
                    1 => Op::Read(Location::new((i + 1) % 4)),
                    _ => Op::Nop,
                })
                .collect();
            Computation::new(dag, ops).unwrap()
        }
    }

    #[test]
    fn work_and_span_formulas() {
        let c = fib_comp();
        let cost = CostModel { op: 2, ..Default::default() };
        assert_eq!(work(&c, &cost), 2 * c.node_count() as u64);
        // Span of a fork/join tree of depth 4: 2*4 + 1 nodes on the spine.
        assert_eq!(span(&c, &cost), 2 * 9);
    }

    #[test]
    fn single_processor_makespan_equals_total_cost() {
        let c = fib_comp();
        let cost = CostModel::default();
        let r = run(&c, 1, &BackerConfig::with_processors(1), &cost, &mut rng());
        assert_eq!(r.makespan, r.total_cost, "no idling on one processor");
        assert!(r.makespan >= work(&c, &cost));
    }

    #[test]
    fn makespan_respects_span_lower_bound() {
        let c = fib_comp();
        let cost = CostModel::default();
        for p in [1, 2, 4, 8] {
            let r = run(&c, p, &BackerConfig::with_processors(p), &cost, &mut rng());
            assert!(r.makespan >= span(&c, &cost), "p={p}");
            assert!(r.makespan >= work(&c, &cost) / p as u64, "p={p}");
        }
    }

    #[test]
    fn more_processors_do_not_slow_down_pure_work() {
        // With zero protocol costs, greedy scheduling satisfies Brent:
        // T_P ≤ T_1/P + T_∞.
        let c = fib_comp();
        let cost = CostModel { op: 1, fetch: 0, reconcile: 0, flush: 0 };
        for p in [1usize, 2, 4] {
            let r = run(&c, p, &BackerConfig::with_processors(p), &cost, &mut rng());
            let bound = work(&c, &cost) / p as u64 + span(&c, &cost);
            assert!(r.makespan <= bound, "Brent violated at p={p}: {} > {bound}", r.makespan);
        }
    }

    #[test]
    fn finish_times_respect_dependencies() {
        let c = fib_comp();
        let r = run(&c, 4, &BackerConfig::with_processors(4), &CostModel::default(), &mut rng());
        for (u, v) in c.dag().edges() {
            assert!(r.finish[u.index()] <= r.finish[v.index()], "{u} -> {v}");
        }
        assert!(r.proc.iter().all(|&q| q < 4));
    }

    #[test]
    fn speedup_materialises_on_parallel_work() {
        // A wide fork/join tree must run faster on 4 processors than 1
        // (with cheap protocol).
        let dag = ccmm_dag::generate::fork_join_tree(6);
        let n = dag.node_count();
        let c = Computation::new(dag, vec![Op::Nop; n]).unwrap();
        let cost = CostModel { op: 10, fetch: 1, reconcile: 1, flush: 1 };
        let t1 = run(&c, 1, &BackerConfig::with_processors(1), &cost, &mut rng()).makespan;
        let t4 = run(&c, 4, &BackerConfig::with_processors(4), &cost, &mut rng()).makespan;
        assert!((t4 as f64) < 0.5 * t1 as f64, "expected ≥2x speedup: T1={t1} T4={t4}");
    }
}
