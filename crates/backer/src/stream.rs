//! A streaming BACKER runner for million-node traces.
//!
//! [`crate::sim`] probes **every** location after every node (O(n·L)
//! work), which is prohibitive at the 10⁵–10⁷-node scale that `ccmm
//! watch` targets. This runner drives the same protocol step
//! ([`crate::protocol::step`]) over the same occupancy-bounded
//! [`Cache`], and differs only in what it schedules and observes:
//!
//! * it probes the executed node's **own** location only — exactly the
//!   observation the streaming membership checker needs (everything else
//!   is completed by the last-writer function, Def. 13);
//! * it assigns processors by a deterministic block-cyclic schedule over
//!   creation order, so a resumed run re-derives the identical execution
//!   without storing a schedule of n entries.
//!
//! The nodes are executed in creation order, which is a topological order
//! for builder-produced traces (every edge points forward). Faults from
//! [`crate::config::FaultInjection`] apply as in the simulator, so
//! `watch --fault` can stream genuine LC violations.

use crate::cache::Cache;
use crate::config::BackerConfig;
use crate::memory::MainMemory;
use crate::protocol;
use crate::stats::Stats;
use ccmm_core::Op;
use ccmm_dag::{Dag, NodeId};

/// The processor that executes node `index` under a block-cyclic
/// schedule: blocks of `block` consecutive nodes rotate over the
/// processors. Deterministic, so checkpoint/resume re-derives the same
/// execution from `(block, processors)` alone.
#[inline]
pub fn block_cyclic_proc(index: usize, block: usize, processors: usize) -> usize {
    (index / block.max(1)) % processors.max(1)
}

/// A resumable streaming BACKER execution: one [`step`](StreamRunner::step)
/// per node in creation order, so a supervisor can interleave deadline
/// checks, checkpoints, and membership checking between nodes. The whole
/// execution is a pure function of `(config, block)` — replaying steps
/// re-derives the identical observations, which is how `ccmm watch`
/// resumes from a journalled position.
#[derive(Debug)]
pub struct StreamRunner {
    config: BackerConfig,
    block: usize,
    procs: usize,
    mem: MainMemory,
    caches: Vec<Cache>,
    per_proc: Vec<Stats>,
    next: usize,
}

impl StreamRunner {
    /// A runner at position 0 over `num_locations` memory cells.
    pub fn new(num_locations: usize, config: &BackerConfig, block: usize) -> Self {
        let procs = config.processors.max(1);
        StreamRunner {
            config: *config,
            block,
            procs,
            mem: MainMemory::new(num_locations),
            caches: (0..procs).map(|_| Cache::new(config.cache_capacity.max(1))).collect(),
            per_proc: vec![Stats::default(); procs],
            next: 0,
        }
    }

    /// Index of the next node to execute.
    pub fn position(&self) -> usize {
        self.next
    }

    /// Merged protocol counters so far.
    pub fn stats(&self) -> Stats {
        let mut stats = Stats::default();
        for s in &self.per_proc {
            stats.merge(s);
        }
        stats
    }

    /// Executes the next node and returns `(node, op, observed)`, where
    /// `observed` is what the executing processor sees at the node's own
    /// location (the write itself for writes, the token fetched or hit
    /// for reads, `None` for nops). `None` once the trace is exhausted.
    ///
    /// Panics if some edge into the node points backwards (creation
    /// order must be topological) or `ops.len() != dag.node_count()`.
    pub fn step(&mut self, dag: &Dag, ops: &[Op]) -> Option<(NodeId, Op, Option<NodeId>)> {
        assert_eq!(ops.len(), dag.node_count(), "one op per node");
        let i = self.next;
        if i >= ops.len() {
            return None;
        }
        self.next += 1;
        let u = NodeId::new(i);
        let op = ops[i];
        let (block, procs) = (self.block, self.procs);
        let p = block_cyclic_proc(i, block, procs);
        let cross_pred = dag.predecessors(u).iter().any(|&q| {
            assert!(q.index() < i, "edge {q}→{u} points backwards");
            block_cyclic_proc(q.index(), block, procs) != p
        });
        let cross_succ =
            dag.successors(u).iter().any(|&v| block_cyclic_proc(v.index(), block, procs) != p);
        let (cache, stats) = (&mut self.caches[p], &mut self.per_proc[p]);
        let flags = (cross_pred, cross_succ);
        let observed =
            protocol::step(cache, &mut self.mem, stats, self.config.faults, u, op, flags);
        Some((u, op, observed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use crate::sim;
    use ccmm_cilk::{fib_trace, stencil_trace};

    /// The full-row simulator run under the same block-cyclic schedule
    /// must report the same own-location observation for every node, and
    /// the same counters.
    fn assert_stream_matches_sim(trace: &ccmm_cilk::RawTrace, config: &BackerConfig, block: usize) {
        let c = trace.to_computation();
        let n = c.node_count();
        let procs = config.processors.max(1);
        let schedule = Schedule {
            order: (0..n).map(NodeId::new).collect(),
            proc: (0..n).map(|i| block_cyclic_proc(i, block, procs)).collect(),
            processors: procs,
        };
        let dense = sim::run(&c, &schedule, config);
        let mut runner = StreamRunner::new(trace.num_locations, config, block);
        let mut streamed: Vec<Option<NodeId>> = Vec::with_capacity(n);
        while let Some((_, _, obs)) = runner.step(&trace.dag, &trace.ops) {
            streamed.push(obs);
        }
        let stream_stats = runner.stats();
        for (i, &got) in streamed.iter().enumerate() {
            let u = NodeId::new(i);
            let want = c.op(u).location().and_then(|l| dense.observer.get(l, u));
            assert_eq!(got, want, "node {u} (block={block}, p={procs})");
        }
        assert_eq!(stream_stats, dense.stats, "same protocol step, same caches");
    }

    #[test]
    fn block_cyclic_rotates_blocks() {
        let procs: Vec<usize> = (0..8).map(|i| block_cyclic_proc(i, 2, 3)).collect();
        assert_eq!(procs, vec![0, 0, 1, 1, 2, 2, 0, 0]);
        assert_eq!(block_cyclic_proc(5, 0, 2), 1, "block 0 clamps to 1");
    }

    #[test]
    fn stream_matches_dense_sim_on_own_locations() {
        for trace in [fib_trace(7), stencil_trace(4, 3)] {
            for (procs, block) in [(1, 1), (2, 1), (3, 4), (4, 7)] {
                let cfg = BackerConfig::with_processors(procs);
                assert_stream_matches_sim(&trace, &cfg, block);
            }
        }
    }

    #[test]
    fn stream_matches_dense_sim_under_capacity_pressure() {
        let trace = stencil_trace(5, 2);
        for cap in [1, 2, 8] {
            let cfg = BackerConfig::with_processors(3).cache_capacity(cap);
            assert_stream_matches_sim(&trace, &cfg, 2);
        }
    }

    #[test]
    fn stream_matches_dense_sim_with_faults() {
        let trace = fib_trace(6);
        for faults in [
            crate::config::FaultInjection::SKIP_FLUSH,
            crate::config::FaultInjection::SKIP_RECONCILE,
        ] {
            let cfg = BackerConfig::with_processors(2).faults(faults);
            assert_stream_matches_sim(&trace, &cfg, 3);
        }
    }

    /// The runner's per-processor cache is occupancy-bounded: a write
    /// past capacity evicts the LRU line and writes its dirty value back.
    #[test]
    fn lean_cache_lru_evicts_and_reconciles() {
        use crate::cache::CacheOps;
        use ccmm_core::Location;
        let mut mem = MainMemory::new(3);
        let mut cache = Cache::new(2);
        let mut stats = Stats::default();
        cache.write(Location::new(0), 1, &mut mem, &mut stats);
        cache.write(Location::new(1), 2, &mut mem, &mut stats);
        cache.read(Location::new(0), &mut mem, &mut stats); // l1 becomes LRU
        cache.write(Location::new(2), 3, &mut mem, &mut stats); // evicts l1
        assert_eq!(cache.occupancy(), 2);
        assert_eq!(cache.peek(Location::new(1)), None);
        assert_eq!(mem.load(Location::new(1)), 2, "dirty victim written back");
        assert_eq!(stats.evictions, 1);
    }
}
