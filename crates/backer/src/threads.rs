//! A real multithreaded BACKER executor.
//!
//! Where [`crate::sim`] replays a precomputed schedule deterministically,
//! this module runs the computation on actual OS threads with
//! crossbeam work-stealing deques, per-worker caches, and a shared main
//! memory — scheduling nondeterminism and all. Each node runs through the
//! shared [`crate::protocol::step`] as *conservative BACKER*: a worker
//! reconciles its dirty lines after **every** node (a superset of the
//! required reconcile-after-cross-edge writes-backs, since a node's
//! successors may be stolen by anyone), and flushes before executing a
//! node with a predecessor executed elsewhere.
//! More protocol traffic than necessary, the same correctness guarantee:
//! every execution's observer function is location consistent.
//!
//! Synchronization structure: a node becomes ready when its last
//! predecessor completes (atomic in-degree counters); the completing
//! worker pushes it to its local deque, idle workers steal. The main
//! memory lock is the transport for both tokens and happens-before: a
//! reconcile (release of the lock) precedes the dependent fetch (acquire).

use crate::cache::{Cache, CacheOps};
use crate::config::BackerConfig;
use crate::memory::{node_of, MainMemory};
use crate::perturb::{self, PerturbPlan};
use crate::protocol;
use crate::stats::Stats;
use ccmm_core::telemetry::{self, Counter};
use ccmm_core::{Computation, ObserverFunction};
use ccmm_dag::NodeId;
use crossbeam::deque::{Injector, Stealer, Worker};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The result of a threaded execution.
#[derive(Debug)]
pub struct ThreadedResult {
    /// The observer function induced by the execution.
    pub observer: ObserverFunction,
    /// Merged protocol counters.
    pub stats: Stats,
    /// Which worker executed each node.
    pub executed_on: Vec<usize>,
}

/// One node's observation row, produced by its executing worker.
type Row = (NodeId, usize, Vec<Option<NodeId>>);

fn find_task(
    local: &Worker<NodeId>,
    injector: &Injector<NodeId>,
    stealers: &[Stealer<NodeId>],
    me: usize,
    attempts: &mut u64,
    plan: &PerturbPlan,
) -> Option<NodeId> {
    if let Some(u) = local.pop() {
        return Some(u);
    }
    loop {
        *attempts += 1;
        telemetry::count(Counter::StealAttempts, 1);
        // The perturb plan rotates which victim this worker probes
        // first, so work migrates across workers instead of settling
        // into the fixed index order (the empty plan's start is 0 —
        // exactly the old behaviour).
        let start = plan.steal_start(me, *attempts, stealers.len());
        let s = injector.steal_batch_and_pop(local).or_else(|| {
            (0..stealers.len()).map(|k| stealers[(start + k) % stealers.len()].steal()).collect()
        });
        if !s.is_retry() {
            return s.success();
        }
    }
}

/// Executes `c` on `config.processors` worker threads with word-granular
/// caches.
pub fn run(c: &Computation, config: &BackerConfig) -> ThreadedResult {
    run_perturbed(c, config, &PerturbPlan::none())
}

/// Executes `c` with word-granular caches under a schedule-perturbation
/// plan (see [`crate::perturb`]): seeded yields/delays before and after
/// each node, seeded steal-victim rotation. The protocol (and therefore
/// the LC guarantee) is untouched — only the schedule is jostled.
pub fn run_perturbed(c: &Computation, config: &BackerConfig, plan: &PerturbPlan) -> ThreadedResult {
    run_with_caches(c, config, plan, |_| Cache::new(config.cache_capacity.max(1)))
}

/// The threaded executor core; `make_cache(num_locations)` runs once per
/// worker.
fn run_with_caches<C, F>(
    c: &Computation,
    config: &BackerConfig,
    plan: &PerturbPlan,
    make_cache: F,
) -> ThreadedResult
where
    C: CacheOps,
    F: Fn(usize) -> C + Sync,
{
    let n = c.node_count();
    let num_locations = c.num_locations();
    if n == 0 {
        return ThreadedResult {
            observer: ObserverFunction::empty(),
            stats: Stats::default(),
            executed_on: Vec::new(),
        };
    }
    let workers = config.processors.max(1);
    let mem = Mutex::new(MainMemory::new(num_locations));
    let indeg: Vec<AtomicUsize> =
        (0..n).map(|u| AtomicUsize::new(c.dag().in_degree(NodeId::new(u)))).collect();
    let proc_of: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let completed = AtomicUsize::new(0);

    let injector = Injector::new();
    for r in c.dag().roots() {
        injector.push(r);
    }
    let locals: Vec<Worker<NodeId>> = (0..workers).map(|_| Worker::new_lifo()).collect();
    let stealers: Vec<Stealer<NodeId>> = locals.iter().map(Worker::stealer).collect();

    let all_rows: Mutex<Vec<Row>> = Mutex::new(Vec::with_capacity(n));
    let total_stats: Mutex<Stats> = Mutex::new(Stats::default());

    std::thread::scope(|scope| {
        for (me, local) in locals.into_iter().enumerate() {
            let mem = &mem;
            let indeg = &indeg;
            let proc_of = &proc_of;
            let completed = &completed;
            let injector = &injector;
            let stealers = &stealers;
            let all_rows = &all_rows;
            let total_stats = &total_stats;
            let make_cache = &make_cache;
            scope.spawn(move || {
                let mut cache = make_cache(num_locations);
                let mut stats = Stats::default();
                let mut rows: Vec<Row> = Vec::new();
                let mut attempts = 0u64;
                loop {
                    let Some(u) = find_task(&local, injector, stealers, me, &mut attempts, plan)
                    else {
                        // Ordering audit: Acquire pairs with the Release
                        // fetch_add below. Seeing `completed == n` must
                        // also make every worker's appended rows/stats
                        // visible... except it doesn't need to: rows are
                        // published under the `all_rows` mutex after the
                        // loop, whose lock provides that edge. The Acquire
                        // here is only needed so that a worker which
                        // observes the final count cannot still find a
                        // task (task pushes happen-before the counter
                        // increment of the node that made them ready).
                        if completed.load(Ordering::Acquire) == n {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    };
                    perturb::jostle(plan, perturb::PHASE_PRE_EXEC, u.index());
                    // Ordering audit: Release so that everything this
                    // worker did *before claiming u* — in particular the
                    // reconcile of any prior node's dirty lines — is
                    // visible to a successor's executor that reads
                    // `proc_of[u] == me` via the Acquire load below.
                    // Correctness does not actually lean on that edge
                    // (the main-memory mutex is the token transport);
                    // what the protocol needs is weaker and subtle, see
                    // the `interleaving` test module: a stale read of
                    // `proc_of[q]` can only yield `usize::MAX` or a
                    // previous (foreign) claimant, both of which flip
                    // `cross_pred` to true — a conservative extra flush,
                    // never a missed one. The one read that must be
                    // fresh — the executor of `u`'s *last* predecessor
                    // seeing its own id — is me-reads-me, always exact.
                    proc_of[u.index()].store(me, Ordering::Release);
                    // Ordering audit: Acquire pairs with the Release
                    // store above. For predecessors handed to us through
                    // the deque (local push or steal), crossbeam's
                    // deque operations provide the happens-before, so
                    // the load returns the true executor. For reads that
                    // race ahead of that edge the stale value is
                    // `usize::MAX != me` — conservative, as argued above.
                    let cross_pred = c
                        .dag()
                        .predecessors(u)
                        .iter()
                        .any(|&q| proc_of[q.index()].load(Ordering::Acquire) != me);
                    {
                        let mut m = mem.lock();
                        // Conservative BACKER: reconcile eagerly after
                        // every node, before successors can start.
                        let (op, flags) = (c.op(u), (cross_pred, true));
                        protocol::step(&mut cache, &mut m, &mut stats, config.faults, u, op, flags);
                        // Probe the node's full view while holding the lock
                        // so the row is a consistent snapshot.
                        let row: Vec<Option<NodeId>> = c
                            .locations()
                            .map(|l| node_of(cache.peek(l).unwrap_or_else(|| m.load(l))))
                            .collect();
                        rows.push((u, me, row));
                    }
                    perturb::jostle(plan, perturb::PHASE_PRE_NOTIFY, u.index());
                    for &v in c.dag().successors(u) {
                        // Ordering audit: AcqRel is load-bearing. Release:
                        // our `proc_of[u] = me` store and reconcile (via
                        // the mutex unlock above) happen-before the
                        // decrement. Acquire + the RMW release sequence:
                        // the worker whose decrement hits zero
                        // synchronizes with *every* earlier decrementer,
                        // so when it (or a stealer of its push) later
                        // executes `v`, all predecessors' effects are
                        // ordered before it. Weakening this to Relaxed
                        // would let `v` execute before a predecessor's
                        // `proc_of` store is visible — still conservative
                        // for the flush decision, but the pairing with
                        // `completed` below would break: a task push
                        // could be reordered after the final count.
                        if indeg[v.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                            local.push(v);
                        }
                    }
                    // Ordering audit: Release pairs with the idle-loop
                    // Acquire load. The push of any node we made ready is
                    // ordered before this increment, so a worker that
                    // reads the final count and exits cannot strand a
                    // ready-but-unpushed task.
                    completed.fetch_add(1, Ordering::Release);
                }
                all_rows.lock().append(&mut rows);
                total_stats.lock().merge(&stats);
            });
        }
    });

    let mut observer = ObserverFunction::bottom(num_locations, n);
    let mut executed_on = vec![usize::MAX; n];
    for (u, who, row) in all_rows.into_inner() {
        executed_on[u.index()] = who;
        for (li, v) in row.into_iter().enumerate() {
            observer.set(ccmm_core::Location::new(li), u, v);
        }
    }
    ThreadedResult { observer, stats: total_stats.into_inner(), executed_on }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmm_core::{Lc, Location, MemoryModel, Op};

    fn l(i: usize) -> Location {
        Location::new(i)
    }

    fn fork_join_computation(depth: usize) -> Computation {
        let dag = ccmm_dag::generate::fork_join_tree(depth);
        let n = dag.node_count();
        let ops: Vec<Op> = (0..n)
            .map(|i| match i % 4 {
                0 => Op::Write(l(0)),
                1 => Op::Read(l(0)),
                2 => Op::Write(l(1)),
                _ => Op::Read(l(1)),
            })
            .collect();
        Computation::new(dag, ops).unwrap()
    }

    #[test]
    fn empty_computation_runs() {
        let c = Computation::empty();
        let r = run(&c, &BackerConfig::with_processors(4));
        assert_eq!(r.observer, ObserverFunction::empty());
    }

    #[test]
    fn single_thread_matches_serial_semantics() {
        let c = Computation::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Read(l(0))],
        );
        let r = run(&c, &BackerConfig::with_processors(1));
        assert!(r.observer.is_valid_for(&c));
        assert_eq!(r.observer.get(l(0), ccmm_dag::NodeId::new(2)), Some(ccmm_dag::NodeId::new(0)));
    }

    #[test]
    fn all_nodes_execute_exactly_once() {
        let c = fork_join_computation(4);
        let r = run(&c, &BackerConfig::with_processors(4));
        assert!(r.executed_on.iter().all(|&w| w != usize::MAX));
        assert!(r.executed_on.iter().all(|&w| w < 4));
    }

    #[test]
    fn threaded_executions_maintain_lc() {
        let c = fork_join_computation(4);
        for procs in [1, 2, 4, 8] {
            for _ in 0..10 {
                let r = run(&c, &BackerConfig::with_processors(procs));
                assert!(r.observer.is_valid_for(&c), "invalid observer");
                assert!(
                    Lc.contains(&c, &r.observer),
                    "threaded BACKER violated LC on {procs} threads"
                );
            }
        }
    }

    #[test]
    fn tiny_caches_still_maintain_lc() {
        let c = fork_join_computation(3);
        for _ in 0..10 {
            let r = run(&c, &BackerConfig::with_processors(4).cache_capacity(1));
            assert!(Lc.contains(&c, &r.observer));
        }
    }

    #[test]
    fn dependency_edges_deliver_tokens() {
        // A chain must behave exactly like serial memory regardless of
        // which workers execute it.
        let k = 12;
        let dag = ccmm_dag::generate::chain(k);
        let ops: Vec<Op> =
            (0..k).map(|i| if i % 2 == 0 { Op::Write(l(0)) } else { Op::Read(l(0)) }).collect();
        let c = Computation::new(dag, ops).unwrap();
        for _ in 0..5 {
            let r = run(&c, &BackerConfig::with_processors(3));
            for i in (1..k).step_by(2) {
                assert_eq!(
                    r.observer.get(l(0), ccmm_dag::NodeId::new(i)),
                    Some(ccmm_dag::NodeId::new(i - 1)),
                    "read {i} must see preceding write"
                );
            }
        }
    }
}

#[cfg(test)]
mod interleaving {
    //! Handwritten interleaving enumeration pinning the readiness
    //! protocol. The ordering audit found no bug, so per the issue the
    //! protocol's safety argument is pinned here against regression.
    //!
    //! Model: a join node `v` with `W` predecessors, each executed by a
    //! distinct worker. Each worker performs, in program order:
    //!
    //! 1. `proc_of[p_w].store(w, Release)`
    //! 2. `indeg[v].fetch_sub(1, AcqRel)`
    //!
    //! The worker whose decrement returns 1 executes `v` (local push +
    //! LIFO pop; a steal only *adds* a happens-before edge via the deque,
    //! so the pop case is the weakest and covers both) and loads every
    //! `proc_of[p_q]` with Acquire to decide `cross_pred`.
    //!
    //! The enumerator walks every decrement order and, per load, every
    //! coherence-allowed value: a load may return a stale value only if
    //! the newer store does not happen-before it. Vector clocks track
    //! happens-before; AcqRel RMWs form a release sequence, so the final
    //! decrementer inherits every earlier decrementer's clock.
    //!
    //! Pinned properties:
    //!
    //! * Real orderings: every `proc_of` read is exact — the executor of
    //!   `v` sees the true worker id of every predecessor, in every
    //!   interleaving.
    //! * Mutated orderings (`fetch_sub` weakened to Relaxed): stale
    //!   `usize::MAX` reads become allowed (and the test asserts the
    //!   enumerator really explores them), but `cross_pred` only ever
    //!   flips toward *more* flushing. A stale read can never equal
    //!   `me`, because worker `me` is the only thread that ever writes
    //!   the value `me`: a missed flush is impossible in every
    //!   interleaving; the failure mode of the weakened protocol is
    //!   extra conservative flushes (and a broken termination counter,
    //!   which is outside this model — see the audit comment on
    //!   `completed`).

    const W: usize = 3;

    /// A vector clock over the `W` workers; entry `i` counts worker
    /// `i`'s events (1 = its store, 2 = its decrement).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Clock([u64; W]);

    impl Clock {
        fn zero() -> Self {
            Clock([0; W])
        }
        fn join(&mut self, o: Clock) {
            for i in 0..W {
                self.0[i] = self.0[i].max(o.0[i]);
            }
        }
        /// True iff an event at `self` happens-after an event at `o`.
        fn dominates(&self, o: Clock) -> bool {
            (0..W).all(|i| self.0[i] >= o.0[i])
        }
    }

    fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
        if items.is_empty() {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for (i, &x) in items.iter().enumerate() {
            let mut rest = items.to_vec();
            rest.remove(i);
            for mut p in permutations(&rest) {
                p.insert(0, x);
                out.push(p);
            }
        }
        out
    }

    /// Enumerates every decrement order and every coherence-allowed
    /// combination of `proc_of` reads. `rmw_acqrel` selects the real
    /// protocol; `false` models the Relaxed-decrement mutation.
    /// Returns `(saw_stale_read, cross_pred outcomes)`.
    fn enumerate(rmw_acqrel: bool) -> (bool, Vec<bool>) {
        let mut saw_stale = false;
        let mut outcomes = Vec::new();
        for order in permutations(&(0..W).collect::<Vec<_>>()) {
            // Worker w's store is its event #1; Release means the clock
            // travels with the value (we only use it for coherence).
            let mut store_clock = [Clock::zero(); W];
            for (w, sc) in store_clock.iter_mut().enumerate() {
                sc.0[w] = 1;
            }
            // The decrements happen in `order`. `chain` is the release
            // sequence: each AcqRel RMW joins it (acquire side) and
            // extends it (release side).
            let mut chain = Clock::zero();
            let mut exec_clock = Clock::zero();
            for (step, &w) in order.iter().enumerate() {
                let mut wc = store_clock[w]; // program order: store first
                wc.0[w] = 2;
                if rmw_acqrel {
                    wc.join(chain);
                    chain.join(wc);
                }
                if step == W - 1 {
                    exec_clock = wc; // final decrementer executes v
                }
            }
            let me = *order.last().unwrap();

            // Per-predecessor read choices under coherence: the store
            // happens-before the load ⇒ the stale init (usize::MAX) is
            // forbidden; otherwise both values are allowed.
            let mut combos: Vec<Vec<usize>> = vec![Vec::new()];
            for (q, sc) in store_clock.iter().enumerate() {
                let choices: Vec<usize> = if exec_clock.dominates(*sc) {
                    vec![q]
                } else {
                    saw_stale = true;
                    vec![q, usize::MAX]
                };
                let mut next = Vec::new();
                for c in &combos {
                    for &v in &choices {
                        let mut c2 = c.clone();
                        c2.push(v);
                        next.push(c2);
                    }
                }
                combos = next;
            }
            for combo in combos {
                for (q, &r) in combo.iter().enumerate() {
                    // The unforgeability invariant: reading `me` is only
                    // possible for me's own store.
                    assert!(r != me || q == me, "a stale read must never impersonate `me`");
                }
                outcomes.push(combo.iter().any(|&r| r != me));
            }
        }
        (saw_stale, outcomes)
    }

    #[test]
    fn acqrel_chain_makes_every_proc_of_read_exact() {
        let (saw_stale, outcomes) = enumerate(true);
        assert!(!saw_stale, "with AcqRel decrements no stale read is coherence-allowed");
        // All predecessors sit on distinct foreign workers here, so
        // every interleaving must conclude cross_pred.
        assert!(!outcomes.is_empty());
        assert!(outcomes.into_iter().all(|c| c));
    }

    #[test]
    fn relaxed_decrement_mutation_is_explored_and_stays_conservative() {
        let (saw_stale, outcomes) = enumerate(false);
        assert!(saw_stale, "the enumerator must actually reach stale reads");
        assert!(
            outcomes.into_iter().all(|c| c),
            "a stale read is usize::MAX, never `me`: cross_pred may only flip \
             toward more flushing — a missed flush is impossible"
        );
    }
}

#[cfg(test)]
mod perturbed_tests {
    use super::*;
    use ccmm_core::{Lc, Location, MemoryModel, Op};

    #[test]
    fn perturbed_executions_maintain_lc() {
        let dag = ccmm_dag::generate::fork_join_tree(4);
        let n = dag.node_count();
        let ops: Vec<Op> = (0..n)
            .map(|i| match i % 4 {
                0 => Op::Write(Location::new(0)),
                1 => Op::Read(Location::new(0)),
                2 => Op::Write(Location::new(1)),
                _ => Op::Read(Location::new(1)),
            })
            .collect();
        let c = Computation::new(dag, ops).unwrap();
        for seed in 0..8u64 {
            let plan = PerturbPlan::aggressive(seed);
            let r = run_perturbed(&c, &BackerConfig::with_processors(4), &plan);
            assert!(r.observer.is_valid_for(&c));
            assert!(Lc.contains(&c, &r.observer), "perturbed run left LC (seed {seed})");
        }
    }

    #[test]
    fn empty_plan_is_identity_on_single_thread() {
        // With 1 worker and no perturbation the executor is
        // deterministic; run/run_perturbed(none) must agree exactly.
        let dag = ccmm_dag::generate::chain(9);
        let ops: Vec<Op> =
            (0..9)
                .map(|i| {
                    if i % 2 == 0 {
                        Op::Write(Location::new(0))
                    } else {
                        Op::Read(Location::new(0))
                    }
                })
                .collect();
        let c = Computation::new(dag, ops).unwrap();
        let cfg = BackerConfig::with_processors(1);
        let a = run(&c, &cfg);
        let b = run_perturbed(&c, &cfg, &PerturbPlan::none());
        assert_eq!(a.observer, b.observer);
        assert_eq!(a.executed_on, b.executed_on);
    }
}

#[cfg(test)]
mod paged_tests {
    use super::*;
    use ccmm_core::{Lc, Location, MemoryModel, Op};

    #[test]
    fn paged_threads_maintain_lc() {
        let dag = ccmm_dag::generate::fork_join_tree(3);
        let n = dag.node_count();
        let ops: Vec<Op> = (0..n)
            .map(|i| match i % 3 {
                0 => Op::Write(Location::new(i % 6)),
                1 => Op::Read(Location::new((i + 2) % 6)),
                _ => Op::Nop,
            })
            .collect();
        let c = Computation::new(dag, ops).unwrap();
        for page in [1usize, 4] {
            for _ in 0..5 {
                let cfg = BackerConfig::with_processors(4).cache_capacity(2);
                let r = run_with_caches(&c, &cfg, &PerturbPlan::none(), |nl| {
                    crate::paged::PagedCache::new(nl, page, 2)
                });
                assert!(r.observer.is_valid_for(&c));
                assert!(Lc.contains(&c, &r.observer), "page={page}");
            }
        }
    }
}
