//! Differential tests pinning the incremental paths to their batch
//! twins: `Reachability::extend` against full rebuilds (random DAGs and
//! harvested Cilk trace prefixes), greedy `OnlineSession` replay against
//! the exact membership checkers, and the streaming LC/SC verdicts
//! against the batch checkers on completed race-free traces.

use ccmm::backer::{BackerConfig, FaultInjection, StreamRunner};
use ccmm::cilk::{fib_trace, matmul_trace, stencil_trace, RawTrace};
use ccmm::core::last_writer::last_writer_function;
use ccmm::core::online::OnlineSession;
use ccmm::core::{Computation, Lc, MemoryModel, Sc, StreamChecker};
use ccmm::dag::{Dag, NodeId, Reachability};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts the incremental closure equals a fresh rebuild on all pairs.
fn assert_reach_equal(inc: &Reachability, batch: &Reachability, n: usize, ctx: &str) {
    for u in 0..n {
        for v in 0..n {
            assert_eq!(
                inc.reaches(NodeId::new(u), NodeId::new(v)),
                batch.reaches(NodeId::new(u), NodeId::new(v)),
                "{ctx}: reaches({u}, {v}) diverged at n={n}"
            );
        }
    }
}

/// Grows a dag node by node from pred bitmasks, comparing the
/// incrementally extended closure against a rebuild after *every*
/// append.
fn check_incremental_growth(pred_masks: &[u64], ctx: &str) {
    let empty = Dag::from_edges(0, &[]).expect("empty dag");
    let mut inc = Reachability::new(&empty);
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (i, mask) in pred_masks.iter().enumerate() {
        let preds: Vec<NodeId> =
            (0..i).filter(|j| mask & (1 << (j % 64)) != 0).map(NodeId::new).collect();
        let new = inc.extend(&preds);
        assert_eq!(new.index(), i);
        edges.extend(preds.iter().map(|p| (p.index(), i)));
        let dag = Dag::from_edges(i + 1, &edges).expect("forward edges");
        let batch = Reachability::new(&dag);
        assert_reach_equal(&inc, &batch, i + 1, ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reach_extend_matches_rebuild_on_random_dags(
        masks in proptest::collection::vec(any::<u64>(), 0..12)
    ) {
        check_incremental_growth(&masks, "random");
    }

    /// Greedy online play for the constructible, complete models SC and
    /// LC never jams on small computations (Theorem 19's argument), and
    /// the observer it commits is a genuine member of the model — the
    /// streaming verdict equals `contains` on the final pair.
    #[test]
    fn online_replay_verdict_matches_batch_membership(
        seed in any::<u64>(),
        n in 1usize..=5,
        locs in 1usize..=2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = ccmm::conformance::sources::random_computation(&mut rng, n, locs);

        let sc_phi = OnlineSession::new(Sc, c.num_locations())
            .replay(&c)
            .expect("SC is constructible and complete: greedy never jams");
        prop_assert!(Sc.contains(&c, &sc_phi), "replayed SC observer must be an SC member");

        let lc_phi = OnlineSession::new(Lc, c.num_locations())
            .replay(&c)
            .expect("LC is constructible and complete: greedy never jams");
        prop_assert!(Lc.contains(&c, &lc_phi), "replayed LC observer must be an LC member");
    }
}

/// `Reachability::extend` against rebuilds over harvested Cilk trace
/// prefixes — the exact growth pattern `OnlineSession` and `ccmm watch`
/// feed it (spawn fans, sync joins, long series chains).
#[test]
fn reach_extend_matches_rebuild_on_harvested_trace_prefixes() {
    for (trace, name) in [
        (fib_trace(7), "fib:7"),
        (stencil_trace(4, 3), "stencil:4,3"),
        (matmul_trace(2), "matmul:2"),
    ] {
        let n = trace.node_count();
        let empty = Dag::from_edges(0, &[]).expect("empty dag");
        let mut inc = Reachability::new(&empty);
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            let preds = trace.dag.predecessors(NodeId::new(i)).to_vec();
            inc.extend(&preds);
            edges.extend(preds.iter().map(|p| (p.index(), i)));
            // Full-matrix compare every 16 appends (and at the end):
            // every-step compares are cubic in trace length.
            if (i + 1) % 16 == 0 || i + 1 == n {
                let dag = Dag::from_edges(i + 1, &edges).expect("forward edges");
                assert_reach_equal(&inc, &Reachability::new(&dag), i + 1, name);
            }
        }
    }
}

/// The completed pair a streamed run decides: streamed observations over
/// the commit-order last-writer completion.
fn completed_pair(
    trace: &RawTrace,
    obs: &[Option<NodeId>],
) -> (Computation, ccmm::core::ObserverFunction) {
    let c = trace.to_computation();
    let order: Vec<NodeId> = (0..c.node_count()).map(NodeId::new).collect();
    let mut phi = last_writer_function(&c, &order);
    for (u, &o) in obs.iter().enumerate().take(c.node_count()) {
        if let Some(l) = c.op(NodeId::new(u)).location() {
            phi.set(l, NodeId::new(u), o);
        }
    }
    (c, phi)
}

/// Streaming membership verdicts equal the batch checkers on completed
/// race-free traces — the exactness argument of `ccmm_core::stream`,
/// exercised end-to-end through the lean BACKER runner under protocol
/// pressure (small caches, multiple procs) and under injected faults.
#[test]
fn streaming_verdicts_match_batch_on_race_free_traces() {
    let faults = [FaultInjection::NONE, FaultInjection::SKIP_FLUSH, FaultInjection::SKIP_RECONCILE];
    for make in [|| fib_trace(6), || stencil_trace(3, 2), || matmul_trace(2)] {
        for fault in faults {
            let trace = make();
            let cfg = BackerConfig::with_processors(3).cache_capacity(2).faults(fault);
            let mut runner = StreamRunner::new(trace.num_locations, &cfg, 4);
            let mut checker = StreamChecker::new(trace.sp_order(), trace.num_locations);
            let mut obs = Vec::with_capacity(trace.node_count());
            while let Some((u, op, o)) = runner.step(&trace.dag, &trace.ops) {
                checker.commit(u, op, o);
                obs.push(o);
            }
            let v = checker.verdicts();
            let (c, phi) = completed_pair(&trace, &obs);
            assert_eq!(v.valid, phi.is_valid_for(&c), "validity diverged ({fault:?})");
            assert_eq!(v.lc, v.valid && Lc.contains(&c, &phi), "LC diverged ({fault:?})");
            if !fault.any() {
                // Batch SC is the NP checker; prove agreement where the
                // witness search is cheap (member pairs — a faulted
                // non-member would demand the full exponential search).
                assert_eq!(v.sc, Sc.contains(&c, &phi), "SC diverged on the clean run");
            }
        }
    }
}
