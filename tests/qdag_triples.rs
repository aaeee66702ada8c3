//! The Q-dag checker's first violation triple on harvested BACKER pairs.
//!
//! `QDag<Q>::find_violation` decides Definition 20 with word masks over
//! the reachability bitsets; `DynQ` walks every triple `u ≺ v ≺ w` in
//! the same order with the predicate as a closure. Both must report the
//! same first triple, so every verdict and every certificate agree.
//! BACKER observers are location consistent, hence in every Q-dag model;
//! each is also re-pointed at a few seeded cells to make violations.

use ccmm::core::model::dagcons::{NnPred, NwPred, QPredicate, WnPred, WwPred};
use ccmm::core::model::{DynQ, MemoryModel, QDag};
use ccmm::core::{Computation, ObserverFunction, Op};
use ccmm::dag::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Asserts `QDag<Q>` and the matching closure agree on the first triple
/// and on membership; true if a triple fires.
fn assert_agrees<Q: QPredicate + 'static>(c: &Computation, phi: &ObserverFunction) -> bool {
    let got = QDag::<Q>::find_violation(c, phi);
    let closure = DynQ::new(Q::NAME, Q::holds);
    assert_eq!(got, closure.find_violation(c, phi), "{} on {} nodes", Q::NAME, c.node_count());
    assert_eq!(QDag::<Q>::new().contains(c, phi), closure.contains(c, phi));
    got.is_some()
}

fn violations(c: &Computation, phi: &ObserverFunction) -> usize {
    [
        assert_agrees::<NnPred>(c, phi),
        assert_agrees::<NwPred>(c, phi),
        assert_agrees::<WnPred>(c, phi),
        assert_agrees::<WwPred>(c, phi),
    ]
    .into_iter()
    .filter(|&fired| fired)
    .count()
}

/// `phi` with up to three read cells re-pointed at another write they do
/// not precede, or at ⊥: still a valid observer.
fn perturbed(c: &Computation, phi: &ObserverFunction, rng: &mut StdRng) -> ObserverFunction {
    let reads: Vec<NodeId> = c.nodes().filter(|&v| matches!(c.op(v), Op::Read(_))).collect();
    let mut out = phi.clone();
    for _ in 0..rng.gen_range(1..=3) {
        let v = reads[rng.gen_range(0..reads.len())];
        let Op::Read(l) = c.op(v) else { unreachable!() };
        let options: Vec<Option<NodeId>> = std::iter::once(None)
            .chain(c.writes_to(l).iter().filter(|&&x| !c.precedes(v, x)).map(|&x| Some(x)))
            .collect();
        out.set(l, v, options[rng.gen_range(0..options.len())]);
    }
    assert!(out.is_valid_for(c));
    out
}

/// Every observer harvested from `runs` BACKER runs of `c` on 2–4
/// processors with 1–3-line caches, and a perturbed copy of each;
/// returns (pairs, violations).
fn check_program(c: &Computation, runs: usize, seed: u64) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut pairs, mut fired) = (0, 0);
    for procs in 2..=4 {
        for lines in 1..=3 {
            for phi in ccmm::backer::harvest::harvest_observers(c, runs, procs, lines, seed) {
                assert_eq!(violations(c, &phi), 0, "a BACKER observer is location consistent");
                fired += violations(c, &perturbed(c, &phi, &mut rng));
                pairs += 2;
            }
        }
    }
    (pairs, fired)
}

#[test]
fn first_triple_matches_the_closure_on_literal_backer_pairs() {
    // The serve benchmark's literal-key programs: 11–26 nodes.
    let programs = [
        ccmm::cilk::fib(3).computation,
        ccmm::cilk::stencil(2, 2).computation,
        ccmm::cilk::reduce(3).computation,
        ccmm::cilk::fib(4).computation,
        ccmm::cilk::mergesort(3).computation,
        ccmm::cilk::stencil(3, 2).computation,
    ];
    let (mut pairs, mut fired) = (0, 0);
    for (i, c) in programs.iter().enumerate() {
        let (p, f) = check_program(c, 8, i as u64);
        pairs += p;
        fired += f;
    }
    assert!(pairs >= 200, "only {pairs} pairs");
    assert!(fired >= 100, "only {fired} violations exercised");
}

#[test]
fn first_triple_matches_the_closure_past_64_nodes() {
    let c = ccmm::cilk::fib(7).computation;
    assert!(c.node_count() > 64, "fib(7) has only {} nodes", c.node_count());
    let (pairs, fired) = check_program(&c, 1, 7);
    assert!(pairs >= 12, "only {pairs} pairs");
    assert!(fired >= 10, "only {fired} violations exercised");
}
