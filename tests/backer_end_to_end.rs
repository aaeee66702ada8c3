//! Integration: Cilk programs → BACKER executions → model verification.
//!
//! The pipeline the paper's research program was built around: fork/join
//! programs unfold into computations, BACKER serves their memory, and the
//! observer functions read off the executions are location consistent —
//! which for race-free programs implies determinate results.

use ccmm::backer::{sim, threads, BackerConfig, FaultInjection, Schedule};
use ccmm::core::{Computation, Lc, MemoryModel, Op};
use ccmm::dag::NodeId;
use rand::SeedableRng;

fn workloads() -> Vec<(&'static str, Computation)> {
    vec![
        ("fib(7)", ccmm::cilk::fib(7).computation),
        ("matmul(2)", ccmm::cilk::matmul(2).computation),
        ("stencil(6,3)", ccmm::cilk::stencil(6, 3).computation),
        ("reduce(9)", ccmm::cilk::reduce(9).computation),
    ]
}

/// Read results (node → observed token) of every read node.
fn read_results(
    c: &Computation,
    phi: &ccmm::core::ObserverFunction,
) -> Vec<(NodeId, Option<NodeId>)> {
    c.nodes()
        .filter_map(|u| match c.op(u) {
            Op::Read(l) => Some((u, phi.get(l, u))),
            _ => None,
        })
        .collect()
}

#[test]
fn all_workloads_simulate_to_lc() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(100);
    for (name, c) in workloads() {
        for p in [1, 2, 4] {
            for _ in 0..8 {
                let s = Schedule::work_stealing(&c, p, &mut rng);
                let r = sim::run(&c, &s, &BackerConfig::with_processors(p).cache_capacity(8));
                assert!(r.observer.is_valid_for(&c), "{name}");
                assert!(Lc.contains(&c, &r.observer), "{name} violated LC");
            }
        }
    }
}

#[test]
fn race_free_programs_are_determinate_under_backer() {
    // Serial execution fixes the intended read results; every schedule
    // must reproduce them (the raison d'être of dag consistency: race-free
    // programs get serial semantics).
    let mut rng = rand::rngs::StdRng::seed_from_u64(101);
    for (name, c) in workloads() {
        let serial = sim::run(&c, &Schedule::serial(&c), &BackerConfig::default());
        let expected = read_results(&c, &serial.observer);
        for _ in 0..10 {
            let s = Schedule::random(&c, 3, &mut rng);
            let r = sim::run(&c, &s, &BackerConfig::with_processors(3).cache_capacity(4));
            assert_eq!(
                read_results(&c, &r.observer),
                expected,
                "{name}: nondeterministic read under BACKER"
            );
        }
    }
}

#[test]
fn threaded_executor_is_determinate_too() {
    for (name, c) in workloads() {
        let serial = sim::run(&c, &Schedule::serial(&c), &BackerConfig::default());
        let expected = read_results(&c, &serial.observer);
        for _ in 0..5 {
            let r = threads::run(&c, &BackerConfig::with_processors(4));
            assert_eq!(read_results(&c, &r.observer), expected, "{name}");
            assert!(Lc.contains(&c, &r.observer), "{name}");
        }
    }
}

#[test]
fn faulty_protocol_breaks_determinacy_detectably() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(102);
    let c = ccmm::cilk::stencil(8, 4).computation;
    let serial = sim::run(&c, &Schedule::serial(&c), &BackerConfig::default());
    let expected = read_results(&c, &serial.observer);
    let broken = BackerConfig::with_processors(4).faults(FaultInjection::SKIP_FLUSH);
    let mut wrong_reads = 0;
    let mut lc_violations = 0;
    for _ in 0..20 {
        let s = Schedule::random(&c, 4, &mut rng);
        let r = sim::run(&c, &s, &broken);
        if read_results(&c, &r.observer) != expected {
            wrong_reads += 1;
        }
        if !Lc.contains(&c, &r.observer) {
            lc_violations += 1;
        }
    }
    assert!(wrong_reads > 0, "fault should corrupt reads");
    assert!(lc_violations > 0, "fault should violate LC");
    assert!(
        lc_violations >= wrong_reads,
        "every corrupted run must also be flagged by the LC checker"
    );
}

#[test]
fn cilk_builder_to_backer_roundtrip() {
    // A hand-written program with a deliberate read-after-sync pattern.
    let c = ccmm::cilk::build_program(|b, s| {
        let l0 = ccmm::core::Location::new(0);
        let l1 = ccmm::core::Location::new(1);
        b.write(s, l0);
        b.spawn(s, |b, t| {
            b.read(t, l0);
            b.write(t, l1);
        });
        b.spawn(s, |b, t| {
            b.read(t, l0);
        });
        b.sync(s);
        b.read(s, l1);
    });
    let r = sim::run(&c, &Schedule::round_robin(&c, 2), &BackerConfig::with_processors(2));
    assert!(Lc.contains(&c, &r.observer));
    // The final read must see the spawned write (race-free chain).
    let final_read = c
        .nodes()
        .last()
        .map(|_| ())
        .and_then(|_| c.nodes().rfind(|&u| matches!(c.op(u), Op::Read(l) if l.index() == 1)));
    let fr = final_read.expect("final read exists");
    let writer = c.writes_to(ccmm::core::Location::new(1))[0];
    assert_eq!(r.observer.get(ccmm::core::Location::new(1), fr), Some(writer));
}
