//! Post-mortem analysis, the paper's §1 use case: after a system has
//! finished executing, check from the observed values alone whether its
//! behaviour fits a memory model — plus determinacy-race detection on the
//! program's computation.
//!
//! Run with: `cargo run --example postmortem`

use ccmm::backer::{sim, BackerConfig, FaultInjection, Schedule};
use ccmm::cilk::race;
use ccmm::core::trace::{explain_lc, explain_sc, ValueTrace};
use ccmm::core::Op;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // A race-free fork/join program.
    let program = ccmm::cilk::stencil(6, 3);
    let c = &program.computation;
    println!("stencil(6,3): {} nodes, race-free: {}", c.node_count(), race::is_race_free(c));

    // Execute under BACKER, then FORGET the observer function — keep only
    // the values the reads returned (what a real post-mortem log has).
    let s = Schedule::work_stealing(c, 4, &mut rng);
    let r = sim::run(c, &s, &BackerConfig::with_processors(4).cache_capacity(8));
    let reads: Vec<_> = c
        .nodes()
        .filter_map(|u| match c.op(u) {
            Op::Read(l) => Some((u, r.observer.get(l, u).map_or(0, |w| w.index() as u64 + 1))),
            _ => None,
        })
        .collect();
    println!("recorded {} read values from one 4-processor run", reads.len());

    let trace = ValueTrace::with_tokens(c, reads);
    let lc_ok = explain_lc(c, &trace).is_some();
    let sc_ok = explain_sc(c, &trace).is_some();
    println!("trace explainable under LC: {lc_ok}");
    println!("trace explainable under SC: {sc_ok} (race-free ⇒ serial semantics)");
    assert!(lc_ok && sc_ok);

    // Now a faulty memory: skip the flush leg of the protocol.
    let broken = BackerConfig::with_processors(4).faults(FaultInjection::SKIP_FLUSH);
    let mut caught = 0;
    let runs = 20;
    for _ in 0..runs {
        let s = Schedule::random(c, 4, &mut rng);
        let r = sim::run(c, &s, &broken);
        let reads: Vec<_> = c
            .nodes()
            .filter_map(|u| match c.op(u) {
                Op::Read(l) => Some((u, r.observer.get(l, u).map_or(0, |w| w.index() as u64 + 1))),
                _ => None,
            })
            .collect();
        let trace = ValueTrace::with_tokens(c, reads);
        if explain_lc(c, &trace).is_none() {
            caught += 1;
        }
    }
    println!("\nfaulty memory (skip flush), {runs} runs:");
    println!("post-mortem checker rejected {caught}/{runs} value traces");
    assert!(caught > 0);

    // And a racy program: the detector names the conflicting accesses.
    let racy = ccmm::cilk::build_program(|b, s| {
        let l0 = ccmm::core::Location::new(0);
        b.spawn(s, |b, t| {
            b.write(t, l0);
        });
        b.spawn(s, |b, t| {
            b.write(t, l0);
        });
        b.sync(s);
        b.read(s, l0);
    });
    let races = race::find_races(&racy);
    println!("\nracy two-writer program: {} race(s) found:", races.len());
    for r in &races {
        println!(
            "  {} vs {} on {} ({})",
            r.a,
            r.b,
            r.location,
            if r.write_write { "write-write" } else { "read-write" }
        );
    }
    assert!(!races.is_empty());
}
