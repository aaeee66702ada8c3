//! Run the BACKER coherence algorithm on a Cilk fib computation and
//! verify every execution against the model hierarchy.
//!
//! Run with: `cargo run --example backer_sim`

use ccmm::backer::{sim, threads, BackerConfig, FaultInjection, Schedule, VerifyReport};
use ccmm::cilk::fib;
use rand::SeedableRng;

fn main() {
    let program = fib(8);
    let c = &program.computation;
    println!(
        "fib(8): {} nodes, {} edges, {} locations",
        c.node_count(),
        c.dag().edge_count(),
        c.num_locations()
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);

    // 1. Deterministic simulator over random work-stealing schedules.
    let mut report = VerifyReport::default();
    let config = BackerConfig::with_processors(4).cache_capacity(16);
    for _ in 0..50 {
        let s = Schedule::work_stealing(c, 4, &mut rng);
        let r = sim::run(c, &s, &config);
        report.record(ccmm::backer::verify(c, &r.observer));
    }
    println!("\nsimulator, 50 random 4-processor schedules, 16-line caches:");
    println!(
        "  valid: {}/{}  SC: {}  LC: {}  NN: {}  WW: {}",
        report.valid, report.runs, report.sc, report.lc, report.nn, report.ww
    );
    assert!(report.all_lc(), "BACKER must maintain LC [Luc97]");

    // 2. Real threads.
    let mut treport = VerifyReport::default();
    for _ in 0..20 {
        let r = threads::run(c, &BackerConfig::with_processors(4));
        treport.record(ccmm::backer::verify(c, &r.observer));
    }
    println!("\nthreaded executor, 20 runs on 4 workers:");
    println!(
        "  valid: {}/{}  SC: {}  LC: {}  NN: {}  WW: {}",
        treport.valid, treport.runs, treport.sc, treport.lc, treport.nn, treport.ww
    );
    assert!(treport.all_lc());

    // 3. Fault injection. fib never re-reads a location, so skipping the
    // flush cannot surface staleness there; the stencil re-reads every
    // cell each ping-pong round and breaks immediately.
    let program = ccmm::cilk::stencil(6, 4);
    let c = &program.computation;
    let broken = BackerConfig::with_processors(4).faults(FaultInjection::SKIP_FLUSH);
    let mut violations = 0;
    let runs = 50;
    for _ in 0..runs {
        let s = Schedule::random(c, 4, &mut rng);
        let r = sim::run(c, &s, &broken);
        if !ccmm::backer::verify(c, &r.observer).lc {
            violations += 1;
        }
    }
    println!("\nfault injection (skip flush) on stencil(6, 4), {runs} random runs:");
    println!("  LC violations caught: {violations}/{runs}");
    assert!(violations > 0, "skip-flush must break LC on a re-reading workload");

    println!("\nThese programs are race-free, so dag-consistent memory gives");
    println!("them serial semantics; the faulty protocol breaks exactly that");
    println!("promise, and the post-mortem checker sees it.");
}
