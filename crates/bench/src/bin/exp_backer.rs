//! E9 — BACKER maintains location consistency (\[Luc97\], the paper's §6–7
//! motivation), and broken protocols detectably do not.
//!
//! Randomized executions of the deterministic simulator and the threaded
//! executor over the Cilk workloads, each verified post-mortem against
//! SC / LC / NN / WW. Fault-injected variants must produce LC violations.
//!
//! Run: `cargo run --release -p ccmm-bench --bin exp_backer`

use ccmm_backer::{sim, threads, BackerConfig, FaultInjection, Schedule, VerifyReport};
use ccmm_bench::Table;
use ccmm_core::Computation;
use rand::SeedableRng;

fn workloads() -> Vec<(&'static str, Computation)> {
    vec![
        ("fib(8)", ccmm_cilk::fib(8).computation),
        ("matmul(4)", ccmm_cilk::matmul(4).computation),
        ("stencil(8,4)", ccmm_cilk::stencil(8, 4).computation),
        ("reduce(16)", ccmm_cilk::reduce(16).computation),
        ("mergesort(16)", ccmm_cilk::mergesort(16).computation),
    ]
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1998);
    let runs = 40;

    println!("== simulator: {runs} random work-stealing schedules per workload, 4 procs ==\n");
    let mut t = Table::new(["workload", "nodes", "runs", "valid", "SC", "LC", "NN", "WW"]);
    for (name, c) in workloads() {
        let mut rep = VerifyReport::default();
        for _ in 0..runs {
            let s = Schedule::work_stealing(&c, 4, &mut rng);
            let r = sim::run(&c, &s, &BackerConfig::with_processors(4).cache_capacity(16));
            rep.record(ccmm_backer::verify(&c, &r.observer));
        }
        assert!(rep.all_lc(), "{name}: BACKER violated LC");
        t.row([
            name.to_string(),
            c.node_count().to_string(),
            rep.runs.to_string(),
            rep.valid.to_string(),
            rep.sc.to_string(),
            rep.lc.to_string(),
            rep.nn.to_string(),
            rep.ww.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("LC column = runs: every execution location consistent [Luc97] ✓");
    println!("(SC < runs: BACKER is *not* sequentially consistent — stale");
    println!("clean copies at unrelated locations show up in the total");
    println!("observer function.)\n");

    println!("== threaded executor: 10 runs per workload, 4 workers ==\n");
    let mut t = Table::new(["workload", "runs", "valid", "SC", "LC", "NN", "WW"]);
    for (name, c) in workloads() {
        let mut rep = VerifyReport::default();
        for _ in 0..10 {
            let r = threads::run(&c, &BackerConfig::with_processors(4));
            rep.record(ccmm_backer::verify(&c, &r.observer));
        }
        assert!(rep.all_lc(), "{name}: threaded BACKER violated LC");
        t.row([
            name.to_string(),
            rep.runs.to_string(),
            rep.valid.to_string(),
            rep.sc.to_string(),
            rep.lc.to_string(),
            rep.nn.to_string(),
            rep.ww.to_string(),
        ]);
    }
    println!("{}", t.render());

    println!("== baseline: atomic (uncached) memory vs BACKER ==\n");
    println!("atomic memory is SC by construction but fetches on every read;");
    println!("BACKER weakens the model to LC and buys locality — the paper's");
    println!("\u{a7}7 efficiency-vs-strength axis.\n");
    let mut t = Table::new(["workload", "memory", "model kept", "fetches", "hit rate"]);
    for (name, c) in workloads() {
        let s = Schedule::work_stealing(&c, 4, &mut rng);
        let atomic = ccmm_backer::atomic::run(&c, &s);
        let backer = sim::run(&c, &s, &BackerConfig::with_processors(4).cache_capacity(16));
        let ap = ccmm_backer::verify(&c, &atomic.observer);
        let bp = ccmm_backer::verify(&c, &backer.observer);
        assert!(ap.sc, "{name}: atomic memory must be SC");
        assert!(bp.lc, "{name}: BACKER must be LC");
        t.row([
            name.to_string(),
            "atomic".to_string(),
            (if ap.sc { "SC" } else { "-" }).to_string(),
            atomic.stats.fetches.to_string(),
            format!("{:.2}", atomic.stats.hit_rate()),
        ]);
        t.row([
            String::new(),
            "BACKER".to_string(),
            (if bp.sc {
                "SC"
            } else if bp.lc {
                "LC"
            } else {
                "-"
            })
            .to_string(),
            backer.stats.fetches.to_string(),
            format!("{:.2}", backer.stats.hit_rate()),
        ]);
    }
    println!("{}", t.render());

    println!("== fault injection: broken protocols violate LC ==\n");
    let mut t = Table::new(["fault", "workload", "runs", "LC violations"]);
    let faults = [
        ("skip flush", FaultInjection::SKIP_FLUSH),
        ("skip reconcile", FaultInjection::SKIP_RECONCILE),
        ("skip both", FaultInjection { skip_flush: true, skip_reconcile: true }),
    ];
    for (fname, f) in faults {
        // The stencil re-reads every cell each ping-pong round, exposing
        // both stale caches (flush faults) and lost writes… lost writes
        // read as ⊥ after an observed write — also an LC violation.
        let c = ccmm_cilk::stencil(8, 4).computation;
        let mut violations = 0;
        for _ in 0..runs {
            let s = Schedule::random(&c, 4, &mut rng);
            let r = sim::run(&c, &s, &BackerConfig::with_processors(4).faults(f));
            if !ccmm_backer::verify(&c, &r.observer).lc {
                violations += 1;
            }
        }
        t.row([
            fname.to_string(),
            "stencil(8,4)".to_string(),
            runs.to_string(),
            violations.to_string(),
        ]);
        assert!(violations > 0, "{fname}: expected LC violations");
    }
    println!("{}", t.render());
    println!("every protocol leg is load-bearing: removing either produces");
    println!("observer functions outside LC, and the checker catches them.");
}
