//! E8 — Theorem 23: LC = NN*, checked for computations of ≤ 4 nodes.
//!
//! Computes the bounded constructible version of NN-dag consistency by
//! greatest-fixpoint deletion over exhaustive universes and compares the
//! survivors with LC size by size. Also verifies the two sandwich
//! invariants that hold unconditionally (LC ⊆ fixpoint ⊆ NN) and reports
//! Theorem 22 (LC ⊊ NN) counts.
//!
//! The two sets are equal for computations of ≤ 4 nodes only. At 5 nodes
//! NN* has 486,527 pairs against 484,519 for LC (ROADMAP item 1), so the
//! per-size equality assertion holds at bounds ≤ 5, not beyond.
//!
//! The fixpoint runs on the mask engine (`LaneConstructible`): survivor
//! masks are materialised by the parallel sweep (`CCMM_THREADS` threads)
//! and, after one full pass, deletions propagate only to the unique
//! augmentation parent of each deleted pair instead of re-scanning the
//! universe. Survivors are identical to the naïve re-scan fixpoint.
//!
//! Run: `cargo run --release -p ccmm-bench --bin exp_thm23 [max_nodes]`
//! (default bound 5; 4 is fast, 5 takes a few seconds in release)

use ccmm_bench::Table;
use ccmm_core::constructible::lanes::LaneConstructible;
use ccmm_core::enumerate::for_each_observer;
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::{Lc, MemoryModel, Nn};
use std::ops::ControlFlow;

fn main() {
    let bound: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    let u = Universe::new(bound, 1);
    let cfg = SweepConfig::from_env();
    println!(
        "computing bounded NN* over all computations ≤ {bound} nodes, 1 location \
         (mask fixpoint, {} threads)…",
        cfg.threads
    );
    let t0 = std::time::Instant::now();
    let fix = LaneConstructible::compute(&Nn::default(), &u, &cfg);
    let wall = t0.elapsed();
    println!(
        "fixpoint reached in {:?}: {} rounds, {} pairs deleted, {} survive\n",
        wall,
        fix.passes,
        fix.deleted,
        fix.total_pairs()
    );

    let mut table =
        Table::new(["size", "NN pairs", "NN* pairs", "LC pairs", "NN*=LC", "LC⊊NN gap"]);
    let mut all_agree = true;
    for n in 0..bound {
        // Count NN and LC pairs at this size; compare the fixpoint to LC.
        let (mut nn_pairs, mut lc_pairs, mut disagreements) = (0usize, 0usize, 0usize);
        let mut flow = |c: &ccmm_core::Computation| {
            let _ = for_each_observer(c, |phi| {
                let in_lc = Lc.contains(c, phi);
                nn_pairs += usize::from(Nn::default().contains(c, phi));
                lc_pairs += usize::from(in_lc);
                disagreements += usize::from(fix.contains(c, phi) != in_lc);
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        };
        let _ = u.for_each_computation_of_size(n, &mut flow);
        all_agree &= disagreements == 0;
        table.row([
            n.to_string(),
            nn_pairs.to_string(),
            fix.pairs_of_size(n).to_string(),
            lc_pairs.to_string(),
            ccmm_bench::mark(disagreements == 0).to_string(),
            (nn_pairs - lc_pairs).to_string(),
        ]);
        assert_eq!(disagreements, 0, "NN* ≠ LC at size {n}");
    }
    println!("{}", table.render());
    println!("(sizes below the bound only; boundary-size pairs are never");
    println!("deleted by the bounded fixpoint and are not compared)");

    // Sandwich invariants.
    println!("\nverifying LC ⊆ NN* ⊆ NN on every pair of the universe…");
    let mut checked = 0usize;
    let _ = u.for_each_computation(|c| {
        let _ = for_each_observer(c, |phi| {
            let in_lc = Lc.contains(c, phi);
            let in_fix = fix.contains(c, phi);
            let in_nn = Nn::default().contains(c, phi);
            assert!(!in_lc || in_fix, "LC ⊄ NN*");
            assert!(!in_fix || in_nn, "NN* ⊄ NN");
            checked += 1;
            ControlFlow::Continue(())
        });
        ControlFlow::Continue(())
    });
    println!("{checked} pairs checked ✓");

    assert!(all_agree);
    println!("\nLC = NN* reproduced — and in fact *proven* — at every size below");
    println!("the bound: the bounded fixpoint over-approximates the true NN*");
    println!("(boundary pairs are never deleted), so");
    println!("  LC ⊆ NN* ⊆ bounded-fixpoint = LC  ⟹  NN* = LC at those sizes.");
    println!("Theorem 23 claims this at every size; LC and NN* are equal for");
    println!("computations of ≤ 4 nodes only: at 5 nodes NN* has 486,527 pairs");
    println!("against 484,519 for LC (ROADMAP item 1).");
    println!("The 'LC⊊NN gap' column is Theorem 22's strictness, closed");
    println!("exactly by the constructibility fixpoint.");
}
