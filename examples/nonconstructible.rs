//! Figure 4 live: watch NN-dag consistency get stuck online, then compute
//! its constructible version and find location consistency through 4
//! nodes (Theorem 23; LC ⊊ NN* from 5 nodes here, ROADMAP item 1).
//!
//! Run with: `cargo run --release --example nonconstructible`

use ccmm::core::constructible::BoundedConstructible;
use ccmm::core::props::any_extension;
use ccmm::core::universe::Universe;
use ccmm::core::witness::{figure4_full, figure4_prefix};
use ccmm::core::{Lc, MemoryModel, Nn, Op};

fn main() {
    // Part 1: the Figure 4 story. An online memory has served these
    // observations (all NN-consistent so far):
    let w = figure4_prefix();
    println!("Figure 4 prefix ({}):", w.names.join(", "));
    println!("{}", w.computation.to_dot("fig4"));
    println!("observer function:\n{}", w.phi.render());
    println!("in NN: {}", Nn::default().contains(&w.computation, &w.phi));
    println!("in LC: {}\n", Lc.contains(&w.computation, &w.phi));

    // The adversary reveals one more node: F, a read, after C and D.
    for op in
        [Op::Read(ccmm::core::Location::new(0)), Op::Nop, Op::Write(ccmm::core::Location::new(0))]
    {
        let full = figure4_full(op);
        let extensible = any_extension(&full, &w.phi, |phi2| Nn::default().contains(&full, phi2));
        println!("extend by {op}: NN-extensible = {extensible}");
    }
    println!();
    println!("Unless F writes, the NN-consistent prefix cannot be extended:");
    println!("NN is not constructible — an online algorithm maintaining NN");
    println!("would already be stuck. (Definition 6 fails.)\n");

    // Part 2: compute the bounded constructible version NN* and compare
    // with LC, size by size.
    let u = Universe::new(4, 1);
    println!("computing the bounded NN* fixpoint over all computations ≤ 4 nodes…");
    let fix = BoundedConstructible::compute(&Nn::default(), &u);
    println!(
        "fixpoint: {} passes, {} pairs deleted, {} pairs survive",
        fix.passes,
        fix.deleted,
        fix.total_pairs()
    );
    println!("\n{:<6} {:>12} {:>12} {:>14}", "size", "NN* pairs", "LC pairs", "disagreements");
    for n in 0..u.max_nodes {
        let a = fix.agreement_with(&Lc, n, &u);
        println!("{:<6} {:>12} {:>12} {:>14}", n, a.survivors, a.in_model, a.disagreements);
        assert_eq!(a.disagreements, 0, "Theorem 23 violated at size {n}");
    }
    println!("\nLC = NN* on every size below the boundary.");
    println!("Theorem 23: equal through 4 nodes, LC ⊊ NN* from 5 here (ROADMAP item 1).");
}
