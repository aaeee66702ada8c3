//! Quickstart: build a computation, give it an observer function, and ask
//! the six models of the paper whether they allow it.
//!
//! Run with: `cargo run --example quickstart`

use ccmm::core::{Computation, Location, Model, ObserverFunction, Op};
use ccmm::dag::NodeId;

fn main() {
    let l = Location::new(0);

    // A four-node computation: two parallel writers, then two readers
    // that both follow both writers (the diamond of Figure 4).
    //
    //   n0: W(l) ──► n2: R(l)
    //        ╲     ╱
    //         ╲   ╱
    //          ╲ ╱  (all four edges)
    //          ╱ ╲
    //   n1: W(l) ──► n3: R(l)
    let c = Computation::from_edges(
        4,
        &[(0, 2), (1, 2), (0, 3), (1, 3)],
        vec![Op::Write(l), Op::Write(l), Op::Read(l), Op::Read(l)],
    );
    println!("computation: {c:?}\n");

    // Observer function: each read picks a different writer — the
    // "crossing" observation that separates LC from NN-dag consistency.
    let crossing = ObserverFunction::base(&c).with(l, NodeId::new(2), Some(NodeId::new(0))).with(
        l,
        NodeId::new(3),
        Some(NodeId::new(1)),
    );

    // And the agreeing variant: both reads see writer n1.
    let agreeing = ObserverFunction::base(&c).with(l, NodeId::new(2), Some(NodeId::new(1))).with(
        l,
        NodeId::new(3),
        Some(NodeId::new(1)),
    );

    println!("model memberships:");
    println!("{:<10} {:>10} {:>10}", "model", "crossing", "agreeing");
    for m in Model::ALL {
        println!(
            "{:<10} {:>10} {:>10}",
            m.name(),
            m.contains(&c, &crossing),
            m.contains(&c, &agreeing)
        );
    }

    println!();
    println!("The crossing observation is NN-dag consistent — no path");
    println!("connects the two reads — but not location consistent: no");
    println!("serialization of l puts each writer last for its reader.");
    println!("That gap is Theorem 22 (LC ⊊ NN); closing it by demanding");
    println!("online implementability is Theorem 23 (LC = NN*): equal");
    println!("through 4 nodes, LC ⊊ NN* from 5 here (ROADMAP item 1).");
}
