//! E11 — the paper's open problem (§7): characterize NW* and WN*.
//!
//! Figure 1 draws dashed lines: "It is known that LC ⊆ WN* and that
//! LC ⊆ NW*, but we do not know whether these inclusions are strict."
//! We compute the bounded constructible versions of NW and WN by the same
//! fixpoint used for Theorem 23 and compare them with LC and with NN*
//! size by size — exhaustive evidence below the bound.
//!
//! Both fixpoints run on the mask engine (`LaneConstructible`) with a
//! parallel base sweep (`CCMM_THREADS` threads).
//!
//! Run: `cargo run --release -p ccmm-bench --bin exp_open_problem [bound]`

use ccmm_bench::Table;
use ccmm_core::constructible::lanes::LaneConstructible;
use ccmm_core::enumerate::for_each_observer;
use ccmm_core::sweep::SweepConfig;
use ccmm_core::universe::Universe;
use ccmm_core::{Computation, Lc, MemoryModel, Nw, ObserverFunction, Wn};
use std::ops::ControlFlow;

fn main() {
    let bound: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    let u = Universe::new(bound, 1);
    let cfg = SweepConfig::from_env();

    println!(
        "computing bounded NW* and WN* over all computations ≤ {bound} nodes \
         (mask fixpoint, {} threads)…\n",
        cfg.threads
    );
    let t0 = std::time::Instant::now();
    let nw_star = LaneConstructible::compute(&Nw::default(), &u, &cfg);
    let nw_wall = t0.elapsed();
    println!(
        "NW*: {} rounds, {} deleted, {} survive ({nw_wall:?})",
        nw_star.passes,
        nw_star.deleted,
        nw_star.total_pairs()
    );
    let t0 = std::time::Instant::now();
    let wn_star = LaneConstructible::compute(&Wn::default(), &u, &cfg);
    let wn_wall = t0.elapsed();
    println!(
        "WN*: {} rounds, {} deleted, {} survive ({wn_wall:?})\n",
        wn_star.passes,
        wn_star.deleted,
        wn_star.total_pairs()
    );

    let mut t = Table::new(["size", "LC", "NW*", "WN*", "LC⊆NW*", "NW*\\LC", "LC⊆WN*", "WN*\\LC"]);
    let mut nw_witness: Option<(Computation, ObserverFunction)> = None;
    let mut wn_witness: Option<(Computation, ObserverFunction)> = None;
    for n in 0..bound {
        let mut lc_pairs = 0usize;
        let mut nw_pairs = 0usize;
        let mut wn_pairs = 0usize;
        let mut lc_sub_nw = true;
        let mut lc_sub_wn = true;
        let mut nw_extra = 0usize;
        let mut wn_extra = 0usize;
        let mut f = |c: &Computation| {
            let _ = for_each_observer(c, |phi| {
                let in_lc = Lc.contains(c, phi);
                let in_nw = nw_star.contains(c, phi);
                let in_wn = wn_star.contains(c, phi);
                lc_pairs += in_lc as usize;
                nw_pairs += in_nw as usize;
                wn_pairs += in_wn as usize;
                if in_lc && !in_nw {
                    lc_sub_nw = false;
                }
                if in_lc && !in_wn {
                    lc_sub_wn = false;
                }
                if in_nw && !in_lc {
                    nw_extra += 1;
                    if nw_witness.is_none() {
                        nw_witness = Some((c.clone(), phi.clone()));
                    }
                }
                if in_wn && !in_lc {
                    wn_extra += 1;
                    if wn_witness.is_none() {
                        wn_witness = Some((c.clone(), phi.clone()));
                    }
                }
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        };
        let _ = u.for_each_computation_of_size(n, &mut f);
        t.row([
            n.to_string(),
            lc_pairs.to_string(),
            nw_pairs.to_string(),
            wn_pairs.to_string(),
            ccmm_bench::mark(lc_sub_nw).to_string(),
            nw_extra.to_string(),
            ccmm_bench::mark(lc_sub_wn).to_string(),
            wn_extra.to_string(),
        ]);
        assert!(lc_sub_nw, "LC ⊆ NW* must hold (LC is constructible and ⊆ NW)");
        assert!(lc_sub_wn, "LC ⊆ WN* must hold");
    }
    println!("{}", t.render());

    // The bounded fixpoint over-approximates the true Δ* (boundary pairs
    // are never deleted): emptiness of the difference would *prove*
    // equality, but a nonempty difference is inconclusive — the surviving
    // pairs might die under deeper lookahead. Probe them with the exact
    // k-step survival test (Kleene iteration converges to the true Δ*).
    println!("== deep-lookahead probe of the surviving witnesses ==\n");
    let alphabet = u.alphabet();
    let mut t = Table::new(["witness", "k=1", "k=2", "k=3", "k=4", "k=5", "k=6"]);
    let probes: Vec<(&str, Option<(Computation, ObserverFunction)>)> =
        vec![("NW* \\ LC", nw_witness), ("WN* \\ LC", wn_witness)];
    let mut verdicts = Vec::new();
    for (name, w) in probes {
        let Some((c, phi)) = w else {
            println!("{name}: empty below the bound — equality PROVEN there.\n");
            verdicts.push((name, None));
            continue;
        };
        println!("{name} witness: {c:?}  {phi:?}");
        let mut cells = vec![name.to_string()];
        let mut survived_all = true;
        let model: &str = name;
        for k in 1..=6 {
            let alive = if model.starts_with("NW") {
                ccmm_core::constructible::survives_lookahead(&Nw::default(), &c, &phi, k, &alphabet)
            } else {
                ccmm_core::constructible::survives_lookahead(&Wn::default(), &c, &phi, k, &alphabet)
            };
            survived_all &= alive;
            cells.push(ccmm_bench::mark(alive).to_string());
        }
        t.row(cells);
        verdicts.push((name, Some(survived_all)));
    }
    println!("{}", t.render());
    for (name, v) in verdicts {
        match v {
            None => {}
            Some(true) => println!(
                "{name}: survives 6-step lookahead — strong evidence the paper's \
                 inclusion is STRICT (survival at all k would put it in the true Δ*)."
            ),
            Some(false) => println!(
                "{name}: dies under deeper lookahead — the bounded-fixpoint gap was \
                 an artifact; no strictness evidence at this size."
            ),
        }
    }
}
