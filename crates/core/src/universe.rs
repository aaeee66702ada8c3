//! Bounded universes of computations.
//!
//! To machine-check a universally quantified claim ("for all computations
//! …") we enumerate *every* computation up to a node budget: all naturally
//! labelled posets (see `ccmm_dag::poset` for why natural labellings
//! suffice) crossed with all op labellings over a location alphabet.
//!
//! Universe sizes grow fast — `Universe::new(4, 1)` has 3,451
//! computations, `Universe::new(5, 1)` has 90,202 — so drivers choose the
//! budget per experiment.

use crate::computation::Computation;
use crate::op::Op;
use ccmm_dag::poset::for_each_poset;
use std::ops::ControlFlow;

/// A bounded universe: all computations with at most `max_nodes` nodes
/// whose ops range over `num_locations` locations (plus `N` if
/// `include_nop`).
#[derive(Clone, Copy, Debug)]
pub struct Universe {
    /// Maximum number of nodes (inclusive).
    pub max_nodes: usize,
    /// Number of locations in the op alphabet.
    pub num_locations: usize,
    /// Whether the no-op `N` is in the alphabet.
    pub include_nop: bool,
}

impl Universe {
    /// A universe with the full alphabet (reads, writes, and `N`).
    pub fn new(max_nodes: usize, num_locations: usize) -> Self {
        Universe { max_nodes, num_locations, include_nop: true }
    }

    /// The op alphabet.
    pub fn alphabet(&self) -> Vec<Op> {
        let mut ops = Op::all(self.num_locations);
        if !self.include_nop {
            ops.retain(|o| *o != Op::Nop);
        }
        ops
    }

    /// Calls `f` with every computation of exactly `n` nodes. Dags are
    /// transitive closures (every precedence pair is an edge). Break to
    /// stop early.
    pub fn for_each_computation_of_size<F>(&self, n: usize, f: &mut F) -> ControlFlow<()>
    where
        F: FnMut(&Computation) -> ControlFlow<()>,
    {
        let alphabet = self.alphabet();
        let mut flow = ControlFlow::Continue(());
        for_each_poset(n, |dag| {
            if flow.is_break() {
                return;
            }
            // All op labellings: n-digit counter in base |alphabet|.
            let k = alphabet.len();
            let mut digits = vec![0usize; n];
            loop {
                let ops: Vec<Op> = digits.iter().map(|&d| alphabet[d]).collect();
                let c = Computation::new(dag.clone(), ops).expect("labelling has one op per node");
                if f(&c).is_break() {
                    flow = ControlFlow::Break(());
                    return;
                }
                // Increment.
                let mut i = 0;
                loop {
                    if i == n {
                        return; // all labellings of this dag done
                    }
                    digits[i] += 1;
                    if digits[i] < k {
                        break;
                    }
                    digits[i] = 0;
                    i += 1;
                }
            }
        });
        flow
    }

    /// Calls `f` with every computation of size `0..=max_nodes`.
    pub fn for_each_computation<F>(&self, mut f: F) -> ControlFlow<()>
    where
        F: FnMut(&Computation) -> ControlFlow<()>,
    {
        for n in 0..=self.max_nodes {
            self.for_each_computation_of_size(n, &mut f)?;
        }
        ControlFlow::Continue(())
    }

    /// Collects all computations (small budgets only).
    pub fn computations(&self) -> Vec<Computation> {
        let mut out = Vec::new();
        let _ = self.for_each_computation(|c| {
            out.push(c.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// Number of computations in the universe.
    pub fn count_computations(&self) -> usize {
        let mut count = 0;
        let _ = self.for_each_computation(|_| {
            count += 1;
            ControlFlow::Continue(())
        });
        count
    }

    /// Number of computations in the universe, in closed form: the
    /// labellings of a size-`n` poset are independent of its shape, so
    /// the universe holds `Σₙ count_posets(n) · kⁿ` computations for an
    /// alphabet of `k` ops. Counts posets without building any dag and
    /// never materialises a computation — sizes far beyond
    /// [`Self::count_computations`]'s enumerative reach (and beyond `usize` on
    /// 32-bit targets, hence `u128`).
    pub fn count_computations_closed(&self) -> u128 {
        let k = self.alphabet().len() as u128;
        (0..=self.max_nodes)
            .map(|n| ccmm_dag::poset::count_posets_fast(n) as u128 * k.pow(n as u32))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Location;

    #[test]
    fn alphabet_sizes() {
        assert_eq!(Universe::new(3, 1).alphabet().len(), 3);
        assert_eq!(Universe::new(3, 2).alphabet().len(), 5);
        let no_nop = Universe { max_nodes: 3, num_locations: 1, include_nop: false };
        assert_eq!(no_nop.alphabet().len(), 2);
    }

    #[test]
    fn count_matches_posets_times_labellings() {
        // sizes 0..=3, 1 location, with nop: 1 + 1·3 + 2·9 + 7·27 = 211.
        let u = Universe::new(3, 1);
        assert_eq!(u.count_computations(), 1 + 3 + 18 + 189);
    }

    #[test]
    fn documented_size_of_4_1_universe() {
        let u = Universe::new(4, 1);
        assert_eq!(u.count_computations(), 211 + 40 * 81);
    }

    #[test]
    fn closed_form_count_matches_enumeration() {
        for max_nodes in 0..=4 {
            for num_locations in 1..=2 {
                for include_nop in [false, true] {
                    let u = Universe { max_nodes, num_locations, include_nop };
                    assert_eq!(
                        u.count_computations_closed(),
                        u.count_computations() as u128,
                        "closed form diverges at {u:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_reaches_past_enumeration() {
        // 6-node universes are painful to enumerate but instant to count:
        // 211 + 3240 + 90_202·... — just pin the documented 5-node value
        // plus the closed-form 6-node one.
        assert_eq!(Universe::new(5, 1).count_computations_closed(), 90_202);
        let six = Universe::new(6, 1).count_computations_closed();
        assert_eq!(six, 90_202 + 4824 * 3u128.pow(6));
    }

    #[test]
    fn computations_are_distinct() {
        let u = Universe::new(3, 1);
        let all = u.computations();
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
    }

    #[test]
    fn includes_expected_members() {
        let u = Universe::new(2, 1);
        let all = u.computations();
        // W -> R chain.
        let wr = Computation::from_edges(
            2,
            &[(0, 1)],
            vec![Op::Write(Location::new(0)), Op::Read(Location::new(0))],
        );
        assert!(all.contains(&wr));
        assert!(all.contains(&Computation::empty()));
    }

    #[test]
    fn early_exit_works() {
        let u = Universe::new(3, 1);
        let mut seen = 0;
        let flow = u.for_each_computation(|_| {
            seen += 1;
            if seen == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert!(flow.is_break());
        assert_eq!(seen, 5);
    }

    #[test]
    fn size_restricted_enumeration() {
        let u = Universe::new(4, 1);
        let mut count = 0;
        let _ = u.for_each_computation_of_size(2, &mut |_| {
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 18);
    }
}
