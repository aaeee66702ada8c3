//! The bounded constructible version Δ* (Definition 8, Theorem 9).
//!
//! `Δ*` is the union of all constructible models stronger than `Δ` — the
//! weakest constructible strengthening. On an unbounded universe it is the
//! greatest fixpoint of "every augmentation admits a compatible
//! extension" (the Theorem 12 condition); we compute that fixpoint on a
//! bounded universe:
//!
//! 1. materialise `S₀ = {(C, Φ) ∈ Δ : |V_C| ≤ max_nodes}`;
//! 2. repeatedly delete `(C, Φ)` with `|V_C| < max_nodes` for which some
//!    op `o` has **no** `Φ'` on `aug_o(C)` with `(aug_o(C), Φ') ∈ Sᵢ` and
//!    `Φ'|_C = Φ`;
//! 3. stop at the fixpoint.
//!
//! Pairs at the size boundary are never deleted (their augmentations lie
//! outside the universe), so the result *over-approximates* `Δ*`: it is
//! exact in the limit, and each deletion pass pushes exactness one size
//! level down from the boundary. Two invariants hold unconditionally and
//! are tested: `LC ⊆ fixpoint(NN) ⊆ NN` at every size, and the fixpoint
//! is sandwiched between `Δ*` and `Δ`. Experiment E8 reports, per size,
//! whether `fixpoint(NN) = LC` — the machine-checkable face of
//! Theorem 23.
//!
//! [`BoundedConstructible::compute`] is the naïve reference: hash-set
//! survivor sets, the whole universe re-scanned after every deletion
//! pass. The engine every caller runs is [`lanes::LaneConstructible`]
//! (survivor masks, a deletion cascade, supervision and checkpoints);
//! tests pin it to this reference pair by pair.

pub mod lanes;

use crate::computation::Computation;
use crate::enumerate::for_each_observer;
use crate::model::MemoryModel;
use crate::observer::ObserverFunction;
use crate::props::any_extension;
use crate::universe::Universe;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

/// The result of the bounded Δ* fixpoint computation.
pub struct BoundedConstructible {
    /// Surviving pairs, keyed by computation.
    pairs: HashMap<Computation, HashSet<ObserverFunction>>,
    /// The universe bound used.
    pub max_nodes: usize,
    /// Number of fixpoint passes until convergence.
    pub passes: usize,
    /// Pairs deleted in total.
    pub deleted: usize,
}

impl BoundedConstructible {
    /// Computes the bounded fixpoint of `model` over `u` by re-scanning
    /// every interior pair until a pass deletes nothing; `passes` counts
    /// that final pass too.
    pub fn compute<M: MemoryModel>(model: &M, u: &Universe) -> Self {
        // Materialise S₀.
        let mut pairs: HashMap<Computation, HashSet<ObserverFunction>> = HashMap::new();
        let _ = u.for_each_computation(|c| {
            let mut set = HashSet::new();
            let _ = for_each_observer(c, |phi| {
                if model.contains(c, phi) {
                    set.insert(phi.clone());
                }
                ControlFlow::Continue(())
            });
            pairs.insert(c.clone(), set);
            ControlFlow::Continue(())
        });

        let alphabet = u.alphabet();
        let mut passes = 0;
        let mut deleted = 0;
        loop {
            passes += 1;
            let mut to_delete: Vec<(Computation, ObserverFunction)> = Vec::new();
            for (c, set) in &pairs {
                if c.node_count() >= u.max_nodes {
                    continue; // boundary: augmentation out of reach
                }
                for phi in set {
                    for &o in &alphabet {
                        let aug = c.augment(o);
                        let survivors = pairs
                            .get(&aug)
                            .expect("universe is closed under augmentation below the bound");
                        let ok = any_extension(&aug, phi, |phi2| survivors.contains(phi2));
                        if !ok {
                            to_delete.push((c.clone(), phi.clone()));
                            break;
                        }
                    }
                }
            }
            if to_delete.is_empty() {
                break;
            }
            deleted += to_delete.len();
            for (c, phi) in to_delete {
                pairs.get_mut(&c).expect("key present").remove(&phi);
            }
        }
        BoundedConstructible { pairs, max_nodes: u.max_nodes, passes, deleted }
    }

    /// Whether `(c, phi)` survived the fixpoint. Exact for `Δ*` only when
    /// `c` is small enough relative to the bound (see module docs).
    pub fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        self.pairs.get(c).is_some_and(|s| s.contains(phi))
    }

    /// Number of surviving pairs for computations of exactly `n` nodes.
    pub fn pairs_of_size(&self, n: usize) -> usize {
        self.pairs.iter().filter(|(c, _)| c.node_count() == n).map(|(_, s)| s.len()).sum()
    }

    /// Total surviving pairs.
    pub fn total_pairs(&self) -> usize {
        self.pairs.values().map(HashSet::len).sum()
    }

    /// Iterates over surviving pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Computation, &ObserverFunction)> {
        self.pairs.iter().flat_map(|(c, s)| s.iter().map(move |phi| (c, phi)))
    }

    /// Compares the survivors of size `n` against a model: returns
    /// `(survivors, in_model, agreements)` where `agreements` counts pairs
    /// on which membership coincides over all valid observers of size-`n`
    /// computations.
    pub fn agreement_with<M: MemoryModel>(
        &self,
        model: &M,
        n: usize,
        u: &Universe,
    ) -> SizeAgreement {
        let mut out = SizeAgreement { size: n, survivors: 0, in_model: 0, disagreements: 0 };
        let mut f = |c: &Computation| {
            let _ = for_each_observer(c, |phi| {
                let in_fix = self.contains(c, phi);
                let in_m = model.contains(c, phi);
                if in_fix {
                    out.survivors += 1;
                }
                if in_m {
                    out.in_model += 1;
                }
                if in_fix != in_m {
                    out.disagreements += 1;
                }
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        };
        let _ = u.for_each_computation_of_size(n, &mut f);
        out
    }
}

/// Exact `k`-step survival test for a single pair, without materialising
/// any universe: `(C, Φ)` survives `k` steps iff it is in the model and,
/// for `k > 0`, every augmentation admits an extension that survives
/// `k − 1` steps.
///
/// The extension operator is co-continuous (each condition quantifies
/// over the finitely many final-row candidates), so by Kleene iteration
/// `(C, Φ) ∈ Δ*` **iff it survives every finite `k`** — deep lookahead
/// converges to the true constructible version from above. This is the
/// tool behind experiment E11's probe of the paper's open problem
/// (is `LC ⊊ NW*`? `LC ⊊ WN*`?).
pub fn survives_lookahead<M: MemoryModel>(
    model: &M,
    c: &Computation,
    phi: &ObserverFunction,
    k: usize,
    alphabet: &[crate::op::Op],
) -> bool {
    let mut memo: HashMap<(Computation, ObserverFunction, usize), bool> = HashMap::new();
    fn go<M: MemoryModel>(
        model: &M,
        c: &Computation,
        phi: &ObserverFunction,
        k: usize,
        alphabet: &[crate::op::Op],
        memo: &mut HashMap<(Computation, ObserverFunction, usize), bool>,
    ) -> bool {
        if !model.contains(c, phi) {
            return false;
        }
        if k == 0 {
            return true;
        }
        let key = (c.clone(), phi.clone(), k);
        if let Some(&v) = memo.get(&key) {
            return v;
        }
        let mut ok = true;
        'ops: for &o in alphabet {
            let aug = c.augment(o);
            let mut found = false;
            let found_ref = &mut found;
            let _ = crate::props::any_extension(&aug, phi, |phi2| {
                if go(model, &aug, phi2, k - 1, alphabet, memo) {
                    *found_ref = true;
                    true
                } else {
                    false
                }
            });
            if !found {
                ok = false;
                break 'ops;
            }
        }
        memo.insert(key, ok);
        ok
    }
    go(model, c, phi, k, alphabet, &mut memo)
}

/// Per-size agreement between a fixpoint and a reference model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeAgreement {
    /// Computation size compared at.
    pub size: usize,
    /// Pairs surviving the fixpoint at this size.
    pub survivors: usize,
    /// Pairs in the reference model at this size.
    pub in_model: usize,
    /// Pairs on which the two disagree.
    pub disagreements: usize,
}

#[cfg(test)]
mod tests {
    use super::lanes::LaneConstructible;
    use super::*;
    use crate::fault::FaultPlan;
    use crate::model::{Lc, Nn, Sc};
    use crate::sweep::supervisor::{Supervised, Supervisor, SweepStatus};
    use crate::sweep::SweepConfig;

    #[test]
    fn constructible_model_is_its_own_fixpoint() {
        let u = Universe::new(3, 1);
        let fix = BoundedConstructible::compute(&Lc, &u);
        assert_eq!(fix.deleted, 0, "LC is constructible; nothing deleted");
        assert_eq!(fix.passes, 1);
        // Same for SC.
        let fix_sc = BoundedConstructible::compute(&Sc, &u);
        assert_eq!(fix_sc.deleted, 0);
    }

    #[test]
    fn theorem_23_lc_equals_nn_star_small() {
        // Bounded check of LC = NN*: with a 5-node bound, sizes ≤ 4 are
        // past at least one deletion pass; the paper predicts exact
        // agreement with LC at every size below the boundary.
        let u = Universe::new(4, 1);
        let fix = BoundedConstructible::compute(&Nn::new(), &u);
        for n in 0..u.max_nodes {
            let agree = fix.agreement_with(&Lc, n, &u);
            assert_eq!(agree.disagreements, 0, "NN* ≠ LC at size {n}: {agree:?}");
        }
    }

    #[test]
    fn fixpoint_sandwiched_between_lc_and_nn() {
        let u = Universe::new(4, 1);
        let fix = BoundedConstructible::compute(&Nn::new(), &u);
        for (c, phi) in fix.iter() {
            assert!(Nn::new().contains(c, phi), "fixpoint ⊆ NN violated");
        }
        // LC ⊆ fixpoint at every size (LC is constructible and ⊆ NN, so it
        // survives every pass).
        let _ = u.for_each_computation(|c| {
            let _ = for_each_observer(c, |phi| {
                if Lc.contains(c, phi) {
                    assert!(fix.contains(c, phi), "LC ⊄ fixpoint at {c:?} {phi:?}");
                }
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn lookahead_kills_figure4_pair() {
        // The Figure-4 prefix pair is in NN but dies at lookahead 1.
        let w = crate::witness::figure4_prefix();
        let alphabet = crate::op::Op::all(1);
        assert!(survives_lookahead(&Nn::default(), &w.computation, &w.phi, 0, &alphabet));
        assert!(!survives_lookahead(&Nn::default(), &w.computation, &w.phi, 1, &alphabet));
    }

    #[test]
    fn lookahead_spares_lc_pairs() {
        // LC is constructible: its pairs survive any finite lookahead.
        let c = crate::computation::Computation::from_edges(
            3,
            &[(0, 1)],
            vec![
                crate::op::Op::Write(crate::op::Location::new(0)),
                crate::op::Op::Read(crate::op::Location::new(0)),
                crate::op::Op::Write(crate::op::Location::new(0)),
            ],
        );
        let phi = crate::observer::ObserverFunction::base(&c).with(
            crate::op::Location::new(0),
            ccmm_dag::NodeId::new(1),
            Some(ccmm_dag::NodeId::new(0)),
        );
        assert!(Lc.contains(&c, &phi));
        let alphabet = crate::op::Op::all(1);
        for k in 0..4 {
            assert!(survives_lookahead(&Lc, &c, &phi, k, &alphabet), "k={k}");
        }
        // And since LC ⊆ NN with LC constructible, it also survives in NN.
        for k in 0..4 {
            assert!(survives_lookahead(&Nn::default(), &c, &phi, k, &alphabet), "k={k}");
        }
    }

    #[test]
    fn lookahead_agrees_with_bounded_fixpoint() {
        // For pairs of size s in a bound-b universe, the fixpoint applies
        // (b - s) levels of lookahead... at least one pass; cross-check
        // 2-node pairs in a 4-bound universe against 2-step lookahead.
        let u = Universe::new(4, 1);
        let fix = BoundedConstructible::compute(&Nn::default(), &u);
        let alphabet = u.alphabet();
        let mut f = |c: &Computation| {
            let _ = for_each_observer(c, |phi| {
                if Nn::default().contains(c, phi) {
                    let deep = survives_lookahead(&Nn::default(), c, phi, 2, &alphabet);
                    let in_fix = fix.contains(c, phi);
                    // fixpoint lookahead ≥ 2 here, so fixpoint ⊆ deep.
                    assert!(!in_fix || deep, "fixpoint kept a 2-step-dead pair");
                }
                std::ops::ControlFlow::Continue(())
            });
            std::ops::ControlFlow::Continue(())
        };
        let _ = u.for_each_computation_of_size(2, &mut f);
    }

    /// Asserts that the mask engine kept exactly the reference's survivor
    /// sets and deletions, by scanning every pair of the universe. Pass
    /// counts are not compared: the re-scan counts its final, empty
    /// pass, the engine counts cascade rounds.
    pub(super) fn assert_matches_naive<M: MemoryModel>(
        naive: &BoundedConstructible,
        lane: &LaneConstructible<M>,
        u: &Universe,
    ) {
        assert_eq!(lane.total_pairs(), naive.total_pairs());
        assert_eq!(lane.deleted, naive.deleted, "deletion counts differ");
        for n in 0..=u.max_nodes {
            assert_eq!(lane.pairs_of_size(n), naive.pairs_of_size(n), "size {n} differs");
        }
        let _ = u.for_each_computation(|c| {
            let _ = for_each_observer(c, |phi| {
                assert_eq!(
                    lane.contains(c, phi),
                    naive.contains(c, phi),
                    "survivor sets differ at {c:?} {phi:?}"
                );
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        });
    }

    /// The `ccmm sweep --engine scalar` fixpoint: the mask engine with
    /// the scalar Stage-A kernel, two threads, under `fault`.
    fn scalar_engine(u: &Universe, fault: FaultPlan) -> Supervised<LaneConstructible<Nn>> {
        let cfg = SweepConfig::with_threads(2);
        let sup = Supervisor::with_fault(fault);
        LaneConstructible::compute_supervised(&Nn::default(), u, &cfg, &sup, None, None, false)
    }

    #[test]
    fn fixpoint_quarantine_degrades_instead_of_aborting() {
        // A persistent panic in one initial-pass check must not abort the
        // fixpoint: the check is quarantined (its pairs kept) and the
        // result stays a sound over-approximation.
        let u = Universe::new(4, 1);
        let naive = BoundedConstructible::compute(&Nn::default(), &u);
        let out = scalar_engine(&u, FaultPlan::none().panic_at_fixpoint(0));
        assert_eq!(out.status, SweepStatus::Degraded);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].task_idx, 0);
        assert!(out.quarantined[0].payload.contains("fixpoint check 0"));
        // Conservative keep: never fewer survivors than the clean run,
        // and every survivor is still in the model.
        assert!(out.value.total_pairs() >= naive.total_pairs());
        let _ = u.for_each_computation(|c| {
            let _ = for_each_observer(c, |phi| {
                let kept = out.value.contains(c, phi);
                assert!(!kept || Nn::default().contains(c, phi), "quarantine broke fixpoint ⊆ NN");
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn fixpoint_transient_fault_heals_identically() {
        // A once-fault is healed by the serial retry: the result must be
        // bit-identical to the reference fixpoint, with nothing
        // quarantined.
        let u = Universe::new(4, 1);
        let naive = BoundedConstructible::compute(&Nn::default(), &u);
        let out = scalar_engine(&u, FaultPlan::none().panic_once_at_fixpoint(1));
        assert_eq!(out.status, SweepStatus::Complete);
        assert!(out.quarantined.is_empty());
        assert_matches_naive(&naive, &out.value, &u);
    }

    #[test]
    fn nn_fixpoint_actually_deletes() {
        // NN is not constructible, so the fixpoint must remove pairs
        // (the size-4 crossing pairs of Figure 4 are below a 5-node
        // boundary only when max_nodes = 5; at max_nodes = 4 deletions
        // happen at size 3 or smaller — verify *some* deletion occurs at
        // the 5-node bound).
        let u = Universe::new(5, 1);
        let fix = BoundedConstructible::compute(&Nn::new(), &u);
        assert!(fix.deleted > 0, "NN fixpoint deleted nothing");
        assert!(fix.passes >= 2);
        // The mask engine derives the same NN* independently: same
        // survivors at every size, same deletions (E20's 513,984 / 96).
        let lane = LaneConstructible::compute(&Nn::new(), &u, &SweepConfig::with_threads(2));
        assert_eq!((fix.total_pairs(), fix.deleted), (513_984, 96));
        assert_eq!((lane.total_pairs(), lane.deleted), (fix.total_pairs(), fix.deleted));
        for n in 0..=u.max_nodes {
            assert_eq!(lane.pairs_of_size(n), fix.pairs_of_size(n), "size {n} differs");
        }
    }
}
