//! Memory models (Definition 3) and the six models studied in the paper.
//!
//! A memory model is a set of (computation, observer function) pairs; here
//! a model is anything implementing [`MemoryModel`], whose `contains`
//! decides membership. "Stronger" means ⊆ (Definition 4) — decided over
//! bounded universes by [`crate::relation`].
//!
//! The concrete models:
//!
//! * [`Sc`] — sequential consistency (Definition 17): one topological sort
//!   whose last-writer function is Φ at *every* location;
//! * [`Lc`] — location consistency / coherence (Definition 18): an
//!   independent topological sort per location;
//! * [`QDag`] — the Q-dag-consistency family (Definition 20), with the four
//!   predicates NN, NW, WN, WW of Section 5;
//! * [`AnyObserver`] — the weakest model (all valid pairs), a baseline.

pub mod brute;
pub mod composite;
pub mod dagcons;
pub mod lane;
pub mod lc;
pub mod sc;

use crate::computation::Computation;
use crate::observer::ObserverFunction;
use crate::telemetry::{self, Counter};

pub use composite::{Intersection, Union};
pub use dagcons::{DynQ, Nn, Nw, QDag, QPredicate, QViolation, Wn, Ww};
pub use lane::{LanePack, LaneScratch, ObserverIndex, SlotOrder, LANES};
pub use lc::Lc;
pub use sc::Sc;

/// Reusable working memory for membership checks.
///
/// The sweep hot loop runs millions of `contains` calls; a `CheckScratch`
/// owned by each worker lets every checker reuse its bitsets, last-writer
/// tables, memo sets and Kahn buffers instead of reallocating them per
/// pair. Pass it to [`MemoryModel::contains_with`]; plain
/// [`MemoryModel::contains`] remains the allocating convenience form.
#[derive(Default)]
pub struct CheckScratch {
    pub(crate) sc: sc::ScScratch,
    pub(crate) lc: lc::LcScratch,
    pub(crate) dag: dagcons::DagScratch,
}

impl CheckScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A memory model: a decidable set of (computation, observer) pairs.
///
/// Implementations must return `false` for pairs where `phi` is not a
/// valid observer function for `c` (Definition 3 restricts models to valid
/// pairs).
///
/// Membership may depend on `op(u)` only through the location `u`
/// writes: relabelling a read as `N`, or as a read of another location,
/// must not change any verdict. Every model of the paper meets this (an
/// observer function forces a write to observe itself and otherwise
/// treats reads and `N` alike; the SC/LC last-writer functions and the
/// Q-dag predicates test only "u writes l"), and canonical sweeps rely on
/// it: they decide one labelling per write pattern
/// ([`crate::sweep::SweepConfig::canonical`]). A [`DynQ`] predicate must
/// meet it too.
pub trait MemoryModel {
    /// A short human-readable name ("SC", "NN-dag", …).
    fn name(&self) -> &str;

    /// Membership test `(c, phi) ∈ Δ`.
    fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool;

    /// Membership test reusing caller-provided scratch buffers.
    ///
    /// Semantically identical to [`contains`]; checkers with non-trivial
    /// working state (SC's memoised search, LC's block contraction, the
    /// Q-dag interval scan) override this to run allocation-free. The
    /// default ignores the scratch.
    ///
    /// [`contains`]: MemoryModel::contains
    fn contains_with(
        &self,
        c: &Computation,
        phi: &ObserverFunction,
        _scratch: &mut CheckScratch,
    ) -> bool {
        self.contains(c, phi)
    }

    /// Membership test for a pair just grown by one node: `c` extends a
    /// pair already known to be in the model by the final node `new`
    /// (highest-indexed, therefore maximal), and `phi` extends the
    /// committed observer function by `new`'s observation row only.
    ///
    /// Semantically identical to [`contains_with`] **under that
    /// precondition** — callers must not use it for arbitrary pairs.
    /// The default re-checks the whole pair; models whose membership is
    /// decomposable per node (validity-only [`AnyObserver`]) override it
    /// to probe just the new row, which is what makes the online
    /// session's reveal amortized near-O(degree) instead of O(n²).
    ///
    /// [`contains_with`]: MemoryModel::contains_with
    fn contains_incremental(
        &self,
        c: &Computation,
        phi: &ObserverFunction,
        _new: ccmm_dag::NodeId,
        scratch: &mut CheckScratch,
    ) -> bool {
        self.contains_with(c, phi, scratch)
    }

    /// Lane-parallel membership test: decide up to [`LANES`] observer
    /// functions packed into `phis` in one call, returning a verdict mask
    /// with bit `j` set iff lane `j`'s pair is in the model.
    ///
    /// Bits outside [`LanePack::used`] and lanes whose observer failed
    /// validation ([`LanePack::valid`] cleared) are always 0. The default
    /// extracts each valid lane and runs the scalar
    /// [`contains_with`](MemoryModel::contains_with); the hot models
    /// override this with SWAR kernels.
    fn contains_lanes(&self, c: &Computation, phis: &LanePack, s: &mut LaneScratch) -> u64 {
        let mut verdict = 0u64;
        let mut rem = phis.valid();
        while rem != 0 {
            let lane = rem.trailing_zeros() as usize;
            rem &= rem - 1;
            let phi = phis.extract(c, lane);
            if self.contains_with(c, &phi, &mut s.check) {
                verdict |= 1u64 << lane;
            }
        }
        verdict
    }
}

/// The weakest memory model: every valid (computation, observer) pair.
///
/// Equals NN-dag consistency with predicate `false`; useful as a baseline
/// and for testing the relation engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct AnyObserver;

impl MemoryModel for AnyObserver {
    fn name(&self) -> &str {
        "Any"
    }

    fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        phi.is_valid_for(c)
    }

    fn contains_incremental(
        &self,
        c: &Computation,
        phi: &ObserverFunction,
        new: ccmm_dag::NodeId,
        _scratch: &mut CheckScratch,
    ) -> bool {
        // Validity decomposes per (l, u) entry, and the prefix entries
        // were validated when they were committed, so only the new node's
        // row needs Definition 2. Condition 2.2 (¬(new ≺ observed)) holds
        // for free: the new node is maximal.
        if phi.node_count() != c.node_count() || phi.num_locations() != c.num_locations() {
            return false;
        }
        for l in c.locations() {
            let observed = phi.get(l, new);
            if c.op(new).is_write_to(l) {
                if observed != Some(new) {
                    return false;
                }
                continue;
            }
            if let Some(v) = observed {
                if !c.op(v).is_write_to(l) {
                    return false;
                }
                debug_assert!(!c.precedes(new, v), "the revealed node must be maximal");
            }
        }
        true
    }

    fn contains_lanes(&self, _c: &Computation, phis: &LanePack, _s: &mut LaneScratch) -> u64 {
        phis.valid()
    }
}

/// The six models of Figure 1 plus the [`AnyObserver`] baseline, as a
/// dynamic enum for experiment drivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Model {
    /// Sequential consistency.
    Sc,
    /// Location consistency (coherence).
    Lc,
    /// NN-dag consistency (strongest dag-consistent model).
    Nn,
    /// NW-dag consistency.
    Nw,
    /// WN-dag consistency.
    Wn,
    /// WW-dag consistency (the original dag consistency of \[BFJ+96b\]).
    Ww,
    /// All valid observer functions.
    Any,
}

impl Model {
    /// All models, strongest-first per Figure 1 (NW/WN order arbitrary).
    pub const ALL: [Model; 7] =
        [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww, Model::Any];

    /// The paper's name for the model.
    pub fn name(self) -> &'static str {
        match self {
            Model::Sc => "SC",
            Model::Lc => "LC",
            Model::Nn => "NN",
            Model::Nw => "NW",
            Model::Wn => "WN",
            Model::Ww => "WW",
            Model::Any => "Any",
        }
    }

    /// The telemetry counter tracking Φ checks dispatched to this model.
    fn phi_counter(self) -> Counter {
        match self {
            Model::Sc => Counter::PhiChecksSc,
            Model::Lc => Counter::PhiChecksLc,
            Model::Nn => Counter::PhiChecksNn,
            Model::Nw => Counter::PhiChecksNw,
            Model::Wn => Counter::PhiChecksWn,
            Model::Ww => Counter::PhiChecksWw,
            Model::Any => Counter::PhiChecksAny,
        }
    }

    /// Membership test, dispatching to the concrete checker.
    pub fn contains(self, c: &Computation, phi: &ObserverFunction) -> bool {
        telemetry::count(self.phi_counter(), 1);
        match self {
            Model::Sc => Sc.contains(c, phi),
            Model::Lc => Lc.contains(c, phi),
            Model::Nn => Nn::default().contains(c, phi),
            Model::Nw => Nw::default().contains(c, phi),
            Model::Wn => Wn::default().contains(c, phi),
            Model::Ww => Ww::default().contains(c, phi),
            Model::Any => AnyObserver.contains(c, phi),
        }
    }

    /// The first violated Condition 20.1 instance of a Q-dag model: the
    /// certificate behind a "no". `None` for a member and for every model
    /// other than NN/NW/WN/WW.
    pub fn qdag_violation(self, c: &Computation, phi: &ObserverFunction) -> Option<QViolation> {
        match self {
            Model::Nn => Nn::find_violation(c, phi),
            Model::Nw => Nw::find_violation(c, phi),
            Model::Wn => Wn::find_violation(c, phi),
            Model::Ww => Ww::find_violation(c, phi),
            Model::Sc | Model::Lc | Model::Any => None,
        }
    }

    /// Whether the paper claims the model is constructible (Figure 1 and
    /// Theorem 19; NN, NW, WN are not constructible).
    pub fn paper_says_constructible(self) -> bool {
        matches!(self, Model::Sc | Model::Lc | Model::Ww | Model::Any)
    }
}

impl MemoryModel for Model {
    fn name(&self) -> &str {
        Model::name(*self)
    }

    fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        Model::contains(*self, c, phi)
    }

    fn contains_with(&self, c: &Computation, phi: &ObserverFunction, s: &mut CheckScratch) -> bool {
        telemetry::count(self.phi_counter(), 1);
        telemetry::count(Counter::ScratchReuse, 1);
        match self {
            Model::Sc => Sc.contains_with(c, phi, s),
            Model::Lc => Lc.contains_with(c, phi, s),
            Model::Nn => Nn::default().contains_with(c, phi, s),
            Model::Nw => Nw::default().contains_with(c, phi, s),
            Model::Wn => Wn::default().contains_with(c, phi, s),
            Model::Ww => Ww::default().contains_with(c, phi, s),
            Model::Any => AnyObserver.contains(c, phi),
        }
    }

    fn contains_incremental(
        &self,
        c: &Computation,
        phi: &ObserverFunction,
        new: ccmm_dag::NodeId,
        s: &mut CheckScratch,
    ) -> bool {
        match self {
            Model::Any => {
                telemetry::count(self.phi_counter(), 1);
                AnyObserver.contains_incremental(c, phi, new, s)
            }
            _ => self.contains_with(c, phi, s),
        }
    }

    fn contains_lanes(&self, c: &Computation, phis: &LanePack, s: &mut LaneScratch) -> u64 {
        let slots = u64::from(phis.used().count_ones());
        telemetry::count(self.phi_counter(), slots);
        telemetry::count(Counter::ScratchReuse, slots);
        match self {
            Model::Sc => Sc.contains_lanes(c, phis, s),
            Model::Lc => Lc.contains_lanes(c, phis, s),
            Model::Nn => Nn::default().contains_lanes(c, phis, s),
            Model::Nw => Nw::default().contains_lanes(c, phis, s),
            Model::Wn => Wn::default().contains_lanes(c, phis, s),
            Model::Ww => Ww::default().contains_lanes(c, phis, s),
            Model::Any => AnyObserver.contains_lanes(c, phis, s),
        }
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Location, Op};

    #[test]
    fn any_rejects_invalid_observers() {
        let c = Computation::from_edges(1, &[], vec![Op::Write(Location::new(0))]);
        let bad = ObserverFunction::bottom(1, 1); // write not self-observing
        assert!(!AnyObserver.contains(&c, &bad));
        assert!(AnyObserver.contains(&c, &ObserverFunction::base(&c)));
    }

    #[test]
    fn model_enum_names() {
        assert_eq!(Model::Sc.name(), "SC");
        assert_eq!(Model::Ww.name(), "WW");
        assert_eq!(Model::ALL.len(), 7);
    }

    #[test]
    fn empty_pair_in_every_model() {
        // Definition 3: {(ε, Φ_ε)} ⊆ Δ for every model.
        let c = Computation::empty();
        let phi = ObserverFunction::empty();
        for m in Model::ALL {
            assert!(m.contains(&c, &phi), "(ε, Φ_ε) missing from {m}");
        }
    }

    #[test]
    fn paper_constructibility_claims() {
        assert!(Model::Sc.paper_says_constructible());
        assert!(Model::Lc.paper_says_constructible());
        assert!(Model::Ww.paper_says_constructible());
        assert!(!Model::Nn.paper_says_constructible());
        assert!(!Model::Nw.paper_says_constructible());
        assert!(!Model::Wn.paper_says_constructible());
    }
}
