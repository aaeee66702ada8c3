//! Q-dag consistency (Definition 20) and the four predicates of Section 5.
//!
//! For a predicate `Q` on `(l, u, v, w)`, the model contains `(C, Φ)` iff
//! for all locations `l` and all `u ≺ v ≺ w` (with `u` possibly ⊥) such
//! that `Q(l, u, v, w)` holds:
//!
//! ```text
//! Φ(l, u) = Φ(l, w)  ⟹  Φ(l, v) = Φ(l, u)
//! ```
//!
//! Strengthening `Q` *weakens* the model. The four named predicates
//! ("W" = write, "N" = don't care; first letter constrains `u`, second
//! constrains `v`):
//!
//! | name | condition on (u, v)                        |
//! |------|--------------------------------------------|
//! | NN   | always                                     |
//! | NW   | `op(v) = W(l)`                             |
//! | WN   | `u = ⊥` or `op(u) = W(l)`                  |
//! | WW   | (`u = ⊥` or `op(u) = W(l)`) and `op(v) = W(l)` |
//!
//! **On ⊥ in the `u` position.** `⊥` stands for the initial state of the
//! location — a *virtual initial write* preceding every node. Treating it
//! as a write in the "W" predicates is forced by two cross-checks against
//! the paper:
//!
//! 1. WW must coincide with the original dag consistency of \[BFJ+96b\],
//!    whose masking condition ("no node observes a write that a write on
//!    its own path overwrote") forbids observing the initial value past a
//!    write — exactly the `u = ⊥` WW triples.
//! 2. Figure 1 annotates WW as the *only* constructible model of the
//!    four. If `⊥` did not count as a write for `u`, the final node of
//!    any augmentation could always observe ⊥ (no write-endpoint triple
//!    fires against ⊥), making WN constructible and contradicting both
//!    Figure 1 and the paper's Section 7 ("we were surprised to discover
//!    that WN is not constructible"). With the virtual initial write, our
//!    exhaustive constructibility scan (experiment E4) reproduces the
//!    paper's annotations exactly.
//!
//! NN is the strongest dag-consistent model (Theorem 21); WN is the
//! revision of \[BFJ+96a\].
//!
//! **The check** works in word masks over the reachability bitsets, in
//! `O(L·V·(1 + a)·⌈V/64⌉)` word operations (a = the same-class ancestors
//! of `w`). Per location it partitions the nodes by observed value into
//! class sets `S_x`. For each `w`, the middles that can break a triple are
//! `(anc(w) ∩ V_Q) ∖ S_Φ(l,w)`; each source `u ∈ anc(w) ∩ S_Φ(l,w) ∩ U_Q`
//! takes the lowest of them in `desc(u)`. Visiting `l`, `w`, ⊥ then `u`
//! and taking lowest bits keeps the between-set walk's first triple.

use crate::computation::Computation;
use crate::model::{CheckScratch, MemoryModel};
use crate::observer::ObserverFunction;
use crate::op::Location;
use ccmm_dag::NodeId;

/// Reusable Q-dag buffers, in words of `⌈V/64⌉` per node set.
#[derive(Default)]
pub(crate) struct DagScratch {
    /// Class `k`'s node set at the current location, in words
    /// `k·nw..(k+1)·nw`. Class 0 is the nodes observing ⊥.
    class: Vec<u64>,
    /// Observed node index → its class, 0 while unseen. Numbered as first
    /// seen, so a value that is no write to `l` still gets its own class.
    class_by_value: Vec<u32>,
    /// The nodes writing the current location.
    writes: Vec<u64>,
    /// The current endpoint `w`'s candidate middles.
    cand: Vec<u64>,
}

impl DagScratch {
    /// Partitions the nodes by the value they observe at `l` into the
    /// class sets `S_x`, and marks the writes to `l`.
    fn classify(&mut self, c: &Computation, phi: &ObserverFunction, l: Location, nw: usize) {
        self.class.clear();
        self.class.resize(nw, 0);
        self.class_by_value.clear();
        self.class_by_value.resize(c.node_count(), 0);
        for v in c.nodes() {
            let k = phi.get(l, v).map_or(0, |x| {
                if x.index() >= self.class_by_value.len() {
                    self.class_by_value.resize(x.index() + 1, 0);
                }
                let slot = &mut self.class_by_value[x.index()];
                if *slot == 0 {
                    *slot = (self.class.len() / nw) as u32;
                    self.class.resize(self.class.len() + nw, 0);
                }
                *slot
            });
            self.class[k as usize * nw + v.index() / 64] |= 1 << (v.index() % 64);
        }
        self.writes.clear();
        self.writes.resize(nw, 0);
        for x in c.writes_to(l) {
            self.writes[x.index() / 64] |= 1 << (x.index() % 64);
        }
    }
}

/// A dag-consistency predicate `Q(l, u, v, w)`.
///
/// Every predicate of Section 5 factors into two independent conditions,
/// one on `u` and one on `v`; the predicate is their conjunction. `u` is
/// `None` for ⊥ (which precedes every node); `v` and `w` are always real
/// nodes because `u ≺ v ≺ w` forces them to be. Predicates outside this
/// form take [`DynQ`].
pub trait QPredicate {
    /// The predicate's name, used in the model name ("NN", "WW", …).
    const NAME: &'static str;
    /// Whether `u` must be ⊥ or a write to `l` (the first letter "W").
    const U_WRITES: bool;
    /// Whether `v` must write `l` (the second letter "W").
    const V_WRITES: bool;

    /// Evaluates `Q(l, u, v, w)` on computation `c`, from the two
    /// conditions above.
    #[inline]
    fn holds(c: &Computation, l: Location, u: Option<NodeId>, v: NodeId, _w: NodeId) -> bool {
        (!Self::U_WRITES || u.is_none_or(|u| c.op(u).is_write_to(l)))
            && (!Self::V_WRITES || c.op(v).is_write_to(l))
    }
}

/// NN: no conditions — the strongest dag-consistent model.
#[derive(Clone, Copy, Debug, Default)]
pub struct NnPred;

impl QPredicate for NnPred {
    const NAME: &'static str = "NN";
    const U_WRITES: bool = false;
    const V_WRITES: bool = false;
}

/// NW: the middle node `v` writes `l`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NwPred;

impl QPredicate for NwPred {
    const NAME: &'static str = "NW";
    const U_WRITES: bool = false;
    const V_WRITES: bool = true;
}

/// WN: the first node `u` writes `l`, where ⊥ counts as the virtual
/// initial write (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct WnPred;

impl QPredicate for WnPred {
    const NAME: &'static str = "WN";
    const U_WRITES: bool = true;
    const V_WRITES: bool = false;
}

/// WW: both `u` and `v` write `l` — the weakest of the four.
#[derive(Clone, Copy, Debug, Default)]
pub struct WwPred;

impl QPredicate for WwPred {
    const NAME: &'static str = "WW";
    const U_WRITES: bool = true;
    const V_WRITES: bool = true;
}

/// A violated instance `(l, u, v, w)` of Condition 20.1, `u = None`
/// meaning ⊥.
pub type QViolation = (Location, Option<NodeId>, NodeId, NodeId);

/// The Q-dag-consistency model for predicate `Q`.
#[derive(Clone, Copy, Debug, Default)]
pub struct QDag<Q>(std::marker::PhantomData<Q>);

/// NN-dag consistency.
pub type Nn = QDag<NnPred>;
/// NW-dag consistency.
pub type Nw = QDag<NwPred>;
/// WN-dag consistency.
pub type Wn = QDag<WnPred>;
/// WW-dag consistency (the original dag consistency).
pub type Ww = QDag<WwPred>;

/// The lowest element of `a ∩ b`, both given as words.
#[inline]
fn first_common(a: &[u64], b: &[u64]) -> Option<NodeId> {
    let (j, m) = a.iter().zip(b).map(|(x, y)| x & y).enumerate().find(|&(_, m)| m != 0)?;
    Some(NodeId::new(j * 64 + m.trailing_zeros() as usize))
}

impl<Q: QPredicate> QDag<Q> {
    /// The model value (zero-sized).
    pub fn new() -> Self {
        QDag(std::marker::PhantomData)
    }

    /// Finds the first violated instance of Condition 20.1, ordered by
    /// `l`, then `w`, then `u` (⊥ first), then `v`; `None` if consistent.
    pub fn find_violation(c: &Computation, phi: &ObserverFunction) -> Option<QViolation> {
        Self::find_violation_with(c, phi, &mut DagScratch::default())
    }

    /// [`find_violation`] reusing caller-provided scratch buffers.
    ///
    /// [`find_violation`]: QDag::find_violation
    pub(crate) fn find_violation_with(
        c: &Computation,
        phi: &ObserverFunction,
        s: &mut DagScratch,
    ) -> Option<QViolation> {
        let reach = c.reach();
        let nw = c.node_count().div_ceil(64);
        s.cand.resize(nw, 0);
        for l in c.locations() {
            s.classify(c, phi, l, nw);
            for w in c.nodes() {
                let anc = &reach.ancestors(w).words()[..nw];
                let k = phi.get(l, w).map_or(0, |x| s.class_by_value[x.index()] as usize);
                let (same, writes) = (&s.class[k * nw..(k + 1) * nw], &s.writes[..nw]);
                // The middles that break a triple ending at w: Q-allowed
                // ancestors observing other than Φ(l,w).
                let (cand, mut any) = (&mut s.cand[..nw], 0);
                for j in 0..nw {
                    cand[j] = anc[j] & !same[j] & if Q::V_WRITES { writes[j] } else { !0 };
                    any |= cand[j];
                }
                if any == 0 {
                    continue;
                }
                // u = ⊥ case: Φ(l,⊥) = ⊥, so the premise needs
                // Φ(l,w) = ⊥, and v ranges over all ancestors of w.
                if k == 0 {
                    return first_common(anc, cand).map(|v| (l, None, v, w));
                }
                // u ∈ V case: Q-allowed ancestors u observing Φ(l,w),
                // ascending, each with the candidates strictly after it.
                for j in 0..nw {
                    let mut us = anc[j] & same[j] & if Q::U_WRITES { writes[j] } else { !0 };
                    while us != 0 {
                        let u = NodeId::new(j * 64 + us.trailing_zeros() as usize);
                        us &= us - 1;
                        if let Some(v) = first_common(reach.descendants(u).words(), cand) {
                            return Some((l, Some(u), v, w));
                        }
                    }
                }
            }
        }
        None
    }
}

impl<Q: QPredicate> MemoryModel for QDag<Q> {
    fn name(&self) -> &str {
        Q::NAME
    }

    fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        phi.is_valid_for(c) && Self::find_violation(c, phi).is_none()
    }

    fn contains_with(&self, c: &Computation, phi: &ObserverFunction, s: &mut CheckScratch) -> bool {
        phi.is_valid_for(c) && Self::find_violation_with(c, phi, &mut s.dag).is_none()
    }

    fn contains_lanes(
        &self,
        c: &Computation,
        phis: &crate::model::LanePack,
        s: &mut crate::model::LaneScratch,
    ) -> u64 {
        crate::model::lane::qdag_lanes::<Q>(c, phis, s)
    }
}

/// A Q-dag-consistency model with a runtime predicate, for exploring the
/// model family beyond the four named members. The predicate may look at
/// ops only through the locations they write ([`MemoryModel`]'s
/// contract), as Definition 20's predicates do.
pub struct DynQ {
    name: String,
    #[allow(clippy::type_complexity)]
    pred: Box<dyn Fn(&Computation, Location, Option<NodeId>, NodeId, NodeId) -> bool + Send + Sync>,
}

impl DynQ {
    /// Builds a model from a named predicate closure.
    pub fn new<F>(name: impl Into<String>, pred: F) -> Self
    where
        F: Fn(&Computation, Location, Option<NodeId>, NodeId, NodeId) -> bool
            + Send
            + Sync
            + 'static,
    {
        DynQ { name: name.into(), pred: Box::new(pred) }
    }

    /// The first violated instance of Condition 20.1 under the closure,
    /// in [`QDag::find_violation`]'s order; `None` if consistent.
    pub fn find_violation(&self, c: &Computation, phi: &ObserverFunction) -> Option<QViolation> {
        let reach = c.reach();
        for l in c.locations() {
            for w in c.nodes() {
                let phi_w = phi.get(l, w);
                let ancestors = || reach.ancestors(w).iter().map(NodeId::new);
                for u in std::iter::once(None).chain(ancestors().map(Some)) {
                    if u.and_then(|u| phi.get(l, u)) != phi_w {
                        continue;
                    }
                    let mut mids = ancestors().filter(|&v| u.is_none_or(|u| reach.reaches(u, v)));
                    if let Some(v) =
                        mids.find(|&v| (self.pred)(c, l, u, v, w) && phi.get(l, v) != phi_w)
                    {
                        return Some((l, u, v, w));
                    }
                }
            }
        }
        None
    }
}

impl MemoryModel for DynQ {
    fn name(&self) -> &str {
        &self.name
    }

    fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        phi.is_valid_for(c) && self.find_violation(c, phi).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }
    fn l(i: usize) -> Location {
        Location::new(i)
    }

    /// Chain W(0) -> R(0) -> R(0).
    fn chain_wrr() -> Computation {
        Computation::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Read(l(0))],
        )
    }

    #[test]
    fn resurfacing_initial_value_violates_all_four() {
        // W -> R(sees W) -> R(sees ⊥): the initial value resurfaces after
        // the write was observed. The triple (⊥, W, R2) fires under every
        // predicate — ⊥ is the virtual initial write, W is a write middle
        // — so all four dag-consistent models reject (this is the
        // "masking" anomaly the original WW dag consistency already
        // forbade).
        let c = chain_wrr();
        let phi = ObserverFunction::base(&c).with(l(0), n(1), Some(n(0))).with(l(0), n(2), None);
        assert!(phi.is_valid_for(&c));
        assert!(!Nn::new().contains(&c, &phi));
        assert!(!Wn::new().contains(&c, &phi));
        assert!(!Nw::new().contains(&c, &phi));
        assert!(!Ww::new().contains(&c, &phi));
    }

    #[test]
    fn steady_observation_is_nn_consistent() {
        let c = chain_wrr();
        let phi =
            ObserverFunction::base(&c).with(l(0), n(1), Some(n(0))).with(l(0), n(2), Some(n(0)));
        assert!(Nn::new().contains(&c, &phi));
        assert!(Nw::new().contains(&c, &phi));
        assert!(Wn::new().contains(&c, &phi));
        assert!(Ww::new().contains(&c, &phi));
    }

    #[test]
    fn bottom_after_preceding_write_violates_all_four() {
        // Φ(R1)=⊥ with the write preceding: the triple (⊥, W, R1) has
        // Φ(⊥)=⊥=Φ(R1) but Φ(W)=W, with ⊥ the virtual initial write and
        // W a write middle — every predicate fires. A node cannot observe
        // the initial value once a write precedes it, under any
        // dag-consistent model.
        let c = chain_wrr();
        let phi = ObserverFunction::base(&c).with(l(0), n(1), None).with(l(0), n(2), Some(n(0)));
        assert!(phi.is_valid_for(&c));
        assert!(!Nn::new().contains(&c, &phi));
        assert!(!Wn::new().contains(&c, &phi));
        assert!(!Nw::new().contains(&c, &phi));
        assert!(!Ww::new().contains(&c, &phi));
    }

    #[test]
    fn bottom_before_any_write_is_fine_everywhere() {
        // R(⊥) -> W -> R(W): monotone progression from the initial value.
        let c = Computation::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![Op::Read(l(0)), Op::Write(l(0)), Op::Read(l(0))],
        );
        let phi = ObserverFunction::base(&c).with(l(0), n(2), Some(n(1)));
        assert!(Nn::new().contains(&c, &phi));
        assert!(Wn::new().contains(&c, &phi));
        assert!(Nw::new().contains(&c, &phi));
        assert!(Ww::new().contains(&c, &phi));
    }

    #[test]
    fn wn_violation_with_write_endpoint() {
        // W(0)=A -> R=B -> R=C, Φ(B)=⊥?? invalid: B after A can see ⊥.
        // Build: A=W, B observes A, C observes A, middle B' observes other
        // write D (incomparable). Chain A -> B -> C, D incomparable.
        let c = Computation::from_edges(
            4,
            &[(0, 1), (1, 2)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Read(l(0)), Op::Write(l(0))],
        );
        let phi = ObserverFunction::base(&c)
            .with(l(0), n(1), Some(n(3))) // middle sees D
            .with(l(0), n(2), Some(n(0))); // endpoint sees A again
        assert!(phi.is_valid_for(&c));
        // u=A(write) ≺ B ≺ C, Φ(A)=A=Φ(C), Φ(B)=D ≠ A: violates WN and NN.
        assert!(!Wn::new().contains(&c, &phi));
        assert!(!Nn::new().contains(&c, &phi));
        // NW: needs middle to be a write; B is a read — no violation.
        assert!(Nw::new().contains(&c, &phi));
        assert!(Ww::new().contains(&c, &phi));
    }

    #[test]
    fn nw_violation_with_write_middle() {
        // A=W -> D=W -> C=R with Φ(C)=A: middle is a write observing
        // itself, endpoints both observe A.
        let c = Computation::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![Op::Write(l(0)), Op::Write(l(0)), Op::Read(l(0))],
        );
        let phi = ObserverFunction::base(&c).with(l(0), n(2), Some(n(0)));
        assert!(phi.is_valid_for(&c));
        // u=A ≺ v=D ≺ w=C: Φ(A)=A=Φ(C), Φ(D)=D≠A, op(v)=W: violates NW,
        // WW, WN (op(u)=W too), NN.
        assert!(!Nw::new().contains(&c, &phi));
        assert!(!Ww::new().contains(&c, &phi));
        assert!(!Wn::new().contains(&c, &phi));
        assert!(!Nn::new().contains(&c, &phi));
    }

    #[test]
    fn theorem_21_nn_strongest_on_samples() {
        // Every NN pair is in every Q-model: spot-check via enumeration on
        // a small computation (the exhaustive version lives in relation.rs).
        let c = Computation::from_edges(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Write(l(0)), Op::Read(l(0))],
        );
        let mut checked = 0;
        let _ = crate::enumerate::for_each_observer(&c, |phi| {
            if Nn::new().contains(&c, phi) {
                assert!(Nw::new().contains(&c, phi));
                assert!(Wn::new().contains(&c, phi));
                assert!(Ww::new().contains(&c, phi));
                checked += 1;
            }
            std::ops::ControlFlow::Continue(())
        });
        assert!(checked > 0);
    }

    #[test]
    fn dynq_matches_static_counterparts() {
        let c = chain_wrr();
        let dyn_nn = DynQ::new("NN-dyn", |_, _, _, _, _| true);
        let dyn_ww = DynQ::new("WW-dyn", |c: &Computation, l, u, v, _| {
            u.is_none_or(|u| c.op(u).is_write_to(l)) && c.op(v).is_write_to(l)
        });
        let _ = crate::enumerate::for_each_observer(&c, |phi| {
            assert_eq!(dyn_nn.contains(&c, phi), Nn::new().contains(&c, phi));
            assert_eq!(dyn_ww.contains(&c, phi), Ww::new().contains(&c, phi));
            std::ops::ControlFlow::Continue(())
        });
        assert_eq!(dyn_nn.name(), "NN-dyn");
    }

    /// The between-set walk the word-mask kernel replaced: every triple
    /// `u ≺ v ≺ w` in order, one `Q::holds` call per middle.
    fn oracle_violation<Q: QPredicate>(
        c: &Computation,
        phi: &ObserverFunction,
    ) -> Option<QViolation> {
        let reach = c.reach();
        for l in c.locations() {
            for w in c.nodes() {
                let phi_w = phi.get(l, w);
                if phi_w.is_none() {
                    for v_idx in reach.ancestors(w).iter() {
                        let v = NodeId::new(v_idx);
                        if Q::holds(c, l, None, v, w) && phi.get(l, v).is_some() {
                            return Some((l, None, v, w));
                        }
                    }
                }
                for u_idx in reach.ancestors(w).iter() {
                    let u = NodeId::new(u_idx);
                    if phi.get(l, u) != phi_w {
                        continue;
                    }
                    for v_idx in reach.between(u, w).iter() {
                        let v = NodeId::new(v_idx);
                        if Q::holds(c, l, Some(u), v, w) && phi.get(l, v) != phi_w {
                            return Some((l, Some(u), v, w));
                        }
                    }
                }
            }
        }
        None
    }

    /// Asserts `QDag<Q>`'s first triple equals the oracle's and the
    /// matching `DynQ` closure's; true if there is one.
    fn assert_first_triple<Q: QPredicate + 'static>(
        c: &Computation,
        phi: &ObserverFunction,
        s: &mut DagScratch,
    ) -> bool {
        let got = QDag::<Q>::find_violation_with(c, phi, s);
        assert_eq!(got, oracle_violation::<Q>(c, phi), "{} on {c:?} / {phi:?}", Q::NAME);
        let dynq = DynQ::new(Q::NAME, Q::holds);
        assert_eq!(got, dynq.find_violation(c, phi), "{} closure on {c:?}", Q::NAME);
        got.is_some()
    }

    /// Checks all four predicates on one pair; returns how many fire.
    fn assert_all_four(c: &Computation, phi: &ObserverFunction, s: &mut DagScratch) -> u64 {
        u64::from(assert_first_triple::<NnPred>(c, phi, s))
            + u64::from(assert_first_triple::<NwPred>(c, phi, s))
            + u64::from(assert_first_triple::<WnPred>(c, phi, s))
            + u64::from(assert_first_triple::<WwPred>(c, phi, s))
    }

    /// Every valid pair of the universe; returns (pairs, violations).
    fn assert_universe_matches_oracle(nodes: usize, locs: usize) -> (u64, u64) {
        use std::ops::ControlFlow;
        let mut s = DagScratch::default();
        let (mut pairs, mut violations) = (0, 0);
        let _ = crate::universe::Universe::new(nodes, locs).for_each_computation(|c| {
            let _ = crate::enumerate::for_each_observer(c, |phi| {
                violations += assert_all_four(c, phi, &mut s);
                pairs += 1;
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        });
        (pairs, violations)
    }

    #[test]
    fn first_triple_matches_oracle_on_bound4x2_universe() {
        assert_eq!(assert_universe_matches_oracle(4, 2), (344_223, 678_244));
    }

    #[test]
    #[ignore = "release-only: ci.sh runs it with --ignored"]
    fn first_triple_matches_oracle_on_bound5_universe() {
        // 998,180 valid pairs; a violation per (pair, predicate) that fires.
        assert_eq!(assert_universe_matches_oracle(5, 1), (998_180, 1_745_312));
    }

    #[test]
    fn first_triple_matches_oracle_past_64_nodes() {
        // G(n, p) dags of 65–130 nodes (edges run low to high, so index
        // order is a topological sort) under the sequential observer of
        // that sort, which no predicate rejects, then with a few cells
        // late in the order re-pointed at random: violations whose nodes
        // sit in the second word and beyond.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut s = DagScratch::default();
        let (mut violations, mut past_64) = (0, 0);
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let size = rng.gen_range(65..=130);
            let dag = ccmm_dag::generate::gnp_dag(size, rng.gen_range(0.02..0.1), &mut rng);
            let ops = (0..size)
                .map(|_| match rng.gen_range(0..5) {
                    0 => Op::Write(l(0)),
                    1 => Op::Write(l(1)),
                    2 => Op::Read(l(0)),
                    3 => Op::Read(l(1)),
                    _ => Op::Nop,
                })
                .collect();
            let c = Computation::new(dag, ops).unwrap();
            let mut phi = ObserverFunction::from_fn(&c, |l, v| {
                c.writes_to(l).iter().copied().take_while(|w| *w <= v).last()
            });
            assert_eq!(assert_all_four(&c, &phi, &mut s), 0, "the sequential observer is NN");
            for _ in 0..rng.gen_range(1..=3) {
                let loc = l(rng.gen_range(0..2));
                let writes = c.writes_to(loc);
                let x = rng.gen_range(0..=writes.len());
                phi.set(loc, n(rng.gen_range(size / 2..size)), writes.get(x).copied());
            }
            violations += assert_all_four(&c, &phi, &mut s);
            if let Some((_, u, v, _)) = Nn::find_violation(&c, &phi) {
                past_64 += u64::from(u.is_some_and(|u| u.index() >= 64) || v.index() >= 64);
            }
        }
        assert!(violations > 40, "only {violations} violations exercised");
        assert!(past_64 > 5, "only {past_64} triples reach past the first word");
    }

    #[test]
    fn find_violation_reports_triple() {
        let c = chain_wrr();
        let phi = ObserverFunction::base(&c).with(l(0), n(1), Some(n(0))).with(l(0), n(2), None);
        let v = Nn::find_violation(&c, &phi);
        assert!(v.is_some());
        let (loc, u, mid, w) = v.unwrap();
        assert_eq!(loc, l(0));
        assert_eq!(u, None);
        // Ancestors of n2 are scanned in index order, so n0 (which also
        // observes a non-⊥ value) is reported before n1.
        assert_eq!(mid, n(0));
        assert_eq!(w, n(2));
    }

    #[test]
    fn invalid_observer_not_in_any_qmodel() {
        let c = chain_wrr();
        let bad = ObserverFunction::bottom(1, 3); // write not self-observing
        assert!(!Nn::new().contains(&c, &bad));
        assert!(!Ww::new().contains(&c, &bad));
    }
}
