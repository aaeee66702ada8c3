//! The online consistency game (Section 3's motivation, played out).
//!
//! "Suppose that, instead of being given completely at the beginning of
//! an execution, a computation is revealed one node at a time by an
//! adversary. … Constructibility says that this situation cannot happen:
//! if Φ is a valid observer function in a constructible model, then there
//! is always a way to extend Φ."
//!
//! An [`OnlineSession`] is that game: the adversary calls
//! [`OnlineSession::reveal`] with each new node's predecessors and op;
//! the session greedily commits an observation row keeping the cumulative
//! pair inside its model. For a **constructible** model any
//! membership-preserving choice works — the session can never jam. For a
//! nonconstructible model (NN, NW, WN) greedy play walks into traps:
//! revealing Figure 4 jams a greedy NN session. Little lookahead saves
//! it: in EXPERIMENTS E13 an NN player with lookahead 1 never jams.
//! ROADMAP item 1 explains why: NN* measures as the NN pairs with a
//! fresh value at every location, one augmentation deep. It also shows
//! that LC ⊊ NN* from five nodes on, so a player that never jams is not
//! thereby an LC player, whatever Theorem 23 says.

use crate::computation::Computation;
use crate::model::MemoryModel;
use crate::observer::ObserverFunction;
use crate::op::Op;
use ccmm_dag::NodeId;

/// The online algorithm is stuck: no observation row for the newly
/// revealed node keeps the pair in the model.
#[derive(Clone, Debug)]
pub struct Stuck {
    /// The computation including the unplaceable node.
    pub computation: Computation,
    /// The committed observer function on the prefix.
    pub prefix_phi: ObserverFunction,
    /// The op of the node that could not be placed.
    pub op: Op,
}

impl std::fmt::Display for Stuck {
    /// A fixed-size summary: node/op counts plus at most
    /// [`Stuck::MAX_FRONTIER_SHOWN`] frontier nodes. Debug-printing the
    /// whole computation and observer here made every jam message O(L·n)
    /// — at streaming scale, megabytes per line. The full witness stays
    /// in the struct fields for programmatic consumers.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.computation;
        let (mut writes, mut reads) = (0usize, 0usize);
        for op in c.ops() {
            match op {
                Op::Write(_) => writes += 1,
                Op::Read(_) => reads += 1,
                Op::Nop => {}
            }
        }
        write!(
            f,
            "online algorithm stuck placing {} ({} nodes: {writes} writes, {reads} reads over {} locations; frontier",
            self.op,
            c.node_count(),
            c.num_locations(),
        )?;
        let leaves = c.dag().leaves();
        for u in leaves.iter().take(Self::MAX_FRONTIER_SHOWN) {
            write!(f, " {u}:{}", c.op(*u))?;
        }
        if leaves.len() > Self::MAX_FRONTIER_SHOWN {
            write!(f, " …+{}", leaves.len() - Self::MAX_FRONTIER_SHOWN)?;
        }
        write!(f, ")")
    }
}

impl Stuck {
    /// Frontier nodes shown by the `Display` summary.
    pub const MAX_FRONTIER_SHOWN: usize = 8;
}

impl std::error::Error for Stuck {}

/// A running online game for model `M`.
pub struct OnlineSession<M> {
    model: M,
    /// Lookahead depth: a candidate row must survive this many steps of
    /// the exact extension test before being committed. 0 = pure greedy.
    pub lookahead: usize,
    /// Alphabet used for lookahead probing.
    alphabet: Vec<Op>,
    c: Computation,
    phi: ObserverFunction,
    /// Memoized checker working memory, reused across reveals.
    scratch: crate::model::CheckScratch,
    /// Set on the first jam: the session is poisoned — further reveals
    /// return the same [`Stuck`] without touching the committed state,
    /// which stays queryable (the last good prefix).
    jammed: Option<Stuck>,
}

impl<M: MemoryModel> OnlineSession<M> {
    /// Starts a session on the empty computation. `num_locations` sets
    /// the alphabet used by lookahead probing.
    pub fn new(model: M, num_locations: usize) -> Self {
        OnlineSession {
            model,
            lookahead: 0,
            alphabet: Op::all(num_locations),
            c: Computation::empty(),
            phi: ObserverFunction::empty(),
            scratch: crate::model::CheckScratch::new(),
            jammed: None,
        }
    }

    /// Sets the lookahead depth (builder style).
    pub fn with_lookahead(mut self, k: usize) -> Self {
        self.lookahead = k;
        self
    }

    /// The computation revealed so far.
    pub fn computation(&self) -> &Computation {
        &self.c
    }

    /// The observation rows committed so far.
    pub fn observer(&self) -> &ObserverFunction {
        &self.phi
    }

    /// Has a previous reveal jammed? A jammed session is poisoned: it
    /// refuses further reveals (returning the original [`Stuck`]) but the
    /// committed prefix stays queryable via [`computation`](Self::computation)
    /// and [`observer`](Self::observer).
    pub fn is_jammed(&self) -> bool {
        self.jammed.is_some()
    }

    /// The jam that poisoned this session, if any.
    pub fn jam(&self) -> Option<&Stuck> {
        self.jammed.as_ref()
    }

    /// The adversary reveals one node. The session extends the
    /// computation, searches for an observation row for the new node that
    /// keeps (C, Φ) in the model (and, with lookahead, survivable), and
    /// commits the first one found.
    ///
    /// Returns the committed row (one entry per location of the extended
    /// computation), or [`Stuck`].
    ///
    /// ```
    /// use ccmm_core::online::OnlineSession;
    /// use ccmm_core::{Lc, Location, Op};
    /// use ccmm_dag::NodeId;
    ///
    /// let mut game = OnlineSession::new(Lc, 1);
    /// game.reveal(&[], Op::Write(Location::new(0))).unwrap();
    /// let row = game.reveal(&[NodeId::new(0)], Op::Read(Location::new(0))).unwrap();
    /// // LC never jams (Theorem 19), and the committed row is in range.
    /// assert!(row[0].is_none() || row[0] == Some(NodeId::new(0)));
    /// ```
    // Witness-rich error types are the point of these APIs.
    #[allow(clippy::result_large_err)]
    pub fn reveal(&mut self, preds: &[NodeId], op: Op) -> Result<Vec<Option<NodeId>>, Stuck> {
        if let Some(jam) = &self.jammed {
            return Err(jam.clone());
        }
        let old_locs = self.phi.num_locations();
        let new = self.grow(preds, op);
        // Fast path: extend everything in place and commit the *first*
        // admissible row (identical to what `reveal_choose(.., |_| 0)`
        // would pick — the enumeration order is the same), early-exiting
        // instead of collecting and cloning every admissible Φ.
        let OnlineSession { model, lookahead, alphabet, c, phi, scratch, .. } = self;
        let c: &Computation = c;
        let found = crate::props::any_extension_in_place(c, phi, |phi2| {
            crate::telemetry::count(crate::telemetry::Counter::OnlineProbes, 1);
            model.contains_incremental(c, phi2, new, scratch)
                && (*lookahead == 0
                    || crate::constructible::survives_lookahead(
                        model, c, phi2, *lookahead, alphabet,
                    ))
        });
        if !found {
            return Err(self.jam_now(op, old_locs));
        }
        crate::telemetry::count(crate::telemetry::Counter::OnlineReveals, 1);
        Ok(self.c.locations().map(|l| self.phi.get(l, new)).collect())
    }

    /// Extends the committed state in place by one node: dag, closure,
    /// write index, and an all-⊥ observer column (plus location rows if
    /// the op names a new location).
    fn grow(&mut self, preds: &[NodeId], op: Op) -> NodeId {
        let new = self.c.push(preds, op).expect("extension preds in range");
        self.phi.push_node();
        let locs = self.c.num_locations();
        if locs > self.phi.num_locations() {
            let missing = locs - self.phi.num_locations();
            self.phi.push_locations(missing);
        }
        new
    }

    /// Rolls back the in-place extension after a failed reveal and
    /// poisons the session. The extended computation is cloned once into
    /// the witness; the committed state returns to the last good prefix.
    fn jam_now(&mut self, op: Op, old_locs: usize) -> Stuck {
        crate::telemetry::count(crate::telemetry::Counter::OnlineJams, 1);
        let extended = self.c.clone();
        self.c.pop_last();
        self.phi.pop_node();
        self.phi.truncate_locations(old_locs);
        let stuck = Stuck { computation: extended, prefix_phi: self.phi.clone(), op };
        self.jammed = Some(stuck.clone());
        stuck
    }

    /// Like [`reveal`](Self::reveal), but the caller picks among *all*
    /// admissible observer functions for the extended computation —
    /// `chooser` receives the candidates and returns an index. This is
    /// how the tests (and experiment E4's online demonstration) drive a
    /// membership-preserving but short-sighted NN player into the
    /// Figure-4 corner: every individual choice keeps NN, yet the chosen
    /// state has no future.
    // Witness-rich error types are the point of these APIs.
    #[allow(clippy::result_large_err)]
    pub fn reveal_choose<F>(
        &mut self,
        preds: &[NodeId],
        op: Op,
        chooser: F,
    ) -> Result<Vec<Option<NodeId>>, Stuck>
    where
        F: FnOnce(&[ObserverFunction]) -> usize,
    {
        if let Some(jam) = &self.jammed {
            return Err(jam.clone());
        }
        let old_locs = self.phi.num_locations();
        let new = self.grow(preds, op);
        let mut admissible: Vec<ObserverFunction> = Vec::new();
        {
            let OnlineSession { model, lookahead, alphabet, c, phi, scratch, .. } = self;
            let c: &Computation = c;
            let _ = crate::props::any_extension_in_place(c, phi, |phi2| {
                crate::telemetry::count(crate::telemetry::Counter::OnlineProbes, 1);
                let ok = model.contains_incremental(c, phi2, new, scratch)
                    && (*lookahead == 0
                        || crate::constructible::survives_lookahead(
                            model, c, phi2, *lookahead, alphabet,
                        ));
                if ok {
                    admissible.push(phi2.clone());
                }
                false // keep enumerating: collect every admissible row
            });
        }
        if admissible.is_empty() {
            return Err(self.jam_now(op, old_locs));
        }
        crate::telemetry::count(crate::telemetry::Counter::OnlineReveals, 1);
        let idx = chooser(&admissible).min(admissible.len() - 1);
        self.phi = admissible.swap_remove(idx);
        Ok(self.c.locations().map(|l| self.phi.get(l, new)).collect())
    }

    /// Replays a whole computation through the session in node order
    /// (nodes must be topologically numbered, as all our constructors
    /// guarantee). Returns the final observer function or the first jam.
    // Witness-rich error types are the point of these APIs.
    #[allow(clippy::result_large_err)]
    pub fn replay(mut self, c: &Computation) -> Result<ObserverFunction, Stuck> {
        for u in c.nodes() {
            let preds: Vec<NodeId> = c.dag().predecessors(u).to_vec();
            self.reveal(&preds, c.op(u))?;
        }
        Ok(self.phi)
    }
}

/// Convenience: can greedy play for `model` survive revealing `c` node by
/// node (with the given lookahead)?
pub fn greedy_survives<M: MemoryModel>(model: M, c: &Computation, lookahead: usize) -> bool {
    OnlineSession::new(model, c.num_locations()).with_lookahead(lookahead).replay(c).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Lc, Nn, Sc, Ww};
    use crate::op::Location;

    fn l(i: usize) -> Location {
        Location::new(i)
    }

    #[test]
    fn session_tracks_revealed_computation() {
        let mut s = OnlineSession::new(Lc, 1);
        let row = s.reveal(&[], Op::Write(l(0))).unwrap();
        assert_eq!(row, vec![Some(NodeId::new(0))]);
        let row = s.reveal(&[NodeId::new(0)], Op::Read(l(0))).unwrap();
        // Greedy LC picks the first candidate the enumerator offers.
        assert!(row[0].is_none() || row[0] == Some(NodeId::new(0)));
        assert_eq!(s.computation().node_count(), 2);
        assert!(Lc.contains(s.computation(), s.observer()));
    }

    #[test]
    fn greedy_nn_jams_on_figure_4() {
        // Reveal A, B (parallel writes), then C observing... the greedy
        // session picks rows itself; to force the crossing we reveal C
        // and D and check whether ANY play survives F. Greedy may or may
        // not pick the trap — so instead drive the exact Figure-4 prefix
        // through `replay` and at least one reveal order must jam a
        // 0-lookahead NN session *if greedy happens to cross*. The robust
        // statement: the Figure-4 pair itself cannot place F.
        let w = crate::witness::figure4_prefix();
        let full = crate::witness::figure4_full(Op::Read(l(0)));
        let stuck =
            !crate::props::any_extension(&full, &w.phi, |p| Nn::default().contains(&full, p));
        assert!(stuck);
        // And a greedy session with lookahead 1 refuses the trap early:
        // after revealing A, B, C(obs A), it will never commit D → B.
        let mut s = OnlineSession::new(Nn::default(), 1).with_lookahead(1);
        s.reveal(&[], Op::Write(l(0))).unwrap(); // A = n0
        s.reveal(&[], Op::Write(l(0))).unwrap(); // B = n1
        let row_c = s.reveal(&[NodeId::new(0), NodeId::new(1)], Op::Read(l(0))).unwrap();
        let row_d = s.reveal(&[NodeId::new(0), NodeId::new(1)], Op::Read(l(0))).unwrap();
        // The two reads must NOT observe different writes (the crossing
        // is exactly what lookahead-1 rejects).
        assert!(
            !(row_c[0] != row_d[0] && row_c[0].is_some() && row_d[0].is_some()),
            "lookahead-1 NN committed the Figure-4 trap: {row_c:?} vs {row_d:?}"
        );
        // It can still finish the computation.
        s.reveal(&[NodeId::new(2), NodeId::new(3)], Op::Read(l(0))).unwrap();
    }

    #[test]
    fn greedy_constructible_models_never_jam_on_random_reveals() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for _ in 0..30 {
            let dag = ccmm_dag::generate::gnp_dag(8, 0.3, &mut rng);
            let ops: Vec<Op> = (0..8)
                .map(|i| match i % 3 {
                    0 => Op::Write(l(i % 2)),
                    1 => Op::Read(l((i + 1) % 2)),
                    _ => Op::Nop,
                })
                .collect();
            let c = Computation::new(dag, ops).unwrap();
            assert!(greedy_survives(Lc, &c, 0), "greedy LC jammed on {c:?}");
            assert!(greedy_survives(Sc, &c, 0), "greedy SC jammed on {c:?}");
            assert!(greedy_survives(Ww::default(), &c, 0), "greedy WW jammed on {c:?}");
        }
    }

    #[test]
    fn short_sighted_nn_player_jams_on_figure_4_reveals() {
        // Every individual choice below keeps the pair in NN; the
        // *crossing* choice for D (pick the candidate observing the other
        // writer) leads to a state from which the final read cannot be
        // placed — the online face of nonconstructibility.
        let mut s = OnlineSession::new(Nn::default(), 1);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        s.reveal(&[], Op::Write(l(0))).unwrap(); // A
        s.reveal(&[], Op::Write(l(0))).unwrap(); // B
                                                 // C observes A (chooser: find the candidate whose new row is A).
        s.reveal_choose(&[a, b], Op::Read(l(0)), |cands| {
            cands
                .iter()
                .position(|p| p.get(l(0), NodeId::new(2)) == Some(a))
                .expect("observing A keeps NN")
        })
        .unwrap();
        // D observes B — NN-consistent (no path relates C and D)...
        s.reveal_choose(&[a, b], Op::Read(l(0)), |cands| {
            cands
                .iter()
                .position(|p| p.get(l(0), NodeId::new(3)) == Some(b))
                .expect("observing B keeps NN")
        })
        .unwrap();
        assert!(Nn::default().contains(s.computation(), s.observer()));
        // ...but not LC: the session has left the constructible core.
        assert!(!Lc.contains(s.computation(), s.observer()));
        // The adversary now reveals F after C and D: jam.
        let err = s
            .reveal(&[NodeId::new(2), NodeId::new(3)], Op::Read(l(0)))
            .expect_err("Figure 4 says this placement is impossible");
        assert_eq!(err.op, Op::Read(l(0)));
        assert_eq!(err.computation.node_count(), 5);
    }

    #[test]
    fn greedy_nn_jams_only_from_outside_lc() {
        // Theorem 23's online reading: LC states always extend (LC is
        // constructible and ⊆ NN), so whenever a membership-preserving NN
        // session jams, the state it jammed from must already have left
        // LC. Verify over random reveals, and record that greedy-first NN
        // does escape LC in practice (the crossing is sometimes the first
        // admissible row).
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let mut left_lc = 0;
        let mut jams = 0;
        // 200 rounds: the escape event is RNG-stream-dependent, and the
        // vendored StdRng (xoshiro256++) walks a different stream than
        // upstream's ChaCha; a wider net keeps the check robust.
        for _ in 0..200 {
            let dag = ccmm_dag::generate::gnp_dag(7, 0.35, &mut rng);
            let ops: Vec<Op> =
                (0..7).map(|i| if i < 3 { Op::Write(l(0)) } else { Op::Read(l(0)) }).collect();
            let c = Computation::new(dag, ops).unwrap();
            let mut s = OnlineSession::new(Nn::default(), 1);
            let mut was_in_lc = true;
            for u in c.nodes() {
                let preds: Vec<NodeId> = c.dag().predecessors(u).to_vec();
                match s.reveal(&preds, c.op(u)) {
                    Ok(_) => {
                        let in_lc = Lc.contains(s.computation(), s.observer());
                        if !in_lc {
                            left_lc += 1;
                        }
                        was_in_lc = in_lc;
                    }
                    Err(_) => {
                        jams += 1;
                        assert!(
                            !was_in_lc,
                            "an NN session jammed from *inside* LC on {c:?} — \
                             contradicts LC's constructibility"
                        );
                        break;
                    }
                }
            }
        }
        assert!(left_lc > 0, "expected greedy-first NN to escape LC somewhere");
        // Jams may or may not occur depending on what the adversary
        // reveals after the escape; both outcomes are consistent.
        let _ = jams;
    }

    /// Drives an NN session into the Figure-4 trap (same reveal sequence
    /// as `short_sighted_nn_player_jams_on_figure_4_reveals`) and returns
    /// it jammed.
    fn jammed_nn_session() -> OnlineSession<Nn> {
        let mut s = OnlineSession::new(Nn::default(), 1);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        s.reveal(&[], Op::Write(l(0))).unwrap();
        s.reveal(&[], Op::Write(l(0))).unwrap();
        s.reveal_choose(&[a, b], Op::Read(l(0)), |cands| {
            cands.iter().position(|p| p.get(l(0), NodeId::new(2)) == Some(a)).unwrap()
        })
        .unwrap();
        s.reveal_choose(&[a, b], Op::Read(l(0)), |cands| {
            cands.iter().position(|p| p.get(l(0), NodeId::new(3)) == Some(b)).unwrap()
        })
        .unwrap();
        s.reveal(&[NodeId::new(2), NodeId::new(3)], Op::Read(l(0))).unwrap_err();
        s
    }

    #[test]
    fn jammed_session_is_poisoned_but_queryable() {
        let s = jammed_nn_session();
        assert!(s.is_jammed());
        // The committed state is the last good 4-node prefix — the
        // unplaceable node was never committed — and it is still in NN.
        assert_eq!(s.computation().node_count(), 4);
        assert!(Nn::default().contains(s.computation(), s.observer()));
        // The stored jam carries the full witness.
        let jam = s.jam().expect("jam witness retained");
        assert_eq!(jam.op, Op::Read(l(0)));
        assert_eq!(jam.computation.node_count(), 5);
    }

    #[test]
    fn reveal_after_jam_returns_the_jam_without_panicking() {
        let mut s = jammed_nn_session();
        let before = s.computation().clone();
        // A fresh reveal — even one that would be trivially placeable on
        // a healthy session — is refused with the original jam.
        let err = s.reveal(&[], Op::Nop).expect_err("poisoned session must refuse reveals");
        assert_eq!(err.op, Op::Read(l(0)), "the *original* jam is returned");
        assert_eq!(err.computation.node_count(), 5);
        // State untouched: still the 4-node prefix, still queryable.
        assert_eq!(s.computation().node_count(), before.node_count());
        assert!(s.is_jammed());
        // And a second refused reveal behaves identically (no panic, no
        // state drift).
        let err2 = s.reveal(&[NodeId::new(0)], Op::Read(l(0))).unwrap_err();
        assert_eq!(err2.op, err.op);
        assert_eq!(s.computation().node_count(), 4);
    }

    #[test]
    fn healthy_session_reports_not_jammed() {
        let mut s = OnlineSession::new(Lc, 1);
        assert!(!s.is_jammed());
        assert!(s.jam().is_none());
        s.reveal(&[], Op::Write(l(0))).unwrap();
        assert!(!s.is_jammed());
    }

    #[test]
    fn stuck_error_is_informative() {
        let w = crate::witness::figure4_prefix();
        // Build a session that *is* in the trap state by replaying the
        // exact prefix pair: commit rows matching the witness by
        // controlling candidate order is fragile, so instead assert the
        // Stuck display formatting on a synthetic value.
        let stuck = Stuck {
            computation: w.computation.clone(),
            prefix_phi: w.phi.clone(),
            op: Op::Read(l(0)),
        };
        let msg = stuck.to_string();
        assert!(msg.contains("stuck placing R(l0)"));
    }

    #[test]
    fn stuck_display_is_bounded_on_large_computations() {
        // A 400-node antichain of writes: the old Display debug-printed
        // the whole computation and observer (O(L·n) characters); the
        // summary must stay fixed-size with counts and a capped frontier.
        let n = 400;
        let ops: Vec<Op> = (0..n).map(|_| Op::Write(l(0))).collect();
        let c = Computation::from_edges(n, &[], ops);
        let stuck = Stuck {
            computation: c,
            prefix_phi: crate::observer::ObserverFunction::bottom(1, n),
            op: Op::Read(l(0)),
        };
        let msg = stuck.to_string();
        assert!(msg.contains("stuck placing R(l0)"), "{msg}");
        assert!(msg.contains("400 nodes"), "{msg}");
        assert!(msg.contains(&format!("…+{}", n - Stuck::MAX_FRONTIER_SHOWN)), "{msg}");
        assert!(msg.len() < 300, "Display must stay fixed-size, got {} chars: {msg}", msg.len());
    }

    #[test]
    fn reveal_and_reveal_choose_commit_identical_rows() {
        // The early-exit fast path must commit exactly the row the
        // collect-all path's index 0 denotes, for every model and a
        // non-trivial reveal sequence.
        let reveals: Vec<(Vec<usize>, Op)> = vec![
            (vec![], Op::Write(l(0))),
            (vec![], Op::Write(l(0))),
            (vec![0], Op::Read(l(0))),
            (vec![0, 1], Op::Write(l(1))),
            (vec![2, 3], Op::Read(l(1))),
            (vec![2], Op::Read(l(0))),
            (vec![4, 5], Op::Nop),
        ];
        for m in crate::model::Model::ALL {
            let mut fast = OnlineSession::new(m, 2);
            let mut slow = OnlineSession::new(m, 2);
            for (preds, op) in &reveals {
                let preds: Vec<NodeId> = preds.iter().map(|&i| NodeId::new(i)).collect();
                let a = fast.reveal(&preds, *op).unwrap();
                let b = slow.reveal_choose(&preds, *op, |_| 0).unwrap();
                assert_eq!(a, b, "model {m}: fast path diverged from collect-all index 0");
            }
            assert_eq!(fast.observer(), slow.observer(), "model {m}");
            assert_eq!(fast.computation(), slow.computation(), "model {m}");
        }
    }
}
