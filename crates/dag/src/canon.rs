//! Canonical forms of small posets, with orbit and automorphism counts.
//!
//! The universe sweeps in `ccmm-core` enumerate *naturally labelled*
//! posets (see [`crate::poset`]), but every memory-model property they
//! check is invariant under dag isomorphism — the sweep does `e(P)/|Aut|`
//! times more work per isomorphism class than necessary. This module
//! computes, for small dags:
//!
//! * a **canonical key** identifying the isomorphism class: the
//!   lexicographically least ancestor-mask vector over all linear
//!   extensions, which is exactly the *first* member of the class in
//!   [`crate::poset::for_each_poset`] enumeration order;
//! * the **orbit size**: how many naturally labelled posets are
//!   isomorphic to it (`e(P) / |Aut(P)|` — two linear extensions induce
//!   the same labelling iff they differ by an automorphism);
//! * the **automorphism count** `|Aut(P)|`.
//!
//! A sweep over canonical representatives only, weighting each by its
//! orbit, therefore reproduces labelled-sweep counts *exactly* — integer
//! for integer — while scanning A000112 (1, 1, 2, 5, 16, 63, 318)
//! classes per size instead of A006455 (1, 1, 2, 7, 40, 357, 4824)
//! labelled posets.
//!
//! [`canon_info`] handles any dag by enumerating its linear extensions.
//! [`for_each_canonical_poset`] enumerates none: it tests each naturally
//! labelled poset against its own mask vector by a pruned search over
//! topological prefixes, whose surviving leaves are exactly the
//! automorphisms, and counts `e(P)` by a dynamic program over down-sets.
//! The two agree on every labelled poset of up to 7 nodes (unit tests).
//!
//! The search hands each representative's automorphisms to the caller
//! as node permutations, so a sweep can quotient a poset's op labellings
//! by `Aut(P)` as well: a labelling and its image under an automorphism
//! are isomorphic computations. The recorded leaves equal a brute force
//! over all `n!` permutations on every canonical poset of up to 7 nodes
//! (unit tests).

use crate::graph::{Dag, NodeId};
use crate::poset::{dag_from_masks, for_each_poset_masks};
use crate::topo::for_each_topo_sort;
use std::cmp::Ordering;
use std::ops::ControlFlow;

/// The isomorphism-class data of one dag: canonical key, orbit size, and
/// automorphism count. Produced by [`canon_info`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonInfo {
    /// The class's canonical ancestor-mask vector: entry `j` is the bitmask
    /// of (relabelled) ancestors of node `j` in the canonical labelling.
    pub key: Vec<u32>,
    /// Whether the input dag *is* the canonical representative (its own
    /// ancestor-mask vector equals `key`; always false when the dag is not
    /// naturally labelled).
    pub is_canonical: bool,
    /// Number of naturally labelled posets isomorphic to the input:
    /// `extensions / automorphisms`.
    pub orbit: u64,
    /// `|Aut(P)|`, the number of poset automorphisms.
    pub automorphisms: u64,
    /// `e(P)`, the number of linear extensions.
    pub extensions: u64,
}

/// Computes the [`CanonInfo`] of `dag`, which must be transitively closed
/// (every strict precedence pair an explicit edge, as the poset enumerator
/// emits). Enumerates all linear extensions, so `n` must stay small.
///
/// This is the reference for any dag, naturally labelled or not; the
/// sweeps ask only about naturally labelled posets, and
/// [`for_each_canonical_poset`] answers those without the enumeration.
pub fn canon_info(dag: &Dag) -> CanonInfo {
    let n = dag.node_count();
    assert!(n <= 10, "canonical form enumerates linear extensions; n={n} is too large");
    // Each linear extension t relabels the poset: new node j = t[j], whose
    // ancestor mask is the positions of t[j]'s ancestors under t. The
    // relabelled poset is naturally labelled (ancestors precede in t), and
    // every natural labelling of the class arises this way.
    let mut pos = vec![0usize; n];
    let mut vectors: Vec<Vec<u32>> = Vec::new();
    let _ = for_each_topo_sort(dag, |t| {
        for (i, u) in t.iter().enumerate() {
            pos[u.index()] = i;
        }
        let key: Vec<u32> = t
            .iter()
            .map(|&v| dag.predecessors(v).iter().fold(0u32, |m, u| m | (1 << pos[u.index()])))
            .collect();
        vectors.push(key);
        ControlFlow::Continue(())
    });
    let extensions = vectors.len() as u64;
    // The dag's own vector, defined only when it is naturally labelled.
    let self_key: Option<Vec<u32>> = dag.edges().all(|(u, v)| u.index() < v.index()).then(|| {
        (0..n)
            .map(|v| {
                dag.predecessors(NodeId::new(v)).iter().fold(0u32, |m, u| m | (1 << u.index()))
            })
            .collect()
    });
    vectors.sort_unstable();
    vectors.dedup();
    let orbit = vectors.len() as u64;
    let key = vectors.into_iter().next().expect("every dag has at least one linear extension");
    CanonInfo {
        is_canonical: self_key.as_ref() == Some(&key),
        orbit,
        automorphisms: extensions / orbit,
        extensions,
        key,
    }
}

/// The canonical key of `dag`'s isomorphism class (see [`canon_info`]).
pub fn canonical_key(dag: &Dag) -> Vec<u32> {
    canon_info(dag).key
}

/// The canonical representative of `dag`'s class as a transitive-closure
/// dag — the first isomorphic naturally labelled poset in
/// [`crate::poset::for_each_poset`] order. Isomorphic dags map to the
/// *same* dag, so it can key shared caches (e.g. memoised reachability).
pub fn canonical_form(dag: &Dag) -> Dag {
    dag_from_masks(&canonical_key(dag))
}

/// Calls `f` with every **canonical** naturally labelled poset on `n`
/// elements — one representative per isomorphism class — passing the
/// poset's *global* index in [`crate::poset::for_each_poset_indexed`]
/// order (so indices remain comparable with the labelled enumeration:
/// the representative is the first member of its class, and witness
/// merging by smallest index still reproduces the serial labelled scan)
/// and its [`CanonInfo`], equal to [`canon_info`] of the poset.
///
/// The last argument is `Aut(P)`: `info.automorphisms` node
/// permutations of `n` bytes each, concatenated, the identity first.
/// Permutation `g` maps node `j` to node `g[j]`; every `g` preserves the
/// order (`u` precedes `v` in `P` iff `g[u]` precedes `g[v]`).
///
/// Posets are tested on their ancestor-mask vectors; only the
/// representatives are built as [`Dag`]s.
pub fn for_each_canonical_poset<F: FnMut(usize, &Dag, &CanonInfo, &[u8])>(n: usize, mut f: F) {
    let mut search = AutSearch::default();
    let mut ways = Vec::new();
    let mut idx = 0;
    for_each_poset_masks(n, |anc| {
        if let Some(automorphisms) = search.automorphisms_if_canonical(anc) {
            let extensions = count_extensions(anc, &mut ways);
            let info = CanonInfo {
                key: anc.to_vec(),
                is_canonical: true,
                orbit: extensions / automorphisms,
                automorphisms,
                extensions,
            };
            f(idx, &dag_from_masks(anc), &info, &search.perms);
        }
        idx += 1;
    });
}

/// The number of isomorphism classes of posets on `n` elements (A000112).
pub fn count_canonical_posets(n: usize) -> usize {
    let mut c = 0;
    for_each_canonical_poset(n, |_, _, _, _| c += 1);
    c
}

/// Decides canonicity of a naturally labelled poset given by its
/// ancestor masks, counting its automorphisms on the way.
///
/// A linear extension `t` relabels node `t[j]` as `j`; its mask at
/// position `j` holds the positions of `t[j]`'s ancestors, so it is fixed
/// by the prefix `t[..=j]`. The identity extension yields the poset's own
/// vector `key`, so the poset is canonical iff no extension's vector is
/// lex-smaller. The search extends only prefixes whose masks equal
/// `key`'s. At depth `j` a ready node whose mask is
///
/// * smaller than `key[j]` completes to a lex-smaller vector: the poset
///   is not canonical and the search stops;
/// * larger than `key[j]` only leads to larger vectors and is cut;
/// * equal to `key[j]` is placed, and the search recurses.
///
/// A prefix that matches all the way down is an extension whose vector
/// is `key`, a relabelling that maps the poset onto itself: the leaves of
/// a search that never stops are exactly the automorphisms. Each leaf's
/// extension `t` is recorded as the automorphism `j ↦ t[j]`; the identity
/// extension is the first leaf, since at every depth of it the smallest
/// unplaced node is the tied one.
#[derive(Default)]
struct AutSearch {
    n: usize,
    /// The poset's own mask vector.
    key: [u32; 16],
    /// Strict descendants of each node.
    desc: [u32; 16],
    /// Each node's ancestors as a mask over the positions placed so far;
    /// complete once the node is ready.
    rel: [u32; 16],
    /// The node placed at each depth of the current prefix.
    order: [u8; 16],
    /// The leaves reached so far, `n` bytes each.
    perms: Vec<u8>,
    leaves: u64,
}

impl AutSearch {
    /// `Some(|Aut|)` if `key` (bits of `key[v]` all below `v`) is the
    /// canonical member of its class, `None` otherwise.
    fn automorphisms_if_canonical(&mut self, key: &[u32]) -> Option<u64> {
        let n = key.len();
        self.n = n;
        self.key[..n].copy_from_slice(key);
        self.desc = [0; 16];
        self.rel = [0; 16];
        for (v, &anc) in key.iter().enumerate() {
            let mut a = anc;
            while a != 0 {
                self.desc[a.trailing_zeros() as usize] |= 1 << v;
                a &= a - 1;
            }
        }
        self.leaves = 0;
        self.perms.clear();
        self.descend(0, 0).is_continue().then_some(self.leaves)
    }

    /// Extends the tight prefix of length `depth` (node set `placed`).
    fn descend(&mut self, depth: usize, placed: u32) -> ControlFlow<()> {
        if depth == self.n {
            self.leaves += 1;
            self.perms.extend_from_slice(&self.order[..self.n]);
            return ControlFlow::Continue(());
        }
        let want = self.key[depth];
        let mut tied = 0u32;
        let mut rest = !placed & ((1u64 << self.n) - 1) as u32;
        while rest != 0 {
            let v = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if self.key[v] & !placed != 0 {
                continue; // not ready
            }
            match self.rel[v].cmp(&want) {
                Ordering::Less => return ControlFlow::Break(()),
                Ordering::Equal => tied |= 1 << v,
                Ordering::Greater => {}
            }
        }
        while tied != 0 {
            let v = tied.trailing_zeros() as usize;
            tied &= tied - 1;
            self.order[depth] = v as u8;
            self.toggle(v, depth);
            let below = self.descend(depth + 1, placed | (1 << v));
            self.toggle(v, depth);
            below?;
        }
        ControlFlow::Continue(())
    }

    /// Flips position bit `depth` in the relabelled masks of `v`'s
    /// descendants: placing `v` at `depth` sets it, undoing clears it.
    fn toggle(&mut self, v: usize, depth: usize) {
        let mut d = self.desc[v];
        while d != 0 {
            self.rel[d.trailing_zeros() as usize] ^= 1 << depth;
            d &= d - 1;
        }
    }
}

/// `e(P)` of the naturally labelled poset with ancestor masks `anc`, by
/// a dynamic program over down-sets: `ways[S]` counts the orderings of
/// the down-set `S` as a prefix of a linear extension. `ways` is scratch,
/// grown to `2^n` entries.
fn count_extensions(anc: &[u32], ways: &mut Vec<u64>) -> u64 {
    let full = (1usize << anc.len()) - 1;
    ways.clear();
    ways.resize(full + 1, 0);
    ways[0] = 1;
    for s in 0..full {
        let w = ways[s];
        if w == 0 {
            continue; // not a down-set
        }
        for (v, &a) in anc.iter().enumerate() {
            if s & (1 << v) == 0 && (a as usize) & !s == 0 {
                ways[s | 1 << v] += w;
            }
        }
    }
    ways[full]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poset::count_posets;

    /// `Aut(P)` of the poset with ancestor masks `anc`, by testing every
    /// one of the `n!` permutations in lexicographic order: `g` is kept
    /// iff it maps each node's ancestors onto its image's ancestors.
    fn brute_force_automorphisms(anc: &[u32]) -> Vec<u8> {
        fn extend(anc: &[u32], g: &mut Vec<u8>, out: &mut Vec<u8>) {
            let n = anc.len();
            if g.len() == n {
                let image = |m: u32| {
                    (0..n).filter(|&u| m >> u & 1 == 1).fold(0u32, |acc, u| acc | 1 << g[u])
                };
                if (0..n).all(|v| image(anc[v]) == anc[g[v] as usize]) {
                    out.extend_from_slice(g);
                }
                return;
            }
            for v in 0..n as u8 {
                if !g.contains(&v) {
                    g.push(v);
                    extend(anc, g, out);
                    g.pop();
                }
            }
        }
        let mut out = Vec::new();
        extend(anc, &mut Vec::new(), &mut out);
        out
    }

    /// Every labelled poset on `n` nodes that [`canon_info`] marks
    /// canonical, with its info, against what the pruned search emits;
    /// and each representative's recorded automorphisms against a brute
    /// force.
    fn assert_search_matches_enumeration(n: usize) {
        let mut expected = Vec::new();
        crate::poset::for_each_poset_indexed(n, |idx, dag| {
            let info = canon_info(dag);
            if info.is_canonical {
                expected.push((idx, dag.clone(), info));
            }
        });
        let mut got = Vec::new();
        for_each_canonical_poset(n, |idx, dag, info, auts| {
            assert_eq!(
                auts,
                brute_force_automorphisms(&info.key),
                "n={n}: automorphisms of {dag:?}"
            );
            assert_eq!(auts.len() as u64, info.automorphisms * n as u64, "n={n}: |Aut| of {dag:?}");
            got.push((idx, dag.clone(), info.clone()));
        });
        assert_eq!(got.len(), expected.len(), "n={n}: class count");
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g, e, "n={n}: pruned search diverges from the enumeration");
        }
    }

    #[test]
    fn pruned_search_matches_enumeration_up_to_6_nodes() {
        for n in 0..=6 {
            assert_search_matches_enumeration(n);
        }
    }

    /// About 5 s in a release build (2,045 classes at 7 nodes); `ci.sh`
    /// runs it outside fast mode.
    #[test]
    #[ignore]
    fn pruned_search_matches_enumeration_at_7_nodes() {
        assert_search_matches_enumeration(7);
        assert_eq!(count_canonical_posets(7), 2045, "A000112");
    }

    #[test]
    fn class_counts_match_oeis_a000112() {
        // Unlabelled posets: 1, 1, 2, 5, 16, 63 for n = 0..=5.
        for (n, expect) in [1usize, 1, 2, 5, 16, 63].into_iter().enumerate() {
            assert_eq!(count_canonical_posets(n), expect, "n={n}");
        }
    }

    #[test]
    fn orbit_sums_recover_labelled_counts() {
        // Σ orbit over class representatives = # naturally labelled posets
        // (A006455) — the exactness guarantee the weighted sweep rests on.
        for n in 0..=5 {
            let mut total = 0u64;
            for_each_canonical_poset(n, |_, _, info, _| total += info.orbit);
            assert_eq!(total, count_posets(n) as u64, "n={n}");
        }
    }

    #[test]
    fn orbit_times_automorphisms_is_extension_count() {
        for n in 0..=5 {
            crate::poset::for_each_poset(n, |dag| {
                let info = canon_info(dag);
                assert_eq!(
                    info.orbit * info.automorphisms,
                    info.extensions,
                    "orbit-stabilizer violated on {dag:?}"
                );
                assert_eq!(info.extensions, crate::topo::count_topo_sorts(dag) as u64);
            });
        }
    }

    #[test]
    fn representative_is_first_of_its_class_in_enumeration_order() {
        // Scanning posets in order, the first time each key appears must
        // be its canonical member, and later members must not be canonical.
        for n in 0..=4 {
            let mut seen: std::collections::HashMap<Vec<u32>, u64> =
                std::collections::HashMap::new();
            crate::poset::for_each_poset(n, |dag| {
                let info = canon_info(dag);
                match seen.get_mut(&info.key) {
                    None => {
                        assert!(info.is_canonical, "first of class not canonical: {dag:?}");
                        seen.insert(info.key.clone(), 1);
                    }
                    Some(count) => {
                        assert!(!info.is_canonical, "second canonical member: {dag:?}");
                        *count += 1;
                    }
                }
            });
            // Each class was seen exactly `orbit` times.
            for_each_canonical_poset(n, |_, dag, info, _| {
                assert_eq!(seen[&info.key], info.orbit, "orbit miscount for {dag:?}");
            });
        }
    }

    #[test]
    fn canonical_form_is_idempotent_and_canonical() {
        crate::poset::for_each_poset(4, |dag| {
            let rep = canonical_form(dag);
            let info = canon_info(&rep);
            assert!(info.is_canonical);
            assert_eq!(info.key, canonical_key(dag));
            assert_eq!(canonical_form(&rep), rep);
        });
    }

    #[test]
    fn known_small_classes() {
        // n = 2: the chain and the antichain.
        let chain = Dag::from_edges(2, &[(0, 1)]).unwrap();
        let anti = Dag::edgeless(2);
        let ci = canon_info(&chain);
        assert_eq!((ci.orbit, ci.automorphisms, ci.extensions), (1, 1, 1));
        let ai = canon_info(&anti);
        assert_eq!((ai.orbit, ai.automorphisms, ai.extensions), (1, 2, 2));
        // The "V" poset 0→1, 0→2 has an automorphism swapping 1 and 2.
        let v = Dag::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let vi = canon_info(&v);
        assert_eq!((vi.orbit, vi.automorphisms, vi.extensions), (1, 2, 2));
        // One chain edge + isolated node: 3 labellings, trivial Aut.
        let mixed = Dag::from_edges(3, &[(0, 1)]).unwrap();
        let mi = canon_info(&mixed);
        assert_eq!(mi.orbit, 3);
        assert_eq!(mi.automorphisms, 1);
    }

    #[test]
    fn empty_and_singleton() {
        let e = canon_info(&Dag::empty());
        assert_eq!((e.orbit, e.automorphisms, e.extensions), (1, 1, 1));
        assert!(e.is_canonical && e.key.is_empty());
        let s = canon_info(&Dag::edgeless(1));
        assert_eq!((s.orbit, s.automorphisms, s.extensions), (1, 1, 1));
        assert!(s.is_canonical);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Relabels `dag` by `perm` (new index of old node `u` is `perm[u]`).
    fn relabel(dag: &Dag, perm: &[usize]) -> Dag {
        let edges: Vec<(usize, usize)> =
            dag.edges().map(|(u, v)| (perm[u.index()], perm[v.index()])).collect();
        Dag::from_edges(dag.node_count(), &edges).expect("relabelling preserves acyclicity")
    }

    proptest! {
        #[test]
        fn canonical_key_is_relabelling_invariant(
            poset_idx in 0usize..357,
            perm_seed in 0usize..720,
        ) {
            // Pick the poset_idx-th 5-node poset and a permutation of its
            // nodes by Lehmer decoding of perm_seed.
            let mut target = None;
            let mut i = 0;
            crate::poset::for_each_poset(5, |d| {
                if i == poset_idx {
                    target = Some(d.clone());
                }
                i += 1;
            });
            let dag = target.expect("357 posets of size 5");
            let mut avail: Vec<usize> = (0..5).collect();
            let mut perm = Vec::new();
            let mut s = perm_seed;
            for k in (1..=5).rev() {
                perm.push(avail.remove(s % k));
                s /= k;
            }
            let relabelled = relabel(&dag, &perm);
            prop_assert_eq!(canonical_key(&relabelled), canonical_key(&dag));
            prop_assert_eq!(canonical_form(&relabelled), canonical_form(&dag));
            let a = canon_info(&dag);
            let b = canon_info(&relabelled);
            prop_assert_eq!(a.orbit, b.orbit);
            prop_assert_eq!(a.automorphisms, b.automorphisms);
        }
    }
}
