//! Exhaustive enumeration of naturally labelled posets.
//!
//! The paper's memory models depend on a computation only through its
//! precedence relation `≺` and op labelling, and membership is invariant
//! under dag isomorphism. Hence, to check a universally quantified claim
//! ("for all computations …") over all computations of at most `n` nodes,
//! it suffices to enumerate *naturally labelled* posets — partial orders on
//! `{0, …, n−1}` contained in the usual linear order — and then attach all
//! op labellings. This is OEIS A006455: 1, 1, 2, 7, 40, 357, 4824, … posets
//! for n = 0, 1, 2, …, exponentially smaller than all labelled dags.
//!
//! Each poset is produced as its transitive-closure [`Dag`] (every strict
//! precedence pair is an explicit edge), which makes downstream reachability
//! trivial.

use crate::graph::Dag;

/// Calls `f` with the transitive-closure dag of every naturally labelled
/// poset on `n` elements, exactly once each.
pub fn for_each_poset<F: FnMut(&Dag)>(n: usize, mut f: F) {
    for_each_poset_masks(n, |anc| f(&dag_from_masks(anc)));
}

/// Calls `f` with the ancestor-mask vector of every naturally labelled
/// poset on `n` elements, in [`for_each_poset`] order: entry `k` is the
/// bitmask of node `k`'s ancestors, all of them below `k`. No [`Dag`] is
/// built, so callers that keep only a few posets pay for those alone.
///
/// Node `k`'s ancestor set is chosen as a *downward-closed* subset of
/// `{0, …, k−1}`; downward closure makes the chosen set exactly the full
/// ancestor set, so the emitted relation is transitively closed by
/// construction.
pub(crate) fn for_each_poset_masks<F: FnMut(&[u32])>(n: usize, mut f: F) {
    assert!(n <= 16, "poset enumeration is exponential; n={n} is too large");
    fn recurse<F: FnMut(&[u32])>(k: usize, n: usize, anc: &mut Vec<u32>, f: &mut F) {
        if k == n {
            f(anc);
            return;
        }
        // Enumerate all downward-closed subsets of {0..k}.
        for subset in 0..(1u32 << k) {
            let mut closed = true;
            for (u, &anc_u) in anc.iter().enumerate().take(k) {
                if subset & (1 << u) != 0 && anc_u & !subset != 0 {
                    closed = false;
                    break;
                }
            }
            if closed {
                anc[k] = subset;
                recurse(k + 1, n, anc, f);
            }
        }
    }
    let mut anc: Vec<u32> = vec![0; n];
    recurse(0, n, &mut anc, &mut f);
}

/// The dag on `anc.len()` nodes with an edge `u → v` for every bit `u`
/// of `anc[v]` (each bit below `v`). Given the ancestor-mask vector of a
/// naturally labelled poset it is the poset's transitive-closure dag.
pub(crate) fn dag_from_masks(anc: &[u32]) -> Dag {
    let mut edges = Vec::new();
    for (v, &mask) in anc.iter().enumerate() {
        for u in 0..v {
            if mask & (1 << u) != 0 {
                edges.push((u, v));
            }
        }
    }
    Dag::from_edges(anc.len(), &edges).expect("forward edges cannot cycle")
}

/// Like [`for_each_poset`], but also passes the poset's *global index* in
/// enumeration order. The index is stable — it depends only on `n` — so
/// it can key deterministic parallel sweeps (ties in a parallel scan are
/// broken by "smallest index wins", which reproduces the serial scan).
pub fn for_each_poset_indexed<F: FnMut(usize, &Dag)>(n: usize, mut f: F) {
    let mut idx = 0;
    for_each_poset(n, |d| {
        f(idx, d);
        idx += 1;
    });
}

/// Sharded enumeration: calls `f` with exactly the posets whose global
/// index is congruent to `shard` modulo `num_shards` (still passing the
/// global index). The recursion is shared, but dags are only materialised
/// for this shard's indices; the shards partition the output of
/// [`for_each_poset_indexed`].
pub fn for_each_poset_shard<F: FnMut(usize, &Dag)>(
    n: usize,
    shard: usize,
    num_shards: usize,
    mut f: F,
) {
    assert!(num_shards > 0, "num_shards must be positive");
    assert!(shard < num_shards, "shard {shard} out of range 0..{num_shards}");
    let mut idx = 0;
    for_each_poset(n, |d| {
        if idx % num_shards == shard {
            f(idx, d);
        }
        idx += 1;
    });
}

/// Collects all naturally labelled posets on `n` elements as
/// transitive-closure dags.
pub fn enumerate_posets(n: usize) -> Vec<Dag> {
    let mut out = Vec::new();
    for_each_poset(n, |d| out.push(d.clone()));
    out
}

/// The number of naturally labelled posets on `n` elements (A006455).
pub fn count_posets(n: usize) -> usize {
    let mut c = 0;
    for_each_poset(n, |_| c += 1);
    c
}

/// The number of naturally labelled posets on `n` elements, by the same
/// downward-closed-ancestor-set recursion as [`for_each_poset`] but
/// without constructing any [`Dag`] — the counting backbone of closed-form
/// universe sizes (`count_posets_fast(n) · kⁿ` computations per size).
pub fn count_posets_fast(n: usize) -> u64 {
    assert!(n <= 16, "poset enumeration is exponential; n={n} is too large");
    fn recurse(k: usize, n: usize, anc: &mut [u32]) -> u64 {
        if k == n {
            return 1;
        }
        let mut total = 0;
        for subset in 0..(1u32 << k) {
            let mut closed = true;
            for (u, &anc_u) in anc.iter().enumerate().take(k) {
                if subset & (1 << u) != 0 && anc_u & !subset != 0 {
                    closed = false;
                    break;
                }
            }
            if closed {
                anc[k] = subset;
                total += recurse(k + 1, n, anc);
            }
        }
        total
    }
    let mut anc = vec![0u32; n];
    recurse(0, n, &mut anc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach::Reachability;

    #[test]
    fn counts_match_oeis_a006455() {
        assert_eq!(count_posets(0), 1);
        assert_eq!(count_posets(1), 1);
        assert_eq!(count_posets(2), 2);
        assert_eq!(count_posets(3), 7);
        assert_eq!(count_posets(4), 40);
        assert_eq!(count_posets(5), 357);
    }

    #[test]
    fn outputs_are_transitively_closed() {
        for d in enumerate_posets(4) {
            let r = Reachability::new(&d);
            for u in d.nodes() {
                for v in r.descendants(u).iter() {
                    assert!(
                        d.has_edge(u, crate::graph::NodeId::new(v)),
                        "missing closure edge {u}->{v} in {d:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn outputs_are_distinct() {
        let posets = enumerate_posets(4);
        for (i, a) in posets.iter().enumerate() {
            for b in &posets[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn edges_are_forward() {
        for d in enumerate_posets(4) {
            for (u, v) in d.edges() {
                assert!(u.index() < v.index());
            }
        }
    }

    #[test]
    fn indexed_enumeration_matches_plain_order() {
        let plain = enumerate_posets(4);
        let mut indexed = Vec::new();
        for_each_poset_indexed(4, |i, d| indexed.push((i, d.clone())));
        assert_eq!(indexed.len(), plain.len());
        for (expect, (i, d)) in indexed.iter().enumerate() {
            assert_eq!(*i, expect);
            assert_eq!(*d, plain[expect]);
        }
    }

    #[test]
    fn shards_partition_the_enumeration() {
        let plain = enumerate_posets(4);
        let shards = 3;
        let mut seen: Vec<Option<Dag>> = vec![None; plain.len()];
        for shard in 0..shards {
            for_each_poset_shard(4, shard, shards, |i, d| {
                assert_eq!(i % shards, shard);
                assert!(seen[i].is_none(), "index {i} emitted twice");
                seen[i] = Some(d.clone());
            });
        }
        for (i, d) in seen.into_iter().enumerate() {
            assert_eq!(d.expect("every index emitted once"), plain[i]);
        }
    }

    #[test]
    fn fast_count_matches_oeis_and_enumeration() {
        // A006455: 1, 1, 2, 7, 40, 357, 4824.
        for (n, expect) in [1u64, 1, 2, 7, 40, 357, 4824].into_iter().enumerate() {
            assert_eq!(count_posets_fast(n), expect, "n={n}");
        }
        for n in 0..=5 {
            assert_eq!(count_posets_fast(n), count_posets(n) as u64);
        }
    }

    #[test]
    fn includes_chain_and_antichain() {
        let posets = enumerate_posets(3);
        let chain = crate::generate::chain(3).transitive_closure();
        let antichain = Dag::edgeless(3);
        assert!(posets.contains(&chain));
        assert!(posets.contains(&antichain));
    }
}
