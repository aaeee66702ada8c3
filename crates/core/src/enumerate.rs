//! Exhaustive enumeration of valid observer functions.
//!
//! The validity conditions of Definition 2 constrain each table entry
//! `Φ(l, u)` independently: writes are forced to observe themselves, and
//! any other node may observe ⊥ or any write to `l` it does not strictly
//! precede. Enumeration is therefore a Cartesian product over the free
//! entries, and counting is a closed-form product.

use crate::computation::Computation;
use crate::observer::ObserverFunction;
use crate::op::Location;
use ccmm_dag::NodeId;
use std::ops::ControlFlow;

/// One free table slot and its candidate values.
fn free_slots(c: &Computation) -> Vec<(Location, NodeId, Vec<Option<NodeId>>)> {
    let mut slots = Vec::new();
    for l in c.locations() {
        for u in c.nodes() {
            if c.op(u).is_write_to(l) {
                continue; // forced to Some(u) by Condition 2.3
            }
            let mut cands: Vec<Option<NodeId>> = vec![None];
            for &w in c.writes_to(l) {
                if !c.precedes(u, w) {
                    cands.push(Some(w));
                }
            }
            slots.push((l, u, cands));
        }
    }
    slots
}

/// [`free_slots`] in *node-major* order: slots sorted by `(node,
/// location)` instead of `(location, node)`, so every free slot of the
/// literally-last node trails every slot of the other nodes.
///
/// This order is what makes the lane fixpoint's extension blocks
/// contiguous (see `constructible::lanes`): when the last node of an
/// augmentation `aug_o(C)` succeeds every other node, the non-final
/// slots of `aug_o(C)` carry exactly `C`'s candidate lists in exactly
/// `C`'s node-major order (slots at locations `C` never mentions have a
/// single candidate, ⊥, and contribute nothing to the mixed-radix
/// index), so the node-major index factors as
/// `index(aug, Φ') = index(C, Φ'|_C) · E + lo` with `E` the product of
/// the last node's slot radices.
fn free_slots_node_major(c: &Computation) -> Vec<(Location, NodeId, Vec<Option<NodeId>>)> {
    let mut slots = free_slots(c);
    slots.sort_by_key(|&(l, u, _)| (u.index(), l.index()));
    slots
}

/// Calls `f` with every valid observer function for `c` in *node-major*
/// order (see `free_slots_node_major`); the slot visited first varies
/// slowest, so the enumeration index is the mixed-radix value of the
/// per-slot candidate positions. Same early-exit contract as
/// [`for_each_observer`].
pub fn for_each_observer_node_major<F>(c: &Computation, mut f: F) -> ControlFlow<()>
where
    F: FnMut(&ObserverFunction) -> ControlFlow<()>,
{
    let slots = free_slots_node_major(c);
    let mut phi = ObserverFunction::base(c);
    fn recurse<F>(
        slots: &[(Location, NodeId, Vec<Option<NodeId>>)],
        i: usize,
        phi: &mut ObserverFunction,
        f: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&ObserverFunction) -> ControlFlow<()>,
    {
        if i == slots.len() {
            return f(phi);
        }
        let (l, u, cands) = &slots[i];
        for &v in cands {
            phi.set(*l, *u, v);
            recurse(slots, i + 1, phi, f)?;
        }
        ControlFlow::Continue(())
    }
    recurse(&slots, 0, &mut phi, &mut f)
}

/// The shape of `c`'s node-major enumeration: `(observers, block)`,
/// where `observers` is the total count of valid observer functions and
/// `block` is the product of the last node's slot radices — the size `E`
/// of one contiguous extension block when `c` is an augmentation whose
/// last node succeeds every other node. `block` is 1 for the empty
/// computation.
pub fn node_major_shape(c: &Computation) -> (u64, u64) {
    let last = c.last_node();
    let mut observers = 1u64;
    let mut block = 1u64;
    for (_, u, cands) in free_slots_node_major(c) {
        let r = cands.len() as u64;
        observers = observers.checked_mul(r).expect("observer count overflows u64");
        if Some(u) == last {
            block *= r;
        }
    }
    (observers, block)
}

/// The node-major enumeration index of `phi` among `c`'s valid observer
/// functions, or `None` if `phi` is not one of them (some entry is not a
/// candidate of its slot). Forced entries (writes observing themselves)
/// are checked too.
pub fn node_major_index(c: &Computation, phi: &ObserverFunction) -> Option<u64> {
    if !phi.is_valid_for(c) {
        return None;
    }
    slot_index(&free_slots_node_major(c), phi)
}

/// The [`for_each_observer`] (location-major) enumeration index of
/// `phi`, or `None` if `phi` is not a valid observer function for `c`.
pub fn location_major_index(c: &Computation, phi: &ObserverFunction) -> Option<u64> {
    if !phi.is_valid_for(c) {
        return None;
    }
    slot_index(&free_slots(c), phi)
}

/// Mixed-radix index of `phi` over `slots` (first slot most
/// significant, matching the recursive enumerators).
fn slot_index(
    slots: &[(Location, NodeId, Vec<Option<NodeId>>)],
    phi: &ObserverFunction,
) -> Option<u64> {
    let mut idx = 0u64;
    for (l, u, cands) in slots {
        let d = cands.iter().position(|&v| v == phi.get(*l, *u))?;
        idx = idx * cands.len() as u64 + d as u64;
    }
    Some(idx)
}

/// Calls `f` with every valid observer function for `c`, reusing a single
/// buffer. Return `ControlFlow::Break(())` from `f` to stop early.
///
/// The count can be exponential in the number of nodes; intended for the
/// small computations of bounded universes.
pub fn for_each_observer<F>(c: &Computation, mut f: F) -> ControlFlow<()>
where
    F: FnMut(&ObserverFunction) -> ControlFlow<()>,
{
    let slots = free_slots(c);
    let mut phi = ObserverFunction::base(c);
    fn recurse<F>(
        slots: &[(Location, NodeId, Vec<Option<NodeId>>)],
        i: usize,
        phi: &mut ObserverFunction,
        f: &mut F,
    ) -> ControlFlow<()>
    where
        F: FnMut(&ObserverFunction) -> ControlFlow<()>,
    {
        if i == slots.len() {
            return f(phi);
        }
        let (l, u, cands) = &slots[i];
        for &v in cands {
            phi.set(*l, *u, v);
            recurse(slots, i + 1, phi, f)?;
        }
        ControlFlow::Continue(())
    }
    recurse(&slots, 0, &mut phi, &mut f)
}

/// Collects all valid observer functions for `c`.
pub fn all_observers(c: &Computation) -> Vec<ObserverFunction> {
    let mut out = Vec::new();
    let _ = for_each_observer(c, |phi| {
        out.push(phi.clone());
        ControlFlow::Continue(())
    });
    out
}

/// Collects the valid observer functions satisfying `pred`.
pub fn observers_where<P>(c: &Computation, mut pred: P) -> Vec<ObserverFunction>
where
    P: FnMut(&ObserverFunction) -> bool,
{
    let mut out = Vec::new();
    let _ = for_each_observer(c, |phi| {
        if pred(phi) {
            out.push(phi.clone());
        }
        ControlFlow::Continue(())
    });
    out
}

/// The number of valid observer functions for `c`, in closed form
/// (product of per-slot candidate counts).
pub fn count_observers(c: &Computation) -> u128 {
    free_slots(c).iter().map(|(_, _, cands)| cands.len() as u128).product()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::Op;

    fn l(i: usize) -> Location {
        Location::new(i)
    }

    #[test]
    fn empty_computation_has_exactly_phi_epsilon() {
        let c = Computation::empty();
        let obs = all_observers(&c);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0], ObserverFunction::empty());
        assert_eq!(count_observers(&c), 1);
    }

    #[test]
    fn single_write_has_one_observer() {
        let c = Computation::from_edges(1, &[], vec![Op::Write(l(0))]);
        assert_eq!(count_observers(&c), 1);
        let obs = all_observers(&c);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0], ObserverFunction::base(&c));
    }

    #[test]
    fn read_after_write_has_two_choices() {
        // W(0) -> R(0): the read sees ⊥ or the write.
        let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Write(l(0)), Op::Read(l(0))]);
        assert_eq!(count_observers(&c), 2);
        assert_eq!(all_observers(&c).len(), 2);
    }

    #[test]
    fn read_before_write_cannot_see_it() {
        // R(0) -> W(0): the read only sees ⊥.
        let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Read(l(0)), Op::Write(l(0))]);
        assert_eq!(count_observers(&c), 1);
    }

    #[test]
    fn incomparable_write_is_a_candidate() {
        // R(0) ∥ W(0).
        let c = Computation::from_edges(2, &[], vec![Op::Read(l(0)), Op::Write(l(0))]);
        assert_eq!(count_observers(&c), 2);
    }

    #[test]
    fn nop_nodes_also_carry_observations() {
        // W(0) -> N: the paper gives memory semantics to all nodes.
        let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Write(l(0)), Op::Nop]);
        assert_eq!(count_observers(&c), 2);
    }

    #[test]
    fn counts_multiply_across_locations() {
        // W(0) ∥ W(1), plus a later read of each: reads have 2 choices
        // each; the writes also have free entries at the *other* location.
        let c = Computation::from_edges(
            4,
            &[(0, 2), (1, 2), (0, 3), (1, 3)],
            vec![Op::Write(l(0)), Op::Write(l(1)), Op::Read(l(0)), Op::Read(l(1))],
        );
        // Free slots at l0: nodes 1 (can see w0? ¬(1≺0) yes → 2 cands),
        // 2 (2), 3 (2). At l1: nodes 0 (2), 2 (2), 3 (2). Total 2^6.
        assert_eq!(count_observers(&c), 64);
    }

    #[test]
    fn enumeration_matches_count_and_is_distinct() {
        let c = Computation::from_edges(
            3,
            &[(0, 1)],
            vec![Op::Write(l(0)), Op::Read(l(0)), Op::Write(l(0))],
        );
        let obs = all_observers(&c);
        assert_eq!(obs.len() as u128, count_observers(&c));
        let set: std::collections::HashSet<_> = obs.iter().collect();
        assert_eq!(set.len(), obs.len());
        for phi in &obs {
            assert!(phi.is_valid_for(&c));
        }
    }

    #[test]
    fn early_exit_stops_enumeration() {
        let c =
            Computation::from_edges(3, &[], vec![Op::Write(l(0)), Op::Read(l(0)), Op::Read(l(0))]);
        let mut seen = 0;
        let flow = for_each_observer(&c, |_| {
            seen += 1;
            if seen == 2 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(seen, 2);
    }

    #[test]
    fn node_major_order_is_a_permutation_with_trailing_last_node_blocks() {
        use crate::universe::Universe;
        // Two locations so node-major and location-major genuinely differ.
        let u = Universe::new(3, 2);
        let _ = u.for_each_computation(|c| {
            let std: Vec<_> = all_observers(c);
            let mut nm = Vec::new();
            let _ = for_each_observer_node_major(c, |phi| {
                nm.push(phi.clone());
                ControlFlow::Continue(())
            });
            assert_eq!(std.len(), nm.len());
            let set: std::collections::HashSet<_> = std.iter().collect();
            for phi in &nm {
                assert!(set.contains(phi));
            }
            // Index functions agree with the enumeration positions.
            let (observers, block) = node_major_shape(c);
            assert_eq!(observers as usize, nm.len());
            assert!(block >= 1 && observers % block == 0);
            for (i, phi) in nm.iter().enumerate() {
                assert_eq!(node_major_index(c, phi), Some(i as u64));
            }
            for (i, phi) in std.iter().enumerate() {
                assert_eq!(location_major_index(c, phi), Some(i as u64));
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn node_major_index_factors_through_augmentation() {
        use crate::universe::Universe;
        // For every C and op o: index(aug, Φ') = index(C, Φ'|C)·E + lo,
        // blocks are contiguous, and every Φ' in block b restricts to the
        // b-th node-major observer of C.
        let u = Universe::new(2, 2);
        let alphabet = u.alphabet();
        let _ = u.for_each_computation(|c| {
            let mut parents = Vec::new();
            let _ = for_each_observer_node_major(c, |phi| {
                parents.push(phi.clone());
                ControlFlow::Continue(())
            });
            for &o in &alphabet {
                let aug = c.augment(o);
                let (observers, block) = node_major_shape(&aug);
                let mut pos = 0u64;
                let _ = for_each_observer_node_major(&aug, |phi2| {
                    let b = (pos / block) as usize;
                    let parent = &parents[b];
                    assert!(
                        phi2.restricts_to(parent),
                        "block {b} of {aug:?} does not restrict to its parent observer"
                    );
                    pos += 1;
                    ControlFlow::Continue(())
                });
                assert_eq!(pos, observers);
                assert_eq!(observers, block * parents.len() as u64);
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn invalid_observers_have_no_index() {
        let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Write(l(0)), Op::Read(l(0))]);
        // The read observing a node that is not a write to l0.
        let bad = ObserverFunction::base(&c).with(l(0), ccmm_dag::NodeId::new(1), None);
        // `bad` is actually valid (⊥); corrupt the forced write entry.
        let mut worse = bad.clone();
        worse.set(l(0), ccmm_dag::NodeId::new(0), None);
        assert!(node_major_index(&c, &worse).is_none());
        assert!(location_major_index(&c, &worse).is_none());
    }

    #[test]
    fn observers_where_filters() {
        let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Write(l(0)), Op::Read(l(0))]);
        let sees_write =
            observers_where(&c, |phi| phi.get(l(0), ccmm_dag::NodeId::new(1)).is_some());
        assert_eq!(sees_write.len(), 1);
    }
}
