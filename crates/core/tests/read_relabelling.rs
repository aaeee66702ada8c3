//! The invariant the sweeps' read/no-op quotient rests on: every memory
//! model sees a node's op only through the location it writes. On every
//! computation of ≤ 4 nodes over 2 locations, each implementor's verdict
//! on every observer function is unchanged when each read or `N` is
//! swapped for `N` or for a read of another location — checked as
//! "equal to the verdicts of the computation with every non-write
//! spelled `N`", under both the scalar and the lane entry points.

use ccmm_core::enumerate::for_each_observer;
use ccmm_core::model::{
    AnyObserver, CheckScratch, DynQ, Intersection, LanePack, LaneScratch, Lc, MemoryModel, Nn, Nw,
    ObserverIndex, Sc, SlotOrder, Union, Wn, Ww,
};
use ccmm_core::oracle::Oracle;
use ccmm_core::universe::Universe;
use ccmm_core::{Computation, Model, Op};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Every checker implementor but the enum and the oracles.
fn fast_models() -> Vec<Box<dyn MemoryModel + Sync>> {
    vec![
        Box::new(Sc),
        Box::new(Lc),
        Box::new(Nn::default()),
        Box::new(Nw::default()),
        Box::new(Wn::default()),
        Box::new(Ww::default()),
        Box::new(DynQ::new("NEAR-W", |c: &Computation, l, _, v, w| {
            c.op(v).is_write_to(l) && c.dag().has_edge(v, w)
        })),
        Box::new(AnyObserver),
        Box::new(Intersection::new(Sc, Nw::default())),
        Box::new(Union::new(Lc, Wn::default())),
    ]
}

/// `c` with every non-write op spelled `N`.
fn write_pattern(c: &Computation) -> Computation {
    let ops =
        c.ops().iter().map(|&o| if matches!(o, Op::Write(_)) { o } else { Op::Nop }).collect();
    Computation::new(c.dag().clone(), ops).expect("one op per node")
}

/// Per model: the scalar verdict of every observer in enumeration
/// order, then the lane verdict masks in location-major pack order.
fn verdicts(models: &[Box<dyn MemoryModel + Sync>], c: &Computation) -> Vec<(Vec<bool>, Vec<u64>)> {
    let (mut check, mut lanes) = (CheckScratch::new(), LaneScratch::new());
    let (mut index, mut pack) = (ObserverIndex::new(), LanePack::new());
    models
        .iter()
        .map(|m| {
            let mut scalar = Vec::new();
            let _ = for_each_observer(c, |phi| {
                scalar.push(m.contains_with(c, phi, &mut check));
                ControlFlow::Continue(())
            });
            let mut masks = Vec::new();
            index.prepare(c, SlotOrder::LocationMajor, &mut pack);
            index.for_each_pack(&mut pack, |pack| {
                masks.push(m.contains_lanes(c, pack, &mut lanes) & pack.used());
            });
            (scalar, masks)
        })
        .collect()
}

/// Checks every computation of the universe against its write pattern,
/// deciding each pattern once (it precedes its relabellings in
/// enumeration order).
fn assert_invariant(models: &[Box<dyn MemoryModel + Sync>]) {
    let u = Universe::new(4, 2);
    let mut patterns = HashMap::new();
    let mut relabelled = 0;
    let _ = u.for_each_computation(|c| {
        let pattern = write_pattern(c);
        if pattern == *c {
            patterns.insert(pattern, verdicts(models, c));
            return ControlFlow::Continue(());
        }
        relabelled += 1;
        let want = &patterns[&pattern];
        for ((m, got), want) in models.iter().zip(verdicts(models, c)).zip(want) {
            assert_eq!(got.0, want.0, "{}: contains_with on {c:?}", m.name());
            assert_eq!(got.1, want.1, "{}: contains_lanes on {c:?}", m.name());
        }
        ControlFlow::Continue(())
    });
    assert_eq!((patterns.len(), relabelled), (3_451, 22_480), "computations per class");
}

#[test]
fn fast_checkers_see_ops_only_through_their_writes() {
    let mut models = fast_models();
    models.extend(Model::ALL.map(|m| Box::new(m) as Box<dyn MemoryModel + Sync>));
    assert_invariant(&models);
}

#[test]
fn oracles_see_ops_only_through_their_writes() {
    let models = Model::ALL.map(|m| Box::new(Oracle::for_model(m)) as Box<dyn MemoryModel + Sync>);
    assert_invariant(&models);
}
