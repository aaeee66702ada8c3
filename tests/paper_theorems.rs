//! Integration: every theorem and figure of the paper, machine-checked at
//! test-friendly bounds (the experiment binaries push the same checks to
//! larger universes).

use ccmm::core::constructible::{survives_lookahead, BoundedConstructible};
use ccmm::core::enumerate::{all_observers, for_each_observer};
use ccmm::core::props::{any_extension, check_complete, check_constructible_aug, check_monotonic};
use ccmm::core::universe::Universe;
use ccmm::core::witness::{figure2, figure3, figure4_full, figure4_prefix};
use ccmm::core::{Lc, MemoryModel, Model, Nn, Op, Sc};
use std::ops::ControlFlow;

#[test]
fn definition_3_every_model_contains_the_empty_pair() {
    let c = ccmm::core::Computation::empty();
    let phi = ccmm::core::ObserverFunction::empty();
    for m in Model::ALL {
        assert!(m.contains(&c, &phi));
    }
}

#[test]
fn theorem_14_16_last_writer_unique_valid_and_in_all_models() {
    // For every computation of a small universe and every topological
    // sort, W_T is a valid observer function (Thm 16) in every model that
    // admits last-writer functions (SC ⊆ everything).
    let u = Universe::new(3, 1);
    let _ = u.for_each_computation(|c| {
        for t in ccmm::dag::topo::all_topo_sorts(c.dag()) {
            let phi = ccmm::core::last_writer::last_writer_function(c, &t);
            assert!(phi.is_valid_for(c), "Thm 16 fails on {c:?}");
            assert!(
                ccmm::core::last_writer::is_last_writer_function(c, &t, &phi),
                "Thm 14 (definition agreement) fails"
            );
            for m in Model::ALL {
                assert!(m.contains(c, &phi), "{m} rejects W_T on {c:?}");
            }
        }
        ControlFlow::Continue(())
    });
}

#[test]
fn theorem_19_sc_lc_monotonic_constructible() {
    let u = Universe::new(3, 1);
    assert!(check_monotonic(&Sc, &u).is_ok());
    assert!(check_monotonic(&Lc, &u).is_ok());
    assert!(check_constructible_aug(&Sc, &u).is_ok());
    assert!(check_constructible_aug(&Lc, &u).is_ok());
    assert!(check_complete(&Sc, &u).is_ok());
    assert!(check_complete(&Lc, &u).is_ok());
}

#[test]
fn theorem_21_nn_is_strongest_dag_consistent() {
    // NN ⊆ Q-dag consistency for arbitrary predicates Q: sample three
    // exotic predicates plus the named ones.
    use ccmm::core::model::DynQ;
    let exotic = [
        DynQ::new("only-location-0", |_, l: ccmm::core::Location, _, _, _| l.index() == 0),
        DynQ::new("middle-is-even", |_, _, _, v: ccmm::dag::NodeId, _| v.index().is_multiple_of(2)),
        DynQ::new(
            "endpoint-parity",
            |_, _, u: Option<ccmm::dag::NodeId>, _, w: ccmm::dag::NodeId| {
                u.is_none_or(|u| (u.index() + w.index()).is_multiple_of(2))
            },
        ),
    ];
    let u = Universe::new(3, 1);
    let _ = u.for_each_computation(|c| {
        let _ = for_each_observer(c, |phi| {
            if Nn::default().contains(c, phi) {
                for q in &exotic {
                    assert!(q.contains(c, phi), "NN ⊄ {}", q.name());
                }
                for m in [Model::Nw, Model::Wn, Model::Ww] {
                    assert!(m.contains(c, phi));
                }
            }
            ControlFlow::Continue(())
        });
        ControlFlow::Continue(())
    });
}

#[test]
fn theorem_22_lc_strictly_inside_nn() {
    let u = Universe::new(4, 1);
    let cmp = ccmm::core::relation::compare(&Lc, &Nn::default(), &u);
    assert_eq!(cmp.relation, ccmm::core::relation::Relation::StrictlyStronger);
    // The canonical strictness witness is exactly Figure 4's prefix.
    let w = figure4_prefix();
    assert!(Nn::default().contains(&w.computation, &w.phi));
    assert!(!Lc.contains(&w.computation, &w.phi));
}

#[test]
fn theorem_23_lc_equals_nn_star_bounded() {
    let u = Universe::new(4, 1);
    let fix = BoundedConstructible::compute(&Nn::default(), &u);
    for n in 0..u.max_nodes {
        let a = fix.agreement_with(&Lc, n, &u);
        assert_eq!(a.disagreements, 0, "size {n}");
    }
}

#[test]
fn theorem_23_fails_at_five_nodes() {
    // ROADMAP item 1's counterexample: n2 is a fresh value at l0, so the
    // pair is in NN* (here: survives two augmentation steps), yet it is
    // not in LC. LC ⊊ NN* from 5 nodes on.
    use ccmm::core::parse::{parse_computation, parse_observer};
    let c = parse_computation("n0: W(0)\nn1: W(0)\nn2: W(0)\nn3: N <- n0\nn4: N <- n1\n").unwrap();
    let phi = parse_observer("l0: n0 n1 n2 n1 n0\n", &c).unwrap();
    for m in [Model::Nn, Model::Nw, Model::Wn, Model::Ww] {
        assert!(m.contains(&c, &phi), "{m} must contain the pair");
    }
    for m in [Model::Sc, Model::Lc] {
        assert!(!m.contains(&c, &phi), "{m} must not contain the pair");
    }
    assert!(survives_lookahead(&Nn::default(), &c, &phi, 2, &Op::all(1)));
}

#[test]
fn figure_2_and_3_membership_patterns() {
    let f2 = figure2();
    assert!(Model::Ww.contains(&f2.computation, &f2.phi));
    assert!(Model::Nw.contains(&f2.computation, &f2.phi));
    assert!(!Model::Wn.contains(&f2.computation, &f2.phi));
    assert!(!Model::Nn.contains(&f2.computation, &f2.phi));

    let f3 = figure3();
    assert!(Model::Ww.contains(&f3.computation, &f3.phi));
    assert!(Model::Wn.contains(&f3.computation, &f3.phi));
    assert!(!Model::Nw.contains(&f3.computation, &f3.phi));
    assert!(!Model::Nn.contains(&f3.computation, &f3.phi));
}

#[test]
fn figure_4_nonconstructibility() {
    let w = figure4_prefix();
    assert!(Nn::default().contains(&w.computation, &w.phi));
    for op in [Op::Read(ccmm::core::Location::new(0)), Op::Nop] {
        let full = figure4_full(op);
        assert!(
            !any_extension(&full, &w.phi, |p| Nn::default().contains(&full, p)),
            "non-write extension must be blocked"
        );
    }
    let full_w = figure4_full(Op::Write(ccmm::core::Location::new(0)));
    assert!(any_extension(&full_w, &w.phi, |p| Nn::default().contains(&full_w, p)));
}

#[test]
fn completeness_of_all_models_follows_from_lc() {
    // Section 6: LC complete + weaker-than relations ⇒ all dag-consistent
    // models complete. Verify the implication concretely: every
    // computation has an LC observer, which is then in every weaker model.
    let u = Universe::new(3, 1);
    let _ = u.for_each_computation(|c| {
        let obs = all_observers(c);
        let lc_member = obs.iter().find(|phi| Lc.contains(c, phi));
        let phi = lc_member.expect("LC must be complete");
        for m in [Model::Nn, Model::Nw, Model::Wn, Model::Ww, Model::Any] {
            assert!(m.contains(c, phi));
        }
        ControlFlow::Continue(())
    });
}
