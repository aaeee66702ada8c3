//! Pins the sweep engine's determinism contract across thread counts:
//! counts AND witnesses must be bit-identical to the serial scan at
//! `CCMM_THREADS` ∈ {1, 2, 4, 7}, both when the count is passed
//! explicitly and when it arrives as a `CCMM_THREADS` value. The value
//! goes through `SweepConfig::from_threads_var`, the pure parser behind
//! `SweepConfig::from_env`, so no test touches the process environment.

use ccmm::core::model::Model;
use ccmm::core::relation::{compare, Comparison};
use ccmm::core::sweep::supervisor::{
    check_constructible_aug_lanes_supervised, compare_supervised, lattice_lanes_supervised,
    memberships_lanes_supervised, sweep_supervised, Supervisor,
};
use ccmm::core::sweep::SweepConfig;
use ccmm::core::universe::Universe;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

#[test]
fn sweeps_are_bit_identical_to_serial_at_every_thread_count() {
    let u = Universe::new(3, 1);
    let serial = compare(&Model::Lc, &Model::Nn, &u);
    let serial_counts = weighted_count(&u, &SweepConfig::serial());
    assert_eq!(serial_counts, u.count_computations() as u64);

    for threads in THREAD_COUNTS {
        // Explicit thread count.
        let cfg = SweepConfig::with_threads(threads);
        check_identical(&serial, &lc_vs_nn(&u, &cfg), threads);
        let counts = weighted_count(&u, &cfg);
        assert_eq!(counts, serial_counts, "count drift at {threads} threads");

        // Same thread count by way of a CCMM_THREADS value.
        let env_cfg = SweepConfig::from_threads_var(Some(&format!(" {threads}\n")));
        assert_eq!(env_cfg.threads, threads, "CCMM_THREADS not honoured");
        check_identical(&serial, &lc_vs_nn(&u, &env_cfg), threads);
    }

    // Unset, garbage and zero values fall back to the available
    // parallelism (≥ 1).
    let fallback = SweepConfig::from_threads_var(None).threads;
    assert!(fallback >= 1);
    for bad in ["not-a-number", "", "0", "-3"] {
        let threads = SweepConfig::from_threads_var(Some(bad)).threads;
        assert_eq!(threads, fallback, "`{bad}` must fall back to the available parallelism");
    }
}

#[test]
fn canonical_sweep_is_bit_identical_at_bound_4() {
    // The symmetry-reduced sweep must reproduce the labelled scan's
    // model-membership counts AND witnesses exactly, at 1/2/4 threads —
    // the acceptance bar for enumerating only canonical representatives.
    let u = Universe::new(4, 1);
    let serial = compare(&Model::Lc, &Model::Nn, &u);
    let closed = u.count_computations_closed();
    for threads in [1, 2, 4] {
        let cfg = SweepConfig::with_threads(threads).canonical(true);
        check_identical(&serial, &lc_vs_nn(&u, &cfg), threads);
        let weighted = u128::from(weighted_count(&u, &cfg));
        assert_eq!(weighted, closed, "orbit-weighted total drift at {threads} threads");
    }
}

#[test]
fn canonical_sweep_is_bit_identical_across_locations() {
    // With more than one location the labellings are quotiented by
    // Aut(P) × S_k, a product of two non-trivial groups: memberships,
    // the lattice and every constructibility witness must still be the
    // labelled scan's, exactly; so must the first separating pairs of
    // two model comparisons (the scalar kernel).
    for (nodes, locs) in [(3, 3), (4, 2)] {
        let u = Universe::new(nodes, locs);
        assert_canonical_matches_labelled(&u);
        for (a, b) in [(Model::Lc, Model::Nn), (Model::Nw, Model::Wn)] {
            let serial = compare(&a, &b, &u);
            let cfg = SweepConfig::with_threads(2).canonical(true);
            let canonical = compare_supervised(&a, &b, &u, &cfg, &Supervisor::none())
                .expect_complete("compare");
            check_identical(&serial, &canonical, 2);
        }
    }
}

/// The same at bound 5 × 2 locations: 1.1 M labelled computations, so a
/// release build only; `ci.sh` runs it outside fast mode.
#[test]
#[ignore]
fn canonical_sweep_is_bit_identical_at_bound_5_with_two_locations() {
    assert_canonical_matches_labelled(&Universe::new(5, 2));
}

/// Canonical against labelled, both at 2 threads on the lane kernels:
/// membership counts, lattice rows, and each model's constructibility
/// witness.
fn assert_canonical_matches_labelled(u: &Universe) {
    let models = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];
    let sup = Supervisor::none();
    let labelled = SweepConfig::with_threads(2);
    let canonical = labelled.canonical(true);
    let at = format!("bound {} x {} locations", u.max_nodes, u.num_locations);
    let members = |cfg| {
        memberships_lanes_supervised(&models, u, cfg, &sup, None, None).expect_complete("members")
    };
    assert_eq!(members(&canonical), members(&labelled), "memberships at {at}");
    let lattice = |cfg| {
        let rows = lattice_lanes_supervised(&models, u, cfg, &sup).expect_complete("lattice");
        rows.into_iter().map(|r| r.relations).collect::<Vec<_>>()
    };
    assert_eq!(lattice(&canonical), lattice(&labelled), "lattice at {at}");
    for m in &models {
        let witness = |cfg| {
            check_constructible_aug_lanes_supervised(m, u, cfg, &sup)
                .expect_complete("constructibility")
                .map(|w| (w.c, w.phi, w.extension, w.op))
        };
        assert_eq!(witness(&canonical), witness(&labelled), "{} witness at {at}", m.name());
    }
}

/// The supervised LC/NN comparison, which must complete.
fn lc_vs_nn(u: &Universe, cfg: &SweepConfig) -> Comparison {
    compare_supervised(&Model::Lc, &Model::Nn, u, cfg, &Supervisor::none())
        .expect_complete("LC/NN comparison")
}

/// The universe's computation count, each weighted by its multiplicity
/// (1 in labelled mode).
fn weighted_count(u: &Universe, cfg: &SweepConfig) -> u64 {
    let out = sweep_supervised(
        u,
        cfg,
        &Supervisor::none(),
        None,
        None,
        || 0u64,
        || (),
        |acc, (), _, _, w| {
            *acc += w;
        },
    );
    out.expect_complete("counting sweep")
}

fn check_identical(serial: &Comparison, par: &Comparison, threads: usize) {
    assert_eq!(serial.relation, par.relation, "relation drift at {threads} threads");
    assert_eq!(serial.both, par.both, "count drift at {threads} threads");
    assert_eq!(serial.a_total, par.a_total, "count drift at {threads} threads");
    assert_eq!(serial.b_total, par.b_total, "count drift at {threads} threads");
    assert_eq!(serial.pairs_checked, par.pairs_checked, "visit drift at {threads} threads");
    // Witnesses must be the serial scan's first witnesses, exactly.
    assert_eq!(serial.a_only, par.a_only, "a_only witness drift at {threads} threads");
    assert_eq!(serial.b_only, par.b_only, "b_only witness drift at {threads} threads");
}
