//! The sweep prelude (canonical task tables, Δ* Stage-A plans) is built
//! once per process, in whichever pass first asks for it. No telemetry
//! counter may depend on whether that pass found it cold: each pass runs
//! twice here, its first call the first in the process to need its
//! tables or plan, and both calls must count exactly the same. Counters
//! are process-global, so this binary holds a single `#[test]`.

use ccmm_core::constructible::lanes::LaneConstructible;
use ccmm_core::sweep::supervisor::{
    check_constructible_aug_lanes_supervised, lattice_lanes_supervised,
    memberships_lanes_supervised, Supervisor,
};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::telemetry::{set_enabled, snapshot_and_reset, Counter, NUM_COUNTERS};
use ccmm_core::universe::Universe;
use ccmm_core::{Model, Nn};

const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

/// Runs `pass` twice with telemetry on; both calls must count the same.
fn cold_and_warm(name: &str, pass: impl Fn()) {
    let counted = || {
        snapshot_and_reset();
        pass();
        snapshot_and_reset()
    };
    let cold: [u64; NUM_COUNTERS] = counted();
    let warm = counted();
    assert!(cold[Counter::LabellingsScanned as usize] > 0, "{name}: the pass counts");
    assert_eq!(cold, warm, "{name}: counters of the cold and the warm call");
}

#[test]
fn no_counter_depends_on_a_warm_prelude() {
    set_enabled(true);
    let cfg = SweepConfig::with_threads(2).canonical(true);
    let sup = Supervisor::none();
    // Each pass's first call is the first to need some of the prelude:
    // the check's bound-3 universe builds tables 0..=3, memberships table
    // 4, the lattice table 5, and the fixpoint the 4 × 2 Stage-A plan.
    cold_and_warm("constructibility", || {
        let u = Universe::new(4, 1);
        assert!(check_constructible_aug_lanes_supervised(&Model::Nn, &u, &cfg, &sup).is_complete());
    });
    cold_and_warm("memberships", || {
        let u = Universe::new(4, 1);
        assert!(memberships_lanes_supervised(&MODELS, &u, &cfg, &sup, None, None).is_complete());
    });
    cold_and_warm("lattice", || {
        let u = Universe::new(5, 1);
        assert!(lattice_lanes_supervised(&MODELS, &u, &cfg, &sup).is_complete());
    });
    cold_and_warm("fixpoint", || {
        let (u, nn) = (Universe::new(4, 2), Nn::default());
        let out = LaneConstructible::compute_supervised(&nn, &u, &cfg, &sup, None, None, true);
        assert!(out.is_complete());
    });
    set_enabled(false);
}
