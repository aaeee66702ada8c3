//! Fixpoint differential: pins the Δ* engine to the naïve reference.
//!
//! The mask fixpoint ([`ccmm_core::constructible::lanes`]) computes the
//! bounded Δ* greatest fixpoint on survivor *masks*; this module proves,
//! per run, that it is bit-identical to the naïve re-scan
//! ([`BoundedConstructible::compute`]) on:
//!
//! * **survivor sets** — every `(C, Φ)` pair of the exhaustive universe
//!   at the harness bound is compared three ways: naïve re-scan, mask
//!   fixpoint with the lane kernel, and mask fixpoint with the scalar
//!   kernel (which also pins Stage-A mask materialisation across
//!   kernels). Totals, per-size counts and deletions must all agree;
//!   pass counts are not compared, since the re-scan also counts its
//!   final, empty pass.
//! * **constructibility verdicts** — the one-step augmentation search at
//!   one bound above the harness bound (the canonical bound-5 sweep
//!   under the default config), per model: the lane search must return
//!   exactly the scalar scan's witness, or agree there is none.

use ccmm_core::constructible::lanes::LaneConstructible;
use ccmm_core::constructible::BoundedConstructible;
use ccmm_core::enumerate::for_each_observer;
use ccmm_core::model::Nn;
use ccmm_core::sweep::supervisor::{
    check_constructible_aug_lanes_supervised, check_constructible_aug_supervised, Supervisor,
};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::telemetry::{self, Counter};
use ccmm_core::universe::Universe;
use std::ops::ControlFlow;

use crate::harness::HarnessConfig;

/// What a fixpoint differential run saw.
#[derive(Clone, Debug, Default)]
pub struct FixpointReport {
    /// Survivor pairs compared across the three engines.
    pub pairs: u64,
    /// Constructibility (model, verdict) comparisons.
    pub verdicts: u64,
    /// Human-readable disagreements, in discovery order.
    pub mismatches: Vec<String>,
}

impl FixpointReport {
    /// True iff every lane result matched its scalar twin.
    pub fn ok(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Runs the fixpoint differential on the harness's bound, locations, and
/// thread configuration.
pub fn run_fixpoint(cfg: &HarnessConfig) -> FixpointReport {
    let mut rep = FixpointReport::default();
    let u = Universe::new(cfg.max_nodes, cfg.num_locations);
    let sweep = &cfg.sweep;

    // Survivor sets: naïve re-scan vs mask fixpoint under both Stage-A
    // kernels, compared pair by pair over the exhaustive universe.
    let naive = BoundedConstructible::compute(&Nn::default(), &u);
    let lane = LaneConstructible::compute(&Nn::default(), &u, sweep);
    let lane_scalar_kernel = LaneConstructible::compute_supervised(
        &Nn::default(),
        &u,
        sweep,
        &Supervisor::none(),
        None,
        None,
        false,
    )
    .expect_complete("fixpoint differential (scalar kernel)");
    for (what, a, b) in [
        ("total_pairs, naive vs lane", naive.total_pairs(), lane.total_pairs()),
        ("deleted, naive vs lane", naive.deleted, lane.deleted),
        (
            "total_pairs, lane vs scalar kernel",
            lane.total_pairs(),
            lane_scalar_kernel.total_pairs(),
        ),
        ("deleted, lane vs scalar kernel", lane.deleted, lane_scalar_kernel.deleted),
    ] {
        if a != b {
            rep.mismatches.push(format!("fixpoint {what}: {a} vs {b}"));
        }
    }
    for n in 0..=u.max_nodes {
        let (a, b) = (naive.pairs_of_size(n), lane.pairs_of_size(n));
        if a != b {
            rep.mismatches.push(format!("fixpoint pairs_of_size({n}): naive {a} vs lane {b}"));
        }
    }
    let _ = u.for_each_computation(|c| {
        let _ = for_each_observer(c, |phi| {
            let s = naive.contains(c, phi);
            let l = lane.contains(c, phi);
            let k = lane_scalar_kernel.contains(c, phi);
            telemetry::count(Counter::ConformanceChecks, 1);
            rep.pairs += 1;
            if s != l || l != k {
                rep.mismatches.push(format!(
                    "fixpoint survivor split (naive {s}, lane {l}, scalar-kernel {k}) \
                     on C={c:?} phi={phi:?}"
                ));
            }
            ControlFlow::Continue(())
        });
        ControlFlow::Continue(())
    });

    // Constructibility verdicts: the canonical sweep one bound up (bound
    // 5 under the default harness config), per model. The lane search
    // must reproduce the scalar scan's witness exactly.
    let up = Universe::new(cfg.max_nodes + 1, cfg.num_locations);
    let canonical = SweepConfig { canonical: true, ..*sweep };
    for m in &cfg.models {
        let s = check_constructible_aug_supervised(m, &up, &canonical, &Supervisor::none())
            .expect_complete("constructibility differential (scalar)");
        let l = check_constructible_aug_lanes_supervised(m, &up, &canonical, &Supervisor::none())
            .expect_complete("constructibility differential (lane)");
        telemetry::count(Counter::ConformanceChecks, 1);
        rep.verdicts += 1;
        match (s, l) {
            (None, None) => {}
            (Some(s), Some(l)) => {
                if s.c != l.c || s.phi != l.phi || s.extension != l.extension || s.op != l.op {
                    rep.mismatches.push(format!(
                        "constructibility witness split for {m}: scalar (C={:?}, phi={:?}, \
                         op={:?}) vs lane (C={:?}, phi={:?}, op={:?})",
                        s.c, s.phi, s.op, l.c, l.phi, l.op
                    ));
                }
            }
            (s, l) => rep.mismatches.push(format!(
                "constructibility verdict split for {m}: scalar {} vs lane {}",
                if s.is_some() { "dead end" } else { "constructible" },
                if l.is_some() { "dead end" } else { "constructible" },
            )),
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixpoint_differential_is_clean_at_bound_3() {
        let cfg = HarnessConfig {
            max_nodes: 3,
            harvest: false,
            lock_cases: 0,
            random_cases: 0,
            ..HarnessConfig::default()
        };
        let rep = run_fixpoint(&cfg);
        for m in &rep.mismatches {
            eprintln!("{m}");
        }
        assert!(rep.ok(), "{} fixpoint mismatches", rep.mismatches.len());
        assert!(rep.pairs > 0 && rep.verdicts > 0);
    }
}
