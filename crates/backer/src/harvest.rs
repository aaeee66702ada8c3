//! Harvesting observer functions from simulated BACKER executions.
//!
//! The conformance harness wants `(C, Φ)` pairs that a *real* coherence
//! protocol can produce — the region of the model lattice actual
//! executions inhabit, which random generation over- and under-samples.
//! [`harvest_observers`] replays one computation under a spread of
//! schedules (serial, round-robin, seeded work-stealing) and cache
//! capacities and returns the distinct observer functions the simulator
//! induced.
//!
//! Deterministic for a fixed `(runs, procs, cache_lines, seed)` tuple:
//! schedules are drawn from a seeded [`StdRng`] and the simulator itself
//! is a deterministic discrete-event replay.

use crate::config::BackerConfig;
use crate::schedule::Schedule;
use crate::sim;
use ccmm_core::{Computation, ObserverFunction};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `c` under `runs` schedules on `procs` processors and returns the
/// distinct observer functions induced. The first two runs are the serial
/// and round-robin schedules; the rest are seeded work-stealing draws.
/// Each schedule executes twice, with unbounded caches and with
/// `cache_lines`-line caches (eviction forces extra fetch/reconcile
/// traffic, which changes what stale values reads can observe).
pub fn harvest_observers(
    c: &Computation,
    runs: usize,
    procs: usize,
    cache_lines: usize,
    seed: u64,
) -> Vec<ObserverFunction> {
    harvest_observers_cfg(c, runs, procs, cache_lines, seed, &BackerConfig::default())
}

/// [`harvest_observers`] with an explicit base config: `base.faults` is
/// honored by every simulated run (processors and cache capacity are
/// still taken from the arguments). This is the stress harness's
/// deterministic oracle leg — a seeded protocol mutation flows through
/// to the simulator, whose round-robin schedule reliably exercises the
/// skipped flush/reconcile across processor boundaries.
pub fn harvest_observers_cfg(
    c: &Computation,
    runs: usize,
    procs: usize,
    cache_lines: usize,
    seed: u64,
    base: &BackerConfig,
) -> Vec<ObserverFunction> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<ObserverFunction> = Vec::new();
    for r in 0..runs {
        let schedule = match r {
            0 => Schedule::serial(c),
            1 => Schedule::round_robin(c, procs),
            _ => Schedule::work_stealing(c, procs, &mut rng),
        };
        for capacity in [usize::MAX, cache_lines.max(1)] {
            let config = base.cache_capacity(capacity);
            let config = BackerConfig { processors: procs, ..config };
            let result = sim::run(c, &schedule, &config);
            if !out.contains(&result.observer) {
                out.push(result.observer);
            }
        }
    }
    out
}

/// Harvests distinct observer functions from *real threaded* executions
/// under a schedule-perturbation plan (see [`crate::threads`] and
/// [`crate::perturb`]). Unlike [`harvest_observers`] this is not
/// deterministic — the OS schedules the workers — but every returned
/// observer is a genuine conservative-BACKER execution and therefore
/// must be valid and location consistent.
pub fn harvest_observers_perturbed(
    c: &Computation,
    runs: usize,
    procs: usize,
    cache_lines: usize,
    plan: &crate::perturb::PerturbPlan,
) -> Vec<ObserverFunction> {
    let mut out: Vec<ObserverFunction> = Vec::new();
    for r in 0..runs {
        let plan = plan.clone().with_seed(plan.seed().wrapping_add(r as u64));
        for capacity in [usize::MAX, cache_lines.max(1)] {
            let config = BackerConfig::with_processors(procs).cache_capacity(capacity);
            let result = crate::threads::run_perturbed(c, &config, &plan);
            if !out.contains(&result.observer) {
                out.push(result.observer);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccmm_core::{Lc, Location, MemoryModel, Op};

    fn racy_computation() -> Computation {
        let l = Location::new(0);
        // Two parallel writers and a read joining them.
        Computation::from_edges(
            4,
            &[(0, 2), (1, 2), (2, 3)],
            vec![Op::Write(l), Op::Write(l), Op::Read(l), Op::Read(l)],
        )
    }

    #[test]
    fn harvested_observers_are_valid_and_lc() {
        let c = racy_computation();
        let observers = harvest_observers(&c, 5, 2, 1, 11);
        assert!(!observers.is_empty());
        for phi in &observers {
            assert!(phi.is_valid_for(&c), "simulator must induce a valid observer");
            assert!(Lc.contains(&c, phi), "unfaulted BACKER maintains LC");
        }
    }

    #[test]
    fn harvest_is_deterministic_in_the_seed() {
        let c = racy_computation();
        let a = harvest_observers(&c, 6, 3, 2, 99);
        let b = harvest_observers(&c, 6, 3, 2, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn faulted_harvest_cfg_produces_lc_violations() {
        // The cfg variant must thread the fault switches through to the
        // simulator: with reconcile skipped, writes die in caches and
        // some harvested observer leaves LC.
        let c = racy_computation();
        let faulty = BackerConfig::default().faults(crate::config::FaultInjection::SKIP_RECONCILE);
        let observers = harvest_observers_cfg(&c, 5, 2, 1, 11, &faulty);
        assert!(
            observers.iter().any(|phi| !phi.is_valid_for(&c) || !Lc.contains(&c, phi)),
            "skip-reconcile must be observable in the harvest"
        );
        // And the default base must match the plain entry point.
        let a = harvest_observers(&c, 5, 2, 1, 11);
        let b = harvest_observers_cfg(&c, 5, 2, 1, 11, &BackerConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn perturbed_harvest_observers_are_well_formed_across_seed_sweep() {
        // 1k random seeds × {2,4} threads: each seed draws a random
        // series-parallel computation and two perturbed *threaded*
        // executions (unbounded + 1-line caches). Every harvested
        // observer must be well-formed — every read sees ⊥ or a real
        // write to its location (`is_valid_for`) — and, because the
        // perturbation leaves the protocol untouched, LC.
        use crate::perturb::PerturbPlan;
        use rand::Rng;
        for threads in [2usize, 4] {
            for seed in 0..1000u64 {
                let mut rng = StdRng::seed_from_u64(seed ^ (threads as u64) << 32);
                let dag = ccmm_dag::generate::random_sp_dag(6, 0.5, &mut rng);
                let n = dag.node_count();
                let ops: Vec<Op> = (0..n)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => Op::Write(Location::new(rng.gen_range(0..3))),
                        1 => Op::Read(Location::new(rng.gen_range(0..3))),
                        _ => Op::Nop,
                    })
                    .collect();
                let c = Computation::new(dag, ops).unwrap();
                let plan = PerturbPlan::aggressive(seed);
                for phi in harvest_observers_perturbed(&c, 1, threads, 1, &plan) {
                    assert!(
                        phi.is_valid_for(&c),
                        "seed {seed} × {threads} threads: ill-formed observer"
                    );
                    assert!(
                        Lc.contains(&c, &phi),
                        "seed {seed} × {threads} threads: perturbed run left LC"
                    );
                }
            }
        }
    }

    #[test]
    fn harvest_deduplicates() {
        // A serial chain admits exactly one execution observer, no matter
        // how many runs are requested.
        let l = Location::new(0);
        let c = Computation::from_edges(2, &[(0, 1)], vec![Op::Write(l), Op::Read(l)]);
        let observers = harvest_observers(&c, 4, 2, 1, 0);
        assert_eq!(observers.len(), 1);
    }
}
