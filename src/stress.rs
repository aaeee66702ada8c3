//! The `ccmm stress` driver: adversarial schedule perturbation for the
//! threaded BACKER executor, with LC conformance as the oracle.
//!
//! Each iteration draws a workload and a fresh [`PerturbPlan`] seed,
//! runs the real threaded executor under the plan, and checks the
//! induced observer function: it must be *well-formed* (valid for the
//! computation) and *location consistent* — the theorem the executor
//! implements. Every `harvest_every`-th iteration additionally runs the
//! deterministic simulator leg ([`ccmm_backer::harvest`]) over seeded
//! schedules, which is what makes a seeded protocol mutation (a
//! [`FaultInjection`] switch) reproducibly catchable even on a
//! single-core machine, where real data races may never materialize.
//!
//! The loop is supervised with the same machinery as `ccmm sweep`:
//! a panicking iteration goes through [`retry_once`] and is then
//! quarantined, a deadline turns the run Partial with a resume
//! [`Frontier`], the frontier is journalled through the shared
//! [`Journal`], and a [`FaultPlan`] can panic/delay/kill specific
//! iterations or fail journal records to exercise the supervision
//! itself.
//!
//! Determinism contract (per `(seed, iters, threads)`): the workload
//! sequence, the perturbation decisions, the simulator-leg observers,
//! and therefore the check count and every failure (seed + shrunk
//! trace) are reproducible. What the *OS* does with the injected
//! schedule points is not — so the distinct-observer and SC-membership
//! tallies from the threaded leg are reported as timing-dependent and
//! never checkpointed or compared.

use ccmm_backer::harvest::harvest_observers_cfg;
use ccmm_backer::{threads, BackerConfig, FaultInjection, PerturbPlan};
use ccmm_conformance::{shrink, sources};
use ccmm_core::fault::FaultPlan;
use ccmm_core::sweep::supervisor::{retry_once, Frontier, Journal, Quarantined, SweepStatus};
use ccmm_core::telemetry;
use ccmm_core::{ckpt, Computation, Lc, Location, MemoryModel, ObserverFunction, Op, Sc};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Configuration for one stress run.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Base seed; iteration `i` derives its own seed from `(seed, i)`.
    pub seed: u64,
    /// Total iterations.
    pub iters: usize,
    /// Worker threads for the threaded executor (and simulator procs).
    pub threads: usize,
    /// Perturbation shape (its seed is replaced per iteration).
    pub perturb: PerturbPlan,
    /// Executor mutation under test ([`FaultInjection::NONE`] for a
    /// conformance run): skipping the flush models trusting a stale
    /// `proc_of` read (a weakened Acquire), skipping the reconcile a lost
    /// release edge.
    pub mutation: FaultInjection,
    /// Wall-clock budget; exceeded ⇒ Partial with a resume frontier.
    pub deadline: Option<Duration>,
    /// Small-cache capacity exercised alongside unbounded caches.
    pub cache_lines: usize,
    /// Run the deterministic simulator leg every this many iterations
    /// (≥ 1; the threaded leg runs every iteration).
    pub harvest_every: usize,
}

impl StressConfig {
    /// Defaults: aggressive perturbation, no mutation, sim leg every 4th
    /// iteration, 1-line small caches.
    pub fn new(seed: u64, iters: usize, threads: usize) -> Self {
        StressConfig {
            seed,
            iters,
            threads,
            perturb: PerturbPlan::aggressive(seed),
            mutation: FaultInjection::NONE,
            deadline: None,
            cache_lines: 1,
            harvest_every: 4,
        }
    }

    /// The checkpoint fingerprint: pins everything that must match for a
    /// journal to be resumable into this run.
    pub fn fingerprint(&self) -> String {
        format!(
            "ccmm-stress-v1 seed={} iters={} threads={} perturb={} mutation={} cache_lines={} \
             harvest_every={}",
            self.seed,
            self.iters,
            self.threads,
            self.perturb,
            self.mutation.name(),
            self.cache_lines,
            self.harvest_every
        )
    }
}

/// One conformance failure, shrunk to a 1-minimal witness.
#[derive(Clone, Debug)]
pub struct Failure {
    /// The iteration that failed.
    pub iteration: usize,
    /// Its derived seed — rerunning with `--seed` this and `--iters 1`
    /// reproduces the deterministic leg's failure.
    pub seed: u64,
    /// Which workload the iteration drew.
    pub workload: String,
    /// Which leg caught it.
    pub leg: &'static str,
    /// `invalid-observer` or `lc-violation`.
    pub kind: &'static str,
    /// The shrunk computation.
    pub c: Computation,
    /// The shrunk observer function.
    pub phi: ObserverFunction,
    /// Shrink moves taken.
    pub shrink_steps: usize,
}

/// The outcome of a stress run.
#[derive(Debug)]
pub struct StressReport {
    /// Supervision verdict (Complete / Degraded / Partial / Killed).
    pub status: SweepStatus,
    /// Completed iteration indices (includes resumed-from ones).
    pub frontier: Frontier,
    /// Total iterations requested.
    pub total: usize,
    /// Conformance checks performed — deterministic per (S, N, T).
    pub checks: u64,
    /// Conformance failures (the run stops at the first).
    pub failures: Vec<Failure>,
    /// Iterations quarantined after panicking twice.
    pub quarantined: Vec<Quarantined>,
    /// Distinct observers seen from the threaded leg — timing-dependent.
    pub distinct_observers: usize,
    /// Threaded-leg observers that were also SC — timing-dependent.
    pub sc_member: u64,
    /// Threaded-leg observers SC-checked — timing-dependent.
    pub sc_checked: u64,
    /// A checkpoint-append failure, if journalling stopped.
    pub ckpt_error: Option<String>,
}

impl StressReport {
    /// Whether every iteration ran and conformed.
    pub fn passed(&self) -> bool {
        self.status == SweepStatus::Complete && self.failures.is_empty()
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The iteration seed: a pure function of the run seed and the index,
/// so a resumed run derives identical per-iteration behaviour.
/// Iteration 0 uses the run seed verbatim, which makes the failure
/// report's rerun hint exact: `--seed <failing seed> --iters 1` replays
/// the failing iteration as iteration 0 of a fresh run.
pub fn iter_seed(seed: u64, iteration: usize) -> u64 {
    if iteration == 0 {
        seed
    } else {
        splitmix64(seed ^ splitmix64(iteration as u64))
    }
}

/// The deterministic workload pool. Fixed shapes come first (they pin
/// the executor's fork/join and chain paths); the rest of the index
/// space draws random computations from the iteration seed.
fn workload_for(iter_seed: u64) -> (String, Computation) {
    let fixed = ccmm_cilk::programs::conformance_workloads();
    let pick = (iter_seed % (fixed.len() as u64 + 3)) as usize;
    if pick < fixed.len() {
        let (name, c) = fixed.into_iter().nth(pick).expect("pick < len");
        return (name.to_string(), c);
    }
    match pick - fixed.len() {
        0 => {
            // An 8-node write/read chain: must behave like serial memory.
            let dag = ccmm_dag::generate::chain(8);
            let ops: Vec<Op> = (0..8)
                .map(|i| {
                    if i % 2 == 0 {
                        Op::Write(Location::new(0))
                    } else {
                        Op::Read(Location::new(0))
                    }
                })
                .collect();
            ("chain8".into(), Computation::new(dag, ops).expect("one op per node"))
        }
        1 => {
            let dag = ccmm_dag::generate::fork_join_tree(3);
            let n = dag.node_count();
            let ops: Vec<Op> = (0..n)
                .map(|i| match i % 4 {
                    0 => Op::Write(Location::new(0)),
                    1 => Op::Read(Location::new(0)),
                    2 => Op::Write(Location::new(1)),
                    _ => Op::Read(Location::new(1)),
                })
                .collect();
            ("fork-join3".into(), Computation::new(dag, ops).expect("one op per node"))
        }
        _ => {
            let mut rng = StdRng::seed_from_u64(iter_seed);
            ("random".into(), sources::random_computation(&mut rng, 12, 3))
        }
    }
}

/// Checks one observer; on disagreement shrinks it to a 1-minimal
/// witness and returns the failure.
fn check_observer(
    iteration: usize,
    seed: u64,
    workload: &str,
    leg: &'static str,
    c: &Computation,
    phi: &ObserverFunction,
) -> Result<(), Box<Failure>> {
    let kind = if !phi.is_valid_for(c) {
        "invalid-observer"
    } else if !Lc.contains(c, phi) {
        "lc-violation"
    } else {
        return Ok(());
    };
    let shrunk = shrink(c, phi, |c2, p2| !p2.is_valid_for(c2) || !Lc.contains(c2, p2));
    Err(Box::new(Failure {
        iteration,
        seed,
        workload: workload.to_string(),
        leg,
        kind,
        c: shrunk.c,
        phi: shrunk.phi,
        shrink_steps: shrunk.steps,
    }))
}

/// Per-iteration result folded into the report.
struct IterDelta {
    checks: u64,
    sc_member: u64,
    sc_checked: u64,
    threaded_observers: Vec<ObserverFunction>,
    failure: Option<Box<Failure>>,
}

/// Runs one iteration: the simulator leg (on `harvest_every`
/// boundaries) and the threaded leg (every time). The deterministic leg
/// goes first, so a failure it can witness is always the one reported —
/// and the report's rerun hint replays it exactly — rather than racing
/// the timing-dependent threaded leg to the same protocol bug.
fn run_iteration(cfg: &StressConfig, iteration: usize) -> IterDelta {
    let seed = iter_seed(cfg.seed, iteration);
    let (workload, c) = workload_for(seed);
    let plan = cfg.perturb.clone().with_seed(seed);
    let backer = BackerConfig::with_processors(cfg.threads)
        .cache_capacity(cfg.cache_lines.max(1))
        .faults(cfg.mutation);
    let mut delta = IterDelta {
        checks: 0,
        sc_member: 0,
        sc_checked: 0,
        threaded_observers: Vec::new(),
        failure: None,
    };

    // Simulator leg: deterministic seeded schedules through the same
    // protocol switches — the leg that reproduces mutations reliably.
    if iteration.is_multiple_of(cfg.harvest_every.max(1)) {
        for phi in harvest_observers_cfg(&c, 3, cfg.threads, cfg.cache_lines, seed, &backer) {
            delta.checks += 1;
            if let Err(f) = check_observer(iteration, seed, &workload, "sim", &c, &phi) {
                delta.failure = Some(f);
                return delta;
            }
        }
    }

    // Threaded leg: real OS threads under the perturbation plan.
    let r = threads::run_perturbed(&c, &backer, &plan);
    delta.checks += 1;
    // SC membership is worth tallying only where the exact checker is
    // cheap; the tally is timing-dependent either way.
    if c.node_count() <= 10 && r.observer.is_valid_for(&c) {
        delta.sc_checked += 1;
        delta.sc_member += Sc.contains(&c, &r.observer) as u64;
    }
    if let Err(f) = check_observer(iteration, seed, &workload, "threaded", &c, &r.observer) {
        delta.failure = Some(f);
        return delta;
    }
    delta.threaded_observers.push(r.observer);
    delta
}

/// Encodes the checkpoint payload: frontier + deterministic counters.
/// Timing-dependent tallies are deliberately not journalled — a resumed
/// run re-derives only what is reproducible.
fn encode_snapshot(frontier: &Frontier, checks: u64) -> Vec<u8> {
    let mut out = Vec::new();
    frontier.encode_into(&mut out);
    ckpt::put_u64(&mut out, checks);
    out
}

/// Decodes a checkpoint payload.
pub fn decode_snapshot(mut bytes: &[u8]) -> Option<(Frontier, u64)> {
    let f = Frontier::decode_from(&mut bytes)?;
    let checks = ckpt::get_u64(&mut bytes)?;
    if bytes.is_empty() {
        Some((f, checks))
    } else {
        None
    }
}

/// Runs the stress loop under supervision.
///
/// The loop is serial over iterations (the executor under test is
/// internally parallel — nesting thread pools would only dilute the
/// contention the perturbation works to create), but carries the full
/// supervisor contract: panic → [`retry_once`] → quarantine; deadline →
/// Partial with a resume frontier; `fault` can panic/delay specific
/// iterations, fail journal records, and kill after checkpoint records;
/// `ckpt` is `(journal, every-N-iterations)`; `resume` skips
/// already-completed iterations. The run stops early at the first
/// conformance failure — there is nothing more valuable to learn, and
/// the failing seed plus shrunk trace is the deliverable.
pub fn run_supervised(
    cfg: &StressConfig,
    fault: &FaultPlan,
    resume: Option<(Frontier, u64)>,
    ckpt: Option<(&mut ckpt::CkptWriter, usize)>,
) -> StressReport {
    let ids: Vec<usize> = (0..cfg.iters).collect();
    fault.resolve_indices(&ids);
    let (mut frontier, mut checks) = resume.unwrap_or((Frontier::new(), 0));
    let mut journal = Journal::new(ckpt, fault);
    let mut failures = Vec::new();
    let mut quarantined = Vec::new();
    let mut distinct: Vec<ObserverFunction> = Vec::new();
    let (mut sc_member, mut sc_checked) = (0, 0);
    let start = Instant::now();

    for i in 0..cfg.iters {
        if frontier.contains(i) {
            continue;
        }
        if cfg.deadline.is_some_and(|d| start.elapsed() >= d) {
            break;
        }
        let delta = retry_once(
            &mut (),
            |_| {},
            |_| {
                fault.before_task(i);
                run_iteration(cfg, i)
            },
        );
        let delta = match delta {
            Ok(d) => d,
            Err(payload) => {
                quarantined.push(Quarantined { task_idx: i, size: 0, payload });
                continue;
            }
        };
        checks += delta.checks;
        sc_member += delta.sc_member;
        sc_checked += delta.sc_checked;
        for phi in delta.threaded_observers {
            if !distinct.contains(&phi) {
                distinct.push(phi);
            }
        }
        frontier.insert(i);
        if let Some(f) = delta.failure {
            failures.push(*f);
            break;
        }
        telemetry::progress_tick(frontier.len(), cfg.iters, quarantined.len());
        if journal.tick(|| encode_snapshot(&frontier, checks)) {
            break;
        }
    }

    // Only a deadline leaves iterations unattempted without a failure to
    // show for it; stopping at the first failure is the point of the run.
    let stopped_short = frontier.len() + quarantined.len() < cfg.iters && failures.is_empty();
    StressReport {
        status: journal.status(stopped_short, quarantined.len()),
        ckpt_error: journal.error().map(str::to_string),
        frontier,
        total: cfg.iters,
        checks,
        failures,
        quarantined,
        distinct_observers: distinct.len(),
        sc_member,
        sc_checked,
    }
}

/// Convenience entry: unsupervised faults, no checkpoint.
pub fn run(cfg: &StressConfig) -> StressReport {
    run_supervised(cfg, &FaultPlan::none(), None, None)
}

/// The self-test: proves the harness catches a deliberately weakened
/// executor. Runs each seeded mutation (`skip-flush`, modelling a
/// weakened Acquire, and `skip-reconcile`, a lost release edge) and
/// requires a conformance failure with a reproducible seed and a shrunk
/// trace; then re-runs the identical seeds unmutated and requires a
/// clean pass.
pub fn self_test(threads: usize) -> Result<(), String> {
    let mut cfg = StressConfig::new(0x00C0_FFEE, 24, threads);
    cfg.harvest_every = 1; // the deterministic leg every iteration
    for mutation in [FaultInjection::SKIP_FLUSH, FaultInjection::SKIP_RECONCILE] {
        cfg.mutation = mutation;
        let mutated = run(&cfg);
        let Some(f) = mutated.failures.first() else {
            return Err(format!("self-test: the {} mutation was NOT caught", mutation.name()));
        };
        if f.c.node_count() == 0 {
            return Err("self-test: shrunk trace is empty".into());
        }
        // The failure must reproduce from its reported seed alone.
        let (_, c) = workload_for(f.seed);
        let backer = BackerConfig::with_processors(threads)
            .cache_capacity(cfg.cache_lines.max(1))
            .faults(mutation);
        let reproduced = harvest_observers_cfg(&c, 3, threads, cfg.cache_lines, f.seed, &backer)
            .iter()
            .any(|phi| !phi.is_valid_for(&c) || !Lc.contains(&c, phi));
        if f.leg == "sim" && !reproduced {
            return Err(format!(
                "self-test: seed {} did not reproduce the sim-leg failure",
                f.seed
            ));
        }
    }
    cfg.mutation = FaultInjection::NONE;
    let clean = run(&cfg);
    if !clean.passed() {
        return Err(format!(
            "self-test: unmutated executor failed conformance (status {:?}, {} failure(s))",
            clean.status,
            clean.failures.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_is_deterministic_per_seed_in_its_deterministic_outputs() {
        let cfg = StressConfig::new(42, 12, 2);
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.status, SweepStatus::Complete);
        assert_eq!(a.checks, b.checks, "check count is part of the determinism contract");
        assert_eq!(a.failures.len(), 0);
        assert_eq!(b.failures.len(), 0);
        assert_eq!(a.frontier, b.frontier);
    }

    #[test]
    fn iteration_seeds_differ_and_are_stable() {
        let s: Vec<u64> = (0..16).map(|i| iter_seed(7, i)).collect();
        let t: Vec<u64> = (0..16).map(|i| iter_seed(7, i)).collect();
        assert_eq!(s, t);
        let mut u = s.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), s.len(), "iteration seeds must not collide");
    }

    #[test]
    fn deadline_yields_partial_with_a_resumable_frontier() {
        let mut cfg = StressConfig::new(3, 10_000, 2);
        cfg.deadline = Some(Duration::from_millis(30));
        let r = run(&cfg);
        assert_eq!(r.status, SweepStatus::Partial);
        assert!(r.frontier.len() < cfg.iters);
        // Resuming from the frontier completes the remaining indices
        // (shrink the total so the resumed run finishes quickly).
        let mut cfg2 = cfg.clone();
        cfg2.iters = r.frontier.len() + 5;
        cfg2.deadline = None;
        let resumed =
            run_supervised(&cfg2, &FaultPlan::none(), Some((r.frontier.clone(), r.checks)), None);
        assert_eq!(resumed.status, SweepStatus::Complete);
        assert_eq!(resumed.frontier.len(), cfg2.iters);
    }

    #[test]
    fn fault_plan_panics_are_quarantined() {
        let cfg = StressConfig::new(5, 8, 2);
        let fault = FaultPlan::none().panic_at_task(3);
        let r = run_supervised(&cfg, &fault, None, None);
        assert_eq!(r.status, SweepStatus::Degraded);
        assert_eq!(r.quarantined.len(), 1);
        assert_eq!(r.quarantined[0].task_idx, 3);
        assert!(!r.frontier.contains(3));
    }

    #[test]
    fn mutation_is_caught_with_seed_and_shrunk_trace() {
        let mut cfg = StressConfig::new(0x00C0_FFEE, 24, 2);
        cfg.harvest_every = 1;
        cfg.mutation = FaultInjection::SKIP_RECONCILE;
        let r = run(&cfg);
        let f = r.failures.first().expect("skip-reconcile must be caught");
        // Stopping at the first failure is the point of the run, not a
        // deadline: the status stays non-Partial.
        assert!(r.frontier.len() < cfg.iters, "the run stops at its first failure");
        assert_eq!(r.status, SweepStatus::Complete);
        assert!(f.c.node_count() >= 1);
        assert!(f.shrink_steps > 0 || f.c.node_count() <= 3, "trace should have shrunk");
        assert_eq!(f.seed, iter_seed(cfg.seed, f.iteration));
    }

    #[test]
    fn fingerprint_names_the_mutation() {
        let mut cfg = StressConfig::new(7, 10, 2);
        cfg.mutation = FaultInjection::SKIP_FLUSH;
        assert_eq!(
            cfg.fingerprint(),
            "ccmm-stress-v1 seed=7 iters=10 threads=2 \
             perturb=yield=1/2,spin=1/8:64,steal=rotate,seed=7 mutation=skip-flush \
             cache_lines=1 harvest_every=4"
        );
    }

    #[test]
    fn self_test_passes() {
        self_test(2).expect("self-test");
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let mut f = Frontier::new();
        for i in [0usize, 1, 2, 7, 8, 20] {
            f.insert(i);
        }
        let bytes = encode_snapshot(&f, 99);
        let (f2, checks) = decode_snapshot(&bytes).expect("decode");
        assert_eq!(f2, f);
        assert_eq!(checks, 99);
        assert_eq!(decode_snapshot(&bytes[..bytes.len() - 1]), None);
    }
}
