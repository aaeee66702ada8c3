//! The differential harness: fast checkers vs definitional oracles.
//!
//! [`run`] compares each configured [`Model`]'s production checker against
//! its [`Oracle`] twin over four pair sources — exhaustive (bounded
//! universe, via the parallel sweep engine), random (seeded), harvested
//! (BACKER executions of Cilk workloads), and lock-augmented (existential
//! membership over critical-section serializations). Every disagreement
//! is shrunk to a 1-minimal witness before it is reported.
//!
//! [`run_with`] injects the fast checker as a closure; [`self_test`] uses
//! this to seed a deliberate mutation ([`mutated_fast`]) and prove the
//! harness catches and shrinks it.

use crate::shrink::{shrink, Shrunk};
use crate::sources::{random_computation, random_observer};
use ccmm_core::enumerate::for_each_observer;
use ccmm_core::locks::{CriticalSection, Lock, LockedComputation};
use ccmm_core::sweep::supervisor::{sweep_supervised, Merge, Supervisor};
use ccmm_core::sweep::SweepConfig;
use ccmm_core::telemetry::{self, Counter};
use ccmm_core::universe::Universe;
use ccmm_core::{Computation, Location, MemoryModel, Model, ObserverFunction, Op, Oracle};
use ccmm_dag::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which source produced a disagreeing pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The bounded exhaustive sweep.
    Exhaustive,
    /// The seeded random generator.
    Random,
    /// A BACKER execution of a Cilk workload.
    Harvested,
    /// A lock-augmented membership check (the pair is the serialization
    /// on which the fast checker and the oracle split).
    Lock,
}

impl fmt::Display for Source {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Source::Exhaustive => "exhaustive",
            Source::Random => "random",
            Source::Harvested => "harvested",
            Source::Lock => "lock",
        })
    }
}

/// One fast-vs-oracle split on a concrete pair.
#[derive(Clone, Debug)]
pub struct Disagreement {
    /// The model whose checkers split.
    pub model: Model,
    /// Where the pair came from.
    pub source: Source,
    /// The computation.
    pub c: Computation,
    /// The observer function.
    pub phi: ObserverFunction,
    /// The fast checker's answer.
    pub fast: bool,
    /// The oracle's answer.
    pub oracle: bool,
}

/// A disagreement together with its shrunk 1-minimal witness.
#[derive(Clone, Debug)]
pub struct ShrunkDisagreement {
    /// The disagreement as found.
    pub original: Disagreement,
    /// The minimised pair (the split still holds on it).
    pub shrunk: Shrunk,
}

/// Harness configuration. [`Default`] is the CI smoke tier: exhaustive to
/// 4 nodes × 1 location, 200 random cases, harvesting and locks on.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Models under test (default: the six concrete checkers).
    pub models: Vec<Model>,
    /// Exhaustive sweep bound: all computations up to this many nodes.
    pub max_nodes: usize,
    /// Locations in the exhaustive universe.
    pub num_locations: usize,
    /// Number of random `(C, Φ)` cases.
    pub random_cases: usize,
    /// Node cap for random computations (keep ≤ 7: the oracles enumerate
    /// topological sorts).
    pub max_random_nodes: usize,
    /// Locations for random computations.
    pub random_locations: usize,
    /// RNG seed — a run is reproducible from its config.
    pub seed: u64,
    /// Harvest observers from BACKER executions of Cilk workloads.
    pub harvest: bool,
    /// Random observers per locked computation (0 disables the lock
    /// source).
    pub lock_cases: usize,
    /// Thread configuration for the exhaustive sweep.
    pub sweep: SweepConfig,
    /// Stop collecting (but keep counting) after this many disagreements.
    pub max_disagreements: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            models: vec![Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww],
            max_nodes: 4,
            num_locations: 1,
            random_cases: 200,
            max_random_nodes: 7,
            random_locations: 2,
            seed: 0xC0FFEE,
            harvest: true,
            lock_cases: 24,
            sweep: SweepConfig::from_env(),
            max_disagreements: 8,
        }
    }
}

/// What a harness run saw.
#[derive(Clone, Debug)]
pub struct Report {
    /// `(C, Φ)` pairs from the exhaustive sweep.
    pub exhaustive_pairs: u64,
    /// Pairs from the random generator.
    pub random_pairs: u64,
    /// Pairs harvested from BACKER executions.
    pub harvested_pairs: u64,
    /// Lock-augmented membership checks.
    pub lock_pairs: u64,
    /// Individual fast-vs-oracle comparisons (pairs × models).
    pub checks: u64,
    /// Shrunk disagreements, in deterministic discovery order.
    pub disagreements: Vec<ShrunkDisagreement>,
    /// True when more disagreements existed than were collected.
    pub truncated: bool,
    /// Cases quarantined because a checker panicked (sweep tasks from the
    /// exhaustive source, individual pairs elsewhere). The harness keeps
    /// running; the skipped coverage is reported here.
    pub quarantined: u64,
}

impl Report {
    /// True iff every fast checker agreed with its oracle everywhere —
    /// and actually ran everywhere (no case was quarantined by a panic).
    pub fn ok(&self) -> bool {
        self.disagreements.is_empty() && !self.truncated && self.quarantined == 0
    }

    /// Total pairs across all sources.
    pub fn total_pairs(&self) -> u64 {
        self.exhaustive_pairs + self.random_pairs + self.harvested_pairs + self.lock_pairs
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "conformance: {} pairs ({} exhaustive, {} random, {} harvested, {} lock), {} checks",
            self.total_pairs(),
            self.exhaustive_pairs,
            self.random_pairs,
            self.harvested_pairs,
            self.lock_pairs,
            self.checks,
        )?;
        if self.quarantined > 0 {
            writeln!(f, "{} case(s) quarantined: a checker panicked", self.quarantined)?;
        }
        if self.ok() {
            write!(f, "all fast checkers agree with their oracles")
        } else if self.disagreements.is_empty() && !self.truncated {
            write!(f, "no disagreements, but quarantined coverage is missing")
        } else {
            write!(
                f,
                "{} disagreement(s){}",
                self.disagreements.len(),
                if self.truncated { " (truncated)" } else { "" }
            )
        }
    }
}

/// Adapts a closure to [`MemoryModel`] so lock-aware membership
/// ([`LockedComputation::contains_under`]) can run the injected fast
/// checker.
struct FnModel<'a, F> {
    name: &'a str,
    f: F,
}

impl<F> MemoryModel for FnModel<'_, F>
where
    F: Fn(&Computation, &ObserverFunction) -> bool,
{
    fn name(&self) -> &str {
        self.name
    }
    fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        (self.f)(c, phi)
    }
}

/// Per-task cap on collected disagreements before the global merge —
/// generous relative to `max_disagreements` so truncation cannot hide
/// the globally-first witnesses.
const WORKER_CAP: usize = 64;

/// Exhaustive-source sweep state: counters plus task-tagged finds. The
/// tag sort after the merge reproduces the serial scan's order, so the
/// extend-order dependence inside `merge` washes out.
struct ExhState {
    pairs: u64,
    checks: u64,
    finds: Vec<(usize, Disagreement)>,
}

impl Merge for ExhState {
    fn merge(&mut self, other: Self) {
        self.pairs += other.pairs;
        self.checks += other.checks;
        self.finds.extend(other.finds);
    }
}

/// Runs one non-exhaustive case under `catch_unwind`: a panicking checker
/// quarantines the case (counted, skipped) instead of aborting the
/// harness.
fn guarded_case<R>(quarantined: &mut u64, case: impl FnOnce() -> R) -> Option<R> {
    match catch_unwind(AssertUnwindSafe(case)) {
        Ok(r) => Some(r),
        Err(_) => {
            *quarantined += 1;
            None
        }
    }
}

/// Runs the harness with the production checkers (`Model::contains`).
pub fn run(cfg: &HarnessConfig) -> Report {
    run_with(cfg, |m, c, phi| m.contains(c, phi))
}

/// Runs the harness with an injected fast checker. The closure is called
/// as `fast(model, c, phi)` and its answer is compared against
/// `Oracle::for_model(model)`; everything else (sources, shrinking,
/// reporting) is identical to [`run`].
pub fn run_with<F>(cfg: &HarnessConfig, fast: F) -> Report
where
    F: Fn(Model, &Computation, &ObserverFunction) -> bool + Sync,
{
    let oracles: Vec<(Model, Oracle)> =
        cfg.models.iter().map(|&m| (m, Oracle::for_model(m))).collect();
    let mut checks: u64 = 0;
    let mut raw: Vec<Disagreement> = Vec::new();
    let mut truncated = false;
    let mut quarantined: u64 = 0;

    // Source 1: exhaustive sweep, under the supervised engine — a
    // panicking checker quarantines its poset task (retried once) instead
    // of aborting the harness. Finds are tagged with the task index; the
    // sort after the merge reproduces the serial scan's order.
    let exh_span = telemetry::span("conformance/exhaustive");
    let out = sweep_supervised(
        &Universe::new(cfg.max_nodes, cfg.num_locations),
        &cfg.sweep,
        &Supervisor::none(),
        None,
        None,
        || ExhState { pairs: 0, checks: 0, finds: Vec::new() },
        || (),
        |acc, (), task_idx, c, _| {
            let _ = for_each_observer(c, |phi| {
                acc.pairs += 1;
                for (m, oracle) in &oracles {
                    acc.checks += 1;
                    telemetry::count(Counter::ConformanceChecks, 1);
                    let f = fast(*m, c, phi);
                    let o = oracle.contains(c, phi);
                    if f != o && acc.finds.len() < WORKER_CAP {
                        acc.finds.push((
                            task_idx,
                            Disagreement {
                                model: *m,
                                source: Source::Exhaustive,
                                c: c.clone(),
                                phi: phi.clone(),
                                fast: f,
                                oracle: o,
                            },
                        ));
                    }
                }
                ControlFlow::Continue(())
            });
        },
    );
    quarantined += out.quarantined.len() as u64;
    let exhaustive_pairs = out.value.pairs;
    checks += out.value.checks;
    let mut tagged = out.value.finds;
    tagged.sort_by_key(|(idx, _)| *idx);
    for (_, d) in tagged {
        push_capped(&mut raw, d, cfg.max_disagreements, &mut truncated);
    }
    drop(exh_span);

    // Source 2: seeded random pairs (serial — reproducibility over speed).
    let random_span = telemetry::span("conformance/random");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut random_pairs = 0;
    for _ in 0..cfg.random_cases {
        let c = random_computation(&mut rng, cfg.max_random_nodes, cfg.random_locations);
        let phi = random_observer(&mut rng, &c);
        random_pairs += 1;
        let case = guarded_case(&mut quarantined, || {
            let mut case_checks = 0u64;
            let mut finds = Vec::new();
            for (m, oracle) in &oracles {
                case_checks += 1;
                telemetry::count(Counter::ConformanceChecks, 1);
                let f = fast(*m, &c, &phi);
                let o = oracle.contains(&c, &phi);
                if f != o {
                    finds.push(Disagreement {
                        model: *m,
                        source: Source::Random,
                        c: c.clone(),
                        phi: phi.clone(),
                        fast: f,
                        oracle: o,
                    });
                }
            }
            (case_checks, finds)
        });
        if let Some((case_checks, finds)) = case {
            checks += case_checks;
            for d in finds {
                push_capped(&mut raw, d, cfg.max_disagreements, &mut truncated);
            }
        }
    }

    drop(random_span);

    // Source 3: observers harvested from BACKER executions of Cilk
    // workloads. Workloads are capped at ~10 nodes so the factorial
    // oracles stay affordable.
    let harvest_span = telemetry::span("conformance/harvested");
    let mut harvested_pairs = 0;
    if cfg.harvest {
        for (_, c) in ccmm_cilk::conformance_workloads() {
            for phi in ccmm_backer::harvest::harvest_observers(&c, 6, 2, 2, cfg.seed) {
                harvested_pairs += 1;
                let case = guarded_case(&mut quarantined, || {
                    let mut case_checks = 0u64;
                    let mut finds = Vec::new();
                    for (m, oracle) in &oracles {
                        case_checks += 1;
                        telemetry::count(Counter::ConformanceChecks, 1);
                        let f = fast(*m, &c, &phi);
                        let o = oracle.contains(&c, &phi);
                        if f != o {
                            finds.push(Disagreement {
                                model: *m,
                                source: Source::Harvested,
                                c: c.clone(),
                                phi: phi.clone(),
                                fast: f,
                                oracle: o,
                            });
                        }
                    }
                    (case_checks, finds)
                });
                if let Some((case_checks, finds)) = case {
                    checks += case_checks;
                    for d in finds {
                        push_capped(&mut raw, d, cfg.max_disagreements, &mut truncated);
                    }
                }
            }
        }
    }

    drop(harvest_span);

    // Source 4: lock-augmented membership. Both sides take the same
    // existential over serializations; a split implies a serialization on
    // which the plain checkers split, which becomes the recorded pair.
    let lock_span = telemetry::span("conformance/lock");
    let mut lock_pairs = 0;
    if cfg.lock_cases > 0 {
        for lk in lock_workloads() {
            let serializations = lk.serializations();
            for _ in 0..cfg.lock_cases {
                let phi = random_observer(&mut rng, lk.computation());
                lock_pairs += 1;
                let case = guarded_case(&mut quarantined, || {
                    let mut case_checks = 0u64;
                    let mut finds = Vec::new();
                    for (m, oracle) in &oracles {
                        case_checks += 1;
                        telemetry::count(Counter::ConformanceChecks, 1);
                        let m = *m;
                        let f_model = FnModel {
                            name: "fast-under-test",
                            f: |c: &Computation, p: &ObserverFunction| fast(m, c, p),
                        };
                        let f = lk.contains_under(&f_model, &phi);
                        let o = lk.contains_under(oracle, &phi);
                        if f != o {
                            // Find the serialization the sides split on
                            // (one must exist: the accepted witness of the
                            // `true` side is rejected wholesale by the
                            // `false` side).
                            let split = serializations
                                .iter()
                                .find(|s| fast(m, s, &phi) != oracle.contains(s, &phi))
                                .expect("a lock-level split implies a serialization-level split");
                            finds.push(Disagreement {
                                model: m,
                                source: Source::Lock,
                                c: split.clone(),
                                phi: phi.clone(),
                                fast: fast(m, split, &phi),
                                oracle: oracle.contains(split, &phi),
                            });
                        }
                    }
                    (case_checks, finds)
                });
                if let Some((case_checks, finds)) = case {
                    checks += case_checks;
                    for d in finds {
                        push_capped(&mut raw, d, cfg.max_disagreements, &mut truncated);
                    }
                }
            }
        }
    }

    drop(lock_span);

    // Shrink every collected disagreement; the split predicate re-runs
    // both sides on each candidate.
    let _shrink_span = telemetry::span("conformance/shrink");
    let disagreements = raw
        .into_iter()
        .map(|d| {
            let m = d.model;
            let oracle = Oracle::for_model(m);
            let shrunk = shrink(&d.c, &d.phi, |c, phi| fast(m, c, phi) != oracle.contains(c, phi));
            ShrunkDisagreement { original: d, shrunk }
        })
        .collect();

    Report {
        exhaustive_pairs,
        random_pairs,
        harvested_pairs,
        lock_pairs,
        checks,
        disagreements,
        truncated,
        quarantined,
    }
}

fn push_capped(raw: &mut Vec<Disagreement>, d: Disagreement, cap: usize, truncated: &mut bool) {
    if raw.len() < cap {
        raw.push(d);
    } else {
        *truncated = true;
    }
}

/// Small locked computations for the lock source: parallel critical
/// sections whose membership genuinely depends on the serialization
/// chosen.
fn lock_workloads() -> Vec<LockedComputation> {
    let l0 = Location::new(0);
    let lk = Lock(0);
    // Two parallel lock-protected write→read sections on one location,
    // plus a final read joining both.
    let c1 = Computation::from_edges(
        5,
        &[(0, 1), (2, 3), (1, 4), (3, 4)],
        vec![Op::Write(l0), Op::Read(l0), Op::Write(l0), Op::Read(l0), Op::Read(l0)],
    );
    let s1 = vec![
        CriticalSection { lock: lk, acquire: NodeId::new(0), release: NodeId::new(1) },
        CriticalSection { lock: lk, acquire: NodeId::new(2), release: NodeId::new(3) },
    ];
    // Three parallel single-node write sections racing on one location.
    let c2 = Computation::from_edges(
        4,
        &[(0, 3), (1, 3), (2, 3)],
        vec![Op::Write(l0), Op::Write(l0), Op::Write(l0), Op::Read(l0)],
    );
    let s2 = (0..3)
        .map(|i| CriticalSection { lock: lk, acquire: NodeId::new(i), release: NodeId::new(i) })
        .collect();
    vec![
        LockedComputation::new(c1, s1).expect("valid sections"),
        LockedComputation::new(c2, s2).expect("valid sections"),
    ]
}

/// The deliberately buggy fast checker for [`self_test`]: LC answered as
/// NN on computations of ≥ 4 nodes — i.e. coherence (the per-location
/// total order that separates LC from NN, Theorem 22) is forgotten
/// exactly where the smallest separating computation first exists.
pub fn mutated_fast(m: Model, c: &Computation, phi: &ObserverFunction) -> bool {
    if m == Model::Lc && c.node_count() >= 4 {
        Model::Nn.contains(c, phi)
    } else {
        m.contains(c, phi)
    }
}

/// Harness self-test: run with [`mutated_fast`] and check the pipeline
/// (a) catches the seeded LC bug and (b) shrinks some witness of it to
/// ≤ 6 nodes. The sweep bound is clamped to ≥ 4 nodes so the minimal
/// witness of the bug (the Figure-4 pattern) is guaranteed in scope —
/// a self-test that could miss its own seeded bug proves nothing.
/// Returns the faulty run's report on success.
pub fn self_test(cfg: &HarnessConfig) -> Result<Report, String> {
    let mut cfg = cfg.clone();
    cfg.max_nodes = cfg.max_nodes.max(4);
    cfg.num_locations = cfg.num_locations.max(1);
    if !cfg.models.contains(&Model::Lc) {
        cfg.models.push(Model::Lc);
    }
    let report = run_with(&cfg, mutated_fast);
    if report.ok() {
        return Err("seeded LC mutation was NOT caught".into());
    }
    let lc = report
        .disagreements
        .iter()
        .filter(|d| d.original.model == Model::Lc)
        .min_by_key(|d| d.shrunk.c.node_count());
    match lc {
        None => Err("disagreements found, but none against the mutated LC checker".into()),
        Some(d) if d.shrunk.c.node_count() <= 6 => Ok(report),
        Some(d) => {
            Err(format!("LC witness shrank only to {} nodes (need ≤ 6)", d.shrunk.c.node_count()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> HarnessConfig {
        HarnessConfig {
            max_nodes: 3,
            random_cases: 40,
            max_random_nodes: 5,
            harvest: false,
            lock_cases: 4,
            sweep: SweepConfig::serial(),
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn production_checkers_pass_a_quick_run() {
        let report = run(&quick_cfg());
        assert!(report.ok(), "unexpected disagreements:\n{report}");
        assert!(report.exhaustive_pairs > 0 && report.random_pairs > 0);
        assert!(report.lock_pairs > 0);
    }

    #[test]
    fn self_test_catches_the_seeded_mutation() {
        // Bound 4 guarantees the Figure-4 NN∖LC pattern is swept, so the
        // LC-answered-as-NN mutation *must* surface.
        let cfg = HarnessConfig {
            max_nodes: 4,
            random_cases: 0,
            harvest: false,
            lock_cases: 0,
            sweep: SweepConfig::serial(),
            ..HarnessConfig::default()
        };
        let report = self_test(&cfg).expect("mutation must be caught and shrink small");
        assert!(!report.ok());
        let d = report
            .disagreements
            .iter()
            .find(|d| d.original.model == Model::Lc)
            .expect("an LC disagreement");
        // The minimal LC∕NN separator is the 4-node Figure-4 pattern.
        assert!(d.shrunk.c.node_count() >= 4, "no smaller separator exists");
    }

    #[test]
    fn lock_source_splits_are_reported_as_serializations() {
        // Inject a checker that is wrong only on serialized (≥6-edge)
        // computations of the first lock workload; the recorded pair must
        // be a serialization, not the base computation.
        let cfg = HarnessConfig {
            max_nodes: 0,
            random_cases: 0,
            harvest: false,
            lock_cases: 8,
            sweep: SweepConfig::serial(),
            ..HarnessConfig::default()
        };
        let report = run_with(&cfg, |m, c, phi| {
            if m == Model::Sc && c.node_count() == 5 && c.dag().edges().count() >= 5 {
                false // reject every serialization of workload 1
            } else {
                m.contains(c, phi)
            }
        });
        let lock_split = report.disagreements.iter().find(|d| d.original.source == Source::Lock);
        if let Some(d) = lock_split {
            assert!(
                d.original.c.dag().edges().count() >= 5,
                "recorded pair must be a serialization (has the extra lock edge)"
            );
        }
        // The SC-rejecting mutation must surface somewhere.
        assert!(!report.ok(), "mutation rejecting serializations must be caught");
    }

    #[test]
    fn panicking_checker_is_quarantined_not_fatal() {
        // A checker that panics on every 3-node computation: the harness
        // must quarantine the affected cases (sweep tasks and random
        // pairs), keep running, and fail the run *as incomplete* rather
        // than aborting or reporting a clean pass.
        let cfg = HarnessConfig {
            max_nodes: 3,
            random_cases: 30,
            max_random_nodes: 4,
            harvest: false,
            lock_cases: 0,
            sweep: SweepConfig::with_threads(2),
            ..HarnessConfig::default()
        };
        let report = run_with(&cfg, |m, c, phi| {
            if c.node_count() == 3 {
                panic!("injected checker panic on a 3-node computation");
            }
            m.contains(c, phi)
        });
        assert!(report.quarantined > 0, "3-node cases must be quarantined");
        assert!(!report.ok(), "quarantined coverage must fail the run");
        assert!(report.disagreements.is_empty(), "the checker never *disagrees*");
        // The surviving (≤ 2-node) sweep tasks were still checked.
        assert!(report.exhaustive_pairs > 0);
        assert!(report.to_string().contains("quarantined"));
    }

    #[test]
    fn report_display_is_informative() {
        let report = run(&HarnessConfig {
            max_nodes: 2,
            random_cases: 5,
            harvest: false,
            lock_cases: 0,
            sweep: SweepConfig::serial(),
            ..HarnessConfig::default()
        });
        let s = report.to_string();
        assert!(s.contains("pairs") && s.contains("agree"), "unexpected report: {s}");
    }
}
