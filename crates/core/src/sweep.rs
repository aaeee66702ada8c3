//! Parallel universe sweeps: sharding the (poset × op-labelling) space.
//!
//! Every exhaustive checker in this crate walks the same space — all
//! naturally labelled posets of each size crossed with all op labellings
//! and all valid observer functions. This module shards that space across
//! worker threads: the *task* unit is one poset (all labellings of one
//! dag), listed in serial enumeration order with a global index and
//! handed out in that order through one atomic cursor under
//! [`std::thread::scope`]. Passes borrow their tasks: canonical lists
//! and the Δ* Stage-A plan are built once per process (`sweep::plan`).
//!
//! **Symmetry reduction.** Every property swept here is invariant under
//! dag isomorphism and under permutations of the location alphabet. With
//! [`SweepConfig::canonical`] set, the sweep enumerates only canonical
//! poset representatives ([`ccmm_dag::canon`]) weighted by orbit size,
//! and within each poset only one op labelling per orbit of
//! `Aut(P) × S_k` (the poset's automorphisms times the location
//! permutations) weighted by that orbit's size, so weighted totals are
//! *integer-identical* to the labelled scan at a fraction of the work.
//! The model-verdict passes go one step further: a
//! [`crate::model::MemoryModel`] sees ops only through the locations
//! they write, so they spell labellings in write-pattern letters
//! (`sweep::Letters`: `N` for every non-write, weighted by their number) and
//! decide one labelling per orbit of write patterns.
//! Witnesses are also bit-identical: the minimal witnessing poset is
//! necessarily canonical (its class representative is the first class
//! member in enumeration order and witnesses too, by invariance), and
//! the first witnessing labelling within it is necessarily its class's
//! representative (the representative witnesses too and is enumerated
//! no later), so the smallest-task-index merge returns exactly the
//! serial labelled witness.
//!
//! Every sweep runs through one supervised engine, and the public entry
//! points all live in [`supervisor`]: the general
//! [`supervisor::sweep_supervised`] fold and the checks built on it. A
//! caller that wants all-or-nothing semantics passes
//! [`supervisor::Supervisor::none`] and unwraps with
//! [`supervisor::Supervised::expect_complete`].
//!
//! Determinism is part of the contract, not an accident:
//!
//! * counting sweeps ([`supervisor::memberships_supervised`],
//!   [`supervisor::compare_supervised`], [`supervisor::lattice_supervised`])
//!   visit every pair exactly once (canonical mode: exactly once per
//!   orbit, weighted), so the merged totals are bit-identical to the
//!   serial scan;
//! * witness sweeps ([`supervisor::check_complete_supervised`],
//!   [`supervisor::check_monotonic_supervised`],
//!   [`supervisor::check_constructible_aug_supervised`], and
//!   [`supervisor::compare_supervised`]'s witnesses) resolve races by
//!   *smallest task index wins*. A task is scanned serially by exactly
//!   one worker, so "first witness within the minimal witnessing task" is
//!   exactly the witness the serial scan returns. A shared atomic
//!   best-index lets workers skip or abandon tasks that can no longer win
//!   — cooperative early exit without changing the answer.
//!
//! Thread count comes from [`SweepConfig`]: the `CCMM_THREADS` environment
//! variable when set, otherwise [`std::thread::available_parallelism`].

pub(crate) mod plan;
pub mod supervisor;

use crate::computation::Computation;
use crate::op::{Location, Op};
use crate::universe::Universe;
use ccmm_dag::poset::{count_posets_fast, for_each_poset_indexed};
use ccmm_dag::Dag;
use std::ops::ControlFlow;
use std::time::Duration;

/// How a sweep is parallelised and enumerated.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Number of worker threads (≥ 1).
    pub threads: usize,
    /// Sweep canonical poset representatives and one labelling per
    /// `Aut(P) × S_k` orbit only, weighting counts by orbit size; the
    /// model-verdict passes also decide one labelling per write pattern
    /// (see the module docs). Totals and witnesses are identical to the
    /// labelled sweep.
    pub canonical: bool,
    /// Cooperative time budget: workers stop between tasks once it
    /// elapses and the sweep reports [`supervisor::SweepStatus::Partial`]
    /// with its resume frontier. A caller that unwraps with
    /// [`supervisor::Supervised::expect_complete`] panics on a partial
    /// sweep, so set a deadline only when the caller inspects the status.
    pub deadline: Option<Duration>,
}

impl SweepConfig {
    /// `CCMM_THREADS` when set to a positive integer, otherwise the
    /// machine's available parallelism (1 if unknown).
    pub fn from_env() -> Self {
        Self::from_threads_var(std::env::var("CCMM_THREADS").ok().as_deref())
    }

    /// [`SweepConfig::from_env`] on a given `CCMM_THREADS` value: a
    /// positive integer is the thread count; anything else (unset,
    /// garbage, zero) falls back to the available parallelism.
    pub fn from_threads_var(value: Option<&str>) -> Self {
        let threads =
            value.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&n| n > 0).unwrap_or_else(
                || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            );
        SweepConfig { threads, canonical: false, deadline: None }
    }

    /// A single-threaded sweep (the serial scan, run through the same
    /// engine).
    pub fn serial() -> Self {
        SweepConfig { threads: 1, canonical: false, deadline: None }
    }

    /// An explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "a sweep needs at least one thread");
        SweepConfig { threads, canonical: false, deadline: None }
    }

    /// Enables or disables symmetry-reduced (canonical) enumeration.
    pub fn canonical(mut self, on: bool) -> Self {
        self.canonical = on;
        self
    }

    /// Sets the cooperative time budget (see the `deadline` field).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig::from_env()
    }
}

/// One unit of sweep work: one poset, covering all its op labellings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Task {
    /// Global index in serial enumeration order (sizes ascending, posets
    /// in `for_each_poset` order within a size). Canonical tasks keep
    /// their *labelled* global index, so smallest-index witness merging
    /// stays comparable with the labelled scan.
    pub(crate) idx: usize,
    /// Node count of the poset.
    pub(crate) size: usize,
    /// Number of labelled posets in this poset's isomorphism class
    /// (1 in labelled mode).
    pub(crate) weight: u64,
    /// The poset's transitive-closure dag.
    pub(crate) dag: Dag,
    /// The automorphisms its labellings are quotiented by, as node
    /// permutations of `size` bytes each, concatenated, the identity
    /// first: all of `Aut(P)` in canonical mode, the identity alone in
    /// labelled mode.
    pub(crate) auts: Vec<u8>,
}

/// The labelled tasks of universe `u` whose dag `keep` admits, in serial
/// enumeration order, freshly enumerated: only the kept dags are cloned.
/// Labelled lists are the independent reference of the canonical ones,
/// so they are never memoised.
pub(crate) fn labelled_tasks(u: &Universe, keep: impl Fn(&Dag) -> bool) -> Vec<Task> {
    let mut tasks = Vec::new();
    let mut base = 0usize;
    for n in 0..=u.max_nodes {
        let identity: Vec<u8> = (0..n as u8).collect();
        for_each_poset_indexed(n, |idx, dag| {
            if keep(dag) {
                let (dag, auts) = (dag.clone(), identity.clone());
                tasks.push(Task { idx: base + idx, size: n, weight: 1, dag, auts });
            }
        });
        base += count_posets_fast(n) as usize;
    }
    tasks
}

/// Calls `f` with all tasks of universe `u`, borrowed, in serial
/// enumeration order: in canonical mode the memoised class
/// representatives ([`plan::canonical_tasks`]), weighted by orbit, keeping
/// their labelled global indices and carrying their automorphisms;
/// otherwise a fresh labelled list.
pub(crate) fn with_tasks<R>(u: &Universe, canonical: bool, f: impl FnOnce(&[&Task]) -> R) -> R {
    if canonical {
        f(&plan::canonical_tasks(u.max_nodes))
    } else {
        let tasks = labelled_tasks(u, |_| true);
        f(&tasks.iter().collect::<Vec<_>>())
    }
}

/// Per-worker labelling state: one reusable [`Computation`] retargeted per
/// task and relabelled per op labelling (zero allocation in the loop), the
/// base-`k` digit counter, and the op buffer.
pub(crate) struct LabelScratch {
    c: Computation,
    digits: Vec<usize>,
    ops: Vec<Op>,
}

impl LabelScratch {
    pub(crate) fn new() -> Self {
        LabelScratch { c: Computation::empty(), digits: Vec::new(), ops: Vec::new() }
    }
}

/// The letters a sweep spells op labellings in, each with the number of
/// alphabet ops it stands for, and the digit maps of the location group
/// over them.
///
/// *Full* letters are the universe's alphabet, one op each. *Pattern*
/// letters quotient labellings by read/no-op relabelling, which every
/// [`crate::model::MemoryModel`] is invariant under (it sees `op(u)` only
/// through the location `u` writes): the first non-write op of the
/// alphabet — `N`, or `R(0)` in a universe without `N` — stands for every
/// non-write op and weighs their number (`k + 1`, or `k`), and each write
/// is its own letter. Either table keeps alphabet order, so within a
/// class of labellings that share a write pattern, the one spelled in
/// letters alone comes first in enumeration order. The default table is
/// empty: no op has a letter.
#[derive(Default)]
pub(crate) struct Letters {
    /// The ops labellings are spelled in, in alphabet order.
    pub(crate) ops: Vec<Op>,
    /// Per letter, the number of alphabet ops it stands for.
    weights: Vec<u64>,
    /// The universe's alphabet, and per alphabet op, its letter.
    alphabet: Vec<Op>,
    letter_of: Vec<usize>,
    /// Digit maps of the location-permutation group over letters: for
    /// each `π ∈ S_k`, entry `d` is the letter of `ops[d]` with `π`
    /// applied to its location, the identity first. Just the identity
    /// when the sweep does not quotient by location permutations.
    pub(crate) maps: Vec<Vec<usize>>,
}

impl Letters {
    /// The letter table of universe `u`: pattern letters if `patterns`,
    /// full letters otherwise; all of `S_k` as maps if `locations`, the
    /// identity alone otherwise.
    pub(crate) fn new(u: &Universe, patterns: bool, locations: bool) -> Self {
        let alphabet = u.alphabet();
        let writes = |op: &Op| matches!(op, Op::Write(_));
        let stand_in = alphabet.iter().position(|op| !writes(op));
        let (mut ops, mut weights, mut letter_of) = (Vec::new(), Vec::new(), Vec::new());
        for (i, op) in alphabet.iter().enumerate() {
            match stand_in {
                Some(s) if patterns && !writes(op) && i != s => {
                    let letter = letter_of[s];
                    weights[letter] += 1;
                    letter_of.push(letter);
                }
                _ => {
                    letter_of.push(ops.len());
                    ops.push(*op);
                    weights.push(1);
                }
            }
        }
        let mut letters = Letters { ops, weights, alphabet, letter_of, maps: Vec::new() };
        letters.maps = if locations {
            letters.location_maps(u.num_locations)
        } else {
            vec![(0..letters.ops.len()).collect()]
        };
        letters
    }

    /// The letters of a config's model-verdict passes: pattern letters
    /// under `Aut(P) × S_k` in canonical mode, every labelling otherwise.
    pub(crate) fn for_verdicts(u: &Universe, cfg: &SweepConfig) -> Self {
        Letters::new(u, cfg.canonical, cfg.canonical)
    }

    /// The letter `op` is spelled with, or `None` if `op` is outside the
    /// alphabet.
    pub(crate) fn letter(&self, op: Op) -> Option<usize> {
        self.alphabet.iter().position(|&o| o == op).map(|i| self.letter_of[i])
    }

    /// The universe multiplicity of a labelling spelled in `digits`.
    fn weight(&self, digits: &[usize]) -> u64 {
        digits.iter().map(|&d| self.weights[d]).product()
    }

    /// [`Self::weight`] of the `n`-node labelling with enumeration index
    /// `ord` (base `|letters|`, node 0's digit least significant).
    pub(crate) fn weight_of_index(&self, mut ord: u64, n: usize) -> u64 {
        let base = self.ops.len() as u64;
        let mut weight = 1;
        for _ in 0..n {
            weight *= self.weights[(ord % base) as usize];
            ord /= base;
        }
        weight
    }

    /// The digit maps of all of `S_k` over the letters.
    fn location_maps(&self, num_locations: usize) -> Vec<Vec<usize>> {
        let mut perms: Vec<Vec<usize>> = vec![Vec::new()];
        for i in 0..num_locations {
            perms = perms
                .into_iter()
                .flat_map(|p| {
                    (0..=i).map(move |at| {
                        let mut q = p.clone();
                        q.insert(at, i);
                        q
                    })
                })
                .collect();
        }
        perms
            .iter()
            .map(|p| {
                self.ops
                    .iter()
                    .map(|op| {
                        let moved = match *op {
                            Op::Nop => Op::Nop,
                            Op::Read(l) => Op::Read(Location::new(p[l.index()])),
                            Op::Write(l) => Op::Write(Location::new(p[l.index()])),
                        };
                        self.letter(moved).expect("alphabet is closed under location permutation")
                    })
                    .collect()
            })
            .collect()
    }
}

/// Whether the labelling `digits` is the first member of its orbit
/// under `Aut(P) × S_k` in labelling enumeration order (reversed-digit
/// lexicographic: `digits[n-1]` most significant, matching the base-`k`
/// counter that increments `digits[0]` fastest), and if so `Some` of its
/// orbit size `|G| / |Stab|`. `auts` holds the node permutations of
/// `Aut(P)` (`n` bytes each) and `maps` the digit maps of `S_k`; the
/// pair `(g, m)` sends `digits` to the labelling whose node `j` carries
/// `m[digits[g[j]]]`.
fn orbit_weight(digits: &[usize], auts: &[u8], maps: &[Vec<usize>]) -> Option<u64> {
    let n = digits.len();
    if n == 0 || (auts.len() == n && maps.len() <= 1) {
        return Some(1); // the group fixes every labelling
    }
    let mut stabilizers = 0u64;
    for g in auts.chunks_exact(n) {
        for m in maps {
            let mut cmp = std::cmp::Ordering::Equal;
            for j in (0..n).rev() {
                cmp = m[digits[g[j] as usize]].cmp(&digits[j]);
                if cmp != std::cmp::Ordering::Equal {
                    break;
                }
            }
            match cmp {
                std::cmp::Ordering::Less => return None,
                std::cmp::Ordering::Equal => stabilizers += 1,
                std::cmp::Ordering::Greater => {}
            }
        }
    }
    Some((auts.len() / n * maps.len()) as u64 / stabilizers)
}

/// Calls `f` with every labelling of a task's poset spelled in `letters`,
/// in the base-`|letters|` digit-counter order of
/// `Universe::for_each_computation_of_size` (node 0's digit fastest),
/// plus the labelling's universe multiplicity: poset orbit × labelling
/// orbit × the letters' weights (1 for a labelled task in full letters).
/// Only the first member of each orbit under the task's automorphisms
/// times `letters.maps` is visited, so a labelled task in full letters
/// visits every labelling. `f` may grow the computation in place
/// ([`Computation::push`]) but must undo it ([`Computation::pop_last`])
/// before returning. Counts the scan into
/// [`crate::telemetry::Counter::PosetsScanned`] and `LabellingsScanned`.
pub(crate) fn for_each_labelling<F>(
    letters: &Letters,
    task: &Task,
    scratch: &mut LabelScratch,
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&mut Computation, u64) -> ControlFlow<()>,
{
    crate::telemetry::count(crate::telemetry::Counter::PosetsScanned, 1);
    for_each_labelling_uncounted(letters, task, scratch, &mut |c, w| {
        crate::telemetry::count(crate::telemetry::Counter::LabellingsScanned, 1);
        f(c, w)
    })
}

/// [`for_each_labelling`] without the scan counters, for the prelude's
/// one-off walks ([`plan`]): a walk that runs only in whichever pass
/// finds the memo cold would make that pass's counters depend on it.
pub(crate) fn for_each_labelling_uncounted<F>(
    letters: &Letters,
    task: &Task,
    scratch: &mut LabelScratch,
    f: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&mut Computation, u64) -> ControlFlow<()>,
{
    let n = task.size;
    let k = letters.ops.len();
    scratch.c.retarget(&task.dag);
    scratch.digits.clear();
    scratch.digits.resize(n, 0);
    loop {
        if let Some(orbit) = orbit_weight(&scratch.digits, &task.auts, &letters.maps) {
            scratch.ops.clear();
            scratch.ops.extend(scratch.digits.iter().map(|&d| letters.ops[d]));
            scratch.c.refresh_ops(&scratch.ops);
            f(&mut scratch.c, task.weight * orbit * letters.weight(&scratch.digits))?;
        }
        let mut i = 0;
        loop {
            if i == n {
                return ControlFlow::Continue(());
            }
            scratch.digits[i] += 1;
            if scratch.digits[i] < k {
                break;
            }
            scratch.digits[i] = 0;
            i += 1;
        }
    }
}

/// Runs `worker` on `threads` scoped threads and collects the per-worker
/// results. With one thread the worker runs on the caller's thread — no
/// spawn, same code path.
fn run_workers<R, W>(threads: usize, worker: W) -> Vec<R>
where
    R: Send,
    W: Fn() -> R + Sync,
{
    if threads == 1 {
        return vec![worker()];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(&worker)).collect();
        // Task panics are caught per task inside the supervised engine,
        // so a panic escaping a worker is an infrastructure bug — re-raise
        // it instead of replacing it with a generic expect message.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// A witness tagged with the task index it was found in; merged by
/// smallest index, which reproduces the serial scan's first witness.
struct Keyed<W> {
    task_idx: usize,
    witness: W,
}

fn keep_min<W>(slot: &mut Option<Keyed<W>>, task_idx: usize, witness: impl FnOnce() -> W) {
    if slot.as_ref().is_none_or(|k| task_idx < k.task_idx) {
        *slot = Some(Keyed { task_idx, witness: witness() });
    }
}

#[cfg(test)]
mod tests {
    use super::supervisor::{
        check_complete_supervised, check_constructible_aug_supervised, check_monotonic_supervised,
        compare_supervised, lattice_supervised, sweep_supervised, Supervisor, SweepStatus,
    };
    use super::*;
    use crate::model::{Lc, MemoryModel, Model, Nn, Sc};
    use crate::observer::ObserverFunction;
    use crate::props::{check_complete, check_constructible_aug, check_monotonic};
    use crate::relation::{compare, Comparison};
    use ccmm_dag::NodeId;

    /// The supervised comparison, unwrapped as a clean run must be.
    fn compare_clean<A, B>(a: &A, b: &B, u: &Universe, cfg: &SweepConfig) -> Comparison
    where
        A: MemoryModel + Sync,
        B: MemoryModel + Sync,
    {
        compare_supervised(a, b, u, cfg, &Supervisor::none()).expect_complete("compare")
    }

    /// The universe's weighted computation count, over the tasks whose
    /// index `count` admits.
    fn weighted_count(
        u: &Universe,
        cfg: &SweepConfig,
        count: impl Fn(usize) -> bool + Sync,
    ) -> supervisor::Supervised<u64> {
        sweep_supervised(
            u,
            cfg,
            &Supervisor::none(),
            None,
            None,
            || 0u64,
            || (),
            |acc, _, idx, _, w| {
                if count(idx) {
                    *acc += w;
                }
            },
        )
    }

    fn assert_same_comparison(serial: &Comparison, par: &Comparison) {
        assert_eq!(serial.relation, par.relation);
        assert_eq!(serial.both, par.both);
        assert_eq!(serial.a_total, par.a_total);
        assert_eq!(serial.b_total, par.b_total);
        assert_eq!(serial.pairs_checked, par.pairs_checked);
        let same_pair = |x: &Option<(Computation, ObserverFunction)>,
                         y: &Option<(Computation, ObserverFunction)>| {
            match (x, y) {
                (None, None) => true,
                (Some((c1, p1)), Some((c2, p2))) => c1 == c2 && p1 == p2,
                _ => false,
            }
        };
        assert!(same_pair(&serial.a_only, &par.a_only), "a_only witness differs");
        assert!(same_pair(&serial.b_only, &par.b_only), "b_only witness differs");
    }

    #[test]
    fn compare_par_is_bit_identical_to_serial() {
        let u = Universe::new(3, 1);
        for threads in [1, 2, 4, 7] {
            let cfg = SweepConfig::with_threads(threads);
            for (a, b) in [
                (Model::Lc, Model::Nn),
                (Model::Nn, Model::Lc),
                (Model::Sc, Model::Any),
                (Model::Nw, Model::Wn),
            ] {
                let serial = compare(&a, &b, &u);
                let par = compare_clean(&a, &b, &u, &cfg);
                assert_same_comparison(&serial, &par);
            }
        }
    }

    #[test]
    fn compare_par_two_locations() {
        let u = Universe::new(3, 2);
        let serial = compare(&Sc, &Lc, &u);
        let par = compare_clean(&Sc, &Lc, &u, &SweepConfig::with_threads(3));
        assert_same_comparison(&serial, &par);
    }

    #[test]
    fn lattice_par_matches_serial_lattice() {
        let u = Universe::new(2, 1);
        let models = [Model::Sc, Model::Lc, Model::Nn, Model::Ww];
        let serial = crate::relation::lattice(&models, &u);
        let par =
            lattice_supervised(&models, &u, &SweepConfig::with_threads(4), &Supervisor::none())
                .expect_complete("lattice");
        for (sr, pr) in serial.iter().zip(&par) {
            assert_eq!(sr.name, pr.name);
            assert_eq!(sr.relations, pr.relations);
        }
    }

    #[test]
    fn parallel_props_agree_with_serial_on_passing_models() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(4);
        let sup = Supervisor::none();
        for m in [Model::Sc, Model::Lc, Model::Nn, Model::Ww] {
            let complete =
                check_complete_supervised(&m, &u, &cfg, &sup).expect_complete("complete");
            assert_eq!(check_complete(&m, &u).is_ok(), complete.is_none());
            let monotonic =
                check_monotonic_supervised(&m, &u, &cfg, &sup).expect_complete("monotonic");
            assert_eq!(check_monotonic(&m, &u).is_ok(), monotonic.is_none());
            let constructible = check_constructible_aug_supervised(&m, &u, &cfg, &sup)
                .expect_complete("constructible");
            assert_eq!(check_constructible_aug(&m, &u).is_ok(), constructible.is_none());
        }
    }

    #[test]
    fn parallel_constructibility_witness_matches_serial() {
        // NN fails constructibility at the 5-node bound; the parallel
        // search must return the exact witness the serial scan finds.
        let u = Universe::new(5, 1);
        let serial =
            check_constructible_aug(&Nn::default(), &u).expect_err("NN is not constructible");
        let cfg = SweepConfig::with_threads(4);
        let par = check_constructible_aug_supervised(&Nn::default(), &u, &cfg, &Supervisor::none())
            .expect_complete("constructible")
            .expect("NN is not constructible (parallel)");
        assert_eq!(serial.c, par.c);
        assert_eq!(serial.phi, par.phi);
        assert_eq!(serial.extension, par.extension);
        assert_eq!(serial.op, par.op);
    }

    #[test]
    fn sweep_computations_counts_the_universe() {
        let u = Universe::new(3, 1);
        for threads in [1, 2, 4, 7] {
            let counts = weighted_count(&u, &SweepConfig::with_threads(threads), |_| true)
                .expect_complete("counting sweep");
            assert_eq!(counts, u.count_computations() as u64);
        }
    }

    #[test]
    fn canonical_weighted_counts_recover_closed_form() {
        // Orbit-weighted totals must equal the labelled universe size
        // *exactly*, at every bound and with a multi-location alphabet
        // (exercising the location quotient), at several thread counts.
        for (nodes, locs) in [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2)] {
            let u = Universe::new(nodes, locs);
            for threads in [1, 2, 4] {
                let cfg = SweepConfig::with_threads(threads).canonical(true);
                let weighted = weighted_count(&u, &cfg, |_| true).expect_complete("weighted sweep");
                assert_eq!(
                    u128::from(weighted),
                    u.count_computations_closed(),
                    "bound {nodes}, {locs} locations, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn unsupervised_panic_degrades_with_surviving_witnesses() {
        // A panic in the caller's own fold, with no fault plan, must
        // quarantine and degrade — not abort the process — with every
        // other task's contribution intact, serial and parallel alike.
        let u = Universe::new(3, 1);
        let total = weighted_count(&u, &SweepConfig::serial(), |_| true).expect_complete("clean");
        let task1 =
            weighted_count(&u, &SweepConfig::serial(), |idx| idx == 1).expect_complete("task 1");
        assert!(task1 > 0, "task 1 does real work at this bound");
        for threads in [1, 2, 4] {
            let out = weighted_count(&u, &SweepConfig::with_threads(threads), |idx| {
                assert!(idx != 1, "task 1 always panics");
                true
            });
            assert_eq!(out.status, SweepStatus::Degraded, "{threads} threads");
            assert_eq!(out.quarantined.len(), 1);
            assert_eq!(out.quarantined[0].task_idx, 1);
            assert!(out.quarantined[0].payload.contains("always panics"));
            assert!(!out.frontier.contains(1));
            assert_eq!(out.frontier.len(), out.total_tasks - 1);
            assert_eq!(out.value, total - task1);
        }
    }

    #[test]
    fn canonical_compare_is_bit_identical_to_labelled() {
        // Same totals, same witnesses — including with two locations,
        // where the location quotient is non-trivial.
        for (nodes, locs) in [(3, 1), (3, 2)] {
            let u = Universe::new(nodes, locs);
            for threads in [1, 2, 4] {
                let cfg = SweepConfig::with_threads(threads).canonical(true);
                for (a, b) in [(Model::Lc, Model::Nn), (Model::Sc, Model::Lc)] {
                    let serial = compare(&a, &b, &u);
                    let canonical = compare_clean(&a, &b, &u, &cfg);
                    assert_same_comparison(&serial, &canonical);
                }
            }
        }
    }

    #[test]
    fn canonical_witness_checks_match_labelled() {
        let u = Universe::new(4, 1);
        let cfg = SweepConfig::with_threads(2).canonical(true);
        let sup = Supervisor::none();
        // NN is complete and monotonic at this bound; WN fails
        // constructibility with a specific witness the canonical search
        // must reproduce exactly.
        assert!(check_complete_supervised(&Model::Nn, &u, &cfg, &sup)
            .expect_complete("c")
            .is_none());
        assert!(check_monotonic_supervised(&Model::Nn, &u, &cfg, &sup)
            .expect_complete("m")
            .is_none());
        let u5 = Universe::new(5, 1);
        let serial =
            check_constructible_aug(&Nn::default(), &u5).expect_err("NN is not constructible");
        let canonical = check_constructible_aug_supervised(&Nn::default(), &u5, &cfg, &sup)
            .expect_complete("constructible")
            .expect("NN is not constructible (canonical)");
        assert_eq!(serial.c, canonical.c);
        assert_eq!(serial.phi, canonical.phi);
        assert_eq!(serial.extension, canonical.extension);
        assert_eq!(serial.op, canonical.op);
    }

    /// All permutations of `0..n`.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for p in permutations(n - 1) {
            for at in 0..n {
                let mut q: Vec<usize> = p.iter().map(|&x| x + usize::from(x >= at)).collect();
                q.insert(0, at);
                out.push(q);
            }
        }
        out
    }

    #[test]
    fn kept_labellings_are_first_of_their_orbits() {
        // Independently of `orbit_weight` and `Letters`: Aut(P) by testing
        // all n! node permutations on the dag, S_k by permuting the
        // locations of the ops, and each class marked whole by walking the
        // labellings in enumeration order — the first unmarked one is its
        // class's representative, weighted by poset orbit × class size. In
        // full letters a class is an `Aut(P) × S_k` orbit; in pattern
        // letters it is every labelling whose write pattern (each
        // non-write op read as `N`) lies in the orbit of the
        // representative's.
        for (nodes, locs) in [(5, 1), (5, 2), (5, 3), (6, 1)] {
            let u = Universe::new(nodes, locs);
            let alphabet = u.alphabet();
            let k = alphabet.len();
            let digit = |op: Op| alphabet.iter().position(|&a| a == op).expect("op in alphabet");
            let moved = |op: Op, p: &[usize]| match op {
                Op::Nop => Op::Nop,
                Op::Read(l) => Op::Read(Location::new(p[l.index()])),
                Op::Write(l) => Op::Write(Location::new(p[l.index()])),
            };
            let pattern = |op: Op| if matches!(op, Op::Write(_)) { op } else { Op::Nop };
            let non_writes: Vec<Op> =
                alphabet.iter().copied().filter(|o| !matches!(o, Op::Write(_))).collect();
            let loc_perms = permutations(locs);
            let tasks = plan::canonical_tasks(u.max_nodes);
            for patterns in [false, true] {
                let letters = Letters::new(&u, patterns, true);
                let mut total = 0u128;
                for task in &tasks {
                    let n = task.size;
                    let node = NodeId::new;
                    let auts: Vec<Vec<usize>> = permutations(n)
                        .into_iter()
                        .filter(|g| {
                            (0..n).all(|a| {
                                (0..n).all(|b| {
                                    task.dag.has_edge(node(a), node(b))
                                        == task.dag.has_edge(node(g[a]), node(g[b]))
                                })
                            })
                        })
                        .collect();
                    let index = |ops: &[Op]| ops.iter().rev().fold(0, |acc, &o| acc * k + digit(o));
                    // Every labelling in the class of the op image `ops`.
                    let members = |ops: Vec<Op>| -> Vec<usize> {
                        if !patterns {
                            return vec![index(&ops)];
                        }
                        let mut out = vec![Vec::new()];
                        for &o in &ops {
                            let choices = if matches!(o, Op::Write(_)) {
                                vec![o]
                            } else {
                                non_writes.clone()
                            };
                            out = out
                                .into_iter()
                                .flat_map(|pre: Vec<Op>| {
                                    choices.iter().map(move |&c| {
                                        let mut p = pre.clone();
                                        p.push(c);
                                        p
                                    })
                                })
                                .collect();
                        }
                        out.iter().map(|ops| index(ops)).collect()
                    };
                    let labellings = k.pow(n as u32);
                    let mut marked = vec![false; labellings];
                    let mut expected = Vec::new();
                    for i in 0..labellings {
                        if marked[i] {
                            continue;
                        }
                        let ops: Vec<Op> =
                            (0..n).map(|j| alphabet[i / k.pow(j as u32) % k]).collect();
                        let mut class = 0u64;
                        for g in &auts {
                            for p in &loc_perms {
                                let image: Vec<Op> = (0..n).map(|j| moved(ops[g[j]], p)).collect();
                                let image = if patterns {
                                    image.into_iter().map(pattern).collect()
                                } else {
                                    image
                                };
                                for at in members(image) {
                                    assert!(at >= i, "a class member precedes its first member");
                                    if !marked[at] {
                                        marked[at] = true;
                                        class += 1;
                                    }
                                }
                            }
                        }
                        expected.push((i, task.weight * class));
                    }
                    let mut got = Vec::new();
                    let mut scratch = LabelScratch::new();
                    let _ = for_each_labelling(&letters, task, &mut scratch, &mut |c, w| {
                        got.push((index(c.ops()), w));
                        ControlFlow::Continue(())
                    });
                    let at = format!("{nodes}x{locs}, patterns {patterns}, task {}", task.idx);
                    assert_eq!(task.auts.len(), auts.len() * n, "{at}: |Aut(P)|");
                    assert_eq!(got, expected, "{at}: kept labellings and weights");
                    total += got.iter().map(|&(_, w)| u128::from(w)).sum::<u128>();
                }
                let at = format!("{nodes}x{locs}, patterns {patterns}");
                assert_eq!(total, u.count_computations_closed(), "{at}: weighted total");
            }
        }
    }

    #[test]
    fn location_digit_maps_group_properties() {
        let u = Universe::new(2, 2);
        for patterns in [false, true] {
            let letters = Letters::new(&u, patterns, true);
            assert_eq!(letters.maps.len(), 2, "S_2 has two elements");
            // Each map is a permutation of letters fixing the stand-in
            // for non-writes.
            for m in &letters.maps {
                let mut seen = vec![false; letters.ops.len()];
                for &i in m {
                    assert!(!seen[i]);
                    seen[i] = true;
                }
                assert_eq!(m[0], 0, "Nop is fixed");
            }
            // Without the location group: identity only.
            let id = Letters::new(&u, patterns, false).maps;
            assert_eq!(id, vec![(0..letters.ops.len()).collect::<Vec<_>>()]);
        }
        // Pattern letters: N for the three non-writes, then each write.
        let patterns = Letters::new(&u, true, true);
        let w = |l| Op::Write(Location::new(l));
        assert_eq!(patterns.ops, [Op::Nop, w(0), w(1)]);
        assert_eq!(patterns.weights, [3, 1, 1]);
        assert_eq!(patterns.letter(Op::Read(Location::new(1))), Some(0));
        assert_eq!(patterns.letter(Op::Read(Location::new(2))), None, "outside the alphabet");
        // Without N, R(0) stands in for both reads.
        let no_nop = Universe { include_nop: false, ..u };
        let stand_in = Letters::new(&no_nop, true, true);
        assert_eq!(stand_in.ops, [Op::Read(Location::new(0)), w(0), w(1)]);
        assert_eq!(stand_in.weights, [2, 1, 1]);
        assert_eq!(stand_in.letter(Op::Nop), None, "N is outside this alphabet");
    }

    #[test]
    fn config_env_and_constructors() {
        assert_eq!(SweepConfig::serial().threads, 1);
        assert_eq!(SweepConfig::with_threads(7).threads, 7);
        assert!(SweepConfig::from_env().threads >= 1);
    }
}
