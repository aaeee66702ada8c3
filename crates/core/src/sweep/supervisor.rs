//! The sweep entry points, the one engine behind them, and the
//! supervision contract every long run shares.
//!
//! Every sweep of [`crate::sweep`] runs through that engine
//! (`run_supervised`), a poset-granular task queue with three
//! guarantees, each written once and reused by the Δ* fixpoints
//! ([`crate::constructible`]) and by the `ccmm stress` and `ccmm watch`
//! drivers:
//!
//! 1. **Panic quarantine** ([`retry_once`]). Every task runs under
//!    `catch_unwind` and folds into a *fresh per-task delta*, merged
//!    into the global state only on success — so a mid-task panic cannot
//!    corrupt counts. A panicking task gets its worker scratch rebuilt
//!    and is retried once (transient faults heal); a second panic
//!    quarantines the task ([`Quarantined`]: task index, poset size,
//!    panic payload) and the sweep completes with
//!    [`SweepStatus::Degraded`]. Witnesses for all non-quarantined tasks
//!    keep the smallest-task-index contract, so they still match the
//!    serial scan exactly.
//!
//! 2. **Deadline budgets.** [`SweepConfig::deadline`] cooperatively
//!    stops workers between tasks once the budget elapses. The result is
//!    [`SweepStatus::Partial`], carrying the exact completed-task
//!    [`Frontier`] so the run can be resumed or reported honestly.
//!
//! 3. **Crash-safe checkpoint/resume** ([`Journal`]). Counting sweeps
//!    can journal `(frontier, merged state)` snapshots to an append-only
//!    [`CkptWriter`] every N completed tasks (fsync'd, torn-tail
//!    tolerant — see [`crate::ckpt`]). A later run passes the decoded
//!    snapshot back as `resume`: completed tasks are filtered out, the
//!    remaining deltas merge into the restored state, and because every
//!    merge here is commutative and associative the resumed totals and
//!    witnesses are **bit-identical** to an uninterrupted run. A failed
//!    append stops journalling and degrades the run.
//!
//! [`Journal::status`] folds how a run ended — killed, stopped short,
//! quarantined, journal failed — into its [`SweepStatus`].
//!
//! Determinism note: deltas are merged in worker completion order, which
//! is racy — so supervised sweeps require merges to be commutative and
//! associative (weighted counts are; the min-task-index witness merge is,
//! because task indices are unique): the [`Merge`] contract.
//!
//! Faults are injected deterministically via [`FaultPlan`] — see
//! [`crate::fault`]. The injected-kill path ([`SweepStatus::Killed`])
//! stops workers right after the configured checkpoint record, leaving
//! the journal exactly as a real `kill -9` would.

use super::{
    for_each_labelling, keep_min, run_workers, with_tasks, Keyed, LabelScratch, Letters,
    SweepConfig, Task,
};
use crate::ckpt::{get_u64, put_u64, CkptWriter};
use crate::computation::Computation;
use crate::enumerate::{for_each_observer, location_major_index};
use crate::fault::{payload_string, FaultPlan};
use crate::model::lane::count_pack;
use crate::model::{
    CheckScratch, LanePack, LaneScratch, MemoryModel, ObserverIndex, SlotOrder, LANES,
};
use crate::observer::ObserverFunction;
use crate::props::{
    any_extension, ConstructibilityWitness, IncompleteWitness, MonotonicityWitness,
};
use crate::relation::{Comparison, LatticeRow, Relation};
use crate::telemetry::{self, Counter};
use crate::universe::Universe;
use ccmm_dag::NodeId;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Supervision settings for a sweep: the deterministic fault-injection
/// plan. Deadlines live on [`SweepConfig`]; checkpointing is passed to
/// the entry points that support it ([`sweep_supervised`],
/// [`memberships_supervised`]).
#[derive(Debug, Default)]
pub struct Supervisor {
    /// Faults to inject (empty by default — see [`FaultPlan::none`]).
    pub fault: FaultPlan,
}

impl Supervisor {
    /// A supervisor that injects nothing.
    pub fn none() -> Self {
        Supervisor { fault: FaultPlan::none() }
    }

    /// A supervisor driving the given fault plan.
    pub fn with_fault(fault: FaultPlan) -> Self {
        Supervisor { fault }
    }
}

/// How a supervised sweep ended, from best to worst.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SweepStatus {
    /// Every task scanned, nothing quarantined: results are exactly the
    /// serial scan's.
    Complete,
    /// Every task attempted but some quarantined after a failed retry:
    /// counts exclude the quarantined tasks' contributions; witnesses
    /// for all other tasks still match the serial scan.
    Degraded,
    /// The deadline stopped the sweep (or a checkpoint error did) before
    /// every task was attempted: counts cover exactly the frontier.
    Partial,
    /// The fault plan's simulated kill fired after a checkpoint record;
    /// the journal on disk is the source of truth for resume.
    Killed,
}

/// One task that panicked twice and was excluded from the results.
#[derive(Clone, Debug)]
pub struct Quarantined {
    /// Global task (poset) index of the failed task.
    pub task_idx: usize,
    /// Node count of the task's poset.
    pub size: usize,
    /// The second panic's payload, rendered as a string.
    pub payload: String,
}

/// The set of completed task indices, kept as sorted disjoint half-open
/// ranges `[start, end)` — the resume frontier of a partial sweep.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Frontier {
    ranges: Vec<(usize, usize)>,
}

impl Frontier {
    /// The empty frontier.
    pub fn new() -> Self {
        Frontier::default()
    }

    /// Marks task `idx` complete, coalescing adjacent ranges.
    pub fn insert(&mut self, idx: usize) {
        let i = self.ranges.partition_point(|&(_, end)| end < idx);
        if i < self.ranges.len() {
            let (s, e) = self.ranges[i];
            if s <= idx && idx < e {
                return; // already complete
            }
        }
        let left = i < self.ranges.len() && self.ranges[i].1 == idx;
        let right_pos = if left { i + 1 } else { i };
        let right = right_pos < self.ranges.len() && self.ranges[right_pos].0 == idx + 1;
        match (left, right) {
            (true, true) => {
                self.ranges[i].1 = self.ranges[right_pos].1;
                self.ranges.remove(right_pos);
            }
            (true, false) => self.ranges[i].1 = idx + 1,
            (false, true) => self.ranges[right_pos].0 = idx,
            (false, false) => self.ranges.insert(i, (idx, idx + 1)),
        }
    }

    /// Whether task `idx` is complete.
    pub fn contains(&self, idx: usize) -> bool {
        let i = self.ranges.partition_point(|&(_, end)| end <= idx);
        i < self.ranges.len() && self.ranges[i].0 <= idx
    }

    /// Number of completed tasks.
    pub fn len(&self) -> usize {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// Whether no task is complete.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The sorted disjoint ranges, for display.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Appends the wire encoding (`count`, then `start`,`end` per range,
    /// all little-endian u64).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.ranges.len() as u64);
        for &(s, e) in &self.ranges {
            put_u64(out, s as u64);
            put_u64(out, e as u64);
        }
    }

    /// Consumes a wire encoding from the front of `input`; `None` if the
    /// bytes are truncated or the ranges are not sorted and disjoint.
    pub fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let n = get_u64(input)? as usize;
        let mut ranges = Vec::with_capacity(n.min(1024));
        let mut prev_end = 0usize;
        for i in 0..n {
            let s = get_u64(input)? as usize;
            let e = get_u64(input)? as usize;
            if s >= e || (i > 0 && s <= prev_end) {
                return None;
            }
            prev_end = e;
            ranges.push((s, e));
        }
        Some(Frontier { ranges })
    }
}

/// The outcome of a supervised sweep: the merged value plus everything
/// needed to interpret (and resume) it.
#[derive(Debug)]
pub struct Supervised<S> {
    /// The merged result. Complete ⇒ exactly the serial scan's value;
    /// Degraded ⇒ quarantined tasks' contributions are missing;
    /// Partial/Killed ⇒ covers exactly `frontier`.
    pub value: S,
    /// How the sweep ended.
    pub status: SweepStatus,
    /// Tasks excluded after panicking twice, sorted by task index.
    pub quarantined: Vec<Quarantined>,
    /// Completed task indices (includes tasks completed by a resumed-from
    /// run).
    pub frontier: Frontier,
    /// Total tasks in the sweep, including already-resumed ones.
    pub total_tasks: usize,
    /// A checkpoint-append failure, if one stopped journalling.
    pub ckpt_error: Option<String>,
}

impl<S> Supervised<S> {
    /// Whether every task was scanned successfully.
    pub fn is_complete(&self) -> bool {
        self.status == SweepStatus::Complete
    }

    /// Unwraps a sweep that must have completed cleanly, for callers that
    /// cannot use a degraded or partial result (a Δ* materialisation, a
    /// table of paper results, a test). Panics otherwise, with the first
    /// quarantined task's payload when there is one.
    pub fn expect_complete(self, what: &str) -> S {
        match self.status {
            SweepStatus::Complete => self.value,
            SweepStatus::Degraded => match self.quarantined.first() {
                Some(q) => panic!(
                    "{what}: sweep degraded — {} task(s) quarantined; first: task {} ({} nodes): {}",
                    self.quarantined.len(),
                    q.task_idx,
                    q.size,
                    q.payload
                ),
                // Degraded with nothing quarantined: journalling failed.
                None => panic!(
                    "{what}: sweep degraded — checkpoint journalling failed: {}",
                    self.ckpt_error.as_deref().unwrap_or("unknown")
                ),
            },
            SweepStatus::Partial => panic!(
                "{what}: sweep stopped early with {} of {} tasks done — use a supervised entry point to consume partial results",
                self.frontier.len(),
                self.total_tasks
            ),
            SweepStatus::Killed => panic!("{what}: sweep killed by its fault plan"),
        }
    }

    /// Maps the value, keeping the supervision verdict.
    pub fn map<T>(self, f: impl FnOnce(S) -> T) -> Supervised<T> {
        Supervised {
            value: f(self.value),
            status: self.status,
            quarantined: self.quarantined,
            frontier: self.frontier,
            total_tasks: self.total_tasks,
            ckpt_error: self.ckpt_error,
        }
    }
}

/// Per-task delta merging. Supervised sweeps merge deltas in completion
/// order, so `merge` must be commutative and associative for results to
/// be deterministic (weighted counts and min-task-index witness slots
/// both are).
pub trait Merge {
    /// Folds `other` into `self`.
    fn merge(&mut self, other: Self);
}

/// Counts merge by addition.
impl Merge for u64 {
    fn merge(&mut self, other: Self) {
        *self += other;
    }
}

/// Per-task lists merge by appending, in completion order: only an
/// order-insensitive consumer (a map, a set, a sort by task index) keeps
/// the result deterministic.
impl<T> Merge for Vec<T> {
    fn merge(&mut self, mut other: Self) {
        self.append(&mut other);
    }
}

/// Where and how often a counting sweep journals `(frontier, state)`
/// snapshots.
pub struct CkptSink<'a, S> {
    /// Open journal to append to (created via [`CkptWriter::create`] or
    /// [`CkptWriter::append_to`]).
    pub writer: &'a mut CkptWriter,
    /// Append a snapshot every this many completed tasks (≥ 1).
    pub every: usize,
    /// Serializes the merged state + frontier into one record payload.
    pub encode: &'a (dyn Fn(&S, &Frontier) -> Vec<u8> + Sync),
}

/// Runs one supervised step under `catch_unwind`. A panicking step gets
/// its scratch `reset` (the panic may have left it in any state) and is
/// retried once, so a transient fault heals; a second panic resets the
/// scratch again, counts toward [`Counter::Quarantines`], and returns
/// the payload for the caller's [`Quarantined`] report. The happy path
/// is one `catch_unwind` and no allocation.
#[inline]
pub fn retry_once<X, T>(
    x: &mut X,
    reset: impl Fn(&mut X),
    mut step: impl FnMut(&mut X) -> T,
) -> Result<T, String> {
    let mut retried = false;
    loop {
        match catch_unwind(AssertUnwindSafe(|| step(x))) {
            Ok(v) => return Ok(v),
            Err(payload) => {
                reset(x);
                if retried {
                    telemetry::count(Counter::Quarantines, 1);
                    return Err(payload_string(payload));
                }
                retried = true;
            }
        }
    }
}

/// The checkpoint journal every supervised run writes through: a
/// snapshot every `every` completed units, the fault plan's injected
/// `io-error-at-record=K` and `kill-after-ckpt=K`, and the
/// [`Counter::CkptRecords`] tally. A failed append stops journalling
/// (the run keeps going, Degraded); a kill stops it too (nothing a dead
/// process could still write). Built without a writer, every call is a
/// no-op, so unjournalled runs share the same code.
pub struct Journal<'a> {
    writer: Option<&'a mut CkptWriter>,
    every: usize,
    fault: &'a FaultPlan,
    since: usize,
    error: Option<String>,
    killed: bool,
}

impl<'a> Journal<'a> {
    /// A journal appending to `ckpt`'s `(writer, every-N)`, or none.
    pub fn new(ckpt: Option<(&'a mut CkptWriter, usize)>, fault: &'a FaultPlan) -> Self {
        let (writer, every) = match ckpt {
            Some((w, every)) => (Some(w), every.max(1)),
            None => (None, 1),
        };
        Journal { writer, every, fault, since: 0, error: None, killed: false }
    }

    /// Counts one completed unit and, on every `every`-th, appends
    /// `encode()`. Returns whether the fault plan's kill has fired: the
    /// caller stops now, leaving the journal as a real `kill -9` would.
    #[inline]
    pub fn tick(&mut self, encode: impl FnOnce() -> Vec<u8>) -> bool {
        if self.is_active() {
            self.since += 1;
            if self.since >= self.every {
                self.since = 0;
                self.append(&encode());
            }
        }
        self.killed
    }

    /// Appends a closing snapshot (if journalling is still live), so a
    /// stopped run resumes at its exact frontier rather than the last
    /// periodic record.
    pub fn finish(&mut self, encode: impl FnOnce() -> Vec<u8>) {
        if self.is_active() {
            self.append(&encode());
        }
    }

    fn is_active(&self) -> bool {
        self.writer.is_some() && self.error.is_none() && !self.killed
    }

    fn append(&mut self, payload: &[u8]) {
        let Some(w) = self.writer.as_deref_mut() else { return };
        // The fault plan can fail this record's write (the "disk full
        // mid-run" shape) without going anywhere near the real file.
        let record = w.snapshots() + 1;
        let wrote = if self.fault.io_error_at(record) {
            Err(std::io::Error::other(format!("injected fault: io error at ckpt record {record}")))
        } else {
            w.append(payload)
        };
        match wrote {
            Ok(()) => {
                telemetry::count(Counter::CkptRecords, 1);
                self.killed = self.fault.should_kill(w.snapshots());
            }
            Err(e) => self.error = Some(e.to_string()),
        }
    }

    /// The append failure that stopped journalling, if any.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    /// The one status fold every supervised run ends with. `stopped_short`
    /// says the run left units unattempted (a deadline); a run that stops
    /// on purpose — `ccmm stress` at its first conformance failure — is
    /// not Partial. A journal error degrades an otherwise clean run: the
    /// verdicts are exact, but the promised resumability is gone, and
    /// exit codes must say so.
    pub fn status(&self, stopped_short: bool, quarantined: usize) -> SweepStatus {
        SweepStatus::fold(self.killed, stopped_short, quarantined > 0 || self.error.is_some())
    }
}

impl SweepStatus {
    /// Killed beats Partial beats Degraded beats Complete.
    pub fn fold(killed: bool, stopped_short: bool, degraded: bool) -> Self {
        if killed {
            SweepStatus::Killed
        } else if stopped_short {
            SweepStatus::Partial
        } else if degraded {
            SweepStatus::Degraded
        } else {
            SweepStatus::Complete
        }
    }
}

/// Shared mutable sweep progress, behind one mutex (tasks are coarse —
/// one poset covers all its labellings — so commit contention is noise).
struct Shared<'a, S> {
    state: S,
    frontier: Frontier,
    quarantined: Vec<Quarantined>,
    journal: Journal<'a>,
}

/// The supervised engine: distributes `tasks` over `threads` workers,
/// each task scanned into a fresh delta through [`retry_once`], deltas
/// committed through `merge` under the shared lock, with cooperative
/// deadline stop and optional checkpoint journalling. Tasks are borrowed
/// and handed out in list order through one atomic cursor; tasks in
/// `resume` are skipped.
#[allow(clippy::too_many_arguments)] // internal engine; wrappers present the public face
pub(crate) fn run_supervised<S, X, XF, SC, MG>(
    tasks: &[&Task],
    threads: usize,
    deadline: Option<Duration>,
    fault: &FaultPlan,
    resume: Frontier,
    initial: S,
    ckpt: Option<CkptSink<'_, S>>,
    scratch: XF,
    scan: SC,
    merge: MG,
) -> Supervised<S>
where
    S: Send,
    XF: Fn() -> X + Sync,
    SC: Fn(&Task, &mut X) -> S + Sync,
    MG: Fn(&mut S, S, usize) + Sync,
{
    let ids: Vec<usize> = tasks.iter().map(|t| t.idx).collect();
    fault.resolve_indices(&ids);
    let total_tasks = tasks.len();
    let pending: Vec<&Task> = tasks.iter().copied().filter(|t| !resume.contains(t.idx)).collect();
    let start = Instant::now();
    // Ordering audit: the stop flag is accessed with Relaxed throughout,
    // which is sufficient because it is an *advisory*, monotonic
    // (false→true once) boolean: it only influences how soon workers
    // stop scanning, never what a scanned task computes. All result data
    // (the kill verdict included) travels through the `shared` Mutex
    // (lock/unlock provides acquire/release), and the final `into_inner`
    // reads happen after `run_workers` joins every worker thread —
    // thread join is a synchronizes-with edge, so the last store to the
    // flag is visible without any fence. A worker seeing a stale
    // `false` merely scans one extra task; seeing a stale `true` is
    // impossible to distinguish from a slightly earlier stop. The cursor
    // is a Relaxed fetch_add: an atomic RMW hands each position to
    // exactly one worker whatever the ordering, and the task list itself
    // is immutable.
    let stop = AtomicBool::new(false);
    let cursor = AtomicUsize::new(0);
    let encode = ckpt.as_ref().map(|sink| sink.encode);
    let shared = Mutex::new(Shared {
        state: initial,
        frontier: resume,
        quarantined: Vec::new(),
        journal: Journal::new(ckpt.map(|sink| (sink.writer, sink.every)), fault),
    });
    run_workers(threads, || {
        let mut x = scratch();
        while let Some(&task) = pending.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            if stop.load(Ordering::Relaxed) {
                break;
            }
            if deadline.is_some() {
                telemetry::count(Counter::DeadlinePolls, 1);
            }
            if deadline.is_some_and(|d| start.elapsed() >= d) {
                stop.store(true, Ordering::Relaxed);
                break;
            }
            let delta = retry_once(
                &mut x,
                |x| *x = scratch(),
                |x| {
                    fault.before_task(task.idx);
                    scan(task, x)
                },
            );
            let delta = match delta {
                Ok(d) => d,
                Err(payload) => {
                    let q = Quarantined { task_idx: task.idx, size: task.size, payload };
                    shared.lock().unwrap().quarantined.push(q);
                    continue;
                }
            };
            let mut guard = shared.lock().unwrap();
            let g = &mut *guard;
            merge(&mut g.state, delta, task.idx);
            g.frontier.insert(task.idx);
            telemetry::progress_tick(g.frontier.len(), total_tasks, g.quarantined.len());
            if let Some(encode) = encode {
                if g.journal.tick(|| encode(&g.state, &g.frontier)) {
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
    });
    let mut sh = shared.into_inner().unwrap();
    sh.quarantined.sort_by_key(|q| q.task_idx);
    let scanned = sh.frontier.len() + sh.quarantined.len();
    Supervised {
        status: sh.journal.status(scanned < total_tasks, sh.quarantined.len()),
        ckpt_error: sh.journal.error().map(str::to_string),
        value: sh.state,
        quarantined: sh.quarantined,
        frontier: sh.frontier,
        total_tasks,
    }
}

/// The general sweep: runs `work` once per computation of the universe
/// (canonical mode: once per isomorphism orbit), each task folding into
/// a fresh delta seeded by `empty` and merged through [`Merge`].
/// `scratch` builds per-worker scratch (rebuilt after a panic); `work`
/// gets the delta, the scratch, the task (global poset) index, the
/// computation and its universe multiplicity (1 in labelled mode), so
/// weighted counts reproduce labelled totals exactly.
///
/// `resume` restores a decoded `(frontier, state)` snapshot (completed
/// tasks are skipped and their contributions are already in `state`);
/// `ckpt` journals fresh snapshots as the sweep progresses. Because
/// [`Merge`] is commutative and associative and witnesses merge by unique
/// minimal task index, a resumed run is bit-identical to an
/// uninterrupted one.
///
/// `work` may look at anything in the computation, reads included, so
/// this sweep visits every op labelling (canonical mode: one per
/// `Aut(P) × S_k` orbit). The model-verdict passes, which see ops only
/// through a [`MemoryModel`], also quotient by read/no-op relabelling.
#[allow(clippy::too_many_arguments)]
pub fn sweep_supervised<S, X, EF, XF, WF>(
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, S)>,
    ckpt: Option<CkptSink<'_, S>>,
    empty: EF,
    scratch: XF,
    work: WF,
) -> Supervised<S>
where
    S: Merge + Send,
    EF: Fn() -> S + Sync,
    XF: Fn() -> X + Sync,
    WF: Fn(&mut S, &mut X, usize, &Computation, u64) + Sync,
{
    let letters = Letters::new(u, false, cfg.canonical);
    sweep_letters(&letters, u, cfg, sup, resume, ckpt, empty, scratch, work)
}

/// [`sweep_supervised`] over the labellings spelled in `letters`.
#[allow(clippy::too_many_arguments)]
fn sweep_letters<S, X, EF, XF, WF>(
    letters: &Letters,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, S)>,
    ckpt: Option<CkptSink<'_, S>>,
    empty: EF,
    scratch: XF,
    work: WF,
) -> Supervised<S>
where
    S: Merge + Send,
    EF: Fn() -> S + Sync,
    XF: Fn() -> X + Sync,
    WF: Fn(&mut S, &mut X, usize, &Computation, u64) + Sync,
{
    let (resume_frontier, initial) = match resume {
        Some((f, s)) => (f, s),
        None => (Frontier::new(), empty()),
    };
    with_tasks(u, cfg.canonical, |tasks| {
        run_supervised(
            tasks,
            cfg.threads,
            cfg.deadline,
            &sup.fault,
            resume_frontier,
            initial,
            ckpt,
            || (LabelScratch::new(), scratch()),
            |task, xs| {
                let (ls, x) = xs;
                let mut delta = empty();
                let _ = for_each_labelling(letters, task, ls, &mut |c, w| {
                    work(&mut delta, x, task.idx, c, w);
                    ControlFlow::Continue(())
                });
                delta
            },
            |g, d, _| g.merge(d),
        )
    })
}

/// Keeps the smaller-task-index keyed witness of two merged slots.
fn merge_keyed<W>(dst: &mut Option<Keyed<W>>, src: Option<Keyed<W>>) {
    if let Some(k) = src {
        if dst.as_ref().is_none_or(|d| k.task_idx < d.task_idx) {
            *dst = Some(k);
        }
    }
}

/// Supervised first-witness search over the computations of `u` (the
/// engine behind the `check_*` entry points): `find` returns a
/// computation's first witness, if any. The winning — minimal-task-index
/// — witness is published to the shared `best` atomic only at commit
/// time, so a task that found a candidate but then panicked cannot
/// suppress other tasks' witnesses. Canonical mode visits one labelling
/// per write-pattern orbit ([`Letters::for_verdicts`]): that labelling
/// is its class's first member and witnesses whenever a member does, so
/// the search returns the labelled scan's witness.
fn search_supervised<W: Send, X>(
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    scratch: impl Fn() -> X + Sync,
    find: impl Fn(&mut Computation, &mut X) -> Option<W> + Sync,
) -> Supervised<Option<W>> {
    let letters = Letters::for_verdicts(u, cfg);
    // Ordering audit: `best` is a Relaxed pruning hint, not the answer.
    // fetch_min is an atomic RMW, so concurrent minima commute and none
    // is lost regardless of ordering; a worker reading a stale (larger)
    // value only scans a task whose witness `merge_keyed` then discards
    // under the shared lock — the authoritative min-task-index merge.
    let best = AtomicUsize::new(usize::MAX);
    let out = with_tasks(u, cfg.canonical, |tasks| {
        run_supervised(
            tasks,
            cfg.threads,
            cfg.deadline,
            &sup.fault,
            Frontier::new(),
            None::<Keyed<W>>,
            None,
            || (LabelScratch::new(), scratch()),
            |task, (ls, x)| {
                let superseded = || best.load(Ordering::Relaxed) < task.idx;
                if superseded() {
                    return None; // an earlier task already has a witness
                }
                let mut found = None;
                let _ = for_each_labelling(&letters, task, ls, &mut |c, _| {
                    if superseded() {
                        return ControlFlow::Break(());
                    }
                    found = find(c, x);
                    if found.is_some() {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                found.map(|w| Keyed { task_idx: task.idx, witness: w })
            },
            |g, d, idx| {
                if d.is_some() {
                    best.fetch_min(idx, Ordering::Relaxed);
                }
                merge_keyed(g, d);
            },
        )
    });
    out.map(|k| k.map(|k| k.witness))
}

/// Supervised [`crate::props::check_complete`]; `Some` is the serial
/// scan's witness.
pub fn check_complete_supervised<M: MemoryModel + Sync>(
    model: &M,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Option<IncompleteWitness>> {
    search_supervised(u, cfg, sup, CheckScratch::new, |c, check| {
        let has_member = for_each_observer(c, |phi| {
            if model.contains_with(c, phi, check) {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break();
        (!has_member).then(|| c.clone())
    })
}

/// Supervised [`crate::props::check_monotonic`]; `Some` is the serial
/// scan's witness.
pub fn check_monotonic_supervised<M: MemoryModel + Sync>(
    model: &M,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Option<MonotonicityWitness>> {
    search_supervised(u, cfg, sup, CheckScratch::new, |c, check| {
        let mut found = None;
        let _ = for_each_observer(c, |phi| {
            if !model.contains_with(c, phi, check) {
                return ControlFlow::Continue(());
            }
            for (na, nb) in c.dag().edges() {
                let relaxed = c.without_edge(na, nb).expect("edge exists");
                if !model.contains_with(&relaxed, phi, check) {
                    found = Some(MonotonicityWitness { c: c.clone(), phi: phi.clone(), relaxed });
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        found
    })
}

/// Supervised [`crate::props::check_constructible_aug`]; `Some` is the
/// serial scan's witness. Canonical mode appends one op per write
/// pattern (`N` or `R(0)` for every non-write): an op with the same
/// pattern as an earlier one has the same dead ends.
pub fn check_constructible_aug_supervised<M: MemoryModel + Sync>(
    model: &M,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Option<ConstructibilityWitness>> {
    let alphabet = Letters::for_verdicts(u, cfg).ops;
    let bounded = Universe { max_nodes: u.max_nodes.saturating_sub(1), ..*u };
    search_supervised(&bounded, cfg, sup, CheckScratch::new, |c, check| {
        let mut found = None;
        let _ = for_each_observer(c, |phi| {
            if !model.contains_with(c, phi, check) {
                return ControlFlow::Continue(());
            }
            for &o in &alphabet {
                let aug = c.augment(o);
                if !any_extension(&aug, phi, |phi2| model.contains_with(&aug, phi2, check)) {
                    found = Some(ConstructibilityWitness {
                        c: c.clone(),
                        phi: phi.clone(),
                        extension: aug,
                        op: o,
                    });
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        found
    })
}

/// Per-worker state of the lane constructibility check.
#[derive(Default)]
struct AugScratch {
    index: ObserverIndex,
    pack: LanePack,
    lanes: LaneScratch,
    /// Node-major member mask of the computation under check.
    members: Vec<u64>,
    /// Members that have a surviving extension under every op so far.
    alive: Vec<u64>,
    /// Alive members with a surviving extension under the current op.
    hit: Vec<u64>,
    /// `(first lane, member)` of each block segment in the current pack.
    segments: Vec<(usize, u64)>,
    /// Every node of the computation: the predecessors of an
    /// augmentation's new node.
    preds: Vec<NodeId>,
    /// `(member, op position)` of every dead end found.
    failing: Vec<(u64, usize)>,
}

/// Decides the pack's lanes and sets the hit bit of every member whose
/// block segment holds a verdict lane.
fn flush_blocks<M: MemoryModel>(model: &M, c: &Computation, x: &mut AugScratch) {
    count_pack(&x.pack);
    let verdict = model.contains_lanes(c, &x.pack, &mut x.lanes) & x.pack.used();
    let len = x.pack.len();
    for (i, &(first, p)) in x.segments.iter().enumerate() {
        let end = x.segments.get(i + 1).map_or(len, |s| s.0);
        let lanes = if end - first == LANES { !0 } else { ((1u64 << (end - first)) - 1) << first };
        if verdict & lanes != 0 {
            x.hit[(p / 64) as usize] |= 1 << (p % 64);
        }
    }
    x.segments.clear();
    x.pack.clear_lanes();
}

/// Lane-parallel [`check_constructible_aug_supervised`]. A computation's
/// member mask is decided in node-major order. Each op then augments the
/// computation *in place* ([`Computation::push`] of a node above every
/// node, undone by [`Computation::pop_last`]); member `p`'s extensions
/// are exactly the node-major block `[p·E, (p+1)·E)` of the
/// augmentation, so only the blocks of members without a dead end so far
/// are filled, and a block with no verdict lane is a dead end. The
/// returned witness is **identical** to the scalar scan's: dead ends are
/// re-ranked by location-major observer index (the scalar enumeration
/// order) and op position before the first one is chosen, and
/// [`Computation::augment`] builds only that witness's extension. Like
/// the scalar check, canonical mode appends one op per write pattern.
pub fn check_constructible_aug_lanes_supervised<M: MemoryModel + Sync>(
    model: &M,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Option<ConstructibilityWitness>> {
    let alphabet = Letters::for_verdicts(u, cfg).ops;
    let bounded = Universe { max_nodes: u.max_nodes.saturating_sub(1), ..*u };
    search_supervised(&bounded, cfg, sup, AugScratch::default, |c, x| {
        x.index.prepare(c, SlotOrder::NodeMajor, &mut x.pack);
        x.members.clear();
        let (index, members, lanes) = (&x.index, &mut x.members, &mut x.lanes);
        index.for_each_pack(&mut x.pack, |pack| {
            members.push(model.contains_lanes(c, pack, lanes) & pack.used());
        });
        if members.iter().all(|&w| w == 0) {
            return None;
        }
        x.alive.clone_from(&x.members);
        x.failing.clear();
        x.preds.clear();
        x.preds.extend(c.nodes());
        for (j, &o) in alphabet.iter().enumerate() {
            if x.alive.iter().all(|&w| w == 0) {
                break;
            }
            c.push(&x.preds, o).expect("every node is in range");
            let (_, block) = x.index.prepare(c, SlotOrder::NodeMajor, &mut x.pack);
            x.hit.clear();
            x.hit.resize(x.alive.len(), 0);
            for wi in 0..x.alive.len() {
                let mut w = x.alive[wi];
                while w != 0 {
                    let p = wi as u64 * 64 + u64::from(w.trailing_zeros());
                    w &= w - 1;
                    let (mut lo, hi) = (p * block, (p + 1) * block);
                    while lo < hi {
                        let k = (hi - lo).min((LANES - x.pack.len()) as u64);
                        x.segments.push((x.pack.len(), p));
                        x.index.fill(&mut x.pack, lo, k as usize);
                        lo += k;
                        if x.pack.is_full() {
                            flush_blocks(model, c, x);
                        }
                    }
                }
            }
            if !x.pack.is_empty() {
                flush_blocks(model, c, x);
            }
            for (wi, (a, &h)) in x.alive.iter_mut().zip(&x.hit).enumerate() {
                let mut dead = *a & !h;
                *a &= h;
                while dead != 0 {
                    x.failing.push((wi as u64 * 64 + u64::from(dead.trailing_zeros()), j));
                    dead &= dead - 1;
                }
            }
            c.pop_last();
        }
        if x.failing.is_empty() {
            return None;
        }
        // Re-rank node-major dead ends into the scalar scan's
        // (location-major observer, op) order and keep the first.
        x.index.index(c, SlotOrder::NodeMajor);
        let (phi, j) = x
            .failing
            .iter()
            .map(|&(p, j)| (x.index.observer(c, p), j))
            .min_by_key(|(phi, j)| {
                (location_major_index(c, phi).expect("an indexed observer is valid"), *j)
            })
            .expect("failing set is non-empty");
        let o = alphabet[j];
        Some(ConstructibilityWitness { c: c.clone(), phi, extension: c.augment(o), op: o })
    })
}

// ---------------------------------------------------------------------
// A ready-made checkpointable state: weighted membership counts
// ---------------------------------------------------------------------

/// Weighted membership counts: the checkpointable state behind
/// `ccmm sweep` phase 1 and the kill/resume tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountsState {
    /// Weighted (C, Φ) pairs visited.
    pub pairs: u64,
    /// Weighted membership count per model, in caller order.
    pub per_model: Vec<u64>,
}

impl CountsState {
    /// Zero counts for `models` models.
    pub fn new(models: usize) -> Self {
        CountsState { pairs: 0, per_model: vec![0; models] }
    }

    /// Appends the wire encoding (`pairs`, model count, per-model counts,
    /// all little-endian u64).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, self.pairs);
        put_u64(out, self.per_model.len() as u64);
        for &m in &self.per_model {
            put_u64(out, m);
        }
    }

    /// Consumes a wire encoding from the front of `input`.
    pub fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let pairs = get_u64(input)?;
        let n = get_u64(input)? as usize;
        if n > 4096 {
            return None; // corrupt count, not a real model list
        }
        let mut per_model = Vec::with_capacity(n);
        for _ in 0..n {
            per_model.push(get_u64(input)?);
        }
        Some(CountsState { pairs, per_model })
    }
}

impl Merge for CountsState {
    fn merge(&mut self, other: Self) {
        debug_assert_eq!(self.per_model.len(), other.per_model.len());
        self.pairs += other.pairs;
        for (d, s) in self.per_model.iter_mut().zip(other.per_model) {
            *d += s;
        }
    }
}

/// Encodes one checkpoint snapshot payload: frontier, then counts.
pub fn encode_counts_snapshot(frontier: &Frontier, counts: &CountsState) -> Vec<u8> {
    let mut out = Vec::new();
    frontier.encode_into(&mut out);
    counts.encode_into(&mut out);
    out
}

/// Decodes a snapshot produced by [`encode_counts_snapshot`].
pub fn decode_counts_snapshot(mut bytes: &[u8]) -> Option<(Frontier, CountsState)> {
    let frontier = Frontier::decode_from(&mut bytes)?;
    let counts = CountsState::decode_from(&mut bytes)?;
    Some((frontier, counts))
}

// ---------------------------------------------------------------------
// The verdict pass: memberships, comparisons, and the Figure-1 lattice
// ---------------------------------------------------------------------

/// Recovers the observer function in one slot of a batch.
type SlotObserver<'a> = &'a dyn Fn(usize) -> ObserverFunction;

/// How the verdict pass decides a computation's observers: in batches,
/// each decided under every model once. [`Scalar`] batches one observer
/// (width-1 masks); [`Lane64`] up to [`crate::model::LANES`].
trait VerdictKernel {
    /// Per-worker scratch (rebuilt after a panic).
    type Scratch;

    fn scratch() -> Self::Scratch;

    /// Calls `flush(slots, verdicts, observer)` per batch of `c`'s valid
    /// observers, in enumeration order: `slots` has one bit per observer
    /// of the batch and `verdicts[i] ⊆ slots` is model `i`'s mask.
    fn decide<M: MemoryModel>(
        models: &[M],
        c: &Computation,
        x: &mut Self::Scratch,
        verdicts: &mut [u64],
        flush: impl FnMut(u64, &[u64], SlotObserver<'_>),
    );
}

/// Width-1 kernel: one [`MemoryModel::contains_with`] per observer.
struct Scalar;

impl VerdictKernel for Scalar {
    type Scratch = CheckScratch;

    fn scratch() -> CheckScratch {
        CheckScratch::new()
    }

    fn decide<M: MemoryModel>(
        models: &[M],
        c: &Computation,
        check: &mut CheckScratch,
        verdicts: &mut [u64],
        mut flush: impl FnMut(u64, &[u64], SlotObserver<'_>),
    ) {
        let _ = for_each_observer(c, |phi| {
            for (v, m) in verdicts.iter_mut().zip(models) {
                *v = u64::from(m.contains_with(c, phi, check));
            }
            flush(1, verdicts, &|_| phi.clone());
            ControlFlow::Continue(())
        });
    }
}

/// 64-lane kernel: one [`MemoryModel::contains_lanes`] per [`LanePack`],
/// filled straight from the computation's [`ObserverIndex`].
struct Lane64;

impl VerdictKernel for Lane64 {
    type Scratch = (ObserverIndex, LanePack, LaneScratch);

    fn scratch() -> Self::Scratch {
        (ObserverIndex::new(), LanePack::new(), LaneScratch::new())
    }

    fn decide<M: MemoryModel>(
        models: &[M],
        c: &Computation,
        (index, pack, lanes): &mut Self::Scratch,
        verdicts: &mut [u64],
        mut flush: impl FnMut(u64, &[u64], SlotObserver<'_>),
    ) {
        index.prepare(c, SlotOrder::LocationMajor, pack);
        index.for_each_pack(pack, |pack| {
            let used = pack.used();
            for (v, m) in verdicts.iter_mut().zip(models) {
                *v = m.contains_lanes(c, pack, lanes) & used;
            }
            flush(used, verdicts, &|lane| pack.extract(c, lane));
        });
    }
}

/// One decided batch, as the verdict pass hands it to a fold.
struct Batch<'a> {
    task_idx: usize,
    c: &'a Computation,
    /// The computation's universe multiplicity.
    weight: u64,
    /// One bit per observer of the batch.
    slots: u64,
    /// Model `i`'s verdict mask, a subset of `slots`.
    verdicts: &'a [u64],
    observer: SlotObserver<'a>,
}

/// The verdict pass: one supervised scan of every `(C, Φ)` pair of the
/// universe that decides each batch under every model once and folds it
/// into the per-task state. Every task is scanned in full (no early
/// exit), so its telemetry counters are the same at every thread count.
/// Canonical mode decides one labelling per write-pattern orbit
/// ([`Letters::for_verdicts`]), weighted by the orbit's size: models see
/// ops only through the locations they write, and the visited labelling
/// is its class's first member, so weighted totals and first witnesses
/// equal the labelled scan's.
#[allow(clippy::too_many_arguments)]
fn verdict_pass<K, M, S>(
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, S)>,
    ckpt: Option<CkptSink<'_, S>>,
    empty: impl Fn() -> S + Sync,
    fold: impl Fn(&mut S, &Batch<'_>) + Sync,
) -> Supervised<S>
where
    K: VerdictKernel,
    M: MemoryModel + Sync,
    S: Merge + Send,
{
    let n = models.len();
    sweep_letters(
        &Letters::for_verdicts(u, cfg),
        u,
        cfg,
        sup,
        resume,
        ckpt,
        empty,
        || (K::scratch(), vec![0u64; n]),
        |acc, (x, verdicts), task_idx, c, weight| {
            K::decide(models, c, x, verdicts, |slots, verdicts, observer| {
                telemetry::count(Counter::PairsChecked, u64::from(slots.count_ones()));
                fold(acc, &Batch { task_idx, c, weight, slots, verdicts, observer });
            });
        },
    )
}

/// Weighted membership counts through kernel `K`, checkpointable.
fn memberships<K: VerdictKernel, M: MemoryModel + Sync>(
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, CountsState)>,
    ckpt: Option<(&mut CkptWriter, usize)>,
) -> Supervised<CountsState> {
    let n = models.len();
    let encode = |s: &CountsState, f: &Frontier| encode_counts_snapshot(f, s);
    let sink = ckpt.map(|(writer, every)| CkptSink { writer, every, encode: &encode });
    let empty = || CountsState::new(n);
    verdict_pass::<K, _, _>(models, u, cfg, sup, resume, sink, empty, |acc, b| {
        acc.pairs += b.weight * u64::from(b.slots.count_ones());
        for (count, v) in acc.per_model.iter_mut().zip(b.verdicts) {
            *count += b.weight * u64::from(v.count_ones());
        }
    })
}

/// Supervised weighted membership counting over every `(C, Φ)` pair of
/// the universe: the checkpointable sweep behind `ccmm sweep` phase 1.
/// `ckpt` is `(journal, every-N-tasks)`; `resume` a decoded snapshot.
pub fn memberships_supervised<M: MemoryModel + Sync>(
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, CountsState)>,
    ckpt: Option<(&mut CkptWriter, usize)>,
) -> Supervised<CountsState> {
    memberships::<Scalar, _>(models, u, cfg, sup, resume, ckpt)
}

/// Lane-engine counterpart of [`memberships_supervised`]: packs up to
/// [`crate::model::LANES`] observers per [`LanePack`] and decides them in
/// lockstep via [`MemoryModel::contains_lanes`]. Counts are identical to
/// the scalar engine — a verdict mask contributes
/// `weight × popcount(verdict)`. Checkpoints stay task (poset) granular
/// with the scalar snapshot encoding, so journals from either engine
/// resume bit-identically under the same fingerprint discipline.
pub fn memberships_lanes_supervised<M: MemoryModel + Sync>(
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
    resume: Option<(Frontier, CountsState)>,
    ckpt: Option<(&mut CkptWriter, usize)>,
) -> Supervised<CountsState> {
    memberships::<Lane64, _>(models, u, cfg, sup, resume, ckpt)
}

/// One side of a compared pair, so two model types share one pass.
enum Side<'a, A, B> {
    A(&'a A),
    B(&'a B),
}

impl<A: MemoryModel, B: MemoryModel> MemoryModel for Side<'_, A, B> {
    fn name(&self) -> &str {
        match self {
            Side::A(m) => m.name(),
            Side::B(m) => m.name(),
        }
    }

    fn contains(&self, c: &Computation, phi: &ObserverFunction) -> bool {
        match self {
            Side::A(m) => m.contains(c, phi),
            Side::B(m) => m.contains(c, phi),
        }
    }

    fn contains_with(&self, c: &Computation, phi: &ObserverFunction, s: &mut CheckScratch) -> bool {
        match self {
            Side::A(m) => m.contains_with(c, phi, s),
            Side::B(m) => m.contains_with(c, phi, s),
        }
    }
}

/// Per-task (and merged) comparison state.
struct CmpState {
    both: usize,
    a_total: usize,
    b_total: usize,
    pairs_checked: usize,
    a_only: Option<Keyed<(Computation, ObserverFunction)>>,
    b_only: Option<Keyed<(Computation, ObserverFunction)>>,
}

impl Merge for CmpState {
    fn merge(&mut self, d: Self) {
        self.both += d.both;
        self.a_total += d.a_total;
        self.b_total += d.b_total;
        self.pairs_checked += d.pairs_checked;
        merge_keyed(&mut self.a_only, d.a_only);
        merge_keyed(&mut self.b_only, d.b_only);
    }
}

/// Supervised [`crate::relation::compare`]: same `Comparison` when
/// complete; under quarantine, totals exclude the quarantined tasks and
/// the witnesses of all other tasks still match the serial scan (first
/// in scan order within a task, smallest task index across tasks).
pub fn compare_supervised<A, B>(
    a: &A,
    b: &B,
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Comparison>
where
    A: MemoryModel + Sync,
    B: MemoryModel + Sync,
{
    let models = [Side::A(a), Side::B(b)];
    let empty = || CmpState {
        both: 0,
        a_total: 0,
        b_total: 0,
        pairs_checked: 0,
        a_only: None,
        b_only: None,
    };
    let out = verdict_pass::<Scalar, _, _>(&models, u, cfg, sup, None, None, empty, |p, bt| {
        let (va, vb, w) = (bt.verdicts[0], bt.verdicts[1], bt.weight as usize);
        p.pairs_checked += w * bt.slots.count_ones() as usize;
        p.a_total += w * va.count_ones() as usize;
        p.b_total += w * vb.count_ones() as usize;
        p.both += w * (va & vb).count_ones() as usize;
        for (only, slot) in [(va & !vb, &mut p.a_only), (vb & !va, &mut p.b_only)] {
            if only != 0 {
                let phi = || (bt.observer)(only.trailing_zeros() as usize);
                keep_min(slot, bt.task_idx, || (bt.c.clone(), phi()));
            }
        }
    });
    out.map(|p| {
        let a_only = p.a_only.map(|k| k.witness);
        let b_only = p.b_only.map(|k| k.witness);
        Comparison {
            relation: Relation::from_evidence(a_only.is_some(), b_only.is_some()),
            a_only,
            b_only,
            both: p.both,
            a_total: p.a_total,
            b_total: p.b_total,
            pairs_checked: p.pairs_checked,
        }
    })
}

/// Ordered-pair evidence of a lattice pass: bit `i·n + j` is set once
/// some pair is in model `i` but not in model `j`.
struct PairBits(u64);

impl Merge for PairBits {
    fn merge(&mut self, other: Self) {
        self.0 |= other.0;
    }
}

/// The Figure-1 lattice through kernel `K`: one verdict pass ORs every
/// ordered pair's `vᵢ & !vⱼ ≠ 0` into [`PairBits`], and cell `(i, j)` is
/// read off the bits `(i, j)` and `(j, i)`.
fn lattice<K: VerdictKernel, M: MemoryModel + Sync>(
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Vec<LatticeRow>> {
    let n = models.len();
    assert!(n * n <= 64, "a lattice pass packs ordered model pairs into a u64: at most 8 models");
    let out = verdict_pass::<K, _, _>(
        models,
        u,
        cfg,
        sup,
        None,
        None,
        || PairBits(0),
        |bits, b| {
            for (i, &vi) in b.verdicts.iter().enumerate() {
                for (j, &vj) in b.verdicts.iter().enumerate() {
                    if vi & !vj != 0 {
                        bits.0 |= 1 << (i * n + j);
                    }
                }
            }
        },
    );
    out.map(|PairBits(bits)| {
        let differs = |i: usize, j: usize| bits >> (i * n + j) & 1 == 1;
        models
            .iter()
            .enumerate()
            .map(|(i, a)| LatticeRow {
                name: a.name().to_string(),
                relations: (0..n)
                    .map(|j| Relation::from_evidence(differs(i, j), differs(j, i)))
                    .collect(),
            })
            .collect()
    })
}

/// Supervised [`crate::relation::lattice`]: the whole relation matrix
/// from one verdict pass over the universe. Under quarantine a cell may
/// miss evidence held only by quarantined tasks (conservative toward
/// `Equal`/one-sided); a partial pass's cells cover exactly its frontier.
pub fn lattice_supervised<M: MemoryModel + Sync>(
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Vec<LatticeRow>> {
    lattice::<Scalar, _>(models, u, cfg, sup)
}

/// Lane-engine counterpart of [`lattice_supervised`]: the same pass
/// through the lane kernel, so the matrix costs one memberships sweep.
pub fn lattice_lanes_supervised<M: MemoryModel + Sync>(
    models: &[M],
    u: &Universe,
    cfg: &SweepConfig,
    sup: &Supervisor,
) -> Supervised<Vec<LatticeRow>> {
    lattice::<Lane64, _>(models, u, cfg, sup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::op::Op;
    use crate::relation::compare;

    const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("ccmm-sup-{name}-{}", std::process::id()))
    }

    #[test]
    fn frontier_insert_coalesces_and_round_trips() {
        let mut f = Frontier::new();
        for idx in [5, 3, 4, 9, 0, 1, 10, 7] {
            f.insert(idx);
            f.insert(idx); // idempotent
        }
        assert_eq!(f.ranges(), &[(0, 2), (3, 6), (7, 8), (9, 11)]);
        assert_eq!(f.len(), 8);
        for idx in [0, 1, 3, 4, 5, 7, 9, 10] {
            assert!(f.contains(idx));
        }
        for idx in [2, 6, 8, 11, 100] {
            assert!(!f.contains(idx));
        }
        f.insert(8); // bridges (7,8) and (9,11)
        assert_eq!(f.ranges(), &[(0, 2), (3, 6), (7, 11)]);
        let mut buf = Vec::new();
        f.encode_into(&mut buf);
        let mut r: &[u8] = &buf;
        assert_eq!(Frontier::decode_from(&mut r), Some(f));
        assert!(r.is_empty());
        // Truncated and unsorted encodings are rejected.
        let mut torn: &[u8] = &buf[..buf.len() - 1];
        assert!(Frontier::decode_from(&mut torn).is_none());
        let mut bad = Vec::new();
        put_u64(&mut bad, 2);
        for v in [5u64, 9, 1, 3] {
            put_u64(&mut bad, v);
        }
        let mut r: &[u8] = &bad;
        assert!(Frontier::decode_from(&mut r).is_none());
    }

    #[test]
    fn retry_once_heals_a_transient_panic_and_quarantines_a_persistent_one() {
        // Panic once: the retry succeeds, and the scratch is reset once.
        let (mut resets, mut calls) = (0, 0);
        let healed = retry_once(
            &mut resets,
            |r| *r += 1,
            |_| {
                calls += 1;
                assert!(calls > 1, "first attempt fails");
                calls
            },
        );
        assert_eq!(healed, Ok(2));
        assert_eq!(resets, 1);
        // Panic twice: the second payload comes back, after a reset per
        // failed attempt.
        let mut resets = 0;
        let mut attempt = 0;
        let failed: Result<(), String> = retry_once(
            &mut resets,
            |r| *r += 1,
            |_| {
                attempt += 1;
                std::panic::panic_any(format!("attempt {attempt}"))
            },
        );
        assert_eq!(failed, Err("attempt 2".to_string()));
        assert_eq!(resets, 2);
    }

    /// Ticks `n` units through a fresh journal writing every `every`-th,
    /// under `fault`; returns the per-tick kill verdicts, the records the
    /// writer counted, the journal's error and status, and the records on
    /// disk.
    fn journal_run(
        name: &str,
        n: usize,
        every: usize,
        fault: &FaultPlan,
    ) -> (Vec<bool>, usize, Option<String>, SweepStatus, usize) {
        let path = temp(name);
        let mut writer = CkptWriter::create(&path, "journal test").unwrap();
        let mut journal = Journal::new(Some((&mut writer, every)), fault);
        let kills = (0..n).map(|i| journal.tick(|| vec![i as u8])).collect();
        let (error, status) = (journal.error().map(str::to_string), journal.status(false, 0));
        let records = writer.snapshots();
        drop(writer);
        let on_disk = crate::ckpt::Checkpoint::load(&path).unwrap().snapshots.len();
        std::fs::remove_file(&path).unwrap();
        (kills, records, error, status, on_disk)
    }

    #[test]
    fn journal_appends_every_n_and_obeys_injected_faults() {
        // Every 3rd of 10 units: 3 records, nothing killed, complete.
        let (kills, records, error, status, on_disk) =
            journal_run("every", 10, 3, &FaultPlan::none());
        assert_eq!((records, on_disk), (3, 3));
        assert!(kills.iter().all(|&k| !k) && error.is_none());
        assert_eq!(status, SweepStatus::Complete);

        // An io error at record 2 stops every later append and degrades.
        let fault = FaultPlan::none().io_error_at_record(2);
        let (kills, records, error, status, on_disk) = journal_run("io-error", 10, 1, &fault);
        assert_eq!((records, on_disk), (1, 1));
        assert!(error.unwrap().contains("injected fault: io error at ckpt record 2"));
        assert!(kills.iter().all(|&k| !k));
        assert_eq!(status, SweepStatus::Degraded);

        // kill-after-ckpt=3 fires on the 3rd record and writes no more.
        let fault = FaultPlan::none().kill_after_records(3);
        let (kills, records, error, status, on_disk) = journal_run("kill", 10, 2, &fault);
        assert_eq!((records, on_disk), (3, 3));
        assert_eq!(kills.iter().position(|&k| k), Some(5), "the 6th unit writes record 3");
        assert!(kills[5..].iter().all(|&k| k) && error.is_none());
        assert_eq!(status, SweepStatus::Killed);

        // Without a writer every call is a no-op.
        let mut off = Journal::new(None, &fault);
        assert!(!off.tick(|| unreachable!("an unjournalled run never encodes")));
        off.finish(|| unreachable!("an unjournalled run never encodes"));
        assert_eq!(off.status(false, 0), SweepStatus::Complete);
    }

    #[test]
    fn status_fold_orders_killed_partial_degraded_complete() {
        use SweepStatus::*;
        assert_eq!(SweepStatus::fold(true, true, true), Killed);
        assert_eq!(SweepStatus::fold(false, true, true), Partial);
        assert_eq!(SweepStatus::fold(false, false, true), Degraded);
        assert_eq!(SweepStatus::fold(false, false, false), Complete);
        // `ccmm stress` stops at its first conformance failure with
        // iterations unattempted; that stop is the run's purpose, not a
        // deadline, so it is not `stopped_short` and the run is not
        // Partial — quarantines and journal errors still degrade it.
        let fault = FaultPlan::none();
        let journal = Journal::new(None, &fault);
        let (attempted, total, failed) = (3, 10, true);
        let stopped_short = attempted < total && !failed;
        assert_eq!(journal.status(stopped_short, 0), Complete);
        assert_eq!(journal.status(stopped_short, 1), Degraded);
        assert_eq!(journal.status(attempted < total, 0), Partial, "a deadline stop");
    }

    #[test]
    fn clean_supervised_memberships_are_complete_and_match_unsupervised() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2);
        let sup = Supervisor::none();
        let out = memberships_supervised(&MODELS, &u, &cfg, &sup, None, None);
        assert!(out.is_complete());
        assert!(out.quarantined.is_empty());
        assert_eq!(out.frontier.len(), out.total_tasks);
        // Pair totals match the exhaustive comparison's count.
        let serial = compare(&Model::Sc, &Model::Lc, &u);
        assert_eq!(out.value.pairs as usize, serial.pairs_checked);
        assert_eq!(out.value.per_model[0] as usize, serial.a_total);
        assert_eq!(out.value.per_model[1] as usize, serial.b_total);
    }

    #[test]
    fn persistent_panic_quarantines_and_degrades() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2);
        let clean =
            memberships_supervised(&MODELS, &u, &cfg, &Supervisor::none(), None, None).value;
        let sup = Supervisor::with_fault(FaultPlan::none().panic_at_task(0));
        let out = memberships_supervised(&MODELS, &u, &cfg, &sup, None, None);
        assert_eq!(out.status, SweepStatus::Degraded);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].task_idx, 0);
        assert!(out.quarantined[0].payload.contains("panic at task 0"));
        assert!(!out.frontier.contains(0));
        assert_eq!(out.frontier.len() + 1, out.total_tasks);
        // Task 0 is the empty poset: exactly one (C, Φ) pair missing.
        assert_eq!(out.value.pairs, clean.pairs - 1);
    }

    #[test]
    fn transient_panic_heals_on_retry() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2);
        let clean =
            memberships_supervised(&MODELS, &u, &cfg, &Supervisor::none(), None, None).value;
        let sup = Supervisor::with_fault(FaultPlan::none().panic_once_at_task(2));
        let out = memberships_supervised(&MODELS, &u, &cfg, &sup, None, None);
        assert!(out.is_complete(), "retry should heal a once-fault");
        assert_eq!(out.value, clean);
    }

    #[test]
    fn zero_deadline_yields_partial_with_empty_frontier() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2).deadline(Duration::ZERO);
        let out = memberships_supervised(&MODELS, &u, &cfg, &Supervisor::none(), None, None);
        assert_eq!(out.status, SweepStatus::Partial);
        assert!(out.frontier.is_empty());
        assert_eq!(out.value.pairs, 0);
    }

    #[test]
    fn kill_resume_is_bit_identical() {
        let u = Universe::new(3, 1);
        for threads in [1, 2, 4] {
            let cfg = SweepConfig::with_threads(threads).canonical(true);
            let clean =
                memberships_supervised(&MODELS, &u, &cfg, &Supervisor::none(), None, None).value;
            let path = temp(&format!("killres-{threads}"));
            let mut writer = CkptWriter::create(&path, "test fp").unwrap();
            let sup = Supervisor::with_fault(FaultPlan::none().kill_after_records(2));
            let out = memberships_supervised(&MODELS, &u, &cfg, &sup, None, Some((&mut writer, 1)));
            assert_eq!(out.status, SweepStatus::Killed);
            drop(writer);
            let ck = crate::ckpt::Checkpoint::load(&path).unwrap();
            assert_eq!(ck.fingerprint, "test fp");
            assert!(ck.snapshots.len() >= 2);
            let (frontier, counts) = decode_counts_snapshot(ck.latest().unwrap()).unwrap();
            assert!(frontier.len() >= 2);
            let mut writer = CkptWriter::append_to(&path).unwrap();
            let resumed = memberships_supervised(
                &MODELS,
                &u,
                &cfg,
                &Supervisor::none(),
                Some((frontier, counts)),
                Some((&mut writer, 1)),
            );
            assert!(resumed.is_complete(), "{threads} threads");
            assert_eq!(resumed.value, clean, "{threads} threads: resume must be bit-identical");
            assert_eq!(resumed.frontier.len(), resumed.total_tasks);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn lane_memberships_match_scalar_at_every_thread_count() {
        // The lane64 engine must reproduce the scalar engine's weighted
        // membership counts exactly — labelled and canonical, 1/2/4
        // threads — because downstream tables and gates treat the two
        // engines as interchangeable up to throughput.
        let u = Universe::new(4, 1);
        for canonical in [false, true] {
            let scalar = memberships_supervised(
                &MODELS,
                &u,
                &SweepConfig::with_threads(1).canonical(canonical),
                &Supervisor::none(),
                None,
                None,
            )
            .expect_complete("scalar memberships");
            for threads in [1, 2, 4] {
                let cfg = SweepConfig::with_threads(threads).canonical(canonical);
                let lanes = memberships_lanes_supervised(
                    &MODELS,
                    &u,
                    &cfg,
                    &Supervisor::none(),
                    None,
                    None,
                )
                .expect_complete("lane memberships");
                assert_eq!(lanes, scalar, "canonical={canonical} threads={threads}");
            }
        }
    }

    type LatticeFn =
        fn(&[Model], &Universe, &SweepConfig, &Supervisor) -> Supervised<Vec<LatticeRow>>;

    /// Both kernels of the lattice pass, by engine name.
    const LATTICES: [(&str, LatticeFn); 2] =
        [("scalar", lattice_supervised::<Model>), ("lane64", lattice_lanes_supervised::<Model>)];

    #[test]
    fn lane_lattice_matches_scalar() {
        // Both kernels of the verdict pass must reproduce the serial
        // cell-by-cell `relation::lattice` — labelled and canonical, at
        // 1/2/4 threads, over one and two locations. (Bound 4 at two
        // locations is 344,223 pairs: the serial lattice's 72 allocating
        // checks per pair take minutes in a debug build.)
        for (bound, locs) in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)] {
            let u = Universe::new(bound, locs);
            let serial = crate::relation::lattice(&MODELS, &u);
            for canonical in [false, true] {
                for threads in [1, 2, 4] {
                    let cfg = SweepConfig::with_threads(threads).canonical(canonical);
                    for (engine, lattice) in LATTICES {
                        let out = lattice(&MODELS, &u, &cfg, &Supervisor::none());
                        let at = format!("{engine}: ({bound}, {locs}), {canonical}, {threads}");
                        assert!(out.is_complete(), "{at}");
                        for (a, b) in serial.iter().zip(&out.value) {
                            assert_eq!(a.name, b.name);
                            assert_eq!(a.relations, b.relations, "row {} at {at}", a.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn lattice_pass_quarantines_once_and_reports_its_frontier() {
        // One pass means one task list: a persistent panic at task 1
        // quarantines exactly one lattice task (not one per cell), and a
        // zero deadline reports the pass's own frontier and task count.
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2).canonical(true);
        let tasks = crate::sweep::plan::canonical_tasks(u.max_nodes).len();
        let panics = Supervisor::with_fault(FaultPlan::none().panic_at_task(1));
        for (engine, lattice) in LATTICES {
            let clean = lattice(&MODELS, &u, &cfg, &Supervisor::none());
            assert!(clean.is_complete(), "{engine}");
            assert_eq!((clean.total_tasks, clean.frontier.len()), (tasks, tasks), "{engine}");

            let out = lattice(&MODELS, &u, &cfg, &panics);
            assert_eq!(out.status, SweepStatus::Degraded, "{engine}");
            assert_eq!(out.quarantined.len(), 1, "{engine}");
            assert_eq!(out.quarantined[0].task_idx, 1, "{engine}");
            assert!(!out.frontier.contains(1), "{engine}");
            assert_eq!((out.total_tasks, out.frontier.len()), (tasks, tasks - 1), "{engine}");
            // Task 1 (one node) separates no model pair at this bound.
            for (a, b) in clean.value.iter().zip(&out.value) {
                assert_eq!(a.relations, b.relations, "{engine} row {}", a.name);
            }

            let out = lattice(&MODELS, &u, &cfg.deadline(Duration::ZERO), &Supervisor::none());
            assert_eq!(out.status, SweepStatus::Partial, "{engine}");
            assert_eq!((out.total_tasks, out.frontier.len()), (tasks, 0), "{engine}");
            assert!(out.quarantined.is_empty(), "{engine}");
            // No task scanned: no evidence, so every cell reads Equal.
            for row in &out.value {
                assert!(row.relations.iter().all(|&r| r == Relation::Equal), "{engine}");
            }
        }
    }

    #[test]
    fn lane_kill_resume_is_bit_identical() {
        // Same discipline as the scalar kill/resume test: a lane journal
        // truncated by an injected kill must resume to the exact clean
        // counts, at every thread count.
        let u = Universe::new(3, 1);
        for threads in [1, 2, 4] {
            let cfg = SweepConfig::with_threads(threads).canonical(true);
            let clean =
                memberships_lanes_supervised(&MODELS, &u, &cfg, &Supervisor::none(), None, None)
                    .value;
            let path = temp(&format!("lane-killres-{threads}"));
            let mut writer = CkptWriter::create(&path, "test fp").unwrap();
            let sup = Supervisor::with_fault(FaultPlan::none().kill_after_records(2));
            let out =
                memberships_lanes_supervised(&MODELS, &u, &cfg, &sup, None, Some((&mut writer, 1)));
            assert_eq!(out.status, SweepStatus::Killed);
            drop(writer);
            let ck = crate::ckpt::Checkpoint::load(&path).unwrap();
            let (frontier, counts) = decode_counts_snapshot(ck.latest().unwrap()).unwrap();
            let mut writer = CkptWriter::append_to(&path).unwrap();
            let resumed = memberships_lanes_supervised(
                &MODELS,
                &u,
                &cfg,
                &Supervisor::none(),
                Some((frontier, counts)),
                Some((&mut writer, 1)),
            );
            assert!(resumed.is_complete(), "{threads} threads");
            assert_eq!(resumed.value, clean, "{threads} threads: resume must be bit-identical");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn lane_and_scalar_snapshots_interoperate() {
        // A journal written by the scalar engine can seed a lane resume:
        // the snapshot encoding (frontier + counts) is engine-agnostic.
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2).canonical(true);
        let clean =
            memberships_supervised(&MODELS, &u, &cfg, &Supervisor::none(), None, None).value;
        let path = temp("lane-interop");
        let mut writer = CkptWriter::create(&path, "test fp").unwrap();
        let sup = Supervisor::with_fault(FaultPlan::none().kill_after_records(2));
        let out = memberships_supervised(&MODELS, &u, &cfg, &sup, None, Some((&mut writer, 1)));
        assert_eq!(out.status, SweepStatus::Killed);
        drop(writer);
        let ck = crate::ckpt::Checkpoint::load(&path).unwrap();
        let (frontier, counts) = decode_counts_snapshot(ck.latest().unwrap()).unwrap();
        let resumed = memberships_lanes_supervised(
            &MODELS,
            &u,
            &cfg,
            &Supervisor::none(),
            Some((frontier, counts)),
            None,
        );
        assert!(resumed.is_complete());
        assert_eq!(resumed.value, clean, "scalar journal + lane resume must match clean scalar");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn degraded_compare_keeps_other_witnesses() {
        // Panic at task 0 (the empty poset, which witnesses nothing):
        // the LC/NN disagreement witnesses must still equal the serial
        // scan's, and the verdict must be Degraded, not a crash.
        let u = Universe::new(3, 1);
        let serial = compare(&Model::Lc, &Model::Nn, &u);
        let sup = Supervisor::with_fault(FaultPlan::none().panic_at_task(0));
        let out =
            compare_supervised(&Model::Lc, &Model::Nn, &u, &SweepConfig::with_threads(2), &sup);
        assert_eq!(out.status, SweepStatus::Degraded);
        assert_eq!(out.value.relation, serial.relation);
        assert_eq!(out.value.a_only, serial.a_only);
        assert_eq!(out.value.b_only, serial.b_only);
        // Exactly the empty computation's single pair is missing.
        assert_eq!(out.value.pairs_checked, serial.pairs_checked - 1);
    }

    #[test]
    fn degraded_witness_search_does_not_abort() {
        let u = Universe::new(3, 1);
        let cfg = SweepConfig::with_threads(2);
        let sup = Supervisor::with_fault(FaultPlan::none().panic_at_task(0));
        let out = check_complete_supervised(&Model::Nn, &u, &cfg, &sup);
        assert_eq!(out.status, SweepStatus::Degraded);
        assert!(out.value.is_none(), "NN is complete at this bound");
        assert_eq!(out.quarantined.len(), 1);
    }

    #[test]
    fn lane_constructibility_witness_matches_scalar() {
        // NN first fails constructibility at the 5-node bound: both
        // engines must return the *same* first witness (min task,
        // labelling, location-major observer, op). Below the bound (and
        // at two locations) both must agree there is none.
        for &(b, l, fails) in &[(4usize, 1usize, false), (3, 2, false), (5, 1, true)] {
            let u = Universe::new(b, l);
            for cfg in [
                SweepConfig::with_threads(1),
                SweepConfig::with_threads(4),
                SweepConfig { canonical: true, ..SweepConfig::with_threads(2) },
            ] {
                let scalar =
                    check_constructible_aug_supervised(&Model::Nn, &u, &cfg, &Supervisor::none())
                        .expect_complete("scalar constructibility");
                let lane = check_constructible_aug_lanes_supervised(
                    &Model::Nn,
                    &u,
                    &cfg,
                    &Supervisor::none(),
                )
                .expect_complete("lane constructibility");
                assert_eq!(scalar.is_some(), fails, "scalar at bound {b}, {l} locs");
                match (scalar, lane) {
                    (None, None) => {}
                    (Some(s), Some(n)) => {
                        assert_eq!(s.c, n.c);
                        assert_eq!(s.phi, n.phi);
                        assert_eq!(s.extension, n.extension);
                        assert_eq!(s.op, n.op);
                    }
                    (s, n) => panic!("engines disagree: scalar {s:?} vs lane {n:?}"),
                }
            }
        }
        // Constructible models return no witness under either engine.
        let u = Universe::new(3, 2);
        let cfg = SweepConfig::with_threads(2);
        for m in [Model::Sc, Model::Lc, Model::Ww] {
            let lane = check_constructible_aug_lanes_supervised(&m, &u, &cfg, &Supervisor::none())
                .expect_complete("lane constructibility");
            assert!(lane.is_none(), "{m:?} is constructible");
        }
    }

    #[test]
    fn bound5_two_location_witnesses_are_pinned() {
        // The first dead end of NN, NW and WN at bound 5 over two
        // locations, labelled and canonical alike: a 4-node member pair
        // that no observer of its `N` augmentation extends.
        use crate::parse::{render_computation, render_observer};
        let crossed_writes = "n0: W(l0)\nn1: W(l0)\nn2: N <- n0\nn3: N <- n1\n";
        let crossed_nops = "n0: N\nn1: N\nn2: W(l0) <- n0\nn3: W(l0) <- n1\n";
        let pins = [
            (Model::Nn, crossed_writes, "l0: n0 n1 n1 n0\n"),
            (Model::Nw, crossed_nops, "l0: n3 n2 n2 n3\n"),
            (Model::Wn, crossed_writes, "l0: n0 n1 n1 n0\n"),
        ];
        let u = Universe::new(5, 2);
        for cfg in [SweepConfig::with_threads(2), SweepConfig::with_threads(2).canonical(true)] {
            for (m, c, phi) in pins {
                let w = check_constructible_aug_lanes_supervised(&m, &u, &cfg, &Supervisor::none())
                    .expect_complete("lane constructibility")
                    .expect("not constructible at bound 5");
                assert_eq!(render_computation(&w.c), c, "{m}");
                assert_eq!(render_observer(&w.phi), phi, "{m}");
                assert_eq!(w.op, Op::Nop, "{m}");
                assert_eq!(w.extension, w.c.augment(Op::Nop), "{m}");
            }
        }
    }

    #[test]
    fn counts_snapshot_round_trip() {
        let mut f = Frontier::new();
        f.insert(3);
        f.insert(4);
        f.insert(9);
        let counts = CountsState { pairs: 123, per_model: vec![7, 0, 99] };
        let bytes = encode_counts_snapshot(&f, &counts);
        let (f2, c2) = decode_counts_snapshot(&bytes).unwrap();
        assert_eq!(f2, f);
        assert_eq!(c2, counts);
        assert!(decode_counts_snapshot(&bytes[..bytes.len() - 3]).is_none());
    }
}
