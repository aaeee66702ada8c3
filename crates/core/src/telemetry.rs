//! Zero-cost-when-disabled counters, spans, and progress heartbeats.
//!
//! Every long-running path in the crate (sweeps, fixpoints, model
//! checkers, the conformance harness) calls the `#[inline]` hooks in this
//! module. With the `telemetry` cargo feature off they compile to
//! nothing; with it on (the default) each hook is a single relaxed
//! atomic load and branch until telemetry is switched on at runtime with
//! [`set_enabled`], so the hot paths stay within noise of the
//! un-instrumented build.
//!
//! **Counters** are recorded in lock-free per-thread sinks (a
//! `thread_local` array of `AtomicU64`s, registered once per thread in a
//! global list) and merged by summation in [`snapshot_and_reset`].
//! Summation is commutative and associative, so the merged totals are
//! deterministic whenever the underlying *set* of events is — see
//! DESIGN.md §9 for which counters that covers (and why wall-clock
//! timings never are).
//!
//! **Spans** ([`span`]) record named intervals with microsecond
//! timestamps on a process-local monotonic clock ([`now_us`]); they are
//! drained as JSONL-able [`SpanEvent`]s by [`drain_events`]. Timestamps
//! are excluded from every bit-identity check: they measure the host,
//! not the computation.
//!
//! **Progress** ([`progress_tick`]) is a rate-limited stderr heartbeat
//! emitted from the supervisor's commit path (tasks done/total, ETA,
//! quarantine count) when [`set_progress`] is on.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A named event counter. The variants mirror the work items of the
/// sweep and fixpoint engines; [`Counter::ALL`] fixes the (stable)
/// snapshot order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Posets handed to a labelling scan (one per task scan attempt).
    PosetsScanned,
    /// Op labellings visited inside those scans (canonical mode: one per
    /// `Aut(P) × S_k` orbit, its representative; the model-verdict passes
    /// and the Δ* fixpoint visit one per orbit of write patterns).
    LabellingsScanned,
    /// (computation, observer) membership pairs checked by a sweep
    /// (canonical mode: over orbit representatives only, unweighted).
    PairsChecked,
    /// Φ-membership checks dispatched to the SC checker.
    PhiChecksSc,
    /// Φ-membership checks dispatched to the LC checker.
    PhiChecksLc,
    /// Φ-membership checks dispatched to the NN checker.
    PhiChecksNn,
    /// Φ-membership checks dispatched to the NW checker.
    PhiChecksNw,
    /// Φ-membership checks dispatched to the WN checker.
    PhiChecksWn,
    /// Φ-membership checks dispatched to the WW checker.
    PhiChecksWw,
    /// Φ-membership checks dispatched to the validity-only (Any) checker.
    PhiChecksAny,
    /// SC search prefixes refuted from the per-pair memo table.
    ScMemoHits,
    /// SC search prefixes explored and inserted into the memo table.
    ScMemoMisses,
    /// Membership checks that reused a caller-provided scratch
    /// (`contains_with`) instead of allocating fresh checker state.
    ScratchReuse,
    /// Pairs pushed onto the Δ* worklist (initial seed + cascades).
    WorklistPushes,
    /// Pairs drained from the Δ* worklist for rechecking.
    WorklistPops,
    /// Tasks quarantined after panicking twice (sweep or fixpoint).
    Quarantines,
    /// Snapshot records appended to a checkpoint journal.
    CkptRecords,
    /// Deadline polls performed by supervised workers (counted only when
    /// a deadline is configured).
    DeadlinePolls,
    /// Operations successfully revealed by the online (Δ*) simulator.
    OnlineReveals,
    /// Online reveals that jammed (no admissible observer extension).
    OnlineJams,
    /// Membership checks answered by a brute-force oracle.
    OracleChecks,
    /// Fast-vs-oracle verdict comparisons made by the conformance
    /// harness.
    ConformanceChecks,
    /// Lane words evaluated by the lane64 engine (one per flushed
    /// [`crate::model::lane::LanePack`], full or underfull; canonical
    /// mode packs orbit representatives only).
    LaneWords,
    /// Observer lanes occupied across those words (occupancy =
    /// `lane_slots / (64 · lane_words)`).
    LaneSlots,
    /// Lane kernels that aborted early because every valid lane was
    /// already dead (violation or infeasibility on all of them).
    LaneEarlyExits,
    /// Survivor-mask words materialised or rescanned by the lane Δ*
    /// fixpoint (Stage A mask words written plus cascade block words
    /// examined). Deterministic: a pure function of the universe, the
    /// model, and the bound.
    LaneFixpointWords,
    /// Survivor bits cleared by the lane fixpoint's masked deletions,
    /// one per write-pattern entry bit (the fixpoint's `deleted` total
    /// weighs each by the labellings its entry stands for).
    /// Deterministic.
    LaneDeletionsMasked,
    /// Final survivor-set population (surviving (C, Φ) bits) reported
    /// once when the lane fixpoint converges. Deterministic.
    LaneSurvivorPop,
    /// Steal attempts made by idle workers of the threaded BACKER
    /// executor (one per deque/injector probe). Timing-dependent by
    /// nature — never part of any bit-identity check.
    StealAttempts,
    /// Perturbations (yields, busy-spin delays) actually injected by a
    /// `PerturbPlan` inside the threaded executor. The *decisions* are a
    /// pure function of (seed, position), but how many positions each
    /// worker visits per run is scheduling-dependent, so this counter is
    /// in the timing-dependent class too.
    PerturbInjected,
    /// Request payloads the serve handler received (every frame that
    /// reached parsing, whatever its fate). Deterministic for a fixed
    /// request stream.
    ServeRequests,
    /// Requests answered with an `ok` reply.
    ServeServed,
    /// Requests shed at admission with an `overloaded` reply.
    /// Timing-dependent: depends on how requests overlap in flight.
    ServeShed,
    /// Requests whose handler panicked and was quarantined into a
    /// `degraded` reply. Deterministic under a seeded `ServeFaultPlan`.
    ServeDegraded,
    /// Requests cut short by their deadline budget into a `partial`
    /// reply. Timing-dependent (wall-clock budget).
    ServeDeadlineExpired,
    /// Request payloads rejected with a line-numbered `error` reply
    /// (bad framing, bad UTF-8, parse failures).
    ServeFrameErrors,
    /// Verdict-cache lookups answered from the cache. Deterministic for
    /// a fixed request order; `hits + misses` equals total lookups in
    /// every schedule.
    ServeCacheHits,
    /// Verdict-cache lookups that recomputed via `contains_with`.
    ServeCacheMisses,
    /// Verdict-cache entries evicted to hold the capacity bound.
    ServeCacheEvictions,
    /// Connections the server accepted over its lifetime.
    ServeConnections,
    /// Candidate-row membership probes made by `OnlineSession::reveal`
    /// (one per observer extension tested against the model).
    OnlineProbes,
    /// Full-DAG clones taken by `Computation::extend`/`augment` — the
    /// quadratic path the in-place `Computation::push` avoids.
    DagClones,
    /// Nodes revealed to the streaming (`ccmm watch`) checker.
    WatchReveals,
    /// Sampled prefixes where the streaming verdict disagreed with the
    /// batch checker (must stay 0).
    WatchDivergences,
    /// Request pairs the serve handler canonicalised into a cache key:
    /// one per `check`/`models` request that passed its first deadline
    /// poll (pairs above the canonicalisation cap build their literal
    /// key, and count too). At most `serve_requests`; deterministic for
    /// a fixed request stream without deadlines.
    ServeCanonicalisations,
}

/// Number of distinct counters.
pub const NUM_COUNTERS: usize = 45;

impl Counter {
    /// Every counter, in snapshot order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::PosetsScanned,
        Counter::LabellingsScanned,
        Counter::PairsChecked,
        Counter::PhiChecksSc,
        Counter::PhiChecksLc,
        Counter::PhiChecksNn,
        Counter::PhiChecksNw,
        Counter::PhiChecksWn,
        Counter::PhiChecksWw,
        Counter::PhiChecksAny,
        Counter::ScMemoHits,
        Counter::ScMemoMisses,
        Counter::ScratchReuse,
        Counter::WorklistPushes,
        Counter::WorklistPops,
        Counter::Quarantines,
        Counter::CkptRecords,
        Counter::DeadlinePolls,
        Counter::OnlineReveals,
        Counter::OnlineJams,
        Counter::OracleChecks,
        Counter::ConformanceChecks,
        Counter::LaneWords,
        Counter::LaneSlots,
        Counter::LaneEarlyExits,
        Counter::LaneFixpointWords,
        Counter::LaneDeletionsMasked,
        Counter::LaneSurvivorPop,
        Counter::StealAttempts,
        Counter::PerturbInjected,
        Counter::ServeRequests,
        Counter::ServeServed,
        Counter::ServeShed,
        Counter::ServeDegraded,
        Counter::ServeDeadlineExpired,
        Counter::ServeFrameErrors,
        Counter::ServeCacheHits,
        Counter::ServeCacheMisses,
        Counter::ServeCacheEvictions,
        Counter::ServeConnections,
        Counter::OnlineProbes,
        Counter::DagClones,
        Counter::WatchReveals,
        Counter::WatchDivergences,
        Counter::ServeCanonicalisations,
    ];

    /// The counter's stable snake_case name, used as its key in metrics
    /// files.
    pub fn name(self) -> &'static str {
        match self {
            Counter::PosetsScanned => "posets_scanned",
            Counter::LabellingsScanned => "labellings_scanned",
            Counter::PairsChecked => "pairs_checked",
            Counter::PhiChecksSc => "phi_checks_sc",
            Counter::PhiChecksLc => "phi_checks_lc",
            Counter::PhiChecksNn => "phi_checks_nn",
            Counter::PhiChecksNw => "phi_checks_nw",
            Counter::PhiChecksWn => "phi_checks_wn",
            Counter::PhiChecksWw => "phi_checks_ww",
            Counter::PhiChecksAny => "phi_checks_any",
            Counter::ScMemoHits => "sc_memo_hits",
            Counter::ScMemoMisses => "sc_memo_misses",
            Counter::ScratchReuse => "scratch_reuse",
            Counter::WorklistPushes => "worklist_pushes",
            Counter::WorklistPops => "worklist_pops",
            Counter::Quarantines => "quarantines",
            Counter::CkptRecords => "ckpt_records",
            Counter::DeadlinePolls => "deadline_polls",
            Counter::OnlineReveals => "online_reveals",
            Counter::OnlineJams => "online_jams",
            Counter::OracleChecks => "oracle_checks",
            Counter::ConformanceChecks => "conformance_checks",
            Counter::LaneWords => "lane_words",
            Counter::LaneSlots => "lane_slots",
            Counter::LaneEarlyExits => "lane_early_exits",
            Counter::LaneFixpointWords => "lane_fixpoint_words",
            Counter::LaneDeletionsMasked => "lane_deletions_masked",
            Counter::LaneSurvivorPop => "lane_survivor_pop",
            Counter::StealAttempts => "steal_attempts",
            Counter::PerturbInjected => "perturb_injected",
            Counter::ServeRequests => "serve_requests",
            Counter::ServeServed => "serve_served",
            Counter::ServeShed => "serve_shed",
            Counter::ServeDegraded => "serve_degraded",
            Counter::ServeDeadlineExpired => "serve_deadline_expired",
            Counter::ServeFrameErrors => "serve_frame_errors",
            Counter::ServeCacheHits => "serve_cache_hits",
            Counter::ServeCacheMisses => "serve_cache_misses",
            Counter::ServeCacheEvictions => "serve_cache_evictions",
            Counter::ServeConnections => "serve_connections",
            Counter::OnlineProbes => "online_probes",
            Counter::DagClones => "dag_clones",
            Counter::WatchReveals => "watch_reveals",
            Counter::WatchDivergences => "watch_divergences",
            Counter::ServeCanonicalisations => "serve_canonicalisations",
        }
    }
}

/// One completed span: a named interval on the process-local monotonic
/// clock, tagged with the recording thread's telemetry id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (e.g. `sweep/memberships`).
    pub name: &'static str,
    /// Telemetry id of the thread that recorded the span.
    pub thread: u64,
    /// Start, microseconds since the telemetry epoch.
    pub start_us: u64,
    /// End, microseconds since the telemetry epoch.
    pub end_us: u64,
}

/// Master switch for counter recording.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Switch for span recording (usually tied to `--trace`).
static EVENTS: AtomicBool = AtomicBool::new(false);
/// Switch for the stderr progress heartbeat (`--progress`).
static PROGRESS: AtomicBool = AtomicBool::new(false);
/// Monotonic timestamp (µs) of the last heartbeat actually printed.
static PROGRESS_LAST_US: AtomicU64 = AtomicU64::new(0);
/// Monotonic timestamp (µs) when the current progress phase started.
static PROGRESS_START_US: AtomicU64 = AtomicU64::new(0);
/// Next telemetry thread id.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// Minimum interval between progress heartbeats.
const PROGRESS_INTERVAL_US: u64 = 500_000;

/// Per-thread counter sink: one atomic cell per [`Counter`].
struct Sink {
    cells: [AtomicU64; NUM_COUNTERS],
}

impl Sink {
    fn new() -> Self {
        Sink { cells: std::array::from_fn(|_| AtomicU64::new(0)) }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Sink>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Sink>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn events() -> &'static Mutex<Vec<SpanEvent>> {
    static EVENTS_BUF: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
    EVENTS_BUF.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: (Arc<Sink>, u64) = {
        let sink = Arc::new(Sink::new());
        registry().lock().expect("telemetry registry poisoned").push(Arc::clone(&sink));
        (sink, NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed))
    };
}

/// Microseconds since the process-local telemetry epoch (the first call
/// to any timestamped hook). Monotonic, never wall-clock.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Turns counter recording on or off. Counters accumulated so far are
/// kept; use [`snapshot_and_reset`] to read and clear them.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether counter recording is currently on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off.
pub fn set_events(on: bool) {
    EVENTS.store(on, Ordering::Relaxed);
}

/// Turns the stderr progress heartbeat on or off, resetting its ETA
/// clock.
pub fn set_progress(on: bool) {
    let now = now_us();
    PROGRESS_START_US.store(now, Ordering::Relaxed);
    PROGRESS_LAST_US.store(0, Ordering::Relaxed);
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Adds `n` to counter `c` in this thread's sink. A relaxed load and a
/// branch when telemetry is off; a no-op at compile time without the
/// `telemetry` feature.
#[inline]
pub fn count(c: Counter, n: u64) {
    #[cfg(feature = "telemetry")]
    if ENABLED.load(Ordering::Relaxed) {
        LOCAL.with(|(sink, _)| sink.cells[c as usize].fetch_add(n, Ordering::Relaxed));
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (c, n);
}

/// Sums all per-thread sinks into one `[u64; NUM_COUNTERS]` snapshot
/// (indexed like [`Counter::ALL`]) and zeroes them, so successive phases
/// of one run get disjoint snapshots. Summation makes the merge
/// independent of thread scheduling. The sink of a thread that has
/// exited (the registry holds its last reference) is folded in one last
/// time and dropped, so a process that keeps spawning counting threads
/// (scoped sweep workers, one thread per served connection) keeps a
/// registry as large as its live threads.
pub fn snapshot_and_reset() -> [u64; NUM_COUNTERS] {
    let mut out = [0u64; NUM_COUNTERS];
    registry().lock().expect("telemetry registry poisoned").retain(|sink| {
        // Read before the swap: a dead thread can no longer count, so
        // the swap below then takes everything it counted.
        let live = Arc::strong_count(sink) > 1;
        for (slot, cell) in out.iter_mut().zip(&sink.cells) {
            *slot += cell.swap(0, Ordering::Relaxed);
        }
        live
    });
    out
}

/// Number of per-thread counter sinks currently registered: every
/// thread that has counted or opened a span since the last
/// [`snapshot_and_reset`], plus every live thread that ever did.
pub fn registered_sinks() -> usize {
    registry().lock().expect("telemetry registry poisoned").len()
}

/// An in-flight span; records a [`SpanEvent`] when dropped. Obtained
/// from [`span`]; inert (and allocation-free) when span recording is
/// off.
pub struct SpanGuard {
    open: Option<(&'static str, u64, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, thread, start_us)) = self.open.take() {
            let ev = SpanEvent { name, thread, start_us, end_us: now_us() };
            events().lock().expect("telemetry event buffer poisoned").push(ev);
        }
    }
}

/// Opens a named span covering the guard's lifetime. When span recording
/// is off (or the `telemetry` feature is compiled out) the guard is
/// inert.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    #[cfg(feature = "telemetry")]
    if EVENTS.load(Ordering::Relaxed) {
        let thread = LOCAL.with(|(_, id)| *id);
        return SpanGuard { open: Some((name, thread, now_us())) };
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = name;
    SpanGuard { open: None }
}

/// Drains every recorded span event, oldest first.
pub fn drain_events() -> Vec<SpanEvent> {
    std::mem::take(&mut *events().lock().expect("telemetry event buffer poisoned"))
}

/// Progress heartbeat hook, called by the supervisor after each task
/// commit. Rate-limited to one stderr line per half second; a no-op
/// unless [`set_progress`] is on. ETA extrapolates the phase's elapsed
/// time over the remaining tasks.
#[inline]
pub fn progress_tick(done: usize, total: usize, quarantined: usize) {
    #[cfg(feature = "telemetry")]
    if PROGRESS.load(Ordering::Relaxed) {
        progress_tick_slow(done, total, quarantined);
    }
    #[cfg(not(feature = "telemetry"))]
    let _ = (done, total, quarantined);
}

#[cfg(feature = "telemetry")]
fn progress_tick_slow(done: usize, total: usize, quarantined: usize) {
    let now = now_us();
    let last = PROGRESS_LAST_US.load(Ordering::Relaxed);
    let due = last == 0 || now.saturating_sub(last) >= PROGRESS_INTERVAL_US;
    if !due
        || PROGRESS_LAST_US
            .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
    {
        return;
    }
    let start = PROGRESS_START_US.load(Ordering::Relaxed);
    let elapsed_s = now.saturating_sub(start) as f64 / 1e6;
    let eta = if done > 0 && total >= done {
        format!("{:.1}s", elapsed_s * (total - done) as f64 / done as f64)
    } else {
        "?".to_string()
    };
    let pct = if total > 0 { 100.0 * done as f64 / total as f64 } else { 100.0 };
    eprintln!(
        "progress: {done}/{total} tasks ({pct:.1}%), elapsed {elapsed_s:.1}s, eta {eta}, {quarantined} quarantined"
    );
}
