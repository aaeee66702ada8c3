//! The `ccmm watch` driver: on-the-fly LC/SC checking of harvested Cilk
//! traces through the streaming BACKER executor.
//!
//! Where `ccmm backer` densifies a computation (Θ(n²) reachability, all
//! locations probed per node) and checks membership post-mortem, `watch`
//! is the race-detector-style path for million-node traces: the trace is
//! built once by the Cilk builder ([`RawTrace`]), executed node-at-a-time
//! by [`StreamRunner`] (occupancy-bounded caches, deterministic
//! block-cyclic schedule), and every access is judged *as it commits* by
//! [`StreamChecker`] against the SP-order oracle and per-location
//! last-writer indices — O(degree)-ish per reveal, no transitive closure,
//! no dense observer matrix.
//!
//! The per-access verdicts decide membership of the completed pair
//! `(C, Φ̂)` (streamed observations completed by the commit-order
//! last-writer function; see `ccmm_core::stream` for the exactness
//! argument). For the race-free programs harvested here the streaming
//! verdicts are *provably identical* to the batch checkers, and the loop
//! keeps itself honest: every `sample_every`-th commit inside the first
//! `sample_cap` nodes, the prefix is densified and handed to the exact
//! `Sc`/`Lc` checkers; any disagreement is a **divergence** (counted,
//! telemetered, and fatal to [`WatchReport::passed`]). `sample_cap`
//! exists because `Sc` is the paper's NP-complete checker — prefixes stay
//! small while the stream runs to millions.
//!
//! Supervision is the §8 contract shared with `ccmm sweep` and
//! `ccmm stress`: a deadline turns the run Partial with a node
//! [`Frontier`], progress is journalled through the shared [`Journal`]
//! (fingerprint-pinned, crash-safe; a failed append degrades the run),
//! and a panicking conformance sample goes through [`retry_once`] and
//! is then quarantined without stopping the stream. Resume is
//! *replay-based*: the runner and checker are deterministic per
//! config, so a resumed run re-executes to the journalled position with
//! sampling disabled, asserts the violation counters match the snapshot
//! bit-for-bit, and only then continues fresh work — no protocol state
//! ever needs serialising.

use ccmm_backer::{BackerConfig, FaultInjection, Stats, StreamRunner};
use ccmm_cilk::{fib_trace, matmul_trace, stencil_trace, RawTrace};
use ccmm_core::fault::FaultPlan;
use ccmm_core::last_writer::last_writer_function;
use ccmm_core::model::CheckScratch;
use ccmm_core::sweep::supervisor::{retry_once, Frontier, Journal, Quarantined, SweepStatus};
use ccmm_core::{ckpt, telemetry, Computation, Lc, MemoryModel, Sc, StreamChecker, StreamVerdicts};
use ccmm_dag::NodeId;
use std::time::{Duration, Instant};

/// Parses a trace workload spec: `fib:N`, `matmul:N` (N a power of two),
/// or `stencil:W,T`. These are the determinate (race-free) Cilk programs
/// whose streaming verdicts are exact — see the module docs.
pub fn parse_trace_workload(spec: &str) -> Result<RawTrace, String> {
    let usage = || format!("bad workload `{spec}` (expected fib:N | matmul:N | stencil:W,T)");
    let (name, rest) = spec.split_once(':').ok_or_else(usage)?;
    match name {
        "fib" => {
            let n: u32 = rest.parse().map_err(|_| usage())?;
            if n > 32 {
                return Err(format!("fib:{n} would build a >100M-node trace (max 32)"));
            }
            Ok(fib_trace(n))
        }
        "matmul" => {
            let n: usize = rest.parse().map_err(|_| usage())?;
            if n == 0 || !n.is_power_of_two() || n > 128 {
                return Err(format!("matmul:{n}: side must be a power of two in 1..=128"));
            }
            Ok(matmul_trace(n))
        }
        "stencil" => {
            let (w, t) = rest.split_once(',').ok_or_else(usage)?;
            let w: usize = w.parse().map_err(|_| usage())?;
            let t: usize = t.parse().map_err(|_| usage())?;
            if w == 0 || t == 0 || w.checked_mul(t).is_none_or(|n| n > 1 << 27) {
                return Err(format!("stencil:{w},{t}: need W,T ≥ 1 and W·T ≤ 2^27"));
            }
            Ok(stencil_trace(w, t))
        }
        _ => Err(usage()),
    }
}

/// Configuration for one watch run.
#[derive(Clone, Debug)]
pub struct WatchConfig {
    /// Workload spec (`fib:N` | `matmul:N` | `stencil:W,T`) — kept for
    /// the fingerprint and report labels.
    pub workload: String,
    /// Simulated BACKER processors.
    pub procs: usize,
    /// Cache lines per processor (occupancy bound of each BACKER cache).
    pub cache_lines: usize,
    /// Block size of the block-cyclic node→processor assignment.
    pub block: usize,
    /// Protocol fault switches (a faulted run is *expected* to leave LC).
    pub faults: FaultInjection,
    /// Wall-clock budget; exceeded ⇒ Partial with a resume frontier.
    pub deadline: Option<Duration>,
    /// Conformance-sample every this many commits (0 disables sampling).
    pub sample_every: usize,
    /// Only prefixes up to this length are sampled — the batch `Sc`
    /// checker is NP-complete, so the dense cross-check must stay small.
    pub sample_cap: usize,
}

impl WatchConfig {
    /// Defaults: 4 processors, 16-line caches, block 16, no faults,
    /// sample every 8th commit over the first 24 nodes.
    pub fn new(workload: impl Into<String>) -> Self {
        WatchConfig {
            workload: workload.into(),
            procs: 4,
            cache_lines: 16,
            block: 16,
            faults: FaultInjection::NONE,
            deadline: None,
            sample_every: 8,
            sample_cap: 24,
        }
    }

    /// The checkpoint fingerprint: pins everything that makes the
    /// replay-based resume deterministic.
    pub fn fingerprint(&self) -> String {
        format!(
            "ccmm-watch-v1 workload={} procs={} cache_lines={} block={} skip_flush={} \
             skip_reconcile={} sample_every={} sample_cap={}",
            self.workload,
            self.procs,
            self.cache_lines,
            self.block,
            self.faults.skip_flush,
            self.faults.skip_reconcile,
            self.sample_every,
            self.sample_cap
        )
    }
}

/// The journalled state of an interrupted watch: where the stream
/// stopped plus every deterministic counter. Protocol state (caches,
/// main memory, last-writer indices) is deliberately absent — a resume
/// replays to `position` and re-derives it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WatchSnapshot {
    /// Nodes committed (the stream resumes at this index).
    pub position: usize,
    /// Validity violations seen in the prefix.
    pub validity_violations: u64,
    /// Streaming-SC violations seen in the prefix.
    pub sc_violations: u64,
    /// Streaming-LC violations seen in the prefix.
    pub lc_violations: u64,
    /// Conformance samples already taken.
    pub samples: u64,
    /// Streaming-vs-batch divergences already seen.
    pub divergences: u64,
}

/// Encodes a checkpoint payload (six little-endian u64s).
fn encode_snapshot(s: &WatchSnapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(48);
    ckpt::put_u64(&mut out, s.position as u64);
    ckpt::put_u64(&mut out, s.validity_violations);
    ckpt::put_u64(&mut out, s.sc_violations);
    ckpt::put_u64(&mut out, s.lc_violations);
    ckpt::put_u64(&mut out, s.samples);
    ckpt::put_u64(&mut out, s.divergences);
    out
}

/// Decodes a checkpoint payload (inverse of the journal encoding).
pub fn decode_snapshot(mut bytes: &[u8]) -> Option<WatchSnapshot> {
    let s = WatchSnapshot {
        position: ckpt::get_u64(&mut bytes)? as usize,
        validity_violations: ckpt::get_u64(&mut bytes)?,
        sc_violations: ckpt::get_u64(&mut bytes)?,
        lc_violations: ckpt::get_u64(&mut bytes)?,
        samples: ckpt::get_u64(&mut bytes)?,
        divergences: ckpt::get_u64(&mut bytes)?,
    };
    bytes.is_empty().then_some(s)
}

/// The outcome of a watch run.
#[derive(Debug)]
pub struct WatchReport {
    /// Supervision verdict (Complete / Degraded / Partial).
    pub status: SweepStatus,
    /// Workload label from the config.
    pub workload: String,
    /// Trace length in nodes.
    pub nodes_total: usize,
    /// Committed node indices (always the prefix `0..position`).
    pub frontier: Frontier,
    /// Cumulative streaming verdicts over the committed prefix.
    pub verdicts: StreamVerdicts,
    /// Conformance samples taken (including resumed-from ones).
    pub samples: u64,
    /// Streaming-vs-batch verdict disagreements — must be 0.
    pub divergences: u64,
    /// Prefix length of the first divergence, if any.
    pub first_divergence: Option<usize>,
    /// Conformance samples quarantined after panicking twice
    /// (`task_idx` is the prefix length that was being sampled).
    pub quarantined: Vec<Quarantined>,
    /// Merged protocol counters from the streaming runner.
    pub stats: Stats,
    /// Wall time of this run (excludes any resumed-from run).
    pub wall: Duration,
    /// Nodes committed by *this* run (excludes the replayed prefix).
    pub fresh_reveals: u64,
    /// Fresh reveals per second of wall time.
    pub reveals_per_sec: f64,
    /// Peak resident set (VmHWM) in KiB; 0 where /proc is unavailable.
    pub peak_rss_kb: u64,
    /// A checkpoint-append failure, if journalling stopped.
    pub ckpt_error: Option<String>,
}

impl WatchReport {
    /// Whether the stream completed, the execution is valid and LC, and
    /// every conformance sample agreed with the batch checkers. (SC is
    /// reported but not required — BACKER guarantees LC, not SC.)
    pub fn passed(&self) -> bool {
        self.status == SweepStatus::Complete
            && self.verdicts.valid
            && self.verdicts.lc
            && self.divergences == 0
    }

    /// The resumable snapshot equivalent to this report's end state.
    pub fn snapshot(&self) -> WatchSnapshot {
        WatchSnapshot {
            position: self.frontier.len(),
            validity_violations: self.verdicts.validity_violations,
            sc_violations: self.verdicts.sc_violations,
            lc_violations: self.verdicts.lc_violations,
            samples: self.samples,
            divergences: self.divergences,
        }
    }
}

/// Peak resident set size (VmHWM) in KiB, or 0 where unavailable.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Densifies the first `k` nodes of `trace`, installs the streamed
/// observations over the last-writer completion, and runs the exact
/// batch checkers. Returns `(valid, sc, lc)` for the completed pair —
/// precisely what the streaming verdicts claim to decide.
fn batch_prefix_verdicts(trace: &RawTrace, obs: &[Option<NodeId>], k: usize) -> (bool, bool, bool) {
    let mut edges = Vec::new();
    for v in 0..k {
        for &p in trace.dag.predecessors(NodeId::new(v)) {
            edges.push((p.index(), v));
        }
    }
    let c = Computation::from_edges(k, &edges, trace.ops[..k].to_vec());
    let order: Vec<NodeId> = (0..k).map(NodeId::new).collect();
    // Φ̂ = commit-order last-writer completion, overridden at every
    // accessed entry by what the protocol actually delivered.
    let mut phi = last_writer_function(&c, &order);
    for (v, &o) in obs.iter().enumerate().take(k) {
        if let Some(l) = trace.ops[v].location() {
            phi.set(l, NodeId::new(v), o);
        }
    }
    let valid = phi.is_valid_for(&c);
    let mut scratch = CheckScratch::new();
    let sc = valid && Sc.contains_with(&c, &phi, &mut scratch);
    let lc = valid && Lc.contains_with(&c, &phi, &mut scratch);
    (valid, sc, lc)
}

/// Runs the watch loop under supervision. See the module docs for the
/// full contract; `resume` must come from a journal whose fingerprint
/// matched this config, and the function fails (rather than silently
/// mis-resuming) if the deterministic replay disagrees with the
/// snapshot's counters. `ckpt` is `(journal, every-N-commits)`; `fault`
/// drives the journal's injected faults (`ccmm watch` passes
/// [`FaultPlan::none`]).
pub fn run_supervised(
    cfg: &WatchConfig,
    trace: &RawTrace,
    fault: &FaultPlan,
    resume: Option<WatchSnapshot>,
    ckpt: Option<(&mut ckpt::CkptWriter, usize)>,
) -> Result<WatchReport, String> {
    let total = trace.node_count();
    let snap = resume.unwrap_or_default();
    if snap.position > total {
        return Err(format!("snapshot position {} exceeds trace length {total}", snap.position));
    }
    let sp = trace.sp_order();
    let mut checker = StreamChecker::new(sp, trace.num_locations);
    let backer = BackerConfig::with_processors(cfg.procs.max(1))
        .cache_capacity(cfg.cache_lines.max(1))
        .faults(cfg.faults);
    let mut runner = StreamRunner::new(trace.num_locations, &backer, cfg.block);

    let mut obs_buf: Vec<Option<NodeId>> = Vec::with_capacity(cfg.sample_cap.min(total));
    let mut samples = snap.samples;
    let mut divergences = snap.divergences;
    let mut first_divergence = None;
    let mut quarantined: Vec<Quarantined> = Vec::new();
    let mut journal = Journal::new(ckpt, fault);
    let mut deadline_hit = false;
    let start = Instant::now();
    // The journalled state after commit `k`.
    let snapshot = |k: usize, checker: &StreamChecker, samples, divergences| {
        let v = checker.verdicts();
        encode_snapshot(&WatchSnapshot {
            position: k,
            validity_violations: v.validity_violations,
            sc_violations: v.sc_violations,
            lc_violations: v.lc_violations,
            samples,
            divergences,
        })
    };

    while let Some((u, op, observed)) = runner.step(&trace.dag, &trace.ops) {
        checker.commit(u, op, observed);
        let k = u.index() + 1;
        if u.index() < cfg.sample_cap {
            obs_buf.push(observed);
        }

        // Replay segment of a resumed run: no sampling, no journalling,
        // no deadline — just re-derive the protocol + checker state.
        if k <= snap.position {
            if k == snap.position {
                let v = checker.verdicts();
                if (v.validity_violations, v.sc_violations, v.lc_violations)
                    != (snap.validity_violations, snap.sc_violations, snap.lc_violations)
                {
                    return Err(format!(
                        "resume replay diverged from snapshot at node {k}: replay counted \
                         ({}, {}, {}) violations, journal recorded ({}, {}, {})",
                        v.validity_violations,
                        v.sc_violations,
                        v.lc_violations,
                        snap.validity_violations,
                        snap.sc_violations,
                        snap.lc_violations
                    ));
                }
            }
            continue;
        }

        // Conformance sample: densify the prefix and cross-check the
        // streaming verdicts against the exact batch checkers.
        if cfg.sample_every > 0 && k <= cfg.sample_cap && k.is_multiple_of(cfg.sample_every) {
            let sv = checker.verdicts();
            let streamed = (sv.valid, sv.sc, sv.lc);
            let batch = retry_once(&mut (), |_| {}, |_| batch_prefix_verdicts(trace, &obs_buf, k));
            match batch {
                Ok(batch) => {
                    samples += 1;
                    if streamed != batch {
                        divergences += 1;
                        telemetry::count(telemetry::Counter::WatchDivergences, 1);
                        if first_divergence.is_none() {
                            first_divergence = Some(k);
                        }
                    }
                }
                Err(payload) => quarantined.push(Quarantined { task_idx: k, size: k, payload }),
            }
        }

        // Journal a snapshot every `every` fresh commits.
        if journal.tick(|| snapshot(k, &checker, samples, divergences)) {
            break;
        }

        // Deadline + progress, amortised to every 1024 commits.
        if k & 1023 == 0 {
            telemetry::progress_tick(k, total, quarantined.len());
            if cfg.deadline.is_some_and(|d| start.elapsed() >= d) {
                deadline_hit = true;
                break;
            }
        }
    }

    let position = runner.position();
    let wall = start.elapsed();

    // Final snapshot so a Partial run resumes at its exact frontier
    // rather than the last periodic record.
    if position > snap.position {
        journal.finish(|| snapshot(position, &checker, samples, divergences));
    }
    let mut frontier = Frontier::new();
    for i in 0..position {
        frontier.insert(i);
    }
    let fresh = (position - snap.position) as u64;
    Ok(WatchReport {
        status: journal.status(deadline_hit, quarantined.len()),
        ckpt_error: journal.error().map(str::to_string),
        workload: cfg.workload.clone(),
        nodes_total: total,
        frontier,
        verdicts: checker.verdicts(),
        samples,
        divergences,
        first_divergence,
        quarantined,
        stats: runner.stats(),
        wall,
        fresh_reveals: fresh,
        reveals_per_sec: fresh as f64 / wall.as_secs_f64().max(1e-9),
        peak_rss_kb: peak_rss_kb(),
    })
}

/// Convenience entry: no resume, no journal.
pub fn run(cfg: &WatchConfig, trace: &RawTrace) -> Result<WatchReport, String> {
    run_supervised(cfg, trace, &FaultPlan::none(), None, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_specs_parse_and_reject() {
        assert!(parse_trace_workload("fib:6").is_ok());
        assert!(parse_trace_workload("matmul:4").is_ok());
        assert!(parse_trace_workload("stencil:4,3").is_ok());
        for bad in ["fib", "fib:x", "fib:40", "matmul:3", "matmul:0", "stencil:4", "mystery:1"] {
            assert!(parse_trace_workload(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn clean_run_is_lc_with_zero_divergences() {
        for spec in ["fib:8", "matmul:4", "stencil:4,3"] {
            let trace = parse_trace_workload(spec).expect("spec");
            let mut cfg = WatchConfig::new(spec);
            cfg.cache_lines = 2; // force eviction traffic through the protocol
            let r = run(&cfg, &trace).expect("run");
            assert!(r.passed(), "{spec}: {r:?}");
            assert!(r.verdicts.sc, "{spec}: race-free correct runs are also SC");
            assert_eq!(r.frontier.len(), trace.node_count());
            assert!(r.samples > 0, "{spec}: sampling must have fired");
            assert_eq!(r.divergences, 0);
        }
    }

    #[test]
    fn faulted_run_violates_lc_and_batch_agrees() {
        let trace = parse_trace_workload("fib:8").expect("spec");
        let mut cfg = WatchConfig::new("fib:8");
        cfg.faults = FaultInjection::SKIP_RECONCILE;
        cfg.sample_every = 2; // sample densely so a violating prefix is cross-checked
        let r = run(&cfg, &trace).expect("run");
        assert!(!r.verdicts.lc, "skip-reconcile must leave LC");
        assert!(!r.passed());
        // The race-free exactness argument in ccmm_core::stream says the
        // batch checkers reach the same verdict on every sampled prefix.
        assert_eq!(r.divergences, 0, "first divergence at {:?}", r.first_divergence);
        assert!(r.samples > 0);
    }

    #[test]
    fn deadline_partial_resumes_to_identical_verdicts() {
        let spec = "fib:12";
        let trace = parse_trace_workload(spec).expect("spec");
        let mut cfg = WatchConfig::new(spec);
        cfg.deadline = Some(Duration::ZERO);
        let partial = run(&cfg, &trace).expect("partial run");
        assert_eq!(partial.status, SweepStatus::Partial);
        let stopped = partial.frontier.len();
        assert!(stopped > 0 && stopped < trace.node_count(), "stopped at {stopped}");
        assert_eq!(partial.frontier.ranges(), &[(0, stopped)]);

        cfg.deadline = None;
        let resumed =
            run_supervised(&cfg, &trace, &FaultPlan::none(), Some(partial.snapshot()), None)
                .expect("resumed run");
        assert_eq!(resumed.status, SweepStatus::Complete);
        let fresh = run(&cfg, &trace).expect("uninterrupted run");
        assert_eq!(resumed.verdicts, fresh.verdicts, "resume must land on identical verdicts");
        assert_eq!(resumed.fresh_reveals as usize, trace.node_count() - stopped);
    }

    #[test]
    fn journal_failure_degrades_but_keeps_every_verdict() {
        // A failed append stops journalling and degrades the run, but the
        // stream itself must be untouched: verdicts, samples and protocol
        // counters identical to an unjournalled run.
        let trace = parse_trace_workload("fib:10").expect("spec");
        let cfg = WatchConfig::new("fib:10");
        let clean = run(&cfg, &trace).expect("clean run");
        assert_eq!(clean.status, SweepStatus::Complete);
        let path =
            std::env::temp_dir().join(format!("ccmm-watch-journal-fault-{}", std::process::id()));
        let mut writer = ckpt::CkptWriter::create(&path, &cfg.fingerprint()).expect("journal");
        let fault = FaultPlan::none().io_error_at_record(1);
        let r = run_supervised(&cfg, &trace, &fault, None, Some((&mut writer, 64))).expect("run");
        assert_eq!(r.status, SweepStatus::Degraded);
        let err = r.ckpt_error.as_deref().expect("the I/O error is surfaced");
        assert!(err.contains("injected fault: io error at ckpt record 1"), "{err}");
        assert_eq!(r.verdicts, clean.verdicts);
        assert_eq!(r.stats, clean.stats);
        assert_eq!((r.samples, r.divergences), (clean.samples, clean.divergences));
        assert_eq!(r.frontier, clean.frontier);
        drop(writer);
        let journal = ckpt::Checkpoint::load(&path).expect("journal still loads");
        assert!(journal.snapshots.is_empty(), "nothing is appended after the failed record");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_names_both_switches() {
        let mut cfg = WatchConfig::new("matmul:8");
        cfg.faults = FaultInjection::from_name("skip-reconcile").unwrap();
        assert_eq!(
            cfg.fingerprint(),
            "ccmm-watch-v1 workload=matmul:8 procs=4 cache_lines=16 block=16 \
             skip_flush=false skip_reconcile=true sample_every=8 sample_cap=24"
        );
    }

    #[test]
    fn snapshot_codec_round_trips() {
        let s = WatchSnapshot {
            position: 12345,
            validity_violations: 1,
            sc_violations: 2,
            lc_violations: 3,
            samples: 4,
            divergences: 5,
        };
        let bytes = encode_snapshot(&s);
        assert_eq!(decode_snapshot(&bytes), Some(s));
        assert_eq!(decode_snapshot(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn corrupt_snapshot_counters_fail_the_replay_check() {
        let trace = parse_trace_workload("fib:8").expect("spec");
        let cfg = WatchConfig::new("fib:8");
        let full = run(&cfg, &trace).expect("run");
        let mut snap = full.snapshot();
        snap.position = trace.node_count() / 2;
        snap.lc_violations = 99; // a clean run counted zero
        let err = run_supervised(&cfg, &trace, &FaultPlan::none(), Some(snap), None).unwrap_err();
        assert!(err.contains("diverged"), "{err}");
    }
}
