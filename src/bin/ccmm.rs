//! `ccmm` — command-line front end to the computation-centric memory
//! model toolkit.
//!
//! ```text
//! ccmm models <computation-file> <observer-file>   memberships of a pair
//! ccmm check --model <m> <comp> <obs>              one membership, exit code
//! ccmm witness fig2|fig3|fig4                      the paper's figures
//! ccmm litmus [name]                               outcome tables per model
//! ccmm backer --workload fib:8 [--procs P] [--cache N] [--page B] [--runs K]
//! ccmm lattice [--nodes N]                         Figure 1 relation matrix
//! ccmm sweep [--bound N] [--canonical]             exhaustive verification
//! ccmm conformance [--nodes N] [--self-test]       fast checkers vs oracles
//! ccmm serve [--addr A] [--fault SPEC]             membership query daemon
//! ccmm query --addr A --models <comp> <obs>        one query with retries
//! ccmm dot <computation-file>                      Graphviz export
//! ```
//!
//! Files use the text format of `ccmm_core::parse`; `-` reads stdin.

use ccmm::core::ckpt::{Checkpoint, CkptWriter};
use ccmm::core::parse::{parse_computation, parse_observer, render_observer};
use ccmm::core::sweep::supervisor::{Frontier, Quarantined, SweepStatus};
use ccmm::core::{Computation, Model};
use std::io::Read;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).map_err(|e| format!("reading stdin: {e}"))?;
        Ok(s)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn model_by_name(name: &str) -> Result<Model, String> {
    match name.to_ascii_lowercase().as_str() {
        "sc" => Ok(Model::Sc),
        "lc" => Ok(Model::Lc),
        "nn" => Ok(Model::Nn),
        "nw" => Ok(Model::Nw),
        "wn" => Ok(Model::Wn),
        "ww" => Ok(Model::Ww),
        "any" => Ok(Model::Any),
        other => Err(format!("unknown model `{other}` (sc|lc|nn|nw|wn|ww|any)")),
    }
}

fn load_pair(
    cpath: &str,
    opath: &str,
) -> Result<(Computation, ccmm::core::ObserverFunction), String> {
    let c = parse_computation(&read_input(cpath)?).map_err(|e| e.to_string())?;
    let phi = parse_observer(&read_input(opath)?, &c).map_err(|e| e.to_string())?;
    Ok((c, phi))
}

fn cmd_models(args: &[String]) -> Result<(), String> {
    let [cpath, opath] = args else {
        return Err("usage: ccmm models <computation> <observer>".into());
    };
    let (c, phi) = load_pair(cpath, opath)?;
    println!("{c:?}");
    println!("{}", render_observer(&phi).trim_end());
    println!();
    for m in Model::ALL {
        println!("{:<4} {}", m.name(), if m.contains(&c, &phi) { "∈" } else { "∉" });
    }
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<bool, String> {
    let mut model = None;
    let mut rest = Vec::new();
    let mut args = Args::new(args);
    while let Some(a) = args.next_flag() {
        if a == "--model" {
            model = Some(model_by_name(&args.value(a)?)?);
        } else {
            rest.push(a.to_string());
        }
    }
    let model = model.ok_or("usage: ccmm check --model <m> <computation> <observer>")?;
    let [cpath, opath] = rest.as_slice() else {
        return Err("usage: ccmm check --model <m> <computation> <observer>".into());
    };
    let (c, phi) = load_pair(cpath, opath)?;
    let member = model.contains(&c, &phi);
    println!("{}: {}", model.name(), if member { "member" } else { "NOT a member" });
    // A valid pair outside a Q-dag model: say which triple (Definition 20) fails.
    if let Some((l, u, v, w)) = model.qdag_violation(&c, &phi).filter(|_| phi.is_valid_for(&c)) {
        let show = |x: Option<ccmm::dag::NodeId>| x.map_or("⊥".to_string(), |x| x.to_string());
        println!(
            "violation at {l}: (u, v, w) = ({}, {v}, {w}) observe ({}, {}, {})",
            show(u),
            show(u.and_then(|u| phi.get(l, u))),
            show(phi.get(l, v)),
            show(phi.get(l, w)),
        );
    }
    Ok(member)
}

fn cmd_witness(args: &[String]) -> Result<(), String> {
    let which = args.first().map(String::as_str).unwrap_or("fig4");
    let w = match which {
        "fig2" => ccmm::core::witness::figure2(),
        "fig3" => ccmm::core::witness::figure3(),
        "fig4" => ccmm::core::witness::figure4_prefix(),
        other => return Err(format!("unknown witness `{other}` (fig2|fig3|fig4)")),
    };
    println!("# nodes: {}", w.names.join(", "));
    print!("{}", ccmm::core::parse::render_computation(&w.computation));
    println!("---");
    print!("{}", render_observer(&w.phi));
    println!("---");
    for m in Model::ALL {
        println!("{:<4} {}", m.name(), if m.contains(&w.computation, &w.phi) { "∈" } else { "∉" });
    }
    Ok(())
}

fn cmd_litmus(args: &[String]) -> Result<(), String> {
    let filter = args.first().map(String::as_str);
    let models = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];
    for t in ccmm::core::litmus::standard_tests() {
        if filter.is_some_and(|f| !t.name.eq_ignore_ascii_case(f)) {
            continue;
        }
        println!("=== {} ===", t.name);
        println!("{}", t.note);
        for m in models {
            let outs = t.outcomes(&m);
            println!("{:<4} {:>3} outcomes", m.name(), outs.len());
        }
        println!();
    }
    Ok(())
}

fn parse_workload(spec: &str) -> Result<Computation, String> {
    let (name, arg) = spec.split_once(':').unwrap_or((spec, ""));
    let k: usize = if arg.is_empty() { 8 } else { arg.parse().map_err(|_| "bad workload size")? };
    Ok(match name {
        "fib" => ccmm::cilk::fib(k as u32).computation,
        "matmul" => ccmm::cilk::matmul(k).computation,
        "stencil" => ccmm::cilk::stencil(k, 4).computation,
        "reduce" => ccmm::cilk::reduce(k).computation,
        "mergesort" => ccmm::cilk::mergesort(k).computation,
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn cmd_backer(args: &[String]) -> Result<(), String> {
    use ccmm::backer::{sim, BackerConfig, Schedule};
    use rand::SeedableRng;
    let mut workload = "fib:8".to_string();
    let mut procs = 4usize;
    let mut cache = 16usize;
    let mut page = 1usize;
    let mut runs = 10usize;
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--workload" => workload = args.value(flag)?,
            "--procs" => procs = args.parse(flag)?,
            "--cache" => cache = args.parse(flag)?,
            "--page" => page = args.parse(flag)?,
            "--runs" => runs = args.parse(flag)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let c = parse_workload(&workload)?;
    let shape = ccmm::dag::metrics::shape(c.dag());
    println!(
        "{workload}: {} nodes, height {}, width {}, {} locations",
        shape.nodes,
        shape.height,
        shape.width,
        c.num_locations()
    );
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xCC);
    let mut report = ccmm::backer::VerifyReport::default();
    let mut stats = ccmm::backer::Stats::default();
    for _ in 0..runs {
        let s = Schedule::work_stealing(&c, procs, &mut rng);
        let cfg = BackerConfig::with_processors(procs).cache_capacity(cache);
        let r = if page > 1 { sim::run_paged(&c, &s, &cfg, page) } else { sim::run(&c, &s, &cfg) };
        report.record(ccmm::backer::verify(&c, &r.observer));
        stats.merge(&r.stats);
    }
    println!(
        "{runs} runs on {procs} procs (cache {cache}, page {page}): \
         valid {}/{}, SC {}, LC {}, NN {}, WW {}",
        report.valid, report.runs, report.sc, report.lc, report.nn, report.ww
    );
    println!(
        "traffic: {} fetches, {} reconciles, {} flushes, hit rate {:.2}",
        stats.fetches,
        stats.reconciles,
        stats.flushes,
        stats.hit_rate()
    );
    if !report.all_lc() {
        return Err("BACKER produced a non-LC execution (bug!)".into());
    }
    Ok(())
}

fn cmd_lattice(args: &[String]) -> Result<(), String> {
    use ccmm::core::sweep::supervisor::{lattice_supervised, Supervisor};
    use ccmm::core::sweep::SweepConfig;
    let mut nodes = 3usize;
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--nodes" => nodes = args.parse(flag)?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if nodes > 4 {
        return Err("--nodes > 4 is too slow for the CLI; \
             use `ccmm sweep --bound N --canonical --engine lane64`"
            .into());
    }
    let u = ccmm::core::universe::Universe::new(nodes, 1);
    let models = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];
    let cfg = SweepConfig::from_env().canonical(true);
    let rows =
        lattice_supervised(&models, &u, &cfg, &Supervisor::none()).expect_complete("lattice");
    print!("{:<4}", "");
    for b in models {
        print!("{:>4}", b.name());
    }
    println!();
    for row in rows {
        print!("{:<4}", row.name);
        for r in row.relations {
            print!("{:>4}", r.to_string());
        }
        println!();
    }
    Ok(())
}

/// Exit codes distinguishing run outcomes (see `ccmm --help`): 0
/// complete, 1 check failure, 2 usage or I/O error, 3 degraded
/// (quarantined panics or a failed journal append), 4 partial (deadline
/// hit), 70 killed by the fault plan.
mod exit {
    pub const COMPLETE: u8 = 0;
    pub const FAIL: u8 = 1;
    pub const DEGRADED: u8 = 3;
    pub const PARTIAL: u8 = 4;
    /// `ccmm query`: retries exhausted against an overloaded or
    /// draining server.
    pub const OVERLOADED: u8 = 6;
    /// `ccmm query`: no reply at all (connect/read failures on every
    /// attempt).
    pub const TRANSPORT: u8 = 7;
    pub const KILLED: u8 = 70;
}

fn status_name(s: SweepStatus) -> &'static str {
    match s {
        SweepStatus::Complete => "complete",
        SweepStatus::Degraded => "degraded",
        SweepStatus::Partial => "partial",
        SweepStatus::Killed => "killed",
    }
}

/// The exit code of a run that ended with status `s`.
fn exit_code(s: SweepStatus) -> u8 {
    match s {
        SweepStatus::Complete => exit::COMPLETE,
        SweepStatus::Degraded => exit::DEGRADED,
        SweepStatus::Partial => exit::PARTIAL,
        SweepStatus::Killed => exit::KILLED,
    }
}

fn report_quarantine(phase: &str, quarantined: &[Quarantined]) {
    for q in quarantined {
        println!(
            "quarantined: {phase} task {} (poset size {}) panicked twice: {}",
            q.task_idx, q.size, q.payload
        );
    }
}

/// Glue between the `--trace`/`--metrics`/`--progress` flags and
/// `ccmm_core::telemetry`: flips the runtime switches, collects one
/// counter snapshot per phase, and writes the output files.
///
/// Counter *values* for the memberships, lattice, and fixpoint phases are
/// bit-identical across thread counts; wall times never are (see
/// DESIGN.md §9) — which is why `wall_ms` sits beside, not inside, each
/// phase's `counters` object.
struct TelemetrySink {
    command: &'static str,
    trace: Option<String>,
    metrics: Option<String>,
    phases: Vec<(&'static str, u128, [u64; ccmm::core::telemetry::NUM_COUNTERS])>,
}

impl TelemetrySink {
    /// Arms telemetry to match the flags. Counters and span events left
    /// over from earlier in the process are discarded so the first phase
    /// starts from zero.
    fn new(
        command: &'static str,
        trace: Option<String>,
        metrics: Option<String>,
        progress: bool,
    ) -> Self {
        use ccmm::core::telemetry;
        telemetry::set_enabled(trace.is_some() || metrics.is_some() || progress);
        telemetry::set_events(trace.is_some());
        telemetry::set_progress(progress);
        let _ = telemetry::snapshot_and_reset();
        let _ = telemetry::drain_events();
        TelemetrySink { command, trace, metrics, phases: Vec::new() }
    }

    /// Closes a phase: snapshots (and zeroes) every counter under `name`,
    /// so successive phases report disjoint counts.
    fn end_phase(&mut self, name: &'static str, wall: std::time::Duration) {
        self.phases.push((name, wall.as_millis(), ccmm::core::telemetry::snapshot_and_reset()));
    }

    /// Writes the metrics JSON and trace JSONL files, if requested.
    /// Called on every exit path (complete, partial, killed) so a
    /// truncated run still reports the phases it finished. Both counter
    /// names and span names are static identifiers, so the JSON needs no
    /// string escaping.
    fn write(&self) -> Result<(), String> {
        use ccmm::core::telemetry::{drain_events, Counter};
        use std::fmt::Write as _;
        if let Some(path) = &self.metrics {
            let mut s = format!(
                "{{\"schema\":\"ccmm-metrics-v1\",\"command\":\"{}\",\"phases\":[",
                self.command
            );
            for (i, (name, wall_ms, snap)) in self.phases.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"name\":\"{name}\",\"wall_ms\":{wall_ms},\"counters\":{{");
                let mut first = true;
                for c in Counter::ALL {
                    let v = snap[c as usize];
                    if v == 0 {
                        continue;
                    }
                    if !first {
                        s.push(',');
                    }
                    first = false;
                    let _ = write!(s, "\"{}\":{v}", c.name());
                }
                s.push_str("}}");
            }
            s.push_str("]}\n");
            std::fs::write(path, s).map_err(|e| format!("writing metrics {path}: {e}"))?;
        }
        if let Some(path) = &self.trace {
            let mut s = String::new();
            for ev in drain_events() {
                let _ = writeln!(
                    s,
                    "{{\"span\":\"{}\",\"thread\":{},\"start_us\":{},\"end_us\":{}}}",
                    ev.name, ev.thread, ev.start_us, ev.end_us
                );
            }
            std::fs::write(path, s).map_err(|e| format!("writing trace {path}: {e}"))?;
        }
        Ok(())
    }
}

/// Consumes a subcommand's arguments flag by flag.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn new(args: &'a [String]) -> Self {
        Args(args.iter())
    }

    fn next_flag(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value following flag `name`.
    fn value(&mut self, name: &str) -> Result<String, String> {
        self.0.next().cloned().ok_or(format!("{name} needs a value"))
    }

    /// The value following flag `name`, parsed.
    fn parse<T: std::str::FromStr>(&mut self, name: &str) -> Result<T, String> {
        self.value(name)?.parse().map_err(|_| format!("bad {name}"))
    }
}

/// The run frame `sweep`, `stress` and `watch` share: supervision,
/// journal and telemetry flags.
struct RunFlags {
    deadline: Option<Duration>,
    /// `--fault`, uninterpreted: a `FaultPlan` spec for sweep and stress,
    /// a BACKER protocol mutation for watch.
    fault: Option<String>,
    ckpt: Option<String>,
    ckpt_every: usize,
    resume: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    progress: bool,
}

impl RunFlags {
    /// Parses `args`, handing every flag the frame does not own to
    /// `own` (which returns whether it knew the flag).
    fn parse(
        args: &[String],
        ckpt_every: usize,
        mut own: impl FnMut(&str, &mut Args) -> Result<bool, String>,
    ) -> Result<Self, String> {
        let mut run = RunFlags {
            deadline: None,
            fault: None,
            ckpt: None,
            ckpt_every,
            resume: None,
            trace: None,
            metrics: None,
            progress: false,
        };
        let mut args = Args::new(args);
        while let Some(flag) = args.next_flag() {
            match flag {
                "--deadline-secs" => {
                    let secs = args.parse(flag)?;
                    run.deadline =
                        Some(Duration::try_from_secs_f64(secs).map_err(|_| "bad --deadline-secs")?);
                }
                "--fault" => run.fault = Some(args.value(flag)?),
                "--ckpt" => run.ckpt = Some(args.value(flag)?),
                "--ckpt-every" => {
                    run.ckpt_every = args.parse(flag)?;
                    if run.ckpt_every == 0 {
                        return Err("--ckpt-every must be at least 1".into());
                    }
                }
                "--resume" => run.resume = Some(args.value(flag)?),
                "--trace" => run.trace = Some(args.value(flag)?),
                "--metrics" => run.metrics = Some(args.value(flag)?),
                "--progress" => run.progress = true,
                _ if own(flag, &mut args)? => {}
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if run.ckpt.is_some() && run.resume.is_some() {
            return Err(
                "--ckpt starts a fresh journal and --resume continues one; pass only one".into()
            );
        }
        Ok(run)
    }

    /// The `--fault` spec as a fault plan (empty without the flag).
    fn fault_plan(&self) -> Result<ccmm::core::fault::FaultPlan, String> {
        use ccmm::core::fault::FaultPlan;
        self.fault.as_deref().map_or(Ok(FaultPlan::none()), FaultPlan::from_spec)
    }

    /// The journal this run writes or continues, if any.
    fn journal(&self) -> Option<&str> {
        self.ckpt.as_deref().or(self.resume.as_deref())
    }

    fn telemetry(&self, command: &'static str) -> TelemetrySink {
        TelemetrySink::new(command, self.trace.clone(), self.metrics.clone(), self.progress)
    }
}

/// Opens a run's checkpoint journal: `create` starts a fresh one under
/// `fingerprint`; `resume` loads one, refuses a fingerprint mismatch,
/// decodes the state to resume from, and reopens it for appending.
/// `decode` returns `None` for a corrupt journal and `Some(None)` for
/// one that died before its first snapshot.
fn open_journal<T>(
    what: &str,
    create: Option<&str>,
    resume: Option<&str>,
    fingerprint: &str,
    decode: impl FnOnce(&Checkpoint) -> Option<Option<T>>,
) -> Result<(Option<CkptWriter>, Option<T>), String> {
    if let Some(path) = create {
        let writer = CkptWriter::create(Path::new(path), fingerprint)
            .map_err(|e| format!("creating {what} {path}: {e}"))?;
        return Ok((Some(writer), None));
    }
    let Some(path) = resume else { return Ok((None, None)) };
    let loaded =
        Checkpoint::load(Path::new(path)).map_err(|e| format!("loading {what} {path}: {e}"))?;
    if loaded.fingerprint != fingerprint {
        return Err(format!(
            "{what} fingerprint mismatch: journal is `{}`, this run is `{fingerprint}`",
            loaded.fingerprint
        ));
    }
    let state = decode(&loaded).ok_or_else(|| format!("corrupt {what} in {path}"))?;
    let writer = CkptWriter::append_to(Path::new(path))
        .map_err(|e| format!("reopening {what} {path}: {e}"))?;
    Ok((Some(writer), state))
}

/// An [`open_journal`] decoder that resumes from the latest snapshot.
fn latest<T>(
    decode: impl FnOnce(&[u8]) -> Option<T>,
) -> impl FnOnce(&Checkpoint) -> Option<Option<T>> {
    |ck| match ck.latest() {
        None => Some(None),
        Some(snap) => decode(snap).map(Some),
    }
}

fn warn_journal(phase: &str, error: Option<&str>) {
    if let Some(e) = error {
        eprintln!("warning: {phase}checkpoint journalling failed mid-run: {e}");
    }
}

/// What a sweep frontier's indices count: posets in the labelled
/// enumeration, which a canonical sweep's task count does not.
const POSET_INDICES: &str = "poset indices in the labelled enumeration";

/// How many frontier ranges a stop report prints before summarising.
const FRONTIER_SHOWN: usize = 8;

/// A resume frontier for a stop report: its first [`FRONTIER_SHOWN`]
/// half-open ranges, how many more there are, and what the indices
/// count (`index`).
fn frontier_text(frontier: &Frontier, index: &str) -> String {
    let ranges = frontier.ranges();
    let shown = &ranges[..ranges.len().min(FRONTIER_SHOWN)];
    let more = ranges.len() - shown.len();
    let more = if more > 0 { format!(" … {more} more range(s)") } else { String::new() };
    format!("{shown:?}{more} (ranges of {index})")
}

/// Reports a killed or deadline-stopped run — how far it got, and how to
/// resume it — and returns its exit code; `None` for any other status.
/// `done` is `(units done, units in all, what a unit is, what the
/// frontier's indices count)`.
fn report_stop(
    status: SweepStatus,
    phase: Option<&str>,
    writer: Option<&CkptWriter>,
    done: (usize, usize, &str, &str),
    frontier: &Frontier,
    run: &RunFlags,
) -> Option<u8> {
    let (done, total, unit, index) = done;
    match status {
        SweepStatus::Killed => {
            println!(
                "killed by fault plan after {} {}checkpoint record(s); resume with --resume {}",
                writer.map_or(0, CkptWriter::snapshots),
                phase.map(|p| format!("{p} ")).unwrap_or_default(),
                run.journal().unwrap_or("<journal>")
            );
            Some(exit::KILLED)
        }
        SweepStatus::Partial => {
            println!(
                "deadline hit{}: {done}/{total} {unit}; resume frontier: {}",
                phase.map(|p| format!(" during {p}")).unwrap_or_default(),
                frontier_text(frontier, index)
            );
            if let Some(path) = run.journal() {
                println!("resume with --resume {path}");
            }
            Some(exit::PARTIAL)
        }
        SweepStatus::Complete | SweepStatus::Degraded => None,
    }
}

fn cmd_sweep(args: &[String]) -> Result<u8, String> {
    use ccmm::core::constructible::lanes::{decode_masks_journal, LaneConstructible};
    use ccmm::core::sweep::supervisor::{
        check_constructible_aug_lanes_supervised, check_constructible_aug_supervised,
        decode_counts_snapshot, lattice_lanes_supervised, lattice_supervised,
        memberships_lanes_supervised, memberships_supervised, Supervisor, SweepStatus,
    };
    use ccmm::core::sweep::SweepConfig;
    use ccmm::core::universe::Universe;
    use ccmm::core::{MemoryModel, Nn};
    use std::time::Instant;

    let (mut bound, mut locs, mut canonical) = (4usize, 1usize, false);
    let mut engine_flag: Option<String> = None;
    let mut threads: Option<usize> = None;
    let run = RunFlags::parse(args, 16, |flag, args| {
        match flag {
            "--bound" => bound = args.parse(flag)?,
            "--locs" => locs = args.parse(flag)?,
            "--canonical" => canonical = true,
            "--engine" => engine_flag = Some(args.value(flag)?),
            "--threads" => threads = Some(args.parse(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let lane = match engine_flag.as_deref() {
        None | Some("scalar") => false,
        Some("lane64") => true,
        Some(other) => return Err(format!("unknown --engine `{other}` (scalar | lane64)")),
    };
    if lane && !canonical {
        return Err("--engine lane64 requires --canonical (lane packs ride the symmetry-reduced \
                    task list)"
            .to_string());
    }
    if bound > 5 && !lane {
        return Err(format!(
            "--bound {bound} is out of reach for the scalar engine, which supports all phases \
             (memberships, lattice, fixpoint, constructibility) only up to --bound 5 \
             (357 → 4824 posets); use --canonical --engine lane64, which runs every phase \
             through --bound 6 and the memberships phase alone beyond"
        ));
    }
    // The lane engine's mask representation keeps the Δ* fixpoint and
    // constructibility phases within budget through bound 6; beyond that
    // only the lane-parallel memberships phase is.
    let memberships_only = bound > 6;
    let sup = Supervisor::with_fault(run.fault_plan()?);
    let mut cfg = match threads {
        Some(t) => SweepConfig::with_threads(t),
        None => SweepConfig::from_env(),
    }
    .canonical(canonical);
    cfg.deadline = run.deadline;
    let engine = match (lane, canonical) {
        (true, _) => "lane64",
        (false, true) => "canonical",
        (false, false) => "labelled",
    };
    let u = Universe::new(bound, locs);

    // The fingerprint pins the exact sweep configuration so a journal
    // can never be resumed into a different universe.
    let fingerprint =
        format!("ccmm-sweep-v1 bound={bound} locs={locs} canonical={canonical} engine={engine}");
    let (ckpt, resume) = (run.ckpt.as_deref(), run.resume.as_deref());
    let (mut writer, resume_state) =
        open_journal("checkpoint", ckpt, resume, &fingerprint, latest(decode_counts_snapshot))?;
    if let (Some(path), Some((f, _))) = (resume, &resume_state) {
        println!("resuming from {path}: {} task(s) already complete", f.len());
    }

    let mut tel = run.telemetry("sweep");
    println!(
        "sweep: bound {bound}, {locs} location(s), {} computations, {engine} enumeration, {} thread(s)",
        u.count_computations_closed(),
        cfg.threads
    );
    let models = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];
    let mut worst = SweepStatus::Complete;

    // Phase 1: weighted membership counts for every model. The weighted
    // pair total is the labelled universe's pair count regardless of
    // enumeration mode. This is the checkpointable phase.
    let t0 = Instant::now();
    let phase_span = ccmm::core::telemetry::span("sweep/memberships");
    let ckpt = writer.as_mut().map(|w| (w, run.ckpt_every));
    let out = if lane {
        memberships_lanes_supervised(&models, &u, &cfg, &sup, resume_state, ckpt)
    } else {
        memberships_supervised(&models, &u, &cfg, &sup, resume_state, ckpt)
    };
    drop(phase_span);
    let wall = t0.elapsed();
    tel.end_phase("memberships", wall);
    warn_journal("", out.ckpt_error.as_deref());
    report_quarantine("memberships", &out.quarantined);
    worst = worst.max(out.status);
    println!(
        "memberships over {} (computation, observer) pairs [{:.2?}] ({}):",
        out.value.pairs,
        wall,
        status_name(out.status)
    );
    for (m, n) in models.iter().zip(&out.value.per_model) {
        println!("  {:<4} {n}", m.name());
    }
    // A stop ends the sweep: the later phases would blow the budget the
    // caller just set, or outrun the journal the kill left behind.
    let done = (out.frontier.len(), out.total_tasks, "task(s) complete", POSET_INDICES);
    if let Some(code) = report_stop(out.status, None, writer.as_ref(), done, &out.frontier, &run) {
        tel.write()?;
        return Ok(code);
    }

    if memberships_only {
        println!(
            "bound {bound} runs the memberships phase only; the lattice, fixpoint, and \
             constructibility phases need bound ≤ 6 with --engine lane64 (≤ 5 scalar)"
        );
    } else {
        // Phase 2: the full pairwise relation lattice (Figure 1 at this
        // bound), under the same supervisor (the fault plan spans all
        // phases; a task-indexed fault re-fires wherever that index
        // recurs). One verdict pass through the same kernels as phase 1
        // decides every cell, so a task is scanned (and quarantined) once
        // per phase.
        let t0 = Instant::now();
        let phase_span = ccmm::core::telemetry::span("sweep/lattice");
        let lat = if lane {
            lattice_lanes_supervised(&models, &u, &cfg, &sup)
        } else {
            lattice_supervised(&models, &u, &cfg, &sup)
        };
        drop(phase_span);
        let wall = t0.elapsed();
        tel.end_phase("lattice", wall);
        report_quarantine("lattice", &lat.quarantined);
        worst = worst.max(lat.status);
        println!("lattice [{:.2?}] ({}):", wall, status_name(lat.status));
        print!("{:<6}", "");
        for m in &models {
            print!("{:>4}", m.name());
        }
        println!();
        for row in &lat.value {
            print!("  {:<4}", row.name);
            for r in &row.relations {
                print!("{:>4}", r.to_string());
            }
            println!();
        }

        // Phase 3: constructibility. The NN Δ* fixpoint, then the
        // one-step augmentation check for every model. Both engines run
        // the mask fixpoint, which masks only the involved computations
        // (below the bound, or with a top node) and counts the rest over
        // canonical posets (DESIGN §12); `--engine` picks its Stage-A
        // kernel. It checkpoints to its own journal (`<path>.fixpoint`)
        // beside the memberships journal. The fingerprint is engine-free
        // because the mask bits are identical either way, so a fixpoint
        // journal written under one kernel resumes under the other; v1
        // journals (a group for every labelled task) are refused by
        // fingerprint.
        let t0 = Instant::now();
        let phase_span = ccmm::core::telemetry::span("sweep/fixpoint");
        let fix_fingerprint = format!("ccmm-fixpoint-v2 bound={bound} locs={locs} model=nn");
        let fix_journal = run.journal().map(|base| format!("{base}.fixpoint"));
        let path = fix_journal.as_deref();
        let resuming = resume.is_some() && path.is_some_and(|p| Path::new(p).exists());
        let (mut fix_writer, fix_resume) = open_journal(
            "fixpoint checkpoint",
            path.filter(|_| !resuming),
            path.filter(|_| resuming),
            &fix_fingerprint,
            |ck| decode_masks_journal(ck, &u).map(Some),
        )?;
        if let (Some(p), Some((f, _))) = (path, &fix_resume) {
            println!("resuming fixpoint from {p}: {} task(s) already complete", f.len());
        }
        let fix = LaneConstructible::compute_supervised(
            &Nn::default(),
            &u,
            &cfg,
            &sup,
            fix_resume,
            fix_writer.as_mut().map(|w| (w, run.ckpt_every)),
            lane,
        );
        drop(phase_span);
        let wall = t0.elapsed();
        tel.end_phase("fixpoint", wall);
        warn_journal("fixpoint ", fix.ckpt_error.as_deref());
        report_quarantine("fixpoint", &fix.quarantined);
        let done = (fix.frontier.len(), fix.total_tasks, "task(s) complete", POSET_INDICES);
        let (phase, fix_writer) = (Some("fixpoint"), fix_writer.as_ref());
        if let Some(code) = report_stop(fix.status, phase, fix_writer, done, &fix.frontier, &run) {
            tel.write()?;
            return Ok(code);
        }
        worst = worst.max(fix.status);
        println!(
            "NN* {} fixpoint: {} surviving pairs, {} deleted, {} pass(es) [{:.2?}] ({})",
            if lane { "lane64" } else { "scalar" },
            fix.value.total_pairs(),
            fix.value.deleted,
            fix.value.passes,
            wall,
            status_name(fix.status)
        );
        let t0 = Instant::now();
        let phase_span = ccmm::core::telemetry::span("sweep/constructibility");
        for m in &models {
            let check = if lane {
                check_constructible_aug_lanes_supervised(m, &u, &cfg, &sup)
            } else {
                check_constructible_aug_supervised(m, &u, &cfg, &sup)
            };
            report_quarantine("constructibility", &check.quarantined);
            worst = worst.max(check.status);
            // A witness is a dead end wherever it was found; its absence
            // proves constructibility only if every task was scanned.
            match (check.value, check.status) {
                (Some(w), _) => println!(
                    "  {:<4} NOT constructible: dead end at {} nodes appending {:?}",
                    m.name(),
                    w.c.node_count(),
                    w.op
                ),
                (None, SweepStatus::Complete) => {
                    println!("  {:<4} constructible up to bound {bound}", m.name())
                }
                (None, SweepStatus::Partial) => {
                    println!("  {:<4} undecided: no dead end before the deadline", m.name())
                }
                (None, _) => println!(
                    "  {:<4} undecided: no dead end outside {} quarantined task(s)",
                    m.name(),
                    check.quarantined.len()
                ),
            }
        }
        drop(phase_span);
        let wall = t0.elapsed();
        tel.end_phase("constructibility", wall);
        println!("constructibility checks [{wall:.2?}]");
    }
    tel.write()?;
    println!("sweep status: {}", status_name(worst));
    Ok(exit_code(worst))
}

fn cmd_conformance(args: &[String]) -> Result<bool, String> {
    use ccmm::conformance::{report, run, self_test, HarnessConfig};
    use ccmm::core::sweep::SweepConfig;
    let mut cfg = HarnessConfig::default();
    let mut out: Option<String> = None;
    let mut do_self_test = false;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut progress = false;
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--nodes" => cfg.max_nodes = args.parse(flag)?,
            "--locs" => cfg.num_locations = args.parse(flag)?,
            "--random" => cfg.random_cases = args.parse(flag)?,
            "--seed" => cfg.seed = args.parse(flag)?,
            "--no-harvest" => cfg.harvest = false,
            "--threads" => cfg.sweep = SweepConfig::with_threads(args.parse(flag)?),
            "--out" => out = Some(args.value(flag)?),
            "--self-test" => do_self_test = true,
            "--canonical" => cfg.sweep = cfg.sweep.canonical(true),
            "--trace" => trace_path = Some(args.value(flag)?),
            "--metrics" => metrics_path = Some(args.value(flag)?),
            "--progress" => progress = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if cfg.max_nodes > 5 {
        return Err("--nodes > 5 is too slow for the CLI (factorial oracles)".into());
    }
    if cfg.max_nodes >= 5 && !cfg.sweep.canonical {
        // The labelled bound-5 sweep is 90 202 computations against
        // factorial oracles; only the symmetry-reduced enumeration keeps
        // it CLI-tolerable. The report below prints the pair/check counts
        // actually run (canonical representatives, not weighted totals).
        cfg.sweep = cfg.sweep.canonical(true);
        println!(
            "note: nodes >= 5 sweeps canonical representatives only \
             (one per isomorphism class; checker-vs-oracle verdicts are \
             isomorphism-invariant)"
        );
    }
    if do_self_test {
        // Prove the pipeline catches a seeded bug before trusting a pass.
        self_test(&cfg).map_err(|e| format!("self-test FAILED: {e}"))?;
        println!("self-test: seeded LC mutation caught and shrunk — harness is live");
    }
    // Armed after the self-test so its checks don't pollute the report.
    let mut tel = TelemetrySink::new("conformance", trace_path, metrics_path, progress);
    let t0 = std::time::Instant::now();
    let r = run(&cfg);
    tel.end_phase("conformance", t0.elapsed());
    // The lane differential rides the same config: contains_lanes must
    // agree with 64× contains_with over the exhaustive sweep plus random
    // partial packings.
    let t1 = std::time::Instant::now();
    let lanes = ccmm::conformance::run_lanes(&cfg);
    tel.end_phase("lane-differential", t1.elapsed());
    // The fixpoint differential pins the lane Δ* engine (survivor masks,
    // both Stage-A kernels) to the naïve re-scan, and the lane
    // constructibility search to the scalar scan one bound up.
    let t2 = std::time::Instant::now();
    let fix = ccmm::conformance::run_fixpoint(&cfg);
    tel.end_phase("fixpoint-differential", t2.elapsed());
    // The serve differential drives the same pair sources through the
    // full wire pipeline (frame → parse → cached handler → reply) and
    // compares every verdict line against a direct check.
    let t3 = std::time::Instant::now();
    let srv_cfg = ccmm::conformance::ServeHarnessConfig {
        max_nodes: cfg.max_nodes.min(3),
        num_locations: cfg.num_locations,
        random: cfg.random_cases.min(256),
        seed: cfg.seed,
        ..Default::default()
    };
    let srv = ccmm::conformance::run_serve(&srv_cfg);
    tel.end_phase("serve-differential", t3.elapsed());
    tel.write()?;
    println!("{r}");
    println!(
        "lane differential: {} verdicts over {} lane words, {} mismatch(es)",
        lanes.verdicts,
        lanes.words,
        lanes.mismatches.len()
    );
    for m in lanes.mismatches.iter().take(8) {
        println!("  {m}");
    }
    println!(
        "fixpoint differential: {} survivor pairs, {} constructibility verdicts, {} mismatch(es)",
        fix.pairs,
        fix.verdicts,
        fix.mismatches.len()
    );
    for m in fix.mismatches.iter().take(8) {
        println!("  {m}");
    }
    println!(
        "serve differential: {} pairs, {} verdicts, {} cache rechecks, {} mismatch(es)",
        srv.pairs,
        srv.checks,
        srv.cache_rechecks,
        srv.mismatches.len()
    );
    for m in srv.mismatches.iter().take(8) {
        println!("  [{}] {}", m.source, m.detail);
    }
    for (i, d) in r.disagreements.iter().enumerate() {
        println!();
        print!("{}", report::render_witness(d));
        if let Some(dir) = &out {
            let (litmus, dot) = report::write_witness(std::path::Path::new(dir), i, d)
                .map_err(|e| format!("writing witness: {e}"))?;
            println!("# written to {} and {}", litmus.display(), dot.display());
        }
    }
    Ok(r.ok() && lanes.ok() && fix.ok() && srv.ok())
}

fn cmd_stress(args: &[String]) -> Result<u8, String> {
    use ccmm::backer::FaultInjection;
    use ccmm::core::fault::PerturbPlan;
    use ccmm::core::parse::{render_computation, render_observer};
    use ccmm::stress::{self, StressConfig};
    use std::time::Instant;

    let (mut seed, mut iters, mut threads) = (0u64, 1000usize, 4usize);
    let mut perturb_spec: Option<String> = None;
    let mut mutation = FaultInjection::NONE;
    let mut do_self_test = false;
    let run = RunFlags::parse(args, 32, |flag, args| {
        match flag {
            "--seed" => seed = args.parse(flag)?,
            "--iters" => iters = args.parse(flag)?,
            "--threads" => threads = args.parse(flag)?,
            "--perturb" => perturb_spec = Some(args.value(flag)?),
            "--mutate" => mutation = FaultInjection::from_name(&args.value(flag)?)?,
            "--self-test" => do_self_test = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }

    if do_self_test {
        // Prove the oracle has teeth before trusting a green run: each
        // seeded mutation must be caught and the same seeds must pass
        // unmutated.
        print!(
            "stress self-test (mutations: skip-flush, skip-reconcile, {threads} thread(s)) ... "
        );
        match stress::self_test(threads) {
            Ok(()) => println!("caught, and clean executor passes"),
            Err(e) => {
                println!("FAILED");
                eprintln!("{e}");
                return Ok(exit::FAIL);
            }
        }
    }

    let mut cfg = StressConfig::new(seed, iters, threads);
    if let Some(spec) = &perturb_spec {
        cfg.perturb = PerturbPlan::from_spec(spec)?;
    }
    cfg.mutation = mutation;
    cfg.deadline = run.deadline;
    let fault = run.fault_plan()?;

    // The fingerprint pins (seed, iters, threads, perturb shape,
    // mutation) so a journal cannot resume into a different run.
    let (ckpt, resume) = (run.ckpt.as_deref(), run.resume.as_deref());
    let (mut writer, resume_state) = open_journal(
        "checkpoint",
        ckpt,
        resume,
        &cfg.fingerprint(),
        latest(stress::decode_snapshot),
    )?;
    if let (Some(path), Some((f, _))) = (resume, &resume_state) {
        println!("resuming from {path}: {} iteration(s) already complete", f.len());
    }

    let mut tel = run.telemetry("stress");
    println!(
        "stress: seed {seed}, {iters} iteration(s), {threads} thread(s), perturb {}, mutation {}",
        cfg.perturb,
        cfg.mutation.name()
    );
    let t0 = Instant::now();
    let phase_span = ccmm::core::telemetry::span("stress/iterations");
    let ckpt = writer.as_mut().map(|w| (w, run.ckpt_every));
    let report = stress::run_supervised(&cfg, &fault, resume_state, ckpt);
    drop(phase_span);
    let wall = t0.elapsed();
    tel.end_phase("iterations", wall);
    tel.write()?;

    warn_journal("", report.ckpt_error.as_deref());
    for q in &report.quarantined {
        println!("quarantined: iteration {} panicked twice: {}", q.task_idx, q.payload);
    }
    // Deterministic per (seed, iters, threads): iteration and check
    // counts, and any failure. Timing-dependent (reported, never
    // compared): distinct observers and the SC tallies.
    println!(
        "completed {}/{} iteration(s), {} conformance check(s) [{wall:.2?}] ({})",
        report.frontier.len(),
        report.total,
        report.checks,
        status_name(report.status)
    );
    println!(
        "timing-dependent: {} distinct threaded observer(s); SC membership {}/{}",
        report.distinct_observers, report.sc_member, report.sc_checked
    );

    if let Some(f) = report.failures.first() {
        println!(
            "CONFORMANCE FAILURE at iteration {} (leg: {}, workload: {}, kind: {})",
            f.iteration, f.leg, f.workload, f.kind
        );
        let mutate_flag = match cfg.mutation {
            FaultInjection::NONE => String::new(),
            m => format!(" --mutate {}", m.name()),
        };
        println!(
            "failing seed: {} (rerun: ccmm stress --seed {} --iters 1 --threads {threads}{})",
            f.seed, f.seed, mutate_flag
        );
        println!("shrunk trace ({} move(s)):", f.shrink_steps);
        print!("{}", render_computation(&f.c));
        print!("{}", render_observer(&f.phi));
        return Ok(exit::FAIL);
    }
    let done = (report.frontier.len(), report.total, "iteration(s) complete", "iteration indices");
    Ok(report_stop(report.status, None, writer.as_ref(), done, &report.frontier, &run)
        .unwrap_or(exit_code(report.status)))
}

fn cmd_watch(args: &[String]) -> Result<u8, String> {
    use ccmm::backer::FaultInjection;
    use ccmm::core::fault::FaultPlan;
    use ccmm::watch::{self, WatchConfig};
    use std::time::Instant;

    let mut cfg = WatchConfig::new("fib:14");
    let run = RunFlags::parse(args, 65_536, |flag, args| {
        match flag {
            "--workload" => cfg.workload = args.value(flag)?,
            "--procs" => cfg.procs = args.parse(flag)?,
            "--cache" => cfg.cache_lines = args.parse(flag)?,
            "--block" => cfg.block = args.parse(flag)?,
            "--sample-every" => cfg.sample_every = args.parse(flag)?,
            "--sample-cap" => cfg.sample_cap = args.parse(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    // Watch's `--fault` weakens the BACKER protocol; its journal runs
    // under the empty fault plan.
    cfg.faults = FaultInjection::from_name(run.fault.as_deref().unwrap_or("none"))?;
    if cfg.procs == 0 {
        return Err("--procs must be at least 1".into());
    }
    cfg.deadline = run.deadline;
    let (workload, procs) = (cfg.workload.clone(), cfg.procs);
    let trace = watch::parse_trace_workload(&workload)?;

    let total = trace.node_count();

    // The fingerprint pins everything that makes the replay-based
    // resume deterministic.
    let (ckpt, resume) = (run.ckpt.as_deref(), run.resume.as_deref());
    let (mut writer, resume_state) = open_journal(
        "checkpoint",
        ckpt,
        resume,
        &cfg.fingerprint(),
        latest(watch::decode_snapshot),
    )?;
    if let (Some(path), Some(s)) = (resume, &resume_state) {
        println!("resuming from {path}: {} node(s) already committed", s.position);
    }

    let mut tel = run.telemetry("watch");
    println!(
        "watch: {workload} ({total} node(s), {} location(s)), {procs} proc(s), \
         {}-line caches, block {}",
        trace.num_locations, cfg.cache_lines, cfg.block
    );
    let t0 = Instant::now();
    let phase_span = ccmm::core::telemetry::span("watch/stream");
    let ckpt = writer.as_mut().map(|w| (w, run.ckpt_every));
    let report = watch::run_supervised(&cfg, &trace, &FaultPlan::none(), resume_state, ckpt)?;
    drop(phase_span);
    let wall = t0.elapsed();
    tel.end_phase("stream", wall);
    tel.write()?;

    warn_journal("", report.ckpt_error.as_deref());
    for q in &report.quarantined {
        println!(
            "quarantined: conformance sample at prefix {} panicked twice: {}",
            q.task_idx, q.payload
        );
    }
    let v = &report.verdicts;
    println!(
        "streamed {}/{} node(s): valid {} | SC {} | LC {} \
         (violations: {} validity, {} sc, {} lc)",
        report.frontier.len(),
        total,
        v.valid,
        v.sc,
        v.lc,
        v.validity_violations,
        v.sc_violations,
        v.lc_violations
    );
    println!(
        "conformance: {} sampled prefix(es), {} divergence(s){}",
        report.samples,
        report.divergences,
        report.first_divergence.map(|k| format!(" (first at prefix {k})")).unwrap_or_default()
    );
    println!(
        "throughput: {:.0} reveals/sec ({} fresh reveal(s) in {:.2?}); peak RSS {} KiB",
        report.reveals_per_sec, report.fresh_reveals, report.wall, report.peak_rss_kb
    );
    println!(
        "protocol: {} fetch(es), {} reconcile(s), {} flush(es), {} eviction(s)",
        report.stats.fetches, report.stats.reconciles, report.stats.flushes, report.stats.evictions
    );

    let done = (report.frontier.len(), total, "node(s) committed", "node indices");
    if let Some(code) =
        report_stop(report.status, None, writer.as_ref(), done, &report.frontier, &run)
    {
        return Ok(code);
    }
    if !report.passed() && report.status == SweepStatus::Complete {
        println!(
            "verdict check FAILED: valid={} lc={} divergences={}",
            v.valid, v.lc, report.divergences
        );
        return Ok(exit::FAIL);
    }
    Ok(exit_code(report.status))
}

/// Installs `handler` for `SIGTERM` and `SIGINT`. Raw `signal(2)` FFI —
/// the workspace deliberately has no libc dependency, and setting an
/// `AtomicBool` is async-signal-safe.
#[cfg(unix)]
fn install_drain_signals(handler: extern "C" fn(i32)) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, handler as usize);
        signal(SIGINT, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_drain_signals(_handler: extern "C" fn(i32)) {}

/// The drain flag the signal handler flips; the serve loop polls it.
static DRAIN_REQUESTED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

extern "C" fn on_drain_signal(_signum: i32) {
    DRAIN_REQUESTED.store(true, std::sync::atomic::Ordering::SeqCst);
}

/// In-process proof that panic quarantine works request-granular: fault
/// request 0 into a handler panic, then show request 1 on the *same
/// connection* is served normally.
fn serve_self_test() -> Result<(), String> {
    use ccmm::client::Connection;
    use ccmm::core::fault::ServeFaultPlan;
    use ccmm::core::serve::{render_request, Reply, Request, Verb};
    use ccmm::serve::{spawn, ServeConfig};

    println!("serve self-test: panic quarantine on request 0, same-connection recovery ...");
    let cfg = ServeConfig {
        fault: ServeFaultPlan::from_spec("panic-at-request=0")
            .expect("self-test fault spec parses"),
        ..ServeConfig::default()
    };
    let handle = spawn(cfg).map_err(|e| format!("binding self-test server: {e}"))?;
    let ping = render_request(&Request { verb: Verb::Ping, deadline_ms: None });
    let mut conn = Connection::connect(&handle.addr.to_string(), 2_000)
        .map_err(|e| format!("self-test connect: {e}"))?;
    let first =
        conn.roundtrip(ping.as_bytes()).map_err(|e| format!("self-test round-trip 1: {e}"))?;
    let Reply::Degraded { message } = first else {
        return Err(format!("expected a degraded reply to the faulted request, got {first:?}"));
    };
    let second =
        conn.roundtrip(ping.as_bytes()).map_err(|e| format!("self-test round-trip 2: {e}"))?;
    if second != (Reply::Ok { body: vec!["pong".to_string()], cached: false }) {
        return Err(format!("expected a normal pong after the quarantined panic, got {second:?}"));
    }
    drop(conn);
    let stats = handle.shutdown();
    if stats.connections_accepted != stats.connections_closed {
        return Err(format!(
            "connection leak: {} accepted, {} closed",
            stats.connections_accepted, stats.connections_closed
        ));
    }
    println!("caught: {message}");
    println!("next request on the same connection served normally; drain leaked nothing");
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<u8, String> {
    use ccmm::core::fault::ServeFaultPlan;
    use ccmm::serve::{spawn, ServeConfig};
    use std::time::Instant;

    let mut cfg = ServeConfig::default();
    let mut metrics_path: Option<String> = None;
    let mut self_test = false;
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => cfg.addr = args.value(flag)?,
            "--max-inflight" => cfg.max_inflight = args.parse(flag)?,
            "--retry-after-ms" => cfg.retry_after_ms = args.parse(flag)?,
            "--deadline-ms" => cfg.deadline_ms = Some(args.parse(flag)?),
            "--cache-capacity" => cfg.cache_capacity = args.parse(flag)?,
            "--fault" => cfg.fault = ServeFaultPlan::from_spec(&args.value(flag)?)?,
            "--metrics" => metrics_path = Some(args.value(flag)?),
            "--self-test" => self_test = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if self_test {
        serve_self_test()?;
        return Ok(exit::COMPLETE);
    }

    let mut tel = TelemetrySink::new("serve", None, metrics_path, false);
    let t0 = Instant::now();
    if !cfg.fault.is_empty() {
        println!("fault plan: {} (seed {})", cfg.fault, cfg.fault.seed());
    }
    let handle = spawn(cfg).map_err(|e| format!("binding listener: {e}"))?;
    // The line tests and scripts parse to find the port — keep it first
    // and keep its shape.
    println!("listening on {}", handle.addr);
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    install_drain_signals(on_drain_signal);
    let stop = handle.stop_flag();
    while !DRAIN_REQUESTED.load(std::sync::atomic::Ordering::SeqCst)
        && !stop.load(std::sync::atomic::Ordering::SeqCst)
    {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    println!("drain requested: finishing in-flight requests ...");
    let stats = handle.shutdown();
    tel.end_phase("serve", t0.elapsed());
    tel.write()?;
    let hit_rate = if stats.cache_hits + stats.cache_misses > 0 {
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses) as f64
    } else {
        0.0
    };
    println!(
        "drained: {} request(s) — {} served, {} shed, {} degraded, {} deadline-expired, \
         {} frame error(s), {} refused draining",
        stats.requests,
        stats.served,
        stats.shed,
        stats.degraded,
        stats.deadline_expired,
        stats.frame_errors,
        stats.refused_draining
    );
    println!(
        "cache: {} hit(s), {} miss(es), {} eviction(s), hit rate {hit_rate:.2}",
        stats.cache_hits, stats.cache_misses, stats.cache_evictions
    );
    println!(
        "connections: {} accepted, {} closed",
        stats.connections_accepted, stats.connections_closed
    );
    if stats.connections_accepted != stats.connections_closed {
        return Err(format!(
            "connection leak after drain: {} accepted vs {} closed",
            stats.connections_accepted, stats.connections_closed
        ));
    }
    Ok(exit::COMPLETE)
}

fn cmd_query(args: &[String]) -> Result<u8, String> {
    use ccmm::client::query_with_retries;
    use ccmm::core::serve::{render_request, verdict_line, Reply, Request, Verb};

    let mut addr: Option<String> = None;
    let mut verb: Option<String> = None;
    let mut model: Option<Model> = None;
    let mut litmus_name: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut timeout_ms = 2_000u64;
    let mut retries = 5u32;
    let mut seed = 0u64;
    let mut paths: Vec<String> = Vec::new();
    let mut args = Args::new(args);
    while let Some(flag) = args.next_flag() {
        match flag {
            "--addr" => addr = Some(args.value(flag)?),
            "--ping" => verb = Some("ping".into()),
            "--models" => verb = Some("models".into()),
            "--model" => {
                verb = Some("check".into());
                model = Some(model_by_name(&args.value(flag)?)?);
            }
            "--litmus" => {
                verb = Some("litmus".into());
                litmus_name = Some(args.value(flag)?);
            }
            "--deadline-ms" => deadline_ms = Some(args.parse(flag)?),
            "--timeout-ms" => timeout_ms = args.parse(flag)?,
            "--retries" => retries = args.parse(flag)?,
            "--seed" => seed = args.parse(flag)?,
            other if other.starts_with("--") => return Err(format!("unknown flag `{other}`")),
            path => paths.push(path.to_string()),
        }
    }
    let addr = addr.ok_or("usage: ccmm query --addr HOST:PORT (--ping | --model M <comp> <obs> | --models <comp> <obs> | --litmus NAME)")?;
    let request = match verb.as_deref() {
        Some("ping") => Request { verb: Verb::Ping, deadline_ms },
        Some("litmus") => {
            Request { verb: Verb::Litmus { name: litmus_name.unwrap() }, deadline_ms }
        }
        Some(v @ ("check" | "models")) => {
            let [cpath, opath] = paths.as_slice() else {
                return Err(format!("--{v} needs <computation> <observer> files"));
            };
            let (c, phi) = load_pair(cpath, opath)?;
            let verb = if v == "check" {
                Verb::Check { model: model.unwrap(), c, phi }
            } else {
                Verb::Models { c, phi }
            };
            Request { verb, deadline_ms }
        }
        _ => {
            return Err("pick one of --ping, --model M, --models, --litmus NAME".into());
        }
    };
    let payload = render_request(&request);
    let out = query_with_retries(&addr, payload.as_bytes(), timeout_ms, retries, seed);
    if out.attempts > 1 {
        eprintln!(
            "transport: {} attempt(s), {} error(s) along the way",
            out.attempts,
            out.transport_errors.len()
        );
    }
    let Some(reply) = out.reply else {
        let last = out.transport_errors.last().map(|e| e.to_string()).unwrap_or_default();
        eprintln!("no reply after {} attempt(s): {last}", out.attempts);
        return Ok(exit::TRANSPORT);
    };
    match reply {
        Reply::Ok { body, cached } => {
            for line in &body {
                println!("{line}");
            }
            if cached {
                eprintln!("(cached)");
            }
            // `--model` mirrors `ccmm check`: exit 1 on a non-member.
            if let Verb::Check { model, .. } = &request.verb {
                let member = body.first().is_some_and(|l| l == &verdict_line(*model, true));
                return Ok(if member { exit::COMPLETE } else { exit::FAIL });
            }
            Ok(exit::COMPLETE)
        }
        Reply::Error { line, message } => {
            eprintln!("request rejected at line {line}: {message}");
            Err(format!("server rejected the request: line {line}: {message}"))
        }
        Reply::Degraded { message } => {
            eprintln!("degraded: {message}");
            Ok(exit::DEGRADED)
        }
        Reply::Partial { done, total, body } => {
            for line in &body {
                println!("{line}");
            }
            eprintln!("partial: deadline expired after {done}/{total} check(s)");
            Ok(exit::PARTIAL)
        }
        Reply::Overloaded { retry_after_ms } => {
            eprintln!(
                "overloaded after {} attempt(s) (server hints retry-after {retry_after_ms} ms)",
                out.attempts
            );
            Ok(exit::OVERLOADED)
        }
        Reply::ShuttingDown => {
            eprintln!("server is draining; retries exhausted");
            Ok(exit::OVERLOADED)
        }
    }
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let [cpath] = args else {
        return Err("usage: ccmm dot <computation>".into());
    };
    let c = parse_computation(&read_input(cpath)?).map_err(|e| e.to_string())?;
    print!("{}", c.to_dot("computation"));
    Ok(())
}

const USAGE: &str = "\
ccmm — computation-centric memory models (Frigo & Luchangco, SPAA 1998)

USAGE:
  ccmm models <computation> <observer>     memberships of a pair in all models
  ccmm check --model <m> <comp> <obs>      exit 0 iff member (m: sc|lc|nn|nw|wn|ww);
                                           a Q-dag non-member also prints
                                           its violating (l, u, v, w) triple
  ccmm witness [fig2|fig3|fig4]            the paper's witness pairs
  ccmm litmus [name]                       litmus outcome counts per model
  ccmm backer [--workload W] [--procs P] [--cache N] [--page B] [--runs K]
  ccmm lattice [--nodes N]                 pairwise model relations (N ≤ 4)
  ccmm sweep [--bound N] [--locs L] [--canonical] [--engine E] [--threads T]
             [--deadline-secs S] [--fault SPEC] [--ckpt PATH]
             [--ckpt-every K] [--resume PATH]
             [--trace FILE] [--metrics FILE] [--progress]
                                           exhaustive verification at bound N
                                           (N ≤ 5): memberships, lattice, NN*
                                           fixpoint (journals to
                                           <ckpt>.fixpoint), constructibility.
                                           --engine lane64 (with --canonical)
                                           batches 64 observers per u64 word;
                                           counts and witnesses stay
                                           bit-identical to scalar, and every
                                           phase runs through bound 6
                                           (memberships phase only beyond).
                                           --deadline-secs stops after the
                                           budget (exit 4, resume frontier
                                           printed); --ckpt journals progress
                                           every K tasks; --resume continues a
                                           journal bit-identically; --fault
                                           injects deterministic faults (e.g.
                                           panic-at-task=3, kill-after-ckpt=2,
                                           io-error-at-record=1; exit 3
                                           degraded, 70 killed).
                                           --metrics writes per-phase counters
                                           (JSON; counter values bit-identical
                                           across thread counts for the
                                           memberships, lattice, and fixpoint
                                           phases),
                                           --trace writes span events (JSONL),
                                           --progress heartbeats on stderr
  ccmm conformance [--nodes N] [--locs L] [--random K] [--seed S] [--threads T]
                   [--canonical] [--no-harvest] [--self-test] [--out DIR]
                   [--trace FILE] [--metrics FILE] [--progress]
                                           fast checkers vs oracles; exit 0 iff
                                           no disagreement (witnesses shrunk);
                                           nodes >= 5 sweeps canonical reps
  ccmm stress [--seed S] [--iters N] [--threads T] [--perturb SPEC]
              [--mutate M] [--self-test] [--deadline-secs S] [--fault SPEC]
              [--ckpt PATH] [--ckpt-every K] [--resume PATH]
              [--trace FILE] [--metrics FILE] [--progress]
                                           schedule-perturbation stress of the
                                           threaded BACKER executor with LC
                                           conformance as the oracle; exit 0
                                           iff every perturbed execution
                                           conforms. Deterministic per
                                           (S, N, T) in its seeds, workloads,
                                           check counts, and failures (failing
                                           seed + shrunk trace printed; exit
                                           1). --perturb tunes the injection
                                           (e.g. yield=1/2,spin=1/8:64,
                                           steal=rotate); --mutate weakens the
                                           protocol (skip-flush |
                                           skip-reconcile) to exercise the
                                           oracle; --self-test proves each
                                           mutation is caught before the run.
                                           Supervision matches sweep:
                                           quarantine or a failed journal
                                           append (exit 3), deadline + resume
                                           frontier (exit 4), --ckpt/--resume
                                           journals, --fault (exit 70 killed)
  ccmm watch [--workload W] [--procs P] [--cache N] [--block B]
             [--fault F] [--deadline-secs S] [--ckpt PATH] [--ckpt-every K]
             [--resume PATH] [--sample-every K] [--sample-cap N]
             [--trace FILE] [--metrics FILE] [--progress]
                                           stream a harvested Cilk trace
                                           (fib:N | matmul:N | stencil:W,T;
                                           depths reach 10^5-10^7 nodes)
                                           through the lean BACKER executor
                                           and check validity + SC/LC on the
                                           fly, race-detector style: one
                                           reveal per node via SP-order and
                                           last-writer indices, no dense
                                           closure. Every K-th commit inside
                                           the first --sample-cap nodes the
                                           prefix is densified and
                                           cross-checked against the exact
                                           batch checkers; any divergence is
                                           exit 1. --fault (skip-flush |
                                           skip-reconcile) weakens the
                                           protocol — the stream then reports
                                           the LC violation (exit 1).
                                           Supervision matches sweep:
                                           deadline → exit 4 + node frontier,
                                           --ckpt/--resume journals with
                                           replay-verified resume, sample
                                           panics quarantined or a failed
                                           journal append (exit 3)
  ccmm serve [--addr A] [--max-inflight N] [--retry-after-ms MS]
             [--deadline-ms MS] [--cache-capacity N] [--fault SPEC]
             [--metrics FILE] [--self-test]
                                           membership query daemon over a
                                           framed TCP protocol. Prints
                                           `listening on HOST:PORT` (\":0\"
                                           picks a free port), serves until
                                           SIGTERM/SIGINT, then drains: stops
                                           accepting, finishes in-flight
                                           requests, reports stats, exits 0.
                                           Per-request panics become
                                           `degraded` replies, deadline
                                           expiry `partial`, load shedding
                                           `overloaded` + retry-after hint.
                                           Verdicts are memoized in a sharded
                                           canonical cache (eviction never
                                           changes an answer). --fault injects
                                           deterministic request-level faults
                                           (e.g. panic=1/13,drop=1/17,seed=42;
                                           see also panic-at-request=N).
                                           --self-test proves quarantine +
                                           same-connection recovery in
                                           process, then exits.
  ccmm query --addr HOST:PORT (--ping | --model M <comp> <obs> |
             --models <comp> <obs> | --litmus NAME)
             [--deadline-ms MS] [--timeout-ms MS] [--retries K] [--seed S]
                                           one query against a running serve
                                           daemon, with timeouts and capped
                                           exponential backoff + seeded
                                           jitter on transport failures and
                                           overload. Exit: 0 ok (member for
                                           --model), 1 non-member, 3 degraded
                                           reply, 4 partial reply, 6 retries
                                           exhausted against overload/drain,
                                           7 no reply at all
  ccmm dot <computation>                   Graphviz export

Computation/observer files use the text format of ccmm_core::parse
(`-` = stdin). Workloads: fib:K matmul:K stencil:K reduce:K mergesort:K.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // Exit codes: 0 success/complete, 1 failed check/conformance, 2 usage
    // or I/O error, and for `sweep`, `stress` and `watch` additionally 3
    // degraded (quarantine or a failed journal append), 4 partial
    // (deadline), 70 killed by the fault plan.
    let result: Result<u8, String> = match cmd.as_str() {
        "models" => cmd_models(rest).map(|()| 0),
        "check" => cmd_check(rest).map(|ok| if ok { 0 } else { 1 }),
        "witness" => cmd_witness(rest).map(|()| 0),
        "litmus" => cmd_litmus(rest).map(|()| 0),
        "backer" => cmd_backer(rest).map(|()| 0),
        "lattice" => cmd_lattice(rest).map(|()| 0),
        "sweep" => cmd_sweep(rest),
        "conformance" => cmd_conformance(rest).map(|ok| if ok { 0 } else { 1 }),
        "stress" => cmd_stress(rest),
        "watch" => cmd_watch(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "dot" => cmd_dot(rest).map(|()| 0),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stop_report_prints_only_the_head_of_a_long_frontier() {
        let mut frontier = Frontier::new();
        for r in 0..300 {
            frontier.insert(3 * r);
            frontier.insert(3 * r + 1);
        }
        assert_eq!(frontier.ranges().len(), 300);
        let text = frontier_text(&frontier, POSET_INDICES);
        assert_eq!(
            text,
            "[(0, 2), (3, 5), (6, 8), (9, 11), (12, 14), (15, 17), (18, 20), (21, 23)] \
             … 292 more range(s) (ranges of poset indices in the labelled enumeration)"
        );
        assert!(format!("resume frontier: {text}").starts_with("resume frontier: [(0, "));
        let mut short = Frontier::new();
        short.insert(0);
        assert_eq!(frontier_text(&short, "node indices"), "[(0, 1)] (ranges of node indices)");
        assert_eq!(frontier_text(&Frontier::new(), "iterations"), "[] (ranges of iterations)");
    }
}
