//! `ccmm-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! ccmm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--rev <git rev>] [--spans-out <file>]
//! ```
//!
//! Each workload repeats a fixed unit of work for `--seconds`. An
//! untraced run (`--trace 0`) reports the end-to-end metrics, each timing
//! the median over its units; a traced run (`--trace 1`)
//! reports every layer of every workload (a census: the named workload
//! for the whole budget, the others for a few units each). The last line
//! of stdout is the result object; the line before it (`detail …`) holds
//! the raw per-unit values, best deciles, host-speed probe and run
//! context.

mod measure;
mod serve;
mod sweep;
mod watch;

use measure::{best_low, median, num, nums, peak_rss_mib, percentile, text, Spans};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in census order.
const WORKLOADS: [&str; 4] = ["sweep-b5", "members-b6", "watch-matmul", "serve-session"];
/// Fewest units a run measures, however short `--seconds` is.
const MIN_UNITS: usize = 3;
/// Units per workload in a traced census, besides the named workload.
const CENSUS_UNITS: usize = 3;
/// Most traced units per workload (bounds the size of the spans file).
const TRACED_UNITS_MAX: usize = 12;
/// Host-probe chunks before and after the measured window.
const PROBE_CHUNKS: usize = 4;

/// What one unit reports.
#[derive(Default)]
pub struct Outcome {
    /// Wall time of the unit.
    pub wall_s: f64,
    /// Client-side round trips inside the unit (serve only).
    pub rtts_us: Vec<f64>,
    /// Operations attempted (one per unit, or one per request).
    pub attempted: u64,
    /// Operations whose answer was wrong or missing.
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
}

/// Per-layer metrics and bookkeeping of a traced run.
#[derive(Default)]
pub struct Layers {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (wrong answers and counter mismatches).
    pub failed: u64,
    /// The first failure messages.
    pub errors: Vec<String>,
    /// Wall times of the traced units of the current workload.
    pub traced_walls: Vec<f64>,
}

impl Layers {
    /// Records one layer metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records one failed check.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }
}

/// A benchmark workload: a timed set-up plus a repeatable unit.
pub trait Workload {
    /// Builds the workload's inputs; returns the set-up time in seconds.
    fn setup(&mut self) -> Result<f64, String>;
    /// Runs and checks one unit.
    fn unit(&mut self, id: u64, rec: &mut Spans) -> Outcome;
    /// Operations per unit for `ops_per_s` (pairs, trace nodes, requests).
    fn ops_per_unit(&self) -> f64;
    /// Run context recorded with the result (sizes, threads).
    fn notes(&self) -> Vec<(&'static str, String)>;
    /// Runs `units` traced units and pushes this workload's layers.
    fn traced(&mut self, units: usize, setup_s: f64, rec: &mut Spans, out: &mut Layers);
}

fn make(name: &str, seed: u64, threads: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sweep-b5" => Box::new(sweep::Sweep::b5(threads)),
        "members-b6" => Box::new(sweep::Sweep::b6(threads)),
        "watch-matmul" => Box::new(watch::Watch::new()),
        "serve-session" => Box::new(serve::Serve::new(seed)),
        _ => return None,
    })
}

/// How often a run repeats its set-up, so that `setup_s` is a median
/// over samples spread through the run: before every unit when set-up
/// is cheap (sweeps), otherwise a fixed number of times.
fn setup_samples(name: &str) -> usize {
    match name {
        "watch-matmul" => 6,
        "serve-session" => 16,
        _ => usize::MAX,
    }
}

/// Short metric prefix per workload in the traced census.
fn prefix(name: &str) -> &'static str {
    match name {
        "sweep-b5" => "b5",
        "members-b6" => "b6",
        "watch-matmul" => "watch",
        _ => "serve",
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        rev: "unknown".to_string(),
        spans_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad)? != 0,
            "--rev" => args.rev = value.clone(),
            "--spans-out" => args.spans_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// What an untraced run reports.
struct Measured {
    metrics: Vec<(&'static str, f64, &'static str)>,
    detail: Vec<(&'static str, String)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// The untraced run: set-up samples spread over the window, units until
/// `seconds` have passed.
fn measure(name: &str, w: &mut dyn Workload, seconds: f64) -> Result<Measured, String> {
    let samples = setup_samples(name);
    let spacing = if samples == usize::MAX { 0.0 } else { seconds / samples as f64 };
    let start = Instant::now();
    let mut setups = vec![w.setup()?];
    let (mut walls, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    let mut rec = Spans::off();
    let mut rss_first_unit = 0.0;
    loop {
        let o = w.unit(walls.len() as u64, &mut rec);
        attempted += o.attempted;
        failed += o.failed;
        errors.extend(o.errors);
        // A unit's round trip is its requests' (serve), or the unit
        // itself for the in-process workloads, which make one verdict
        // request per unit.
        let (p50, p99) = if o.rtts_us.is_empty() {
            (o.wall_s * 1e6, o.wall_s * 1e6)
        } else {
            (percentile(&o.rtts_us, 50.0), percentile(&o.rtts_us, 99.0))
        };
        // Peak RSS is taken once set-up and one unit have run: the memory
        // a verdict needs. Later units only add allocator-arena noise
        // (±7 % run to run on the sweeps, measured), reported in detail.
        if walls.is_empty() {
            rss_first_unit = peak_rss_mib();
        }
        walls.push(o.wall_s);
        p50s.push(p50);
        p99s.push(p99);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= seconds && walls.len() >= MIN_UNITS {
            break;
        }
        if setups.len() < samples && elapsed >= spacing * setups.len() as f64 {
            setups.push(w.setup()?);
        }
    }
    let ops = w.ops_per_unit();
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mib", rss_first_unit, "MiB"),
        ("verdict_s", median(&walls), "s"),
        ("ops_per_s", ops / median(&walls), "1/s"),
        ("rtt_p50_us", median(&p50s), "us"),
        ("rtt_p99_us", median(&p99s), "us"),
    ];
    let best = format!(
        "{{\"setup_s\":{},\"verdict_s\":{},\"ops_per_s\":{},\"rtt_p50_us\":{},\"rtt_p99_us\":{}}}",
        num(best_low(&setups)),
        num(best_low(&walls)),
        num(ops / best_low(&walls)),
        num(best_low(&p50s)),
        num(best_low(&p99s))
    );
    let mut detail = vec![
        ("units", walls.len().to_string()),
        ("best_decile", best),
        ("peak_rss_end_mib", num(peak_rss_mib())),
        ("unit_walls_s", nums(&walls)),
        ("setup_samples_s", nums(&setups)),
    ];
    if p50s.iter().zip(&walls).any(|(p, w)| *p != w * 1e6) {
        detail.push(("unit_rtt_p50_us", nums(&p50s)));
        detail.push(("unit_rtt_p99_us", nums(&p99s)));
    }
    detail.extend(w.notes().into_iter().map(|(k, v)| (k, text(&v))));
    Ok(Measured { metrics, detail, attempted, failed, errors })
}

/// The traced census: every workload's layers, the named one over the
/// whole budget. Each workload first runs untraced units, then as many
/// traced ones with telemetry counters on; the difference of their best
/// unit times is the tracing overhead.
fn census(args: &Args, threads: usize, epoch: Instant) -> (Layers, Vec<Spans>) {
    let mut out = Layers::default();
    let mut recorders = Vec::new();
    for (i, name) in WORKLOADS.iter().enumerate() {
        let mut w = make(name, args.seed, threads).expect("known workload");
        let setup_s = match w.setup() {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("{name}: set-up failed: {e}"));
                continue;
            }
        };
        let start = Instant::now();
        let mut untraced = Vec::new();
        let mut off = Spans::off();
        loop {
            let o = w.unit(untraced.len() as u64, &mut off);
            out.attempted += o.attempted;
            out.failed += o.failed;
            out.errors.extend(o.errors);
            untraced.push(o.wall_s);
            let budget = if *name == args.workload { args.seconds / 3.0 } else { 0.0 };
            if untraced.len() >= CENSUS_UNITS && start.elapsed().as_secs_f64() >= budget {
                break;
            }
        }
        let mut rec = Spans::new(epoch, i, true);
        out.traced_walls.clear();
        ccmm::core::telemetry::set_enabled(true);
        w.traced(untraced.len().min(TRACED_UNITS_MAX), setup_s, &mut rec, &mut out);
        ccmm::core::telemetry::set_enabled(false);
        let overhead = best_low(&out.traced_walls) - best_low(&untraced);
        out.push(&format!("{}_trace_overhead_s", prefix(name)), overhead, "s");
        recorders.push(rec);
    }
    (out, recorders)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!("{}:{{\"value\":{},\"unit\":{}}}", text(name), num(*v), text(unit))
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        m.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = nproc.min(2);
    let probe_before = measure::host_probe(PROBE_CHUNKS);

    let (metrics, mut detail, attempted, failed, errors) = if args.trace {
        let (layers, recorders) = census(&args, threads, epoch);
        if let Some(path) = &args.spans_out {
            let mut s = String::new();
            for r in &recorders {
                r.to_jsonl(&mut s);
            }
            if let Err(e) = std::fs::write(path, s) {
                eprintln!("error: writing spans to {path}: {e}");
                return ExitCode::from(1);
            }
        }
        (layers.metrics, Vec::new(), layers.attempted, layers.failed, layers.errors)
    } else {
        let mut w = make(&args.workload, args.seed, threads).expect("validated workload");
        match measure(&args.workload, w.as_mut(), args.seconds) {
            Ok(m) => (
                m.metrics.into_iter().map(|(n, v, u)| (n.to_string(), v, u)).collect(),
                m.detail,
                m.attempted,
                m.failed,
                m.errors,
            ),
            Err(e) => {
                eprintln!("error: set-up failed: {e}");
                return ExitCode::from(1);
            }
        }
    };

    let probe_after = measure::host_probe(PROBE_CHUNKS);
    let spread = |p: &[f64]| {
        p.iter().copied().fold(0.0, f64::max) / p.iter().copied().fold(f64::INFINITY, f64::min)
    };
    for e in errors.iter().take(10) {
        eprintln!("failed: {e}");
    }
    detail.splice(
        0..0,
        [
            ("workload", text(&args.workload)),
            ("seed", args.seed.to_string()),
            ("trace", args.trace.to_string()),
            ("rev", text(&args.rev)),
            ("nproc", nproc.to_string()),
            ("threads", threads.to_string()),
            ("seconds", num(args.seconds)),
            ("wall_s", num(epoch.elapsed().as_secs_f64())),
            ("host_probe_before_s", nums(&probe_before)),
            ("host_probe_after_s", nums(&probe_after)),
            ("host_probe_max_over_min", num(spread(&[probe_before, probe_after].concat()))),
        ],
    );
    let fields: Vec<String> = detail.iter().map(|(k, v)| format!("{}:{v}", text(k))).collect();
    println!("detail {{{}}}", fields.join(","));
    println!("{}", result_line(failed == 0 && errors.is_empty(), attempted, failed, &metrics));
    ExitCode::SUCCESS
}
