//! `watch-matmul`: streaming LC/SC checking of the `matmul:64` BACKER
//! trace (1,135,763 nodes).
//!
//! Set-up builds the trace with the Cilk builder; one unit is one
//! `ccmm::watch::run` over it with `WatchConfig::new("matmul:64")`
//! defaults. The traced run splits a unit without per-call timers:
//! `StreamRunner::step` is timed alone over the whole trace while its
//! commits are recorded, then `StreamChecker::commit` alone over the
//! recorded commits; the conformance sampler is the difference between
//! a unit and the same unit with sampling off.

use crate::measure::{median, Spans};
use crate::{Layers, Outcome, Workload};
use ccmm::backer::{BackerConfig, Stats, StreamRunner};
use ccmm::cilk::{matmul_trace, RawTrace};
use ccmm::core::StreamChecker;
use ccmm::watch::WatchConfig;

const SPEC: &str = "matmul:64";
const SIDE: usize = 64;
const NODES: usize = 1_135_763;
/// Protocol traffic of one clean unit (block-cyclic schedule, defaults).
const FLUSHES: u64 = 280_027;
const EVICTIONS: u64 = 4_064;

/// The `watch-matmul` workload.
pub struct Watch {
    cfg: WatchConfig,
    trace: Option<RawTrace>,
    /// The first unit's protocol counters; every later unit must match.
    stats: Option<Stats>,
    /// Conformance samples the last unit took.
    samples: u64,
}

impl Watch {
    /// A workload with no trace built yet.
    pub fn new() -> Self {
        Watch { cfg: WatchConfig::new(SPEC), trace: None, stats: None, samples: 0 }
    }

    fn trace(&self) -> &RawTrace {
        self.trace.as_ref().expect("set-up runs before the first unit")
    }

    /// One unit: its wall time and any failed checks.
    fn run_unit(&mut self, rec: &mut Spans, id: u64) -> (f64, Vec<String>) {
        let cfg = &self.cfg;
        let trace = self.trace.as_ref().expect("set-up runs before the first unit");
        let (report, wall) = rec.time("unit", id, |_| ccmm::watch::run(cfg, trace));
        let mut errors = Vec::new();
        match report {
            Err(e) => errors.push(format!("watch run failed: {e}")),
            Ok(r) => {
                if !r.passed()
                    || !r.verdicts.sc
                    || r.divergences != 0
                    || r.fresh_reveals != NODES as u64
                {
                    errors.push(format!(
                        "verdicts {:?}, {} divergences, {} reveals",
                        r.verdicts, r.divergences, r.fresh_reveals
                    ));
                }
                self.samples = r.samples;
                if r.stats.flushes != FLUSHES || r.stats.evictions != EVICTIONS {
                    errors.push(format!("protocol counters {:?}", r.stats));
                }
                match self.stats {
                    None => self.stats = Some(r.stats),
                    Some(first) if first != r.stats => {
                        errors.push(format!(
                            "stats {:?} differ from the first unit's {first:?}",
                            r.stats
                        ));
                    }
                    Some(_) => {}
                }
            }
        }
        (wall, errors)
    }
}

impl Workload for Watch {
    fn setup(&mut self) -> Result<f64, String> {
        let t = std::time::Instant::now();
        // Drop the previous trace first so peak RSS holds one trace.
        self.trace = None;
        let trace = matmul_trace(SIDE);
        if trace.node_count() != NODES {
            return Err(format!("{SPEC} built {} nodes, expected {NODES}", trace.node_count()));
        }
        let secs = t.elapsed().as_secs_f64();
        self.trace = Some(trace);
        Ok(secs)
    }

    fn unit(&mut self, id: u64, rec: &mut Spans) -> Outcome {
        let (wall_s, errors) = self.run_unit(rec, id);
        Outcome {
            wall_s,
            rtts_us: Vec::new(),
            attempted: 1,
            failed: u64::from(!errors.is_empty()),
            errors,
        }
    }

    fn ops_per_unit(&self) -> f64 {
        NODES as f64
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("trace", SPEC.to_string()),
            ("nodes", NODES.to_string()),
            ("procs", self.cfg.procs.to_string()),
            ("cache_lines", self.cfg.cache_lines.to_string()),
        ]
    }

    fn traced(&mut self, units: usize, setup_s: f64, rec: &mut Spans, out: &mut Layers) {
        out.push("trace_build_s", setup_s, "s");
        let backer = BackerConfig::with_processors(self.cfg.procs.max(1))
            .cache_capacity(self.cfg.cache_lines.max(1))
            .faults(self.cfg.faults);
        let mut commits = Vec::with_capacity(NODES);
        let (mut sp_s, mut runner_s, mut checker_s, mut sampler_s, mut walls) =
            (vec![], vec![], vec![], vec![], vec![]);
        let mut runner_stats = None;
        for k in 0..units {
            let id = k as u64;
            let (wall, errors) = self.run_unit(rec, id);
            out.attempted += 1;
            if !errors.is_empty() {
                out.fail(errors.join("; "));
            }
            out.traced_walls.push(wall);
            walls.push(wall);
            let trace = self.trace();
            let (sp, t_sp) = rec.time("sp_order", id, |_| trace.sp_order());
            commits.clear();
            let (stats, t_run) = rec.time("runner", id, |_| {
                let mut runner = StreamRunner::new(trace.num_locations, &backer, self.cfg.block);
                while let Some(step) = runner.step(&trace.dag, &trace.ops) {
                    commits.push(step);
                }
                runner.stats()
            });
            let (lc, t_check) = rec.time("checker", id, |_| {
                let mut checker = StreamChecker::new(sp, trace.num_locations);
                for &(u, op, observed) in &commits {
                    checker.commit(u, op, observed);
                }
                checker.verdicts().lc
            });
            if !lc || commits.len() != NODES || Some(stats) != self.stats {
                out.fail(format!(
                    "split pass {k}: lc {lc}, {} commits, stats {stats:?}",
                    commits.len()
                ));
            }
            // The conformance sampler, by difference: the same unit with
            // sampling switched off.
            let unsampled = WatchConfig { sample_every: 0, ..self.cfg.clone() };
            let (plain, t_plain) =
                rec.time("unsampled", id, |_| ccmm::watch::run(&unsampled, trace));
            if !plain.is_ok_and(|r| r.passed() && r.stats == stats) {
                out.fail(format!("unsampled pass {k} did not pass with the same stats"));
            }
            if runner_stats.is_some_and(|s| s != stats) {
                out.fail(format!("split pass {k}: runner stats differ from the first pass"));
            }
            runner_stats = Some(stats);
            sp_s.push(t_sp);
            runner_s.push(t_run);
            checker_s.push(t_check);
            sampler_s.push(wall - t_plain);
        }
        let stats = self.stats.unwrap_or_default();
        let unit = median(&walls);
        let layers = [median(&sp_s), median(&runner_s), median(&checker_s), median(&sampler_s)];
        let [sp, runner, checker, sampler] = layers;
        out.push("sp_order_s", sp, "s");
        out.push("runner_s", runner, "s");
        out.push("checker_s", checker, "s");
        out.push("sampler_s", sampler, "s");
        // What the split passes do not see: the fused loop's frontier and
        // observation bookkeeping, and the cache cost of interleaving
        // runner and checker.
        out.push("watch_loop_s", unit - layers.iter().sum::<f64>(), "s");
        out.push("watch_layer_cover", layers.iter().sum::<f64>() / unit, "ratio");
        out.push("watch_unit_s", unit, "s");
        out.push(
            "backer_cache_hit_ratio",
            stats.hits as f64 / (stats.hits + stats.misses) as f64,
            "ratio",
        );
        out.push("fetches", stats.fetches as f64, "count");
        out.push("flushes", stats.flushes as f64, "count");
        out.push("evictions", stats.evictions as f64, "count");
        out.push("samples", self.samples as f64, "count");
    }
}
