//! Machine-readable sweep timings: `BENCH_sweep.json`.
//!
//! Each experiment binary that drives the parallel sweep engine appends
//! one [`SweepRecord`] per measured phase to a JSON array on disk, so
//! speedups can be tracked across runs and machines without scraping
//! stdout. Every function here takes the file's path explicitly; the
//! experiment binaries write [`DEFAULT_BENCH_JSON`] in the working
//! directory, and `ccmm` lets `CCMM_BENCH_JSON` override it.

use ccmm_core::universe::Universe;
use std::path::Path;
use std::time::Duration;

/// The bench file's default name, relative to the working directory.
pub const DEFAULT_BENCH_JSON: &str = "BENCH_sweep.json";

/// One timed sweep: which experiment, over which universe, with how many
/// threads, and how fast.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRecord {
    /// Experiment identifier (e.g. `"exp_fig1/lattice"`).
    pub experiment: String,
    /// Engine variant (`"serial"`, `"parallel"`, `"worklist"`, …).
    pub engine: String,
    /// Universe node bound.
    pub max_nodes: u64,
    /// Universe location-alphabet size.
    pub num_locations: u64,
    /// Computations in the swept universe (closed form).
    pub universe_computations: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Wall-clock time in milliseconds.
    pub wall_ms: f64,
    /// (computation, observer) pairs examined.
    pub pairs_checked: u64,
    /// Pairs per second of wall time (0 when `wall_ms` is 0).
    pub pairs_per_sec: f64,
    /// Fixpoint passes/rounds until convergence; 0 for non-fixpoint
    /// sweeps.
    pub fixpoint_passes: u64,
    /// Supervisor outcome: `"complete"`, `"degraded"` (quarantined
    /// panics), or `"partial"` (deadline hit). Records predating this
    /// field deserialize as `"complete"`.
    pub status: String,
    /// Telemetry counters for the phase this record times
    /// (`name → value`, in [`ccmm_core::telemetry::Counter::ALL`] order),
    /// embedded when the sweep ran with telemetry on. Empty when
    /// telemetry was off; records predating this field deserialize as
    /// empty. Serialized as a JSON object and omitted when empty.
    pub counters: Vec<(String, u64)>,
}

// Hand-rolled (not `impl_serde_struct!`) because the macro errors on
// missing fields, and committed baselines predate `status`: absent ⇒
// `"complete"`.
impl serde::Serialize for SweepRecord {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut fields = vec![
            ("experiment".into(), serde::to_value(&self.experiment)),
            ("engine".into(), serde::to_value(&self.engine)),
            ("max_nodes".into(), serde::to_value(&self.max_nodes)),
            ("num_locations".into(), serde::to_value(&self.num_locations)),
            ("universe_computations".into(), serde::to_value(&self.universe_computations)),
            ("threads".into(), serde::to_value(&self.threads)),
            ("wall_ms".into(), serde::to_value(&self.wall_ms)),
            ("pairs_checked".into(), serde::to_value(&self.pairs_checked)),
            ("pairs_per_sec".into(), serde::to_value(&self.pairs_per_sec)),
            ("fixpoint_passes".into(), serde::to_value(&self.fixpoint_passes)),
            ("status".into(), serde::to_value(&self.status)),
        ];
        if !self.counters.is_empty() {
            let entries =
                self.counters.iter().map(|(k, v)| (k.clone(), serde::to_value(v))).collect();
            fields.push(("counters".into(), serde::Value::Map(entries)));
        }
        s.serialize_value(serde::Value::Map(fields))
    }
}

impl<'de> serde::Deserialize<'de> for SweepRecord {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = serde::Deserializer::take_value(d)?;
        let mut map = match v {
            serde::Value::Map(m) => m,
            other => {
                return Err(<D::Error as serde::de::Error>::custom(format_args!(
                    "expected object, found {other:?}"
                )))
            }
        };
        let status = if map.iter().any(|(k, _)| k == "status") {
            serde::de::take_field(&mut map, "status")?
        } else {
            "complete".to_string()
        };
        // Optional like `status`: telemetry-off runs and committed
        // baselines predating the field carry no counters object.
        let counters = match map.iter().position(|(k, _)| k == "counters") {
            Some(i) => match map.remove(i).1 {
                serde::Value::Map(entries) => entries
                    .into_iter()
                    .map(|(k, v)| serde::from_value::<u64, D::Error>(v).map(|n| (k, n)))
                    .collect::<Result<Vec<_>, _>>()?,
                other => {
                    return Err(<D::Error as serde::de::Error>::custom(format_args!(
                        "counters: expected object, found {other:?}"
                    )))
                }
            },
            None => Vec::new(),
        };
        Ok(SweepRecord {
            experiment: serde::de::take_field(&mut map, "experiment")?,
            engine: serde::de::take_field(&mut map, "engine")?,
            max_nodes: serde::de::take_field(&mut map, "max_nodes")?,
            num_locations: serde::de::take_field(&mut map, "num_locations")?,
            universe_computations: serde::de::take_field(&mut map, "universe_computations")?,
            threads: serde::de::take_field(&mut map, "threads")?,
            wall_ms: serde::de::take_field(&mut map, "wall_ms")?,
            pairs_checked: serde::de::take_field(&mut map, "pairs_checked")?,
            pairs_per_sec: serde::de::take_field(&mut map, "pairs_per_sec")?,
            fixpoint_passes: serde::de::take_field(&mut map, "fixpoint_passes")?,
            status,
            counters,
        })
    }
}

impl SweepRecord {
    /// Builds a record from a measured sweep, deriving the throughput and
    /// universe-size fields.
    pub fn new(
        experiment: impl Into<String>,
        engine: impl Into<String>,
        u: &Universe,
        threads: usize,
        wall: Duration,
        pairs_checked: u64,
        fixpoint_passes: usize,
    ) -> Self {
        let wall_ms = wall.as_secs_f64() * 1e3;
        let pairs_per_sec =
            if wall_ms > 0.0 { pairs_checked as f64 / wall.as_secs_f64() } else { 0.0 };
        SweepRecord {
            experiment: experiment.into(),
            engine: engine.into(),
            max_nodes: u.max_nodes as u64,
            num_locations: u.num_locations as u64,
            universe_computations: u.count_computations_closed().min(u64::MAX as u128) as u64,
            threads: threads as u64,
            wall_ms,
            pairs_checked,
            pairs_per_sec,
            fixpoint_passes: fixpoint_passes as u64,
            status: "complete".to_string(),
            counters: Vec::new(),
        }
    }

    /// Tags the record with a supervisor outcome (builder style).
    pub fn with_status(mut self, status: impl Into<String>) -> Self {
        self.status = status.into();
        self
    }

    /// Embeds a telemetry counter snapshot (builder style).
    pub fn with_counters(mut self, counters: Vec<(String, u64)>) -> Self {
        self.counters = counters;
        self
    }
}

/// Appends `records` to the JSON array at `path`, creating the file if
/// needed (a malformed existing file is overwritten rather than
/// poisoning every future run).
pub fn emit(path: impl AsRef<Path>, records: &[SweepRecord]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut arr: Vec<serde::Value> = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str::<serde::Value>(&s).ok())
        .and_then(|v| match v {
            serde::Value::Seq(items) => Some(items),
            _ => None,
        })
        .unwrap_or_default();
    arr.extend(records.iter().map(serde::to_value));
    let text = serde_json::to_string_pretty(&serde::Value::Seq(arr))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(path, text)
}

/// The most recent **complete** record at `path` matching
/// the given experiment, engine, universe shape, and thread count — the
/// committed baseline a perf gate compares a fresh measurement against.
/// Degraded or partial records never serve as baselines (their timings
/// cover an unknown fraction of the work), and a measurement is only
/// comparable to a baseline taken at the same parallelism — a 4-thread
/// run gated against a 1-thread baseline would pass on scaling alone.
/// `None` when the file is missing, malformed, or has no matching
/// complete record.
pub fn latest_matching(
    path: impl AsRef<Path>,
    experiment: &str,
    engine: &str,
    u: &Universe,
    threads: usize,
) -> Option<SweepRecord> {
    latest_matching_shape(
        path,
        experiment,
        engine,
        u.max_nodes as u64,
        u.num_locations as u64,
        threads as u64,
    )
}

/// Like [`latest_matching`] but keyed on an explicit shape instead of a
/// [`Universe`] — for streaming experiments whose workload is a single
/// harvested trace (`max_nodes` = trace length) rather than a swept
/// universe.
pub fn latest_matching_shape(
    path: impl AsRef<Path>,
    experiment: &str,
    engine: &str,
    max_nodes: u64,
    num_locations: u64,
    threads: u64,
) -> Option<SweepRecord> {
    let text = std::fs::read_to_string(path).ok()?;
    let serde::Value::Seq(items) = serde_json::from_str::<serde::Value>(&text).ok()? else {
        return None;
    };
    items
        .into_iter()
        .rev()
        .filter_map(|v| serde::from_value::<SweepRecord, serde_json::Error>(v).ok())
        .find(|r| {
            r.status == "complete"
                && r.experiment == experiment
                && r.engine == engine
                && r.max_nodes == max_nodes
                && r.num_locations == num_locations
                && r.threads == threads
        })
}

/// The number of (computation, observer) pairs in the universe — the
/// size of the space a full sweep examines. Enumerates computations but
/// counts observers in closed form per computation.
pub fn universe_pairs(u: &Universe) -> u64 {
    let mut total: u128 = 0;
    let _ = u.for_each_computation(|c| {
        total += ccmm_core::enumerate::count_observers(c);
        std::ops::ControlFlow::Continue(())
    });
    total.min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh bench-file path private to one test.
    fn temp_bench(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ccmm_bench_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_sweep.json");
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn record_derives_throughput() {
        let u = Universe::new(3, 1);
        let r = SweepRecord::new("test", "serial", &u, 2, Duration::from_millis(500), 1000, 3);
        assert_eq!(r.universe_computations, 211);
        assert_eq!(r.threads, 2);
        assert!((r.wall_ms - 500.0).abs() < 1e-9);
        assert!((r.pairs_per_sec - 2000.0).abs() < 1e-6);
        assert_eq!(r.fixpoint_passes, 3);
    }

    #[test]
    fn record_round_trips_through_json() {
        let u = Universe::new(2, 1);
        let r = SweepRecord::new("rt", "parallel", &u, 4, Duration::from_millis(10), 42, 0);
        let json = serde_json::to_string(&serde::to_value(&r)).expect("serialize");
        let back: SweepRecord = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, r);
    }

    #[test]
    fn emit_appends_to_an_array() {
        let path = temp_bench("report");
        let u = Universe::new(2, 1);
        let r1 = SweepRecord::new("a", "serial", &u, 1, Duration::from_millis(1), 1, 0);
        let r2 = SweepRecord::new("b", "parallel", &u, 8, Duration::from_millis(2), 2, 1);
        emit(&path, std::slice::from_ref(&r1)).unwrap();
        emit(&path, std::slice::from_ref(&r2)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let v: serde::Value = serde_json::from_str(&text).unwrap();
        let serde::Value::Seq(items) = v else { panic!("not an array") };
        assert_eq!(items.len(), 2);
        let back: SweepRecord =
            serde::from_value::<_, serde_json::Error>(items[1].clone()).unwrap();
        assert_eq!(back, r2);
        // Baseline lookup: most recent record matching experiment/engine/
        // universe shape.
        let r3 = SweepRecord::new("a", "serial", &u, 2, Duration::from_millis(4), 8, 0);
        emit(&path, std::slice::from_ref(&r3)).unwrap();
        assert_eq!(latest_matching(&path, "a", "serial", &u, 2), Some(r3), "latest wins");
        assert_eq!(latest_matching(&path, "b", "parallel", &u, 8), Some(r2));
        assert_eq!(latest_matching(&path, "a", "parallel", &u, 2), None, "engine must match");
        assert_eq!(
            latest_matching(&path, "a", "serial", &Universe::new(3, 1), 2),
            None,
            "shape must match"
        );
        assert_eq!(latest_matching(&path, "a", "serial", &u, 4), None, "thread count must match");
        let missing = path.with_file_name("no_such_file.json");
        assert_eq!(
            latest_matching(missing, "a", "serial", &u, 2),
            None,
            "missing file is no baseline"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn status_defaults_to_complete_for_old_records() {
        // A committed baseline written before the `status` field existed.
        let legacy = r#"{
            "experiment": "old", "engine": "parallel", "max_nodes": 4,
            "num_locations": 1, "universe_computations": 9, "threads": 2,
            "wall_ms": 1.0, "pairs_checked": 10, "pairs_per_sec": 10000.0,
            "fixpoint_passes": 0
        }"#;
        let r: SweepRecord = serde_json::from_str(legacy).expect("legacy record parses");
        assert_eq!(r.status, "complete");
        // And a tagged record round-trips with its status intact.
        let u = Universe::new(2, 1);
        let r = SweepRecord::new("rt", "parallel", &u, 4, Duration::from_millis(10), 42, 0)
            .with_status("degraded");
        let json = serde_json::to_string(&serde::to_value(&r)).expect("serialize");
        let back: SweepRecord = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back.status, "degraded");
        assert_eq!(back, r);
    }

    #[test]
    fn counters_default_to_empty_and_round_trip() {
        // Records predating (or written without) telemetry have no
        // `counters` key at all.
        let legacy = r#"{
            "experiment": "old", "engine": "parallel", "max_nodes": 4,
            "num_locations": 1, "universe_computations": 9, "threads": 2,
            "wall_ms": 1.0, "pairs_checked": 10, "pairs_per_sec": 10000.0,
            "fixpoint_passes": 0, "status": "complete"
        }"#;
        let r: SweepRecord = serde_json::from_str(legacy).expect("counter-less record parses");
        assert!(r.counters.is_empty());
        let json = serde_json::to_string(&serde::to_value(&r)).expect("serialize");
        assert!(!json.contains("counters"), "empty counters are omitted: {json}");
        // A counter-tagged record round-trips with names and values intact.
        let u = Universe::new(2, 1);
        let r = SweepRecord::new("ct", "parallel", &u, 2, Duration::from_millis(5), 7, 0)
            .with_counters(vec![("pairs_checked".into(), 7), ("sc_memo_hits".into(), 3)]);
        let json = serde_json::to_string(&serde::to_value(&r)).expect("serialize");
        let back: SweepRecord = serde_json::from_str(&json).expect("round trip");
        assert_eq!(back, r);
    }

    #[test]
    fn lane_and_scalar_baselines_never_cross() {
        // The lane64 engine is ~an order of magnitude faster than the
        // scalar canonical engine, so `--gate` must only ever compare a
        // run against a baseline recorded by the SAME engine — otherwise
        // the first lane64 run would raise the bar and every later scalar
        // run would falsely fail (and vice versa falsely pass).
        let path = temp_bench("lane");
        let u = Universe::new(2, 1);
        let scalar = SweepRecord::new(
            "cli_sweep/memberships",
            "canonical",
            &u,
            1,
            Duration::from_millis(20),
            1000,
            0,
        );
        let lane = SweepRecord::new(
            "cli_sweep/memberships",
            "lane64",
            &u,
            1,
            Duration::from_millis(2),
            1000,
            0,
        );
        emit(&path, &[scalar.clone(), lane.clone()]).unwrap();
        assert_eq!(
            latest_matching(&path, "cli_sweep/memberships", "canonical", &u, 1),
            Some(scalar),
            "scalar gate must see the scalar baseline, not the faster lane record"
        );
        assert_eq!(
            latest_matching(&path, "cli_sweep/memberships", "lane64", &u, 1),
            Some(lane),
            "lane gate must see the lane baseline, not the slower scalar record"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_complete_records_are_not_baselines() {
        let path = temp_bench("status");
        let u = Universe::new(2, 1);
        let complete = SweepRecord::new("g", "parallel", &u, 1, Duration::from_millis(3), 6, 0);
        let partial = SweepRecord::new("g", "parallel", &u, 1, Duration::from_millis(1), 2, 0)
            .with_status("partial");
        emit(&path, &[complete.clone(), partial]).unwrap();
        // The newer partial record is skipped; the complete one wins.
        assert_eq!(latest_matching(&path, "g", "parallel", &u, 1), Some(complete));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn universe_pairs_counts_the_swept_space() {
        // 211 computations at (3,1); pairs = Σ observers.
        let u = Universe::new(2, 1);
        let mut expect = 0u64;
        let _ = u.for_each_computation(|c| {
            expect += ccmm_core::enumerate::all_observers(c).len() as u64;
            std::ops::ControlFlow::Continue(())
        });
        assert_eq!(universe_pairs(&u), expect);
    }
}
