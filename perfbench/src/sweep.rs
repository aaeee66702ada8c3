//! `sweep-b5` and `members-b6`: the exhaustive verdict sweeps.
//!
//! One `sweep-b5` unit is the full four-phase verdict at bound 5 (one
//! location, canonical lane64 enumeration): memberships, the Figure-1
//! lattice, the NN Δ* fixpoint, and one constructibility check per
//! model. One `members-b6` unit is the memberships phase alone at bound
//! 6. Both call only the public supervised entry points, with the
//! thread count passed explicitly.

use crate::measure::{median, Spans};
use crate::{Layers, Outcome, Workload};
use ccmm::core::constructible::lanes::LaneConstructible;
use ccmm::core::sweep::supervisor::{
    check_constructible_aug_lanes_supervised, lattice_lanes_supervised,
    memberships_lanes_supervised, Supervisor, SweepStatus,
};
use ccmm::core::sweep::SweepConfig;
use ccmm::core::telemetry::{self, Counter, NUM_COUNTERS};
use ccmm::core::universe::Universe;
use ccmm::core::{MemoryModel, Model, Nn};

const MODELS: [Model; 6] = [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

/// Weighted membership counts per model (SC, LC, NN, NW, WN, WW).
const B5_COUNTS: [u64; 6] = [494_488, 494_488, 514_080, 603_248, 520_856, 609_224];
const B5_PAIRS: u64 = 998_180;
/// EXPERIMENTS E19.
const B6_COUNTS: [u64; 6] =
    [41_364_162, 41_364_162, 45_278_654, 56_895_686, 46_806_254, 58_183_982];
const B6_PAIRS: u64 = 108_171_620;
/// NN* at bound 5: surviving pairs, deleted pairs, passes.
const B5_NNSTAR: (usize, usize, usize) = (513_984, 96, 1);
/// Constructible up to bound 5, per model.
const B5_CONSTRUCTIBLE: [bool; 6] = [true, true, false, false, false, true];
/// The bound-5 Figure-1 lattice: row model versus column model.
const B5_LATTICE: [&str; 6] =
    ["= = ⊊ ⊊ ⊊ ⊊", "= = ⊊ ⊊ ⊊ ⊊", "⊋ ⊋ = ⊊ ⊊ ⊊", "⊋ ⊋ ⊋ = ∥ ⊊", "⊋ ⊋ ⊋ ∥ = ⊊", "⊋ ⊋ ⊋ ⊋ ⊋ ="];

/// Telemetry counters of one phase.
type Counts = [u64; NUM_COUNTERS];

fn counter(c: &Counts, which: Counter) -> f64 {
    c[which as usize] as f64
}

/// An exhaustive sweep workload at one bound.
pub struct Sweep {
    bound: usize,
    /// All four phases (sweep-b5) or memberships only (members-b6).
    full: bool,
    threads: usize,
    u: Universe,
    cfg: SweepConfig,
    computations: u64,
}

impl Sweep {
    /// `sweep-b5`: the four-phase verdict at bound 5.
    pub fn b5(threads: usize) -> Self {
        Self::new(5, true, threads)
    }

    /// `members-b6`: the memberships phase at bound 6.
    pub fn b6(threads: usize) -> Self {
        Self::new(6, false, threads)
    }

    fn new(bound: usize, full: bool, threads: usize) -> Self {
        Sweep {
            bound,
            full,
            threads,
            u: Universe::new(bound, 1),
            cfg: SweepConfig::with_threads(threads).canonical(true),
            computations: 0,
        }
    }

    /// Runs one unit, checking every answer. In a traced unit the
    /// returned per-phase counters (memberships, lattice, fixpoint,
    /// constructibility) come from telemetry snapshots between phases.
    fn run_unit(&self, rec: &mut Spans, id: u64, errors: &mut Vec<String>) -> (f64, Vec<Counts>) {
        let sup = Supervisor::none();
        let (u, cfg) = (&self.u, &self.cfg);
        let mut phases = Vec::new();
        telemetry::snapshot_and_reset();
        let ((), wall) = rec.time("unit", id, |rec| {
            let (m, _) = rec.time("memberships", id, |_| {
                memberships_lanes_supervised(&MODELS, u, cfg, &sup, None, None)
            });
            phases.push(telemetry::snapshot_and_reset());
            let (pairs, counts) =
                if self.full { (B5_PAIRS, B5_COUNTS) } else { (B6_PAIRS, B6_COUNTS) };
            if m.status != SweepStatus::Complete
                || m.value.pairs != pairs
                || m.value.per_model != counts
            {
                errors.push(format!(
                    "memberships: {:?}, {} pairs, counts {:?}",
                    m.status, m.value.pairs, m.value.per_model
                ));
            }
            if !self.full {
                return;
            }
            let (lat, _) =
                rec.time("lattice", id, |_| lattice_lanes_supervised(&MODELS, u, cfg, &sup));
            phases.push(telemetry::snapshot_and_reset());
            let rows: Vec<String> = lat
                .value
                .iter()
                .map(|r| r.relations.iter().map(ToString::to_string).collect::<Vec<_>>().join(" "))
                .collect();
            if lat.status != SweepStatus::Complete || rows != B5_LATTICE {
                errors.push(format!("lattice: {:?}, rows {rows:?}", lat.status));
            }
            let (fix, _) = rec.time("fixpoint", id, |_| {
                LaneConstructible::compute_supervised(
                    &Nn::default(),
                    u,
                    cfg,
                    &sup,
                    None,
                    None,
                    true,
                )
            });
            phases.push(telemetry::snapshot_and_reset());
            let got = (fix.value.total_pairs(), fix.value.deleted, fix.value.passes);
            if fix.status != SweepStatus::Complete || got != B5_NNSTAR {
                errors.push(format!(
                    "NN* fixpoint: {:?}, (pairs, deleted, passes) {got:?}",
                    fix.status
                ));
            }
            let (checks, _) = rec.time("constructibility", id, |_| {
                MODELS
                    .iter()
                    .map(|m| check_constructible_aug_lanes_supervised(m, u, cfg, &sup))
                    .collect::<Vec<_>>()
            });
            phases.push(telemetry::snapshot_and_reset());
            for ((m, check), want) in MODELS.iter().zip(&checks).zip(B5_CONSTRUCTIBLE) {
                if check.status != SweepStatus::Complete || check.value.is_none() != want {
                    errors.push(format!(
                        "constructibility of {}: {:?}, constructible {}",
                        m.name(),
                        check.status,
                        check.value.is_none()
                    ));
                }
            }
        });
        (wall, phases)
    }
}

impl Workload for Sweep {
    fn setup(&mut self) -> Result<f64, String> {
        let t = std::time::Instant::now();
        let u = Universe::new(self.bound, 1);
        self.computations = u.count_computations_closed() as u64;
        self.cfg = SweepConfig::with_threads(self.threads).canonical(true);
        self.u = u;
        Ok(t.elapsed().as_secs_f64())
    }

    fn unit(&mut self, id: u64, rec: &mut Spans) -> Outcome {
        let mut errors = Vec::new();
        let (wall_s, _) = self.run_unit(rec, id, &mut errors);
        Outcome {
            wall_s,
            rtts_us: Vec::new(),
            attempted: 1,
            failed: u64::from(!errors.is_empty()),
            errors,
        }
    }

    fn ops_per_unit(&self) -> f64 {
        (if self.full { B5_PAIRS } else { B6_PAIRS }) as f64
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        vec![
            ("bound", self.bound.to_string()),
            ("computations", self.computations.to_string()),
            ("pairs", (self.ops_per_unit() as u64).to_string()),
        ]
    }

    /// Traced units: per-phase self times and the phase counters. The
    /// memberships and fixpoint counters must repeat exactly (DESIGN §9);
    /// lattice and constructibility stop early by design, so theirs may
    /// not.
    fn traced(&mut self, units: usize, _setup_s: f64, rec: &mut Spans, out: &mut Layers) {
        let mut per_unit: Vec<(f64, Vec<Counts>)> = Vec::new();
        for k in 0..units {
            let mut errors = Vec::new();
            let (wall, phases) = self.run_unit(rec, k as u64, &mut errors);
            out.traced_walls.push(wall);
            out.attempted += 1;
            if !errors.is_empty() {
                out.fail(errors.join("; "));
            }
            per_unit.push((wall, phases));
        }
        for (k, (_, phases)) in per_unit.iter().enumerate().skip(1) {
            let first = &per_unit[0].1;
            let deterministic = if self.full { [0, 2].as_slice() } else { [0].as_slice() };
            for &p in deterministic {
                if phases[p] != first[p] {
                    out.fail(format!("unit {k}: phase {p} counters differ from unit 0"));
                }
            }
        }
        let own = rec.self_secs();
        let self_time = |name: &str| -> f64 {
            median(&(0..units).map(|k| rec.self_secs_of(&own, name, k as u64)).collect::<Vec<_>>())
        };
        let walls: Vec<f64> = per_unit.iter().map(|u| u.0).collect();
        let cover = median(
            &(0..units)
                .map(|k| {
                    let layers: f64 = ["memberships", "lattice", "fixpoint", "constructibility"]
                        .iter()
                        .map(|n| rec.self_secs_of(&own, n, k as u64))
                        .sum();
                    layers / walls[k]
                })
                .collect::<Vec<_>>(),
        );
        let mem = &per_unit[0].1[0];
        if self.full {
            let lattice = &per_unit[0].1[1];
            let fix = &per_unit[0].1[2];
            out.push("b5_memberships_s", self_time("memberships"), "s");
            out.push("lattice_s", self_time("lattice"), "s");
            out.push("fixpoint_s", self_time("fixpoint"), "s");
            out.push("constructibility_s", self_time("constructibility"), "s");
            out.push(
                "lattice_rescan",
                counter(lattice, Counter::LabellingsScanned)
                    / counter(mem, Counter::LabellingsScanned),
                "ratio",
            );
            out.push("lane_fixpoint_words", counter(fix, Counter::LaneFixpointWords), "count");
            out.push("lane_deletions_masked", counter(fix, Counter::LaneDeletionsMasked), "count");
            out.push("b5_layer_cover", cover, "ratio");
            out.push("b5_unit_s", median(&walls), "s");
        } else {
            let hits = counter(mem, Counter::ScMemoHits);
            let misses = counter(mem, Counter::ScMemoMisses);
            out.push("memberships_s", self_time("memberships"), "s");
            out.push(
                "lane_fill",
                counter(mem, Counter::LaneSlots) / (64.0 * counter(mem, Counter::LaneWords)),
                "ratio",
            );
            out.push("sc_memo_hit_ratio", hits / (hits + misses), "ratio");
            out.push("pairs_checked", counter(mem, Counter::PairsChecked), "count");
            out.push("lane_early_exits", counter(mem, Counter::LaneEarlyExits), "count");
            out.push("b6_layer_cover", cover, "ratio");
            out.push("b6_unit_s", median(&walls), "s");
        }
    }
}
