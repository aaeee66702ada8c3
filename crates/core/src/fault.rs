//! Deterministic fault injection for the sweep supervisor.
//!
//! A [`FaultPlan`] names faults by *structural position* — panic at task
//! N, delay at task N, kill after K checkpoint records — never by wall
//! clock or ambient randomness, so every injected failure reproduces
//! exactly under `cargo test` and in CI. Seeded variants derive their
//! positions from a splitmix64 stream over the plan's `seed`, keeping
//! even "random" placement a pure function of the spec string.
//!
//! The plan is consulted by the supervised sweep engine
//! ([`crate::sweep::supervisor`]), the Δ* fixpoints
//! ([`crate::constructible`]), and the shared checkpoint journal
//! ([`crate::sweep::supervisor::Journal`]). An empty plan (the default)
//! injects nothing and costs a branch per hook.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Sentinel for "no resolved seeded target".
const NONE: usize = usize::MAX;

/// A deterministic fault-injection plan (see the module docs).
///
/// Built with [`FaultPlan::none`], the builder methods, or parsed from a
/// spec string ([`FaultPlan::from_spec`]) of comma-separated entries:
///
/// ```text
/// panic-at-task=7          panic the worker scanning task 7 (every attempt)
/// panic-once-at-task=7     panic only the first attempt (the retry heals)
/// delay-at-task=7:25       sleep 25 ms before scanning task 7
/// kill-after-ckpt=2        simulate a crash after 2 checkpoint records
/// panic-at-fixpoint=3      panic the Δ* initial-pass check of computation 3
/// panic-once-at-fixpoint=3 same, first attempt only
/// io-error-at-record=2     fail the write of checkpoint record 2 with an I/O error
/// panic-at-task=seeded     derive the task index from `seed` at resolve time
/// seed=42                  the seed for seeded placements (default 0)
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    panic_at_task: Option<usize>,
    panic_task_seeded: bool,
    panic_task_once: bool,
    delay_at_task: Option<(usize, u64)>,
    kill_after_records: Option<usize>,
    panic_at_fixpoint: Option<usize>,
    panic_fixpoint_once: bool,
    io_error_at_record: Option<usize>,
    seed: u64,
    resolved_task: AtomicUsize,
    task_fired: AtomicUsize,
    fixpoint_fired: AtomicUsize,
}

impl FaultPlan {
    /// The empty plan: injects nothing.
    pub fn none() -> Self {
        FaultPlan { resolved_task: AtomicUsize::new(NONE), ..FaultPlan::default() }
    }

    /// Panic every attempt at sweep task `idx`.
    pub fn panic_at_task(mut self, idx: usize) -> Self {
        self.panic_at_task = Some(idx);
        self.panic_task_once = false;
        self
    }

    /// Panic only the first attempt at sweep task `idx` (the supervisor's
    /// serial retry succeeds — the "transient fault" shape).
    pub fn panic_once_at_task(mut self, idx: usize) -> Self {
        self.panic_at_task = Some(idx);
        self.panic_task_once = true;
        self
    }

    /// Sleep `delay` before scanning task `idx`.
    pub fn delay_at_task(mut self, idx: usize, delay: Duration) -> Self {
        self.delay_at_task = Some((idx, delay.as_millis() as u64));
        self
    }

    /// Simulate a crash after `k` checkpoint records have been written in
    /// this run: the supervisor stops all workers and reports a killed
    /// partial sweep, leaving the checkpoint file exactly as a real kill
    /// would.
    pub fn kill_after_records(mut self, k: usize) -> Self {
        self.kill_after_records = Some(k);
        self
    }

    /// Panic every attempt at Δ* initial-pass check `idx`.
    pub fn panic_at_fixpoint(mut self, idx: usize) -> Self {
        self.panic_at_fixpoint = Some(idx);
        self.panic_fixpoint_once = false;
        self
    }

    /// Panic only the first attempt at Δ* initial-pass check `idx`.
    pub fn panic_once_at_fixpoint(mut self, idx: usize) -> Self {
        self.panic_at_fixpoint = Some(idx);
        self.panic_fixpoint_once = true;
        self
    }

    /// Fail the write of checkpoint record `k` (1-based) with an
    /// injected I/O error — the "disk full / permission lost mid-run"
    /// shape. The supervisor maps the failure to a `Degraded`
    /// completion, never a panic: the sweep's verdicts stay exact, only
    /// resumability is lost.
    pub fn io_error_at_record(mut self, k: usize) -> Self {
        self.io_error_at_record = Some(k);
        self
    }

    /// Parses the comma-separated spec grammar (see the type docs).
    /// Errors name the 1-based entry that failed, so a long spec pasted
    /// into a CLI flag points at the offending clause, not just the
    /// string. Parsing never panics; [`std::fmt::Display`] renders the
    /// canonical spec back, and parse ∘ display ∘ parse is the identity
    /// (pinned by `tests/proptest_fault.rs`).
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        parse_entries(spec, "fault spec", |key, value, at| {
            let parse = |v: &str| -> Result<usize, String> {
                v.parse().map_err(|_| at(format!("`{v}` is not a number")))
            };
            match key {
                "panic-at-task" | "panic-once-at-task" => {
                    if value == "seeded" {
                        plan.panic_task_seeded = true;
                    } else {
                        plan.panic_at_task = Some(parse(value)?);
                    }
                    plan.panic_task_once = key == "panic-once-at-task";
                }
                "delay-at-task" => {
                    let (idx, ms) =
                        value.split_once(':').ok_or_else(|| at("needs task:millis".into()))?;
                    plan.delay_at_task = Some((parse(idx)?, parse(ms)? as u64));
                }
                "kill-after-ckpt" => plan.kill_after_records = Some(parse(value)?),
                "io-error-at-record" => plan.io_error_at_record = Some(parse(value)?),
                "panic-at-fixpoint" | "panic-once-at-fixpoint" => {
                    plan.panic_at_fixpoint = Some(parse(value)?);
                    plan.panic_fixpoint_once = key == "panic-once-at-fixpoint";
                }
                "seed" => {
                    plan.seed =
                        value.parse().map_err(|_| at(format!("`{value}` is not a valid seed")))?;
                }
                other => return Err(at(format!("unknown fault key `{other}`"))),
            }
            Ok(())
        })?;
        Ok(plan)
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.panic_at_task.is_none()
            && !self.panic_task_seeded
            && self.delay_at_task.is_none()
            && self.kill_after_records.is_none()
            && self.panic_at_fixpoint.is_none()
            && self.io_error_at_record.is_none()
    }

    /// Resolves seeded placements against the actual task count. Called
    /// once by the supervisor before distributing work; idempotent.
    pub fn resolve(&self, num_tasks: usize) {
        if self.panic_task_seeded && num_tasks > 0 {
            self.resolved_task.store(splitmix64(self.seed) as usize % num_tasks, Ordering::Relaxed);
        }
    }

    /// Like [`FaultPlan::resolve`], but picks from an explicit list of
    /// task indices — canonical sweeps have gaps in their global index
    /// space, so the seeded target must be drawn from the indices that
    /// actually exist.
    pub fn resolve_indices(&self, ids: &[usize]) {
        if self.panic_task_seeded && !ids.is_empty() {
            let pick = ids[splitmix64(self.seed) as usize % ids.len()];
            self.resolved_task.store(pick, Ordering::Relaxed);
        }
    }

    fn panic_target(&self) -> Option<usize> {
        self.panic_at_task.or({
            let r = self.resolved_task.load(Ordering::Relaxed);
            (r != NONE).then_some(r)
        })
    }

    /// Hook: called by every worker (and by the serial retry) before
    /// scanning sweep task `idx`. May sleep; may panic (the injected
    /// fault). `once` faults fire only on the first attempt.
    pub fn before_task(&self, idx: usize) {
        if let Some((t, ms)) = self.delay_at_task {
            if t == idx {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        if self.panic_target() == Some(idx) {
            let prior = self.task_fired.fetch_add(1, Ordering::Relaxed);
            if !self.panic_task_once || prior == 0 {
                std::panic::panic_any(format!("injected fault: panic at task {idx}"));
            }
        }
    }

    /// Hook: called before the Δ* initial-pass extension check of
    /// interior computation `idx`.
    pub fn before_fixpoint_check(&self, idx: usize) {
        if self.panic_at_fixpoint == Some(idx) {
            let prior = self.fixpoint_fired.fetch_add(1, Ordering::Relaxed);
            if !self.panic_fixpoint_once || prior == 0 {
                std::panic::panic_any(format!("injected fault: panic at fixpoint check {idx}"));
            }
        }
    }

    /// Hook: consulted after each checkpoint record; true means "the
    /// process dies now" (simulated by the supervisor as a hard stop).
    pub fn should_kill(&self, records_written: usize) -> bool {
        self.kill_after_records.is_some_and(|k| records_written >= k)
    }

    /// Hook: consulted before writing checkpoint record `record_idx`
    /// (1-based); true means the write must fail with an injected
    /// [`std::io::Error`] instead of reaching the disk.
    pub fn io_error_at(&self, record_idx: usize) -> bool {
        self.io_error_at_record == Some(record_idx)
    }
}

impl std::fmt::Display for FaultPlan {
    /// Renders the canonical spec string: parsing the output reproduces
    /// the plan exactly (`from_spec ∘ to_string` is the identity on
    /// parsed plans). Entries appear in a fixed order regardless of the
    /// order they were parsed in; an empty plan renders as the empty
    /// string, which `from_spec` accepts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let task_key = if self.panic_task_once { "panic-once-at-task" } else { "panic-at-task" };
        let fixpoint_key =
            if self.panic_fixpoint_once { "panic-once-at-fixpoint" } else { "panic-at-fixpoint" };
        render(
            f,
            [
                self.panic_at_task.map(|t| format!("{task_key}={t}")),
                self.panic_task_seeded.then(|| format!("{task_key}=seeded")),
                self.delay_at_task.map(|(idx, ms)| format!("delay-at-task={idx}:{ms}")),
                self.kill_after_records.map(|k| format!("kill-after-ckpt={k}")),
                self.io_error_at_record.map(|k| format!("io-error-at-record={k}")),
                self.panic_at_fixpoint.map(|i| format!("{fixpoint_key}={i}")),
                (self.seed != 0).then(|| format!("seed={}", self.seed)),
            ],
        )
    }
}

/// A deterministic schedule-perturbation plan for the threaded BACKER
/// executor (`ccmm_backer::threads` consumes it via
/// `ccmm_backer::perturb`). Where [`FaultPlan`] breaks a sweep on
/// purpose, a `PerturbPlan` merely *jostles* an executor — injected
/// yields, busy-spin delays, and steal-victim rotation at structural
/// positions — so the scheduler explores interleavings plain CI would
/// never reach. Every decision is a pure function of
/// `(seed, structural position)`: the same plan injects the same
/// perturbations at the same nodes on every run, even though the OS
/// interleaving that results is not itself reproducible.
///
/// Spec grammar (comma-separated, like [`FaultPlan::from_spec`]):
///
/// ```text
/// yield=1/K      yield_now() before positions where hash(seed,pos) % K == 0
/// spin=1/K:S     busy-spin S iterations at positions where the hash hits
/// steal=rotate   rotate each worker's steal-victim scan start per attempt
/// seed=N         the seed all decision hashes derive from (default 0)
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PerturbPlan {
    yield_den: u32,
    spin_den: u32,
    spin_iters: u32,
    steal_rotate: bool,
    seed: u64,
}

impl PerturbPlan {
    /// The empty plan: injects nothing, scans steal victims in index
    /// order — the executor behaves exactly as without a plan.
    pub fn none() -> Self {
        PerturbPlan::default()
    }

    /// The stress harness default: yield at half the positions, spin 64
    /// iterations at an eighth of them, rotate steal victims.
    pub fn aggressive(seed: u64) -> Self {
        PerturbPlan { yield_den: 2, spin_den: 8, spin_iters: 64, steal_rotate: true, seed }
    }

    /// Replaces the seed, keeping the injection shape (used to derive
    /// per-iteration plans from one parsed spec).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.yield_den == 0 && self.spin_den == 0 && !self.steal_rotate
    }

    /// Parses the spec grammar (see the type docs). Same error contract
    /// as [`FaultPlan::from_spec`]: entry-numbered errors, never panics,
    /// and `from_spec ∘ to_string` is the identity.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = PerturbPlan::none();
        parse_entries(spec, "perturb spec", |key, value, at| {
            let ratio = |v: &str| {
                ratio(v, at, |k| {
                    k.parse::<u32>().map_err(|_| at(format!("`{v}` is not a 1/K ratio")))
                })
            };
            match key {
                "yield" => plan.yield_den = ratio(value)?,
                "spin" => {
                    let (r, iters) =
                        value.split_once(':').ok_or_else(|| at("needs 1/K:iters".into()))?;
                    plan.spin_den = ratio(r)?;
                    plan.spin_iters =
                        iters.parse().map_err(|_| at(format!("`{iters}` is not a number")))?;
                }
                "steal" => match value {
                    "rotate" => plan.steal_rotate = true,
                    other => return Err(at(format!("unknown steal mode `{other}`"))),
                },
                "seed" => {
                    plan.seed =
                        value.parse().map_err(|_| at(format!("`{value}` is not a valid seed")))?;
                }
                other => return Err(at(format!("unknown perturb key `{other}`"))),
            }
            Ok(())
        })?;
        Ok(plan)
    }

    /// The decision hash: a pure function of the plan seed, a salt
    /// distinguishing the decision kind, and the structural position.
    fn decide(&self, salt: u64, pos: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(salt.wrapping_mul(0xA24B_AED4_963E_E407) ^ pos))
    }

    /// Whether to yield before structural position `pos` in phase
    /// `phase` (the executor uses distinct phases for "before executing
    /// a node" and "before notifying its successors").
    pub fn yield_at(&self, phase: u64, pos: usize) -> bool {
        self.yield_den != 0
            && self.decide(phase << 1, pos as u64).is_multiple_of(self.yield_den as u64)
    }

    /// Busy-spin iterations to inject before position `pos` in `phase`
    /// (0 = none).
    pub fn spin_at(&self, phase: u64, pos: usize) -> u32 {
        if self.spin_den != 0
            && self.decide((phase << 1) | 1, pos as u64).is_multiple_of(self.spin_den as u64)
        {
            self.spin_iters
        } else {
            0
        }
    }

    /// The steal-victim index worker `me` should try first on its
    /// `attempt`-th steal attempt. Without `steal=rotate` this is always
    /// 0 (scan in index order, the un-perturbed behaviour).
    pub fn steal_start(&self, me: usize, attempt: u64, num_victims: usize) -> usize {
        if self.steal_rotate && num_victims > 0 {
            (self.decide(0x57EA_1000 ^ me as u64, attempt) % num_victims as u64) as usize
        } else {
            0
        }
    }
}

impl std::fmt::Display for PerturbPlan {
    /// Canonical spec rendering; same identity contract as
    /// [`FaultPlan`]'s `Display`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        render(
            f,
            [
                (self.yield_den != 0).then(|| format!("yield=1/{}", self.yield_den)),
                (self.spin_den != 0)
                    .then(|| format!("spin=1/{}:{}", self.spin_den, self.spin_iters)),
                self.steal_rotate.then(|| "steal=rotate".to_string()),
                (self.seed != 0).then(|| format!("seed={}", self.seed)),
            ],
        )
    }
}

/// The faults a [`ServeFaultPlan`] injects into one request, resolved
/// at admission from the request's global index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeFault {
    /// Panic the handler (quarantined into a `degraded` reply).
    pub panic: bool,
    /// Close the connection without replying (client sees EOF).
    pub drop_conn: bool,
    /// Write only a prefix of the reply frame, then close (client sees
    /// a torn frame).
    pub truncate: bool,
    /// Sleep this long before replying (0 = no delay).
    pub delay_ms: u64,
}

/// A deterministic fault plan for the `ccmm serve` daemon — the
/// request/response sibling of [`FaultPlan`] (batch sweeps) and
/// [`PerturbPlan`] (executor schedules). Faults are named by *global
/// request index* (the order the server admitted them), either exactly
/// (`panic-at-request=7`) or at a seeded 1/K rate (`panic=1/13`); rate
/// decisions hash `(seed, kind, index)` through splitmix64, so a spec
/// string plus a request trace replays every injected fault exactly.
///
/// Spec grammar (comma-separated, same contract as
/// [`FaultPlan::from_spec`]: entry-numbered errors, never panics,
/// `from_spec ∘ to_string` is the identity):
///
/// ```text
/// panic-at-request=N      panic the handler of request N (0-based)
/// drop-at-request=N       close request N's connection without replying
/// truncate-at-request=N   send request N a torn reply frame, then close
/// delay-at-request=N:MS   sleep MS ms before replying to request N
/// panic=1/K               panic where hash(seed,kind,idx) % K == 0
/// drop=1/K                drop at the same seeded rate shape
/// truncate=1/K            truncate at the seeded rate
/// delay=1/K:MS            delay MS ms at the seeded rate
/// seed=S                  the seed rate decisions derive from (default 0)
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeFaultPlan {
    panic_at: Option<u64>,
    drop_at: Option<u64>,
    truncate_at: Option<u64>,
    delay_at: Option<(u64, u64)>,
    panic_den: u64,
    drop_den: u64,
    truncate_den: u64,
    delay_den: u64,
    delay_ms: u64,
    seed: u64,
}

impl ServeFaultPlan {
    /// The empty plan: every request is served faithfully.
    pub fn none() -> Self {
        ServeFaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        *self == ServeFaultPlan::none()
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Parses the spec grammar (see the type docs).
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut plan = ServeFaultPlan::none();
        parse_entries(spec, "serve fault spec", |key, value, at| {
            let num = |v: &str| -> Result<u64, String> {
                v.parse().map_err(|_| at(format!("`{v}` is not a number")))
            };
            let ratio = |v: &str| ratio(v, at, num);
            match key {
                "panic-at-request" => plan.panic_at = Some(num(value)?),
                "drop-at-request" => plan.drop_at = Some(num(value)?),
                "truncate-at-request" => plan.truncate_at = Some(num(value)?),
                "delay-at-request" => {
                    let (idx, ms) =
                        value.split_once(':').ok_or_else(|| at("needs request:millis".into()))?;
                    plan.delay_at = Some((num(idx)?, num(ms)?));
                }
                "panic" => plan.panic_den = ratio(value)?,
                "drop" => plan.drop_den = ratio(value)?,
                "truncate" => plan.truncate_den = ratio(value)?,
                "delay" => {
                    let (r, ms) =
                        value.split_once(':').ok_or_else(|| at("needs 1/K:millis".into()))?;
                    plan.delay_den = ratio(r)?;
                    plan.delay_ms = num(ms)?;
                }
                "seed" => plan.seed = num(value)?,
                other => return Err(at(format!("unknown serve fault key `{other}`"))),
            }
            Ok(())
        })?;
        Ok(plan)
    }

    /// The rate-decision hash: pure in `(seed, kind salt, request idx)`.
    fn hits(&self, den: u64, salt: u64, idx: u64) -> bool {
        den != 0
            && splitmix64(self.seed ^ splitmix64(salt.wrapping_mul(0xA24B_AED4_963E_E407) ^ idx))
                .is_multiple_of(den)
    }

    /// Resolves the faults to inject into request `idx` (the server's
    /// global admission index). Pure: the same plan and index always
    /// resolve to the same [`ServeFault`].
    pub fn action(&self, idx: u64) -> ServeFault {
        ServeFault {
            panic: self.panic_at == Some(idx) || self.hits(self.panic_den, 1, idx),
            drop_conn: self.drop_at == Some(idx) || self.hits(self.drop_den, 2, idx),
            truncate: self.truncate_at == Some(idx) || self.hits(self.truncate_den, 3, idx),
            delay_ms: if self.delay_at.is_some_and(|(i, _)| i == idx) {
                self.delay_at.unwrap().1
            } else if self.hits(self.delay_den, 4, idx) {
                self.delay_ms
            } else {
                0
            },
        }
    }
}

impl std::fmt::Display for ServeFaultPlan {
    /// Canonical spec rendering; same identity contract as
    /// [`FaultPlan`]'s `Display`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rate = |den: u64, key: &str| (den != 0).then(|| format!("{key}=1/{den}"));
        render(
            f,
            [
                self.panic_at.map(|i| format!("panic-at-request={i}")),
                self.drop_at.map(|i| format!("drop-at-request={i}")),
                self.truncate_at.map(|i| format!("truncate-at-request={i}")),
                self.delay_at.map(|(i, ms)| format!("delay-at-request={i}:{ms}")),
                rate(self.panic_den, "panic"),
                rate(self.drop_den, "drop"),
                rate(self.truncate_den, "truncate"),
                rate(self.delay_den, "delay").map(|r| format!("{r}:{}", self.delay_ms)),
                (self.seed != 0).then(|| format!("seed={}", self.seed)),
            ],
        )
    }
}

/// Walks a comma-separated spec: calls `entry(key, value, at)` for each
/// non-empty entry, where `at` prefixes an error message with the
/// grammar's `what`, the entry's 1-based number and the entry itself.
fn parse_entries(
    spec: &str,
    what: &str,
    mut entry: impl FnMut(&str, &str, &dyn Fn(String) -> String) -> Result<(), String>,
) -> Result<(), String> {
    for (i, e) in spec.split(',').map(str::trim).filter(|e| !e.is_empty()).enumerate() {
        let at = |msg: String| format!("{what} entry {} (`{e}`): {msg}", i + 1);
        let (key, value) = e.split_once('=').ok_or_else(|| at("needs key=value".into()))?;
        entry(key, value, &at)?;
    }
    Ok(())
}

/// Parses a `1/K` ratio with K ≥ 1; `den` parses K and words its own
/// error.
fn ratio<T: Default + PartialEq>(
    v: &str,
    at: &dyn Fn(String) -> String,
    den: impl FnOnce(&str) -> Result<T, String>,
) -> Result<T, String> {
    let k = den(v.strip_prefix("1/").ok_or_else(|| at(format!("`{v}` is not a 1/K ratio")))?)?;
    if k == T::default() {
        return Err(at("ratio denominator must be at least 1".into()));
    }
    Ok(k)
}

/// Writes the present entries comma-joined: the canonical spec string.
fn render(
    f: &mut std::fmt::Formatter<'_>,
    entries: impl IntoIterator<Item = Option<String>>,
) -> std::fmt::Result {
    f.write_str(&entries.into_iter().flatten().collect::<Vec<_>>().join(","))
}

/// splitmix64: the standard 64-bit mix, used to derive seeded fault
/// positions deterministically.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Renders a caught panic payload as a string (String and &str payloads
/// verbatim, anything else a placeholder).
pub fn payload_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        for i in 0..100 {
            plan.before_task(i);
            plan.before_fixpoint_check(i);
        }
        assert!(!plan.should_kill(1000));
    }

    #[test]
    fn spec_round_trip_and_panics() {
        let plan = FaultPlan::from_spec("panic-at-task=3,kill-after-ckpt=2").unwrap();
        assert!(!plan.is_empty());
        plan.before_task(2);
        let err = std::panic::catch_unwind(|| plan.before_task(3)).unwrap_err();
        assert!(payload_string(err).contains("panic at task 3"));
        // Persistent faults fire on the retry too.
        assert!(std::panic::catch_unwind(|| plan.before_task(3)).is_err());
        assert!(!plan.should_kill(1));
        assert!(plan.should_kill(2));
        assert!(plan.should_kill(3));
    }

    #[test]
    fn once_faults_heal_on_retry() {
        let plan = FaultPlan::from_spec("panic-once-at-task=5").unwrap();
        assert!(std::panic::catch_unwind(|| plan.before_task(5)).is_err());
        plan.before_task(5); // retry succeeds
        let fx = FaultPlan::from_spec("panic-once-at-fixpoint=1").unwrap();
        assert!(std::panic::catch_unwind(|| fx.before_fixpoint_check(1)).is_err());
        fx.before_fixpoint_check(1);
    }

    #[test]
    fn seeded_target_is_deterministic_and_in_range() {
        let a = FaultPlan::from_spec("panic-at-task=seeded,seed=42").unwrap();
        let b = FaultPlan::from_spec("panic-at-task=seeded,seed=42").unwrap();
        a.resolve(17);
        b.resolve(17);
        let t = a.panic_target().unwrap();
        assert!(t < 17);
        assert_eq!(Some(t), b.panic_target(), "same seed, same target");
    }

    #[test]
    fn bad_specs_are_rejected_with_entry_numbers() {
        assert!(FaultPlan::from_spec("panic-at-task").is_err());
        assert!(FaultPlan::from_spec("panic-at-task=x").is_err());
        assert!(FaultPlan::from_spec("delay-at-task=3").is_err());
        assert!(FaultPlan::from_spec("frobnicate=1").is_err());
        let err = FaultPlan::from_spec("kill-after-ckpt=2,delay-at-task=3").unwrap_err();
        assert!(err.contains("entry 2"), "error must point at the failing entry: {err}");
        assert!(err.contains("delay-at-task=3"), "error must quote the entry: {err}");
    }

    #[test]
    fn display_round_trips_the_spec() {
        for spec in [
            "",
            "panic-at-task=3",
            "panic-once-at-task=seeded,seed=9",
            "panic-at-task=7,delay-at-task=2:25,kill-after-ckpt=1,panic-once-at-fixpoint=4,seed=3",
        ] {
            let plan = FaultPlan::from_spec(spec).unwrap();
            let rendered = plan.to_string();
            let again = FaultPlan::from_spec(&rendered).unwrap();
            assert_eq!(rendered, again.to_string(), "display must be a fixpoint for `{spec}`");
        }
        // Out-of-order input canonicalises.
        let plan = FaultPlan::from_spec("seed=5,panic-at-task=seeded").unwrap();
        assert_eq!(plan.to_string(), "panic-at-task=seeded,seed=5");
    }

    #[test]
    fn perturb_plan_spec_round_trips_and_decides_deterministically() {
        let plan = PerturbPlan::from_spec("yield=1/2,spin=1/8:64,steal=rotate,seed=42").unwrap();
        assert_eq!(plan, PerturbPlan::aggressive(42));
        assert_eq!(PerturbPlan::from_spec(&plan.to_string()).unwrap(), plan);
        assert_eq!(PerturbPlan::from_spec("").unwrap(), PerturbPlan::none());
        assert!(PerturbPlan::none().is_empty());
        assert_eq!(PerturbPlan::none().to_string(), "");

        // Decisions are pure functions of (seed, phase, position).
        let twin = PerturbPlan::aggressive(42);
        for pos in 0..64 {
            assert_eq!(plan.yield_at(0, pos), twin.yield_at(0, pos));
            assert_eq!(plan.spin_at(1, pos), twin.spin_at(1, pos));
            assert_eq!(plan.steal_start(1, pos as u64, 4), twin.steal_start(1, pos as u64, 4));
            assert!(plan.steal_start(1, pos as u64, 4) < 4);
        }
        // A different seed decides differently somewhere.
        let other = PerturbPlan::aggressive(43);
        assert!((0..64).any(|p| plan.yield_at(0, p) != other.yield_at(0, p)));
        // The empty plan never perturbs and scans victims in order.
        let none = PerturbPlan::none();
        for pos in 0..16 {
            assert!(!none.yield_at(0, pos));
            assert_eq!(none.spin_at(0, pos), 0);
            assert_eq!(none.steal_start(0, pos as u64, 4), 0);
        }
    }

    #[test]
    fn io_error_arm_round_trips_and_fires_once() {
        let plan = FaultPlan::from_spec("io-error-at-record=2").unwrap();
        assert!(!plan.is_empty());
        assert!(!plan.io_error_at(1));
        assert!(plan.io_error_at(2));
        assert!(!plan.io_error_at(3), "exactly record 2, not every record after");
        assert_eq!(plan.to_string(), "io-error-at-record=2");
        let again = FaultPlan::from_spec(&plan.to_string()).unwrap();
        assert_eq!(again.to_string(), plan.to_string());
        assert!(!FaultPlan::none().io_error_at(1));
        assert!(FaultPlan::from_spec("io-error-at-record=x").is_err());
    }

    #[test]
    fn serve_fault_plan_round_trips_and_is_deterministic() {
        let spec = "panic-at-request=7,delay-at-request=2:25,panic=1/13,drop=1/17,\
                    truncate=1/19,delay=1/29:5,seed=42";
        let plan = ServeFaultPlan::from_spec(spec).unwrap();
        assert!(!plan.is_empty());
        assert_eq!(ServeFaultPlan::from_spec(&plan.to_string()).unwrap(), plan);
        assert_eq!(plan.to_string(), spec.replace(char::is_whitespace, ""));
        assert_eq!(ServeFaultPlan::from_spec("").unwrap(), ServeFaultPlan::none());
        assert_eq!(ServeFaultPlan::none().to_string(), "");

        // Exact placements fire at exactly their index.
        assert!(plan.action(7).panic);
        assert_eq!(plan.action(2).delay_ms, 25);
        // Rate decisions are pure in (seed, kind, index)…
        let twin = ServeFaultPlan::from_spec(spec).unwrap();
        for idx in 0..512 {
            assert_eq!(plan.action(idx), twin.action(idx));
        }
        // …actually fire somewhere at roughly the asked rate…
        let fired = (0..512).filter(|&i| plan.action(i).drop_conn).count();
        assert!(fired > 0 && fired < 128, "1/17 over 512 requests fired {fired} times");
        // …and move when the seed does.
        let other = ServeFaultPlan::from_spec(&spec.replace("seed=42", "seed=43")).unwrap();
        assert!((0..512).any(|i| plan.action(i) != other.action(i)));
        // The empty plan never injects.
        assert_eq!(ServeFaultPlan::none().action(0), ServeFault::default());
    }

    #[test]
    fn serve_fault_bad_specs_are_entry_numbered_errors() {
        for bad in
            ["panic=2", "panic=1/0", "delay=1/4", "delay-at-request=3", "zap=1", "panic-at-request"]
        {
            let err = ServeFaultPlan::from_spec(bad).unwrap_err();
            assert!(err.contains("entry 1"), "`{bad}` → {err}");
        }
        let err = ServeFaultPlan::from_spec("seed=1,drop=1/x").unwrap_err();
        assert!(err.contains("entry 2") && err.contains("drop=1/x"), "{err}");
    }

    #[test]
    fn perturb_bad_specs_are_entry_numbered_errors() {
        for bad in ["yield=2", "yield=1/0", "spin=1/4", "steal=shuffle", "zap=1", "yield"] {
            let err = PerturbPlan::from_spec(bad).unwrap_err();
            assert!(err.contains("entry 1"), "`{bad}` → {err}");
        }
        let err = PerturbPlan::from_spec("seed=1,spin=1/2:x").unwrap_err();
        assert!(err.contains("entry 2") && err.contains("spin=1/2:x"), "{err}");
    }
}
