//! `serve-session`: closed-loop sessions against a fresh in-process
//! `ccmm serve`.
//!
//! Set-up generates a seeded request sequence and its expected verdicts
//! (direct `Model::contains`). One unit is one session: spawn a server
//! with an empty cache, replay two disjoint halves of the sequence over
//! two `client::Connection`s, then drain. Every request is a `models`
//! query, of three kinds:
//!
//! * **hot** — repeats of a hot set of 4–8-node pairs (litmus shapes and
//!   seeded random pairs): cache hits that still pay canonicalisation;
//! * **cold** — first-seen 4–8-node pairs: cache misses;
//! * **literal** — 11–26-node pairs whose observers were harvested from
//!   BACKER runs of small Cilk programs: literal cache keys, dominated
//!   by the checks.
//!
//! The halves share no canonical key, so each connection's hit/miss
//! pattern is fixed by its own order whatever the interleaving. Dag
//! shapes of the random pairs come from a fixed pool (the seed draws
//! their ops and observers), because canonicalisation cost is set by the
//! shape: a seed then changes the verdicts, not the cost of a session.

use crate::measure::{median, Spans};
use crate::{Layers, Outcome, Workload};
use ccmm::client::Connection;
use ccmm::conformance::sources::{random_computation, random_observer};
use ccmm::core::model::CheckScratch;
use ccmm::core::serve::{
    encode_frame, mix64, parse_request, render_request, verdict_key, verdict_line, FrameDecoder,
    FrameEvent, Reply, Request, Verb, VerdictCache, SERVED_MODELS,
};
use ccmm::core::{litmus, Computation, Location, MemoryModel, Model, ObserverFunction, Op};
use ccmm::dag::topo::count_topo_sorts_dp;
use ccmm::dag::Dag;
use ccmm::serve::{spawn, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// Seed of the fixed dag-shape pool (not the workload seed).
const SHAPE_SEED: u64 = 0x00c0_ffee;
/// Shapes in the pool.
const SHAPES: usize = 96;
/// Largest number of linear extensions a pooled shape may have: it
/// bounds the canonicalisation cost of one key.
const EXTENSION_CAP: u128 = 720;
/// Per half: litmus shapes and seeded random pairs in the hot set.
const HOT_LITMUS: usize = 4;
const HOT_RANDOM: usize = 12;
/// Asks of each hot pair per half (the first one misses).
const HOT_REPEATS: usize = 30;
/// Per half: first-seen random pairs.
const COLD: usize = 90;
/// Per half: harvested pairs per Cilk program.
const LITERAL_PER_PROGRAM: usize = 4;
/// Verdict-cache capacity: large enough that nothing is evicted, since
/// eviction order would make the hit pattern depend on interleaving.
const CACHE_CAPACITY: usize = 1 << 16;
/// Client connect and round-trip timeout.
const TIMEOUT_MS: u64 = 30_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Hot,
    Cold,
    Literal,
}

const KINDS: [Kind; 3] = [Kind::Hot, Kind::Cold, Kind::Literal];

/// One request of the sequence with its expected reply.
#[derive(Clone, PartialEq)]
struct Req {
    payload: Vec<u8>,
    expected: Vec<String>,
    cached: bool,
    kind: Kind,
}

/// The generated session: two halves, one per connection.
#[derive(Clone, PartialEq)]
struct Plan {
    halves: [Vec<Req>; 2],
}

impl Plan {
    fn requests(&self) -> usize {
        self.halves.iter().map(Vec::len).sum()
    }

    /// Expected verdict-cache (hits, misses) of one session: a request
    /// looks up six keys, all hits when cached.
    fn cache_traffic(&self) -> (u64, u64) {
        let cached = self.halves.iter().flatten().filter(|r| r.cached).count() as u64;
        let n = SERVED_MODELS.len() as u64;
        (n * cached, n * (self.requests() as u64 - cached))
    }
}

/// The `serve-session` workload.
pub struct Serve {
    seed: u64,
    plan: Option<Plan>,
}

impl Serve {
    /// A workload whose sequence is drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        Serve { seed, plan: None }
    }

    fn plan(&self) -> &Plan {
        self.plan.as_ref().expect("set-up runs before the first unit")
    }

    /// One session over TCP. Returns the outcome plus the spawn and
    /// drain times and each connection's summed round trips.
    fn session(&self, rec: &mut Spans, id: u64) -> (Outcome, [f64; 2], Vec<f64>) {
        let plan = self.plan();
        let mut out = Outcome { attempted: plan.requests() as u64, ..Outcome::default() };
        let mut spawn_drain = [0.0; 2];
        let mut per_conn = Vec::new();
        let (stats, wall) = rec.time("session", id, |rec| {
            let (handle, t_spawn) = rec.time("spawn", id, |_| spawn(server_config()));
            spawn_drain[0] = t_spawn;
            let handle = match handle {
                Ok(h) => h,
                Err(e) => {
                    out.errors.push(format!("spawn failed: {e}"));
                    return None;
                }
            };
            let addr = handle.addr.to_string();
            let halves: Vec<_> = std::thread::scope(|s| {
                let joins: Vec<_> = plan
                    .halves
                    .iter()
                    .enumerate()
                    .map(|(h, half)| {
                        let mut conn_rec = rec.fork(h + 1);
                        let addr = &addr;
                        s.spawn(move || {
                            let r = replay(addr, half, &mut conn_rec, id);
                            (r, conn_rec)
                        })
                    })
                    .collect();
                joins.into_iter().map(|j| j.join().expect("client thread panicked")).collect()
            });
            for ((rtts, failed, errors), conn_rec) in halves {
                per_conn.push(rtts.iter().sum::<f64>() / 1e6);
                out.rtts_us.extend(rtts);
                out.failed += failed;
                out.errors.extend(errors);
                rec.adopt(conn_rec);
            }
            let (stats, t_drain) = rec.time("drain", id, |_| handle.shutdown());
            spawn_drain[1] = t_drain;
            Some(stats)
        });
        out.wall_s = wall;
        match stats {
            None => out.failed = out.attempted,
            Some(stats) => {
                let (hits, misses) = plan.cache_traffic();
                let want = plan.requests() as u64;
                if (stats.cache_hits, stats.cache_misses) != (hits, misses)
                    || stats.served != want
                    || stats.connections_accepted != 2
                    || stats.connections_closed != 2
                {
                    out.failed = out.failed.max(1);
                    out.errors.push(format!(
                        "server stats {stats:?}, expected {hits} hits / {misses} misses / {want} served"
                    ));
                }
            }
        }
        (out, spawn_drain, per_conn)
    }
}

fn server_config() -> ServeConfig {
    ServeConfig { cache_capacity: CACHE_CAPACITY, ..ServeConfig::default() }
}

/// Replays one half over one connection: `(round trips in µs, failed
/// requests, first errors)`.
fn replay(addr: &str, half: &[Req], rec: &mut Spans, session: u64) -> (Vec<f64>, u64, Vec<String>) {
    let mut rtts = Vec::with_capacity(half.len());
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let mut conn = None;
    for (i, req) in half.iter().enumerate() {
        let mut fail = |msg: String| {
            failed += 1;
            if errors.len() < 3 {
                errors.push(format!("session {session} request {i}: {msg}"));
            }
        };
        if conn.is_none() {
            match Connection::connect(addr, TIMEOUT_MS) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    fail(format!("connect: {e}"));
                    continue;
                }
            }
        }
        let c = conn.as_mut().expect("connected above");
        let (reply, secs) = rec.time("roundtrip", i as u64, |_| c.roundtrip(&req.payload));
        rtts.push(secs * 1e6);
        match reply {
            Ok(Reply::Ok { body, cached }) if body == req.expected && cached == req.cached => {}
            Ok(other) => {
                fail(format!("reply {other:?}, expected {:?} cached={}", req.expected, req.cached))
            }
            Err(e) => {
                conn = None; // reconnect for the rest of the half
                fail(format!("transport: {e}"));
            }
        }
    }
    (rtts, failed, errors)
}

/// Per-stage handler time of one in-process replay, in seconds.
#[derive(Default)]
struct Stages {
    decode: f64,
    parse: f64,
    canon: [f64; 3],
    cache: f64,
    check: [f64; 3],
    encode: f64,
    canon_calls: u64,
    hits: u64,
    lookups: u64,
    handler: f64,
}

/// Replays both halves through the server's stage functions in process
/// (frame decode, parse, canonicalisation, cache, check, encode) with a
/// fresh cache, timing each stage. Checks every reply like the session.
fn replay_in_process(plan: &Plan, rec: &mut Spans, session: u64, out: &mut Layers) -> Stages {
    let mut st = Stages::default();
    let cache = VerdictCache::new(8, CACHE_CAPACITY);
    let mut scratch = CheckScratch::new();
    for (h, half) in plan.halves.iter().enumerate() {
        let mut decoder = FrameDecoder::new();
        for (i, req) in half.iter().enumerate() {
            let k = KINDS.iter().position(|&k| k == req.kind).expect("known kind");
            let frame = encode_frame(&req.payload);
            let id = session * 1_000_000 + (h * half.len() + i) as u64;
            let (reply, secs) = rec.time("request", id, |rec| {
                let (event, t) = rec.time("decode", id, |_| {
                    decoder.push(&frame);
                    decoder.next_event()
                });
                st.decode += t;
                let Some(FrameEvent::Frame(payload)) = event else { return None };
                let (parsed, t) = rec.time("parse", id, |_| parse_request(&payload));
                st.parse += t;
                let Ok(Request { verb: Verb::Models { c, phi }, .. }) = parsed else { return None };
                let mut body = Vec::new();
                let mut all_cached = true;
                for m in SERVED_MODELS {
                    let (key, t) = rec.time("canon", id, |_| verdict_key(m, &c, &phi));
                    st.canon[k] += t;
                    st.canon_calls += 1;
                    let (hit, t) = rec.time("cache", id, |_| cache.lookup(&key));
                    st.cache += t;
                    st.lookups += 1;
                    let member = match hit {
                        Some(v) => {
                            st.hits += 1;
                            v
                        }
                        None => {
                            all_cached = false;
                            let (v, t) =
                                rec.time("check", id, |_| m.contains_with(&c, &phi, &mut scratch));
                            st.check[k] += t;
                            let ((), t) = rec.time("cache", id, |_| cache.insert(key, v));
                            st.cache += t;
                            v
                        }
                    };
                    body.push(verdict_line(m, member));
                }
                let reply = Reply::Ok { body, cached: all_cached };
                let (_, t) = rec.time("encode", id, |_| encode_frame(&reply.encode()));
                st.encode += t;
                Some(reply)
            });
            st.handler += secs;
            match reply {
                Some(Reply::Ok { body, cached })
                    if body == req.expected && cached == req.cached => {}
                other => out.fail(format!("in-process replay {h}/{i}: {other:?}")),
            }
        }
    }
    st
}

impl Workload for Serve {
    /// Generation, expected verdicts and the first spawn. The spawned
    /// server is drained outside the timed region (its drain waits on a
    /// poll interval); every unit spawns its own.
    fn setup(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let plan = generate(self.seed)?;
        let handle = spawn(server_config()).map_err(|e| format!("spawn failed: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        handle.shutdown();
        if self.plan.as_ref().is_some_and(|p| *p != plan) {
            return Err("regenerating the request sequence gave a different sequence".to_string());
        }
        self.plan = Some(plan);
        Ok(secs)
    }

    fn unit(&mut self, id: u64, rec: &mut Spans) -> Outcome {
        self.session(rec, id).0
    }

    fn ops_per_unit(&self) -> f64 {
        self.plan().requests() as f64
    }

    fn notes(&self) -> Vec<(&'static str, String)> {
        let plan = self.plan();
        let count = |k: Kind| plan.halves.iter().flatten().filter(|r| r.kind == k).count();
        let (hits, misses) = plan.cache_traffic();
        vec![
            ("connections", "2".to_string()),
            ("requests", plan.requests().to_string()),
            ("hot", count(Kind::Hot).to_string()),
            ("cold", count(Kind::Cold).to_string()),
            ("literal", count(Kind::Literal).to_string()),
            ("cache_hits", hits.to_string()),
            ("cache_misses", misses.to_string()),
        ]
    }

    fn traced(&mut self, units: usize, setup_s: f64, rec: &mut Spans, out: &mut Layers) {
        let mut rows = Vec::new();
        for k in 0..units as u64 {
            let (o, [spawn_s, drain_s], per_conn) = self.session(rec, k);
            out.attempted += o.attempted;
            out.failed += o.failed;
            out.errors.extend(o.errors);
            out.traced_walls.push(o.wall_s);
            rows.push(Row {
                stages: replay_in_process(self.plan(), rec, k, out),
                rtt_s: o.rtts_us.iter().sum::<f64>() / 1e6,
                slowest_conn_s: per_conn.iter().copied().fold(0.0, f64::max),
                wall_s: o.wall_s,
                spawn_s,
                drain_s,
            });
        }
        let med = |f: &dyn Fn(&Row) -> f64| median(&rows.iter().map(f).collect::<Vec<_>>());
        out.push("serve_setup_s", setup_s, "s");
        out.push("decode_s", med(&|r| r.stages.decode), "s");
        out.push("parse_s", med(&|r| r.stages.parse), "s");
        out.push("canon_s", med(&|r| r.stages.canon.iter().sum()), "s");
        out.push("cache_s", med(&|r| r.stages.cache), "s");
        out.push("check_s", med(&|r| r.stages.check.iter().sum()), "s");
        out.push("encode_s", med(&|r| r.stages.encode), "s");
        for (i, kind) in ["hot", "cold", "literal"].iter().enumerate() {
            out.push(&format!("canon_{kind}_s"), med(&|r| r.stages.canon[i]), "s");
            out.push(&format!("check_{kind}_s"), med(&|r| r.stages.check[i]), "s");
        }
        out.push("canon_calls", med(&|r| r.stages.canon_calls as f64), "count");
        let hit_ratio = |r: &Row| r.stages.hits as f64 / r.stages.lookups as f64;
        out.push("serve_cache_hit_ratio", med(&hit_ratio), "ratio");
        out.push("transport_s", med(&|r| r.rtt_s - r.stages.handler), "s");
        out.push("spawn_s", med(&|r| r.spawn_s), "s");
        out.push("drain_s", med(&|r| r.drain_s), "s");
        let cover = |r: &Row| (r.spawn_s + r.slowest_conn_s + r.drain_s) / r.wall_s;
        out.push("serve_layer_cover", med(&cover), "ratio");
        out.push("serve_unit_s", med(&|r| r.wall_s), "s");
    }
}

/// One traced session: its in-process stage split and its wire timings.
struct Row {
    stages: Stages,
    /// Summed client round trips of both connections.
    rtt_s: f64,
    /// Summed round trips of the slower connection.
    slowest_conn_s: f64,
    wall_s: f64,
    spawn_s: f64,
    drain_s: f64,
}

/// The fixed shape pool: 4–8-node dags with at most
/// [`EXTENSION_CAP`] linear extensions.
fn shapes() -> Vec<Dag> {
    let mut rng = StdRng::seed_from_u64(SHAPE_SEED);
    let mut out = Vec::with_capacity(SHAPES);
    while out.len() < SHAPES {
        let c = random_computation(&mut rng, 8, 2);
        if (4..=8).contains(&c.node_count()) && count_topo_sorts_dp(c.dag()) <= EXTENSION_CAP {
            out.push(c.dag().clone());
        }
    }
    out
}

/// A pair on `dag` with seeded ops over two locations and a seeded
/// valid observer.
fn random_pair(rng: &mut StdRng, dag: &Dag) -> (Computation, ObserverFunction) {
    let ops = (0..dag.node_count())
        .map(|_| {
            let l = Location::new(rng.gen_range(0..2usize));
            match rng.gen_range(0..5u32) {
                0 => Op::Nop,
                1 | 2 => Op::Write(l),
                _ => Op::Read(l),
            }
        })
        .collect();
    let c = Computation::new(dag.clone(), ops).expect("one op per node");
    let phi = random_observer(rng, &c);
    (c, phi)
}

/// The key shared by all six models' cache entries of a pair (the
/// canonical key minus its model byte).
fn identity(c: &Computation, phi: &ObserverFunction) -> Vec<u8> {
    verdict_key(Model::Sc, c, phi)[1..].to_vec()
}

/// Harvested literal-key pairs of each small Cilk program (11–26
/// nodes): BACKER observers under seeded schedules, 2–4 processors,
/// 1–3-line caches.
fn literal_pool(seed: u64) -> Vec<Vec<(Computation, ObserverFunction)>> {
    let programs = [
        ccmm::cilk::fib(3).computation,
        ccmm::cilk::stencil(2, 2).computation,
        ccmm::cilk::reduce(3).computation,
        ccmm::cilk::fib(4).computation,
        ccmm::cilk::mergesort(3).computation,
        ccmm::cilk::stencil(3, 2).computation,
    ];
    programs
        .into_iter()
        .enumerate()
        .map(|(p, c)| {
            let mut observers: Vec<ObserverFunction> = Vec::new();
            for procs in 2..=4 {
                for lines in 1..=3 {
                    let s = mix64(seed ^ ((p as u64) << 40) ^ ((procs as u64) << 8) ^ lines as u64);
                    for phi in ccmm::backer::harvest::harvest_observers(&c, 16, procs, lines, s) {
                        if !observers.contains(&phi) {
                            observers.push(phi);
                        }
                    }
                }
            }
            observers.into_iter().map(|phi| (c.clone(), phi)).collect()
        })
        .collect()
}

/// Generates the session from `seed`: per half, the hot set asked
/// [`HOT_REPEATS`] times, the cold pairs and the literal pairs, in a
/// seeded order, with the expected verdicts and cached flags.
fn generate(seed: u64) -> Result<Plan, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = shapes();
    let tests = litmus::standard_tests();
    let literal = literal_pool(seed);
    let mut taken: HashSet<Vec<u8>> = HashSet::new();
    let mut halves: [Vec<Req>; 2] = [Vec::new(), Vec::new()];
    for (h, half) in halves.iter_mut().enumerate() {
        let mut pairs: Vec<(Computation, ObserverFunction, Kind, usize)> = Vec::new();
        let mut fresh =
            |c: Computation, phi: ObserverFunction| -> Option<(Computation, ObserverFunction)> {
                taken.insert(identity(&c, &phi)).then_some((c, phi))
            };
        for t in &tests[h * HOT_LITMUS..(h + 1) * HOT_LITMUS] {
            let phi = ObserverFunction::base(&t.computation);
            let (c, phi) = fresh(t.computation.clone(), phi)
                .ok_or_else(|| format!("litmus {} collides with another hot pair", t.name))?;
            pairs.push((c, phi, Kind::Hot, HOT_REPEATS));
        }
        let mut draw = |shape: &Dag, kind: Kind, repeats: usize| -> Result<_, String> {
            for _ in 0..10_000 {
                let (c, phi) = random_pair(&mut rng, shape);
                if let Some((c, phi)) = fresh(c, phi) {
                    return Ok((c, phi, kind, repeats));
                }
            }
            Err("could not draw a fresh pair on a pooled shape".to_string())
        };
        for i in 0..HOT_RANDOM {
            pairs.push(draw(&pool[h * HOT_RANDOM + i], Kind::Hot, HOT_REPEATS)?);
        }
        let cold_shapes = &pool[2 * HOT_RANDOM..];
        for i in 0..COLD {
            pairs.push(draw(&cold_shapes[(h * COLD + i) % cold_shapes.len()], Kind::Cold, 1)?);
        }
        for program in &literal {
            let mine = program.iter().skip(h).step_by(2).take(LITERAL_PER_PROGRAM);
            let mut n = 0;
            for (c, phi) in mine {
                let (c, phi) = fresh(c.clone(), phi.clone())
                    .ok_or("harvested pairs repeat within a program")?;
                pairs.push((c, phi, Kind::Literal, 1));
                n += 1;
            }
            if n < LITERAL_PER_PROGRAM {
                return Err(format!("only {n} harvested pairs for a program's half"));
            }
        }
        for (c, phi, kind, repeats) in pairs {
            let expected =
                SERVED_MODELS.iter().map(|m| verdict_line(*m, m.contains(&c, &phi))).collect();
            let payload =
                render_request(&Request { verb: Verb::Models { c, phi }, deadline_ms: None })
                    .into_bytes();
            let req = Req { payload, expected, cached: false, kind };
            half.extend(std::iter::repeat_n(req, repeats));
        }
        // Seeded Fisher–Yates order, then the expected cached flags: a
        // request hits iff its pair was asked earlier in this half.
        for i in (1..half.len()).rev() {
            half.swap(i, rng.gen_range(0..=i));
        }
        let mut asked: HashSet<&[u8]> = HashSet::new();
        let flags: Vec<bool> = half.iter().map(|r| !asked.insert(&r.payload)).collect();
        for (r, cached) in half.iter_mut().zip(flags) {
            r.cached = cached;
        }
    }
    Ok(Plan { halves })
}
