//! The `ccmm serve` wire protocol, verdict cache, and request handler.
//!
//! This module is the socket-free core of membership-as-a-service: the
//! framed wire format, the request/reply grammar, the hash-consing
//! verdict cache, and the per-request handler that runs every query
//! under the §8 robustness discipline (panic quarantine → a structured
//! [`Reply::Degraded`], cooperative deadlines → [`Reply::Partial`]).
//! The actual daemon (sockets, threads, admission control, drain) lives
//! in the `ccmm` facade crate's `serve` module, and the conformance
//! harness drives this handler directly so protocol + cache + checker
//! agreement is differentially tested without a network in the loop.
//!
//! # Framing
//!
//! Every message (both directions) is one *frame*: a little-endian
//! `u32` payload length followed by that many bytes of UTF-8 payload.
//! The decoder ([`FrameDecoder`]) is incremental and never trusts the
//! length prefix: a length above [`MAX_FRAME`] is reported as
//! [`FrameEvent::Oversized`] *before any allocation* and the payload
//! bytes are drained in constant space, so the connection survives an
//! attacker-controlled prefix without a `Vec::with_capacity(4 GiB)`.
//!
//! # Requests and replies
//!
//! Payloads are line-oriented text (see [`Request`] and [`Reply`]),
//! reusing [`crate::parse`]'s computation/observer format so every
//! malformed byte sequence becomes a line-numbered [`Reply::Error`]
//! instead of a panic. Verdict lines use the corpus golden spelling
//! `SC: in` / `SC: out`, so replies diff directly against
//! `corpus/golden/*`.
//!
//! # Verdict cache soundness
//!
//! Incoming pairs are hash-consed to a canonical node labelling derived
//! from [`ccmm_dag::canon`]'s lex-min ancestor-mask representative (with
//! the op/observer encoding as tie-break), so isomorphic queries share
//! one cache slot. Model membership is isomorphism-invariant (the
//! conformance harness pins this), and the cache stores only the final
//! verdict bit, so **eviction can never change an answer**: a miss
//! recomputes `contains_with`, which is bit-identical to what was
//! evicted. The cache is sharded and size-bounded with FIFO eviction;
//! `hits + misses == lookups` holds exactly (each lookup is classified
//! once, under the shard lock).

use crate::computation::Computation;
use crate::model::{CheckScratch, MemoryModel, Model};
use crate::observer::ObserverFunction;
use crate::parse::{parse_computation, parse_observer, render_computation, render_observer};
use crate::telemetry::{self, Counter};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Protocol identifier on the first line of every request payload.
pub const REQ_MAGIC: &str = "ccmm-req-v1";
/// Protocol identifier on the first line of every reply payload.
pub const REP_MAGIC: &str = "ccmm-rep-v1";

/// Hard cap on a frame payload. A length prefix above this is rejected
/// before any allocation and the excess bytes are skipped, not stored.
pub const MAX_FRAME: usize = 1 << 20;

/// Node-count cap on request computations: large enough for every
/// litmus shape and the bounded universes, small enough that a single
/// membership check cannot hold a worker hostage indefinitely (the
/// deadline budget covers the rest).
pub const MAX_REQUEST_NODES: usize = 64;

/// Canonicalisation cap: pairs with at most this many nodes are
/// hash-consed to their canonical labelling (the prefix search is still
/// factorial on an antichain, so bigger pairs cache under their literal
/// encoding instead — still sound, just no isomorphism sharing).
pub const CANON_NODE_CAP: usize = 8;

/// The six concrete models served, in corpus golden order.
pub const SERVED_MODELS: [Model; 6] =
    [Model::Sc, Model::Lc, Model::Nn, Model::Nw, Model::Wn, Model::Ww];

/// splitmix64 — the same mix used by the fault plans; exposed here so
/// the client's seeded backoff jitter shares one deterministic stream
/// shape with the server's fault decisions.
pub fn mix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Encodes one frame: `u32` LE length + payload. Panics if the payload
/// exceeds [`MAX_FRAME`] (callers construct payloads; inputs that large
/// are a caller bug, not wire data).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(payload.len() <= MAX_FRAME, "frame payload exceeds MAX_FRAME");
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One decoded framing event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameEvent {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// A length prefix above [`MAX_FRAME`]; the payload bytes are being
    /// skipped in constant space. Reported once, when the prefix is
    /// read — before any of the payload arrives.
    Oversized {
        /// The rejected length prefix.
        len: u64,
    },
}

#[derive(Debug)]
enum DecodeState {
    Header { buf: [u8; 4], fill: usize },
    Payload { buf: Vec<u8>, need: usize },
    Skip { remaining: u64 },
}

/// Incremental frame decoder. Feed arbitrary byte chunks with
/// [`push`](FrameDecoder::push) and drain events with
/// [`next_event`](FrameDecoder::next_event). Never panics on any input,
/// never allocates more than [`MAX_FRAME`] + O(1) bytes, and keeps
/// framing sync across oversized frames (they are skipped byte-exactly,
/// so the following frame decodes normally).
#[derive(Debug)]
pub struct FrameDecoder {
    state: DecodeState,
    events: VecDeque<FrameEvent>,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// A decoder at a frame boundary.
    pub fn new() -> Self {
        FrameDecoder {
            state: DecodeState::Header { buf: [0; 4], fill: 0 },
            events: VecDeque::new(),
        }
    }

    /// Whether the decoder sits at a frame boundary with no pending
    /// events — i.e. closing the connection now tears nothing.
    pub fn is_idle(&self) -> bool {
        matches!(&self.state, DecodeState::Header { fill: 0, .. }) && self.events.is_empty()
    }

    /// Consumes a chunk of wire bytes.
    pub fn push(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            match &mut self.state {
                DecodeState::Header { buf, fill } => {
                    let take = (4 - *fill).min(bytes.len());
                    buf[*fill..*fill + take].copy_from_slice(&bytes[..take]);
                    *fill += take;
                    bytes = &bytes[take..];
                    if *fill == 4 {
                        let len = u32::from_le_bytes(*buf) as u64;
                        if len as usize > MAX_FRAME {
                            // Reject before allocating: the capacity we
                            // reserve below is bounded by MAX_FRAME, never
                            // by the attacker-controlled prefix.
                            self.events.push_back(FrameEvent::Oversized { len });
                            self.state = if len == 0 {
                                DecodeState::Header { buf: [0; 4], fill: 0 }
                            } else {
                                DecodeState::Skip { remaining: len }
                            };
                        } else if len == 0 {
                            self.events.push_back(FrameEvent::Frame(Vec::new()));
                            self.state = DecodeState::Header { buf: [0; 4], fill: 0 };
                        } else {
                            self.state = DecodeState::Payload {
                                buf: Vec::with_capacity(len as usize),
                                need: len as usize,
                            };
                        }
                    }
                }
                DecodeState::Payload { buf, need } => {
                    let take = (*need - buf.len()).min(bytes.len());
                    buf.extend_from_slice(&bytes[..take]);
                    bytes = &bytes[take..];
                    if buf.len() == *need {
                        self.events.push_back(FrameEvent::Frame(std::mem::take(buf)));
                        self.state = DecodeState::Header { buf: [0; 4], fill: 0 };
                    }
                }
                DecodeState::Skip { remaining } => {
                    let take = (*remaining).min(bytes.len() as u64);
                    *remaining -= take;
                    bytes = &bytes[take as usize..];
                    if *remaining == 0 {
                        self.state = DecodeState::Header { buf: [0; 4], fill: 0 };
                    }
                }
            }
        }
    }

    /// Pops the oldest decoded event, if any.
    pub fn next_event(&mut self) -> Option<FrameEvent> {
        self.events.pop_front()
    }
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

/// A parsed request: a verb plus per-request options.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// What the client wants.
    pub verb: Verb,
    /// Per-request deadline budget in milliseconds (overrides the
    /// server default when present).
    pub deadline_ms: Option<u64>,
}

/// The request verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// Liveness probe; replies `pong`.
    Ping,
    /// Membership of one (computation, observer) pair in one model.
    Check {
        /// The model to query.
        model: Model,
        /// The computation.
        c: Computation,
        /// The observer function.
        phi: ObserverFunction,
    },
    /// Membership of one pair in all six served models.
    Models {
        /// The computation.
        c: Computation,
        /// The observer function.
        phi: ObserverFunction,
    },
    /// Outcome counts of a named litmus test under every served model.
    Litmus {
        /// Test name, matched case-insensitively.
        name: String,
    },
}

/// A request parse failure: 1-based payload line plus message (line 0
/// for payload-global problems, matching [`crate::parse::ParseError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// 1-based line within the request payload (0 = whole payload).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

fn rerr(line: usize, message: impl Into<String>) -> RequestError {
    RequestError { line, message: message.into() }
}

fn model_by_name(name: &str) -> Option<Model> {
    SERVED_MODELS.iter().copied().find(|m| m.name().eq_ignore_ascii_case(name))
}

/// Renders a request payload (the inverse of [`parse_request`]).
pub fn render_request(req: &Request) -> String {
    let mut head = String::from(REQ_MAGIC);
    let mut body = String::new();
    match &req.verb {
        Verb::Ping => head.push_str(" ping"),
        Verb::Check { model, c, phi } => {
            head.push_str(&format!(" check {}", model.name().to_ascii_lowercase()));
            body = format!("{}---\n{}", render_computation(c), render_observer(phi));
        }
        Verb::Models { c, phi } => {
            head.push_str(" models");
            body = format!("{}---\n{}", render_computation(c), render_observer(phi));
        }
        Verb::Litmus { name } => head.push_str(&format!(" litmus {name}")),
    }
    if let Some(ms) = req.deadline_ms {
        head.push_str(&format!(" deadline-ms={ms}"));
    }
    format!("{head}\n{body}")
}

/// Parses a request payload. Accepts arbitrary bytes and never panics:
/// non-UTF-8 input, unknown verbs, and malformed bodies all become
/// line-numbered [`RequestError`]s (the line of the first invalid byte
/// for encoding errors).
pub fn parse_request(payload: &[u8]) -> Result<Request, RequestError> {
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(e) => {
            // Report the line containing the first invalid byte, so a
            // request truncated mid-UTF-8-character points at the cut.
            let line = payload[..e.valid_up_to()].iter().filter(|&&b| b == b'\n').count() + 1;
            return Err(rerr(line, "request is not valid UTF-8"));
        }
    };
    let mut lines = text.lines();
    let head = lines.next().unwrap_or("");
    let mut toks = head.split_whitespace();
    if toks.next() != Some(REQ_MAGIC) {
        return Err(rerr(1, format!("expected `{REQ_MAGIC} <verb> …` header")));
    }
    let verb_tok = toks.next().ok_or_else(|| rerr(1, "missing verb (ping|check|models|litmus)"))?;
    let mut deadline_ms = None;
    let mut positional: Vec<&str> = Vec::new();
    for t in toks {
        if let Some(v) = t.strip_prefix("deadline-ms=") {
            deadline_ms =
                Some(v.parse().map_err(|_| rerr(1, format!("bad deadline-ms value `{v}`")))?);
        } else {
            positional.push(t);
        }
    }
    let body_pair = |positional: &[&str]| -> Result<(Computation, ObserverFunction), RequestError> {
        if !positional.is_empty() {
            return Err(rerr(1, format!("unexpected token `{}`", positional[0])));
        }
        let body: Vec<&str> = text.lines().skip(1).collect();
        let split = body
            .iter()
            .position(|l| l.trim() == "---")
            .ok_or_else(|| rerr(0, "missing `---` separator between computation and observer"))?;
        // Global line numbers: the header is line 1, the computation
        // body starts at line 2, the observer after the separator.
        let lift = |base: usize, e: crate::parse::ParseError| {
            rerr(if e.line == 0 { 0 } else { base + e.line }, e.message)
        };
        let c = parse_computation(&body[..split].join("\n")).map_err(|e| lift(1, e))?;
        if c.node_count() > MAX_REQUEST_NODES {
            return Err(rerr(
                0,
                format!("computation has {} nodes; the cap is {MAX_REQUEST_NODES}", c.node_count()),
            ));
        }
        let phi =
            parse_observer(&body[split + 1..].join("\n"), &c).map_err(|e| lift(2 + split, e))?;
        Ok((c, phi))
    };
    let verb = match verb_tok {
        "ping" => {
            if !positional.is_empty() {
                return Err(rerr(1, format!("unexpected token `{}`", positional[0])));
            }
            Verb::Ping
        }
        "check" => {
            let [name] = positional.as_slice() else {
                return Err(rerr(1, "check needs exactly one model name"));
            };
            let model = model_by_name(name)
                .ok_or_else(|| rerr(1, format!("unknown model `{name}` (sc|lc|nn|nw|wn|ww)")))?;
            let (c, phi) = body_pair(&[])?;
            Verb::Check { model, c, phi }
        }
        "models" => {
            let (c, phi) = body_pair(&positional)?;
            Verb::Models { c, phi }
        }
        "litmus" => {
            let [name] = positional.as_slice() else {
                return Err(rerr(1, "litmus needs exactly one test name"));
            };
            Verb::Litmus { name: (*name).to_string() }
        }
        other => return Err(rerr(1, format!("unknown verb `{other}` (ping|check|models|litmus)"))),
    };
    Ok(Request { verb, deadline_ms })
}

// ---------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------

/// A structured reply. Every failure mode of the server is a reply
/// variant, never a dropped connection: panics become [`Degraded`],
/// deadline expiry becomes [`Partial`], load shedding becomes
/// [`Overloaded`], and malformed requests become [`Error`].
///
/// [`Degraded`]: Reply::Degraded
/// [`Partial`]: Reply::Partial
/// [`Overloaded`]: Reply::Overloaded
/// [`Error`]: Reply::Error
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Success. `cached` is set when every verdict came from the cache.
    Ok {
        /// Result lines (`SC: in`, `pong`, …).
        body: Vec<String>,
        /// Whether the cache answered without any fresh check.
        cached: bool,
    },
    /// The request did not parse; the connection stays usable.
    Error {
        /// 1-based payload line (0 = whole payload).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The handler panicked; the panic was quarantined to this request
    /// and the connection (and process) survive.
    Degraded {
        /// The panic payload.
        message: String,
    },
    /// The deadline budget expired; `body` holds the verdicts finished
    /// in time.
    Partial {
        /// Sub-checks completed before expiry.
        done: usize,
        /// Total sub-checks the request needed.
        total: usize,
        /// Result lines for the completed sub-checks.
        body: Vec<String>,
    },
    /// Load shed at admission; retry after the hinted backoff.
    Overloaded {
        /// Server's backoff hint in milliseconds.
        retry_after_ms: u64,
    },
    /// The server is draining and accepted no new work.
    ShuttingDown,
}

impl Reply {
    /// Renders the reply payload.
    pub fn encode(&self) -> Vec<u8> {
        // Body lines come from render/verdict code and never contain
        // newlines; panic payloads might, so they are flattened.
        let flat = |s: &str| s.replace('\n', " ");
        let text = match self {
            Reply::Ok { body, cached } => {
                let tag = if *cached { " cached=1" } else { "" };
                format!("{REP_MAGIC} ok{tag}\n{}", body.join("\n"))
            }
            Reply::Error { line, message } => {
                format!("{REP_MAGIC} error line={line}\n{}", flat(message))
            }
            Reply::Degraded { message } => format!("{REP_MAGIC} degraded\n{}", flat(message)),
            Reply::Partial { done, total, body } => {
                format!("{REP_MAGIC} partial done={done} total={total}\n{}", body.join("\n"))
            }
            Reply::Overloaded { retry_after_ms } => {
                format!("{REP_MAGIC} overloaded retry-after-ms={retry_after_ms}")
            }
            Reply::ShuttingDown => format!("{REP_MAGIC} shutting-down"),
        };
        text.into_bytes()
    }

    /// Parses a reply payload (the client side). Never panics.
    pub fn decode(payload: &[u8]) -> Result<Reply, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "reply is not UTF-8".to_string())?;
        let mut lines = text.lines();
        let head = lines.next().unwrap_or("");
        let mut toks = head.split_whitespace();
        if toks.next() != Some(REP_MAGIC) {
            return Err(format!("expected `{REP_MAGIC} <status> …` header, got `{head}`"));
        }
        let status = toks.next().ok_or("missing reply status")?;
        let mut kv = HashMap::new();
        for t in toks {
            if let Some((k, v)) = t.split_once('=') {
                kv.insert(k.to_string(), v.to_string());
            }
        }
        let num = |k: &str| -> Result<u64, String> {
            kv.get(k)
                .ok_or(format!("reply status `{status}` missing `{k}`"))?
                .parse()
                .map_err(|_| format!("bad `{k}` in reply"))
        };
        let body: Vec<String> = lines.map(str::to_string).collect();
        Ok(match status {
            "ok" => Reply::Ok { body, cached: kv.contains_key("cached") },
            "error" => Reply::Error {
                line: num("line")? as usize,
                message: body.first().cloned().unwrap_or_default(),
            },
            "degraded" => Reply::Degraded { message: body.first().cloned().unwrap_or_default() },
            "partial" => {
                Reply::Partial { done: num("done")? as usize, total: num("total")? as usize, body }
            }
            "overloaded" => Reply::Overloaded { retry_after_ms: num("retry-after-ms")? },
            "shutting-down" => Reply::ShuttingDown,
            other => return Err(format!("unknown reply status `{other}`")),
        })
    }
}

/// Renders a verdict line in the corpus golden spelling.
pub fn verdict_line(model: Model, member: bool) -> String {
    format!("{}: {}", model.name(), if member { "in" } else { "out" })
}

// ---------------------------------------------------------------------
// Verdict cache
// ---------------------------------------------------------------------

/// The canonical cache key of `(model, c, phi)`: the model byte
/// followed by the model-independent [`pair_key_into`] body.
///
/// For pairs of at most [`CANON_NODE_CAP`] nodes the body encodes the
/// lex-min relabelling of the pair over all linear extensions that
/// minimise the ancestor-mask vector (ties broken by the encoded op and
/// observer bytes) — exactly [`ccmm_dag::canon`]'s representative,
/// extended to break automorphism ties by the labelling the observer
/// induces. Isomorphic pairs therefore collide, and because membership
/// is isomorphism-invariant the shared verdict is exact. Larger pairs
/// encode literally (marker byte 0), which is always sound.
pub fn verdict_key(model: Model, c: &Computation, phi: &ObserverFunction) -> Vec<u8> {
    let mut key = Vec::new();
    pair_key_into(&mut key, c, phi);
    key[0] = model_tag(model);
    key
}

/// Byte 0 of a [`verdict_key`].
fn model_tag(model: Model) -> u8 {
    match model {
        Model::Sc => 1,
        Model::Lc => 2,
        Model::Nn => 3,
        Model::Nw => 4,
        Model::Wn => 5,
        Model::Ww => 6,
        Model::Any => 7,
    }
}

/// Overwrites `key` with the cache key of `(c, phi)` for every model at
/// once: [`verdict_key`]'s bytes with byte 0 left as a placeholder for
/// the model tag, which [`VerdictCache::check_keyed`] fills in per
/// lookup. One call canonicalises a request however many models it asks.
///
/// The canonical labelling comes from a depth-first branch-and-bound
/// over topological *prefixes* rather than an enumeration of every
/// linear extension; the private `PrefixSearch` explains why the bytes
/// are the same.
pub fn pair_key_into(key: &mut Vec<u8>, c: &Computation, phi: &ObserverFunction) {
    let n = c.node_count();
    key.clear();
    key.reserve(8 + n * (8 + 2 * c.num_locations()));
    key.push(0); // model tag, filled in per lookup
    if n > CANON_NODE_CAP {
        key.push(0); // literal marker
        encode_pair(key, c, phi);
        return;
    }
    key.push(1); // canonical marker
    let mut search = PrefixSearch::new(c, phi);
    search.descend(0, 0, false);
    for m in &search.best[..n] {
        key.extend_from_slice(&m.to_le_bytes());
    }
    key.extend_from_slice(&search.best_bytes);
}

/// The lex-min `(ancestor-mask vector, encoded pair)` over the linear
/// extensions of a pair of at most [`CANON_NODE_CAP`] nodes, found
/// without visiting every extension.
///
/// A linear extension `t` relabels node `t[i]` as `i`; its mask vector
/// holds, at position `i`, the positions of `t[i]`'s ancestors. Every
/// ancestor precedes `t[i]` in `t`, so mask `i` is fixed by the prefix
/// `t[..=i]`. Hence, below a fixed prefix:
///
/// * a ready node whose relabelled mask is not the minimum over the
///   ready set only leads to mask vectors strictly greater than some
///   sibling's, so only the minimum-mask ready nodes are expanded;
/// * a prefix whose masks already compare greater than the best
///   vector's prefix cannot finish below it, so it is cut.
///
/// The encoded bytes only break ties between equal mask vectors, so
/// they are built at leaves alone. The search returns the exact minimum
/// of the same total order the full enumeration minimises, so the key is
/// bit-identical to enumerating every extension (the unit tests pin this
/// against that enumeration). It allocates when it starts, never per
/// extension.
struct PrefixSearch {
    /// The pair's [`encode_pair`] bytes, relabelled at each leaf.
    base: Vec<u8>,
    n: usize,
    /// Strict ancestors of each node, as a mask over original indices.
    anc: [u32; CANON_NODE_CAP],
    /// Strict descendants of each node, as a mask over original indices.
    desc: [u32; CANON_NODE_CAP],
    /// Each node's ancestors as a mask over the positions placed so far;
    /// complete once the node is ready.
    rel: [u32; CANON_NODE_CAP],
    /// The current prefix: `perm[i]` is the node placed at position `i`.
    perm: [usize; CANON_NODE_CAP],
    /// Leaf scratch for [`relabel_encoding`].
    pos: [u16; CANON_NODE_CAP],
    /// Mask vector of the current prefix.
    masks: [u32; CANON_NODE_CAP],
    /// Mask vector of the best extension found; meaningful once `found`.
    best: [u32; CANON_NODE_CAP],
    best_bytes: Vec<u8>,
    /// Leaf scratch for the encoding of a mask-tied extension.
    bytes: Vec<u8>,
    found: bool,
    /// Bumped whenever the best extension changes.
    generation: u64,
}

impl PrefixSearch {
    fn new(c: &Computation, phi: &ObserverFunction) -> Self {
        let n = c.node_count();
        debug_assert!(n <= CANON_NODE_CAP);
        let mut anc = [0u32; CANON_NODE_CAP];
        let mut desc = [0u32; CANON_NODE_CAP];
        for (v, a) in anc.iter_mut().enumerate().take(n) {
            for u in c.reach().ancestors(ccmm_dag::NodeId::new(v)).iter() {
                *a |= 1 << u;
                desc[u] |= 1 << v;
            }
        }
        let len = 4 + n * (4 + 2 * c.num_locations());
        let mut base = Vec::with_capacity(len);
        encode_pair(&mut base, c, phi);
        PrefixSearch {
            base,
            n,
            anc,
            desc,
            rel: [0; CANON_NODE_CAP],
            perm: [0; CANON_NODE_CAP],
            pos: [0; CANON_NODE_CAP],
            masks: [0; CANON_NODE_CAP],
            best: [0; CANON_NODE_CAP],
            best_bytes: Vec::with_capacity(len),
            bytes: Vec::new(),
            found: false,
            generation: 0,
        }
    }

    /// Extends the prefix of length `depth` (node set `placed`). `tight`
    /// says the prefix's masks equal the best vector's first `depth`
    /// masks; when false and a best exists, they compare strictly less.
    fn descend(&mut self, depth: usize, placed: u32, mut tight: bool) {
        if depth == self.n {
            self.leaf(tight);
            return;
        }
        let mut ready = 0u32;
        let mut lo = u32::MAX;
        for v in 0..self.n {
            if placed & (1 << v) == 0 && self.anc[v] & !placed == 0 {
                ready |= 1 << v;
                lo = lo.min(self.rel[v]);
            }
        }
        let mut rest = ready;
        while rest != 0 {
            let v = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            if self.rel[v] != lo {
                continue;
            }
            // Every candidate shares mask `lo`, so one comparison decides
            // them all; it is redone per candidate because a leaf under
            // the previous one may have replaced the best.
            let child_tight = if self.found && tight {
                match lo.cmp(&self.best[depth]) {
                    std::cmp::Ordering::Greater => return,
                    std::cmp::Ordering::Equal => true,
                    std::cmp::Ordering::Less => false,
                }
            } else {
                false
            };
            self.perm[depth] = v;
            self.masks[depth] = lo;
            let mut d = self.desc[v];
            while d != 0 {
                self.rel[d.trailing_zeros() as usize] |= 1 << depth;
                d &= d - 1;
            }
            let before = self.generation;
            self.descend(depth + 1, placed | (1 << v), child_tight);
            let mut d = self.desc[v];
            while d != 0 {
                self.rel[d.trailing_zeros() as usize] &= !(1 << depth);
                d &= d - 1;
            }
            // A new best below this prefix shares it: the prefix is now
            // tight against the best, whatever it was before.
            tight |= self.generation != before;
        }
    }

    /// A complete extension: it replaces the best when its masks compare
    /// less, or when they tie and its encoding compares less.
    fn leaf(&mut self, tight: bool) {
        let n = self.n;
        if self.found && tight {
            // The op fields come first and move whole with their nodes,
            // so most losing extensions lose there, before any encoding.
            let best_ops = self.best_bytes[4..4 + 4 * n].chunks_exact(4);
            for (&old, best_op) in self.perm[..n].iter().zip(best_ops) {
                match self.base[4 + 4 * old..8 + 4 * old].cmp(best_op) {
                    std::cmp::Ordering::Greater => return,
                    std::cmp::Ordering::Less => break,
                    std::cmp::Ordering::Equal => {}
                }
            }
            self.bytes.clear();
            relabel_encoding(&mut self.bytes, &self.base, &self.perm[..n], &mut self.pos[..n]);
            if self.bytes >= self.best_bytes {
                return;
            }
            std::mem::swap(&mut self.bytes, &mut self.best_bytes);
        } else {
            self.best[..n].copy_from_slice(&self.masks[..n]);
            self.best_bytes.clear();
            relabel_encoding(&mut self.best_bytes, &self.base, &self.perm[..n], &mut self.pos[..n]);
            self.found = true;
        }
        self.generation += 1;
    }
}

/// Appends the pair's encoding under its own labelling: the node and
/// location counts, each node's op as `(tag, location)`, then `Φ`
/// location by location with each observed node as its index plus one
/// (0 for ⊥). Every field is a little-endian `u16`.
fn encode_pair(out: &mut Vec<u8>, c: &Computation, phi: &ObserverFunction) {
    use crate::op::Op;
    out.extend_from_slice(&(c.node_count() as u16).to_le_bytes());
    out.extend_from_slice(&(c.num_locations() as u16).to_le_bytes());
    for op in c.ops() {
        let (tag, loc) = match *op {
            Op::Nop => (0u16, 0u16),
            Op::Read(l) => (1, l.index() as u16),
            Op::Write(l) => (2, l.index() as u16),
        };
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&loc.to_le_bytes());
    }
    for l in c.locations() {
        for u in c.nodes() {
            let v = phi.get(l, u).map_or(0, |w| w.index() as u16 + 1);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Appends the encoding of the pair relabelled by `perm` (new index `i`
/// = old node `perm[i]`), given its [`encode_pair`] bytes `base`: the
/// op fields move with their nodes and each observed index is mapped to
/// its new position. `pos` is scratch of one slot per node.
fn relabel_encoding(out: &mut Vec<u8>, base: &[u8], perm: &[usize], pos: &mut [u16]) {
    let n = perm.len();
    out.extend_from_slice(&base[..4]);
    for (i, &old) in perm.iter().enumerate() {
        out.extend_from_slice(&base[4 + 4 * old..8 + 4 * old]);
        pos[old] = i as u16;
    }
    for row in base[4 + 4 * n..].chunks_exact(2 * n.max(1)) {
        for &old in perm {
            let v = match u16::from_le_bytes([row[2 * old], row[2 * old + 1]]) {
                0 => 0,
                w => pos[w as usize - 1] + 1,
            };
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

struct Shard {
    map: HashMap<Vec<u8>, bool>,
    fifo: VecDeque<Vec<u8>>,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (and were recomputed).
    pub misses: u64,
    /// Entries evicted to stay within the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: usize,
}

/// A sharded, size-bounded concurrent verdict cache.
///
/// Each shard is an independent `Mutex<HashMap + FIFO>`; the key hash
/// picks the shard, so concurrent lookups on different pairs rarely
/// contend. When a shard exceeds its slice of `capacity` the oldest
/// inserted entry is evicted — sound by construction, because a future
/// miss recomputes the identical verdict (see the module docs).
pub struct VerdictCache {
    shards: Box<[Mutex<Shard>]>,
    cap_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl VerdictCache {
    /// A cache holding at most `capacity` verdicts across `shards`
    /// shards (both floored at 1).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let cap_per_shard = capacity.div_ceil(shards).max(1);
        VerdictCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard { map: HashMap::new(), fifo: VecDeque::new() }))
                .collect(),
            cap_per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &[u8]) -> &Mutex<Shard> {
        // FNV-1a over the key picks the shard.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in key {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks up a verdict, classifying the lookup as a hit or miss.
    pub fn lookup(&self, key: &[u8]) -> Option<bool> {
        let shard = self.shard(key).lock().unwrap_or_else(|e| e.into_inner());
        match shard.map.get(key).copied() {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                telemetry::count(Counter::ServeCacheHits, 1);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                telemetry::count(Counter::ServeCacheMisses, 1);
                None
            }
        }
    }

    /// Inserts a verdict, evicting FIFO-oldest entries past capacity.
    pub fn insert(&self, key: Vec<u8>, verdict: bool) {
        let mut shard = self.shard(&key).lock().unwrap_or_else(|e| e.into_inner());
        if shard.map.insert(key.clone(), verdict).is_none() {
            shard.fifo.push_back(key);
        }
        while shard.map.len() > self.cap_per_shard {
            let Some(old) = shard.fifo.pop_front() else { break };
            shard.map.remove(&old);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            telemetry::count(Counter::ServeCacheEvictions, 1);
        }
    }

    /// Cached membership check: one classified lookup, recomputing via
    /// `contains_with` on a miss. The returned flag says whether the
    /// cache answered.
    pub fn check(
        &self,
        model: Model,
        c: &Computation,
        phi: &ObserverFunction,
        scratch: &mut CheckScratch,
    ) -> (bool, bool) {
        let mut key = verdict_key(model, c, phi);
        self.check_keyed(model, &mut key, c, phi, scratch)
    }

    /// [`check`](VerdictCache::check) under a key already built by
    /// [`pair_key_into`] for `(c, phi)`: writes `model`'s tag into byte
    /// 0, so one canonicalisation serves every model of a request.
    pub fn check_keyed(
        &self,
        model: Model,
        key: &mut [u8],
        c: &Computation,
        phi: &ObserverFunction,
        scratch: &mut CheckScratch,
    ) -> (bool, bool) {
        key[0] = model_tag(model);
        if let Some(v) = self.lookup(key) {
            return (v, true);
        }
        let v = model.contains_with(c, phi, scratch);
        self.insert(key.to_vec(), v);
        (v, false)
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.shards.iter().map(|s| s.lock().map(|g| g.map.len()).unwrap_or(0)).sum(),
        }
    }
}

// ---------------------------------------------------------------------
// Handler
// ---------------------------------------------------------------------

/// How a reply should be accounted (and surfaced in exit codes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyClass {
    /// [`Reply::Ok`].
    Served,
    /// [`Reply::Error`].
    BadRequest,
    /// [`Reply::Degraded`].
    Degraded,
    /// [`Reply::Partial`].
    DeadlineExpired,
}

impl Reply {
    /// Classifies a handler reply for accounting.
    pub fn class(&self) -> ReplyClass {
        match self {
            Reply::Ok { .. } => ReplyClass::Served,
            Reply::Error { .. } => ReplyClass::BadRequest,
            Reply::Degraded { .. } => ReplyClass::Degraded,
            Reply::Partial { .. } => ReplyClass::DeadlineExpired,
            // Overloaded/ShuttingDown are minted at admission, before
            // the handler runs; the handler never returns them.
            Reply::Overloaded { .. } | Reply::ShuttingDown => ReplyClass::Served,
        }
    }
}

/// The per-connection request handler: parse → supervise → reply.
///
/// One handler per connection thread; the scratch is reused across
/// requests and rebuilt after a quarantined panic (panics can leave it
/// mid-update, exactly like the sweep supervisor's per-worker scratch).
pub struct Handler {
    cache: std::sync::Arc<VerdictCache>,
    default_deadline_ms: Option<u64>,
    scratch: CheckScratch,
    /// The current request's cache key, reused across requests.
    key: Vec<u8>,
}

impl Handler {
    /// A handler sharing `cache`, applying `default_deadline_ms` to
    /// requests that set no budget of their own.
    pub fn new(cache: std::sync::Arc<VerdictCache>, default_deadline_ms: Option<u64>) -> Self {
        Handler { cache, default_deadline_ms, scratch: CheckScratch::new(), key: Vec::new() }
    }

    /// Canonicalises the request pair into `self.key`, once per request.
    fn canonicalise(&mut self, c: &Computation, phi: &ObserverFunction) {
        pair_key_into(&mut self.key, c, phi);
        telemetry::count(Counter::ServeCanonicalisations, 1);
    }

    /// Handles one request payload end to end. Never panics and never
    /// returns transport-level failures: every outcome is a [`Reply`].
    /// `inject_panic` is the fault plan's handler-panic arm.
    pub fn handle(&mut self, payload: &[u8], inject_panic: bool) -> Reply {
        telemetry::count(Counter::ServeRequests, 1);
        let req = match parse_request(payload) {
            Ok(r) => r,
            Err(e) => {
                telemetry::count(Counter::ServeFrameErrors, 1);
                return Reply::Error { line: e.line, message: e.message };
            }
        };
        let deadline = req
            .deadline_ms
            .or(self.default_deadline_ms)
            .map(|ms| Instant::now() + Duration::from_millis(ms));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                std::panic::panic_any("injected fault: handler panic".to_string());
            }
            self.dispatch(&req, deadline)
        }));
        match out {
            Ok(reply) => {
                match reply.class() {
                    ReplyClass::Served => telemetry::count(Counter::ServeServed, 1),
                    ReplyClass::DeadlineExpired => {
                        telemetry::count(Counter::ServeDeadlineExpired, 1);
                    }
                    ReplyClass::BadRequest => {}
                    ReplyClass::Degraded => {}
                }
                reply
            }
            Err(panic) => {
                // Quarantine: the panic is confined to this request. The
                // scratch may be mid-update, so it is rebuilt — the same
                // retry hygiene the sweep supervisor applies per task.
                self.scratch = CheckScratch::new();
                telemetry::count(Counter::ServeDegraded, 1);
                Reply::Degraded { message: crate::fault::payload_string(panic) }
            }
        }
    }

    fn dispatch(&mut self, req: &Request, deadline: Option<Instant>) -> Reply {
        let expired = |d: &Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
        match &req.verb {
            Verb::Ping => Reply::Ok { body: vec!["pong".to_string()], cached: false },
            Verb::Check { model, c, phi } => {
                if expired(&deadline) {
                    return Reply::Partial { done: 0, total: 1, body: Vec::new() };
                }
                self.canonicalise(c, phi);
                let (member, cached) =
                    self.cache.check_keyed(*model, &mut self.key, c, phi, &mut self.scratch);
                Reply::Ok { body: vec![verdict_line(*model, member)], cached }
            }
            Verb::Models { c, phi } => {
                // Cooperative deadline at model granularity: each of the
                // six verdicts is one budget poll, mirroring the sweep
                // supervisor's per-task polls. The pair is canonicalised
                // once, after the first poll, so an expired request pays
                // for no canonicalisation and touches no cache.
                let mut body = Vec::new();
                let mut all_cached = true;
                for m in SERVED_MODELS {
                    if expired(&deadline) {
                        return Reply::Partial {
                            done: body.len(),
                            total: SERVED_MODELS.len(),
                            body,
                        };
                    }
                    if body.is_empty() {
                        self.canonicalise(c, phi);
                    }
                    let (member, cached) =
                        self.cache.check_keyed(m, &mut self.key, c, phi, &mut self.scratch);
                    all_cached &= cached;
                    body.push(verdict_line(m, member));
                }
                Reply::Ok { body, cached: all_cached }
            }
            Verb::Litmus { name } => {
                let tests = crate::litmus::standard_tests();
                let Some(t) = tests.iter().find(|t| t.name.eq_ignore_ascii_case(name)) else {
                    let names: Vec<&str> = tests.iter().map(|t| t.name).collect();
                    return Reply::Error {
                        line: 1,
                        message: format!("unknown litmus test `{name}` ({})", names.join("|")),
                    };
                };
                let mut body = Vec::new();
                for m in SERVED_MODELS {
                    if expired(&deadline) {
                        return Reply::Partial {
                            done: body.len(),
                            total: SERVED_MODELS.len(),
                            body,
                        };
                    }
                    body.push(format!("{}: {} outcomes", m.name(), t.outcomes(&m).len()));
                }
                Reply::Ok { body, cached: false }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::witness;

    fn mp_pair() -> (Computation, ObserverFunction) {
        let t = crate::litmus::message_passing();
        let phi = ObserverFunction::base(&t.computation);
        (t.computation, phi)
    }

    #[test]
    fn frame_round_trip_and_chunked_decode() {
        let payload = b"hello frames".to_vec();
        let wire = encode_frame(&payload);
        // Feed byte by byte: the decoder reassembles across chunks.
        let mut d = FrameDecoder::new();
        for b in &wire {
            d.push(&[*b]);
        }
        assert_eq!(d.next_event(), Some(FrameEvent::Frame(payload.clone())));
        assert!(d.is_idle());
        // Two frames in one chunk.
        let mut two = encode_frame(b"a");
        two.extend_from_slice(&encode_frame(b""));
        d.push(&two);
        assert_eq!(d.next_event(), Some(FrameEvent::Frame(b"a".to_vec())));
        assert_eq!(d.next_event(), Some(FrameEvent::Frame(Vec::new())));
        assert!(d.is_idle());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation_and_resyncs() {
        let mut d = FrameDecoder::new();
        // Claim 3 GiB: the event fires as soon as the header is read.
        let len: u32 = 3 << 30;
        d.push(&len.to_le_bytes());
        assert_eq!(d.next_event(), Some(FrameEvent::Oversized { len: len as u64 }));
        assert!(!d.is_idle(), "skipping the announced payload");
        // Only 8 bytes of the "payload" ever arrive before the peer
        // gives up; decoding stalls but never allocates the 3 GiB.
        d.push(&[0; 8]);
        assert_eq!(d.next_event(), None);
        // A peer that does send it all resyncs to the next frame. Use a
        // small oversized frame to keep the test fast.
        let mut d = FrameDecoder::new();
        let over = (MAX_FRAME + 3) as u32;
        d.push(&over.to_le_bytes());
        assert_eq!(d.next_event(), Some(FrameEvent::Oversized { len: over as u64 }));
        d.push(&vec![0u8; MAX_FRAME + 3]);
        d.push(&encode_frame(b"after"));
        assert_eq!(d.next_event(), Some(FrameEvent::Frame(b"after".to_vec())));
        assert!(d.is_idle());
    }

    #[test]
    fn request_round_trips() {
        let (c, phi) = mp_pair();
        for req in [
            Request { verb: Verb::Ping, deadline_ms: None },
            Request { verb: Verb::Ping, deadline_ms: Some(25) },
            Request {
                verb: Verb::Check { model: Model::Sc, c: c.clone(), phi: phi.clone() },
                deadline_ms: Some(50),
            },
            Request { verb: Verb::Models { c: c.clone(), phi: phi.clone() }, deadline_ms: None },
            Request { verb: Verb::Litmus { name: "MP".to_string() }, deadline_ms: None },
        ] {
            let text = render_request(&req);
            let back = parse_request(text.as_bytes()).unwrap();
            assert_eq!(back, req, "round trip failed for {text:?}");
        }
    }

    #[test]
    fn request_errors_are_line_numbered() {
        let e = parse_request(b"nonsense").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_request(b"ccmm-req-v1 frobnicate").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("unknown verb"));
        // A bad node on line 3 of the payload (header + 2 body lines).
        let e =
            parse_request(b"ccmm-req-v1 check sc\nn0: W(0)\nBAD LINE\n---\nl0: n0\n").unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        // Observer errors point past the separator.
        let e = parse_request(b"ccmm-req-v1 check sc\nn0: W(0)\n---\nl0: n0 n9 n9\n").unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        // Mid-UTF-8 truncation: line of the first invalid byte.
        let mut bytes = b"ccmm-req-v1 check sc\nn0: W(0)\n---\nl0: ".to_vec();
        bytes.extend_from_slice(&[0xE2, 0x88]); // truncated '∈'
        let e = parse_request(&bytes).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("UTF-8"));
        // Missing separator is payload-global.
        let e = parse_request(b"ccmm-req-v1 models\nn0: W(0)\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("---"));
    }

    #[test]
    fn reply_round_trips() {
        for rep in [
            Reply::Ok { body: vec!["SC: in".into(), "LC: out".into()], cached: false },
            Reply::Ok { body: vec!["pong".into()], cached: true },
            Reply::Error { line: 7, message: "bad node".into() },
            Reply::Degraded { message: "injected fault: handler panic".into() },
            Reply::Partial { done: 2, total: 6, body: vec!["SC: in".into(), "LC: in".into()] },
            Reply::Overloaded { retry_after_ms: 40 },
            Reply::ShuttingDown,
        ] {
            let wire = rep.encode();
            assert_eq!(Reply::decode(&wire).unwrap(), rep);
        }
        assert!(Reply::decode(b"garbage").is_err());
        assert!(Reply::decode(&[0xFF, 0xFE]).is_err());
    }

    #[test]
    fn handler_serves_corpus_shaped_verdicts() {
        let cache = std::sync::Arc::new(VerdictCache::new(4, 64));
        let mut h = Handler::new(std::sync::Arc::clone(&cache), None);
        let (c, phi) = mp_pair();
        let req = render_request(&Request {
            verb: Verb::Models { c: c.clone(), phi: phi.clone() },
            deadline_ms: None,
        });
        let Reply::Ok { body, cached } = h.handle(req.as_bytes(), false) else {
            panic!("expected ok")
        };
        assert!(!cached);
        for (line, m) in body.iter().zip(SERVED_MODELS) {
            assert_eq!(*line, verdict_line(m, m.contains(&c, &phi)));
        }
        // Second ask: all six verdicts come from the cache.
        let Reply::Ok { body: again, cached } = h.handle(req.as_bytes(), false) else {
            panic!("expected ok")
        };
        assert!(cached, "second ask must be fully cached");
        assert_eq!(again, body);
        assert_eq!(cache.stats().hits, 6);
    }

    #[test]
    fn handler_quarantines_panics_and_survives() {
        let cache = std::sync::Arc::new(VerdictCache::new(1, 8));
        let mut h = Handler::new(cache, None);
        let req = render_request(&Request { verb: Verb::Ping, deadline_ms: None });
        let Reply::Degraded { message } = h.handle(req.as_bytes(), true) else {
            panic!("expected degraded")
        };
        assert!(message.contains("injected fault"));
        // The same handler keeps serving.
        let Reply::Ok { body, .. } = h.handle(req.as_bytes(), false) else {
            panic!("expected ok after quarantine")
        };
        assert_eq!(body, vec!["pong".to_string()]);
    }

    #[test]
    fn zero_deadline_yields_partial() {
        let cache = std::sync::Arc::new(VerdictCache::new(1, 8));
        let mut h = Handler::new(std::sync::Arc::clone(&cache), None);
        let (c, phi) = mp_pair();
        let req = render_request(&Request { verb: Verb::Models { c, phi }, deadline_ms: Some(0) });
        let Reply::Partial { done, total, body } = h.handle(req.as_bytes(), false) else {
            panic!("expected partial")
        };
        assert_eq!((done, total), (0, 6));
        assert!(body.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "an expired request must not touch the cache");
    }

    #[test]
    fn zero_deadline_check_yields_partial() {
        let cache = std::sync::Arc::new(VerdictCache::new(1, 8));
        let mut h = Handler::new(std::sync::Arc::clone(&cache), None);
        let (c, phi) = mp_pair();
        let req = render_request(&Request {
            verb: Verb::Check { model: Model::Sc, c, phi },
            deadline_ms: Some(0),
        });
        let Reply::Partial { done, total, body } = h.handle(req.as_bytes(), false) else {
            panic!("expected partial")
        };
        assert_eq!((done, total), (0, 1));
        assert!(body.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (0, 0), "an expired request must not touch the cache");
    }

    #[test]
    fn litmus_verb_counts_outcomes() {
        let cache = std::sync::Arc::new(VerdictCache::new(1, 8));
        let mut h = Handler::new(cache, None);
        let req = render_request(&Request {
            verb: Verb::Litmus { name: "mp".to_string() },
            deadline_ms: None,
        });
        let Reply::Ok { body, .. } = h.handle(req.as_bytes(), false) else { panic!("expected ok") };
        let t = crate::litmus::message_passing();
        assert_eq!(body[0], format!("SC: {} outcomes", t.outcomes(&Model::Sc).len()));
        let bad = render_request(&Request {
            verb: Verb::Litmus { name: "nope".to_string() },
            deadline_ms: None,
        });
        assert!(matches!(h.handle(bad.as_bytes(), false), Reply::Error { .. }));
    }

    #[test]
    fn canonical_keys_identify_isomorphic_pairs() {
        // Figure 2 relabelled by reversing the antichain components must
        // share a key with the original.
        let w = witness::figure2();
        let (c, phi) = (w.computation, w.phi);
        let k1 = verdict_key(Model::Sc, &c, &phi);
        // Relabel by a random-ish topo order: swap two incomparable
        // nodes if any exist; MP's two chains are incomparable.
        let t = crate::litmus::message_passing();
        let c2 = {
            use crate::op::Op;
            // MP with the chains swapped: nodes (2,3) first.
            Computation::from_edges(
                4,
                &[(0, 1), (2, 3)],
                vec![
                    t.computation.op(ccmm_dag::NodeId::new(2)),
                    t.computation.op(ccmm_dag::NodeId::new(3)),
                    t.computation.op(ccmm_dag::NodeId::new(0)),
                    t.computation.op(ccmm_dag::NodeId::new(1)),
                ]
                .into_iter()
                .collect::<Vec<Op>>(),
            )
        };
        let phi_a = ObserverFunction::base(&t.computation);
        let phi_b = ObserverFunction::base(&c2);
        assert_eq!(
            verdict_key(Model::Lc, &t.computation, &phi_a),
            verdict_key(Model::Lc, &c2, &phi_b),
            "isomorphic pairs must share a cache key"
        );
        // Different models never collide.
        assert_ne!(k1, verdict_key(Model::Lc, &c, &phi));
    }

    /// Every linear extension of `c`'s dag (`t[i]` = old node at
    /// position `i`) with its ancestor-mask vector.
    fn extensions(c: &Computation) -> Vec<(Vec<u32>, Vec<usize>)> {
        use ccmm_dag::topo::for_each_topo_sort;
        use std::ops::ControlFlow;
        let mut out = Vec::new();
        let _ = for_each_topo_sort(c.dag(), |t| {
            let masks = t
                .iter()
                .map(|&v| {
                    let mut m = 0u32;
                    for (j, &u) in t.iter().enumerate() {
                        if u != v && c.precedes(u, v) {
                            m |= 1 << j;
                        }
                    }
                    m
                })
                .collect();
            out.push((masks, t.iter().map(|u| u.index()).collect()));
            ControlFlow::Continue(())
        });
        out
    }

    /// The pair encoding as it was first defined, under the relabelling
    /// `perm` (new index `i` = old node `perm[i]`).
    fn oracle_encoding(out: &mut Vec<u8>, c: &Computation, phi: &ObserverFunction, perm: &[usize]) {
        use crate::op::{Location, Op};
        use ccmm_dag::NodeId;
        let n = c.node_count();
        let mut inv = vec![0u16; n];
        for (i, &old) in perm.iter().enumerate() {
            inv[old] = i as u16;
        }
        out.extend_from_slice(&(n as u16).to_le_bytes());
        out.extend_from_slice(&(c.num_locations() as u16).to_le_bytes());
        for &old in perm {
            let (tag, loc) = match c.op(NodeId::new(old)) {
                Op::Nop => (0u16, 0u16),
                Op::Read(l) => (1, l.index() as u16),
                Op::Write(l) => (2, l.index() as u16),
            };
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&loc.to_le_bytes());
        }
        for l in 0..c.num_locations() {
            for &old in perm {
                let v = match phi.get(Location::new(l), NodeId::new(old)) {
                    None => 0u16,
                    Some(w) => inv[w.index()] + 1,
                };
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }

    /// The key as it was first defined: over every linear extension of
    /// the dag, the lex-min `(ancestor-mask vector, encoded pair)`. The
    /// pruned prefix search must reproduce it byte for byte. `exts` is
    /// [`extensions`]`(c)`, shared by every observer of `c`.
    fn oracle_key(
        model: Model,
        c: &Computation,
        phi: &ObserverFunction,
        exts: &[(Vec<u32>, Vec<usize>)],
    ) -> Vec<u8> {
        let n = c.node_count();
        let mut key = vec![model_tag(model)];
        if n > CANON_NODE_CAP {
            key.push(0);
            oracle_encoding(&mut key, c, phi, &(0..n).collect::<Vec<_>>());
            return key;
        }
        key.push(1);
        let mut best: Option<(&[u32], Vec<u8>)> = None;
        for (masks, perm) in exts {
            if best.as_ref().is_some_and(|(bm, _)| masks.as_slice() > *bm) {
                continue;
            }
            let mut enc = Vec::new();
            oracle_encoding(&mut enc, c, phi, perm);
            let cand = (masks.as_slice(), enc);
            match &best {
                Some(b) if *b <= cand => {}
                _ => best = Some(cand),
            }
        }
        let (masks, bytes) = best.unwrap_or_default();
        for m in masks {
            key.extend_from_slice(&m.to_le_bytes());
        }
        key.extend_from_slice(&bytes);
        key
    }

    /// Asserts the served key equals the oracle's. The body is
    /// model-independent by construction, so one model is enough;
    /// `model_byte_is_the_only_model_dependence` pins the rest.
    fn assert_oracle_key(c: &Computation, phi: &ObserverFunction) {
        assert_oracle_key_over(c, phi, &extensions(c));
    }

    fn assert_oracle_key_over(
        c: &Computation,
        phi: &ObserverFunction,
        exts: &[(Vec<u32>, Vec<usize>)],
    ) {
        assert_eq!(
            verdict_key(Model::Nw, c, phi),
            oracle_key(Model::Nw, c, phi, exts),
            "prefix-search key diverges from the enumeration on {} / {:?}",
            crate::parse::render_computation(c),
            phi
        );
    }

    #[test]
    fn model_byte_is_the_only_model_dependence() {
        let mut body = Vec::new();
        for t in crate::litmus::standard_tests() {
            let phi = ObserverFunction::base(&t.computation);
            pair_key_into(&mut body, &t.computation, &phi);
            for m in SERVED_MODELS.into_iter().chain([Model::Any]) {
                let key = verdict_key(m, &t.computation, &phi);
                let want = oracle_key(m, &t.computation, &phi, &extensions(&t.computation));
                assert_eq!(key, want, "{} / {}", t.name, m.name());
                assert_eq!(key[0], model_tag(m));
                assert_eq!(key[1..], body[1..], "{}: body depends on {}", t.name, m.name());
            }
        }
    }

    /// Every pair of the universe of at most `nodes` nodes over `locs`
    /// locations, against the oracle. Returns the number of pairs.
    fn assert_universe_matches_oracle(nodes: usize, locs: usize) -> u64 {
        use crate::enumerate::for_each_observer;
        use crate::universe::Universe;
        use std::ops::ControlFlow;
        let mut pairs = 0u64;
        let _ = Universe::new(nodes, locs).for_each_computation(|c| {
            let exts = extensions(c);
            let _ = for_each_observer(c, |phi| {
                assert_oracle_key_over(c, phi, &exts);
                pairs += 1;
                ControlFlow::Continue(())
            });
            ControlFlow::Continue(())
        });
        pairs
    }

    /// A seeded pair on `n` nodes: a G(n, p) dag under a random node
    /// relabelling (so the labelling is not natural), random ops over
    /// `locs` locations, and a random valid observer.
    fn seeded_pair(seed: u64, n: usize, locs: usize) -> (Computation, ObserverFunction) {
        use crate::op::{Location, Op};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let p = rng.gen_range(0.0..0.6);
        let dag = ccmm_dag::generate::gnp_dag(n, p, &mut rng);
        let mut label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            label.swap(i, rng.gen_range(0..=i));
        }
        let edges: Vec<(usize, usize)> =
            dag.edges().map(|(u, v)| (label[u.index()], label[v.index()])).collect();
        let ops = (0..n)
            .map(|_| {
                let l = Location::new(rng.gen_range(0..locs));
                match rng.gen_range(0..5u32) {
                    0 => Op::Nop,
                    1 | 2 => Op::Write(l),
                    _ => Op::Read(l),
                }
            })
            .collect();
        let c = Computation::from_edges(n, &edges, ops);
        let phi = random_observer(&mut rng, &c);
        (c, phi)
    }

    fn random_observer(rng: &mut impl rand::Rng, c: &Computation) -> ObserverFunction {
        ObserverFunction::from_fn(c, |l, u| {
            if c.op(u).is_write_to(l) {
                return Some(u);
            }
            let cands: Vec<_> =
                c.writes_to(l).iter().copied().filter(|&w| !c.precedes(u, w)).collect();
            let k = rng.gen_range(0..=cands.len());
            (k > 0).then(|| cands[k - 1])
        })
    }

    /// The pair relabelled by `perm` (new node `i` = old node `perm[i]`).
    fn relabel(
        c: &Computation,
        phi: &ObserverFunction,
        perm: &[usize],
    ) -> (Computation, ObserverFunction) {
        use ccmm_dag::NodeId;
        let mut inv = vec![0; perm.len()];
        for (i, &old) in perm.iter().enumerate() {
            inv[old] = i;
        }
        let edges: Vec<(usize, usize)> =
            c.dag().edges().map(|(u, v)| (inv[u.index()], inv[v.index()])).collect();
        let ops = perm.iter().map(|&old| c.op(NodeId::new(old))).collect();
        let c2 = Computation::from_edges(perm.len(), &edges, ops);
        let phi2 = ObserverFunction::from_fn(&c2, |l, u| {
            phi.get(l, NodeId::new(perm[u.index()])).map(|w| NodeId::new(inv[w.index()]))
        });
        (c2, phi2)
    }

    #[test]
    fn keys_match_oracle_on_every_small_pair() {
        // Every pair of at most 4 nodes over 2 locations; the full
        // bound-5 × 1 and bound-4 × 2 universes run in release below.
        let pairs = assert_universe_matches_oracle(4, 2);
        assert!(pairs > 10_000, "universe enumerated only {pairs} pairs");
    }

    #[test]
    #[ignore = "release-only: ci.sh runs it with --ignored"]
    fn keys_match_oracle_on_bound5_and_bound4x2_universes() {
        let pairs = assert_universe_matches_oracle(5, 1) + assert_universe_matches_oracle(4, 2);
        assert!(pairs > 1_000_000, "universes enumerated only {pairs} pairs");
        for seed in 0..3_000 {
            let (c, phi) = seeded_pair(seed, 6 + (seed % 3) as usize, 2);
            assert_oracle_key(&c, &phi);
        }
    }

    #[test]
    fn keys_match_oracle_on_seeded_six_to_eight_node_pairs() {
        for seed in 0..60 {
            let (c, phi) = seeded_pair(seed, 6 + (seed % 3) as usize, 2);
            assert_oracle_key(&c, &phi);
        }
    }

    #[test]
    fn keys_match_oracle_on_adversarial_shapes() {
        use crate::enumerate::for_each_observer;
        use crate::op::{Location, Op};
        use rand::SeedableRng;
        use std::ops::ControlFlow;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let (x, y) = (Location::new(0), Location::new(1));
        // The 8-node antichain: all 40,320 extensions tie on masks, so
        // the encoding decides alone. Blank, then with ops and observers.
        let blank = Computation::from_edges(8, &[], vec![Op::Nop; 8]);
        assert_oracle_key(&blank, &ObserverFunction::base(&blank));
        let ops = vec![
            Op::Write(x),
            Op::Read(x),
            Op::Write(y),
            Op::Read(y),
            Op::Write(x),
            Op::Read(y),
            Op::Nop,
            Op::Read(x),
        ];
        let antichain = Computation::from_edges(8, &[], ops.clone());
        assert_oracle_key(&antichain, &random_observer(&mut rng, &antichain));
        // Four 2-chains (2,520 extensions), labelled both ways round.
        for edges in [[(0, 1), (2, 3), (4, 5), (6, 7)], [(7, 6), (5, 4), (3, 2), (1, 0)]] {
            let chains = Computation::from_edges(8, &edges, ops.clone());
            assert_oracle_key(&chains, &ObserverFunction::base(&chains));
            assert_oracle_key(&chains, &random_observer(&mut rng, &chains));
        }
        // Every litmus shape under every valid observer.
        for t in crate::litmus::standard_tests() {
            let _ = for_each_observer(&t.computation, |phi| {
                assert_oracle_key(&t.computation, phi);
                ControlFlow::Continue(())
            });
        }
        // Above the cap the key stays literal.
        let big = Computation::from_edges(9, &[], vec![Op::Write(x); 9]);
        let phi = ObserverFunction::base(&big);
        assert_eq!(verdict_key(Model::Sc, &big, &phi)[1], 0, "literal marker");
        assert_oracle_key(&big, &phi);
    }

    #[test]
    fn every_topological_relabelling_shares_one_key() {
        use ccmm_dag::topo::for_each_topo_sort;
        use std::ops::ControlFlow;
        for seed in 100..104 {
            let (c, phi) = seeded_pair(seed, 6, 2);
            let want = verdict_key(Model::Nn, &c, &phi);
            let mut seen = 0;
            let _ = for_each_topo_sort(c.dag(), |t| {
                let perm: Vec<usize> = t.iter().map(|u| u.index()).collect();
                let (c2, phi2) = relabel(&c, &phi, &perm);
                assert_eq!(verdict_key(Model::Nn, &c2, &phi2), want, "seed {seed}: {perm:?}");
                seen += 1;
                ControlFlow::Continue(())
            });
            assert!(seen > 0);
        }
    }

    #[test]
    fn cache_eviction_never_changes_an_answer() {
        let cache = VerdictCache::new(2, 4); // tiny: constant eviction
        let mut scratch = CheckScratch::new();
        let tests = crate::litmus::standard_tests();
        let mut lookups = 0u64;
        for round in 0..3 {
            for t in &tests {
                for m in SERVED_MODELS {
                    let phi = ObserverFunction::base(&t.computation);
                    let (got, _) = cache.check(m, &t.computation, &phi, &mut scratch);
                    lookups += 1;
                    assert_eq!(
                        got,
                        m.contains(&t.computation, &phi),
                        "round {round}: cached verdict for {} on {} drifted",
                        m.name(),
                        t.name
                    );
                }
            }
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "capacity 4 must evict under {lookups} lookups");
        assert_eq!(s.hits + s.misses, lookups, "every lookup classified exactly once");
        assert!(s.len <= 4 + 1, "size bound respected (cap + in-flight insert)");
    }

    #[test]
    fn cache_hammered_from_four_threads_stays_exact() {
        // Four threads, a capacity small enough that eviction is
        // constant, and a working set (litmus pairs × models) larger
        // than the cache: every verdict any thread ever sees must equal
        // a fresh `contains_with`, and the deterministic invariant
        // `hits + misses == lookups` must hold across all schedules.
        let cache = std::sync::Arc::new(VerdictCache::new(4, 6));
        let tests = crate::litmus::standard_tests();
        const PER_THREAD: usize = 400;
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let cache = std::sync::Arc::clone(&cache);
                let tests = &tests;
                s.spawn(move || {
                    let mut scratch = CheckScratch::new();
                    let mut fresh = CheckScratch::new();
                    for i in 0..PER_THREAD {
                        // A seeded walk so threads interleave different
                        // keys (contention + disjoint shards both hit).
                        let r = mix64(tid ^ (i as u64) << 8);
                        let t = &tests[(r % tests.len() as u64) as usize];
                        let m = SERVED_MODELS[(r >> 32) as usize % SERVED_MODELS.len()];
                        let phi = ObserverFunction::base(&t.computation);
                        let (got, _) = cache.check(m, &t.computation, &phi, &mut scratch);
                        let want = m.contains_with(&t.computation, &phi, &mut fresh);
                        assert_eq!(
                            got,
                            want,
                            "thread {tid} lookup {i}: cached {} on {} != fresh",
                            m.name(),
                            t.name
                        );
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 4 * PER_THREAD as u64, "hits + misses == requests");
        assert!(s.evictions > 0, "capacity 6 must evict across 1600 lookups");
        assert!(s.len <= 8, "size bound respected under concurrency");
    }
}
