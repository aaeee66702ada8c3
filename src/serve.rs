//! The `ccmm serve` daemon: membership-as-a-service over TCP.
//!
//! A thin, robust shell around [`ccmm_core::serve`]: this module owns
//! the sockets, threads, admission control, fault injection, and drain
//! choreography; the protocol (framing, request grammar, verdict cache,
//! panic-quarantined handler) lives in core and is what the conformance
//! harness and proptests exercise socket-free.
//!
//! # Lifecycle
//!
//! [`spawn`] binds a listener and returns a [`ServerHandle`]; requesting
//! shutdown (via the handle or `SIGTERM`/`SIGINT` in the CLI) triggers a
//! *graceful drain*: the acceptor stops accepting, every connection
//! thread finishes the requests already in flight (replying
//! `shutting-down` to frames that arrive after the drain began), all
//! threads are joined, and [`ServeStats`] — including the
//! `connections_accepted == connections_closed` leak check — is
//! reported. The process exits 0 on a clean drain.
//!
//! # Admission control
//!
//! A global in-flight gauge bounds concurrent request handling: past
//! `max_inflight`, requests are shed immediately with an `overloaded`
//! reply carrying a `retry-after-ms` hint, costing the server one frame
//! decode and no model checks.
//!
//! # Fault injection
//!
//! Every admitted request draws a global index; the
//! [`ServeFaultPlan`] maps the index
//! to the faults to inject — handler panic (quarantined into a
//! `degraded` reply), response delay, torn reply frame, or connection
//! drop — so the chaos soak replays byte-identically from its seed.

use ccmm_core::fault::{ServeFault, ServeFaultPlan};
use ccmm_core::serve::{encode_frame, FrameDecoder, FrameEvent, Handler, Reply, VerdictCache};
use ccmm_core::telemetry::{self, Counter};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration (CLI flags map 1:1 onto these fields).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Concurrent requests admitted before shedding.
    pub max_inflight: usize,
    /// The `retry-after-ms` hint shed requests carry.
    pub retry_after_ms: u64,
    /// Default per-request deadline budget (None = no budget).
    pub deadline_ms: Option<u64>,
    /// Verdict-cache capacity (entries).
    pub cache_capacity: usize,
    /// The fault plan (empty = serve faithfully).
    pub fault: ServeFaultPlan,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 32,
            retry_after_ms: 25,
            deadline_ms: None,
            cache_capacity: 4096,
            fault: ServeFaultPlan::none(),
        }
    }
}

/// Lifetime statistics, reported after the drain completes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections the acceptor admitted.
    pub connections_accepted: u64,
    /// Connection threads that ran to completion (the leak check:
    /// equals `connections_accepted` after a drain).
    pub connections_closed: u64,
    /// Request frames that reached admission.
    pub requests: u64,
    /// Requests answered `ok`.
    pub served: u64,
    /// Requests shed `overloaded` at admission.
    pub shed: u64,
    /// Requests quarantined into `degraded` replies.
    pub degraded: u64,
    /// Requests cut short into `partial` replies.
    pub deadline_expired: u64,
    /// Payloads rejected with a line-numbered `error` reply (including
    /// oversized frames).
    pub frame_errors: u64,
    /// Requests answered `shutting-down` during the drain.
    pub refused_draining: u64,
    /// Verdict-cache hits.
    pub cache_hits: u64,
    /// Verdict-cache misses.
    pub cache_misses: u64,
    /// Verdict-cache evictions.
    pub cache_evictions: u64,
}

#[derive(Default)]
struct Gauges {
    connections_accepted: AtomicU64,
    connections_closed: AtomicU64,
    requests: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    degraded: AtomicU64,
    deadline_expired: AtomicU64,
    frame_errors: AtomicU64,
    refused_draining: AtomicU64,
    inflight: AtomicU64,
    next_request: AtomicU64,
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or deliver `SIGTERM` to the CLI).
pub struct ServerHandle {
    /// The actually-bound address (resolves `:0` to the real port).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: std::thread::JoinHandle<ServeStats>,
}

impl ServerHandle {
    /// Requests a graceful drain and waits for it to complete.
    pub fn shutdown(self) -> ServeStats {
        self.stop.store(true, Ordering::SeqCst);
        self.join.join().expect("server thread panicked")
    }

    /// The shutdown flag, for wiring signal handlers to the drain.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }
}

/// Binds `cfg.addr` and serves on a background thread. The returned
/// handle carries the resolved address — connect clients to it — and
/// the drain trigger.
pub fn spawn(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("ccmm-serve-accept".to_string())
        .spawn(move || run(listener, cfg, stop2))
        .map_err(std::io::Error::other)?;
    Ok(ServerHandle { addr, stop, join })
}

/// The accept loop: polls for connections (non-blocking, so the stop
/// flag is honoured within ~10 ms), spawns one thread per connection,
/// and on stop drains — joins every connection thread — before
/// returning the final stats.
fn run(listener: TcpListener, cfg: ServeConfig, stop: Arc<AtomicBool>) -> ServeStats {
    listener.set_nonblocking(true).expect("set_nonblocking");
    let cache = Arc::new(VerdictCache::new(8, cfg.cache_capacity));
    let gauges = Arc::new(Gauges::default());
    let cfg = Arc::new(cfg);
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                gauges.connections_accepted.fetch_add(1, Ordering::Relaxed);
                telemetry::count(Counter::ServeConnections, 1);
                let cache = Arc::clone(&cache);
                let gauges = Arc::clone(&gauges);
                let cfg = Arc::clone(&cfg);
                let stop = Arc::clone(&stop);
                workers.push(
                    std::thread::Builder::new()
                        .name("ccmm-serve-conn".to_string())
                        .spawn(move || {
                            serve_connection(stream, &cfg, &cache, &gauges, &stop);
                            gauges.connections_closed.fetch_add(1, Ordering::Relaxed);
                        })
                        .expect("spawn connection thread"),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
                // Reap finished connection threads so a long-lived server
                // does not accumulate handles.
                workers.retain(|w| !w.is_finished());
            }
            Err(_) => break,
        }
    }
    // Drain: no new connections; every connection thread notices the
    // stop flag at its next read timeout, finishes its in-flight
    // request, and exits. Join them all — the leak check counts on it.
    for w in workers {
        let _ = w.join();
    }
    let cs = cache.stats();
    ServeStats {
        connections_accepted: gauges.connections_accepted.load(Ordering::Relaxed),
        connections_closed: gauges.connections_closed.load(Ordering::Relaxed),
        requests: gauges.requests.load(Ordering::Relaxed),
        served: gauges.served.load(Ordering::Relaxed),
        shed: gauges.shed.load(Ordering::Relaxed),
        degraded: gauges.degraded.load(Ordering::Relaxed),
        deadline_expired: gauges.deadline_expired.load(Ordering::Relaxed),
        frame_errors: gauges.frame_errors.load(Ordering::Relaxed),
        refused_draining: gauges.refused_draining.load(Ordering::Relaxed),
        cache_hits: cs.hits,
        cache_misses: cs.misses,
        cache_evictions: cs.evictions,
    }
}

/// Serves one connection until EOF, error, or drain. Every frame gets a
/// reply (or a deliberately injected drop/truncation); a request in
/// flight when the drain starts still completes and is answered.
fn serve_connection(
    mut stream: TcpStream,
    cfg: &ServeConfig,
    cache: &Arc<VerdictCache>,
    gauges: &Gauges,
    stop: &AtomicBool,
) {
    // A short read timeout doubles as the drain poll interval.
    stream.set_read_timeout(Some(Duration::from_millis(50))).ok();
    stream.set_nodelay(true).ok();
    let mut decoder = FrameDecoder::new();
    let mut handler = Handler::new(Arc::clone(cache), cfg.deadline_ms);
    let mut buf = [0u8; 16 * 1024];
    loop {
        // Serve everything already decoded before reading more.
        while let Some(event) = decoder.next_event() {
            let payload = match event {
                FrameEvent::Frame(p) => p,
                FrameEvent::Oversized { len } => {
                    // Structured refusal; the connection survives and the
                    // decoder resyncs past the announced length.
                    gauges.frame_errors.fetch_add(1, Ordering::Relaxed);
                    telemetry::count(Counter::ServeFrameErrors, 1);
                    let reply = Reply::Error {
                        line: 0,
                        message: format!(
                            "frame length {len} exceeds the {} byte cap",
                            ccmm_core::serve::MAX_FRAME
                        ),
                    };
                    if stream.write_all(&encode_frame(&reply.encode())).is_err() {
                        return;
                    }
                    continue;
                }
            };
            if !handle_one(&mut stream, &payload, &mut handler, cfg, gauges, stop) {
                return;
            }
        }
        if stop.load(Ordering::SeqCst) && decoder.is_idle() {
            // Drained: nothing buffered, nothing in flight.
            return;
        }
        use std::io::Read;
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => decoder.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue; // poll the stop flag, then read again
            }
            Err(_) => return,
        }
    }
}

/// Admits, handles, and answers one request frame. Returns false when
/// the connection must close (write failure or an injected drop).
fn handle_one(
    stream: &mut TcpStream,
    payload: &[u8],
    handler: &mut Handler,
    cfg: &ServeConfig,
    gauges: &Gauges,
    stop: &AtomicBool,
) -> bool {
    gauges.requests.fetch_add(1, Ordering::Relaxed);
    let idx = gauges.next_request.fetch_add(1, Ordering::Relaxed);
    let fault = cfg.fault.action(idx);

    let reply = if stop.load(Ordering::SeqCst) {
        // The frame arrived after the drain began: refuse it in a
        // structured way rather than leaving the client hanging.
        gauges.refused_draining.fetch_add(1, Ordering::Relaxed);
        Reply::ShuttingDown
    } else {
        let inflight = gauges.inflight.fetch_add(1, Ordering::Relaxed) + 1;
        let reply = if inflight > cfg.max_inflight as u64 {
            gauges.shed.fetch_add(1, Ordering::Relaxed);
            telemetry::count(Counter::ServeShed, 1);
            Reply::Overloaded { retry_after_ms: cfg.retry_after_ms }
        } else {
            let r = handler.handle(payload, fault.panic);
            match &r {
                Reply::Ok { .. } => {
                    gauges.served.fetch_add(1, Ordering::Relaxed);
                }
                Reply::Degraded { .. } => {
                    gauges.degraded.fetch_add(1, Ordering::Relaxed);
                }
                Reply::Partial { .. } => {
                    gauges.deadline_expired.fetch_add(1, Ordering::Relaxed);
                }
                Reply::Error { .. } => {
                    gauges.frame_errors.fetch_add(1, Ordering::Relaxed);
                }
                Reply::Overloaded { .. } | Reply::ShuttingDown => {}
            }
            r
        };
        gauges.inflight.fetch_sub(1, Ordering::Relaxed);
        reply
    };

    apply_response_faults(stream, &reply, &fault)
}

/// Writes the reply, applying the injected delay / truncation / drop.
/// Returns false when the connection must close.
fn apply_response_faults(stream: &mut TcpStream, reply: &Reply, fault: &ServeFault) -> bool {
    if fault.delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(fault.delay_ms));
    }
    if fault.drop_conn {
        // Close without replying: the client sees EOF and retries.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return false;
    }
    let wire = encode_frame(&reply.encode());
    if fault.truncate {
        // A torn frame: half the bytes, then EOF. The client's decoder
        // must treat it as a transport error, never a verdict.
        let cut = (wire.len() / 2).max(1);
        let _ = stream.write_all(&wire[..cut]);
        let _ = stream.flush();
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return false;
    }
    stream.write_all(&wire).and_then(|_| stream.flush()).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Connection;
    use ccmm_core::serve::{render_request, Request, Verb};

    fn ping() -> String {
        render_request(&Request { verb: Verb::Ping, deadline_ms: None })
    }

    #[test]
    fn spawn_serve_ping_drain() {
        let handle = spawn(ServeConfig::default()).unwrap();
        let mut conn = Connection::connect(&handle.addr.to_string(), 2_000).unwrap();
        let reply = conn.roundtrip(ping().as_bytes()).unwrap();
        assert_eq!(reply, Reply::Ok { body: vec!["pong".into()], cached: false });
        drop(conn);
        let stats = handle.shutdown();
        assert_eq!(stats.connections_accepted, 1);
        assert_eq!(stats.connections_closed, 1, "drain must reap the connection");
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn injected_panic_degrades_one_request_and_connection_survives() {
        let cfg = ServeConfig {
            fault: ServeFaultPlan::from_spec("panic-at-request=0").unwrap(),
            ..ServeConfig::default()
        };
        let handle = spawn(cfg).unwrap();
        let mut conn = Connection::connect(&handle.addr.to_string(), 2_000).unwrap();
        let first = conn.roundtrip(ping().as_bytes()).unwrap();
        assert!(matches!(first, Reply::Degraded { .. }), "request 0 panics: {first:?}");
        // Same connection, next request: served normally.
        let second = conn.roundtrip(ping().as_bytes()).unwrap();
        assert_eq!(second, Reply::Ok { body: vec!["pong".into()], cached: false });
        drop(conn);
        let stats = handle.shutdown();
        assert_eq!((stats.degraded, stats.served), (1, 1));
        assert_eq!(stats.connections_closed, stats.connections_accepted);
    }

    #[test]
    fn overload_sheds_with_retry_hint() {
        // max_inflight = 0 admits nothing: every request sheds.
        let cfg = ServeConfig { max_inflight: 0, retry_after_ms: 7, ..ServeConfig::default() };
        let handle = spawn(cfg).unwrap();
        let mut conn = Connection::connect(&handle.addr.to_string(), 2_000).unwrap();
        let reply = conn.roundtrip(ping().as_bytes()).unwrap();
        assert_eq!(reply, Reply::Overloaded { retry_after_ms: 7 });
        drop(conn);
        let stats = handle.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.served, 0);
    }
}
