//! Counter-pinned regression test for the serve handler's key path.
//! Telemetry counters are process-global, so this binary holds a single
//! `#[test]` (see `tests/online_counters.rs` at the workspace root).
//!
//! Pinned: a request canonicalises its pair once, however many models it
//! asks, and a request whose deadline has expired canonicalises nothing
//! and makes no cache lookup.

use ccmm_core::serve::{render_request, Handler, Reply, Request, Verb, VerdictCache};
use ccmm_core::telemetry::{self, Counter};
use ccmm_core::{litmus, Computation, Location, Model, ObserverFunction, Op};
use std::sync::Arc;

#[test]
fn each_request_canonicalises_once_and_expired_ones_not_at_all() {
    telemetry::set_enabled(true);
    let cache = Arc::new(VerdictCache::new(2, 64));
    let mut h = Handler::new(Arc::clone(&cache), None);
    let mp = litmus::message_passing().computation;
    let mp_phi = ObserverFunction::base(&mp);
    // Nine nodes: above the canonicalisation cap, so a literal key.
    let big = Computation::from_edges(9, &[], vec![Op::Write(Location::new(0)); 9]);
    let big_phi = ObserverFunction::base(&big);
    let models = |c: &Computation, phi: &ObserverFunction, deadline_ms| {
        render_request(&Request {
            verb: Verb::Models { c: c.clone(), phi: phi.clone() },
            deadline_ms,
        })
    };
    let requests = [
        models(&mp, &mp_phi, None),
        models(&mp, &mp_phi, None),
        render_request(&Request {
            verb: Verb::Check { model: Model::Wn, c: mp.clone(), phi: mp_phi.clone() },
            deadline_ms: None,
        }),
        models(&big, &big_phi, None),
        models(&mp, &mp_phi, Some(0)),
        render_request(&Request { verb: Verb::Ping, deadline_ms: None }),
    ];
    telemetry::snapshot_and_reset();
    let replies: Vec<Reply> = requests.iter().map(|r| h.handle(r.as_bytes(), false)).collect();
    let snap = telemetry::snapshot_and_reset();
    assert!(matches!(replies[1], Reply::Ok { cached: true, .. }), "{:?}", replies[1]);
    assert!(matches!(replies[2], Reply::Ok { cached: true, .. }), "{:?}", replies[2]);
    assert!(matches!(replies[4], Reply::Partial { done: 0, total: 6, .. }), "{:?}", replies[4]);
    assert_eq!(snap[Counter::ServeRequests as usize], 6);
    assert_eq!(
        snap[Counter::ServeCanonicalisations as usize],
        4,
        "one canonicalisation per models/check request, none for the expired one or the ping"
    );
    let lookups = snap[Counter::ServeCacheHits as usize] + snap[Counter::ServeCacheMisses as usize];
    assert_eq!(lookups, 6 + 6 + 1 + 6, "six lookups per models request, one per check");
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (7, 12));
}
