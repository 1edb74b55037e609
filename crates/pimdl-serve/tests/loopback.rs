//! Loopback tests of the real epoll reactor path.
//!
//! Binds the line-protocol server ([`Runtime::serve`]: the reactor thread
//! plus one worker thread per shard) to `127.0.0.1:0`, fires concurrent
//! client threads that pipeline their queries, and checks every reply
//! against a single-threaded oracle (see [`line_clients`]) and the
//! server's final snapshot against the replies. Runs in tier-1: no
//! `#[ignore]`, and the clock speedup keeps each test well under two
//! seconds.

mod line_clients;

use std::net::TcpListener;
use std::sync::Arc;

use pimdl_engine::shapes::TransformerShape;
use pimdl_serve::{Runtime, ServeConfig};
use pimdl_sim::PlatformConfig;

fn runtime(cfg: ServeConfig) -> Arc<Runtime> {
    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;
    Arc::new(Runtime::new(platform, TransformerShape::tiny(), cfg).unwrap())
}

/// Serves `rt` on loopback while `clients` threads each send `per_client`
/// queries through [`line_clients::query_concurrently`], which checks
/// every reply. Returns the replies counted by kind (completed, rejected,
/// shed), which the server's final snapshot must equal.
fn serve_and_query(rt: &Arc<Runtime>, clients: usize, per_client: usize) -> [u64; 3] {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let handle = rt.serve(listener, line_clients::speedup(rt)).unwrap();
    let kinds = line_clients::query_concurrently(rt, handle.addr(), clients, per_client);
    let snap = handle.shutdown().unwrap();

    // Conservation across the wire: every query terminated exactly once,
    // and the server's ledger is the clients' replies.
    assert_eq!(snap.submitted, (clients * per_client) as u64);
    assert_eq!(
        [snap.completed, snap.rejected, snap.deadline_exceeded],
        kinds
    );
    // The reactor actually carried the traffic.
    assert_eq!(snap.reactor.accepts as usize, clients);
    assert_eq!(snap.shard_wakeups, snap.batches);
    assert!(snap.reactor.reads > 0 && snap.reactor.writes > 0);
    kinds
}

#[test]
fn loopback_concurrent_clients_match_oracle() {
    // 4 x 25 pipelined queries against the example's 64-deep queue and
    // unbounded deadlines: a refusal under momentary pressure is legal, a
    // shed is not. The 1000-query zero-lost run is `serving.rs`'s.
    let kinds = serve_and_query(&runtime(ServeConfig::example()), 4, 25);
    assert_eq!(kinds[2], 0, "unbounded deadlines never shed");
}

#[test]
fn loopback_overload_answers_every_query_once() {
    // Genuine overload: an 8-deep queue and deadlines of two service
    // times. Outcomes depend on the timing, but every query gets exactly
    // one reply and the snapshot still equals the replies.
    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = 8;
    cfg.deadline_s = 2.0 * runtime(cfg).service_model().batch_service_s(1).unwrap();
    let kinds = serve_and_query(&runtime(cfg), 4, 125);
    assert!(kinds[0] > 0, "some queries must complete");
}

#[test]
fn serve_rejects_a_nan_speedup() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    assert!(runtime(ServeConfig::example())
        .serve(listener, f64::NAN)
        .is_err());
}
