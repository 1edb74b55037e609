//! Deterministic end-to-end test of the reactor-driven serving pipeline.
//!
//! Drives the full admit → batch → execute → respond loop through the
//! simulated event source ([`SimPoller`]) on a [`VirtualClock`]: 1000
//! scripted queries arrive over 8 scripted connections at an overloading
//! rate, so all three terminal outcomes occur. No sockets, no threads, no
//! real sleeps — two consecutive runs must be bit-identical, down to the
//! metrics snapshot and the reactor counters.

use std::collections::BTreeMap;
use std::sync::Arc;

use pimdl::engine::shapes::TransformerShape;
use pimdl::serve::codec::{self, ErrorKind, ServerMsg};
use pimdl::serve::reactor::Token;
use pimdl::serve::{
    Clock, EventSource, Metrics, MetricsSnapshot, Runtime, ServeConfig, ServerLoop, SimExecutor,
    SimPoller, VirtualClock,
};
use pimdl::sim::PlatformConfig;
use pimdl::tensor::rng::DataRng;

const NUM_CONNS: usize = 8;
const NUM_QUERIES: usize = 1000;

fn runtime(deadline_s: f64) -> Runtime {
    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;
    let mut cfg = ServeConfig::example(); // 2 shards, max_batch 4
    cfg.queue_capacity = 12;
    cfg.deadline_s = deadline_s;
    Runtime::new(platform, TransformerShape::tiny(), cfg).unwrap()
}

/// Final metrics snapshot (with reactor stats), every parsed response
/// keyed by tag, and the per-shard dispatch/wakeup counts.
type PipelineRun = (
    MetricsSnapshot,
    BTreeMap<String, ServerMsg>,
    (Vec<u64>, Vec<u64>),
);

/// One deterministic run.
fn run_pipeline() -> PipelineRun {
    // Overload: arrivals 20x faster than single-request service, deadline
    // 1.5 service times, a 12-deep queue. Early arrivals complete; the
    // backlog then rejects at the queue bound and sheds on deadline.
    let t1 = runtime(f64::INFINITY)
        .service_model()
        .batch_service_s(1)
        .unwrap();
    let rate = 20.0 / t1;
    let rt = runtime(1.5 * t1);
    let w = rt.replica().workload();

    let clock = Arc::new(VirtualClock::new());
    let mut poller = SimPoller::new(Arc::clone(&clock));
    let metrics = Arc::new(Metrics::new(rt.config().policy.max_batch));

    // Script: 8 connections at t=0, then 1000 Poisson-spaced queries
    // round-robined across them. Payload indices and expected checksums
    // come from the same seeded generator, so the oracle is fixed.
    let conns: Vec<Token> = (0..NUM_CONNS).map(|_| poller.connect_at(0.0)).collect();
    let mut rng = DataRng::new(20240207);
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    let mut t = 0.0f64;
    for k in 0..NUM_QUERIES {
        let u = f64::from(rng.uniform(1e-7, 1.0));
        t += -u.ln() / rate;
        let indices: Vec<u16> = (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
        let tag = format!("q{k}");
        let checksum = rt.replica().checksum_of(&indices).unwrap();
        expected.insert(tag.clone(), checksum.to_bits());
        poller.send_at(t, conns[k % NUM_CONNS], codec::encode_query(&tag, &indices));
    }
    for &c in &conns {
        poller.close_at(t + 1.0, c);
    }

    let mut executor = SimExecutor::new(
        Arc::clone(&clock),
        poller.handle(),
        Arc::clone(&metrics),
        rt.config().num_shards,
    );
    let clock_dyn: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
    let mut server = ServerLoop::new(&rt, clock_dyn, Arc::clone(&metrics)).unwrap();
    server.run(&mut poller, &mut executor).unwrap();

    let shards = (
        server.shards().dispatch_counts().to_vec(),
        server.shards().wakeup_counts().to_vec(),
    );
    let snapshot = metrics.snapshot_with_reactor(poller.stats().snapshot());

    let mut responses: BTreeMap<String, ServerMsg> = BTreeMap::new();
    for &c in &conns {
        let out = poller.output_of(c);
        for line in out.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let msg = codec::parse_server_msg(line).expect("server emitted a malformed line");
            let tag = match &msg {
                ServerMsg::Result { tag, .. } | ServerMsg::Error { tag, .. } => tag.clone(),
            };
            let dup = responses.insert(tag.clone(), msg);
            assert!(dup.is_none(), "tag {tag} answered more than once");
        }
    }
    assert_eq!(
        expected.keys().collect::<Vec<_>>(),
        responses.keys().collect::<Vec<_>>(),
        "every scripted query must be answered exactly once"
    );
    for (tag, msg) in &responses {
        match msg {
            ServerMsg::Result {
                correct,
                checksum_bits,
                ..
            } => {
                assert!(*correct, "tag {tag}: PIM result mismatched host oracle");
                assert_eq!(
                    *checksum_bits, expected[tag],
                    "tag {tag}: server checksum differs from client-side oracle"
                );
            }
            ServerMsg::Error { kind, .. } => {
                assert!(
                    matches!(kind, ErrorKind::Rejected | ErrorKind::Deadline),
                    "tag {tag}: unexpected refusal {kind:?}"
                );
            }
        }
    }
    (snapshot, responses, shards)
}

#[test]
fn scripted_1000_requests_conserve_and_verify() {
    let (snap, responses, (dispatches, wakeups)) = run_pipeline();

    let completed = responses
        .values()
        .filter(|m| matches!(m, ServerMsg::Result { .. }))
        .count();
    let rejected = responses
        .values()
        .filter(|m| {
            matches!(
                m,
                ServerMsg::Error {
                    kind: ErrorKind::Rejected,
                    ..
                }
            )
        })
        .count();
    let deadline = responses
        .values()
        .filter(|m| {
            matches!(
                m,
                ServerMsg::Error {
                    kind: ErrorKind::Deadline,
                    ..
                }
            )
        })
        .count();
    assert_eq!(completed + rejected + deadline, NUM_QUERIES);
    assert!(completed > 0, "some requests must be served");
    assert!(rejected > 0, "overload must overflow the 12-deep queue");
    assert!(deadline > 0, "overload must shed on the tight deadline");

    // Ledger <-> metrics consistency, counted from the wire responses.
    assert_eq!(snap.submitted as usize, NUM_QUERIES);
    assert_eq!(snap.completed as usize, completed);
    assert_eq!(snap.rejected as usize, rejected);
    assert_eq!(snap.deadline_exceeded as usize, deadline);

    // The reactor invariant: one shard wakeup per dispatched batch, no
    // spurious wakeups, and both shards participated.
    assert_eq!(snap.shard_wakeups, snap.batches);
    assert_eq!(snap.reactor.spurious_wakeups, 0);
    assert_eq!(dispatches, wakeups);
    assert!(dispatches.iter().all(|&d| d > 0), "both shards took work");
    assert_eq!(dispatches.iter().sum::<u64>(), snap.batches);

    // The simulated transport accounted its I/O.
    assert_eq!(snap.reactor.accepts as usize, NUM_CONNS);
    assert!(snap.reactor.reads >= snap.batches);
    assert!(snap.reactor.writes > 0);
    assert_eq!(snap.reactor.mean_wake_latency_s, 0.0);
}

#[test]
fn two_consecutive_runs_are_bit_identical() {
    let (snap_a, responses_a, shards_a) = run_pipeline();
    let (snap_b, responses_b, shards_b) = run_pipeline();
    assert_eq!(
        snap_a, snap_b,
        "metrics snapshots (incl. reactor counters) must be bit-identical"
    );
    assert_eq!(responses_a, responses_b, "wire responses must be identical");
    assert_eq!(shards_a, shards_b, "per-shard accounting must be identical");
}

/// The quiescence contract (shared with `HttpServerLoop` and the fabric
/// loop, each pinned in its own suite): with no shutdown wake at all, a
/// partial batch whose client already hung up is still flushed when its
/// wait window expires (final drain), the loop then exits on quiescence,
/// and reactor accept-error counters recorded before the run survive into
/// the final snapshot.
#[test]
fn final_drain_and_accept_errors_reach_the_snapshot() {
    let rt = runtime(f64::INFINITY);
    let w = rt.replica().workload();
    let clock = Arc::new(VirtualClock::new());
    let mut poller = SimPoller::new(Arc::clone(&clock));
    let metrics = Arc::new(Metrics::new(rt.config().policy.max_batch));
    for _ in 0..2 {
        poller.stats().record_accept_error();
    }

    // Two queries — half a batch — then an immediate hang-up, long before
    // the 4 ms flush window. No shutdown wake is ever scripted.
    let conn = poller.connect_at(0.0);
    for k in 0..2 {
        let indices: Vec<u16> = (0..w.n * w.cb).map(|i| ((k + i) % w.ct) as u16).collect();
        poller.send_at(0.05, conn, codec::encode_query(&format!("q{k}"), &indices));
    }
    poller.close_at(0.0501, conn);

    let mut executor = SimExecutor::new(
        Arc::clone(&clock),
        poller.handle(),
        Arc::clone(&metrics),
        rt.config().num_shards,
    );
    let clock_dyn: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
    let mut server = ServerLoop::new(&rt, clock_dyn, Arc::clone(&metrics)).unwrap();
    server.run(&mut poller, &mut executor).unwrap();

    let snap = metrics.snapshot_with_reactor(poller.stats().snapshot());
    assert_eq!(snap.submitted, 2);
    assert_eq!(
        snap.completed, 2,
        "final drain must flush the partial batch"
    );
    assert_eq!(snap.deadline_exceeded, 0);
    assert_eq!(snap.batches, 1, "one partial batch of two");
    assert_eq!(snap.reactor.accept_errors, 2);
}

/// Refuse before paying: a burst that overflows the 12-deep queue is
/// rejected on the queue bound alone — the replica runs its reference
/// gather only for the requests it admits, never for the ones it drops,
/// and malformed queries are refused before any gather too.
#[test]
fn rejected_requests_cost_no_reference_gather() {
    let rt = runtime(f64::INFINITY);
    let w = rt.replica().workload();
    let clock = Arc::new(VirtualClock::new());
    let mut poller = SimPoller::new(Arc::clone(&clock));
    let metrics = Arc::new(Metrics::new(rt.config().policy.max_batch));

    // One write carrying 40 good queries and one with an index past the
    // codebook: all are handled before the loop next dispatches.
    let conn = poller.connect_at(0.0);
    let mut burst = Vec::new();
    for k in 0..40 {
        let indices: Vec<u16> = (0..w.n * w.cb).map(|i| ((k + i) % w.ct) as u16).collect();
        burst.extend_from_slice(&codec::encode_query(&format!("q{k}"), &indices));
    }
    let bad = vec![w.ct as u16; w.n * w.cb];
    burst.extend_from_slice(&codec::encode_query("bad", &bad));
    poller.send_at(0.001, conn, burst);
    poller.close_at(1.0, conn);

    let mut executor = SimExecutor::new(
        Arc::clone(&clock),
        poller.handle(),
        Arc::clone(&metrics),
        rt.config().num_shards,
    );
    let clock_dyn: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
    let mut server = ServerLoop::new(&rt, clock_dyn, Arc::clone(&metrics)).unwrap();
    assert_eq!(rt.replica().reference_gathers(), 0);
    server.run(&mut poller, &mut executor).unwrap();

    let snap = metrics.snapshot_with_reactor(poller.stats().snapshot());
    assert_eq!(snap.submitted, 40, "the malformed query is never submitted");
    assert_eq!(snap.rejected, 28, "12 fit the queue, the rest bounce");
    assert_eq!(snap.completed, 12);
    assert_eq!(
        rt.replica().reference_gathers(),
        snap.submitted - snap.rejected,
        "one reference gather per admitted request, none per refusal"
    );
}
