//! Deterministic fault-injection tests of the distributed shard fabric,
//! driven entirely through the simulated event source ([`SimPoller`]) on
//! a [`VirtualClock`]: scripted shard connections speak the binary frame
//! protocol ([`SimShardEngine`] stands in for the worker processes),
//! scripted clients speak the line protocol, and shard death is injected
//! as a scripted EOF at a chosen virtual instant — including mid-batch.
//! The contracts under test: zero lost requests across a shard death,
//! re-replication to the consistent-hash successor, error-draining (never
//! silent dropping) of terminally lost tables, hello-timeout eviction of
//! silent shards, the quiescence/final-drain exit shared with the other
//! server loops, the DES's network pricing, and bit-identical reruns.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pimdl::engine::fabric::FabricConfig;
use pimdl::engine::shapes::TransformerShape;
use pimdl::serve::codec::{self, ErrorKind, ServerMsg};
use pimdl::serve::reactor::Token;
use pimdl::serve::{
    Clock, EventSource, FabricServerLoop, Frame, HashRing, Metrics, MetricsSnapshot, Runtime,
    ServeConfig, ShardState, SimPoller, SimShardEngine, TableState, VirtualClock,
};
use pimdl::sim::{LutWorkload, NetworkModel, PlatformConfig};

fn runtime(queue_capacity: usize) -> Runtime {
    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;
    let mut cfg = ServeConfig::example(); // max_batch 4, max_wait 4ms
    cfg.queue_capacity = queue_capacity;
    cfg.deadline_s = f64::INFINITY;
    Runtime::new(platform, TransformerShape::tiny(), cfg).unwrap()
}

fn fabric_cfg(num_shards: usize, hello_timeout_s: f64) -> FabricConfig {
    let mut f = FabricConfig::example();
    f.num_shards = num_shards;
    f.hello_timeout_s = hello_timeout_s;
    f
}

/// Deterministic index payload `k` for workload `w`.
fn indices_for(w: LutWorkload, k: usize) -> Vec<u16> {
    (0..w.n * w.cb)
        .map(|i| ((k * 7 + i * 3) % w.ct) as u16)
        .collect()
}

fn hello(shard_id: u32) -> Vec<u8> {
    Frame::Hello { shard_id }.encode().unwrap()
}

/// Everything one scripted fabric run produced.
#[derive(Debug, PartialEq)]
struct FabricRun {
    /// Virtual time at which the loop went quiescent.
    end_s: f64,
    snapshot: MetricsSnapshot,
    outputs: Vec<Vec<u8>>,
    shard_states: Vec<Option<ShardState>>,
    table_states: Vec<(String, Option<TableState>)>,
    all_ready: bool,
    any_lost: bool,
    reference_gathers: u64,
}

/// Runs a scripted fabric scenario over `num_shards` simulated shards and
/// `tables`, with `accept_errors` synthetic accept failures recorded on
/// the reactor before the run (the counter must survive into the final
/// snapshot). `net` prices the simulated shards' socket crossings
/// (`None` leaves [`SimShardEngine`] at its default). The script returns
/// the client tokens whose outputs the caller wants back.
fn run_fabric(
    rt: &Runtime,
    num_shards: usize,
    hello_timeout_s: f64,
    tables: &[(String, u64)],
    accept_errors: u64,
    net: Option<NetworkModel>,
    script: &dyn Fn(&mut SimPoller) -> Vec<Token>,
) -> FabricRun {
    let clock = Arc::new(VirtualClock::new());
    let mut poller = SimPoller::new(Arc::clone(&clock));
    let metrics = Arc::new(Metrics::new(rt.config().policy.max_batch));
    for _ in 0..accept_errors {
        poller.stats().record_accept_error();
    }
    let conns = script(&mut poller);
    let mut engine = SimShardEngine::new(rt, poller.handle(), 0.01);
    if let Some(net) = net {
        engine = engine.with_network(net);
    }
    let clock_dyn: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
    let ready_latch = Arc::new(AtomicBool::new(false));
    let mut server = FabricServerLoop::new(
        rt,
        fabric_cfg(num_shards, hello_timeout_s),
        tables,
        clock_dyn,
        Arc::clone(&metrics),
    )
    .unwrap()
    .with_ready_flag(Arc::clone(&ready_latch));
    server.run(&mut poller, &mut engine).unwrap();
    assert_eq!(server.queued(), 0, "quiescent exit with queued work");
    let sup = server.supervisor();
    // The latch FabricHandle::wait_all_ready observes: it must be set
    // whenever every table ended the run routable (it latches the *first*
    // moment of full readiness, so death scenarios that recover re-assert
    // it and scenarios that never reached readiness leave it false).
    assert!(
        !sup.all_tables_ready() || ready_latch.load(Ordering::Relaxed),
        "all tables routable but the ready latch was never set"
    );
    FabricRun {
        end_s: clock.now(),
        shard_states: (0..num_shards as u32).map(|s| sup.shard_state(s)).collect(),
        table_states: tables
            .iter()
            .map(|(n, _)| (n.clone(), sup.table_state(n)))
            .collect(),
        all_ready: sup.all_tables_ready(),
        any_lost: sup.any_table_lost(),
        reference_gathers: server.reference_gathers(),
        snapshot: metrics.snapshot_with_reactor(poller.stats().snapshot()),
        outputs: conns.iter().map(|&c| poller.output_of(c)).collect(),
    }
}

/// Parses a client connection's line-protocol output into tag → message,
/// asserting no tag is answered twice.
fn parse_lines(out: &[u8]) -> BTreeMap<String, ServerMsg> {
    let mut msgs = BTreeMap::new();
    for line in out.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let msg = codec::parse_server_msg(line).expect("server emitted a malformed line");
        let tag = match &msg {
            ServerMsg::Result { tag, .. } | ServerMsg::Error { tag, .. } => tag.clone(),
        };
        let dup = msgs.insert(tag.clone(), msg);
        assert!(dup.is_none(), "tag {tag} answered more than once");
    }
    msgs
}

/// The ring placement the loop will compute, so scripts can pick their
/// victim shard deterministically (the shard owning `tables[0]`).
fn owner_of_first(num_shards: u32, tables: &[(String, u64)]) -> u32 {
    let mut ring = HashRing::new(FabricConfig::example().vnodes);
    for s in 0..num_shards {
        ring.add_shard(s);
    }
    ring.owner_of(&tables[0].0).expect("non-empty ring")
}

/// The central fault-injection scenario: 3 shards, 3 tables, 8 queries
/// per table; the shard owning `t-0` is EOF-killed while its first batch
/// is in flight. Every request must still be answered correctly — the
/// in-flight batch re-queues and re-dispatches to the consistent-hash
/// successor once it has re-replicated the lost tables.
fn run_shard_death_mid_batch() -> (FabricRun, BTreeMap<String, u64>) {
    let rt = runtime(64);
    let w = rt.replica().workload();
    let t4 = rt.service_model().batch_service_s(4).unwrap();
    let tables: Vec<(String, u64)> = (0..3).map(|i| (format!("t-{i}"), 100 + i as u64)).collect();
    let victim = owner_of_first(3, &tables);
    let oracles: BTreeMap<&str, _> = tables
        .iter()
        .map(|(n, seed)| (n.as_str(), rt.build_replica(*seed).unwrap()))
        .collect();

    let mut expected: BTreeMap<String, u64> = BTreeMap::new();
    let mut queries: Vec<(String, String, Vec<u16>)> = Vec::new();
    for (ti, (table, _)) in tables.iter().enumerate() {
        for k in 0..8 {
            let indices = indices_for(w, ti * 31 + k);
            let tag = format!("{table}-q{k}");
            let sum = oracles[table.as_str()].checksum_of(&indices).unwrap();
            expected.insert(tag.clone(), sum.to_bits());
            queries.push((tag, table.clone(), indices));
        }
    }

    let run = run_fabric(&rt, 3, 10.0, &tables, 0, None, &|poller| {
        let mut shard_conns = Vec::new();
        for s in 0..3u32 {
            let conn = poller.connect_at(0.0);
            poller.send_at(0.0, conn, hello(s));
            shard_conns.push(conn);
        }
        let client = poller.connect_at(0.0);
        for (tag, table, indices) in &queries {
            poller.send_at(
                0.1,
                client,
                codec::encode_query_for(tag, indices, Some(table)),
            );
        }
        // The first batches dispatch at t=0.1 (queues are full); their
        // ExecDone lands at 0.1 + service(4). Killing the victim halfway
        // through guarantees a batch is in flight when the EOF arrives.
        poller.close_at(0.1 + 0.5 * t4, shard_conns[victim as usize]);
        poller.close_at(5.0, client);
        vec![client]
    });
    (run, expected)
}

#[test]
fn shard_death_mid_batch_loses_nothing_and_rereplicates() {
    let (run, expected) = run_shard_death_mid_batch();
    let victim = {
        let tables: Vec<(String, u64)> =
            (0..3).map(|i| (format!("t-{i}"), 100 + i as u64)).collect();
        owner_of_first(3, &tables)
    };

    // Zero lost requests: all 24 answered, all correct, all matching the
    // host oracle — including the batch the dead shard never finished.
    let msgs = parse_lines(&run.outputs[0]);
    assert_eq!(
        msgs.keys().collect::<Vec<_>>(),
        expected.keys().collect::<Vec<_>>(),
        "every query answered exactly once"
    );
    for (tag, msg) in &msgs {
        match msg {
            ServerMsg::Result {
                correct,
                checksum_bits,
                ..
            } => {
                assert!(*correct, "{tag}: PIM result mismatched the host");
                assert_eq!(*checksum_bits, expected[tag], "{tag}: wrong checksum");
            }
            ServerMsg::Error { kind, .. } => {
                panic!("{tag}: refused with {kind:?} — a shard death must not shed requests")
            }
        }
    }
    assert_eq!(run.snapshot.submitted, 24);
    assert_eq!(run.snapshot.completed, 24);
    assert_eq!(run.snapshot.rejected, 0);
    assert_eq!(run.snapshot.deadline_exceeded, 0);

    // The victim is dead; the survivors are ready; every table (the dead
    // shard's included) ended Ready on a live shard — re-replication, not
    // loss.
    for (s, state) in run.shard_states.iter().enumerate() {
        let want = if s as u32 == victim {
            ShardState::Dead
        } else {
            ShardState::Ready
        };
        assert_eq!(*state, Some(want), "shard {s}");
    }
    assert!(
        run.all_ready,
        "tables must re-replicate: {:?}",
        run.table_states
    );
    assert!(!run.any_lost);
}

#[test]
fn fault_injection_runs_are_bit_identical() {
    let (a, _) = run_shard_death_mid_batch();
    let (b, _) = run_shard_death_mid_batch();
    assert_eq!(
        a.snapshot, b.snapshot,
        "metrics snapshots (incl. reactor counters) must be bit-identical"
    );
    assert_eq!(a.outputs, b.outputs, "wire bytes must be identical");
    assert_eq!(a.shard_states, b.shard_states);
    assert_eq!(a.table_states, b.table_states);
}

/// With a single shard there is no successor: its death makes every table
/// terminally `Lost`, and queued queries must be error-drained with an
/// explicit refusal — never silently dropped, never stranding the loop.
#[test]
fn lone_shard_death_error_drains_lost_tables() {
    let rt = runtime(64);
    let w = rt.replica().workload();
    let t4 = rt.service_model().batch_service_s(4).unwrap();
    let tables = vec![("solo".to_string(), 7u64)];

    let run = run_fabric(&rt, 1, 10.0, &tables, 0, None, &|poller| {
        let shard = poller.connect_at(0.0);
        poller.send_at(0.0, shard, hello(0));
        let client = poller.connect_at(0.0);
        for k in 0..8 {
            let tag = format!("q{k}");
            poller.send_at(
                0.1,
                client,
                codec::encode_query_for(&tag, &indices_for(w, k), Some("solo")),
            );
        }
        // One batch in flight, four more queued — then the only shard dies.
        poller.close_at(0.1 + 0.5 * t4, shard);
        poller.close_at(5.0, client);
        vec![client]
    });

    let msgs = parse_lines(&run.outputs[0]);
    assert_eq!(msgs.len(), 8, "every query answered exactly once: {msgs:?}");
    for (tag, msg) in &msgs {
        match msg {
            ServerMsg::Error { kind, .. } => {
                assert_eq!(*kind, ErrorKind::Shutdown, "{tag}: lost-table refusal kind")
            }
            ServerMsg::Result { .. } => {
                panic!("{tag}: a table with no live replica cannot produce results")
            }
        }
    }
    assert_eq!(run.shard_states, vec![Some(ShardState::Dead)]);
    assert_eq!(
        run.table_states,
        vec![("solo".to_string(), Some(TableState::Lost))]
    );
    assert!(run.any_lost);
    assert_eq!(run.snapshot.submitted, 8);
    assert_eq!(run.snapshot.completed, 0);
}

/// A worker that connects but never says `Hello` (or never connects at
/// all) is evicted at the hello timeout and its tables re-place to the
/// surviving shard — queries sent after the eviction still complete.
#[test]
fn silent_shard_is_timed_out_and_replaced() {
    let rt = runtime(64);
    let w = rt.replica().workload();
    let tables: Vec<(String, u64)> = (0..4).map(|i| (format!("t-{i}"), 50 + i as u64)).collect();
    let oracles: BTreeMap<&str, _> = tables
        .iter()
        .map(|(n, seed)| (n.as_str(), rt.build_replica(*seed).unwrap()))
        .collect();

    let run = run_fabric(&rt, 2, 0.5, &tables, 0, None, &|poller| {
        let s0 = poller.connect_at(0.0);
        poller.send_at(0.0, s0, hello(0));
        // Shard 1 connects but stays silent: no Hello ever arrives, so the
        // supervisor must declare it dead at t=0.5 and re-place its tables.
        let s1 = poller.connect_at(0.0);
        poller.close_at(4.0, s1);
        let client = poller.connect_at(0.0);
        for (ti, (table, _)) in tables.iter().enumerate() {
            let tag = format!("{table}-q");
            poller.send_at(
                1.0,
                client,
                codec::encode_query_for(&tag, &indices_for(w, ti), Some(table)),
            );
        }
        poller.close_at(4.0, client);
        vec![client]
    });

    let msgs = parse_lines(&run.outputs[0]);
    assert_eq!(msgs.len(), 4);
    for (ti, (table, _)) in tables.iter().enumerate() {
        let tag = format!("{table}-q");
        match &msgs[&tag] {
            ServerMsg::Result {
                correct,
                checksum_bits,
                ..
            } => {
                let want = oracles[table.as_str()]
                    .checksum_of(&indices_for(w, ti))
                    .unwrap()
                    .to_bits();
                assert!(*correct, "{tag}");
                assert_eq!(*checksum_bits, want, "{tag}");
            }
            ServerMsg::Error { kind, .. } => panic!("{tag}: refused with {kind:?}"),
        }
    }
    assert_eq!(run.shard_states[0], Some(ShardState::Ready));
    assert_eq!(run.shard_states[1], Some(ShardState::Dead));
    assert!(
        run.all_ready,
        "all tables on shard 0: {:?}",
        run.table_states
    );
    assert_eq!(run.snapshot.completed, 4);
}

/// The quiescence contract the fabric loop shares with `ServerLoop` and
/// `HttpServerLoop`: with no shutdown wake at all, a partial batch whose
/// clients have already hung up is still flushed when its wait window
/// expires (final drain), the loop then exits on quiescence, and reactor
/// accept-error counters taken before/during the run survive into the
/// final snapshot.
#[test]
fn fabric_final_drain_and_accept_errors_reach_the_snapshot() {
    let rt = runtime(64);
    let w = rt.replica().workload();
    let tables = vec![("only".to_string(), 9u64)];

    let run = run_fabric(&rt, 1, 10.0, &tables, 3, None, &|poller| {
        let shard = poller.connect_at(0.0);
        poller.send_at(0.0, shard, hello(0));
        let client = poller.connect_at(0.0);
        // Two queries — half a batch — and an immediate client hang-up,
        // long before the 4 ms flush window.
        for k in 0..2 {
            let tag = format!("q{k}");
            poller.send_at(
                0.05,
                client,
                codec::encode_query_for(&tag, &indices_for(w, k), None),
            );
        }
        poller.close_at(0.0501, client);
        vec![client]
    });

    // Final drain: both requests executed (the loop advanced the virtual
    // clock to the flush window on its own) even though nobody is left to
    // read the responses, and the run exited without any shutdown signal.
    assert_eq!(run.snapshot.submitted, 2);
    assert_eq!(run.snapshot.completed, 2);
    assert_eq!(run.snapshot.deadline_exceeded, 0);
    assert_eq!(run.snapshot.batches, 1, "one partial batch of two");
    // The synthetic accept failures recorded on the reactor reached the
    // run's final snapshot through `snapshot_with_reactor`.
    assert_eq!(run.snapshot.reactor.accept_errors, 3);
    assert!(run.all_ready);
}

/// Refuse before paying: a burst that overflows the 4-deep queue is
/// rejected on the queue bound alone, and a malformed query on its shape
/// — the front end's oracle runs its reference gather only for the
/// requests it enqueues.
#[test]
fn rejected_queries_cost_no_reference_gather() {
    let rt = runtime(4);
    let w = rt.replica().workload();
    let tables = vec![("t-0".to_string(), 100u64)];
    let run = run_fabric(&rt, 1, 10.0, &tables, 0, None, &|poller| {
        let shard = poller.connect_at(0.0);
        poller.send_at(0.0, shard, hello(0));
        // One write, so every query is handled before the first batch
        // leaves the queue.
        let client = poller.connect_at(0.0);
        let mut burst = Vec::new();
        for k in 0..10 {
            burst.extend_from_slice(&codec::encode_query(&format!("q{k}"), &indices_for(w, k)));
        }
        let past_codebook = vec![w.ct as u16; w.n * w.cb];
        burst.extend_from_slice(&codec::encode_query("bad", &past_codebook));
        poller.send_at(0.1, client, burst);
        poller.close_at(5.0, client);
        vec![client]
    });

    let kind_count = |want: ErrorKind| {
        parse_lines(&run.outputs[0])
            .values()
            .filter(|m| matches!(m, ServerMsg::Error { kind, .. } if *kind == want))
            .count()
    };
    assert_eq!(kind_count(ErrorKind::Rejected), 6);
    assert_eq!(kind_count(ErrorKind::Invalid), 1);
    assert_eq!(
        run.snapshot.submitted, 10,
        "the malformed query is never submitted"
    );
    assert_eq!(run.snapshot.rejected, 6, "4 fit the queue, the rest bounce");
    assert_eq!(run.snapshot.completed, 4);
    assert_eq!(
        run.reference_gathers, 4,
        "one reference gather per enqueued request, none per refusal"
    );
}

/// The fabric DES prices both socket crossings of every shard round trip
/// (DESIGN.md §13): a costly link delays the last completion of a burst, a
/// free link is the default engine byte for byte, and a priced run repeats
/// bit for bit.
#[test]
fn des_side_completes_and_prices_the_network() {
    let rt = runtime(64);
    let w = rt.replica().workload();
    let tables: Vec<(String, u64)> = (0..2)
        .map(|i| (format!("t-{i}"), 0xFA0 + i as u64))
        .collect();
    let burst = |net: Option<NetworkModel>| {
        run_fabric(&rt, 2, 10.0, &tables, 0, net, &|poller| {
            for s in 0..2u32 {
                let conn = poller.connect_at(0.0);
                poller.send_at(0.0, conn, hello(s));
            }
            let client = poller.connect_at(0.0);
            for k in 0..24 {
                // Every third query takes the default route.
                let table = match k % 3 {
                    0 => None,
                    i => Some(tables[i - 1].0.as_str()),
                };
                poller.send_at(
                    0.1,
                    client,
                    codec::encode_query_for(&format!("q-{k}"), &indices_for(w, k), table),
                );
            }
            // Hang up right after the burst: the final drain still
            // completes everything, and the virtual clock then stops at
            // the last completion, so `end_s` is the burst's makespan.
            poller.close_at(0.1 + 1e-4, client);
            vec![client]
        })
    };
    let slow = NetworkModel {
        link_latency_s: 0.05,
        per_byte_s: 1e-6,
    };
    let (default, free, priced) = (
        burst(None),
        burst(Some(NetworkModel::zero())),
        burst(Some(slow)),
    );
    for run in [&default, &free, &priced] {
        assert_eq!(run.snapshot.completed, 24);
    }
    assert_eq!(default, free, "a free network must be the default DES");
    assert!(
        priced.end_s > free.end_s,
        "a costly network must delay the burst: {} vs {}",
        priced.end_s,
        free.end_s
    );
    assert_eq!(priced, burst(Some(slow)), "a priced rerun is bit-identical");
}
