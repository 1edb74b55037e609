//! Deterministic fault-injection tests of the distributed shard fabric
//! (`FabricServerLoop` on `SimShardEngine`, which stands in for the worker
//! processes) through the SimPoller harness in `sim/`: scripted shard
//! connections speak the binary frame protocol, scripted clients speak the
//! line protocol, and shard death is a scripted EOF at a chosen virtual
//! instant — including mid-batch. The contracts under test: zero lost
//! requests across a shard death, re-replication to the consistent-hash
//! successor, error-draining (never silent dropping) of terminally lost
//! tables, hello-timeout eviction of silent shards, the DES's network
//! pricing, forged `ExecDone`s (an unknown batch, another shard's, a wrong
//! flag count, a repeat), and — through the seeded explorer — worker death
//! at every protocol state, late hellos, duplicate `TableReady`s and
//! forged `ExecDone`s at random.

mod sim;

use pimdl::engine::fabric::{FabricConfig, DEFAULT_VNODES};
use pimdl::serve::codec::{ErrorKind, ServerMsg};
use pimdl::serve::{HashRing, ShardState, TableState};
use pimdl::sim::NetworkModel;
use sim::{indices_for, tables, Front, Kind, Run, Script};

/// Schedules per explorer pass: the default run, and the long one.
const CASES: u64 = 96;
const LONG_CASES: u64 = 2000;

/// The shard the loop's ring places `tables[0]` on, so scripts can pick
/// their victim deterministically.
fn owner_of_first(num_shards: u32, tables: &[(String, u64)]) -> u32 {
    let mut ring = HashRing::new(DEFAULT_VNODES);
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
fn run_shard_death_mid_batch(drive: sim::Driver) -> (Run, u32) {
    let rt = sim::runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let t4 = rt.service_model().batch_service_s(4).unwrap();
    let front = Front::fabric(3, 10.0, tables(&["t-0", "t-1", "t-2"], 100));
    let Front::Fabric { tables, .. } = &front else {
        unreachable!()
    };
    let victim = owner_of_first(3, tables);
    let script = |s: &mut Script| {
        let shard_conns = s.workers(0.0);
        let client = s.connect(0.0);
        for (ti, (table, _)) in tables.iter().enumerate() {
            for k in 0..8 {
                let tag = format!("{table}-q{k}");
                s.query(0.1, client, &tag, Some(table), &indices_for(w, ti * 31 + k));
            }
        }
        // The first batches dispatch at t=0.1 (queues are full); their
        // ExecDone lands at 0.1 + service(4). Killing the victim halfway
        // through guarantees a batch is in flight when the EOF arrives.
        s.poller
            .close_at(0.1 + 0.5 * t4, shard_conns[victim as usize]);
        s.close(5.0, client);
    };
    (drive(&rt, &front, &script), victim)
}

#[test]
fn shard_death_mid_batch_loses_nothing_and_rereplicates() {
    let (run, victim) = run_shard_death_mid_batch(sim::run);

    // Zero lost requests: the harness checked that all 24 were answered
    // exactly once, every result correct and matching the host oracle —
    // including the batch the dead shard never finished; none is refused.
    for (tag, msg) in sim::lines(&run.outputs[0]) {
        if let ServerMsg::Error { kind, .. } = msg {
            panic!("{tag}: refused with {kind:?} — a shard death must not shed requests")
        }
    }
    assert_eq!(run.snapshot.submitted, 24);
    assert_eq!(run.snapshot.completed, 24);
    assert_eq!(run.snapshot.rejected, 0);
    assert_eq!(run.snapshot.deadline_exceeded, 0);
    assert_eq!(
        run.gathers, 24,
        "the requeued batch keeps its references and is not gathered again"
    );

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
    sim::pin("fabric shard death", &[&run], 0xDB50_FF50_752D_73F2);
}

#[test]
fn fault_injection_runs_are_bit_identical() {
    let (run, _) = run_shard_death_mid_batch(sim::replay);
    sim::pin("fabric shard death", &[&run], 0xDB50_FF50_752D_73F2);
}

/// With a single shard there is no successor: its death makes every table
/// terminally `Lost`, and queued queries must be error-drained with an
/// explicit refusal — never silently dropped, never stranding the loop —
/// and booked as refused, so the ledger still closes.
#[test]
fn lone_shard_death_error_drains_lost_tables() {
    let rt = sim::runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let t4 = rt.service_model().batch_service_s(4).unwrap();
    let run = sim::run(&rt, &Front::fabric(1, 10.0, tables(&["solo"], 7)), &|s| {
        let shard = s.workers(0.0)[0];
        let client = s.connect(0.0);
        for k in 0..8 {
            s.query(
                0.1,
                client,
                &format!("q{k}"),
                Some("solo"),
                &indices_for(w, k),
            );
        }
        // One batch in flight, four more queued — then the only shard dies.
        s.poller.close_at(0.1 + 0.5 * t4, shard);
        s.close(5.0, client);
    });

    let msgs = sim::lines(&run.outputs[0]);
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
    let snap = &run.snapshot;
    assert_eq!(snap.submitted, 8);
    assert_eq!(snap.completed, 0);
    assert_eq!(
        snap.rejected, 8,
        "each error-drained query is booked as refused"
    );
    assert_eq!(
        snap.submitted,
        snap.completed + snap.rejected + snap.deadline_exceeded
    );
    sim::pin("fabric lone shard death", &[&run], 0x9540_826B_5E66_3D30);
}

/// A worker that connects but never says `Hello` (or never connects at
/// all) is evicted at the hello timeout and its tables re-place to the
/// surviving shard — queries sent after the eviction still complete.
#[test]
fn silent_shard_is_timed_out_and_replaced() {
    let rt = sim::runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let front = Front::fabric(2, 0.5, tables(&["t-0", "t-1", "t-2", "t-3"], 50));
    let run = sim::run(&rt, &front, &|s| {
        let s0 = s.poller.connect_at(0.0);
        s.poller.send_at(0.0, s0, sim::hello(0));
        // Shard 1 connects but stays silent: no Hello ever arrives, so the
        // supervisor must declare it dead at t=0.5 and re-place its tables.
        let s1 = s.poller.connect_at(0.0);
        s.poller.close_at(4.0, s1);
        let client = s.connect(0.0);
        for (ti, table) in s.routes().into_iter().enumerate() {
            s.query(
                1.0,
                client,
                &format!("{table}-q"),
                Some(table),
                &indices_for(w, ti),
            );
        }
        s.close(4.0, client);
    });

    // The harness checked all four results against their tables' oracles.
    assert_eq!(sim::lines(&run.outputs[0]).len(), 4);
    assert_eq!(run.shard_states[0], Some(ShardState::Ready));
    assert_eq!(run.shard_states[1], Some(ShardState::Dead));
    assert!(
        run.all_ready,
        "all tables on shard 0: {:?}",
        run.table_states
    );
    assert_eq!(run.snapshot.completed, 4);
    sim::pin("fabric silent shard", &[&run], 0x6FB6_212F_2353_9101);
}

#[test]
fn fabric_final_drain_and_accept_errors_reach_the_snapshot() {
    sim::final_drain(
        Front::fabric(1, 10.0, tables(&["only"], 9)),
        0x480A_4281_559B_A94E,
    );
}

#[test]
fn rejected_queries_cost_no_reference_gather() {
    sim::refuse_before_paying(
        Front::fabric(1, 10.0, tables(&["only"], 9)),
        0x9430_BFDE_251B_A4C3,
    );
}

/// The fabric DES prices both socket crossings of every shard round trip
/// (DESIGN.md §13): a costly link delays the last completion of a burst, a
/// free link is the default engine byte for byte, and a priced run repeats
/// bit for bit.
#[test]
fn des_side_completes_and_prices_the_network() {
    let rt = sim::runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let burst = |net: Option<NetworkModel>| {
        let front = Front::Fabric {
            fabric: FabricConfig::example(),
            tables: tables(&["t-0", "t-1"], 0xFA0),
            net,
        };
        sim::run(&rt, &front, &|s| {
            s.workers(0.0);
            let client = s.connect(0.0);
            for k in 0..24 {
                // Every third query takes the default route.
                let table = match k % 3 {
                    0 => None,
                    i => Some(s.routes()[i - 1]),
                };
                s.query(0.1, client, &format!("q-{k}"), table, &indices_for(w, k));
            }
            // Hang up right after the burst: the final drain still
            // completes everything, and the virtual clock then stops at
            // the last completion, so `end_s` is the burst's makespan.
            s.close(0.1 + 1e-4, client);
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
    sim::pin("fabric network", &[&free, &priced], 0x9FF8_F38D_0FBA_7171);
}

/// What the worker holding the first table forges in an `ExecDone`.
#[derive(Debug, Clone, Copy)]
enum Forged {
    /// Nothing: the honest run the others are measured against.
    Nothing,
    /// A batch id the loop never issued.
    UnknownId,
    /// The other shard's in-flight batch, with its right flag count.
    OtherShardsId,
    /// Its own in-flight batch with one flag short.
    WrongFlagCount,
    /// Its first batch again, after that was answered, while its second
    /// is in flight.
    Repeat,
}

/// Two shards, one table each (`a` before `b` in name order), four
/// queries for `b` and eight for `a` sent at once: batch 0 (`a`) and
/// batch 1 (`b`) leave together, batch 2 (`a`'s second) once batch 0 is
/// answered. The worker holding `a` forges `forged` while it has a batch
/// in flight. Returns the run and that worker's shard id.
fn run_forged_exec_done(forged: Forged) -> (Run, u32) {
    let rt = sim::runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let t4 = rt.service_model().batch_service_s(4).unwrap();
    // The first two names the ring puts on different shards.
    let names: Vec<String> = (0..).map(|i| format!("t-{i}")).take(16).collect();
    let owner = |t: &str| owner_of_first(2, &tables(&[t], 0));
    let a = &names[0];
    let b = names
        .iter()
        .find(|n| owner(n) != owner(a))
        .expect("two owners");
    let front = Front::fabric(2, 10.0, tables(&[a.as_str(), b.as_str()], 300));
    let victim = owner(a);
    let run = sim::run(&rt, &front, &|s| {
        let conns = s.workers(0.0);
        let client = s.connect(0.0);
        let queries = (0..12).map(|k| {
            let table = if k < 8 { a } else { b };
            (format!("q{k}"), Some(table.as_str()), indices_for(w, k))
        });
        s.burst(0.1, client, queries);
        let conn = conns[victim as usize];
        let mid = 0.1 + 0.5 * t4;
        match forged {
            Forged::Nothing => {}
            Forged::UnknownId => s.exec_done(mid, conn, 99, 4),
            Forged::OtherShardsId => s.exec_done(mid, conn, 1, 4),
            Forged::WrongFlagCount => s.exec_done(mid, conn, 0, 3),
            Forged::Repeat => s.exec_done(mid + t4, conn, 0, 4),
        }
        s.close(5.0, client);
    });
    (run, victim)
}

/// A forged `ExecDone` fails its shard's connection and re-queues the
/// batch that shard had in flight (one batch more than the honest run's
/// three); the successor re-replicates the table and every query is
/// answered exactly once, correctly (the harness's checks).
fn forged_exec_done_fails_its_shard(forged: Forged, pinned: u64) {
    let (run, victim) = run_forged_exec_done(forged);
    for (tag, msg) in sim::lines(&run.outputs[0]) {
        assert!(
            matches!(msg, ServerMsg::Result { .. }),
            "{forged:?}: {tag} refused"
        );
    }
    assert_eq!(run.snapshot.completed, 12, "{forged:?}");
    assert!(run.all_ready && !run.any_lost, "{forged:?}");
    let honest = matches!(forged, Forged::Nothing);
    for (s, state) in run.shard_states.iter().enumerate() {
        let dead = !honest && s as u32 == victim;
        let want = if dead {
            ShardState::Dead
        } else {
            ShardState::Ready
        };
        assert_eq!(*state, Some(want), "{forged:?}: shard {s}");
    }
    let batches = if honest { 3 } else { 4 };
    assert_eq!(run.snapshot.batches, batches, "{forged:?}");
    sim::pin(&format!("{forged:?}"), &[&run], pinned);
}

#[test]
fn an_honest_worker_keeps_its_connection() {
    forged_exec_done_fails_its_shard(Forged::Nothing, 0x5DC6_BF3A_6C51_940C);
}

#[test]
fn an_exec_done_for_an_unknown_batch_fails_the_shard() {
    forged_exec_done_fails_its_shard(Forged::UnknownId, 0x39DF_0C07_BF99_C9D8);
}

#[test]
fn an_exec_done_for_another_shards_batch_fails_the_shard() {
    forged_exec_done_fails_its_shard(Forged::OtherShardsId, 0x39DF_0C07_BF99_C9D8);
}

#[test]
fn an_exec_done_with_the_wrong_flag_count_fails_the_shard() {
    forged_exec_done_fails_its_shard(Forged::WrongFlagCount, 0x39DF_0C07_BF99_C9D8);
}

#[test]
fn a_repeated_exec_done_fails_the_shard() {
    forged_exec_done_fails_its_shard(Forged::Repeat, 0x8AEB_82E8_8E1E_A0BD);
}

#[test]
fn blank_lines_are_skipped() {
    sim::blank_lines(
        Front::fabric(1, 10.0, tables(&["only"], 9)),
        0xF485_F6AF_9CAF_9CD2,
    );
}

#[test]
fn explored_fabric_schedules_terminate_exactly_once() {
    sim::explore(Kind::Fabric, CASES, 0xEBAD_4838_F3E6_67B6);
}

#[test]
fn explored_forged_exec_dones_terminate_exactly_once() {
    sim::explore(Kind::FabricForged, CASES, 0x0EFD_28C7_EB48_05EB);
}

#[test]
#[ignore = "long explorer pass, run by scripts/check.sh"]
fn explored_fabric_schedules_long() {
    sim::explore(Kind::Fabric, LONG_CASES, 0xB919_28D5_E6CF_CD2E);
}

#[test]
#[ignore = "long explorer pass, run by scripts/check.sh"]
fn explored_forged_exec_dones_long() {
    sim::explore(Kind::FabricForged, LONG_CASES, 0xD309_03F6_0C99_215C);
}
