//! Real-process smoke tests of the shard fabric: `serve_fabric` spawning
//! actual `fabric_shard` worker binaries over loopback TCP, including a
//! `kill -9` mid-stream (the supervisor must re-replicate the dead
//! worker's tables to the consistent-hash successor and lose zero
//! requests), plus a pin of the measured-loopback → DES network-model
//! calibration gap. Runs in tier-1: the speedup keeps everything well
//! under a second of simulated service, and the kill path is EOF-driven
//! (no timeout waits).

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;

use pimdl_engine::fabric::FabricConfig;
use pimdl_engine::shapes::TransformerShape;
use pimdl_serve::codec::ServerMsg;
use pimdl_serve::fabric::measure_loopback_rtt;
use pimdl_serve::{
    Cause, LineClient, Runtime, ServeConfig, ShardState, SupervisorEvent, TableState, Transition,
};
use pimdl_sim::{NetworkModel, PlatformConfig};
use pimdl_tensor::rng::DataRng;

fn fabric_runtime() -> Arc<Runtime> {
    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;
    let cfg = ServeConfig::example();
    Arc::new(Runtime::new(platform, TransformerShape::tiny(), cfg).unwrap())
}

/// End-to-end over real processes: three worker binaries serve three
/// tables; one worker is SIGKILLed mid-stream; every query — sent before
/// or after the kill, routed to any table — still terminates with a
/// correct result. Zero lost requests is the contract, not best-effort.
#[test]
fn fabric_survives_kill9_with_zero_lost_requests() {
    let rt = fabric_runtime();
    let t1 = rt.service_model().batch_service_s(1).unwrap();
    let speedup = (t1 / 0.5e-3).max(1.0);

    let mut fabric = FabricConfig::example();
    fabric.num_shards = 3;
    // The kill is detected by EOF, not timeout; a huge *virtual* timeout
    // keeps the accelerated clock from expiring slow-but-alive workers
    // (10 virtual seconds can be milliseconds of real time here).
    fabric.hello_timeout_s = 1e6;

    let tables: Vec<(String, u64)> = vec![
        ("alpha".to_string(), 101),
        ("beta".to_string(), 202),
        ("gamma".to_string(), 303),
    ];
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let worker_argv = vec![env!("CARGO_BIN_EXE_fabric_shard").to_string()];
    let handle = rt
        .serve_fabric(listener, speedup, fabric, tables.clone(), worker_argv)
        .unwrap();
    // The kill below must land on a *connected* worker: death detection is
    // EOF-driven, and a worker SIGKILLed before its Hello leaves no socket
    // to close (only the huge virtual hello timeout would reclaim its
    // tables). Wait until every table routes before pulling the trigger.
    handle
        .wait_all_ready(std::time::Duration::from_secs(120))
        .unwrap();

    // Host-side oracles: the same deterministic replicas the workers build
    // from their seeds, so every response checksum has a reference.
    let oracles: BTreeMap<&str, _> = tables
        .iter()
        .map(|(name, seed)| (name.as_str(), rt.build_replica(*seed).unwrap()))
        .collect();
    let w = rt.replica().workload();
    let mut rng = DataRng::new(0xFAB51);
    let mut client = LineClient::connect(handle.addr()).unwrap();
    let mut expected: BTreeMap<String, u64> = BTreeMap::new();

    let send = |client: &mut LineClient,
                expected: &mut BTreeMap<String, u64>,
                rng: &mut DataRng,
                phase: &str,
                k: usize| {
        let indices: Vec<u16> = (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
        // Every fourth query exercises the default route (first table).
        let table = match k % 4 {
            0 => None,
            1 => Some("alpha"),
            2 => Some("beta"),
            _ => Some("gamma"),
        };
        let oracle = oracles[table.unwrap_or("alpha")]
            .checksum_of(&indices)
            .unwrap()
            .to_bits();
        let tag = format!("{phase}-{k}");
        expected.insert(tag.clone(), oracle);
        client.send_to(&tag, &indices, table).unwrap();
    };

    for k in 0..12 {
        send(&mut client, &mut expected, &mut rng, "pre", k);
    }
    // SIGKILL one worker while its batches may be in flight. Whatever it
    // owned must re-replicate to a surviving shard.
    handle.kill_worker(0).unwrap();
    for k in 0..12 {
        send(&mut client, &mut expected, &mut rng, "post", k);
    }

    // Drain all 24 responses (completion order is not send order across
    // tables): each tag exactly once, each correct, each matching its
    // oracle checksum.
    for _ in 0..24 {
        match client.recv().unwrap() {
            ServerMsg::Result {
                tag,
                correct,
                checksum_bits,
            } => {
                let oracle = expected
                    .remove(&tag)
                    .unwrap_or_else(|| panic!("duplicate or unknown tag {tag:?}"));
                assert!(correct, "{tag}: PIM execution mismatched the host");
                assert_eq!(checksum_bits, oracle, "{tag}: wrong checksum");
            }
            ServerMsg::Error { tag, kind } => {
                panic!("{tag}: refused with {kind:?} — a kill must not shed requests");
            }
        }
    }
    assert!(expected.is_empty(), "unanswered queries: {expected:?}");

    // The supervisor logged the kill once, as worker 0's EOF, and moved
    // each table it held to a survivor.
    let (events, _) = handle.events().read();
    let deaths: Vec<&SupervisorEvent> = (events.iter())
        .filter(|e| matches!(e.to, Transition::Shard(_, ShardState::Dead)))
        .collect();
    assert_eq!(deaths.len(), 1, "{events:?}");
    assert_eq!(deaths[0].to, Transition::Shard(0, ShardState::Dead));
    assert_eq!(deaths[0].cause, Cause::Eof);
    for e in events.iter().filter(|e| e.cause == Cause::OwnerDied) {
        assert!(
            matches!(e.to, Transition::Table(_, TableState::Loading(s)) if s != 0),
            "{e:?}"
        );
    }

    let snap = handle.shutdown().unwrap();
    assert_eq!(snap.submitted, 24);
    assert_eq!(snap.completed, 24);
    assert_eq!(snap.rejected, 0);
    assert_eq!(snap.deadline_exceeded, 0);
    assert!(snap.batches > 0 && snap.reactor.reads > 0 && snap.reactor.writes > 0);
}

/// Pins the RT → DES calibration gap across the process boundary: a
/// network model fitted from loopback RTTs at two frame sizes must
/// predict the RTT at an intermediate size within a generous band (the
/// model is affine; loopback is noisy but not orders-of-magnitude so).
#[test]
fn calibrated_network_model_predicts_intermediate_rtt() {
    let small = (64usize, measure_loopback_rtt(64, 200).unwrap());
    let large = (64 * 1024, measure_loopback_rtt(64 * 1024, 200).unwrap());
    let net = NetworkModel::calibrate(small, large).unwrap();
    net.validate().unwrap();
    assert!(
        net.link_latency_s > 0.0 || net.per_byte_s > 0.0,
        "a real loopback cannot be free: {net:?}"
    );

    let mid_bytes = 8 * 1024;
    let measured = measure_loopback_rtt(mid_bytes, 200).unwrap();
    // One frame_cost_s per direction.
    let predicted = 2.0 * net.frame_cost_s(mid_bytes);
    let ratio = predicted / measured;
    assert!(
        (0.05..20.0).contains(&ratio),
        "DES network model drifted from the real transport: \
         predicted {predicted:.2e}s vs measured {measured:.2e}s (ratio {ratio:.3})"
    );
}
