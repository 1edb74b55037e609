//! The serving runtime end to end, over a real socket: the epoll-backed
//! reactor accepts TCP clients on loopback, the front end admits and
//! batches their queries, DIMM shards execute them, and responses travel
//! back through the same reactor. Every response is checked against a
//! checksum oracle computed client-side before the query is sent.
//!
//! ```text
//! cargo run --release --example serve_demo [num_clients] [per_client]
//! cargo run --release --example serve_demo -- --http [num_clients] [per_client]
//! cargo run --release --example serve_demo -- --fabric N [num_clients] [per_client]
//! ```
//!
//! In the default mode each client opens its own connection and issues
//! `per_client` in-order queries through the line protocol
//! (`LineClient`). With `--http` the same reactor instead speaks
//! HTTP/1.1: two calibrated LUT models are registered under distinct
//! names, each client is a named tenant issuing keep-alive
//! `POST /v1/models/{name}/infer` requests through `HttpClient`, and the
//! demo finishes by scraping `GET /metrics` (Prometheus text) over the
//! same connection. The metrics report printed at shutdown includes the
//! reactor counters: polls, wakeups, accepts, and the measured shard wake
//! latency that calibrates the discrete-event simulator's dispatch
//! overhead.
//!
//! With `--fabric N` the same front end drives the distributed shard
//! fabric (DESIGN.md §13): `N >= 2` shard *worker processes* are spawned
//! (this example re-executes itself via a hidden `__fabric-shard` argv),
//! each serving consistent-hash-placed LUT tables over the binary frame
//! protocol, and one worker is SIGKILLed mid-run — the supervisor
//! re-replicates its tables to the hash successor and every in-flight
//! query still completes against its client-side oracle. The
//! supervisor's event log is printed as one JSON object per line.

use std::net::TcpListener;
use std::sync::Arc;

use pimdl::engine::fabric::FabricConfig;
use pimdl::engine::scheduler::TenantQuota;
use pimdl::engine::shapes::TransformerShape;
use pimdl::serve::codec::{ErrorKind, ServerMsg};
use pimdl::serve::http;
use pimdl::serve::server::HttpConfig;
use pimdl::serve::{
    HttpClient, LineClient, ModelRegistry, ReplicaModel, Runtime, ServeConfig, SupervisorEvent,
    Transition,
};
use pimdl::sim::PlatformConfig;
use pimdl::tensor::rng::DataRng;

/// Hidden argv marker for the fabric mode's self-exec shard workers.
const WORKER_SUBCOMMAND: &str = "__fabric-shard";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Fabric shard workers are this same executable, re-invoked as
    // `serve_demo __fabric-shard <addr> <shard_id> <speedup> <spec-json>`.
    let raw: Vec<String> = std::env::args().collect();
    if raw.get(1).map(String::as_str) == Some(WORKER_SUBCOMMAND) {
        pimdl::serve::fabric::worker_entry(&raw[2..])??;
        return Ok(());
    }

    let mut positional: Vec<String> = Vec::new();
    let mut http_mode = false;
    let mut fabric_shards: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--http" {
            http_mode = true;
        } else if arg == "--fabric" {
            let n = args.next().ok_or("--fabric needs a shard count")?;
            fabric_shards = Some(n.parse()?);
        } else {
            positional.push(arg);
        }
    }
    let num_clients: usize = positional
        .first()
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(4);
    let per_client: usize = positional
        .get(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(50);

    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;
    let shape = TransformerShape::tiny();
    let mut cfg = ServeConfig::example();
    if fabric_shards.is_some() {
        // The fabric demo's contract is zero lost requests across a worker
        // kill, so nothing may be queue-rejected or deadline-shed either.
        cfg.queue_capacity = (num_clients * per_client).max(cfg.queue_capacity);
        cfg.deadline_s = f64::INFINITY;
    }
    let rt = Arc::new(Runtime::new(platform, shape, cfg)?);

    // Compress simulated service times so the demo finishes quickly: one
    // single-request service time ≈ 1 ms of wall time.
    let single_s = rt.service_model().batch_service_s(1)?;
    let speedup = (single_s / 1e-3).max(1.0);

    if let Some(num_shards) = fabric_shards {
        return run_fabric(&rt, single_s, speedup, num_shards, num_clients, per_client);
    }
    if http_mode {
        return run_http(&rt, &cfg, single_s, speedup, num_clients, per_client);
    }

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let handle = rt.serve(listener, speedup)?;
    let addr = handle.addr();
    println!(
        "serving on {addr}: {} shards, max_batch {}, window {:.1} ms, queue {} deep",
        cfg.num_shards,
        cfg.policy.max_batch,
        cfg.policy.max_wait_s * 1e3,
        cfg.queue_capacity,
    );
    println!(
        "load: {num_clients} clients x {per_client} queries \
         (single-request service {single_s:.4} s, clock speedup {speedup:.0}x)\n"
    );

    let workload = rt.replica().workload();
    let clients: Vec<_> = (0..num_clients)
        .map(|c| {
            let rt = Arc::clone(&rt);
            std::thread::spawn(move || -> Result<(usize, usize), String> {
                let mut client = LineClient::connect(addr).map_err(|e| e.to_string())?;
                let mut rng = DataRng::new(0xD0_0D + c as u64);
                let (mut ok, mut shed) = (0usize, 0usize);
                for k in 0..per_client {
                    let indices: Vec<u16> = (0..workload.n * workload.cb)
                        .map(|_| rng.index(workload.ct) as u16)
                        .collect();
                    let oracle = rt
                        .replica()
                        .checksum_of(&indices)
                        .map_err(|e| e.to_string())?
                        .to_bits();
                    let tag = format!("c{c}-{k}");
                    match client.query(&tag, &indices).map_err(|e| e.to_string())? {
                        ServerMsg::Result {
                            tag: rtag,
                            correct,
                            checksum_bits,
                        } => {
                            if rtag != tag || !correct || checksum_bits != oracle {
                                return Err(format!("{tag}: response mismatched the oracle"));
                            }
                            ok += 1;
                        }
                        ServerMsg::Error { kind, .. } => {
                            if kind != ErrorKind::Rejected {
                                return Err(format!("{tag}: unexpected error {kind:?}"));
                            }
                            shed += 1;
                        }
                    }
                }
                Ok((ok, shed))
            })
        })
        .collect();

    let (mut ok, mut shed) = (0usize, 0usize);
    for c in clients {
        let (o, s) = c.join().expect("client thread panicked")?;
        ok += o;
        shed += s;
    }
    let snap = handle.shutdown()?;

    println!("{}", snap.render());
    println!(
        "\nclients saw {ok} correct results and {shed} admission rejections \
         ({} queries total)",
        num_clients * per_client,
    );
    println!(
        "conservation: {} | every result matched its client-side oracle",
        snap.completed + snap.rejected + snap.deadline_exceeded
            == (num_clients * per_client) as u64,
    );
    Ok(())
}

/// The `--fabric N` mode: the line protocol served by `N` shard worker
/// processes, with a SIGKILL of worker 0 mid-run to showcase the
/// zero-lost-requests re-replication contract.
fn run_fabric(
    rt: &Arc<Runtime>,
    single_s: f64,
    speedup: f64,
    num_shards: usize,
    num_clients: usize,
    per_client: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    if num_shards < 2 {
        return Err(
            "--fabric needs at least 2 shards (a lone shard's death loses its tables)".into(),
        );
    }
    // One LUT table per shard; the consistent-hash ring decides the actual
    // placement. Clients keep per-table oracle replicas.
    let tables: Vec<(String, u64)> = (0..num_shards)
        .map(|i| (format!("table-{i}"), 0xFAB + i as u64))
        .collect();
    let oracles: Arc<Vec<(String, Arc<ReplicaModel>)>> = Arc::new(
        tables
            .iter()
            .map(|(name, seed)| Ok((name.clone(), rt.build_replica(*seed)?)))
            .collect::<Result<_, pimdl::serve::ServeError>>()?,
    );

    let mut fabric = FabricConfig::example();
    fabric.num_shards = num_shards;
    // Deaths are EOF-detected; a huge *virtual* timeout keeps the
    // accelerated clock from expiring slow-but-alive workers.
    fabric.hello_timeout_s = 1e6;
    let exe = std::env::current_exe()?;
    let worker_argv = vec![
        exe.to_string_lossy().into_owned(),
        WORKER_SUBCOMMAND.to_string(),
    ];

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let handle = rt.serve_fabric(listener, speedup, fabric, tables.clone(), worker_argv)?;
    // EOF-driven death detection needs the victim to have connected: wait
    // for every table to route before the SIGKILL below, or a slow worker
    // killed pre-Hello would strand its tables until the huge timeout.
    handle.wait_all_ready(std::time::Duration::from_secs(120))?;
    let addr = handle.addr();
    println!(
        "fabric serving on {addr}: {num_shards} worker processes, {} tables \
         (consistent-hash placement, vnodes {})",
        tables.len(),
        FabricConfig::example().vnodes,
    );
    println!(
        "load: {num_clients} clients x {per_client} queries round-robined over the tables \
         (single-request service {single_s:.4} s, clock speedup {speedup:.0}x)"
    );
    println!("worker 0 will be SIGKILLed mid-run — zero lost requests is the contract\n");

    let workload = rt.replica().workload();
    let clients: Vec<_> = (0..num_clients)
        .map(|c| {
            let oracles = Arc::clone(&oracles);
            std::thread::spawn(move || -> Result<usize, String> {
                let mut client = LineClient::connect(addr).map_err(|e| e.to_string())?;
                let mut rng = DataRng::new(0xFAB0 + c as u64);
                let mut ok = 0usize;
                for k in 0..per_client {
                    let (table, replica) = &oracles[(c + k) % oracles.len()];
                    let indices: Vec<u16> = (0..workload.n * workload.cb)
                        .map(|_| rng.index(workload.ct) as u16)
                        .collect();
                    let oracle = replica
                        .checksum_of(&indices)
                        .map_err(|e| e.to_string())?
                        .to_bits();
                    let tag = format!("c{c}-{k}");
                    client
                        .send_to(&tag, &indices, Some(table))
                        .map_err(|e| e.to_string())?;
                    match client.recv().map_err(|e| e.to_string())? {
                        ServerMsg::Result {
                            tag: rtag,
                            correct,
                            checksum_bits,
                        } => {
                            if rtag != tag || !correct || checksum_bits != oracle {
                                return Err(format!("{tag}: response mismatched the oracle"));
                            }
                            ok += 1;
                        }
                        ServerMsg::Error { kind, .. } => {
                            return Err(format!(
                                "{tag}: refused with {kind:?} — a worker kill must not shed requests"
                            ));
                        }
                    }
                }
                Ok(ok)
            })
        })
        .collect();

    // Let the fleet get batches in flight, then kill a worker for real.
    std::thread::sleep(std::time::Duration::from_millis(30));
    handle.kill_worker(0)?;
    println!("SIGKILLed worker 0; supervisor re-replicates its tables to the hash successor\n");

    let mut ok = 0usize;
    for c in clients {
        ok += c.join().expect("client thread panicked")?;
    }
    let (events, total) = handle.events().read();
    println!("supervisor events ({total}, one JSON object per line):");
    for e in &events {
        println!("{}", event_json(e));
    }
    println!();
    let snap = handle.shutdown()?;

    println!("{}", snap.render());
    println!(
        "\nclients saw {ok}/{} correct results across the worker kill — zero lost",
        num_clients * per_client,
    );
    println!(
        "conservation: {} | every result matched its client-side oracle",
        snap.completed == (num_clients * per_client) as u64,
    );
    Ok(())
}

/// One supervisor event as a JSON object. Table names need no escaping:
/// the fabric accepts only `[A-Za-z0-9._-]`.
fn event_json(e: &SupervisorEvent) -> String {
    let (subject, to) = match &e.to {
        Transition::Shard(id, state) => (format!("\"shard\":{id}"), format!("{state:?}")),
        Transition::Table(name, state) => (format!("\"table\":\"{name}\""), format!("{state:?}")),
    };
    format!(
        "{{\"at_s\":{},{subject},\"to\":\"{to}\",\"cause\":\"{:?}\"}}",
        e.at_s, e.cause
    )
}

/// The `--http` mode: multi-tenant keep-alive inference over HTTP/1.1.
fn run_http(
    rt: &Arc<Runtime>,
    cfg: &ServeConfig,
    single_s: f64,
    speedup: f64,
    num_clients: usize,
    per_client: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    // Two calibrated LUT models from distinct table seeds; clients keep
    // oracle handles so every response is checked end to end.
    let models = [
        ("demo-a", rt.build_replica(0xA)?),
        ("demo-b", rt.build_replica(0xB)?),
    ];
    let mut registry = ModelRegistry::new();
    for (name, replica) in &models {
        registry.register(name, Arc::clone(replica))?;
    }

    // Even-numbered clients are the weight-3 "gold" tenant, odd-numbered
    // the weight-1 "bronze" tenant; both hold real in-flight quotas.
    let http_cfg = HttpConfig {
        tenants: vec![
            ("gold".to_string(), TenantQuota::new(3, 32)?),
            ("bronze".to_string(), TenantQuota::new(1, 32)?),
        ],
        default_quota: None,
        ..HttpConfig::default()
    };

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let handle = rt.serve_http(listener, speedup, http_cfg, registry)?;
    let addr = handle.addr();
    println!(
        "HTTP/1.1 serving on {addr}: {} shards, max_batch {}, window {:.1} ms, queue {} deep",
        cfg.num_shards,
        cfg.policy.max_batch,
        cfg.policy.max_wait_s * 1e3,
        cfg.queue_capacity,
    );
    println!("models: demo-a, demo-b | tenants: gold (weight 3), bronze (weight 1)");
    println!(
        "load: {num_clients} keep-alive clients x {per_client} infers \
         (single-request service {single_s:.4} s, clock speedup {speedup:.0}x)\n"
    );

    let workload = rt.replica().workload();
    let clients: Vec<_> = (0..num_clients)
        .map(|c| {
            let (model_name, replica) = &models[c % models.len()];
            let model_name = model_name.to_string();
            let replica = Arc::clone(replica);
            let tenant = if c % 2 == 0 { "gold" } else { "bronze" };
            std::thread::spawn(move || -> Result<(usize, usize), String> {
                let mut client = HttpClient::connect(addr).map_err(|e| e.to_string())?;
                let target = format!("/v1/models/{model_name}/infer");
                let mut rng = DataRng::new(0x177E + c as u64);
                let (mut ok, mut refused) = (0usize, 0usize);
                for k in 0..per_client {
                    let indices: Vec<u16> = (0..workload.n * workload.cb)
                        .map(|_| rng.index(workload.ct) as u16)
                        .collect();
                    let oracle = replica
                        .checksum_of(&indices)
                        .map_err(|e| e.to_string())?
                        .to_bits();
                    let body = indices
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    let resp = client
                        .request("POST", &target, &[("X-Tenant", tenant)], body.as_bytes())
                        .map_err(|e| e.to_string())?;
                    match resp.status {
                        200 => {
                            let (correct, bits) =
                                http::parse_infer_result(&resp.body).map_err(|e| e.to_string())?;
                            if !correct || bits != oracle {
                                return Err(format!(
                                    "{tenant} req {k}: response mismatched the oracle"
                                ));
                            }
                            ok += 1;
                        }
                        429 | 503 => refused += 1,
                        s => return Err(format!("{tenant} req {k}: unexpected status {s}")),
                    }
                }
                Ok((ok, refused))
            })
        })
        .collect();

    let (mut ok, mut refused) = (0usize, 0usize);
    for c in clients {
        let (o, r) = c.join().expect("client thread panicked")?;
        ok += o;
        refused += r;
    }

    // Scrape the live Prometheus endpoint before shutting down.
    let mut probe = HttpClient::connect(addr)?;
    let metrics = probe.request("GET", "/metrics", &[], &[])?;
    let text = String::from_utf8(metrics.body)?;
    println!("GET /metrics ({} bytes, selected series):", text.len());
    for line in text
        .lines()
        .filter(|l| l.starts_with("pimdl_requests_") || l.starts_with("pimdl_batches_"))
    {
        println!("  {line}");
    }

    let snap = handle.shutdown()?;
    println!("\n{}", snap.render());
    println!(
        "\nclients saw {ok} correct results and {refused} quota/queue refusals \
         ({} infers total)",
        num_clients * per_client,
    );
    println!(
        "conservation: {} | every 200 matched its client-side oracle",
        snap.completed + snap.rejected + snap.deadline_exceeded
            == (num_clients * per_client) as u64,
    );
    Ok(())
}
