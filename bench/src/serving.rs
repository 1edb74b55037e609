//! The four serving workloads: real loopback sockets into `pimdl-serve`.
//!
//! | workload | entry point | clock | load |
//! |---|---|---|---|
//! | `line_small` | `Runtime::serve` | 1e6× | closed loop, 16 outstanding |
//! | `fabric_small` | `Runtime::serve_fabric`, 2 worker processes | 1e6× | closed loop, 16 outstanding |
//! | `line_large` | `Runtime::serve` | real time | closed loop, 8 outstanding |
//! | `http_rt` | `Runtime::serve_http` | real time | open loop, Poisson 500 rps |

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use pimdl_engine::fabric::FabricConfig;
use pimdl_engine::pipeline::PimDlEngine;
use pimdl_engine::scheduler::TenantQuota;
use pimdl_engine::shapes::TransformerShape;
use pimdl_serve::server::HttpConfig;
use pimdl_serve::{
    FabricHandle, MetricsSnapshot, ModelRegistry, OpenLoop, Outcome as ReqOutcome, ReplicaModel,
    Runtime, ServeConfig, ServeHandle,
};
use pimdl_sim::{LutWorkload, PlatformConfig};
use pimdl_tensor::rng::DataRng;

use crate::load::{self, HttpReq, LineQuery, LoadStats};
use crate::reference::{self, Reference};
use crate::spec::Metrics;
use crate::util::{self, median, quantile};
use crate::{replay, Outcome, Res, RunOpts};

/// Argv marker under which this binary re-executes itself as a fabric
/// shard worker (`main` hands it to `shard_worker_main`).
pub const WORKER_SUBCOMMAND: &str = "__fabric-shard";

/// Clock compression of the two `*_small` workloads. At 1× the modelled
/// 9.6 ms PIM service time caps them near 760 requests/s whatever the
/// host code does; compressed, modelled time is ≈ 0 and the front end
/// (codec, reactor, admission, batcher, metrics) is what is measured.
const COMPRESSED: f64 = 1e6;

/// Real seconds a fabric worker may take to say hello and load a table.
/// The supervisor's timeout runs on the accelerated clock, so it is given
/// in virtual seconds.
const HELLO_TIMEOUT_REAL_S: f64 = 120.0;

/// Open-loop arrival rate of `http_rt`: ≈ 60 % of the 833 requests/s the
/// modelled service time allows two shards at batch 4.
pub const HTTP_RATE_RPS: f64 = 500.0;

/// One reply in this many is checked against the client-side checksum.
const ORACLE_STRIDE: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LineSmall,
    FabricSmall,
    LineLarge,
    HttpRt,
}

impl Kind {
    pub fn speedup(self) -> f64 {
        match self {
            Kind::LineSmall | Kind::FabricSmall => COMPRESSED,
            Kind::LineLarge | Kind::HttpRt => 1.0,
        }
    }

    fn outstanding(self) -> usize {
        match self {
            Kind::LineLarge => 8,
            _ => 16,
        }
    }

    /// Seconds of one closed-loop burst: a few hundred requests at least.
    fn slice_s(self) -> f64 {
        match self {
            Kind::LineLarge => 1.0,
            _ => 0.25,
        }
    }

    pub fn config(self) -> ServeConfig {
        let mut cfg = ServeConfig::example();
        match self {
            Kind::LineSmall | Kind::FabricSmall => {}
            // One BERT-base FFN-row block: ≈ 15 KB per query line, and
            // host functional execution longer than the modelled service.
            Kind::LineLarge => {
                cfg.lut = LutWorkload {
                    n: 32,
                    cb: 192,
                    ct: 16,
                    f: 768,
                }
            }
            // Nothing may be refused on this load.
            Kind::HttpRt => cfg.queue_capacity = 4096,
        }
        cfg
    }
}

pub fn platform() -> PlatformConfig {
    let mut p = PlatformConfig::upmem();
    p.num_pes = 64;
    p
}

/// `(name, table seed)` of the two fabric tables; the first is the
/// default route.
pub fn fabric_tables() -> Vec<(String, u64)> {
    (0..2).map(|i| (format!("t-{i}"), 0xFA0 + i)).collect()
}

/// `(model name, table seed, tenant)` of the two HTTP models.
pub const HTTP_MODELS: [(&str, u64, &str); 2] = [("m-a", 101, "alpha"), ("m-b", 202, "beta")];

/// Client-side oracle and generated inputs, built once from the seed
/// before any set-up is timed. The replicas here are the benchmark's own,
/// built from the same table seeds the server uses.
pub struct Inputs {
    pub kind: Kind,
    /// Oracle replica per route: `line_*` has one; the fabric one per
    /// table; HTTP one per model.
    pub oracles: Vec<ReplicaModel>,
    /// Which oracle / route each pool entry uses.
    pub route_of: Vec<usize>,
    pub line_pool: Vec<LineQuery>,
    pub http_pool: Vec<HttpReq>,
}

fn csv(indices: &[u16]) -> String {
    let mut s = String::with_capacity(indices.len() * 3);
    for (i, v) in indices.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&v.to_string());
    }
    s
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Res<Inputs> {
        let cfg = kind.config();
        let engine = PimDlEngine::new(platform());
        let seeds: Vec<u64> = match kind {
            Kind::LineSmall | Kind::LineLarge => vec![cfg.table_seed],
            Kind::FabricSmall => fabric_tables().into_iter().map(|(_, s)| s).collect(),
            Kind::HttpRt => HTTP_MODELS.iter().map(|m| m.1).collect(),
        };
        let oracles = seeds
            .iter()
            .map(|&s| ReplicaModel::build(&engine, cfg.lut, s))
            .collect::<Result<Vec<_>, _>>()?;
        let pool_len = if kind == Kind::LineLarge { 64 } else { 1024 };
        let w = cfg.lut;
        let mut rng = DataRng::new(util::mix(seed, 1));
        let tables = fabric_tables();
        let mut inputs = Inputs {
            kind,
            oracles,
            route_of: Vec::new(),
            line_pool: Vec::new(),
            http_pool: Vec::new(),
        };
        for k in 0..pool_len {
            let idx: Vec<u16> = (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
            // The fabric experiment's route cycle: every third query takes
            // the default route, the others name a table. `line_small`
            // sends the same lines (its server ignores the table field).
            let table = match k % (tables.len() + 1) {
                0 => None,
                i => Some(i - 1),
            };
            let route = match kind {
                Kind::LineSmall | Kind::LineLarge => 0,
                Kind::FabricSmall => table.unwrap_or(0),
                Kind::HttpRt => k % 2,
            };
            let expect_bits = if k % ORACLE_STRIDE == 0 {
                Some(inputs.oracles[route].checksum_of(&idx)?.to_bits())
            } else {
                None
            };
            if kind == Kind::HttpRt {
                let (model, _, tenant) = HTTP_MODELS[route];
                let body = csv(&idx);
                let bytes = format!(
                    "POST /v1/models/{model}/infer HTTP/1.1\r\nHost: pimdl\r\nX-Tenant: {tenant}\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .into_bytes();
                inputs.http_pool.push(HttpReq { bytes, expect_bits });
            } else {
                let named = kind != Kind::LineLarge;
                let suffix = match table.filter(|_| named) {
                    Some(t) => format!(" {} {}\n", csv(&idx), tables[t].0),
                    None => format!(" {}\n", csv(&idx)),
                };
                inputs.line_pool.push(LineQuery {
                    suffix: suffix.into_bytes(),
                    expect_bits,
                });
            }
            inputs.route_of.push(route);
        }
        Ok(inputs)
    }

    /// The queries whose verified replies end set-up: the first checked
    /// entry of every route, so every fabric table has loaded.
    fn first_ops(&self) -> Vec<usize> {
        (0..self.oracles.len())
            .map(|r| {
                (0..self.route_of.len())
                    .step_by(ORACLE_STRIDE)
                    .find(|&k| self.route_of[k] == r)
                    .unwrap_or(0)
            })
            .collect()
    }
}

enum Server {
    Reactor(ServeHandle),
    Fabric(FabricHandle),
}

/// A started server. Dropping it on any path — error, panic, timeout —
/// shuts it down, which joins the reactor thread (closing the listener)
/// and kills and reaps the fabric workers: a failed run leaves no orphan
/// process and no bound port.
pub struct Running {
    pub rt: Arc<Runtime>,
    pub addr: SocketAddr,
    server: Option<Server>,
}

impl Running {
    pub fn shutdown(mut self) -> Res<MetricsSnapshot> {
        Ok(
            match self.server.take().expect("server present until shutdown") {
                Server::Reactor(h) => h.shutdown()?,
                Server::Fabric(h) => h.shutdown()?,
            },
        )
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        match self.server.take() {
            Some(Server::Reactor(h)) => drop(h.shutdown()),
            Some(Server::Fabric(h)) => drop(h.shutdown()),
            None => {}
        }
    }
}

/// The system's set-up, start to first verified operation: runtime (tuner
/// prewarm, table build), models/tables, reactor thread or worker
/// processes, one checked query per route.
pub fn set_up(inputs: &Inputs) -> Res<Running> {
    let kind = inputs.kind;
    let cfg = kind.config();
    let rt = Arc::new(Runtime::new(platform(), TransformerShape::tiny(), cfg)?);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let speedup = kind.speedup();
    let server = match kind {
        Kind::LineSmall | Kind::LineLarge => Server::Reactor(rt.serve(listener, speedup)?),
        Kind::FabricSmall => {
            let mut fabric = FabricConfig::example();
            fabric.hello_timeout_s = HELLO_TIMEOUT_REAL_S * speedup;
            let exe = std::env::current_exe()?;
            let argv = vec![
                exe.to_string_lossy().into_owned(),
                WORKER_SUBCOMMAND.to_string(),
            ];
            Server::Fabric(rt.serve_fabric(listener, speedup, fabric, fabric_tables(), argv)?)
        }
        Kind::HttpRt => {
            let mut registry = ModelRegistry::new();
            for (name, seed, _) in HTTP_MODELS {
                registry.register(name, rt.build_replica(seed)?)?;
            }
            let quota = |weight| TenantQuota::new(weight, 4096);
            let http = HttpConfig {
                tenants: vec![
                    ("alpha".to_string(), quota(1)?),
                    ("beta".to_string(), quota(2)?),
                ],
                default_quota: None,
                ..HttpConfig::default()
            };
            Server::Reactor(rt.serve_http(listener, speedup, http, registry)?)
        }
    };
    let running = Running {
        rt,
        addr,
        server: Some(server),
    };
    let first = inputs.first_ops();
    let ok = if kind == Kind::HttpRt {
        let mut ok = true;
        for &k in &first {
            ok &= load::http_once(addr, &inputs.http_pool[k])?;
        }
        ok
    } else {
        let qs: Vec<&LineQuery> = first.iter().map(|&k| &inputs.line_pool[k]).collect();
        load::line_warmup(addr, &qs)?
    };
    if !ok {
        return Err("set-up: the first operation did not verify".into());
    }
    Ok(running)
}

/// p50 latency (ms) of the same open loop on the deterministic virtual
/// clock.
fn des_p50_ms(rt: &Runtime, num_requests: usize, seed: u64) -> Res<f64> {
    let report = rt.run_virtual(&OpenLoop {
        rate_rps: HTTP_RATE_RPS,
        num_requests,
        seed,
    })?;
    let lat: Vec<f64> = report
        .records
        .iter()
        .filter_map(|r| match r.outcome {
            ReqOutcome::Completed { latency_s, .. } => Some(latency_s * 1e3),
            _ => None,
        })
        .collect();
    Ok(median(&lat))
}

pub fn run(kind: Kind, opts: &RunOpts) -> Res<Outcome> {
    let inputs = Inputs::generate(kind, opts.seed)?;
    let reference = Reference::global();
    let (running, setup) = crate::repeat_set_up(opts, || set_up(&inputs))?;

    let mut m = Metrics::default();
    let stats: LoadStats = if kind == Kind::HttpRt {
        let mut rng = DataRng::new(util::mix(opts.seed, 2));
        let due = load::poisson_due_times(HTTP_RATE_RPS, opts.warm_s + opts.seconds, &mut rng);
        let before = reference.read();
        let stats = load::open_loop_http(
            running.addr,
            &inputs.http_pool,
            &due,
            opts.warm_s,
            opts.seconds,
        )?;
        let readings = [before, reference.read()];
        // An open loop cannot pause for the reference, and needs it least:
        // the schedule fixes the rate, the modelled service time in real
        // time most of the latency, and the CPU a request costs in bursts
        // between idle gaps stayed within 3 % here while the reference
        // moved by 25 % — so this workload's results are as measured.
        let rates = util::slice_rates(&stats.done_at_s, opts.seconds, 1.0);
        let in_window = stats
            .done_at_s
            .iter()
            .filter(|&&t| t < opts.seconds)
            .count();
        m.set("goodput_per_s", median(&rates));
        m.set("latency_p50_ms", median(&stats.latencies_ms));
        m.set(
            "cpu_us_per_op",
            stats.cpu.total_s() * 1e6 / in_window.max(1) as f64,
        );
        m.set("client.slice_iqr_share", util::iqr_share(&rates));
        reference::fill_host(&mut m, &readings, opts.core_share);
        stats
    } else {
        let stats = load::closed_loop(
            running.addr,
            &inputs.line_pool,
            kind.outstanding(),
            opts.warm_s,
            opts.seconds,
            kind.slice_s(),
        )?;
        reference::fill_timed(&mut m, &stats.slices, opts.core_share);
        stats
    };
    let peak_rss = util::tree_peak_rss_mib();
    let rt = Arc::clone(&running.rt);
    let snap = running.shutdown()?;
    if !util::child_pids().is_empty() {
        return Err("fabric workers survived shutdown".into());
    }

    // The ledger's spans are raw time, so it is set beside the raw median.
    let p50 = median(&stats.latencies_ms);
    m.set("setup_s", setup.median_s);
    m.set("peak_rss_mb", peak_rss);

    let failed = stats.attempted - stats.verified;
    let mut notes = vec![format!(
        "latency samples {} (p99 has {} beyond it)",
        stats.latencies_ms.len(),
        stats.latencies_ms.len() / 100
    )];
    notes.extend(reference::slice_notes(&stats.slices));

    // Counts the server itself kept, from the snapshot `shutdown` returns.
    let reqs = snap.completed.max(1) as f64;
    m.set("serve.mean_batch", snap.mean_batch);
    m.set("serve.batches", snap.batches as f64);
    m.set("serve.queue_depth_peak", snap.queue_depth_peak as f64);
    m.set("serve.rejected", snap.rejected as f64);
    m.set("serve.deadline_exceeded", snap.deadline_exceeded as f64);
    m.set(
        "serve.reactor.polls_per_req",
        snap.reactor.polls as f64 / reqs,
    );
    m.set(
        "serve.reactor.reads_per_req",
        snap.reactor.reads as f64 / reqs,
    );
    m.set(
        "serve.reactor.writes_per_req",
        snap.reactor.writes as f64 / reqs,
    );
    m.set(
        "serve.reactor.wake_latency_us",
        snap.reactor.mean_wake_latency_s / kind.speedup() * 1e6,
    );
    m.set(
        "serve.reactor.spurious_wakeups",
        snap.reactor.spurious_wakeups as f64,
    );
    m.set("client.latency_p90_ms", quantile(&stats.latencies_ms, 0.90));
    m.set("client.latency_p99_ms", quantile(&stats.latencies_ms, 0.99));
    m.set("client.latency_max_ms", quantile(&stats.latencies_ms, 1.0));
    m.set("host.setup_first_s", setup.first_s);
    if kind == Kind::FabricSmall {
        m.set(
            "serve.fabric.worker_cpu_share",
            stats.cpu.children_s / stats.cpu.total_s().max(f64::MIN_POSITIVE),
        );
    }
    let des_ms = if kind == Kind::HttpRt {
        m.set(
            "client.send_lateness_p99_ms",
            quantile(&stats.lateness_ms, 0.99),
        );
        let des = des_p50_ms(&rt, stats.attempted as usize, opts.seed)?;
        m.set("rt_des_ratio", p50 / des.max(f64::MIN_POSITIVE));
        notes.push(format!(
            "run_virtual p50 {des:.3} ms at {HTTP_RATE_RPS} rps"
        ));
        des
    } else {
        0.0
    };

    let trace = if opts.trace {
        Some(replay::serving(
            kind, &inputs, &rt, &snap, p50, des_ms, &mut m,
        )?)
    } else {
        None
    };
    Ok(Outcome {
        attempted: stats.attempted,
        failed,
        metrics: m,
        notes,
        trace,
    })
}
