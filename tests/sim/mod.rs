//! The SimPoller harness under `tests/{reactor,http,fabric}_pipeline.rs`:
//! one runtime builder, one payload generator, one reply parser per wire
//! format, one run driver over the three server loops (`ServerLoop` and
//! `HttpServerLoop` on simulated `Shards`, `FabricServerLoop` on
//! `SimShardEngine`), the checks every schedule must pass, the scenarios
//! the three fronts share, and the seeded schedule explorer.
//!
//! A run is a pure function of its script: no sockets, no threads, and a
//! virtual clock that moves only from one scripted instant or timeout to
//! the next, so any schedule replays bit for bit.

// Each suite uses the part of the harness its front needs.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pimdl::engine::fabric::FabricConfig;
use pimdl::engine::shapes::TransformerShape;
use pimdl::serve::codec::{self, ErrorKind, ServerMsg};
use pimdl::serve::http::{self, ClientResponse};
use pimdl::serve::reactor::Token;
use pimdl::serve::{
    Clock, EventSource, FabricServerLoop, Frame, HttpConfig, HttpServerLoop, Metrics,
    MetricsSnapshot, ModelRegistry, ReplicaModel, Runtime, ServeConfig, ServerLoop, ShardState,
    Shards, SimPoller, SimShardEngine, TableState, VirtualClock,
};
use pimdl::sim::{LutWorkload, NetworkModel, PlatformConfig};
use proptest::TestRng;

/// Simulated shard workers answer `LoadTable` this long after it is sent.
const LOAD_DELAY_S: f64 = 0.01;

/// The explorer's fabric evicts a worker that has not said `Hello` by then.
const HELLO_TIMEOUT_S: f64 = 0.5;

/// A runtime on 64 UPMEM PEs: 2 shards, batches of up to 4, a 4 ms
/// flush window.
pub fn runtime(queue_capacity: usize, deadline_s: f64) -> Runtime {
    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 64;
    let mut cfg = ServeConfig::example();
    cfg.queue_capacity = queue_capacity;
    cfg.deadline_s = deadline_s;
    Runtime::new(platform, TransformerShape::tiny(), cfg).unwrap()
}

/// Deterministic index payload `k` for workload `w`.
pub fn indices_for(w: LutWorkload, k: usize) -> Vec<u16> {
    (0..w.n * w.cb)
        .map(|i| ((k * 7 + i * 3) % w.ct) as u16)
        .collect()
}

/// Raw HTTP/1.1 request bytes.
pub fn http_req(method: &str, target: &str, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
    let mut s = format!("{method} {target} HTTP/1.1\r\nHost: sim\r\n");
    for (k, v) in headers {
        s.push_str(&format!("{k}: {v}\r\n"));
    }
    if !body.is_empty() {
        s.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    s.push_str("\r\n");
    let mut bytes = s.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// An infer request for `model` from `tenant` with a raw CSV body.
pub fn infer_req(model: &str, tenant: &str, body: &str) -> Vec<u8> {
    let target = format!("/v1/models/{model}/infer");
    http_req("POST", &target, &[("X-Tenant", tenant)], body.as_bytes())
}

/// The `Hello` a shard worker opens with.
pub fn hello(shard_id: u32) -> Vec<u8> {
    Frame::Hello { shard_id }.encode().unwrap()
}

/// Fabric tables `names`, built from seeds `seed0`, `seed0 + 1`, ...
pub fn tables(names: &[&str], seed0: u64) -> Vec<(String, u64)> {
    (0..)
        .zip(names)
        .map(|(i, n)| (n.to_string(), seed0 + i))
        .collect()
}

/// Which server loop a run drives.
#[derive(Debug, Clone)]
pub enum Front {
    /// `ServerLoop` on simulated `Shards`.
    Line,
    /// `HttpServerLoop` on simulated `Shards`, serving `models` (name, table
    /// seed); the first is the default route.
    Http {
        cfg: HttpConfig,
        models: Vec<(String, u64)>,
    },
    /// `FabricServerLoop` on `SimShardEngine` over `fabric`'s workers,
    /// serving `tables` (name, seed; the first is the default route).
    /// `net` prices the workers' socket crossings.
    Fabric {
        fabric: FabricConfig,
        tables: Vec<(String, u64)>,
        net: Option<NetworkModel>,
    },
}

impl Front {
    /// The HTTP front over `models` (name, table seed).
    pub fn http(cfg: HttpConfig, models: &[(&str, u64)]) -> Self {
        let models = models.iter().map(|&(n, s)| (n.to_string(), s)).collect();
        Front::Http { cfg, models }
    }

    /// The fabric front over `shards` workers with a free network.
    pub fn fabric(shards: usize, hello_timeout_s: f64, tables: Vec<(String, u64)>) -> Self {
        let fabric = FabricConfig {
            num_shards: shards,
            hello_timeout_s,
            ..FabricConfig::example()
        };
        Front::Fabric {
            fabric,
            tables,
            net: None,
        }
    }
}

/// One reply a client connection is owed: matched by tag on the line
/// protocol and by position over HTTP, and carrying `oracle`'s checksum
/// bits if it is a result.
#[derive(Debug, Clone)]
pub struct Owed {
    tag: String,
    oracle: Option<u64>,
}

/// A schedule under construction: client connections, whose output the
/// run returns and checks, on top of the raw poller.
pub struct Script<'a> {
    pub poller: &'a SimPoller,
    http: bool,
    /// Fabric workers the front expects (0 for the other fronts).
    shards: usize,
    /// Route name → the replica that computes its client-side oracle.
    models: &'a [(String, Arc<ReplicaModel>)],
    clients: Vec<(Token, Vec<Owed>)>,
}

impl<'a> Script<'a> {
    /// The workload every route serves.
    pub fn workload(&self) -> LutWorkload {
        self.models[0].1.workload()
    }

    /// The route names (HTTP models or fabric tables).
    pub fn routes(&self) -> Vec<&'a str> {
        self.models.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// A client connecting at `at`; its index into [`Run::outputs`].
    pub fn connect(&mut self, at: f64) -> usize {
        self.clients.push((self.poller.connect_at(at), Vec::new()));
        self.clients.len() - 1
    }

    /// Every fabric worker connecting and saying `Hello` at `at`.
    pub fn workers(&mut self, at: f64) -> Vec<Token> {
        (0..self.shards as u32)
            .map(|id| {
                let conn = self.poller.connect_at(at);
                self.poller.send_at(at, conn, hello(id));
                conn
            })
            .collect()
    }

    /// A query's bytes and what they are owed. The line protocol sends
    /// `tag` in the query line and `route` as its table; HTTP posts to
    /// model `route` (default: the first) as tenant `tag`.
    pub fn encode(&self, tag: &str, route: Option<&str>, indices: &[u16]) -> (Vec<u8>, Owed) {
        let model = match route {
            Some(r) => self.models.iter().find(|(n, _)| n == r),
            None => self.models.first(),
        };
        let oracle = model.and_then(|(_, m)| m.checksum_of(indices).ok());
        let bytes = if self.http {
            let csv: Vec<String> = indices.iter().map(u16::to_string).collect();
            infer_req(route.unwrap_or(&self.models[0].0), tag, &csv.join(","))
        } else {
            codec::encode_query_for(tag, indices, route)
        };
        let tag = tag.to_string();
        (
            bytes,
            Owed {
                tag,
                oracle: oracle.map(f64::to_bits),
            },
        )
    }

    /// Sends `bytes` on client `c` at `at`; they complete the `owed`
    /// requests.
    pub fn send(
        &mut self,
        at: f64,
        c: usize,
        bytes: Vec<u8>,
        owed: impl IntoIterator<Item = Owed>,
    ) {
        self.poller.send_at(at, self.clients[c].0, bytes);
        self.clients[c].1.extend(owed);
    }

    /// One query, in one write.
    pub fn query(&mut self, at: f64, c: usize, tag: &str, route: Option<&str>, indices: &[u16]) {
        let (bytes, owed) = self.encode(tag, route, indices);
        self.send(at, c, bytes, [owed]);
    }

    /// `queries` (tag, route, indices), in one write.
    pub fn burst<'r>(
        &mut self,
        at: f64,
        c: usize,
        queries: impl IntoIterator<Item = (String, Option<&'r str>, Vec<u16>)>,
    ) {
        let (mut bytes, mut owed) = (Vec::new(), Vec::new());
        for (tag, route, indices) in queries {
            let (b, o) = self.encode(&tag, route, &indices);
            bytes.extend(b);
            owed.push(o);
        }
        self.send(at, c, bytes, owed);
    }

    /// Raw HTTP bytes owed exactly one response, of any status.
    pub fn request(&mut self, at: f64, c: usize, bytes: Vec<u8>) {
        let owed = Owed {
            tag: String::new(),
            oracle: None,
        };
        self.send(at, c, bytes, [owed]);
    }

    /// Client `c` hangs up at `at`.
    pub fn close(&self, at: f64, c: usize) {
        self.poller.close_at(at, self.clients[c].0);
    }
}

/// Everything one scripted run produced.
#[derive(Debug, PartialEq)]
pub struct Run {
    /// Virtual time at which the loop went quiescent.
    pub end_s: f64,
    /// Metrics at exit, with the reactor's counters.
    pub snapshot: MetricsSnapshot,
    /// Each client's received bytes, in connect order.
    pub outputs: Vec<Vec<u8>>,
    /// Per-shard dispatches and wakeups (in-process shards).
    pub dispatches: Vec<u64>,
    pub wakeups: Vec<u64>,
    /// Reference gathers the front end ran.
    pub gathers: u64,
    /// The fabric's end state: each worker's and each table's.
    pub shard_states: Vec<Option<ShardState>>,
    pub table_states: Vec<(String, Option<TableState>)>,
    pub all_ready: bool,
    pub any_lost: bool,
}

/// Runs `script` against `front` on `rt` and checks what every schedule
/// must satisfy (see [`check`]).
pub fn run(rt: &Runtime, front: &Front, script: &dyn Fn(&mut Script)) -> Run {
    let clock = Arc::new(VirtualClock::new());
    let mut poller = SimPoller::new(Arc::clone(&clock));
    let metrics = Arc::new(Metrics::new(rt.config().policy.max_batch));
    let models: Vec<(String, Arc<ReplicaModel>)> = match front {
        Front::Line => vec![(String::new(), rt.replica_arc())],
        Front::Http { models, .. } | Front::Fabric { tables: models, .. } => models
            .iter()
            .map(|(n, seed)| (n.clone(), rt.build_replica(*seed).unwrap()))
            .collect(),
    };
    let mut s = Script {
        poller: &poller,
        http: matches!(front, Front::Http { .. }),
        shards: match front {
            Front::Fabric { fabric, .. } => fabric.num_shards,
            _ => 0,
        },
        models: &models,
        clients: Vec::new(),
    };
    script(&mut s);
    let clients = s.clients;
    let gathers = || {
        models
            .iter()
            .map(|(_, m)| m.reference_gathers())
            .sum::<u64>()
    };
    let before = gathers();
    let clock_dyn: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
    let (mut dispatches, mut wakeups) = (Vec::new(), Vec::new());
    let (mut shard_states, mut table_states) = (Vec::new(), Vec::new());
    let (mut all_ready, mut any_lost) = (false, false);
    let gathers = if let Front::Fabric {
        fabric,
        tables,
        net,
    } = front
    {
        let mut engine = SimShardEngine::new(rt, poller.handle(), LOAD_DELAY_S);
        if let Some(net) = net {
            engine = engine.with_network(*net);
        }
        let latch = Arc::new(AtomicBool::new(false));
        let mut server =
            FabricServerLoop::new(rt, *fabric, tables, clock_dyn, Arc::clone(&metrics))
                .unwrap()
                .with_ready_flag(Arc::clone(&latch));
        server.run(&mut poller, &mut engine).unwrap();
        assert_eq!(server.queued(), 0, "quiescent exit with queued work");
        let sup = server.supervisor();
        // The latch `FabricHandle::wait_all_ready` observes latches the
        // first moment of full readiness.
        assert!(
            !sup.all_tables_ready() || latch.load(Ordering::Relaxed),
            "all tables routable but the ready latch was never set"
        );
        shard_states = (0..fabric.num_shards as u32)
            .map(|s| sup.shard_state(s))
            .collect();
        table_states = tables
            .iter()
            .map(|(n, _)| (n.clone(), sup.table_state(n)))
            .collect();
        all_ready = sup.all_tables_ready();
        any_lost = sup.any_table_lost();
        server.reference_gathers()
    } else {
        let mut shards = Shards::simulated(rt, Arc::clone(&clock), poller.handle()).unwrap();
        if let Front::Http { cfg, .. } = front {
            let mut registry = ModelRegistry::new();
            for (name, model) in &models {
                registry.register(name, Arc::clone(model)).unwrap();
            }
            let mut server =
                HttpServerLoop::new(rt, cfg.clone(), registry, clock_dyn, Arc::clone(&metrics))
                    .unwrap();
            server.run(&mut poller, &mut shards).unwrap();
        } else {
            let mut server = ServerLoop::new(rt, clock_dyn, Arc::clone(&metrics)).unwrap();
            server.run(&mut poller, &mut shards).unwrap();
        }
        assert_eq!(shards.in_flight(), 0, "a batch in flight at exit");
        let book = shards.manager();
        (dispatches, wakeups) = (
            book.dispatch_counts().to_vec(),
            book.wakeup_counts().to_vec(),
        );
        gathers() - before
    };
    let end = Run {
        end_s: clock.now(),
        snapshot: metrics.snapshot_with_reactor(poller.stats().snapshot()),
        outputs: clients.iter().map(|(t, _)| poller.output_of(*t)).collect(),
        dispatches,
        wakeups,
        gathers,
        shard_states,
        table_states,
        all_ready,
        any_lost,
    };
    check(&end, matches!(front, Front::Http { .. }), &clients);
    end
}

/// [`run`] or [`replay`], for the scenarios that are run both ways.
pub type Driver = fn(&Runtime, &Front, &dyn Fn(&mut Script)) -> Run;

/// [`run`] twice: a replay of the same script must be bit-identical.
pub fn replay(rt: &Runtime, front: &Front, script: &dyn Fn(&mut Script)) -> Run {
    let first = run(rt, front, script);
    assert_eq!(first, run(rt, front, script), "replay diverged");
    first
}

/// A client's line-protocol replies by tag; no tag may be answered twice.
pub fn lines(out: &[u8]) -> BTreeMap<String, ServerMsg> {
    let mut msgs = BTreeMap::new();
    for line in out.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let msg = codec::parse_server_msg(line).expect("server emitted a malformed line");
        let (ServerMsg::Result { tag, .. } | ServerMsg::Error { tag, .. }) = &msg;
        let tag = tag.clone();
        assert!(
            msgs.insert(tag.clone(), msg).is_none(),
            "tag {tag} answered twice"
        );
    }
    msgs
}

/// A client's HTTP responses, in order.
pub fn responses(mut out: &[u8]) -> Vec<ClientResponse> {
    let mut all = Vec::new();
    while !out.is_empty() {
        all.push(http::read_response(&mut out).expect("server emitted a malformed response"));
    }
    all
}

/// The HTTP statuses a well-formed infer may be refused with: unknown
/// tenant, tenant quota, queue full, deadline.
const HTTP_REFUSALS: [u16; 4] = [403, 429, 503, 504];

/// What every schedule must satisfy: every submitted request terminated
/// exactly once (`submitted == completed + rejected + deadline_exceeded`),
/// one shard wakeup per batch, and on each client connection every owed
/// request answered exactly once — no tag twice, none unanswered, nothing
/// unasked — with every result carrying the client-side oracle's checksum,
/// flagged correct. A well-formed query is refused only as rejected or
/// shed (on the line protocol also as `shutdown` once a fabric table is
/// lost; over HTTP with one of [`HTTP_REFUSALS`]).
fn check(run: &Run, http: bool, clients: &[(Token, Vec<Owed>)]) {
    let s = &run.snapshot;
    let terminal = s.completed + s.rejected + s.deadline_exceeded;
    assert_eq!(s.submitted, terminal, "ledger does not close: {s:?}");
    assert_eq!(s.shard_wakeups, s.batches);
    assert_eq!(run.dispatches, run.wakeups);
    for (out, (_, owed)) in run.outputs.iter().zip(clients) {
        if http {
            let got = responses(out);
            assert_eq!(got.len(), owed.len(), "one response per complete request");
            for (r, o) in got.iter().zip(owed) {
                let Some(want) = o.oracle else { continue };
                if r.status == 200 {
                    let result = http::parse_infer_result(&r.body).unwrap();
                    assert_eq!(result, (true, want), "a 200 carries the oracle checksum");
                } else {
                    assert!(
                        HTTP_REFUSALS.contains(&r.status),
                        "a well-formed infer refused with {}",
                        r.status
                    );
                }
            }
        } else {
            let got = lines(out);
            let want: BTreeMap<&str, Option<u64>> =
                owed.iter().map(|o| (o.tag.as_str(), o.oracle)).collect();
            assert!(
                got.keys().map(String::as_str).eq(want.keys().copied()),
                "answered tags {:?} differ from owed {:?}",
                got.keys().collect::<Vec<_>>(),
                want.keys().collect::<Vec<_>>()
            );
            for (tag, msg) in &got {
                let Some(oracle) = want[tag.as_str()] else {
                    continue;
                };
                match msg {
                    ServerMsg::Result {
                        correct,
                        checksum_bits,
                        ..
                    } => {
                        assert!(*correct, "{tag}: PIM result mismatched the host");
                        assert_eq!(*checksum_bits, oracle, "{tag}: checksum");
                    }
                    ServerMsg::Error { kind, .. } => assert!(
                        matches!(kind, ErrorKind::Rejected | ErrorKind::Deadline)
                            || (*kind == ErrorKind::Shutdown && run.any_lost),
                        "{tag}: a well-formed query refused with {kind:?}"
                    ),
                }
            }
        }
    }
}

/// The quiescence contract of all three loops (`front` runs one model or
/// table, on one worker for the fabric): with no shutdown wake at all, a
/// partial batch whose client already hung up is still flushed when its
/// wait window expires (final drain), the loop then exits on quiescence,
/// and accept-error counters recorded on the reactor before the run
/// survive into the final snapshot.
pub fn final_drain(front: Front) {
    let rt = runtime(64, f64::INFINITY);
    let w = rt.replica().workload();
    let run = run(&rt, &front, &|s| {
        for _ in 0..2 {
            s.poller.stats().record_accept_error();
        }
        s.workers(0.0);
        // Half a batch, then a hang-up long before the 4 ms window.
        let c = s.connect(0.0);
        for k in 0..2 {
            s.query(0.05, c, &format!("q{k}"), None, &indices_for(w, k));
        }
        s.close(0.0501, c);
    });
    let snap = &run.snapshot;
    assert_eq!(snap.submitted, 2);
    assert_eq!(snap.completed, 2, "the final drain flushes the batch");
    assert_eq!(snap.batches, 1, "one partial batch of two");
    assert_eq!(snap.reactor.accept_errors, 2);
    assert_eq!(run.all_ready, matches!(front, Front::Fabric { .. }));
}

/// Refuse before paying, on all three loops (`front` as for
/// [`final_drain`]): a burst that overflows the 4-deep queue is rejected
/// on the queue bound alone (`E rejected`, HTTP 503), and a query reaching
/// past the codebook is refused unsubmitted (`E invalid`, HTTP 400) — the
/// front end runs its reference gather only for the requests it admits.
pub fn refuse_before_paying(front: Front) {
    let rt = runtime(4, f64::INFINITY);
    let w = rt.replica().workload();
    let run = run(&rt, &front, &|s| {
        s.workers(0.0);
        // One write, so every query is handled before the first batch
        // leaves the queue.
        let c = s.connect(0.0);
        let good = (0..10).map(|k| (format!("q{k}"), None, indices_for(w, k)));
        let bad = ("bad".to_string(), None, vec![w.ct as u16; w.n * w.cb]);
        s.burst(0.1, c, good.chain([bad]));
        s.close(5.0, c);
    });
    if let Front::Http { .. } = front {
        let statuses: Vec<u16> = responses(&run.outputs[0])
            .iter()
            .map(|r| r.status)
            .collect();
        let want = [[200; 4].as_slice(), &[503; 6], &[400]].concat();
        assert_eq!(statuses, want);
    } else {
        let out = String::from_utf8_lossy(&run.outputs[0]);
        assert_eq!(out.matches(" rejected\n").count(), 6, "{out}");
        assert!(out.contains("E bad invalid\n"), "{out}");
    }
    let snap = &run.snapshot;
    assert_eq!(snap.submitted, 10, "the malformed query is never submitted");
    assert_eq!(snap.rejected, 6, "4 fit the queue, the rest bounce");
    assert_eq!(snap.completed, 4);
    assert_eq!(run.gathers, 4, "one gather per admission, none per refusal");
}

/// The loop the explorer drives.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Line,
    Http,
    Fabric,
}

/// Names the failing schedule when a check inside it panics.
struct OnFailure<'a>(&'a str);

impl Drop for OnFailure<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("failing schedule: {}", self.0);
        }
    }
}

/// Seeded schedule exploration: schedules `0..cases` of `kind`'s loop,
/// each generated from `TestRng::deterministic("<kind>-<seed>")`, run
/// twice and checked (see [`run`] and [`replay`]).
pub fn explore(kind: Kind, cases: u64) {
    let t1 = runtime(64, f64::INFINITY)
        .service_model()
        .batch_service_s(1)
        .unwrap();
    for seed in 0..cases {
        let name = format!("{kind:?}-{seed}");
        let _named = OnFailure(&name);
        let mut rng = TestRng::deterministic(&name);
        let queue = [2, 4, 12, 64][rng.below(4) as usize];
        let deadline_s = match rng.below(2) {
            0 => f64::INFINITY,
            _ => t1 * (1.0 + 4.0 * rng.unit_f64()),
        };
        let front = match kind {
            Kind::Line => Front::Line,
            Kind::Http => Front::http(HttpConfig::default(), &[("m-a", 101), ("m-b", 202)]),
            Kind::Fabric => {
                let n = 1 + rng.below(3) as usize;
                let shards = 1 + rng.below(3) as usize;
                let tables = tables(&["t-0", "t-1", "t-2"][..n], 100);
                Front::fabric(shards, HELLO_TIMEOUT_S, tables)
            }
        };
        let rt = runtime(queue, deadline_s);
        replay(&rt, &front, &|s| {
            let mut rng = TestRng::deterministic(&format!("{name}-script"));
            schedule(s, &mut rng, t1, deadline_s);
        });
    }
}

/// One random schedule: fabric workers that die before `Hello`, mid-frame,
/// while loading or mid-batch, say `Hello` after the timeout, or repeat a
/// `TableReady`; then clients whose requests arrive split at random byte
/// boundaries, some back to back in bursts that overflow the queue,
/// sometimes after a gap far beyond the deadline, sometimes cut off by a
/// hang-up mid-request, all read through a slow reader.
fn schedule(s: &mut Script, rng: &mut TestRng, t1: f64, deadline_s: f64) {
    let w = s.workload();
    let routes = s.routes();
    let start = if s.shards > 0 { 0.1 } else { 0.001 };
    let span = 24.0 * t1;
    for id in 0..s.shards as u32 {
        let p = s.poller;
        match rng.below(8) {
            // Never connects: evicted at the hello timeout.
            0 => {}
            // EOF before `Hello`.
            1 => p.close_at(start * rng.unit_f64(), p.connect_at(0.0)),
            // EOF mid-frame.
            2 => {
                let conn = p.connect_at(0.0);
                let cut = 1 + rng.below(hello(id).len() as u64 - 1) as usize;
                p.send_at(0.0, conn, hello(id)[..cut].to_vec());
                p.close_at(0.001, conn);
            }
            // `Hello` after the hello timeout.
            3 => p.send_at(HELLO_TIMEOUT_S + 0.1, p.connect_at(0.0), hello(id)),
            fault => {
                let conn = p.connect_at(0.0);
                p.send_at(0.0, conn, hello(id));
                match fault {
                    // EOF while loading.
                    4 => p.close_at(LOAD_DELAY_S * rng.unit_f64(), conn),
                    // EOF during the traffic, often mid-batch.
                    5 => p.close_at(start + span * rng.unit_f64(), conn),
                    // A duplicate (or unsolicited) `TableReady`.
                    6 => {
                        let table = routes[rng.below(routes.len() as u64) as usize].to_string();
                        let frame = Frame::TableReady { table }.encode().unwrap();
                        p.send_at(2.0 * LOAD_DELAY_S, conn, frame);
                    }
                    _ => {}
                }
            }
        }
    }
    if rng.below(4) == 0 {
        s.poller.set_write_cap(Some(1 + rng.below(48) as usize));
    }
    let jump = if deadline_s.is_finite() {
        10.0 * deadline_s
    } else {
        1.0
    };
    for client in 0..1 + rng.below(3) {
        let c = s.connect(0.0);
        let mut t = start;
        let n = 1 + rng.below(16);
        let cut = (rng.below(3) == 0).then(|| rng.below(n));
        // A bursty client sends back to back, overflowing the queue.
        let spread = if rng.below(3) == 0 { 0.0 } else { 2.0 * t1 };
        for k in 0..n {
            t += match rng.below(10) {
                0 => jump,
                _ => spread * rng.unit_f64(),
            };
            // The line loop's one route is unnamed: its queries name none.
            let route = (!routes[0].is_empty() && rng.below(2) == 0)
                .then(|| routes[rng.below(routes.len() as u64) as usize]);
            let indices: Vec<u16> = (0..w.n * w.cb)
                .map(|_| rng.below(w.ct as u64) as u16)
                .collect();
            let (bytes, owed) = s.encode(&format!("c{client}-q{k}"), route, &indices);
            if cut == Some(k) {
                let end = 1 + rng.below(bytes.len() as u64 - 1) as usize;
                s.send(t, c, bytes[..end].to_vec(), None);
                s.close(t, c);
                break;
            }
            let mut splits: Vec<usize> = (0..rng.below(3))
                .map(|_| 1 + rng.below(bytes.len() as u64 - 1) as usize)
                .collect();
            splits.sort_unstable();
            splits.dedup();
            let mut from = 0;
            for to in splits.into_iter().chain([bytes.len()]) {
                let last = (to == bytes.len()).then(|| owed.clone());
                s.send(t, c, bytes[from..to].to_vec(), last);
                from = to;
                t += 0.01 * t1 * rng.unit_f64();
            }
        }
        if cut.is_none() && rng.below(2) == 0 {
            s.close(t, c);
        }
    }
}
