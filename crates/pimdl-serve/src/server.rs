//! The batching front ends over the shared connection core: the line
//! protocol ([`ServerLoop`]) and HTTP/1.1 ([`HttpServerLoop`]).
//!
//! Each is a codec plus its admission and batching state — accepted
//! connections feed the `LinePipeline` ([`AdmissionQueue`] →
//! [`ContinuousBatcher`] → [`Shards`]; also what
//! [`Runtime::run_virtual`] runs) or, for
//! HTTP, the [`FairBatcher`] over a [`ModelRegistry`] → the same
//! [`Shards`]. The event loop, the transport path and
//! the reactor-thread spawner are `conn.rs`'s, written once against
//! [`EventSource`], so the identical byte-for-byte pipeline runs under:
//!
//! * [`crate::EpollPoller`] + [`Shards::threaded`] — real sockets, one
//!   worker thread per shard ([`Runtime::serve`] / [`Runtime::serve_http`]
//!   wire this up and return a [`ServeHandle`]);
//! * [`crate::reactor::SimPoller`] + [`Shards::simulated`] — scripted
//!   connections (or, under [`Runtime::run_virtual`], scripted arrivals)
//!   and inline execution on a [`crate::VirtualClock`] the poller advances
//!   from one scripted instant or timeout to the next.
//!
//! Idle costs nothing: with no pending work the loop's wait has no
//! timeout, so it burns zero wakeups until a socket, a shard completion,
//! or a shutdown token fires.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use crate::admission::AdmissionQueue;
use crate::batcher::ContinuousBatcher;
use crate::clock::Clock;
use crate::codec::{self, ErrorKind, LineBuffer};
use crate::conn::{self, ConnState, Conns, Front, Reactor, WakeAt};
use crate::error::ServeError;
use crate::http::{self, HttpLimits, HttpParser, HttpRequest, Route};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::reactor::{EventSource, Token, Waker};
use crate::registry::{AdmitRefusal, FairBatcher, ModelRegistry, TaggedJob};
use crate::request::{Outcome, Request};
use crate::runtime::{Runtime, ServeConfig};
use crate::shard::{ReplicaModel, Shards};
use crate::Result;
use pimdl_engine::scheduler::TenantQuota;

/// The flush window of a non-empty batch counts only while a shard could
/// absorb it — with every shard busy the completion wake is the real
/// signal, and a timed wait would spin on a ready batch.
fn flush_window(shards: &Shards<'_>, flush_deadline_s: Option<f64>) -> Option<f64> {
    flush_deadline_s.filter(|_| shards.any_free())
}

// ---------------------------------------------------------------------------
// LinePipeline — admission → continuous batching → routing, once
// ---------------------------------------------------------------------------

/// The serving policy every single-model driver runs: a bounded
/// [`AdmissionQueue`] feeding a [`ContinuousBatcher`] feeding the
/// [`Shards`]. The drivers differ in where arrivals and time come from
/// and in what a terminal outcome turns into (the `sink`); the order of
/// shedding, refilling, flushing and dispatching, and which metric each
/// transition records, are decided here.
#[derive(Debug)]
pub(crate) struct LinePipeline {
    replica: Arc<ReplicaModel>,
    metrics: Arc<Metrics>,
    queue: AdmissionQueue,
    batcher: ContinuousBatcher,
}

impl LinePipeline {
    /// `rt`'s queue capacity, batching policy and replica, recording into
    /// `metrics`.
    ///
    /// # Errors
    ///
    /// Configuration validation of the queue and batcher state machines.
    pub(crate) fn new(rt: &Runtime, metrics: Arc<Metrics>) -> Result<Self> {
        let cfg = rt.config();
        Ok(LinePipeline {
            replica: rt.replica_arc(),
            metrics,
            queue: AdmissionQueue::new(cfg.queue_capacity)?,
            batcher: ContinuousBatcher::new(cfg.policy)?,
        })
    }

    /// Whether [`LinePipeline::admit`] would take a request now — asked
    /// first by a caller whose request is expensive to build.
    pub(crate) fn has_room(&self) -> bool {
        !self.queue.is_full()
    }

    /// Queues `req`, or hands it back (counted as rejected) when the
    /// queue is full.
    pub(crate) fn admit(&mut self, req: Request) -> std::result::Result<(), Request> {
        let admitted = self.queue.try_admit(req);
        if admitted.is_err() {
            self.metrics.record_rejected();
        }
        self.metrics.observe_queue_depth(self.queue.len());
        admitted
    }

    /// Relative timeout of the driver's next wait: the flush window (while
    /// a shard could take the batch) or a hair past the earliest deadline
    /// in the queue or the pending batch.
    pub(crate) fn next_timeout(&self, now: f64, shards: &Shards<'_>) -> Option<f64> {
        let mut wake = WakeAt::never();
        wake.at(flush_window(shards, self.batcher.flush_deadline_s()));
        wake.after(self.queue.min_deadline_s());
        wake.after(self.batcher.min_deadline_s());
        wake.timeout(now)
    }

    /// Hands every request of every finished batch to `sink` as
    /// `Completed`, in `(finish_s, shard)` order. Returns whether a batch
    /// had finished.
    ///
    /// # Errors
    ///
    /// An execution error of a finished batch.
    pub(crate) fn deliver(
        &self,
        shards: &mut Shards<'_>,
        sink: &mut impl FnMut(Request, Outcome),
    ) -> Result<bool> {
        let mut progress = false;
        for done in shards.drain()? {
            progress = true;
            let batch_size = done.results.len();
            for (req, correct) in done.results {
                let latency_s = done.finish_s - req.arrival_s;
                self.metrics.record_completed(latency_s);
                let outcome = Outcome::Completed {
                    latency_s,
                    shard: done.shard,
                    batch_size,
                    correct,
                };
                sink(req, outcome);
            }
        }
        Ok(progress)
    }

    /// Shed → refill → flush → dispatch, repeated while a shard absorbs a
    /// batch. Expired requests reach `sink` as `DeadlineExceeded` and are
    /// shed before the refill, so none is ever dispatched; `draining`
    /// flushes a partial batch without waiting out its window (the refill
    /// runs first, so a batch is partial only once the queue behind it is
    /// empty). Returns whether anything moved.
    ///
    /// # Errors
    ///
    /// Cost-model and dispatch failures.
    pub(crate) fn pump(
        &mut self,
        now: f64,
        draining: bool,
        shards: &mut Shards<'_>,
        sink: &mut impl FnMut(Request, Outcome),
    ) -> Result<bool> {
        let mut progress = false;
        loop {
            let mut shed = self.queue.shed_expired(now);
            shed.extend(self.batcher.shed_expired(now));
            for r in shed {
                progress = true;
                self.metrics.record_deadline_exceeded();
                sink(r, Outcome::DeadlineExceeded { at_s: now });
            }
            while !self.batcher.is_full() {
                match self.queue.pop() {
                    Some(r) => self.batcher.push(r),
                    None => break,
                }
            }
            self.metrics.observe_queue_depth(self.queue.len());
            let flush = self.batcher.ready(now) || (draining && !self.batcher.is_empty());
            let (replica, batcher) = (&self.replica, &mut self.batcher);
            let take = || Ok(Some((Arc::clone(replica), batcher.take())));
            if flush && shards.dispatch_next(&self.metrics, now, take)? {
                progress = true;
                continue; // another batch may fit another shard
            }
            return Ok(progress);
        }
    }

    /// Whether nothing is queued, pending or in flight.
    pub(crate) fn idle(&self, shards: &Shards<'_>) -> bool {
        self.queue.is_empty() && self.batcher.is_empty() && shards.in_flight() == 0
    }
}

// ---------------------------------------------------------------------------
// ServerLoop
// ---------------------------------------------------------------------------

/// A line-protocol connection's state is its reassembly buffer (a fabric
/// client's too); it is done when the table says it is drained.
impl ConnState for LineBuffer {
    fn feed(&mut self, bytes: &[u8]) {
        self.push(bytes);
    }
}

/// The line-protocol front end: the codec and the reply routing over a
/// `LinePipeline`, run by the shared connection core on any
/// [`EventSource`].
#[derive(Debug)]
pub struct ServerLoop {
    deadline_s: f64,
    replica: Arc<ReplicaModel>,
    clock: Arc<dyn Clock>,
    metrics: Arc<Metrics>,
    pipeline: LinePipeline,
    /// request id → (connection token, client tag) of admitted requests.
    route: HashMap<u64, (Token, String)>,
    next_id: u64,
}

impl ServerLoop {
    /// A loop over `rt`'s pipeline, measuring time on `clock` and
    /// recording into `metrics`.
    ///
    /// # Errors
    ///
    /// Configuration validation of the queue and batcher state machines.
    pub fn new(rt: &Runtime, clock: Arc<dyn Clock>, metrics: Arc<Metrics>) -> Result<Self> {
        Ok(ServerLoop {
            deadline_s: rt.config().deadline_s,
            replica: rt.replica_arc(),
            clock,
            pipeline: LinePipeline::new(rt, Arc::clone(&metrics))?,
            metrics,
            route: HashMap::new(),
            next_id: 0,
        })
    }

    /// Runs on `shards` until shutdown (a
    /// [`crate::reactor::WAKE_SHUTDOWN`] token followed by a full drain)
    /// or — for the simulated transport — until the script is exhausted
    /// and no work remains.
    ///
    /// # Errors
    ///
    /// Poller failures, dispatch failures and execution errors.
    /// Per-connection I/O errors only drop that connection.
    pub fn run(&mut self, source: &mut dyn EventSource, shards: &mut Shards<'_>) -> Result<()> {
        conn::drive(source, self, shards)
    }

    /// Parses and admits (or refuses) one query line.
    fn handle_line(
        &mut self,
        conns: &mut Conns<'_, LineBuffer>,
        t: Token,
        line: &[u8],
    ) -> Result<()> {
        if line.is_empty() {
            return Ok(());
        }
        let now = self.clock.now();
        let query = match codec::parse_query(line) {
            Ok(q) => q,
            Err(_) => {
                conns.send(
                    t,
                    &codec::encode_error(&fallback_tag(line), ErrorKind::Invalid),
                );
                return Ok(());
            }
        };
        if conns.draining {
            conns.send(t, &codec::encode_error(&query.tag, ErrorKind::Shutdown));
            return Ok(());
        }
        if self.replica.validate_indices(&query.indices).is_err() {
            conns.send(t, &codec::encode_error(&query.tag, ErrorKind::Invalid));
            return Ok(());
        }
        let id = self.next_id;
        self.next_id += 1;
        self.metrics.record_submitted();
        let admitted = if self.pipeline.has_room() {
            let deadline_s = now + self.deadline_s;
            let req = self
                .replica
                .request_from_valid(id, now, deadline_s, query.indices)?;
            self.pipeline.admit(req).is_ok()
        } else {
            // Refused before paying: the reference gather is the request's
            // most expensive step, so no request is built for a full queue.
            self.metrics.record_rejected();
            false
        };
        if admitted {
            self.route.insert(id, (t, query.tag));
            conns.owe(t);
        } else {
            conns.send(t, &codec::encode_error(&query.tag, ErrorKind::Rejected));
        }
        Ok(())
    }
}

impl<'s> Front<Shards<'s>> for ServerLoop {
    type Conn = LineBuffer;

    fn next_timeout(&self, shards: &Shards<'s>) -> Option<f64> {
        self.pipeline.next_timeout(self.clock.now(), shards)
    }

    fn accept(&self) -> LineBuffer {
        LineBuffer::new()
    }

    /// Processes every complete line.
    fn readable(
        &mut self,
        conns: &mut Conns<'_, LineBuffer>,
        _shards: &mut Shards<'s>,
        t: Token,
        _eof: bool,
    ) -> Result<()> {
        // Looked up again each iteration: answering a line may fail the
        // connection mid-loop (hard write error).
        while let Some(buf) = conns.state_mut(t) {
            match buf.pop_line() {
                Ok(Some(line)) => self.handle_line(conns, t, &line)?,
                Ok(None) => break,
                Err(_) => {
                    // Oversized line: framing is lost.
                    conns.close(t);
                    break;
                }
            }
        }
        Ok(())
    }

    /// Runs the pipeline with a sink that answers each terminal outcome
    /// with one reply line on the connection that submitted the request
    /// (if its route is still known), settling what that connection is
    /// owed.
    fn step(&mut self, conns: &mut Conns<'_, LineBuffer>, shards: &mut Shards<'s>) -> Result<bool> {
        let (route, draining) = (&mut self.route, conns.draining);
        let mut sink = |req: Request, outcome: Outcome| {
            if let Some((t, tag)) = route.remove(&req.id) {
                let line = match outcome {
                    Outcome::Completed { correct, .. } => {
                        codec::encode_result(&tag, correct, req.expected_checksum.to_bits())
                    }
                    // The pipeline's only other terminal outcome is a shed.
                    _ => codec::encode_error(&tag, ErrorKind::Deadline),
                };
                conns.settle(t);
                conns.send(t, &line);
            }
        };
        let delivered = self.pipeline.deliver(shards, &mut sink)?;
        let now = self.clock.now();
        let pumped = self.pipeline.pump(now, draining, shards, &mut sink)?;
        Ok(delivered || pumped)
    }

    fn idle(&self, shards: &Shards<'s>) -> bool {
        self.pipeline.idle(shards)
    }
}

/// Best-effort tag extraction from an unparsable line, so the `E` reply
/// still correlates ("-" when even the tag is unusable). Shared with the
/// fabric front end, which speaks the same line protocol to clients.
pub(crate) fn fallback_tag(line: &[u8]) -> String {
    std::str::from_utf8(line)
        .ok()
        .and_then(|s| s.split(' ').nth(1))
        .filter(|t| {
            !t.is_empty()
                && t.len() <= 64
                && t.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
        })
        .unwrap_or("-")
        .to_string()
}

// ---------------------------------------------------------------------------
// Runtime::serve — the real network front ends
// ---------------------------------------------------------------------------

/// Handle to a running network server: its bound address, a shutdown
/// trigger, and the reactor thread's final metrics.
#[derive(Debug)]
pub struct ServeHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) shutdown: Waker,
    pub(crate) join: std::thread::JoinHandle<Result<MetricsSnapshot>>,
}

impl ServeHandle {
    /// The address the listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals drain, waits for in-flight work to finish, and returns the
    /// run's metrics (with the reactor's stats attached).
    ///
    /// # Errors
    ///
    /// Propagates reactor-loop and shard-execution failures.
    pub fn shutdown(self) -> Result<MetricsSnapshot> {
        self.shutdown.wake();
        self.join.join().map_err(|_| ServeError::Io {
            detail: "reactor thread panicked".to_string(),
        })?
    }
}

impl Runtime {
    /// Serves the line protocol on `listener` from a dedicated reactor
    /// thread: an [`crate::EpollPoller`] owns the listener and every
    /// accepted connection, and [`Shards::threaded`] runs one worker per
    /// shard. `speedup` compresses simulated service seconds into real
    /// time (`1.0` = real time; see [`RealClock::accelerated`]).
    ///
    /// # Errors
    ///
    /// Poller construction, listener registration, or clock validation.
    pub fn serve(self: &Arc<Self>, listener: TcpListener, speedup: f64) -> Result<ServeHandle> {
        let run = |rt: &Runtime, r: &mut Reactor| {
            let mut shards = Shards::threaded(rt, &r.clock, r.completion.clone())?;
            let (clock, metrics) = (Arc::clone(&r.clock), Arc::clone(&r.metrics));
            ServerLoop::new(rt, clock, metrics)?.run(&mut r.poller, &mut shards)
        };
        conn::spawn_reactor(self, "pimdl-serve-reactor", listener, speedup, run)
    }

    /// Serves HTTP/1.1 on `listener` from a dedicated reactor thread:
    /// the same wiring as [`Runtime::serve`], but speaking HTTP through an
    /// [`HttpServerLoop`] over `registry`'s models with `http`'s tenant
    /// quotas.
    ///
    /// # Errors
    ///
    /// Poller construction, listener registration, configuration
    /// validation, or clock validation.
    pub fn serve_http(
        self: &Arc<Self>,
        listener: TcpListener,
        speedup: f64,
        http: HttpConfig,
        registry: ModelRegistry,
    ) -> Result<ServeHandle> {
        let run = move |rt: &Runtime, r: &mut Reactor| {
            let mut shards = Shards::threaded(rt, &r.clock, r.completion.clone())?;
            let (clock, metrics) = (Arc::clone(&r.clock), Arc::clone(&r.metrics));
            HttpServerLoop::new(rt, http, registry, clock, metrics)?.run(&mut r.poller, &mut shards)
        };
        conn::spawn_reactor(self, "pimdl-serve-http", listener, speedup, run)
    }
}

// ---------------------------------------------------------------------------
// HttpServerLoop — the HTTP/1.1 front end over the model registry
// ---------------------------------------------------------------------------

/// Configuration of the HTTP front end: parser limits and the tenant
/// quota table the weighted-fair batcher enforces.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Request parser limits (header/body byte caps → 431/413).
    pub limits: HttpLimits,
    /// Configured tenants and their quotas.
    pub tenants: Vec<(String, TenantQuota)>,
    /// Quota lazily granted to tenants not in `tenants`; `None` refuses
    /// them with 403.
    pub default_quota: Option<TenantQuota>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            limits: HttpLimits::default(),
            tenants: Vec::new(),
            default_quota: Some(TenantQuota::default()),
        }
    }
}

const TEXT_PLAIN: &str = "text/plain; charset=utf-8";

/// Per-connection HTTP state.
///
/// Pipelined requests are answered strictly in arrival order: each parsed
/// request takes a sequence number, finished responses park in `ready`
/// until every earlier response has been emitted, and `next_flush` walks
/// the sequence forward.
#[derive(Debug)]
pub(crate) struct HttpConn {
    parser: HttpParser,
    /// Out-of-order finished responses: seq → (bytes, close-after).
    ready: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Sequence number the next parsed request takes.
    next_seq: u64,
    /// Sequence number the next emitted response must carry.
    next_flush: u64,
    /// A `Connection: close` (or fatal-error) response has been emitted:
    /// stop parsing, close once the output drains.
    closing: bool,
}

impl ConnState for HttpConn {
    fn feed(&mut self, bytes: &[u8]) {
        self.parser.push(bytes);
    }

    /// A close-marked response has fully flushed, or the peer is gone and
    /// nothing is owed or parked.
    fn done(&self, drained: bool) -> bool {
        self.closing || (drained && self.ready.is_empty())
    }
}

/// Where an admitted infer request's response goes, and who to charge.
#[derive(Debug)]
struct HttpRouteEntry {
    conn: Token,
    seq: u64,
    tenant: String,
    keep_alive: bool,
}

/// The HTTP front end: incremental parsing, routing, per-tenant
/// admission, weighted-fair batching across the model registry, and
/// in-order pipelined responses — run by the shared connection core, so
/// the identical state machine runs under the real poller and the
/// deterministic simulated one.
#[derive(Debug)]
pub struct HttpServerLoop {
    cfg: ServeConfig,
    http: HttpConfig,
    registry: ModelRegistry,
    clock: Arc<dyn Clock>,
    metrics: Arc<Metrics>,
    batcher: FairBatcher,
    /// request id → response routing of admitted infer requests.
    route: HashMap<u64, HttpRouteEntry>,
    next_id: u64,
}

impl HttpServerLoop {
    /// A loop serving `registry`'s models through `rt`'s pipeline
    /// configuration, measuring time on `clock` and recording into
    /// `metrics`.
    ///
    /// # Errors
    ///
    /// An empty registry, or configuration validation of the fair batcher.
    pub fn new(
        rt: &Runtime,
        http: HttpConfig,
        registry: ModelRegistry,
        clock: Arc<dyn Clock>,
        metrics: Arc<Metrics>,
    ) -> Result<Self> {
        if registry.is_empty() {
            return Err(ServeError::Config {
                detail: "HTTP front end needs at least one registered model".to_string(),
            });
        }
        let cfg = *rt.config();
        let batcher = FairBatcher::new(
            cfg.policy,
            cfg.queue_capacity,
            &http.tenants,
            http.default_quota,
        )?;
        Ok(HttpServerLoop {
            cfg,
            http,
            registry,
            clock,
            metrics,
            batcher,
            route: HashMap::new(),
            next_id: 0,
        })
    }

    /// Runs on `shards` until shutdown (a
    /// [`crate::reactor::WAKE_SHUTDOWN`] token followed by a full drain)
    /// or — for the simulated transport — until the script is exhausted
    /// and no work remains.
    ///
    /// # Errors
    ///
    /// Poller failures, dispatch failures and execution errors.
    /// Per-connection I/O errors only drop that connection.
    pub fn run(&mut self, source: &mut dyn EventSource, shards: &mut Shards<'_>) -> Result<()> {
        conn::drive(source, self, shards)
    }

    /// Routes and answers one parsed request.
    fn handle_request(
        &mut self,
        conns: &mut Conns<'_, HttpConn>,
        t: Token,
        req: &HttpRequest,
    ) -> Result<()> {
        let keep = req.keep_alive();
        let seq = {
            let Some(state) = conns.state_mut(t) else {
                return Ok(());
            };
            let seq = state.next_seq;
            state.next_seq += 1;
            seq
        };
        match http::route(&req.method, &req.target) {
            Route::Healthz => self.respond_text(conns, t, seq, keep, 200, b"ok\n"),
            Route::Metrics => {
                // Live snapshot, streamed chunked: the body length isn't
                // known before rendering, and chunked framing exercises the
                // streaming half of the response writer.
                let snap = self
                    .metrics
                    .snapshot_with_reactor(conns.source.stats().snapshot());
                let text = snap.render_prometheus();
                let mut bytes = http::encode_chunked_head(200, "text/plain; version=0.0.4", keep);
                bytes.extend_from_slice(&http::encode_chunk(text.as_bytes()));
                bytes.extend_from_slice(http::CHUNKED_END);
                self.enqueue_response(conns, t, seq, bytes, !keep);
            }
            Route::MethodNotAllowed => {
                self.respond_text(conns, t, seq, keep, 405, b"method not allowed\n");
            }
            Route::NotFound => self.respond_text(conns, t, seq, keep, 404, b"not found\n"),
            Route::Infer { model } => self.handle_infer(conns, t, seq, keep, req, &model)?,
        }
        Ok(())
    }

    /// Admits (or refuses) one infer request.
    fn handle_infer(
        &mut self,
        conns: &mut Conns<'_, HttpConn>,
        t: Token,
        seq: u64,
        keep: bool,
        req: &HttpRequest,
        model: &str,
    ) -> Result<()> {
        let refuse = |this: &mut Self, conns: &mut Conns<'_, HttpConn>, status: u16, msg: &str| {
            this.respond_text(conns, t, seq, keep, status, format!("{msg}\n").as_bytes());
        };
        let Some(replica) = self.registry.get(model).map(Arc::clone) else {
            refuse(self, conns, 404, &format!("unknown model {model:?}"));
            return Ok(());
        };
        if conns.draining {
            refuse(self, conns, 503, "draining");
            return Ok(());
        }
        let indices = match http::parse_infer_body(&req.body) {
            Ok(indices) => indices,
            Err(detail) => {
                refuse(self, conns, 400, &detail);
                return Ok(());
            }
        };
        if let Err(e) = replica.validate_indices(&indices) {
            refuse(self, conns, 400, &format!("invalid infer payload: {e}"));
            return Ok(());
        }
        let tenant = req.header("x-tenant").unwrap_or("anonymous").to_string();
        let now = self.clock.now();
        let id = self.next_id;
        self.next_id += 1;
        self.metrics.record_submitted();
        // Refuse before paying: the reference gather is the request's most
        // expensive step and runs only for a job the batcher will take.
        let refusal = match self.batcher.refusal_for(&tenant) {
            Some(refusal) => Some(refusal),
            None => {
                let request =
                    replica.request_from_valid(id, now, now + self.cfg.deadline_s, indices)?;
                let job = TaggedJob {
                    request,
                    tenant: tenant.clone(),
                    model: model.to_string(),
                };
                self.batcher.admit(job).err().map(|(_, refusal)| refusal)
            }
        };
        match refusal {
            None => {
                self.metrics
                    .observe_queue_depth(self.batcher.queued_total());
                self.route.insert(
                    id,
                    HttpRouteEntry {
                        conn: t,
                        seq,
                        tenant,
                        keep_alive: keep,
                    },
                );
                conns.owe(t);
            }
            Some(refusal) => {
                self.metrics.record_rejected();
                let (status, msg) = match refusal {
                    AdmitRefusal::UnknownTenant => (403, format!("unknown tenant {tenant:?}")),
                    AdmitRefusal::QuotaExceeded => {
                        (429, format!("tenant {tenant:?} quota exceeded"))
                    }
                    AdmitRefusal::QueueFull => (503, "queue full".to_string()),
                };
                refuse(self, conns, status, &msg);
            }
        }
        Ok(())
    }

    /// Answers an admitted infer request whose route entry was just taken,
    /// settling what its connection is owed.
    fn answer(
        &mut self,
        conns: &mut Conns<'_, HttpConn>,
        entry: &HttpRouteEntry,
        status: u16,
        content_type: &str,
        body: &[u8],
    ) {
        conns.settle(entry.conn);
        let bytes = http::encode_response(status, content_type, body, entry.keep_alive);
        self.enqueue_response(conns, entry.conn, entry.seq, bytes, !entry.keep_alive);
    }

    /// Answers `seq` with a plain-text body; `keep == false` also marks the
    /// connection for close after it.
    fn respond_text(
        &mut self,
        conns: &mut Conns<'_, HttpConn>,
        t: Token,
        seq: u64,
        keep: bool,
        status: u16,
        body: &[u8],
    ) {
        let bytes = http::encode_response(status, TEXT_PLAIN, body, keep);
        self.enqueue_response(conns, t, seq, bytes, !keep);
    }

    /// Parks `bytes` as the response for `seq` and emits every response
    /// the in-order cursor has reached. `close_after` marks the connection
    /// for close once this response (and everything before it) flushes.
    fn enqueue_response(
        &mut self,
        conns: &mut Conns<'_, HttpConn>,
        t: Token,
        seq: u64,
        bytes: Vec<u8>,
        close_after: bool,
    ) {
        if let Some(c) = conns.get_mut(t).filter(|c| !c.state.closing) {
            c.state.ready.insert(seq, (bytes, close_after));
            while let Some((b, close)) = c.state.ready.remove(&c.state.next_flush) {
                c.queue(&b);
                c.state.next_flush += 1;
                if close {
                    // The client asked to close (or the stream is
                    // unframed): later pipelined responses are moot.
                    c.state.closing = true;
                    c.state.ready.clear();
                    break;
                }
            }
        }
        conns.flush(t);
    }
}

impl<'s> Front<Shards<'s>> for HttpServerLoop {
    type Conn = HttpConn;

    /// The earliest timed obligation: the flush window or a queued
    /// request's deadline.
    fn next_timeout(&self, shards: &Shards<'s>) -> Option<f64> {
        let mut wake = WakeAt::never();
        wake.at(flush_window(shards, self.batcher.flush_deadline_s()));
        wake.after(self.batcher.min_deadline_s());
        wake.timeout(self.clock.now())
    }

    fn accept(&self) -> HttpConn {
        HttpConn {
            parser: HttpParser::new(self.http.limits),
            ready: BTreeMap::new(),
            next_seq: 0,
            next_flush: 0,
            closing: false,
        }
    }

    /// Processes every complete request.
    fn readable(
        &mut self,
        conns: &mut Conns<'_, HttpConn>,
        _shards: &mut Shards<'s>,
        t: Token,
        _eof: bool,
    ) -> Result<()> {
        // Re-fetched each iteration: handling a request needs &mut self
        // and may drop the connection (hard write error).
        while let Some(state) = conns.state_mut(t) {
            if state.closing {
                break; // a close-marked response is already on the wire
            }
            match state.parser.next_request() {
                Ok(Some(req)) => self.handle_request(conns, t, &req)?,
                Ok(None) => break,
                Err(e) => {
                    // Fatal framing error: one error response, connection
                    // marked for close after it flushes — never a silent
                    // drop, never a parse-fail respin on the same bytes
                    // (the parser is poisoned).
                    let seq = state.next_seq;
                    state.next_seq += 1;
                    let body = format!("{}\n", e.detail);
                    self.respond_text(conns, t, seq, false, e.status, body.as_bytes());
                    break;
                }
            }
        }
        Ok(())
    }

    /// Delivers every finished batch (completion latency, the tenant's
    /// quota slot, the JSON result in pipeline order), then shed →
    /// dispatch while a shard can absorb work.
    fn step(&mut self, conns: &mut Conns<'_, HttpConn>, shards: &mut Shards<'s>) -> Result<bool> {
        let mut progress = false;
        for done in shards.drain()? {
            progress = true;
            for (req, correct) in done.results {
                self.metrics.record_completed(done.finish_s - req.arrival_s);
                if let Some(entry) = self.route.remove(&req.id) {
                    // Quota releases even when the connection is gone —
                    // otherwise a dropped client would leak its slots.
                    self.batcher.release(&entry.tenant);
                    let body = http::infer_result_body(correct, req.expected_checksum.to_bits());
                    self.answer(conns, &entry, 200, "application/json", &body);
                }
            }
        }
        let now = self.clock.now();
        loop {
            for job in self.batcher.shed_expired(now) {
                progress = true;
                self.metrics.record_deadline_exceeded();
                if let Some(entry) = self.route.remove(&job.request.id) {
                    self.answer(conns, &entry, 504, TEXT_PLAIN, b"deadline exceeded\n");
                }
            }
            self.metrics
                .observe_queue_depth(self.batcher.queued_total());
            let flush = self.batcher.ready(now) || (conns.draining && !self.batcher.is_empty());
            let (registry, batcher) = (&self.registry, &mut self.batcher);
            let take = || {
                let Some((name, jobs)) = batcher.take_batch() else {
                    return Ok(None);
                };
                // Admission verified the model; a miss here is a registry
                // invariant violation, not a client error.
                let model = registry.get(&name).ok_or_else(|| ServeError::Config {
                    detail: format!("batch for unregistered model {name:?}"),
                })?;
                let batch = jobs.into_iter().map(|j| j.request).collect();
                Ok(Some((Arc::clone(model), batch)))
            };
            if flush && shards.dispatch_next(&self.metrics, now, take)? {
                progress = true;
                continue; // another batch may fit another shard
            }
            return Ok(progress);
        }
    }

    fn idle(&self, shards: &Shards<'s>) -> bool {
        self.batcher.is_empty() && shards.in_flight() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::reactor::SimPoller;
    use pimdl_engine::shapes::TransformerShape;
    use pimdl_sim::PlatformConfig;
    use pimdl_tensor::rng::DataRng;

    /// What the sink saw: request id and its terminal outcome, in order.
    type Seen = Vec<(u64, Outcome)>;

    /// A runtime with batches of up to 4, a flush window of a quarter of
    /// the single-request service time `s1` (returned, the tests' unit of
    /// time) and unbounded default deadlines.
    fn runtime(num_shards: usize, queue_capacity: usize) -> (Runtime, f64) {
        let build = |cfg| {
            let mut platform = PlatformConfig::upmem();
            platform.num_pes = 64;
            Runtime::new(platform, TransformerShape::tiny(), cfg).unwrap()
        };
        let mut cfg = ServeConfig::example();
        cfg.num_shards = num_shards;
        cfg.queue_capacity = queue_capacity;
        let s1 = build(cfg).service_model().batch_service_s(1).unwrap();
        cfg.policy.max_wait_s = s1 / 4.0;
        (build(cfg), s1)
    }

    /// The pipeline with no socket, thread or event loop around it:
    /// simulated [`Shards`] whose completion wakes nobody waits for, on a
    /// clock the test advances by hand.
    struct Rig<'a> {
        rt: &'a Runtime,
        clock: Arc<VirtualClock>,
        metrics: Arc<Metrics>,
        pipeline: LinePipeline,
        shards: Shards<'a>,
        rng: DataRng,
        seen: Seen,
    }

    impl<'a> Rig<'a> {
        fn new(rt: &'a Runtime) -> Self {
            let clock = Arc::new(VirtualClock::new());
            let metrics = Arc::new(Metrics::new(rt.config().policy.max_batch));
            Rig {
                rt,
                pipeline: LinePipeline::new(rt, Arc::clone(&metrics)).unwrap(),
                shards: Shards::simulated(
                    rt,
                    Arc::clone(&clock),
                    SimPoller::new(Arc::clone(&clock)).handle(),
                )
                .unwrap(),
                clock,
                metrics,
                rng: DataRng::new(5),
                seen: Vec::new(),
            }
        }

        /// Admits request `id`, arriving now, with the given deadline.
        fn admit(&mut self, id: u64, deadline_s: f64) -> std::result::Result<(), Request> {
            let now = self.clock.now();
            let req = self
                .rt
                .replica()
                .make_request(id, now, deadline_s, &mut self.rng);
            self.pipeline.admit(req.unwrap())
        }

        /// Advances the clock to `t`, then delivers and pumps there.
        fn step_at(&mut self, t: f64, draining: bool) -> bool {
            self.clock.advance_to(t);
            let seen = &mut self.seen;
            let mut sink = |req: Request, outcome: Outcome| seen.push((req.id, outcome));
            let delivered = self.pipeline.deliver(&mut self.shards, &mut sink).unwrap();
            let pumped = self
                .pipeline
                .pump(t, draining, &mut self.shards, &mut sink)
                .unwrap();
            delivered || pumped
        }

        /// `(id, shard, batch_size)` of every completion seen, in order.
        fn completions(&self) -> Vec<(u64, usize, usize)> {
            let completed = |(id, outcome): &(u64, Outcome)| match *outcome {
                Outcome::Completed {
                    shard, batch_size, ..
                } => Some((*id, shard, batch_size)),
                _ => None,
            };
            self.seen.iter().filter_map(completed).collect()
        }
    }

    #[test]
    fn expired_request_is_shed_before_the_refill_and_never_dispatched() {
        let (rt, s1) = runtime(1, 8);
        let mut rig = Rig::new(&rt);
        rig.admit(0, s1).unwrap();
        rig.admit(1, f64::INFINITY).unwrap();
        // Past request 0's deadline and past the flush window: it is shed
        // out of the queue, and only request 1 reaches the batch that leaves.
        assert!(rig.step_at(2.0 * s1, false));
        assert_eq!(
            rig.seen,
            [(0, Outcome::DeadlineExceeded { at_s: 2.0 * s1 })]
        );
        assert_eq!(rig.shards.in_flight(), 1);
        rig.step_at(4.0 * s1, false);
        assert_eq!(rig.completions(), [(1, 0, 1)]);
        assert_eq!(rig.seen.len(), 2, "each request reached the sink once");

        // A request already in the pending batch is shed there, at the
        // strict `now > deadline`, and the emptied batch goes nowhere.
        rig.admit(2, 4.125 * s1).unwrap();
        assert!(
            !rig.step_at(4.125 * s1, false),
            "not expired at its deadline"
        );
        assert!(rig.step_at(4.2 * s1, false));
        assert_eq!(
            rig.seen[2],
            (2, Outcome::DeadlineExceeded { at_s: 4.2 * s1 })
        );
        assert!(rig.pipeline.idle(&rig.shards));
        let snap = rig.metrics.snapshot();
        assert_eq!((snap.deadline_exceeded, snap.batches), (2, 1));
    }

    #[test]
    fn partial_batch_waits_for_its_window_unless_draining() {
        let (rt, s1) = runtime(2, 16);
        let window = rt.config().policy.max_wait_s;
        let mut rig = Rig::new(&rt);
        rig.admit(0, f64::INFINITY).unwrap();
        assert!(!rig.step_at(0.9 * window, false), "held inside the window");
        assert_eq!(rig.shards.in_flight(), 0);
        assert!(rig.step_at(window, false), "leaves when the window closes");
        assert_eq!(rig.shards.in_flight(), 1);

        // Draining: a lone request leaves at once.
        rig.step_at(2.0 * s1, false);
        rig.admit(1, f64::INFINITY).unwrap();
        assert!(rig.step_at(2.0 * s1, true));
        assert_eq!(rig.shards.in_flight(), 1);

        // Draining with a backlog: the queue empties into full batches
        // first; only what is left over goes as a partial one.
        rig.step_at(4.0 * s1, false);
        for id in 2..8 {
            rig.admit(id, f64::INFINITY).unwrap();
        }
        assert!(rig.step_at(4.0 * s1, true));
        rig.step_at(9.0 * s1, false);
        let sizes: Vec<usize> = rig.completions()[2..].iter().map(|c| c.2).collect();
        assert_eq!(sizes, [2, 2, 4, 4, 4, 4], "the pair finishes first");
    }

    #[test]
    fn busy_shards_take_nothing_and_drop_the_flush_window_from_the_timeout() {
        let (rt, s1) = runtime(1, 8);
        let window = rt.config().policy.max_wait_s;
        let mut rig = Rig::new(&rt);
        for id in 0..4 {
            rig.admit(id, f64::INFINITY).unwrap();
        }
        assert!(rig.step_at(0.0, false), "a full batch leaves at once");
        rig.admit(4, 10.0 * s1).unwrap();

        // The window has closed and the batch is ready, but the one shard
        // is busy: nothing leaves, and the next wake is the deadline (a
        // hair past it), not the window.
        let now = 2.0 * window;
        assert!(now < rt.service_model().batch_service_s(4).unwrap());
        assert!(!rig.step_at(now, false));
        assert_eq!(rig.shards.in_flight(), 1);
        let timeout = rig.pipeline.next_timeout(now, &rig.shards).unwrap();
        assert!(timeout > 10.0 * s1 - now && timeout < 10.0 * s1);

        // Once the shard is free the closed window is due immediately.
        rig.clock.advance_to(9.0 * s1);
        rig.pipeline
            .deliver(&mut rig.shards, &mut |_, _| ())
            .unwrap();
        assert_eq!(rig.pipeline.next_timeout(9.0 * s1, &rig.shards), Some(0.0));
    }

    #[test]
    fn one_pump_fills_every_free_shard_and_deliver_reports_the_batch_ridden() {
        let (rt, s1) = runtime(2, 16);
        let mut rig = Rig::new(&rt);
        for id in 0..8 {
            rig.admit(id, f64::INFINITY).unwrap();
        }
        assert!(rig.step_at(0.0, false));
        assert_eq!(
            rig.shards.in_flight(),
            2,
            "two ready batches, two free shards"
        );
        assert_eq!(rig.shards.manager().dispatch_counts(), [1, 1]);

        // A ninth request rides alone once a shard is free again. Delivery
        // is in (finish_s, shard) order, each request tagged with the
        // shard and size of the batch it rode in.
        rig.admit(8, f64::INFINITY).unwrap();
        rig.step_at(20.0 * s1, false);
        rig.step_at(40.0 * s1, false);
        let expected: Vec<(u64, usize, usize)> = (0..4)
            .map(|id| (id, 0, 4))
            .chain((4..8).map(|id| (id, 1, 4)))
            .chain([(8, 0, 1)])
            .collect();
        assert_eq!(rig.completions(), expected);
        assert!(rig.pipeline.idle(&rig.shards));
    }

    #[test]
    fn full_queue_hands_the_request_back_and_counts_one_rejection() {
        let (rt, _) = runtime(1, 2);
        let mut rig = Rig::new(&rt);
        rig.admit(0, f64::INFINITY).unwrap();
        assert!(rig.pipeline.has_room());
        rig.admit(1, f64::INFINITY).unwrap();
        assert!(!rig.pipeline.has_room());
        let back = rig.admit(2, f64::INFINITY).unwrap_err();
        assert_eq!(back.id, 2);
        let snap = rig.metrics.snapshot();
        assert_eq!((snap.rejected, snap.queue_depth_peak), (1, 2));
        assert!(rig.seen.is_empty(), "a rejection is the caller's to report");
    }
}
