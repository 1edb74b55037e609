//! The batching front ends over the shared connection core: the line
//! protocol ([`ServerLoop`]) and HTTP/1.1 ([`HttpServerLoop`]).
//!
//! Each is a codec over one `Pipeline`: the one admission-and-batching
//! policy, a [`FairBatcher`] over a [`ModelRegistry`], feeding [`Shards`]
//! (also what [`Runtime::run_virtual`] runs). HTTP names its tenants and
//! models; the line front has one implicit tenant and one model, so its
//! queue capacity is its only refusal. A front differs only in the sink
//! its outcomes go to. The line protocol itself (`LineProtocol`: a query
//! line in, a reply line out) is written once here for both line fronts,
//! this one and [`crate::FabricServerLoop`], whose pipeline keeps its
//! tables and sheds, requeues and completes through the same code. The
//! event loop, the transport path and the reactor-thread spawner are
//! `conn.rs`'s, written once against [`EventSource`], so the identical
//! byte-for-byte pipeline runs under:
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

use crate::clock::Clock;
use crate::codec::{self, ErrorKind, LineBuffer};
use crate::conn::{self, ConnState, Conns, Front, Reactor, WakeAt};
use crate::error::ServeError;
use crate::http::{self, HttpLimits, HttpParser, HttpRequest, Route};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::reactor::{EventSource, Token, Waker};
use crate::registry::{AdmitRefusal, FairBatcher, ModelRegistry, TaggedJob};
use crate::request::{Outcome, Request};
use crate::runtime::Runtime;
use crate::shard::{Done, ReplicaModel, Shards};
use crate::Result;
use pimdl_engine::scheduler::TenantQuota;

// ---------------------------------------------------------------------------
// Pipeline — admission → batching → dispatch → delivery, once
// ---------------------------------------------------------------------------

/// The serving policy of every front: the line front, the HTTP front and
/// [`Runtime::run_virtual`]'s ledger on in-process [`Shards`], and the
/// fabric on its worker processes. A [`FairBatcher`] over `models` feeds
/// the shards, and each admitted request's outcome is bound for an `R` (a
/// connection and tag, an HTTP response slot, nothing). The fronts differ
/// in where arrivals and time come from and in what an outcome turns into
/// (the `sink`); the order of delivering, shedding, flushing and
/// dispatching, and which metric each transition records, are decided
/// here. The fabric, whose tables leave only for their resident shards,
/// runs its own dispatch over the bookkeeping halves of [`Pipeline::pump`]
/// and [`Pipeline::deliver`] ([`Pipeline::shed`], [`Pipeline::complete`])
/// and puts a dead shard's batches back ([`Pipeline::requeue_front`]).
#[derive(Debug)]
pub(crate) struct Pipeline<R> {
    models: ModelRegistry,
    metrics: Arc<Metrics>,
    batcher: FairBatcher,
    /// request id → (tenant, destination) of every admitted request not
    /// yet answered.
    routes: HashMap<u64, (String, R)>,
    /// Jobs put back past the capacity check ([`Pipeline::requeue_front`]):
    /// the queue is within its capacity plus these.
    requeued: usize,
}

impl<R> Pipeline<R> {
    /// A pipeline batching under `batcher` for `models`, recording into
    /// `metrics`.
    pub(crate) fn new(models: ModelRegistry, batcher: FairBatcher, metrics: Arc<Metrics>) -> Self {
        Pipeline {
            models,
            metrics,
            batcher,
            routes: HashMap::new(),
            requeued: 0,
        }
    }

    /// `rt`'s replica behind one implicit tenant, under `rt`'s policy and
    /// queue capacity: the line front's and the ledger's pipeline.
    ///
    /// # Errors
    ///
    /// Configuration validation of the batcher.
    pub(crate) fn line(rt: &Runtime, metrics: Arc<Metrics>) -> Result<Self> {
        let cfg = rt.config();
        let batcher = FairBatcher::one_tenant(cfg.policy, cfg.queue_capacity)?;
        Ok(Self::new(
            ModelRegistry::one(rt.replica_arc()),
            batcher,
            metrics,
        ))
    }

    /// The model registered under `name`.
    pub(crate) fn model(&self, name: &str) -> Option<&Arc<ReplicaModel>> {
        self.models.get(name)
    }

    /// The batching policy, for a front that routes by key (the fabric).
    pub(crate) fn batcher(&self) -> &FairBatcher {
        &self.batcher
    }

    /// [`Pipeline::batcher`], to take a key's batch or put one back.
    pub(crate) fn batcher_mut(&mut self) -> &mut FairBatcher {
        &mut self.batcher
    }

    /// Queues the request `build` makes for `tenant` and `model` (the line
    /// front's implicit ones are the empty name, which allocates nothing),
    /// its outcome bound for `to`. When a job of `tenant` would be refused
    /// now, nothing is built, the rejection is counted, and `to` comes back
    /// with the reason. Admission gathers nothing on any front: a request's
    /// reference checksum, its most expensive step, is computed when its
    /// batch is first dispatched (see `shard::gather_references`), so a
    /// refused request, or one shed before it leaves, never pays for one.
    pub(crate) fn admit(
        &mut self,
        (tenant, model): (&str, &str),
        to: R,
        build: impl FnOnce() -> Request,
    ) -> Option<(R, AdmitRefusal)> {
        let refusal = match self.batcher.refusal_for(tenant) {
            Some(why) => why,
            None => {
                let request = build();
                let id = request.id;
                let (tenant, model) = (tenant.to_string(), model.to_string());
                let job = TaggedJob {
                    request,
                    tenant: tenant.clone(),
                    model,
                };
                match self.batcher.admit(job) {
                    Ok(()) => {
                        self.observe_depth();
                        self.routes.insert(id, (tenant, to));
                        return None;
                    }
                    Err((_, why)) => why,
                }
            }
        };
        self.metrics.record_rejected();
        Some((to, refusal))
    }

    /// Puts `job`, taken in a batch that never ran (the fabric's dead
    /// shard), back at the front of its key's queue. It was admitted once,
    /// so no capacity check applies; it is counted among the requeued jobs
    /// the queue may hold past its capacity.
    pub(crate) fn requeue_front(&mut self, job: TaggedJob) {
        self.batcher.requeue_front(job);
        self.requeued += 1;
        self.observe_depth();
    }

    /// The queue depth, asserted in a debug build to be within its
    /// capacity plus the requeued jobs.
    fn depth(&self) -> usize {
        let (queued, capacity) = (self.batcher.queued_total(), self.batcher.capacity());
        debug_assert!(
            queued <= capacity + self.requeued,
            "{queued} queued past capacity {capacity} plus {} requeued",
            self.requeued
        );
        queued
    }

    /// Observes the queue depth (see [`Pipeline::depth`]) into the metrics'
    /// peak: after each admission, each shed and each requeue.
    fn observe_depth(&self) {
        self.metrics.observe_queue_depth(self.depth());
    }

    /// Relative timeout of the driver's next wait: the flush window or a
    /// hair past the earliest deadline queued. The window counts only while
    /// a shard could absorb the batch — with every shard busy the
    /// completion wake is the real signal, and a timed wait would spin on a
    /// ready batch.
    pub(crate) fn next_timeout(&self, now: f64, shards: &Shards<'_>) -> Option<f64> {
        let mut wake = WakeAt::never();
        wake.at(self
            .batcher
            .flush_deadline_s()
            .filter(|_| shards.any_free()));
        wake.after(self.batcher.min_deadline_s());
        wake.timeout(now)
    }

    /// Completes every batch the shards have finished, in `(finish_s,
    /// shard)` order (see [`Pipeline::complete`]). Returns whether a batch
    /// had finished.
    ///
    /// # Errors
    ///
    /// An execution error of a finished batch.
    pub(crate) fn deliver(
        &mut self,
        shards: &mut Shards<'_>,
        sink: &mut impl FnMut(Request, R, Outcome),
    ) -> Result<bool> {
        let mut progress = false;
        for done in shards.drain()? {
            progress = true;
            self.complete(done, sink);
        }
        Ok(progress)
    }

    /// Hands every request of the finished batch `done` to `sink` as
    /// `Completed`, releasing its tenant's slot: the bookkeeping half of
    /// [`Pipeline::deliver`], which the fabric calls on an `ExecDone`.
    pub(crate) fn complete(&mut self, done: Done, sink: &mut impl FnMut(Request, R, Outcome)) {
        let batch_size = done.results.len();
        for (req, correct) in done.results {
            let latency_s = done.finish_s - req.arrival_s;
            self.metrics.record_completed(latency_s);
            if let Some((tenant, to)) = self.routes.remove(&req.id) {
                self.batcher.release(&tenant);
                let outcome = Outcome::Completed {
                    latency_s,
                    shard: done.shard,
                    batch_size,
                    correct,
                };
                sink(req, to, outcome);
            }
        }
    }

    /// Hands every queued request whose deadline has passed at `now` to
    /// `sink` as `DeadlineExceeded`, then observes the queue depth: the
    /// bookkeeping half of [`Pipeline::pump`], which the fabric calls before
    /// its own dispatch. Returns whether any was shed.
    pub(crate) fn shed(&mut self, now: f64, sink: &mut impl FnMut(Request, R, Outcome)) -> bool {
        let mut progress = false;
        for job in self.batcher.shed_expired(now) {
            progress = true;
            self.metrics.record_deadline_exceeded();
            if let Some((_, to)) = self.routes.remove(&job.request.id) {
                sink(job.request, to, Outcome::DeadlineExceeded { at_s: now });
            }
        }
        self.observe_depth();
        progress
    }

    /// Hands every request queued for `model` to `sink` as `Rejected` at
    /// `now`, each booked as refused so the ledger still closes: what the
    /// fabric does once no shard can ever serve a table again. Returns
    /// whether any was queued.
    pub(crate) fn drain_key(
        &mut self,
        model: &str,
        now: f64,
        sink: &mut impl FnMut(Request, R, Outcome),
    ) -> bool {
        let mut progress = false;
        for job in self.batcher.drain_key(model) {
            progress = true;
            self.metrics.record_rejected();
            if let Some((_, to)) = self.routes.remove(&job.request.id) {
                sink(job.request, to, Outcome::Rejected { at_s: now });
            }
        }
        progress
    }

    /// Shed → flush → dispatch, repeated while a shard absorbs a batch.
    /// Expired requests reach `sink` as `DeadlineExceeded` before any
    /// batch forms, so none is ever dispatched; `draining` flushes a
    /// partial batch without waiting out its window (full batches leave
    /// first, so a batch is partial only once nothing is queued behind
    /// it). Returns whether anything moved.
    ///
    /// # Errors
    ///
    /// Dispatch failures, and a batch for a model the registry lacks.
    pub(crate) fn pump(
        &mut self,
        now: f64,
        draining: bool,
        shards: &mut Shards<'_>,
        sink: &mut impl FnMut(Request, R, Outcome),
    ) -> Result<bool> {
        let mut progress = false;
        loop {
            progress |= self.shed(now, sink);
            let flush = self.batcher.ready(now) || (draining && !self.batcher.is_empty());
            let (models, batcher) = (&self.models, &mut self.batcher);
            let take = || {
                let Some((name, jobs)) = batcher.take_batch() else {
                    return Ok(None);
                };
                // Admission verified the model; a miss here is a registry
                // invariant violation, not a client error.
                let model = models.get(&name).ok_or_else(|| ServeError::Config {
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

    /// Asserts, in a debug build, what holds at the end of every front's
    /// step: no more requests answered (completed, rejected or shed) than
    /// submitted, the queue within its capacity plus the jobs requeued past
    /// it (the fabric's dead shards' batches; none on the in-process
    /// fronts), and no tenant holding more jobs than its `max_in_flight`. A
    /// release build checks nothing.
    pub(crate) fn check_step(&self) {
        if cfg!(debug_assertions) {
            let (submitted, answered) = self.metrics.ledger();
            assert!(
                answered <= submitted,
                "{answered} answered of {submitted} submitted"
            );
            self.depth();
            let over = self.batcher.over_quota();
            assert_eq!(over, None, "(tenant, jobs, quota) past its quota");
        }
    }

    /// Asserts, in a debug build, what holds once a front's loop returns:
    /// every submitted request was answered exactly once (completed,
    /// rejected or shed). A release build checks nothing.
    pub(crate) fn check_exit(&self) {
        let (submitted, answered) = self.metrics.ledger();
        debug_assert_eq!(answered, submitted, "answered, submitted at exit");
    }

    /// Whether nothing is queued or in flight.
    pub(crate) fn idle(&self, shards: &Shards<'_>) -> bool {
        self.batcher.is_empty() && shards.in_flight() == 0
    }
}

// ---------------------------------------------------------------------------
// The line protocol, shared by ServerLoop and the fabric
// ---------------------------------------------------------------------------

/// The line protocol over a `Pipeline` whose outcomes go to (connection
/// token, client tag): what the line front ([`ServerLoop`]) and the fabric
/// front ([`crate::FabricServerLoop`]) share. Each query line is parsed,
/// refused while draining, routed to a model, validated, counted
/// submitted and admitted by [`LineProtocol::read`], and each admitted
/// query's outcome becomes its reply line in [`answer`].
#[derive(Debug)]
pub(crate) struct LineProtocol {
    pub(crate) pipeline: Pipeline<(Token, String)>,
    clock: Arc<dyn Clock>,
    deadline_s: f64,
    next_id: u64,
    /// Where a query naming no table goes: the fabric's first table.
    /// `None` on the line front, which serves its one model whatever a
    /// query names.
    default_table: Option<String>,
}

impl LineProtocol {
    /// The line protocol over `pipeline`, on `clock`, giving each request
    /// `deadline_s` from its arrival.
    pub(crate) fn new(
        pipeline: Pipeline<(Token, String)>,
        clock: Arc<dyn Clock>,
        deadline_s: f64,
        default_table: Option<String>,
    ) -> Self {
        LineProtocol {
            pipeline,
            clock,
            deadline_s,
            next_id: 0,
            default_table,
        }
    }

    /// Serves every complete line buffered on `t`, whose buffer `buffer`
    /// finds in the connection's state. An oversized line (framing lost)
    /// closes the connection. `lost` names the tables no shard can ever
    /// serve again (the fabric's), whose queries are refused as `shutdown`.
    pub(crate) fn read<C: ConnState>(
        &mut self,
        conns: &mut Conns<'_, C>,
        t: Token,
        buffer: impl Fn(&mut C) -> Option<&mut LineBuffer>,
        lost: impl Fn(&str) -> bool,
    ) {
        // Looked up again each iteration: answering a line may fail the
        // connection mid-loop (hard write error).
        while let Some(buf) = conns.state_mut(t).and_then(&buffer) {
            match buf.pop_line() {
                Ok(Some(line)) => self.query(conns, t, &line, &lost),
                Ok(None) => break,
                Err(_) => {
                    conns.close(t);
                    break;
                }
            }
        }
    }

    /// One query line: a blank line is skipped, with no reply and nothing
    /// owed; otherwise parse, refuse while draining, route, validate, count
    /// it submitted and admit — or refuse with one `E` line.
    fn query<C: ConnState>(
        &mut self,
        conns: &mut Conns<'_, C>,
        t: Token,
        line: &[u8],
        lost: &impl Fn(&str) -> bool,
    ) {
        if line.is_empty() {
            return;
        }
        let refuse = |conns: &mut Conns<'_, C>, tag: &str, kind| {
            conns.send(t, &codec::encode_error(tag, kind));
        };
        let Ok(query) = codec::parse_query(line) else {
            refuse(conns, &fallback_tag(line), ErrorKind::Invalid);
            return;
        };
        if conns.draining {
            refuse(conns, &query.tag, ErrorKind::Shutdown);
            return;
        }
        let model = match &self.default_table {
            Some(default) => query.table.as_deref().unwrap_or(default),
            None => "",
        };
        let Some(replica) = self.pipeline.model(model).map(Arc::clone) else {
            refuse(conns, &query.tag, ErrorKind::Invalid);
            return;
        };
        if lost(model) {
            refuse(conns, &query.tag, ErrorKind::Shutdown);
            return;
        }
        if replica.validate_indices(&query.indices).is_err() {
            refuse(conns, &query.tag, ErrorKind::Invalid);
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.pipeline.metrics.record_submitted();
        let now = self.clock.now();
        let deadline_s = now + self.deadline_s;
        let build = || replica.request_from_valid(id, now, deadline_s, query.indices);
        match self.pipeline.admit(("", model), (t, query.tag), build) {
            None => conns.owe(t),
            Some(((_, tag), _)) => refuse(conns, &tag, ErrorKind::Rejected),
        }
    }
}

/// The pipeline sink of both line fronts: a request's terminal outcome
/// becomes one reply line on the connection that submitted it, settling
/// what that connection is owed. A queued request ends `Rejected` only when
/// the fabric's table is lost, so that reads `shutdown`.
pub(crate) fn answer<C: ConnState>(
    conns: &mut Conns<'_, C>,
    req: Request,
    (t, tag): (Token, String),
    outcome: Outcome,
) {
    let line = match outcome {
        Outcome::Completed { correct, .. } => {
            codec::encode_result(&tag, correct, req.expected_checksum.to_bits())
        }
        Outcome::DeadlineExceeded { .. } => codec::encode_error(&tag, ErrorKind::Deadline),
        Outcome::Rejected { .. } => codec::encode_error(&tag, ErrorKind::Shutdown),
    };
    conns.settle(t);
    conns.send(t, &line);
}

/// Best-effort tag extraction from an unparsable line, so the `E` reply
/// still correlates ("-" when even the tag is unusable).
fn fallback_tag(line: &[u8]) -> String {
    std::str::from_utf8(line)
        .ok()
        .and_then(|s| s.split(' ').nth(1))
        .filter(|t| codec::valid_name(t))
        .unwrap_or("-")
        .to_string()
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

/// The line-protocol front end: the line protocol (`LineProtocol`) over
/// the runtime's one model, run by the shared connection core on any
/// [`EventSource`].
#[derive(Debug)]
pub struct ServerLoop {
    lines: LineProtocol,
}

impl ServerLoop {
    /// A loop over `rt`'s pipeline, measuring time on `clock` and
    /// recording into `metrics`.
    ///
    /// # Errors
    ///
    /// Configuration validation of the batcher.
    pub fn new(rt: &Runtime, clock: Arc<dyn Clock>, metrics: Arc<Metrics>) -> Result<Self> {
        let pipeline = Pipeline::line(rt, metrics)?;
        let deadline_s = rt.config().deadline_s;
        Ok(ServerLoop {
            lines: LineProtocol::new(pipeline, clock, deadline_s, None),
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
}

impl<'s> Front<Shards<'s>> for ServerLoop {
    type Conn = LineBuffer;

    fn next_timeout(&self, shards: &Shards<'s>) -> Option<f64> {
        let now = self.lines.clock.now();
        self.lines.pipeline.next_timeout(now, shards)
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
        self.lines.read(conns, t, |buf| Some(buf), |_| false);
        Ok(())
    }

    /// Runs the pipeline with the line protocol's sink ([`answer`]).
    fn step(&mut self, conns: &mut Conns<'_, LineBuffer>, shards: &mut Shards<'s>) -> Result<bool> {
        let draining = conns.draining;
        let mut sink = |req, to, outcome| answer(conns, req, to, outcome);
        let pipeline = &mut self.lines.pipeline;
        let delivered = pipeline.deliver(shards, &mut sink)?;
        let now = self.lines.clock.now();
        let pumped = pipeline.pump(now, draining, shards, &mut sink)?;
        pipeline.check_step();
        shards.check_step();
        Ok(delivered || pumped)
    }

    fn idle(&self, shards: &Shards<'s>) -> bool {
        self.lines.pipeline.idle(shards)
    }

    fn exit(&mut self, _conns: &mut Conns<'_, LineBuffer>, _shards: &mut Shards<'s>) {
        self.lines.pipeline.check_exit();
    }
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
    /// time (`1.0` = real time; see [`crate::RealClock::accelerated`]).
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

/// Where an admitted infer request's response goes.
#[derive(Debug)]
pub(crate) struct HttpRoute {
    conn: Token,
    seq: u64,
    keep_alive: bool,
}

/// The HTTP front end: incremental parsing, routing, per-tenant
/// admission, weighted-fair batching across the model registry, and
/// in-order pipelined responses — run by the shared connection core, so
/// the identical state machine runs under the real poller and the
/// deterministic simulated one.
#[derive(Debug)]
pub struct HttpServerLoop {
    deadline_s: f64,
    limits: HttpLimits,
    clock: Arc<dyn Clock>,
    metrics: Arc<Metrics>,
    pipeline: Pipeline<HttpRoute>,
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
        let cfg = rt.config();
        let batcher = FairBatcher::new(
            cfg.policy,
            cfg.queue_capacity,
            &http.tenants,
            http.default_quota,
        )?;
        Ok(HttpServerLoop {
            deadline_s: cfg.deadline_s,
            limits: http.limits,
            clock,
            pipeline: Pipeline::new(registry, batcher, Arc::clone(&metrics)),
            metrics,
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
    fn handle_request(&mut self, conns: &mut Conns<'_, HttpConn>, t: Token, req: &HttpRequest) {
        let keep = req.keep_alive();
        let seq = {
            let Some(state) = conns.state_mut(t) else {
                return;
            };
            let seq = state.next_seq;
            state.next_seq += 1;
            seq
        };
        match http::route(&req.method, &req.target) {
            Route::Healthz => Self::respond_text(conns, t, seq, keep, 200, b"ok\n"),
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
                Self::enqueue_response(conns, t, seq, bytes, !keep);
            }
            Route::MethodNotAllowed => {
                Self::respond_text(conns, t, seq, keep, 405, b"method not allowed\n");
            }
            Route::NotFound => Self::respond_text(conns, t, seq, keep, 404, b"not found\n"),
            Route::Infer { model } => self.handle_infer(conns, t, seq, keep, req, &model),
        }
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
    ) {
        let refuse = |conns: &mut Conns<'_, HttpConn>, status: u16, msg: &str| {
            Self::respond_text(conns, t, seq, keep, status, format!("{msg}\n").as_bytes());
        };
        let Some(replica) = self.pipeline.model(model).map(Arc::clone) else {
            refuse(conns, 404, &format!("unknown model {model:?}"));
            return;
        };
        if conns.draining {
            refuse(conns, 503, "draining");
            return;
        }
        let indices = match http::parse_infer_body(&req.body) {
            Ok(indices) => indices,
            Err(detail) => {
                refuse(conns, 400, &detail);
                return;
            }
        };
        if let Err(e) = replica.validate_indices(&indices) {
            refuse(conns, 400, &format!("invalid infer payload: {e}"));
            return;
        }
        let tenant = req.header("x-tenant").unwrap_or("anonymous");
        let now = self.clock.now();
        let id = self.next_id;
        self.next_id += 1;
        self.metrics.record_submitted();
        let deadline_s = now + self.deadline_s;
        let build = || replica.request_from_valid(id, now, deadline_s, indices);
        let to = HttpRoute {
            conn: t,
            seq,
            keep_alive: keep,
        };
        match self.pipeline.admit((tenant, model), to, build) {
            None => conns.owe(t),
            Some((_, refusal)) => {
                let (status, msg) = match refusal {
                    AdmitRefusal::UnknownTenant => (403, format!("unknown tenant {tenant:?}")),
                    AdmitRefusal::QuotaExceeded => {
                        (429, format!("tenant {tenant:?} quota exceeded"))
                    }
                    AdmitRefusal::QueueFull => (503, "queue full".to_string()),
                };
                refuse(conns, status, &msg);
            }
        }
    }

    /// Answers an admitted infer request, settling what its connection is
    /// owed.
    fn answer(
        conns: &mut Conns<'_, HttpConn>,
        to: &HttpRoute,
        status: u16,
        content_type: &str,
        body: &[u8],
    ) {
        conns.settle(to.conn);
        let bytes = http::encode_response(status, content_type, body, to.keep_alive);
        Self::enqueue_response(conns, to.conn, to.seq, bytes, !to.keep_alive);
    }

    /// Answers `seq` with a plain-text body; `keep == false` also marks the
    /// connection for close after it.
    fn respond_text(
        conns: &mut Conns<'_, HttpConn>,
        t: Token,
        seq: u64,
        keep: bool,
        status: u16,
        body: &[u8],
    ) {
        let bytes = http::encode_response(status, TEXT_PLAIN, body, keep);
        Self::enqueue_response(conns, t, seq, bytes, !keep);
    }

    /// Parks `bytes` as the response for `seq` and emits every response
    /// the in-order cursor has reached. `close_after` marks the connection
    /// for close once this response (and everything before it) flushes.
    fn enqueue_response(
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
        self.pipeline.next_timeout(self.clock.now(), shards)
    }

    fn accept(&self) -> HttpConn {
        HttpConn {
            parser: HttpParser::new(self.limits),
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
                Ok(Some(req)) => self.handle_request(conns, t, &req),
                Ok(None) => break,
                Err(e) => {
                    // Fatal framing error: one error response, connection
                    // marked for close after it flushes — never a silent
                    // drop, never a parse-fail respin on the same bytes
                    // (the parser is poisoned).
                    let seq = state.next_seq;
                    state.next_seq += 1;
                    let body = format!("{}\n", e.detail);
                    Self::respond_text(conns, t, seq, false, e.status, body.as_bytes());
                    break;
                }
            }
        }
        Ok(())
    }

    /// Runs the pipeline with a sink that answers each terminal outcome in
    /// pipeline order: the JSON result, or 504 for a shed.
    fn step(&mut self, conns: &mut Conns<'_, HttpConn>, shards: &mut Shards<'s>) -> Result<bool> {
        let draining = conns.draining;
        let mut sink = |req: Request, to: HttpRoute, outcome: Outcome| match outcome {
            Outcome::Completed { correct, .. } => {
                let body = http::infer_result_body(correct, req.expected_checksum.to_bits());
                Self::answer(conns, &to, 200, "application/json", &body);
            }
            // Only the fabric's lost tables end a queued request as
            // rejected, so the other outcome here is a shed.
            _ => Self::answer(conns, &to, 504, TEXT_PLAIN, b"deadline exceeded\n"),
        };
        let delivered = self.pipeline.deliver(shards, &mut sink)?;
        let now = self.clock.now();
        let pumped = self.pipeline.pump(now, draining, shards, &mut sink)?;
        self.pipeline.check_step();
        shards.check_step();
        Ok(delivered || pumped)
    }

    fn idle(&self, shards: &Shards<'s>) -> bool {
        self.pipeline.idle(shards)
    }

    fn exit(&mut self, _conns: &mut Conns<'_, HttpConn>, _shards: &mut Shards<'s>) {
        self.pipeline.check_exit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::reactor::SimPoller;
    use crate::runtime::ServeConfig;
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
        pipeline: Pipeline<()>,
        shards: Shards<'a>,
        rng: DataRng,
        seen: Seen,
    }

    impl<'a> Rig<'a> {
        fn new(rt: &'a Runtime) -> Self {
            let clock = Arc::new(VirtualClock::new());
            let metrics = Arc::new(Metrics::new());
            Rig {
                rt,
                pipeline: Pipeline::line(rt, Arc::clone(&metrics)).unwrap(),
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

        /// Admits request `id`, arriving now, with the given deadline, as
        /// the fronts do: with no reference checksum yet.
        fn admit(&mut self, id: u64, deadline_s: f64) {
            let now = self.clock.now();
            let replica = self.rt.replica();
            let req = replica.random_request(id, now, deadline_s, &mut self.rng);
            let refused = self.pipeline.admit(("", ""), (), || req);
            assert_eq!(refused, None, "request {id} refused");
        }

        /// Advances the clock to `t`, then delivers and pumps there.
        fn step_at(&mut self, t: f64, draining: bool) -> bool {
            self.clock.advance_to(t);
            let seen = &mut self.seen;
            let mut sink = |req: Request, (): (), outcome: Outcome| seen.push((req.id, outcome));
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
        rig.admit(0, s1);
        rig.admit(1, f64::INFINITY);
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

        // A lone request waiting out its window is shed at the strict
        // `now > deadline`, and nothing leaves.
        rig.admit(2, 4.125 * s1);
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
    fn a_reference_is_gathered_at_dispatch_once_and_never_for_a_shed_request() {
        let (rt, s1) = runtime(1, 8);
        let gathers = || rt.replica().reference_gathers();
        let mut rig = Rig::new(&rt);
        rig.admit(0, s1);
        for id in 1..4 {
            rig.admit(id, f64::INFINITY);
        }
        assert_eq!(gathers(), 0, "admission gathers nothing");
        // Past request 0's deadline and the flush window: 0 is shed, and
        // the other three leave as one batch, gathered at its dispatch.
        assert!(rig.step_at(2.0 * s1, false));
        assert_eq!(
            rig.seen,
            [(0, Outcome::DeadlineExceeded { at_s: 2.0 * s1 })]
        );
        assert_eq!(rig.shards.in_flight(), 1);
        assert_eq!(gathers(), 3, "the batch's three, not the shed one");
        rig.step_at(10.0 * s1, false);
        assert_eq!(rig.completions(), [(1, 0, 3), (2, 0, 3), (3, 0, 3)]);
        assert!(rig.seen.iter().all(|(_, o)| match o {
            Outcome::Completed { correct, .. } => *correct,
            _ => true,
        }));
        assert_eq!(gathers(), 3, "delivery gathers nothing");
    }

    #[test]
    fn partial_batch_waits_for_its_window_unless_draining() {
        let (rt, s1) = runtime(2, 16);
        let window = rt.config().policy.max_wait_s;
        let mut rig = Rig::new(&rt);
        rig.admit(0, f64::INFINITY);
        assert!(!rig.step_at(0.9 * window, false), "held inside the window");
        assert_eq!(rig.shards.in_flight(), 0);
        assert!(rig.step_at(window, false), "leaves when the window closes");
        assert_eq!(rig.shards.in_flight(), 1);

        // Draining: a lone request leaves at once.
        rig.step_at(2.0 * s1, false);
        rig.admit(1, f64::INFINITY);
        assert!(rig.step_at(2.0 * s1, true));
        assert_eq!(rig.shards.in_flight(), 1);

        // Draining with a backlog: the queue empties into full batches
        // first; only what is left over goes as a partial one.
        rig.step_at(4.0 * s1, false);
        for id in 2..8 {
            rig.admit(id, f64::INFINITY);
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
            rig.admit(id, f64::INFINITY);
        }
        assert!(rig.step_at(0.0, false), "a full batch leaves at once");
        rig.admit(4, 10.0 * s1);

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
            .deliver(&mut rig.shards, &mut |_, (), _| ())
            .unwrap();
        assert_eq!(rig.pipeline.next_timeout(9.0 * s1, &rig.shards), Some(0.0));
    }

    #[test]
    fn one_pump_fills_every_free_shard_and_deliver_reports_the_batch_ridden() {
        let (rt, s1) = runtime(2, 16);
        let mut rig = Rig::new(&rt);
        for id in 0..8 {
            rig.admit(id, f64::INFINITY);
        }
        assert!(rig.step_at(0.0, false));
        assert_eq!(
            rig.shards.in_flight(),
            2,
            "two ready batches, two free shards"
        );
        assert_eq!(rig.shards.dispatch_counts(), [1, 1]);

        // A ninth request rides alone once a shard is free again. Delivery
        // is in (finish_s, shard) order, each request tagged with the
        // shard and size of the batch it rode in.
        rig.admit(8, f64::INFINITY);
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
    fn a_full_queue_refuses_before_building_and_counts_the_batch_being_formed() {
        let (rt, s1) = runtime(1, 2);
        let window = rt.config().policy.max_wait_s;
        let mut rig = Rig::new(&rt);
        let refuse = |rig: &mut Rig<'_>| {
            let build = || panic!("a refused request is never built");
            let refused = rig.pipeline.admit(("", ""), (), build);
            assert_eq!(refused, Some(((), AdmitRefusal::QueueFull)));
        };
        rig.admit(0, f64::INFINITY);
        rig.admit(1, f64::INFINITY);
        refuse(&mut rig);
        // The pair waits out its window as the batch being formed, and it
        // still counts against the bound until it leaves.
        assert!(!rig.step_at(0.5 * window, false));
        refuse(&mut rig);
        assert!(rig.step_at(window, false));
        assert_eq!(rig.shards.in_flight(), 1);
        rig.admit(2, f64::INFINITY);
        let snap = rig.metrics.snapshot();
        assert_eq!((snap.rejected, snap.queue_depth_peak), (2, 2));
        rig.step_at(10.0 * s1, true);
        rig.step_at(20.0 * s1, false);
        assert_eq!(rig.completions(), [(0, 0, 2), (1, 0, 2), (2, 0, 1)]);
        assert!(rig.pipeline.idle(&rig.shards));
    }
}
