//! The batching front ends over the shared connection core: the line
//! protocol ([`ServerLoop`]) and HTTP/1.1 ([`HttpServerLoop`]).
//!
//! Each is a codec plus its admission and batching state — accepted
//! connections feed [`AdmissionQueue`] → [`ContinuousBatcher`] (line) or
//! the [`FairBatcher`] over a [`ModelRegistry`] (HTTP) → [`ShardManager`]
//! routing → a [`BatchExecutor`]. The event loop, the transport path and
//! the reactor-thread spawner are `conn.rs`'s, written once against
//! [`EventSource`], so the identical byte-for-byte pipeline runs under:
//!
//! * [`crate::EpollPoller`] + [`ThreadedExecutor`] — real sockets, real
//!   shard worker threads ([`Runtime::serve`] / [`Runtime::serve_http`]
//!   wire this up and return a [`ServeHandle`]);
//! * [`crate::reactor::SimPoller`] + [`SimExecutor`] — scripted
//!   connections and inline execution on a [`VirtualClock`], advanced
//!   tick by tick by the deterministic tests.
//!
//! Idle costs nothing: with no pending work the loop's wait has no
//! timeout, so it burns zero wakeups until a socket, a shard completion,
//! or a shutdown token fires.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

use crate::admission::AdmissionQueue;
use crate::batcher::ContinuousBatcher;
use crate::clock::{Clock, RealClock, VirtualClock};
use crate::codec::{self, ErrorKind, LineBuffer};
use crate::conn::{self, ConnState, Conns, Front, Reactor, WakeAt};
use crate::error::ServeError;
use crate::http::{self, HttpLimits, HttpParser, HttpRequest, Route};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::reactor::{EventSource, SimHandle, Token, Waker, WAKE_COMPLETION};
use crate::registry::{AdmitRefusal, FairBatcher, ModelRegistry, TaggedJob};
use crate::request::Request;
use crate::runtime::{Runtime, ServeConfig};
use crate::shard::{ReplicaModel, ServiceModel, ShardManager};
use crate::Result;
use pimdl_engine::scheduler::TenantQuota;

/// One finished batch, as reported by a [`BatchExecutor`].
#[derive(Debug)]
pub struct BatchDone {
    /// Shard that executed the batch.
    pub shard: usize,
    /// Completion time (simulated seconds).
    pub finish_s: f64,
    /// The batch's requests paired with their functional-correctness
    /// flags, in dispatch order.
    pub results: Vec<(Request, bool)>,
}

/// Executes dispatched batches on shard replicas.
///
/// The serving loop owns routing (which shard, what service time); the
/// executor owns *how* the batch runs — on real worker threads
/// ([`ThreadedExecutor`]) or inline with a scheduled virtual completion
/// ([`SimExecutor`]).
pub trait BatchExecutor: std::fmt::Debug {
    /// Hands a batch to `shard` with the cost model's `service_s`,
    /// executing against `model`'s table (the registry's resident model
    /// for the batch, or the runtime's single replica for the legacy line
    /// protocol). The shard must be free (see
    /// [`BatchExecutor::free_shards`]).
    ///
    /// # Errors
    ///
    /// Fails if the shard's worker is gone or execution fails fatally.
    fn submit(
        &mut self,
        shard: usize,
        service_s: f64,
        model: &Arc<ReplicaModel>,
        batch: Vec<Request>,
    ) -> Result<()>;

    /// Takes every batch that has completed, sorted by
    /// `(finish_s, shard)` so downstream bookkeeping is deterministic.
    fn drain(&mut self) -> Vec<BatchDone>;

    /// Per-shard availability (`true` = can take a batch now).
    fn free_shards(&self) -> Vec<bool>;

    /// Batches submitted but not yet drained.
    fn in_flight(&self) -> usize;
}

fn sort_done(done: &mut [BatchDone]) {
    done.sort_by(|a, b| {
        a.finish_s
            .total_cmp(&b.finish_s)
            .then(a.shard.cmp(&b.shard))
    });
}

// ---------------------------------------------------------------------------
// SimExecutor
// ---------------------------------------------------------------------------

/// Deterministic executor for the simulated transport: batches execute
/// functionally at submit time, completion is scheduled on the
/// [`crate::reactor::SimPoller`] script at `now + service_s`, and
/// [`BatchExecutor::drain`] releases results once the virtual clock
/// reaches them.
#[derive(Debug)]
pub struct SimExecutor {
    clock: Arc<VirtualClock>,
    sim: SimHandle,
    metrics: Arc<Metrics>,
    pending: Vec<BatchDone>,
    busy: Vec<bool>,
}

impl SimExecutor {
    /// An executor over `num_shards` simulated shards, scheduling
    /// completion wakes through `sim`.
    pub fn new(
        clock: Arc<VirtualClock>,
        sim: SimHandle,
        metrics: Arc<Metrics>,
        num_shards: usize,
    ) -> Self {
        SimExecutor {
            clock,
            sim,
            metrics,
            pending: Vec::new(),
            busy: vec![false; num_shards],
        }
    }
}

impl BatchExecutor for SimExecutor {
    fn submit(
        &mut self,
        shard: usize,
        service_s: f64,
        model: &Arc<ReplicaModel>,
        batch: Vec<Request>,
    ) -> Result<()> {
        debug_assert!(!self.busy[shard], "submit to a busy shard");
        self.busy[shard] = true;
        self.metrics.record_shard_wakeup();
        let flags = model.execute_batch(&batch)?;
        let finish_s = self.clock.now() + service_s;
        self.pending.push(BatchDone {
            shard,
            finish_s,
            results: batch.into_iter().zip(flags).collect(),
        });
        self.sim.wake_at(finish_s, WAKE_COMPLETION);
        Ok(())
    }

    fn drain(&mut self) -> Vec<BatchDone> {
        let now = self.clock.now();
        let mut done = Vec::new();
        let mut still = Vec::new();
        for b in self.pending.drain(..) {
            if b.finish_s <= now {
                self.busy[b.shard] = false;
                done.push(b);
            } else {
                still.push(b);
            }
        }
        self.pending = still;
        sort_done(&mut done);
        done
    }

    fn free_shards(&self) -> Vec<bool> {
        self.busy.iter().map(|&b| !b).collect()
    }

    fn in_flight(&self) -> usize {
        self.pending.len()
    }
}

// ---------------------------------------------------------------------------
// ThreadedExecutor
// ---------------------------------------------------------------------------

struct WorkMsg {
    service_s: f64,
    model: Arc<ReplicaModel>,
    batch: Vec<Request>,
}

/// Real shard workers: one thread per shard, each parked on a depth-1
/// channel. A worker wakes exactly once per dispatched batch, executes it
/// functionally, sleeps out the cost-model service time on the
/// accelerated clock, and fires the serving loop's completion wake token.
#[derive(Debug)]
pub struct ThreadedExecutor {
    txs: Vec<mpsc::SyncSender<WorkMsg>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    busy: Arc<Vec<AtomicBool>>,
    inflight: Arc<AtomicUsize>,
    done: Arc<Mutex<Vec<BatchDone>>>,
    error: Arc<Mutex<Option<ServeError>>>,
}

impl std::fmt::Debug for WorkMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkMsg")
            .field("service_s", &self.service_s)
            .field("batch", &self.batch.len())
            .finish()
    }
}

impl ThreadedExecutor {
    /// Spawns one worker per shard. `completion` is the serving loop's
    /// [`WAKE_COMPLETION`] waker. Each dispatched batch carries the model
    /// it executes against, so one worker pool serves every registered
    /// model.
    pub fn new(
        clock: Arc<RealClock>,
        metrics: Arc<Metrics>,
        completion: Waker,
        num_shards: usize,
    ) -> Self {
        let busy: Arc<Vec<AtomicBool>> =
            Arc::new((0..num_shards).map(|_| AtomicBool::new(false)).collect());
        let inflight = Arc::new(AtomicUsize::new(0));
        let done: Arc<Mutex<Vec<BatchDone>>> = Arc::new(Mutex::new(Vec::new()));
        let error: Arc<Mutex<Option<ServeError>>> = Arc::new(Mutex::new(None));
        let mut txs = Vec::with_capacity(num_shards);
        let mut workers = Vec::with_capacity(num_shards);
        for sid in 0..num_shards {
            let (tx, rx) = mpsc::sync_channel::<WorkMsg>(1);
            txs.push(tx);
            let (clock, metrics, completion) =
                (Arc::clone(&clock), Arc::clone(&metrics), completion.clone());
            let (busy, inflight, done, error) = (
                Arc::clone(&busy),
                Arc::clone(&inflight),
                Arc::clone(&done),
                Arc::clone(&error),
            );
            workers.push(std::thread::spawn(move || {
                for msg in rx.iter() {
                    metrics.record_shard_wakeup();
                    let t_recv = clock.now();
                    let flags = match msg.model.execute_batch(&msg.batch) {
                        Ok(flags) => flags,
                        Err(e) => {
                            *error
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(e);
                            vec![false; msg.batch.len()]
                        }
                    };
                    // The host-side functional check overlaps the modeled
                    // service time rather than adding to it.
                    clock.sleep(msg.service_s - (clock.now() - t_recv));
                    let finish_s = clock.now();
                    done.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(BatchDone {
                            shard: sid,
                            finish_s,
                            results: msg.batch.into_iter().zip(flags).collect(),
                        });
                    busy[sid].store(false, Ordering::Release);
                    inflight.fetch_sub(1, Ordering::AcqRel);
                    completion.wake();
                }
            }));
        }
        ThreadedExecutor {
            txs,
            workers,
            busy,
            inflight,
            done,
            error,
        }
    }

    /// Joins every worker and propagates any stashed execution error.
    ///
    /// # Errors
    ///
    /// The first shard execution error of the run, if any.
    pub fn shutdown(mut self) -> Result<()> {
        self.txs.clear(); // closes every worker channel
        for w in self.workers.drain(..) {
            w.join().map_err(|_| ServeError::Io {
                detail: "shard worker panicked".to_string(),
            })?;
        }
        let stashed = self
            .error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        match stashed {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl BatchExecutor for ThreadedExecutor {
    fn submit(
        &mut self,
        shard: usize,
        service_s: f64,
        model: &Arc<ReplicaModel>,
        batch: Vec<Request>,
    ) -> Result<()> {
        self.busy[shard].store(true, Ordering::Release);
        self.inflight.fetch_add(1, Ordering::AcqRel);
        // The shard was free, so its depth-1 channel is empty: the send
        // cannot block.
        self.txs[shard]
            .send(WorkMsg {
                service_s,
                model: Arc::clone(model),
                batch,
            })
            .map_err(|_| ServeError::Io {
                detail: format!("shard {shard} worker is gone"),
            })
    }

    fn drain(&mut self) -> Vec<BatchDone> {
        let mut done = std::mem::take(
            &mut *self
                .done
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        sort_done(&mut done);
        done
    }

    fn free_shards(&self) -> Vec<bool> {
        self.busy
            .iter()
            .map(|b| !b.load(Ordering::Acquire))
            .collect()
    }

    fn in_flight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// Routing shared by the line and HTTP front ends
// ---------------------------------------------------------------------------

/// The flush window of a non-empty batch counts only while a shard could
/// absorb it — with every shard busy the completion wake is the real
/// signal, and a timed wait would spin on a ready batch.
fn flush_window(executor: &dyn BatchExecutor, flush_deadline_s: Option<f64>) -> Option<f64> {
    flush_deadline_s.filter(|_| executor.free_shards().iter().any(|&f| f))
}

/// Where batches go: the per-shard load book and the cost model that
/// prices a batch.
#[derive(Debug)]
struct Router<'a> {
    shards: ShardManager,
    service: &'a ServiceModel,
}

impl<'a> Router<'a> {
    fn new(rt: &'a Runtime) -> Result<Self> {
        Ok(Router {
            shards: ShardManager::new(rt.config().num_shards)?,
            service: rt.service_model(),
        })
    }

    /// Dispatches the batch `take` yields to the least-loaded free shard:
    /// prices it with the cost model, books it and hands it to the
    /// executor. `take` runs only once a shard is known to be free.
    /// Returns whether a batch left.
    fn dispatch_next(
        &mut self,
        metrics: &Metrics,
        executor: &mut dyn BatchExecutor,
        now: f64,
        take: impl FnOnce() -> Result<Option<(Arc<ReplicaModel>, Vec<Request>)>>,
    ) -> Result<bool> {
        let Some(sid) = self.shards.least_loaded_among(&executor.free_shards()) else {
            return Ok(false);
        };
        let Some((model, batch)) = take()? else {
            return Ok(false);
        };
        let service_s = self.service.batch_service_s(batch.len())?;
        self.shards.dispatch_to(sid, now, service_s);
        self.shards.record_wakeup(sid);
        metrics.record_batch(batch.len());
        executor.submit(sid, service_s, &model, batch)?;
        Ok(true)
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

/// The line-protocol front end: admission, batching, routing, and the
/// codec, run by the shared connection core on any [`EventSource`].
#[derive(Debug)]
pub struct ServerLoop<'a> {
    cfg: ServeConfig,
    replica: Arc<ReplicaModel>,
    clock: Arc<dyn Clock>,
    metrics: Arc<Metrics>,
    queue: AdmissionQueue,
    batcher: ContinuousBatcher,
    router: Router<'a>,
    /// request id → (connection token, client tag) of admitted requests.
    route: HashMap<u64, (Token, String)>,
    next_id: u64,
}

impl<'a> ServerLoop<'a> {
    /// A loop over `rt`'s pipeline, measuring time on `clock` and
    /// recording into `metrics`.
    ///
    /// # Errors
    ///
    /// Configuration validation of the queue/batcher/shard state machines.
    pub fn new(rt: &'a Runtime, clock: Arc<dyn Clock>, metrics: Arc<Metrics>) -> Result<Self> {
        let cfg = *rt.config();
        Ok(ServerLoop {
            cfg,
            replica: rt.replica_arc(),
            clock,
            metrics,
            queue: AdmissionQueue::new(cfg.queue_capacity)?,
            batcher: ContinuousBatcher::new(cfg.policy)?,
            router: Router::new(rt)?,
            route: HashMap::new(),
            next_id: 0,
        })
    }

    /// The shard router (exposed so tests can check per-shard dispatch and
    /// wakeup accounting after a run).
    pub fn shards(&self) -> &ShardManager {
        &self.router.shards
    }

    /// Runs until shutdown (a [`crate::reactor::WAKE_SHUTDOWN`] token
    /// followed by a full drain) or — for the simulated transport — until
    /// the script is exhausted and no work remains.
    ///
    /// # Errors
    ///
    /// Poller failures and fatal executor failures. Per-connection I/O
    /// errors only drop that connection.
    pub fn run(
        &mut self,
        source: &mut dyn EventSource,
        executor: &mut dyn BatchExecutor,
    ) -> Result<()> {
        conn::drive(source, self, executor)
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
        // Refuse before paying: the reference gather is the request's most
        // expensive step and runs only once the queue has room for it.
        let admitted = !self.queue.is_full() && {
            let req = self.replica.request_from_valid(
                id,
                now,
                now + self.cfg.deadline_s,
                query.indices,
            )?;
            self.queue.try_admit(req).is_ok()
        };
        if admitted {
            self.metrics.observe_queue_depth(self.queue.len());
            self.route.insert(id, (t, query.tag));
            conns.owe(t);
        } else {
            self.metrics.record_rejected();
            conns.send(t, &codec::encode_error(&query.tag, ErrorKind::Rejected));
        }
        Ok(())
    }

    /// Answers admitted request `id` (if its route is still known),
    /// settling what the connection that submitted it is owed.
    fn answer(
        &mut self,
        conns: &mut Conns<'_, LineBuffer>,
        id: u64,
        encode: impl FnOnce(&str) -> Vec<u8>,
    ) {
        if let Some((t, tag)) = self.route.remove(&id) {
            conns.settle(t);
            conns.send(t, &encode(&tag));
        }
    }
}

impl<'e> Front<dyn BatchExecutor + 'e> for ServerLoop<'_> {
    type Conn = LineBuffer;

    /// The earliest timed obligation: the flush window or a queued
    /// request's deadline.
    fn next_timeout(&self, executor: &(dyn BatchExecutor + 'e)) -> Option<f64> {
        let mut wake = WakeAt::never();
        wake.at(flush_window(executor, self.batcher.flush_deadline_s()));
        wake.after(self.queue.min_deadline_s());
        wake.after(self.batcher.min_deadline_s());
        wake.timeout(self.clock.now())
    }

    fn accept(&self) -> LineBuffer {
        LineBuffer::new()
    }

    /// Processes every complete line.
    fn readable(
        &mut self,
        conns: &mut Conns<'_, LineBuffer>,
        _executor: &mut (dyn BatchExecutor + 'e),
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

    /// Delivers every finished batch (completion latency, one response
    /// each), then shed → refill → dispatch while a shard can absorb work.
    fn step(
        &mut self,
        conns: &mut Conns<'_, LineBuffer>,
        executor: &mut (dyn BatchExecutor + 'e),
    ) -> Result<bool> {
        let mut progress = false;
        for done in executor.drain() {
            progress = true;
            for (req, correct) in done.results {
                self.metrics.record_completed(done.finish_s - req.arrival_s);
                self.answer(conns, req.id, |tag| {
                    codec::encode_result(tag, correct, req.expected_checksum.to_bits())
                });
            }
        }
        let now = self.clock.now();
        loop {
            let mut shed = self.queue.shed_expired(now);
            shed.extend(self.batcher.shed_expired(now));
            for r in shed {
                progress = true;
                self.metrics.record_deadline_exceeded();
                self.answer(conns, r.id, |tag| {
                    codec::encode_error(tag, ErrorKind::Deadline)
                });
            }
            while !self.batcher.is_full() {
                match self.queue.pop() {
                    Some(r) => self.batcher.push(r),
                    None => break,
                }
            }
            self.metrics.observe_queue_depth(self.queue.len());
            let flush = self.batcher.ready(now)
                || (conns.draining && !self.batcher.is_empty() && self.queue.is_empty());
            let (replica, batcher) = (&self.replica, &mut self.batcher);
            let take = || Ok(Some((Arc::clone(replica), batcher.take())));
            if flush
                && self
                    .router
                    .dispatch_next(&self.metrics, executor, now, take)?
            {
                progress = true;
                continue; // another batch may fit another shard
            }
            return Ok(progress);
        }
    }

    fn idle(&self, executor: &(dyn BatchExecutor + 'e)) -> bool {
        self.queue.is_empty() && self.batcher.is_empty() && executor.in_flight() == 0
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
    /// accepted connection, and a [`ThreadedExecutor`] runs one worker per
    /// shard. `speedup` compresses simulated service seconds into real
    /// time (`1.0` = real time), exactly as in [`Runtime::run_threaded`].
    ///
    /// # Errors
    ///
    /// Poller construction, listener registration, or clock validation.
    pub fn serve(self: &Arc<Self>, listener: TcpListener, speedup: f64) -> Result<ServeHandle> {
        let workers = self.config().num_shards;
        let run = |rt: &Runtime, r: &mut Reactor| {
            ServerLoop::new(rt, Arc::clone(&r.clock), Arc::clone(&r.metrics))?
                .run(&mut r.poller, &mut r.executor)
        };
        conn::spawn_reactor(self, "pimdl-serve-reactor", listener, speedup, workers, run)
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
        let workers = self.config().num_shards;
        let run = move |rt: &Runtime, r: &mut Reactor| {
            let (clock, metrics) = (Arc::clone(&r.clock), Arc::clone(&r.metrics));
            HttpServerLoop::new(rt, http, registry, clock, metrics)?
                .run(&mut r.poller, &mut r.executor)
        };
        conn::spawn_reactor(self, "pimdl-serve-http", listener, speedup, workers, run)
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
pub struct HttpServerLoop<'a> {
    cfg: ServeConfig,
    http: HttpConfig,
    registry: ModelRegistry,
    clock: Arc<dyn Clock>,
    metrics: Arc<Metrics>,
    batcher: FairBatcher,
    router: Router<'a>,
    /// request id → response routing of admitted infer requests.
    route: HashMap<u64, HttpRouteEntry>,
    next_id: u64,
}

impl<'a> HttpServerLoop<'a> {
    /// A loop serving `registry`'s models through `rt`'s pipeline
    /// configuration, measuring time on `clock` and recording into
    /// `metrics`.
    ///
    /// # Errors
    ///
    /// An empty registry, or configuration validation of the fair batcher
    /// and shard router.
    pub fn new(
        rt: &'a Runtime,
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
            router: Router::new(rt)?,
            route: HashMap::new(),
            next_id: 0,
        })
    }

    /// The shard router (exposed so tests can check per-shard dispatch and
    /// wakeup accounting after a run).
    pub fn shards(&self) -> &ShardManager {
        &self.router.shards
    }

    /// Runs until shutdown (a [`crate::reactor::WAKE_SHUTDOWN`] token
    /// followed by a full drain) or — for the simulated transport — until
    /// the script is exhausted and no work remains.
    ///
    /// # Errors
    ///
    /// Poller failures and fatal executor failures. Per-connection I/O
    /// errors only drop that connection.
    pub fn run(
        &mut self,
        source: &mut dyn EventSource,
        executor: &mut dyn BatchExecutor,
    ) -> Result<()> {
        conn::drive(source, self, executor)
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

impl<'e> Front<dyn BatchExecutor + 'e> for HttpServerLoop<'_> {
    type Conn = HttpConn;

    /// The earliest timed obligation: the flush window or a queued
    /// request's deadline.
    fn next_timeout(&self, executor: &(dyn BatchExecutor + 'e)) -> Option<f64> {
        let mut wake = WakeAt::never();
        wake.at(flush_window(executor, self.batcher.flush_deadline_s()));
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
        _executor: &mut (dyn BatchExecutor + 'e),
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
    fn step(
        &mut self,
        conns: &mut Conns<'_, HttpConn>,
        executor: &mut (dyn BatchExecutor + 'e),
    ) -> Result<bool> {
        let mut progress = false;
        for done in executor.drain() {
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
            if flush
                && self
                    .router
                    .dispatch_next(&self.metrics, executor, now, take)?
            {
                progress = true;
                continue; // another batch may fit another shard
            }
            return Ok(progress);
        }
    }

    fn idle(&self, executor: &(dyn BatchExecutor + 'e)) -> bool {
        self.batcher.is_empty() && executor.in_flight() == 0
    }
}
