//! The reactor-driven serving front end: one event loop, two transports.
//!
//! [`ServerLoop`] parks on an [`EventSource`] and feeds accepted
//! connections through the existing pipeline — [`AdmissionQueue`] →
//! [`ContinuousBatcher`] → [`ShardManager`] routing → a
//! [`BatchExecutor`] — speaking the line protocol of [`crate::codec`].
//! The loop is written once against the two traits, so the identical
//! byte-for-byte pipeline runs under:
//!
//! * [`EpollPoller`] + [`ThreadedExecutor`] — real sockets, real shard
//!   worker threads ([`Runtime::serve`] wires this up and returns a
//!   [`ServeHandle`]);
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
use crate::codec::{self, ErrorKind};
use crate::error::ServeError;
use crate::http::{self, HttpLimits, HttpParser, HttpRequest, Route};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::reactor::{
    EpollPoller, EventSource, IoEvent, SimHandle, Token, Waker, WAKE_COMPLETION, WAKE_SHUTDOWN,
};
use crate::registry::{AdmitRefusal, FairBatcher, ModelRegistry, TaggedJob};
use crate::request::Request;
use crate::runtime::{Runtime, ServeConfig};
use crate::shard::{ReplicaModel, ServiceModel, ShardManager};
use crate::Result;
use pimdl_engine::scheduler::TenantQuota;

/// Deadline expiry is strict (`now > deadline`), so deadline-driven
/// wakeups aim this far past the deadline (simulated seconds). Waking at
/// exactly `deadline` would shed nothing and respin on a zero timeout.
pub(crate) const DEADLINE_SLOP_S: f64 = 1e-9;

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
// ServerLoop
// ---------------------------------------------------------------------------

/// Per-connection server-side state.
#[derive(Debug, Default)]
struct ServerConn {
    buf: codec::LineBuffer,
    out: Vec<u8>,
    peer_closed: bool,
    /// Admitted requests whose responses this connection still owes.
    pending: usize,
    want_write: bool,
}

/// The serving event loop: admission, batching, routing, and the line
/// protocol, driven entirely by an [`EventSource`].
#[derive(Debug)]
pub struct ServerLoop<'a> {
    cfg: ServeConfig,
    service: &'a ServiceModel,
    replica: Arc<ReplicaModel>,
    clock: Arc<dyn Clock>,
    metrics: Arc<Metrics>,
    queue: AdmissionQueue,
    batcher: ContinuousBatcher,
    shards: ShardManager,
    conns: BTreeMap<u64, ServerConn>,
    /// request id → (connection token, client tag) of admitted requests.
    route: HashMap<u64, (u64, String)>,
    next_id: u64,
    draining: bool,
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
            service: rt.service_model(),
            replica: rt.replica_arc(),
            clock,
            metrics,
            queue: AdmissionQueue::new(cfg.queue_capacity)?,
            batcher: ContinuousBatcher::new(cfg.policy)?,
            shards: ShardManager::new(cfg.num_shards)?,
            conns: BTreeMap::new(),
            route: HashMap::new(),
            next_id: 0,
            draining: false,
        })
    }

    /// The shard router (exposed so tests can check per-shard dispatch and
    /// wakeup accounting after a run).
    pub fn shards(&self) -> &ShardManager {
        &self.shards
    }

    /// Runs until shutdown (a [`WAKE_SHUTDOWN`] token followed by a full
    /// drain) or — for the simulated transport — until the script is
    /// exhausted and no work remains.
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
        let stats = source.stats();
        let can_quiesce = source.supports_quiescence();
        let mut events: Vec<IoEvent> = Vec::new();
        loop {
            let timeout = self.next_timeout(executor);
            source.wait(timeout, &mut events)?;
            // Only a scripted source proves end-of-input with an empty
            // untimed wait; a live poller can return an empty batch
            // spuriously (stale wake-pipe byte) and must be re-parked.
            let quiescent = can_quiesce && events.is_empty() && timeout.is_none();
            let mut had_wake = false;
            let mut progress = false;
            for &event in events.iter() {
                match event {
                    IoEvent::Accepted(t) => {
                        self.conns.insert(t.0, ServerConn::default());
                        progress = true;
                    }
                    IoEvent::Readable(t) => {
                        if self.handle_readable(source, t)? {
                            progress = true;
                        }
                    }
                    IoEvent::Writable(t) => {
                        self.flush_conn(source, t);
                        progress = true;
                    }
                    IoEvent::Wake(t) => {
                        had_wake = true;
                        if t == WAKE_SHUTDOWN && !self.draining {
                            self.draining = true;
                            source.stop_accepting();
                            progress = true;
                        }
                    }
                }
            }

            if self.drain_completions(source, executor) {
                progress = true;
            }

            if self.pump(source, executor)? {
                progress = true;
            }
            if had_wake && !progress {
                stats.record_spurious_wakeup();
            }
            if (self.draining || quiescent)
                && self.queue.is_empty()
                && self.batcher.is_empty()
                && executor.in_flight() == 0
                // A worker publishes its BatchDone *before* decrementing
                // in-flight, so a completion landing between the drain above
                // and the in-flight check is still undelivered here. Re-drain;
                // if anything surfaced, its responses were just queued — loop
                // once more instead of exiting with them unwritten.
                && !self.drain_completions(source, executor)
            {
                return Ok(());
            }
        }
    }

    /// Delivers every finished batch the executor has published: records
    /// completion latency and writes each response back to its connection.
    /// Returns whether anything was drained.
    fn drain_completions(
        &mut self,
        source: &mut dyn EventSource,
        executor: &mut dyn BatchExecutor,
    ) -> bool {
        let mut progress = false;
        for done in executor.drain() {
            progress = true;
            for (req, correct) in done.results {
                self.metrics.record_completed(done.finish_s - req.arrival_s);
                if let Some((conn, tag)) = self.route.remove(&req.id) {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.pending -= 1;
                    }
                    let line = codec::encode_result(&tag, correct, req.expected_checksum.to_bits());
                    self.respond(source, Token(conn), &line);
                }
            }
        }
        progress
    }

    /// Relative wait timeout: the earliest timed obligation — the flush
    /// window (only meaningful while a shard can absorb the batch) or a
    /// queued request's deadline. `None` = nothing timed, park until a
    /// socket or wake token fires.
    fn next_timeout(&self, executor: &dyn BatchExecutor) -> Option<f64> {
        let now = self.clock.now();
        let mut wake_s = f64::INFINITY;
        if !self.batcher.is_empty() && executor.free_shards().iter().any(|&f| f) {
            if let Some(d) = self.batcher.flush_deadline_s() {
                wake_s = wake_s.min(d);
            }
        }
        // Request deadlines are strict (`now > deadline`), so wake a hair
        // *past* them — waking at exactly `deadline` would shed nothing and
        // recompute the same zero timeout forever.
        if let Some(d) = self.queue.min_deadline_s() {
            wake_s = wake_s.min(d + DEADLINE_SLOP_S);
        }
        if let Some(d) = self.batcher.min_deadline_s() {
            wake_s = wake_s.min(d + DEADLINE_SLOP_S);
        }
        wake_s.is_finite().then(|| (wake_s - now).max(0.0))
    }

    /// Drains a readable connection and processes every complete line.
    /// Returns whether any byte moved.
    fn handle_readable(&mut self, source: &mut dyn EventSource, t: Token) -> Result<bool> {
        let mut scratch = Vec::new();
        let rr = source.read(t, &mut scratch)?;
        let Some(conn) = self.conns.get_mut(&t.0) else {
            return Ok(false);
        };
        conn.buf.push(&scratch);
        if rr.closed {
            conn.peer_closed = true;
        }
        // `get_mut` re-runs each iteration: a protocol error inside
        // `handle_line` may drop the connection mid-loop (oversized line).
        while let Some(c) = self.conns.get_mut(&t.0) {
            match c.buf.pop_line() {
                Ok(Some(line)) => self.handle_line(source, t, &line)?,
                Ok(None) => break,
                Err(_) => {
                    self.drop_conn(source, t);
                    break;
                }
            }
        }
        if let Some(c) = self.conns.get_mut(&t.0) {
            if c.peer_closed && c.pending == 0 && c.out.is_empty() {
                self.drop_conn(source, t);
            }
        }
        Ok(rr.bytes > 0 || rr.closed)
    }

    /// Parses and admits (or refuses) one query line.
    fn handle_line(&mut self, source: &mut dyn EventSource, t: Token, line: &[u8]) -> Result<()> {
        if line.is_empty() {
            return Ok(());
        }
        let now = self.clock.now();
        let query = match codec::parse_query(line) {
            Ok(q) => q,
            Err(_) => {
                let tag = fallback_tag(line);
                let msg = codec::encode_error(&tag, ErrorKind::Invalid);
                self.respond(source, t, &msg);
                return Ok(());
            }
        };
        if self.draining {
            let msg = codec::encode_error(&query.tag, ErrorKind::Shutdown);
            self.respond(source, t, &msg);
            return Ok(());
        }
        if self.replica.validate_indices(&query.indices).is_err() {
            let msg = codec::encode_error(&query.tag, ErrorKind::Invalid);
            self.respond(source, t, &msg);
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
            self.route.insert(id, (t.0, query.tag));
            if let Some(c) = self.conns.get_mut(&t.0) {
                c.pending += 1;
            }
        } else {
            self.metrics.record_rejected();
            let msg = codec::encode_error(&query.tag, ErrorKind::Rejected);
            self.respond(source, t, &msg);
        }
        Ok(())
    }

    /// Shed → refill → dispatch while a shard can absorb work. Returns
    /// whether anything was shed or dispatched.
    fn pump(
        &mut self,
        source: &mut dyn EventSource,
        executor: &mut dyn BatchExecutor,
    ) -> Result<bool> {
        let now = self.clock.now();
        let mut progress = false;
        loop {
            let mut shed = self.queue.shed_expired(now);
            shed.extend(self.batcher.shed_expired(now));
            for r in shed {
                progress = true;
                self.metrics.record_deadline_exceeded();
                if let Some((conn, tag)) = self.route.remove(&r.id) {
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.pending -= 1;
                    }
                    let msg = codec::encode_error(&tag, ErrorKind::Deadline);
                    self.respond(source, Token(conn), &msg);
                }
            }
            while !self.batcher.is_full() {
                match self.queue.pop() {
                    Some(r) => self.batcher.push(r),
                    None => break,
                }
            }
            self.metrics.observe_queue_depth(self.queue.len());
            let flush = self.batcher.ready(now)
                || (self.draining && !self.batcher.is_empty() && self.queue.is_empty());
            if flush {
                if let Some(sid) = self.shards.least_loaded_among(&executor.free_shards()) {
                    let batch = self.batcher.take();
                    let service_s = self.service.batch_service_s(batch.len())?;
                    self.shards.dispatch_to(sid, now, service_s);
                    self.shards.record_wakeup(sid);
                    self.metrics.record_batch(batch.len());
                    let model = Arc::clone(&self.replica);
                    executor.submit(sid, service_s, &model, batch)?;
                    progress = true;
                    continue; // another batch may fit another shard
                }
            }
            return Ok(progress);
        }
    }

    /// Queues `bytes` on the connection and flushes as far as the
    /// transport allows.
    fn respond(&mut self, source: &mut dyn EventSource, t: Token, bytes: &[u8]) {
        if let Some(c) = self.conns.get_mut(&t.0) {
            c.out.extend_from_slice(bytes);
        }
        self.flush_conn(source, t);
    }

    /// Writes the connection's output buffer; arms writable interest on a
    /// partial write; reaps the connection when it is fully drained and
    /// the peer is gone. A hard write error drops the connection.
    fn flush_conn(&mut self, source: &mut dyn EventSource, t: Token) {
        let Some(c) = self.conns.get_mut(&t.0) else {
            return;
        };
        if !c.out.is_empty() {
            match source.write(t, &c.out) {
                Ok(n) => {
                    c.out.drain(..n);
                }
                Err(_) => {
                    self.drop_conn(source, t);
                    return;
                }
            }
        }
        let want = !c.out.is_empty();
        if want != c.want_write && source.set_writable_interest(t, want).is_ok() {
            c.want_write = want;
        }
        if c.peer_closed && c.pending == 0 && c.out.is_empty() {
            self.drop_conn(source, t);
        }
    }

    /// Closes and forgets a connection. In-flight requests it submitted
    /// still execute (and are counted); their responses are dropped.
    fn drop_conn(&mut self, source: &mut dyn EventSource, t: Token) {
        source.close(t);
        self.conns.remove(&t.0);
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
// Runtime::serve — the real network front end
// ---------------------------------------------------------------------------

/// Handle to a running network server: its bound address, a shutdown
/// trigger, and the reactor thread's final metrics.
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    shutdown: Waker,
    join: std::thread::JoinHandle<Result<MetricsSnapshot>>,
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
    /// thread: an [`EpollPoller`] owns the listener and every accepted
    /// connection, and a [`ThreadedExecutor`] runs one worker per shard.
    /// `speedup` compresses simulated service seconds into real time
    /// (`1.0` = real time), exactly as in
    /// [`Runtime::run_threaded`].
    ///
    /// # Errors
    ///
    /// Poller construction, listener registration, or clock validation.
    pub fn serve(self: &Arc<Self>, listener: TcpListener, speedup: f64) -> Result<ServeHandle> {
        let addr = listener
            .local_addr()
            .map_err(ServeError::from_io("local_addr"))?;
        let mut poller = EpollPoller::new(speedup)?;
        poller.listen(listener)?;
        let shutdown = poller.waker(WAKE_SHUTDOWN);
        let completion = poller.waker(WAKE_COMPLETION);
        let rt = Arc::clone(self);
        let join = std::thread::Builder::new()
            .name("pimdl-serve-reactor".to_string())
            .spawn(move || -> Result<MetricsSnapshot> {
                let clock = Arc::new(RealClock::accelerated(speedup)?);
                let metrics = Arc::new(Metrics::new(rt.config().policy.max_batch));
                let mut executor = ThreadedExecutor::new(
                    Arc::clone(&clock),
                    Arc::clone(&metrics),
                    completion,
                    rt.config().num_shards,
                );
                let clock_dyn: Arc<dyn Clock> = clock;
                let mut server = ServerLoop::new(&rt, clock_dyn, Arc::clone(&metrics))?;
                let run = server.run(&mut poller, &mut executor);
                let stop = executor.shutdown();
                run?;
                stop?;
                Ok(metrics.snapshot_with_reactor(poller.stats().snapshot()))
            })
            .map_err(ServeError::from_io("spawn reactor thread"))?;
        Ok(ServeHandle {
            addr,
            shutdown,
            join,
        })
    }

    /// Serves HTTP/1.1 on `listener` from a dedicated reactor thread:
    /// the same [`EpollPoller`] + [`ThreadedExecutor`] wiring as
    /// [`Runtime::serve`], but speaking HTTP through an
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
        let addr = listener
            .local_addr()
            .map_err(ServeError::from_io("local_addr"))?;
        let mut poller = EpollPoller::new(speedup)?;
        poller.listen(listener)?;
        let shutdown = poller.waker(WAKE_SHUTDOWN);
        let completion = poller.waker(WAKE_COMPLETION);
        let rt = Arc::clone(self);
        let join = std::thread::Builder::new()
            .name("pimdl-serve-http".to_string())
            .spawn(move || -> Result<MetricsSnapshot> {
                let clock = Arc::new(RealClock::accelerated(speedup)?);
                let metrics = Arc::new(Metrics::new(rt.config().policy.max_batch));
                let mut executor = ThreadedExecutor::new(
                    Arc::clone(&clock),
                    Arc::clone(&metrics),
                    completion,
                    rt.config().num_shards,
                );
                let clock_dyn: Arc<dyn Clock> = clock;
                let mut server =
                    HttpServerLoop::new(&rt, http, registry, clock_dyn, Arc::clone(&metrics))?;
                let run = server.run(&mut poller, &mut executor);
                let stop = executor.shutdown();
                run?;
                stop?;
                Ok(metrics.snapshot_with_reactor(poller.stats().snapshot()))
            })
            .map_err(ServeError::from_io("spawn reactor thread"))?;
        Ok(ServeHandle {
            addr,
            shutdown,
            join,
        })
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

/// Per-connection HTTP state.
///
/// Pipelined requests are answered strictly in arrival order: each parsed
/// request takes a sequence number, finished responses park in `ready`
/// until every earlier response has been emitted, and `next_flush` walks
/// the sequence forward.
#[derive(Debug)]
struct HttpConn {
    parser: HttpParser,
    /// Bytes ready for the transport (in-order responses only).
    out: Vec<u8>,
    /// Out-of-order finished responses: seq → (bytes, close-after).
    ready: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Sequence number the next parsed request takes.
    next_seq: u64,
    /// Sequence number the next emitted response must carry.
    next_flush: u64,
    /// Admitted infer requests whose responses this connection still owes.
    pending: usize,
    peer_closed: bool,
    want_write: bool,
    /// A `Connection: close` (or fatal-error) response has been emitted:
    /// stop parsing, close once `out` drains.
    closing: bool,
}

impl HttpConn {
    fn new(limits: HttpLimits) -> Self {
        HttpConn {
            parser: HttpParser::new(limits),
            out: Vec::new(),
            ready: BTreeMap::new(),
            next_seq: 0,
            next_flush: 0,
            pending: 0,
            peer_closed: false,
            want_write: false,
            closing: false,
        }
    }
}

/// Where an admitted infer request's response goes, and who to charge.
#[derive(Debug)]
struct HttpRouteEntry {
    conn: u64,
    seq: u64,
    tenant: String,
    keep_alive: bool,
}

/// The HTTP serving event loop: incremental parsing, routing, per-tenant
/// admission, weighted-fair batching across the model registry, and
/// in-order pipelined responses — driven entirely by an [`EventSource`],
/// so the identical state machine runs under the real poller and the
/// deterministic simulated one.
#[derive(Debug)]
pub struct HttpServerLoop<'a> {
    cfg: ServeConfig,
    http: HttpConfig,
    service: &'a ServiceModel,
    registry: ModelRegistry,
    clock: Arc<dyn Clock>,
    metrics: Arc<Metrics>,
    batcher: FairBatcher,
    shards: ShardManager,
    conns: BTreeMap<u64, HttpConn>,
    /// request id → response routing of admitted infer requests.
    route: HashMap<u64, HttpRouteEntry>,
    next_id: u64,
    draining: bool,
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
            service: rt.service_model(),
            registry,
            clock,
            metrics,
            batcher,
            shards: ShardManager::new(cfg.num_shards)?,
            conns: BTreeMap::new(),
            route: HashMap::new(),
            next_id: 0,
            draining: false,
        })
    }

    /// The shard router (exposed so tests can check per-shard dispatch and
    /// wakeup accounting after a run).
    pub fn shards(&self) -> &ShardManager {
        &self.shards
    }

    /// Runs until shutdown (a [`WAKE_SHUTDOWN`] token followed by a full
    /// drain) or — for the simulated transport — until the script is
    /// exhausted and no work remains.
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
        let stats = source.stats();
        let can_quiesce = source.supports_quiescence();
        let mut events: Vec<IoEvent> = Vec::new();
        loop {
            let timeout = self.next_timeout(executor);
            source.wait(timeout, &mut events)?;
            let quiescent = can_quiesce && events.is_empty() && timeout.is_none();
            let mut had_wake = false;
            let mut progress = false;
            for &event in events.iter() {
                match event {
                    IoEvent::Accepted(t) => {
                        self.conns.insert(t.0, HttpConn::new(self.http.limits));
                        progress = true;
                    }
                    IoEvent::Readable(t) => {
                        if self.handle_readable(source, t)? {
                            progress = true;
                        }
                    }
                    IoEvent::Writable(t) => {
                        self.flush_conn(source, t);
                        progress = true;
                    }
                    IoEvent::Wake(t) => {
                        had_wake = true;
                        if t == WAKE_SHUTDOWN && !self.draining {
                            self.draining = true;
                            source.stop_accepting();
                            progress = true;
                        }
                    }
                }
            }

            if self.drain_completions(source, executor) {
                progress = true;
            }
            if self.pump(source, executor)? {
                progress = true;
            }
            if had_wake && !progress {
                stats.record_spurious_wakeup();
            }
            if (self.draining || quiescent)
                && self.batcher.is_empty()
                && executor.in_flight() == 0
                // Same late-completion race as ServerLoop::run: a worker
                // publishes its BatchDone before decrementing in-flight, so
                // re-drain once more before exiting.
                && !self.drain_completions(source, executor)
            {
                return Ok(());
            }
        }
    }

    /// Relative wait timeout: the flush window (only while a shard can
    /// absorb the batch) or the earliest queued request deadline.
    fn next_timeout(&self, executor: &dyn BatchExecutor) -> Option<f64> {
        let now = self.clock.now();
        let mut wake_s = f64::INFINITY;
        if !self.batcher.is_empty() && executor.free_shards().iter().any(|&f| f) {
            if let Some(d) = self.batcher.flush_deadline_s() {
                wake_s = wake_s.min(d);
            }
        }
        if let Some(d) = self.batcher.min_deadline_s() {
            wake_s = wake_s.min(d + DEADLINE_SLOP_S);
        }
        wake_s.is_finite().then(|| (wake_s - now).max(0.0))
    }

    /// Delivers every finished batch: records completion latency, releases
    /// the tenant's quota slot, and emits the JSON result in pipeline
    /// order. Returns whether anything was drained.
    fn drain_completions(
        &mut self,
        source: &mut dyn EventSource,
        executor: &mut dyn BatchExecutor,
    ) -> bool {
        let mut progress = false;
        for done in executor.drain() {
            progress = true;
            for (req, correct) in done.results {
                self.metrics.record_completed(done.finish_s - req.arrival_s);
                if let Some(entry) = self.route.remove(&req.id) {
                    // Quota releases even when the connection is gone —
                    // otherwise a dropped client would leak its slots.
                    self.batcher.release(&entry.tenant);
                    if let Some(c) = self.conns.get_mut(&entry.conn) {
                        c.pending -= 1;
                    }
                    let body = http::infer_result_body(correct, req.expected_checksum.to_bits());
                    let bytes =
                        http::encode_response(200, "application/json", &body, entry.keep_alive);
                    self.enqueue_response(
                        source,
                        Token(entry.conn),
                        entry.seq,
                        bytes,
                        !entry.keep_alive,
                    );
                }
            }
        }
        progress
    }

    /// Drains a readable connection and processes every complete request.
    /// Returns whether any byte moved.
    fn handle_readable(&mut self, source: &mut dyn EventSource, t: Token) -> Result<bool> {
        let mut scratch = Vec::new();
        let rr = source.read(t, &mut scratch)?;
        let Some(conn) = self.conns.get_mut(&t.0) else {
            return Ok(false);
        };
        conn.parser.push(&scratch);
        if rr.closed {
            conn.peer_closed = true;
        }
        // Re-fetched each iteration: handling a request needs &mut self
        // and may drop the connection (hard write error).
        while let Some(c) = self.conns.get_mut(&t.0) {
            if c.closing {
                break; // a close-marked response is already on the wire
            }
            match c.parser.next_request() {
                Ok(Some(req)) => self.handle_request(source, t, &req)?,
                Ok(None) => break,
                Err(e) => {
                    // Fatal framing error: one error response, connection
                    // marked for close after it flushes — never a silent
                    // drop, never a parse-fail respin on the same bytes
                    // (the parser is poisoned).
                    let seq = c.next_seq;
                    c.next_seq += 1;
                    let body = format!("{}\n", e.detail).into_bytes();
                    let bytes =
                        http::encode_response(e.status, "text/plain; charset=utf-8", &body, false);
                    self.enqueue_response(source, t, seq, bytes, true);
                    break;
                }
            }
        }
        self.reap_if_done(source, t);
        Ok(rr.bytes > 0 || rr.closed)
    }

    /// Routes and answers one parsed request.
    fn handle_request(
        &mut self,
        source: &mut dyn EventSource,
        t: Token,
        req: &HttpRequest,
    ) -> Result<()> {
        let keep = req.keep_alive();
        let seq = {
            let Some(c) = self.conns.get_mut(&t.0) else {
                return Ok(());
            };
            let seq = c.next_seq;
            c.next_seq += 1;
            seq
        };
        match http::route(&req.method, &req.target) {
            Route::Healthz => {
                let bytes = http::encode_response(200, "text/plain; charset=utf-8", b"ok\n", keep);
                self.enqueue_response(source, t, seq, bytes, !keep);
            }
            Route::Metrics => {
                // Live snapshot, streamed chunked: the body length isn't
                // known before rendering, and chunked framing exercises the
                // streaming half of the response writer.
                let snap = self
                    .metrics
                    .snapshot_with_reactor(source.stats().snapshot());
                let text = snap.render_prometheus();
                let mut bytes = http::encode_chunked_head(200, "text/plain; version=0.0.4", keep);
                bytes.extend_from_slice(&http::encode_chunk(text.as_bytes()));
                bytes.extend_from_slice(http::CHUNKED_END);
                self.enqueue_response(source, t, seq, bytes, !keep);
            }
            Route::MethodNotAllowed => {
                let bytes = http::encode_response(
                    405,
                    "text/plain; charset=utf-8",
                    b"method not allowed\n",
                    keep,
                );
                self.enqueue_response(source, t, seq, bytes, !keep);
            }
            Route::NotFound => {
                let bytes =
                    http::encode_response(404, "text/plain; charset=utf-8", b"not found\n", keep);
                self.enqueue_response(source, t, seq, bytes, !keep);
            }
            Route::Infer { model } => self.handle_infer(source, t, seq, keep, req, &model)?,
        }
        Ok(())
    }

    /// Admits (or refuses) one infer request.
    fn handle_infer(
        &mut self,
        source: &mut dyn EventSource,
        t: Token,
        seq: u64,
        keep: bool,
        req: &HttpRequest,
        model: &str,
    ) -> Result<()> {
        let refuse = |this: &mut Self, source: &mut dyn EventSource, status: u16, msg: &str| {
            let body = format!("{msg}\n").into_bytes();
            let bytes = http::encode_response(status, "text/plain; charset=utf-8", &body, keep);
            this.enqueue_response(source, t, seq, bytes, !keep);
        };
        let Some(replica) = self.registry.get(model).map(Arc::clone) else {
            refuse(self, source, 404, &format!("unknown model {model:?}"));
            return Ok(());
        };
        if self.draining {
            refuse(self, source, 503, "draining");
            return Ok(());
        }
        let indices = match http::parse_infer_body(&req.body) {
            Ok(indices) => indices,
            Err(detail) => {
                refuse(self, source, 400, &detail);
                return Ok(());
            }
        };
        if let Err(e) = replica.validate_indices(&indices) {
            refuse(self, source, 400, &format!("invalid infer payload: {e}"));
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
                        conn: t.0,
                        seq,
                        tenant,
                        keep_alive: keep,
                    },
                );
                if let Some(c) = self.conns.get_mut(&t.0) {
                    c.pending += 1;
                }
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
                refuse(self, source, status, &msg);
            }
        }
        Ok(())
    }

    /// Shed → dispatch while a shard can absorb work. Returns whether
    /// anything was shed or dispatched.
    fn pump(
        &mut self,
        source: &mut dyn EventSource,
        executor: &mut dyn BatchExecutor,
    ) -> Result<bool> {
        let now = self.clock.now();
        let mut progress = false;
        loop {
            for job in self.batcher.shed_expired(now) {
                progress = true;
                self.metrics.record_deadline_exceeded();
                if let Some(entry) = self.route.remove(&job.request.id) {
                    if let Some(c) = self.conns.get_mut(&entry.conn) {
                        c.pending -= 1;
                    }
                    let bytes = http::encode_response(
                        504,
                        "text/plain; charset=utf-8",
                        b"deadline exceeded\n",
                        entry.keep_alive,
                    );
                    self.enqueue_response(
                        source,
                        Token(entry.conn),
                        entry.seq,
                        bytes,
                        !entry.keep_alive,
                    );
                }
            }
            self.metrics
                .observe_queue_depth(self.batcher.queued_total());
            let flush = self.batcher.ready(now) || (self.draining && !self.batcher.is_empty());
            if flush {
                if let Some(sid) = self.shards.least_loaded_among(&executor.free_shards()) {
                    if let Some((model_name, jobs)) = self.batcher.take_batch() {
                        let Some(model) = self.registry.get(&model_name) else {
                            // Admission verified the model; a miss here is a
                            // registry invariant violation, not a client error.
                            return Err(ServeError::Config {
                                detail: format!("batch for unregistered model {model_name:?}"),
                            });
                        };
                        let model = Arc::clone(model);
                        let batch: Vec<Request> = jobs.into_iter().map(|j| j.request).collect();
                        let service_s = self.service.batch_service_s(batch.len())?;
                        self.shards.dispatch_to(sid, now, service_s);
                        self.shards.record_wakeup(sid);
                        self.metrics.record_batch(batch.len());
                        executor.submit(sid, service_s, &model, batch)?;
                        progress = true;
                        continue; // another batch may fit another shard
                    }
                }
            }
            return Ok(progress);
        }
    }

    /// Parks `bytes` as the response for `seq` and emits every response
    /// the in-order cursor has reached. `close_after` marks the connection
    /// for close once this response (and everything before it) flushes.
    fn enqueue_response(
        &mut self,
        source: &mut dyn EventSource,
        t: Token,
        seq: u64,
        bytes: Vec<u8>,
        close_after: bool,
    ) {
        if let Some(c) = self.conns.get_mut(&t.0) {
            if !c.closing {
                c.ready.insert(seq, (bytes, close_after));
                while let Some((b, close)) = c.ready.remove(&c.next_flush) {
                    c.out.extend_from_slice(&b);
                    c.next_flush += 1;
                    if close {
                        // The client asked to close (or the stream is
                        // unframed): later pipelined responses are moot.
                        c.closing = true;
                        c.ready.clear();
                        break;
                    }
                }
            }
        }
        self.flush_conn(source, t);
    }

    /// Writes the connection's output buffer; arms writable interest on a
    /// partial write; reaps the connection when nothing more can happen on
    /// it. A hard write error drops the connection.
    fn flush_conn(&mut self, source: &mut dyn EventSource, t: Token) {
        let Some(c) = self.conns.get_mut(&t.0) else {
            return;
        };
        if !c.out.is_empty() {
            match source.write(t, &c.out) {
                Ok(n) => {
                    c.out.drain(..n);
                }
                Err(_) => {
                    self.drop_conn(source, t);
                    return;
                }
            }
        }
        let want = !c.out.is_empty();
        if want != c.want_write && source.set_writable_interest(t, want).is_ok() {
            c.want_write = want;
        }
        self.reap_if_done(source, t);
    }

    /// Closes the connection when its story is over: a close-marked
    /// response has fully flushed, or the peer is gone and nothing is owed.
    fn reap_if_done(&mut self, source: &mut dyn EventSource, t: Token) {
        let Some(c) = self.conns.get(&t.0) else {
            return;
        };
        let closing_done = c.closing && c.out.is_empty();
        let peer_done = c.peer_closed && c.pending == 0 && c.out.is_empty() && c.ready.is_empty();
        if closing_done || peer_done {
            self.drop_conn(source, t);
        }
    }

    /// Closes and forgets a connection. In-flight requests it submitted
    /// still execute (and release their tenant's quota on completion);
    /// their responses are dropped.
    fn drop_conn(&mut self, source: &mut dyn EventSource, t: Token) {
        source.close(t);
        self.conns.remove(&t.0);
    }
}
