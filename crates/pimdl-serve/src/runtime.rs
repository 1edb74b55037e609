//! The serving runtime: admission → continuous batching → shard dispatch.
//!
//! Two drivers run the identical state machines
//! ([`crate::admission::AdmissionQueue`], [`crate::batcher::ContinuousBatcher`],
//! [`crate::shard::ShardManager`]):
//!
//! * [`Runtime::run_virtual`] — a single-threaded discrete-event loop on a
//!   [`crate::clock::VirtualClock`]. Bit-for-bit deterministic per seed;
//!   this is what the latency/batching assertions test.
//! * [`Runtime::run_threaded`] — real threads: an open-loop load generator,
//!   a batcher thread parked on a reactor, and one worker thread per shard
//!   (the [`ThreadedExecutor`] the network front ends use). A clock speedup
//!   compresses simulated service times into short real sleeps. Tests
//!   assert interleaving-independent invariants (conservation,
//!   metrics/ledger consistency).
//!
//! The network front ends ([`Runtime::serve`], [`Runtime::serve_http`],
//! [`Runtime::serve_fabric`]) run the same state machines on the reactor,
//! through the one connection core in `conn.rs`.
//!
//! All drivers uphold the conservation invariant: every generated request
//! terminates in exactly one of `Completed`, `Rejected`, or
//! `DeadlineExceeded` — nothing is ever silently dropped. Deadlines cover
//! time-to-dispatch: a request shed before its batch leaves the front end
//! is `DeadlineExceeded`; once dispatched it runs to completion.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use pimdl_engine::pipeline::{PimDlEngine, ServingConfig};
use pimdl_engine::scheduler::BatchingPolicy;
use pimdl_engine::shapes::TransformerShape;
use pimdl_sim::{LutWorkload, PlatformConfig};
use pimdl_tensor::rng::DataRng;

use crate::admission::AdmissionQueue;
use crate::batcher::ContinuousBatcher;
use crate::clock::{Clock, RealClock, VirtualClock};
use crate::conn::WakeAt;
use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::reactor::{EpollPoller, EventSource, IoEvent, WAKE_ARRIVAL, WAKE_COMPLETION};
use crate::request::{Outcome, Request, RequestRecord};
use crate::server::{BatchExecutor, ThreadedExecutor};
use crate::shard::{ReplicaModel, ServiceModel, ShardManager};
use crate::Result;

/// Static configuration of a serving runtime.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Continuous-batching policy (validated; see
    /// [`BatchingPolicy::validate`]).
    pub policy: BatchingPolicy,
    /// Per-request serving parameters; the `batch` field is overridden by
    /// the batcher per dispatch.
    pub base: ServingConfig,
    /// Model replicas (shards) the batches route across.
    pub num_shards: usize,
    /// Admission queue capacity (arrivals beyond it are `Rejected`).
    pub queue_capacity: usize,
    /// Relative deadline applied to every request (simulated seconds;
    /// `f64::INFINITY` disables shedding).
    pub deadline_s: f64,
    /// Per-request functional LUT query shape.
    pub lut: LutWorkload,
    /// Seed of the replica's synthetic LUT table.
    pub table_seed: u64,
}

impl ServeConfig {
    /// A small, fast configuration used by the demo and tests: 2 shards,
    /// batches of up to 4, a 64-deep queue.
    pub fn example() -> Self {
        ServeConfig {
            policy: BatchingPolicy {
                max_batch: 4,
                max_wait_s: 0.004,
            },
            base: ServingConfig {
                batch: 1,
                seq_len: 16,
                v: 4,
                ct: 16,
            },
            num_shards: 2,
            queue_capacity: 64,
            deadline_s: f64::INFINITY,
            lut: LutWorkload {
                n: 8,
                cb: 8,
                ct: 16,
                f: 32,
            },
            table_seed: 17,
        }
    }

    /// Validates every sub-configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] (or the engine's own validation
    /// errors) for degenerate values.
    pub fn validate(&self) -> Result<()> {
        self.policy.validate()?;
        self.base.validate()?;
        LutWorkload::new(self.lut.n, self.lut.cb, self.lut.ct, self.lut.f)?;
        if self.num_shards == 0 {
            return Err(ServeError::Config {
                detail: "num_shards must be >= 1".to_string(),
            });
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::Config {
                detail: "queue_capacity must be >= 1".to_string(),
            });
        }
        if self.deadline_s.is_nan() || self.deadline_s <= 0.0 {
            return Err(ServeError::Config {
                detail: format!("deadline_s must be > 0 (or +inf), got {}", self.deadline_s),
            });
        }
        Ok(())
    }
}

/// Open-loop Poisson load.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    /// Mean arrival rate (requests per simulated second).
    pub rate_rps: f64,
    /// Total requests to generate.
    pub num_requests: usize,
    /// Seed of the arrival process and request payloads.
    pub seed: u64,
}

impl OpenLoop {
    /// Validates the load description.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a non-finite/non-positive rate
    /// or zero requests.
    pub fn validate(&self) -> Result<()> {
        if !self.rate_rps.is_finite() || self.rate_rps <= 0.0 {
            return Err(ServeError::Config {
                detail: format!("rate_rps must be finite and > 0, got {}", self.rate_rps),
            });
        }
        if self.num_requests == 0 {
            return Err(ServeError::Config {
                detail: "num_requests must be >= 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Everything a serving run produced: the per-request ledger, the metrics
/// snapshot, and the makespan.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One terminal record per generated request.
    pub records: Vec<RequestRecord>,
    /// Metrics registry snapshot at shutdown.
    pub metrics: MetricsSnapshot,
    /// Clock time when the last request terminated (simulated seconds).
    pub makespan_s: f64,
}

impl ServeReport {
    /// Requests served to completion.
    pub fn completed(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome.is_completed())
            .count()
    }

    /// Requests load-shed at admission.
    pub fn rejected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Rejected { .. }))
            .count()
    }

    /// Requests shed on deadline.
    pub fn deadline_exceeded(&self) -> usize {
        self.records
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::DeadlineExceeded { .. }))
            .count()
    }

    /// Conservation check: exactly one record per generated request id
    /// (`0..num_requests`), each with a terminal outcome.
    pub fn conserves(&self, num_requests: usize) -> bool {
        if self.records.len() != num_requests {
            return false;
        }
        let mut ids: Vec<u64> = self.records.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        ids.iter().enumerate().all(|(i, &id)| id == i as u64)
    }

    /// Whether every completed request's simulated output matched its host
    /// reference checksum.
    pub fn all_completed_correct(&self) -> bool {
        self.records.iter().all(|r| match r.outcome {
            Outcome::Completed { correct, .. } => correct,
            _ => true,
        })
    }

    /// Whether the metrics counters agree with the ledger.
    pub fn consistent_with_metrics(&self) -> bool {
        self.metrics.submitted as usize == self.records.len()
            && self.metrics.completed as usize == self.completed()
            && self.metrics.rejected as usize == self.rejected()
            && self.metrics.deadline_exceeded as usize == self.deadline_exceeded()
    }
}

/// State shared between the threaded driver's generator and batcher.
struct FrontEnd {
    queue: AdmissionQueue,
    closed: bool,
}

/// The serving runtime: a model replica sharded across simulated PIM
/// DIMM groups behind a batching front end.
#[derive(Debug)]
pub struct Runtime {
    cfg: ServeConfig,
    service: ServiceModel,
    replica: Arc<ReplicaModel>,
}

/// An in-flight batch: finish time, shard, dispatched batch size, and the
/// batch's requests paired with their functional-correctness flags.
type InflightBatch = (f64, usize, usize, Vec<(Request, bool)>);

impl Runtime {
    /// Builds a runtime: tunes the replica's mapping, validates the
    /// configuration, and pre-warms the cost model for every batch size up
    /// to `max_batch` (so the serving hot path never runs the tuner).
    ///
    /// # Errors
    ///
    /// Configuration validation and engine/tuner failures.
    pub fn new(
        platform: PlatformConfig,
        shape: TransformerShape,
        cfg: ServeConfig,
    ) -> Result<Self> {
        cfg.validate()?;
        let engine = PimDlEngine::new(platform);
        let replica = Arc::new(ReplicaModel::build(&engine, cfg.lut, cfg.table_seed)?);
        let service = ServiceModel::new(engine, shape, cfg.base)?;
        service.prewarm(cfg.policy.max_batch)?;
        Ok(Runtime {
            cfg,
            service,
            replica,
        })
    }

    /// The runtime configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The cost model (exposed for experiments comparing against the
    /// discrete-event simulator).
    pub fn service_model(&self) -> &ServiceModel {
        &self.service
    }

    /// The model replica (exposed for the network front end and for test
    /// oracles computing reference checksums).
    pub fn replica(&self) -> &ReplicaModel {
        &self.replica
    }

    /// The replica behind its shared handle (what the executors and the
    /// model registry hold).
    pub fn replica_arc(&self) -> Arc<ReplicaModel> {
        Arc::clone(&self.replica)
    }

    /// Builds an additional calibrated replica with the configured LUT
    /// shape but a different table seed — a distinct model the HTTP front
    /// end can register alongside the default one.
    ///
    /// # Errors
    ///
    /// Engine or simulator failures while building the table.
    pub fn build_replica(&self, table_seed: u64) -> Result<Arc<ReplicaModel>> {
        Ok(Arc::new(ReplicaModel::build(
            self.service.engine(),
            self.cfg.lut,
            table_seed,
        )?))
    }

    /// Poisson arrival times for `load` (exponential inter-arrivals, the
    /// same construction as `pimdl_engine::scheduler`).
    fn arrival_times(load: &OpenLoop) -> Vec<f64> {
        let mut rng = DataRng::new(load.seed);
        let mut t = 0.0f64;
        let mut arrivals = Vec::with_capacity(load.num_requests);
        for _ in 0..load.num_requests {
            let u: f64 = f64::from(rng.uniform(1e-7, 1.0));
            t += -u.ln() / load.rate_rps;
            arrivals.push(t);
        }
        arrivals
    }

    fn payload_rng(load: &OpenLoop) -> DataRng {
        DataRng::new(
            load.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1),
        )
    }

    /// Runs the load through the deterministic single-threaded event loop
    /// on a virtual clock. Identical seeds give bit-identical reports.
    ///
    /// # Errors
    ///
    /// Load validation, engine, or simulator failures.
    pub fn run_virtual(&self, load: &OpenLoop) -> Result<ServeReport> {
        load.validate()?;
        let clock = VirtualClock::new();
        let metrics = Metrics::new(self.cfg.policy.max_batch);
        let deadline_rel = self.cfg.deadline_s;

        let arrivals = Self::arrival_times(load);
        let mut payload_rng = Self::payload_rng(load);
        let requests: Vec<Request> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                self.replica
                    .make_request(i as u64, t, t + deadline_rel, &mut payload_rng)
            })
            .collect::<Result<_>>()?;

        let mut queue = AdmissionQueue::new(self.cfg.queue_capacity)?;
        let mut batcher = ContinuousBatcher::new(self.cfg.policy)?;
        let mut shards = ShardManager::new(self.cfg.num_shards)?;
        let mut inflight: Vec<InflightBatch> = Vec::new();
        let mut records: Vec<RequestRecord> = Vec::with_capacity(requests.len());
        let mut next_arrival = 0usize;

        let max_iters = 1_000_000 + requests.len() * 64;
        for _ in 0..max_iters {
            // Next event strictly after the current time: an arrival, a
            // completion, the flush deadline, a shard freeing up, or the
            // earliest request deadline (for shed timing). Anything at or
            // before `now` was already handled by the previous iteration's
            // pump, so past times must not pin the clock.
            let now0 = clock.now();
            let mut t_next = f64::INFINITY;
            let consider = |t_next: &mut f64, t: f64| {
                if t > now0 {
                    *t_next = t_next.min(t);
                }
            };
            if next_arrival < requests.len() {
                consider(&mut t_next, requests[next_arrival].arrival_s);
            }
            for &(finish, _, _, _) in &inflight {
                consider(&mut t_next, finish);
            }
            if !batcher.is_empty() {
                if let Some(d) = batcher.flush_deadline_s() {
                    consider(&mut t_next, d);
                }
                consider(&mut t_next, shards.earliest_free_s());
            }
            if let Some(d) = queue.min_deadline_s() {
                consider(&mut t_next, d);
            }
            if let Some(d) = batcher.min_deadline_s() {
                consider(&mut t_next, d);
            }
            if t_next.is_infinite() {
                break; // quiescent: everything terminated
            }
            clock.advance_to(t_next);
            let now = clock.now();

            // 1. Completions (deterministic order: finish time, then shard).
            let mut done: Vec<InflightBatch> = Vec::new();
            inflight.retain_mut(|entry| {
                if entry.0 <= now {
                    done.push((entry.0, entry.1, entry.2, std::mem::take(&mut entry.3)));
                    false
                } else {
                    true
                }
            });
            done.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite").then(a.1.cmp(&b.1)));
            for (finish, shard, batch_size, batch) in done {
                for (req, correct) in batch {
                    metrics.record_completed(finish - req.arrival_s);
                    records.push(RequestRecord {
                        id: req.id,
                        arrival_s: req.arrival_s,
                        outcome: Outcome::Completed {
                            latency_s: finish - req.arrival_s,
                            shard,
                            batch_size,
                            correct,
                        },
                    });
                }
            }

            // 2. Arrivals.
            while next_arrival < requests.len() && requests[next_arrival].arrival_s <= now {
                let req = requests[next_arrival].clone();
                next_arrival += 1;
                metrics.record_submitted();
                if let Err(back) = queue.try_admit(req) {
                    metrics.record_rejected();
                    records.push(RequestRecord {
                        id: back.id,
                        arrival_s: back.arrival_s,
                        outcome: Outcome::Rejected { at_s: now },
                    });
                }
                metrics.observe_queue_depth(queue.len());
            }

            // 3. Pump: shed, refill, dispatch while shards can absorb work.
            loop {
                for r in queue.shed_expired(now) {
                    metrics.record_deadline_exceeded();
                    records.push(RequestRecord {
                        id: r.id,
                        arrival_s: r.arrival_s,
                        outcome: Outcome::DeadlineExceeded { at_s: now },
                    });
                }
                for r in batcher.shed_expired(now) {
                    metrics.record_deadline_exceeded();
                    records.push(RequestRecord {
                        id: r.id,
                        arrival_s: r.arrival_s,
                        outcome: Outcome::DeadlineExceeded { at_s: now },
                    });
                }
                while !batcher.is_full() {
                    match queue.pop() {
                        Some(r) => batcher.push(r),
                        None => break,
                    }
                }
                metrics.observe_queue_depth(queue.len());
                if batcher.ready(now) && shards.any_free(now) {
                    let batch = batcher.take();
                    let service_s = self.service.batch_service_s(batch.len())?;
                    let ticket = shards.dispatch(now, service_s);
                    metrics.record_batch(batch.len());
                    metrics.record_shard_wakeup();
                    let flags = self.replica.execute_batch(&batch)?;
                    let executed: Vec<(Request, bool)> = batch.into_iter().zip(flags).collect();
                    inflight.push((ticket.finish_s, ticket.shard, executed.len(), executed));
                    continue; // another batch may be ready for another shard
                }
                break;
            }

            if next_arrival >= requests.len()
                && inflight.is_empty()
                && batcher.is_empty()
                && queue.is_empty()
            {
                break;
            }
        }

        if records.len() != requests.len() {
            return Err(ServeError::Config {
                detail: format!(
                    "event loop stalled: {} of {} requests terminated",
                    records.len(),
                    requests.len()
                ),
            });
        }
        Ok(ServeReport {
            records,
            metrics: metrics.snapshot(),
            makespan_s: clock.now(),
        })
    }

    /// Runs the load on real threads: an open-loop generator, a batcher
    /// thread, and one worker per shard (the network front ends'
    /// [`ThreadedExecutor`]). `speedup` compresses simulated seconds into
    /// real time (`1.0` = real time).
    ///
    /// # Errors
    ///
    /// Load validation, clock configuration, engine, or simulator
    /// failures.
    pub fn run_threaded(&self, load: &OpenLoop, speedup: f64) -> Result<ServeReport> {
        load.validate()?;
        // Payloads (indices + reference checksums) are generated before the
        // clock starts: the reference computation is a simulation artifact,
        // and at high clock speedups its real cost would otherwise stretch
        // the open-loop arrival schedule by whole simulated seconds.
        let payloads: Vec<Request> = {
            let mut payload_rng = Self::payload_rng(load);
            (0..load.num_requests)
                .map(|i| {
                    self.replica
                        .make_request(i as u64, 0.0, 0.0, &mut payload_rng)
                })
                .collect::<Result<_>>()?
        };
        let clock = Arc::new(RealClock::accelerated(speedup)?);
        let metrics = Arc::new(Metrics::new(self.cfg.policy.max_batch));
        let deadline_rel = self.cfg.deadline_s;
        let num_shards = self.cfg.num_shards;

        let front = Mutex::new(FrontEnd {
            queue: AdmissionQueue::new(self.cfg.queue_capacity)?,
            closed: false,
        });
        // The batcher thread parks on a readiness reactor instead of a
        // condition variable with a fallback poll: the generator wakes it
        // with WAKE_ARRIVAL, shard workers with WAKE_COMPLETION, and with
        // nothing timed pending it parks indefinitely — an idle front end
        // burns zero wakeups. Wake tokens are remembered by the poller's
        // pipe, so the update-under-mutex / drop / park sequence cannot
        // lose a notification.
        let mut park = EpollPoller::new(speedup)?;
        let wake_front = park.waker(WAKE_ARRIVAL);
        let park_stats = park.stats();
        let mut executor = ThreadedExecutor::new(
            Arc::clone(&clock),
            Arc::clone(&metrics),
            park.waker(WAKE_COMPLETION),
            num_shards,
        );
        let error_slot: Mutex<Option<ServeError>> = Mutex::new(None);

        let (records_tx, records_rx) = mpsc::channel::<RequestRecord>();

        let arrivals = Self::arrival_times(load);
        let mut records = Vec::with_capacity(load.num_requests);

        std::thread::scope(|s| -> Result<()> {
            // Load generator: open-loop Poisson arrivals.
            let gen_tx = records_tx.clone();
            let (clock_ref, front_ref, metrics_ref) = (&*clock, &front, &*metrics);
            let arrivals_ref = &arrivals;
            let wake_front_ref = &wake_front;
            s.spawn(move || {
                for (&target, payload) in arrivals_ref.iter().zip(payloads) {
                    clock_ref.sleep(target - clock_ref.now());
                    let arrival = clock_ref.now();
                    let req = Request {
                        arrival_s: arrival,
                        deadline_s: arrival + deadline_rel,
                        ..payload
                    };
                    metrics_ref.record_submitted();
                    let mut g = front_ref.lock().expect("front end poisoned");
                    match g.queue.try_admit(req) {
                        Ok(()) => {
                            metrics_ref.observe_queue_depth(g.queue.len());
                            drop(g);
                            wake_front_ref.wake();
                        }
                        Err(back) => {
                            drop(g);
                            metrics_ref.record_rejected();
                            let _ = gen_tx.send(RequestRecord {
                                id: back.id,
                                arrival_s: back.arrival_s,
                                outcome: Outcome::Rejected { at_s: arrival },
                            });
                        }
                    }
                }
                let mut g = front_ref.lock().expect("front end poisoned");
                g.closed = true;
                drop(g);
                wake_front_ref.wake();
            });

            // Batcher: drains the queue, forms batches, routes to shards,
            // and books what the shard workers finish.
            let batcher_tx = records_tx.clone();
            let (service, replica) = (&self.service, &self.replica);
            let (error_ref, executor) = (&error_slot, &mut executor);
            s.spawn(move || {
                let mut batcher =
                    ContinuousBatcher::new(self.cfg.policy).expect("policy validated");
                let mut shards = ShardManager::new(num_shards).expect("shards validated");
                let mut events: Vec<IoEvent> = Vec::new();
                let mut g = front_ref.lock().expect("front end poisoned");
                loop {
                    let now = clock_ref.now();
                    // Sampled before the drain: a worker publishes its
                    // batch before it stops counting it in flight, so
                    // "nothing in flight" here makes this drain the last.
                    let in_flight = executor.in_flight();
                    let done = executor.drain();
                    let mut shed = g.queue.shed_expired(now);
                    shed.extend(batcher.shed_expired(now));
                    while !batcher.is_full() {
                        match g.queue.pop() {
                            Some(r) => batcher.push(r),
                            None => break,
                        }
                    }
                    metrics_ref.observe_queue_depth(g.queue.len());
                    if !shed.is_empty() || !done.is_empty() {
                        drop(g);
                        for batch in done {
                            let batch_size = batch.results.len();
                            for (req, correct) in batch.results {
                                let latency_s = batch.finish_s - req.arrival_s;
                                metrics_ref.record_completed(latency_s);
                                let _ = batcher_tx.send(RequestRecord {
                                    id: req.id,
                                    arrival_s: req.arrival_s,
                                    outcome: Outcome::Completed {
                                        latency_s,
                                        shard: batch.shard,
                                        batch_size,
                                        correct,
                                    },
                                });
                            }
                        }
                        for r in shed {
                            metrics_ref.record_deadline_exceeded();
                            let _ = batcher_tx.send(RequestRecord {
                                id: r.id,
                                arrival_s: r.arrival_s,
                                outcome: Outcome::DeadlineExceeded { at_s: now },
                            });
                        }
                        g = front_ref.lock().expect("front end poisoned");
                        continue;
                    }
                    // Drain on shutdown: a closed front end flushes partial
                    // batches as soon as a shard frees up.
                    let drain = g.closed && g.queue.is_empty();
                    if batcher.is_empty() && drain && in_flight == 0 {
                        break;
                    }
                    let free = executor.free_shards();
                    let flush = !batcher.is_empty() && (batcher.ready(now) || drain);
                    if flush {
                        if let Some(sid) = shards.least_loaded_among(&free) {
                            drop(g);
                            let batch = batcher.take();
                            let size = batch.len();
                            let sent = service.batch_service_s(size).and_then(|service_s| {
                                shards.dispatch_to(sid, now, service_s);
                                metrics_ref.record_batch(size);
                                executor.submit(sid, service_s, replica, batch)
                            });
                            if let Err(e) = sent {
                                // Impossible after prewarm with live workers.
                                *error_ref.lock().expect("error slot poisoned") = Some(e);
                                break;
                            }
                            g = front_ref.lock().expect("front end poisoned");
                            continue;
                        }
                    }
                    // Nothing actionable: park on the reactor until an
                    // arrival or completion wake, the flush window, or the
                    // next deadline. The flush window only matters while a
                    // shard could absorb the batch — with every shard busy
                    // the completion wake is the real signal, so parking
                    // without it avoids a busy-wait on a ready batch.
                    let mut wake = WakeAt::never();
                    if free.iter().any(|&f| f) {
                        wake.at(batcher.flush_deadline_s());
                    }
                    wake.after(g.queue.min_deadline_s());
                    wake.after(batcher.min_deadline_s());
                    drop(g);
                    if let Err(e) = park.wait(wake.timeout(now), &mut events) {
                        *error_ref.lock().expect("error slot poisoned") = Some(e);
                        break;
                    }
                    g = front_ref.lock().expect("front end poisoned");
                }
            });

            drop(records_tx); // the ledger closes when all stages finish
            for record in records_rx.iter() {
                records.push(record);
            }
            Ok(())
        })?;

        executor.shutdown()?;
        if let Some(e) = error_slot.into_inner().expect("error slot poisoned") {
            return Err(e);
        }
        Ok(ServeReport {
            records,
            metrics: metrics.snapshot_with_reactor(park_stats.snapshot()),
            makespan_s: clock.now(),
        })
    }
}
