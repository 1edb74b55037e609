//! The serving runtime: admission → continuous batching → shard dispatch.
//!
//! The policy — admit, shed, flush, dispatch, deliver — is written once,
//! in `server.rs`'s crate-private `Pipeline` over the one batcher
//! ([`crate::FairBatcher`]), and the event loop once,
//! in `conn::drive`. [`Runtime::run_virtual`] is that loop under a front
//! with no connections: a [`crate::reactor::SimPoller`] scripted with one
//! `WAKE_ARRIVAL` per pre-generated arrival, a
//! [`crate::clock::VirtualClock`] only the poller advances, and
//! [`Shards::simulated`] scheduling completions on the same script;
//! terminal outcomes go into the ledger. One thread, no sleeps, bit-for-bit
//! deterministic per seed; this is what the latency/batching assertions
//! test, and it sheds, flushes and wakes by the rules every server does.
//!
//! The line-protocol front end ([`Runtime::serve`]) runs the same pipeline
//! with arrivals off a socket and outcomes encoded as reply lines, on real
//! shard worker threads ([`Shards::threaded`]); the HTTP front end
//! ([`Runtime::serve_http`]) runs it per tenant and model, and the fabric
//! ([`Runtime::serve_fabric`]) runs the same batcher per table, on the
//! same connection core.
//!
//! Every driver upholds the conservation invariant: every submitted
//! request terminates in exactly one of `Completed`, `Rejected`, or
//! `DeadlineExceeded` — nothing is ever silently dropped. Deadlines cover
//! time-to-dispatch: a request shed before its batch leaves the front end
//! is `DeadlineExceeded`; once dispatched it runs to completion.

use std::iter::Peekable;
use std::sync::Arc;
use std::vec;

use pimdl_engine::pipeline::{PimDlEngine, ServingConfig};
use pimdl_engine::scheduler::BatchingPolicy;
use pimdl_engine::shapes::TransformerShape;
use pimdl_sim::{LutWorkload, PlatformConfig};
use pimdl_tensor::rng::DataRng;

use crate::clock::{Clock, VirtualClock};
use crate::conn::{self, ConnState, Conns, Front};
use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::reactor::{EventSource, SimPoller, Token, WAKE_ARRIVAL};
use crate::request::{Outcome, Request, RequestRecord};
use crate::server::Pipeline;
use crate::shard::{ReplicaModel, ServiceModel, Shards};
use crate::Result;

pub use pimdl_engine::fabric::MAX_SHARDS;

/// Static configuration of a serving runtime.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Continuous-batching policy (validated; see
    /// [`BatchingPolicy::validate`]).
    pub policy: BatchingPolicy,
    /// Per-request serving parameters; the `batch` field is overridden by
    /// the batcher per dispatch.
    pub base: ServingConfig,
    /// Model replicas (shards) the batches route across, at most
    /// [`MAX_SHARDS`].
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
        self.lut.validate()?;
        if !(1..=MAX_SHARDS).contains(&self.num_shards) {
            return Err(ServeError::Config {
                detail: format!(
                    "num_shards must be in 1..={MAX_SHARDS}, got {}",
                    self.num_shards
                ),
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

/// The serving runtime: a model replica sharded across simulated PIM
/// DIMM groups behind a batching front end.
#[derive(Debug)]
pub struct Runtime {
    cfg: ServeConfig,
    service: ServiceModel,
    replica: Arc<ReplicaModel>,
}

/// A pipeline sink booking each request's terminal outcome into `records`.
fn ledger(records: &mut Vec<RequestRecord>) -> impl FnMut(Request, (), Outcome) + '_ {
    |req, (), outcome| {
        records.push(RequestRecord {
            id: req.id,
            arrival_s: req.arrival_s,
            outcome,
        });
    }
}

/// [`Runtime::run_virtual`]'s front on the connection core: no
/// connections, arrivals from the pre-generated list, terminal outcomes
/// into the ledger.
#[derive(Debug)]
struct LedgerFront {
    pipeline: Pipeline<()>,
    clock: Arc<VirtualClock>,
    metrics: Arc<Metrics>,
    /// The requests in arrival order; one is released once the clock has
    /// reached its `arrival_s` (the script wakes the loop there with one
    /// `WAKE_ARRIVAL` each).
    arrivals: Peekable<vec::IntoIter<Request>>,
    records: Vec<RequestRecord>,
}

/// The poller under [`LedgerFront`] has no listener, so no connection is
/// ever accepted and nothing is fed.
impl ConnState for () {
    fn feed(&mut self, _bytes: &[u8]) {}
}

impl<'s> Front<Shards<'s>> for LedgerFront {
    type Conn = ();

    fn next_timeout(&self, shards: &Shards<'s>) -> Option<f64> {
        self.pipeline.next_timeout(self.clock.now(), shards)
    }

    fn accept(&self) {}

    fn readable(
        &mut self,
        _conns: &mut Conns<'_, ()>,
        _shards: &mut Shards<'s>,
        _t: Token,
        _eof: bool,
    ) -> Result<()> {
        Ok(())
    }

    /// Books what the shards finished, admits what has arrived since the
    /// last step, and pumps.
    fn step(&mut self, conns: &mut Conns<'_, ()>, shards: &mut Shards<'s>) -> Result<bool> {
        let mut progress = self
            .pipeline
            .deliver(shards, &mut ledger(&mut self.records))?;
        let now = self.clock.now();
        while let Some(req) = self.arrivals.next_if(|r| r.arrival_s <= now) {
            progress = true;
            self.metrics.record_submitted();
            let rejected = RequestRecord {
                id: req.id,
                arrival_s: req.arrival_s,
                outcome: Outcome::Rejected { at_s: now },
            };
            if self.pipeline.admit(("", ""), (), || req).is_some() {
                self.records.push(rejected);
            }
        }
        let mut sink = ledger(&mut self.records);
        progress |= self.pipeline.pump(now, conns.draining, shards, &mut sink)?;
        self.pipeline.check_step();
        shards.check_step();
        Ok(progress)
    }

    fn idle(&self, shards: &Shards<'s>) -> bool {
        self.pipeline.idle(shards)
    }

    fn exit(&mut self, _conns: &mut Conns<'_, ()>, _shards: &mut Shards<'s>) {
        self.pipeline.check_exit();
    }
}

impl Runtime {
    /// Builds a runtime: validates the configuration, tunes the replica's
    /// mapping, and prices every batch size up to `max_batch` into the
    /// service table (so the serving hot path never runs the tuner).
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
        let service = ServiceModel::new(engine, shape, cfg.base, cfg.policy.max_batch)?;
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

    /// The replica behind its shared handle (what the line front end's
    /// batches and the model registry hold).
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

    /// Runs the load through the connection core on a scripted source and
    /// a virtual clock: single-threaded, no sleeps, and identical seeds
    /// give bit-identical reports.
    ///
    /// # Errors
    ///
    /// Load validation, engine, or simulator failures.
    pub fn run_virtual(&self, load: &OpenLoop) -> Result<ServeReport> {
        load.validate()?;
        let clock = Arc::new(VirtualClock::new());
        let metrics = Arc::new(Metrics::new());
        let mut poller = SimPoller::new(Arc::clone(&clock));
        let sim = poller.handle();

        // The script is one arrival wake per request. Nothing asks for
        // shutdown: the run ends when the script and the pipeline are both
        // exhausted, so the last partial batch waits out its window like
        // every other.
        let mut payload_rng = DataRng::new(
            load.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(1),
        );
        // Each request's reference is computed on the shard its batch is
        // dispatched to, as under the servers.
        let requests: Vec<Request> = Self::arrival_times(load)
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                sim.wake_at(t, WAKE_ARRIVAL);
                self.replica
                    .random_request(i as u64, t, t + self.cfg.deadline_s, &mut payload_rng)
            })
            .collect();

        let mut shards = Shards::simulated(self, Arc::clone(&clock), sim)?;
        let mut front = LedgerFront {
            pipeline: Pipeline::line(self, Arc::clone(&metrics))?,
            clock,
            metrics: Arc::clone(&metrics),
            arrivals: requests.into_iter().peekable(),
            records: Vec::new(),
        };
        conn::drive(&mut poller, &mut front, &mut shards)?;
        Ok(ServeReport {
            records: front.records,
            metrics: metrics.snapshot_with_reactor(poller.stats().snapshot()),
            makespan_s: front.clock.now(),
        })
    }
}
