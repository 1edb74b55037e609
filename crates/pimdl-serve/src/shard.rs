//! Model replicas, the least-loaded router, cost-model service times, and
//! the in-process shards the line and HTTP front ends dispatch to.
//!
//! A *shard* is one group of simulated PIM DIMMs holding a full replica of
//! the served model ([`ReplicaModel`]): batches route to the least-loaded
//! shard ([`ShardManager`]), their service time comes from the engine's
//! end-to-end cost model ([`ServiceModel`]), and their *results* come from
//! `pimdl_sim`'s functional LUT execution, verified bit-for-bit against a
//! host reference checksum carried by each request — `lut_checksum_quant`
//! over the same row-major table the simulated PEs read. Both sides run the
//! one INT8 gather (`pimdl_tensor::quant::lut_gather`), so the compare checks
//! the tuned mapping, the band assembly and the dequantization; the gather
//! itself is held to the scalar `QuantLutTable::lookup` and the ISA
//! interpreter by the root `tests/properties.rs`. [`Shards`] is the serving
//! loop's book of those shards and the one place a batch is handed to one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};

use pimdl_engine::pipeline::{PimDlEngine, ServingConfig};
use pimdl_engine::scheduler::MAX_BATCH;
use pimdl_engine::shapes::TransformerShape;
use pimdl_lutnn::kernels::lut_checksum_quant;
use pimdl_lutnn::lut::QuantLutTable;
use pimdl_sim::exec::{run_lut_kernel, LutKernelData};
use pimdl_sim::{LutWorkload, Mapping, PlatformConfig};
use pimdl_tensor::pool::WorkerPool;
use pimdl_tensor::quant::QuantMatrix;
use pimdl_tensor::rng::DataRng;

use crate::clock::{Clock, RealClock, VirtualClock};
use crate::error::ServeError;
use crate::metrics::Metrics;
use crate::reactor::{SimHandle, Waker, WAKE_COMPLETION};
use crate::request::Request;
use crate::runtime::{Runtime, MAX_SHARDS};
use crate::Result;

/// One model replica: the quantized LUT every request on a shard queries,
/// plus the tuned mapping it executes under.
///
/// The replica holds one row-major [`QuantLutTable`]: the simulated PEs
/// gather from it and the host-side integrity check streams the same bytes.
#[derive(Debug)]
pub struct ReplicaModel {
    platform: PlatformConfig,
    workload: LutWorkload,
    mapping: Mapping,
    table: QuantLutTable,
    /// Reference gathers run so far (a statistic; publishes nothing).
    reference_gathers: AtomicU64,
}

/// Largest table (`CB·CT·F` INT8 bytes), query index list (`N·CB` u16s)
/// or query output (`N·F` f32s) a replica holds, in bytes. Every served
/// shape is far below it (`line_large`'s table is 2.4 MB); a shape above it
/// is refused before anything is allocated or tuned.
const MAX_REPLICA_BYTES: usize = 16 << 20;

impl ReplicaModel {
    /// Refuses a workload shape no replica is built for: one that fails
    /// [`LutWorkload::validate`], whose `CT` a u16 index cannot address, or
    /// whose table or one query's indices or output exceed
    /// [`MAX_REPLICA_BYTES`].
    pub(crate) fn check_workload(w: &LutWorkload) -> Result<()> {
        w.validate()?;
        let too_big = |what: &str, bytes: Option<usize>| match bytes {
            Some(b) if b <= MAX_REPLICA_BYTES => Ok(()),
            _ => Err(ServeError::Config {
                detail: format!(
                    "workload ({}, {}, {}, {}): {what} exceeds {MAX_REPLICA_BYTES} bytes",
                    w.n, w.cb, w.ct, w.f
                ),
            }),
        };
        if w.ct > usize::from(u16::MAX) + 1 {
            return Err(ServeError::Config {
                detail: format!("workload CT {} exceeds the u16 index range", w.ct),
            });
        }
        let bytes =
            |a: usize, b: usize, c: usize| a.checked_mul(b).and_then(|ab| ab.checked_mul(c));
        too_big("the table", bytes(w.cb, w.ct, w.f))?;
        too_big("a query's indices", bytes(w.n, w.cb, 2))?;
        too_big("a query's output", bytes(w.n, w.f, 4))
    }

    /// Builds a replica for the per-request `workload` shape: tunes a
    /// mapping on the engine's platform and synthesizes a deterministic
    /// INT8 table from `seed`.
    ///
    /// # Errors
    ///
    /// Refuses a shape [`Self::check_workload`] refuses, propagates tuner
    /// failures (no legal mapping for the workload on the platform) and
    /// rejects table shapes the LUT types cannot index.
    pub fn build(engine: &PimDlEngine, workload: LutWorkload, seed: u64) -> Result<Self> {
        Self::check_workload(&workload)?;
        let mapping = engine.mapping_for(&workload)?;
        let mut rng = DataRng::new(seed);
        let codes: Vec<i8> = (0..workload.cb * workload.ct * workload.f)
            .map(|_| rng.index(16) as i8 - 8)
            .collect();
        let qm = QuantMatrix::from_codes(workload.cb * workload.ct, workload.f, 0.05, codes)
            .map_err(|e| ServeError::Config {
                detail: e.to_string(),
            })?;
        let table =
            QuantLutTable::from_parts(workload.cb, workload.ct, workload.f, qm).map_err(|e| {
                ServeError::Config {
                    detail: e.to_string(),
                }
            })?;
        Ok(ReplicaModel {
            platform: engine.platform().clone(),
            workload,
            mapping,
            table,
            reference_gathers: AtomicU64::new(0),
        })
    }

    /// The replica's quantized look-up table.
    pub fn table(&self) -> &QuantLutTable {
        &self.table
    }

    /// The per-request workload shape.
    pub fn workload(&self) -> LutWorkload {
        self.workload
    }

    /// Synthesizes a request: random indices plus the host-reference
    /// checksum of the output they should produce.
    ///
    /// # Errors
    ///
    /// Propagates the reference gather's shape check (unreachable here:
    /// the indices are generated in range for this workload).
    pub fn make_request(
        &self,
        id: u64,
        arrival_s: f64,
        deadline_s: f64,
        rng: &mut DataRng,
    ) -> Result<Request> {
        let w = self.workload;
        let indices: Vec<u16> = (0..w.n * w.cb).map(|_| rng.index(w.ct) as u16).collect();
        self.request_from_valid(id, arrival_s, deadline_s, indices)
    }

    /// Builds a request from externally supplied indices (the network
    /// front end's path): [`Self::validate_indices`], then the
    /// host-reference checksum the PIM execution is verified against.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] when the index count is not
    /// `n × CB` or any index reaches past the codebook.
    pub fn request_from_indices(
        &self,
        id: u64,
        arrival_s: f64,
        deadline_s: f64,
        indices: Vec<u16>,
    ) -> Result<Request> {
        self.validate_indices(&indices)?;
        self.request_from_valid(id, arrival_s, deadline_s, indices)
    }

    /// The expensive half of [`Self::request_from_indices`], for indices
    /// that already passed [`Self::validate_indices`]: the server loops
    /// validate, run their admission refusals, and only then pay for this.
    pub(crate) fn request_from_valid(
        &self,
        id: u64,
        arrival_s: f64,
        deadline_s: f64,
        indices: Vec<u16>,
    ) -> Result<Request> {
        let expected_checksum = self.reference_checksum(&indices)?;
        Ok(Request {
            id,
            arrival_s,
            deadline_s,
            indices,
            expected_checksum,
        })
    }

    /// Cheap admission check of a query against the replica's workload
    /// shape: index count and codebook range, no table access.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a wrong index count or an index
    /// outside the codebook range.
    pub fn validate_indices(&self, indices: &[u16]) -> Result<()> {
        let w = self.workload;
        if indices.len() != w.n * w.cb {
            return Err(ServeError::Config {
                detail: format!(
                    "query carries {} indices, workload shape needs {} ({}x{})",
                    indices.len(),
                    w.n * w.cb,
                    w.n,
                    w.cb
                ),
            });
        }
        if let Some(&bad) = indices.iter().find(|&&i| usize::from(i) >= w.ct) {
            return Err(ServeError::Config {
                detail: format!("query index {bad} outside codebook range 0..{}", w.ct),
            });
        }
        Ok(())
    }

    /// Host-reference checksum of the output `indices` should produce,
    /// after validating them against the replica's workload shape.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a wrong index count or an index
    /// outside the codebook range.
    pub fn checksum_of(&self, indices: &[u16]) -> Result<f64> {
        self.validate_indices(indices)?;
        self.reference_checksum(indices)
    }

    /// Reference gathers this replica has run: one per request that got as
    /// far as its checksum, none for a request refused before it.
    pub fn reference_gathers(&self) -> u64 {
        self.reference_gathers.load(Ordering::Relaxed)
    }

    /// Host-reference output checksum: the shared INT8 gather over the
    /// replica's table (the same i32 accumulate and dequantization the
    /// simulated PEs perform), summed over the output in row-major order
    /// so the comparison is exact, not approximate.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] when the indices do not form an
    /// `n × CB` matrix or reach past the codebook — unreachable for
    /// callers that validate first, but propagated rather than panicking
    /// because this runs on the serving hot path.
    fn reference_checksum(&self, indices: &[u16]) -> Result<f64> {
        self.reference_gathers.fetch_add(1, Ordering::Relaxed);
        lut_checksum_quant(self.workload.n, indices, &self.table).map_err(|e| ServeError::Config {
            detail: format!("reference LUT gather: {e}"),
        })
    }

    /// Executes a request's query functionally on the simulated PEs and
    /// returns whether the output checksum matches the host reference.
    ///
    /// # Errors
    ///
    /// Propagates simulator workload/mapping mismatches (impossible for
    /// requests built by [`ReplicaModel::make_request`]).
    pub fn execute(&self, req: &Request) -> Result<bool> {
        let (out, _cost) = run_lut_kernel(
            &self.platform,
            &self.workload,
            &self.mapping,
            LutKernelData {
                indices: &req.indices,
                table: self.table.table().codes(),
                scale: self.table.table().scale(),
            },
        )?;
        let checksum: f64 = out.as_slice().iter().map(|&v| f64::from(v)).sum();
        Ok(checksum == req.expected_checksum)
    }

    /// Executes a batch of requests with rows fanned across the persistent
    /// worker pool, returning one correctness flag per request (in order).
    ///
    /// Single-request batches run inline with no dispatch overhead.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator failure of any request.
    pub fn execute_batch(&self, reqs: &[Request]) -> Result<Vec<bool>> {
        let mut slots: Vec<Result<bool>> = reqs.iter().map(|_| Ok(false)).collect();
        let pool = WorkerPool::global();
        let chunk = reqs.len().div_ceil(pool.threads()).max(1);
        pool.run_row_bands(&mut slots, 1, chunk, |first, band| {
            for (local, slot) in band.iter_mut().enumerate() {
                *slot = self.execute(&reqs[first + local]);
            }
        });
        slots.into_iter().collect()
    }
}

/// A dispatch decision: where a batch went and when it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DispatchTicket {
    /// Chosen shard.
    pub shard: usize,
    /// Service start (simulated seconds; `max(now, shard busy-until)`).
    pub start_s: f64,
    /// Service completion (simulated seconds).
    pub finish_s: f64,
}

/// Least-loaded router over the shard replicas.
///
/// Tracks each shard's busy-until horizon as estimated by the cost model;
/// ties break toward the lowest shard id, so routing is deterministic.
#[derive(Debug)]
pub struct ShardManager {
    busy_until_s: Vec<f64>,
    dispatched: Vec<u64>,
    wakeups: Vec<u64>,
}

impl ShardManager {
    /// A manager over `num_shards` replicas.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for zero shards or more than
    /// [`MAX_SHARDS`].
    pub fn new(num_shards: usize) -> Result<Self> {
        if !(1..=MAX_SHARDS).contains(&num_shards) {
            return Err(ServeError::Config {
                detail: format!("shard manager needs 1..={MAX_SHARDS} shards, got {num_shards}"),
            });
        }
        Ok(ShardManager {
            busy_until_s: vec![0.0; num_shards],
            dispatched: vec![0; num_shards],
            wakeups: vec![0; num_shards],
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.busy_until_s.len()
    }

    /// The shard with the smallest busy-until horizon (lowest id on ties).
    pub fn least_loaded(&self) -> usize {
        let mut best = 0;
        for (i, &b) in self.busy_until_s.iter().enumerate() {
            if b < self.busy_until_s[best] {
                best = i;
            }
        }
        best
    }

    /// Least-loaded shard among those marked `eligible` (`None` if no
    /// shard is eligible).
    pub fn least_loaded_among(&self, eligible: &[bool]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, &b) in self.busy_until_s.iter().enumerate() {
            if eligible.get(i).copied().unwrap_or(false)
                && best.is_none_or(|j| b < self.busy_until_s[j])
            {
                best = Some(i);
            }
        }
        best
    }

    /// Routes a batch to the least-loaded shard at `now`.
    pub fn dispatch(&mut self, now: f64, service_s: f64) -> DispatchTicket {
        let shard = self.least_loaded();
        self.dispatch_to(shard, now, service_s)
    }

    /// Dispatches to a specific shard, updating its horizon.
    pub fn dispatch_to(&mut self, shard: usize, now: f64, service_s: f64) -> DispatchTicket {
        let start_s = now.max(self.busy_until_s[shard]);
        let finish_s = start_s + service_s;
        self.busy_until_s[shard] = finish_s;
        self.dispatched[shard] += 1;
        DispatchTicket {
            shard,
            start_s,
            finish_s,
        }
    }

    /// Batches dispatched per shard.
    pub fn dispatch_counts(&self) -> &[u64] {
        &self.dispatched
    }

    /// Records one wakeup of `shard` (delivered through its reactor wake
    /// token). In a spurious-free run `wakeup_counts == dispatch_counts`.
    pub fn record_wakeup(&mut self, shard: usize) {
        self.wakeups[shard] += 1;
    }

    /// Wake-token deliveries per shard.
    pub fn wakeup_counts(&self) -> &[u64] {
        &self.wakeups
    }
}

/// Batch service times from the engine's end-to-end cost model, priced
/// once per batch size when the model is built, so dispatch only reads a
/// table.
#[derive(Debug)]
pub struct ServiceModel {
    engine: PimDlEngine,
    /// Service seconds of a batch of `b` requests, at index `b - 1`.
    batch_s: Vec<f64>,
}

impl ServiceModel {
    /// A service model for `shape` with per-request parameters `base`
    /// (whose `batch` field is overridden per batch size), pricing every
    /// batch size in `1..=max_batch`.
    ///
    /// # Errors
    ///
    /// Returns the base config's validation error, [`ServeError::Config`]
    /// for a `max_batch` outside `1..=MAX_BATCH`, and engine errors.
    pub fn new(
        engine: PimDlEngine,
        shape: TransformerShape,
        base: ServingConfig,
        max_batch: usize,
    ) -> Result<Self> {
        base.validate()?;
        if !(1..=MAX_BATCH).contains(&max_batch) {
            return Err(ServeError::Config {
                detail: format!(
                    "service model max_batch must be in 1..={MAX_BATCH}, got {max_batch}"
                ),
            });
        }
        let batch_s = (1..=max_batch)
            .map(|batch| {
                Ok(engine
                    .serve(&shape, &ServingConfig { batch, ..base })?
                    .total_s)
            })
            .collect::<Result<_>>()?;
        Ok(ServiceModel { engine, batch_s })
    }

    /// The engine backing the cost model.
    pub fn engine(&self) -> &PimDlEngine {
        &self.engine
    }

    /// Service time of one batch of `batch` requests (seconds).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a batch of 0 or one past the
    /// model's `max_batch`.
    pub fn batch_service_s(&self, batch: usize) -> Result<f64> {
        batch
            .checked_sub(1)
            .and_then(|i| self.batch_s.get(i))
            .copied()
            .ok_or_else(|| ServeError::Config {
                detail: format!(
                    "no service time for a batch of {batch} (priced 1..={})",
                    self.batch_s.len()
                ),
            })
    }
}

// ---------------------------------------------------------------------------
// Shards — the in-process shards under the line and HTTP front ends
// ---------------------------------------------------------------------------

/// What a shard reports for a batch: `(shard, finish_s, batch, flags or
/// error)`.
type Finished = (usize, f64, Vec<Request>, Result<Vec<bool>>);

/// What a shard thread is handed: the batch's service time, the model it
/// executes against, and the batch.
type Work = (f64, Arc<ReplicaModel>, Vec<Request>);

/// A finished batch, as the front ends deliver it.
#[derive(Debug)]
pub(crate) struct Done {
    pub(crate) shard: usize,
    /// Completion time (simulated seconds).
    pub(crate) finish_s: f64,
    /// The batch's requests paired with their correctness flags, in
    /// dispatch order.
    pub(crate) results: Vec<(Request, bool)>,
}

/// How [`Shards`] runs a batch; its constructor fixes it.
#[derive(Debug)]
enum Exec {
    /// Inline at dispatch, the completion due on the
    /// [`crate::reactor::SimPoller`] script at `now + service_s`.
    Simulated {
        clock: Arc<VirtualClock>,
        sim: SimHandle,
        pending: Vec<Finished>,
    },
    /// On the shard's worker thread, which reports on `done`.
    Threaded {
        work: Vec<mpsc::SyncSender<Work>>,
        done: mpsc::Receiver<Finished>,
        workers: Vec<JoinHandle<()>>,
    },
}

/// The in-process shards the line and HTTP front ends dispatch to, with
/// the serving loop's whole book of them: the [`ShardManager`] horizon and
/// counts, which shards are free, how many batches are out, and the
/// finished batches not yet delivered.
///
/// The book is the loop's alone. Under [`Shards::threaded`] a shard thread
/// gets its work on its own channel and reports on the one completion
/// channel; those channels and the completion [`Waker`] are all that cross
/// to it. A shard is free again only once the loop has drained its
/// completion, so nothing can finish unseen between a drain and an idle
/// check.
#[derive(Debug)]
pub struct Shards<'a> {
    service: &'a ServiceModel,
    book: ShardManager,
    free: Vec<bool>,
    in_flight: usize,
    exec: Exec,
}

impl<'a> Shards<'a> {
    fn new(rt: &'a Runtime, exec: Exec) -> Result<Self> {
        let n = rt.config().num_shards;
        Ok(Shards {
            service: rt.service_model(),
            book: ShardManager::new(n)?,
            free: vec![true; n],
            in_flight: 0,
            exec,
        })
    }

    /// `rt`'s shards on the virtual clock: a batch executes at dispatch,
    /// and its completion is scheduled through `sim` at `now + service_s`
    /// and delivered once the clock reaches it.
    ///
    /// # Errors
    ///
    /// Shard-count validation.
    pub fn simulated(rt: &'a Runtime, clock: Arc<VirtualClock>, sim: SimHandle) -> Result<Self> {
        let pending = Vec::new();
        Self::new(
            rt,
            Exec::Simulated {
                clock,
                sim,
                pending,
            },
        )
    }

    /// `rt`'s shards on one worker thread each, parked on a depth-1
    /// channel. A worker wakes once per batch, executes it, sleeps out the
    /// rest of the cost-model service time on `clock`, reports, and fires
    /// `completion` (the loop's [`WAKE_COMPLETION`] waker). The threads are
    /// joined on drop, each after the batch it is running.
    ///
    /// # Errors
    ///
    /// Shard-count validation.
    pub fn threaded(rt: &'a Runtime, clock: &RealClock, completion: Waker) -> Result<Self> {
        let (report, done) = mpsc::channel::<Finished>();
        let (mut work, mut workers) = (Vec::new(), Vec::new());
        for shard in 0..rt.config().num_shards {
            let (tx, rx) = mpsc::sync_channel::<Work>(1);
            let (clock, report, completion) = (*clock, report.clone(), completion.clone());
            workers.push(thread::spawn(move || {
                for (service_s, model, batch) in rx {
                    let t_recv = clock.now();
                    let flags = model.execute_batch(&batch);
                    // The host-side functional check overlaps the modeled
                    // service time rather than adding to it.
                    clock.sleep(service_s - (clock.now() - t_recv));
                    if report.send((shard, clock.now(), batch, flags)).is_err() {
                        return;
                    }
                    completion.wake();
                }
            }));
            work.push(tx);
        }
        Self::new(
            rt,
            Exec::Threaded {
                work,
                done,
                workers,
            },
        )
    }

    /// The routing book: per-shard horizon, dispatch and wakeup counts.
    pub fn manager(&self) -> &ShardManager {
        &self.book
    }

    /// Batches dispatched and not yet drained.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Whether some shard could take a batch now.
    pub(crate) fn any_free(&self) -> bool {
        self.free.contains(&true)
    }

    /// Dispatches the batch `take` yields to the least-loaded free shard:
    /// prices it from the service table, books it and hands it to the
    /// shard. `take` runs only once a shard is known to be free. Returns
    /// whether a batch left.
    ///
    /// # Errors
    ///
    /// `take`'s errors, a batch size the service table does not price, or
    /// a shard thread that is gone.
    pub(crate) fn dispatch_next(
        &mut self,
        metrics: &Metrics,
        now: f64,
        take: impl FnOnce() -> Result<Option<(Arc<ReplicaModel>, Vec<Request>)>>,
    ) -> Result<bool> {
        let Some(shard) = self.book.least_loaded_among(&self.free) else {
            return Ok(false);
        };
        let Some((model, batch)) = take()? else {
            return Ok(false);
        };
        let service_s = self.service.batch_service_s(batch.len())?;
        self.book.dispatch_to(shard, now, service_s);
        self.book.record_wakeup(shard);
        metrics.record_batch(batch.len());
        metrics.record_shard_wakeup();
        self.free[shard] = false;
        self.in_flight += 1;
        match &mut self.exec {
            Exec::Simulated {
                clock,
                sim,
                pending,
            } => {
                let flags = model.execute_batch(&batch);
                let finish_s = clock.now() + service_s;
                pending.push((shard, finish_s, batch, flags));
                sim.wake_at(finish_s, WAKE_COMPLETION);
            }
            // The shard was free, so its depth-1 channel is empty: the send
            // cannot block.
            Exec::Threaded { work, .. } => {
                work[shard]
                    .send((service_s, model, batch))
                    .map_err(|_| ServeError::Io {
                        detail: format!("shard {shard} worker is gone"),
                    })?;
            }
        }
        Ok(true)
    }

    /// Takes every batch that has finished (on the virtual clock: whose
    /// completion time it has reached), in `(finish_s, shard)` order, and
    /// frees their shards.
    ///
    /// # Errors
    ///
    /// The first execution error among them, in that order: an execution
    /// error fails the run at the drain that collects it.
    pub(crate) fn drain(&mut self) -> Result<Vec<Done>> {
        let mut finished: Vec<Finished> = match &mut self.exec {
            Exec::Simulated { clock, pending, .. } => {
                let now = clock.now();
                let (due, still) = pending.drain(..).partition(|f| f.1 <= now);
                *pending = still;
                due
            }
            Exec::Threaded { done, .. } => done.try_iter().collect(),
        };
        finished.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let mut out = Vec::with_capacity(finished.len());
        for (shard, finish_s, batch, flags) in finished {
            self.free[shard] = true;
            self.in_flight -= 1;
            let results = batch.into_iter().zip(flags?).collect();
            out.push(Done {
                shard,
                finish_s,
                results,
            });
        }
        Ok(out)
    }
}

impl Drop for Shards<'_> {
    /// Closes every work channel and joins the shard threads.
    fn drop(&mut self) {
        if let Exec::Threaded { work, workers, .. } = &mut self.exec {
            work.clear();
            for w in workers.drain(..) {
                // A worker that panicked has already reported through the
                // panic hook; there is no run left to fail.
                let _ = w.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{EpollPoller, EventSource, IoEvent, SimPoller};
    use crate::runtime::ServeConfig;
    use pimdl_sim::PlatformConfig;

    fn engine() -> PimDlEngine {
        let mut p = PlatformConfig::upmem();
        p.num_pes = 64;
        PimDlEngine::new(p)
    }

    fn replica() -> ReplicaModel {
        let w = LutWorkload::new(8, 8, 16, 32).unwrap();
        ReplicaModel::build(&engine(), w, 7).unwrap()
    }

    #[test]
    fn simulated_execution_matches_host_reference() {
        let r = replica();
        let mut rng = DataRng::new(11);
        for id in 0..4 {
            let req = r.make_request(id, 0.0, f64::INFINITY, &mut rng).unwrap();
            assert!(r.execute(&req).unwrap(), "request {id} checksum mismatch");
        }
    }

    #[test]
    fn corrupted_checksum_is_detected() {
        let r = replica();
        let mut rng = DataRng::new(12);
        let mut req = r.make_request(0, 0.0, f64::INFINITY, &mut rng).unwrap();
        req.expected_checksum += 1.0;
        assert!(!r.execute(&req).unwrap());
    }

    #[test]
    fn malformed_queries_are_refused_before_any_gather() {
        let r = replica(); // n=8, CB=8, CT=16
        let good = vec![3u16; 64];
        let mut at_ct = good.clone();
        at_ct[17] = 16;
        for (bad, names) in [
            (&good[..63], "64 (8x8)"),
            (&[][..], "64 (8x8)"),
            (&at_ct[..], "range 0..16"),
        ] {
            for err in [
                r.validate_indices(bad).unwrap_err(),
                r.checksum_of(bad).unwrap_err(),
                r.request_from_indices(0, 0.0, 1.0, bad.to_vec())
                    .unwrap_err(),
            ] {
                assert!(matches!(err, ServeError::Config { .. }), "{err}");
                assert!(err.to_string().contains(names), "{err}");
            }
        }
        assert_eq!(r.reference_gathers(), 0);
        // The well-formed query pays for exactly one gather per checksum.
        r.validate_indices(&good).unwrap();
        assert_eq!(r.reference_gathers(), 0);
        let sum = r.checksum_of(&good).unwrap();
        let req = r.request_from_indices(0, 0.0, 1.0, good).unwrap();
        assert_eq!(req.expected_checksum.to_bits(), sum.to_bits());
        assert_eq!(r.reference_gathers(), 2);
    }

    #[test]
    fn router_prefers_least_loaded_and_breaks_ties_low() {
        let mut m = ShardManager::new(3).unwrap();
        assert_eq!(m.least_loaded(), 0); // all idle: lowest id
        let t0 = m.dispatch(0.0, 10.0);
        assert_eq!(t0.shard, 0);
        assert_eq!((t0.start_s, t0.finish_s), (0.0, 10.0));
        let t1 = m.dispatch(0.0, 5.0);
        assert_eq!(t1.shard, 1);
        let t2 = m.dispatch(0.0, 1.0);
        assert_eq!(t2.shard, 2);
        // shard 2 frees first
        assert_eq!(m.least_loaded(), 2);
        assert_eq!(m.dispatch_counts(), &[1, 1, 1]);
    }

    #[test]
    fn eligibility_mask_filters_routing() {
        let mut m = ShardManager::new(2).unwrap();
        m.dispatch_to(0, 0.0, 1.0);
        assert_eq!(m.least_loaded_among(&[true, true]), Some(1));
        assert_eq!(m.least_loaded_among(&[true, false]), Some(0));
        assert_eq!(m.least_loaded_among(&[false, false]), None);
        assert!(ShardManager::new(0).is_err());
    }

    #[test]
    fn service_times_are_cached_and_amortize_with_batching() {
        let base = ServingConfig {
            batch: 1,
            seq_len: 16,
            v: 4,
            ct: 16,
        };
        let m = ServiceModel::new(engine(), TransformerShape::tiny(), base, 4).unwrap();
        let t1 = m.batch_service_s(1).unwrap();
        let t4 = m.batch_service_s(4).unwrap();
        assert!(t1 > 0.0);
        // Amortization: a batch of 4 is cheaper than 4 singles.
        assert!(t4 < 4.0 * t1, "t4 {t4} vs 4*t1 {}", 4.0 * t1);
        // Only the priced sizes have a service time.
        for outside in [0, 5] {
            let err = m.batch_service_s(outside).unwrap_err();
            assert!(matches!(err, ServeError::Config { .. }), "{err}");
        }
        let bad_base = ServingConfig { seq_len: 0, ..base };
        assert!(ServiceModel::new(engine(), TransformerShape::tiny(), bad_base, 4).is_err());
        for max_batch in [0, MAX_BATCH + 1] {
            assert!(
                ServiceModel::new(engine(), TransformerShape::tiny(), base, max_batch).is_err()
            );
        }
    }

    /// Dispatches, as a one-request batch, a query one index short of
    /// `rt`'s workload: it leaves, and only its execution can fail.
    fn dispatch_malformed(rt: &Runtime, shards: &mut Shards<'_>) {
        let w = rt.replica().workload();
        let req = Request {
            id: 0,
            arrival_s: 0.0,
            deadline_s: f64::INFINITY,
            indices: vec![0; w.n * w.cb - 1],
            expected_checksum: 0.0,
        };
        let metrics = Metrics::new(rt.config().policy.max_batch);
        let take = || Ok(Some((rt.replica_arc(), vec![req])));
        assert!(shards.dispatch_next(&metrics, 0.0, take).unwrap());
        assert_eq!(shards.in_flight(), 1);
    }

    #[test]
    fn an_execution_error_fails_the_drain_that_collects_it_in_both_modes() {
        let mut platform = PlatformConfig::upmem();
        platform.num_pes = 64;
        let rt = Runtime::new(platform, TransformerShape::tiny(), ServeConfig::example()).unwrap();
        let mismatch = |e: ServeError| assert!(matches!(e, ServeError::Sim(_)), "{e}");

        // Simulated: the batch runs at dispatch, but its error surfaces only
        // at the drain that reaches its completion time.
        let clock = Arc::new(VirtualClock::new());
        let sim = SimPoller::new(Arc::clone(&clock));
        let mut shards = Shards::simulated(&rt, Arc::clone(&clock), sim.handle()).unwrap();
        dispatch_malformed(&rt, &mut shards);
        assert!(shards.drain().unwrap().is_empty(), "not due yet");
        clock.advance_to(rt.service_model().batch_service_s(1).unwrap());
        mismatch(shards.drain().unwrap_err());
        assert_eq!(shards.in_flight(), 0);

        // Threaded: the shard reports the error and wakes the loop, and the
        // drain after the wake fails.
        let mut poller = EpollPoller::new(1e6).unwrap();
        let clock = RealClock::accelerated(1e6).unwrap();
        let mut shards = Shards::threaded(&rt, &clock, poller.waker(WAKE_COMPLETION)).unwrap();
        dispatch_malformed(&rt, &mut shards);
        let mut events = Vec::new();
        poller.wait(Some(60e6), &mut events).unwrap();
        assert!(
            events.contains(&IoEvent::Wake(WAKE_COMPLETION)),
            "{events:?}"
        );
        mismatch(shards.drain().unwrap_err());
        assert_eq!(shards.in_flight(), 0);
    }
}
