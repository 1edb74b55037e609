//! Dynamic-batching serving scheduler.
//!
//! The paper motivates PIM-DL with cloud serving, where "cloud-based
//! scenarios often require batched inference" (§2.2). This module closes
//! that loop: a discrete-event simulation of a serving front end that
//! collects arriving requests into batches (bounded by a maximum batch size
//! and a maximum queueing delay) and executes each batch with the PIM-DL
//! engine's latency model. The output is the classic serving curve:
//! throughput and latency percentiles as functions of the arrival rate.
//!
//! Batching interacts with PIM-DL exactly as Fig. 12-(c) suggests: larger
//! batches amortize the host↔PIM fixed costs, so the scheduler's batch-size
//! choice trades queueing delay against kernel efficiency.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use pimdl_tensor::rng::DataRng;

use crate::error::EngineError;
use crate::perlayer::PerLayerServingConfig;
use crate::pipeline::{PimDlEngine, ServingConfig};
use crate::shapes::TransformerShape;
use crate::Result;

/// Largest `max_batch` a [`BatchingPolicy`] accepts. A server prices every
/// batch size up to its `max_batch` before it serves (four tuner searches
/// each), and a fabric worker takes a batch as one frame of at most 1,024
/// requests; every shipped configuration batches at most 64.
pub const MAX_BATCH: usize = 1024;

/// Batching policy of the serving front end.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchingPolicy {
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// Maximum time the oldest queued request may wait before the batch is
    /// dispatched anyway (seconds).
    pub max_wait_s: f64,
}

impl Default for BatchingPolicy {
    fn default() -> Self {
        BatchingPolicy {
            max_batch: 64,
            max_wait_s: 0.050,
        }
    }
}

impl BatchingPolicy {
    /// Creates a validated batching policy.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for `max_batch` outside
    /// `1..=MAX_BATCH` or a negative or non-finite `max_wait_s` — either
    /// would make the batch window meaningless (a batcher could never fill
    /// a batch, or would wait forever / in the past).
    pub fn new(max_batch: usize, max_wait_s: f64) -> Result<Self> {
        let policy = BatchingPolicy {
            max_batch,
            max_wait_s,
        };
        policy.validate()?;
        Ok(policy)
    }

    /// Checks the policy for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if `max_batch` is outside
    /// `1..=MAX_BATCH` or `max_wait_s` is negative or non-finite.
    pub fn validate(&self) -> Result<()> {
        if !(1..=MAX_BATCH).contains(&self.max_batch) {
            return Err(EngineError::Config {
                detail: format!(
                    "batching policy max_batch must be in 1..={MAX_BATCH}, got {}",
                    self.max_batch
                ),
            });
        }
        if !self.max_wait_s.is_finite() || self.max_wait_s < 0.0 {
            return Err(EngineError::Config {
                detail: format!(
                    "batching policy max_wait_s must be finite and >= 0, got {}",
                    self.max_wait_s
                ),
            });
        }
        Ok(())
    }
}

/// Scale of the stride scheduler's integer passes: a tenant of weight `w`
/// advances by `TENANT_STRIDE_SCALE / w` per scheduled request, so higher
/// weights accumulate pass more slowly and are picked more often.
pub const TENANT_STRIDE_SCALE: u64 = 1 << 20;

/// Per-tenant serving quota: a fair-share weight for the weighted-fair
/// batcher and a cap on admitted-but-unfinished requests.
///
/// Validated here, next to [`BatchingPolicy`], because the two jointly
/// define the front end's scheduling contract: the policy bounds *when* a
/// batch flushes, the quota bounds *whose* requests it may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantQuota {
    /// Fair-share weight (a weight-3 tenant receives 3x the service of a
    /// weight-1 tenant under contention). Must be in
    /// `1..=TENANT_STRIDE_SCALE`.
    pub weight: u64,
    /// Maximum admitted-but-unfinished requests (queued plus dispatched);
    /// arrivals beyond it are refused with a quota error. Must be >= 1.
    pub max_in_flight: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            weight: 1,
            max_in_flight: 16,
        }
    }
}

impl TenantQuota {
    /// Creates a validated tenant quota.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for the same degenerate values
    /// [`TenantQuota::validate`] rejects.
    pub fn new(weight: u64, max_in_flight: usize) -> Result<Self> {
        let quota = TenantQuota {
            weight,
            max_in_flight,
        };
        quota.validate()?;
        Ok(quota)
    }

    /// Checks the quota for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if `weight` is zero or exceeds
    /// [`TENANT_STRIDE_SCALE`] (the stride `TENANT_STRIDE_SCALE / weight`
    /// would be zero, giving the tenant unbounded priority), or if
    /// `max_in_flight` is zero (the tenant could never admit anything).
    pub fn validate(&self) -> Result<()> {
        if self.weight == 0 || self.weight > TENANT_STRIDE_SCALE {
            return Err(EngineError::Config {
                detail: format!(
                    "tenant quota weight must be in 1..={TENANT_STRIDE_SCALE}, got {}",
                    self.weight
                ),
            });
        }
        if self.max_in_flight == 0 {
            return Err(EngineError::Config {
                detail: "tenant quota max_in_flight must be >= 1".to_string(),
            });
        }
        Ok(())
    }

    /// The stride scheduler's per-request pass increment for this weight.
    pub fn stride(&self) -> u64 {
        TENANT_STRIDE_SCALE / self.weight.clamp(1, TENANT_STRIDE_SCALE)
    }
}

/// Offered load: Poisson arrivals at `rate_rps` for `duration_s` simulated
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Mean request arrival rate (requests per second).
    pub rate_rps: f64,
    /// Simulated wall-clock horizon (seconds).
    pub duration_s: f64,
    /// Arrival-process seed.
    pub seed: u64,
}

impl Workload {
    /// Checks the workload for values that would hang or corrupt the
    /// simulation.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if `rate_rps` or `duration_s` is
    /// non-finite or non-positive. A zero/negative/NaN rate would make the
    /// arrival loop in [`BatchScheduler::simulate`] spin forever (simulated
    /// time never advances past the horizon).
    pub fn validate(&self) -> Result<()> {
        if !self.rate_rps.is_finite() || self.rate_rps <= 0.0 {
            return Err(EngineError::Config {
                detail: format!(
                    "workload rate_rps must be finite and > 0, got {}",
                    self.rate_rps
                ),
            });
        }
        if !self.duration_s.is_finite() || self.duration_s <= 0.0 {
            return Err(EngineError::Config {
                detail: format!(
                    "workload duration_s must be finite and > 0, got {}",
                    self.duration_s
                ),
            });
        }
        Ok(())
    }
}

/// Result of one load simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingStats {
    /// Requests completed within the horizon.
    pub completed: usize,
    /// Achieved throughput (requests per simulated second). Divides by the
    /// drained makespan, not the arrival horizon, so late-draining batches
    /// don't inflate the rate.
    pub throughput_rps: f64,
    /// Drained horizon: the later of the arrival horizon and the finish
    /// time of the last dispatched batch. Under overload this exceeds
    /// `duration_s` by the queue-drain tail.
    pub makespan_s: f64,
    /// Mean end-to-end request latency (queueing + execution), seconds.
    pub mean_latency_s: f64,
    /// Median latency (seconds).
    pub p50_latency_s: f64,
    /// 95th-percentile latency (seconds).
    pub p95_latency_s: f64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Batches dispatched.
    pub batches: usize,
}

/// Per-request serving parameters of a scheduler; the batch dimension
/// comes from the scheduler itself.
#[derive(Debug, Clone)]
enum SchedulerBase {
    /// One global `(V, CT)` for every linear operator.
    Uniform(ServingConfig),
    /// Heterogeneous per-operator `(V, CT)` (DESIGN.md §12.3).
    PerLayer(PerLayerServingConfig),
}

/// A dynamic-batching serving simulator over a PIM-DL engine.
#[derive(Debug)]
pub struct BatchScheduler<'a> {
    engine: &'a PimDlEngine,
    shape: &'a TransformerShape,
    /// Per-request serving parameters (seq_len, V, CT); the batch dimension
    /// comes from the scheduler.
    base: SchedulerBase,
    policy: BatchingPolicy,
    latency_cache: HashMap<usize, f64>,
}

impl<'a> BatchScheduler<'a> {
    /// Creates a scheduler for a model on an engine.
    pub fn new(
        engine: &'a PimDlEngine,
        shape: &'a TransformerShape,
        base: ServingConfig,
        policy: BatchingPolicy,
    ) -> Self {
        BatchScheduler {
            engine,
            shape,
            base: SchedulerBase::Uniform(base),
            policy,
            latency_cache: HashMap::new(),
        }
    }

    /// Creates a scheduler serving a heterogeneous per-layer configuration
    /// (typically produced by the capacity allocator): each batch executes
    /// through [`PimDlEngine::serve_per_layer`] instead of
    /// [`PimDlEngine::serve`], so the DES prices tuned-per-layer serving
    /// end to end.
    pub fn new_per_layer(
        engine: &'a PimDlEngine,
        shape: &'a TransformerShape,
        base: PerLayerServingConfig,
        policy: BatchingPolicy,
    ) -> Self {
        BatchScheduler {
            engine,
            shape,
            base: SchedulerBase::PerLayer(base),
            policy,
            latency_cache: HashMap::new(),
        }
    }

    /// Engine latency of one batch of the given size (memoized — the
    /// engine's own mapping cache makes repeat sizes cheap, but the sweep
    /// hits the same handful of sizes thousands of times).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn batch_latency_s(&mut self, batch: usize) -> Result<f64> {
        if let Some(&t) = self.latency_cache.get(&batch) {
            return Ok(t);
        }
        let t = match &self.base {
            SchedulerBase::Uniform(base) => {
                let cfg = ServingConfig { batch, ..*base };
                self.engine.serve(self.shape, &cfg)?.total_s
            }
            SchedulerBase::PerLayer(base) => {
                let mut cfg = base.clone();
                cfg.batch = batch;
                self.engine.serve_per_layer(self.shape, &cfg)?.total_s
            }
        };
        self.latency_cache.insert(batch, t);
        Ok(t)
    }

    /// Simulates the serving system under Poisson load.
    ///
    /// Single execution lane (the PIM modules serve one batch at a time, as
    /// on the real platform); requests arriving while a batch executes
    /// queue for the next one.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn simulate(&mut self, workload: &Workload) -> Result<ServingStats> {
        self.policy.validate()?;
        workload.validate()?;
        // Poisson arrivals: exponential inter-arrival times.
        let mut rng = DataRng::new(workload.seed);
        let mut arrivals = Vec::new();
        let mut t = 0.0;
        while t < workload.duration_s {
            let u: f64 = f64::from(rng.uniform(1e-7, 1.0));
            t += -u.ln() / workload.rate_rps;
            if t < workload.duration_s {
                arrivals.push(t);
            }
        }

        let mut latencies: Vec<f64> = Vec::with_capacity(arrivals.len());
        let mut batches = 0usize;
        let mut batched_total = 0usize;
        let mut engine_free_at = 0.0f64;
        let mut i = 0usize;
        while i < arrivals.len() {
            // The next batch forms from the queue head. Dispatch when the
            // engine is free AND (the batch is full OR the oldest request
            // has waited max_wait_s).
            let head_arrival = arrivals[i];
            let earliest_dispatch = head_arrival.max(engine_free_at);
            let deadline = head_arrival + self.policy.max_wait_s;
            let dispatch_at = earliest_dispatch.max(
                // If the engine frees up before the deadline, wait for more
                // arrivals until the deadline (or until full).
                if engine_free_at < deadline {
                    deadline
                } else {
                    engine_free_at
                },
            );

            // Collect everything that has arrived by dispatch time, capped.
            let mut batch_end = i;
            while batch_end < arrivals.len()
                && arrivals[batch_end] <= dispatch_at
                && batch_end - i < self.policy.max_batch
            {
                batch_end += 1;
            }
            // A full batch can dispatch as soon as the engine is free and
            // its last member has arrived — no need to sit out the window.
            let actual_dispatch = if batch_end - i == self.policy.max_batch {
                arrivals[batch_end - 1].max(engine_free_at)
            } else {
                dispatch_at
            };

            let batch_size = batch_end - i;
            let exec_s = self.batch_latency_s(batch_size)?;
            let finish = actual_dispatch + exec_s;
            for &arr in &arrivals[i..batch_end] {
                latencies.push(finish - arr);
            }
            engine_free_at = finish;
            batches += 1;
            batched_total += batch_size;
            i = batch_end;
        }

        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let completed = latencies.len();
        let percentile = |p: f64| -> f64 {
            if latencies.is_empty() {
                0.0
            } else {
                let idx = ((completed as f64 - 1.0) * p).round() as usize;
                latencies[idx.min(completed - 1)]
            }
        };
        // The queue drains past the arrival horizon under overload; divide
        // by the drained makespan so throughput reflects work actually
        // sustained, not requests crammed into the arrival window.
        let makespan_s = engine_free_at.max(workload.duration_s);
        Ok(ServingStats {
            completed,
            throughput_rps: completed as f64 / makespan_s.max(1e-9),
            makespan_s,
            mean_latency_s: latencies.iter().sum::<f64>() / completed.max(1) as f64,
            p50_latency_s: percentile(0.50),
            p95_latency_s: percentile(0.95),
            mean_batch: batched_total as f64 / batches.max(1) as f64,
            batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdl_sim::PlatformConfig;

    fn setup() -> (PimDlEngine, TransformerShape) {
        let mut p = PlatformConfig::upmem();
        p.num_pes = 64;
        (PimDlEngine::new(p), TransformerShape::tiny())
    }

    fn base_cfg() -> ServingConfig {
        ServingConfig {
            batch: 1,
            seq_len: 16,
            v: 4,
            ct: 16,
        }
    }

    #[test]
    fn light_load_gives_small_batches_and_low_latency() {
        let (engine, shape) = setup();
        let mut sched = BatchScheduler::new(
            &engine,
            &shape,
            base_cfg(),
            BatchingPolicy {
                max_batch: 16,
                max_wait_s: 0.001,
            },
        );
        let single = sched.batch_latency_s(1).unwrap();
        let stats = sched
            .simulate(&Workload {
                rate_rps: 0.5 / single, // far below capacity
                duration_s: single * 400.0,
                seed: 1,
            })
            .unwrap();
        assert!(stats.completed > 50, "completed {}", stats.completed);
        assert!(stats.mean_batch < 3.0, "mean batch {}", stats.mean_batch);
        // At light load latency ≈ execution time + small wait.
        assert!(
            stats.p50_latency_s < 3.0 * single,
            "p50 {} vs single {}",
            stats.p50_latency_s,
            single
        );
    }

    #[test]
    fn heavy_load_forms_large_batches() {
        let (engine, shape) = setup();
        let mut sched = BatchScheduler::new(
            &engine,
            &shape,
            base_cfg(),
            BatchingPolicy {
                max_batch: 16,
                max_wait_s: 0.001,
            },
        );
        let single = sched.batch_latency_s(1).unwrap();
        let light = sched
            .simulate(&Workload {
                rate_rps: 0.5 / single,
                duration_s: single * 200.0,
                seed: 2,
            })
            .unwrap();
        let heavy = sched
            .simulate(&Workload {
                rate_rps: 20.0 / single,
                duration_s: single * 200.0,
                seed: 2,
            })
            .unwrap();
        assert!(
            heavy.mean_batch > light.mean_batch + 1.0,
            "heavy {} vs light {}",
            heavy.mean_batch,
            light.mean_batch
        );
        // Batching lifts throughput well above the single-request rate.
        assert!(heavy.throughput_rps > 2.0 / single);
    }

    #[test]
    fn percentiles_are_ordered() {
        let (engine, shape) = setup();
        let mut sched = BatchScheduler::new(&engine, &shape, base_cfg(), BatchingPolicy::default());
        let single = sched.batch_latency_s(1).unwrap();
        let stats = sched
            .simulate(&Workload {
                rate_rps: 4.0 / single,
                duration_s: single * 150.0,
                seed: 3,
            })
            .unwrap();
        assert!(stats.p50_latency_s <= stats.p95_latency_s);
        assert!(stats.mean_latency_s > 0.0);
        assert!(stats.batches > 0);
    }

    #[test]
    fn backlog_drains_in_fifo_order_without_starvation() {
        // A burst far above capacity: every request still completes, and
        // latencies are non-decreasing in arrival order within the backlog
        // regime (FIFO batching does not starve early arrivals).
        let (engine, shape) = setup();
        let mut sched = BatchScheduler::new(
            &engine,
            &shape,
            base_cfg(),
            BatchingPolicy {
                max_batch: 4,
                max_wait_s: 0.001,
            },
        );
        let single = sched.batch_latency_s(1).unwrap();
        let stats = sched
            .simulate(&Workload {
                rate_rps: 50.0 / single,
                duration_s: single * 20.0,
                seed: 5,
            })
            .unwrap();
        assert!(stats.completed > 100, "completed {}", stats.completed);
        // With max_batch 4 the mean batch is pinned at ~4 under overload.
        assert!(
            stats.mean_batch > 3.5,
            "mean batch {} under overload",
            stats.mean_batch
        );
        // p95 under overload far exceeds p50 (queueing tail).
        assert!(stats.p95_latency_s > stats.p50_latency_s);
    }

    #[test]
    fn degenerate_policy_is_rejected() {
        assert!(BatchingPolicy::new(0, 0.01).is_err());
        assert!(BatchingPolicy::new(MAX_BATCH, 0.01).is_ok());
        assert!(BatchingPolicy::new(MAX_BATCH + 1, 0.01).is_err());
        assert!(BatchingPolicy::new(8, -0.5).is_err());
        assert!(BatchingPolicy::new(8, f64::NAN).is_err());
        assert!(BatchingPolicy::new(8, f64::INFINITY).is_err());
        assert!(BatchingPolicy::new(8, 0.0).is_ok());
        assert!(BatchingPolicy::default().validate().is_ok());
    }

    #[test]
    fn degenerate_workload_is_rejected_instead_of_hanging() {
        // rate_rps <= 0 or NaN used to spin the arrival loop forever:
        // simulated time never advanced past the horizon.
        let (engine, shape) = setup();
        let mut sched = BatchScheduler::new(&engine, &shape, base_cfg(), BatchingPolicy::default());
        for bad in [
            Workload {
                rate_rps: 0.0,
                duration_s: 1.0,
                seed: 0,
            },
            Workload {
                rate_rps: -3.0,
                duration_s: 1.0,
                seed: 0,
            },
            Workload {
                rate_rps: f64::NAN,
                duration_s: 1.0,
                seed: 0,
            },
            Workload {
                rate_rps: 10.0,
                duration_s: f64::NAN,
                seed: 0,
            },
            Workload {
                rate_rps: 10.0,
                duration_s: 0.0,
                seed: 0,
            },
        ] {
            assert!(sched.simulate(&bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn degenerate_serving_config_is_rejected() {
        assert!(ServingConfig::new(0, 16, 4, 16).is_err());
        assert!(ServingConfig::new(1, 0, 4, 16).is_err());
        assert!(ServingConfig::new(1, 16, 0, 16).is_err());
        assert!(ServingConfig::new(1, 16, 4, 0).is_err());
        assert!(ServingConfig::new(1, 16, 4, 16).is_ok());
        assert!(ServingConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn latency_cache_hits() {
        let (engine, shape) = setup();
        let mut sched = BatchScheduler::new(&engine, &shape, base_cfg(), BatchingPolicy::default());
        let a = sched.batch_latency_s(4).unwrap();
        let b = sched.batch_latency_s(4).unwrap();
        assert_eq!(a, b);
        assert_eq!(sched.latency_cache.len(), 1);
    }

    #[test]
    fn per_layer_base_drives_the_des() {
        let (engine, shape) = setup();
        let policy = BatchingPolicy {
            max_batch: 8,
            max_wait_s: 0.001,
        };
        // A uniform config lifted to per-layer form must price batches
        // identically to the uniform scheduler.
        let uniform = PerLayerServingConfig::uniform(&base_cfg(), &shape);
        let mut u_sched = BatchScheduler::new(&engine, &shape, base_cfg(), policy);
        let mut p_sched = BatchScheduler::new_per_layer(&engine, &shape, uniform.clone(), policy);
        for batch in [1usize, 4, 8] {
            let u = u_sched.batch_latency_s(batch).unwrap();
            let p = p_sched.batch_latency_s(batch).unwrap();
            assert!((u - p).abs() < 1e-15, "batch {batch}: {u} vs {p}");
        }
        // A genuinely heterogeneous base simulates end to end.
        let mut hetero = uniform;
        hetero.ops[3].v = 8;
        let mut h_sched = BatchScheduler::new_per_layer(&engine, &shape, hetero, policy);
        let single = h_sched.batch_latency_s(1).unwrap();
        let stats = h_sched
            .simulate(&Workload {
                rate_rps: 2.0 / single,
                duration_s: single * 50.0,
                seed: 11,
            })
            .unwrap();
        assert!(stats.completed > 10 && stats.throughput_rps > 0.0);
    }

    #[test]
    fn tenant_quota_validates_and_derives_strides() {
        assert!(TenantQuota::new(0, 4).is_err());
        assert!(TenantQuota::new(TENANT_STRIDE_SCALE + 1, 4).is_err());
        assert!(TenantQuota::new(1, 0).is_err());
        let q1 = TenantQuota::new(1, 4).unwrap();
        let q3 = TenantQuota::new(3, 4).unwrap();
        assert!(q1.stride() > q3.stride(), "heavier tenants stride slower");
        assert_eq!(q1.stride(), TENANT_STRIDE_SCALE);
        assert!(TenantQuota::default().validate().is_ok());
    }
}
