//! Extension experiment — serving under load: the latency/throughput curve
//! of a dynamically batched PIM-DL serving system (the paper's §2.2 cloud
//! motivation made concrete).
//!
//! Sweeps the offered Poisson arrival rate and reports achieved throughput,
//! latency percentiles, and the batch sizes the scheduler forms. The
//! expected shape: throughput tracks the offered rate until saturation;
//! batches grow with load (riding the Fig. 12-(c) efficiency curve); tail
//! latency explodes past the knee.

use serde::Serialize;

use pimdl_engine::pipeline::{PimDlEngine, ServingConfig};
use pimdl_engine::scheduler::{BatchScheduler, BatchingPolicy, ServingStats, Workload};
use pimdl_engine::shapes::TransformerShape;
use pimdl_serve::{MetricsSnapshot, OpenLoop, Outcome, Runtime, ServeConfig, ServeError};
use pimdl_sim::{LutWorkload, PlatformConfig};

use crate::report::TextTable;

/// One load point.
#[derive(Debug, Clone, Serialize)]
pub struct LoadPoint {
    /// Offered arrival rate (requests/s).
    pub offered_rps: f64,
    /// Serving statistics at this rate.
    pub stats: ServingStats,
}

/// Full serving-curve result.
#[derive(Debug, Clone, Serialize)]
pub struct ServingResult {
    /// Model served.
    pub model: String,
    /// Batching policy used.
    pub policy: BatchingPolicy,
    /// Single-request execution latency (the no-batching floor), seconds.
    pub single_request_s: f64,
    /// Per-rate points.
    pub points: Vec<LoadPoint>,
}

/// Runs the load sweep.
///
/// `rates_x` are offered rates expressed as multiples of the single-request
/// service rate (`1 / single_request_latency`).
///
/// # Errors
///
/// Propagates engine errors.
pub fn run(
    shape: &TransformerShape,
    seq_len: usize,
    rates_x: &[f64],
    horizon_requests: f64,
) -> Result<ServingResult, pimdl_engine::EngineError> {
    let engine = PimDlEngine::new(PlatformConfig::upmem());
    let base = ServingConfig {
        batch: 1,
        seq_len,
        v: 4,
        ct: 16,
    };
    let policy = BatchingPolicy::default();
    let mut sched = BatchScheduler::new(&engine, shape, base, policy);
    let single = sched.batch_latency_s(1)?;

    let mut points = Vec::new();
    for &x in rates_x {
        let rate = x / single;
        let stats = sched.simulate(&Workload {
            rate_rps: rate,
            duration_s: horizon_requests / rate,
            seed: 99,
        })?;
        points.push(LoadPoint {
            offered_rps: rate,
            stats,
        });
    }
    Ok(ServingResult {
        model: shape.name.clone(),
        policy,
        single_request_s: single,
        points,
    })
}

/// Renders the serving curve.
pub fn render(result: &ServingResult) -> String {
    let mut t = TextTable::new(vec![
        "Offered (rps)",
        "Achieved (rps)",
        "Mean batch",
        "p50 latency",
        "p95 latency",
    ]);
    for p in &result.points {
        t.row(vec![
            format!("{:.2}", p.offered_rps),
            format!("{:.2}", p.stats.throughput_rps),
            format!("{:.1}", p.stats.mean_batch),
            format!("{:.2} s", p.stats.p50_latency_s),
            format!("{:.2} s", p.stats.p95_latency_s),
        ]);
    }
    format!(
        "Extension — serving {} under Poisson load (dynamic batching, max_batch {}, window {:.0} ms)\n\
         single-request execution = {:.2} s\n\n{}",
        result.model,
        result.policy.max_batch,
        result.policy.max_wait_s * 1e3,
        result.single_request_s,
        t.render()
    )
}

/// One load point of the runtime-vs-simulation comparison.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeLoadPoint {
    /// Offered arrival rate (requests/s).
    pub offered_rps: f64,
    /// Discrete-event `BatchScheduler` statistics at this rate.
    pub sim: ServingStats,
    /// `pimdl-serve` runtime metrics at this rate. Its `p50_latency_s` /
    /// `p95_latency_s` are histogram bucket edges (what `/metrics` would
    /// report), not comparable with the DES's order statistics — the two
    /// fields below are.
    pub runtime: MetricsSnapshot,
    /// Median completed latency of the runtime's ledger, by the rank rule
    /// `BatchScheduler::simulate` uses.
    pub runtime_p50_latency_s: f64,
    /// 95th-percentile completed latency of the ledger, same rule.
    pub runtime_p95_latency_s: f64,
    /// Runtime achieved throughput: completed requests / makespan.
    pub runtime_throughput_rps: f64,
    /// Runtime achieved rate over the DES achieved rate. Both sides divide
    /// by their drained makespan, so a value near 1.0 means the two
    /// accounting models agree.
    pub throughput_gap: f64,
}

/// Arrival-rate sweep through the `pimdl-serve` runtime next to the
/// discrete-event simulation, same model / policy / load on both sides.
#[derive(Debug, Clone, Serialize)]
pub struct RuntimeComparison {
    /// Model served.
    pub model: String,
    /// Batching policy used by both systems.
    pub policy: BatchingPolicy,
    /// Single-request execution latency (the no-batching floor), seconds.
    pub single_request_s: f64,
    /// Requests injected per load point.
    pub num_requests: usize,
    /// Per-rate points.
    pub points: Vec<RuntimeLoadPoint>,
}

/// The `p`-quantile of `sorted` by the rank rule of
/// `BatchScheduler::simulate`: element `round((n - 1) * p)`.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[(((n - 1) as f64 * p).round() as usize).min(n - 1)],
    }
}

/// Sweeps the offered arrival rate through the `pimdl-serve` runtime on
/// its virtual clock (`Runtime::run_virtual`) and the discrete-event
/// `BatchScheduler`, pairing the two systems' stats at every load point.
///
/// `rates_x` are offered rates as multiples of the single-request service
/// rate. The runtime runs **one** shard — the DES models a single engine,
/// so a second shard would show up as a throughput ratio that is the shard
/// count, not a modelling gap — with a queue deeper than the run and
/// unbounded deadlines, so every request completes and the comparison
/// isolates the latency / throughput / batch-size behaviour of the two
/// schedulers. Both sides are pure functions of their seeds. How the
/// runtime does against the DES on real threads, real sockets and a wall
/// clock is the benchmark's `rt_des_ratio`.
///
/// # Errors
///
/// Propagates engine and runtime errors.
pub fn run_vs_runtime(
    shape: &TransformerShape,
    seq_len: usize,
    rates_x: &[f64],
    num_requests: usize,
) -> Result<RuntimeComparison, ServeError> {
    let engine = PimDlEngine::new(PlatformConfig::upmem());
    let base = ServingConfig {
        batch: 1,
        seq_len,
        v: 4,
        ct: 16,
    };
    // Smaller than the DES-only default (64): the runtime prices its cost
    // model for every batch size up to max_batch, and both sides must share
    // the policy for the comparison to mean anything.
    let policy = BatchingPolicy {
        max_batch: 8,
        max_wait_s: 0.050,
    };
    let mut sched = BatchScheduler::new(&engine, shape, base, policy);
    let single = sched.batch_latency_s(1)?;

    let mut cfg = ServeConfig::example();
    cfg.policy = policy;
    cfg.base = base;
    cfg.num_shards = 1;
    cfg.queue_capacity = num_requests.max(1);
    cfg.deadline_s = f64::INFINITY;
    // The example payload is sized for a cut-down platform; the full UPMEM
    // config needs n*f >= num_pes for Eq. 5 to partition the LUT kernel.
    cfg.lut = LutWorkload::new(32, 8, 16, 64).map_err(pimdl_serve::ServeError::from)?;
    let rt = Runtime::new(PlatformConfig::upmem(), shape.clone(), cfg)?;

    let mut points = Vec::new();
    for &x in rates_x {
        let rate = x / single;
        let stats = sched.simulate(&Workload {
            rate_rps: rate,
            duration_s: num_requests as f64 / rate,
            seed: 99,
        })?;
        let report = rt.run_virtual(&OpenLoop {
            rate_rps: rate,
            num_requests,
            seed: 99,
        })?;
        let mut latencies: Vec<f64> = report
            .records
            .iter()
            .filter_map(|r| match r.outcome {
                Outcome::Completed { latency_s, .. } => Some(latency_s),
                _ => None,
            })
            .collect();
        latencies.sort_by(f64::total_cmp);
        let runtime_throughput_rps =
            report.completed() as f64 / report.makespan_s.max(f64::MIN_POSITIVE);
        let throughput_gap = runtime_throughput_rps / stats.throughput_rps.max(f64::MIN_POSITIVE);
        points.push(RuntimeLoadPoint {
            offered_rps: rate,
            sim: stats,
            runtime: report.metrics,
            runtime_p50_latency_s: percentile(&latencies, 0.50),
            runtime_p95_latency_s: percentile(&latencies, 0.95),
            runtime_throughput_rps,
            throughput_gap,
        });
    }
    Ok(RuntimeComparison {
        model: shape.name.clone(),
        policy,
        single_request_s: single,
        num_requests,
        points,
    })
}

/// Renders the runtime-vs-simulation comparison.
pub fn render_vs_runtime(result: &RuntimeComparison) -> String {
    let mut t = TextTable::new(vec![
        "Offered (rps)",
        "DES rps",
        "DES batch",
        "DES p50",
        "DES p95",
        "Runtime rps",
        "RT batch",
        "RT p50",
        "RT p95",
        "RT/DES",
    ]);
    for p in &result.points {
        t.row(vec![
            format!("{:.2}", p.offered_rps),
            format!("{:.2}", p.sim.throughput_rps),
            format!("{:.1}", p.sim.mean_batch),
            format!("{:.2} s", p.sim.p50_latency_s),
            format!("{:.2} s", p.sim.p95_latency_s),
            format!("{:.2}", p.runtime_throughput_rps),
            format!("{:.1}", p.runtime.mean_batch),
            format!("{:.2} s", p.runtime_p50_latency_s),
            format!("{:.2} s", p.runtime_p95_latency_s),
            format!("{:.2}x", p.throughput_gap),
        ]);
    }
    format!(
        "Extension — serving {}: pimdl-serve runtime (one shard, virtual clock) vs discrete-event simulation\n\
         policy: max_batch {}, window {:.0} ms; {} requests per point; \
         single-request execution = {:.2} s\n\n{}",
        result.model,
        result.policy.max_batch,
        result.policy.max_wait_s * 1e3,
        result.num_requests,
        result.single_request_s,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_with_batching_beyond_single_rate() {
        let shape = TransformerShape::tiny();
        let r = run(&shape, 16, &[0.5, 4.0, 16.0], 150.0).unwrap();
        assert_eq!(r.points.len(), 3);
        let light = &r.points[0];
        let heavy = &r.points[2];
        // Batching lets achieved throughput exceed 1/single by a wide
        // margin under heavy load.
        assert!(
            heavy.stats.throughput_rps > 2.0 / r.single_request_s,
            "heavy throughput {}",
            heavy.stats.throughput_rps
        );
        assert!(heavy.stats.mean_batch > light.stats.mean_batch);
        // Light load is served at near the offered rate.
        assert!(light.stats.throughput_rps > 0.35 / r.single_request_s);
    }

    #[test]
    fn runtime_comparison_tracks_simulation() {
        // The runtime's own event loop on its virtual clock, one shard,
        // against the single-engine discrete-event model: the same
        // arrival process, policy and cost model on both sides, so they
        // must agree at every rate, not only at saturation.
        let shape = TransformerShape::tiny();
        let rates = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
        let r = run_vs_runtime(&shape, 16, &rates, 150).unwrap();
        assert_eq!(r.points.len(), rates.len());
        for p in &r.points {
            // Deep queue + unbounded deadlines: the runtime completes the run.
            assert_eq!(p.runtime.completed, 150);
            assert!(
                (0.97..=1.03).contains(&p.throughput_gap),
                "RT/DES throughput {} at {} rps",
                p.throughput_gap,
                p.offered_rps
            );
            // What is left of a gap is the load, not the schedulers: the
            // DES draws arrivals until the horizon `n / rate` (158 here)
            // while the runtime injects exactly n = 150. Under overload
            // latency grows with queue position, so at 16x the tail reads
            // 150 / 158 of the DES's; everywhere else both quantiles sit
            // within 1 %.
            let p50 = p.runtime_p50_latency_s / p.sim.p50_latency_s;
            let p95 = p.runtime_p95_latency_s / p.sim.p95_latency_s;
            assert!((0.97..=1.01).contains(&p50), "p50 ratio {p50}");
            assert!((0.93..=1.01).contains(&p95), "p95 ratio {p95}");
        }
        let (light, heavy) = (&r.points[1], &r.points[5]);
        // Both systems batch their way past the single-request rate under
        // heavy load; light load is served near the offered rate.
        assert!(heavy.runtime_throughput_rps > 1.5 / r.single_request_s);
        assert!(heavy.runtime.mean_batch > light.runtime.mean_batch);
        assert!(light.runtime_throughput_rps > 0.3 / r.single_request_s);
        let s = render_vs_runtime(&r);
        assert!(s.contains("discrete-event"));
        assert!(s.contains("virtual clock"));
    }

    #[test]
    fn percentile_is_the_simulators_rank_rule() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        let v = [1.0, 2.0, 3.0, 4.0];
        // round(3 * 0.5) = 2, round(3 * 0.95) = 3.
        assert_eq!((percentile(&v, 0.5), percentile(&v, 0.95)), (3.0, 4.0));
    }

    #[test]
    fn render_shows_curve() {
        let shape = TransformerShape::tiny();
        let r = run(&shape, 16, &[1.0], 60.0).unwrap();
        let s = render(&r);
        assert!(s.contains("Poisson load"));
        assert!(s.contains("p95"));
    }
}
