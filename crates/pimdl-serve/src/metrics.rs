//! Lock-free serving metrics: atomic counters plus a fixed-bucket latency
//! histogram, snapshotted at shutdown.
//!
//! One serving loop records into a [`Metrics`], on the loop's own thread:
//! shard threads report their batches back to the loop and record nothing.
//! Recorders take `&self` and use only `Relaxed` atomics, so the loop's
//! parts (pipeline, shards, fabric pump) share one `Arc<Metrics>` with no
//! `&mut` plumbing and no lock.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::reactor::ReactorStatsSnapshot;

/// A fixed-bucket histogram with atomic counters.
///
/// Quantiles are read as the **upper bound** of the bucket holding the
/// requested rank — a conservative (over-)estimate with relative error
/// bounded by the bucket ratio.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending upper bounds; values above the last bound land in an
    /// overflow bucket.
    upper_bounds: Vec<f64>,
    /// `upper_bounds.len() + 1` counters (last = overflow).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum, stored as `f64` bits (CAS-updated).
    sum_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::log_time()
    }
}

impl Histogram {
    /// A histogram over the given ascending upper bounds.
    pub fn new(upper_bounds: Vec<f64>) -> Self {
        debug_assert!(upper_bounds.windows(2).all(|w| w[0] < w[1]));
        let buckets = (0..=upper_bounds.len())
            .map(|_| AtomicU64::new(0))
            .collect();
        Histogram {
            upper_bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Log-spaced time buckets: five per decade from 1 µs to 1000 s (also
    /// the default).
    pub fn log_time() -> Self {
        let mut bounds = Vec::new();
        for decade in -6..3i32 {
            for step in 0..5 {
                bounds.push(10f64.powf(f64::from(decade) + f64::from(step) / 5.0));
            }
        }
        bounds.push(1e3);
        Histogram::new(bounds)
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        let idx = self
            .upper_bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.upper_bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Quantile `q ∈ [0, 1]` as the upper bound of the bucket holding that
    /// rank (0 when empty; the last finite bound for overflow).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((n as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                let bound = self.upper_bounds.get(i).or(self.upper_bounds.last());
                return bound.copied().unwrap_or(0.0);
            }
        }
        self.upper_bounds.last().copied().unwrap_or(0.0)
    }
}

/// Shared metrics registry of one serving run.
#[derive(Debug, Default)]
pub struct Metrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    deadline_exceeded: AtomicU64,
    batches: AtomicU64,
    /// Requests summed over every dispatched batch (read only for the
    /// mean batch size).
    batched: AtomicU64,
    queue_depth_peak: AtomicU64,
    latency: Histogram,
}

impl Metrics {
    /// A fresh registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// One request entered the front end.
    pub fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// One request was refused without service.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One request was shed on deadline before dispatch.
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// One request completed with the given end-to-end latency.
    pub fn record_completed(&self, latency_s: f64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency_s);
    }

    /// One batch of `size` requests was dispatched.
    pub fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched.fetch_add(size as u64, Ordering::Relaxed);
    }

    /// Updates the peak queue depth.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.queue_depth_peak
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Immutable snapshot of every counter and derived statistic (reactor
    /// stats zeroed; see [`Metrics::snapshot_with_reactor`]).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.snapshot_with_reactor(ReactorStatsSnapshot::default())
    }

    /// Snapshot with the event source's [`ReactorStatsSnapshot`] attached
    /// (reactor-backed drivers pass their poller's stats at shutdown).
    pub fn snapshot_with_reactor(&self, reactor: ReactorStatsSnapshot) -> MetricsSnapshot {
        let batches = self.batches.load(Ordering::Relaxed);
        // Exact: a sum of integer sizes is exact in `f64` far past any run.
        let mean_batch = match batches {
            0 => 0.0,
            n => self.batched.load(Ordering::Relaxed) as f64 / n as f64,
        };
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            batches,
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            mean_latency_s: self.latency.mean(),
            p50_latency_s: self.latency.quantile(0.50),
            p95_latency_s: self.latency.quantile(0.95),
            p99_latency_s: self.latency.quantile(0.99),
            mean_batch,
            reactor,
        }
    }
}

/// Point-in-time view of a [`Metrics`] registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests that entered the front end.
    pub submitted: u64,
    /// Requests served to completion.
    pub completed: u64,
    /// Requests refused without service (queue full, quota, lost table).
    pub rejected: u64,
    /// Requests shed on deadline before dispatch.
    pub deadline_exceeded: u64,
    /// Batches dispatched to shards.
    pub batches: u64,
    /// Peak queue depth observed: every queued request, the batch being
    /// formed included.
    pub queue_depth_peak: u64,
    /// Mean end-to-end latency (seconds).
    pub mean_latency_s: f64,
    /// Median latency (bucket upper bound, seconds).
    pub p50_latency_s: f64,
    /// 95th-percentile latency (bucket upper bound, seconds).
    pub p95_latency_s: f64,
    /// 99th-percentile latency (bucket upper bound, seconds).
    pub p99_latency_s: f64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Event-source counters of the run's reactor (all zero in a snapshot
    /// taken without one).
    #[serde(default)]
    pub reactor: ReactorStatsSnapshot,
}

impl MetricsSnapshot {
    /// Multi-line shutdown report.
    pub fn render(&self) -> String {
        format!(
            "serving metrics\n\
             \x20 submitted          {}\n\
             \x20 completed          {}\n\
             \x20 rejected           {}\n\
             \x20 deadline exceeded  {}\n\
             \x20 batches            {} (mean size {:.2})\n\
             \x20 peak queue depth   {}\n\
             \x20 latency mean/p50/p95/p99  {:.3e} / {:.3e} / {:.3e} / {:.3e} s\n\
             \x20 reactor polls/wakeups/spurious  {} / {} / {}\n\
             \x20 reactor accepts/reads/writes    {} / {} / {}\n\
             \x20 reactor mean wake latency       {:.3e} s",
            self.submitted,
            self.completed,
            self.rejected,
            self.deadline_exceeded,
            self.batches,
            self.mean_batch,
            self.queue_depth_peak,
            self.mean_latency_s,
            self.p50_latency_s,
            self.p95_latency_s,
            self.p99_latency_s,
            self.reactor.polls,
            self.reactor.wakeups,
            self.reactor.spurious_wakeups,
            self.reactor.accepts,
            self.reactor.reads,
            self.reactor.writes,
            self.reactor.mean_wake_latency_s,
        )
    }

    /// Prometheus text exposition (format version 0.0.4) of the snapshot,
    /// served by the HTTP front end's `GET /metrics`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut emit = |name: &str, help: &str, kind: &str, value: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        };
        let counters: [(&str, &str, u64); 5] = [
            (
                "pimdl_requests_submitted_total",
                "Requests that entered the front end.",
                self.submitted,
            ),
            (
                "pimdl_requests_completed_total",
                "Requests served to completion.",
                self.completed,
            ),
            (
                "pimdl_requests_rejected_total",
                "Requests load-shed at admission.",
                self.rejected,
            ),
            (
                "pimdl_requests_deadline_exceeded_total",
                "Requests shed on deadline before dispatch.",
                self.deadline_exceeded,
            ),
            (
                "pimdl_batches_total",
                "Batches dispatched to shards.",
                self.batches,
            ),
        ];
        for (name, help, v) in counters {
            emit(name, help, "counter", v.to_string());
        }
        let gauges: [(&str, &str, f64); 6] = [
            (
                "pimdl_queue_depth_peak",
                "Peak admission-queue depth observed.",
                self.queue_depth_peak as f64,
            ),
            (
                "pimdl_latency_mean_seconds",
                "Mean end-to-end latency.",
                self.mean_latency_s,
            ),
            (
                "pimdl_latency_p50_seconds",
                "Median latency (bucket upper bound).",
                self.p50_latency_s,
            ),
            (
                "pimdl_latency_p95_seconds",
                "95th-percentile latency (bucket upper bound).",
                self.p95_latency_s,
            ),
            (
                "pimdl_latency_p99_seconds",
                "99th-percentile latency (bucket upper bound).",
                self.p99_latency_s,
            ),
            (
                "pimdl_batch_size_mean",
                "Mean dispatched batch size.",
                self.mean_batch,
            ),
        ];
        for (name, help, v) in gauges {
            emit(name, help, "gauge", format!("{v}"));
        }
        let reactor: [(&str, &str, u64); 9] = [
            (
                "pimdl_reactor_polls_total",
                "Event-source wait calls.",
                self.reactor.polls,
            ),
            (
                "pimdl_reactor_timeouts_total",
                "Waits that expired on timeout.",
                self.reactor.timeouts,
            ),
            (
                "pimdl_reactor_wakeups_total",
                "Wake-token deliveries.",
                self.reactor.wakeups,
            ),
            (
                "pimdl_reactor_spurious_wakeups_total",
                "Wakeups that produced no progress.",
                self.reactor.spurious_wakeups,
            ),
            (
                "pimdl_reactor_accepts_total",
                "Connections accepted.",
                self.reactor.accepts,
            ),
            (
                "pimdl_reactor_accept_errors_total",
                "Accept failures.",
                self.reactor.accept_errors,
            ),
            (
                "pimdl_reactor_reads_total",
                "Readable events serviced.",
                self.reactor.reads,
            ),
            (
                "pimdl_reactor_writes_total",
                "Write calls issued.",
                self.reactor.writes,
            ),
            (
                "pimdl_reactor_lock_recoveries_total",
                "Poisoned-lock recoveries.",
                self.reactor.lock_recoveries,
            ),
        ];
        for (name, help, v) in reactor {
            emit(name, help, "counter", v.to_string());
        }
        emit(
            "pimdl_reactor_mean_wake_latency_seconds",
            "Mean wake-token delivery latency.",
            "gauge",
            format!("{}", self.reactor.mean_wake_latency_s),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = Histogram::new(vec![1.0, 2.0, 4.0]);
        for v in [0.5, 0.7, 1.5, 3.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.sum() - 105.7).abs() < 1e-9);
        // rank 1..5 over buckets [2, 1, 1, 1(overflow)]
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.40), 1.0);
        assert_eq!(h.quantile(0.60), 2.0);
        assert_eq!(h.quantile(0.80), 4.0);
        // overflow clamps to the last finite bound
        assert_eq!(h.quantile(1.0), 4.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::log_time();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
    }

    #[test]
    fn metrics_snapshot_reflects_recorders() {
        let m = Metrics::new();
        m.record_submitted();
        m.record_submitted();
        m.record_submitted();
        m.record_rejected();
        m.record_deadline_exceeded();
        m.record_completed(0.010);
        m.record_batch(1);
        m.observe_queue_depth(3);
        m.observe_queue_depth(2);
        let s = m.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.completed, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.deadline_exceeded, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.queue_depth_peak, 3);
        assert!((s.mean_batch - 1.0).abs() < 1e-12);
        assert!(s.p50_latency_s >= 0.010);
        assert!(s.render().contains("completed"));
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let m = Metrics::new();
        m.record_submitted();
        m.record_completed(0.002);
        let text = m.snapshot().render_prometheus();
        let mut samples = 0;
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment line: {line}"
                );
                continue;
            }
            let (name, value) = line.split_once(' ').expect("sample line has a value");
            assert!(
                name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
                "bad metric name: {name}"
            );
            let v: f64 = value.parse().expect("sample value parses as a number");
            assert!(v.is_finite());
            samples += 1;
        }
        assert!(
            samples >= 20,
            "expected a full metric family, got {samples}"
        );
        assert!(text.contains("pimdl_requests_submitted_total 1\n"));
        assert!(text.contains("pimdl_requests_completed_total 1\n"));
    }
}
