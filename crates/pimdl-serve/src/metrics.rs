//! Lock-free serving metrics: atomic counters plus a log-linear latency
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

/// A fixed log-linear latency histogram with atomic counters: 64 linear
/// sub-buckets per power of two over `[2^-20 s, 2^10 s)`, one underflow
/// bucket below and one overflow bucket above (`+inf` and NaN included).
///
/// `record` finds its bucket in O(1): above `2^-20` the float's exponent
/// and top six mantissa bits are the bucket index. Each bucket is
/// half-open, `[lo, hi)`, with `hi ≤ lo · 65/64`. A quantile is read as
/// the **upper edge** `hi` of the bucket holding the requested rank: at
/// most 1/64 (1.56 %) above the order statistic it stands for and never
/// below it, so an objective the snapshot reports as met is met by the
/// requests themselves.
#[derive(Debug)]
pub struct Histogram {
    /// `LINEAR_BUCKETS + 2` counters: underflow, the linear buckets in
    /// ascending order, overflow.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Running sum, stored as `f64` bits (CAS-updated).
    sum_bits: AtomicU64,
}

/// Mantissa bits below the six that pick the linear sub-bucket.
const SUB_SHIFT: u32 = 52 - 6;
/// `bits >> SUB_SHIFT` of the lowest finite edge, `2^-20`.
const FIRST_KEY: u64 = (1023 - 20) << 6;
/// Thirty octaves of 64 sub-buckets: `[2^-20, 2^10)`.
const LINEAR_BUCKETS: u64 = 30 * 64;
/// Lowest and highest finite edges, `2^-20` and `2^10` seconds.
const MIN_S: f64 = f64::from_bits(FIRST_KEY << SUB_SHIFT);
const MAX_S: f64 = f64::from_bits((FIRST_KEY + LINEAR_BUCKETS) << SUB_SHIFT);

/// Bucket of `v`: 0 below `2^-20`, `LINEAR_BUCKETS + 1` at or above
/// `2^10` and for NaN.
fn bucket(v: f64) -> usize {
    if v < MIN_S {
        0
    } else if v < MAX_S {
        ((v.to_bits() >> SUB_SHIFT) - FIRST_KEY + 1) as usize
    } else {
        LINEAR_BUCKETS as usize + 1
    }
}

/// Upper edge of bucket `i`; overflow reads the last finite edge, `2^10`.
fn upper_edge(i: usize) -> f64 {
    f64::from_bits((FIRST_KEY + (i as u64).min(LINEAR_BUCKETS)) << SUB_SHIFT)
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::log_time()
    }
}

impl Histogram {
    /// An empty histogram (also the default).
    pub fn log_time() -> Self {
        Histogram {
            buckets: (0..LINEAR_BUCKETS + 2).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        self.buckets[bucket(v)].fetch_add(1, Ordering::Relaxed);
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

    /// Quantile `q ∈ [0, 1]` by nearest rank (`ceil(n·q)`, at least 1),
    /// read as the upper edge of the bucket holding that rank (0 when
    /// empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((n as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        let i = self.buckets.iter().position(|b| {
            cum += b.load(Ordering::Relaxed);
            cum >= rank
        });
        upper_edge(i.unwrap_or(self.buckets.len() - 1))
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

    /// `(submitted, answered)`: the requests that entered, and those
    /// completed, rejected or shed, for a step's ledger check.
    pub(crate) fn ledger(&self) -> (u64, u64) {
        let read = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let answered = read(&self.completed) + read(&self.rejected) + read(&self.deadline_exceeded);
        (read(&self.submitted), answered)
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
    /// Median latency by nearest rank, read as the upper edge of its
    /// histogram bucket: at most 1/64 above the order statistic (seconds).
    pub p50_latency_s: f64,
    /// 95th-percentile latency by nearest rank, read as the upper edge of its
    /// histogram bucket: at most 1/64 above the order statistic (seconds).
    pub p95_latency_s: f64,
    /// 99th-percentile latency by nearest rank, read as the upper edge of its
    /// histogram bucket: at most 1/64 above the order statistic (seconds).
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
                "Median latency, nearest rank; upper bucket edge, at most 1/64 above the true value.",
                self.p50_latency_s,
            ),
            (
                "pimdl_latency_p95_seconds",
                "95th-percentile latency, nearest rank; upper bucket edge, at most 1/64 above the true value.",
                self.p95_latency_s,
            ),
            (
                "pimdl_latency_p99_seconds",
                "99th-percentile latency, nearest rank; upper bucket edge, at most 1/64 above the true value.",
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

    /// The quantile a histogram holding only `v` reports.
    fn read_back(v: f64) -> f64 {
        let h = Histogram::log_time();
        h.record(v);
        h.quantile(0.5)
    }

    #[test]
    fn sketch_reads_at_most_one_sixty_fourth_above() {
        // A geometric sweep from 1 µs to 1000 s, 0.1 % apart: each value
        // alone reads back an edge in (v, v·65/64].
        let mut v = 1e-6;
        while v <= 1e3 {
            let edge = upper_edge(bucket(v));
            assert!(v < edge && edge <= v * 65.0 / 64.0, "{v} read {edge}");
            v *= 1.001;
        }
        assert_eq!(read_back(0.25), 0.25 * 65.0 / 64.0);

        // Many values in one histogram: every nearest rank reads within
        // the same bound of its order statistic.
        let h = Histogram::log_time();
        let mut sorted = Vec::new();
        let mut v = 1e-6;
        while v <= 1e3 {
            h.record(v);
            sorted.push(v);
            v *= 1.013;
        }
        let n = sorted.len() as f64;
        for (k, &x) in sorted.iter().enumerate() {
            let q = h.quantile((k as f64 + 0.5) / n);
            assert!(
                x < q && q <= x * 65.0 / 64.0,
                "rank {} of {x} read {q}",
                k + 1
            );
        }
    }

    #[test]
    fn powers_of_two_and_sub_bucket_edges_land_in_the_bucket_above() {
        for i in 0..LINEAR_BUCKETS as usize {
            // `upper_edge(i)` is the lower edge of bucket `i + 1`.
            let edge = upper_edge(i);
            assert_eq!(bucket(edge), i + 1, "edge {edge}");
            assert!(upper_edge(i + 1) > edge);
            let below = f64::from_bits(edge.to_bits() - 1);
            assert_eq!(bucket(below), i, "just below {edge}");
        }
        for k in -20..10 {
            let p = 2f64.powi(k);
            assert_eq!(read_back(p), p * 65.0 / 64.0, "2^{k}");
        }
    }

    #[test]
    fn out_of_range_values_read_the_end_edges() {
        let (first, last) = (2f64.powi(-20), 2f64.powi(10));
        for v in [
            0.0,
            -0.0,
            -1.0,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
            first * 0.99,
        ] {
            assert_eq!(read_back(v), first, "underflow {v}");
        }
        for v in [last, f64::INFINITY, f64::NAN, 1e9] {
            assert_eq!(read_back(v), last, "overflow {v}");
        }
        let h = Histogram::log_time();
        for v in [0.0, 0.001, f64::INFINITY] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), first);
        assert_eq!(h.quantile(0.5), upper_edge(bucket(0.001)));
        assert_eq!(h.quantile(1.0), last);
    }

    #[test]
    fn count_sum_and_mean_are_exact() {
        let h = Histogram::log_time();
        let values = [0.5, 0.7, 1.5, 3.0, 100.0];
        for v in values {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        let sum = values.iter().fold(0.0, |acc, v| acc + v);
        assert_eq!(h.sum().to_bits(), sum.to_bits());
        assert_eq!(h.mean().to_bits(), (sum / 5.0).to_bits());
        // Nearest rank: ranks 1..=5 are the values in order.
        for (k, v) in values.iter().enumerate() {
            let q = h.quantile((k as f64 + 0.5) / 5.0);
            assert_eq!(q, upper_edge(bucket(*v)), "rank {}", k + 1);
        }
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
