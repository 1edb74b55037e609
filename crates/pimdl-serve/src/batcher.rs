//! Continuous batcher: a single batch's flush state machine.
//!
//! Reuses the [`BatchingPolicy`] semantics of `pimdl_engine::scheduler`
//! (the discrete-event simulator): a batch flushes when it reaches
//! `max_batch` requests, or when the **oldest** pending request has waited
//! `max_wait_s` since its arrival. No front end uses it: every front
//! batches through [`crate::FairBatcher`]. It stays public because the
//! benchmark's replay (`bench/src/replay.rs`) times it, and it is the
//! reference that policy is held to in a differential test; the benchmark
//! change that stops timing it deletes it.

use pimdl_engine::scheduler::BatchingPolicy;

use crate::request::Request;
use crate::Result;

/// Accumulates admitted requests into the next batch.
#[derive(Debug)]
pub struct ContinuousBatcher {
    policy: BatchingPolicy,
    pending: Vec<Request>,
}

impl ContinuousBatcher {
    /// A batcher following `policy`.
    ///
    /// # Errors
    ///
    /// Returns the policy's own validation error (`max_batch == 0`,
    /// negative or non-finite `max_wait_s`).
    pub fn new(policy: BatchingPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(ContinuousBatcher {
            policy,
            pending: Vec::with_capacity(policy.max_batch),
        })
    }

    /// Pending request count.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether the pending batch is at `max_batch`.
    pub fn is_full(&self) -> bool {
        self.pending.len() >= self.policy.max_batch
    }

    /// Adds a request (callers must not push past `max_batch`: push only
    /// while `!is_full()`).
    pub fn push(&mut self, req: Request) {
        debug_assert!(!self.is_full(), "batcher overfilled");
        self.pending.push(req);
    }

    /// Absolute time at which the pending batch must flush even if not
    /// full (`oldest arrival + max_wait_s`); `None` when empty.
    pub fn flush_deadline_s(&self) -> Option<f64> {
        self.pending
            .first()
            .map(|r| r.arrival_s + self.policy.max_wait_s)
    }

    /// Whether the pending batch should flush at `now`: full, or the
    /// oldest request has waited out the window.
    pub fn ready(&self, now: f64) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        self.is_full() || self.flush_deadline_s().is_some_and(|d| now >= d)
    }

    /// Removes and returns pending requests whose deadline has passed.
    pub fn shed_expired(&mut self, now: f64) -> Vec<Request> {
        let mut shed = Vec::new();
        self.pending.retain(|r| {
            if r.expired(now) {
                shed.push(r.clone());
                false
            } else {
                true
            }
        });
        shed
    }

    /// Earliest finite request deadline among pending requests.
    pub fn min_deadline_s(&self) -> Option<f64> {
        self.pending
            .iter()
            .map(|r| r.deadline_s)
            .filter(|d| d.is_finite())
            .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.min(d))))
    }

    /// Takes the pending batch (the batcher is empty afterwards).
    pub fn take(&mut self) -> Vec<Request> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival: f64) -> Request {
        Request {
            id,
            arrival_s: arrival,
            deadline_s: f64::INFINITY,
            indices: Vec::new(),
            expected_checksum: 0.0,
        }
    }

    fn policy(max_batch: usize, max_wait_s: f64) -> BatchingPolicy {
        BatchingPolicy::new(max_batch, max_wait_s).unwrap()
    }

    #[test]
    fn degenerate_policy_is_rejected() {
        assert!(ContinuousBatcher::new(BatchingPolicy {
            max_batch: 0,
            max_wait_s: 0.01,
        })
        .is_err());
        assert!(ContinuousBatcher::new(BatchingPolicy {
            max_batch: 4,
            max_wait_s: f64::NAN,
        })
        .is_err());
    }

    #[test]
    fn flushes_on_max_batch() {
        let mut b = ContinuousBatcher::new(policy(3, 10.0)).unwrap();
        b.push(req(0, 0.0));
        b.push(req(1, 0.1));
        assert!(!b.ready(0.2), "partial batch inside the window");
        b.push(req(2, 0.2));
        assert!(b.is_full());
        assert!(b.ready(0.2), "full batch flushes immediately");
        let batch = b.take();
        assert_eq!(batch.len(), 3);
        assert!(b.is_empty());
    }

    #[test]
    fn flushes_on_max_wait_from_oldest_arrival() {
        let mut b = ContinuousBatcher::new(policy(64, 0.050)).unwrap();
        b.push(req(0, 1.000));
        b.push(req(1, 1.030));
        assert_eq!(b.flush_deadline_s(), Some(1.050));
        assert!(!b.ready(1.049));
        assert!(b.ready(1.050), "window measured from the oldest arrival");
        assert_eq!(b.take().len(), 2);
        assert_eq!(b.flush_deadline_s(), None);
    }

    #[test]
    fn sheds_expired_pending_requests() {
        let mut b = ContinuousBatcher::new(policy(8, 1.0)).unwrap();
        b.push(Request {
            deadline_s: 0.5,
            ..req(0, 0.0)
        });
        b.push(Request {
            deadline_s: 2.0,
            ..req(1, 0.1)
        });
        assert_eq!(b.min_deadline_s(), Some(0.5));
        let shed = b.shed_expired(1.0);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].id, 0);
        assert_eq!(b.len(), 1);
    }
}
