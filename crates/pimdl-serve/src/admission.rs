//! Bounded admission queue with explicit load shedding.
//!
//! The front end never blocks a client and never grows without bound:
//! a full queue rejects immediately ([`crate::request::Outcome::Rejected`]),
//! and queued requests whose deadline passes before dispatch are shed
//! ([`crate::request::Outcome::DeadlineExceeded`]). This is the
//! backpressure half of the runtime — the batcher only drains this queue
//! when a shard can actually absorb the work.

use std::collections::VecDeque;

use crate::error::ServeError;
use crate::request::Request;
use crate::Result;

/// FIFO queue with a hard capacity.
#[derive(Debug)]
pub struct AdmissionQueue {
    capacity: usize,
    queue: VecDeque<Request>,
}

impl AdmissionQueue {
    /// A queue holding at most `capacity` requests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for a zero capacity.
    pub fn new(capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(ServeError::Config {
                detail: "admission queue capacity must be >= 1".to_string(),
            });
        }
        Ok(AdmissionQueue {
            capacity,
            queue: VecDeque::with_capacity(capacity.min(1024)),
        })
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether [`Self::try_admit`] would refuse: lets the caller skip
    /// building a request it could only have rejected.
    pub fn is_full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Admits `req`, or hands it back if the queue is full (the caller
    /// records the rejection).
    ///
    /// # Errors
    ///
    /// The rejected request itself.
    pub fn try_admit(&mut self, req: Request) -> std::result::Result<(), Request> {
        if self.is_full() {
            return Err(req);
        }
        self.queue.push_back(req);
        Ok(())
    }

    /// Removes and returns every queued request whose deadline has passed
    /// at `now`.
    pub fn shed_expired(&mut self, now: f64) -> Vec<Request> {
        let mut shed = Vec::new();
        self.queue.retain(|r| {
            if r.expired(now) {
                shed.push(r.clone());
                false
            } else {
                true
            }
        });
        shed
    }

    /// Pops the oldest queued request.
    pub fn pop(&mut self) -> Option<Request> {
        self.queue.pop_front()
    }

    /// Earliest deadline among queued requests (`None` when empty or all
    /// deadlines are infinite).
    pub fn min_deadline_s(&self) -> Option<f64> {
        self.queue
            .iter()
            .map(|r| r.deadline_s)
            .filter(|d| d.is_finite())
            .fold(None, |acc, d| Some(acc.map_or(d, |a: f64| a.min(d))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, arrival: f64, deadline: f64) -> Request {
        Request {
            id,
            arrival_s: arrival,
            deadline_s: deadline,
            indices: Vec::new(),
            expected_checksum: 0.0,
        }
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(AdmissionQueue::new(0).is_err());
    }

    #[test]
    fn full_queue_sheds_new_arrivals() {
        let mut q = AdmissionQueue::new(2).unwrap();
        assert!(q.try_admit(req(0, 0.0, f64::INFINITY)).is_ok());
        assert!(q.try_admit(req(1, 0.1, f64::INFINITY)).is_ok());
        let back = q.try_admit(req(2, 0.2, f64::INFINITY));
        assert_eq!(back.unwrap_err().id, 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn expired_requests_are_shed_fifo_preserved() {
        let mut q = AdmissionQueue::new(8).unwrap();
        q.try_admit(req(0, 0.0, 1.0)).unwrap();
        q.try_admit(req(1, 0.1, 5.0)).unwrap();
        q.try_admit(req(2, 0.2, 1.5)).unwrap();
        assert_eq!(q.min_deadline_s(), Some(1.0));
        let shed = q.shed_expired(2.0);
        assert_eq!(shed.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(q.pop().unwrap().id, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn infinite_deadlines_never_expire() {
        let mut q = AdmissionQueue::new(4).unwrap();
        q.try_admit(req(0, 0.0, f64::INFINITY)).unwrap();
        assert!(q.shed_expired(1e12).is_empty());
        assert_eq!(q.min_deadline_s(), None);
    }
}
