//! Property-based tests of the front-end building blocks the reactor
//! loop is built on: the continuous batcher's dispatch invariants under
//! random arrival patterns, the admission queue's backpressure contract
//! (the bound is never exceeded; every rejection is counted in the
//! metrics exactly once), and the one batching policy every front runs
//! held against that queue-plus-batcher pair on a single key.

use proptest::prelude::*;

use pimdl_engine::scheduler::{BatchingPolicy, TenantQuota};
use pimdl_serve::{AdmissionQueue, ContinuousBatcher, FairBatcher, Metrics, Request, TaggedJob};

/// What a pump did, in order: `(true, ids)` a batch left, `(false, ids)`
/// requests were shed (sorted by id).
type Event = (bool, Vec<u64>);

/// A minimal request: the batcher and queue only look at the id and the
/// time fields, never at the payload.
fn req(id: u64, arrival_s: f64, deadline_s: f64) -> Request {
    Request {
        id,
        arrival_s,
        deadline_s,
        indices: Vec::new(),
        expected_checksum: 0.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under random Poisson-ish arrivals and random drain moments, every
    /// dispatched batch respects the policy bound, is dispatched only
    /// when ready (full, or the oldest request waited out the window),
    /// and preserves FIFO order both within and across batches.
    #[test]
    fn batcher_never_exceeds_policy_and_stays_fifo(
        seed in 0u64..10_000,
        max_batch in 1usize..9,
        num in 1usize..200,
        mean_gap_ms in 1u64..12,
    ) {
        let policy = BatchingPolicy { max_batch, max_wait_s: 0.004 };
        let mut batcher = ContinuousBatcher::new(policy).unwrap();
        let mut rng = proptest::TestRng::deterministic(&format!("batcher-{seed}"));

        let mut t = 0.0f64;
        let mut next_id = 0u64;
        let mut dispatched: Vec<Vec<u64>> = Vec::new();
        let mut pushed = 0usize;
        while pushed < num {
            // A burst of 1..=4 arrivals at time t, then (sometimes) a
            // drain attempt — mimicking the reactor loop's wake cadence.
            let burst = 1 + rng.below(4) as usize;
            for _ in 0..burst.min(num - pushed) {
                prop_assert!(batcher.len() <= max_batch, "pending overflow");
                if batcher.is_full() {
                    // The loop never pushes past a full batch: drain first.
                    let batch = batcher.take();
                    prop_assert_eq!(batch.len(), max_batch);
                    dispatched.push(batch.iter().map(|r| r.id).collect());
                }
                batcher.push(req(next_id, t, f64::INFINITY));
                next_id += 1;
                pushed += 1;
            }
            t += (1 + rng.below(mean_gap_ms)) as f64 * 1e-3;
            if rng.below(2) == 0 && batcher.ready(t) {
                let batch = batcher.take();
                prop_assert!(!batch.is_empty());
                prop_assert!(batch.len() <= max_batch, "batch over policy max");
                // Ready but not full means the flush window elapsed.
                if batch.len() < max_batch {
                    let oldest = batch[0].arrival_s;
                    prop_assert!(t >= oldest + policy.max_wait_s,
                        "partial batch dispatched before its flush window");
                }
                dispatched.push(batch.iter().map(|r| r.id).collect());
            }
        }
        let tail = batcher.take();
        prop_assert!(batcher.is_empty(), "take must leave the batcher empty");
        prop_assert_eq!(batcher.len(), 0);
        dispatched.push(tail.iter().map(|r| r.id).collect());

        // FIFO: the concatenation of all batches is exactly 0..num in order.
        let flat: Vec<u64> = dispatched.into_iter().flatten().collect();
        let expect: Vec<u64> = (0..num as u64).collect();
        prop_assert_eq!(flat, expect, "dispatch order must be FIFO");
    }

    /// Admission backpressure: the queue never holds more than its
    /// capacity, an admit-or-reject decision is made for every arrival,
    /// and the metrics count each rejection exactly once.
    #[test]
    fn admission_bound_holds_and_rejects_count_once(
        seed in 0u64..10_000,
        capacity in 1usize..32,
        num in 1usize..300,
    ) {
        let mut queue = AdmissionQueue::new(capacity).unwrap();
        let metrics = Metrics::new();
        let mut rng = proptest::TestRng::deterministic(&format!("admit-{seed}"));

        let mut admitted: Vec<u64> = Vec::new();
        let mut rejected = 0u64;
        let mut popped: Vec<u64> = Vec::new();
        for id in 0..num as u64 {
            metrics.record_submitted();
            match queue.try_admit(req(id, id as f64, f64::INFINITY)) {
                Ok(()) => admitted.push(id),
                Err(back) => {
                    // The rejected request comes back intact, and the
                    // refusal is recorded exactly once.
                    prop_assert_eq!(back.id, id);
                    prop_assert_eq!(queue.len(), capacity,
                        "rejection implies a full queue");
                    metrics.record_rejected();
                    rejected += 1;
                }
            }
            prop_assert!(queue.len() <= capacity, "queue exceeded its bound");
            // Random consumer progress: sometimes pop a few.
            for _ in 0..rng.below(3) {
                if let Some(r) = queue.pop() {
                    popped.push(r.id);
                }
            }
        }
        while let Some(r) = queue.pop() {
            popped.push(r.id);
        }
        prop_assert!(queue.is_empty());

        // Conservation: admitted requests drain in FIFO order; admitted +
        // rejected accounts for every arrival; the metrics agree.
        prop_assert_eq!(&popped, &admitted, "queue must drain FIFO");
        prop_assert_eq!(admitted.len() as u64 + rejected, num as u64);
        let snap = metrics.snapshot();
        prop_assert_eq!(snap.submitted, num as u64);
        prop_assert_eq!(snap.rejected, rejected);
        prop_assert_eq!(snap.completed, 0);
    }

    /// The one policy against the line front's former pair on one key: an
    /// `AdmissionQueue` feeding a `ContinuousBatcher`, pumped the way the
    /// line front pumped them (shed the queue, then the pending batch;
    /// refill; flush when ready, or when draining and non-empty), against
    /// a `FairBatcher` with one tenant whose quota never binds. Random
    /// scripts admit (finite and infinite deadlines), advance the clock,
    /// shed with every shard busy, and take with one shard free. Until the
    /// unified batcher first refuses, both shed the same requests and
    /// dispatch the same batches in the same order; throughout, it
    /// refuses exactly when `queued >= capacity`.
    #[test]
    fn one_policy_matches_the_queue_and_batcher_it_replaced(
        seed in 0u64..10_000,
        max_batch in 1usize..7,
        capacity in 1usize..24,
        steps in 1usize..160,
    ) {
        let window = 0.004;
        let policy = BatchingPolicy { max_batch, max_wait_s: window };
        let mut queue = AdmissionQueue::new(capacity).unwrap();
        let mut batcher = ContinuousBatcher::new(policy).unwrap();
        let never_binds = TenantQuota { weight: 1, max_in_flight: usize::MAX };
        let mut fair = FairBatcher::new(policy, capacity, &[], Some(never_binds)).unwrap();
        let mut rng = proptest::TestRng::deterministic(&format!("one-policy-{seed}"));
        let job = |request: Request| TaggedJob {
            request,
            tenant: String::new(),
            model: String::new(),
        };

        let (mut want, mut got): (Vec<Event>, Vec<Event>) = Default::default();
        let mut comparable = true;
        let (mut now, mut next_id) = (0.0f64, 0u64);
        for _ in 0..steps {
            match rng.below(8) {
                // Admit, arriving now.
                0..=3 => {
                    let deadline = match rng.below(3) {
                        0 => f64::INFINITY,
                        _ => now + 3.0 * window * rng.unit_f64(),
                    };
                    let r = req(next_id, now, deadline);
                    next_id += 1;
                    let full = fair.queued_total() >= capacity;
                    let refused = fair.admit(job(r.clone())).is_err();
                    prop_assert_eq!(refused, full, "refusal must be exactly queued >= capacity");
                    prop_assert!(fair.queued_total() <= capacity);
                    comparable &= !refused;
                    let _ = queue.try_admit(r);
                }
                // Advance the clock.
                4 | 5 => now += 2.0 * window * rng.unit_f64(),
                // Pump with every shard busy (shed only), or with one free.
                pump => {
                    let free = pump == 7;
                    let draining = rng.below(4) == 0;
                    let mut shed: Vec<u64> = queue.shed_expired(now).iter().map(|r| r.id).collect();
                    shed.extend(batcher.shed_expired(now).iter().map(|r| r.id));
                    shed.sort_unstable();
                    while !batcher.is_full() {
                        match queue.pop() {
                            Some(r) => batcher.push(r),
                            None => break,
                        }
                    }
                    if !shed.is_empty() {
                        want.push((false, shed));
                    }
                    if free && (batcher.ready(now) || (draining && !batcher.is_empty())) {
                        want.push((true, batcher.take().iter().map(|r| r.id).collect()));
                    }

                    let shed: Vec<u64> = fair.shed_expired(now).iter().map(|j| j.request.id).collect();
                    if !shed.is_empty() {
                        got.push((false, shed));
                    }
                    if free && (fair.ready(now) || (draining && !fair.is_empty())) {
                        let (model, jobs) = fair.take_batch().unwrap();
                        prop_assert_eq!(model, "");
                        prop_assert!(jobs.len() <= max_batch);
                        got.push((true, jobs.iter().map(|j| j.request.id).collect()));
                    }
                }
            }
            if comparable {
                prop_assert_eq!(&got, &want, "the one policy diverged from the pair");
            }
        }
    }
}
