//! Multi-tenant model registry and the one admission-and-batching policy.
//!
//! Two pieces sit between the front ends and the shards that execute:
//!
//! * [`ModelRegistry`] — named calibrated [`ReplicaModel`]s resident
//!   concurrently; the infer route picks one by name and every dispatched
//!   batch executes against exactly one registered table.
//! * [`FairBatcher`] — the admission and batching policy of every front
//!   end: a bounded queue, deadline shedding, and a flush on size or on
//!   the oldest job's window. Jobs queue per key, a (model or table,
//!   tenant) pair, and tenants are scheduled by **stride scheduling**:
//!   each holds an integer `pass`, advanced by
//!   `TENANT_STRIDE_SCALE / weight` per scheduled request, and the batcher
//!   always serves the smallest pass (ties break on tenant name, so the
//!   schedule is deterministic). A weight-3 tenant therefore gets 3x the
//!   service of a weight-1 tenant under contention, and a hot tenant
//!   cannot starve the rest: everyone's pass keeps ratcheting forward.
//!
//! Batches are **model-uniform** — one dispatch executes against one
//! model's table — so the batcher picks a lead `(tenant, model)` by pass
//! and fills the rest of the batch with the stride order restricted to
//! that model. Admission enforces [`TenantQuota::max_in_flight`] (HTTP
//! 429) per tenant and a global queued-job capacity (HTTP 503) before any
//! job enters a queue.
//!
//! The HTTP front names its tenants and models. The line front and the
//! shard fabric run the same policy with one implicit tenant of weight 1
//! whose quota never binds (`FairBatcher::one_tenant`), so the global
//! capacity is their only refusal; the line front's one model and the
//! implicit tenant are the empty name, which allocates nothing. The fabric
//! keys by table and asks per key (`FairBatcher::ready_key`,
//! `FairBatcher::take_key`), because a table can leave only for its
//! resident shard, and only while that shard is free.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use pimdl_engine::scheduler::{BatchingPolicy, TenantQuota};

use crate::codec;
use crate::error::ServeError;
use crate::request::Request;
use crate::shard::ReplicaModel;
use crate::Result;

/// Named, concurrently resident model replicas.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, Arc<ReplicaModel>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Registers `replica` under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for an invalid name (URL-safe
    /// `[A-Za-z0-9._-]{1,64}` only — it appears in request paths) or a
    /// duplicate registration.
    pub fn register(&mut self, name: &str, replica: Arc<ReplicaModel>) -> Result<()> {
        if !codec::valid_name(name) {
            return Err(ServeError::Config {
                detail: format!("invalid model name {name:?} (want [A-Za-z0-9._-]{{1,64}})"),
            });
        }
        if self.models.contains_key(name) {
            return Err(ServeError::Config {
                detail: format!("model {name:?} is already registered"),
            });
        }
        self.models.insert(name.to_string(), replica);
        Ok(())
    }

    /// A registry of `replica` alone, under the empty name: the line
    /// front's one model, which its queries never name.
    pub(crate) fn one(replica: Arc<ReplicaModel>) -> Self {
        ModelRegistry {
            models: BTreeMap::from([(String::new(), replica)]),
        }
    }

    /// The replica registered under `name`.
    pub fn get(&self, name: &str) -> Option<&Arc<ReplicaModel>> {
        self.models.get(name)
    }

    /// Registered model names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// One queued inference job, tagged with the tenant that owns it and the
/// registered model it executes against.
#[derive(Debug, Clone, PartialEq)]
pub struct TaggedJob {
    /// The underlying request (checksum computed against `model`'s table).
    pub request: Request,
    /// Owning tenant (quota accounting and fair-share identity).
    pub tenant: String,
    /// Registered model name the job executes against.
    pub model: String,
}

/// Why the batcher refused a job at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitRefusal {
    /// The tenant is not configured and no default quota exists (HTTP 403).
    UnknownTenant,
    /// The tenant is at its `max_in_flight` quota (HTTP 429).
    QuotaExceeded,
    /// The global queued-job capacity is exhausted (HTTP 503).
    QueueFull,
}

/// Per-tenant scheduling state.
#[derive(Debug)]
struct TenantState {
    quota: TenantQuota,
    /// Stride-scheduler pass: the tenant with the smallest pass is served
    /// next; each scheduled request advances it by `quota.stride()`.
    pass: u64,
    /// Admitted-but-unfinished jobs (queued here plus dispatched).
    in_flight: usize,
    /// Jobs queued here, over every model.
    queued: usize,
}

impl TenantState {
    fn new(quota: TenantQuota) -> Self {
        TenantState {
            quota,
            pass: 0,
            in_flight: 0,
            queued: 0,
        }
    }

    /// `n` of the tenant's queued jobs left without running.
    fn forget(&mut self, n: usize) {
        self.queued -= n;
        self.in_flight = self.in_flight.saturating_sub(n);
    }
}

/// One model's queues: a FIFO per tenant.
#[derive(Debug, Default)]
struct ModelQueues {
    /// Jobs queued for the model, over every tenant.
    queued: usize,
    by_tenant: BTreeMap<String, VecDeque<TaggedJob>>,
}

impl ModelQueues {
    /// Queues `job` at the back of its tenant's FIFO, or at the front.
    fn push(&mut self, job: TaggedJob, front: bool) {
        self.queued += 1;
        match self.by_tenant.get_mut(&job.tenant) {
            Some(q) if front => q.push_front(job),
            Some(q) => q.push_back(job),
            None => {
                let tenant = job.tenant.clone();
                self.by_tenant.insert(tenant, VecDeque::from([job]));
            }
        }
    }

    /// When the model's oldest queued job has waited `max_wait_s`.
    fn flush_deadline_s(&self, max_wait_s: f64) -> Option<f64> {
        let oldest = self.by_tenant.values().filter_map(VecDeque::front);
        oldest
            .map(|j| j.request.arrival_s)
            .reduce(f64::min)
            .map(|a| a + max_wait_s)
    }
}

/// Weighted-fair, model-uniform continuous batcher over per-key queues.
///
/// Pure state machine: time enters only through `now` arguments, so the
/// identical schedule runs under the real poller and the deterministic
/// simulated one. A key's queue is created by its first job and kept, so
/// admission allocates nothing once every key has been seen.
#[derive(Debug)]
pub struct FairBatcher {
    policy: BatchingPolicy,
    capacity: usize,
    default_quota: Option<TenantQuota>,
    tenants: BTreeMap<String, TenantState>,
    models: BTreeMap<String, ModelQueues>,
    /// Global virtual time: the pass of the most recently scheduled
    /// request. A tenant going from idle to active restarts at this value
    /// (not its stale old pass), so sleeping does not bank priority and
    /// returning does not let it monopolize the batcher.
    global_pass: u64,
    queued_total: usize,
}

impl FairBatcher {
    /// A batcher flushing under `policy`, holding at most `capacity`
    /// queued jobs globally, with the given per-tenant quotas. Tenants not
    /// listed fall back to `default_quota`; with `None`, unknown tenants
    /// are refused outright.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] for an invalid policy, a zero
    /// capacity, a duplicate tenant name, or any invalid quota.
    pub fn new(
        policy: BatchingPolicy,
        capacity: usize,
        tenants: &[(String, TenantQuota)],
        default_quota: Option<TenantQuota>,
    ) -> Result<Self> {
        policy.validate()?;
        if capacity == 0 {
            return Err(ServeError::Config {
                detail: "fair batcher capacity must be >= 1".to_string(),
            });
        }
        if let Some(q) = &default_quota {
            q.validate()?;
        }
        let mut map = BTreeMap::new();
        for (name, quota) in tenants {
            quota.validate()?;
            if name.is_empty() {
                return Err(ServeError::Config {
                    detail: "tenant name must be non-empty".to_string(),
                });
            }
            if map.insert(name.clone(), TenantState::new(*quota)).is_some() {
                return Err(ServeError::Config {
                    detail: format!("tenant {name:?} configured twice"),
                });
            }
        }
        Ok(FairBatcher {
            policy,
            capacity,
            default_quota,
            tenants: map,
            models: BTreeMap::new(),
            global_pass: 0,
            queued_total: 0,
        })
    }

    /// The batcher of a front with one implicit tenant (the line front and
    /// the fabric): weight 1 and an in-flight quota no run can reach, so
    /// `capacity` is its only refusal. Its jobs name the tenant `""`.
    ///
    /// # Errors
    ///
    /// As [`FairBatcher::new`].
    pub(crate) fn one_tenant(policy: BatchingPolicy, capacity: usize) -> Result<Self> {
        let never_binds = TenantQuota {
            weight: 1,
            max_in_flight: usize::MAX,
        };
        Self::new(policy, capacity, &[], Some(never_binds))
    }

    /// Jobs queued across every key.
    pub fn queued_total(&self) -> usize {
        self.queued_total
    }

    /// The global queued-job capacity admission holds the queue to.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether no job is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.queued_total == 0
    }

    /// A tenant's admitted-but-unfinished job count.
    pub fn in_flight_of(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.in_flight)
    }

    /// A tenant holding more admitted-but-unfinished jobs than its
    /// `max_in_flight` quota, with that count and the quota, for a step's
    /// debug check; `None` while every tenant is within its quota.
    pub(crate) fn over_quota(&self) -> Option<(&str, usize, usize)> {
        self.tenants.iter().find_map(|(name, t)| {
            (t.in_flight > t.quota.max_in_flight).then_some((
                name.as_str(),
                t.in_flight,
                t.quota.max_in_flight,
            ))
        })
    }

    /// Why [`Self::admit`] would refuse a job of `tenant` right now (`None`
    /// if it would be admitted): lets the caller skip building a job it
    /// could only have bounced. The capacity counts every queued job, the
    /// batch being formed included.
    pub fn refusal_for(&self, tenant: &str) -> Option<AdmitRefusal> {
        let quota = match (self.tenants.get(tenant), self.default_quota) {
            (Some(t), _) => t.quota,
            (None, Some(q)) => q,
            (None, None) => return Some(AdmitRefusal::UnknownTenant),
        };
        if self.in_flight_of(tenant) >= quota.max_in_flight {
            return Some(AdmitRefusal::QuotaExceeded);
        }
        (self.queued_total >= self.capacity).then_some(AdmitRefusal::QueueFull)
    }

    /// Admits `job` into its key's queue, or hands it back with the
    /// refusal reason (the caller answers it and records the rejection).
    ///
    /// # Errors
    ///
    /// The refused job and why: unknown tenant, per-tenant quota, or
    /// global capacity.
    pub fn admit(&mut self, job: TaggedJob) -> std::result::Result<(), (TaggedJob, AdmitRefusal)> {
        if let Some(refusal) = self.refusal_for(&job.tenant) {
            return Err((job, refusal));
        }
        if let Some(t) = self.tenants.get_mut(&job.tenant) {
            t.in_flight += 1;
        } else if let Some(quota) = self.default_quota {
            let mut t = TenantState::new(quota);
            t.in_flight = 1;
            self.tenants.insert(job.tenant.clone(), t);
        }
        self.enqueue(job, false);
        Ok(())
    }

    /// Puts a job taken in a batch that never ran (its shard died) back at
    /// the front of its key's queue, so it leaves again ahead of newer
    /// arrivals; requeue a batch last job first to keep its order. The job
    /// keeps the in-flight slot it was admitted with, and no capacity check
    /// applies: it was admitted once.
    pub(crate) fn requeue_front(&mut self, job: TaggedJob) {
        self.enqueue(job, true);
    }

    fn enqueue(&mut self, job: TaggedJob, front: bool) {
        if let Some(t) = self.tenants.get_mut(&job.tenant) {
            if t.queued == 0 {
                // Idle → active: rejoin at the current virtual time.
                t.pass = t.pass.max(self.global_pass);
            }
            t.queued += 1;
        }
        self.queued_total += 1;
        match self.models.get_mut(&job.model) {
            Some(mq) => mq.push(job, front),
            None => {
                let (model, mut mq) = (job.model.clone(), ModelQueues::default());
                mq.push(job, front);
                self.models.insert(model, mq);
            }
        }
    }

    /// Releases one in-flight slot of `tenant` (its job completed after
    /// dispatch). Queued jobs removed by [`FairBatcher::shed_expired`] or
    /// `FairBatcher::drain_key` release their slot there.
    pub fn release(&mut self, tenant: &str) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.in_flight = t.in_flight.saturating_sub(1);
        }
    }

    /// Removes and returns every queued job whose deadline has passed at
    /// `now` (their in-flight slots are released here), in id order.
    pub fn shed_expired(&mut self, now: f64) -> Vec<TaggedJob> {
        let mut shed = Vec::new();
        for mq in self.models.values_mut() {
            for (tenant, q) in &mut mq.by_tenant {
                if !q.iter().any(|j| j.request.expired(now)) {
                    continue;
                }
                // One turn through the queue keeps the survivors in order
                // and in place.
                let before = shed.len();
                for _ in 0..q.len() {
                    match q.pop_front() {
                        Some(j) if j.request.expired(now) => shed.push(j),
                        Some(j) => q.push_back(j),
                        None => break,
                    }
                }
                let dropped = shed.len() - before;
                mq.queued -= dropped;
                self.queued_total -= dropped;
                if let Some(t) = self.tenants.get_mut(tenant) {
                    t.forget(dropped);
                }
            }
        }
        shed.sort_by_key(|j| j.request.id);
        shed
    }

    /// Removes and returns every job queued for `model` (their in-flight
    /// slots are released here), tenant by tenant in FIFO order: what a
    /// caller answers once no shard will ever serve the model again.
    pub(crate) fn drain_key(&mut self, model: &str) -> Vec<TaggedJob> {
        let mut out = Vec::new();
        if let Some(mq) = self.models.get_mut(model) {
            for (tenant, q) in &mut mq.by_tenant {
                if let Some(t) = self.tenants.get_mut(tenant) {
                    t.forget(q.len());
                }
                out.extend(q.drain(..));
            }
            self.queued_total -= mq.queued;
            mq.queued = 0;
        }
        out
    }

    /// Absolute time the oldest queued job forces a flush
    /// (`oldest arrival + max_wait_s`); `None` when empty.
    pub fn flush_deadline_s(&self) -> Option<f64> {
        let w = self.policy.max_wait_s;
        let each = self.models.values().filter_map(|mq| mq.flush_deadline_s(w));
        each.reduce(f64::min)
    }

    /// [`FairBatcher::flush_deadline_s`] of `model`'s jobs alone.
    pub(crate) fn flush_deadline_key(&self, model: &str) -> Option<f64> {
        let mq = self.models.get(model)?;
        mq.flush_deadline_s(self.policy.max_wait_s)
    }

    /// Earliest finite request deadline among queued jobs.
    pub fn min_deadline_s(&self) -> Option<f64> {
        self.models
            .values()
            .flat_map(|mq| mq.by_tenant.values().flatten())
            .map(|j| j.request.deadline_s)
            .filter(|d| d.is_finite())
            .reduce(f64::min)
    }

    /// Whether a batch should flush at `now`: some model could fill a full
    /// batch, or the oldest queued job has waited out the window.
    pub fn ready(&self, now: f64) -> bool {
        self.models.values().any(|mq| self.due(mq, now))
    }

    /// [`FairBatcher::ready`] for `model`'s jobs alone.
    pub(crate) fn ready_key(&self, model: &str, now: f64) -> bool {
        self.models.get(model).is_some_and(|mq| self.due(mq, now))
    }

    fn due(&self, mq: &ModelQueues, now: f64) -> bool {
        mq.queued >= self.policy.max_batch
            || mq
                .flush_deadline_s(self.policy.max_wait_s)
                .is_some_and(|d| now >= d)
    }

    /// The model the lead (smallest-pass, ties on name) tenant's oldest
    /// job targets — what the next batch will execute against.
    fn lead_model(&self) -> Option<&str> {
        let mut lead: Option<(&str, u64)> = None;
        for (name, t) in &self.tenants {
            // Strict `<` over name order keeps the first tenant on ties.
            if t.queued > 0 && lead.is_none_or(|(_, p)| t.pass < p) {
                lead = Some((name, t.pass));
            }
        }
        let (lead, _) = lead?;
        let mut oldest: Option<(&str, f64)> = None;
        for (model, mq) in &self.models {
            let Some(j) = mq.by_tenant.get(lead).and_then(VecDeque::front) else {
                continue;
            };
            let a = j.request.arrival_s;
            if oldest.is_none_or(|(_, o)| a.total_cmp(&o).is_lt()) {
                oldest = Some((model, a));
            }
        }
        oldest.map(|(m, _)| m)
    }

    /// Forms the next batch for `model` in stride order: up to `max_batch`
    /// jobs popped from the smallest-pass tenants holding jobs for it,
    /// each pop charging its tenant one stride. `None` when none is
    /// queued.
    pub(crate) fn take_key(&mut self, model: &str) -> Option<Vec<TaggedJob>> {
        let FairBatcher {
            policy,
            tenants,
            models,
            global_pass,
            queued_total,
            ..
        } = self;
        let mq = models.get_mut(model)?;
        let mut batch = Vec::new();
        while batch.len() < policy.max_batch {
            let mut next: Option<(u64, &str, &mut VecDeque<TaggedJob>)> = None;
            for (name, q) in &mut mq.by_tenant {
                let pass = tenants.get(name).map_or(u64::MAX, |t| t.pass);
                // Strict `<` over name order keeps the first tenant on ties.
                if !q.is_empty() && next.as_ref().is_none_or(|n| pass < n.0) {
                    next = Some((pass, name, q));
                }
            }
            let Some(job) = next.and_then(|(_, name, q)| {
                let t = tenants.get_mut(name)?;
                let job = q.pop_front()?;
                t.queued -= 1;
                *global_pass = (*global_pass).max(t.pass);
                t.pass = t.pass.saturating_add(t.quota.stride());
                Some(job)
            }) else {
                break;
            };
            mq.queued -= 1;
            *queued_total -= 1;
            batch.push(job);
        }
        (!batch.is_empty()).then_some(batch)
    }

    /// Forms the next model-uniform batch in stride order: the lead
    /// tenant's oldest job picks the model, then
    /// `FairBatcher::take_key` fills it. Returns the model name and the
    /// jobs; `None` when nothing is queued.
    pub fn take_batch(&mut self) -> Option<(String, Vec<TaggedJob>)> {
        let model = self.lead_model()?.to_string();
        let jobs = self.take_key(&model)?;
        Some((model, jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quota(weight: u64, max_in_flight: usize) -> TenantQuota {
        TenantQuota::new(weight, max_in_flight).unwrap()
    }

    fn job(id: u64, tenant: &str, model: &str) -> TaggedJob {
        TaggedJob {
            request: Request {
                id,
                arrival_s: id as f64 * 1e-4,
                deadline_s: f64::INFINITY,
                indices: Vec::new(),
                expected_checksum: 0.0,
            },
            tenant: tenant.to_string(),
            model: model.to_string(),
        }
    }

    fn batcher(capacity: usize, tenants: &[(&str, TenantQuota)]) -> FairBatcher {
        let tenants: Vec<(String, TenantQuota)> =
            tenants.iter().map(|(n, q)| (n.to_string(), *q)).collect();
        FairBatcher::new(
            BatchingPolicy {
                max_batch: 4,
                max_wait_s: 0.004,
            },
            capacity,
            &tenants,
            None,
        )
        .unwrap()
    }

    #[test]
    fn registry_registers_and_rejects_duplicates() {
        let mut reg = ModelRegistry::new();
        assert!(reg.is_empty());
        assert!(reg.register("bad name", dummy_replica()).is_err());
        reg.register("m-a", dummy_replica()).unwrap();
        assert!(reg.register("m-a", dummy_replica()).is_err());
        reg.register("m-b", dummy_replica()).unwrap();
        assert_eq!(reg.names(), vec!["m-a", "m-b"]);
        assert_eq!(reg.len(), 2);
        assert!(reg.get("m-a").is_some());
        assert!(reg.get("nope").is_none());
    }

    fn dummy_replica() -> Arc<ReplicaModel> {
        use pimdl_engine::pipeline::PimDlEngine;
        use pimdl_sim::{LutWorkload, PlatformConfig};
        let mut p = PlatformConfig::upmem();
        p.num_pes = 64;
        let engine = PimDlEngine::new(p);
        let w = LutWorkload::new(8, 8, 16, 32).unwrap();
        Arc::new(ReplicaModel::build(&engine, w, 7).unwrap())
    }

    #[test]
    fn admission_enforces_quota_capacity_and_tenancy() {
        let mut b = batcher(3, &[("a", quota(1, 2))]);
        assert!(b.admit(job(0, "a", "m")).is_ok());
        assert!(b.admit(job(1, "a", "m")).is_ok());
        // Per-tenant in-flight cap before global capacity.
        let (_, r) = b.admit(job(2, "a", "m")).unwrap_err();
        assert_eq!(r, AdmitRefusal::QuotaExceeded);
        // Unknown tenant with no default quota.
        let (_, r) = b.admit(job(3, "x", "m")).unwrap_err();
        assert_eq!(r, AdmitRefusal::UnknownTenant);
        assert_eq!(b.queued_total(), 2);
        assert_eq!(b.in_flight_of("a"), 2);
    }

    #[test]
    fn global_capacity_refuses_across_tenants() {
        let mut b = batcher(2, &[("a", quota(1, 8)), ("b", quota(1, 8))]);
        assert!(b.admit(job(0, "a", "m")).is_ok());
        assert!(b.admit(job(1, "b", "m")).is_ok());
        let (_, r) = b.admit(job(2, "a", "m")).unwrap_err();
        assert_eq!(r, AdmitRefusal::QueueFull);
    }

    #[test]
    fn default_quota_admits_unknown_tenants() {
        let mut b = FairBatcher::new(
            BatchingPolicy {
                max_batch: 4,
                max_wait_s: 0.004,
            },
            8,
            &[],
            Some(quota(1, 1)),
        )
        .unwrap();
        assert!(b.admit(job(0, "anyone", "m")).is_ok());
        let (_, r) = b.admit(job(1, "anyone", "m")).unwrap_err();
        assert_eq!(r, AdmitRefusal::QuotaExceeded);
        b.release("anyone");
        assert!(b.admit(job(2, "anyone", "m")).is_ok());
    }

    #[test]
    fn release_after_dispatch_frees_quota() {
        let mut b = batcher(8, &[("a", quota(1, 1))]);
        assert!(b.admit(job(0, "a", "m")).is_ok());
        let (model, batch) = b.take_batch().unwrap();
        assert_eq!(model, "m");
        assert_eq!(batch.len(), 1);
        // Still in flight (dispatched), so the quota still binds.
        let (_, r) = b.admit(job(1, "a", "m")).unwrap_err();
        assert_eq!(r, AdmitRefusal::QuotaExceeded);
        b.release("a");
        assert!(b.admit(job(2, "a", "m")).is_ok());
    }

    #[test]
    fn stride_schedule_serves_weights_proportionally() {
        // a:3, b:1, both saturated on the same model → stride order gives
        // a three slots for every one of b.
        let mut b = batcher(64, &[("a", quota(3, 64)), ("b", quota(1, 64))]);
        for k in 0..32u64 {
            // 3 a-jobs per b-job of supply so neither side runs dry.
            let tenant = if k % 4 == 3 { "b" } else { "a" };
            b.admit(job(k, tenant, "m")).unwrap();
        }
        let (mut served_a, mut served_b) = (0usize, 0usize);
        for _ in 0..6 {
            let (_, batch) = b.take_batch().unwrap();
            for j in &batch {
                match j.tenant.as_str() {
                    "a" => served_a += 1,
                    _ => served_b += 1,
                }
            }
        }
        assert_eq!(served_a + served_b, 24);
        assert_eq!(
            served_a, 18,
            "weight-3 tenant gets 3/4 of slots (a {served_a} vs b {served_b})"
        );
    }

    #[test]
    fn batches_are_model_uniform() {
        let mut b = batcher(64, &[("a", quota(1, 64)), ("b", quota(1, 64))]);
        b.admit(job(0, "a", "m1")).unwrap();
        b.admit(job(1, "b", "m2")).unwrap();
        b.admit(job(2, "a", "m1")).unwrap();
        b.admit(job(3, "b", "m2")).unwrap();
        let mut seen = Vec::new();
        while let Some((model, batch)) = b.take_batch() {
            assert!(batch.iter().all(|j| j.model == model));
            seen.push((model, batch.len()));
        }
        assert_eq!(seen.len(), 2, "two model-uniform batches: {seen:?}");
        assert!(b.is_empty());
    }

    #[test]
    fn idle_tenant_rejoins_at_current_virtual_time() {
        // b sleeps while a is served heavily; when b returns it must not
        // monopolize the batcher on its stale low pass for long: after its
        // first catch-up slot the schedule returns to stride order.
        let mut b = batcher(64, &[("a", quota(1, 64)), ("b", quota(1, 64))]);
        for id in 0..8 {
            b.admit(job(id, "a", "m")).unwrap();
        }
        let mut drained = 0;
        while let Some((_, batch)) = b.take_batch() {
            drained += batch.len();
        }
        assert_eq!(drained, 8);
        // b rejoins; both offer 4 jobs.
        for id in 8..12 {
            b.admit(job(id, "b", "m")).unwrap();
        }
        for id in 12..16 {
            b.admit(job(id, "a", "m")).unwrap();
        }
        let (_, first) = b.take_batch().unwrap();
        let b_count = first.iter().filter(|j| j.tenant == "b").count();
        assert_eq!(
            b_count, 2,
            "equal weights alternate after rejoin: {first:?}"
        );
    }

    #[test]
    fn shed_expired_releases_quota_slots() {
        let mut b = batcher(8, &[("a", quota(1, 2))]);
        let mut j0 = job(0, "a", "m");
        j0.request.deadline_s = 1.0;
        let mut j1 = job(1, "a", "m");
        j1.request.deadline_s = 5.0;
        b.admit(j0).unwrap();
        b.admit(j1).unwrap();
        assert_eq!(b.min_deadline_s(), Some(1.0));
        let shed = b.shed_expired(2.0);
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].request.id, 0);
        assert_eq!(b.queued_total(), 1);
        assert_eq!(b.in_flight_of("a"), 1);
        assert!(b.admit(job(2, "a", "m")).is_ok());
    }

    #[test]
    fn flush_readiness_follows_policy() {
        let mut b = batcher(64, &[("a", quota(1, 64))]);
        assert!(!b.ready(0.0));
        let mut j = job(0, "a", "m");
        j.request.arrival_s = 1.0;
        b.admit(j).unwrap();
        assert_eq!(b.flush_deadline_s(), Some(1.004));
        assert!(!b.ready(1.003), "partial batch inside the window");
        assert!(b.ready(1.004), "window expiry flushes");
        for id in 1..4 {
            let mut j = job(id, "a", "m");
            j.request.arrival_s = 1.0;
            b.admit(j).unwrap();
        }
        assert!(b.ready(1.0), "full batch flushes immediately");
        assert_eq!(b.queued_total(), 4);
    }

    #[test]
    fn rejoin_clamp_only_raises_the_pass() {
        // The idle→active clamp is `pass = pass.max(global_pass)`: it may
        // lift a stale low pass up to the current virtual time, but must
        // never *lower* a pass. After `a` is served 8 times alone its pass
        // sits one stride *ahead* of `global_pass` (global is advanced to
        // the scheduled tenant's pass before the stride is charged). If
        // rejoining overwrote the pass with `global_pass`, `a` would tie
        // with a fresh tenant and win on the name tiebreak; keeping the
        // higher pass means the fresh tenant leads.
        let mut b = batcher(64, &[("a", quota(1, 64)), ("b", quota(1, 64))]);
        for id in 0..8 {
            b.admit(job(id, "a", "m")).unwrap();
        }
        while b.take_batch().is_some() {}
        assert!(b.is_empty());
        // b joins at the current virtual time, then a rejoins from idle.
        b.admit(job(8, "b", "m")).unwrap();
        for id in 9..12 {
            b.admit(job(id, "b", "m")).unwrap();
        }
        for id in 12..16 {
            b.admit(job(id, "a", "m")).unwrap();
        }
        let (_, batch) = b.take_batch().unwrap();
        assert_eq!(
            batch[0].tenant, "b",
            "a's retained (higher) pass must not be clamped down: {batch:?}"
        );
        let b_count = batch.iter().filter(|j| j.tenant == "b").count();
        assert_eq!(b_count, 2, "stride order resumes after the lead: {batch:?}");
    }

    #[test]
    fn model_name_validation_edge_cases() {
        let mut reg = ModelRegistry::new();
        // Empty and over-long names are refused.
        assert!(reg.register("", dummy_replica()).is_err());
        let max = "m".repeat(64);
        reg.register(&max, dummy_replica()).unwrap();
        let over = "m".repeat(65);
        assert!(reg.register(&over, dummy_replica()).is_err());
        // Non-ASCII is refused even when char count fits: names appear in
        // request paths and the byte-level check must not pass multi-byte
        // letters.
        assert!(reg.register("caf\u{e9}", dummy_replica()).is_err());
        assert!(reg.register("\u{6a21}\u{578b}", dummy_replica()).is_err());
        // The full permitted alphabet round-trips.
        reg.register("A-z0.9_ok", dummy_replica()).unwrap();
        assert!(reg.get("A-z0.9_ok").is_some());
        // Whitespace and path separators are refused.
        assert!(reg.register("a b", dummy_replica()).is_err());
        assert!(reg.register("a/b", dummy_replica()).is_err());
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let policy = BatchingPolicy {
            max_batch: 4,
            max_wait_s: 0.004,
        };
        assert!(FairBatcher::new(policy, 0, &[], None).is_err());
        assert!(FairBatcher::new(policy, 8, &[("a".to_string(), quota(1, 1))], None).is_ok());
        let dup = vec![
            ("a".to_string(), quota(1, 1)),
            ("a".to_string(), quota(2, 2)),
        ];
        assert!(FairBatcher::new(policy, 8, &dup, None).is_err());
        let bad = vec![(
            "a".to_string(),
            TenantQuota {
                weight: 0,
                max_in_flight: 1,
            },
        )];
        assert!(FairBatcher::new(policy, 8, &bad, None).is_err());
    }
}
