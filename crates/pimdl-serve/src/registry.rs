//! Multi-tenant model registry and weighted-fair batching.
//!
//! Two pieces sit between the HTTP front end and the shard executors:
//!
//! * [`ModelRegistry`] — named calibrated [`ReplicaModel`]s resident
//!   concurrently; the infer route picks one by name and every dispatched
//!   batch executes against exactly one registered table.
//! * [`FairBatcher`] — per-tenant FIFO queues scheduled by **stride
//!   scheduling**: each tenant holds an integer `pass`, advanced by
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

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use pimdl_engine::scheduler::{BatchingPolicy, TenantQuota};

use crate::error::ServeError;
use crate::request::Request;
use crate::shard::ReplicaModel;
use crate::Result;

/// Named, concurrently resident model replicas.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: BTreeMap<String, Arc<ReplicaModel>>,
}

fn valid_model_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
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
        if !valid_model_name(name) {
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
    /// Per-model FIFO queues (model-uniform batches pop from one of them).
    queues: BTreeMap<String, VecDeque<TaggedJob>>,
    queued: usize,
}

impl TenantState {
    fn new(quota: TenantQuota) -> Self {
        TenantState {
            quota,
            pass: 0,
            in_flight: 0,
            queues: BTreeMap::new(),
            queued: 0,
        }
    }
}

/// Weighted-fair, model-uniform continuous batcher over per-tenant queues.
///
/// Pure state machine like [`crate::batcher::ContinuousBatcher`]: time
/// enters only through `now` arguments, so the identical schedule runs
/// under the real poller and the deterministic simulated one.
#[derive(Debug)]
pub struct FairBatcher {
    policy: BatchingPolicy,
    capacity: usize,
    default_quota: Option<TenantQuota>,
    tenants: BTreeMap<String, TenantState>,
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
            global_pass: 0,
            queued_total: 0,
        })
    }

    /// The flush policy.
    pub fn policy(&self) -> BatchingPolicy {
        self.policy
    }

    /// Jobs queued across every tenant.
    pub fn queued_total(&self) -> usize {
        self.queued_total
    }

    /// Whether no job is queued anywhere.
    pub fn is_empty(&self) -> bool {
        self.queued_total == 0
    }

    /// The quota governing `tenant` (configured or default).
    pub fn quota_of(&self, tenant: &str) -> Option<TenantQuota> {
        self.tenants
            .get(tenant)
            .map(|t| t.quota)
            .or(self.default_quota)
    }

    /// A tenant's admitted-but-unfinished job count.
    pub fn in_flight_of(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.in_flight)
    }

    /// Why [`Self::admit`] would refuse a job of `tenant` right now (`None`
    /// if it would be admitted): lets the caller skip building a job it
    /// could only have bounced.
    pub fn refusal_for(&self, tenant: &str) -> Option<AdmitRefusal> {
        let Some(quota) = self.quota_of(tenant) else {
            return Some(AdmitRefusal::UnknownTenant);
        };
        if self.in_flight_of(tenant) >= quota.max_in_flight {
            return Some(AdmitRefusal::QuotaExceeded);
        }
        (self.queued_total >= self.capacity).then_some(AdmitRefusal::QueueFull)
    }

    /// Admits `job` into its tenant's queue, or hands it back with the
    /// refusal reason (the caller maps it to an HTTP status and records
    /// the rejection).
    ///
    /// # Errors
    ///
    /// The refused job and why: unknown tenant, per-tenant quota, or
    /// global capacity.
    pub fn admit(&mut self, job: TaggedJob) -> std::result::Result<(), (TaggedJob, AdmitRefusal)> {
        if !self.tenants.contains_key(&job.tenant) {
            let Some(default) = self.default_quota else {
                return Err((job, AdmitRefusal::UnknownTenant));
            };
            self.tenants
                .insert(job.tenant.clone(), TenantState::new(default));
        }
        if let Some(refusal) = self.refusal_for(&job.tenant) {
            return Err((job, refusal));
        }
        let global_pass = self.global_pass;
        let Some(t) = self.tenants.get_mut(&job.tenant) else {
            return Err((job, AdmitRefusal::UnknownTenant));
        };
        if t.queued == 0 {
            // Idle → active: rejoin at the current virtual time.
            t.pass = t.pass.max(global_pass);
        }
        t.in_flight += 1;
        t.queued += 1;
        self.queued_total += 1;
        t.queues
            .entry(job.model.clone())
            .or_default()
            .push_back(job);
        Ok(())
    }

    /// Releases one in-flight slot of `tenant` (its job completed after
    /// dispatch). Queued jobs removed by [`FairBatcher::shed_expired`]
    /// release their slot there.
    pub fn release(&mut self, tenant: &str) {
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.in_flight = t.in_flight.saturating_sub(1);
        }
    }

    /// Removes and returns every queued job whose deadline has passed at
    /// `now` (their in-flight slots are released here).
    pub fn shed_expired(&mut self, now: f64) -> Vec<TaggedJob> {
        let mut shed = Vec::new();
        for t in self.tenants.values_mut() {
            for q in t.queues.values_mut() {
                q.retain(|j| {
                    if j.request.expired(now) {
                        shed.push(j.clone());
                        false
                    } else {
                        true
                    }
                });
            }
            let remaining: usize = t.queues.values().map(VecDeque::len).sum();
            let dropped = t.queued - remaining;
            t.queued = remaining;
            t.in_flight = t.in_flight.saturating_sub(dropped);
        }
        self.queued_total = self.tenants.values().map(|t| t.queued).sum();
        // Deterministic shed order regardless of tenant-map iteration.
        shed.sort_by_key(|j| j.request.id);
        shed
    }

    /// Absolute time the oldest queued job forces a flush
    /// (`oldest arrival + max_wait_s`); `None` when empty.
    pub fn flush_deadline_s(&self) -> Option<f64> {
        self.oldest_arrival_s().map(|a| a + self.policy.max_wait_s)
    }

    fn oldest_arrival_s(&self) -> Option<f64> {
        let mut oldest: Option<f64> = None;
        for t in self.tenants.values() {
            for q in t.queues.values() {
                if let Some(j) = q.front() {
                    let a = j.request.arrival_s;
                    oldest = Some(oldest.map_or(a, |o: f64| o.min(a)));
                }
            }
        }
        oldest
    }

    /// Earliest finite request deadline among queued jobs.
    pub fn min_deadline_s(&self) -> Option<f64> {
        let mut min: Option<f64> = None;
        for t in self.tenants.values() {
            for q in t.queues.values() {
                for j in q {
                    if j.request.deadline_s.is_finite() {
                        let d = j.request.deadline_s;
                        min = Some(min.map_or(d, |m: f64| m.min(d)));
                    }
                }
            }
        }
        min
    }

    /// Whether a batch should flush at `now`: some model could fill a full
    /// batch, or the oldest queued job has waited out the window.
    pub fn ready(&self, now: f64) -> bool {
        if self.queued_total == 0 {
            return false;
        }
        if self.flush_deadline_s().is_some_and(|d| now >= d) {
            return true;
        }
        let mut per_model: BTreeMap<&str, usize> = BTreeMap::new();
        for t in self.tenants.values() {
            for (m, q) in &t.queues {
                *per_model.entry(m.as_str()).or_default() += q.len();
            }
        }
        per_model.values().any(|&n| n >= self.policy.max_batch)
    }

    /// The next tenant in stride order restricted to tenants with queued
    /// jobs for `model` (`None` for any model = unrestricted): smallest
    /// pass, ties on name.
    fn next_tenant(&self, model: Option<&str>) -> Option<(String, f64)> {
        let mut best: Option<(&str, u64, f64)> = None;
        for (name, t) in &self.tenants {
            let front_arrival = match model {
                Some(m) => t.queues.get(m).and_then(VecDeque::front),
                None => t
                    .queues
                    .values()
                    .filter_map(VecDeque::front)
                    .min_by(|a, b| a.request.arrival_s.total_cmp(&b.request.arrival_s)),
            }
            .map(|j| j.request.arrival_s);
            let Some(arrival) = front_arrival else {
                continue;
            };
            // BTreeMap iterates in name order, so strict `<` keeps the
            // lexicographically-first tenant on pass ties.
            if best.is_none_or(|(_, p, _)| t.pass < p) {
                best = Some((name, t.pass, arrival));
            }
        }
        best.map(|(n, _, a)| (n.to_string(), a))
    }

    /// The model the lead (smallest-pass) tenant's oldest job targets —
    /// what the next batch will execute against.
    fn lead_model(&self) -> Option<String> {
        let (lead, _) = self.next_tenant(None)?;
        let t = self.tenants.get(&lead)?;
        t.queues
            .iter()
            .filter_map(|(m, q)| q.front().map(|j| (m, j.request.arrival_s)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(b.0)))
            .map(|(m, _)| m.clone())
    }

    /// Forms the next model-uniform batch in stride order: the lead tenant
    /// defines the model, then up to `max_batch` jobs are popped from the
    /// smallest-pass tenants holding jobs for that model, each pop
    /// charging its tenant one stride. Returns the model name and the
    /// jobs; `None` when nothing is queued.
    pub fn take_batch(&mut self) -> Option<(String, Vec<TaggedJob>)> {
        let model = self.lead_model()?;
        let mut batch = Vec::new();
        while batch.len() < self.policy.max_batch {
            let Some((name, _)) = self.next_tenant(Some(&model)) else {
                break;
            };
            let Some(t) = self.tenants.get_mut(&name) else {
                break;
            };
            let Some(job) = t.queues.get_mut(&model).and_then(VecDeque::pop_front) else {
                break;
            };
            t.queued -= 1;
            self.queued_total -= 1;
            self.global_pass = self.global_pass.max(t.pass);
            t.pass = t.pass.saturating_add(t.quota.stride());
            batch.push(job);
        }
        if batch.is_empty() {
            None
        } else {
            Some((model, batch))
        }
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
