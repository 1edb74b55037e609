//! Per-layer codebook capacity allocation (DESIGN.md §12.3).
//!
//! The paper tunes one `(V, CT)` quantization setting for the whole model;
//! this module instead treats per-PE LUT capacity as a budget to be *spent
//! where it buys the most latency*. For every linear operator of a
//! transformer layer it enumerates the legal `(V, CT)` settings, asks the
//! branch-and-bound search ([`crate::bnb::pair_frontier`]) for the P1
//! pairs on the (per-PE LUT bytes, predicted latency) frontier with their
//! best mappings, and keeps the Pareto frontier of those across settings
//! (bits join the two axes there). The pair search never returns a point
//! this filter would drop for a leaner pair of the same setting, so
//! searching only the frontier leaves the candidate list unchanged. Nor
//! does it walk pairs past the bytes a plan within the budget could give
//! the operator (its byte cap, DESIGN.md §12.3): such a point is in no
//! feasible plan and dominates none that is. A
//! small exact DFS — bounded the same way as the mapping search — then
//! picks one candidate per operator minimizing total predicted PIM
//! latency subject to
//!
//! * a **capacity budget**: the summed per-PE LUT residency across all
//!   layers must fit `budget_bytes`, and
//! * a **code-bits floor**: the summed index-stream entropy
//!   `CB·log2(CT)` per token (× layer count) must not drop below
//!   `min_code_bits` — the accuracy proxy that stops the allocator from
//!   simply quantizing everything to oblivion.
//!
//! [`allocate_global`] solves the same problem restricted to one uniform
//! `(V, CT)` for every operator — the paper's baseline. Because the
//! per-layer search space is a strict superset of every uniform space, the
//! heterogeneous plan is never slower at equal budget and floor.

use pimdl_sim::config::PlatformConfig;
use pimdl_sim::cost::lut_tile_bytes;
use pimdl_sim::{LutWorkload, Mapping};
use serde::{Deserialize, Serialize};

use crate::bnb::{pair_frontier, prunes, PairBest};
use crate::model::HierBreakdown;
use crate::space::legal_pairs;
use crate::{Result, TuneError};

/// Sub-vector lengths the LUT-NN quantizer supports (product-quantization
/// group sizes; anything else has no codebook layout).
pub const SUPPORTED_V: [usize; 5] = [1, 2, 4, 8, 16];

/// One linear operator shape to allocate for (e.g. a transformer layer's
/// QKV projection), repeated `count` times across the model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpShape {
    /// Operator name (report label).
    pub name: String,
    /// Input feature dimension `H` (quantized into `H / V` codebooks).
    pub in_dim: usize,
    /// Output feature dimension `F`.
    pub out_dim: usize,
    /// How many identical instances the model contains (layer count).
    pub count: usize,
}

/// Allocation request: budget, accuracy floor, and the `(V, CT)` menu.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocOptions {
    /// Per-PE LUT capacity budget in bytes, summed over all operator
    /// instances (the MRAM slice reserved for resident tables).
    pub budget_bytes: usize,
    /// Minimum summed code bits (`CB·log2(CT)·count` over ops); `0.0`
    /// disables the floor. See [`reference_code_bits`].
    pub min_code_bits: f64,
    /// Sub-vector lengths to consider (must be drawn from
    /// [`SUPPORTED_V`]).
    pub v_choices: Vec<usize>,
    /// Centroid counts to consider (each ≥ 2).
    pub ct_choices: Vec<usize>,
}

impl AllocOptions {
    /// Default menu (`V ∈ {1,2,4,8,16}`, `CT ∈ {8,16,32,64}`) with the
    /// given budget and no code-bits floor.
    pub fn with_budget(budget_bytes: usize) -> Self {
        AllocOptions {
            budget_bytes,
            min_code_bits: 0.0,
            v_choices: SUPPORTED_V.to_vec(),
            ct_choices: vec![8, 16, 32, 64],
        }
    }
}

/// Summed code bits of the uniform `(v, ct)` setting over `ops` — the
/// conventional floor: "stay at least as expressive as the reference
/// configuration".
pub fn reference_code_bits(ops: &[OpShape], v: usize, ct: usize) -> f64 {
    ops.iter()
        .filter(|op| v != 0 && op.in_dim % v == 0)
        .map(|op| (op.in_dim / v) as f64 * (ct as f64).log2() * op.count as f64)
        .sum()
}

/// The allocator's decision for one operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpChoice {
    /// Operator name (copied from the [`OpShape`]).
    pub name: String,
    /// Chosen sub-vector length.
    pub v: usize,
    /// Chosen centroid count.
    pub ct: usize,
    /// Best mapping for the operator's LUT workload at this `(v, ct)`.
    pub mapping: Mapping,
    /// Hierarchical prediction for one instance of the operator.
    pub predicted: HierBreakdown,
    /// Predicted PIM latency × `count` (seconds).
    pub latency_s: f64,
    /// Per-PE LUT residency × `count` (bytes).
    pub per_pe_bytes: usize,
    /// Code bits `CB·log2(CT)` × `count`.
    pub code_bits: f64,
}

/// A complete capacity allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllocPlan {
    /// One choice per input operator, same order.
    pub choices: Vec<OpChoice>,
    /// Σ `latency_s` — the allocator's objective.
    pub total_latency_s: f64,
    /// Σ `per_pe_bytes` (≤ the budget).
    pub total_per_pe_bytes: usize,
    /// Σ `code_bits` (≥ the floor).
    pub total_code_bits: f64,
}

/// One `(v, ct, frontier-point)` candidate for a single operator.
#[derive(Debug, Clone)]
struct Cand {
    v: usize,
    ct: usize,
    mapping: Mapping,
    predicted: HierBreakdown,
    latency_s: f64,
    per_pe_bytes: usize,
    code_bits: f64,
}

fn validate_request(ops: &[OpShape], n_tokens: usize, opts: &AllocOptions) -> Result<()> {
    if ops.is_empty() {
        return Err(TuneError::InvalidConfig {
            detail: "operator list is empty".to_string(),
        });
    }
    if n_tokens == 0 {
        return Err(TuneError::InvalidConfig {
            detail: "token count is zero".to_string(),
        });
    }
    if opts.budget_bytes == 0 {
        return Err(TuneError::InvalidConfig {
            detail: "capacity budget is zero bytes".to_string(),
        });
    }
    if opts.v_choices.is_empty() || opts.ct_choices.is_empty() {
        return Err(TuneError::InvalidConfig {
            detail: "empty (V, CT) menu".to_string(),
        });
    }
    for &v in &opts.v_choices {
        if !SUPPORTED_V.contains(&v) {
            return Err(TuneError::InvalidConfig {
                detail: format!("unsupported sub-vector length V={v} (allowed: {SUPPORTED_V:?})"),
            });
        }
    }
    for &ct in &opts.ct_choices {
        if ct < 2 {
            return Err(TuneError::InvalidConfig {
                detail: format!("centroid count CT={ct} must be at least 2"),
            });
        }
    }
    for op in ops {
        if op.count == 0 || op.in_dim == 0 || op.out_dim == 0 {
            return Err(TuneError::InvalidConfig {
                detail: format!("operator {} has a zero dimension or count", op.name),
            });
        }
    }
    Ok(())
}

/// The settings of `op`'s `(V, CT)` menu that make a valid LUT workload,
/// each with it, `V`-major.
fn settings<'a>(
    op: &'a OpShape,
    n_tokens: usize,
    opts: &'a AllocOptions,
) -> impl Iterator<Item = (usize, usize, LutWorkload)> + 'a {
    opts.v_choices
        .iter()
        .filter(|&&v| op.in_dim.is_multiple_of(v))
        .flat_map(move |&v| {
            opts.ct_choices.iter().filter_map(move |&ct| {
                let w = LutWorkload::new(n_tokens, op.in_dim / v, ct, op.out_dim).ok()?;
                Some((v, ct, w))
            })
        })
}

/// One operator's pair frontier at one `(V, CT)` setting of its menu.
#[derive(Debug, Clone)]
struct SettingFrontier {
    v: usize,
    ct: usize,
    w: LutWorkload,
    /// Code bits `CB·log2(CT)` × `count`.
    code_bits: f64,
    /// The sub-LUT `CB·CT·F_s` of the setting's leanest legal pair, found
    /// without a search; `None` when Eq. 5 has no solution. Per-PE bytes
    /// rise strictly along `legal_pairs`, so no frontier point of the
    /// setting holds fewer.
    lean: Option<usize>,
    /// [`pair_frontier`] at the operator's byte cap (empty without a
    /// legal pair).
    points: Vec<PairBest>,
}

/// `op`'s settings ([`settings`]), each with its leanest pair's bytes and
/// no frontier searched yet.
fn setting_frontiers(
    platform: &PlatformConfig,
    op: &OpShape,
    n_tokens: usize,
    opts: &AllocOptions,
) -> Vec<SettingFrontier> {
    settings(op, n_tokens, opts)
        .map(|(v, ct, w)| {
            let lean = legal_pairs(&w, platform).ok().and_then(|pairs| {
                pairs
                    .first()
                    .map(|&(_, f_stile)| lut_tile_bytes(&w, w.cb, f_stile))
            });
            SettingFrontier {
                v,
                ct,
                w,
                code_bits: w.cb as f64 * (ct as f64).log2() * op.count as f64,
                lean,
                points: Vec::new(),
            }
        })
        .collect()
}

/// A lower bound on `op`'s bytes in any plan over `frontiers`: the leanest
/// setting's [`SettingFrontier::lean`], times `count`. `usize::MAX` when no
/// setting has a legal pair or the product overflows: either way the
/// operator fits no budget.
fn lean_bytes<'f>(op: &OpShape, frontiers: impl IntoIterator<Item = &'f SettingFrontier>) -> usize {
    (frontiers.into_iter())
        .filter_map(|f| f.lean)
        .min()
        .map_or(usize::MAX, |bytes| bytes.saturating_mul(op.count))
}

/// The per-PE bytes (of one instance) a plan within `budget` can give each
/// operator: operator *i* gets at most `⌊(budget − Σ_{j≠i} lean_j) /
/// count_i⌋`, where `lean_j` is [`lean_bytes`]. A point over its cap is in
/// no plan within the budget, and it dominates only points with at least
/// its bytes, so dropping it leaves every other candidate, their order and
/// the plan unchanged.
fn byte_caps(ops: &[OpShape], budget: usize, lean: &[usize]) -> Vec<usize> {
    ops.iter()
        .enumerate()
        .map(|(i, op)| {
            let others = (lean.iter().enumerate())
                .filter(|&(j, _)| j != i)
                .fold(0usize, |sum, (_, &bytes)| sum.saturating_add(bytes));
            budget.saturating_sub(others) / op.count
        })
        .collect()
}

/// All Pareto-optimal candidates for one operator over the frontier
/// points of `frontiers` whose per-PE bytes (of one instance) are at most
/// `cap`. A candidate is kept unless another one is at least as good on
/// latency, bytes, *and* bits simultaneously.
fn op_candidates<'f>(
    op: &OpShape,
    frontiers: impl IntoIterator<Item = &'f SettingFrontier>,
    cap: usize,
) -> Vec<Cand> {
    let mut cands = Vec::new();
    for f in frontiers {
        // A frontier's bytes rise along it, so the points within a cap
        // are a prefix.
        for p in f.points.iter().take_while(|p| p.per_pe_lut_bytes <= cap) {
            // Bytes past `usize` fit no budget.
            let Some(per_pe_bytes) = p.per_pe_lut_bytes.checked_mul(op.count) else {
                continue;
            };
            cands.push(Cand {
                v: f.v,
                ct: f.ct,
                mapping: p.mapping,
                predicted: p.predicted,
                latency_s: p.predicted.total_s() * op.count as f64,
                per_pe_bytes,
                code_bits: f.code_bits,
            });
        }
    }
    // Pareto filter over (latency, bytes, −bits).
    let mut keep = Vec::with_capacity(cands.len());
    'outer: for (i, c) in cands.iter().enumerate() {
        for (j, d) in cands.iter().enumerate() {
            if i == j {
                continue;
            }
            let no_worse = d.latency_s <= c.latency_s
                && d.per_pe_bytes <= c.per_pe_bytes
                && d.code_bits >= c.code_bits;
            let strictly_better = d.latency_s < c.latency_s
                || d.per_pe_bytes < c.per_pe_bytes
                || d.code_bits > c.code_bits;
            // Tie-break exact duplicates by index so exactly one survives.
            if no_worse && (strictly_better || j < i) {
                continue 'outer;
            }
        }
        keep.push(c.clone());
    }
    keep.sort_by(|a, b| a.latency_s.total_cmp(&b.latency_s));
    keep
}

/// Suffix bounds over the remaining operators, used to prune the DFS.
struct Suffix {
    min_latency: Vec<f64>,
    min_bytes: Vec<usize>,
    max_bits: Vec<f64>,
}

fn suffixes(per_op: &[Vec<Cand>]) -> Suffix {
    let n = per_op.len();
    let mut s = Suffix {
        min_latency: vec![0.0; n + 1],
        min_bytes: vec![0; n + 1],
        max_bits: vec![0.0; n + 1],
    };
    for i in (0..n).rev() {
        let ml = per_op[i]
            .iter()
            .map(|c| c.latency_s)
            .fold(f64::INFINITY, f64::min);
        let mb = per_op[i]
            .iter()
            .map(|c| c.per_pe_bytes)
            .min()
            .unwrap_or(usize::MAX);
        let xb = per_op[i].iter().map(|c| c.code_bits).fold(0.0, f64::max);
        s.min_latency[i] = s.min_latency[i + 1] + ml;
        s.min_bytes[i] = s.min_bytes[i + 1].saturating_add(mb);
        s.max_bits[i] = s.max_bits[i + 1] + xb;
    }
    s
}

/// Absolute slack on the code-bits floor so `log2` rounding cannot reject
/// the reference configuration itself.
const BITS_EPS: f64 = 1e-6;

/// Exact DFS over one candidate list per operator: minimize total latency
/// subject to the byte budget and bits floor. Returns the chosen index
/// per operator.
fn solve(per_op: &[Vec<Cand>], budget: usize, bits_floor: f64) -> Option<Vec<usize>> {
    if per_op.iter().any(Vec::is_empty) {
        return None;
    }
    let sfx = suffixes(per_op);
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut stack: Vec<usize> = Vec::with_capacity(per_op.len());
    dfs(
        per_op,
        &sfx,
        budget,
        bits_floor,
        0,
        (0.0, 0, 0.0),
        &mut stack,
        &mut best,
    );
    best.map(|(_, picks)| picks)
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    per_op: &[Vec<Cand>],
    sfx: &Suffix,
    budget: usize,
    bits_floor: f64,
    depth: usize,
    acc: (f64, usize, f64),
    stack: &mut Vec<usize>,
    best: &mut Option<(f64, Vec<usize>)>,
) {
    let (latency, bytes, bits) = acc;
    if bytes.saturating_add(sfx.min_bytes[depth]) > budget {
        return; // even the leanest completion overflows the budget
    }
    if bits + sfx.max_bits[depth] < bits_floor - BITS_EPS {
        return; // even the richest completion misses the floor
    }
    // The suffix minima are summed in another order than the plan's own
    // total, so the cut takes the search's rounding guard and a complete
    // plan replaces the incumbent only when strictly better.
    let incumbent = best.as_ref().map(|(best_latency, _)| *best_latency);
    if prunes(latency + sfx.min_latency[depth], incumbent) {
        return; // cannot beat the incumbent
    }
    if depth == per_op.len() {
        if incumbent.is_none_or(|best_latency| latency < best_latency) {
            *best = Some((latency, stack.clone()));
        }
        return;
    }
    for (i, c) in per_op[depth].iter().enumerate() {
        // A byte sum past `usize` fits no budget.
        let Some(bytes) = bytes.checked_add(c.per_pe_bytes) else {
            continue;
        };
        stack.push(i);
        dfs(
            per_op,
            sfx,
            budget,
            bits_floor,
            depth + 1,
            (latency + c.latency_s, bytes, bits + c.code_bits),
            stack,
            best,
        );
        stack.pop();
    }
}

fn plan_of(ops: &[OpShape], per_op: &[Vec<Cand>], picks: &[usize]) -> AllocPlan {
    let mut choices = Vec::with_capacity(ops.len());
    let (mut latency, mut bytes, mut bits) = (0.0, 0usize, 0.0);
    for ((op, cands), &pick) in ops.iter().zip(per_op).zip(picks) {
        if let Some(c) = cands.get(pick) {
            latency += c.latency_s;
            bytes = bytes.saturating_add(c.per_pe_bytes);
            bits += c.code_bits;
            choices.push(OpChoice {
                name: op.name.clone(),
                v: c.v,
                ct: c.ct,
                mapping: c.mapping,
                predicted: c.predicted,
                latency_s: c.latency_s,
                per_pe_bytes: c.per_pe_bytes,
                code_bits: c.code_bits,
            });
        }
    }
    AllocPlan {
        choices,
        total_latency_s: latency,
        total_per_pe_bytes: bytes,
        total_code_bits: bits,
    }
}

/// Every operator's pair frontiers over the request's `(V, CT)` menu, each
/// searched once, at the operator's per-layer byte cap ([`byte_caps`] over
/// the whole menu). Both allocators read it. [`Self::per_layer`] takes the
/// frontiers whole. [`Self::global`] takes, per uniform setting, each
/// operator's frontier at that setting cut at the setting's own cap: a
/// uniform setting's lean bytes are at least the menu-wide ones, so its
/// cap is at most the per-layer cap, and the frontier a search at it
/// returns is that prefix ([`pair_frontier`]'s capped-prefix property).
/// The table shares frontiers, not candidates: the Pareto filter runs per
/// menu, and a point another setting dominates is still a uniform
/// candidate.
#[derive(Debug, Clone)]
pub struct FrontierTable<'r> {
    ops: &'r [OpShape],
    opts: &'r AllocOptions,
    /// Per operator, its menu's settings in [`settings`] order.
    frontiers: Vec<Vec<SettingFrontier>>,
}

impl<'r> FrontierTable<'r> {
    /// Searches the frontiers of the request `(ops, n_tokens, opts)`.
    ///
    /// # Errors
    ///
    /// [`TuneError::InvalidConfig`] for malformed requests.
    pub fn new(
        platform: &PlatformConfig,
        ops: &'r [OpShape],
        n_tokens: usize,
        opts: &'r AllocOptions,
    ) -> Result<Self> {
        validate_request(ops, n_tokens, opts)?;
        let mut frontiers: Vec<Vec<SettingFrontier>> = ops
            .iter()
            .map(|op| setting_frontiers(platform, op, n_tokens, opts))
            .collect();
        let lean: Vec<usize> = (ops.iter().zip(&frontiers))
            .map(|(op, menu)| lean_bytes(op, menu))
            .collect();
        let caps = byte_caps(ops, opts.budget_bytes, &lean);
        for (menu, cap) in frontiers.iter_mut().zip(caps) {
            for f in menu {
                f.points = pair_frontier(platform, &f.w, cap).unwrap_or_default();
            }
        }
        Ok(FrontierTable {
            ops,
            opts,
            frontiers,
        })
    }

    /// A heterogeneous `(V, CT)` setting per operator minimizing total
    /// predicted PIM latency under the capacity budget and code-bits floor.
    ///
    /// # Errors
    ///
    /// [`TuneError::NoLegalMapping`] when no assignment satisfies budget
    /// and floor simultaneously.
    pub fn per_layer(&self) -> Result<AllocPlan> {
        let per_op: Vec<Vec<Cand>> = (self.ops.iter().zip(&self.frontiers))
            .map(|(op, menu)| op_candidates(op, menu, usize::MAX))
            .collect();
        let opts = self.opts;
        let picks = solve(&per_op, opts.budget_bytes, opts.min_code_bits).ok_or_else(|| {
            TuneError::NoLegalMapping {
                detail: format!(
                    "no per-layer (V, CT) assignment fits {} bytes/PE at ≥ {:.0} code bits",
                    opts.budget_bytes, opts.min_code_bits
                ),
            }
        })?;
        Ok(plan_of(self.ops, &per_op, &picks))
    }

    /// The best *uniform* `(V, CT)` allocation — the paper's
    /// one-setting-per-model baseline, solved with the same machinery for
    /// a fair comparison (each operator still picks its own best mapping
    /// and frontier point).
    ///
    /// # Errors
    ///
    /// [`TuneError::NoLegalMapping`] when no uniform setting satisfies
    /// budget and floor simultaneously.
    pub fn global(&self) -> Result<AllocPlan> {
        let (ops, opts) = (self.ops, self.opts);
        let mut best: Option<AllocPlan> = None;
        for &v in &opts.v_choices {
            if ops.iter().any(|op| op.in_dim % v != 0) {
                continue; // a uniform setting must be legal for every op
            }
            for &ct in &opts.ct_choices {
                let uniform: Vec<Option<&SettingFrontier>> = (self.frontiers.iter())
                    .map(|menu| menu.iter().find(|f| (f.v, f.ct) == (v, ct)))
                    .collect();
                let lean: Vec<usize> = (ops.iter().zip(&uniform))
                    .map(|(op, setting)| lean_bytes(op, *setting))
                    .collect();
                let caps = byte_caps(ops, opts.budget_bytes, &lean);
                let per_op: Vec<Vec<Cand>> = (ops.iter().zip(uniform).zip(caps))
                    .map(|((op, setting), cap)| op_candidates(op, setting, cap))
                    .collect();
                if let Some(picks) = solve(&per_op, opts.budget_bytes, opts.min_code_bits) {
                    let plan = plan_of(ops, &per_op, &picks);
                    if best
                        .as_ref()
                        .is_none_or(|b| plan.total_latency_s < b.total_latency_s)
                    {
                        best = Some(plan);
                    }
                }
            }
        }
        best.ok_or_else(|| TuneError::NoLegalMapping {
            detail: format!(
                "no uniform (V, CT) fits {} bytes/PE at ≥ {:.0} code bits",
                opts.budget_bytes, opts.min_code_bits
            ),
        })
    }
}

/// [`FrontierTable::per_layer`] of a table searched for this request
/// alone.
///
/// # Errors
///
/// [`TuneError::InvalidConfig`] for malformed requests;
/// [`TuneError::NoLegalMapping`] when no assignment satisfies budget and
/// floor simultaneously.
pub fn allocate_per_layer(
    platform: &PlatformConfig,
    ops: &[OpShape],
    n_tokens: usize,
    opts: &AllocOptions,
) -> Result<AllocPlan> {
    FrontierTable::new(platform, ops, n_tokens, opts)?.per_layer()
}

/// [`FrontierTable::global`] of a table searched for this request alone.
///
/// # Errors
///
/// Same conditions as [`allocate_per_layer`].
pub fn allocate_global(
    platform: &PlatformConfig,
    ops: &[OpShape],
    n_tokens: usize,
    opts: &AllocOptions,
) -> Result<AllocPlan> {
    FrontierTable::new(platform, ops, n_tokens, opts)?.global()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_platform() -> PlatformConfig {
        let mut p = PlatformConfig::upmem();
        p.num_pes = 16;
        p
    }

    fn ops() -> Vec<OpShape> {
        vec![
            OpShape {
                name: "qkv".to_string(),
                in_dim: 64,
                out_dim: 192,
                count: 2,
            },
            OpShape {
                name: "ffn1".to_string(),
                in_dim: 64,
                out_dim: 256,
                count: 2,
            },
            OpShape {
                name: "ffn2".to_string(),
                in_dim: 256,
                out_dim: 64,
                count: 2,
            },
        ]
    }

    #[test]
    fn rejects_malformed_requests() {
        let p = small_platform();
        let mut opts = AllocOptions::with_budget(1 << 20);
        opts.v_choices = vec![3];
        let err = allocate_per_layer(&p, &ops(), 64, &opts);
        assert!(matches!(err, Err(TuneError::InvalidConfig { .. })));

        let opts = AllocOptions::with_budget(0);
        let err = allocate_per_layer(&p, &ops(), 64, &opts);
        assert!(matches!(err, Err(TuneError::InvalidConfig { .. })));

        let opts = AllocOptions::with_budget(1 << 20);
        let err = allocate_per_layer(&p, &[], 64, &opts);
        assert!(matches!(err, Err(TuneError::InvalidConfig { .. })));
    }

    #[test]
    fn tiny_budget_is_infeasible() {
        let p = small_platform();
        let opts = AllocOptions::with_budget(1);
        let err = allocate_per_layer(&p, &ops(), 64, &opts);
        assert!(matches!(err, Err(TuneError::NoLegalMapping { .. })));
    }

    #[test]
    fn plan_respects_budget_and_floor() {
        let p = small_platform();
        let mut opts = AllocOptions::with_budget(256 << 10);
        opts.min_code_bits = reference_code_bits(&ops(), 4, 16);
        let plan = allocate_per_layer(&p, &ops(), 64, &opts).unwrap();
        assert_eq!(plan.choices.len(), 3);
        assert!(plan.total_per_pe_bytes <= opts.budget_bytes);
        assert!(plan.total_code_bits >= opts.min_code_bits - 1e-6);
        assert!(plan.total_latency_s > 0.0);
        for c in &plan.choices {
            assert!(SUPPORTED_V.contains(&c.v));
            assert!(opts.ct_choices.contains(&c.ct));
        }
    }

    #[test]
    fn per_layer_never_loses_to_global_at_equal_budget() {
        let p = small_platform();
        for budget_kib in [64usize, 128, 256, 1024] {
            let mut opts = AllocOptions::with_budget(budget_kib << 10);
            opts.min_code_bits = reference_code_bits(&ops(), 4, 16);
            let global = allocate_global(&p, &ops(), 64, &opts);
            let per_layer = allocate_per_layer(&p, &ops(), 64, &opts);
            match (global, per_layer) {
                (Ok(g), Ok(h)) => {
                    assert!(
                        h.total_latency_s <= g.total_latency_s + 1e-15,
                        "per-layer {} slower than global {} at {budget_kib} KiB",
                        h.total_latency_s,
                        g.total_latency_s
                    );
                }
                (Err(_), h) => {
                    // The heterogeneous space is a superset: if it also
                    // fails, the budget is simply infeasible.
                    if let Ok(h) = h {
                        assert!(h.total_per_pe_bytes <= opts.budget_bytes);
                    }
                }
                (Ok(_), Err(e)) => panic!("global feasible but per-layer failed: {e}"),
            }
        }
    }

    /// `op`'s Pareto candidates over its whole menu at 32 tokens, every
    /// frontier searched uncapped.
    fn uncapped_candidates(p: &PlatformConfig, op: &OpShape, opts: &AllocOptions) -> Vec<Cand> {
        let mut menu = setting_frontiers(p, op, 32, opts);
        for f in &mut menu {
            f.points = pair_frontier(p, &f.w, usize::MAX).unwrap_or_default();
        }
        op_candidates(op, &menu, usize::MAX)
    }

    /// Minimum total latency over the full product of the per-operator
    /// frontiers under `opts`' budget and floor — totals accumulated in
    /// operator order, like the DFS and `plan_of` do.
    fn brute_force(per_op: &[Vec<Cand>], opts: &AllocOptions) -> Option<f64> {
        let mut best: Option<f64> = None;
        let mut picks = vec![0usize; per_op.len()];
        'product: while per_op.iter().all(|c| !c.is_empty()) {
            let (mut latency, mut bytes, mut bits) = (0.0, 0usize, 0.0);
            for (cands, &pick) in per_op.iter().zip(&picks) {
                latency += cands[pick].latency_s;
                bytes += cands[pick].per_pe_bytes;
                bits += cands[pick].code_bits;
            }
            let feasible = bytes <= opts.budget_bytes && bits >= opts.min_code_bits - BITS_EPS;
            if feasible && best.is_none_or(|b| latency < b) {
                best = Some(latency);
            }
            for (pick, cands) in picks.iter_mut().zip(per_op).rev() {
                *pick += 1;
                if *pick < cands.len() {
                    continue 'product;
                }
                *pick = 0;
            }
            break;
        }
        best
    }

    /// `allocate_per_layer` must agree with [`brute_force`] bit for bit,
    /// or both must find nothing feasible.
    fn assert_matches_brute_force(ops: &[OpShape], opts: &AllocOptions) {
        let p = small_platform();
        let per_op: Vec<Vec<Cand>> = ops
            .iter()
            .map(|op| uncapped_candidates(&p, op, opts))
            .collect();
        match (
            allocate_per_layer(&p, ops, 32, opts),
            brute_force(&per_op, opts),
        ) {
            (Ok(plan), Some(best)) => {
                assert_eq!(plan.total_latency_s.to_bits(), best.to_bits());
                assert!(plan.total_per_pe_bytes <= opts.budget_bytes);
                assert!(plan.total_code_bits >= opts.min_code_bits - BITS_EPS);
            }
            (Err(TuneError::NoLegalMapping { .. }), None) => {}
            (plan, best) => panic!("DFS {plan:?} vs brute force {best:?}"),
        }
    }

    #[test]
    fn suffix_bound_rounding_cannot_lose_the_optimum() {
        // Found by the property below: the suffix minima sum in another
        // order than a plan's own total, and an unguarded `>=` cut dropped
        // a plan one ulp better than the incumbent.
        let op = |name: &str, in_dim, count| OpShape {
            name: name.to_string(),
            in_dim,
            out_dim: 32,
            count,
        };
        let opts = AllocOptions {
            budget_bytes: 76800,
            min_code_bits: 103.68,
            v_choices: vec![2, 8],
            ct_choices: vec![8, 64],
        };
        assert_matches_brute_force(
            &[op("op0", 32, 1), op("op1", 64, 2), op("op2", 32, 1)],
            &opts,
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The allocator against brute force on ≤ 3 operators with small
        /// `(V, CT)` menus, budgets from infeasible to slack and floors
        /// from none to above the reference.
        #[test]
        fn dfs_plan_matches_brute_force_over_frontier_product(
            n_ops in 1usize..4,
            dims in proptest::prelude::any::<u64>(),
            v_mask in 1usize..8,
            ct_mask in 1usize..8,
            budget_kib in 1usize..96,
            floor_pct in 0usize..120,
        ) {
            let dim = |i: usize| [32usize, 64, 96, 128][(dims >> (2 * i)) as usize % 4];
            let ops: Vec<OpShape> = (0..n_ops)
                .map(|i| OpShape {
                    name: format!("op{i}"),
                    in_dim: dim(2 * i),
                    out_dim: dim(2 * i + 1),
                    count: 1 + i % 2,
                })
                .collect();
            let menu = |mask: usize, all: [usize; 3]| -> Vec<usize> {
                (0..3).filter(|b| mask >> b & 1 == 1).map(|b| all[b]).collect()
            };
            let opts = AllocOptions {
                budget_bytes: budget_kib << 10,
                min_code_bits: reference_code_bits(&ops, 4, 16) * floor_pct as f64 / 100.0,
                v_choices: menu(v_mask, [2, 4, 8]),
                ct_choices: menu(ct_mask, [8, 16, 64]),
            };
            assert_matches_brute_force(&ops, &opts);
        }
    }

    /// `allocate_global` solved over uncapped candidate lists: the
    /// allocator as it was before the byte caps.
    fn global_uncapped(ops: &[OpShape], opts: &AllocOptions) -> Option<AllocPlan> {
        let p = small_platform();
        let mut best: Option<AllocPlan> = None;
        for &v in &opts.v_choices {
            if ops.iter().any(|op| op.in_dim % v != 0) {
                continue;
            }
            for &ct in &opts.ct_choices {
                let uniform = AllocOptions {
                    v_choices: vec![v],
                    ct_choices: vec![ct],
                    ..opts.clone()
                };
                let per_op: Vec<Vec<Cand>> = ops
                    .iter()
                    .map(|op| uncapped_candidates(&p, op, &uniform))
                    .collect();
                if let Some(picks) = solve(&per_op, opts.budget_bytes, opts.min_code_bits) {
                    let plan = plan_of(ops, &per_op, &picks);
                    if best
                        .as_ref()
                        .is_none_or(|b| plan.total_latency_s < b.total_latency_s)
                    {
                        best = Some(plan);
                    }
                }
            }
        }
        best
    }

    /// A random request: up to three operators of widths 32–128 (counts 1
    /// and 2), `V` and `CT` menus drawn from `{2, 4, 8}` and `{8, 16, 64}`,
    /// a budget of `budget_kib` KiB and a floor at `floor_pct` % of the
    /// uniform `(4, 16)` reference.
    fn request(
        n_ops: usize,
        dims: u64,
        (v_mask, ct_mask): (usize, usize),
        budget_kib: usize,
        floor_pct: usize,
    ) -> (Vec<OpShape>, AllocOptions) {
        let dim = |i: usize| [32usize, 64, 96, 128][(dims >> (2 * i)) as usize % 4];
        let ops: Vec<OpShape> = (0..n_ops)
            .map(|i| OpShape {
                name: format!("op{i}"),
                in_dim: dim(2 * i),
                out_dim: dim(2 * i + 1),
                count: 1 + i % 2,
            })
            .collect();
        let menu = |mask: usize, all: [usize; 3]| -> Vec<usize> {
            (0..3)
                .filter(|b| mask >> b & 1 == 1)
                .map(|b| all[b])
                .collect()
        };
        let opts = AllocOptions {
            budget_bytes: budget_kib << 10,
            min_code_bits: reference_code_bits(&ops, 4, 16) * floor_pct as f64 / 100.0,
            v_choices: menu(v_mask, [2, 4, 8]),
            ct_choices: menu(ct_mask, [8, 16, 64]),
        };
        (ops, opts)
    }

    /// The capped `allocate_global` against [`global_uncapped`]: the same
    /// plan, every field's bits (by `{:?}`), or both find nothing.
    fn assert_global_matches_uncapped(ops: &[OpShape], opts: &AllocOptions) {
        let capped = allocate_global(&small_platform(), ops, 32, opts);
        match (&capped, global_uncapped(ops, opts)) {
            (Ok(plan), Some(want)) => assert_eq!(format!("{plan:?}"), format!("{want:?}")),
            (Err(TuneError::NoLegalMapping { .. }), None) => {}
            (_, want) => panic!("capped {capped:?} vs uncapped {want:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The byte caps change no uniform plan ([`request`]'s requests).
        #[test]
        fn capped_global_plan_matches_uncapped(
            n_ops in 1usize..4,
            dims in proptest::prelude::any::<u64>(),
            v_mask in 1usize..8,
            ct_mask in 1usize..8,
            budget_kib in 1usize..96,
            floor_pct in 0usize..120,
        ) {
            let (ops, opts) = request(n_ops, dims, (v_mask, ct_mask), budget_kib, floor_pct);
            assert_global_matches_uncapped(&ops, &opts);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1000))]

        /// [`capped_global_plan_matches_uncapped`] on 1,000 cases: the long
        /// pass `scripts/check.sh` runs with `--ignored`.
        #[test]
        #[ignore = "long allocator pass: ~1,000 uniform plans, capped and uncapped"]
        fn capped_global_plan_matches_uncapped_wide(
            n_ops in 1usize..4,
            dims in proptest::prelude::any::<u64>(),
            v_mask in 1usize..8,
            ct_mask in 1usize..8,
            budget_kib in 1usize..96,
            floor_pct in 0usize..120,
        ) {
            let (ops, opts) = request(n_ops, dims, (v_mask, ct_mask), budget_kib, floor_pct);
            assert_global_matches_uncapped(&ops, &opts);
        }

        /// `dfs_plan_matches_brute_force_over_frontier_product` on 1,000
        /// cases: the per-layer plan under the caps against brute force
        /// over the uncapped frontier product. The long pass
        /// `scripts/check.sh` runs with `--ignored`.
        #[test]
        #[ignore = "long allocator pass: ~1,000 per-layer plans against brute force"]
        fn dfs_plan_matches_brute_force_over_frontier_product_wide(
            n_ops in 1usize..4,
            dims in proptest::prelude::any::<u64>(),
            v_mask in 1usize..8,
            ct_mask in 1usize..8,
            budget_kib in 1usize..96,
            floor_pct in 0usize..120,
        ) {
            let (ops, opts) = request(n_ops, dims, (v_mask, ct_mask), budget_kib, floor_pct);
            assert_matches_brute_force(&ops, &opts);
        }
    }

    #[test]
    fn byte_overflow_fits_no_budget() {
        // `per_pe_lut_bytes × count` past `usize` wrapped in release
        // builds, and this request got a plan of 3,072 bytes.
        let p = small_platform();
        let huge = vec![OpShape {
            name: "x".to_string(),
            in_dim: 64,
            out_dim: 64,
            count: usize::MAX / 64 + 7,
        }];
        let opts = AllocOptions::with_budget(1 << 20);
        for allocate in [allocate_per_layer, allocate_global] {
            let plan = allocate(&p, &huge, 64, &opts);
            assert!(
                matches!(plan, Err(TuneError::NoLegalMapping { .. })),
                "{plan:?}"
            );
        }
        // No plan reports more bytes than its budget, or a total that is
        // not the sum of its choices, with counts and budgets up to where
        // products and sums overflow.
        for count in [1, usize::MAX / 4096, usize::MAX / 64 + 7, usize::MAX] {
            for budget in [1 << 10, 1 << 20, usize::MAX / 2, usize::MAX] {
                let mut ops = ops();
                ops[1].count = count;
                ops[2].count = count;
                let opts = AllocOptions::with_budget(budget);
                for allocate in [allocate_per_layer, allocate_global] {
                    let Ok(plan) = allocate(&p, &ops, 64, &opts) else {
                        continue;
                    };
                    let sum = (plan.choices.iter())
                        .try_fold(0usize, |sum, c| sum.checked_add(c.per_pe_bytes));
                    assert_eq!(sum, Some(plan.total_per_pe_bytes), "{count} x, {budget} B");
                    assert!(plan.total_per_pe_bytes <= budget, "{count} x, {budget} B");
                }
            }
        }
    }

    #[test]
    fn reference_bits_scale_with_count() {
        let one = reference_code_bits(
            &[OpShape {
                name: "x".to_string(),
                in_dim: 64,
                out_dim: 64,
                count: 1,
            }],
            4,
            16,
        );
        let two = reference_code_bits(
            &[OpShape {
                name: "x".to_string(),
                in_dim: 64,
                out_dim: 64,
                count: 2,
            }],
            4,
            16,
        );
        assert!((two - 2.0 * one).abs() < 1e-9);
        assert!((one - 16.0 * 4.0).abs() < 1e-9); // 16 codebooks × log2(16)
    }
}
