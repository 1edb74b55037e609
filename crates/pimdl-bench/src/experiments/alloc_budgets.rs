//! Extension experiment — per-layer codebook capacity allocation versus
//! the best global `(V, CT)` at equal capacity budgets (DESIGN.md §12.3).
//!
//! For each per-PE capacity budget, the allocator picks per-operator
//! `(V, CT, mapping)` and the best *uniform* `(V, CT)` at the same
//! accuracy floor, then both plans serve through the dynamic-batching DES
//! on a platform whose local memory is clamped to the budget. The recorded
//! throughput pair is the headline: heterogeneous allocation must never
//! lose at equal budget. Every field is a pure function of the cost model
//! and the tuner, so `results/alloc_budgets.json` is byte-gated by
//! `scripts/check.sh` like the paper's figures.

use serde::Serialize;

use pimdl_engine::perlayer::PerLayerServingConfig;
use pimdl_engine::scheduler::{BatchScheduler, BatchingPolicy, Workload};
use pimdl_engine::shapes::TransformerShape;
use pimdl_engine::PimDlEngine;
use pimdl_sim::PlatformConfig;
use pimdl_tuner::alloc::{reference_code_bits, AllocOptions, FrontierTable, OpShape};

use crate::report::TextTable;

/// One operator's allocated setting inside a budget row.
#[derive(Debug, Clone, Serialize)]
pub struct AllocatedOp {
    /// Operator name.
    pub op: String,
    /// Chosen sub-vector length.
    pub v: usize,
    /// Chosen centroid count.
    pub ct: usize,
    /// Per-PE LUT bytes of the choice (one layer).
    pub per_pe_bytes: usize,
}

/// Per-layer vs global allocation at one capacity budget.
#[derive(Debug, Clone, Serialize)]
pub struct BudgetRow {
    /// Per-PE LUT capacity budget (bytes, across all layers).
    pub budget_bytes: usize,
    /// The heterogeneous plan's operator settings.
    pub per_layer_ops: Vec<AllocatedOp>,
    /// The best uniform `(V, CT)` at the same budget and accuracy floor.
    pub global_v: usize,
    /// Uniform centroid count.
    pub global_ct: usize,
    /// Allocator-predicted PIM LUT latency of the per-layer plan (s).
    pub per_layer_predicted_s: f64,
    /// Allocator-predicted PIM LUT latency of the global plan (s).
    pub global_predicted_s: f64,
    /// DES throughput of the per-layer plan (requests/s).
    pub per_layer_throughput_rps: f64,
    /// DES throughput of the global plan (requests/s).
    pub global_throughput_rps: f64,
}

/// Full capacity-sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct AllocBudgetsResult {
    /// Model evaluated.
    pub model: String,
    /// Batch and sequence length of the serving point.
    pub batch: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Capacity-budget sweep rows.
    pub budgets: Vec<BudgetRow>,
}

/// Runs the capacity sweep for a model shape on a platform.
///
/// `budgets_bytes` are per-PE LUT capacities; budgets too tight for any
/// uniform plan are skipped (the heterogeneous plan may still fit, but the
/// comparison needs both sides).
///
/// # Errors
///
/// Propagates tuner and engine errors.
pub fn run_with(
    platform: &PlatformConfig,
    shape: &TransformerShape,
    batch: usize,
    seq_len: usize,
    budgets_bytes: &[usize],
) -> Result<AllocBudgetsResult, Box<dyn std::error::Error>> {
    let n = batch * seq_len;
    let (v, ct) = (4usize, 16usize);

    // CT is held to the paper's 16 so both plans run the identical host
    // CCS; the allocator then spends the budget purely on per-operator V
    // (and its mapping choice), which is the capacity/latency trade the
    // DES prices.
    let ops: Vec<OpShape> = shape
        .linear_ops()
        .iter()
        .map(|op| OpShape {
            name: op.name.to_string(),
            in_dim: op.in_dim,
            out_dim: op.out_dim,
            count: shape.layers,
        })
        .collect();
    let mut budgets = Vec::new();
    for &budget in budgets_bytes {
        let mut opts = AllocOptions::with_budget(budget);
        opts.ct_choices = vec![ct];
        opts.min_code_bits = reference_code_bits(&ops, v, ct);
        let mut budget_platform = platform.clone();
        budget_platform.mram_bytes = budget;
        // Both plans read one table of frontiers, searched once.
        let table = FrontierTable::new(&budget_platform, &ops, n, &opts)?;
        let global = match table.global() {
            Ok(plan) => plan,
            Err(_) => continue, // no uniform plan fits: nothing to compare
        };
        let per_layer = table.per_layer()?;

        let engine = PimDlEngine::new(budget_platform);
        let policy = BatchingPolicy {
            max_batch: batch,
            max_wait_s: 0.001,
        };
        let throughput =
            |plan: &pimdl_tuner::alloc::AllocPlan| -> Result<f64, Box<dyn std::error::Error>> {
                let cfg = PerLayerServingConfig::from_alloc_plan(batch, seq_len, budget, plan);
                let mut sched = BatchScheduler::new_per_layer(&engine, shape, cfg, policy);
                // Saturate the scheduler so throughput measures serving
                // capacity, not the offered load.
                let full_batch_s = sched.batch_latency_s(batch)?;
                let stats = sched.simulate(&Workload {
                    rate_rps: 4.0 * batch as f64 / full_batch_s,
                    duration_s: 40.0 * full_batch_s,
                    seed: 17,
                })?;
                Ok(stats.throughput_rps)
            };
        let per_layer_throughput_rps = throughput(&per_layer)?;
        let global_throughput_rps = throughput(&global)?;

        budgets.push(BudgetRow {
            budget_bytes: budget,
            per_layer_ops: per_layer
                .choices
                .iter()
                .map(|c| AllocatedOp {
                    op: c.name.clone(),
                    v: c.v,
                    ct: c.ct,
                    per_pe_bytes: c.per_pe_bytes,
                })
                .collect(),
            global_v: global.choices.first().map_or(0, |c| c.v),
            global_ct: global.choices.first().map_or(0, |c| c.ct),
            per_layer_predicted_s: per_layer.total_latency_s,
            global_predicted_s: global.total_latency_s,
            per_layer_throughput_rps,
            global_throughput_rps,
        });
    }

    Ok(AllocBudgetsResult {
        model: shape.name.clone(),
        batch,
        seq_len,
        budgets,
    })
}

/// Paper-scale run: BERT-base at batch 64 × seq 512 on UPMEM, budgets from
/// 1 MiB to 4 MiB per PE.
///
/// # Errors
///
/// Propagates tuner and engine errors.
pub fn run() -> Result<AllocBudgetsResult, Box<dyn std::error::Error>> {
    run_with(
        &PlatformConfig::upmem(),
        &TransformerShape::bert_base(),
        64,
        512,
        &[1 << 20, 3 << 19, 2 << 20, 3 << 20, 4 << 20],
    )
}

/// Quick run for smoke tests: the tiny shape on a 64-PE UPMEM.
///
/// # Errors
///
/// Propagates tuner and engine errors.
pub fn run_quick() -> Result<AllocBudgetsResult, Box<dyn std::error::Error>> {
    let mut p = PlatformConfig::upmem();
    p.num_pes = 64;
    run_with(
        &p,
        &TransformerShape::tiny(),
        4,
        32,
        &[4 << 10, 16 << 10, 64 << 10],
    )
}

/// Renders the sweep as a text table.
pub fn render(result: &AllocBudgetsResult) -> String {
    let mut alloc = TextTable::new(vec![
        "Budget/PE",
        "Global (V,CT)",
        "Per-layer V",
        "Pred global",
        "Pred per-layer",
        "DES global",
        "DES per-layer",
    ]);
    for b in &result.budgets {
        alloc.row(vec![
            format!("{} KiB", b.budget_bytes >> 10),
            format!("({}, {})", b.global_v, b.global_ct),
            b.per_layer_ops
                .iter()
                .map(|o| format!("{}={}", o.op, o.v))
                .collect::<Vec<_>>()
                .join(" "),
            format!("{:.4} s", b.global_predicted_s),
            format!("{:.4} s", b.per_layer_predicted_s),
            format!("{:.2} rps", b.global_throughput_rps),
            format!("{:.2} rps", b.per_layer_throughput_rps),
        ]);
    }
    format!(
        "§12.3 — Capacity allocation ({}, batch {} × seq {}; CT = 16 held fixed; \
         accuracy floor = global V=4 bits):\n\n{}",
        result.model,
        result.batch,
        result.seq_len,
        alloc.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_never_loses_at_equal_budget_and_wins_somewhere() {
        let result = run_quick().unwrap();
        assert!(!result.budgets.is_empty(), "no feasible budgets");
        for b in &result.budgets {
            assert!(
                b.per_layer_predicted_s <= b.global_predicted_s + 1e-15,
                "budget {}: predicted per-layer {} > global {}",
                b.budget_bytes,
                b.per_layer_predicted_s,
                b.global_predicted_s
            );
            assert!(
                b.per_layer_throughput_rps >= 0.999 * b.global_throughput_rps,
                "budget {}: DES per-layer {} < global {}",
                b.budget_bytes,
                b.per_layer_throughput_rps,
                b.global_throughput_rps
            );
        }
        // The headline: somewhere in the sweep heterogeneity strictly wins.
        assert!(
            result.budgets.iter().any(|b| {
                b.per_layer_throughput_rps > b.global_throughput_rps
                    || b.per_layer_predicted_s < b.global_predicted_s
            }),
            "per-layer allocation never beat global anywhere in the sweep"
        );
    }

    #[test]
    fn render_structure() {
        let result = run_quick().unwrap();
        let s = render(&result);
        assert!(s.contains("Capacity allocation"));
        assert!(s.contains("DES per-layer"));
    }
}
