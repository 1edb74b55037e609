//! §6.6 auto-tuner quality analysis: for every linear operator of the
//! evaluation models, compare the auto-tuner's pick (ranked by the
//! analytical model) against the simulated optimum, and report the model's
//! prediction error (paper: ≤ 6 % degradation; avg error 3.44 %, max
//! 13.73 %).

use serde::Serialize;

use pimdl_engine::shapes::TransformerShape;
use pimdl_sim::cost::estimate_cost;
use pimdl_sim::{LutWorkload, Mapping, PlatformConfig, TimeBreakdown};
use pimdl_tuner::model::{analytical_cost, relative_error};
use pimdl_tuner::space::{mapping_of, sub_lut_candidates};
use pimdl_tuner::tune;

use super::{is_sane, sampled_kernels};
use crate::report::TextTable;

/// Tuner-quality statistics for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct TunerErrorRow {
    /// Workload label.
    pub label: String,
    /// Workload shape.
    pub workload: LutWorkload,
    /// Simulated latency of the tuner's pick (s).
    pub tuned_sim_s: f64,
    /// Best simulated latency over the sampled space (s).
    pub best_sim_s: f64,
    /// Degradation of the pick vs the simulated optimum.
    pub degradation: f64,
    /// Mean relative model error over the sampled space.
    pub avg_error: f64,
    /// Max relative model error over the sampled space.
    pub max_error: f64,
    /// Sampled candidate count.
    pub sampled: usize,
    /// The sampled candidate with the largest model error (`None` if
    /// nothing was sampled).
    pub max_error_mapping: Option<Mapping>,
    /// Its per-term residuals `model.term − sim.term` (seconds): both
    /// sides speak [`TimeBreakdown`], so the error splits by term.
    pub max_error_residual_s: TimeBreakdown,
}

/// `model.term − sim.term` for each of the seven terms.
fn residual(model: &TimeBreakdown, sim: &TimeBreakdown) -> TimeBreakdown {
    TimeBreakdown {
        sub_index_s: model.sub_index_s - sim.sub_index_s,
        sub_lut_s: model.sub_lut_s - sim.sub_lut_s,
        sub_output_s: model.sub_output_s - sim.sub_output_s,
        kernel_index_s: model.kernel_index_s - sim.kernel_index_s,
        kernel_lut_s: model.kernel_lut_s - sim.kernel_lut_s,
        kernel_output_s: model.kernel_output_s - sim.kernel_output_s,
        kernel_reduce_s: model.kernel_reduce_s - sim.kernel_reduce_s,
    }
}

/// The seven terms of a breakdown by name.
fn terms(t: &TimeBreakdown) -> [(&'static str, f64); 7] {
    [
        ("sub_index", t.sub_index_s),
        ("sub_lut", t.sub_lut_s),
        ("sub_output", t.sub_output_s),
        ("kernel_index", t.kernel_index_s),
        ("kernel_lut", t.kernel_lut_s),
        ("kernel_output", t.kernel_output_s),
        ("kernel_reduce", t.kernel_reduce_s),
    ]
}

impl TunerErrorRow {
    /// The term carrying the largest share of the max-error candidate's
    /// residual, as `(name, |residual| / Σ|residuals|)`.
    pub fn dominant_residual(&self) -> (&'static str, f64) {
        let terms = terms(&self.max_error_residual_s);
        let sum: f64 = terms.iter().map(|(_, r)| r.abs()).sum();
        let (name, worst) =
            terms.into_iter().fold(
                ("none", 0.0_f64),
                |a, b| if b.1.abs() > a.1.abs() { b } else { a },
            );
        (name, if sum > 0.0 { worst.abs() / sum } else { 0.0 })
    }
}

/// Full tuner-error result.
#[derive(Debug, Clone, Serialize)]
pub struct TunerErrorResult {
    /// Per-workload rows.
    pub rows: Vec<TunerErrorRow>,
    /// Mean of per-workload average errors.
    pub overall_avg_error: f64,
    /// Max of per-workload max errors.
    pub overall_max_error: f64,
    /// Max degradation across workloads.
    pub max_degradation: f64,
}

/// Analyzes one workload.
///
/// # Errors
///
/// Propagates tuner errors.
pub fn analyze_workload(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    label: &str,
    max_candidates_per_pair: usize,
) -> Result<TunerErrorRow, pimdl_tuner::TuneError> {
    let tuned = tune(platform, workload)?;
    let tuned_sim_s = estimate_cost(platform, workload, &tuned.mapping)
        .map_err(pimdl_tuner::TuneError::from)?
        .time
        .total_s();

    let mut best_sim_s = tuned_sim_s;
    let mut errors = Vec::new();
    let mut worst: Option<(f64, Mapping, TimeBreakdown)> = None;
    for (n_s, f_s) in sub_lut_candidates(workload, platform) {
        // Evaluate the model over the sensible neighborhood the paper
        // plots (degenerate 1-element tiles are overhead-dominated and not
        // part of its error statistics).
        let kernels = sampled_kernels(
            workload,
            platform,
            (n_s, f_s),
            is_sane,
            max_candidates_per_pair,
        );
        for kernel in kernels {
            let mapping = mapping_of(n_s, f_s, kernel);
            let (Ok(model), Ok(sim)) = (
                analytical_cost(platform, workload, &mapping),
                estimate_cost(platform, workload, &mapping),
            ) else {
                continue;
            };
            let sim_s = sim.time.total_s();
            best_sim_s = best_sim_s.min(sim_s);
            let error = relative_error(model.total_s(), sim_s);
            if worst.is_none_or(|(e, ..)| error > e) {
                worst = Some((error, mapping, residual(&model, &sim.time)));
            }
            errors.push(error);
        }
    }
    let sampled = errors.len();
    let avg_error = if sampled == 0 {
        0.0
    } else {
        errors.iter().sum::<f64>() / sampled as f64
    };
    let max_error = errors.iter().copied().fold(0.0, f64::max);
    Ok(TunerErrorRow {
        label: label.to_string(),
        workload: *workload,
        tuned_sim_s,
        best_sim_s,
        degradation: tuned_sim_s / best_sim_s,
        avg_error,
        max_error,
        sampled,
        max_error_mapping: worst.map(|(_, mapping, _)| mapping),
        max_error_residual_s: worst.map(|(.., r)| r).unwrap_or_default(),
    })
}

/// Runs the analysis over every linear operator of the evaluation models at
/// batch 64 × seq 512, V = 4, CT = 16, on UPMEM.
///
/// # Errors
///
/// Propagates tuner errors.
pub fn run(max_candidates_per_pair: usize) -> Result<TunerErrorResult, pimdl_tuner::TuneError> {
    let platform = PlatformConfig::upmem();
    let n = 64 * 512;
    let (v, ct) = (4usize, 16usize);
    let mut rows = Vec::new();
    for shape in TransformerShape::evaluation_models() {
        for op in shape.linear_ops() {
            let workload = LutWorkload::new(n, op.in_dim / v, ct, op.out_dim)
                .map_err(pimdl_tuner::TuneError::from)?;
            let label = format!("{} {}", shape.name, op.name);
            rows.push(analyze_workload(
                &platform,
                &workload,
                &label,
                max_candidates_per_pair,
            )?);
        }
    }
    let overall_avg_error = rows.iter().map(|r| r.avg_error).sum::<f64>() / rows.len() as f64;
    let overall_max_error = rows.iter().map(|r| r.max_error).fold(0.0, f64::max);
    let max_degradation = rows.iter().map(|r| r.degradation).fold(0.0, f64::max);
    Ok(TunerErrorResult {
        rows,
        overall_avg_error,
        overall_max_error,
        max_degradation,
    })
}

/// Renders the tuner-error table.
pub fn render(result: &TunerErrorResult) -> String {
    let mut t = TextTable::new(vec![
        "Workload",
        "Tuned (sim)",
        "Best (sim)",
        "Degradation",
        "Avg err",
        "Max err",
        "#sampled",
        "Max-err term",
    ]);
    for r in &result.rows {
        t.row(vec![
            r.label.clone(),
            format!("{:.4} s", r.tuned_sim_s),
            format!("{:.4} s", r.best_sim_s),
            format!("{:.1}%", 100.0 * (r.degradation - 1.0)),
            format!("{:.2}%", 100.0 * r.avg_error),
            format!("{:.2}%", 100.0 * r.max_error),
            r.sampled.to_string(),
            {
                let (term, share) = r.dominant_residual();
                format!("{term} ({:.0}% of residual)", 100.0 * share)
            },
        ]);
    }
    format!(
        "§6.6 — Auto-tuner quality (UPMEM, batch 64 × seq 512, V=4/CT=16)\n\
         Paper: degradation ≤ 6%, model error avg 3.44% / max 13.73%\n\
         Measured: degradation ≤ {:.1}%, model error avg {:.2}% / max {:.2}%\n\n{}",
        100.0 * (result.max_degradation - 1.0),
        100.0 * result.overall_avg_error,
        100.0 * result.overall_max_error,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workload_analysis() {
        let mut p = PlatformConfig::upmem();
        p.num_pes = 16;
        let w = LutWorkload::new(256, 16, 16, 64).unwrap();
        let row = analyze_workload(&p, &w, "toy", 400).unwrap();
        assert!(row.degradation >= 1.0);
        assert!(row.degradation < 1.15, "degradation {}", row.degradation);
        assert!(row.avg_error < 0.35, "avg error {}", row.avg_error);
        assert!(row.sampled > 0);
        // The attribution closes: the seven residuals sum to the total
        // model-minus-sim gap of the max-error candidate.
        let m = row.max_error_mapping.unwrap();
        let model = analytical_cost(&p, &w, &m).unwrap();
        let sim = estimate_cost(&p, &w, &m).unwrap().time;
        assert_eq!(row.max_error_residual_s, residual(&model, &sim));
        assert_eq!(
            relative_error(model.total_s(), sim.total_s()),
            row.max_error
        );
        let gap: f64 = terms(&row.max_error_residual_s).iter().map(|t| t.1).sum();
        assert!((gap - (model.total_s() - sim.total_s())).abs() < 1e-12);
    }

    #[test]
    fn render_structure() {
        let result = TunerErrorResult {
            rows: vec![TunerErrorRow {
                label: "x".to_string(),
                workload: LutWorkload::new(4, 2, 2, 4).unwrap(),
                tuned_sim_s: 1.0,
                best_sim_s: 1.0,
                degradation: 1.0,
                avg_error: 0.03,
                max_error: 0.1,
                sampled: 10,
                max_error_mapping: None,
                max_error_residual_s: TimeBreakdown {
                    kernel_lut_s: -0.09,
                    kernel_index_s: -0.01,
                    ..TimeBreakdown::default()
                },
            }],
            overall_avg_error: 0.03,
            overall_max_error: 0.1,
            max_degradation: 1.0,
        };
        let s = render(&result);
        assert!(s.contains("Auto-tuner quality"));
        assert!(s.contains("3.00%"));
        assert!(s.contains("kernel_lut (90% of residual)"));
    }
}
