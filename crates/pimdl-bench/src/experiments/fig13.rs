//! Fig. 13 — visualization of the LUT-NN mapping space on UPMEM, using
//! BERT-large's FFN1 layer: workload `(N, CB, CT, F) = (32768, 256, 16,
//! 4096)` at V = 4. Panels (a)–(c) sweep micro-kernel parameters per LUT
//! load scheme at the paper's fixed sub-LUT tilings; panel (d) sweeps the
//! sub-LUT tiling factors.
//!
//! For every candidate mapping we record the analytical-model prediction
//! (the auto-tuner's view) and the simulated "measured" latency, so the
//! §6.6 statistics (best-in-model vs best-in-real gap, model error) fall
//! out of the same sweep.

use serde::Serialize;

use pimdl_sim::cost::estimate_cost;
use pimdl_sim::mapping::MicroKernel;
use pimdl_sim::{LoadScheme, LutWorkload, Mapping, PlatformConfig};
use pimdl_tuner::model::{analytical_cost, relative_error};
use pimdl_tuner::space::{mapping_of, sub_lut_candidates};

use super::{is_sane, sampled_kernels};
use crate::report::TextTable;

/// A scored mapping.
#[derive(Debug, Clone, Serialize)]
pub struct ScoredMapping {
    /// The mapping.
    pub mapping: Mapping,
    /// Analytical-model latency (s).
    pub model_s: f64,
    /// Simulated latency (s).
    pub sim_s: f64,
}

/// One Fig. 13 panel.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Panel {
    /// Panel name.
    pub name: String,
    /// Candidate count scored.
    pub candidates: usize,
    /// Best simulated latency in the panel.
    pub best_sim_s: f64,
    /// Worst simulated latency in the panel.
    pub worst_sim_s: f64,
    /// Performance gap (worst / best) — the paper's annotated spans.
    pub perf_gap: f64,
    /// Simulated latency of the mapping the *model* ranks best.
    pub model_pick_sim_s: f64,
    /// Degradation of the model's pick vs the simulated optimum.
    pub tuner_degradation: f64,
    /// Mean relative model error over the panel.
    pub avg_model_error: f64,
    /// Max relative model error over the panel.
    pub max_model_error: f64,
}

/// Full Fig. 13 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig13Result {
    /// Workload swept.
    pub workload: LutWorkload,
    /// Panels (a) coarse, (b) fine, (c) static, (d) global.
    pub panels: Vec<Fig13Panel>,
}

/// The paper's case-study workload: BERT-large FFN1 at batch 64 × seq 512,
/// V = 4 → `(32768, 256, 16, 4096)`.
pub fn paper_workload() -> LutWorkload {
    LutWorkload::new(32768, 256, 16, 4096).expect("static shape")
}

fn scheme_matches(scheme: LoadScheme, filter: &str) -> bool {
    matches!(
        (scheme, filter),
        (LoadScheme::Static, "static")
            | (LoadScheme::CoarseGrain { .. }, "coarse-grain")
            | (LoadScheme::FineGrain { .. }, "fine-grain")
    )
}

fn sweep_panel(
    name: &str,
    platform: &PlatformConfig,
    workload: &LutWorkload,
    pairs: &[(usize, usize)],
    scheme_filter: Option<&str>,
    max_candidates: usize,
) -> Option<Fig13Panel> {
    let mut scored: Vec<ScoredMapping> = Vec::new();
    let keep = |k: &MicroKernel| {
        is_sane(k) && scheme_filter.is_none_or(|f| scheme_matches(k.load_scheme, f))
    };
    for &(n_s, f_s) in pairs {
        for kernel in sampled_kernels(workload, platform, (n_s, f_s), keep, max_candidates) {
            let mapping = mapping_of(n_s, f_s, kernel);
            let Ok(model) = analytical_cost(platform, workload, &mapping) else {
                continue;
            };
            let Ok(sim) = estimate_cost(platform, workload, &mapping) else {
                continue;
            };
            scored.push(ScoredMapping {
                mapping,
                model_s: model.total_s(),
                sim_s: sim.time.total_s(),
            });
        }
    }
    if scored.is_empty() {
        return None;
    }
    let best_sim = scored.iter().map(|s| s.sim_s).fold(f64::INFINITY, f64::min);
    let worst_sim = scored.iter().map(|s| s.sim_s).fold(0.0, f64::max);
    let model_pick = scored
        .iter()
        .min_by(|a, b| a.model_s.partial_cmp(&b.model_s).expect("finite"))
        .expect("non-empty");
    let errors: Vec<f64> = scored
        .iter()
        .map(|s| relative_error(s.model_s, s.sim_s))
        .collect();
    Some(Fig13Panel {
        name: name.to_string(),
        candidates: scored.len(),
        best_sim_s: best_sim,
        worst_sim_s: worst_sim,
        perf_gap: worst_sim / best_sim,
        model_pick_sim_s: model_pick.sim_s,
        tuner_degradation: model_pick.sim_s / best_sim,
        avg_model_error: errors.iter().sum::<f64>() / errors.len() as f64,
        max_model_error: errors.iter().copied().fold(0.0, f64::max),
    })
}

/// Runs the Fig. 13 sweep for an arbitrary workload/platform.
///
/// `(coarse_pair, static_pair)` are the fixed sub-LUT tilings of panels
/// (a)/(b) and (c); the paper uses `(512, 256)` and `(16384, 8)`.
pub fn run_with(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    coarse_pair: (usize, usize),
    static_pair: (usize, usize),
    max_candidates: usize,
) -> Fig13Result {
    let mut panels = Vec::new();
    if let Some(p) = sweep_panel(
        "(a) coarse-grain LUT load",
        platform,
        workload,
        &[coarse_pair],
        Some("coarse-grain"),
        max_candidates,
    ) {
        panels.push(p);
    }
    if let Some(p) = sweep_panel(
        "(b) fine-grain LUT load",
        platform,
        workload,
        &[coarse_pair],
        Some("fine-grain"),
        max_candidates,
    ) {
        panels.push(p);
    }
    if let Some(p) = sweep_panel(
        "(c) static LUT load",
        platform,
        workload,
        &[static_pair],
        Some("static"),
        max_candidates,
    ) {
        panels.push(p);
    }
    let pairs = sub_lut_candidates(workload, platform);
    if let Some(p) = sweep_panel(
        "(d) global (all sub-LUT tilings)",
        platform,
        workload,
        &pairs,
        None,
        max_candidates,
    ) {
        panels.push(p);
    }
    Fig13Result {
        workload: *workload,
        panels,
    }
}

/// Runs the paper-scale Fig. 13 case study on UPMEM.
pub fn run() -> Fig13Result {
    run_with(
        &PlatformConfig::upmem(),
        &paper_workload(),
        (512, 256),
        (16384, 8),
        4000,
    )
}

/// Renders the Fig. 13 panels.
pub fn render(result: &Fig13Result) -> String {
    let mut t = TextTable::new(vec![
        "Panel",
        "#cand",
        "Best (sim)",
        "Worst (sim)",
        "Gap",
        "Tuner degr.",
        "Avg err",
        "Max err",
    ]);
    for p in &result.panels {
        t.row(vec![
            p.name.clone(),
            p.candidates.to_string(),
            format!("{:.4} s", p.best_sim_s),
            format!("{:.4} s", p.worst_sim_s),
            format!("{:.2}x", p.perf_gap),
            format!("{:.1}%", 100.0 * (p.tuner_degradation - 1.0)),
            format!("{:.2}%", 100.0 * p.avg_model_error),
            format!("{:.2}%", 100.0 * p.max_model_error),
        ]);
    }
    format!(
        "Fig. 13 — Mapping space of BERT-large FFN1 ({}, {}, {}, {}) on UPMEM\n\
         Paper: up to 1.91x gap over sub-LUT tilings, 1.74x under static loads;\n\
         tuner degradation ≤ 6%, model error avg 3.44% / max 13.73%\n\n{}",
        result.workload.n,
        result.workload.cb,
        result.workload.ct,
        result.workload.f,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_setup() -> (PlatformConfig, LutWorkload) {
        let mut p = PlatformConfig::upmem();
        p.num_pes = 16;
        (p, LutWorkload::new(256, 16, 16, 64).unwrap())
    }

    #[test]
    fn small_sweep_produces_all_panels() {
        let (p, w) = small_setup();
        let r = run_with(&p, &w, (64, 16), (64, 16), 500);
        assert_eq!(r.panels.len(), 4);
        for panel in &r.panels {
            assert!(panel.candidates > 0, "{}", panel.name);
            assert!(panel.perf_gap >= 1.0);
            assert!(panel.tuner_degradation >= 1.0);
            assert!(panel.best_sim_s > 0.0);
        }
    }

    #[test]
    fn tuner_degradation_is_small() {
        // The §6.6 claim at small scale: the model's pick is within a few
        // percent of the simulated optimum.
        let (p, w) = small_setup();
        let r = run_with(&p, &w, (64, 16), (64, 16), 0);
        let global = r.panels.last().unwrap();
        assert!(
            global.tuner_degradation < 1.10,
            "degradation {}",
            global.tuner_degradation
        );
    }

    #[test]
    fn model_error_within_reasonable_band() {
        let (p, w) = small_setup();
        let r = run_with(&p, &w, (64, 16), (64, 16), 0);
        for panel in &r.panels {
            assert!(
                panel.avg_model_error < 0.35,
                "{}: avg error {}",
                panel.name,
                panel.avg_model_error
            );
        }
    }

    #[test]
    fn scheme_filter_matching() {
        assert!(scheme_matches(LoadScheme::Static, "static"));
        assert!(!scheme_matches(LoadScheme::Static, "fine-grain"));
        assert!(scheme_matches(
            LoadScheme::FineGrain {
                f_load: 1,
                threads: 1
            },
            "fine-grain"
        ));
    }

    #[test]
    fn render_reports_gaps() {
        let (p, w) = small_setup();
        let r = run_with(&p, &w, (64, 16), (64, 16), 200);
        let s = render(&r);
        assert!(s.contains("Fig. 13"));
        assert!(s.contains("Gap"));
    }
}
