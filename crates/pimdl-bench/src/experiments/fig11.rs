//! Fig. 11 — performance analysis on UPMEM:
//! (a) inference latency breakdown (LUT / CCS / other),
//! (b) layer-wise speedup of each converted linear operator over CPU INT8
//! GEMM.

use serde::Serialize;

use pimdl_engine::baseline::HostModel;
use pimdl_engine::pipeline::{PimDlEngine, ServingConfig};
use pimdl_engine::shapes::TransformerShape;
use pimdl_sim::PlatformConfig;

use crate::experiments::geomean;
use crate::report::TextTable;

/// Latency-breakdown fractions for one model (panel a).
#[derive(Debug, Clone, Serialize)]
pub struct BreakdownRow {
    /// Model name.
    pub model: String,
    /// LUT operator fraction of total latency.
    pub lut_frac: f64,
    /// CCS operator fraction.
    pub ccs_frac: f64,
    /// Everything else (attention + element-wise).
    pub other_frac: f64,
}

/// Layer-wise comparison for one operator of one model (panel b).
#[derive(Debug, Clone, Serialize)]
pub struct LayerwiseRow {
    /// Model name.
    pub model: String,
    /// Operator name (QKV / O / FFN1 / FFN2).
    pub operator: String,
    /// PIM-DL time for this operator across all layers (CCS + LUT), s.
    pub pimdl_s: f64,
    /// CPU INT8 GEMM time for the same operator, s.
    pub cpu_int8_s: f64,
    /// Speedup.
    pub speedup: f64,
}

/// Full Fig. 11 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Result {
    /// Panel (a) rows.
    pub breakdown: Vec<BreakdownRow>,
    /// Panel (b) rows.
    pub layerwise: Vec<LayerwiseRow>,
    /// Geomean layer-wise speedup (paper: 1.81×).
    pub geomean_layerwise: f64,
}

/// Runs Fig. 11 with explicit workload sizes (the paper uses batch 64 ×
/// seq 512 / V = 4 / CT = 16; smaller sizes give the same shape faster).
///
/// # Errors
///
/// Propagates engine errors.
pub fn run(batch: usize, seq_len: usize) -> Result<Fig11Result, pimdl_engine::EngineError> {
    let engine = PimDlEngine::new(PlatformConfig::upmem());
    let cpu_int8 = HostModel::cpu_int8();
    let cfg = ServingConfig {
        batch,
        seq_len,
        v: 4,
        ct: 16,
    };
    let n = batch * seq_len;

    let mut breakdown = Vec::new();
    let mut layerwise = Vec::new();
    let mut speedups = Vec::new();
    for shape in TransformerShape::evaluation_models() {
        let report = engine.serve(&shape, &cfg)?;
        breakdown.push(BreakdownRow {
            model: shape.name.clone(),
            lut_frac: report.lut_s / report.total_s,
            ccs_frac: report.ccs_s / report.total_s,
            other_frac: (report.attention_s + report.other_s) / report.total_s,
        });
        for lc in &report.per_linear {
            let op = shape
                .linear_ops()
                .into_iter()
                .find(|o| o.name == lc.name)
                .expect("operator name");
            let cpu_s = cpu_int8.linear_s(n, &op, 1) * shape.layers as f64;
            let pimdl_s = lc.lut_s + lc.ccs_s;
            let speedup = cpu_s / pimdl_s;
            speedups.push(speedup);
            layerwise.push(LayerwiseRow {
                model: shape.name.clone(),
                operator: lc.name.clone(),
                pimdl_s,
                cpu_int8_s: cpu_s,
                speedup,
            });
        }
    }
    Ok(Fig11Result {
        breakdown,
        layerwise,
        geomean_layerwise: geomean(&speedups),
    })
}

/// Renders Fig. 11.
pub fn render(result: &Fig11Result) -> String {
    let mut a = TextTable::new(vec!["Model", "LUT %", "CCS %", "Other %"]);
    for r in &result.breakdown {
        a.row(vec![
            r.model.clone(),
            format!("{:.1}", 100.0 * r.lut_frac),
            format!("{:.1}", 100.0 * r.ccs_frac),
            format!("{:.1}", 100.0 * r.other_frac),
        ]);
    }
    let mut b = TextTable::new(vec!["Model", "Op", "PIM-DL (s)", "CPU INT8 (s)", "Speedup"]);
    for r in &result.layerwise {
        b.row(vec![
            r.model.clone(),
            r.operator.clone(),
            format!("{:.3}", r.pimdl_s),
            format!("{:.3}", r.cpu_int8_s),
            format!("{:.2}x", r.speedup),
        ]);
    }
    format!(
        "Fig. 11-(a) — Inference latency breakdown (paper: LUT-NN inference 73.7-79.4% of total)\n\n{}\n\
         Fig. 11-(b) — Layer-wise comparison vs CPU INT8 (paper: 1.61x/0.99x/1.78x/2.38x for QKV/O/FFN1/FFN2, geomean 1.81x)\n\
         Measured geomean: {:.2}x\n\n{}",
        a.render(),
        result.geomean_layerwise,
        b.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_run_has_expected_structure() {
        let r = run(8, 64).unwrap();
        assert_eq!(r.breakdown.len(), 3);
        assert_eq!(r.layerwise.len(), 12);
        for b in &r.breakdown {
            let sum = b.lut_frac + b.ccs_frac + b.other_frac;
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", b.model);
            assert!(b.lut_frac > 0.0);
        }
        assert!(r.geomean_layerwise > 0.0);
    }

    #[test]
    fn ffn2_fastest_relative_to_cpu() {
        // Paper: FFN2 gains the most because it has the largest GEMM inner
        // dim (the LUT cost scales with CB = in/V while GEMM scales with
        // in).
        let r = run(16, 64).unwrap();
        let bert: Vec<&LayerwiseRow> = r
            .layerwise
            .iter()
            .filter(|x| x.model == "Bert-Base")
            .collect();
        let ffn2 = bert.iter().find(|x| x.operator == "FFN2").unwrap();
        let o = bert.iter().find(|x| x.operator == "O").unwrap();
        assert!(
            ffn2.speedup > o.speedup,
            "FFN2 {} should beat O {}",
            ffn2.speedup,
            o.speedup
        );
    }

    #[test]
    fn render_contains_panels() {
        let r = run(4, 32).unwrap();
        let s = render(&r);
        assert!(s.contains("Fig. 11-(a)"));
        assert!(s.contains("Fig. 11-(b)"));
        assert!(s.contains("FFN2"));
    }
}
