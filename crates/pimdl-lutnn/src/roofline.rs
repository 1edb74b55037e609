//! Roofline analysis of LUT kernels (paper §3.3 and Fig. 4).
//!
//! The paper measures the arithmetic intensity of INT8 LUT kernels for the
//! FC layers of BERT-base/large and ViT-huge on a dual-socket Xeon 4210
//! (Intel Advisor), finding 0.204–0.288 ops/byte — deep inside the
//! memory-bound region (CPU ridge point ≈ 7.4 ops/byte). This module
//! reproduces that analysis analytically.
//!
//! Byte accounting: the LUT operator's traffic is dominated by gathered
//! table entries, which have no temporal locality (the index stream is
//! data-dependent). Hardware-measured traffic per gathered INT8 entry is
//! larger than 1 byte because of cache-line granularity and prefetch; we use
//! an effective 4 bytes/entry, which calibrates the model into the paper's
//! measured band. Index reads (1 B per `(row, codebook)`) and output writes
//! (4 B per element) are also counted.

use serde::{Deserialize, Serialize};

/// A machine for roofline purposes: peak compute and peak memory bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RooflineMachine {
    /// Peak throughput in giga-ops per second.
    pub peak_gops: f64,
    /// Peak memory bandwidth in GB/s.
    pub mem_bw_gbps: f64,
}

impl RooflineMachine {
    /// Dual-socket Intel Xeon 4210 (paper's Fig. 4 host): 795.11 GOPS peak,
    /// ~107 GB/s of 6-channel DDR4-2400 per socket pair.
    pub const XEON_4210_DUAL: RooflineMachine = RooflineMachine {
        peak_gops: 795.11,
        mem_bw_gbps: 107.3,
    };

    /// Arithmetic intensity at which the machine transitions from
    /// memory-bound to compute-bound (ops/byte).
    pub fn ridge_point(&self) -> f64 {
        self.peak_gops / self.mem_bw_gbps
    }

    /// Attainable throughput (GOPS) at the given arithmetic intensity.
    pub fn attainable_gops(&self, ai: f64) -> f64 {
        (ai * self.mem_bw_gbps).min(self.peak_gops)
    }
}

/// Effective bytes of memory traffic per gathered INT8 table entry
/// (cache-line granularity; calibrates the model to the paper's Advisor
/// measurements).
pub const EFFECTIVE_BYTES_PER_GATHER: f64 = 4.0;

/// Arithmetic-intensity breakdown of one LUT kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LutKernelIntensity {
    /// Accumulation operations (`N · CB · F`).
    pub ops: u64,
    /// Total bytes moved (tables + indices + output).
    pub bytes: f64,
    /// Arithmetic intensity, ops/byte.
    pub ai: f64,
}

/// Computes the LUT operator's arithmetic intensity for a layer of
/// activation rows `n`, hidden dim `h`, output features `f`, `ct` centroids
/// and sub-vector length `v`.
///
/// # Panics
///
/// Panics if `v == 0` or `v` does not divide `h`.
pub fn lut_kernel_intensity(
    n: usize,
    h: usize,
    f: usize,
    ct: usize,
    v: usize,
) -> LutKernelIntensity {
    assert!(v > 0 && h.is_multiple_of(v), "v must divide h");
    let cb = (h / v) as u64;
    let ops = n as u64 * cb * f as u64;
    // Gathered table traffic: the index stream is data-dependent, so every
    // (row, codebook) gather re-touches its F-entry run; the effective-bytes
    // constant folds cache-line granularity and prefetch overfetch.
    let table_bytes = n as f64 * cb as f64 * f as f64 * EFFECTIVE_BYTES_PER_GATHER;
    // Indices fit one byte for CT ≤ 256 (the paper's setting), two otherwise.
    let index_width = if ct <= 256 { 1.0 } else { 2.0 };
    let index_bytes = n as f64 * cb as f64 * index_width;
    let output_bytes = n as f64 * f as f64 * 4.0; // f32 result write
    let bytes = table_bytes + index_bytes + output_bytes;
    LutKernelIntensity {
        ops,
        bytes,
        ai: ops as f64 / bytes,
    }
}

/// One operator row of the Fig. 4 analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Point {
    /// Model name.
    pub model: &'static str,
    /// Operator name (QKV / O / FFN1 / FFN2).
    pub operator: &'static str,
    /// Arithmetic intensity of the INT8 LUT kernel.
    pub ai: f64,
    /// Attainable throughput on the Fig. 4 CPU (GOPS).
    pub attainable_gops: f64,
}

/// Reproduces the Fig. 4 operator sweep: the four FC operators of
/// BERT-base (H = 768), BERT-large (H = 1024) and ViT-huge (H = 1280) at
/// batch 64 × sequence 512, V = 2, CT = 16, INT8 LUTs.
pub fn fig4_points() -> Vec<Fig4Point> {
    let machine = RooflineMachine::XEON_4210_DUAL;
    let n = 64 * 512;
    let (v, ct) = (2usize, 16usize);
    let models: [(&'static str, usize); 3] =
        [("Bert-Base", 768), ("Bert-Large", 1024), ("ViT-Huge", 1280)];
    let mut out = Vec::new();
    for (model, h) in models {
        // (operator, input dim, output dim)
        let ops: [(&'static str, usize, usize); 4] = [
            ("QKV", h, 3 * h),
            ("O", h, h),
            ("FFN1", h, 4 * h),
            ("FFN2", 4 * h, h),
        ];
        for (operator, in_dim, out_dim) in ops {
            let k = lut_kernel_intensity(n, in_dim, out_dim, ct, v);
            out.push(Fig4Point {
                model,
                operator,
                ai: k.ai,
                attainable_gops: machine.attainable_gops(k.ai),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ridge_point_matches_paper_regime() {
        let m = RooflineMachine::XEON_4210_DUAL;
        let ridge = m.ridge_point();
        assert!((5.0..12.0).contains(&ridge), "ridge={ridge}");
    }

    #[test]
    fn attainable_clamps_at_peak() {
        let m = RooflineMachine::XEON_4210_DUAL;
        assert!((m.attainable_gops(0.1) - 10.73).abs() < 0.01);
        assert_eq!(m.attainable_gops(1e9), m.peak_gops);
    }

    #[test]
    fn fig4_intensities_in_paper_band() {
        // Paper: all operators between 0.204 and 0.288 ops/byte.
        for p in fig4_points() {
            assert!(
                (0.15..0.35).contains(&p.ai),
                "{} {}: ai={}",
                p.model,
                p.operator,
                p.ai
            );
        }
    }

    #[test]
    fn fig4_all_memory_bound() {
        let m = RooflineMachine::XEON_4210_DUAL;
        for p in fig4_points() {
            assert!(
                p.ai < m.ridge_point(),
                "{} {} not memory bound",
                p.model,
                p.operator
            );
            assert!(p.attainable_gops < m.peak_gops);
        }
    }

    #[test]
    fn fig4_has_all_twelve_points() {
        let points = fig4_points();
        assert_eq!(points.len(), 12);
        let qkv = points.iter().filter(|p| p.operator == "QKV").count();
        assert_eq!(qkv, 3);
    }

    #[test]
    fn intensity_ops_formula() {
        let k = lut_kernel_intensity(4, 8, 2, 16, 2);
        assert_eq!(k.ops, 4 * 4 * 2); // N * CB * F
        assert!(k.ai > 0.0 && k.bytes > 0.0);
    }

    #[test]
    fn ffn2_has_highest_intensity() {
        // FFN2 (input 4H, output H) has the largest CB, so its per-gather
        // index overhead amortizes best → highest AI among a model's four
        // operators.
        let points = fig4_points();
        let bert: Vec<&Fig4Point> = points.iter().filter(|p| p.model == "Bert-Base").collect();
        let ffn2 = bert.iter().find(|p| p.operator == "FFN2").unwrap();
        for p in &bert {
            assert!(ffn2.ai >= p.ai - 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "v must divide h")]
    fn intensity_rejects_bad_v() {
        let _ = lut_kernel_intensity(4, 9, 2, 16, 2);
    }
}
