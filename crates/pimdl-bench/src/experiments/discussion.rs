//! §7 Discussion ablations — the paper's two architecture implications,
//! quantified on the simulator:
//!
//! 1. **Adder-only PIM design**: LUT-NN removes all PIM-side multiplies, so
//!    a PE array built from adders alone packs ~4× the accumulate
//!    throughput into the same area/power. How much end-to-end speedup does
//!    that buy?
//! 2. **On-chip buffer management**: LUT accesses follow the centroid-index
//!    distribution, which can skew toward "hot" entries. With hot-entry
//!    caching (our fine-grain row-hit reuse generalized), how does the LUT
//!    kernel latency respond to index skew?
//!
//! Plus one design-choice ablation from §5.2: what if the **CCS operator
//! were offloaded to the PIM** instead of the host? CCS is a GEMM-shaped
//! distance kernel, and DPUs execute GEMM at a few percent of their rated
//! add throughput — quantifying why the paper keeps CCS host-side.

use serde::Serialize;

use pimdl_engine::baseline::{ccs_flops, dpu_gemm_s, link_s, HostModel};
use pimdl_engine::pipeline::{PimDlEngine, ServingConfig};
use pimdl_engine::shapes::TransformerShape;
use pimdl_sim::cost::cost_with_repeat;
use pimdl_sim::mapping::MicroKernel;
use pimdl_sim::{LoadScheme, LutWorkload, Mapping, PlatformConfig, TraversalOrder};
use pimdl_tensor::rng::DataRng;

use crate::report::TextTable;

/// Result of the adder-only ablation.
#[derive(Debug, Clone, Serialize)]
pub struct AdderOnlyResult {
    /// Model name.
    pub model: String,
    /// PIM-DL latency on stock UPMEM (s).
    pub stock_s: f64,
    /// PIM-DL latency on the adder-only variant (s).
    pub adder_only_s: f64,
    /// End-to-end speedup from the adder-only PEs.
    pub speedup: f64,
}

/// One skew point of the buffer-management analysis.
#[derive(Debug, Clone, Serialize)]
pub struct SkewPoint {
    /// Zipf exponent of the index distribution (0 = uniform).
    pub zipf_s: f64,
    /// Measured consecutive-repeat fraction of the generated index stream.
    pub repeat_fraction: f64,
    /// LUT kernel latency with hot-entry reuse (s).
    pub kernel_s: f64,
    /// Speedup vs the uniform-index stream.
    pub speedup_vs_uniform: f64,
}

/// One row of the CCS-placement ablation.
#[derive(Debug, Clone, Serialize)]
pub struct CcsPlacementRow {
    /// Model name.
    pub model: String,
    /// CCS time on the host (the paper's placement), s.
    pub host_ccs_s: f64,
    /// CCS time if executed as GEMM on the UPMEM PEs, s.
    pub pim_ccs_s: f64,
    /// Slowdown of the PIM placement.
    pub pim_slowdown: f64,
}

/// Full §7 result.
#[derive(Debug, Clone, Serialize)]
pub struct DiscussionResult {
    /// Adder-only rows (one per model).
    pub adder_only: Vec<AdderOnlyResult>,
    /// Buffer-management skew sweep.
    pub skew: Vec<SkewPoint>,
    /// CCS-placement ablation (§5.2 design choice).
    pub ccs_placement: Vec<CcsPlacementRow>,
}

/// Draws one sample from a Zipf-like distribution over `[0, n)` with
/// exponent `s` via inverse-CDF on precomputed weights.
fn zipf_sample(cdf: &[f64], rng: &mut DataRng) -> usize {
    let u = rng.uniform(0.0, 1.0) as f64;
    match cdf.binary_search_by(|p| p.partial_cmp(&u).expect("finite")) {
        Ok(i) | Err(i) => i.min(cdf.len() - 1),
    }
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Measures the consecutive-repeat fraction of a Zipf-distributed index
/// stream of shape `n x cb` over `ct` centroids.
pub fn skewed_repeat_fraction(n: usize, cb: usize, ct: usize, zipf_s: f64, seed: u64) -> f64 {
    let cdf = zipf_cdf(ct, zipf_s);
    let mut rng = DataRng::new(seed);
    let indices: Vec<u16> = (0..n * cb)
        .map(|_| zipf_sample(&cdf, &mut rng) as u16)
        .collect();
    pimdl_sim::exec::measure_repeat_fraction(&indices, n, cb)
}

/// Runs both §7 ablations.
///
/// # Errors
///
/// Propagates engine errors.
pub fn run(batch: usize, seq_len: usize) -> Result<DiscussionResult, pimdl_engine::EngineError> {
    // --- Adder-only ---
    let stock_engine = PimDlEngine::new(PlatformConfig::upmem());
    let adder_engine = PimDlEngine::new(PlatformConfig::upmem_adder_only());
    let cfg = ServingConfig {
        batch,
        seq_len,
        v: 4,
        ct: 16,
    };
    let mut adder_only = Vec::new();
    for shape in TransformerShape::evaluation_models() {
        let stock = stock_engine.serve(&shape, &cfg)?.total_s;
        let adder = adder_engine.serve(&shape, &cfg)?.total_s;
        adder_only.push(AdderOnlyResult {
            model: shape.name.clone(),
            stock_s: stock,
            adder_only_s: adder,
            speedup: stock / adder,
        });
    }

    // --- Buffer management under index skew ---
    let platform = PlatformConfig::upmem();
    let w = LutWorkload::new(4096, 64, 16, 256)?;
    let mapping = Mapping {
        n_stile: w.n / 64,
        f_stile: w.f / 16,
        kernel: MicroKernel {
            n_mtile: 8,
            f_mtile: 8,
            cb_mtile: 8,
            traversal: TraversalOrder::Nfc,
            load_scheme: LoadScheme::FineGrain {
                f_load: 8,
                threads: 16,
            },
        },
    };
    let mut skew = Vec::new();
    let mut uniform_s = 0.0;
    for (i, zipf_s) in [0.0f64, 0.5, 1.0, 1.5, 2.0].into_iter().enumerate() {
        let repeat = skewed_repeat_fraction(w.n, w.cb, w.ct, zipf_s, 42);
        let report = cost_with_repeat(&platform, &w, &mapping, repeat)?;
        let kernel_s = report.time.micro_kernel_total_s();
        if i == 0 {
            uniform_s = kernel_s;
        }
        skew.push(SkewPoint {
            zipf_s,
            repeat_fraction: repeat,
            kernel_s,
            speedup_vs_uniform: uniform_s / kernel_s,
        });
    }

    // --- CCS placement (§5.2): host vs PIM ---
    let host = HostModel::host_of(&platform);
    let mut ccs_placement = Vec::new();
    let n = batch * seq_len;
    let (v, ct) = (cfg.v, cfg.ct);
    for shape in TransformerShape::evaluation_models() {
        let mut host_s = 0.0;
        let mut pim_s = 0.0;
        for op in shape.linear_ops() {
            let workload = LutWorkload::new(n, op.in_dim / v, ct, op.out_dim)?;
            host_s += host.ccs_s(&workload, v);
            // PIM: the same distance GEMM on DPUs, which multiply in
            // software; plus activations crossing the host↔PIM link.
            pim_s += dpu_gemm_s(&platform, ccs_flops(&workload, v))
                + link_s(&platform, (n * op.in_dim * 4) as u64);
        }
        host_s *= shape.layers as f64;
        pim_s *= shape.layers as f64;
        ccs_placement.push(CcsPlacementRow {
            model: shape.name.clone(),
            host_ccs_s: host_s,
            pim_ccs_s: pim_s,
            pim_slowdown: pim_s / host_s,
        });
    }

    Ok(DiscussionResult {
        adder_only,
        skew,
        ccs_placement,
    })
}

/// Renders both ablations.
pub fn render(result: &DiscussionResult) -> String {
    let mut a = TextTable::new(vec!["Model", "Stock UPMEM", "Adder-only", "Speedup"]);
    for r in &result.adder_only {
        a.row(vec![
            r.model.clone(),
            format!("{:.2} s", r.stock_s),
            format!("{:.2} s", r.adder_only_s),
            format!("{:.2}x", r.speedup),
        ]);
    }
    let mut b = TextTable::new(vec!["Zipf s", "Repeat frac", "Kernel latency", "Speedup"]);
    for p in &result.skew {
        b.row(vec![
            format!("{:.1}", p.zipf_s),
            format!("{:.3}", p.repeat_fraction),
            format!("{:.3} ms", p.kernel_s * 1e3),
            format!("{:.2}x", p.speedup_vs_uniform),
        ]);
    }
    let mut c = TextTable::new(vec!["Model", "CCS on host", "CCS on PIM", "PIM slowdown"]);
    for r in &result.ccs_placement {
        c.row(vec![
            r.model.clone(),
            format!("{:.2} s", r.host_ccs_s),
            format!("{:.2} s", r.pim_ccs_s),
            format!("{:.2}x", r.pim_slowdown),
        ]);
    }
    format!(
        "§7-(1) — Adder-only PIM design (4x accumulate throughput, same area/power)\n\n{}\n\
         §7-(2) — On-chip buffer management under index skew (hot-entry reuse)\n\n{}\n\
         §5.2 ablation — CCS placement (why the paper keeps CCS on the host)\n\n{}",
        a.render(),
        b.render(),
        c.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_skew_increases_repeat_fraction() {
        let uniform = skewed_repeat_fraction(512, 16, 16, 0.0, 1);
        let skewed = skewed_repeat_fraction(512, 16, 16, 2.0, 1);
        assert!(
            skewed > uniform + 0.1,
            "uniform {uniform} vs skewed {skewed}"
        );
        // Uniform stream repeats ~1/CT of the time.
        assert!((uniform - 1.0 / 16.0).abs() < 0.05, "uniform={uniform}");
    }

    #[test]
    fn reduced_run_shows_both_effects() {
        let r = run(4, 32).unwrap();
        assert_eq!(r.adder_only.len(), 3);
        for row in &r.adder_only {
            assert!(
                row.speedup > 1.0,
                "{}: adder-only should help ({})",
                row.model,
                row.speedup
            );
            assert!(row.speedup < 4.0, "bounded by Amdahl: {}", row.speedup);
        }
        assert_eq!(r.skew.len(), 5);
        // More skew → more reuse → faster kernels.
        assert!(r.skew.last().unwrap().speedup_vs_uniform > 1.0);
        for w in r.skew.windows(2) {
            assert!(w[1].repeat_fraction >= w[0].repeat_fraction - 0.02);
        }
        // CCS on the PIM must be slower than on the host — the §5.2 choice.
        assert_eq!(r.ccs_placement.len(), 3);
        for row in &r.ccs_placement {
            assert!(
                row.pim_slowdown > 1.0,
                "{}: PIM CCS should lose ({})",
                row.model,
                row.pim_slowdown
            );
        }
    }

    #[test]
    fn placement_study_prices_the_host_ccs_that_serve_charges() {
        // The study sums a model's per-layer CCS and multiplies by the
        // layer count once; `serve` charges each operator all its layers.
        // The same host work, summed in another order.
        let (batch, seq_len) = (4, 32);
        let shape = TransformerShape::bert_base();
        let row = run(batch, seq_len)
            .unwrap()
            .ccs_placement
            .into_iter()
            .find(|row| row.model == shape.name)
            .unwrap();
        let cfg = ServingConfig::new(batch, seq_len, 4, 16).unwrap();
        let served = PimDlEngine::new(PlatformConfig::upmem())
            .serve(&shape, &cfg)
            .unwrap();
        let charged: f64 = served.per_linear.iter().map(|op| op.ccs_s).sum();
        let rel = (row.host_ccs_s - charged).abs() / charged;
        assert!(
            rel <= 1e-12,
            "study {} vs serve {charged} (relative error {rel})",
            row.host_ccs_s
        );
    }

    #[test]
    fn render_has_both_sections() {
        let r = run(2, 16).unwrap();
        let s = render(&r);
        assert!(s.contains("Adder-only"));
        assert!(s.contains("buffer management"));
    }
}
