//! The PIM-DL serving pipeline: operator partitioning, per-workload
//! auto-tuning, and end-to-end latency/energy estimation.
//!
//! Operator placement follows §5.2 and Fig. 6-(b): the **LUT** operator of
//! every linear layer runs on the PIM modules; the **CCS** operator (a
//! GEMM-shaped distance computation), attention, and the element-wise /
//! normalization operators run on the platform's host.

use std::collections::HashMap;
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use pimdl_sim::cost::estimate_cost;
use pimdl_sim::energy::EnergyReport;
use pimdl_sim::{LutWorkload, Mapping, PlatformConfig};
use pimdl_tuner::tune;

use crate::baseline::HostModel;
use crate::residency::{plan, OperatorFootprint, ResidencyPlan};
use crate::shapes::TransformerShape;
use crate::{EngineError, Result};

/// Longest `seq_len` a [`ServingConfig`] accepts. The evaluation models run
/// 512 tokens; at this cap and a batch of
/// [`MAX_BATCH`](crate::scheduler::MAX_BATCH) every count the host model
/// multiplies out (attention scores `batch·heads·seq²`, attention FLOPs)
/// stays far inside 64 bits.
pub const MAX_SEQ_LEN: usize = 1 << 16;

/// Serving-time configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Batch size.
    pub batch: usize,
    /// Sequence length (tokens per sequence / patches per image), at most
    /// [`MAX_SEQ_LEN`].
    pub seq_len: usize,
    /// LUT-NN sub-vector length `V`.
    pub v: usize,
    /// LUT-NN centroid count `CT`.
    pub ct: usize,
}

impl ServingConfig {
    /// The paper's default throughput setting: batch 64, seq 512, V = 4,
    /// CT = 16 (§6.3).
    pub fn paper_default() -> Self {
        ServingConfig {
            batch: 64,
            seq_len: 512,
            v: 4,
            ct: 16,
        }
    }

    /// Creates a validated serving configuration.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if any field is zero — degenerate
    /// configs would otherwise surface as divisions by zero or empty
    /// workloads deep inside the cost model — or `seq_len` exceeds
    /// [`MAX_SEQ_LEN`].
    pub fn new(batch: usize, seq_len: usize, v: usize, ct: usize) -> Result<Self> {
        let cfg = ServingConfig {
            batch,
            seq_len,
            v,
            ct,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the configuration for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if any field is zero or `seq_len`
    /// exceeds [`MAX_SEQ_LEN`].
    pub fn validate(&self) -> Result<()> {
        if self.batch == 0 || self.seq_len == 0 || self.v == 0 || self.ct == 0 {
            return Err(EngineError::Config {
                detail: format!("zero field in serving config {self:?}"),
            });
        }
        if self.seq_len > MAX_SEQ_LEN {
            return Err(EngineError::Config {
                detail: format!(
                    "serving config seq_len must be <= {MAX_SEQ_LEN}, got {}",
                    self.seq_len
                ),
            });
        }
        Ok(())
    }
}

/// Cost of one converted linear operator (aggregated over all layers).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearCost {
    /// Operator name (QKV / O / FFN1 / FFN2).
    pub name: String,
    /// LUT workload shape.
    pub workload: LutWorkload,
    /// Tuned mapping.
    pub mapping: Mapping,
    /// PIM LUT-operator time across all layers (s).
    pub lut_s: f64,
    /// Host CCS time across all layers (s).
    pub ccs_s: f64,
    /// Host↔PIM bytes across all layers.
    pub host_pim_bytes: u64,
}

/// End-to-end PIM-DL inference report (the Fig. 10/11 quantities).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceReport {
    /// Total latency (s).
    pub total_s: f64,
    /// PIM LUT-operator latency (s).
    pub lut_s: f64,
    /// Host CCS latency (s).
    pub ccs_s: f64,
    /// Host attention latency (s).
    pub attention_s: f64,
    /// Other host operators (element-wise, norms) latency (s).
    pub other_s: f64,
    /// Per-linear-operator costs.
    pub per_linear: Vec<LinearCost>,
    /// LUT residency plan (which operators' LUTs stay in PIM local memory
    /// and the staging penalty of those that do not fit).
    pub residency: ResidencyPlan,
    /// Energy consumed.
    pub energy: EnergyReport,
}

impl InferenceReport {
    /// Throughput in sequences per second for the given batch.
    pub fn throughput(&self, batch: usize) -> f64 {
        if self.total_s <= 0.0 {
            0.0
        } else {
            batch as f64 / self.total_s
        }
    }
}

/// The PIM-DL serving engine for one platform.
#[derive(Debug)]
pub struct PimDlEngine {
    platform: PlatformConfig,
    host: HostModel,
    mapping_cache: Mutex<HashMap<LutWorkload, Mapping>>,
}

impl PimDlEngine {
    /// Creates an engine for a platform with its default host.
    pub fn new(platform: PlatformConfig) -> Self {
        let host = HostModel::host_of(&platform);
        PimDlEngine {
            platform,
            host,
            mapping_cache: Mutex::new(HashMap::new()),
        }
    }

    /// The platform this engine serves on.
    pub fn platform(&self) -> &PlatformConfig {
        &self.platform
    }

    /// The host model running CCS/attention/element-wise operators.
    pub fn host(&self) -> &HostModel {
        &self.host
    }

    /// Returns the tuned mapping for a LUT workload (cached per shape —
    /// "each model need to be tuned only once", §5.3).
    ///
    /// # Errors
    ///
    /// Propagates tuner failures.
    pub fn mapping_for(&self, workload: &LutWorkload) -> Result<Mapping> {
        if let Some(m) = self
            .mapping_cache
            .lock()
            .expect("cache poisoned")
            .get(workload)
        {
            return Ok(*m);
        }
        let result = tune(&self.platform, workload)?;
        self.mapping_cache
            .lock()
            .expect("cache poisoned")
            .insert(*workload, result.mapping);
        Ok(result.mapping)
    }

    /// Estimates end-to-end PIM-DL inference for a model shape.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] if `V` does not divide every linear
    /// input dim, or tuning/simulation errors.
    pub fn serve(&self, shape: &TransformerShape, cfg: &ServingConfig) -> Result<InferenceReport> {
        cfg.validate()?;
        self.estimate(shape, cfg.batch, cfg.seq_len, |_| (cfg.v, cfg.ct, None))
    }

    /// The per-operator cost path under [`PimDlEngine::serve`] and
    /// [`PimDlEngine::serve_per_layer`], which validate their own
    /// configurations first. `setting_of(i)` gives the `i`-th linear
    /// operator's `(V, CT)` and optionally a pinned mapping; a pin is used
    /// verbatim when it is legal for the operator's workload, and the
    /// operator is tuned otherwise.
    pub(crate) fn estimate(
        &self,
        shape: &TransformerShape,
        batch: usize,
        seq_len: usize,
        setting_of: impl Fn(usize) -> (usize, usize, Option<Mapping>),
    ) -> Result<InferenceReport> {
        let n = batch * seq_len;
        let layers = shape.layers as f64;

        let mut per_linear = Vec::new();
        let mut footprints = Vec::new();
        let mut lut_s = 0.0;
        let mut ccs_s = 0.0;
        let mut host_pim_bytes = 0u64;
        for (i, op) in shape.linear_ops().iter().enumerate() {
            let (v, ct, pin) = setting_of(i);
            if op.in_dim % v != 0 {
                return Err(EngineError::Config {
                    detail: format!(
                        "V = {v} does not divide {}'s input dim {}",
                        op.name, op.in_dim
                    ),
                });
            }
            let workload = LutWorkload::new(n, op.in_dim / v, ct, op.out_dim)?;
            // Pins hold only at the batch geometry they were allocated
            // for (Eq. 5 ties the PE partition to N); a re-batched serve
            // falls back to the engine's own tuner.
            let mapping = match pin {
                Some(m) if m.validate(&workload, &self.platform).is_ok() => m,
                _ => self.mapping_for(&workload)?,
            };
            let report = estimate_cost(&self.platform, &workload, &mapping)?;
            // Serving keeps the LUTs resident in PIM memory (distributed
            // once at model load, exactly like the GEMM baseline's
            // weights), so per-inference latency excludes the LUT staging
            // transfer.
            let op_lut_s = report.time.total_resident_s() * layers;

            // CCS on the host: 3·N·H·CT ops (§3.3), streaming the f32
            // activations and writing one index byte per sub-vector. The
            // argmin-shaped kernel sustains only CCS_EFFICIENCY of the
            // host's dense-GEMM throughput.
            let ccs_flops =
                ((3 * n * op.in_dim * ct) as f64 / crate::baseline::CCS_EFFICIENCY) as u64;
            let ccs_bytes = (n * op.in_dim * 4) as u64 + workload.index_bytes();
            let op_ccs_s = self.host.gemm_time_s(ccs_flops, ccs_bytes) * layers;

            lut_s += op_lut_s;
            ccs_s += op_ccs_s;
            let op_bytes = (report.host_pim_bytes - report.lut_stage_bytes) * shape.layers as u64;
            host_pim_bytes += op_bytes;
            per_linear.push(LinearCost {
                name: op.name.to_string(),
                workload,
                mapping,
                lut_s: op_lut_s,
                ccs_s: op_ccs_s,
                host_pim_bytes: op_bytes,
            });
            footprints.push((op.name, workload, mapping, report));
        }

        // Residency: operators whose LUT tiles do not fit the per-PE local
        // memory must re-stage their tables every inference.
        let footprint_refs: Vec<OperatorFootprint<'_>> = footprints
            .iter()
            .map(|(name, workload, mapping, report)| OperatorFootprint {
                name,
                workload: *workload,
                mapping: *mapping,
                report: *report,
                layers: shape.layers,
            })
            .collect();
        let residency = plan(&self.platform, &footprint_refs);
        lut_s += residency.staging_penalty_s;
        for (entry, (_, _, _, report)) in residency.entries.iter().zip(&footprints) {
            if !entry.resident {
                host_pim_bytes += report.lut_stage_bytes * shape.layers as u64;
            }
        }

        let attn_flops = shape.attention_flops_per_layer(batch, seq_len);
        let attn_bytes = (3 * n * shape.hidden) as u64 * 4
            + (batch * shape.heads * seq_len * seq_len) as u64 * 4;
        let attention_s = self.host.gemm_time_s(attn_flops, attn_bytes) * layers;
        let other_s = self
            .host
            .elementwise_time_s(shape.elementwise_bytes_per_layer(batch, seq_len))
            * layers;

        let total_s = lut_s + ccs_s + attention_s + other_s;
        let energy = EnergyReport::from_window(
            total_s,
            self.platform.pim_power_w,
            self.host.power_w,
            host_pim_bytes as f64,
            self.platform.transfer_energy_pj_per_byte,
        );
        Ok(InferenceReport {
            total_s,
            lut_s,
            ccs_s,
            attention_s,
            other_s,
            per_linear,
            residency,
            energy,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{host_inference, pim_gemm_inference};

    fn small_platform() -> PlatformConfig {
        let mut p = PlatformConfig::upmem();
        p.num_pes = 64;
        p
    }

    fn tiny_cfg() -> ServingConfig {
        ServingConfig {
            batch: 4,
            seq_len: 32,
            v: 4,
            ct: 16,
        }
    }

    #[test]
    fn serve_produces_consistent_breakdown() {
        let engine = PimDlEngine::new(small_platform());
        let report = engine
            .serve(&TransformerShape::tiny(), &tiny_cfg())
            .unwrap();
        let sum = report.lut_s + report.ccs_s + report.attention_s + report.other_s;
        assert!((report.total_s - sum).abs() < 1e-12);
        assert_eq!(report.per_linear.len(), 4);
        assert!(report.lut_s > 0.0 && report.ccs_s > 0.0);
        assert!(report.energy.total_j() > 0.0);
        assert!(report.throughput(4) > 0.0);
    }

    #[test]
    fn serve_rejects_bad_config() {
        let engine = PimDlEngine::new(small_platform());
        let shape = TransformerShape::tiny();
        let mut cfg = tiny_cfg();
        cfg.v = 0;
        assert!(engine.serve(&shape, &cfg).is_err());
        // V = 5 does not divide hidden 64.
        let mut cfg = tiny_cfg();
        cfg.v = 5;
        assert!(matches!(
            engine.serve(&shape, &cfg),
            Err(EngineError::Config { .. })
        ));
    }

    #[test]
    fn mapping_cache_reuses_tunes() {
        let engine = PimDlEngine::new(small_platform());
        let w = LutWorkload::new(128, 16, 16, 192).unwrap();
        let m1 = engine.mapping_for(&w).unwrap();
        let m2 = engine.mapping_for(&w).unwrap();
        assert_eq!(m1, m2);
        assert_eq!(engine.mapping_cache.lock().unwrap().len(), 1);
    }

    #[test]
    fn lutnn_dominates_latency_like_fig11a() {
        // Fig. 11-(a): LUT-NN inference (CCS + LUT) is ~74–79 % of total.
        let engine = PimDlEngine::new(PlatformConfig::upmem());
        let cfg = ServingConfig {
            batch: 16,
            seq_len: 128,
            v: 4,
            ct: 16,
        };
        let report = engine.serve(&TransformerShape::bert_base(), &cfg).unwrap();
        let frac = (report.lut_s + report.ccs_s) / report.total_s;
        assert!((0.5..1.0).contains(&frac), "LUT-NN fraction {frac}");
    }

    #[test]
    fn pimdl_beats_gemm_on_pim_by_an_order_of_magnitude() {
        // The headline claim (Fig. 10): vs GEMM-based inference on the same
        // PIM hardware, PIM-DL wins by >10×.
        let engine = PimDlEngine::new(PlatformConfig::upmem());
        let shape = TransformerShape::bert_base();
        let cfg = ServingConfig {
            batch: 64,
            seq_len: 512,
            v: 4,
            ct: 16,
        };
        let pimdl = engine.serve(&shape, &cfg).unwrap();
        let gemm = pim_gemm_inference(engine.platform(), &shape, 64, 512);
        let speedup = gemm.total_s() / pimdl.total_s;
        assert!(speedup > 8.0, "speedup over GEMM-on-PIM = {speedup}");
    }

    #[test]
    fn pimdl_beats_cpu_at_large_batch_loses_at_tiny_batch() {
        // Fig. 10 + Fig. 12-(c): PIM-DL outpaces the CPU server at batch 64
        // but loses at very small batches (host↔PIM bandwidth dominates).
        let engine = PimDlEngine::new(PlatformConfig::upmem());
        let shape = TransformerShape::bert_base();

        let big = engine
            .serve(
                &shape,
                &ServingConfig {
                    batch: 64,
                    seq_len: 512,
                    v: 4,
                    ct: 16,
                },
            )
            .unwrap();
        let cpu_big = host_inference(&HostModel::cpu_int8(), &shape, 64, 512, 1);
        let speedup_big = cpu_big.total_s() / big.total_s;
        assert!(speedup_big > 1.0, "batch-64 speedup {speedup_big}");

        let small = engine
            .serve(
                &shape,
                &ServingConfig {
                    batch: 1,
                    seq_len: 128,
                    v: 4,
                    ct: 16,
                },
            )
            .unwrap();
        let cpu_small = host_inference(&HostModel::cpu_int8(), &shape, 1, 128, 1);
        let speedup_small = cpu_small.total_s() / small.total_s;
        assert!(
            speedup_small < speedup_big,
            "small-batch speedup {speedup_small} should trail {speedup_big}"
        );
    }

    #[test]
    fn larger_v_is_faster() {
        // Fig. 12-(a): larger sub-vector length shrinks CB and the LUTs.
        let engine = PimDlEngine::new(PlatformConfig::upmem());
        let shape = TransformerShape::bert_base();
        let t = |v: usize| {
            engine
                .serve(
                    &shape,
                    &ServingConfig {
                        batch: 16,
                        seq_len: 128,
                        v,
                        ct: 16,
                    },
                )
                .unwrap()
                .total_s
        };
        assert!(t(8) < t(2), "V=8 {} should beat V=2 {}", t(8), t(2));
    }

    #[test]
    fn fewer_centroids_is_not_slower() {
        // Fig. 12-(b): smaller CT shrinks LUT footprints.
        let engine = PimDlEngine::new(PlatformConfig::upmem());
        let shape = TransformerShape::bert_base();
        let t = |ct: usize| {
            engine
                .serve(
                    &shape,
                    &ServingConfig {
                        batch: 16,
                        seq_len: 128,
                        v: 4,
                        ct,
                    },
                )
                .unwrap()
                .total_s
        };
        assert!(t(8) <= t(64) * 1.01, "CT=8 {} vs CT=64 {}", t(8), t(64));
    }

    #[test]
    fn tight_mram_adds_staging_penalty() {
        let shape = TransformerShape::tiny();
        let cfg = tiny_cfg();
        let roomy = PimDlEngine::new(small_platform());
        let fit = roomy.serve(&shape, &cfg).unwrap();
        assert!(fit.residency.fully_resident());

        let mut p = small_platform();
        p.mram_bytes = 256; // far below any LUT tile
        let cramped = PimDlEngine::new(p);
        let staged = cramped.serve(&shape, &cfg).unwrap();
        assert!(!staged.residency.fully_resident());
        assert!(staged.residency.staging_penalty_s > 0.0);
        assert!(
            staged.total_s > fit.total_s,
            "staged {} should exceed resident {}",
            staged.total_s,
            fit.total_s
        );
    }

    #[test]
    fn paper_default_config() {
        let cfg = ServingConfig::paper_default();
        assert_eq!((cfg.batch, cfg.seq_len, cfg.v, cfg.ct), (64, 512, 4, 16));
    }
}
