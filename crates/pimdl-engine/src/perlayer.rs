//! Per-layer `(V, CT)` serving configurations (DESIGN.md §12.3).
//!
//! [`crate::pipeline::ServingConfig`] quantizes every linear operator with
//! one global `(V, CT)`. The per-layer capacity allocator
//! (`pimdl_tuner::alloc`) instead emits one setting — and optionally a
//! pinned mapping — per operator; [`PerLayerServingConfig`] carries that
//! plan into the engine. Configs are serde types (they load from JSON) and
//! are validated against the model shape and platform before serving: an
//! unsupported `V`, a `V` not dividing its operator's input width, or a
//! summed LUT footprint overflowing the capacity budget are all rejected
//! up front rather than surfacing as nonsense deep in the cost model.

use serde::{Deserialize, Serialize};

use pimdl_sim::{LutWorkload, Mapping, PlatformConfig};
use pimdl_tuner::alloc::{AllocPlan, SUPPORTED_V};
use pimdl_tuner::space::sub_lut_candidates;

use crate::pipeline::{InferenceReport, PimDlEngine, ServingConfig};
use crate::shapes::TransformerShape;
use crate::{EngineError, Result};

/// Quantization setting of one linear operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpLutConfig {
    /// Operator name; must match the shape's linear op (QKV / O / FFN1 /
    /// FFN2) at the same position.
    pub op: String,
    /// Sub-vector length `V` for this operator.
    pub v: usize,
    /// Centroid count `CT` for this operator.
    pub ct: usize,
    /// Optional pinned mapping (from the capacity allocator). When absent
    /// the engine tunes the operator's workload itself.
    #[serde(default)]
    pub mapping: Option<Mapping>,
}

/// A heterogeneous serving configuration: batch geometry plus one
/// [`OpLutConfig`] per linear operator of the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerLayerServingConfig {
    /// Batch size.
    pub batch: usize,
    /// Sequence length.
    pub seq_len: usize,
    /// Per-PE LUT capacity budget in bytes across all layers; `None`
    /// means the platform's full local-memory capacity.
    #[serde(default)]
    pub budget_bytes: Option<usize>,
    /// Per-operator settings, in [`TransformerShape::linear_ops`] order.
    pub ops: Vec<OpLutConfig>,
}

impl PerLayerServingConfig {
    /// Lifts a uniform [`ServingConfig`] into the per-layer form (every
    /// operator gets the same `(V, CT)`, no pinned mappings).
    pub fn uniform(cfg: &ServingConfig, shape: &TransformerShape) -> Self {
        PerLayerServingConfig {
            batch: cfg.batch,
            seq_len: cfg.seq_len,
            budget_bytes: None,
            ops: shape
                .linear_ops()
                .iter()
                .map(|op| OpLutConfig {
                    op: op.name.to_string(),
                    v: cfg.v,
                    ct: cfg.ct,
                    mapping: None,
                })
                .collect(),
        }
    }

    /// Builds a per-layer config from a capacity-allocation plan, pinning
    /// each operator's allocated mapping.
    pub fn from_alloc_plan(
        batch: usize,
        seq_len: usize,
        budget_bytes: usize,
        plan: &AllocPlan,
    ) -> Self {
        PerLayerServingConfig {
            batch,
            seq_len,
            budget_bytes: Some(budget_bytes),
            ops: plan
                .choices
                .iter()
                .map(|c| OpLutConfig {
                    op: c.name.clone(),
                    v: c.v,
                    ct: c.ct,
                    mapping: Some(c.mapping),
                })
                .collect(),
        }
    }

    /// Validates the config against a model shape and platform: batch
    /// geometry, operator list, `V ∈ {1, 2, 4, 8, 16}` dividing each input
    /// width, `CT ≥ 2`, and the capacity budget (the summed minimal per-PE
    /// LUT footprint across all layers must fit `budget_bytes`, default
    /// the platform's local memory). A pinned mapping legal at this batch
    /// geometry is charged its exact replication; an illegal one is
    /// ignored (the engine re-tunes when serving).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] naming the first violated rule.
    pub fn validate(&self, shape: &TransformerShape, platform: &PlatformConfig) -> Result<()> {
        if self.batch == 0 || self.seq_len == 0 {
            return Err(EngineError::Config {
                detail: format!(
                    "zero batch geometry (batch {}, seq_len {})",
                    self.batch, self.seq_len
                ),
            });
        }
        let linear_ops = shape.linear_ops();
        if self.ops.len() != linear_ops.len() {
            return Err(EngineError::Config {
                detail: format!(
                    "expected {} per-operator settings, got {}",
                    linear_ops.len(),
                    self.ops.len()
                ),
            });
        }
        let n = self.batch * self.seq_len;
        let budget = self.budget_bytes.unwrap_or(platform.mram_bytes) as u64;
        let mut min_footprint = 0u64;
        for (op, oc) in linear_ops.iter().zip(&self.ops) {
            if oc.op != op.name {
                return Err(EngineError::Config {
                    detail: format!("operator {} configured where {} expected", oc.op, op.name),
                });
            }
            if !SUPPORTED_V.contains(&oc.v) {
                return Err(EngineError::Config {
                    detail: format!(
                        "{}: V = {} not in the supported set {SUPPORTED_V:?}",
                        op.name, oc.v
                    ),
                });
            }
            if op.in_dim % oc.v != 0 {
                return Err(EngineError::Config {
                    detail: format!(
                        "{}: V = {} does not divide input dim {}",
                        op.name, oc.v, op.in_dim
                    ),
                });
            }
            if oc.ct < 2 {
                return Err(EngineError::Config {
                    detail: format!("{}: CT = {} must be at least 2", op.name, oc.ct),
                });
            }
            let workload = LutWorkload::new(n, op.in_dim / oc.v, oc.ct, op.out_dim)?;
            let f_stile = match &oc.mapping {
                // A pin legal at this batch geometry will be served
                // verbatim: charge its exact replication.
                Some(m) if m.validate(&workload, platform).is_ok() => m.f_stile,
                // Otherwise the engine tunes the mapping (a pin minted for
                // a different batch size is dropped, not an error): charge
                // the leanest legal replication so the budget check is a
                // true floor.
                _ => sub_lut_candidates(&workload, platform)
                    .iter()
                    .map(|&(_, f_s)| f_s)
                    .min()
                    .ok_or_else(|| EngineError::Config {
                        detail: format!(
                            "{}: no legal PE partition for ({n}, {}, {}, {}) on {} PEs",
                            op.name, workload.cb, workload.ct, workload.f, platform.num_pes
                        ),
                    })?,
            };
            min_footprint += (workload.cb * workload.ct * f_stile) as u64 * shape.layers as u64;
        }
        if min_footprint > budget {
            return Err(EngineError::Config {
                detail: format!(
                    "capacity budget overflow: minimal per-PE LUT footprint {min_footprint} B \
                     across {} layers exceeds budget {budget} B",
                    shape.layers
                ),
            });
        }
        Ok(())
    }
}

impl PimDlEngine {
    /// Estimates end-to-end inference under a heterogeneous per-layer
    /// configuration — the per-layer counterpart of
    /// [`PimDlEngine::serve`]. Pinned mappings are used verbatim;
    /// operators without one are tuned as usual.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] for configs rejected by
    /// [`PerLayerServingConfig::validate`], or tuning/simulation errors.
    pub fn serve_per_layer(
        &self,
        shape: &TransformerShape,
        cfg: &PerLayerServingConfig,
    ) -> Result<InferenceReport> {
        cfg.validate(shape, self.platform())?;
        self.estimate(shape, cfg.batch, cfg.seq_len, |i| {
            let oc = &cfg.ops[i];
            (oc.v, oc.ct, oc.mapping)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_platform() -> PlatformConfig {
        let mut p = PlatformConfig::upmem();
        p.num_pes = 64;
        p
    }

    fn uniform_cfg(shape: &TransformerShape) -> PerLayerServingConfig {
        PerLayerServingConfig::uniform(
            &ServingConfig {
                batch: 4,
                seq_len: 32,
                v: 4,
                ct: 16,
            },
            shape,
        )
    }

    #[test]
    fn uniform_per_layer_matches_uniform_serve() {
        let engine = PimDlEngine::new(small_platform());
        let shape = TransformerShape::tiny();
        let uniform = engine
            .serve(
                &shape,
                &ServingConfig {
                    batch: 4,
                    seq_len: 32,
                    v: 4,
                    ct: 16,
                },
            )
            .unwrap();
        let per_layer = engine
            .serve_per_layer(&shape, &uniform_cfg(&shape))
            .unwrap();
        assert!((uniform.total_s - per_layer.total_s).abs() < 1e-15);
        assert_eq!(uniform.per_linear.len(), per_layer.per_linear.len());
    }

    #[test]
    fn heterogeneous_config_serves() {
        let engine = PimDlEngine::new(small_platform());
        let shape = TransformerShape::tiny(); // hidden 64, ffn 256
        let mut cfg = uniform_cfg(&shape);
        cfg.ops[3].v = 8; // FFN2 reads 256 → cb 32
        cfg.ops[3].ct = 8;
        let report = engine.serve_per_layer(&shape, &cfg).unwrap();
        assert!(report.total_s > 0.0);
        assert_eq!(report.per_linear[3].workload.cb, 32);
        assert_eq!(report.per_linear[3].workload.ct, 8);
    }

    #[test]
    fn rejects_unsupported_v() {
        let engine = PimDlEngine::new(small_platform());
        let shape = TransformerShape::tiny();
        let mut cfg = uniform_cfg(&shape);
        cfg.ops[1].v = 3; // not in {1, 2, 4, 8, 16}
        let err = engine.serve_per_layer(&shape, &cfg).unwrap_err();
        assert!(
            err.to_string().contains("not in the supported set"),
            "{err}"
        );
    }

    #[test]
    fn rejects_v_not_dividing_input() {
        let engine = PimDlEngine::new(small_platform());
        let shape = TransformerShape::tiny(); // hidden 64
        let mut cfg = uniform_cfg(&shape);
        // V = 16 is supported, but does not divide a hidden dim of 24.
        let odd = TransformerShape::with_hidden(24, 2);
        cfg.ops[0].v = 16;
        let err = engine.serve_per_layer(&odd, &cfg).unwrap_err();
        assert!(err.to_string().contains("does not divide"), "{err}");
    }

    #[test]
    fn rejects_capacity_budget_overflow() {
        let engine = PimDlEngine::new(small_platform());
        let shape = TransformerShape::tiny();
        let mut cfg = uniform_cfg(&shape);
        cfg.budget_bytes = Some(64); // far below any LUT footprint
        let err = engine.serve_per_layer(&shape, &cfg).unwrap_err();
        assert!(
            err.to_string().contains("capacity budget overflow"),
            "{err}"
        );
    }

    #[test]
    fn rejects_tiny_ct_and_zero_geometry() {
        let engine = PimDlEngine::new(small_platform());
        let shape = TransformerShape::tiny();
        let mut cfg = uniform_cfg(&shape);
        cfg.ops[2].ct = 1;
        let err = engine.serve_per_layer(&shape, &cfg).unwrap_err();
        assert!(err.to_string().contains("must be at least 2"), "{err}");

        let mut cfg = uniform_cfg(&shape);
        cfg.batch = 0;
        assert!(engine.serve_per_layer(&shape, &cfg).is_err());
    }

    #[test]
    fn rejects_wrong_operator_list() {
        let engine = PimDlEngine::new(small_platform());
        let shape = TransformerShape::tiny();
        let mut cfg = uniform_cfg(&shape);
        cfg.ops.pop();
        assert!(engine.serve_per_layer(&shape, &cfg).is_err());

        let mut cfg = uniform_cfg(&shape);
        cfg.ops.swap(0, 1);
        let err = engine.serve_per_layer(&shape, &cfg).unwrap_err();
        assert!(err.to_string().contains("configured where"), "{err}");
    }

    #[test]
    fn json_round_trip_and_rejections() {
        let shape = TransformerShape::tiny();
        let platform = small_platform();
        let cfg = uniform_cfg(&shape);
        let json = serde_json::to_string(&cfg).unwrap();
        let parsed: PerLayerServingConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, cfg);
        parsed.validate(&shape, &platform).unwrap();

        // A JSON config with V outside the supported set parses but fails
        // validation.
        let mut bad = cfg.clone();
        bad.ops[0].v = 5;
        let bad_json = serde_json::to_string(&bad).unwrap();
        let parsed: PerLayerServingConfig = serde_json::from_str(&bad_json).unwrap();
        assert!(parsed.validate(&shape, &platform).is_err());
    }

    #[test]
    fn pinned_mapping_is_validated_and_used() {
        let engine = PimDlEngine::new(small_platform());
        let shape = TransformerShape::tiny();
        let mut cfg = uniform_cfg(&shape);
        let n = cfg.batch * cfg.seq_len;
        let op = shape.linear_ops()[0];
        let w = LutWorkload::new(n, op.in_dim / cfg.ops[0].v, cfg.ops[0].ct, op.out_dim).unwrap();
        let tuned = pimdl_tuner::tune(engine.platform(), &w).unwrap().mapping;
        cfg.ops[0].mapping = Some(tuned);
        let report = engine.serve_per_layer(&shape, &cfg).unwrap();
        assert_eq!(report.per_linear[0].mapping, tuned);

        // An illegal pin (wrong PE partition) is dropped — the engine tunes
        // its own mapping instead of serving a mapping that violates Eq. 5.
        let mut broken = tuned;
        broken.n_stile += 1;
        cfg.ops[0].mapping = Some(broken);
        let report = engine.serve_per_layer(&shape, &cfg).unwrap();
        assert_ne!(report.per_linear[0].mapping, broken);
        broken
            .validate(&w, engine.platform())
            .expect_err("broken pin must be illegal");
    }
}
