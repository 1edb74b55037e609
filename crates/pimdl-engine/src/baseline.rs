//! Baseline cost models: the comparison systems of §6.
//!
//! * CPU serving (GGML FP32 / INT8-AVX2 on dual Xeon Gold 5218),
//! * GPU serving (PyTorch FP32 on a V100),
//! * GEMM-based inference offloaded to the DRAM-PIM platforms themselves
//!   (the "PIM" bars of Fig. 10 and the baselines of Fig. 14).
//!
//! All baselines are roofline-style models with *effective* (not peak)
//! throughputs. Effective constants are calibrated against anchor points the
//! paper reports — each constant's doc comment names its anchor. Absolute
//! times are therefore approximate; the reproduced quantities are the
//! *ratios* (speedups, crossovers).

use serde::{Deserialize, Serialize};

use pimdl_sim::config::PlatformKind;
use pimdl_sim::{LutWorkload, PlatformConfig};

use crate::shapes::{LinearOp, TransformerShape};

/// A host processor cost model (CPU or GPU).
///
/// Every host-side term of the repo is one method here, priced per layer;
/// each caller multiplies by the layer count where it sums:
/// [`HostModel::linear_s`] (the dense baselines and Fig. 11-(b)'s CPU
/// column), [`HostModel::ccs_s`] (`PimDlEngine::serve` and the §5.2
/// placement study), [`HostModel::attention_s`] and
/// [`HostModel::elementwise_s`] (`serve` and both baselines).
#[derive(Debug, Clone, PartialEq)]
pub struct HostModel {
    /// Display name.
    pub name: &'static str,
    /// Effective GEMM throughput (GOP/s) for this datatype/stack.
    pub effective_gemm_gops: f64,
    /// Sustained memory bandwidth (GB/s).
    pub mem_bw_gbps: f64,
    /// Per-operator launch/dispatch overhead (seconds). Dominates
    /// small-batch GPU serving (eager-mode PyTorch).
    pub op_overhead_s: f64,
    /// Average power while serving (W).
    pub power_w: f64,
}

impl HostModel {
    /// Dual Xeon Gold 5218, GGML FP32 with AVX intrinsics.
    ///
    /// Anchor: paper Fig. 10 — PIM-DL (V=4/CT=16) is 3.07× faster than this
    /// baseline (geomean) and 1.71× faster than the INT8 variant (an
    /// INT8/FP32 throughput ratio of ≈ 1.8). Combined with the implied
    /// ~20 s PIM-DL latency for BERT-base at batch 64 × seq 512, that puts
    /// sustained GGML throughput well below MKL-class GEMM — consistent
    /// with GGML's AVX2 (no AVX-512/VNNI) kernels.
    pub fn cpu_fp32() -> Self {
        HostModel {
            name: "CPU FP32 (2×Gold 5218, GGML)",
            effective_gemm_gops: 105.0,
            mem_bw_gbps: 220.0,
            op_overhead_s: 5e-6,
            power_w: 380.0,
        }
    }

    /// Dual Xeon Gold 5218, GGML INT8 with AVX/AVX2 intrinsics.
    pub fn cpu_int8() -> Self {
        HostModel {
            name: "CPU INT8 (2×Gold 5218, GGML)",
            effective_gemm_gops: 185.0,
            mem_bw_gbps: 220.0,
            op_overhead_s: 5e-6,
            power_w: 380.0,
        }
    }

    /// Dual Xeon 4210 — the UPMEM platform's host, running CCS/attention.
    ///
    /// Anchored alongside [`HostModel::cpu_int8`] (same GGML stack on a
    /// smaller part).
    pub fn cpu_xeon_4210() -> Self {
        HostModel {
            name: "Host CPU (2×Xeon 4210)",
            effective_gemm_gops: 150.0,
            mem_bw_gbps: 107.0,
            op_overhead_s: 5e-6,
            power_w: 170.0,
        }
    }

    /// NVIDIA V100, PyTorch FP32.
    ///
    /// Anchor: §6.7 — AiM-based PIM-DL reaches up to 1.20× of this
    /// baseline; HBM-PIM-based PIM-DL reaches 39 % (geomean) of it at
    /// seq 128, batch 1–8.
    pub fn gpu_v100_fp32() -> Self {
        HostModel {
            name: "GPU FP32 (V100, PyTorch)",
            effective_gemm_gops: 12_000.0,
            mem_bw_gbps: 900.0,
            op_overhead_s: 12e-6,
            power_w: 300.0,
        }
    }

    /// NVIDIA A2 — host of the simulated HBM-PIM/AiM platforms.
    pub fn gpu_a2() -> Self {
        HostModel {
            name: "Host GPU (A2)",
            effective_gemm_gops: 4_000.0,
            mem_bw_gbps: 200.0,
            op_overhead_s: 10e-6,
            power_w: 60.0,
        }
    }

    /// The host model attached to a DRAM-PIM platform (runs CCS, attention
    /// and the non-offloaded operators).
    pub fn host_of(platform: &PlatformConfig) -> Self {
        match platform.kind {
            PlatformKind::Upmem => Self::cpu_xeon_4210(),
            PlatformKind::HbmPim | PlatformKind::Aim => Self::gpu_a2(),
        }
    }

    /// Roofline GEMM time: `max(flops / gops, bytes / bw)` plus one
    /// dispatch overhead.
    fn gemm_time_s(&self, flops: u64, bytes: u64) -> f64 {
        let compute = flops as f64 / (self.effective_gemm_gops * 1e9);
        let memory = bytes as f64 / (self.mem_bw_gbps * 1e9);
        self.op_overhead_s + compute.max(memory)
    }

    /// One dense linear operator on `n` activation rows: `2·N·in·out`
    /// flops over the weights and the activations in and out, each element
    /// `elem_bytes` wide (4 for FP32, 1 for INT8).
    pub fn linear_s(&self, n: usize, op: &LinearOp, elem_bytes: usize) -> f64 {
        let flops = 2 * n as u64 * op.in_dim as u64 * op.out_dim as u64;
        let bytes = (op.in_dim * op.out_dim) as u64 * elem_bytes as u64
            + (n * (op.in_dim + op.out_dim)) as u64 * elem_bytes as u64;
        self.gemm_time_s(flops, bytes)
    }

    /// Closest-centroid search for one LUT operator (§3.3), `V` the
    /// sub-vector length: [`ccs_flops`] at `CCS_EFFICIENCY` of the
    /// dense-GEMM rate, streaming the f32 activations in and the
    /// workload's centroid indices out.
    pub fn ccs_s(&self, workload: &LutWorkload, v: usize) -> f64 {
        let flops = (ccs_flops(workload, v) as f64 / CCS_EFFICIENCY) as u64;
        let bytes = (workload.n * workload.cb * v * 4) as u64 + workload.index_bytes();
        self.gemm_time_s(flops, bytes)
    }

    /// Attention's score and value GEMMs (`QKᵀ`, `PV`) of one layer, over
    /// the Q/K/V activations and the score matrix at f32.
    pub fn attention_s(&self, shape: &TransformerShape, batch: usize, seq_len: usize) -> f64 {
        let n = batch * seq_len;
        let flops = shape.attention_flops_per_layer(batch, seq_len);
        let bytes = (3 * n * shape.hidden) as u64 * 4
            + (batch * shape.heads * seq_len * seq_len) as u64 * 4;
        self.gemm_time_s(flops, bytes)
    }

    /// The memory-bound element-wise and normalisation operators of one
    /// layer.
    pub fn elementwise_s(&self, shape: &TransformerShape, batch: usize, seq_len: usize) -> f64 {
        let bytes = shape.elementwise_bytes_per_layer(batch, seq_len);
        self.op_overhead_s + bytes as f64 / (self.mem_bw_gbps * 1e9)
    }
}

/// End-to-end host inference latency breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HostInference {
    /// Linear-layer GEMM time.
    pub linear_s: f64,
    /// Attention score/value GEMM time.
    pub attention_s: f64,
    /// Element-wise / normalization time.
    pub elementwise_s: f64,
}

impl HostInference {
    /// Total latency.
    pub fn total_s(&self) -> f64 {
        self.linear_s + self.attention_s + self.elementwise_s
    }
}

/// Dense transformer inference entirely on a host processor (the CPU/GPU
/// baselines of Figs. 10 and 15).
///
/// `elem_bytes` is the weight element size (4 for FP32, 1 for INT8).
pub fn host_inference(
    host: &HostModel,
    shape: &TransformerShape,
    batch: usize,
    seq_len: usize,
    elem_bytes: usize,
) -> HostInference {
    let n = batch * seq_len;
    let mut linear_s = 0.0;
    for op in shape.linear_ops() {
        linear_s += host.linear_s(n, &op, elem_bytes);
    }
    let layers = shape.layers as f64;
    HostInference {
        linear_s: linear_s * layers,
        attention_s: host.attention_s(shape, batch, seq_len) * layers,
        elementwise_s: host.elementwise_s(shape, batch, seq_len) * layers,
    }
}

/// Throughput efficiency of the closest-centroid-search kernel relative to
/// the host's dense-GEMM throughput.
///
/// CCS is a sub-vector distance + argmin kernel: short inner products over
/// `V`-length vectors, a compare/select per centroid, and an index store —
/// far less SIMD-friendly than a blocked GEMM.
///
/// Anchor: Fig. 11-(a) — CCS is 24–30 % of LUT-NN inference latency, i.e.
/// ≈ 20 % of end-to-end latency, which at the ~20 s BERT-base total implies
/// ≈ 20 GOPS of effective CCS throughput on the Xeon 4210 host.
const CCS_EFFICIENCY: f64 = 0.15;

/// Efficiency of FP32/INT8 GEMM on UPMEM DPUs relative to the DIMM's peak
/// GOP/s rating.
///
/// DPUs have no hardware multiplier or FPU: an 8×8 multiply takes tens of
/// cycles and FP32 is software-emulated, so dense GEMM sustains only a few
/// percent of the add-rated 43.8 GOP/s per DIMM.
///
/// Anchor: Fig. 10's per-layer PIM latency line (38.47 s / 68.04 s /
/// 105.88 s for BERT-base/large/ViT-huge at batch 64, seq 512) — matching
/// requires ≈ 9 effective GOP/s over the 8-DIMM system.
const UPMEM_GEMM_EFFICIENCY: f64 = 0.026;

/// Per-row GEMV command overhead for GEMM-based inference on the MAC-based
/// products (HBM-PIM / AiM).
///
/// These products' dataflow targets matrix–vector work: a batched GEMM
/// degenerates into one command sequence per activation row, each paying
/// issue/setup latency.
///
/// Anchor: Fig. 14 — PIM-DL is 23.94× (HBM-PIM) / 19.06× (AiM) faster than
/// GEMM-based inference, with the gap *growing* with batch size (up to
/// 2.23×), i.e. the baseline's per-row overhead does not amortize.
const MAC_PIM_ROW_OVERHEAD_S: f64 = 60e-6;

/// The closest-centroid search's operation count for one LUT operator,
/// `3·N·H·CT` (§3.3), `H = CB·V` the operator's input width.
pub fn ccs_flops(workload: &LutWorkload, v: usize) -> u64 {
    (3 * workload.n * workload.cb * v * workload.ct) as u64
}

/// `flops` of GEMM in software on the UPMEM DPUs, whose effective
/// throughput is `UPMEM_GEMM_EFFICIENCY` of the rated add throughput.
pub fn dpu_gemm_s(platform: &PlatformConfig, flops: u64) -> f64 {
    flops as f64 / (platform.peak_gops * UPMEM_GEMM_EFFICIENCY * 1e9)
}

/// `bytes` over the host→PIM link at its peak rate.
pub fn link_s(platform: &PlatformConfig, bytes: u64) -> f64 {
    bytes as f64 / (platform.host_transfer.to_pim_peak_gbps * 1e9)
}

/// GEMM-based inference with all linear layers offloaded to the DRAM-PIM
/// platform (the "PIM" baseline of Fig. 10 and the normal-DNN baselines of
/// Fig. 14). Attention and element-wise operators run on the platform's
/// host; activations cross the host↔PIM link every layer.
pub fn pim_gemm_inference(
    platform: &PlatformConfig,
    shape: &TransformerShape,
    batch: usize,
    seq_len: usize,
) -> HostInference {
    let n = batch * seq_len;
    let elem = platform.pim_dtype.size_bytes();

    let mut linear_s = match platform.kind {
        PlatformKind::Upmem => dpu_gemm_s(platform, shape.linear_flops_per_layer(n)),
        PlatformKind::HbmPim | PlatformKind::Aim => {
            // Row-at-a-time GEMV execution: weights stream from banks for
            // every row; each row pays command overhead.
            let weight_bytes_per_layer: u64 = shape
                .linear_ops()
                .iter()
                .map(|op| (op.in_dim * op.out_dim * elem) as u64)
                .sum();
            let stream_s = weight_bytes_per_layer as f64 / (platform.peak_internal_bw_gbps * 1e9);
            n as f64 * (4.0 * MAC_PIM_ROW_OVERHEAD_S + stream_s)
        }
    };
    // Activation traffic over the host↔PIM link (in + out per linear op).
    let io_bytes: u64 = shape
        .linear_ops()
        .iter()
        .map(|op| (n * (op.in_dim + op.out_dim) * elem) as u64)
        .sum();
    linear_s += link_s(platform, io_bytes);
    let (host, layers) = (HostModel::host_of(platform), shape.layers as f64);
    HostInference {
        linear_s: linear_s * layers,
        attention_s: host.attention_s(shape, batch, seq_len) * layers,
        elementwise_s: host.elementwise_s(shape, batch, seq_len) * layers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int8_faster_than_fp32() {
        let shape = TransformerShape::bert_base();
        let fp32 = host_inference(&HostModel::cpu_fp32(), &shape, 64, 512, 4);
        let int8 = host_inference(&HostModel::cpu_int8(), &shape, 64, 512, 1);
        assert!(int8.total_s() < fp32.total_s());
        let ratio = fp32.total_s() / int8.total_s();
        assert!((1.3..2.2).contains(&ratio), "fp32/int8 ratio {ratio}");
    }

    #[test]
    fn gpu_much_faster_than_cpu_at_large_batch() {
        let shape = TransformerShape::bert_base();
        let cpu = host_inference(&HostModel::cpu_fp32(), &shape, 64, 512, 4);
        let gpu = host_inference(&HostModel::gpu_v100_fp32(), &shape, 64, 512, 4);
        assert!(gpu.total_s() * 5.0 < cpu.total_s());
    }

    #[test]
    fn upmem_gemm_matches_per_layer_anchor() {
        // Fig. 10 latency line: ~38 s per layer for BERT-base at batch 64 ×
        // seq 512 (per-layer = total / layers).
        let shape = TransformerShape::bert_base();
        let p = PlatformConfig::upmem();
        let t = pim_gemm_inference(&p, &shape, 64, 512);
        let per_layer = t.linear_s / shape.layers as f64;
        assert!(
            (25.0..55.0).contains(&per_layer),
            "per-layer GEMM-on-PIM = {per_layer} s"
        );
    }

    #[test]
    fn mac_pim_gemm_overhead_grows_with_batch() {
        let shape = TransformerShape::with_hidden(1024, 12);
        let p = PlatformConfig::aim();
        let b1 = pim_gemm_inference(&p, &shape, 1, 128).linear_s;
        let b8 = pim_gemm_inference(&p, &shape, 8, 128).linear_s;
        // Per-row overhead: cost scales ~linearly with rows (not amortized).
        assert!(b8 > 6.0 * b1, "b1={b1} b8={b8}");
    }

    #[test]
    fn host_of_platform_kinds() {
        assert_eq!(
            HostModel::host_of(&PlatformConfig::upmem()).name,
            HostModel::cpu_xeon_4210().name
        );
        assert_eq!(
            HostModel::host_of(&PlatformConfig::hbm_pim()).name,
            HostModel::gpu_a2().name
        );
        assert_eq!(
            HostModel::host_of(&PlatformConfig::aim()).name,
            HostModel::gpu_a2().name
        );
    }

    #[test]
    fn gemm_time_roofline_behaviour() {
        let m = HostModel::cpu_fp32();
        // Compute-bound: big flops, small bytes.
        let t_compute = m.gemm_time_s(1_000_000_000_000, 1);
        assert!((t_compute - (1e12 / 105e9 + 5e-6)).abs() < 1e-6);
        // Memory-bound: small flops, big bytes.
        let t_mem = m.gemm_time_s(1, 220_000_000_000);
        assert!((t_mem - (1.0 + 5e-6)).abs() < 1e-3);
    }

    #[test]
    fn breakdown_total_consistent() {
        let shape = TransformerShape::tiny();
        let r = host_inference(&HostModel::cpu_fp32(), &shape, 2, 16, 4);
        assert!((r.total_s() - (r.linear_s + r.attention_s + r.elementwise_s)).abs() < 1e-15);
        assert!(r.linear_s > 0.0 && r.attention_s > 0.0 && r.elementwise_s > 0.0);
    }
}
