//! Per-PE execution tracing and load-balance analysis (limitation **L3** of
//! §5.1: "the slowest PE determines the finish time").
//!
//! The sub-LUT partition gives every PE an identical work shape, so with
//! ideal hardware the kernel is perfectly balanced. Real PEs are not ideal:
//! refresh collisions, bank conflicts, and voltage/frequency margins skew
//! per-PE completion times. [`PeVariation`] models that skew as a
//! deterministic per-PE speed factor; [`trace_kernel`] produces a per-PE
//! timeline whose maximum is the kernel's true finish time and whose spread
//! quantifies the imbalance penalty.

use serde::{Deserialize, Serialize};

use crate::config::PlatformConfig;
use crate::cost::{cost_with_repeat, CostReport};
use crate::mapping::{LutWorkload, Mapping};
use crate::Result;

/// Deterministic per-PE speed variation model.
///
/// PE `i`'s execution time is scaled by `1 + amplitude * u(i)` where
/// `u(i) ∈ [0, 1)` is a hash of `(seed, i)` — reproducible without any RNG
/// state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeVariation {
    /// Maximum fractional slowdown of the slowest PE (0 = ideal hardware).
    pub amplitude: f64,
    /// Hash seed.
    pub seed: u64,
}

impl PeVariation {
    /// Speed factor (≥ 1.0) of PE `i`.
    pub fn factor(&self, pe: usize) -> f64 {
        if self.amplitude <= 0.0 {
            return 1.0;
        }
        // SplitMix64-style hash for a uniform, stateless per-PE value.
        let mut z = self.seed ^ (pe as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.amplitude * u
    }
}

/// One PE's entry in a kernel trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeTraceEntry {
    /// PE index (group-major: `group * pes_per_group + member`).
    pub pe: usize,
    /// PE group (owns one index row tile).
    pub group: usize,
    /// Member within the group (owns one LUT feature tile).
    pub member: usize,
    /// Micro-kernel time on this PE including its speed factor (s).
    pub kernel_s: f64,
    /// The speed factor applied.
    pub speed_factor: f64,
}

/// A full kernel trace: per-PE timings plus the balance statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelTrace {
    /// Per-PE entries, in PE order.
    pub entries: Vec<PeTraceEntry>,
    /// Host↔PIM (sub-LUT partition) time, shared by all PEs (s).
    pub sub_lut_s: f64,
    /// Kernel time of the fastest PE (s).
    pub min_kernel_s: f64,
    /// Kernel time of the slowest PE — the finish time (s).
    pub max_kernel_s: f64,
    /// Mean per-PE kernel time (s).
    pub mean_kernel_s: f64,
    /// End-to-end latency: transfers + slowest PE (s).
    pub total_s: f64,
    /// Idle fraction: average PE idle time waiting for the straggler.
    pub imbalance: f64,
}

impl KernelTrace {
    /// The latency penalty of PE variation relative to ideal hardware
    /// (`max / mean` of the kernel phase).
    pub fn straggler_penalty(&self) -> f64 {
        if self.mean_kernel_s <= 0.0 {
            1.0
        } else {
            self.max_kernel_s / self.mean_kernel_s
        }
    }
}

/// Produces the per-PE timeline of one kernel launch under a PE-variation
/// model. The underlying per-PE work is identical by construction (the
/// even sub-LUT partition), so all divergence comes from `variation`.
///
/// # Errors
///
/// Returns an illegal-mapping error from cost evaluation.
pub fn trace_kernel(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
    repeat_fraction: f64,
    variation: PeVariation,
) -> Result<KernelTrace> {
    let report: CostReport = cost_with_repeat(platform, workload, mapping, repeat_fraction)?;
    let base_kernel_s = report.time.micro_kernel_total_s();
    let sub_lut_s = report.time.sub_lut_total_s();
    let groups = mapping.groups(workload);
    let per_group = mapping.pes_per_group(workload);

    let mut entries = Vec::with_capacity(groups * per_group);
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    let mut sum = 0.0;
    for g in 0..groups {
        for m in 0..per_group {
            let pe = g * per_group + m;
            let factor = variation.factor(pe);
            let kernel_s = base_kernel_s * factor;
            min = min.min(kernel_s);
            max = max.max(kernel_s);
            sum += kernel_s;
            entries.push(PeTraceEntry {
                pe,
                group: g,
                member: m,
                kernel_s,
                speed_factor: factor,
            });
        }
    }
    let n = entries.len().max(1) as f64;
    let mean = sum / n;
    Ok(KernelTrace {
        sub_lut_s,
        min_kernel_s: min,
        max_kernel_s: max,
        mean_kernel_s: mean,
        total_s: sub_lut_s + max,
        imbalance: if max > 0.0 { 1.0 - mean / max } else { 0.0 },
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{LoadScheme, MicroKernel, TraversalOrder};

    fn setup() -> (PlatformConfig, LutWorkload, Mapping) {
        let mut p = PlatformConfig::upmem();
        p.num_pes = 16;
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let m = Mapping {
            n_stile: 16,
            f_stile: 8,
            kernel: MicroKernel {
                n_mtile: 4,
                f_mtile: 4,
                cb_mtile: 4,
                traversal: TraversalOrder::Nfc,
                load_scheme: LoadScheme::Static,
            },
        };
        (p, w, m)
    }

    #[test]
    fn ideal_hardware_is_perfectly_balanced() {
        let (p, w, m) = setup();
        let ideal = PeVariation {
            amplitude: 0.0,
            seed: 0,
        };
        let trace = trace_kernel(&p, &w, &m, 0.0, ideal).unwrap();
        assert_eq!(trace.entries.len(), 16);
        assert!((trace.min_kernel_s - trace.max_kernel_s).abs() < 1e-18);
        assert_eq!(trace.imbalance, 0.0);
        assert!((trace.straggler_penalty() - 1.0).abs() < 1e-12);
        // Group/member layout covers the partition exactly.
        assert_eq!(trace.entries[5].group, 5 / m.pes_per_group(&w));
        assert_eq!(trace.entries[5].member, 5 % m.pes_per_group(&w));
    }

    #[test]
    fn variation_creates_stragglers() {
        let (p, w, m) = setup();
        let trace = trace_kernel(
            &p,
            &w,
            &m,
            0.0,
            PeVariation {
                amplitude: 0.2,
                seed: 7,
            },
        )
        .unwrap();
        assert!(trace.max_kernel_s > trace.min_kernel_s);
        assert!(trace.imbalance > 0.0 && trace.imbalance < 0.2);
        assert!(trace.straggler_penalty() > 1.0);
        // Finish time is the slowest PE plus transfers.
        assert!((trace.total_s - (trace.sub_lut_s + trace.max_kernel_s)).abs() < 1e-15);
    }

    #[test]
    fn variation_is_deterministic() {
        let v = PeVariation {
            amplitude: 0.3,
            seed: 42,
        };
        for pe in 0..100 {
            assert_eq!(v.factor(pe), v.factor(pe));
            assert!((1.0..1.3).contains(&v.factor(pe)));
        }
        let other = PeVariation {
            amplitude: 0.3,
            seed: 43,
        };
        assert_ne!(v.factor(0), other.factor(0));
    }

    #[test]
    fn penalty_grows_with_amplitude_and_pe_count() {
        let (mut p, w, m) = setup();
        let small = trace_kernel(
            &p,
            &w,
            &m,
            0.0,
            PeVariation {
                amplitude: 0.05,
                seed: 1,
            },
        )
        .unwrap();
        let large = trace_kernel(
            &p,
            &w,
            &m,
            0.0,
            PeVariation {
                amplitude: 0.5,
                seed: 1,
            },
        )
        .unwrap();
        assert!(large.straggler_penalty() > small.straggler_penalty());

        // With more PEs the expected max of the uniform factors rises.
        p.num_pes = 64;
        let m64 = Mapping {
            n_stile: 8,
            f_stile: 4,
            ..m
        };
        let many = trace_kernel(
            &p,
            &w,
            &m64,
            0.0,
            PeVariation {
                amplitude: 0.5,
                seed: 1,
            },
        )
        .unwrap();
        assert!(
            many.max_kernel_s / many.mean_kernel_s
                >= large.max_kernel_s / large.mean_kernel_s * 0.95
        );
    }
}
