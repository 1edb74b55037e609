//! The analytical latency model of Eqs. 3–10: an idealised *pricing* of
//! the terms `pimdl_sim::cost` derives, not a second derivation.
//!
//! Stream counts, tile bytes, the sub-LUT transfers (Eq. 4 — the paper
//! profiles those directly) and the reduce term (Eq. 10 at a
//! `t_single-reduce` *profiled per inner-loop width*, so the short-loop
//! stall curve is in the profile) are the simulator's own functions. The
//! model differs only where a profiling-based model must:
//!
//! * local-memory time is `bytes / profiled-bandwidth(access size)` (Eq. 8)
//!   with no per-access overhead term,
//! * fine-grain gathers assume no index-repeat reuse (data-dependent and
//!   unknowable offline); pricing them at full count partially offsets the
//!   per-access overheads the model also cannot see, keeping scheme
//!   selection balanced (§6.6).
//!
//! Both predictions come back as a [`TimeBreakdown`], the simulator's own
//! type, so model and "measurement" compare term by term.

use serde::{Deserialize, Serialize};

use pimdl_sim::config::PlatformConfig;
use pimdl_sim::cost::{reduce_time_s, row_times_s, stream_counts, sub_lut_times, StreamCounts};
use pimdl_sim::{LutWorkload, Mapping, TimeBreakdown};

use crate::Result;

/// Evaluates the analytical model for one mapping.
///
/// # Errors
///
/// Returns a wrapped [`pimdl_sim::SimError`] if the mapping is illegal.
pub fn analytical_cost(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
) -> Result<TimeBreakdown> {
    mapping.validate(workload, platform)?;
    let sc = stream_counts(workload, mapping);
    Ok(analytical(platform, workload, mapping, &sc))
}

/// [`analytical_cost`] of a validated mapping whose stream counts are at
/// hand (the hierarchical model prices the same streams again).
fn analytical(
    platform: &PlatformConfig,
    w: &LutWorkload,
    m: &Mapping,
    sc: &StreamCounts,
) -> TimeBreakdown {
    let lm = &platform.local_mem;
    let [kernel_index_s, kernel_output_s, kernel_lut_s] = sc
        .streams()
        .map(|(loads, tile)| lm.ideal_time_s(loads * tile, tile));
    TimeBreakdown {
        kernel_index_s,
        kernel_lut_s,
        kernel_output_s,
        kernel_reduce_s: reduce_time_s(platform, w, m.pair(), m.kernel.f_mtile),
        ..sub_lut_times(platform, w, m.pair())
    }
}

/// Hierarchical prediction: the flat analytical breakdown plus the
/// row-activation and layout-crossing terms of
/// [`pimdl_sim::config::MemHierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HierBreakdown {
    /// The flat analytical model (Eqs. 3–10), unchanged.
    pub base: TimeBreakdown,
    /// Compulsory row-activation time for all streamed micro-kernel
    /// traffic (index, output, LUT chunks).
    pub row_activation_s: f64,
    /// Excess activation time from tiles straddling row boundaries.
    pub crossing_s: f64,
}

impl HierBreakdown {
    /// Predicted end-to-end latency under the hierarchical model.
    pub fn total_s(&self) -> f64 {
        self.base.total_s() + self.row_activation_s + self.crossing_s
    }
}

/// Evaluates the hierarchical cost model for one mapping: the flat
/// analytical model of [`analytical_cost`] plus row-activation and
/// layout-crossing terms for every streamed structure of the micro-kernel.
/// This is the objective both tuner search strategies optimize.
///
/// # Errors
///
/// Returns a wrapped [`pimdl_sim::SimError`] if the mapping is illegal.
pub fn hierarchical_cost(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    mapping: &Mapping,
) -> Result<HierBreakdown> {
    mapping.validate(workload, platform)?;
    let sc = stream_counts(workload, mapping);
    let (row_activation_s, crossing_s) = row_times_s(&platform.mem_hierarchy(), &sc);
    Ok(HierBreakdown {
        base: analytical(platform, workload, mapping, &sc),
        row_activation_s,
        crossing_s,
    })
}

/// Relative error of the analytical prediction against a simulated
/// ("measured") latency: `|pred − meas| / meas`.
pub fn relative_error(predicted_s: f64, measured_s: f64) -> f64 {
    if measured_s <= 0.0 {
        return 0.0;
    }
    (predicted_s - measured_s).abs() / measured_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdl_sim::cost::estimate_cost;
    use pimdl_sim::mapping::MicroKernel;
    use pimdl_sim::LoadScheme;
    use pimdl_sim::TraversalOrder;

    fn platform(pes: usize) -> PlatformConfig {
        let mut p = PlatformConfig::upmem();
        p.num_pes = pes;
        p
    }

    fn workload() -> LutWorkload {
        LutWorkload::new(64, 8, 16, 32).unwrap()
    }

    fn mapping(scheme: LoadScheme) -> Mapping {
        Mapping {
            n_stile: 16,
            f_stile: 8,
            kernel: MicroKernel {
                n_mtile: 4,
                f_mtile: 4,
                cb_mtile: 4,
                traversal: TraversalOrder::Nfc,
                load_scheme: scheme,
            },
        }
    }

    #[test]
    fn analytical_close_to_but_below_simulated() {
        // The model omits overheads, so it should slightly *underestimate*
        // the simulated latency — within the paper's error band for sane
        // mappings.
        let p = platform(16);
        let w = workload();
        for scheme in [
            LoadScheme::Static,
            LoadScheme::CoarseGrain {
                cb_load: 2,
                f_load: 2,
            },
            LoadScheme::FineGrain {
                f_load: 4,
                threads: 16,
            },
        ] {
            let m = mapping(scheme);
            let pred = analytical_cost(&p, &w, &m).unwrap();
            let sim = estimate_cost(&p, &w, &m).unwrap();
            let err = relative_error(pred.total_s(), sim.time.total_s());
            assert!(
                pred.total_s() <= sim.time.total_s() + 1e-12,
                "{}: pred {} > sim {}",
                scheme.name(),
                pred.total_s(),
                sim.time.total_s()
            );
            assert!(err < 0.35, "{}: err={err}", scheme.name());
        }
    }

    #[test]
    fn analytical_rejects_illegal_mapping() {
        let w = workload();
        let m = mapping(LoadScheme::Static);
        assert!(analytical_cost(&platform(7), &w, &m).is_err());
    }

    #[test]
    fn sub_lut_term_matches_simulator_exactly() {
        // Transfers are profiled, so model and simulator agree on them.
        let p = platform(16);
        let w = workload();
        let m = mapping(LoadScheme::Static);
        let pred = analytical_cost(&p, &w, &m).unwrap();
        let sim = estimate_cost(&p, &w, &m).unwrap();
        assert_eq!(
            (pred.sub_index_s, pred.sub_lut_s, pred.sub_output_s),
            (
                sim.time.sub_index_s,
                sim.time.sub_lut_s,
                sim.time.sub_output_s
            )
        );
    }

    #[test]
    fn reduce_term_uses_profiled_stall_curve() {
        let p = platform(16);
        let w = workload();
        let m = mapping(LoadScheme::Static);
        let pred = analytical_cost(&p, &w, &m).unwrap();
        let stall = 1.0 + pimdl_sim::cost::REDUCE_LOOP_OVERHEAD / 4.0;
        let expected = (16 * 8 * 8) as f64 * p.single_reduce_s * stall;
        assert!((pred.kernel_reduce_s - expected).abs() < 1e-15);
        // The reduce term now matches the simulator exactly (it is
        // profilable); residual model error comes from access overheads and
        // index-repeat reuse.
        let sim = estimate_cost(&p, &w, &m).unwrap();
        assert!((pred.kernel_reduce_s - sim.time.kernel_reduce_s).abs() < 1e-15);
    }

    #[test]
    fn hierarchical_extends_analytical() {
        let p = platform(16);
        let w = workload();
        for scheme in [
            LoadScheme::Static,
            LoadScheme::CoarseGrain {
                cb_load: 2,
                f_load: 2,
            },
            LoadScheme::FineGrain {
                f_load: 4,
                threads: 16,
            },
        ] {
            let m = mapping(scheme);
            let base = analytical_cost(&p, &w, &m).unwrap();
            let hier = hierarchical_cost(&p, &w, &m).unwrap();
            // The flat breakdown is embedded unchanged...
            assert_eq!(hier.base, base, "{}", scheme.name());
            // ...and the hierarchy terms only ever add cost.
            assert!(hier.row_activation_s > 0.0, "{}", scheme.name());
            assert!(hier.crossing_s >= 0.0, "{}", scheme.name());
            assert!(hier.total_s() >= base.total_s(), "{}", scheme.name());
        }
    }

    #[test]
    fn hierarchical_rejects_illegal_mapping() {
        let w = workload();
        let m = mapping(LoadScheme::Static);
        assert!(hierarchical_cost(&platform(7), &w, &m).is_err());
    }

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(1.0, 1.0), 0.0);
        assert!((relative_error(0.9, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(5.0, 0.0), 0.0);
    }

    #[test]
    fn breakdown_total_consistent() {
        let p = platform(16);
        let w = workload();
        let m = mapping(LoadScheme::Static);
        let pred = analytical_cost(&p, &w, &m).unwrap();
        let parts =
            pred.kernel_index_s + pred.kernel_lut_s + pred.kernel_output_s + pred.kernel_reduce_s;
        assert_eq!(pred.micro_kernel_total_s(), parts);
        assert_eq!(pred.total_s(), pred.sub_lut_total_s() + parts);
    }
}
