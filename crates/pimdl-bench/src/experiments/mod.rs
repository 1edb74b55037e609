//! One module per paper artifact (see DESIGN.md §4 for the experiment
//! index). Each module exposes a `run(...)` returning a serializable result
//! and a `render(&result)` producing the text report.

pub mod accuracy;
pub mod alloc_budgets;
pub mod data_efficiency;
pub mod discussion;
pub mod elutnn_ablation;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig3;
pub mod fig4;
pub mod scaling;
pub mod serving;
pub mod table1;
pub mod tuner_error;

use pimdl_sim::{LoadScheme, LutWorkload, MicroKernel, PlatformConfig};
use pimdl_tuner::space::kernel_candidates;

/// The paper's Fig. 13 / §6.6 statistics cover the *neighborhood* of
/// sensible mappings, not pathological corner tilings (1-element
/// micro-tiles whose per-access overheads dwarf useful work). This
/// predicate reproduces that framing.
pub(crate) fn is_sane(kernel: &MicroKernel) -> bool {
    let tiles_ok = kernel.n_mtile >= 4 && kernel.f_mtile >= 4 && kernel.cb_mtile >= 2;
    let loads_ok = match kernel.load_scheme {
        LoadScheme::Static => true,
        LoadScheme::CoarseGrain { cb_load, f_load } => cb_load * f_load >= 4,
        LoadScheme::FineGrain { f_load, .. } => f_load >= 4,
    };
    tiles_ok && loads_ok
}

/// The micro-kernel candidates of P1 pair `(n_s, f_s)` that pass `keep`,
/// thinned to at most `cap` (0 = all of them) by a uniform stride — a
/// prefix would drop the large-tile candidates, which the enumeration
/// generates last.
pub(crate) fn sampled_kernels(
    workload: &LutWorkload,
    platform: &PlatformConfig,
    (n_s, f_s): (usize, usize),
    keep: impl Fn(&MicroKernel) -> bool,
    cap: usize,
) -> Vec<MicroKernel> {
    let mut kernels = kernel_candidates(workload, platform, n_s, f_s);
    kernels.retain(keep);
    if cap > 0 && kernels.len() > cap {
        let stride = kernels.len().div_ceil(cap);
        kernels = kernels.into_iter().step_by(stride).collect();
    }
    kernels
}

/// Geometric mean of a non-empty slice of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
