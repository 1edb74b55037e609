//! Algorithm 1: the auto-tuning workflow.
//!
//! For each legal sub-LUT tiling pair the tuner estimates the partition
//! overhead (Eq. 3) and searches the micro-kernel space for the fastest
//! kernel under the **hierarchical cost model** ([`crate::model`]: the
//! flat Eqs. 3–10 plus row-activation and layout-crossing terms). Two
//! strategies cover the same candidate space:
//!
//! * [`SearchStrategy::BranchAndBound`] (the default) prunes subtrees
//!   with admissible lower bounds ([`crate::bnb`]) and typically scores a
//!   few percent of the candidates;
//! * [`SearchStrategy::Exhaustive`] is the original enumerator, kept as
//!   the correctness oracle — on enumerable spaces both must return the
//!   same optimal cost bit for bit.

use pimdl_sim::config::PlatformConfig;
use pimdl_sim::{LutWorkload, Mapping};

use crate::model::{hierarchical_cost_with, AnalyticalBreakdown, HierBreakdown, MemHierarchy};
use crate::space::{kernel_candidates, legal_pairs, mapping_of};
use crate::{Result, TuneError};

/// Which search walks the mapping space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Model-guided branch-and-bound with admissible lower bounds.
    #[default]
    BranchAndBound,
    /// Exhaustive enumeration (the correctness oracle). Subject to
    /// `max_kernels_per_pair` thinning; use `0` for the full space.
    Exhaustive,
}

/// Options controlling the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuneOptions {
    /// Score sub-LUT candidates on worker threads (exhaustive strategy
    /// only; branch-and-bound shares one incumbent and runs serially —
    /// pruning beats parallelism by orders of magnitude).
    pub parallel: bool,
    /// Upper bound on micro-kernel candidates evaluated per sub-LUT pair
    /// (0 = unlimited). Large workloads have millions of candidates; the
    /// bound keeps the exhaustive oracle at the paper's "~1 s/model"
    /// scale. Ignored by branch-and-bound, which prunes instead.
    pub max_kernels_per_pair: usize,
    /// Search strategy (default: branch-and-bound).
    pub strategy: SearchStrategy,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            parallel: true,
            max_kernels_per_pair: 50_000,
            strategy: SearchStrategy::default(),
        }
    }
}

impl TuneOptions {
    /// The exhaustive oracle over the *full* space (no thinning) — what
    /// the branch-and-bound result is verified against in tests.
    pub fn exhaustive_oracle() -> Self {
        TuneOptions {
            parallel: false,
            max_kernels_per_pair: 0,
            strategy: SearchStrategy::Exhaustive,
        }
    }
}

/// Outcome of an auto-tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResult {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Flat analytical prediction (Eqs. 3–10) for the best mapping.
    pub predicted: AnalyticalBreakdown,
    /// Hierarchical prediction (flat + row-activation + crossing) — the
    /// objective the search minimized.
    pub hierarchical: HierBreakdown,
    /// Predicted end-to-end latency under the hierarchical model
    /// (seconds); equals `hierarchical.total_s()`.
    pub predicted_total_s: f64,
    /// Number of candidate mappings scored.
    pub evaluated: usize,
}

/// Runs Algorithm 1 with default options (branch-and-bound).
///
/// # Errors
///
/// Returns [`TuneError::NoLegalMapping`] if the workload cannot be evenly
/// partitioned over the platform's PEs.
pub fn tune(platform: &PlatformConfig, workload: &LutWorkload) -> Result<TuningResult> {
    tune_with_options(platform, workload, TuneOptions::default())
}

/// Runs Algorithm 1 with explicit options.
///
/// # Errors
///
/// Returns [`TuneError::NoLegalMapping`] if no candidate validates, or
/// [`TuneError::Worker`] if a search worker thread dies.
pub fn tune_with_options(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    options: TuneOptions,
) -> Result<TuningResult> {
    match options.strategy {
        SearchStrategy::BranchAndBound => {
            let out = crate::bnb::search(platform, workload)?;
            Ok(TuningResult {
                mapping: out.mapping,
                predicted: out.predicted.base,
                hierarchical: out.predicted,
                predicted_total_s: out.predicted.total_s(),
                evaluated: out.evaluated,
            })
        }
        SearchStrategy::Exhaustive => tune_exhaustive(platform, workload, options),
    }
}

/// The original enumerator, scoring every candidate with the hierarchical
/// model (shared objective with branch-and-bound).
fn tune_exhaustive(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    options: TuneOptions,
) -> Result<TuningResult> {
    let pairs = legal_pairs(workload, platform)?;
    let hier = MemHierarchy::for_platform(platform);

    let score_pair = |&(n_s, f_s): &(usize, usize)| -> (Option<(Mapping, HierBreakdown)>, usize) {
        let mut best: Option<(Mapping, HierBreakdown)> = None;
        let mut evaluated = 0;
        let mut kernels = kernel_candidates(workload, platform, n_s, f_s);
        if options.max_kernels_per_pair > 0 && kernels.len() > options.max_kernels_per_pair {
            // Thin uniformly: a prefix truncation would drop everything the
            // enumeration generates last (the large-tile candidates).
            let stride = kernels.len().div_ceil(options.max_kernels_per_pair);
            kernels = kernels.into_iter().step_by(stride).collect();
        }
        for kernel in kernels {
            let mapping = mapping_of(n_s, f_s, kernel);
            let Ok(pred) = hierarchical_cost_with(&hier, platform, workload, &mapping) else {
                continue;
            };
            evaluated += 1;
            let better = match &best {
                None => true,
                Some((_, b)) => pred.total_s() < b.total_s(),
            };
            if better {
                best = Some((mapping, pred));
            }
        }
        (best, evaluated)
    };

    let results: Vec<(Option<(Mapping, HierBreakdown)>, usize)> = if options.parallel {
        let scoped = crossbeam::scope(|scope| {
            let handles: Vec<_> = pairs
                .iter()
                .map(|pair| scope.spawn(move |_| score_pair(pair)))
                .collect();
            let mut out = Vec::with_capacity(handles.len());
            for h in handles {
                match h.join() {
                    Ok(r) => out.push(r),
                    Err(_) => {
                        return Err(TuneError::Worker {
                            detail: "tuner worker thread panicked".to_string(),
                        })
                    }
                }
            }
            Ok(out)
        });
        match scoped {
            Ok(inner) => inner?,
            Err(_) => {
                return Err(TuneError::Worker {
                    detail: "tuner thread scope panicked".to_string(),
                })
            }
        }
    } else {
        pairs.iter().map(score_pair).collect()
    };

    let mut evaluated = 0;
    let mut best: Option<(Mapping, HierBreakdown)> = None;
    for (candidate, count) in results {
        evaluated += count;
        if let Some((m, p)) = candidate {
            let better = match &best {
                None => true,
                Some((_, b)) => p.total_s() < b.total_s(),
            };
            if better {
                best = Some((m, p));
            }
        }
    }

    let (mapping, hierarchical) = best.ok_or_else(|| TuneError::NoLegalMapping {
        detail: format!(
            "all {evaluated} scored candidates were illegal for ({}, {}, {}, {})",
            workload.n, workload.cb, workload.ct, workload.f
        ),
    })?;
    Ok(TuningResult {
        mapping,
        predicted: hierarchical.base,
        hierarchical,
        predicted_total_s: hierarchical.total_s(),
        evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdl_sim::cost::estimate_cost;
    use pimdl_sim::LoadScheme;

    fn platform(pes: usize) -> PlatformConfig {
        let mut p = PlatformConfig::upmem();
        p.num_pes = pes;
        p
    }

    #[test]
    fn tune_finds_a_legal_mapping() {
        let p = platform(16);
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let result = tune(&p, &w).unwrap();
        result.mapping.validate(&w, &p).unwrap();
        assert!(result.predicted_total_s > 0.0);
        assert!(result.evaluated > 0);
        assert_eq!(result.predicted_total_s, result.hierarchical.total_s());
        assert_eq!(result.predicted, result.hierarchical.base);
    }

    #[test]
    fn tuned_mapping_is_near_optimal_under_simulation() {
        // The §6.6 claim in miniature: the mapping the tuner picks (by
        // hierarchical score) must be within a few percent of the best
        // simulated mapping over the same space.
        let p = platform(16);
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let result = tune(&p, &w).unwrap();
        let tuned_sim = estimate_cost(&p, &w, &result.mapping)
            .unwrap()
            .time
            .total_s();

        // Exhaustively find the simulated optimum.
        let mut best_sim = f64::INFINITY;
        for (n_s, f_s) in crate::space::sub_lut_candidates(&w, &p) {
            for k in crate::space::kernel_candidates(&w, &p, n_s, f_s) {
                let m = crate::space::mapping_of(n_s, f_s, k);
                if let Ok(c) = estimate_cost(&p, &w, &m) {
                    best_sim = best_sim.min(c.time.total_s());
                }
            }
        }
        let degradation = tuned_sim / best_sim;
        assert!(
            degradation < 1.10,
            "tuner degradation {degradation} (paper reports ≤ 6 %)"
        );
    }

    #[test]
    fn bnb_matches_exhaustive_oracle_and_prunes() {
        // The acceptance criterion: on an enumerable space the
        // branch-and-bound search returns the exhaustive optimum's cost
        // *bit for bit* while scoring at most 10 % of the candidates.
        let p = platform(16);
        for (n, cb, ct, f) in [(64, 8, 16, 32), (128, 16, 16, 64), (64, 4, 64, 48)] {
            let w = LutWorkload::new(n, cb, ct, f).unwrap();
            let oracle = tune_with_options(&p, &w, TuneOptions::exhaustive_oracle()).unwrap();
            let bnb = tune(&p, &w).unwrap();
            assert_eq!(
                bnb.predicted_total_s.to_bits(),
                oracle.predicted_total_s.to_bits(),
                "({n},{cb},{ct},{f}): bnb {} != oracle {}",
                bnb.predicted_total_s,
                oracle.predicted_total_s
            );
            assert!(
                bnb.evaluated * 10 <= oracle.evaluated,
                "({n},{cb},{ct},{f}): bnb evaluated {} of {} candidates (> 10 %)",
                bnb.evaluated,
                oracle.evaluated
            );
        }
    }

    #[test]
    fn tune_rejects_impossible_platform() {
        let p = platform(7); // prime PE count, cannot split 64×32 evenly...
        let w = LutWorkload::new(64, 8, 16, 33).unwrap();
        assert!(matches!(
            tune(&p, &w),
            Err(TuneError::NoLegalMapping { .. })
        ));
        assert!(matches!(
            tune_with_options(&p, &w, TuneOptions::exhaustive_oracle()),
            Err(TuneError::NoLegalMapping { .. })
        ));
    }

    #[test]
    fn parallel_and_serial_agree() {
        let p = platform(16);
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let a = tune_with_options(
            &p,
            &w,
            TuneOptions {
                parallel: true,
                max_kernels_per_pair: 0,
                strategy: SearchStrategy::Exhaustive,
            },
        )
        .unwrap();
        let b = tune_with_options(&p, &w, TuneOptions::exhaustive_oracle()).unwrap();
        assert_eq!(a.evaluated, b.evaluated);
        assert!((a.predicted_total_s - b.predicted_total_s).abs() < 1e-15);
    }

    #[test]
    fn kernel_cap_limits_work() {
        let p = platform(16);
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let capped = tune_with_options(
            &p,
            &w,
            TuneOptions {
                parallel: false,
                max_kernels_per_pair: 10,
                strategy: SearchStrategy::Exhaustive,
            },
        )
        .unwrap();
        let full = tune_with_options(&p, &w, TuneOptions::exhaustive_oracle()).unwrap();
        assert!(capped.evaluated <= full.evaluated);
        assert!(full.predicted_total_s <= capped.predicted_total_s + 1e-15);
    }

    #[test]
    fn tuner_prefers_cheap_load_scheme_when_wram_is_tiny() {
        // With WRAM too small for static tables, the winner must be a
        // coarse/fine scheme.
        let mut p = platform(16);
        p.wram_bytes = 2048;
        let w = LutWorkload::new(64, 8, 64, 32).unwrap();
        let result = tune(&p, &w).unwrap();
        // Whatever wins, it must fit.
        assert!(result.mapping.wram_usage(&w) <= p.wram_bytes);
        if matches!(result.mapping.kernel.load_scheme, LoadScheme::Static) {
            assert!(w.cb * w.ct * result.mapping.f_stile <= p.wram_bytes);
        }
    }
}
