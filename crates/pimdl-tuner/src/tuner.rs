//! Algorithm 1: the auto-tuning workflow.
//!
//! For each legal sub-LUT tiling pair the tuner estimates the partition
//! overhead (Eq. 3) and searches the micro-kernel space for the fastest
//! kernel under the **hierarchical cost model** ([`crate::model`]: the
//! flat Eqs. 3–10 plus row-activation and layout-crossing terms). The
//! space has one definition ([`crate::space`]) and two readers:
//!
//! * [`SearchStrategy::BranchAndBound`] (the default) descends the tree,
//!   pruning subtrees with admissible lower bounds ([`crate::bnb`]), and
//!   typically scores a few percent of the candidates;
//! * [`SearchStrategy::Exhaustive`] scores the materialised list
//!   ([`crate::space::kernel_candidates`]) front to back. It is the
//!   reference: on enumerable spaces both return the same optimal cost bit
//!   for bit.

use pimdl_sim::config::PlatformConfig;
use pimdl_sim::{LutWorkload, Mapping};

use crate::bnb::Incumbent;
use crate::model::{hierarchical_cost, HierBreakdown};
use crate::space::{kernel_candidates, legal_pairs, mapping_of};
use crate::Result;

/// Which search walks the mapping space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchStrategy {
    /// Model-guided branch-and-bound with admissible lower bounds.
    #[default]
    BranchAndBound,
    /// Serial enumeration of the full space (the correctness oracle; only
    /// practical where the space is small enough to materialise).
    Exhaustive,
}

/// Options controlling the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TuneOptions {
    /// Search strategy (default: branch-and-bound).
    pub strategy: SearchStrategy,
}

impl TuneOptions {
    /// The exhaustive oracle over the full space — what the
    /// branch-and-bound result is verified against.
    pub fn exhaustive_oracle() -> Self {
        TuneOptions {
            strategy: SearchStrategy::Exhaustive,
        }
    }
}

/// Outcome of an auto-tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningResult {
    /// The best mapping found.
    pub mapping: Mapping,
    /// Hierarchical prediction (flat Eqs. 3–10 in `base` + row-activation
    /// + crossing) — the objective the search minimized.
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
/// Returns [`TuneError::NoLegalMapping`](crate::TuneError::NoLegalMapping)
/// if the workload cannot be evenly partitioned over the platform's PEs.
pub fn tune(platform: &PlatformConfig, workload: &LutWorkload) -> Result<TuningResult> {
    tune_with_options(platform, workload, TuneOptions::default())
}

/// Runs Algorithm 1 with explicit options.
///
/// # Errors
///
/// Returns [`TuneError::Sim`](crate::TuneError::Sim) if the workload has a
/// zero or overflowing dimension, and
/// [`TuneError::NoLegalMapping`](crate::TuneError::NoLegalMapping) if no
/// candidate validates.
pub fn tune_with_options(
    platform: &PlatformConfig,
    workload: &LutWorkload,
    options: TuneOptions,
) -> Result<TuningResult> {
    let (mapping, hierarchical, evaluated) = match options.strategy {
        SearchStrategy::BranchAndBound => {
            let out = crate::bnb::search(platform, workload)?;
            (out.mapping, out.predicted, out.evaluated)
        }
        SearchStrategy::Exhaustive => tune_exhaustive(platform, workload)?,
    };
    Ok(TuningResult {
        mapping,
        hierarchical,
        predicted_total_s: hierarchical.total_s(),
        evaluated,
    })
}

/// The reference: every candidate of every legal pair, in enumeration
/// order, scored with the hierarchical model (the objective
/// branch-and-bound shares).
fn tune_exhaustive(
    platform: &PlatformConfig,
    workload: &LutWorkload,
) -> Result<(Mapping, HierBreakdown, usize)> {
    let mut incumbent = Incumbent::default();
    for (n_s, f_s) in legal_pairs(workload, platform)? {
        for kernel in kernel_candidates(workload, platform, n_s, f_s) {
            let mapping = mapping_of(n_s, f_s, kernel);
            incumbent.offer(
                mapping,
                hierarchical_cost(platform, workload, &mapping).ok(),
            );
        }
    }
    incumbent.into_best(platform, workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TuneError;
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
    fn bnb_visit_order_is_pinned() {
        // `evaluated` and `pruned_subtrees` are functions of the visit
        // order (children best-first, ties in menu order; class gates
        // against the incumbent on entry), and `tune_sim`'s exact
        // `tuner.bnb.evaluated` rides on it: a drift must fail here. Of
        // the five legal pairs, `frontier` are on the capacity ↔ latency
        // frontier, and its last point is the global winner. `priced`
        // counts the legal leaves the search priced rather than counted;
        // before the leaf floors it was 52, 65 and 58. `walked` counts the
        // leaves visited one at a time: here every scored leaf.
        let p = platform(16);
        for (shape, (n_s, f_s, cb_m), evaluated, pruned, priced, walked, frontier) in [
            ((64, 8, 16, 32), (16, 8, 8), 106, 19, 48, 106, 3),
            ((128, 16, 16, 64), (32, 16, 16), 161, 22, 60, 161, 3),
            ((64, 4, 64, 48), (32, 6, 4), 82, 19, 54, 82, 2),
        ] {
            let w = LutWorkload::new(shape.0, shape.1, shape.2, shape.3).unwrap();
            let (out, leaves) = crate::bnb::search_priced(&p, &w).unwrap();
            // Every winner is the whole s-tile, N→F→CB, static LUT.
            let kernel = pimdl_sim::MicroKernel {
                n_mtile: n_s,
                f_mtile: f_s,
                cb_mtile: cb_m,
                traversal: pimdl_sim::TraversalOrder::Nfc,
                load_scheme: LoadScheme::Static,
            };
            assert_eq!(out.mapping, mapping_of(n_s, f_s, kernel), "{shape:?}");
            assert_eq!(
                (
                    out.evaluated,
                    out.pruned_subtrees,
                    leaves.priced,
                    leaves.walked
                ),
                (evaluated, pruned, priced, walked),
                "{shape:?}"
            );
            assert_eq!(legal_pairs(&w, &p).unwrap().len(), 5, "{shape:?}");
            let points = crate::bnb::pair_frontier(&p, &w).unwrap();
            assert_eq!(points.len(), frontier, "{shape:?}");
            assert_eq!(points[frontier - 1].mapping, out.mapping, "{shape:?}");
        }
        // At `tune_sim`'s size (BERT-base's FFN1, batch 64 × seq 512, the
        // full UPMEM) most tilings' multi-chunk coarse leaves are over the
        // bar on entry and counted in closed form: the search walks 2,411
        // leaves one at a time, and walked all 41,493 before.
        let w = LutWorkload::new(64 * 512, 768 / 4, 16, 3072).unwrap();
        let (out, leaves) = crate::bnb::search_priced(&PlatformConfig::upmem(), &w).unwrap();
        assert_eq!(
            (
                out.evaluated,
                out.pruned_subtrees,
                leaves.priced,
                leaves.walked
            ),
            (40_844, 1_382, 524, 2_411)
        );
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
    fn a_zero_dimension_is_refused_by_every_search() {
        // A struct literal skips `LutWorkload::new`; each entry point
        // refuses it before a trip count divides by it.
        let p = platform(16);
        let good = LutWorkload::new(64, 8, 16, 32).unwrap();
        for w in [
            LutWorkload { n: 0, ..good },
            LutWorkload { cb: 0, ..good },
            LutWorkload { ct: 0, ..good },
            LutWorkload { f: 0, ..good },
        ] {
            let refused = |r: Result<()>| {
                matches!(
                    r,
                    Err(TuneError::Sim(pimdl_sim::SimError::WorkloadMismatch { .. }))
                )
            };
            assert!(refused(tune(&p, &w).map(|_| ())), "{w:?}");
            let exhaustive = tune_with_options(&p, &w, TuneOptions::exhaustive_oracle());
            assert!(refused(exhaustive.map(|_| ())), "{w:?}");
            assert!(refused(crate::bnb::search(&p, &w).map(|_| ())), "{w:?}");
            assert!(
                refused(crate::bnb::pair_frontier(&p, &w).map(|_| ())),
                "{w:?}"
            );
        }
    }

    #[test]
    fn no_legal_mapping_reports_the_candidates_offered() {
        // 16 B of WRAM: even a 1-row, 1-feature, 1-codebook tiling needs
        // 5 B of m-tiles beside the smallest LUT buffer (16 B: fine-grain,
        // one feature per thread), so every candidate is illegal.
        let mut p = platform(16);
        p.wram_bytes = 16;
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let offered: usize = legal_pairs(&w, &p)
            .unwrap()
            .into_iter()
            .map(|(n_s, f_s)| kernel_candidates(&w, &p, n_s, f_s).len())
            .sum();
        assert!(offered > 0);
        let expected = format!(
            "none of the {offered} candidates offered fits 16 B of WRAM for (64, 8, 16, 32)"
        );
        match tune_with_options(&p, &w, TuneOptions::exhaustive_oracle()) {
            Err(TuneError::NoLegalMapping { detail }) => assert_eq!(detail, expected),
            other => panic!("expected NoLegalMapping, got {other:?}"),
        }
        // Branch-and-bound cuts every tiling above its leaves (no scheme
        // buffer fits beside its m-tiles), so it offers none.
        match tune(&p, &w) {
            Err(TuneError::NoLegalMapping { detail }) => {
                assert!(
                    detail.starts_with("none of the 0 candidates offered"),
                    "{detail}"
                )
            }
            other => panic!("expected NoLegalMapping, got {other:?}"),
        }
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
