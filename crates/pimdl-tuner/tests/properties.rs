//! Property-based tests for the auto-tuner.

use proptest::prelude::*;

use pimdl_sim::cost::estimate_cost;
use pimdl_sim::{LoadScheme, LutWorkload, PlatformConfig};
use pimdl_tuner::model::{analytical_cost, relative_error};
use pimdl_tuner::space::{
    divisors, kernel_candidates, mapping_of, sub_lut_candidates, tile_candidates,
};
use pimdl_tuner::{tune_with_options, TuneOptions};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// divisors(n) are exactly the numbers dividing n, sorted ascending.
    #[test]
    fn divisors_are_correct(n in 1usize..500) {
        let d = divisors(n);
        prop_assert!(d.windows(2).all(|w| w[0] < w[1]));
        for &x in &d {
            prop_assert_eq!(n % x, 0);
        }
        for x in 1..=n {
            if n % x == 0 {
                prop_assert!(d.contains(&x));
            }
        }
    }

    /// Tile candidates always divide the dimension and include 1 and the
    /// dimension itself.
    #[test]
    fn tile_candidates_divide(dim in 1usize..2048) {
        let c = tile_candidates(dim);
        prop_assert!(c.iter().all(|&t| dim % t == 0));
        prop_assert!(c.contains(&1) || dim == 1);
        prop_assert!(c.contains(&dim));
    }

    /// Every sub-LUT candidate satisfies Eq. 5 exactly.
    #[test]
    fn sub_lut_satisfies_eq5(n_pow in 2u32..8, f_pow in 2u32..8, pes_pow in 0u32..6) {
        let w = LutWorkload::new(1 << n_pow, 4, 16, 1 << f_pow).unwrap();
        let mut p = PlatformConfig::upmem();
        p.num_pes = 1 << pes_pow;
        for (n_s, f_s) in sub_lut_candidates(&w, &p) {
            prop_assert_eq!((w.n / n_s) * (w.f / f_s), p.num_pes);
        }
    }

    /// For deterministic load schemes (static/coarse) the analytical model
    /// never exceeds the simulated cost (it omits only additive overheads);
    /// fine-grain is data-dependent, so the model can land on either side —
    /// there only a bounded relative error holds (the §6.6 situation).
    #[test]
    fn model_underestimates_within_band(kernel_idx in 0usize..1000) {
        let w = LutWorkload::new(64, 8, 16, 32).unwrap();
        let mut p = PlatformConfig::upmem();
        p.num_pes = 16;
        let kernels = kernel_candidates(&w, &p, 16, 8);
        let kernel = kernels[kernel_idx % kernels.len()];
        let mapping = mapping_of(16, 8, kernel);
        if mapping.validate(&w, &p).is_err() {
            return Ok(());
        }
        let model = analytical_cost(&p, &w, &mapping).unwrap();
        let sim = estimate_cost(&p, &w, &mapping).unwrap();
        if !matches!(kernel.load_scheme, LoadScheme::FineGrain { .. }) {
            prop_assert!(model.total_s() <= sim.time.total_s() + 1e-12);
        }
        let err = relative_error(model.total_s(), sim.time.total_s());
        prop_assert!(err < 0.5, "error {err} for {mapping:?}");
    }

    /// The branch-and-bound oracle property: on randomly generated small
    /// mapping spaces, the pruned search returns a cost **exactly equal**
    /// (bit-identical) to the exhaustive enumerator's optimum — pruning
    /// may never lose a better mapping.
    #[test]
    fn bnb_cost_bit_identical_to_exhaustive(
        n_idx in 0usize..5,
        cb_idx in 0usize..3,
        ct_idx in 0usize..3,
        f_idx in 0usize..4,
        pes_idx in 0usize..3,
        wram_idx in 0usize..3,
    ) {
        let n = [16, 24, 32, 48, 64][n_idx];
        let cb = [2, 4, 8][cb_idx];
        let ct = [8, 16, 64][ct_idx];
        let f = [8, 16, 24, 32][f_idx];
        let mut p = PlatformConfig::upmem();
        p.num_pes = [4, 8, 16][pes_idx];
        // Vary WRAM so scheme feasibility (static vs coarse vs fine)
        // changes across cases.
        p.wram_bytes = [1024, 4096, 65536][wram_idx];
        let w = LutWorkload::new(n, cb, ct, f).unwrap();

        let oracle = tune_with_options(&p, &w, TuneOptions::exhaustive_oracle());
        let bnb = tune_with_options(&p, &w, TuneOptions::default());
        match (oracle, bnb) {
            (Ok(o), Ok(b)) => {
                prop_assert_eq!(
                    b.predicted_total_s.to_bits(),
                    o.predicted_total_s.to_bits(),
                    "bnb {} != exhaustive {} on ({},{},{},{}) pes={} wram={}",
                    b.predicted_total_s, o.predicted_total_s,
                    n, cb, ct, f, p.num_pes, p.wram_bytes
                );
                prop_assert!(b.evaluated <= o.evaluated);
            }
            (Err(_), Err(_)) => {} // both agree the space is empty
            (o, b) => prop_assert!(false, "strategies disagree: {o:?} vs {b:?}"),
        }
    }
}
