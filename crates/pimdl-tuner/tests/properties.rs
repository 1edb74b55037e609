//! Property-based tests for the auto-tuner.

use proptest::prelude::*;

use pimdl_sim::cost::estimate_cost;
use pimdl_sim::{LoadScheme, LutWorkload, PlatformConfig};
use pimdl_tuner::alloc::{
    allocate_global, allocate_per_layer, reference_code_bits, AllocOptions, OpShape,
};
use pimdl_tuner::model::{analytical_cost, relative_error};
use pimdl_tuner::space::{
    divisors, kernel_candidates, mapping_of, sub_lut_candidates, tile_candidates,
};
use pimdl_tuner::{bnb, tune_with_options, TuneOptions};

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

/// FNV-1a over the bytes of `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One layer's four linear operators of a transformer with hidden size
/// `h` and FFN size `ffn`, each repeated `layers` times.
fn layer_ops(h: usize, ffn: usize, layers: usize) -> Vec<OpShape> {
    [
        ("QKV", h, 3 * h),
        ("O", h, h),
        ("FFN1", h, ffn),
        ("FFN2", ffn, h),
    ]
    .into_iter()
    .map(|(name, in_dim, out_dim)| OpShape {
        name: name.to_string(),
        in_dim,
        out_dim,
        count: layers,
    })
    .collect()
}

/// Digest of both allocators' answers to one request at `budget` bytes
/// per PE, CT held at 16 and the floor at the uniform `(4, 16)` setting.
/// `{:?}` prints every `f64` so that it round-trips, so equal text means
/// equal bits.
fn plans_digest(platform: &PlatformConfig, ops: &[OpShape], n: usize, budget: usize) -> u64 {
    let mut opts = AllocOptions::with_budget(budget);
    opts.ct_choices = vec![16];
    opts.min_code_bits = reference_code_bits(ops, 4, 16);
    let mut platform = platform.clone();
    platform.mram_bytes = budget;
    fnv1a(&format!(
        "{:?}\n{:?}",
        allocate_per_layer(&platform, ops, n, &opts),
        allocate_global(&platform, ops, n, &opts)
    ))
}

/// Every plan both allocators return, pinned by digest: the benchmark's
/// request (BERT-base's four operators × 12 layers, batch 64 × seq 512 on
/// UPMEM, 2 MiB per PE) and the quick `alloc-budgets` sweep (the tiny
/// shape on 64 PEs, batch 4 × seq 32, three budgets). A search change
/// that moves one mapping or one prediction bit fails here.
#[test]
fn alloc_plans_are_pinned() {
    let mut small = PlatformConfig::upmem();
    small.num_pes = 64;
    let digests = [
        plans_digest(
            &PlatformConfig::upmem(),
            &layer_ops(768, 3072, 12),
            64 * 512,
            2 << 20,
        ),
        plans_digest(&small, &layer_ops(64, 256, 2), 4 * 32, 4 << 10),
        plans_digest(&small, &layer_ops(64, 256, 2), 4 * 32, 16 << 10),
        plans_digest(&small, &layer_ops(64, 256, 2), 4 * 32, 64 << 10),
    ];
    assert_eq!(
        digests,
        [
            0x60bb_1bbe_f5ce_24b6,
            0x673e_8750_fbb3_77d5,
            0xfae2_1171_922f_4fe4,
            0x0a01_8e03_b71d_873b,
        ],
        "{digests:#018x?}"
    );
}

/// Digest of both searches' answers on one workload: `bnb::search` (the
/// mapping, every prediction bit, `evaluated`, `pruned_subtrees`) and every
/// point of `bnb::pair_frontier`.
fn searches_digest(platform: &PlatformConfig, workload: &LutWorkload) -> u64 {
    fnv1a(&format!(
        "{:?}\n{:?}",
        bnb::search(platform, workload).unwrap(),
        bnb::pair_frontier(platform, workload, usize::MAX).unwrap()
    ))
}

/// Both branch-and-bound searches, pinned by digest: BERT-base's four
/// operators (V 4, CT 16) at batch 64 × seq 512 on all three platforms
/// (both `mem_hierarchy()` arms, per-PE and command-driven indices), one
/// `CT = 512` operator (two-byte indices) and one operator on a 2 KiB WRAM,
/// where no pair's static sub-LUT fits. A change to the leaf price, a
/// bound or the visit order that moves one mapping, one prediction bit or
/// one count fails here.
#[test]
fn bnb_searches_are_pinned() {
    let mut digests = Vec::new();
    for platform in PlatformConfig::all() {
        for op in layer_ops(768, 3072, 1) {
            let w = LutWorkload::new(64 * 512, op.in_dim / 4, 16, op.out_dim).unwrap();
            digests.push(searches_digest(&platform, &w));
        }
    }
    let mut small = PlatformConfig::upmem();
    small.num_pes = 64;
    digests.push(searches_digest(
        &small,
        &LutWorkload::new(256, 16, 512, 64).unwrap(),
    ));
    small.wram_bytes = 2048;
    digests.push(searches_digest(
        &small,
        &LutWorkload::new(256, 48, 64, 64).unwrap(),
    ));
    assert_eq!(
        digests,
        [
            0x9854_2f90_51a4_1358,
            0xd9d4_18bf_cca1_571c,
            0xc6e3_adae_140e_52f4,
            0xc10a_e368_44bd_ff8f,
            0x6a72_1451_2cc4_435d,
            0xe07f_3541_26f0_1852,
            0x3272_3785_f89c_240c,
            0x793e_ed42_1644_7cb0,
            0x3435_98e1_ebcb_4ca2,
            0x9c59_7fb3_cb1e_6c01,
            0xc1a0_63a7_ecfd_6bf1,
            0x7b5d_d85a_1270_2ecd,
            0x7701_f179_4c8d_2bc8,
            0xd3f5_55b3_7632_ec12,
        ],
        "{digests:#018x?}"
    );
}
