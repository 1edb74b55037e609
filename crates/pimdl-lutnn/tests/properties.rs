//! Property-based tests for the LUT-NN core invariants.

use proptest::prelude::*;

use pimdl_lutnn::calibrate::{
    calibrate_elutnn, calibrate_lutnn_baseline, collect_activations, BaselineLutNnConfig,
    CalibStats, CalibrationConfig, CentroidInit,
};
use pimdl_lutnn::convert::LutClassifier;
use pimdl_lutnn::kernels::{
    lut_checksum_quant, lut_linear_fused, lut_linear_fused_quant, lut_linear_fused_quant_parallel,
    lut_linear_fused_quant_tiled, lut_linear_fused_tiled, FusedTiling, FUSED_F_TILE,
    FUSED_ROW_TILE,
};
use pimdl_lutnn::kmeans::{kmeans, sq_dist};
use pimdl_lutnn::lut::{LutTable, QuantLutTable};
use pimdl_lutnn::pq::{IndexMatrix, ProductQuantizer};
use pimdl_nn::data::{nlp_dataset, NlpTask};
use pimdl_nn::train::{train, TrainConfig};
use pimdl_nn::transformer::{InputKind, ModelConfig, TransformerClassifier};
use pimdl_tensor::gemm;
use pimdl_tensor::quant::QuantMatrix;
use pimdl_tensor::rng::DataRng;
use pimdl_tensor::Matrix;

/// Rounds every entry to a multiple of `step`, manufacturing duplicate
/// centroids and exactly equidistant candidates so ties are common.
fn snap_to_grid(m: &Matrix, step: f32) -> Matrix {
    let data = m
        .as_slice()
        .iter()
        .map(|&v| (v / step).round() * step)
        .collect();
    Matrix::from_vec(m.rows(), m.cols(), data).expect("same shape")
}

/// `(lut_checksum_quant, Σ f64::from over QuantLutTable::lookup)` as bits,
/// for a random full-range INT8 table and random in-range indices.
fn checksum_vs_lookup(seed: u64, n: usize, cb: usize, ct: usize, f: usize) -> (u64, u64) {
    let mut rng = DataRng::new(seed);
    let codes = (0..cb * ct * f)
        .map(|_| (rng.index(256) as i32 - 128) as i8)
        .collect();
    let table = QuantMatrix::from_codes(cb * ct, f, 0.05, codes).unwrap();
    let qlut = QuantLutTable::from_parts(cb, ct, f, table).unwrap();
    let indices: Vec<u16> = (0..n * cb).map(|_| rng.index(ct) as u16).collect();
    let out = qlut
        .lookup(&IndexMatrix::from_vec(n, cb, indices.clone()).unwrap())
        .unwrap();
    let reference: f64 = out.as_slice().iter().map(|&v| f64::from(v)).sum();
    let checksum = lut_checksum_quant(n, &indices, &qlut).unwrap();
    (checksum.to_bits(), reference.to_bits())
}

/// The shapes the random ranges below cannot reach: a row wider than one
/// fused feature tile and a request taller than one fused row tile.
#[test]
fn checksum_bit_identical_past_the_fused_tiles() {
    let (got, want) = checksum_vs_lookup(1, 5, 6, 4, FUSED_F_TILE + 37);
    assert_eq!(got, want, "F > FUSED_F_TILE");
    let (got, want) = checksum_vs_lookup(2, FUSED_ROW_TILE + 9, 5, 3, 11);
    assert_eq!(got, want, "N > FUSED_ROW_TILE");
}

/// The INT8 gather's seams — the 8-codebook pass, the 128-codebook i16 run
/// — under tables that drive every partial sum to its extreme: all +127,
/// all -128 (which `QuantMatrix::from_codes` admits) and alternating sign.
/// In this debug build an i16 or i32 wrap panics, so the run bound is
/// checked here, not only the result.
#[test]
fn saturated_tables_at_the_gather_seams() {
    let (n, v, ct) = (3usize, 1usize, 2usize);
    let mut rng = DataRng::new(77);
    for cb in [7usize, 8, 9, 127, 128, 129, 257] {
        let pq = ProductQuantizer::from_centroids(rng.normal_matrix(cb * ct, v, 0.0, 1.0), v, ct)
            .unwrap();
        let cbs = pq.interleaved();
        let x = rng.normal_matrix(n, cb * v, 0.0, 1.0);
        let idx = pq.encode(&x).unwrap();
        for f in [1usize, 15, 16, 17, 66] {
            type Fill = fn(usize) -> i8;
            let fills: [(&str, Fill); 3] = [
                ("+127", |_| 127),
                ("-128", |_| -128),
                ("alternating", |i| if i % 2 == 0 { 127 } else { -128 }),
            ];
            for (name, fill) in fills {
                let codes = (0..cb * ct * f).map(fill).collect();
                let table = QuantMatrix::from_codes(cb * ct, f, 0.05, codes).unwrap();
                let qlut = QuantLutTable::from_parts(cb, ct, f, table).unwrap();
                let reference = qlut.lookup(&idx).unwrap();
                let fused = lut_linear_fused_quant(&x, &cbs, &qlut).unwrap();
                let bits =
                    |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fused), bits(&reference), "CB {cb} F {f} {name}");
                let want: f64 = reference.as_slice().iter().map(|&v| f64::from(v)).sum();
                let got = lut_checksum_quant(n, idx.as_slice(), &qlut).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "CB {cb} F {f} {name}");
            }
        }
    }
}

/// Plants the values a distance cannot order — NaN, both infinities, and
/// magnitudes whose squares overflow — at seed-chosen places in `x`, and
/// makes its first row all NaN.
fn plant_specials(x: &mut Matrix, rng: &mut DataRng) {
    let (n, h) = x.shape();
    if n == 0 {
        return;
    }
    for special in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e30] {
        x.set(rng.index(n), rng.index(h), special);
    }
    x.row_mut(0).fill(f32::NAN);
}

/// FNV-1a over the little-endian bytes of each value's bit pattern.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f32s<'a>(&mut self, vs: impl IntoIterator<Item = &'a f32>) {
        for v in vs {
            self.u64(u64::from(v.to_bits()));
        }
    }

    fn params(&mut self, model: &TransformerClassifier) {
        model
            .clone()
            .visit_params(&mut |p| self.f32s(p.data.as_slice()));
    }

    fn calibrated(
        mut self,
        (model, quantizers, stats): (TransformerClassifier, Vec<ProductQuantizer>, CalibStats),
    ) -> u64 {
        self.params(&model);
        for pq in &quantizers {
            self.f32s(pq.centroids().as_slice());
        }
        self.f32s(&stats.losses);
        self.f32s(&stats.recon_losses);
        self.0
    }
}

/// The six callers of the one encoder walk, to the bit: the digests were
/// recorded before the walk was shared (five hand-kept copies of the block)
/// and must never move without the `results/` accuracy artefacts moving too.
#[test]
fn encoder_walk_callers_are_bit_stable() {
    let mut rng = DataRng::new(2024);
    let ds = nlp_dataset(NlpTask::ContainsAnswer, 72, 12, 6, &mut rng);
    let cfg = ModelConfig {
        input: InputKind::Tokens { vocab: 12 },
        hidden: 16,
        heads: 2,
        layers: 2,
        ffn_dim: 32,
        max_seq: 6,
        classes: 2,
    };
    let mut model = TransformerClassifier::new(&cfg, &mut rng);
    let stats = train(
        &mut model,
        &ds,
        &TrainConfig {
            epochs: 3,
            batch_size: 8,
            lr: 3e-3,
            schedule: Default::default(),
            seed: 1,
        },
    )
    .unwrap();
    let mut got = Vec::new();

    let mut d = Digest::new();
    d.f32s(&stats.epoch_losses);
    d.f32s(&stats.epoch_accuracies);
    d.params(&model);
    got.push(("train", d.0));

    // 10 sequences of 6 rows against a 40-row cap: the seventh is cut.
    let mut d = Digest::new();
    for acts in collect_activations(&model, &ds.inputs[..10], 40).unwrap() {
        d.u64(acts.rows() as u64);
        d.f32s(acts.as_slice());
    }
    got.push(("collect_activations", d.0));

    let calib = ds.take(24);
    let ecfg = CalibrationConfig {
        v: 4,
        ct: 8,
        init: CentroidInit::KMeans,
        kmeans_iters: 5,
        beta: 1e-3,
        lr: 2e-3,
        epochs: 2,
        batch_size: 8,
        seed: 5,
        max_activation_rows: 512,
    };
    let elut = calibrate_elutnn(&model, &calib, &ecfg).unwrap();
    let lut_model = LutClassifier::convert(&elut.0, elut.1.clone()).unwrap();
    got.push(("calibrate_elutnn", Digest::new().calibrated(elut)));

    for (name, gumbel_noise) in [("baseline_gumbel", true), ("baseline_soft", false)] {
        let bcfg = BaselineLutNnConfig {
            v: 4,
            ct: 8,
            gumbel_noise,
            lr: 2e-3,
            epochs: 2,
            seed: 5,
            max_activation_rows: 512,
            ..BaselineLutNnConfig::default()
        };
        let tuned = calibrate_lutnn_baseline(&model, &calib, &bcfg).unwrap();
        got.push((name, Digest::new().calibrated(tuned)));
    }

    for (name, int8) in [("predict_f32", false), ("predict_int8", true)] {
        let mut d = Digest::new();
        for input in &ds.inputs[..8] {
            d.f32s(lut_model.predict(input, int8).unwrap().as_slice());
        }
        got.push((name, d.0));
    }

    let mut d = Digest::new();
    for row in lut_model.layer_diagnostics(&ds.inputs[..8]).unwrap() {
        d.f32s(&[row.quantization_mse]);
        d.u64(row.index_repeat_fraction.to_bits());
        d.u64(row.lut_bytes as u64);
    }
    got.push(("layer_diagnostics", d.0));

    let want: [(&str, u64); 8] = [
        ("train", 0x67f3_286d_de03_6de2),
        ("collect_activations", 0xb500_14e9_e724_ae21),
        ("calibrate_elutnn", 0xe88a_3608_d7b2_d760),
        ("baseline_gumbel", 0x9c27_c8fe_3145_dcfc),
        ("baseline_soft", 0xfa5b_47eb_8a46_c281),
        ("predict_f32", 0xe6b4_f1d4_bc20_6778),
        ("predict_int8", 0xec29_1a2d_16e7_9a77),
        ("layer_diagnostics", 0x4f30_a72f_bb62_c2f3),
    ];
    assert_eq!(got, want, "got {got:#x?}");
}

/// One eLUT-NN conversion at the benchmark's `calibrate` shape — hidden 32
/// over 4 heads, 4 layers, FFN 64, 8 tokens of a 16-word vocabulary, V 4,
/// CT 8, random model and centroid init, 48 sequences, 2 epochs — to the
/// bit. At this width the GEMMs run full 32-column blocks, a 96-wide QKV
/// and a 64-wide FFN, which the hidden-16 digests above never reach.
#[test]
fn calibrate_workload_shape_is_bit_stable() {
    let mut rng = DataRng::new(26);
    let calib = nlp_dataset(NlpTask::ContainsAnswer, 48, 16, 8, &mut rng);
    let cfg = ModelConfig {
        input: InputKind::Tokens { vocab: 16 },
        hidden: 32,
        heads: 4,
        layers: 4,
        ffn_dim: 64,
        max_seq: 8,
        classes: NlpTask::ContainsAnswer.classes(),
    };
    let model = TransformerClassifier::new(&cfg, &mut rng);
    let ecfg = CalibrationConfig {
        v: 4,
        ct: 8,
        init: CentroidInit::Random,
        kmeans_iters: 0,
        beta: 1e-3,
        lr: 2e-3,
        epochs: 2,
        batch_size: 8,
        seed: 7,
        max_activation_rows: 4096,
    };
    let tuned = calibrate_elutnn(&model, &calib, &ecfg).unwrap();
    let lut_model = LutClassifier::convert(&tuned.0, tuned.1.clone()).unwrap();
    let mut d = Digest::new();
    for input in &calib.inputs[..16] {
        d.f32s(lut_model.predict(input, true).unwrap().as_slice());
    }
    let got = Digest(d.0).calibrated(tuned);
    assert_eq!(got, 0xf5f9_3420_5073_6375, "got {got:#x}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The index-driven checksum kernel equals the sum of the reference
    /// lookup to the bit (CB up to 13 runs the 4-way unroll's tail).
    #[test]
    fn checksum_bit_identical_to_lookup_sum(
        seed in any::<u64>(),
        n in 1usize..41,
        cb in 1usize..14,
        ct in 2usize..18,
        f in 1usize..71,
    ) {
        let (got, want) = checksum_vs_lookup(seed, n, cb, ct, f);
        prop_assert_eq!(got, want);
    }

    /// Decoding any encoding yields sub-vectors that are actual centroids,
    /// and each is the *nearest* centroid of its codebook.
    #[test]
    fn encode_picks_nearest(seed in any::<u64>(), cb in 1usize..4, v in 1usize..4, ct in 2usize..9) {
        let h = cb * v;
        let mut rng = DataRng::new(seed);
        let calib = rng.normal_matrix(32.max(4 * ct), h, 0.0, 1.0);
        let pq = ProductQuantizer::fit(&calib, v, ct, 8, &mut rng).unwrap();
        let x = rng.normal_matrix(6, h, 0.0, 1.0);
        let idx = pq.encode(&x).unwrap();
        for r in 0..x.rows() {
            for c in 0..cb {
                let sub = &x.row(r)[c * v..(c + 1) * v];
                let chosen = sq_dist(sub, pq.centroid(c, idx.get(r, c) as usize));
                for k in 0..ct {
                    prop_assert!(chosen <= sq_dist(sub, pq.centroid(c, k)) + 1e-5);
                }
            }
        }
    }

    /// Quantization MSE never increases when centroids are a superset-quality
    /// fit (more Lloyd iterations with the same seed).
    #[test]
    fn more_iterations_do_not_hurt(seed in any::<u64>()) {
        let mut rng = DataRng::new(seed);
        let acts = rng.normal_matrix(64, 8, 0.0, 1.0);
        let short = ProductQuantizer::fit(&acts, 2, 4, 1, &mut DataRng::new(7)).unwrap();
        let long = ProductQuantizer::fit(&acts, 2, 4, 25, &mut DataRng::new(7)).unwrap();
        let mse_short = short.quantization_mse(&acts).unwrap();
        let mse_long = long.quantization_mse(&acts).unwrap();
        prop_assert!(mse_long <= mse_short * 1.01 + 1e-6,
            "long {mse_long} vs short {mse_short}");
    }

    /// INT8 LUT lookup error is bounded by CB × scale/2 per output element.
    #[test]
    fn quantized_lookup_error_bound(seed in any::<u64>(), cb in 1usize..5, f in 1usize..10) {
        let v = 2usize;
        let ct = 8usize;
        let h = cb * v;
        let mut rng = DataRng::new(seed);
        let calib = rng.normal_matrix(64, h, 0.0, 1.0);
        let weight = rng.normal_matrix(h, f, 0.0, 0.5);
        let pq = ProductQuantizer::fit(&calib, v, ct, 8, &mut rng).unwrap();
        let lut = LutTable::build(&pq, &weight).unwrap();
        let qlut = lut.quantize();
        let x = rng.normal_matrix(4, h, 0.0, 1.0);
        let idx = pq.encode(&x).unwrap();
        let exact = lut.lookup(&idx).unwrap();
        let quant = qlut.lookup(&idx).unwrap();
        let bound = qlut.table().scale() * cb as f32 * 0.51 + 1e-5;
        prop_assert!(exact.sub(&quant).unwrap().max_abs() <= bound);
    }

    /// k-means inertia equals the sum of squared distances to assigned
    /// centroids, and assignments are optimal.
    #[test]
    fn kmeans_inertia_consistent(seed in any::<u64>(), n in 4usize..30, k in 1usize..6) {
        let mut rng = DataRng::new(seed);
        let points = rng.normal_matrix(n, 3, 0.0, 2.0);
        let result = kmeans(&points, k, 20, &mut rng).unwrap();
        let mut total = 0.0;
        for (i, &a) in result.assignments.iter().enumerate() {
            total += sq_dist(points.row(i), result.centroids.row(a));
        }
        prop_assert!((total - result.inertia).abs() <= 1e-3 * (1.0 + total));
    }

    /// LUT construction is linear in the weight: LUT(W1 + W2) entry-wise
    /// equals LUT(W1) + LUT(W2).
    #[test]
    fn lut_linear_in_weight(seed in any::<u64>()) {
        let mut rng = DataRng::new(seed);
        let calib = rng.normal_matrix(32, 8, 0.0, 1.0);
        let pq = ProductQuantizer::fit(&calib, 2, 4, 8, &mut rng).unwrap();
        let w1 = rng.normal_matrix(8, 6, 0.0, 1.0);
        let w2 = rng.normal_matrix(8, 6, 0.0, 1.0);
        let sum = w1.add(&w2).unwrap();
        let l1 = LutTable::build(&pq, &w1).unwrap();
        let l2 = LutTable::build(&pq, &w2).unwrap();
        let ls = LutTable::build(&pq, &sum).unwrap();
        let combined = l1.table().add(l2.table()).unwrap();
        prop_assert!(combined.approx_eq(ls.table(), 1e-4));
    }

    /// The approximation error of the full LUT path is exactly the error of
    /// the snapped input propagated through W:
    /// `LUT(encode(x)) − x·W == (x̂ − x)·W`.
    #[test]
    fn error_decomposition(seed in any::<u64>()) {
        let mut rng = DataRng::new(seed);
        let calib = rng.normal_matrix(48, 8, 0.0, 1.0);
        let weight = rng.normal_matrix(8, 5, 0.0, 0.5);
        let pq = ProductQuantizer::fit(&calib, 2, 4, 8, &mut rng).unwrap();
        let lut = LutTable::build(&pq, &weight).unwrap();
        let x = rng.normal_matrix(4, 8, 0.0, 1.0);
        let (x_hat, idx) = pq.snap(&x).unwrap();
        let approx = lut.lookup(&idx).unwrap();
        let exact = gemm::matmul(&x, &weight).unwrap();
        let lhs = approx.sub(&exact).unwrap();
        let rhs = gemm::matmul(&x_hat.sub(&x).unwrap(), &weight).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    /// The fused kernel is *bit-identical* to the two-pass reference
    /// `lookup(encode(x))` — f32 and INT8 — over random shapes including
    /// n = 0, V = 1, CT = 1, tie-prone grid-snapped inputs, and inputs
    /// holding NaN, infinities and overflowing magnitudes; CB spans full
    /// eight-codebook blocks, the tail block and both together.
    #[test]
    fn fused_matches_two_pass_exactly(
        seed in any::<u64>(),
        n in 0usize..7,
        cb in 1usize..20,
        v in 1usize..5,
        ct in 1usize..9,
        f in 1usize..10,
        ties in any::<bool>(),
        specials in any::<bool>(),
    ) {
        let h = cb * v;
        let mut rng = DataRng::new(seed);
        let mut centroids = rng.normal_matrix(cb * ct, v, 0.0, 1.0);
        let mut x = rng.normal_matrix(n, h, 0.0, 1.0);
        if ties {
            centroids = snap_to_grid(&centroids, 1.0);
            x = snap_to_grid(&x, 1.0);
        }
        if specials {
            plant_specials(&mut x, &mut rng);
        }
        let pq = ProductQuantizer::from_centroids(centroids, v, ct).unwrap();
        let weight = rng.normal_matrix(h, f, 0.0, 0.5);
        let lut = LutTable::build(&pq, &weight).unwrap();
        let qlut = lut.quantize();
        let cbs = pq.interleaved();
        let idx = pq.encode(&x).unwrap();

        let reference = lut.lookup(&idx).unwrap();
        let fused = lut_linear_fused(&x, &cbs, &lut).unwrap();
        prop_assert_eq!(reference.as_slice(), fused.as_slice());

        let qreference = qlut.lookup(&idx).unwrap();
        let qfused = lut_linear_fused_quant(&x, &cbs, &qlut).unwrap();
        prop_assert_eq!(qreference.as_slice(), qfused.as_slice());
    }

    /// Tile sizes are a pure blocking decision: every `FusedTiling` yields
    /// bit-identical output to the default tiling, f32 and INT8, including
    /// tiles larger than the problem and 1 x 1 tiles.
    #[test]
    fn tiling_does_not_change_bits(
        seed in any::<u64>(),
        n in 0usize..9,
        cb in 1usize..4,
        f in 1usize..12,
        row_tile in 1usize..12,
        f_tile in 1usize..14,
    ) {
        let (v, ct) = (2usize, 4usize);
        let h = cb * v;
        let mut rng = DataRng::new(seed);
        let centroids = rng.normal_matrix(cb * ct, v, 0.0, 1.0);
        let pq = ProductQuantizer::from_centroids(centroids, v, ct).unwrap();
        let weight = rng.normal_matrix(h, f, 0.0, 0.5);
        let lut = LutTable::build(&pq, &weight).unwrap();
        let qlut = lut.quantize();
        let cbs = pq.interleaved();
        let x = rng.normal_matrix(n, h, 0.0, 1.0);
        let tiling = FusedTiling { row_tile, f_tile };

        let reference = lut_linear_fused(&x, &cbs, &lut).unwrap();
        let tiled = lut_linear_fused_tiled(&x, &cbs, &lut, tiling).unwrap();
        prop_assert_eq!(reference.as_slice(), tiled.as_slice());

        let qreference = lut_linear_fused_quant(&x, &cbs, &qlut).unwrap();
        let qtiled = lut_linear_fused_quant_tiled(&x, &cbs, &qlut, tiling).unwrap();
        prop_assert_eq!(qreference.as_slice(), qtiled.as_slice());
    }

    /// The interleaved-layout CCS picks identical indices to the row-major
    /// reference encode — same strict-`<` first-wins tie-break — including
    /// on tie-prone snapped inputs, degenerate V = 1 / CT = 1 / n = 0, and
    /// sub-vectors whose every distance is NaN or +inf (index 0, as the
    /// reference's `d < best_d` never fires); CB spans full eight-codebook
    /// blocks, the tail block and both together.
    #[test]
    fn interleaved_encode_matches_row_major(
        seed in any::<u64>(),
        n in 0usize..8,
        cb in 1usize..20,
        v in 1usize..5,
        ct in 1usize..9,
        ties in any::<bool>(),
        specials in any::<bool>(),
    ) {
        let h = cb * v;
        let mut rng = DataRng::new(seed);
        let mut centroids = rng.normal_matrix(cb * ct, v, 0.0, 1.0);
        let mut x = rng.normal_matrix(n, h, 0.0, 1.0);
        if ties {
            centroids = snap_to_grid(&centroids, 1.0);
            x = snap_to_grid(&x, 1.0);
        }
        if specials {
            plant_specials(&mut x, &mut rng);
        }
        let pq = ProductQuantizer::from_centroids(centroids, v, ct).unwrap();
        let cbs = pq.interleaved();
        prop_assert_eq!(pq.encode(&x).unwrap(), cbs.encode(&x).unwrap());
    }

    /// Worker-pool width never changes a single bit of either parallel
    /// kernel's output: encode and fused INT8 agree with their
    /// single-thread runs for threads ∈ {1, 2, 7, 64}.
    #[test]
    fn pool_width_does_not_change_bits(seed in any::<u64>(), n in 0usize..9) {
        let (cb, v, ct, f) = (3usize, 2usize, 4usize, 5usize);
        let h = cb * v;
        let mut rng = DataRng::new(seed);
        let centroids = rng.normal_matrix(cb * ct, v, 0.0, 1.0);
        let pq = ProductQuantizer::from_centroids(centroids, v, ct).unwrap();
        let weight = rng.normal_matrix(h, f, 0.0, 0.5);
        let lut = LutTable::build(&pq, &weight).unwrap();
        let qlut = lut.quantize();
        let cbs = pq.interleaved();
        let x = rng.normal_matrix(n, h, 0.0, 1.0);

        let idx = cbs.encode(&x).unwrap();
        let qfused = lut_linear_fused_quant(&x, &cbs, &qlut).unwrap();
        for threads in [1usize, 2, 7, 64] {
            prop_assert_eq!(&idx, &cbs.encode_parallel(&x, threads).unwrap());
            let qpar = lut_linear_fused_quant_parallel(&x, &cbs, &qlut, threads).unwrap();
            prop_assert_eq!(qfused.as_slice(), qpar.as_slice());
        }
    }
}
