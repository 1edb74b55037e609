//! Property-based tests for the tensor substrate.

use proptest::prelude::*;

use pimdl_tensor::quant::QuantMatrix;
use pimdl_tensor::rng::DataRng;
use pimdl_tensor::{elementwise, gemm, norm, Matrix};

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim, any::<u64>())
        .prop_map(|(r, c, seed)| DataRng::new(seed).uniform_matrix(r, c, -10.0, 10.0))
}

/// The GEMM accumulation-order contract spelled out as the naive i-k-j
/// loop: every sum starts at `+0.0` and runs `k` ascending, and a left
/// element equal to zero contributes nothing.
fn oracle_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for p in 0..a.cols() {
            let x = a.get(i, p);
            if x == 0.0 {
                continue;
            }
            for j in 0..b.cols() {
                c.set(i, j, c.get(i, j) + x * b.get(p, j));
            }
        }
    }
    c
}

/// Bit patterns, with every NaN read as the one `f32::NAN`: Rust leaves
/// the sign and payload of a NaN *result* to the code generator (which
/// operand's NaN an add propagates), so only NaN-ness is comparable there.
fn bits(m: &Matrix) -> Vec<u32> {
    m.iter().map(|&v| canonical_bits(v)).collect()
}

fn canonical_bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// Plants at seed-chosen places the values a summation order or a skipped
/// product can tell apart — NaN, ±∞, ±0, subnormals — plus exact zeros at
/// one in eight places, and optionally zeroes a whole row.
fn plant_specials(m: &mut Matrix, rng: &mut DataRng, zero_row: bool) {
    let (r, c) = m.shape();
    if r == 0 || c == 0 {
        return;
    }
    for _ in 0..r * c / 8 {
        m.set(rng.index(r), rng.index(c), 0.0);
    }
    for special in [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        1e-40,
        -1e-40,
    ] {
        m.set(rng.index(r), rng.index(c), special);
    }
    if zero_row {
        m.row_mut(rng.index(r)).fill(0.0);
    }
}

/// GELU and its derivative as they were written before the tanh was
/// shared: each recomputes `tanh` itself.
fn oracle_gelu(v: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * v * (1.0 + (SQRT_2_OVER_PI * (v + 0.044_715 * v * v * v)).tanh())
}

fn oracle_gelu_grad(v: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let inner = SQRT_2_OVER_PI * (v + 0.044_715 * v * v * v);
    let t = inner.tanh();
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * v * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * v * v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (Aᵀ)ᵀ = A.
    #[test]
    fn transpose_involution(m in arb_matrix(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// A·I = A and I·A = A.
    #[test]
    fn gemm_identity(m in arb_matrix(10)) {
        let right = gemm::matmul(&m, &Matrix::eye(m.cols())).unwrap();
        prop_assert!(right.approx_eq(&m, 1e-4));
        let left = gemm::matmul(&Matrix::eye(m.rows()), &m).unwrap();
        prop_assert!(left.approx_eq(&m, 1e-4));
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn gemm_transpose_rule(seed in any::<u64>(), m in 1usize..8, k in 1usize..8, n in 1usize..8) {
        let mut rng = DataRng::new(seed);
        let a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let b = rng.uniform_matrix(k, n, -2.0, 2.0);
        let lhs = gemm::matmul(&a, &b).unwrap().transpose();
        let rhs = gemm::matmul(&b.transpose(), &a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-3));
    }

    /// All four GEMM entry points hold the accumulation-order contract to
    /// the bit: `matmul` and `matmul_parallel` on `A · B`, `matmul_tn` on an
    /// explicitly transposed copy of `A`, `matmul_nt` on one of `B`, each
    /// against the naive oracle. Shapes cross every column-block edge
    /// (including empty ones); specials are planted in both operands.
    #[test]
    fn gemm_variants_agree(
        seed in any::<u64>(),
        m in 0usize..=70, k in 0usize..=70, n in 0usize..=70,
        threads in 1usize..9,
        specials in any::<bool>(),
        zero_row in any::<bool>(),
    ) {
        let mut rng = DataRng::new(seed);
        let mut a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let mut b = rng.uniform_matrix(k, n, -2.0, 2.0);
        if specials {
            plant_specials(&mut a, &mut rng, zero_row);
            plant_specials(&mut b, &mut rng, false);
        }
        let want = bits(&oracle_matmul(&a, &b));
        prop_assert_eq!(bits(&gemm::matmul(&a, &b).unwrap()), want.clone());
        let parallel = gemm::matmul_parallel(&a, &b, threads).unwrap();
        prop_assert_eq!(bits(&parallel), want.clone());
        let tn = gemm::matmul_tn(&a.transpose(), &b).unwrap();
        prop_assert_eq!(bits(&tn), want.clone());
        let nt = gemm::matmul_nt(&a, &b.transpose()).unwrap();
        prop_assert_eq!(bits(&nt), want);
    }

    /// The tanh-once GELU pair equals the two formulas that each computed
    /// their own tanh, to the bit, on ordinary values, huge magnitudes
    /// (where the cube overflows) and the IEEE specials.
    #[test]
    fn gelu_pair_matches_separate_formulas(
        seed in any::<u64>(),
        len in 1usize..40,
        specials in any::<bool>(),
    ) {
        let mut rng = DataRng::new(seed);
        let mut x = rng.uniform_matrix(1, len, -8.0, 8.0);
        let dy = rng.uniform_matrix(1, len, -2.0, 2.0);
        if specials {
            for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 1e-40, 3e13, -3e13] {
                x.set(0, rng.index(len), v);
            }
        }
        let (y, t) = elementwise::gelu_forward(&x);
        prop_assert_eq!(bits(&y), bits(&x.map(oracle_gelu)));
        let dx = elementwise::gelu_backward(&x, &t, &dy).unwrap();
        let want: Vec<u32> = x
            .iter()
            .zip(dy.iter())
            .map(|(&v, &g)| canonical_bits(g * oracle_gelu_grad(v)))
            .collect();
        prop_assert_eq!(bits(&dx), want);
    }

    /// INT8 quantization: roundtrip error per element ≤ scale/2.
    #[test]
    fn quant_roundtrip_bound(m in arb_matrix(12)) {
        let q = QuantMatrix::quantize(&m);
        let back = q.dequantize();
        let bound = q.scale() / 2.0 + 1e-6;
        for (a, b) in m.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() <= bound, "{a} vs {b} (scale {})", q.scale());
        }
    }

    /// Softmax rows are probability distributions and invariant to shifts.
    #[test]
    fn softmax_distribution(m in arb_matrix(10), shift in -50.0f32..50.0) {
        let s = norm::softmax(&m);
        for r in 0..s.rows() {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&v| (0.0..=1.0001).contains(&v)));
        }
        let shifted = norm::softmax(&m.map(|v| v + shift));
        prop_assert!(s.approx_eq(&shifted, 1e-4));
    }

    /// LayerNorm output rows have ~zero mean and ~unit variance with
    /// identity gamma/beta.
    #[test]
    fn layernorm_standardizes(seed in any::<u64>(), r in 1usize..8, c in 4usize..24) {
        let m = DataRng::new(seed).uniform_matrix(r, c, -5.0, 5.0);
        let gamma = vec![1.0; c];
        let beta = vec![0.0; c];
        let (y, _) = norm::layernorm_forward(&m, &gamma, &beta).unwrap();
        for row in 0..r {
            let mean: f32 = y.row(row).iter().sum::<f32>() / c as f32;
            prop_assert!(mean.abs() < 1e-3, "mean={mean}");
        }
    }

    /// GELU band properties: monotone for x ≥ 0 (it dips below zero with a
    /// minimum near x ≈ −0.75, so global monotonicity does not hold),
    /// bounded by the identity for positive inputs, and within [−0.2, 0]
    /// for negative inputs.
    #[test]
    fn gelu_band(x in -6.0f32..6.0) {
        let (ys, _) = elementwise::gelu_forward(&Matrix::from_vec(1, 2, vec![x, x + 0.1]).unwrap());
        let y = ys.get(0, 0);
        if x >= 0.0 {
            let y2 = ys.get(0, 1);
            prop_assert!(y2 >= y - 1e-4, "not monotone at {x}");
            prop_assert!(y <= x + 1e-5 && y >= 0.0);
        } else {
            prop_assert!((-0.2..=1e-5).contains(&y), "y={y} at x={x}");
        }
    }

    /// vcat/hcat round-trip through submatrix extraction.
    #[test]
    fn cat_split_roundtrip(seed in any::<u64>(), r1 in 1usize..6, r2 in 1usize..6, c in 1usize..6) {
        let mut rng = DataRng::new(seed);
        let a = rng.uniform_matrix(r1, c, -1.0, 1.0);
        let b = rng.uniform_matrix(r2, c, -1.0, 1.0);
        let v = Matrix::vcat(&[&a, &b]).unwrap();
        prop_assert_eq!(v.submatrix(0, 0, r1, c).unwrap(), a);
        prop_assert_eq!(v.submatrix(r1, 0, r2, c).unwrap(), b);
    }

    /// Frobenius norm is subadditive: ||A+B|| ≤ ||A|| + ||B||.
    #[test]
    fn frobenius_triangle(seed in any::<u64>(), r in 1usize..6, c in 1usize..6) {
        let mut rng = DataRng::new(seed);
        let a = rng.uniform_matrix(r, c, -3.0, 3.0);
        let b = rng.uniform_matrix(r, c, -3.0, 3.0);
        let sum = a.add(&b).unwrap();
        prop_assert!(
            sum.frobenius_sq().sqrt()
                <= a.frobenius_sq().sqrt() + b.frobenius_sq().sqrt() + 1e-4
        );
    }
}
