//! Property-based tests for the tensor substrate.

use proptest::prelude::*;

use pimdl_tensor::quant::QuantMatrix;
use pimdl_tensor::rng::DataRng;
use pimdl_tensor::{elementwise, gemm, norm, Matrix};

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim, any::<u64>())
        .prop_map(|(r, c, seed)| DataRng::new(seed).uniform_matrix(r, c, -10.0, 10.0))
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

    /// Parallel GEMM is bit-identical to the reference for arbitrary
    /// shapes and thread counts.
    #[test]
    fn gemm_variants_agree(
        seed in any::<u64>(),
        m in 1usize..20, k in 1usize..20, n in 1usize..20,
        threads in 1usize..9,
    ) {
        let mut rng = DataRng::new(seed);
        let a = rng.uniform_matrix(m, k, -2.0, 2.0);
        let b = rng.uniform_matrix(k, n, -2.0, 2.0);
        let reference = gemm::matmul(&a, &b).unwrap();
        let parallel = gemm::matmul_parallel(&a, &b, threads).unwrap();
        prop_assert_eq!(parallel, reference);
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
        let y = elementwise::gelu_scalar(x);
        if x >= 0.0 {
            let y2 = elementwise::gelu_scalar(x + 0.1);
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
