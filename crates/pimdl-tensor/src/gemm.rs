//! General matrix multiplication kernels.
//!
//! Two kernels with identical semantics:
//!
//! * [`matmul`] — reference triple loop (i-k-j order so the inner loop is a
//!   contiguous AXPY; this is the correctness oracle).
//! * [`matmul_parallel`] — row-partitioned multi-threaded variant built on
//!   the persistent [`WorkerPool`](crate::pool::WorkerPool).
//!
//! All PIM-DL LUT results in this workspace are validated against [`matmul`].

use crate::{Matrix, Result, TensorError};

fn check_shapes(a: &Matrix, b: &Matrix, op: &'static str) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(())
}

/// Reference GEMM: `C = A · B` with `A: m x k`, `B: k x n`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols != B.rows`.
///
/// # Example
///
/// ```rust
/// use pimdl_tensor::{Matrix, gemm};
///
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Matrix::from_vec(2, 1, vec![1.0, 1.0])?;
/// let c = gemm::matmul(&a, &b)?;
/// assert_eq!(c.as_slice(), &[3.0, 7.0]);
/// # Ok::<(), pimdl_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_shapes(a, b, "matmul")?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = b.row(p);
            for j in 0..n {
                c_row[j] += a_ip * b_row[j];
            }
        }
    }
    Ok(c)
}

/// Multi-threaded GEMM partitioning rows of `A` across `threads` workers.
///
/// Each worker computes a disjoint horizontal band of `C`, so the result is
/// bit-identical to [`matmul`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols != B.rows`, or
/// [`TensorError::InvalidDimension`] if `threads == 0`.
pub fn matmul_parallel(a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix> {
    check_shapes(a, b, "matmul_parallel")?;
    if threads == 0 {
        return Err(TensorError::InvalidDimension {
            op: "matmul_parallel",
            detail: "thread count must be positive".to_string(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    if m == 0 || n == 0 {
        return Ok(Matrix::zeros(m, n));
    }
    let threads = threads.min(m);
    let rows_per = m.div_ceil(threads);

    let mut c = Matrix::zeros(m, n);
    crate::pool::WorkerPool::global().run_row_bands(c.as_mut_slice(), n, rows_per, |i0, band| {
        for (local_i, c_row) in band.chunks_mut(n).enumerate() {
            let i = i0 + local_i;
            let a_row = a.row(i);
            for (p, &a_ip) in a_row.iter().enumerate().take(k) {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = b.row(p);
                for j in 0..n {
                    c_row[j] += a_ip * b_row[j];
                }
            }
        }
    });
    Ok(c)
}

/// Quantized GEMM: `C = A · B` over INT8 codes with i32 accumulation,
/// dequantized once per output element (`scale_a × scale_b`).
///
/// This is the arithmetic of a GGML-style INT8 CPU kernel (the paper's CPU
/// INT8 baseline) and of the PIM-side INT8 LUT accumulation: multiplies and
/// adds stay in integer domain; a single float multiply finishes each
/// output.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols != B.rows`.
///
/// # Example
///
/// ```rust
/// use pimdl_tensor::{gemm, Matrix, quant::QuantMatrix};
///
/// let a = Matrix::from_vec(1, 2, vec![1.0, -2.0])?;
/// let b = Matrix::from_vec(2, 1, vec![0.5, 0.25])?;
/// let qa = QuantMatrix::quantize(&a);
/// let qb = QuantMatrix::quantize(&b);
/// let c = gemm::matmul_quant(&qa, &qb)?;
/// let exact = gemm::matmul(&a, &b)?;
/// assert!((c.get(0, 0) - exact.get(0, 0)).abs() < 0.05);
/// # Ok::<(), pimdl_tensor::TensorError>(())
/// ```
pub fn matmul_quant(
    a: &crate::quant::QuantMatrix,
    b: &crate::quant::QuantMatrix,
) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_quant",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let scale = a.scale() * b.scale();
    let a_codes = a.codes();
    let b_codes = b.codes();
    let mut c = Matrix::zeros(m, n);
    let mut acc = vec![0i32; n];
    for i in 0..m {
        acc.iter_mut().for_each(|v| *v = 0);
        let a_row = &a_codes[i * k..(i + 1) * k];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0 {
                continue;
            }
            let a_ip = a_ip as i32;
            let b_row = &b_codes[p * n..(p + 1) * n];
            for (v, &b_pj) in acc.iter_mut().zip(b_row) {
                *v += a_ip * b_pj as i32;
            }
        }
        for (out, &v) in c.row_mut(i).iter_mut().zip(&acc) {
            *out = v as f32 * scale;
        }
    }
    Ok(c)
}

/// Number of floating-point operations a GEMM of these shapes performs
/// (`2 * m * k * n`; multiply + add).
pub fn gemm_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DataRng;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        DataRng::new(seed).uniform_matrix(rows, cols, -1.0, 1.0)
    }

    #[test]
    fn matmul_identity() {
        let a = random(5, 5, 1);
        let c = matmul(&a, &Matrix::eye(5)).unwrap();
        assert!(c.approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn parallel_matches_reference() {
        let a = random(31, 17, 4);
        let b = random(17, 23, 5);
        let reference = matmul(&a, &b).unwrap();
        for threads in [1, 2, 3, 8, 64] {
            let c = matmul_parallel(&a, &b, threads).unwrap();
            assert_eq!(c, reference, "threads={threads}");
        }
    }

    #[test]
    fn parallel_rejects_zero_threads() {
        let a = Matrix::zeros(2, 2);
        assert!(matmul_parallel(&a, &a, 0).is_err());
    }

    #[test]
    fn parallel_empty_output() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        let c = matmul_parallel(&a, &b, 4).unwrap();
        assert_eq!(c.shape(), (0, 3));
    }

    #[test]
    fn quant_gemm_close_to_f32() {
        let a = random(17, 23, 8);
        let b = random(23, 11, 9);
        let exact = matmul(&a, &b).unwrap();
        let qa = crate::quant::QuantMatrix::quantize(&a);
        let qb = crate::quant::QuantMatrix::quantize(&b);
        let approx = matmul_quant(&qa, &qb).unwrap();
        // Error per output ≤ k · (|a|max·Δb + |b|max·Δa) roughly; use a
        // generous bound scaled by the inner dim.
        let bound = 23.0 * (qa.scale() + qb.scale()) * 1.5;
        let max_diff = approx.sub(&exact).unwrap().max_abs();
        assert!(max_diff < bound, "max diff {max_diff} bound {bound}");
    }

    #[test]
    fn quant_gemm_shape_mismatch() {
        let qa = crate::quant::QuantMatrix::quantize(&Matrix::zeros(2, 3));
        let qb = crate::quant::QuantMatrix::quantize(&Matrix::zeros(2, 3));
        assert!(matmul_quant(&qa, &qb).is_err());
    }

    #[test]
    fn quant_gemm_exact_on_integer_data() {
        // Data already on the quantization grid multiplies exactly.
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let qa = crate::quant::QuantMatrix::quantize_with_scale(&a, 1.0);
        let qb = crate::quant::QuantMatrix::quantize_with_scale(&b, 1.0);
        let c = matmul_quant(&qa, &qb).unwrap();
        let exact = matmul(&a, &b).unwrap();
        assert!(c.approx_eq(&exact, 1e-6));
    }

    #[test]
    fn flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
        assert_eq!(gemm_flops(1024, 1024, 1024), 2 * 1024 * 1024 * 1024);
    }
}
