//! General matrix multiplication kernels.
//!
//! One body, four entry points:
//!
//! * [`matmul`] — `A · B`, the correctness oracle every PIM-DL LUT result
//!   in this workspace is validated against;
//! * [`matmul_parallel`] — the same product with rows partitioned across
//!   the persistent [`WorkerPool`](crate::pool::WorkerPool);
//! * [`matmul_tn`] — `Aᵀ · B`, reading `A` in place;
//! * [`matmul_nt`] — `A · Bᵀ`, staging one column panel of `Bᵀ` at a time.
//!
//! **Accumulation-order contract**, shared by all four: output element
//! `C[i][j]` starts from `+0.0` and adds `L[i][p] · R[p][j]` for `p`
//! ascending, skipping every `p` whose left-operand element `L[i][p]`
//! compares equal to `0.0` (either sign). The products and sums are
//! unfused IEEE operations, so the four entry points agree with one
//! another — `matmul_tn(a, b)` with `matmul(&a.transpose(), b)` and
//! `matmul_nt(a, b)` with `matmul(a, &b.transpose())` — on any input, ±∞
//! and −0 included: every non-NaN result to the bit, and NaN exactly where
//! the other is NaN (Rust leaves the sign and payload of a NaN result to
//! the code generator).
//!
//! The body keeps a block of up to 32 output columns of one row in locals
//! across the whole `k` loop, so `C` is written once per element instead
//! of once per `k`. Blocking only decides which elements are computed
//! together; it never reorders one element's sum. It is safe code compiled
//! for the baseline target: an AVX2 clone made one eLUT-NN conversion at
//! the `calibrate` benchmark's shape only 4–9 % faster (mean / best of 30,
//! 2-core Xeon), not worth an `unsafe` site.

use crate::{Matrix, Result, TensorError};

/// Output columns one pass of the body keeps in locals: eight 4-lane
/// accumulators, enough independent sums to hide the add latency.
const BLOCK: usize = 32;

/// Where the left operand's element `(i, p)` lives:
/// `data[i * row_step + p * col_step]`.
#[derive(Clone, Copy)]
struct Left<'a> {
    data: &'a [f32],
    row_step: usize,
    col_step: usize,
}

/// How the right operand is stored.
#[derive(Clone, Copy)]
enum Right<'a> {
    /// `k x n` row-major: row `p` is contiguous in `j`.
    Rows(&'a [f32]),
    /// `n x k` row-major (the operand of `A · Bᵀ`): staged into a
    /// contiguous `k x w` panel per column block.
    Cols(&'a [f32]),
}

fn shape_error(op: &'static str, a: &Matrix, b: &Matrix) -> TensorError {
    TensorError::ShapeMismatch {
        op,
        lhs: a.shape(),
        rhs: b.shape(),
    }
}

/// Rows `first_row..` of `C = L · R` into the zeroed band `c` (`n` columns
/// per row), one column panel at a time. `k` is the shared dimension.
fn gemm_band(
    c: &mut [f32],
    n: usize,
    first_row: usize,
    k: usize,
    left: Left<'_>,
    right: Right<'_>,
) {
    if k == 0 {
        return;
    }
    let mut staged = Vec::new();
    for j0 in (0..n).step_by(BLOCK) {
        let w = BLOCK.min(n - j0);
        let (panel, stride) = match right {
            Right::Rows(b) => (&b[j0..], n),
            Right::Cols(b) => {
                stage_panel(&b[j0 * k..(j0 + w) * k], k, w, &mut staged);
                (&staged[..], w)
            }
        };
        for (local, c_row) in c.chunks_mut(n).enumerate() {
            let i = first_row + local;
            // Outside the tail ladder: folded into its `match`, the full
            // block ran ≈ 2 % slower end to end.
            if w == BLOCK {
                block::<BLOCK>(left, i, k, panel, stride, &mut c_row[j0..]);
                continue;
            }
            let mut jj = 0;
            while jj < w {
                let (panel, out) = (&panel[jj..], &mut c_row[j0 + jj..j0 + w]);
                jj += match w - jj {
                    8.. => block::<8>(left, i, k, panel, stride, out),
                    _ => block::<1>(left, i, k, panel, stride, out),
                };
            }
        }
    }
}

/// Transposes the `w` rows of `k` elements in `rows` into the `k x w`
/// panel `staged`, eight source rows per pass so every panel row is
/// written in runs of eight.
#[allow(clippy::needless_range_loop)]
fn stage_panel(rows: &[f32], k: usize, w: usize, staged: &mut Vec<f32>) {
    staged.resize(k * w, 0.0);
    let mut jj = 0;
    while jj + 8 <= w {
        let src = &rows[jj * k..(jj + 8) * k];
        for p in 0..k {
            let dst = &mut staged[p * w + jj..p * w + jj + 8];
            for r in 0..8 {
                dst[r] = src[r * k + p];
            }
        }
        jj += 8;
    }
    for jj in jj..w {
        for p in 0..k {
            staged[p * w + jj] = rows[jj * k + p];
        }
    }
}

/// The one GEMM body: `out[j] = Σ_{p<k} L[i][p] · panel[p · stride + j]`
/// for `j < W`, in the module's accumulation order, with the `W` sums held
/// in locals for the whole `p` loop; returns `W`. The inner loop is a
/// `while` over an index: it vectorises like any other form, and an
/// unoptimised test build pays no iterator call per element.
#[inline(always)]
fn block<const W: usize>(
    left: Left<'_>,
    i: usize,
    k: usize,
    panel: &[f32],
    stride: usize,
    out: &mut [f32],
) -> usize {
    let row = &left.data[i * left.row_step..];
    let mut acc = [0.0f32; W];
    for p in 0..k {
        let a = row[p * left.col_step];
        if a == 0.0 {
            continue;
        }
        let b = &panel[p * stride..p * stride + W];
        let mut j = 0;
        while j < W {
            acc[j] += a * b[j];
            j += 1;
        }
    }
    out[..W].copy_from_slice(&acc);
    W
}

/// `C = L · R` for an `m x n` output on the calling thread.
fn gemm(m: usize, n: usize, k: usize, left: Left<'_>, right: Right<'_>) -> Matrix {
    let mut c = Matrix::zeros(m, n);
    gemm_band(c.as_mut_slice(), n, 0, k, left, right);
    c
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
    if a.cols() != b.rows() {
        return Err(shape_error("matmul", a, b));
    }
    let (m, k) = a.shape();
    let left = Left {
        data: a.as_slice(),
        row_step: k,
        col_step: 1,
    };
    Ok(gemm(m, b.cols(), k, left, Right::Rows(b.as_slice())))
}

/// `C = Aᵀ · B` with `A: k x m`, `B: k x n`, reading `A` in place.
/// Bit-identical to `matmul(&a.transpose(), b)`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.rows != B.rows`.
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(shape_error("matmul_tn", a, b));
    }
    let (k, m) = a.shape();
    let left = Left {
        data: a.as_slice(),
        row_step: 1,
        col_step: m,
    };
    Ok(gemm(m, b.cols(), k, left, Right::Rows(b.as_slice())))
}

/// `C = A · Bᵀ` with `A: m x k`, `B: n x k`. Bit-identical to
/// `matmul(a, &b.transpose())`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols != B.cols`.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(shape_error("matmul_nt", a, b));
    }
    let (m, k) = a.shape();
    let left = Left {
        data: a.as_slice(),
        row_step: k,
        col_step: 1,
    };
    Ok(gemm(m, b.rows(), k, left, Right::Cols(b.as_slice())))
}

/// Multi-threaded GEMM partitioning rows of `A` across `threads` workers.
///
/// Each worker computes a disjoint horizontal band of `C` with the same
/// body, so the result is bit-identical to [`matmul`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols != B.rows`, or
/// [`TensorError::InvalidDimension`] if `threads == 0`.
pub fn matmul_parallel(a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(shape_error("matmul_parallel", a, b));
    }
    if threads == 0 {
        return Err(TensorError::InvalidDimension {
            op: "matmul_parallel",
            detail: "thread count must be positive".to_string(),
        });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(c);
    }
    let rows_per = m.div_ceil(threads.min(m));
    let left = Left {
        data: a.as_slice(),
        row_step: k,
        col_step: 1,
    };
    let right = Right::Rows(b.as_slice());
    crate::pool::WorkerPool::global().run_row_bands(c.as_mut_slice(), n, rows_per, |i0, band| {
        gemm_band(band, n, i0, k, left, right);
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
    fn transposed_entry_points_check_their_own_shapes() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(matmul_tn(&a, &Matrix::zeros(2, 5)).unwrap().shape(), (3, 5));
        assert!(matmul_tn(&a, &Matrix::zeros(3, 5)).is_err());
        assert_eq!(matmul_nt(&a, &Matrix::zeros(4, 3)).unwrap().shape(), (2, 4));
        assert!(matmul_nt(&a, &Matrix::zeros(3, 2)).is_err());
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
