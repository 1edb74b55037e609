//! Element-wise operators.
//!
//! These are the "PIM-friendly" memory-bound operators the paper's
//! PIM-enabled baseline systems already offload (here GELU and bias add).
//! The PIM-DL engine keeps them either on the host or on the PIM depending
//! on the platform's functional support.

use crate::{Matrix, Result, TensorError};

/// Gaussian error linear unit (tanh approximation, as used by BERT/ViT).
pub fn gelu(x: &Matrix) -> Matrix {
    x.map(gelu_scalar)
}

/// Scalar GELU (tanh approximation).
#[inline]
pub fn gelu_scalar(v: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * v * (1.0 + (SQRT_2_OVER_PI * (v + 0.044_715 * v * v * v)).tanh())
}

/// Derivative of the tanh-approximated GELU, element-wise.
pub fn gelu_grad(x: &Matrix) -> Matrix {
    x.map(|v| {
        const SQRT_2_OVER_PI: f32 = 0.797_884_6;
        let inner = SQRT_2_OVER_PI * (v + 0.044_715 * v * v * v);
        let t = inner.tanh();
        let sech2 = 1.0 - t * t;
        0.5 * (1.0 + t) + 0.5 * v * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * v * v)
    })
}

/// Adds a bias row-vector to every row of `x`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `bias.len() != x.cols()`.
pub fn bias_add(x: &Matrix, bias: &[f32]) -> Result<Matrix> {
    if bias.len() != x.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "bias_add",
            lhs: x.shape(),
            rhs: (1, bias.len()),
        });
    }
    let mut out = x.clone();
    for r in 0..out.rows() {
        for (v, b) in out.row_mut(r).iter_mut().zip(bias) {
            *v += b;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelu_known_points() {
        // GELU(0) = 0; GELU is ~linear for large positive, ~0 for large negative.
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(5.0) - 5.0).abs() < 1e-3);
        assert!(gelu_scalar(-5.0).abs() < 1e-3);
        // Known value: GELU(1) ≈ 0.8412 (tanh approximation).
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        let xs = [-2.0_f32, -0.7, 0.0, 0.3, 1.5, 3.0];
        let x = Matrix::from_vec(1, xs.len(), xs.to_vec()).unwrap();
        let g = gelu_grad(&x);
        let h = 1e-3_f32;
        for (i, &v) in xs.iter().enumerate() {
            let fd = (gelu_scalar(v + h) - gelu_scalar(v - h)) / (2.0 * h);
            assert!(
                (g.get(0, i) - fd).abs() < 1e-2,
                "x={v}: analytic {} vs fd {fd}",
                g.get(0, i)
            );
        }
    }

    #[test]
    fn bias_add_broadcasts() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = bias_add(&x, &[10.0, 20.0]).unwrap();
        assert_eq!(y.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn bias_add_shape_mismatch() {
        let x = Matrix::zeros(2, 2);
        assert!(bias_add(&x, &[1.0]).is_err());
    }
}
