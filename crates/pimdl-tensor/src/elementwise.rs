//! Element-wise operators.
//!
//! These are the "PIM-friendly" memory-bound operators the paper's
//! PIM-enabled baseline systems already offload (here GELU and bias add).
//! The PIM-DL engine keeps them either on the host or on the PIM depending
//! on the platform's functional support.

use crate::{Matrix, Result, TensorError};

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_CUBIC: f32 = 0.044_715;

/// Gaussian error linear unit (tanh approximation, as used by BERT/ViT),
/// element-wise. Returns `(GELU(x), t)` with
/// `t = tanh(√(2/π)·(x + 0.044715·x³))`, the one transcendental both
/// GELU and its derivative need; [`gelu_backward`] takes it back instead
/// of recomputing it.
pub fn gelu_forward(x: &Matrix) -> (Matrix, Matrix) {
    let t = x.map(|v| (SQRT_2_OVER_PI * (v + GELU_CUBIC * v * v * v)).tanh());
    let mut y = x.clone();
    for (v, &t) in y.iter_mut().zip(t.iter()) {
        *v = 0.5 * *v * (1.0 + t);
    }
    (y, t)
}

/// `dy ⊙ GELU'(x)`, given the `t` that [`gelu_forward`] returned for `x`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `x`, `t` and `dy` share
/// one shape.
pub fn gelu_backward(x: &Matrix, t: &Matrix, dy: &Matrix) -> Result<Matrix> {
    for other in [t, dy] {
        if other.shape() != x.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "gelu_backward",
                lhs: x.shape(),
                rhs: other.shape(),
            });
        }
    }
    let data = x
        .iter()
        .zip(t.iter())
        .zip(dy.iter())
        .map(|((&v, &t), &g)| {
            let sech2 = 1.0 - t * t;
            let grad = 0.5 * (1.0 + t)
                + 0.5 * v * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_CUBIC * v * v);
            g * grad
        })
        .collect();
    Matrix::from_vec(x.rows(), x.cols(), data)
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
        let x = Matrix::from_vec(1, 4, vec![0.0, 5.0, -5.0, 1.0]).unwrap();
        let (y, _) = gelu_forward(&x);
        assert_eq!(y.get(0, 0), 0.0);
        assert!((y.get(0, 1) - 5.0).abs() < 1e-3);
        assert!(y.get(0, 2).abs() < 1e-3);
        // Known value: GELU(1) ≈ 0.8412 (tanh approximation).
        assert!((y.get(0, 3) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_grad_matches_finite_difference() {
        let xs = [-2.0_f32, -0.7, 0.0, 0.3, 1.5, 3.0];
        let x = Matrix::from_vec(1, xs.len(), xs.to_vec()).unwrap();
        let (_, t) = gelu_forward(&x);
        let g = gelu_backward(&x, &t, &Matrix::full(1, xs.len(), 1.0)).unwrap();
        let h = 1e-3_f32;
        let (up, _) = gelu_forward(&x.map(|v| v + h));
        let (down, _) = gelu_forward(&x.map(|v| v - h));
        for (i, &v) in xs.iter().enumerate() {
            let fd = (up.get(0, i) - down.get(0, i)) / (2.0 * h);
            assert!(
                (g.get(0, i) - fd).abs() < 1e-2,
                "x={v}: analytic {} vs fd {fd}",
                g.get(0, i)
            );
        }
        assert!(gelu_backward(&x, &t, &Matrix::zeros(1, 2)).is_err());
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
