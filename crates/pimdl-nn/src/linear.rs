//! Fully-connected (linear) layer with manual backprop.
//!
//! This is the layer class PIM-DL converts to LUT-NN operators. The weight is
//! stored as `in_features x out_features` so the forward pass is
//! `Y = X · W + b` for a row-major activation matrix `X: N x H` — the same
//! `N x H @ H x F` orientation the paper uses in §3.2.

use pimdl_tensor::rng::DataRng;
use pimdl_tensor::{gemm, Matrix, Result};

use crate::param::Param;

/// A trainable affine map `Y = X · W + b`.
///
/// # Example
///
/// ```rust
/// use pimdl_nn::Linear;
/// use pimdl_tensor::{Matrix, rng::DataRng};
///
/// let mut rng = DataRng::new(0);
/// let layer = Linear::new(4, 2, &mut rng);
/// let x = Matrix::zeros(3, 4);
/// let y = layer.forward(&x)?;
/// assert_eq!(y.shape(), (3, 2));
/// # Ok::<(), pimdl_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Linear {
    /// Weight matrix, `in_features x out_features`.
    pub weight: Param,
    /// Bias row vector, `1 x out_features`.
    pub bias: Param,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut DataRng) -> Self {
        // xavier_matrix gives fan_out x fan_in; we store in x out, so
        // generate transposed and flip.
        let w = rng.xavier_matrix(out_features, in_features).transpose();
        Linear {
            weight: Param::new(w),
            bias: Param::new(Matrix::zeros(1, out_features)),
        }
    }

    /// Creates a layer from explicit weight (`in x out`) and bias.
    pub fn from_parts(weight: Matrix, bias: Matrix) -> Self {
        assert_eq!(
            bias.shape(),
            (1, weight.cols()),
            "bias must be 1 x out_features"
        );
        Linear {
            weight: Param::new(weight),
            bias: Param::new(bias),
        }
    }

    /// Input feature count `H`.
    pub fn in_features(&self) -> usize {
        self.weight.data.rows()
    }

    /// Output feature count `F`.
    pub fn out_features(&self) -> usize {
        self.weight.data.cols()
    }

    /// Forward pass `Y = X · W + b`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `X.cols() != in_features`.
    pub fn forward(&self, x: &Matrix) -> Result<Matrix> {
        let mut y = gemm::matmul(x, &self.weight.data)?;
        let bias = self.bias.data.row(0);
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        Ok(y)
    }

    /// Backward pass.
    ///
    /// Given the layer input `x` and the upstream gradient `dy`, accumulates
    /// `dW = Xᵀ·dY` and `db = colsum(dY)` into the parameters and returns
    /// `dX = dY·Wᵀ`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x`/`dy` are inconsistent with the layer.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Result<Matrix> {
        let dw = gemm::matmul_tn(x, dy)?;
        self.weight.accumulate_grad(&dw);
        self.backward_bias(dy);
        gemm::matmul_nt(dy, &self.weight.data)
    }

    /// The bias half of [`Self::backward`], `db = colsum(dY)`, on its own for
    /// estimators that derive `dW` and `dX` from a substituted input.
    pub fn backward_bias(&mut self, dy: &Matrix) {
        let mut db = Matrix::zeros(1, dy.cols());
        for r in 0..dy.rows() {
            for (acc, v) in db.row_mut(0).iter_mut().zip(dy.row(r)) {
                *acc += v;
            }
        }
        self.bias.accumulate_grad(&db);
    }

    /// Visits the layer's parameters in a stable order (weight, then bias).
    pub fn visit_params<F: FnMut(&mut Param)>(&mut self, f: &mut F) {
        f(&mut self.weight);
        f(&mut self.bias);
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_bias() {
        let w = Matrix::from_vec(2, 3, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]).unwrap();
        let b = Matrix::from_vec(1, 3, vec![0.1, 0.2, 0.3]).unwrap();
        let layer = Linear::from_parts(w, b);
        let x = Matrix::from_vec(1, 2, vec![5.0, 7.0]).unwrap();
        let y = layer.forward(&x).unwrap();
        assert_eq!(y.shape(), (1, 3));
        assert!((y.get(0, 0) - 5.1).abs() < 1e-6);
        assert!((y.get(0, 1) - 7.2).abs() < 1e-6);
        assert!((y.get(0, 2) - 0.3).abs() < 1e-6);
    }

    #[test]
    fn forward_shape_mismatch() {
        let mut rng = DataRng::new(0);
        let layer = Linear::new(4, 2, &mut rng);
        assert!(layer.forward(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut rng = DataRng::new(1);
        let mut layer = Linear::new(3, 2, &mut rng);
        let x = rng.normal_matrix(4, 3, 0.0, 1.0);
        let dy = rng.normal_matrix(4, 2, 0.0, 1.0);

        let dx = layer.backward(&x, &dy).unwrap();

        // Loss L = sum(dy .* forward(x)).
        let loss = |layer: &Linear, x: &Matrix| -> f32 {
            layer.forward(x).unwrap().hadamard(&dy).unwrap().sum()
        };
        let h = 1e-3_f32;

        // Check dX.
        let mut xp = x.clone();
        xp.set(2, 1, x.get(2, 1) + h);
        let mut xm = x.clone();
        xm.set(2, 1, x.get(2, 1) - h);
        let fd = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * h);
        assert!((fd - dx.get(2, 1)).abs() < 1e-2, "dx fd={fd}");

        // Check dW.
        let mut lp = layer.clone();
        lp.weight.data.set(1, 0, layer.weight.data.get(1, 0) + h);
        let mut lm = layer.clone();
        lm.weight.data.set(1, 0, layer.weight.data.get(1, 0) - h);
        let fd_w = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
        assert!(
            (fd_w - layer.weight.grad.get(1, 0)).abs() < 1e-2,
            "dw fd={fd_w} analytic={}",
            layer.weight.grad.get(1, 0)
        );

        // Check db.
        let mut lp = layer.clone();
        lp.bias.data.set(0, 1, layer.bias.data.get(0, 1) + h);
        let mut lm = layer.clone();
        lm.bias.data.set(0, 1, layer.bias.data.get(0, 1) - h);
        let fd_b = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
        assert!(
            (fd_b - layer.bias.grad.get(0, 1)).abs() < 1e-2,
            "db fd={fd_b}"
        );
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = DataRng::new(2);
        let mut layer = Linear::new(2, 2, &mut rng);
        let x = Matrix::eye(2);
        let dy = Matrix::full(2, 2, 1.0);
        layer.backward(&x, &dy).unwrap();
        let first = layer.weight.grad.clone();
        layer.backward(&x, &dy).unwrap();
        assert!(layer.weight.grad.approx_eq(&first.scale(2.0), 1e-6));
    }

    #[test]
    fn visit_params_order() {
        let mut rng = DataRng::new(3);
        let mut layer = Linear::new(3, 5, &mut rng);
        let mut shapes = Vec::new();
        layer.visit_params(&mut |p| shapes.push(p.shape()));
        assert_eq!(shapes, vec![(3, 5), (1, 5)]);
        assert_eq!(layer.num_params(), 15 + 5);
    }

    #[test]
    #[should_panic(expected = "bias must be 1 x out_features")]
    fn from_parts_rejects_bad_bias() {
        let _ = Linear::from_parts(Matrix::zeros(2, 3), Matrix::zeros(1, 2));
    }
}
