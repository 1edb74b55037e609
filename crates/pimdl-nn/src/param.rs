//! Trainable parameter storage.

use pimdl_tensor::Matrix;

/// A trainable parameter: a value matrix paired with its gradient
/// accumulator.
///
/// Layers own their `Param`s; the optimizer visits them through
/// [`TransformerClassifier::visit_params`](crate::TransformerClassifier::visit_params)
/// in a stable order, so per-parameter optimizer state (Adam moments) can be
/// keyed by visitation index.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Param {
    /// The parameter value.
    pub data: Matrix,
    /// Accumulated gradient (same shape as `data`).
    pub grad: Matrix,
}

impl Param {
    /// Wraps an initial value with a zeroed gradient.
    pub fn new(data: Matrix) -> Self {
        let grad = Matrix::zeros(data.rows(), data.cols());
        Param { data, grad }
    }

    /// Shape of the parameter, `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.data.shape()
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Resets the gradient accumulator to zero.
    pub fn zero_grad(&mut self) {
        for g in self.grad.iter_mut() {
            *g = 0.0;
        }
    }

    /// Accumulates `delta` into the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `delta` has a different shape.
    pub fn accumulate_grad(&mut self, delta: &Matrix) {
        self.grad
            .add_assign(delta)
            .expect("gradient shape mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad() {
        let p = Param::new(Matrix::full(2, 3, 1.5));
        assert_eq!(p.shape(), (2, 3));
        assert_eq!(p.len(), 6);
        assert!(!p.is_empty());
        assert!(p.grad.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::new(Matrix::zeros(1, 2));
        p.accumulate_grad(&Matrix::full(1, 2, 2.0));
        p.accumulate_grad(&Matrix::full(1, 2, 3.0));
        assert_eq!(p.grad.row(0), &[5.0, 5.0]);
        p.zero_grad();
        assert_eq!(p.grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "gradient shape mismatch")]
    fn accumulate_wrong_shape_panics() {
        let mut p = Param::new(Matrix::zeros(1, 2));
        p.accumulate_grad(&Matrix::zeros(2, 1));
    }
}
