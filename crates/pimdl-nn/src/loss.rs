//! Loss functions: softmax cross-entropy and mean-squared error.

use pimdl_tensor::{norm, Matrix, Result, TensorError};

/// Output of [`cross_entropy`]: mean loss, gradient w.r.t. logits, and the
/// softmax probabilities (useful for accuracy computation).
#[derive(Debug, Clone)]
pub struct CrossEntropyOutput {
    /// Mean negative log-likelihood over the batch.
    pub loss: f32,
    /// Gradient of the mean loss with respect to the logits.
    pub dlogits: Matrix,
    /// Row-wise softmax probabilities of the logits.
    pub probs: Matrix,
}

/// Softmax cross-entropy with integer class labels.
///
/// `logits` is `batch x classes`; `labels[i]` is the true class of row `i`.
/// The returned gradient is already divided by the batch size, so the caller
/// can backprop it directly.
///
/// # Errors
///
/// Returns [`TensorError::InvalidDimension`] if `labels.len() != batch` or a
/// label is out of range.
pub fn cross_entropy(logits: &Matrix, labels: &[usize]) -> Result<CrossEntropyOutput> {
    let (batch, classes) = logits.shape();
    if labels.len() != batch {
        return Err(TensorError::InvalidDimension {
            op: "cross_entropy",
            detail: format!("{} labels for batch of {batch}", labels.len()),
        });
    }
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(TensorError::InvalidDimension {
            op: "cross_entropy",
            detail: format!("label {bad} out of range for {classes} classes"),
        });
    }
    let probs = norm::softmax(logits);
    let mut loss = 0.0;
    let mut dlogits = probs.clone();
    let inv_batch = 1.0 / batch.max(1) as f32;
    for (i, &label) in labels.iter().enumerate() {
        let p = probs.get(i, label).max(1e-12);
        loss -= p.ln();
        let row = dlogits.row_mut(i);
        row[label] -= 1.0;
        for v in row.iter_mut() {
            *v *= inv_batch;
        }
    }
    Ok(CrossEntropyOutput {
        loss: loss * inv_batch,
        dlogits,
        probs,
    })
}

/// Predicted class per row (argmax of logits or probabilities).
pub fn argmax_rows(m: &Matrix) -> Vec<usize> {
    (0..m.rows())
        .map(|r| {
            m.row(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect()
}

/// Classification accuracy in `[0, 1]`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f32 {
    assert_eq!(predictions.len(), labels.len());
    if predictions.is_empty() {
        return 0.0;
    }
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f32 / predictions.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdl_tensor::rng::DataRng;

    #[test]
    fn cross_entropy_perfect_prediction_low_loss() {
        let logits = Matrix::from_vec(2, 3, vec![10.0, 0.0, 0.0, 0.0, 0.0, 10.0]).unwrap();
        let out = cross_entropy(&logits, &[0, 2]).unwrap();
        assert!(out.loss < 1e-3, "loss={}", out.loss);
    }

    #[test]
    fn cross_entropy_uniform_logits_is_log_classes() {
        let logits = Matrix::zeros(4, 5);
        let out = cross_entropy(&logits, &[0, 1, 2, 3]).unwrap();
        assert!((out.loss - (5.0_f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let mut rng = DataRng::new(1);
        let logits = rng.normal_matrix(3, 4, 0.0, 1.0);
        let labels = [1usize, 3, 0];
        let out = cross_entropy(&logits, &labels).unwrap();
        let h = 1e-3_f32;
        for &(r, c) in &[(0usize, 0usize), (1, 3), (2, 2)] {
            let mut lp = logits.clone();
            lp.set(r, c, logits.get(r, c) + h);
            let mut lm = logits.clone();
            lm.set(r, c, logits.get(r, c) - h);
            let fd = (cross_entropy(&lp, &labels).unwrap().loss
                - cross_entropy(&lm, &labels).unwrap().loss)
                / (2.0 * h);
            assert!(
                (fd - out.dlogits.get(r, c)).abs() < 1e-3,
                "({r},{c}): fd={fd} analytic={}",
                out.dlogits.get(r, c)
            );
        }
    }

    #[test]
    fn cross_entropy_rejects_bad_labels() {
        let logits = Matrix::zeros(2, 3);
        assert!(cross_entropy(&logits, &[0]).is_err());
        assert!(cross_entropy(&logits, &[0, 3]).is_err());
    }

    #[test]
    fn argmax_and_accuracy() {
        let m = Matrix::from_vec(2, 3, vec![0.1, 0.7, 0.2, 0.9, 0.05, 0.05]).unwrap();
        let preds = argmax_rows(&m);
        assert_eq!(preds, vec![1, 0]);
        assert_eq!(accuracy(&preds, &[1, 0]), 1.0);
        assert_eq!(accuracy(&preds, &[1, 1]), 0.5);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }
}
