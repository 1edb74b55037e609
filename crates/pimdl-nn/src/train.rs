//! Training and evaluation loops.

use pimdl_tensor::rng::DataRng;
use pimdl_tensor::Result;

use crate::data::Dataset;
use crate::loss::{accuracy, argmax_rows, cross_entropy};
use crate::optim::Adam;
use crate::schedule::Schedule;
use crate::transformer::TransformerClassifier;

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Examples per optimizer step.
    pub batch_size: usize,
    /// Adam base learning rate.
    pub lr: f32,
    /// Learning-rate schedule applied on top of the base rate.
    pub schedule: Schedule,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 16,
            lr: 1e-3,
            schedule: Schedule::Constant,
            seed: 0,
        }
    }
}

/// Per-epoch statistics of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training accuracy per epoch.
    pub epoch_accuracies: Vec<f32>,
}

impl TrainStats {
    /// Loss of the final epoch (`None` if no epochs ran).
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }
}

/// Trains `model` on `dataset` with Adam + cross-entropy.
///
/// Sequences are processed one at a time (gradients accumulate across a
/// batch, then one optimizer step is applied), matching the manual-backprop
/// design of the substrate.
///
/// # Errors
///
/// Propagates shape errors from the model.
pub fn train(
    model: &mut TransformerClassifier,
    dataset: &Dataset,
    cfg: &TrainConfig,
) -> Result<TrainStats> {
    let mut opt = Adam::new(cfg.lr);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    let mut rng = DataRng::new(cfg.seed);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let mut epoch_accuracies = Vec::with_capacity(cfg.epochs);

    for _ in 0..cfg.epochs {
        rng.shuffle(&mut order);
        let mut total_loss = 0.0;
        let mut correct = 0usize;
        for batch in order.chunks(cfg.batch_size.max(1)) {
            model.zero_grads();
            for &i in batch {
                let input = &dataset.inputs[i];
                let label = dataset.labels[i];
                let (logits, cache) = model.forward(input)?;
                let ce = cross_entropy(&logits, &[label])?;
                total_loss += ce.loss;
                if argmax_rows(&ce.probs)[0] == label {
                    correct += 1;
                }
                // Scale by 1/batch so the step is a mean over the batch.
                let scaled = ce.dlogits.scale(1.0 / batch.len() as f32);
                model.backward(&cache, &scaled)?;
            }
            opt.begin_step();
            opt.lr = cfg.lr * cfg.schedule.multiplier(opt.timestep());
            let mut idx = 0;
            model.visit_params(&mut |p| {
                opt.step(idx, p.data.as_mut_slice(), p.grad.as_slice());
                idx += 1;
            });
        }
        epoch_losses.push(total_loss / dataset.len().max(1) as f32);
        epoch_accuracies.push(correct as f32 / dataset.len().max(1) as f32);
    }
    Ok(TrainStats {
        epoch_losses,
        epoch_accuracies,
    })
}

/// Evaluates classification accuracy on a dataset.
///
/// # Errors
///
/// Propagates shape errors from the model.
pub fn evaluate(model: &TransformerClassifier, dataset: &Dataset) -> Result<f32> {
    let mut predictions = Vec::with_capacity(dataset.len());
    for input in &dataset.inputs {
        let logits = model.predict(input)?;
        predictions.push(argmax_rows(&logits)[0]);
    }
    Ok(accuracy(&predictions, &dataset.labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{nlp_dataset, vision_dataset, NlpTask};
    use crate::transformer::{InputKind, ModelConfig};

    #[test]
    fn training_reduces_loss_on_nlp_task() {
        let mut rng = DataRng::new(0);
        let ds = nlp_dataset(NlpTask::ContainsAnswer, 120, 12, 6, &mut rng);
        let cfg = ModelConfig {
            input: InputKind::Tokens { vocab: 12 },
            hidden: 16,
            heads: 2,
            layers: 1,
            ffn_dim: 32,
            max_seq: 6,
            classes: 2,
        };
        let mut model = TransformerClassifier::new(&cfg, &mut rng);
        let stats = train(
            &mut model,
            &ds,
            &TrainConfig {
                epochs: 6,
                batch_size: 8,
                lr: 3e-3,
                schedule: Default::default(),
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(stats.epoch_losses.len(), 6);
        assert!(
            stats.final_loss().unwrap() < stats.epoch_losses[0],
            "losses={:?}",
            stats.epoch_losses
        );
    }

    #[test]
    fn training_beats_chance_on_vision_task() {
        let mut rng = DataRng::new(1);
        let mut ds = vision_dataset("toy", 4, 90, 6, 8, 0.3, &mut rng);
        let test = ds.split_off(20);
        let cfg = ModelConfig {
            input: InputKind::Patches { input_dim: 8 },
            hidden: 16,
            heads: 2,
            layers: 1,
            ffn_dim: 32,
            max_seq: 6,
            classes: 4,
        };
        let mut model = TransformerClassifier::new(&cfg, &mut rng);
        train(
            &mut model,
            &ds,
            &TrainConfig {
                epochs: 10,
                batch_size: 8,
                lr: 3e-3,
                schedule: Default::default(),
                seed: 2,
            },
        )
        .unwrap();
        let acc = evaluate(&model, &test).unwrap();
        assert!(acc > 0.5, "accuracy {acc} should beat 0.25 chance clearly");
    }

    #[test]
    fn evaluate_untrained_is_roughly_chance() {
        let mut rng = DataRng::new(2);
        let ds = nlp_dataset(NlpTask::Sentiment, 100, 12, 6, &mut rng);
        let cfg = ModelConfig::tiny(12, 2);
        let model = TransformerClassifier::new(&cfg, &mut rng);
        let acc = evaluate(&model, &ds).unwrap();
        assert!((0.2..=0.8).contains(&acc), "acc={acc}");
    }

    #[test]
    fn default_config_sane() {
        let cfg = TrainConfig::default();
        assert!(cfg.epochs > 0 && cfg.batch_size > 0 && cfg.lr > 0.0);
    }
}
