//! Tables 4 & 5 — model accuracy: Original vs baseline LUT-NN vs eLUT-NN
//! with *all* linear layers replaced.
//!
//! Substitution note (DESIGN.md §2): GLUE/CIFAR and pretrained BERT/ViT are
//! unavailable here, so each column is a synthetic task learned from
//! scratch by the `pimdl_nn` transformer substrate. Per §6.2, centroids are
//! **randomly initialized** for both algorithms; the baseline LUT-NN
//! (soft-assignment / Gumbel-softmax-style estimation, model loss only)
//! trains on the *full* training set, while eLUT-NN gets only the small
//! calibration subset — reproducing both the accuracy ordering and the
//! data-efficiency claim (A1/A2). The compression ratio is scaled to the
//! substrate (`V = 4, CT = 8` against hidden 32, matching the paper's
//! `V = 2, CT = 16` against hidden 768 in per-sub-vector coding rate).

use serde::Serialize;

use pimdl_lutnn::calibrate::{
    convert_elutnn, convert_lutnn_baseline, BaselineLutNnConfig, CalibrationConfig, CentroidInit,
};
use pimdl_lutnn::convert::lut_accuracy;
use pimdl_nn::data::{nlp_dataset, vision_dataset, Dataset, NlpTask};
use pimdl_nn::train::{evaluate, train, TrainConfig};
use pimdl_nn::transformer::{InputKind, ModelConfig, TransformerClassifier};
use pimdl_tensor::rng::DataRng;

use crate::report::TextTable;

/// Experiment error alias.
pub type ExpError = Box<dyn std::error::Error>;

/// Hyper-parameters of the accuracy experiment.
#[derive(Debug, Clone, Serialize)]
pub struct AccuracyConfig {
    /// Training examples per task.
    pub train_examples: usize,
    /// Held-out evaluation examples per task.
    pub eval_examples: usize,
    /// Calibration examples (the paper's "<1 % of the training set" point —
    /// here a small fraction of the training data).
    pub calib_examples: usize,
    /// Vocabulary size for NLP tasks.
    pub vocab: usize,
    /// Sequence length for NLP tasks.
    pub seq_len: usize,
    /// Model hidden dim.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Encoder layers.
    pub layers: usize,
    /// FFN inner dim.
    pub ffn_dim: usize,
    /// Training epochs.
    pub train_epochs: usize,
    /// Training learning rate.
    pub train_lr: f32,
    /// LUT sub-vector length `V`.
    pub v: usize,
    /// Centroids per codebook `CT`.
    pub ct: usize,
    /// Calibration/training epochs for both conversion algorithms.
    pub calib_epochs: usize,
    /// Calibration learning rate for both conversion algorithms.
    pub calib_lr: f32,
    /// Reconstruction-loss weight β (eLUT-NN only).
    pub beta: f32,
    /// Soft-assignment temperature τ (baseline LUT-NN only).
    pub tau: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for AccuracyConfig {
    fn default() -> Self {
        AccuracyConfig {
            train_examples: 460,
            eval_examples: 100,
            calib_examples: 48,
            vocab: 16,
            seq_len: 8,
            hidden: 32,
            heads: 4,
            layers: 4,
            ffn_dim: 64,
            train_epochs: 25,
            train_lr: 1.5e-3,
            v: 4,
            ct: 8,
            calib_epochs: 6,
            calib_lr: 2e-3,
            beta: 1e-3,
            tau: 1.0,
            seed: 7,
        }
    }
}

impl AccuracyConfig {
    /// A fast configuration for smoke tests.
    pub fn quick() -> Self {
        AccuracyConfig {
            train_examples: 100,
            eval_examples: 40,
            calib_examples: 24,
            train_epochs: 4,
            calib_epochs: 2,
            ..Self::default()
        }
    }

    fn elutnn_config(&self) -> CalibrationConfig {
        CalibrationConfig {
            v: self.v,
            ct: self.ct,
            init: CentroidInit::Random,
            kmeans_iters: 0,
            beta: self.beta,
            lr: self.calib_lr,
            epochs: self.calib_epochs,
            batch_size: 8,
            seed: self.seed ^ 0x5eed,
            max_activation_rows: 4096,
        }
    }

    fn baseline_config(&self) -> BaselineLutNnConfig {
        BaselineLutNnConfig {
            v: self.v,
            ct: self.ct,
            init: CentroidInit::Random,
            kmeans_iters: 0,
            tau: self.tau,
            gumbel_noise: true,
            lr: self.calib_lr,
            epochs: self.calib_epochs,
            batch_size: 8,
            seed: self.seed ^ 0x5eed,
            max_activation_rows: 4096,
        }
    }
}

/// One accuracy row: a task under the three settings.
#[derive(Debug, Clone, Serialize)]
pub struct TaskAccuracy {
    /// Task/column name.
    pub task: String,
    /// Original (dense) model accuracy.
    pub original: f32,
    /// Baseline LUT-NN (k-means only, full replacement) accuracy.
    pub baseline_lutnn: f32,
    /// eLUT-NN (reconstruction loss + STE fine-tuning) accuracy.
    pub elutnn: f32,
}

/// Full result of Table 4 or Table 5.
#[derive(Debug, Clone, Serialize)]
pub struct AccuracyResult {
    /// Which table this is ("Table 4 (NLP)" / "Table 5 (Vision)").
    pub table: String,
    /// Per-task rows.
    pub rows: Vec<TaskAccuracy>,
    /// Averages: (original, baseline, eLUT-NN).
    pub averages: (f32, f32, f32),
}

fn measure_task(
    name: &str,
    model_cfg: &ModelConfig,
    mut train_set: Dataset,
    cfg: &AccuracyConfig,
    rng: &mut DataRng,
) -> Result<TaskAccuracy, ExpError> {
    let _ = &rng;
    let test_set = train_set.split_off(cfg.eval_examples.min(train_set.len() / 3));
    let mut model = TransformerClassifier::new(model_cfg, rng);
    train(
        &mut model,
        &train_set,
        &TrainConfig {
            epochs: cfg.train_epochs,
            batch_size: 16,
            lr: cfg.train_lr,
            schedule: Default::default(),
            seed: cfg.seed ^ 0xabcd,
        },
    )?;
    let original = evaluate(&model, &test_set)?;

    // Baseline LUT-NN: random centroid init, soft-assignment estimation,
    // trained on the FULL training set (the paper's baseline consumes
    // 100 % of the data and still collapses under full replacement).
    let (baseline, _) = convert_lutnn_baseline(&model, &train_set, &cfg.baseline_config())?;
    let baseline_acc = lut_accuracy(&baseline, &test_set, true)?;

    // eLUT-NN: random centroid init, only the small calibration subset.
    let calib_set = train_set.take(cfg.calib_examples);
    let (elut, _stats) = convert_elutnn(&model, &calib_set, &cfg.elutnn_config())?;
    let elut_acc = lut_accuracy(&elut, &test_set, true)?;

    Ok(TaskAccuracy {
        task: name.to_string(),
        original,
        baseline_lutnn: baseline_acc,
        elutnn: elut_acc,
    })
}

fn averages(rows: &[TaskAccuracy]) -> (f32, f32, f32) {
    let n = rows.len().max(1) as f32;
    (
        rows.iter().map(|r| r.original).sum::<f32>() / n,
        rows.iter().map(|r| r.baseline_lutnn).sum::<f32>() / n,
        rows.iter().map(|r| r.elutnn).sum::<f32>() / n,
    )
}

/// Runs the Table-4 substitute: eight synthetic GLUE-like tasks.
///
/// # Errors
///
/// Propagates model/conversion errors.
pub fn run_nlp(cfg: &AccuracyConfig) -> Result<AccuracyResult, ExpError> {
    let mut rng = DataRng::new(cfg.seed);
    let mut rows = Vec::new();
    for task in NlpTask::all() {
        let ds = nlp_dataset(
            task,
            cfg.train_examples + cfg.eval_examples,
            cfg.vocab,
            cfg.seq_len,
            &mut rng,
        );
        let model_cfg = ModelConfig {
            input: InputKind::Tokens { vocab: cfg.vocab },
            hidden: cfg.hidden,
            heads: cfg.heads,
            layers: cfg.layers,
            ffn_dim: cfg.ffn_dim,
            max_seq: cfg.seq_len,
            classes: task.classes(),
        };
        rows.push(measure_task(
            task.glue_name(),
            &model_cfg,
            ds,
            cfg,
            &mut rng,
        )?);
    }
    let averages = averages(&rows);
    Ok(AccuracyResult {
        table: "Table 4 (NLP / synthetic GLUE)".to_string(),
        rows,
        averages,
    })
}

/// Runs the Table-5 substitute: two synthetic patch-image tasks
/// (CIFAR-10- and CIFAR-100-like class counts).
///
/// # Errors
///
/// Propagates model/conversion errors.
pub fn run_vision(cfg: &AccuracyConfig) -> Result<AccuracyResult, ExpError> {
    let mut rng = DataRng::new(cfg.seed ^ 0xc1fa);
    let patches = cfg.seq_len;
    let patch_dim = 12;
    let mut rows = Vec::new();
    for (name, classes) in [("CIFAR-10*", 10usize), ("CIFAR-100*", 25usize)] {
        let ds = vision_dataset(
            name,
            classes,
            cfg.train_examples + cfg.eval_examples,
            patches,
            patch_dim,
            0.35,
            &mut rng,
        );
        let model_cfg = ModelConfig {
            input: InputKind::Patches {
                input_dim: patch_dim,
            },
            hidden: cfg.hidden,
            heads: cfg.heads,
            layers: cfg.layers,
            ffn_dim: cfg.ffn_dim,
            max_seq: patches,
            classes,
        };
        rows.push(measure_task(name, &model_cfg, ds, cfg, &mut rng)?);
    }
    let averages = averages(&rows);
    Ok(AccuracyResult {
        table: "Table 5 (Vision / synthetic CIFAR)".to_string(),
        rows,
        averages,
    })
}

/// Renders an accuracy table.
pub fn render(result: &AccuracyResult) -> String {
    let mut t = TextTable::new(vec!["Task", "Original", "LUT-NN", "eLUT-NN"]);
    for r in &result.rows {
        t.row(vec![
            r.task.clone(),
            format!("{:.1}", 100.0 * r.original),
            format!("{:.1}", 100.0 * r.baseline_lutnn),
            format!("{:.1}", 100.0 * r.elutnn),
        ]);
    }
    let (o, b, e) = result.averages;
    t.row(vec![
        "Avg.".to_string(),
        format!("{:.1}", 100.0 * o),
        format!("{:.1}", 100.0 * b),
        format!("{:.1}", 100.0 * e),
    ]);
    format!(
        "{} — accuracy (%) with ALL linear layers replaced\n\
         Paper shape: eLUT-NN ≈ original >> baseline LUT-NN\n\n{}",
        result.table,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative task end-to-end at `AccuracyConfig::quick` with
    /// `layers` encoder layers (the full table runs in the reproduce
    /// binary): the dense model learns the task and eLUT-NN does not trail
    /// the baseline.
    fn assert_nlp_subset_preserves_ordering(layers: usize) {
        let cfg = AccuracyConfig {
            layers,
            ..AccuracyConfig::quick()
        };
        let mut rng = DataRng::new(3);
        let task = NlpTask::ContainsAnswer;
        let ds = nlp_dataset(
            task,
            cfg.train_examples + cfg.eval_examples,
            cfg.vocab,
            cfg.seq_len,
            &mut rng,
        );
        let model_cfg = ModelConfig {
            input: InputKind::Tokens { vocab: cfg.vocab },
            hidden: cfg.hidden,
            heads: cfg.heads,
            layers: cfg.layers,
            ffn_dim: cfg.ffn_dim,
            max_seq: cfg.seq_len,
            classes: task.classes(),
        };
        let row = measure_task("QNLI", &model_cfg, ds, &cfg, &mut rng).unwrap();
        assert!(row.original > 0.4, "original {}", row.original);
        assert!(
            row.elutnn >= row.baseline_lutnn - 0.1,
            "eLUT-NN {} vs baseline {}",
            row.elutnn,
            row.baseline_lutnn
        );
    }

    /// The claim on a one-layer model.
    #[test]
    fn quick_nlp_subset_preserves_ordering() {
        assert_nlp_subset_preserves_ordering(1);
    }

    /// [`quick_nlp_subset_preserves_ordering`] at the quick configuration's
    /// own four layers: the long pass `scripts/check.sh` runs with
    /// `--ignored`.
    #[test]
    #[ignore = "long accuracy pass: the four-layer model"]
    fn quick_nlp_subset_preserves_ordering_full() {
        assert_nlp_subset_preserves_ordering(AccuracyConfig::quick().layers);
    }

    #[test]
    fn averages_computed() {
        let rows = vec![
            TaskAccuracy {
                task: "a".to_string(),
                original: 0.8,
                baseline_lutnn: 0.4,
                elutnn: 0.7,
            },
            TaskAccuracy {
                task: "b".to_string(),
                original: 0.6,
                baseline_lutnn: 0.2,
                elutnn: 0.5,
            },
        ];
        let (o, b, e) = averages(&rows);
        assert!((o - 0.7).abs() < 1e-6);
        assert!((b - 0.3).abs() < 1e-6);
        assert!((e - 0.6).abs() < 1e-6);
    }

    #[test]
    fn render_has_average_row() {
        let result = AccuracyResult {
            table: "Table 4".to_string(),
            rows: vec![TaskAccuracy {
                task: "MNLI".to_string(),
                original: 0.8,
                baseline_lutnn: 0.3,
                elutnn: 0.75,
            }],
            averages: (0.8, 0.3, 0.75),
        };
        let s = render(&result);
        assert!(s.contains("MNLI"));
        assert!(s.contains("Avg."));
        assert!(s.contains("80.0"));
    }
}
