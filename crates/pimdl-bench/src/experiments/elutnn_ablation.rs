//! Ablation of eLUT-NN's two techniques (§4.2): the **reconstruction loss**
//! (Eq. 1) and the **straight-through estimator** (Eq. 2).
//!
//! Four calibration variants, all from random centroid init on the same
//! small calibration set:
//!
//! * `STE + recon` — full eLUT-NN;
//! * `STE only` — β = 0 (model loss through STE, no direct centroid
//!   supervision);
//! * `soft only` — the baseline estimator (Gumbel-softmax assignment,
//!   centroid-only training);
//! * `none` — random centroids, no fine-tuning at all (the floor).
//!
//! The paper's claim: both techniques contribute; the reconstruction loss
//! provides direct, well-scaled centroid gradients and is the main driver
//! at small calibration budgets.

use serde::Serialize;

use pimdl_lutnn::calibrate::{
    convert_elutnn, convert_lutnn_baseline, init_quantizers, BaselineLutNnConfig,
    CalibrationConfig, CentroidInit,
};
use pimdl_lutnn::convert::{lut_accuracy, LutClassifier};
use pimdl_nn::data::{nlp_dataset, NlpTask};
use pimdl_nn::train::{evaluate, train, TrainConfig};
use pimdl_nn::transformer::{InputKind, ModelConfig, TransformerClassifier};
use pimdl_tensor::rng::DataRng;

use crate::report::TextTable;

/// One ablation variant's accuracy.
#[derive(Debug, Clone, Serialize)]
pub struct VariantAccuracy {
    /// Variant name.
    pub variant: String,
    /// Test accuracy after conversion (INT8 LUT inference).
    pub accuracy: f32,
}

/// Full ablation result.
#[derive(Debug, Clone, Serialize)]
pub struct AblationResult {
    /// Task used.
    pub task: String,
    /// Dense-model reference accuracy.
    pub original: f32,
    /// Calibration sequences used.
    pub calib_sequences: usize,
    /// Per-variant accuracies.
    pub variants: Vec<VariantAccuracy>,
}

/// Runs the four-variant ablation at paper-experiment scale.
///
/// # Errors
///
/// Propagates model/conversion errors.
pub fn run(
    calib_sequences: usize,
    seed: u64,
) -> Result<AblationResult, Box<dyn std::error::Error>> {
    run_with(calib_sequences, seed, 4, 20, 560)
}

/// Runs the ablation with explicit model depth / training budget (smaller
/// settings for smoke tests).
///
/// # Errors
///
/// Propagates model/conversion errors.
pub fn run_with(
    calib_sequences: usize,
    seed: u64,
    layers: usize,
    train_epochs: usize,
    examples: usize,
) -> Result<AblationResult, Box<dyn std::error::Error>> {
    let task = NlpTask::ContainsAnswer;
    let mut rng = DataRng::new(seed);
    let mut ds = nlp_dataset(task, examples, 16, 8, &mut rng);
    let test = ds.split_off(100.min(examples / 3));

    let model_cfg = ModelConfig {
        input: InputKind::Tokens { vocab: 16 },
        hidden: 32,
        heads: 4,
        layers,
        ffn_dim: 64,
        max_seq: 8,
        classes: task.classes(),
    };
    let mut model = TransformerClassifier::new(&model_cfg, &mut rng);
    train(
        &mut model,
        &ds,
        &TrainConfig {
            epochs: train_epochs,
            batch_size: 16,
            lr: 1.5e-3,
            schedule: Default::default(),
            seed: seed ^ 1,
        },
    )?;
    let original = evaluate(&model, &test)?;
    let calib = ds.take(calib_sequences);

    let (v, ct) = (4usize, 8usize);
    let base_cfg = CalibrationConfig {
        v,
        ct,
        init: CentroidInit::Random,
        kmeans_iters: 0,
        beta: 1e-3,
        lr: 2e-3,
        epochs: 6,
        batch_size: 8,
        seed: seed ^ 2,
        max_activation_rows: 4096,
    };

    let mut variants = Vec::new();
    let mut measure =
        |name: &str, model_conv: &LutClassifier| -> Result<(), Box<dyn std::error::Error>> {
            variants.push(VariantAccuracy {
                variant: name.to_string(),
                accuracy: lut_accuracy(model_conv, &test, true)?,
            });
            Ok(())
        };

    // Full eLUT-NN.
    let (full, _) = convert_elutnn(&model, &calib, &base_cfg)?;
    measure("STE + recon (eLUT-NN)", &full)?;

    // STE only (β = 0).
    let (ste_only, _) = convert_elutnn(
        &model,
        &calib,
        &CalibrationConfig {
            beta: 0.0,
            ..base_cfg.clone()
        },
    )?;
    measure("STE only (beta = 0)", &ste_only)?;

    // Soft estimator only (the [84] baseline at the same budget).
    let (soft, _) = convert_lutnn_baseline(
        &model,
        &calib,
        &BaselineLutNnConfig {
            v,
            ct,
            init: CentroidInit::Random,
            kmeans_iters: 0,
            tau: 1.0,
            gumbel_noise: true,
            lr: 2e-3,
            epochs: 6,
            batch_size: 8,
            seed: seed ^ 2,
            max_activation_rows: 4096,
        },
    )?;
    measure("soft assignment only", &soft)?;

    // No fine-tuning: random centroids straight into LUTs.
    let mut init_rng = DataRng::new(seed ^ 3);
    let random_qs = init_quantizers(
        &model,
        &calib.inputs,
        v,
        ct,
        CentroidInit::Random,
        0,
        4096,
        &mut init_rng,
    )?;
    let none = LutClassifier::convert(&model, random_qs)?;
    measure("no fine-tuning (floor)", &none)?;

    Ok(AblationResult {
        task: task.glue_name().to_string(),
        original,
        calib_sequences: calib.len(),
        variants,
    })
}

/// Renders the ablation table.
pub fn render(result: &AblationResult) -> String {
    let mut t = TextTable::new(vec!["Variant", "Accuracy (%)"]);
    t.row(vec![
        "original (dense)".to_string(),
        format!("{:.1}", 100.0 * result.original),
    ]);
    for v in &result.variants {
        t.row(vec![
            v.variant.clone(),
            format!("{:.1}", 100.0 * v.accuracy),
        ]);
    }
    format!(
        "eLUT-NN technique ablation (synthetic {}, {} calibration sequences, random init)\n\n{}",
        result.task,
        result.calib_sequences,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full eLUT-NN is at least the no-fine-tuning floor and near the
    /// dense model, on `run_with`'s output.
    fn assert_full_elutnn_beats_floor(r: &AblationResult) {
        assert_eq!(r.variants.len(), 4);
        let acc = |name: &str| {
            r.variants
                .iter()
                .find(|v| v.variant.starts_with(name))
                .unwrap()
                .accuracy
        };
        let full = acc("STE + recon");
        let floor = acc("no fine-tuning");
        assert!(
            full >= floor,
            "full {full} should be at least the floor {floor}"
        );
        assert!(
            full >= r.original - 0.3,
            "full {full} too far below original {}",
            r.original
        );
    }

    /// The claim on a one-layer model trained for 6 epochs on 160
    /// examples, 24 calibration sequences (full 1.00 against a 0.57
    /// floor).
    #[test]
    fn full_elutnn_beats_floor() {
        assert_full_elutnn_beats_floor(&run_with(24, 21, 1, 6, 160).unwrap());
    }

    /// [`full_elutnn_beats_floor`] at its former size (two layers, 8
    /// epochs, 240 examples, 40 sequences): the long pass
    /// `scripts/check.sh` runs with `--ignored`.
    #[test]
    #[ignore = "long accuracy pass: the two-layer model"]
    fn full_elutnn_beats_floor_full() {
        assert_full_elutnn_beats_floor(&run_with(40, 21, 2, 8, 240).unwrap());
    }

    #[test]
    fn render_lists_variants() {
        let r = AblationResult {
            task: "QNLI".to_string(),
            original: 1.0,
            calib_sequences: 48,
            variants: vec![VariantAccuracy {
                variant: "STE + recon (eLUT-NN)".to_string(),
                accuracy: 0.95,
            }],
        };
        let s = render(&r);
        assert!(s.contains("eLUT-NN technique ablation"));
        assert!(s.contains("95.0"));
    }
}
