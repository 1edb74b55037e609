//! §4.2 claim **A1** — data efficiency: eLUT-NN reaches near-original
//! accuracy from a small calibration subset, while the baseline LUT-NN
//! algorithm needs far more data (the paper: eLUT-NN uses <1 % of the
//! pre-training tokens; the baseline consumes the full training set and
//! still degrades).
//!
//! This experiment sweeps the calibration-set size for both algorithms on
//! one synthetic task and reports accuracy per budget.

use serde::Serialize;

use pimdl_lutnn::calibrate::{
    convert_elutnn, convert_lutnn_baseline, BaselineLutNnConfig, CalibrationConfig, CentroidInit,
};
use pimdl_lutnn::convert::lut_accuracy;
use pimdl_nn::data::{nlp_dataset, NlpTask};
use pimdl_nn::train::{evaluate, train, TrainConfig};
use pimdl_nn::transformer::{InputKind, ModelConfig, TransformerClassifier};
use pimdl_tensor::rng::DataRng;

use crate::report::TextTable;

/// One budget point.
#[derive(Debug, Clone, Serialize)]
pub struct BudgetPoint {
    /// Calibration sequences used.
    pub sequences: usize,
    /// Fraction of the training set.
    pub fraction: f32,
    /// eLUT-NN accuracy at this budget.
    pub elutnn: f32,
    /// Baseline LUT-NN accuracy at this budget.
    pub baseline: f32,
}

/// Full data-efficiency result.
#[derive(Debug, Clone, Serialize)]
pub struct DataEfficiencyResult {
    /// Task used.
    pub task: String,
    /// Dense-model reference accuracy.
    pub original: f32,
    /// Accuracy per calibration budget.
    pub points: Vec<BudgetPoint>,
}

/// Runs the sweep at experiment scale: a four-layer model trained for
/// 15 epochs.
///
/// # Errors
///
/// Propagates model/conversion errors.
pub fn run(
    budgets: &[usize],
    train_examples: usize,
    seed: u64,
) -> Result<DataEfficiencyResult, Box<dyn std::error::Error>> {
    run_with(budgets, train_examples, seed, 4, 15)
}

/// Runs the sweep with an explicit model depth and training budget
/// (smaller settings for the unit tests).
fn run_with(
    budgets: &[usize],
    train_examples: usize,
    seed: u64,
    layers: usize,
    train_epochs: usize,
) -> Result<DataEfficiencyResult, Box<dyn std::error::Error>> {
    let task = NlpTask::ContainsAnswer;
    let mut rng = DataRng::new(seed);
    let mut ds = nlp_dataset(task, train_examples + 100, 16, 8, &mut rng);
    let test = ds.split_off(100);

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
            lr: 3e-3,
            schedule: Default::default(),
            seed: seed ^ 1,
        },
    )?;
    let original = evaluate(&model, &test)?;

    let mut points = Vec::new();
    for &budget in budgets {
        let calib = ds.take(budget.min(ds.len()));
        let ecfg = CalibrationConfig {
            v: 4,
            ct: 8,
            init: CentroidInit::Random,
            kmeans_iters: 0,
            beta: 1e-3,
            lr: 2e-3,
            epochs: 6,
            batch_size: 8,
            seed: seed ^ 2,
            max_activation_rows: 4096,
        };
        let (elut, _) = convert_elutnn(&model, &calib, &ecfg)?;
        let elut_acc = lut_accuracy(&elut, &test, true)?;

        let bcfg = BaselineLutNnConfig {
            v: 4,
            ct: 8,
            init: CentroidInit::Random,
            kmeans_iters: 0,
            tau: 1.0,
            gumbel_noise: true,
            lr: 2e-3,
            epochs: 6,
            batch_size: 8,
            seed: seed ^ 2,
            max_activation_rows: 4096,
        };
        let (base, _) = convert_lutnn_baseline(&model, &calib, &bcfg)?;
        let base_acc = lut_accuracy(&base, &test, true)?;

        points.push(BudgetPoint {
            sequences: calib.len(),
            fraction: calib.len() as f32 / ds.len() as f32,
            elutnn: elut_acc,
            baseline: base_acc,
        });
    }
    Ok(DataEfficiencyResult {
        task: task.glue_name().to_string(),
        original,
        points,
    })
}

/// Renders the sweep.
pub fn render(result: &DataEfficiencyResult) -> String {
    let mut t = TextTable::new(vec![
        "Calib seqs",
        "% of train",
        "eLUT-NN",
        "LUT-NN baseline",
    ]);
    for p in &result.points {
        t.row(vec![
            p.sequences.to_string(),
            format!("{:.0}%", 100.0 * p.fraction),
            format!("{:.1}", 100.0 * p.elutnn),
            format!("{:.1}", 100.0 * p.baseline),
        ]);
    }
    format!(
        "A1 — Data efficiency on synthetic {} (original = {:.1} %)\n\
         Paper: eLUT-NN needs <1 % of the data; the baseline needs the full set\n\n{}",
        result.task,
        100.0 * result.original,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// eLUT-NN does not trail the baseline at a small calibration budget
    /// and stays near the dense model, on `run_with`'s output.
    fn assert_small_budget_favors_elutnn(r: &DataEfficiencyResult) {
        assert!(r.original > 0.8, "dense model failed: {}", r.original);
        let p = &r.points[0];
        assert!(
            p.elutnn >= p.baseline - 0.05,
            "eLUT-NN {} should not trail baseline {} at small budget",
            p.elutnn,
            p.baseline
        );
        assert!(
            p.elutnn >= r.original - 0.25,
            "eLUT-NN {} too far below original {}",
            p.elutnn,
            r.original
        );
    }

    /// The claim on a one-layer model trained for 10 epochs on 120
    /// examples, 32 calibration sequences: the smallest size tried at which
    /// eLUT-NN still separates from the baseline (1.00 against 0.81).
    #[test]
    fn small_budget_favors_elutnn() {
        assert_small_budget_favors_elutnn(&run_with(&[32], 120, 9, 1, 10).unwrap());
    }

    /// [`small_budget_favors_elutnn`] at experiment scale (four layers, 15
    /// epochs, 360 examples): the long pass `scripts/check.sh` runs with
    /// `--ignored`.
    #[test]
    #[ignore = "long accuracy pass: the four-layer model"]
    fn small_budget_favors_elutnn_full() {
        assert_small_budget_favors_elutnn(&run(&[32], 360, 9).unwrap());
    }

    #[test]
    fn render_includes_budgets() {
        let r = run_with(&[16, 48], 60, 10, 1, 1).unwrap();
        let s = render(&r);
        assert!(s.contains("16"));
        assert!(s.contains("48"));
        assert!(s.contains("Data efficiency"));
    }
}
