//! Cross-crate integration tests: the full PIM-DL pipeline from a trained
//! model through conversion, auto-tuning, and simulated execution.

use pimdl::engine::baseline::{host_inference, pim_gemm_inference, HostModel};
use pimdl::engine::pipeline::{PimDlEngine, ServingConfig};
use pimdl::engine::shapes::TransformerShape;
use pimdl::lutnn::calibrate::{convert_elutnn, CalibrationConfig, CentroidInit};
use pimdl::lutnn::convert::lut_accuracy;
use pimdl::lutnn::lut::LutTable;
use pimdl::lutnn::pq::ProductQuantizer;
use pimdl::nn::data::{nlp_dataset, NlpTask};
use pimdl::nn::train::{evaluate, train, TrainConfig};
use pimdl::nn::transformer::{InputKind, ModelConfig, TransformerClassifier};
use pimdl::sim::cost::estimate_cost;
use pimdl::sim::exec::{run_lut_kernel, LutKernelData};
use pimdl::sim::{LutWorkload, PlatformConfig};
use pimdl::tensor::rng::DataRng;
use pimdl::tuner::tune;

/// Train → eLUT-NN convert → INT8 LUT inference: the full algorithmic
/// pipeline holds accuracy.
#[test]
fn train_convert_infer_pipeline() {
    let mut rng = DataRng::new(100);
    let mut ds = nlp_dataset(NlpTask::Majority, 200, 12, 6, &mut rng);
    let test = ds.split_off(50);
    let cfg = ModelConfig {
        input: InputKind::Tokens { vocab: 12 },
        hidden: 16,
        heads: 2,
        layers: 2,
        ffn_dim: 32,
        max_seq: 6,
        classes: 3,
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
            seed: 1,
        },
    )
    .unwrap();
    let original = evaluate(&model, &test).unwrap();
    assert!(original > 0.6, "dense model failed to learn: {original}");

    let ccfg = CalibrationConfig {
        v: 4,
        ct: 8,
        init: CentroidInit::Random,
        kmeans_iters: 0,
        beta: 1e-3,
        lr: 3e-3,
        epochs: 6,
        batch_size: 8,
        seed: 2,
        max_activation_rows: 2048,
    };
    let (lut_model, _) = convert_elutnn(&model, &ds.take(50), &ccfg).unwrap();
    let int8_acc = lut_accuracy(&lut_model, &test, true).unwrap();
    assert!(
        int8_acc >= original - 0.3,
        "converted accuracy {int8_acc} too far below {original}"
    );
}

/// The LUT workload of a converted layer runs identically on the host and
/// on the simulated PIM under a tuned mapping.
#[test]
fn converted_layer_runs_on_simulator() {
    let mut rng = DataRng::new(200);
    let calib = rng.normal_matrix(512, 32, 0.0, 1.0);
    let weight = rng.normal_matrix(32, 64, 0.0, 0.5);
    let pq = ProductQuantizer::fit(&calib, 4, 16, 10, &mut rng).unwrap();
    let lut = LutTable::build(&pq, &weight).unwrap();
    let qlut = lut.quantize();

    let x = rng.normal_matrix(128, 32, 0.0, 1.0);
    let indices = pq.encode(&x).unwrap();
    let host_out = qlut.lookup(&indices).unwrap();

    let mut platform = PlatformConfig::upmem();
    platform.num_pes = 32;
    let workload = LutWorkload::new(128, pq.cb(), pq.ct(), 64).unwrap();
    let tuned = tune(&platform, &workload).unwrap();
    let (sim_out, report) = run_lut_kernel(
        &platform,
        &workload,
        &tuned.mapping,
        LutKernelData {
            indices: indices.as_slice(),
            table: qlut.table().codes(),
            scale: qlut.table().scale(),
        },
    )
    .unwrap();
    assert!(sim_out.approx_eq(&host_out, 1e-5));
    assert!(report.time.total_s() > 0.0);

    // The tuner-cached estimate for the same mapping matches the executed
    // cost structure.
    let est = estimate_cost(&platform, &workload, &tuned.mapping).unwrap();
    assert_eq!(est.wram_bytes, report.wram_bytes);
    assert_eq!(est.host_pim_bytes, report.host_pim_bytes);
}

/// The engine-level headline ordering holds end to end on all platforms:
/// PIM-DL beats GEMM-on-PIM everywhere.
#[test]
fn engine_headline_ordering_all_platforms() {
    let shape = TransformerShape::with_hidden(512, 4);
    let cfg = ServingConfig {
        batch: 8,
        seq_len: 64,
        v: 4,
        ct: 16,
    };
    for platform in PlatformConfig::all() {
        let engine = PimDlEngine::new(platform.clone());
        let pimdl = engine.serve(&shape, &cfg).unwrap().total_s;
        let gemm = pim_gemm_inference(&platform, &shape, cfg.batch, cfg.seq_len).total_s();
        assert!(
            gemm > pimdl,
            "{}: GEMM-on-PIM {gemm} should exceed PIM-DL {pimdl}",
            platform.kind.name()
        );
    }
}

/// Speedup over the CPU grows with batch size (the Fig. 12-(c) trend),
/// checked through the whole stack.
#[test]
fn speedup_grows_with_batch() {
    let engine = PimDlEngine::new(PlatformConfig::upmem());
    let shape = TransformerShape::bert_base();
    let cpu = HostModel::cpu_int8();
    let speedup = |batch: usize| {
        let cfg = ServingConfig {
            batch,
            seq_len: 128,
            v: 4,
            ct: 16,
        };
        let pimdl = engine.serve(&shape, &cfg).unwrap().total_s;
        host_inference(&cpu, &shape, batch, 128, 1).total_s() / pimdl
    };
    let s8 = speedup(8);
    let s64 = speedup(64);
    assert!(s64 > s8, "batch 64 speedup {s64} <= batch 8 speedup {s8}");
}

/// Facade re-exports stay wired.
#[test]
fn facade_exports() {
    let _ = pimdl::sim::PlatformConfig::upmem();
    let _ = pimdl::engine::shapes::TransformerShape::tiny();
    let _ = pimdl::tensor::Matrix::zeros(1, 1);
}

/// `pimdl --platform file.json` loads through `PlatformConfig::validate`:
/// a file declaring 2^64 − 1 PEs is refused, with the field named, before
/// any search runs.
#[test]
fn cli_refuses_an_out_of_range_platform_file() {
    let json = serde_json::to_string(&PlatformConfig::upmem())
        .unwrap()
        .replace("\"num_pes\":1024", &format!("\"num_pes\":{}", usize::MAX));
    let path = std::env::temp_dir().join(format!("pimdl-huge-pes-{}.json", std::process::id()));
    std::fs::write(&path, json).unwrap();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pimdl"))
        .args([
            "tune",
            "--n",
            "64",
            "--cb",
            "8",
            "--ct",
            "16",
            "--f",
            "32",
            "--platform",
        ])
        .arg(&path)
        .output()
        .unwrap();
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(stderr.contains("num_pes"), "{stderr}");
}
