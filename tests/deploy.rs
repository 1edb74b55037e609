//! Deployment artifact tests: a converted LUT-NN model (codebooks + INT8
//! LUTs + norms + head) round-trips through serde and keeps producing
//! identical predictions — the artifact the converter ships to a PIM
//! serving host.

use pimdl::lutnn::calibrate::convert_kmeans_only;
use pimdl::lutnn::convert::LutClassifier;
use pimdl::nn::data::{nlp_dataset, NlpTask};
use pimdl::nn::embedding::SequenceInput;
use pimdl::nn::train::{train, TrainConfig};
use pimdl::nn::transformer::{InputKind, ModelConfig, TransformerClassifier};
use pimdl::tensor::rng::DataRng;

fn converted_model() -> (LutClassifier, Vec<SequenceInput>) {
    let mut rng = DataRng::new(77);
    let ds = nlp_dataset(NlpTask::Majority, 120, 12, 6, &mut rng);
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
            epochs: 3,
            batch_size: 8,
            lr: 3e-3,
            schedule: Default::default(),
            seed: 1,
        },
    )
    .unwrap();
    let lut_model = convert_kmeans_only(&model, &ds, 4, 8, 10, 2048, &mut rng).unwrap();
    (lut_model, ds.inputs[..10].to_vec())
}

#[test]
fn lut_model_roundtrips_through_json() {
    let (model, inputs) = converted_model();
    let json = serde_json::to_string(&model).expect("serialize");
    let restored: LutClassifier = serde_json::from_str(&json).expect("deserialize");

    // Every scalar survives: `f32`s are written as their shortest decimal,
    // which is injective, so equal text means equal bits.
    assert_eq!(serde_json::to_string(&restored).expect("serialize"), json);
    assert_eq!(restored.hidden(), model.hidden());
    assert_eq!(restored.total_lut_bytes(), model.total_lut_bytes());
    for input in &inputs {
        for int8 in [false, true] {
            let a = model.predict(input, int8).unwrap();
            let b = restored.predict(input, int8).unwrap();
            assert_eq!(a, b, "prediction drift after round-trip (int8={int8})");
        }
    }
}

#[test]
fn artifact_is_compact() {
    // The INT8 LUTs dominate the artifact; its JSON should be within a
    // small factor of the raw LUT bytes (sanity check that we do not ship
    // caches or gradients... gradients DO ship with Param today for the
    // norms/head — they are zero vectors; verify they do not explode size).
    let (model, _) = converted_model();
    let json = serde_json::to_string(&model).expect("serialize");
    let lut_bytes = model.total_lut_bytes();
    assert!(lut_bytes > 0);
    // JSON of i8 arrays costs ~4 bytes per entry plus structure; allow 64x.
    assert!(
        json.len() < lut_bytes * 64,
        "artifact {} bytes for {} LUT bytes",
        json.len(),
        lut_bytes
    );
}

#[test]
fn tampered_artifact_fails_closed() {
    let (model, inputs) = converted_model();
    let mut json = serde_json::to_string(&model).expect("serialize");
    // Corrupt the structure (truncate) — must error, not mis-deserialize.
    json.truncate(json.len() / 2);
    let result: Result<LutClassifier, _> = serde_json::from_str(&json);
    assert!(result.is_err());
    let _ = inputs;
}

#[test]
fn bad_head_count_in_artifact_is_an_error() {
    // `heads` is plain data in the artifact: zero must not divide, and a
    // count that does not divide the hidden width must not mis-slice.
    let (model, inputs) = converted_model();
    let json = serde_json::to_string(&model).expect("serialize");
    assert!(json.contains("\"heads\":2"));
    for heads in [0, 3] {
        let edited = json.replace("\"heads\":2", &format!("\"heads\":{heads}"));
        let restored: LutClassifier = serde_json::from_str(&edited).expect("well-formed");
        for int8 in [false, true] {
            assert!(restored.predict(&inputs[0], int8).is_err(), "heads={heads}");
        }
    }
}

/// `json` with the first `"field":N` inside the first `"owner":{..}`
/// object bumped to `N + 1`.
fn bump_table_dim(json: &str, owner: &str, field: &str) -> String {
    let at = json
        .find(&format!("\"{owner}\":{{"))
        .expect("owner present");
    let key = format!("\"{field}\":");
    let start = at + json[at..].find(&key).expect("field present") + key.len();
    let end = start
        + json[start..]
            .find(|c: char| !c.is_ascii_digit())
            .expect("digits");
    let n: usize = json[start..end].parse().expect("a count");
    format!("{}{}{}", &json[..start], n + 1, &json[end..])
}

#[test]
fn table_dims_disagreeing_with_codes_are_an_error() {
    // A table's `cb` / `f` are plain data in the artifact, next to the
    // entries they describe: an edit must fail closed in both modes, not
    // mis-slice or silently misread a gather.
    let (model, inputs) = converted_model();
    let json = serde_json::to_string(&model).expect("serialize");
    for (table, field) in [("lut", "f"), ("qlut", "cb"), ("pq", "v"), ("pq", "ct")] {
        let edited = bump_table_dim(&json, table, field);
        assert_ne!(edited, json);
        let restored: LutClassifier = serde_json::from_str(&edited).expect("well-formed");
        for int8 in [false, true] {
            assert!(
                restored.predict(&inputs[0], int8).is_err(),
                "{table}.{field} int8={int8}"
            );
        }
    }
}

#[test]
fn matrix_shapes_disagreeing_with_data_fail_to_load() {
    // Every serialized matrix's `rows` / `cols` are checked against its
    // entries on load: an edited width of a centroid matrix, of the f32 and
    // INT8 tables, and of a `Param` (the embedding's) is a load error, not
    // a later out-of-bounds panic in a row slice.
    let (model, _) = converted_model();
    let json = serde_json::to_string(&model).expect("serialize");
    for owner in ["centroids", "lut", "qlut", "data"] {
        let edited = bump_table_dim(&json, owner, "cols");
        assert_ne!(edited, json);
        let restored = serde_json::from_str::<LutClassifier>(&edited);
        assert!(restored.is_err(), "{owner}.cols");
    }
}
