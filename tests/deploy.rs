//! Deployment artifact tests: a converted LUT-NN model (codebooks + INT8
//! LUTs + norms + head) round-trips through serde and keeps producing
//! identical predictions — the artifact the converter ships to a PIM
//! serving host — and an edited artifact is a load error or a model that
//! predicts, never a panic.

use pimdl::lutnn::calibrate::convert_kmeans_only;
use pimdl::lutnn::convert::{LayerKind, LutClassifier};
use pimdl::nn::data::{nlp_dataset, NlpTask};
use pimdl::nn::embedding::SequenceInput;
use pimdl::nn::train::{train, TrainConfig};
use pimdl::nn::transformer::{InputKind, ModelConfig, TransformerClassifier};
use pimdl::tensor::rng::DataRng;

use std::ops::Range;

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
    // The width is stated once, as the head's input width.
    assert!(!json.contains("\"hidden\""), "a second copy of the width");
    assert_eq!(restored.hidden(), model.head.in_features());
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

/// One JSON value in the artifact text: its byte span and, for a
/// container, its children (object members keyed by name).
struct Node {
    span: Range<usize>,
    kind: Kind,
}

enum Kind {
    Number,
    Other,
    Array(Vec<Node>),
    Object(Vec<(String, Node)>),
}

/// Scans the compact JSON the artifact writer emits.
fn scan(text: &[u8], pos: &mut usize) -> Node {
    let start = *pos;
    let kind = match text[start] {
        b'{' | b'[' => {
            let close = if text[start] == b'{' { b'}' } else { b']' };
            *pos += 1;
            let (mut members, mut items) = (Vec::new(), Vec::new());
            while text[*pos] != close {
                if close == b'}' {
                    let key = scan(text, pos);
                    let name = std::str::from_utf8(&text[key.span.start + 1..key.span.end - 1]);
                    *pos += 1; // ':'
                    members.push((name.expect("ASCII keys").to_string(), scan(text, pos)));
                } else {
                    items.push(scan(text, pos));
                }
                if text[*pos] == b',' {
                    *pos += 1;
                }
            }
            *pos += 1;
            if close == b'}' {
                Kind::Object(members)
            } else {
                Kind::Array(items)
            }
        }
        b'"' => {
            *pos += 1;
            while text[*pos] != b'"' {
                *pos += if text[*pos] == b'\\' { 2 } else { 1 };
            }
            *pos += 1;
            Kind::Other
        }
        b'-' | b'0'..=b'9' => {
            while matches!(
                text.get(*pos),
                Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            ) {
                *pos += 1;
            }
            Kind::Number
        }
        _ => {
            while text[*pos].is_ascii_alphabetic() {
                *pos += 1;
            }
            Kind::Other
        }
    };
    Node {
        span: start..*pos,
        kind,
    }
}

/// The part of the model an edit is read back through: the smallest
/// enclosing piece with a public type and a public slot. The derived
/// reader reads each field on its own, so re-reading only that piece's
/// edited text and splicing it into a copy of the model gives what
/// re-reading the whole artifact would, at a fraction of the cost.
#[derive(Clone, Copy)]
enum Part {
    Whole,
    Embedding,
    Head,
    Linear(LayerKind),
    Ln1,
    Ln2,
}

impl Part {
    /// The part rooted at the member `path` of the first block or of the
    /// model, if it is one.
    fn at(path: &str) -> Option<Part> {
        Some(match path {
            "model.embedding" => Part::Embedding,
            "model.head" => Part::Head,
            "model.blocks[0].qkv" => Part::Linear(LayerKind::Qkv),
            "model.blocks[0].proj" => Part::Linear(LayerKind::OProj),
            "model.blocks[0].ffn1" => Part::Linear(LayerKind::Ffn1),
            "model.blocks[0].ffn2" => Part::Linear(LayerKind::Ffn2),
            "model.blocks[0].ln1" => Part::Ln1,
            "model.blocks[0].ln2" => Part::Ln2,
            _ => return None,
        })
    }

    /// `base` with this part read from `text`; `Err` is the reader's.
    fn read(self, base: &LutClassifier, text: &str) -> serde_json::Result<LutClassifier> {
        let mut model = base.clone();
        let block = &mut model.blocks[0];
        match self {
            Part::Whole => return serde_json::from_str(text),
            Part::Embedding => model.embedding = serde_json::from_str(text)?,
            Part::Head => model.head = serde_json::from_str(text)?,
            Part::Linear(LayerKind::Qkv) => block.qkv = serde_json::from_str(text)?,
            Part::Linear(LayerKind::OProj) => block.proj = serde_json::from_str(text)?,
            Part::Linear(LayerKind::Ffn1) => block.ffn1 = serde_json::from_str(text)?,
            Part::Linear(LayerKind::Ffn2) => block.ffn2 = serde_json::from_str(text)?,
            Part::Ln1 => block.ln1 = serde_json::from_str(text)?,
            Part::Ln2 => block.ln2 = serde_json::from_str(text)?,
        }
        Ok(model)
    }
}

/// One edit of the artifact text: `span` replaced by `with`, read back
/// through `part`, whose text is `part_span`.
struct Edit {
    label: String,
    span: Range<usize>,
    with: String,
    part: Part,
    part_span: Range<usize>,
}

/// Collects edits under one part of the model.
struct Walk<'a> {
    json: &'a str,
    part: Part,
    part_span: Range<usize>,
    out: Vec<Edit>,
}

impl Walk<'_> {
    fn push(&mut self, label: String, span: Range<usize>, with: String) {
        self.out.push(Edit {
            label,
            span,
            with,
            part: self.part,
            part_span: self.part_span.clone(),
        });
    }

    /// The edits of one number: integers go through 0, 1, n ± 1, 2n and
    /// 2^20; floats also through NaN (which JSON cannot spell: the reader
    /// must refuse the text), ±inf (`1e999` overflows to it) and 1e38.
    fn number(&mut self, node: &Node, path: &str) {
        let text = &self.json[node.span.clone()];
        let mut with: Vec<String> = Vec::new();
        if text.contains(['.', 'e', 'E']) {
            let x: f64 = text.parse().expect("a float");
            for v in [0.0, 1.0, x - 1.0, x + 1.0, 2.0 * x, 1_048_576.0, 1e38] {
                with.push(format!("{v:?}"));
            }
            with.extend(["NaN", "1e999", "-1e999"].map(String::from));
        } else {
            let n: i64 = text.parse().expect("an integer");
            for v in [0, 1, n - 1, n + 1, 2 * n, 1 << 20] {
                with.push(v.to_string());
            }
        }
        with.sort();
        with.dedup();
        for w in with.into_iter().filter(|w| w != text) {
            self.push(format!("{path} = {w}"), node.span.clone(), w);
        }
    }

    /// Every edit under `node` but in the blocks after the first: every
    /// scalar outside numeric arrays, the first, middle and last element
    /// of each numeric array, and each array with its last element
    /// dropped or duplicated.
    fn node(&mut self, node: &Node, path: &str) {
        match &node.kind {
            Kind::Number => self.number(node, path),
            Kind::Other => {}
            Kind::Object(members) => {
                for (name, child) in members {
                    let path = format!("{path}.{name}");
                    match Part::at(&path) {
                        Some(part) => {
                            let outer = (self.part, self.part_span.clone());
                            (self.part, self.part_span) = (part, child.span.clone());
                            self.node(child, &path);
                            (self.part, self.part_span) = outer;
                        }
                        None => self.node(child, &path),
                    }
                }
            }
            Kind::Array(items) => {
                if let Some(last) = items.last() {
                    let drop_from = match items.len() {
                        1 => last.span.start,
                        n => items[n - 2].span.end,
                    };
                    let last_text = &self.json[last.span.clone()];
                    let twice = format!("{last_text},{last_text}");
                    self.push(
                        format!("{path} without its last element"),
                        drop_from..last.span.end,
                        String::new(),
                    );
                    self.push(
                        format!("{path} with its last element twice"),
                        last.span.clone(),
                        twice,
                    );
                }
                let numeric = items.iter().all(|i| matches!(i.kind, Kind::Number));
                let walked: Vec<usize> = if numeric && !items.is_empty() {
                    let mut ends = vec![0, items.len() / 2, items.len() - 1];
                    ends.dedup();
                    ends
                } else if path.ends_with(".blocks") {
                    (0..items.len().min(1)).collect()
                } else {
                    (0..items.len()).collect()
                };
                for i in walked {
                    self.node(&items[i], &format!("{path}[{i}]"));
                }
            }
        }
    }
}

#[test]
fn every_edit_of_the_artifact_is_an_error_or_a_model_that_predicts() {
    // The deployment artifact is untrusted input: each edit below must be
    // refused by the reader with a typed error or give a model whose
    // `predict` returns (`Ok` or `Err`) in both modes. A panic anywhere
    // fails the test and names the edit. Only the first block is walked:
    // the blocks share one type, and the walk stays within ~10 s in a
    // debug build.
    let (model, inputs) = converted_model();
    let json = serde_json::to_string(&model).expect("serialize");
    let root = scan(json.as_bytes(), &mut 0);
    let mut walk = Walk {
        json: &json,
        part: Part::Whole,
        part_span: root.span.clone(),
        out: Vec::new(),
    };
    walk.node(&root, "model");
    assert!(walk.out.len() > 1000, "{} edits", walk.out.len());
    // Outside the named parts only the block list and the first block's
    // head count are left to edit: the model has no scalar of its own
    // (its width is the head's input width, edited under `model.head`).
    let loose: Vec<&str> = walk
        .out
        .iter()
        .filter(|e| matches!(e.part, Part::Whole) && !e.label.starts_with("model.blocks"))
        .map(|e| e.label.as_str())
        .collect();
    assert!(loose.is_empty(), "edits outside every part: {loose:?}");

    let mut panicked = Vec::new();
    for edit in &walk.out {
        let (part, span) = (&edit.part_span, &edit.span);
        let text = format!(
            "{}{}{}",
            &json[part.start..span.start],
            edit.with,
            &json[span.end..part.end]
        );
        let outcome = std::panic::catch_unwind(|| {
            if let Ok(restored) = edit.part.read(&model, &text) {
                for int8 in [false, true] {
                    let _ = restored.predict(&inputs[0], int8);
                }
            }
        });
        if outcome.is_err() {
            panicked.push(edit.label.as_str());
        }
    }
    assert!(panicked.is_empty(), "edits that panic: {panicked:#?}");
}
