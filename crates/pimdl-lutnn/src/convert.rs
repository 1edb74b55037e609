//! Model conversion: replacing every linear layer of a transformer with a
//! LUT-NN operator (the paper's LUT-NN Converter output format).
//!
//! [`LutLinear`] is the converted form of one `pimdl_nn::Linear`:
//! codebooks + look-up tables + bias. [`LutClassifier`] is the converted
//! form of a whole [`TransformerClassifier`]: embedding, layer norms and the
//! classification head are carried over unchanged; the four linear operators
//! per block (fused QKV, O projection, FFN1, FFN2 — Fig. 6-(b)) run through
//! LUTs. Inference and the per-layer diagnostics are callers of the one
//! encoder walk, [`pimdl_nn::transformer::walk_forward`], with
//! [`LutLinear::forward`] as the linear at every site.

use pimdl_nn::embedding::{InputEmbedding, SequenceInput};
use pimdl_nn::transformer::{walk_forward, BlockFrame, LayerNorm, TransformerClassifier};
use pimdl_nn::Linear;
use pimdl_tensor::Matrix;

use crate::kernels::{lut_linear_fused, lut_linear_fused_quant};
use crate::lut::{LutTable, QuantLutTable};
use crate::pq::ProductQuantizer;
use crate::{LutError, Result};

pub use pimdl_nn::transformer::{layer_index, LayerKind};

/// A linear layer converted to the LUT-NN form.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LutLinear {
    pq: ProductQuantizer,
    lut: LutTable,
    qlut: QuantLutTable,
    bias: Vec<f32>,
}

impl LutLinear {
    /// Converts a dense linear layer using a fitted quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if the quantizer's hidden dim does not
    /// match the layer's input dim.
    pub fn convert(linear: &Linear, pq: ProductQuantizer) -> Result<Self> {
        if pq.hidden() != linear.in_features() {
            return Err(LutError::Config {
                op: "LutLinear::convert",
                detail: format!(
                    "quantizer hidden {} != layer input {}",
                    pq.hidden(),
                    linear.in_features()
                ),
            });
        }
        let lut = LutTable::build(&pq, &linear.weight.data)?;
        let qlut = lut.quantize();
        Ok(LutLinear {
            pq,
            lut,
            qlut,
            bias: linear.bias.data.row(0).to_vec(),
        })
    }

    /// Input feature count `H`.
    pub fn in_features(&self) -> usize {
        self.pq.hidden()
    }

    /// Output feature count `F`.
    pub fn out_features(&self) -> usize {
        self.lut.f()
    }

    /// The quantizer (codebooks) of this layer.
    pub fn quantizer(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// The `f32` look-up tables.
    pub fn lut(&self) -> &LutTable {
        &self.lut
    }

    /// The INT8 look-up tables (the form shipped to PIM local memory).
    pub fn quant_lut(&self) -> &QuantLutTable {
        &self.qlut
    }

    /// LUT-NN forward: CCS + gather-accumulate + bias, through the fused
    /// host kernels (bit-identical to encode + lookup by their contract).
    ///
    /// With `int8 = true` the gather runs over the INT8 tables with i32
    /// accumulation (the UPMEM deployment); otherwise over the `f32` tables.
    ///
    /// # Errors
    ///
    /// Propagates shape errors. Both tables are checked against their
    /// entries whichever one is read, and the quantizer against its
    /// centroids and the tables' `cb`, so a deserialized artefact with an
    /// inconsistent table or quantizer fails in either mode.
    pub fn forward(&self, x: &Matrix, int8: bool) -> Result<Matrix> {
        self.lut.check_shape("LutLinear::forward")?;
        self.qlut.check_shape("LutLinear::forward")?;
        self.pq.check_shape("LutLinear::forward", self.lut.cb())?;
        let cbs = self.pq.interleaved();
        let mut y = if int8 {
            lut_linear_fused_quant(x, &cbs, &self.qlut)?
        } else {
            lut_linear_fused(x, &cbs, &self.lut)?
        };
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        Ok(y)
    }
}

/// One converted encoder block.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LutBlock {
    /// Converted fused QKV projection.
    pub qkv: LutLinear,
    /// Converted output projection.
    pub proj: LutLinear,
    /// Converted FFN1.
    pub ffn1: LutLinear,
    /// Converted FFN2.
    pub ffn2: LutLinear,
    /// Post-attention layer norm (copied from the source model).
    pub ln1: LayerNorm,
    /// Post-FFN layer norm (copied from the source model).
    pub ln2: LayerNorm,
    heads: usize,
}

impl LutBlock {
    /// The converted linear at `kind`.
    pub fn linear(&self, kind: LayerKind) -> &LutLinear {
        match kind {
            LayerKind::Qkv => &self.qkv,
            LayerKind::OProj => &self.proj,
            LayerKind::Ffn1 => &self.ffn1,
            LayerKind::Ffn2 => &self.ffn2,
        }
    }
}

impl BlockFrame for LutBlock {
    fn frame(&self) -> (usize, &LayerNorm, &LayerNorm) {
        (self.heads, &self.ln1, &self.ln2)
    }
}

/// A fully converted transformer classifier (LUT-NN inference model).
///
/// Serializable: the serde form (codebooks + INT8 LUTs + norms + head) is
/// the deployable artifact the converter ships to a PIM serving host.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LutClassifier {
    /// Input embedding (unconverted; element-wise / lookup, PIM-friendly).
    pub embedding: InputEmbedding,
    /// Converted encoder blocks.
    pub blocks: Vec<LutBlock>,
    /// Classification head (kept exact: a single tiny GEMV per sequence).
    pub head: Linear,
}

impl LutClassifier {
    /// Converts a trained model using one fitted quantizer per convertible
    /// layer, ordered by [`layer_index`].
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if `quantizers.len() != 4 * blocks` or
    /// any quantizer mismatches its layer.
    pub fn convert(
        model: &TransformerClassifier,
        quantizers: Vec<ProductQuantizer>,
    ) -> Result<Self> {
        let n_blocks = model.num_blocks();
        if quantizers.len() != 4 * n_blocks {
            return Err(LutError::Config {
                op: "LutClassifier::convert",
                detail: format!(
                    "{} quantizers for {} layers",
                    quantizers.len(),
                    4 * n_blocks
                ),
            });
        }
        let mut qs = quantizers.into_iter();
        let mut blocks = Vec::with_capacity(n_blocks);
        for block in &model.blocks {
            let qkv = LutLinear::convert(&block.attn.qkv, qs.next().expect("counted"))?;
            let proj = LutLinear::convert(&block.attn.proj, qs.next().expect("counted"))?;
            let ffn1 = LutLinear::convert(&block.ffn1, qs.next().expect("counted"))?;
            let ffn2 = LutLinear::convert(&block.ffn2, qs.next().expect("counted"))?;
            blocks.push(LutBlock {
                qkv,
                proj,
                ffn1,
                ffn2,
                ln1: block.ln1.clone(),
                ln2: block.ln2.clone(),
                heads: block.attn.heads(),
            });
        }
        Ok(LutClassifier {
            embedding: model.embedding.clone(),
            blocks,
            head: model.head.clone(),
        })
    }

    /// Hidden dimension: the head's input width, the one place the
    /// artifact states it.
    pub fn hidden(&self) -> usize {
        self.head.in_features()
    }

    /// The walk with every linear run through its LUTs; `observe` sees each
    /// layer's flat index, operator and input first.
    fn walk(
        &self,
        input: &SequenceInput,
        int8: bool,
        mut observe: impl FnMut(usize, &LutLinear, &Matrix) -> Result<()>,
    ) -> Result<Matrix> {
        let (logits, _) = walk_forward(
            &self.embedding,
            &self.blocks,
            &self.head,
            input,
            |b, kind, x| {
                let ll = self.blocks[b].linear(kind);
                observe(layer_index(b, kind), ll, x)?;
                Ok::<_, LutError>((ll.forward(x, int8)?, ()))
            },
        )?;
        Ok(logits)
    }

    /// Forward pass producing logits (`1 x classes`).
    ///
    /// # Errors
    ///
    /// Propagates shape errors; an empty sequence is one.
    pub fn predict(&self, input: &SequenceInput, int8: bool) -> Result<Matrix> {
        self.walk(input, int8, |_, _, _| Ok(()))
    }

    /// Total INT8 LUT storage across all layers, in bytes — the memory the
    /// PIM modules must hold.
    pub fn total_lut_bytes(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| [&b.qkv, &b.proj, &b.ffn1, &b.ffn2])
            .map(|l| l.quant_lut().size_bytes())
            .sum()
    }
}

/// Per-layer diagnostics of a converted model over a probe set.
#[derive(Debug, Clone, serde::Serialize)]
pub struct LayerDiagnostics {
    /// Block index.
    pub block: usize,
    /// Operator name (QKV / O / FFN1 / FFN2).
    pub operator: &'static str,
    /// Mean squared sub-vector quantization error of the layer's inputs.
    pub quantization_mse: f32,
    /// Fraction of consecutive-row index repeats in the layer's CCS output
    /// — the hot-entry reuse available to the fine-grain load scheme on
    /// *real* model traffic (cf. the §7 buffer-management analysis).
    pub index_repeat_fraction: f64,
    /// INT8 LUT bytes of the layer.
    pub lut_bytes: usize,
}

impl LutClassifier {
    /// Runs the probe inputs through the converted model, measuring each
    /// layer's quantization error and index-repeat statistics.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn layer_diagnostics(&self, inputs: &[SequenceInput]) -> Result<Vec<LayerDiagnostics>> {
        // Accumulators per layer: (sum squared error, element count,
        // repeats, transitions).
        let n_layers = 4 * self.blocks.len();
        let mut sse = vec![0.0f64; n_layers];
        let mut elems = vec![0u64; n_layers];
        let mut repeats = vec![0u64; n_layers];
        let mut transitions = vec![0u64; n_layers];

        let mut probe = |layer: usize, ll: &LutLinear, x: &Matrix| -> Result<()> {
            let (snapped, indices) = ll.quantizer().snap(x)?;
            let diff = snapped.sub(x)?;
            sse[layer] += f64::from(diff.frobenius_sq());
            elems[layer] += x.len() as u64;
            for r in 1..indices.rows() {
                for c in 0..indices.cols() {
                    transitions[layer] += 1;
                    if indices.get(r, c) == indices.get(r - 1, c) {
                        repeats[layer] += 1;
                    }
                }
            }
            Ok(())
        };

        for input in inputs {
            self.walk(input, false, &mut probe)?;
        }

        let mut out = Vec::with_capacity(n_layers);
        for (b, block) in self.blocks.iter().enumerate() {
            for kind in LayerKind::all() {
                let layer = layer_index(b, kind);
                out.push(LayerDiagnostics {
                    block: b,
                    operator: kind.name(),
                    quantization_mse: (sse[layer] / elems[layer].max(1) as f64) as f32,
                    index_repeat_fraction: repeats[layer] as f64 / transitions[layer].max(1) as f64,
                    lut_bytes: block.linear(kind).quant_lut().size_bytes(),
                });
            }
        }
        Ok(out)
    }
}

/// Classification accuracy of a converted model on a dataset.
///
/// # Errors
///
/// Propagates shape errors.
pub fn lut_accuracy(
    model: &LutClassifier,
    dataset: &pimdl_nn::data::Dataset,
    int8: bool,
) -> Result<f32> {
    let mut correct = 0usize;
    for (input, &label) in dataset.inputs.iter().zip(&dataset.labels) {
        let logits = model.predict(input, int8)?;
        if pimdl_nn::loss::argmax_rows(&logits)[0] == label {
            correct += 1;
        }
    }
    Ok(correct as f32 / dataset.len().max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdl_nn::transformer::ModelConfig;
    use pimdl_tensor::rng::DataRng;

    fn model_and_rng(seed: u64) -> (TransformerClassifier, DataRng) {
        let cfg = ModelConfig {
            input: pimdl_nn::transformer::InputKind::Tokens { vocab: 12 },
            hidden: 8,
            heads: 2,
            layers: 2,
            ffn_dim: 16,
            max_seq: 6,
            classes: 3,
        };
        let mut rng = DataRng::new(seed);
        let model = TransformerClassifier::new(&cfg, &mut rng);
        (model, rng)
    }

    /// Fits quantizers with generous CT so conversion is near-lossless on
    /// the calibration inputs.
    fn rich_quantizers(
        model: &TransformerClassifier,
        rng: &mut DataRng,
        ct: usize,
    ) -> Vec<ProductQuantizer> {
        // Use random activations of the right widths; for structural tests
        // fidelity does not matter.
        let mut qs = Vec::new();
        for block in &model.blocks {
            for dim in [
                block.attn.qkv.in_features(),
                block.attn.proj.in_features(),
                block.ffn1.in_features(),
                block.ffn2.in_features(),
            ] {
                let acts = rng.normal_matrix(64, dim, 0.0, 1.0);
                qs.push(ProductQuantizer::fit(&acts, 2, ct, 10, rng).unwrap());
            }
        }
        qs
    }

    #[test]
    fn layer_index_layout() {
        assert_eq!(layer_index(0, LayerKind::Qkv), 0);
        assert_eq!(layer_index(0, LayerKind::Ffn2), 3);
        assert_eq!(layer_index(2, LayerKind::OProj), 9);
        assert_eq!(
            LayerKind::all().map(|k| k.name()),
            ["QKV", "O", "FFN1", "FFN2"]
        );
    }

    #[test]
    fn convert_structure() {
        let (model, mut rng) = model_and_rng(0);
        let qs = rich_quantizers(&model, &mut rng, 8);
        let lut_model = LutClassifier::convert(&model, qs).unwrap();
        assert_eq!(lut_model.blocks.len(), 2);
        assert_eq!(lut_model.hidden(), 8);
        assert!(lut_model.total_lut_bytes() > 0);
    }

    #[test]
    fn convert_rejects_wrong_quantizer_count() {
        let (model, mut rng) = model_and_rng(1);
        let mut qs = rich_quantizers(&model, &mut rng, 8);
        qs.pop();
        assert!(LutClassifier::convert(&model, qs).is_err());
    }

    #[test]
    fn convert_rejects_mismatched_quantizer() {
        let (model, mut rng) = model_and_rng(2);
        let mut qs = rich_quantizers(&model, &mut rng, 8);
        // Swap a quantizer with one of the wrong width (ffn2 input is 16).
        let acts = rng.normal_matrix(32, 10, 0.0, 1.0);
        qs[3] = ProductQuantizer::fit(&acts, 2, 8, 5, &mut rng).unwrap();
        assert!(LutClassifier::convert(&model, qs).is_err());
    }

    #[test]
    fn lut_linear_forward_matches_snapped_dense() {
        let mut rng = DataRng::new(3);
        let linear = Linear::new(8, 4, &mut rng);
        let acts = rng.normal_matrix(128, 8, 0.0, 1.0);
        let pq = ProductQuantizer::fit(&acts, 2, 16, 15, &mut rng).unwrap();
        let ll = LutLinear::convert(&linear, pq.clone()).unwrap();
        let x = rng.normal_matrix(4, 8, 0.0, 1.0);
        let via_lut = ll.forward(&x, false).unwrap();
        let (snapped, _) = pq.snap(&x).unwrap();
        let dense = linear.forward(&snapped).unwrap();
        assert!(
            via_lut.approx_eq(&dense, 1e-4),
            "max diff {}",
            via_lut.sub(&dense).unwrap().max_abs()
        );
    }

    #[test]
    fn int8_forward_close_to_f32() {
        let mut rng = DataRng::new(4);
        let linear = Linear::new(8, 8, &mut rng);
        let acts = rng.normal_matrix(128, 8, 0.0, 1.0);
        let pq = ProductQuantizer::fit(&acts, 2, 16, 15, &mut rng).unwrap();
        let ll = LutLinear::convert(&linear, pq).unwrap();
        let x = rng.normal_matrix(4, 8, 0.0, 1.0);
        let f32_out = ll.forward(&x, false).unwrap();
        let i8_out = ll.forward(&x, true).unwrap();
        assert!(f32_out.approx_eq(&i8_out, 0.1), "int8 drift too large");
    }

    #[test]
    fn predict_shape_and_finiteness() {
        let (model, mut rng) = model_and_rng(5);
        let qs = rich_quantizers(&model, &mut rng, 16);
        let lut_model = LutClassifier::convert(&model, qs).unwrap();
        let input = SequenceInput::Tokens(vec![1, 2, 3]);
        for int8 in [false, true] {
            let logits = lut_model.predict(&input, int8).unwrap();
            assert_eq!(logits.shape(), (1, 3));
            assert!(logits.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn layer_diagnostics_cover_all_layers() {
        let (model, mut rng) = model_and_rng(8);
        let qs = rich_quantizers(&model, &mut rng, 8);
        let lut_model = LutClassifier::convert(&model, qs).unwrap();
        let inputs: Vec<SequenceInput> = (0..6)
            .map(|i| SequenceInput::Tokens(vec![i % 12, (i + 1) % 12, (i + 5) % 12]))
            .collect();
        let diag = lut_model.layer_diagnostics(&inputs).unwrap();
        assert_eq!(diag.len(), 8); // 2 blocks × 4 operators
        for d in &diag {
            assert!(d.quantization_mse >= 0.0 && d.quantization_mse.is_finite());
            assert!((0.0..=1.0).contains(&d.index_repeat_fraction));
            assert!(d.lut_bytes > 0);
        }
        // Operators enumerate in Fig. 6 order per block.
        assert_eq!(diag[0].operator, "QKV");
        assert_eq!(diag[3].operator, "FFN2");
        assert_eq!(diag[4].block, 1);
    }

    #[test]
    fn lut_accuracy_runs() {
        let (model, mut rng) = model_and_rng(7);
        let qs = rich_quantizers(&model, &mut rng, 16);
        let lut_model = LutClassifier::convert(&model, qs).unwrap();
        let ds =
            pimdl_nn::data::nlp_dataset(pimdl_nn::data::NlpTask::Sentiment, 20, 12, 6, &mut rng);
        let acc = lut_accuracy(&lut_model, &ds, false).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }
}
