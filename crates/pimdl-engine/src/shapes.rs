//! Transformer model shapes and their operator inventories.
//!
//! The evaluation models of §6.1: BERT-base (H = 768), BERT-large
//! (H = 1024), and ViT-huge (H = 1280), plus parameterized shapes for the
//! sensitivity sweeps (hidden dims from the OPT family, §6.5).

use serde::{Deserialize, Serialize};

/// Architecture of one evaluated transformer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TransformerShape {
    /// Display name.
    pub name: String,
    /// Hidden (model) dimension `H`.
    pub hidden: usize,
    /// FFN inner dimension (4·H for all evaluated models).
    pub ffn_dim: usize,
    /// Encoder layer count.
    pub layers: usize,
    /// Attention head count.
    pub heads: usize,
}

/// One linear operator of a layer: `(name, input dim, output dim)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinearOp {
    /// Operator name (Fig. 11-(b) vocabulary: QKV / O / FFN1 / FFN2).
    pub name: &'static str,
    /// Input feature count.
    pub in_dim: usize,
    /// Output feature count.
    pub out_dim: usize,
}

impl TransformerShape {
    /// BERT-base: 12 layers, H = 768, 12 heads.
    pub fn bert_base() -> Self {
        TransformerShape {
            name: "Bert-Base".to_string(),
            hidden: 768,
            ffn_dim: 3072,
            layers: 12,
            heads: 12,
        }
    }

    /// BERT-large: 24 layers, H = 1024, 16 heads.
    pub fn bert_large() -> Self {
        TransformerShape {
            name: "Bert-Large".to_string(),
            hidden: 1024,
            ffn_dim: 4096,
            layers: 24,
            heads: 16,
        }
    }

    /// ViT-huge: 32 layers, H = 1280, 16 heads.
    pub fn vit_huge() -> Self {
        TransformerShape {
            name: "ViT-Huge".to_string(),
            hidden: 1280,
            ffn_dim: 5120,
            layers: 32,
            heads: 16,
        }
    }

    /// The three §6.1 evaluation models.
    pub fn evaluation_models() -> [TransformerShape; 3] {
        [Self::bert_base(), Self::bert_large(), Self::vit_huge()]
    }

    /// A parameterized shape for the hidden-dim sensitivity sweep (§6.5 /
    /// §6.7, hidden dims from the OPT family).
    pub fn with_hidden(hidden: usize, layers: usize) -> Self {
        TransformerShape {
            name: format!("H{hidden}"),
            hidden,
            ffn_dim: 4 * hidden,
            layers,
            heads: (hidden / 64).max(1),
        }
    }

    /// A tiny shape for tests and examples.
    pub fn tiny() -> Self {
        TransformerShape {
            name: "Tiny".to_string(),
            hidden: 64,
            ffn_dim: 256,
            layers: 2,
            heads: 4,
        }
    }

    /// The four convertible linear operators of one layer, in
    /// Fig. 6-(b)/Fig. 11-(b) order.
    pub fn linear_ops(&self) -> [LinearOp; 4] {
        [
            LinearOp {
                name: "QKV",
                in_dim: self.hidden,
                out_dim: 3 * self.hidden,
            },
            LinearOp {
                name: "O",
                in_dim: self.hidden,
                out_dim: self.hidden,
            },
            LinearOp {
                name: "FFN1",
                in_dim: self.hidden,
                out_dim: self.ffn_dim,
            },
            LinearOp {
                name: "FFN2",
                in_dim: self.ffn_dim,
                out_dim: self.hidden,
            },
        ]
    }

    /// Total GEMM FLOPs of one layer's linear operators for `n` activation
    /// rows (`2·N·in·out` each).
    pub fn linear_flops_per_layer(&self, n: usize) -> u64 {
        self.linear_ops()
            .iter()
            .map(|op| 2 * n as u64 * op.in_dim as u64 * op.out_dim as u64)
            .sum()
    }

    /// Attention-score/value GEMM FLOPs of one layer (`QKᵀ` and `PV`) for a
    /// batch of sequences.
    pub fn attention_flops_per_layer(&self, batch: usize, seq_len: usize) -> u64 {
        let dk = self.hidden / self.heads;
        // Two GEMMs per head: (seq × dk) @ (dk × seq), then (seq × seq) @
        // (seq × dk), 2 FLOPs per MAC.
        2 * 2 * (batch * self.heads) as u64 * (seq_len * seq_len * dk) as u64
    }

    /// Element-wise/normalization bytes of one layer (softmax, GELU,
    /// residual adds, two layer norms) at f32, for a batch.
    pub fn elementwise_bytes_per_layer(&self, batch: usize, seq_len: usize) -> u64 {
        let n = (batch * seq_len) as u64;
        let h = self.hidden as u64;
        let ffn = self.ffn_dim as u64;
        let softmax = (batch * self.heads) as u64 * (seq_len * seq_len) as u64;
        // GELU over FFN1 output, 2 residual adds, 2 layer norms (read+write
        // each), softmax matrix (read+write).
        4 * (n * ffn + 2 * n * h + 2 * 2 * n * h + 2 * softmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_model_dims_match_paper() {
        let base = TransformerShape::bert_base();
        assert_eq!((base.hidden, base.layers, base.heads), (768, 12, 12));
        let large = TransformerShape::bert_large();
        assert_eq!((large.hidden, large.layers, large.heads), (1024, 24, 16));
        let vit = TransformerShape::vit_huge();
        assert_eq!((vit.hidden, vit.layers), (1280, 32));
        assert_eq!(vit.ffn_dim, 5120);
    }

    #[test]
    fn linear_ops_inventory() {
        let ops = TransformerShape::bert_base().linear_ops();
        assert_eq!(ops[0].name, "QKV");
        assert_eq!(ops[0].out_dim, 3 * 768);
        assert_eq!(ops[3].name, "FFN2");
        assert_eq!(ops[3].in_dim, 3072);
        assert_eq!(ops[3].out_dim, 768);
    }

    #[test]
    fn flop_accounting() {
        let s = TransformerShape::tiny();
        // qkv: 2·n·64·192; o: 2·n·64·64; ffn1: 2·n·64·256; ffn2: 2·n·256·64.
        let n = 10;
        let expected = 2 * 10 * (64 * 192 + 64 * 64 + 64 * 256 + 256 * 64) as u64;
        assert_eq!(s.linear_flops_per_layer(n), expected);
    }

    #[test]
    fn attention_flops_scale_quadratically_with_seq() {
        let s = TransformerShape::bert_base();
        let short = s.attention_flops_per_layer(1, 128);
        let long = s.attention_flops_per_layer(1, 256);
        assert_eq!(long, 4 * short);
    }

    #[test]
    fn ffn2_has_largest_inner_dim() {
        // The Fig. 11-(b) observation: FFN2 has the largest GEMM inner dim.
        for shape in TransformerShape::evaluation_models() {
            let ops = shape.linear_ops();
            let ffn2 = ops.iter().find(|o| o.name == "FFN2").unwrap();
            for op in &ops {
                assert!(ffn2.in_dim >= op.in_dim);
            }
        }
    }

    #[test]
    fn with_hidden_parameterization() {
        let s = TransformerShape::with_hidden(2048, 24);
        assert_eq!(s.ffn_dim, 8192);
        assert_eq!(s.heads, 32);
        assert_eq!(s.layers, 24);
    }

    #[test]
    fn elementwise_bytes_positive() {
        let s = TransformerShape::tiny();
        assert!(s.elementwise_bytes_per_layer(2, 16) > 0);
    }
}
