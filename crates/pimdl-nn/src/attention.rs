//! Multi-head self-attention with manual backprop.
//!
//! Matches the operator decomposition of the paper's Fig. 6-(b): a fused
//! QKV projection (one linear layer, `H -> 3H`, exactly the fusion the paper
//! applies before converting to LUTs), the attention score/softmax/weighted
//! sum (host-only GEMMs in PIM-DL), and the output (O) projection.

use pimdl_tensor::rng::DataRng;
use pimdl_tensor::{gemm, norm, Matrix, Result, TensorError};

use crate::linear::Linear;
use crate::param::Param;
use crate::transformer::{LayerKind, SiteCache};

/// Multi-head self-attention over a single sequence.
///
/// # Example
///
/// ```rust
/// use pimdl_nn::attention::MultiHeadAttention;
/// use pimdl_tensor::{Matrix, rng::DataRng};
///
/// let mut rng = DataRng::new(0);
/// let mha = MultiHeadAttention::new(8, 2, &mut rng);
/// let x = Matrix::zeros(5, 8); // seq_len 5, hidden 8
/// let (y, _cache) = mha.forward(&x)?;
/// assert_eq!(y.shape(), (5, 8));
/// # Ok::<(), pimdl_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    /// Fused Q/K/V projection, `H x 3H`.
    pub qkv: Linear,
    /// Output projection, `H x H`.
    pub proj: Linear,
    heads: usize,
    hidden: usize,
}

/// Intermediate activations saved by the attention half of the walk for its
/// backward pass; `C` is what the linear hook kept per site (nothing for
/// the dense model).
#[derive(Debug, Clone)]
pub struct AttentionCache<C = ()> {
    pub(crate) qkv: SiteCache<C>,
    proj: SiteCache<C>,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head softmax probability matrices (`seq x seq` each).
    probs: Vec<Matrix>,
}

/// The attention half of the encoder walk (see [`crate::transformer`]):
/// `apply(Qkv, x)`, per-head scaled-dot-product softmax over the result's
/// three `H`-wide slices, `apply(OProj, concat)`.
///
/// `heads` may come from a deserialised artefact and `apply` from any
/// caller, so both are checked here.
pub(crate) fn attention_forward<C, E: From<TensorError>>(
    heads: usize,
    x: Matrix,
    mut apply: impl FnMut(LayerKind, &Matrix) -> Result<(Matrix, C), E>,
) -> Result<(Matrix, AttentionCache<C>), E> {
    let (n, h) = x.shape();
    if h == 0 || heads == 0 || !h.is_multiple_of(heads) {
        return Err(TensorError::InvalidDimension {
            op: "attention_forward",
            detail: format!("hidden {h} not divisible by heads {heads}"),
        }
        .into());
    }
    let dk = h / heads;
    let scale = 1.0 / (dk as f32).sqrt();

    let (qkv_out, qkv) = SiteCache::apply(x, |x| apply(LayerKind::Qkv, x))?;
    if qkv_out.shape() != (n, 3 * h) {
        return Err(TensorError::ShapeMismatch {
            op: "attention_forward",
            lhs: qkv_out.shape(),
            rhs: (n, 3 * h),
        }
        .into());
    }
    let q = qkv_out.submatrix(0, 0, n, h)?;
    let k = qkv_out.submatrix(0, h, n, h)?;
    let v = qkv_out.submatrix(0, 2 * h, n, h)?;

    let mut concat = Matrix::zeros(n, h);
    let mut probs = Vec::with_capacity(heads);
    for head in 0..heads {
        let qh = q.submatrix(0, head * dk, n, dk)?;
        let kh = k.submatrix(0, head * dk, n, dk)?;
        let vh = v.submatrix(0, head * dk, n, dk)?;
        let scores = gemm::matmul_nt(&qh, &kh)?.scale(scale);
        let p = norm::softmax(&scores);
        let oh = gemm::matmul(&p, &vh)?;
        concat.set_submatrix(0, head * dk, &oh)?;
        probs.push(p);
    }
    let (out, proj) = SiteCache::apply(concat, |c| apply(LayerKind::OProj, c))?;
    let cache = AttentionCache {
        qkv,
        proj,
        q,
        k,
        v,
        probs,
    };
    Ok((out, cache))
}

/// Backward of [`attention_forward`]: `back(OProj, ..)` turns `dy` into the
/// gradient of the concatenated heads, the per-head softmax backward turns
/// that into the gradient of the fused QKV output, and `back(Qkv, ..)`
/// returns `dX`.
pub(crate) fn attention_backward<C, E: From<TensorError>>(
    heads: usize,
    cache: &AttentionCache<C>,
    dy: &Matrix,
    mut back: impl FnMut(LayerKind, &SiteCache<C>, &Matrix) -> Result<Matrix, E>,
) -> Result<Matrix, E> {
    let (n, h) = cache.qkv.input.shape();
    if dy.shape() != (n, h) {
        return Err(TensorError::ShapeMismatch {
            op: "attention_backward",
            lhs: dy.shape(),
            rhs: (n, h),
        }
        .into());
    }
    let dk = h / heads;
    let scale = 1.0 / (dk as f32).sqrt();

    let dconcat = back(LayerKind::OProj, &cache.proj, dy)?;

    let mut dqkv = Matrix::zeros(n, 3 * h);
    for head in 0..heads {
        let qh = cache.q.submatrix(0, head * dk, n, dk)?;
        let kh = cache.k.submatrix(0, head * dk, n, dk)?;
        let vh = cache.v.submatrix(0, head * dk, n, dk)?;
        let p = &cache.probs[head];
        let doh = dconcat.submatrix(0, head * dk, n, dk)?;

        let dvh = gemm::matmul_tn(p, &doh)?;
        let dp = gemm::matmul_nt(&doh, &vh)?;
        // Softmax backward per row: dS_i = P_i ⊙ (dP_i − ⟨dP_i, P_i⟩).
        let mut ds = Matrix::zeros(n, n);
        for i in 0..n {
            let p_row = p.row(i);
            let dp_row = dp.row(i);
            let dot: f32 = p_row.iter().zip(dp_row).map(|(a, b)| a * b).sum();
            for j in 0..n {
                ds.set(i, j, p_row[j] * (dp_row[j] - dot));
            }
        }
        let ds = ds.scale(scale);
        let dqh = gemm::matmul(&ds, &kh)?;
        let dkh = gemm::matmul_tn(&ds, &qh)?;

        dqkv.set_submatrix(0, head * dk, &dqh)?;
        dqkv.set_submatrix(0, h + head * dk, &dkh)?;
        dqkv.set_submatrix(0, 2 * h + head * dk, &dvh)?;
    }
    back(LayerKind::Qkv, &cache.qkv, &dqkv)
}

impl MultiHeadAttention {
    /// Creates an attention module for `hidden` features split over `heads`
    /// heads.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads` or either is zero.
    pub fn new(hidden: usize, heads: usize, rng: &mut DataRng) -> Self {
        assert!(heads > 0 && hidden > 0, "hidden and heads must be positive");
        assert_eq!(hidden % heads, 0, "hidden must be divisible by heads");
        MultiHeadAttention {
            qkv: Linear::new(hidden, 3 * hidden, rng),
            proj: Linear::new(hidden, hidden, rng),
            heads,
            hidden,
        }
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Hidden (model) dimension `H`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The projection the walk applies at `kind`: the fused QKV, or the
    /// output projection.
    pub(crate) fn linear(&self, kind: LayerKind) -> &Linear {
        match kind {
            LayerKind::Qkv => &self.qkv,
            _ => &self.proj,
        }
    }

    /// Mutable [`Self::linear`].
    pub(crate) fn linear_mut(&mut self, kind: LayerKind) -> &mut Linear {
        match kind {
            LayerKind::Qkv => &mut self.qkv,
            _ => &mut self.proj,
        }
    }

    /// Forward pass over one sequence `x: seq x H`.
    ///
    /// Returns the output and the cache needed by [`Self::backward`].
    ///
    /// # Errors
    ///
    /// Returns a shape error if `x.cols() != hidden`.
    pub fn forward(&self, x: &Matrix) -> Result<(Matrix, AttentionCache)> {
        attention_forward(self.heads, x.clone(), |kind, x| {
            Ok((self.linear(kind).forward(x)?, ()))
        })
    }

    /// Backward pass: accumulates parameter gradients and returns `dX`.
    ///
    /// # Errors
    ///
    /// Returns a shape error if `dy` does not match the cached shapes.
    pub fn backward(&mut self, cache: &AttentionCache, dy: &Matrix) -> Result<Matrix> {
        attention_backward(self.heads, cache, dy, |kind, site, dy| {
            self.linear_mut(kind).backward(&site.input, dy)
        })
    }

    /// Visits parameters in stable order: qkv weight/bias, proj weight/bias.
    pub fn visit_params<F: FnMut(&mut Param)>(&mut self, f: &mut F) {
        self.qkv.visit_params(f);
        self.proj.visit_params(f);
    }

    /// Number of trainable scalars.
    pub fn num_params(&self) -> usize {
        self.qkv.num_params() + self.proj.num_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let mut rng = DataRng::new(0);
        let mha = MultiHeadAttention::new(12, 3, &mut rng);
        assert_eq!(mha.heads(), 3);
        let x = rng.normal_matrix(7, 12, 0.0, 1.0);
        let (y, cache) = mha.forward(&x).unwrap();
        assert_eq!(y.shape(), (7, 12));
        assert_eq!(cache.probs.len(), 3);
        assert_eq!(cache.probs[0].shape(), (7, 7));
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        let mut rng = DataRng::new(1);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        let x = rng.normal_matrix(5, 8, 0.0, 1.0);
        let (_, cache) = mha.forward(&x).unwrap();
        for p in &cache.probs {
            for r in 0..p.rows() {
                let sum: f32 = p.row(r).iter().sum();
                assert!((sum - 1.0).abs() < 1e-5);
                assert!(p.row(r).iter().all(|&v| v >= 0.0));
            }
        }
    }

    #[test]
    fn forward_rejects_wrong_hidden() {
        let mut rng = DataRng::new(2);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        assert!(mha.forward(&Matrix::zeros(3, 6)).is_err());
    }

    #[test]
    fn walk_validates_head_count_and_qkv_width() {
        // Neither comes from `MultiHeadAttention::new` for every caller of
        // the walk: `heads` may be read from an artefact, the QKV
        // application is the caller's hook.
        let x = Matrix::zeros(2, 8);
        let qkv_of = |width: usize| {
            move |_: LayerKind, x: &Matrix| {
                Ok::<_, TensorError>((Matrix::zeros(x.rows(), width), ()))
            }
        };
        assert!(attention_forward(2, x.clone(), qkv_of(24)).is_ok());
        for heads in [0, 3] {
            assert!(attention_forward(heads, x.clone(), qkv_of(24)).is_err());
        }
        assert!(attention_forward(2, x, qkv_of(10)).is_err());
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn new_rejects_indivisible_heads() {
        let mut rng = DataRng::new(3);
        let _ = MultiHeadAttention::new(10, 3, &mut rng);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = DataRng::new(4);
        let mut mha = MultiHeadAttention::new(6, 2, &mut rng);
        let x = rng.normal_matrix(4, 6, 0.0, 1.0);
        let dy = rng.normal_matrix(4, 6, 0.0, 0.5);

        let (_, cache) = mha.forward(&x).unwrap();
        let dx = mha.backward(&cache, &dy).unwrap();

        let loss = |mha: &MultiHeadAttention, x: &Matrix| -> f32 {
            let (y, _) = mha.forward(x).unwrap();
            y.hadamard(&dy).unwrap().sum()
        };
        let h = 1e-2_f32;

        // dX spot checks.
        for &(r, c) in &[(0usize, 0usize), (2, 3), (3, 5)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + h);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - h);
            let fd = (loss(&mha, &xp) - loss(&mha, &xm)) / (2.0 * h);
            assert!(
                (fd - dx.get(r, c)).abs() < 5e-2,
                "dx({r},{c}): fd={fd} analytic={}",
                dx.get(r, c)
            );
        }

        // QKV weight gradient spot check.
        let (wr, wc) = (1usize, 7usize);
        let orig = mha.qkv.weight.data.get(wr, wc);
        let mut mp = mha.clone();
        mp.qkv.weight.data.set(wr, wc, orig + h);
        let mut mm = mha.clone();
        mm.qkv.weight.data.set(wr, wc, orig - h);
        let fd = (loss(&mp, &x) - loss(&mm, &x)) / (2.0 * h);
        let analytic = mha.qkv.weight.grad.get(wr, wc);
        assert!(
            (fd - analytic).abs() < 5e-2,
            "dW_qkv: fd={fd} analytic={analytic}"
        );

        // Proj weight gradient spot check.
        let orig = mha.proj.weight.data.get(2, 2);
        let mut mp = mha.clone();
        mp.proj.weight.data.set(2, 2, orig + h);
        let mut mm = mha.clone();
        mm.proj.weight.data.set(2, 2, orig - h);
        let fd = (loss(&mp, &x) - loss(&mm, &x)) / (2.0 * h);
        let analytic = mha.proj.weight.grad.get(2, 2);
        assert!(
            (fd - analytic).abs() < 5e-2,
            "dW_proj: fd={fd} analytic={analytic}"
        );
    }

    #[test]
    fn backward_rejects_wrong_dy() {
        let mut rng = DataRng::new(5);
        let mut mha = MultiHeadAttention::new(6, 2, &mut rng);
        let x = rng.normal_matrix(4, 6, 0.0, 1.0);
        let (_, cache) = mha.forward(&x).unwrap();
        assert!(mha.backward(&cache, &Matrix::zeros(4, 5)).is_err());
    }

    #[test]
    fn param_count() {
        let mut rng = DataRng::new(6);
        let mha = MultiHeadAttention::new(8, 2, &mut rng);
        // qkv: 8*24 + 24; proj: 8*8 + 8.
        assert_eq!(mha.num_params(), 8 * 24 + 24 + 64 + 8);
    }
}
