//! Model calibration: the baseline LUT-NN algorithm and the paper's
//! **eLUT-NN** algorithm (§4.2).
//!
//! Both algorithms replace every linear layer's input with a
//! centroid-coded approximation during training and jointly update
//! centroids and model weights; they differ exactly where §4.2 says they
//! do:
//!
//! * **Baseline LUT-NN** (the paper's comparison algorithm \[84\],
//!   [`calibrate_lutnn_baseline`]): gradients reach the centroids through a
//!   *soft assignment* — a temperature softmax over negative sub-vector
//!   distances (the deterministic core of Gumbel-softmax estimation) — and
//!   the loss is the model loss alone, propagated layer by layer. Under
//!   full-layer replacement this estimator converges poorly (vanishing,
//!   noisy centroid gradients; train-time soft vs. inference-time hard
//!   assignment mismatch), which is the paper's Tables 4–5 baseline
//!   collapse.
//! * **eLUT-NN** ([`calibrate_elutnn`]): adds the reconstruction loss of
//!   Eq. 1,
//!
//!   ```text
//!   L = ModelLoss + β · Σ_l ||A_l·W_l − Â_l·W_l||²
//!   ```
//!
//!   whose gradient reaches each centroid *directly* (each sub-vector's
//!   gradient scatters onto its assigned centroid), and replaces the soft
//!   estimator with the straight-through estimator of Eq. 2 (`∂Â/∂A ≈ I`).
//!   Under STE the reconstruction term's gradient w.r.t. the layer input
//!   cancels (`+2βEWᵀ` via `Â`, `−2βEWᵀ` via `A`), so it reaches only
//!   centroids and weights — the "direct gradient propagation" property the
//!   paper highlights.
//!
//! Neither algorithm has a model of its own: the transformer's forward and
//! backward are `pimdl_nn::transformer`'s one encoder walk, and an algorithm
//! is the hook that walk applies at each linear (`SteOp`, `SoftOp`).
//! [`collect_activations`] is the same walk with a hook that records each
//! linear's input and applies the dense layer.
//!
//! Following §6.2, centroids can be initialized randomly (the paper's
//! setting) or by k-means on calibration activations
//! ([`CentroidInit`]). [`convert_kmeans_only`] additionally exposes the
//! no-finetuning conversion (clustering only) as an ablation point.

use pimdl_nn::data::Dataset;
use pimdl_nn::embedding::SequenceInput;
use pimdl_nn::loss::cross_entropy;
use pimdl_nn::optim::Adam;
use pimdl_nn::transformer::{layer_index, walk_backward, walk_forward, TransformerClassifier};
use pimdl_nn::Linear;
use pimdl_tensor::rng::DataRng;
use pimdl_tensor::{gemm, norm, Matrix};

use crate::convert::LutClassifier;
use crate::kmeans::sq_dist;
use crate::pq::{IndexMatrix, ProductQuantizer};
use crate::{LutError, Result};

/// How centroids are initialized before fine-tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CentroidInit {
    /// Random Gaussian centroids matched to the activation scale — the
    /// paper's §6.2 setting ("the centroids are initialized randomly").
    Random,
    /// Per-column k-means on calibration activations (§3.1 step ❶).
    KMeans,
}

/// Hyper-parameters of an eLUT-NN conversion/calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationConfig {
    /// Sub-vector length `V` (paper default 2 for accuracy experiments).
    pub v: usize,
    /// Centroids per codebook `CT` (paper default 16).
    pub ct: usize,
    /// Centroid initialization method.
    pub init: CentroidInit,
    /// Lloyd iterations per codebook when `init` is k-means.
    pub kmeans_iters: usize,
    /// Reconstruction-loss weight β (paper: 1e-3 BERT, 1e-4 ViT).
    pub beta: f32,
    /// Adam learning rate for fine-tuning.
    pub lr: f32,
    /// Fine-tuning epochs over the calibration set.
    pub epochs: usize,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
    /// Cap on activation rows gathered for k-means initialization.
    pub max_activation_rows: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            v: 2,
            ct: 16,
            init: CentroidInit::KMeans,
            kmeans_iters: 15,
            beta: 1e-3,
            lr: 1e-3,
            epochs: 3,
            batch_size: 8,
            seed: 0,
            max_activation_rows: 4096,
        }
    }
}

/// Hyper-parameters of the baseline LUT-NN calibration (the \[84\]
/// comparison algorithm).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineLutNnConfig {
    /// Sub-vector length `V`.
    pub v: usize,
    /// Centroids per codebook `CT`.
    pub ct: usize,
    /// Centroid initialization (the paper evaluates random init).
    pub init: CentroidInit,
    /// Lloyd iterations when `init` is k-means.
    pub kmeans_iters: usize,
    /// Softmax temperature of the soft assignment.
    pub tau: f32,
    /// Whether to add Gumbel(0,1) noise to the assignment logits
    /// (stochastic Gumbel-softmax sampling, as in the original LUT-NN
    /// estimator).
    pub gumbel_noise: bool,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs.
    pub epochs: usize,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cap on activation rows gathered for initialization.
    pub max_activation_rows: usize,
}

impl Default for BaselineLutNnConfig {
    fn default() -> Self {
        BaselineLutNnConfig {
            v: 2,
            ct: 16,
            init: CentroidInit::Random,
            kmeans_iters: 15,
            tau: 1.0,
            gumbel_noise: true,
            lr: 1e-3,
            epochs: 3,
            batch_size: 8,
            seed: 0,
            max_activation_rows: 4096,
        }
    }
}

/// Per-epoch statistics of a calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibStats {
    /// Mean model (cross-entropy) loss per epoch.
    pub losses: Vec<f32>,
    /// Mean reconstruction-loss component per epoch (zero for the
    /// baseline algorithm, which has no reconstruction term).
    pub recon_losses: Vec<f32>,
}

// ---------------------------------------------------------------------------
// Activation collection & quantizer initialization
// ---------------------------------------------------------------------------

/// Collects the input activation matrix of every convertible layer over the
/// given sequences (layer order: per block, QKV / O / FFN1 / FFN2 — see
/// [`crate::convert::layer_index`]).
///
/// At most `max_rows` activation rows are retained per layer (the paper's
/// point A1: <1 % of the training set suffices).
///
/// # Errors
///
/// Propagates shape errors from the forward pass.
pub fn collect_activations(
    model: &TransformerClassifier,
    inputs: &[SequenceInput],
    max_rows: usize,
) -> Result<Vec<Matrix>> {
    let mut collected: Vec<Vec<Matrix>> = vec![Vec::new(); 4 * model.num_blocks()];

    for input in inputs {
        // The walk with the dense linear at every site, recording its input.
        walk_forward(
            &model.embedding,
            &model.blocks,
            &model.head,
            input,
            |b, kind, x| {
                let store = &mut collected[layer_index(b, kind)];
                let have: usize = store.iter().map(Matrix::rows).sum();
                let take = max_rows.saturating_sub(have).min(x.rows());
                if take > 0 {
                    store.push(x.submatrix(0, 0, take, x.cols())?);
                }
                Ok::<_, LutError>((model.blocks[b].linear(kind).forward(x)?, ()))
            },
        )?;
    }

    collected
        .into_iter()
        .enumerate()
        .map(|(l, parts)| {
            if parts.is_empty() {
                return Err(LutError::Config {
                    op: "collect_activations",
                    detail: format!("no activations collected for layer {l}"),
                });
            }
            let refs: Vec<&Matrix> = parts.iter().collect();
            Ok(Matrix::vcat(&refs)?)
        })
        .collect()
}

/// Initializes one [`ProductQuantizer`] per convertible layer.
///
/// With [`CentroidInit::KMeans`], codebooks come from per-column k-means on
/// the collected activations; with [`CentroidInit::Random`], centroids are
/// Gaussian samples scaled to each layer's activation standard deviation
/// (the §6.2 "initialized randomly" setting).
///
/// # Errors
///
/// Propagates collection and clustering errors.
#[allow(clippy::too_many_arguments)]
pub fn init_quantizers(
    model: &TransformerClassifier,
    inputs: &[SequenceInput],
    v: usize,
    ct: usize,
    init: CentroidInit,
    kmeans_iters: usize,
    max_rows: usize,
    rng: &mut DataRng,
) -> Result<Vec<ProductQuantizer>> {
    init_quantizers_per_op(
        model,
        inputs,
        &[(v, ct); 4],
        init,
        kmeans_iters,
        max_rows,
        rng,
    )
}

/// Like [`init_quantizers`], but with a distinct `(V, CT)` setting per
/// operator slot — `settings[0..4]` applies to QKV / O / FFN1 / FFN2 of
/// every block (the per-layer capacity allocation of `pimdl-tuner`
/// produces exactly such a quadruple).
///
/// # Errors
///
/// Returns [`LutError::Config`] when `settings` is not one quadruple or a
/// `V` does not divide its operator's input width; propagates collection
/// and clustering errors.
#[allow(clippy::too_many_arguments)]
pub fn init_quantizers_per_op(
    model: &TransformerClassifier,
    inputs: &[SequenceInput],
    settings: &[(usize, usize)],
    init: CentroidInit,
    kmeans_iters: usize,
    max_rows: usize,
    rng: &mut DataRng,
) -> Result<Vec<ProductQuantizer>> {
    if settings.len() != 4 {
        return Err(LutError::Config {
            op: "init_quantizers_per_op",
            detail: format!(
                "expected 4 (V, CT) settings (QKV/O/FFN1/FFN2), got {}",
                settings.len()
            ),
        });
    }
    let activations = collect_activations(model, inputs, max_rows)?;
    activations
        .iter()
        .enumerate()
        .map(|(l, acts)| {
            let (v, ct) = settings[l % 4];
            match init {
                CentroidInit::KMeans => ProductQuantizer::fit(acts, v, ct, kmeans_iters, rng),
                CentroidInit::Random => {
                    let mean = acts.mean();
                    let var = acts.map(|x| (x - mean) * (x - mean)).mean().max(1e-8);
                    let std = var.sqrt();
                    if v == 0 || acts.cols() % v != 0 {
                        return Err(LutError::Config {
                            op: "init_quantizers",
                            detail: format!("V = {v} does not divide H = {}", acts.cols()),
                        });
                    }
                    let cb = acts.cols() / v;
                    let centroids = rng.normal_matrix(cb * ct, v, mean, std);
                    ProductQuantizer::from_centroids(centroids, v, ct)
                }
            }
        })
        .collect()
}

/// Clustering-only conversion (no fine-tuning at all): k-means codebooks
/// straight into LUTs. An ablation point between the two trained
/// algorithms.
///
/// # Errors
///
/// Propagates collection, clustering, and conversion errors.
pub fn convert_kmeans_only(
    model: &TransformerClassifier,
    calib: &Dataset,
    v: usize,
    ct: usize,
    kmeans_iters: usize,
    max_rows: usize,
    rng: &mut DataRng,
) -> Result<LutClassifier> {
    let quantizers = init_quantizers(
        model,
        &calib.inputs,
        v,
        ct,
        CentroidInit::KMeans,
        kmeans_iters,
        max_rows,
        rng,
    )?;
    LutClassifier::convert(model, quantizers)
}

// ---------------------------------------------------------------------------
// The linear hook of the encoder walk during calibration
// ---------------------------------------------------------------------------

/// One quantized-linear strategy: how a layer's input is approximated
/// during calibration and how gradients reach centroids/inputs. The
/// training loop applies it at every `(block, kind)` site of
/// [`walk_forward`] / [`walk_backward`].
trait QuantOp {
    type Cache;

    fn forward(
        &self,
        linear: &Linear,
        pq: &ProductQuantizer,
        x: &Matrix,
    ) -> Result<(Matrix, Self::Cache)>;

    /// Accumulates weight/bias/centroid gradients; returns `dX` and adds
    /// any auxiliary loss (reconstruction) to `aux_loss`. `x` is the
    /// layer input [`Self::forward`] saw, which the walk keeps.
    #[allow(clippy::too_many_arguments)]
    fn backward(
        &self,
        linear: &mut Linear,
        pq: &ProductQuantizer,
        centroid_grad: &mut Matrix,
        x: &Matrix,
        cache: &Self::Cache,
        dy: &Matrix,
        aux_loss: &mut f32,
    ) -> Result<Matrix>;
}

// ----- eLUT-NN: hard assignment + STE + reconstruction loss -----

struct SteOp {
    beta: f32,
}

struct SteCache {
    x_hat: Matrix,
    indices: IndexMatrix,
}

impl QuantOp for SteOp {
    type Cache = SteCache;

    fn forward(
        &self,
        linear: &Linear,
        pq: &ProductQuantizer,
        x: &Matrix,
    ) -> Result<(Matrix, SteCache)> {
        let (x_hat, indices) = pq.snap(x)?;
        let y = linear.forward(&x_hat)?;
        Ok((y, SteCache { x_hat, indices }))
    }

    fn backward(
        &self,
        linear: &mut Linear,
        pq: &ProductQuantizer,
        centroid_grad: &mut Matrix,
        x: &Matrix,
        cache: &SteCache,
        dy: &Matrix,
        aux_loss: &mut f32,
    ) -> Result<Matrix> {
        // Model-loss path (Â is the effective layer input).
        let dw_model = gemm::matmul_tn(&cache.x_hat, dy)?;
        linear.weight.accumulate_grad(&dw_model);
        linear.backward_bias(dy);
        let dx_hat_model = gemm::matmul_nt(dy, &linear.weight.data)?;

        // Reconstruction term: E = (Â − A)·W (Eq. 1).
        let diff = cache.x_hat.sub(x)?;
        let e = gemm::matmul(&diff, &linear.weight.data)?;
        *aux_loss += self.beta * e.frobenius_sq();
        let dx_hat_recon = gemm::matmul_nt(&e, &linear.weight.data)?.scale(2.0 * self.beta);
        let dw_recon = gemm::matmul_tn(&diff, &e)?.scale(2.0 * self.beta);
        linear.weight.accumulate_grad(&dw_recon);

        // Centroid gradients: scatter dÂ (model + recon) onto assigned
        // centroids — the direct gradient path.
        let dx_hat_total = dx_hat_model.add(&dx_hat_recon)?;
        let (v, ct) = (pq.v(), pq.ct());
        for r in 0..cache.indices.rows() {
            for cb in 0..cache.indices.cols() {
                let k = cache.indices.get(r, cb) as usize;
                let grad_row = centroid_grad.row_mut(cb * ct + k);
                let src = &dx_hat_total.row(r)[cb * v..(cb + 1) * v];
                for (g, s) in grad_row.iter_mut().zip(src) {
                    *g += s;
                }
            }
        }

        // STE (Eq. 2): the model-loss input gradient passes straight
        // through H(·); the reconstruction term's two input paths cancel.
        Ok(dx_hat_model)
    }
}

// ----- Baseline LUT-NN: soft assignment (Gumbel-softmax-style) -----

struct SoftOp {
    tau: f32,
    /// Gumbel-noise source for stochastic assignment sampling (the \[84\]
    /// estimator); `None` disables noise (deterministic softmax
    /// relaxation).
    noise: Option<std::cell::RefCell<DataRng>>,
}

impl SoftOp {
    fn deterministic(tau: f32) -> Self {
        SoftOp { tau, noise: None }
    }

    fn gumbel(tau: f32, seed: u64) -> Self {
        SoftOp {
            tau,
            noise: Some(std::cell::RefCell::new(DataRng::new(seed))),
        }
    }
}

struct SoftCache {
    x_soft: Matrix,
    /// Soft assignment weights, `(n, cb*ct)` row-major.
    weights: Matrix,
}

impl QuantOp for SoftOp {
    type Cache = SoftCache;

    fn forward(
        &self,
        linear: &Linear,
        pq: &ProductQuantizer,
        x: &Matrix,
    ) -> Result<(Matrix, SoftCache)> {
        if x.cols() != pq.hidden() {
            return Err(LutError::Config {
                op: "SoftOp::forward",
                detail: format!("input width {} != H = {}", x.cols(), pq.hidden()),
            });
        }
        let (n, v, ct, cb) = (x.rows(), pq.v(), pq.ct(), pq.cb());
        let mut x_soft = Matrix::zeros(n, x.cols());
        let mut weights = Matrix::zeros(n, cb * ct);
        for r in 0..n {
            for c in 0..cb {
                let sub = &x.row(r)[c * v..(c + 1) * v];
                // Soft assignment: softmax(−d²/τ) over centroids.
                let mut logits: Vec<f32> = (0..ct)
                    .map(|k| -sq_dist(sub, pq.centroid(c, k)) / self.tau)
                    .collect();
                if let Some(noise) = &self.noise {
                    // Gumbel(0,1) perturbation: g = −ln(−ln(u)).
                    let mut rng = noise.borrow_mut();
                    for l in logits.iter_mut() {
                        let u: f32 = rng.uniform(1e-7, 1.0);
                        *l += -(-u.ln()).ln();
                    }
                }
                norm::softmax_row(&mut logits);
                for (k, &w) in logits.iter().enumerate() {
                    weights.set(r, c * ct + k, w);
                    let centroid = pq.centroid(c, k);
                    for (d, &cv) in centroid.iter().enumerate() {
                        let cur = x_soft.get(r, c * v + d);
                        x_soft.set(r, c * v + d, cur + w * cv);
                    }
                }
            }
        }
        let y = linear.forward(&x_soft)?;
        Ok((y, SoftCache { x_soft, weights }))
    }

    #[allow(clippy::needless_range_loop)]
    fn backward(
        &self,
        linear: &mut Linear,
        pq: &ProductQuantizer,
        centroid_grad: &mut Matrix,
        x: &Matrix,
        cache: &SoftCache,
        dy: &Matrix,
        _aux_loss: &mut f32,
    ) -> Result<Matrix> {
        let dw = gemm::matmul_tn(&cache.x_soft, dy)?;
        linear.weight.accumulate_grad(&dw);
        linear.backward_bias(dy);
        let dx_soft = gemm::matmul_nt(dy, &linear.weight.data)?;

        let (n, v, ct, cb) = (x.rows(), pq.v(), pq.ct(), pq.cb());
        let mut dx = Matrix::zeros(n, x.cols());
        for r in 0..n {
            for c in 0..cb {
                let sub = &x.row(r)[c * v..(c + 1) * v];
                let d_soft_sub = &dx_soft.row(r)[c * v..(c + 1) * v];
                // Path 1: through the convex combination (w fixed).
                // dc_k += w_k · dâ; dw_k = dâ · c_k.
                let mut dw_soft = vec![0.0f32; ct];
                for k in 0..ct {
                    let w = cache.weights.get(r, c * ct + k);
                    let centroid = pq.centroid(c, k);
                    let grad_row = centroid_grad.row_mut(c * ct + k);
                    let mut dot = 0.0;
                    for d in 0..v {
                        grad_row[d] += w * d_soft_sub[d];
                        dot += d_soft_sub[d] * centroid[d];
                    }
                    dw_soft[k] = dot;
                }
                // Path 2: through the softmax weights.
                // ds_k = w_k (dw_k − Σ_j w_j dw_j); dd_k = −ds_k / τ.
                let avg: f32 = (0..ct)
                    .map(|k| cache.weights.get(r, c * ct + k) * dw_soft[k])
                    .sum();
                for k in 0..ct {
                    let w = cache.weights.get(r, c * ct + k);
                    let ds = w * (dw_soft[k] - avg);
                    let dd = -ds / self.tau;
                    let centroid = pq.centroid(c, k);
                    let grad_row = centroid_grad.row_mut(c * ct + k);
                    for d in 0..v {
                        // ∂d²/∂c = 2(c − sub); ∂d²/∂sub = 2(sub − c).
                        grad_row[d] += dd * 2.0 * (centroid[d] - sub[d]);
                        let cur = dx.get(r, c * v + d);
                        dx.set(r, c * v + d, cur + dd * 2.0 * (sub[d] - centroid[d]));
                    }
                }
            }
        }
        Ok(dx)
    }
}

// ---------------------------------------------------------------------------
// Training loop
// ---------------------------------------------------------------------------

// Its own epoch / batch / Adam loop rather than `pimdl_nn::train`: it also
// steps the centroid groups, and the baseline freezes the model weights.

#[allow(clippy::too_many_arguments)]
fn calibrate_with_op<O: QuantOp>(
    op: &O,
    model: &TransformerClassifier,
    calib: &Dataset,
    mut quantizers: Vec<ProductQuantizer>,
    lr: f32,
    epochs: usize,
    batch_size: usize,
    seed: u64,
    train_weights: bool,
) -> Result<(TransformerClassifier, Vec<ProductQuantizer>, CalibStats)> {
    let mut rng = DataRng::new(seed);
    let mut model = model.clone();

    let mut opt = Adam::new(lr);
    let mut order: Vec<usize> = (0..calib.len()).collect();
    let mut losses = Vec::with_capacity(epochs);
    let mut recon_losses = Vec::with_capacity(epochs);

    let mut n_model_params = 0usize;
    model.visit_params(&mut |_| n_model_params += 1);

    for _ in 0..epochs {
        rng.shuffle(&mut order);
        let mut epoch_loss = 0.0;
        let mut epoch_aux = 0.0;
        for batch in order.chunks(batch_size.max(1)) {
            model.zero_grads();
            let mut centroid_grads: Vec<Matrix> = quantizers
                .iter()
                .map(|pq| Matrix::zeros(pq.cb() * pq.ct(), pq.v()))
                .collect();

            for &i in batch {
                let (logits, cache) = walk_forward(
                    &model.embedding,
                    &model.blocks,
                    &model.head,
                    &calib.inputs[i],
                    |b, kind, x| {
                        let linear = model.blocks[b].linear(kind);
                        op.forward(linear, &quantizers[layer_index(b, kind)], x)
                    },
                )?;
                let ce = cross_entropy(&logits, &[calib.labels[i]])?;
                epoch_loss += ce.loss;

                let dlogits = ce.dlogits.scale(1.0 / batch.len() as f32);
                let mut aux = 0.0;
                walk_backward(&mut model, &cache, &dlogits, |linear, b, kind, site, dy| {
                    let l = layer_index(b, kind);
                    op.backward(
                        linear,
                        &quantizers[l],
                        &mut centroid_grads[l],
                        &site.input,
                        &site.hook,
                        dy,
                        &mut aux,
                    )
                })?;
                epoch_aux += aux;
            }

            opt.begin_step();
            let mut idx = 0;
            model.visit_params(&mut |p| {
                if train_weights {
                    opt.step(idx, p.data.as_mut_slice(), p.grad.as_slice());
                }
                idx += 1;
            });
            for (qi, (pq, grad)) in quantizers.iter_mut().zip(&centroid_grads).enumerate() {
                opt.step(
                    n_model_params + qi,
                    pq.centroids_mut().as_mut_slice(),
                    grad.as_slice(),
                );
            }
        }
        losses.push(epoch_loss / calib.len().max(1) as f32);
        recon_losses.push(epoch_aux / calib.len().max(1) as f32);
    }

    Ok((
        model,
        quantizers,
        CalibStats {
            losses,
            recon_losses,
        },
    ))
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

/// Runs eLUT-NN calibration: centroid initialization, then joint Adam
/// fine-tuning of model parameters and centroids under Eq. 1 with STE.
///
/// Returns the fine-tuned model, the calibrated quantizers, and per-epoch
/// stats.
///
/// # Errors
///
/// Propagates shape/clustering errors.
pub fn calibrate_elutnn(
    model: &TransformerClassifier,
    calib: &Dataset,
    cfg: &CalibrationConfig,
) -> Result<(TransformerClassifier, Vec<ProductQuantizer>, CalibStats)> {
    let mut rng = DataRng::new(cfg.seed);
    let quantizers = init_quantizers(
        model,
        &calib.inputs,
        cfg.v,
        cfg.ct,
        cfg.init,
        cfg.kmeans_iters,
        cfg.max_activation_rows,
        &mut rng,
    )?;
    // eLUT-NN jointly calibrates centroids and model weights ("minor
    // parameter updates", §4.2).
    calibrate_with_op(
        &SteOp { beta: cfg.beta },
        model,
        calib,
        quantizers,
        cfg.lr,
        cfg.epochs,
        cfg.batch_size,
        cfg.seed ^ 0x1111,
        true,
    )
}

/// Full eLUT-NN conversion: calibrate, then build the LUT inference model.
///
/// # Errors
///
/// Propagates calibration and conversion errors.
pub fn convert_elutnn(
    model: &TransformerClassifier,
    calib: &Dataset,
    cfg: &CalibrationConfig,
) -> Result<(LutClassifier, CalibStats)> {
    let (tuned, quantizers, stats) = calibrate_elutnn(model, calib, cfg)?;
    Ok((LutClassifier::convert(&tuned, quantizers)?, stats))
}

/// Runs the baseline LUT-NN calibration (the paper's comparison algorithm):
/// soft-assignment (Gumbel-softmax-style) gradient estimation, model loss
/// only.
///
/// # Errors
///
/// Propagates shape/clustering errors.
pub fn calibrate_lutnn_baseline(
    model: &TransformerClassifier,
    train_set: &Dataset,
    cfg: &BaselineLutNnConfig,
) -> Result<(TransformerClassifier, Vec<ProductQuantizer>, CalibStats)> {
    let mut rng = DataRng::new(cfg.seed);
    let quantizers = init_quantizers(
        model,
        &train_set.inputs,
        cfg.v,
        cfg.ct,
        cfg.init,
        cfg.kmeans_iters,
        cfg.max_activation_rows,
        &mut rng,
    )?;
    let op = if cfg.gumbel_noise {
        SoftOp::gumbel(cfg.tau, cfg.seed ^ 0x6b1)
    } else {
        SoftOp::deterministic(cfg.tau)
    };
    // The baseline learns centroids only (layer-by-layer backprop through
    // the soft estimator); model weights stay at their pre-trained values.
    calibrate_with_op(
        &op,
        model,
        train_set,
        quantizers,
        cfg.lr,
        cfg.epochs,
        cfg.batch_size,
        cfg.seed ^ 0x2222,
        false,
    )
}

/// Full baseline LUT-NN conversion: soft-assignment training, then hard
/// (argmin) LUT inference — the train/inference mismatch is part of the
/// baseline's failure mode.
///
/// # Errors
///
/// Propagates calibration and conversion errors.
pub fn convert_lutnn_baseline(
    model: &TransformerClassifier,
    train_set: &Dataset,
    cfg: &BaselineLutNnConfig,
) -> Result<(LutClassifier, CalibStats)> {
    let (tuned, quantizers, stats) = calibrate_lutnn_baseline(model, train_set, cfg)?;
    Ok((LutClassifier::convert(&tuned, quantizers)?, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::lut_accuracy;
    use pimdl_nn::data::{nlp_dataset, NlpTask};
    use pimdl_nn::train::{evaluate, train, TrainConfig};
    use pimdl_nn::transformer::{InputKind, ModelConfig};

    fn trained_model_and_data(seed: u64) -> (TransformerClassifier, Dataset, Dataset, DataRng) {
        let mut rng = DataRng::new(seed);
        let mut ds = nlp_dataset(NlpTask::ContainsAnswer, 180, 12, 6, &mut rng);
        let test = ds.split_off(40);
        let cfg = ModelConfig {
            input: InputKind::Tokens { vocab: 12 },
            hidden: 16,
            heads: 2,
            layers: 2,
            ffn_dim: 32,
            max_seq: 6,
            classes: 2,
        };
        let mut model = TransformerClassifier::new(&cfg, &mut rng);
        train(
            &mut model,
            &ds,
            &TrainConfig {
                epochs: 8,
                batch_size: 8,
                lr: 3e-3,
                schedule: Default::default(),
                seed: 1,
            },
        )
        .unwrap();
        (model, ds, test, rng)
    }

    #[test]
    fn collect_activations_shapes() {
        let (model, ds, _, _) = trained_model_and_data(0);
        let acts = collect_activations(&model, &ds.inputs[..10], 1000).unwrap();
        assert_eq!(acts.len(), 8); // 2 blocks * 4 layers
        assert_eq!(acts[0].cols(), 16);
        assert_eq!(acts[1].cols(), 16);
        assert_eq!(acts[2].cols(), 16);
        assert_eq!(acts[3].cols(), 32);
        assert_eq!(acts[0].rows(), 60); // 10 sequences of length 6
    }

    #[test]
    fn collect_activations_respects_row_cap() {
        let (model, ds, _, _) = trained_model_and_data(1);
        let acts = collect_activations(&model, &ds.inputs[..10], 25).unwrap();
        for a in &acts {
            assert!(a.rows() <= 25 + 6, "rows={}", a.rows());
        }
    }

    #[test]
    fn random_init_quantizers_match_activation_scale() {
        let (model, ds, _, mut rng) = trained_model_and_data(2);
        let qs = init_quantizers(
            &model,
            &ds.inputs[..10],
            4,
            8,
            CentroidInit::Random,
            5,
            1000,
            &mut rng,
        )
        .unwrap();
        assert_eq!(qs.len(), 8);
        for pq in &qs {
            assert!(pq.centroids().iter().all(|v| v.is_finite()));
            assert!(pq.centroids().max_abs() > 0.0);
        }
    }

    #[test]
    fn per_op_quantizer_settings_build_a_heterogeneous_model() {
        // The per-layer capacity allocator emits one (V, CT) per operator
        // slot; conversion must accept the resulting mixed quantizers.
        let (model, ds, test, mut rng) = trained_model_and_data(9);
        let settings = [(4usize, 8usize), (2, 8), (8, 8), (4, 4)];
        let qs = init_quantizers_per_op(
            &model,
            &ds.inputs[..10],
            &settings,
            CentroidInit::KMeans,
            5,
            512,
            &mut rng,
        )
        .unwrap();
        assert_eq!(qs.len(), 8); // 2 blocks × 4 slots
        for (l, pq) in qs.iter().enumerate() {
            let (v, ct) = settings[l % 4];
            assert_eq!(pq.v(), v, "slot {l}");
            assert_eq!(pq.ct(), ct, "slot {l}");
        }
        // QKV/O/FFN1 read H=16, FFN2 reads ffn_dim=32.
        assert_eq!(qs[0].cb(), 4);
        assert_eq!(qs[1].cb(), 8);
        assert_eq!(qs[2].cb(), 2);
        assert_eq!(qs[3].cb(), 8);

        let converted = LutClassifier::convert(&model, qs).unwrap();
        let acc = lut_accuracy(&converted, &test, false).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn per_op_settings_must_be_a_quadruple() {
        let (model, ds, _, mut rng) = trained_model_and_data(10);
        let err = init_quantizers_per_op(
            &model,
            &ds.inputs[..4],
            &[(4, 8), (2, 8)],
            CentroidInit::KMeans,
            5,
            512,
            &mut rng,
        );
        assert!(err.is_err());
    }

    #[test]
    fn zero_sub_vector_length_is_a_config_error_for_both_inits() {
        let (model, ds, _, mut rng) = trained_model_and_data(12);
        for init in [CentroidInit::Random, CentroidInit::KMeans] {
            let err =
                init_quantizers(&model, &ds.inputs[..4], 0, 8, init, 5, 512, &mut rng).unwrap_err();
            assert!(matches!(err, LutError::Config { .. }), "{init:?}: {err}");
        }
    }

    #[test]
    fn empty_sequence_is_one_error_at_every_entry_point() {
        let (model, ds, _, mut rng) = trained_model_and_data(11);
        let empty = SequenceInput::Tokens(vec![]);
        let want = LutError::Tensor(model.forward(&empty).unwrap_err());
        assert!(
            want.to_string().contains("model_forward") && want.to_string().contains("empty"),
            "{want}"
        );

        let lut_model = convert_kmeans_only(&model, &ds.take(8), 4, 8, 5, 512, &mut rng).unwrap();
        let mut calib = ds.take(8);
        calib.inputs[3] = empty.clone();
        for int8 in [false, true] {
            assert_eq!(lut_model.predict(&empty, int8).unwrap_err(), want);
            assert_eq!(lut_accuracy(&lut_model, &calib, int8).unwrap_err(), want);
        }
        assert_eq!(
            collect_activations(&model, &calib.inputs, 512).unwrap_err(),
            want
        );
        assert_eq!(
            calibrate_elutnn(&model, &calib, &CalibrationConfig::default()).unwrap_err(),
            want
        );
        assert_eq!(
            calibrate_lutnn_baseline(&model, &calib, &BaselineLutNnConfig::default()).unwrap_err(),
            want
        );
    }

    #[test]
    fn kmeans_only_conversion_runs() {
        let (model, ds, test, mut rng) = trained_model_and_data(3);
        let converted =
            convert_kmeans_only(&model, &ds.take(30), 2, 16, 10, 2048, &mut rng).unwrap();
        let acc = lut_accuracy(&converted, &test, false).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn elutnn_recovers_from_random_init() {
        // The A2 claim in miniature: starting from *random* centroids
        // (§6.2's setting), eLUT-NN calibration recovers accuracy close to
        // the original model.
        let (model, ds, test, _) = trained_model_and_data(4);
        let original_acc = evaluate(&model, &test).unwrap();

        let cfg = CalibrationConfig {
            v: 4,
            ct: 8,
            init: CentroidInit::Random,
            kmeans_iters: 0,
            beta: 1e-3,
            lr: 3e-3,
            epochs: 8,
            batch_size: 8,
            seed: 5,
            max_activation_rows: 2048,
        };
        let calib_set = ds.take(60);
        let (elut, stats) = convert_elutnn(&model, &calib_set, &cfg).unwrap();
        let elut_acc = lut_accuracy(&elut, &test, false).unwrap();
        assert!(!stats.losses.is_empty());
        assert!(
            elut_acc >= original_acc - 0.3,
            "eLUT-NN {elut_acc} too far below original {original_acc}"
        );
    }

    #[test]
    fn elutnn_beats_soft_baseline_from_random_init() {
        // The Tables 4/5 ordering: from random centroid init, the
        // soft-assignment baseline trails eLUT-NN.
        let (model, ds, test, _) = trained_model_and_data(6);
        let calib_set = ds.take(60);

        let bcfg = BaselineLutNnConfig {
            v: 4,
            ct: 8,
            init: CentroidInit::Random,
            kmeans_iters: 0,
            tau: 1.0,
            gumbel_noise: true,
            lr: 3e-3,
            epochs: 8,
            batch_size: 8,
            seed: 5,
            max_activation_rows: 2048,
        };
        let (baseline, _) = convert_lutnn_baseline(&model, &calib_set, &bcfg).unwrap();
        let baseline_acc = lut_accuracy(&baseline, &test, false).unwrap();

        let ecfg = CalibrationConfig {
            v: 4,
            ct: 8,
            init: CentroidInit::Random,
            kmeans_iters: 0,
            beta: 1e-3,
            lr: 3e-3,
            epochs: 8,
            batch_size: 8,
            seed: 5,
            max_activation_rows: 2048,
        };
        let (elut, _) = convert_elutnn(&model, &calib_set, &ecfg).unwrap();
        let elut_acc = lut_accuracy(&elut, &test, false).unwrap();

        assert!(
            elut_acc >= baseline_acc - 0.05,
            "eLUT-NN {elut_acc} should not trail the soft baseline {baseline_acc}"
        );
    }

    #[test]
    fn calibration_reduces_combined_loss() {
        let (model, ds, _, _) = trained_model_and_data(4);
        let cfg = CalibrationConfig {
            v: 4,
            ct: 8,
            epochs: 5,
            lr: 2e-3,
            ..CalibrationConfig::default()
        };
        let (_, _, stats) = calibrate_elutnn(&model, &ds.take(40), &cfg).unwrap();
        assert_eq!(stats.losses.len(), 5);
        let first_ce = stats.losses[0];
        let last_ce = *stats.losses.last().unwrap();
        assert!(
            last_ce <= first_ce * 1.1 + 1e-3,
            "model losses regressed: {:?}",
            stats.losses
        );
        for &r in &stats.recon_losses {
            assert!(r.is_finite() && r >= 0.0, "recon={:?}", stats.recon_losses);
        }
        assert!(
            *stats.recon_losses.last().unwrap() <= stats.recon_losses[0] * 5.0 + 1e-3,
            "recon blew up: {:?}",
            stats.recon_losses
        );
    }

    #[test]
    fn baseline_reports_zero_recon_loss() {
        let (model, ds, _, _) = trained_model_and_data(7);
        let cfg = BaselineLutNnConfig {
            v: 4,
            ct: 8,
            epochs: 2,
            ..BaselineLutNnConfig::default()
        };
        let (_, _, stats) = calibrate_lutnn_baseline(&model, &ds.take(30), &cfg).unwrap();
        assert!(stats.recon_losses.iter().all(|&r| r == 0.0));
        assert_eq!(stats.losses.len(), 2);
    }

    #[test]
    fn soft_forward_approaches_hard_snap_at_low_temperature() {
        // As τ → 0 the soft assignment concentrates on the nearest
        // centroid, so SoftOp's forward converges to SteOp's snapped input.
        let (model, ds, _, mut rng) = trained_model_and_data(8);
        let qs = init_quantizers(
            &model,
            &ds.inputs[..10],
            4,
            4,
            CentroidInit::KMeans,
            10,
            512,
            &mut rng,
        )
        .unwrap();
        let pq = &qs[0];
        let linear = &model.blocks[0].attn.qkv;
        let x = rng.normal_matrix(6, 16, 0.0, 1.0);

        let cold = SoftOp::deterministic(1e-4);
        let (_, soft_cache) = cold.forward(linear, pq, &x).unwrap();
        let (hard, _) = pq.snap(&x).unwrap();
        assert!(
            soft_cache.x_soft.approx_eq(&hard, 1e-2),
            "max diff {}",
            soft_cache.x_soft.sub(&hard).unwrap().max_abs()
        );

        let hot = SoftOp::deterministic(1e6);
        let (_, hot_cache) = hot.forward(linear, pq, &x).unwrap();
        // At huge temperature every weight is ~1/CT.
        let w0 = hot_cache.weights.get(0, 0);
        assert!((w0 - 0.25).abs() < 1e-3, "w0={w0}");
    }

    #[test]
    fn soft_backward_matches_finite_difference() {
        // Gradient check of the soft-assignment estimator on a single
        // layer: loss = sum(dy ⊙ forward(x)).
        let mut rng = DataRng::new(60);
        let mut linear = Linear::new(8, 4, &mut rng);
        let acts = rng.normal_matrix(64, 8, 0.0, 1.0);
        let pq = ProductQuantizer::fit(&acts, 4, 4, 10, &mut rng).unwrap();
        let x = rng.normal_matrix(5, 8, 0.0, 1.0);
        let dy = rng.normal_matrix(5, 4, 0.0, 1.0);
        let op = SoftOp::deterministic(0.7);

        let (_, cache) = op.forward(&linear, &pq, &x).unwrap();
        let mut centroid_grad = Matrix::zeros(pq.cb() * pq.ct(), pq.v());
        let mut aux = 0.0;
        let dx = op
            .backward(
                &mut linear,
                &pq,
                &mut centroid_grad,
                &x,
                &cache,
                &dy,
                &mut aux,
            )
            .unwrap();

        let loss = |pq: &ProductQuantizer, x: &Matrix| -> f32 {
            let (y, _) = op.forward(&linear, pq, x).unwrap();
            y.hadamard(&dy).unwrap().sum()
        };
        let h = 1e-3_f32;

        // dX check.
        let mut xp = x.clone();
        xp.set(2, 3, x.get(2, 3) + h);
        let mut xm = x.clone();
        xm.set(2, 3, x.get(2, 3) - h);
        let fd = (loss(&pq, &xp) - loss(&pq, &xm)) / (2.0 * h);
        assert!(
            (fd - dx.get(2, 3)).abs() < 5e-2,
            "dx fd={fd} analytic={}",
            dx.get(2, 3)
        );

        // Centroid gradient check.
        let (cr, cc) = (3usize, 1usize);
        let mut pp = pq.clone();
        let v0 = pp.centroids().get(cr, cc);
        pp.centroids_mut().set(cr, cc, v0 + h);
        let mut pm = pq.clone();
        pm.centroids_mut().set(cr, cc, v0 - h);
        let fd = (loss(&pp, &x) - loss(&pm, &x)) / (2.0 * h);
        let analytic = centroid_grad.get(cr, cc);
        assert!(
            (fd - analytic).abs() < 5e-2,
            "dc fd={fd} analytic={analytic}"
        );
    }

    #[test]
    fn recon_gradient_descends_reconstruction_loss() {
        // Isolate the reconstruction gradient: gradient-descend centroids of
        // a single linear layer with zero model-loss signal (dy = 0) and
        // verify β·||(Â − A)W||² strictly decreases.
        let mut rng = DataRng::new(50);
        let mut linear = Linear::new(8, 4, &mut rng);
        let acts = rng.normal_matrix(128, 8, 0.0, 1.0);
        let mut pq = ProductQuantizer::fit(&acts, 4, 4, 3, &mut rng).unwrap();
        let x = rng.normal_matrix(32, 8, 0.0, 1.0);
        let dy = Matrix::zeros(32, 4);
        let op = SteOp { beta: 1.0 };

        let mut losses = Vec::new();
        for _ in 0..80 {
            let (_, cache) = op.forward(&linear, &pq, &x).unwrap();
            let mut centroid_grad = Matrix::zeros(pq.cb() * pq.ct(), pq.v());
            let mut recon = 0.0;
            linear.weight.zero_grad();
            linear.bias.zero_grad();
            op.backward(
                &mut linear,
                &pq,
                &mut centroid_grad,
                &x,
                &cache,
                &dy,
                &mut recon,
            )
            .unwrap();
            losses.push(recon);
            for (c, g) in pq.centroids_mut().iter_mut().zip(centroid_grad.iter()) {
                *c -= 0.002 * g;
            }
        }
        let first = losses[0];
        let last = *losses.last().unwrap();
        assert!(
            last < first * 0.9,
            "recon loss did not descend: first={first} last={last}"
        );
    }

    #[test]
    fn centroids_stay_finite_during_calibration() {
        let (model, ds, _, _) = trained_model_and_data(6);
        let cfg = CalibrationConfig {
            v: 4,
            ct: 8,
            epochs: 2,
            ..CalibrationConfig::default()
        };
        let (_, tuned, _) = calibrate_elutnn(&model, &ds.take(20), &cfg).unwrap();
        for pq in &tuned {
            assert!(pq.centroids().iter().all(|v| v.is_finite()));
        }
    }
}
