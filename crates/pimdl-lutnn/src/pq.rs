//! Product quantization of activation matrices: codebooks and the
//! closest-centroid search (CCS) operator.
//!
//! An `N x H` activation matrix is split along `H` into `CB = H / V`
//! columns of `1 x V` sub-vectors (paper §3.1). Each column owns a codebook
//! of `CT` centroids. [`ProductQuantizer::encode`] is the CCS operator
//! (steps ❹–❺ of Fig. 2): it emits an [`IndexMatrix`] of shape `N x CB`
//! whose entries select centroids.

use pimdl_tensor::rng::DataRng;
use pimdl_tensor::Matrix;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::kernels::InterleavedCodebooks;
use crate::kmeans::{kmeans, sq_dist};
use crate::{LutError, Result};

/// The index matrix produced by closest-centroid search.
///
/// Entry `(n, cb)` is the centroid index (`< CT`) chosen for row `n`'s
/// sub-vector in codebook column `cb`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct IndexMatrix {
    rows: usize,
    cols: usize,
    data: Vec<u16>,
}

/// Deserializes through [`IndexMatrix::from_vec`], so a shape that
/// disagrees with the data is an error.
impl Deserialize for IndexMatrix {
    fn serde_from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let field = |name| {
            v.get(name)
                .ok_or_else(|| DeError::new(format!("missing field {name} for IndexMatrix")))
        };
        IndexMatrix::from_vec(
            usize::serde_from_value(field("rows")?)?,
            usize::serde_from_value(field("cols")?)?,
            Vec::serde_from_value(field("data")?)?,
        )
        .map_err(|e| DeError::new(e.to_string()))
    }
}

impl IndexMatrix {
    /// Creates an index matrix from raw data.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<u16>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(LutError::Config {
                op: "IndexMatrix::from_vec",
                detail: format!("{} entries for {rows}x{cols}", data.len()),
            });
        }
        Ok(IndexMatrix { rows, cols, data })
    }

    /// Number of activation rows `N`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of codebook columns `CB`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Index at `(row, cb)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, row: usize, cb: usize) -> u16 {
        debug_assert!(row < self.rows && cb < self.cols);
        self.data[row * self.cols + cb]
    }

    /// Borrows row `r` (one index per codebook).
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u16] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Extracts the sub-matrix of rows `[r0, r0 + h)`.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if the range exceeds the bounds.
    pub fn row_slice(&self, r0: usize, h: usize) -> Result<IndexMatrix> {
        if r0 + h > self.rows {
            return Err(LutError::Config {
                op: "IndexMatrix::row_slice",
                detail: format!("rows {r0}+{h} exceed {}", self.rows),
            });
        }
        Ok(IndexMatrix {
            rows: h,
            cols: self.cols,
            data: self.data[r0 * self.cols..(r0 + h) * self.cols].to_vec(),
        })
    }

    /// All indices in row-major order.
    pub fn as_slice(&self) -> &[u16] {
        &self.data
    }
}

/// Per-layer product quantizer: `CB` codebooks of `CT` centroids of length
/// `V`.
///
/// Centroids are stored as a `(CB * CT) x V` matrix; codebook `cb`'s
/// centroid `ct` is row `cb * CT + ct`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProductQuantizer {
    v: usize,
    ct: usize,
    cb: usize,
    centroids: Matrix,
}

impl ProductQuantizer {
    /// Fits codebooks to an activation matrix by per-column k-means
    /// (paper §3.1 step ❶).
    ///
    /// * `activations`: `N x H` calibration activations.
    /// * `v`: sub-vector length (must divide `H`).
    /// * `ct`: centroids per codebook (must fit in `u16`).
    /// * `iters`: Lloyd iterations per codebook.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if `v` does not divide `H`, `ct` is 0 or
    /// exceeds `u16::MAX`, or the activation matrix is empty.
    pub fn fit(
        activations: &Matrix,
        v: usize,
        ct: usize,
        iters: usize,
        rng: &mut DataRng,
    ) -> Result<Self> {
        let (n, h) = activations.shape();
        Self::validate_dims(h, v, ct)?;
        if n == 0 {
            return Err(LutError::Config {
                op: "ProductQuantizer::fit",
                detail: "empty activation matrix".to_string(),
            });
        }
        if activations.iter().any(|v| !v.is_finite()) {
            return Err(LutError::Config {
                op: "ProductQuantizer::fit",
                detail: "activation matrix contains non-finite values".to_string(),
            });
        }
        let cb = h / v;
        let mut centroids = Matrix::zeros(cb * ct, v);
        for col in 0..cb {
            let mut subvecs = Matrix::zeros(n, v);
            for r in 0..n {
                subvecs
                    .row_mut(r)
                    .copy_from_slice(&activations.row(r)[col * v..(col + 1) * v]);
            }
            let result = kmeans(&subvecs, ct, iters, rng)?;
            for k in 0..ct {
                centroids
                    .row_mut(col * ct + k)
                    .copy_from_slice(result.centroids.row(k));
            }
        }
        Ok(ProductQuantizer {
            v,
            ct,
            cb,
            centroids,
        })
    }

    /// Creates a quantizer from an explicit centroid matrix
    /// (`(cb * ct) x v`).
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] on any dimension inconsistency.
    pub fn from_centroids(centroids: Matrix, v: usize, ct: usize) -> Result<Self> {
        if ct == 0 || ct > u16::MAX as usize {
            return Err(LutError::Config {
                op: "ProductQuantizer::from_centroids",
                detail: format!("ct={ct} out of range"),
            });
        }
        if centroids.cols() != v || !centroids.rows().is_multiple_of(ct) || centroids.rows() == 0 {
            return Err(LutError::Config {
                op: "ProductQuantizer::from_centroids",
                detail: format!(
                    "centroid matrix {}x{} inconsistent with v={v}, ct={ct}",
                    centroids.rows(),
                    centroids.cols()
                ),
            });
        }
        let cb = centroids.rows() / ct;
        Ok(ProductQuantizer {
            v,
            ct,
            cb,
            centroids,
        })
    }

    fn validate_dims(h: usize, v: usize, ct: usize) -> Result<()> {
        if v == 0 || h == 0 || !h.is_multiple_of(v) {
            return Err(LutError::Config {
                op: "ProductQuantizer",
                detail: format!("sub-vector length {v} must divide hidden dim {h}"),
            });
        }
        if ct == 0 || ct > u16::MAX as usize {
            return Err(LutError::Config {
                op: "ProductQuantizer",
                detail: format!("centroid count {ct} out of range"),
            });
        }
        Ok(())
    }

    /// Checks, in O(1), that `v`, `ct` and `cb` describe the centroid
    /// matrix and that `cb` matches the table the codes index (`table_cb`).
    /// A deserialized quantizer is plain data, so an edited dimension must
    /// fail here rather than in the interleaving's asserts.
    #[inline]
    pub(crate) fn check_shape(&self, op: &'static str, table_cb: usize) -> Result<()> {
        let (rows, cols) = self.centroids.shape();
        if self.ct >= 1
            && cols == self.v
            && self.cb.checked_mul(self.ct) == Some(rows)
            && self.cb == table_cb
        {
            return Ok(());
        }
        Err(LutError::Config {
            op,
            detail: format!(
                "centroids {rows}x{cols} inconsistent with v={}, ct={}, cb={} (table cb={table_cb})",
                self.v, self.ct, self.cb
            ),
        })
    }

    /// Sub-vector length `V`.
    pub fn v(&self) -> usize {
        self.v
    }

    /// Centroids per codebook `CT`.
    pub fn ct(&self) -> usize {
        self.ct
    }

    /// Codebook count `CB = H / V`.
    pub fn cb(&self) -> usize {
        self.cb
    }

    /// Hidden dimension `H = CB * V` this quantizer applies to.
    pub fn hidden(&self) -> usize {
        self.cb * self.v
    }

    /// The raw centroid matrix, `(CB * CT) x V`.
    pub fn centroids(&self) -> &Matrix {
        &self.centroids
    }

    /// Mutable centroid matrix (used by eLUT-NN calibration updates).
    pub fn centroids_mut(&mut self) -> &mut Matrix {
        &mut self.centroids
    }

    /// Borrows centroid `ct` of codebook `cb` as a `V`-length slice.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn centroid(&self, cb: usize, ct: usize) -> &[f32] {
        debug_assert!(cb < self.cb && ct < self.ct);
        self.centroids.row(cb * self.ct + ct)
    }

    /// Closest-centroid search (the **CCS operator**, Fig. 2 steps ❹–❺).
    ///
    /// For every row and codebook column, finds the centroid with minimal
    /// L2 distance and records its index.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if `x.cols() != hidden()`.
    pub fn encode(&self, x: &Matrix) -> Result<IndexMatrix> {
        if x.cols() != self.hidden() {
            return Err(LutError::Config {
                op: "ProductQuantizer::encode",
                detail: format!("input width {} != H = {}", x.cols(), self.hidden()),
            });
        }
        let n = x.rows();
        let mut data = Vec::with_capacity(n * self.cb);
        for r in 0..n {
            let row = x.row(r);
            for col in 0..self.cb {
                let sub = &row[col * self.v..(col + 1) * self.v];
                data.push(self.nearest_in_codebook(col, sub) as u16);
            }
        }
        IndexMatrix::from_vec(n, self.cb, data)
    }

    /// Multi-threaded CCS: identical results to [`Self::encode`], with
    /// activation rows partitioned across `threads` bands executed on the
    /// persistent worker pool. CCS is the host-side hot path of LUT-NN
    /// serving, and it is embarrassingly parallel over rows.
    ///
    /// This re-lays the centroids into the eight-codebooks-per-vector
    /// layout on every call; hot callers should hold an
    /// [`InterleavedCodebooks`] (see [`Self::interleaved`]) and call its
    /// encode methods directly.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if `x.cols() != hidden()` or
    /// `threads == 0`.
    pub fn encode_parallel(&self, x: &Matrix, threads: usize) -> Result<IndexMatrix> {
        if threads == 0 {
            return Err(LutError::Config {
                op: "ProductQuantizer::encode_parallel",
                detail: "thread count must be positive".to_string(),
            });
        }
        self.interleaved().encode_parallel(x, threads)
    }

    /// Re-lays the centroids into the [`InterleavedCodebooks`] layout —
    /// eight consecutive codebooks side by side, one per vector lane — used
    /// by the optimized CCS and fused kernels.
    pub fn interleaved(&self) -> InterleavedCodebooks {
        InterleavedCodebooks::from_quantizer(self)
    }

    fn nearest_in_codebook(&self, cb: usize, sub: &[f32]) -> usize {
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        for k in 0..self.ct {
            let d = sq_dist(sub, self.centroid(cb, k));
            if d < best_d {
                best_d = d;
                best = k;
            }
        }
        best
    }

    /// Reconstructs the approximated activation matrix `Â` from indices
    /// (each sub-vector replaced by its centroid) — the `H(·)` operation of
    /// Eq. 1.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if `indices.cols() != cb()` or any index
    /// is out of the codebook's range.
    pub fn decode(&self, indices: &IndexMatrix) -> Result<Matrix> {
        if indices.cols() != self.cb {
            return Err(LutError::Config {
                op: "ProductQuantizer::decode",
                detail: format!("index width {} != CB = {}", indices.cols(), self.cb),
            });
        }
        let n = indices.rows();
        let mut out = Matrix::zeros(n, self.hidden());
        for r in 0..n {
            for col in 0..self.cb {
                let k = indices.get(r, col) as usize;
                if k >= self.ct {
                    return Err(LutError::Config {
                        op: "ProductQuantizer::decode",
                        detail: format!("index {k} >= CT = {}", self.ct),
                    });
                }
                out.row_mut(r)[col * self.v..(col + 1) * self.v]
                    .copy_from_slice(self.centroid(col, k));
            }
        }
        Ok(out)
    }

    /// Encode-then-decode: snaps every sub-vector of `x` to its nearest
    /// centroid. Returns `(Â, indices)`.
    ///
    /// Encodes through [`InterleavedCodebooks::encode`], whose indices are
    /// bit-identical to [`Self::encode`]'s (the kernels' contract); the
    /// re-lay costs `CB · CT · V` copies against the search's `N` times
    /// that.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] on width mismatch.
    pub fn snap(&self, x: &Matrix) -> Result<(Matrix, IndexMatrix)> {
        let indices = self.interleaved().encode(x)?;
        let approx = self.decode(&indices)?;
        Ok((approx, indices))
    }

    /// Mean squared sub-vector quantization error of `x` under this
    /// quantizer.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] on width mismatch.
    pub fn quantization_mse(&self, x: &Matrix) -> Result<f32> {
        let (approx, _) = self.snap(x)?;
        let diff = approx.sub(x)?;
        Ok(diff.frobenius_sq() / x.len().max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantizer(
        seed: u64,
        n: usize,
        h: usize,
        v: usize,
        ct: usize,
    ) -> (ProductQuantizer, Matrix, DataRng) {
        let mut rng = DataRng::new(seed);
        let acts = rng.normal_matrix(n, h, 0.0, 1.0);
        let pq = ProductQuantizer::fit(&acts, v, ct, 15, &mut rng).unwrap();
        (pq, acts, rng)
    }

    #[test]
    fn fit_dimensions() {
        let (pq, _, _) = quantizer(0, 64, 12, 3, 8);
        assert_eq!(pq.v(), 3);
        assert_eq!(pq.ct(), 8);
        assert_eq!(pq.cb(), 4);
        assert_eq!(pq.hidden(), 12);
        assert_eq!(pq.centroids().shape(), (32, 3));
    }

    #[test]
    fn fit_rejects_bad_dims() {
        let mut rng = DataRng::new(1);
        let acts = rng.normal_matrix(8, 10, 0.0, 1.0);
        assert!(ProductQuantizer::fit(&acts, 3, 4, 5, &mut rng).is_err()); // 3 ∤ 10
        assert!(ProductQuantizer::fit(&acts, 0, 4, 5, &mut rng).is_err());
        assert!(ProductQuantizer::fit(&acts, 2, 0, 5, &mut rng).is_err());
        assert!(ProductQuantizer::fit(&Matrix::zeros(0, 10), 2, 4, 5, &mut rng).is_err());
    }

    #[test]
    fn encode_decode_shapes() {
        let (pq, acts, _) = quantizer(2, 32, 8, 2, 4);
        let idx = pq.encode(&acts).unwrap();
        assert_eq!(idx.rows(), 32);
        assert_eq!(idx.cols(), 4);
        assert!(idx.as_slice().iter().all(|&i| (i as usize) < 4));
        let decoded = pq.decode(&idx).unwrap();
        assert_eq!(decoded.shape(), (32, 8));
    }

    #[test]
    fn snap_is_idempotent() {
        let (pq, acts, _) = quantizer(3, 16, 8, 2, 4);
        let (snapped, _) = pq.snap(&acts).unwrap();
        let (snapped2, _) = pq.snap(&snapped).unwrap();
        assert!(snapped.approx_eq(&snapped2, 1e-6));
    }

    #[test]
    fn snap_reduces_to_exact_when_ct_covers_data() {
        // With as many centroids as distinct sub-vectors, snapping is
        // near-lossless on the calibration data itself.
        let mut rng = DataRng::new(4);
        // Build activations from only 4 distinct sub-vector values.
        let protos = rng.normal_matrix(4, 2, 0.0, 1.0);
        let acts = Matrix::from_fn(32, 8, |r, c| {
            let which = (r * 7 + c / 2) % 4;
            protos.get(which, c % 2)
        });
        let pq = ProductQuantizer::fit(&acts, 2, 4, 30, &mut rng).unwrap();
        let mse = pq.quantization_mse(&acts).unwrap();
        assert!(mse < 1e-6, "mse={mse}");
    }

    #[test]
    fn more_centroids_reduce_mse() {
        let mut rng = DataRng::new(5);
        let acts = rng.normal_matrix(256, 8, 0.0, 1.0);
        let mse4 = ProductQuantizer::fit(&acts, 2, 4, 20, &mut DataRng::new(9))
            .unwrap()
            .quantization_mse(&acts)
            .unwrap();
        let mse32 = ProductQuantizer::fit(&acts, 2, 32, 20, &mut DataRng::new(9))
            .unwrap()
            .quantization_mse(&acts)
            .unwrap();
        assert!(mse32 < mse4, "mse32={mse32} mse4={mse4}");
    }

    #[test]
    fn parallel_encode_matches_serial() {
        let (pq, acts, mut rng) = quantizer(20, 64, 8, 2, 8);
        let fresh = rng.normal_matrix(37, 8, 0.0, 1.0); // non-divisible row count
        for x in [&acts, &fresh] {
            let serial = pq.encode(x).unwrap();
            for threads in [1usize, 2, 3, 8, 64] {
                let parallel = pq.encode_parallel(x, threads).unwrap();
                assert_eq!(parallel, serial, "threads={threads}");
            }
        }
        // Empty input.
        let empty = pimdl_tensor::Matrix::zeros(0, 8);
        assert_eq!(pq.encode_parallel(&empty, 4).unwrap().rows(), 0);
        // Errors.
        assert!(pq
            .encode_parallel(&pimdl_tensor::Matrix::zeros(2, 6), 4)
            .is_err());
        assert!(pq.encode_parallel(&acts, 0).is_err());
    }

    #[test]
    fn encode_rejects_wrong_width() {
        let (pq, _, _) = quantizer(7, 16, 8, 2, 4);
        assert!(pq.encode(&Matrix::zeros(2, 6)).is_err());
        let idx = IndexMatrix::from_vec(2, 3, vec![0; 6]).unwrap();
        assert!(pq.decode(&idx).is_err());
    }

    #[test]
    fn index_matrix_accessors() {
        let idx = IndexMatrix::from_vec(2, 3, vec![0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(idx.get(1, 2), 5);
        assert_eq!(idx.row(0), &[0, 1, 2]);
        let slice = idx.row_slice(1, 1).unwrap();
        assert_eq!(slice.row(0), &[3, 4, 5]);
        assert!(idx.row_slice(1, 2).is_err());
        assert!(IndexMatrix::from_vec(2, 3, vec![0; 5]).is_err());
        // Deserialization goes through the same check, overflow included.
        let v = idx.serde_to_value();
        assert_eq!(IndexMatrix::serde_from_value(&v).unwrap(), idx);
        for (rows, cols) in [(2u64, 4u64), (u64::MAX, 2)] {
            let Value::Map(mut fields) = v.clone() else {
                unreachable!("a struct serializes to a map")
            };
            fields[0].1 = Value::UInt(rows);
            fields[1].1 = Value::UInt(cols);
            assert!(IndexMatrix::serde_from_value(&Value::Map(fields)).is_err());
        }
    }

    #[test]
    fn from_centroids_validation() {
        let c = Matrix::zeros(8, 2);
        assert!(ProductQuantizer::from_centroids(c.clone(), 2, 4).is_ok());
        assert!(ProductQuantizer::from_centroids(c.clone(), 3, 4).is_err()); // wrong v
        assert!(ProductQuantizer::from_centroids(c.clone(), 2, 3).is_err()); // 3 ∤ 8
        assert!(ProductQuantizer::from_centroids(c, 2, 0).is_err());
        assert!(ProductQuantizer::from_centroids(Matrix::zeros(0, 2), 2, 4).is_err());
    }

    #[test]
    fn decode_uses_selected_centroids() {
        let centroids = Matrix::from_vec(4, 1, vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        let pq = ProductQuantizer::from_centroids(centroids, 1, 2).unwrap();
        // cb=2 codebooks (rows 0-1 are codebook 0; rows 2-3 are codebook 1).
        let idx = IndexMatrix::from_vec(1, 2, vec![1, 0]).unwrap();
        let decoded = pq.decode(&idx).unwrap();
        assert_eq!(decoded.row(0), &[20.0, 30.0]);
    }
}
