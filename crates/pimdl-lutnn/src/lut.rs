//! Look-up-table construction and the LUT (gather-accumulate) operator.
//!
//! LUT construction is steps ❷–❸ of Fig. 2: each codebook centroid's inner
//! products with the corresponding weight sub-rows are precomputed, yielding
//! `CT` tables of shape `F x CB` (stored here as one `(CB*CT) x F` matrix).
//! The LUT operator (steps ❻–❼) fetches the `F`-vector selected by each
//! index and accumulates across codebooks — exactly the kernel PIM-DL
//! offloads to DRAM-PIM PEs.
//!
//! The key algebraic identity, asserted by the tests:
//! `lookup(encode(x)) == decode(encode(x)) · W` — the LUT path computes the
//! same result as multiplying the snapped activation by the weight.

use pimdl_tensor::quant::{QuantMatrix, MAX_CB};
use pimdl_tensor::Matrix;
use serde::{Deserialize, Serialize};

use crate::pq::{IndexMatrix, ProductQuantizer};
use crate::{LutError, Result};

/// Precomputed look-up tables for one linear layer, in `f32`.
///
/// Row `cb * CT + ct` holds the `F` partial products of codebook `cb`'s
/// centroid `ct` with the weight sub-rows `W[cb*V .. (cb+1)*V, :]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LutTable {
    cb: usize,
    ct: usize,
    f: usize,
    table: Matrix,
}

impl LutTable {
    /// Builds tables from a fitted quantizer and a weight matrix of shape
    /// `H x F` (input-major, i.e. `Y = X · W`).
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if `weight.rows() != pq.hidden()`.
    pub fn build(pq: &ProductQuantizer, weight: &Matrix) -> Result<Self> {
        if weight.rows() != pq.hidden() {
            return Err(LutError::Config {
                op: "LutTable::build",
                detail: format!(
                    "weight has {} input rows but quantizer hidden dim is {}",
                    weight.rows(),
                    pq.hidden()
                ),
            });
        }
        let (cb, ct, v, f) = (pq.cb(), pq.ct(), pq.v(), weight.cols());
        let mut table = Matrix::zeros(cb * ct, f);
        for col in 0..cb {
            for k in 0..ct {
                let centroid = pq.centroid(col, k);
                let out_row = table.row_mut(col * ct + k);
                for (dv, &cv) in centroid.iter().enumerate().take(v) {
                    let w_row = weight.row(col * v + dv);
                    for j in 0..f {
                        out_row[j] += cv * w_row[j];
                    }
                }
            }
        }
        Ok(LutTable { cb, ct, f, table })
    }

    /// Codebook count `CB`.
    pub fn cb(&self) -> usize {
        self.cb
    }

    /// Centroids per codebook `CT`.
    pub fn ct(&self) -> usize {
        self.ct
    }

    /// Output feature length `F`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The raw table matrix, `(CB*CT) x F`.
    pub fn table(&self) -> &Matrix {
        &self.table
    }

    /// Checks that `CB`, `CT` and `F` describe the table matrix (see
    /// [`check_table_shape`]).
    pub(crate) fn check_shape(&self, op: &'static str) -> Result<()> {
        let dims = (self.cb, self.ct, self.f);
        check_table_shape(op, dims, self.table.shape())
    }

    /// Borrows the `F`-length entry for codebook `cb`, centroid `ct`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn entry(&self, cb: usize, ct: usize) -> &[f32] {
        debug_assert!(cb < self.cb && ct < self.ct);
        self.table.row(cb * self.ct + ct)
    }

    /// The **LUT operator**: gathers and accumulates table entries selected
    /// by the index matrix, producing the `N x F` output (Fig. 2 ❻–❽).
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if `indices.cols() != cb()`, an index
    /// exceeds `CT` or the table's dimensions disagree with its entries.
    pub fn lookup(&self, indices: &IndexMatrix) -> Result<Matrix> {
        self.check_shape("LutTable::lookup")?;
        if indices.cols() != self.cb {
            return Err(LutError::Config {
                op: "LutTable::lookup",
                detail: format!("index width {} != CB = {}", indices.cols(), self.cb),
            });
        }
        validate_indices(indices.as_slice(), self.ct, "LutTable::lookup")?;
        let n = indices.rows();
        let mut out = Matrix::zeros(n, self.f);
        for r in 0..n {
            let idx_row = indices.row(r);
            let out_row = out.row_mut(r);
            for (col, &k) in idx_row.iter().enumerate() {
                let entry = self.table.row(col * self.ct + k as usize);
                for (o, &e) in out_row.iter_mut().zip(entry) {
                    *o += e;
                }
            }
        }
        Ok(out)
    }

    /// Storage footprint of the `f32` tables in bytes.
    pub fn size_bytes(&self) -> usize {
        self.table.len() * 4
    }

    /// Quantizes the tables to INT8 (the setting used on UPMEM, §6.3).
    pub fn quantize(&self) -> QuantLutTable {
        QuantLutTable {
            cb: self.cb,
            ct: self.ct,
            f: self.f,
            table: QuantMatrix::quantize(&self.table),
        }
    }
}

/// INT8-quantized look-up tables with i32 accumulation.
///
/// Matches the UPMEM deployment: tables are stored as one byte per entry in
/// PIM local memory; the PE accumulates in 32-bit integers and the result is
/// dequantized once per output element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantLutTable {
    cb: usize,
    ct: usize,
    f: usize,
    table: QuantMatrix,
}

impl QuantLutTable {
    /// Codebook count `CB`.
    pub fn cb(&self) -> usize {
        self.cb
    }

    /// Centroids per codebook `CT`.
    pub fn ct(&self) -> usize {
        self.ct
    }

    /// Output feature length `F`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The underlying quantized matrix.
    pub fn table(&self) -> &QuantMatrix {
        &self.table
    }

    /// Checks that `CB`, `CT` and `F` describe the code matrix (see
    /// [`check_table_shape`]) and that `CB ≤` [`MAX_CB`], so no i32 sum of
    /// the gather can wrap.
    pub(crate) fn check_shape(&self, op: &'static str) -> Result<()> {
        if self.cb > MAX_CB {
            return Err(LutError::Config {
                op,
                detail: format!(
                    "CB = {} overflows the i32 accumulator (at most {MAX_CB} INT8 entries per sum)",
                    self.cb
                ),
            });
        }
        let dims = (self.cb, self.ct, self.f);
        check_table_shape(op, dims, self.table.shape())
    }

    /// Integer gather-accumulate followed by one dequantization per output:
    /// the plain scalar loop, kept as the oracle the shared gather
    /// (`pimdl_tensor::quant::lut_gather`) is tested against.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] on index-shape mismatch, out-of-range
    /// indices or a table whose dimensions disagree with its codes.
    pub fn lookup(&self, indices: &IndexMatrix) -> Result<Matrix> {
        self.check_shape("QuantLutTable::lookup")?;
        if indices.cols() != self.cb {
            return Err(LutError::Config {
                op: "QuantLutTable::lookup",
                detail: format!("index width {} != CB = {}", indices.cols(), self.cb),
            });
        }
        // Hoisted validation: one pre-pass over the index matrix keeps the
        // gather-accumulate loop below branch-free.
        validate_indices(indices.as_slice(), self.ct, "QuantLutTable::lookup")?;
        let n = indices.rows();
        let mut out = Matrix::zeros(n, self.f);
        let scale = self.table.scale();
        let codes = self.table.codes();
        let mut acc = vec![0i32; self.f];
        for r in 0..n {
            acc.iter_mut().for_each(|a| *a = 0);
            for (col, &k) in indices.row(r).iter().enumerate() {
                let row = col * self.ct + k as usize;
                let entry = &codes[row * self.f..(row + 1) * self.f];
                for (a, &e) in acc.iter_mut().zip(entry) {
                    *a += e as i32;
                }
            }
            for (o, &a) in out.row_mut(r).iter_mut().zip(&acc) {
                *o = a as f32 * scale;
            }
        }
        Ok(out)
    }

    /// Assembles a quantized LUT from an existing code matrix (e.g. a
    /// serving checkpoint) instead of quantizing an `f32` table in-process.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if the code matrix shape is not
    /// `(cb*ct) x f`, `cb` exceeds [`MAX_CB`] or `ct` is 0 / exceeds `u16`
    /// (unindexable).
    pub fn from_parts(cb: usize, ct: usize, f: usize, table: QuantMatrix) -> Result<Self> {
        if ct == 0 || ct > u16::MAX as usize {
            return Err(LutError::Config {
                op: "QuantLutTable::from_parts",
                detail: format!("ct={ct} out of range"),
            });
        }
        let qlut = QuantLutTable { cb, ct, f, table };
        qlut.check_shape("QuantLutTable::from_parts")?;
        Ok(qlut)
    }

    /// Storage footprint in bytes (one byte per table entry).
    pub fn size_bytes(&self) -> usize {
        self.table.size_bytes()
    }
}

/// A table's `CB`, `CT` and `F` must describe its `(CB·CT) × F` entry
/// matrix (whose own shape the matrix's deserializer checks). Serde skips
/// the table's constructor, so an edited artefact is refused here, before
/// any gather slices by those dimensions.
fn check_table_shape(
    op: &'static str,
    (cb, ct, f): (usize, usize, usize),
    (rows, cols): (usize, usize),
) -> Result<()> {
    if cb.checked_mul(ct) == Some(rows) && cols == f {
        return Ok(());
    }
    Err(LutError::Config {
        op,
        detail: format!("table {rows}x{cols} inconsistent with cb={cb}, ct={ct}, f={f}"),
    })
}

/// Checks index range in one pre-pass so the lookup hot loops can be
/// branch-free.
pub(crate) fn validate_indices(indices: &[u16], ct: usize, op: &'static str) -> Result<()> {
    if let Some(&k) = indices.iter().find(|&&k| k as usize >= ct) {
        return Err(LutError::Config {
            op,
            detail: format!("index {k} >= CT = {ct}"),
        });
    }
    Ok(())
}

/// Fused LUT-NN linear evaluation: CCS on `x`, then table lookup.
///
/// This is the complete LUT-NN replacement of `Y = X · W` (bias excluded).
/// See [`kernels::lut_linear_fused`](crate::kernels::lut_linear_fused) for
/// the tiled variant that never materializes the index matrix.
///
/// # Errors
///
/// Propagates shape errors from encoding or lookup.
pub fn lut_linear(x: &Matrix, pq: &ProductQuantizer, lut: &LutTable) -> Result<Matrix> {
    lut.lookup(&pq.encode(x)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimdl_tensor::gemm;
    use pimdl_tensor::rng::DataRng;

    fn setup(
        seed: u64,
        n: usize,
        h: usize,
        f: usize,
        v: usize,
        ct: usize,
    ) -> (ProductQuantizer, LutTable, Matrix, Matrix) {
        let mut rng = DataRng::new(seed);
        let acts = rng.normal_matrix(n.max(4 * ct), h, 0.0, 1.0);
        let weight = rng.normal_matrix(h, f, 0.0, 0.5);
        let pq = ProductQuantizer::fit(&acts, v, ct, 15, &mut rng).unwrap();
        let lut = LutTable::build(&pq, &weight).unwrap();
        let x = rng.normal_matrix(n, h, 0.0, 1.0);
        (pq, lut, weight, x)
    }

    #[test]
    fn lookup_equals_snapped_gemm() {
        // The central identity: LUT(encode(x)) == decode(encode(x)) · W.
        let (pq, lut, weight, x) = setup(0, 8, 12, 6, 3, 8);
        let (snapped, indices) = pq.snap(&x).unwrap();
        let via_lut = lut.lookup(&indices).unwrap();
        let via_gemm = gemm::matmul(&snapped, &weight).unwrap();
        assert!(
            via_lut.approx_eq(&via_gemm, 1e-4),
            "max diff {}",
            via_lut.sub(&via_gemm).unwrap().max_abs()
        );
    }

    #[test]
    fn lut_linear_fuses_encode_and_lookup() {
        let (pq, lut, _, x) = setup(1, 5, 8, 4, 2, 4);
        let fused = lut_linear(&x, &pq, &lut).unwrap();
        let manual = lut.lookup(&pq.encode(&x).unwrap()).unwrap();
        assert_eq!(fused, manual);
    }

    #[test]
    fn approximation_error_shrinks_with_more_centroids() {
        let mut rng = DataRng::new(2);
        let acts = rng.normal_matrix(512, 8, 0.0, 1.0);
        let weight = rng.normal_matrix(8, 16, 0.0, 0.5);
        let x = rng.normal_matrix(32, 8, 0.0, 1.0);
        let exact = gemm::matmul(&x, &weight).unwrap();

        let err = |ct: usize| {
            let pq = ProductQuantizer::fit(&acts, 2, ct, 20, &mut DataRng::new(11)).unwrap();
            let lut = LutTable::build(&pq, &weight).unwrap();
            let approx = lut_linear(&x, &pq, &lut).unwrap();
            approx.sub(&exact).unwrap().frobenius_sq()
        };
        let e4 = err(4);
        let e64 = err(64);
        assert!(e64 < e4, "e64={e64} e4={e4}");
    }

    #[test]
    fn build_rejects_mismatched_weight() {
        let mut rng = DataRng::new(3);
        let acts = rng.normal_matrix(32, 8, 0.0, 1.0);
        let pq = ProductQuantizer::fit(&acts, 2, 4, 10, &mut rng).unwrap();
        assert!(LutTable::build(&pq, &Matrix::zeros(10, 4)).is_err());
    }

    #[test]
    fn lookup_rejects_bad_indices() {
        let (pq, lut, _, _) = setup(4, 4, 8, 4, 2, 4);
        let bad_width = IndexMatrix::from_vec(1, 3, vec![0; 3]).unwrap();
        assert!(lut.lookup(&bad_width).is_err());
        let bad_value = IndexMatrix::from_vec(1, pq.cb(), vec![9; pq.cb()]).unwrap();
        assert!(lut.lookup(&bad_value).is_err());
    }

    #[test]
    fn table_entry_layout() {
        // One codebook, identity-ish check: entry(cb, ct) = centroid · W_sub.
        let centroids = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let pq = ProductQuantizer::from_centroids(centroids, 2, 2).unwrap();
        let weight = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let lut = LutTable::build(&pq, &weight).unwrap();
        assert_eq!(lut.entry(0, 0), &[1.0, 2.0, 3.0]); // centroid (1,0) picks row 0
        assert_eq!(lut.entry(0, 1), &[4.0, 5.0, 6.0]); // centroid (0,1) picks row 1
    }

    #[test]
    fn quantized_lookup_close_to_f32() {
        let (pq, lut, _, x) = setup(5, 16, 16, 32, 2, 16);
        let indices = pq.encode(&x).unwrap();
        let exact = lut.lookup(&indices).unwrap();
        let qlut = lut.quantize();
        let approx = qlut.lookup(&indices).unwrap();
        // INT8 tables: per-entry error ≤ scale/2, accumulated over CB entries.
        let bound = qlut.table().scale() * (lut.cb() as f32) * 0.51 + 1e-5;
        let max_diff = approx.sub(&exact).unwrap().max_abs();
        assert!(max_diff <= bound, "max_diff={max_diff} bound={bound}");
        assert_eq!(qlut.size_bytes() * 4, lut.size_bytes());
        assert_eq!(
            (qlut.cb(), qlut.ct(), qlut.f()),
            (lut.cb(), lut.ct(), lut.f())
        );
    }

    #[test]
    fn quantized_lookup_rejects_bad_indices() {
        let (pq, lut, _, _) = setup(6, 4, 8, 4, 2, 4);
        let qlut = lut.quantize();
        let bad_width = IndexMatrix::from_vec(1, 3, vec![0; 3]).unwrap();
        assert!(qlut.lookup(&bad_width).is_err());
        let bad_value = IndexMatrix::from_vec(1, pq.cb(), vec![9; pq.cb()]).unwrap();
        assert!(qlut.lookup(&bad_value).is_err());
    }

    #[test]
    fn from_parts_roundtrips_and_validates() {
        let (pq, lut, _, x) = setup(9, 6, 8, 5, 2, 4);
        let qlut = lut.quantize();
        let rebuilt =
            QuantLutTable::from_parts(qlut.cb(), qlut.ct(), qlut.f(), qlut.table().clone())
                .unwrap();
        let idx = pq.encode(&x).unwrap();
        assert_eq!(rebuilt.lookup(&idx).unwrap(), qlut.lookup(&idx).unwrap());
        // Shape inconsistencies and unindexable CT are rejected.
        assert!(QuantLutTable::from_parts(
            qlut.cb() + 1,
            qlut.ct(),
            qlut.f(),
            qlut.table().clone()
        )
        .is_err());
        assert!(QuantLutTable::from_parts(qlut.cb(), 0, qlut.f(), qlut.table().clone()).is_err());
        assert!(QuantLutTable::from_parts(
            qlut.cb(),
            u16::MAX as usize + 1,
            qlut.f(),
            qlut.table().clone()
        )
        .is_err());
        // `CB` up to the i32 accumulator's bound is legal, one more is not
        // (F = 0 keeps the tables empty).
        let empty = |rows| QuantMatrix::from_codes(rows, 0, 1.0, Vec::new()).unwrap();
        assert!(QuantLutTable::from_parts(MAX_CB, 1, 0, empty(MAX_CB)).is_ok());
        assert!(QuantLutTable::from_parts(MAX_CB + 1, 1, 0, empty(MAX_CB + 1)).is_err());
        // A deserialized table skips `from_parts`: `CB · CT` past `usize`
        // is refused, not wrapped.
        let huge = QuantLutTable {
            cb: 4,
            ct: usize::MAX / 2,
            f: 0,
            table: empty(0),
        };
        assert!(huge.check_shape("test").is_err());
    }

    #[test]
    fn size_accounting() {
        let (_, lut, _, _) = setup(7, 4, 8, 16, 2, 4);
        // CB=4, CT=4, F=16 → 256 entries → 1 KiB in f32, 256 B in INT8.
        assert_eq!(lut.size_bytes(), 4 * 4 * 16 * 4);
        assert_eq!(lut.quantize().size_bytes(), 4 * 4 * 16);
    }
}
