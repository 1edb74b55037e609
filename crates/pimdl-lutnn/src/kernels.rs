//! Optimized host kernels for LUT-NN inference: the codebook-interleaved
//! centroid layout, lane-parallel CCS, and the fused CCS+LUT operator.
//!
//! The hot path of LUT-NN serving is host-side closest-centroid search (CCS)
//! feeding the LUT gather (paper §3.3, Fig. 11). The reference operators in
//! [`pq`](crate::pq) and [`lut`](crate::lut) are written for clarity: CCS
//! walks row-major centroids one sub-vector at a time, and `lut_linear`
//! materializes a full [`IndexMatrix`] between two passes over memory. This
//! module provides the production layout and kernels:
//!
//! * [`InterleavedCodebooks`] — **codebook-interleaved** centroid storage:
//!   the same `(k, d)` component of eight consecutive codebooks is
//!   contiguous (`data[(((c / 8)·CT + k)·V + d)·8 + c % 8]`), so CCS searches
//!   eight codebooks per vector op, one per lane, each lane keeping its own
//!   running best: no horizontal argmin and no distance scratch. The body is
//!   monomorphized for V ∈ {1, 2, 4, 8, 16} (fully unrolled over `V`) and
//!   runs at runtime length for any other `V`.
//! * [`lut_linear_fused`] / [`lut_linear_fused_quant`] — encode a tile of
//!   rows and immediately gather/accumulate it into the output, tiled over
//!   rows ([`FUSED_ROW_TILE`]) and output features ([`FUSED_F_TILE`]) so the
//!   active LUT slice stays cache-resident. The intermediate index matrix is
//!   never materialized beyond one row tile. The INT8 gather is the one
//!   [`pimdl_tensor::quant::lut_gather`] the simulated PEs also run, on its
//!   widest arm the CPU has (AVX-512BW, AVX2 or portable).
//! * `*_parallel` variants — partition rows across the persistent
//!   [`WorkerPool`], not per-call spawned threads.
//! * [`lut_checksum_quant`] — the same INT8 gather driven by precomputed
//!   indices and reduced straight to the `f64` output sum: the host
//!   reference `pimdl-serve` compares every simulated-PE result against.
//!   Both sides share the gather, so that compare checks the mapping, band
//!   assembly and dequantization; the gather itself is checked against the
//!   reference [`QuantLutTable::lookup`] and `pimdl_sim::interp`.
//!
//! **Bit-exactness contract**: every kernel here reproduces the reference
//! operators exactly, bit for bit. Distances accumulate in the same order as
//! [`sq_dist`](crate::kmeans::sq_dist) (dimension-ascending, starting from
//! `+0.0`, and `0.0 + x == x` bitwise because squared terms are never
//! `-0.0`); each lane's running best starts at `(+inf, 0)` and is replaced
//! only under strict `acc < best_d` for `k` ascending, which is the
//! reference's first-wins tie-break and leaves a NaN distance unselected
//! exactly as the reference does. The fused f32 gather accumulates codebooks
//! in ascending order per output element, so row/feature tiling cannot
//! reassociate any float sum; the INT8 gather's sums are exact integers (no
//! partial sum can leave its type's range, see `lut_gather`), so only the
//! unchanged `acc as f32 * scale` rounds. The property tests in
//! `tests/properties.rs` assert exact equality.

use pimdl_tensor::pool::WorkerPool;
use pimdl_tensor::quant::lut_gather;
use pimdl_tensor::Matrix;

use crate::lut::{validate_indices, LutTable, QuantLutTable};
use crate::pq::{IndexMatrix, ProductQuantizer};
use crate::{LutError, Result};

/// Rows encoded per fused tile before their gather begins.
///
/// The dominant cost of the gather is streaming table entries: a tile of
/// `R` rows touching a feature block reads each codebook's candidate slice
/// at most once (up to `CT` entries) instead of once per row, so larger
/// tiles asymptotically reduce table traffic by `R / CT`. 256 rows keeps
/// the tile's output block (`256 × FUSED_F_TILE × 4 B`; for INT8 tables the
/// hot block is the `× 2 B` i16 staging tile) L2-resident at the serving
/// shapes while capturing nearly all of that reuse.
pub const FUSED_ROW_TILE: usize = 256;

/// Output features processed per fused tile.
///
/// At the serving shape (F = 768, f32 tables) the tile's output block is
/// `256 × 768 × 4 B = 768 KiB` — L2-resident, revisited once per
/// eight-codebook pass — so F up to 768 runs unblocked; wider FFN-style
/// tables split into 768-wide blocks to keep that bound. The INT8 kernel
/// revisits its 384 KiB i16 staging tile (2 B per element) at that rate and
/// its 768 KiB i32 tile only once per 128 codebooks.
pub const FUSED_F_TILE: usize = 768;

/// Tile sizes of the fused CCS+LUT kernels, selectable at runtime.
///
/// The defaults ([`FUSED_ROW_TILE`], [`FUSED_F_TILE`]) are sized for the
/// serving shapes on a ~1 MiB L2; `pimdl_tuner::ktile` searches this space
/// with a DRAM-traffic model for other cache geometries. Tiling is purely a
/// blocking decision: by the module's bit-exactness contract, **every**
/// tiling produces bit-identical output (asserted by a property test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedTiling {
    /// Rows encoded per fused tile (see [`FUSED_ROW_TILE`]).
    pub row_tile: usize,
    /// Output features per fused tile (see [`FUSED_F_TILE`]).
    pub f_tile: usize,
}

impl Default for FusedTiling {
    fn default() -> Self {
        FusedTiling {
            row_tile: FUSED_ROW_TILE,
            f_tile: FUSED_F_TILE,
        }
    }
}

impl FusedTiling {
    /// Checks the tiling for degenerate values.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if either tile extent is zero — a zero
    /// step would make the kernel's tile loops spin forever.
    pub fn validate(&self) -> Result<()> {
        if self.row_tile == 0 || self.f_tile == 0 {
            return Err(LutError::Config {
                op: "FusedTiling::validate",
                detail: format!(
                    "tile extents must be positive, got {} x {}",
                    self.row_tile, self.f_tile
                ),
            });
        }
        Ok(())
    }
}

/// Codebooks searched side by side by one CCS step: the `f32` lanes of one
/// AVX2 register. The layout pads `CB` up to a multiple of this.
const CCS_LANES: usize = 8;

/// Codebook-interleaved centroid storage: eight codebooks side by side.
///
/// For codebook `c`, centroid `k`, dimension `d`, the value lives at
/// `data[(((c / 8) * ct + k) * v + d) * 8 + c % 8]`: the same `(k, d)`
/// component of [`CCS_LANES`] consecutive codebooks is contiguous, so one
/// vector op advances eight independent searches and each lane keeps its own
/// running best. The last block is zero-padded; its dead lanes are computed
/// and discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct InterleavedCodebooks {
    v: usize,
    ct: usize,
    cb: usize,
    data: Vec<f32>,
}

impl InterleavedCodebooks {
    /// Re-lays a fitted quantizer's `(CB*CT) x V` centroid matrix into the
    /// interleaved layout.
    pub fn from_quantizer(pq: &ProductQuantizer) -> Self {
        Self::from_centroid_rows(pq.centroids(), pq.v(), pq.ct())
    }

    /// Builds the interleaved layout from row-major centroids (`(cb*ct) x v`
    /// with codebook `cb`'s centroid `k` at row `cb*ct + k`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape is inconsistent with `v`/`ct`.
    pub fn from_centroid_rows(centroids: &Matrix, v: usize, ct: usize) -> Self {
        assert!(ct > 0, "ct must be positive");
        assert_eq!(centroids.cols(), v, "centroid length != v");
        assert_eq!(
            centroids.rows() % ct,
            0,
            "centroid rows not a multiple of ct"
        );
        let cb = centroids.rows() / ct;
        let mut data = vec![0.0f32; cb.div_ceil(CCS_LANES) * ct * v * CCS_LANES];
        for c in 0..cb {
            let (block, lane) = (c / CCS_LANES, c % CCS_LANES);
            for k in 0..ct {
                for (d, &val) in centroids.row(c * ct + k).iter().enumerate() {
                    data[((block * ct + k) * v + d) * CCS_LANES + lane] = val;
                }
            }
        }
        InterleavedCodebooks { v, ct, cb, data }
    }

    /// Sub-vector length `V`.
    pub fn v(&self) -> usize {
        self.v
    }

    /// Centroids per codebook `CT`.
    pub fn ct(&self) -> usize {
        self.ct
    }

    /// Codebook count `CB`.
    pub fn cb(&self) -> usize {
        self.cb
    }

    /// Hidden dimension `H = CB * V` this layout encodes.
    pub fn hidden(&self) -> usize {
        self.cb * self.v
    }

    /// CCS over the interleaved layout: bit-identical indices to
    /// [`ProductQuantizer::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if `x.cols() != hidden()`.
    pub fn encode(&self, x: &Matrix) -> Result<IndexMatrix> {
        self.check_input(x, "InterleavedCodebooks::encode")?;
        let n = x.rows();
        let mut data = vec![0u16; n * self.cb];
        self.encode_rows_into(x, 0, &mut data);
        IndexMatrix::from_vec(n, self.cb, data)
    }

    /// Pool-parallel CCS: activation rows are partitioned into `threads`
    /// bands executed on the global [`WorkerPool`]. Identical output to
    /// [`Self::encode`] for any `threads`.
    ///
    /// # Errors
    ///
    /// Returns [`LutError::Config`] if `x.cols() != hidden()` or
    /// `threads == 0`.
    pub fn encode_parallel(&self, x: &Matrix, threads: usize) -> Result<IndexMatrix> {
        self.check_input(x, "InterleavedCodebooks::encode_parallel")?;
        if threads == 0 {
            return Err(LutError::Config {
                op: "InterleavedCodebooks::encode_parallel",
                detail: "thread count must be positive".to_string(),
            });
        }
        let n = x.rows();
        if n == 0 {
            return IndexMatrix::from_vec(0, self.cb, Vec::new());
        }
        let rows_per = n.div_ceil(threads.min(n));
        let mut data = vec![0u16; n * self.cb];
        WorkerPool::global().run_row_bands(&mut data, self.cb, rows_per, |first_row, band| {
            self.encode_rows_into(x, first_row, band);
        });
        IndexMatrix::from_vec(n, self.cb, data)
    }

    /// Encodes rows `first_row ..` of `x` into `band` (one `cb`-wide index
    /// row per activation row).
    ///
    /// Dispatches once to an AVX2-compiled clone of the same body when the
    /// CPU supports it: element-wise float ops are IEEE-identical at any
    /// vector width (FMA contraction is *not* enabled), so the wider kernel
    /// stays bit-exact.
    fn encode_rows_into(&self, x: &Matrix, first_row: usize, band: &mut [u16]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence checked at runtime.
            return unsafe { self.encode_rows_avx2(x, first_row, band) };
        }
        self.encode_rows_body(x, first_row, band);
    }

    /// AVX2-compiled clone of [`Self::encode_rows_body`].
    ///
    /// # Safety
    ///
    /// The body is safe code; `unsafe` comes only from `target_feature`.
    /// The caller must verify AVX2 support (`is_x86_feature_detected!`)
    /// before calling, or the compiled instructions fault on older CPUs.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn encode_rows_avx2(&self, x: &Matrix, first_row: usize, band: &mut [u16]) {
        self.encode_rows_body(x, first_row, band);
    }

    /// Monomorphizes [`Self::encode_rows_lanes`] for the paper's sub-vector
    /// lengths (its `V` loops then unroll and the transposed sub-vectors
    /// live in registers); any other `V` runs the same body at runtime
    /// length.
    #[inline(always)]
    fn encode_rows_body(&self, x: &Matrix, first_row: usize, band: &mut [u16]) {
        match self.v {
            1 => self.encode_rows_lanes(x, first_row, band, &mut [[0.0; CCS_LANES]; 1]),
            2 => self.encode_rows_lanes(x, first_row, band, &mut [[0.0; CCS_LANES]; 2]),
            4 => self.encode_rows_lanes(x, first_row, band, &mut [[0.0; CCS_LANES]; 4]),
            8 => self.encode_rows_lanes(x, first_row, band, &mut [[0.0; CCS_LANES]; 8]),
            16 => self.encode_rows_lanes(x, first_row, band, &mut [[0.0; CCS_LANES]; 16]),
            v => self.encode_rows_lanes(x, first_row, band, &mut vec![[0.0; CCS_LANES]; v]),
        }
    }

    /// CCS of each row, [`CCS_LANES`] codebooks at a time. `xt` (`V` rows)
    /// holds the block's sub-vectors transposed: `xt[d][lane]` is dimension
    /// `d` of codebook `lane`'s sub-vector.
    ///
    /// Per lane this is the reference search verbatim: for `k` ascending the
    /// distance accumulates dimension-ascending from `+0.0`, and the running
    /// best — starting at `(+inf, 0)` — is replaced only under strict
    /// `acc < best_d`. First-wins ties and NaN distances (never selected)
    /// therefore fall out as in [`ProductQuantizer::encode`], with no
    /// cross-lane step anywhere. A tail block transposes and stores only its
    /// live lanes; the others hold stale sub-vectors against zero padding
    /// and are dropped.
    #[inline(always)]
    fn encode_rows_lanes(
        &self,
        x: &Matrix,
        first_row: usize,
        band: &mut [u16],
        xt: &mut [[f32; CCS_LANES]],
    ) {
        let v = xt.len();
        let block_len = self.ct * v * CCS_LANES;
        for (local, idx_row) in band.chunks_mut(self.cb).enumerate() {
            let row = x.row(first_row + local);
            for (b, slots) in idx_row.chunks_mut(CCS_LANES).enumerate() {
                let block = &self.data[b * block_len..(b + 1) * block_len];
                let subs = &row[b * CCS_LANES * v..][..slots.len() * v];
                for lane in 0..slots.len() {
                    for (d, xd) in xt.iter_mut().enumerate() {
                        xd[lane] = subs[lane * v + d];
                    }
                }
                let mut best_d = [f32::INFINITY; CCS_LANES];
                let mut best_k = [0u32; CCS_LANES];
                for k in 0..self.ct {
                    let centroid = &block[k * v * CCS_LANES..(k + 1) * v * CCS_LANES];
                    let mut acc = [0.0f32; CCS_LANES];
                    for (xd, cd) in xt.iter().zip(centroid.chunks_exact(CCS_LANES)) {
                        for lane in 0..CCS_LANES {
                            let diff = xd[lane] - cd[lane];
                            acc[lane] += diff * diff;
                        }
                    }
                    for lane in 0..CCS_LANES {
                        let better = acc[lane] < best_d[lane];
                        best_d[lane] = if better { acc[lane] } else { best_d[lane] };
                        best_k[lane] = if better { k as u32 } else { best_k[lane] };
                    }
                }
                for (slot, &k) in slots.iter_mut().zip(&best_k) {
                    *slot = k as u16;
                }
            }
        }
    }

    fn check_input(&self, x: &Matrix, op: &'static str) -> Result<()> {
        if x.cols() != self.hidden() {
            return Err(LutError::Config {
                op,
                detail: format!("input width {} != H = {}", x.cols(), self.hidden()),
            });
        }
        Ok(())
    }
}

/// Squared L2 distances from `sub` to each of the `ct` centroids held
/// dimension-major in `lanes` (`lanes[d * ct + k]`), written into `out`:
/// the k-means assignment's distance step. Dispatches to an unrolled kernel
/// for the paper's sub-vector lengths, with a lane-wise generic fallback.
#[inline(always)]
fn dists_into(lanes: &[f32], ct: usize, sub: &[f32], dists: &mut [f32]) {
    match sub.len() {
        1 => dists_unrolled::<1>(lanes, ct, sub, dists),
        2 => dists_unrolled::<2>(lanes, ct, sub, dists),
        4 => dists_unrolled::<4>(lanes, ct, sub, dists),
        8 => dists_unrolled::<8>(lanes, ct, sub, dists),
        16 => dists_unrolled::<16>(lanes, ct, sub, dists),
        _ => dists_generic(lanes, ct, sub, dists),
    }
}

/// Distance kernel monomorphized over the sub-vector length: the `V` loop
/// unrolls completely and the `k` loop streams `V` contiguous lanes, which
/// rustc autovectorizes.
///
/// Accumulation is dimension-ascending from `0.0`, matching the reference
/// [`sq_dist`](crate::kmeans::sq_dist) bit for bit.
#[inline(always)]
fn dists_unrolled<const V: usize>(lanes: &[f32], ct: usize, sub: &[f32], out: &mut [f32]) {
    assert_eq!(lanes.len(), V * ct);
    assert_eq!(out.len(), ct);
    let xs: &[f32; V] = sub.try_into().expect("sub-vector length mismatch");
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0f32;
        for d in 0..V {
            let diff = xs[d] - lanes[d * ct + k];
            acc += diff * diff;
        }
        *o = acc;
    }
}

/// Generic fallback: lane-wise accumulation (still unit-stride in `k`).
/// Per centroid the terms are added dimension-ascending starting from a
/// `0.0` fill, so results match [`dists_unrolled`] and the reference scalar
/// path exactly.
#[inline(always)]
fn dists_generic(lanes: &[f32], ct: usize, sub: &[f32], out: &mut [f32]) {
    assert_eq!(lanes.len(), sub.len() * ct);
    assert_eq!(out.len(), ct);
    out.fill(0.0);
    for (d, &x) in sub.iter().enumerate() {
        let lane = &lanes[d * ct..(d + 1) * ct];
        for (o, &c) in out.iter_mut().zip(lane) {
            let diff = x - c;
            *o += diff * diff;
        }
    }
}

/// First-wins argmin under strict `<` — the reference CCS tie-break.
#[inline(always)]
fn argmin(dists: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (k, &d) in dists.iter().enumerate() {
        if d < best_d {
            best_d = d;
            best = k;
        }
    }
    best
}

/// Nearest centroid of `points.row(i)`-style slices for flat row-major
/// centroid sets, as `(index, squared distance)` pairs for each point row.
///
/// This is the k-means assignment step: *one* codebook of `k` centroids of
/// length `dim`, so the eight-codebook lanes of [`InterleavedCodebooks`]
/// would be seven-eighths padding. It streams the transposed centroid
/// matrix (`lanes[d * k + j]`, centroid-contiguous) instead and reduces each
/// point's `k` distances with the same first-wins strict `<`. Rows are
/// partitioned across the global [`WorkerPool`] when the problem is large
/// enough to amortize dispatch.
///
/// # Panics
///
/// Panics if `centroids` is empty, the dimensions disagree, or
/// `out.len() != points.rows()`.
pub fn assign_nearest(points: &Matrix, centroids: &Matrix, out: &mut [(usize, f32)]) {
    let n = points.rows();
    let k = centroids.rows();
    let dim = points.cols();
    assert!(k > 0, "no centroids");
    assert_eq!(centroids.cols(), dim, "dimension mismatch");
    assert_eq!(out.len(), n, "output length mismatch");
    if n == 0 {
        return;
    }
    let lanes = centroids.transpose();
    let lanes = lanes.as_slice();
    // Only fan out when the assignment is big enough to amortize pool
    // dispatch; the partition below never changes results, only wall time.
    let work = n * k * dim.max(1);
    let chunk_rows = if work < (1 << 18) {
        n
    } else {
        n.div_ceil(WorkerPool::global().threads() * 4).max(32)
    };
    WorkerPool::global().run_row_bands(out, 1, chunk_rows, |first_row, band| {
        let mut dists = vec![0.0f32; k];
        for (local, slot) in band.iter_mut().enumerate() {
            dists_into(lanes, k, points.row(first_row + local), &mut dists);
            let best = argmin(&dists);
            *slot = (best, dists[best]);
        }
    });
}

fn check_fused_dims(
    x: &Matrix,
    cbs: &InterleavedCodebooks,
    (cb, ct): (usize, usize),
    op: &'static str,
) -> Result<()> {
    if x.cols() != cbs.hidden() {
        return Err(LutError::Config {
            op,
            detail: format!("input width {} != H = {}", x.cols(), cbs.hidden()),
        });
    }
    if cb != cbs.cb() || ct != cbs.ct() {
        return Err(LutError::Config {
            op,
            detail: format!(
                "table shape CB={cb}, CT={ct} != codebooks CB={}, CT={}",
                cbs.cb(),
                cbs.ct()
            ),
        });
    }
    Ok(())
}

/// Fused CCS + LUT gather over `f32` tables.
///
/// Encodes [`FUSED_ROW_TILE`]-row tiles and immediately accumulates their
/// table entries into the output, blocked over output features, without
/// materializing an [`IndexMatrix`]. Bit-identical to
/// `lut.lookup(&pq.encode(x)?)` (same distance accumulation order, same
/// argmin tie-break, same per-element codebook-ascending accumulation).
///
/// # Errors
///
/// Returns [`LutError::Config`] if `x`'s width or the table's `CB`/`CT`
/// disagree with `cbs`, or the table's dimensions with its entries.
pub fn lut_linear_fused(x: &Matrix, cbs: &InterleavedCodebooks, lut: &LutTable) -> Result<Matrix> {
    lut_linear_fused_tiled(x, cbs, lut, FusedTiling::default())
}

/// [`lut_linear_fused`] with explicit tile sizes (bit-identical output for
/// any tiling; see [`FusedTiling`]).
///
/// # Errors
///
/// Returns [`LutError::Config`] on shape mismatch or a zero tile extent.
pub fn lut_linear_fused_tiled(
    x: &Matrix,
    cbs: &InterleavedCodebooks,
    lut: &LutTable,
    tiling: FusedTiling,
) -> Result<Matrix> {
    lut.check_shape("lut_linear_fused_tiled")?;
    check_fused_dims(x, cbs, (lut.cb(), lut.ct()), "lut_linear_fused_tiled")?;
    tiling.validate()?;
    let mut out = Matrix::zeros(x.rows(), lut.f());
    if x.rows() > 0 && lut.f() > 0 {
        fused_band_f32(x, cbs, lut, out.as_mut_slice(), tiling);
    }
    Ok(out)
}

/// Fused CCS + LUT gather over INT8 tables with i32 accumulation.
///
/// Bit-identical to `qlut.lookup(&pq.encode(x)?)`: integer accumulation is
/// exact, and the single dequantizing multiply per output element is
/// unchanged.
///
/// # Errors
///
/// Returns [`LutError::Config`] on shape mismatch.
pub fn lut_linear_fused_quant(
    x: &Matrix,
    cbs: &InterleavedCodebooks,
    qlut: &QuantLutTable,
) -> Result<Matrix> {
    lut_linear_fused_quant_tiled(x, cbs, qlut, FusedTiling::default())
}

/// [`lut_linear_fused_quant`] with explicit tile sizes (bit-identical
/// output for any tiling; see [`FusedTiling`]).
///
/// # Errors
///
/// Returns [`LutError::Config`] on shape mismatch or a zero tile extent.
pub fn lut_linear_fused_quant_tiled(
    x: &Matrix,
    cbs: &InterleavedCodebooks,
    qlut: &QuantLutTable,
    tiling: FusedTiling,
) -> Result<Matrix> {
    qlut.check_shape("lut_linear_fused_quant_tiled")?;
    check_fused_dims(
        x,
        cbs,
        (qlut.cb(), qlut.ct()),
        "lut_linear_fused_quant_tiled",
    )?;
    tiling.validate()?;
    let mut out = Matrix::zeros(x.rows(), qlut.f());
    if x.rows() > 0 && qlut.f() > 0 {
        fused_band_quant(x, cbs, qlut, 0, out.as_mut_slice(), tiling);
    }
    Ok(out)
}

/// Pool-parallel [`lut_linear_fused_quant`].
///
/// # Errors
///
/// Returns [`LutError::Config`] on shape mismatch or `threads == 0`.
pub fn lut_linear_fused_quant_parallel(
    x: &Matrix,
    cbs: &InterleavedCodebooks,
    qlut: &QuantLutTable,
    threads: usize,
) -> Result<Matrix> {
    qlut.check_shape("lut_linear_fused_quant_parallel")?;
    check_fused_dims(
        x,
        cbs,
        (qlut.cb(), qlut.ct()),
        "lut_linear_fused_quant_parallel",
    )?;
    if threads == 0 {
        return Err(LutError::Config {
            op: "lut_linear_fused_quant_parallel",
            detail: "thread count must be positive".to_string(),
        });
    }
    let n = x.rows();
    let mut out = Matrix::zeros(n, qlut.f());
    if n == 0 || qlut.f() == 0 {
        return Ok(out);
    }
    let rows_per = n.div_ceil(threads.min(n));
    WorkerPool::global().run_row_bands(
        out.as_mut_slice(),
        qlut.f(),
        rows_per,
        |first_row, band| {
            fused_band_quant(x, cbs, qlut, first_row, band, FusedTiling::default());
        },
    );
    Ok(out)
}

/// The fused f32 tile kernel over every row of `x`, writing into a
/// zero-initialized `out` (`rows × f`, row-major).
///
/// Loop order inside one row tile: features are blocked, and within one
/// feature block the codebook loop is outermost so one codebook's table
/// slice is reused across every row of the tile before moving on.
fn fused_band_f32(
    x: &Matrix,
    cbs: &InterleavedCodebooks,
    lut: &LutTable,
    out: &mut [f32],
    tiling: FusedTiling,
) {
    let f = lut.f();
    let (cb, ct) = (cbs.cb(), cbs.ct());
    let rows = out.len() / f;
    let table = lut.table().as_slice();
    // Scratch follows the rows present, not the requested tile: any positive
    // `row_tile` is legal and must not size an allocation.
    let mut idx = vec![0u16; tiling.row_tile.min(rows) * cb];
    for t0 in (0..rows).step_by(tiling.row_tile) {
        let t1 = (t0 + tiling.row_tile).min(rows);
        let tile = &mut idx[..(t1 - t0) * cb];
        cbs.encode_rows_into(x, t0, tile);
        for j0 in (0..f).step_by(tiling.f_tile) {
            let j1 = (j0 + tiling.f_tile).min(f);
            gather_block_f32(out, f, (t0, t1), (j0, j1), table, (cb, ct), tile);
        }
    }
}

/// One feature block of the fused f32 gather: accumulates every codebook's
/// entry slice into the row tile's output block.
///
/// Codebooks are unrolled 8-wide — each output element is loaded and stored
/// once per 8 accumulated entries instead of once per entry — with the adds
/// still applied in ascending codebook order per element, so the result is
/// bit-identical to the reference lookup. Dispatches to an AVX2 clone when
/// the CPU supports it (element-wise adds are IEEE-identical at any vector
/// width; FMA contraction is not enabled).
fn gather_block_f32(
    band: &mut [f32],
    f: usize,
    (t0, t1): (usize, usize),
    (j0, j1): (usize, usize),
    table: &[f32],
    (cb, ct): (usize, usize),
    tile: &[u16],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: feature presence checked at runtime.
        return unsafe {
            gather_block_f32_avx2(band, f, (t0, t1), (j0, j1), table, (cb, ct), tile)
        };
    }
    gather_block_f32_body(band, f, (t0, t1), (j0, j1), table, (cb, ct), tile);
}

/// AVX2-compiled clone of [`gather_block_f32_body`].
///
/// # Safety
///
/// The body is safe code; `unsafe` comes only from `target_feature`. The
/// caller must verify AVX2 support (`is_x86_feature_detected!`) before
/// calling, or the compiled instructions fault on older CPUs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_block_f32_avx2(
    band: &mut [f32],
    f: usize,
    rt: (usize, usize),
    jb: (usize, usize),
    table: &[f32],
    shape: (usize, usize),
    tile: &[u16],
) {
    gather_block_f32_body(band, f, rt, jb, table, shape, tile);
}

#[inline(always)]
fn gather_block_f32_body(
    band: &mut [f32],
    f: usize,
    (t0, t1): (usize, usize),
    (j0, j1): (usize, usize),
    table: &[f32],
    (cb, ct): (usize, usize),
    tile: &[u16],
) {
    let b = j1 - j0;
    let mut c = 0;
    while c + 8 <= cb {
        for r in t0..t1 {
            let irow = &tile[(r - t0) * cb..(r - t0 + 1) * cb];
            let o0 = ((c * ct) + irow[c] as usize) * f + j0;
            let o1 = (((c + 1) * ct) + irow[c + 1] as usize) * f + j0;
            let o2 = (((c + 2) * ct) + irow[c + 2] as usize) * f + j0;
            let o3 = (((c + 3) * ct) + irow[c + 3] as usize) * f + j0;
            let o4 = (((c + 4) * ct) + irow[c + 4] as usize) * f + j0;
            let o5 = (((c + 5) * ct) + irow[c + 5] as usize) * f + j0;
            let o6 = (((c + 6) * ct) + irow[c + 6] as usize) * f + j0;
            let o7 = (((c + 7) * ct) + irow[c + 7] as usize) * f + j0;
            let e0 = &table[o0..o0 + b];
            let e1 = &table[o1..o1 + b];
            let e2 = &table[o2..o2 + b];
            let e3 = &table[o3..o3 + b];
            let e4 = &table[o4..o4 + b];
            let e5 = &table[o5..o5 + b];
            let e6 = &table[o6..o6 + b];
            let e7 = &table[o7..o7 + b];
            let out_row = &mut band[r * f + j0..r * f + j0 + b];
            for j in 0..b {
                let a = (((out_row[j] + e0[j]) + e1[j]) + e2[j]) + e3[j];
                out_row[j] = (((a + e4[j]) + e5[j]) + e6[j]) + e7[j];
            }
        }
        c += 8;
    }
    while c < cb {
        let base = c * ct;
        for r in t0..t1 {
            let k = tile[(r - t0) * cb + c] as usize;
            let entry = &table[(base + k) * f + j0..(base + k) * f + j0 + b];
            let out_row = &mut band[r * f + j0..r * f + j0 + b];
            for (o, &e) in out_row.iter_mut().zip(entry) {
                *o += e;
            }
        }
        c += 1;
    }
}

/// The fused INT8 tile kernel: same structure as [`fused_band_f32`] with an
/// i32 accumulator tile (and the i16 tile [`lut_gather`] stages through)
/// and one dequantizing multiply per output element.
fn fused_band_quant(
    x: &Matrix,
    cbs: &InterleavedCodebooks,
    qlut: &QuantLutTable,
    first_row: usize,
    band: &mut [f32],
    tiling: FusedTiling,
) {
    let f = qlut.f();
    let (cb, ct) = (cbs.cb(), cbs.ct());
    let rows = band.len() / f;
    let codes = qlut.table().codes();
    let scale = qlut.table().scale();
    // Scratch follows the rows and features present, not the requested tile.
    let tile_rows = tiling.row_tile.min(rows);
    let mut idx = vec![0u16; tile_rows * cb];
    let mut acc = vec![0i32; tile_rows * tiling.f_tile.min(f)];
    let mut stage = vec![0i16; acc.len()];
    for t0 in (0..rows).step_by(tiling.row_tile) {
        let t1 = (t0 + tiling.row_tile).min(rows);
        let tile = &mut idx[..(t1 - t0) * cb];
        cbs.encode_rows_into(x, first_row + t0, tile);
        for j0 in (0..f).step_by(tiling.f_tile) {
            let j1 = (j0 + tiling.f_tile).min(f);
            let jb = j1 - j0;
            let acc_tile = &mut acc[..(t1 - t0) * jb];
            let stage = &mut stage[..(t1 - t0) * jb];
            lut_gather(acc_tile, stage, codes, (cb, ct, f), (j0, jb), tile);
            for r in t0..t1 {
                let acc_row = &acc_tile[(r - t0) * jb..(r - t0 + 1) * jb];
                let out_row = &mut band[r * f + j0..r * f + j1];
                for (o, &a) in out_row.iter_mut().zip(acc_row) {
                    *o = a as f32 * scale;
                }
            }
        }
    }
}

/// Sum of the INT8 LUT output selected by `n × CB` precomputed `indices`:
/// the fused INT8 kernel minus CCS, reduced instead of stored.
///
/// Bit-identical to summing `qlut.lookup(..)`'s output as `f64` in
/// row-major order, without building the [`IndexMatrix`] or the `n × F`
/// output: each row tile is gathered into an i32 scratch by the same
/// [`lut_gather`] the fused kernel uses, dequantized with the same
/// `acc as f32 * scale`, and folded into one running `f64`.
///
/// # Errors
///
/// Returns [`LutError::Config`] if `indices.len() != n * CB`, an index
/// reaches `CT`, or the table's dimensions disagree with its codes or
/// overflow the i32 accumulator; nothing is gathered in any case.
pub fn lut_checksum_quant(n: usize, indices: &[u16], qlut: &QuantLutTable) -> Result<f64> {
    qlut.check_shape("lut_checksum_quant")?;
    let (cb, ct, f) = (qlut.cb(), qlut.ct(), qlut.f());
    if n.checked_mul(cb) != Some(indices.len()) {
        return Err(LutError::Config {
            op: "lut_checksum_quant",
            detail: format!("{} indices, shape needs {n} x CB = {cb}", indices.len()),
        });
    }
    validate_indices(indices, ct, "lut_checksum_quant")?;
    let codes = qlut.table().codes();
    let scale = qlut.table().scale();
    // A gather block spans whole rows: splitting F would reorder the f64
    // adds below. Wide tables shrink the row tile instead, keeping the
    // scratch within the fused kernel's L2 budget.
    let row_tile = (FUSED_ROW_TILE * FUSED_F_TILE / f.max(1)).clamp(1, FUSED_ROW_TILE);
    let mut acc = vec![0i32; row_tile.min(n) * f];
    let mut stage = vec![0i16; acc.len()];
    // -0.0 is the additive identity `Iterator::sum` folds from, so empty
    // and all-negative-zero outputs reduce to the same bits too.
    let mut sum = -0.0f64;
    for t0 in (0..n).step_by(row_tile) {
        let t1 = (t0 + row_tile).min(n);
        let acc_tile = &mut acc[..(t1 - t0) * f];
        let stage = &mut stage[..(t1 - t0) * f];
        let tile = &indices[t0 * cb..t1 * cb];
        lut_gather(acc_tile, stage, codes, (cb, ct, f), (0, f), tile);
        for &a in acc_tile.iter() {
            sum += f64::from(a as f32 * scale);
        }
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::lut_linear;
    use pimdl_tensor::rng::DataRng;

    fn setup(
        seed: u64,
        n: usize,
        h: usize,
        f: usize,
        v: usize,
        ct: usize,
    ) -> (ProductQuantizer, LutTable, Matrix) {
        let mut rng = DataRng::new(seed);
        let acts = rng.normal_matrix((4 * ct).max(8), h, 0.0, 1.0);
        let weight = rng.normal_matrix(h, f, 0.0, 0.5);
        let pq = ProductQuantizer::fit(&acts, v, ct, 12, &mut rng).unwrap();
        let lut = LutTable::build(&pq, &weight).unwrap();
        let x = rng.normal_matrix(n, h, 0.0, 1.0);
        (pq, lut, x)
    }

    #[test]
    fn interleaved_encode_bit_identical_for_all_v() {
        // Cover every specialized kernel plus the generic fallback (v=3).
        for (v, h) in [(1, 6), (2, 8), (3, 9), (4, 8), (8, 16), (16, 32)] {
            let mut rng = DataRng::new(7 + v as u64);
            let acts = rng.normal_matrix(64, h, 0.0, 1.0);
            let pq = ProductQuantizer::fit(&acts, v, 8, 10, &mut rng).unwrap();
            let x = rng.normal_matrix(19, h, 0.0, 1.0);
            let cbs = pq.interleaved();
            assert_eq!(cbs.encode(&x).unwrap(), pq.encode(&x).unwrap(), "v={v}");
        }
    }

    #[test]
    fn encode_parallel_matches_serial() {
        let (pq, _, x) = setup(1, 37, 12, 8, 3, 8);
        let cbs = pq.interleaved();
        let serial = cbs.encode(&x).unwrap();
        for threads in [1, 2, 7, 64] {
            assert_eq!(cbs.encode_parallel(&x, threads).unwrap(), serial);
        }
        assert!(cbs.encode_parallel(&x, 0).is_err());
        let empty = Matrix::zeros(0, 12);
        assert_eq!(cbs.encode_parallel(&empty, 3).unwrap().rows(), 0);
    }

    #[test]
    fn fused_bit_identical_to_reference() {
        let (pq, lut, x) = setup(2, 53, 16, 37, 4, 16);
        let cbs = pq.interleaved();
        let reference = lut_linear(&x, &pq, &lut).unwrap();
        assert_eq!(lut_linear_fused(&x, &cbs, &lut).unwrap(), reference);
    }

    #[test]
    fn fused_quant_bit_identical_to_reference() {
        let (pq, lut, x) = setup(3, 41, 16, 29, 2, 16);
        let cbs = pq.interleaved();
        let qlut = lut.quantize();
        let reference = qlut.lookup(&pq.encode(&x).unwrap()).unwrap();
        assert_eq!(lut_linear_fused_quant(&x, &cbs, &qlut).unwrap(), reference);
        for threads in [1, 2, 7, 64] {
            assert_eq!(
                lut_linear_fused_quant_parallel(&x, &cbs, &qlut, threads).unwrap(),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn any_tiling_is_bit_identical() {
        let (pq, lut, x) = setup(8, 61, 16, 43, 4, 16);
        let cbs = pq.interleaved();
        let qlut = lut.quantize();
        let reference = lut_linear_fused(&x, &cbs, &lut).unwrap();
        let qreference = lut_linear_fused_quant(&x, &cbs, &qlut).unwrap();
        for (row_tile, f_tile) in [(1, 1), (3, 5), (17, 8), (61, 43), (256, 768), (1024, 1024)] {
            let tiling = FusedTiling { row_tile, f_tile };
            assert_eq!(
                lut_linear_fused_tiled(&x, &cbs, &lut, tiling).unwrap(),
                reference,
                "{tiling:?}"
            );
            assert_eq!(
                lut_linear_fused_quant_tiled(&x, &cbs, &qlut, tiling).unwrap(),
                qreference,
                "{tiling:?}"
            );
        }
        // Degenerate tilings are rejected, not looped on forever.
        let zero = FusedTiling {
            row_tile: 0,
            f_tile: 16,
        };
        assert!(zero.validate().is_err());
        assert!(lut_linear_fused_tiled(&x, &cbs, &lut, zero).is_err());
        let zero_f = FusedTiling {
            row_tile: 16,
            f_tile: 0,
        };
        assert!(lut_linear_fused_quant_tiled(&x, &cbs, &qlut, zero_f).is_err());
        assert_eq!(FusedTiling::default().row_tile, FUSED_ROW_TILE);
        assert_eq!(FusedTiling::default().f_tile, FUSED_F_TILE);
    }

    #[test]
    fn oversized_tiling_is_one_tile() {
        // Any positive tile is legal, so scratch must follow the rows and
        // features present: sized from the request, the first tiling below
        // asks the allocator for terabytes and aborts the process.
        let (pq, lut, x) = setup(11, 3, 16, 21, 4, 16);
        let cbs = pq.interleaved();
        let qlut = lut.quantize();
        let reference = lut_linear_fused(&x, &cbs, &lut).unwrap();
        let qreference = lut_linear_fused_quant(&x, &cbs, &qlut).unwrap();
        for (row_tile, f_tile) in [(1 << 40, 8), (usize::MAX, usize::MAX)] {
            let tiling = FusedTiling { row_tile, f_tile };
            assert_eq!(
                lut_linear_fused_tiled(&x, &cbs, &lut, tiling).unwrap(),
                reference,
                "{tiling:?}"
            );
            assert_eq!(
                lut_linear_fused_quant_tiled(&x, &cbs, &qlut, tiling).unwrap(),
                qreference,
                "{tiling:?}"
            );
        }
    }

    #[test]
    fn portable_bodies_match_dispatchers() {
        // Each dispatcher takes its AVX2 clone where the CPU has it; the
        // portable body must produce the same bits on the same operands.
        // CCS: CB = 11 is one full lane block + a 3-lane tail, under a
        // monomorphized V (4) and the runtime-V arm (3).
        for v in [4, 3] {
            let (pq, _, x) = setup(12 + v as u64, 5, 11 * v, 8, v, 16);
            let cbs = pq.interleaved();
            let mut dispatched = vec![0u16; 5 * 11];
            cbs.encode_rows_into(&x, 0, &mut dispatched);
            let mut portable = vec![0u16; 5 * 11];
            cbs.encode_rows_body(&x, 0, &mut portable);
            assert_eq!(dispatched, portable, "v={v}");
            assert_eq!(dispatched, pq.encode(&x).unwrap().as_slice(), "v={v}");
        }

        // The f32 gather: 5 rows, CB = 131, F = 37 (vector tails at every
        // width), gathering the feature block [3, 37).
        let (rows, cb, ct, f, j0) = (5usize, 131usize, 4usize, 37usize, 3usize);
        let mut rng = DataRng::new(14);
        let tile: Vec<u16> = (0..rows * cb).map(|_| rng.index(ct) as u16).collect();
        let table = rng.normal_matrix(cb * ct, f, 0.0, 1.0);
        let mut dispatched = vec![0.0f32; rows * f];
        gather_block_f32(
            &mut dispatched,
            f,
            (0, rows),
            (j0, f),
            table.as_slice(),
            (cb, ct),
            &tile,
        );
        let mut portable = vec![0.0f32; rows * f];
        gather_block_f32_body(
            &mut portable,
            f,
            (0, rows),
            (j0, f),
            table.as_slice(),
            (cb, ct),
            &tile,
        );
        assert_eq!(dispatched, portable);
    }

    #[test]
    fn fused_handles_degenerate_shapes() {
        // n = 0 rows.
        let (pq, lut, _) = setup(4, 4, 8, 6, 2, 4);
        let cbs = pq.interleaved();
        let empty = Matrix::zeros(0, 8);
        assert_eq!(
            lut_linear_fused(&empty, &cbs, &lut).unwrap().shape(),
            (0, 6)
        );
        // CT = 1: every index is 0.
        let centroids = Matrix::from_vec(2, 1, vec![0.5, -0.5]).unwrap();
        let pq1 = ProductQuantizer::from_centroids(centroids, 1, 1).unwrap();
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let lut1 = LutTable::build(&pq1, &w).unwrap();
        let cbs1 = pq1.interleaved();
        let x1 = Matrix::from_vec(2, 2, vec![9.0, -9.0, 0.0, 0.0]).unwrap();
        let reference = lut_linear(&x1, &pq1, &lut1).unwrap();
        assert_eq!(lut_linear_fused(&x1, &cbs1, &lut1).unwrap(), reference);
    }

    #[test]
    fn fused_rejects_mismatched_shapes() {
        let (pq, lut, x) = setup(5, 8, 8, 6, 2, 4);
        let cbs = pq.interleaved();
        let bad_x = Matrix::zeros(2, 6);
        assert!(lut_linear_fused(&bad_x, &cbs, &lut).is_err());
        let (other_pq, _, _) = setup(6, 8, 8, 6, 2, 8); // different CT
        assert!(lut_linear_fused(&x, &other_pq.interleaved(), &lut).is_err());
        let qlut = lut.quantize();
        assert!(lut_linear_fused_quant(&bad_x, &cbs, &qlut).is_err());
        assert!(lut_linear_fused_quant_parallel(&x, &cbs, &qlut, 0).is_err());
    }

    #[test]
    fn checksum_rejects_bad_indices_without_gathering() {
        let (pq, lut, x) = setup(10, 3, 8, 6, 2, 4);
        let qlut = lut.quantize();
        let idx = pq.encode(&x).unwrap();
        let good = idx.as_slice();
        assert!(lut_checksum_quant(3, good, &qlut).is_ok());
        // Wrong count (a row short, a row long, a wrong `n`), an index equal
        // to CT, and an empty slice: all `Config`, none panics.
        let mut at_ct = good.to_vec();
        at_ct[5] = qlut.ct() as u16;
        for (n, bad) in [
            (3, &good[..good.len() - qlut.cb()]),
            (2, good),
            (3, &good[1..]),
            (3, &at_ct[..]),
            (3, &[][..]),
        ] {
            let err = lut_checksum_quant(n, bad, &qlut).unwrap_err();
            assert!(matches!(err, LutError::Config { .. }), "{err}");
        }
        // Zero rows is a shape, not an error: the empty sum.
        assert_eq!(
            lut_checksum_quant(0, &[], &qlut).unwrap().to_bits(),
            std::iter::empty::<f64>().sum::<f64>().to_bits()
        );
    }

    #[test]
    fn assign_nearest_matches_scalar_argmin() {
        let mut rng = DataRng::new(9);
        let points = rng.normal_matrix(100, 5, 0.0, 1.0);
        let centroids = rng.normal_matrix(7, 5, 0.0, 1.0);
        let mut out = vec![(0usize, 0.0f32); 100];
        assign_nearest(&points, &centroids, &mut out);
        for (i, &(best, d)) in out.iter().enumerate() {
            let mut exp_best = 0;
            let mut exp_d = f32::INFINITY;
            for c in 0..7 {
                let dc = crate::kmeans::sq_dist(points.row(i), centroids.row(c));
                if dc < exp_d {
                    exp_d = dc;
                    exp_best = c;
                }
            }
            assert_eq!(best, exp_best, "row {i}");
            assert_eq!(d.to_bits(), exp_d.to_bits(), "row {i}");
        }
        // Empty point set is a no-op.
        assign_nearest(&Matrix::zeros(0, 5), &centroids, &mut []);
    }

    #[test]
    fn tie_breaks_pick_first_centroid() {
        // Two identical centroids: index 0 must always win, as in the
        // reference scalar path.
        let centroids = Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let pq = ProductQuantizer::from_centroids(centroids, 2, 2).unwrap();
        let cbs = pq.interleaved();
        let x = Matrix::from_vec(3, 2, vec![1.0, 1.0, 0.0, 0.0, -5.0, 2.0]).unwrap();
        let idx = cbs.encode(&x).unwrap();
        assert!(idx.as_slice().iter().all(|&k| k == 0));
        assert_eq!(idx, pq.encode(&x).unwrap());
    }
}
