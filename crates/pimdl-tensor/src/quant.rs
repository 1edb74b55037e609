//! Symmetric INT8 quantization.
//!
//! The paper quantizes all look-up tables to INT8 before placing them in PIM
//! local memory ("we conduct INT8 quantization on the LUTs, which reports
//! ≤ 0.1 % accuracy drop", §6.3). [`QuantMatrix`] is the storage format the
//! simulator transfers and the PEs gather from; accumulation happens in i32
//! and is dequantized once per output element, mirroring the UPMEM kernel.
//!
//! [`lut_gather`] is that accumulation, written once: the simulated
//! PEs (`pimdl_sim::exec`) and the host kernels (`pimdl_lutnn::kernels`)
//! both call it and each applies its own `acc as f32 * scale`. Entries are
//! summed eight codebooks per pass into an i16 tile, in runs short enough
//! that no i16 can wrap ([`MAX_CB`] bounds the i32 sum), each run widened
//! into the i32 tile; integer sums are exact, so staging changes no bit.
//! Each entry slice is bounds-checked once per fixed-width block of codes,
//! and one body is compiled three ways, picked at run time: AVX-512BW,
//! AVX2, portable.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::matrix::de_field;
use crate::{Matrix, Result, TensorError};

/// A symmetrically quantized INT8 matrix with a single `f32` scale.
///
/// `value ≈ code as f32 * scale`, with codes clamped to `[-127, 127]`
/// (symmetric, no zero-point).
///
/// # Example
///
/// ```rust
/// use pimdl_tensor::{Matrix, quant::QuantMatrix};
///
/// let m = Matrix::from_vec(1, 3, vec![-1.0, 0.5, 1.0])?;
/// let q = QuantMatrix::quantize(&m);
/// let back = q.dequantize();
/// assert!(back.approx_eq(&m, 0.01));
/// # Ok::<(), pimdl_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    scale: f32,
    codes: Vec<i8>,
}

/// Deserializes through [`QuantMatrix::from_codes`], so a shape that
/// disagrees with the codes (or a bad scale) is an error.
impl Deserialize for QuantMatrix {
    fn serde_from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let field = |name| de_field(v, "QuantMatrix", name);
        QuantMatrix::from_codes(
            usize::serde_from_value(field("rows")?)?,
            usize::serde_from_value(field("cols")?)?,
            f32::serde_from_value(field("scale")?)?,
            Vec::serde_from_value(field("codes")?)?,
        )
        .map_err(|e| DeError::new(e.to_string()))
    }
}

impl QuantMatrix {
    /// Quantizes an `f32` matrix with a scale chosen from its max-abs value.
    ///
    /// An all-zero (or empty) matrix quantizes with scale `1.0`.
    pub fn quantize(m: &Matrix) -> Self {
        let max_abs = m.max_abs();
        let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
        Self::quantize_with_scale(m, scale)
    }

    /// Quantizes with an explicit positive scale.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0` or is not finite.
    pub fn quantize_with_scale(m: &Matrix, scale: f32) -> Self {
        assert!(
            scale > 0.0 && scale.is_finite(),
            "scale must be positive and finite"
        );
        let codes = m
            .iter()
            .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
            .collect();
        QuantMatrix {
            rows: m.rows(),
            cols: m.cols(),
            scale,
            codes,
        }
    }

    /// Builds a quantized matrix from pre-computed codes.
    ///
    /// This is the constructor for tables whose INT8 codes come from an
    /// external source (e.g. a serving checkpoint) rather than from
    /// quantizing an `f32` matrix in-process.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `codes.len() != rows *
    /// cols` or if `scale` is not positive and finite.
    pub fn from_codes(rows: usize, cols: usize, scale: f32, codes: Vec<i8>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(codes.len()) {
            return Err(TensorError::InvalidDimension {
                op: "QuantMatrix::from_codes",
                detail: format!(
                    "code buffer length {} does not match shape {rows}x{cols}",
                    codes.len()
                ),
            });
        }
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(TensorError::InvalidDimension {
                op: "QuantMatrix::from_codes",
                detail: format!("scale must be positive and finite, got {scale}"),
            });
        }
        Ok(QuantMatrix {
            rows,
            cols,
            scale,
            codes,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The dequantization scale.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Raw INT8 code at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn code(&self, row: usize, col: usize) -> i8 {
        debug_assert!(row < self.rows && col < self.cols);
        self.codes[row * self.cols + col]
    }

    /// All codes in row-major order.
    pub fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// Dequantized value at `(row, col)`.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> f32 {
        self.code(row, col) as f32 * self.scale
    }

    /// Reconstructs the full `f32` matrix.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| self.value(r, c))
    }

    /// Storage footprint in bytes (codes only; the scale is amortized).
    pub fn size_bytes(&self) -> usize {
        self.codes.len()
    }

    /// Root-mean-square quantization error against the original.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `original` has a different
    /// shape.
    pub fn rms_error(&self, original: &Matrix) -> Result<f32> {
        if original.shape() != self.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "rms_error",
                lhs: original.shape(),
                rhs: self.shape(),
            });
        }
        if self.codes.is_empty() {
            return Ok(0.0);
        }
        let diff = self.dequantize().sub(original)?;
        Ok((diff.frobenius_sq() / self.codes.len() as f32).sqrt())
    }
}

/// Largest codebook count `CB` whose worst-case sum (`CB` INT8 entries of
/// magnitude 128) still fits the i32 accumulator of [`lut_gather`].
pub const MAX_CB: usize = (i32::MAX / 128) as usize;

/// Codebooks summed per pass, so each i16 accumulator is loaded and stored
/// once per eight table entries: eight i8 codes sum to at most
/// `8 · 128 = 1024` in magnitude, well inside an i16.
const GATHER_UNROLL: usize = 8;

/// Most codebooks one i16 accumulator run may sum before it is widened into
/// the i32 tile: `128 · |-128| = 16 384 < 2^15`, so no run can wrap whatever
/// the codes are ([`QuantMatrix::from_codes`] admits -128). A multiple of
/// [`GATHER_UNROLL`], so only a table's last run has a ragged tail.
const I16_RUN: usize = 128;

/// Table entries one bounds check covers: every entry slice is summed in
/// fixed `[i8; GATHER_CHUNK]` blocks — one 64-byte vector of codes, a zmm
/// register under AVX-512BW and two ymm under AVX2.
const GATHER_CHUNK: usize = 64;

/// The block width a row's last `jb % GATHER_CHUNK` entries are summed in
/// before a scalar tail: one 128-bit vector of codes, so narrow tiles
/// (e.g. `F = 32`) stay vectorized.
const GATHER_CHUNK_TAIL: usize = 16;

/// The INT8 LUT gather: overwrites `acc` (`rows × jb`, row-major, one row
/// per `CB`-wide row of `idx_tile`) with the exact i32 sums of every
/// codebook's selected entry slice `[j0, j0 + jb)` of the row-major
/// `(CB·CT) × F` table `codes`. `stage` is i16 scratch of `acc`'s length.
///
/// Entries are accumulated `GATHER_UNROLL` codebooks per pass into the
/// i16 `stage` tile — twice the lanes of an i32 add per vector op — in runs
/// of at most `I16_RUN` codebooks, each finished run widened into `acc`.
/// Integer addition is associative and no partial sum leaves its type's
/// range while `CB ≤` [`MAX_CB`], so the result is exact by construction.
/// Codebooks stay outermost and rows inner, which keeps a pass's table
/// slices L1-resident across the row tile. Dispatches to an AVX-512BW
/// clone, else an AVX2 clone, when the CPU has one.
///
/// # Panics
///
/// Panics if `acc` and `stage` differ in length or an index selects an
/// entry past the end of `codes`; callers validate shapes and indices first.
pub fn lut_gather(
    acc: &mut [i32],
    stage: &mut [i16],
    codes: &[i8],
    shape: (usize, usize, usize),
    cols: (usize, usize),
    idx_tile: &[u16],
) {
    lut_gather_on(
        GatherArm::detect(),
        acc,
        stage,
        codes,
        shape,
        cols,
        idx_tile,
    );
}

/// The compiled forms of [`lut_gather_body`].
#[derive(Debug, Clone, Copy)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
enum GatherArm {
    Avx512bw,
    Avx2,
    Portable,
}

impl GatherArm {
    /// The widest arm this CPU supports.
    fn detect() -> GatherArm {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512bw") {
                return GatherArm::Avx512bw;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return GatherArm::Avx2;
            }
        }
        GatherArm::Portable
    }
}

/// Runs the gather on `arm`, or on the portable body if this CPU lacks
/// it: [`lut_gather`] asks for the detected arm, the tests for each arm.
#[inline]
fn lut_gather_on(
    arm: GatherArm,
    acc: &mut [i32],
    stage: &mut [i16],
    codes: &[i8],
    shape: (usize, usize, usize),
    cols: (usize, usize),
    idx_tile: &[u16],
) {
    match arm {
        #[cfg(target_arch = "x86_64")]
        GatherArm::Avx512bw if std::arch::is_x86_feature_detected!("avx512bw") => {
            // SAFETY: feature presence checked at runtime.
            unsafe { lut_gather_avx512(acc, stage, codes, shape, cols, idx_tile) }
        }
        #[cfg(target_arch = "x86_64")]
        GatherArm::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: feature presence checked at runtime.
            unsafe { lut_gather_avx2(acc, stage, codes, shape, cols, idx_tile) }
        }
        _ => lut_gather_body(acc, stage, codes, shape, cols, idx_tile),
    }
}

/// AVX-512BW-compiled clone of [`lut_gather_body`].
///
/// # Safety
///
/// The body is safe code; `unsafe` comes only from `target_feature`. The
/// caller must verify AVX-512BW support (`is_x86_feature_detected!`)
/// before calling, or the compiled instructions fault on older CPUs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw")]
unsafe fn lut_gather_avx512(
    acc: &mut [i32],
    stage: &mut [i16],
    codes: &[i8],
    shape: (usize, usize, usize),
    cols: (usize, usize),
    idx_tile: &[u16],
) {
    lut_gather_body(acc, stage, codes, shape, cols, idx_tile);
}

/// AVX2-compiled clone of [`lut_gather_body`].
///
/// # Safety
///
/// The body is safe code; `unsafe` comes only from `target_feature`. The
/// caller must verify AVX2 support (`is_x86_feature_detected!`) before
/// calling, or the compiled instructions fault on older CPUs.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn lut_gather_avx2(
    acc: &mut [i32],
    stage: &mut [i16],
    codes: &[i8],
    shape: (usize, usize, usize),
    cols: (usize, usize),
    idx_tile: &[u16],
) {
    lut_gather_body(acc, stage, codes, shape, cols, idx_tile);
}

/// Portable body of [`lut_gather`].
#[inline(always)]
fn lut_gather_body(
    acc: &mut [i32],
    stage: &mut [i16],
    codes: &[i8],
    (cb, ct, f): (usize, usize, usize),
    (j0, jb): (usize, usize),
    idx_tile: &[u16],
) {
    assert_eq!(acc.len(), stage.len());
    let entry = |c: usize, irow: &[u16]| {
        let o = (c * ct + irow[c] as usize) * f + j0;
        &codes[o..o + jb]
    };
    acc.fill(0);
    for run in (0..cb).step_by(I16_RUN) {
        let run_end = (run + I16_RUN).min(cb);
        stage.fill(0);
        let mut c = run;
        while c + GATHER_UNROLL <= run_end {
            for (r, irow) in idx_tile.chunks_exact(cb).enumerate() {
                let e: [&[i8]; GATHER_UNROLL] = std::array::from_fn(|i| entry(c + i, irow));
                add_entries(&mut stage[r * jb..(r + 1) * jb], e);
            }
            c += GATHER_UNROLL;
        }
        while c < run_end {
            for (r, irow) in idx_tile.chunks_exact(cb).enumerate() {
                add_entries(&mut stage[r * jb..(r + 1) * jb], [entry(c, irow)]);
            }
            c += 1;
        }
        for (a, &s) in acc.iter_mut().zip(stage.iter()) {
            *a += s as i32;
        }
    }
}

/// Adds `K` entry slices, each `stage_row.len()` long, into `stage_row`:
/// whole [`GATHER_CHUNK`] blocks, then whole [`GATHER_CHUNK_TAIL`] blocks,
/// each bounds-checked once, then a scalar tail.
#[inline(always)]
fn add_entries<const K: usize>(stage_row: &mut [i16], e: [&[i8]; K]) {
    let n = add_blocks::<GATHER_CHUNK, K>(stage_row, e);
    let n = n + add_blocks::<GATHER_CHUNK_TAIL, K>(
        &mut stage_row[n..],
        std::array::from_fn(|i| &e[i][n..]),
    );
    for (j, s) in stage_row.iter_mut().enumerate().skip(n) {
        *s += e.iter().map(|e| e[j] as i16).sum::<i16>();
    }
}

/// Adds the first `W`-aligned prefix of each entry slice into `stage`'s
/// whole `[i16; W]` blocks; returns the prefix length.
#[inline(always)]
fn add_blocks<const W: usize, const K: usize>(stage: &mut [i16], e: [&[i8]; K]) -> usize {
    let (blocks, _) = stage.as_chunks_mut::<W>();
    let n = blocks.len() * W;
    let eb: [&[[i8; W]]; K] = std::array::from_fn(|i| e[i][..n].as_chunks().0);
    for (b, s) in blocks.iter_mut().enumerate() {
        let e: [&[i8; W]; K] = std::array::from_fn(|i| &eb[i][b]);
        for (l, s) in s.iter_mut().enumerate() {
            *s += e.iter().map(|e| e[l] as i16).sum::<i16>();
        }
    }
    n
}

/// Number of bytes one element of the given datatype occupies.
///
/// This is the datatype vocabulary of the platform configs (FP32 host
/// baselines, FP16 HBM-PIM, BF16 AiM, INT8 LUTs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 32-bit IEEE float.
    F32,
    /// 16-bit IEEE float (HBM-PIM MACs).
    F16,
    /// bfloat16 (AiM MACs).
    Bf16,
    /// Signed 8-bit integer (quantized LUTs, index matrices with CT ≤ 128).
    I8,
    /// Signed 32-bit integer accumulators.
    I32,
}

impl DType {
    /// Size of one element in bytes.
    pub fn size_bytes(self) -> usize {
        match self {
            DType::F32 | DType::I32 => 4,
            DType::F16 | DType::Bf16 => 2,
            DType::I8 => 1,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DType::F32 => "fp32",
            DType::F16 => "fp16",
            DType::Bf16 => "bf16",
            DType::I8 => "int8",
            DType::I32 => "int32",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DataRng;

    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let m = DataRng::new(1).uniform_matrix(8, 8, -3.0, 3.0);
        let q = QuantMatrix::quantize(&m);
        let back = q.dequantize();
        let half_step = q.scale() / 2.0 + 1e-6;
        for (a, b) in m.iter().zip(back.iter()) {
            assert!((a - b).abs() <= half_step, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_matrix_quantizes_cleanly() {
        let m = Matrix::zeros(3, 3);
        let q = QuantMatrix::quantize(&m);
        assert_eq!(q.scale(), 1.0);
        assert!(q.dequantize().approx_eq(&m, 0.0));
        assert_eq!(q.rms_error(&m).unwrap(), 0.0);
    }

    #[test]
    fn max_value_maps_to_127() {
        let m = Matrix::from_vec(1, 2, vec![2.54, -2.54]).unwrap();
        let q = QuantMatrix::quantize(&m);
        assert_eq!(q.code(0, 0), 127);
        assert_eq!(q.code(0, 1), -127);
    }

    #[test]
    fn explicit_scale_clamps() {
        let m = Matrix::from_vec(1, 2, vec![1000.0, -1000.0]).unwrap();
        let q = QuantMatrix::quantize_with_scale(&m, 1.0);
        assert_eq!(q.code(0, 0), 127);
        assert_eq!(q.code(0, 1), -127);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn bad_scale_panics() {
        let m = Matrix::zeros(1, 1);
        let _ = QuantMatrix::quantize_with_scale(&m, 0.0);
    }

    #[test]
    fn rms_error_small_for_smooth_data() {
        let m = DataRng::new(2).normal_matrix(16, 16, 0.0, 1.0);
        let q = QuantMatrix::quantize(&m);
        let rms = q.rms_error(&m).unwrap();
        // For data in roughly [-4, 4], scale ≈ 4/127 ⇒ RMS ≲ scale.
        assert!(rms < q.scale(), "rms={rms} scale={}", q.scale());
    }

    #[test]
    fn rms_error_shape_mismatch() {
        let m = Matrix::zeros(2, 2);
        let q = QuantMatrix::quantize(&m);
        assert!(q.rms_error(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn size_bytes_is_element_count() {
        let q = QuantMatrix::quantize(&Matrix::zeros(4, 5));
        assert_eq!(q.size_bytes(), 20);
    }

    #[test]
    fn lut_gather_matches_portable_body_and_scalar_oracle() {
        // Every arm this CPU can run (AVX-512BW, AVX2, portable), called
        // directly, against a scalar i32 sum. CB straddles the 8-codebook
        // pass (7, 8, 9) and the 128-codebook i16 run (127-129, 257); the
        // widths straddle both block sizes (1, 15-17, 37, 63-65), and the
        // block starts at and off the row's first entry, so F is off every
        // vector width. Saturated codes drive each partial sum to its
        // extreme, so in a debug build an i16 wrap panics here.
        #[cfg(target_arch = "x86_64")]
        eprintln!(
            "gather arms: avx512bw {}, avx2 {}",
            std::arch::is_x86_feature_detected!("avx512bw"),
            std::arch::is_x86_feature_detected!("avx2")
        );
        let (rows, ct) = (5usize, 4usize);
        let mut rng = DataRng::new(14);
        for cb in [7usize, 8, 9, 127, 128, 129, 257] {
            let idx: Vec<u16> = (0..rows * cb).map(|_| rng.index(ct) as u16).collect();
            for (j0, jb) in [1, 15, 16, 17, 37, 63, 64, 65].map(|jb| (jb % 3, jb)) {
                let f = j0 + jb + 2;
                let len = cb * ct * f;
                let fills: [Vec<i8>; 4] = [
                    vec![127; len],
                    vec![-128; len],
                    (0..len)
                        .map(|i| if i % 2 == 0 { 127 } else { -128 })
                        .collect(),
                    (0..len)
                        .map(|_| (rng.index(256) as i32 - 128) as i8)
                        .collect(),
                ];
                for codes in &fills {
                    let want: Vec<i32> = idx
                        .chunks_exact(cb)
                        .flat_map(|irow| {
                            (0..jb).map(move |j| {
                                (0..cb)
                                    .map(|c| {
                                        i32::from(codes[(c * ct + irow[c] as usize) * f + j0 + j])
                                    })
                                    .sum::<i32>()
                            })
                        })
                        .collect();
                    let shape = (cb, ct, f);
                    let mut stage = vec![7i16; rows * jb];
                    let mut dispatched = vec![7i32; rows * jb];
                    lut_gather(&mut dispatched, &mut stage, codes, shape, (j0, jb), &idx);
                    assert_eq!(dispatched, want, "dispatched cb={cb} jb={jb}");
                    for arm in [GatherArm::Avx512bw, GatherArm::Avx2, GatherArm::Portable] {
                        let mut acc = vec![-7i32; rows * jb];
                        lut_gather_on(arm, &mut acc, &mut stage, codes, shape, (j0, jb), &idx);
                        assert_eq!(acc, want, "{arm:?} cb={cb} jb={jb}");
                    }
                }
            }
        }
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::Bf16.size_bytes(), 2);
        assert_eq!(DType::I8.size_bytes(), 1);
        assert_eq!(DType::I32.size_bytes(), 4);
        assert_eq!(DType::Bf16.to_string(), "bf16");
    }
}
