use serde::{DeError, Deserialize, Serialize, Value};

use crate::{Result, TensorError};

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the single tensor type used throughout the PIM-DL
/// reproduction. Activations (`N x H`), weights (`F x H` or `H x F`),
/// codebooks, and look-up tables are all represented as matrices (higher-rank
/// tensors are flattened into their leading dimensions, exactly as the paper
/// does when it reshapes a batch of sequences into an `N x H` activation
/// matrix).
///
/// # Example
///
/// ```rust
/// use pimdl_tensor::Matrix;
///
/// let m = Matrix::from_fn(2, 2, |r, c| (r + c) as f32);
/// assert_eq!(m.get(1, 1), 2.0);
/// assert_eq!(m.row(1), &[1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Example
    ///
    /// ```rust
    /// # use pimdl_tensor::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert!(z.iter().all(|&v| v == 0.0));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix with every element set to `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a row-major `Vec`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(TensorError::InvalidDimension {
                op: "Matrix::from_vec",
                detail: format!("data length {} does not fit {rows}x{cols}", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the rows have unequal
    /// lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n_cols {
                return Err(TensorError::InvalidDimension {
                    op: "Matrix::from_rows",
                    detail: format!("row {i} has length {}, expected {n_cols}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: n_rows,
            cols: n_cols,
            data,
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

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f32 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Views the whole matrix as a flat row-major slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Views the whole matrix as a flat mutable row-major slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutably iterates over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Extracts the sub-matrix `rows[r0..r0+h) x cols[c0..c0+w)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the window exceeds the
    /// matrix bounds.
    pub fn submatrix(&self, r0: usize, c0: usize, h: usize, w: usize) -> Result<Matrix> {
        if r0 + h > self.rows || c0 + w > self.cols {
            return Err(TensorError::InvalidDimension {
                op: "Matrix::submatrix",
                detail: format!(
                    "window ({r0}+{h}, {c0}+{w}) exceeds shape {}x{}",
                    self.rows, self.cols
                ),
            });
        }
        let mut out = Matrix::zeros(h, w);
        for r in 0..h {
            out.row_mut(r)
                .copy_from_slice(&self.row(r0 + r)[c0..c0 + w]);
        }
        Ok(out)
    }

    /// Writes `block` into this matrix starting at `(r0, c0)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the block does not fit.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) -> Result<()> {
        if r0 + block.rows > self.rows || c0 + block.cols > self.cols {
            return Err(TensorError::InvalidDimension {
                op: "Matrix::set_submatrix",
                detail: format!(
                    "block {}x{} at ({r0}, {c0}) exceeds shape {}x{}",
                    block.rows, block.cols, self.rows, self.cols
                ),
            });
        }
        for r in 0..block.rows {
            self.row_mut(r0 + r)[c0..c0 + block.cols].copy_from_slice(block.row(r));
        }
        Ok(())
    }

    /// Element-wise sum with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        let mut out = self.clone();
        for v in out.data.iter_mut() {
            *v *= s;
        }
        out
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements. Returns `0.0` for an empty matrix.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared Frobenius norm, `sum(x_ij^2)`.
    ///
    /// This is the `||A W - Â W||²` building block of the eLUT-NN
    /// reconstruction loss (Eq. 1 of the paper).
    pub fn frobenius_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Maximum absolute element value (`0.0` for an empty matrix).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0_f32, |m, v| m.max(v.abs()))
    }

    /// Returns `true` if every pairwise element difference is at most `tol`.
    ///
    /// Shapes must match for the result to be `true`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Concatenates matrices vertically (stacking rows).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if column counts differ, or
    /// [`TensorError::InvalidDimension`] if `parts` is empty.
    pub fn vcat(parts: &[&Matrix]) -> Result<Matrix> {
        let first = parts.first().ok_or(TensorError::InvalidDimension {
            op: "Matrix::vcat",
            detail: "empty part list".to_string(),
        })?;
        let cols = first.cols;
        let rows = parts.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for part in parts {
            if part.cols != cols {
                return Err(TensorError::ShapeMismatch {
                    op: "vcat",
                    lhs: (first.rows, cols),
                    rhs: part.shape(),
                });
            }
            data.extend_from_slice(&part.data);
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Concatenates matrices horizontally (joining columns).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if row counts differ, or
    /// [`TensorError::InvalidDimension`] if `parts` is empty.
    pub fn hcat(parts: &[&Matrix]) -> Result<Matrix> {
        let first = parts.first().ok_or(TensorError::InvalidDimension {
            op: "Matrix::hcat",
            detail: "empty part list".to_string(),
        })?;
        let rows = first.rows;
        let cols = parts.iter().map(|m| m.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        let mut c0 = 0;
        for part in parts {
            if part.rows != rows {
                return Err(TensorError::ShapeMismatch {
                    op: "hcat",
                    lhs: (rows, first.cols),
                    rhs: part.shape(),
                });
            }
            out.set_submatrix(0, c0, part)?;
            c0 += part.cols;
        }
        Ok(out)
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

/// Field `name` of a serialized `owner`.
pub(crate) fn de_field<'v>(
    v: &'v Value,
    owner: &str,
    name: &str,
) -> std::result::Result<&'v Value, DeError> {
    v.get(name)
        .ok_or_else(|| DeError::new(format!("missing field {name} for {owner}")))
}

/// Deserializes through [`Matrix::from_vec`], so a shape that disagrees
/// with the data is an error, not a later out-of-bounds panic.
impl Deserialize for Matrix {
    fn serde_from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let field = |name| de_field(v, "Matrix", name);
        Matrix::from_vec(
            usize::serde_from_value(field("rows")?)?,
            usize::serde_from_value(field("cols")?)?,
            Vec::serde_from_value(field("data")?)?,
        )
        .map_err(|e| DeError::new(e.to_string()))
    }
}

impl std::fmt::Display for Matrix {
    /// Shows the shape and the leading elements: small matrices print in
    /// full; larger ones are truncated with an ellipsis.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        const MAX: usize = 6;
        for r in 0..self.rows.min(MAX) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(MAX) {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(r, c))?;
            }
            if self.cols > MAX {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > MAX {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl<'a> IntoIterator for &'a Matrix {
    type Item = &'a f32;
    type IntoIter = std::slice::Iter<'a, f32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(!m.is_empty());
        assert!(m.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn eye_diagonal() {
        let m = Matrix::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimension { .. }));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimension { .. }));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 5.0);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), m.get(1, 2));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn submatrix_extract_and_write() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32);
        let sub = m.submatrix(1, 2, 2, 2).unwrap();
        assert_eq!(sub.row(0), &[6.0, 7.0]);
        assert_eq!(sub.row(1), &[10.0, 11.0]);

        let mut z = Matrix::zeros(4, 4);
        z.set_submatrix(1, 2, &sub).unwrap();
        assert_eq!(z.get(1, 2), 6.0);
        assert_eq!(z.get(2, 3), 11.0);
        assert_eq!(z.get(0, 0), 0.0);
    }

    #[test]
    fn submatrix_out_of_bounds() {
        let m = Matrix::zeros(2, 2);
        assert!(m.submatrix(1, 1, 2, 1).is_err());
        let mut m2 = Matrix::zeros(2, 2);
        assert!(m2.set_submatrix(1, 1, &Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().row(0), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().row(0), &[3.0, 3.0, 3.0]);
        assert_eq!(a.hadamard(&b).unwrap().row(0), &[4.0, 10.0, 18.0]);
        assert_eq!(a.scale(2.0).row(0), &[2.0, 4.0, 6.0]);
        let mut c = a.clone();
        c.add_assign(&b).unwrap();
        assert_eq!(c.row(0), &[5.0, 7.0, 9.0]);
    }

    #[test]
    fn arithmetic_shape_mismatch() {
        let a = Matrix::zeros(1, 3);
        let b = Matrix::zeros(3, 1);
        assert!(a.add(&b).is_err());
        assert!(a.sub(&b).is_err());
        assert!(a.hadamard(&b).is_err());
        let mut c = a.clone();
        assert!(c.add_assign(&b).is_err());
    }

    #[test]
    fn reductions() {
        let m = Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]).unwrap();
        assert_eq!(m.sum(), -2.0);
        assert_eq!(m.mean(), -0.5);
        assert_eq!(m.frobenius_sq(), 1.0 + 4.0 + 9.0 + 16.0);
        assert_eq!(m.max_abs(), 4.0);
    }

    #[test]
    fn empty_matrix_reductions() {
        let m = Matrix::zeros(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.max_abs(), 0.0);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::full(2, 2, 1.0);
        let b = Matrix::full(2, 2, 1.0005);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-4));
        assert!(!a.approx_eq(&Matrix::full(2, 3, 1.0), 1.0));
    }

    #[test]
    fn vcat_hcat() {
        let a = Matrix::full(1, 2, 1.0);
        let b = Matrix::full(2, 2, 2.0);
        let v = Matrix::vcat(&[&a, &b]).unwrap();
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.get(0, 0), 1.0);
        assert_eq!(v.get(2, 1), 2.0);

        let c = Matrix::full(1, 3, 3.0);
        let h = Matrix::hcat(&[&a, &c]).unwrap();
        assert_eq!(h.shape(), (1, 5));
        assert_eq!(h.get(0, 1), 1.0);
        assert_eq!(h.get(0, 4), 3.0);
    }

    #[test]
    fn vcat_hcat_errors() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(1, 3);
        assert!(Matrix::vcat(&[&a, &b]).is_err());
        assert!(Matrix::hcat(&[&a, &Matrix::zeros(2, 2)]).is_err());
        assert!(Matrix::vcat(&[]).is_err());
        assert!(Matrix::hcat(&[]).is_err());
    }

    #[test]
    fn map_applies_function() {
        let m = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.map(|v| v * v).row(0), &[1.0, 4.0, 9.0]);
    }

    #[test]
    fn display_truncates_large_matrices() {
        let small = Matrix::eye(2);
        let text = small.to_string();
        assert!(text.contains("Matrix 2x2"));
        assert!(text.contains("1.0000"));
        assert!(!text.contains("..."));

        let big = Matrix::zeros(10, 10);
        let text = big.to_string();
        assert!(text.contains("Matrix 10x10"));
        assert!(text.contains("..."));
    }

    #[test]
    fn into_iterator_ref() {
        let m = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let total: f32 = (&m).into_iter().sum();
        assert_eq!(total, 6.0);
    }
}
