//! Contiguous row-major `f32` matrices.
//!
//! Only the kernels needed by the estimators are implemented. Shapes are
//! validated with `assert!` (they are programming errors, not runtime inputs),
//! and hot loops index slices so bounds checks vanish after the initial
//! assertion.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// A `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows x cols` matrix filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Builds a matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing buffer; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer does not match {rows}x{cols}"
        );
        Matrix { rows, cols, data }
    }

    /// A `1 x n` row vector.
    pub fn row_vector(data: Vec<f32>) -> Self {
        Matrix {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The row-major buffer, for reuse.
    pub(crate) fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        let start = r * self.cols;
        &self.data[start..start + self.cols]
    }

    /// Rows `rows` as one contiguous slice.
    pub(crate) fn row_range(&self, rows: std::ops::Range<usize>) -> &[f32] {
        &self.data[rows.start * self.cols..rows.end * self.cols]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let start = r * self.cols;
        &mut self.data[start..start + self.cols]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Whether every element is finite (no NaN, no ±∞): one
    /// [`Weights::scan`], the check that makes the sparse zero-skip in
    /// [`Matrix::matmul`] / [`Matrix::t_matmul`] sound. A parameter read
    /// through [`crate::ParamStore::weights`] is scanned once per value
    /// instead of once per call.
    pub fn all_finite(&self) -> bool {
        Weights::scan(self).is_finite()
    }

    /// `self @ other` — the workhorse. i-k-j loop order keeps the inner loop
    /// a contiguous saxpy that LLVM auto-vectorizes.
    ///
    /// Binary inputs are sparse, so `a == 0.0` terms are skipped — but only
    /// after a batch-level finiteness check of `other`: skipping `0 · NaN`
    /// or `0 · ∞` would silently launder a diverged operand into a healthy
    /// zero, so when `other` carries any non-finite value the kernel runs
    /// dense and lets IEEE propagation do its job.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} @ {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let skip_zeros = other.all_finite();
        let mut out = Matrix::zeros(self.rows, other.cols);
        let n = other.cols;
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (k, &a) in a_row.iter().enumerate() {
                if skip_zeros && a == 0.0 {
                    continue; // binary inputs are sparse; skipping zeros is a real win
                }
                let b_row = &other.data[k * n..k * n + n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ @ other` without materializing the transpose. The sparse
    /// zero-skip follows the same finiteness rule as [`Matrix::matmul`].
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let skip_zeros = other.all_finite();
        let mut out = Matrix::zeros(self.cols, other.cols);
        let n = other.cols;
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (k, &a) in a_row.iter().enumerate() {
                if skip_zeros && a == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[k * n..k * n + n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self @ otherᵀ` without materializing the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = other.row(j);
                let mut acc = 0.0;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o = acc;
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise combine with another matrix of identical shape.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty matrices).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Column sums as a `1 x cols` row vector.
    pub fn col_sums(&self) -> Matrix {
        self.col_sums_of(0..self.rows)
    }

    /// Column sums of rows `rows` as a `1 x cols` row vector, each column
    /// summed from `+0.0` in ascending row order.
    pub(crate) fn col_sums_of(&self, rows: std::ops::Range<usize>) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in rows {
            for (o, &v) in out.data.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
        out
    }

    /// Horizontally concatenates matrices with equal row counts.
    pub fn hconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "hconcat of nothing");
        let rows = parts[0].rows;
        assert!(parts.iter().all(|p| p.rows == rows), "hconcat row mismatch");
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut at = 0;
            let out_row = out.row_mut(r);
            for p in parts {
                out_row[at..at + p.cols].copy_from_slice(p.row(r));
                at += p.cols;
            }
        }
        out
    }

    /// Vertically concatenates matrices with equal column counts.
    pub fn vconcat(parts: &[&Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vconcat of nothing");
        let cols = parts[0].cols;
        assert!(parts.iter().all(|p| p.cols == cols), "vconcat col mismatch");
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Copies columns `[start, end)` into a new matrix.
    pub fn slice_cols(&self, start: usize, end: usize) -> Matrix {
        assert!(start <= end && end <= self.cols, "slice_cols out of range");
        let width = end - start;
        let mut out = Matrix::zeros(self.rows, width);
        for r in 0..self.rows {
            out.row_mut(r).copy_from_slice(&self.row(r)[start..end]);
        }
        out
    }

    /// Copies the listed rows into a new matrix (gather).
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i));
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Largest absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// The right operand of the matmul kernels: a borrowed row-major matrix and
/// whether every value in it is finite, which decides the exact zero skip of
/// [`Matrix::matmul_acc_with`].
///
/// The fields are private, so the flag always comes from the values
/// themselves: [`Weights::scan`] reads every value, and
/// [`crate::ParamStore::weights`] reads a flag it scanned once for the
/// parameter's current value and drops on every mutable access.
#[derive(Clone, Copy, Debug)]
pub struct Weights<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    finite: bool,
}

impl<'a> Weights<'a> {
    /// `m` with its finiteness decided by one linear scan.
    // lint: hot-path
    pub fn scan(m: &'a Matrix) -> Weights<'a> {
        Weights {
            data: &m.data,
            rows: m.rows,
            cols: m.cols,
            finite: scan_finite(&m.data),
        }
    }

    /// `m` with its finiteness read from `cache`, which is filled by one scan
    /// on the first read. The caller drops `cache` whenever `m` changes.
    // lint: hot-path
    pub(crate) fn cached(m: &'a Matrix, cache: &OnceLock<bool>) -> Weights<'a> {
        Weights {
            data: &m.data,
            rows: m.rows,
            cols: m.cols,
            finite: *cache.get_or_init(|| scan_finite(&m.data)),
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether every value is finite (no NaN, no ±∞).
    pub fn is_finite(&self) -> bool {
        self.finite
    }

    pub(crate) fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Rows `..k` and rows `k..` as two operands. When the whole is finite
    /// both halves are; otherwise each half is scanned, so the half without
    /// the non-finite value keeps its zero skip. Both flags give the same
    /// bits (see [`Matrix::matmul_acc_with`]).
    pub fn split_rows(self, k: usize) -> (Weights<'a>, Weights<'a>) {
        assert!(k <= self.rows, "split_rows: row {k} of {}", self.rows);
        let (top, bottom) = self.data.split_at(k * self.cols);
        let half = |data: &'a [f32], rows| Weights {
            data,
            rows,
            cols: self.cols,
            finite: self.finite || scan_finite(data),
        };
        (half(top, k), half(bottom, self.rows - k))
    }
}

impl<'a> From<&'a Matrix> for Weights<'a> {
    /// [`Weights::scan`]: a plain matrix is scanned on every conversion.
    fn from(m: &'a Matrix) -> Self {
        Weights::scan(m)
    }
}

/// Whether every value is finite. A branch-free fold over each 256-value
/// chunk vectorizes; the early exit happens between chunks.
pub(crate) fn scan_finite(data: &[f32]) -> bool {
    data.chunks(256)
        .all(|c| c.iter().fold(true, |ok, v| ok & v.is_finite()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_small() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transposed_products_agree_with_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 4, &[0.5; 12]);
        let direct = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        assert!(direct.max_abs_diff(&explicit) < 1e-6);

        let c = m(5, 2, &[0.25; 10]);
        let direct = a.matmul_t(&c);
        let explicit = a.matmul(&c.transpose());
        assert!(direct.max_abs_diff(&explicit) < 1e-6);
    }

    #[test]
    fn hconcat_and_slice_roundtrip() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = m(2, 1, &[9.0, 8.0]);
        let cat = Matrix::hconcat(&[&a, &b]);
        assert_eq!(cat.shape(), (2, 3));
        assert_eq!(cat.row(0), &[1.0, 2.0, 9.0]);
        assert_eq!(cat.slice_cols(0, 2), a);
        assert_eq!(cat.slice_cols(2, 3), b);
    }

    #[test]
    fn vconcat_stacks_rows() {
        let a = m(1, 2, &[1.0, 2.0]);
        let b = m(2, 2, &[3.0, 4.0, 5.0, 6.0]);
        let cat = Matrix::vconcat(&[&a, &b]);
        assert_eq!(cat.shape(), (3, 2));
        assert_eq!(cat.row(2), &[5.0, 6.0]);
    }

    #[test]
    fn col_sums_sum_mean() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.col_sums().as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sum(), 21.0);
        assert!((a.mean() - 3.5).abs() < 1e-6);
    }

    #[test]
    fn gather_rows_picks_rows() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.row(0), &[5.0, 6.0]);
        assert_eq!(g.row(1), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_propagates_nonfinite_through_zero_terms() {
        // A diverged weight matrix must never masquerade as healthy: the
        // sparse skip may not turn 0·NaN / 0·∞ into silent zeros.
        let a = m(1, 2, &[0.0, 1.0]);
        let b = m(2, 2, &[f32::NAN, f32::INFINITY, 2.0, 3.0]);
        let c = a.matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0·NaN + 1·2 must be NaN");
        assert!(c.get(0, 1).is_nan(), "0·∞ + 1·3 must be NaN");
        // Non-finite values on the *left* already propagate (never skipped).
        let a = m(1, 2, &[f32::NAN, 0.0]);
        let b = m(2, 1, &[1.0, 1.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan());
        // All-finite operands keep the fast sparse path and exact values.
        assert!(m(2, 2, &[0.0, 1.0, 2.0, 3.0]).all_finite());
        assert!(!m(1, 2, &[1.0, f32::NEG_INFINITY]).all_finite());
        let a = m(1, 2, &[0.0, 2.0]);
        let b = m(2, 2, &[5.0, 6.0, 7.0, 8.0]);
        assert_eq!(a.matmul(&b).as_slice(), &[14.0, 16.0]);
    }

    #[test]
    fn t_matmul_propagates_nonfinite_through_zero_terms() {
        // aᵀ @ b with a zero in `a` aligned against an ∞ row of `b`.
        let a = m(2, 1, &[0.0, 1.0]);
        let b = m(2, 2, &[f32::INFINITY, 1.0, 2.0, 3.0]);
        let c = a.t_matmul(&b);
        assert!(c.get(0, 0).is_nan(), "0·∞ + 1·2 must be NaN");
        assert_eq!(c.get(0, 1), 3.0); // 0·1 + 1·3 — the finite column is exact
    }

    #[test]
    fn weights_scan_every_chunk_and_split_rows() {
        // 600 values span two whole 256-value chunks and a partial one.
        let clean = Matrix::from_fn(20, 30, |r, c| (r * 30 + c) as f32 * 0.5 - 7.0);
        assert!(Weights::scan(&clean).is_finite());
        for at in [0, 255, 256, 511, 599] {
            let mut m = clean.clone();
            m.as_mut_slice()[at] = f32::NAN;
            let w = Weights::scan(&m);
            assert!(!w.is_finite() && !m.all_finite(), "NaN at {at}");
            // The half that holds the NaN stays non-finite, the other not.
            let (top, bottom) = w.split_rows(9);
            assert_eq!((top.rows(), bottom.rows(), top.cols()), (9, 11, 30));
            assert_eq!(top.is_finite(), at >= 9 * 30, "NaN at {at}");
            assert_eq!(bottom.is_finite(), at < 9 * 30, "NaN at {at}");
        }
        let (top, bottom) = Weights::scan(&clean).split_rows(20);
        assert!(top.is_finite() && bottom.is_finite() && bottom.rows() == 0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = m(1, 3, &[1.0, 1.0, 1.0]);
        let b = m(1, 3, &[1.0, 2.0, 3.0]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.5, 2.0, 2.5]);
    }
}
