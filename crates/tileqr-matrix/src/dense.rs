//! Column-major dense matrices.
//!
//! [`Matrix`] is the storage type manipulated by the sequential kernels and
//! used as the "reference" (untiled) representation in tests, examples and
//! benchmarks. It is deliberately simple: column-major contiguous storage,
//! `O(1)` element access, and the handful of BLAS-3-like helpers the QR
//! factorization and its verification need.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::scalar::Scalar;

/// A dense, column-major `rows × cols` matrix over a [`Scalar`] type.
#[derive(Clone, PartialEq)]
pub struct Matrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![T::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the underlying column-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable view of the underlying column-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Immutable view of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable view of column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Element access without bounds checks beyond the slice's own.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    /// Sets element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// Copies the rectangular block of `src` starting at `(src_i, src_j)` with
    /// size `bi × bj` into `self` at `(dst_i, dst_j)`.
    #[allow(clippy::too_many_arguments)] // mirrors the BLAS block-copy signature
    pub fn copy_block(
        &mut self,
        dst_i: usize,
        dst_j: usize,
        src: &Matrix<T>,
        src_i: usize,
        src_j: usize,
        bi: usize,
        bj: usize,
    ) {
        assert!(
            dst_i + bi <= self.rows && dst_j + bj <= self.cols,
            "destination block out of bounds"
        );
        assert!(
            src_i + bi <= src.rows && src_j + bj <= src.cols,
            "source block out of bounds"
        );
        for j in 0..bj {
            for i in 0..bi {
                let v = src.get(src_i + i, src_j + j);
                self.set(dst_i + i, dst_j + j, v);
            }
        }
    }

    /// Returns the `bi × bj` sub-matrix starting at `(i0, j0)`.
    pub fn sub_matrix(&self, i0: usize, j0: usize, bi: usize, bj: usize) -> Matrix<T> {
        let mut out = Matrix::zeros(bi, bj);
        out.copy_block(0, 0, self, i0, j0, bi, bj);
        out
    }

    /// Conjugate transpose `Aᴴ` (plain transpose for real scalars).
    pub fn conj_transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self.get(j, i).conj())
    }

    /// Matrix product `self · rhs`.
    ///
    /// Straightforward triple loop in `jki` order (column-major friendly);
    /// adequate for verification and the modest tile sizes used by the
    /// library's tests and examples. The performance-critical products inside
    /// the kernels have their own specialized loops in `tileqr-kernels`.
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for j in 0..rhs.cols {
            for k in 0..self.cols {
                let b = rhs.get(k, j);
                if b.is_zero() {
                    continue;
                }
                let a_col = self.col(k);
                let o_col = out.col_mut(j);
                for i in 0..self.rows {
                    o_col[i] += a_col[i] * b;
                }
            }
        }
        out
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.shape(), rhs.shape(), "shapes must agree");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(self.shape(), rhs.shape(), "shapes must agree");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales every entry by `alpha`.
    pub fn scaled(&self, alpha: T) -> Matrix<T> {
        let data = self.data.iter().map(|&a| a * alpha).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// True if every entry strictly below the main diagonal is (exactly) zero.
    pub fn is_upper_triangular(&self) -> bool {
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                if !self.get(i, j).is_zero() {
                    return false;
                }
            }
        }
        true
    }

    /// True if every entry strictly below the main diagonal has modulus at
    /// most `tol` (useful after numerical operations that only zero entries
    /// approximately).
    pub fn is_upper_triangular_within(&self, tol: f64) -> bool
    where
        T: Scalar<Real = f64>,
    {
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                if self.get(i, j).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Sets every entry strictly below the main diagonal to zero.
    pub fn zero_below_diagonal(&mut self) {
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                self.set(i, j, T::ZERO);
            }
        }
    }

    /// True if any entry is NaN.
    pub fn has_nan(&self) -> bool {
        self.data.iter().any(|v| v.is_nan())
    }

    /// Solves the upper-triangular system `R x = b` by back substitution,
    /// where `R` is the leading `n × n` upper-triangular part of `self`.
    ///
    /// Used by the least-squares driver. Panics if a diagonal entry is zero;
    /// [`Matrix::try_solve_upper_triangular`] reports it instead.
    pub fn solve_upper_triangular(&self, b: &[T]) -> Vec<T> {
        self.try_solve_upper_triangular(b)
            .unwrap_or_else(|i| panic!("singular triangular factor (zero diagonal at {i})"))
    }

    /// [`Matrix::solve_upper_triangular`] that reports an exactly zero
    /// diagonal entry as `Err(index)` instead of panicking.
    pub fn try_solve_upper_triangular(&self, b: &[T]) -> Result<Vec<T>, usize> {
        let n = self.cols.min(self.rows);
        assert!(b.len() >= n, "right-hand side too short");
        let mut x = vec![T::ZERO; n];
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in (i + 1)..n {
                s -= self.get(i, j) * x[j];
            }
            let d = self.get(i, i);
            if d.is_zero() {
                return Err(i);
            }
            x[i] = s / d;
        }
        Ok(x)
    }
}

impl<T: Scalar> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[j * self.rows + i]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[j * self.rows + i]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_show = 8;
        for i in 0..self.rows.min(max_show) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(max_show) {
                write!(f, "{:>12} ", self.get(i, j))?;
            }
            if self.cols > max_show {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex64;

    #[test]
    fn zeros_identity_and_indexing() {
        let mut m = Matrix::<f64>::zeros(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        m[(2, 1)] = 5.0;
        assert_eq!(m.get(2, 1), 5.0);
        let id = Matrix::<f64>::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_is_column_major() {
        let m = Matrix::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // column-major layout: (0,0),(1,0),(0,1),(1,1),(0,2),(1,2)
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(m.col(1), &[1.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_col_major_checks_length() {
        let _ = Matrix::<f64>::from_col_major(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        // A = [1 2; 3 4], B = [5 6; 7 8] => AB = [19 22; 43 50]
        let a = Matrix::from_col_major(2, 2, vec![1.0, 3.0, 2.0, 4.0]);
        let b = Matrix::from_col_major(2, 2, vec![5.0, 7.0, 6.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 43.0, 22.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::<f64>::from_fn(4, 3, |i, j| (i + 2 * j) as f64);
        let id = Matrix::<f64>::identity(4);
        assert_eq!(id.matmul(&a), a);
        let id3 = Matrix::<f64>::identity(3);
        assert_eq!(a.matmul(&id3), a);
    }

    #[test]
    fn conj_transpose_real_and_complex() {
        let a = Matrix::<f64>::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        let at = a.conj_transpose();
        assert_eq!(at.shape(), (3, 2));
        assert_eq!(at.get(2, 1), a.get(1, 2));

        let z = Matrix::<Complex64>::from_fn(2, 2, |i, j| Complex64::new(i as f64, j as f64));
        let zh = z.conj_transpose();
        assert_eq!(zh.get(0, 1), Complex64::new(1.0, -0.0));
        assert_eq!(zh.get(1, 0), Complex64::new(0.0, -1.0));
    }

    #[test]
    fn block_copy_and_sub_matrix() {
        let a = Matrix::<f64>::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.sub_matrix(1, 2, 2, 2);
        assert_eq!(s.get(0, 0), a.get(1, 2));
        assert_eq!(s.get(1, 1), a.get(2, 3));
        let mut b = Matrix::<f64>::zeros(4, 4);
        b.copy_block(2, 0, &a, 0, 0, 2, 2);
        assert_eq!(b.get(2, 0), a.get(0, 0));
        assert_eq!(b.get(3, 1), a.get(1, 1));
        assert_eq!(b.get(0, 0), 0.0);
    }

    #[test]
    fn triangular_predicates() {
        let mut r = Matrix::<f64>::from_fn(3, 3, |i, j| if i <= j { 1.0 } else { 0.0 });
        assert!(r.is_upper_triangular());
        r.set(2, 0, 1e-12);
        assert!(!r.is_upper_triangular());
        assert!(r.is_upper_triangular_within(1e-10));
        r.zero_below_diagonal();
        assert!(r.is_upper_triangular());
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::<f64>::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = a.scaled(2.0);
        assert_eq!(b.get(1, 1), 4.0);
        let c = b.sub(&a);
        assert_eq!(c, a);
        let d = a.add(&a);
        assert_eq!(d, b);
    }

    #[test]
    fn upper_triangular_solve() {
        // R = [2 1; 0 3], b = [5, 6] -> x = [ (5 - 1*2)/2, 2 ] = [1.5, 2]
        let r = Matrix::from_col_major(2, 2, vec![2.0, 0.0, 1.0, 3.0]);
        let x = r.solve_upper_triangular(&[5.0, 6.0]);
        assert_eq!(x, vec![1.5, 2.0]);
    }

    #[test]
    fn singular_triangular_solve_reports_the_zero_diagonal() {
        // R = [2 1; 0 0]: the back substitution stops at index 1.
        let r = Matrix::from_col_major(2, 2, vec![2.0, 0.0, 1.0, 0.0]);
        assert_eq!(r.try_solve_upper_triangular(&[5.0, 6.0]), Err(1));
    }

    #[test]
    fn nan_detection() {
        let mut a = Matrix::<f64>::zeros(2, 2);
        assert!(!a.has_nan());
        a.set(1, 0, f64::NAN);
        assert!(a.has_nan());
    }
}
