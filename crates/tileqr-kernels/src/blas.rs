//! The few BLAS-like helpers the tile kernels need beside the micro-BLAS
//! products of [`crate::microblas`].
//!
//! * [`dot_conj`] — the reduction of the factorization kernels' leaf sweep
//!   (one reflector applied to the remaining columns of its own leaf of a
//!   recursive panel) and of a leaf's `T`-factor construction: the Level-2
//!   work left under the block products. On the SIMD levels a TS leaf
//!   reaches it through `reflect` (one reflector's step of the sweep) and
//!   `trmv_upper` (the `T` recurrence), written over the [`crate::simd`]
//!   Level-2 operations (eight dots at once, a full-width update), which
//!   reproduce the generic loops bit for bit.
//! * `copy_rows_window_into` / `sub_rows_window_assign` — the identity
//!   top block of the stacked TS/TT reflectors `[I; V2]`, which moves a
//!   window of pivot rows in and out of the staging panels without a
//!   product.
//! * [`gemm_acc`] — the whole-matrix GEMM the benchmark harnesses use as
//!   the reference series of Figures 4–5.
//!
//! Everything structured about a reflector *application* — unit-lower and
//! upper-trapezoidal `V`, triangular `T` — is expressed at pack time by the
//! block-reflector primitive and costs no code here.

use tileqr_matrix::{Matrix, Scalar};

use crate::simd::{Level2, DOT_PAIRS};

/// Conjugated dot product `aᴴ · b` with four independent accumulators.
///
/// A single-accumulator reduction is latency-bound: every fused
/// multiply-add waits for the previous one. Splitting the sum into four
/// interleaved partial sums exposes instruction-level parallelism (the
/// compiler cannot do this itself because it must preserve the floating-point
/// summation order). The result differs from the sequential sum only by
/// rounding.
///
/// The accumulation order is a contract: element `i` goes to partial sum
/// `i mod 4` (the remainder after the last whole group of four to the
/// first), every product is rounded before it is added, and the result is
/// `(s0 + s1) + (s2 + s3)`. The dispatched f64 path of the factor kernels
/// holds the four partial sums as the lanes of one vector and must
/// reproduce this order bit for bit.
#[inline]
pub fn dot_conj<T: Scalar>(a: &[T], b: &[T]) -> T {
    debug_assert_eq!(a.len(), b.len(), "dot_conj: length mismatch");
    let mut acc0 = T::ZERO;
    let mut acc1 = T::ZERO;
    let mut acc2 = T::ZERO;
    let mut acc3 = T::ZERO;
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (x, y) in (&mut ca).zip(&mut cb) {
        acc0 += x[0].conj() * y[0];
        acc1 += x[1].conj() * y[1];
        acc2 += x[2].conj() * y[2];
        acc3 += x[3].conj() * y[3];
    }
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        acc0 += x.conj() * y;
    }
    (acc0 + acc1) + (acc2 + acc3)
}

/// Applies one reflector `H = I − τ·[1; x]·[1; x]ᴴ`, as `Hᴴ`, to the `ncols`
/// columns of a TS pair — one step of a leaf's sweep. Column `c`'s tail
/// is `cols[c·ld ..][.. x.len()]`, its pivot (the entry the reflector's unit
/// meets) `pivots[c·ld + j]`. Per column: `s = τ̄·(pivot + xᴴ·tail)`,
/// `pivot −= s`, `tail −= x·s`, as the generic sweep does. The columns are
/// independent, so their dots are reduced [`DOT_PAIRS`] at a time before
/// any is updated.
#[allow(clippy::too_many_arguments)] // one reflector: target layout, pivot row, reflector
#[inline(always)]
pub(crate) fn reflect<T: Scalar, L: Level2>(
    cols: &mut [T],
    pivots: &mut [T],
    ld: usize,
    j: usize,
    ncols: usize,
    x: &[T],
    tau_c: T,
) {
    let mut dots = [T::ZERO; DOT_PAIRS];
    for c0 in (0..ncols).step_by(DOT_PAIRS) {
        let n = DOT_PAIRS.min(ncols - c0);
        let tails: [(&[T], &[T]); DOT_PAIRS] =
            std::array::from_fn(|c| (x, &cols[(c0 + c.min(n - 1)) * ld..][..x.len()]));
        L::dots(&tails[..n], &mut dots[..n]);
        for (c, &dot) in (c0..c0 + n).zip(&dots) {
            let pivot = &mut pivots[c * ld + j];
            let s = tau_c * (*pivot + dot);
            *pivot -= s;
            L::axpy(&mut cols[c * ld..][..x.len()], x, s, true);
        }
    }
}

/// `w := T·w` in place for the upper triangular `n × n` `T` stored at `t`
/// with leading dimension `ld` (`n = w.len()`), summed column by column of
/// `T`: entry `i` still adds its terms `T(i, k)·w(k)` in order of `k`, from
/// zero, each product rounded before its sum — the row-by-row sum bit for
/// bit, at full width.
#[inline(always)]
pub(crate) fn trmv_upper<T: Scalar, L: Level2>(t: &[T], ld: usize, w: &mut [T]) {
    for k in 0..w.len() {
        let wk = std::mem::replace(&mut w[k], T::ZERO);
        L::axpy(&mut w[..=k], &t[k * ld..][..=k], wk, false);
    }
}

/// `W(r, j) := C[r0+r, j]` for `r < w`, `j < width`, `C` column-major with
/// leading dimension `ld` — stages the pivot-row window of a TS/TT target
/// (the identity top block of the stacked reflector contributes these rows
/// directly).
pub(crate) fn copy_rows_window_into<T: Scalar>(
    c: &[T],
    ld: usize,
    r0: usize,
    w: usize,
    width: usize,
    wmat: &mut Matrix<T>,
) {
    assert!(
        wmat.rows() >= w && wmat.cols() >= width,
        "staging panel too small"
    );
    for j in 0..width {
        let base = j * ld + r0;
        wmat.col_mut(j)[..w].copy_from_slice(&c[base..base + w]);
    }
}

/// `C[r0+r, j] -= W(r, j)` — the in-place companion of
/// [`copy_rows_window_into`].
pub(crate) fn sub_rows_window_assign<T: Scalar>(
    c: &mut [T],
    ld: usize,
    r0: usize,
    w: usize,
    width: usize,
    wmat: &Matrix<T>,
) {
    assert!(
        wmat.rows() >= w && wmat.cols() >= width,
        "staging panel too small"
    );
    for j in 0..width {
        let base = j * ld + r0;
        for (ci, &wi) in c[base..base + w].iter_mut().zip(&wmat.col(j)[..w]) {
            *ci -= wi;
        }
    }
}

/// General matrix product used by the benchmark harness as the GEMM
/// reference series in Figures 4–5: `C := C + A·B`.
///
/// Routed through the register-tiled [`crate::microblas`] backend; this
/// convenience form allocates its own pack buffers (the kernels call
/// [`crate::microblas::gemm_into`] with workspace-provided scratch instead).
pub fn gemm_acc<T: Scalar>(c: &mut Matrix<T>, a: &Matrix<T>, b: &Matrix<T>) {
    crate::microblas::gemm_matrix(c, crate::microblas::AMode::NoTrans, a, b, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::generate::random_matrix;
    use tileqr_matrix::norms::frobenius_norm;
    use tileqr_matrix::Complex64;

    fn assert_close<T: Scalar<Real = f64>>(a: &Matrix<T>, b: &Matrix<T>, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        let d = frobenius_norm(&a.sub(b));
        assert!(d < tol, "matrices differ by {d}");
    }

    #[test]
    fn dot_conj_matches_sequential_sum() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 15, 33] {
            let a: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(i as f64 * 0.5 - 1.0, 0.25 * i as f64))
                .collect();
            let b: Vec<Complex64> = (0..n)
                .map(|i| Complex64::new(1.0 - i as f64 * 0.125, -(i as f64)))
                .collect();
            let expected: Complex64 = a.iter().zip(&b).map(|(&x, &y)| x.conj() * y).sum();
            let got = dot_conj(&a, &b);
            assert!(
                (got - expected).abs() < 1e-12 * (1.0 + expected.abs()),
                "n={n}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn gemm_acc_accumulates() {
        let a: Matrix<f64> = random_matrix(4, 4, 14);
        let b: Matrix<f64> = random_matrix(4, 4, 15);
        let mut c = Matrix::<f64>::zeros(4, 4);
        gemm_acc(&mut c, &a, &b);
        assert_close(&c, &a.matmul(&b), 1e-13);
        gemm_acc(&mut c, &a, &b);
        assert_close(&c, &a.matmul(&b).scaled(2.0), 1e-13);
    }
}
