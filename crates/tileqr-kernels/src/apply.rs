//! Update kernels: [`unmqr`], [`tsmqr`] and [`ttmqr`].
//!
//! Each factorization kernel of [`crate::factor`] has a companion update that
//! applies the computed block reflector(s) to the trailing tiles of the same
//! row(s). All three accept a [`Trans`] flag:
//!
//! * [`Trans::ConjTrans`] applies `Qᴴ` — this is what the factorization and
//!   the `Qᴴ·B` driver use;
//! * [`Trans::NoTrans`] applies `Q` — used when explicitly building the
//!   `Q` factor or multiplying by it.
//!
//! # Inner blocking
//!
//! The factorization kernels produce one block reflector per panel of `ib`
//! columns (`Q = P_1·P_2⋯P_l`, see [`crate::factor`]), so the update kernels
//! replay the panels in factor order for `Qᴴ` and in reverse for `Q`. Each
//! panel is one call of the crate's block-reflector primitive — three
//! products on the register-tiled [`crate::microblas`] backend:
//!
//! ```text
//! W += V_sᴴ·C,   W₂ := op(T_s)·W,   C −= V_s·W₂.
//! ```
//!
//! The three kernels below differ only in how they describe `V_s` to it:
//! [`unmqr_ws`] hands over the rows of the GEQRT tile from the panel's
//! diagonal down as a unit-lower trapezoid (the `R` entries stored on and
//! above the diagonal are never read), [`tsmqr_ws`] a dense `V2` under an
//! identity that acts on the pivot tile's rows, [`ttmqr_ws`] the columns of
//! an upper-triangular `V2` cut at their diagonal (the vectors of an earlier
//! GEQRT below it are never read). Targets wider than `nb` are processed in
//! `nb`-column chunks. The workspace's `ib` must match the one used at
//! factor time — the `T` factors are stored `ib`-blocked.

use tileqr_matrix::{Matrix, Scalar};

use crate::reflector::{apply_panel, PivotRows};
use crate::workspace::Workspace;

/// Whether an update kernel applies `Q` or `Qᴴ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Apply `Q = I − V·T·Vᴴ`.
    NoTrans,
    /// Apply `Qᴴ = I − V·Tᴴ·Vᴴ`.
    ConjTrans,
}

impl Trans {
    #[inline]
    fn conj_t(self) -> bool {
        matches!(self, Trans::ConjTrans)
    }

    /// Panel start columns in application order: `Qᴴ = P_lᴴ⋯P_1ᴴ` applies
    /// the panels in factor order, `Q = P_1⋯P_l` in reverse.
    #[inline]
    fn panel_starts(self, nb: usize, ib: usize) -> impl Iterator<Item = usize> {
        let l = nb.div_ceil(ib);
        let conj = self.conj_t();
        (0..l).map(move |idx| {
            let s = if conj { idx } else { l - 1 - idx };
            s * ib
        })
    }
}

/// UNMQR: applies the block reflectors computed by [`crate::geqrt`] on tile
/// `(r, k)` to the trailing tile `c` of the same row.
///
/// `v` is the factored tile (Householder vectors in its strictly lower part,
/// unit diagonal implicit — the upper triangle holding `R` is ignored);
/// `t` is the companion `ib`-blocked triangular factor.
///
/// Paper cost: `6` units of `nb³/3` flops.
///
/// Allocating convenience wrapper around [`unmqr_ws`].
pub fn unmqr<T: Scalar<Real = f64>>(v: &Matrix<T>, t: &Matrix<T>, c: &mut Matrix<T>, trans: Trans) {
    unmqr_ws(v, t, c, trans, &mut Workspace::new(v.rows()));
}

/// UNMQR with caller-provided scratch: zero heap allocations.
///
/// One block-reflector application per panel and chunk of at most `nb`
/// target columns: the panel is rows `j0..nb` of its columns, a unit-lower
/// trapezoid whose zeros and unit diagonal are supplied at pack time.
pub fn unmqr_ws<T: Scalar<Real = f64>>(
    v: &Matrix<T>,
    t: &Matrix<T>,
    c: &mut Matrix<T>,
    trans: Trans,
    ws: &mut Workspace<T>,
) {
    let nb = v.rows();
    assert_eq!(v.cols(), nb, "UNMQR reflector tile must be square");
    assert_eq!(
        c.rows(),
        nb,
        "UNMQR target tile must match the reflector tile"
    );
    ws.require(nb);
    let ib = ws.ib_for(nb);
    assert!(t.rows() >= ib && t.cols() >= nb, "T factor too small");
    let ncols = c.cols();
    let ldc = c.rows();
    let mut c0 = 0;
    while c0 < ncols {
        let width = nb.min(ncols - c0);
        for j0 in trans.panel_starts(nb, ib) {
            let w = ib.min(nb - j0);
            // Rows j0.. of the panel's columns: the unit-lower trapezoid.
            apply_panel(
                |i| &v.col(j0 + i)[j0..],
                nb - j0,
                None,
                t,
                j0,
                w,
                trans.conj_t(),
                c.as_mut_slice(),
                |j| (c0 + j) * ldc + j0,
                width,
                &mut ws.panel,
            );
        }
        c0 += width;
    }
}

/// TSMQR: applies the block reflectors computed by [`crate::tsqrt`] to the
/// stacked pair of trailing tiles `[c1; c2]` (pivot row on top, annihilated
/// row below).
///
/// `v2` is the dense bottom block of Householder vectors produced by
/// [`crate::tsqrt`] and `t` its `ib`-blocked triangular factors.
///
/// Paper cost: `12` units of `nb³/3` flops.
///
/// Allocating convenience wrapper around [`tsmqr_ws`].
pub fn tsmqr<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    c1: &mut Matrix<T>,
    c2: &mut Matrix<T>,
    trans: Trans,
) {
    tsmqr_ws(v2, t, c1, c2, trans, &mut Workspace::new(v2.rows()));
}

/// TSMQR with caller-provided scratch: zero heap allocations.
///
/// One block-reflector application per panel and chunk: the stacked
/// reflector is `[I; V2_s]`, so `W` starts as rows `j0 .. j0+w` of `C1` and
/// `W₂` is subtracted from them, while the dense `V2_s` meets all of `C2`.
pub fn tsmqr_ws<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    c1: &mut Matrix<T>,
    c2: &mut Matrix<T>,
    trans: Trans,
    ws: &mut Workspace<T>,
) {
    let nb = v2.rows();
    assert_eq!(v2.cols(), nb, "TSMQR reflector block must be square");
    assert_eq!(c1.rows(), nb, "TSMQR C1 must match the reflector block");
    assert_eq!(c2.rows(), nb, "TSMQR C2 must match the reflector block");
    assert_eq!(c1.cols(), c2.cols(), "TSMQR C1/C2 must have the same width");
    ws.require(nb);
    let ib = ws.ib_for(nb);
    assert!(t.rows() >= ib && t.cols() >= nb, "T factor too small");
    let ncols = c1.cols();
    let ldc = c1.rows();
    let mut c0 = 0;
    while c0 < ncols {
        let width = nb.min(ncols - c0);
        for j0 in trans.panel_starts(nb, ib) {
            let w = ib.min(nb - j0);
            apply_panel(
                |i| v2.col(j0 + i),
                nb,
                Some(PivotRows {
                    c1: c1.as_mut_slice(),
                    start: c0 * ldc + j0,
                    ld: ldc,
                }),
                t,
                j0,
                w,
                trans.conj_t(),
                c2.as_mut_slice(),
                |j| (c0 + j) * ldc,
                width,
                &mut ws.panel,
            );
        }
        c0 += width;
    }
}

/// TTMQR: applies the block reflectors computed by [`crate::ttqrt`] to the
/// stacked pair of trailing tiles `[c1; c2]`.
///
/// `v2` holds the Householder vectors in its **upper triangle** (the strictly
/// lower part is ignored, matching [`crate::ttqrt`]'s output); the triangular
/// structure is exploited so this kernel costs half of [`tsmqr`].
///
/// Paper cost: `6` units of `nb³/3` flops.
///
/// Allocating convenience wrapper around [`ttmqr_ws`].
pub fn ttmqr<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    c1: &mut Matrix<T>,
    c2: &mut Matrix<T>,
    trans: Trans,
) {
    ttmqr_ws(v2, t, c1, c2, trans, &mut Workspace::new(v2.rows()));
}

/// TTMQR with caller-provided scratch: zero heap allocations.
///
/// Same structure as [`tsmqr_ws`], but a panel of the upper-triangular `V2`
/// spans only rows `0 .. j0+w` — of `V2` and of `C2` — and its columns are
/// handed over cut at their diagonal, so nothing below it is read and the
/// packer supplies the zeros of the `w × w` corner. That restriction is
/// what makes the TT kernel half the cost of the TS one.
pub fn ttmqr_ws<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    c1: &mut Matrix<T>,
    c2: &mut Matrix<T>,
    trans: Trans,
    ws: &mut Workspace<T>,
) {
    let nb = v2.rows();
    assert_eq!(v2.cols(), nb, "TTMQR reflector block must be square");
    assert_eq!(c1.rows(), nb, "TTMQR C1 must match the reflector block");
    assert_eq!(c2.rows(), nb, "TTMQR C2 must match the reflector block");
    assert_eq!(c1.cols(), c2.cols(), "TTMQR C1/C2 must have the same width");
    ws.require(nb);
    let ib = ws.ib_for(nb);
    assert!(t.rows() >= ib && t.cols() >= nb, "T factor too small");
    let ncols = c1.cols();
    let ldc = c1.rows();
    let mut c0 = 0;
    while c0 < ncols {
        let width = nb.min(ncols - c0);
        for j0 in trans.panel_starts(nb, ib) {
            let w = ib.min(nb - j0);
            // Column j0+i of V2 ends at its diagonal: rows 0..=j0+i of the
            // j0+w the panel spans, the rest implied zero.
            apply_panel(
                |i| &v2.col(j0 + i)[..j0 + i + 1],
                j0 + w,
                Some(PivotRows {
                    c1: c1.as_mut_slice(),
                    start: c0 * ldc + j0,
                    ld: ldc,
                }),
                t,
                j0,
                w,
                trans.conj_t(),
                c2.as_mut_slice(),
                |j| (c0 + j) * ldc,
                width,
                &mut ws.panel,
            );
        }
        c0 += width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{geqrt, tsqrt, ttqrt};
    use tileqr_matrix::generate::random_matrix;
    use tileqr_matrix::norms::frobenius_norm;
    use tileqr_matrix::Complex64;

    const TOL: f64 = 1e-12;

    fn assert_close<T: Scalar<Real = f64>>(a: &Matrix<T>, b: &Matrix<T>) {
        let d = frobenius_norm(&a.sub(b)) / (1.0 + frobenius_norm(a));
        assert!(d < TOL, "matrices differ by {d}");
    }

    /// Explicit Q = I − V·T·Vᴴ for a GEQRT-factored tile.
    fn explicit_q_geqrt<T: Scalar<Real = f64>>(a: &Matrix<T>, t: &Matrix<T>) -> Matrix<T> {
        let nb = a.rows();
        let v = Matrix::from_fn(nb, nb, |i, j| {
            if i == j {
                T::ONE
            } else if i > j {
                a.get(i, j)
            } else {
                T::ZERO
            }
        });
        Matrix::<T>::identity(nb).sub(&v.matmul(&t.matmul(&v.conj_transpose())))
    }

    /// Explicit 2nb × 2nb Q for a TS/TT-factored tile pair with bottom block V2.
    fn explicit_q_stacked<T: Scalar<Real = f64>>(v2: &Matrix<T>, t: &Matrix<T>) -> Matrix<T> {
        let nb = v2.rows();
        let mut v = Matrix::zeros(2 * nb, nb);
        for j in 0..nb {
            v.set(j, j, T::ONE);
        }
        v.copy_block(nb, 0, v2, 0, 0, nb, nb);
        Matrix::<T>::identity(2 * nb).sub(&v.matmul(&t.matmul(&v.conj_transpose())))
    }

    /// Target widths around the active level's register block: the square
    /// tile, a right-hand-side column and its neighbours, one column short
    /// of and one past a full block, and a chunked target wider than `nb`.
    fn target_widths<T: Scalar>(nb: usize) -> [usize; 7] {
        let nr = crate::simd::block_shape::<T>(crate::simd::active()).nr;
        [nb, 1, 2, 3, nr - 1, nr + 1, nb + 3]
    }

    fn check_unmqr<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        let mut a: Matrix<T> = random_matrix(nb, nb, seed);
        let mut t = Matrix::zeros(nb, nb);
        geqrt(&mut a, &mut t);
        let q = explicit_q_geqrt(&a, &t);

        for width in target_widths::<T>(nb) {
            let c0: Matrix<T> = random_matrix(nb, width, seed + 1);
            let mut c = c0.clone();
            unmqr(&a, &t, &mut c, Trans::ConjTrans);
            assert_close(&c, &q.conj_transpose().matmul(&c0));

            let mut c = c0.clone();
            unmqr(&a, &t, &mut c, Trans::NoTrans);
            assert_close(&c, &q.matmul(&c0));
        }
    }

    #[test]
    fn unmqr_applies_q_and_qh() {
        for nb in [1usize, 2, 5, 16, 35] {
            check_unmqr::<f64>(nb, 300 + nb as u64);
            check_unmqr::<Complex64>(nb, 400 + nb as u64);
        }
    }

    /// The shared signature of [`tsmqr`] and [`ttmqr`].
    type StackedUpdate<T> = fn(&Matrix<T>, &Matrix<T>, &mut Matrix<T>, &mut Matrix<T>, Trans);

    /// A TS/TT update kernel against the explicit `Q` of `[I; V2]`, both
    /// transposes, every target width.
    fn check_stacked_update<T: tileqr_matrix::generate::RandomScalar>(
        v2: &Matrix<T>,
        t: &Matrix<T>,
        seed: u64,
        kernel: StackedUpdate<T>,
    ) {
        let nb = v2.rows();
        let q = explicit_q_stacked(v2, t);
        for width in target_widths::<T>(nb) {
            let c1_0: Matrix<T> = random_matrix(nb, width, seed);
            let c2_0: Matrix<T> = random_matrix(nb, width, seed + 1);
            let mut stacked = Matrix::zeros(2 * nb, width);
            stacked.copy_block(0, 0, &c1_0, 0, 0, nb, width);
            stacked.copy_block(nb, 0, &c2_0, 0, 0, nb, width);

            for trans in [Trans::ConjTrans, Trans::NoTrans] {
                let mut c1 = c1_0.clone();
                let mut c2 = c2_0.clone();
                kernel(v2, t, &mut c1, &mut c2, trans);
                let expected = match trans {
                    Trans::ConjTrans => q.conj_transpose().matmul(&stacked),
                    Trans::NoTrans => q.matmul(&stacked),
                };
                assert_close(&c1, &expected.sub_matrix(0, 0, nb, width));
                assert_close(&c2, &expected.sub_matrix(nb, 0, nb, width));
            }
        }
    }

    fn check_tsmqr<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        let mut r1: Matrix<T> = random_matrix(nb, nb, seed);
        r1.zero_below_diagonal();
        let mut a2: Matrix<T> = random_matrix(nb, nb, seed + 1);
        let mut t = Matrix::zeros(nb, nb);
        tsqrt(&mut r1, &mut a2, &mut t);
        check_stacked_update(&a2, &t, seed + 2, tsmqr);
    }

    #[test]
    fn tsmqr_applies_q_and_qh() {
        for nb in [1usize, 2, 4, 12, 35] {
            check_tsmqr::<f64>(nb, 500 + nb as u64);
            check_tsmqr::<Complex64>(nb, 600 + nb as u64);
        }
    }

    fn check_ttmqr<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        let mut r1: Matrix<T> = random_matrix(nb, nb, seed);
        r1.zero_below_diagonal();
        let mut r2: Matrix<T> = random_matrix(nb, nb, seed + 1);
        r2.zero_below_diagonal();
        let mut t = Matrix::zeros(nb, nb);
        ttqrt(&mut r1, &mut r2, &mut t);
        check_stacked_update(&r2, &t, seed + 2, ttmqr);
    }

    #[test]
    fn ttmqr_applies_q_and_qh() {
        for nb in [1usize, 2, 4, 12, 35] {
            check_ttmqr::<f64>(nb, 700 + nb as u64);
            check_ttmqr::<Complex64>(nb, 800 + nb as u64);
        }
    }

    #[test]
    fn unmqr_roundtrip_q_then_qh_restores_input() {
        let nb = 10;
        let mut a: Matrix<Complex64> = random_matrix(nb, nb, 950);
        let mut t = Matrix::zeros(nb, nb);
        geqrt(&mut a, &mut t);
        let c0: Matrix<Complex64> = random_matrix(nb, nb, 951);
        let mut c = c0.clone();
        unmqr(&a, &t, &mut c, Trans::ConjTrans);
        unmqr(&a, &t, &mut c, Trans::NoTrans);
        assert_close(&c, &c0);
    }

    #[test]
    fn inner_blocked_roundtrip_q_then_qh_restores_input() {
        // Factor and apply with ib < nb (including ib ∤ nb): Q·Qᴴ·C = C
        // exercises both panel application orders against the same
        // ib-blocked T factors.
        let nb = 10;
        for ib in [1usize, 3, 4, 10] {
            let mut ws: Workspace<Complex64> = Workspace::with_inner_block(nb, ib);
            let mut a: Matrix<Complex64> = random_matrix(nb, nb, 960 + ib as u64);
            let mut t = Matrix::zeros(ib.min(nb), nb);
            crate::factor::geqrt_ws(&mut a, &mut t, &mut ws);
            let c0: Matrix<Complex64> = random_matrix(nb, nb, 961);
            let mut c = c0.clone();
            unmqr_ws(&a, &t, &mut c, Trans::ConjTrans, &mut ws);
            unmqr_ws(&a, &t, &mut c, Trans::NoTrans, &mut ws);
            assert_close(&c, &c0);
        }
    }
}
