//! Update kernels: [`unmqr_ws`], [`tsmqr_ws`] and [`ttmqr_ws`].
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
//! replay the panels in factor order for `Qᴴ` and in reverse for `Q`. All
//! three are one routine: per chunk of at most `nb` target columns and per
//! panel, one call of the crate's block-reflector primitive — three products
//! on the register-tiled [`crate::microblas`] backend:
//!
//! ```text
//! W += V_sᴴ·C,   W₂ := op(T_s)·W,   C −= V_s·W₂.
//! ```
//!
//! The kernels differ only in the reflector description they hand it: a
//! GEQRT tile for [`unmqr_ws`] (the `R` entries stored on and above the
//! diagonal are never read), a dense `V2` under an identity that acts on
//! the rows of `C1` for [`tsmqr_ws`], the same with columns cut at their
//! diagonal for [`ttmqr_ws`] (the vectors of an earlier GEQRT below it are
//! never read). The workspace's `ib` must match the one used at factor time
//! — the `T` factors are stored `ib`-blocked. Nothing checks it: a `T`
//! buffer with fewer rows than the workspace's `ib` panics, but any other
//! mismatch reads `T` in the wrong blocks and silently applies a wrong `Q`.
//! On one random `nb` 32 tile factored by GEQRT at `ib` 8 into a `T` of `nb`
//! rows, `‖Q·Qᴴ·C − C‖` through [`unmqr_ws`] read 1.2e-14 at `ib` 8, 1.4e2
//! at `ib` 16 and, factored at 16 and applied at 8, 2.4e1 (`‖C‖` = 1.8e1).

use tileqr_matrix::{Matrix, Scalar};

use crate::reflector::Block;
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

/// UNMQR: applies the block reflectors computed by
/// [`geqrt_ws`](crate::geqrt_ws) on tile `(r, k)` to the trailing tile `c`
/// of the same row, with caller-provided scratch (zero heap allocations).
///
/// `v` is the factored tile (Householder vectors in its strictly lower part,
/// unit diagonal implicit — the upper triangle holding `R` is ignored);
/// `t` is the companion `ib`-blocked triangular factor. `c` may be wider
/// than `nb`.
///
/// `ws` must carry the `ib` that `t` was factored with: any other `ib` gives
/// a wrong `Q` without a panic (see the [module docs](self#inner-blocking)).
///
/// Paper cost: `6` units of `nb³/3` flops.
pub fn unmqr_ws<T: Scalar<Real = f64>>(
    v: &Matrix<T>,
    t: &Matrix<T>,
    c: &mut Matrix<T>,
    trans: Trans,
    ws: &mut Workspace<T>,
) {
    update(v, Block::Tile, t, c, trans, ws);
}

/// TSMQR: applies the block reflectors computed by
/// [`tsqrt_ws`](crate::tsqrt_ws) to the stacked pair of trailing tiles
/// `[c1; c2]` (pivot row on top, annihilated row below), with
/// caller-provided scratch (zero heap allocations).
///
/// `v2` is the dense bottom block of Householder vectors and `t` its
/// `ib`-blocked triangular factors.
///
/// `ws` must carry the `ib` that `t` was factored with: any other `ib` gives
/// a wrong `Q` without a panic (see the [module docs](self#inner-blocking)).
///
/// Paper cost: `12` units of `nb³/3` flops.
pub fn tsmqr_ws<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    c1: &mut Matrix<T>,
    c2: &mut Matrix<T>,
    trans: Trans,
    ws: &mut Workspace<T>,
) {
    let pair = Block::Pair {
        pivot: c1,
        triangular: false,
    };
    update(v2, pair, t, c2, trans, ws);
}

/// TTMQR: applies the block reflectors computed by
/// [`ttqrt_ws`](crate::ttqrt_ws) to the stacked pair of trailing tiles
/// `[c1; c2]`, with caller-provided scratch (zero heap allocations).
///
/// `v2` holds the Householder vectors in its **upper triangle** (the strictly
/// lower part is ignored, matching TTQRT's output). A panel spans only rows
/// `0 .. j0+w` of `V2` and of `C2`, which is what makes this kernel half the
/// cost of TSMQR.
///
/// `ws` must carry the `ib` that `t` was factored with: any other `ib` gives
/// a wrong `Q` without a panic (see the [module docs](self#inner-blocking)).
///
/// Paper cost: `6` units of `nb³/3` flops.
pub fn ttmqr_ws<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    t: &Matrix<T>,
    c1: &mut Matrix<T>,
    c2: &mut Matrix<T>,
    trans: Trans,
    ws: &mut Workspace<T>,
) {
    let pair = Block::Pair {
        pivot: c1,
        triangular: true,
    };
    update(v2, pair, t, c2, trans, ws);
}

/// The one update routine: applies the reflector block stored in `v` (and
/// `t`) to `c` — and, for a pair, to the pivot tile's matching columns — in
/// chunks of at most `nb` columns, one block-reflector call per panel.
fn update<T: Scalar<Real = f64>>(
    v: &Matrix<T>,
    mut block: Block<'_, T>,
    t: &Matrix<T>,
    c: &mut Matrix<T>,
    trans: Trans,
    ws: &mut Workspace<T>,
) {
    let nb = v.rows();
    assert_eq!(v.cols(), nb, "the reflector tile must be square");
    assert_eq!(c.rows(), nb, "the target must match the reflector tile");
    if let Block::Pair { pivot, .. } = &block {
        assert_eq!(pivot.shape(), c.shape(), "C1 and C2 must have one shape");
    }
    ws.require(nb);
    let ib = ws.ib_for(nb);
    assert!(t.rows() >= ib && t.cols() >= nb, "T factor too small");
    let ncols = c.cols();
    for c0 in (0..ncols).step_by(nb) {
        let width = nb.min(ncols - c0);
        for j0 in trans.panel_starts(nb, ib) {
            block.apply_panel(
                v.as_slice(),
                nb,
                &t.as_slice()[j0 * t.rows()..],
                t.rows(),
                j0,
                ib.min(nb - j0),
                trans.conj_t(),
                &mut c.as_mut_slice()[c0 * nb..],
                c0,
                width,
                &mut ws.panel,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{geqrt_ws, tsqrt_ws, ttqrt_ws};
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
        let mut ws = Workspace::new(nb);
        let mut a: Matrix<T> = random_matrix(nb, nb, seed);
        let mut t = Matrix::zeros(nb, nb);
        geqrt_ws(&mut a, &mut t, &mut ws);
        let q = explicit_q_geqrt(&a, &t);

        for width in target_widths::<T>(nb) {
            let c0: Matrix<T> = random_matrix(nb, width, seed + 1);
            let mut c = c0.clone();
            unmqr_ws(&a, &t, &mut c, Trans::ConjTrans, &mut ws);
            assert_close(&c, &q.conj_transpose().matmul(&c0));

            let mut c = c0.clone();
            unmqr_ws(&a, &t, &mut c, Trans::NoTrans, &mut ws);
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

    /// The shared signature of [`tsmqr_ws`] and [`ttmqr_ws`].
    type StackedUpdate<T> =
        fn(&Matrix<T>, &Matrix<T>, &mut Matrix<T>, &mut Matrix<T>, Trans, &mut Workspace<T>);

    /// A TS/TT update kernel against the explicit `Q` of `[I; V2]`, both
    /// transposes, every target width.
    fn check_stacked_update<T: tileqr_matrix::generate::RandomScalar>(
        v2: &Matrix<T>,
        t: &Matrix<T>,
        seed: u64,
        kernel: StackedUpdate<T>,
    ) {
        let nb = v2.rows();
        let mut ws = Workspace::new(nb);
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
                kernel(v2, t, &mut c1, &mut c2, trans, &mut ws);
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
        tsqrt_ws(&mut r1, &mut a2, &mut t, &mut Workspace::new(nb));
        check_stacked_update(&a2, &t, seed + 2, tsmqr_ws);
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
        ttqrt_ws(&mut r1, &mut r2, &mut t, &mut Workspace::new(nb));
        check_stacked_update(&r2, &t, seed + 2, ttmqr_ws);
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
        let mut ws = Workspace::new(nb);
        let mut a: Matrix<Complex64> = random_matrix(nb, nb, 950);
        let mut t = Matrix::zeros(nb, nb);
        geqrt_ws(&mut a, &mut t, &mut ws);
        let c0: Matrix<Complex64> = random_matrix(nb, nb, 951);
        let mut c = c0.clone();
        unmqr_ws(&a, &t, &mut c, Trans::ConjTrans, &mut ws);
        unmqr_ws(&a, &t, &mut c, Trans::NoTrans, &mut ws);
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
            geqrt_ws(&mut a, &mut t, &mut ws);
            let c0: Matrix<Complex64> = random_matrix(nb, nb, 961);
            let mut c = c0.clone();
            unmqr_ws(&a, &t, &mut c, Trans::ConjTrans, &mut ws);
            unmqr_ws(&a, &t, &mut c, Trans::NoTrans, &mut ws);
            assert_close(&c, &c0);
        }
    }
}
