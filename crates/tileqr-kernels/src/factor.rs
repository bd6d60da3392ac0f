//! Factorization kernels: [`geqrt_ws`], [`tsqrt_ws`] and [`ttqrt_ws`].
//!
//! These are the three ways the paper introduces zeros (Section 2.1):
//!
//! * [`geqrt_ws`] — *"factor square into triangle"*: ordinary QR of one
//!   tile.
//! * [`tsqrt_ws`] — *"zero square with triangle on top"*: QR of the
//!   2·nb × nb matrix formed by an upper-triangular tile stacked on a full
//!   tile (the TS kernel family).
//! * [`ttqrt_ws`] — *"zero triangle with triangle on top"*: QR of two
//!   stacked upper-triangular tiles (the TT kernel family), which costs a
//!   third of TSQRT and is the building block of the new algorithms.
//!
//! All three are one routine over the crate's reflector description (a
//! GEQRT tile, or a TS/TT pair whose `V2` columns end at row `nb` or at
//! their diagonal). Each overwrites its inputs with the `R` factor and the
//! Householder vectors, in place, and produces the upper triangular `T`
//! factors of the compact WY representation that the companion update
//! kernel of [`crate::apply`] consumes. Only the storage the description
//! names is read or written: the strictly lower half of a pivot tile (and
//! of a TT pair's second tile), which holds the vectors of an earlier GEQRT
//! in a real factorization, is left as it was.
//!
//! # Inner blocking
//!
//! The tile is factored in panels of `ib` columns (`ib` comes from the
//! [`Workspace`]). Within a panel the reflectors are generated and applied
//! column by column (the Level-2 sweep, on [`crate::blas::dot_conj`]); the
//! panel's `w × w` factor `T_s` is built from their inner products; the
//! *trailing* columns of the tile (pair) are then updated once per panel
//! with the block-reflector primitive the update kernels use — three
//! products on the register-tiled [`crate::microblas`] backend — with the
//! panel's own columns as `V` (a `split_at_mut` of the tile keeps them
//! readable while the trailing columns are written). The `T_s` are stored
//! `ib`-blocked: panel `s` (columns `j0 .. j0+w`) occupies rows `0..w` of
//! columns `j0 .. j0+w` of `t`, so `t` needs only `ib` rows. With `ib = nb`
//! (the default workspace) there is a single panel and no trailing update.

use tileqr_matrix::{Matrix, Scalar};

use crate::blas::{dot_conj, reflect, trmv_upper};
use crate::householder::larfg;
use crate::reflector::Block;
use crate::simd::{with_level2, Level2, WithLevel2, DOT_PAIRS};
use crate::workspace::Workspace;

/// GEQRT: in-place QR factorization of a square `nb × nb` tile, with
/// caller-provided scratch (zero heap allocations).
///
/// On exit `a` holds `R` in its upper triangle and the Householder vectors
/// `V` (unit diagonal implicit) in its strictly lower part; `t` receives the
/// `ib`-blocked block-reflector factors (one `w × w` upper triangle per
/// panel of `w ≤ ib` columns, at rows `0..w` of the panel's columns), so it
/// must have at least `min(ib, nb)` rows and `nb` columns.
///
/// Paper cost: `4` units of `nb³/3` flops.
pub fn geqrt_ws<T: Scalar<Real = f64>>(
    a: &mut Matrix<T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    factor(a, Block::Tile, t, ws);
}

/// TSQRT: QR factorization of `[R1; A2]`, where `R1` is the upper
/// triangular tile produced by an earlier GEQRT/TSQRT on the pivot row and
/// `A2` is a full square tile to be annihilated.
///
/// On exit `r1` holds the updated `R` factor in its upper triangle, `a2`
/// holds the (dense) bottom parts `V2` of the Householder vectors (the top
/// parts form an identity and are implicit), and `t` receives the
/// `ib`-blocked block-reflector factors. Zero heap allocations.
///
/// Paper cost: `6` units of `nb³/3` flops.
pub fn tsqrt_ws<T: Scalar<Real = f64>>(
    r1: &mut Matrix<T>,
    a2: &mut Matrix<T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    let pair = Block::Pair {
        pivot: r1,
        triangular: false,
    };
    factor(a2, pair, t, ws);
}

/// TTQRT: QR factorization of `[R1; R2]` where **both** tiles are upper
/// triangular. This is the cheap kernel that makes the TT algorithm family
/// attractive: only the leading `j+1` rows of column `j` of `R2` are
/// nonzero, so the reflectors and the updates stay within the upper
/// triangle.
///
/// On exit `r1` holds the updated `R` factor, the upper triangle of `r2`
/// holds the (upper triangular) bottom parts `V2` of the Householder
/// vectors, and `t` receives the `ib`-blocked block-reflector factors. Only
/// the two upper triangles are read or written, in place. Zero heap
/// allocations.
///
/// Paper cost: `2` units of `nb³/3` flops.
pub fn ttqrt_ws<T: Scalar<Real = f64>>(
    r1: &mut Matrix<T>,
    r2: &mut Matrix<T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    let pair = Block::Pair {
        pivot: r1,
        triangular: true,
    };
    factor(r2, pair, t, ws);
}

/// The one factorization routine: QR of the reflector block `block` whose
/// vectors are generated into `v`, panel by panel.
fn factor<T: Scalar<Real = f64>>(
    v: &mut Matrix<T>,
    mut block: Block<'_, T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    let nb = v.rows();
    assert_eq!(v.cols(), nb, "the factored tile must be square");
    if let Block::Pair { pivot, .. } = &block {
        assert_eq!(pivot.shape(), (nb, nb), "the pivot tile must match");
    }
    ws.require(nb);
    let ib = ws.ib_for(nb);
    assert!(t.rows() >= ib && t.cols() >= nb, "T factor too small");
    let Workspace {
        tau,
        tail,
        wcol,
        panel,
        ..
    } = ws;

    for j0 in (0..nb).step_by(ib) {
        let w = ib.min(nb - j0);
        let j1 = j0 + w;
        // --- the Level-2 half of a TS panel on the SIMD levels: the same
        // steps as below, the same bits ---
        let dispatched = match &mut block {
            Block::Pair {
                pivot,
                triangular: false,
            } => with_level2::<T>(TsPanel {
                r1: pivot,
                v: &mut *v,
                t: &mut *t,
                tau: &mut tau[..w],
                j0,
            }),
            _ => false,
        };
        if !dispatched {
            // --- generate the panel's reflectors, applying each to the rest
            // of the panel ---
            for jj in 0..w {
                let j = j0 + jj;
                let (alpha, x) = block.column(v, j, j);
                let tail = &mut tail[..x.len()];
                tail.copy_from_slice(x);
                let refl = larfg(*alpha, tail);
                tau[jj] = refl.tau;
                *alpha = refl.beta;
                x.copy_from_slice(tail);
                if refl.tau.is_zero() {
                    continue;
                }
                let tau_c = refl.tau.conj();
                for k in (j + 1)..j1 {
                    let (pivot, c) = block.column(v, j, k);
                    let wv = *pivot + dot_conj(tail, c);
                    let s = tau_c * wv;
                    *pivot -= s;
                    for (ci, &vi) in c.iter_mut().zip(tail.iter()) {
                        *ci -= vi * s;
                    }
                }
            }
            // --- the panel's T factor ---
            panel_t(&block, v, j0, &tau[..w], t, wcol);
        }
        // --- trailing update of columns j1..nb ---
        if j1 < nb {
            // The panel's vectors live in columns j0..j1, the targets in
            // j1..nb: split the storage so both can be accessed at once.
            let (left, right) = v.as_mut_slice().split_at_mut(j1 * nb);
            block.apply_panel(left, nb, t, j0, w, true, right, j1, nb - j1, panel);
        }
    }
}

/// The Level-2 half of one panel of a TS pair — columns
/// `j0 .. j0 + tau.len()` of `v` under the pivot tile `r1` — written over
/// the [`Level2`] operations of a SIMD level: every step of the generic
/// sweep and [`panel_t`] in their order, with the dots of independent
/// columns reduced eight at a time and the `T` recurrence summed column by
/// column (entry `i` still adds its terms in index order, from zero).
/// GEQRT and TTQRT panels keep the generic loops: their shorter columns
/// did not pay for the dispatch on the reference host.
struct TsPanel<'p, T: Scalar> {
    r1: &'p mut Matrix<T>,
    v: &'p mut Matrix<T>,
    t: &'p mut Matrix<T>,
    tau: &'p mut [T],
    j0: usize,
}

impl<T: Scalar<Real = f64>> WithLevel2 for TsPanel<'_, T> {
    #[inline(always)]
    fn run<L: Level2>(self) {
        let TsPanel { r1, v, t, tau, j0 } = self;
        let (nb, w) = (v.rows(), tau.len());
        let j1 = j0 + w;
        for j in j0..j1 {
            // Reflector `j` is `[e_j; v_j]`: its unit meets row `j` of `r1`.
            let refl = larfg(r1.get(j, j), v.col_mut(j));
            tau[j - j0] = refl.tau;
            r1.set(j, j, refl.beta);
            if refl.tau.is_zero() {
                continue;
            }
            let (done, cols) = v.as_mut_slice().split_at_mut((j + 1) * nb);
            let pivots = &mut r1.as_mut_slice()[(j + 1) * nb..];
            let x = &done[j * nb..];
            reflect::<T, L>(cols, pivots, nb, j, j1 - j - 1, x, refl.tau.conj());
        }
        let ld = t.rows();
        for (jj, &tau) in tau.iter().enumerate() {
            let j = j0 + jj;
            let (done, rest) = t.as_mut_slice().split_at_mut(j * ld);
            let col = &mut rest[..w];
            col.fill(T::ZERO);
            if tau.is_zero() {
                continue;
            }
            // `w(ii) = v_iiᴴ·v_jj`, parked in the column being built.
            for ii0 in (0..jj).step_by(DOT_PAIRS) {
                let n = DOT_PAIRS.min(jj - ii0);
                let pairs: [(&[T], &[T]); DOT_PAIRS] =
                    std::array::from_fn(|c| (v.col(j0 + ii0 + c.min(n - 1)), v.col(j)));
                L::dots(&pairs[..n], &mut col[ii0..ii0 + n]);
            }
            trmv_upper::<T, L>(&done[j0 * ld..], ld, &mut col[..jj]);
            for x in &mut col[..jj] {
                *x = -tau * *x;
            }
            col[jj] = tau;
        }
    }
}

/// The panel's upper triangular compact-WY factor, written `ib`-blocked to
/// rows `0..w` of columns `j0 .. j0+w` of `t` (LAPACK `larft`):
/// `T_s(jj, jj) = τ_jj`, `T_s(0..jj, jj) = −τ_jj · T_s(0..jj, 0..jj) · w`
/// with `w(ii) = v_iiᴴ·v_jj`. `wcol` is scratch of at least `w` entries.
fn panel_t<T: Scalar<Real = f64>>(
    block: &Block<'_, T>,
    v: &Matrix<T>,
    j0: usize,
    taus: &[T],
    t: &mut Matrix<T>,
    wcol: &mut [T],
) {
    let w = taus.len();
    for (jj, &tau) in taus.iter().enumerate() {
        let j = j0 + jj;
        t.col_mut(j)[..w].fill(T::ZERO);
        if tau.is_zero() {
            continue;
        }
        for (ii, wi) in wcol[..jj].iter_mut().enumerate() {
            *wi = block.vdot(v, j0 + ii, j);
        }
        for i in 0..jj {
            let mut acc = T::ZERO;
            for (idx, &wa) in wcol[..jj].iter().enumerate().skip(i) {
                acc += t.get(i, j0 + idx) * wa;
            }
            t.set(i, j, -tau * acc);
        }
        t.set(jj, j, tau);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::generate::{random_matrix, random_upper_triangular};
    use tileqr_matrix::norms::{factorization_residual, frobenius_norm, orthogonality_residual};
    use tileqr_matrix::Complex64;

    use crate::householder::apply_reflector_left;
    use crate::reference::{householder_qr, DenseQr};

    const TOL: f64 = 1e-12;

    /// Reconstructs the 2nb × nb matrix factored by TSQRT/TTQRT from its
    /// compact representation, by applying Q = I − V·T·Vᴴ to [R; 0].
    fn reconstruct_stacked<T: Scalar<Real = f64>>(
        r1: &Matrix<T>,
        v2: &Matrix<T>,
        t: &Matrix<T>,
    ) -> Matrix<T> {
        let nb = r1.rows();
        // Stack [R; 0]
        let mut rz = Matrix::zeros(2 * nb, nb);
        rz.copy_block(0, 0, r1, 0, 0, nb, nb);
        // V = [I; V2]
        let mut v = Matrix::zeros(2 * nb, nb);
        for j in 0..nb {
            v.set(j, j, T::ONE);
        }
        v.copy_block(nb, 0, v2, 0, 0, nb, nb);
        // Q · [R;0] = [R;0] − V·T·(Vᴴ·[R;0])
        let w = v.conj_transpose().matmul(&rz);
        let tw = t.matmul(&w);
        rz.sub(&v.matmul(&tw))
    }

    /// The explicit unit-lower `V` of a GEQRT-factored tile.
    fn unit_lower<T: Scalar<Real = f64>>(a: &Matrix<T>) -> Matrix<T> {
        let nb = a.rows();
        Matrix::from_fn(nb, nb, |i, j| {
            if i == j {
                T::ONE
            } else if i > j {
                a.get(i, j)
            } else {
                T::ZERO
            }
        })
    }

    fn check_geqrt<T: Scalar<Real = f64>>(a0: Matrix<T>) {
        let nb = a0.rows();
        let mut a = a0.clone();
        let mut t = Matrix::zeros(nb, nb);
        geqrt_ws(&mut a, &mut t, &mut Workspace::new(nb));
        // R = upper triangle of a
        let mut r = a.clone();
        r.zero_below_diagonal();
        // Q = I − V·T·Vᴴ ; A must equal Q·R
        let v = unit_lower(&a);
        let q = Matrix::<T>::identity(nb).sub(&v.matmul(&t.matmul(&v.conj_transpose())));
        assert!(
            factorization_residual(&a0, &q, &r) < TOL,
            "GEQRT reconstruction failed"
        );
        assert!(orthogonality_residual(&q) < TOL, "GEQRT Q not unitary");
        assert!(t.is_upper_triangular(), "T factor not upper triangular");
    }

    #[test]
    fn geqrt_factors_random_real_tiles() {
        for (n, seed) in [(1usize, 1u64), (2, 2), (5, 3), (16, 4), (32, 5)] {
            check_geqrt::<f64>(random_matrix(n, n, seed));
        }
    }

    #[test]
    fn geqrt_factors_random_complex_tiles() {
        for (n, seed) in [(1usize, 11u64), (3, 12), (8, 13), (24, 14)] {
            check_geqrt::<Complex64>(random_matrix(n, n, seed));
        }
    }

    #[test]
    fn geqrt_matches_reference_r_up_to_phase() {
        // The R factors of the tile QR and of the reference dense QR agree up
        // to the sign convention; both use negative-sign beta so they should
        // agree exactly (within rounding).
        let a: Matrix<f64> = random_matrix(12, 12, 21);
        let mut tile = a.clone();
        let mut t = Matrix::zeros(12, 12);
        geqrt_ws(&mut tile, &mut t, &mut Workspace::new(12));
        let DenseQr { r, .. } = householder_qr(&a);
        let mut r_tile = tile.clone();
        r_tile.zero_below_diagonal();
        let diff = frobenius_norm(&r_tile.sub(&r));
        assert!(diff < 1e-10, "tile and reference R differ by {diff}");
    }

    #[test]
    fn geqrt_on_already_triangular_tile_keeps_it() {
        let r0: Matrix<f64> = random_upper_triangular(10, 33);
        check_geqrt(r0);
    }

    #[test]
    fn panel_t_factors_replay_the_sequential_reflectors() {
        // At every inner blocking the ib-blocked T factors must reproduce
        // the reflectors one at a time: Qᴴ·C through UNMQR equals
        // H_{nb-1}ᴴ⋯H_0ᴴ·C, with τ_j read off the diagonal of its panel's T.
        let nb = 9;
        for ib in [1usize, 3, 4, nb] {
            let mut ws: Workspace<Complex64> = Workspace::with_inner_block(nb, ib);
            let mut a: Matrix<Complex64> = random_matrix(nb, nb, 70 + ib as u64);
            let mut t = Matrix::zeros(ib, nb);
            geqrt_ws(&mut a, &mut t, &mut ws);
            let c0: Matrix<Complex64> = random_matrix(nb, 5, 71);
            let mut sequential = c0.clone();
            for j in 0..nb {
                let tail: Vec<Complex64> = a.col(j)[j + 1..].to_vec();
                apply_reflector_left(&mut sequential, j, &tail, t.get(j % ib, j), 0);
            }
            let mut blocked = c0.clone();
            crate::apply::unmqr_ws(&a, &t, &mut blocked, crate::Trans::ConjTrans, &mut ws);
            let diff = frobenius_norm(&blocked.sub(&sequential));
            assert!(
                diff < TOL,
                "ib={ib}: blocked and sequential differ by {diff}"
            );
        }
    }

    fn check_tsqrt<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        // Start from an upper-triangular pivot tile and a full tile below.
        let r1_0: Matrix<T> = {
            let mut m: Matrix<T> = random_matrix(nb, nb, seed);
            m.zero_below_diagonal();
            m
        };
        let a2_0: Matrix<T> = random_matrix(nb, nb, seed + 1000);
        let mut r1 = r1_0.clone();
        let mut a2 = a2_0.clone();
        let mut t = Matrix::zeros(nb, nb);
        tsqrt_ws(&mut r1, &mut a2, &mut t, &mut Workspace::new(nb));

        // Original stacked matrix
        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &r1_0, 0, 0, nb, nb);
        stacked.copy_block(nb, 0, &a2_0, 0, 0, nb, nb);

        let mut r_new = r1.clone();
        r_new.zero_below_diagonal();
        let rec = reconstruct_stacked(&r_new, &a2, &t);
        let resid = frobenius_norm(&rec.sub(&stacked)) / (1.0 + frobenius_norm(&stacked));
        assert!(resid < TOL, "TSQRT reconstruction residual {resid}");
        assert!(r_new.is_upper_triangular());
    }

    #[test]
    fn tsqrt_reconstructs_real_and_complex() {
        for nb in [1usize, 2, 4, 8, 16] {
            check_tsqrt::<f64>(nb, 40 + nb as u64);
            check_tsqrt::<Complex64>(nb, 80 + nb as u64);
        }
    }

    fn check_ttqrt<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        let r1_0: Matrix<T> = {
            let mut m: Matrix<T> = random_matrix(nb, nb, seed);
            m.zero_below_diagonal();
            m
        };
        let r2_0: Matrix<T> = {
            let mut m: Matrix<T> = random_matrix(nb, nb, seed + 500);
            m.zero_below_diagonal();
            m
        };
        let mut r1 = r1_0.clone();
        let mut r2 = r2_0.clone();
        let mut t = Matrix::zeros(nb, nb);
        ttqrt_ws(&mut r1, &mut r2, &mut t, &mut Workspace::new(nb));

        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &r1_0, 0, 0, nb, nb);
        stacked.copy_block(nb, 0, &r2_0, 0, 0, nb, nb);

        let mut r_new = r1.clone();
        r_new.zero_below_diagonal();
        let rec = reconstruct_stacked(&r_new, &r2, &t);
        let resid = frobenius_norm(&rec.sub(&stacked)) / (1.0 + frobenius_norm(&stacked));
        assert!(resid < TOL, "TTQRT reconstruction residual {resid}");
        assert!(r_new.is_upper_triangular());
        // The Householder block V2 stays upper triangular — that is what makes
        // the TT kernels cheap.
        assert!(
            r2.is_upper_triangular(),
            "TTQRT V2 must stay upper triangular"
        );
    }

    #[test]
    fn ttqrt_reconstructs_real_and_complex() {
        for nb in [1usize, 2, 3, 8, 16] {
            check_ttqrt::<f64>(nb, 140 + nb as u64);
            check_ttqrt::<Complex64>(nb, 180 + nb as u64);
        }
    }

    #[test]
    fn ttqrt_with_zero_bottom_tile_is_identity_like() {
        let nb = 6;
        let r1_0: Matrix<f64> = random_upper_triangular(nb, 7);
        let mut r1 = r1_0.clone();
        let mut r2 = Matrix::<f64>::zeros(nb, nb);
        let mut t = Matrix::zeros(nb, nb);
        ttqrt_ws(&mut r1, &mut r2, &mut t, &mut Workspace::new(nb));
        // Nothing to annihilate if the diagonal of r1 is already "real
        // positive or negative": the reflectors may still flip signs, but the
        // reconstruction must hold and r2 must stay zero-ish in norm.
        let mut r_new = r1.clone();
        r_new.zero_below_diagonal();
        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &r1_0, 0, 0, nb, nb);
        let rec = reconstruct_stacked(&r_new, &r2, &t);
        assert!(frobenius_norm(&rec.sub(&stacked)) < TOL);
    }
}
