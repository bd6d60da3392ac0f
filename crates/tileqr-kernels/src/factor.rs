//! Factorization kernels: [`geqrt`], [`tsqrt`] and [`ttqrt`].
//!
//! These are the three ways the paper introduces zeros (Section 2.1):
//!
//! * [`geqrt`] — *"factor square into triangle"*: ordinary QR of one tile.
//! * [`tsqrt`] — *"zero square with triangle on top"*: QR of the 2·nb × nb
//!   matrix formed by an upper-triangular tile stacked on a full tile
//!   (the TS kernel family).
//! * [`ttqrt`] — *"zero triangle with triangle on top"*: QR of two stacked
//!   upper-triangular tiles (the TT kernel family), which costs a third of
//!   [`tsqrt`] and is the building block of the new algorithms.
//!
//! Each kernel overwrites its inputs with the `R` factor and the Householder
//! vectors, and produces the upper triangular `T` factor(s) of the compact WY
//! representation that the corresponding update kernel
//! ([`crate::unmqr`], [`crate::tsmqr`], [`crate::ttmqr`]) consumes.
//!
//! # Inner blocking
//!
//! All three kernels are PLASMA-style inner-blocked: the tile is factored in
//! panels of `ib` columns (`ib` comes from the [`Workspace`]). Within a
//! panel the reflectors are generated and applied column by column (the
//! Level-2 sweep, on [`crate::blas::dot_conj`]); the *trailing* columns of
//! the tile are then updated once per panel with the same block-reflector
//! primitive the update kernels use — `W += VᴴC`, `W₂ := Tᴴ·W`,
//! `C −= V·W₂`, three products on the register-tiled [`crate::microblas`]
//! backend — with the panel's own columns as `V` (a `split_at_mut` of the
//! tile keeps them readable while the trailing columns are written). The
//! `w × w` panel factors are stored `ib`-blocked: panel `s` (columns
//! `j0 .. j0+w`) occupies rows `0..w` of columns `j0 .. j0+w` of `t`, so
//! `t` needs only `ib` rows. With `ib = nb` (the default workspace) there
//! is a single panel and no trailing update.
//!
//! [`ttqrt_ws`] additionally packs the triangular tile being annihilated
//! into the workspace's packed column-major triangular scratch
//! ([`tileqr_matrix::packed`]) for the duration of the kernel: packing reads
//! only the triangle (the strictly-lower Householder vectors of an earlier
//! GEQRT on the same tile are never touched), every column access inside the
//! elimination loop is contiguous — a packed column is exactly the short
//! column the block reflector wants — and the result is unpacked back into
//! the triangle on exit.

use tileqr_matrix::packed::{
    pack_upper_triangle, packed_col, packed_col_mut, packed_len, packed_off, unpack_upper_triangle,
};
use tileqr_matrix::{Matrix, Scalar};

use crate::blas::dot_conj;
use crate::householder::{larfg, larft_panel_from_tile};
use crate::reflector::{apply_panel, PivotRows};
use crate::workspace::Workspace;

/// GEQRT: in-place QR factorization of a square `nb × nb` tile.
///
/// Allocating convenience wrapper around [`geqrt_ws`]; builds a fresh
/// [`Workspace`] per call (with `ib = nb`, i.e. unblocked). Hot paths (the
/// runtime) reuse a per-worker workspace instead.
///
/// Paper cost: `4` units of `nb³/3` flops.
pub fn geqrt<T: Scalar<Real = f64>>(a: &mut Matrix<T>, t: &mut Matrix<T>) {
    geqrt_ws(a, t, &mut Workspace::new(a.rows()));
}

/// GEQRT with caller-provided scratch: zero heap allocations.
///
/// On exit `a` holds `R` in its upper triangle and the Householder vectors
/// `V` (unit diagonal implicit) in its strictly lower part; `t` receives the
/// `ib`-blocked block-reflector factors (one `w × w` upper triangle per
/// panel of `w ≤ ib` columns, at rows `0..w` of the panel's columns), so it
/// must have at least `min(ib, nb)` rows and `nb` columns.
pub fn geqrt_ws<T: Scalar<Real = f64>>(
    a: &mut Matrix<T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    let nb = a.rows();
    assert_eq!(a.cols(), nb, "GEQRT operates on square tiles");
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

    let mut j0 = 0;
    while j0 < nb {
        let w = ib.min(nb - j0);
        let j1 = j0 + w;
        // --- factor the panel columns ---
        let tail = &mut tail[..nb];
        for jj in 0..w {
            let j = j0 + jj;
            // Generate the reflector annihilating a[j+1.., j].
            let tail_len = nb - j - 1;
            tail[..tail_len].copy_from_slice(&a.col(j)[j + 1..nb]);
            let refl = larfg(a.get(j, j), &mut tail[..tail_len]);
            tau[jj] = refl.tau;
            a.set(j, j, refl.beta);
            a.col_mut(j)[j + 1..nb].copy_from_slice(&tail[..tail_len]);
            // Apply Hᴴ to the remaining columns of the panel.
            if refl.tau.is_zero() {
                continue;
            }
            let tau_c = refl.tau.conj();
            for k in (j + 1)..j1 {
                let col = a.col_mut(k);
                let wv = col[j] + dot_conj(&tail[..tail_len], &col[j + 1..nb]);
                let s = tau_c * wv;
                col[j] -= s;
                for (ci, &vi) in col[j + 1..nb].iter_mut().zip(&tail[..tail_len]) {
                    *ci -= vi * s;
                }
            }
        }
        // --- panel T factor (V is implicit in the tile) ---
        larft_panel_from_tile(a, j0, w, &tau[..w], t, wcol);
        // --- trailing update: C(:, j1..) ← (I − V·T·Vᴴ)ᴴ · C(:, j1..) ---
        if j1 < nb {
            // V lives in columns j0..j1 of the tile, the targets in j1..nb:
            // split the storage so both can be accessed at once.
            let (left, right) = a.as_mut_slice().split_at_mut(j1 * nb);
            apply_panel(
                |i| &left[(j0 + i) * nb + j0..(j0 + i + 1) * nb],
                nb - j0,
                None,
                t,
                j0,
                w,
                true,
                right,
                |j| j * nb + j0,
                nb - j1,
                panel,
            );
        }
        j0 = j1;
    }
}

/// TSQRT: QR factorization of `[R1; A2]`, where `R1` is the upper triangular
/// tile produced by an earlier [`geqrt`]/[`tsqrt`] on the pivot row and `A2`
/// is a full square tile to be annihilated.
///
/// On exit `r1` holds the updated `R` factor, `a2` holds the (dense) bottom
/// parts `V2` of the Householder vectors (the top parts form an identity and
/// are implicit), and `t` receives the `ib`-blocked block-reflector factors.
///
/// Paper cost: `6` units of `nb³/3` flops.
///
/// Allocating convenience wrapper around [`tsqrt_ws`].
pub fn tsqrt<T: Scalar<Real = f64>>(r1: &mut Matrix<T>, a2: &mut Matrix<T>, t: &mut Matrix<T>) {
    tsqrt_ws(r1, a2, t, &mut Workspace::new(r1.rows()));
}

/// TSQRT with caller-provided scratch: zero heap allocations.
pub fn tsqrt_ws<T: Scalar<Real = f64>>(
    r1: &mut Matrix<T>,
    a2: &mut Matrix<T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    let nb = r1.rows();
    assert_eq!(r1.cols(), nb, "TSQRT pivot tile must be square");
    assert_eq!(
        a2.shape(),
        (nb, nb),
        "TSQRT target tile must match the pivot tile"
    );
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

    let tail = &mut tail[..nb];
    let mut j0 = 0;
    while j0 < nb {
        let w = ib.min(nb - j0);
        let j1 = j0 + w;
        // --- factor the panel columns ---
        for jj in 0..w {
            let j = j0 + jj;
            // Reflector on [r1[j,j]; a2[:, j]] — the tail is the whole column.
            tail.copy_from_slice(a2.col(j));
            let refl = larfg(r1.get(j, j), tail);
            tau[jj] = refl.tau;
            r1.set(j, j, refl.beta);
            a2.col_mut(j).copy_from_slice(tail);

            if refl.tau.is_zero() {
                continue;
            }
            let tau_c = refl.tau.conj();
            // Apply Hᴴ to the remaining panel columns of [R1; A2].
            for k in (j + 1)..j1 {
                // w = r1[j,k] + v2ᴴ · a2[:,k]
                let wv = r1.get(j, k) + dot_conj(tail, a2.col(k));
                let s = tau_c * wv;
                r1.set(j, k, r1.get(j, k) - s);
                for (ci, &vi) in a2.col_mut(k).iter_mut().zip(tail.iter()) {
                    *ci -= vi * s;
                }
            }
        }
        // --- panel T factor from the dense bottom block ---
        build_t_panel_ts(a2, j0, w, &tau[..w], t, wcol);
        // --- trailing update of [R1; A2] columns j1..nb ---
        if j1 < nb {
            // V2 lives in columns j0..j1 of a2, the targets in j1..nb; the
            // identity block acts on R1[j0..j1, j1..nb].
            let (left, right) = a2.as_mut_slice().split_at_mut(j1 * nb);
            apply_panel(
                |i| &left[(j0 + i) * nb..(j0 + i + 1) * nb],
                nb,
                Some(PivotRows {
                    c1: r1.as_mut_slice(),
                    start: j1 * nb + j0,
                    ld: nb,
                }),
                t,
                j0,
                w,
                true,
                right,
                |j| j * nb,
                nb - j1,
                panel,
            );
        }
        j0 = j1;
    }
}

/// TTQRT: QR factorization of `[R1; R2]` where **both** tiles are upper
/// triangular. This is the cheap kernel that makes the TT algorithm family
/// attractive: only the leading `j+1` rows of column `j` of `R2` are nonzero,
/// so the reflectors and the updates stay within the upper triangle.
///
/// On exit `r1` holds the updated `R` factor, `r2` holds the (upper
/// triangular) bottom parts `V2` of the Householder vectors, and `t` receives
/// the `ib`-blocked block-reflector factors.
///
/// Paper cost: `2` units of `nb³/3` flops.
///
/// Allocating convenience wrapper around [`ttqrt_ws`].
pub fn ttqrt<T: Scalar<Real = f64>>(r1: &mut Matrix<T>, r2: &mut Matrix<T>, t: &mut Matrix<T>) {
    ttqrt_ws(r1, r2, t, &mut Workspace::new(r1.rows()));
}

/// TTQRT with caller-provided scratch: zero heap allocations.
///
/// The triangular tile `r2` is packed into the workspace's column-major
/// packed triangular scratch for the duration of the kernel — only its upper
/// triangle is read and written (the strictly lower part, which still holds
/// the Householder vectors of the earlier GEQRT on that tile, is untouched),
/// and every elimination-loop column access is contiguous.
pub fn ttqrt_ws<T: Scalar<Real = f64>>(
    r1: &mut Matrix<T>,
    r2: &mut Matrix<T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    let nb = r1.rows();
    assert_eq!(r1.cols(), nb, "TTQRT pivot tile must be square");
    assert_eq!(
        r2.shape(),
        (nb, nb),
        "TTQRT target tile must match the pivot tile"
    );
    ws.require(nb);
    let ib = ws.ib_for(nb);
    assert!(t.rows() >= ib && t.cols() >= nb, "T factor too small");
    let Workspace {
        tau,
        tail,
        wcol,
        panel,
        tri,
        ..
    } = ws;
    let tri = &mut tri[..packed_len(nb)];
    pack_upper_triangle(r2, tri);

    let mut j0 = 0;
    while j0 < nb {
        let w = ib.min(nb - j0);
        let j1 = j0 + w;
        // --- factor the panel columns (all accesses packed-contiguous) ---
        for jj in 0..w {
            let j = j0 + jj;
            // Only the upper triangle of r2 is referenced: rows 0..=j of
            // column j, which is exactly the packed column.
            let len = j + 1;
            tail[..len].copy_from_slice(packed_col(tri, j));
            let refl = larfg(r1.get(j, j), &mut tail[..len]);
            tau[jj] = refl.tau;
            r1.set(j, j, refl.beta);
            packed_col_mut(tri, j).copy_from_slice(&tail[..len]);

            if refl.tau.is_zero() {
                continue;
            }
            let tau_c = refl.tau.conj();
            for k in (j + 1)..j1 {
                let wv = r1.get(j, k) + dot_conj(&tail[..len], &packed_col(tri, k)[..len]);
                let s = tau_c * wv;
                r1.set(j, k, r1.get(j, k) - s);
                for (ci, &vi) in packed_col_mut(tri, k)[..len].iter_mut().zip(&tail[..len]) {
                    *ci -= vi * s;
                }
            }
        }
        // --- panel T factor from the packed trapezoid ---
        build_t_panel_tt(tri, j0, w, &tau[..w], t, wcol);
        // --- trailing update of [R1; R2] columns j1..nb ---
        if j1 < nb {
            // V2 (packed columns j0..j1) is read while the packed trailing
            // columns are updated: split the packed buffer between them.
            // Every trailing column holds at least the j1 rows the panel
            // spans; the panel's own columns end at their diagonal.
            let base = packed_off(j1);
            let (vpart, cpart) = tri.split_at_mut(base);
            apply_panel(
                |i| packed_col(vpart, j0 + i),
                j1,
                Some(PivotRows {
                    c1: r1.as_mut_slice(),
                    start: j1 * nb + j0,
                    ld: nb,
                }),
                t,
                j0,
                w,
                true,
                cpart,
                |j| packed_off(j1 + j) - base,
                nb - j1,
                panel,
            );
        }
        j0 = j1;
    }

    unpack_upper_triangle(tri, r2);
}

/// Builds the panel `T` factor for TSQRT reflectors `[e_j; v2_j]`: the
/// identity top parts contribute nothing to the inner products, so `T_s`
/// only depends on the dense bottom block `V2` (columns `j0 .. j0+w` of
/// `a2`). Written `ib`-blocked into rows `0..w` of those columns of `t`.
fn build_t_panel_ts<T: Scalar<Real = f64>>(
    v2: &Matrix<T>,
    j0: usize,
    w: usize,
    taus: &[T],
    t: &mut Matrix<T>,
    wcol: &mut [T],
) {
    let nb = v2.rows();
    assert!(wcol.len() >= w, "scratch column too short");
    for jj in 0..w {
        let j = j0 + jj;
        for i in jj..w {
            t.set(i, j, T::ZERO);
        }
        if taus[jj].is_zero() {
            for i in 0..jj {
                t.set(i, j, T::ZERO);
            }
            continue;
        }
        let vj = v2.col(j);
        // w = V2(:, j0..j0+jj)ᴴ · v2_j
        for (ii, wa) in wcol.iter_mut().enumerate().take(jj) {
            *wa = dot_conj(&v2.col(j0 + ii)[..nb], &vj[..nb]);
        }
        for i in 0..jj {
            let mut acc = T::ZERO;
            for (idx, &wa) in wcol[..jj].iter().enumerate().skip(i) {
                acc += t.get(i, j0 + idx) * wa;
            }
            t.set(i, j, -taus[jj] * acc);
        }
        t.set(jj, j, taus[jj]);
    }
}

/// Builds the panel `T` factor for TTQRT reflectors from the packed upper
/// trapezoid: column `j0+ii` has `j0+ii+1` packed entries, which is exactly
/// the inner-product range the triangle restricts to.
fn build_t_panel_tt<T: Scalar<Real = f64>>(
    tri: &[T],
    j0: usize,
    w: usize,
    taus: &[T],
    t: &mut Matrix<T>,
    wcol: &mut [T],
) {
    assert!(wcol.len() >= w, "scratch column too short");
    for jj in 0..w {
        let j = j0 + jj;
        for i in jj..w {
            t.set(i, j, T::ZERO);
        }
        if taus[jj].is_zero() {
            for i in 0..jj {
                t.set(i, j, T::ZERO);
            }
            continue;
        }
        let vj = packed_col(tri, j);
        for (ii, wa) in wcol.iter_mut().enumerate().take(jj) {
            let va = packed_col(tri, j0 + ii);
            let lim = va.len();
            *wa = dot_conj(va, &vj[..lim]);
        }
        for i in 0..jj {
            let mut acc = T::ZERO;
            for (idx, &wa) in wcol[..jj].iter().enumerate().skip(i) {
                acc += t.get(i, j0 + idx) * wa;
            }
            t.set(i, j, -taus[jj] * acc);
        }
        t.set(jj, j, taus[jj]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::generate::{random_matrix, random_upper_triangular};
    use tileqr_matrix::norms::{factorization_residual, frobenius_norm, orthogonality_residual};
    use tileqr_matrix::Complex64;

    use crate::reference::{householder_qr, DenseQr};

    const TOL: f64 = 1e-12;

    /// Reconstructs the 2nb × nb matrix factored by tsqrt/ttqrt from its
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

    fn check_geqrt<T: Scalar<Real = f64>>(a0: Matrix<T>) {
        let nb = a0.rows();
        let mut a = a0.clone();
        let mut t = Matrix::zeros(nb, nb);
        geqrt(&mut a, &mut t);
        // R = upper triangle of a
        let mut r = a.clone();
        r.zero_below_diagonal();
        // V = unit lower
        let v = Matrix::from_fn(nb, nb, |i, j| {
            if i == j {
                T::ONE
            } else if i > j {
                a.get(i, j)
            } else {
                T::ZERO
            }
        });
        // Q = I − V·T·Vᴴ ; A must equal Q·R
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
        geqrt(&mut tile, &mut t);
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
        tsqrt(&mut r1, &mut a2, &mut t);

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
        ttqrt(&mut r1, &mut r2, &mut t);

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
        ttqrt(&mut r1, &mut r2, &mut t);
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

    #[test]
    fn ttqrt_preserves_the_strictly_lower_half_of_r2() {
        // In a real factorization the lower half of the annihilated tile
        // still holds the Householder vectors of the earlier GEQRT; the
        // packed path must never read or write them.
        let nb = 8;
        let mut r1: Matrix<f64> = random_upper_triangular(nb, 70);
        let mut r2: Matrix<f64> = random_matrix(nb, nb, 71); // lower half = "GEQRT vectors"
        let below = r2.clone();
        let mut t = Matrix::zeros(nb, nb);
        ttqrt(&mut r1, &mut r2, &mut t);
        for j in 0..nb {
            for i in (j + 1)..nb {
                assert_eq!(
                    r2.get(i, j),
                    below.get(i, j),
                    "TTQRT touched the strictly lower half at ({i},{j})"
                );
            }
        }
    }
}
