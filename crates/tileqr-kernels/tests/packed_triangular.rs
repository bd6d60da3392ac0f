//! Storage contracts of the structured tile kernels.
//!
//! * `pack → unpack` must be the identity on the upper triangle and must
//!   never touch the strictly lower half (which, in a real factorization,
//!   still holds the Householder vectors of an earlier GEQRT on the tile).
//! * The packed TTQRT production kernel must be **bitwise identical** to the
//!   dense-tile formulation at `ib = nb` (one panel, so no trailing block
//!   update): the packed layout changes where the triangle lives, not a
//!   single arithmetic operation of the in-panel sweep. The dense reference
//!   below is the pre-packing implementation, kept verbatim for comparison.
//! * **Ignored-storage invariance** of the update kernels. The structure of
//!   a reflector block exists only while its operands are packed: the `R`
//!   triangle sharing a GEQRT tile with `V`, the strictly lower half of a
//!   TT `V2`, and everything in `T` outside the upper triangle of each
//!   panel's `w × w` window are storage the block-reflector products must
//!   never read. Polluting all of it must not change a single output bit.

use tileqr_kernels::blas::dot_conj;
use tileqr_kernels::householder::larfg;
use tileqr_kernels::{geqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Trans, Workspace};
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::packed::{pack_upper_triangle, packed_len, unpack_upper_triangle};
use tileqr_matrix::{Complex64, Matrix, PackedUpperTriangular, Scalar};

/// Dense-tile TTQRT: the pre-packed-storage formulation, arithmetic order
/// identical to the production kernel at `ib = nb`.
fn ttqrt_dense<T: Scalar<Real = f64>>(r1: &mut Matrix<T>, r2: &mut Matrix<T>, t: &mut Matrix<T>) {
    let nb = r1.rows();
    let mut taus = vec![T::ZERO; nb];
    let mut tail = vec![T::ZERO; nb];
    for j in 0..nb {
        let len = j + 1;
        tail[..len].copy_from_slice(&r2.col(j)[..len]);
        let refl = larfg(r1.get(j, j), &mut tail[..len]);
        taus[j] = refl.tau;
        r1.set(j, j, refl.beta);
        r2.col_mut(j)[..len].copy_from_slice(&tail[..len]);
        if refl.tau.is_zero() {
            continue;
        }
        let tau_c = refl.tau.conj();
        for k in (j + 1)..nb {
            let w = r1.get(j, k) + dot_conj(&tail[..len], &r2.col(k)[..len]);
            let s = tau_c * w;
            r1.set(j, k, r1.get(j, k) - s);
            for (ci, &vi) in r2.col_mut(k)[..len].iter_mut().zip(&tail[..len]) {
                *ci -= vi * s;
            }
        }
    }
    // T from the triangular bottom block (dense column accesses).
    let mut wcol = vec![T::ZERO; nb];
    for j in 0..nb {
        for i in j..nb {
            t.set(i, j, T::ZERO);
        }
        if taus[j].is_zero() {
            for i in 0..j {
                t.set(i, j, T::ZERO);
            }
            continue;
        }
        let rows = j + 1;
        for a in 0..j {
            let lim = (a + 1).min(rows);
            wcol[a] = dot_conj(&r2.col(a)[..lim], &r2.col(j)[..lim]);
        }
        for i in 0..j {
            let mut acc = T::ZERO;
            for (a, &wa) in wcol[..j].iter().enumerate().skip(i) {
                acc += t.get(i, a) * wa;
            }
            t.set(i, j, -taus[j] * acc);
        }
        t.set(j, j, taus[j]);
    }
}

#[test]
fn pack_unpack_roundtrip_is_identity() {
    for (n, seed) in [(1usize, 1u64), (2, 2), (5, 3), (16, 4), (33, 5)] {
        let full: Matrix<Complex64> = random_matrix(n, n, seed);
        let mut buf = vec![Complex64::ZERO; packed_len(n)];
        pack_upper_triangle(&full, &mut buf);
        let mut out = full.clone();
        unpack_upper_triangle(&buf, &mut out);
        // identity on the whole tile: triangle restored, lower half kept
        assert_eq!(out, full, "pack → unpack must be the identity (n={n})");

        // and through the owning wrapper
        let p = PackedUpperTriangular::from_matrix(&full);
        let mut tri = full.clone();
        tri.zero_below_diagonal();
        assert_eq!(p.to_matrix(), tri);
    }
}

fn check_packed_matches_dense<T: RandomScalar>(nb: usize, seed: u64) {
    let mut r1_0: Matrix<T> = random_matrix(nb, nb, seed);
    r1_0.zero_below_diagonal();
    // Dense lower garbage stands in for the GEQRT vectors of a real run.
    let r2_0: Matrix<T> = random_matrix(nb, nb, seed + 1);

    // Production packed TTQRT (ib = nb workspace).
    let mut ws: Workspace<T> = Workspace::new(nb);
    let (mut r1_p, mut r2_p, mut t_p) = (r1_0.clone(), r2_0.clone(), Matrix::zeros(nb, nb));
    ttqrt_ws(&mut r1_p, &mut r2_p, &mut t_p, &mut ws);

    // Dense reference on a lower-zeroed copy (the dense formulation reads
    // only the triangle anyway, but keep the comparison honest).
    let (mut r1_d, mut r2_d, mut t_d) = (r1_0.clone(), r2_0.clone(), Matrix::zeros(nb, nb));
    ttqrt_dense(&mut r1_d, &mut r2_d, &mut t_d);

    assert_eq!(r1_p, r1_d, "TTQRT R1 packed vs dense, nb={nb}");
    assert_eq!(t_p, t_d, "TTQRT T packed vs dense, nb={nb}");
    // r2: triangle must agree bitwise; the packed path must keep the lower
    // half untouched while the dense path writes only windows too.
    for j in 0..nb {
        for i in 0..nb {
            if i <= j {
                assert_eq!(r2_p.get(i, j), r2_d.get(i, j), "V2 triangle ({i},{j})");
            } else {
                assert_eq!(r2_p.get(i, j), r2_0.get(i, j), "V2 lower half ({i},{j})");
            }
        }
    }
}

#[test]
fn packed_ttqrt_matches_dense_bitwise_f64() {
    for (nb, seed) in [
        (1usize, 10u64),
        (2, 11),
        (3, 12),
        (8, 13),
        (13, 14),
        (24, 15),
    ] {
        check_packed_matches_dense::<f64>(nb, seed);
    }
}

#[test]
fn packed_ttqrt_matches_dense_bitwise_complex() {
    for (nb, seed) in [(1usize, 20u64), (4, 21), (9, 22), (16, 23)] {
        check_packed_matches_dense::<Complex64>(nb, seed);
    }
}

/// Overwrites every entry of `t` outside the upper triangles of the panels'
/// `w × w` windows (rows `0..w` of columns `j0 .. j0+w`, `w ≤ ib`).
fn pollute_t_outside_windows<T: Scalar>(t: &mut Matrix<T>, ib: usize, junk: T) {
    for j in 0..t.cols() {
        let in_panel = j % ib;
        for i in 0..t.rows() {
            if i > in_panel {
                t.set(i, j, junk);
            }
        }
    }
}

fn check_ignored_storage<T: RandomScalar>(nb: usize, ib: usize, seed: u64) {
    let junk = T::from_real(-7.25e3);
    let mut ws: Workspace<T> = Workspace::with_inner_block(nb, ib);
    let c1_0: Matrix<T> = random_matrix(nb, nb + 3, seed + 2);
    let c2_0: Matrix<T> = random_matrix(nb, nb + 3, seed + 3);

    // GEQRT tile: V below the diagonal, R — to be ignored — on and above.
    // `t` is allocated nb × nb, so whole rows lie outside every window.
    let mut v: Matrix<T> = random_matrix(nb, nb, seed);
    let mut t = Matrix::zeros(nb, nb);
    geqrt_ws(&mut v, &mut t, &mut ws);
    let (mut v_dirty, mut t_dirty) = (v.clone(), t.clone());
    for j in 0..nb {
        for i in 0..=j {
            v_dirty.set(i, j, junk);
        }
    }
    pollute_t_outside_windows(&mut t_dirty, ib, junk);
    for trans in [Trans::ConjTrans, Trans::NoTrans] {
        let (mut clean, mut dirty) = (c1_0.clone(), c1_0.clone());
        unmqr_ws(&v, &t, &mut clean, trans, &mut ws);
        unmqr_ws(&v_dirty, &t_dirty, &mut dirty, trans, &mut ws);
        assert_eq!(
            clean, dirty,
            "UNMQR read R or T padding: nb={nb} ib={ib} {trans:?}"
        );
    }

    // TT pair: V2 in the upper triangle, the vectors of an earlier GEQRT —
    // to be ignored — strictly below.
    let mut r1: Matrix<T> = random_matrix(nb, nb, seed + 4);
    r1.zero_below_diagonal();
    let mut v2: Matrix<T> = random_matrix(nb, nb, seed + 5);
    let mut t = Matrix::zeros(nb, nb);
    ttqrt_ws(&mut r1, &mut v2, &mut t, &mut ws);
    let (mut v2_dirty, mut t_dirty) = (v2.clone(), t.clone());
    for j in 0..nb {
        for i in (j + 1)..nb {
            v2_dirty.set(i, j, junk);
        }
    }
    pollute_t_outside_windows(&mut t_dirty, ib, junk);
    for trans in [Trans::ConjTrans, Trans::NoTrans] {
        let (mut a1, mut a2) = (c1_0.clone(), c2_0.clone());
        let (mut b1, mut b2) = (c1_0.clone(), c2_0.clone());
        ttmqr_ws(&v2, &t, &mut a1, &mut a2, trans, &mut ws);
        ttmqr_ws(&v2_dirty, &t_dirty, &mut b1, &mut b2, trans, &mut ws);
        assert_eq!(
            a1, b1,
            "TTMQR C1 read ignored storage: nb={nb} ib={ib} {trans:?}"
        );
        assert_eq!(
            a2, b2,
            "TTMQR C2 read ignored storage: nb={nb} ib={ib} {trans:?}"
        );
    }
}

#[test]
fn update_kernels_never_read_ignored_storage() {
    for (nb, seed) in [(1usize, 30u64), (5, 31), (16, 32), (19, 33)] {
        for ib in [1usize, 3, nb] {
            check_ignored_storage::<f64>(nb, ib, seed);
            check_ignored_storage::<Complex64>(nb, ib, seed + 50);
        }
    }
}
