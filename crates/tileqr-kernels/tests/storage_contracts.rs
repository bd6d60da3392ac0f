//! Storage contracts of the tile kernels, which work on their tiles in
//! place and own only part of them.
//!
//! * TTQRT at `ib = nb` (one panel, so no trailing block update) must be
//!   **bitwise identical** to the plain dense-tile formulation below: the
//!   kernel runs the same recursive panel — leaf sweeps, `T` recurrences
//!   and block products — on the same entries, in the same order; a dense
//!   tile holds explicit zeros where the kernel's packing writes them. A
//!   tile of at most one leaf is the column sweep alone.
//! * **Ignored-storage invariance of the update kernels.** The structure of
//!   a reflector block exists only while its operands are packed: the `R`
//!   triangle sharing a GEQRT tile with `V`, the strictly lower half of a
//!   TT `V2`, and everything in `T` outside the upper triangle of each
//!   panel's `w × w` window are storage the block-reflector products must
//!   never read. Polluting all of it must not change a single output bit.
//!   The pollution is NaN, so even a read the packer multiplies by an
//!   implied zero poisons the outputs.
//! * **Ignored-storage invariance of the factorization kernels.** In a real
//!   run the strictly lower half of a TSQRT/TTQRT pivot `R1`, and of
//!   TTQRT's `R2`, holds the Householder vectors of an earlier GEQRT, and
//!   `T` outside the panel windows is not the kernel's either. Polluting
//!   that storage must not change a single output bit, and it must come
//!   back untouched — at `ib < nb` the trailing block update of TTQRT
//!   writes into `R2`'s triangle directly.

use tileqr_kernels::blas::dot_conj;
use tileqr_kernels::householder::larfg;
use tileqr_kernels::microblas::{apack_len, bpack_len, gemm_into, AForm, AMode};
use tileqr_kernels::{geqrt_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Trans, Workspace};
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::{Complex64, Matrix, Scalar};

/// Leaf width of the kernels' recursive panel: a panel wider than this is
/// split in two, its left half rounded up to whole leaves.
const LEAF: usize = 16;

/// Dense-tile TTQRT at `ib = nb`: the production kernel's recursive panel
/// on the triangles held as plain dense tiles (`v` is `R2`'s triangle with
/// explicit zeros below it), each product on full columns.
fn ttqrt_dense<T: Scalar<Real = f64>>(r1: &mut Matrix<T>, r2: &mut Matrix<T>, t: &mut Matrix<T>) {
    let nb = r1.rows();
    let mut v = Matrix::from_fn(nb, nb, |i, j| if i <= j { r2.get(i, j) } else { T::ZERO });
    dense_panel(r1, &mut v, t, 0, nb);
    for j in 0..nb {
        r2.col_mut(j)[..=j].copy_from_slice(&v.col(j)[..=j]);
    }
}

/// Columns `a .. a+n` of the dense TT pair `[r1; v]`, their `T` at rows
/// `a ..`, columns `a ..` of `t`.
fn dense_panel<T: Scalar<Real = f64>>(
    r1: &mut Matrix<T>,
    v: &mut Matrix<T>,
    t: &mut Matrix<T>,
    a: usize,
    n: usize,
) {
    if n <= LEAF {
        return dense_leaf(r1, v, t, a, n);
    }
    let n1 = (n / 2).next_multiple_of(LEAF);
    let (n2, b) = (n - n1, a + n1);
    dense_panel(r1, v, t, a, n1);
    // The left half's `Qᴴ` on the right half's columns: `W` is their
    // `r1` rows `a..b` plus `Vᴴ·v` over rows `0..b`, `W₂ = T₁₁ᴴ·W`, and
    // `[r1 rows; v] −= [W₂; V·W₂]`.
    let (nb, rows) = (v.rows(), b);
    let (mut w, mut w2) = (Matrix::zeros(n1, n2), Matrix::zeros(n1, n2));
    let (mut ap, mut bp) = (
        vec![T::ZERO; apack_len::<T>(nb, nb)],
        vec![T::ZERO; bpack_len::<T>(nb, nb)],
    );
    for j in 0..n2 {
        w.col_mut(j).copy_from_slice(&r1.col(b + j)[a..b]);
    }
    let ld = n1;
    let vs = v.as_slice();
    gemm_into(
        n1,
        n2,
        rows,
        AMode::ConjTrans,
        AForm::Dense,
        |i| &vs[(a + i) * nb..][..rows],
        |j| &vs[(b + j) * nb..][..rows],
        w.as_mut_slice(),
        |j| j * ld,
        false,
        &mut ap,
        &mut bp,
    );
    let ts = t.as_slice();
    let tld = t.rows();
    gemm_into(
        n1,
        n2,
        n1,
        AMode::ConjTrans,
        AForm::Dense,
        |i| &ts[(a + i) * tld + a..][..=i],
        |j| w.col(j),
        w2.as_mut_slice(),
        |j| j * ld,
        false,
        &mut ap,
        &mut bp,
    );
    for j in 0..n2 {
        for (x, &y) in r1.col_mut(b + j)[a..b].iter_mut().zip(w2.col(j)) {
            *x -= y;
        }
    }
    let (left, right) = v.as_mut_slice().split_at_mut(b * nb);
    gemm_into(
        rows,
        n2,
        n1,
        AMode::NoTrans,
        AForm::Dense,
        |p| &left[(a + p) * nb..][..rows],
        |j| w2.col(j),
        right,
        |j| j * nb,
        true,
        &mut ap,
        &mut bp,
    );
    dense_panel(r1, v, t, b, n2);
    // T₁₂ := −T₁₁·(V₁ᴴ·V₂)·T₂₂, the window below the halves zero.
    let (mut y, mut z) = (Matrix::zeros(n2, n1), Matrix::zeros(n1, n2));
    let vs = v.as_slice();
    gemm_into(
        n2,
        n1,
        b,
        AMode::ConjTrans,
        AForm::Dense,
        |i| &vs[(b + i) * nb..][..b],
        |j| &vs[(a + j) * nb..][..b],
        y.as_mut_slice(),
        |j| j * n2,
        false,
        &mut ap,
        &mut bp,
    );
    for j in a..b {
        t.col_mut(j)[b..b + n2].fill(T::ZERO);
    }
    let ts = t.as_slice();
    gemm_into(
        n1,
        n2,
        n2,
        AMode::ConjTrans,
        AForm::Dense,
        |i| y.col(i),
        |j| &ts[(b + j) * tld + b..][..=j],
        z.as_mut_slice(),
        |j| j * n1,
        false,
        &mut ap,
        &mut bp,
    );
    let (t1, t2) = t.as_mut_slice().split_at_mut(b * tld);
    for j in 0..n2 {
        t2[j * tld + a..][..n1].fill(T::ZERO);
    }
    gemm_into(
        n1,
        n2,
        n1,
        AMode::NoTrans,
        AForm::Dense,
        |p| &t1[(a + p) * tld + a..][..=p],
        |j| z.col(j),
        t2,
        |j| j * tld + a,
        true,
        &mut ap,
        &mut bp,
    );
}

/// The column sweep of a leaf and its `T` recurrence, on dense columns.
fn dense_leaf<T: Scalar<Real = f64>>(
    r1: &mut Matrix<T>,
    r2: &mut Matrix<T>,
    t: &mut Matrix<T>,
    a: usize,
    n: usize,
) {
    let (j1, mut taus, mut tail) = (a + n, vec![T::ZERO; n], vec![T::ZERO; r2.rows()]);
    for j in a..j1 {
        let len = j + 1;
        tail[..len].copy_from_slice(&r2.col(j)[..len]);
        let refl = larfg(r1.get(j, j), &mut tail[..len]);
        taus[j - a] = refl.tau;
        r1.set(j, j, refl.beta);
        r2.col_mut(j)[..len].copy_from_slice(&tail[..len]);
        if refl.tau.is_zero() {
            continue;
        }
        let tau_c = refl.tau.conj();
        for k in (j + 1)..j1 {
            let w = r1.get(j, k) + dot_conj(&tail[..len], &r2.col(k)[..len]);
            let s = tau_c * w;
            r1.set(j, k, r1.get(j, k) - s);
            for (ci, &vi) in r2.col_mut(k)[..len].iter_mut().zip(&tail[..len]) {
                *ci -= vi * s;
            }
        }
    }
    // T from the triangular bottom block (dense column accesses).
    let mut wcol = vec![T::ZERO; n];
    for jj in 0..n {
        let j = a + jj;
        for i in a..j1 {
            t.set(i, j, T::ZERO);
        }
        if taus[jj].is_zero() {
            continue;
        }
        for ii in 0..jj {
            let lim = a + ii + 1;
            wcol[ii] = dot_conj(&r2.col(a + ii)[..lim], &r2.col(j)[..lim]);
        }
        for i in 0..jj {
            let mut acc = T::ZERO;
            for (idx, &wa) in wcol[..jj].iter().enumerate().skip(i) {
                acc += t.get(a + i, a + idx) * wa;
            }
            t.set(a + i, j, -taus[jj] * acc);
        }
        t.set(j, j, taus[jj]);
    }
}

fn check_ttqrt_matches_dense<T: RandomScalar>(nb: usize, seed: u64) {
    let mut r1_0: Matrix<T> = random_matrix(nb, nb, seed);
    r1_0.zero_below_diagonal();
    // Dense lower garbage stands in for the GEQRT vectors of a real run.
    let r2_0: Matrix<T> = random_matrix(nb, nb, seed + 1);

    // Production TTQRT (ib = nb workspace).
    let mut ws: Workspace<T> = Workspace::new(nb);
    let (mut r1_p, mut r2_p, mut t_p) = (r1_0.clone(), r2_0.clone(), Matrix::zeros(nb, nb));
    ttqrt_ws(&mut r1_p, &mut r2_p, &mut t_p, &mut ws);

    let (mut r1_d, mut r2_d, mut t_d) = (r1_0.clone(), r2_0.clone(), Matrix::zeros(nb, nb));
    ttqrt_dense(&mut r1_d, &mut r2_d, &mut t_d);

    assert_eq!(r1_p, r1_d, "TTQRT R1 kernel vs dense, nb={nb}");
    assert_eq!(t_p, t_d, "TTQRT T kernel vs dense, nb={nb}");
    // Both write only R2's triangle: the whole tile must agree.
    assert_eq!(r2_p, r2_d, "TTQRT R2 kernel vs dense, nb={nb}");
}

#[test]
fn ttqrt_matches_the_dense_formulation_bitwise_f64() {
    for (nb, seed) in [
        (1usize, 10u64),
        (2, 11),
        (3, 12),
        (8, 13),
        (13, 14),
        (24, 15),
        (40, 16),
    ] {
        check_ttqrt_matches_dense::<f64>(nb, seed);
    }
}

#[test]
fn ttqrt_matches_the_dense_formulation_bitwise_complex() {
    for (nb, seed) in [(1usize, 20u64), (4, 21), (9, 22), (16, 23), (33, 24)] {
        check_ttqrt_matches_dense::<Complex64>(nb, seed);
    }
}

/// Whether entry `(i, j)` of an `ib`-blocked `T` factor of a tile of order
/// `nb` lies in its panel's window (rows `0..w` of the panel's columns).
fn in_window(nb: usize, ib: usize, i: usize, j: usize) -> bool {
    i < ib.min(nb - j / ib * ib)
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

/// Overwrites the strictly lower half of a square tile.
fn pollute_strictly_lower<T: Scalar>(m: &mut Matrix<T>, junk: T) {
    for j in 0..m.cols() {
        for i in (j + 1)..m.rows() {
            m.set(i, j, junk);
        }
    }
}

fn check_ignored_storage<T: RandomScalar>(nb: usize, ib: usize, seed: u64) {
    let junk = T::from_real(f64::NAN);
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
    pollute_strictly_lower(&mut v2_dirty, junk);
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

/// The signature TSQRT and TTQRT share.
type PairFactor<T> = fn(&mut Matrix<T>, &mut Matrix<T>, &mut Matrix<T>, &mut Workspace<T>);

/// Equal, or both NaN (the pollution).
fn same<T: Scalar>(a: T, b: T) -> bool {
    a == b || (a.is_nan() && b.is_nan())
}

fn check_panel_ignored_storage<T: RandomScalar>(nb: usize, ib: usize, seed: u64) {
    let junk = T::from_real(f64::NAN);
    let mut ws: Workspace<T> = Workspace::with_inner_block(nb, ib);
    let kernels: [(&str, PairFactor<T>, bool); 2] =
        [("TSQRT", tsqrt_ws, false), ("TTQRT", ttqrt_ws, true)];
    for (name, kernel, triangular) in kernels {
        let mut r1: Matrix<T> = random_matrix(nb, nb, seed);
        r1.zero_below_diagonal();
        let mut x2: Matrix<T> = random_matrix(nb, nb, seed + 1);
        if triangular {
            x2.zero_below_diagonal();
        }
        let (mut r1_clean, mut x2_clean, mut t_clean) =
            (r1.clone(), x2.clone(), Matrix::zeros(nb, nb));
        kernel(&mut r1_clean, &mut x2_clean, &mut t_clean, &mut ws);

        // R1's (and a TT R2's) strictly lower half stands in for GEQRT's
        // V; `t` is junk everywhere, so whole rows lie outside every window.
        pollute_strictly_lower(&mut r1, junk);
        if triangular {
            pollute_strictly_lower(&mut x2, junk);
        }
        let mut t = Matrix::from_fn(nb, nb, |_, _| junk);
        kernel(&mut r1, &mut x2, &mut t, &mut ws);

        let at = |i: usize, j: usize| format!("{name} nb={nb} ib={ib} at ({i},{j})");
        for j in 0..nb {
            for i in 0..nb {
                let upper = i <= j;
                let want = if upper { r1_clean.get(i, j) } else { junk };
                assert!(same(r1.get(i, j), want), "R1: {}", at(i, j));
                let want = if upper || !triangular {
                    x2_clean.get(i, j)
                } else {
                    junk
                };
                assert!(same(x2.get(i, j), want), "V2: {}", at(i, j));
                let want = if in_window(nb, ib, i, j) {
                    t_clean.get(i, j)
                } else {
                    junk
                };
                assert!(same(t.get(i, j), want), "T: {}", at(i, j));
            }
        }
    }
}

#[test]
fn factor_kernels_never_touch_ignored_storage() {
    for (nb, seed) in [(1usize, 40u64), (5, 41), (16, 42), (19, 43)] {
        for ib in [1usize, 3, nb] {
            check_panel_ignored_storage::<f64>(nb, ib, seed);
            check_panel_ignored_storage::<Complex64>(nb, ib, seed + 50);
        }
    }
}
