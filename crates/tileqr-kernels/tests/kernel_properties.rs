//! Property tests of the sequential tile kernels: for a sweep of tile sizes
//! and seeds, every factorization kernel must produce an exact-in-precision
//! QR factorization of its stacked input, and every update kernel must apply
//! the very transformation its factorization kernel computed.

use tileqr_kernels::reference::householder_qr;
use tileqr_kernels::{
    geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Trans, Workspace,
};
use tileqr_matrix::generate::random_matrix;
use tileqr_matrix::norms::{frobenius_norm, orthogonality_residual};
use tileqr_matrix::{Complex64, Matrix, Scalar};

const TOL: f64 = 1e-11;

/// The (nb, seed) sweep standing in for the original proptest strategies.
fn cases(max_nb: usize) -> Vec<(usize, u64)> {
    let sizes = [1usize, 2, 3, 4, 5, 7, 8, 11, 12, 16, 24];
    let mut out = Vec::new();
    for &nb in sizes.iter().filter(|&&nb| nb <= max_nb) {
        for seed in 0..3u64 {
            out.push((nb, 9973 * nb as u64 + seed));
        }
    }
    out
}

/// Explicit 2nb × 2nb Q for a TS/TT block reflector with bottom block V2.
fn explicit_q_stacked<T: Scalar<Real = f64>>(v2: &Matrix<T>, t: &Matrix<T>) -> Matrix<T> {
    let nb = v2.rows();
    let mut v = Matrix::zeros(2 * nb, nb);
    for j in 0..nb {
        v.set(j, j, T::ONE);
    }
    v.copy_block(nb, 0, v2, 0, 0, nb, nb);
    Matrix::<T>::identity(2 * nb).sub(&v.matmul(&t.matmul(&v.conj_transpose())))
}

fn stack<T: Scalar<Real = f64>>(top: &Matrix<T>, bottom: &Matrix<T>) -> Matrix<T> {
    let nb = top.rows();
    let mut s = Matrix::zeros(2 * nb, top.cols());
    s.copy_block(0, 0, top, 0, 0, nb, top.cols());
    s.copy_block(nb, 0, bottom, 0, 0, nb, top.cols());
    s
}

#[test]
fn geqrt_is_a_qr_factorization() {
    for (nb, seed) in cases(24) {
        let a0: Matrix<f64> = random_matrix(nb, nb, seed);
        let mut a = a0.clone();
        let mut t = Matrix::zeros(nb, nb);
        geqrt_ws(&mut a, &mut t, &mut Workspace::new(nb));
        let mut r = a.clone();
        r.zero_below_diagonal();
        let v = Matrix::from_fn(nb, nb, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                a.get(i, j)
            } else {
                0.0
            }
        });
        let q = Matrix::<f64>::identity(nb).sub(&v.matmul(&t.matmul(&v.conj_transpose())));
        assert!(orthogonality_residual(&q) < TOL, "nb={nb} seed={seed}");
        assert!(
            frobenius_norm(&q.matmul(&r).sub(&a0)) < TOL * (1.0 + frobenius_norm(&a0)),
            "nb={nb} seed={seed}"
        );
        // R agrees with the unblocked reference (same sign convention)
        let reference = householder_qr(&a0);
        assert!(
            frobenius_norm(&r.sub(&reference.r)) < 1e-9 * (1.0 + frobenius_norm(&reference.r)),
            "nb={nb} seed={seed}"
        );
    }
}

#[test]
fn tsqrt_and_tsmqr_are_consistent() {
    for (nb, seed) in cases(16) {
        let mut r1: Matrix<Complex64> = random_matrix(nb, nb, seed);
        r1.zero_below_diagonal();
        let a2: Matrix<Complex64> = random_matrix(nb, nb, seed + 1);
        let stacked = stack(&r1, &a2);

        let mut r_new = r1.clone();
        let mut v2 = a2.clone();
        let mut t = Matrix::zeros(nb, nb);
        tsqrt_ws(&mut r_new, &mut v2, &mut t, &mut Workspace::new(nb));
        r_new.zero_below_diagonal();

        // the block reflector is unitary and reproduces the stacked input
        let q = explicit_q_stacked(&v2, &t);
        assert!(orthogonality_residual(&q) < TOL, "nb={nb} seed={seed}");
        let mut rz = Matrix::zeros(2 * nb, nb);
        rz.copy_block(0, 0, &r_new, 0, 0, nb, nb);
        assert!(
            frobenius_norm(&q.matmul(&rz).sub(&stacked)) < TOL * (1.0 + frobenius_norm(&stacked)),
            "nb={nb} seed={seed}"
        );

        // TSMQR applies exactly Qᴴ to an independent tile pair
        let c1: Matrix<Complex64> = random_matrix(nb, nb, seed + 2);
        let c2: Matrix<Complex64> = random_matrix(nb, nb, seed + 3);
        let mut u1 = c1.clone();
        let mut u2 = c2.clone();
        tsmqr_ws(
            &v2,
            &t,
            &mut u1,
            &mut u2,
            Trans::ConjTrans,
            &mut Workspace::new(nb),
        );
        let expected = q.conj_transpose().matmul(&stack(&c1, &c2));
        assert!(
            frobenius_norm(&stack(&u1, &u2).sub(&expected))
                < TOL * (1.0 + frobenius_norm(&expected)),
            "nb={nb} seed={seed}"
        );
    }
}

#[test]
fn ttqrt_and_ttmqr_are_consistent() {
    for (nb, seed) in cases(16) {
        let mut r1: Matrix<f64> = random_matrix(nb, nb, seed);
        r1.zero_below_diagonal();
        let mut r2: Matrix<f64> = random_matrix(nb, nb, seed + 1);
        r2.zero_below_diagonal();
        let stacked = stack(&r1, &r2);

        let mut r_new = r1.clone();
        let mut v2 = r2.clone();
        let mut t = Matrix::zeros(nb, nb);
        ttqrt_ws(&mut r_new, &mut v2, &mut t, &mut Workspace::new(nb));
        r_new.zero_below_diagonal();
        // the Householder block stays upper triangular — the property that
        // makes the TT kernels cheap
        assert!(v2.is_upper_triangular(), "nb={nb} seed={seed}");

        let q = explicit_q_stacked(&v2, &t);
        assert!(orthogonality_residual(&q) < TOL, "nb={nb} seed={seed}");
        let mut rz = Matrix::zeros(2 * nb, nb);
        rz.copy_block(0, 0, &r_new, 0, 0, nb, nb);
        assert!(
            frobenius_norm(&q.matmul(&rz).sub(&stacked)) < TOL * (1.0 + frobenius_norm(&stacked)),
            "nb={nb} seed={seed}"
        );

        let c1: Matrix<f64> = random_matrix(nb, nb, seed + 2);
        let c2: Matrix<f64> = random_matrix(nb, nb, seed + 3);
        let mut u1 = c1.clone();
        let mut u2 = c2.clone();
        ttmqr_ws(
            &v2,
            &t,
            &mut u1,
            &mut u2,
            Trans::ConjTrans,
            &mut Workspace::new(nb),
        );
        let expected = q.conj_transpose().matmul(&stack(&c1, &c2));
        assert!(
            frobenius_norm(&stack(&u1, &u2).sub(&expected))
                < TOL * (1.0 + frobenius_norm(&expected)),
            "nb={nb} seed={seed}"
        );
    }
}

#[test]
fn unmqr_roundtrip_and_norm_preservation() {
    for (nb, seed) in cases(24) {
        let mut a: Matrix<Complex64> = random_matrix(nb, nb, seed);
        let mut t = Matrix::zeros(nb, nb);
        let mut ws = Workspace::new(nb);
        geqrt_ws(&mut a, &mut t, &mut ws);
        let c0: Matrix<Complex64> = random_matrix(nb, 3.min(nb), seed + 1);
        let mut c = c0.clone();
        unmqr_ws(&a, &t, &mut c, Trans::ConjTrans, &mut ws);
        // unitary application preserves the Frobenius norm
        assert!(
            (frobenius_norm(&c) - frobenius_norm(&c0)).abs() < TOL * (1.0 + frobenius_norm(&c0)),
            "nb={nb} seed={seed}"
        );
        unmqr_ws(&a, &t, &mut c, Trans::NoTrans, &mut ws);
        assert!(
            frobenius_norm(&c.sub(&c0)) < TOL * (1.0 + frobenius_norm(&c0)),
            "nb={nb} seed={seed}"
        );
    }
}
