//! Property tests pinning a reused workspace to a fresh one: on identical
//! random tiles every kernel must produce results **bitwise identical**
//! (exact `==` on every f64 / Complex64 component) whether it runs on a
//! workspace allocated for the call or on one shared by the whole sweep,
//! for both scalar types.
//!
//! The shared workspace is deliberately polluted between calls to prove
//! that no kernel depends on the workspace's incoming contents.

use tileqr_kernels::{
    geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Trans, Workspace,
};
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::{Complex64, Matrix};

fn cases() -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    for &nb in &[1usize, 2, 3, 5, 8, 13, 16, 24, 32] {
        for seed in 0..2u64 {
            out.push((nb, 31 * nb as u64 + seed));
        }
    }
    out
}

/// Scribbles over the workspace buffers via a throwaway factorization so a
/// later mismatch would expose any kernel that reads stale workspace state.
fn pollute<T: RandomScalar>(ws: &mut Workspace<T>, nb: usize, seed: u64) {
    let mut junk: Matrix<T> = random_matrix(nb, nb, seed ^ 0xDEAD);
    let mut t = Matrix::zeros(nb, nb);
    geqrt_ws(&mut junk, &mut t, ws);
}

fn check_all_kernels<T: RandomScalar>(nb: usize, seed: u64, ws: &mut Workspace<T>) {
    let fresh = || Workspace::<T>::new(nb);

    // GEQRT
    let a0: Matrix<T> = random_matrix(nb, nb, seed);
    let mut a_fresh = a0.clone();
    let mut t_fresh = Matrix::zeros(nb, nb);
    geqrt_ws(&mut a_fresh, &mut t_fresh, &mut fresh());
    let mut a_ws = a0.clone();
    let mut t_ws = Matrix::zeros(nb, nb);
    pollute(ws, nb, seed);
    geqrt_ws(&mut a_ws, &mut t_ws, ws);
    assert_eq!(a_fresh, a_ws, "GEQRT tile mismatch nb={nb} seed={seed}");
    assert_eq!(t_fresh, t_ws, "GEQRT T mismatch nb={nb} seed={seed}");

    // TSQRT
    let mut r1_0: Matrix<T> = random_matrix(nb, nb, seed + 1);
    r1_0.zero_below_diagonal();
    let a2_0: Matrix<T> = random_matrix(nb, nb, seed + 2);
    let (mut r1_a, mut a2_a, mut t_a) = (r1_0.clone(), a2_0.clone(), Matrix::zeros(nb, nb));
    tsqrt_ws(&mut r1_a, &mut a2_a, &mut t_a, &mut fresh());
    let (mut r1_w, mut a2_w, mut t_w) = (r1_0.clone(), a2_0.clone(), Matrix::zeros(nb, nb));
    pollute(ws, nb, seed + 2);
    tsqrt_ws(&mut r1_w, &mut a2_w, &mut t_w, ws);
    assert_eq!(r1_a, r1_w, "TSQRT R1 mismatch nb={nb} seed={seed}");
    assert_eq!(a2_a, a2_w, "TSQRT V2 mismatch nb={nb} seed={seed}");
    assert_eq!(t_a, t_w, "TSQRT T mismatch nb={nb} seed={seed}");

    // TSMQR (both transposes)
    let c1_0: Matrix<T> = random_matrix(nb, nb, seed + 3);
    let c2_0: Matrix<T> = random_matrix(nb, nb, seed + 4);
    for trans in [Trans::ConjTrans, Trans::NoTrans] {
        let (mut c1_a, mut c2_a) = (c1_0.clone(), c2_0.clone());
        tsmqr_ws(&a2_a, &t_a, &mut c1_a, &mut c2_a, trans, &mut fresh());
        let (mut c1_w, mut c2_w) = (c1_0.clone(), c2_0.clone());
        pollute(ws, nb, seed + 4);
        tsmqr_ws(&a2_a, &t_a, &mut c1_w, &mut c2_w, trans, ws);
        assert_eq!(
            c1_a, c1_w,
            "TSMQR C1 mismatch nb={nb} seed={seed} {trans:?}"
        );
        assert_eq!(
            c2_a, c2_w,
            "TSMQR C2 mismatch nb={nb} seed={seed} {trans:?}"
        );
    }

    // TTQRT
    let mut r2_0: Matrix<T> = random_matrix(nb, nb, seed + 5);
    r2_0.zero_below_diagonal();
    let (mut q1_a, mut q2_a, mut tt_a) = (r1_0.clone(), r2_0.clone(), Matrix::zeros(nb, nb));
    ttqrt_ws(&mut q1_a, &mut q2_a, &mut tt_a, &mut fresh());
    let (mut q1_w, mut q2_w, mut tt_w) = (r1_0.clone(), r2_0.clone(), Matrix::zeros(nb, nb));
    pollute(ws, nb, seed + 5);
    ttqrt_ws(&mut q1_w, &mut q2_w, &mut tt_w, ws);
    assert_eq!(q1_a, q1_w, "TTQRT R1 mismatch nb={nb} seed={seed}");
    assert_eq!(q2_a, q2_w, "TTQRT V2 mismatch nb={nb} seed={seed}");
    assert_eq!(tt_a, tt_w, "TTQRT T mismatch nb={nb} seed={seed}");

    // TTMQR (both transposes)
    for trans in [Trans::ConjTrans, Trans::NoTrans] {
        let (mut c1_a, mut c2_a) = (c1_0.clone(), c2_0.clone());
        ttmqr_ws(&q2_a, &tt_a, &mut c1_a, &mut c2_a, trans, &mut fresh());
        let (mut c1_w, mut c2_w) = (c1_0.clone(), c2_0.clone());
        pollute(ws, nb, seed + 6);
        ttmqr_ws(&q2_a, &tt_a, &mut c1_w, &mut c2_w, trans, ws);
        assert_eq!(
            c1_a, c1_w,
            "TTMQR C1 mismatch nb={nb} seed={seed} {trans:?}"
        );
        assert_eq!(
            c2_a, c2_w,
            "TTMQR C2 mismatch nb={nb} seed={seed} {trans:?}"
        );
    }

    // UNMQR (both transposes), on a factored tile
    let c0: Matrix<T> = random_matrix(nb, nb, seed + 7);
    for trans in [Trans::ConjTrans, Trans::NoTrans] {
        let mut c_a = c0.clone();
        unmqr_ws(&a_fresh, &t_fresh, &mut c_a, trans, &mut fresh());
        let mut c_w = c0.clone();
        pollute(ws, nb, seed + 7);
        unmqr_ws(&a_fresh, &t_fresh, &mut c_w, trans, ws);
        assert_eq!(c_a, c_w, "UNMQR mismatch nb={nb} seed={seed} {trans:?}");
    }
}

#[test]
fn reused_workspace_matches_a_fresh_one_bitwise_f64() {
    let mut ws: Workspace<f64> = Workspace::new(32);
    for (nb, seed) in cases() {
        check_all_kernels::<f64>(nb, seed, &mut ws);
    }
}

#[test]
fn reused_workspace_matches_a_fresh_one_bitwise_complex() {
    let mut ws: Workspace<Complex64> = Workspace::new(32);
    for (nb, seed) in cases() {
        check_all_kernels::<Complex64>(nb, seed, &mut ws);
    }
}

#[test]
fn wide_and_narrow_targets_match_through_panel_chunking() {
    // UNMQR/TSMQR accept targets wider than nb: they are chunked in
    // nb-column panels, on a reused workspace as on a fresh one.
    let nb = 6;
    let mut ws: Workspace<f64> = Workspace::new(nb);
    let mut v: Matrix<f64> = random_matrix(nb, nb, 99);
    let mut t = Matrix::zeros(nb, nb);
    geqrt_ws(&mut v, &mut t, &mut Workspace::new(nb));
    for ncols in [1usize, 2, 5, 6, 7, 13, 20] {
        let c0: Matrix<f64> = random_matrix(nb, ncols, 100 + ncols as u64);
        let mut c_a = c0.clone();
        unmqr_ws(&v, &t, &mut c_a, Trans::ConjTrans, &mut Workspace::new(nb));
        let mut c_w = c0.clone();
        unmqr_ws(&v, &t, &mut c_w, Trans::ConjTrans, &mut ws);
        assert_eq!(c_a, c_w, "UNMQR width {ncols}");
    }
}

#[test]
fn oversized_workspace_serves_smaller_tiles() {
    // One worker may serve factorizations with different tile sizes: a
    // workspace sized for a bigger nb must produce identical results.
    let mut big: Workspace<f64> = Workspace::new(64);
    let mut exact: Workspace<f64> = Workspace::new(8);
    let a0: Matrix<f64> = random_matrix(8, 8, 7);
    let mut a_big = a0.clone();
    let mut t_big = Matrix::zeros(8, 8);
    geqrt_ws(&mut a_big, &mut t_big, &mut big);
    let mut a_exact = a0.clone();
    let mut t_exact = Matrix::zeros(8, 8);
    geqrt_ws(&mut a_exact, &mut t_exact, &mut exact);
    assert_eq!(a_big, a_exact);
    assert_eq!(t_big, t_exact);
}
