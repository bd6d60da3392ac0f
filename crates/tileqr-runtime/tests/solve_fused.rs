//! The fused least-squares plan ([`QrContext::solve`]: the right-hand side
//! rides the factorization DAG as a trailing tile column) against the
//! decomposed route it replaces (`factorize` → `apply_qh` → `r()` →
//! triangular solve).
//!
//! The two run the same kernels on the same `nb × k` row blocks in the same
//! per-block order, so they must agree **bitwise** — under every reduction
//! tree, both kernel families, ragged and exact shapes, both scalar types,
//! right-hand sides narrower and wider than a tile, at 1 and 4 threads. The factor half of a solve is likewise bitwise the plain
//! factorization. Agreement with the dense reference solver is checked to
//! 1e-8.

use tileqr_core::algorithms::Algorithm;
use tileqr_core::KernelFamily;
use tileqr_kernels::reference::least_squares_reference;
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::norms::frobenius_norm;
use tileqr_matrix::{Complex64, Matrix};
use tileqr_runtime::solve::{
    least_squares_solve, least_squares_solve_with, least_squares_with_factorization,
};
use tileqr_runtime::{qr_factorize, QrConfig, QrContext, QrPlan};

const ALGORITHMS: [Algorithm; 8] = [
    Algorithm::FlatTree,
    Algorithm::Fibonacci,
    Algorithm::Greedy,
    Algorithm::BinaryTree,
    Algorithm::PlasmaTree { bs: 2 },
    Algorithm::HadriTree { bs: 2 },
    Algorithm::Asap,
    Algorithm::Grasap { asap_cols: 1 },
];

/// `(m, n, nb, ib)`: exact multiples of the tile size, ragged edges in both
/// dimensions, a square matrix, and a single tile column.
const SHAPES: [(usize, usize, usize, usize); 4] =
    [(24, 12, 4, 2), (23, 9, 4, 4), (15, 15, 5, 2), (17, 3, 6, 3)];

/// The route the fused plan replaces, one public call at a time.
fn decomposed<T: RandomScalar>(
    ctx: &QrContext,
    plan: &QrPlan<T>,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Matrix<T> {
    let f = ctx.factorize(plan, a).unwrap();
    let c = f.apply_qh(b);
    let r = f.r();
    let mut x = Matrix::zeros(a.cols(), b.cols());
    for j in 0..b.cols() {
        x.col_mut(j)
            .copy_from_slice(&r.solve_upper_triangular(c.col(j)));
    }
    x
}

fn assert_fused_matches_decomposed<T: RandomScalar>(seed: u64) {
    let contexts: Vec<QrContext> = [1usize, 4]
        .into_iter()
        .map(|threads| QrContext::new(threads).unwrap())
        .collect();
    for (si, &(m, n, nb, ib)) in SHAPES.iter().enumerate() {
        let a: Matrix<T> = random_matrix(m, n, seed + si as u64);
        for algo in ALGORITHMS {
            for family in [KernelFamily::TT, KernelFamily::TS] {
                let config = QrConfig::new(nb)
                    .with_algorithm(algo)
                    .with_family(family)
                    .with_inner_block(ib);
                let plan: QrPlan<T> = QrPlan::new(m, n, config).unwrap();
                for k in [1, 3, nb, nb + 5] {
                    let b: Matrix<T> = random_matrix(m, k, seed + 1000 + k as u64);
                    // The sequential decomposed route is the reference for
                    // every context.
                    let expected = decomposed(&contexts[0], &plan, &a, &b);
                    for ctx in &contexts {
                        let x = ctx.solve(&plan, &a, &b).unwrap();
                        assert_eq!(
                            x,
                            expected,
                            "{m}x{n} nb={nb} ib={ib} k={k} {} {family:?}, {} threads",
                            algo.name(),
                            ctx.threads()
                        );
                    }
                    for j in 0..k {
                        let reference = least_squares_reference(&a, b.col(j));
                        for (got, want) in expected.col(j).iter().zip(&reference) {
                            assert!(
                                (*got - *want).abs() < 1e-8,
                                "{m}x{n} nb={nb} k={k} {} {family:?}: {got} vs {want}",
                                algo.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn fused_solve_is_bitwise_the_decomposed_route_f64() {
    assert_fused_matches_decomposed::<f64>(40);
}

#[test]
fn fused_solve_is_bitwise_the_decomposed_route_complex() {
    assert_fused_matches_decomposed::<Complex64>(41);
}

/// The three entry points from `(A, b)` are one implementation, and they
/// agree with the route through a factorization handle.
#[test]
fn every_solve_entry_point_agrees_bitwise() {
    let (m, n, nb) = (37usize, 11usize, 5usize);
    let a: Matrix<f64> = random_matrix(m, n, 60);
    let b: Matrix<f64> = random_matrix(m, 1, 61);
    let config = QrConfig::new(nb).with_threads(3);
    let plan: QrPlan<f64> = QrPlan::new(m, n, config).unwrap();
    let ctx = QrContext::new(3).unwrap();
    let x = ctx.solve(&plan, &a, &b).unwrap();
    assert_eq!(x.shape(), (n, 1));
    assert_eq!(
        least_squares_solve_with(&ctx, &plan, &a, b.as_slice()).unwrap(),
        x.as_slice()
    );
    assert_eq!(least_squares_solve(&a, b.as_slice(), config), x.as_slice());
    let f = qr_factorize(&a, config);
    assert_eq!(
        least_squares_with_factorization(&f, b.as_slice()),
        x.as_slice()
    );
}

/// A solve parks its tile buffer and `T` storage in the plan; neither that
/// nor an interleaved factorization of the same plan may change a bit, and
/// the factorization's own tiles must not notice the solve schedule.
#[test]
fn solves_and_factorizations_share_a_plan_without_interfering() {
    let (m, n, nb) = (26usize, 10usize, 4usize);
    let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
    let ctx = QrContext::new(2).unwrap();
    let reference = qr_factorize(&random_matrix::<f64>(m, n, 70), QrConfig::new(nb));
    let mut first = None;
    for round in 0..4u64 {
        // A different matrix through the parked buffer between repeats.
        let other: Matrix<f64> = random_matrix(m, n, 80 + round);
        ctx.solve(&plan, &other, &random_matrix(m, 2, 90 + round))
            .unwrap();
        let a: Matrix<f64> = random_matrix(m, n, 70);
        let x = ctx.solve(&plan, &a, &random_matrix(m, 2, 71)).unwrap();
        assert_eq!(first.get_or_insert_with(|| x.clone()), &x);
        let f = ctx.factorize(&plan, &a).unwrap();
        assert_eq!(f.factored_tiles(), reference.factored_tiles());
    }
}

#[test]
fn empty_right_hand_side_gives_an_empty_solution() {
    let plan: QrPlan<f64> = QrPlan::new(12, 5, QrConfig::new(4)).unwrap();
    let ctx = QrContext::new(2).unwrap();
    let x = ctx
        .solve(&plan, &random_matrix(12, 5, 1), &Matrix::zeros(12, 0))
        .unwrap();
    assert_eq!(x.shape(), (5, 0));
}

/// Narrow and wider-than-a-tile replays against an explicit dense `Q`
/// (`k = 1` and `k = nb + 5`; both used to be padded to whole tiles).
#[test]
fn apply_q_and_qh_match_a_dense_q_at_narrow_and_wide_widths() {
    fn check<T: RandomScalar>(seed: u64) {
        let (m, n, nb) = (22usize, 9usize, 4usize);
        let a: Matrix<T> = random_matrix(m, n, seed);
        for family in [KernelFamily::TT, KernelFamily::TS] {
            let f = qr_factorize(&a, QrConfig::new(nb).with_family(family));
            // Q as a dense m × m matrix. It is *the* Q of this
            // factorization if it is unitary and QᴴA = [R; 0].
            let q = f.apply_q(&Matrix::identity(m));
            let qh = q.conj_transpose();
            assert!(frobenius_norm(&qh.matmul(&q).sub(&Matrix::identity(m))) < 1e-12);
            let mut r_padded = Matrix::zeros(m, n);
            r_padded.copy_block(0, 0, &f.r(), 0, 0, n, n);
            assert!(frobenius_norm(&qh.matmul(&a).sub(&r_padded)) < 1e-11);
            for k in [1, nb + 5] {
                let b: Matrix<T> = random_matrix(m, k, seed + k as u64);
                let scale = frobenius_norm(&b);
                let dq = frobenius_norm(&f.apply_q(&b).sub(&q.matmul(&b)));
                let dqh = frobenius_norm(&f.apply_qh(&b).sub(&qh.matmul(&b)));
                assert!(dq < 1e-12 * scale, "{family:?} k={k}: Q·b off by {dq}");
                assert!(dqh < 1e-12 * scale, "{family:?} k={k}: Qᴴ·b off by {dqh}");
            }
        }
    }
    check::<f64>(100);
    check::<Complex64>(101);
}
