//! Cross-crate integration tests: every reduction tree × kernel family ×
//! matrix shape must produce a numerically correct QR factorization, and the
//! multi-threaded runtime must agree with the sequential one.

use tiled_qr::core::algorithms::Algorithm;
use tiled_qr::core::KernelFamily;
use tiled_qr::matrix::generate::{random_matrix, RandomScalar};
use tiled_qr::matrix::norms::frobenius_norm;
use tiled_qr::matrix::{Complex64, Matrix};
use tiled_qr::runtime::driver::{qr_factorize, QrConfig};

const TOL: f64 = 1e-11;

fn all_algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::FlatTree,
        Algorithm::Fibonacci,
        Algorithm::Greedy,
        Algorithm::BinaryTree,
        Algorithm::PlasmaTree { bs: 1 },
        Algorithm::PlasmaTree { bs: 3 },
        Algorithm::PlasmaTree { bs: 100 },
        Algorithm::HadriTree { bs: 2 },
        Algorithm::HadriTree { bs: 4 },
        Algorithm::Asap,
        Algorithm::Grasap { asap_cols: 1 },
        Algorithm::Grasap { asap_cols: 2 },
    ]
}

fn check<T: RandomScalar>(
    m: usize,
    n: usize,
    nb: usize,
    algo: Algorithm,
    family: KernelFamily,
    seed: u64,
) {
    let a: Matrix<T> = random_matrix(m, n, seed);
    let config = QrConfig::new(nb).with_algorithm(algo).with_family(family);
    let f = qr_factorize(&a, config);
    assert!(
        f.r().is_upper_triangular(),
        "{}/{}: R not triangular",
        algo.name(),
        family.name()
    );
    let resid = f.residual(&a);
    assert!(
        resid < TOL,
        "{}/{} on {m}x{n} nb={nb}: residual {resid}",
        algo.name(),
        family.name()
    );
    let ortho = f.orthogonality();
    assert!(
        ortho < TOL,
        "{}/{} on {m}x{n} nb={nb}: orthogonality {ortho}",
        algo.name(),
        family.name()
    );
}

#[test]
fn every_algorithm_factorizes_a_tall_real_matrix() {
    for (i, algo) in all_algorithms().into_iter().enumerate() {
        for family in [KernelFamily::TT, KernelFamily::TS] {
            check::<f64>(36, 12, 6, algo, family, 100 + i as u64);
        }
    }
}

#[test]
fn every_algorithm_factorizes_a_square_complex_matrix() {
    for (i, algo) in all_algorithms().into_iter().enumerate() {
        check::<Complex64>(18, 18, 6, algo, KernelFamily::TT, 200 + i as u64);
    }
}

#[test]
fn odd_shapes_with_padding() {
    // dimensions that are not multiples of the tile size
    for (m, n, nb) in [
        (37usize, 11usize, 8usize),
        (25, 25, 6),
        (50, 7, 16),
        (9, 2, 4),
    ] {
        check::<f64>(
            m,
            n,
            nb,
            Algorithm::Greedy,
            KernelFamily::TT,
            300 + m as u64,
        );
        check::<f64>(
            m,
            n,
            nb,
            Algorithm::FlatTree,
            KernelFamily::TS,
            400 + m as u64,
        );
    }
}

#[test]
fn extreme_tile_sizes() {
    // nb = 1 degenerates to a scalar Givens-like scheme; nb larger than the
    // matrix gives a single tile.
    check::<f64>(12, 5, 1, Algorithm::Greedy, KernelFamily::TT, 500);
    check::<f64>(12, 5, 64, Algorithm::Greedy, KernelFamily::TT, 501);
    check::<Complex64>(10, 4, 1, Algorithm::Fibonacci, KernelFamily::TT, 502);
}

#[test]
fn parallel_runtime_matches_sequential_bitwise() {
    // The parallel schedule executes exactly the same kernels on the same
    // tiles (only the interleaving differs), so R must match to the last bit.
    let a: Matrix<f64> = random_matrix(48, 24, 600);
    for algo in [
        Algorithm::Greedy,
        Algorithm::Fibonacci,
        Algorithm::PlasmaTree { bs: 2 },
    ] {
        let seq = qr_factorize(&a, QrConfig::new(8).with_algorithm(algo));
        for threads in [2usize, 3, 8] {
            let par = qr_factorize(
                &a,
                QrConfig::new(8).with_algorithm(algo).with_threads(threads),
            );
            assert_eq!(seq.r(), par.r(), "{} with {threads} threads", algo.name());
        }
    }
}

#[test]
fn parallel_helper_produces_valid_factorization() {
    let a: Matrix<f64> = random_matrix(40, 16, 700);
    let f = qr_factorize(&a, QrConfig::new(8).with_threads(4));
    assert!(f.residual(&a) < TOL);
}

#[test]
fn different_trees_give_the_same_r_up_to_signs() {
    // R factors from different elimination trees can differ only by unitary
    // diagonal scaling (signs in the real case): |R[i][i]| must agree, and
    // |R^H R| = |A^H A| regardless of the tree.
    let a: Matrix<f64> = random_matrix(30, 10, 800);
    let r1 = qr_factorize(&a, QrConfig::new(5).with_algorithm(Algorithm::Greedy)).r();
    let r2 = qr_factorize(&a, QrConfig::new(5).with_algorithm(Algorithm::FlatTree)).r();
    let g1 = r1.conj_transpose().matmul(&r1);
    let g2 = r2.conj_transpose().matmul(&r2);
    let diff = frobenius_norm(&g1.sub(&g2)) / frobenius_norm(&g1);
    assert!(diff < 1e-12, "Gram matrices differ by {diff}");
    for i in 0..10 {
        assert!((r1.get(i, i).abs() - r2.get(i, i).abs()).abs() < 1e-10);
    }
}

#[test]
fn prelude_exports_are_usable() {
    use tiled_qr::prelude::*;
    let a: Matrix<f64> = random_matrix(16, 8, 900);
    let f = qr_factorize(
        &a,
        tiled_qr::runtime::driver::QrConfig::new(4)
            .with_algorithm(Algorithm::Greedy)
            .with_family(KernelFamily::TT),
    );
    assert!(f.residual(&a) < TOL);
    let b: Vec<f64> = (0..16).map(|i| i as f64).collect();
    let x = least_squares_solve(&a, &b, tiled_qr::runtime::driver::QrConfig::new(4));
    assert_eq!(x.len(), 8);
}
