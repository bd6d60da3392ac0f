//! Error paths of the session API (`QrContext`/`QrPlan`) and the contract
//! that the legacy free functions keep their documented panicking behavior.

use tileqr_core::algorithms::Algorithm;
use tileqr_matrix::generate::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::context::MAX_THREADS;
use tileqr_runtime::solve::{least_squares_solve, least_squares_solve_with};
use tileqr_runtime::{qr_factorize, QrConfig, QrContext, QrError, QrPlan};

#[test]
fn wide_matrices_are_reported_not_panicked() {
    let err = QrPlan::<f64>::new(4, 8, QrConfig::new(2)).unwrap_err();
    assert_eq!(err, QrError::WideMatrix { m: 4, n: 8 });
    assert!(err.to_string().contains("m ≥ n"));
}

#[test]
fn zero_tile_size_is_reported() {
    assert_eq!(
        QrPlan::<f64>::new(8, 4, QrConfig::new(0)).unwrap_err(),
        QrError::ZeroTileSize
    );
}

#[test]
fn zero_domain_size_is_reported() {
    for algorithm in [
        Algorithm::PlasmaTree { bs: 0 },
        Algorithm::HadriTree { bs: 0 },
    ] {
        let err =
            QrPlan::<f64>::new(64, 32, QrConfig::new(8).with_algorithm(algorithm)).unwrap_err();
        assert_eq!(err, QrError::ZeroDomainSize, "{algorithm:?}");
        assert!(!err.is_transient());
    }
}

#[test]
fn thread_count_bounds_are_enforced() {
    assert_eq!(QrContext::new(0).unwrap_err(), QrError::ZeroThreads);
    let err = QrContext::new(MAX_THREADS + 1).unwrap_err();
    assert_eq!(
        err,
        QrError::TooManyThreads {
            requested: MAX_THREADS + 1,
            max: MAX_THREADS
        }
    );
    // (The MAX_THREADS boundary itself is covered by a unit test on the
    // crate-internal validation, without spawning 1024 workers.)
    assert!(QrContext::new(2).is_ok());
}

#[test]
fn non_conforming_dense_matrix_is_reported() {
    let ctx = QrContext::new(1).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(16, 8, QrConfig::new(4)).unwrap();
    for (m, n) in [(16usize, 12usize), (12, 8), (8, 16)] {
        let a: Matrix<f64> = random_matrix(m, n, 1);
        assert_eq!(
            ctx.factorize(&plan, &a).unwrap_err(),
            QrError::ShapeMismatch {
                expected: (16, 8),
                got: (m, n)
            }
        );
    }
}

#[test]
fn non_conforming_tile_grid_is_reported() {
    let ctx = QrContext::new(1).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(16, 8, QrConfig::new(4)).unwrap();
    // Wrong grid and wrong tile size both fail with the plan's expectation.
    let mut small = TiledMatrix::<f64>::zeros(2, 2, 4);
    assert_eq!(
        ctx.factorize_into(&plan, &mut small).unwrap_err(),
        QrError::PlanMismatch {
            expected: (4, 2, 4),
            got: (2, 2, 4)
        }
    );
    let mut wrong_nb = TiledMatrix::<f64>::zeros(4, 2, 8);
    assert_eq!(
        ctx.factorize_into(&plan, &mut wrong_nb).unwrap_err(),
        QrError::PlanMismatch {
            expected: (4, 2, 4),
            got: (4, 2, 8)
        }
    );
    // A failed factorize_into must leave the caller's tiles untouched.
    assert_eq!(wrong_nb, TiledMatrix::<f64>::zeros(4, 2, 8));
}

#[test]
fn rhs_length_mismatch_is_reported() {
    let ctx = QrContext::new(1).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(12, 4, QrConfig::new(4)).unwrap();
    let a: Matrix<f64> = random_matrix(12, 4, 2);
    let b = vec![0.0; 11];
    assert_eq!(
        least_squares_solve_with(&ctx, &plan, &a, &b).unwrap_err(),
        QrError::RhsLength {
            expected: 12,
            got: 11
        }
    );
}

#[test]
fn context_solve_matches_the_one_shot_solve() {
    let ctx = QrContext::new(2).unwrap();
    let config = QrConfig::new(4);
    let plan: QrPlan<f64> = QrPlan::new(20, 8, config).unwrap();
    let a: Matrix<f64> = random_matrix(20, 8, 3);
    let b: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();
    let x_ctx = least_squares_solve_with(&ctx, &plan, &a, &b).unwrap();
    let x_legacy = tileqr_runtime::least_squares_solve(&a, &b, config);
    assert_eq!(x_ctx, x_legacy, "context solve must be bitwise identical");
}

#[test]
fn solve_checks_both_operands_against_the_plan() {
    let ctx = QrContext::new(1).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(12, 4, QrConfig::new(4)).unwrap();
    let a: Matrix<f64> = random_matrix(12, 4, 2);
    assert_eq!(
        ctx.solve(&plan, &random_matrix(12, 3, 2), &random_matrix(12, 2, 3)),
        Err(QrError::ShapeMismatch {
            expected: (12, 4),
            got: (12, 3)
        })
    );
    assert_eq!(
        ctx.solve(&plan, &a, &random_matrix(11, 2, 3)),
        Err(QrError::RhsLength {
            expected: 12,
            got: 11
        })
    );
    assert!(ctx.solve(&plan, &a, &random_matrix(12, 2, 3)).is_ok());
}

/// `check_finite` covers both operands of a solve: a NaN or infinity in the
/// right-hand side is rejected with its coordinates in `b` (`a` is scanned
/// first, so its coordinates win when both are bad). Without the option the
/// value flows through, as for `factorize`.
#[test]
fn solve_scans_the_right_hand_side_when_the_plan_checks_finiteness() {
    let ctx = QrContext::new(2).unwrap();
    let checked: QrPlan<f64> =
        QrPlan::new(64, 16, QrConfig::new(16).with_check_finite(true)).unwrap();
    let unchecked: QrPlan<f64> = QrPlan::new(64, 16, QrConfig::new(16)).unwrap();
    let a: Matrix<f64> = random_matrix(64, 16, 4);
    let clean: Matrix<f64> = random_matrix(64, 2, 5);
    for (bad, at) in [(f64::NAN, (5, 0)), (f64::INFINITY, (63, 1))] {
        let mut b = clean.clone();
        b.set(at.0, at.1, bad);
        assert_eq!(
            ctx.solve(&checked, &a, &b),
            Err(QrError::NonFiniteInput {
                row: at.0,
                col: at.1
            })
        );
        let x = ctx.solve(&unchecked, &a, &b).expect("not scanned");
        assert!(
            x.as_slice().iter().any(|v| !v.is_finite()),
            "the non-finite value reaches the solution"
        );
    }
    let mut bad_a = a.clone();
    bad_a.set(9, 3, f64::NAN);
    let mut bad_b = clean.clone();
    bad_b.set(0, 0, f64::NAN);
    assert_eq!(
        ctx.solve(&checked, &bad_a, &bad_b),
        Err(QrError::NonFiniteInput { row: 9, col: 3 })
    );
    assert!(ctx.solve(&checked, &a, &clean).is_ok());
}

/// An exactly rank-deficient matrix (a zero column, a duplicated column
/// block): the fallible solves say so, the legacy ones panic.
#[test]
fn rank_deficient_matrices_are_reported_as_singular_r() {
    let (m, n, nb) = (20usize, 8usize, 4usize);
    let ctx = QrContext::new(2).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
    let b: Vec<f64> = random_matrix::<f64>(m, 1, 3).as_slice().to_vec();

    // A zero column: its diagonal entry of R is exactly zero.
    let mut zero_col: Matrix<f64> = random_matrix(m, n, 1);
    zero_col.col_mut(5).fill(0.0);
    let err = least_squares_solve_with(&ctx, &plan, &zero_col, &b).unwrap_err();
    assert_eq!(err, QrError::SingularR { index: 5 });
    assert!(!err.is_transient());
    assert!(err.to_string().contains("singular"));
    assert_eq!(
        ctx.solve(&plan, &zero_col, &Matrix::from_col_major(m, 1, b.clone())),
        Err(QrError::SingularR { index: 5 })
    );

    // The second tile column a copy of the first. In general rounding leaves
    // tiny non-zero pivots behind such a cancellation; here every column has
    // a single power-of-two entry (in a different tile row each), so every
    // reflector is a signed permutation, the arithmetic is exact, and the
    // trailing block of R is exactly zero.
    let mut dup: Matrix<f64> = Matrix::zeros(m, n);
    for j in 0..nb {
        let value = [1.0, 2.0, 0.5, 4.0][j];
        dup.set((7 * j + 3) % m, j, value);
        dup.set((7 * j + 3) % m, nb + j, value);
    }
    // Back substitution runs from the last row up.
    assert_eq!(
        least_squares_solve_with(&ctx, &plan, &dup, &b),
        Err(QrError::SingularR { index: n - 1 })
    );

    // The plan is unharmed: a full-rank solve right after succeeds.
    let good: Matrix<f64> = random_matrix(m, n, 2);
    assert!(least_squares_solve_with(&ctx, &plan, &good, &b).is_ok());

    // The legacy wrapper re-raises the rendered error.
    let legacy = std::panic::catch_unwind(|| least_squares_solve(&zero_col, &b, QrConfig::new(nb)));
    let payload = legacy.expect_err("the legacy solve panics on a singular R");
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert!(message.contains("singular triangular factor"), "{message}");
}

// ---- batch API error paths -------------------------------------------------

#[test]
fn empty_batches_return_empty_results_without_touching_the_pool() {
    let ctx = QrContext::new(2).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(12, 8, QrConfig::new(4)).unwrap();
    assert!(ctx.factorize_batch::<f64>(&plan, &[]).is_empty());
    assert!(ctx.factorize_batch_into::<f64>(&plan, &mut []).is_empty());
    // The context is untouched and still factors.
    let a: Matrix<f64> = random_matrix(12, 8, 40);
    assert!(ctx.factorize(&plan, &a).is_ok());
}

#[test]
fn batch_isolates_per_item_shape_mismatches() {
    let ctx = QrContext::new(2).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(16, 8, QrConfig::new(4)).unwrap();
    let good_a: Matrix<f64> = random_matrix(16, 8, 41);
    let bad: Matrix<f64> = random_matrix(12, 8, 42);
    let good_b: Matrix<f64> = random_matrix(16, 8, 43);
    let wide: Matrix<f64> = random_matrix(16, 4, 44);
    let out = ctx.factorize_batch(&plan, &[good_a.clone(), bad, good_b.clone(), wide]);
    assert_eq!(out.len(), 4);
    // Failures land in their own slots…
    assert_eq!(
        out[1].as_ref().unwrap_err(),
        &QrError::ShapeMismatch {
            expected: (16, 8),
            got: (12, 8)
        }
    );
    assert_eq!(
        out[3].as_ref().unwrap_err(),
        &QrError::ShapeMismatch {
            expected: (16, 8),
            got: (16, 4)
        }
    );
    // …while the conforming items still factor, bitwise equal to solo calls.
    let mut out = out;
    let f2 = out.remove(2).expect("conforming item must factor");
    let f0 = out.remove(0).expect("conforming item must factor");
    assert_eq!(
        f0.factored_tiles(),
        ctx.factorize(&plan, &good_a).unwrap().factored_tiles()
    );
    assert_eq!(
        f2.factored_tiles(),
        ctx.factorize(&plan, &good_b).unwrap().factored_tiles()
    );
    // The pool survives a partially-failed batch.
    assert!(ctx.factorize(&plan, &good_a).is_ok());
}

#[test]
fn batch_into_isolates_plan_mismatches_and_leaves_bad_buffers_untouched() {
    let ctx = QrContext::new(2).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(16, 8, QrConfig::new(4)).unwrap();
    let a: Matrix<f64> = random_matrix(16, 8, 45);
    let good = TiledMatrix::from_dense_padded(&a, 4);
    let bad_grid = TiledMatrix::<f64>::zeros(2, 2, 4);
    let bad_nb = TiledMatrix::<f64>::zeros(4, 2, 8);
    let mut tiles = vec![good, bad_grid.clone(), bad_nb.clone()];
    let out = ctx.factorize_batch_into(&plan, &mut tiles);
    assert_eq!(out.len(), 3);
    assert!(out[0].is_ok());
    assert_eq!(
        out[1].as_ref().unwrap_err(),
        &QrError::PlanMismatch {
            expected: (4, 2, 4),
            got: (2, 2, 4)
        }
    );
    assert_eq!(
        out[2].as_ref().unwrap_err(),
        &QrError::PlanMismatch {
            expected: (4, 2, 4),
            got: (4, 2, 8)
        }
    );
    // Rejected buffers are untouched; the accepted one holds the factors.
    assert_eq!(tiles[1], bad_grid);
    assert_eq!(tiles[2], bad_nb);
    let oneshot = qr_factorize(&a, QrConfig::new(4));
    assert_eq!(&tiles[0], oneshot.factored_tiles());
}

#[test]
fn an_all_invalid_batch_fails_every_item_and_spares_the_pool() {
    let ctx = QrContext::new(2).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(16, 8, QrConfig::new(4)).unwrap();
    let bad: Matrix<f64> = random_matrix(8, 8, 46);
    let out = ctx.factorize_batch(&plan, &[bad.clone(), bad]);
    assert!(out
        .iter()
        .all(|r| matches!(r, Err(QrError::ShapeMismatch { .. }))));
    let a: Matrix<f64> = random_matrix(16, 8, 47);
    assert!(ctx.factorize(&plan, &a).is_ok(), "pool must stay usable");
}

// ---- legacy wrappers keep their documented panicking behavior -------------

#[test]
#[should_panic(expected = "m ≥ n")]
fn legacy_qr_factorize_still_panics_on_wide_matrices() {
    let a: Matrix<f64> = random_matrix(4, 8, 71);
    let _ = qr_factorize(&a, QrConfig::new(2));
}

#[test]
#[should_panic(expected = "tile size must be at least 1")]
fn legacy_qr_factorize_still_panics_on_zero_tile_size() {
    let a: Matrix<f64> = random_matrix(8, 4, 72);
    let _ = qr_factorize(&a, QrConfig::new(0));
}

#[test]
#[should_panic(expected = "domain size BS must be at least 1")]
fn legacy_qr_factorize_still_panics_on_zero_domain_size() {
    let a: Matrix<f64> = random_matrix(16, 8, 74);
    let _ = qr_factorize(
        &a,
        QrConfig::new(4).with_algorithm(Algorithm::PlasmaTree { bs: 0 }),
    );
}

#[test]
fn legacy_wrappers_clamp_rather_than_reject_thread_counts() {
    // `with_threads(0)` documents clamping to 1; the context wrapper must
    // preserve that instead of surfacing `ZeroThreads`.
    let a: Matrix<f64> = random_matrix(12, 8, 73);
    let f = qr_factorize(&a, QrConfig::new(4).with_threads(0));
    assert!(f.residual(&a) < 1e-11);
}
