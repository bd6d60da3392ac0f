//! Numerics hardening: backward error (`‖A − QR‖_F / ‖A‖_F`) and
//! orthogonality (`‖QᴴQ − I‖_F`) on *hostile* inputs — ill-conditioned,
//! exactly rank-deficient, and extreme-scale (tiny/huge norm) matrices —
//! for both kernel families and both scalar types.
//!
//! Householder QR is backward stable: the backward error and the departure
//! of `Q` from orthogonality are bounded by `p(m, n) · ε` for a modest
//! polynomial `p`, **independently of the conditioning of `A`**. The bounds
//! asserted here are therefore the same `TOL` the nominal correctness suite
//! (`tests/factorization_correctness.rs`) uses on random well-conditioned
//! inputs — hostile inputs are allowed no extra slack.
//!
//! Also covered: the batched session API on hostile inputs (bitwise equal
//! to the one-shot path), and least-squares forward error degrading no
//! worse than `cond · ε` on graded-column systems.

use tiled_qr::core::algorithms::Algorithm;
use tiled_qr::core::KernelFamily;
use tiled_qr::matrix::generate::{ill_conditioned_matrix, random_matrix, rank_deficient_matrix};
use tiled_qr::matrix::norms::frobenius_norm;
use tiled_qr::matrix::{Complex64, Matrix, Scalar};
use tiled_qr::prelude::{qr_factorize, QrConfig, QrContext, QrPlan};

/// The nominal-suite tolerance (`tests/factorization_correctness.rs`):
/// hostile inputs must meet the same backward-error and orthogonality
/// bounds — stability does not depend on the data.
const TOL: f64 = 1e-11;

fn assert_stable<T: Scalar<Real = f64>>(a: &Matrix<T>, config: QrConfig, what: &str) {
    let f = qr_factorize(a, config);
    let resid = f.residual(a);
    assert!(
        resid < TOL,
        "{what} ({:?}): backward error {resid:e} exceeds the nominal tolerance",
        config.family,
    );
    let ortho = f.orthogonality();
    assert!(
        ortho < TOL,
        "{what} ({:?}): |QᴴQ - I| = {ortho:e} exceeds the nominal tolerance",
        config.family,
    );
}

fn both_families(nb: usize) -> [QrConfig; 2] {
    [
        QrConfig::new(nb).with_family(KernelFamily::TT),
        QrConfig::new(nb)
            .with_family(KernelFamily::TS)
            .with_algorithm(Algorithm::FlatTree),
    ]
}

#[test]
fn ill_conditioned_matrices_stay_backward_stable() {
    // Column norms graded over 12 orders of magnitude: cond(A) ≥ 1e12, yet
    // the backward error must stay at the well-conditioned level.
    for config in both_families(6) {
        let a: Matrix<f64> = ill_conditioned_matrix(36, 18, 1e12, 11);
        assert_stable(&a, config, "ill-conditioned f64");
        let z: Matrix<Complex64> = ill_conditioned_matrix(30, 12, 1e12, 12);
        assert_stable(&z, config, "ill-conditioned Complex64");
    }
}

#[test]
fn rank_deficient_matrices_factor_without_breakdown() {
    for config in both_families(4) {
        // Exact rank n/2: the Householder panels hit (numerically) zero
        // columns in the trailing half; no NaN, no blow-up, same bounds.
        let a: Matrix<f64> = rank_deficient_matrix(28, 12, 6, 21);
        assert_stable(&a, config, "rank-6 of 12 f64");
        let z: Matrix<Complex64> = rank_deficient_matrix(20, 8, 3, 22);
        assert_stable(&z, config, "rank-3 of 8 Complex64");

        // Rank 1 — the most degenerate non-zero case.
        let r1: Matrix<f64> = rank_deficient_matrix(24, 10, 1, 23);
        assert_stable(&r1, config, "rank-1 f64");

        // The trailing diagonal of R collapses to roundoff relative to the
        // leading block — the factorization exposes the rank.
        let f = qr_factorize(&a, config);
        let r = f.r();
        let lead: f64 = (0..6).map(|i| r.get(i, i).abs()).fold(0.0, f64::max);
        let trail: f64 = (6..12).map(|i| r.get(i, i).abs()).fold(0.0, f64::max);
        assert!(
            trail <= 1e-10 * lead,
            "trailing |R_ii| {trail:e} not at roundoff of leading {lead:e}"
        );
    }
}

#[test]
fn zero_matrices_and_zero_columns_are_handled() {
    for config in both_families(4) {
        // All-zero matrix: R must be exactly zero and Q exactly orthonormal
        // (the Householder kernels take the tau = 0 path throughout).
        let zero = Matrix::<f64>::zeros(16, 8);
        let f = qr_factorize(&zero, config);
        assert!(f.r().as_slice().iter().all(|&v| v == 0.0));
        assert!(f.orthogonality() < TOL);
        assert!(!f.q_economy().has_nan());

        // An interior zero column (between nonzero ones).
        let mut a: Matrix<f64> = random_matrix(16, 8, 31);
        for i in 0..16 {
            a.set(i, 3, 0.0);
        }
        assert_stable(&a, config, "interior zero column");
    }
}

#[test]
fn extreme_scale_matrices_neither_overflow_nor_underflow() {
    for config in both_families(5) {
        for (scale, what) in [(1e150, "huge-norm (1e150)"), (1e-150, "tiny-norm (1e-150)")] {
            // |entries| ~ scale: column norms square to ~scale² inside the
            // Householder reflector generation — 1e300 / 1e-300, at the very
            // edge of f64 — and the *relative* backward error must still be
            // at the nominal level.
            let a = random_matrix::<f64>(25, 10, 41).scaled(scale);
            assert_stable(&a, config, what);
            let z = random_matrix::<Complex64>(20, 10, 42).scaled(Complex64::new(scale, 0.0));
            assert_stable(&z, config, &format!("{what} Complex64"));
        }
        // Mixed scales in one matrix: huge and tiny columns side by side.
        let mut mixed: Matrix<f64> = random_matrix(20, 8, 43);
        for j in 0..8 {
            let s = if j % 2 == 0 { 1e120 } else { 1e-120 };
            for v in mixed.col_mut(j) {
                *v *= s;
            }
        }
        assert_stable(&mixed, config, "mixed-scale columns");
    }
}

/// `R(2^k·A)·2^−k` against `R(A)`, relative in the Frobenius norm. Scaling
/// by a power of two is exact, so the test's own arithmetic stays finite
/// and exact; only the factorization can lose the scale.
fn assert_power_of_two_scaling_is_exact<T: Scalar<Real = f64>>(
    a: &Matrix<T>,
    config: QrConfig,
    what: &str,
) {
    let r = qr_factorize(a, config).r();
    for k in [560, -560, 1000, -1000] {
        let scaled = a.scaled(T::from_real(2f64.powi(k)));
        let back = qr_factorize(&scaled, config)
            .r()
            .scaled(T::from_real(2f64.powi(-k)));
        let err = frobenius_norm(&back.sub(&r)) / frobenius_norm(&r);
        assert!(
            err < 1e-13,
            "{what} ({:?}) at 2^{k}: ‖R(2^k·A)·2^-k − R(A)‖/‖R(A)‖ = {err:e}",
            config.family,
        );
    }
}

#[test]
fn power_of_two_scaling_beyond_the_square_root_range_is_exact() {
    // Entries beyond about 2^±511 square out of range inside the reflector
    // generation; R must still scale with A.
    for config in both_families(5) {
        let a: Matrix<f64> = random_matrix(25, 10, 44);
        assert_power_of_two_scaling_is_exact(&a, config, "f64");
        let z: Matrix<Complex64> = random_matrix(20, 10, 45);
        assert_power_of_two_scaling_is_exact(&z, config, "Complex64");
    }
}

#[test]
fn batched_factorization_of_hostile_inputs_matches_one_shot() {
    // The fused batch path must be bitwise identical to the one-shot path on
    // hostile inputs too — numerical edge cases (tau = 0 branches, subnormal
    // intermediates) must not interact with cross-matrix scheduling.
    let (m, n, nb) = (24usize, 12usize, 4usize);
    let ctx = QrContext::new(3).expect("valid thread count");
    let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).expect("valid shape");
    let mats: Vec<Matrix<f64>> = vec![
        ill_conditioned_matrix(m, n, 1e12, 51),
        rank_deficient_matrix(m, n, 4, 52),
        random_matrix::<f64>(m, n, 53).scaled(1e140),
        random_matrix::<f64>(m, n, 54).scaled(1e-140),
        Matrix::zeros(m, n),
    ];
    for (a, item) in mats.iter().zip(ctx.factorize_batch(&plan, &mats)) {
        let f = item.expect("hostile but conforming inputs must factor");
        let oneshot = qr_factorize(a, QrConfig::new(nb));
        assert_eq!(
            f.factored_tiles(),
            oneshot.factored_tiles(),
            "batch diverges from one-shot on a hostile input"
        );
        assert!(!f.r().has_nan(), "NaN leaked into R");
    }
}

#[test]
fn least_squares_forward_error_scales_with_conditioning() {
    // Backward stability bounds the *residual*; the solution error may grow
    // like cond(A) · ε. Solve a consistent graded system and check the
    // recovered solution is within that envelope (cond ~ 1e6 → ~1e-10).
    let (m, n) = (40usize, 8usize);
    let a: Matrix<f64> = ill_conditioned_matrix(m, n, 1e6, 61);
    let x_true: Vec<f64> = (0..n).map(|j| 1.0 + j as f64).collect();
    let mut b = vec![0.0f64; m];
    for (i, bi) in b.iter_mut().enumerate() {
        for (j, xj) in x_true.iter().enumerate() {
            *bi += a.get(i, j) * xj;
        }
    }
    let x = tiled_qr::prelude::least_squares_solve(&a, &b, QrConfig::new(5));
    for (got, want) in x.iter().zip(&x_true) {
        assert!(
            (got - want).abs() < 1e-6 * want.abs(),
            "solution component {got} vs {want} outside the cond·ε envelope"
        );
    }
}
