//! Linear least-squares solve on top of the tiled QR factorization.
//!
//! Solving `min ‖A·x − b‖₂` for a tall `m × n` matrix is the motivating
//! application in the paper's introduction. With `A = Q·R`, `x` solves the
//! triangular system `R·x = (Qᴴ·b)[0..n]`.
//!
//! # From `(A, b)`: one plan
//!
//! [`QrContext::solve`] — and [`least_squares_solve_with`] /
//! [`least_squares_solve`], which are that call with one right-hand side —
//! runs the whole request as **one pool job over `[A | b]`**: `b` is a
//! trailing tile column of the factorization DAG (`p` row blocks of
//! `nb × k`, its true width), so the paper's own `UNMQR`/`TSMQR`/`TTMQR`
//! update tasks compute `Qᴴ·b` on the workers while `A` is being factored.
//! What remains is reading `R` out of the top tile rows and a back
//! substitution.
//!
//! # From a factorization: replay
//!
//! When right-hand sides arrive *after* the factorization (or `Q` itself is
//! wanted), [`least_squares_with_factorization`] replays the stored
//! reflectors over the same `nb × k` row blocks
//! ([`QrFactorization::apply_qh`]), sequentially on the calling thread.
//! [`least_squares_solve_via`] does that behind a service ticket. Both
//! routes run the same kernels on the same blocks in the same per-block
//! order, so their solutions are bitwise identical.
//!
//! The fallible solves report an exactly rank-deficient `A` as
//! [`QrError::SingularR`]; the legacy [`least_squares_solve`] and
//! [`least_squares_with_factorization`] panic on it.

use tileqr_matrix::{Matrix, Scalar};

use crate::context::{back_substitute, QrContext, QrError, QrPlan};
use crate::driver::{transient_session, QrConfig, QrFactorization};
use crate::service::QrClient;

/// Solves the least-squares problem `min ‖A·x − b‖₂` using a tiled QR
/// factorization with the given configuration. Returns the solution vector
/// of length `n = a.cols()`.
///
/// One-shot wrapper: [`least_squares_solve_with`] on a transient plan and
/// context.
///
/// # Panics
/// Panics if `b.len() != a.rows()`, if the matrix is wide (`m < n`), or if
/// `R` is singular (rank-deficient `A`).
pub fn least_squares_solve<T: Scalar<Real = f64>>(
    a: &Matrix<T>,
    b: &[T],
    config: QrConfig,
) -> Vec<T> {
    assert_eq!(
        b.len(),
        a.rows(),
        "right-hand side length must equal the row count of A"
    );
    let (plan, ctx) = transient_session(a.shape(), config);
    // The legacy contract is to panic on any failure; the rendered error
    // carries the cause (a contained kernel panic, a singular R).
    least_squares_solve_with(&ctx, &plan, a, b).unwrap_or_else(|e| panic!("{e}"))
}

/// Solves `min ‖A·x − b‖₂` through the session API: the context's persistent
/// pool executes the plan's precomputed solve schedule, so a stream of solves
/// sharing one shape pays planning and thread startup once.
/// [`QrContext::solve`] with one right-hand side; every failure comes back
/// as a [`QrError`], including [`QrError::SingularR`] for an exactly
/// rank-deficient `A`.
pub fn least_squares_solve_with<T: Scalar<Real = f64>>(
    ctx: &QrContext,
    plan: &QrPlan<T>,
    a: &Matrix<T>,
    b: &[T],
) -> Result<Vec<T>, QrError> {
    if b.len() != a.rows() {
        return Err(QrError::RhsLength {
            expected: a.rows(),
            got: b.len(),
        });
    }
    let x = ctx.solve(plan, a, &Matrix::from_col_major(b.len(), 1, b.to_vec()))?;
    Ok(x.as_slice().to_vec())
}

/// Solves `min ‖A·x − b‖₂` through the **service layer**
/// ([`crate::service`]): submits `a` on the client's tenant lane and
/// blocks on the ticket, so the factorization rides the service's admission
/// control, fair scheduling and transient-fault retry; `Qᴴ·b` is then
/// replayed on the calling thread. Takes `a` by value — the service retains
/// the dense input across retry attempts.
///
/// Admission rejections surface unchanged: a retriable
/// [`QrError::QueueFull`] under overload,
/// [`QrError::ServiceShutdown`] once the service closed. An exactly
/// rank-deficient `A` is [`QrError::SingularR`].
pub fn least_squares_solve_via<T: Scalar<Real = f64>>(
    client: &QrClient<T>,
    plan: &std::sync::Arc<QrPlan<T>>,
    a: Matrix<T>,
    b: &[T],
) -> Result<Vec<T>, QrError> {
    if b.len() != a.rows() {
        return Err(QrError::RhsLength {
            expected: a.rows(),
            got: b.len(),
        });
    }
    let f = client.submit(plan, a)?.wait()?;
    try_with_factorization(&f, b)
}

/// Solves `min ‖A·x − b‖₂` reusing an existing factorization of `A` —
/// useful when many right-hand sides share the same matrix.
///
/// # Panics
/// Panics if `b.len() != f.m` or if `R` is singular.
pub fn least_squares_with_factorization<T: Scalar<Real = f64>>(
    f: &QrFactorization<T>,
    b: &[T],
) -> Vec<T> {
    assert_eq!(
        b.len(),
        f.m,
        "right-hand side length must equal the row count of A"
    );
    try_with_factorization(f, b).unwrap_or_else(|e| panic!("{e}"))
}

/// `Qᴴ·b` by replay, then the triangular step shared with the fused solve.
fn try_with_factorization<T: Scalar<Real = f64>>(
    f: &QrFactorization<T>,
    b: &[T],
) -> Result<Vec<T>, QrError> {
    let c = f.apply_qh(&Matrix::from_col_major(f.m, 1, b.to_vec()));
    Ok(back_substitute(&f.r(), &c)?.as_slice().to_vec())
}

/// Residual norm `‖A·x − b‖₂` of a candidate least-squares solution.
pub fn residual_norm<T: Scalar<Real = f64>>(a: &Matrix<T>, x: &[T], b: &[T]) -> f64 {
    assert_eq!(x.len(), a.cols());
    assert_eq!(b.len(), a.rows());
    let mut r: Vec<T> = b.to_vec();
    for j in 0..a.cols() {
        let xj = x[j];
        if xj.is_zero() {
            continue;
        }
        for (i, ri) in r.iter_mut().enumerate() {
            *ri -= a.get(i, j) * xj;
        }
    }
    tileqr_matrix::norms::vector_norm2(&r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::qr_factorize;
    use tileqr_core::algorithms::Algorithm;
    use tileqr_core::KernelFamily;
    use tileqr_kernels::reference::least_squares_reference;
    use tileqr_matrix::generate::{random_matrix, random_vector, vandermonde};
    use tileqr_matrix::Complex64;

    #[test]
    fn recovers_exact_solution_when_b_in_range() {
        let a: Matrix<f64> = random_matrix(30, 8, 1);
        let x_true: Vec<f64> = random_vector(8, 2);
        let mut b = vec![0.0; 30];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, xj) in x_true.iter().enumerate() {
                *bi += a.get(i, j) * xj;
            }
        }
        let x = least_squares_solve(&a, &b, QrConfig::new(4));
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn matches_the_reference_dense_solver() {
        let a = vandermonde(40, 6);
        let b: Vec<f64> = random_vector(40, 3);
        let x_tiled = least_squares_solve(
            &a,
            &b,
            QrConfig::new(8).with_algorithm(Algorithm::Fibonacci),
        );
        let x_ref = least_squares_reference(&a, &b);
        for (t, r) in x_tiled.iter().zip(&x_ref) {
            assert!((t - r).abs() < 1e-8, "tiled {t} vs reference {r}");
        }
    }

    #[test]
    fn residual_is_orthogonal_to_the_column_span() {
        let a: Matrix<f64> = random_matrix(25, 5, 4);
        let b: Vec<f64> = random_vector(25, 5);
        let x = least_squares_solve(
            &a,
            &b,
            QrConfig::new(5).with_algorithm(Algorithm::BinaryTree),
        );
        let mut r = b.clone();
        for j in 0..5 {
            for (i, ri) in r.iter_mut().enumerate() {
                *ri -= a.get(i, j) * x[j];
            }
        }
        for j in 0..5 {
            let dot: f64 = (0..25).map(|i| a.get(i, j) * r[i]).sum();
            assert!(dot.abs() < 1e-10, "column {j} not orthogonal: {dot}");
        }
    }

    #[test]
    fn complex_least_squares_with_ts_kernels() {
        let a: Matrix<Complex64> = random_matrix(20, 4, 6);
        let x_true: Vec<Complex64> = random_vector(4, 7);
        let mut b = vec![Complex64::ZERO; 20];
        for (i, bi) in b.iter_mut().enumerate() {
            for (j, xj) in x_true.iter().enumerate() {
                *bi += a.get(i, j) * *xj;
            }
        }
        let config = QrConfig::new(4)
            .with_family(KernelFamily::TS)
            .with_algorithm(Algorithm::FlatTree);
        let x = least_squares_solve(&a, &b, config);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-9, "{xi} vs {ti}");
        }
    }

    #[test]
    fn parallel_solve_matches_the_sequential_solve_bitwise() {
        // The thread count threads from QrConfig through the driver into the
        // pool; four workers must yield the same solution as the sequential
        // solve, bit for bit (same kernels, same DAG order per tile).
        let a: Matrix<f64> = random_matrix(36, 9, 9);
        let b: Vec<f64> = random_vector(36, 10);
        let base = QrConfig::new(4).with_algorithm(Algorithm::Greedy);
        let x_seq = least_squares_solve(&a, &b, base);
        let x_par = least_squares_solve(&a, &b, base.with_threads(4));
        assert_eq!(x_seq, x_par, "solution differs");
    }

    #[test]
    fn reusing_a_factorization_for_multiple_rhs() {
        let a: Matrix<f64> = random_matrix(24, 6, 8);
        let f = qr_factorize(&a, QrConfig::new(6));
        for seed in 10..14 {
            let b: Vec<f64> = random_vector(24, seed);
            let x1 = least_squares_with_factorization(&f, &b);
            let x2 = least_squares_solve(&a, &b, QrConfig::new(6));
            for (u, v) in x1.iter().zip(&x2) {
                assert!((u - v).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn residual_norm_helper_is_consistent() {
        let a: Matrix<f64> = random_matrix(12, 3, 20);
        let b: Vec<f64> = random_vector(12, 21);
        let x = least_squares_solve(&a, &b, QrConfig::new(4));
        let opt = residual_norm(&a, &x, &b);
        // perturbing the solution can only increase the residual
        let mut worse = x.clone();
        worse[0] += 0.1;
        assert!(residual_norm(&a, &worse, &b) > opt);
    }

    #[test]
    #[should_panic(expected = "right-hand side length")]
    fn mismatched_rhs_is_rejected() {
        let a: Matrix<f64> = random_matrix(10, 3, 30);
        let b = vec![0.0; 9];
        let _ = least_squares_solve(&a, &b, QrConfig::new(4));
    }
}
