//! Least-squares polynomial fitting with the tiled QR factorization — the
//! motivating application of the paper's introduction (many observations,
//! few unknowns ⇒ a very tall tile grid).
//!
//! We fit a degree-5 polynomial to noisy samples of a smooth function using
//! three different reduction trees and check that they all produce the same
//! (numerically stable) solution.
//!
//! Run with:
//! ```text
//! cargo run --release --example least_squares
//! ```

use tiled_qr::core::algorithms::Algorithm;
use tiled_qr::matrix::Matrix;
use tiled_qr::prelude::{QrConfig, QrContext, QrPlan};
use tiled_qr::runtime::solve::{least_squares_solve, least_squares_solve_with, residual_norm};

fn main() {
    // Observations: 600 sample points of f(t) = sin(3t) + 0.5t on [0, 1],
    // with a deterministic pseudo-noise term.
    let m = 600usize;
    let degree = 5usize;
    let n = degree + 1;
    let f = |t: f64| (3.0 * t).sin() + 0.5 * t;

    let ts: Vec<f64> = (0..m).map(|i| i as f64 / (m - 1) as f64).collect();
    let b: Vec<f64> = ts
        .iter()
        .enumerate()
        .map(|(i, &t)| f(t) + 1e-3 * ((i * 2654435761) % 1000) as f64 / 1000.0)
        .collect();
    // Vandermonde design matrix: a[i][j] = t_i^j
    let a = Matrix::from_fn(m, n, |i, j| ts[i].powi(j as i32));

    println!("Least-squares fit of a degree-{degree} polynomial to {m} samples");
    println!(
        "  design matrix: {m} x {n} (tile grid {} x 1 with nb = {n})",
        m.div_ceil(n)
    );

    let mut solutions = Vec::new();
    for algo in [Algorithm::Greedy, Algorithm::Fibonacci, Algorithm::FlatTree] {
        let config = QrConfig::new(n).with_algorithm(algo);
        let start = std::time::Instant::now();
        let x = least_squares_solve(&a, &b, config);
        let elapsed = start.elapsed();
        let res = residual_norm(&a, &x, &b);
        println!(
            "  {:<12} residual ‖Ax − b‖₂ = {res:.6e}   ({elapsed:?})",
            algo.name()
        );
        solutions.push(x);
    }

    // All reduction trees compute the same mathematical solution.
    let reference = &solutions[0];
    for (idx, x) in solutions.iter().enumerate().skip(1) {
        let max_diff = x
            .iter()
            .zip(reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!("  max coefficient difference vs Greedy (solution {idx}): {max_diff:.3e}");
    }

    println!(
        "  fitted coefficients (Greedy): {:?}",
        reference
            .iter()
            .map(|c| (c * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );

    // A service fitting many datasets of this shape would hold a context +
    // plan instead of re-planning per solve; the result is bitwise the same.
    let ctx = QrContext::new(2).expect("reasonable thread count");
    let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(n).with_algorithm(Algorithm::Greedy))
        .expect("tall matrix, positive tile size");
    let x_ctx = least_squares_solve_with(&ctx, &plan, &a, &b).expect("conforming shapes");
    assert_eq!(&x_ctx, reference, "session solve matches the one-shot path");
    println!("  session-API solve (QrContext + QrPlan) matches bit for bit");

    // Several datasets sampled at the same points share the design matrix:
    // `QrContext::solve` takes them as the columns of one right-hand side and
    // fits them all in one pass over `[A | B]` — the right-hand side rides
    // the factorization as a trailing tile column, no wider than it is.
    let shifts = [0.0, 0.25, 0.5];
    let rhs = Matrix::from_fn(m, shifts.len(), |i, j| b[i] + shifts[j] * ts[i]);
    let fits = ctx.solve(&plan, &a, &rhs).expect("conforming shapes");
    let drift = (fits.col(0).iter().zip(reference))
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(drift < 1e-12, "column 0 is the fit above");
    for (j, shift) in shifts.iter().enumerate() {
        // Adding `shift · t` to the data moves the linear coefficient only.
        println!(
            "  rhs {j} (data + {shift}·t): linear coefficient {:.4}, residual {:.6e}",
            fits.get(1, j),
            residual_norm(&a, fits.col(j), rhs.col(j))
        );
    }
}
