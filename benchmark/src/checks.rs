//! Output checks. A request whose output fails one counts as failed.

use tiled_qr::matrix::generate::random_matrix;
use tiled_qr::matrix::norms::{frobenius_norm, vector_norm2};
use tiled_qr::matrix::{Matrix, TiledMatrix};
use tiled_qr::runtime::QrFactorization;

/// Bound on `‖A − Q·R‖_F / ‖A‖_F` of a verified result.
pub const BACKWARD_ERROR_MAX: f64 = 1e-11;
/// Bound on the orthogonality probe `‖Q(Qᴴ·Y) − Y‖_F / ‖Y‖_F`.
pub const ORTHOGONALITY_MAX: f64 = 1e-11;
/// Bound on `‖R − R_ref‖_F / ‖A‖_F` of every later result (the bitwise
/// contract makes the difference exactly 0 today).
pub const R_MATCH_MAX: f64 = 1e-10;
/// Bound on `‖Aᴴ(Ax − b)‖ / (‖A‖_F·‖b‖)` of a least-squares solution.
pub const NORMAL_RESIDUAL_MAX: f64 = 1e-9;

/// `‖R − reference‖_F`, reading the `n × n` upper triangle straight out of
/// the factored tiles (no dense copy of the whole matrix).
pub fn r_mismatch(tiles: &TiledMatrix<f64>, reference: &Matrix<f64>) -> f64 {
    let n = reference.cols();
    let nb = tiles.tile_size();
    let mut sum = 0.0;
    for j in 0..n {
        let (tj, rj) = (j / nb, j % nb);
        for ti in 0..=tj {
            let col = tiles.tile(ti, tj).col(rj);
            let rows = if ti == tj { rj + 1 } else { nb };
            let reference = &reference.col(j)[ti * nb..ti * nb + rows];
            for (x, y) in col[..rows].iter().zip(reference) {
                sum += (x - y) * (x - y);
            }
        }
    }
    sum.sqrt()
}

/// Whether a result's `R` matches the verified reference of its input.
pub fn r_matches(tiles: &TiledMatrix<f64>, reference: &Matrix<f64>, norm_a: f64) -> bool {
    // `<=` so that a NaN mismatch fails.
    r_mismatch(tiles, reference) <= R_MATCH_MAX * norm_a
}

/// Backward error `‖A − Q·R‖_F / ‖A‖_F` and the orthogonality probe
/// `‖Q(Qᴴ·Y) − Y‖_F / ‖Y‖_F` for a random `m × 4` block `Y`.
pub fn verify_factorization(f: &QrFactorization<f64>, a: &Matrix<f64>) -> (f64, f64) {
    let (m, n) = a.shape();
    let mut r_padded = Matrix::zeros(m, n);
    r_padded.copy_block(0, 0, &f.r(), 0, 0, n, n);
    let backward = frobenius_norm(&f.apply_q(&r_padded).sub(a)) / frobenius_norm(a);
    let y: Matrix<f64> = random_matrix(m, 4, 0x0B5E_55ED);
    let back = f.apply_q(&f.apply_qh(&y));
    let orthogonality = frobenius_norm(&back.sub(&y)) / frobenius_norm(&y);
    (backward, orthogonality)
}

pub fn factorization_ok(backward: f64, orthogonality: f64) -> bool {
    backward <= BACKWARD_ERROR_MAX && orthogonality <= ORTHOGONALITY_MAX
}

/// `‖Aᴴ(Ax − b)‖₂`, the residual of the normal equations.
pub fn normal_residual(a: &Matrix<f64>, x: &[f64], b: &[f64]) -> f64 {
    let mut r: Vec<f64> = b.iter().map(|v| -v).collect();
    for (j, xj) in x.iter().enumerate() {
        for (ri, aij) in r.iter_mut().zip(a.col(j)) {
            *ri += aij * xj;
        }
    }
    let g: Vec<f64> = (0..a.cols())
        .map(|j| a.col(j).iter().zip(&r).map(|(aij, ri)| aij * ri).sum())
        .collect();
    vector_norm2(&g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiled_qr::runtime::driver::{qr_factorize, QrConfig};
    use tiled_qr::runtime::solve::least_squares_with_factorization;

    #[test]
    fn tile_reader_agrees_with_the_dense_r() {
        let a: Matrix<f64> = random_matrix(24, 12, 5);
        let f = qr_factorize(&a, QrConfig::new(4).with_inner_block(2));
        let r = f.r();
        assert_eq!(r_mismatch(f.factored_tiles(), &r), 0.0);
        let mut off = r.clone();
        off.set(3, 7, off.get(3, 7) + 0.5);
        assert!((r_mismatch(f.factored_tiles(), &off) - 0.5).abs() < 1e-15);
        assert!(!r_matches(f.factored_tiles(), &off, frobenius_norm(&a)));
    }

    #[test]
    fn a_good_factorization_passes_and_a_wrong_input_fails() {
        let a: Matrix<f64> = random_matrix(24, 12, 5);
        let f = qr_factorize(&a, QrConfig::new(4).with_inner_block(2));
        let (backward, orthogonality) = verify_factorization(&f, &a);
        assert!(
            factorization_ok(backward, orthogonality),
            "{backward} {orthogonality}"
        );
        let other: Matrix<f64> = random_matrix(24, 12, 6);
        let (backward, _) = verify_factorization(&f, &other);
        assert!(!factorization_ok(backward, 0.0));
        assert!(!factorization_ok(f64::NAN, 0.0));
    }

    #[test]
    fn normal_residual_vanishes_at_the_solution_only() {
        let a: Matrix<f64> = random_matrix(24, 6, 1);
        let b: Vec<f64> = (0..24).map(|i| (i as f64).sin()).collect();
        let f = qr_factorize(&a, QrConfig::new(4));
        let mut x = least_squares_with_factorization(&f, &b);
        let scale = frobenius_norm(&a) * vector_norm2(&b);
        assert!(normal_residual(&a, &x, &b) <= 1e-13 * scale);
        x[2] += 1e-3;
        assert!(normal_residual(&a, &x, &b) > NORMAL_RESIDUAL_MAX * scale);
    }
}
