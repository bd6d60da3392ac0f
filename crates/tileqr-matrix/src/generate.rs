//! Reproducible matrix generators.
//!
//! The benchmark harness, examples and property tests all need random (and a
//! few structured) matrices. Generators take an explicit seed so every
//! experiment and benchmark run can be repeated bit-for-bit.

use crate::complex::Complex64;
use crate::dense::Matrix;
use crate::rng::Rng;
use crate::scalar::Scalar;

/// Types that can be drawn uniformly from `[-1, 1]` (per real component).
pub trait RandomScalar: Scalar<Real = f64> {
    /// Draws one random value from the generator.
    fn sample(rng: &mut Rng) -> Self;
}

impl RandomScalar for f64 {
    fn sample(rng: &mut Rng) -> Self {
        rng.unit_symmetric()
    }
}

impl RandomScalar for Complex64 {
    fn sample(rng: &mut Rng) -> Self {
        Complex64::new(rng.unit_symmetric(), rng.unit_symmetric())
    }
}

/// Uniformly random `rows × cols` matrix with entries in `[-1, 1]`
/// (independently per real component), seeded for reproducibility.
pub fn random_matrix<T: RandomScalar>(rows: usize, cols: usize, seed: u64) -> Matrix<T> {
    let mut rng = Rng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| T::sample(&mut rng))
}

/// Random upper-triangular matrix with a well-conditioned diagonal
/// (diagonal entries bounded away from zero). Used to build matrices with a
/// known R factor and by the TTQRT/TSQRT kernel tests.
pub fn random_upper_triangular<T: RandomScalar>(n: usize, seed: u64) -> Matrix<T> {
    let mut rng = Rng::seed_from_u64(seed);
    Matrix::from_fn(n, n, |i, j| {
        if i < j {
            T::sample(&mut rng)
        } else if i == j {
            // Shift the diagonal away from zero so triangular solves stay
            // well conditioned in tests.
            let v = T::sample(&mut rng);
            let shift = if v.real() >= 0.0 { 2.0 } else { -2.0 };
            v + T::from_real(shift)
        } else {
            T::ZERO
        }
    })
}

/// Random right-hand side vector of length `n`.
pub fn random_vector<T: RandomScalar>(n: usize, seed: u64) -> Vec<T> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| T::sample(&mut rng)).collect()
}

/// A deterministic "counting" matrix `a_{ij} = (i + 1) + (j + 1)/1000`,
/// handy for debugging layout code because every entry is distinct and
/// human-readable.
pub fn counting_matrix<T: Scalar<Real = f64>>(rows: usize, cols: usize) -> Matrix<T> {
    Matrix::from_fn(rows, cols, |i, j| {
        T::from_real((i + 1) as f64 + (j + 1) as f64 / 1000.0)
    })
}

/// An ill-conditioned Vandermonde-like tall matrix used by the least-squares
/// example: column `j` holds `t_i^j` for sample points `t_i` in `[0, 1]`.
pub fn vandermonde(rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |i, j| {
        let t = i as f64 / (rows.max(2) - 1) as f64;
        t.powi(j as i32)
    })
}

/// A random matrix with geometrically graded column norms: column `j` is
/// scaled by `cond^(-j / (cols - 1))`, so the ratio of the largest to the
/// smallest column norm — a lower bound on the condition number — is `cond`.
/// Used by the numerics stress suite to check that the tiled QR stays
/// backward stable on ill-conditioned inputs (backward error is independent
/// of conditioning; only the *forward* error of downstream solves grows).
pub fn ill_conditioned_matrix<T: RandomScalar>(
    rows: usize,
    cols: usize,
    cond: f64,
    seed: u64,
) -> Matrix<T> {
    assert!(cond >= 1.0, "condition target must be at least 1");
    let mut a: Matrix<T> = random_matrix(rows, cols, seed);
    for j in 0..cols {
        let s = cond.powf(-(j as f64) / (cols.max(2) - 1) as f64);
        for v in a.col_mut(j) {
            *v = v.scale(s);
        }
    }
    a
}

/// An exactly rank-deficient `rows × cols` matrix of the requested rank:
/// the product of a random `rows × rank` and a random `rank × cols` factor.
/// A backward-stable QR must factor it without breakdown — the trailing
/// `cols − rank` diagonal entries of `R` land at roundoff level.
pub fn rank_deficient_matrix<T: RandomScalar>(
    rows: usize,
    cols: usize,
    rank: usize,
    seed: u64,
) -> Matrix<T> {
    assert!(rank <= rows.min(cols), "rank cannot exceed the dimensions");
    let b: Matrix<T> = random_matrix(rows, rank, seed);
    let c: Matrix<T> = random_matrix(rank, cols, seed.wrapping_add(1));
    b.matmul(&c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::frobenius_norm;

    #[test]
    fn random_matrix_is_reproducible() {
        let a: Matrix<f64> = random_matrix(8, 5, 42);
        let b: Matrix<f64> = random_matrix(8, 5, 42);
        let c: Matrix<f64> = random_matrix(8, 5, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn random_complex_matrix_fills_both_components() {
        let a: Matrix<Complex64> = random_matrix(16, 16, 7);
        assert!(a.as_slice().iter().any(|z| z.im != 0.0));
        assert!(frobenius_norm(&a) > 0.0);
    }

    #[test]
    fn random_upper_triangular_is_triangular_and_nonsingular() {
        let r: Matrix<f64> = random_upper_triangular(10, 3);
        assert!(r.is_upper_triangular());
        for i in 0..10 {
            assert!(
                r.get(i, i).abs() >= 1.0,
                "diagonal too small: {}",
                r.get(i, i)
            );
        }
    }

    #[test]
    fn counting_matrix_entries_are_distinct() {
        let a: Matrix<f64> = counting_matrix(4, 3);
        assert_eq!(a.get(0, 0), 1.001);
        assert_eq!(a.get(3, 2), 4.003);
        let mut vals: Vec<f64> = a.as_slice().to_vec();
        vals.sort_by(|x, y| x.partial_cmp(y).unwrap());
        vals.dedup();
        assert_eq!(vals.len(), 12);
    }

    #[test]
    fn vandermonde_shape_and_first_column() {
        let v = vandermonde(6, 3);
        assert_eq!(v.shape(), (6, 3));
        for i in 0..6 {
            assert_eq!(v.get(i, 0), 1.0);
        }
        assert_eq!(v.get(5, 1), 1.0); // t = 1 at the last sample point
    }

    #[test]
    fn random_vector_reproducible() {
        let a: Vec<f64> = random_vector(5, 1);
        let b: Vec<f64> = random_vector(5, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn ill_conditioned_matrix_grades_column_norms() {
        let cond = 1e10;
        let a: Matrix<f64> = ill_conditioned_matrix(32, 8, cond, 5);
        let norm = |j: usize| a.col(j).iter().map(|x| x * x).sum::<f64>().sqrt();
        // Norms decay geometrically: first/last ratio hits the target.
        let ratio = norm(0) / norm(7);
        assert!(
            (ratio / cond).log10().abs() < 1.0,
            "column-norm ratio {ratio:e} far from target {cond:e}"
        );
        for j in 1..8 {
            assert!(norm(j) < norm(j - 1), "norms must decrease along columns");
        }
    }

    #[test]
    fn rank_deficient_matrix_has_the_requested_rank() {
        let a: Matrix<f64> = rank_deficient_matrix(12, 6, 3, 7);
        assert_eq!(a.shape(), (12, 6));
        // Rank ≤ 3: every 4-column subset is linearly dependent. Cheap proxy:
        // the Gram matrix of the first 4 columns is singular (determinant at
        // roundoff scale relative to its entries).
        let g = a
            .sub_matrix(0, 0, 12, 4)
            .conj_transpose()
            .matmul(&a.sub_matrix(0, 0, 12, 4));
        // 4x4 determinant by cofactor-free LU-ish elimination on a copy.
        let mut m = [[0.0f64; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                m[i][j] = g.get(i, j);
            }
        }
        let mut det = 1.0;
        for k in 0..4 {
            let piv = (k..4)
                .max_by(|&x, &y| m[x][k].abs().total_cmp(&m[y][k].abs()))
                .unwrap();
            m.swap(k, piv);
            det *= m[k][k];
            if m[k][k] == 0.0 {
                break;
            }
            for i in (k + 1)..4 {
                let f = m[i][k] / m[k][k];
                for j in k..4 {
                    m[i][j] -= f * m[k][j];
                }
            }
        }
        let scale: f64 = (0..4).map(|i| g.get(i, i)).product();
        assert!(
            det.abs() <= 1e-10 * scale.abs().max(1.0),
            "Gram determinant {det:e} not at roundoff scale"
        );
    }
}
