//! Elementary Householder reflectors.
//!
//! Conventions follow LAPACK (`zlarfg`): a reflector `H = I − τ·v·vᴴ` with
//! `v[0] = 1` is generated such that `Hᴴ·x = β·e₁` with `β` real. The tile
//! kernels accumulate a panel of `k` reflectors as
//! `Q = H₁·H₂⋯H_k = I − V·T·Vᴴ`, `T` being `k × k` upper triangular (built
//! in [`crate::factor`]); factorization applies `Qᴴ`, i.e.
//! `C ← C − V·Tᴴ·(Vᴴ·C)`.

use tileqr_matrix::{Matrix, Scalar};

/// Result of generating one elementary reflector.
#[derive(Clone, Copy, Debug)]
pub struct Reflector<T> {
    /// The (real-valued, stored in `T`) new leading entry `β`.
    pub beta: T,
    /// The scalar factor `τ` of the reflector.
    pub tau: T,
}

/// Generates an elementary Householder reflector for the vector
/// `[alpha, x...]`.
///
/// On return, `x` holds the tail of the Householder vector `v` (its leading
/// entry, equal to one, is implicit), and the returned [`Reflector`] carries
/// `β` (the value that replaces `alpha`) and `τ`. If the tail is zero and
/// `alpha` has no imaginary part, `τ = 0` and the reflector is the identity.
///
/// The norm is formed from the plain sum of squares, which under- or
/// overflows for entries beyond about `2^±511`. Then, as LAPACK's `dlarfg`
/// does, the vector is rescaled by a power of two — exactly — and the
/// reflector of the scaled vector is generated: `v` and `τ` do not depend on
/// the scale, and `β` is scaled back.
pub fn larfg<T: Scalar<Real = f64>>(alpha: T, x: &mut [T]) -> Reflector<T> {
    let xnorm_sqr: f64 = x.iter().map(|v| v.abs_sqr()).sum();
    let sum = alpha.abs_sqr() + xnorm_sqr;
    if sum.is_normal() {
        return reflect(alpha, x, xnorm_sqr);
    }
    // A sum that underflowed: every nonzero entry is below 2^−511 and lands
    // in [2^−474, 2^89). One that overflowed: the largest entry lands in
    // [2^−98, 2^424). Either way the scaled sum is normal; a zero column
    // stays zero and yields the identity, bit for bit as unscaled.
    let s = 2f64.powi(if sum < 1.0 { 600 } else { -600 });
    x.iter_mut().for_each(|v| *v = v.scale(s));
    let xnorm_sqr = x.iter().map(|v| v.abs_sqr()).sum();
    let r = reflect(alpha.scale(s), x, xnorm_sqr);
    Reflector {
        beta: r.beta.scale(1.0 / s),
        tau: r.tau,
    }
}

/// [`larfg`] once the sum of squares `‖x‖²` is known to be representable.
fn reflect<T: Scalar<Real = f64>>(alpha: T, x: &mut [T], xnorm_sqr: f64) -> Reflector<T> {
    let alpha_im_sqr = alpha.abs_sqr() - alpha.real() * alpha.real();
    if xnorm_sqr == 0.0 && alpha_im_sqr <= 0.0 {
        // Nothing to annihilate: H = I.
        return Reflector {
            beta: alpha,
            tau: T::ZERO,
        };
    }
    let alphr = alpha.real();
    let norm = (alpha.abs_sqr() + xnorm_sqr).sqrt();
    // β gets the opposite sign of Re(α) to avoid cancellation.
    let beta_val = if alphr >= 0.0 { -norm } else { norm };
    // τ = (β − α)/β   (β real)
    let beta_t = T::from_real(beta_val);
    let tau = (beta_t - alpha).scale(1.0 / beta_val);
    // v(tail) = x / (α − β)
    let denom = alpha - beta_t;
    let inv = T::ONE / denom;
    for v in x.iter_mut() {
        *v *= inv;
    }
    Reflector { beta: beta_t, tau }
}

/// Applies a single reflector `Hᴴ = (I − τ·v·vᴴ)ᴴ` to a dense matrix from the
/// left, where `v = [1, tail...]` acts on rows `offset..offset+1+tail.len()`
/// of `a`, restricted to columns `col_start..`.
///
/// Used by the unblocked reference QR ([`crate::reference`]).
pub(crate) fn apply_reflector_left<T: Scalar<Real = f64>>(
    a: &mut Matrix<T>,
    offset: usize,
    tail: &[T],
    tau: T,
    col_start: usize,
) {
    if tau.is_zero() {
        return;
    }
    let m = 1 + tail.len();
    assert!(offset + m <= a.rows(), "reflector exceeds matrix height");
    let tau_c = tau.conj();
    for j in col_start..a.cols() {
        // w = vᴴ · a[offset.., j]
        let col = a.col_mut(j);
        let mut w = col[offset];
        for (r, &vr) in tail.iter().enumerate() {
            w += vr.conj() * col[offset + 1 + r];
        }
        let s = tau_c * w;
        col[offset] -= s;
        for (r, &vr) in tail.iter().enumerate() {
            col[offset + 1 + r] -= vr * s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::generate::{random_matrix, random_vector};
    use tileqr_matrix::norms::vector_norm2;
    use tileqr_matrix::Complex64;

    /// Checks that Hᴴ x = β e₁ for the generated reflector.
    fn check_larfg<T: Scalar<Real = f64>>(alpha: T, tail: Vec<T>) {
        let x_orig: Vec<T> = std::iter::once(alpha).chain(tail.iter().copied()).collect();
        let mut tail_v = tail.clone();
        let refl = larfg(alpha, &mut tail_v);
        // v = [1, tail_v...]
        let v: Vec<T> = std::iter::once(T::ONE)
            .chain(tail_v.iter().copied())
            .collect();
        // Hᴴ x = x − conj(τ)·v·(vᴴ x)
        let vhx: T = v.iter().zip(&x_orig).map(|(&vi, &xi)| vi.conj() * xi).sum();
        let s = refl.tau.conj() * vhx;
        let hx: Vec<T> = x_orig
            .iter()
            .zip(&v)
            .map(|(&xi, &vi)| xi - vi * s)
            .collect();
        // first entry equals beta, the rest are (numerically) zero
        assert!(
            (hx[0] - refl.beta).abs() < 1e-12 * (1.0 + refl.beta.abs()),
            "leading entry {} != beta {}",
            hx[0],
            refl.beta
        );
        let tail_norm = vector_norm2(&hx[1..]);
        assert!(
            tail_norm < 1e-12 * (1.0 + vector_norm2(&x_orig)),
            "tail not annihilated: {tail_norm}"
        );
        // norm preservation: |beta| = ‖x‖
        assert!(
            (refl.beta.abs() - vector_norm2(&x_orig)).abs() < 1e-12 * (1.0 + vector_norm2(&x_orig))
        );
        // beta is real
        assert!((refl.beta - T::from_real(refl.beta.real())).abs() < 1e-14);
    }

    #[test]
    fn larfg_annihilates_real_vectors() {
        check_larfg(3.0f64, vec![4.0]);
        check_larfg(-1.0f64, vec![2.0, -2.0, 1.0]);
        check_larfg(0.0f64, vec![1.0, 1.0, 1.0, 1.0]);
        let tail: Vec<f64> = random_vector(10, 42);
        check_larfg(0.37f64, tail);
    }

    #[test]
    fn larfg_annihilates_complex_vectors() {
        check_larfg(
            Complex64::new(1.0, -2.0),
            vec![Complex64::new(0.5, 0.5), Complex64::new(-1.0, 0.25)],
        );
        check_larfg(Complex64::new(0.0, 1.0), vec![Complex64::new(2.0, 0.0)]);
        let tail: Vec<Complex64> = random_vector(8, 7);
        check_larfg(Complex64::new(-0.3, 0.9), tail);
    }

    #[test]
    fn larfg_rescales_out_of_range_columns_exactly() {
        // Power-of-two scaling is exact, so the scaled column must give the
        // same τ and v bit for bit, and β scaled.
        let alpha = Complex64::new(0.3, -0.7);
        let tail: Vec<Complex64> = random_vector(6, 5);
        let mut v = tail.clone();
        let r = larfg(alpha, &mut v);
        for k in [560, -560, 1000, -1000] {
            let s = 2f64.powi(k);
            let mut vs: Vec<Complex64> = tail.iter().map(|x| x.scale(s)).collect();
            let rs = larfg(alpha.scale(s), &mut vs);
            assert_eq!((rs.tau, rs.beta.scale(1.0 / s)), (r.tau, r.beta), "2^{k}");
            assert_eq!(vs, v, "2^{k}");
        }
        // A huge leading entry over a tail that squares to nothing: the
        // sum overflows through `alpha` alone, and scaling down is right.
        let r = larfg(2f64.powi(1000), &mut [0.5]);
        assert_eq!((r.beta, r.tau), (2f64.powi(1000), 0.0));
    }

    #[test]
    fn larfg_identity_when_nothing_to_do() {
        let mut tail: Vec<f64> = vec![0.0, 0.0];
        let r = larfg(5.0f64, &mut tail);
        assert_eq!(r.tau, 0.0);
        assert_eq!(r.beta, 5.0);
        assert_eq!(tail, vec![0.0, 0.0]);
    }

    #[test]
    fn larfg_complex_alpha_with_zero_tail_still_reflects() {
        // With a purely imaginary alpha the reflector must still fire to make
        // beta real.
        let mut tail: Vec<Complex64> = vec![Complex64::ZERO];
        let r = larfg(Complex64::new(0.0, 2.0), &mut tail);
        assert!(!Scalar::is_zero(r.tau));
        assert!((Scalar::abs(r.beta) - 2.0).abs() < 1e-14);
        assert!(r.beta.im.abs() < 1e-14);
    }

    #[test]
    fn apply_reflector_respects_column_offset() {
        let mut a: Matrix<f64> = random_matrix(5, 4, 9);
        let before = a.clone();
        let tail = vec![0.5, -0.25];
        apply_reflector_left(&mut a, 1, &tail, 0.8, 2);
        // columns 0 and 1 untouched
        assert_eq!(a.col(0), before.col(0));
        assert_eq!(a.col(1), before.col(1));
        // row 0 untouched (reflector starts at row offset 1)
        for j in 0..4 {
            assert_eq!(a.get(0, j), before.get(0, j));
        }
        // column 2 changed
        assert_ne!(a.col(2), before.col(2));
    }
}
