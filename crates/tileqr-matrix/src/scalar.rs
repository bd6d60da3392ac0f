//! The [`Scalar`] abstraction over real and complex double precision.
//!
//! The QR kernels are written once, generically, and instantiated for `f64`
//! (the paper's *double precision* experiments) and [`Complex64`] (the
//! *double complex* experiments). The trait exposes exactly the operations a
//! Householder QR factorization needs: field arithmetic, conjugation, absolute
//! value, square root of the modulus, and conversion from reals.

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::complex::Complex64;

/// Marker-ish trait for the real type underlying a [`Scalar`]; in this crate
/// it is always `f64`, but keeping it as an associated type makes the kernel
/// code read like the mathematics (norms are real, elements may be complex).
pub trait RealScalar:
    Copy
    + Debug
    + Display
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Largest of two values.
    fn max(self, other: Self) -> Self;
}

impl RealScalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    #[inline]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline]
    fn max(self, other: f64) -> f64 {
        f64::max(self, other)
    }
}

/// Element type of matrices handled by the tiled QR library.
///
/// Implemented for [`f64`] and [`Complex64`]. All operations are `Copy`-based
/// value semantics; the kernels never allocate per-element.
pub trait Scalar:
    Copy
    + Debug
    + Display
    + PartialEq
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Send
    + Sync
    + 'static
{
    /// The associated real type (always `f64` here).
    type Real: RealScalar;

    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Number of real floating-point values stored per element (1 for `f64`,
    /// 2 for `Complex64`); used by the benchmark harness when reporting
    /// GFLOP/s in the two precisions.
    const REALS_PER_ELEMENT: usize;

    /// Flops performed by one fused multiply-add on this type: 2 for real
    /// arithmetic, 8 for complex arithmetic (cf. the paper's Section 4
    /// discussion of FMA cost in real vs. complex arithmetic).
    const FLOPS_PER_FMA: usize;

    /// Complex conjugate (identity for reals).
    fn conj(self) -> Self;

    /// Modulus `|x|` as a real number.
    fn abs(self) -> Self::Real;

    /// Squared modulus `|x|²` as a real number.
    fn abs_sqr(self) -> Self::Real;

    /// Embeds a real value.
    fn from_real(r: Self::Real) -> Self;

    /// Real part of the element.
    fn real(self) -> Self::Real;

    /// Scales by a real factor.
    fn scale(self, s: Self::Real) -> Self;

    /// True if the element is exactly zero.
    #[inline]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// True if any component is NaN.
    fn is_nan(self) -> bool;

    /// True if every component is finite (neither NaN nor infinite).
    fn is_finite(self) -> bool;

    /// Multiply-accumulate `self + a·b`, the innermost operation of the
    /// register-tiled microkernel.
    ///
    /// The default is the plain two-instruction `mul` + `add`, which every
    /// backend compiles to hardware. With the **`fma` cargo feature** on *and*
    /// the `fma` target feature enabled at compile time (`-C
    /// target-cpu=native` on any modern x86-64, or `x86-64-v3`), the `f64`
    /// implementation routes through [`f64::mul_add`] instead, which LLVM
    /// lowers to a single `vfmadd` — doubling the multiply-add throughput
    /// ceiling of the microkernel. The double gate matters: `mul_add`
    /// *without* hardware FMA falls back to a libm software fma (hundreds of
    /// cycles), so the no-FMA build must never take that path.
    ///
    /// Fusing changes rounding (the product is not rounded before the add),
    /// so builds with it differ from unfused builds in low-order bits. The
    /// `fma` cargo feature is **on by default** since the runtime-dispatch
    /// release: the explicit-SIMD microkernels in `tileqr-kernels` use fused
    /// intrinsics under it, while this scalar path stays unfused on a
    /// generic x86-64 target (no `fma` *target* feature). Build with
    /// `--no-default-features` for a fully unfused binary in which every
    /// SIMD level reproduces the scalar path bit for bit.
    #[inline]
    fn mul_acc(self, a: Self, b: Self) -> Self {
        self + a * b
    }
}

impl Scalar for f64 {
    type Real = f64;
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    const REALS_PER_ELEMENT: usize = 1;
    const FLOPS_PER_FMA: usize = 2;

    #[inline]
    fn conj(self) -> Self {
        self
    }
    #[inline]
    fn abs(self) -> f64 {
        f64::abs(self)
    }
    #[inline]
    fn abs_sqr(self) -> f64 {
        self * self
    }
    #[inline]
    fn from_real(r: f64) -> Self {
        r
    }
    #[inline]
    fn real(self) -> f64 {
        self
    }
    #[inline]
    fn scale(self, s: f64) -> Self {
        self * s
    }
    #[inline]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }

    /// Hardware-fused multiply-add; compiled only when the build guarantees
    /// an FMA unit, so the fallback never routes through libm. On x86-64
    /// that is the `fma` target feature (`-C target-cpu=native`/`x86-64-v3`);
    /// aarch64 has no such target feature because fused `fmadd` is baseline
    /// hardware, so the cargo feature alone suffices there.
    #[cfg(all(feature = "fma", any(target_feature = "fma", target_arch = "aarch64")))]
    #[inline]
    fn mul_acc(self, a: f64, b: f64) -> f64 {
        a.mul_add(b, self)
    }
}

impl Scalar for Complex64 {
    type Real = f64;
    const ZERO: Complex64 = Complex64::ZERO;
    const ONE: Complex64 = Complex64::ONE;
    const REALS_PER_ELEMENT: usize = 2;
    const FLOPS_PER_FMA: usize = 8;

    #[inline]
    fn conj(self) -> Self {
        Complex64::conj(self)
    }
    #[inline]
    fn abs(self) -> f64 {
        Complex64::abs(self)
    }
    #[inline]
    fn abs_sqr(self) -> f64 {
        self.norm_sqr()
    }
    #[inline]
    fn from_real(r: f64) -> Self {
        Complex64::from_real(r)
    }
    #[inline]
    fn real(self) -> f64 {
        self.re
    }
    #[inline]
    fn scale(self, s: f64) -> Self {
        Complex64::scale(self, s)
    }
    #[inline]
    fn is_nan(self) -> bool {
        Complex64::is_nan(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        Complex64::is_finite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::eq_op)] // x - x == 0 is exactly the identity under test
    fn generic_field_checks<T: Scalar<Real = f64>>(x: T, y: T) {
        // basic field identities available through the trait surface
        assert_eq!(x + T::ZERO, x);
        assert_eq!(x * T::ONE, x);
        assert_eq!(x - x, T::ZERO);
        let z = x * y;
        assert!((z.abs() - x.abs() * y.abs()).abs() < 1e-12 * (1.0 + z.abs()));
        assert!(!x.is_nan());
    }

    #[test]
    fn f64_implements_scalar() {
        generic_field_checks(3.5f64, -2.25f64);
        assert_eq!(<f64 as Scalar>::conj(-4.0), -4.0);
        assert_eq!(<f64 as Scalar>::abs_sqr(3.0), 9.0);
        assert_eq!(<f64 as Scalar>::from_real(2.0), 2.0);
        assert_eq!(<f64 as Scalar>::REALS_PER_ELEMENT, 1);
        assert_eq!(<f64 as Scalar>::FLOPS_PER_FMA, 2);
    }

    #[test]
    fn complex_implements_scalar() {
        generic_field_checks(Complex64::new(1.0, 2.0), Complex64::new(-0.5, 1.5));
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(Scalar::abs(z), 5.0);
        assert_eq!(Scalar::abs_sqr(z), 25.0);
        assert_eq!(Scalar::conj(z), Complex64::new(3.0, 4.0));
        assert_eq!(Scalar::real(z), 3.0);
        assert_eq!(<Complex64 as Scalar>::REALS_PER_ELEMENT, 2);
        assert_eq!(<Complex64 as Scalar>::FLOPS_PER_FMA, 8);
    }

    #[test]
    fn real_scalar_helpers() {
        assert_eq!(RealScalar::sqrt(9.0f64), 3.0);
        assert_eq!(RealScalar::abs(-2.0f64), 2.0);
        assert_eq!(RealScalar::max(1.0f64, 2.0), 2.0);
        assert_eq!(<f64 as RealScalar>::ZERO, 0.0);
        assert_eq!(<f64 as RealScalar>::ONE, 1.0);
    }

    #[test]
    fn mul_acc_matches_mul_plus_add_within_rounding() {
        // Bitwise equal without the `fma` feature; within one ulp of the
        // product magnitude with it (fusing skips the intermediate rounding).
        let (acc, a, b) = (0.1f64, 1.0 / 3.0, 3.0f64);
        let fused = acc.mul_acc(a, b);
        let plain = acc + a * b;
        assert!((fused - plain).abs() <= f64::EPSILON * plain.abs());
        let z = Complex64::new(1.0, -2.0).mul_acc(Complex64::new(0.5, 0.5), Complex64::ONE);
        assert_eq!(z, Complex64::new(1.5, -1.5));
    }

    #[test]
    fn zero_detection() {
        assert!(Scalar::is_zero(0.0f64));
        assert!(!Scalar::is_zero(1e-300f64));
        assert!(Scalar::is_zero(Complex64::ZERO));
        assert!(!Scalar::is_zero(Complex64::new(0.0, 1e-300)));
    }
}
