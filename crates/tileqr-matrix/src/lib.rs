//! Dense and tiled matrix substrate for the tiled QR factorization library.
//!
//! This crate provides the data-layout layer that the QR kernels
//! (`tileqr-kernels`) and the runtime (`tileqr-runtime`) operate on:
//!
//! * [`Scalar`] — an abstraction over the element type, implemented for
//!   [`f64`] and for the crate's own [`Complex64`] so every algorithm works in
//!   both *double* and *double complex* precision, exactly as in the paper's
//!   experimental section.
//! * [`Matrix`] — a column-major dense matrix with the small set of BLAS-like
//!   operations the kernels need (norms, multiplication, triangular checks).
//! * [`TiledMatrix`] — the PLASMA-style tile layout: a `p × q` grid of
//!   contiguous `nb × nb` tiles, which is the unit the elimination algorithms
//!   reason about. A triangular tile keeps this dense layout: the kernels
//!   read and write its triangle in place, while the other half goes on
//!   holding what an earlier kernel left there (GEQRT's Householder
//!   vectors), so no tile is ever repacked.
//! * [`generate`] — reproducible random and structured matrix generators used
//!   by the tests, examples and the benchmark harness.
//!
//! Everything is implemented from scratch (no BLAS/LAPACK bindings), which is
//! what makes the library self-contained and portable.

#![warn(missing_docs)]

pub mod complex;
pub mod dense;
pub mod generate;
pub mod norms;
pub mod rng;
pub mod scalar;
pub mod tiled;

pub use complex::Complex64;
pub use dense::Matrix;
pub use scalar::{RealScalar, Scalar};
pub use tiled::{TileRef, TiledMatrix};
