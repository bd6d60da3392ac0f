//! Sequential tile kernels for the tiled QR factorization.
//!
//! The paper's Table 1 lists six kernels; this crate implements all of them
//! from scratch on top of Householder reflections with a compact WY
//! (`I − V·T·Vᴴ`) representation, mirroring the LAPACK/PLASMA `core_blas`
//! routines they replace:
//!
//! | Kernel | Operation | Paper weight (`nb³/3` flops) |
//! |---|---|---|
//! | [`geqrt`]  | factor a square tile into a triangle | 4 |
//! | [`tsqrt`]  | zero a square tile using the triangle on top of it | 6 |
//! | [`ttqrt`]  | zero a *triangular* tile using the triangle on top of it | 2 |
//! | [`unmqr`]  | apply a [`geqrt`] reflector block to a trailing tile | 6 |
//! | [`tsmqr`]  | apply a [`tsqrt`] reflector block to a trailing tile pair | 12 |
//! | [`ttmqr`]  | apply a [`ttqrt`] reflector block to a trailing tile pair | 6 |
//!
//! All kernels are generic over the [`Scalar`](tileqr_matrix::Scalar) type,
//! so the same code serves the paper's *double* (`f64`) and *double complex*
//! ([`Complex64`](tileqr_matrix::Complex64)) experiments.
//!
//! # The blocking hierarchy: `nb` → `ib` → `MR × NR` → ISA
//!
//! The kernels are organized around three nested blocking levels — the same
//! hierarchy PLASMA's `core_blas` uses — plus a runtime-dispatch level that
//! decides *which instructions* execute the innermost block:
//!
//! 1. **Tile level (`nb`)** — the unit the runtime's task DAG schedules.
//!    Owned by the kernel entry points in [`factor`] (GEQRT / TSQRT / TTQRT)
//!    and [`apply`] (UNMQR / TSMQR / TTMQR): they walk a tile (pair) and
//!    decide *what* is computed.
//! 2. **Inner panel level (`ib`)** — each `nb × nb` tile is factored and
//!    applied in panels of `ib` columns (the
//!    [`Workspace`] carries `ib`; `ib = nb` reproduces
//!    the historical unblocked path bit for bit). Reflectors are generated
//!    column by column *inside* a panel, and the trailing columns are
//!    touched once per panel through the blocked compact-WY update
//!    `W := VᴴC`, `W := op(T)·W`, `C := C − V·W`, which turns the bulk of
//!    every kernel into matrix–matrix products of width `ib`. The panel
//!    `T` factors are stored `ib`-blocked (rows `0..w` of the panel's
//!    columns — PLASMA's `ib × nb` T layout). The structured panel pieces
//!    (unit-lower triangles, packed-upper TT trapezoids, the `trmm` with
//!    `T`, pivot-row staging) live in [`blas`], which owns everything that
//!    is `O(nb·ib²)` or smaller.
//! 3. **Register level (`MR × NR`)** — the dense bulk of every panel update
//!    funnels through [`microblas`]: packed operand panels and a
//!    register-blocked microkernel accumulating an `MR × NR` block in a
//!    fixed-size stack array (independent dependency chains). The block
//!    shape is chosen per scalar type
//!    ([`Scalar::MR`](tileqr_matrix::Scalar::MR): `8 × 4` for `f64`,
//!    `4 × 4` for `Complex64` so the complex accumulators fit the register
//!    file). [`microblas`] owns everything `O(nb²·ib)` — the flops that
//!    dominate.
//! 4. **Instruction level (runtime ISA dispatch)** — the microkernel itself
//!    is implemented per instruction set in [`simd`] with explicit
//!    `core::arch` intrinsics (AVX2+FMA and AVX-512F on x86-64, NEON on
//!    aarch64, and a generic scalar fallback identical to the historical
//!    kernel), selected **once per process** by runtime feature detection
//!    (overridable with `TILEQR_SIMD={scalar,avx2,avx512,neon}`) and cached,
//!    so builds are portable — no `-C target-cpu=native` pin — while the
//!    per-call dispatch cost is zero. Std only, no external dependencies.
//!
//! The triangular tiles of the TT kernel family additionally use the packed
//! column-major layout of [`tileqr_matrix::packed`] inside [`ttqrt_ws`] and
//! [`ttmqr_ws`]: only the triangle is packed/unpacked (the strictly-lower
//! Householder vectors of an earlier GEQRT are never touched) and the
//! elimination loops run on contiguous columns.
//!
//! # Workspaces and the zero-allocation hot path
//!
//! Each kernel comes in two flavours:
//!
//! * an allocating entry point with the historical signature
//!   ([`geqrt`], [`tsqrt`], [`ttqrt`], [`unmqr`], [`tsmqr`], [`ttmqr`]) that
//!   builds a fresh [`Workspace`] per call — convenient
//!   for tests and one-off use, source-compatible with earlier releases;
//! * a `*_ws` variant ([`factor::geqrt_ws`], [`apply::tsmqr_ws`], …) taking a
//!   caller-provided [`Workspace`] and performing
//!   **zero heap allocations**: the staging panel, the micro-BLAS pack
//!   buffers and the packed triangular scratch are all preallocated for the
//!   worst case at workspace construction. The runtime (`tileqr-runtime`)
//!   gives every worker thread its own workspace, so none of the `O(p·q²)`
//!   tasks of a factorization touches the allocator.
//!
//! The crate also provides a reference unblocked Householder QR on dense
//! matrices ([`mod@reference`]) used to validate the tiled factorizations, and
//! flop counters ([`flops`]) used by the benchmark harness to report GFLOP/s.

#![warn(missing_docs)]

pub mod apply;
pub mod blas;
pub mod factor;
pub mod flops;
pub mod householder;
pub mod microblas;
pub mod reference;
pub mod simd;
pub mod workspace;

pub use apply::{tsmqr, tsmqr_ws, ttmqr, ttmqr_ws, unmqr, unmqr_ws, Trans};
pub use factor::{geqrt, geqrt_ws, tsqrt, tsqrt_ws, ttqrt, ttqrt_ws};
pub use workspace::Workspace;
