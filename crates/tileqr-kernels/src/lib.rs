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
//! # The blocking hierarchy: `nb` → `ib` → register block → ISA
//!
//! The kernels are organized around three nested blocking levels — the same
//! hierarchy PLASMA's `core_blas` uses — with the innermost one a property
//! of the instruction set the process runs on:
//!
//! 1. **Tile level (`nb`)** — the unit the runtime's task DAG schedules.
//!    Owned by the kernel entry points in [`factor`] (GEQRT / TSQRT / TTQRT)
//!    and [`apply`] (UNMQR / TSMQR / TTMQR): they walk a tile (pair) and
//!    decide *what* is computed.
//! 2. **Inner panel level (`ib`)** — each `nb × nb` tile is factored and
//!    applied in panels of `ib` columns (the [`Workspace`] carries `ib`).
//!    Reflectors are generated column by column *inside* a panel; everything
//!    outside it — the trailing columns of the tile being factored, every
//!    target tile of an update kernel — meets the panel through **one block
//!    reflector primitive**, three matrix products per panel:
//!
//!    ```text
//!    W += V_sᴴ·C,   W₂ := op(T_s)·W,   C −= V_s·W₂.
//!    ```
//!
//!    The panel `T` factors are stored `ib`-blocked (rows `0..w` of the
//!    panel's columns — PLASMA's `ib × nb` T layout). What distinguishes the
//!    kernel families is the *structure* of `V_s` (unit-lower trapezoid for
//!    GEQRT/UNMQR, identity over a dense block for TS, identity over an
//!    upper trapezoid for TT) and of the upper-triangular `T_s`, and that
//!    structure exists only while the operands are packed: implied zeros
//!    and the unit diagonal are written into the pack buffer, never looked
//!    up by a structured loop. [`blas`] keeps only the Level-2 pieces of
//!    the in-panel sweep and the pivot-row window of the TS/TT identity
//!    block.
//! 3. **Register level** — all three products run on [`microblas`]: packed
//!    operand panels and a microkernel that holds one register block of `C`
//!    in accumulators over the whole `k` loop (independent dependency
//!    chains), then writes `C ±= acc` straight from the registers. Edge
//!    blocks compute their valid columns only, so a one-column right-hand
//!    side costs one column.
//! 4. **Instruction level (runtime ISA dispatch)** — the register block's
//!    *shape* and its implementation belong together and are chosen per
//!    (scalar type, instruction set) in [`simd`]: explicit `core::arch`
//!    kernels for AVX2+FMA and AVX-512F on x86-64 and NEON on aarch64, and a
//!    generic scalar fallback, selected **once per process** by runtime
//!    feature detection (overridable with
//!    `TILEQR_SIMD={scalar,avx2,avx512,neon}`) and cached. The shape is
//!    sized so that a product only `ib` deep still runs at the kernel's
//!    steady state — on AVX-512 a `16 × 8` f64 block, 16 accumulator
//!    registers, where the `8 × 4` of the narrower levels left the FMA pipes
//!    waiting on each other. Builds stay portable — no `-C target-cpu=native`
//!    pin — and the per-call dispatch cost is zero. Std only, no external
//!    dependencies.
//!
//! Because every element of every product is reduced over `k` in order,
//! from zero, the block shape and the edge handling never change a result
//! bit; what *does* define the arithmetic is the formulation above (zeros
//! of a structured operand are multiplied, not skipped), which every
//! execution path of the runtime shares.
//!
//! [`ttqrt_ws`] additionally keeps the triangular tile it annihilates in
//! the packed column-major layout of [`tileqr_matrix::packed`] for the
//! duration of the kernel: only the triangle is packed/unpacked (the
//! strictly-lower Householder vectors of an earlier GEQRT are never
//! touched) and the elimination loops run on contiguous columns.
//! [`ttmqr_ws`] reads its `V2` in place, column by column down to the
//! diagonal.
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
//!   **zero heap allocations**: both staging panels, the micro-BLAS pack
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
mod reflector;
pub mod simd;
pub mod workspace;

pub use apply::{tsmqr, tsmqr_ws, ttmqr, ttmqr_ws, unmqr, unmqr_ws, Trans};
pub use factor::{geqrt, geqrt_ws, tsqrt, tsqrt_ws, ttqrt, ttqrt_ws};
pub use workspace::Workspace;
