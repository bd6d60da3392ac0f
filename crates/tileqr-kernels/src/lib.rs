//! Sequential tile kernels for the tiled QR factorization.
//!
//! The paper's Table 1 lists six kernels; this crate implements all of them
//! from scratch on top of Householder reflections with a compact WY
//! (`I − V·T·Vᴴ`) representation, mirroring the LAPACK/PLASMA `core_blas`
//! routines they replace:
//!
//! | Kernel | Operation | Paper weight (`nb³/3` flops) |
//! |---|---|---|
//! | [`geqrt_ws`]  | factor a square tile into a triangle | 4 |
//! | [`tsqrt_ws`]  | zero a square tile using the triangle on top of it | 6 |
//! | [`ttqrt_ws`]  | zero a *triangular* tile using the triangle on top of it | 2 |
//! | [`unmqr_ws`]  | apply a GEQRT reflector block to a trailing tile | 6 |
//! | [`tsmqr_ws`]  | apply a TSQRT reflector block to a trailing tile pair | 12 |
//! | [`ttmqr_ws`]  | apply a TTQRT reflector block to a trailing tile pair | 6 |
//!
//! The six are two routines — one factorization, one update — over one
//! description of a reflector block: a GEQRT *tile* (a unit-lower `V` under
//! `R`) or a TS/TT *pair* (`[I; V2]`, the identity acting on a pivot tile).
//! TS and TT differ only in how far a column of `V2` is stored: to row `nb`,
//! or to its diagonal.
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
//!    Owned by the factorization routine in [`factor`] (GEQRT / TSQRT /
//!    TTQRT) and the update routine in [`apply`] (UNMQR / TSMQR / TTMQR):
//!    they walk a tile (pair), in place, and decide *what* is computed.
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
//!    panel's columns — PLASMA's `ib × nb` T layout). The *structure* of
//!    `V_s` the reflector description names (a unit-lower trapezoid for a
//!    tile; an identity over a dense block or over an upper trapezoid for a
//!    pair) and of the upper-triangular `T_s` exists only while the
//!    operands are packed: implied zeros
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
//!    kernels for AVX2+FMA and AVX-512F on x86-64, and a generic scalar
//!    fallback that every other target runs, selected **once per process**
//!    by runtime feature detection (overridable with
//!    `TILEQR_SIMD={scalar,avx2,avx512}`) and cached. The shape is
//!    sized so that a product only `ib` deep still runs at the kernel's
//!    steady state — on AVX-512 a `16 × 8` f64 block, 16 accumulator
//!    registers, where the `8 × 4` of the narrower levels left the FMA pipes
//!    waiting on each other. Builds stay portable — no `-C target-cpu=native`
//!    pin — and the per-call dispatch cost is zero. Std only, no external
//!    dependencies.
//!
//!    The Level-2 half of a TS panel — the in-panel reflector sweep and the
//!    `T` build — is dispatched too, once per panel, into a body compiled
//!    for the level ([`simd`]'s Level-2 operations): the dots of independent
//!    columns run eight at a time, each holding [`blas::dot_conj`]'s four
//!    partial sums as the lanes of one vector, and the rank-1 updates at
//!    full width. These operations stay unfused even under the `fma`
//!    feature, so GEQRT, TSQRT and TTQRT give every level the scalar
//!    level's bits; GEQRT and TTQRT panels, `Complex64` and the scalar
//!    level keep the generic loops.
//!
//! Because every element of every product is reduced over `k` in order,
//! from zero, the block shape and the edge handling never change a result
//! bit; what *does* define the arithmetic is the formulation above (zeros
//! of a structured operand are multiplied, not skipped), which every
//! execution path of the runtime shares.
//!
//! # Workspaces and the zero-allocation hot path
//!
//! Every kernel takes a caller-provided [`Workspace`] and performs **zero
//! heap allocations**: the Householder scalars, the reflector tail, both
//! staging panels and the micro-BLAS pack buffers are preallocated for the
//! worst case at workspace construction, and the kernels need no other
//! scratch — a triangular tile is factored where it lies, never copied. The
//! runtime (`tileqr-runtime`) gives every worker thread its own workspace,
//! so none of the `O(p·q²)` tasks of a factorization touches the allocator;
//! one-off callers build a [`Workspace::new`]`(nb)` for the call.
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

pub use apply::{tsmqr_ws, ttmqr_ws, unmqr_ws, Trans};
pub use factor::{geqrt_ws, tsqrt_ws, ttqrt_ws};
pub use workspace::Workspace;
