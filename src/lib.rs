//! # tiled-qr — Tiled QR factorization algorithms
//!
//! A production-quality Rust reproduction of *"Tiled QR factorization
//! algorithms"* (Bouwmeester, Jacquelin, Langou, Robert — SC 2011 / INRIA
//! RR-7601). The workspace is split into focused crates; this facade simply
//! re-exports their public APIs so downstream users can depend on a single
//! crate:
//!
//! * [`matrix`] — dense & tiled matrix storage, `f64` / `Complex64` scalars.
//! * [`kernels`] — the six sequential tile kernels (`GEQRT`, `TSQRT`,
//!   `TTQRT`, `UNMQR`, `TSMQR`, `TTMQR`) built on Householder reflections
//!   with a compact WY representation.
//! * [`core`] — elimination lists, reduction-tree algorithms (FlatTree,
//!   Fibonacci, Greedy, Asap, Grasap, BinaryTree, PlasmaTree), the weighted
//!   task DAG, the critical-path simulator and the roofline-style
//!   performance model.
//! * [`runtime`] — a multicore dependency-counting scheduler that executes
//!   the task DAG, plus high-level drivers (factorize, apply Qᴴ, build Q,
//!   least-squares solve) and a streaming multi-tenant service layer
//!   (bounded admission, fair scheduling, load shedding, transient-fault
//!   retry).
//!
//! `examples/quickstart.rs` is the quickstart; `ROADMAP.md` holds the state
//! and aims of the repository, and `benchmark/README.md` the end-to-end
//! benchmark and its layer ledger. The paper's tables and figures are
//! reproduced by the `table*`/`figure*` binaries of `tileqr-bench`.

pub use tileqr_core as core;
pub use tileqr_kernels as kernels;
pub use tileqr_matrix as matrix;
pub use tileqr_runtime as runtime;

/// Convenience prelude re-exporting the types most programs need.
///
/// For a single factorization use [`qr_factorize`](prelude::qr_factorize);
/// services factoring a stream of matrices should hold a
/// [`QrContext`](prelude::QrContext) (persistent worker pool) plus one
/// [`QrPlan`](prelude::QrPlan) per problem shape, so repeated calls pay only
/// kernel time. Multi-tenant traffic goes through a
/// [`QrService`](prelude::QrService) in front of the context.
pub mod prelude {
    pub use tileqr_core::algorithms::Algorithm;
    pub use tileqr_core::dag::KernelFamily;
    pub use tileqr_matrix::{Complex64, Matrix, Scalar, TiledMatrix};
    pub use tileqr_runtime::context::{QrContext, QrError, QrPlan, QrReflectors};
    pub use tileqr_runtime::driver::{qr_factorize, QrConfig, QrFactorization};
    pub use tileqr_runtime::service::{
        Priority, QrClient, QrService, RetryPolicy, ServiceConfig, ServiceStats, Ticket,
    };
    pub use tileqr_runtime::solve::{
        least_squares_solve, least_squares_solve_via, least_squares_solve_with,
    };
}
