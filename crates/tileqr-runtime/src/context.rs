//! Session-style factorization API: [`QrContext`] + [`QrPlan`].
//!
//! The free functions of [`crate::driver`] are one-shot: every call re-tiles
//! the matrix, rebuilds the elimination list and [`TaskDag`], reallocates all
//! scratch, and spawns a fresh set of worker threads. That is the right shape
//! for a single large factorization, but a service factoring a *stream* of
//! moderate-size matrices pays the planning and pool-startup cost on every
//! request. This module splits the API the way PLASMA splits it:
//!
//! * [`QrContext`] — the long-lived runtime: a persistent, parkable worker
//!   pool (built once from `threads` + [`SchedulerKind`]; workers idle
//!   through the executor's [`Backoff`](crate::sync::Backoff) between jobs
//!   instead of being respawned) plus the scheduling policy.
//! * [`QrPlan`] — the reusable schedule for one problem shape
//!   `(m, n, nb, ib, algorithm, family)`: the elimination list, the task
//!   DAG with its CSR successor lists, the critical-path priorities
//!   (computed lazily, shared by every job), and a checkout cache of
//!   per-worker kernel [`Workspace`]s. Building a plan is the *planning*
//!   phase; executing it is pure kernel time. For least squares
//!   ([`QrContext::solve`]) the plan also holds the schedule over `[A | B]`
//!   — the same elimination list with the right-hand side as a trailing tile
//!   column, built by the first solve — and the tile buffer solves factor
//!   in, parked between calls.
//! * [`QrError`] — typed errors replacing the driver's panics: bad shapes,
//!   zero tile sizes and oversized thread counts are reported as values.
//! * [`QrReflectors`] — the result of the in-place path
//!   [`QrContext::factorize_into`], which factors caller-owned tile storage
//!   without the dense→tiled copy and hands back only the `T` factors.
//!
//! # Batched factorization
//!
//! A service factoring many *small* matrices of one shape pays the pool
//! wake-up (epoch bump + unpark + park-tier wake latency) per call even with
//! a reused plan — for a 6 × 3-tile problem that overhead rivals the kernel
//! time itself. [`QrContext::factorize_batch`] (and the in-place
//! [`QrContext::factorize_batch_into`]) submits `k` independent matrices as
//! **one fused pool job**: task ids are the plan's DAG tiled `k` times
//! (`copy * tasks + local`), the per-shape CSR successor lists and
//! critical-path priorities are reused cyclically instead of re-materialized,
//! and the work-stealing deques load-balance freely *across* matrices — the
//! PLASMA insight that one DAG-driven pool amortizes over problems, not just
//! tiles. Per-item shape errors are isolated ([`Result`] per matrix); the
//! valid items still run.
//!
//! The last per-call allocation of the hot path — the `T`-factor storage —
//! recycles through the plan: [`QrPlan::recycle`] /
//! [`QrPlan::recycle_reflectors`] return a consumed result's `ib × nb`
//! buffers to a checkout pool the next factorization draws from (zeroed in
//! place, so results stay bitwise identical to the fresh-allocation path).
//! A steady-state loop of `factorize_batch_into` + `recycle_reflectors` over
//! refilled tile buffers performs only a fixed, small *number* of heap
//! allocations per call — none per task, per tile or per `T` factor. (The
//! few per-call bookkeeping buffers that remain — dependency counters,
//! scheduler deques — are each one allocation whose *size* scales with the
//! fused DAG; the counting-allocator test pins the count.)
//!
//! ```
//! use tileqr_matrix::{generate::random_matrix, Matrix};
//! use tileqr_runtime::{QrConfig, QrContext, QrPlan};
//!
//! let a: Matrix<f64> = random_matrix(96, 48, 7);
//! let ctx = QrContext::new(2).unwrap();
//! let plan: QrPlan<f64> = QrPlan::new(96, 48, QrConfig::new(16)).unwrap();
//! for _ in 0..4 {
//!     let f = ctx.factorize(&plan, &a).unwrap(); // only kernel time after call 1
//!     assert!(f.residual(&a) < 1e-11);
//! }
//! ```
//!
//! Every execution path of the context (sequential, and each scheduler on
//! the persistent pool) runs the same kernels in a DAG-respecting order, so
//! results are **bitwise identical** to the legacy free functions — the
//! equivalence suite pins this down for `f64` and `Complex64`.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::{KernelFamily, SuccessorsCsr, TaskDag, TaskKind};
use tileqr_kernels::{Trans, Workspace};
use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

use crate::driver::{elimination_list_for, replay_q, upper_triangle, QrConfig, QrFactorization};
use crate::executor::{
    drive_worker, DriveCtl, FaultSink, GroupSucc, ItemMap, LockedFifo, Scheduler, SchedulerKind,
    WorkStealing, WorkStealingPriority,
};
use crate::pool::{payload_message, Job, RunCtl, WorkerPool};
use crate::state::{gather_row_blocks, rhs_row_blocks, FactoredParts, FactorizationState};
use crate::sync::shim::{AtomicBool, AtomicUsize};
use crate::sync::{Backoff, CancelCause, CancelToken, ClaimFlag, Mutex};

/// Hard upper bound on the worker-thread count of a [`QrContext`]; requests
/// beyond it are configuration mistakes (the pool would oversubscribe any
/// real machine by orders of magnitude) and are rejected as
/// [`QrError::TooManyThreads`].
pub const MAX_THREADS: usize = 1024;

/// Typed errors of the session API ([`QrContext`] / [`QrPlan`]).
///
/// The legacy free functions ([`crate::driver::qr_factorize`] & co.) keep
/// their documented panicking behavior; the context API reports the same
/// conditions as values.
///
/// # Retry safety
///
/// Service clients ([`crate::service::QrService`]) classify every variant as
/// either **transient** — resubmitting the *same* input later can reasonably
/// succeed — or **deterministic** — the same input will fail the same way, so
/// a retry only burns capacity. [`QrError::is_transient`] encodes the
/// classification, and the service's retry layer consults it: transient
/// failures are retried (bounded attempts, decorrelated backoff),
/// deterministic ones are surfaced immediately. Per-variant docs note which
/// side each lands on; the transient set is [`QrError::TaskPanicked`],
/// [`QrError::Stalled`] and [`QrError::QueueFull`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum QrError {
    /// The matrix is wide (`m < n`); tiled QR requires tall or square.
    WideMatrix {
        /// Row count of the offending matrix.
        m: usize,
        /// Column count of the offending matrix.
        n: usize,
    },
    /// The configured tile size is zero.
    ZeroTileSize,
    /// A context with zero worker threads was requested.
    ZeroThreads,
    /// More worker threads than [`MAX_THREADS`] were requested.
    TooManyThreads {
        /// The requested thread count.
        requested: usize,
        /// The maximum the context accepts.
        max: usize,
    },
    /// The dense matrix handed to [`QrContext::factorize`] does not have the
    /// shape the plan was built for.
    ShapeMismatch {
        /// `(m, n)` the plan was built for.
        expected: (usize, usize),
        /// `(m, n)` of the matrix actually supplied.
        got: (usize, usize),
    },
    /// The tiled matrix handed to [`QrContext::factorize_into`] does not
    /// match the plan's tile grid.
    PlanMismatch {
        /// `(p, q, nb)` the plan was built for.
        expected: (usize, usize, usize),
        /// `(p, q, nb)` of the tiles actually supplied.
        got: (usize, usize, usize),
    },
    /// A right-hand side's length does not match the factored matrix.
    RhsLength {
        /// Expected length (`m` of the factored matrix).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// A kernel task panicked while factorizing this item. The panic was
    /// contained: only this batch item failed, its sibling items completed
    /// normally, and the pool survived. The item's output (tiles, `T`
    /// factors) holds partial garbage and must be refilled before reuse.
    ///
    /// **Transient** (retry-safe): a contained panic is environmental from
    /// the submitter's point of view (a wedged worker, an injected fault) —
    /// re-running the same input is reasonable and is what the service's
    /// retry layer does.
    TaskPanicked {
        /// The kernel task that panicked.
        kind: TaskKind,
        /// The panic message (string payloads verbatim, a placeholder for
        /// non-string payloads).
        message: String,
    },
    /// The factorization was cancelled through
    /// [`QrContext::cancel_handle`]. Batch items that had already finished
    /// when the cancellation was observed still return `Ok`.
    ///
    /// **Deterministic** (never auto-retried): cancellation is a caller
    /// decision; silently re-running cancelled work would defeat it.
    Cancelled,
    /// A `*_with_deadline` call ran past its deadline. Batch items that had
    /// already finished still return `Ok`.
    ///
    /// **Deterministic** (never auto-retried): the deadline belongs to the
    /// caller; retrying past it cannot make the result arrive in time.
    DeadlineExceeded,
    /// The pool watchdog ([`QrContext::with_watchdog`]) saw no progress from
    /// any worker for longer than the configured bound and cancelled the
    /// job.
    ///
    /// **Transient** (retry-safe): a stall is a scheduling/environment
    /// pathology, not a property of the input — the chance it recurs on a
    /// fresh run is exactly what bounded retries with backoff are for.
    Stalled,
    /// Spawning a pool worker thread failed ([`QrContext::new`] /
    /// [`QrContext::with_scheduler`]).
    ThreadSpawn {
        /// The underlying OS error, rendered.
        details: String,
    },
    /// The opt-in [`QrConfig::check_finite`] pre-submission scan found a NaN
    /// or infinity; the input was rejected before any kernel ran and the
    /// caller's buffers are untouched.
    ///
    /// **Deterministic** (never auto-retried): the NaN is in the data; it
    /// will still be there on the next attempt.
    NonFiniteInput {
        /// Row of the first non-finite entry (column-major scan order).
        row: usize,
        /// Column of the first non-finite entry.
        col: usize,
    },
    /// The triangular factor `R` of a least-squares solve has an exactly
    /// zero diagonal entry: `A` is rank deficient and `R·x = Qᴴ·b` has no
    /// unique solution. Reported by [`QrContext::solve`] and the fallible
    /// solves of [`crate::solve`].
    ///
    /// **Deterministic** (never auto-retried): the zero is a property of
    /// the input.
    SingularR {
        /// Index of the first zero diagonal entry met by the back
        /// substitution (which runs from the last row up).
        index: usize,
    },
    /// The service's bounded admission queue rejected the submission: the
    /// queue was at capacity ([`ServiceConfig::queue_capacity`]), the client
    /// was at its in-flight quota, a blocking submit's wait deadline expired
    /// before space appeared, or a low-priority submission was shed under
    /// saturation.
    ///
    /// **Transient** (retry-safe): nothing about the *input* is wrong — the
    /// service is telling the caller to back off and resubmit later. This is
    /// the typed backpressure signal of
    /// [`QrClient::submit`](crate::service::QrClient::submit).
    ///
    /// [`ServiceConfig::queue_capacity`]: crate::service::ServiceConfig::queue_capacity
    QueueFull,
    /// The service was shut down (dropped, or [`QrService::shutdown`] was
    /// called) before this item could run; queued and delayed-for-retry
    /// items are drained with this error rather than left hanging.
    ///
    /// **Deterministic** (never auto-retried by the service — it no longer
    /// exists): the caller may resubmit to a *different* service instance.
    ///
    /// [`QrService::shutdown`]: crate::service::QrService::shutdown
    ServiceShutdown,
}

impl QrError {
    /// Maps a triggered cancel token's cause to the error the affected items
    /// report.
    pub(crate) fn from_cancel(cause: CancelCause) -> QrError {
        match cause {
            CancelCause::Cancelled => QrError::Cancelled,
            CancelCause::DeadlineExceeded => QrError::DeadlineExceeded,
            CancelCause::Stalled => QrError::Stalled,
        }
    }

    /// True for errors where resubmitting the *same* input later can
    /// reasonably succeed — the classification the service's retry layer
    /// and callers' own backoff loops key on (see the
    /// [enum-level docs](QrError#retry-safety)).
    ///
    /// Transient: [`TaskPanicked`](QrError::TaskPanicked),
    /// [`Stalled`](QrError::Stalled), [`QueueFull`](QrError::QueueFull).
    /// Everything else — shape/configuration errors, non-finite inputs,
    /// cancellation, deadlines, shutdown — is deterministic and must not be
    /// blindly retried.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            QrError::TaskPanicked { .. } | QrError::Stalled | QrError::QueueFull
        )
    }
}

impl std::fmt::Display for QrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QrError::WideMatrix { m, n } => write!(
                f,
                "tiled QR requires a tall or square matrix (m ≥ n), got {m} × {n}"
            ),
            QrError::ZeroTileSize => write!(f, "tile size must be at least 1"),
            QrError::ZeroThreads => write!(f, "a context needs at least one worker thread"),
            QrError::TooManyThreads { requested, max } => {
                write!(f, "{requested} worker threads requested, maximum is {max}")
            }
            QrError::ShapeMismatch { expected, got } => write!(
                f,
                "plan built for a {} × {} matrix, got {} × {}",
                expected.0, expected.1, got.0, got.1
            ),
            QrError::PlanMismatch { expected, got } => write!(
                f,
                "plan built for a {} × {} grid of nb = {} tiles, got {} × {} of nb = {}",
                expected.0, expected.1, expected.2, got.0, got.1, got.2
            ),
            QrError::RhsLength { expected, got } => write!(
                f,
                "right-hand side length {got} does not match the factored row count {expected}"
            ),
            QrError::TaskPanicked { kind, message } => {
                write!(f, "kernel task {kind:?} panicked: {message}")
            }
            QrError::Cancelled => write!(f, "the factorization was cancelled"),
            QrError::DeadlineExceeded => write!(f, "the factorization deadline expired"),
            QrError::Stalled => write!(
                f,
                "a pool worker stalled past the watchdog bound; the job was cancelled"
            ),
            QrError::ThreadSpawn { details } => {
                write!(f, "failed to spawn a pool worker thread: {details}")
            }
            QrError::NonFiniteInput { row, col } => write!(
                f,
                "input contains a non-finite value at row {row}, column {col}"
            ),
            QrError::SingularR { index } => write!(
                f,
                "singular triangular factor: R[{index}, {index}] is exactly zero (rank-deficient A)"
            ),
            QrError::QueueFull => write!(
                f,
                "the service admission queue is full (or the submission was shed); \
                 back off and resubmit"
            ),
            QrError::ServiceShutdown => {
                write!(f, "the service was shut down before this item could run")
            }
        }
    }
}

impl std::error::Error for QrError {}

/// The scalar-independent part of a plan: the schedule itself.
///
/// Shared (`Arc`) between the plan, in-flight pool jobs and every
/// [`QrFactorization`]/[`QrReflectors`] produced from it, so the DAG is built
/// once per shape and never copied.
pub(crate) struct PlanCore {
    pub(crate) dag: Arc<TaskDag>,
    pub(crate) succ: SuccessorsCsr,
    /// Initially-ready task indices, in topological order.
    pub(crate) roots: Vec<usize>,
    /// Largest successor batch a single task completion can enable.
    pub(crate) max_out_degree: usize,
    /// Weighted critical-path-to-exit priorities, computed on first use by
    /// the priority scheduler and shared by every subsequent job.
    priorities: OnceLock<Arc<[u64]>>,
}

impl PlanCore {
    /// Builds the schedule of `algorithm` on a `p × q` grid followed by
    /// `trailing` update-only columns ([`TaskDag::trailing`]).
    fn build(
        algorithm: Algorithm,
        family: KernelFamily,
        p: usize,
        q: usize,
        trailing: usize,
    ) -> Self {
        let list = elimination_list_for(algorithm, p, q);
        let dag = TaskDag::build_with_trailing(&list, family, trailing);
        let succ = dag.successors_csr();
        let roots = crate::executor::initial_roots(&dag);
        let max_out_degree = succ.max_out_degree();
        PlanCore {
            dag: Arc::new(dag),
            succ,
            roots,
            max_out_degree,
            priorities: OnceLock::new(),
        }
    }

    fn priorities(&self) -> Arc<[u64]> {
        self.priorities
            .get_or_init(|| self.dag.priorities_with(&self.succ).into())
            .clone()
    }
}

/// A reusable factorization schedule for one problem shape.
///
/// A plan fixes `(m, n, nb, ib, algorithm, family)` and precomputes
/// everything about the factorization that does not depend on the matrix
/// *values*: the elimination list, the task DAG (with CSR successor lists
/// and root set), the critical-path priorities, and a cache of per-worker
/// kernel workspaces sized for `(nb, ib)`. Repeated factorizations of the
/// same shape through [`QrContext::factorize`] then pay only kernel time
/// (plus the unavoidable per-call tile/`T`-factor storage).
///
/// The type parameter is the element type the plan's workspaces serve
/// (`f64` or `Complex64`).
pub struct QrPlan<T: Scalar> {
    m: usize,
    n: usize,
    nb: usize,
    ib: usize,
    algorithm: Algorithm,
    family: KernelFamily,
    p: usize,
    q: usize,
    /// Opt-in pre-submission NaN/Inf scan ([`QrConfig::check_finite`]).
    check_finite: bool,
    pub(crate) core: Arc<PlanCore>,
    /// The schedule of [`QrContext::solve`]: the same elimination list over
    /// `[A | B]`, the right-hand side being one trailing tile column. It does
    /// not depend on the width of `B`, so there is one per plan, built by the
    /// first solve.
    solve_core: OnceLock<Arc<PlanCore>>,
    /// The tile buffer [`QrContext::solve`] fills and factors in place,
    /// parked here between solves (at most one is retained), so a stream of
    /// solves allocates nothing of `m · n` scale.
    solve_tiles: Mutex<Option<TiledMatrix<T>>>,
    /// Checkout cache of kernel workspaces: taken at job start, returned at
    /// job end, grown on demand up to the largest worker count seen.
    ws_cache: Mutex<Vec<Workspace<T>>>,
    /// Largest single checkout so far — the retention bound of `ws_cache`.
    /// Without it, concurrent `factorize` bursts (each building `threads`
    /// fresh workspaces against a momentarily-empty cache) would ratchet the
    /// cache up without limit; with it, surplus returns are dropped.
    ws_high_water: AtomicUsize,
    /// Recycled `ib × nb` `T`-factor buffers, returned by
    /// [`QrPlan::recycle`] / [`QrPlan::recycle_reflectors`] — or by simply
    /// *dropping* a result handle, which recycles through a weak
    /// back-reference — and drawn (zeroed in place) by the next
    /// factorization. Shared (`Arc`) so handles can outlive the plan without
    /// keeping its DAG alive just for the buffer return.
    t_pool: Arc<TPool<T>>,
}

/// The plan's shared pool of recycled `ib × nb` `T`-factor buffers.
///
/// Extracted behind an `Arc` so result handles ([`QrFactorization`] /
/// [`QrReflectors`]) can hold a `Weak` back-reference and return their
/// buffers automatically on drop — service clients who simply drop results
/// get the same allocation-free steady state as callers of the explicit
/// [`QrPlan::recycle`] path, and a handle dropped after its plan costs
/// nothing (the upgrade fails). Buffers of a foreign shape are dropped, and
/// the pool retains at most the widest checkout ever made, so recycling can
/// never ratchet memory up.
pub(crate) struct TPool<T: Scalar> {
    ib: usize,
    nb: usize,
    bufs: Mutex<Vec<Matrix<T>>>,
    /// Largest number of buffers a single call has checked out
    /// (`2 · p · q` per matrix in the batch) — the retention bound, same
    /// rationale as `ws_high_water`.
    high_water: AtomicUsize,
}

impl<T: Scalar> TPool<T> {
    fn new(ib: usize, nb: usize) -> Self {
        TPool {
            ib,
            nb,
            bufs: Mutex::new(Vec::new()),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Returns buffers to the pool, keeping only plan-shaped ones and at
    /// most the high-water count.
    pub(crate) fn recycle(&self, bufs: impl Iterator<Item = Option<Matrix<T>>>) {
        let cap = self.high_water.load(Ordering::Relaxed);
        let mut pool = self.bufs.lock();
        for b in bufs.flatten() {
            if pool.len() >= cap {
                break;
            }
            if b.shape() == (self.ib, self.nb) {
                pool.push(b);
            }
        }
    }

    /// Records a checkout of `need` buffers and takes up to that many out of
    /// the pool (newest first) under a short lock.
    fn take(&self, need: usize) -> Vec<Matrix<T>> {
        self.high_water.fetch_max(need, Ordering::Relaxed);
        let mut pool = self.bufs.lock();
        let keep = pool.len().saturating_sub(need);
        pool.split_off(keep)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.bufs.lock().len()
    }
}

impl<T: Scalar> std::fmt::Debug for QrPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QrPlan")
            .field("m", &self.m)
            .field("n", &self.n)
            .field("tile_size", &self.nb)
            .field("inner_block", &self.ib)
            .field("algorithm", &self.algorithm)
            .field("family", &self.family)
            .field("grid", &(self.p, self.q))
            .field("tasks", &self.core.dag.len())
            .finish_non_exhaustive()
    }
}

impl<T: Scalar> QrPlan<T> {
    /// Builds the plan for factorizing `m × n` matrices with the shape
    /// parameters of `config` (`tile_size`, `inner_block`, `algorithm`,
    /// `family` — the `threads`/`scheduler` fields belong to the
    /// [`QrContext`] and are ignored here).
    pub fn new(m: usize, n: usize, config: QrConfig) -> Result<Self, QrError> {
        if config.tile_size == 0 {
            return Err(QrError::ZeroTileSize);
        }
        if m < n {
            return Err(QrError::WideMatrix { m, n });
        }
        let nb = config.tile_size;
        let ib = config.effective_inner_block();
        // Degenerate empty matrices pad to one tile, exactly like
        // `TiledMatrix::from_dense_padded`.
        let p = m.div_ceil(nb).max(1);
        let q = n.div_ceil(nb).max(1);
        Ok(QrPlan {
            m,
            n,
            nb,
            ib,
            algorithm: config.algorithm,
            family: config.family,
            p,
            q,
            check_finite: config.check_finite,
            core: Arc::new(PlanCore::build(config.algorithm, config.family, p, q, 0)),
            solve_core: OnceLock::new(),
            solve_tiles: Mutex::new(None),
            ws_cache: Mutex::new(Vec::new()),
            ws_high_water: AtomicUsize::new(0),
            t_pool: Arc::new(TPool::new(ib, nb)),
        })
    }

    /// Row count the plan factorizes.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Column count the plan factorizes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tile size `nb`.
    pub fn tile_size(&self) -> usize {
        self.nb
    }

    /// Inner blocking factor `ib` the kernels will run with.
    pub fn inner_block(&self) -> usize {
        self.ib
    }

    /// Reduction tree the schedule was generated from.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Kernel family (TT or TS) of the schedule.
    pub fn family(&self) -> KernelFamily {
        self.family
    }

    /// Tile rows `p` of the padded grid.
    pub fn tile_rows(&self) -> usize {
        self.p
    }

    /// Tile columns `q` of the padded grid.
    pub fn tile_cols(&self) -> usize {
        self.q
    }

    /// Number of kernel tasks one factorization executes.
    pub fn task_count(&self) -> usize {
        self.core.dag.len()
    }

    /// Takes `count` workspaces out of the cache, building any that are
    /// missing; the caller returns them through
    /// [`QrPlan::restore_workspaces`] when the job is done.
    fn checkout_workspaces(&self, count: usize) -> Vec<Workspace<T>> {
        self.ws_high_water.fetch_max(count, Ordering::Relaxed);
        let mut cache = self.ws_cache.lock();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            match cache.pop() {
                Some(ws) => out.push(ws),
                None => out.push(Workspace::with_inner_block(self.nb, self.ib)),
            }
        }
        out
    }

    /// Returns checked-out workspaces to the cache for the next job,
    /// retaining at most one workspace per worker of the widest checkout
    /// ever made (surplus built during concurrent bursts is dropped).
    fn restore_workspaces(&self, ws: impl IntoIterator<Item = Workspace<T>>) {
        let cap = self.ws_high_water.load(Ordering::Relaxed);
        let mut cache = self.ws_cache.lock();
        cache.extend(ws);
        cache.truncate(cap);
    }

    /// The schedule of the fused solve, built on first use.
    fn solve_core(&self) -> &Arc<PlanCore> {
        self.solve_core.get_or_init(|| {
            Arc::new(PlanCore::build(
                self.algorithm,
                self.family,
                self.p,
                self.q,
                1,
            ))
        })
    }

    /// A weak back-reference to the plan's `T`-buffer pool, embedded in
    /// every result handle so dropping the handle recycles automatically.
    pub(crate) fn t_recycler(&self) -> std::sync::Weak<TPool<T>> {
        Arc::downgrade(&self.t_pool)
    }

    /// The opt-in pre-submission finiteness scan, for callers that hold the
    /// dense input themselves (the service layer applies it at dispatch
    /// time): the first non-finite entry when the plan was built with
    /// [`QrConfig::check_finite`](crate::driver::QrConfig::check_finite),
    /// `None` otherwise.
    pub(crate) fn non_finite_in(&self, a: &Matrix<T>) -> Option<(usize, usize)> {
        self.check_finite
            .then(|| find_non_finite_dense(a))
            .flatten()
    }
}

impl<T: Scalar<Real = f64>> QrPlan<T> {
    /// Builds one [`FactorizationState`] per job item, drawing the
    /// `T`-factor buffers (2 · p · q of `ib × nb` per matrix) from the
    /// plan's recycle pool where available — the fresh-allocation fallback
    /// and the recycled path are bitwise identical because recycled buffers
    /// are zeroed in place before reuse.
    fn build_states(&self, items: Vec<JobItem<T>>) -> Vec<FactorizationState<T>> {
        let need = 2 * self.p * self.q * items.len();
        // Take the recycled buffers out under a short lock; state
        // construction — tile-mutex wrapping, buffer zeroing and any
        // fresh-allocation fallback — runs lock-free, so concurrent
        // factorizations sharing one plan do not serialize here.
        let mut recycled: Vec<Matrix<T>> = self.t_pool.take(need);
        let mut supply = |r: usize, c: usize| match recycled.pop() {
            Some(mut m) => {
                debug_assert_eq!(m.shape(), (r, c), "T pool holds only plan-shaped buffers");
                m.as_mut_slice().fill(T::ZERO);
                m
            }
            None => Matrix::zeros(r, c),
        };
        items
            .into_iter()
            .map(|(tiles, rhs)| {
                let state = FactorizationState::with_t_supplier(tiles, self.ib, &mut supply);
                if rhs.is_empty() {
                    state
                } else {
                    state.with_rhs(rhs)
                }
            })
            .collect()
    }

    /// [`QrPlan::build_states`] for a single matrix — the streaming path
    /// builds copies one at a time because each item of a mixed group draws
    /// from its own plan's pool.
    fn build_state(&self, tiled: TiledMatrix<T>) -> FactorizationState<T> {
        self.build_states(vec![(tiled, Vec::new())])
            .pop()
            .expect("one matrix in, one state out")
    }

    /// Wraps the parts of a finished run of this plan's factor schedule into
    /// the result handle, which shares the plan's DAG and recycles its `T`
    /// buffers into the plan's pool when dropped.
    fn assemble(&self, parts: FactoredParts<T>) -> QrFactorization<T> {
        QrFactorization::from_parts(
            self.m,
            self.n,
            self.nb,
            self.ib,
            parts.tiles,
            parts.t_geqrt,
            parts.t_elim,
            Arc::clone(&self.core.dag),
            self.t_recycler(),
        )
    }

    /// Returns a consumed factorization's `T`-factor buffers to the plan's
    /// recycle pool, making the next [`QrContext::factorize`] /
    /// [`QrContext::factorize_batch`] call of this plan allocation-free for
    /// `T` storage — the last per-call allocation of the hot path. Buffers
    /// whose shape does not match the plan's `(ib, nb)` (a factorization
    /// from a differently-blocked plan) are silently dropped, and the pool
    /// retains at most the widest checkout ever made, so recycling can never
    /// ratchet memory up.
    pub fn recycle(&self, f: QrFactorization<T>) {
        let (t_geqrt, t_elim) = f.into_t_parts();
        self.t_pool.recycle(t_geqrt.into_iter().chain(t_elim));
    }

    /// [`QrPlan::recycle`] for the in-place path: returns a
    /// [`QrReflectors`] handle's `T` buffers to the pool. The steady-state
    /// batch loop — refill tiles, [`QrContext::factorize_batch_into`], use
    /// the reflectors, `recycle_reflectors` — keeps a constant per-call
    /// allocation *count*, with nothing allocated per tile, task or `T`
    /// factor (see the [module docs](self)).
    pub fn recycle_reflectors(&self, r: QrReflectors<T>) {
        let (t_geqrt, t_elim) = r.into_t_parts();
        self.t_pool.recycle(t_geqrt.into_iter().chain(t_elim));
    }
}

/// Column-major scan for the first non-finite entry of a dense matrix
/// (the [`QrConfig::check_finite`] pre-submission check).
fn find_non_finite_dense<T: Scalar>(a: &Matrix<T>) -> Option<(usize, usize)> {
    let (m, n) = a.shape();
    for col in 0..n {
        for row in 0..m {
            if !a.get(row, col).is_finite() {
                return Some((row, col));
            }
        }
    }
    None
}

/// [`find_non_finite_dense`] for caller-owned tile storage: scans the whole
/// padded grid (global coordinates), since a non-finite value anywhere in
/// the buffer — padding included — would poison the factorization.
fn find_non_finite_tiled<T: Scalar>(t: &TiledMatrix<T>) -> Option<(usize, usize)> {
    let rows = t.tile_rows() * t.tile_size();
    let cols = t.tile_cols() * t.tile_size();
    for col in 0..cols {
        for row in 0..rows {
            if !t.get(row, col).is_finite() {
                return Some((row, col));
            }
        }
    }
    None
}

/// One item of a pool job: the tiles to factor in place and, for a solve, the
/// right-hand-side row blocks riding along (empty for a plain factorization).
type JobItem<T> = (TiledMatrix<T>, Vec<Matrix<T>>);

/// What a pool job hands back per item: the parts of its state and the
/// item's fault, if any.
type JobOutcome<T> = (FactoredParts<T>, Option<QrError>);

/// Per-batch fault bookkeeping: one slot per batch copy, fed by
/// [`drive_worker`]'s containment mode through the [`FaultSink`] trait.
///
/// A recorded panic poisons exactly one copy: its remaining tasks are
/// skipped (retired without executing) while sibling copies run to
/// completion. After the job drains, [`ItemTracker::verdict`] turns the
/// per-copy state into the item's `Result`.
struct ItemTracker {
    /// Per-copy DAG, for sizing the retire target and mapping a panicking
    /// local task id to its [`TaskKind`]. Same-plan groups hold clones of
    /// one `Arc`; heterogeneous fused groups hold each item's own DAG.
    dags: Vec<Arc<TaskDag>>,
    /// Fast path: no copy has failed yet (one relaxed load per task).
    any_failed: AtomicBool,
    /// Per-copy failure flag, checked before executing each task.
    failed: Vec<AtomicBool>,
    /// First error recorded per copy.
    errors: Vec<Mutex<Option<QrError>>>,
    /// Tasks retired (executed or skipped) per copy; a copy with a full
    /// count and no recorded error completed successfully.
    done: Vec<AtomicUsize>,
}

impl ItemTracker {
    fn new(dag: Arc<TaskDag>, copies: usize) -> Self {
        ItemTracker::per_copy(vec![dag; copies])
    }

    /// One DAG per copy — the heterogeneous fused-group constructor.
    fn per_copy(dags: Vec<Arc<TaskDag>>) -> Self {
        let copies = dags.len();
        ItemTracker {
            dags,
            any_failed: AtomicBool::new(false),
            failed: (0..copies).map(|_| AtomicBool::new(false)).collect(),
            errors: (0..copies).map(|_| Mutex::new(None)).collect(),
            done: (0..copies).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Task count of `copy`'s DAG — its retire target.
    fn tasks_of(&self, copy: usize) -> usize {
        self.dags[copy].len()
    }

    /// The item result of `copy` once the job has drained: a recorded fault
    /// wins; an incomplete retire count means the job was cancelled out from
    /// under the copy (`cause` says why); otherwise the copy succeeded.
    fn verdict(&self, copy: usize, cause: Option<CancelCause>) -> Option<QrError> {
        if let Some(err) = self.errors[copy].lock().take() {
            return Some(err);
        }
        if !self.is_complete(copy) {
            return Some(QrError::from_cancel(
                cause.unwrap_or(CancelCause::Cancelled),
            ));
        }
        None
    }

    /// Retires one task of `copy` and returns the new retire count — the
    /// seam the streaming job uses to detect the *final* retire of a copy
    /// and fire its per-item completion hook on the worker thread.
    fn retire(&self, copy: usize) -> usize {
        self.done[copy].fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Takes the first error recorded for `copy`, if any.
    fn take_error(&self, copy: usize) -> Option<QrError> {
        self.errors[copy].lock().take()
    }

    /// True once every task of `copy` has retired (executed or skipped).
    fn is_complete(&self, copy: usize) -> bool {
        self.done[copy].load(Ordering::Acquire) >= self.dags[copy].len()
    }
}

impl FaultSink for ItemTracker {
    fn copy_failed(&self, copy: usize) -> bool {
        // The relaxed fast-path load is safe: a stale `false` at worst runs
        // one more task of an already-failed copy against garbage tile data,
        // which only that copy's (already discarded) output can observe.
        // Tasks released *after* the panic was recorded see the flag through
        // the dependency counter's release/acquire chain.
        self.any_failed.load(Ordering::Relaxed) && self.failed[copy].load(Ordering::Acquire)
    }

    fn record_panic(&self, copy: usize, local: usize, payload: &(dyn std::any::Any + Send)) {
        let mut slot = self.errors[copy].lock();
        if slot.is_none() {
            *slot = Some(QrError::TaskPanicked {
                kind: self.dags[copy].tasks[local].kind,
                message: payload_message(payload).to_string(),
            });
        }
        self.failed[copy].store(true, Ordering::Release);
        self.any_failed.store(true, Ordering::Release);
    }

    fn task_retired(&self, copy: usize) {
        self.retire(copy);
    }
}

/// Unwind guard of the in-place batch path: while a fused job runs, the
/// caller's conforming slots hold `0 × 0` placeholder grids (their tiles
/// were moved into the job). If the job panics — a kernel bug — this guard
/// puts a plan-shaped **zero** grid back into every *taken* slot still
/// holding its placeholder, so the caller keeps buffers of the documented
/// shape (the values were being overwritten anyway; a
/// `catch_unwind`-and-retry loop refills them via
/// [`TiledMatrix::fill_from_dense_padded`]). Rejected slots are tracked
/// explicitly (`taken[i] == false`), never restored — a caller-supplied
/// buffer that happens to *be* `0 × 0` stays untouched, as documented. On
/// the normal return path every placeholder was already replaced by its
/// factored tiles, and the drop is a no-op.
struct RestorePlaceholders<'a, T: Scalar> {
    tiles: &'a mut [TiledMatrix<T>],
    /// `taken[i]`: slot `i` conformed and its tiles were moved into the job.
    taken: Vec<bool>,
    p: usize,
    q: usize,
    nb: usize,
}

impl<T: Scalar> Drop for RestorePlaceholders<'_, T> {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        for (t, &taken) in self.tiles.iter_mut().zip(&self.taken) {
            if taken && t.tile_rows() == 0 && t.tile_cols() == 0 {
                *t = TiledMatrix::zeros(self.p, self.q, self.nb);
            }
        }
    }
}

/// One pool job factoring a *batch* of `k ≥ 1` independent matrices of one
/// plan's shape as a single fused DAG: `k` factorization states, the shared
/// schedule, this job's scheduler instance and `k · n` dependency counters,
/// and one workspace slot per worker. Global task id `g` maps to task
/// `g % n` of the plan's DAG executed against matrix `g / n` — the
/// single-matrix path is simply `k = 1`, where the mapping is the identity.
struct BatchJob<T: Scalar<Real = f64>, S: Scheduler + Send + Sync> {
    states: Vec<FactorizationState<T>>,
    core: Arc<PlanCore>,
    sched: S,
    remaining: Vec<AtomicUsize>,
    completed: AtomicUsize,
    aborted: AtomicBool,
    ws_slots: Vec<Mutex<Option<Workspace<T>>>>,
    /// Per-copy fault bookkeeping; the workers run in containment mode, so a
    /// kernel panic poisons one copy instead of the whole job.
    tracker: ItemTracker,
    /// This job's cancel token: the submitter's wait loop funnels user
    /// cancellation, the deadline and the watchdog into it; workers check it
    /// between tasks.
    cancel: CancelToken,
}

impl<T: Scalar<Real = f64>, S: Scheduler + Send + Sync> Job for BatchJob<T, S> {
    fn run(&self, w: usize, heartbeat: &AtomicUsize) {
        let n = self.core.dag.len();
        let mut slot = self.ws_slots[w].lock();
        let ws = slot.as_mut().expect("one workspace is staged per worker");
        // Uniform map: the historical `g → (g / n, g % n)` arithmetic,
        // allocation-free (no offset table is materialized).
        let map = ItemMap::uniform(n, self.states.len());
        let ctl = DriveCtl {
            num_tasks: self.remaining.len(),
            map: &map,
            succ: GroupSucc::Shared(&self.core.succ),
            remaining: &self.remaining,
            completed: &self.completed,
            aborted: &self.aborted,
            max_out_degree: self.core.max_out_degree,
            cancel: Some(&self.cancel),
            faults: Some(&self.tracker),
        };
        drive_worker(&ctl, &self.sched, w, Some(heartbeat), &mut |g| {
            #[cfg(feature = "fault-injection")]
            crate::fault::check(g / n, g % n);
            self.states[g / n].run_ws(self.core.dag.tasks[g % n].kind, ws)
        });
    }
}

/// Per-item completion callback of the streaming path
/// ([`QrContext::factorize_stream`]): called exactly once per submitted
/// matrix, **from a worker thread**, the moment that matrix's last task
/// retires — not when the whole fused job drains. The service layer
/// ([`crate::service`]) implements it to resolve tickets while sibling
/// matrices are still factoring.
///
/// Implementations must be cheap and must not block on the pool (they run
/// inside the job); resolving a oneshot cell and pushing to a retry list
/// are the intended scale of work.
pub(crate) trait ItemSink<T: Scalar>: Send + Sync {
    /// Delivers item `index`'s outcome: the finished factorization, or the
    /// typed per-item error (contained panic, cancellation cause, …).
    fn item_done(&self, index: usize, outcome: Result<QrFactorization<T>, QrError>);
}

/// One item of a streaming group ([`QrContext::factorize_stream`]): the
/// item's own plan, its input, and its fault-injection probe id. Items of
/// one call may reference *different* plans — the job fuses them through
/// the offset map.
pub(crate) struct StreamEntry<T: Scalar> {
    pub(crate) plan: Arc<QrPlan<T>>,
    pub(crate) input: StreamInput<T>,
    /// Fault-probe id for this item: the service remaps retry attempts to
    /// fresh probe coordinates so a seeded fault schedule can distinguish
    /// attempt 0 from attempt 1 of the same submission. Without the feature
    /// the id is carried but unread.
    pub(crate) probe: usize,
}

/// How a streaming item's matrix enters the job.
pub(crate) enum StreamInput<T: Scalar> {
    /// Already tiled (direct internal callers and tests).
    #[cfg_attr(not(test), allow(dead_code))]
    Tiled(TiledMatrix<T>),
    /// Dense: the dispatcher allocates only a zeroed tile grid, and the
    /// first worker that touches the copy performs the dense → tiled copy
    /// ([`FactorizationState::fill_tiles_from_dense`]) — the admission path
    /// never pays the `O(m·n)` tiling cost.
    Dense(Arc<Matrix<T>>),
}

/// Per-copy shape/schedule metadata of a streaming job, drawn from that
/// item's own plan — the seam that lets one fused job span plans: the DAG
/// to execute, the shape to stamp on the result, and the plan pool the
/// copy's `T` buffers recycle back to.
struct StreamItemMeta<T: Scalar> {
    core: Arc<PlanCore>,
    m: usize,
    n: usize,
    nb: usize,
    ib: usize,
    recycler: std::sync::Weak<TPool<T>>,
}

/// Lazy-tiling gate of one streaming copy ([`StreamInput::Dense`]): the
/// first worker to touch the copy claims the gate, copies the dense input
/// into the copy's (zeroed) tiles, and publishes readiness; concurrent
/// same-copy workers spin briefly until the tiles are in place. Pre-tiled
/// copies are born ready.
struct TileGate<T: Scalar> {
    /// The dense input, taken by the claiming worker; `None` once tiled
    /// (and for pre-tiled inputs).
    dense: Mutex<Option<Arc<Matrix<T>>>>,
    claim: ClaimFlag,
    ready: AtomicBool,
}

impl<T: Scalar> TileGate<T> {
    /// A gate for a copy whose tiles already hold the input.
    fn ready() -> Self {
        TileGate {
            dense: Mutex::new(None),
            claim: ClaimFlag::new(),
            ready: AtomicBool::new(true),
        }
    }

    /// A gate holding a dense input awaiting worker-side tiling.
    fn pending(dense: Arc<Matrix<T>>) -> Self {
        TileGate {
            dense: Mutex::new(Some(dense)),
            claim: ClaimFlag::new(),
            ready: AtomicBool::new(false),
        }
    }
}

/// The streaming variant of [`BatchJob`]: same fused-DAG execution, but each
/// copy's state lives behind `Mutex<Option<Arc<…>>>` so the copy that
/// finishes *first* can be dismantled into a [`QrFactorization`] and handed
/// to the [`ItemSink`] while the rest of the job is still running — and each
/// copy carries its **own** plan metadata, so one job can fuse items of
/// different shapes, tile sizes and elimination trees.
///
/// Global task id `g` resolves through the job's [`ItemMap`] to
/// `(copy, local)`; same-plan groups use the uniform map (bit-for-bit the
/// historical cyclic arithmetic) while mixed groups binary-search the
/// prefix-sum offsets. Successor release and priority ranking follow the
/// same per-copy contract ([`GroupSucc`],
/// [`WorkStealingPriority::new_shared_offsets`]).
///
/// Completion detection rides the [`FaultSink::task_retired`] hook:
/// [`ItemTracker::retire`] returns the copy's new retire count, and the
/// worker that performs the final retire takes the state out of its slot.
/// Every task's short-lived `Arc` clone is dropped *before* that task's
/// retire increment, and the increments form a release/acquire chain on the
/// copy's counter, so at the final retire all other clones are gone and
/// `Arc::try_unwrap` succeeds; a put-back plus the job-end sweep in
/// [`QrContext::run_stream_job`] covers the theoretical failure without
/// losing the item.
struct StreamJob<T: Scalar<Real = f64>, S: Scheduler + Send + Sync> {
    /// One slot per copy: `Some(state)` while the copy is in flight, taken
    /// by the finishing worker (or the job-end sweep). The lock is held only
    /// to clone the `Arc` out (per task) or take it (once) — never across a
    /// kernel.
    states: Vec<Mutex<Option<Arc<FactorizationState<T>>>>>,
    /// Exactly-once guard per copy: claimed by whichever path (worker hook
    /// or job-end sweep) delivers the item to the sink.
    resolved: Vec<ClaimFlag>,
    /// Fault-probe ids, one per copy (see [`StreamEntry::probe`]).
    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    probes: Vec<usize>,
    /// Per-copy lazy-tiling gates.
    gates: Vec<TileGate<T>>,
    /// Per-copy plan metadata.
    metas: Vec<StreamItemMeta<T>>,
    /// `g → (copy, local)` geometry of the fused group.
    map: ItemMap,
    /// True when every item references the same plan: the successor CSR is
    /// shared and the per-worker CSR-reference collection is skipped.
    homogeneous: bool,
    /// Largest successor batch any copy's task can enable.
    max_out_degree: usize,
    sched: S,
    remaining: Vec<AtomicUsize>,
    completed: AtomicUsize,
    aborted: AtomicBool,
    ws_slots: Vec<Mutex<Option<Workspace<T>>>>,
    tracker: ItemTracker,
    cancel: CancelToken,
    sink: Arc<dyn ItemSink<T>>,
}

impl<T: Scalar<Real = f64>, S: Scheduler + Send + Sync> StreamJob<T, S> {
    /// Dismantles a fully-retired copy and delivers its outcome to the sink.
    /// Called by the worker that performed the copy's final retire; a copy
    /// whose state was already taken (or whose `Arc` is still briefly
    /// shared — see the put-back) is left for the job-end sweep.
    fn finish_copy(&self, copy: usize) {
        let taken = self.states[copy].lock().take();
        let Some(arc) = taken else { return };
        let meta = &self.metas[copy];
        match Arc::try_unwrap(arc) {
            Ok(state) => {
                let FactoredParts {
                    tiles,
                    t_geqrt,
                    t_elim,
                    ..
                } = state.into_parts();
                let outcome = match self.tracker.take_error(copy) {
                    Some(e) => {
                        // A failed copy's T buffers go straight back to the
                        // item's own plan; its tiles hold partial garbage
                        // and are dropped.
                        if let Some(pool) = meta.recycler.upgrade() {
                            pool.recycle(t_geqrt.into_iter().chain(t_elim));
                        }
                        Err(e)
                    }
                    None => Ok(QrFactorization::from_parts(
                        meta.m,
                        meta.n,
                        meta.nb,
                        meta.ib,
                        tiles,
                        t_geqrt,
                        t_elim,
                        Arc::clone(&meta.core.dag),
                        meta.recycler.clone(),
                    )),
                };
                if self.resolved[copy].claim() {
                    self.sink.item_done(copy, outcome);
                }
            }
            Err(arc) => {
                // Another worker still holds a task-scope clone (possible
                // only if an Arc count decrement is not yet visible, which
                // the retire chain rules out in practice — keep the item
                // safe regardless): put the state back for the job-end
                // sweep.
                *self.states[copy].lock() = Some(arc);
            }
        }
    }

    /// Makes sure `copy`'s tiles hold its input before a kernel touches
    /// them: the claiming worker tiles the dense input in place, everyone
    /// else spins until published. The spin escapes only when the copy is
    /// poisoned (the claimer panicked mid-tiling and can never publish) —
    /// a poisoned copy's outcome is an error, so the kernel result that
    /// follows is discarded either way.
    fn ensure_tiled(&self, copy: usize, state: &FactorizationState<T>) {
        let gate = &self.gates[copy];
        if gate.ready.load(Ordering::Acquire) {
            return;
        }
        if gate.claim.claim() {
            if let Some(dense) = gate.dense.lock().take() {
                state.fill_tiles_from_dense(&dense);
            }
            gate.ready.store(true, Ordering::Release);
        } else {
            let mut backoff = Backoff::new();
            while !gate.ready.load(Ordering::Acquire) {
                if self.tracker.copy_failed(copy) {
                    return;
                }
                backoff.snooze();
            }
        }
    }
}

impl<T: Scalar<Real = f64>, S: Scheduler + Send + Sync> FaultSink for StreamJob<T, S> {
    fn copy_failed(&self, copy: usize) -> bool {
        self.tracker.copy_failed(copy)
    }

    fn record_panic(&self, copy: usize, local: usize, payload: &(dyn std::any::Any + Send)) {
        self.tracker.record_panic(copy, local, payload);
    }

    fn task_retired(&self, copy: usize) {
        if self.tracker.retire(copy) == self.tracker.tasks_of(copy) {
            self.finish_copy(copy);
        }
    }
}

impl<T: Scalar<Real = f64>, S: Scheduler + Send + Sync> Job for StreamJob<T, S> {
    fn run(&self, w: usize, heartbeat: &AtomicUsize) {
        let mut slot = self.ws_slots[w].lock();
        let ws = slot.as_mut().expect("one workspace is staged per worker");
        // Heterogeneous groups collect the per-copy CSR references once per
        // worker run — O(group), bounded by the service's max_group —
        // instead of materializing any fused adjacency; same-plan groups
        // share the single CSR, allocation-free.
        let succ_refs: Vec<&SuccessorsCsr>;
        let succ = if self.homogeneous {
            GroupSucc::Shared(&self.metas[0].core.succ)
        } else {
            succ_refs = self.metas.iter().map(|m| &m.core.succ).collect();
            GroupSucc::PerCopy(&succ_refs)
        };
        let ctl = DriveCtl {
            num_tasks: self.remaining.len(),
            map: &self.map,
            succ,
            remaining: &self.remaining,
            completed: &self.completed,
            aborted: &self.aborted,
            max_out_degree: self.max_out_degree,
            cancel: Some(&self.cancel),
            faults: Some(self),
        };
        drive_worker(&ctl, &self.sched, w, Some(heartbeat), &mut |g| {
            let (copy, local) = self.map.locate(g);
            let meta = &self.metas[copy];
            #[cfg(feature = "fault-injection")]
            crate::fault::check(self.probes[copy], local);
            // Clone the Arc out under a brief lock so same-copy tasks on
            // other workers never serialize on the slot; the clone drops
            // before this task's retire increment (see `StreamJob` docs).
            let state = self.states[copy].lock().as_ref().map(Arc::clone);
            if let Some(state) = state {
                // Mixed-ib groups: the workspace buffers are sized from the
                // group's largest nb and serve every smaller tile; only the
                // panel width switches, allocation-free
                // ([`Workspace::set_inner_block`]).
                if ws.ib() != meta.ib {
                    ws.set_inner_block(meta.ib);
                }
                self.ensure_tiled(copy, &state);
                state.run_ws(meta.core.dag.tasks[local].kind, ws);
            }
        });
    }
}

/// A long-lived factorization runtime: a persistent worker pool plus a
/// scheduling policy.
///
/// Build one context per service (or per thread-count/scheduler choice) and
/// reuse it for every factorization; combine with a [`QrPlan`] per problem
/// shape so repeated factorizations skip planning entirely. With
/// `threads == 1` no pool is spawned and every factorization runs on the
/// calling thread in topological order (the bitwise reference order).
///
/// The context is `Sync`; concurrent `factorize` calls from several threads
/// are safe but serialized — the pool runs one job at a time.
pub struct QrContext {
    threads: usize,
    scheduler: SchedulerKind,
    pool: Option<WorkerPool>,
    /// The sticky user cancellation token handed out by
    /// [`QrContext::cancel_handle`]. Internal causes (deadline, watchdog)
    /// never touch it — each job gets its own token they funnel into.
    cancel: CancelToken,
    /// Stall bound of the pool watchdog, if enabled.
    watchdog: Option<Duration>,
}

impl std::fmt::Debug for QrContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QrContext")
            .field("threads", &self.threads)
            .field("scheduler", &self.scheduler)
            .field("watchdog", &self.watchdog)
            .finish_non_exhaustive()
    }
}

impl QrContext {
    /// Builds a context with `threads` persistent workers and the default
    /// scheduler ([`SchedulerKind::WorkStealing`]).
    pub fn new(threads: usize) -> Result<Self, QrError> {
        QrContext::with_scheduler(threads, SchedulerKind::default())
    }

    /// Validates a worker-thread count; factored out of the constructor so
    /// the bounds (including the [`MAX_THREADS`] boundary itself) are
    /// testable without actually spawning a pool.
    pub(crate) fn validate_threads(threads: usize) -> Result<(), QrError> {
        if threads == 0 {
            return Err(QrError::ZeroThreads);
        }
        if threads > MAX_THREADS {
            return Err(QrError::TooManyThreads {
                requested: threads,
                max: MAX_THREADS,
            });
        }
        Ok(())
    }

    /// Builds a context with `threads` persistent workers and an explicit
    /// ready-task scheduling policy.
    pub fn with_scheduler(threads: usize, scheduler: SchedulerKind) -> Result<Self, QrError> {
        QrContext::validate_threads(threads)?;
        let pool = if threads > 1 {
            Some(WorkerPool::new(threads).map_err(|e| QrError::ThreadSpawn {
                details: e.to_string(),
            })?)
        } else {
            None
        };
        Ok(QrContext {
            threads,
            scheduler,
            pool,
            cancel: CancelToken::new(),
            watchdog: None,
        })
    }

    /// Arms the pool watchdog: if no worker retires a task for longer than
    /// `bound` while a job is in flight, the job is cancelled and its
    /// unfinished items report [`QrError::Stalled`].
    ///
    /// The watchdog is cooperative — it reliably recovers runs whose workers
    /// are *idling* without progress (the shape of a lost-task bug) and runs
    /// whose stalled task eventually returns. A task wedged in an infinite
    /// loop keeps its OS thread (safe Rust cannot kill it); the watchdog then
    /// still stops the *other* workers from burning CPU, but the call
    /// returns only once the wedged task does. Pick a bound comfortably
    /// above the longest single kernel task, not the whole factorization.
    pub fn with_watchdog(mut self, bound: Duration) -> Self {
        self.watchdog = Some(bound);
        self
    }

    /// A cloneable cancellation handle shared by every factorization this
    /// context runs. After [`CancelToken::cancel`], in-flight calls wind
    /// down at the next between-task check (unfinished items report
    /// [`QrError::Cancelled`]; already-finished batch items still return
    /// `Ok`) and *future* calls fail fast — cancellation is sticky until
    /// [`CancelToken::reset`] revives the context.
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Number of worker threads (1 = sequential, no pool).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ready-task scheduling policy of the pool.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// Factorizes a dense matrix of the plan's shape, returning the full
    /// [`QrFactorization`] handle (extract `R`, apply `Q`/`Qᴴ`, …).
    ///
    /// The matrix values are copied into fresh tile storage; use
    /// [`QrContext::factorize_into`] to skip that copy on a hot path.
    pub fn factorize<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        a: &Matrix<T>,
    ) -> Result<QrFactorization<T>, QrError> {
        self.factorize_inner(plan, a, None)
    }

    /// [`QrContext::factorize`] with a relative deadline: if the
    /// factorization has not finished `timeout` after the call was made, it
    /// is cancelled and returns [`QrError::DeadlineExceeded`]. The deadline
    /// is checked between kernel tasks, so the overrun is bounded by one
    /// task plus the submitter's poll interval.
    pub fn factorize_with_deadline<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        a: &Matrix<T>,
        timeout: Duration,
    ) -> Result<QrFactorization<T>, QrError> {
        self.factorize_inner(plan, a, Some(Instant::now() + timeout))
    }

    fn factorize_inner<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        a: &Matrix<T>,
        deadline: Option<Instant>,
    ) -> Result<QrFactorization<T>, QrError> {
        if a.shape() != (plan.m, plan.n) {
            return Err(QrError::ShapeMismatch {
                expected: (plan.m, plan.n),
                got: a.shape(),
            });
        }
        if plan.check_finite {
            if let Some((row, col)) = find_non_finite_dense(a) {
                return Err(QrError::NonFiniteInput { row, col });
            }
        }
        let tiled = TiledMatrix::from_dense_padded(a, plan.nb);
        let (parts, err) = self
            .run_batch(plan, &plan.core, vec![(tiled, Vec::new())], deadline)
            .pop()
            .expect("one matrix in, one result out");
        match err {
            Some(e) => Err(e),
            None => Ok(plan.assemble(parts)),
        }
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂` for every column of
    /// `b` (`m × k`) and returns the solutions as the columns of an `n × k`
    /// matrix.
    ///
    /// The whole request is **one pool job over `[A | B]`**: `B` rides the
    /// factorization as one trailing tile column of `p` row blocks of
    /// `nb × k` (its true width), updated by the `UNMQR`/`TSMQR`/`TTMQR`
    /// tasks the plan's solve schedule emits next to the factor tasks. So
    /// `Qᴴ·B` is computed by the workers, in parallel, while each reflector
    /// tile is still in cache, and what is left afterwards is a read of `R`
    /// from the top tile rows and a back substitution. The same scheduler,
    /// cancellation, panic containment and watchdog apply as for
    /// [`QrContext::factorize`].
    ///
    /// No factorization handle is returned, so the tile buffer and the `T`
    /// storage go straight back to the plan: a stream of solves of one shape
    /// allocates nothing proportional to `m · n`. Use
    /// [`QrContext::factorize`] and
    /// [`least_squares_with_factorization`](crate::solve::least_squares_with_factorization)
    /// when right-hand sides arrive after the factorization; the two routes
    /// agree bitwise.
    ///
    /// # Errors
    /// [`QrError::ShapeMismatch`] if `a` is not of the plan's shape,
    /// [`QrError::RhsLength`] if `b` does not have `m` rows,
    /// [`QrError::SingularR`] if `A` is exactly rank deficient, and every
    /// error [`QrContext::factorize`] can report.
    pub fn solve<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        a: &Matrix<T>,
        b: &Matrix<T>,
    ) -> Result<Matrix<T>, QrError> {
        if a.shape() != (plan.m, plan.n) {
            return Err(QrError::ShapeMismatch {
                expected: (plan.m, plan.n),
                got: a.shape(),
            });
        }
        if b.rows() != plan.m {
            return Err(QrError::RhsLength {
                expected: plan.m,
                got: b.rows(),
            });
        }
        if let Some((row, col)) = plan.non_finite_in(a) {
            return Err(QrError::NonFiniteInput { row, col });
        }
        let parked = plan.solve_tiles.lock().take();
        let mut tiles = parked.unwrap_or_else(|| TiledMatrix::zeros(plan.p, plan.q, plan.nb));
        tiles.fill_from_dense_padded(a);
        let rhs = rhs_row_blocks(b, plan.p, plan.nb);
        let (parts, err) = self
            .run_batch(plan, plan.solve_core(), vec![(tiles, rhs)], None)
            .pop()
            .expect("one matrix in, one result out");
        let FactoredParts {
            tiles,
            t_geqrt,
            t_elim,
            rhs,
        } = parts;
        plan.t_pool.recycle(t_geqrt.into_iter().chain(t_elim));
        let x = match err {
            Some(e) => Err(e),
            None => back_substitute(
                &upper_triangle(&tiles, plan.n),
                &gather_row_blocks(&rhs, plan.n),
            ),
        };
        *plan.solve_tiles.lock() = Some(tiles);
        x
    }

    /// Factorizes caller-owned tile storage **in place** — the tiles are
    /// overwritten with `R` and the Householder vectors, and only the `T`
    /// factors come back, as a [`QrReflectors`] handle. Nothing about the
    /// matrix values is copied, so a caller that keeps refilling one
    /// [`TiledMatrix`] buffer (e.g. via
    /// [`TiledMatrix::fill_from_dense_padded`]) factors a stream of
    /// matrices with zero per-call tile allocation.
    ///
    /// The grid must match the plan: `p × q` tiles of order `nb` (the shape
    /// [`TiledMatrix::from_dense_padded`] produces for an `m × n` matrix).
    ///
    /// If a kernel panics (a bug, not a recoverable condition), the panic is
    /// propagated; the tile buffer keeps its plan-shaped grid but its
    /// numeric contents are lost (reset to zeros), so a
    /// `catch_unwind`-and-retry caller can refill the same buffer and carry
    /// on — the pool itself survives the panic.
    pub fn factorize_into<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        tiles: &mut TiledMatrix<T>,
    ) -> Result<QrReflectors<T>, QrError> {
        self.batch_into_inner(plan, std::slice::from_mut(tiles), None)
            .pop()
            .expect("one buffer in, one result out")
    }

    /// [`QrContext::factorize_into`] with a relative deadline; see
    /// [`QrContext::factorize_with_deadline`]. On
    /// [`QrError::DeadlineExceeded`] the buffer keeps its plan-shaped grid
    /// but may hold a partially factored matrix — refill it before retrying.
    pub fn factorize_into_with_deadline<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        tiles: &mut TiledMatrix<T>,
        timeout: Duration,
    ) -> Result<QrReflectors<T>, QrError> {
        self.batch_into_inner(
            plan,
            std::slice::from_mut(tiles),
            Some(Instant::now() + timeout),
        )
        .pop()
        .expect("one buffer in, one result out")
    }

    /// Factorizes a batch of `k` independent matrices of the plan's shape as
    /// **one fused pool job**, returning one [`Result`] per matrix in input
    /// order.
    ///
    /// All `k` schedules are submitted together — task ids are the plan's
    /// DAG tiled `k` times, sharing its CSR successor lists and critical-path
    /// priorities — so small problems pay a single pool wake-up instead of
    /// `k`, and the work-stealing deques balance load *across* matrices: a
    /// worker idling at the tail of one matrix's DAG steals ready tasks from
    /// another's. Each matrix's result is **bitwise identical** to a
    /// standalone [`QrContext::factorize`] of that matrix (the fused DAG has
    /// no cross-matrix edges, and the per-tile kernel order within each
    /// matrix is unchanged).
    ///
    /// Failures are isolated per item: a matrix whose shape does not match
    /// the plan gets `Err(`[`QrError::ShapeMismatch`]`)` in its slot while
    /// the conforming matrices still factor. An empty batch returns an empty
    /// vector without touching the pool.
    ///
    /// Pair with [`QrPlan::recycle`] to return each consumed result's
    /// `T`-factor storage for the next call.
    pub fn factorize_batch<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        mats: &[Matrix<T>],
    ) -> Vec<Result<QrFactorization<T>, QrError>> {
        self.batch_inner(plan, mats, None)
    }

    /// [`QrContext::factorize_batch`] with a relative deadline shared by the
    /// whole batch. Items that finished before the deadline fired still
    /// return `Ok` (partial results); the rest report
    /// [`QrError::DeadlineExceeded`].
    pub fn factorize_batch_with_deadline<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        mats: &[Matrix<T>],
        timeout: Duration,
    ) -> Vec<Result<QrFactorization<T>, QrError>> {
        self.batch_inner(plan, mats, Some(Instant::now() + timeout))
    }

    fn batch_inner<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        mats: &[Matrix<T>],
        deadline: Option<Instant>,
    ) -> Vec<Result<QrFactorization<T>, QrError>> {
        let mut slots: Vec<Result<(), QrError>> = Vec::with_capacity(mats.len());
        let mut tiled = Vec::with_capacity(mats.len());
        for a in mats {
            if a.shape() != (plan.m, plan.n) {
                slots.push(Err(QrError::ShapeMismatch {
                    expected: (plan.m, plan.n),
                    got: a.shape(),
                }));
            } else if let Some((row, col)) = plan
                .check_finite
                .then(|| find_non_finite_dense(a))
                .flatten()
            {
                slots.push(Err(QrError::NonFiniteInput { row, col }));
            } else {
                slots.push(Ok(()));
                tiled.push((TiledMatrix::from_dense_padded(a, plan.nb), Vec::new()));
            }
        }
        let mut items = self
            .run_batch(plan, &plan.core, tiled, deadline)
            .into_iter();
        slots
            .into_iter()
            .map(|slot| {
                slot.and_then(|()| {
                    let (parts, err) = items.next().expect("one result per conforming matrix");
                    match err {
                        Some(e) => Err(e),
                        None => Ok(plan.assemble(parts)),
                    }
                })
            })
            .collect()
    }

    /// The in-place counterpart of [`QrContext::factorize_batch`]: factors a
    /// batch of caller-owned tile buffers **in place** as one fused pool
    /// job, returning one [`QrReflectors`] handle per buffer in input order.
    ///
    /// Each buffer must match the plan's grid (`p × q` tiles of order `nb`);
    /// a non-conforming buffer gets `Err(`[`QrError::PlanMismatch`]`)` in
    /// its slot and is left untouched while the conforming buffers still
    /// factor. Combined with [`TiledMatrix::fill_from_dense_padded`] to
    /// refill the buffers and [`QrPlan::recycle_reflectors`] to return the
    /// `T` storage, a steady-state batch loop performs only a constant,
    /// small number of bookkeeping allocations per call — none per tile,
    /// per task or per `T` factor (see the [module docs](self)).
    ///
    /// If a kernel panics mid-batch, the panic is propagated; every
    /// conforming buffer keeps its plan-shaped grid (contents reset to
    /// zeros), so a `catch_unwind`-and-retry caller can refill the same
    /// buffers — the pool itself survives the panic.
    pub fn factorize_batch_into<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        tiles: &mut [TiledMatrix<T>],
    ) -> Vec<Result<QrReflectors<T>, QrError>> {
        self.batch_into_inner(plan, tiles, None)
    }

    /// [`QrContext::factorize_batch_into`] with a relative deadline shared
    /// by the whole batch; see
    /// [`QrContext::factorize_batch_with_deadline`]. Buffers of items that
    /// report an error keep their plan-shaped grid but may hold partially
    /// factored values — refill them before retrying.
    pub fn factorize_batch_into_with_deadline<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        tiles: &mut [TiledMatrix<T>],
        timeout: Duration,
    ) -> Vec<Result<QrReflectors<T>, QrError>> {
        self.batch_into_inner(plan, tiles, Some(Instant::now() + timeout))
    }

    fn batch_into_inner<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        tiles: &mut [TiledMatrix<T>],
        deadline: Option<Instant>,
    ) -> Vec<Result<QrReflectors<T>, QrError>> {
        let mut slots: Vec<Result<(), QrError>> = Vec::with_capacity(tiles.len());
        let mut owned = Vec::with_capacity(tiles.len());
        for t in tiles.iter_mut() {
            let got = (t.tile_rows(), t.tile_cols(), t.tile_size());
            if got != (plan.p, plan.q, plan.nb) {
                slots.push(Err(QrError::PlanMismatch {
                    expected: (plan.p, plan.q, plan.nb),
                    got,
                }));
            } else if let Some((row, col)) = plan
                .check_finite
                .then(|| find_non_finite_tiled(t))
                .flatten()
            {
                // Rejected before submission: the buffer is left untouched.
                slots.push(Err(QrError::NonFiniteInput { row, col }));
            } else {
                slots.push(Ok(()));
                owned.push((
                    std::mem::replace(t, TiledMatrix::from_tiles(Vec::new(), 0, 0, plan.nb)),
                    Vec::new(),
                ));
            }
        }
        // If the fused job panics *uncontained* (a bug in the runtime
        // itself — kernel panics are caught per task), the unwind must not
        // leave the caller's conforming slots holding the 0 × 0
        // placeholders: the guard puts plan-shaped zero grids back so a
        // recover-and-retry caller can refill the same buffers.
        let guard = RestorePlaceholders {
            taken: slots.iter().map(Result::is_ok).collect(),
            tiles,
            p: plan.p,
            q: plan.q,
            nb: plan.nb,
        };
        let mut items = self
            .run_batch(plan, &plan.core, owned, deadline)
            .into_iter();
        let mut out = Vec::with_capacity(guard.tiles.len());
        for (slot, t) in slots.into_iter().zip(guard.tiles.iter_mut()) {
            out.push(slot.and_then(|()| {
                let (parts, err) = items.next().expect("one result per conforming buffer");
                let FactoredParts {
                    tiles: factored,
                    t_geqrt,
                    t_elim,
                    ..
                } = parts;
                // The caller gets their buffer back in every outcome: the
                // factored tiles on success, the partially overwritten tiles
                // on a contained fault or cancellation (grid intact, values
                // to be refilled), and the bitwise-untouched tiles when the
                // run was rejected before any kernel executed.
                *t = factored;
                match err {
                    Some(e) => Err(e),
                    None => Ok(QrReflectors {
                        m: plan.m,
                        n: plan.n,
                        nb: plan.nb,
                        ib: plan.ib,
                        p: plan.p,
                        q: plan.q,
                        dag: Arc::clone(&plan.core.dag),
                        t_geqrt,
                        t_elim,
                        recycler: plan.t_recycler(),
                    }),
                }
            }));
        }
        out
    }

    /// Executes `core` — the plan's factor schedule, or its solve schedule
    /// when the items carry right-hand sides — against every item of the
    /// batch: the single shared engine behind [`QrContext::factorize`],
    /// [`QrContext::factorize_into`], both batch entry points and
    /// [`QrContext::solve`]. With a pool, the whole batch is one fused job
    /// (one wake-up); without one, the items run back to back on the calling
    /// thread in topological order (the bitwise reference order).
    fn run_batch<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        core: &Arc<PlanCore>,
        items: Vec<JobItem<T>>,
        deadline: Option<Instant>,
    ) -> Vec<JobOutcome<T>> {
        if items.is_empty() {
            return Vec::new();
        }
        // Fail fast before any state is built or kernel runs: a sticky
        // cancellation or an already-expired deadline rejects every item
        // with its tile buffers bitwise untouched.
        let pre = if self.cancel.is_cancelled() {
            Some(QrError::Cancelled)
        } else if deadline.is_some_and(|d| Instant::now() >= d) {
            Some(QrError::DeadlineExceeded)
        } else {
            None
        };
        if let Some(e) = pre {
            return items
                .into_iter()
                .map(|(tiles, rhs)| {
                    let untouched = FactoredParts {
                        tiles,
                        t_geqrt: Vec::new(),
                        t_elim: Vec::new(),
                        rhs,
                    };
                    (untouched, Some(e.clone()))
                })
                .collect();
        }
        let states = plan.build_states(items);
        match &self.pool {
            None => self.run_batch_sequential(plan, core, states, deadline),
            Some(pool) => {
                let copies = states.len();
                let total = core.dag.len() * copies;
                let threads = pool.threads();
                match self.scheduler {
                    SchedulerKind::LockedFifo => self.run_batch_job(
                        plan,
                        core,
                        pool,
                        states,
                        LockedFifo::new(total),
                        deadline,
                    ),
                    SchedulerKind::WorkStealing => self.run_batch_job(
                        plan,
                        core,
                        pool,
                        states,
                        WorkStealing::new(total, threads),
                        deadline,
                    ),
                    SchedulerKind::WorkStealingPriority => self.run_batch_job(
                        plan,
                        core,
                        pool,
                        states,
                        WorkStealingPriority::new_shared_cyclic(core.priorities(), threads, copies),
                        deadline,
                    ),
                }
            }
        }
    }

    /// The `threads == 1` engine: every copy runs on the calling thread in
    /// topological order (the bitwise reference order), with the same
    /// robustness semantics as the pool path — per-task cancellation and
    /// deadline checks, and per-task panic containment that fails only the
    /// current copy while later copies still run.
    fn run_batch_sequential<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        core: &PlanCore,
        states: Vec<FactorizationState<T>>,
        deadline: Option<Instant>,
    ) -> Vec<JobOutcome<T>> {
        let mut ws = plan.checkout_workspaces(1);
        // A cancellation or expired deadline stops the whole run: the copy
        // it interrupted and every later copy report the cause.
        let mut stop: Option<QrError> = None;
        let mut errors: Vec<Option<QrError>> = Vec::with_capacity(states.len());
        for (copy, state) in states.iter().enumerate() {
            if stop.is_some() {
                errors.push(stop.clone());
                continue;
            }
            let mut item_err: Option<QrError> = None;
            for (local, task) in core.dag.tasks.iter().enumerate() {
                if self.cancel.is_cancelled() {
                    stop = Some(QrError::Cancelled);
                    break;
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    stop = Some(QrError::DeadlineExceeded);
                    break;
                }
                // `copy`/`local` address the fault-injection probe; without
                // the feature they are deliberately unused.
                let _ = (copy, local);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    #[cfg(feature = "fault-injection")]
                    crate::fault::check(copy, local);
                    state.run_ws(task.kind, &mut ws[0])
                }));
                if let Err(payload) = result {
                    item_err = Some(QrError::TaskPanicked {
                        kind: task.kind,
                        message: payload_message(&*payload).to_string(),
                    });
                    break;
                }
            }
            errors.push(item_err.or_else(|| stop.clone()));
        }
        plan.restore_workspaces(ws);
        states
            .into_iter()
            .zip(errors)
            .map(|(s, e)| (s.into_parts(), e))
            .collect()
    }

    /// Packages a batch of factorizations as one fused pool job, runs it
    /// under the submitter-side controls (cancellation, deadline, watchdog),
    /// and recovers the states, workspaces and per-item verdicts (the job is
    /// uniquely owned again once every worker signalled completion).
    fn run_batch_job<T: Scalar<Real = f64>, S: Scheduler + Send + Sync + 'static>(
        &self,
        plan: &QrPlan<T>,
        core: &Arc<PlanCore>,
        pool: &WorkerPool,
        states: Vec<FactorizationState<T>>,
        sched: S,
        deadline: Option<Instant>,
    ) -> Vec<JobOutcome<T>> {
        let threads = pool.threads();
        let n = core.dag.len();
        let copies = states.len();
        // Roots of every copy of the DAG, offset into that copy's id range.
        let mut roots = Vec::with_capacity(core.roots.len() * copies);
        for copy in 0..copies {
            roots.extend(core.roots.iter().map(|&r| copy * n + r));
        }
        sched.seed(&mut roots);
        let mut remaining = Vec::with_capacity(n * copies);
        for _ in 0..copies {
            remaining.extend(
                core.dag
                    .tasks
                    .iter()
                    .map(|t| AtomicUsize::new(t.deps.len())),
            );
        }
        let job = Arc::new(BatchJob {
            states,
            core: Arc::clone(core),
            sched,
            remaining,
            completed: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            ws_slots: plan
                .checkout_workspaces(threads)
                .into_iter()
                .map(|ws| Mutex::new(Some(ws)))
                .collect(),
            tracker: ItemTracker::new(Arc::clone(&core.dag), copies),
            // A fresh per-job token: the submitter's wait loop forwards user
            // cancellation into it and triggers it on deadline/stall, so
            // internal causes never poison the context's sticky handle.
            cancel: CancelToken::new(),
        });
        pool.run_controlled(
            Arc::clone(&job) as Arc<dyn Job>,
            Some(RunCtl {
                job_cancel: job.cancel.clone(),
                user_cancel: self.cancel.clone(),
                deadline,
                stall_bound: self.watchdog,
            }),
        );
        // `run_controlled` returns only after every worker dropped its
        // reference to the job (and the pool's own slot was cleared), so the
        // Arc is uniquely owned again.
        let job = Arc::into_inner(job)
            .unwrap_or_else(|| panic!("batch job still shared after the pool ran it"));
        plan.restore_workspaces(job.ws_slots.into_iter().filter_map(Mutex::into_inner));
        let cause = job.cancel.cause();
        let tracker = job.tracker;
        job.states
            .into_iter()
            .enumerate()
            .map(|(copy, s)| (s.into_parts(), tracker.verdict(copy, cause)))
            .collect()
    }

    /// The streaming engine behind the service layer ([`crate::service`]):
    /// factors `items` as one fused job like [`QrContext::run_batch`], but
    /// delivers each item's outcome through `sink` **the moment its last
    /// task retires** instead of returning a joined vector — and each item
    /// carries its **own** plan, so one fused job may span different shapes,
    /// tile sizes and elimination trees.
    ///
    /// Id mapping: global task id `g` resolves to `(copy, local)` through an
    /// [`ItemMap`]. When every item references the same plan (`Arc::ptr_eq`)
    /// the map is uniform — `g → (g / n, g % n)`, bit-for-bit the historical
    /// cyclic arithmetic, with the shared successor CSR and the cyclic
    /// priority ranking — so same-plan groups execute identically to the
    /// pre-offset runtime. Mixed groups use prefix-sum offsets, per-copy
    /// successor indexing, per-copy priority tables
    /// ([`WorkStealingPriority::new_shared_offsets`]) and a workspace
    /// checkout sized to the **max** tile order across the group's plans.
    ///
    /// Exactly-once guarantee: `sink.item_done` is called exactly once per
    /// element of `items`, in every outcome — success, contained panic,
    /// cancellation/stall abort, and pre-run rejection.
    pub(crate) fn factorize_stream<T: Scalar<Real = f64>>(
        &self,
        items: Vec<StreamEntry<T>>,
        sink: &Arc<dyn ItemSink<T>>,
    ) {
        if items.is_empty() {
            return;
        }
        // Fail fast before any state is built: a sticky cancellation
        // resolves every item without running a kernel.
        if self.cancel.is_cancelled() {
            for copy in 0..items.len() {
                sink.item_done(copy, Err(QrError::Cancelled));
            }
            return;
        }
        match &self.pool {
            None => self.run_stream_sequential(items, sink),
            Some(pool) => {
                let homogeneous = items[1..]
                    .iter()
                    .all(|e| Arc::ptr_eq(&e.plan, &items[0].plan));
                let map = if homogeneous {
                    ItemMap::uniform(items[0].plan.core.dag.len(), items.len())
                } else {
                    let counts: Vec<usize> = items.iter().map(|e| e.plan.core.dag.len()).collect();
                    ItemMap::from_counts(&counts)
                };
                let total = map.total();
                let threads = pool.threads();
                match self.scheduler {
                    SchedulerKind::LockedFifo => self.run_stream_job(
                        items,
                        map,
                        homogeneous,
                        pool,
                        LockedFifo::new(total),
                        sink,
                    ),
                    SchedulerKind::WorkStealing => self.run_stream_job(
                        items,
                        map,
                        homogeneous,
                        pool,
                        WorkStealing::new(total, threads),
                        sink,
                    ),
                    SchedulerKind::WorkStealingPriority => {
                        let sched = if homogeneous {
                            WorkStealingPriority::new_shared_cyclic(
                                items[0].plan.core.priorities(),
                                threads,
                                items.len(),
                            )
                        } else {
                            WorkStealingPriority::new_shared_offsets(
                                items.iter().map(|e| e.plan.core.priorities()).collect(),
                                threads,
                            )
                        };
                        self.run_stream_job(items, map, homogeneous, pool, sched, sink)
                    }
                }
            }
        }
    }

    /// [`QrContext::run_stream_sequential`]: the `threads == 1` streaming
    /// engine. Each copy runs to completion on the calling thread (bitwise
    /// reference order, against its own plan) and its outcome is delivered
    /// to the sink before the next copy starts — the same per-item streaming
    /// contract as the pool path, just with trivial ordering.
    fn run_stream_sequential<T: Scalar<Real = f64>>(
        &self,
        items: Vec<StreamEntry<T>>,
        sink: &Arc<dyn ItemSink<T>>,
    ) {
        // A cancellation stops the whole run: the copy it interrupted and
        // every later copy resolve with the cause.
        let mut stop: Option<QrError> = None;
        for (copy, entry) in items.into_iter().enumerate() {
            let StreamEntry { plan, input, probe } = entry;
            if stop.is_some() {
                sink.item_done(copy, Err(stop.clone().unwrap()));
                continue;
            }
            let tiled = match input {
                StreamInput::Tiled(t) => t,
                StreamInput::Dense(a) => TiledMatrix::from_dense_padded(&a, plan.nb),
            };
            let state = plan.build_state(tiled);
            let mut ws = plan.checkout_workspaces(1);
            let mut item_err: Option<QrError> = None;
            for (local, task) in plan.core.dag.tasks.iter().enumerate() {
                if self.cancel.is_cancelled() {
                    stop = Some(QrError::Cancelled);
                    break;
                }
                // `probe`/`local` address the fault-injection probe;
                // without the feature they are deliberately unused.
                let _ = (probe, local);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    #[cfg(feature = "fault-injection")]
                    crate::fault::check(probe, local);
                    state.run_ws(task.kind, &mut ws[0])
                }));
                if let Err(payload) = result {
                    item_err = Some(QrError::TaskPanicked {
                        kind: task.kind,
                        message: payload_message(&*payload).to_string(),
                    });
                    break;
                }
            }
            plan.restore_workspaces(ws);
            let parts = state.into_parts();
            let outcome = match item_err.or_else(|| stop.clone()) {
                Some(e) => {
                    // A failed copy's T buffers go straight back to its own
                    // plan; its partially factored tiles are dropped.
                    plan.t_pool
                        .recycle(parts.t_geqrt.into_iter().chain(parts.t_elim));
                    Err(e)
                }
                None => Ok(plan.assemble(parts)),
            };
            sink.item_done(copy, outcome);
        }
    }

    /// Packages the streaming batch as one fused pool job ([`StreamJob`]),
    /// runs it under the submitter-side controls, then sweeps up every copy
    /// the worker-side completion hook did not resolve — copies skipped by a
    /// cancellation/stall abort (and the theoretical `Arc::try_unwrap`
    /// put-back) — so the exactly-once sink contract holds in every outcome.
    ///
    /// Heterogeneous mechanics: each copy's roots/dependency counts come
    /// from its own plan (offset by [`ItemMap::base`]); the per-worker
    /// workspaces are checked out from the plan with the **largest** tile
    /// order (every buffer is sized from `nb` alone, so they serve every
    /// smaller tile — tasks switch the panel width in place via
    /// [`Workspace::set_inner_block`]) and restored to that plan with its
    /// own `ib` re-established; dense inputs are tiled lazily by the first
    /// worker to touch each copy, keeping the dispatcher thread free.
    fn run_stream_job<T: Scalar<Real = f64>, S: Scheduler + Send + Sync + 'static>(
        &self,
        items: Vec<StreamEntry<T>>,
        map: ItemMap,
        homogeneous: bool,
        pool: &WorkerPool,
        sched: S,
        sink: &Arc<dyn ItemSink<T>>,
    ) {
        let threads = pool.threads();
        let copies = items.len();
        let mut roots = Vec::new();
        for (copy, entry) in items.iter().enumerate() {
            let base = map.base(copy);
            roots.extend(entry.plan.core.roots.iter().map(|&r| base + r));
        }
        sched.seed(&mut roots);
        let mut remaining = Vec::with_capacity(map.total());
        for entry in &items {
            remaining.extend(
                entry
                    .plan
                    .core
                    .dag
                    .tasks
                    .iter()
                    .map(|t| AtomicUsize::new(t.deps.len())),
            );
        }
        // The group's workspaces come from the largest-nb plan: its buffers
        // serve every smaller tile order in the group.
        let ws_owner = Arc::clone(
            &items
                .iter()
                .max_by_key(|e| e.plan.nb)
                .expect("group is non-empty")
                .plan,
        );
        let max_out_degree = items
            .iter()
            .map(|e| e.plan.core.max_out_degree)
            .max()
            .unwrap_or(0);
        let mut states = Vec::with_capacity(copies);
        let mut gates = Vec::with_capacity(copies);
        let mut dags = Vec::with_capacity(copies);
        let mut probes = Vec::with_capacity(copies);
        let mut metas = Vec::with_capacity(copies);
        for entry in items {
            let StreamEntry { plan, input, probe } = entry;
            let (state, gate) = match input {
                StreamInput::Tiled(t) => (plan.build_state(t), TileGate::ready()),
                // Dense inputs defer the O(m·n) tiling copy to the first
                // worker that touches the copy: the dispatcher allocates
                // only a zeroed grid here.
                StreamInput::Dense(a) => (
                    plan.build_state(TiledMatrix::zeros(plan.p, plan.q, plan.nb)),
                    TileGate::pending(a),
                ),
            };
            states.push(Mutex::new(Some(Arc::new(state))));
            gates.push(gate);
            dags.push(Arc::clone(&plan.core.dag));
            probes.push(probe);
            metas.push(StreamItemMeta {
                core: Arc::clone(&plan.core),
                m: plan.m,
                n: plan.n,
                nb: plan.nb,
                ib: plan.ib,
                recycler: plan.t_recycler(),
            });
        }
        let job = Arc::new(StreamJob {
            states,
            resolved: (0..copies).map(|_| ClaimFlag::new()).collect(),
            probes,
            gates,
            metas,
            map,
            homogeneous,
            max_out_degree,
            sched,
            remaining,
            completed: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            ws_slots: ws_owner
                .checkout_workspaces(threads)
                .into_iter()
                .map(|ws| Mutex::new(Some(ws)))
                .collect(),
            tracker: ItemTracker::per_copy(dags),
            cancel: CancelToken::new(),
            sink: Arc::clone(sink),
        });
        pool.run_controlled(
            Arc::clone(&job) as Arc<dyn Job>,
            Some(RunCtl {
                job_cancel: job.cancel.clone(),
                user_cancel: self.cancel.clone(),
                // Streaming submissions carry per-item deadlines at
                // admission time (the service layer's job); the run itself
                // is bounded by the stall watchdog and cancellation only.
                deadline: None,
                stall_bound: self.watchdog,
            }),
        );
        let job = Arc::into_inner(job)
            .unwrap_or_else(|| panic!("stream job still shared after the pool ran it"));
        // Restore with the owner plan's own panel width re-established —
        // the last task a workspace served may have switched it.
        ws_owner.restore_workspaces(job.ws_slots.into_iter().filter_map(Mutex::into_inner).map(
            |mut ws| {
                ws.set_inner_block(ws_owner.ib);
                ws
            },
        ));
        let cause = job.cancel.cause();
        for (copy, slot) in job.states.into_iter().enumerate() {
            if !job.resolved[copy].claim() {
                continue; // the worker hook already delivered this copy
            }
            let meta = &job.metas[copy];
            // A recorded fault wins; an incomplete retire count means the
            // job was aborted out from under the copy; a complete count
            // with no error is the put-back case — the copy succeeded.
            let err = job.tracker.take_error(copy).or_else(|| {
                (!job.tracker.is_complete(copy))
                    .then(|| QrError::from_cancel(cause.unwrap_or(CancelCause::Cancelled)))
            });
            match slot.into_inner() {
                Some(arc) => {
                    let state = Arc::try_unwrap(arc).unwrap_or_else(|_| {
                        panic!("stream copy state still shared after the pool drained")
                    });
                    let FactoredParts {
                        tiles,
                        t_geqrt,
                        t_elim,
                        ..
                    } = state.into_parts();
                    let outcome = match err {
                        Some(e) => {
                            if let Some(pool) = meta.recycler.upgrade() {
                                pool.recycle(t_geqrt.into_iter().chain(t_elim));
                            }
                            Err(e)
                        }
                        None => Ok(QrFactorization::from_parts(
                            meta.m,
                            meta.n,
                            meta.nb,
                            meta.ib,
                            tiles,
                            t_geqrt,
                            t_elim,
                            Arc::clone(&meta.core.dag),
                            meta.recycler.clone(),
                        )),
                    };
                    sink.item_done(copy, outcome);
                }
                None => {
                    // Unreachable — an unresolved copy keeps its state —
                    // but the exactly-once contract is kept regardless.
                    sink.item_done(copy, Err(err.unwrap_or(QrError::Stalled)));
                }
            }
        }
    }
}

/// The triangular step of a least-squares solve: solves `R·x = c[0..n]` for
/// every column `c` of `qhb` (`Qᴴ·B`, at least `n` rows). One column at a
/// time through [`Matrix::try_solve_upper_triangular`], so the fused solve
/// and [`least_squares_with_factorization`](crate::solve::least_squares_with_factorization)
/// perform the same arithmetic.
pub(crate) fn back_substitute<T: Scalar>(
    r: &Matrix<T>,
    qhb: &Matrix<T>,
) -> Result<Matrix<T>, QrError> {
    let mut x = Matrix::zeros(r.cols(), qhb.cols());
    for j in 0..qhb.cols() {
        let xj = r
            .try_solve_upper_triangular(qhb.col(j))
            .map_err(|index| QrError::SingularR { index })?;
        x.col_mut(j).copy_from_slice(&xj);
    }
    Ok(x)
}

/// The `T` factors of an in-place factorization ([`QrContext::factorize_into`]).
///
/// The factored tiles stay with the caller; combined with them, this handle
/// replays the block reflectors (`Q`/`Qᴴ` application, `R` extraction) or
/// upgrades into a self-contained [`QrFactorization`] by taking ownership of
/// the tiles.
///
/// Dropping the handle returns its `ib × nb` `T` buffers to the owning
/// plan's recycle pool automatically (via a weak back-reference), so a
/// caller who never calls [`QrPlan::recycle_reflectors`] explicitly still
/// keeps the steady-state loop allocation-free. If the plan is already gone,
/// the buffers are simply freed.
pub struct QrReflectors<T: Scalar> {
    m: usize,
    n: usize,
    nb: usize,
    ib: usize,
    p: usize,
    q: usize,
    dag: Arc<TaskDag>,
    t_geqrt: Vec<Option<Matrix<T>>>,
    t_elim: Vec<Option<Matrix<T>>>,
    recycler: std::sync::Weak<TPool<T>>,
}

impl<T: Scalar> Drop for QrReflectors<T> {
    fn drop(&mut self) {
        if let Some(pool) = self.recycler.upgrade() {
            let t_geqrt = std::mem::take(&mut self.t_geqrt);
            let t_elim = std::mem::take(&mut self.t_elim);
            pool.recycle(t_geqrt.into_iter().chain(t_elim));
        }
    }
}

impl<T: Scalar> std::fmt::Debug for QrReflectors<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QrReflectors")
            .field("m", &self.m)
            .field("n", &self.n)
            .field("tile_size", &self.nb)
            .field("inner_block", &self.ib)
            .field("grid", &(self.p, self.q))
            .finish_non_exhaustive()
    }
}

impl<T: Scalar<Real = f64>> QrReflectors<T> {
    /// Original (unpadded) row count of the factored matrix.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Original (unpadded) column count of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Inner blocking factor the `T` factors are stored with.
    pub fn inner_block(&self) -> usize {
        self.ib
    }

    /// Panics unless `tiles` has the grid this factorization was computed
    /// on — the `tiles` handed back by [`QrContext::factorize_into`].
    fn check_tiles(&self, tiles: &TiledMatrix<T>) {
        assert!(
            (tiles.tile_rows(), tiles.tile_cols(), tiles.tile_size()) == (self.p, self.q, self.nb),
            "tile grid does not match the factorization ({}×{} of nb={})",
            self.p,
            self.q,
            self.nb
        );
    }

    /// The upper-triangular factor `R` (`n × n`), read out of the factored
    /// tiles.
    pub fn r(&self, tiles: &TiledMatrix<T>) -> Matrix<T> {
        self.check_tiles(tiles);
        upper_triangle(tiles, self.n)
    }

    /// Applies `Qᴴ` to a dense matrix with `m` rows, replaying the block
    /// reflectors stored in `tiles`.
    pub fn apply_qh(&self, tiles: &TiledMatrix<T>, b: &Matrix<T>) -> Matrix<T> {
        self.check_tiles(tiles);
        replay_q(
            tiles,
            &self.t_geqrt,
            &self.t_elim,
            &self.dag,
            self.ib,
            self.m,
            b,
            Trans::ConjTrans,
        )
    }

    /// Applies `Q` to a dense matrix with `m` rows.
    pub fn apply_q(&self, tiles: &TiledMatrix<T>, b: &Matrix<T>) -> Matrix<T> {
        self.check_tiles(tiles);
        replay_q(
            tiles,
            &self.t_geqrt,
            &self.t_elim,
            &self.dag,
            self.ib,
            self.m,
            b,
            Trans::NoTrans,
        )
    }

    /// Upgrades into a self-contained [`QrFactorization`] by taking
    /// ownership of the factored tiles. The auto-recycle back-reference
    /// moves with the `T` buffers, so dropping the factorization still
    /// returns them to the plan.
    pub fn into_factorization(mut self, tiles: TiledMatrix<T>) -> QrFactorization<T> {
        self.check_tiles(&tiles);
        // `mem::take` rather than destructuring: the handle has a `Drop`
        // impl (the auto-recycle path), which forbids moving fields out.
        // The emptied vectors make that drop a no-op.
        let t_geqrt = std::mem::take(&mut self.t_geqrt);
        let t_elim = std::mem::take(&mut self.t_elim);
        QrFactorization::from_parts(
            self.m,
            self.n,
            self.nb,
            self.ib,
            tiles,
            t_geqrt,
            t_elim,
            Arc::clone(&self.dag),
            std::mem::take(&mut self.recycler),
        )
    }

    /// Moves the `T` buffers out for explicit recycling
    /// ([`QrPlan::recycle_reflectors`]), disarming the drop-recycle path.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_t_parts(mut self) -> (Vec<Option<Matrix<T>>>, Vec<Option<Matrix<T>>>) {
        (
            std::mem::take(&mut self.t_geqrt),
            std::mem::take(&mut self.t_elim),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::generate::random_matrix;

    #[test]
    fn plan_rejects_bad_shapes() {
        assert_eq!(
            QrPlan::<f64>::new(4, 8, QrConfig::new(2)).err(),
            Some(QrError::WideMatrix { m: 4, n: 8 })
        );
        assert_eq!(
            QrPlan::<f64>::new(8, 4, QrConfig::new(0)).err(),
            Some(QrError::ZeroTileSize)
        );
    }

    #[test]
    fn context_rejects_bad_thread_counts() {
        assert_eq!(QrContext::new(0).err(), Some(QrError::ZeroThreads));
        assert_eq!(
            QrContext::new(MAX_THREADS + 1).err(),
            Some(QrError::TooManyThreads {
                requested: MAX_THREADS + 1,
                max: MAX_THREADS
            })
        );
        assert!(QrContext::new(1).unwrap().pool.is_none());
        // The boundary itself is accepted; validated without spawning 1024
        // parked workers.
        assert_eq!(QrContext::validate_threads(MAX_THREADS), Ok(()));
        assert_eq!(
            QrContext::validate_threads(MAX_THREADS + 1),
            Err(QrError::TooManyThreads {
                requested: MAX_THREADS + 1,
                max: MAX_THREADS
            })
        );
        assert_eq!(QrContext::validate_threads(0), Err(QrError::ZeroThreads));
    }

    #[test]
    fn factorize_checks_the_matrix_shape() {
        let ctx = QrContext::new(1).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(12, 8, QrConfig::new(4)).unwrap();
        let wrong: Matrix<f64> = random_matrix(12, 4, 1);
        assert_eq!(
            ctx.factorize(&plan, &wrong).err(),
            Some(QrError::ShapeMismatch {
                expected: (12, 8),
                got: (12, 4)
            })
        );
    }

    #[test]
    fn factorize_into_checks_the_tile_grid() {
        let ctx = QrContext::new(1).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(12, 8, QrConfig::new(4)).unwrap();
        let mut tiles = TiledMatrix::<f64>::zeros(2, 2, 4);
        assert_eq!(
            ctx.factorize_into(&plan, &mut tiles).err(),
            Some(QrError::PlanMismatch {
                expected: (3, 2, 4),
                got: (2, 2, 4)
            })
        );
    }

    #[test]
    fn repeated_factorizations_reuse_the_plan() {
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(24, 16, QrConfig::new(4)).unwrap();
        let a: Matrix<f64> = random_matrix(24, 16, 3);
        let first = ctx.factorize(&plan, &a).unwrap();
        for _ in 0..3 {
            let again = ctx.factorize(&plan, &a).unwrap();
            assert_eq!(again.r(), first.r(), "plan reuse must be deterministic");
        }
        assert!(first.residual(&a) < 1e-11);
    }

    #[test]
    fn in_place_matches_the_copying_path_bitwise() {
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(20, 12, QrConfig::new(4)).unwrap();
        let a: Matrix<f64> = random_matrix(20, 12, 5);
        let f = ctx.factorize(&plan, &a).unwrap();
        let mut tiles = TiledMatrix::from_dense_padded(&a, 4);
        let refl = ctx.factorize_into(&plan, &mut tiles).unwrap();
        assert_eq!(&tiles, f.factored_tiles());
        assert_eq!(refl.r(&tiles), f.r());
        let b: Matrix<f64> = random_matrix(20, 2, 6);
        assert_eq!(refl.apply_qh(&tiles, &b), f.apply_qh(&b));
        let g = refl.into_factorization(tiles);
        assert_eq!(g.r(), f.r());
    }

    #[test]
    fn workspace_cache_is_bounded_by_the_widest_checkout() {
        // Simulate a concurrent burst: three checkouts in flight at once
        // against a cold cache. The cache must retain at most one workspace
        // per worker of the widest checkout, not the sum of the burst.
        let plan: QrPlan<f64> = QrPlan::new(16, 8, QrConfig::new(4)).unwrap();
        let a = plan.checkout_workspaces(2);
        let b = plan.checkout_workspaces(2);
        let c = plan.checkout_workspaces(2);
        plan.restore_workspaces(a);
        plan.restore_workspaces(b);
        plan.restore_workspaces(c);
        assert!(plan.ws_cache.lock().len() <= 2);
        // A wider context later raises the retention bound.
        let d = plan.checkout_workspaces(3);
        plan.restore_workspaces(d);
        assert!(plan.ws_cache.lock().len() <= 3);
    }

    #[test]
    fn error_messages_are_displayable() {
        let e = QrError::WideMatrix { m: 2, n: 5 };
        assert!(e.to_string().contains("m ≥ n"));
        let e = QrError::TooManyThreads {
            requested: 9999,
            max: MAX_THREADS,
        };
        assert!(e.to_string().contains("9999"));
        let e = QrError::TaskPanicked {
            kind: TaskKind::Geqrt { row: 0, col: 2 },
            message: "boom".into(),
        };
        assert!(e.to_string().contains("panicked"));
        assert!(e.to_string().contains("boom"));
        assert!(QrError::Cancelled.to_string().contains("cancelled"));
        assert!(QrError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(QrError::Stalled.to_string().contains("stalled"));
        let e = QrError::ThreadSpawn {
            details: "out of threads".into(),
        };
        assert!(e.to_string().contains("out of threads"));
        let e = QrError::NonFiniteInput { row: 3, col: 1 };
        assert!(e.to_string().contains("row 3"));
        let e = QrError::SingularR { index: 7 };
        assert!(e.to_string().contains("R[7, 7]"));
        assert!(!e.is_transient());
    }

    #[test]
    fn batch_matches_per_call_factorizations_bitwise() {
        let (m, n, nb) = (24usize, 16usize, 4usize);
        let mats: Vec<Matrix<f64>> = (0..5).map(|i| random_matrix(m, n, 300 + i)).collect();
        for kind in SchedulerKind::ALL {
            for threads in [1usize, 3] {
                let ctx = QrContext::with_scheduler(threads, kind).unwrap();
                let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
                let batch = ctx.factorize_batch(&plan, &mats);
                assert_eq!(batch.len(), mats.len());
                for (a, item) in mats.iter().zip(batch) {
                    let f = item.expect("conforming matrix must factor");
                    let solo = ctx.factorize(&plan, a).unwrap();
                    assert_eq!(
                        f.factored_tiles(),
                        solo.factored_tiles(),
                        "batch and per-call results diverge ({} threads, {})",
                        threads,
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn batch_into_matches_the_copying_batch_bitwise() {
        let (m, n, nb) = (20usize, 12usize, 4usize);
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
        let mats: Vec<Matrix<f64>> = (0..4).map(|i| random_matrix(m, n, 400 + i)).collect();
        let copied = ctx.factorize_batch(&plan, &mats);
        let mut tiles: Vec<TiledMatrix<f64>> = mats
            .iter()
            .map(|a| TiledMatrix::from_dense_padded(a, nb))
            .collect();
        let refls = ctx.factorize_batch_into(&plan, &mut tiles);
        for ((f, refl), t) in copied.into_iter().zip(refls).zip(&tiles) {
            let f = f.unwrap();
            let refl = refl.unwrap();
            assert_eq!(t, f.factored_tiles());
            assert_eq!(refl.r(t), f.r());
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(12, 8, QrConfig::new(4)).unwrap();
        assert!(ctx.factorize_batch(&plan, &[]).is_empty());
        assert!(ctx.factorize_batch_into(&plan, &mut []).is_empty());
    }

    #[test]
    fn t_factor_recycling_is_bitwise_invisible_and_bounded() {
        let (m, n, nb) = (16usize, 8usize, 4usize);
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
        let a: Matrix<f64> = random_matrix(m, n, 500);
        let reference = ctx.factorize(&plan, &a).unwrap();
        let r_ref = reference.r();
        let b: Matrix<f64> = random_matrix(m, 2, 501);
        let qhb_ref = reference.apply_qh(&b);
        // Recycle and refactor several times: results must not change by a
        // bit, and the pool must stay bounded by the widest checkout
        // (2 · p · q buffers for the single-matrix calls here).
        plan.recycle(reference);
        let per_call = 2 * plan.tile_rows() * plan.tile_cols();
        for _ in 0..3 {
            assert!(plan.t_pool.len() <= per_call);
            let f = ctx.factorize(&plan, &a).unwrap();
            assert_eq!(f.r(), r_ref, "recycled T buffers changed the result");
            assert_eq!(f.apply_qh(&b), qhb_ref, "recycled T buffers broke Q replay");
            plan.recycle(f);
        }
        // Foreign-shaped buffers are dropped, not pooled: recycling through
        // a differently-blocked plan of the same grid must not grow its pool
        // with mismatched matrices.
        let plan_ib1: QrPlan<f64> =
            QrPlan::new(m, n, QrConfig::new(nb).with_inner_block(1)).unwrap();
        let f = ctx.factorize(&plan, &a).unwrap();
        plan_ib1.recycle(f);
        assert_eq!(plan_ib1.t_pool.len(), 0);
    }

    #[test]
    fn dropping_a_result_recycles_t_buffers_automatically() {
        let (m, n, nb) = (16usize, 8usize, 4usize);
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
        let a: Matrix<f64> = random_matrix(m, n, 520);
        let per_call = 2 * plan.tile_rows() * plan.tile_cols();

        // Dense path: plain `drop` refills the pool through the weak
        // back-reference, and the next run is bitwise identical whether its
        // T storage was fresh or pool-drawn.
        let reference = ctx.factorize(&plan, &a).unwrap();
        let r_ref = reference.r();
        assert_eq!(plan.t_pool.len(), 0);
        drop(reference);
        assert_eq!(plan.t_pool.len(), per_call);
        let again = ctx.factorize(&plan, &a).unwrap();
        assert_eq!(again.r(), r_ref);
        assert_eq!(plan.t_pool.len(), 0, "pool drained by the recycled run");

        // Explicit recycle after the fields were moved out must not
        // double-return: `recycle` consumes via `into_t_parts`, which disarms
        // the drop path.
        plan.recycle(again);
        assert_eq!(plan.t_pool.len(), per_call);

        // In-place path: dropping the reflectors handle recycles too.
        let mut tiles = TiledMatrix::from_dense_padded(&a, nb);
        let refl = ctx.factorize_into(&plan, &mut tiles).unwrap();
        assert_eq!(plan.t_pool.len(), 0);
        drop(refl);
        assert_eq!(plan.t_pool.len(), per_call);

        // `into_factorization` moves the back-reference with the buffers.
        let refl = ctx.factorize_into(&plan, &mut tiles).unwrap();
        let f = refl.into_factorization(tiles);
        assert_eq!(plan.t_pool.len(), 0);
        drop(f);
        assert_eq!(plan.t_pool.len(), per_call);

        // A handle that outlives its plan frees the buffers quietly.
        let f = ctx.factorize(&plan, &a).unwrap();
        drop(plan);
        drop(f);
    }

    #[test]
    fn reflector_recycling_keeps_the_in_place_loop_stable() {
        let (m, n, nb) = (24usize, 12usize, 4usize);
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
        let a: Matrix<f64> = random_matrix(m, n, 510);
        let oneshot = ctx.factorize(&plan, &a).unwrap();
        let mut tiles = TiledMatrix::from_dense_padded(&a, nb);
        for _ in 0..4 {
            tiles.fill_from_dense_padded(&a);
            let mut batch = vec![std::mem::replace(&mut tiles, TiledMatrix::zeros(6, 3, nb))];
            let refl = ctx
                .factorize_batch_into(&plan, &mut batch)
                .pop()
                .unwrap()
                .unwrap();
            tiles = batch.pop().unwrap();
            assert_eq!(&tiles, oneshot.factored_tiles());
            plan.recycle_reflectors(refl);
        }
    }

    #[test]
    fn in_place_buffers_keep_their_grid_if_the_call_unwinds() {
        // A kernel panic unwinds out of factorize_batch_into after the
        // caller's conforming buffers were swapped for 0 × 0 placeholders.
        // The RestorePlaceholders guard must put plan-shaped grids back
        // (zeroed — the values were being overwritten anyway) and leave
        // non-placeholder slots alone, so a catch_unwind-and-retry loop can
        // refill the same buffers.
        let mut tiles = vec![
            TiledMatrix::<f64>::zeros(3, 2, 4),
            TiledMatrix::<f64>::zeros(1, 1, 4), // rejected slot: untouched
            // A caller-supplied buffer that *is* 0 × 0 (also rejected): the
            // guard must not mistake it for a moved-out placeholder.
            TiledMatrix::<f64>::from_tiles(Vec::new(), 0, 0, 7),
        ];
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let guard = RestorePlaceholders {
                taken: vec![true, false, false],
                tiles: &mut tiles,
                p: 3,
                q: 2,
                nb: 4,
            };
            // Simulate the batch having taken the first (conforming) buffer.
            guard.tiles[0] = TiledMatrix::from_tiles(Vec::new(), 0, 0, 4);
            panic!("simulated kernel failure");
        }));
        assert!(err.is_err());
        assert_eq!(tiles[0], TiledMatrix::zeros(3, 2, 4), "grid restored");
        assert_eq!(tiles[1], TiledMatrix::zeros(1, 1, 4), "foreign slot kept");
        assert_eq!(
            tiles[2],
            TiledMatrix::from_tiles(Vec::new(), 0, 0, 7),
            "a caller-owned 0 × 0 buffer is not a placeholder"
        );
        // And a refill on the restored buffer works — the retry pattern.
        tiles[0].fill_from_dense_padded(&random_matrix::<f64>(12, 8, 99));
    }

    #[test]
    fn pool_survives_a_mid_batch_worker_panic() {
        // A worker panicking mid-job is what a kernel bug looks like to the
        // pool: drive the plan's real DAG through the real pool with one
        // poisoned task, then prove the same context still factors real
        // batches bitwise-correctly afterwards.
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(24, 16, QrConfig::new(4)).unwrap();

        struct PoisonJob {
            core: Arc<PlanCore>,
            sched: WorkStealing,
            remaining: Vec<AtomicUsize>,
            completed: AtomicUsize,
            aborted: AtomicBool,
            poison: usize,
        }
        impl Job for PoisonJob {
            fn run(&self, w: usize, heartbeat: &AtomicUsize) {
                let n = self.core.dag.len();
                // Legacy abort mode (`faults: None`): the panic unwinds out
                // of the worker and the pool re-raises it on the submitter.
                let map = ItemMap::uniform(n, 1);
                let ctl = DriveCtl {
                    num_tasks: n,
                    map: &map,
                    succ: GroupSucc::Shared(&self.core.succ),
                    remaining: &self.remaining,
                    completed: &self.completed,
                    aborted: &self.aborted,
                    max_out_degree: self.core.max_out_degree,
                    cancel: None,
                    faults: None,
                };
                drive_worker(&ctl, &self.sched, w, Some(heartbeat), &mut |idx| {
                    if idx == self.poison {
                        panic!("injected mid-batch kernel failure");
                    }
                });
            }
        }

        let core = Arc::clone(&plan.core);
        let sched = WorkStealing::new(core.dag.len(), 2);
        let mut roots = core.roots.clone();
        sched.seed(&mut roots);
        let job = Arc::new(PoisonJob {
            remaining: core
                .dag
                .tasks
                .iter()
                .map(|t| AtomicUsize::new(t.deps.len()))
                .collect(),
            completed: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            poison: core.dag.len() / 2,
            core,
            sched,
        });
        let pool = ctx.pool.as_ref().expect("2-thread context has a pool");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(job as Arc<dyn Job>);
        }));
        assert!(
            result.is_err(),
            "the injected panic must reach the submitter"
        );

        // The context (and its pool) must still serve batches, bitwise equal
        // to the sequential reference.
        let mats: Vec<Matrix<f64>> = (0..3).map(|i| random_matrix(24, 16, 600 + i)).collect();
        let seq = QrContext::new(1).unwrap();
        for (a, item) in mats.iter().zip(ctx.factorize_batch(&plan, &mats)) {
            let f = item.expect("batch after a panic must succeed");
            assert_eq!(
                f.factored_tiles(),
                seq.factorize(&plan, a).unwrap().factored_tiles()
            );
        }
    }

    /// Ordered collection sink for the stream tests: slot `i` receives
    /// item `i`'s outcome exactly once.
    type ItemOutcome = Result<QrFactorization<f64>, QrError>;
    struct CollectSink {
        results: Mutex<Vec<Option<ItemOutcome>>>,
    }

    impl ItemSink<f64> for CollectSink {
        fn item_done(&self, index: usize, outcome: Result<QrFactorization<f64>, QrError>) {
            let mut slots = self.results.lock();
            assert!(slots[index].is_none(), "item {index} delivered twice");
            slots[index] = Some(outcome);
        }
    }

    /// The tentpole contract end to end: one fused streaming job spanning
    /// *different* plans (shapes, tile sizes, inner blockings, trees), fed
    /// through both input modes, with every item bitwise equal to its own
    /// sequential single-plan reference.
    #[test]
    fn mixed_plan_stream_matches_each_items_sequential_reference() {
        use tileqr_matrix::generate::random_matrix;
        let ctx = QrContext::new(3).unwrap();
        let seq = QrContext::new(1).unwrap();
        let plans: Vec<Arc<QrPlan<f64>>> = vec![
            Arc::new(QrPlan::new(40, 24, QrConfig::new(8)).unwrap()),
            Arc::new(
                QrPlan::new(
                    18,
                    18,
                    QrConfig::new(6)
                        .with_inner_block(3)
                        .with_algorithm(Algorithm::FlatTree),
                )
                .unwrap(),
            ),
            Arc::new(QrPlan::new(33, 10, QrConfig::new(5)).unwrap()),
        ];
        // Two rounds: [0, 1, 2, 1] then [2, 0] — distinct task counts, so
        // the heterogeneous (offset) mapping is exercised, and plan 1
        // appears twice in one group to cover same-plan copies inside a
        // mixed group.
        for round in [vec![0usize, 1, 2, 1], vec![2, 0]] {
            let mats: Vec<Matrix<f64>> = round
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let plan = &plans[p];
                    random_matrix(plan.m(), plan.n(), 7_000 + i as u64)
                })
                .collect();
            let entries: Vec<StreamEntry<f64>> = round
                .iter()
                .zip(&mats)
                .enumerate()
                .map(|(i, (&p, a))| StreamEntry {
                    plan: Arc::clone(&plans[p]),
                    // Alternate input modes: even items pre-tiled, odd items
                    // dense (worker-side lazy tiling).
                    input: if i % 2 == 0 {
                        StreamInput::Tiled(TiledMatrix::from_dense_padded(a, plans[p].tile_size()))
                    } else {
                        StreamInput::Dense(Arc::new(a.clone()))
                    },
                    probe: i,
                })
                .collect();
            let sink = Arc::new(CollectSink {
                results: Mutex::new((0..round.len()).map(|_| None).collect()),
            });
            ctx.factorize_stream(entries, &(Arc::clone(&sink) as Arc<dyn ItemSink<f64>>));
            let results = sink.results.lock();
            for (i, (&p, a)) in round.iter().zip(&mats).enumerate() {
                let got = results[i]
                    .as_ref()
                    .expect("every item resolves")
                    .as_ref()
                    .expect("mixed-group item succeeds");
                let reference = seq.factorize(&plans[p], a).unwrap();
                assert_eq!(
                    got.factored_tiles(),
                    reference.factored_tiles(),
                    "round item {i} (plan {p}) must be bitwise equal to its sequential reference"
                );
            }
        }
    }

    /// Same-plan streaming groups must reduce to the historical uniform
    /// mapping: identical results to the sequential reference, via the
    /// pre-tiled input mode (the path the old runtime used).
    #[test]
    fn homogeneous_stream_group_still_matches_the_sequential_reference() {
        use tileqr_matrix::generate::random_matrix;
        let ctx = QrContext::new(2).unwrap();
        let seq = QrContext::new(1).unwrap();
        let plan = Arc::new(QrPlan::<f64>::new(24, 16, QrConfig::new(8)).unwrap());
        let mats: Vec<Matrix<f64>> = (0..3).map(|i| random_matrix(24, 16, 8_100 + i)).collect();
        let entries: Vec<StreamEntry<f64>> = mats
            .iter()
            .enumerate()
            .map(|(i, a)| StreamEntry {
                plan: Arc::clone(&plan),
                input: StreamInput::Tiled(TiledMatrix::from_dense_padded(a, plan.tile_size())),
                probe: i,
            })
            .collect();
        let sink = Arc::new(CollectSink {
            results: Mutex::new((0..mats.len()).map(|_| None).collect()),
        });
        ctx.factorize_stream(entries, &(Arc::clone(&sink) as Arc<dyn ItemSink<f64>>));
        let results = sink.results.lock();
        for (i, a) in mats.iter().enumerate() {
            let got = results[i]
                .as_ref()
                .expect("every item resolves")
                .as_ref()
                .expect("homogeneous item succeeds");
            assert_eq!(
                got.factored_tiles(),
                seq.factorize(&plan, a).unwrap().factored_tiles()
            );
        }
    }
}
