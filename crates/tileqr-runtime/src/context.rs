//! Session-style factorization API: [`QrContext`] + [`QrPlan`].
//!
//! The free functions of [`crate::driver`] are one-shot: every call re-tiles
//! the matrix, rebuilds the elimination list and [`TaskDag`](tileqr_core::dag::TaskDag), reallocates all
//! scratch, and spawns a fresh set of worker threads. That is the right shape
//! for a single large factorization, but a service factoring a *stream* of
//! moderate-size matrices pays the planning and pool-startup cost on every
//! request. This module splits the API the way PLASMA splits it:
//!
//! * [`QrContext`] — the long-lived runtime: a persistent, parkable worker
//!   pool, built once from `threads`: the calling thread is worker 0 of
//!   every job, beside `threads − 1` helpers that idle through the
//!   executor's spin → yield → park backoff between jobs instead of being
//!   respawned. Every job picks its next ready task by work stealing; there
//!   is no other policy to choose. Clones share the pool and the
//!   cancellation token; the per-job bounds ([`QrContext::with_watchdog`],
//!   [`QrContext::with_deadline`]) are each clone's own.
//! * [`QrPlan`] — the reusable schedule for one problem shape
//!   `(m, n, nb, ib, algorithm, family)`: the elimination list, the task
//!   DAG with its CSR successor lists and root set, and a checkout cache of
//!   per-worker kernel [`Workspace`](tileqr_kernels::Workspace)s. Building a plan is the *planning*
//!   phase; executing it is pure kernel time. For least squares
//!   ([`QrContext::solve`]) the plan also holds the schedule over `[A | B]`
//!   — the same elimination list with the right-hand side as a trailing tile
//!   column, built by the first solve — and the tile buffer solves factor
//!   in, parked between calls. It also holds each schedule's *first-touch*
//!   table: which task is the first to name each tile.
//! * [`QrError`] ([`crate::error`]) — typed errors replacing the driver's
//!   panics: bad shapes, zero tile sizes and oversized thread counts are
//!   reported as values.
//! * [`QrReflectors`] ([`crate::reflectors`]) — the result of the in-place
//!   path [`QrContext::factorize_into`], which factors caller-owned tile
//!   storage without the dense→tiled copy and hands back only the `T`
//!   factors.
//!
//! [`QrPlan`] lives in [`crate::plan`]; both are re-exported here.
//!
//! # One job, many callers
//!
//! A context has five request calls, and every one of them runs the same
//! engine (`QrContext::run` in `job.rs`): the inputs become the *copies* of
//! **one fused pool job** — each copy its own schedule, contiguous task ids,
//! no cross-copy edges — and each copy's outcome is handed, exactly once, to
//! the job's *sink*. The calls differ only in what they put in and where the
//! outcomes go:
//!
//! * [`QrContext::factorize_into`] / [`QrContext::factorize_batch_into`] —
//!   one or `k` copies of one plan over caller-owned tiles;
//!   [`QrContext::factorize`] / [`QrContext::factorize_batch`] — the same,
//!   over dense matrices; [`QrContext::solve`] — one dense copy running the
//!   plan's solve schedule with the right-hand side as a trailing tile
//!   column. A dense input is read where it lies: the first task that names
//!   a tile copies it in, under the task's tile locks, on whichever worker
//!   runs that task, and the DAG orders every other access to the tile
//!   after it (`tileqr-analyze` proves this for every plan). No thread fills
//!   the whole matrix up front, and the fill of a tile lands in the cache of
//!   the worker about to factor it. All of them use a *collecting* sink:
//!   outcomes are parked until the job returns, then wrapped into handles
//!   in input order.
//! * the service ([`crate::service`]) submits mixed-plan groups of dense
//!   inputs with a sink that resolves each ticket **the moment its copy's
//!   last task retires**, while sibling copies are still running.
//!
//! Every thread count runs the job the same way: the calling thread is
//! worker 0 and the pool's `threads − 1` helpers are the others. At
//! `threads == 1` there are no helpers, and the job runs on the calling
//! thread alone — there is no second engine.
//!
//! Why fuse: a service factoring many *small* matrices pays the pool wake-up
//! (epoch bump + unpark + park-tier wake latency) per job — for a 6 × 3-tile
//! problem that rivals the kernel time itself. With `k` copies in one job
//! the per-shape CSR successor lists are shared instead of re-materialized,
//! there is one wake-up instead of `k`, and the work-stealing deques
//! load-balance freely *across* matrices — the PLASMA
//! insight that one DAG-driven pool amortizes over problems, not just tiles.
//! Per-item errors are isolated ([`Result`] per matrix): an input that fails
//! validation never enters the job, a copy whose kernel panics fails alone,
//! and the other copies still run.
//!
//! The last per-call allocation of the hot path — the `T`-factor storage —
//! recycles through the plan, and **dropping the handle is the recycle
//! path**: a copy's `T` factors are one value
//! ([`TFactors`](crate::reflectors::TFactors)) checked out of the plan's pool
//! (zeroed in place, so results stay bitwise identical to the
//! fresh-allocation path) that returns its `ib × nb` buffers to that pool
//! wherever it is dropped — inside a [`QrFactorization`] or [`QrReflectors`]
//! going out of scope, a failed or rejected copy, a consumed solve. A
//! steady-state loop of `factorize_batch_into` over refilled tile buffers
//! that drops its results performs only a fixed, small *number* of heap
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
//! Every way of driving the job (any thread count, any steal order) runs
//! the same kernels in a DAG-respecting order, so results are **bitwise
//! identical** across all of them and to a plain in-order walk of the tasks
//! — the equivalence suites pin this down for `f64` and `Complex64`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

use crate::driver::QrFactorization;
pub use crate::error::QrError;
pub(crate) use crate::job::{ItemSink, StreamEntry, StreamInput};
pub use crate::plan::QrPlan;
use crate::pool::WorkerPool;
use crate::reflectors::upper_triangle;
pub use crate::reflectors::QrReflectors;
use crate::state::{gather_row_blocks, rhs_row_blocks, FactoredParts};
use crate::sync::{CancelToken, Mutex};
use crate::trace::ExecutionTrace;

/// Hard upper bound on the worker-thread count of a [`QrContext`]; requests
/// beyond it are configuration mistakes (the pool would oversubscribe any
/// real machine by orders of magnitude) and are rejected as
/// [`QrError::TooManyThreads`].
pub const MAX_THREADS: usize = 1024;

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

/// A long-lived factorization runtime: a persistent worker pool.
///
/// Build one context per service (or per thread count) and reuse it for
/// every factorization; combine with a [`QrPlan`] per problem shape so
/// repeated factorizations skip planning entirely. The thread that
/// calls a factorization is worker 0 of its job, beside the context's
/// `threads − 1` helper threads; with `threads == 1` no thread is spawned and
/// every factorization runs on the calling thread.
///
/// The context is `Sync`; concurrent `factorize` calls from several threads
/// are safe. With helpers they are serialized — the pool runs one job at a
/// time; a one-thread context runs each on its own caller, side by side.
///
/// A clone is a second handle on the **same** pool and the same sticky
/// cancellation token, so it costs no threads; its bounds are its own. A
/// per-call deadline is therefore
/// `ctx.clone().with_deadline(timeout).factorize(..)`.
#[derive(Clone)]
pub struct QrContext {
    pub(crate) pool: Arc<WorkerPool>,
    /// The sticky user cancellation token handed out by
    /// [`QrContext::cancel_handle`]. Internal causes (deadline, watchdog)
    /// never touch it — each job gets its own token they funnel into.
    pub(crate) cancel: CancelToken,
    /// Stall bound of the watchdog, if enabled.
    pub(crate) watchdog: Option<Duration>,
    /// Wall-clock bound of every job, measured from its start, if set.
    pub(crate) deadline: Option<Duration>,
}

impl std::fmt::Debug for QrContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QrContext")
            .field("threads", &self.threads())
            .field("watchdog", &self.watchdog)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

impl QrContext {
    /// Builds a context whose jobs run on `threads` threads.
    ///
    /// `threads` counts the threads that execute tasks: the calling thread
    /// (worker 0 of each job) plus `threads − 1` persistent helpers spawned
    /// here. `threads == 1` spawns none.
    pub fn new(threads: usize) -> Result<Self, QrError> {
        QrContext::validate_threads(threads)?;
        let pool = WorkerPool::new(threads).map_err(|e| QrError::ThreadSpawn {
            details: e.to_string(),
        })?;
        Ok(QrContext {
            pool: Arc::new(pool),
            cancel: CancelToken::new(),
            watchdog: None,
            deadline: None,
        })
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

    /// Arms the watchdog: if a worker wants work and no task of the job
    /// retires for longer than `bound`, the job is cancelled and its
    /// unfinished items report [`QrError::Stalled`].
    ///
    /// The check runs on the job's own workers, in their idle loop — the
    /// caller included, as worker 0 — at most once per `bound / 8`, so a
    /// stall is caught within about `9/8 · bound`. It is cooperative: it
    /// reliably recovers runs whose workers are *idling* without progress
    /// (the shape of a lost-task bug) and runs whose stalled task eventually
    /// returns. A task wedged in an infinite loop keeps its OS thread (safe
    /// Rust cannot kill it); the other workers still stop, but the call
    /// returns only once the wedged task does — and with `threads == 1`,
    /// where the wedged task holds the only worker, nobody is idle to notice
    /// before it returns. Pick a bound comfortably above the longest single
    /// kernel task, not the whole factorization.
    pub fn with_watchdog(mut self, bound: Duration) -> Self {
        self.watchdog = Some(bound);
        self
    }

    /// Bounds every job of this context to `timeout` of wall-clock time,
    /// measured from the job's start: a request that has not finished by
    /// then is cancelled, and its unfinished items report
    /// [`QrError::DeadlineExceeded`]. Items that finished before the
    /// deadline fired still return `Ok`, so a batch can come back partial.
    /// The bound applies to every call — the four `factorize*` calls,
    /// [`QrContext::solve`] — and to every fused group of a
    /// [`QrService`](crate::service::QrService) built over this context.
    ///
    /// Every worker checks the deadline between kernel tasks and while idle,
    /// so the overrun is bounded by one task plus one idle park. A zero
    /// timeout rejects every request before any kernel runs, with its buffers
    /// bitwise untouched. A `timeout` too large to represent as an
    /// [`Instant`] (e.g. [`Duration::MAX`]) means no deadline. A deadline
    /// failure is never sticky: the next job starts a fresh bound.
    ///
    /// The bound belongs to this handle only; bound a clone
    /// (`ctx.clone().with_deadline(..)`) to limit some calls and not others.
    /// On [`QrError::DeadlineExceeded`] an in-place buffer keeps its
    /// plan-shaped grid but may hold a partially factored matrix — refill it
    /// before retrying.
    pub fn with_deadline(mut self, timeout: Duration) -> Self {
        self.deadline = Some(timeout);
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

    /// Number of threads a job runs on: the caller plus the helpers
    /// (1 = the caller alone).
    pub fn threads(&self) -> usize {
        self.pool.threads()
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
        only(self.batch_inner(plan, std::slice::from_ref(a), None))
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
    /// cancellation, panic containment, watchdog and deadline apply as for
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
    /// [`QrError::NonFiniteInput`] if the plan checks finiteness and `a` or
    /// `b` holds a NaN or infinity, [`QrError::SingularR`] if `A` is exactly
    /// rank deficient, and every error [`QrContext::factorize`] can report.
    pub fn solve<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        a: &Matrix<T>,
        b: &Matrix<T>,
    ) -> Result<Matrix<T>, QrError> {
        plan.validate(a, Some(b))?;
        let parked = plan.solve_tiles.lock().take();
        let input = StreamInput {
            tiles: Some(parked.unwrap_or_else(|| TiledMatrix::zeros(plan.p, plan.q, plan.nb))),
            dense: Some(a),
            rhs: rhs_row_blocks(b, plan.p, plan.nb),
        };
        // The copy's `T` factors go back to the plan's pool as `parts` drops.
        let (parts, err) = only(self.run_collect(copies_of(plan, vec![input]), None));
        let x = match err {
            Some(e) => Err(e),
            None => back_substitute(
                &upper_triangle(&parts.tiles, plan.n()),
                &gather_row_blocks(&parts.rhs, plan.n()),
            ),
        };
        *plan.solve_tiles.lock() = Some(parts.tiles);
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
    /// If the call unwinds (a bug in the runtime — kernel panics are
    /// contained and reported as [`QrError::TaskPanicked`]), the tile buffer
    /// keeps its plan-shaped grid but its numeric contents are lost (reset to
    /// zeros), so a `catch_unwind`-and-retry caller can refill the same
    /// buffer and carry on — the pool itself survives the panic.
    pub fn factorize_into<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        tiles: &mut TiledMatrix<T>,
    ) -> Result<QrReflectors<T>, QrError> {
        only(self.batch_into_inner(plan, std::slice::from_mut(tiles), None))
    }

    /// Factorizes a batch of `k` independent matrices of the plan's shape as
    /// **one fused pool job**, returning one [`Result`] per matrix in input
    /// order.
    ///
    /// All `k` schedules are submitted together — task ids are the plan's
    /// DAG tiled `k` times, sharing its CSR successor lists — so small
    /// problems pay a single pool wake-up instead of `k`, and the
    /// work-stealing deques balance load *across* matrices: a worker idling
    /// at the tail of one matrix's DAG steals ready tasks from another's. Each matrix's result is **bitwise identical** to a
    /// standalone [`QrContext::factorize`] of that matrix (the fused DAG has
    /// no cross-matrix edges, and the per-tile kernel order within each
    /// matrix is unchanged).
    ///
    /// Failures are isolated per item: a matrix whose shape does not match
    /// the plan gets `Err(`[`QrError::ShapeMismatch`]`)` in its slot while
    /// the conforming matrices still factor. An empty batch returns an empty
    /// vector without touching the pool.
    ///
    /// Dropping a consumed result returns its `T`-factor storage to the plan
    /// for the next call.
    pub fn factorize_batch<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        mats: &[Matrix<T>],
    ) -> Vec<Result<QrFactorization<T>, QrError>> {
        self.batch_inner(plan, mats, None)
    }

    /// The copying calls: checks each matrix, runs the conforming ones as
    /// one job of dense copies — each tile is filled by the first task that
    /// names it, on the workers — (traced into `trace`, if given) and wraps
    /// each success into its handle.
    pub(crate) fn batch_inner<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        mats: &[Matrix<T>],
        trace: Option<&ExecutionTrace>,
    ) -> Vec<Result<QrFactorization<T>, QrError>> {
        let checks: Vec<_> = mats.iter().map(|a| plan.validate(a, None)).collect();
        let inputs = mats
            .iter()
            .zip(&checks)
            .filter(|(_, check)| check.is_ok())
            .map(|(a, _)| StreamInput {
                tiles: None,
                dense: Some(a),
                rhs: Vec::new(),
            })
            .collect();
        let mut outcomes = self.run_collect(copies_of(plan, inputs), trace).into_iter();
        checks
            .into_iter()
            .map(|check| {
                check?;
                let (parts, err) = outcomes.next().expect("one outcome per conforming matrix");
                let (tiles, reflectors) = plan.conclude(parts, err);
                Ok(reflectors?.into_factorization(tiles))
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
    /// refill the buffers — the dropped handles return the `T` storage — a
    /// steady-state batch loop performs only a constant, small number of
    /// bookkeeping allocations per call — none per tile, per task or per `T`
    /// factor (see the [module docs](self)).
    ///
    /// If the call unwinds (a bug in the runtime — kernel panics are
    /// contained per item), every conforming buffer keeps its plan-shaped
    /// grid (contents reset to zeros), so a `catch_unwind`-and-retry caller
    /// can refill the same buffers — the pool itself survives the panic.
    pub fn factorize_batch_into<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        tiles: &mut [TiledMatrix<T>],
    ) -> Vec<Result<QrReflectors<T>, QrError>> {
        self.batch_into_inner(plan, tiles, None)
    }

    /// The checked fan-out/fan-in of every factorization call: runs the
    /// buffers that pass [`QrPlan::validate_tiles`] as consecutive copies of
    /// `plan` in one job and hands back, in input order, the check's error
    /// or what [`QrPlan::conclude`] makes of the copy's outcome.
    fn batch_into_inner<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        tiles: &mut [TiledMatrix<T>],
        trace: Option<&ExecutionTrace>,
    ) -> Vec<Result<QrReflectors<T>, QrError>> {
        // A rejected buffer is left untouched; a conforming one moves into
        // the job, a 0 × 0 placeholder standing in for it meanwhile.
        let mut checks = Vec::with_capacity(tiles.len());
        let mut inputs = Vec::with_capacity(tiles.len());
        for t in tiles.iter_mut() {
            let check = plan.validate_tiles(t);
            if check.is_ok() {
                let placeholder = TiledMatrix::from_tiles(Vec::new(), 0, 0, plan.nb);
                inputs.push(tiles_only(std::mem::replace(t, placeholder)));
            }
            checks.push(check);
        }
        // If the job unwinds (a bug in the runtime itself — kernel panics
        // are caught per task), the caller's conforming slots must not be
        // left holding the placeholders: the guard puts plan-shaped zero
        // grids back so a recover-and-retry caller can refill the same
        // buffers.
        let guard = RestorePlaceholders {
            taken: checks.iter().map(Result::is_ok).collect(),
            tiles,
            p: plan.p,
            q: plan.q,
            nb: plan.nb,
        };
        let mut outcomes = self.run_collect(copies_of(plan, inputs), trace).into_iter();
        checks
            .into_iter()
            .zip(guard.tiles.iter_mut())
            .map(|(check, slot)| {
                check?;
                // The caller gets their buffer back in every outcome: the
                // factored tiles on success, the partially overwritten tiles
                // on a contained fault or cancellation (grid intact, values
                // to be refilled), and the bitwise-untouched tiles when the
                // run was rejected before any kernel executed.
                let (parts, err) = outcomes.next().expect("one outcome per conforming input");
                let (factored, reflectors) = plan.conclude(parts, err);
                *slot = factored;
                reflectors
            })
            .collect()
    }

    /// Runs `entries` as one job ([`QrContext::run`]) and returns their
    /// outcomes in order: the engine call of every blocking entry point.
    pub(crate) fn run_collect<T: Scalar<Real = f64>>(
        &self,
        entries: Vec<StreamEntry<'_, '_, T>>,
        trace: Option<&ExecutionTrace>,
    ) -> Vec<JobOutcome<T>> {
        let sink = Arc::new(CollectSink(Mutex::new(
            entries.iter().map(|_| None).collect(),
        )));
        self.run(entries, trace, Arc::clone(&sink) as _);
        let outcomes = Arc::into_inner(sink)
            .unwrap_or_else(|| panic!("sink still shared after the job ended"))
            .0
            .into_inner();
        outcomes
            .into_iter()
            .map(|o| o.expect("every copy resolves exactly once"))
            .collect()
    }
}

/// The instant `timeout` from now, or `None` — no deadline — when that lies
/// beyond what an [`Instant`] can represent.
pub(crate) fn deadline_in(timeout: Duration) -> Option<Instant> {
    Instant::now().checked_add(timeout)
}

/// A copy's input that is tiles alone — a factorization, not a solve.
fn tiles_only<T: Scalar>(tiles: TiledMatrix<T>) -> StreamInput<'static, T> {
    StreamInput {
        tiles: Some(tiles),
        dense: None,
        rhs: Vec::new(),
    }
}

/// `inputs` as consecutive copies of one plan, fault-probed by position.
fn copies_of<'a, T: Scalar>(
    plan: &'a QrPlan<T>,
    inputs: Vec<StreamInput<'a, T>>,
) -> Vec<StreamEntry<'a, 'a, T>> {
    let entry = |(probe, input)| StreamEntry { plan, input, probe };
    inputs.into_iter().enumerate().map(entry).collect()
}

/// What a job hands back per copy: the parts of its state and the copy's
/// fault, if any.
type JobOutcome<T> = (FactoredParts<T>, Option<QrError>);

/// The [`ItemSink`] of the blocking calls: parks every copy's outcome in its
/// slot until the job returns.
struct CollectSink<T: Scalar>(Mutex<Vec<Option<JobOutcome<T>>>>);

impl<T: Scalar> ItemSink<T> for CollectSink<T> {
    fn item_done(&self, index: usize, parts: FactoredParts<T>, err: Option<QrError>) {
        let slot = &mut self.0.lock()[index];
        assert!(slot.is_none(), "copy {index} delivered twice");
        *slot = Some((parts, err));
    }
}

/// The single result of a call that submitted a single input.
fn only<R>(mut results: Vec<R>) -> R {
    results.pop().expect("one input in, one result out")
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::QrConfig;
    use crate::state::FactorizationState;
    use tileqr_core::algorithms::Algorithm;
    use tileqr_kernels::Workspace;
    use tileqr_matrix::generate::random_matrix;

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
        assert_eq!(QrContext::new(1).unwrap().threads(), 1);
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
    fn clones_share_the_pool_and_keep_their_own_bounds() {
        let ctx = QrContext::new(2).unwrap();
        let twin = ctx.clone().with_deadline(Duration::ZERO);
        assert!(Arc::ptr_eq(&ctx.pool, &twin.pool));
        assert_eq!((ctx.deadline, twin.deadline), (None, Some(Duration::ZERO)));
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
    fn batch_matches_per_call_factorizations_bitwise() {
        let (m, n, nb) = (24usize, 16usize, 4usize);
        let mats: Vec<Matrix<f64>> = (0..5).map(|i| random_matrix(m, n, 300 + i)).collect();
        for threads in [1usize, 3] {
            let ctx = QrContext::new(threads).unwrap();
            let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
            let batch = ctx.factorize_batch(&plan, &mats);
            assert_eq!(batch.len(), mats.len());
            for (a, item) in mats.iter().zip(batch) {
                let f = item.expect("conforming matrix must factor");
                let solo = ctx.factorize(&plan, a).unwrap();
                assert_eq!(
                    f.factored_tiles(),
                    solo.factored_tiles(),
                    "batch and per-call results diverge ({} threads)",
                    threads
                );
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
    fn pool_survives_a_panic_that_escapes_the_job() {
        // Kernel panics are contained per copy; what can still unwind out of
        // a worker is the sink. Drive a real batch through the real engine
        // with a sink that panics on one copy: the panic must reach the
        // submitter (not hang the sibling workers), and the same context
        // must still factor real batches bitwise-correctly afterwards.
        struct PoisonSink;
        impl ItemSink<f64> for PoisonSink {
            fn item_done(&self, index: usize, _: FactoredParts<f64>, _: Option<QrError>) {
                if index == 1 {
                    panic!("injected sink failure");
                }
            }
        }
        let plan: QrPlan<f64> = QrPlan::new(24, 16, QrConfig::new(4)).unwrap();
        let mats: Vec<Matrix<f64>> = (0..3).map(|i| random_matrix(24, 16, 600 + i)).collect();
        let seq = QrContext::new(1).unwrap();
        for threads in [1usize, 2] {
            let ctx = QrContext::new(threads).unwrap();
            let inputs = mats
                .iter()
                .map(|a| tiles_only(TiledMatrix::from_dense_padded(a, 4)))
                .collect();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.run(copies_of(&plan, inputs), None, Arc::new(PoisonSink));
            }));
            assert!(
                result.is_err(),
                "the injected panic must reach the submitter ({threads} threads)"
            );
            for (a, item) in mats.iter().zip(ctx.factorize_batch(&plan, &mats)) {
                let f = item.expect("batch after a panic must succeed");
                assert_eq!(
                    f.factored_tiles(),
                    seq.factorize(&plan, a).unwrap().factored_tiles()
                );
            }
        }
    }

    /// The engine-independent reference: the plan's factor tasks walked in
    /// order on the calling thread, straight against the state.
    fn reference_factorization(plan: &QrPlan<f64>, a: &Matrix<f64>) -> QrFactorization<f64> {
        let tiles = TiledMatrix::from_dense_padded(a, plan.nb);
        let state = FactorizationState::with_inner_block(tiles, plan.ib);
        let mut ws = Workspace::with_inner_block(plan.nb, plan.ib);
        for task in &plan.core.dag.tasks {
            state.run_ws(task.kind, &mut ws);
        }
        let (tiles, reflectors) = plan.conclude(state.into_parts(), None);
        reflectors.unwrap().into_factorization(tiles)
    }

    /// The one-engine contract end to end: the *same* entries — three plans
    /// (shapes, tile sizes, inner blockings, trees), one of them twice; one
    /// copy a fused solve with `k = 3`, dense copies (tiles filled by their
    /// first tasks) next to pre-tiled ones — as one job under
    /// `threads ∈ {1, 4}`.
    /// Every outcome must be bitwise equal to the plain in-order kernel walk
    /// of its own plan, and the solve to the decomposed route.
    #[test]
    fn one_job_spans_plans_inputs_and_a_solve_bitwise_on_every_engine() {
        #[derive(Clone, Copy, PartialEq)]
        enum Input {
            Tiled,
            Dense,
            Solve,
        }
        let plans: Vec<QrPlan<f64>> = vec![
            QrPlan::new(40, 24, QrConfig::new(8)).unwrap(),
            QrPlan::new(
                18,
                18,
                QrConfig::new(6)
                    .with_inner_block(3)
                    .with_algorithm(Algorithm::FlatTree),
            )
            .unwrap(),
            QrPlan::new(33, 10, QrConfig::new(5)).unwrap(),
        ];
        let table = [
            (0usize, Input::Tiled),
            (1, Input::Dense),
            (2, Input::Solve),
            (1, Input::Tiled),
            (0, Input::Dense),
        ];
        let mats: Vec<Matrix<f64>> = table
            .iter()
            .enumerate()
            .map(|(i, &(p, _))| random_matrix(plans[p].m(), plans[p].n(), 7_000 + i as u64))
            .collect();
        let b: Matrix<f64> = random_matrix(33, 3, 7_100);
        let references: Vec<QrFactorization<f64>> = table
            .iter()
            .zip(&mats)
            .map(|(&(p, _), a)| reference_factorization(&plans[p], a))
            .collect();
        for threads in [1usize, 4] {
            let ctx = QrContext::new(threads).unwrap();
            let entries = table
                .iter()
                .zip(&mats)
                .enumerate()
                .map(|(probe, (&(p, input), a))| {
                    let plan = &plans[p];
                    let tiles = TiledMatrix::from_dense_padded(a, plan.nb);
                    let input = match input {
                        Input::Dense => StreamInput {
                            tiles: None,
                            dense: Some(a),
                            rhs: Vec::new(),
                        },
                        Input::Tiled => tiles_only(tiles),
                        // A borrowed input filled into stale storage: its
                        // old values must never be read.
                        Input::Solve => StreamInput {
                            tiles: Some(TiledMatrix::from_dense_padded(&a.scaled(-3.0), plan.nb)),
                            dense: Some(a),
                            rhs: rhs_row_blocks(&b, plan.p, plan.nb),
                        },
                    };
                    StreamEntry { plan, input, probe }
                })
                .collect();
            let outcomes = ctx.run_collect(entries, None);
            for (i, ((parts, err), reference)) in outcomes.into_iter().zip(&references).enumerate()
            {
                let (p, input) = table[i];
                let at = format!("entry {i}, {threads} threads");
                assert_eq!(err, None, "{at}");
                if input == Input::Solve {
                    let x = back_substitute(
                        &upper_triangle(&parts.tiles, plans[p].n()),
                        &gather_row_blocks(&parts.rhs, plans[p].n()),
                    );
                    let decomposed = back_substitute(&reference.r(), &reference.apply_qh(&b));
                    assert_eq!(x, decomposed, "fused solve, {at}");
                }
                let (tiles, reflectors) = plans[p].conclude(parts, None);
                let f = reflectors.unwrap().into_factorization(tiles);
                assert_eq!(f.factored_tiles(), reference.factored_tiles(), "{at}");
                // Replaying Qᴴ reads every T factor.
                let probe: Matrix<f64> = random_matrix(plans[p].m(), 2, 7_200);
                assert_eq!(f.apply_qh(&probe), reference.apply_qh(&probe), "{at}");
            }
        }
    }

    /// A same-plan group runs on the one prefix-sum id map and must still
    /// match the reference, copy by copy.
    #[test]
    fn same_plan_job_matches_the_reference_copy_by_copy() {
        let ctx = QrContext::new(2).unwrap();
        let plan = QrPlan::<f64>::new(24, 16, QrConfig::new(8)).unwrap();
        let mats: Vec<Matrix<f64>> = (0..3).map(|i| random_matrix(24, 16, 8_100 + i)).collect();
        let inputs = mats
            .iter()
            .map(|a| tiles_only(TiledMatrix::from_dense_padded(a, plan.nb)))
            .collect();
        let outcomes = ctx.run_collect(copies_of(&plan, inputs), None);
        for ((parts, err), a) in outcomes.into_iter().zip(&mats) {
            assert_eq!(err, None);
            assert_eq!(
                &parts.tiles,
                reference_factorization(&plan, a).factored_tiles()
            );
        }
    }

    /// `T`-pool retention counts a plan's copies over the **whole** job, not
    /// per run of adjacent entries: an interleaved group `[A, B, A]` checks
    /// out two copies' worth of plan `A`'s buffers, so that is what `A`'s
    /// pool must retain — and what the next round must find there.
    #[test]
    fn t_pool_retains_every_copy_of_an_interleaved_plan() {
        let ctx = QrContext::new(2).unwrap();
        let a = QrPlan::<f64>::new(16, 8, QrConfig::new(4)).unwrap();
        let b = QrPlan::<f64>::new(12, 12, QrConfig::new(4)).unwrap();
        let per_copy = 2 * a.p * a.q;
        let round = || {
            let entries = [&a, &b, &a]
                .into_iter()
                .enumerate()
                .map(|(probe, plan)| StreamEntry {
                    plan,
                    input: tiles_only(TiledMatrix::from_dense_padded(
                        &random_matrix(plan.m(), plan.n(), 9_000 + probe as u64),
                        plan.nb,
                    )),
                    probe,
                })
                .collect();
            ctx.run_collect(entries, None)
        };
        for _ in 0..2 {
            drop(round());
            assert_eq!(
                a.t_pool.len(),
                2 * per_copy,
                "both copies' buffers retained"
            );
        }
        // Third round: while its outcomes are alive, plan A's pool is empty —
        // both copies drew their `T` storage from it, none was allocated.
        let outcomes = round();
        assert!(outcomes.iter().all(|(_, err)| err.is_none()));
        assert_eq!(a.t_pool.len(), 0);
        drop(outcomes);
        assert_eq!(a.t_pool.len(), 2 * per_copy);
        assert_eq!(b.t_pool.len(), 2 * b.p * b.q);
    }
}
