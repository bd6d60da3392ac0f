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
//! * [`QrError`] ([`crate::error`]) — typed errors replacing the driver's
//!   panics: bad shapes, zero tile sizes and oversized thread counts are
//!   reported as values.
//! * [`QrReflectors`] — the result of the in-place path
//!   [`QrContext::factorize_into`], which factors caller-owned tile storage
//!   without the dense→tiled copy and hands back only the `T` factors.
//!
//! # One job, many callers
//!
//! Every call below runs the same engine (`QrContext::run` in `job.rs`):
//! the inputs become the *copies* of **one fused pool job** — each copy its
//! own schedule, contiguous task ids, no cross-copy edges — and each copy's
//! outcome is handed, exactly once, to the job's *sink*. The calls differ
//! only in what they put in and where the outcomes go:
//!
//! * [`QrContext::factorize`] / [`QrContext::factorize_into`] — one copy;
//!   [`QrContext::factorize_batch`] / [`QrContext::factorize_batch_into`] —
//!   `k` copies of one plan; [`QrContext::solve`] — one copy running the
//!   plan's solve schedule with the right-hand side as a trailing tile
//!   column. All of them (and their `_with_deadline` forms) use a
//!   *collecting* sink: outcomes are parked until the job returns, then
//!   wrapped into handles in input order.
//! * the service ([`crate::service`]) submits mixed-plan groups of dense
//!   inputs with a sink that resolves each ticket **the moment its copy's
//!   last task retires**, while sibling copies are still running.
//! * `threads == 1` drives the *same job* on the calling thread, ids in
//!   ascending order (the bitwise reference order) — there is no second
//!   engine.
//!
//! Why fuse: a service factoring many *small* matrices pays the pool wake-up
//! (epoch bump + unpark + park-tier wake latency) per job — for a 6 × 3-tile
//! problem that rivals the kernel time itself. With `k` copies in one job
//! the per-shape CSR successor lists and critical-path priorities are shared
//! instead of re-materialized, there is one wake-up instead of `k`, and the
//! work-stealing deques load-balance freely *across* matrices — the PLASMA
//! insight that one DAG-driven pool amortizes over problems, not just tiles.
//! Per-item errors are isolated ([`Result`] per matrix): an input that fails
//! validation never enters the job, a copy whose kernel panics fails alone,
//! and the other copies still run.
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
//! Every way of driving the job (the calling thread, and each scheduler on
//! the persistent pool) runs the same kernels in a DAG-respecting order, so
//! results are **bitwise identical** across all of them and to a plain
//! in-order walk of the tasks — the equivalence suites pin this down for
//! `f64` and `Complex64`.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::{KernelFamily, SuccessorsCsr, TaskDag};
use tileqr_kernels::{Trans, Workspace};
use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

use crate::driver::{elimination_list_for, replay_q, upper_triangle, QrConfig, QrFactorization};
pub use crate::error::QrError;
use crate::executor::SchedulerKind;
pub(crate) use crate::job::{ItemSink, StreamEntry, StreamInput};
use crate::pool::WorkerPool;
use crate::state::{gather_row_blocks, rhs_row_blocks, FactoredParts, FactorizationState};
use crate::sync::shim::AtomicUsize;
use crate::sync::{CancelToken, Mutex};
use crate::trace::ExecutionTrace;

/// Hard upper bound on the worker-thread count of a [`QrContext`]; requests
/// beyond it are configuration mistakes (the pool would oversubscribe any
/// real machine by orders of magnitude) and are rejected as
/// [`QrError::TooManyThreads`].
pub const MAX_THREADS: usize = 1024;

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

    pub(crate) fn priorities(&self) -> Arc<[u64]> {
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
    pub(crate) nb: usize,
    pub(crate) ib: usize,
    algorithm: Algorithm,
    family: KernelFamily,
    pub(crate) p: usize,
    pub(crate) q: usize,
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
    /// Largest number of buffers one job has checked out for a run of copies
    /// of this plan (`2 · p · q` per copy) — the retention bound, same
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

    /// Takes up to `need` buffers out of the pool (newest first) under a
    /// short lock.
    fn take(&self, need: usize) -> Vec<Matrix<T>> {
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
    pub(crate) fn checkout_workspaces(&self, count: usize) -> Vec<Workspace<T>> {
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
    pub(crate) fn restore_workspaces(&self, ws: impl IntoIterator<Item = Workspace<T>>) {
        let cap = self.ws_high_water.load(Ordering::Relaxed);
        let mut cache = self.ws_cache.lock();
        cache.extend(ws);
        cache.truncate(cap);
    }

    /// The schedule of the fused solve, built on first use.
    pub(crate) fn solve_core(&self) -> &Arc<PlanCore> {
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

    /// The input checks of every call that takes dense data: `a` has the
    /// plan's shape, a right-hand side `b` has `m` rows, and — when the plan
    /// checks finiteness — neither holds a NaN or infinity (`a` is scanned
    /// first).
    pub(crate) fn validate(&self, a: &Matrix<T>, b: Option<&Matrix<T>>) -> Result<(), QrError> {
        if a.shape() != (self.m, self.n) {
            return Err(QrError::ShapeMismatch {
                expected: (self.m, self.n),
                got: a.shape(),
            });
        }
        if let Some(b) = b.filter(|b| b.rows() != self.m) {
            return Err(QrError::RhsLength {
                expected: self.m,
                got: b.rows(),
            });
        }
        match [Some(a), b]
            .into_iter()
            .flatten()
            .find_map(|x| self.non_finite_in(x))
        {
            Some((row, col)) => Err(QrError::NonFiniteInput { row, col }),
            None => Ok(()),
        }
    }
}

impl<T: Scalar<Real = f64>> QrPlan<T> {
    /// Raises the `T` pool's retention bound to what a run of `copies`
    /// copies of this plan in one job checks out.
    pub(crate) fn reserve_t_buffers(&self, copies: usize) {
        let need = 2 * self.p * self.q * copies;
        self.t_pool.high_water.fetch_max(need, Ordering::Relaxed);
    }

    /// Builds the [`FactorizationState`] of one job copy over `tiles` (and,
    /// for a solve, the right-hand side's row blocks), drawing the `T`-factor
    /// buffers (2 · p · q of `ib × nb`) from the plan's recycle pool where
    /// available — the fresh-allocation fallback and the recycled path are
    /// bitwise identical because recycled buffers are zeroed in place before
    /// reuse.
    pub(crate) fn build_state(
        &self,
        tiles: TiledMatrix<T>,
        rhs: Vec<Matrix<T>>,
    ) -> FactorizationState<T> {
        // Take the recycled buffers out under a short lock; state
        // construction — tile-mutex wrapping, buffer zeroing and any
        // fresh-allocation fallback — runs lock-free, so concurrent
        // factorizations sharing one plan do not serialize here.
        let mut recycled: Vec<Matrix<T>> = self.t_pool.take(2 * self.p * self.q);
        let mut supply = |r: usize, c: usize| match recycled.pop() {
            Some(mut m) => {
                debug_assert_eq!(m.shape(), (r, c), "T pool holds only plan-shaped buffers");
                m.as_mut_slice().fill(T::ZERO);
                m
            }
            None => Matrix::zeros(r, c),
        };
        let state = FactorizationState::with_t_supplier(tiles, self.ib, &mut supply);
        if rhs.is_empty() {
            state
        } else {
            state.with_rhs(rhs)
        }
    }

    /// Turns the outcome of a copy that ran this plan's factor schedule into
    /// the caller-facing result: the handle — which shares the plan's DAG and
    /// recycles its `T` buffers into the plan's pool when dropped — or the
    /// copy's error, with its `T` buffers returned to the pool right away
    /// (the tiles of a failed copy hold partial garbage and are dropped).
    pub(crate) fn conclude(
        &self,
        parts: FactoredParts<T>,
        err: Option<QrError>,
    ) -> Result<QrFactorization<T>, QrError> {
        if let Some(e) = err {
            self.t_pool
                .recycle(parts.t_geqrt.into_iter().chain(parts.t_elim));
            return Err(e);
        }
        Ok(QrFactorization::from_parts(
            self.m,
            self.n,
            self.nb,
            self.ib,
            parts.tiles,
            parts.t_geqrt,
            parts.t_elim,
            Arc::clone(&self.core.dag),
            self.t_recycler(),
        ))
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
    pub(crate) threads: usize,
    pub(crate) scheduler: SchedulerKind,
    pub(crate) pool: Option<WorkerPool>,
    /// The sticky user cancellation token handed out by
    /// [`QrContext::cancel_handle`]. Internal causes (deadline, watchdog)
    /// never touch it — each job gets its own token they funnel into.
    pub(crate) cancel: CancelToken,
    /// Stall bound of the pool watchdog, if enabled.
    pub(crate) watchdog: Option<Duration>,
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
        only(self.batch_inner(plan, std::slice::from_ref(a), None, None))
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
        let deadline = Some(Instant::now() + timeout);
        only(self.batch_inner(plan, std::slice::from_ref(a), deadline, None))
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
        let mut tiles = parked.unwrap_or_else(|| TiledMatrix::zeros(plan.p, plan.q, plan.nb));
        tiles.fill_from_dense_padded(a);
        let rhs = rhs_row_blocks(b, plan.p, plan.nb);
        let input = StreamInput::Tiled { tiles, rhs };
        let (parts, err) = only(self.run_collect(copies_of(plan, vec![input]), None, None));
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
        let deadline = Some(Instant::now() + timeout);
        only(self.batch_into_inner(plan, std::slice::from_mut(tiles), deadline))
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
        self.batch_inner(plan, mats, None, None)
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
        self.batch_inner(plan, mats, Some(Instant::now() + timeout), None)
    }

    /// The copying calls: validates and tiles every matrix, runs the
    /// conforming ones as one job (traced into `trace`, if given) and wraps
    /// each success into its handle.
    pub(crate) fn batch_inner<T: Scalar<Real = f64>>(
        &self,
        plan: &QrPlan<T>,
        mats: &[Matrix<T>],
        deadline: Option<Instant>,
        trace: Option<&ExecutionTrace>,
    ) -> Vec<Result<QrFactorization<T>, QrError>> {
        let checks: Vec<Result<(), QrError>> =
            mats.iter().map(|a| plan.validate(a, None)).collect();
        let inputs = mats
            .iter()
            .zip(&checks)
            .filter(|(_, check)| check.is_ok())
            .map(|(a, _)| StreamInput::Tiled {
                tiles: TiledMatrix::from_dense_padded(a, plan.nb),
                rhs: Vec::new(),
            })
            .collect();
        let entries = copies_of(plan, inputs);
        let mut outcomes = self.run_collect(entries, deadline, trace).into_iter();
        checks
            .into_iter()
            .map(|check| {
                check.and_then(|()| {
                    let (parts, err) = outcomes.next().expect("one outcome per conforming matrix");
                    plan.conclude(parts, err)
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
        let mut checks: Vec<Result<(), QrError>> = Vec::with_capacity(tiles.len());
        let mut inputs = Vec::with_capacity(tiles.len());
        for t in tiles.iter_mut() {
            let got = (t.tile_rows(), t.tile_cols(), t.tile_size());
            if got != (plan.p, plan.q, plan.nb) {
                checks.push(Err(QrError::PlanMismatch {
                    expected: (plan.p, plan.q, plan.nb),
                    got,
                }));
            } else if let Some((row, col)) = plan
                .check_finite
                .then(|| find_non_finite_tiled(t))
                .flatten()
            {
                // Rejected before submission: the buffer is left untouched.
                checks.push(Err(QrError::NonFiniteInput { row, col }));
            } else {
                checks.push(Ok(()));
                let placeholder = TiledMatrix::from_tiles(Vec::new(), 0, 0, plan.nb);
                inputs.push(StreamInput::Tiled {
                    tiles: std::mem::replace(t, placeholder),
                    rhs: Vec::new(),
                });
            }
        }
        // If the job unwinds (a bug in the runtime itself — kernel panics
        // are caught per task), the caller's conforming slots must not be
        // left holding the 0 × 0 placeholders: the guard puts plan-shaped
        // zero grids back so a recover-and-retry caller can refill the same
        // buffers.
        let guard = RestorePlaceholders {
            taken: checks.iter().map(Result::is_ok).collect(),
            tiles,
            p: plan.p,
            q: plan.q,
            nb: plan.nb,
        };
        let entries = copies_of(plan, inputs);
        let mut outcomes = self.run_collect(entries, deadline, None).into_iter();
        let mut out = Vec::with_capacity(guard.tiles.len());
        for (check, t) in checks.into_iter().zip(guard.tiles.iter_mut()) {
            out.push(check.and_then(|()| {
                let (parts, err) = outcomes.next().expect("one outcome per conforming buffer");
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

    /// Runs `entries` as one job ([`QrContext::run`]) and returns their
    /// outcomes in order: the engine call of every blocking entry point.
    fn run_collect<T: Scalar<Real = f64>>(
        &self,
        entries: Vec<StreamEntry<'_, T>>,
        deadline: Option<Instant>,
        trace: Option<&ExecutionTrace>,
    ) -> Vec<JobOutcome<T>> {
        let sink = Arc::new(CollectSink(Mutex::new(
            entries.iter().map(|_| None).collect(),
        )));
        self.run(entries, deadline, trace, Arc::clone(&sink) as _);
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

/// `inputs` as consecutive copies of one plan, fault-probed by position.
fn copies_of<T: Scalar>(plan: &QrPlan<T>, inputs: Vec<StreamInput<T>>) -> Vec<StreamEntry<'_, T>> {
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
                .map(|a| StreamInput::Tiled {
                    tiles: TiledMatrix::from_dense_padded(a, 4),
                    rhs: Vec::new(),
                })
                .collect();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.run(copies_of(&plan, inputs), None, None, Arc::new(PoisonSink));
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
        plan.conclude(state.into_parts(), None).unwrap()
    }

    /// The one-engine contract end to end: the *same* entries — three plans
    /// (shapes, tile sizes, inner blockings, trees), one of them twice; one
    /// copy a fused solve with `k = 3`, dense copies (worker-side lazy
    /// tiling) next to pre-tiled ones — as one job under `threads ∈ {1, 4}`
    /// × every scheduler. Every outcome must be bitwise equal to the plain
    /// in-order kernel walk of its own plan, and the solve to the decomposed
    /// route.
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
            for kind in SchedulerKind::ALL {
                let ctx = QrContext::with_scheduler(threads, kind).unwrap();
                let entries = table
                    .iter()
                    .zip(&mats)
                    .enumerate()
                    .map(|(probe, (&(p, input), a))| {
                        let plan = &plans[p];
                        let tiles = TiledMatrix::from_dense_padded(a, plan.nb);
                        let input = match input {
                            Input::Dense => StreamInput::Dense(Arc::new(a.clone())),
                            Input::Tiled => StreamInput::Tiled {
                                tiles,
                                rhs: Vec::new(),
                            },
                            Input::Solve => StreamInput::Tiled {
                                tiles,
                                rhs: rhs_row_blocks(&b, plan.p, plan.nb),
                            },
                        };
                        StreamEntry { plan, input, probe }
                    })
                    .collect();
                let outcomes = ctx.run_collect(entries, None, None);
                for (i, ((parts, err), reference)) in
                    outcomes.into_iter().zip(&references).enumerate()
                {
                    let (p, input) = table[i];
                    let at = format!("entry {i}, {threads} threads, {}", kind.name());
                    assert_eq!(err, None, "{at}");
                    if input == Input::Solve {
                        let x = back_substitute(
                            &upper_triangle(&parts.tiles, plans[p].n),
                            &gather_row_blocks(&parts.rhs, plans[p].n),
                        );
                        let decomposed = back_substitute(&reference.r(), &reference.apply_qh(&b));
                        assert_eq!(x, decomposed, "fused solve, {at}");
                    }
                    let f = plans[p].conclude(parts, None).unwrap();
                    assert_eq!(f.factored_tiles(), reference.factored_tiles(), "{at}");
                    // Replaying Qᴴ reads every T factor.
                    let probe: Matrix<f64> = random_matrix(plans[p].m(), 2, 7_200);
                    assert_eq!(f.apply_qh(&probe), reference.apply_qh(&probe), "{at}");
                }
            }
        }
    }

    /// A same-plan group must reduce to the uniform id mapping and still
    /// match the reference, copy by copy.
    #[test]
    fn same_plan_job_matches_the_reference_copy_by_copy() {
        let ctx = QrContext::new(2).unwrap();
        let plan = QrPlan::<f64>::new(24, 16, QrConfig::new(8)).unwrap();
        let mats: Vec<Matrix<f64>> = (0..3).map(|i| random_matrix(24, 16, 8_100 + i)).collect();
        let inputs = mats
            .iter()
            .map(|a| StreamInput::Tiled {
                tiles: TiledMatrix::from_dense_padded(a, plan.nb),
                rhs: Vec::new(),
            })
            .collect();
        let outcomes = ctx.run_collect(copies_of(&plan, inputs), None, None);
        for ((parts, err), a) in outcomes.into_iter().zip(&mats) {
            assert_eq!(err, None);
            assert_eq!(
                &parts.tiles,
                reference_factorization(&plan, a).factored_tiles()
            );
        }
    }
}
