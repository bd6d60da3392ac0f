//! The reusable schedule of one problem shape: [`QrPlan`].
//!
//! A plan owns everything about a factorization that does not depend on the
//! matrix *values* — the elimination list and task DAG (`PlanCore`, shared
//! with every job and result handle), the lazily built solve schedule over
//! `[A | B]` — and the three caches that make a stream of same-shape
//! requests allocate nothing that scales with the problem: the per-worker
//! kernel [`Workspace`]s, the parked tile buffer of the fused solve, and the
//! pool of recycled `T`-factor buffers (`TPool`) that
//! [`TFactors`] values are checked out of and drop back into.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::{KernelFamily, SuccessorsCsr, TaskDag};
use tileqr_core::footprint::{footprint, plan_dag};
use tileqr_core::sim::resolve_plan;
use tileqr_kernels::Workspace;
use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

use crate::driver::QrConfig;
use crate::error::QrError;
use crate::reflectors::{QrReflectors, TFactors};
use crate::state::{FactoredParts, FactorizationState};
use crate::sync::shim::AtomicUsize;
use crate::sync::Mutex;

/// The scalar-independent part of a plan: the schedule itself.
///
/// Shared (`Arc`) between the plan, in-flight pool jobs and every
/// [`QrReflectors`] produced from it, so the DAG is built once per shape and
/// never copied.
pub(crate) struct PlanCore {
    pub(crate) dag: Arc<TaskDag>,
    pub(crate) succ: SuccessorsCsr,
    /// Initially-ready task indices, in topological order.
    pub(crate) roots: Vec<usize>,
    /// Largest successor batch a single task completion can enable.
    pub(crate) max_out_degree: usize,
    /// First-touch table of a dense input: bit `i` of task `t`'s entry is
    /// set when access `i` of its [`footprint`] names a tile of the
    /// `p × q` matrix that no earlier task names. That task fills the tile
    /// before its kernel runs; every other task naming the tile descends
    /// from it in the DAG (`tileqr-analyze` proves this for every plan), so
    /// none sees the tile unfilled.
    pub(crate) fills: Vec<u8>,
}

impl PlanCore {
    /// Builds the schedule of `algorithm` on a `p × q` grid followed by
    /// `trailing` update-only columns ([`TaskDag::trailing`]): the DAG of
    /// [`plan_dag`], the one the race analyzer checks.
    fn build(
        algorithm: Algorithm,
        family: KernelFamily,
        p: usize,
        q: usize,
        trailing: usize,
    ) -> Self {
        let dag = plan_dag(algorithm, p, q, family, trailing);
        let succ = dag.successors_csr();
        let roots = crate::executor::initial_roots(&dag);
        let max_out_degree = succ.max_out_degree();
        let mut named = vec![false; p * q];
        let fills = dag
            .tasks
            .iter()
            .map(|task| {
                let accesses = footprint(task.kind);
                let first = accesses.iter().enumerate().filter(|(_, access)| {
                    let (row, col) = access.resource.tile();
                    col < q && !std::mem::replace(&mut named[col * p + row], true)
                });
                first.fold(0u8, |mask, (i, _)| mask | 1 << i)
            })
            .collect();
        PlanCore {
            dag: Arc::new(dag),
            succ,
            roots,
            max_out_degree,
            fills,
        }
    }
}

/// A reusable factorization schedule for one problem shape.
///
/// A plan fixes `(m, n, nb, ib, algorithm, family)` and precomputes
/// everything about the factorization that does not depend on the matrix
/// *values*: the elimination list, the task DAG (with CSR successor lists
/// and root set), and a cache of per-worker kernel workspaces sized for
/// `(nb, ib)`. Repeated factorizations of the same shape through
/// [`QrContext::factorize`](crate::context::QrContext::factorize) then pay
/// only kernel time (plus the unavoidable per-call tile storage).
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
    /// The schedule of [`QrContext::solve`](crate::context::QrContext::solve):
    /// the same elimination list over `[A | B]`, the right-hand side being
    /// one trailing tile column. It does not depend on the width of `B`, so
    /// there is one per plan, built by the first solve.
    solve_core: OnceLock<Arc<PlanCore>>,
    /// The tile buffer a solve's tasks fill and factor in place, parked
    /// here between solves (at most one is retained), so a stream of solves
    /// allocates nothing of `m · n` scale.
    pub(crate) solve_tiles: Mutex<Option<TiledMatrix<T>>>,
    /// Checkout cache of kernel workspaces: taken at job start, returned at
    /// job end, grown on demand up to the largest worker count seen.
    ws_cache: Mutex<Vec<Workspace<T>>>,
    /// Largest single checkout so far — the retention bound of `ws_cache`.
    /// Without it, concurrent `factorize` bursts (each building `threads`
    /// fresh workspaces against a momentarily-empty cache) would ratchet the
    /// cache up without limit; with it, surplus returns are dropped.
    ws_high_water: AtomicUsize,
    /// Recycled `ib × nb` `T`-factor buffers: every [`TFactors`] this plan
    /// checks out drops back into it. Shared (`Arc`) so the values can
    /// outlive the plan without keeping its DAG alive just for the return.
    pub(crate) t_pool: Arc<TPool<T>>,
}

/// A plan's shared pool of recycled `ib × nb` `T`-factor buffers.
///
/// Behind an `Arc` so every [`TFactors`] checked out of it can hold a `Weak`
/// way home: whoever drops the value — a caller done with a result handle, a
/// job concluding a failed copy — returns the buffers, and a value dropped
/// after its plan costs nothing (the upgrade fails). The pool retains at most
/// the widest checkout one job ever made, so recycling can never ratchet
/// memory up.
pub(crate) struct TPool<T: Scalar> {
    ib: usize,
    nb: usize,
    bufs: Mutex<Vec<Matrix<T>>>,
    /// Largest number of buffers one job has checked out for its copies of
    /// this plan (`2 · p · q` per copy) — the retention bound, same rationale
    /// as `ws_high_water`.
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

    /// Returns buffers to the pool, keeping only plan-shaped ones (a drained
    /// slot's placeholder is not) and at most the high-water count. Called by
    /// [`TFactors`]' `Drop` and by nothing else.
    pub(crate) fn recycle(&self, bufs: impl Iterator<Item = Matrix<T>>) {
        let cap = self.high_water.load(Ordering::Relaxed);
        let mut pool = self.bufs.lock();
        for b in bufs {
            if pool.len() >= cap {
                break;
            }
            if b.shape() == (self.ib, self.nb) {
                pool.push(b);
            }
        }
    }

    /// One copy's `T` factors for a `p × q` grid: recycled buffers where
    /// available — zeroed in place, so the result is bitwise identical to the
    /// fresh-allocation fallback that covers the shortfall.
    fn checkout(self: &Arc<Self>, p: usize, q: usize) -> TFactors<T> {
        // Take the recycled buffers out under a short lock; zeroing and any
        // allocation run lock-free, so concurrent factorizations sharing one
        // plan do not serialize here.
        let mut recycled = {
            let mut pool = self.bufs.lock();
            let keep = pool.len().saturating_sub(2 * p * q);
            pool.split_off(keep)
        };
        TFactors::new((p, q), self.ib, Arc::downgrade(self), || {
            match recycled.pop() {
                Some(mut m) => {
                    m.as_mut_slice().fill(T::ZERO);
                    m
                }
                None => Matrix::zeros(self.ib, self.nb),
            }
        })
    }

    /// Buffers currently pooled.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
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
    /// `family` — the `threads` field belongs to the
    /// [`QrContext`](crate::context::QrContext) and is ignored here).
    ///
    /// An [`Algorithm::Auto`] config is resolved here, once
    /// ([`resolve_plan`]): the plan takes the tree and family
    /// [`choose_plan`] picks for its grid at the host's available
    /// parallelism, and records them ([`QrPlan::algorithm`],
    /// [`QrPlan::family`]). Every call that runs the plan runs that pair, so
    /// results are bitwise equal across paths; they are reproducible on one
    /// host, and on every host only when the config names tree and family.
    ///
    /// [`choose_plan`]: tileqr_core::sim::choose_plan
    pub fn new(m: usize, n: usize, config: QrConfig) -> Result<Self, QrError> {
        if config.tile_size == 0 {
            return Err(QrError::ZeroTileSize);
        }
        if let Algorithm::PlasmaTree { bs: 0 } | Algorithm::HadriTree { bs: 0 } = config.algorithm {
            return Err(QrError::ZeroDomainSize);
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
        let (algorithm, family) = resolve_plan(config.algorithm, config.family, p, q);
        Ok(QrPlan {
            m,
            n,
            nb,
            ib,
            algorithm,
            family,
            p,
            q,
            check_finite: config.check_finite,
            core: Arc::new(PlanCore::build(algorithm, family, p, q, 0)),
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

    /// Reduction tree the schedule was generated from: the config's, or for
    /// an [`Algorithm::Auto`] config the tree it resolved to — never `Auto`.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Kernel family (TT or TS) of the schedule: the config's, or for an
    /// [`Algorithm::Auto`] config the family it resolved to.
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

    /// The opt-in pre-submission finiteness scan, for callers that hold the
    /// dense input themselves (the service layer applies it at dispatch
    /// time): the first non-finite entry when the plan was built with
    /// [`QrConfig::check_finite`], `None` otherwise.
    pub(crate) fn non_finite_in(&self, a: &Matrix<T>) -> Option<(usize, usize)> {
        self.first_non_finite((0..a.cols()).map(|col| ((0, col), a.col(col))))
    }

    /// The first non-finite entry, in column-major order, of an index space
    /// given as its column slices — `((row, col), slice)` runs down column
    /// `col` from `row` — in that order, if the plan checks finiteness at
    /// all.
    fn first_non_finite<'a>(
        &self,
        mut slices: impl Iterator<Item = ((usize, usize), &'a [T])>,
    ) -> Option<(usize, usize)> {
        if !self.check_finite {
            return None;
        }
        slices.find_map(|((row, col), s)| Some((row + s.iter().position(|x| !x.is_finite())?, col)))
    }

    /// The `O(1)` half of [`QrPlan::validate`]: `a` has the plan's shape.
    /// The service checks this at submit and finiteness at dispatch.
    pub(crate) fn check_shape(&self, a: &Matrix<T>) -> Result<(), QrError> {
        if a.shape() != (self.m, self.n) {
            return Err(QrError::ShapeMismatch {
                expected: (self.m, self.n),
                got: a.shape(),
            });
        }
        Ok(())
    }

    /// The input checks of every call that takes dense data: `a` has the
    /// plan's shape, a right-hand side `b` has `m` rows, and — when the plan
    /// checks finiteness — neither holds a NaN or infinity (`a` is scanned
    /// first).
    pub(crate) fn validate(&self, a: &Matrix<T>, b: Option<&Matrix<T>>) -> Result<(), QrError> {
        self.check_shape(a)?;
        if let Some(b) = b.filter(|b| b.rows() != self.m) {
            return Err(QrError::RhsLength {
                expected: self.m,
                got: b.rows(),
            });
        }
        let mut scanned = [Some(a), b].into_iter().flatten();
        all_finite(scanned.find_map(|x| self.non_finite_in(x)))
    }

    /// [`QrPlan::validate`] for caller-owned tile storage: the grid is the
    /// plan's, and — when the plan checks finiteness — the whole padded grid
    /// is finite (global coordinates), since a non-finite value anywhere in
    /// the buffer, padding included, would poison the factorization.
    pub(crate) fn validate_tiles(&self, t: &TiledMatrix<T>) -> Result<(), QrError> {
        let got = (t.tile_rows(), t.tile_cols(), t.tile_size());
        if got != (self.p, self.q, self.nb) {
            return Err(QrError::PlanMismatch {
                expected: (self.p, self.q, self.nb),
                got,
            });
        }
        let nb = self.nb;
        let columns = (0..self.q * nb).flat_map(|col| {
            (0..self.p).map(move |ti| ((ti * nb, col), t.tile(ti, col / nb).col(col % nb)))
        });
        all_finite(self.first_non_finite(columns))
    }
}

impl<T: Scalar<Real = f64>> QrPlan<T> {
    /// Raises the `T` pool's retention bound to what `copies` copies of this
    /// plan in one job check out.
    pub(crate) fn reserve_t_buffers(&self, copies: usize) {
        let need = 2 * self.p * self.q * copies;
        self.t_pool.high_water.fetch_max(need, Ordering::Relaxed);
    }

    /// Builds the [`FactorizationState`] of one job copy over `tiles` (and,
    /// for a solve, the right-hand side's row blocks), with its `T` factors
    /// checked out of the plan's pool.
    pub(crate) fn build_state(
        &self,
        tiles: TiledMatrix<T>,
        rhs: Vec<Matrix<T>>,
    ) -> FactorizationState<T> {
        let state = FactorizationState::over(tiles, self.t_pool.checkout(self.p, self.q));
        if rhs.is_empty() {
            state
        } else {
            state.with_rhs(rhs)
        }
    }

    /// Turns the outcome of a copy that ran this plan's factor schedule into
    /// what the caller gets: the tiles — factored, partially overwritten or
    /// untouched, but theirs in every outcome — and the reflectors handle or
    /// the copy's error. A failed copy's `T` buffers go back to the pool by
    /// being dropped here.
    pub(crate) fn conclude(
        &self,
        parts: FactoredParts<T>,
        err: Option<QrError>,
    ) -> (TiledMatrix<T>, Result<QrReflectors<T>, QrError>) {
        let dag = Arc::clone(&self.core.dag);
        let reflectors = match err {
            Some(e) => Err(e),
            None => Ok(QrReflectors::new(self.m, self.n, self.nb, dag, parts.t)),
        };
        (parts.tiles, reflectors)
    }
}

/// The verdict of a finiteness scan that found `non_finite` (or nothing).
fn all_finite(non_finite: Option<(usize, usize)>) -> Result<(), QrError> {
    match non_finite {
        Some((row, col)) => Err(QrError::NonFiniteInput { row, col }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::QrContext;
    use tileqr_core::sim::choose_plan;
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
    fn the_default_config_resolves_to_a_named_plan_and_a_named_family_pins_greedy() {
        // The benchmark's shapes, a ragged one and an empty one: the plan
        // records the pair the chooser picks for its grid on this host.
        let procs = std::thread::available_parallelism().map_or(1, usize::from);
        for (m, n, nb) in [
            (4096usize, 512usize, 128usize),
            (1280, 1280, 128),
            (8192, 256, 128),
            (512, 128, 64),
            (384, 192, 64),
            (256, 256, 64),
            (11, 7, 4),
            (0, 0, 3),
        ] {
            let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
            assert_ne!(plan.algorithm(), Algorithm::Auto, "{m}x{n}");
            assert_eq!(
                (plan.algorithm(), plan.family()),
                choose_plan(plan.p, plan.q, procs),
                "{m}x{n}"
            );
        }
        // Naming a family names the tree the default named before `Auto`;
        // naming a tree keeps the default family.
        for family in [KernelFamily::TT, KernelFamily::TS] {
            let plan: QrPlan<f64> =
                QrPlan::new(40, 16, QrConfig::new(4).with_family(family)).unwrap();
            assert_eq!(
                (plan.algorithm(), plan.family()),
                (Algorithm::Greedy, family)
            );
        }
        let flat = QrConfig::new(4).with_algorithm(Algorithm::FlatTree);
        let plan: QrPlan<f64> = QrPlan::new(40, 16, flat).unwrap();
        assert_eq!(
            (plan.algorithm(), plan.family()),
            (Algorithm::FlatTree, KernelFamily::TT)
        );
    }

    #[test]
    fn finiteness_scan_reports_the_first_entry_in_column_major_order() {
        // A ragged grid: the scan crosses tile boundaries and has padding.
        let (m, n, nb) = (11usize, 7usize, 4usize);
        let config = QrConfig::new(nb).with_check_finite(true);
        let plan: QrPlan<f64> = QrPlan::new(m, n, config).unwrap();
        let ctx = QrContext::new(1).unwrap();
        let first = |row, col| Some(QrError::NonFiniteInput { row, col });
        let b: Matrix<f64> = random_matrix(m, 2, 601);
        let mut a: Matrix<f64> = random_matrix(m, n, 600);
        // The first in column-major order is (6, 2), in tile (1, 0); the
        // others lie lower in its column, higher in a later column of the
        // same tile column, or in later tile rows and columns.
        a.set(9, 6, f64::NAN);
        a.set(0, 5, f64::NEG_INFINITY);
        a.set(10, 2, f64::NAN);
        a.set(6, 2, f64::INFINITY);
        a.set(1, 3, f64::NAN);
        // `factorize` scans the tiles, `solve` the dense input.
        assert_eq!(ctx.factorize(&plan, &a).err(), first(6, 2));
        assert_eq!(ctx.solve(&plan, &a, &b).err(), first(6, 2));
        // A clean `a` with a poisoned right-hand side reports `b`'s entry.
        let (clean, mut b) = (random_matrix(m, n, 602), b);
        b.set(8, 1, f64::NAN);
        b.set(3, 1, f64::NAN);
        assert_eq!(ctx.solve(&plan, &clean, &b).err(), first(3, 1));
        // In a caller's buffer the padding counts, at padded coordinates:
        // row m and column n lie past the matrix, inside the grid.
        let mut tiles = TiledMatrix::from_dense_padded(&clean, nb);
        tiles.set(2, n, f64::NAN);
        tiles.set(m, 1, f64::NAN);
        assert_eq!(ctx.factorize_into(&plan, &mut tiles).err(), first(m, 1));
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
    fn t_factor_recycling_is_bitwise_invisible_and_bounded() {
        let (m, n, nb) = (16usize, 8usize, 4usize);
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
        let a: Matrix<f64> = random_matrix(m, n, 500);
        // The reference runs on freshly allocated T storage (cold pool).
        let reference = ctx.factorize(&plan, &a).unwrap();
        let r_ref = reference.r();
        let b: Matrix<f64> = random_matrix(m, 2, 501);
        let qhb_ref = reference.apply_qh(&b);
        // Drop and refactor several times: results must not change by a bit,
        // and the pool must stay bounded by the widest checkout (2 · p · q
        // buffers for the single-matrix calls here) — also while a second
        // handle is alive, whose buffers the pool has no room for.
        drop(reference);
        let per_call = 2 * plan.tile_rows() * plan.tile_cols();
        for _ in 0..3 {
            assert_eq!(plan.t_pool.len(), per_call);
            let f = ctx.factorize(&plan, &a).unwrap();
            let surplus = ctx.factorize(&plan, &a).unwrap();
            assert_eq!(f.r(), r_ref, "recycled T buffers changed the result");
            assert_eq!(f.apply_qh(&b), qhb_ref, "recycled T buffers broke Q replay");
            drop(f);
            drop(surplus);
        }
        assert_eq!(plan.t_pool.len(), per_call, "the surplus was not retained");
    }
}
