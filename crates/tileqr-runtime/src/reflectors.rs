//! A copy's block reflectors: its `T` factors as one value ([`TFactors`]) and
//! the handle that replays them over caller-owned tiles ([`QrReflectors`]).
//!
//! Every factor kernel (`GEQRT`, `TSQRT`, `TTQRT`) leaves one `T` factor per
//! tile and every update kernel reads one back. [`TFactors`] is that
//! auxiliary tile array for **one** copy, and this module is the only place
//! that knows its format: one pair per tile at `col · p + row`, each half
//! an `ib × nb` matrix. The value is checked out of its plan's pool, moves
//! into the copy's [`FactorizationState`](crate::state::FactorizationState),
//! comes back out in [`FactoredParts`](crate::state::FactoredParts) and ends
//! up inside a result handle — and wherever it is dropped along that way
//! (a handle going out of scope, a failed or rejected copy, a consumed
//! solve, a panic unwinding through a sink) its buffers go back to the pool
//! they came from. [`TFactors`]' `Drop` is the crate's single recycle site.

use std::sync::{Arc, Weak};

use tileqr_core::dag::TaskDag;
use tileqr_core::TaskKind;
use tileqr_kernels::{tsmqr_ws, ttmqr_ws, unmqr_ws, Trans, Workspace};
use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

use crate::driver::QrFactorization;
use crate::plan::TPool;
use crate::state::{gather_row_blocks, rhs_row_blocks};

/// The two `T` factors tile `(row, col)` can own, both `ib × nb` and zero
/// until their kernel has run.
#[derive(PartialEq)]
pub(crate) struct TPair<T: Scalar> {
    /// `T` factor of `GEQRT(row, col)`.
    pub(crate) geqrt: Matrix<T>,
    /// `T` factor of the `TSQRT`/`TTQRT` that eliminated the tile.
    pub(crate) elim: Matrix<T>,
}

impl<T: Scalar> TPair<T> {
    /// What a drained slot is left holding.
    pub(crate) fn empty() -> Self {
        TPair {
            geqrt: Matrix::zeros(0, 0),
            elim: Matrix::zeros(0, 0),
        }
    }
}

/// The `T` factors of one factored copy (see the [module docs](self)).
///
/// Dropping the value returns its buffers to the pool of the plan that
/// checked it out; if that plan is gone (always, for the one-shot drivers)
/// or the value was built fresh, they are simply freed.
pub struct TFactors<T: Scalar> {
    p: usize,
    ib: usize,
    slots: Vec<TPair<T>>,
    home: Weak<TPool<T>>,
}

impl<T: Scalar> TFactors<T> {
    /// The factors of a `p × q` grid, every buffer drawn from `buffer` — which
    /// must hand out all-zero `ib × nb` matrices — and returned to `home` on
    /// drop.
    pub(crate) fn new(
        (p, q): (usize, usize),
        ib: usize,
        home: Weak<TPool<T>>,
        mut buffer: impl FnMut() -> Matrix<T>,
    ) -> Self {
        let mut pair = || TPair {
            geqrt: buffer(),
            elim: buffer(),
        };
        TFactors {
            p,
            ib,
            slots: (0..p * q).map(|_| pair()).collect(),
            home,
        }
    }

    /// Freshly allocated factors that belong to no pool.
    pub(crate) fn fresh(grid: (usize, usize), ib: usize, nb: usize) -> Self {
        TFactors::new(grid, ib, Weak::new(), || Matrix::zeros(ib, nb))
    }

    /// The factors of a copy that never ran: none.
    pub(crate) fn none() -> Self {
        TFactors::from_slots(0, 0, Vec::new(), Weak::new())
    }

    /// Position of tile `(row, col)`'s pair among the slots of a grid with
    /// `p` tile rows.
    #[inline]
    pub(crate) fn slot(p: usize, row: usize, col: usize) -> usize {
        debug_assert!(row < p);
        col * p + row
    }

    /// Takes the value apart — the slots in [`TFactors::slot`] order and the
    /// pool they belong to — for a holder that keeps each pair under its
    /// tile's lock; [`TFactors::from_slots`] puts it back together.
    pub(crate) fn into_slots(mut self) -> (Vec<TPair<T>>, Weak<TPool<T>>) {
        // The value has a `Drop`, so the fields are taken, not moved; what is
        // left behind recycles nothing.
        (
            std::mem::take(&mut self.slots),
            std::mem::take(&mut self.home),
        )
    }

    /// Inverse of [`TFactors::into_slots`].
    pub(crate) fn from_slots(
        p: usize,
        ib: usize,
        slots: Vec<TPair<T>>,
        home: Weak<TPool<T>>,
    ) -> Self {
        TFactors { p, ib, slots, home }
    }

    /// Inner blocking factor the factors are stored with.
    pub fn inner_block(&self) -> usize {
        self.ib
    }

    /// `T` factor of `GEQRT(row, col)`.
    pub fn geqrt(&self, row: usize, col: usize) -> &Matrix<T> {
        &self.slots[Self::slot(self.p, row, col)].geqrt
    }

    /// `T` factor of the elimination of tile `(row, col)`.
    pub fn elim(&self, row: usize, col: usize) -> &Matrix<T> {
        &self.slots[Self::slot(self.p, row, col)].elim
    }
}

impl<T: Scalar> PartialEq for TFactors<T> {
    /// Equal factors; where the buffers return to is not part of the value.
    fn eq(&self, other: &Self) -> bool {
        (self.p, self.ib) == (other.p, other.ib) && self.slots == other.slots
    }
}

impl<T: Scalar> Drop for TFactors<T> {
    fn drop(&mut self) {
        if let Some(pool) = self.home.upgrade() {
            pool.recycle(self.slots.drain(..).flat_map(|s| [s.geqrt, s.elim]));
        }
    }
}

/// The upper-triangular factor `R` (`n × n`) of a factored tile grid. Reads
/// only the tiles on and above the diagonal of the top `⌈n/nb⌉` tile rows —
/// the rest of the grid holds Householder vectors — so the cost does not
/// grow with the row count.
pub(crate) fn upper_triangle<T: Scalar>(tiles: &TiledMatrix<T>, n: usize) -> Matrix<T> {
    let nb = tiles.tile_size();
    let mut r = Matrix::zeros(n, n);
    for tj in 0..n.div_ceil(nb) {
        let cols = nb.min(n - tj * nb);
        for ti in 0..=tj {
            let rows = nb.min(n - ti * nb);
            r.copy_block(ti * nb, tj * nb, tiles.tile(ti, tj), 0, 0, rows, cols);
        }
    }
    // The diagonal tiles keep reflectors below their diagonal.
    r.zero_below_diagonal();
    r
}

/// The reflectors of a factorization whose factored tiles live elsewhere:
/// what [`QrContext::factorize_into`](crate::context::QrContext::factorize_into)
/// returns, and the part of a [`QrFactorization`] that is not the tiles.
///
/// Combined with the factored tiles, the handle replays the block reflectors
/// (`Q`/`Qᴴ` application, `R` extraction) or upgrades into a self-contained
/// [`QrFactorization`] by taking ownership of them.
///
/// Dropping the handle is the recycle path: its `T` buffers return to the
/// owning plan's pool ([`TFactors`]), so a loop that factors and drops keeps
/// its steady state free of `T` allocations.
pub struct QrReflectors<T: Scalar> {
    m: usize,
    n: usize,
    nb: usize,
    /// Shared with the plan that produced the factorization (the DAG is
    /// read-only after construction and can be large).
    dag: Arc<TaskDag>,
    t: TFactors<T>,
}

impl<T: Scalar> std::fmt::Debug for QrReflectors<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QrReflectors")
            .field("m", &self.m)
            .field("n", &self.n)
            .field("tile_size", &self.nb)
            .field("inner_block", &self.t.ib)
            .field("grid", &(self.dag.p, self.dag.q))
            .field("tasks", &self.dag.len())
            .finish_non_exhaustive()
    }
}

impl<T: Scalar<Real = f64>> QrReflectors<T> {
    /// The reflectors of an `m × n` matrix factored along `dag` with tiles of
    /// order `nb`.
    pub(crate) fn new(m: usize, n: usize, nb: usize, dag: Arc<TaskDag>, t: TFactors<T>) -> Self {
        QrReflectors { m, n, nb, dag, t }
    }

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
        self.t.ib
    }

    /// Panics unless `tiles` has the grid this factorization was computed
    /// on — the `tiles` handed back by
    /// [`QrContext::factorize_into`](crate::context::QrContext::factorize_into).
    fn check_tiles(&self, tiles: &TiledMatrix<T>) {
        let (p, q) = (self.dag.p, self.dag.q);
        assert!(
            (tiles.tile_rows(), tiles.tile_cols(), tiles.tile_size()) == (p, q, self.nb),
            "tile grid does not match the factorization ({p}×{q} of nb={})",
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
        self.apply(tiles, b, Trans::ConjTrans)
    }

    /// Applies `Q` to a dense matrix with `m` rows.
    pub fn apply_q(&self, tiles: &TiledMatrix<T>, b: &Matrix<T>) -> Matrix<T> {
        self.apply(tiles, b, Trans::NoTrans)
    }

    /// Replays the factor tasks over a dense matrix `b` with `m` rows,
    /// applying `Q` (reverse task order) or `Qᴴ` (forward order) built from
    /// the Householder tiles and the `ib`-blocked `T` factors. `b` is held as
    /// `p` row blocks of `nb × k` — the same blocks, updated by the same
    /// kernels in the same per-block order, as the trailing column of the
    /// fused solve ([`QrContext::solve`](crate::context::QrContext::solve)),
    /// so the two agree bitwise.
    fn apply(&self, tiles: &TiledMatrix<T>, b: &Matrix<T>, trans: Trans) -> Matrix<T> {
        self.check_tiles(tiles);
        assert_eq!(b.rows(), self.m, "row count must match the factored matrix");
        let mut blocks = rhs_row_blocks(b, self.dag.p, self.nb);

        // One workspace serves the whole replay; the blocks are updated in
        // place. The panel width must match the ib-blocked T factors produced
        // at factor time.
        let mut ws = Workspace::with_inner_block(self.nb, self.t.ib);
        let mut apply_one = |kind: TaskKind| match kind {
            TaskKind::Geqrt { row, col } => unmqr_ws(
                tiles.tile(row, col),
                self.t.geqrt(row, col),
                &mut blocks[row],
                trans,
                &mut ws,
            ),
            TaskKind::Tsqrt { row, piv, col } | TaskKind::Ttqrt { row, piv, col } => {
                let [c1, c2] = blocks
                    .get_disjoint_mut([piv, row])
                    .expect("an elimination couples two distinct tile rows");
                let (v2, t) = (tiles.tile(row, col), self.t.elim(row, col));
                if matches!(kind, TaskKind::Tsqrt { .. }) {
                    tsmqr_ws(v2, t, c1, c2, trans, &mut ws);
                } else {
                    ttmqr_ws(v2, t, c1, c2, trans, &mut ws);
                }
            }
            // Update tasks carry no reflectors of their own.
            TaskKind::Unmqr { .. } | TaskKind::Tsmqr { .. } | TaskKind::Ttmqr { .. } => {}
        };

        // The tasks are stored in topological order: forward applies Qᴴ,
        // backward applies Q.
        match trans {
            Trans::ConjTrans => self.dag.tasks.iter().for_each(|t| apply_one(t.kind)),
            Trans::NoTrans => self.dag.tasks.iter().rev().for_each(|t| apply_one(t.kind)),
        }

        gather_row_blocks(&blocks, self.m)
    }

    /// Upgrades into a self-contained [`QrFactorization`] by taking
    /// ownership of the factored tiles.
    pub fn into_factorization(self, tiles: TiledMatrix<T>) -> QrFactorization<T> {
        self.check_tiles(&tiles);
        QrFactorization {
            m: self.m,
            n: self.n,
            tiles,
            reflectors: self,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{QrContext, QrError, QrPlan};
    use crate::driver::QrConfig;
    use std::time::Duration;
    use tileqr_matrix::generate::{random_matrix, RandomScalar};
    use tileqr_matrix::Complex64;

    /// The lifecycle, pinned once: every way a copy can end — a handle of
    /// either kind dropped, a solve consumed, a contained fault, a rejection
    /// before the run — leaves the plan's pool back at its high-water count,
    /// and the call after it draws its whole `T` storage from the pool
    /// (allocating none) with a bitwise unchanged result.
    #[test]
    fn every_way_a_copy_ends_returns_its_t_buffers_to_the_pool() {
        type End = fn(&QrContext, &QrPlan<f64>, &Matrix<f64>);
        let ends: Vec<(&str, End)> = vec![
            ("factorize, handle dropped", |ctx, plan, a| {
                drop(ctx.factorize(plan, a).unwrap());
            }),
            ("factorize_into, reflectors dropped", |ctx, plan, a| {
                let mut tiles = TiledMatrix::from_dense_padded(a, plan.nb);
                drop(ctx.factorize_into(plan, &mut tiles).unwrap());
            }),
            ("into_factorization, then dropped", |ctx, plan, a| {
                let mut tiles = TiledMatrix::from_dense_padded(a, plan.nb);
                let reflectors = ctx.factorize_into(plan, &mut tiles).unwrap();
                assert_eq!(plan.t_pool.len(), 0, "the live handle holds the buffers");
                let f = reflectors.into_factorization(tiles);
                assert_eq!(plan.t_pool.len(), 0, "the buffers moved with the handle");
                drop(f);
            }),
            ("solve", |ctx, plan, a| {
                ctx.solve(plan, a, &random_matrix(a.rows(), 2, 522))
                    .unwrap();
            }),
            ("sticky cancel, rejected before the run", |ctx, plan, a| {
                ctx.cancel_handle().cancel();
                assert_eq!(ctx.factorize(plan, a).err(), Some(QrError::Cancelled));
                ctx.cancel_handle().reset();
            }),
            ("expired deadline", |ctx, plan, a| {
                let late = ctx.clone().with_deadline(Duration::ZERO).factorize(plan, a);
                assert_eq!(late.err(), Some(QrError::DeadlineExceeded));
            }),
            #[cfg(feature = "fault-injection")]
            ("a copy whose kernel panicked", |ctx, plan, a| {
                // A probe id no other test's copies use: the plan is global.
                let probe = 0x7f_1ec7;
                let _armed = crate::fault::FaultPlan::new().panic_at(probe, 2).install();
                let entry = crate::context::StreamEntry {
                    plan,
                    input: crate::context::StreamInput {
                        tiles: Some(TiledMatrix::from_dense_padded(a, plan.nb)),
                        dense: None,
                        rhs: Vec::new(),
                    },
                    probe,
                };
                let (_parts, err) = ctx.run_collect(vec![entry], None).pop().unwrap();
                assert!(matches!(err, Some(QrError::TaskPanicked { .. })), "{err:?}");
            }),
        ];
        let (m, n, nb) = (16usize, 8usize, 4usize);
        let a: Matrix<f64> = random_matrix(m, n, 520);
        for threads in [1usize, 2] {
            let ctx = QrContext::new(threads).unwrap();
            let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
            let high_water = 2 * plan.tile_rows() * plan.tile_cols();
            // Cold pool: the reference runs on freshly allocated T storage.
            let reference = ctx.factorize(&plan, &a).unwrap();
            assert_eq!(plan.t_pool.len(), 0);
            for (name, end) in &ends {
                end(&ctx, &plan, &a);
                let at = format!("after `{name}`, {threads} threads");
                assert_eq!(plan.t_pool.len(), high_water, "pool short {at}");
                let next = ctx.factorize(&plan, &a).unwrap();
                assert_eq!(
                    plan.t_pool.len(),
                    0,
                    "the next call allocated T storage {at}"
                );
                assert_eq!(next.factored_tiles(), reference.factored_tiles(), "{at}");
                assert_eq!(next.apply_qh(&a), reference.apply_qh(&a), "{at}");
                drop(next);
                assert_eq!(plan.t_pool.len(), high_water, "{at}");
            }
        }
    }

    #[test]
    fn a_handle_that_outlives_its_plan_frees_quietly() {
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<f64> = QrPlan::new(16, 8, QrConfig::new(4)).unwrap();
        let a: Matrix<f64> = random_matrix(16, 8, 523);
        let f = ctx.factorize(&plan, &a).unwrap();
        let mut tiles = TiledMatrix::from_dense_padded(&a, 4);
        let reflectors = ctx.factorize_into(&plan, &mut tiles).unwrap();
        drop(plan);
        assert!(f.residual(&a) < 1e-11, "the handle stays usable");
        drop(f);
        drop(reflectors);
    }

    /// `QrFactorization` only delegates: replaying through the reflectors
    /// over caller-owned tiles is bitwise the upgraded handle's replay.
    fn reflectors_replay_like_the_upgraded_handle<T: RandomScalar + Scalar<Real = f64>>() {
        let (m, n, nb) = (20usize, 12usize, 4usize);
        let ctx = QrContext::new(2).unwrap();
        let plan: QrPlan<T> = QrPlan::new(m, n, QrConfig::new(nb).with_inner_block(2)).unwrap();
        let a: Matrix<T> = random_matrix(m, n, 530);
        let b: Matrix<T> = random_matrix(m, 3, 531);
        let mut tiles = TiledMatrix::from_dense_padded(&a, nb);
        let reflectors = ctx.factorize_into(&plan, &mut tiles).unwrap();
        let (r, qhb, qb) = (
            reflectors.r(&tiles),
            reflectors.apply_qh(&tiles, &b),
            reflectors.apply_q(&tiles, &b),
        );
        let f = reflectors.into_factorization(tiles);
        assert_eq!((f.r(), f.apply_qh(&b), f.apply_q(&b)), (r, qhb, qb));
        assert!(f.residual(&a) < 1e-11);
    }

    #[test]
    fn reflectors_replay_like_the_upgraded_handle_f64_and_complex() {
        reflectors_replay_like_the_upgraded_handle::<f64>();
        reflectors_replay_like_the_upgraded_handle::<Complex64>();
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
            let reflectors = ctx.factorize_batch_into(&plan, &mut batch).pop().unwrap();
            tiles = batch.pop().unwrap();
            assert_eq!(&tiles, oneshot.factored_tiles());
            // The next round runs on the buffers this drop returns.
            drop(reflectors.unwrap());
        }
    }
}
