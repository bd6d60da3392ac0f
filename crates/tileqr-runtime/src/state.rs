//! Shared factorization state and the task → kernel mapping.
//!
//! Every tile of the matrix lives in a slot of its own, behind one mutex,
//! together with the tile's pair of auxiliary `T` factors: every task that
//! touches a pair holds the pair's tile anyway. Conflicting tasks are
//! already ordered by the DAG, so locks are essentially uncontended; they
//! exist to make the concurrent access to *different parts of the same
//! tile* (e.g. UNMQR reading the Householder vectors while a TTQRT rewrites
//! the R part above them) trivially sound. A task locks the distinct tiles
//! its [`footprint`] names — the table the DAG builder derives the
//! dependencies from — in ascending slot index order, one global order, so
//! the executor can never deadlock.
//!
//! All `T`-factor storage ([`TFactors`]) is allocated — or checked out of a
//! plan's recycle pool — before the state is built: together with the
//! per-worker [`Workspace`]s threaded in by the executor,
//! this makes [`FactorizationState::run_ws`] — the per-task hot path —
//! completely allocation-free.
//!
//! A state may also carry a right-hand side as one *trailing* tile column
//! ([`FactorizationState::with_rhs`]): `p` row blocks of `nb × k` at column
//! index `q`, in slots of their own (with an empty `T` pair). The update
//! tasks a [`TaskDag`](tileqr_core::TaskDag) built with a trailing column
//! emits for `j = q` then turn those blocks into `Qᴴ·b` while the
//! factorization runs; nothing in [`FactorizationState::run_ws`]
//! distinguishes them from square tiles, because the update kernels take a
//! target of any width.
//!
//! [`FactorizationState::run_ws`] is the task body the executor's workers
//! drive. It is
//! order-agnostic by design: correctness relies only on the DAG ordering
//! conflicting tasks, never on *which* ready task runs first, so the
//! factorization output is bitwise identical whatever the workers steal.

use std::sync::Weak;

use crate::plan::TPool;
use crate::reflectors::{TFactors, TPair};
use crate::sync::{Mutex, MutexGuard};
use tileqr_core::footprint::footprint;
use tileqr_core::TaskKind;
use tileqr_kernels::Trans::ConjTrans;
use tileqr_kernels::{geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Workspace};
use tileqr_matrix::tiled::fill_tile_padded;
use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

/// Lock-protected storage for the matrix being factored plus the reflector
/// `T` factors produced along the way.
pub struct FactorizationState<T: Scalar> {
    p: usize,
    q: usize,
    nb: usize,
    ib: usize,
    /// One slot per tile of the matrix, tile-column-major (the
    /// [`TFactors::slot`] order of the copy's `T` pairs), each behind its own
    /// lock; followed by the `p` right-hand-side row blocks (tile column
    /// `q`) when the state carries one.
    slots: Vec<Mutex<Slot<T>>>,
    /// The pool the `T` buffers came from; leaves with them in
    /// [`FactorizationState::take_parts`].
    t_home: Weak<TPool<T>>,
}

/// A tile and its pair of `T` factors; a right-hand-side block's pair is
/// empty.
struct Slot<T: Scalar> {
    tile: Matrix<T>,
    t: TPair<T>,
}

/// Most distinct tiles one task touches (`TSMQR`, `TTMQR`).
const MAX_TILES: usize = 3;

/// One task's locked slots ([`FactorizationState::lock`]): their indices in
/// ascending order (`usize::MAX` past the last) and their guards.
pub(crate) struct Held<'a, T: Scalar> {
    at: [usize; MAX_TILES],
    guards: [Option<MutexGuard<'a, Slot<T>>>; MAX_TILES],
}

impl<T: Scalar> Held<'_, T> {
    /// The slots at the distinct indices `at`, in that order.
    fn get<const N: usize>(&mut self, at: [usize; N]) -> [&mut Slot<T>; N] {
        let at = at.map(|i| self.at.iter().position(|&a| a == i).expect("a locked tile"));
        let guards = self.guards.get_disjoint_mut(at).expect("distinct tiles");
        guards.map(|g| &mut **g.as_mut().expect("locked"))
    }
}

/// What [`FactorizationState::into_parts`] hands back.
pub struct FactoredParts<T: Scalar> {
    /// The factored tiles (`R` plus the Householder vectors).
    pub tiles: TiledMatrix<T>,
    /// The `T` factor every factor kernel left; slots whose kernel never ran
    /// hold a zero matrix.
    pub t: TFactors<T>,
    /// The right-hand-side row blocks ([`FactorizationState::with_rhs`]),
    /// holding `Qᴴ·b` once every task ran; empty if the state carried none.
    pub rhs: Vec<Matrix<T>>,
}

impl<T: Scalar<Real = f64>> FactorizationState<T> {
    /// Takes ownership of a tiled matrix and prepares the auxiliary storage
    /// with no inner blocking (`ib = nb`).
    pub fn new(a: TiledMatrix<T>) -> Self {
        let nb = a.tile_size();
        FactorizationState::with_inner_block(a, nb)
    }

    /// Takes ownership of a tiled matrix and prepares the auxiliary storage
    /// for kernels running with inner blocking factor `ib` (clamped to
    /// `1..=nb`).
    ///
    /// Every `T`-factor slot is allocated here, up front, so no task ever
    /// allocates on the hot path. The slots use PLASMA's `ib`-blocked
    /// `ib × nb` T-factor layout (one `w × w` triangle per `ib`-column
    /// panel) — with `ib = nb` this is the historical square layout. The
    /// workspaces threaded in by the executor must be built with the same
    /// `ib` ([`Workspace::with_inner_block`]).
    pub fn with_inner_block(a: TiledMatrix<T>, ib: usize) -> Self {
        let nb = a.tile_size();
        let grid = (a.tile_rows(), a.tile_cols());
        FactorizationState::over(a, TFactors::fresh(grid, ib.clamp(1, nb.max(1)), nb))
    }

    /// The state of one copy over its tiles and its (all-zero) `T` factors —
    /// how a reusable plan ([`QrPlan`](crate::context::QrPlan)) feeds recycled
    /// `T` buffers back in, removing the last per-call allocation that scales
    /// with the tile grid.
    pub(crate) fn over(a: TiledMatrix<T>, t: TFactors<T>) -> Self {
        let (tiles, p, q, nb) = a.into_tiles();
        let ib = t.inner_block();
        let (t, t_home) = t.into_slots();
        debug_assert_eq!(t.len(), p * q, "one T pair per tile");
        debug_assert!(
            t.iter()
                .flat_map(|s| [&s.geqrt, &s.elim])
                .all(|m| { m.shape() == (ib, nb) && m.as_slice().iter().all(|v| *v == T::ZERO) }),
            "T factors must enter the state as zeroed ib × nb buffers"
        );
        let slots = tiles.into_iter().zip(t);
        FactorizationState {
            p,
            q,
            nb,
            ib,
            slots: slots
                .map(|(tile, t)| Mutex::new(Slot { tile, t }))
                .collect(),
            t_home,
        }
    }

    /// Attaches a right-hand side as the trailing tile column `q`: `blocks`
    /// are its `p` row blocks, each `nb × k` for one common `k` (see
    /// [`rhs_row_blocks`]). The state then serves DAGs built with one
    /// trailing column.
    ///
    /// # Panics
    /// Panics unless there are exactly `p` blocks of `nb` rows and equal
    /// width, or if a right-hand side is already attached.
    pub fn with_rhs(mut self, blocks: Vec<Matrix<T>>) -> Self {
        assert_eq!(self.slots.len(), self.p * self.q, "rhs already attached");
        assert_eq!(blocks.len(), self.p, "one rhs block per tile row");
        let k = blocks.first().map_or(0, Matrix::cols);
        for b in &blocks {
            assert_eq!(b.shape(), (self.nb, k), "rhs block shape mismatch");
        }
        let slots = blocks.into_iter().map(|tile| Slot {
            tile,
            t: TPair::empty(),
        });
        self.slots.extend(slots.map(Mutex::new));
        self
    }

    /// Tile rows of the grid.
    pub fn tile_rows(&self) -> usize {
        self.p
    }

    /// Tile columns of the grid.
    pub fn tile_cols(&self) -> usize {
        self.q
    }

    /// Tile size.
    pub fn tile_size(&self) -> usize {
        self.nb
    }

    /// Inner blocking factor the `T`-factor storage is laid out for.
    pub fn inner_block(&self) -> usize {
        self.ib
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        // `col == q` addresses the right-hand-side blocks, if attached.
        debug_assert!(row < self.p && col * self.p + row < self.slots.len());
        col * self.p + row
    }

    /// Executes one task of the DAG against a caller-provided workspace
    /// (zero heap allocations). Safe to call concurrently for tasks that are
    /// not ordered by the DAG.
    pub fn run_ws(&self, task: TaskKind, ws: &mut Workspace<T>) {
        self.run_held(task, self.lock(task), ws);
    }

    /// Locks the tiles of `task` and fills, under those locks, the tiles
    /// `fill = (a, mask)` names from the dense input `a`: the tile of access
    /// `i` of the task's footprint when bit `i` of `mask` is set (the plan's
    /// first-touch table). Each tile is written whole by
    /// [`fill_tile_padded`], the per-tile step of
    /// [`TiledMatrix::fill_from_dense_padded`], so the input the kernels see
    /// matches [`TiledMatrix::from_dense_padded`] bitwise. The locks are
    /// held on for [`FactorizationState::run_held`], so a trace can time the
    /// kernel alone.
    pub(crate) fn lock_filled(
        &self,
        task: TaskKind,
        fill: Option<(&Matrix<T>, u8)>,
    ) -> Held<'_, T> {
        let mut held = self.lock(task);
        if let Some((a, mask)) = fill.filter(|&(_, mask)| mask != 0) {
            let named = footprint(task);
            let first = named
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1);
            for (_, access) in first {
                let (row, col) = access.resource.tile();
                let [slot] = held.get([self.idx(row, col)]);
                fill_tile_padded(&mut slot.tile, a, row, col);
            }
        }
        held
    }

    /// Runs the kernel of `task` on the tiles `held` locks for it.
    pub(crate) fn run_held(&self, task: TaskKind, mut held: Held<'_, T>, ws: &mut Workspace<T>) {
        let at = |row, col| self.idx(row, col);
        match task {
            TaskKind::Geqrt { row, col } => {
                let [a] = held.get([at(row, col)]);
                geqrt_ws(&mut a.tile, &mut a.t.geqrt, ws);
            }
            TaskKind::Unmqr { row, col, j } => {
                let [v, c] = held.get([at(row, col), at(row, j)]);
                unmqr_ws(&v.tile, &v.t.geqrt, &mut c.tile, ConjTrans, ws);
            }
            TaskKind::Tsqrt { row, piv, col } => {
                let [r1, a2] = held.get([at(piv, col), at(row, col)]);
                tsqrt_ws(&mut r1.tile, &mut a2.tile, &mut a2.t.elim, ws);
            }
            TaskKind::Ttqrt { row, piv, col } => {
                let [r1, r2] = held.get([at(piv, col), at(row, col)]);
                ttqrt_ws(&mut r1.tile, &mut r2.tile, &mut r2.t.elim, ws);
            }
            TaskKind::Tsmqr { row, piv, col, j } => {
                let [v, c, d] = held.get([at(row, col), at(piv, j), at(row, j)]);
                tsmqr_ws(&v.tile, &v.t.elim, &mut c.tile, &mut d.tile, ConjTrans, ws);
            }
            TaskKind::Ttmqr { row, piv, col, j } => {
                let [v, c, d] = held.get([at(row, col), at(piv, j), at(row, j)]);
                ttmqr_ws(&v.tile, &v.t.elim, &mut c.tile, &mut d.tile, ConjTrans, ws);
            }
        }
    }

    /// Locks the distinct tiles `footprint(task)` names, in ascending slot
    /// index order: the one lock order every task follows.
    fn lock(&self, task: TaskKind) -> Held<'_, T> {
        let (mut at, mut n) = ([usize::MAX; MAX_TILES], 0);
        for access in footprint(task).iter() {
            let (row, col) = access.resource.tile();
            let i = self.idx(row, col);
            if let Err(pos) = at[..n].binary_search(&i) {
                at.copy_within(pos..n, pos + 1);
                at[pos] = i;
                n += 1;
            }
        }
        Held {
            at,
            guards: std::array::from_fn(|k| (k < n).then(|| self.slots[at[k]].lock())),
        }
    }

    /// Consumes the state and returns the factored tiles, the `T` factors
    /// and the right-hand-side blocks, for use by
    /// [`crate::driver::QrFactorization`] and the fused solve.
    pub fn into_parts(self) -> FactoredParts<T> {
        self.take_parts()
    }

    /// [`FactorizationState::into_parts`] through a shared reference: moves
    /// every tile and `T` factor out from behind its lock, leaving an empty
    /// husk. This is how a fused job drains a finished copy while sibling
    /// copies are still running; the caller must make sure no task of *this*
    /// state is running or can start any more (a task meeting an emptied
    /// tile would panic).
    pub(crate) fn take_parts(&self) -> FactoredParts<T> {
        let take = |m: &Mutex<Slot<T>>| {
            let empty = Slot {
                tile: Matrix::zeros(0, 0),
                t: TPair::empty(),
            };
            let Slot { tile, t } = std::mem::replace(&mut *m.lock(), empty);
            (tile, t)
        };
        let (mut tiles, mut t): (Vec<_>, Vec<_>) = self.slots.iter().map(take).unzip();
        let rhs = tiles.split_off(self.p * self.q);
        t.truncate(self.p * self.q);
        FactoredParts {
            tiles: TiledMatrix::from_tiles(tiles, self.p, self.q, self.nb),
            t: TFactors::from_slots(self.p, self.ib, t, self.t_home.clone()),
            rhs,
        }
    }
}

/// Splits a dense `m × k` right-hand side into `p` row blocks of `nb × k`
/// (its true width — never padded to `nb` columns), zero-padding the rows of
/// the last block: the trailing tile column of [`FactorizationState::with_rhs`]
/// and the unit the `Q`/`Qᴴ` replay works on.
///
/// # Panics
/// Panics if `b` has more than `p · nb` rows.
pub fn rhs_row_blocks<T: Scalar>(b: &Matrix<T>, p: usize, nb: usize) -> Vec<Matrix<T>> {
    assert!(b.rows() <= p * nb, "right-hand side taller than the grid");
    (0..p)
        .map(|ti| {
            let mut block = Matrix::zeros(nb, b.cols());
            let rows = nb.min(b.rows().saturating_sub(ti * nb));
            if rows > 0 {
                block.copy_block(0, 0, b, ti * nb, 0, rows, b.cols());
            }
            block
        })
        .collect()
}

/// The first `rows` rows of the matrix whose `nb`-row blocks are `blocks` —
/// the inverse of [`rhs_row_blocks`] when `rows` is the original row count.
pub fn gather_row_blocks<T: Scalar>(blocks: &[Matrix<T>], rows: usize) -> Matrix<T> {
    let (nb, k) = blocks.first().map_or((1, 0), Matrix::shape);
    let mut out = Matrix::zeros(rows, k);
    for (ti, block) in blocks.iter().enumerate().take(rows.div_ceil(nb)) {
        let take = nb.min(rows - ti * nb);
        out.copy_block(ti * nb, 0, block, 0, 0, take, k);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_core::algorithms::Algorithm;
    use tileqr_core::dag::TaskDag;
    use tileqr_core::KernelFamily;
    use tileqr_matrix::generate::random_matrix;

    /// Every `T` factor of a `p × q` grid: both halves of every tile's pair.
    fn t_slots(t: &TFactors<f64>, p: usize, q: usize) -> impl Iterator<Item = &Matrix<f64>> {
        (0..q)
            .flat_map(move |col| (0..p).map(move |row| (row, col)))
            .flat_map(move |(row, col)| [t.geqrt(row, col), t.elim(row, col)])
    }

    #[test]
    fn state_roundtrip_preserves_grid_shape() {
        let a = random_matrix::<f64>(12, 8, 1);
        let tiled = TiledMatrix::from_dense(&a, 4);
        let state = FactorizationState::new(tiled.clone());
        assert_eq!(state.tile_rows(), 3);
        assert_eq!(state.tile_cols(), 2);
        assert_eq!(state.tile_size(), 4);
        let FactoredParts {
            tiles: back,
            t,
            rhs,
        } = state.into_parts();
        assert_eq!(back, tiled);
        assert!(rhs.is_empty());
        // T storage is preallocated and zero until a kernel runs
        assert!(t_slots(&t, 3, 2).all(|m| m.as_slice().iter().all(|v| *v == 0.0)));
    }

    #[test]
    fn inner_blocked_state_allocates_ib_blocked_t_factors() {
        let a = random_matrix::<f64>(12, 8, 4);
        let state = FactorizationState::with_inner_block(TiledMatrix::from_dense(&a, 4), 2);
        assert_eq!(state.inner_block(), 2);
        let dag = TaskDag::build(&Algorithm::Greedy.elimination_list(3, 2), KernelFamily::TT);
        let mut ws = Workspace::with_inner_block(4, 2);
        for task in &dag.tasks {
            state.run_ws(task.kind, &mut ws);
        }
        let parts = state.into_parts();
        assert_eq!(parts.t.inner_block(), 2);
        for t in t_slots(&parts.t, 3, 2) {
            assert_eq!(t.shape(), (2, 4), "T storage is ib × nb");
        }
    }

    #[test]
    fn running_all_tasks_populates_t_factors() {
        let a = random_matrix::<f64>(12, 8, 2);
        let tiled = TiledMatrix::from_dense(&a, 4);
        let state = FactorizationState::new(tiled);
        let dag = TaskDag::build(&Algorithm::Greedy.elimination_list(3, 2), KernelFamily::TT);
        let mut ws = Workspace::new(4);
        for task in &dag.tasks {
            state.run_ws(task.kind, &mut ws);
        }
        let t = state.into_parts().t;
        let nonzero = |m: &Matrix<f64>| m.as_slice().iter().any(|v| *v != 0.0);
        let count = |of: fn(&TFactors<f64>, usize, usize) -> &Matrix<f64>| {
            let grid = (0..2).flat_map(|col| (0..3).map(move |row| (row, col)));
            grid.filter(|&(row, col)| nonzero(of(&t, row, col))).count()
        };
        // TT: every active tile has a GEQRT T factor
        assert_eq!(count(TFactors::geqrt), 3 + 2);
        // and every sub-diagonal tile has an elimination T factor
        assert_eq!(count(TFactors::elim), 2 + 1);
    }

    #[test]
    fn run_ws_is_bitwise_identical_in_parallel() {
        // The same DAG executed by four workers against a fresh state must
        // produce bit-for-bit the same tiles and T factors as the sequential
        // reference walk.
        use crate::executor::{execute_parallel_with_scheduler, SchedulerKind};
        let a = random_matrix::<f64>(24, 12, 5);
        let dag = TaskDag::build(&Algorithm::Greedy.elimination_list(6, 3), KernelFamily::TT);

        let reference = FactorizationState::new(TiledMatrix::from_dense(&a, 4));
        let mut ws = Workspace::new(4);
        for task in &dag.tasks {
            reference.run_ws(task.kind, &mut ws);
        }
        let reference = reference.into_parts();

        let state = FactorizationState::new(TiledMatrix::from_dense(&a, 4));
        execute_parallel_with_scheduler(
            &dag,
            4,
            SchedulerKind::default(),
            || Workspace::<f64>::new(4),
            |task, ws| state.run_ws(task, ws),
        );
        let got = state.into_parts();
        assert_eq!(got.tiles, reference.tiles, "tiles differ");
        assert!(got.t == reference.t, "T factors differ");
    }
}
