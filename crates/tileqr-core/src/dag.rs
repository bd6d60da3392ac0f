//! Weighted task DAG of a tiled QR factorization.
//!
//! Given an elimination list and a kernel family (TT or TS), this module
//! builds the complete set of kernel tasks together with their dependencies,
//! following Section 2.1 (per-elimination kernel decomposition and
//! dependencies) and Section 2.3 (execution scheme). The DAG is consumed by
//!
//! * the critical-path simulator ([`crate::sim`]) to reproduce the paper's
//!   tables of time-steps and critical-path lengths, and
//! * the multicore runtime (`tileqr-runtime`) to actually execute the
//!   factorization, mapping each [`TaskKind`] to the corresponding kernel of
//!   `tileqr-kernels`.
//!
//! Task weights are the abstract costs of Table 1 in units of `nb³/3` flops.

use crate::elim::EliminationList;
use crate::footprint::{footprint, Mode, MAX_ACCESSES};

/// Which sequential kernel family implements the eliminations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelFamily {
    /// Triangle-on-top-of-triangle kernels (GEQRT/TTQRT/UNMQR/TTMQR): more
    /// parallel, used by all the new algorithms in the paper.
    TT,
    /// Triangle-on-top-of-square kernels (GEQRT/TSQRT/UNMQR/TSMQR): better
    /// locality and sequential speed, used by the original PLASMA algorithms.
    TS,
}

impl KernelFamily {
    /// Display name matching the paper ("TT" / "TS").
    pub const fn name(self) -> &'static str {
        match self {
            KernelFamily::TT => "TT",
            KernelFamily::TS => "TS",
        }
    }
}

/// One kernel invocation in the task graph. Indices are zero-based tile
/// coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// `GEQRT(row, col)`: factor tile `(row, col)` into a triangle.
    Geqrt {
        /// Tile row.
        row: usize,
        /// Panel column.
        col: usize,
    },
    /// `UNMQR(row, col, j)`: apply the reflectors of `GEQRT(row, col)` to
    /// tile `(row, j)`, `j > col`.
    Unmqr {
        /// Tile row.
        row: usize,
        /// Panel column whose reflectors are applied.
        col: usize,
        /// Updated (trailing) column.
        j: usize,
    },
    /// `TSQRT(row, piv, col)`: zero the full tile `(row, col)` against the
    /// triangular tile `(piv, col)`.
    Tsqrt {
        /// Row being annihilated.
        row: usize,
        /// Pivot row.
        piv: usize,
        /// Panel column.
        col: usize,
    },
    /// `TSMQR(row, piv, col, j)`: apply the `TSQRT(row, piv, col)` reflectors
    /// to the tile pair `(piv, j)`, `(row, j)`.
    Tsmqr {
        /// Row being annihilated.
        row: usize,
        /// Pivot row.
        piv: usize,
        /// Panel column of the reflectors.
        col: usize,
        /// Updated (trailing) column.
        j: usize,
    },
    /// `TTQRT(row, piv, col)`: zero the triangular tile `(row, col)` against
    /// the triangular tile `(piv, col)`.
    Ttqrt {
        /// Row being annihilated.
        row: usize,
        /// Pivot row.
        piv: usize,
        /// Panel column.
        col: usize,
    },
    /// `TTMQR(row, piv, col, j)`: apply the `TTQRT(row, piv, col)` reflectors
    /// to the tile pair `(piv, j)`, `(row, j)`.
    Ttmqr {
        /// Row being annihilated.
        row: usize,
        /// Pivot row.
        piv: usize,
        /// Panel column of the reflectors.
        col: usize,
        /// Updated (trailing) column.
        j: usize,
    },
}

impl TaskKind {
    /// Abstract weight in units of `nb³/3` flops (paper Table 1).
    pub const fn weight(self) -> u64 {
        match self {
            TaskKind::Geqrt { .. } => 4,
            TaskKind::Unmqr { .. } => 6,
            TaskKind::Tsqrt { .. } => 6,
            TaskKind::Tsmqr { .. } => 12,
            TaskKind::Ttqrt { .. } => 2,
            TaskKind::Ttmqr { .. } => 6,
        }
    }

    /// Short kernel name.
    pub const fn kernel_name(self) -> &'static str {
        match self {
            TaskKind::Geqrt { .. } => "GEQRT",
            TaskKind::Unmqr { .. } => "UNMQR",
            TaskKind::Tsqrt { .. } => "TSQRT",
            TaskKind::Tsmqr { .. } => "TSMQR",
            TaskKind::Ttqrt { .. } => "TTQRT",
            TaskKind::Ttmqr { .. } => "TTMQR",
        }
    }

    /// True for the kernels that zero out a tile (TSQRT/TTQRT); the finish
    /// times of these tasks are what the paper's Tables 3 and 4 report.
    pub const fn is_elimination(self) -> bool {
        matches!(self, TaskKind::Tsqrt { .. } | TaskKind::Ttqrt { .. })
    }
}

/// A node of the task graph: the kernel, its weight and its predecessor
/// indices (into [`TaskDag::tasks`]).
#[derive(Clone, Debug)]
pub struct TaskNode {
    /// What kernel to run on which tiles.
    pub kind: TaskKind,
    /// Indices of the tasks that must complete before this one starts.
    pub deps: Vec<usize>,
}

/// The full weighted task DAG of one tiled QR factorization.
///
/// Tasks are stored in a topological order (the construction order), which
/// the simulator and the runtime both rely on.
#[derive(Clone, Debug)]
pub struct TaskDag {
    /// Tile rows of the underlying grid.
    pub p: usize,
    /// Tile columns of the underlying grid (the columns that are factored).
    pub q: usize,
    /// Update-only tile columns `q..q + trailing` riding the factorization:
    /// they receive every `UNMQR`/`TSMQR`/`TTMQR` of every panel and no
    /// factor task, which turns a right-hand side stored there into `Qᴴ·b`.
    pub trailing: usize,
    /// Kernel family used to build the DAG.
    pub family: KernelFamily,
    /// Task nodes in topological order.
    pub tasks: Vec<TaskNode>,
}

impl TaskDag {
    /// Builds the task DAG for `list` using the requested kernel family.
    pub fn build(list: &EliminationList, family: KernelFamily) -> TaskDag {
        TaskDag::build_with_trailing(list, family, 0)
    }

    /// [`TaskDag::build`] over `[A | B]`: the grid gains `trailing`
    /// update-only tile columns after the `q` factored ones (see
    /// [`TaskDag::trailing`]). The factor tasks and the updates of the first
    /// `q` columns are the same, in the same relative order, as with
    /// `trailing = 0`.
    ///
    /// One construction serves both families. Per column, tiles are
    /// triangularized (GEQRT, then UNMQR on the trailing columns) on demand:
    /// each pivot just before its first elimination, and the diagonal tile at
    /// the end even if it never pivoted, so that the R factor is complete. An
    /// elimination whose target tile is still *full* uses TSQRT/TSMQR; one
    /// whose target has already been triangularized (it served as a pivot
    /// earlier in the column, as in the binary-tree merge phase of
    /// PlasmaTree) uses TTQRT/TTMQR, exactly as in PLASMA. This hybrid is
    /// what keeps the total task weight at `6pq² − 2q³` for every tree
    /// (Section 2.2). TT is this TS build with every active tile `(i, k)`,
    /// `i ≥ k`, triangularized before the column's eliminations, so every
    /// elimination takes the TT kernels.
    ///
    /// Dependencies come from the [`footprint`] table, the one the runtime
    /// locks by and the race analyzer checks: every task follows the last
    /// writer of each tile its footprint names.
    pub fn build_with_trailing(
        list: &EliminationList,
        family: KernelFamily,
        trailing: usize,
    ) -> TaskDag {
        let (p, q) = (list.tile_rows(), list.tile_cols());
        let cols = q + trailing;
        let mut b = Builder {
            p,
            cols,
            last_writer: vec![None; p * cols],
            tasks: Vec::new(),
        };
        for k in 0..p.min(q) {
            // triangular[i]: whether tile (i, k) has already been factored
            let mut triangular = vec![false; p];
            if family == KernelFamily::TT {
                for i in k..p {
                    b.triangularize(&mut triangular, i, k);
                }
            }
            for e in list.column(k) {
                b.triangularize(&mut triangular, e.piv, k);
                let (row, piv, col) = (e.row, e.piv, k);
                let tt = triangular[row];
                b.push(if tt {
                    TaskKind::Ttqrt { row, piv, col }
                } else {
                    TaskKind::Tsqrt { row, piv, col }
                });
                for j in (k + 1)..cols {
                    b.push(if tt {
                        TaskKind::Ttmqr { row, piv, col, j }
                    } else {
                        TaskKind::Tsmqr { row, piv, col, j }
                    });
                }
            }
            b.triangularize(&mut triangular, k, k);
        }
        TaskDag {
            p,
            q,
            trailing,
            family,
            tasks: b.tasks,
        }
    }

    /// Total abstract weight of all tasks (units of `nb³/3` flops). For any
    /// complete elimination list without trailing columns this equals
    /// `6pq² − 2q³` regardless of the algorithm or kernel family.
    pub fn total_weight(&self) -> u64 {
        self.tasks.iter().map(|t| t.kind.weight()).sum()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True if the DAG has no tasks (empty grid).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Successor adjacency (computed on demand; the DAG itself only stores
    /// predecessor lists).
    pub fn successors(&self) -> Vec<Vec<usize>> {
        let mut succ = vec![Vec::new(); self.tasks.len()];
        for (idx, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                succ[d].push(idx);
            }
        }
        succ
    }

    /// Successor lists in flat CSR form: task `i`'s successors are
    /// `targets[offsets[i]..offsets[i + 1]]`.
    ///
    /// Equivalent to [`TaskDag::successors`] but built from a constant
    /// number of allocations regardless of the DAG size — the form the
    /// runtime executor uses so its setup cost stays O(1) allocations.
    pub fn successors_csr(&self) -> SuccessorsCsr {
        let n = self.tasks.len();
        let mut offsets = vec![0usize; n + 1];
        for t in &self.tasks {
            for &d in &t.deps {
                offsets[d + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![0usize; offsets[n]];
        let mut cursor = offsets.clone();
        for (idx, t) in self.tasks.iter().enumerate() {
            for &d in &t.deps {
                targets[cursor[d]] = idx;
                cursor[d] += 1;
            }
        }
        SuccessorsCsr { offsets, targets }
    }

    /// Scheduling priority of every task: the weighted length of the longest
    /// path from the task to an exit of the DAG (its *bottom level*),
    /// including the task's own weight, in the abstract `nb³/3` unit of
    /// Table 1 — the same kernel weights the roofline model in
    /// [`crate::perfmodel`] consumes.
    ///
    /// A task whose priority equals the DAG's critical path lies *on* the
    /// critical path; executing ready tasks in decreasing priority order is
    /// the classic critical-path list-scheduling heuristic.
    pub fn priorities(&self) -> Vec<u64> {
        let succ = self.successors_csr();
        let n = self.tasks.len();
        let mut prio = vec![0u64; n];
        // Tasks are stored in topological order, so one reverse sweep sees
        // every successor before the task itself.
        for i in (0..n).rev() {
            let downstream = succ.of(i).iter().map(|&s| prio[s]).max().unwrap_or(0);
            prio[i] = downstream + self.tasks[i].kind.weight();
        }
        prio
    }
}

/// Flat (CSR) successor adjacency of a [`TaskDag`]; see
/// [`TaskDag::successors_csr`].
#[derive(Clone, Debug)]
pub struct SuccessorsCsr {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl SuccessorsCsr {
    /// Successors of task `i`, in ascending order.
    #[inline]
    pub fn of(&self, i: usize) -> &[usize] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Total number of dependency edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Largest successor batch a single task completion can enable — the
    /// scratch bound the runtime's workers size their release buffers with.
    /// `O(q)` for tiled QR (a factor task fans out over the trailing
    /// columns of its panel).
    pub fn max_out_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// The task list under construction, with the index of the last task that
/// wrote each tile.
struct Builder {
    p: usize,
    /// Tile columns, trailing ones included.
    cols: usize,
    last_writer: Vec<Option<usize>>,
    tasks: Vec<TaskNode>,
}

impl Builder {
    /// Appends `kind` after the last writer of every tile its [`footprint`]
    /// names, then makes it the last writer of the tiles the footprint
    /// writes. Chaining every task after the previous writer of each tile it
    /// touches yields exactly the dependencies listed in Section 2.1.
    fn push(&mut self, kind: TaskKind) {
        let at = |(row, col): (usize, usize)| col * self.p + row;
        let accesses = footprint(kind);
        // Sorted and deduplicated on the stack, then stored at its exact size.
        let (mut deps, mut n) = ([0; MAX_ACCESSES], 0);
        for d in accesses
            .iter()
            .filter_map(|a| self.last_writer[at(a.resource.tile())])
        {
            if let Err(pos) = deps[..n].binary_search(&d) {
                deps.copy_within(pos..n, pos + 1);
                deps[pos] = d;
                n += 1;
            }
        }
        for a in accesses.iter().filter(|a| a.mode == Mode::Write) {
            self.last_writer[at(a.resource.tile())] = Some(self.tasks.len());
        }
        self.tasks.push(TaskNode {
            kind,
            deps: deps[..n].to_vec(),
        });
    }

    /// `GEQRT(i, k)` and the `UNMQR`s of its row, unless tile `(i, k)` is
    /// already triangular.
    fn triangularize(&mut self, triangular: &mut [bool], i: usize, k: usize) {
        if std::mem::replace(&mut triangular[i], true) {
            return;
        }
        self.push(TaskKind::Geqrt { row: i, col: k });
        for j in (k + 1)..self.cols {
            self.push(TaskKind::Unmqr { row: i, col: k, j });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{binary_tree, fibonacci, flat_tree, greedy, plasma_tree};

    fn total_weight_formula(p: usize, q: usize) -> u64 {
        6 * (p as u64) * (q as u64) * (q as u64) - 2 * (q as u64).pow(3)
    }

    #[test]
    fn task_weights_match_table_1() {
        assert_eq!(TaskKind::Geqrt { row: 0, col: 0 }.weight(), 4);
        assert_eq!(
            TaskKind::Unmqr {
                row: 0,
                col: 0,
                j: 1
            }
            .weight(),
            6
        );
        assert_eq!(
            TaskKind::Tsqrt {
                row: 1,
                piv: 0,
                col: 0
            }
            .weight(),
            6
        );
        assert_eq!(
            TaskKind::Tsmqr {
                row: 1,
                piv: 0,
                col: 0,
                j: 1
            }
            .weight(),
            12
        );
        assert_eq!(
            TaskKind::Ttqrt {
                row: 1,
                piv: 0,
                col: 0
            }
            .weight(),
            2
        );
        assert_eq!(
            TaskKind::Ttmqr {
                row: 1,
                piv: 0,
                col: 0,
                j: 1
            }
            .weight(),
            6
        );
    }

    #[test]
    fn dag_is_topologically_ordered() {
        let list = greedy(8, 4);
        for family in [KernelFamily::TT, KernelFamily::TS] {
            let dag = TaskDag::build(&list, family);
            for (idx, task) in dag.tasks.iter().enumerate() {
                for &d in &task.deps {
                    assert!(
                        d < idx,
                        "dependency {d} of task {idx} is not earlier in the list"
                    );
                }
            }
        }
    }

    #[test]
    fn total_weight_is_algorithm_and_family_independent() {
        for (p, q) in [(4usize, 4usize), (8, 3), (10, 1), (6, 6), (15, 6)] {
            let expected = total_weight_formula(p, q);
            for list in [
                flat_tree(p, q),
                fibonacci(p, q),
                greedy(p, q),
                binary_tree(p, q),
                plasma_tree(p, q, 3),
            ] {
                for family in [KernelFamily::TT, KernelFamily::TS] {
                    let dag = TaskDag::build(&list, family);
                    assert_eq!(
                        dag.total_weight(),
                        expected,
                        "weight mismatch for {family:?} on {p}x{q}"
                    );
                }
            }
        }
    }

    #[test]
    fn tt_dag_counts_one_geqrt_per_active_tile() {
        let (p, q) = (6usize, 3usize);
        let dag = TaskDag::build(&greedy(p, q), KernelFamily::TT);
        let geqrts = dag
            .tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Geqrt { .. }))
            .count();
        // active tiles: sum over k of (p - k)
        assert_eq!(geqrts, (0..q).map(|k| p - k).sum::<usize>());
        let ttqrts = dag
            .tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Ttqrt { .. }))
            .count();
        assert_eq!(ttqrts, EliminationList::expected_len(p, q));
    }

    #[test]
    fn ts_flat_tree_has_one_geqrt_per_column() {
        let (p, q) = (6usize, 3usize);
        let dag = TaskDag::build(&flat_tree(p, q), KernelFamily::TS);
        let geqrts = dag
            .tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Geqrt { .. }))
            .count();
        // with a flat tree only the diagonal tile of each column is factored
        assert_eq!(geqrts, q);
        let tsqrts = dag
            .tasks
            .iter()
            .filter(|t| matches!(t.kind, TaskKind::Tsqrt { .. }))
            .count();
        assert_eq!(tsqrts, EliminationList::expected_len(p, q));
        assert!(dag
            .tasks
            .iter()
            .all(|t| !matches!(t.kind, TaskKind::Ttqrt { .. } | TaskKind::Ttmqr { .. })));
    }

    #[test]
    fn elimination_dependency_structure_of_section_2_1() {
        // For a 2x1 grid with a single elimination elim(1,0,0) using TT
        // kernels: GEQRT(0,0), GEQRT(1,0), TTQRT(1,0,0); the TTQRT depends on
        // both GEQRTs.
        let list = flat_tree(2, 1);
        let dag = TaskDag::build(&list, KernelFamily::TT);
        assert_eq!(dag.len(), 3);
        let ttqrt_idx = dag
            .tasks
            .iter()
            .position(|t| matches!(t.kind, TaskKind::Ttqrt { .. }))
            .unwrap();
        assert_eq!(dag.tasks[ttqrt_idx].deps.len(), 2);
    }

    #[test]
    fn successors_are_inverse_of_deps() {
        let dag = TaskDag::build(&fibonacci(6, 3), KernelFamily::TT);
        let succ = dag.successors();
        for (idx, task) in dag.tasks.iter().enumerate() {
            for &d in &task.deps {
                assert!(succ[d].contains(&idx));
            }
        }
        let total_edges: usize = dag.tasks.iter().map(|t| t.deps.len()).sum();
        let total_succ: usize = succ.iter().map(|s| s.len()).sum();
        assert_eq!(total_edges, total_succ);
    }

    #[test]
    fn successors_csr_matches_nested_successors() {
        let dag = TaskDag::build(&fibonacci(6, 3), KernelFamily::TT);
        let nested = dag.successors();
        let csr = dag.successors_csr();
        assert_eq!(
            csr.edge_count(),
            nested.iter().map(|s| s.len()).sum::<usize>()
        );
        for (i, expected) in nested.iter().enumerate() {
            let mut sorted = expected.clone();
            sorted.sort_unstable();
            assert_eq!(csr.of(i), sorted.as_slice(), "successor list of task {i}");
        }
        assert_eq!(
            csr.max_out_degree(),
            nested.iter().map(|s| s.len()).max().unwrap(),
            "max out-degree must match the nested adjacency"
        );
    }

    #[test]
    fn priorities_are_bottom_levels() {
        let dag = TaskDag::build(&greedy(8, 4), KernelFamily::TT);
        let succ = dag.successors_csr();
        let prio = dag.priorities();
        // Every exit task's priority is exactly its own weight; every other
        // task dominates its successors by its own weight.
        for (i, task) in dag.tasks.iter().enumerate() {
            let downstream = succ.of(i).iter().map(|&s| prio[s]).max().unwrap_or(0);
            assert_eq!(prio[i], downstream + task.kind.weight());
        }
        // The largest bottom level is the critical path of the DAG.
        let cp = crate::sim::simulate_unbounded(&dag).critical_path;
        assert_eq!(prio.iter().copied().max().unwrap(), cp);
    }

    #[test]
    fn priorities_decrease_along_every_edge() {
        for family in [KernelFamily::TT, KernelFamily::TS] {
            let dag = TaskDag::build(&fibonacci(10, 5), family);
            let prio = dag.priorities();
            for (idx, task) in dag.tasks.iter().enumerate() {
                for &d in &task.deps {
                    assert!(
                        prio[d] > prio[idx],
                        "priority must strictly decrease towards the exits"
                    );
                }
            }
        }
    }

    /// The column a task updates, if it is an update task.
    fn updated_column(kind: TaskKind) -> Option<usize> {
        match kind {
            TaskKind::Unmqr { j, .. } | TaskKind::Tsmqr { j, .. } | TaskKind::Ttmqr { j, .. } => {
                Some(j)
            }
            _ => None,
        }
    }

    #[test]
    fn trailing_columns_leave_the_factor_dag_unchanged() {
        for (p, q) in [(6usize, 3usize), (4, 4), (5, 1)] {
            for list in [greedy(p, q), flat_tree(p, q), plasma_tree(p, q, 2)] {
                for family in [KernelFamily::TT, KernelFamily::TS] {
                    let plain = TaskDag::build(&list, family);
                    assert_eq!(plain.trailing, 0);
                    let wide = TaskDag::build_with_trailing(&list, family, 2);
                    assert_eq!((wide.p, wide.q, wide.trailing), (p, q, 2));
                    // Dropping the tasks on the trailing columns (and
                    // renumbering) gives back the plain DAG, task for task
                    // and edge for edge.
                    let mut renumber = vec![None; wide.len()];
                    let mut kept = Vec::new();
                    for (idx, t) in wide.tasks.iter().enumerate() {
                        if updated_column(t.kind).is_none_or(|j| j < q) {
                            renumber[idx] = Some(kept.len());
                            kept.push(t);
                        }
                    }
                    assert_eq!(kept.len(), plain.len());
                    for (k, t) in kept.iter().zip(&plain.tasks) {
                        assert_eq!(k.kind, t.kind);
                        let deps: Vec<usize> = k.deps.iter().filter_map(|&d| renumber[d]).collect();
                        assert_eq!(deps, t.deps, "deps of {:?}", t.kind);
                    }
                }
            }
        }
    }

    #[test]
    fn trailing_columns_receive_every_update_and_no_factor_task() {
        let (p, q) = (7usize, 3usize);
        for list in [greedy(p, q), fibonacci(p, q), binary_tree(p, q)] {
            for family in [KernelFamily::TT, KernelFamily::TS] {
                let plain = TaskDag::build(&list, family);
                let wide = TaskDag::build_with_trailing(&list, family, 1);
                let mut extra_weight = 0;
                for t in &plain.tasks {
                    // Every factor task of the plain DAG gains exactly one
                    // update on column q, of the matching kind.
                    let update = match t.kind {
                        TaskKind::Geqrt { row, col } => TaskKind::Unmqr { row, col, j: q },
                        TaskKind::Tsqrt { row, piv, col } => TaskKind::Tsmqr {
                            row,
                            piv,
                            col,
                            j: q,
                        },
                        TaskKind::Ttqrt { row, piv, col } => TaskKind::Ttmqr {
                            row,
                            piv,
                            col,
                            j: q,
                        },
                        _ => continue,
                    };
                    let hits = wide.tasks.iter().filter(|w| w.kind == update).count();
                    assert_eq!(hits, 1, "{update:?}");
                    extra_weight += update.weight();
                }
                assert_eq!(wide.total_weight(), plain.total_weight() + extra_weight);
                for t in &wide.tasks {
                    match t.kind {
                        TaskKind::Geqrt { col, .. }
                        | TaskKind::Tsqrt { col, .. }
                        | TaskKind::Ttqrt { col, .. } => assert!(col < q, "{:?}", t.kind),
                        TaskKind::Unmqr { col, j, .. }
                        | TaskKind::Tsmqr { col, j, .. }
                        | TaskKind::Ttmqr { col, j, .. } => {
                            assert!(col < q && col < j && j <= q, "{:?}", t.kind)
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn single_tile_dag() {
        let list = flat_tree(1, 1);
        let dag = TaskDag::build(&list, KernelFamily::TT);
        assert_eq!(dag.len(), 1);
        assert!(matches!(
            dag.tasks[0].kind,
            TaskKind::Geqrt { row: 0, col: 0 }
        ));
        let dag = TaskDag::build(&list, KernelFamily::TS);
        assert_eq!(dag.len(), 1);
    }

    use crate::elim::EliminationList;
}
