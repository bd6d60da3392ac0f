//! Per-kernel storage footprints, and the static race-freedom analysis of
//! tiled-QR task DAGs built on them.
//!
//! [`footprint`] is the one table of which storage each kernel task touches.
//! The DAG builder in [`crate::dag`] reads it to derive dependencies: it
//! chains every task after the *last writer* of each tile the footprint
//! names. The runtime (`tileqr-runtime`'s shared factorization state) reads
//! it to take the locks of those tiles around each kernel. The builder never
//! tracks readers, so its correctness rests on a structural claim: at the
//! granularity the kernels actually access storage, every pair of
//! conflicting accesses ends up ordered by a DAG path anyway. [`analyze`]
//! *proves the claim per plan*, against the same table, instead of trusting
//! it.
//!
//! # The memory model
//!
//! Tile-level granularity is too coarse to express why the plans are safe:
//! `UNMQR(i, k, j)` reads the reflectors stored in the strict lower triangle
//! of tile `(i, k)` while a later `TTQRT(i, piv, k)` rewrites only the upper
//! triangle of the same tile — disjoint in reality, a phantom write-after-read
//! hazard if the tile is modelled as one cell. The analysis therefore splits
//! every tile into two [`Region`]s (`Upper` including the diagonal, and
//! `StrictLower`), and adds one slot per tile for each of the two `T` factors
//! the runtime keeps with it (`T` of `GEQRT`, `T` of the elimination that
//! annihilated the tile). Each task maps to a list of [`Access`]es over these
//! [`Resource`]s; `Write` means read-modify-write, so it conflicts with
//! everything. [`Resource::tile`] folds the four slots of a tile back into
//! the tile, the unit the builder orders and the runtime locks.
//!
//! # What is checked
//!
//! [`analyze`] walks the tasks in their stored (topological) order keeping,
//! per resource, the *frontier*: the last write and every read since it. Each
//! new access must be reachable in the DAG from the frontier entries it
//! conflicts with:
//!
//! * a read must be preceded by a path from the last write (RAW),
//! * a write must be preceded by paths from the last write (WAW) **and**
//!   from every read since it (WAR).
//!
//! Ordering against the frontier implies ordering against the whole history
//! by transitivity, so this is exactly the set of pairs that must be proven.
//! Reachability is resolved by a binary search in the direct predecessor
//! list first (the overwhelmingly common case — the builder chains conflicts
//! directly) and falls back to an exact backward depth-first search bounded
//! by the task-index interval.
//!
//! Structural invariants are verified on the way: predecessor lists strictly
//! increasing (which makes the stored order a topological order and the DAG
//! acyclic by construction), and the flat CSR successor form consistent with
//! the per-task predecessor lists (same edges, same out-degrees).
//!
//! The `tileqr-analyze` binary exposes the same analysis as a command-line
//! sweep over algorithms × kernel families × grid shapes and exits non-zero
//! on any hazard, so CI can gate on plan race-freedom.

use crate::algorithms::Algorithm;
use crate::dag::{KernelFamily, TaskDag, TaskKind};

/// Grid shapes appearing in the paper's tables (Tables 3–6), as pinned by
/// the `paper_tables` integration suite: the 40-row column study, the square
/// and tall-skinny sweeps, and the large grids of the experimental section.
/// The analyzer sweep (CLI and tests) proves race-freedom over all of them.
pub const PAPER_TABLE_SHAPES: &[(usize, usize)] = &[
    (40, 1),
    (40, 2),
    (40, 6),
    (40, 13),
    (40, 26),
    (40, 39),
    (40, 40),
    (16, 16),
    (32, 32),
    (64, 64),
    (128, 16),
    (128, 64),
    (128, 128),
    (2, 2),
    (5, 3),
    (15, 6),
    (40, 10),
    (24, 12),
    (48, 24),
    (96, 48),
    (192, 96),
    (144, 12),
];

/// The algorithm roster the analyzer sweeps for a `p × q` grid: the paper's
/// static baselines, both tree-with-domains variants at the domain sizes
/// 2–16 (every PlasmaTree [`crate::sim::choose_plan`] can return; BS = 1 is
/// the BinaryTree), and the dynamic Asap / Grasap pair.
pub fn algorithm_roster(p: usize, q: usize) -> Vec<Algorithm> {
    let mut algos = vec![
        Algorithm::FlatTree,
        Algorithm::Fibonacci,
        Algorithm::Greedy,
        Algorithm::BinaryTree,
        Algorithm::Asap,
        Algorithm::Grasap {
            asap_cols: q.div_ceil(2),
        },
    ];
    for bs in [2, 4, 8, 16] {
        if bs <= p {
            algos.push(Algorithm::PlasmaTree { bs });
            algos.push(Algorithm::HadriTree { bs });
        }
    }
    algos
}

/// Builds the task DAG of any algorithm from its
/// [`Algorithm::elimination_list`] — the plan the analyzer checks. `trailing`
/// is the number of update-only columns ([`TaskDag::trailing`]): 0 for a
/// factorization, 1 for the runtime's fused least-squares plan.
pub fn plan_dag(
    algo: Algorithm,
    p: usize,
    q: usize,
    family: KernelFamily,
    trailing: usize,
) -> TaskDag {
    TaskDag::build_with_trailing(&algo.elimination_list(p, q), family, trailing)
}

/// The two disjoint triangular regions of a tile.
///
/// The diagonal belongs to [`Region::Upper`]: the factor kernels treat the
/// diagonal as part of the `R` triangle, while the reflectors of `GEQRT`
/// occupy the strictly-lower part only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// Upper triangle including the diagonal (the `R` / triangular-V part).
    Upper,
    /// Strictly-lower triangle (the `V` storage of `GEQRT`).
    StrictLower,
}

/// One unit of shared storage a task can touch.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resource {
    /// A triangular region of matrix tile `(row, col)`.
    Tile {
        /// Tile row.
        row: usize,
        /// Tile column.
        col: usize,
        /// Which triangle.
        region: Region,
    },
    /// The `T` factor written by `GEQRT(row, col)`.
    TGeqrt {
        /// Tile row.
        row: usize,
        /// Tile column.
        col: usize,
    },
    /// The `T` factor written by the elimination (`TSQRT`/`TTQRT`) that
    /// annihilates tile `(row, col)`.
    TElim {
        /// Annihilated row.
        row: usize,
        /// Panel column.
        col: usize,
    },
}

impl Resource {
    /// The tile whose storage holds the resource: a region's own tile, or
    /// the tile a `T` factor belongs to.
    pub const fn tile(self) -> (usize, usize) {
        match self {
            Resource::Tile { row, col, .. }
            | Resource::TGeqrt { row, col }
            | Resource::TElim { row, col } => (row, col),
        }
    }
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Resource::Tile { row, col, region } => {
                let r = match region {
                    Region::Upper => "upper",
                    Region::StrictLower => "strict-lower",
                };
                write!(f, "tile ({row}, {col}) {r}")
            }
            Resource::TGeqrt { row, col } => write!(f, "T[geqrt] ({row}, {col})"),
            Resource::TElim { row, col } => write!(f, "T[elim] ({row}, {col})"),
        }
    }
}

/// Access mode. `Write` means read-modify-write: it conflicts with reads and
/// writes alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Read-only access.
    Read,
    /// Read-modify-write access.
    Write,
}

/// One resource access of a task's footprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// What is touched.
    pub resource: Resource,
    /// How it is touched.
    pub mode: Mode,
}

const fn read(resource: Resource) -> Access {
    Access {
        resource,
        mode: Mode::Read,
    }
}

const fn write(resource: Resource) -> Access {
    Access {
        resource,
        mode: Mode::Write,
    }
}

const fn upper(row: usize, col: usize) -> Resource {
    Resource::Tile {
        row,
        col,
        region: Region::Upper,
    }
}

const fn strict_lower(row: usize, col: usize) -> Resource {
    Resource::Tile {
        row,
        col,
        region: Region::StrictLower,
    }
}

/// Most accesses one task makes (`TSMQR`).
pub(crate) const MAX_ACCESSES: usize = 7;

/// The accesses of one task, as [`footprint`] returns them: a fixed-capacity
/// list, so the DAG builder and the runtime's per-task hot path read it
/// without allocating. Dereferences to the slice of accesses.
#[derive(Clone, Copy, Debug)]
pub struct Footprint {
    len: usize,
    accesses: [Access; MAX_ACCESSES],
}

impl Footprint {
    #[inline]
    fn of(accesses: &[Access]) -> Footprint {
        let mut all = [accesses[0]; MAX_ACCESSES];
        all[..accesses.len()].copy_from_slice(accesses);
        Footprint {
            len: accesses.len(),
            accesses: all,
        }
    }
}

impl std::ops::Deref for Footprint {
    type Target = [Access];

    fn deref(&self) -> &[Access] {
        &self.accesses[..self.len]
    }
}

/// The memory footprint of one kernel task, mirroring what the kernels in
/// `tileqr-kernels` actually dereference (see the module docs for the region
/// conventions).
#[inline]
pub fn footprint(kind: TaskKind) -> Footprint {
    match kind {
        // GEQRT factors the full tile in place (R into the upper triangle,
        // V into the strict lower) and fills its T factor.
        TaskKind::Geqrt { row, col } => Footprint::of(&[
            write(upper(row, col)),
            write(strict_lower(row, col)),
            write(Resource::TGeqrt { row, col }),
        ]),
        // UNMQR applies GEQRT's reflectors (strict lower V + T, read-only)
        // to the full tile (row, j).
        TaskKind::Unmqr { row, col, j } => Footprint::of(&[
            read(strict_lower(row, col)),
            read(Resource::TGeqrt { row, col }),
            write(upper(row, j)),
            write(strict_lower(row, j)),
        ]),
        // TSQRT couples the pivot's R triangle with the full square tile
        // being annihilated; the pivot's strict lower (GEQRT's V) is
        // untouched. The annihilated tile becomes full-square V storage.
        TaskKind::Tsqrt { row, piv, col } => Footprint::of(&[
            write(upper(piv, col)),
            write(upper(row, col)),
            write(strict_lower(row, col)),
            write(Resource::TElim { row, col }),
        ]),
        // TSMQR applies TSQRT's full-square reflectors (read-only) to the
        // tile pair (piv, j), (row, j).
        TaskKind::Tsmqr { row, piv, col, j } => Footprint::of(&[
            read(upper(row, col)),
            read(strict_lower(row, col)),
            read(Resource::TElim { row, col }),
            write(upper(piv, j)),
            write(strict_lower(piv, j)),
            write(upper(row, j)),
            write(strict_lower(row, j)),
        ]),
        // TTQRT couples two R triangles; both strict lower parts (the GEQRT
        // reflectors of the two rows) are untouched. The annihilated upper
        // triangle becomes triangular-V storage.
        TaskKind::Ttqrt { row, piv, col } => Footprint::of(&[
            write(upper(piv, col)),
            write(upper(row, col)),
            write(Resource::TElim { row, col }),
        ]),
        // TTMQR applies TTQRT's triangular reflectors (read-only) to the
        // tile pair (piv, j), (row, j).
        TaskKind::Ttmqr { row, piv, col, j } => Footprint::of(&[
            read(upper(row, col)),
            read(Resource::TElim { row, col }),
            write(upper(piv, j)),
            write(strict_lower(piv, j)),
            write(upper(row, j)),
            write(strict_lower(row, j)),
        ]),
    }
}

/// The kind of an unordered conflicting access pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HazardKind {
    /// A read not ordered after the preceding write.
    ReadAfterWrite,
    /// A write not ordered after a preceding read.
    WriteAfterRead,
    /// A write not ordered after the preceding write.
    WriteAfterWrite,
}

impl std::fmt::Display for HazardKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            HazardKind::ReadAfterWrite => "RAW",
            HazardKind::WriteAfterRead => "WAR",
            HazardKind::WriteAfterWrite => "WAW",
        };
        f.write_str(s)
    }
}

/// A pair of conflicting accesses with no DAG path between them.
#[derive(Clone, Debug)]
pub struct Hazard {
    /// Hazard class.
    pub kind: HazardKind,
    /// The contested resource.
    pub resource: Resource,
    /// Index (into [`TaskDag::tasks`]) of the earlier task.
    pub first: usize,
    /// Kernel of the earlier task.
    pub first_task: TaskKind,
    /// Index of the later task.
    pub second: usize,
    /// Kernel of the later task.
    pub second_task: TaskKind,
}

impl std::fmt::Display for Hazard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hazard on {}: task #{} {:?} and task #{} {:?} are unordered",
            self.kind, self.resource, self.first, self.first_task, self.second, self.second_task
        )
    }
}

/// Outcome of analysing one plan. The plan is proven race-free iff
/// [`AnalysisReport::is_race_free`] — no hazards *and* no structural errors
/// (a malformed DAG voids the hazard scan's assumptions).
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Number of tasks in the DAG.
    pub tasks: usize,
    /// Number of dependency edges.
    pub edges: usize,
    /// Number of distinct resources touched.
    pub resources: usize,
    /// Conflicting access pairs whose ordering was proven.
    pub ordered_pairs: u64,
    /// How many of those needed the exact reachability search (the rest
    /// were direct predecessor edges).
    pub transitive_pairs: u64,
    /// Unordered conflicting pairs (races). Empty for a correct plan.
    pub hazards: Vec<Hazard>,
    /// Violations of the DAG's structural invariants (topological storage
    /// order, sorted/deduplicated predecessor lists, predecessor/successor
    /// representation agreement).
    pub structure_errors: Vec<String>,
}

impl AnalysisReport {
    /// True iff the plan was proven race-free.
    pub fn is_race_free(&self) -> bool {
        self.hazards.is_empty() && self.structure_errors.is_empty()
    }
}

/// Per-resource frontier: the last write and every read since it. Ordering
/// each new access against the frontier orders it against the entire access
/// history by transitivity.
#[derive(Clone, Default)]
struct Frontier {
    last_write: Option<u32>,
    readers: Vec<u32>,
}

/// Exact reachability oracle: "is there a DAG path from `src` to `dst`?"
/// for `src < dst`. Fast path: `src` is a direct predecessor of `dst`
/// (binary search — predecessor lists are sorted). Slow path: backward DFS
/// from `dst`, pruned to the index interval `(src, dst]` (every predecessor
/// index is smaller than its task's, so no path leaves the interval).
struct Reachability {
    /// Reusable DFS mark, keyed by task index; `epoch` avoids clearing.
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl Reachability {
    fn new(n: usize) -> Self {
        Reachability {
            mark: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    fn direct(dag: &TaskDag, src: u32, dst: u32) -> bool {
        dag.tasks[dst as usize]
            .deps
            .binary_search(&(src as usize))
            .is_ok()
    }

    fn reaches(&mut self, dag: &TaskDag, src: u32, dst: u32) -> bool {
        if Self::direct(dag, src, dst) {
            return true;
        }
        self.epoch += 1;
        self.stack.clear();
        self.stack.push(dst);
        self.mark[dst as usize] = self.epoch;
        while let Some(t) = self.stack.pop() {
            for &d in &dag.tasks[t as usize].deps {
                let d = d as u32;
                if d == src {
                    return true;
                }
                if d > src && self.mark[d as usize] != self.epoch {
                    self.mark[d as usize] = self.epoch;
                    self.stack.push(d);
                }
            }
        }
        false
    }
}

/// Dense resource indexing: 4 slots per tile (two regions + two T factors)
/// over all `q + trailing` tile columns. The T slots of a trailing column
/// stay untouched — no factor task runs there.
#[inline]
fn slot(p: usize, resource: Resource) -> usize {
    let (row, col, s) = match resource {
        Resource::Tile {
            row,
            col,
            region: Region::Upper,
        } => (row, col, 0),
        Resource::Tile {
            row,
            col,
            region: Region::StrictLower,
        } => (row, col, 1),
        Resource::TGeqrt { row, col } => (row, col, 2),
        Resource::TElim { row, col } => (row, col, 3),
    };
    (col * p + row) * 4 + s
}

fn check_structure(dag: &TaskDag, errors: &mut Vec<String>) {
    for (idx, t) in dag.tasks.iter().enumerate() {
        let mut prev: Option<usize> = None;
        for &d in &t.deps {
            if d >= idx {
                errors.push(format!(
                    "task #{idx} {:?} depends on #{d}, which is not earlier in the \
                     topological storage order",
                    t.kind
                ));
            }
            if let Some(p) = prev {
                if d <= p {
                    errors.push(format!(
                        "task #{idx} {:?} has an unsorted or duplicated predecessor \
                         list ({p} then {d})",
                        t.kind
                    ));
                }
            }
            prev = Some(d);
        }
    }
    // The two adjacency representations must describe the same DAG: the CSR
    // successor form is what the runtime executor consumes, the predecessor
    // lists are what this analysis walks.
    let csr = dag.successors_csr();
    let edge_count: usize = dag.tasks.iter().map(|t| t.deps.len()).sum();
    if csr.edge_count() != edge_count {
        errors.push(format!(
            "successor CSR has {} edges but predecessor lists have {edge_count}",
            csr.edge_count()
        ));
    }
    let succ = dag.successors();
    let max_out = succ.iter().map(Vec::len).max().unwrap_or(0);
    if csr.max_out_degree() != max_out {
        errors.push(format!(
            "successor CSR max out-degree {} disagrees with the recomputed {max_out}",
            csr.max_out_degree()
        ));
    }
    for (i, s) in succ.iter().enumerate() {
        if csr.of(i) != s.as_slice() {
            errors.push(format!(
                "successor CSR row {i} disagrees with the adjacency list"
            ));
            break;
        }
    }
}

/// Proves (or refutes) that every pair of conflicting resource accesses in
/// the plan is ordered by a DAG path. See the module docs for the memory
/// model and the frontier argument.
pub fn analyze(dag: &TaskDag) -> AnalysisReport {
    let n = dag.tasks.len();
    let mut structure_errors = Vec::new();
    check_structure(dag, &mut structure_errors);

    let slots = dag.p * (dag.q + dag.trailing) * 4;
    let mut frontiers: Vec<Frontier> = vec![Frontier::default(); slots];
    let mut touched = vec![false; slots];
    let mut resources = 0usize;
    let mut reach = Reachability::new(n);
    let mut ordered_pairs = 0u64;
    let mut transitive_pairs = 0u64;
    let mut hazards = Vec::new();

    for idx in 0..n {
        let kind = dag.tasks[idx].kind;
        for &Access { resource, mode } in footprint(kind).iter() {
            let s = slot(dag.p, resource);
            if !touched[s] {
                touched[s] = true;
                resources += 1;
            }
            let f = &mut frontiers[s];
            let me = idx as u32;
            // Order against the last write (RAW for reads, WAW for writes).
            if let Some(w) = f.last_write {
                if reach.reaches(dag, w, me) {
                    ordered_pairs += 1;
                    if !Reachability::direct(dag, w, me) {
                        transitive_pairs += 1;
                    }
                } else {
                    hazards.push(Hazard {
                        kind: match mode {
                            Mode::Read => HazardKind::ReadAfterWrite,
                            Mode::Write => HazardKind::WriteAfterWrite,
                        },
                        resource,
                        first: w as usize,
                        first_task: dag.tasks[w as usize].kind,
                        second: idx,
                        second_task: kind,
                    });
                }
            }
            match mode {
                Mode::Read => f.readers.push(me),
                Mode::Write => {
                    // WAR: the new write must also follow every read since
                    // the last write.
                    for &r in &f.readers {
                        if reach.reaches(dag, r, me) {
                            ordered_pairs += 1;
                            if !Reachability::direct(dag, r, me) {
                                transitive_pairs += 1;
                            }
                        } else {
                            hazards.push(Hazard {
                                kind: HazardKind::WriteAfterRead,
                                resource,
                                first: r as usize,
                                first_task: dag.tasks[r as usize].kind,
                                second: idx,
                                second_task: kind,
                            });
                        }
                    }
                    f.readers.clear();
                    f.last_write = Some(me);
                }
            }
        }
    }

    AnalysisReport {
        tasks: n,
        edges: dag.tasks.iter().map(|t| t.deps.len()).sum(),
        resources,
        ordered_pairs,
        transitive_pairs,
        hazards,
        structure_errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::Algorithm;
    use crate::dag::{KernelFamily, TaskNode};

    fn race_free(
        p: usize,
        q: usize,
        algo: Algorithm,
        family: KernelFamily,
        trailing: usize,
    ) -> AnalysisReport {
        analyze(&plan_dag(algo, p, q, family, trailing))
    }

    #[test]
    fn small_plans_are_race_free() {
        for family in [KernelFamily::TT, KernelFamily::TS] {
            for algo in [
                Algorithm::FlatTree,
                Algorithm::Greedy,
                Algorithm::BinaryTree,
                Algorithm::PlasmaTree { bs: 2 },
            ] {
                let plain = race_free(4, 3, algo, family, 0);
                let solve = race_free(4, 3, algo, family, 1);
                for report in [&plain, &solve] {
                    assert!(
                        report.is_race_free(),
                        "{} {family:?}: {:?} {:?}",
                        algo.name(),
                        report.hazards.first(),
                        report.structure_errors.first(),
                    );
                }
                assert!(plain.ordered_pairs > 0);
                // The trailing column adds its own tiles and conflicts.
                assert!(solve.resources > plain.resources);
                assert!(solve.ordered_pairs > plain.ordered_pairs);
            }
        }
    }

    /// The checker has teeth: dropping one dependency edge from a real plan
    /// must surface as a hazard on the affected resource.
    #[test]
    fn severed_edge_is_reported() {
        let list = Algorithm::Greedy.elimination_list(4, 3);
        let mut dag = TaskDag::build(&list, KernelFamily::TT);
        // Find an UNMQR and sever its dependency on its GEQRT: the reflector
        // read (strict lower + T) is no longer ordered after the factor.
        let (idx, geqrt) = dag
            .tasks
            .iter()
            .enumerate()
            .find_map(|(i, t)| match t.kind {
                TaskKind::Unmqr { .. } => Some((i, t.deps[0])),
                _ => None,
            })
            .expect("every plan has an UNMQR");
        dag.tasks[idx].deps.retain(|&d| d != geqrt);
        let report = analyze(&dag);
        assert!(
            report.hazards.iter().any(|h| {
                h.kind == HazardKind::ReadAfterWrite && h.first == geqrt && h.second == idx
            }),
            "severed GEQRT→UNMQR edge not detected: {:?}",
            report.hazards
        );
    }

    /// An artificial DAG with two unordered writers of the same tile region
    /// is flagged as WAW.
    #[test]
    fn unordered_writers_are_reported() {
        let dag = TaskDag {
            p: 2,
            q: 1,
            trailing: 0,
            family: KernelFamily::TT,
            tasks: vec![
                TaskNode {
                    kind: TaskKind::Geqrt { row: 0, col: 0 },
                    deps: vec![],
                },
                TaskNode {
                    kind: TaskKind::Geqrt { row: 0, col: 0 },
                    deps: vec![],
                },
            ],
        };
        let report = analyze(&dag);
        assert!(report
            .hazards
            .iter()
            .all(|h| h.kind == HazardKind::WriteAfterWrite && h.first == 0 && h.second == 1));
        assert_eq!(report.hazards.len(), 3, "upper, strict lower and T[geqrt]");
    }

    /// Malformed structure (dep on a later index) is a structural error.
    #[test]
    fn forward_dependency_is_a_structure_error() {
        let dag = TaskDag {
            p: 1,
            q: 1,
            trailing: 0,
            family: KernelFamily::TT,
            tasks: vec![TaskNode {
                kind: TaskKind::Geqrt { row: 0, col: 0 },
                deps: vec![0],
            }],
        };
        let report = analyze(&dag);
        assert!(!report.is_race_free());
        assert!(!report.structure_errors.is_empty());
    }
}
