//! Critical-path and schedule simulation for the weighted tiled model.
//!
//! This module plays the role of the discrete-event simulator the authors
//! built on SimGrid: given a task DAG (or a dynamic algorithm), it computes
//!
//! * the ASAP schedule with **unbounded** processors — task finish times,
//!   per-tile elimination times (the paper's Tables 3 and 4) and the critical
//!   path length (Table 5, Figures 1–3 and 6–8);
//! * a **bounded**-processor list schedule under a per-task cost, used to
//!   sanity-check the roofline performance model of Section 4 (unit costs)
//!   and, under measured kernel costs, to choose a plan ([`choose_plan`]);
//! * the **dynamic** algorithms Asap and Grasap(k) of Section 3.2, whose
//!   elimination choices depend on the weighted task timing and therefore
//!   must be co-simulated rather than generated statically.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use crate::algorithms::{greedy, pair_bottom_rows, Algorithm};
use crate::dag::{KernelFamily, TaskDag, TaskKind};
use crate::elim::{Elimination, EliminationList};

/// Kernel weights used by the dynamic simulator (same as
/// [`TaskKind::weight`], duplicated as constants for readability).
const W_GEQRT: u64 = 4;
const W_UNMQR: u64 = 6;
const W_TTQRT: u64 = 2;
const W_TTMQR: u64 = 6;

/// Result of simulating a task DAG with unbounded processors.
#[derive(Clone, Debug)]
pub struct UnboundedSchedule {
    /// Finish time of every task, indexed like `TaskDag::tasks`.
    pub finish: Vec<u64>,
    /// Critical path length (makespan with unbounded processors).
    pub critical_path: u64,
}

/// ASAP schedule with unbounded processors: every task starts as soon as all
/// of its predecessors have finished.
pub fn simulate_unbounded(dag: &TaskDag) -> UnboundedSchedule {
    let mut finish = vec![0u64; dag.tasks.len()];
    let mut cp = 0u64;
    for (idx, task) in dag.tasks.iter().enumerate() {
        let start = task.deps.iter().map(|&d| finish[d]).max().unwrap_or(0);
        finish[idx] = start + task.kind.weight();
        cp = cp.max(finish[idx]);
    }
    UnboundedSchedule {
        finish,
        critical_path: cp,
    }
}

/// Per-tile elimination finish times (`None` for tiles on or above the
/// diagonal), as reported in the paper's Tables 3 and 4: entry `(i, k)` is
/// the time at which tile `(i, k)` is zeroed out (finish time of its
/// TSQRT/TTQRT task).
pub fn elimination_finish_times(dag: &TaskDag, sched: &UnboundedSchedule) -> Vec<Vec<Option<u64>>> {
    let mut out = vec![vec![None; dag.q]; dag.p];
    for (idx, task) in dag.tasks.iter().enumerate() {
        match task.kind {
            TaskKind::Tsqrt { row, col, .. } | TaskKind::Ttqrt { row, col, .. } => {
                out[row][col] = Some(sched.finish[idx]);
            }
            _ => {}
        }
    }
    out
}

/// Convenience: critical path of an elimination list under a kernel family.
pub fn critical_path(list: &EliminationList, family: KernelFamily) -> u64 {
    simulate_unbounded(&TaskDag::build(list, family)).critical_path
}

/// List-scheduling simulation with `procs` processors, each task taking
/// `cost(kind)` time units: ready tasks are started in DAG (topological)
/// order whenever a processor is free. Returns the makespan. The paper's
/// unit is [`TaskKind::weight`]; [`choose_plan`] passes measured kernel
/// times.
pub fn simulate_bounded(dag: &TaskDag, procs: usize, cost: impl Fn(TaskKind) -> u64) -> u64 {
    assert!(procs >= 1, "need at least one processor");
    let n = dag.tasks.len();
    if n == 0 {
        return 0;
    }
    let succ = dag.successors();
    let mut missing: Vec<usize> = dag.tasks.iter().map(|t| t.deps.len()).collect();
    // ready tasks ordered by (ready_time, index)
    let mut ready: BTreeSet<(u64, usize)> = BTreeSet::new();
    let mut ready_time = vec![0u64; n];
    for (idx, m) in missing.iter().enumerate() {
        if *m == 0 {
            ready.insert((0, idx));
        }
    }
    // processors as a min-heap of free times
    let mut free: BinaryHeap<std::cmp::Reverse<u64>> =
        (0..procs).map(|_| std::cmp::Reverse(0u64)).collect();
    let mut finish = vec![0u64; n];
    let mut makespan = 0u64;
    let mut scheduled = 0usize;
    while scheduled < n {
        let &(rt, idx) = ready
            .iter()
            .next()
            .expect("no ready task but DAG not finished — cycle?");
        ready.remove(&(rt, idx));
        let std::cmp::Reverse(proc_free) = free.pop().expect("no processor");
        let start = rt.max(proc_free);
        let end = start + cost(dag.tasks[idx].kind);
        finish[idx] = end;
        makespan = makespan.max(end);
        free.push(std::cmp::Reverse(end));
        scheduled += 1;
        for &s in &succ[idx] {
            missing[s] -= 1;
            ready_time[s] = ready_time[s].max(end);
            if missing[s] == 0 {
                ready.insert((ready_time[s], s));
            }
        }
    }
    makespan
}

/// Result of co-simulating a dynamic algorithm (Asap or Grasap).
#[derive(Clone, Debug)]
pub struct DynamicSchedule {
    /// The elimination list chosen by the dynamic algorithm (valid, ordered).
    pub list: EliminationList,
    /// Per-tile elimination finish times, as in
    /// [`elimination_finish_times`].
    pub elim_finish: Vec<Vec<Option<u64>>>,
    /// Critical path length (makespan with unbounded processors).
    pub critical_path: u64,
}

/// Asap (Section 3.2): in every column, start eliminating as soon as at least
/// two rows are ready (triangularized, not yet eliminated, not busy). When
/// `2s` rows are ready the first `s` (closest to the diagonal) become pivots
/// for the next `s`.
pub fn simulate_asap(p: usize, q: usize) -> DynamicSchedule {
    simulate_grasap(p, q, q)
}

/// Grasap(k): follow the Greedy elimination list on the first `q − k` columns
/// and switch to Asap mode for the last `k` columns. `Grasap(0)` is Greedy,
/// `Grasap(q)` is Asap.
pub fn simulate_grasap(p: usize, q: usize, asap_cols: usize) -> DynamicSchedule {
    let kmax = p.min(q);
    let split = q.saturating_sub(asap_cols).min(kmax);

    // last_write[r][j]: finish time of the last task writing tile (r, j)
    let mut last_write = vec![vec![0u64; q]; p];
    // whether tile (r, j) has been written at all (to distinguish time 0)
    let mut geqrt_done = vec![vec![false; q]; p];
    let mut eliminated = vec![vec![false; q]; p];
    let mut elim_finish: Vec<Vec<Option<u64>>> = vec![vec![None; q]; p];
    let mut cp = 0u64;
    let mut elims_out: Vec<Elimination> = Vec::with_capacity(EliminationList::expected_len(p, q));

    let bump = |cp: &mut u64, t: u64| {
        if t > *cp {
            *cp = t;
        }
    };

    // ---- phase 1: static Greedy columns 0..split -------------------------
    let greedy_list = if split > 0 { Some(greedy(p, q)) } else { None };
    for k in 0..split {
        // triangularize every active row and update its trailing tiles
        for i in k..p {
            let g = last_write[i][k] + W_GEQRT;
            last_write[i][k] = g;
            geqrt_done[i][k] = true;
            bump(&mut cp, g);
            for j in (k + 1)..q {
                let u = g.max(last_write[i][j]) + W_UNMQR;
                last_write[i][j] = u;
                bump(&mut cp, u);
            }
        }
        // prescribed eliminations, in list order
        for e in greedy_list.as_ref().unwrap().column(k) {
            let t = last_write[e.row][k].max(last_write[e.piv][k]) + W_TTQRT;
            last_write[e.row][k] = t;
            last_write[e.piv][k] = t;
            eliminated[e.row][k] = true;
            elim_finish[e.row][k] = Some(t);
            bump(&mut cp, t);
            elims_out.push(e);
            for j in (k + 1)..q {
                let u = t.max(last_write[e.row][j]).max(last_write[e.piv][j]) + W_TTMQR;
                last_write[e.row][j] = u;
                last_write[e.piv][j] = u;
                bump(&mut cp, u);
            }
        }
    }

    // ---- phase 2: dynamic Asap columns split..kmax -----------------------
    if split < kmax {
        // events: time -> set of columns whose ready pool may have changed
        let mut events: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();

        // the first dynamic column starts with every active row; later dynamic
        // columns are fed row by row as eliminations proceed.
        for i in split..p {
            let g = last_write[i][split] + W_GEQRT;
            last_write[i][split] = g;
            geqrt_done[i][split] = true;
            bump(&mut cp, g);
            for j in (split + 1)..q {
                let u = g.max(last_write[i][j]) + W_UNMQR;
                last_write[i][j] = u;
                bump(&mut cp, u);
            }
            events.entry(g).or_default().insert(split);
        }

        while let Some((&t, _)) = events.iter().next() {
            let cols = events.remove(&t).unwrap();
            for col in cols {
                if col >= kmax {
                    continue;
                }
                // ready pool: triangularized, not eliminated, free at time t
                let pool: Vec<usize> = (col..p)
                    .filter(|&r| {
                        geqrt_done[r][col] && !eliminated[r][col] && last_write[r][col] <= t
                    })
                    .collect();
                let z = pool.len() / 2;
                if z == 0 {
                    continue;
                }
                // Asap pairing (Section 3.2): when 2s rows are ready the
                // first s (closest to the diagonal) pivot the next s. With an
                // odd pool we keep the Greedy/Fibonacci convention of pairing
                // the *bottom* rows and leaving the top one idle, which
                // reproduces the paper's Table 4 values.
                for (row, piv) in pair_bottom_rows(&pool, z) {
                    let tq = t + W_TTQRT;
                    last_write[row][col] = tq;
                    last_write[piv][col] = tq;
                    eliminated[row][col] = true;
                    elim_finish[row][col] = Some(tq);
                    bump(&mut cp, tq);
                    elims_out.push(Elimination::new(row, piv, col));
                    // the pivot becomes available again when the TTQRT ends
                    events.entry(tq).or_default().insert(col);
                    // trailing updates
                    for j in (col + 1)..q {
                        let u = tq.max(last_write[row][j]).max(last_write[piv][j]) + W_TTMQR;
                        last_write[row][j] = u;
                        last_write[piv][j] = u;
                        bump(&mut cp, u);
                    }
                    // the eliminated row moves on to the next column
                    let next = col + 1;
                    if next < q {
                        let g = last_write[row][next] + W_GEQRT;
                        last_write[row][next] = g;
                        geqrt_done[row][next] = true;
                        bump(&mut cp, g);
                        for j in (next + 1)..q {
                            let u = g.max(last_write[row][j]) + W_UNMQR;
                            last_write[row][j] = u;
                            bump(&mut cp, u);
                        }
                        if next < kmax {
                            events.entry(g).or_default().insert(next);
                        }
                    }
                }
            }
        }
    }

    // Diagonal tiles of trailing columns (k ≥ split) that never pivoted still
    // get their GEQRT accounted for (e.g. the (q−1, q−1) tile of a square
    // matrix): it is already included above because every active row of each
    // dynamic column receives a GEQRT when it enters the column.

    let list = EliminationList::new(p, q, elims_out);
    DynamicSchedule {
        list,
        elim_finish,
        critical_path: cp,
    }
}

/// Finds the domain size `BS` minimizing the PlasmaTree critical path for a
/// `p × q` grid and the given kernel family, scanning `1 ≤ BS ≤ p` (this is
/// the exhaustive search the paper performs to give PlasmaTree its best
/// configuration). Returns `(best_bs, critical_path)`.
pub fn best_plasma_tree(p: usize, q: usize, family: KernelFamily) -> (usize, u64) {
    let mut best = (1usize, u64::MAX);
    for bs in 1..=p.max(1) {
        let list = crate::algorithms::plasma_tree(p, q, bs);
        let cp = critical_path(&list, family);
        if cp < best.1 {
            best = (bs, cp);
        }
    }
    best
}

/// Relative time of one task of each kernel, in units of 10 µs: the
/// `simd_dispatch` AVX-512 rows of `BENCH_kernels.json` at `nb = 128`
/// (second `host` block), rounded. Per flop the TS kernels run 1.4–1.7×
/// faster than their TT twins, which the paper's unit weights cannot see.
/// These are constants rather than a per-host probe so that a plan, and the
/// bits of its result, do not flip with a noisy timing. The factor rows
/// (GEQRT, TSQRT, TTQRT) describe the column-sweep panels the kernels ran
/// before their panels became recursive, and so overstate the factor
/// kernels' cost now; the table is kept as it is until the chooser is
/// re-costed as a whole.
fn kernel_cost(kind: TaskKind) -> u64 {
    match kind {
        TaskKind::Geqrt { .. } => 21,
        TaskKind::Unmqr { .. } => 16,
        TaskKind::Tsqrt { .. } => 33,
        TaskKind::Tsmqr { .. } => 36,
        TaskKind::Ttqrt { .. } => 19,
        TaskKind::Ttmqr { .. } => 26,
    }
}

/// The PlasmaTree domain sizes [`choose_plan`] tries. The largest is the
/// accuracy cap: flat TS domains lose orthogonality as they grow
/// (FlatTree/TS ends over 3× above Greedy/TT's `‖QᴴQ − I‖` at `p = 1024`),
/// while domains of up to 16 tile rows stay within 2× of it
/// (`tests/numerics_hardening.rs`).
const CHOOSER_DOMAINS: [usize; 5] = [1, 2, 4, 8, 16];

/// The plan — reduction tree and kernel family — with the smallest
/// simulated makespan on `procs` processors for a `p × q` tile grid, each
/// task costed by its measured kernel time ([`simulate_bounded`]).
///
/// The candidates, in tie-breaking order (the first of equal makespans
/// wins): Greedy/TT, then PlasmaTree(BS)/TS for BS = 1, 2, 4, 8, 16 — flat
/// TS domains merged by a binary TT tree, PLASMA's tree and the TSQR shape.
/// Domains stop at the first BS ≥ p (larger ones build the same plan) and at
/// 16 rows, the accuracy cap. A pure function of its arguments: the
/// runtime's default config passes the host's core count.
///
/// The costs are one host's (AVX-512, `nb = 128`), and the plans chosen were
/// timed end to end only at `procs = 2` and `nb ∈ {64, 128}`; the choices at
/// other processor counts are the simulation's alone.
pub fn choose_plan(p: usize, q: usize, procs: usize) -> (Algorithm, KernelFamily) {
    let mut candidates = vec![(Algorithm::Greedy, KernelFamily::TT)];
    for bs in CHOOSER_DOMAINS {
        candidates.push((Algorithm::PlasmaTree { bs }, KernelFamily::TS));
        if bs >= p {
            break;
        }
    }
    // `min_by_key` keeps the first of equal keys.
    candidates
        .into_iter()
        .min_by_key(|&(algo, family)| {
            let dag = TaskDag::build(&algo.elimination_list(p, q), family);
            simulate_bounded(&dag, procs, kernel_cost)
        })
        .expect("Greedy/TT is always a candidate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{binary_tree, fibonacci, flat_tree, greedy, plasma_tree};
    use crate::formulas;

    fn tt_elim_times(algo: Algorithm, p: usize, q: usize) -> Vec<Vec<Option<u64>>> {
        let list = algo.elimination_list(p, q);
        let dag = TaskDag::build(&list, KernelFamily::TT);
        let sched = simulate_unbounded(&dag);
        elimination_finish_times(&dag, &sched)
    }

    /// Table 3(a): FlatTree (Sameh-Kuck with TT kernels) on 15 × 6.
    /// The closed form is 6·i + 16·k − 22 in one-based indices (Theorem 1).
    #[test]
    fn table_3_flat_tree_column_and_formula() {
        let times = tt_elim_times(Algorithm::FlatTree, 15, 6);
        // column 1 of the table: 6, 8, 10, …, 32 (GEQRT then a chain of TTQRTs)
        for i in 1..15usize {
            assert_eq!(times[i][0], Some(4 + 2 * i as u64), "tile ({}, 1)", i + 1);
        }
        // interior tiles follow 6i + 16k − 22 (one-based)
        for k in 1..6usize {
            for i in (k + 1)..15usize {
                let expected = 6 * (i as u64 + 1) + 16 * (k as u64 + 1) - 22;
                assert_eq!(times[i][k], Some(expected), "tile ({}, {})", i + 1, k + 1);
            }
        }
    }

    /// Table 3(b)/(c): spot-check Fibonacci and Greedy elimination times for
    /// the 15 × 6 example against the published table.
    #[test]
    fn table_3_fibonacci_and_greedy_spot_checks() {
        let fib = tt_elim_times(Algorithm::Fibonacci, 15, 6);
        // row 2: 14 ; row 8 row: 8 36 62 84 108 134 ; row 15: 6 22 44 60 94 116
        assert_eq!(fib[1][0], Some(14));
        let row8 = [8u64, 36, 62, 84, 108, 134];
        for (k, &want) in row8.iter().enumerate() {
            assert_eq!(fib[7][k], Some(want), "Fibonacci tile (8, {})", k + 1);
        }
        let row15 = [6u64, 22, 44, 60, 94, 116];
        for (k, &want) in row15.iter().enumerate() {
            assert_eq!(fib[14][k], Some(want), "Fibonacci tile (15, {})", k + 1);
        }

        let gre = tt_elim_times(Algorithm::Greedy, 15, 6);
        assert_eq!(gre[1][0], Some(12));
        let row9 = [6u64, 28, 50, 72, 100, 118];
        for (k, &want) in row9.iter().enumerate() {
            assert_eq!(gre[8][k], Some(want), "Greedy tile (9, {})", k + 1);
        }
        let row15 = [6u64, 22, 38, 60, 76, 98];
        for (k, &want) in row15.iter().enumerate() {
            assert_eq!(gre[14][k], Some(want), "Greedy tile (15, {})", k + 1);
        }
    }

    /// Table 3(d)/(e): BinaryTree and PlasmaTree(BS = 5) spot checks.
    #[test]
    fn table_3_binary_and_plasma_spot_checks() {
        let bt = tt_elim_times(Algorithm::BinaryTree, 15, 6);
        assert_eq!(bt[1][0], Some(6));
        let row15 = [8u64, 28, 66, 90, 114, 134];
        for (k, &want) in row15.iter().enumerate() {
            assert_eq!(bt[14][k], Some(want), "BinaryTree tile (15, {})", k + 1);
        }

        let pt = tt_elim_times(Algorithm::PlasmaTree { bs: 5 }, 15, 6);
        assert_eq!(pt[1][0], Some(6));
        assert_eq!(pt[5][0], Some(14));
        assert_eq!(pt[10][0], Some(16));
        let row15 = [12u64, 40, 56, 72, 140, 164];
        for (k, &want) in row15.iter().enumerate() {
            assert_eq!(pt[14][k], Some(want), "PlasmaTree tile (15, {})", k + 1);
        }
    }

    /// Table 4(b): Greedy vs Asap critical paths for square-ish grids.
    #[test]
    fn table_4b_greedy_vs_asap_critical_paths() {
        let cases = [
            // (p, q, greedy, asap)
            (16usize, 16usize, 310u64, 310u64),
            (32, 16, 360, 402),
            (32, 32, 650, 656),
            (64, 16, 374, 588),
            (64, 32, 726, 844),
            (64, 64, 1342, 1354),
        ];
        for (p, q, want_greedy, want_asap) in cases {
            let g = critical_path(&greedy(p, q), KernelFamily::TT);
            assert_eq!(g, want_greedy, "Greedy critical path for {p}x{q}");
            let a = simulate_asap(p, q);
            assert_eq!(a.critical_path, want_asap, "Asap critical path for {p}x{q}");
            assert!(
                a.list.validate().is_ok(),
                "Asap produced an invalid list for {p}x{q}"
            );
        }
    }

    /// Table 4(a): per-tile elimination times of Greedy, Asap and Grasap(1)
    /// on the 15 × 2 and 15 × 3 grids (spot checks, plus the headline
    /// critical paths 64 / 62 discussed in Section 3.2).
    #[test]
    fn table_4a_greedy_asap_grasap() {
        // 15 x 2: Greedy tile times from the table (first two columns of
        // Table 4a): tile (2,1) = 12, tile (3,2) = 42, tile (15,2) = 22.
        let g2 = tt_elim_times(Algorithm::Greedy, 15, 2);
        assert_eq!(g2[1][0], Some(12));
        assert_eq!(g2[14][1], Some(22));
        assert_eq!(g2[2][1], Some(42));
        // 15 x 2, Asap finishes earlier than Greedy (40 vs 42 for tile (3,2))
        let a2 = simulate_asap(15, 2);
        assert_eq!(a2.elim_finish[2][1], Some(40));
        assert!(a2.critical_path <= critical_path(&greedy(15, 2), KernelFamily::TT));

        // 15 x 3: Greedy beats Asap (64 vs 86 at tile (4,3)); Grasap(1) ends at 62.
        let g3 = tt_elim_times(Algorithm::Greedy, 15, 3);
        assert_eq!(g3[3][2], Some(64));
        let a3 = simulate_asap(15, 3);
        assert_eq!(a3.elim_finish[3][2], Some(86));
        let gr3 = simulate_grasap(15, 3, 1);
        assert_eq!(gr3.elim_finish[3][2], Some(62));
        assert!(gr3.list.validate().is_ok());
    }

    /// Table 5 (theoretical critical paths for p = 40): Greedy, Fibonacci and
    /// the best PlasmaTree domain size.
    #[test]
    fn table_5_critical_paths_p40() {
        let cases: [(usize, u64, u64, usize, u64); 6] = [
            // (q, greedy, fibonacci, best_bs, plasma_best)
            (1, 16, 22, 1, 16),
            (2, 54, 72, 3, 60),
            (5, 126, 138, 5, 166),
            (10, 236, 248, 10, 310),
            (20, 454, 468, 20, 534),
            (40, 826, 892, 20, 856),
        ];
        for (q, want_greedy, want_fib, want_bs, want_plasma) in cases {
            let g = critical_path(&greedy(40, q), KernelFamily::TT);
            assert_eq!(g, want_greedy, "Greedy cp for q={q}");
            let f = critical_path(&fibonacci(40, q), KernelFamily::TT);
            assert_eq!(f, want_fib, "Fibonacci cp for q={q}");
            let (bs, cp) = best_plasma_tree(40, q, KernelFamily::TT);
            assert_eq!(cp, want_plasma, "PlasmaTree best cp for q={q}");
            assert_eq!(bs, want_bs, "PlasmaTree best BS for q={q}");
        }
    }

    /// Theorem 1(1): the FlatTree critical path matches its closed form.
    #[test]
    fn flat_tree_critical_path_formula() {
        for (p, q) in [
            (2usize, 1usize),
            (10, 1),
            (5, 3),
            (15, 6),
            (40, 10),
            (6, 6),
            (12, 12),
        ] {
            let cp = critical_path(&flat_tree(p, q), KernelFamily::TT);
            assert_eq!(cp, formulas::flat_tree_tt_cp(p, q), "p={p}, q={q}");
        }
    }

    /// Proposition 2: the TS-FlatTree critical path matches its closed form.
    #[test]
    fn ts_flat_tree_critical_path_formula() {
        for (p, q) in [
            (2usize, 1usize),
            (10, 1),
            (5, 3),
            (15, 6),
            (40, 10),
            (6, 6),
            (12, 12),
        ] {
            let cp = critical_path(&flat_tree(p, q), KernelFamily::TS);
            assert_eq!(cp, formulas::flat_tree_ts_cp(p, q), "p={p}, q={q}");
        }
    }

    /// Proposition 1: BinaryTree critical path for powers of two,
    /// (10 + 6·log₂p)·q − 4·log₂p − 6.
    #[test]
    fn binary_tree_critical_path_formula() {
        for (p, q) in [(4usize, 2usize), (8, 4), (16, 8), (32, 16), (64, 4)] {
            let cp = critical_path(&binary_tree(p, q), KernelFamily::TT);
            assert_eq!(
                cp,
                formulas::binary_tree_tt_cp_power_of_two(p, q),
                "p={p}, q={q}"
            );
        }
    }

    /// Theorem 1(2): Fibonacci and Greedy critical paths respect their upper
    /// bounds, and Theorem 1(3): no algorithm beats 22q − 30 on tall
    /// matrices. (For nearly-square matrices the trailing columns have fewer
    /// than three sub-diagonal tiles, so the banded argument behind the lower
    /// bound does not apply — the paper's own Table 5 reports Greedy at 826
    /// for 40 × 40, below 22·40 − 30; we therefore only check the bound for
    /// p ≥ q + 3.)
    #[test]
    fn theorem_1_bounds() {
        for (p, q) in [(16usize, 4usize), (40, 10), (64, 16), (40, 40), (100, 20)] {
            let fib = critical_path(&fibonacci(p, q), KernelFamily::TT);
            assert!(
                fib <= formulas::fibonacci_tt_cp_upper_bound(p, q),
                "Fibonacci bound violated for {p}x{q}"
            );
            let gre = critical_path(&greedy(p, q), KernelFamily::TT);
            assert!(
                gre <= formulas::greedy_tt_cp_upper_bound(p, q),
                "Greedy bound violated for {p}x{q}"
            );
            if p >= q + 3 {
                let lower = formulas::tt_cp_lower_bound(q);
                for cp in [fib, gre] {
                    assert!(
                        cp >= lower,
                        "cp {cp} below the lower bound {lower} for {p}x{q}"
                    );
                }
            }
        }
    }

    #[test]
    fn bounded_schedule_interpolates_between_serial_and_critical_path() {
        let list = greedy(10, 4);
        let dag = TaskDag::build(&list, KernelFamily::TT);
        let cp = simulate_unbounded(&dag).critical_path;
        let serial = dag.total_weight();
        let one = simulate_bounded(&dag, 1, TaskKind::weight);
        assert_eq!(one, serial);
        let many = simulate_bounded(&dag, 10_000, TaskKind::weight);
        assert_eq!(many, cp);
        let four = simulate_bounded(&dag, 4, TaskKind::weight);
        assert!(four >= cp && four <= serial);
        // more processors never hurt
        let eight = simulate_bounded(&dag, 8, TaskKind::weight);
        assert!(eight <= four);
    }

    /// The plans the runtime's default config runs on the benchmark's grids —
    /// the three library shapes at `nb = 128` and the three service shapes
    /// at `nb = 64` — from one core to 48. Flat TS domains win while the
    /// cores are few; Greedy/TT's shorter critical path wins once there are
    /// enough cores to run its extra parallelism.
    #[test]
    fn choose_plan_is_pinned_on_the_benchmark_grids() {
        let (greedy_tt, ts) = ((Algorithm::Greedy, KernelFamily::TT), KernelFamily::TS);
        let plasma = |bs| (Algorithm::PlasmaTree { bs }, ts);
        // (p, q, [P = 1, P = 2, P = 8, P = 48])
        let cases: [(usize, usize, [_; 4]); 6] = [
            (32, 4, [plasma(16), plasma(16), plasma(8), greedy_tt]),
            (10, 10, [plasma(16), plasma(16), plasma(8), greedy_tt]),
            (64, 2, [plasma(16), plasma(16), plasma(16), greedy_tt]),
            (8, 2, [plasma(8), plasma(4), greedy_tt, greedy_tt]),
            (6, 3, [plasma(8), plasma(4), greedy_tt, greedy_tt]),
            (4, 4, [plasma(4), plasma(4), greedy_tt, greedy_tt]),
        ];
        for (p, q, want) in cases {
            for (procs, want) in [1usize, 2, 8, 48].into_iter().zip(want) {
                assert_eq!(choose_plan(p, q, procs), want, "{p}x{q} grid, P = {procs}");
            }
        }
    }

    /// Equal makespans go to the first candidate: on one tile row every
    /// candidate builds the same GEQRT/UNMQR chain, and Greedy/TT comes
    /// first.
    #[test]
    fn choose_plan_breaks_ties_by_candidate_order() {
        for procs in [1usize, 2, 48] {
            for q in [1usize, 5] {
                assert_eq!(
                    choose_plan(1, q, procs),
                    (Algorithm::Greedy, KernelFamily::TT)
                );
            }
        }
    }

    #[test]
    fn plasma_tree_extremes_match_flat_and_binary() {
        for q in [1usize, 3, 6] {
            let p = 15;
            assert_eq!(
                critical_path(&plasma_tree(p, q, p), KernelFamily::TT),
                critical_path(&flat_tree(p, q), KernelFamily::TT)
            );
            assert_eq!(
                critical_path(&plasma_tree(p, q, 1), KernelFamily::TT),
                critical_path(&binary_tree(p, q), KernelFamily::TT)
            );
        }
    }

    #[test]
    fn asap_beats_greedy_on_single_column_ties() {
        // For q = 1 both algorithms perform a binary-tree-like reduction; the
        // critical paths must agree.
        for p in [2usize, 7, 16, 33] {
            let g = critical_path(&greedy(p, 1), KernelFamily::TT);
            let a = simulate_asap(p, 1).critical_path;
            assert_eq!(g, a, "p={p}");
        }
    }

    #[test]
    fn grasap_zero_equals_greedy() {
        for (p, q) in [(8usize, 3usize), (15, 3), (12, 6)] {
            let g = critical_path(&greedy(p, q), KernelFamily::TT);
            let gr = simulate_grasap(p, q, 0);
            assert_eq!(g, gr.critical_path, "p={p}, q={q}");
            // same set of (row, piv, col) choices, possibly in a different
            // (but equally valid) order
            let mut a: Vec<_> = gr.list.eliminations().to_vec();
            let mut b: Vec<_> = greedy(p, q).eliminations().to_vec();
            a.sort_by_key(|e| (e.col, e.row));
            b.sort_by_key(|e| (e.col, e.row));
            assert_eq!(a, b, "p={p}, q={q}");
        }
    }

    #[test]
    fn dynamic_lists_are_complete_and_valid() {
        for (p, q) in [(6usize, 2usize), (15, 2), (15, 3), (16, 8), (9, 9)] {
            for asap_cols in [0usize, 1, 2, q] {
                let d = simulate_grasap(p, q, asap_cols);
                assert_eq!(
                    d.list.len(),
                    EliminationList::expected_len(p, q),
                    "p={p} q={q} k={asap_cols}"
                );
                assert!(
                    d.list.validate().is_ok(),
                    "invalid dynamic list p={p} q={q} k={asap_cols}"
                );
            }
        }
    }
}
