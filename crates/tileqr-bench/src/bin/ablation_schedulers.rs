//! Ablation study binary (beyond the paper's own tables):
//!
//! 1. **Greedy formulations** — the coarse-grain Greedy elimination list
//!    (used throughout the paper's tables) versus the paper's Algorithm 4
//!    (the tiled, counter-driven formulation): same asymptotic behaviour,
//!    occasionally different groupings, and therefore slightly different
//!    critical paths.
//! 2. **Bounded processors** — list-scheduling makespans for each algorithm
//!    as the number of processors grows, showing where the execution turns
//!    from work-bound (all trees equal) to critical-path-bound (Greedy wins);
//!    this is the model-level justification of the roofline of Section 4.
//! 3. **TT vs TS crossover** — the critical-path ratio TS/TT per shape,
//!    quantifying how much parallelism the TT kernels buy before kernel
//!    efficiency (Figures 4–5) is taken into account.

use tileqr_bench::report::{ratio_cell, Table};
use tileqr_core::algorithms::greedy::greedy_algorithm4;
use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::{TaskDag, TaskKind};
use tileqr_core::sim::{critical_path, simulate_bounded};
use tileqr_core::KernelFamily;

fn main() {
    let p = std::env::var("TILEQR_TABLE_P")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);

    // 1. Greedy formulations
    let mut t = Table::new(
        format!("Ablation 1 — coarse-grain Greedy vs Algorithm 4 (TT critical paths, p = {p})"),
        &["q", "coarse-grain Greedy", "Algorithm 4", "ratio"],
    );
    for q in [1usize, 2, 4, 5, 10, 20, 40] {
        let q = q.min(p);
        let cg = critical_path(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT);
        let a4 = critical_path(&greedy_algorithm4(p, q), KernelFamily::TT);
        t.push_row(vec![
            q.to_string(),
            cg.to_string(),
            a4.to_string(),
            ratio_cell(a4 as f64 / cg as f64),
        ]);
    }
    println!("{}", t.render());

    // 2. Bounded processors
    let q = 4usize.min(p);
    let mut t = Table::new(
        format!("Ablation 2 — list-scheduling makespan vs processor count (p = {p}, q = {q}, TT kernels)"),
        &["P", "FlatTree", "BinaryTree", "Fibonacci", "Greedy", "Greedy cp"],
    );
    let dags: Vec<(&str, TaskDag)> = vec![
        (
            "FlatTree",
            TaskDag::build(
                &Algorithm::FlatTree.elimination_list(p, q),
                KernelFamily::TT,
            ),
        ),
        (
            "BinaryTree",
            TaskDag::build(
                &Algorithm::BinaryTree.elimination_list(p, q),
                KernelFamily::TT,
            ),
        ),
        (
            "Fibonacci",
            TaskDag::build(
                &Algorithm::Fibonacci.elimination_list(p, q),
                KernelFamily::TT,
            ),
        ),
        (
            "Greedy",
            TaskDag::build(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT),
        ),
    ];
    let greedy_cp = critical_path(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT);
    for procs in [1usize, 2, 4, 8, 16, 32, 48, 96] {
        let mut row = vec![procs.to_string()];
        for (_, dag) in &dags {
            row.push(simulate_bounded(dag, procs, TaskKind::weight).to_string());
        }
        row.push(greedy_cp.to_string());
        t.push_row(row);
    }
    println!("{}", t.render());

    // 3. TT vs TS critical-path ratio
    let mut t = Table::new(
        format!("Ablation 3 — TS / TT critical-path ratio per algorithm (p = {p})"),
        &["q", "FlatTree", "PlasmaTree(BS=5)", "Greedy-list"],
    );
    for q in [1usize, 2, 5, 10, 20, 40] {
        let q = q.min(p);
        let mut row = vec![q.to_string()];
        for algo in [
            Algorithm::FlatTree,
            Algorithm::PlasmaTree { bs: 5 },
            Algorithm::Greedy,
        ] {
            let list = algo.elimination_list(p, q);
            let ts = critical_path(&list, KernelFamily::TS);
            let tt = critical_path(&list, KernelFamily::TT);
            row.push(ratio_cell(ts as f64 / tt as f64));
        }
        t.push_row(row);
    }
    println!("{}", t.render());
}
