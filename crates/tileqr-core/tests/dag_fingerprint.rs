//! Bit-for-bit fingerprint of the task DAGs the builder emits.
//!
//! Every task's kernel, tile coordinates and predecessor list, in stored
//! order, is folded into a 64-bit FNV-1a hash per `(kernel family,
//! trailing columns)` cell, over the analyzer's algorithm roster and every
//! paper-table shape the default race-freedom sweep covers (`p ≤ 64`). The
//! constants were pinned against the builder as it stood when this suite
//! was written; a refactor of `TaskDag::build_with_trailing` that keeps the
//! suite green emits the same tasks, in the same order, with the same
//! dependencies. A failing run prints every cell in the table's own syntax.

use tileqr_core::dag::{KernelFamily, TaskDag, TaskKind};
use tileqr_core::footprint::{algorithm_roster, plan_dag, PAPER_TABLE_SHAPES};

/// 64-bit FNV-1a taking one 64-bit word per step (not one byte: the
/// suite folds millions of tasks, and the test profile is unoptimized).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: usize) {
        self.0 ^= w as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// A kernel as its ordinal followed by its coordinates, padded to four.
    fn kind(&mut self, kind: TaskKind) {
        let words = match kind {
            TaskKind::Geqrt { row, col } => [0, row, col, 0, 0],
            TaskKind::Unmqr { row, col, j } => [1, row, col, j, 0],
            TaskKind::Tsqrt { row, piv, col } => [2, row, piv, col, 0],
            TaskKind::Tsmqr { row, piv, col, j } => [3, row, piv, col, j],
            TaskKind::Ttqrt { row, piv, col } => [4, row, piv, col, 0],
            TaskKind::Ttmqr { row, piv, col, j } => [5, row, piv, col, j],
        };
        for w in words {
            self.word(w);
        }
    }

    fn dag(&mut self, dag: &TaskDag) {
        self.word(dag.p);
        self.word(dag.q);
        self.word(dag.trailing);
        self.word(dag.tasks.len());
        for task in &dag.tasks {
            self.kind(task.kind);
            self.word(task.deps.len());
            for &d in &task.deps {
                self.word(d);
            }
        }
    }
}

/// `(family, trailing, hash, DAGs hashed, tasks hashed)`.
const PINNED: &[(KernelFamily, usize, u64, usize, usize)] = &[
    (KernelFamily::TT, 0, 0x105ddba1405cf2b3, 158, 3491706),
    (KernelFamily::TT, 1, 0x275350df9ab6f76a, 158, 3637278),
    (KernelFamily::TS, 0, 0x508c9589623042a7, 158, 2660681),
    (KernelFamily::TS, 1, 0x2ae956bc38a155d5, 158, 2771382),
];

fn fingerprint(family: KernelFamily, trailing: usize) -> (u64, usize, usize) {
    let mut h = Fnv::new();
    let (mut dags, mut tasks) = (0, 0);
    for &(p, q) in PAPER_TABLE_SHAPES.iter().filter(|&&(p, _)| p <= 64) {
        for algo in algorithm_roster(p, q) {
            let dag = plan_dag(algo, p, q, family, trailing);
            h.dag(&dag);
            dags += 1;
            tasks += dag.tasks.len();
        }
    }
    (h.0, dags, tasks)
}

#[test]
fn dags_match_the_pinned_fingerprints() {
    let mut ok = true;
    let mut table = String::new();
    for &(family, trailing, hash, dags, tasks) in PINNED {
        let got = fingerprint(family, trailing);
        ok &= got == (hash, dags, tasks);
        table += &format!(
            "    (KernelFamily::{family:?}, {trailing}, {:#018x}, {}, {}),\n",
            got.0, got.1, got.2
        );
    }
    assert!(
        ok,
        "DAG fingerprints moved; the builder now emits:\n{table}"
    );
}
