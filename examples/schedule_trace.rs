//! Trace a real multi-threaded execution and compare it to the paper's
//! abstract model: how much parallelism does the dependency-driven runtime
//! actually extract, and how far is that from the model's
//! `total work / critical path` bound?
//!
//! Run with:
//! ```text
//! cargo run --release --example schedule_trace
//! ```

use tiled_qr::core::algorithms::Algorithm;
use tiled_qr::core::dag::TaskDag;
use tiled_qr::core::KernelFamily;
use tiled_qr::matrix::generate::random_matrix;
use tiled_qr::matrix::Matrix;
use tiled_qr::runtime::driver::{qr_factorize_traced, QrConfig};
use tiled_qr::runtime::trace::parallelism_vs_model;

fn main() {
    let (p, q, nb) = (24usize, 6usize, 32usize);
    let (m, n) = (p * nb, q * nb);
    let a: Matrix<f64> = random_matrix(m, n, 7);
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);

    println!("Tracing a {m} x {n} factorization ({p} x {q} tiles, nb = {nb}, {threads} threads)\n");
    println!(
        "{:<24} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "algorithm", "tasks", "makespan", "busy time", "avg ||ism", "model ||ism"
    );

    for algo in [
        Algorithm::Greedy,
        Algorithm::Fibonacci,
        Algorithm::BinaryTree,
        Algorithm::FlatTree,
    ] {
        let config = QrConfig::new(nb).with_algorithm(algo).with_threads(threads);
        let (f, trace) = qr_factorize_traced(&a, config);
        assert!(f.residual(&a) < 1e-11);
        let summary = trace.summary();
        let dag = TaskDag::build(&algo.elimination_list(p, q), KernelFamily::TT);
        let (measured, model) = parallelism_vs_model(&summary, &dag);
        println!(
            "{:<24} {:>10} {:>12.3?} {:>12.3?} {:>10.2} {:>10.2}",
            algo.name(),
            summary.tasks,
            summary.makespan,
            summary.total_busy,
            measured,
            model
        );
    }

    println!();
    println!("Per-kernel breakdown of the Greedy run:");
    let greedy = QrConfig::new(nb).with_algorithm(Algorithm::Greedy);
    let (_, trace) = qr_factorize_traced(&a, greedy.with_threads(threads));
    for (kernel, count, time) in trace.summary().per_kernel {
        println!("  {kernel:<8} x{count:<5} {time:>12.3?}");
    }
    println!();
    println!("The model parallelism (total weight / critical path) is an upper bound on");
    println!("what any machine can extract; on a machine with few cores the measured value");
    println!("is limited by the core count instead — exactly the roofline of Section 4.");
}
