//! Micro-benchmarks of complete tiled QR factorizations — the statistical
//! counterpart of the paper's Tables 6–9 and of the experimental series in
//! Figures 1 and 6 (Greedy vs Fibonacci vs PlasmaTree vs FlatTree, TT and TS
//! kernels, sequential and multi-threaded).
//!
//! Two end-to-end groups feed ROADMAP decisions directly:
//!
//! * `factorization_ib` sweeps the inner blocking factor `ib` through a
//!   complete factorization (not just the kernel microbench), the
//!   measurement the "flip the default `inner_block`" item is blocked on.
//!   Knobs: `TILEQR_BENCH_FACT_NB` (tile size, default 128) and
//!   `TILEQR_BENCH_IB_LIST` (panel widths, default `8,16,32,64,nb`).
//! * `apply_qh` times the `Qᴴ·B` reflector replay and the back half of a
//!   least-squares solve on a factored matrix — the path
//!   `least_squares_with_factorization` takes per right-hand side — and the
//!   whole request from `(A, b)` both ways: `solve_fused` (`QrContext::solve`,
//!   the right-hand side riding the factorization DAG) against
//!   `solve_decomposed` (factorize, then replay), same context and plan.

use tileqr_bench::microbench::{run, write_json, Sample};
use tileqr_core::algorithms::Algorithm;
use tileqr_core::KernelFamily;
use tileqr_kernels::flops::qr_flops;
use tileqr_matrix::generate::{random_matrix, random_vector};
use tileqr_matrix::Matrix;
use tileqr_runtime::driver::{qr_factorize, QrConfig};
use tileqr_runtime::solve::least_squares_with_factorization;
use tileqr_runtime::{QrContext, QrPlan};

const NB: usize = 24;
const P: usize = 10;

fn bench_algorithms_tall(samples: &mut Vec<Sample>) {
    // tall grid: p × 2 tiles, the regime where the tree choice matters most
    let q = 2usize;
    let (m, n) = (P * NB, q * NB);
    let a: Matrix<f64> = random_matrix(m, n, 1);
    let flops = Some(qr_flops(m, n));
    let algorithms = [
        ("greedy_tt", Algorithm::Greedy, KernelFamily::TT),
        ("fibonacci_tt", Algorithm::Fibonacci, KernelFamily::TT),
        ("binary_tt", Algorithm::BinaryTree, KernelFamily::TT),
        ("flat_tt", Algorithm::FlatTree, KernelFamily::TT),
        ("flat_ts", Algorithm::FlatTree, KernelFamily::TS),
        (
            "plasma_bs3_tt",
            Algorithm::PlasmaTree { bs: 3 },
            KernelFamily::TT,
        ),
        (
            "plasma_bs3_ts",
            Algorithm::PlasmaTree { bs: 3 },
            KernelFamily::TS,
        ),
    ];
    for (name, algo, family) in algorithms {
        let config = QrConfig::new(NB).with_algorithm(algo).with_family(family);
        run(
            samples,
            "factorization_tall_p10xq2",
            name,
            NB,
            flops,
            || {
                std::hint::black_box(qr_factorize(&a, config));
            },
        );
    }
}

fn bench_square_vs_tall(samples: &mut Vec<Sample>) {
    for (p, q) in [(12usize, 1usize), (12, 3), (12, 6), (8, 8)] {
        let (m, n) = (p * NB, q * NB);
        let a: Matrix<f64> = random_matrix(m, n, 7);
        let config = QrConfig::new(NB);
        let name = format!("greedy_tt_{p}x{q}");
        run(
            samples,
            "factorization_shapes",
            &name,
            NB,
            Some(qr_flops(m, n)),
            || {
                std::hint::black_box(qr_factorize(&a, config));
            },
        );
    }
}

fn bench_threads(samples: &mut Vec<Sample>) {
    let (p, q) = (12usize, 4usize);
    let (m, n) = (p * NB, q * NB);
    let a: Matrix<f64> = random_matrix(m, n, 9);
    for threads in [1usize, 2, 4] {
        let config = QrConfig::new(NB).with_threads(threads);
        // The multi-threaded rows keep the names of the committed trajectory,
        // from when more than one scheduler was measured.
        let name = if threads == 1 {
            "threads_1".to_string()
        } else {
            format!("threads_{threads}_work_stealing")
        };
        run(
            samples,
            "factorization_threads",
            &name,
            NB,
            Some(qr_flops(m, n)),
            || {
                std::hint::black_box(qr_factorize(&a, config));
            },
        );
    }
}

/// Tile size of the end-to-end ib sweep (`TILEQR_BENCH_FACT_NB`, default
/// 128 — the regime where the kernel sweep says small ib wins).
fn fact_nb() -> usize {
    std::env::var("TILEQR_BENCH_FACT_NB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128)
}

/// Panel widths of the ib sweep (`TILEQR_BENCH_IB_LIST`, default
/// `8,16,32,64` plus the unblocked `ib = nb` reference).
fn ib_list(nb: usize) -> Vec<usize> {
    let mut list: Vec<usize> = std::env::var("TILEQR_BENCH_IB_LIST")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![8, 16, 32, 64]);
    list.retain(|&ib| ib >= 1 && ib < nb);
    list.push(nb);
    list
}

/// End-to-end inner-blocking sweep: the same 4 × 2-tile factorization at
/// every panel width, sequential (kernel-time-only, no scheduler noise) —
/// the measurement the ROADMAP's "tuned default ib" item needs.
fn bench_inner_block(samples: &mut Vec<Sample>) {
    let nb = fact_nb();
    let (p, q) = (4usize, 2usize);
    let (m, n) = (p * nb, q * nb);
    let a: Matrix<f64> = random_matrix(m, n, 11);
    let flops = Some(qr_flops(m, n));
    for ib in ib_list(nb) {
        let config = QrConfig::new(nb).with_inner_block(ib);
        let name = if ib == nb {
            format!("greedy_tt_nb{nb}_ib_nb")
        } else {
            format!("greedy_tt_nb{nb}_ib{ib}")
        };
        run(samples, "factorization_ib", &name, ib, flops, || {
            std::hint::black_box(qr_factorize(&a, config));
        });
    }
}

/// Dedicated cells for the `Qᴴ·B` replay and the least-squares solve on a
/// factored matrix (the ROADMAP's missing "Qᴴ·B path" measurement).
fn bench_apply_qh(samples: &mut Vec<Sample>) {
    let (p, q) = (8usize, 2usize);
    let (m, n) = (p * NB, q * NB); // 192 × 48 at the default NB = 24
    let a: Matrix<f64> = random_matrix(m, n, 13);
    let f = qr_factorize(&a, QrConfig::new(NB).with_inner_block(NB / 2));
    // One block reflector application costs ~4·n·(m − n/2) flops per column.
    let apply_flops =
        |cols: usize| Some(4.0 * n as f64 * (m as f64 - n as f64 / 2.0) * cols as f64);
    for cols in [1usize, NB, 2 * NB] {
        let b: Matrix<f64> = random_matrix(m, cols, 17);
        run(
            samples,
            "apply_qh",
            &format!("qh_times_b_{cols}cols"),
            cols,
            apply_flops(cols),
            || {
                std::hint::black_box(f.apply_qh(&b));
            },
        );
    }
    let rhs: Vec<f64> = random_vector(m, 19);
    run(
        samples,
        "apply_qh",
        "least_squares_with_factorization",
        1,
        apply_flops(1),
        || {
            std::hint::black_box(least_squares_with_factorization(&f, &rhs));
        },
    );

    // The whole request from (A, b), sequential context: factorization +
    // Qᴴ·b + back substitution.
    let config = QrConfig::new(NB).with_inner_block(NB / 2);
    let ctx = QrContext::new(1).expect("one thread");
    let plan: QrPlan<f64> = QrPlan::new(m, n, config).expect("a tall shape");
    let b = Matrix::from_col_major(m, 1, rhs.clone());
    let solve_flops = apply_flops(1).map(|fl| fl + qr_flops(m, n) + (n * n) as f64);
    run(samples, "apply_qh", "solve_fused", 1, solve_flops, || {
        std::hint::black_box(ctx.solve(&plan, &a, &b).expect("full rank"));
    });
    run(
        samples,
        "apply_qh",
        "solve_decomposed",
        1,
        solve_flops,
        || {
            let f = ctx.factorize(&plan, &a).expect("the plan's shape");
            std::hint::black_box(least_squares_with_factorization(&f, &rhs));
        },
    );
}

fn main() {
    let mut samples = Vec::new();
    bench_algorithms_tall(&mut samples);
    bench_square_vs_tall(&mut samples);
    bench_threads(&mut samples);
    bench_inner_block(&mut samples);
    bench_apply_qh(&mut samples);
    write_json(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_factorization.json"
        ),
        &samples,
    );
}
