//! Quickstart: the session API (`QrContext` + `QrPlan`) and the one-shot
//! convenience wrapper.
//!
//! A long-lived [`QrContext`] owns a persistent worker pool; a [`QrPlan`]
//! precomputes the whole schedule (elimination list, task DAG, successor lists,
//! workspaces) for one problem shape. Repeated factorizations of that shape
//! then pay only kernel time — the shape of a service handling a stream of
//! requests. For a single factorization the free function `qr_factorize`
//! remains the convenient one-liner (it builds a transient plan + context
//! internally).
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use tiled_qr::core::algorithms::Algorithm;
use tiled_qr::core::KernelFamily;
use tiled_qr::matrix::generate::random_matrix;
use tiled_qr::matrix::norms::{frobenius_norm, orthogonality_residual};
use tiled_qr::matrix::Matrix;
use tiled_qr::prelude::{qr_factorize, QrConfig, QrContext, QrPlan};

fn main() {
    // An 800 × 240 matrix tiled with nb = 40: a 20 × 6 tile grid, the kind of
    // tall-and-skinny shape where the paper's Greedy algorithm shines.
    let (m, n, nb) = (800usize, 240usize, 40usize);
    let a: Matrix<f64> = random_matrix(m, n, 42);
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    println!("Tiled QR quickstart");
    println!(
        "  matrix: {m} x {n}, tile size nb = {nb} ({} x {} tiles)",
        m.div_ceil(nb),
        n.div_ceil(nb)
    );

    // The session API: build the runtime and the schedule once...
    let ctx = QrContext::new(threads).expect("reasonable thread count");
    let config = QrConfig::new(nb)
        .with_algorithm(Algorithm::Greedy)
        .with_family(KernelFamily::TT);
    let plan: QrPlan<f64> = QrPlan::new(m, n, config).expect("tall matrix, positive tile size");
    println!(
        "  plan: {} kernel tasks for the {} tree",
        plan.task_count(),
        plan.algorithm().name()
    );

    // ...then factor as many matrices of this shape as you like. The first
    // call warms the plan's workspace cache; later calls are pure kernel
    // time on the already-running pool.
    let start = std::time::Instant::now();
    let f = ctx.factorize(&plan, &a).expect("shape matches the plan");
    let first = start.elapsed();
    let start = std::time::Instant::now();
    let f2 = ctx.factorize(&plan, &a).expect("shape matches the plan");
    let second = start.elapsed();
    assert_eq!(f2.r(), f.r(), "factorizations are deterministic");

    let r = f.r();
    let q = f.q_economy();
    println!("  factored in {first:?} (then {second:?} reusing the plan) on {threads} threads");
    println!("  R is upper triangular: {}", r.is_upper_triangular());
    println!("  ‖A − Q·R‖/‖A‖  = {:.3e}", f.residual(&a));
    println!("  ‖QᴴQ − I‖_F    = {:.3e}", orthogonality_residual(&q));
    println!("  ‖R‖_F          = {:.3e}", frobenius_norm(&r));

    // The same factorization can be replayed to multiply by Q or Qᴴ without
    // ever forming Q explicitly.
    let b: Matrix<f64> = random_matrix(m, 3, 7);
    let qhb = f.apply_qh(&b);
    let roundtrip = f.apply_q(&qhb);
    println!(
        "  ‖Q·(Qᴴ·b) − b‖ = {:.3e}",
        frobenius_norm(&roundtrip.sub(&b))
    );

    // One-shot convenience path: same result, no session to manage.
    let g = qr_factorize(&a, config.with_threads(threads));
    assert_eq!(g.r(), r, "the one-shot wrapper is bitwise identical");
    println!("  one-shot qr_factorize matches the session API bit for bit");
}
