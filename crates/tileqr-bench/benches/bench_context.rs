//! Throughput of a *stream* of repeated factorizations — the workload the
//! session API ([`QrContext`] + [`QrPlan`]) exists for.
//!
//! Every variant factors the same sequence of same-shape matrices; what
//! differs is how much work is redone per call:
//!
//! * `per_call_parallel` — the legacy one-shot path: `qr_factorize_parallel`
//!   re-tiles, re-plans (elimination list + DAG + CSR) and spawns a fresh
//!   worker pool on every matrix;
//! * `context_plan` — a persistent pool plus a reused plan: per call only
//!   the dense→tiled copy, the `T`-factor storage and the kernels remain;
//! * `context_plan_in_place` — additionally skips the dense→tiled copy by
//!   refilling one caller-owned tile buffer
//!   ([`TiledMatrix::fill_from_dense_padded`]) and factoring it in place
//!   ([`QrContext::factorize_into`]);
//! * `context_seq` / `per_call_seq` — the same comparison at one thread
//!   (no helper thread either way — the caller runs the job; isolates the
//!   planning cost from thread startup).
//!
//! The `context_batch` group covers the *batched* session API on the small
//! shape, where per-call pool wake-up dominates: a loop of k
//! `QrContext::factorize` calls (k wake-ups) vs one `factorize_batch`
//! (one fused job, one wake-up) vs the allocation-free steady state
//! (`factorize_batch_into` over refilled tile buffers + `T`-factor
//! recycling through the plan).
//!
//! The `context_robustness` group re-runs the steady-state batch loop with
//! the fault-isolation layer armed — a live deadline, the per-item panic
//! tracker and (second cell) the stall watchdog — to pin the containment
//! overhead to within noise of `context_batch`.
//!
//! Writes `BENCH_context.json`. Knobs: `TILEQR_BENCH_MS` (per-cell time),
//! `TILEQR_BENCH_CTX_THREADS` (default 2), `TILEQR_BENCH_CTX_NB`
//! (default 32, 8 × 4 tiles), `TILEQR_BENCH_CTX_K` (batch width, default 8).

use tileqr_bench::microbench::{run, write_json};
use tileqr_kernels::flops::qr_flops;
use tileqr_matrix::generate::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::driver::{qr_factorize, qr_factorize_parallel, QrConfig};
use tileqr_runtime::{QrContext, QrPlan};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let nb = env_usize("TILEQR_BENCH_CTX_NB", 32);
    let threads = env_usize("TILEQR_BENCH_CTX_THREADS", 2).max(2);
    let (p, q) = (8usize, 4usize);
    let (m, n) = (p * nb, q * nb);
    let a: Matrix<f64> = random_matrix(m, n, 42);
    let flops = Some(qr_flops(m, n));
    let config = QrConfig::new(nb);
    let mut samples = Vec::new();

    // --- one thread: planning cost only -----------------------------------
    run(
        &mut samples,
        "context_stream",
        "per_call_seq",
        nb,
        flops,
        || {
            std::hint::black_box(qr_factorize(&a, config));
        },
    );
    {
        let ctx = QrContext::new(1).expect("one worker is always accepted");
        let plan: QrPlan<f64> = QrPlan::new(m, n, config).expect("valid shape");
        run(
            &mut samples,
            "context_stream",
            "context_seq",
            nb,
            flops,
            || {
                std::hint::black_box(ctx.factorize(&plan, &a).expect("shape matches the plan"));
            },
        );
    }

    // --- `threads` workers: planning + pool startup ------------------------
    run(
        &mut samples,
        "context_stream",
        &format!("per_call_parallel_t{threads}"),
        nb,
        flops,
        || {
            std::hint::black_box(qr_factorize_parallel(&a, nb, threads));
        },
    );
    let ctx = QrContext::new(threads).expect("thread count below the maximum");
    let plan: QrPlan<f64> = QrPlan::new(m, n, config).expect("valid shape");
    run(
        &mut samples,
        "context_stream",
        &format!("context_plan_t{threads}"),
        nb,
        flops,
        || {
            std::hint::black_box(ctx.factorize(&plan, &a).expect("shape matches the plan"));
        },
    );
    let mut tiles = TiledMatrix::from_dense_padded(&a, nb);
    run(
        &mut samples,
        "context_stream",
        &format!("context_plan_in_place_t{threads}"),
        nb,
        flops,
        || {
            tiles.fill_from_dense_padded(&a);
            std::hint::black_box(
                ctx.factorize_into(&plan, &mut tiles)
                    .expect("tiles match the plan grid"),
            );
        },
    );

    // --- a *small* shape, where per-call overhead dominates ----------------
    // 96 × 48 with nb = 16 (6 × 3 tiles): the kernels finish in tens of
    // microseconds, so planning and pool startup are the bulk of a one-shot
    // call — the amortization regime of the paper's PLASMA runtime.
    let nb_s = 16usize;
    let (ms, ns_) = (6 * nb_s, 3 * nb_s);
    let a_s: Matrix<f64> = random_matrix(ms, ns_, 43);
    let flops_s = Some(qr_flops(ms, ns_));
    run(
        &mut samples,
        "context_stream_small",
        &format!("per_call_parallel_t{threads}"),
        nb_s,
        flops_s,
        || {
            std::hint::black_box(qr_factorize_parallel(&a_s, nb_s, threads));
        },
    );
    let plan_s: QrPlan<f64> = QrPlan::new(ms, ns_, QrConfig::new(nb_s)).expect("valid shape");
    run(
        &mut samples,
        "context_stream_small",
        &format!("context_plan_t{threads}"),
        nb_s,
        flops_s,
        || {
            std::hint::black_box(
                ctx.factorize(&plan_s, &a_s)
                    .expect("shape matches the plan"),
            );
        },
    );
    let mut tiles_s = TiledMatrix::from_dense_padded(&a_s, nb_s);
    run(
        &mut samples,
        "context_stream_small",
        &format!("context_plan_in_place_t{threads}"),
        nb_s,
        flops_s,
        || {
            tiles_s.fill_from_dense_padded(&a_s);
            std::hint::black_box(
                ctx.factorize_into(&plan_s, &mut tiles_s)
                    .expect("tiles match the plan grid"),
            );
        },
    );

    // --- batched submission: k small matrices as one fused pool job --------
    // The batch cell uses a *tiny* shape (6 × 3 tiles of nb = 4 by default,
    // ~30 µs per one-shot call): kernel time per matrix is a few tens of
    // microseconds, so the per-call pool wake-up — what batching amortizes —
    // is a first-order cost, the regime the batch API exists for. Each iteration factors all
    // k matrices, so ns_per_iter is directly comparable across the three
    // strategies (flops = k factorizations).
    let k = env_usize("TILEQR_BENCH_CTX_K", 8).max(1);
    let nb_b = env_usize("TILEQR_BENCH_CTX_BATCH_NB", 4);
    let (mb, nb_cols) = (6 * nb_b, 3 * nb_b);
    let plan_b: QrPlan<f64> = QrPlan::new(mb, nb_cols, QrConfig::new(nb_b)).expect("valid shape");
    let flops_batch = Some(qr_flops(mb, nb_cols) * k as f64);
    let batch_mats: Vec<Matrix<f64>> = (0..k)
        .map(|i| random_matrix(mb, nb_cols, 100 + i as u64))
        .collect();
    run(
        &mut samples,
        "context_batch",
        &format!("per_call_loop_t{threads}_k{k}"),
        nb_b,
        flops_batch,
        || {
            for a in &batch_mats {
                std::hint::black_box(ctx.factorize(&plan_b, a).expect("shape matches the plan"));
            }
        },
    );
    run(
        &mut samples,
        "context_batch",
        &format!("factorize_batch_t{threads}_k{k}"),
        nb_b,
        flops_batch,
        || {
            for item in ctx.factorize_batch(&plan_b, &batch_mats) {
                std::hint::black_box(item.expect("shape matches the plan"));
            }
        },
    );
    let mut batch_tiles: Vec<TiledMatrix<f64>> = batch_mats
        .iter()
        .map(|a| TiledMatrix::from_dense_padded(a, nb_b))
        .collect();
    run(
        &mut samples,
        "context_batch",
        &format!("batch_into_recycled_t{threads}_k{k}"),
        nb_b,
        flops_batch,
        || {
            for (t, a) in batch_tiles.iter_mut().zip(&batch_mats) {
                t.fill_from_dense_padded(a);
            }
            for item in ctx.factorize_batch_into(&plan_b, &mut batch_tiles) {
                drop(std::hint::black_box(
                    item.expect("tiles match the plan grid"),
                ));
            }
        },
    );

    // --- robustness layer overhead -----------------------------------------
    // The same steady-state batch-into-recycled loop, but with the fault
    // isolation machinery fully armed: a live deadline (checked by every
    // worker between tasks and while idle), the per-item fault tracker and —
    // in the second cell — the stall watchdog (checked by idle workers). The
    // contract is that containment costs a handful of atomics and a clock
    // read per task, so these cells must stay within noise of
    // `batch_into_recycled` above.
    run(
        &mut samples,
        "context_robustness",
        &format!("batch_into_deadline_t{threads}_k{k}"),
        nb_b,
        flops_batch,
        || {
            for (t, a) in batch_tiles.iter_mut().zip(&batch_mats) {
                t.fill_from_dense_padded(a);
            }
            for item in ctx.factorize_batch_into_with_deadline(
                &plan_b,
                &mut batch_tiles,
                std::time::Duration::from_secs(60),
            ) {
                drop(std::hint::black_box(
                    item.expect("a 60 s deadline never fires here"),
                ));
            }
        },
    );
    // Arming the watchdog only sets a field on the context, so moving `ctx`
    // keeps the already-placed worker threads — a second pool would measure
    // thread placement, not the watchdog.
    let ctx_w = ctx.with_watchdog(std::time::Duration::from_secs(5));
    run(
        &mut samples,
        "context_robustness",
        &format!("batch_into_watchdog_t{threads}_k{k}"),
        nb_b,
        flops_batch,
        || {
            for (t, a) in batch_tiles.iter_mut().zip(&batch_mats) {
                t.fill_from_dense_padded(a);
            }
            for item in ctx_w.factorize_batch_into_with_deadline(
                &plan_b,
                &mut batch_tiles,
                std::time::Duration::from_secs(60),
            ) {
                drop(std::hint::black_box(
                    item.expect("neither the deadline nor the watchdog fires"),
                ));
            }
        },
    );

    // Headline ratios for the log: reused context+plan vs per-call spawning.
    let ns = |group: &str, name: &str| {
        samples
            .iter()
            .find(|s| s.group == group && s.name == name)
            .map(|s| s.ns_per_iter)
            .unwrap_or(f64::NAN)
    };
    println!();
    for (group, label) in [
        ("context_stream", format!("{m} x {n} (nb = {nb})")),
        (
            "context_stream_small",
            format!("{ms} x {ns_} (nb = {nb_s})"),
        ),
    ] {
        let per_call = ns(group, &format!("per_call_parallel_t{threads}"));
        let reused = ns(group, &format!("context_plan_t{threads}"));
        println!(
            "context+plan vs per-call, {label}, {threads} threads: {:.2}x ({:.1} µs -> {:.1} µs per factorization)",
            per_call / reused,
            per_call / 1e3,
            reused / 1e3,
        );
    }
    let loop_ns = ns("context_batch", &format!("per_call_loop_t{threads}_k{k}"));
    let batch_ns = ns("context_batch", &format!("factorize_batch_t{threads}_k{k}"));
    let in_place_ns = ns(
        "context_batch",
        &format!("batch_into_recycled_t{threads}_k{k}"),
    );
    println!(
        "factorize_batch vs per-call loop, k = {k} of {mb} x {nb_cols} (nb = {nb_b}), {threads} threads: \
         {:.2}x ({:.1} µs -> {:.1} µs per batch; in-place+recycled {:.1} µs, {:.2}x)",
        loop_ns / batch_ns,
        loop_ns / 1e3,
        batch_ns / 1e3,
        in_place_ns / 1e3,
        loop_ns / in_place_ns,
    );
    let deadline_ns = ns(
        "context_robustness",
        &format!("batch_into_deadline_t{threads}_k{k}"),
    );
    let watchdog_ns = ns(
        "context_robustness",
        &format!("batch_into_watchdog_t{threads}_k{k}"),
    );
    println!(
        "robustness overhead on the steady-state batch loop: deadline {:+.2}%, deadline+watchdog {:+.2}% \
         ({:.1} µs -> {:.1} µs / {:.1} µs per batch)",
        (deadline_ns / in_place_ns - 1.0) * 100.0,
        (watchdog_ns / in_place_ns - 1.0) * 100.0,
        in_place_ns / 1e3,
        deadline_ns / 1e3,
        watchdog_ns / 1e3,
    );

    write_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_context.json"),
        &samples,
    );
}
