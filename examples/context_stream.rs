//! Factoring a *stream* of same-shape matrices with the session API — the
//! workload `QrContext` + `QrPlan` were designed for (a service endpoint
//! orthogonalizing one panel per request).
//!
//! Four strategies factor the same stream:
//!
//! 1. one-shot `qr_factorize` with `QrConfig::with_threads` — re-plans and
//!    spawns a fresh worker pool per matrix;
//! 2. `QrContext::factorize` with a reused plan — persistent pool, schedule
//!    built once, per call only the dense→tiled copy + kernels;
//! 3. `QrContext::factorize_into` — additionally reuses one caller-owned
//!    tile buffer (`TiledMatrix::fill_from_dense_padded`), so no tile
//!    storage is allocated per call at all;
//! 4. `QrContext::factorize_batch_into` — groups the stream into batches of
//!    8 submitted as **one fused pool job each** (one worker wake-up per
//!    batch instead of per matrix, work stealing balancing across the
//!    matrices); every dropped result returns its `T`-factor storage to the
//!    plan, so the steady-state loop allocates nothing per tile, task or `T`
//!    factor.
//!
//! Run with:
//! ```text
//! cargo run --release --example context_stream
//! ```

use std::time::Instant;

use tiled_qr::matrix::generate::random_matrix;
use tiled_qr::matrix::{Matrix, TiledMatrix};
use tiled_qr::prelude::{qr_factorize, QrConfig, QrContext, QrPlan};

fn main() {
    let (m, n, nb) = (96usize, 48usize, 16usize);
    let rounds = 40usize;
    let threads = std::thread::available_parallelism()
        .map(|p| p.get().min(4))
        .unwrap_or(2)
        .max(2);
    let stream: Vec<Matrix<f64>> = (0..rounds).map(|i| random_matrix(m, n, i as u64)).collect();
    println!("Stream of {rounds} factorizations of {m} x {n} (nb = {nb}) on {threads} threads\n");

    // 1. One-shot calls: plan + pool rebuilt per matrix.
    let start = Instant::now();
    let mut checksum = 0.0f64;
    for a in &stream {
        let f = qr_factorize(a, QrConfig::new(nb).with_threads(threads));
        checksum += f.r().get(0, 0).abs();
    }
    let per_call = start.elapsed();
    println!("  one-shot qr_factorize          : {per_call:?}");

    // 2. Session API: context + plan built once, reused for the stream.
    let ctx = QrContext::new(threads).expect("reasonable thread count");
    let plan: QrPlan<f64> =
        QrPlan::new(m, n, QrConfig::new(nb)).expect("tall matrix, positive tile size");
    let start = Instant::now();
    let mut checksum_ctx = 0.0f64;
    for a in &stream {
        let f = ctx.factorize(&plan, a).expect("shape matches the plan");
        checksum_ctx += f.r().get(0, 0).abs();
    }
    let reused = start.elapsed();
    println!("  context + reused plan          : {reused:?}");

    // 3. In-place: one tile buffer refilled per request, factored in place.
    let mut tiles = TiledMatrix::<f64>::zeros(m / nb, n / nb, nb);
    let start = Instant::now();
    let mut checksum_inp = 0.0f64;
    for a in &stream {
        tiles.fill_from_dense_padded(a);
        let refl = ctx.factorize_into(&plan, &mut tiles).expect("grid matches");
        checksum_inp += refl.r(&tiles).get(0, 0).abs();
    }
    let in_place = start.elapsed();
    println!("  context + in-place tile reuse  : {in_place:?}");

    // 4. Batched: 8 matrices per fused pool job, T factors recycled as each
    //    `refl` drops — the allocation-free steady state of a batch service.
    let batch = 8usize;
    let mut batch_tiles: Vec<TiledMatrix<f64>> = (0..batch)
        .map(|_| TiledMatrix::zeros(m / nb, n / nb, nb))
        .collect();
    let start = Instant::now();
    let mut checksum_bat = 0.0f64;
    for chunk in stream.chunks(batch) {
        for (tiles, a) in batch_tiles.iter_mut().zip(chunk) {
            tiles.fill_from_dense_padded(a);
        }
        let refls = ctx.factorize_batch_into(&plan, &mut batch_tiles[..chunk.len()]);
        for (refl, tiles) in refls.into_iter().zip(&batch_tiles) {
            let refl = refl.expect("grid matches");
            checksum_bat += refl.r(tiles).get(0, 0).abs();
        }
    }
    let batched = start.elapsed();
    println!("  context + fused batches of {batch}   : {batched:?}");

    assert_eq!(checksum, checksum_ctx, "paths must agree bitwise");
    assert_eq!(checksum, checksum_inp, "paths must agree bitwise");
    assert_eq!(checksum, checksum_bat, "paths must agree bitwise");
    println!(
        "\n  all four paths bitwise identical; context+plan is {:.2}x and fused \
         batches are {:.2}x the one-shot throughput",
        per_call.as_secs_f64() / reused.as_secs_f64(),
        per_call.as_secs_f64() / batched.as_secs_f64(),
    );
}
