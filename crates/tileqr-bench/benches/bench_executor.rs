//! Parallel executor overhead: the work-stealing pool at 2, 4 and 8 threads
//! against the sequential run, across grid shapes.
//!
//! The paper's claim is that tiled QR time tracks the critical path of the
//! task DAG, so the runtime must not let the *scheduler* become the binding
//! constraint instead of the elimination tree. Writes every sample to
//! `BENCH_executor.json` at the repo root (its committed `locked_fifo_*` and
//! `ws_priority_*` rows predate the removal of those schedulers; the
//! `work_stealing_t*` rows keep their names).
//!
//! Measurement protocol: every variant is warmed up once, then timed
//! repeatedly for the target time, keeping its best run. Shared vCPUs drift
//! by 2–3× over multi-second windows, so compare rows of one run, not runs.
//!
//! Environment knobs:
//! * `TILEQR_BENCH_MS` — target measuring time per variant per cell
//!   (default 80);
//! * `TILEQR_BENCH_NB` — tile size (default 8: small enough that the
//!   scheduler, not the kernels, is the measured quantity);
//! * `TILEQR_BENCH_SMOKE` — when set, shrinks the sweep to one shape and
//!   one thread count (CI smoke);
//! * `TILEQR_BENCH_JSON` — override the JSON output path.

use std::time::Instant;

use tileqr_bench::microbench::{write_json, Sample};
use tileqr_kernels::flops::qr_flops;
use tileqr_matrix::generate::random_matrix;
use tileqr_matrix::Matrix;
use tileqr_runtime::driver::{qr_factorize, QrConfig};

fn tile_size() -> usize {
    std::env::var("TILEQR_BENCH_NB")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8)
}

fn target_nanos_per_variant() -> u128 {
    let ms = std::env::var("TILEQR_BENCH_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(80);
    u128::from(ms) * 1_000_000
}

/// Best single run of `f`, in nanoseconds, after one warm-up run (which pays
/// thread spawns and page faults), over about `target` nanoseconds of runs.
fn best_of(target: u128, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    let mut spent = 0u128;
    while spent < target {
        let start = Instant::now();
        f();
        let ns = start.elapsed().as_nanos();
        spent += ns;
        best = best.min(ns as f64);
    }
    best
}

fn record(samples: &mut Vec<Sample>, group: &str, name: &str, nb: usize, flops: f64, ns: f64) {
    let gflops = flops / ns;
    println!("{group:<28} {name:<24} nb={nb:<5} {ns:>12.0} ns/iter {gflops:>8.3} GFLOP/s");
    samples.push(Sample {
        group: group.to_string(),
        name: name.to_string(),
        param: nb,
        ns_per_iter: ns,
        gflops: Some(gflops),
    });
}

fn bench_executor(samples: &mut Vec<Sample>, smoke: bool) {
    let nb = tile_size();
    let shapes: &[(usize, usize)] = if smoke {
        &[(8, 8)]
    } else {
        &[(8, 8), (16, 8), (16, 16)]
    };
    let thread_counts: &[usize] = if smoke { &[2] } else { &[2, 4, 8] };
    let target = target_nanos_per_variant();

    for &(p, q) in shapes {
        let (m, n) = (p * nb, q * nb);
        let a: Matrix<f64> = random_matrix(m, n, 42);
        let flops = qr_flops(m, n);
        let group = format!("executor_{p}x{q}");

        // Sequential reference: what a single worker does with no scheduler
        // in the way.
        let seq = QrConfig::new(nb);
        let best_seq = best_of(target, || {
            std::hint::black_box(qr_factorize(&a, seq));
        });
        record(samples, &group, "sequential", nb, flops, best_seq);

        for &threads in thread_counts {
            let config = QrConfig::new(nb).with_threads(threads);
            let best = best_of(target, || {
                std::hint::black_box(qr_factorize(&a, config));
            });
            let name = format!("work_stealing_t{threads}");
            record(samples, &group, &name, nb, flops, best);
        }
    }
}

fn main() {
    let smoke = std::env::var("TILEQR_BENCH_SMOKE").is_ok();
    let mut samples = Vec::new();
    bench_executor(&mut samples, smoke);
    write_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_executor.json"),
        &samples,
    );
}
