//! Scheduler ablation of the parallel executor: Chase–Lev work stealing vs
//! priority work stealing, across grid shapes and thread counts.
//!
//! The paper's claim is that tiled QR time tracks the critical path of the
//! task DAG, so the runtime must not let the *scheduler* become the binding
//! constraint instead of the elimination tree. Writes every sample to
//! `BENCH_executor.json` at the repo root (its committed `locked_fifo_*`
//! rows predate the removal of that scheduler).
//!
//! Measurement protocol: the schedulers of one (shape, threads) cell are
//! timed **interleaved**, one factorization each per round, keeping each
//! scheduler's best round. CI boxes and shared vCPUs drift by 2–3× over
//! multi-second windows; interleaving puts every scheduler in the same
//! window, so the *relative* numbers survive the drift that would wreck
//! back-to-back timing.
//!
//! Environment knobs:
//! * `TILEQR_BENCH_MS` — target measuring time per scheduler per cell
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
use tileqr_runtime::SchedulerKind;

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

/// Times one closure invocation in nanoseconds.
fn time_once(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
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

fn bench_schedulers(samples: &mut Vec<Sample>, smoke: bool) {
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
        qr_factorize(&a, seq); // warm-up
        let mut best_seq = f64::INFINITY;
        let mut spent = 0u128;
        while spent < target {
            let ns = time_once(|| {
                std::hint::black_box(qr_factorize(&a, seq));
            });
            spent += ns as u128;
            best_seq = best_seq.min(ns);
        }
        record(samples, &group, "sequential", nb, flops, best_seq);

        for &threads in thread_counts {
            let configs: Vec<(SchedulerKind, QrConfig)> = SchedulerKind::ALL
                .iter()
                .map(|&kind| {
                    (
                        kind,
                        QrConfig::new(nb).with_threads(threads).with_scheduler(kind),
                    )
                })
                .collect();
            // Warm up every variant (first run pays thread-spawn and page
            // faults), then measure in interleaved rounds: one run per
            // scheduler per round, best round kept per scheduler.
            for (_, config) in &configs {
                qr_factorize(&a, *config);
            }
            let mut best = [f64::INFINITY; SchedulerKind::ALL.len()];
            let mut spent = 0u128;
            while spent < target * configs.len() as u128 {
                for (i, (_, config)) in configs.iter().enumerate() {
                    let ns = time_once(|| {
                        std::hint::black_box(qr_factorize(&a, *config));
                    });
                    spent += ns as u128;
                    best[i] = best[i].min(ns);
                }
            }
            for (i, (kind, _)) in configs.iter().enumerate() {
                let name = format!("{}_t{threads}", kind.name());
                record(samples, &group, &name, nb, flops, best[i]);
            }
        }
    }
}

fn main() {
    let smoke = std::env::var("TILEQR_BENCH_SMOKE").is_ok();
    let mut samples = Vec::new();
    bench_schedulers(&mut samples, smoke);
    write_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_executor.json"),
        &samples,
    );
}
