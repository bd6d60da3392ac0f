//! Micro-benchmarks of the six sequential tile kernels — the statistical
//! counterpart of the paper's Figures 4–5 (kernel performance as a function
//! of the tile size) — plus the `bench_workspace` comparison group tracking
//! the kernel-backend trajectory across PRs:
//!
//! * `KERNEL/seed` — the original allocating, column-at-a-time kernels;
//! * `KERNEL/ws` — the PR-1 zero-allocation blocked workspace kernels with
//!   full-tile `T` factors and dot-product reductions;
//! * `KERNEL/microblas` — the production kernels: inner-blocked (`ib`),
//!   in place on the tiles, register-tiled micro-BLAS backend.
//!
//! The first two generations are retired: their code is gone and their rows
//! are **frozen constants** — the last GFLOP/s the committed
//! `BENCH_kernels.json` recorded for them (`SEED_FROZEN`, `WS_FROZEN`, and
//! `GEMM_NAIVE_FROZEN` for the naive GEMM reference) — emitted beside the
//! measured `microblas` cells so the trajectory table keeps its baselines.
//!
//! An additional `ib_sweep` group (largest configured tile size only)
//! measures every kernel across inner blocking factors, and the
//! `larfb_products` group (tile sizes up to 128) times the three micro-BLAS
//! products one panel application is made of.
//!
//! A summary of every sample is written to `BENCH_kernels.json` at the
//! workspace root (override with `TILEQR_BENCH_JSON`) so the perf trajectory
//! is tracked across PRs; its first row names the host (CPU model, CPUs,
//! detected SIMD level). Run with e.g.
//!
//! ```text
//! cargo bench -p tileqr-bench --bench bench_kernels
//! TILEQR_BENCH_MS=200 cargo bench -p tileqr-bench --bench bench_kernels
//! TILEQR_BENCH_NB=64 TILEQR_BENCH_IB=16 TILEQR_BENCH_IB_LIST=16,32 ...
//! ```

use tileqr_bench::microbench::{run, write_json, Sample};
use tileqr_kernels::blas::gemm_acc;
use tileqr_kernels::flops::{gemm_flops, KernelKind};
use tileqr_kernels::microblas::{apack_len, bpack_len, gemm_into, AForm, AMode};
use tileqr_kernels::simd;
use tileqr_kernels::{
    geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Trans, Workspace,
};
use tileqr_matrix::generate::random_matrix;
use tileqr_matrix::{Complex64, Matrix};

/// Tile sizes for the backend comparison (the acceptance sizes of the
/// zero-allocation and micro-BLAS PRs). Override with `TILEQR_BENCH_NB=32,64`.
fn tile_sizes() -> Vec<usize> {
    std::env::var("TILEQR_BENCH_NB")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![64, 128, 192])
}

/// Headline inner blocking factor for the `microblas` entries (PLASMA-style
/// `ib ≪ nb`). Override with `TILEQR_BENCH_IB=16`.
fn headline_ib(nb: usize) -> usize {
    std::env::var("TILEQR_BENCH_IB")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(32)
        .clamp(1, nb)
}

/// Inner blocking factors for the `ib_sweep` group. Gated by
/// `TILEQR_BENCH_IB_LIST=8,16` so the CI smoke run stays fast.
fn ib_sweep_list(nb: usize) -> Vec<usize> {
    let mut list: Vec<usize> = std::env::var("TILEQR_BENCH_IB_LIST")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![8, 16, 32, 64]);
    list.retain(|&ib| ib >= 1 && ib < nb);
    list.push(nb);
    list.sort_unstable();
    list.dedup();
    list
}

/// Factorization-kernel inputs for one tile size.
struct FactorInputs {
    a: Matrix<f64>,
    r1: Matrix<f64>,
    a2: Matrix<f64>,
    r1b: Matrix<f64>,
    r2b: Matrix<f64>,
}

impl FactorInputs {
    fn new(nb: usize) -> Self {
        let a: Matrix<f64> = random_matrix(nb, nb, 1);
        let mut r1: Matrix<f64> = random_matrix(nb, nb, 2);
        r1.zero_below_diagonal();
        let a2: Matrix<f64> = random_matrix(nb, nb, 3);
        let mut r1b: Matrix<f64> = random_matrix(nb, nb, 4);
        r1b.zero_below_diagonal();
        let mut r2b: Matrix<f64> = random_matrix(nb, nb, 5);
        r2b.zero_below_diagonal();
        FactorInputs {
            a,
            r1,
            a2,
            r1b,
            r2b,
        }
    }
}

/// Update-kernel inputs (factored reflector blocks + target tiles) for a
/// given inner blocking factor — the `T` factors must be produced with the
/// same `ib` the update kernels replay.
struct UpdateInputs {
    v: Matrix<f64>,
    t_geqrt: Matrix<f64>,
    v2_ts: Matrix<f64>,
    t_ts: Matrix<f64>,
    v2_tt: Matrix<f64>,
    t_tt: Matrix<f64>,
    c0: Matrix<f64>,
    c1: Matrix<f64>,
}

impl UpdateInputs {
    fn new(nb: usize, ib: usize) -> Self {
        let mut ws: Workspace<f64> = Workspace::with_inner_block(nb, ib);
        let mut v: Matrix<f64> = random_matrix(nb, nb, 10);
        let mut t_geqrt = Matrix::zeros(ib, nb);
        geqrt_ws(&mut v, &mut t_geqrt, &mut ws);

        let mut r1: Matrix<f64> = random_matrix(nb, nb, 11);
        r1.zero_below_diagonal();
        let mut v2_ts: Matrix<f64> = random_matrix(nb, nb, 12);
        let mut t_ts = Matrix::zeros(ib, nb);
        tsqrt_ws(&mut r1, &mut v2_ts, &mut t_ts, &mut ws);

        let mut r1b: Matrix<f64> = random_matrix(nb, nb, 13);
        r1b.zero_below_diagonal();
        let mut v2_tt: Matrix<f64> = random_matrix(nb, nb, 14);
        v2_tt.zero_below_diagonal();
        let mut t_tt = Matrix::zeros(ib, nb);
        ttqrt_ws(&mut r1b, &mut v2_tt, &mut t_tt, &mut ws);

        let c0: Matrix<f64> = random_matrix(nb, nb, 15);
        let c1: Matrix<f64> = random_matrix(nb, nb, 16);
        UpdateInputs {
            v,
            t_geqrt,
            v2_ts,
            t_ts,
            v2_tt,
            t_tt,
            c0,
            c1,
        }
    }
}

/// Times all six production kernels with the given workspace/`ib`, naming
/// the samples `KERNEL/<variant>` in `group`.
#[allow(clippy::too_many_arguments)]
fn run_production_kernels(
    samples: &mut Vec<Sample>,
    group: &str,
    variant: &str,
    nb: usize,
    ib: usize,
    fi: &FactorInputs,
    ui: &UpdateInputs,
) {
    let mut ws: Workspace<f64> = Workspace::with_inner_block(nb, ib);
    let mut t = Matrix::zeros(ib, nb);
    let flops = |k: KernelKind| Some(k.flops(nb));

    run(
        samples,
        group,
        &format!("GEQRT/{variant}"),
        nb,
        flops(KernelKind::Geqrt),
        || {
            let mut work = fi.a.clone();
            geqrt_ws(&mut work, &mut t, &mut ws);
        },
    );
    run(
        samples,
        group,
        &format!("TSQRT/{variant}"),
        nb,
        flops(KernelKind::Tsqrt),
        || {
            let mut r = fi.r1.clone();
            let mut a2 = fi.a2.clone();
            tsqrt_ws(&mut r, &mut a2, &mut t, &mut ws);
        },
    );
    run(
        samples,
        group,
        &format!("TTQRT/{variant}"),
        nb,
        flops(KernelKind::Ttqrt),
        || {
            let mut r1 = fi.r1b.clone();
            let mut r2 = fi.r2b.clone();
            ttqrt_ws(&mut r1, &mut r2, &mut t, &mut ws);
        },
    );
    let mut c = ui.c0.clone();
    run(
        samples,
        group,
        &format!("UNMQR/{variant}"),
        nb,
        flops(KernelKind::Unmqr),
        || {
            unmqr_ws(&ui.v, &ui.t_geqrt, &mut c, Trans::ConjTrans, &mut ws);
        },
    );
    let (mut a, mut b) = (ui.c0.clone(), ui.c1.clone());
    run(
        samples,
        group,
        &format!("TSMQR/{variant}"),
        nb,
        flops(KernelKind::Tsmqr),
        || {
            tsmqr_ws(
                &ui.v2_ts,
                &ui.t_ts,
                &mut a,
                &mut b,
                Trans::ConjTrans,
                &mut ws,
            );
        },
    );
    let (mut a, mut b) = (ui.c0.clone(), ui.c1.clone());
    run(
        samples,
        group,
        &format!("TTMQR/{variant}"),
        nb,
        flops(KernelKind::Ttmqr),
        || {
            ttmqr_ws(
                &ui.v2_tt,
                &ui.t_tt,
                &mut a,
                &mut b,
                Trans::ConjTrans,
                &mut ws,
            );
        },
    );
}

/// GFLOP/s of the retired seed kernels (allocating, column-at-a-time), as
/// last measured into the committed `BENCH_kernels.json` (1 vCPU). Order:
/// GEQRT, TSQRT, TTQRT, UNMQR, TSMQR, TTMQR.
const SEED_FROZEN: &[(usize, [f64; 6])] = &[
    (64, [2.34, 2.60, 1.63, 2.70, 4.05, 1.61]),
    (128, [1.95, 2.28, 1.57, 2.50, 3.49, 1.49]),
    (192, [1.91, 2.24, 1.54, 2.56, 3.52, 1.53]),
];

/// GFLOP/s of the retired PR-1 workspace kernels (zero-allocation, full-tile
/// `T` factors, dot-product reductions); same source and order.
const WS_FROZEN: &[(usize, [f64; 6])] = &[
    (64, [4.28, 4.21, 2.29, 5.28, 7.29, 5.34]),
    (128, [4.00, 4.18, 2.33, 5.38, 6.92, 5.72]),
    (192, [4.11, 4.39, 2.41, 5.56, 7.08, 5.89]),
];

/// GFLOP/s of the retired naive `jki` GEMM (the Figures 4–5 reference
/// series); same source.
const GEMM_NAIVE_FROZEN: &[(usize, f64)] = &[(64, 9.19), (128, 8.20), (192, 8.28)];

const KERNELS: [(&str, KernelKind); 6] = [
    ("GEQRT", KernelKind::Geqrt),
    ("TSQRT", KernelKind::Tsqrt),
    ("TTQRT", KernelKind::Ttqrt),
    ("UNMQR", KernelKind::Unmqr),
    ("TSMQR", KernelKind::Tsmqr),
    ("TTMQR", KernelKind::Ttmqr),
];

/// A reference row from a frozen GFLOP/s figure.
fn frozen_sample(group: &str, name: String, nb: usize, flops: f64, gflops: f64) -> Sample {
    Sample {
        group: group.to_string(),
        name,
        param: nb,
        ns_per_iter: flops / gflops,
        gflops: Some(gflops),
    }
}

/// The backend comparison: every kernel, frozen seed and ws baselines vs the
/// measured microblas kernels.
fn bench_workspace(samples: &mut Vec<Sample>) {
    let group = "bench_workspace";
    for &nb in &tile_sizes() {
        for (variant, table) in [("seed", SEED_FROZEN), ("ws", WS_FROZEN)] {
            if let Some((_, frozen)) = table.iter().find(|(p, _)| *p == nb) {
                for ((kernel, kind), &gflops) in KERNELS.iter().zip(frozen) {
                    let name = format!("{kernel}/{variant}");
                    samples.push(frozen_sample(group, name, nb, kind.flops(nb), gflops));
                }
            }
        }

        // --- production micro-BLAS kernels at the headline ib ---
        let fi = FactorInputs::new(nb);
        let ib = headline_ib(nb);
        let ui_ib = UpdateInputs::new(nb, ib);
        run_production_kernels(samples, group, "microblas", nb, ib, &fi, &ui_ib);

        // GEMM reference series (Figures 4–5): the frozen naive jki baseline
        // and the register-tiled backend.
        if let Some(&(_, gflops)) = GEMM_NAIVE_FROZEN.iter().find(|(p, _)| *p == nb) {
            let name = "GEMM/naive".to_string();
            samples.push(frozen_sample(group, name, nb, gemm_flops(nb), gflops));
        }
        let ga: Matrix<f64> = random_matrix(nb, nb, 17);
        let gb: Matrix<f64> = random_matrix(nb, nb, 18);
        let mut gc: Matrix<f64> = random_matrix(nb, nb, 15);
        run(samples, group, "GEMM", nb, Some(gemm_flops(nb)), || {
            gemm_acc(&mut gc, &ga, &gb);
        });
    }
}

/// The PR-3 native-pinned (`-C target-cpu=native`) microblas GFLOP/s from
/// the committed `BENCH_kernels.json`, frozen here as the reference the
/// portable runtime-dispatch build must match within 5% (the bench output
/// file is overwritten on every run, so the baseline lives in code).
/// Order: GEQRT, TSQRT, TTQRT, UNMQR, TSMQR, TTMQR, GEMM.
const NATIVE_FROZEN: &[(usize, [f64; 7])] = &[
    (64, [4.56, 6.41, 2.97, 4.80, 11.77, 5.66, 17.83]),
    (128, [7.43, 10.10, 5.23, 7.62, 14.98, 8.69, 20.33]),
    (192, [9.32, 12.13, 6.47, 9.46, 16.21, 10.57, 20.75]),
];

const DISPATCH_KERNELS: [&str; 7] = ["GEQRT", "TSQRT", "TTQRT", "UNMQR", "TSMQR", "TTMQR", "GEMM"];

/// The runtime-dispatch comparison: the six f64 kernels + GEMM per forced
/// SIMD level (scalar vs every ISA this CPU supports, each on its own
/// register-block shape — this is the group that picks a level's shape:
/// run it under the candidates), with the frozen native-pinned microblas
/// numbers emitted as reference rows, plus the Complex64 register-block
/// cells (`4 × 4` at every level).
fn bench_simd_dispatch(samples: &mut Vec<Sample>) {
    let group = "simd_dispatch";
    let initial = simd::active();
    for &nb in &tile_sizes() {
        let ib = headline_ib(nb);
        let fi = FactorInputs::new(nb);
        for level in simd::available_levels() {
            simd::set_active(level);
            // T factors must be produced under the level that replays them
            // so each level's cell is self-consistent.
            let ui = UpdateInputs::new(nb, ib);
            let variant = format!("simd={}", level.name());
            run_production_kernels(samples, group, &variant, nb, ib, &fi, &ui);
            let ga: Matrix<f64> = random_matrix(nb, nb, 17);
            let gb: Matrix<f64> = random_matrix(nb, nb, 18);
            let mut gc: Matrix<f64> = random_matrix(nb, nb, 19);
            run(
                samples,
                group,
                &format!("GEMM/{variant}"),
                nb,
                Some(gemm_flops(nb)),
                || {
                    gemm_acc(&mut gc, &ga, &gb);
                },
            );
        }
        // Frozen native-pinned reference rows for this tile size.
        if let Some((_, frozen)) = NATIVE_FROZEN.iter().find(|(p, _)| *p == nb) {
            for (kernel, &gflops) in DISPATCH_KERNELS.iter().zip(frozen) {
                let flops = KERNELS
                    .iter()
                    .find(|(name, _)| name == kernel)
                    .map_or(gemm_flops(nb), |(_, kind)| kind.flops(nb));
                let name = format!("{kernel}/native-frozen");
                samples.push(frozen_sample(group, name, nb, flops, gflops));
            }
        }
    }

    // Complex64 register-block cells: complex GEMM per level (the pure
    // register-block story) and the two complex kernel spot checks.
    let nb = 48usize;
    let ib = headline_ib(nb);
    for level in simd::available_levels() {
        simd::set_active(level);
        let variant = format!("simd={}", level.name());
        let ga: Matrix<Complex64> = random_matrix(nb, nb, 25);
        let gb: Matrix<Complex64> = random_matrix(nb, nb, 26);
        let mut gc: Matrix<Complex64> = random_matrix(nb, nb, 27);
        // A complex multiply-accumulate is 8 real flops (4 mul + 4 add).
        run(
            samples,
            group,
            &format!("GEMM-c64/{variant}"),
            nb,
            Some(4.0 * gemm_flops(nb)),
            || {
                gemm_acc(&mut gc, &ga, &gb);
            },
        );
        let mut ws: Workspace<Complex64> = Workspace::with_inner_block(nb, ib);
        let a: Matrix<Complex64> = random_matrix(nb, nb, 20);
        let mut t = Matrix::zeros(ib, nb);
        run(
            samples,
            group,
            &format!("GEQRT-c64/{variant}"),
            nb,
            None,
            || {
                let mut work = a.clone();
                geqrt_ws(&mut work, &mut t, &mut ws);
            },
        );
        let mut v: Matrix<Complex64> = random_matrix(nb, nb, 21);
        let mut t_ge = Matrix::zeros(ib, nb);
        geqrt_ws(&mut v, &mut t_ge, &mut ws);
        let c0: Matrix<Complex64> = random_matrix(nb, nb, 22);
        let mut c = c0.clone();
        run(
            samples,
            group,
            &format!("UNMQR-c64/{variant}"),
            nb,
            None,
            || {
                unmqr_ws(&v, &t_ge, &mut c, Trans::ConjTrans, &mut ws);
            },
        );
    }
    simd::set_active(initial);
}

/// The three `gemm_into` products of one panel application, at `larfb`'s
/// shapes: the first panel (`j0 = 0`, `w = ib = nb/4`) of a GEQRT tile
/// applied to an `nb × nb` target as `Qᴴ`, each product timed on its own at
/// the active level. These are the calls every update kernel is made of, so
/// a change to packing or to the microkernel shows here first. GFLOP/s count
/// the `2·m·n·k` the product computes, structural zeros included.
fn bench_larfb_products(samples: &mut Vec<Sample>) {
    let group = "larfb_products";
    for nb in tile_sizes().into_iter().filter(|&nb| nb <= 128) {
        let w = (nb / 4).max(1);
        let mut ws: Workspace<f64> = Workspace::with_inner_block(nb, w);
        let mut v: Matrix<f64> = random_matrix(nb, nb, 30);
        let mut t = Matrix::zeros(w, nb);
        geqrt_ws(&mut v, &mut t, &mut ws);
        let mut c: Matrix<f64> = random_matrix(nb, nb, 31);
        let (mut wm, mut w2) = (Matrix::zeros(nb, nb), Matrix::zeros(nb, nb));
        let mut apack = vec![0.0; apack_len::<f64>(nb, nb)];
        let mut bpack = vec![0.0; bpack_len::<f64>(nb, nb)];
        let flops = |m: usize, n: usize, k: usize| Some(2.0 * (m * n * k) as f64);
        let vcol = |i: usize| v.col(i);
        run(samples, group, "W+=VhC", nb, flops(w, nb, nb), || {
            gemm_into(
                w,
                nb,
                nb,
                AMode::ConjTrans,
                AForm::UnitLower,
                vcol,
                |j| c.col(j),
                wm.as_mut_slice(),
                |j| j * nb,
                false,
                &mut apack,
                &mut bpack,
            );
        });
        run(samples, group, "W2=ThW", nb, flops(w, nb, w), || {
            gemm_into(
                w,
                nb,
                w,
                AMode::ConjTrans,
                AForm::Dense,
                |i| &t.col(i)[..i + 1],
                |j| &wm.col(j)[..w],
                w2.as_mut_slice(),
                |j| j * nb,
                false,
                &mut apack,
                &mut bpack,
            );
        });
        run(samples, group, "C-=VW2", nb, flops(nb, nb, w), || {
            gemm_into(
                nb,
                nb,
                w,
                AMode::NoTrans,
                AForm::UnitLower,
                vcol,
                |j| &w2.col(j)[..w],
                c.as_mut_slice(),
                |j| j * nb,
                true,
                &mut apack,
                &mut bpack,
            );
        });
    }
}

/// Prints dispatched-vs-frozen-native ratios and flags any f64 cell where
/// the best dispatched level falls more than 5% short of the native pin.
fn print_dispatch_summary(samples: &[Sample]) {
    println!("\nruntime dispatch vs frozen native pin (>= 0.95 required):");
    let mut worst: Option<(f64, String)> = None;
    for &(nb, _) in NATIVE_FROZEN {
        if !tile_sizes().contains(&nb) {
            continue;
        }
        for kernel in DISPATCH_KERNELS {
            let frozen = samples
                .iter()
                .find(|s| {
                    s.group == "simd_dispatch"
                        && s.param == nb
                        && s.name == format!("{kernel}/native-frozen")
                })
                .and_then(|s| s.gflops);
            let best = samples
                .iter()
                .filter(|s| {
                    s.group == "simd_dispatch"
                        && s.param == nb
                        && s.name.starts_with(&format!("{kernel}/simd="))
                })
                .filter_map(|s| s.gflops)
                .fold(f64::NAN, f64::max);
            if let (Some(frozen), true) = (frozen, best.is_finite()) {
                let ratio = best / frozen;
                let flag = if ratio < 0.95 {
                    "  <-- BELOW 5% BUDGET"
                } else {
                    ""
                };
                println!(
                    "  {kernel:<6} nb={nb:<4} dispatched {best:>6.2} / native {frozen:>6.2} GFLOP/s = {ratio:>5.2}x{flag}"
                );
                let entry = (ratio, format!("{kernel} nb={nb}"));
                if worst.as_ref().is_none_or(|(w, _)| ratio < *w) {
                    worst = Some(entry);
                }
            }
        }
    }
    if let Some((ratio, cell)) = worst {
        println!("  worst cell: {cell} at {ratio:.3}x of the native pin");
    }
}

/// Inner-blocking sweep at the largest configured tile size: every kernel
/// across `ib` values, so the panel-width/packing trade-off is tracked.
fn bench_ib_sweep(samples: &mut Vec<Sample>) {
    let group = "ib_sweep";
    let nb = *tile_sizes().iter().max().expect("at least one tile size");
    let fi = FactorInputs::new(nb);
    for ib in ib_sweep_list(nb) {
        let ui = UpdateInputs::new(nb, ib);
        run_production_kernels(samples, group, &format!("ib={ib}"), nb, ib, &fi, &ui);
    }
}

/// Complex-arithmetic spot checks (the paper's double-complex experiments).
fn bench_complex(samples: &mut Vec<Sample>) {
    let group = "kernels_complex64";
    let nb = 48usize;
    let ib = headline_ib(nb);
    let mut ws: Workspace<Complex64> = Workspace::with_inner_block(nb, ib);

    let a: Matrix<Complex64> = random_matrix(nb, nb, 20);
    let mut t = Matrix::zeros(ib, nb);
    run(samples, group, "GEQRT/ws", nb, None, || {
        let mut work = a.clone();
        geqrt_ws(&mut work, &mut t, &mut ws);
    });

    let mut r1: Matrix<Complex64> = random_matrix(nb, nb, 21);
    r1.zero_below_diagonal();
    let mut v2: Matrix<Complex64> = random_matrix(nb, nb, 22);
    v2.zero_below_diagonal();
    let mut t_tt = Matrix::zeros(ib, nb);
    ttqrt_ws(&mut r1, &mut v2, &mut t_tt, &mut ws);
    let c1: Matrix<Complex64> = random_matrix(nb, nb, 23);
    let c2: Matrix<Complex64> = random_matrix(nb, nb, 24);
    let (mut u1, mut u2) = (c1.clone(), c2.clone());
    run(samples, group, "TTMQR/ws", nb, None, || {
        ttmqr_ws(&v2, &t_tt, &mut u1, &mut u2, Trans::ConjTrans, &mut ws);
    });
}

/// Prints the per-kernel speedups along the backend trajectory.
fn print_speedups(samples: &[Sample]) {
    println!("\nbackend trajectory (higher is better):");
    for &nb in &tile_sizes() {
        for kernel in ["GEQRT", "TSQRT", "TTQRT", "UNMQR", "TSMQR", "TTMQR"] {
            let find = |suffix: &str| {
                samples
                    .iter()
                    .find(|s| {
                        s.group == "bench_workspace"
                            && s.param == nb
                            && s.name == format!("{kernel}/{suffix}")
                    })
                    .map(|s| s.ns_per_iter)
            };
            if let (Some(seed), Some(ws), Some(mb)) = (find("seed"), find("ws"), find("microblas"))
            {
                println!(
                    "  {kernel:<6} nb={nb:<4} ws/seed {:>5.2}x   microblas/ws {:>5.2}x   microblas/seed {:>5.2}x",
                    seed / ws,
                    ws / mb,
                    seed / mb
                );
            }
        }
    }
}

/// The machine the measured rows come from, as the first row of the JSON:
/// CPU model, CPUs offered to the process and the detected SIMD level in the
/// name, no timing. (The frozen rows come from the hosts named at their
/// tables.)
fn host_sample() -> Sample {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    Sample {
        group: "host".to_string(),
        name: format!("{cpu}; simd={}", simd::detect().name()),
        param: cpus,
        ns_per_iter: 0.0,
        gflops: None,
    }
}

fn main() {
    let mut samples = vec![host_sample()];
    bench_workspace(&mut samples);
    bench_simd_dispatch(&mut samples);
    bench_larfb_products(&mut samples);
    bench_ib_sweep(&mut samples);
    bench_complex(&mut samples);
    print_speedups(&samples);
    print_dispatch_summary(&samples);
    write_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json"),
        &samples,
    );
}
