//! Wall-clock measurements: individual kernels (Figures 4–5), the sequential
//! kernel speed `γ_seq`, and complete factorizations (Tables 6–9, Figures 1,
//! 6).
//!
//! Substitution note (see `DESIGN.md`): the paper measures MKL-backed PLASMA
//! kernels on a 48-core Opteron; here the same quantities are measured for
//! the crate's own pure-Rust kernels on whatever machine runs the harness.
//! Absolute GFLOP/s differ, but the *ratios* the paper reasons about
//! (TSQRT vs GEQRT+TTQRT, in- vs out-of-cache, TT vs TS algorithms) are
//! reproduced by the same methodology: No-Flush for the in-cache numbers and
//! a working-set sweep larger than the last-level cache for the out-of-cache
//! numbers (the MultCallFlushLRU strategy of Whaley & Castaldo).

use std::time::Instant;

use tileqr_core::algorithms::Algorithm;
use tileqr_core::KernelFamily;
use tileqr_kernels::blas::gemm_acc;
use tileqr_kernels::flops::{gemm_flops, qr_flops, KernelKind};
use tileqr_kernels::{
    geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Trans, Workspace,
};
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::Matrix;
use tileqr_runtime::driver::{qr_factorize, QrConfig};

/// Cache behaviour of a kernel measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// Repeatedly reuse the same tiles (the No-Flush strategy): data stays in
    /// cache after the first repetition.
    InCache,
    /// Cycle through a pool of tile sets larger than the last-level cache so
    /// every repetition touches cold data (MultCallFlushLRU-style).
    OutOfCache,
}

/// Result of one kernel measurement.
#[derive(Clone, Copy, Debug)]
pub struct KernelMeasurement {
    /// Which kernel was measured.
    pub kernel: KernelKind,
    /// Tile size.
    pub nb: usize,
    /// Cache mode.
    pub mode: CacheMode,
    /// Achieved GFLOP/s (using the nominal `weight · nb³ / 3` flop count).
    pub gflops: f64,
}

/// Working-set budget (bytes) used to size the out-of-cache tile pool; large
/// enough to overflow typical last-level caches without exhausting memory.
const FLUSH_BYTES: usize = 64 * 1024 * 1024;

fn pool_len<T>(tiles_per_set: usize, nb: usize, mode: CacheMode) -> usize {
    match mode {
        CacheMode::InCache => 1,
        CacheMode::OutOfCache => {
            let set_bytes = tiles_per_set * nb * nb * std::mem::size_of::<T>();
            (FLUSH_BYTES / set_bytes.max(1)).clamp(2, 512)
        }
    }
}

/// Measures one kernel at one tile size, returning the achieved GFLOP/s.
/// The kernel runs at the inner blocking `ib` a factorization with
/// [`QrConfig::new`]`(nb)` runs (`ib × nb` `T` factors), so the figures
/// compare the kernels [`measure_gamma_seq`] and the factorizations run.
///
/// `reps` repetitions are timed together after one warm-up call; for the
/// factorization kernels the (cheap, `O(nb²)`) re-initialization of the
/// factored tile is included in the timed region, which biases the result by
/// at most a few percent for the tile sizes of interest.
pub fn measure_kernel<T: RandomScalar>(
    kernel: KernelKind,
    nb: usize,
    mode: CacheMode,
    reps: usize,
) -> KernelMeasurement {
    let reps = reps.max(1);
    let flops = kernel.flops(nb) * reps as f64;
    let ib = QrConfig::new(nb).effective_inner_block();
    let mut ws: Workspace<T> = Workspace::with_inner_block(nb, ib);

    let seconds = match kernel {
        KernelKind::Geqrt => {
            let n_sets = pool_len::<T>(1, nb, mode);
            let pristine: Vec<Matrix<T>> = (0..n_sets)
                .map(|s| random_matrix(nb, nb, 100 + s as u64))
                .collect();
            let mut work: Vec<Matrix<T>> = pristine.clone();
            let mut t = Matrix::zeros(ib, nb);
            geqrt_ws(&mut work[0], &mut t, &mut ws); // warm-up
            let start = Instant::now();
            for r in 0..reps {
                let s = r % n_sets;
                work[s] = pristine[s].clone();
                geqrt_ws(&mut work[s], &mut t, &mut ws);
            }
            start.elapsed().as_secs_f64()
        }
        KernelKind::Tsqrt => {
            let n_sets = pool_len::<T>(2, nb, mode);
            let pristine: Vec<(Matrix<T>, Matrix<T>)> = (0..n_sets)
                .map(|s| {
                    let mut r1: Matrix<T> = random_matrix(nb, nb, 200 + s as u64);
                    r1.zero_below_diagonal();
                    (r1, random_matrix(nb, nb, 300 + s as u64))
                })
                .collect();
            let mut work = pristine.clone();
            let mut t = Matrix::zeros(ib, nb);
            {
                let (r1, a2) = &mut work[0];
                tsqrt_ws(r1, a2, &mut t, &mut ws);
            }
            let start = Instant::now();
            for r in 0..reps {
                let s = r % n_sets;
                work[s] = pristine[s].clone();
                let (r1, a2) = &mut work[s];
                tsqrt_ws(r1, a2, &mut t, &mut ws);
            }
            start.elapsed().as_secs_f64()
        }
        KernelKind::Ttqrt => {
            let n_sets = pool_len::<T>(2, nb, mode);
            let pristine: Vec<(Matrix<T>, Matrix<T>)> = (0..n_sets)
                .map(|s| {
                    let mut r1: Matrix<T> = random_matrix(nb, nb, 400 + s as u64);
                    r1.zero_below_diagonal();
                    let mut r2: Matrix<T> = random_matrix(nb, nb, 500 + s as u64);
                    r2.zero_below_diagonal();
                    (r1, r2)
                })
                .collect();
            let mut work = pristine.clone();
            let mut t = Matrix::zeros(ib, nb);
            {
                let (r1, r2) = &mut work[0];
                ttqrt_ws(r1, r2, &mut t, &mut ws);
            }
            let start = Instant::now();
            for r in 0..reps {
                let s = r % n_sets;
                work[s] = pristine[s].clone();
                let (r1, r2) = &mut work[s];
                ttqrt_ws(r1, r2, &mut t, &mut ws);
            }
            start.elapsed().as_secs_f64()
        }
        KernelKind::Unmqr => {
            let n_sets = pool_len::<T>(3, nb, mode);
            let mut v: Matrix<T> = random_matrix(nb, nb, 600);
            let mut t = Matrix::zeros(ib, nb);
            geqrt_ws(&mut v, &mut t, &mut ws);
            let mut cs: Vec<Matrix<T>> = (0..n_sets)
                .map(|s| random_matrix(nb, nb, 700 + s as u64))
                .collect();
            unmqr_ws(&v, &t, &mut cs[0], Trans::ConjTrans, &mut ws);
            let start = Instant::now();
            for r in 0..reps {
                let s = r % n_sets;
                unmqr_ws(&v, &t, &mut cs[s], Trans::ConjTrans, &mut ws);
            }
            start.elapsed().as_secs_f64()
        }
        KernelKind::Tsmqr => {
            let n_sets = pool_len::<T>(4, nb, mode);
            let mut r1: Matrix<T> = random_matrix(nb, nb, 800);
            r1.zero_below_diagonal();
            let mut v2: Matrix<T> = random_matrix(nb, nb, 801);
            let mut t = Matrix::zeros(ib, nb);
            tsqrt_ws(&mut r1, &mut v2, &mut t, &mut ws);
            let mut pairs: Vec<(Matrix<T>, Matrix<T>)> = (0..n_sets)
                .map(|s| {
                    (
                        random_matrix(nb, nb, 900 + s as u64),
                        random_matrix(nb, nb, 950 + s as u64),
                    )
                })
                .collect();
            {
                let (c1, c2) = &mut pairs[0];
                tsmqr_ws(&v2, &t, c1, c2, Trans::ConjTrans, &mut ws);
            }
            let start = Instant::now();
            for r in 0..reps {
                let s = r % n_sets;
                let (c1, c2) = &mut pairs[s];
                tsmqr_ws(&v2, &t, c1, c2, Trans::ConjTrans, &mut ws);
            }
            start.elapsed().as_secs_f64()
        }
        KernelKind::Ttmqr => {
            let n_sets = pool_len::<T>(4, nb, mode);
            let mut r1: Matrix<T> = random_matrix(nb, nb, 1000);
            r1.zero_below_diagonal();
            let mut v2: Matrix<T> = random_matrix(nb, nb, 1001);
            v2.zero_below_diagonal();
            let mut t = Matrix::zeros(ib, nb);
            ttqrt_ws(&mut r1, &mut v2, &mut t, &mut ws);
            let mut pairs: Vec<(Matrix<T>, Matrix<T>)> = (0..n_sets)
                .map(|s| {
                    (
                        random_matrix(nb, nb, 1100 + s as u64),
                        random_matrix(nb, nb, 1150 + s as u64),
                    )
                })
                .collect();
            {
                let (c1, c2) = &mut pairs[0];
                ttmqr_ws(&v2, &t, c1, c2, Trans::ConjTrans, &mut ws);
            }
            let start = Instant::now();
            for r in 0..reps {
                let s = r % n_sets;
                let (c1, c2) = &mut pairs[s];
                ttmqr_ws(&v2, &t, c1, c2, Trans::ConjTrans, &mut ws);
            }
            start.elapsed().as_secs_f64()
        }
    };

    KernelMeasurement {
        kernel,
        nb,
        mode,
        gflops: flops / seconds / 1e9,
    }
}

/// Measures a square `nb × nb` GEMM (`C += A·B`) — the reference series of
/// Figures 4–5. Returns GFLOP/s.
pub fn measure_gemm<T: RandomScalar>(nb: usize, mode: CacheMode, reps: usize) -> f64 {
    let reps = reps.max(1);
    let n_sets = pool_len::<T>(3, nb, mode);
    let a: Matrix<T> = random_matrix(nb, nb, 1300);
    let b: Matrix<T> = random_matrix(nb, nb, 1301);
    let mut cs: Vec<Matrix<T>> = (0..n_sets)
        .map(|s| random_matrix(nb, nb, 1400 + s as u64))
        .collect();
    gemm_acc(&mut cs[0], &a, &b);
    let start = Instant::now();
    for r in 0..reps {
        gemm_acc(&mut cs[r % n_sets], &a, &b);
    }
    let seconds = start.elapsed().as_secs_f64();
    gemm_flops(nb) * reps as f64 / seconds / 1e9
}

/// Measures the sequential kernel speed `γ_seq` (GFLOP/s) used by the
/// roofline prediction: the rate of a complete sequential Greedy/TT
/// factorization of a `(4·nb) × (2·nb)` matrix.
pub fn measure_gamma_seq<T: RandomScalar>(nb: usize) -> f64 {
    let m = 4 * nb;
    let n = 2 * nb;
    let a: Matrix<T> = random_matrix(m, n, 2000);
    let config = QrConfig::new(nb).with_family(KernelFamily::TT);
    let _warm = qr_factorize(&a, config);
    let start = Instant::now();
    let _f = qr_factorize(&a, config);
    let seconds = start.elapsed().as_secs_f64();
    qr_flops(m, n) / seconds / 1e9
}

/// Result of a full factorization run.
#[derive(Clone, Copy, Debug)]
pub struct FactorizationMeasurement {
    /// Wall-clock seconds.
    pub seconds: f64,
    /// Achieved GFLOP/s using the `2mn² − 2n³/3` flop count.
    pub gflops: f64,
}

/// Times one complete tiled QR factorization of a `(p·nb) × (q·nb)` matrix.
///
/// The factorization is run [`FACTORIZATION_REPS`] times and the best
/// (smallest) time is reported, which filters out scheduler noise on shared
/// machines; override the repetition count with the `TILEQR_FACT_REPS`
/// environment variable.
pub fn measure_factorization<T: RandomScalar>(
    algo: Algorithm,
    family: KernelFamily,
    p: usize,
    q: usize,
    nb: usize,
    threads: usize,
) -> FactorizationMeasurement {
    let reps = std::env::var("TILEQR_FACT_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(FACTORIZATION_REPS)
        .max(1);
    let (m, n) = (p * nb, q * nb);
    let a: Matrix<T> = random_matrix(m, n, 3000 + (p * 31 + q) as u64);
    let config = QrConfig::new(nb)
        .with_algorithm(algo)
        .with_family(family)
        .with_threads(threads);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let _f = qr_factorize(&a, config);
        best = best.min(start.elapsed().as_secs_f64());
    }
    FactorizationMeasurement {
        seconds: best,
        gflops: qr_flops(m, n) / best / 1e9,
    }
}

/// Default number of repetitions for [`measure_factorization`] (best-of).
pub const FACTORIZATION_REPS: usize = 3;

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::Complex64;

    #[test]
    fn kernel_measurements_are_positive_and_finite() {
        for kernel in KernelKind::ALL {
            let m = measure_kernel::<f64>(kernel, 16, CacheMode::InCache, 3);
            assert!(m.gflops.is_finite() && m.gflops > 0.0, "{kernel:?}");
            assert_eq!(m.nb, 16);
        }
        let z = measure_kernel::<Complex64>(KernelKind::Ttmqr, 8, CacheMode::OutOfCache, 2);
        assert!(z.gflops > 0.0);
    }

    #[test]
    fn gemm_and_gamma_seq_are_positive() {
        assert!(measure_gemm::<f64>(16, CacheMode::InCache, 3) > 0.0);
        assert!(measure_gamma_seq::<f64>(8) > 0.0);
    }

    #[test]
    fn factorization_measurement_runs() {
        let m = measure_factorization::<f64>(Algorithm::Greedy, KernelFamily::TT, 4, 2, 8, 2);
        assert!(m.seconds > 0.0);
        assert!(m.gflops > 0.0);
    }

    #[test]
    fn out_of_cache_pool_is_bounded() {
        assert_eq!(pool_len::<f64>(2, 16, CacheMode::InCache), 1);
        let n = pool_len::<f64>(2, 16, CacheMode::OutOfCache);
        assert!((2..=512).contains(&n));
        let big = pool_len::<f64>(4, 600, CacheMode::OutOfCache);
        assert!(big >= 2);
    }
}
