//! Integration tests of the scheduling layer: the Chase–Lev work-stealing
//! scheduler must produce results bitwise identical to the sequential
//! executor, for both scalar types, because the DAG totally orders every
//! pair of conflicting tasks; which worker steals what can only change
//! *when* commuting tasks run, never what they compute.
//!
//! The stress test batters the work-stealing paths with many small
//! factorizations at 8 worker threads (far more threads than this repo's CI
//! machines have cores — oversubscription makes steal races and the
//! park-tier backoff actually fire), with shapes drawn from the in-tree
//! xoshiro256++ PRNG.

use tileqr_core::algorithms::Algorithm;
use tileqr_core::KernelFamily;
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::rng::Rng;
use tileqr_matrix::{Complex64, Matrix};
use tileqr_runtime::driver::{qr_factorize, QrConfig};

fn check_parallel_matches_sequential<T: RandomScalar>(
    m: usize,
    n: usize,
    nb: usize,
    algo: Algorithm,
    family: KernelFamily,
    threads: usize,
    seed: u64,
) {
    let a: Matrix<T> = random_matrix(m, n, seed);
    let base = QrConfig::new(nb).with_algorithm(algo).with_family(family);
    let seq = qr_factorize(&a, base);
    let par = qr_factorize(&a, base.with_threads(threads));
    assert_eq!(
        seq.factored_tiles(),
        par.factored_tiles(),
        "tiles differ: {m}x{n} nb={nb} {} {} threads={threads}",
        algo.name(),
        family.name()
    );
    assert_eq!(
        seq.r().as_slice(),
        par.r().as_slice(),
        "R differs: {m}x{n} nb={nb} {} {} threads={threads}",
        algo.name(),
        family.name()
    );
}

#[test]
fn work_stealing_is_bitwise_identical_to_sequential_f64() {
    for (algo, family) in [
        (Algorithm::Greedy, KernelFamily::TT),
        (Algorithm::FlatTree, KernelFamily::TS),
        (Algorithm::Fibonacci, KernelFamily::TT),
    ] {
        check_parallel_matches_sequential::<f64>(40, 24, 8, algo, family, 4, 101);
        check_parallel_matches_sequential::<f64>(33, 9, 4, algo, family, 8, 102);
    }
}

#[test]
fn work_stealing_is_bitwise_identical_to_sequential_complex() {
    check_parallel_matches_sequential::<Complex64>(
        32,
        16,
        8,
        Algorithm::Greedy,
        KernelFamily::TT,
        4,
        201,
    );
    check_parallel_matches_sequential::<Complex64>(
        20,
        12,
        4,
        Algorithm::BinaryTree,
        KernelFamily::TS,
        8,
        202,
    );
}

/// Randomized stress: 100 small factorizations at 8 worker threads, each checked bitwise against the sequential reference. Shapes,
/// tile sizes and trees vary per iteration via the in-tree PRNG, so every
/// run covers a different mix of DAG widths and tails (deterministically —
/// the seed is fixed).
#[test]
fn randomized_stress_100_factorizations_at_8_threads() {
    const RUNS: usize = 100;
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    let algorithms = [
        Algorithm::Greedy,
        Algorithm::FlatTree,
        Algorithm::Fibonacci,
        Algorithm::BinaryTree,
    ];
    for it in 0..RUNS {
        let nb = 2 + (rng.next_u64() % 4) as usize; // 2..=5
        let p = 2 + (rng.next_u64() % 5) as usize; // 2..=6 tile rows
        let q = 1 + (rng.next_u64() % p.min(3) as u64) as usize; // 1..=min(p,3)
        let m = p * nb - (rng.next_u64() % nb as u64) as usize; // ragged edge
        let n = (q * nb - (rng.next_u64() % nb as u64) as usize).min(m);
        let algo = algorithms[(rng.next_u64() % 4) as usize];
        let family = if rng.next_u64().is_multiple_of(2) {
            KernelFamily::TT
        } else {
            KernelFamily::TS
        };
        let seed = rng.next_u64();

        let a: Matrix<f64> = random_matrix(m, n.max(1), seed);
        let base = QrConfig::new(nb).with_algorithm(algo).with_family(family);
        let seq = qr_factorize(&a, base);
        let par = qr_factorize(&a, base.with_threads(8));
        assert_eq!(
            seq.factored_tiles(),
            par.factored_tiles(),
            "iteration {it}: {m}x{} nb={nb} {} {} diverged",
            n.max(1),
            algo.name(),
            family.name()
        );
    }
}
