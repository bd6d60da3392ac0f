//! Randomized stress suite of the batched session API.
//!
//! ~100 batched factorizations with shapes, tile sizes, batch widths,
//! reduction trees, kernel families and scalar types drawn from the in-tree
//! xoshiro256++ PRNG (fixed seed — every run covers the same deterministic
//! mix), each executed on a fused batch job and checked **bitwise** against
//! the sequential per-matrix factorization (`qr_factorize` with one thread).
//! The batch machinery fuses k copies of one DAG into a single pool job;
//! nothing about the fusion — offset task ids, shared successor lists,
//! cross-matrix work stealing, T-factor recycling — may change a single bit
//! of any matrix's result.
//!
//! The context runs 4 workers on (usually) fewer cores, so oversubscription
//! makes steal races, the park-tier backoff and cross-matrix stealing all
//! fire for real, exactly like the scheduler-equivalence stress suite.

use tileqr_core::algorithms::Algorithm;
use tileqr_core::KernelFamily;
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::rng::Rng;
use tileqr_matrix::{Complex64, Matrix, TiledMatrix};
use tileqr_runtime::driver::{qr_factorize, QrConfig};
use tileqr_runtime::{QrContext, QrPlan};

const RUNS: usize = 100;
const THREADS: usize = 4;

/// One randomized round: draw a problem, factor a batch of `k` matrices
/// (alternating the copying and the in-place batch entry points), and
/// compare each item bitwise against its sequential one-shot factorization.
fn stress_round<T: RandomScalar>(rng: &mut Rng, ctx: &QrContext, it: usize, use_in_place: bool) {
    let algorithms = [
        Algorithm::Greedy,
        Algorithm::FlatTree,
        Algorithm::Fibonacci,
        Algorithm::BinaryTree,
    ];
    let nb = 2 + (rng.next_u64() % 4) as usize; // 2..=5
    let p = 2 + (rng.next_u64() % 4) as usize; // 2..=5 tile rows
    let q = 1 + (rng.next_u64() % p.min(3) as u64) as usize; // 1..=min(p,3)
    let m = p * nb - (rng.next_u64() % nb as u64) as usize; // ragged edges
    let n = (q * nb - (rng.next_u64() % nb as u64) as usize)
        .min(m)
        .max(1);
    let algo = algorithms[(rng.next_u64() % 4) as usize];
    let family = if rng.next_u64().is_multiple_of(2) {
        KernelFamily::TT
    } else {
        KernelFamily::TS
    };
    let k = 1 + (rng.next_u64() % 4) as usize; // batch width 1..=4
    let ib = 1 + (rng.next_u64() % nb as u64) as usize; // 1..=nb

    let config = QrConfig::new(nb)
        .with_algorithm(algo)
        .with_family(family)
        .with_inner_block(ib);
    let mats: Vec<Matrix<T>> = (0..k)
        .map(|_| random_matrix(m, n, rng.next_u64()))
        .collect();
    let references: Vec<_> = mats.iter().map(|a| qr_factorize(a, config)).collect();

    let plan: QrPlan<T> = QrPlan::new(m, n, config).expect("valid random shape");
    let label = || {
        format!(
            "iteration {it}: {m}x{n} nb={nb} ib={ib} k={k} {} {}",
            algo.name(),
            family.name()
        )
    };
    if use_in_place {
        let mut tiles: Vec<TiledMatrix<T>> = mats
            .iter()
            .map(|a| TiledMatrix::from_dense_padded(a, nb))
            .collect();
        let refls = ctx.factorize_batch_into(&plan, &mut tiles);
        assert_eq!(refls.len(), k);
        for ((refl, t), reference) in refls.into_iter().zip(&tiles).zip(&references) {
            let refl = refl.unwrap_or_else(|e| panic!("{}: {e}", label()));
            assert_eq!(t, reference.factored_tiles(), "{} (tiles)", label());
            assert_eq!(
                refl.r(t).as_slice(),
                reference.r().as_slice(),
                "{} (R)",
                label()
            );
            // Recycling mid-stress: `refl` drops here, later rounds draw
            // its buffers back out of the pool, so any recycle bug shows
            // up as a bitwise divergence in a subsequent iteration.
        }
    } else {
        let batch = ctx.factorize_batch(&plan, &mats);
        assert_eq!(batch.len(), k);
        for (item, reference) in batch.into_iter().zip(&references) {
            let f = item.unwrap_or_else(|e| panic!("{}: {e}", label()));
            assert_eq!(
                f.factored_tiles(),
                reference.factored_tiles(),
                "{} (tiles)",
                label()
            );
        }
    }
}

#[test]
fn randomized_batch_stress_is_bitwise_equal_to_sequential() {
    // One persistent context, shared by all rounds — exactly how a service
    // would hold it, and it stresses pool reuse across many heterogeneous
    // batch jobs.
    let ctx = QrContext::new(THREADS).expect("valid thread count");
    let mut rng = Rng::seed_from_u64(0xBA7C4ED);
    for it in 0..RUNS {
        // Alternate scalar type and batch entry point so all four
        // combinations appear ~25 times each.
        match it % 4 {
            0 => stress_round::<f64>(&mut rng, &ctx, it, false),
            1 => stress_round::<Complex64>(&mut rng, &ctx, it, false),
            2 => stress_round::<f64>(&mut rng, &ctx, it, true),
            _ => stress_round::<Complex64>(&mut rng, &ctx, it, true),
        }
    }
}
