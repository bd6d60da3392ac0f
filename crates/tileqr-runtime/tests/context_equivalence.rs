//! The session API must be **bitwise identical** to the legacy free
//! functions, for both scalar types, both kernel families and every thread
//! count — the redesign moved planning and thread management around, but
//! every path still runs the same kernels in a DAG-respecting order, and the
//! factorization output is order-invariant for conflicting-task-ordering
//! schedules (pinned by the pre-existing scheduler-equivalence suite).

use std::sync::Arc;

use tileqr_core::algorithms::Algorithm;
use tileqr_core::KernelFamily;
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::{Complex64, Matrix, TiledMatrix};
use tileqr_runtime::service::{QrService, ServiceConfig};
use tileqr_runtime::{qr_factorize, QrConfig, QrContext, QrPlan};

fn assert_context_matches_legacy<T: RandomScalar>(seed: u64) {
    let (m, n, nb) = (36usize, 20usize, 6usize);
    let a: Matrix<T> = random_matrix(m, n, seed);
    for family in [KernelFamily::TT, KernelFamily::TS] {
        let config = QrConfig::new(nb)
            .with_algorithm(Algorithm::Greedy)
            .with_family(family)
            .with_inner_block(3);
        // Sequential legacy run = the bitwise reference.
        let reference = qr_factorize(&a, config);
        let plan: QrPlan<T> = QrPlan::new(m, n, config).unwrap();
        for threads in [1usize, 3] {
            let ctx = QrContext::new(threads).unwrap();
            let f = ctx.factorize(&plan, &a).unwrap();
            assert_eq!(
                f.factored_tiles(),
                reference.factored_tiles(),
                "tiles differ: {} threads, {:?}",
                threads,
                family
            );
            assert_eq!(f.r(), reference.r());
            let b: Matrix<T> = random_matrix(m, 3, seed + 100);
            assert_eq!(f.apply_qh(&b), reference.apply_qh(&b));
        }
    }
}

#[test]
fn context_is_bitwise_identical_to_legacy_f64() {
    assert_context_matches_legacy::<f64>(11);
}

#[test]
fn context_is_bitwise_identical_to_legacy_complex() {
    assert_context_matches_legacy::<Complex64>(12);
}

#[test]
fn legacy_parallel_is_bitwise_identical_to_sequential_after_the_redesign() {
    // The legacy entry points now route through the context internally;
    // their bitwise equivalence to the sequential run must be unchanged.
    let a: Matrix<f64> = random_matrix(40, 24, 21);
    let seq = qr_factorize(&a, QrConfig::new(8));
    let par = qr_factorize(&a, QrConfig::new(8).with_threads(4));
    assert_eq!(par.factored_tiles(), seq.factored_tiles());
}

#[test]
fn one_context_serves_many_plans_and_shapes() {
    let ctx = QrContext::new(2).unwrap();
    let shapes = [(24usize, 12usize, 4usize), (30, 10, 5), (16, 16, 8)];
    for (round, &(m, n, nb)) in shapes.iter().cycle().take(6).enumerate() {
        let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
        let a: Matrix<f64> = random_matrix(m, n, 50 + round as u64);
        let f = ctx.factorize(&plan, &a).unwrap();
        assert_eq!(f.r(), qr_factorize(&a, QrConfig::new(nb)).r());
    }
}

#[test]
fn plan_reuse_is_bitwise_stable_across_many_calls() {
    // One plan, one context, a stream of different matrices: every call must
    // equal its one-shot counterpart, and the in-place path must equal the
    // copying path while reusing a single tile buffer.
    let (m, n, nb) = (24usize, 16usize, 4usize);
    let ctx = QrContext::new(2).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).unwrap();
    let mut tiles = TiledMatrix::<f64>::zeros(6, 4, nb);
    for seed in 200..208u64 {
        let a: Matrix<f64> = random_matrix(m, n, seed);
        let f = ctx.factorize(&plan, &a).unwrap();
        let oneshot = qr_factorize(&a, QrConfig::new(nb));
        assert_eq!(f.factored_tiles(), oneshot.factored_tiles());

        tiles.fill_from_dense_padded(&a);
        let refl = ctx.factorize_into(&plan, &mut tiles).unwrap();
        assert_eq!(&tiles, oneshot.factored_tiles());
        assert_eq!(refl.r(&tiles), oneshot.r());
    }
}

#[test]
fn reflectors_roundtrip_q_applications() {
    let (m, n, nb) = (20usize, 12usize, 4usize);
    let ctx = QrContext::new(2).unwrap();
    let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb).with_inner_block(2)).unwrap();
    let a: Matrix<f64> = random_matrix(m, n, 77);
    let mut tiles = TiledMatrix::from_dense_padded(&a, nb);
    let refl = ctx.factorize_into(&plan, &mut tiles).unwrap();
    let b: Matrix<f64> = random_matrix(m, 2, 78);
    let qhb = refl.apply_qh(&tiles, &b);
    let back = refl.apply_q(&tiles, &qhb);
    let diff: f64 = (0..m)
        .flat_map(|i| (0..2).map(move |j| (i, j)))
        .map(|(i, j)| (back.get(i, j) - b.get(i, j)).abs())
        .fold(0.0, f64::max);
    assert!(diff < 1e-12, "Q·(Qᴴ·b) differs from b by {diff}");
    // Upgrading to a full factorization preserves everything bitwise.
    let f = refl.into_factorization(tiles);
    assert_eq!(f.apply_qh(&b), qhb);
    assert!(f.residual(&a) < 1e-11);
}

/// One engine, pinned from the outside: the *same* requests — a dense
/// factorization, a pre-tiled in-place one and a fused solve with `k = 3`,
/// each on its own plan (shape, tile size, inner blocking, tree) — through
/// `threads ∈ {1, 4}`. Every outcome must be bitwise equal
/// to sequential `qr_factorize` of the same configuration and, for the
/// solve, to the decomposed route (`apply_qh`, `r`, back substitution).
#[test]
fn every_entry_point_is_bitwise_identical_on_every_engine() {
    let configs = [
        QrConfig::new(8),
        QrConfig::new(6)
            .with_inner_block(3)
            .with_algorithm(Algorithm::FlatTree)
            .with_family(KernelFamily::TS),
        QrConfig::new(5).with_algorithm(Algorithm::Fibonacci),
    ];
    let shapes = [(40usize, 24usize), (18, 18), (33, 10)];
    let mats: Vec<Matrix<f64>> = shapes
        .iter()
        .zip(300u64..)
        .map(|(&(m, n), seed)| random_matrix(m, n, seed))
        .collect();
    let b: Matrix<f64> = random_matrix(33, 3, 310);
    let references: Vec<_> = mats
        .iter()
        .zip(configs)
        .map(|(a, config)| qr_factorize(a, config))
        .collect();
    let decomposed = {
        let (f, n) = (&references[2], shapes[2].1);
        let qhb = f.apply_qh(&b);
        let mut x: Matrix<f64> = Matrix::zeros(n, 3);
        for j in 0..3 {
            let xj = f.r().solve_upper_triangular(&qhb.col(j)[..n]);
            x.col_mut(j).copy_from_slice(&xj);
        }
        x
    };
    let plans: Vec<QrPlan<f64>> = shapes
        .iter()
        .zip(configs)
        .map(|(&(m, n), config)| QrPlan::new(m, n, config).unwrap())
        .collect();
    for threads in [1usize, 4] {
        let at = format!("{threads} threads");
        let ctx = QrContext::new(threads).unwrap();
        let dense = ctx.factorize(&plans[0], &mats[0]).unwrap();
        assert_eq!(
            dense.factored_tiles(),
            references[0].factored_tiles(),
            "{at}"
        );
        let mut tiles = TiledMatrix::from_dense_padded(&mats[1], configs[1].tile_size);
        let refl = ctx.factorize_into(&plans[1], &mut tiles).unwrap();
        assert_eq!(&tiles, references[1].factored_tiles(), "{at}");
        assert_eq!(
            refl.apply_qh(&tiles, &mats[1]),
            references[1].apply_qh(&mats[1])
        );
        assert_eq!(
            ctx.solve(&plans[2], &mats[2], &b).unwrap(),
            decomposed,
            "{at}"
        );
    }
}

/// The default config names no tree, so the plan chooses its tree and
/// family for the host. The plan resolves once, so every path runs the
/// pair it recorded: `factorize`, `factorize_into`, a batch, `solve` and the
/// service all give the one-shot driver's bits, on one core as on many.
#[test]
fn the_default_config_is_bitwise_identical_on_every_path() {
    let (m, n, nb) = (96usize, 16usize, 8usize);
    let config = QrConfig::new(nb);
    let a: Matrix<f64> = random_matrix(m, n, 400);
    let b: Matrix<f64> = random_matrix(m, 2, 401);
    let reference = qr_factorize(&a, config);
    let decomposed = {
        let qhb = reference.apply_qh(&b);
        let mut x: Matrix<f64> = Matrix::zeros(n, 2);
        for j in 0..2 {
            let xj = reference.r().solve_upper_triangular(&qhb.col(j)[..n]);
            x.col_mut(j).copy_from_slice(&xj);
        }
        x
    };
    let plan = Arc::new(QrPlan::<f64>::new(m, n, config).unwrap());
    let want = reference.factored_tiles();
    for threads in [1usize, 3] {
        let at = format!(
            "{} {:?}, {threads} threads",
            plan.algorithm().name(),
            plan.family()
        );
        let ctx = QrContext::new(threads).unwrap();
        let f = ctx.factorize(&plan, &a).unwrap();
        assert_eq!(f.factored_tiles(), want, "factorize, {at}");

        let mut tiles = TiledMatrix::from_dense_padded(&a, nb);
        ctx.factorize_into(&plan, &mut tiles).unwrap();
        assert_eq!(&tiles, want, "factorize_into, {at}");

        for f in ctx.factorize_batch(&plan, &[a.clone(), a.clone()]) {
            assert_eq!(f.unwrap().factored_tiles(), want, "batch, {at}");
        }

        assert_eq!(ctx.solve(&plan, &a, &b).unwrap(), decomposed, "solve, {at}");

        let service = QrService::new(ctx, ServiceConfig::default()).unwrap();
        let served = service.client().submit(&plan, a.clone()).unwrap().wait();
        assert_eq!(served.unwrap().factored_tiles(), want, "service, {at}");
        service.shutdown();
    }
}
