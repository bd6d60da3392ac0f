//! One-shot factorization drivers (convenience wrappers over the session API).
//!
//! [`qr_factorize`] / [`qr_factorize_traced`] take a dense matrix, build a
//! [`QrPlan`](crate::context::QrPlan) and a transient
//! [`QrContext`](crate::context::QrContext) for it (on
//! [`QrConfig::threads`] threads), execute every kernel and return a
//! [`QrFactorization`]
//! handle from which the user can extract `R`, apply `Q`/`Qᴴ` to arbitrary
//! matrices, or form `Q` explicitly — the same functionality LAPACK exposes
//! as `GEQRF` + `ORMQR` + `ORGQR`, but built on the tiled algorithms of the
//! paper.
//!
//! These free functions are the right call for a **single** factorization.
//! A service factoring a *stream* of matrices should hold a long-lived
//! [`QrContext`](crate::context::QrContext) (persistent worker pool) and one
//! [`QrPlan`](crate::context::QrPlan) per problem shape instead, so repeated
//! calls pay only kernel time; see the [`crate::context`] docs. The wrappers
//! here keep their historical panicking contract (`m ≥ n`, positive tile
//! size) and are bitwise identical to the session API — both run the same
//! kernels in a DAG-respecting order.

use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::KernelFamily;
use tileqr_core::EliminationList;
use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

use crate::plan::default_plan;
use crate::reflectors::QrReflectors;
use crate::trace::ExecutionTrace;

/// Default inner blocking factor `ib` of [`QrConfig::new`], applied as
/// `min(tile_size, 16)`. Rechecked end to end on the default plan at `P = 2`
/// (2 vCPU Xeon, AVX-512, four shapes, interleaved): `ib` 16 and 32 were
/// within ~10% of each other in both directions, while `ib = 8` was
/// 1.25–1.8× and `ib = 64` 1.1–1.4× slower. Tiles of order ≤ 16 keep
/// `ib = nb` (the panels already fit the register-blocked microkernel).
pub const DEFAULT_INNER_BLOCK: usize = 16;

/// Configuration of a tiled QR factorization run.
#[derive(Clone, Copy, Debug)]
pub struct QrConfig {
    /// Tile size `nb`.
    pub tile_size: usize,
    /// PLASMA-style inner blocking factor `ib` (clamped to `1..=tile_size`
    /// at use): it sets the `T` layout (`ib`-blocked, one triangle per
    /// panel of `ib` columns), the panels the factor kernels split a tile
    /// into — each factored recursively, mostly in block products — and
    /// the depth of the update kernels' products. Defaults to
    /// `min(tile_size, `[`DEFAULT_INNER_BLOCK`]`)` — the tuned setting; use
    /// [`QrConfig::with_inner_block`]`(tile_size)` for unblocked panels (one
    /// block reflector per tile).
    pub inner_block: usize,
    /// Reduction tree. `None` (the default) lets the plan choose the tree
    /// *and* the kernel family; see [`QrConfig::new`].
    pub algorithm: Option<Algorithm>,
    /// Kernel family (TT or TS) of a named tree. Ignored while `algorithm`
    /// is `None`, which chooses the family with the tree;
    /// [`QrConfig::with_family`] names the tree too.
    pub family: KernelFamily,
    /// Worker threads (1 = sequential).
    pub threads: usize,
    /// Opt-in pre-submission scan for NaN/Inf entries (off by default — it
    /// costs one pass over the input). Plans built with it reject non-finite
    /// inputs as
    /// [`QrError::NonFiniteInput`](crate::context::QrError::NonFiniteInput)
    /// before any kernel runs, instead of silently producing garbage
    /// factors.
    pub check_finite: bool,
}

impl QrConfig {
    /// The default: no named tree (`algorithm: None`) — the plan picks its
    /// reduction tree and kernel family with [`choose_plan`] for its tile
    /// grid at the host's available parallelism (Greedy/TT or a
    /// PlasmaTree/TS with domains of at most 16 tile rows) — the tuned inner
    /// blocking (`min(tile_size, `[`DEFAULT_INNER_BLOCK`]`)`), sequential.
    ///
    /// The default's result bits are therefore reproducible on one host, and
    /// every path (one-shot, context, batch, solve, service) runs the same
    /// plan for a shape. A host with another core count may choose another
    /// plan, which changes low-order bits and may flip the signs of rows of
    /// `R`. For the same bits on every host, name both the tree and the
    /// family ([`QrConfig::with_algorithm`] and [`QrConfig::with_family`]).
    ///
    /// The choice rests on a simulation under kernel costs measured at
    /// `nb = 128` on one AVX-512 host. Its gain was measured only there, at
    /// two cores and `nb ∈ {64, 128}`; at other core counts, tile sizes and
    /// SIMD levels the default plan comes from the simulation alone.
    ///
    /// [`choose_plan`]: tileqr_core::sim::choose_plan
    pub fn new(tile_size: usize) -> Self {
        QrConfig {
            tile_size,
            inner_block: tile_size.min(DEFAULT_INNER_BLOCK),
            algorithm: None,
            family: KernelFamily::TT,
            threads: 1,
            check_finite: false,
        }
    }

    /// Sets the inner blocking factor `ib` (clamped to `1..=tile_size` when
    /// the factorization runs).
    pub fn with_inner_block(mut self, ib: usize) -> Self {
        self.inner_block = ib;
        self
    }

    /// Effective inner blocking factor for this configuration.
    pub fn effective_inner_block(&self) -> usize {
        self.inner_block.clamp(1, self.tile_size.max(1))
    }

    /// Names the reduction tree, which then runs the config's family.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Sets the kernel family. On a config with no named tree it also names
    /// the tree, [`Algorithm::Greedy`], so a config that names a family
    /// never leaves the choice of tree to the host.
    pub fn with_family(mut self, family: KernelFamily) -> Self {
        self.algorithm.get_or_insert(Algorithm::Greedy);
        self.family = family;
        self
    }

    /// Sets the number of worker threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables the pre-submission NaN/Inf scan (see
    /// [`QrConfig::check_finite`]).
    pub fn with_check_finite(mut self, check: bool) -> Self {
        self.check_finite = check;
        self
    }
}

/// The result of a tiled QR factorization: the factored tiles (R on the
/// diagonal blocks, Householder vectors elsewhere) and their
/// [`QrReflectors`] — the `T` factors of every block reflector and the DAG
/// needed to replay the transformations.
///
/// Dropping a factorization produced through the session API
/// ([`QrContext`](crate::context::QrContext) with a
/// [`QrPlan`](crate::context::QrPlan)) returns its `ib × nb` `T` buffers to
/// the plan's recycle pool: dropping the handle *is* the recycle path.
/// One-shot factorizations from the free functions outlive their transient
/// plan and free their buffers normally.
pub struct QrFactorization<T: Scalar> {
    /// Original row count of the dense matrix (before padding).
    pub m: usize,
    /// Original column count of the dense matrix (before padding).
    pub n: usize,
    pub(crate) tiles: TiledMatrix<T>,
    pub(crate) reflectors: QrReflectors<T>,
}

impl<T: Scalar> std::fmt::Debug for QrFactorization<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QrFactorization")
            .field("reflectors", &self.reflectors)
            .finish_non_exhaustive()
    }
}

/// The elimination list a config naming `algorithm` runs on a `p × q` tile
/// grid: the named tree's ([`Algorithm::elimination_list`]), or for `None`
/// the list of the tree a default plan chooses on this host.
pub fn elimination_list_for(algorithm: Option<Algorithm>, p: usize, q: usize) -> EliminationList {
    let tree = algorithm.unwrap_or_else(|| default_plan(p, q).0);
    tree.elimination_list(p, q)
}

/// Factorizes a dense `m × n` matrix (`m ≥ n`) with the given configuration.
///
/// The matrix is zero-padded to whole tiles, which does not affect the
/// leading `n × n` block of `R` nor the action of `Q` on vectors padded the
/// same way.
pub fn qr_factorize<T: Scalar<Real = f64>>(a: &Matrix<T>, config: QrConfig) -> QrFactorization<T> {
    factorize_impl(a, config, None)
}

/// Factorizes `a` while recording a per-task execution trace (start/finish
/// timestamps); see [`crate::trace`]. Returns the factorization together
/// with the collected trace.
///
/// Each worker records into its own lock-free
/// [`WorkerTrace`](crate::trace::WorkerTrace) buffer; the buffers are merged
/// into the returned trace when the job ends, so tracing adds no lock traffic
/// to the hot loop.
pub fn qr_factorize_traced<T: Scalar<Real = f64>>(
    a: &Matrix<T>,
    config: QrConfig,
) -> (QrFactorization<T>, ExecutionTrace) {
    let trace = ExecutionTrace::new();
    let f = factorize_impl(a, config, Some(&trace));
    (f, trace)
}

/// The transient plan + context behind the one-shot free functions
/// ([`qr_factorize`], [`crate::solve::least_squares_solve`]), which makes
/// them thin wrappers over the session API: panics with the plan's
/// validation error and clamps the thread count, which the legacy API never
/// limited.
pub(crate) fn transient_session<T: Scalar<Real = f64>>(
    (m, n): (usize, usize),
    config: QrConfig,
) -> (crate::context::QrPlan<T>, crate::context::QrContext) {
    let plan = crate::context::QrPlan::new(m, n, config).unwrap_or_else(|e| panic!("{e}"));
    let threads = config.threads.clamp(1, crate::context::MAX_THREADS);
    let ctx = crate::context::QrContext::new(threads)
        .expect("thread count is clamped into the accepted range");
    (plan, ctx)
}

/// One-shot path through a [`transient_session`], traced into `trace` if
/// given.
fn factorize_impl<T: Scalar<Real = f64>>(
    a: &Matrix<T>,
    config: QrConfig,
    trace: Option<&ExecutionTrace>,
) -> QrFactorization<T> {
    let (plan, ctx) = transient_session(a.shape(), config);
    // The legacy contract is to panic on any failure. The context API
    // contains kernel panics as `QrError::TaskPanicked`; re-raising the
    // rendered error (which carries the original panic message) keeps this
    // wrapper panicking while results stay bitwise unchanged.
    ctx.batch_inner(&plan, std::slice::from_ref(a), trace)
        .pop()
        .expect("one matrix in, one result out")
        .unwrap_or_else(|e| panic!("{e}"))
}

impl<T: Scalar<Real = f64>> QrFactorization<T> {
    /// The upper-triangular factor `R` (size `n × n`, the original column
    /// count before padding).
    pub fn r(&self) -> Matrix<T> {
        self.reflectors.r(&self.tiles)
    }

    /// Applies `Qᴴ` to a dense matrix with `m` rows (the original, unpadded
    /// row count) and returns the result.
    pub fn apply_qh(&self, b: &Matrix<T>) -> Matrix<T> {
        self.reflectors.apply_qh(&self.tiles, b)
    }

    /// Applies `Q` to a dense matrix with `m` rows and returns the result.
    pub fn apply_q(&self, b: &Matrix<T>) -> Matrix<T> {
        self.reflectors.apply_q(&self.tiles, b)
    }

    /// Forms the economy-size orthogonal factor `Q` (`m × n`): the result of
    /// applying `Q` to the first `n` columns of the identity.
    pub fn q_economy(&self) -> Matrix<T> {
        let mut id = Matrix::zeros(self.m, self.n);
        for j in 0..self.n {
            id.set(j, j, T::ONE);
        }
        self.apply_q(&id)
    }

    /// Relative factorization residual `‖A − Q·R‖_F / ‖A‖_F` against the
    /// original matrix.
    pub fn residual(&self, a: &Matrix<T>) -> f64 {
        let q = self.q_economy();
        let r = self.r();
        tileqr_matrix::norms::factorization_residual(a, &q, &r)
    }

    /// Orthogonality residual `‖QᴴQ − I‖_F` of the economy `Q`.
    pub fn orthogonality(&self) -> f64 {
        tileqr_matrix::norms::orthogonality_residual(&self.q_economy())
    }

    /// Number of tile rows of the padded grid.
    pub fn tile_rows(&self) -> usize {
        self.tiles.tile_rows()
    }

    /// Number of tile columns of the padded grid.
    pub fn tile_cols(&self) -> usize {
        self.tiles.tile_cols()
    }

    /// Tile size `nb`.
    pub fn tile_size(&self) -> usize {
        self.tiles.tile_size()
    }

    /// Inner blocking factor `ib` the tiles were factored with (the `T`
    /// factors are stored `ib`-blocked, so replaying the reflectors uses the
    /// same panel width).
    pub fn inner_block(&self) -> usize {
        self.reflectors.inner_block()
    }

    /// Access to the factored tiles (R + Householder vectors), mainly for
    /// inspection and tests.
    pub fn factored_tiles(&self) -> &TiledMatrix<T> {
        &self.tiles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::generate::{random_matrix, RandomScalar};
    use tileqr_matrix::norms::{frobenius_norm, orthogonality_residual};
    use tileqr_matrix::Complex64;

    const TOL: f64 = 1e-11;

    fn check_factorization<T: RandomScalar>(
        m: usize,
        n: usize,
        nb: usize,
        config: QrConfig,
        seed: u64,
    ) {
        let a: Matrix<T> = random_matrix(m, n, seed);
        let f = qr_factorize(&a, config);
        let r = f.r();
        let algorithm = config.algorithm;
        assert!(
            r.is_upper_triangular(),
            "R not triangular for {algorithm:?}"
        );
        assert!(
            f.residual(&a) < TOL,
            "residual too large for {algorithm:?} ({m}x{n}, nb={nb}): {}",
            f.residual(&a)
        );
        assert!(
            f.orthogonality() < TOL,
            "Q not orthogonal for {algorithm:?}"
        );
    }

    #[test]
    fn greedy_tt_factorization_is_correct_real() {
        let greedy_tt = |nb| QrConfig::new(nb).with_family(KernelFamily::TT);
        check_factorization::<f64>(24, 16, 4, greedy_tt(4), 1);
        check_factorization::<f64>(20, 12, 8, greedy_tt(8), 2);
    }

    #[test]
    fn greedy_tt_factorization_is_correct_complex() {
        let config = QrConfig::new(4).with_family(KernelFamily::TT);
        check_factorization::<Complex64>(24, 16, 4, config, 3);
    }

    #[test]
    fn all_algorithms_and_families_agree_on_r_shape() {
        let algorithms = [
            Algorithm::FlatTree,
            Algorithm::Fibonacci,
            Algorithm::Greedy,
            Algorithm::BinaryTree,
            Algorithm::PlasmaTree { bs: 2 },
            Algorithm::Asap,
            Algorithm::Grasap { asap_cols: 1 },
        ];
        for algo in algorithms {
            for family in [KernelFamily::TT, KernelFamily::TS] {
                let config = QrConfig::new(4).with_algorithm(algo).with_family(family);
                check_factorization::<f64>(20, 8, 4, config, 7);
            }
        }
    }

    #[test]
    fn non_multiple_dimensions_are_padded_correctly() {
        check_factorization::<f64>(23, 9, 4, QrConfig::new(4), 11);
        check_factorization::<f64>(17, 17, 5, QrConfig::new(5), 12);
        check_factorization::<f64>(10, 3, 16, QrConfig::new(16), 13);
    }

    #[test]
    fn parallel_execution_matches_sequential() {
        let a: Matrix<f64> = random_matrix(32, 24, 21);
        let seq = qr_factorize(&a, QrConfig::new(8));
        let par = qr_factorize(&a, QrConfig::new(8).with_threads(4));
        let diff = frobenius_norm(&seq.r().sub(&par.r()));
        assert!(diff < 1e-12, "sequential and parallel R differ by {diff}");
        assert!(par.residual(&a) < TOL);
    }

    #[test]
    fn three_thread_config_produces_a_correct_factorization() {
        let a: Matrix<f64> = random_matrix(32, 24, 22);
        let f = qr_factorize(&a, QrConfig::new(8).with_threads(3));
        assert!(f.residual(&a) < TOL, "bad three-thread factorization");
    }

    #[test]
    fn apply_q_and_qh_are_inverse() {
        let a: Matrix<f64> = random_matrix(20, 12, 31);
        let f = qr_factorize(&a, QrConfig::new(4));
        let b: Matrix<f64> = random_matrix(20, 3, 32);
        let qhb = f.apply_qh(&b);
        let back = f.apply_q(&qhb);
        let diff = frobenius_norm(&back.sub(&b)) / frobenius_norm(&b);
        assert!(diff < 1e-12, "Q·Qᴴ·b differs from b by {diff}");
    }

    #[test]
    fn qh_times_a_equals_r_padded() {
        // Qᴴ·A = [R; 0]
        let a: Matrix<f64> = random_matrix(16, 8, 41);
        let f = qr_factorize(&a, QrConfig::new(4));
        let qha = f.apply_qh(&a);
        let r = f.r();
        for i in 0..16 {
            for j in 0..8 {
                let expected = if i < 8 { r.get(i, j) } else { 0.0 };
                assert!(
                    (qha.get(i, j) - expected).abs() < 1e-11,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn economy_q_is_orthonormal_complex() {
        let a: Matrix<Complex64> = random_matrix(18, 6, 51);
        let f = qr_factorize(&a, QrConfig::new(6).with_algorithm(Algorithm::Fibonacci));
        let q = f.q_economy();
        assert_eq!(q.shape(), (18, 6));
        assert!(orthogonality_residual(&q) < TOL);
    }

    #[test]
    fn single_tile_matrix() {
        check_factorization::<f64>(4, 4, 4, QrConfig::new(4), 61);
        check_factorization::<f64>(3, 3, 8, QrConfig::new(8), 62);
    }

    #[test]
    #[should_panic(expected = "m ≥ n")]
    fn wide_matrices_are_rejected() {
        let a: Matrix<f64> = random_matrix(4, 8, 71);
        let _ = qr_factorize(&a, QrConfig::new(2));
    }

    #[test]
    fn traced_factorization_records_every_task() {
        let a: Matrix<f64> = random_matrix(24, 12, 81);
        let untraced = qr_factorize(&a, QrConfig::new(4));
        let tasks = crate::context::QrPlan::<f64>::new(24, 12, QrConfig::new(4))
            .unwrap()
            .task_count();
        // The calling thread, a small pool and an oversubscribed one: the
        // trace rides the same job as every other call.
        for threads in [1usize, 2, 4] {
            let config = QrConfig::new(4).with_threads(threads);
            let (f, trace) = qr_factorize_traced(&a, config);
            assert_eq!(f.r(), untraced.r(), "tracing changed R ({threads} threads)");
            assert!(f.residual(&a) < TOL);
            // one span per DAG task
            assert_eq!(trace.len(), tasks, "{threads} threads");
            let summary = trace.summary();
            assert_eq!(summary.tasks, tasks);
            assert!(
                summary.makespan >= summary.per_kernel.iter().map(|(_, _, d)| *d).max().unwrap()
            );
            assert!(summary.average_parallelism() > 0.0);
        }
    }
}
