//! Forced-path equivalence suite for the runtime SIMD dispatch.
//!
//! Every SIMD level the running CPU supports must agree with the scalar
//! fallback across all six kernels × {f64, Complex64} × ib ∈ {1, odd, nb}:
//!
//! * **bitwise** when the reduction order is preserved — the scalar level
//!   always (it *is* the historical kernel), and every level when the `fma`
//!   cargo feature is off (the SIMD kernels then use unfused mul + add in
//!   the scalar evaluation order);
//! * within a **`4·ε·‖A‖` per dispatched product** tolerance where fusing
//!   changes the rounding (the default build: the SIMD levels use fused
//!   multiply-add intrinsics, the scalar fallback stays unfused on a
//!   generic target) — enforced directly at the GEMM level (at each level's
//!   own register-block edges: the block shape, and with it the pack
//!   layout, is a property of the level), and compounded by the number of
//!   `ib`-panel updates for the full kernels.
//!
//! Levels are forced in-process with [`simd::set_active`]; the process-global
//! active level means every test here serializes on one mutex. CI re-runs
//! this suite once per level with `TILEQR_SIMD` set, which exercises the env
//! override end to end ([`override_and_detection_agree`] asserts the active
//! level honors it).

use std::sync::Mutex;

use tileqr_kernels::microblas::{apack_len, bpack_len, gemm_into, AForm, AMode};
use tileqr_kernels::simd::{self, BlockShape, SimdLevel};
use tileqr_kernels::{
    geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Trans, Workspace,
};
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::norms::frobenius_norm;
use tileqr_matrix::{Complex64, Matrix, Scalar};

/// Serializes every test that reads or forces the process-global level.
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LEVEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the level found at construction even if the test panics, so a
/// failure in one test never leaks a forced level into the others.
struct LevelRestore(SimdLevel);

impl LevelRestore {
    fn new() -> Self {
        LevelRestore(simd::active())
    }
}

impl Drop for LevelRestore {
    fn drop(&mut self) {
        simd::set_active(self.0);
    }
}

/// Whether the `level` microkernels round differently from the scalar
/// fallback in this build: only with the `fma` cargo feature, and only for
/// the levels with explicit fused kernels.
fn fused_vs_scalar(level: SimdLevel) -> bool {
    cfg!(feature = "fma") && level != SimdLevel::Scalar
}

/// Elementwise comparison: exact when `bitwise`, else within
/// `updates · 4·ε·‖A‖` where `‖A‖` is the Frobenius scale of the *input*
/// tiles (`scale`). The `4·ε·‖A‖` budget is per dispatched product — the
/// GEMM-level test enforces it directly with `updates = 1`; kernel outputs
/// pass through one compact-WY update per `ib`-panel, each contributing its
/// own rounding difference, so the kernel-level checks compound the budget
/// by the panel count.
fn assert_close<T: Scalar<Real = f64>>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    bitwise: bool,
    scale: f64,
    updates: usize,
    what: &str,
) {
    if bitwise {
        assert_eq!(a, b, "{what}: bitwise mismatch");
        return;
    }
    let tol = updates.max(1) as f64 * 4.0 * f64::EPSILON * scale.max(1.0);
    for j in 0..a.cols() {
        for i in 0..a.rows() {
            let d = (a.get(i, j) - b.get(i, j)).abs();
            assert!(
                d <= tol,
                "{what}: |Δ| = {d:.3e} > {updates}·4·ε·‖A‖ = {tol:.3e} at ({i},{j})"
            );
        }
    }
}

/// One full pass over all six kernels at (`nb`, `ib`): factor a GE tile, a
/// TS pair and a TT pair, apply each reflector block in both transposes, and
/// return every output in a fixed order for cross-level comparison, plus the
/// largest input Frobenius norm (the `‖A‖` the tolerance anchors to).
fn run_all_kernels<T: RandomScalar>(nb: usize, ib: usize, seed: u64) -> (Vec<Matrix<T>>, f64) {
    let mut ws: Workspace<T> = Workspace::with_inner_block(nb, ib);
    let mut out = Vec::new();
    let mut scale = 0.0f64;
    let mut input = |m: Matrix<T>| {
        scale = scale.max(frobenius_norm(&m));
        m
    };

    // GEQRT + UNMQR
    let mut v = input(random_matrix(nb, nb, seed));
    let mut t: Matrix<T> = Matrix::zeros(nb, nb);
    geqrt_ws(&mut v, &mut t, &mut ws);
    for trans in [Trans::ConjTrans, Trans::NoTrans] {
        let mut c = input(random_matrix(nb, nb, seed + 1));
        unmqr_ws(&v, &t, &mut c, trans, &mut ws);
        out.push(c);
    }
    out.push(v);
    out.push(t);

    // TSQRT + TSMQR
    let mut r1: Matrix<T> = random_matrix(nb, nb, seed + 2);
    r1.zero_below_diagonal();
    let mut r1 = input(r1);
    let mut v2 = input(random_matrix(nb, nb, seed + 3));
    let mut t: Matrix<T> = Matrix::zeros(nb, nb);
    tsqrt_ws(&mut r1, &mut v2, &mut t, &mut ws);
    for trans in [Trans::ConjTrans, Trans::NoTrans] {
        let mut c1 = input(random_matrix(nb, nb, seed + 4));
        let mut c2 = input(random_matrix(nb, nb, seed + 5));
        tsmqr_ws(&v2, &t, &mut c1, &mut c2, trans, &mut ws);
        out.push(c1);
        out.push(c2);
    }
    out.push(r1);
    out.push(v2);
    out.push(t);

    // TTQRT + TTMQR
    let mut q1: Matrix<T> = random_matrix(nb, nb, seed + 6);
    q1.zero_below_diagonal();
    let mut q1 = input(q1);
    let mut q2: Matrix<T> = random_matrix(nb, nb, seed + 7);
    q2.zero_below_diagonal();
    let mut q2 = input(q2);
    let mut t: Matrix<T> = Matrix::zeros(nb, nb);
    ttqrt_ws(&mut q1, &mut q2, &mut t, &mut ws);
    for trans in [Trans::ConjTrans, Trans::NoTrans] {
        let mut c1 = input(random_matrix(nb, nb, seed + 8));
        let mut c2 = input(random_matrix(nb, nb, seed + 9));
        ttmqr_ws(&q2, &t, &mut c1, &mut c2, trans, &mut ws);
        out.push(c1);
        out.push(c2);
    }
    out.push(q1);
    out.push(q2);
    out.push(t);

    (out, scale)
}

fn check_levels_agree<T: RandomScalar>(type_name: &str) {
    let _guard = lock();
    let _restore = LevelRestore::new();
    // nb covers ragged, exact and multi-block tiles for every level's shape
    // (see `gemm_agrees_across_levels_at_block_edges` for the edges proper);
    // ib sweeps {1, odd, nb} per the inner-blocking contract. The blockings
    // the workloads run, and a ragged one, follow: there the in-panel sweep
    // reduces whole four-column groups at `ib < nb`.
    let sweep = [5usize, 16, 24]
        .into_iter()
        .flat_map(|nb| [(nb, 1), (nb, 3), (nb, nb)]);
    for (nb, ib) in sweep.chain([(64, 16), (128, 32), (37, 8)]) {
        {
            let seed = 1000 + 10 * nb as u64 + ib as u64;
            simd::set_active(SimdLevel::Scalar);
            let (reference, scale) = run_all_kernels::<T>(nb, ib, seed);
            for level in simd::available_levels() {
                simd::set_active(level);
                let (got, _) = run_all_kernels::<T>(nb, ib, seed);
                assert_eq!(reference.len(), got.len());
                let bitwise = !fused_vs_scalar(level);
                for (idx, (r, g)) in reference.iter().zip(&got).enumerate() {
                    assert_close(
                        g,
                        r,
                        bitwise,
                        scale,
                        nb.div_ceil(ib),
                        &format!(
                            "{type_name} level={} nb={nb} ib={ib} output #{idx}",
                            level.name()
                        ),
                    );
                }
            }
        }
    }
}

/// GEQRT, TSQRT and TTQRT on `nb`-order f64 tiles whose column 1 is zero
/// (τ = 0 and an all-zero `T` column) and whose column 2 is scaled by
/// `2^600` (`larfg` rescales it): every tile and `T` factor, in order.
#[cfg(not(feature = "fma"))]
fn factor_outputs(nb: usize, seed: u64) -> Vec<Matrix<f64>> {
    let shaped = |seed: u64, upper: bool| {
        let mut m: Matrix<f64> = random_matrix(nb, nb, seed);
        if upper {
            m.zero_below_diagonal();
        }
        m.col_mut(1).fill(0.0);
        m.col_mut(2).iter_mut().for_each(|x| *x *= 2f64.powi(600));
        m
    };
    let mut ws = Workspace::new(nb);
    let mut out = Vec::new();
    let (mut a, mut t) = (shaped(seed, false), Matrix::zeros(nb, nb));
    geqrt_ws(&mut a, &mut t, &mut ws);
    out.extend([a, t]);
    for (upper, kernel) in [
        (false, tsqrt_ws as fn(&mut _, &mut _, &mut _, &mut _)),
        (true, ttqrt_ws),
    ] {
        let (mut r1, mut a2) = (shaped(seed + 1, true), shaped(seed + 2, upper));
        let mut t = Matrix::zeros(nb, nb);
        kernel(&mut r1, &mut a2, &mut t, &mut ws);
        out.extend([r1, a2, t]);
    }
    out
}

/// The factor kernels' column sweeps and `T` recurrences are unfused on
/// every level, and so are their block products in the unfused build: there
/// every level's tiles and `T` factors are the scalar level's bits, the
/// `τ = 0` column and the rescaled one included. With the `fma` feature the
/// recursive panel's products fuse on the SIMD levels, as the update
/// kernels' do, and `all_levels_agree_with_scalar_f64` bounds the factor
/// outputs instead.
#[cfg(not(feature = "fma"))]
#[test]
fn factor_kernels_are_bitwise_scalar_at_every_level() {
    let _guard = lock();
    let _restore = LevelRestore::new();
    for nb in [7usize, 16, 37, 64] {
        simd::set_active(SimdLevel::Scalar);
        let reference = factor_outputs(nb, 300 + nb as u64);
        let t = &reference[1];
        assert!(
            t.col(1).iter().all(|&x| x == 0.0),
            "τ = 0 leaves a zero T column"
        );
        for level in simd::available_levels() {
            simd::set_active(level);
            for (idx, (r, g)) in reference
                .iter()
                .zip(&factor_outputs(nb, 300 + nb as u64))
                .enumerate()
            {
                assert_close(
                    g,
                    r,
                    true,
                    0.0,
                    1,
                    &format!("nb={nb} level={} output #{idx}", level.name()),
                );
            }
        }
    }
}

#[test]
fn all_levels_agree_with_scalar_f64() {
    check_levels_agree::<f64>("f64");
}

#[test]
fn all_levels_agree_with_scalar_complex() {
    check_levels_agree::<Complex64>("Complex64");
}

/// The three ways an `A` operand reaches the packers: every stored entry,
/// columns cut at their diagonal (upper trapezoid, the rest implied zero),
/// and the unit-lower form (zeros and the unit diagonal implied, the storage
/// there never read).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Operand {
    Full,
    ShortColumns,
    UnitLower,
}

/// `C ±= op(A)·B` through `gemm_into` at the active level, and the stored
/// `A` with its implied structure made explicit (for the naive reference).
fn structured_gemm<T: RandomScalar>(
    (m, n, k): (usize, usize, usize),
    amode: AMode,
    operand: Operand,
    sub: bool,
    seed: u64,
) -> (Matrix<T>, Matrix<T>, Matrix<T>, Matrix<T>) {
    let (rows, cols) = match amode {
        AMode::NoTrans => (m, k),
        AMode::ConjTrans => (k, m),
    };
    let a: Matrix<T> = random_matrix(rows, cols, seed);
    let b: Matrix<T> = random_matrix(k, n, seed + 1);
    let c0: Matrix<T> = random_matrix(m, n, seed + 2);
    let explicit = Matrix::from_fn(rows, cols, |i, j| match operand {
        Operand::Full => a.get(i, j),
        Operand::ShortColumns if i <= j => a.get(i, j),
        Operand::UnitLower if i > j => a.get(i, j),
        Operand::UnitLower if i == j => T::ONE,
        _ => T::ZERO,
    });
    let form = match operand {
        Operand::UnitLower => AForm::UnitLower,
        _ => AForm::Dense,
    };
    let mut c = c0.clone();
    let mut apack = vec![T::ZERO; apack_len::<T>(m, k)];
    let mut bpack = vec![T::ZERO; bpack_len::<T>(k, n)];
    gemm_into(
        m,
        n,
        k,
        amode,
        form,
        |j| match operand {
            Operand::ShortColumns => &a.col(j)[..rows.min(j + 1)],
            _ => a.col(j),
        },
        |j| b.col(j),
        c.as_mut_slice(),
        |j| j * m,
        sub,
        &mut apack,
        &mut bpack,
    );
    (c, c0, explicit, b)
}

/// One product at `level` against the scalar level (bitwise unless the
/// level fuses), and the scalar level against the naive product.
fn check_gemm_case<T: RandomScalar>(
    level: SimdLevel,
    dims: (usize, usize, usize),
    amode: AMode,
    operand: Operand,
    sub: bool,
) {
    let (m, n, k) = dims;
    let run = || structured_gemm::<T>(dims, amode, operand, sub, (97 * m + 13 * n + k) as u64);
    simd::set_active(SimdLevel::Scalar);
    let (c_ref, c0, a, b) = run();
    simd::set_active(level);
    let (c, ..) = run();
    let what = format!(
        "{} gemm {m}x{n}x{k} {amode:?} {operand:?} sub={sub} level={}",
        std::any::type_name::<T>(),
        level.name()
    );
    let scale = frobenius_norm(&a).max(frobenius_norm(&b));
    assert_close(&c, &c_ref, !fused_vs_scalar(level), scale, 1, &what);
    let op_a = match amode {
        AMode::NoTrans => a,
        AMode::ConjTrans => a.conj_transpose(),
    };
    let prod = op_a.matmul(&b);
    let want = if sub { c0.sub(&prod) } else { c0.add(&prod) };
    let err = frobenius_norm(&c_ref.sub(&want));
    assert!(err <= 1e-12 * (1.0 + scale), "{what}: naive Δ {err:e}");
}

#[test]
fn gemm_agrees_across_levels_at_block_edges() {
    // The microkernel and the packers at every level's *own* register-block
    // edges — one short of, exactly, one past and two-and-a-bit blocks in
    // both directions — for a single step and for the `ib`- and `nb`-deep
    // products of an `(nb, ib) = (32, 8)` tile, both signs, and every
    // operand structure the block reflector hands them.
    fn check<T: RandomScalar>() {
        let _restore = LevelRestore::new();
        for level in simd::available_levels() {
            let BlockShape { mr, nr } = simd::block_shape::<T>(level);
            for m in [mr - 1, mr, mr + 1, 2 * mr + 1] {
                for n in [nr - 1, nr, nr + 1, 2 * nr + 1] {
                    for k in [1usize, 8, 32] {
                        for amode in [AMode::NoTrans, AMode::ConjTrans] {
                            for operand in
                                [Operand::Full, Operand::ShortColumns, Operand::UnitLower]
                            {
                                check_gemm_case::<T>(level, (m, n, k), amode, operand, false);
                                check_gemm_case::<T>(level, (m, n, k), amode, operand, true);
                            }
                        }
                    }
                }
            }
        }
    }
    let _guard = lock();
    check::<f64>();
    check::<Complex64>();
}

#[test]
fn override_and_detection_agree() {
    // The cached active level must equal what the resolution rules say for
    // the process environment: the detected best level when TILEQR_SIMD is
    // unset (or names an unknown/unsupported level), the override otherwise.
    // Every other test in this binary restores the level it found, so the
    // invariant holds whenever this test gets the lock.
    let _guard = lock();
    let expect = simd::resolve(std::env::var("TILEQR_SIMD").ok().as_deref());
    assert_eq!(
        simd::active(),
        expect,
        "active level diverges from the TILEQR_SIMD/detection resolution"
    );
    assert!(simd::is_supported(simd::active()));
}

#[test]
fn forcing_levels_round_trips() {
    let _guard = lock();
    let initial = simd::active();
    let _restore = LevelRestore::new();
    for level in simd::available_levels() {
        let prev = simd::set_active(level);
        assert!(simd::is_supported(prev));
        assert_eq!(simd::active(), level);
    }
    simd::set_active(initial);
    assert_eq!(simd::active(), initial);
}
