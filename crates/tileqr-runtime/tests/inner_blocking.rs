//! Inner-blocking (`ib`) edge-case sweep over full factorizations.
//!
//! For `ib ∈ {1, a non-divisor of nb, nb}`, both scalar types and both
//! kernel families:
//!
//! * the `ib = nb` configuration must be **bitwise identical** to the
//!   default configuration (inner blocking off is the historical path);
//! * every `ib` must produce a factorization within a tight backward-error
//!   bound, and its `R` factor must match the dense reference QR
//!   ([`tileqr_kernels::reference`]) componentwise in modulus — inner
//!   blocking legitimately reorders the compact-WY reductions, so bitwise
//!   equality across different `ib` values is *not* expected, but the
//!   backward error must stay at the unblocked level;
//! * for each `ib`, the sequential run and the parallel run must agree
//!   **bitwise** (the DAG orders every conflicting pair, so the
//!   schedule cannot change a single bit regardless of panel width).

use tileqr_core::algorithms::Algorithm;
use tileqr_core::KernelFamily;
use tileqr_kernels::reference::householder_qr;
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::{Complex64, Matrix};
use tileqr_runtime::driver::{qr_factorize, QrConfig};

const TOL: f64 = 1e-11;

/// `ib` sweep for one scalar type / family: 1, a non-divisor, and nb.
fn check_ib_sweep<T: RandomScalar>(family: KernelFamily, seed: u64) {
    let (m, n, nb) = (36usize, 24usize, 12usize);
    let a: Matrix<T> = random_matrix(m, n, seed);
    let reference = householder_qr(&a);

    let base = QrConfig::new(nb)
        .with_algorithm(Algorithm::Greedy)
        .with_family(family);
    let default_run = qr_factorize(&a, base);

    for ib in [1usize, 5, nb] {
        assert_eq!(nb % 5, 2, "5 must stay a non-divisor of nb");
        let config = base.with_inner_block(ib);
        let seq = qr_factorize(&a, config);
        assert_eq!(seq.inner_block(), ib);

        // Tight backward error at every ib.
        let resid = seq.residual(&a);
        assert!(resid < TOL, "{} ib={ib}: residual {resid}", family.name());
        let orth = seq.orthogonality();
        assert!(
            orth < TOL,
            "{} ib={ib}: orthogonality {orth}",
            family.name()
        );

        // Componentwise |R| against the dense reference (R is unique up to
        // a unit row phase, which the modulus quotients out).
        let r = seq.r();
        for i in 0..n {
            for j in 0..n {
                let got = r.get(i, j).abs();
                let want = reference.r.get(i, j).abs();
                assert!(
                    (got - want).abs() <= 1e-9 * (1.0 + want),
                    "{} ib={ib}: |R({i},{j})| {got} vs reference {want}",
                    family.name()
                );
            }
        }

        // ib = nb is the historical unblocked path: bitwise identical to the
        // default configuration.
        if ib == nb {
            assert_eq!(
                seq.factored_tiles(),
                default_run.factored_tiles(),
                "{}: ib = nb must be bitwise the default path",
                family.name()
            );
        }

        // The parallel run agrees bitwise with the sequential run at this ib.
        let par = qr_factorize(&a, config.with_threads(4));
        assert_eq!(
            seq.factored_tiles(),
            par.factored_tiles(),
            "{} ib={ib}: tiles differ",
            family.name()
        );
        assert_eq!(
            seq.r().as_slice(),
            par.r().as_slice(),
            "{} ib={ib}: R differs",
            family.name()
        );
    }
}

#[test]
fn ib_sweep_f64_tt() {
    check_ib_sweep::<f64>(KernelFamily::TT, 71);
}

#[test]
fn ib_sweep_f64_ts() {
    check_ib_sweep::<f64>(KernelFamily::TS, 72);
}

#[test]
fn ib_sweep_complex_tt() {
    check_ib_sweep::<Complex64>(KernelFamily::TT, 73);
}

#[test]
fn ib_sweep_complex_ts() {
    check_ib_sweep::<Complex64>(KernelFamily::TS, 74);
}

/// The default inner blocking is the *tuned* `ib = min(nb, 16)` (ROADMAP:
/// 1.72× end-to-end at nb = 128), not the historical `ib = nb`: the default
/// configuration must be bitwise identical to an explicit
/// `with_inner_block(ib)` run at that tuned value, for both scalar types
/// and kernel families, sequential and parallel.
#[test]
fn default_inner_block_is_the_tuned_ib_bitwise() {
    use tileqr_runtime::driver::DEFAULT_INNER_BLOCK;
    assert_eq!(DEFAULT_INNER_BLOCK, 16);
    // Large tiles cap at the tuned value; small tiles keep ib = nb.
    assert_eq!(QrConfig::new(24).effective_inner_block(), 16);
    assert_eq!(QrConfig::new(16).effective_inner_block(), 16);
    assert_eq!(QrConfig::new(8).effective_inner_block(), 8);

    fn check<T: RandomScalar>(family: KernelFamily, seed: u64) {
        let (m, n, nb) = (48usize, 36usize, 24usize); // nb > 16: the flip is live
        let a: Matrix<T> = random_matrix(m, n, seed);
        let base = QrConfig::new(nb)
            .with_algorithm(Algorithm::Greedy)
            .with_family(family);
        let default_run = qr_factorize(&a, base);
        assert_eq!(default_run.inner_block(), 16);
        let explicit = qr_factorize(&a, base.with_inner_block(16));
        assert_eq!(
            default_run.factored_tiles(),
            explicit.factored_tiles(),
            "{}: default must be bitwise with_inner_block(16)",
            family.name()
        );
        // And the parallel default agrees with the sequential default.
        let par = qr_factorize(&a, base.with_threads(4));
        assert_eq!(
            default_run.factored_tiles(),
            par.factored_tiles(),
            "{}: new default diverges",
            family.name()
        );
    }
    check::<f64>(KernelFamily::TT, 91);
    check::<f64>(KernelFamily::TS, 92);
    check::<Complex64>(KernelFamily::TT, 93);
    check::<Complex64>(KernelFamily::TS, 94);
}

/// `Q`/`Qᴴ` replay must honour the ib-blocked `T` layout: applying `Q` then
/// `Qᴴ` restores the input, and `Qᴴ·A` reproduces `[R; 0]`, at every ib.
#[test]
fn apply_roundtrip_respects_inner_blocking() {
    let (m, n, nb) = (30usize, 18usize, 6usize);
    let a: Matrix<f64> = random_matrix(m, n, 80);
    for ib in [1usize, 4, 6] {
        let f = qr_factorize(&a, QrConfig::new(nb).with_inner_block(ib));
        let b: Matrix<f64> = random_matrix(m, 3, 81);
        let qhb = f.apply_qh(&b);
        let back = f.apply_q(&qhb);
        let diff = tileqr_matrix::norms::frobenius_norm(&back.sub(&b));
        assert!(diff < 1e-11, "ib={ib}: Q·Qᴴ·b differs from b by {diff}");

        let qha = f.apply_qh(&a);
        let r = f.r();
        for i in 0..m {
            for j in 0..n {
                let expected = if i < n { r.get(i, j) } else { 0.0 };
                assert!(
                    (qha.get(i, j) - expected).abs() < 1e-10,
                    "ib={ib}: QᴴA mismatch at ({i},{j})"
                );
            }
        }
    }
}
