//! Static race-freedom sweep: every plan the repo can schedule — all
//! elimination algorithms × both kernel families over a broad shape set —
//! is proven free of RAW/WAR/WAW hazards at tile-region granularity by the
//! analyzer in `tileqr_core::footprint`, both as a plain factorization and
//! with the trailing right-hand-side column of the fused least-squares plan.
//! The same sweep proves the first-touch rule a dense input is filled by:
//! every tile is named, its first task writes it, and every other task
//! naming it descends from that first task.
//!
//! The default test covers 50 shapes (a dense small grid plus every paper
//! table shape with `p ≤ 64`). The handful of very large paper shapes are
//! split into an `#[ignore]`d test so the default suite stays fast on one
//! core; CI runs them through the release-mode `tileqr-analyze` binary
//! (`--paper-tables`), and `cargo test -- --ignored` runs them here.

use tileqr_core::dag::KernelFamily;
use tileqr_core::footprint::{algorithm_roster, analyze, plan_dag, PAPER_TABLE_SHAPES};

/// Proves every plan of the `p × q` roster; returns the conflicting pairs
/// proven ordered and the number of plans.
fn assert_shape_race_free(p: usize, q: usize) -> (u64, usize) {
    let (mut proven, mut plans) = (0u64, 0usize);
    for family in [KernelFamily::TT, KernelFamily::TS] {
        for algo in algorithm_roster(p, q) {
            for trailing in [0, 1] {
                let dag = plan_dag(algo, p, q, family, trailing);
                let report = analyze(&dag);
                assert!(
                    report.is_race_free(),
                    "{p}x{q}+{trailing} {} {family:?}: hazards {:?}, structure {:?}, \
                     first touch {:?}",
                    algo.name(),
                    report.hazards.first(),
                    report.structure_errors.first(),
                    report.first_touch_errors.first()
                );
                proven += report.ordered_pairs;
                plans += 1;
            }
        }
    }
    (proven, plans)
}

/// Plans the default sweep proves: shapes × families × roster × {factor,
/// solve}.
const PLANS: usize = 2_224;

/// 50 shapes: every `1 ≤ q ≤ p ≤ 8` plus the paper-table shapes with
/// `p ≤ 64`, all algorithms, both kernel families.
#[test]
fn sweep_small_and_paper_shapes_race_free() {
    let mut shapes: Vec<(usize, usize)> = Vec::new();
    for p in 1..=8 {
        for q in 1..=p {
            shapes.push((p, q));
        }
    }
    shapes.extend(PAPER_TABLE_SHAPES.iter().copied().filter(|&(p, _)| p <= 64));
    shapes.sort_unstable();
    shapes.dedup();
    assert!(
        shapes.len() >= 50,
        "sweep shrank below 50 shapes: {}",
        shapes.len()
    );

    let (mut proven, mut plans) = (0u64, 0usize);
    for &(p, q) in &shapes {
        let (pairs, n) = assert_shape_race_free(p, q);
        proven += pairs;
        plans += n;
    }
    assert!(
        proven > 1_000_000,
        "suspiciously few conflicting pairs: {proven}"
    );
    // Half factorizations, half the solve schedule of the same plan.
    assert_eq!(plans, PLANS, "the sweep's plan count moved");
}

/// The large paper-table shapes (`p > 64`), same roster. Ignored by default
/// (roughly a minute of debug-mode work on one core); run with
/// `cargo test -p tileqr-core --test plan_race_freedom -- --ignored`, or get
/// the same coverage from `tileqr-analyze --paper-tables` in release mode.
#[test]
#[ignore = "large shapes; covered by tileqr-analyze --paper-tables in CI"]
fn sweep_large_paper_shapes_race_free() {
    for &(p, q) in PAPER_TABLE_SHAPES.iter().filter(|&&(p, _)| p > 64) {
        assert_shape_race_free(p, q);
    }
}
