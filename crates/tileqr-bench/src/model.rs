//! Model-exact results: time-step tables, critical paths, overheads and
//! roofline predictions. Everything in this module is deterministic and
//! machine independent — these are the numbers that must match the paper
//! digit for digit (Tables 2–5 and the "theoretical"/"predicted" series of
//! the figures).

use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::TaskDag;
use tileqr_core::perfmodel::{predicted_rate, PredictionInput};
use tileqr_core::sim::{
    best_plasma_tree, critical_path, elimination_finish_times, simulate_grasap, simulate_unbounded,
};
use tileqr_core::KernelFamily;

/// Tiled (weighted-kernel) elimination times for one algorithm, as in the
/// paper's Tables 3 and 4. Handles both the static trees and the dynamic
/// Asap / Grasap algorithms.
pub fn tiled_steps(
    algo: Algorithm,
    p: usize,
    q: usize,
    family: KernelFamily,
) -> Vec<Vec<Option<u64>>> {
    match algo {
        Algorithm::Asap => simulate_grasap(p, q, q).elim_finish,
        Algorithm::Grasap { asap_cols } => simulate_grasap(p, q, asap_cols).elim_finish,
        _ => {
            let list = algo.elimination_list(p, q);
            let dag = TaskDag::build(&list, family);
            let sched = simulate_unbounded(&dag);
            elimination_finish_times(&dag, &sched)
        }
    }
}

/// Critical path of an algorithm on a `p × q` grid. For
/// [`Algorithm::PlasmaTree`] the stored `bs` is used; use
/// [`best_plasma_tree`] for the exhaustive sweep the paper performs.
pub fn algorithm_critical_path(algo: Algorithm, p: usize, q: usize, family: KernelFamily) -> u64 {
    match algo {
        Algorithm::Asap => simulate_grasap(p, q, q).critical_path,
        Algorithm::Grasap { asap_cols } => simulate_grasap(p, q, asap_cols).critical_path,
        _ => critical_path(&algo.elimination_list(p, q), family),
    }
}

/// One row of the paper's Table 5: theoretical comparison of Greedy against
/// the best PlasmaTree(TT) and Fibonacci for a given `q` (with `p` fixed).
#[derive(Clone, Copy, Debug)]
pub struct Table5Row {
    /// Tile columns.
    pub q: usize,
    /// Greedy critical path.
    pub greedy: u64,
    /// Best PlasmaTree(TT) critical path.
    pub plasma: u64,
    /// Domain size achieving it.
    pub best_bs: usize,
    /// `plasma / greedy`.
    pub plasma_overhead: f64,
    /// `1 − greedy / plasma`.
    pub plasma_gain: f64,
    /// Fibonacci critical path.
    pub fibonacci: u64,
    /// `fibonacci / greedy`.
    pub fibonacci_overhead: f64,
    /// `1 − greedy / fibonacci`.
    pub fibonacci_gain: f64,
}

/// Computes the full Table 5 for tile-row count `p` and `q = 1..=p`.
pub fn table5(p: usize) -> Vec<Table5Row> {
    (1..=p).map(|q| table5_row(p, q)).collect()
}

/// Computes a single row of Table 5.
pub fn table5_row(p: usize, q: usize) -> Table5Row {
    let greedy = algorithm_critical_path(Algorithm::Greedy, p, q, KernelFamily::TT);
    let (best_bs, plasma) = best_plasma_tree(p, q, KernelFamily::TT);
    let fibonacci = algorithm_critical_path(Algorithm::Fibonacci, p, q, KernelFamily::TT);
    Table5Row {
        q,
        greedy,
        plasma,
        best_bs,
        plasma_overhead: plasma as f64 / greedy as f64,
        plasma_gain: 1.0 - greedy as f64 / plasma as f64,
        fibonacci,
        fibonacci_overhead: fibonacci as f64 / greedy as f64,
        fibonacci_gain: 1.0 - greedy as f64 / fibonacci as f64,
    }
}

/// The algorithm line-up of the paper's Figure 1 (TT kernels only) plus the
/// TS variants used in Figure 6.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Series {
    /// FlatTree with TS kernels.
    FlatTreeTs,
    /// Best-BS PlasmaTree with TS kernels.
    PlasmaTreeTs,
    /// FlatTree with TT kernels.
    FlatTreeTt,
    /// Best-BS PlasmaTree with TT kernels.
    PlasmaTreeTt,
    /// Fibonacci (TT kernels).
    Fibonacci,
    /// Greedy (TT kernels).
    Greedy,
}

impl Series {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Series::FlatTreeTs => "FlatTree(TS)",
            Series::PlasmaTreeTs => "PlasmaTree(TS,best)",
            Series::FlatTreeTt => "FlatTree(TT)",
            Series::PlasmaTreeTt => "PlasmaTree(TT,best)",
            Series::Fibonacci => "Fibonacci(TT)",
            Series::Greedy => "Greedy",
        }
    }

    /// The four TT-kernel series of Figures 1–3.
    pub const TT_ONLY: [Series; 4] = [
        Series::FlatTreeTt,
        Series::PlasmaTreeTt,
        Series::Fibonacci,
        Series::Greedy,
    ];

    /// All six series of Figures 6–8.
    pub const ALL: [Series; 6] = [
        Series::FlatTreeTs,
        Series::PlasmaTreeTs,
        Series::FlatTreeTt,
        Series::PlasmaTreeTt,
        Series::Fibonacci,
        Series::Greedy,
    ];

    /// Critical path of this series on a `p × q` grid (best BS for the
    /// PlasmaTree series). Returns the best domain size when relevant.
    pub fn critical_path(self, p: usize, q: usize) -> (u64, Option<usize>) {
        match self {
            Series::FlatTreeTs => (
                algorithm_critical_path(Algorithm::FlatTree, p, q, KernelFamily::TS),
                None,
            ),
            Series::PlasmaTreeTs => {
                let (bs, cp) = best_plasma_tree(p, q, KernelFamily::TS);
                (cp, Some(bs))
            }
            Series::FlatTreeTt => (
                algorithm_critical_path(Algorithm::FlatTree, p, q, KernelFamily::TT),
                None,
            ),
            Series::PlasmaTreeTt => {
                let (bs, cp) = best_plasma_tree(p, q, KernelFamily::TT);
                (cp, Some(bs))
            }
            Series::Fibonacci => (
                algorithm_critical_path(Algorithm::Fibonacci, p, q, KernelFamily::TT),
                None,
            ),
            Series::Greedy => (
                algorithm_critical_path(Algorithm::Greedy, p, q, KernelFamily::TT),
                None,
            ),
        }
    }

    /// The concrete (algorithm, kernel family) to use when actually running
    /// this series on the machine, with the PlasmaTree series instantiated at
    /// their model-optimal domain size.
    pub fn instantiate(self, p: usize, q: usize) -> (Algorithm, KernelFamily) {
        match self {
            Series::FlatTreeTs => (Algorithm::FlatTree, KernelFamily::TS),
            Series::PlasmaTreeTs => {
                let (bs, _) = best_plasma_tree(p, q, KernelFamily::TS);
                (Algorithm::PlasmaTree { bs }, KernelFamily::TS)
            }
            Series::FlatTreeTt => (Algorithm::FlatTree, KernelFamily::TT),
            Series::PlasmaTreeTt => {
                let (bs, _) = best_plasma_tree(p, q, KernelFamily::TT);
                (Algorithm::PlasmaTree { bs }, KernelFamily::TT)
            }
            Series::Fibonacci => (Algorithm::Fibonacci, KernelFamily::TT),
            Series::Greedy => (Algorithm::Greedy, KernelFamily::TT),
        }
    }
}

/// Roofline prediction (Section 4) for one series: `γ_seq · T / max(T/P, cp)`.
pub fn predicted_gflops(
    series: Series,
    p: usize,
    q: usize,
    processors: usize,
    gamma_seq: f64,
) -> f64 {
    let (cp, _) = series.critical_path(p, q);
    let total = 6 * (p as u64) * (q as u64) * (q as u64) - 2 * (q as u64).pow(3);
    predicted_rate(PredictionInput {
        total_weight: total,
        critical_path: cp,
        processors,
        gamma_seq,
    })
}

/// Critical-path overhead of every series with respect to Greedy
/// (Greedy = 1), the quantity plotted in Figures 2(a), 3(a), 7(a), 8(a).
pub fn cp_overhead_vs_greedy(series: &[Series], p: usize, q: usize) -> Vec<(Series, f64)> {
    let greedy = algorithm_critical_path(Algorithm::Greedy, p, q, KernelFamily::TT) as f64;
    series
        .iter()
        .map(|&s| (s, s.critical_path(p, q).0 as f64 / greedy))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_matches_published_values() {
        // spot-check the published rows (p = 40)
        let r = table5_row(40, 3);
        assert_eq!(
            (r.greedy, r.plasma, r.best_bs, r.fibonacci),
            (74, 98, 5, 94)
        );
        assert!((r.plasma_overhead - 1.3243).abs() < 5e-4);
        assert!((r.plasma_gain - 0.2449).abs() < 5e-4);
        assert!((r.fibonacci_overhead - 1.2703).abs() < 5e-4);
        assert!((r.fibonacci_gain - 0.2128).abs() < 5e-4);

        let r = table5_row(40, 30);
        assert_eq!(
            (r.greedy, r.plasma, r.best_bs, r.fibonacci),
            (668, 698, 20, 688)
        );
    }

    #[test]
    fn series_instantiation_is_consistent_with_critical_path() {
        for series in Series::ALL {
            let (algo, family) = series.instantiate(12, 4);
            let (cp, _) = series.critical_path(12, 4);
            let direct = algorithm_critical_path(algo, 12, 4, family);
            assert_eq!(cp, direct, "{}", series.label());
        }
    }

    #[test]
    fn greedy_overhead_of_greedy_is_one() {
        let overheads = cp_overhead_vs_greedy(&Series::ALL, 20, 5);
        for (s, o) in overheads {
            if s == Series::Greedy {
                assert!((o - 1.0).abs() < 1e-12);
            } else {
                assert!(o >= 1.0 - 1e-12, "{} overhead {o} < 1", s.label());
            }
        }
    }

    #[test]
    fn predicted_gflops_ordering_for_tall_matrices() {
        // For p >> q the prediction is critical-path bound, so Greedy wins.
        let g = predicted_gflops(Series::Greedy, 40, 4, 48, 1.0);
        let f = predicted_gflops(Series::FlatTreeTt, 40, 4, 48, 1.0);
        assert!(g > f);
        // For a single processor every series predicts the sequential speed.
        for s in Series::ALL {
            let v = predicted_gflops(s, 10, 3, 1, 2.5);
            assert!((v - 2.5).abs() < 1e-9, "{}", s.label());
        }
    }

    #[test]
    fn tiled_steps_cover_all_subdiagonal_tiles() {
        for algo in [
            Algorithm::Greedy,
            Algorithm::Asap,
            Algorithm::Grasap { asap_cols: 1 },
        ] {
            let steps = tiled_steps(algo, 8, 3, KernelFamily::TT);
            for i in 0..8 {
                for k in 0..3 {
                    if i > k {
                        assert!(steps[i][k].is_some(), "{:?} missing ({i},{k})", algo);
                    } else {
                        assert!(steps[i][k].is_none());
                    }
                }
            }
        }
    }
}
