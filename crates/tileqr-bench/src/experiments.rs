//! Experiment entry points — one function per table/figure of the paper.
//!
//! Each function returns a ready-to-print plain-text report; the thin
//! `table*` / `figure*` binaries in `src/bin/` simply call them. The
//! model-exact experiments (Tables 2–5, the predicted/theoretical series)
//! are machine independent; the wall-clock experiments take a [`Scenario`]
//! describing the problem size and thread count.

use tileqr_core::algorithms::Algorithm;
use tileqr_core::coarse::prescribed_steps;
use tileqr_core::formulas;
use tileqr_core::sim::{best_plasma_tree, critical_path, simulate_asap, simulate_grasap};
use tileqr_core::KernelFamily;
use tileqr_kernels::flops::KernelKind;
use tileqr_matrix::Complex64;

use crate::model::{self, Series};
use crate::report::{rate_cell, ratio_cell, step_cell, Table};
use crate::timing::{self, CacheMode};
use crate::Scenario;

/// Renders a per-tile time-step matrix (Tables 2–4 style): one row per tile
/// row, one column per tile column, `*` on and above the diagonal.
fn steps_table<T: Copy + Into<u64>>(title: &str, steps: &[Vec<Option<T>>]) -> Table {
    let q = steps.first().map(|r| r.len()).unwrap_or(0);
    let header: Vec<String> = std::iter::once("row".to_string())
        .chain((1..=q).map(|k| format!("k={k}")))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    for (i, row) in steps.iter().enumerate() {
        let mut cells = vec![(i + 1).to_string()];
        cells.extend(row.iter().map(|v| step_cell(v.map(Into::into))));
        table.push_row(cells);
    }
    table
}

/// Table 2: coarse-grain time-steps of Sameh-Kuck, Fibonacci and Greedy.
pub fn table2_report(p: usize, q: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 2 — coarse-grain time-steps for a {p} x {q} tile matrix\n\n"
    ));
    for algo in [Algorithm::FlatTree, Algorithm::Fibonacci, Algorithm::Greedy] {
        let sched = prescribed_steps(algo, p, q);
        let name = if algo == Algorithm::FlatTree {
            "Sameh-Kuck".to_string()
        } else {
            algo.name()
        };
        let steps: Vec<Vec<Option<u64>>> = sched
            .steps
            .iter()
            .map(|r| r.iter().map(|v| v.map(|x| x as u64)).collect())
            .collect();
        out.push_str(
            &steps_table(
                &format!("({name}) — coarse critical path {}", sched.critical_path),
                &steps,
            )
            .render(),
        );
        out.push('\n');
    }
    out
}

/// Table 3: tiled (weighted) time-steps of FlatTree, Fibonacci, Greedy,
/// BinaryTree and PlasmaTree(BS=5) with TT kernels.
pub fn table3_report(p: usize, q: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Table 3 — tiled time-steps (TT kernels) for a {p} x {q} tile matrix\n\n"
    ));
    let algos = [
        ("Sameh-Kuck / FlatTree", Algorithm::FlatTree),
        ("Fibonacci", Algorithm::Fibonacci),
        ("Greedy", Algorithm::Greedy),
        ("BinaryTree", Algorithm::BinaryTree),
        ("PlasmaTree (BS=5)", Algorithm::PlasmaTree { bs: 5 }),
    ];
    for (name, algo) in algos {
        let steps = model::tiled_steps(algo, p, q, KernelFamily::TT);
        let cp = model::algorithm_critical_path(algo, p, q, KernelFamily::TT);
        out.push_str(&steps_table(&format!("({name}) — critical path {cp}"), &steps).render());
        out.push('\n');
    }
    out
}

/// Table 4: (a) Greedy vs Asap vs Grasap(1) per-tile times on 15 × 2 and
/// 15 × 3 grids; (b) Greedy vs Asap critical paths on square-ish grids.
pub fn table4_report() -> String {
    let mut out = String::new();
    out.push_str("Table 4(a) — neither Greedy nor Asap is optimal\n\n");
    for (p, q) in [(15usize, 2usize), (15, 3)] {
        out.push_str(&format!("--- {p} x {q} tiles ---\n"));
        let greedy = model::tiled_steps(Algorithm::Greedy, p, q, KernelFamily::TT);
        out.push_str(&steps_table("Greedy", &greedy).render());
        let asap = simulate_asap(p, q);
        out.push_str(&steps_table("Asap", &asap.elim_finish).render());
        let grasap = simulate_grasap(p, q, 1);
        out.push_str(&steps_table("Grasap(1)", &grasap.elim_finish).render());
        out.push('\n');
    }

    out.push_str("Table 4(b) — Greedy generally outperforms Asap (critical paths)\n\n");
    let mut t = Table::new("", &["p", "q", "Greedy", "Asap"]);
    for &p in &[16usize, 32, 64, 128] {
        for &q in &[16usize, 32, 64, 128] {
            if q > p {
                continue;
            }
            let g = critical_path(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT);
            let a = simulate_asap(p, q).critical_path;
            t.push_row(vec![
                p.to_string(),
                q.to_string(),
                g.to_string(),
                a.to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

/// Table 5: theoretical comparison Greedy vs best PlasmaTree(TT) vs
/// Fibonacci for `p` tile rows and every `q = 1..=p`.
pub fn table5_report(p: usize) -> String {
    let mut t = Table::new(
        format!("Table 5 — Greedy vs PlasmaTree(TT) and Fibonacci, theoretical critical paths (p = {p})"),
        &["p", "q", "Greedy", "PlasmaTree(TT)", "BS", "Overhead", "Gain", "Fibonacci", "Overhead", "Gain"],
    );
    for row in model::table5(p) {
        t.push_row(vec![
            p.to_string(),
            row.q.to_string(),
            row.greedy.to_string(),
            row.plasma.to_string(),
            row.best_bs.to_string(),
            ratio_cell(row.plasma_overhead),
            ratio_cell(row.plasma_gain),
            row.fibonacci.to_string(),
            ratio_cell(row.fibonacci_overhead),
            ratio_cell(row.fibonacci_gain),
        ]);
    }
    t.render()
}

/// Tables 6–9: experimental Greedy vs best PlasmaTree(TT) and vs Fibonacci,
/// in double and double-complex precision.
pub fn table6_9_report(scenario: Scenario) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Tables 6-9 — experimental GFLOP/s (p = {}, nb = {}, {} threads)\n\n",
        scenario.p, scenario.nb, scenario.threads
    ));
    for (precision, complex) in [("double", false), ("double complex", true)] {
        let mut vs_plasma = Table::new(
            format!("Greedy vs PlasmaTree(TT) — experimental, {precision} (Tables 6/7)"),
            &[
                "p",
                "q",
                "Greedy",
                "PlasmaTree(TT)",
                "BS",
                "Overhead",
                "Gain",
            ],
        );
        let mut vs_fib = Table::new(
            format!("Greedy vs Fibonacci — experimental, {precision} (Tables 8/9)"),
            &["p", "q", "Greedy", "Fibonacci", "Overhead", "Gain"],
        );
        for q in scenario.q_values() {
            let (bs, _) = best_plasma_tree(scenario.p, q, KernelFamily::TT);
            let run = |algo: Algorithm| -> f64 {
                if complex {
                    timing::measure_factorization::<Complex64>(
                        algo,
                        KernelFamily::TT,
                        scenario.p,
                        q,
                        scenario.nb,
                        scenario.threads,
                    )
                    .gflops
                } else {
                    timing::measure_factorization::<f64>(
                        algo,
                        KernelFamily::TT,
                        scenario.p,
                        q,
                        scenario.nb,
                        scenario.threads,
                    )
                    .gflops
                }
            };
            let greedy = run(Algorithm::Greedy);
            let plasma = run(Algorithm::PlasmaTree { bs });
            let fib = run(Algorithm::Fibonacci);
            vs_plasma.push_row(vec![
                scenario.p.to_string(),
                q.to_string(),
                rate_cell(greedy),
                rate_cell(plasma),
                bs.to_string(),
                ratio_cell(plasma / greedy),
                ratio_cell(1.0 - plasma / greedy),
            ]);
            vs_fib.push_row(vec![
                scenario.p.to_string(),
                q.to_string(),
                rate_cell(greedy),
                rate_cell(fib),
                ratio_cell(fib / greedy),
                ratio_cell(1.0 - fib / greedy),
            ]);
        }
        out.push_str(&vs_plasma.render());
        out.push('\n');
        out.push_str(&vs_fib.render());
        out.push('\n');
    }
    out
}

/// Shared helper for Figures 1 and 6: predicted and experimental GFLOP/s for
/// a set of series.
fn performance_figure(title: &str, series: &[Series], scenario: Scenario, complex: bool) -> String {
    let mut out = String::new();
    let gamma_seq = if complex {
        timing::measure_gamma_seq::<Complex64>(scenario.nb)
    } else {
        timing::measure_gamma_seq::<f64>(scenario.nb)
    };
    out.push_str(&format!(
        "{title} (p = {}, nb = {}, P = {} threads, measured gamma_seq = {:.3} GFLOP/s)\n\n",
        scenario.p, scenario.nb, scenario.threads, gamma_seq
    ));

    let mut header: Vec<String> = vec!["q".to_string()];
    for s in series {
        header.push(format!("{} pred", s.label()));
        header.push(format!("{} exp", s.label()));
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new("", &header_refs);
    for q in scenario.q_values() {
        let mut row = vec![q.to_string()];
        for &s in series {
            let pred = model::predicted_gflops(s, scenario.p, q, scenario.threads, gamma_seq);
            let (algo, family) = s.instantiate(scenario.p, q);
            let exp = if complex {
                timing::measure_factorization::<Complex64>(
                    algo,
                    family,
                    scenario.p,
                    q,
                    scenario.nb,
                    scenario.threads,
                )
                .gflops
            } else {
                timing::measure_factorization::<f64>(
                    algo,
                    family,
                    scenario.p,
                    q,
                    scenario.nb,
                    scenario.threads,
                )
                .gflops
            };
            row.push(rate_cell(pred));
            row.push(rate_cell(exp));
        }
        t.push_row(row);
    }
    out.push_str(&t.render());
    out
}

/// Figure 1: predicted and experimental performance of the TT-kernel
/// algorithms (FlatTree, best PlasmaTree, Fibonacci, Greedy), double and
/// double-complex precision.
pub fn figure1_report(scenario: Scenario) -> String {
    let mut out = String::new();
    out.push_str(&performance_figure(
        "Figure 1(c)/(d) — TT kernels, double precision",
        &Series::TT_ONLY,
        scenario,
        false,
    ));
    out.push('\n');
    out.push_str(&performance_figure(
        "Figure 1(a)/(b) — TT kernels, double complex precision",
        &Series::TT_ONLY,
        scenario,
        true,
    ));
    out
}

/// Figures 2–3: overhead (critical-path length and wall-clock time) of every
/// TT-kernel algorithm with respect to Greedy.
pub fn figure2_3_report(scenario: Scenario) -> String {
    overhead_figure(
        "Figures 2-3 — overhead with respect to Greedy (TT kernels)",
        &Series::TT_ONLY,
        scenario,
    )
}

/// Figures 7–8: same as Figures 2–3 but for all kernel families.
pub fn figure7_8_report(scenario: Scenario) -> String {
    overhead_figure(
        "Figures 7-8 — overhead with respect to Greedy (all kernels)",
        &Series::ALL,
        scenario,
    )
}

fn overhead_figure(title: &str, series: &[Series], scenario: Scenario) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{title} (p = {}, nb = {}, {} threads)\n\n",
        scenario.p, scenario.nb, scenario.threads
    ));

    // (a) theoretical critical-path overhead
    let mut header: Vec<String> = vec!["q".to_string()];
    header.extend(series.iter().map(|s| s.label().to_string()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut theory = Table::new(
        "(a) overhead in critical-path length (Greedy = 1)",
        &header_refs,
    );
    for q in scenario.q_values() {
        let mut row = vec![q.to_string()];
        for (_, overhead) in model::cp_overhead_vs_greedy(series, scenario.p, q) {
            row.push(ratio_cell(overhead));
        }
        theory.push_row(row);
    }
    out.push_str(&theory.render());
    out.push('\n');

    // (b)/(c) experimental time overhead, double precision
    let mut exp = Table::new(
        "(b) overhead in wall-clock time, double precision (Greedy = 1)",
        &header_refs,
    );
    for q in scenario.q_values() {
        let greedy = timing::measure_factorization::<f64>(
            Algorithm::Greedy,
            KernelFamily::TT,
            scenario.p,
            q,
            scenario.nb,
            scenario.threads,
        );
        let mut row = vec![q.to_string()];
        for &s in series {
            if s == Series::Greedy {
                // the reference itself: exactly 1 by construction
                row.push(ratio_cell(1.0));
                continue;
            }
            let (algo, family) = s.instantiate(scenario.p, q);
            let m = timing::measure_factorization::<f64>(
                algo,
                family,
                scenario.p,
                q,
                scenario.nb,
                scenario.threads,
            );
            row.push(ratio_cell(m.seconds / greedy.seconds));
        }
        exp.push_row(row);
    }
    out.push_str(&exp.render());
    out
}

/// Figures 4–5: kernel performance (factorization and update kernels, GEMM
/// reference), in and out of cache, for a sweep of tile sizes, in double and
/// double-complex precision.
pub fn figure4_5_report(tile_sizes: &[usize], reps: usize) -> String {
    let mut out = String::new();
    for (label, complex) in [
        ("double complex precision (Figure 4)", true),
        ("double precision (Figure 5)", false),
    ] {
        out.push_str(&format!("Kernel performance — {label}\n\n"));
        for mode in [CacheMode::InCache, CacheMode::OutOfCache] {
            let mode_name = match mode {
                CacheMode::InCache => "in cache",
                CacheMode::OutOfCache => "out of cache",
            };
            let mut t = Table::new(
                format!("{mode_name} — GFLOP/s"),
                &[
                    "nb",
                    "GEQRT",
                    "TSQRT",
                    "TTQRT",
                    "GEQRT+TTQRT",
                    "UNMQR",
                    "TSMQR",
                    "TTMQR",
                    "UNMQR+TTMQR",
                    "GEMM",
                    "TS/TT factor",
                    "TS/TT update",
                ],
            );
            for &nb in tile_sizes {
                let measure = |k: KernelKind| -> f64 {
                    if complex {
                        timing::measure_kernel::<Complex64>(k, nb, mode, reps).gflops
                    } else {
                        timing::measure_kernel::<f64>(k, nb, mode, reps).gflops
                    }
                };
                let geqrt = measure(KernelKind::Geqrt);
                let tsqrt = measure(KernelKind::Tsqrt);
                let ttqrt = measure(KernelKind::Ttqrt);
                let unmqr = measure(KernelKind::Unmqr);
                let tsmqr = measure(KernelKind::Tsmqr);
                let ttmqr = measure(KernelKind::Ttmqr);
                let gemm = if complex {
                    timing::measure_gemm::<Complex64>(nb, mode, reps)
                } else {
                    timing::measure_gemm::<f64>(nb, mode, reps)
                };
                // GEQRT+TTQRT: the TT pair achieving the same elimination as one TSQRT;
                // the combined rate weights each kernel by its flop count.
                let geqrt_ttqrt = combined_rate(
                    &[(KernelKind::Geqrt, geqrt), (KernelKind::Ttqrt, ttqrt)],
                    nb,
                );
                let unmqr_ttmqr = combined_rate(
                    &[(KernelKind::Unmqr, unmqr), (KernelKind::Ttmqr, ttmqr)],
                    nb,
                );
                // Time ratios TS vs TT (the ~1.3 factor discussed in Section 4):
                let ts_tt_factor = (KernelKind::Tsqrt.flops(nb) / tsqrt)
                    / (KernelKind::Geqrt.flops(nb) / geqrt + KernelKind::Ttqrt.flops(nb) / ttqrt);
                let ts_tt_update = (KernelKind::Tsmqr.flops(nb) / tsmqr)
                    / (KernelKind::Unmqr.flops(nb) / unmqr + KernelKind::Ttmqr.flops(nb) / ttmqr);
                t.push_row(vec![
                    nb.to_string(),
                    rate_cell(geqrt),
                    rate_cell(tsqrt),
                    rate_cell(ttqrt),
                    rate_cell(geqrt_ttqrt),
                    rate_cell(unmqr),
                    rate_cell(tsmqr),
                    rate_cell(ttmqr),
                    rate_cell(unmqr_ttmqr),
                    rate_cell(gemm),
                    ratio_cell(ts_tt_factor),
                    ratio_cell(ts_tt_update),
                ]);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
    }
    out
}

/// Flop-weighted combined rate of a sequence of kernels executed back to
/// back (e.g. GEQRT followed by TTQRT).
fn combined_rate(kernels: &[(KernelKind, f64)], nb: usize) -> f64 {
    let total_flops: f64 = kernels.iter().map(|(k, _)| k.flops(nb)).sum();
    let total_time: f64 = kernels.iter().map(|(k, rate)| k.flops(nb) / rate).sum();
    total_flops / total_time
}

/// Figure 6: predicted and experimental performance of all algorithms (TS and
/// TT kernel families).
pub fn figure6_report(scenario: Scenario) -> String {
    let mut out = String::new();
    out.push_str(&performance_figure(
        "Figure 6(c)/(d) — all kernels, double precision",
        &Series::ALL,
        scenario,
        false,
    ));
    out.push('\n');
    out.push_str(&performance_figure(
        "Figure 6(a)/(b) — all kernels, double complex precision",
        &Series::ALL,
        scenario,
        true,
    ));
    out
}

/// Cross-check of the closed-form results (Theorem 1, Propositions 1 and 2)
/// against the DAG simulator, plus the asymptotic-optimality ratios.
pub fn theory_check_report() -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "Theorem 1 / Propositions 1-2 — closed forms vs simulated critical paths",
        &[
            "p",
            "q",
            "FlatTree(TT)",
            "formula",
            "FlatTree(TS)",
            "formula",
            "Greedy",
            "<= 22q+6log2(p)",
            "lower 22q-30",
        ],
    );
    for (p, q) in [
        (10usize, 1usize),
        (15, 6),
        (20, 20),
        (40, 10),
        (40, 40),
        (64, 16),
    ] {
        let flat_tt = critical_path(
            &Algorithm::FlatTree.elimination_list(p, q),
            KernelFamily::TT,
        );
        let flat_ts = critical_path(
            &Algorithm::FlatTree.elimination_list(p, q),
            KernelFamily::TS,
        );
        let greedy = critical_path(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT);
        t.push_row(vec![
            p.to_string(),
            q.to_string(),
            flat_tt.to_string(),
            formulas::flat_tree_tt_cp(p, q).to_string(),
            flat_ts.to_string(),
            formulas::flat_tree_ts_cp(p, q).to_string(),
            greedy.to_string(),
            formulas::greedy_tt_cp_upper_bound(p, q).to_string(),
            formulas::tt_cp_lower_bound(q).to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');

    let mut bt = Table::new(
        "Proposition 1 — BinaryTree critical path (powers of two)",
        &["p", "q", "simulated", "formula"],
    );
    for (p, q) in [(8usize, 4usize), (16, 8), (32, 16), (64, 32)] {
        let cp = critical_path(
            &Algorithm::BinaryTree.elimination_list(p, q),
            KernelFamily::TT,
        );
        bt.push_row(vec![
            p.to_string(),
            q.to_string(),
            cp.to_string(),
            formulas::binary_tree_tt_cp_power_of_two(p, q).to_string(),
        ]);
    }
    out.push_str(&bt.render());
    out.push('\n');

    let mut opt = Table::new(
        "Theorem 1(4)/(5) — asymptotic optimality: critical path / (22q - 30) for p = 2q",
        &["q", "Greedy ratio", "Fibonacci ratio"],
    );
    for q in [8usize, 16, 32, 64, 128] {
        let p = 2 * q;
        let g = critical_path(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT);
        let f = critical_path(
            &Algorithm::Fibonacci.elimination_list(p, q),
            KernelFamily::TT,
        );
        opt.push_row(vec![
            q.to_string(),
            ratio_cell(formulas::optimality_ratio(g, q)),
            ratio_cell(formulas::optimality_ratio(f, q)),
        ]);
    }
    out.push_str(&opt.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_report_contains_all_three_algorithms() {
        let r = table2_report(15, 6);
        assert!(r.contains("Sameh-Kuck"));
        assert!(r.contains("Fibonacci"));
        assert!(r.contains("Greedy"));
        // coarse critical paths of the 15x6 example
        assert!(r.contains("coarse critical path 19"));
        assert!(r.contains("coarse critical path 15"));
    }

    #[test]
    fn table3_report_contains_critical_paths() {
        let r = table3_report(15, 6);
        assert!(r.contains("critical path 164")); // FlatTree
        assert!(r.contains("PlasmaTree (BS=5)"));
    }

    #[test]
    fn table5_report_matches_published_q3_row() {
        let r = table5_report(40);
        // the q = 3 row of the published table: 74  98  5  1.3243  0.2449  94
        assert!(r.contains("74"));
        assert!(r.contains("1.3243"));
        assert!(r.contains("0.2449"));
    }

    #[test]
    fn theory_check_report_is_consistent() {
        let r = theory_check_report();
        assert!(r.contains("Theorem 1"));
        assert!(r.contains("Proposition 1"));
    }

    #[test]
    fn table4_report_mentions_grasap() {
        let r = table4_report();
        assert!(r.contains("Grasap(1)"));
        assert!(r.contains("128"));
    }

    #[test]
    fn combined_rate_is_between_components() {
        let combined = combined_rate(&[(KernelKind::Geqrt, 2.0), (KernelKind::Ttqrt, 4.0)], 32);
        assert!(combined > 2.0 && combined < 4.0);
    }
}
