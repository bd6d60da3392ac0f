//! `tileqr-analyze`: static race-freedom analyzer for tiled-QR plans.
//!
//! Sweeps elimination algorithms × kernel families × grid shapes, proving
//! for each plan — the plain factorization and the fused least-squares plan
//! with its trailing right-hand-side column — that every pair of conflicting
//! tile-region accesses is ordered by the task DAG, and that the first-touch
//! rule the runtime fills a dense input by holds (see
//! `tileqr_core::footprint`). Prints a hazard
//! report and exits non-zero if any plan has a race or structural defect —
//! suitable as a CI gate.
//!
//! Usage:
//!
//! ```text
//! tileqr-analyze                  # default sweep (generated shapes + paper tables)
//! tileqr-analyze --paper-tables   # only the shapes of the paper's tables
//! tileqr-analyze --shape 40x13    # one shape
//! tileqr-analyze --verbose        # per-plan lines instead of per-shape summaries
//! ```

use std::process::ExitCode;

use tileqr_core::dag::KernelFamily;
use tileqr_core::footprint::{algorithm_roster, analyze, plan_dag, PAPER_TABLE_SHAPES};

struct Totals {
    plans: usize,
    /// How many of `plans` carry the trailing right-hand-side column.
    solve_plans: usize,
    tasks: u64,
    ordered: u64,
    transitive: u64,
    hazards: usize,
    structure: usize,
    first_touch: usize,
}

fn usage() -> ! {
    eprintln!("usage: tileqr-analyze [--paper-tables] [--shape PxQ] [--max-dim N] [--verbose]");
    std::process::exit(2);
}

fn parse_shape(s: &str) -> (usize, usize) {
    let parse = |t: &str| t.trim().parse::<usize>().ok();
    if let Some((a, b)) = s.split_once(['x', 'X']) {
        if let (Some(p), Some(q)) = (parse(a), parse(b)) {
            if p >= 1 && q >= 1 && q <= p {
                return (p, q);
            }
        }
    }
    eprintln!("invalid shape {s:?}: expected PxQ with 1 <= Q <= P");
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut paper_only = false;
    let mut verbose = false;
    let mut single: Option<(usize, usize)> = None;
    let mut max_dim: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--paper-tables" => paper_only = true,
            "--verbose" | "-v" => verbose = true,
            "--shape" => single = Some(parse_shape(&args.next().unwrap_or_else(|| usage()))),
            "--max-dim" => {
                max_dim = args.next().and_then(|s| s.parse().ok());
                if max_dim.is_none() {
                    usage();
                }
            }
            "--help" | "-h" => {
                println!(
                    "tileqr-analyze: prove tiled-QR plans race-free at tile-region \
                     granularity, with the first-touch fill of a dense input.\n\nOptions:\n  --paper-tables  only the paper's table \
                     shapes\n  --shape PxQ     analyze a single grid shape\n  --max-dim N \
                     skip shapes with p > N\n  --verbose       one line per plan\n\nExits 1 \
                     if any plan has a hazard, a structural defect or a first-touch violation."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }

    let mut shapes: Vec<(usize, usize)> = if let Some(s) = single {
        vec![s]
    } else {
        let mut v: Vec<(usize, usize)> = Vec::new();
        if !paper_only {
            // A dense grid of small shapes (every 1 <= q <= p <= 8) catches
            // boundary behavior — single columns, squares, degenerate 1x1.
            for p in 1..=8 {
                for q in 1..=p {
                    v.push((p, q));
                }
            }
        }
        v.extend_from_slice(PAPER_TABLE_SHAPES);
        v.sort_unstable();
        v.dedup();
        v
    };
    if let Some(m) = max_dim {
        shapes.retain(|&(p, _)| p <= m);
    }

    let mut totals = Totals {
        plans: 0,
        solve_plans: 0,
        tasks: 0,
        ordered: 0,
        transitive: 0,
        hazards: 0,
        structure: 0,
        first_touch: 0,
    };

    for &(p, q) in &shapes {
        let mut shape_plans = 0usize;
        let mut shape_bad = 0usize;
        for family in [KernelFamily::TT, KernelFamily::TS] {
            for algo in algorithm_roster(p, q) {
                for trailing in [0, 1] {
                    let dag = plan_dag(algo, p, q, family, trailing);
                    let report = analyze(&dag);
                    totals.plans += 1;
                    totals.solve_plans += trailing;
                    totals.tasks += report.tasks as u64;
                    totals.ordered += report.ordered_pairs;
                    totals.transitive += report.transitive_pairs;
                    shape_plans += 1;
                    if !report.is_race_free() {
                        shape_bad += 1;
                        totals.hazards += report.hazards.len();
                        totals.structure += report.structure_errors.len();
                        totals.first_touch += report.first_touch_errors.len();
                        println!(
                            "FAIL {p}x{q}+{trailing} {} {family:?}: {} hazard(s), {} structural \
                             error(s), {} first-touch violation(s)",
                            algo.name(),
                            report.hazards.len(),
                            report.structure_errors.len(),
                            report.first_touch_errors.len()
                        );
                        for h in report.hazards.iter().take(5) {
                            println!("     {h}");
                        }
                        for e in report.structure_errors.iter().take(5) {
                            println!("     structure: {e}");
                        }
                        for e in report.first_touch_errors.iter().take(5) {
                            println!("     first touch: {e}");
                        }
                    } else if verbose {
                        println!(
                            "ok   {p}x{q}+{trailing} {} {family:?}: {} tasks, {} edges, {} \
                             ordered pairs ({} transitive)",
                            algo.name(),
                            report.tasks,
                            report.edges,
                            report.ordered_pairs,
                            report.transitive_pairs
                        );
                    }
                }
            }
        }
        if !verbose {
            if shape_bad == 0 {
                println!("ok   {p}x{q}: {shape_plans} plans race-free");
            } else {
                println!("FAIL {p}x{q}: {shape_bad}/{shape_plans} plans with hazards");
            }
        }
    }

    println!(
        "\n{} shapes, {} plans ({} factorization + {} with a trailing rhs column), {} tasks \
         analyzed; {} conflicting pairs proven ordered ({} transitively); {} hazards, {} \
         structural errors, {} first-touch violations",
        shapes.len(),
        totals.plans,
        totals.plans - totals.solve_plans,
        totals.solve_plans,
        totals.tasks,
        totals.ordered,
        totals.transitive,
        totals.hazards,
        totals.structure,
        totals.first_touch
    );
    if totals.hazards == 0 && totals.structure == 0 && totals.first_touch == 0 {
        println!(
            "RACE-FREE: every plan proven, the first-touch fill of its dense input included \
             ({} plans)",
            totals.plans
        );
        ExitCode::SUCCESS
    } else {
        println!("RACES FOUND: the plans above are not safe to execute concurrently");
        ExitCode::FAILURE
    }
}
