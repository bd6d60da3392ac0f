//! Property tests on the algorithm layer: every generated elimination list
//! is valid, respects Lemma 1, has the tree-independent total weight, and
//! the critical-path orderings claimed by the paper hold across grid shapes.
//!
//! The properties are exercised over a deterministic sweep of grid shapes
//! and domain sizes (the offline replacement for the original proptest
//! strategies — same coverage, reproducible by construction).

use tiled_qr::core::algorithms::{
    binary_tree, fibonacci, flat_tree, greedy, plasma_tree, Algorithm,
};
use tiled_qr::core::coarse::{coarse_schedule, prescribed_steps};
use tiled_qr::core::dag::{TaskDag, TaskKind};
use tiled_qr::core::elim::EliminationList;
use tiled_qr::core::formulas;
use tiled_qr::core::sim::{critical_path, simulate_bounded, simulate_grasap, simulate_unbounded};
use tiled_qr::core::KernelFamily;

/// Deterministic sweep of tile grids with 1 ≤ q ≤ p ≤ 24, biased toward the
/// shapes the paper reasons about (tall, square, small, prime-sized).
fn grids() -> Vec<(usize, usize)> {
    vec![
        (1, 1),
        (2, 1),
        (2, 2),
        (3, 2),
        (4, 1),
        (5, 3),
        (5, 5),
        (7, 2),
        (8, 4),
        (9, 7),
        (11, 3),
        (12, 6),
        (13, 13),
        (16, 4),
        (17, 5),
        (20, 10),
        (24, 1),
        (24, 12),
        (24, 24),
    ]
}

fn bs_values(p: usize) -> Vec<usize> {
    [1usize, 2, 3, 5, 8, 13, 24]
        .iter()
        .copied()
        .filter(|&bs| bs <= p.max(1))
        .collect()
}

#[test]
fn static_algorithms_produce_valid_lists() {
    for (p, q) in grids() {
        for bs in bs_values(p) {
            for list in [
                flat_tree(p, q),
                fibonacci(p, q),
                greedy(p, q),
                binary_tree(p, q),
                plasma_tree(p, q, bs),
            ] {
                assert_eq!(
                    list.len(),
                    EliminationList::expected_len(p, q),
                    "{p}x{q} bs={bs}"
                );
                assert!(list.validate().is_ok(), "{p}x{q} bs={bs}");
                assert!(list.satisfies_lemma_1(), "{p}x{q} bs={bs}");
            }
        }
    }
}

#[test]
fn dynamic_algorithms_produce_valid_lists() {
    for (p, q) in grids() {
        for k in [0usize, 1, 2, 5, 24] {
            let d = simulate_grasap(p, q, k.min(q));
            assert_eq!(
                d.list.len(),
                EliminationList::expected_len(p, q),
                "{p}x{q} k={k}"
            );
            assert!(d.list.validate().is_ok(), "{p}x{q} k={k}");
            assert!(d.list.satisfies_lemma_1(), "{p}x{q} k={k}");
        }
    }
}

#[test]
fn total_task_weight_is_tree_and_family_independent() {
    for (p, q) in grids() {
        for bs in bs_values(p) {
            let expected = 6 * (p as u64) * (q as u64) * (q as u64) - 2 * (q as u64).pow(3);
            for list in [flat_tree(p, q), greedy(p, q), plasma_tree(p, q, bs)] {
                for family in [KernelFamily::TT, KernelFamily::TS] {
                    assert_eq!(
                        TaskDag::build(&list, family).total_weight(),
                        expected,
                        "{p}x{q} bs={bs}"
                    );
                }
            }
        }
    }
}

#[test]
fn greedy_critical_path_is_best_among_static_trees() {
    for (p, q) in grids() {
        let g = critical_path(&greedy(p, q), KernelFamily::TT);
        for bs in bs_values(p) {
            for other in [
                flat_tree(p, q),
                fibonacci(p, q),
                binary_tree(p, q),
                plasma_tree(p, q, bs),
            ] {
                assert!(
                    g <= critical_path(&other, KernelFamily::TT),
                    "{p}x{q} bs={bs}"
                );
            }
        }
    }
}

#[test]
fn greedy_respects_theorem_1_bounds() {
    for (p, q) in grids() {
        let g = critical_path(&greedy(p, q), KernelFamily::TT);
        assert!(g <= formulas::greedy_tt_cp_upper_bound(p, q), "{p}x{q}");
        let f = critical_path(&fibonacci(p, q), KernelFamily::TT);
        assert!(f <= formulas::fibonacci_tt_cp_upper_bound(p, q), "{p}x{q}");
        if p >= q + 3 && q >= 2 {
            assert!(g >= formulas::tt_cp_lower_bound(q), "{p}x{q}");
        }
    }
}

#[test]
fn flat_tree_critical_paths_match_the_closed_forms() {
    for (p, q) in grids() {
        assert_eq!(
            critical_path(&flat_tree(p, q), KernelFamily::TT),
            formulas::flat_tree_tt_cp(p, q),
            "{p}x{q}"
        );
        assert_eq!(
            critical_path(&flat_tree(p, q), KernelFamily::TS),
            formulas::flat_tree_ts_cp(p, q),
            "{p}x{q}"
        );
    }
}

#[test]
fn ts_is_never_faster_than_tt_in_critical_path() {
    for (p, q) in grids() {
        for bs in bs_values(p) {
            for list in [flat_tree(p, q), greedy(p, q), plasma_tree(p, q, bs)] {
                assert!(
                    critical_path(&list, KernelFamily::TS)
                        >= critical_path(&list, KernelFamily::TT),
                    "{p}x{q} bs={bs}"
                );
            }
        }
    }
}

#[test]
fn bounded_schedules_are_sandwiched() {
    for (p, q) in grids() {
        for procs in [1usize, 2, 3, 7, 16] {
            let dag = TaskDag::build(&greedy(p, q), KernelFamily::TT);
            let cp = simulate_unbounded(&dag).critical_path;
            let serial = dag.total_weight();
            let bounded = simulate_bounded(&dag, procs, TaskKind::weight);
            assert!(bounded >= cp, "{p}x{q} procs={procs}");
            assert!(bounded <= serial, "{p}x{q} procs={procs}");
            // list scheduling is never worse than fully serial and never
            // better than the work bound
            assert!(bounded >= serial / procs as u64, "{p}x{q} procs={procs}");
        }
    }
}

#[test]
fn coarse_replay_never_exceeds_prescribed_steps() {
    for (p, q) in grids() {
        for (algo, list) in [
            (Algorithm::FlatTree, flat_tree(p, q)),
            (Algorithm::Fibonacci, fibonacci(p, q)),
            (Algorithm::Greedy, greedy(p, q)),
        ] {
            let replay = coarse_schedule(&list);
            let prescribed = prescribed_steps(algo, p, q);
            assert!(
                replay.critical_path <= prescribed.critical_path,
                "{p}x{q} {}",
                algo.name()
            );
        }
    }
}

#[test]
fn plasma_tree_extremes_reduce_to_binary_and_flat() {
    for (p, q) in grids() {
        let flat = critical_path(&flat_tree(p, q), KernelFamily::TT);
        let bin = critical_path(&binary_tree(p, q), KernelFamily::TT);
        assert_eq!(
            critical_path(&plasma_tree(p, q, 1), KernelFamily::TT),
            bin,
            "{p}x{q}"
        );
        assert_eq!(
            critical_path(&plasma_tree(p, q, p), KernelFamily::TT),
            flat,
            "{p}x{q}"
        );
        // the best domain size is at least as good as both extremes
        let best = (1..=p)
            .map(|bs| critical_path(&plasma_tree(p, q, bs), KernelFamily::TT))
            .min()
            .unwrap();
        assert!(best <= bin && best <= flat, "{p}x{q}");
    }
}
