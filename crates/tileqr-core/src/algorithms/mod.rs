//! The reduction-tree algorithms studied in the paper.
//!
//! Each static algorithm is a function from the tile-grid shape `(p, q)` to
//! an [`EliminationList`]:
//!
//! * [`mod@flat_tree`] — Sameh-Kuck: the panel row eliminates every tile below
//!   it (called `FlatTree` in PLASMA).
//! * [`mod@fibonacci`] — the Fibonacci scheme of order 1 (Modi & Clarke).
//! * [`mod@greedy`] — the Greedy algorithm (Cosnard, Muller & Robert): at every
//!   step eliminate as many tiles as possible in every column.
//! * [`mod@binary_tree`] — binary-tree reduction in every column.
//! * [`mod@plasma_tree`] — the PLASMA trade-off between FlatTree and BinaryTree
//!   controlled by the domain size `BS`.
//!
//! The *dynamic* algorithms Asap and Grasap(k) depend on the weighted task
//! timing and are therefore generated by the co-simulator
//! ([`crate::sim::simulate_grasap`]); [`Algorithm::elimination_list`] runs it
//! for them, so every algorithm has one list builder.

pub mod binary_tree;
pub mod fibonacci;
pub mod flat_tree;
pub mod greedy;
pub mod hadri_tree;
pub mod plasma_tree;

pub use binary_tree::binary_tree;
pub use fibonacci::fibonacci;
pub use flat_tree::flat_tree;
pub use greedy::greedy;
pub use hadri_tree::hadri_tree;
pub use plasma_tree::plasma_tree;

use crate::elim::EliminationList;
use crate::sim::simulate_grasap;

/// Identifier for the algorithms exposed by the crate (static reduction trees
/// plus the dynamic Asap family), used by the drivers, the benchmark harness
/// and the examples.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Sameh-Kuck / PLASMA FlatTree.
    FlatTree,
    /// Fibonacci scheme of order 1.
    Fibonacci,
    /// Greedy: eliminate as many tiles as possible at every step.
    Greedy,
    /// Binary-tree reduction in every column.
    BinaryTree,
    /// PLASMA's tree with domain size `BS` (flat trees inside domains of
    /// `BS` rows, binary tree across domains).
    PlasmaTree {
        /// Domain size, `1 ≤ BS ≤ p`. `BS = 1` behaves like
        /// [`Algorithm::BinaryTree`], `BS ≥ p` like [`Algorithm::FlatTree`].
        bs: usize,
    },
    /// Hadri et al.'s fixed-domain tree (Semi-Parallel Tile CAQR): like
    /// PlasmaTree but with domain boundaries anchored at row 0, so the *top*
    /// domain shrinks as the factorization proceeds.
    HadriTree {
        /// Domain size, `1 ≤ BS ≤ p`.
        bs: usize,
    },
    /// Asap: dynamically eliminate as soon as two rows are ready
    /// (weighted-kernel-aware, Section 3.2).
    Asap,
    /// Grasap(k): Greedy on the first `q − k` columns, Asap on the last `k`.
    Grasap {
        /// Number of trailing columns processed in Asap mode.
        asap_cols: usize,
    },
}

impl Algorithm {
    /// Short human-readable name matching the paper's typography.
    pub fn name(&self) -> String {
        match self {
            Algorithm::FlatTree => "FlatTree".to_string(),
            Algorithm::Fibonacci => "Fibonacci".to_string(),
            Algorithm::Greedy => "Greedy".to_string(),
            Algorithm::BinaryTree => "BinaryTree".to_string(),
            Algorithm::PlasmaTree { bs } => format!("PlasmaTree(BS={bs})"),
            Algorithm::HadriTree { bs } => format!("HadriTree(BS={bs})"),
            Algorithm::Asap => "Asap".to_string(),
            Algorithm::Grasap { asap_cols } => format!("Grasap({asap_cols})"),
        }
    }

    /// True for the algorithms whose elimination list only depends on the
    /// grid shape (not on kernel weights).
    pub fn is_static(&self) -> bool {
        !matches!(self, Algorithm::Asap | Algorithm::Grasap { .. })
    }

    /// Builds the elimination list of the algorithm on a `p × q` tile grid:
    /// the static generators for the reduction trees, and for the dynamic
    /// algorithms the list the weighted co-simulator produces —
    /// [`Algorithm::Asap`] is Grasap with every column in Asap mode
    /// ([`crate::sim::simulate_grasap`]`(p, q, q)`).
    pub fn elimination_list(&self, p: usize, q: usize) -> EliminationList {
        match *self {
            Algorithm::FlatTree => flat_tree(p, q),
            Algorithm::Fibonacci => fibonacci(p, q),
            Algorithm::Greedy => greedy(p, q),
            Algorithm::BinaryTree => binary_tree(p, q),
            Algorithm::PlasmaTree { bs } => plasma_tree(p, q, bs),
            Algorithm::HadriTree { bs } => hadri_tree(p, q, bs),
            Algorithm::Asap => simulate_grasap(p, q, q).list,
            Algorithm::Grasap { asap_cols } => simulate_grasap(p, q, asap_cols).list,
        }
    }

    /// The static algorithms compared throughout the paper's experiments
    /// (PlasmaTree is parameterized separately by its domain size).
    pub const STATIC_BASELINE: [Algorithm; 4] = [
        Algorithm::FlatTree,
        Algorithm::Fibonacci,
        Algorithm::Greedy,
        Algorithm::BinaryTree,
    ];
}

/// Helper shared by the Fibonacci and Greedy generators (and the Asap
/// simulator): given the sorted row indices of the tiles annihilated at one
/// time step of a column, pair each of the `z` bottom rows with the row `z`
/// positions above it inside `pool`, exactly as described in Section 3.1
/// ("to eliminate a bunch of z consecutive tiles at the same time-step, the
/// algorithm uses the z rows above them, pairing them in the natural order").
///
/// `pool` is the full sorted set of candidate rows (pivots and targets);
/// `z` is the number of eliminations to perform. Returns `(target, pivot)`
/// pairs ordered from the closest-to-diagonal target downwards.
pub(crate) fn pair_bottom_rows(pool: &[usize], z: usize) -> Vec<(usize, usize)> {
    let n = pool.len();
    assert!(2 * z <= n, "cannot eliminate {z} rows out of a pool of {n}");
    (0..z)
        .map(|j| (pool[n - z + j], pool[n - 2 * z + j]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Algorithm::FlatTree.name(), "FlatTree");
        assert_eq!(Algorithm::PlasmaTree { bs: 5 }.name(), "PlasmaTree(BS=5)");
        assert_eq!(Algorithm::Grasap { asap_cols: 1 }.name(), "Grasap(1)");
    }

    #[test]
    fn static_flag() {
        assert!(Algorithm::Greedy.is_static());
        assert!(Algorithm::PlasmaTree { bs: 3 }.is_static());
        assert!(!Algorithm::Asap.is_static());
        assert!(!Algorithm::Grasap { asap_cols: 2 }.is_static());
    }

    #[test]
    fn dynamic_elimination_lists_are_the_co_simulated_ones() {
        for (p, q) in [(4usize, 2usize), (7, 3), (10, 5)] {
            assert_eq!(
                Algorithm::Asap.elimination_list(p, q),
                simulate_grasap(p, q, q).list
            );
            for k in 0..=q {
                assert_eq!(
                    Algorithm::Grasap { asap_cols: k }.elimination_list(p, q),
                    simulate_grasap(p, q, k).list
                );
            }
        }
    }

    #[test]
    fn all_static_algorithms_produce_valid_lists() {
        for p in [1usize, 2, 3, 5, 8, 13] {
            for q in [1usize, 2, 3, 5, 8] {
                if q > p {
                    continue;
                }
                for algo in [
                    Algorithm::FlatTree,
                    Algorithm::Fibonacci,
                    Algorithm::Greedy,
                    Algorithm::BinaryTree,
                    Algorithm::PlasmaTree { bs: 1 },
                    Algorithm::PlasmaTree { bs: 3 },
                    Algorithm::PlasmaTree { bs: p },
                    Algorithm::HadriTree { bs: 3 },
                ] {
                    let list = algo.elimination_list(p, q);
                    assert_eq!(
                        list.len(),
                        EliminationList::expected_len(p, q),
                        "{} on {p}x{q} has the wrong number of eliminations",
                        algo.name()
                    );
                    if let Err(errs) = list.validate() {
                        panic!("{} on {p}x{q} invalid: {}", algo.name(), errs[0]);
                    }
                    assert!(
                        list.satisfies_lemma_1(),
                        "{} on {p}x{q} violates Lemma 1",
                        algo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn pair_bottom_rows_matches_paper_description() {
        // pool of 6 rows, eliminate 2: targets are the bottom two rows,
        // pivots the two rows directly above them.
        let pool = vec![1, 2, 5, 7, 8, 9];
        let pairs = pair_bottom_rows(&pool, 2);
        assert_eq!(pairs, vec![(8, 5), (9, 7)]);
        // eliminating half of the pool pairs top half with bottom half
        let pairs = pair_bottom_rows(&pool, 3);
        assert_eq!(pairs, vec![(7, 1), (8, 2), (9, 5)]);
    }

    #[test]
    #[should_panic(expected = "cannot eliminate")]
    fn pair_bottom_rows_rejects_oversized_requests() {
        let _ = pair_bottom_rows(&[1, 2, 3], 2);
    }
}
