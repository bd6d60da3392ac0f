//! The fixed-domain trees of Hadri, Ltaief, Agullo & Dongarra (IPDPS'10),
//! which the paper compares against ("Semi-Parallel Tile" / "Fully-Parallel
//! Tile" CAQR, Section 4): flat trees inside domains of `BS` rows anchored at
//! the *top of the matrix* (row 0), merged by a binary tree.
//!
//! The difference with [`mod@crate::algorithms::plasma_tree`] is the anchoring:
//! PLASMA's domains start at the panel row `k` (the bottom domain shrinks as
//! `k` grows), whereas Hadri et al. keep the domain boundaries fixed at rows
//! `0, BS, 2BS, …` so it is the *top* domain that loses rows as the
//! factorization proceeds. The paper found the PLASMA variant to perform at
//! least as well; this implementation lets that comparison be reproduced.

use crate::elim::{Elimination, EliminationList};

/// Hadri et al. fixed-domain reduction tree with domain size `bs`.
///
/// For panel column `k`, domain `d` covers rows
/// `max(k, d·bs) .. min((d+1)·bs, p) − 1` (domains whose range is empty are
/// skipped). Inside a domain the first (topmost) active row is the local
/// panel and eliminates the other rows with a flat tree; the domain heads are
/// then merged by a binary tree rooted at the diagonal row `k`.
pub fn hadri_tree(p: usize, q: usize, bs: usize) -> EliminationList {
    assert!(bs >= 1, "domain size BS must be at least 1");
    let kmax = p.min(q);
    let mut elims = Vec::with_capacity(EliminationList::expected_len(p, q));
    for k in 0..kmax {
        // Fixed domain boundaries at multiples of bs; the first active domain
        // is the one containing the panel row k and is truncated at k.
        let mut heads = Vec::new();
        let mut d = k / bs;
        loop {
            let lo = (d * bs).max(k);
            let hi = ((d + 1) * bs).min(p);
            if lo >= p {
                break;
            }
            if lo < hi {
                heads.push(lo);
                for i in (lo + 1)..hi {
                    elims.push(Elimination::new(i, lo, k));
                }
            }
            d += 1;
        }
        // Binary-tree merge of the domain heads; heads[0] is the diagonal row.
        let mut stride = 1usize;
        while stride < heads.len() {
            let mut idx = 0;
            while idx + stride < heads.len() {
                elims.push(Elimination::new(heads[idx + stride], heads[idx], k));
                idx += 2 * stride;
            }
            stride *= 2;
        }
    }
    EliminationList::new(p, q, elims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{binary_tree, flat_tree, plasma_tree};
    use crate::sim::critical_path;
    use crate::KernelFamily;

    #[test]
    fn valid_and_complete_for_many_shapes() {
        for (p, q) in [(6usize, 3usize), (15, 6), (16, 16), (23, 5)] {
            for bs in [1usize, 2, 5, 7, p] {
                let list = hadri_tree(p, q, bs);
                assert_eq!(
                    list.len(),
                    EliminationList::expected_len(p, q),
                    "{p}x{q} bs={bs}"
                );
                assert!(
                    list.validate().is_ok(),
                    "hadri_tree {p}x{q} bs={bs} invalid"
                );
                assert!(list.satisfies_lemma_1());
            }
        }
    }

    #[test]
    fn extremes_match_binary_and_flat_trees() {
        for (p, q) in [(9usize, 4usize), (15, 6)] {
            assert_eq!(hadri_tree(p, q, 1), binary_tree(p, q));
            assert_eq!(hadri_tree(p, q, p), flat_tree(p, q));
        }
    }

    #[test]
    fn first_column_agrees_with_plasma_tree() {
        // In column 0 both anchorings coincide (domains start at row 0).
        let h = hadri_tree(15, 6, 5);
        let p = plasma_tree(15, 6, 5);
        for i in 1..15 {
            assert_eq!(h.pivot_of(i, 0), p.pivot_of(i, 0), "row {}", i + 1);
        }
    }

    #[test]
    fn later_columns_differ_from_plasma_tree_by_anchoring() {
        // Column 1, BS = 5: Hadri domains are {1..4}, {5..9}, {10..14}
        // (anchored at 0/5/10), PLASMA's are {1..5}, {6..10}, {11..14}.
        let h = hadri_tree(15, 6, 5);
        assert_eq!(h.pivot_of(4, 1), Some(1)); // row 4 in the truncated top domain
        assert_eq!(h.pivot_of(9, 1), Some(5));
        assert_eq!(h.pivot_of(14, 1), Some(10));
        assert_eq!(h.pivot_of(5, 1), Some(1)); // merge of head 5 with the root
        let p = plasma_tree(15, 6, 5);
        assert_ne!(h.pivot_of(5, 1), p.pivot_of(10, 1));
        assert_ne!(h.eliminations(), p.eliminations());
    }

    #[test]
    fn greedy_dominates_both_domain_tree_families() {
        // Neither anchoring (PLASMA's panel-anchored domains nor Hadri's
        // fixed domains) beats Greedy, whatever the domain size — the
        // parameter-free superiority the paper argues for. The two anchorings
        // themselves trade places depending on (q, BS), which is why the
        // paper needs an exhaustive BS sweep for its baselines.
        use crate::algorithms::greedy;
        for q in [1usize, 2, 4, 5, 10] {
            let g = critical_path(&greedy(40, q), KernelFamily::TT);
            for bs in [2usize, 5, 10] {
                let h = critical_path(&hadri_tree(40, q, bs), KernelFamily::TT);
                let p = critical_path(&plasma_tree(40, q, bs), KernelFamily::TT);
                assert!(g <= h, "Greedy worse than HadriTree for q={q}, bs={bs}");
                assert!(g <= p, "Greedy worse than PlasmaTree for q={q}, bs={bs}");
            }
        }
    }
}
