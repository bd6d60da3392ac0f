//! Factorization kernels: [`geqrt_ws`], [`tsqrt_ws`] and [`ttqrt_ws`].
//!
//! These are the three ways the paper introduces zeros (Section 2.1):
//!
//! * [`geqrt_ws`] — *"factor square into triangle"*: ordinary QR of one
//!   tile.
//! * [`tsqrt_ws`] — *"zero square with triangle on top"*: QR of the
//!   2·nb × nb matrix formed by an upper-triangular tile stacked on a full
//!   tile (the TS kernel family).
//! * [`ttqrt_ws`] — *"zero triangle with triangle on top"*: QR of two
//!   stacked upper-triangular tiles (the TT kernel family), which costs a
//!   third of TSQRT and is the building block of the new algorithms.
//!
//! All three are one routine over the crate's reflector description (a
//! GEQRT tile, or a TS/TT pair whose `V2` columns end at row `nb` or at
//! their diagonal). Each overwrites its inputs with the `R` factor and the
//! Householder vectors, in place, and produces the upper triangular `T`
//! factors of the compact WY representation that the companion update
//! kernel of [`crate::apply`] consumes. Only the storage the description
//! names is read or written: the strictly lower half of a pivot tile (and
//! of a TT pair's second tile), which holds the vectors of an earlier GEQRT
//! in a real factorization, is left as it was.
//!
//! # Inner blocking and the recursive panel
//!
//! The tile is factored in panels of `ib` columns (`ib` comes from the
//! [`Workspace`]); once a panel is factored, its reflectors are applied to
//! the tile's later columns at once with the block-reflector primitive the
//! update kernels use — three products on the register-tiled
//! [`crate::microblas`] backend, the panel's own columns as `V` (a
//! `split_at_mut` of the tile keeps them readable while the later columns
//! are written).
//!
//! A panel is factored recursively (Elmroth & Gustavson): its columns are
//! split in two, the left half is factored and applied to the right half
//! through the same primitive, the right half is factored, and the halves'
//! `T` factors are merged as `T₁₂ = −T₁₁·(V₁ᴴ·V₂)·T₂₂` — three more
//! products. Only a leaf of at most 16 columns runs the column sweep (on
//! [`crate::blas::dot_conj`]) and builds its `T` from the reflectors' inner
//! products; on the SIMD levels a TS leaf runs both through the Level-2
//! operations of [`crate::simd`]. Most of a panel's flops are block
//! products, and its `T` comes out whole.
//!
//! The `T_s` are stored `ib`-blocked: panel `s` (columns `j0 .. j0+w`)
//! occupies rows `0..w` of columns `j0 .. j0+w` of `t`, so `t` needs only
//! `ib` rows; every node of a panel's recursion keeps its `T` in its
//! diagonal block there. So `ib` sets the `T` layout, the width of the
//! panels the recursion runs in, and the depth of the update kernels'
//! products. With `ib = nb` (the default workspace) there is a single
//! panel and no trailing update.

use tileqr_matrix::{Matrix, Scalar};

use crate::blas::{dot_conj, reflect, trmv_upper};
use crate::householder::larfg;
use crate::microblas::{gemm_into, AForm, AMode};
use crate::reflector::{Block, PanelScratch};
use crate::simd::{with_level2, Level2, WithLevel2, DOT_PAIRS};
use crate::workspace::Workspace;

/// GEQRT: in-place QR factorization of a square `nb × nb` tile, with
/// caller-provided scratch (zero heap allocations).
///
/// On exit `a` holds `R` in its upper triangle and the Householder vectors
/// `V` (unit diagonal implicit) in its strictly lower part; `t` receives the
/// `ib`-blocked block-reflector factors (one `w × w` upper triangle per
/// panel of `w ≤ ib` columns, at rows `0..w` of the panel's columns), so it
/// must have at least `min(ib, nb)` rows and `nb` columns.
///
/// Paper cost: `4` units of `nb³/3` flops.
pub fn geqrt_ws<T: Scalar<Real = f64>>(
    a: &mut Matrix<T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    factor(a, Block::Tile, t, ws);
}

/// TSQRT: QR factorization of `[R1; A2]`, where `R1` is the upper
/// triangular tile produced by an earlier GEQRT/TSQRT on the pivot row and
/// `A2` is a full square tile to be annihilated.
///
/// On exit `r1` holds the updated `R` factor in its upper triangle, `a2`
/// holds the (dense) bottom parts `V2` of the Householder vectors (the top
/// parts form an identity and are implicit), and `t` receives the
/// `ib`-blocked block-reflector factors. Zero heap allocations.
///
/// Paper cost: `6` units of `nb³/3` flops.
pub fn tsqrt_ws<T: Scalar<Real = f64>>(
    r1: &mut Matrix<T>,
    a2: &mut Matrix<T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    let pair = Block::Pair {
        pivot: r1,
        triangular: false,
    };
    factor(a2, pair, t, ws);
}

/// TTQRT: QR factorization of `[R1; R2]` where **both** tiles are upper
/// triangular. This is the cheap kernel that makes the TT algorithm family
/// attractive: only the leading `j+1` rows of column `j` of `R2` are
/// nonzero, so the reflectors and the updates stay within the upper
/// triangle.
///
/// On exit `r1` holds the updated `R` factor, the upper triangle of `r2`
/// holds the (upper triangular) bottom parts `V2` of the Householder
/// vectors, and `t` receives the `ib`-blocked block-reflector factors. Only
/// the two upper triangles are read or written, in place. Zero heap
/// allocations.
///
/// Paper cost: `2` units of `nb³/3` flops.
pub fn ttqrt_ws<T: Scalar<Real = f64>>(
    r1: &mut Matrix<T>,
    r2: &mut Matrix<T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    let pair = Block::Pair {
        pivot: r1,
        triangular: true,
    };
    factor(r2, pair, t, ws);
}

/// Widest column block the recursion leaves to the column sweep. Narrower
/// leaves hand the products blocks too small to pay for their packing: in
/// a one-process A/B on a 2-vCPU AVX-512 Xeon, 16 beat 8 by up to 12% at
/// `(nb, ib) = (64, 16)` and `(128, 32)`, and beat no recursion (32) by
/// 12–24% at `(128, 32)`.
const LEAF: usize = 16;

/// The one factorization routine: QR of the reflector block `block` whose
/// vectors are generated into `v`, one `ib` panel at a time — each
/// factored by the recursive [`Panel`], then applied to the columns after
/// it.
fn factor<T: Scalar<Real = f64>>(
    v: &mut Matrix<T>,
    block: Block<'_, T>,
    t: &mut Matrix<T>,
    ws: &mut Workspace<T>,
) {
    let nb = v.rows();
    assert_eq!(v.cols(), nb, "the factored tile must be square");
    if let Block::Pair { pivot, .. } = &block {
        assert_eq!(pivot.shape(), (nb, nb), "the pivot tile must match");
    }
    ws.require(nb);
    let ib = ws.ib_for(nb);
    assert!(t.rows() >= ib && t.cols() >= nb, "T factor too small");
    let Workspace {
        tau,
        tail,
        wcol,
        panel,
        ..
    } = ws;
    let mut rec = Panel {
        v,
        block,
        ld: t.rows(),
        t: t.as_mut_slice(),
        j0: 0,
        tau,
        tail,
        wcol,
        scratch: panel,
    };
    for j0 in (0..nb).step_by(ib) {
        let w = ib.min(nb - j0);
        rec.j0 = j0;
        rec.factor(j0, w);
        if j0 + w < nb {
            rec.apply(j0, w, nb - j0 - w);
        }
    }
}

/// The recursive panel (Elmroth & Gustavson) over one `ib` panel: columns
/// `a .. a+n` are split in two, the left half is factored and applied to
/// the right half as one block reflector ([`Block::apply_panel`]), the
/// right half is factored, and the pair's `T` is merged from the halves'
/// as `T₁₂ = −T₁₁·(V₁ᴴ·V₂)·T₂₂` — three products. A leaf of at most
/// [`LEAF`] columns runs the column sweep and its `T` recurrence
/// ([`panel_t`]), a TS leaf on the SIMD levels through [`TsLeaf`].
///
/// Every node's `T` is a diagonal block of the panel's: node `a .. a+n` of
/// the panel at `j0` keeps it at rows `a−j0 ..`, columns `a ..` of the
/// `ib`-blocked `t` (leading dimension `ld`), where it is stored.
struct Panel<'p, 'b, T: Scalar> {
    v: &'p mut Matrix<T>,
    block: Block<'b, T>,
    t: &'p mut [T],
    ld: usize,
    j0: usize,
    tau: &'p mut [T],
    tail: &'p mut [T],
    wcol: &'p mut [T],
    scratch: &'p mut PanelScratch<T>,
}

impl<T: Scalar<Real = f64>> Panel<'_, '_, T> {
    /// Factors columns `a .. a+n` of the current panel and leaves their
    /// `T` in place.
    fn factor(&mut self, a: usize, n: usize) {
        if n <= LEAF {
            return self.leaf(a, n);
        }
        // Half the columns, rounded up to whole leaves.
        let n1 = (n / 2).next_multiple_of(LEAF);
        self.factor(a, n1);
        self.apply(a, n1, n - n1);
        self.factor(a + n1, n - n1);
        self.merge(a, n1, n - n1);
    }

    /// Where the `T` of the node starting at column `a` begins in `t`.
    fn at(&self, a: usize) -> usize {
        a * self.ld + a - self.j0
    }

    /// Applies `Qᴴ` of reflectors `a .. a+n1`, whose `T` is in place, to
    /// the `n2` columns after them.
    fn apply(&mut self, a: usize, n1: usize, n2: usize) {
        let (nb, at) = (self.v.rows(), self.at(a));
        let (left, right) = self.v.as_mut_slice().split_at_mut((a + n1) * nb);
        let t = &self.t[at..];
        let scratch = &mut *self.scratch;
        self.block.apply_panel(
            left,
            nb,
            t,
            self.ld,
            a,
            n1,
            true,
            right,
            a + n1,
            n2,
            scratch,
        );
    }

    /// `T₁₂ := −T₁₁·(V₁ᴴ·V₂)·T₂₂` for the halves `a .. a+n1` and
    /// `a+n1 .. a+n1+n2`, whose `T`s are in place: `Y := V₂ᴴ·V₁`,
    /// `Z := Yᴴ·T₂₂`, `T₁₂ := 0 − T₁₁·Z`.
    fn merge(&mut self, a: usize, n1: usize, n2: usize) {
        let (nb, ld, b) = (self.v.rows(), self.ld, a + n1);
        // Rows of the halves' `T` blocks in the panel's window.
        let (r1, r2) = (a - self.j0, b - self.j0);
        let PanelScratch {
            w: y,
            w2: z,
            apack,
            bpack,
        } = &mut *self.scratch;
        let (ldy, ldz) = (y.rows(), z.rows());
        let v = self.v.as_slice();
        self.block
            .cross(v, nb, a, n1, n2, y.as_mut_slice(), ldy, apack, bpack);
        let (t1, t2) = self.t.split_at_mut(b * ld);
        // The window below the halves' triangles is zero.
        (a..b).for_each(|j| t1[j * ld + r2..][..n2].fill(T::ZERO));
        (0..n2).for_each(|j| z.col_mut(j)[..n1].fill(T::ZERO));
        gemm_into(
            n1,
            n2,
            n2,
            AMode::ConjTrans,
            AForm::Dense,
            |i| &y.col(i)[..n2],
            |j| &t2[j * ld + r2..][..=j],
            z.as_mut_slice(),
            |j| j * ldz,
            false,
            apack,
            bpack,
        );
        (0..n2).for_each(|j| t2[j * ld + r1..][..n1].fill(T::ZERO));
        gemm_into(
            n1,
            n2,
            n1,
            AMode::NoTrans,
            AForm::Dense,
            |p| &t1[(a + p) * ld + r1..][..=p],
            |j| &z.col(j)[..n1],
            t2,
            |j| j * ld + r1,
            true,
            apack,
            bpack,
        );
    }

    /// The column sweep over `a .. a+n`: each reflector is generated and
    /// applied to the rest of the leaf, then the leaf's `T` is built.
    fn leaf(&mut self, a: usize, n: usize) {
        let at = self.at(a);
        let Panel {
            v,
            block,
            t,
            ld,
            tau,
            tail,
            wcol,
            ..
        } = self;
        let (t, ld, tau) = (&mut t[at..], *ld, &mut tau[..n]);
        // The Level-2 sweep of a TS leaf on the SIMD levels: the same
        // steps as below, the same bits.
        if let Block::Pair {
            pivot,
            triangular: false,
        } = block
        {
            let leaf = TsLeaf {
                r1: &mut **pivot,
                v: &mut **v,
                t: &mut *t,
                ld,
                tau: &mut *tau,
                j0: a,
            };
            if with_level2::<T>(leaf) {
                return;
            }
        }
        let j1 = a + n;
        for jj in 0..n {
            let j = a + jj;
            let (alpha, x) = block.column(v, j, j);
            let tail = &mut tail[..x.len()];
            tail.copy_from_slice(x);
            let refl = larfg(*alpha, tail);
            tau[jj] = refl.tau;
            *alpha = refl.beta;
            x.copy_from_slice(tail);
            if refl.tau.is_zero() {
                continue;
            }
            let tau_c = refl.tau.conj();
            for k in (j + 1)..j1 {
                let (pivot, c) = block.column(v, j, k);
                let wv = *pivot + dot_conj(tail, c);
                let s = tau_c * wv;
                *pivot -= s;
                for (ci, &vi) in c.iter_mut().zip(tail.iter()) {
                    *ci -= vi * s;
                }
            }
        }
        panel_t(block, v, a, tau, t, ld, wcol);
    }
}

/// The column sweep of one leaf of a TS pair — columns
/// `j0 .. j0 + tau.len()` of `v` under the pivot tile `r1` — written over
/// the [`Level2`] operations of a SIMD level: every step of the generic
/// sweep and [`panel_t`] in their order, with the dots of independent
/// columns reduced eight at a time and the `T` recurrence summed column by
/// column (entry `i` still adds its terms in index order, from zero).
/// GEQRT and TTQRT leaves keep the generic loops: their shorter columns
/// did not pay for the dispatch on the reference host.
struct TsLeaf<'p, T: Scalar> {
    r1: &'p mut Matrix<T>,
    v: &'p mut Matrix<T>,
    /// The leaf's `T`: entry `(i, jj)` at `t[jj·ld + i]`.
    t: &'p mut [T],
    ld: usize,
    tau: &'p mut [T],
    j0: usize,
}

impl<T: Scalar<Real = f64>> WithLevel2 for TsLeaf<'_, T> {
    #[inline(always)]
    fn run<L: Level2>(self) {
        let TsLeaf {
            r1,
            v,
            t,
            ld,
            tau,
            j0,
        } = self;
        let (nb, w) = (v.rows(), tau.len());
        let j1 = j0 + w;
        for j in j0..j1 {
            // Reflector `j` is `[e_j; v_j]`: its unit meets row `j` of `r1`.
            let refl = larfg(r1.get(j, j), v.col_mut(j));
            tau[j - j0] = refl.tau;
            r1.set(j, j, refl.beta);
            if refl.tau.is_zero() {
                continue;
            }
            let (done, cols) = v.as_mut_slice().split_at_mut((j + 1) * nb);
            let pivots = &mut r1.as_mut_slice()[(j + 1) * nb..];
            let x = &done[j * nb..];
            reflect::<T, L>(cols, pivots, nb, j, j1 - j - 1, x, refl.tau.conj());
        }
        for (jj, &tau) in tau.iter().enumerate() {
            let j = j0 + jj;
            let (done, rest) = t.split_at_mut(jj * ld);
            let col = &mut rest[..w];
            col.fill(T::ZERO);
            if tau.is_zero() {
                continue;
            }
            // `w(ii) = v_iiᴴ·v_jj`, parked in the column being built.
            for ii0 in (0..jj).step_by(DOT_PAIRS) {
                let n = DOT_PAIRS.min(jj - ii0);
                let pairs: [(&[T], &[T]); DOT_PAIRS] =
                    std::array::from_fn(|c| (v.col(j0 + ii0 + c.min(n - 1)), v.col(j)));
                L::dots(&pairs[..n], &mut col[ii0..ii0 + n]);
            }
            trmv_upper::<T, L>(done, ld, &mut col[..jj]);
            for x in &mut col[..jj] {
                *x = -tau * *x;
            }
            col[jj] = tau;
        }
    }
}

/// A leaf's upper triangular compact-WY factor (LAPACK `larft`), entry
/// `(i, jj)` written to `t[jj·ld + i]` for the reflectors `j0 ..
/// j0+taus.len()`, zeros below the diagonal:
/// `T(jj, jj) = τ_jj`, `T(0..jj, jj) = −τ_jj · T(0..jj, 0..jj) · w`
/// with `w(ii) = v_iiᴴ·v_jj`. `wcol` is scratch of at least `w` entries.
fn panel_t<T: Scalar<Real = f64>>(
    block: &Block<'_, T>,
    v: &Matrix<T>,
    j0: usize,
    taus: &[T],
    t: &mut [T],
    ld: usize,
    wcol: &mut [T],
) {
    let w = taus.len();
    for (jj, &tau) in taus.iter().enumerate() {
        let j = j0 + jj;
        let (done, rest) = t.split_at_mut(jj * ld);
        let col = &mut rest[..w];
        col.fill(T::ZERO);
        if tau.is_zero() {
            continue;
        }
        for (ii, wi) in wcol[..jj].iter_mut().enumerate() {
            *wi = block.vdot(v, j0 + ii, j);
        }
        for i in 0..jj {
            let mut acc = T::ZERO;
            for (idx, &wa) in wcol[..jj].iter().enumerate().skip(i) {
                acc += done[idx * ld + i] * wa;
            }
            col[i] = -tau * acc;
        }
        col[jj] = tau;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::generate::{random_matrix, random_upper_triangular};
    use tileqr_matrix::norms::{factorization_residual, frobenius_norm, orthogonality_residual};
    use tileqr_matrix::Complex64;

    use crate::householder::apply_reflector_left;
    use crate::reference::{householder_qr, DenseQr};

    const TOL: f64 = 1e-12;

    /// Reconstructs the 2nb × nb matrix factored by TSQRT/TTQRT from its
    /// compact representation, by applying Q = I − V·T·Vᴴ to [R; 0].
    fn reconstruct_stacked<T: Scalar<Real = f64>>(
        r1: &Matrix<T>,
        v2: &Matrix<T>,
        t: &Matrix<T>,
    ) -> Matrix<T> {
        let nb = r1.rows();
        // Stack [R; 0]
        let mut rz = Matrix::zeros(2 * nb, nb);
        rz.copy_block(0, 0, r1, 0, 0, nb, nb);
        // V = [I; V2]
        let mut v = Matrix::zeros(2 * nb, nb);
        for j in 0..nb {
            v.set(j, j, T::ONE);
        }
        v.copy_block(nb, 0, v2, 0, 0, nb, nb);
        // Q · [R;0] = [R;0] − V·T·(Vᴴ·[R;0])
        let w = v.conj_transpose().matmul(&rz);
        let tw = t.matmul(&w);
        rz.sub(&v.matmul(&tw))
    }

    /// The explicit unit-lower `V` of a GEQRT-factored tile.
    fn unit_lower<T: Scalar<Real = f64>>(a: &Matrix<T>) -> Matrix<T> {
        let nb = a.rows();
        Matrix::from_fn(nb, nb, |i, j| {
            if i == j {
                T::ONE
            } else if i > j {
                a.get(i, j)
            } else {
                T::ZERO
            }
        })
    }

    fn check_geqrt<T: Scalar<Real = f64>>(a0: Matrix<T>) {
        let nb = a0.rows();
        let mut a = a0.clone();
        let mut t = Matrix::zeros(nb, nb);
        geqrt_ws(&mut a, &mut t, &mut Workspace::new(nb));
        // R = upper triangle of a
        let mut r = a.clone();
        r.zero_below_diagonal();
        // Q = I − V·T·Vᴴ ; A must equal Q·R
        let v = unit_lower(&a);
        let q = Matrix::<T>::identity(nb).sub(&v.matmul(&t.matmul(&v.conj_transpose())));
        assert!(
            factorization_residual(&a0, &q, &r) < TOL,
            "GEQRT reconstruction failed"
        );
        assert!(orthogonality_residual(&q) < TOL, "GEQRT Q not unitary");
        assert!(t.is_upper_triangular(), "T factor not upper triangular");
    }

    #[test]
    fn geqrt_factors_random_real_tiles() {
        for (n, seed) in [(1usize, 1u64), (2, 2), (5, 3), (16, 4), (32, 5)] {
            check_geqrt::<f64>(random_matrix(n, n, seed));
        }
    }

    #[test]
    fn geqrt_factors_random_complex_tiles() {
        for (n, seed) in [(1usize, 11u64), (3, 12), (8, 13), (24, 14)] {
            check_geqrt::<Complex64>(random_matrix(n, n, seed));
        }
    }

    #[test]
    fn geqrt_matches_reference_r_up_to_phase() {
        // The R factors of the tile QR and of the reference dense QR agree up
        // to the sign convention; both use negative-sign beta so they should
        // agree exactly (within rounding).
        let a: Matrix<f64> = random_matrix(12, 12, 21);
        let mut tile = a.clone();
        let mut t = Matrix::zeros(12, 12);
        geqrt_ws(&mut tile, &mut t, &mut Workspace::new(12));
        let DenseQr { r, .. } = householder_qr(&a);
        let mut r_tile = tile.clone();
        r_tile.zero_below_diagonal();
        let diff = frobenius_norm(&r_tile.sub(&r));
        assert!(diff < 1e-10, "tile and reference R differ by {diff}");
    }

    #[test]
    fn geqrt_on_already_triangular_tile_keeps_it() {
        let r0: Matrix<f64> = random_upper_triangular(10, 33);
        check_geqrt(r0);
    }

    #[test]
    fn panel_t_factors_replay_the_sequential_reflectors() {
        // At every inner blocking the ib-blocked T factors must reproduce
        // the reflectors one at a time: Qᴴ·C through UNMQR equals
        // H_{nb-1}ᴴ⋯H_0ᴴ·C, with τ_j read off the diagonal of its panel's T.
        let nb = 9;
        for ib in [1usize, 3, 4, nb] {
            let mut ws: Workspace<Complex64> = Workspace::with_inner_block(nb, ib);
            let mut a: Matrix<Complex64> = random_matrix(nb, nb, 70 + ib as u64);
            let mut t = Matrix::zeros(ib, nb);
            geqrt_ws(&mut a, &mut t, &mut ws);
            let c0: Matrix<Complex64> = random_matrix(nb, 5, 71);
            let mut sequential = c0.clone();
            for j in 0..nb {
                let tail: Vec<Complex64> = a.col(j)[j + 1..].to_vec();
                apply_reflector_left(&mut sequential, j, &tail, t.get(j % ib, j), 0);
            }
            let mut blocked = c0.clone();
            crate::apply::unmqr_ws(&a, &t, &mut blocked, crate::Trans::ConjTrans, &mut ws);
            let diff = frobenius_norm(&blocked.sub(&sequential));
            assert!(
                diff < TOL,
                "ib={ib}: blocked and sequential differ by {diff}"
            );
        }
    }

    fn check_tsqrt<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        // Start from an upper-triangular pivot tile and a full tile below.
        let r1_0: Matrix<T> = {
            let mut m: Matrix<T> = random_matrix(nb, nb, seed);
            m.zero_below_diagonal();
            m
        };
        let a2_0: Matrix<T> = random_matrix(nb, nb, seed + 1000);
        let mut r1 = r1_0.clone();
        let mut a2 = a2_0.clone();
        let mut t = Matrix::zeros(nb, nb);
        tsqrt_ws(&mut r1, &mut a2, &mut t, &mut Workspace::new(nb));

        // Original stacked matrix
        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &r1_0, 0, 0, nb, nb);
        stacked.copy_block(nb, 0, &a2_0, 0, 0, nb, nb);

        let mut r_new = r1.clone();
        r_new.zero_below_diagonal();
        let rec = reconstruct_stacked(&r_new, &a2, &t);
        let resid = frobenius_norm(&rec.sub(&stacked)) / (1.0 + frobenius_norm(&stacked));
        assert!(resid < TOL, "TSQRT reconstruction residual {resid}");
        assert!(r_new.is_upper_triangular());
    }

    #[test]
    fn tsqrt_reconstructs_real_and_complex() {
        for nb in [1usize, 2, 4, 8, 16] {
            check_tsqrt::<f64>(nb, 40 + nb as u64);
            check_tsqrt::<Complex64>(nb, 80 + nb as u64);
        }
    }

    fn check_ttqrt<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        let r1_0: Matrix<T> = {
            let mut m: Matrix<T> = random_matrix(nb, nb, seed);
            m.zero_below_diagonal();
            m
        };
        let r2_0: Matrix<T> = {
            let mut m: Matrix<T> = random_matrix(nb, nb, seed + 500);
            m.zero_below_diagonal();
            m
        };
        let mut r1 = r1_0.clone();
        let mut r2 = r2_0.clone();
        let mut t = Matrix::zeros(nb, nb);
        ttqrt_ws(&mut r1, &mut r2, &mut t, &mut Workspace::new(nb));

        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &r1_0, 0, 0, nb, nb);
        stacked.copy_block(nb, 0, &r2_0, 0, 0, nb, nb);

        let mut r_new = r1.clone();
        r_new.zero_below_diagonal();
        let rec = reconstruct_stacked(&r_new, &r2, &t);
        let resid = frobenius_norm(&rec.sub(&stacked)) / (1.0 + frobenius_norm(&stacked));
        assert!(resid < TOL, "TTQRT reconstruction residual {resid}");
        assert!(r_new.is_upper_triangular());
        // The Householder block V2 stays upper triangular — that is what makes
        // the TT kernels cheap.
        assert!(
            r2.is_upper_triangular(),
            "TTQRT V2 must stay upper triangular"
        );
    }

    #[test]
    fn ttqrt_reconstructs_real_and_complex() {
        for nb in [1usize, 2, 3, 8, 16] {
            check_ttqrt::<f64>(nb, 140 + nb as u64);
            check_ttqrt::<Complex64>(nb, 180 + nb as u64);
        }
    }

    #[test]
    fn ttqrt_with_zero_bottom_tile_is_identity_like() {
        let nb = 6;
        let r1_0: Matrix<f64> = random_upper_triangular(nb, 7);
        let mut r1 = r1_0.clone();
        let mut r2 = Matrix::<f64>::zeros(nb, nb);
        let mut t = Matrix::zeros(nb, nb);
        ttqrt_ws(&mut r1, &mut r2, &mut t, &mut Workspace::new(nb));
        // Nothing to annihilate if the diagonal of r1 is already "real
        // positive or negative": the reflectors may still flip signs, but the
        // reconstruction must hold and r2 must stay zero-ish in norm.
        let mut r_new = r1.clone();
        r_new.zero_below_diagonal();
        let mut stacked = Matrix::zeros(2 * nb, nb);
        stacked.copy_block(0, 0, &r1_0, 0, 0, nb, nb);
        let rec = reconstruct_stacked(&r_new, &r2, &t);
        assert!(frobenius_norm(&rec.sub(&stacked)) < TOL);
    }

    /// Inner blockings to sweep at tile order `nb`: one, `nb`, and a mix
    /// of divisors and non-divisors in between.
    fn blockings(nb: usize) -> Vec<usize> {
        let mut ibs: Vec<usize> = [1, 3, 5, 8, 16, 32, nb]
            .into_iter()
            .filter(|&ib| ib <= nb)
            .collect();
        ibs.dedup();
        ibs
    }

    /// Every stored `T` window of a factored block must be the leaf
    /// recurrence of [`panel_t`] recomputed from the output `V` and the
    /// `τ`s on the window's diagonal, to 1e-13 relative.
    fn check_stored_t<T: Scalar<Real = f64>>(
        block: &Block<'_, T>,
        v: &Matrix<T>,
        t: &Matrix<T>,
        ib: usize,
        what: &str,
    ) {
        let nb = v.rows();
        for j0 in (0..nb).step_by(ib) {
            let w = ib.min(nb - j0);
            let taus: Vec<T> = (0..w).map(|jj| t.get(jj, j0 + jj)).collect();
            let mut want = Matrix::zeros(w, w);
            panel_t(
                block,
                v,
                j0,
                &taus,
                want.as_mut_slice(),
                w,
                &mut vec![T::ZERO; w],
            );
            let got = Matrix::from_fn(w, w, |i, jj| t.get(i, j0 + jj));
            let diff = frobenius_norm(&got.sub(&want));
            assert!(
                diff <= 1e-13 * frobenius_norm(&want),
                "{what}: T window at column {j0} is {diff} off the recurrence"
            );
        }
    }

    /// `Q` of a factored pair, `2nb × 2nb`, applied by the pair's update
    /// kernel to the identity.
    fn explicit_pair_q<T: Scalar<Real = f64>>(
        v2: &Matrix<T>,
        t: &Matrix<T>,
        ib: usize,
        tt: bool,
    ) -> Matrix<T> {
        let nb = v2.rows();
        let id = Matrix::<T>::identity(2 * nb);
        let mut c1 = Matrix::from_fn(nb, 2 * nb, |i, j| id.get(i, j));
        let mut c2 = Matrix::from_fn(nb, 2 * nb, |i, j| id.get(nb + i, j));
        let mut ws = Workspace::with_inner_block(nb, ib);
        let kernel = if tt {
            crate::apply::ttmqr_ws
        } else {
            crate::apply::tsmqr_ws
        };
        kernel(v2, t, &mut c1, &mut c2, crate::Trans::NoTrans, &mut ws);
        Matrix::from_fn(2 * nb, 2 * nb, |i, j| {
            if i < nb {
                c1.get(i, j)
            } else {
                c2.get(i - nb, j)
            }
        })
    }

    fn check_recursive_panel<T: tileqr_matrix::generate::RandomScalar>(nb: usize, seed: u64) {
        for ib in blockings(nb) {
            let what = |k: &str| format!("{k} nb={nb} ib={ib}");
            let mut ws = Workspace::with_inner_block(nb, ib);
            // GEQRT
            let a0: Matrix<T> = random_matrix(nb, nb, seed);
            let (mut a, mut t) = (a0.clone(), Matrix::zeros(ib, nb));
            geqrt_ws(&mut a, &mut t, &mut ws);
            let mut q = Matrix::<T>::identity(nb);
            crate::apply::unmqr_ws(&a, &t, &mut q, crate::Trans::NoTrans, &mut ws);
            let mut r = a.clone();
            r.zero_below_diagonal();
            assert!(
                factorization_residual(&a0, &q, &r) < TOL,
                "{}",
                what("GEQRT")
            );
            assert!(orthogonality_residual(&q) < TOL, "{}", what("GEQRT"));
            check_stored_t(&Block::Tile, &a, &t, ib, &what("GEQRT"));
            // TSQRT and TTQRT
            for tt in [false, true] {
                let name = if tt { "TTQRT" } else { "TSQRT" };
                let mut r1_0: Matrix<T> = random_matrix(nb, nb, seed + 1);
                r1_0.zero_below_diagonal();
                let mut x2_0: Matrix<T> = random_matrix(nb, nb, seed + 2);
                if tt {
                    x2_0.zero_below_diagonal();
                }
                let (mut r1, mut x2, mut t) = (r1_0.clone(), x2_0.clone(), Matrix::zeros(ib, nb));
                let kernel = if tt { ttqrt_ws } else { tsqrt_ws };
                kernel(&mut r1, &mut x2, &mut t, &mut ws);
                let q = explicit_pair_q(&x2, &t, ib, tt);
                let mut stacked = Matrix::zeros(2 * nb, nb);
                stacked.copy_block(0, 0, &r1_0, 0, 0, nb, nb);
                stacked.copy_block(nb, 0, &x2_0, 0, 0, nb, nb);
                let mut r = Matrix::zeros(2 * nb, nb);
                r1.zero_below_diagonal();
                r.copy_block(0, 0, &r1, 0, 0, nb, nb);
                assert!(
                    factorization_residual(&stacked, &q, &r) < TOL,
                    "{}",
                    what(name)
                );
                assert!(orthogonality_residual(&q) < TOL, "{}", what(name));
                let mut pivot = Matrix::zeros(nb, nb);
                let block = Block::Pair {
                    pivot: &mut pivot,
                    triangular: tt,
                };
                check_stored_t(&block, &x2, &t, ib, &what(name));
            }
        }
    }

    const RECURSION_NBS: [usize; 13] = [1, 2, 3, 5, 7, 8, 9, 16, 17, 33, 37, 64, 128];

    #[test]
    fn recursive_panel_reconstructs_and_stores_each_panels_t_real() {
        for nb in RECURSION_NBS {
            check_recursive_panel::<f64>(nb, 500 + nb as u64);
        }
    }

    #[test]
    fn recursive_panel_reconstructs_and_stores_each_panels_t_complex() {
        for nb in RECURSION_NBS {
            check_recursive_panel::<Complex64>(nb, 700 + nb as u64);
        }
    }
}
