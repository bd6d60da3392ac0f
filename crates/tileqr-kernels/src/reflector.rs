//! The one description of a reflector block, and the one block-reflector
//! primitive behind all six tile kernels.
//!
//! Every kernel of this crate factors or applies a block of Householder
//! reflectors `H_j = I − τ_j·v_j·v_jᴴ`, and a [`Block`] says how that block
//! is stored. It is the only thing that tells the six kernels apart:
//!
//! | [`Block`] | kernels | `v_j` | stored |
//! |---|---|---|---|
//! | `Tile` | GEQRT / UNMQR | `e_j` over a tail | rows `j+1..nb` of column `j` of one tile, below `R`; the unit and the zeros above it are implied |
//! | `Pair`, dense | TSQRT / TSMQR | `[e_j; V2(:, j)]` | rows `0..nb` of column `j` of the second tile; `e_j` picks row `j` of the pivot tile |
//! | `Pair`, `triangular` | TTQRT / TTMQR | `[e_j; V2(:, j)]` | rows `0..=j` of column `j`: the second tile's strictly lower half is never read or written |
//!
//! TS and TT differ only in that stored length, so they share every line of
//! code. A factorization kernel ([`crate::factor`]) factors each `ib` panel
//! recursively: a leaf's reflectors are generated column by column
//! ([`Block::column`]) and its `T` built from their inner products
//! ([`Block::vdot`]); a factored half is applied to the other half, and a
//! finished panel to the trailing columns, with [`Block::apply_panel`]; two
//! halves' `T` factors are merged through their cross product
//! ([`Block::cross`]). An update kernel ([`crate::apply`]) is
//! [`Block::apply_panel`] per panel and chunk of target columns. Both work
//! in place on the tiles: a TT pair's triangle is read and written where it
//! lies.
//!
//! The panel application ([`larfb`]) is written once as three products on
//! the register-tiled [`crate::microblas`] backend:
//!
//! ```text
//! W  += V_sᴴ·C        (w × rows)·(rows × width)
//! W₂ := op(T_s)·W     (w × w)·(w × width)
//! C  −= V_s·W₂        (rows × w)·(w × width)
//! ```
//!
//! The structure of `V_s` exists only while the operands are packed: a
//! tile's panel is an [`AForm::UnitLower`] operand (zeros and unit diagonal
//! implied, the `R` entries stored there never read), a pair's columns end
//! at their stored length and the packer pads them with zeros. The identity
//! block of a pair needs no product: it loads `W` with the pivot-row window
//! before the first product and subtracts `W₂` from it after the second.
//! `T_s` is upper triangular and enters as short columns too, so nothing
//! outside its `w × w` triangle is read. No structured scalar loop is left
//! on the path.

use tileqr_matrix::{Matrix, Scalar};

use crate::blas::{copy_rows_window_into, dot_conj, sub_rows_window_assign};
use crate::microblas::{apack_len, bpack_len, gemm_into, AForm, AMode};

/// Scratch of [`larfb`], sized from the tile order alone so one
/// arena serves every inner blocking factor.
#[derive(Clone, Debug)]
pub(crate) struct PanelScratch<T: Scalar> {
    /// `nb × nb` staging panel `W` (the leading `w` rows are live).
    pub(crate) w: Matrix<T>,
    /// Second staging panel `W₂ = op(T_s)·W`, same shape: a product cannot
    /// overwrite its own right-hand operand.
    pub(crate) w2: Matrix<T>,
    /// Micro-BLAS `A` pack buffer ([`apack_len`]`(nb, nb)`).
    pub(crate) apack: Vec<T>,
    /// Micro-BLAS `B` pack buffer ([`bpack_len`]`(nb, nb)`).
    pub(crate) bpack: Vec<T>,
}

impl<T: Scalar> PanelScratch<T> {
    pub(crate) fn new(nb: usize) -> Self {
        PanelScratch {
            w: Matrix::zeros(nb, nb),
            w2: Matrix::zeros(nb, nb),
            apack: vec![T::ZERO; apack_len::<T>(nb, nb)],
            bpack: vec![T::ZERO; bpack_len::<T>(nb, nb)],
        }
    }

    /// Whether every buffer covers panels of tiles of order `nb`.
    pub(crate) fn serves(&self, nb: usize) -> bool {
        self.w.rows() >= nb
            && self.w.cols() >= nb
            && self.w2.rows() >= nb
            && self.w2.cols() >= nb
            && self.apack.len() >= apack_len::<T>(nb, nb)
            && self.bpack.len() >= bpack_len::<T>(nb, nb)
    }
}

/// How a block of reflectors of order `nb` is stored. The reflectors
/// themselves live in a separate `nb × nb` tile `v`; a pair's `pivot` is
/// the tile whose rows its identity block acts on (`R1` when factoring,
/// `C1` when updating).
pub(crate) enum Block<'a, T: Scalar> {
    /// GEQRT / UNMQR: a unit-lower `V` under `R` in one tile.
    Tile,
    /// TS / TT: `[I; V2]`; column `j` of `V2` is stored in rows `0..nb`, or
    /// in rows `0..=j` when `triangular`.
    Pair {
        pivot: &'a mut Matrix<T>,
        triangular: bool,
    },
}

/// One past the last stored row of column `j` of `v`: a triangular `V2`
/// ends at its diagonal, every other column at the bottom of the tile.
fn stored(triangular: bool, nb: usize, j: usize) -> usize {
    if triangular {
        j + 1
    } else {
        nb
    }
}

impl<T: Scalar> Block<'_, T> {
    fn triangular(&self) -> bool {
        matches!(
            self,
            Block::Pair {
                triangular: true,
                ..
            }
        )
    }

    /// Column `k` of the stacked matrix as reflector `j` meets it: the entry
    /// in the pivot row `j` and the tail under the reflector's stored part.
    #[inline]
    pub(crate) fn column<'b>(
        &'b mut self,
        v: &'b mut Matrix<T>,
        j: usize,
        k: usize,
    ) -> (&'b mut T, &'b mut [T]) {
        let len = stored(self.triangular(), v.rows(), j);
        match self {
            Block::Tile => v.col_mut(k)[j..len]
                .split_first_mut()
                .expect("the pivot row lies in the tile"),
            Block::Pair { pivot, .. } => (&mut pivot.col_mut(k)[j], &mut v.col_mut(k)[..len]),
        }
    }

    /// `v_iᴴ·v_j` for reflectors `i < j` stored in `v`. Inlined, like
    /// [`Block::column`]: the `T` builder calls it once per pair of a
    /// panel's reflectors, and out of line it cost GEQRT about 5%.
    #[inline]
    pub(crate) fn vdot(&self, v: &Matrix<T>, i: usize, j: usize) -> T {
        let (vi, vj) = (v.col(i), v.col(j));
        match self {
            // `v_j` is zero above row `j`, and its implied unit meets `v_i`
            // there.
            Block::Tile => vi[j].conj() + dot_conj(&vi[j + 1..], &vj[j + 1..]),
            // The identity blocks are orthogonal; `v_i`'s stored rows bound
            // the rest.
            Block::Pair { triangular, .. } => {
                let len = stored(*triangular, v.rows(), i);
                dot_conj(&vi[..len], &vj[..len])
            }
        }
    }

    /// `C ← (I − V_s·op(T_s)·V_sᴴ)·C` for the panel of reflectors
    /// `j0 .. j0+w` stored in `v` (column-major, leading dimension `nb`):
    /// `c` holds `width` target columns, leading dimension `nb`, which are
    /// columns `c0 ..` of the tile (pair). The panel's explicit rows are a
    /// tile's from the panel's diagonal down (`R` above it is never read), a
    /// pair's down to the last stored row of the panel's last column.
    /// `T_s` is the `w × w` upper triangle whose column `i` is
    /// `t[i·ldt ..][..= i]`: a panel's window of an `ib`-blocked `T`, or a
    /// diagonal block of one.
    #[allow(clippy::too_many_arguments)] // one larfb: reflector panel, T window, target
    pub(crate) fn apply_panel(
        &mut self,
        v: &[T],
        nb: usize,
        t: &[T],
        ldt: usize,
        j0: usize,
        w: usize,
        conj_t: bool,
        c: &mut [T],
        c0: usize,
        width: usize,
        scratch: &mut PanelScratch<T>,
    ) {
        let triangular = self.triangular();
        let (r0, pivot) = match self {
            Block::Tile => (j0, None),
            Block::Pair { pivot, .. } => {
                let c1 = &mut pivot.as_mut_slice()[c0 * nb..];
                (0, Some(PivotRows { c1, ld: nb, j0 }))
            }
        };
        let rows = stored(triangular, nb, j0 + w - 1) - r0;
        let vcol = |i: usize| {
            let j = j0 + i;
            &v[j * nb + r0..j * nb + stored(triangular, nb, j)]
        };
        let coff = |j: usize| j * nb + r0;
        larfb(
            vcol, rows, pivot, t, ldt, w, conj_t, c, coff, width, scratch,
        );
    }

    /// `Y := V_bᴴ·V_a` (`n_b × n_a`, leading dimension `ldy`) for the
    /// adjacent reflector blocks `a .. a+n_a` and `b .. b+n_b`,
    /// `b = a + n_a`: the cross term of the recursive panel's
    /// `T₁₂ = −T₁₁·(V_aᴴ·V_b)·T₂₂`. One product over the rows where both
    /// blocks can be nonzero — a tile's from row `b` down (`V_b`'s unit
    /// lower trapezoid, [`AForm::UnitLower`], under which `V_a` is dense);
    /// a pair's stored rows, the identity blocks being orthogonal (a TT
    /// pair's end at row `b`, past every stored row of `V_a`). Only stored
    /// entries are read.
    #[allow(clippy::too_many_arguments)] // one product: two blocks, output, packs
    pub(crate) fn cross(
        &self,
        v: &[T],
        nb: usize,
        a: usize,
        n_a: usize,
        n_b: usize,
        y: &mut [T],
        ldy: usize,
        apack: &mut [T],
        bpack: &mut [T],
    ) {
        let b = a + n_a;
        let triangular = self.triangular();
        let (r0, k, form) = match self {
            Block::Tile => (b, nb - b, AForm::UnitLower),
            Block::Pair { .. } => (0, stored(triangular, nb, b - 1), AForm::Dense),
        };
        let col = |j: usize| &v[j * nb + r0..j * nb + stored(triangular, nb, j).min(r0 + k)];
        (0..n_a).for_each(|j| y[j * ldy..][..n_b].fill(T::ZERO));
        gemm_into(
            n_b,
            n_a,
            k,
            AMode::ConjTrans,
            form,
            |i| col(b + i),
            |j| col(a + j),
            y,
            |j| j * ldy,
            false,
            apack,
            bpack,
        );
    }
}

/// Rows `j0 .. j0+w` of the pivot tile's target columns, on which the
/// identity block of a pair acts: column `j` is `c1[j·ld + j0 ..][.. w]`.
struct PivotRows<'a, T> {
    c1: &'a mut [T],
    ld: usize,
    j0: usize,
}

/// The panel application itself, on operand accessors:
///
/// * `vcol(i)`, `i < w`, is stored column `i` of the panel's explicit block,
///   its row 0 aligned with row 0 of the target columns; `rows` is the
///   height of that block. With `pivot` absent the block is a unit-lower
///   trapezoid ([`AForm::UnitLower`]); with `pivot` present it is the `V2`
///   under an identity that acts on the pivot rows, and columns shorter
///   than `rows` end in zeros.
/// * `T_s` is the upper triangle whose column `i` is `t[i·ldt ..][..= i]`;
///   `conj_t` selects `T_sᴴ` (applying `Qᴴ`).
/// * Column `j < width` of the target is `c[coff(j) ..][.. rows]`.
///
/// Kept generic over its accessors, as a function of its own: on a 2-vCPU
/// AVX-512 Xeon the same three products written inline in
/// [`Block::apply_panel`] ran 2–8% slower on the update kernels.
#[allow(clippy::too_many_arguments)] // one larfb: reflector, T window, target
fn larfb<'v, T: Scalar + 'v>(
    vcol: impl Fn(usize) -> &'v [T],
    rows: usize,
    pivot: Option<PivotRows<'_, T>>,
    t: &[T],
    ldt: usize,
    w: usize,
    conj_t: bool,
    c: &mut [T],
    coff: impl Fn(usize) -> usize,
    width: usize,
    scratch: &mut PanelScratch<T>,
) {
    let PanelScratch {
        w: wm,
        w2,
        apack,
        bpack,
    } = scratch;
    assert!(
        wm.rows() >= w && wm.cols() >= width && ldt >= w && t.len() >= (w - 1) * ldt + w,
        "staging panel or T window too small"
    );
    let (ldw, ldw2) = (wm.rows(), w2.rows());
    let form = if pivot.is_some() {
        AForm::Dense
    } else {
        AForm::UnitLower
    };
    // W := the identity block's share (the pivot rows), or nothing.
    match &pivot {
        Some(p) => copy_rows_window_into(p.c1, p.ld, p.j0, w, width, wm),
        None => (0..width).for_each(|j| wm.col_mut(j)[..w].fill(T::ZERO)),
    }
    // W += V_sᴴ·C
    let target = &*c;
    gemm_into(
        w,
        width,
        rows,
        AMode::ConjTrans,
        form,
        &vcol,
        |j| &target[coff(j)..][..rows],
        wm.as_mut_slice(),
        |j| j * ldw,
        false,
        apack,
        bpack,
    );
    // W₂ := op(T_s)·W
    (0..width).for_each(|j| w2.col_mut(j)[..w].fill(T::ZERO));
    gemm_into(
        w,
        width,
        w,
        if conj_t {
            AMode::ConjTrans
        } else {
            AMode::NoTrans
        },
        AForm::Dense,
        |i| &t[i * ldt..][..=i],
        |j| &wm.col(j)[..w],
        w2.as_mut_slice(),
        |j| j * ldw2,
        false,
        apack,
        bpack,
    );
    // [pivot rows; C] −= [I; V_s]·W₂
    if let Some(p) = pivot {
        sub_rows_window_assign(p.c1, p.ld, p.j0, w, width, w2);
    }
    gemm_into(
        rows,
        width,
        w,
        AMode::NoTrans,
        form,
        &vcol,
        |j| &w2.col(j)[..w],
        c,
        coff,
        true,
        apack,
        bpack,
    );
}
