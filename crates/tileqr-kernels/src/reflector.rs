//! The one block-reflector primitive behind all six tile kernels.
//!
//! Every kernel of this crate applies reflector panels `I − V_s·op(T_s)·V_sᴴ`
//! of `w ≤ ib` columns to some target — the update kernels to the trailing
//! tiles, the factorization kernels to the trailing columns of the tile
//! (pair) they are factoring. [`apply_panel`] is that application, written
//! once as three products on the register-tiled [`crate::microblas`]
//! backend:
//!
//! ```text
//! W  += V_sᴴ·C        (w × rows)·(rows × width)
//! W₂ := op(T_s)·W     (w × w)·(w × width)
//! C  −= V_s·W₂        (rows × w)·(w × width)
//! ```
//!
//! The three reflector families differ only in the *structure* of `V_s`,
//! and that structure exists only while the operands are packed:
//!
//! | family | `V_s` | how it is given |
//! |---|---|---|
//! | GEQRT / UNMQR | unit-lower trapezoid | [`AForm::UnitLower`] columns: zeros and the unit diagonal are implied, the `R` entries stored there are never read |
//! | TSQRT / TSMQR | identity over a dense block | [`PivotRows`] + dense columns |
//! | TTQRT / TTMQR | identity over an upper trapezoid | [`PivotRows`] + short columns, zero-padded by the packer |
//!
//! The identity block of the stacked TS/TT reflectors needs no product: it
//! loads `W` with the pivot-row window before the first product and
//! subtracts `W₂` from it after the second. `T_s` is upper triangular and
//! enters as short columns too, so nothing outside its `w × w` triangle is
//! read. No structured scalar loop is left on the path.

use tileqr_matrix::{Matrix, Scalar};

use crate::blas::{copy_rows_window_into, sub_rows_window_assign};
use crate::microblas::{apack_len, bpack_len, gemm_into, AForm, AMode};

/// Scratch of [`apply_panel`], sized from the tile order alone so one
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

/// The rows the identity block of a stacked `[I; V2]` reflector panel acts
/// on: column `j` of the window is `c1[start + j·ld ..][.. w]`.
pub(crate) struct PivotRows<'a, T> {
    pub(crate) c1: &'a mut [T],
    pub(crate) start: usize,
    pub(crate) ld: usize,
}

/// `C ← (I − V_s·op(T_s)·V_sᴴ)·C` for one reflector panel.
///
/// * `vcol(i)`, `i < w`, is stored column `i` of the panel's explicit block,
///   its row 0 aligned with row 0 of the target columns; `rows` is the
///   height of that block. With `pivot` absent the block is a unit-lower
///   trapezoid ([`AForm::UnitLower`]); with `pivot` present it is the `V2`
///   under an identity that acts on the pivot rows, and columns shorter
///   than `rows` end in zeros.
/// * `T_s` is the upper triangle at rows `0..w` of columns `j0 .. j0+w` of
///   `t`; `conj_t` selects `T_sᴴ` (applying `Qᴴ`).
/// * Column `j < width` of the target is `c[coff(j) ..][.. rows]`.
#[allow(clippy::too_many_arguments)] // one larfb: reflector, T window, target
pub(crate) fn apply_panel<'v, T: Scalar + 'v>(
    vcol: impl Fn(usize) -> &'v [T],
    rows: usize,
    pivot: Option<PivotRows<'_, T>>,
    t: &Matrix<T>,
    j0: usize,
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
        wm.rows() >= w && wm.cols() >= width && t.rows() >= w && t.cols() >= j0 + w,
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
        Some(p) => copy_rows_window_into(p.c1, |j| j * p.ld, p.start, w, width, wm),
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
        |i| &t.col(j0 + i)[..i + 1],
        |j| &wm.col(j)[..w],
        w2.as_mut_slice(),
        |j| j * ldw2,
        false,
        apack,
        bpack,
    );
    // [pivot rows; C] −= [I; V_s]·W₂
    if let Some(p) = pivot {
        sub_rows_window_assign(p.c1, |j| j * p.ld, p.start, w, width, w2);
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
