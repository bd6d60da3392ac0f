//! Preallocated scratch space for the tile kernels.
//!
//! Every kernel of this crate needs a small amount of scratch: the
//! Householder scalars `τ`, the reflector tail being generated, one column of
//! inner products while building a leaf's `T` factor, the two staging panels
//! of the block-reflector application (which also hold the intermediate
//! products of the factor kernels' `T` merges)
//!
//! ```text
//! W += VᴴC,   W₂ := op(T)·W,   C −= V·W₂,
//! ```
//!
//! (a product cannot overwrite its own operand, hence two), and the pack
//! buffers of the register-tiled micro-BLAS backend ([`crate::microblas`],
//! sized for the register block of every SIMD level, so forcing another
//! level never outgrows them). The kernels work on the tiles in place, so
//! nothing else is needed — no copy of a tile, triangular or not.
//!
//! The original (seed) kernels allocated all of this on every call, i.e. on
//! every one of the `O(p·q²)` tasks of a factorization. A [`Workspace`] is
//! allocated **once** (per worker thread, in the runtime) and reused by every
//! kernel invocation, so the hot path performs zero heap allocations — the
//! worst case over every kernel and every inner-blocking factor is sized at
//! construction, and `Workspace::require` asserts the invariant on each
//! kernel entry.
//!
//! # Inner blocking
//!
//! The workspace also carries the PLASMA-style inner blocking factor `ib`:
//! the factor kernels factor each `nb × nb` tile in panels of `ib` columns,
//! each panel recursively, and apply a finished panel to the later columns
//! as one block reflector; the update kernels apply the panels one by one
//! (see [`crate::factor`] and [`crate::apply`]). [`Workspace::new`]`(nb)`
//! uses `ib = nb` (one panel per tile); [`Workspace::with_inner_block`]
//! selects a smaller panel width. The `T` factors are stored `ib`-blocked
//! (an `ib × nb` matrix holding one `w × w` triangular factor per panel),
//! so the same `ib` must be used to factor and to apply. No buffer depends
//! on `ib`: the recursion's `T` blocks live in the output `T` itself.
//!
//! Sizing: a workspace built for tile order `nb` serves every kernel on
//! tiles of order ≤ `nb`; the effective panel width for a smaller tile is
//! `min(ib, tile order)`.

use tileqr_matrix::Scalar;

use crate::reflector::PanelScratch;

/// Reusable scratch arena for the tile kernels, sized once from the tile
/// order `nb` and the inner blocking factor `ib`.
#[derive(Clone, Debug)]
pub struct Workspace<T: Scalar> {
    nb: usize,
    ib: usize,
    /// Householder scalars `τ_j`, one per reflector of the current panel.
    pub(crate) tau: Vec<T>,
    /// Tail of the reflector currently being generated.
    pub(crate) tail: Vec<T>,
    /// One column of inner products while accumulating a leaf's `T`.
    pub(crate) wcol: Vec<T>,
    /// Staging panels `W`, `W₂` and micro-BLAS pack buffers of the
    /// block-reflector application.
    pub(crate) panel: PanelScratch<T>,
}

impl<T: Scalar> Workspace<T> {
    /// Allocates a workspace serving all six kernels on `nb × nb` tiles with
    /// `ib = nb` (no inner blocking).
    pub fn new(nb: usize) -> Self {
        Workspace::with_inner_block(nb, nb)
    }

    /// Allocates a workspace with inner blocking factor `ib` (clamped to
    /// `1..=nb`): kernels process tiles in panels of `ib` columns and store
    /// `T` factors `ib`-blocked.
    pub fn with_inner_block(nb: usize, ib: usize) -> Self {
        let ib = ib.clamp(1, nb.max(1));
        Workspace {
            nb,
            ib,
            tau: vec![T::ZERO; nb],
            tail: vec![T::ZERO; nb],
            wcol: vec![T::ZERO; nb],
            panel: PanelScratch::new(nb),
        }
    }

    /// Tile order this workspace was sized for.
    #[inline]
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// Inner blocking factor (panel width) the kernels will use.
    #[inline]
    pub fn ib(&self) -> usize {
        self.ib
    }

    /// Effective panel width for a tile of order `nb` (a workspace sized for
    /// a larger tile serves smaller tiles unblocked once `ib ≥ nb`).
    #[inline]
    pub(crate) fn ib_for(&self, nb: usize) -> usize {
        self.ib.min(nb).max(1)
    }

    /// Grows the workspace if it is smaller than `nb` (no-op otherwise),
    /// keeping the inner blocking factor. Useful when one worker serves
    /// factorizations with different tile sizes.
    pub fn ensure(&mut self, nb: usize) {
        if nb > self.nb {
            *self = Workspace::with_inner_block(nb, self.ib);
        }
    }

    /// Switches the inner blocking factor (clamped to `1..=nb`) without
    /// touching any buffer: every buffer is sized from `nb` alone, so a
    /// workspace built for the largest tile order of a mixed-plan group can
    /// serve each task with that task's own `ib`. Allocation-free.
    #[inline]
    pub fn set_inner_block(&mut self, ib: usize) {
        self.ib = ib.clamp(1, self.nb.max(1));
    }

    /// Asserts (in debug and release) that the workspace can serve tiles of
    /// order `nb`, including both staging panels and the micro-BLAS pack
    /// buffers — the zero-per-task-allocation guarantee relies on every
    /// buffer being preallocated for the worst case.
    #[inline]
    pub(crate) fn require(&self, nb: usize) {
        assert!(
            self.nb >= nb,
            "workspace sized for nb={} cannot serve an nb={} tile; call Workspace::ensure",
            self.nb,
            nb
        );
        assert!(
            self.panel.serves(nb),
            "workspace panel scratch is not preallocated for nb={nb}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microblas::{apack_len, bpack_len};

    #[test]
    fn workspace_is_sized_from_nb() {
        let ws: Workspace<f64> = Workspace::new(8);
        assert_eq!(ws.nb(), 8);
        assert_eq!(ws.ib(), 8);
        assert_eq!(ws.tau.len(), 8);
        assert_eq!(ws.tail.len(), 8);
        assert_eq!(ws.wcol.len(), 8);
        assert_eq!(ws.panel.w.shape(), (8, 8));
        assert_eq!(ws.panel.w2.shape(), (8, 8));
    }

    #[test]
    fn pack_buffers_are_preallocated_for_any_inner_block() {
        // The zero-per-task-allocation guarantee: every buffer the kernels
        // touch — both staging panels, the micro-BLAS pack buffers at every
        // SIMD level's block shape — is sized for the worst case at
        // construction, for every ib ≤ nb.
        for ib in [1usize, 3, 8, 16] {
            let ws: Workspace<f64> = Workspace::with_inner_block(16, ib);
            assert_eq!(ws.ib(), ib);
            assert_eq!(ws.panel.w.shape(), (16, 16));
            assert_eq!(ws.panel.w2.shape(), (16, 16));
            assert!(ws.panel.apack.len() >= apack_len::<f64>(16, 16));
            assert!(ws.panel.bpack.len() >= bpack_len::<f64>(16, 16));
            ws.require(16); // must not panic: buffers cover the full tile
        }
    }

    #[test]
    #[should_panic(expected = "panel scratch is not preallocated")]
    fn require_rejects_a_missing_second_staging_panel() {
        let mut ws: Workspace<f64> = Workspace::new(8);
        ws.panel.w2 = tileqr_matrix::Matrix::zeros(4, 8);
        ws.require(8);
    }

    #[test]
    fn inner_block_is_clamped() {
        let ws: Workspace<f64> = Workspace::with_inner_block(8, 0);
        assert_eq!(ws.ib(), 1);
        let ws: Workspace<f64> = Workspace::with_inner_block(8, 99);
        assert_eq!(ws.ib(), 8);
        assert_eq!(ws.ib_for(4), 4);
        let ws: Workspace<f64> = Workspace::with_inner_block(8, 3);
        assert_eq!(ws.ib_for(8), 3);
        assert_eq!(ws.ib_for(2), 2);
    }

    #[test]
    fn ensure_grows_but_never_shrinks() {
        let mut ws: Workspace<f64> = Workspace::with_inner_block(4, 2);
        ws.ensure(2);
        assert_eq!(ws.nb(), 4);
        ws.ensure(16);
        assert_eq!(ws.nb(), 16);
        assert_eq!(ws.ib(), 2, "ensure keeps the inner blocking factor");
        assert_eq!(ws.panel.w.shape(), (16, 16));
        assert_eq!(ws.panel.w2.shape(), (16, 16));
        ws.require(16);
    }

    #[test]
    fn set_inner_block_switches_without_reallocating() {
        let mut ws: Workspace<f64> = Workspace::with_inner_block(8, 8);
        let caps = |ws: &Workspace<f64>| {
            [
                ws.tau.capacity(),
                ws.panel.w.as_slice().len(),
                ws.panel.w2.as_slice().len(),
                ws.panel.apack.capacity(),
                ws.panel.bpack.capacity(),
            ]
        };
        let cap = caps(&ws);
        ws.set_inner_block(3);
        assert_eq!(ws.ib(), 3);
        assert_eq!(ws.nb(), 8);
        ws.set_inner_block(0);
        assert_eq!(ws.ib(), 1, "clamped to 1");
        ws.set_inner_block(99);
        assert_eq!(ws.ib(), 8, "clamped to nb");
        assert_eq!(cap, caps(&ws), "buffers untouched");
        ws.require(8);
    }

    #[test]
    #[should_panic(expected = "workspace sized for nb=4")]
    fn require_rejects_oversized_tiles() {
        let ws: Workspace<f64> = Workspace::new(4);
        ws.require(8);
    }
}
