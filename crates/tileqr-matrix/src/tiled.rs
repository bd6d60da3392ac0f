//! PLASMA-style tiled matrix layout.
//!
//! A [`TiledMatrix`] stores an `m × n` matrix as a `p × q` grid of square
//! `nb × nb` tiles, each tile contiguous in memory. This is the layout
//! assumed by the tiled QR algorithms of the paper: the elimination
//! algorithms reason about tile coordinates `(i, k)` with `0 ≤ i < p`,
//! `0 ≤ k < q`, and the kernels of `tileqr-kernels` operate on individual
//! tiles (plus their Householder/`T` companions).
//!
//! Tiles are stored tile-column-major (tile `(i, j)` lives at index
//! `j * p + i`), mirroring the element layout inside each tile.

use crate::dense::Matrix;
use crate::scalar::Scalar;

/// Coordinates of a tile inside a [`TiledMatrix`]: row index `i` and column
/// index `j`, both zero-based.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileRef {
    /// Tile row, `0 ≤ i < p`.
    pub i: usize,
    /// Tile column, `0 ≤ j < q`.
    pub j: usize,
}

impl TileRef {
    /// Convenience constructor.
    #[inline]
    pub const fn new(i: usize, j: usize) -> Self {
        TileRef { i, j }
    }
}

/// An `m × n` matrix stored as a grid of `p × q` square tiles of order `nb`.
///
/// `m` and `n` must be multiples of `nb`; the paper (and PLASMA) always work
/// with full tiles and so do we. Use [`TiledMatrix::from_dense_padded`] when
/// the original dimensions are not multiples of the tile size.
#[derive(Clone, PartialEq, Debug)]
pub struct TiledMatrix<T: Scalar> {
    p: usize,
    q: usize,
    nb: usize,
    tiles: Vec<Matrix<T>>,
}

/// Writes tile `(ti, tj)` of the zero-padded tiling of `a` into `tile`,
/// whose order is the tile size `nb`: the entries of `a` the tile covers,
/// and zeros where it overhangs `a` — one tile of
/// [`TiledMatrix::fill_from_dense_padded`], for callers that keep their
/// tiles elsewhere (e.g. one lock per tile). Each tile column is its valid
/// rows as one slice copy, then zeros.
pub fn fill_tile_padded<T: Scalar>(tile: &mut Matrix<T>, a: &Matrix<T>, ti: usize, tj: usize) {
    let nb = tile.rows();
    let rows = nb.min(a.rows().saturating_sub(ti * nb));
    let cols = nb.min(a.cols().saturating_sub(tj * nb));
    for rj in 0..nb {
        let dst = tile.col_mut(rj);
        let valid = if rj < cols { rows } else { 0 };
        if valid > 0 {
            dst[..valid].copy_from_slice(&a.col(tj * nb + rj)[ti * nb..][..valid]);
        }
        dst[valid..].fill(T::ZERO);
    }
}

impl<T: Scalar> TiledMatrix<T> {
    /// Creates a zero tiled matrix with `p × q` tiles of order `nb`.
    pub fn zeros(p: usize, q: usize, nb: usize) -> Self {
        assert!(nb > 0, "tile size must be positive");
        let tiles = (0..p * q).map(|_| Matrix::zeros(nb, nb)).collect();
        TiledMatrix { p, q, nb, tiles }
    }

    /// Converts a dense matrix whose dimensions are exact multiples of `nb`.
    ///
    /// # Panics
    /// Panics if `a.rows()` or `a.cols()` is not a multiple of `nb`.
    pub fn from_dense(a: &Matrix<T>, nb: usize) -> Self {
        assert!(nb > 0, "tile size must be positive");
        assert_eq!(
            a.rows() % nb,
            0,
            "row count {} not a multiple of nb={}",
            a.rows(),
            nb
        );
        assert_eq!(
            a.cols() % nb,
            0,
            "column count {} not a multiple of nb={}",
            a.cols(),
            nb
        );
        let p = a.rows() / nb;
        let q = a.cols() / nb;
        let mut t = TiledMatrix::zeros(p, q, nb);
        for j in 0..q {
            for i in 0..p {
                let tile = t.tile_mut(i, j);
                tile.copy_block(0, 0, a, i * nb, j * nb, nb, nb);
            }
        }
        t
    }

    /// Converts a dense matrix of arbitrary dimensions by zero-padding the
    /// last tile row/column up to the next multiple of `nb`.
    ///
    /// The logical (unpadded) dimensions are *not* remembered; callers that
    /// need them (e.g. the least-squares driver) keep track of `m` and `n`
    /// themselves.
    pub fn from_dense_padded(a: &Matrix<T>, nb: usize) -> Self {
        assert!(nb > 0, "tile size must be positive");
        let (p, q) = (a.rows().div_ceil(nb), a.cols().div_ceil(nb));
        let mut t = TiledMatrix::zeros(p.max(1), q.max(1), nb);
        t.fill_from_dense_padded(a);
        t
    }

    /// Refills this tiled matrix **in place** from a dense matrix, zeroing
    /// the padding — the allocation-free counterpart of
    /// [`TiledMatrix::from_dense_padded`] for callers that stream many
    /// matrices of one shape through a single tile buffer (e.g. the
    /// in-place factorization path of the runtime's `QrContext`).
    ///
    /// # Panics
    /// Panics if the dense matrix does not pad to this grid, i.e. unless
    /// `p = ⌈a.rows()/nb⌉` and `q = ⌈a.cols()/nb⌉` (with the same one-tile
    /// minimum as `from_dense_padded`).
    pub fn fill_from_dense_padded(&mut self, a: &Matrix<T>) {
        let nb = self.nb;
        let (p, q) = (a.rows().div_ceil(nb).max(1), a.cols().div_ceil(nb).max(1));
        assert!(
            (p, q) == (self.p, self.q),
            "a {} × {} matrix pads to a {p} × {q} grid of nb = {nb} tiles, \
             but this tiled matrix is {} × {}",
            a.rows(),
            a.cols(),
            self.p,
            self.q
        );
        for tj in 0..self.q {
            for ti in 0..self.p {
                fill_tile_padded(self.tile_mut(ti, tj), a, ti, tj);
            }
        }
    }

    /// Reassembles the dense `(p·nb) × (q·nb)` matrix.
    pub fn to_dense(&self) -> Matrix<T> {
        let mut a = Matrix::zeros(self.p * self.nb, self.q * self.nb);
        for j in 0..self.q {
            for i in 0..self.p {
                a.copy_block(
                    i * self.nb,
                    j * self.nb,
                    self.tile(i, j),
                    0,
                    0,
                    self.nb,
                    self.nb,
                );
            }
        }
        a
    }

    /// Number of tile rows `p`.
    #[inline]
    pub fn tile_rows(&self) -> usize {
        self.p
    }

    /// Number of tile columns `q`.
    #[inline]
    pub fn tile_cols(&self) -> usize {
        self.q
    }

    /// Tile order `nb`.
    #[inline]
    pub fn tile_size(&self) -> usize {
        self.nb
    }

    /// Total rows `p · nb` of the padded dense matrix.
    #[inline]
    pub fn rows(&self) -> usize {
        self.p * self.nb
    }

    /// Total columns `q · nb` of the padded dense matrix.
    #[inline]
    pub fn cols(&self) -> usize {
        self.q * self.nb
    }

    /// Immutable access to tile `(i, j)`.
    #[inline]
    pub fn tile(&self, i: usize, j: usize) -> &Matrix<T> {
        assert!(
            i < self.p && j < self.q,
            "tile ({i},{j}) out of bounds for {}x{} tiles",
            self.p,
            self.q
        );
        &self.tiles[j * self.p + i]
    }

    /// Mutable access to tile `(i, j)`.
    #[inline]
    pub fn tile_mut(&mut self, i: usize, j: usize) -> &mut Matrix<T> {
        assert!(
            i < self.p && j < self.q,
            "tile ({i},{j}) out of bounds for {}x{} tiles",
            self.p,
            self.q
        );
        &mut self.tiles[j * self.p + i]
    }

    /// Mutable access to two *distinct* tiles at once, in the order
    /// requested. Used by the runtime's update kernels (TSMQR/TTMQR), which
    /// rewrite a pivot-row tile and an eliminated-row tile in one call
    /// without cloning either.
    ///
    /// # Panics
    /// Panics if the two coordinates are equal or out of bounds.
    pub fn tile_pair_mut(
        &mut self,
        (i1, j1): (usize, usize),
        (i2, j2): (usize, usize),
    ) -> (&mut Matrix<T>, &mut Matrix<T>) {
        assert!(i1 < self.p && j1 < self.q, "tile ({i1},{j1}) out of bounds");
        assert!(i2 < self.p && j2 < self.q, "tile ({i2},{j2}) out of bounds");
        let a = j1 * self.p + i1;
        let b = j2 * self.p + i2;
        assert_ne!(a, b, "tile_pair_mut requires distinct tiles");
        if a < b {
            let (lo, hi) = self.tiles.split_at_mut(b);
            (&mut lo[a], &mut hi[0])
        } else {
            let (lo, hi) = self.tiles.split_at_mut(a);
            (&mut hi[0], &mut lo[b])
        }
    }

    /// Replaces tile `(i, j)` wholesale.
    pub fn set_tile(&mut self, i: usize, j: usize, tile: Matrix<T>) {
        assert_eq!(tile.shape(), (self.nb, self.nb), "tile shape mismatch");
        *self.tile_mut(i, j) = tile;
    }

    /// Consumes the tiled matrix and returns the flat tile vector in
    /// tile-column-major order, together with `(p, q, nb)`. The runtime uses
    /// this to wrap each tile in its own lock.
    pub fn into_tiles(self) -> (Vec<Matrix<T>>, usize, usize, usize) {
        (self.tiles, self.p, self.q, self.nb)
    }

    /// Rebuilds a tiled matrix from a flat tile vector produced by
    /// [`TiledMatrix::into_tiles`].
    pub fn from_tiles(tiles: Vec<Matrix<T>>, p: usize, q: usize, nb: usize) -> Self {
        assert_eq!(tiles.len(), p * q, "tile count mismatch");
        for t in &tiles {
            assert_eq!(t.shape(), (nb, nb), "tile shape mismatch");
        }
        TiledMatrix { p, q, nb, tiles }
    }

    /// Element access through the tile structure (mainly for tests).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.tile(i / self.nb, j / self.nb)
            .get(i % self.nb, j % self.nb)
    }

    /// Element update through the tile structure (mainly for tests).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        let nb = self.nb;
        self.tile_mut(i / nb, j / nb).set(i % nb, j % nb, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{counting_matrix, random_matrix};

    #[test]
    fn dense_roundtrip_exact_multiple() {
        let a = counting_matrix::<f64>(8, 6);
        let t = TiledMatrix::from_dense(&a, 2);
        assert_eq!(t.tile_rows(), 4);
        assert_eq!(t.tile_cols(), 3);
        assert_eq!(t.tile_size(), 2);
        assert_eq!(t.to_dense(), a);
    }

    #[test]
    fn tiles_hold_the_right_blocks() {
        let a = counting_matrix::<f64>(4, 4);
        let t = TiledMatrix::from_dense(&a, 2);
        assert_eq!(t.tile(1, 0).get(0, 0), a.get(2, 0));
        assert_eq!(t.tile(0, 1).get(1, 1), a.get(1, 3));
        assert_eq!(t.get(3, 3), a.get(3, 3));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_dense_rejects_non_multiples() {
        let a = counting_matrix::<f64>(5, 4);
        let _ = TiledMatrix::from_dense(&a, 2);
    }

    #[test]
    fn padded_conversion_zero_fills() {
        let a = counting_matrix::<f64>(5, 3);
        let t = TiledMatrix::from_dense_padded(&a, 4);
        assert_eq!(t.tile_rows(), 2);
        assert_eq!(t.tile_cols(), 1);
        let d = t.to_dense();
        assert_eq!(d.shape(), (8, 4));
        // original data preserved
        for i in 0..5 {
            for j in 0..3 {
                assert_eq!(d.get(i, j), a.get(i, j));
            }
        }
        // padding is zero
        assert_eq!(d.get(7, 3), 0.0);
        assert_eq!(d.get(5, 0), 0.0);
    }

    #[test]
    fn fill_from_dense_padded_matches_the_allocating_constructor() {
        let a = counting_matrix::<f64>(5, 3);
        let fresh = TiledMatrix::from_dense_padded(&a, 4);
        // Start from a dirty buffer of the right grid: every element set.
        let mut buf = TiledMatrix::<f64>::zeros(2, 1, 4);
        for i in 0..8 {
            for j in 0..4 {
                buf.set(i, j, -7.0);
            }
        }
        buf.fill_from_dense_padded(&a);
        assert_eq!(buf, fresh, "refill must also clear the padding");
        // Refilling with different values reuses the same storage.
        let b = random_matrix::<f64>(5, 3, 9);
        buf.fill_from_dense_padded(&b);
        assert_eq!(buf, TiledMatrix::from_dense_padded(&b, 4));
    }

    #[test]
    #[should_panic(expected = "pads to")]
    fn fill_from_dense_padded_rejects_wrong_grids() {
        let a = counting_matrix::<f64>(9, 3);
        let mut buf = TiledMatrix::<f64>::zeros(2, 1, 4);
        buf.fill_from_dense_padded(&a);
    }

    #[test]
    fn set_tile_and_mutation_roundtrip() {
        let mut t = TiledMatrix::<f64>::zeros(2, 2, 3);
        let block = counting_matrix::<f64>(3, 3);
        t.set_tile(1, 1, block.clone());
        assert_eq!(t.tile(1, 1), &block);
        t.set(0, 0, 9.0);
        assert_eq!(t.get(0, 0), 9.0);
        assert_eq!(t.tile(0, 0).get(0, 0), 9.0);
    }

    #[test]
    fn into_tiles_from_tiles_roundtrip() {
        let a = random_matrix::<f64>(6, 4, 11);
        let t = TiledMatrix::from_dense(&a, 2);
        let copy = t.clone();
        let (tiles, p, q, nb) = t.into_tiles();
        assert_eq!(tiles.len(), p * q);
        let rebuilt = TiledMatrix::from_tiles(tiles, p, q, nb);
        assert_eq!(rebuilt, copy);
        assert_eq!(rebuilt.to_dense(), a);
    }

    #[test]
    fn tile_pair_mut_returns_distinct_tiles_in_request_order() {
        let a = counting_matrix::<f64>(6, 4);
        let mut t = TiledMatrix::from_dense(&a, 2);
        let (x, y) = t.tile_pair_mut((0, 1), (2, 0));
        x.set(0, 0, -1.0);
        y.set(1, 1, -2.0);
        assert_eq!(t.tile(0, 1).get(0, 0), -1.0);
        assert_eq!(t.tile(2, 0).get(1, 1), -2.0);
        // reversed order too
        let (x, y) = t.tile_pair_mut((2, 0), (0, 1));
        assert_eq!(y.get(0, 0), -1.0);
        assert_eq!(x.get(1, 1), -2.0);
    }

    #[test]
    #[should_panic(expected = "distinct tiles")]
    fn tile_pair_mut_rejects_aliasing() {
        let mut t = TiledMatrix::<f64>::zeros(2, 2, 2);
        let _ = t.tile_pair_mut((1, 1), (1, 1));
    }

    #[test]
    fn tile_ref_ordering() {
        let a = TileRef::new(0, 1);
        let b = TileRef::new(1, 0);
        assert!(a < b);
        assert_eq!(TileRef::new(2, 3).i, 2);
        assert_eq!(TileRef::new(2, 3).j, 3);
    }
}
