//! Register-tiled micro-BLAS backend for the tile kernels.
//!
//! This is the innermost of the crate's blocking levels (tile `nb` → inner
//! panel `ib` → register block, see the crate docs). Every product of the
//! block-reflector primitive — `W += V_sᴴ·C`, `W₂ := op(T_s)·W`,
//! `C −= V_s·W₂`, structured operands included — is one call of the
//! [`gemm_into`] entry point, which follows the classic GotoBLAS structure
//! specialized to tile-sized operands (`m, n, k ≤ nb`):
//!
//! 1. both operands are packed once per call: `B` into `NR`-interleaved
//!    column slabs (`bpack`) and `op(A)` into `MR`-interleaved row slabs
//!    (`apack`, conjugation applied during packing), so the microkernel
//!    streams both with unit stride. `MR × NR` is the register block of the
//!    *active SIMD level* ([`crate::simd::block_shape`]), so the pack layout
//!    is a property of the level as well. Each slab is written front to
//!    back, in order of `k` step: where a step gathers one entry from each
//!    of `NR` (or `MR`) source columns — every `B` slab, and `op(A)` under
//!    [`AMode::ConjTrans`] — four consecutive entries of every source column
//!    are read side by side and stored as four contiguous steps. Written
//!    column by column instead, consecutive stores land `NR` slots apart,
//!    and the block-reflector products, whose `m` is only the panel width
//!    `ib`, cannot amortise that: packing took 33–38% of the UNMQR/TSMQR/
//!    TTMQR time at `nb = 128, ib = 32` that way and takes 25–29% now
//!    (46–50% → 37–46% at `nb = 64, ib = 16`; 2-vCPU AVX-512 Xeon,
//!    `Instant` probes around the packers). Packing only moves bytes — a
//!    copy, a zero, a one or a conjugate per slot — so the order it writes
//!    them in cannot change a result bit;
//! 2. packing is also where operand **structure** lives and dies: a column
//!    shorter than the nominal dimension is padded with zeros (triangular
//!    `T` factors, upper-trapezoidal TT reflectors), and an
//!    [`AForm::UnitLower`] operand gets its zeros and unit diagonal written
//!    into the slab while the storage they replace is never read (GEQRT
//!    reflectors share their tile with `R`). The compute loop below sees
//!    dense slabs only;
//! 3. the `j` loop is blocked into cache-sized column chunks: one chunk of
//!    `bpack` stays resident while every row slab of `apack` streams past
//!    it, so the per-chunk working set is a few hundred kilobytes no matter
//!    how large the operands are — the pack buffers live in the workspace
//!    arena and are reused by every call, which keeps them hot in L2;
//! 4. the microkernel ([`crate::simd`]) multiplies one `MR × k` A-slab by
//!    the valid columns of one `k × NR` B-slab with the whole block of `C`
//!    in accumulator registers — independent dependency chains interleaved
//!    over the `k` loop, enough of them that a product only `ib` deep runs
//!    at the steady-state rate — and writes `C ±= acc` from the registers.
//!    Everything is std-only `core::arch`, per the offline-buildability
//!    constraint.
//!
//! Operands are supplied as *column accessor closures* (`Fn(usize) -> &[T]`)
//! rather than matrix references: the same code path then serves dense tiles,
//! column windows obtained from `split_at_mut`, staging panels with a foreign
//! leading dimension, and the columns of a triangular tile cut at their
//! diagonal. The destination is a raw column-major buffer plus a
//! column-offset map, so a window of a tile can be updated in place.
//!
//! The pack buffers are caller-provided (the kernels use the preallocated
//! [`crate::workspace::Workspace`] arena), so none of this allocates.

use tileqr_matrix::{Matrix, Scalar};

use crate::simd::{self, BlockShape, Microkernel, NR_MAX};

/// `len` rounded up to whole register blocks at the coarsest interleave any
/// level uses: the pack buffers outlive a change of the active level, so
/// they are sized for every shape at once.
fn padded<T: Scalar>(len: usize, interleave: impl Fn(BlockShape) -> usize) -> usize {
    simd::ALL_LEVELS
        .iter()
        .map(|&l| len.next_multiple_of(interleave(simd::block_shape::<T>(l))))
        .max()
        .unwrap_or(len)
}

/// Length of the A pack buffer that serves an `m × k` `op(A)` operand of
/// `T` at every SIMD level.
pub fn apack_len<T: Scalar>(m: usize, k: usize) -> usize {
    padded::<T>(m, |shape| shape.mr) * k
}

/// Per-chunk budget for the resident `bpack` columns: chosen so one chunk
/// plus one `apack` slab plus the touched `C` window stay far below L2.
const CHUNK_BYTES: usize = 96 * 1024;

/// Length of the B pack buffer that serves a `k × n` operand of `T` at
/// every SIMD level.
pub fn bpack_len<T: Scalar>(k: usize, n: usize) -> usize {
    padded::<T>(n, |shape| shape.nr) * k
}

/// How the `A` operand enters the product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AMode {
    /// `op(A)(i, p) = acol(p)[i]` — `A` stored `m × k`, used as is.
    NoTrans,
    /// `op(A)(i, p) = conj(acol(i)[p])` — `A` stored `k × m`, used as `Aᴴ`.
    ConjTrans,
}

/// Structure of the stored `A` operand. It exists only while packing: the
/// microkernel sees a dense slab either way.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AForm {
    /// Every stored entry is read; a column shorter than the nominal
    /// dimension ends in zeros. This is how upper-triangular and
    /// upper-trapezoidal operands (`T` factors, TT reflectors) are given.
    Dense,
    /// Stored column `i` is zero above row `i`, **one** at row `i`, and
    /// read from storage only below it — a GEQRT reflector panel, whose
    /// storage on and above the diagonal holds `R` and must be ignored.
    UnitLower,
}

/// Packs `n` stored vectors into `L`-interleaved slabs — `B` into its
/// column slabs, and `op(A)` under [`AMode::ConjTrans`] into its row slabs:
/// vector `v` becomes slot `v % L` of slab `v / L`, which occupies
/// `buf[(v / L)·k·L ..][.. k·L]` with its entry `p` at `p·L + v % L`, stored
/// as `f(col(v)[p])`. Entries a vector does not store are zero; with `unit`
/// vector `v` is implied zero above entry `v` and one at it (an
/// [`AForm::UnitLower`] operand), and the slots past `n` are zero (in a `B`
/// slab the microkernel never reads them).
///
/// Each slab is written front to back: the steps `p` that every vector of
/// the slab stores (the dense body) four contiguous `L`-wide steps at a
/// time, reading four consecutive entries of each of the `L` sources. The
/// rest of the slab is zero-filled whole, then each vector's remaining
/// stored entries and unit diagonal go in — ragged tails, the triangles of
/// unit-lower and triangular operands and the last few steps of the body
/// are all that is written strided.
fn pack_interleaved<'a, T: Scalar + 'a, const L: usize>(
    k: usize,
    n: usize,
    unit: bool,
    col: &impl Fn(usize) -> &'a [T],
    f: impl Fn(T) -> T,
    buf: &mut [T],
) {
    for (s, slab) in buf.chunks_exact_mut(k * L).take(n.div_ceil(L)).enumerate() {
        let (i0, valid) = (s * L, L.min(n - s * L));
        // Vector `r` stores entries `lo(r) .. src[r].len()`.
        let src: [&[T]; L] = std::array::from_fn(|r| if r < valid { col(i0 + r) } else { &[] });
        let src = src.map(|s| &s[..s.len().min(k)]);
        let lo = |r: usize| if unit { (i0 + r + 1).min(k) } else { 0 };
        // The dense body, in whole groups of four steps: four consecutive
        // entries of every source, stored as four contiguous steps.
        let (b0, shortest) = (lo(valid - 1), src.iter().map(|s| s.len()).min());
        let b1 = b0 + shortest.unwrap_or(0).saturating_sub(b0) / 4 * 4;
        let body = src.map(|s| s.get(b0..b1).unwrap_or_default());
        for (q, steps) in slab[b0 * L..b1 * L].chunks_exact_mut(4 * L).enumerate() {
            let quads: [&[T; 4]; L] =
                std::array::from_fn(|r| body[r][4 * q..][..4].try_into().expect("four entries"));
            for (t, step) in steps.chunks_exact_mut(L).enumerate() {
                for (d, quad) in step.iter_mut().zip(&quads) {
                    *d = f(quad[t]);
                }
            }
        }
        slab[..b0 * L].fill(T::ZERO);
        slab[b1 * L..].fill(T::ZERO);
        for (r, s) in src.iter().enumerate() {
            for part in [lo(r)..s.len().min(b0), lo(r).max(b1)..s.len()] {
                let steps = slab[part.start * L..].chunks_exact_mut(L);
                for (step, &x) in steps.zip(s.get(part).unwrap_or_default()) {
                    step[r] = f(x);
                }
            }
            if unit && r < valid && i0 + r < k {
                slab[(i0 + r) * L + r] = T::ONE;
            }
        }
    }
}

/// Packs the whole `m × k` `op(A)` operand into `MR`-interleaved row slabs:
/// slab `is` occupies `ap[is·k·MR ..][.. k·MR]` with element `(r, p)` at
/// `p·MR + r`. Entries the storage does not hold — short columns, the rows
/// of the last slab beyond `m`, the implied part of an
/// [`AForm::UnitLower`] operand — are materialised here, so the microkernel
/// always runs full-height blocks.
fn pack_a<'a, T: Scalar + 'a, const MR: usize>(
    k: usize,
    m: usize,
    amode: AMode,
    form: AForm,
    acol: &impl Fn(usize) -> &'a [T],
    ap: &mut [T],
) {
    let unit = form == AForm::UnitLower;
    match amode {
        AMode::NoTrans => {
            for (is, slab) in ap.chunks_exact_mut(k * MR).take(m.div_ceil(MR)).enumerate() {
                let (i0, i1) = (is * MR, m.min((is + 1) * MR));
                for (p, dst) in slab.chunks_exact_mut(MR).enumerate() {
                    let src = acol(p);
                    // Stored rows of this column that fall in the slab.
                    let lo = if unit { (p + 1).max(i0) } else { i0 };
                    let hi = src.len().min(i1);
                    if lo == i0 && hi == i0 + MR {
                        // The bulk: a whole block row, a fixed-size copy.
                        dst.copy_from_slice(&src[i0..i0 + MR]);
                        continue;
                    }
                    dst.fill(T::ZERO);
                    if lo < hi {
                        dst[lo - i0..hi - i0].copy_from_slice(&src[lo..hi]);
                    }
                    if unit && (i0..i1).contains(&p) {
                        dst[p - i0] = T::ONE;
                    }
                }
            }
        }
        // Stored column `i` becomes packed row `i`.
        AMode::ConjTrans => pack_interleaved::<T, MR>(k, m, unit, acol, T::conj, ap),
    }
}

/// `C(0..m, 0..n) ±= op(A) · B` through the register-tiled microkernel.
///
/// * `acol(p)` yields column `p` of the stored `A` (see [`AMode`] for which
///   index runs over columns, [`AForm`] for which of its entries count);
///   `bcol(j)` yields column `j` of `B`. Columns may be shorter than the
///   nominal dimension — missing entries count as zero, which is how
///   triangular/trapezoidal operands are expressed.
/// * The destination is `c`, a column-major buffer in which column `j` of
///   the updated block starts at offset `coff(j)` (rows contiguous).
/// * `sub` selects `C -= op(A)·B` (the reflector applications) over
///   `C += op(A)·B` (the staging accumulations).
/// * `apack`/`bpack` are scratch of at least [`apack_len`]`(m, k)` /
///   [`bpack_len`]`(k, n)` — preallocated in the kernel workspace, so the
///   call performs no allocation.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS gemm surface
pub fn gemm_into<'a, 'b, T: Scalar + 'a + 'b>(
    m: usize,
    n: usize,
    k: usize,
    amode: AMode,
    form: AForm,
    acol: impl Fn(usize) -> &'a [T],
    bcol: impl Fn(usize) -> &'b [T],
    c: &mut [T],
    coff: impl Fn(usize) -> usize,
    sub: bool,
    apack: &mut [T],
    bpack: &mut [T],
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Shape and ISA kernel of the active level, resolved once per product
    // ([`simd::active`] caches the detection): the packers below lay the
    // slabs out for exactly the block the kernel consumes.
    let kernel = Microkernel::<T>::active();
    let BlockShape { mr, nr } = kernel.shape();
    let n_islabs = m.div_ceil(mr);
    let n_jslabs = n.div_ceil(nr);
    assert!(apack.len() >= n_islabs * mr * k, "A pack buffer too small");
    assert!(bpack.len() >= n_jslabs * nr * k, "B pack buffer too small");
    // The packers are instantiated per interleave, so their inner loops
    // run on compile-time strides.
    match nr {
        4 => pack_interleaved::<T, 4>(k, n, false, &bcol, |v| v, bpack),
        8 => pack_interleaved::<T, 8>(k, n, false, &bcol, |v| v, bpack),
        _ => unreachable!("no level has a register block {nr} columns wide"),
    }
    match mr {
        4 => pack_a::<T, 4>(k, m, amode, form, &acol, apack),
        8 => pack_a::<T, 8>(k, m, amode, form, &acol, apack),
        16 => pack_a::<T, 16>(k, m, amode, form, &acol, apack),
        _ => unreachable!("no level has a register block {mr} rows high"),
    }
    // Blocked sweep: a cache-resident chunk of B column slabs is reused by
    // every A row slab before moving on (each output column is computed
    // independently, so the chunking does not change the arithmetic).
    let slab_bytes = k * nr * std::mem::size_of::<T>();
    let jc = (CHUNK_BYTES / slab_bytes.max(1)).max(1);
    let mut coffs = [0usize; NR_MAX];
    let mut js0 = 0;
    while js0 < n_jslabs {
        let js1 = (js0 + jc).min(n_jslabs);
        for is in 0..n_islabs {
            let i0 = is * mr;
            let mr_valid = mr.min(m - i0);
            let aslab = &apack[is * k * mr..(is + 1) * k * mr];
            for js in js0..js1 {
                let j0 = js * nr;
                let nr_valid = nr.min(n - j0);
                for (cc, off) in coffs[..nr_valid].iter_mut().enumerate() {
                    *off = coff(j0 + cc) + i0;
                }
                kernel.run(
                    k,
                    aslab,
                    &bpack[js * k * nr..(js + 1) * k * nr],
                    c,
                    &coffs[..nr_valid],
                    mr_valid,
                    sub,
                );
            }
        }
        js0 = js1;
    }
}

/// Convenience wrapper for whole-matrix products `C ±= op(A)·B` on dense
/// [`Matrix`] operands, allocating its own pack buffers: the body of
/// [`crate::blas::gemm_acc`]. The kernels call [`gemm_into`] with
/// workspace-provided buffers instead.
pub(crate) fn gemm_matrix<T: Scalar>(
    c: &mut Matrix<T>,
    amode: AMode,
    a: &Matrix<T>,
    b: &Matrix<T>,
    sub: bool,
) {
    let (m, k) = match amode {
        AMode::NoTrans => (a.rows(), a.cols()),
        AMode::ConjTrans => (a.cols(), a.rows()),
    };
    let n = b.cols();
    assert_eq!(b.rows(), k, "op(A)·B: inner dimensions must agree");
    assert_eq!(c.rows(), m, "op(A)·B: row counts must agree");
    assert_eq!(c.cols(), n, "op(A)·B: column counts must agree");
    let mut apack = vec![T::ZERO; apack_len::<T>(m, k)];
    let mut bpack = vec![T::ZERO; bpack_len::<T>(k, n)];
    let ld = c.rows();
    gemm_into(
        m,
        n,
        k,
        amode,
        AForm::Dense,
        |p| a.col(p),
        |j| b.col(j),
        c.as_mut_slice(),
        |j| j * ld,
        sub,
        &mut apack,
        &mut bpack,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tileqr_matrix::generate::{random_matrix, random_vector, RandomScalar};
    use tileqr_matrix::rng::Rng;
    use tileqr_matrix::Complex64;

    /// The per-element packers the interleaving packer replaced, kept as
    /// the reference its slabs are compared against byte for byte.
    mod reference {
        use super::*;

        /// Packs a `k × n` operand `B` into `NR`-interleaved column slabs:
        /// slab `js` occupies `bp[js·k·NR ..][.. k·NR]` with element `(p, c)` at
        /// `p·NR + c`. Columns shorter than `k` are zero-padded; the columns of the
        /// last slab beyond `n` are left as they are — the microkernel computes
        /// valid columns only and never reads them.
        pub fn pack_b<'a, T: Scalar + 'a, const NR: usize>(
            k: usize,
            n: usize,
            bcol: &impl Fn(usize) -> &'a [T],
            bp: &mut [T],
        ) {
            for (js, slab) in bp.chunks_exact_mut(k * NR).take(n.div_ceil(NR)).enumerate() {
                let j0 = js * NR;
                for c in 0..NR.min(n - j0) {
                    let src = bcol(j0 + c);
                    let src = &src[..src.len().min(k)];
                    let mut rows = slab.chunks_exact_mut(NR);
                    // `src` leads the zip: an exhausted first iterator ends it
                    // without taking (and so skipping the zero of) another row.
                    for (&v, row) in src.iter().zip(&mut rows) {
                        row[c] = v;
                    }
                    for row in rows {
                        row[c] = T::ZERO;
                    }
                }
            }
        }

        /// Packs the whole `m × k` `op(A)` operand into `MR`-interleaved row slabs:
        /// slab `is` occupies `ap[is·k·MR ..][.. k·MR]` with element `(r, p)` at
        /// `p·MR + r`. Entries the storage does not hold — short columns, the rows
        /// of the last slab beyond `m`, the implied part of an
        /// [`AForm::UnitLower`] operand — are materialised here, so the microkernel
        /// always runs full-height blocks.
        pub fn pack_a<'a, T: Scalar + 'a, const MR: usize>(
            k: usize,
            m: usize,
            amode: AMode,
            form: AForm,
            acol: &impl Fn(usize) -> &'a [T],
            ap: &mut [T],
        ) {
            let unit = form == AForm::UnitLower;
            let n_slabs = m.div_ceil(MR);
            match amode {
                AMode::NoTrans => {
                    for (is, slab) in ap.chunks_exact_mut(k * MR).take(n_slabs).enumerate() {
                        let (i0, i1) = (is * MR, m.min((is + 1) * MR));
                        for (p, dst) in slab.chunks_exact_mut(MR).enumerate() {
                            let src = acol(p);
                            // Stored rows of this column that fall in the slab.
                            let lo = if unit { (p + 1).max(i0) } else { i0 };
                            let hi = src.len().min(i1);
                            if lo == i0 && hi == i0 + MR {
                                // The bulk: a whole block row, a fixed-size copy.
                                dst.copy_from_slice(&src[i0..i0 + MR]);
                                continue;
                            }
                            dst.fill(T::ZERO);
                            if lo < hi {
                                dst[lo - i0..hi - i0].copy_from_slice(&src[lo..hi]);
                            }
                            if unit && (i0..i1).contains(&p) {
                                dst[p - i0] = T::ONE;
                            }
                        }
                    }
                }
                // Stored column `i` becomes packed row `i`: `lo` zeros, the stored
                // entries from `lo` on, then zeros; all zeros beyond `m`.
                AMode::ConjTrans => {
                    for (is, slab) in ap.chunks_exact_mut(k * MR).take(n_slabs).enumerate() {
                        for r in 0..MR {
                            let i = is * MR + r;
                            let (src, unit) = if i < m {
                                (acol(i), unit)
                            } else {
                                (&[][..], false)
                            };
                            let lo = if unit { (i + 1).min(k) } else { 0 };
                            let stored = src.get(lo..src.len().min(k)).unwrap_or_default();
                            let mut steps = slab.chunks_exact_mut(MR);
                            for step in (&mut steps).take(lo) {
                                step[r] = T::ZERO;
                            }
                            for (&v, step) in stored.iter().zip(&mut steps) {
                                step[r] = v.conj();
                            }
                            for step in steps {
                                step[r] = T::ZERO;
                            }
                            if unit && i < k {
                                slab[i * MR + r] = T::ONE;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The bit pattern of a scalar, so slabs compare byte for byte.
    trait Bits: Scalar {
        fn bits(self) -> [u64; 2];
    }

    impl Bits for f64 {
        fn bits(self) -> [u64; 2] {
            [self.to_bits(), 0]
        }
    }

    impl Bits for Complex64 {
        fn bits(self) -> [u64; 2] {
            [self.re.to_bits(), self.im.to_bits()]
        }
    }

    /// `count` random stored vectors for a `k`-deep operand, in one of
    /// three profiles: all full (some longer than `k`, which the packers
    /// cut), all triangular (`i + 1` entries), or mixed — full, ragged,
    /// triangular or empty, drawn per vector.
    fn stored_vectors<T: RandomScalar>(rng: &mut Rng, count: usize, k: usize) -> Vec<Vec<T>> {
        let profile = rng.next_u64() % 3;
        (0..count)
            .map(|i| {
                let draw = if profile == 2 {
                    rng.next_u64() % 5
                } else {
                    profile
                };
                let len = match draw {
                    0 => k + (rng.next_u64() % 3) as usize,
                    1 => i + 1,
                    2 => (rng.next_u64() % (k as u64 + 1)) as usize,
                    3 => 0,
                    _ => k,
                };
                random_vector(len, rng.next_u64())
            })
            .collect()
    }

    /// Packs one random operand with both the production packer and the
    /// reference into buffers prefilled with different sentinels, so a slot
    /// either one leaves unwritten shows as a mismatch, and compares every
    /// slab slot byte for byte — except the columns of the last `B` slab
    /// beyond `n`, which the reference leaves as they were.
    fn check_packers<T: RandomScalar + Bits, const L: usize>(rng: &mut Rng) {
        let k = 1 + (rng.next_u64() % 45) as usize;
        let count = 1 + (rng.next_u64() % 45) as usize;
        let cols = stored_vectors::<T>(rng, count, k);
        let col = |i: usize| &cols[i][..];
        let sentinels = |len| (vec![T::from_real(-3.5); len], vec![T::from_real(7.25); len]);
        let same = |got: &[T], want: &[T], slots: usize, what: &str| {
            for (s, (g, w)) in got.chunks(L).zip(want.chunks(L)).enumerate() {
                for c in 0..slots.min(L) {
                    assert_eq!(
                        g[c].bits(),
                        w[c].bits(),
                        "{what} of {}, L = {L}, k = {k}, count = {count}: step {s}, slot {c}",
                        std::any::type_name::<T>()
                    );
                }
            }
        };
        for amode in [AMode::NoTrans, AMode::ConjTrans] {
            for form in [AForm::Dense, AForm::UnitLower] {
                // NoTrans reads `k` columns of `count` rows; ConjTrans
                // `count` columns of `k` rows.
                let (k, m, cols) = match amode {
                    AMode::NoTrans => (count, k, stored_vectors::<T>(rng, count, k)),
                    AMode::ConjTrans => (k, count, cols.clone()),
                };
                let col = |i: usize| &cols[i][..];
                let (mut got, mut want) = sentinels(m.div_ceil(L) * L * k);
                pack_a::<T, L>(k, m, amode, form, &col, &mut got);
                reference::pack_a::<T, L>(k, m, amode, form, &col, &mut want);
                same(&got, &want, L, &format!("pack_a {amode:?} {form:?}"));
            }
        }
        let (mut got, mut want) = sentinels(count.div_ceil(L) * L * k);
        pack_interleaved::<T, L>(k, count, false, &col, |v| v, &mut got);
        reference::pack_b::<T, L>(k, count, &col, &mut want);
        let slabs = got.chunks(k * L).zip(want.chunks(k * L));
        for (js, (g, w)) in slabs.enumerate() {
            same(g, w, count - js * L, "pack_b");
        }
    }

    #[test]
    fn packers_match_the_per_element_reference_bytewise() {
        let mut rng = Rng::seed_from_u64(0x9ac3);
        for _ in 0..40 {
            check_packers::<f64, 4>(&mut rng);
            check_packers::<f64, 8>(&mut rng);
            check_packers::<f64, 16>(&mut rng);
            check_packers::<Complex64, 4>(&mut rng);
            check_packers::<Complex64, 8>(&mut rng);
            check_packers::<Complex64, 16>(&mut rng);
        }
    }

    fn naive<T: Scalar>(
        m: usize,
        n: usize,
        k: usize,
        amode: AMode,
        a: &Matrix<T>,
        b: &Matrix<T>,
    ) -> Matrix<T> {
        Matrix::from_fn(m, n, |i, j| {
            let mut acc = T::ZERO;
            for p in 0..k {
                let av = match amode {
                    AMode::NoTrans => a.get(i, p),
                    AMode::ConjTrans => a.get(p, i).conj(),
                };
                acc += av * b.get(p, j);
            }
            acc
        })
    }

    fn check<T: tileqr_matrix::generate::RandomScalar>(m: usize, n: usize, k: usize, seed: u64) {
        for amode in [AMode::NoTrans, AMode::ConjTrans] {
            let a: Matrix<T> = match amode {
                AMode::NoTrans => random_matrix(m, k, seed),
                AMode::ConjTrans => random_matrix(k, m, seed),
            };
            let b: Matrix<T> = random_matrix(k, n, seed + 1);
            let expected = naive(m, n, k, amode, &a, &b);
            for sub in [false, true] {
                let c0: Matrix<T> = random_matrix(m, n, seed + 2);
                let mut c = c0.clone();
                gemm_matrix(&mut c, amode, &a, &b, sub);
                for j in 0..n {
                    for i in 0..m {
                        let want = if sub {
                            c0.get(i, j) - expected.get(i, j)
                        } else {
                            c0.get(i, j) + expected.get(i, j)
                        };
                        let diff = (c.get(i, j) - want).abs();
                        assert!(
                            diff < 1e-12 * (1.0 + want.abs()),
                            "{m}x{n}x{k} {amode:?} sub={sub} mismatch at ({i},{j}): {diff}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_matches_naive_f64_and_complex() {
        // Sweep sizes around the MR/NR register block edges.
        for &(m, n, k) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 4),
            (7, 3, 5),
            (8, 4, 8),
            (9, 5, 7),
            (16, 8, 16),
            (17, 9, 13),
            (23, 11, 19),
            (32, 32, 32),
        ] {
            check::<f64>(m, n, k, 100 + m as u64);
            check::<Complex64>(m, n, k, 200 + m as u64);
        }
    }

    #[test]
    fn short_columns_are_zero_padded() {
        // A trapezoidal A expressed via short columns must behave as if the
        // missing entries were zero.
        let k = 6usize;
        let m = 5usize;
        let n = 3usize;
        let a: Matrix<f64> = random_matrix(k, m, 7);
        let b: Matrix<f64> = random_matrix(k, n, 8);
        // Column i of Aᴴ-mode A truncated to i+1 entries (upper trapezoid).
        let mut c = Matrix::<f64>::zeros(m, n);
        let mut apack = vec![0.0; apack_len::<f64>(m, k)];
        let mut bpack = vec![0.0; bpack_len::<f64>(k, n)];
        let ld = c.rows();
        gemm_into(
            m,
            n,
            k,
            AMode::ConjTrans,
            AForm::Dense,
            |i| &a.col(i)[..i + 1],
            |j| b.col(j),
            c.as_mut_slice(),
            |j| j * ld,
            false,
            &mut apack,
            &mut bpack,
        );
        for j in 0..n {
            for i in 0..m {
                let mut want = 0.0;
                for p in 0..=i {
                    want += a.get(p, i) * b.get(p, j);
                }
                assert!((c.get(i, j) - want).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn destination_offsets_select_arbitrary_columns() {
        // Write the product into every other column of a wider buffer.
        let (m, n, k) = (4usize, 2usize, 3usize);
        let a: Matrix<f64> = random_matrix(m, k, 21);
        let b: Matrix<f64> = random_matrix(k, n, 22);
        let mut buf = vec![0.0; m * 4];
        let mut apack = vec![0.0; apack_len::<f64>(m, k)];
        let mut bpack = vec![0.0; bpack_len::<f64>(k, n)];
        gemm_into(
            m,
            n,
            k,
            AMode::NoTrans,
            AForm::Dense,
            |p| a.col(p),
            |j| b.col(j),
            &mut buf,
            |j| 2 * j * m,
            false,
            &mut apack,
            &mut bpack,
        );
        let expected = a.matmul(&b);
        for j in 0..n {
            for i in 0..m {
                assert!((buf[2 * j * m + i] - expected.get(i, j)).abs() < 1e-13);
                assert_eq!(buf[(2 * j + 1) * m + i], 0.0, "gap columns untouched");
            }
        }
    }

    #[test]
    fn empty_dimensions_are_no_ops() {
        let a: Matrix<f64> = random_matrix(4, 4, 31);
        let b: Matrix<f64> = random_matrix(4, 4, 32);
        let mut c: Matrix<f64> = random_matrix(4, 4, 33);
        let before = c.clone();
        let mut apack = vec![0.0; apack_len::<f64>(4, 4)];
        let mut bpack = vec![0.0; bpack_len::<f64>(4, 4)];
        for (m, n, k) in [(0usize, 4usize, 4usize), (4, 0, 4), (4, 4, 0)] {
            gemm_into(
                m,
                n,
                k,
                AMode::NoTrans,
                AForm::Dense,
                |p| a.col(p),
                |j| b.col(j),
                c.as_mut_slice(),
                |j| j * 4,
                true,
                &mut apack,
                &mut bpack,
            );
        }
        assert_eq!(c, before);
    }
}
