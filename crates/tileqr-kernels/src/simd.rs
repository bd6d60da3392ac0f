//! Portable explicit-SIMD microkernels with runtime ISA dispatch.
//!
//! The register level of the blocking hierarchy (see the crate docs): one
//! register block of `C ±= A·B`, implemented once per instruction set with
//! explicit [`core::arch`] intrinsics (std only, no external dependencies),
//! the best implementation the *running* CPU supports selected once per
//! process — so a portable build, with no `-C target-cpu=native` pin,
//! reaches the machine's kernel peak wherever it lands.
//!
//! # Levels
//!
//! The **shape** of the register block is part of the level: it is sized to
//! the level's register file and FMA pipes, and the packers of
//! [`crate::microblas`] lay their slabs out for it ([`block_shape`]).
//!
//! | [`SimdLevel`] | ISA | f64 block | Complex64 block |
//! |---|---|---|---|
//! | `Scalar` | baseline (any target) | 8 × 4, generic loop | 4 × 4, generic loop |
//! | `Avx2`   | x86-64 AVX2 + FMA     | 8 × 4, 8 `ymm` accumulators   | 4 × 4, 8 `ymm` accumulators |
//! | `Avx512` | x86-64 AVX-512F       | 16 × 8, 16 `zmm` accumulators | 4 × 4, 4–8 `zmm` accumulators |
//!
//! Every other target, aarch64 included, runs the `Scalar` level.
//!
//! The AVX-512 f64 block is `16 × 8` because four `zmm` accumulators (the
//! `8 × 4` it used to share with the other levels) cannot cover the latency
//! of two FMA pipes: on the reference host the isolated kernel runs at
//! ~34 GFLOP/s at `8 × 4` and 43–46 at `16 × 8`, from `k = 32` up — and the
//! `C −= V_s·W₂` product of every block reflector is exactly `k = ib` deep.
//! The AVX2 block stays `8 × 4`: measured on the same host (forced with
//! `TILEQR_SIMD=avx2`) it already runs at that level's FMA peak, and `8 × 6`
//! moved `k = 128` products by ≤ 6% while losing a third on the `ib`-sized
//! ones to its non-power-of-two interleave. `Scalar` and every
//! [`Complex64`] block are unchanged.
//!
//! Only the valid columns of an edge block are computed, and a full-height
//! block is added to (or subtracted from) `C` straight from the accumulator
//! registers inside the `#[target_feature]` kernel. Because every output
//! element's reduction over `k` runs in order from zero, neither the shape
//! nor the edge handling changes results bitwise — only which elements are
//! computed together.
//!
//! # Selection
//!
//! [`active`] resolves the level once (runtime feature detection via
//! `is_x86_feature_detected!`, overridable with the `TILEQR_SIMD`
//! environment variable — `scalar`, `avx2` or `avx512`) and caches it in a process-global atomic, so the six `*_ws`
//! kernels, the session API and batching all inherit the choice with no
//! per-call detection cost. Tests and benchmarks can force a level
//! in-process with [`set_active`].
//!
//! # Numerical contract
//!
//! * With the `fma` cargo feature **off**, the SIMD levels use unfused
//!   multiply + add intrinsics in the exact evaluation order of the scalar
//!   path, so **every level is bitwise identical** to the scalar fallback.
//! * With the `fma` cargo feature **on** (the default), the SIMD levels use
//!   fused multiply-add intrinsics: same reduction order, but products are
//!   no longer rounded before accumulation, so results differ from the
//!   scalar path in low-order bits (the factorization stays backward
//!   stable — it is still ordinary Householder arithmetic). The scalar
//!   fallback itself stays unfused on a generic x86-64 target (see
//!   [`Scalar::mul_acc`]).
//! * The Level-2 operations of the factor kernels' panels (the in-panel
//!   sweep and the `T` build of a TS pair on AVX2 and AVX-512) are never
//!   fused, whatever the feature: they round every product before its sum
//!   in the generic loops' order, so the factor kernels at `ib = nb` give
//!   every level the scalar level's bits in every build.

use std::sync::atomic::{AtomicU8, Ordering};

use tileqr_matrix::{Complex64, Scalar};

/// One instruction-set level of the register-block microkernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum SimdLevel {
    /// Generic scalar loop — compiles on every target, autovectorizes to
    /// whatever the *compile-time* target allows. The portability baseline.
    Scalar = 1,
    /// x86-64 AVX2 + FMA (256-bit `ymm` registers).
    Avx2 = 2,
    /// x86-64 AVX-512F (512-bit `zmm` registers).
    Avx512 = 3,
}

impl SimdLevel {
    /// The canonical lowercase name (`"scalar"`, `"avx2"`, `"avx512"`) —
    /// the values `TILEQR_SIMD` accepts.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Parses a level name (case-insensitive); `None` for unknown names.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "avx2" => Some(SimdLevel::Avx2),
            "avx512" | "avx512f" => Some(SimdLevel::Avx512),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            2 => SimdLevel::Avx2,
            3 => SimdLevel::Avx512,
            _ => SimdLevel::Scalar,
        }
    }
}

/// Best level the running CPU supports (ignores the override and the cache).
pub fn detect() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return SimdLevel::Avx512;
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// Whether the running CPU (and compile target) can execute `level`.
pub fn is_supported(level: SimdLevel) -> bool {
    match level {
        SimdLevel::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => is_x86_feature_detected!("avx512f"),
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// Every level there is, `Scalar` first.
pub(crate) const ALL_LEVELS: [SimdLevel; 3] =
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

/// Every level the running CPU supports, `Scalar` first.
pub fn available_levels() -> Vec<SimdLevel> {
    ALL_LEVELS
        .into_iter()
        .filter(|&l| is_supported(l))
        .collect()
}

/// Resolves the level from an optional override string (the `TILEQR_SIMD`
/// value): a known, supported name wins; anything else — unset, empty,
/// unknown, or a level this CPU cannot run — falls back to [`detect`].
/// Exposed so the resolution rules are unit-testable without touching the
/// process environment.
pub fn resolve(request: Option<&str>) -> SimdLevel {
    if let Some(s) = request {
        if !s.trim().is_empty() {
            match SimdLevel::parse(s) {
                Some(l) if is_supported(l) => return l,
                _ => {
                    eprintln!(
                        "tileqr: ignoring TILEQR_SIMD={s:?} (unknown or unsupported level); \
                         using detected level `{}`",
                        detect().name()
                    );
                }
            }
        }
    }
    detect()
}

/// Cached active level; 0 = not yet resolved. Only ever holds levels that
/// passed [`is_supported`] — the safety argument for calling the
/// `#[target_feature]` kernels below rests on this invariant.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The active microkernel level, resolving and caching it on first use
/// (detection + `TILEQR_SIMD` override). All kernel entry points read this.
#[inline]
pub fn active() -> SimdLevel {
    match ACTIVE.load(Ordering::Relaxed) {
        0 => init_active(),
        v => SimdLevel::from_u8(v),
    }
}

#[cold]
fn init_active() -> SimdLevel {
    let level = resolve(std::env::var("TILEQR_SIMD").ok().as_deref());
    // A racing first use resolves to the same deterministic answer, so a
    // plain store (rather than a CAS loop) is fine.
    ACTIVE.store(level as u8, Ordering::Relaxed);
    level
}

/// Forces the active level, returning the previous one. For tests and
/// benchmarks that sweep levels in-process (the `TILEQR_SIMD` override only
/// applies at first use); the forced level applies process-globally to every
/// subsequent kernel call, so callers forcing levels must serialize.
///
/// # Panics
///
/// If the running CPU cannot execute `level` — the dispatch safety invariant
/// is that `ACTIVE` only ever holds supported levels.
pub fn set_active(level: SimdLevel) -> SimdLevel {
    assert!(
        is_supported(level),
        "SIMD level `{}` is not supported on this CPU",
        level.name()
    );
    let prev = active();
    ACTIVE.store(level as u8, Ordering::Relaxed);
    prev
}

// ---------------------------------------------------------------------------
// Register-block shapes
// ---------------------------------------------------------------------------

/// Shape of one register block: `mr` rows (the vectorized dimension) by
/// `nr` columns of `C` computed together.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockShape {
    /// Rows of the block — the interleave of the packed `A` slabs.
    pub mr: usize,
    /// Columns of the block — the interleave of the packed `B` slabs.
    pub nr: usize,
}

/// The scalar level's blocks, which are also what every level runs for a
/// scalar type without explicit kernels.
const F64_SCALAR: BlockShape = BlockShape { mr: 8, nr: 4 };
const C64_BLOCK: BlockShape = BlockShape { mr: 4, nr: 4 };

/// Largest `nr` over every shape [`block_shape`] can return.
pub(crate) const NR_MAX: usize = 8;

/// Elements in the largest register block (AVX-512 f64, `16 × 8`): the size
/// of the stack block a row-ragged edge is staged through.
#[cfg(target_arch = "x86_64")]
const ACC_CAP: usize = 128;

/// The register block `level` uses for scalar type `T` — the level table in
/// the module docs. The packers of [`crate::microblas`] lay their slabs out
/// for exactly this shape, so pack layout is a property of the level too.
///
/// A level whose kernels are compiled out on this target (and can therefore
/// never be active) reports the scalar shape.
pub fn block_shape<T: Scalar>(level: SimdLevel) -> BlockShape {
    if same_type::<T, Complex64>() {
        return C64_BLOCK;
    }
    if !same_type::<T, f64>() {
        return F64_SCALAR;
    }
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => x86::F64_AVX2,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => x86::F64_AVX512,
        _ => F64_SCALAR,
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

#[inline]
fn same_type<A: 'static, B: 'static>() -> bool {
    std::any::TypeId::of::<A>() == std::any::TypeId::of::<B>()
}

/// Where an ISA kernel sends a finished block. Pointers and strides are in
/// `f64` units on the kernel side; `coffs` holds *element* offsets, which
/// the complex kernels double.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
enum Sink {
    /// Full-height block: `c[coffs[j] + r] ±= acc(r, j)` straight from the
    /// accumulator registers, `j <` the kernel's column count.
    Direct {
        c: *mut f64,
        coffs: *const usize,
        sub: bool,
    },
    /// Row-ragged block: the accumulators are dumped column-major with
    /// stride `MR` for the caller's scalar writeback of the valid rows.
    Spill { acc: *mut f64 },
}

/// One ISA implementation: `(k, ap, bp, nrv, sink)` computes the leading
/// `nrv` columns of one register block from an `MR`-interleaved `A` slab
/// and an `NR`-interleaved `B` slab of `k` steps each.
#[cfg(target_arch = "x86_64")]
type BlockFn = unsafe fn(usize, *const f64, *const f64, usize, Sink);

/// The explicit kernel for (`T`, `level`), if this target has one.
#[cfg(target_arch = "x86_64")]
fn simd_block_fn<T: Scalar>(level: SimdLevel) -> Option<BlockFn> {
    let (real, complex) = (same_type::<T, f64>(), same_type::<T, Complex64>());
    match level {
        SimdLevel::Avx2 if real => Some(x86::f64_avx2),
        SimdLevel::Avx2 if complex => Some(x86::c64_avx2),
        SimdLevel::Avx512 if real => Some(x86::f64_avx512),
        SimdLevel::Avx512 if complex => Some(x86::c64_avx512),
        _ => None,
    }
}

/// The register-block microkernel of the active level for scalar type `T`.
///
/// Block shape and ISA implementation are resolved together, once per
/// product, so the packers and the compute can never disagree about the
/// slab layout. The only constructor reads [`active`], which holds nothing
/// but levels that passed [`is_supported`] — the proof the
/// `#[target_feature]` kernels need.
pub(crate) struct Microkernel<T> {
    shape: BlockShape,
    #[cfg(target_arch = "x86_64")]
    simd: Option<BlockFn>,
    _scalar: std::marker::PhantomData<fn(T)>,
}

impl<T: Scalar> Microkernel<T> {
    /// The microkernel of the process's active level.
    #[inline]
    pub(crate) fn active() -> Self {
        let level = active();
        Microkernel {
            shape: block_shape::<T>(level),
            #[cfg(target_arch = "x86_64")]
            simd: simd_block_fn::<T>(level),
            _scalar: std::marker::PhantomData,
        }
    }

    /// The shape the operands must be packed for.
    #[inline]
    pub(crate) fn shape(&self) -> BlockShape {
        self.shape
    }

    /// One register block of `C ±= A·B`:
    /// `c[coffs[j] + r] ±= Σ_{p<k} ap[p·MR + r] · bp[p·NR + j]` for
    /// `r < mr_valid`, `j < coffs.len()`.
    ///
    /// `ap`/`bp` are one slab each of the packings of
    /// [`crate::microblas`]. Only the `coffs.len()` valid columns are
    /// computed (a width-1 right-hand side costs one column, not `NR`), and
    /// a full-height block (`mr_valid == MR`) is written from the
    /// accumulator registers inside the ISA kernel; a row-ragged one is
    /// staged through a stack block. Each element's reduction runs over `p`
    /// in order from zero whatever the block it falls in, so neither the
    /// shape nor the edge handling changes a result bit.
    #[inline]
    #[allow(clippy::too_many_arguments)] // one block of the gemm surface
    pub(crate) fn run(
        &self,
        k: usize,
        ap: &[T],
        bp: &[T],
        c: &mut [T],
        coffs: &[usize],
        mr_valid: usize,
        sub: bool,
    ) {
        let BlockShape { mr, nr } = self.shape;
        let nrv = coffs.len();
        // The ISA kernels below read and write through raw pointers: these
        // checks are what makes that sound.
        assert!(
            ap.len() >= k * mr && bp.len() >= k * nr,
            "packed slab shorter than k steps"
        );
        assert!(
            (1..=nr).contains(&nrv) && (1..=mr).contains(&mr_valid),
            "register block larger than the level's shape"
        );
        assert!(
            coffs
                .iter()
                .all(|&off| off <= c.len() && c.len() - off >= mr_valid),
            "register block outside the destination"
        );
        #[cfg(target_arch = "x86_64")]
        if let Some(block) = self.simd {
            // `simd` is only set for f64 (as is) and Complex64, which is
            // `#[repr(C)] { re: f64, im: f64 }` — an interleaved f64 pair.
            let (ap, bp) = (ap.as_ptr().cast::<f64>(), bp.as_ptr().cast::<f64>());
            if mr_valid == mr {
                let sink = Sink::Direct {
                    c: c.as_mut_ptr().cast::<f64>(),
                    coffs: coffs.as_ptr(),
                    sub,
                };
                // SAFETY: the level is active, hence supported; the slabs
                // hold `k·MR` / `k·NR` elements and every one of the `nrv`
                // destination columns holds `MR` elements from its offset
                // (asserted above with `mr_valid == MR`).
                unsafe { block(k, ap, bp, nrv, sink) };
            } else {
                let mut acc = [T::ZERO; ACC_CAP];
                let sink = Sink::Spill {
                    acc: acc.as_mut_ptr().cast::<f64>(),
                };
                // SAFETY: as above for the level and the slabs; `acc` holds
                // `ACC_CAP ≥ MR·NR` elements, all a spilling kernel writes.
                unsafe { block(k, ap, bp, nrv, sink) };
                write_back(&acc, mr, c, coffs, mr_valid, sub);
            }
            return;
        }
        if same_type::<T, Complex64>() {
            scalar_block::<T, 4, 4>(k, ap, bp, c, coffs, mr_valid, sub);
        } else {
            scalar_block::<T, 8, 4>(k, ap, bp, c, coffs, mr_valid, sub);
        }
    }
}

/// `c[coffs[j] + r] ±= acc[j·mr + r]` for the valid rows of a staged block.
#[inline]
fn write_back<T: Scalar>(
    acc: &[T],
    mr: usize,
    c: &mut [T],
    coffs: &[usize],
    mr_valid: usize,
    sub: bool,
) {
    for (col, &off) in acc.chunks_exact(mr).zip(coffs) {
        let dst = &mut c[off..off + mr_valid];
        if sub {
            for (d, &v) in dst.iter_mut().zip(col) {
                *d -= v;
            }
        } else {
            for (d, &v) in dst.iter_mut().zip(col) {
                *d += v;
            }
        }
    }
}

/// The generic scalar register block — the portability baseline. The
/// `MR · NR` accumulators form independent dependency chains interleaved
/// over the `k` loop, so autovectorized builds still get instruction-level
/// parallelism; the shape is a compile-time constant per scalar type
/// (`F64_SCALAR` / `C64_BLOCK`) for the same reason.
#[inline]
fn scalar_block<T: Scalar, const MR: usize, const NR: usize>(
    k: usize,
    ap: &[T],
    bp: &[T],
    c: &mut [T],
    coffs: &[usize],
    mr_valid: usize,
    sub: bool,
) {
    let nrv = coffs.len();
    let mut acc = [[T::ZERO; MR]; NR];
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(k) {
        for (col, &bv) in acc.iter_mut().zip(&b[..nrv]) {
            for (cr, &av) in col.iter_mut().zip(a) {
                // `mul_acc` is mul+add by default and a single hardware
                // `vfmadd` only when the *compile-time* target guarantees
                // FMA (see `Scalar::mul_acc`) — on the generic portable
                // build this path stays unfused.
                *cr = cr.mul_acc(av, bv);
            }
        }
    }
    write_back(acc.as_flattened(), MR, c, coffs, mr_valid, sub);
}

// ---------------------------------------------------------------------------
// Level-2 operations
// ---------------------------------------------------------------------------

/// Most pairs one [`Level2::dots`] call reduces together: enough independent
/// add chains to keep both vector adders busy.
pub(crate) const DOT_PAIRS: usize = 8;

/// The two Level-2 operations of the factor kernels' panel (the in-panel
/// sweep and the `T` build), one implementation per level. Every
/// implementation rounds exactly as the generic loops: each product before
/// its sum, never fused, so a body written over them gives every level the
/// scalar level's bits.
pub(crate) trait Level2 {
    /// `out[c] = a_cᴴ·b_c` for the `n ≤ DOT_PAIRS` pairs `(a_c, b_c)`, each
    /// in [`crate::blas::dot_conj`]'s order.
    fn dots<T: Scalar>(pairs: &[(&[T], &[T])], out: &mut [T]);

    /// `y −= x·s` (`sub`) or `y += x·s`, elementwise.
    fn axpy<T: Scalar>(y: &mut [T], x: &[T], s: T, sub: bool);
}

/// The generic loops, which the SIMD operations fall back to for a scalar
/// type other than f64.
#[cfg(target_arch = "x86_64")]
struct Generic;

#[cfg(target_arch = "x86_64")]
impl Level2 for Generic {
    #[inline(always)]
    fn dots<T: Scalar>(pairs: &[(&[T], &[T])], out: &mut [T]) {
        for (o, &(a, b)) in out.iter_mut().zip(pairs) {
            *o = crate::blas::dot_conj(a, b);
        }
    }

    #[inline(always)]
    fn axpy<T: Scalar>(y: &mut [T], x: &[T], s: T, sub: bool) {
        if sub {
            y.iter_mut().zip(x).for_each(|(yi, &xi)| *yi -= xi * s);
        } else {
            y.iter_mut().zip(x).for_each(|(yi, &xi)| *yi += xi * s);
        }
    }
}

/// A body generic over the [`Level2`] operations — the factor kernels'
/// panel.
pub(crate) trait WithLevel2 {
    /// Runs the body with the operations `L`.
    fn run<L: Level2>(self);
}

/// Runs `body` with the active level's [`Level2`] operations, if the level
/// has them for scalar type `T` (f64 on AVX2 and AVX-512), and says whether
/// it did; the caller runs its generic loops otherwise. The body runs
/// inside a function compiled for the level's target features, so the
/// operations — and the body's own loops — inline there.
#[inline]
pub(crate) fn with_level2<T: Scalar>(body: impl WithLevel2) -> bool {
    #[cfg(target_arch = "x86_64")]
    if same_type::<T, f64>() {
        match active() {
            // SAFETY: the active level passed `is_supported`, so its target
            // features are present.
            SimdLevel::Avx512 => unsafe { x86::with_avx512(body) },
            // SAFETY: as above.
            SimdLevel::Avx2 => unsafe { x86::with_avx2(body) },
            _ => return false,
        }
        return true;
    }
    let _ = body;
    false
}

/// Generates the baseline-ISA entry point of one kernel: picks the
/// instantiation of the `#[target_feature]` block for the number of valid
/// columns.
#[cfg(target_arch = "x86_64")]
macro_rules! by_valid_columns {
    ($(#[$doc:meta])* $name:ident => $block:ident :: < $($n:literal),+ >) => {
        $(#[$doc])*
        ///
        /// # Safety
        ///
        /// The block's ISA must be present; `ap`/`bp` must hold `k·MR` /
        /// `k·NR` elements of the kernel's scalar type; `nrv ≤ NR`; a
        /// `Direct` sink's `coffs` must hold `nrv` offsets, each with `MR`
        /// writable elements behind it in `c`; a `Spill` sink's `acc` must
        /// hold `MR·NR` elements.
        pub unsafe fn $name(k: usize, ap: *const f64, bp: *const f64, nrv: usize, sink: Sink) {
            // SAFETY: the caller's contract is the block's, verbatim.
            unsafe {
                match nrv {
                    $($n => $block::<$n>(k, ap, bp, sink),)+
                    _ => unreachable!("more valid columns than the block has"),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// x86-64 kernels (AVX2 + FMA, AVX-512F)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{BlockShape, Sink, C64_BLOCK};
    use core::arch::x86_64::*;

    /// f64 on AVX2: two `ymm` per column, 8 accumulators of the 16 `ymm`.
    pub const F64_AVX2: BlockShape = BlockShape { mr: 8, nr: 4 };
    /// f64 on AVX-512F: two `zmm` per column, 16 accumulators of the 32
    /// `zmm` — enough independent chains to cover the FMA latency on both
    /// pipes, which the previous `8 × 4` (4 accumulators) could not.
    pub const F64_AVX512: BlockShape = BlockShape { mr: 16, nr: 8 };

    /// `acc + a·b` per lane: one `vfmadd` with the `fma` cargo feature,
    /// unfused mul + add in the scalar path's evaluation order without it.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn mul_acc_256(acc: __m256d, a: __m256d, b: __m256d) -> __m256d {
        #[cfg(feature = "fma")]
        {
            _mm256_fmadd_pd(a, b, acc)
        }
        #[cfg(not(feature = "fma"))]
        {
            _mm256_add_pd(acc, _mm256_mul_pd(a, b))
        }
    }

    /// The 512-bit [`mul_acc_256`].
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn mul_acc_512(acc: __m512d, a: __m512d, b: __m512d) -> __m512d {
        #[cfg(feature = "fma")]
        {
            _mm512_fmadd_pd(a, b, acc)
        }
        #[cfg(not(feature = "fma"))]
        {
            _mm512_add_pd(acc, _mm512_mul_pd(a, b))
        }
    }

    /// Bitwise xor of two `zmm` f64 vectors through the integer domain.
    /// `_mm512_xor_pd` itself is an AVX-512**DQ** intrinsic: inside an
    /// `avx512f`-only function LLVM cannot inline it and emits an actual
    /// call in the inner loop (spilling every accumulator). The integer
    /// form is plain AVX-512F and identical bit for bit.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn xor_pd_512(a: __m512d, b: __m512d) -> __m512d {
        _mm512_castsi512_pd(_mm512_xor_epi64(
            _mm512_castpd_si512(a),
            _mm512_castpd_si512(b),
        ))
    }

    /// Sends a finished block of `NRV` columns, `V` `ymm` each, to its
    /// sink; `scale` is the f64 count per element (1 real, 2 complex).
    /// `C − acc` is computed as `C + (−acc)`, which is the same bits in
    /// IEEE arithmetic and keeps the writeback branch-free.
    ///
    /// # Safety
    ///
    /// The sink's pointers must satisfy the contract of the kernel entry
    /// points for a block of `4·V / scale` rows.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn finish_256<const V: usize, const NRV: usize>(
        acc: &[[__m256d; V]; NRV],
        sink: Sink,
        scale: usize,
    ) {
        // SAFETY: every offset below stays inside the `NRV` columns of
        // `4·V` f64 each that the caller vouches for.
        unsafe {
            match sink {
                Sink::Direct { c, coffs, sub } => {
                    let neg = _mm256_set1_pd(if sub { -0.0 } else { 0.0 });
                    for (j, col) in acc.iter().enumerate() {
                        let dst = c.add(*coffs.add(j) * scale);
                        for (i, &v) in col.iter().enumerate() {
                            let p = dst.add(4 * i);
                            let v = _mm256_xor_pd(v, neg);
                            _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), v));
                        }
                    }
                }
                Sink::Spill { acc: out } => {
                    for (j, col) in acc.iter().enumerate() {
                        for (i, &v) in col.iter().enumerate() {
                            _mm256_storeu_pd(out.add(4 * (j * V + i)), v);
                        }
                    }
                }
            }
        }
    }

    /// The 512-bit [`finish_256`]: `V` `zmm` per column.
    ///
    /// # Safety
    ///
    /// As [`finish_256`], for a block of `8·V / scale` rows.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn finish_512<const V: usize, const NRV: usize>(
        acc: &[[__m512d; V]; NRV],
        sink: Sink,
        scale: usize,
    ) {
        // SAFETY: every offset below stays inside the `NRV` columns of
        // `8·V` f64 each that the caller vouches for.
        unsafe {
            match sink {
                Sink::Direct { c, coffs, sub } => {
                    let neg = _mm512_set1_pd(if sub { -0.0 } else { 0.0 });
                    for (j, col) in acc.iter().enumerate() {
                        let dst = c.add(*coffs.add(j) * scale);
                        for (i, &v) in col.iter().enumerate() {
                            let p = dst.add(8 * i);
                            let v = xor_pd_512(v, neg);
                            _mm512_storeu_pd(p, _mm512_add_pd(_mm512_loadu_pd(p), v));
                        }
                    }
                }
                Sink::Spill { acc: out } => {
                    for (j, col) in acc.iter().enumerate() {
                        for (i, &v) in col.iter().enumerate() {
                            _mm512_storeu_pd(out.add(8 * (j * V + i)), v);
                        }
                    }
                }
            }
        }
    }

    /// f64 block on AVX2 + FMA: one broadcast per (step, column), two
    /// accumulators per column.
    ///
    /// # Safety
    ///
    /// See [`f64_avx2`].
    #[target_feature(enable = "avx2,fma")]
    unsafe fn f64_avx2_block<const NRV: usize>(
        k: usize,
        ap: *const f64,
        bp: *const f64,
        sink: Sink,
    ) {
        let mut acc = [[_mm256_setzero_pd(); 2]; NRV];
        // SAFETY: the slabs hold `k` steps of `MR` / `NR` f64 (caller's
        // contract), which is all the loop reads; the sink is forwarded.
        unsafe {
            let (mut a, mut b) = (ap, bp);
            for _ in 0..k {
                let a0 = _mm256_loadu_pd(a);
                let a1 = _mm256_loadu_pd(a.add(4));
                for (j, cj) in acc.iter_mut().enumerate() {
                    let bv = _mm256_broadcast_sd(&*b.add(j));
                    cj[0] = mul_acc_256(cj[0], a0, bv);
                    cj[1] = mul_acc_256(cj[1], a1, bv);
                }
                a = a.add(F64_AVX2.mr);
                b = b.add(F64_AVX2.nr);
            }
            finish_256(&acc, sink, 1);
        }
    }

    by_valid_columns! {
        /// f64 `8 × 4` register block on AVX2 + FMA.
        f64_avx2 => f64_avx2_block::<1, 2, 3, 4>
    }

    /// f64 block on AVX-512F: a 16-row column is two `zmm`.
    ///
    /// # Safety
    ///
    /// See [`f64_avx512`].
    #[target_feature(enable = "avx512f")]
    unsafe fn f64_avx512_block<const NRV: usize>(
        k: usize,
        ap: *const f64,
        bp: *const f64,
        sink: Sink,
    ) {
        let mut acc = [[_mm512_setzero_pd(); 2]; NRV];
        // SAFETY: the slabs hold `k` steps of `MR` / `NR` f64 (caller's
        // contract), which is all the loop reads; the sink is forwarded.
        unsafe {
            let (mut a, mut b) = (ap, bp);
            for _ in 0..k {
                let a0 = _mm512_loadu_pd(a);
                let a1 = _mm512_loadu_pd(a.add(8));
                for (j, cj) in acc.iter_mut().enumerate() {
                    let bv = _mm512_set1_pd(*b.add(j));
                    cj[0] = mul_acc_512(cj[0], a0, bv);
                    cj[1] = mul_acc_512(cj[1], a1, bv);
                }
                a = a.add(F64_AVX512.mr);
                b = b.add(F64_AVX512.nr);
            }
            finish_512(&acc, sink, 1);
        }
    }

    by_valid_columns! {
        /// f64 `16 × 8` register block on AVX-512F.
        f64_avx512 => f64_avx512_block::<1, 2, 3, 4, 5, 6, 7, 8>
    }

    /// Complex64 block on AVX2 (operands viewed as interleaved re/im f64
    /// pairs): two `ymm` per 4-row column. Complex multiply-accumulate via
    /// the standard swap/addsub formulation:
    ///
    /// * unfused (`fma` feature off): `t1 = a·b_re`, `t2 = swap(a)·b_im`,
    ///   `acc += addsub(t1, t2)` — every product, the sub/add and the final
    ///   accumulate round exactly like `Complex64`'s scalar `mul` + `add`,
    ///   so the level is bitwise identical to the scalar path;
    /// * fused: `acc = fmadd(a, b_re, fmadd(swap(a), ±b_im, acc))` — two
    ///   FMAs per accumulator, same reduction order, fused rounding.
    ///
    /// # Safety
    ///
    /// See [`c64_avx2`].
    #[target_feature(enable = "avx2,fma")]
    unsafe fn c64_avx2_block<const NRV: usize>(
        k: usize,
        ap: *const f64,
        bp: *const f64,
        sink: Sink,
    ) {
        // Flips the sign of the even (real-part) lanes.
        #[cfg(feature = "fma")]
        let sign = _mm256_castsi256_pd(_mm256_set_epi64x(0, i64::MIN, 0, i64::MIN));
        let mut acc = [[_mm256_setzero_pd(); 2]; NRV];
        // SAFETY: the slabs hold `k` steps of 4 complex = 8 f64 each
        // (caller's contract), which is all the loop reads; the sink is
        // forwarded.
        unsafe {
            let (mut a, mut b) = (ap, bp);
            for _ in 0..k {
                let a0 = _mm256_loadu_pd(a); // rows 0,1: [re0 im0 re1 im1]
                let a1 = _mm256_loadu_pd(a.add(4)); // rows 2,3
                let s0 = _mm256_permute_pd(a0, 0b0101); // [im0 re0 im1 re1]
                let s1 = _mm256_permute_pd(a1, 0b0101);
                for (j, cj) in acc.iter_mut().enumerate() {
                    let bre = _mm256_broadcast_sd(&*b.add(2 * j));
                    let bim = _mm256_broadcast_sd(&*b.add(2 * j + 1));
                    #[cfg(feature = "fma")]
                    {
                        let bpm = _mm256_xor_pd(bim, sign); // [-b_im +b_im ...]
                        cj[0] = _mm256_fmadd_pd(a0, bre, _mm256_fmadd_pd(s0, bpm, cj[0]));
                        cj[1] = _mm256_fmadd_pd(a1, bre, _mm256_fmadd_pd(s1, bpm, cj[1]));
                    }
                    #[cfg(not(feature = "fma"))]
                    {
                        let t0 = _mm256_addsub_pd(_mm256_mul_pd(a0, bre), _mm256_mul_pd(s0, bim));
                        let t1 = _mm256_addsub_pd(_mm256_mul_pd(a1, bre), _mm256_mul_pd(s1, bim));
                        cj[0] = _mm256_add_pd(cj[0], t0);
                        cj[1] = _mm256_add_pd(cj[1], t1);
                    }
                }
                a = a.add(2 * C64_BLOCK.mr);
                b = b.add(2 * C64_BLOCK.nr);
            }
            finish_256(&acc, sink, 2);
        }
    }

    by_valid_columns! {
        /// Complex64 `4 × 4` register block on AVX2 + FMA.
        c64_avx2 => c64_avx2_block::<1, 2, 3, 4>
    }

    /// Complex64 block on AVX-512F: a 4-complex column is exactly one
    /// `zmm`. The fused path keeps **two** accumulator chains per column
    /// (the `a·b_re` and `swap(a)·±b_im` partial sums, combined once at the
    /// end) so all eight FMA chains are independent; the unfused path keeps
    /// one chain per column in the exact scalar evaluation order (bitwise
    /// identical to the scalar fallback).
    ///
    /// # Safety
    ///
    /// See [`c64_avx512`].
    #[target_feature(enable = "avx512f")]
    unsafe fn c64_avx512_block<const NRV: usize>(
        k: usize,
        ap: *const f64,
        bp: *const f64,
        sink: Sink,
    ) {
        // Flips the sign of the even (real-part) lanes.
        let sign = _mm512_castsi512_pd(_mm512_set_epi64(
            0,
            i64::MIN,
            0,
            i64::MIN,
            0,
            i64::MIN,
            0,
            i64::MIN,
        ));
        let mut acc = [[_mm512_setzero_pd(); 1]; NRV];
        // SAFETY: the slabs hold `k` steps of 4 complex = 8 f64 each
        // (caller's contract), which is all the loops read; the sink is
        // forwarded.
        unsafe {
            let (mut a, mut b) = (ap, bp);
            #[cfg(feature = "fma")]
            {
                let mut cim = [_mm512_setzero_pd(); NRV];
                for _ in 0..k {
                    let av = _mm512_loadu_pd(a); // [re0 im0 .. re3 im3]
                    let sv = _mm512_permute_pd(av, 0x55); // [im0 re0 .. im3 re3]
                    for (j, (cre, cim)) in acc.iter_mut().zip(&mut cim).enumerate() {
                        let bre = _mm512_set1_pd(*b.add(2 * j));
                        let bpm = xor_pd_512(_mm512_set1_pd(*b.add(2 * j + 1)), sign);
                        cre[0] = _mm512_fmadd_pd(av, bre, cre[0]);
                        *cim = _mm512_fmadd_pd(sv, bpm, *cim);
                    }
                    a = a.add(2 * C64_BLOCK.mr);
                    b = b.add(2 * C64_BLOCK.nr);
                }
                for (cre, &cim) in acc.iter_mut().zip(&cim) {
                    cre[0] = _mm512_add_pd(cre[0], cim);
                }
            }
            #[cfg(not(feature = "fma"))]
            for _ in 0..k {
                let av = _mm512_loadu_pd(a);
                let sv = _mm512_permute_pd(av, 0x55);
                for (j, cj) in acc.iter_mut().enumerate() {
                    let bre = _mm512_set1_pd(*b.add(2 * j));
                    let bim = _mm512_set1_pd(*b.add(2 * j + 1));
                    let t1 = _mm512_mul_pd(av, bre);
                    // t1 - t2 on real lanes / t1 + t2 on imaginary lanes,
                    // expressed as t1 + (t2 XOR -0.0 on real lanes): IEEE
                    // `x + (-y)` is bitwise `x - y`, so this matches the
                    // scalar complex multiply exactly.
                    let t2 = xor_pd_512(_mm512_mul_pd(sv, bim), sign);
                    cj[0] = _mm512_add_pd(cj[0], _mm512_add_pd(t1, t2));
                }
                a = a.add(2 * C64_BLOCK.mr);
                b = b.add(2 * C64_BLOCK.nr);
            }
            finish_512(&acc, sink, 2);
        }
    }

    by_valid_columns! {
        /// Complex64 `4 × 4` register block on AVX-512F.
        c64_avx512 => c64_avx512_block::<1, 2, 3, 4>
    }

    /// The [`super::Level2`] operations on AVX2 (`ZMM = false`) and AVX-512
    /// (`ZMM = true`): `ymm` dots on both — a `zmm` would hold eight partial
    /// sums and change the summation order — and the update at the level's
    /// full width. Named only here: they run inside [`with_avx2`] and
    /// [`with_avx512`], whose target features their intrinsics need, and
    /// serve f64 only (any other `T` takes the generic loops).
    pub(super) struct Ops<const ZMM: bool>;

    impl<const ZMM: bool> super::Level2 for Ops<ZMM> {
        #[inline(always)]
        fn dots<T: super::Scalar>(pairs: &[(&[T], &[T])], out: &mut [T]) {
            let n = pairs.len();
            assert!(
                (1..=8).contains(&n) && out.len() >= n,
                "one to eight pairs, one output each"
            );
            // The vector path serves pairs of one length that share one
            // operand — loaded once per group. f64 products commute bit for
            // bit, so a shared right operand may take the left.
            let (x0, y0) = pairs[0];
            let shared_left = pairs.iter().all(|(x, _)| x.as_ptr() == x0.as_ptr());
            let shared_right = pairs.iter().all(|(_, y)| y.as_ptr() == y0.as_ptr());
            let one_len = pairs
                .iter()
                .all(|(x, y)| x.len() == x0.len() && y.len() == x0.len());
            if !super::same_type::<T, f64>() || !one_len || !(shared_left || shared_right) {
                return super::Generic::dots(pairs, out);
            }
            let (x, others) = if shared_left { (x0, 1) } else { (y0, 0) };
            let mut ys = [std::ptr::null::<f64>(); 8];
            for (y, pair) in ys.iter_mut().zip(pairs) {
                *y = [pair.0, pair.1][others].as_ptr().cast();
            }
            // SAFETY: `T == f64`; `x` and every `ys[c]`, `c < n`, hold
            // `x.len()` f64, and `out` holds `n` (asserted above). AVX is
            // present: these operations run only inside `with_avx2` or
            // `with_avx512`, and both levels imply it.
            unsafe { dots_n(n, x.as_ptr().cast(), &ys, x.len(), out.as_mut_ptr().cast()) }
        }

        #[inline(always)]
        fn axpy<T: super::Scalar>(y: &mut [T], x: &[T], s: T, sub: bool) {
            let Some(&s) = (&s as &dyn std::any::Any).downcast_ref::<f64>() else {
                return super::Generic::axpy(y, x, s, sub);
            };
            assert_eq!(y.len(), x.len(), "axpy operands of unequal length");
            // `y − x·s` is `y + x·(−s)` bit for bit: IEEE subtraction adds
            // the negation, and a product rounds symmetrically in sign.
            let s = if sub { -s } else { s };
            let (yp, xp, n) = (y.as_mut_ptr().cast(), x.as_ptr().cast(), y.len());
            // SAFETY: `T == f64`; `y` and `x` hold `n` f64 each, `y`
            // borrowed exclusively. The ISA is present, as in `dots`.
            unsafe {
                if ZMM {
                    axpy_512(yp, xp, n, s)
                } else {
                    axpy_256(yp, xp, n, s)
                }
            }
        }
    }

    /// Runs `body` with the AVX2 operations, compiled for AVX2.
    ///
    /// # Safety
    ///
    /// AVX2 must be present.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn with_avx2(body: impl super::WithLevel2) {
        body.run::<Ops<false>>()
    }

    /// Runs `body` with the AVX-512 operations, compiled for AVX-512F.
    ///
    /// # Safety
    ///
    /// AVX-512F must be present.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn with_avx512(body: impl super::WithLevel2) {
        body.run::<Ops<true>>()
    }

    /// `acc + x·y`, rounded twice: the Level-2 operations never fuse.
    #[target_feature(enable = "avx")]
    #[inline]
    fn mul_add_unfused(acc: __m256d, x: __m256d, y: __m256d) -> __m256d {
        _mm256_add_pd(acc, _mm256_mul_pd(x, y))
    }

    /// `out[c] = Σ_i x[i]·ys[c][i]` for `c < N`, in
    /// [`crate::blas::dot_conj`]'s order: column `c`'s four interleaved
    /// partial sums are the lanes of `acc[c]`, so the `N` add chains
    /// overlap and `x` is loaded once per group of four; the remainder goes
    /// to the first partial sum, and `(s0 + s1) + (s2 + s3)` ends it.
    ///
    /// # Safety
    ///
    /// AVX must be present; `x` and `ys[c]`, `c < N`, must each point at
    /// `len` f64, and `out` at `N` writable f64.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn dots_ymm<const N: usize>(
        x: *const f64,
        ys: &[*const f64; 8],
        len: usize,
        out: *mut f64,
    ) {
        let mut acc = [_mm256_setzero_pd(); N];
        let body = len - len % 4;
        // SAFETY: every access stays below `len`; `out` holds `N`.
        unsafe {
            for i in (0..body).step_by(4) {
                let xv = _mm256_loadu_pd(x.add(i));
                for (acc, y) in acc.iter_mut().zip(ys) {
                    *acc = mul_add_unfused(*acc, xv, _mm256_loadu_pd(y.add(i)));
                }
            }
            for (c, (acc, y)) in acc.iter().zip(ys).enumerate() {
                let mut s = [0.0f64; 4];
                _mm256_storeu_pd(s.as_mut_ptr(), *acc);
                for i in body..len {
                    s[0] += *x.add(i) * *y.add(i);
                }
                *out.add(c) = (s[0] + s[1]) + (s[2] + s[3]);
            }
        }
    }

    /// Runs [`dots_ymm`] for the column count `n`.
    ///
    /// # Safety
    ///
    /// As [`dots_ymm`], with `1 ≤ n ≤ 8`.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn dots_n(n: usize, x: *const f64, ys: &[*const f64; 8], len: usize, out: *mut f64) {
        // SAFETY: the caller's contract, for the matching `N`.
        unsafe {
            match n {
                1 => dots_ymm::<1>(x, ys, len, out),
                2 => dots_ymm::<2>(x, ys, len, out),
                3 => dots_ymm::<3>(x, ys, len, out),
                4 => dots_ymm::<4>(x, ys, len, out),
                5 => dots_ymm::<5>(x, ys, len, out),
                6 => dots_ymm::<6>(x, ys, len, out),
                7 => dots_ymm::<7>(x, ys, len, out),
                8 => dots_ymm::<8>(x, ys, len, out),
                _ => unreachable!("one to eight dot pairs"),
            }
        }
    }

    /// `y[i] += x[i]·s` for `i < n`, four lanes at a time, unfused.
    ///
    /// # Safety
    ///
    /// AVX must be present; `y` and `x` must each point at `n` f64, `y`
    /// writable.
    #[target_feature(enable = "avx")]
    #[inline]
    unsafe fn axpy_256(y: *mut f64, x: *const f64, n: usize, s: f64) {
        let sv = _mm256_set1_pd(s);
        let body = n - n % 4;
        // SAFETY: every access stays below `n`.
        unsafe {
            for i in (0..body).step_by(4) {
                let p = _mm256_mul_pd(_mm256_loadu_pd(x.add(i)), sv);
                _mm256_storeu_pd(y.add(i), _mm256_add_pd(_mm256_loadu_pd(y.add(i)), p));
            }
            for i in body..n {
                *y.add(i) += *x.add(i) * s;
            }
        }
    }

    /// The eight-lane [`axpy_256`].
    ///
    /// # Safety
    ///
    /// As [`axpy_256`], with AVX-512F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn axpy_512(y: *mut f64, x: *const f64, n: usize, s: f64) {
        let sv = _mm512_set1_pd(s);
        let body = n - n % 8;
        // SAFETY: every access stays below `n`.
        unsafe {
            for i in (0..body).step_by(8) {
                let p = _mm512_mul_pd(_mm512_loadu_pd(x.add(i)), sv);
                _mm512_storeu_pd(y.add(i), _mm512_add_pd(_mm512_loadu_pd(y.add(i)), p));
            }
            for i in body..n {
                *y.add(i) += *x.add(i) * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_parsing_round_trip() {
        for l in ALL_LEVELS {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
            assert_eq!(SimdLevel::parse(&l.name().to_uppercase()), Some(l));
        }
        assert_eq!(SimdLevel::parse("avx512f"), Some(SimdLevel::Avx512));
        assert_eq!(SimdLevel::parse("sse9"), None);
        assert_eq!(SimdLevel::parse(""), None);
    }

    #[test]
    fn detection_is_supported_and_listed() {
        let best = detect();
        assert!(is_supported(best), "detected level must be supported");
        let avail = available_levels();
        assert_eq!(avail[0], SimdLevel::Scalar);
        assert!(avail.contains(&best));
        for &l in &avail {
            assert!(is_supported(l));
        }
    }

    #[test]
    fn resolve_rules() {
        let detected = detect();
        // No override / empty / garbage → detected.
        assert_eq!(resolve(None), detected);
        assert_eq!(resolve(Some("")), detected);
        assert_eq!(resolve(Some("  ")), detected);
        assert_eq!(resolve(Some("not-a-level")), detected);
        // Scalar is supported everywhere and always honored.
        assert_eq!(resolve(Some("scalar")), SimdLevel::Scalar);
        assert_eq!(resolve(Some(" SCALAR ")), SimdLevel::Scalar);
        // A supported level is honored; an unsupported one falls back.
        for l in [SimdLevel::Avx2, SimdLevel::Avx512] {
            let want = if is_supported(l) { l } else { detected };
            assert_eq!(resolve(Some(l.name())), want);
        }
    }

    #[test]
    fn active_returns_supported_level() {
        let a = active();
        assert!(is_supported(a));
        // Idempotent once cached.
        assert_eq!(active(), a);
    }

    #[test]
    fn set_active_rejects_unsupported_levels() {
        // Only a CPU without AVX-512 (or a target other than x86-64) has a
        // level to refuse; where every level runs there is nothing to check.
        let Some(unsupported) = ALL_LEVELS.into_iter().find(|&l| !is_supported(l)) else {
            return;
        };
        let before = active();
        let err = std::panic::catch_unwind(|| set_active(unsupported)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains("not supported"), "{msg}");
        assert_eq!(active(), before, "a refused level must not become active");
    }
}
