//! Portable explicit-SIMD microkernels with runtime ISA dispatch.
//!
//! The register level of the blocking hierarchy (see the crate docs) used to
//! rely on autovectorization under `-C target-cpu=native`, which pinned every
//! release binary to the build machine's microarchitecture. This module makes
//! the sequential kernel peak portable: the `MR × NR` register-block update
//! at the heart of [`crate::microblas::gemm_into`] is implemented once per
//! instruction set with explicit [`core::arch`] intrinsics (std only, no
//! external dependencies), and the best implementation the *running* CPU
//! supports is selected once per process.
//!
//! # Levels
//!
//! | [`SimdLevel`] | ISA | f64 block | Complex64 block |
//! |---|---|---|---|
//! | `Scalar` | baseline (any target) | 8 × 4, generic loop | 4 × 4, generic loop |
//! | `Avx2`   | x86-64 AVX2 + FMA     | 8 × 4, 8 `ymm` accumulators | 4 × 4, 8 `ymm` accumulators |
//! | `Avx512` | x86-64 AVX-512F       | 8 × 4, 4 `zmm` accumulators | 4 × 4, 4–8 `zmm` accumulators |
//! | `Neon`   | aarch64 NEON          | 8 × 4, 16 `v` accumulators  | 4 × 4, 16 `v` accumulators |
//!
//! The block shape is an associated const of the scalar type
//! ([`Scalar::MR`]/[`Scalar::NR`]): `f64` keeps the historical `8 × 4`,
//! while [`Complex64`](tileqr_matrix::Complex64) gets its own `4 × 4` block (16 complex = 32 doubles)
//! instead of reusing the f64 shape (64 doubles, which spilled on every
//! ISA). Because every output element's reduction over `k` stays sequential,
//! the block shape never changes results bitwise — only which elements are
//! computed together.
//!
//! # Selection
//!
//! [`active`] resolves the level once (runtime feature detection via
//! `is_x86_feature_detected!`/`is_aarch64_feature_detected!`, overridable
//! with the `TILEQR_SIMD` environment variable — `scalar`, `avx2`, `avx512`
//! or `neon`) and caches it in a process-global atomic, so the six `*_ws`
//! kernels, the session API and batching all inherit the choice with no
//! per-call detection cost. Tests and benchmarks can force a level
//! in-process with [`set_active`].
//!
//! # Numerical contract
//!
//! * The `Scalar` level is the historical generic microkernel, bit for bit.
//! * With the `fma` cargo feature **off**, the SIMD levels use unfused
//!   multiply + add intrinsics in the exact evaluation order of the scalar
//!   path, so **every level is bitwise identical** to the scalar fallback.
//! * With the `fma` cargo feature **on** (the default), the SIMD levels use
//!   fused multiply-add intrinsics: same reduction order, but products are
//!   no longer rounded before accumulation, so results differ from the
//!   scalar path in low-order bits (the factorization stays backward
//!   stable — it is still ordinary Householder arithmetic). The scalar
//!   fallback itself stays unfused on a generic x86-64 target (see
//!   [`Scalar::mul_acc`]), preserving bitwise compatibility with earlier
//!   releases.

use std::sync::atomic::{AtomicU8, Ordering};

use tileqr_matrix::Scalar;

/// Capacity of the stack accumulator block handed to the microkernels:
/// the largest `MR · NR` over the supported scalar types (f64's `8 × 4`).
pub const ACC_CAP: usize = 32;

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
    /// aarch64 NEON/ASIMD (128-bit `v` registers, baseline on aarch64).
    Neon = 4,
}

impl SimdLevel {
    /// The canonical lowercase name (`"scalar"`, `"avx2"`, `"avx512"`,
    /// `"neon"`) — the values `TILEQR_SIMD` accepts.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Neon => "neon",
        }
    }

    /// Parses a level name (case-insensitive); `None` for unknown names.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(SimdLevel::Scalar),
            "avx2" => Some(SimdLevel::Avx2),
            "avx512" | "avx512f" => Some(SimdLevel::Avx512),
            "neon" => Some(SimdLevel::Neon),
            _ => None,
        }
    }

    fn from_u8(v: u8) -> SimdLevel {
        match v {
            2 => SimdLevel::Avx2,
            3 => SimdLevel::Avx512,
            4 => SimdLevel::Neon,
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
    #[cfg(target_arch = "aarch64")]
    {
        if std::arch::is_aarch64_feature_detected!("neon") {
            return SimdLevel::Neon;
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
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => std::arch::is_aarch64_feature_detected!("neon"),
        #[allow(unreachable_patterns)]
        _ => false,
    }
}

/// Every level the running CPU supports, `Scalar` first.
pub fn available_levels() -> Vec<SimdLevel> {
    [
        SimdLevel::Scalar,
        SimdLevel::Avx2,
        SimdLevel::Avx512,
        SimdLevel::Neon,
    ]
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
// Dispatch
// ---------------------------------------------------------------------------

#[inline]
fn same_type<A: 'static, B: 'static>() -> bool {
    std::any::TypeId::of::<A>() == std::any::TypeId::of::<B>()
}

/// `acc[c·MR + r] += Σ_p ap[p·MR + r] · bp[p·NR + c]` for one register
/// block, through the `level` microkernel.
///
/// `ap`/`bp` are the `MR`-/`NR`-interleaved slabs produced by the packing
/// routines in [`crate::microblas`]; `acc` is the caller's stack block
/// (the leading `MR · NR` entries are live). Scalar types without an
/// explicit kernel for `level` (only `f64` and `Complex64` have them) fall
/// back to the generic scalar loop; the type test monomorphizes to a
/// constant, so the dispatch is branch-free after inlining.
#[inline]
pub(crate) fn ukernel<T: Scalar>(
    level: SimdLevel,
    k: usize,
    ap: &[T],
    bp: &[T],
    acc: &mut [T; ACC_CAP],
) {
    debug_assert!(T::MR * T::NR <= ACC_CAP, "register block exceeds ACC_CAP");
    debug_assert!(ap.len() >= k * T::MR, "A slab shorter than k·MR");
    debug_assert!(bp.len() >= k * T::NR, "B slab shorter than k·NR");
    match level {
        SimdLevel::Scalar => scalar_ukernel(k, ap, bp, acc),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 | SimdLevel::Avx512 => {
            if same_type::<T, f64>() {
                // SAFETY: T is f64 (same layout); `level` passed
                // `is_supported`, so the required ISA is present.
                unsafe {
                    let ap = std::slice::from_raw_parts(ap.as_ptr().cast::<f64>(), ap.len());
                    let bp = std::slice::from_raw_parts(bp.as_ptr().cast::<f64>(), bp.len());
                    let acc = &mut *(acc as *mut [T; ACC_CAP]).cast::<[f64; ACC_CAP]>();
                    if level == SimdLevel::Avx2 {
                        x86::f64_ukernel_avx2(k, ap, bp, acc);
                    } else {
                        x86::f64_ukernel_avx512(k, ap, bp, acc);
                    }
                }
            } else if same_type::<T, tileqr_matrix::Complex64>() {
                // SAFETY: T is Complex64, which is `#[repr(C)] { re: f64,
                // im: f64 }` — an interleaved f64 slice of twice the length.
                unsafe {
                    let ap = std::slice::from_raw_parts(ap.as_ptr().cast::<f64>(), 2 * ap.len());
                    let bp = std::slice::from_raw_parts(bp.as_ptr().cast::<f64>(), 2 * bp.len());
                    let acc = &mut *(acc as *mut [T; ACC_CAP]).cast::<[f64; 2 * ACC_CAP]>();
                    if level == SimdLevel::Avx2 {
                        x86::c64_ukernel_avx2(k, ap, bp, acc);
                    } else {
                        x86::c64_ukernel_avx512(k, ap, bp, acc);
                    }
                }
            } else {
                scalar_ukernel(k, ap, bp, acc)
            }
        }
        #[cfg(target_arch = "aarch64")]
        SimdLevel::Neon => {
            if same_type::<T, f64>() {
                // SAFETY: T is f64; NEON was detected (see `is_supported`).
                unsafe {
                    let ap = std::slice::from_raw_parts(ap.as_ptr().cast::<f64>(), ap.len());
                    let bp = std::slice::from_raw_parts(bp.as_ptr().cast::<f64>(), bp.len());
                    let acc = &mut *(acc as *mut [T; ACC_CAP]).cast::<[f64; ACC_CAP]>();
                    neon::f64_ukernel_neon(k, ap, bp, acc);
                }
            } else if same_type::<T, tileqr_matrix::Complex64>() {
                // SAFETY: as above; Complex64 is repr(C) {re, im}.
                unsafe {
                    let ap = std::slice::from_raw_parts(ap.as_ptr().cast::<f64>(), 2 * ap.len());
                    let bp = std::slice::from_raw_parts(bp.as_ptr().cast::<f64>(), 2 * bp.len());
                    let acc = &mut *(acc as *mut [T; ACC_CAP]).cast::<[f64; 2 * ACC_CAP]>();
                    neon::c64_ukernel_neon(k, ap, bp, acc);
                }
            } else {
                scalar_ukernel(k, ap, bp, acc)
            }
        }
        // A level whose arch module is compiled out can never be stored in
        // ACTIVE on this target (`is_supported` is cfg-gated the same way),
        // but the match must stay exhaustive for every target.
        #[allow(unreachable_patterns)]
        _ => scalar_ukernel(k, ap, bp, acc),
    }
}

/// The generic scalar register-block kernel — the portability baseline, and
/// (for `f64`'s unchanged `8 × 4` shape) bit-for-bit the historical
/// microkernel. The `MR · NR` accumulators form independent dependency
/// chains interleaved over the `k` loop, so autovectorized builds still get
/// instruction-level parallelism.
#[inline]
pub(crate) fn scalar_ukernel<T: Scalar>(k: usize, ap: &[T], bp: &[T], acc: &mut [T; ACC_CAP]) {
    let mr = T::MR;
    let nr = T::NR;
    for (a, b) in ap.chunks_exact(mr).zip(bp.chunks_exact(nr)).take(k) {
        for (c, &bv) in b.iter().enumerate() {
            for (r, &av) in a.iter().enumerate() {
                // `mul_acc` is mul+add by default and a single hardware
                // `vfmadd` only when the *compile-time* target guarantees
                // FMA (see `Scalar::mul_acc`) — on the generic portable
                // build this path stays bit-identical with history.
                acc[c * mr + r] = acc[c * mr + r].mul_acc(av, bv);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// x86-64 kernels (AVX2 + FMA, AVX-512F)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::ACC_CAP;
    use core::arch::x86_64::*;

    /// f64 `8 × 4` block on AVX2: 8 `ymm` accumulators (two per column),
    /// one broadcast per (k, column). With the `fma` cargo feature the
    /// update is a single `vfmadd`; without it, unfused mul + add in the
    /// scalar path's evaluation order (bitwise identical to it).
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA at runtime; `ap`/`bp` must hold at least
    /// `8·k` / `4·k` elements.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn f64_ukernel_avx2(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; ACC_CAP]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required ISA is present and `ap`/`bp`/`acc` are at least as large
        // as documented — so every intrinsic call and pointer offset below
        // is in bounds.
        unsafe {
            let mut c = [[_mm256_setzero_pd(); 2]; 4];
            for (j, cj) in c.iter_mut().enumerate() {
                cj[0] = _mm256_loadu_pd(acc.as_ptr().add(j * 8));
                cj[1] = _mm256_loadu_pd(acc.as_ptr().add(j * 8 + 4));
            }
            let mut a = ap.as_ptr();
            let mut b = bp.as_ptr();
            for _ in 0..k {
                let a0 = _mm256_loadu_pd(a);
                let a1 = _mm256_loadu_pd(a.add(4));
                for (j, cj) in c.iter_mut().enumerate() {
                    let bv = _mm256_broadcast_sd(&*b.add(j));
                    #[cfg(feature = "fma")]
                    {
                        cj[0] = _mm256_fmadd_pd(a0, bv, cj[0]);
                        cj[1] = _mm256_fmadd_pd(a1, bv, cj[1]);
                    }
                    #[cfg(not(feature = "fma"))]
                    {
                        cj[0] = _mm256_add_pd(cj[0], _mm256_mul_pd(a0, bv));
                        cj[1] = _mm256_add_pd(cj[1], _mm256_mul_pd(a1, bv));
                    }
                }
                a = a.add(8);
                b = b.add(4);
            }
            for (j, cj) in c.iter().enumerate() {
                _mm256_storeu_pd(acc.as_mut_ptr().add(j * 8), cj[0]);
                _mm256_storeu_pd(acc.as_mut_ptr().add(j * 8 + 4), cj[1]);
            }
        }
    }

    /// f64 `8 × 4` block on AVX-512F: one `zmm` accumulator per column
    /// (an 8-row column is exactly one 512-bit register).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; `ap`/`bp` must hold at least
    /// `8·k` / `4·k` elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn f64_ukernel_avx512(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; ACC_CAP]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required ISA is present and `ap`/`bp`/`acc` are at least as large
        // as documented — so every intrinsic call and pointer offset below
        // is in bounds.
        unsafe {
            let mut c = [_mm512_setzero_pd(); 4];
            for (j, cj) in c.iter_mut().enumerate() {
                *cj = _mm512_loadu_pd(acc.as_ptr().add(j * 8));
            }
            let mut a = ap.as_ptr();
            let mut b = bp.as_ptr();
            for _ in 0..k {
                let av = _mm512_loadu_pd(a);
                for (j, cj) in c.iter_mut().enumerate() {
                    let bv = _mm512_set1_pd(*b.add(j));
                    #[cfg(feature = "fma")]
                    {
                        *cj = _mm512_fmadd_pd(av, bv, *cj);
                    }
                    #[cfg(not(feature = "fma"))]
                    {
                        *cj = _mm512_add_pd(*cj, _mm512_mul_pd(av, bv));
                    }
                }
                a = a.add(8);
                b = b.add(4);
            }
            for (j, cj) in c.iter().enumerate() {
                _mm512_storeu_pd(acc.as_mut_ptr().add(j * 8), *cj);
            }
        }
    }

    /// Sign mask flipping the *even* (real-part) lanes of a 256-bit vector.
    ///
    /// Register-level only: the intrinsics are safe to call inside a
    /// matching `target_feature` fn, so no inner `unsafe` block is needed —
    /// the `unsafe fn` merely propagates the ISA-availability obligation.
    #[target_feature(enable = "avx2")]
    unsafe fn sign_even_256() -> __m256d {
        _mm256_castsi256_pd(_mm256_set_epi64x(0, i64::MIN, 0, i64::MIN))
    }

    /// Bitwise xor of two `zmm` f64 vectors through the integer domain.
    /// `_mm512_xor_pd` itself is an AVX-512**DQ** intrinsic: inside an
    /// `avx512f`-only function LLVM cannot inline it and emits an actual
    /// call in the inner loop (spilling every accumulator). The integer
    /// form is plain AVX-512F and identical bit for bit.
    #[target_feature(enable = "avx512f")]
    unsafe fn xor_pd_512(a: __m512d, b: __m512d) -> __m512d {
        // Register-level only; safe inside the matching `target_feature` fn.
        _mm512_castsi512_pd(_mm512_xor_epi64(
            _mm512_castpd_si512(a),
            _mm512_castpd_si512(b),
        ))
    }

    /// Complex64 `4 × 4` block on AVX2 (operands viewed as interleaved
    /// re/im f64 pairs): 8 `ymm` accumulators. Complex multiply-accumulate
    /// via the standard swap/addsub formulation:
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
    /// Requires AVX2 and FMA at runtime; `ap`/`bp` must hold at least
    /// `4·k` / `4·k` complex elements (`8·k` f64 each).
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn c64_ukernel_avx2(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; 2 * ACC_CAP]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required ISA is present and `ap`/`bp`/`acc` are at least as large
        // as documented — so every intrinsic call and pointer offset below
        // is in bounds.
        unsafe {
            let sign = sign_even_256();
            // Column j of the 4×4 complex block = 8 doubles at acc[j*8..].
            let mut c = [[_mm256_setzero_pd(); 2]; 4];
            for (j, cj) in c.iter_mut().enumerate() {
                cj[0] = _mm256_loadu_pd(acc.as_ptr().add(j * 8));
                cj[1] = _mm256_loadu_pd(acc.as_ptr().add(j * 8 + 4));
            }
            let mut a = ap.as_ptr();
            let mut b = bp.as_ptr();
            for _ in 0..k {
                let a0 = _mm256_loadu_pd(a); // rows 0,1: [re0 im0 re1 im1]
                let a1 = _mm256_loadu_pd(a.add(4)); // rows 2,3
                let s0 = _mm256_permute_pd(a0, 0b0101); // [im0 re0 im1 re1]
                let s1 = _mm256_permute_pd(a1, 0b0101);
                for (j, cj) in c.iter_mut().enumerate() {
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
                        let _ = sign;
                        let t2_0 = _mm256_mul_pd(s0, bim);
                        let t2_1 = _mm256_mul_pd(s1, bim);
                        cj[0] =
                            _mm256_add_pd(cj[0], _mm256_addsub_pd(_mm256_mul_pd(a0, bre), t2_0));
                        cj[1] =
                            _mm256_add_pd(cj[1], _mm256_addsub_pd(_mm256_mul_pd(a1, bre), t2_1));
                    }
                }
                a = a.add(8);
                b = b.add(8);
            }
            for (j, cj) in c.iter().enumerate() {
                _mm256_storeu_pd(acc.as_mut_ptr().add(j * 8), cj[0]);
                _mm256_storeu_pd(acc.as_mut_ptr().add(j * 8 + 4), cj[1]);
            }
        }
    }

    /// Complex64 `4 × 4` block on AVX-512F: a 4-complex column is exactly
    /// one `zmm`. The fused path keeps **two** accumulator chains per
    /// column (the `a·b_re` and `swap(a)·±b_im` partial sums, combined once
    /// at the end) so all eight FMA chains are independent; the unfused
    /// path keeps one chain per column in the exact scalar evaluation order
    /// (bitwise identical to the scalar fallback).
    ///
    /// # Safety
    ///
    /// Requires AVX-512F at runtime; `ap`/`bp` must hold at least
    /// `4·k` / `4·k` complex elements (`8·k` f64 each).
    #[target_feature(enable = "avx512f")]
    pub unsafe fn c64_ukernel_avx512(
        k: usize,
        ap: &[f64],
        bp: &[f64],
        acc: &mut [f64; 2 * ACC_CAP],
    ) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required ISA is present and `ap`/`bp`/`acc` are at least as large
        // as documented — so every intrinsic call and pointer offset below
        // is in bounds.
        unsafe {
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
            let mut a = ap.as_ptr();
            let mut b = bp.as_ptr();
            #[cfg(feature = "fma")]
            {
                let mut cre = [_mm512_setzero_pd(); 4];
                let mut cim = [_mm512_setzero_pd(); 4];
                for (j, cj) in cre.iter_mut().enumerate() {
                    *cj = _mm512_loadu_pd(acc.as_ptr().add(j * 8));
                }
                for _ in 0..k {
                    let av = _mm512_loadu_pd(a); // [re0 im0 .. re3 im3]
                    let sv = _mm512_permute_pd(av, 0x55); // [im0 re0 .. im3 re3]
                    for j in 0..4 {
                        let bre = _mm512_set1_pd(*b.add(2 * j));
                        let bpm = xor_pd_512(_mm512_set1_pd(*b.add(2 * j + 1)), sign);
                        cre[j] = _mm512_fmadd_pd(av, bre, cre[j]);
                        cim[j] = _mm512_fmadd_pd(sv, bpm, cim[j]);
                    }
                    a = a.add(8);
                    b = b.add(8);
                }
                for j in 0..4 {
                    _mm512_storeu_pd(acc.as_mut_ptr().add(j * 8), _mm512_add_pd(cre[j], cim[j]));
                }
            }
            #[cfg(not(feature = "fma"))]
            {
                let mut c = [_mm512_setzero_pd(); 4];
                for (j, cj) in c.iter_mut().enumerate() {
                    *cj = _mm512_loadu_pd(acc.as_ptr().add(j * 8));
                }
                for _ in 0..k {
                    let av = _mm512_loadu_pd(a);
                    let sv = _mm512_permute_pd(av, 0x55);
                    for (j, cj) in c.iter_mut().enumerate() {
                        let bre = _mm512_set1_pd(*b.add(2 * j));
                        let bim = _mm512_set1_pd(*b.add(2 * j + 1));
                        let t1 = _mm512_mul_pd(av, bre);
                        // t1 - t2 on real lanes / t1 + t2 on imaginary lanes,
                        // expressed as t1 + (t2 XOR -0.0 on real lanes): IEEE
                        // `x + (-y)` is bitwise `x - y`, so this matches the
                        // scalar complex multiply exactly.
                        let t2 = xor_pd_512(_mm512_mul_pd(sv, bim), sign);
                        *cj = _mm512_add_pd(*cj, _mm512_add_pd(t1, t2));
                    }
                    a = a.add(8);
                    b = b.add(8);
                }
                for (j, cj) in c.iter().enumerate() {
                    _mm512_storeu_pd(acc.as_mut_ptr().add(j * 8), *cj);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// aarch64 kernels (NEON/ASIMD)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::ACC_CAP;
    use core::arch::aarch64::*;

    /// f64 `8 × 4` block on NEON: 16 128-bit accumulators (four per
    /// column). `vfmaq_f64` is fused baseline hardware on aarch64; the
    /// unfused variant mirrors the scalar evaluation order bit for bit.
    ///
    /// # Safety
    ///
    /// Requires NEON at runtime (baseline on aarch64); `ap`/`bp` must hold
    /// at least `8·k` / `4·k` elements.
    #[target_feature(enable = "neon")]
    pub unsafe fn f64_ukernel_neon(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; ACC_CAP]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required ISA is present and `ap`/`bp`/`acc` are at least as large
        // as documented — so every intrinsic call and pointer offset below
        // is in bounds.
        unsafe {
            let mut c = [[vdupq_n_f64(0.0); 4]; 4];
            for (j, cj) in c.iter_mut().enumerate() {
                for (i, cji) in cj.iter_mut().enumerate() {
                    *cji = vld1q_f64(acc.as_ptr().add(j * 8 + 2 * i));
                }
            }
            let mut a = ap.as_ptr();
            let mut b = bp.as_ptr();
            for _ in 0..k {
                let av = [
                    vld1q_f64(a),
                    vld1q_f64(a.add(2)),
                    vld1q_f64(a.add(4)),
                    vld1q_f64(a.add(6)),
                ];
                for (j, cj) in c.iter_mut().enumerate() {
                    let bv = vdupq_n_f64(*b.add(j));
                    for (i, cji) in cj.iter_mut().enumerate() {
                        #[cfg(feature = "fma")]
                        {
                            *cji = vfmaq_f64(*cji, av[i], bv);
                        }
                        #[cfg(not(feature = "fma"))]
                        {
                            *cji = vaddq_f64(*cji, vmulq_f64(av[i], bv));
                        }
                    }
                }
                a = a.add(8);
                b = b.add(4);
            }
            for (j, cj) in c.iter().enumerate() {
                for (i, cji) in cj.iter().enumerate() {
                    vst1q_f64(acc.as_mut_ptr().add(j * 8 + 2 * i), *cji);
                }
            }
        }
    }

    /// Complex64 `4 × 4` block on NEON: each 128-bit register holds one
    /// complex element (`[re, im]`), 16 accumulators. Complex
    /// multiply-accumulate via the swapped-operand `[-b_im, +b_im]`
    /// formulation; the unfused variant matches the scalar complex multiply
    /// bit for bit (`x + (-y)` ≡ `x - y` in IEEE arithmetic).
    ///
    /// # Safety
    ///
    /// Requires NEON at runtime; `ap`/`bp` must hold at least `4·k` / `4·k`
    /// complex elements (`8·k` f64 each).
    #[target_feature(enable = "neon")]
    pub unsafe fn c64_ukernel_neon(k: usize, ap: &[f64], bp: &[f64], acc: &mut [f64; 2 * ACC_CAP]) {
        // SAFETY: the caller upholds the `# Safety` contract above — the
        // required ISA is present and `ap`/`bp`/`acc` are at least as large
        // as documented — so every intrinsic call and pointer offset below
        // is in bounds.
        unsafe {
            let mut c = [[vdupq_n_f64(0.0); 4]; 4];
            for (j, cj) in c.iter_mut().enumerate() {
                for (r, cjr) in cj.iter_mut().enumerate() {
                    *cjr = vld1q_f64(acc.as_ptr().add(j * 8 + 2 * r));
                }
            }
            let mut a = ap.as_ptr();
            let mut b = bp.as_ptr();
            for _ in 0..k {
                let av = [
                    vld1q_f64(a),
                    vld1q_f64(a.add(2)),
                    vld1q_f64(a.add(4)),
                    vld1q_f64(a.add(6)),
                ];
                let sv = [
                    vextq_f64(av[0], av[0], 1), // [im, re]
                    vextq_f64(av[1], av[1], 1),
                    vextq_f64(av[2], av[2], 1),
                    vextq_f64(av[3], av[3], 1),
                ];
                for (j, cj) in c.iter_mut().enumerate() {
                    let b_im = *b.add(2 * j + 1);
                    let bre = vdupq_n_f64(*b.add(2 * j));
                    let bpm = vcombine_f64(vdup_n_f64(-b_im), vdup_n_f64(b_im));
                    for (r, cjr) in cj.iter_mut().enumerate() {
                        #[cfg(feature = "fma")]
                        {
                            *cjr = vfmaq_f64(vfmaq_f64(*cjr, sv[r], bpm), av[r], bre);
                        }
                        #[cfg(not(feature = "fma"))]
                        {
                            let prod = vaddq_f64(vmulq_f64(av[r], bre), vmulq_f64(sv[r], bpm));
                            *cjr = vaddq_f64(*cjr, prod);
                        }
                    }
                }
                a = a.add(8);
                b = b.add(8);
            }
            for (j, cj) in c.iter().enumerate() {
                for (r, cjr) in cj.iter().enumerate() {
                    vst1q_f64(acc.as_mut_ptr().add(j * 8 + 2 * r), *cjr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_parsing_round_trip() {
        for l in [
            SimdLevel::Scalar,
            SimdLevel::Avx2,
            SimdLevel::Avx512,
            SimdLevel::Neon,
        ] {
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
        for l in [SimdLevel::Avx2, SimdLevel::Avx512, SimdLevel::Neon] {
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
    #[should_panic(expected = "not supported")]
    fn set_active_rejects_unsupported_levels() {
        // At most one of Avx2/Neon can be supported on any one target.
        let unsupported = if cfg!(target_arch = "x86_64") {
            SimdLevel::Neon
        } else {
            SimdLevel::Avx2
        };
        if is_supported(unsupported) {
            // Defensive: never possible, but keep the test honest.
            panic!("not supported (vacuous)");
        }
        set_active(unsupported);
    }
}
