//! Bit-for-bit fingerprint of the reference arithmetic of the six tile
//! kernels.
//!
//! One pass factors a GEQRT tile, a TS pair and a TT pair with the `*_ws`
//! kernels and applies each reflector block, in both transposes, to targets
//! of width 1, `nb` and `nb + 3`; every output bit (tiles, `T` factors,
//! targets) is folded into a 64-bit FNV-1a hash and compared against the
//! committed constant for its `(nb, ib, scalar)` cell. The pivot tiles carry
//! random data below their diagonal, as they do in a real factorization
//! (GEQRT's `V`), and the annihilated TT tile does too, so a kernel that
//! reads or writes that storage changes the hash.
//!
//! A refactor of the kernels that keeps this suite green changed no
//! floating-point operation and no operand order. A change that moves the
//! reference on purpose re-pins the table: a failing run prints every cell
//! in the table's own syntax.
//!
//! The suite forces the scalar level ([`simd::set_active`]), the one level
//! every CPU runs. That level is process-global, so the suite has its own
//! test binary, and every test here forces the same level. It is compiled
//! out where the scalar level itself fuses multiply-adds (the `fma` feature
//! on a target with hardware FMA — see `Scalar::mul_acc`), because that
//! build rounds differently from the portable one the constants pin.
#![cfg(not(all(feature = "fma", any(target_feature = "fma", target_arch = "aarch64"))))]

use tileqr_kernels::simd::{self, SimdLevel};
use tileqr_kernels::{
    geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Trans, Workspace,
};
use tileqr_matrix::generate::{random_matrix, RandomScalar};
use tileqr_matrix::{Complex64, Matrix};

/// The scalar types the fingerprint covers, with the raw bits of an element.
trait Bits: RandomScalar {
    fn words(self) -> [u64; 2];
}

impl Bits for f64 {
    fn words(self) -> [u64; 2] {
        [self.to_bits(), 0]
    }
}

impl Bits for Complex64 {
    fn words(self) -> [u64; 2] {
        [self.re.to_bits(), self.im.to_bits()]
    }
}

/// 64-bit FNV-1a over the shapes and element bits of a sequence of matrices.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix<T: Bits>(&mut self, m: &Matrix<T>) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for &x in m.as_slice() {
            let [a, b] = x.words();
            self.word(a);
            self.word(b);
        }
    }
}

/// A square tile with random data everywhere, upper triangle included.
fn tile<T: RandomScalar>(nb: usize, seed: u64) -> Matrix<T> {
    random_matrix(nb, nb, seed)
}

/// All six kernels at `(nb, ib)`, hashed in a fixed order.
fn fingerprint<T: Bits>(nb: usize, ib: usize) -> u64 {
    let seed = 7919 * nb as u64 + ib as u64;
    let mut ws: Workspace<T> = Workspace::with_inner_block(nb, ib);
    let t_rows = ib.min(nb);
    let widths = [1, nb, nb + 3];
    let mut h = Fnv::new();

    // GEQRT + UNMQR
    let mut v = tile::<T>(nb, seed);
    let mut t = Matrix::zeros(t_rows, nb);
    geqrt_ws(&mut v, &mut t, &mut ws);
    h.matrix(&v);
    h.matrix(&t);
    for (k, &width) in widths.iter().enumerate() {
        for trans in [Trans::ConjTrans, Trans::NoTrans] {
            let mut c: Matrix<T> = random_matrix(nb, width, seed + 10 + k as u64);
            unmqr_ws(&v, &t, &mut c, trans, &mut ws);
            h.matrix(&c);
        }
    }

    // TSQRT + TSMQR: R1's strictly lower half stands in for GEQRT's V.
    let mut r1 = tile::<T>(nb, seed + 1);
    let mut v2 = tile::<T>(nb, seed + 2);
    let mut t = Matrix::zeros(t_rows, nb);
    tsqrt_ws(&mut r1, &mut v2, &mut t, &mut ws);
    h.matrix(&r1);
    h.matrix(&v2);
    h.matrix(&t);
    for (k, &width) in widths.iter().enumerate() {
        for trans in [Trans::ConjTrans, Trans::NoTrans] {
            let mut c1: Matrix<T> = random_matrix(nb, width, seed + 20 + k as u64);
            let mut c2: Matrix<T> = random_matrix(nb, width, seed + 30 + k as u64);
            tsmqr_ws(&v2, &t, &mut c1, &mut c2, trans, &mut ws);
            h.matrix(&c1);
            h.matrix(&c2);
        }
    }

    // TTQRT + TTMQR: both tiles hold foreign data below their diagonals.
    let mut r1 = tile::<T>(nb, seed + 3);
    let mut r2 = tile::<T>(nb, seed + 4);
    let mut t = Matrix::zeros(t_rows, nb);
    ttqrt_ws(&mut r1, &mut r2, &mut t, &mut ws);
    h.matrix(&r1);
    h.matrix(&r2);
    h.matrix(&t);
    for (k, &width) in widths.iter().enumerate() {
        for trans in [Trans::ConjTrans, Trans::NoTrans] {
            let mut c1: Matrix<T> = random_matrix(nb, width, seed + 40 + k as u64);
            let mut c2: Matrix<T> = random_matrix(nb, width, seed + 50 + k as u64);
            ttmqr_ws(&r2, &t, &mut c1, &mut c2, trans, &mut ws);
            h.matrix(&c1);
            h.matrix(&c2);
        }
    }
    h.0
}

const NBS: [usize; 6] = [1, 5, 16, 19, 64, 128];

/// The inner blocking factors `{1, 3, 16, 32, nb}` of a tile order, each
/// once (the workspace clamps `ib` to `nb`).
fn ibs(nb: usize) -> impl Iterator<Item = usize> {
    [1, 3, 16, 32]
        .into_iter()
        .filter(move |&ib| ib < nb)
        .chain([nb])
}

/// `(nb, ib, f64 hash, Complex64 hash)`, measured at the scalar level.
const PINS: &[(usize, usize, u64, u64)] = &[
    (1, 1, 0x3fb0154f28e0f47c, 0xe20c24b0ab6ff22a),
    (5, 1, 0xbaa0008688a2ddd4, 0xe610ebf002194a42),
    (5, 3, 0x0e63965899bff9aa, 0x677d6c4d73b64685),
    (5, 5, 0x1f3099aaff1be491, 0xcb4c4f2b1ce1f55c),
    (16, 1, 0x5864e47c38c59a57, 0x9631f068adca67aa),
    (16, 3, 0xe8edf4b867fb7224, 0x0b87e8a3503f8458),
    (16, 16, 0x5408cdafa0bc7b16, 0x8d2f04c84013c46e),
    (19, 1, 0xfcec59c8660015a3, 0x2df6287639fd6385),
    (19, 3, 0x870b6ad3263a7113, 0xd6bcd512dbd2a7fc),
    (19, 16, 0x09fdb250bf3b46ab, 0x07dee5fdfd3b632d),
    (19, 19, 0x891c5c23bfb51882, 0xdd16c2dbd476f086),
    (64, 1, 0x1cbcef9c253f75ca, 0x7fe2a925cb355895),
    (64, 3, 0xe0134f3c7fe4000b, 0x330d3efa11398ccf),
    (64, 16, 0xf816a363c354e6f0, 0x2c8f564907f662a1),
    (64, 32, 0x828a6b4f57315108, 0x96a71a89b0897f45),
    (64, 64, 0xdff30c14d70326c1, 0x1f762e852ad63b92),
    (128, 1, 0xc2aee1ef46a9dcdc, 0x511f490da934edcc),
    (128, 3, 0x9cd5a8906059edb5, 0x07c4a75b548c105b),
    (128, 16, 0x7afafca25100c56f, 0x8d4a1716d521ddc3),
    (128, 32, 0x6011303a0e562d33, 0x648c8206c22c1e24),
    (128, 128, 0x0357ebe2007843b3, 0x76ae11614ee063cd),
];

fn check(nbs: &[usize]) {
    simd::set_active(SimdLevel::Scalar);
    let mut failures = Vec::new();
    for &nb in nbs {
        for ib in ibs(nb) {
            let got = (fingerprint::<f64>(nb, ib), fingerprint::<Complex64>(nb, ib));
            let pinned = PINS
                .iter()
                .find(|p| (p.0, p.1) == (nb, ib))
                .map(|p| (p.2, p.3));
            if pinned != Some(got) {
                failures.push(format!(
                    "    ({nb}, {ib}, 0x{:016x}, 0x{:016x}),",
                    got.0, got.1
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "kernel outputs differ from the pinned reference arithmetic; measured:\n{}",
        failures.join("\n")
    );
}

#[test]
fn small_tiles_match_the_pinned_reference() {
    check(&NBS[..4]);
}

#[test]
fn nb_64_matches_the_pinned_reference() {
    check(&NBS[4..5]);
}

#[test]
fn nb_128_matches_the_pinned_reference() {
    check(&NBS[5..]);
}
