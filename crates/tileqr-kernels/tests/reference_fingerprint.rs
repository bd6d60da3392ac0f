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
    (5, 1, 0x8289eb923212f8de, 0xff8742d7bb2bb628),
    (5, 3, 0x0e63965899bff9aa, 0x415c60746317d973),
    (5, 5, 0x39bf77a8c3e7d87a, 0x870d878639671616),
    (16, 1, 0xe22d7d917207f094, 0x4b56ec693a53f30c),
    (16, 3, 0x88ae5414f3f3af3f, 0xe8077e5a0efb7045),
    (16, 16, 0x354261de610ed462, 0x690dff9a678d190b),
    (19, 1, 0xd1cd02649cdfc394, 0xf0004e7bb26488d2),
    (19, 3, 0x81e1ade0d80430e1, 0x560dee24b9d69f70),
    (19, 16, 0xb4e69baaad160637, 0x38dc7458b3606638),
    (19, 19, 0xadd46ac71e62b732, 0xc97d699e6dd8d443),
    (64, 1, 0xf28c2c0b44500e4b, 0x68500af91d7fb32a),
    (64, 3, 0xcf300f7337fac4bc, 0x651c554716448958),
    (64, 16, 0x1bb104b2442b1fe5, 0xddf94b9254ec96da),
    (64, 32, 0x1f44131516c48ca8, 0x9335703124f64c23),
    (64, 64, 0x66849e9049094e68, 0x4f5b8bff282866a6),
    (128, 1, 0x00a8240d5c528b92, 0x395c3aa0c809848f),
    (128, 3, 0x2afa49cf4f4009c9, 0x4e3608e6030f53d1),
    (128, 16, 0x7421a491d27dccbf, 0x8de4afa8024d14da),
    (128, 32, 0x0fb4b36edb7c2904, 0x4368e7c790d6b83a),
    (128, 128, 0x05360b1083aaf999, 0x211023bc7425ba3b),
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
