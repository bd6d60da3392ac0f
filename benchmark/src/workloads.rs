//! The five workloads, their seeded inputs and the sizes of a run.
//!
//! Every workload is `f64`, default algorithm (Greedy), TT kernels and the
//! default scheduler; the program only ever sees the generated matrices.

use tiled_qr::kernels::flops::qr_flops;
use tiled_qr::matrix::generate::{random_matrix, random_vector};
use tiled_qr::matrix::norms::{frobenius_norm, vector_norm2};
use tiled_qr::matrix::rng::Rng;
use tiled_qr::matrix::Matrix;
use tiled_qr::runtime::driver::{qr_factorize, QrConfig};

/// One problem shape: an `m × n` matrix in tiles of order `nb`, factored in
/// inner panels of `ib` columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub m: usize,
    pub n: usize,
    pub nb: usize,
    pub ib: usize,
}

impl Shape {
    pub const fn new(m: usize, n: usize, nb: usize, ib: usize) -> Self {
        Shape { m, n, nb, ib }
    }

    /// The `--quick` stand-in: every dimension a quarter, so the tile grid,
    /// the plan and every code path stay the same at 1/64 of the flops.
    const fn quick(self) -> Self {
        Shape::new(self.m / 4, self.n / 4, self.nb / 4, self.ib / 4)
    }

    pub fn config(&self) -> QrConfig {
        QrConfig::new(self.nb).with_inner_block(self.ib)
    }

    /// Tile grid `(p, q)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.m.div_ceil(self.nb), self.n.div_ceil(self.nb))
    }

    /// `2mn² − ⅔n³`; every shape here is a whole number of tiles, so this is
    /// also the sum of the plan's task flops.
    pub fn factor_flops(&self) -> f64 {
        qr_flops(self.m, self.n)
    }

    /// Factorization plus `Qᴴb` (`4mn − 2n²`) and back substitution (`n²`)
    /// for one right-hand side.
    pub fn lstsq_flops(&self) -> f64 {
        let (m, n) = (self.m as f64, self.n as f64);
        self.factor_flops() + 4.0 * m * n - 2.0 * n * n + n * n
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A request is `QrContext::factorize` until the handle is dropped.
    Factor,
    /// A request is `least_squares_solve_with`, one right-hand side.
    Lstsq,
    /// Closed loop through `QrService`: [`CLIENTS`] tenants, each keeping
    /// [`OUTSTANDING`] tickets in flight.
    ServiceClosed,
    /// Open loop through `QrService` at [`PACED_ITEMS_PER_S`].
    ServicePaced,
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub shapes: &'static [Shape],
    quick_shapes: &'static [Shape],
}

impl Workload {
    /// The workload on its `--quick` shapes.
    pub fn quick(&self) -> Workload {
        Workload {
            shapes: self.quick_shapes,
            ..*self
        }
    }

    pub fn is_service(&self) -> bool {
        matches!(self.kind, Kind::ServiceClosed | Kind::ServicePaced)
    }

    /// Flops of one request on shape `si`.
    pub fn request_flops(&self, si: usize) -> f64 {
        match self.kind {
            Kind::Lstsq => self.shapes[si].lstsq_flops(),
            _ => self.shapes[si].factor_flops(),
        }
    }
}

/// Client threads (one tenant each) of the closed loop.
pub const CLIENTS: usize = 2;
/// Tickets each closed-loop client keeps outstanding.
pub const OUTSTANDING: usize = 8;
/// Offered load of `service_paced`, items per second. Fixed here — about half
/// of what the service sustains on the reference 2-vCPU host when items come
/// one at a time, as they do in this loop (see the README's calibration
/// note) — and never derived from a measurement of the same run.
pub const PACED_ITEMS_PER_S: f64 = 150.0;
/// Admission limit of a paced submission.
pub const PACED_ADMISSION_S: f64 = 5.0;

const TALL: Shape = Shape::new(4096, 512, 128, 32);
const SQUARE: Shape = Shape::new(1280, 1280, 128, 32);
const VERY_TALL: Shape = Shape::new(8192, 256, 128, 32);
const SERVICE_MIX: [Shape; 3] = [
    Shape::new(512, 128, 64, 16),
    Shape::new(384, 192, 64, 16),
    Shape::new(256, 256, 64, 16),
];
const SERVICE_MIX_QUICK: [Shape; 3] = [
    SERVICE_MIX[0].quick(),
    SERVICE_MIX[1].quick(),
    SERVICE_MIX[2].quick(),
];

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "tall_factor",
        why: "4096x512 nb=128 (p=32, q=4): the paper's tall regime; panel kernels and the reduction tree bound the rate, service idle",
        kind: Kind::Factor,
        shapes: &[TALL],
        quick_shapes: &[TALL.quick()],
    },
    Workload {
        name: "square_factor",
        why: "1280x1280 nb=128 (p=q=10): same layers, wide DAG; update kernels carry the weight, so a panel-only tuning shows as a loss",
        kind: Kind::Factor,
        shapes: &[SQUARE],
        quick_shapes: &[SQUARE.quick()],
    },
    Workload {
        name: "lstsq_tall",
        why: "8192x256 least squares, one rhs: the request users make; its sequential back half shows here and nowhere else",
        kind: Kind::Lstsq,
        shapes: &[VERY_TALL],
        quick_shapes: &[VERY_TALL.quick()],
    },
    Workload {
        name: "service_mixed",
        why: "closed loop, 2 tenants x 8 tickets, three small shapes at nb=64: capacity; dispatch, tickets, clone and fusing at their largest share",
        kind: Kind::ServiceClosed,
        shapes: &SERVICE_MIX,
        quick_shapes: &SERVICE_MIX_QUICK,
    },
    Workload {
        name: "service_paced",
        why: "open loop at a fixed 150 items/s (about half of unfused capacity), same mix, timed from due time: latency at load, where batching harder shows",
        kind: Kind::ServicePaced,
        shapes: &SERVICE_MIX,
        quick_shapes: &SERVICE_MIX_QUICK,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How much work one run does. `--seconds` sets the timed section; everything
/// else is fixed so both sides of a comparison do the same thing.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Length of the timed section.
    pub seconds: f64,
    /// Set-ups of the untraced pass, each from scratch; `setup_s` is their
    /// median and the timed section runs on the last.
    pub setups: usize,
    /// Warm-up requests of a library workload's set-up.
    pub warm_requests: usize,
    /// Warm-up items of a service workload's set-up.
    pub warm_items: usize,
    /// Inputs in rotation per shape, library workloads (4 × 16 MB is beyond
    /// the last-level cache) and service workloads.
    pub library_inputs: usize,
    pub service_inputs: usize,
    /// Whether a layer probe runs once, unrecorded, before it is timed.
    pub probe_warm: bool,
    /// Wall-clock budget of one layer probe: it repeats until this is spent
    /// and reports the median.
    pub probe_budget_s: f64,
}

impl Scale {
    pub fn full(seconds: f64) -> Self {
        Scale {
            seconds,
            setups: 5,
            warm_requests: 3,
            warm_items: 64,
            library_inputs: 4,
            service_inputs: 8,
            probe_warm: true,
            probe_budget_s: seconds / 50.0,
        }
    }

    /// `--quick` (with [`Workload::quick`] shapes): the same code paths in
    /// under two seconds per workload; the numbers are not comparable with a
    /// full run.
    pub fn quick() -> Self {
        Scale {
            seconds: 0.4,
            setups: 1,
            warm_requests: 1,
            warm_items: 8,
            library_inputs: 1,
            service_inputs: 2,
            probe_warm: false,
            probe_budget_s: 0.0,
        }
    }

    pub fn inputs_per_shape(&self, w: &Workload) -> usize {
        if w.is_service() {
            self.service_inputs
        } else {
            self.library_inputs
        }
    }
}

/// The generated inputs of one workload with their reference results.
pub struct Data {
    /// `mats[shape][input]`.
    pub mats: Vec<Vec<Matrix<f64>>>,
    /// `‖A‖_F` of every input.
    pub norms: Vec<Vec<f64>>,
    /// Reference `R` of every input, from the sequential one-shot driver
    /// (every execution path is bitwise identical to it by contract).
    pub refs: Vec<Vec<Matrix<f64>>>,
    /// Right-hand sides (`Kind::Lstsq` only), one per input of shape 0, with
    /// their norms.
    pub rhs: Vec<Vec<f64>>,
    pub rhs_norms: Vec<f64>,
}

fn input_seed(seed: u64, shape: usize, input: usize, what: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(((shape as u64) << 40) | ((input as u64) << 8) | what)
}

pub fn generate(w: &Workload, seed: u64, scale: &Scale) -> Data {
    let inputs = scale.inputs_per_shape(w);
    let mut data = Data {
        mats: Vec::new(),
        norms: Vec::new(),
        refs: Vec::new(),
        rhs: Vec::new(),
        rhs_norms: Vec::new(),
    };
    for (si, shape) in w.shapes.iter().enumerate() {
        let mats: Vec<Matrix<f64>> = (0..inputs)
            .map(|i| random_matrix(shape.m, shape.n, input_seed(seed, si, i, 0)))
            .collect();
        data.norms.push(mats.iter().map(frobenius_norm).collect());
        data.refs.push(
            mats.iter()
                .map(|a| qr_factorize(a, shape.config().with_threads(1)).r())
                .collect(),
        );
        data.mats.push(mats);
    }
    if w.kind == Kind::Lstsq {
        data.rhs = (0..inputs)
            .map(|i| random_vector(w.shapes[0].m, input_seed(seed, 0, i, 1)))
            .collect();
        data.rhs_norms = data.rhs.iter().map(|b| vector_norm2(b)).collect();
    }
    data
}

/// The seeded sequence of `(shape, input)` picks one traffic source draws:
/// shapes uniformly at random, inputs of a shape in rotation.
pub struct PickSeq {
    rng: Rng,
    next_input: Vec<usize>,
    inputs: usize,
}

impl PickSeq {
    /// `source` tells the traffic sources of one run apart.
    pub fn new(seed: u64, source: usize, shapes: usize, inputs: usize) -> Self {
        PickSeq {
            rng: Rng::seed_from_u64(input_seed(seed, 0, source, 2)),
            next_input: vec![0; shapes],
            inputs,
        }
    }
}

impl Iterator for PickSeq {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let si = (self.rng.next_u64() % self.next_input.len() as u64) as usize;
        let ii = self.next_input[si];
        self.next_input[si] = (ii + 1) % self.inputs;
        Some((si, ii))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let take = |seed, source| {
            PickSeq::new(seed, source, 3, 8)
                .take(200)
                .collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(2, 0));
        assert_ne!(take(1, 0), take(1, 1));
    }

    #[test]
    fn sequence_covers_every_shape_and_rotates_inputs() {
        let picks: Vec<_> = PickSeq::new(7, 0, 3, 4).take(300).collect();
        for si in 0..3 {
            let inputs: Vec<usize> = picks.iter().filter(|p| p.0 == si).map(|p| p.1).collect();
            assert!(inputs.len() > 60, "shape {si} drawn {} times", inputs.len());
            for (k, ii) in inputs.iter().enumerate() {
                assert_eq!(*ii, k % 4);
            }
        }
    }

    #[test]
    fn inputs_depend_on_the_seed_only() {
        const SMALL: [Shape; 1] = [Shape::new(24, 8, 4, 2)];
        let w = Workload {
            shapes: &SMALL,
            ..WORKLOADS[2]
        };
        let scale = Scale::quick();
        let (a, b, c) = (
            generate(&w, 3, &scale),
            generate(&w, 3, &scale),
            generate(&w, 4, &scale),
        );
        assert_eq!(a.mats[0][0], b.mats[0][0]);
        assert_eq!(a.rhs, b.rhs);
        assert_ne!(a.mats[0][0], c.mats[0][0]);
        assert_eq!(a.refs[0][0].shape(), (8, 8));
    }

    #[test]
    fn every_shape_is_a_whole_number_of_tiles() {
        for w in WORKLOADS.iter().flat_map(|w| [*w, w.quick()]) {
            for s in w.shapes {
                assert_eq!((s.m % s.nb, s.n % s.nb), (0, 0), "{}", w.name);
                let (p, q) = s.grid();
                let units = tiled_qr::kernels::flops::total_task_weight(p, q) as f64;
                let task_flops = units * (s.nb as f64).powi(3) / 3.0;
                assert!((task_flops - s.factor_flops()).abs() < 1e-6 * task_flops);
            }
        }
    }
}
