//! Layer probes of the traced pass: every layer timed from outside, through
//! its public functions, at the workload's own shape (the first shape of a
//! service mix), each under a span of the `probe` root.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use tiled_qr::core::dag::{TaskDag, TaskKind};
use tiled_qr::core::perfmodel::{predicted_rate, PredictionInput};
use tiled_qr::core::sim::simulate_unbounded;
use tiled_qr::kernels::blas::gemm_acc;
use tiled_qr::kernels::flops::{gemm_flops, KernelKind};
use tiled_qr::kernels::{geqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Trans, Workspace};
use tiled_qr::matrix::generate::random_matrix;
use tiled_qr::matrix::{Matrix, TiledMatrix};
use tiled_qr::runtime::driver::{elimination_list_for, qr_factorize};
use tiled_qr::runtime::executor::{execute_parallel_with_scheduler, execute_sequential_with};
use tiled_qr::runtime::state::FactorizationState;
use tiled_qr::runtime::{QrContext, QrPlan, SchedulerKind};

use crate::spans::{now_ns, secs, Recorder};
use crate::stats::median;
use crate::workloads::{Data, Scale, Shape, Workload};

/// Fused width of the `context.batch_into_item_s` probe (the service's
/// default `max_group`).
const BATCH_WIDTH: usize = 8;
/// Most repetitions of one probe, however short it is.
const MAX_REPS: usize = 1000;

/// The TT-family kernels a default plan runs, in ledger order.
pub const KERNELS: [KernelKind; 4] = [
    KernelKind::Geqrt,
    KernelKind::Ttqrt,
    KernelKind::Unmqr,
    KernelKind::Ttmqr,
];

fn kernel_index(task: TaskKind) -> usize {
    match task {
        TaskKind::Geqrt { .. } => 0,
        TaskKind::Ttqrt { .. } => 1,
        TaskKind::Unmqr { .. } => 2,
        TaskKind::Ttmqr { .. } => 3,
        TaskKind::Tsqrt { .. } | TaskKind::Tsmqr { .. } => {
            unreachable!("the benchmark's plans use the TT kernel family")
        }
    }
}

/// Raw numbers of the probes; `ledger` turns them into the per-layer metrics.
#[derive(Default)]
pub struct Probes {
    pub tile_fill_s: f64,
    pub input_clone_s: f64,
    /// Isolated seconds per call of each of [`KERNELS`], and of the GEMM
    /// reference.
    pub kernel_s: [f64; 4],
    pub gemm_s: f64,
    /// Tasks of each of [`KERNELS`] in the plan.
    pub kernel_count: [u64; 4],
    pub plan_build_s: f64,
    pub tasks: usize,
    pub total_weight: u64,
    pub critical_path: u64,
    pub seq_dag_s: f64,
    /// Seconds inside each of [`KERNELS`] during the last sequential DAG run.
    pub busy_s: [f64; 4],
    pub scoped_s: f64,
    /// `1 − Σ busy / (P · makespan)` of the last scoped run.
    pub idle_fraction: f64,
    pub context_new_s: f64,
    pub cold_request_s: f64,
    pub into_t1_s: f64,
    pub into_tp_s: f64,
    pub factorize_tp_s: f64,
    pub batch_item_s: f64,
    pub oneshot_s: f64,
    pub r_extract_s: f64,
    /// `Qᴴ` applied to one column.
    pub apply_qh_s: f64,
}

impl Probes {
    /// Σ count × isolated time over the plan's tasks: the time the kernels
    /// alone would take, one after the other, on warm tiles.
    pub fn isolated_total_s(&self) -> f64 {
        (0..KERNELS.len())
            .map(|k| self.kernel_count[k] as f64 * self.kernel_s[k])
            .sum()
    }

    /// The paper's `γ_pred = γ_seq · T / max(T/P, cp)` for this plan.
    pub fn predicted_gflops(&self, gamma_seq: f64, threads: usize) -> f64 {
        predicted_rate(PredictionInput {
            total_weight: self.total_weight,
            critical_path: self.critical_path,
            processors: threads,
            gamma_seq,
        })
    }
}

/// Runs `once` (which returns the seconds of its timed part) once to warm
/// up, then at least once more and until the probe budget is spent, and
/// returns the median of the timed repetitions.
fn repeat(scale: &Scale, mut once: impl FnMut() -> f64) -> f64 {
    if scale.probe_warm {
        once();
    }
    let start = now_ns();
    let mut seen = vec![once()];
    while seen.len() < MAX_REPS && secs(start, now_ns()) < scale.probe_budget_s {
        seen.push(once());
    }
    median(&seen)
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = now_ns();
    let out = f();
    (secs(t0, now_ns()), out)
}

fn kernel_probes(shape: &Shape, scale: &Scale, out: &mut Probes) {
    let (nb, ib) = (shape.nb, shape.ib);
    let mut ws = Workspace::<f64>::with_inner_block(nb, ib);
    let a0: Matrix<f64> = random_matrix(nb, nb, 11);
    let b0: Matrix<f64> = random_matrix(nb, nb, 12);
    let refill = |dst: &mut Matrix<f64>, src: &Matrix<f64>| {
        dst.as_mut_slice().copy_from_slice(src.as_slice());
    };
    let zero = |t: &mut Matrix<f64>| t.as_mut_slice().fill(0.0);

    // GEQRT; its output (V below the diagonal, R above, and T) feeds UNMQR.
    let (mut v, mut t) = (a0.clone(), Matrix::zeros(ib, nb));
    out.kernel_s[0] = repeat(scale, || {
        refill(&mut v, &a0);
        zero(&mut t);
        timed(|| geqrt_ws(&mut v, &mut t, &mut ws)).0
    });
    let mut c = b0.clone();
    out.kernel_s[2] = repeat(scale, || {
        refill(&mut c, &b0);
        timed(|| unmqr_ws(&v, &t, &mut c, Trans::ConjTrans, &mut ws)).0
    });

    // TTQRT on two tiles as GEQRT leaves them; its output feeds TTMQR.
    let (mut low0, mut t_low) = (b0.clone(), Matrix::zeros(ib, nb));
    geqrt_ws(&mut low0, &mut t_low, &mut ws);
    let (mut r1, mut r2, mut t2) = (v.clone(), low0.clone(), Matrix::zeros(ib, nb));
    out.kernel_s[1] = repeat(scale, || {
        refill(&mut r1, &v);
        refill(&mut r2, &low0);
        zero(&mut t2);
        timed(|| ttqrt_ws(&mut r1, &mut r2, &mut t2, &mut ws)).0
    });
    let (mut c1, mut c2) = (a0.clone(), b0.clone());
    out.kernel_s[3] = repeat(scale, || {
        refill(&mut c1, &a0);
        refill(&mut c2, &b0);
        timed(|| ttmqr_ws(&r2, &t2, &mut c1, &mut c2, Trans::ConjTrans, &mut ws)).0
    });

    let mut acc = Matrix::zeros(nb, nb);
    out.gemm_s = repeat(scale, || timed(|| gemm_acc(&mut acc, &a0, &b0)).0);
}

fn executor_probes(
    shape: &Shape,
    a: &Matrix<f64>,
    dag: &TaskDag,
    threads: usize,
    scale: &Scale,
    out: &mut Probes,
) {
    let (nb, ib) = (shape.nb, shape.ib);
    let fresh_state =
        || FactorizationState::with_inner_block(TiledMatrix::from_dense_padded(a, nb), ib);

    let mut ws = Workspace::<f64>::with_inner_block(nb, ib);
    out.seq_dag_s = repeat(scale, || {
        let state = fresh_state();
        let mut busy_ns = [0u64; 4];
        let (s, ()) = timed(|| {
            execute_sequential_with(dag, &mut ws, |task, ws| {
                let t0 = now_ns();
                state.run_ws(task, ws);
                busy_ns[kernel_index(task)] += now_ns() - t0;
            })
        });
        out.busy_s = busy_ns.map(|ns| ns as f64 * 1e-9);
        s
    });

    out.scoped_s = repeat(scale, || {
        let state = fresh_state();
        let busy_ns = AtomicU64::new(0);
        let (s, ()) = timed(|| {
            execute_parallel_with_scheduler(
                dag,
                threads,
                SchedulerKind::default(),
                || Workspace::<f64>::with_inner_block(nb, ib),
                |task, ws| {
                    let t0 = now_ns();
                    state.run_ws(task, ws);
                    // A statistic read after the workers have joined.
                    busy_ns.fetch_add(now_ns() - t0, Ordering::Relaxed);
                },
            )
        });
        let busy_s = busy_ns.load(Ordering::Relaxed) as f64 * 1e-9;
        out.idle_fraction = 1.0 - busy_s / (threads as f64 * s);
        s
    });
}

fn context_probes(w: &Workload, data: &Data, threads: usize, scale: &Scale, out: &mut Probes) {
    let shape = &w.shapes[0];
    let a = &data.mats[0][0];
    let new_plan = || QrPlan::<f64>::new(shape.m, shape.n, shape.config()).expect("a valid shape");
    let new_ctx = |threads| QrContext::new(threads).expect("the pool starts");

    out.context_new_s = repeat(scale, || timed(|| new_ctx(threads)).0);
    out.cold_request_s = repeat(scale, || {
        let (ctx, plan) = (new_ctx(threads), new_plan());
        timed(|| drop(ctx.factorize(&plan, a))).0
    });

    let plan = new_plan();
    let (p, q) = shape.grid();
    let mut tiled = TiledMatrix::zeros(p, q, shape.nb);
    out.tile_fill_s = repeat(scale, || timed(|| tiled.fill_from_dense_padded(a)).0);
    out.input_clone_s = repeat(scale, || timed(|| drop(black_box(a.clone()))).0);
    let mut factorize_into = |ctx: &QrContext| {
        repeat(scale, || {
            tiled.fill_from_dense_padded(a);
            let (s, reflectors) = timed(|| ctx.factorize_into(&plan, &mut tiled));
            reflectors.expect("the probe factorization succeeds");
            s
        })
    };
    out.into_t1_s = factorize_into(&new_ctx(1));
    let ctx = new_ctx(threads);
    out.into_tp_s = factorize_into(&ctx);
    out.factorize_tp_s = repeat(scale, || timed(|| drop(ctx.factorize(&plan, a))).0);

    // The compute floor under the service: a fused batch of each shape of
    // the mix, averaged (the mix draws its shapes uniformly).
    let mut per_item = Vec::new();
    for (si, s) in w.shapes.iter().enumerate() {
        let plan = QrPlan::<f64>::new(s.m, s.n, s.config()).expect("a valid shape");
        let (p, q) = s.grid();
        let mut batch: Vec<_> = (0..BATCH_WIDTH)
            .map(|_| TiledMatrix::zeros(p, q, s.nb))
            .collect();
        let inputs = &data.mats[si];
        per_item.push(repeat(scale, || {
            for (k, t) in batch.iter_mut().enumerate() {
                t.fill_from_dense_padded(&inputs[k % inputs.len()]);
            }
            let (secs, results) = timed(|| ctx.factorize_batch_into(&plan, &mut batch));
            assert!(
                results.iter().all(Result::is_ok),
                "the probe batch succeeds"
            );
            secs / BATCH_WIDTH as f64
        }));
    }
    out.batch_item_s = per_item.iter().sum::<f64>() / per_item.len() as f64;

    let oneshot = || qr_factorize(a, shape.config().with_threads(threads));
    out.oneshot_s = repeat(scale, || timed(|| drop(oneshot())).0);
    let f = oneshot();
    out.r_extract_s = repeat(scale, || timed(|| drop(black_box(f.r()))).0);
    let b: Matrix<f64> = random_matrix(shape.m, 1, 13);
    out.apply_qh_s = repeat(scale, || timed(|| drop(black_box(f.apply_qh(&b)))).0);
}

/// Runs every probe, each layer under a span of the `probe` root.
pub fn run_probes(
    w: &Workload,
    data: &Data,
    threads: usize,
    scale: &Scale,
    rec: &mut Recorder,
) -> Probes {
    let root = rec.open();
    let root_start = now_ns();
    let shape = &w.shapes[0];
    let a = &data.mats[0][0];
    let mut out = Probes::default();

    rec.span("probe.kernels", root, root, || {
        kernel_probes(shape, scale, &mut out)
    });

    let (p, q) = shape.grid();
    let config = shape.config();
    let dag = rec.span("probe.core", root, root, || {
        out.plan_build_s = repeat(scale, || {
            timed(|| QrPlan::<f64>::new(shape.m, shape.n, config)).0
        });
        TaskDag::build(&elimination_list_for(config.algorithm, p, q), config.family)
    });
    out.tasks = dag.len();
    out.total_weight = dag.total_weight();
    out.critical_path = simulate_unbounded(&dag).critical_path;
    for task in &dag.tasks {
        out.kernel_count[kernel_index(task.kind)] += 1;
    }

    rec.span("probe.executor", root, root, || {
        executor_probes(shape, a, &dag, threads, scale, &mut out)
    });
    rec.span("probe.context", root, root, || {
        context_probes(w, data, threads, scale, &mut out)
    });

    rec.close(root, 0, root, "probe", root_start, now_ns());
    out
}

/// Nominal flops of applying `Qᴴ` to one column: `4mn − 2n²`.
pub fn apply_qh_flops(shape: &Shape) -> f64 {
    let (m, n) = (shape.m as f64, shape.n as f64);
    4.0 * m * n - 2.0 * n * n
}

/// Isolated GFLOP/s of each of [`KERNELS`] and of the GEMM reference.
pub fn kernel_gflops(shape: &Shape, probes: &Probes) -> ([f64; 4], f64) {
    let mut rates = [0.0; 4];
    for (k, kind) in KERNELS.iter().enumerate() {
        rates[k] = kind.flops(shape.nb) / probes.kernel_s[k] / 1e9;
    }
    (rates, gemm_flops(shape.nb) / probes.gemm_s / 1e9)
}
