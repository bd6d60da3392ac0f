//! Verifies the zero-allocation guarantee of the executor hot loop with a
//! counting global allocator: once the DAG, the factorization state (tiles +
//! preallocated `T` factors) and the ready queue are built, executing the
//! tasks must not allocate **per task** — only a constant number of setup
//! allocations per run (thread spawns, one workspace per worker) is allowed.
//!
//! The test runs a small DAG and a much larger DAG with the same worker
//! count and asserts the allocation counts inside
//! `execute_parallel_with_scheduler` are essentially identical: if any task allocated, the large run would
//! exceed the small one by at least the task-count difference (hundreds).
//! The session-API probes after it pin the steady state of a batch loop
//! (allocation count, plain and with the robustness layer armed) and of a
//! stream of fused solves (allocation volume).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use tileqr_core::algorithms::Algorithm;
use tileqr_core::dag::TaskDag;
use tileqr_core::KernelFamily;
use tileqr_kernels::Workspace;
use tileqr_matrix::generate::random_matrix;
use tileqr_matrix::{Matrix, TiledMatrix};
use tileqr_runtime::driver::QrConfig;
use tileqr_runtime::executor::{
    execute_parallel_with_scheduler, execute_sequential_with, SchedulerKind,
};
use tileqr_runtime::state::FactorizationState;
use tileqr_runtime::{QrContext, QrPlan};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes requested, for the probes that ask about allocation *volume*.
static BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: pure pass-through to `System` plus relaxed counter bumps — the
// layout/pointer contracts the caller upholds for us transfer unchanged to
// the delegated calls, and the counters themselves never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is the caller's valid, non-zero-size layout,
        // forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc`/`realloc` above, which
        // delegate to `System`, with the same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: same provenance argument as `dealloc`; `new_size` is the
        // caller's requested size, forwarded verbatim.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn allocations_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

fn bytes_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = BYTES.load(Ordering::SeqCst);
    let out = f();
    (BYTES.load(Ordering::SeqCst) - before, out)
}

/// Runs a full Greedy/TT factorization of a p×q tile grid through the
/// parallel executor with the given scheduler and returns the number of
/// allocations performed inside the execute call only (setup excluded).
fn parallel_run_allocations(
    p: usize,
    q: usize,
    nb: usize,
    ib: usize,
    threads: usize,
) -> (usize, usize) {
    let a = random_matrix::<f64>(p * nb, q * nb, 7);
    let tiled = TiledMatrix::from_dense(&a, nb);
    let dag = TaskDag::build(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT);
    let state = FactorizationState::with_inner_block(tiled, ib);
    let (allocs, ()) = allocations_during(|| {
        execute_parallel_with_scheduler(
            &dag,
            threads,
            SchedulerKind::default(),
            || Workspace::<f64>::with_inner_block(nb, ib),
            |task, ws| state.run_ws(task, ws),
        );
    });
    (allocs, dag.len())
}

// The allocation counter is process-global, so everything runs inside one
// `#[test]` — libtest schedules separate tests on parallel threads, and even
// its own thread spawning would pollute a concurrent measurement window.
#[test]
fn hot_loops_do_not_allocate_per_task() {
    // ib = nb (unblocked) and ib < nb (micro-BLAS pack buffers and the
    // trailing panel updates in play): the inner-blocked kernels must stay
    // zero-allocation too — every panel buffer is preallocated in the
    // workspace.
    parallel_check(4);
    parallel_check(2);
    let plain = batch_check(None);
    let armed = batch_check(Some(Duration::from_secs(60)));
    assert!(
        plain == armed,
        "the armed batch loop must factor bit for bit like the plain one"
    );
    solve_check();
    sequential_check();
}

/// A warmed-up stream of fused solves ([`QrContext::solve`]) must allocate
/// nothing of `m · n` scale: the tile buffer is parked in the plan between
/// solves and the `T` storage recycles, so what a request still allocates is
/// the right-hand side (`m · k`), `R` (`n²`) and per-task bookkeeping. The
/// first solve of a plan pays for the tiles and the `T` factors, which shows
/// the probe would see them.
fn solve_check() {
    let (p, q, nb, k) = (12usize, 2usize, 32usize, 1usize);
    let (m, n) = (p * nb, q * nb);
    let matrix_bytes = m * n * std::mem::size_of::<f64>();
    let ctx = QrContext::new(3).expect("valid thread count");
    let plan: QrPlan<f64> = QrPlan::new(m, n, QrConfig::new(nb)).expect("valid shape");
    let mats: Vec<Matrix<f64>> = (0..3).map(|i| random_matrix(m, n, 90 + i)).collect();
    let b: Matrix<f64> = random_matrix(m, k, 99);
    let solve = |a: &Matrix<f64>| bytes_during(|| ctx.solve(&plan, a, &b).expect("full rank")).0;
    let cold = solve(&mats[0]);
    assert!(
        cold >= matrix_bytes,
        "the first solve allocates its tiles: {cold} bytes for a {matrix_bytes}-byte matrix"
    );
    solve(&mats[1]);
    for a in &mats {
        let warm = solve(a);
        assert!(
            warm < matrix_bytes / 2,
            "a warmed-up solve allocated {warm} bytes; the matrix is {matrix_bytes}"
        );
    }
}

/// One steady-state iteration of the allocation-free batch loop: refill the
/// tile buffers, factor them in place as one fused pool job (under the
/// context's bounds), and drop the results — which is what returns the `T`
/// storage to the plan's pool. Returns the allocations performed inside the
/// loop body.
fn batch_steady_state_allocations(
    ctx: &QrContext,
    plan: &QrPlan<f64>,
    mats: &[Matrix<f64>],
    tiles: &mut [TiledMatrix<f64>],
) -> usize {
    let (allocs, ()) = allocations_during(|| {
        for (t, a) in tiles.iter_mut().zip(mats) {
            t.fill_from_dense_padded(a);
        }
        for r in ctx.factorize_batch_into(plan, tiles) {
            drop(r.expect("conforming buffers must factor"));
        }
    });
    allocs
}

/// The batch hot path — `factorize_batch_into` over a warm plan, results
/// dropped — must perform **zero allocations that scale with the tile
/// grid or the task count**: the kernels run against recycled `T` buffers
/// and cached workspaces, and the fused-DAG bookkeeping is a handful of
/// O(batch) vectors. Two probes:
///
/// 1. same batch width, small vs. large DAG (57 vs. 768 tasks, 6 vs. 60
///    tiles): allocation counts must be essentially identical;
/// 2. the absolute steady-state count must undercut the 2 · p · q `T`-factor
///    allocations a single *non-recycled* matrix would need — direct
///    evidence the recycle pool, not the allocator, feeds the `T` slots.
///
/// With a `deadline`, the loop runs with the robustness layer armed: the
/// context bounds every job by that live deadline and has the stall
/// watchdog on. Returns the bits of the factored tiles of the large probe.
fn batch_check(deadline: Option<Duration>) -> Vec<u64> {
    let nb = 4;
    let k = 3;
    let threads = 3;
    let mut ctx = QrContext::new(threads).expect("valid thread count");
    if let Some(timeout) = deadline {
        ctx = ctx
            .with_watchdog(Duration::from_secs(5))
            .with_deadline(timeout);
    }
    let steady = |p: usize, q: usize| -> (usize, Vec<u64>) {
        let plan: QrPlan<f64> =
            QrPlan::new(p * nb, q * nb, QrConfig::new(nb)).expect("valid shape");
        let mats: Vec<Matrix<f64>> = (0..k)
            .map(|i| random_matrix(p * nb, q * nb, 70 + i as u64))
            .collect();
        let mut tiles: Vec<TiledMatrix<f64>> = mats
            .iter()
            .map(|a| TiledMatrix::from_dense_padded(a, nb))
            .collect();
        // Warm-up: fills the plan's workspace cache and T-factor pool and
        // sizes every retained vector; the measured iteration after it is
        // the steady state a batch service runs in.
        for _ in 0..2 {
            let _ = batch_steady_state_allocations(&ctx, &plan, &mats, &mut tiles);
        }
        let allocs = batch_steady_state_allocations(&ctx, &plan, &mats, &mut tiles);
        let mut bits = Vec::new();
        for t in &tiles {
            bits.extend(t.to_dense().as_slice().iter().map(|x| x.to_bits()));
        }
        (allocs, bits)
    };
    let (small, _) = steady(3, 2);
    let (large, factored) = steady(10, 6);
    let slack = 32;
    assert!(
        large <= small + slack,
        "batch hot path allocates per task/tile: {small} allocs on 6 tiles but {large} on \
         60 tiles"
    );
    assert!(
        large < 2 * 10 * 6,
        "steady-state batch call allocated {large} times — the T-factor pool is not \
         feeding the hot path (a cold call needs 2·p·q·k = {})",
        2 * 10 * 6 * k
    );
    factored
}

fn parallel_check(ib: usize) {
    let threads = 3;
    // Warm up thread-local/runtime one-time allocations.
    let _ = parallel_run_allocations(2, 1, 4, ib, threads);
    let (small_allocs, small_tasks) = parallel_run_allocations(3, 2, 4, ib, threads);
    let (large_allocs, large_tasks) = parallel_run_allocations(10, 6, 4, ib, threads);
    assert!(
        large_tasks > small_tasks + 300,
        "need a meaningful task-count gap"
    );
    // Setup allocations (scheduler buffers — injector, deques —, counters,
    // per-worker workspaces, thread spawns) scale with `threads` and
    // `dag.len()`, but the *count* of them is constant per run. Allow generous slack for allocator-internal noise; one
    // allocation per task would blow through this by an order of magnitude.
    let slack = 64;
    assert!(
        large_allocs <= small_allocs + slack,
        "hot loop allocates per task: {small_allocs} allocs for {small_tasks} tasks but \
         {large_allocs} allocs for {large_tasks} tasks"
    );
}

fn sequential_check() {
    let nb = 4;
    // ib = nb and ib < nb: the inner-blocked kernels (micro-BLAS packing,
    // trailing panel updates) must be exactly as allocation-free as the
    // unblocked path.
    for ib in [nb, 2] {
        let build = |p: usize, q: usize| {
            let a = random_matrix::<f64>(p * nb, q * nb, 9);
            let tiled = TiledMatrix::from_dense(&a, nb);
            let dag = TaskDag::build(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT);
            (FactorizationState::with_inner_block(tiled, ib), dag)
        };
        let (state_small, dag_small) = build(3, 2);
        let (state_large, dag_large) = build(10, 6);
        let mut ws = Workspace::<f64>::with_inner_block(nb, ib);

        let (small, ()) = allocations_during(|| {
            execute_sequential_with(&dag_small, &mut ws, |task, ws| state_small.run_ws(task, ws));
        });
        let (large, ()) = allocations_during(|| {
            execute_sequential_with(&dag_large, &mut ws, |task, ws| state_large.run_ws(task, ws));
        });
        assert!(dag_large.len() > dag_small.len() + 300);
        // The sequential path reuses one preallocated workspace: zero is the
        // expected count for both runs.
        assert_eq!(small, 0, "sequential small run allocated (ib={ib})");
        assert_eq!(large, 0, "sequential large run allocated (ib={ib})");
    }
}
