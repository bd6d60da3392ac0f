//! Dependency-counting DAG executors and their work-stealing scheduler.
//!
//! The task graph built by `tileqr-core` is already in topological order with
//! explicit predecessor lists. Two execution strategies are provided:
//!
//! * [`execute_sequential_with`] simply walks the tasks in order — the
//!   reference for correctness tests;
//! * [`execute_parallel_with_scheduler`] runs a scoped pool of worker threads
//!   that pull ready tasks from a `Scheduler` and release their successors
//!   as they finish — a miniature version of the PLASMA/QUARK dynamic
//!   scheduler used in the paper's experiments.
//!
//! No factorization path of this crate calls either (every job runs on the
//! persistent pool, `job.rs`); they stay public as the engine-independent
//! reference that tests compare against and the benchmark ledger times.
//!
//! # The scheduler
//!
//! *Which* ready task a worker runs next is delegated to the crate-private
//! `Scheduler` trait, which has one implementation, `WorkStealing`: one
//! Chase–Lev deque per worker plus a global FIFO injector holding the
//! initially-ready tasks. A worker pushes the tasks it enables onto its *own*
//! deque and pops them back LIFO (cache-warm tiles); an idle worker first
//! drains the injector, then steals the *oldest* task from a sibling. No lock
//! is ever taken on the hot path.
//!
//! The scheduler preallocates every buffer from `dag.len()` during setup,
//! preserving the executor's **zero per-task allocation** guarantee
//! (verified by the counting-allocator integration test).
//!
//! Both executors thread a per-worker **workspace** through the task
//! closure: `make_ws` is called once per worker thread (and once for the
//! sequential path), and every task executed by that worker receives a
//! mutable reference to its worker's workspace. With
//! [`tileqr_kernels::Workspace`] as the workspace type this makes the hot
//! loop allocation-free: all kernel scratch is preallocated before the first
//! task runs. Idle workers back off with
//! a three-tier backoff (spin → yield → bounded park), so they
//! stop burning a core at the tail of the DAG.

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use crate::sync::shim::{AtomicBool, AtomicUsize};

use tileqr_core::dag::{SuccessorsCsr, TaskDag};
use tileqr_core::TaskKind;

use crate::sync::{Backoff, CancelCause, CancelToken, Steal, TaskQueue, WorkerDeque};

/// Executes every task in topological order, threading a caller-provided
/// workspace through the task closure.
pub fn execute_sequential_with<W, F>(dag: &TaskDag, ws: &mut W, mut run: F)
where
    F: FnMut(TaskKind, &mut W),
{
    for task in &dag.tasks {
        run(task.kind, ws);
    }
}

/// The ready-task policy argument of [`execute_parallel_with_scheduler`].
/// Work stealing is the only policy. The type stays only because the
/// benchmark package passes `SchedulerKind::default()` to that function;
/// it goes once that call drops the argument.
///
/// Why one policy: LIFO owner pops walk the DAG depth-first over the tiles a
/// worker just touched. A critical-path priority order, paired against it on
/// the five benchmark workloads at two workers (2-vCPU AVX-512 host, ten
/// alternating pairs each), lost `tall_factor` throughput in 9 of 10 pairs
/// and won no workload in 9 of 10: there `T / cp` is 5–30, so the critical
/// path never binds the makespan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Per-worker Chase–Lev deques + global injector; LIFO owner pop, FIFO
    /// steal.
    #[default]
    WorkStealing,
}

/// A ready-task multiplexer between the workers of the parallel executor.
///
/// The executor drives the scheduler through three calls:
///
/// 1. [`Scheduler::seed`] once, before any worker starts, with every task
///    whose dependency count is zero;
/// 2. [`Scheduler::push_ready`] from worker `w` each time completing a task
///    enables a batch of successors (the batch slice is scratch owned by the
///    worker — implementations may reorder it in place). The scheduler may
///    hand one task of the batch straight back as a **work-first
///    continuation**: the worker runs it immediately, skipping a queue
///    round-trip — for chains of dependent tasks (the bulk of a tiled-QR
///    DAG) this removes the scheduler from the hot path entirely;
/// 3. [`Scheduler::pop`] from worker `w` to obtain the next task to run
///    when it has no continuation in hand.
///
/// Contract: every index handed to `seed`/`push_ready` must come back
/// exactly once — either as a `push_ready` continuation or from one `pop` —
/// and implementations must not allocate in `push_ready`/`pop` (all buffers
/// are sized from the DAG during construction). A `pop` returning `None` is
/// *transient* — the executor re-checks its completion counter and retries
/// with backoff.
pub(crate) trait Scheduler: Sync {
    /// Makes the initially-ready tasks available before the pool starts.
    /// The slice may be reordered in place.
    fn seed(&self, roots: &mut [usize]);

    /// Makes a batch of newly-enabled tasks available; called by worker `w`
    /// on its own hot path. The slice may be reordered in place. A returned
    /// task is *not* enqueued: the worker must run it next.
    fn push_ready(&self, w: usize, ready: &mut [usize]) -> Option<usize>;

    /// Returns the next task for worker `w`, or `None` if no runnable task
    /// was found right now.
    fn pop(&self, w: usize) -> Option<usize>;
}

/// Per-worker Chase–Lev deques with a global FIFO injector for the
/// initially-ready tasks.
pub(crate) struct WorkStealing {
    /// Initially-ready tasks; drained when a worker's own deque is empty.
    injector: TaskQueue,
    /// Set once the injector has been observed empty. Tasks enter the
    /// injector only during [`Scheduler::seed`], so "drained" is permanent
    /// and idle workers stop taking the injector lock on every miss.
    injector_drained: AtomicBool,
    /// One deque per worker; worker `w` owns `deques[w]`.
    deques: Vec<WorkerDeque>,
}

impl WorkStealing {
    /// Builds the scheduler: `workers` deques, each able to hold the whole
    /// DAG (`num_tasks` indices), so pushes can never overflow.
    pub(crate) fn new(num_tasks: usize, workers: usize) -> Self {
        WorkStealing {
            injector: TaskQueue::with_capacity(num_tasks),
            injector_drained: AtomicBool::new(false),
            deques: (0..workers.max(1))
                .map(|_| WorkerDeque::with_capacity(num_tasks))
                .collect(),
        }
    }
}

impl Scheduler for WorkStealing {
    fn seed(&self, roots: &mut [usize]) {
        for &r in roots.iter() {
            self.injector.push(r);
        }
    }

    /// Keeps the first successor (topological order — the tiles the worker
    /// just touched) as the work-first continuation and publishes the rest,
    /// reverse-pushed so the owner's LIFO pop visits them in original
    /// order.
    fn push_ready(&self, w: usize, ready: &mut [usize]) -> Option<usize> {
        let (&next, rest) = ready.split_first()?;
        for &r in rest.iter().rev() {
            self.deques[w].push(r);
        }
        Some(next)
    }

    /// Own deque (LIFO), then the injector, then one stealing sweep over the
    /// siblings starting after `w` (so the victims are spread instead of all
    /// workers mobbing worker 0).
    #[inline]
    fn pop(&self, w: usize) -> Option<usize> {
        if let Some(task) = self.deques[w].pop() {
            return Some(task);
        }
        if !self.injector_drained.load(Ordering::Relaxed) {
            match self.injector.pop() {
                Some(task) => return Some(task),
                None => self.injector_drained.store(true, Ordering::Relaxed),
            }
        }
        let n = self.deques.len();
        for step in 1..n {
            let victim = (w + step) % n;
            loop {
                match self.deques[victim].steal() {
                    Steal::Success(task) => return Some(task),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }
}

/// Executes the DAG on `num_threads` worker threads with one workspace per
/// worker, under the work-stealing scheduler (the one [`SchedulerKind`]).
///
/// Every worker builds its own workspace with `make_ws` when it starts, then
/// repeatedly pops a ready task from the scheduler, runs it against its
/// workspace, and decrements the dependency counters of the task's
/// successors, handing the scheduler every task whose counter reaches zero.
/// The closure must be safe to call concurrently for tasks that are not
/// ordered by the DAG — the state module guarantees this by protecting each
/// tile, with its `T` pair, by its own lock.
///
/// After the setup phase (scheduler buffers and counters sized to the DAG,
/// workspaces built per worker) the loop performs no heap allocations.
pub fn execute_parallel_with_scheduler<W, M, F>(
    dag: &TaskDag,
    num_threads: usize,
    _scheduler: SchedulerKind,
    make_ws: M,
    run: F,
) where
    W: Send,
    M: Fn() -> W + Sync,
    F: Fn(TaskKind, &mut W) + Sync,
{
    let n = dag.tasks.len();
    if n == 0 {
        return;
    }
    let num_threads = num_threads.max(1);
    if num_threads == 1 {
        let mut ws = make_ws();
        for task in &dag.tasks {
            run(task.kind, &mut ws);
        }
        return;
    }
    let succ = dag.successors_csr();
    let sched = WorkStealing::new(n, num_threads);
    sched.seed(&mut initial_roots(dag));
    let remaining = dependency_counters(dag);
    let completed = AtomicUsize::new(0);
    let aborted = AtomicBool::new(false);
    let map = ItemMap::from_counts([n]);
    let ctl = DriveCtl {
        num_tasks: n,
        map: &map,
        succ: &[&succ],
        remaining: &remaining,
        completed: &completed,
        aborted: &aborted,
        max_out_degree: succ.max_out_degree(),
        control: None,
        faults: None,
    };
    std::thread::scope(|scope| {
        for w in 0..num_threads {
            let (ctl, sched, make_ws, run) = (&ctl, &sched, &make_ws, &run);
            scope.spawn(move || {
                let mut ws = make_ws();
                drive_worker(ctl, sched, w, &mut |_copy, local| {
                    run(dag.tasks[local].kind, &mut ws)
                });
            });
        }
    });
}

/// Per-task dependency counters of a DAG, freshly initialized for one run.
pub(crate) fn dependency_counters(dag: &TaskDag) -> Vec<AtomicUsize> {
    dag.tasks
        .iter()
        .map(|t| AtomicUsize::new(t.deps.len()))
        .collect()
}

/// Indices of the initially-ready tasks (no dependencies), in topological
/// order.
pub(crate) fn initial_roots(dag: &TaskDag) -> Vec<usize> {
    dag.tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.deps.is_empty())
        .map(|(idx, _)| idx)
        .collect()
}

/// Maps a global task id of a fused group to `(copy, local)`.
///
/// A fused pool job runs several independent DAG instances ("copies") under
/// one scheduler. Global ids are assigned contiguously per copy: copy `c`
/// owns `offsets[c] .. offsets[c + 1]`, the prefix sums of the copies' task
/// counts (a single DAG of `n` tasks is `[0, n]`), and `locate`
/// binary-searches them — `O(log copies)`, the crate's one
/// `partition_point`.
pub(crate) struct ItemMap {
    /// `offsets[c]` = first id of copy `c`; `offsets.len() == copies + 1`.
    offsets: Vec<usize>,
}

impl ItemMap {
    /// A group described by one task count per copy.
    pub(crate) fn from_counts(counts: impl IntoIterator<Item = usize>) -> Self {
        let counts = counts.into_iter();
        let mut offsets = Vec::with_capacity(counts.size_hint().0 + 1);
        offsets.push(0);
        for count in counts {
            offsets.push(offsets[offsets.len() - 1] + count);
        }
        ItemMap { offsets }
    }

    /// Total task count across all copies.
    #[inline]
    pub(crate) fn total(&self) -> usize {
        self.offsets[self.offsets.len() - 1]
    }

    /// First global id of `copy`.
    #[inline]
    pub(crate) fn base(&self, copy: usize) -> usize {
        self.offsets[copy]
    }

    /// `g → (copy, local)`.
    #[inline]
    pub(crate) fn locate(&self, g: usize) -> (usize, usize) {
        let copy = self.offsets.partition_point(|&o| o <= g) - 1;
        (copy, g - self.offsets[copy])
    }
}

/// Receives contained task panics from [`drive_worker`] and answers which
/// batch copies have already failed (so their remaining tasks are skipped —
/// counted as released, never executed).
///
/// Implemented by the fused job (`job.rs`); the executor itself stays
/// ignorant of [`QrError`](crate::context::QrError).
pub(crate) trait FaultSink: Sync {
    /// True if `copy` has already recorded a fault; its tasks are skipped.
    fn copy_failed(&self, copy: usize) -> bool;

    /// Records a panic raised by task `local` of `copy`. Called at most once
    /// per panicking task; the first recorded fault of a copy wins.
    fn record_panic(&self, copy: usize, local: usize, payload: &(dyn std::any::Any + Send));

    /// Counts one task of `copy` as retired (executed *or* skipped); a copy
    /// whose retired count reaches the DAG length without a recorded fault
    /// completed successfully.
    ///
    /// This is also the per-item completion hook: the retire of a copy's
    /// *last* task is detectable inside this call (the retire count equals
    /// the DAG length), and it fires on the worker thread that performed it.
    /// The fused job drains the finished copy and hands it to its sink from
    /// this hook, while sibling copies are still running.
    fn task_retired(&self, copy: usize);
}

/// The controls of one job, polled by its own workers: the job's cancel
/// token and the three conditions that trigger it. Every worker — the caller,
/// as worker 0, included — checks them in [`drive_worker`]; no thread watches
/// the job from outside.
pub(crate) struct RunCtl {
    /// The per-job token: user cancellation, the deadline and the stall check
    /// all funnel into it (first cause wins), so internal causes never poison
    /// the context's sticky handle.
    pub(crate) job_cancel: CancelToken,
    /// The context's sticky user handle; forwarded into `job_cancel`.
    pub(crate) user_cancel: CancelToken,
    /// Absolute deadline; once passed, `job_cancel` triggers with
    /// [`CancelCause::DeadlineExceeded`].
    pub(crate) deadline: Option<Instant>,
    /// Stall bound: a worker that wants work and sees no task of the job
    /// retire for longer than this triggers `job_cancel` with
    /// [`CancelCause::Stalled`].
    pub(crate) stall_bound: Option<Duration>,
}

impl RunCtl {
    /// Forwards user cancellation and the deadline into the job token (the
    /// first cause wins); true once the token is triggered, by whatever
    /// cause.
    pub(crate) fn poll_cancel(&self) -> bool {
        if self.user_cancel.is_cancelled() {
            self.job_cancel.trigger(CancelCause::Cancelled);
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.job_cancel.trigger(CancelCause::DeadlineExceeded);
        }
        self.job_cancel.is_cancelled()
    }
}

/// One worker's stall check over the job's `completed` counter, run from
/// its idle loop.
struct StallClock<'a> {
    token: &'a CancelToken,
    bound: Duration,
    /// `completed` at the last probe, and when it last moved.
    seen: usize,
    moved: Instant,
    probed: Instant,
}

impl<'a> StallClock<'a> {
    fn new(token: &'a CancelToken, bound: Duration, completed: usize) -> Self {
        let now = Instant::now();
        StallClock {
            token,
            bound,
            seen: completed,
            moved: now,
            probed: now,
        }
    }

    /// Probes `completed` at most once per `bound / 8` (a stall is caught
    /// within ~9/8 of the bound) and triggers the token once the count has
    /// not moved for longer than `bound`.
    fn check(&mut self, completed: usize) {
        let now = Instant::now();
        if now.duration_since(self.probed) < self.bound / 8 {
            return;
        }
        self.probed = now;
        if completed != self.seen {
            self.seen = completed;
            self.moved = now;
        } else if now.duration_since(self.moved) > self.bound {
            self.token.trigger(CancelCause::Stalled);
        }
    }
}

/// Everything one [`drive_worker`] call shares with its sibling workers:
/// the fused-DAG geometry, the per-run counters, and the optional
/// robustness hooks (job controls, panic containment).
pub(crate) struct DriveCtl<'a> {
    /// Total task count of the (fused) run; the loop exits when `completed`
    /// reaches it.
    pub(crate) num_tasks: usize,
    /// Global-id geometry of the run: `map.locate(g)` resolves every task id
    /// to its `(copy, local)` pair.
    pub(crate) map: &'a ItemMap,
    /// `succ[copy]` is that copy's successor adjacency (copies of one shape
    /// repeat one reference), indexed by the local id from `map`.
    pub(crate) succ: &'a [&'a SuccessorsCsr],
    /// Per-task dependency counters of the whole fused run.
    pub(crate) remaining: &'a [AtomicUsize],
    /// Tasks completed so far across all workers.
    pub(crate) completed: &'a AtomicUsize,
    /// Raised when a panic unwinds out of a worker's loop — a task in abort
    /// mode (`faults: None`), or the fault sink itself; sibling workers exit
    /// instead of spinning on a completion count that can no longer be
    /// reached.
    pub(crate) aborted: &'a AtomicBool,
    /// Largest successor batch one completion can enable.
    pub(crate) max_out_degree: usize,
    /// The job's controls ([`RunCtl`]), polled once per loop iteration —
    /// between tasks and on every idle round; once its token fires, workers
    /// abandon the remaining tasks and return. `None` (the scoped executor)
    /// runs every task.
    pub(crate) control: Option<&'a RunCtl>,
    /// Panic policy: `None` — a task panic raises `aborted` and unwinds out
    /// (the scoped executor's contract, re-raised by the caller); `Some` —
    /// the panic is caught, reported to the sink, and only that task's copy
    /// is poisoned while siblings keep running.
    pub(crate) faults: Option<&'a dyn FaultSink>,
}

/// One worker's share of a DAG run: pop ready tasks from the scheduler, run
/// them, release successors, hand newly-enabled batches back to the
/// scheduler, and back off when idle until every one of `ctl.num_tasks`
/// tasks completed (or a sibling aborted, or the job's token fired).
///
/// The loop is phrased over **raw task ids** so the same code serves every
/// caller: the scoped executor ([`execute_parallel_with_scheduler`]) and the
/// fused jobs of [`QrContext`](crate::context::QrContext) — one matrix, a
/// same-plan batch, or a heterogeneous service group, with the calling
/// thread as worker 0 and the pool's helpers as the rest. `ctl.map` resolves
/// a global id to `(copy, local)` — once per task, here; the task body `run`
/// receives the pair — and `ctl.succ` hands back the copy's own successor
/// CSR, so no per-call fused adjacency is ever materialized. Released
/// successors stay within the task's copy by offsetting local successor ids
/// with the copy's base. For a single DAG the id arithmetic is the identity.
/// Every path is bitwise equivalent by construction because it runs exactly
/// this code over the same per-tile kernel ordering.
///
/// Panic handling depends on `ctl.faults` — see [`DriveCtl::faults`]. In
/// containment mode a failed copy's remaining tasks still *retire* (their
/// successor counters are released and `completed` advances) so the fused
/// run drains normally; they are never executed.
///
/// With `ctl.control`, every iteration forwards user cancellation and the
/// deadline into the job token ([`RunCtl::poll_cancel`]), and a worker that
/// finds no task also runs the stall check: if the job's `completed` count
/// has not moved for longer than the stall bound, it triggers the token with
/// [`CancelCause::Stalled`]. A run whose workers all idle without retiring
/// anything — the shape of a lost-task deadlock — therefore cancels itself.
/// Clock reads happen only when a deadline or a stall bound is set.
pub(crate) fn drive_worker<S: Scheduler + ?Sized>(
    ctl: &DriveCtl<'_>,
    sched: &S,
    w: usize,
    run: &mut dyn FnMut(usize, usize),
) {
    debug_assert_eq!(ctl.map.total(), ctl.num_tasks);
    // Armed for the whole loop: if anything unwinds out of it — a task in
    // abort mode, or the fault sink — this Drop flags every other worker to
    // exit, so the caller can join them and propagate the panic instead of
    // deadlocking on `completed < n`.
    struct AbortOnPanic<'a>(&'a AtomicBool);
    impl Drop for AbortOnPanic<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let abort_guard = AbortOnPanic(ctl.aborted);

    // Scratch for the largest possible batch of newly-enabled successors —
    // allocated once per worker per run, never on the per-task path.
    let mut enabled: Vec<usize> = Vec::with_capacity(ctl.max_out_degree);
    let mut backoff = Backoff::new();
    let mut stall = ctl.control.and_then(|c| {
        let completed = ctl.completed.load(Ordering::Acquire);
        Some(StallClock::new(&c.job_cancel, c.stall_bound?, completed))
    });
    // Work-first continuation handed back by `push_ready`: run it directly,
    // skipping the queue round-trip.
    let mut next: Option<usize> = None;
    loop {
        if ctl.aborted.load(Ordering::Acquire) || ctl.control.is_some_and(RunCtl::poll_cancel) {
            break;
        }
        match next.take().or_else(|| sched.pop(w)) {
            Some(idx) => {
                backoff.reset();
                let (copy, local) = ctl.map.locate(idx);
                match ctl.faults {
                    None => run(copy, local),
                    Some(sink) => {
                        // A failed copy's tasks are skipped, not executed;
                        // they still retire below so the run drains.
                        if !sink.copy_failed(copy) {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    run(copy, local)
                                }));
                            if let Err(payload) = result {
                                sink.record_panic(copy, local, &*payload);
                            }
                        }
                        sink.task_retired(copy);
                    }
                }
                ctl.completed.fetch_add(1, Ordering::Release);
                // Successors stay within the task's own DAG copy: look up
                // the copy's CSR by the local id, offset the released ids
                // back into the copy's global range.
                let base = idx - local;
                enabled.clear();
                for &s in ctl.succ[copy].of(local) {
                    let g = base + s;
                    if ctl.remaining[g].fetch_sub(1, Ordering::AcqRel) == 1 {
                        enabled.push(g);
                    }
                }
                if !enabled.is_empty() {
                    next = sched.push_ready(w, &mut enabled);
                }
            }
            None => {
                let completed = ctl.completed.load(Ordering::Acquire);
                if completed >= ctl.num_tasks {
                    break;
                }
                if let Some(clock) = &mut stall {
                    clock.check(completed);
                }
                backoff.snooze();
            }
        }
    }
    std::mem::forget(abort_guard);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;
    use std::collections::HashSet;
    use tileqr_core::algorithms::Algorithm;
    use tileqr_core::KernelFamily;

    fn sample_dag(p: usize, q: usize) -> TaskDag {
        TaskDag::build(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT)
    }

    #[test]
    fn sequential_visits_every_task_once() {
        let dag = sample_dag(6, 3);
        let mut seen = Vec::new();
        execute_sequential_with(&dag, &mut (), |k, _ws| seen.push(k));
        assert_eq!(seen.len(), dag.len());
        let unique: HashSet<_> = seen.iter().collect();
        assert_eq!(unique.len(), dag.len());
    }

    #[test]
    fn parallel_visits_every_task_once() {
        let dag = sample_dag(8, 4);
        let seen = Mutex::new(HashSet::new());
        execute_parallel_with_scheduler(
            &dag,
            4,
            SchedulerKind::default(),
            || (),
            |k, _ws: &mut ()| {
                assert!(seen.lock().insert(k), "task executed twice: {k:?}");
            },
        );
        assert_eq!(seen.lock().len(), dag.len());
    }

    #[test]
    fn parallel_respects_dependencies() {
        // Record completion order and verify that every dependency finished
        // before its dependent started. We log positions under a lock.
        let dag = sample_dag(7, 3);
        let order = Mutex::new(Vec::new());
        execute_parallel_with_scheduler(
            &dag,
            3,
            SchedulerKind::default(),
            || (),
            |k, _ws: &mut ()| {
                order.lock().push(k);
            },
        );
        let order = order.into_inner();
        let position: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, k)| (*k, i)).collect();
        for task in &dag.tasks {
            let me = position[&task.kind];
            for &d in &task.deps {
                let dep = position[&dag.tasks[d].kind];
                assert!(
                    dep < me,
                    "dependency ran after dependent: {:?} -> {:?}",
                    dag.tasks[d].kind,
                    task.kind
                );
            }
        }
    }

    #[test]
    fn empty_dag_is_a_noop() {
        let dag = TaskDag::build(
            &Algorithm::FlatTree.elimination_list(1, 1),
            KernelFamily::TT,
        );
        // a 1x1 grid has a single GEQRT; build a truly empty DAG by filtering
        let empty = TaskDag {
            p: 0,
            q: 0,
            trailing: 0,
            family: KernelFamily::TT,
            tasks: Vec::new(),
        };
        let mut count = 0;
        execute_sequential_with(&empty, &mut (), |_, _ws| count += 1);
        execute_parallel_with_scheduler(
            &empty,
            4,
            SchedulerKind::default(),
            || (),
            |_, _ws: &mut ()| panic!("should not run"),
        );
        assert_eq!(count, 0);
        assert_eq!(dag.len(), 1);
    }

    #[test]
    fn single_thread_parallel_falls_back_to_sequential_order() {
        let dag = sample_dag(5, 2);
        let seen = Mutex::new(Vec::new());
        execute_parallel_with_scheduler(
            &dag,
            1,
            SchedulerKind::default(),
            || (),
            |k, _ws: &mut ()| seen.lock().push(k),
        );
        let seen = seen.into_inner();
        let sequential: Vec<_> = dag.tasks.iter().map(|t| t.kind).collect();
        assert_eq!(seen, sequential);
    }

    #[test]
    fn each_worker_gets_its_own_workspace() {
        // Workspaces are identified by a creation counter; every task records
        // which workspace it ran with, and the number of distinct workspaces
        // must not exceed the worker count.
        let dag = sample_dag(8, 4);
        let counter = AtomicUsize::new(0);
        let used = Mutex::new(HashSet::new());
        let tasks = Mutex::new(0usize);
        execute_parallel_with_scheduler(
            &dag,
            4,
            SchedulerKind::default(),
            || counter.fetch_add(1, Ordering::SeqCst),
            |_task, ws_id| {
                used.lock().insert(*ws_id);
                *tasks.lock() += 1;
            },
        );
        assert_eq!(*tasks.lock(), dag.len());
        let created = counter.load(Ordering::SeqCst);
        assert_eq!(created, 4, "one workspace per worker");
        assert!(!used.lock().is_empty() && used.lock().len() <= 4);
    }

    #[test]
    fn task_panic_propagates_instead_of_hanging() {
        // A panicking task must flag the other workers to exit so the thread
        // scope can join and re-raise the panic (previously the pool spun
        // forever on `completed < n`).
        let dag = sample_dag(8, 4);
        let poison = dag.tasks[dag.len() / 2].kind;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_parallel_with_scheduler(
                &dag,
                4,
                SchedulerKind::default(),
                || (),
                |k, _ws: &mut ()| {
                    if k == poison {
                        panic!("injected task failure");
                    }
                },
            );
        }));
        assert!(result.is_err(), "panic was swallowed");
    }

    #[test]
    fn sequential_with_reuses_one_workspace() {
        let dag = sample_dag(5, 2);
        let mut ws = 0usize;
        let mut count = 0usize;
        execute_sequential_with(&dag, &mut ws, |_k, ws| {
            *ws += 1;
            count += 1;
        });
        assert_eq!(ws, dag.len());
        assert_eq!(count, dag.len());
    }

    #[test]
    fn item_map_equal_counts_match_historical_cyclic_arithmetic() {
        // A same-plan group on the prefix-sum form resolves every id exactly
        // like the historical `g → (g / n, g % n)`.
        let map = ItemMap::from_counts([7, 7, 7, 7]);
        assert_eq!(map.total(), 28);
        for g in 0..map.total() {
            assert_eq!(map.locate(g), (g / 7, g % 7));
        }
        for c in 0..4 {
            assert_eq!(map.base(c), c * 7);
        }
    }

    #[test]
    fn item_map_of_one_copy_is_the_identity() {
        let map = ItemMap::from_counts([5]);
        assert_eq!((map.total(), map.base(0)), (5, 0));
        for g in 0..5 {
            assert_eq!(map.locate(g), (0, g));
        }
    }

    #[test]
    fn item_map_heterogeneous_is_a_bijection_over_disjoint_ranges() {
        let counts = [3usize, 7, 1, 4];
        let map = ItemMap::from_counts(counts);
        assert_eq!(map.total(), 15);
        let mut seen = HashSet::new();
        for g in 0..map.total() {
            let (copy, local) = map.locate(g);
            assert!(copy < counts.len());
            assert!(local < counts[copy]);
            assert_eq!(map.base(copy) + local, g);
            assert!(seen.insert((copy, local)), "id {g} not unique");
        }
        assert_eq!(seen.len(), map.total());
    }

    #[test]
    fn fused_heterogeneous_copies_run_once_and_respect_deps() {
        // Two *different* DAGs fused under one scheduler through the offset
        // map: every task of each copy runs exactly once, and dependencies
        // hold within each copy.
        let dag_a = sample_dag(6, 3);
        let dag_b = TaskDag::build(
            &Algorithm::FlatTree.elimination_list(4, 2),
            KernelFamily::TS,
        );
        assert_ne!(dag_a.len(), dag_b.len(), "copies must be heterogeneous");
        let succ_a = dag_a.successors_csr();
        let succ_b = dag_b.successors_csr();
        let map = ItemMap::from_counts([dag_a.len(), dag_b.len()]);
        assert_eq!(map.total(), dag_a.len() + dag_b.len());
        let per_copy = [&succ_a, &succ_b];
        let dags = [&dag_a, &dag_b];

        let remaining: Vec<AtomicUsize> = dags
            .iter()
            .flat_map(|d| d.tasks.iter().map(|t| AtomicUsize::new(t.deps.len())))
            .collect();
        let mut roots: Vec<usize> = Vec::new();
        for (c, d) in dags.iter().enumerate() {
            let base = map.base(c);
            roots.extend(
                d.tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.deps.is_empty())
                    .map(|(i, _)| base + i),
            );
        }
        let sched = WorkStealing::new(map.total(), 3);
        sched.seed(&mut roots);
        let completed = AtomicUsize::new(0);
        let aborted = AtomicBool::new(false);
        let ctl = DriveCtl {
            num_tasks: map.total(),
            map: &map,
            succ: &per_copy,
            remaining: &remaining,
            completed: &completed,
            aborted: &aborted,
            max_out_degree: succ_a.max_out_degree().max(succ_b.max_out_degree()),
            control: None,
            faults: None,
        };
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..3 {
                let ctl = &ctl;
                let sched = &sched;
                let order = &order;
                scope.spawn(move || {
                    drive_worker(ctl, sched, w, &mut |copy, local| {
                        order.lock().push(ctl.map.base(copy) + local);
                    });
                });
            }
        });
        let order = order.into_inner();
        assert_eq!(order.len(), map.total());
        let position: std::collections::HashMap<usize, usize> =
            order.iter().enumerate().map(|(i, &g)| (g, i)).collect();
        assert_eq!(position.len(), map.total(), "a task ran twice");
        for (c, d) in dags.iter().enumerate() {
            let base = map.base(c);
            for (i, t) in d.tasks.iter().enumerate() {
                for &dep in &t.deps {
                    assert!(
                        position[&(base + dep)] < position[&(base + i)],
                        "copy {c}: dependency {dep} ran after dependent {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn work_stealing_pop_prefers_own_deque_then_injector_then_steal() {
        let sched = WorkStealing::new(16, 2);
        sched.seed(&mut [7usize]);
        // First of each batch is the work-first continuation; the rest go
        // to the pushing worker's own deque.
        assert_eq!(sched.push_ready(0, &mut [1usize, 2]), Some(1));
        assert_eq!(sched.push_ready(1, &mut [8usize, 9]), Some(8));
        // Own deque first (batch in original order), then injector, then
        // steal from worker 1.
        assert_eq!(sched.pop(0), Some(2));
        assert_eq!(sched.pop(0), Some(7));
        assert_eq!(sched.pop(0), Some(9));
        assert_eq!(sched.pop(0), None);
    }

    /// A job's controls with fresh tokens.
    fn control(deadline: Option<Instant>, stall_bound: Option<Duration>) -> RunCtl {
        RunCtl {
            job_cancel: CancelToken::new(),
            user_cancel: CancelToken::new(),
            deadline,
            stall_bound,
        }
    }

    /// Runs `dag` the way a pool job does — one scheduler, `drive_worker` on
    /// each of `threads` workers, under `control` — with `task` as every
    /// task's body.
    fn drive_controlled(
        dag: &TaskDag,
        threads: usize,
        sched: &dyn Scheduler,
        control: &RunCtl,
        task: &(dyn Fn(TaskKind) + Sync),
    ) {
        let succ = dag.successors_csr();
        let map = ItemMap::from_counts([dag.len()]);
        let remaining = dependency_counters(dag);
        sched.seed(&mut initial_roots(dag));
        let (completed, aborted) = (AtomicUsize::new(0), AtomicBool::new(false));
        let ctl = DriveCtl {
            num_tasks: dag.len(),
            map: &map,
            succ: &[&succ],
            remaining: &remaining,
            completed: &completed,
            aborted: &aborted,
            max_out_degree: succ.max_out_degree(),
            control: Some(control),
            faults: None,
        };
        std::thread::scope(|scope| {
            for w in 0..threads {
                let ctl = &ctl;
                scope.spawn(move || {
                    drive_worker(ctl, sched, w, &mut |_copy, local| {
                        task(dag.tasks[local].kind)
                    })
                });
            }
        });
    }

    #[test]
    fn watchdog_turns_a_stalled_job_into_a_cancellation() {
        // Two shapes of a stall, each caught by an idle worker's stall check.
        // The first task wedges until the token fires while its sibling runs
        // out of work; and a scheduler that loses every task leaves its one
        // worker idling with nothing retired. Without the check neither run
        // would ever return.
        let dag = sample_dag(6, 3);
        let bound = Some(Duration::from_millis(20));
        let start = Instant::now();
        let wedged = control(None, bound);
        let first = dag.tasks[0].kind;
        let sched = WorkStealing::new(dag.len(), 2);
        drive_controlled(&dag, 2, &sched, &wedged, &|kind| {
            while kind == first && !wedged.job_cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert_eq!(wedged.job_cancel.cause(), Some(CancelCause::Stalled));

        struct LosesEveryTask;
        impl Scheduler for LosesEveryTask {
            fn seed(&self, _roots: &mut [usize]) {}
            fn push_ready(&self, _w: usize, _ready: &mut [usize]) -> Option<usize> {
                None
            }
            fn pop(&self, _w: usize) -> Option<usize> {
                None
            }
        }
        let lost = control(None, bound);
        drive_controlled(&dag, 1, &LosesEveryTask, &lost, &|_| {
            unreachable!("no task is ever handed out")
        });
        assert_eq!(lost.job_cancel.cause(), Some(CancelCause::Stalled));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the stall check must bound both runs"
        );
    }

    #[test]
    fn deadline_fires_through_the_worker_loop() {
        // Every task sleeps, so tasks keep retiring and no stall check is
        // armed: only the deadline can stop the run, on the caller alone and
        // with a helper.
        let dag = sample_dag(8, 4);
        for threads in [1usize, 2] {
            let deadline = Instant::now() + Duration::from_millis(15);
            let control = control(Some(deadline), None);
            let sched = WorkStealing::new(dag.len(), threads);
            drive_controlled(&dag, threads, &sched, &control, &|_| {
                std::thread::sleep(Duration::from_millis(1))
            });
            assert_eq!(
                control.job_cancel.cause(),
                Some(CancelCause::DeadlineExceeded),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn user_cancellation_is_forwarded_to_the_job_token() {
        let dag = sample_dag(8, 4);
        for threads in [1usize, 2] {
            let control = control(None, None);
            let canceller = {
                let user = control.user_cancel.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(10));
                    user.cancel();
                })
            };
            let sched = WorkStealing::new(dag.len(), threads);
            drive_controlled(&dag, threads, &sched, &control, &|_| {
                std::thread::sleep(Duration::from_millis(1))
            });
            canceller.join().unwrap();
            assert_eq!(
                control.job_cancel.cause(),
                Some(CancelCause::Cancelled),
                "{threads} threads"
            );
        }
    }
}
