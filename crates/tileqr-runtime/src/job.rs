//! The one execution engine: every factorization this crate runs — single,
//! in-place, batch, fused solve, service group, traced one-shot — is one
//! [`FusedJob`] built and driven by [`QrContext::run`], and every job's
//! workers run the one loop of this module, [`drive_worker`].
//!
//! A job fuses `k ≥ 1` independent *copies* under one scheduler. Each copy
//! brings its own schedule (a plan's factor or solve [`PlanCore`]), inner
//! blocking, fault-probe id and input, so one job may span shapes, tile
//! sizes and elimination trees. Global task ids are contiguous per copy
//! ([`ItemMap`]: the prefix sums of the copies' task counts). There are no
//! cross-copy edges, so every copy's result is bitwise identical to running
//! it alone.
//!
//! What differs between the callers is only where a copy's outcome goes:
//! the [`ItemSink`] receives `(FactoredParts, Option<QrError>)` **exactly
//! once per copy** — from the worker that retires the copy's last task,
//! while sibling copies are still running, or from the calling thread, once
//! the job ended, for copies the run never finished (pre-run rejection,
//! cancellation, deadline, stall). The blocking calls of [`QrContext`]
//! collect the outcomes and return them; the service resolves tickets.
//!
//! Every thread count takes one path: the calling thread is worker 0 and the
//! pool's helpers are workers `1..threads` (none at `threads == 1`), all
//! driving the one scheduler. A job's task body ([`FusedJob::run_task`]) is
//! the only place a kernel task is contained and retired; [`drive_worker`]
//! is where the job's controls ([`RunCtl`]: user cancellation, deadline,
//! stall bound) are checked.
//!
//! # The scheduler
//!
//! [`WorkStealing`] keeps one Chase–Lev deque per worker plus a global FIFO
//! injector holding the run's roots. A worker pushes the tasks it enables
//! onto its *own* deque and pops them back LIFO (cache-warm tiles); an idle
//! worker first drains the injector, so every worker takes the roots in
//! topological order, then steals the *oldest* task from a sibling. No lock
//! is taken on the hot path once the injector is drained, and every buffer
//! is sized from the task count during setup, so the loop never allocates
//! (the counting-allocator integration test pins it).
//!
//! Why an injector and not the roots on worker 0's deque (where helpers
//! steal the *last* root first): on `service_mixed` (2-vCPU Xeon, 21
//! alternating rounds of 6 s) that placement lost throughput to the
//! injector in 13 of 21 rounds, median 14.8 against 15.7 GFLOP/s.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tileqr_core::dag::{SuccessorsCsr, TaskDag, TaskKind};
use tileqr_kernels::Workspace;
use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

use crate::context::{deadline_in, QrContext};
use crate::error::QrError;
use crate::plan::{PlanCore, QrPlan};
use crate::pool::{payload_message, Job};
use crate::reflectors::TFactors;
use crate::state::{FactoredParts, FactorizationState};
use crate::sync::shim::{AtomicBool, AtomicUsize};
use crate::sync::{
    Backoff, CancelCause, CancelToken, ClaimFlag, Mutex, Steal, TaskQueue, WorkerDeque,
};
use crate::trace::{ExecutionTrace, WorkerTrace};

/// Per-task dependency counters of a DAG, freshly initialized for one run.
pub(crate) fn dependency_counters(dag: &TaskDag) -> Vec<AtomicUsize> {
    dag.tasks
        .iter()
        .map(|t| AtomicUsize::new(t.deps.len()))
        .collect()
}

/// Indices of the initially-ready tasks (no dependencies), in topological
/// order.
pub(crate) fn initial_roots(dag: &TaskDag) -> impl Iterator<Item = usize> + '_ {
    dag.tasks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.deps.is_empty())
        .map(|(idx, _)| idx)
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

/// The ready-task multiplexer between the workers of one run: one Chase–Lev
/// deque per worker and the roots' injector (see the
/// [module docs](self#the-scheduler)).
///
/// Every index handed to it — a root at construction, or an enabled
/// successor through [`WorkStealing::push_ready`] — comes back exactly once,
/// as a `push_ready` continuation or from one [`WorkStealing::pop`]. A `pop`
/// returning `None` is *transient*: the worker re-checks its completion
/// counter and retries with backoff.
pub(crate) struct WorkStealing {
    /// The run's roots; drained when a worker's own deque is empty.
    injector: TaskQueue,
    /// Set once the injector has been observed empty. Tasks enter it only at
    /// construction, so "drained" is permanent and idle workers stop taking
    /// its lock on every miss.
    injector_drained: AtomicBool,
    /// One deque per worker; worker `w` owns `deques[w]`.
    deques: Vec<WorkerDeque>,
}

impl WorkStealing {
    /// `workers` deques and the injector, each able to hold the whole run
    /// (`num_tasks` indices), so pushes can never overflow, with `roots` in
    /// the injector in the given order.
    pub(crate) fn new(
        num_tasks: usize,
        workers: usize,
        roots: impl IntoIterator<Item = usize>,
    ) -> Self {
        let injector = TaskQueue::with_capacity(num_tasks);
        for r in roots {
            injector.push(r);
        }
        WorkStealing {
            injector,
            injector_drained: AtomicBool::new(false),
            deques: (0..workers.max(1))
                .map(|_| WorkerDeque::with_capacity(num_tasks))
                .collect(),
        }
    }

    /// Hands a batch of newly-enabled tasks to worker `w`: keeps the first
    /// successor (topological order — the tiles the worker just touched) as
    /// the work-first continuation, which the worker runs next without a
    /// queue round-trip, and pushes the rest onto `w`'s own deque in
    /// reverse, so its LIFO pops visit them in order.
    #[inline]
    pub(crate) fn push_ready(&self, w: usize, ready: &[usize]) -> Option<usize> {
        let (&next, rest) = ready.split_first()?;
        for &r in rest.iter().rev() {
            self.deques[w].push(r);
        }
        Some(next)
    }

    /// Worker `w`'s next task: its own deque (LIFO), then the injector, then
    /// one stealing sweep over the siblings starting after `w` (so the
    /// victims are spread instead of all workers mobbing worker 0).
    #[inline]
    pub(crate) fn pop(&self, w: usize) -> Option<usize> {
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

/// The controls of one run, polled by its own workers: the run's cancel
/// token and the three conditions that trigger it. Every worker — the caller,
/// as worker 0, included — checks them in [`drive_worker`]; no thread watches
/// the run from outside.
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
    /// Controls that never fire: no deadline, no stall bound, and one fresh
    /// token as both the user and the job handle, which nothing else holds.
    pub(crate) fn unbounded() -> Self {
        let token = CancelToken::new();
        RunCtl {
            job_cancel: token.clone(),
            user_cancel: token,
            deadline: None,
            stall_bound: None,
        }
    }

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

/// One worker's stall check over the run's `completed` counter, run from
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
/// the fused-DAG geometry, the scheduler, the per-run counters and the
/// run's controls.
pub(crate) struct DriveCtl<'a> {
    /// Global-id geometry of the run: `map.locate(g)` resolves every task id
    /// to its `(copy, local)` pair.
    pub(crate) map: &'a ItemMap,
    /// `succ[copy]` is that copy's successor adjacency (copies of one shape
    /// repeat one reference), indexed by the local id from `map`.
    pub(crate) succ: &'a [&'a SuccessorsCsr],
    /// Per-task dependency counters of the whole fused run; its length is
    /// the run's task count.
    pub(crate) remaining: &'a [AtomicUsize],
    /// Tasks completed so far across all workers; the loop exits when it
    /// reaches `remaining.len()`.
    pub(crate) completed: &'a AtomicUsize,
    /// Raised when a panic unwinds out of a worker's loop — a task of the
    /// scoped executor, or a job's delivery — so sibling workers exit
    /// instead of spinning on a completion count that can no longer be
    /// reached.
    pub(crate) aborted: &'a AtomicBool,
    /// Largest successor batch one completion can enable.
    pub(crate) max_out_degree: usize,
    /// The ready tasks of the run.
    pub(crate) sched: &'a WorkStealing,
    /// The run's controls, polled once per loop iteration — between tasks
    /// and on every idle round; once its token fires, workers abandon the
    /// remaining tasks and return.
    pub(crate) control: &'a RunCtl,
}

/// One worker's share of a DAG run: pop ready tasks from the scheduler, run
/// them, count them, release their successors, hand newly-enabled batches
/// back to the scheduler, and back off when idle until every task of the run
/// completed (or a sibling aborted, or the run's token fired).
///
/// The loop is phrased over **raw task ids** so the same code serves every
/// caller: the scoped executor
/// ([`execute_parallel_with_scheduler`](crate::executor::execute_parallel_with_scheduler))
/// and the fused jobs of [`QrContext`] — one matrix, a same-plan batch, or a
/// heterogeneous service group, with the calling thread as worker 0 and the
/// pool's helpers as the rest. `ctl.map` resolves a global id to `(copy,
/// local)` — once per task, here; the task body `run` receives the pair —
/// and `ctl.succ` hands back the copy's own successor CSR, so no per-call
/// fused adjacency is ever materialized. Released successors stay within the
/// task's copy by offsetting local successor ids with the copy's base. For a
/// single DAG the id arithmetic is the identity. Every path is bitwise
/// equivalent by construction because it runs exactly this code over the
/// same per-tile kernel ordering.
///
/// The loop catches nothing: a body that panics unwinds out of it, after
/// raising `ctl.aborted` so the siblings exit. A job's body contains its own
/// kernel panics ([`FusedJob::run_task`]).
///
/// Every iteration forwards user cancellation and the deadline into the run's
/// token ([`RunCtl::poll_cancel`]), and a worker that finds no task also runs
/// the stall check: if the run's `completed` count has not moved for longer
/// than the stall bound, it triggers the token with [`CancelCause::Stalled`].
/// A run whose workers all idle without retiring anything — the shape of a
/// lost-task deadlock — therefore cancels itself. Clocks are read only when a
/// deadline or a stall bound is set.
pub(crate) fn drive_worker(ctl: &DriveCtl<'_>, w: usize, run: &mut dyn FnMut(usize, usize)) {
    // Armed for the whole loop: if anything unwinds out of it, this Drop
    // flags every other worker to exit, so the caller can join them and
    // propagate the panic instead of deadlocking on `completed < n`.
    struct AbortOnPanic<'a>(&'a AtomicBool);
    impl Drop for AbortOnPanic<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Release);
        }
    }
    let abort_guard = AbortOnPanic(ctl.aborted);

    let num_tasks = ctl.remaining.len();
    // Scratch for the largest possible batch of newly-enabled successors —
    // allocated once per worker per run, never on the per-task path.
    let mut enabled: Vec<usize> = Vec::with_capacity(ctl.max_out_degree);
    let mut backoff = Backoff::new();
    let control = ctl.control;
    let mut stall = control.stall_bound.map(|bound| {
        let completed = ctl.completed.load(Ordering::Acquire);
        StallClock::new(&control.job_cancel, bound, completed)
    });
    // Work-first continuation handed back by `push_ready`: run it directly,
    // skipping the queue round-trip.
    let mut next: Option<usize> = None;
    loop {
        if ctl.aborted.load(Ordering::Acquire) || control.poll_cancel() {
            break;
        }
        match next.take().or_else(|| ctl.sched.pop(w)) {
            Some(idx) => {
                backoff.reset();
                let (copy, local) = ctl.map.locate(idx);
                run(copy, local);
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
                next = ctl.sched.push_ready(w, &enabled);
            }
            None => {
                let completed = ctl.completed.load(Ordering::Acquire);
                if completed >= num_tasks {
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

/// Where a job delivers its outcomes: called exactly once per entry of
/// [`QrContext::run`] with the parts of that copy's state and its fault, if
/// any — in every outcome (success, contained panic, cancellation, deadline,
/// stall, pre-run rejection).
///
/// Calls for copies that ran to their last task come **from a worker
/// thread**, the moment that task retires; implementations must be cheap and
/// must not block on the pool. On an error the tiles hold whatever the run
/// left in them (bitwise untouched if no kernel ran); the `T` factors go back
/// to the copy's plan whenever the sink drops them.
pub(crate) trait ItemSink<T: Scalar>: Send + Sync {
    /// Delivers entry `index`'s outcome.
    fn item_done(&self, index: usize, parts: FactoredParts<T>, err: Option<QrError>);
}

/// One copy of a job: the plan it runs under, its input, and its
/// fault-injection probe id.
pub(crate) struct StreamEntry<'p, 'a, T: Scalar> {
    pub(crate) plan: &'p QrPlan<T>,
    pub(crate) input: StreamInput<'a, T>,
    /// Fault-probe id of this copy: the service remaps retry attempts to
    /// fresh probe coordinates so a seeded fault schedule can tell attempt 0
    /// from attempt 1 of one submission; the blocking calls use the copy's
    /// position. Without the `fault-injection` feature it is carried unread.
    pub(crate) probe: usize,
}

/// How a copy's matrix enters the job.
pub(crate) struct StreamInput<'a, T: Scalar> {
    /// The copy's tiles, factored in place: the input itself, or — with
    /// `dense` — storage of the plan's grid whose values are never read;
    /// `None` for fresh storage.
    pub(crate) tiles: Option<TiledMatrix<T>>,
    /// A dense input, read where it lies: each tile is filled from it by the
    /// first task of the copy that names the tile (the plan's first-touch
    /// table), on whichever worker runs that task, so no thread pays the
    /// `O(m·n)` copy up front.
    pub(crate) dense: Option<&'a Matrix<T>>,
    /// The row blocks of [`rhs_row_blocks`](crate::state::rhs_row_blocks):
    /// non-empty makes the copy a fused solve, which runs the plan's solve
    /// schedule and hands the blocks back holding `Qᴴ·b`.
    pub(crate) rhs: Vec<Matrix<T>>,
}

impl<T: Scalar> StreamInput<'_, T> {
    /// The parts of a copy rejected before any state was built: its tiles,
    /// bitwise untouched, and no `T` storage.
    fn untouched(self, nb: usize) -> FactoredParts<T> {
        FactoredParts {
            tiles: self
                .tiles
                .unwrap_or_else(|| TiledMatrix::from_tiles(Vec::new(), 0, 0, nb)),
            t: TFactors::none(),
            rhs: self.rhs,
        }
    }
}

/// Fault and completion bookkeeping of one copy. A recorded panic poisons
/// exactly this copy: its remaining tasks are skipped (retired without
/// executing) while sibling copies run to completion.
///
/// Its own cache line: every worker on the copy bumps `done` once per task,
/// which must not invalidate the read-mostly fields of [`JobCopy`] beside it.
#[repr(align(64))]
pub(crate) struct ItemTracker {
    /// Task count of the copy's DAG — its retire target.
    tasks: usize,
    /// Checked before executing each task of the copy.
    failed: AtomicBool,
    /// First error recorded for the copy.
    error: Mutex<Option<QrError>>,
    /// Tasks retired (executed or skipped); a full count with no recorded
    /// error means the copy succeeded.
    done: AtomicUsize,
    /// Exactly-once guard: claimed by whichever path — the last retire or
    /// the job-end sweep — delivers the copy to the sink.
    resolved: ClaimFlag,
}

impl ItemTracker {
    pub(crate) fn new(tasks: usize) -> Self {
        ItemTracker {
            tasks,
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            done: AtomicUsize::new(0),
            resolved: ClaimFlag::new(),
        }
    }

    /// True once a fault was recorded. A stale `false` at worst runs one more
    /// task of an already-failed copy against garbage tile data, which only
    /// that copy's (discarded) output can observe; tasks released *after*
    /// the panic was recorded see the flag through the dependency counter's
    /// release/acquire chain.
    pub(crate) fn failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Records a panic of a `kind` task; the first recorded fault wins.
    pub(crate) fn record_panic(&self, kind: TaskKind, payload: &(dyn std::any::Any + Send)) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(QrError::TaskPanicked {
                kind,
                message: payload_message(payload).to_string(),
            });
        }
        self.failed.store(true, Ordering::Release);
    }

    /// Retires one task; true for the copy's **last** retire. Every task
    /// releases its tile locks before it retires and the increments form a
    /// release/acquire chain, so whoever sees `true` may drain the state.
    pub(crate) fn retire(&self) -> bool {
        self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.tasks
    }

    /// Claims the right to deliver the copy; true for exactly one caller.
    pub(crate) fn claim(&self) -> bool {
        self.resolved.claim()
    }

    /// The copy's result once nothing runs on it any more: a recorded fault
    /// wins; an incomplete retire count means the job was cancelled out from
    /// under the copy (`cause` says why); otherwise the copy succeeded.
    pub(crate) fn verdict(&self, cause: Option<CancelCause>) -> Option<QrError> {
        if let Some(err) = self.error.lock().take() {
            return Some(err);
        }
        (self.done.load(Ordering::Acquire) < self.tasks)
            .then(|| QrError::from_cancel(cause.unwrap_or(CancelCause::Cancelled)))
    }
}

/// One copy of a [`FusedJob`].
pub(crate) struct JobCopy<'a, T: Scalar> {
    state: FactorizationState<T>,
    /// The schedule the copy runs: its plan's factor or solve core.
    core: Arc<PlanCore>,
    /// The dense input its first-touch tasks fill the tiles from, if any.
    dense: Option<&'a Matrix<T>>,
    /// Panel width of the copy's plan; the per-worker workspaces are sized
    /// for the job's largest tile and switched to it per task.
    ib: usize,
    #[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
    probe: usize,
    tracker: ItemTracker,
}

impl<'a, T: Scalar<Real = f64>> JobCopy<'a, T> {
    pub(crate) fn new(entry: StreamEntry<'_, 'a, T>) -> Self {
        let (plan, StreamInput { tiles, dense, rhs }) = (entry.plan, entry.input);
        let tiles = tiles.unwrap_or_else(|| TiledMatrix::zeros(plan.p, plan.q, plan.nb));
        let core = Arc::clone(if rhs.is_empty() {
            &plan.core
        } else {
            plan.solve_core()
        });
        JobCopy {
            state: plan.build_state(tiles, rhs),
            tracker: ItemTracker::new(core.dag.len()),
            core,
            dense,
            ib: plan.ib,
            probe: entry.probe,
        }
    }

    /// Runs task `local`: first fills the tiles it is the first to name,
    /// when the copy's input is dense, then runs its kernel in a span of
    /// `spans` — the fill stays outside it, so a traced busy time is kernel
    /// time.
    fn run_task(&self, local: usize, ws: &mut Workspace<T>, spans: &mut WorkerTrace) {
        let kind = self.core.dag.tasks[local].kind;
        let fill = self.dense.map(|a| (a, self.core.fills[local]));
        let held = self.state.lock_filled(kind, fill);
        spans.record(kind, || self.state.run_held(kind, held, ws));
    }
}

/// One worker's private share of a job: its kernel scratch and its span
/// buffer (disabled unless the run is traced).
pub(crate) type WorkerSlot<T> = (Workspace<T>, WorkerTrace);

/// The pool job: the copies, their fused geometry and counters, the
/// work-stealing deques multiplexing their ready tasks, the per-worker slots,
/// the job's controls and where its outcomes go.
pub(crate) struct FusedJob<'a, T: Scalar> {
    copies: Vec<JobCopy<'a, T>>,
    /// `g → (copy, local)` geometry of the fused group.
    map: ItemMap,
    /// Largest successor batch any copy's task can enable.
    max_out_degree: usize,
    /// Per-task dependency counters of the whole fused run.
    remaining: Vec<AtomicUsize>,
    completed: AtomicUsize,
    aborted: AtomicBool,
    sched: WorkStealing,
    slots: Vec<Mutex<WorkerSlot<T>>>,
    /// This job's controls: its own cancel token and what triggers it, all
    /// checked by its workers ([`drive_worker`]).
    control: RunCtl,
    sink: Arc<dyn ItemSink<T>>,
}

impl<'a, T: Scalar<Real = f64>> FusedJob<'a, T> {
    /// A job over `copies` with one worker per slot; every copy's roots,
    /// offset into its id range, start in the injector, copy by copy.
    pub(crate) fn new(
        copies: Vec<JobCopy<'a, T>>,
        slots: Vec<WorkerSlot<T>>,
        control: RunCtl,
        sink: Arc<dyn ItemSink<T>>,
    ) -> Self {
        let map = ItemMap::from_counts(copies.iter().map(|c| c.core.dag.len()));
        let roots = copies.iter().enumerate().flat_map(|(copy, c)| {
            let base = map.base(copy);
            c.core.roots.iter().map(move |&r| base + r)
        });
        let sched = WorkStealing::new(map.total(), slots.len(), roots);
        FusedJob {
            max_out_degree: copies
                .iter()
                .map(|c| c.core.max_out_degree)
                .max()
                .unwrap_or(0),
            remaining: copies
                .iter()
                .flat_map(|c| dependency_counters(&c.core.dag))
                .collect(),
            map,
            copies,
            completed: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            sched,
            slots: slots.into_iter().map(Mutex::new).collect(),
            control,
            sink,
        }
    }

    /// The task body of the job: runs task `local` of `copy` unless the copy
    /// already failed, containing a panic to that copy — recorded as its
    /// fault, while sibling copies keep running — then retires the task and,
    /// on the copy's last retire, delivers the copy. A failed copy's
    /// remaining tasks are skipped but still retire, so the run drains.
    fn run_task(&self, copy: usize, local: usize, slot: &mut WorkerSlot<T>) {
        let c = &self.copies[copy];
        if !c.tracker.failed() {
            let (ws, spans) = slot;
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                crate::fault::check(c.probe, local);
                ws.set_inner_block(c.ib);
                c.run_task(local, ws, spans);
            }));
            if let Err(payload) = result {
                c.tracker
                    .record_panic(c.core.dag.tasks[local].kind, &*payload);
            }
        }
        if c.tracker.retire() {
            self.finish_copy(copy, None);
        }
    }

    /// Drains `copy` and hands its outcome to the sink, unless that already
    /// happened. Called by the worker that performed the copy's last retire
    /// and, for every copy, by the job-end sweep — in both cases no task of
    /// the copy is running or can start any more.
    fn finish_copy(&self, copy: usize, cause: Option<CancelCause>) {
        let c = &self.copies[copy];
        if c.tracker.claim() {
            let err = c.tracker.verdict(cause);
            self.sink.item_done(copy, c.state.take_parts(), err);
        }
    }

    /// Job end, every worker gone: resolves the copies a cancellation, a
    /// deadline or a stall left unfinished and gives the worker slots back.
    pub(crate) fn finish(self) -> Vec<WorkerSlot<T>> {
        let cause = self.control.job_cancel.cause();
        for copy in 0..self.copies.len() {
            self.finish_copy(copy, cause);
        }
        self.slots.into_iter().map(Mutex::into_inner).collect()
    }
}

impl<T: Scalar<Real = f64>> Job for FusedJob<'_, T> {
    fn run(&self, w: usize) {
        let mut slot = self.slots[w].lock();
        // One CSR reference per copy, collected once per worker run —
        // O(copies) — instead of materializing any fused adjacency.
        let succ: Vec<&SuccessorsCsr> = self.copies.iter().map(|c| &c.core.succ).collect();
        let ctl = DriveCtl {
            map: &self.map,
            succ: &succ,
            remaining: &self.remaining,
            completed: &self.completed,
            aborted: &self.aborted,
            max_out_degree: self.max_out_degree,
            sched: &self.sched,
            control: &self.control,
        };
        drive_worker(&ctl, w, &mut |copy, local| {
            self.run_task(copy, local, &mut slot)
        });
    }
}

impl QrContext {
    /// Runs `entries` as **one fused job** and delivers each copy's outcome
    /// through `sink` — exactly once per entry, in every outcome. The single
    /// engine behind every `factorize*` call, [`QrContext::solve`], the
    /// service's fused groups and the traced one-shot driver.
    ///
    /// The context's deadline ([`QrContext::with_deadline`]) becomes an
    /// instant here, once, so it bounds the job from its start; `trace`,
    /// when given, receives one span per executed task (per-worker buffers,
    /// merged when the job ends). The per-worker workspaces are checked out from the plan with
    /// the **largest** tile order — every buffer is sized from `nb` alone, so
    /// they serve every smaller tile of a mixed group.
    pub(crate) fn run<T: Scalar<Real = f64>>(
        &self,
        entries: Vec<StreamEntry<'_, '_, T>>,
        trace: Option<&ExecutionTrace>,
        sink: Arc<dyn ItemSink<T>>,
    ) {
        let deadline = self.deadline.and_then(deadline_in);
        // Fail fast before any state is built or kernel runs: a sticky
        // cancellation or an already-expired deadline rejects every entry
        // with its tile buffers bitwise untouched.
        let pre = if self.cancel.is_cancelled() {
            Some(QrError::Cancelled)
        } else if deadline.is_some_and(|d| Instant::now() >= d) {
            Some(QrError::DeadlineExceeded)
        } else {
            None
        };
        if let Some(e) = pre {
            for (index, entry) in entries.into_iter().enumerate() {
                let parts = entry.input.untouched(entry.plan.nb);
                sink.item_done(index, parts, Some(e.clone()));
            }
            return;
        }
        let Some(ws_owner) = entries.iter().map(|e| e.plan).max_by_key(|p| p.nb) else {
            return;
        };
        // A plan's `T` pool retains what all of its copies in one job checked
        // out, wherever they sit among the entries: counted once per plan, at
        // its first entry.
        for (i, first) in entries.iter().enumerate() {
            let same_plan = |e: &StreamEntry<'_, '_, T>| std::ptr::eq(e.plan, first.plan);
            if !entries[..i].iter().any(same_plan) {
                let copies = entries[i..].iter().filter(|e| same_plan(e)).count();
                first.plan.reserve_t_buffers(copies);
            }
        }
        let copies: Vec<JobCopy<'_, T>> = entries.into_iter().map(JobCopy::new).collect();
        let total = copies.iter().map(|c| c.core.dag.len()).sum();
        let control = RunCtl {
            job_cancel: CancelToken::new(),
            user_cancel: self.cancel.clone(),
            deadline,
            stall_bound: self.watchdog,
        };
        let threads = self.pool.threads();
        let slots = ws_owner
            .checkout_workspaces(threads)
            .into_iter()
            .map(|ws| {
                let spans =
                    trace.map_or_else(WorkerTrace::disabled, |t| t.worker_with_capacity(total));
                (ws, spans)
            })
            .collect();
        let job = Arc::new(FusedJob::new(copies, slots, control, sink));
        // The calling thread is worker 0; `run` returns only after every
        // helper dropped its reference to the job (and the pool's own slot
        // was cleared).
        self.pool.run(Arc::clone(&job) as Arc<dyn Job + '_>);
        let job = Arc::into_inner(job)
            .unwrap_or_else(|| panic!("job still shared after the pool ran it"));
        // Resolve what the run left unfinished. Dropping the span buffers
        // merges them into the trace; the last task a workspace served may
        // have switched its panel width.
        let slots = job.finish();
        ws_owner.restore_workspaces(slots.into_iter().map(|(mut ws, _spans)| {
            ws.set_inner_block(ws_owner.ib);
            ws
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use tileqr_core::algorithms::Algorithm;
    use tileqr_core::KernelFamily;

    fn sample_dag(p: usize, q: usize) -> TaskDag {
        TaskDag::build(&Algorithm::Greedy.elimination_list(p, q), KernelFamily::TT)
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
        let roots = dags.iter().enumerate().flat_map(|(c, d)| {
            let base = map.base(c);
            initial_roots(d).map(move |i| base + i)
        });
        let sched = WorkStealing::new(map.total(), 3, roots);
        let completed = AtomicUsize::new(0);
        let aborted = AtomicBool::new(false);
        let control = RunCtl::unbounded();
        let ctl = DriveCtl {
            map: &map,
            succ: &per_copy,
            remaining: &remaining,
            completed: &completed,
            aborted: &aborted,
            max_out_degree: succ_a.max_out_degree().max(succ_b.max_out_degree()),
            sched: &sched,
            control: &control,
        };
        let order = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for w in 0..3 {
                let ctl = &ctl;
                let order = &order;
                scope.spawn(move || {
                    drive_worker(ctl, w, &mut |copy, local| {
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
        let sched = WorkStealing::new(16, 2, [7usize]);
        // First of each batch is the work-first continuation; the rest go
        // to the pushing worker's own deque.
        assert_eq!(sched.push_ready(0, &[1, 2]), Some(1));
        assert_eq!(sched.push_ready(1, &[8, 9]), Some(8));
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

    /// The scheduler of a pool job over `dag` on `threads` workers, its
    /// roots on worker 0's deque.
    fn seeded(dag: &TaskDag, threads: usize) -> WorkStealing {
        WorkStealing::new(dag.len(), threads, initial_roots(dag))
    }

    /// Runs `dag` the way a pool job does — one scheduler, `drive_worker` on
    /// each of `threads` workers, under `control` — with `task` as every
    /// task's body.
    fn drive_controlled(
        dag: &TaskDag,
        threads: usize,
        sched: &WorkStealing,
        control: &RunCtl,
        task: &(dyn Fn(TaskKind) + Sync),
    ) {
        let succ = dag.successors_csr();
        let map = ItemMap::from_counts([dag.len()]);
        let remaining = dependency_counters(dag);
        let (completed, aborted) = (AtomicUsize::new(0), AtomicBool::new(false));
        let ctl = DriveCtl {
            map: &map,
            succ: &[&succ],
            remaining: &remaining,
            completed: &completed,
            aborted: &aborted,
            max_out_degree: succ.max_out_degree(),
            sched,
            control,
        };
        std::thread::scope(|scope| {
            for w in 0..threads {
                let ctl = &ctl;
                scope.spawn(move || {
                    drive_worker(ctl, w, &mut |_copy, local| task(dag.tasks[local].kind))
                });
            }
        });
    }

    #[test]
    fn watchdog_turns_a_stalled_job_into_a_cancellation() {
        // Two shapes of a stall, each caught by an idle worker's stall check.
        // The first task wedges until the token fires while its sibling runs
        // out of work; and a scheduler that was never given the roots leaves
        // its one worker idling with nothing retired. Without the check
        // neither run would ever return.
        let dag = sample_dag(6, 3);
        let bound = Some(Duration::from_millis(20));
        let start = Instant::now();
        let wedged = control(None, bound);
        let first = dag.tasks[0].kind;
        drive_controlled(&dag, 2, &seeded(&dag, 2), &wedged, &|kind| {
            while kind == first && !wedged.job_cancel.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        assert_eq!(wedged.job_cancel.cause(), Some(CancelCause::Stalled));

        let lost = control(None, bound);
        let rootless = WorkStealing::new(dag.len(), 1, std::iter::empty());
        drive_controlled(&dag, 1, &rootless, &lost, &|_| {
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
            drive_controlled(&dag, threads, &seeded(&dag, threads), &control, &|_| {
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
            drive_controlled(&dag, threads, &seeded(&dag, threads), &control, &|_| {
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
