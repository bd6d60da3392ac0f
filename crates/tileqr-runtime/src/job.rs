//! The one execution engine: every factorization this crate runs — single,
//! in-place, batch, fused solve, service group, traced one-shot — is one
//! [`FusedJob`] built and driven by [`QrContext::run`].
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
//! driving the one scheduler. [`drive_worker`] is the only place a kernel
//! task is contained and retired, and where the job's controls
//! ([`RunCtl`]: user cancellation, deadline, stall bound) are checked.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use tileqr_core::dag::{SuccessorsCsr, TaskKind};
use tileqr_kernels::Workspace;
use tileqr_matrix::{Matrix, Scalar, TiledMatrix};

use crate::context::{deadline_in, QrContext};
use crate::error::QrError;
use crate::executor::{
    dependency_counters, drive_worker, DriveCtl, FaultSink, ItemMap, RunCtl, Scheduler,
    WorkStealing,
};
use crate::plan::{PlanCore, QrPlan};
use crate::pool::{payload_message, Job};
use crate::reflectors::TFactors;
use crate::state::{FactoredParts, FactorizationState};
use crate::sync::shim::{AtomicBool, AtomicUsize};
use crate::sync::{CancelCause, CancelToken, ClaimFlag, Mutex};
use crate::trace::{ExecutionTrace, WorkerTrace};

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

/// Everything of a job but its scheduler.
pub(crate) struct JobState<'a, T: Scalar> {
    copies: Vec<JobCopy<'a, T>>,
    /// `g → (copy, local)` geometry of the fused group.
    map: ItemMap,
    /// Largest successor batch any copy's task can enable.
    max_out_degree: usize,
    /// Per-task dependency counters of the whole fused run.
    remaining: Vec<AtomicUsize>,
    completed: AtomicUsize,
    aborted: AtomicBool,
    slots: Vec<Mutex<WorkerSlot<T>>>,
    /// This job's controls: its own cancel token and what triggers it, all
    /// checked by its workers ([`drive_worker`]).
    pub(crate) control: RunCtl,
    sink: Arc<dyn ItemSink<T>>,
}

impl<'a, T: Scalar<Real = f64>> JobState<'a, T> {
    /// The shared state of a job over `copies`, one slot per worker.
    pub(crate) fn new(
        copies: Vec<JobCopy<'a, T>>,
        slots: Vec<WorkerSlot<T>>,
        control: RunCtl,
        sink: Arc<dyn ItemSink<T>>,
    ) -> Self {
        JobState {
            map: ItemMap::from_counts(copies.iter().map(|c| c.core.dag.len())),
            max_out_degree: copies
                .iter()
                .map(|c| c.core.max_out_degree)
                .max()
                .unwrap_or(0),
            remaining: copies
                .iter()
                .flat_map(|c| dependency_counters(&c.core.dag))
                .collect(),
            copies,
            completed: AtomicUsize::new(0),
            aborted: AtomicBool::new(false),
            slots: slots.into_iter().map(Mutex::new).collect(),
            control,
            sink,
        }
    }

    /// Roots of every copy, offset into that copy's id range.
    pub(crate) fn roots(&self) -> Vec<usize> {
        let mut roots = Vec::new();
        for (copy, c) in self.copies.iter().enumerate() {
            let base = self.map.base(copy);
            roots.extend(c.core.roots.iter().map(|&r| base + r));
        }
        roots
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

impl<T: Scalar<Real = f64>> FaultSink for JobState<'_, T> {
    fn copy_failed(&self, copy: usize) -> bool {
        self.copies[copy].tracker.failed()
    }

    fn record_panic(&self, copy: usize, local: usize, payload: &(dyn std::any::Any + Send)) {
        let c = &self.copies[copy];
        c.tracker
            .record_panic(c.core.dag.tasks[local].kind, payload);
    }

    fn task_retired(&self, copy: usize) {
        if self.copies[copy].tracker.retire() {
            self.finish_copy(copy, None);
        }
    }
}

/// The pool job: [`JobState`] plus the work-stealing deques multiplexing its
/// ready tasks.
pub(crate) struct FusedJob<'a, T: Scalar> {
    pub(crate) state: JobState<'a, T>,
    pub(crate) sched: WorkStealing,
}

impl<T: Scalar<Real = f64>> Job for FusedJob<'_, T> {
    fn run(&self, w: usize) {
        let job = &self.state;
        let mut slot = job.slots[w].lock();
        let (ws, spans) = &mut *slot;
        // One CSR reference per copy, collected once per worker run —
        // O(copies) — instead of materializing any fused adjacency.
        let succ: Vec<&SuccessorsCsr> = job.copies.iter().map(|c| &c.core.succ).collect();
        let ctl = DriveCtl {
            num_tasks: job.remaining.len(),
            map: &job.map,
            succ: &succ,
            remaining: &job.remaining,
            completed: &job.completed,
            aborted: &job.aborted,
            max_out_degree: job.max_out_degree,
            control: Some(&job.control),
            faults: Some(job),
        };
        drive_worker(&ctl, &self.sched, w, &mut |copy, local| {
            let c = &job.copies[copy];
            #[cfg(feature = "fault-injection")]
            crate::fault::check(c.probe, local);
            ws.set_inner_block(c.ib);
            c.run_task(local, ws, spans);
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
        let state = JobState::new(copies, slots, control, sink);
        let sched = WorkStealing::new(total, threads);
        sched.seed(&mut state.roots());
        let job = Arc::new(FusedJob { state, sched });
        // The calling thread is worker 0; `run` returns only after every
        // helper dropped its reference to the job (and the pool's own slot
        // was cleared).
        self.pool.run(Arc::clone(&job) as Arc<dyn Job + '_>);
        let job = Arc::into_inner(job)
            .unwrap_or_else(|| panic!("job still shared after the pool ran it"));
        // Resolve what the run left unfinished. Dropping the span buffers
        // merges them into the trace; the last task a workspace served may
        // have switched its panel width.
        let slots = job.state.finish();
        ws_owner.restore_workspaces(slots.into_iter().map(|(mut ws, _spans)| {
            ws.set_inner_block(ws_owner.ib);
            ws
        }));
    }
}
