//! The virtual-thread scheduling engine.
//!
//! One [`Engine`] lives for the duration of a [`crate::model::Model`]
//! exploration and is reused across all executions (the pooled OS threads
//! that carry virtual threads park between executions, so running 10⁵
//! schedules does not spawn 10⁵ threads). Exactly one virtual thread holds
//! the *run token* at any instant; every shim operation passes through a
//! schedule point where the engine decides who runs next — by replaying a
//! recorded choice prefix (DFS), by seeded random choice (sampling), or by
//! defaulting to "continue the current thread".

use std::collections::HashMap;
use std::panic;
use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

use crate::clock::VClock;
use crate::model::{Failure, FailureKind};
use crate::rng::Rng;

pub(crate) type Tid = usize;

/// Process-global id source for shim objects (atomics, mutexes, condvars,
/// race cells). Monotonic for the whole process so an object created in an
/// earlier execution (e.g. a `static`) can never collide with a fresh one.
static NEXT_OBJECT_ID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_object_id() -> u64 {
    NEXT_OBJECT_ID.fetch_add(1, StdOrdering::Relaxed)
}

/// Lazily assigned object identity for shim types whose constructors must be
/// `const fn` (atomics inside `static`s, preallocated buffers).
#[derive(Debug)]
pub(crate) struct LazyId(AtomicU64);

impl LazyId {
    pub(crate) const fn new() -> Self {
        LazyId(AtomicU64::new(0))
    }

    pub(crate) fn get(&self) -> u64 {
        let v = self.0.load(StdOrdering::Relaxed);
        if v != 0 {
            return v;
        }
        let id = fresh_object_id();
        match self
            .0
            .compare_exchange(0, id, StdOrdering::Relaxed, StdOrdering::Relaxed)
        {
            Ok(_) => id,
            Err(raced) => raced,
        }
    }
}

impl Default for LazyId {
    fn default() -> Self {
        LazyId::new()
    }
}

/// Why a virtual thread woke from a condvar wait.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WakeReason {
    Notified,
    TimedOut,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    Ready,
    BlockedMutex(u64),
    BlockedCv { cv: u64, timed: bool },
    BlockedJoin(Tid),
    Finished,
}

struct ThreadState {
    status: Status,
    /// This thread's vector clock.
    clock: VClock,
    /// Clock captured by the latest `fence(Release)` (what a subsequent
    /// relaxed store publishes).
    fence_rel: VClock,
    /// Accumulated release clocks of relaxed loads, materialised into
    /// `clock` by a later `fence(Acquire)`.
    acq_pending: VClock,
    wake: WakeReason,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            status: Status::Ready,
            clock: VClock::default(),
            fence_rel: VClock::default(),
            acq_pending: VClock::default(),
            wake: WakeReason::Notified,
        }
    }
}

#[derive(Default)]
struct MutexHb {
    owner: Option<Tid>,
    rel: VClock,
}

#[derive(Default)]
struct AtomicHb {
    /// The release clock `W(a)`: what an acquire load of this variable
    /// synchronises with.
    rel: VClock,
}

#[derive(Default)]
struct CellHb {
    has_write: bool,
    w_tid: Tid,
    w_at: u64,
    /// `(tid, clock[tid] at read)` for every read since the last write.
    reads: Vec<(Tid, u64)>,
}

/// How a shim atomic operation affects the happens-before state.
#[derive(Clone, Copy, Debug)]
pub(crate) enum AtomicOpKind {
    Load(std::sync::atomic::Ordering),
    Store(std::sync::atomic::Ordering),
    /// A successful read-modify-write (extends the release sequence).
    Rmw(std::sync::atomic::Ordering),
    /// A failed compare-exchange: acts as a load with the failure ordering.
    RmwFailed(std::sync::atomic::Ordering),
}

fn is_acquire(o: std::sync::atomic::Ordering) -> bool {
    use std::sync::atomic::Ordering::*;
    matches!(o, Acquire | AcqRel | SeqCst)
}

fn is_release(o: std::sync::atomic::Ordering) -> bool {
    use std::sync::atomic::Ordering::*;
    matches!(o, Release | AcqRel | SeqCst)
}

fn is_seqcst(o: std::sync::atomic::Ordering) -> bool {
    matches!(o, std::sync::atomic::Ordering::SeqCst)
}

/// One recorded schedule point: the runnable options (current thread first,
/// then ascending tid) and the index chosen.
pub(crate) struct ScheduleStep {
    pub(crate) options: Vec<Tid>,
    pub(crate) chosen: usize,
}

/// Per-execution limits, set by the model driver.
#[derive(Clone, Copy)]
pub(crate) struct ExecLimits {
    pub(crate) preemption_bound: usize,
    pub(crate) max_steps: usize,
    pub(crate) max_threads: usize,
    pub(crate) max_timeout_wakes: usize,
}

struct EngineState {
    threads: Vec<ThreadState>,
    running: Tid,
    steps: usize,
    preemptions: usize,
    timeout_wakes: usize,
    limits: ExecLimits,
    replay: Vec<usize>,
    rng: Option<Rng>,
    schedule: Vec<ScheduleStep>,
    failure: Option<Failure>,
    aborting: bool,
    mutexes: HashMap<u64, MutexHb>,
    atomics: HashMap<u64, AtomicHb>,
    cells: HashMap<u64, CellHb>,
    cv_waiters: HashMap<u64, Vec<Tid>>,
    sc_clock: VClock,
    /// Ring of recent `(tid, op)` events for failure reports.
    trace: Vec<(Tid, &'static str)>,
}

const TRACE_CAP: usize = 48;

impl EngineState {
    fn note(&mut self, tid: Tid, what: &'static str) {
        if self.trace.len() == TRACE_CAP {
            self.trace.remove(0);
        }
        self.trace.push((tid, what));
    }

    fn tick(&mut self, tid: Tid) {
        let t = tid;
        self.threads[t].clock.bump(t);
    }

    /// Threads the scheduler may pick: `Ready`, plus timed condvar waiters
    /// (picking one wakes it by timeout) while the per-execution timeout
    /// budget lasts. Order: `me` first (so the DFS default of choice 0 means
    /// "keep running", which costs no preemption), then ascending tid.
    fn runnable_options(&self, me: Tid) -> Vec<Tid> {
        let allow_timeouts = self.timeout_wakes < self.limits.max_timeout_wakes;
        let mut opts = Vec::with_capacity(self.threads.len());
        let schedulable = |t: &ThreadState| match t.status {
            Status::Ready => true,
            Status::BlockedCv { timed, .. } => timed && allow_timeouts,
            _ => false,
        };
        if schedulable(&self.threads[me]) {
            opts.push(me);
        }
        for (tid, t) in self.threads.iter().enumerate() {
            if tid != me && schedulable(t) {
                opts.push(tid);
            }
        }
        opts
    }

    fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.status == Status::Finished)
    }

    fn blocked_summary(&self) -> String {
        let mut parts = Vec::new();
        for (tid, t) in self.threads.iter().enumerate() {
            let what = match &t.status {
                Status::Ready => continue,
                Status::Finished => continue,
                Status::BlockedMutex(id) => format!("t{tid} blocked on mutex #{id}"),
                Status::BlockedCv { cv, timed } => {
                    if *timed {
                        format!("t{tid} in timed wait on condvar #{cv} (timeout budget spent)")
                    } else {
                        format!("t{tid} waiting on condvar #{cv}")
                    }
                }
                Status::BlockedJoin(target) => format!("t{tid} joining t{target}"),
            };
            parts.push(what);
        }
        parts.join("; ")
    }
}

/// Unwind payload used to tear down virtual threads when an execution
/// aborts (failure found, or exploration is shutting down). Never surfaced
/// to user code.
pub(crate) struct AbortUnwind;

fn abort_unwind() -> ! {
    panic::resume_unwind(Box::new(AbortUnwind))
}

type Job = Box<dyn FnOnce() + Send + 'static>;

pub(crate) struct Engine {
    state: StdMutex<EngineState>,
    cv: StdCondvar,
    /// Idle pooled OS threads, each addressed by the sender of its job
    /// channel. A virtual thread's wrapper re-registers its worker here when
    /// it finishes, so workers are reused across executions.
    idle_workers: StdMutex<Vec<mpsc::Sender<Job>>>,
}

thread_local! {
    static CURRENT: std::cell::RefCell<Option<(Arc<Engine>, Tid)>> =
        const { std::cell::RefCell::new(None) };
}

pub(crate) fn current() -> Option<(Arc<Engine>, Tid)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(v: Option<(Arc<Engine>, Tid)>) {
    CURRENT.with(|c| *c.borrow_mut() = v);
}

impl Engine {
    pub(crate) fn new(limits: ExecLimits) -> Self {
        Engine {
            state: StdMutex::new(EngineState {
                threads: Vec::new(),
                running: 0,
                steps: 0,
                preemptions: 0,
                timeout_wakes: 0,
                limits,
                replay: Vec::new(),
                rng: None,
                schedule: Vec::new(),
                failure: None,
                aborting: false,
                mutexes: HashMap::new(),
                atomics: HashMap::new(),
                cells: HashMap::new(),
                cv_waiters: HashMap::new(),
                sc_clock: VClock::default(),
                trace: Vec::new(),
            }),
            cv: StdCondvar::new(),
            idle_workers: StdMutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, EngineState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Resets per-execution state. Called by the model driver between runs.
    pub(crate) fn begin_execution(&self, replay: Vec<usize>, rng: Option<Rng>) {
        let mut st = self.lock();
        st.threads.clear();
        st.threads.push(ThreadState::new()); // tid 0: the model body
        st.running = 0;
        st.steps = 0;
        st.preemptions = 0;
        st.timeout_wakes = 0;
        st.replay = replay;
        st.rng = rng;
        st.schedule.clear();
        st.failure = None;
        st.aborting = false;
        st.mutexes.clear();
        st.atomics.clear();
        st.cells.clear();
        st.cv_waiters.clear();
        st.sc_clock.clear();
        st.trace.clear();
    }

    /// Harvests the recorded schedule and failure of the finished execution.
    pub(crate) fn take_execution(&self) -> (Vec<ScheduleStep>, Option<Failure>) {
        let mut st = self.lock();
        (std::mem::take(&mut st.schedule), st.failure.take())
    }

    fn fail_locked(&self, st: &mut EngineState, kind: FailureKind, message: String) {
        if st.failure.is_none() {
            st.failure = Some(Failure {
                kind,
                message,
                schedule: st.schedule.iter().map(|s| s.chosen).collect(),
                trace: st
                    .trace
                    .iter()
                    .map(|(tid, what)| format!("t{tid}: {what}"))
                    .collect(),
            });
        }
        st.aborting = true;
        self.cv.notify_all();
    }

    /// Records a failure from outside the scheduling paths (user panic).
    pub(crate) fn fail(&self, kind: FailureKind, message: String) {
        let mut st = self.lock();
        self.fail_locked(&mut st, kind, message);
    }

    pub(crate) fn fail_from_panic(&self, tid: Tid, payload: &(dyn std::any::Any + Send)) {
        let msg = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        };
        self.fail(
            FailureKind::Panic,
            format!("virtual thread t{tid} panicked: {msg}"),
        );
    }

    /// Blocks until this thread holds the run token (or the execution is
    /// aborting, in which case it unwinds). Consumes the state guard.
    fn wait_token(&self, mut st: StdMutexGuard<'_, EngineState>, me: Tid) {
        loop {
            if st.aborting {
                drop(st);
                abort_unwind();
            }
            if st.running == me && st.threads[me].status == Status::Ready {
                return;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Picks the next thread to run at a schedule point and hands it the
    /// token. `me_unavailable` marks forced switches (the caller just
    /// blocked, finished or yielded), which cost no preemption.
    fn choose_next_locked(&self, st: &mut EngineState, me: Tid, me_unavailable: bool) {
        // Note: with `me_unavailable` the caller just blocked, but `me` may
        // still appear as an option if it blocked in a *timed* condvar wait
        // (choosing it means its timeout fires immediately).
        let mut options = st.runnable_options(me);
        // A yielding caller is still `Ready`: it goes to the back of the
        // line, and runs on only if nobody else can.
        if me_unavailable && options.len() > 1 && st.threads[me].status == Status::Ready {
            options.remove(0);
        }
        if options.is_empty() {
            let summary = st.blocked_summary();
            self.fail_locked(
                st,
                FailureKind::Deadlock,
                format!("no runnable virtual thread — deadlock ({summary})"),
            );
            return;
        }
        let me_runnable = !me_unavailable
            && options.first() == Some(&me)
            && st.threads[me].status == Status::Ready;
        if me_runnable && options.len() > 1 && st.preemptions >= st.limits.preemption_bound {
            options.truncate(1); // only "continue me" once the budget is spent
        }
        let depth = st.schedule.len();
        let idx = if depth < st.replay.len() {
            let i = st.replay[depth];
            if i >= options.len() {
                self.fail_locked(
                    st,
                    FailureKind::Nondeterminism,
                    format!(
                        "replay choice {i} out of range ({} options) at depth {depth} — \
                         the model body is not deterministic",
                        options.len()
                    ),
                );
                return;
            }
            i
        } else if let Some(rng) = st.rng.as_mut() {
            rng.below(options.len())
        } else {
            0
        };
        let next = options[idx];
        st.schedule.push(ScheduleStep {
            options,
            chosen: idx,
        });
        // Scheduling a timed condvar waiter (possibly `me` itself) means its
        // timeout fires now.
        if let Status::BlockedCv { cv, timed: true } = st.threads[next].status.clone() {
            if let Some(ws) = st.cv_waiters.get_mut(&cv) {
                ws.retain(|&t| t != next);
            }
            st.threads[next].status = Status::Ready;
            st.threads[next].wake = WakeReason::TimedOut;
            st.timeout_wakes += 1;
        }
        if next != me {
            if me_runnable {
                st.preemptions += 1;
            }
            st.running = next;
            self.cv.notify_all();
        }
    }

    /// A schedule point before a shim operation: pick who runs next, then
    /// wait until this thread is scheduled again.
    pub(crate) fn op_point(self: &Arc<Self>, me: Tid, what: &'static str) {
        self.schedule_point(me, what, false);
    }

    /// A yield: a schedule point at which another runnable thread, if there
    /// is one, runs next — a forced switch, free of preemption cost. This is
    /// what keeps a spin-wait finite under exploration: the spinner cannot
    /// be scheduled again and again while the thread it waits for is
    /// runnable.
    pub(crate) fn yield_point(self: &Arc<Self>, me: Tid) {
        self.schedule_point(me, "thread.yield_now", true);
    }

    fn schedule_point(self: &Arc<Self>, me: Tid, what: &'static str, yielding: bool) {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        debug_assert_eq!(
            st.running, me,
            "op from a thread that does not hold the token"
        );
        st.steps += 1;
        st.note(me, what);
        if st.steps > st.limits.max_steps {
            let max = st.limits.max_steps;
            self.fail_locked(
                &mut st,
                FailureKind::StepLimit,
                format!(
                    "execution exceeded {max} schedule points — livelock, an unbounded \
                     loop in the model body, or raise Model::max_steps"
                ),
            );
            drop(st);
            abort_unwind();
        }
        self.choose_next_locked(&mut st, me, yielding);
        self.wait_token(st, me);
    }

    // ---- happens-before updates (no schedule point; token already held) ----

    pub(crate) fn atomic_hb(&self, me: Tid, id: u64, kind: AtomicOpKind) {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        let rel = st.atomics.entry(id).or_default().rel.clone();
        let (acquire, release, seqcst, rmw) = match kind {
            AtomicOpKind::Load(o) | AtomicOpKind::RmwFailed(o) => {
                (is_acquire(o), false, is_seqcst(o), false)
            }
            AtomicOpKind::Store(o) => (false, is_release(o), is_seqcst(o), false),
            AtomicOpKind::Rmw(o) => (is_acquire(o), is_release(o), is_seqcst(o), true),
        };
        let reads = matches!(
            kind,
            AtomicOpKind::Load(_) | AtomicOpKind::RmwFailed(_) | AtomicOpKind::Rmw(_)
        );
        if reads {
            if acquire {
                st.threads[me].clock.join(&rel);
            } else {
                st.threads[me].acq_pending.join(&rel);
            }
        }
        if seqcst {
            let sc = st.sc_clock.clone();
            st.threads[me].clock.join(&sc);
        }
        let writes = matches!(kind, AtomicOpKind::Store(_) | AtomicOpKind::Rmw(_));
        if writes {
            let published = if release {
                st.threads[me].clock.clone()
            } else {
                st.threads[me].fence_rel.clone()
            };
            let a = st.atomics.entry(id).or_default();
            if rmw {
                // An RMW extends the release sequence: earlier release
                // clocks stay visible to later acquirers.
                a.rel.join(&published);
            } else {
                // A plain store replaces the release sequence.
                a.rel = published;
            }
        }
        if seqcst {
            let clock = st.threads[me].clock.clone();
            st.sc_clock.join(&clock);
        }
        st.tick(me);
    }

    pub(crate) fn fence_hb(&self, me: Tid, o: std::sync::atomic::Ordering) {
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        if is_acquire(o) {
            let pending = std::mem::take(&mut st.threads[me].acq_pending);
            st.threads[me].clock.join(&pending);
        }
        if is_seqcst(o) {
            let sc = st.sc_clock.clone();
            st.threads[me].clock.join(&sc);
        }
        if is_release(o) {
            st.threads[me].fence_rel = st.threads[me].clock.clone();
        }
        if is_seqcst(o) {
            let clock = st.threads[me].clock.clone();
            st.sc_clock.join(&clock);
        }
        st.tick(me);
    }

    pub(crate) fn cell_access(self: &Arc<Self>, me: Tid, id: u64, write: bool, what: &'static str) {
        self.op_point(me, what);
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        let clock = st.threads[me].clock.clone();
        let cell = st.cells.entry(id).or_default();
        let mut race: Option<String> = None;
        if cell.has_write && cell.w_tid != me && clock.get(cell.w_tid) < cell.w_at {
            race = Some(format!(
                "{} by t{me} races with a write by t{}",
                if write { "write" } else { "read" },
                cell.w_tid
            ));
        }
        if write && race.is_none() {
            for &(t, at) in &cell.reads {
                if t != me && clock.get(t) < at {
                    race = Some(format!("write by t{me} races with a read by t{t}"));
                    break;
                }
            }
        }
        if write {
            cell.has_write = true;
            cell.w_tid = me;
            cell.w_at = clock.get(me);
            cell.reads.clear();
        } else {
            match cell.reads.iter_mut().find(|(t, _)| *t == me) {
                Some(entry) => entry.1 = clock.get(me),
                None => cell.reads.push((me, clock.get(me))),
            }
        }
        if let Some(msg) = race {
            self.fail_locked(
                &mut st,
                FailureKind::DataRace,
                format!("data race on RaceCell #{id}: {msg} (no happens-before edge)"),
            );
            drop(st);
            abort_unwind();
        }
        st.tick(me);
    }

    // ---- blocking primitives ----

    pub(crate) fn mutex_lock(self: &Arc<Self>, me: Tid, id: u64) {
        self.op_point(me, "mutex.lock");
        loop {
            let mut st = self.lock();
            if st.aborting {
                drop(st);
                abort_unwind();
            }
            if st.mutexes.entry(id).or_default().owner.is_none() {
                let rel = st.mutexes.entry(id).or_default().rel.clone();
                st.mutexes.entry(id).or_default().owner = Some(me);
                st.threads[me].clock.join(&rel);
                st.tick(me);
                return;
            }
            st.threads[me].status = Status::BlockedMutex(id);
            self.choose_next_locked(&mut st, me, true);
            self.wait_token(st, me);
        }
    }

    pub(crate) fn mutex_unlock(self: &Arc<Self>, me: Tid, id: u64) {
        self.op_point(me, "mutex.unlock");
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        self.release_mutex_locked(&mut st, me, id);
        st.tick(me);
    }

    /// Mutex release while a panic is unwinding through a guard drop: no
    /// schedule point and, crucially, no abort-unwind (a second panic during
    /// unwinding aborts the process).
    pub(crate) fn mutex_unlock_teardown(self: &Arc<Self>, me: Tid, id: u64) {
        let mut st = self.lock();
        if st.aborting {
            return; // per-execution state is reset before the next run
        }
        self.release_mutex_locked(&mut st, me, id);
        st.tick(me);
    }

    fn release_mutex_locked(&self, st: &mut EngineState, me: Tid, id: u64) {
        let clock = st.threads[me].clock.clone();
        let m = st.mutexes.entry(id).or_default();
        debug_assert_eq!(m.owner, Some(me), "unlock of a mutex not owned by t{me}");
        m.owner = None;
        m.rel = clock;
        // Wake every waiter; they re-compete for the lock under subsequent
        // schedule choices (barging is allowed, as with std mutexes).
        for t in 0..st.threads.len() {
            if st.threads[t].status == Status::BlockedMutex(id) {
                st.threads[t].status = Status::Ready;
                st.threads[t].wake = WakeReason::Notified;
            }
        }
    }

    /// Condvar wait: atomically releases `mutex`, blocks on `cv`, then
    /// reacquires `mutex` before returning the wake reason.
    pub(crate) fn cv_wait(
        self: &Arc<Self>,
        me: Tid,
        cv: u64,
        mutex: u64,
        timed: bool,
    ) -> WakeReason {
        self.op_point(
            me,
            if timed {
                "condvar.wait_timeout"
            } else {
                "condvar.wait"
            },
        );
        {
            let mut st = self.lock();
            if st.aborting {
                drop(st);
                abort_unwind();
            }
            self.release_mutex_locked(&mut st, me, mutex);
            st.cv_waiters.entry(cv).or_default().push(me);
            st.threads[me].status = Status::BlockedCv { cv, timed };
            st.tick(me);
            self.choose_next_locked(&mut st, me, true);
            self.wait_token(st, me);
        }
        let reason = self.lock().threads[me].wake;
        // Reacquire the mutex (no fresh schedule point: the wake itself was
        // one; blocking here if the mutex is held is handled as usual).
        loop {
            let mut st = self.lock();
            if st.aborting {
                drop(st);
                abort_unwind();
            }
            if st.mutexes.entry(mutex).or_default().owner.is_none() {
                let rel = st.mutexes.entry(mutex).or_default().rel.clone();
                st.mutexes.entry(mutex).or_default().owner = Some(me);
                st.threads[me].clock.join(&rel);
                st.tick(me);
                return reason;
            }
            st.threads[me].status = Status::BlockedMutex(mutex);
            self.choose_next_locked(&mut st, me, true);
            self.wait_token(st, me);
        }
    }

    pub(crate) fn cv_notify(self: &Arc<Self>, me: Tid, cv: u64, all: bool) {
        self.op_point(
            me,
            if all {
                "condvar.notify_all"
            } else {
                "condvar.notify_one"
            },
        );
        let mut st = self.lock();
        if st.aborting {
            drop(st);
            abort_unwind();
        }
        let woken: Vec<Tid> = match st.cv_waiters.get_mut(&cv) {
            Some(ws) if !ws.is_empty() => {
                let n = if all { ws.len() } else { 1 };
                ws.drain(..n).collect()
            }
            _ => Vec::new(),
        };
        for t in woken {
            st.threads[t].status = Status::Ready;
            st.threads[t].wake = WakeReason::Notified;
        }
        st.tick(me);
    }

    // ---- virtual thread lifecycle ----

    /// Registers a new virtual thread and dispatches its body to a pooled OS
    /// worker. Returns the new tid.
    pub(crate) fn spawn(self: &Arc<Self>, parent: Tid, body: Job) -> Tid {
        self.op_point(parent, "thread.spawn");
        let tid = {
            let mut st = self.lock();
            if st.aborting {
                drop(st);
                abort_unwind();
            }
            let tid = st.threads.len();
            if tid >= st.limits.max_threads {
                let max = st.limits.max_threads;
                self.fail_locked(
                    &mut st,
                    FailureKind::TooManyThreads,
                    format!("model spawned more than {max} virtual threads"),
                );
                drop(st);
                abort_unwind();
            }
            let mut t = ThreadState::new();
            let parent_clock = st.threads[parent].clock.clone();
            t.clock.join(&parent_clock);
            st.threads.push(t);
            st.tick(parent);
            st.tick(tid);
            tid
        };

        let engine = Arc::clone(self);
        let tx = self
            .idle_workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| Self::spawn_worker());
        let tx_for_requeue = tx.clone();
        let job: Job = Box::new(move || {
            set_current(Some((Arc::clone(&engine), tid)));
            // The initial token wait must sit INSIDE the catch: if the
            // execution aborts before this thread is ever scheduled, the
            // wait unwinds `AbortUnwind`, and letting that escape the job
            // would kill the pooled worker without running `finish_thread`
            // — leaving `main_done` waiting forever on a thread that can
            // no longer finish.
            let engine_for_body = Arc::clone(&engine);
            let result = panic::catch_unwind(panic::AssertUnwindSafe(move || {
                {
                    let st = engine_for_body.lock();
                    engine_for_body.wait_token(st, tid);
                }
                body()
            }));
            set_current(None);
            if let Err(payload) = result {
                if !payload.is::<AbortUnwind>() {
                    engine.fail_from_panic(tid, payload.as_ref());
                }
            }
            engine.finish_thread(tid);
            engine
                .idle_workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(tx_for_requeue);
        });
        // The catch above runs inside the pooled worker, so the closure
        // crossing the channel never unwinds into the worker loop.
        tx.send(job).expect("tileqr-verify worker thread died");
        tid
    }

    fn spawn_worker() -> mpsc::Sender<Job> {
        let (tx, rx) = mpsc::channel::<Job>();
        std::thread::Builder::new()
            .name("tileqr-verify-worker".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    job();
                }
            })
            .expect("failed to spawn tileqr-verify worker");
        tx
    }

    fn finish_thread(self: &Arc<Self>, me: Tid) {
        let mut st = self.lock();
        st.threads[me].status = Status::Finished;
        for t in 0..st.threads.len() {
            if st.threads[t].status == Status::BlockedJoin(me) {
                st.threads[t].status = Status::Ready;
            }
        }
        if st.aborting || st.all_finished() {
            self.cv.notify_all();
            return;
        }
        self.choose_next_locked(&mut st, me, true);
        self.cv.notify_all();
    }

    /// Blocks the caller until `target` finishes, joining its clock.
    pub(crate) fn join_thread(self: &Arc<Self>, me: Tid, target: Tid) {
        self.op_point(me, "thread.join");
        loop {
            let mut st = self.lock();
            if st.aborting {
                drop(st);
                abort_unwind();
            }
            if st.threads[target].status == Status::Finished {
                let child = st.threads[target].clock.clone();
                st.threads[me].clock.join(&child);
                st.tick(me);
                return;
            }
            st.threads[me].status = Status::BlockedJoin(target);
            self.choose_next_locked(&mut st, me, true);
            self.wait_token(st, me);
        }
    }

    /// Called by the model driver when the body (tid 0) returns: marks the
    /// main virtual thread finished, hands the token on, and drains until
    /// every virtual thread has finished (normally or by abort-unwind).
    pub(crate) fn main_done(self: &Arc<Self>) {
        let me: Tid = 0;
        let mut st = self.lock();
        st.threads[me].status = Status::Finished;
        if !st.aborting && !st.all_finished() {
            self.choose_next_locked(&mut st, me, true);
        }
        self.cv.notify_all();
        loop {
            if st.all_finished() {
                return;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}
