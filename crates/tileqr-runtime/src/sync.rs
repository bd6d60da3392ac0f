//! Std-only synchronisation primitives for the runtime.
//!
//! The workspace builds offline, so instead of `parking_lot` and `crossbeam`
//! this module provides the primitives the executor and the shared
//! factorization state actually need:
//!
//! * [`Mutex`] — a thin wrapper over `std::sync::Mutex` with the
//!   `parking_lot`-style infallible `lock()` API (a poisoned lock means a
//!   kernel panicked on another thread; propagating the panic is the only
//!   sensible response, so the guard just unwraps the poison).
//! * [`CancelToken`] — a shared cancellation flag (one atomic) checked by
//!   workers between tasks; carries *why* it fired (user cancel, deadline,
//!   watchdog stall) so the context can report the matching
//!   [`QrError`](crate::context::QrError).
//! * [`OnceSlot`] — a one-shot blocking result cell (the service layer's
//!   per-ticket rendezvous): one producer stores a value exactly once, any
//!   number of consumers block until it lands. The producer skips the
//!   condvar notification entirely when no consumer is waiting, so
//!   resolving a ticket nobody is blocked on costs one mutex round trip
//!   and zero syscalls.
//! * [`Backoff`] — three-tier idle backoff (spin → yield → bounded park)
//!   used by workers that find no runnable task, so an idle pool stops
//!   burning CPU when the tail of the DAG is sequential while still reacting
//!   within a bounded time when work appears.
//! * [`TaskQueue`] — a locked FIFO of task indices with an *exact*
//!   preallocated capacity: the global injector of initially-ready tasks
//!   for the work-stealing scheduler.
//! * [`WorkerDeque`] — a fixed-capacity Chase–Lev work-stealing deque of
//!   task indices: the owning worker pushes and pops at the bottom (LIFO,
//!   cache-warm), other workers steal from the top (FIFO, oldest first).
//!   The buffer is preallocated once, so the hot path never allocates.
//!
//! The deque follows the memory-ordering protocol of Lê, Pop, Cocchini &
//! Zappa Nardelli, *“Correct and Efficient Work-Stealing for Weak Memory
//! Models”* (PPoPP'13) — the same protocol `crossbeam-deque` implements —
//! but stores the elements in `AtomicUsize` cells, which keeps the whole
//! implementation in safe Rust: task indices are plain `usize`s, so atomic
//! cells cost nothing and eliminate every data race by construction.
//!
//! # Model checking and the memory-ordering audit
//!
//! Everything in this module is built on the `shim` alias layer: plain
//! `std::sync` types in normal builds, the `tileqr-verify` model-checking
//! shims under `RUSTFLAGS="--cfg tileqr_verify"`. The suites in
//! `model_check.rs` (compiled only under that cfg) run the deque, the
//! cancel token, the once-slot and the lazy-condvar handshake through every
//! preemption-bounded interleaving plus seeded random sampling.
//!
//! Per-site ordering rationale, audited against the checker's
//! happens-before layer:
//!
//! * [`WorkerDeque`] — verbatim Lê et al. (PPoPP'13): `push` publishes the
//!   element with a **release fence** before the relaxed `bottom` store
//!   (comment at the site explains why a release *store* would be wrong);
//!   `pop` orders its `bottom` decrement against stealers' `top` reads with
//!   a **SeqCst fence**, matched by the SeqCst fence in `steal`; the
//!   `top` CAS in both is SeqCst. The checker verifies the protocol under
//!   SC interleavings and its race detector confirms the fences establish
//!   the element-handoff happens-before edges; it **cannot** justify
//!   downgrading the SeqCst pair, because the weak behaviours a downgrade
//!   admits (the load buffering / IRIW-style executions the PPoPP'13 proof
//!   rules out) are exactly what an SC explorer never exhibits. They stay
//!   SeqCst.
//! * [`CancelToken`] — `trigger` is an AcqRel CAS (first cause wins and the
//!   winner's writes are visible to whoever observes the cause);
//!   `is_cancelled`/`cause` are Acquire loads; `reset` is a Release store.
//! * [`OnceSlot`] / `LazyCondvar` — the waiter counter is incremented
//!   *under the mutex* before the wait releases it, and the notifier reads
//!   it *after* its own critical section, so mutex ordering alone makes the
//!   counter race-free: either the notifier sees the waiter, or the waiter
//!   entered the lock after the notifier and sees the state change itself.
//!   The SeqCst counter orderings are therefore stronger than required —
//!   Relaxed would satisfy the checker — but the counter is touched only on
//!   the blocking slow path, so they are kept as belt and braces.
//! * `ClaimFlag` — `claim` is a `swap(true, AcqRel)`: Acquire so the
//!   single winner observes everything that happened before a racing
//!   loser's attempt, Release so a later observer of the flag sees the
//!   winner's prior writes.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use self::shim::{fence, AtomicIsize, AtomicUsize};

/// Alias layer selecting the synchronisation backend.
///
/// Normal builds re-export `std::sync` primitives, so this module costs
/// nothing. Under `--cfg tileqr_verify` the same names resolve to the
/// `tileqr-verify` shims, which fall through to `std` outside a model but
/// hand every operation to the interleaving explorer inside one. Everything
/// in the runtime that synchronises between threads imports from here, never
/// from `std::sync` directly.
#[cfg(not(tileqr_verify))]
pub(crate) mod shim {
    pub(crate) use std::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicU64, AtomicUsize};
    pub(crate) use std::sync::{
        Condvar as RawCondvar, Mutex as RawMutex, MutexGuard as RawMutexGuard,
    };
    use std::time::Duration;

    #[inline]
    pub(crate) fn raw_lock<T>(m: &RawMutex<T>) -> RawMutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn raw_into_inner<T>(m: RawMutex<T>) -> T {
        m.into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[inline]
    pub(crate) fn raw_wait<'a, T>(
        cv: &RawCondvar,
        g: RawMutexGuard<'a, T>,
    ) -> RawMutexGuard<'a, T> {
        cv.wait(g)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[inline]
    pub(crate) fn raw_wait_timeout<'a, T>(
        cv: &RawCondvar,
        g: RawMutexGuard<'a, T>,
        dur: Duration,
    ) -> (RawMutexGuard<'a, T>, bool) {
        let (g, r) = cv
            .wait_timeout(g, dur)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (g, r.timed_out())
    }
}

/// See the `cfg(not(tileqr_verify))` twin above.
#[cfg(tileqr_verify)]
pub(crate) mod shim {
    use std::time::Duration;
    pub(crate) use tileqr_verify::sync::atomic::{
        fence, AtomicBool, AtomicIsize, AtomicU64, AtomicUsize,
    };
    pub(crate) use tileqr_verify::sync::{
        Condvar as RawCondvar, Mutex as RawMutex, MutexGuard as RawMutexGuard,
    };

    #[inline]
    pub(crate) fn raw_lock<T>(m: &RawMutex<T>) -> RawMutexGuard<'_, T> {
        m.lock()
    }

    pub(crate) fn raw_into_inner<T>(m: RawMutex<T>) -> T {
        m.into_inner()
    }

    #[inline]
    pub(crate) fn raw_wait<'a, T>(
        cv: &RawCondvar,
        g: RawMutexGuard<'a, T>,
    ) -> RawMutexGuard<'a, T> {
        cv.wait(g)
    }

    #[inline]
    pub(crate) fn raw_wait_timeout<'a, T>(
        cv: &RawCondvar,
        g: RawMutexGuard<'a, T>,
        dur: Duration,
    ) -> (RawMutexGuard<'a, T>, bool) {
        let (g, r) = cv.wait_timeout(g, dur);
        (g, r.timed_out())
    }
}

/// Infallible mutex: `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub(crate) struct Mutex<T>(shim::RawMutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub(crate) type MutexGuard<'a, T> = shim::RawMutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Wraps a value.
    pub(crate) const fn new(value: T) -> Self {
        Mutex(shim::RawMutex::new(value))
    }

    /// Acquires the lock, ignoring poison (a panic on another thread is
    /// already propagating through the thread scope).
    #[inline]
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        shim::raw_lock(&self.0)
    }

    /// Consumes the mutex and returns the inner value.
    pub(crate) fn into_inner(self) -> T {
        shim::raw_into_inner(self.0)
    }
}

/// Infallible condition variable paired with [`Mutex`]: poison is stripped,
/// and `wait_timeout` returns a plain `(guard, timed_out)` pair. Routed
/// through the `shim` layer like every other primitive here.
#[derive(Debug, Default)]
pub(crate) struct Condvar(shim::RawCondvar);

impl Condvar {
    /// A new condition variable.
    pub(crate) const fn new() -> Self {
        Condvar(shim::RawCondvar::new())
    }

    /// Blocks until notified.
    #[inline]
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        shim::raw_wait(&self.0, guard)
    }

    /// Blocks until notified or `dur` elapses; the `bool` is true when the
    /// wait timed out.
    #[inline]
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        shim::raw_wait_timeout(&self.0, guard, dur)
    }

    /// Wakes one waiter.
    #[inline]
    pub(crate) fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    #[inline]
    pub(crate) fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A condvar whose notifiers can skip the syscall when nobody waits.
///
/// Waiters register in a counter *while holding the mutex* (inside
/// [`LazyCondvar::wait`]/[`LazyCondvar::wait_timeout`], before the wait
/// releases it); a notifier that has since left its own critical section
/// calls [`LazyCondvar::notify_all_if_waiting`], which reads the counter
/// and only touches the condvar when it is nonzero. Mutex ordering makes
/// the handshake lossless: a waiter either incremented the counter before
/// the notifier's critical section (the notifier sees it and notifies) or
/// entered the lock afterwards (and then observes the state change the
/// notification would have signalled, so it never blocks on stale state —
/// provided callers re-check their predicate under the lock before
/// waiting, as every condvar loop must). Model-checked in
/// `model_check.rs`, including the shutdown-vs-submit race.
#[derive(Debug, Default)]
pub(crate) struct LazyCondvar {
    cv: Condvar,
    waiters: AtomicUsize,
}

impl LazyCondvar {
    /// A new lazy condvar with no waiters.
    pub(crate) const fn new() -> Self {
        LazyCondvar {
            cv: Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Blocks until notified; the caller must re-check its predicate.
    pub(crate) fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let guard = self.cv.wait(guard);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard
    }

    /// Blocks until notified or `dur` elapses; the `bool` is true when the
    /// wait timed out.
    pub(crate) fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (guard, timed_out) = self.cv.wait_timeout(guard, dur);
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        (guard, timed_out)
    }

    /// Wakes all waiters iff any are registered. Call *after* leaving the
    /// critical section that changed the awaited state.
    #[inline]
    pub(crate) fn notify_all_if_waiting(&self) {
        if self.waiters.load(Ordering::SeqCst) > 0 {
            self.cv.notify_all();
        }
    }
}

/// An exactly-once claim: many threads may race to [`ClaimFlag::claim`],
/// exactly one wins. Backs the "deliver each copy exactly once" guarantee of
/// the fused job (the worker retiring a copy's last task and the job-end
/// sweep may both reach for it; whichever claims the flag delivers the
/// outcome).
#[derive(Debug, Default)]
pub(crate) struct ClaimFlag(shim::AtomicBool);

impl ClaimFlag {
    /// A new, unclaimed flag.
    pub(crate) fn new() -> Self {
        ClaimFlag(shim::AtomicBool::new(false))
    }

    /// Attempts the claim; true for exactly one caller.
    #[inline]
    pub(crate) fn claim(&self) -> bool {
        !self.0.swap(true, Ordering::AcqRel)
    }
}

/// Why a runtime job was interrupted; reported through
/// [`QrError`](crate::context::QrError) as the matching variant.
///
/// The first cause to fire wins ([`CancelToken::trigger`] is a
/// compare-and-swap from the live state), so a job that is both cancelled by
/// the user and past its deadline reports whichever condition was observed
/// first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum CancelCause {
    /// [`CancelToken::cancel`] was called (user-initiated).
    Cancelled,
    /// A deadline passed while the job was running (or before it started).
    DeadlineExceeded,
    /// A worker wanting work saw no task retire for longer than the stall
    /// bound (the watchdog).
    Stalled,
}

const CANCEL_LIVE: usize = 0;
const CANCEL_USER: usize = 1;
const CANCEL_DEADLINE: usize = 2;
const CANCEL_STALLED: usize = 3;

/// A shared cancellation flag checked by the runtime between tasks.
///
/// Cloning the token yields another handle to the same flag; cancellation is
/// one atomic store, and the workers' check is one atomic load per task.
/// Obtain one for a running context with
/// [`QrContext::cancel_handle`](crate::context::QrContext::cancel_handle).
///
/// A user cancellation is **sticky**: every subsequent factorization through
/// the same context fails with
/// [`QrError::Cancelled`](crate::context::QrError) until [`CancelToken::reset`]
/// is called. (Deadline and watchdog interruptions are scoped to the one job
/// they fire on — they use a per-job token internally and never poison the
/// context's handle.)
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    state: Arc<AtomicUsize>,
}

impl CancelToken {
    /// A fresh, live token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation of the work observing this token. Idempotent;
    /// has no effect if another cause already triggered the token.
    pub fn cancel(&self) {
        self.trigger(CancelCause::Cancelled);
    }

    /// True once any cause has triggered the token.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::Acquire) != CANCEL_LIVE
    }

    /// Returns the token to the live state so the owner can run further
    /// jobs. Only meaningful on a token whose work has already wound down;
    /// in-flight workers that already observed the cancellation still exit.
    pub fn reset(&self) {
        self.state.store(CANCEL_LIVE, Ordering::Release);
    }

    /// Triggers the token with a specific cause; the first cause wins.
    /// Returns true if this call performed the transition.
    pub(crate) fn trigger(&self, cause: CancelCause) -> bool {
        let v = match cause {
            CancelCause::Cancelled => CANCEL_USER,
            CancelCause::DeadlineExceeded => CANCEL_DEADLINE,
            CancelCause::Stalled => CANCEL_STALLED,
        };
        self.state
            .compare_exchange(CANCEL_LIVE, v, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// The cause that triggered the token, if any.
    pub(crate) fn cause(&self) -> Option<CancelCause> {
        match self.state.load(Ordering::Acquire) {
            CANCEL_USER => Some(CancelCause::Cancelled),
            CANCEL_DEADLINE => Some(CancelCause::DeadlineExceeded),
            CANCEL_STALLED => Some(CancelCause::Stalled),
            _ => None,
        }
    }
}

/// A one-shot blocking result cell.
///
/// The producer calls [`OnceSlot::set`] exactly once; consumers block in
/// [`OnceSlot::wait`] / [`OnceSlot::wait_deadline`] (tests also poll). The value is *taken* (moved out) by whichever
/// consumer call observes it first — the service layer wraps each slot in a
/// single-owner `Ticket`, so in practice there is exactly one consumer.
///
/// `set` only touches the condvar when a consumer has registered as waiting
/// (via `LazyCondvar`: the waiter registers *under the lock* before the
/// wait releases it, and `set` checks after releasing the lock, so a waiter
/// is either seen by `set` or sees the value itself under the lock — the
/// wakeup cannot be lost). This keeps the resolve path of an un-awaited
/// ticket down to one uncontended mutex round trip, which is what lets the
/// streaming service stay within its overhead budget against the fused
/// batch path.
#[derive(Debug)]
pub(crate) struct OnceSlot<V> {
    value: Mutex<Option<V>>,
    cv: LazyCondvar,
}

impl<V> Default for OnceSlot<V> {
    fn default() -> Self {
        OnceSlot::new()
    }
}

impl<V> OnceSlot<V> {
    /// An empty slot.
    pub(crate) fn new() -> Self {
        OnceSlot {
            value: Mutex::new(None),
            cv: LazyCondvar::new(),
        }
    }

    /// Stores the value, waking any blocked consumers. Returns `false` (and
    /// drops `value`) if the slot was already filled — the service resolves
    /// every ticket exactly once, so a double set is a caller bug surfaced
    /// by a debug assertion rather than silent replacement.
    pub(crate) fn set(&self, value: V) -> bool {
        let stored = {
            let mut slot = self.value.lock();
            if slot.is_some() {
                debug_assert!(false, "OnceSlot::set called twice");
                false
            } else {
                *slot = Some(value);
                true
            }
        };
        if stored {
            self.cv.notify_all_if_waiting();
        }
        stored
    }

    /// Takes the value if it has already landed.
    #[cfg(test)]
    pub(crate) fn try_take(&self) -> Option<V> {
        self.value.lock().take()
    }

    /// True once a value has landed (and has not been taken yet).
    pub(crate) fn is_set(&self) -> bool {
        self.value.lock().is_some()
    }

    /// Blocks until the value lands, then takes it.
    pub(crate) fn wait(&self) -> V {
        let mut slot = self.value.lock();
        loop {
            if let Some(v) = slot.take() {
                return v;
            }
            slot = self.cv.wait(slot);
        }
    }

    /// Blocks until the value lands or `deadline` passes; takes the value if
    /// it landed in time.
    pub(crate) fn wait_deadline(&self, deadline: std::time::Instant) -> Option<V> {
        let mut slot = self.value.lock();
        loop {
            if let Some(v) = slot.take() {
                break Some(v);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                break None;
            }
            let (guard, _timed_out) = self.cv.wait_timeout(slot, deadline - now);
            slot = guard;
        }
    }
}

/// Three-tier backoff for idle loops: a few busy spins with `spin_loop`
/// hints, then `yield_now` snoozes, then bounded `park_timeout` sleeps with
/// exponentially growing (capped) timeouts. The park tier is what lets an
/// oversubscribed or many-core pool go truly idle at the sequential tail of
/// a DAG instead of burning every core on yields; the cap bounds the wake-up
/// latency once work reappears.
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    step: u32,
}

const SPIN_LIMIT: u32 = 6;
const YIELD_LIMIT: u32 = 10;
/// Past this step the park timeout stops doubling.
const PARK_LIMIT: u32 = 14;
/// First park duration; doubles each step up to `MAX_PARK_MICROS`.
const BASE_PARK_MICROS: u64 = 20;
/// Upper bound on a single park (keeps worst-case reaction time bounded).
const MAX_PARK_MICROS: u64 = 200;

impl Backoff {
    /// Fresh backoff (next snooze is a cheap spin).
    pub(crate) fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Resets after useful work was found.
    #[inline]
    pub(crate) fn reset(&mut self) {
        self.step = 0;
    }

    /// Backs off once: `2^step` spin-loop hints while `step` is small, then
    /// a `yield_now`, then a bounded `park_timeout` whose duration doubles
    /// until it reaches `MAX_PARK_MICROS`. A spurious `unpark` only makes
    /// the sleep shorter, never incorrect — the caller re-checks its
    /// condition on every iteration anyway.
    #[inline]
    pub(crate) fn snooze(&mut self) {
        // Inside a model-checker execution real spinning or parking would
        // only burn wall clock (virtual threads advance by schedule points,
        // not time), so a snooze becomes a single yield point.
        #[cfg(tileqr_verify)]
        if tileqr_verify::model::in_model() {
            tileqr_verify::thread::yield_now();
            return;
        }
        if self.step <= SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step <= YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            let micros = (BASE_PARK_MICROS << (self.step - YIELD_LIMIT - 1)).min(MAX_PARK_MICROS);
            std::thread::park_timeout(Duration::from_micros(micros));
        }
        if self.step <= PARK_LIMIT {
            self.step += 1;
        }
    }

    /// True once the backoff has escalated past busy spinning and yielding
    /// into the parking tier.
    #[cfg(test)]
    #[inline]
    pub(crate) fn is_completed(&self) -> bool {
        self.step > YIELD_LIMIT
    }
}

/// Shared FIFO of ready task indices.
///
/// The capacity passed to [`TaskQueue::with_capacity`] is a hard bound, not
/// a hint: the buffer is reserved exactly once and a debug assertion fires
/// if a push would ever exceed it, so the allocation-free guarantee of the
/// executor hot loop holds for the injector too. (Callers size the queue to
/// the DAG length; a task index is enqueued at most once, so the bound is
/// structural.)
#[derive(Debug)]
pub(crate) struct TaskQueue {
    inner: Mutex<VecDeque<usize>>,
    capacity: usize,
}

impl TaskQueue {
    /// Creates a queue with room for exactly `capacity` indices.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let mut buf = VecDeque::new();
        buf.reserve_exact(capacity);
        TaskQueue {
            inner: Mutex::new(buf),
            capacity,
        }
    }

    /// Enqueues a ready task.
    ///
    /// Debug-asserts that the queue stays within its preallocated capacity
    /// (a violation means the caller under-sized the queue and the push
    /// would reallocate under the lock).
    #[inline]
    pub(crate) fn push(&self, idx: usize) {
        let mut q = self.inner.lock();
        debug_assert!(
            q.len() < self.capacity,
            "TaskQueue capacity {} exceeded — the hot path would reallocate",
            self.capacity
        );
        q.push_back(idx);
    }

    /// Dequeues the oldest ready task, if any.
    #[inline]
    pub(crate) fn pop(&self) -> Option<usize> {
        self.inner.lock().pop_front()
    }
}

/// Result of a steal attempt on a [`WorkerDeque`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Steal {
    /// The deque was (or appeared) empty.
    Empty,
    /// Lost a race with the owner or another stealer; retrying immediately
    /// or moving to another victim are both sensible.
    Retry,
    /// Stole the oldest task.
    Success(usize),
}

/// A fixed-capacity Chase–Lev work-stealing deque of task indices.
///
/// One worker *owns* the deque and is the only caller of
/// [`WorkerDeque::push`] and [`WorkerDeque::pop`] (bottom end, LIFO); any
/// thread may call [`WorkerDeque::steal`] (top end, FIFO). The executor
/// enforces the single-owner discipline by indexing one deque per worker.
/// All methods take `&self`: the cells are atomics, so a violation of the
/// discipline could lose or duplicate a *task index* but can never be a
/// data race.
///
/// The buffer never grows. Capacity is set at construction to the total
/// number of tasks that can ever be live (the DAG length), so `push` checks
/// the bound only by debug assertion.
#[derive(Debug)]
pub(crate) struct WorkerDeque {
    /// Next steal position (top end). Monotonically increasing.
    top: AtomicIsize,
    /// Next push position (bottom end). Only the owner writes it.
    bottom: AtomicIsize,
    /// Power-of-two ring buffer of task indices.
    buffer: Box<[AtomicUsize]>,
    mask: usize,
}

impl WorkerDeque {
    /// Creates a deque able to hold at least `capacity` indices at once.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        let buffer: Box<[AtomicUsize]> = (0..cap).map(|_| AtomicUsize::new(0)).collect();
        WorkerDeque {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buffer,
            mask: cap - 1,
        }
    }

    #[inline]
    fn cell(&self, index: isize) -> &AtomicUsize {
        &self.buffer[index as usize & self.mask]
    }

    /// Pushes a task at the bottom. Owner only.
    #[inline]
    pub(crate) fn push(&self, task: usize) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        debug_assert!(
            (b - t) as usize <= self.mask,
            "WorkerDeque capacity {} exceeded — deques must be sized to the DAG",
            self.mask + 1
        );
        self.cell(b).store(task, Ordering::Relaxed);
        // Publish the element before publishing the new bottom. A release
        // *fence* (not a release store): `pop` also writes `bottom` with
        // relaxed stores, which under the C++20 release-sequence rules would
        // sever the synchronizes-with edge of an earlier release store, so a
        // stealer acquiring `bottom` could miss the element write. The fence
        // orders the element store before the bottom store regardless of who
        // wrote `bottom` last — exactly the protocol of Lê et al. (PPoPP'13).
        fence(Ordering::Release);
        self.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Pops the most recently pushed task (LIFO). Owner only.
    #[inline]
    pub(crate) fn pop(&self) -> Option<usize> {
        // Empty fast path: the owner is the only pusher, so if it observes
        // `bottom <= top` the deque is empty (top only grows). This skips
        // the SeqCst fence on the idle path, which workers hit continuously
        // while waiting for the DAG tail.
        if self.bottom.load(Ordering::Relaxed) <= self.top.load(Ordering::Relaxed) {
            return None;
        }
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // The SeqCst fence orders the bottom decrement against the stealers'
        // top reads; without it a stealer and the owner could both take the
        // last element.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let task = self.cell(b).load(Ordering::Relaxed);
            if t == b {
                // Single element left: race the stealers for it via top.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                return won.then_some(task);
            }
            Some(task)
        } else {
            // Deque was empty; restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Steals the oldest task (FIFO). Any thread.
    #[inline]
    pub(crate) fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let task = self.cell(t).load(Ordering::Relaxed);
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            Steal::Success(task)
        } else {
            Steal::Retry
        }
    }

    /// True if the deque currently appears empty (racy, advisory only).
    #[cfg(test)]
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        t >= b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn mutex_lock_and_into_inner() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn mutex_recovers_from_poison() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the lock");
        })
        .join();
        *m.lock() += 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn cancel_token_first_cause_wins_and_reset_revives() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.cause(), None);
        assert!(t.trigger(CancelCause::DeadlineExceeded));
        // A later cause does not overwrite the first.
        assert!(!t.trigger(CancelCause::Stalled));
        t.cancel(); // also a no-op now
        assert_eq!(t.cause(), Some(CancelCause::DeadlineExceeded));
        // Clones share the state.
        let c = t.clone();
        assert!(c.is_cancelled());
        c.reset();
        assert!(!t.is_cancelled());
        t.cancel();
        assert_eq!(c.cause(), Some(CancelCause::Cancelled));
    }

    #[test]
    fn once_slot_set_then_take() {
        let s = OnceSlot::new();
        assert!(!s.is_set());
        assert_eq!(s.try_take(), None);
        assert!(s.set(7));
        assert!(s.is_set());
        assert_eq!(s.try_take(), Some(7));
        assert_eq!(s.try_take(), None);
    }

    #[test]
    fn once_slot_wakes_a_blocked_waiter() {
        let s = Arc::new(OnceSlot::new());
        let s2 = Arc::clone(&s);
        let waiter = std::thread::spawn(move || s2.wait());
        std::thread::sleep(Duration::from_millis(5));
        assert!(s.set(42));
        assert_eq!(waiter.join().unwrap(), 42);
    }

    #[test]
    fn once_slot_wait_deadline_times_out_and_later_succeeds() {
        let s = OnceSlot::new();
        let deadline = std::time::Instant::now() + Duration::from_millis(5);
        assert_eq!(s.wait_deadline(deadline), None::<u32>);
        s.set(9);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        assert_eq!(s.wait_deadline(deadline), Some(9));
    }

    #[test]
    fn backoff_escalates_and_resets() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..32 {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn backoff_park_tier_sleeps_but_stays_bounded() {
        // Drive the backoff deep into the parking tier and check a snooze
        // still returns promptly (bounded park), i.e. the pool can never
        // deadlock waiting for an unpark that nobody sends.
        let mut b = Backoff::new();
        for _ in 0..64 {
            b.snooze();
        }
        assert!(b.is_completed());
        let start = std::time::Instant::now();
        b.snooze();
        assert!(
            start.elapsed() < Duration::from_millis(50),
            "parked snooze must be bounded"
        );
    }

    #[test]
    fn task_queue_is_fifo() {
        let q = TaskQueue::with_capacity(4);
        assert_eq!(q.pop(), None);
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn task_queue_survives_concurrent_use() {
        let q = std::sync::Arc::new(TaskQueue::with_capacity(1024));
        let mut handles = Vec::new();
        for t in 0..4 {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..256 {
                    q.push(t * 256 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = std::collections::HashSet::new();
        while let Some(v) = q.pop() {
            assert!(seen.insert(v));
        }
        assert_eq!(seen.len(), 1024);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "capacity")]
    fn task_queue_rejects_overflow_in_debug() {
        let q = TaskQueue::with_capacity(2);
        q.push(0);
        q.push(1);
        q.push(2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "WorkerDeque capacity")]
    fn deque_rejects_overflow_in_debug() {
        // Capacity is a hard bound: the ring is sized to the DAG and never
        // grows, so pushing `capacity + 1` live items must trip the debug
        // assertion rather than silently overwrite un-stolen slots.
        let d = WorkerDeque::with_capacity(2);
        d.push(0);
        d.push(1);
        d.push(2);
    }

    #[test]
    fn deque_owner_pop_is_lifo() {
        let d = WorkerDeque::with_capacity(8);
        assert_eq!(d.pop(), None);
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.pop(), Some(2));
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.pop(), None);
        assert!(d.is_empty());
    }

    #[test]
    fn deque_steal_is_fifo() {
        let d = WorkerDeque::with_capacity(8);
        d.push(1);
        d.push(2);
        d.push(3);
        assert_eq!(d.steal(), Steal::Success(1));
        assert_eq!(d.steal(), Steal::Success(2));
        assert_eq!(d.pop(), Some(3));
        assert_eq!(d.steal(), Steal::Empty);
    }

    #[test]
    fn deque_wraps_around_the_ring() {
        let d = WorkerDeque::with_capacity(4);
        // Cycle more items than the capacity through the ring.
        for round in 0..10usize {
            d.push(round * 2);
            d.push(round * 2 + 1);
            assert_eq!(d.steal(), Steal::Success(round * 2));
            assert_eq!(d.pop(), Some(round * 2 + 1));
        }
        assert!(d.is_empty());
    }

    /// The steal-correctness test of the scheduler ISSUE: every pushed index
    /// is popped or stolen exactly once under concurrent stealers, while the
    /// owner interleaves pushes and pops.
    #[test]
    fn deque_every_index_taken_exactly_once_under_concurrent_stealers() {
        const N: usize = 20_000;
        const STEALERS: usize = 3;
        let d = Arc::new(WorkerDeque::with_capacity(N));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let mut handles = Vec::new();
        for _ in 0..STEALERS {
            let d = d.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                loop {
                    match d.steal() {
                        Steal::Success(v) => got.push(v),
                        Steal::Retry => std::hint::spin_loop(),
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && d.is_empty() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
                got
            }));
        }

        // Owner: push every index, popping a few along the way to exercise
        // the owner/stealer race on the last element.
        let mut owner_got = Vec::new();
        for i in 0..N {
            d.push(i);
            if i % 5 == 0 {
                if let Some(v) = d.pop() {
                    owner_got.push(v);
                }
            }
        }
        while let Some(v) = d.pop() {
            owner_got.push(v);
        }
        done.store(true, Ordering::Release);

        let mut seen: HashSet<usize> = HashSet::with_capacity(N);
        for v in owner_got {
            assert!(seen.insert(v), "index {v} taken twice");
        }
        for h in handles {
            for v in h.join().unwrap() {
                assert!(seen.insert(v), "index {v} taken twice");
            }
        }
        assert_eq!(seen.len(), N, "some indices were lost");
    }
}
