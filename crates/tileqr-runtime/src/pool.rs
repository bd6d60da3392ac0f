//! Persistent, parkable worker pool behind [`QrContext`](crate::context::QrContext).
//!
//! The scoped executor ([`crate::executor`]) spawns and joins a fresh set of
//! worker threads on every call — correct, but a stream of moderate-size
//! factorizations then pays thread startup and teardown per matrix. This
//! module provides the long-lived alternative the context API is built on:
//!
//! * `threads` workers are spawned **once** when the pool is built;
//! * between jobs they idle through the same three-tier
//!   [`Backoff`](crate::sync::Backoff) the executor uses (spin → yield →
//!   bounded park), so an idle pool consumes no CPU;
//! * a job is submitted by publishing an `Arc<dyn Job>` and bumping an
//!   epoch counter; every worker is unparked, runs `Job::run(worker_index)`,
//!   and the submitter blocks until all of them have finished. The wake-up
//!   cost is **per job, not per matrix**: jobs fuse `k` small
//!   factorizations
//!   ([`QrContext::factorize_batch`](crate::context::QrContext::factorize_batch),
//!   service groups) precisely so they ride one epoch bump instead of `k`;
//! * a panicking job is caught on the worker, the payload is stored, and
//!   [`WorkerPool::run`] re-raises it on the submitting thread — the pool
//!   itself stays alive and can run further jobs. When several workers panic
//!   in one job, only the first payload can be re-raised; the rest are
//!   **counted**, and the count is surfaced in the re-raised panic instead
//!   of being dropped silently;
//! * each worker maintains a **heartbeat counter** (bumped once per retired
//!   task by the executor loop). The submitter's wait loop can observe the
//!   heartbeats through a [`RunCtl`]: if the sum stops advancing for longer
//!   than a stall bound, the watchdog triggers the job's cancel token with
//!   [`CancelCause::Stalled`] so cooperating workers abandon the job instead
//!   of hanging the submitter forever. The same poll loop enforces
//!   deadlines and forwards user cancellation — clock reads happen on the
//!   *submitting* thread, never on the per-task worker path;
//! * dropping the pool shuts the workers down and joins them.
//!
//! The watchdog is cooperative: it recovers runs whose workers are *idling*
//! without progress (the shape of a lost-task bug) and runs whose stalled
//! task eventually returns (e.g. a long sleep). A task that never returns
//! wedges its OS thread — safe Rust cannot reclaim that; the watchdog then
//! still bounds what the *other* workers do, but the submitter must wait for
//! the wedged task to come back.
//!
//! Jobs must be `'static` (workers are not scoped threads), which is why the
//! context wraps the per-factorization state in `Arc`s; the pool itself is
//! type-erased and knows nothing about matrices or schedulers.

use std::any::Any;
use std::sync::atomic::Ordering;

use crate::sync::shim::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sync::{Backoff, CancelCause, CancelToken, Mutex};

/// One unit of pool work: called exactly once per worker with that worker's
/// index in `0..threads` and the worker's own heartbeat counter (bumped by
/// the executor loop once per retired task so the submitter-side watchdog
/// can observe progress). Implementations coordinate internally — the
/// context's fused job (`job.rs`) drives the shared fused-DAG scheduler from
/// every worker.
pub(crate) trait Job: Send + Sync {
    /// Runs worker `w`'s share of the job.
    fn run(&self, w: usize, heartbeat: &AtomicUsize);
}

/// Cache-line-padded heartbeat cell: every worker bumps its own counter once
/// per task, so sharing a line between workers would turn the cheapest
/// progress signal into cross-core traffic.
#[repr(align(64))]
struct Heartbeat(AtomicUsize);

/// Submitter-side controls for one [`WorkerPool::run_controlled`] call: the
/// job's cancel token plus the conditions the wait loop polls while workers
/// run. All clock reads happen here, on the submitting thread — the workers
/// only ever pay one atomic load per task.
pub(crate) struct RunCtl {
    /// The per-job token the workers observe; deadline/stall/user-cancel all
    /// funnel into it.
    pub(crate) job_cancel: CancelToken,
    /// The context's sticky user handle; polled and forwarded into
    /// `job_cancel` so a `cancel()` from another thread interrupts the job
    /// within one wait-loop iteration (bounded by the backoff park cap).
    pub(crate) user_cancel: CancelToken,
    /// Absolute deadline; when passed, `job_cancel` triggers with
    /// [`CancelCause::DeadlineExceeded`].
    pub(crate) deadline: Option<Instant>,
    /// Watchdog bound: if `done` and every heartbeat stay unchanged for
    /// longer than this, `job_cancel` triggers with
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

/// State shared between the submitter and the workers.
struct Shared {
    /// The job being executed (present from submission until every worker
    /// finished). Workers clone the `Arc` out under the lock.
    job: Mutex<Option<Arc<dyn Job>>>,
    /// Bumped once per submission; workers run one job per observed bump.
    epoch: AtomicUsize,
    /// Number of workers that finished the current job.
    done: AtomicUsize,
    /// Set once, by `Drop`: workers exit their main loop.
    shutdown: AtomicBool,
    /// First panic payload raised by a job, if any.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Panic payloads beyond the first within one job: only one payload can
    /// be re-raised, but the rest must not vanish without a trace.
    suppressed_panics: AtomicUsize,
    /// Per-worker progress counters, bumped once per retired task.
    heartbeats: Vec<Heartbeat>,
    /// The submitting thread, parked while it waits for `done == threads`;
    /// the last worker to finish unparks it.
    waiter: Mutex<Option<std::thread::Thread>>,
}

/// A persistent pool of `threads` parked worker threads executing one
/// [`Job`] at a time.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    /// Handles used to unpark the workers on submission and shutdown.
    wakers: Vec<std::thread::Thread>,
    joins: Vec<JoinHandle<()>>,
    /// Serializes submissions from concurrent callers sharing one context.
    submit: Mutex<()>,
}

impl WorkerPool {
    /// Spawns `threads` workers (at least 1) that park until a job arrives.
    ///
    /// Thread spawning can genuinely fail (resource limits); the error is
    /// returned instead of panicking, and any workers already spawned are
    /// shut down and joined before it propagates — the context maps it to
    /// [`QrError::ThreadSpawn`](crate::context::QrError::ThreadSpawn).
    pub(crate) fn new(threads: usize) -> std::io::Result<Self> {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            job: Mutex::new(None),
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
            suppressed_panics: AtomicUsize::new(0),
            heartbeats: (0..threads)
                .map(|_| Heartbeat(AtomicUsize::new(0)))
                .collect(),
            waiter: Mutex::new(None),
        });
        let mut joins: Vec<JoinHandle<()>> = Vec::with_capacity(threads);
        for w in 0..threads {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("tileqr-worker-{w}"))
                .spawn(move || worker_main(&worker_shared, w, threads));
            match spawned {
                Ok(handle) => joins.push(handle),
                Err(e) => {
                    // Partial spawn: tear down what exists before reporting.
                    shared.shutdown.store(true, Ordering::Release);
                    for j in joins.drain(..) {
                        j.thread().unpark();
                        let _ = j.join();
                    }
                    return Err(e);
                }
            }
        }
        let wakers = joins.iter().map(|j| j.thread().clone()).collect();
        Ok(WorkerPool {
            shared,
            wakers,
            joins,
            submit: Mutex::new(()),
        })
    }

    /// Number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.joins.len()
    }

    /// [`WorkerPool::run_controlled`] without deadline, watchdog or
    /// cancellation — the legacy shape, kept for jobs that manage their own
    /// lifetime (and for the pool's unit tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn run(&self, job: Arc<dyn Job>) {
        self.run_controlled(job, None);
    }

    /// Runs one job to completion on every worker and returns once all of
    /// them finished. Re-raises the first panic a worker caught, after the
    /// job is fully torn down — the pool remains usable either way; if more
    /// than one worker panicked, the re-raised panic reports how many
    /// further payloads were suppressed.
    ///
    /// With a [`RunCtl`], the wait loop additionally polls the user cancel
    /// token, the deadline and the heartbeat watchdog, funnelling whichever
    /// fires first into the job's cancel token (first cause wins). The job's
    /// workers are expected to observe that token between tasks and wind
    /// down; the submitter still waits for all of them to signal completion.
    ///
    /// Concurrent callers are serialized: the pool runs one job at a time.
    pub(crate) fn run_controlled(&self, job: Arc<dyn Job>, ctl: Option<RunCtl>) {
        let _serialize = self.submit.lock();
        let shared = &self.shared;
        shared.done.store(0, Ordering::Relaxed);
        shared.suppressed_panics.store(0, Ordering::Relaxed);
        *shared.waiter.lock() = Some(std::thread::current());
        *shared.job.lock() = Some(job);
        // The release increment publishes the job slot write above to any
        // worker that acquires the epoch (the mutex already synchronizes the
        // slot itself; the epoch is what workers poll without the lock).
        shared.epoch.fetch_add(1, Ordering::Release);
        for t in &self.wakers {
            t.unpark();
        }
        // Wait for every worker. Workers unpark us when the last one
        // finishes; the bounded-park backoff makes a missed unpark a
        // bounded-latency event, never a deadlock.
        let threads = self.threads();
        let mut backoff = Backoff::new();
        let mut watch = ctl.as_ref().map(|_| WatchState::new());
        while shared.done.load(Ordering::Acquire) < threads {
            backoff.snooze();
            if let (Some(ctl), Some(watch)) = (&ctl, &mut watch) {
                self.poll_control(ctl, watch);
            }
        }
        // Tear down: drop the pool's reference to the job (workers dropped
        // theirs before signalling done) and clear the waiter slot.
        *shared.job.lock() = None;
        shared.waiter.lock().take();
        if let Some(payload) = shared.panic.lock().take() {
            let suppressed = shared.suppressed_panics.load(Ordering::Acquire);
            if suppressed == 0 {
                std::panic::resume_unwind(payload);
            }
            // More than one worker panicked: the extra payloads cannot all
            // be re-raised, so surface their count alongside the first.
            panic!(
                "{} (+{suppressed} further worker panic{} suppressed)",
                payload_message(&*payload),
                if suppressed == 1 { "" } else { "s" },
            );
        }
    }

    /// One iteration of the submitter-side control poll: forward user
    /// cancellation, enforce the deadline, and advance the stall watchdog.
    /// Runs between backoff snoozes, so its cost is per *wait iteration*,
    /// not per task; once the job token is triggered there is nothing left
    /// to poll.
    fn poll_control(&self, ctl: &RunCtl, watch: &mut WatchState) {
        if ctl.job_cancel.is_cancelled() || ctl.poll_cancel() {
            return;
        }
        if let Some(bound) = ctl.stall_bound {
            // The digest reads every worker's heartbeat line *while the
            // workers are writing them* — probing it on every snooze drags
            // those lines into shared state and measurably slows the workers
            // down. Probing at an eighth of the bound keeps the steady-state
            // cost off the workers' cache lines and still detects a stall
            // within ~9/8 of the configured bound.
            let now = Instant::now();
            if now.duration_since(watch.last_probe) < bound / 8 {
                return;
            }
            watch.last_probe = now;
            let digest = self.progress_digest();
            if digest != watch.last_digest {
                watch.last_digest = digest;
                watch.last_progress = now;
            } else if now.duration_since(watch.last_progress) > bound {
                ctl.job_cancel.trigger(CancelCause::Stalled);
            }
        }
    }

    /// Wrapping sum of every worker's heartbeat plus the done count — any
    /// retired task or finished worker changes it.
    fn progress_digest(&self) -> usize {
        let mut digest = self.shared.done.load(Ordering::Acquire);
        for hb in &self.shared.heartbeats {
            digest = digest.wrapping_add(hb.0.load(Ordering::Relaxed));
        }
        digest
    }
}

/// Stall-watchdog bookkeeping of one wait loop.
struct WatchState {
    last_digest: usize,
    last_progress: Instant,
    last_probe: Instant,
}

impl WatchState {
    fn new() -> Self {
        WatchState {
            // usize::MAX cannot be a real digest sum's first observation in
            // practice, so the first poll always registers "progress" and
            // starts the stall clock from there.
            last_digest: usize::MAX,
            last_progress: Instant::now(),
            last_probe: Instant::now(),
        }
    }
}

/// Best-effort human-readable form of a panic payload (`&str` and `String`
/// payloads — everything `panic!` produces — are extracted verbatim).
pub(crate) fn payload_message(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for t in &self.wakers {
            t.unpark();
        }
        for j in self.joins.drain(..) {
            // A worker body never panics outside a job (job panics are
            // caught and re-raised on the submitter), so join errors are
            // limited to catastrophic situations; ignore them on teardown.
            let _ = j.join();
        }
    }
}

/// Body of one pool worker: park until the epoch advances (or shutdown),
/// run the published job, signal completion, repeat.
fn worker_main(shared: &Shared, w: usize, threads: usize) {
    let mut seen = 0usize;
    loop {
        // Idle phase: wait for a new epoch with spin → yield → bounded park.
        let mut backoff = Backoff::new();
        let epoch = loop {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let e = shared.epoch.load(Ordering::Acquire);
            if e != seen {
                break e;
            }
            backoff.snooze();
        };
        seen = epoch;
        let Some(job) = shared.job.lock().clone() else {
            // Raced with teardown of a job this worker never observed
            // (possible only around shutdown); treat as spurious.
            continue;
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job.run(w, &shared.heartbeats[w].0)
        }));
        // Drop our clone *before* signalling: once `done == threads` the
        // submitter assumes it holds the only references to the job's state.
        drop(job);
        if let Err(payload) = result {
            let mut slot = shared.panic.lock();
            if slot.is_none() {
                *slot = Some(payload);
            } else {
                // Only one payload can be re-raised; count the rest so the
                // submitter can report how much was lost.
                shared.suppressed_panics.fetch_add(1, Ordering::AcqRel);
            }
        }
        if shared.done.fetch_add(1, Ordering::AcqRel) + 1 == threads {
            // Unpark without `take()`: a straggler from job N reaching this
            // point after job N+1 was submitted must not consume N+1's
            // waiter registration (that would lose N+1's completion wake-up
            // and leave its submitter to the bounded-park fallback). A
            // spurious unpark of the next submitter is harmless — it
            // re-checks `done` and parks again; the submitter clears its own
            // registration during teardown.
            if let Some(waiter) = shared.waiter.lock().as_ref() {
                waiter.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountJob {
        hits: Vec<AtomicUsize>,
    }
    impl Job for CountJob {
        fn run(&self, w: usize, heartbeat: &AtomicUsize) {
            heartbeat.fetch_add(1, Ordering::Relaxed);
            self.hits[w].fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn every_worker_runs_every_job_exactly_once() {
        let pool = WorkerPool::new(3).unwrap();
        let job = Arc::new(CountJob {
            hits: (0..3).map(|_| AtomicUsize::new(0)).collect(),
        });
        for round in 1..=10usize {
            pool.run(job.clone());
            for h in &job.hits {
                assert_eq!(h.load(Ordering::SeqCst), round);
            }
        }
    }

    #[test]
    fn pool_survives_a_panicking_job_and_reraises_it() {
        struct Bomb;
        impl Job for Bomb {
            fn run(&self, w: usize, _heartbeat: &AtomicUsize) {
                if w == 0 {
                    panic!("boom from worker 0");
                }
            }
        }
        let pool = WorkerPool::new(2).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(Arc::new(Bomb));
        }));
        assert!(err.is_err(), "job panic must reach the submitter");
        // The pool is still functional afterwards.
        let job = Arc::new(CountJob {
            hits: (0..2).map(|_| AtomicUsize::new(0)).collect(),
        });
        pool.run(job.clone());
        assert!(job.hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn multiple_worker_panics_surface_a_suppression_count() {
        struct AllBomb;
        impl Job for AllBomb {
            fn run(&self, w: usize, _heartbeat: &AtomicUsize) {
                panic!("boom from worker {w}");
            }
        }
        let pool = WorkerPool::new(3).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(Arc::new(AllBomb));
        }))
        .expect_err("all-panic job must re-raise");
        let msg = payload_message(&*err).to_string();
        assert!(
            msg.contains("+2 further worker panics suppressed"),
            "suppressed count missing from: {msg}"
        );
        assert!(
            msg.contains("boom from worker"),
            "first payload lost: {msg}"
        );
        // A clean job afterwards must not inherit the suppression count.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            struct OneBomb;
            impl Job for OneBomb {
                fn run(&self, w: usize, _heartbeat: &AtomicUsize) {
                    if w == 0 {
                        panic!("single boom");
                    }
                }
            }
            pool.run(Arc::new(OneBomb));
        }))
        .expect_err("single panic re-raises");
        assert_eq!(payload_message(&*err), "single boom");
    }

    #[test]
    fn job_state_is_exclusively_owned_after_run() {
        let pool = WorkerPool::new(4).unwrap();
        let job = Arc::new(CountJob {
            hits: (0..4).map(|_| AtomicUsize::new(0)).collect(),
        });
        pool.run(job.clone());
        // All worker clones and the pool's slot reference are gone.
        let job = Arc::try_unwrap(job).unwrap_or_else(|_| panic!("job uniquely owned"));
        assert!(job.hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn dropping_an_idle_pool_joins_cleanly() {
        let pool = WorkerPool::new(2).unwrap();
        assert_eq!(pool.threads(), 2);
        drop(pool); // must not hang
    }

    #[test]
    fn watchdog_turns_a_stalled_job_into_a_cancellation() {
        // Worker 0 makes no progress (never bumps its heartbeat) until the
        // job token fires; the other worker finishes instantly. Without the
        // watchdog the submitter would wait on worker 0 forever.
        struct StallJob {
            cancel: CancelToken,
        }
        impl Job for StallJob {
            fn run(&self, w: usize, _heartbeat: &AtomicUsize) {
                if w == 0 {
                    while !self.cancel.is_cancelled() {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
        let pool = WorkerPool::new(2).unwrap();
        let token = CancelToken::new();
        let start = Instant::now();
        pool.run_controlled(
            Arc::new(StallJob {
                cancel: token.clone(),
            }),
            Some(RunCtl {
                job_cancel: token.clone(),
                user_cancel: CancelToken::new(),
                deadline: None,
                stall_bound: Some(Duration::from_millis(20)),
            }),
        );
        assert_eq!(token.cause(), Some(CancelCause::Stalled));
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "watchdog must bound the stall"
        );
        // The pool survives and serves ordinary jobs.
        let job = Arc::new(CountJob {
            hits: (0..2).map(|_| AtomicUsize::new(0)).collect(),
        });
        pool.run(job.clone());
        assert!(job.hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn deadline_fires_through_the_wait_loop() {
        struct WaitJob {
            cancel: CancelToken,
        }
        impl Job for WaitJob {
            fn run(&self, _w: usize, heartbeat: &AtomicUsize) {
                // Keep "making progress" so the watchdog (absent here)
                // cannot be what stops the job — only the deadline can.
                while !self.cancel.is_cancelled() {
                    heartbeat.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        let pool = WorkerPool::new(2).unwrap();
        let token = CancelToken::new();
        pool.run_controlled(
            Arc::new(WaitJob {
                cancel: token.clone(),
            }),
            Some(RunCtl {
                job_cancel: token.clone(),
                user_cancel: CancelToken::new(),
                deadline: Some(Instant::now() + Duration::from_millis(15)),
                stall_bound: None,
            }),
        );
        assert_eq!(token.cause(), Some(CancelCause::DeadlineExceeded));
    }

    #[test]
    fn user_cancellation_is_forwarded_to_the_job_token() {
        struct WaitJob {
            cancel: CancelToken,
        }
        impl Job for WaitJob {
            fn run(&self, _w: usize, _heartbeat: &AtomicUsize) {
                while !self.cancel.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        let pool = WorkerPool::new(2).unwrap();
        let job_token = CancelToken::new();
        let user_token = CancelToken::new();
        let canceller = {
            let user = user_token.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                user.cancel();
            })
        };
        pool.run_controlled(
            Arc::new(WaitJob {
                cancel: job_token.clone(),
            }),
            Some(RunCtl {
                job_cancel: job_token.clone(),
                user_cancel: user_token,
                deadline: None,
                stall_bound: None,
            }),
        );
        canceller.join().unwrap();
        assert_eq!(job_token.cause(), Some(CancelCause::Cancelled));
    }
}
