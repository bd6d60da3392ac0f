//! Persistent, parkable worker pool behind [`QrContext`](crate::context::QrContext).
//!
//! The scoped executor ([`crate::executor`]) spawns and joins a fresh set of
//! worker threads on every call — correct, but a stream of moderate-size
//! factorizations then pays thread startup and teardown per matrix. This
//! module provides the long-lived alternative the context API is built on.
//! **The caller is worker 0 of its own job**:
//!
//! * a pool for `threads` threads spawns `threads − 1` **helpers**, once,
//!   when it is built; the thread that submits a job is the remaining one;
//! * between jobs the helpers idle through the same three-tier
//!   [`Backoff`](crate::sync::Backoff) the executor uses (spin → yield →
//!   bounded park), so an idle pool consumes no CPU;
//! * [`WorkerPool::run`] publishes an `Arc<dyn Job>` and bumps an epoch
//!   counter; every helper is unparked and runs `Job::run(w)` with its index
//!   `w ∈ 1..threads`, the caller runs `Job::run(0)`, then waits for the
//!   helpers' done count. The wake-up cost is **per job, not per matrix**:
//!   jobs fuse `k` small factorizations
//!   ([`QrContext::factorize_batch`](crate::context::QrContext::factorize_batch),
//!   service groups) precisely so they ride one epoch bump instead of `k`;
//! * with no helpers (`threads == 1`), `run` is a plain call on the calling
//!   thread — no lock, no epoch — so concurrent callers of a one-thread
//!   context run side by side;
//! * a panicking job is caught on every worker, the caller included, the
//!   payload is stored, and `run` re-raises it once every helper finished —
//!   the pool itself stays alive and can run further jobs. When several
//!   workers panic in one job, only the first payload can be re-raised; the
//!   rest are **counted**, and the count is surfaced in the re-raised panic
//!   instead of being dropped silently;
//! * dropping the pool shuts the helpers down and joins them.
//!
//! The pool knows nothing of cancellation, deadlines or stalls: a job's
//! workers poll those themselves, between tasks and in their idle loop
//! ([`drive_worker`](crate::executor::drive_worker)), so a job wound down by
//! any of them returns through the same path as one that ran to the end.
//!
//! A job may borrow from its caller's stack — the context's jobs read the
//! caller's dense input in place — because `run` is a scope: it returns, or
//! unwinds, only once every helper has dropped its handle on the job (see
//! [`WorkerPool::run`]). The pool itself is type-erased and knows nothing
//! about matrices or schedulers.

use std::any::Any;
use std::sync::atomic::Ordering;

use crate::sync::shim::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::sync::{Backoff, Mutex};

/// One unit of pool work: called exactly once per worker with that worker's
/// index in `0..threads` — 0 on the calling thread, `1..threads` on the
/// helpers. Implementations coordinate internally — the context's fused job
/// (`job.rs`) drives the shared fused-DAG scheduler from every worker.
pub(crate) trait Job: Send + Sync {
    /// Runs worker `w`'s share of the job.
    fn run(&self, w: usize);
}

/// State shared between the caller and the helpers.
struct Shared {
    /// The job being executed (present from submission until every helper
    /// finished). Helpers clone the `Arc` out under the lock.
    job: Mutex<Option<Arc<dyn Job>>>,
    /// Bumped once per submission; helpers run one job per observed bump.
    epoch: AtomicUsize,
    /// Number of helpers that finished the current job.
    done: AtomicUsize,
    /// Set once, by `Drop`: helpers exit their main loop.
    shutdown: AtomicBool,
    /// First panic payload raised by a job, if any.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Panic payloads beyond the first within one job: only one payload can
    /// be re-raised, but the rest must not vanish without a trace.
    suppressed_panics: AtomicUsize,
    /// The calling thread, parked while it waits for `done == helpers`; the
    /// last helper to finish unparks it.
    waiter: Mutex<Option<std::thread::Thread>>,
}

impl Shared {
    /// Keeps the first payload of a job and counts the rest.
    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock();
        if slot.is_none() {
            *slot = Some(payload);
        } else {
            self.suppressed_panics.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// A persistent pool of `threads − 1` parked helper threads that, with the
/// calling thread as worker 0, execute one [`Job`] at a time.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    /// The helpers, workers `1..threads`; their handles also unpark them.
    helpers: Vec<JoinHandle<()>>,
    /// Serializes submissions from concurrent callers sharing one pool.
    submit: Mutex<()>,
}

impl WorkerPool {
    /// A pool for `threads` (at least 1) workers: spawns `threads − 1`
    /// helpers that park until a job arrives.
    ///
    /// Thread spawning can genuinely fail (resource limits); the error is
    /// returned instead of panicking, and any helpers already spawned are
    /// shut down and joined before it propagates — the context maps it to
    /// [`QrError::ThreadSpawn`](crate::context::QrError::ThreadSpawn).
    pub(crate) fn new(threads: usize) -> std::io::Result<Self> {
        let helpers = threads.max(1) - 1;
        let shared = Arc::new(Shared {
            job: Mutex::new(None),
            epoch: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            panic: Mutex::new(None),
            suppressed_panics: AtomicUsize::new(0),
            waiter: Mutex::new(None),
        });
        let mut pool = WorkerPool {
            shared,
            helpers: Vec::with_capacity(helpers),
            submit: Mutex::new(()),
        };
        for w in 1..=helpers {
            let shared = Arc::clone(&pool.shared);
            let handle = std::thread::Builder::new()
                .name(format!("tileqr-worker-{w}"))
                .spawn(move || helper_main(&shared, w, helpers))?;
            // On a partial spawn the `?` drops `pool`, which shuts down and
            // joins the helpers spawned so far.
            pool.helpers.push(handle);
        }
        Ok(pool)
    }

    /// Number of workers: the caller plus the helpers.
    pub(crate) fn threads(&self) -> usize {
        self.helpers.len() + 1
    }

    /// Runs one job to completion — worker 0 on the calling thread, the
    /// helpers on theirs — and returns once every helper finished. Re-raises
    /// the first panic any worker caught, after the job is fully torn down —
    /// the pool remains usable either way; if more than one worker panicked,
    /// the re-raised panic reports how many further payloads were
    /// suppressed.
    ///
    /// Concurrent callers of a pool with helpers are serialized: it runs one
    /// job at a time. Without helpers, `run` just calls `job.run(0)`.
    ///
    /// The job may borrow data that lives for `'a` only: the helpers' handles
    /// on it are gone before `run` returns or unwinds.
    pub(crate) fn run<'a>(&self, job: Arc<dyn Job + 'a>) {
        if self.helpers.is_empty() {
            return job.run(0);
        }
        let _serialize = self.submit.lock();
        let shared = &self.shared;
        shared.done.store(0, Ordering::Relaxed);
        shared.suppressed_panics.store(0, Ordering::Relaxed);
        *shared.waiter.lock() = Some(std::thread::current());
        // SAFETY: only the lifetime bound changes (same pointer, same
        // vtable). The helpers reach the job through this slot alone, and
        // nothing below can unwind before the slot is cleared: worker 0's
        // panic is caught, and every helper drops its clone before it
        // counts itself done, which is what the wait below waits for. So no
        // handle outlives `'a`.
        let erased: Arc<dyn Job> =
            unsafe { std::mem::transmute::<Arc<dyn Job + 'a>, Arc<dyn Job>>(Arc::clone(&job)) };
        *shared.job.lock() = Some(erased);
        // The release increment publishes the job slot write above to any
        // helper that acquires the epoch (the mutex already synchronizes the
        // slot itself; the epoch is what helpers poll without the lock).
        shared.epoch.fetch_add(1, Ordering::Release);
        for h in &self.helpers {
            h.thread().unpark();
        }
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(0)));
        drop(job);
        if let Err(payload) = mine {
            shared.record_panic(payload);
        }
        // Wait for every helper. The last one unparks us; the bounded-park
        // backoff makes a missed unpark a bounded-latency event, never a
        // deadlock.
        let mut backoff = Backoff::new();
        while shared.done.load(Ordering::Acquire) < self.helpers.len() {
            backoff.snooze();
        }
        // Tear down: drop the pool's reference to the job (helpers dropped
        // theirs before signalling done) and clear the waiter slot.
        *shared.job.lock() = None;
        shared.waiter.lock().take();
        let payload = shared.panic.lock().take();
        if let Some(payload) = payload {
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
        for h in &self.helpers {
            h.thread().unpark();
        }
        for h in self.helpers.drain(..) {
            // A helper never panics outside a job (job panics are caught and
            // re-raised on the caller), so join errors are limited to
            // catastrophic situations; ignore them on teardown.
            let _ = h.join();
        }
    }
}

/// Body of helper `w`: park until the epoch advances (or shutdown), run the
/// published job, signal completion, repeat.
fn helper_main(shared: &Shared, w: usize, helpers: usize) {
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
            // Raced with teardown of a job this helper never observed
            // (possible only around shutdown); treat as spurious.
            continue;
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run(w)));
        // Drop our clone *before* signalling: once `done == helpers` the
        // caller assumes it holds the only references to the job's state.
        drop(job);
        if let Err(payload) = result {
            shared.record_panic(payload);
        }
        if shared.done.fetch_add(1, Ordering::AcqRel) + 1 == helpers {
            // Unpark without `take()`: a straggler from job N reaching this
            // point after job N+1 was submitted must not consume N+1's
            // waiter registration (that would lose N+1's completion wake-up
            // and leave its caller to the bounded-park fallback). A spurious
            // unpark of the next caller is harmless — it re-checks `done`
            // and parks again; the caller clears its own registration
            // during teardown.
            if let Some(waiter) = shared.waiter.lock().as_ref() {
                waiter.unpark();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    struct CountJob {
        hits: Vec<AtomicUsize>,
    }
    impl Job for CountJob {
        fn run(&self, w: usize) {
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
    fn the_caller_is_worker_0_beside_p_minus_1_helpers() {
        struct WhoRuns(Mutex<Vec<(usize, ThreadId)>>);
        impl Job for WhoRuns {
            fn run(&self, w: usize) {
                self.0.lock().push((w, std::thread::current().id()));
            }
        }
        let caller = std::thread::current().id();
        for threads in [1usize, 2, 4] {
            let pool = WorkerPool::new(threads).unwrap();
            assert_eq!(pool.helpers.len(), threads - 1, "{threads} threads");
            assert_eq!(pool.threads(), threads);
            let job = Arc::new(WhoRuns(Mutex::new(Vec::new())));
            pool.run(job.clone());
            let mut ran = job.0.lock().clone();
            ran.sort_by_key(|&(w, _)| w);
            let workers: Vec<usize> = ran.iter().map(|&(w, _)| w).collect();
            assert_eq!(workers, (0..threads).collect::<Vec<_>>());
            assert_eq!(ran[0].1, caller, "worker 0 runs on the calling thread");
            let helper_ids: HashSet<ThreadId> =
                pool.helpers.iter().map(|h| h.thread().id()).collect();
            let ran_on: HashSet<ThreadId> = ran[1..].iter().map(|&(_, id)| id).collect();
            assert_eq!(ran_on, helper_ids, "workers 1.. run on the spawned helpers");
            assert!(!helper_ids.contains(&caller));
        }
        // A one-thread context spawns no thread: its jobs run on the caller.
        let ctx = crate::context::QrContext::new(1).unwrap();
        assert!(ctx.pool.helpers.is_empty());
    }

    #[test]
    fn pool_survives_a_panicking_job_and_reraises_it() {
        struct Bomb;
        impl Job for Bomb {
            fn run(&self, w: usize) {
                if w == 0 {
                    panic!("boom from worker 0");
                }
            }
        }
        let pool = WorkerPool::new(2).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(Arc::new(Bomb));
        }));
        assert!(err.is_err(), "job panic must reach the caller");
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
            fn run(&self, w: usize) {
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
                fn run(&self, w: usize) {
                    if w == 1 {
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
        // All helper clones and the pool's slot reference are gone.
        let job = Arc::try_unwrap(job).unwrap_or_else(|_| panic!("job uniquely owned"));
        assert!(job.hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn dropping_an_idle_pool_joins_cleanly() {
        let pool = WorkerPool::new(2).unwrap();
        assert_eq!(pool.threads(), 2);
        drop(pool); // must not hang
    }
}
