//! Multicore runtime for the tiled QR factorization.
//!
//! This crate plays the role of PLASMA's dynamic scheduler in the paper's
//! experiments: it takes the weighted task DAG produced by `tileqr-core`
//! (for any elimination tree and either kernel family) and executes it with
//! the real floating-point kernels of `tileqr-kernels`, either sequentially
//! or on a pool of worker threads with dependency-driven scheduling.
//!
//! * [`executor`] — the dependency-counting worker loop every job runs, the
//!   generic scoped DAG executors built on it (sequential and
//!   multi-threaded; no factorization path of this crate calls them — they
//!   serve external callers), and the one ready-task scheduler, work
//!   stealing over per-worker Chase–Lev deques. Every worker thread gets its
//!   own preallocated kernel [`Workspace`](tileqr_kernels::Workspace), so
//!   the per-task hot loop never touches the allocator.
//! * `sync` (crate-private) — std-only synchronisation primitives (mutex,
//!   three-tier spin/yield/park backoff, a locked FIFO injector, Chase–Lev
//!   work-stealing deque) used by the executor, the pool and the state;
//!   only [`CancelToken`] is public.
//! * [`state`] — the shared factorization state: lock-protected tiles plus
//!   the per-tile `T` factors (preallocated up front), and the mapping from
//!   a [`TaskKind`] to the corresponding kernel call.
//! * [`context`] — the **session API** and the recommended entry point for
//!   services: a long-lived [`QrContext`] owning a persistent, parkable
//!   worker pool (the calling thread is worker 0 of every job, beside
//!   `threads − 1` helpers), reusable shape-keyed [`QrPlan`]s (elimination
//!   list, DAG and workspaces precomputed once), typed [`QrError`]s
//!   ([`error`]) instead of panics, and an in-place
//!   [`QrContext::factorize_into`] path over caller-owned tile storage. A
//!   context has five request calls — `factorize`, `factorize_into`,
//!   `factorize_batch`, `factorize_batch_into` and `solve` — and bounds every
//!   job by what it was built with (watchdog, deadline); clones share the
//!   pool. **One engine**: every call — single, in-place,
//!   [`QrContext::factorize_batch`] / [`QrContext::factorize_batch_into`],
//!   the fused solve, a service group, the traced one-shot driver — is *one
//!   fused pool job* whose copies each bring their own schedule (one worker
//!   wake-up for the whole job, work stealing balancing across matrices,
//!   per-item errors isolated); the callers differ only in the *sink* the
//!   job hands each copy's outcome to — a collecting sink for the blocking
//!   calls, a ticket-resolving one for the service — and every thread count
//!   runs it the same way (at `threads == 1`, the caller alone). A copy's
//!   `T` factors are one value ([`reflectors::TFactors`]) that returns its buffers to the plan's
//!   pool wherever it is dropped — **dropping the handle is the recycle
//!   path** — cutting the steady-state batch loop down to a constant *count*
//!   of per-call bookkeeping allocations — none per task, tile or `T`
//!   factor. The session API is three modules — [`plan`] ([`QrPlan`] and its
//!   caches), [`reflectors`] ([`QrReflectors`], the `T` factors and the
//!   `Q`/`Qᴴ` replay) and [`context`] (the entry points) — all re-exported
//!   from [`context`].
//! * [`driver`] — one-shot convenience wrappers over the session API:
//!   [`driver::qr_factorize`] (threads from [`QrConfig::threads`]),
//!   [`driver::qr_factorize_traced`] and the [`driver::QrFactorization`]
//!   handle (extract `R`, apply `Q`/`Qᴴ`, build `Q` explicitly, residuals).
//! * [`solve`] — linear least-squares solve on top of the tiled QR, the
//!   motivating application of the paper's introduction. From `(A, b)` the
//!   solve is one plan: [`QrContext::solve`] runs the right-hand side as a
//!   trailing tile column of the factorization DAG (one-shot and
//!   context/plan-based wrappers for a single right-hand side); replay from
//!   a factorization handle and a service-routed variant cover later-arriving
//!   right-hand sides.
//! * [`service`] — the **streaming multi-tenant service layer** (see
//!   below): a [`QrService`] in front of one context,
//!   with bounded admission, per-tenant fairness, load shedding and
//!   transient-fault retry.
//!
//! # Service layer
//!
//! `QrService` turns the session API into a long-running, multi-tenant
//! front end. Many concurrent [`QrClient`] handles
//! submit dense matrices; each accepted submission returns a
//! [`Ticket`] that resolves with that matrix's `Result`
//! the moment its last task retires — per-item streaming out of fused
//! pool jobs, not join-the-whole-batch. The overload surface is typed and
//! first-class:
//!
//! * **Bounded admission & backpressure** — the submission queue is
//!   bounded; [`QrClient::submit`](service::QrClient::submit) fast-fails
//!   with the retriable [`QrError::QueueFull`] while
//!   [`QrClient::submit_within`](service::QrClient::submit_within) blocks
//!   for admission up to a deadline.
//! * **Fairness & quotas** — every client is a tenant with its own FIFO
//!   lane and unresolved-item quota; the dispatcher dequeues lanes with a
//!   deficit round-robin weighted by DAG size, so one hot tenant gets a
//!   proportional share instead of starving the rest.
//! * **Load shedding** — past a configured queue depth, new
//!   [`Priority::Low`](service::Priority) work is shed at admission with
//!   `QueueFull` instead of letting the tail latency of everything
//!   collapse.
//! * **Retry** — transient per-item faults ([`QrError::is_transient`]:
//!   `TaskPanicked`, `Stalled`) re-run with bounded attempts and
//!   decorrelated-jitter backoff; deterministic errors (`ShapeMismatch`
//!   at submit, `NonFiniteInput` at dispatch) never retry.
//! * **Shutdown ordering** — shutdown wakes blocked submitters
//!   ([`QrError::ServiceShutdown`]), drains the in-flight job with real
//!   outcomes, then resolves every queued/awaiting-retry ticket with
//!   `ServiceShutdown`; no ticket is ever leaked, even if the dispatcher
//!   panics.
//!
//! See the [`service`] module docs for the full semantics and
//! `examples/service_stream.rs` for a multi-client open-loop demo.
//!
//! # Robustness & error handling
//!
//! The runtime is built to degrade per *item*, not per *pool* — one poisoned
//! matrix in a fused batch must not take down its siblings, and no call may
//! hang forever. The pieces:
//!
//! **The [`QrError`] taxonomy.** Configuration and input errors are reported
//! before any kernel runs: [`QrError::WideMatrix`], [`QrError::ZeroTileSize`],
//! [`QrError::ZeroDomainSize`] (plan construction), [`QrError::ZeroThreads`] /
//! [`QrError::TooManyThreads`] / [`QrError::ThreadSpawn`] (context
//! construction — thread-spawn failure is a typed error, not a panic),
//! [`QrError::ShapeMismatch`] / [`QrError::PlanMismatch`] /
//! [`QrError::RhsLength`] (per-call input checks) and the opt-in
//! [`QrError::NonFiniteInput`] ([`QrConfig::check_finite`] scans for NaN/Inf
//! so bad inputs fail fast instead of silently producing garbage factors).
//! Runtime faults are reported per batch item: [`QrError::TaskPanicked`]
//! (a kernel panicked while factorizing that item),
//! [`QrError::Cancelled`], [`QrError::DeadlineExceeded`] and
//! [`QrError::Stalled`].
//!
//! **Panic containment.** Every kernel task of a job runs under
//! `catch_unwind` — at one site, the executor's worker loop: a panic marks
//! only that task's batch copy failed
//! (its remaining tasks are skipped — counted as released, never executed)
//! while sibling items run to completion, the pool survives, and the failed
//! item returns [`QrError::TaskPanicked`] carrying the panicking task's kind
//! and message. When several workers panic at once, the surplus payloads
//! are *counted* and the count is surfaced instead of being dropped
//! silently. The legacy free functions ([`qr_factorize`] & co.) keep their
//! documented panicking contract — they re-raise the contained error — and
//! the scoped executor ([`executor`]) keeps its abort-and-propagate
//! behavior. A failed item's output buffers hold partial garbage and must
//! be refilled; input-rejected items (shape, finiteness) are bitwise
//! untouched.
//!
//! **Cancellation, deadlines, watchdog.** [`QrContext::cancel_handle`]
//! returns a sticky, cloneable [`CancelToken`] checked between tasks;
//! [`QrContext::with_deadline`] bounds the wall-clock time of every job,
//! from its start; and [`QrContext::with_watchdog`] arms a stall check that
//! cancels a job when a worker wants work and no task has retired for longer
//! than the bound ([`QrError::Stalled`]) instead of hanging the caller. No thread watches a
//! job from outside: its own workers — the caller, as worker 0, included —
//! poll all three between tasks, and run the stall check (at most once per
//! eighth of the bound) while idle. Batches report partial results: items
//! that finished before the trigger still return `Ok`. Clocks are read only
//! when a deadline or a stall bound is set — otherwise the per-task cost of
//! the whole robustness layer is a handful of atomic loads.
//!
//! **Deterministic fault injection** (`--features fault-injection`,
//! default-off, zero-cost when disabled). The `fault` module installs a
//! seeded `FaultPlan` injecting panics and delays at chosen `(copy, task)`
//! boundaries, driving the chaos stress suite: a hundred seeded fault
//! schedules across shapes, asserting every non-faulted item
//! stays bitwise identical to its fault-free factorization and every
//! faulted item reports the right error.
//!
//! # Concurrency invariants & verification
//!
//! The lock-free core of the runtime rests on a small set of invariants,
//! each of which is *checked mechanically*, not just argued in comments:
//!
//! * **Chase–Lev deque** (`sync::WorkerDeque`) — every pushed index is
//!   popped or stolen exactly once; the single-element owner/stealer race
//!   resolves via the `SeqCst` compare-exchange on `top`; capacity is a
//!   hard bound (exceeding it trips a `debug_assert`, the ring never
//!   grows). The required `SeqCst` fences follow Lê et al. (PPoPP '13);
//!   each ordering in `sync.rs` carries an audit comment saying which
//!   reordering it forbids.
//! * **Injector** (`sync::TaskQueue`) — a `Mutex<VecDeque>` reserved to the
//!   DAG length up front, holding the initially-ready tasks; every index in
//!   it is popped exactly once because every pop holds the lock.
//! * **Dependency counting** (executor/pool) — a task becomes ready exactly
//!   when its last dependency retires; the release-store/acquire-load pair
//!   on the remaining-dependency counter publishes the predecessor's tile
//!   writes to whichever worker picks the task up.
//! * **Once-slots, cancellation and wake-ups** — `OnceSlot` publishes at
//!   most one value; the first cancel cause wins; a blocked submitter or
//!   ticket waiter is never left asleep after the state it waits on changed.
//!
//! Two in-tree verification layers check these claims on every CI run:
//!
//! 1. **Model checking.** Building with `RUSTFLAGS="--cfg tileqr_verify"`
//!    swaps the primitives in `sync` onto the deterministic shims of the
//!    `tileqr-verify` crate — a loom-style model checker exploring thread
//!    interleavings (bounded-preemption DFS plus seeded random sampling)
//!    while tracking happens-before. The `model_check` module (compiled
//!    only under that cfg) then checks small instances of these protocols:
//!    the Chase–Lev deque (handoff, last-element pop against steal, two
//!    stealers, wrap-around), the cancel token (first cause wins, reset
//!    against trigger), the once-slot (set against wait and timed wait,
//!    competing producers), the lazy condvar's wake-up handshake
//!    (backpressure, shutdown), the claim flag, and the job's
//!    deliver-each-copy-exactly-once finish (the real job — its
//!    dependency counters included — on the main thread as worker 0 and one
//!    helper, raced against a user cancellation from a third thread). The
//!    ready-queue injector and the backoff are not modelled: the first is a
//!    plain lock, the second only decides how long an idle worker waits.
//!    A failing schedule replays deterministically:
//!
//!    ```text
//!    RUSTFLAGS="--cfg tileqr_verify" cargo test -p tileqr-runtime --lib model_check
//!    ```
//!
//! 2. **Static plan analysis.** `tileqr_core::footprint::footprint` is the
//!    one table of which storage each kernel task touches: the DAG builder
//!    chains every task after the last writer of each tile it names, and
//!    [`FactorizationState::run_ws`](state::FactorizationState::run_ws)
//!    locks exactly those tiles. The `tileqr_core::footprint` analyzer
//!    proves, against the same table, every schedulable plan (all
//!    elimination algorithms × kernel families × a broad shape sweep) free
//!    of RAW/WAR/WAW hazards at tile-region granularity: any two
//!    conflicting kernel accesses are ordered by a DAG path, so the
//!    executor above — which is correct for *any* DAG — never runs two
//!    conflicting kernels concurrently. Plans take their DAG from the
//!    function the analyzer sweeps (`footprint::plan_dag`). `cargo run -p
//!    tileqr-core --bin tileqr-analyze` is the CI gate; it exits non-zero
//!    on any hazard. The same sweep proves the first-touch rule a dense
//!    input is filled by: each tile's first task writes it and every other
//!    task naming it descends from that task.
//!
//! Normal builds are untouched: the shim layer is a `cfg` alias, so the
//! release executor compiles to exactly the same std/atomic code as before.
//!
//! [`TaskKind`]: tileqr_core::TaskKind
//! [`QrError::WideMatrix`]: context::QrError::WideMatrix
//! [`QrError::ZeroTileSize`]: context::QrError::ZeroTileSize
//! [`QrError::ZeroDomainSize`]: context::QrError::ZeroDomainSize
//! [`QrError::ZeroThreads`]: context::QrError::ZeroThreads
//! [`QrError::TooManyThreads`]: context::QrError::TooManyThreads
//! [`QrError::ThreadSpawn`]: context::QrError::ThreadSpawn
//! [`QrError::ShapeMismatch`]: context::QrError::ShapeMismatch
//! [`QrError::PlanMismatch`]: context::QrError::PlanMismatch
//! [`QrError::RhsLength`]: context::QrError::RhsLength
//! [`QrError::NonFiniteInput`]: context::QrError::NonFiniteInput
//! [`QrError::TaskPanicked`]: context::QrError::TaskPanicked
//! [`QrError::Cancelled`]: context::QrError::Cancelled
//! [`QrError::DeadlineExceeded`]: context::QrError::DeadlineExceeded
//! [`QrError::Stalled`]: context::QrError::Stalled
//! [`QrConfig::check_finite`]: driver::QrConfig::check_finite
//! [`QrContext::cancel_handle`]: context::QrContext::cancel_handle
//! [`QrContext::with_watchdog`]: context::QrContext::with_watchdog
//! [`QrContext::with_deadline`]: context::QrContext::with_deadline
//! [`QrConfig::threads`]: driver::QrConfig::threads
//! [`qr_factorize`]: driver::qr_factorize
//! [`QrContext::factorize_into`]: context::QrContext::factorize_into
//! [`QrContext::factorize_batch`]: context::QrContext::factorize_batch
//! [`QrContext::factorize_batch_into`]: context::QrContext::factorize_batch_into

#![warn(missing_docs)]

pub mod context;
pub mod driver;
pub mod error;
pub mod executor;
#[cfg(feature = "fault-injection")]
pub mod fault;
mod job;
#[cfg(all(test, tileqr_verify))]
mod model_check;
pub mod plan;
mod pool;
pub mod reflectors;
pub mod service;
pub mod solve;
pub mod state;
mod sync;
pub mod trace;

pub use context::{QrContext, QrError, QrPlan, QrReflectors};
pub use driver::{qr_factorize, QrConfig, QrFactorization, DEFAULT_INNER_BLOCK};
pub use executor::SchedulerKind;
pub use service::{
    Priority, QrClient, QrService, RetryPolicy, ServiceConfig, ServiceStats, Ticket,
};
pub use solve::{least_squares_solve, least_squares_solve_via, least_squares_solve_with};
pub use sync::CancelToken;
pub use trace::{ExecutionTrace, TraceSummary, WorkerTrace};
